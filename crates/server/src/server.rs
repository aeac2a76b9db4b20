//! The serving loop: listener, sessions, admission, cancellation.
//!
//! [`serve`] binds a `TcpListener` and returns a [`ServerHandle`];
//! each accepted connection gets its own reader thread and its own
//! [`Database`] session over the shared catalogue, so sessions are
//! isolated (per-connection transactions, prepared statements, plan
//! cache) while all of them read the same column store.
//!
//! The interesting part is not the socket plumbing but the *policy*
//! between the socket and the engine:
//!
//! - **Admission control** — a bounded gate caps how many queries
//!   execute at once and how many may wait. When the wait queue is
//!   full the server answers [`ErrorCode::Overloaded`] *immediately*
//!   instead of wedging the connection, so clients see backpressure
//!   as a typed, retryable error rather than latency.
//! - **Cancellation** — every `Query`/`Execute` registers a
//!   [`CancelToken`] under its connection and its client-chosen
//!   `query_id` in a server-wide table, so a `Cancel` frame from *any*
//!   connection trips every in-flight query submitted under that id
//!   (clients number their queries alike; two of them sharing an id
//!   must not share a registry slot). The engine observes the token at
//!   morsel boundaries and the worker is freed mid-query.
//! - **Budgets** — the server can impose a wall-clock timeout and a
//!   morsel budget on every query it admits
//!   ([`ServerConfig::query_timeout`] /
//!   [`ServerConfig::morsel_budget`]); both surface as
//!   [`ErrorCode::Cancelled`] with the cause in the message.
//! - **Graceful shutdown** — [`ServerHandle::shutdown`] stops
//!   accepting, lets every in-flight query finish and its reply be
//!   written, then joins all connection threads.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vagg_db::{
    CancelToken, Database, PlanError, PreparedStatement, SharedCatalogue, SqlError, SqlOutcome,
};

use crate::protocol::{
    write_frame, ErrorCode, Request, Response, WireRow, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// How often an idle connection thread polls the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// How many consecutive read timeouts mid-frame before the server
/// gives up on a stalled sender (POLL × this = ~10 s).
const MAX_FRAME_STALLS: u32 = 200;

/// Serving policy and socket configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free
    /// port; read the real one off [`ServerHandle::addr`]).
    pub addr: String,
    /// Queries allowed to execute concurrently. Admission beyond this
    /// waits in the queue. Zero admits nothing: every query is
    /// rejected with [`ErrorCode::Overloaded`], whatever `max_queue`.
    pub max_inflight: usize,
    /// Queries allowed to *wait* for admission. When the queue is
    /// full, further queries are rejected with
    /// [`ErrorCode::Overloaded`] without blocking the connection.
    pub max_queue: usize,
    /// Wall-clock budget per admitted query; exceeding it cancels the
    /// query at the next morsel boundary
    /// ([`vagg_db::CancelCause::TimedOut`]).
    pub query_timeout: Option<Duration>,
    /// Morsel budget per admitted query; exceeding it cancels the
    /// query ([`vagg_db::CancelCause::OverBudget`]).
    pub morsel_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_inflight: 8,
            max_queue: 32,
            query_timeout: None,
            morsel_budget: None,
        }
    }
}

// ---------------------------------------------------------------------
// Admission gate

/// A bounded semaphore: `max_inflight` permits plus a wait queue of at
/// most `max_queue`. Unlike a plain semaphore, overflow is an
/// immediate typed rejection — the caller never blocks once the queue
/// is full, which is what keeps an overloaded server responsive.
struct Gate {
    max_inflight: usize,
    max_queue: usize,
    /// `(inflight, waiting)` under one lock so the reject decision is
    /// atomic with the counts.
    state: Mutex<(usize, usize)>,
    cond: Condvar,
}

struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Gate {
    fn new(max_inflight: usize, max_queue: usize) -> Self {
        Self {
            max_inflight,
            max_queue,
            state: Mutex::new((0, 0)),
            cond: Condvar::new(),
        }
    }

    /// Admits the caller, waiting in the bounded queue if the server
    /// is at capacity. `Err(())` means the queue was full — overload —
    /// or the gate has no permits, so that no release could end a wait.
    fn admit(&self) -> Result<GatePermit<'_>, ()> {
        let mut s = self.state.lock().unwrap();
        if s.0 < self.max_inflight {
            s.0 += 1;
            return Ok(GatePermit { gate: self });
        }
        if self.max_inflight == 0 || s.1 >= self.max_queue {
            return Err(());
        }
        s.1 += 1;
        while s.0 >= self.max_inflight {
            s = self.cond.wait(s).unwrap();
        }
        s.1 -= 1;
        s.0 += 1;
        Ok(GatePermit { gate: self })
    }

    /// `(inflight, queued)` right now.
    fn depth(&self) -> (usize, usize) {
        *self.state.lock().unwrap()
    }
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().unwrap();
        s.0 -= 1;
        drop(s);
        self.gate.cond.notify_one();
    }
}

// ---------------------------------------------------------------------
// Serving stats

/// Aggregate serving counters, readable while the server runs. All
/// counters are monotonic except the gauges.
#[derive(Debug, Default)]
pub struct ServingStats {
    connections_total: AtomicU64,
    connections_open: AtomicU64,
    queries: AtomicU64,
    rows_returned: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    errors: AtomicU64,
}

impl ServingStats {
    /// Connections accepted since the server started.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Connections open right now.
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Queries finished (success or typed error), excluding rejected.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Result rows written to the wire.
    pub fn rows_returned(&self) -> u64 {
        self.rows_returned.load(Ordering::Relaxed)
    }

    /// Queries rejected by admission control (`Overloaded`).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Queries that ended cancelled (explicit, timeout or budget).
    pub fn cancelled(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Queries that ended in a non-cancellation error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Server

struct ServerInner {
    catalogue: SharedCatalogue,
    config: ServerConfig,
    gate: Gate,
    /// The in-flight query of each connection — connection number →
    /// (client-chosen `query_id`, its token). Server-wide on purpose: a
    /// controller connection can cancel a query submitted on any other
    /// connection; keyed by connection because every client counts its
    /// ids from 1.
    cancels: Mutex<HashMap<u64, (u64, CancelToken)>>,
    stats: ServingStats,
    started: Instant,
    shutdown: AtomicBool,
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (same as [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<ServerInner>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Binds `config.addr` and starts serving `catalogue` on background
/// threads. Returns as soon as the listener is bound.
pub fn serve(catalogue: SharedCatalogue, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let inner = Arc::new(ServerInner {
        gate: Gate::new(config.max_inflight, config.max_queue),
        catalogue,
        config,
        cancels: Mutex::new(HashMap::new()),
        stats: ServingStats::default(),
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
    });
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let inner = Arc::clone(&inner);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("vagg-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn = inner
                        .stats
                        .connections_total
                        .fetch_add(1, Ordering::Relaxed);
                    inner.stats.connections_open.fetch_add(1, Ordering::Relaxed);
                    let inner = Arc::clone(&inner);
                    let handle = std::thread::Builder::new()
                        .name("vagg-conn".into())
                        .spawn(move || {
                            serve_connection(&inner, conn, stream);
                            inner.stats.connections_open.fetch_sub(1, Ordering::Relaxed);
                        })
                        .expect("spawn connection thread");
                    conns.lock().unwrap().push(handle);
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        inner,
        accept: Some(accept),
        conns,
    })
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving counters.
    pub fn stats(&self) -> &ServingStats {
        &self.inner.stats
    }

    /// The same Prometheus exposition a `Metrics` frame returns.
    pub fn metrics_text(&self) -> String {
        self.inner.metrics_text()
    }

    /// Graceful shutdown: stop accepting, let in-flight queries finish
    /// and their replies drain, then join every connection thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        // `incoming()` blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ---------------------------------------------------------------------
// Per-connection loop

/// Reads one frame, polling the shutdown flag while idle between
/// frames. `Ok(None)` means the connection should close (client EOF or
/// server shutdown).
fn read_frame_polling(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    // Idle wait: the first length byte may take arbitrarily long, so
    // retry timeouts indefinitely, checking the shutdown flag.
    let mut first = [0u8; 1];
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if stalled(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    // Once a frame has started, the rest must follow promptly; a
    // sender that stalls mid-frame is dropped rather than pinning the
    // thread forever.
    let mut len = [first[0], 0, 0, 0];
    read_exact_bounded(stream, &mut len[1..])?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; n];
    read_exact_bounded(stream, &mut payload)?;
    Ok(Some(payload))
}

fn read_exact_bounded(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<()> {
    let mut at = 0;
    let mut stalls = 0u32;
    while at < buf.len() {
        match stream.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                at += n;
                stalls = 0;
            }
            Err(e) if stalled(&e) => {
                stalls += 1;
                if stalls > MAX_FRAME_STALLS {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "frame stalled"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn stalled(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn send(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    write_frame(stream, &resp.encode())
}

/// Serves one connection to completion; `conn` is its number among all
/// the server accepted — what its queries are registered under.
fn serve_connection(inner: &ServerInner, conn: u64, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));

    // Handshake: the first frame must be a version-compatible Hello.
    match read_frame_polling(&mut stream, &inner.shutdown) {
        Ok(Some(payload)) => match Request::decode(&payload) {
            Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                let hello = Response::HelloOk {
                    version: PROTOCOL_VERSION,
                    server: format!("vagg-serve/{}", env!("CARGO_PKG_VERSION")),
                };
                if send(&mut stream, &hello).is_err() {
                    return;
                }
            }
            Ok(Request::Hello { version }) => {
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!(
                            "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                        ),
                    },
                );
                return;
            }
            Ok(_) | Err(_) => {
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: "the first frame must be Hello".into(),
                    },
                );
                return;
            }
        },
        Ok(None) | Err(_) => return,
    }

    // The session: one Database over the shared catalogue, owned by
    // this connection. Prepared statements are connection-scoped.
    let mut db = inner.catalogue.connect();
    let mut prepared: HashMap<u32, PreparedStatement> = HashMap::new();
    let mut next_statement = 0u32;

    loop {
        let payload = match read_frame_polling(&mut stream, &inner.shutdown) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                // A torn or oversize frame leaves the stream at an
                // unknowable offset; answer typed, then close.
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let response = match request {
            Request::Hello { .. } => {
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: "duplicate Hello".into(),
                    },
                );
                return;
            }
            Request::Goodbye => {
                let _ = send(&mut stream, &Response::Bye);
                return;
            }
            Request::Query { query_id, sql } => {
                inner.governed(conn, query_id, |token| db.run_sql_cancellable(&sql, token))
            }
            Request::Prepare { sql } => match db.prepare(&sql) {
                Ok(statement) => {
                    next_statement += 1;
                    prepared.insert(next_statement, statement);
                    Response::Prepared {
                        statement: next_statement,
                    }
                }
                Err(e) => inner.error_response(&e),
            },
            // The execution carries the token on its read request, as a
            // `Query` does, so a `Cancel` frame, the timeout and the
            // morsel budget all take effect before the next 2048-row
            // range.
            Request::Execute {
                query_id,
                statement,
                params,
            } => match prepared.get_mut(&statement) {
                Some(stmt) => inner.governed(conn, query_id, |token| {
                    db.run_cancellable(token, |db| stmt.execute(db, &params))
                        .map(SqlOutcome::Rows)
                }),
                None => Response::Error {
                    code: ErrorCode::Bind,
                    message: format!("unknown prepared statement id {statement}"),
                },
            },
            Request::Begin { read_only } => inner.run_plain(
                &mut db,
                if read_only {
                    "BEGIN READ ONLY"
                } else {
                    "BEGIN"
                },
            ),
            Request::Commit => inner.run_plain(&mut db, "COMMIT"),
            Request::Rollback => inner.run_plain(&mut db, "ROLLBACK"),
            Request::Cancel { query_id } => inner.cancel(query_id),
            Request::Metrics => Response::Metrics(inner.metrics_text()),
        };
        if send(&mut stream, &response).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Request handling

impl ServerInner {
    fn registry(&self) -> MutexGuard<'_, HashMap<u64, (u64, CancelToken)>> {
        self.cancels.lock().unwrap()
    }

    /// The admission + cancellation bracket around one governed
    /// statement of connection `conn`: a gate permit, a token under the
    /// configured limits, registered under `query_id` for exactly as
    /// long as `run` executes.
    fn governed(
        &self,
        conn: u64,
        query_id: u64,
        run: impl FnOnce(&CancelToken) -> Result<SqlOutcome, SqlError>,
    ) -> Response {
        let Ok(permit) = self.gate.admit() else {
            return self.reject();
        };
        let token = CancelToken::with_limits(self.config.query_timeout, self.config.morsel_budget);
        self.registry().insert(conn, (query_id, token.clone()));
        let result = run(&token);
        self.registry().remove(&conn);
        drop(permit);
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(outcome) => self.render(outcome),
            Err(e) => self.count_and_render_error(&e),
        }
    }

    /// Transaction brackets bypass admission: they touch only session
    /// state and must stay responsive even under query overload.
    fn run_plain(&self, db: &mut Database, sql: &str) -> Response {
        match db.run_sql(sql) {
            Ok(outcome) => self.render(outcome),
            Err(e) => self.count_and_render_error(&e),
        }
    }

    /// Trips every in-flight query submitted under `query_id`,
    /// whichever connections they run on.
    fn cancel(&self, query_id: u64) -> Response {
        let mut signalled = false;
        for (id, token) in self.registry().values() {
            if *id == query_id {
                token.cancel();
                signalled = true;
            }
        }
        Response::Outcome(if signalled {
            format!("cancel signalled for query {query_id}")
        } else {
            format!("no in-flight query {query_id}")
        })
    }

    fn reject(&self) -> Response {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        let (inflight, queued) = self.gate.depth();
        Response::Error {
            code: ErrorCode::Overloaded,
            message: format!(
                "admission queue full ({inflight} in flight, {queued} queued); retry later"
            ),
        }
    }

    fn render(&self, outcome: SqlOutcome) -> Response {
        match outcome {
            SqlOutcome::Rows(output) => {
                self.stats
                    .rows_returned
                    .fetch_add(output.rows.len() as u64, Ordering::Relaxed);
                Response::Rows(
                    output
                        .rows
                        .into_iter()
                        .map(|row| WireRow {
                            group: row.group,
                            group_parts: row.group_parts,
                            values: row.values,
                        })
                        .collect(),
                )
            }
            SqlOutcome::Analyzed(analyzed) => Response::Outcome(analyzed.explain()),
            SqlOutcome::Plan(plan) => Response::Outcome(format!("{:?}", plan.steps())),
            SqlOutcome::JoinPlan(plan) => Response::Outcome(format!("{plan:?}")),
            SqlOutcome::Inserted(receipt) => Response::Outcome(format!(
                "inserted {} rows (data version {})",
                receipt.rows, receipt.data_version
            )),
            SqlOutcome::Deleted(receipt) => {
                Response::Outcome(format!("deleted {} rows", receipt.rows))
            }
            SqlOutcome::Updated(receipt) => {
                Response::Outcome(format!("updated {} rows", receipt.rows))
            }
            SqlOutcome::Queued(n) => Response::Outcome(format!("queued ({n} statements buffered)")),
            SqlOutcome::TransactionBegun => Response::Outcome("transaction begun".into()),
            SqlOutcome::TransactionCommitted => Response::Outcome("transaction committed".into()),
            SqlOutcome::TransactionRolledBack => {
                Response::Outcome("transaction rolled back".into())
            }
            SqlOutcome::SnapshotCreated => Response::Outcome("snapshot created".into()),
        }
    }

    fn count_and_render_error(&self, e: &SqlError) -> Response {
        if matches!(e, SqlError::Cancelled(_)) {
            self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.error_response(e)
    }

    fn error_response(&self, e: &SqlError) -> Response {
        Response::Error {
            code: classify(e),
            message: e.to_string(),
        }
    }

    /// The full exposition: the engine's metrics registry (query
    /// counts, cycle histogram, slow queries, executor gauges) plus
    /// the serving layer's own counters and derived rates.
    fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let snapshot = self.catalogue.metrics().snapshot();
        let mut text = snapshot.to_text();
        let (inflight, queued) = self.gate.depth();
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let queries = self.stats.queries();
        let _ = writeln!(
            text,
            "vagg_server_connections_open {}",
            self.stats.connections_open()
        );
        let _ = writeln!(
            text,
            "vagg_server_connections_total {}",
            self.stats.connections_total()
        );
        let _ = writeln!(text, "vagg_server_queries_total {queries}");
        let _ = writeln!(
            text,
            "vagg_server_rows_returned_total {}",
            self.stats.rows_returned()
        );
        let _ = writeln!(text, "vagg_server_rejected_total {}", self.stats.rejected());
        let _ = writeln!(
            text,
            "vagg_server_cancelled_total {}",
            self.stats.cancelled()
        );
        let _ = writeln!(text, "vagg_server_errors_total {}", self.stats.errors());
        let _ = writeln!(text, "vagg_server_inflight {inflight}");
        let _ = writeln!(text, "vagg_server_queue_depth {queued}");
        let _ = writeln!(text, "vagg_server_uptime_seconds {uptime:.3}");
        let _ = writeln!(text, "vagg_server_qps {:.3}", queries as f64 / uptime);
        if let Some(p50) = snapshot.cycle_quantile(0.5) {
            let _ = writeln!(text, "vagg_query_cycles_p50 {p50}");
        }
        if let Some(p99) = snapshot.cycle_quantile(0.99) {
            let _ = writeln!(text, "vagg_query_cycles_p99 {p99}");
        }
        text
    }
}

fn classify(e: &SqlError) -> ErrorCode {
    match e {
        SqlError::Parse(_) => ErrorCode::Parse,
        SqlError::UnknownTable(_) => ErrorCode::UnknownTable,
        SqlError::Plan(PlanError::BindArity { .. } | PlanError::BindType { .. }) => ErrorCode::Bind,
        SqlError::Plan(_) => ErrorCode::Plan,
        SqlError::Cancelled(_) => ErrorCode::Cancelled,
        SqlError::NestedTransaction
        | SqlError::NoOpenTransaction
        | SqlError::TransactionStatement
        | SqlError::ReadOnly => ErrorCode::Transaction,
        _ => ErrorCode::Unsupported,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_admits_up_to_capacity_and_rejects_queue_overflow() {
        let gate = Gate::new(2, 1);
        let a = gate.admit().unwrap();
        let b = gate.admit().unwrap();
        assert_eq!(gate.depth(), (2, 0));

        // A third caller would wait; prove the *reject* path with a
        // zero-capacity gate instead (waiting needs another thread).
        drop(a);
        drop(b);
        let closed = Gate::new(0, 0);
        assert!(closed.admit().is_err());
    }

    #[test]
    fn waiting_callers_are_admitted_when_a_permit_frees() {
        let gate = Arc::new(Gate::new(1, 4));
        let permit = gate.admit().unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _permit = gate.admit().expect("queued caller is admitted");
            })
        };
        // Give the waiter time to queue, then free the permit.
        while gate.depth().1 == 0 {
            std::thread::yield_now();
        }
        drop(permit);
        waiter.join().unwrap();
        assert_eq!(gate.depth(), (0, 0));
    }
}
