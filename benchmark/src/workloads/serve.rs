//! `serve_mixed`: what a `vagg-serve` client feels. Two blocking
//! connections (one per host core) issue reads and single-row INSERTs
//! through the same server, so writes land beside reads on one
//! catalogue and compaction happens mid-run.

use super::{loop_seconds, ms, us, Clock, Pass, Scale};
use crate::gen::{shuffle, statements, Class, Dims, Events, Stmt, FILTER_TEMPLATE};
use crate::oracle::{expected, flat_row, flat_wire, matches, total_count, Flat};
use crate::span::Recorder;
use crate::stats::median;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_db::{CancelToken, CompactionPolicy, Database, SharedCatalogue, SqlOutcome};
use vagg_server::{
    serve, Client, ClientError, ErrorCode, Reply, ServerConfig, ServerHandle, WireRow,
};

/// Connections, each on its own harness thread: the host's core count.
pub const CLIENTS: usize = 2;

/// Rows in `events` before the run: 96 KiB of columns, inside the
/// simulated L2, so queries are a few milliseconds and framing,
/// admission, parsing and the plan cache are a visible share.
pub fn base_rows(scale: Scale) -> usize {
    scale.pick(8_192, 1_024)
}

/// Operations per connection and pass: 15 % INSERT, 85 % reads (full
/// scan, `Execute` of the prepared filter, composite, literal
/// clustered `ts < N`).
fn mix(scale: Scale) -> (usize, [(Class, usize); 4]) {
    let n = scale.pick(6, 1);
    let reads = [
        (Class::Full, 5 * n),
        (Class::Filter, 4 * n),
        (Class::Composite, 4 * n),
        (Class::Pruned, 4 * n),
    ];
    (3 * n, reads)
}

/// The default policy compacts at 4096 delta rows, which a few hundred
/// single-row inserts never reach; this threshold makes compaction
/// happen a few times per pass, as it does on a long-running server.
const COMPACT_EVERY: usize = 32;

#[derive(Debug, Clone, Copy)]
enum Request {
    Read(Stmt),
    Insert([u32; 4]),
}

fn insert_sql([g, h, v, ts]: [u32; 4]) -> String {
    format!("INSERT INTO events (g, h, v, ts) VALUES ({g}, {h}, {v}, {ts})")
}

/// One connection's seeded operation list and the rows it will insert.
fn client_ops(client: usize, scale: Scale, seed: u64) -> (Vec<Request>, Events) {
    let (inserts, reads) = mix(scale);
    let rows = base_rows(scale);
    let seed = seed.wrapping_mul(31).wrapping_add(client as u64 + 1);
    let inserted = Events::generate(inserts, (rows + client * inserts) as u32, seed);
    let mut ops: Vec<Request> = statements(&reads, rows, seed)
        .into_iter()
        .map(Request::Read)
        .chain((0..inserts).map(|i| Request::Insert(inserted.row(i))))
        .collect();
    shuffle(&mut ops, &mut Xoshiro256StarStar::seed_from_u64(seed));
    (ops, inserted)
}

/// The shared counters the per-reply check reads.
#[derive(Default)]
struct Progress {
    /// INSERTs sent.
    started: AtomicU64,
    /// INSERTs the server has acknowledged.
    acked: AtomicU64,
}

/// What one connection measured.
struct ClientLog {
    /// Every request in list order; reads are the primary operation.
    clock: Clock,
    spans: Recorder,
    /// Wire round trip minus the paired library call, per read.
    wire_tax_us: Vec<f64>,
    failures: Vec<String>,
}

struct ClientRun<'a> {
    addr: std::net::SocketAddr,
    lane: usize,
    ops: &'a [Request],
    base: &'a Events,
    dims: &'a Dims,
    progress: &'a Progress,
    /// A library session on the same catalogue: in a traced pass every
    /// wire read is paired with the identical library call.
    library: Option<Database>,
}

fn wire_read(
    client: &mut Client,
    statement: u32,
    stmt: Stmt,
    sql: &str,
) -> Result<Vec<WireRow>, ClientError> {
    match stmt.prepared() {
        Some((FILTER_TEMPLATE, p)) => client.execute(statement, &[p]),
        _ => client.query(sql),
    }
}

fn run_client(run: ClientRun<'_>, mut rec: Recorder) -> ClientLog {
    let mut clock = Clock::start(run.lane);
    let (mut wire_tax_us, mut failures) = (Vec::new(), Vec::new());
    let mut reads = 0usize;
    let mut client = Client::connect(run.addr).expect("connect to the harness's own server");
    let statement = client
        .prepare(FILTER_TEMPLATE)
        .expect("prepare over the wire");
    let mut library = run.library;
    let base_rows = run.base.rows() as u64;
    let sqls: Vec<String> = run
        .ops
        .iter()
        .map(|op| match *op {
            Request::Read(stmt) => stmt.sql(),
            Request::Insert(row) => insert_sql(row),
        })
        .collect();

    let root = rec.enter("harness.client");
    for (op, sql) in run.ops.iter().zip(&sqls) {
        rec.next_op();
        let open = rec.enter("harness.request");
        match *op {
            Request::Insert(_) => {
                run.progress.started.fetch_add(1, Ordering::SeqCst);
                let t = Instant::now();
                let reply = rec.span("server.wire", || client.run(sql));
                clock.op(t.elapsed(), false);
                match reply {
                    Ok(Reply::Outcome(_)) => {
                        run.progress.acked.fetch_add(1, Ordering::SeqCst);
                    }
                    other => failures.push(format!("{sql}: {other:?}")),
                }
            }
            Request::Read(stmt) => {
                // Traced: the identical library call beside the wire
                // call, alternating which goes first so neither always
                // finds the host caches warm.
                let mut library_call = |rec: &mut Recorder| {
                    let db = library.as_mut()?;
                    let t = Instant::now();
                    rec.span("db.library", || {
                        std::hint::black_box(db.run_sql_cancellable(sql, &CancelToken::new()))
                            .is_ok()
                    });
                    Some(ms(t.elapsed()))
                };
                reads += 1;
                let library_first = reads.is_multiple_of(2);
                let mut library_ms = library_first.then(|| library_call(&mut rec)).flatten();

                let acked_before = run.progress.acked.load(Ordering::SeqCst);
                let t = Instant::now();
                let reply = rec.span("server.wire", || {
                    wire_read(&mut client, statement, stmt, sql)
                });
                let wire_ms = ms(t.elapsed());
                clock.op(t.elapsed(), true);
                let started_after = run.progress.started.load(Ordering::SeqCst);
                match reply {
                    Err(e) => failures.push(format!("{sql}: {e}")),
                    Ok(rows) => {
                        let got: Vec<Flat> = rows.iter().map(flat_wire).collect();
                        if let Err(why) = check_reply(
                            stmt,
                            &got,
                            run.base,
                            run.dims,
                            base_rows + acked_before,
                            base_rows + started_after,
                        ) {
                            failures.push(format!("{sql}: {why}"));
                        }
                    }
                }
                if !library_first {
                    library_ms = library_call(&mut rec);
                }
                if let Some(library_ms) = library_ms {
                    wire_tax_us.push((wire_ms - library_ms) * 1e3);
                }
            }
        }
        rec.exit(open);
    }
    rec.exit(root);
    if let Err(e) = client.goodbye() {
        failures.push(format!("goodbye: {e}"));
    }
    ClientLog {
        clock,
        spans: rec,
        wire_tax_us,
        failures,
    }
}

/// The check every reply gets while writes are in flight. Inserted
/// rows carry `ts` past the base, so a clustered `ts < N` read must
/// equal the oracle over the base rows exactly; for the others,
/// Σ`COUNT(*)` must lie between what was acknowledged before the
/// request was sent and what had been sent when the reply arrived
/// (`v > ?` sees some part of those rows).
fn check_reply(
    stmt: Stmt,
    got: &[Flat],
    base: &Events,
    dims: &Dims,
    acked_before: u64,
    started_after: u64,
) -> Result<(), String> {
    let total = total_count(got);
    let inserted_hi = started_after - base.rows() as u64;
    let (lo, hi) = match stmt {
        Stmt::Pruned { .. } => {
            return matches(stmt, got, &expected(stmt, base, dims))
                .then_some(())
                .ok_or_else(|| "rows differ from the host oracle over the base rows".into());
        }
        Stmt::Filter { gt } => {
            let base_match = base.v.iter().filter(|&&v| v > gt).count() as u64;
            (base_match, base_match + inserted_hi)
        }
        _ => (acked_before, started_after),
    };
    (lo..=hi)
        .contains(&total)
        .then_some(())
        .ok_or_else(|| format!("Σ COUNT(*) = {total}, outside [{lo}, {hi}]"))
}

fn start_server(catalogue: &SharedCatalogue, config: ServerConfig) -> ServerHandle {
    serve(catalogue.clone(), config).expect("bind a loopback port")
}

fn catalogue_with(base: &Events) -> SharedCatalogue {
    let catalogue = SharedCatalogue::new();
    catalogue.set_compaction_policy(CompactionPolicy::every(COMPACT_EVERY));
    catalogue.register(base.table());
    catalogue
}

/// One warm-up read of each kind over a throwaway connection.
fn warm_up(handle: &ServerHandle, rows: usize) {
    let mut client = Client::connect(handle.addr()).expect("connect");
    let statement = client.prepare(FILTER_TEMPLATE).expect("prepare");
    for stmt in quiescent_reads(rows) {
        wire_read(&mut client, statement, stmt, &stmt.sql()).expect("warm-up read");
    }
    client.goodbye().expect("goodbye");
}

/// One statement of each read kind with fixed parameters.
fn quiescent_reads(rows: usize) -> [Stmt; 4] {
    [
        Stmt::Full,
        Stmt::Filter { gt: 500 },
        Stmt::Composite,
        Stmt::Pruned {
            lt: (rows / 32) as u32,
        },
    ]
}

/// Runs every connection's list against `handle`, one thread each.
fn run_clients(
    handle: &ServerHandle,
    catalogue: &SharedCatalogue,
    lists: &[Vec<Request>],
    base: &Events,
    dims: &Dims,
    traced: bool,
) -> Vec<ClientLog> {
    let progress = Progress::default();
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(lane, ops)| {
                let run = ClientRun {
                    addr: handle.addr(),
                    lane,
                    ops,
                    base,
                    dims,
                    progress: &progress,
                    library: traced.then(|| catalogue.connect()),
                };
                scope.spawn(move || run_client(run, Recorder::with_origin(traced, origin)))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    })
}

pub fn pass(seed: u64, scale: Scale, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let rows = base_rows(scale);

    let mut clock = Clock::start(0);
    let setup = Instant::now();
    let base = Events::generate(rows, 0, seed);
    let dims = Dims::generate(seed);
    let (lists, inserted): (Vec<Vec<Request>>, Vec<Events>) =
        (0..CLIENTS).map(|c| client_ops(c, scale, seed)).unzip();
    let catalogue = catalogue_with(&base);
    let handle = start_server(&catalogue, ServerConfig::default());
    warm_up(&handle, rows);
    pass.setup_s = clock.calibrated_s(setup.elapsed());

    let cycles = || {
        catalogue
            .metrics()
            .snapshot()
            .get("query_cycles")
            .unwrap_or(0)
    };
    let cycles_before = cycles();
    let logs = run_clients(&handle, &catalogue, &lists, &base, &dims, traced);
    pass.sim_cycles = cycles() - cycles_before;

    let mut wire_tax_us = Vec::new();
    for log in logs {
        log.clock.finish(&mut pass);
        if traced {
            pass.threads.push(log.spans);
        }
        wire_tax_us.extend(log.wire_tax_us);
        for failure in log.failures {
            pass.fail(failure);
        }
    }
    let rejected = handle.stats().rejected();
    if rejected > 0 {
        pass.fail(format!("the admission gate rejected {rejected} requests"));
    }

    // At quiescence: wire rows ≡ library rows ≡ the host oracle over
    // the base rows plus every acknowledged insert.
    let mut all = base.clone();
    for rows in &inserted {
        all.extend_from(rows, 0, rows.rows());
    }
    let mut client = Client::connect(handle.addr()).expect("connect");
    let statement = client.prepare(FILTER_TEMPLATE).expect("prepare");
    let mut library = catalogue.connect();
    for stmt in quiescent_reads(rows) {
        let sql = stmt.sql();
        let want = expected(stmt, &all, &dims);
        let wire: Vec<Flat> = match wire_read(&mut client, statement, stmt, &sql) {
            Ok(rows) => rows.iter().map(flat_wire).collect(),
            Err(e) => {
                pass.fail(format!("quiescent {sql}: {e}"));
                continue;
            }
        };
        let lib: Vec<Flat> = match library.run_sql(&sql) {
            Ok(SqlOutcome::Rows(out)) => out.rows.iter().map(flat_row).collect(),
            other => {
                pass.fail(format!("quiescent library {sql}: {other:?}"));
                continue;
            }
        };
        if !matches(stmt, &wire, &want) || !matches(stmt, &lib, &want) {
            pass.fail(format!(
                "quiescent {sql}: wire, library and oracle disagree"
            ));
        }
    }

    if traced {
        trace_layers(
            &mut pass,
            &mut client,
            &lists,
            &base,
            &dims,
            &wire_tax_us,
            rejected,
        );
    }
    client.goodbye().expect("goodbye");
    handle.shutdown();
    pass
}

/// The serving layer's own metrics, measured on the quiet server after
/// the loop.
fn trace_layers(
    pass: &mut Pass,
    client: &mut Client,
    lists: &[Vec<Request>],
    base: &Events,
    dims: &Dims,
    wire_tax_us: &[f64],
    rejected: u64,
) {
    pass.layer("server.gate.rejected", rejected as f64);
    let inserts: Vec<f64> = pass
        .ops
        .iter()
        .filter(|o| !o.primary)
        .map(|o| o.wall_ms * 1e3)
        .collect();
    pass.layer("server.insert_us", median(&inserts));
    pass.layer("server.wire_tax_us", median(wire_tax_us));

    // A query whose every row the clustered predicate excludes: the
    // round trip with almost no engine work under it.
    let nothing = Stmt::Pruned { lt: 0 }.sql();
    let floor: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let rows = client.query(&nothing).expect("floor query");
            assert!(rows.is_empty());
            us(t.elapsed())
        })
        .collect();
    pass.layer("server.floor_us", median(&floor));

    // The same lists against fresh servers: one connection alone, then
    // the gate shut.
    let catalogue = catalogue_with(base);
    let handle = start_server(&catalogue, ServerConfig::default());
    warm_up(&handle, base.rows());
    let connects: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let c = Client::connect(handle.addr()).expect("connect");
            let elapsed = us(t.elapsed());
            c.goodbye().expect("goodbye");
            elapsed
        })
        .collect();
    pass.layer("server.connect_us", median(&connects));
    let mut alone = Pass::default();
    for log in run_clients(&handle, &catalogue, &lists[..1], base, dims, false) {
        log.clock.finish(&mut alone);
        for failure in log.failures {
            pass.fail(format!("one client alone: {failure}"));
        }
    }
    handle.shutdown();
    let per_second = |p: &Pass| p.ops.len() as f64 / loop_seconds(&p.ops);
    pass.layer("server.scaling_2v1", per_second(pass) / per_second(&alone));

    let shut = ServerConfig {
        max_inflight: 0,
        max_queue: 0,
        ..ServerConfig::default()
    };
    let handle = start_server(&catalogue, shut);
    let mut refused = Client::connect(handle.addr()).expect("connect");
    let full = Stmt::Full.sql();
    let rejects: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let err = refused
                .query(&full)
                .expect_err("a shut gate refuses every query");
            assert_eq!(err.code(), Some(ErrorCode::Overloaded));
            us(t.elapsed())
        })
        .collect();
    pass.layer("server.gate.reject_us", median(&rejects));
    refused.goodbye().expect("goodbye");
    handle.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_checks_every_reply_and_the_quiescent_state() {
        let p = pass(4, Scale::Smoke, true);
        assert_eq!(p.failed, 0, "{:?}", p.failures);
        assert_eq!(p.ops.len(), 40);
        assert_eq!(p.primary_wall_ms().len(), 34);
        assert_eq!(p.threads.len(), CLIENTS);
        assert!(p.sim_cycles > 0);
    }

    #[test]
    fn a_count_outside_the_window_is_a_failure() {
        let base = Events::generate(100, 0, 1);
        let dims = Dims::generate(1);
        let got = expected(Stmt::Full, &base, &dims);
        assert!(check_reply(Stmt::Full, &got, &base, &dims, 100, 103).is_ok());
        assert!(check_reply(Stmt::Full, &got, &base, &dims, 101, 103).is_err());
        let pruned = Stmt::Pruned { lt: 10 };
        let got = expected(pruned, &base, &dims);
        assert!(check_reply(pruned, &got, &base, &dims, 100, 100).is_ok());
        assert!(check_reply(pruned, &got[1..], &base, &dims, 100, 100).is_err());
    }
}
