//! Integration tests for the TCP serving layer: concurrent clients
//! answered bit-identically to direct library calls, typed overload
//! rejection, observable cancellation, protocol-error hygiene, and
//! graceful shutdown that drains in-flight work.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use vagg::db::{Row, SharedCatalogue, SqlOutcome, Table};
use vagg_server::{serve, Client, ClientError, ErrorCode, Reply, ServerConfig, WireRow};

fn events(n: usize) -> Table {
    Table::new("events")
        .with_column("g", (0..n).map(|i| ((i * 7919) % 31) as u32).collect())
        .with_column("v", (0..n).map(|i| ((i * 31) % 100) as u32).collect())
        .with_column("k", (0..n).map(|i| ((i * 13) % 977) as u32).collect())
}

fn dims() -> Table {
    Table::new("dims")
        .with_column("g", (0..31).collect())
        .with_column("w", (0..31).map(|i| (i * i) as u32).collect())
}

fn catalogue(rows: usize) -> SharedCatalogue {
    let catalogue = SharedCatalogue::new();
    catalogue.register(events(rows));
    catalogue.register(dims());
    catalogue
}

/// Runs `sql` directly on a library session and returns its rows.
fn library_rows(catalogue: &SharedCatalogue, sql: &str) -> Vec<Row> {
    match catalogue.connect().run_sql(sql).expect("library query") {
        SqlOutcome::Rows(output) => output.rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn assert_same_rows(wire: &[WireRow], lib: &[Row], sql: &str) {
    assert_eq!(wire.len(), lib.len(), "row count for {sql}");
    for (w, l) in wire.iter().zip(lib) {
        assert_eq!(w.group, l.group, "group for {sql}");
        assert_eq!(w.group_parts, l.group_parts, "group parts for {sql}");
        assert_eq!(w.values.len(), l.values.len(), "value arity for {sql}");
        for (a, b) in w.values.iter().zip(&l.values) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-identical values for {sql}");
        }
    }
}

/// How long a cancel test keeps trying before it gives up: a guard
/// against a hang, far beyond what any host needs.
const PATIENCE: Duration = Duration::from_secs(120);

/// Calls `done` until it says so, pausing between calls so the polling
/// connection leaves the cores to the statements it is waiting on.
///
/// The cancel tests below race a `Cancel` frame against a running
/// statement, and none of them depends on how fast the host simulates:
/// nothing is timed. A statement is a hundred or more 2048-row ranges,
/// each of which polls its token, and it is resubmitted (or the whole
/// round is) until a frame has arrived ahead of one of those polls; the
/// side that sends keeps sending until the side that runs has been
/// cancelled. A frame that finds nothing in flight, or trips a token
/// after its statement's last range, costs one more try — so a faster
/// simulator makes a try shorter and not a success rarer, and the only
/// clock is [`PATIENCE`].
fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < PATIENCE, "gave up waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn eight_concurrent_clients_match_the_library_bit_for_bit() {
    let catalogue = catalogue(20_000);
    let handle = serve(catalogue.clone(), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // Eight clients, each hammering a different statement shape —
    // aggregates, composite keys, HAVING/ORDER BY tails, and a join.
    let statements = [
        "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM events GROUP BY g",
        "SELECT g, SUM(v) FROM events WHERE v > 50 GROUP BY g",
        "SELECT g, k, COUNT(*) FROM events WHERE k < 100 GROUP BY g, k",
        "SELECT g, COUNT(*) FROM events GROUP BY g HAVING COUNT(*) > 100",
        "SELECT g, SUM(v) FROM events GROUP BY g ORDER BY SUM(v) DESC LIMIT 7",
        "SELECT g, AVG(k) FROM events WHERE v > 9 GROUP BY g",
        "SELECT events.g, SUM(dims.w) FROM events JOIN dims ON events.g = dims.g GROUP BY events.g",
        "SELECT g, MAX(k), MIN(k) FROM events GROUP BY g",
    ];

    let workers: Vec<_> = statements
        .iter()
        .map(|&sql| {
            let expected = library_rows(&catalogue, sql);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..5 {
                    let rows = client.query(sql).expect("wire query");
                    assert_same_rows(&rows, &expected, sql);
                }
                client.goodbye().expect("clean goodbye");
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    assert_eq!(handle.stats().queries(), 8 * 5);
    assert_eq!(handle.stats().rejected(), 0);
    handle.shutdown();
}

#[test]
fn prepared_statements_bind_over_the_wire() {
    let catalogue = catalogue(5_000);
    let handle = serve(catalogue.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let stmt = client
        .prepare("SELECT g, COUNT(*), SUM(v) FROM events WHERE v > ? GROUP BY g")
        .unwrap();
    for threshold in [10u64, 50, 90] {
        let rows = client.execute(stmt, &[threshold]).unwrap();
        let expected = library_rows(
            &catalogue,
            &format!("SELECT g, COUNT(*), SUM(v) FROM events WHERE v > {threshold} GROUP BY g"),
        );
        assert_same_rows(&rows, &expected, "prepared execute");
    }

    // Typed bind errors: wrong arity, then an unknown statement id.
    let err = client.execute(stmt, &[1, 2]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Bind), "{err}");
    let err = client.execute(stmt + 99, &[1]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Bind), "{err}");
}

/// An `Execute` counts its parameters in a `u16`: 65 536 of them fail
/// typed on the client before a byte is sent, and the connection, its
/// session and the statement go on serving.
#[test]
fn too_many_parameters_fail_typed_and_the_session_survives() {
    let catalogue = catalogue(1_000);
    let handle = serve(catalogue.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT g, COUNT(*) FROM events WHERE v > ? GROUP BY g";
    let stmt = client.prepare(sql).unwrap();

    let err = client.execute(stmt, &vec![1; 65_536]).unwrap_err();
    assert!(matches!(err, ClientError::Frame(_)), "{err}");

    let rows = client
        .query("SELECT g, COUNT(*) FROM events GROUP BY g")
        .unwrap();
    let expected = library_rows(&catalogue, "SELECT g, COUNT(*) FROM events GROUP BY g");
    assert_same_rows(&rows, &expected, "the next query");
    let rows = client.execute(stmt, &[50]).unwrap();
    let expected = library_rows(&catalogue, &sql.replace('?', "50"));
    assert_same_rows(&rows, &expected, "the statement, bound again");
    handle.shutdown();
}

/// A `JOIN` template prepares over the wire like any other statement,
/// and each bound execution answers as a `Query` of the bound SQL.
#[test]
fn a_join_template_prepares_and_binds_over_the_wire() {
    let catalogue = catalogue(5_000);
    let handle = serve(catalogue.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let template = "SELECT events.g, COUNT(*), SUM(dims.w) FROM events \
                    JOIN dims ON events.g = dims.g WHERE v > ? GROUP BY events.g";
    let stmt = client.prepare(template).unwrap();
    for threshold in [10u64, 50, 90] {
        let sql = template.replace('?', &threshold.to_string());
        let rows = client.execute(stmt, &[threshold]).unwrap();
        let queried = client.query(&sql).unwrap();
        assert_eq!(rows, queried, "{sql}");
        assert_same_rows(&rows, &library_rows(&catalogue, &sql), &sql);
    }
    handle.shutdown();
}

/// The value of one counter in the server's Prometheus text.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} in {metrics}"))
}

#[test]
fn overload_is_a_typed_rejection_and_the_listener_stays_responsive() {
    // Gates that admit nothing: every query is an immediate, typed
    // Overloaded — the pathological extreme of a full queue. With no
    // permit to wait for, a queue changes nothing.
    for (max_inflight, max_queue) in [(0, 0), (0, 4)] {
        let config = ServerConfig {
            max_inflight,
            max_queue,
            ..ServerConfig::default()
        };
        let handle = serve(catalogue(1_000), config).unwrap();
        let gate = format!("max_inflight {max_inflight}, max_queue {max_queue}");
        let (Some((mut client, first)), Some((_, second))) =
            (query_within(handle.addr()), query_within(handle.addr()))
        else {
            // Dropping the handle would join the connection still waiting.
            std::mem::forget(handle);
            panic!("{gate}: no reply within {REPLY_PATIENCE:?}");
        };
        // The rejections did not wedge anything: a second connection was
        // accepted, and the first one still serves metrics.
        for err in [first, second] {
            let err = err.unwrap_err();
            assert_eq!(err.code(), Some(ErrorCode::Overloaded), "{gate}: {err}");
        }
        let metrics = client.metrics().unwrap();
        assert!(
            metrics.contains("vagg_server_rejected_total 2"),
            "{gate}: {metrics}"
        );
        assert_eq!(handle.stats().rejected(), 2, "{gate}");
        handle.shutdown();
    }
}

/// How long a query that the gate rejects may take to come back: a
/// guard against a hang, far beyond what any host needs.
const REPLY_PATIENCE: Duration = Duration::from_secs(10);

/// Connects to `addr` and runs one aggregate on a thread of its own;
/// `None` if no reply came within [`REPLY_PATIENCE`].
fn query_within(addr: SocketAddr) -> Option<(Client, Result<Vec<WireRow>, ClientError>)> {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let reply = client.query("SELECT g, COUNT(*) FROM events GROUP BY g");
        let _ = tx.send((client, reply));
    });
    match rx.recv_timeout(REPLY_PATIENCE) {
        // The thread is still waiting for its reply: it cannot be joined.
        Err(RecvTimeoutError::Timeout) => None,
        reply => {
            thread.join().expect("the query thread panicked");
            Some(reply.expect("a thread that returned sent its reply"))
        }
    }
}

#[test]
fn a_morsel_budget_cancels_mid_query_and_the_session_survives() {
    // 60k rows ≈ 30 morsels; a budget of 2 trips mid-flight.
    let config = ServerConfig {
        morsel_budget: Some(2),
        ..ServerConfig::default()
    };
    let handle = serve(catalogue(60_000), config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client
        .query("SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g")
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Cancelled), "{err}");

    // The worker is free and the connection usable: a query that fits
    // the budget (≤ 2 morsels) still runs on the same session.
    let rows = client
        .query("SELECT g, COUNT(*) FROM dims GROUP BY g")
        .unwrap();
    assert_eq!(rows.len(), 31);
    assert_eq!(handle.stats().cancelled(), 1);
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("vagg_server_cancelled_total 1"),
        "{metrics}"
    );
}

#[test]
fn an_explicit_cancel_reaches_a_query_on_another_connection() {
    let handle = serve(catalogue(200_000), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // The runner submits the same query id until one submission comes
    // back `Cancelled`; the controller fires Cancel at it from a separate
    // connection until it has (pure explicit cancellation, no budget
    // involved). See `poll_until` for why no host is too fast for this.
    let runner = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("runner connect");
        let started = Instant::now();
        while started.elapsed() < PATIENCE {
            match client.run_with_id(
                42,
                "SELECT g, k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events GROUP BY g, k",
            ) {
                Ok(Reply::Rows(_)) => continue,
                Ok(other) => panic!("unexpected reply {other:?}"),
                Err(e) => {
                    assert_eq!(e.code(), Some(ErrorCode::Cancelled), "{e}");
                    return true;
                }
            }
        }
        false
    });
    let mut controller = Client::connect(addr).expect("controller connect");
    let mut landed = false;
    poll_until("the runner to end", || {
        let outcome = controller.cancel(42).expect("cancel frame");
        landed |= outcome.contains("cancel signalled");
        runner.is_finished()
    });
    assert!(landed, "the controller saw the query in flight");
    assert!(
        runner.join().expect("runner thread"),
        "the runner observed a Cancelled error"
    );
    assert!(handle.stats().cancelled() >= 1);
    handle.shutdown();
}

/// Every client numbers its queries from 1, so two connections run the
/// same id as a matter of course. They must not share a registry slot:
/// one `Cancel` reaches both, each removes only its own entry, and
/// afterwards nothing is left in flight under the id.
#[test]
fn one_cancel_reaches_every_connection_running_that_query_id() {
    let handle = serve(catalogue(400_000), ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut controller = Client::connect(addr).expect("controller connect");

    // One round: both connections run the statement once under id 1,
    // and once both are in flight the controller cancels id 1. A round
    // in which a statement ended before the frame could reach it proves
    // nothing either way and is run again (see `poll_until`); a server
    // that let one connection's token shadow the other's would never
    // complete one.
    let both_cancelled = |controller: &mut Client| {
        let runners: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("runner connect");
                    let sql =
                        "SELECT g, k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events GROUP BY g, k";
                    client.run_with_id(1, sql).map(|_| ())
                })
            })
            .collect();
        poll_until("both queries to be admitted, or one to end", || {
            let metrics = controller.metrics().expect("metrics frame");
            metrics.contains("vagg_server_inflight 2\n") || runners.iter().any(|r| r.is_finished())
        });
        // A query registers right after it is admitted; repeating the
        // frame covers that instant, and costs nothing once both have
        // tripped.
        poll_until("both runners to end", || {
            controller.cancel(1).expect("cancel frame");
            runners.iter().all(|r| r.is_finished())
        });
        let cancelled = runners
            .into_iter()
            .filter_map(|runner| runner.join().expect("runner thread").err())
            .inspect(|err| assert_eq!(err.code(), Some(ErrorCode::Cancelled), "{err}"))
            .count();
        cancelled == 2
    };
    let started = Instant::now();
    let mut cancelled_before = handle.stats().cancelled();
    while !both_cancelled(&mut controller) {
        assert!(
            started.elapsed() < PATIENCE,
            "no round in which the cancel reached both connections"
        );
        cancelled_before = handle.stats().cancelled();
    }
    assert_eq!(handle.stats().cancelled(), cancelled_before + 2);
    let outcome = controller.cancel(1).expect("cancel frame");
    assert!(outcome.contains("no in-flight query 1"), "{outcome}");
    handle.shutdown();
}

/// The deterministic half of the same fix: a prepared `Execute` counts
/// its ranges against the morsel budget — it used to run whole and look
/// at the token afterwards, which no budget ever trips — and the
/// aggregate it had open is abandoned, not closed.
#[test]
fn a_morsel_budget_cancels_a_prepared_execute_mid_flight() {
    let config = ServerConfig {
        morsel_budget: Some(2),
        ..ServerConfig::default()
    };
    let handle = serve(catalogue(60_000), config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stmt = client
        .prepare("SELECT g, COUNT(*), SUM(v) FROM events WHERE v < ? GROUP BY g")
        .unwrap();
    let err = client.execute(stmt, &[50]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Cancelled), "{err}");
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("vagg_agg_opens 1\n"), "{metrics}");
    assert!(metrics.contains("vagg_agg_closes 0\n"), "{metrics}");

    // The connection and its session survive: a statement that fits
    // the budget runs, and closes what it opened.
    let small = client
        .prepare("SELECT g, COUNT(*) FROM dims WHERE w < ? GROUP BY g")
        .unwrap();
    assert_eq!(client.execute(small, &[1_000]).unwrap().len(), 31);
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("vagg_agg_opens 2\n"), "{metrics}");
    assert!(metrics.contains("vagg_agg_closes 1\n"), "{metrics}");
    handle.shutdown();
}

/// A prepared `Execute` polls its token per range, as a `Query` does: a
/// `Cancel` frame that lands while it runs over a 98-range table ends
/// it `Cancelled`, and the statement after it on the same connection —
/// same session, whose open aggregate was abandoned — is correct.
#[test]
fn an_explicit_cancel_reaches_a_prepared_execute_mid_flight() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let catalogue = catalogue(200_000);
    let sql =
        "SELECT g, k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events WHERE v < 90 GROUP BY g, k";
    let expect = library_rows(&catalogue, sql);
    let handle = serve(catalogue, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // A fresh client numbers its queries 1, 2, …: the runner publishes
    // the id it is about to execute under, the controller fires Cancel
    // at it from a separate connection until one lands mid-flight (see
    // `poll_until`: the statement is re-executed until one does).
    let current = Arc::new(AtomicU64::new(0));
    let runner = std::thread::spawn({
        let current = Arc::clone(&current);
        move || {
            let mut client = Client::connect(addr).expect("runner connect");
            let stmt = client
                .prepare(&sql.replace("90", "?"))
                .expect("prepare the statement");
            let started = Instant::now();
            for id in (1..).take_while(|_| started.elapsed() < PATIENCE) {
                current.store(id, Ordering::Release);
                match client.execute(stmt, &[90]) {
                    Ok(_) => continue,
                    Err(e) => {
                        assert_eq!(e.code(), Some(ErrorCode::Cancelled), "{e}");
                        // The same connection, the same statement.
                        return Some(client.execute(stmt, &[90]).expect("next execute"));
                    }
                }
            }
            None
        }
    });
    let mut controller = Client::connect(addr).expect("controller connect");
    poll_until("the runner to end", || {
        let id = current.load(Ordering::Acquire);
        controller.cancel(id).expect("cancel frame");
        runner.is_finished()
    });
    let rows = runner
        .join()
        .expect("runner thread")
        .expect("the runner observed a Cancelled error");
    assert_same_rows(&rows, &expect, sql);
    assert!(handle.stats().cancelled() >= 1);
    handle.shutdown();
}

/// A prepared `JOIN` polls its token per range of its build and probe,
/// not only of its aggregation: a `Cancel` frame that lands while the
/// probe streams `events` (98 ranges) through the 31-row `dims` index
/// ends it `Cancelled` before its aggregate opens. `events.k` meets
/// `dims.w` (the squares below 31²) on 31 of its 977 values, so the
/// aggregation is a few ranges and nearly every landing is in the
/// probe; the runner re-executes until one is — the execution ended
/// with the aggregate-open counter where it started — and the next
/// execution on the same connection is correct.
#[test]
fn an_explicit_cancel_reaches_a_prepared_join_during_its_probe() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let catalogue = catalogue(200_000);
    let sql = "SELECT events.g, COUNT(*), SUM(dims.w) FROM events \
               JOIN dims ON events.k = dims.w WHERE v < 90 GROUP BY events.g";
    let expect = library_rows(&catalogue, sql);
    let handle = serve(catalogue, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // As in the test above: the runner publishes the query id it is
    // about to execute under, the controller cancels it until the
    // runner is done.
    let current = Arc::new(AtomicU64::new(0));
    let runner = std::thread::spawn({
        let current = Arc::clone(&current);
        move || {
            let mut client = Client::connect(addr).expect("runner connect");
            let stmt = client
                .prepare(&sql.replace("90", "?"))
                .expect("prepare the join template");
            let opens = |c: &mut Client| counter(&c.metrics().expect("metrics"), "vagg_agg_opens");
            let started = Instant::now();
            for id in (1..).take_while(|_| started.elapsed() < PATIENCE) {
                let before = opens(&mut client);
                current.store(id, Ordering::Release);
                match client.execute(stmt, &[90]) {
                    Ok(_) => continue,
                    Err(e) => {
                        assert_eq!(e.code(), Some(ErrorCode::Cancelled), "{e}");
                        if opens(&mut client) == before {
                            // Cancelled in build or probe; the same
                            // connection, the same statement.
                            return Some(client.execute(stmt, &[90]).expect("next execute"));
                        }
                    }
                }
            }
            None
        }
    });
    let mut controller = Client::connect(addr).expect("controller connect");
    poll_until("the runner to end", || {
        let id = current.load(Ordering::Acquire);
        controller.cancel(id).expect("cancel frame");
        runner.is_finished()
    });
    let rows = runner
        .join()
        .expect("runner thread")
        .expect("a Cancel landed during build or probe");
    assert_same_rows(&rows, &expect, sql);
    handle.shutdown();
}

#[test]
fn garbage_frames_get_a_typed_protocol_error_not_a_panic() {
    let handle = serve(catalogue(100), ServerConfig::default()).unwrap();

    // Handshake by hand, then send an unparseable frame.
    use vagg_server::protocol::{read_frame, write_frame};
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write_frame(
        &mut stream,
        &vagg_server::Request::Hello { version: 1 }.encode(),
    )
    .unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("a HelloOk frame");
    assert!(matches!(
        vagg_server::Response::decode(&payload).unwrap(),
        vagg_server::Response::HelloOk { .. }
    ));

    write_frame(&mut stream, &[0xFF, 0xDE, 0xAD, 0x00]).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("an error frame");
    match vagg_server::Response::decode(&payload).unwrap() {
        vagg_server::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::Protocol)
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // The server closes the torn connection...
    assert_eq!(read_frame(&mut stream).unwrap(), None, "connection closed");

    // ...and keeps serving everyone else.
    let distinct_groups = (0..100)
        .map(|i| (i * 7919) % 31)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        client
            .query("SELECT g, COUNT(*) FROM events GROUP BY g")
            .unwrap()
            .len(),
        distinct_groups,
    );
    handle.shutdown();
}

#[test]
fn transactions_are_session_scoped_over_the_wire() {
    let catalogue = catalogue(1_000);
    let handle = serve(catalogue.clone(), ServerConfig::default()).unwrap();
    let mut writer = Client::connect(handle.addr()).unwrap();
    let mut reader = Client::connect(handle.addr()).unwrap();

    let count = |client: &mut Client| -> f64 {
        client
            .query("SELECT g, COUNT(*) FROM events WHERE g < 1 GROUP BY g")
            .unwrap()[0]
            .values[0]
    };
    let before = count(&mut reader);

    writer.begin(false).unwrap();
    match writer
        .run("INSERT INTO events (g, v, k) VALUES (0, 1, 2), (0, 3, 4)")
        .unwrap()
    {
        Reply::Outcome(text) => assert!(text.contains("queued"), "{text}"),
        other => panic!("expected a queued outcome, got {other:?}"),
    }
    // Buffered, not visible — to the other session or this one.
    assert_eq!(count(&mut reader), before);
    writer.commit().unwrap();
    assert_eq!(count(&mut reader), before + 2.0);

    // Transaction misuse is a typed error, not a closed connection.
    let err = writer.commit().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Transaction), "{err}");
    assert_eq!(count(&mut writer), before + 2.0, "session still live");
}

#[test]
fn metrics_expose_qps_quantiles_and_queue_depth() {
    let handle = serve(catalogue(2_000), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..4 {
        client
            .query("SELECT g, SUM(v) FROM events GROUP BY g")
            .unwrap();
    }
    let text = client.metrics().unwrap();
    for needle in [
        "vagg_server_qps ",
        "vagg_server_queue_depth 0",
        "vagg_server_inflight 0",
        "vagg_server_queries_total 4",
        "vagg_server_connections_open 1",
        "vagg_query_cycles_p50 ",
        "vagg_query_cycles_p99 ",
        "queries_total",
        "morsels_pruned",
        "rows_pruned",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// The write path's `stats_reseeds` reaches a client: two registered
/// tables, then one per DELETE — none for the compaction it trips.
#[test]
fn stats_reseeds_are_served_over_the_wire() {
    let catalogue = catalogue(200);
    catalogue.set_compaction_policy(vagg::db::CompactionPolicy::every(1));
    let handle = serve(catalogue, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let text = client.metrics().unwrap();
    assert!(text.contains("vagg_stats_reseeds 2\n"), "{text}");
    client
        .run("INSERT INTO events (g, v, k) VALUES (1, 2, 3)")
        .unwrap();
    client.run("DELETE FROM events WHERE k > 900").unwrap();
    let text = client.metrics().unwrap();
    assert!(text.contains("vagg_compactions 2\n"), "{text}");
    assert!(text.contains("vagg_stats_reseeds 3\n"), "{text}");
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let handle = serve(catalogue(10_000), ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .query("SELECT g, COUNT(*) FROM events GROUP BY g")
        .unwrap();

    // shutdown() joining proves the drain: it blocks on every
    // connection thread, so returning means none are stuck.
    handle.shutdown();

    // The listener is gone: a fresh connect must fail outright or be
    // dead on arrival (accept already exited).
    match Client::connect(addr) {
        Err(ClientError::Io(_)) => {}
        Err(other) => panic!("expected an i/o error, got {other}"),
        Ok(_) => panic!("connected to a shut-down server"),
    }
}

/// The frame decoder's no-panic half: whatever bytes arrive,
/// `Request::decode` and `Response::decode` return a message or a typed
/// `FrameError`, and every message round-trips through its encoding.
mod decoder_fuzz {
    use proptest::prelude::*;
    use proptest::sample::select;
    use vagg_server::{ErrorCode, FrameError, Request, Response, WireRow};

    /// Request and response opcodes, so that arbitrary bodies mostly
    /// reach a variant's decoder instead of the unknown-opcode arm.
    const OPCODES: [u8; 17] = [
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x81, 0x82, 0x83, 0x84, 0x85,
        0x86, 0x87,
    ];

    /// Strings over one- to four-byte UTF-8 characters and NUL.
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            select(vec!['a', 'Z', ' ', '?', '\0', 'é', '→', '😀']),
            0..24,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    /// Any `f64` but NaN, which no `PartialEq` round trip can show.
    fn arb_value() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_nan() {
                f64::NEG_INFINITY
            } else {
                x
            }
        })
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            any::<u32>().prop_map(|version| Request::Hello { version }),
            (any::<u64>(), arb_text()).prop_map(|(query_id, sql)| Request::Query { query_id, sql }),
            arb_text().prop_map(|sql| Request::Prepare { sql }),
            (
                any::<u64>(),
                any::<u32>(),
                proptest::collection::vec(any::<u64>(), 0..8)
            )
                .prop_map(|(query_id, statement, params)| Request::Execute {
                    query_id,
                    statement,
                    params,
                }),
            any::<bool>().prop_map(|read_only| Request::Begin { read_only }),
            Just(Request::Commit),
            Just(Request::Rollback),
            any::<u64>().prop_map(|query_id| Request::Cancel { query_id }),
            Just(Request::Metrics),
            Just(Request::Goodbye),
        ]
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        let row = (
            any::<u32>(),
            proptest::collection::vec(any::<u32>(), 0..4),
            proptest::collection::vec(arb_value(), 0..4),
        )
            .prop_map(|(group, group_parts, values)| WireRow {
                group,
                group_parts,
                values,
            });
        let code = select(vec![
            ErrorCode::Protocol,
            ErrorCode::Parse,
            ErrorCode::Plan,
            ErrorCode::Bind,
            ErrorCode::UnknownTable,
            ErrorCode::Overloaded,
            ErrorCode::Cancelled,
            ErrorCode::Transaction,
            ErrorCode::Unsupported,
        ]);
        prop_oneof![
            (any::<u32>(), arb_text())
                .prop_map(|(version, server)| Response::HelloOk { version, server }),
            proptest::collection::vec(row, 0..6).prop_map(Response::Rows),
            arb_text().prop_map(Response::Outcome),
            any::<u32>().prop_map(|statement| Response::Prepared { statement }),
            arb_text().prop_map(Response::Metrics),
            (code, arb_text()).prop_map(|(code, message)| Response::Error { code, message }),
            Just(Response::Bye),
        ]
    }

    /// Decodes `bytes` both ways; a panic fails the property. A decoded
    /// message must encode to bytes that decode again: the decoder
    /// accepts nothing the encoder cannot say.
    fn decode_both(bytes: &[u8]) {
        let req: Result<Request, FrameError> = Request::decode(bytes);
        if let Ok(req) = req {
            assert!(Request::decode(&req.encode()).is_ok(), "{req:?}");
        }
        let resp: Result<Response, FrameError> = Response::decode(bytes);
        if let Ok(resp) = resp {
            assert!(Response::decode(&resp.encode()).is_ok(), "{resp:?}");
        }
    }

    /// Flips bytes of `bytes` and truncates it.
    fn damage(mut bytes: Vec<u8>, flips: &[(usize, u8)], keep: usize) -> Vec<u8> {
        if !bytes.is_empty() {
            for &(at, mask) in flips {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        bytes.truncate(keep % (bytes.len() + 1));
        bytes
    }

    /// The inputs `protocol::tests::garbage_is_a_typed_frame_error`
    /// names, through the same decoders: an empty payload, an unknown
    /// opcode, a truncated string length, a string length past the
    /// body, trailing bytes after a complete message, and non-UTF-8
    /// SQL.
    #[test]
    fn named_garbage_is_a_typed_frame_error() {
        let cases: [&[u8]; 6] = [
            &[],
            &[0xFF, 1, 2, 3],
            &[0x03, 0xFF, 0xFF, 0xFF],
            &[0x03, 100, 0, 0, 0, b'x'],
            &[0x06, 0],
            &[0x03, 2, 0, 0, 0, 0xC3, 0x28],
        ];
        for bytes in cases {
            assert!(Request::decode(bytes).is_err(), "{bytes:?}");
            decode_both(bytes);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn arbitrary_bytes_decode_to_a_message_or_a_frame_error(
            op in select(OPCODES.to_vec()),
            body in proptest::collection::vec(any::<u8>(), 0..48),
            raw in any::<bool>(),
        ) {
            let mut bytes = body;
            if !raw {
                bytes.insert(0, op);
            }
            decode_both(&bytes);
        }

        #[test]
        fn damaged_encodings_decode_to_a_message_or_a_frame_error(
            req in arb_request(),
            resp in arb_response(),
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            keep in any::<usize>(),
        ) {
            decode_both(&damage(req.encode(), &flips, keep));
            decode_both(&damage(resp.encode(), &flips, keep));
        }

        #[test]
        fn every_message_round_trips(req in arb_request(), resp in arb_response()) {
            prop_assert_eq!(Request::decode(&req.encode()), Ok(req));
            prop_assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }
}
