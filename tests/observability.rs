//! Observability tests: `EXPLAIN ANALYZE` must never change an answer,
//! and the metrics registry must count what actually happened.
//!
//! The load-bearing property is bit-identity — a traced execution
//! returns exactly the rows (and, where the machine is shared, exactly
//! the simulated cycles) of the untraced execution, across every
//! execution path: single-session, sharded/morsel-driven, snapshot
//! (`AS OF`), prepared, and joins. Tracing only *reads* the simulated
//! cycle counter and host-side lengths, so this is structural; the
//! property tests here keep it that way.

use proptest::prelude::*;
use vagg::db::{Database, ShardedDatabase, SqlOutcome, Table};

fn rows_of(out: SqlOutcome) -> Vec<vagg::db::Row> {
    match out {
        SqlOutcome::Rows(out) => out.rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// Runs `sql` untraced and traced on `db`, asserting bit-identical rows
/// and internally consistent trace rollups; returns the trace.
fn assert_traced_matches(db: &mut Database, sql: &str) -> vagg::db::QueryTrace {
    let plain = rows_of(db.run_sql(sql).unwrap());
    let analyzed = match db.run_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
        SqlOutcome::Analyzed(a) => a,
        other => panic!("EXPLAIN ANALYZE returns a trace: {other:?}"),
    };
    assert_eq!(analyzed.output.rows, plain, "traced rows drifted: {sql}");
    assert_trace_consistent(&analyzed.trace);
    analyzed.trace
}

/// Structural invariants every trace must satisfy, regardless of path.
fn assert_trace_consistent(t: &vagg::db::QueryTrace) {
    assert!(!t.steps.is_empty(), "a trace records at least one step");
    assert!(!t.sql.is_empty());
    let worker_morsels: u64 = t.workers.iter().map(|w| w.morsels).sum();
    assert_eq!(
        worker_morsels,
        t.morsels.len() as u64,
        "virtual schedule accounts every morsel exactly once"
    );
    let worker_steals: u64 = t.workers.iter().map(|w| w.steals).sum();
    assert_eq!(t.steals, worker_steals);
    for m in &t.morsels {
        let step_cycles: u64 = m.steps.iter().map(|s| s.cycles).sum();
        assert_eq!(
            step_cycles, m.cycles,
            "per-step cycles sum to the morsel's exact total"
        );
        assert!(m.lo < m.hi, "morsels cover a non-empty range");
    }
    // Ranges + closes make each worker's load: every virtual worker that
    // ran a morsel carries the morsels it ran and, once, the open and
    // close of an aggregate of its own — the same charge each, the
    // mean (rounded up) of what the real sessions measured. The steps'
    // rollups hold every real open and close, so their excess over the
    // morsels is at least that charge and at most one per pool worker.
    if !t.morsels.is_empty() {
        let loads: u64 = t.workers.iter().map(|w| w.cycles).sum();
        let ranges: u64 = t.morsels.iter().map(|m| m.cycles).sum();
        let active = t.workers.iter().filter(|w| w.morsels > 0).count() as u64;
        assert!(loads >= ranges);
        assert_eq!((loads - ranges) % active, 0, "one charge per active worker");
        let charge = (loads - ranges) / active;
        let rolled: u64 = t.steps.iter().map(|s| s.cycles).sum();
        assert!(rolled >= ranges + charge, "{rolled} < {ranges} + {charge}");
        assert!(rolled <= ranges + charge * t.workers.len() as u64);
        assert_eq!(t.cycles, t.workers.iter().map(|w| w.cycles).max().unwrap());
    }
    // The rendering never panics and carries the headline counters.
    let text = t.explain();
    assert!(text.contains("rows="));
    assert!(text.contains("cycles="));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-session: `EXPLAIN ANALYZE` over random full pipelines
    /// (WHERE → GROUP BY → HAVING → ORDER BY → LIMIT) returns exactly
    /// the untraced rows, and fresh traced/untraced databases agree on
    /// simulated cycles too (bit-identity, not just row-identity).
    #[test]
    fn traced_equals_untraced_single_session(
        rows in proptest::collection::vec((0u32..16, 0u32..10, 0u32..8), 1..300),
        filter_t in proptest::option::of(0u32..8),
        having_t in proptest::option::of(0u32..30),
        limit in proptest::option::of(1usize..8),
    ) {
        let table = Table::new("r")
            .with_column("g", rows.iter().map(|r| r.0).collect::<Vec<u32>>())
            .with_column("v", rows.iter().map(|r| r.1).collect::<Vec<u32>>())
            .with_column("w", rows.iter().map(|r| r.2).collect::<Vec<u32>>());
        let mut sql = "SELECT g, COUNT(*), SUM(v) FROM r".to_string();
        if let Some(t) = filter_t {
            sql += &format!(" WHERE w > {t}");
        }
        sql += " GROUP BY g";
        if let Some(t) = having_t {
            sql += &format!(" HAVING SUM(v) > {t}");
        }
        if let Some(k) = limit {
            sql += &format!(" ORDER BY SUM(v) DESC LIMIT {k}");
        }

        // Same-database identity: rows only (the shared machine's cycle
        // counter advances between statements, but deltas are exact).
        let mut db = Database::new();
        db.register(table.clone());
        let trace = assert_traced_matches(&mut db, &sql);
        prop_assert!(trace.morsels.is_empty(), "single-session runs whole");

        // Fresh-database identity: the traced run's report must carry
        // the exact simulated cycles of the untraced run.
        let mut a = Database::new();
        a.register(table.clone());
        let untraced = match a.run_sql(&sql).unwrap() {
            SqlOutcome::Rows(out) => out,
            other => panic!("rows: {other:?}"),
        };
        let mut b = Database::new();
        b.register(table);
        let traced = match b.run_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
            SqlOutcome::Analyzed(x) => x,
            other => panic!("analyzed: {other:?}"),
        };
        prop_assert_eq!(untraced.rows, traced.output.rows);
        prop_assert_eq!(untraced.report.cycles, traced.output.report.cycles);
        prop_assert_eq!(traced.trace.rows, traced.output.rows.len() as u64);
        prop_assert_eq!(traced.trace.cycles, traced.output.report.cycles);
    }

    /// Sharded: the morsel-driven traced execution merges to exactly the
    /// untraced answer for any shard count, and the virtual schedule
    /// accounts every morsel.
    #[test]
    fn traced_equals_untraced_sharded(
        rows in proptest::collection::vec((0u32..16, 0u32..10), 1..400),
        shards in 1usize..6,
    ) {
        let table = Table::new("t")
            .with_column("g", rows.iter().map(|r| r.0).collect::<Vec<u32>>())
            .with_column("v", rows.iter().map(|r| r.1).collect::<Vec<u32>>());
        let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY g";

        // Rows must be bit-identical. (Cycles are not asserted across
        // runs here: per-morsel costs depend on which physical worker's
        // cache-model state a morsel lands on, and placement races —
        // with or without tracing.)
        let mut db = ShardedDatabase::new(shards);
        db.register(table);
        let plain = db.run_sql(sql).unwrap();
        prop_assert!(plain.trace.is_none(), "untraced output carries no trace");
        let traced = db.run_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        prop_assert_eq!(&traced.rows, &plain.rows, "{} shards", shards);

        let t = traced.trace.as_deref().expect("EXPLAIN ANALYZE traces");
        assert_trace_consistent(t);
        prop_assert!(!t.morsels.is_empty());
        prop_assert_eq!(t.rows, traced.rows.len() as u64);
        prop_assert_eq!(t.cycles, traced.report.cycles);
    }

    /// Snapshot reads: `EXPLAIN ANALYZE ... ` through `run_sql_at` sees
    /// exactly the pinned cut the untraced read sees, ingest afterwards
    /// notwithstanding.
    #[test]
    fn traced_equals_untraced_at_snapshot(
        rows in proptest::collection::vec((0u32..16, 0u32..10), 1..200),
        extra in proptest::collection::vec((0u32..16, 0u32..10), 1..50),
    ) {
        let mut db = Database::new();
        db.register(
            Table::new("t")
                .with_column("g", rows.iter().map(|r| r.0).collect::<Vec<u32>>())
                .with_column("v", rows.iter().map(|r| r.1).collect::<Vec<u32>>()),
        );
        let snap = db.snapshot();
        let values = extra
            .iter()
            .map(|(g, v)| format!("({g}, {v})"))
            .collect::<Vec<_>>()
            .join(", ");
        db.run_sql(&format!("INSERT INTO t (g, v) VALUES {values}")).unwrap();

        let sql = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g";
        let plain = rows_of(db.run_sql_at(&snap, sql).unwrap());
        let analyzed = match db
            .run_sql_at(&snap, &format!("EXPLAIN ANALYZE {sql}"))
            .unwrap()
        {
            SqlOutcome::Analyzed(a) => a,
            other => panic!("analyzed: {other:?}"),
        };
        prop_assert_eq!(&analyzed.output.rows, &plain, "pinned cut drifted");
        assert_trace_consistent(&analyzed.trace);
        // Neither read sees the post-snapshot ingest.
        let live = rows_of(db.run_sql(sql).unwrap());
        let pinned_total: u64 = plain.iter().map(|r| r.values[0] as u64).sum();
        let live_total: u64 = live.iter().map(|r| r.values[0] as u64).sum();
        prop_assert_eq!(pinned_total + extra.len() as u64, live_total);
    }

    /// Prepared statements: `analyze(params)` returns exactly the rows
    /// `execute(params)` returns, across a sweep of bound parameters.
    #[test]
    fn prepared_analyze_matches_execute(
        rows in proptest::collection::vec((0u32..16, 0u32..10, 0u32..8), 1..200),
        thresholds in proptest::collection::vec(0u64..12, 1..5),
    ) {
        let mut db = Database::new();
        db.register(
            Table::new("r")
                .with_column("g", rows.iter().map(|r| r.0).collect::<Vec<u32>>())
                .with_column("v", rows.iter().map(|r| r.1).collect::<Vec<u32>>())
                .with_column("w", rows.iter().map(|r| r.2).collect::<Vec<u32>>()),
        );
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE w < ? GROUP BY g")
            .unwrap();
        for &t in &thresholds {
            let plain = stmt.execute(&mut db, &[t]).unwrap();
            let analyzed = stmt.analyze(&mut db, &[t]).unwrap();
            prop_assert_eq!(&analyzed.output.rows, &plain.rows, "w < {}", t);
            assert_trace_consistent(&analyzed.trace);
        }
        prop_assert_eq!(stmt.executions(), 2 * thresholds.len() as u64);
        prop_assert_eq!(db.plan_cache_stats().misses, 1, "tracing never re-plans");
    }

    /// Joins: traced equi-JOIN aggregation matches the untraced answer
    /// on both the single database and the sharded coordinator, and the
    /// trace carries the build/probe actuals.
    #[test]
    fn traced_equals_untraced_join(
        fact in proptest::collection::vec((0u32..8, 0u32..10), 1..200),
        dims in proptest::collection::vec(0u32..8, 1..60),
        shards in 1usize..4,
    ) {
        let fact_table = || {
            Table::new("fact")
                .with_column("k", fact.iter().map(|r| r.0).collect::<Vec<u32>>())
                .with_column("v", fact.iter().map(|r| r.1).collect::<Vec<u32>>())
        };
        let dims_table = || Table::new("dims").with_column("k", dims.clone());
        let sql = "SELECT fact.k, COUNT(*), SUM(v) \
                   FROM fact JOIN dims ON fact.k = dims.k GROUP BY fact.k";

        let mut db = Database::new();
        db.register(fact_table());
        db.register(dims_table());
        let trace = assert_traced_matches(&mut db, sql);
        prop_assert!(
            trace.steps.iter().any(|s| s.step.starts_with("JoinBuild")),
            "join trace records the build side"
        );
        prop_assert!(trace.steps.iter().any(|s| s.step.starts_with("JoinProbe")));
        prop_assert!(trace.freeze_ns.is_some(), "joins time the freeze barrier");

        let mut sharded = ShardedDatabase::new(shards);
        sharded.register(fact_table());
        sharded.register(dims_table());
        let plain = sharded.run_sql(sql).unwrap();
        let traced = sharded.run_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        prop_assert_eq!(&traced.rows, &plain.rows, "{} shards", shards);
        if let Some(t) = traced.trace.as_deref() {
            assert_trace_consistent(t);
        }
    }
}

/// The registry counts queries, rows, and traced executions exactly,
/// and exposes both text and JSON forms.
#[test]
fn metrics_count_queries_and_traces() {
    let mut db = Database::new();
    db.register(
        Table::new("r")
            .with_column("g", vec![1, 2, 1, 3])
            .with_column("v", vec![10, 20, 30, 40]),
    );
    let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
    db.run_sql(sql).unwrap();
    db.run_sql(sql).unwrap();
    db.run_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();

    let snap = db.metrics();
    assert_eq!(snap.get("queries"), Some(3));
    assert_eq!(snap.get("traced_queries"), Some(1));
    assert_eq!(snap.get("query_rows"), Some(9), "3 groups × 3 queries");
    assert_eq!(snap.get("plan_cache_misses"), Some(1), "same shape re-hits");
    assert_eq!(snap.get("plan_cache_hits"), Some(2));
    assert!(snap.get("query_cycles").unwrap() > 0);
    assert_eq!(snap.cycle_histogram().iter().sum::<u64>(), 3);

    let text = snap.to_text();
    assert!(text.contains("vagg_queries 3"));
    assert!(text.contains("vagg_traced_queries 1"));
    assert!(text.contains("vagg_query_cycles_bucket{le=\"+Inf\"} 3"));
    let json = snap.to_json();
    assert!(json.contains("\"queries\": 3"));

    // EXPLAIN (no ANALYZE) plans without executing: nothing counted.
    db.explain_sql(sql).unwrap();
    assert_eq!(db.metrics().get("queries"), Some(3));
}

/// Ingest, compaction, and WAL activity land in the unified snapshot.
#[test]
fn metrics_count_ingest_and_wal() {
    let dir = vagg::db::TempDir::new("obs-metrics");
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.register(
            Table::new("t")
                .with_column("g", vec![1, 2])
                .with_column("v", vec![1, 2]),
        );
        db.run_sql("INSERT INTO t (g, v) VALUES (1, 10), (2, 20)")
            .unwrap();
        db.run_sql("INSERT INTO t (g, v) VALUES (3, 30)").unwrap();
        let snap = db.metrics();
        assert_eq!(snap.get("ingest_batches"), Some(2));
        assert_eq!(snap.get("ingest_rows"), Some(3));
        assert_eq!(snap.get("wal_replayed_records"), Some(0));
        // Registration checkpoints the log (restating it as an image),
        // so only the two INSERTs are session appends.
        assert!(snap.get("wal_appends").unwrap() >= 2);
        assert!(snap.get("wal_bytes").unwrap() > 0);
        // The same rows inserted inside a transaction move the ingest
        // counters exactly as the autocommit inserts did.
        db.run_sql("BEGIN").unwrap();
        db.run_sql("INSERT INTO t (g, v) VALUES (1, 10), (2, 20)")
            .unwrap();
        db.run_sql("INSERT INTO t (g, v) VALUES (3, 30)").unwrap();
        assert_eq!(db.metrics().get("ingest_batches"), Some(2), "only queued");
        db.run_sql("COMMIT").unwrap();
        let snap = db.metrics();
        assert_eq!(snap.get("ingest_batches"), Some(4));
        assert_eq!(snap.get("ingest_rows"), Some(6));
    }
    // Reopen: recovery reports the replayed records (the checkpoint
    // image plus the appends that followed it).
    let db = Database::open(dir.path()).unwrap();
    assert!(db.metrics().get("wal_replayed_records").unwrap() >= 1);
}

/// `stats_reseeds` counts full statistics scans, and where they happen
/// is structure, not timing: a registration is one, a DELETE / UPDATE
/// that changed rows is exactly one whether or not it trips a
/// compaction, and a compaction — which carries the column statistics
/// it has — is none.
#[test]
fn stats_reseeds_count_registrations_and_mutations_never_compactions() {
    let mut db = Database::new();
    let count = |db: &Database| {
        let snap = db.metrics();
        (
            snap.get("stats_reseeds").unwrap(),
            snap.get("compactions").unwrap(),
        )
    };
    assert_eq!(count(&db), (0, 0));
    db.register(
        Table::new("t")
            .with_column("g", (0..40).collect())
            .with_column("v", (0..40).map(|i| i % 7).collect()),
    );
    assert_eq!(count(&db), (1, 0), "register seeds once");

    // Append-only compactions: every second single-row INSERT.
    db.catalogue()
        .set_compaction_policy(vagg::db::CompactionPolicy::every(2));
    for i in 0..6 {
        db.run_sql(&format!("INSERT INTO t (g, v) VALUES ({}, 1)", 40 + i))
            .unwrap();
    }
    assert_eq!(count(&db), (1, 3), "an append-only compaction adds 0");

    // One tombstone: below the threshold, no compaction.
    db.run_sql("DELETE FROM t WHERE g < 1").unwrap();
    assert_eq!(count(&db), (2, 3), "a DELETE adds 1");
    // The second trips it: still exactly one re-seed.
    db.run_sql("DELETE FROM t WHERE g < 2").unwrap();
    assert_eq!(count(&db), (3, 4), "a DELETE that compacts adds 1");
    // An UPDATE of three cells compacts too.
    db.run_sql("UPDATE t SET v = 9 WHERE g < 5").unwrap();
    assert_eq!(count(&db), (4, 5), "an UPDATE that compacts adds 1");
    // Mutations that match nothing change nothing.
    db.run_sql("DELETE FROM t WHERE g > 1000").unwrap();
    db.run_sql("UPDATE t SET v = 9 WHERE g > 1000").unwrap();
    assert_eq!(count(&db), (4, 5));
    // A transaction re-seeds once per table however many of its
    // statements mutate, unless an append has to fold in between.
    db.catalogue()
        .set_compaction_policy(vagg::db::CompactionPolicy::never());
    db.run_sql("BEGIN").unwrap();
    db.run_sql("DELETE FROM t WHERE g < 6").unwrap();
    db.run_sql("UPDATE t SET v = 3 WHERE g < 9").unwrap();
    db.run_sql("COMMIT").unwrap();
    assert_eq!(count(&db), (5, 5));

    let snap = db.metrics();
    assert!(snap.to_text().contains("vagg_stats_reseeds 5"));
    assert!(snap.to_json().contains("\"stats_reseeds\": 5"));
}

/// `agg_opens` / `agg_closes` count what reads do to their sessions'
/// aggregate tables, and how often is structure, not timing: a
/// statement opens and closes once per session that ran one of its
/// ranges — once inline, however many ranges a token cuts it into; at
/// most once per pool worker.
#[test]
fn aggregates_open_and_close_once_per_session_a_statement_touched() {
    let table = || {
        Table::new("t")
            .with_column("g", (0..9_000u32).map(|i| i * 7 % 61).collect())
            .with_column("h", (0..9_000u32).map(|i| i % 3).collect())
            .with_column("v", (0..9_000u32).map(|i| i % 10).collect())
    };
    let statements = [
        "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g",
        "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE v > 3 GROUP BY g",
        "SELECT g, h, COUNT(*), SUM(v) FROM t GROUP BY g, h ORDER BY SUM(v) DESC LIMIT 4",
        // The zone maps prune every range: nothing runs, nothing opens.
        "SELECT g, COUNT(*) FROM t WHERE v > 100 GROUP BY g",
    ];
    let count = |snap: &vagg::db::MetricsSnapshot| {
        ["agg_opens", "agg_closes"].map(|name| snap.get(name).unwrap())
    };

    let mut db = Database::new();
    db.register(table());
    assert_eq!(count(&db.metrics()), [0, 0]);
    let mut expect = 0;
    for sql in statements {
        // Whole plan, then five 2048-row ranges under a token.
        db.run_sql(sql).unwrap();
        let token = vagg::db::CancelToken::new();
        db.run_sql_cancellable(sql, &token).unwrap();
        if sql.contains("v > 100") {
            assert_eq!(token.morsels(), 0, "{sql}");
        } else {
            assert_eq!(token.morsels(), 5, "{sql}");
            expect += 2;
        }
        assert_eq!(count(&db.metrics()), [expect, expect], "{sql}");
    }
    let snap = db.metrics();
    assert!(snap.to_text().contains("vagg_agg_closes 6\n"));
    assert!(snap.to_json().contains("\"agg_closes\": 6"));

    // The pool: 4 shards on 2 workers; each statement closes once per
    // worker that ran one of its morsels.
    let config = vagg::db::ExecutorConfig {
        workers: 2,
        ..Default::default()
    };
    let mut sharded = ShardedDatabase::with_executor(vagg::db::Engine::new(), 4, config);
    sharded.register(table());
    let mut before = count(&sharded.metrics());
    assert_eq!(before, [0, 0]);
    for sql in statements {
        let traced = sharded.run_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let trace = traced.trace.as_deref().unwrap();
        assert_trace_consistent(trace);
        let ran: std::collections::BTreeSet<usize> =
            trace.morsels.iter().map(|m| m.worker).collect();
        let after = count(&sharded.metrics());
        assert_eq!(after[1] - before[1], ran.len() as u64, "{sql}");
        assert_eq!(after[0], after[1], "every open was closed: {sql}");
        assert_eq!(sharded.executor_stats().agg_closes, after[1]);
        before = after;
    }
}

/// The slow-query log retains the worst N by simulated cycles, most
/// expensive first, and the threshold gates admission.
#[test]
fn slow_query_log_keeps_the_worst() {
    let mut db = Database::new();
    db.register(
        Table::new("r")
            .with_column("g", (0..512u32).map(|i| i % 7).collect())
            .with_column("v", (0..512u32).map(|i| i % 10).collect()),
    );
    // A cheap query (its WHERE removes every row, so no aggregation
    // kernel runs) and an expensive one. The ORDER BY only marks the
    // latter: the tail is a host step and costs no simulated cycles.
    db.run_sql("SELECT g, COUNT(*) FROM r WHERE v > 100 GROUP BY g")
        .unwrap();
    db.run_sql("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g ORDER BY SUM(v) DESC")
        .unwrap();

    let slow = db.slow_queries();
    assert_eq!(slow.len(), 2, "default threshold 0 retains everything");
    assert!(
        slow[0].cycles >= slow[1].cycles,
        "most expensive first: {} < {}",
        slow[0].cycles,
        slow[1].cycles
    );
    assert!(slow[0].sql.contains("ORDER BY"));

    // A threshold above the cheap query's cost filters it out.
    let mut db2 = Database::new();
    db2.register(
        Table::new("r")
            .with_column("g", (0..512u32).map(|i| i % 7).collect())
            .with_column("v", (0..512u32).map(|i| i % 10).collect()),
    );
    db2.set_slow_query_threshold(slow[1].cycles + 1);
    db2.run_sql("SELECT g, COUNT(*) FROM r WHERE v > 100 GROUP BY g")
        .unwrap();
    db2.run_sql("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g ORDER BY SUM(v) DESC")
        .unwrap();
    let gated = db2.slow_queries();
    assert_eq!(gated.len(), 1, "threshold admits only the aggregation");
    assert!(gated[0].sql.contains("ORDER BY"));

    // The ring is bounded: many distinct queries never grow it past 16.
    let mut db3 = Database::new();
    db3.register(
        Table::new("r")
            .with_column("g", (0..64u32).map(|i| i % 7).collect())
            .with_column("v", (0..64u32).map(|i| i % 10).collect()),
    );
    for t in 0..40 {
        db3.run_sql(&format!(
            "SELECT g, COUNT(*) FROM r WHERE v > {t} GROUP BY g"
        ))
        .unwrap();
    }
    assert!(db3.slow_queries().len() <= 16, "worst-N ring is bounded");
}

/// The sharded coordinator merges every shard's registry and folds the
/// executor pool's counters in.
#[test]
fn sharded_metrics_merge_shards_and_executor() {
    let mut db = ShardedDatabase::new(4);
    db.register(
        Table::new("t")
            .with_column("g", (0..400u32).map(|i| i % 7).collect())
            .with_column("v", (0..400u32).map(|i| i % 10).collect()),
    );
    let sql = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g";
    db.run_sql(sql).unwrap();
    db.run_sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();

    let snap = db.metrics();
    assert_eq!(snap.get("queries"), Some(2));
    assert_eq!(snap.get("traced_queries"), Some(1));
    assert_eq!(snap.get("executor_queries"), Some(2));
    assert!(snap.get("executor_morsels").unwrap() >= 2);
    assert!(db.slow_queries().len() >= 2);
    db.set_slow_query_threshold(u64::MAX);
}
