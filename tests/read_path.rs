//! One read path: *cycles*, not just rows, mean the same thing however
//! a `SELECT` is asked for.
//!
//! Every entry point hands its plan to the same read driver, so on a
//! fresh database — cold simulated caches, one range (the table fits
//! one morsel) — `run_sql`, `execute_sql`, `run_sql_cancellable`, a
//! prepared `execute`, `run_sql_at` a snapshot-of-now and a one-shard,
//! one-worker `ShardedDatabase` must agree on the rows **and** on
//! `report.cycles`, and tracing must change neither. The contract:
//! `report.cycles` is the simulated work on the staged columns (fuse,
//! filter, cardinality scan, aggregate); the merge and HAVING / ORDER BY
//! / LIMIT over the output table are host steps.

use proptest::prelude::*;
use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::db::{
    CancelToken, Database, Engine, ExecutorConfig, QueryOutput, ShardedDatabase, SqlOutcome, Table,
    DEFAULT_MORSEL_ROWS,
};

fn table(n: usize, seed: u64) -> Table {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(3));
    let mut col =
        |bound: u64| -> Vec<u32> { (0..n).map(|_| rng.next_below(bound) as u32).collect() };
    Table::new("t")
        .with_column("a", col(13))
        .with_column("b", col(5))
        .with_column("v", col(97))
        .with_column("w", col(8))
}

fn fresh(t: &Table) -> Database {
    let mut db = Database::new();
    db.register(t.clone());
    db
}

fn fresh_sharded(t: &Table) -> ShardedDatabase {
    let config = ExecutorConfig {
        workers: 1,
        ..ExecutorConfig::default()
    };
    let mut db = ShardedDatabase::with_executor(Engine::new(), 1, config);
    db.register(t.clone());
    db
}

fn rows_of(outcome: SqlOutcome) -> QueryOutput {
    match outcome {
        SqlOutcome::Rows(out) => out,
        SqlOutcome::Analyzed(a) => {
            assert_eq!(a.trace.cycles, a.output.report.cycles, "trace total");
            assert_eq!(a.trace.rows, a.output.rows.len() as u64);
            // The host tail is in the trace, at zero simulated cycles.
            let step_cycles: u64 = a.trace.steps.iter().map(|s| s.cycles).sum();
            assert_eq!(
                step_cycles, a.output.report.cycles,
                "steps sum to the total"
            );
            a.output
        }
        other => panic!("a SELECT returns rows, got {other:?}"),
    }
}

/// Every way to ask for `sql`, each on a fresh database over `t`.
fn every_path(t: &Table, sql: &str) -> Vec<(&'static str, QueryOutput)> {
    let analyze = format!("EXPLAIN ANALYZE {sql}");
    let mut paths = vec![
        ("run_sql", rows_of(fresh(t).run_sql(sql).unwrap())),
        ("execute_sql", fresh(t).execute_sql(sql).unwrap()),
        (
            "run_sql_cancellable",
            rows_of(
                fresh(t)
                    .run_sql_cancellable(sql, &CancelToken::new())
                    .unwrap(),
            ),
        ),
        (
            "run_sql traced",
            rows_of(fresh(t).run_sql(&analyze).unwrap()),
        ),
        (
            "run_sql_cancellable traced",
            rows_of(
                fresh(t)
                    .run_sql_cancellable(&analyze, &CancelToken::new())
                    .unwrap(),
            ),
        ),
        ("sharded", fresh_sharded(t).run_sql(sql).unwrap().into()),
    ];
    {
        let mut db = fresh(t);
        let snap = db.snapshot();
        paths.push(("run_sql_at", rows_of(db.run_sql_at(&snap, sql).unwrap())));
    }
    {
        let mut db = fresh(t);
        let snap = db.snapshot();
        let out = rows_of(db.run_sql_at(&snap, &analyze).unwrap());
        paths.push(("run_sql_at traced", out));
    }
    {
        let mut db = fresh(t);
        let mut stmt = db.prepare(sql).unwrap();
        paths.push(("prepared execute", stmt.execute(&mut db, &[]).unwrap()));
    }
    {
        let mut db = fresh(t);
        let mut stmt = db.prepare(sql).unwrap();
        let snap = db.snapshot();
        let out = stmt.execute_at(&mut db, &snap, &[]).unwrap();
        paths.push(("prepared execute_at", out));
    }
    {
        let mut db = fresh(t);
        let mut stmt = db.prepare(sql).unwrap();
        paths.push((
            "prepared analyze",
            stmt.analyze(&mut db, &[]).unwrap().output,
        ));
    }
    {
        let mut db = fresh_sharded(t);
        let mut stmt = db.prepare(sql).unwrap();
        let out = db.execute_prepared(&mut stmt, &[]).unwrap();
        paths.push(("sharded prepared", out.into()));
    }
    {
        let mut db = fresh_sharded(t);
        let out = db.run_sql(&analyze).unwrap();
        let trace = out.trace.as_deref().expect("EXPLAIN ANALYZE traces");
        assert_eq!(trace.cycles, out.report.cycles);
        paths.push(("sharded traced", out.into()));
    }
    paths
}

fn assert_one_answer(t: &Table, sql: &str) -> QueryOutput {
    let mut paths = every_path(t, sql).into_iter();
    let (_, expect) = paths.next().expect("at least one path");
    for (name, got) in paths {
        assert_eq!(got.rows, expect.rows, "{name}: rows of {sql}");
        assert_eq!(
            got.report.cycles, expect.report.cycles,
            "{name}: cycles of {sql}"
        );
        assert_eq!(
            got.report.rows_aggregated, expect.report.rows_aggregated,
            "{name}: {sql}"
        );
        assert_eq!(
            got.report.algorithm, expect.report.algorithm,
            "{name}: {sql}"
        );
        assert_eq!(
            got.report.describe(),
            expect.report.describe(),
            "{name}: executed steps of {sql}"
        );
    }
    expect
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_entry_point_agrees_on_rows_and_cycles(
        n in 1usize..=DEFAULT_MORSEL_ROWS,
        seed in 0u64..1000,
        composite in any::<bool>(),
        minmax in any::<bool>(),
        // `w` is below 8, so the top of this range empties the input.
        filter in proptest::option::of(0u32..10),
        having in proptest::option::of(0u32..400),
        order in 0usize..3,
        limit in proptest::option::of(1usize..9),
    ) {
        let keys = if composite { "a, b" } else { "a" };
        let mut sql = format!("SELECT {keys}, COUNT(*), SUM(v)");
        if minmax {
            sql += ", MIN(v), MAX(v)";
        }
        sql += " FROM t";
        if let Some(k) = filter {
            sql += &format!(" WHERE w > {k}");
        }
        sql += &format!(" GROUP BY {keys}");
        if let Some(k) = having {
            sql += &format!(" HAVING SUM(v) > {k}");
        }
        match order {
            1 => sql += " ORDER BY SUM(v) DESC",
            2 => sql += " ORDER BY a",
            _ => {}
        }
        if let Some(k) = limit {
            sql += &format!(" LIMIT {k}");
        }
        let out = assert_one_answer(&table(n, seed), &sql);
        if filter.is_some_and(|k| k >= 7) {
            prop_assert!(out.rows.is_empty(), "WHERE removed every row: {}", sql);
            prop_assert_eq!(out.report.algorithm, None);
        }
    }
}

/// The tail is a host step: HAVING / ORDER BY / LIMIT change the rows
/// of a query, never its simulated cycles.
#[test]
fn the_tail_costs_no_simulated_cycles() {
    let t = table(DEFAULT_MORSEL_ROWS, 42);
    let bare = assert_one_answer(&t, "SELECT a, b, COUNT(*), SUM(v) FROM t GROUP BY a, b");
    let tailed = assert_one_answer(
        &t,
        "SELECT a, b, COUNT(*), SUM(v) FROM t GROUP BY a, b \
         HAVING COUNT(*) > 20 ORDER BY SUM(v) DESC LIMIT 5",
    );
    assert_eq!(tailed.rows.len(), 5);
    assert!(bare.rows.len() > 5);
    assert_eq!(tailed.report.cycles, bare.report.cycles);
}

/// Past one morsel the *schedules* differ on purpose (whole plan vs
/// 2048-row ranges vs pool morsels — see ARCHITECTURE.md, "Read path"),
/// so cycles may differ between entry points; within one entry point
/// they still repeat exactly, traced or not.
#[test]
fn larger_tables_keep_rows_identical_and_each_schedule_deterministic() {
    let t = table(3 * DEFAULT_MORSEL_ROWS + 17, 7);
    let sql = "SELECT a, b, COUNT(*), SUM(v), MAX(v) FROM t WHERE w > 1 GROUP BY a, b \
               ORDER BY SUM(v) DESC LIMIT 7";
    let analyze = format!("EXPLAIN ANALYZE {sql}");
    let whole = rows_of(fresh(&t).run_sql(sql).unwrap());
    let whole_traced = rows_of(fresh(&t).run_sql(&analyze).unwrap());
    assert_eq!(whole.rows, whole_traced.rows);
    assert_eq!(whole.report.cycles, whole_traced.report.cycles);

    let token = CancelToken::new();
    let ranged = rows_of(fresh(&t).run_sql_cancellable(sql, &token).unwrap());
    assert_eq!(token.morsels(), 4, "four ranges, one check each");
    let ranged_traced = rows_of(
        fresh(&t)
            .run_sql_cancellable(&analyze, &CancelToken::new())
            .unwrap(),
    );
    assert_eq!(ranged.rows, whole.rows);
    assert_eq!(ranged_traced.rows, whole.rows);
    assert_eq!(ranged.report.cycles, ranged_traced.report.cycles);

    // One shard on one worker runs the same four ranges, but a pool
    // worker pops its deque newest-first: the ranges meet the simulated
    // caches in a different order, so the cycles are close, not equal.
    let pooled: QueryOutput = fresh_sharded(&t).run_sql(sql).unwrap().into();
    assert_eq!(pooled.rows, whole.rows);
    let again: QueryOutput = fresh_sharded(&t).run_sql(sql).unwrap().into();
    assert_eq!(pooled.report.cycles, again.report.cycles);
}
