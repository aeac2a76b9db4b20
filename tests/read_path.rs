//! One read path: *cycles*, not just rows, mean the same thing however
//! a `SELECT` is asked for.
//!
//! Every entry point hands its plan to the same read driver, so on a
//! fresh database — cold simulated caches, one range (the table fits
//! one morsel) — `run_sql`, `execute_sql`, `run_sql_cancellable`, a
//! prepared statement with the literals bound as `?` parameters,
//! `run_sql_at` a snapshot-of-now and a one-shard, one-worker
//! `ShardedDatabase` must agree on the rows **and** on `report.cycles`,
//! and tracing must change neither. A prepared statement keeps agreeing
//! with `run_sql` of its bound SQL after every event that moves a
//! cached plan. The contract:
//! `report.cycles` is the simulated work on the staged columns (fuse,
//! filter, cardinality scan, aggregate — its tables opened once and
//! closed once per machine the query touched); the merge and HAVING /
//! ORDER BY / LIMIT over the output table are host steps.
//!
//! The aggregate's tables outlive a range, so the oracle follows the
//! state: however a statement is cut into ranges and wherever they run
//! — whole plan, 2048-row ranges under a token, pool morsels of any
//! size, stolen or not — the rows are the whole plan's, every session
//! that opened tables closes them once, and a cancelled aggregate leaves
//! nothing behind.
//!
//! A join is held to the same: its build and probe are host phases in
//! front of the driver, so every entry point — prepared, single or
//! sharded, and the one-shard pool included — agrees on rows, cycles,
//! executed steps and the hash side's `dict_entries` / `dict_hits`.

use proptest::prelude::*;
use vagg::core::{monotable, StagedInput};
use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::db::{
    CancelToken, Database, Engine, ExecutorConfig, PreparedStatement, QueryOutput, Row,
    ShardedDatabase, Snapshot, SqlError, SqlOutcome, Table, DEFAULT_MORSEL_ROWS,
};
use vagg::sim::Machine;

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

/// `sql` with its WHERE / HAVING / LIMIT literals turned into `?`
/// placeholders, and the values they held: what a prepared path binds
/// to ask for the same statement.
fn template_of(sql: &str) -> (String, Vec<u64>) {
    let (mut words, mut params) = (Vec::new(), Vec::new());
    let mut bindable = false;
    for word in sql.split(' ') {
        match word.parse::<u64>() {
            Ok(value) if bindable => {
                params.push(value);
                words.push("?");
            }
            _ => words.push(word),
        }
        bindable = matches!(word, ">" | "<" | "=" | ">=" | "<=" | "<>" | "LIMIT");
    }
    (words.join(" "), params)
}

/// Every way to ask for `sql`, each on a fresh database over `t`; the
/// prepared paths bind its literals into a template.
fn every_path(t: &Table, sql: &str) -> Vec<(&'static str, QueryOutput)> {
    let analyze = format!("EXPLAIN ANALYZE {sql}");
    let (template, params) = template_of(sql);
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
        let mut stmt = db.prepare(&template).unwrap();
        let out = stmt.execute(&mut db, &params).unwrap();
        paths.push(("prepared execute", out));
    }
    {
        let mut db = fresh(t);
        let mut stmt = db.prepare(&template).unwrap();
        let snap = db.snapshot();
        let out = stmt.execute_at(&mut db, &snap, &params).unwrap();
        paths.push(("prepared execute_at", out));
    }
    {
        let mut db = fresh(t);
        let mut stmt = db.prepare(&template).unwrap();
        let out = stmt.analyze(&mut db, &params).unwrap().output;
        paths.push(("prepared analyze", out));
    }
    {
        let mut db = fresh_sharded(t);
        let mut stmt = db.prepare(&template).unwrap();
        let out = db.execute_prepared(&mut stmt, &params).unwrap();
        paths.push(("sharded prepared", out.into()));
    }
    {
        let mut db = fresh_sharded(t);
        let mut stmt = db.prepare(&template).unwrap();
        let snap = db.snapshot();
        let out = db.execute_prepared_at(&mut stmt, &snap, &params).unwrap();
        paths.push(("sharded prepared_at", out.into()));
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
    let sql = "SELECT a, b, COUNT(*), SUM(v) FROM t GROUP BY a, b \
               HAVING COUNT(*) > 20 ORDER BY SUM(v) DESC LIMIT 5";
    let (template, params) = template_of(sql);
    assert!(template.ends_with("HAVING COUNT(*) > ? ORDER BY SUM(v) DESC LIMIT ?"));
    assert_eq!(params, [20, 5], "the prepared paths bind both literals");
    let tailed = assert_one_answer(&t, sql);
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

/// The shared plan cache's `(misses, invalidations)`.
fn cache_moves(db: &Database) -> (u64, u64) {
    let s = db.plan_cache_stats();
    (s.misses, s.invalidations)
}

const SEQUENCE_TEMPLATE: &str = "SELECT a, COUNT(*), SUM(v) FROM t WHERE w > ? GROUP BY a";

/// A prepared statement on `db` and, in lockstep, `run_sql` of its
/// bound SQL on `oracle`: a second session over the same catalogue that
/// has run every read `db` ran, so both machines are in one state.
struct Lockstep {
    db: Database,
    oracle: Database,
    stmt: PreparedStatement,
    k: u64,
}

impl Lockstep {
    /// Executes with the next parameter (at `at` when given): the plan
    /// cache moves by exactly `cache` while the statement runs, and the
    /// oracle answers the bound SQL with the same rows, cycles and
    /// executed steps.
    fn step(&mut self, at: Option<&Snapshot>, cache: (u64, u64), event: &str) {
        self.k += 1;
        let (db, params) = (&mut self.db, [self.k % 8]);
        let before = cache_moves(db);
        let got = match at {
            Some(snap) => self.stmt.execute_at(db, snap, &params),
            None => self.stmt.execute(db, &params),
        }
        .unwrap();
        let after = cache_moves(db);
        let moved = (after.0 - before.0, after.1 - before.1);
        assert_eq!(moved, cache, "{event}: (misses, invalidations)");

        let sql = SEQUENCE_TEMPLATE.replace('?', &params[0].to_string());
        let want = rows_of(
            match at {
                Some(snap) => self.oracle.run_sql_at(snap, &sql),
                None => self.oracle.run_sql(&sql),
            }
            .unwrap(),
        );
        assert_eq!(got.rows, want.rows, "{event}: rows");
        assert_eq!(got.report.cycles, want.report.cycles, "{event}: cycles");
        assert_eq!(
            got.report.describe(),
            want.report.describe(),
            "{event}: executed steps"
        );
    }

    /// Runs a transaction bracket on both sessions.
    fn both(&mut self, sql: &str) {
        self.db.run_sql(sql).unwrap();
        self.oracle.run_sql(sql).unwrap();
    }
}

/// A prepared statement through every event that moves a cached plan —
/// a re-register, a sub-threshold `INSERT`, an `INSERT` that flips §V-D
/// from mono to psm, `BEGIN READ ONLY` while another session writes,
/// and a snapshot older than the cache entry — answers as `run_sql` of
/// the bound SQL, and the shared plan cache counts every re-plan it
/// makes.
#[test]
fn a_prepared_statement_answers_as_run_sql_across_plan_events() {
    let t = table(600, 17);
    let db = fresh(&t);
    let mut writer = db.catalogue().connect();
    let mut insert = |a: u32| {
        let sql = format!("INSERT INTO t (a, b, v, w) VALUES ({a}, 1, 50, 6)");
        writer.run_sql(&sql).unwrap();
    };
    let mut run = Lockstep {
        oracle: db.catalogue().connect(),
        stmt: db.prepare(SEQUENCE_TEMPLATE).unwrap(),
        db,
        k: 0,
    };
    run.step(None, (0, 0), "steady");

    run.db.register(t.clone());
    run.step(None, (1, 0), "re-register");

    insert(3);
    let old = run.db.snapshot();
    run.step(None, (1, 0), "sub-threshold INSERT");

    insert(20_000);
    run.step(None, (1, 0), "INSERT flipping mono to psm");

    run.both("BEGIN READ ONLY");
    insert(4);
    run.step(None, (0, 0), "READ ONLY while another session writes");
    run.both("COMMIT");
    run.step(None, (1, 0), "live after COMMIT");

    run.step(Some(&old), (1, 0), "a snapshot older than the cache entry");
}

/// A table whose statements exercise the carried state: `w` is
/// clustered (constant over 256 rows), so a `w > k` filter empties
/// whole ranges; `spike` plants a run of key 40 in the second vector
/// chunk only, so one range's maximum key is far above the others' and
/// only the plan's key space bounds them all; `wide` plants one key
/// past the §V-D threshold, so the planner picks a kernel that keeps no
/// tables.
fn carried_table(n: usize, seed: u64, spike: bool, wide: bool) -> Table {
    let mut rng =
        Xoshiro256StarStar::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(11));
    let mut col =
        |bound: u64| -> Vec<u32> { (0..n).map(|_| rng.next_below(bound) as u32).collect() };
    let (mut a, b, v) = (col(13), col(5), col(97));
    if spike {
        for key in a.iter_mut().skip(64).take(64) {
            *key = 40;
        }
    }
    if wide {
        a[n / 2] = 20_000;
    }
    Table::new("t")
        .with_column("a", a)
        .with_column("b", b)
        .with_column("v", v)
        .with_column("w", (0..n).map(|i| (i / 256 % 8) as u32).collect())
}

/// COUNT(*) and SUM(v) per group key tuple, on the host.
fn host_oracle(t: &Table, composite: bool, filter: Option<u32>) -> Vec<(Vec<u32>, u64, u64)> {
    let col = |name: &str| t.column(name).expect("column exists");
    let (a, b, v, w) = (col("a"), col("b"), col("v"), col("w"));
    let mut groups = std::collections::BTreeMap::new();
    for i in 0..t.rows() {
        if filter.is_some_and(|k| w[i] <= k) {
            continue;
        }
        let key = if composite {
            vec![a[i], b[i]]
        } else {
            vec![a[i]]
        };
        let e = groups.entry(key).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += u64::from(v[i]);
    }
    groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect()
}

fn database(engine: &Engine, t: &Table) -> Database {
    let mut db = Database::with_engine(engine.clone());
    db.register(t.clone());
    db
}

fn pool(engine: &Engine, t: &Table, shards: usize, workers: usize, rows: usize) -> ShardedDatabase {
    let config = ExecutorConfig {
        workers,
        morsel_rows: rows,
        ..ExecutorConfig::default()
    };
    let mut db = ShardedDatabase::with_executor(engine.clone(), shards, config);
    db.register(t.clone());
    db
}

fn counter(db: &Database, name: &str) -> u64 {
    db.metrics().get(name).expect("the registry reports it")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Carried rows ≡ whole-plan rows (≡ the host's) on every schedule,
    /// for every kernel family, and each session closes exactly once.
    #[test]
    fn carried_state_agrees_with_the_whole_plan_on_every_schedule(
        n in 1usize..7_000,
        seed in 0u64..1000,
        // Morsel rows of the pools: anything from 1 to the whole table.
        cut in 0usize..7_000,
        composite in any::<bool>(),
        minmax in any::<bool>(),
        // `w` is below 8: the top of this range empties every range,
        // everything below it some of them.
        filter in proptest::option::of(0u32..9),
        // Bit 0: the spike; bit 1: the wide key.
        plant in 0u8..4,
    ) {
        let t = carried_table(n, seed, plant & 1 != 0 && n > 256, plant & 2 != 0);
        let engine = Engine::new();
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

        // The whole plan: one range, one open, one close.
        let mut whole_db = database(&engine, &t);
        let whole = rows_of(whole_db.run_sql(&sql).unwrap());
        let expect = host_oracle(&t, composite, filter);
        prop_assert_eq!(whole.rows.len(), expect.len(), "{}", &sql);
        for (row, (key, count, sum)) in whole.rows.iter().zip(&expect) {
            prop_assert_eq!(&row.group_parts, key, "{}", &sql);
            prop_assert_eq!(row.values[0], *count as f64, "{}", &sql);
            prop_assert_eq!(row.values[1], *sum as f64, "{}", &sql);
        }

        // Inline under a token: 2048-row ranges into one open aggregate.
        let mut ranged_db = database(&engine, &t);
        let token = CancelToken::new();
        let ranged = rows_of(ranged_db.run_sql_cancellable(&sql, &token).unwrap());
        prop_assert_eq!(&ranged.rows, &whole.rows, "inline + token: {}", &sql);
        prop_assert_eq!(ranged.report.rows_aggregated, whole.report.rows_aggregated);
        for db in [&whole_db, &ranged_db] {
            // A table-based statement that reached its first range opens
            // and closes once.
            prop_assert!(counter(db, "agg_closes") <= 1);
            prop_assert_eq!(counter(db, "agg_opens"), counter(db, "agg_closes"));
        }
        if n <= DEFAULT_MORSEL_ROWS {
            prop_assert_eq!(ranged.report.cycles, whole.report.cycles, "one range: {}", &sql);
        }

        // The pool: one shard on one worker, then four shards on two
        // workers that steal from each other.
        let rows = 1 + cut % n;
        for (shards, workers) in [(1, 1), (4, 2)] {
            let mut db = pool(&engine, &t, shards, workers, rows);
            let out = db.run_sql(&sql).unwrap();
            prop_assert_eq!(&out.rows, &whole.rows, "{}×{} pool, {}-row morsels: {}", shards, workers, rows, &sql);
            let stats = db.executor_stats();
            prop_assert!(stats.agg_closes <= workers as u64, "{:?}", stats);
            prop_assert_eq!(stats.agg_opens, stats.agg_closes, "{:?}", stats);
            // Again on the same pool: nothing of the first is left over.
            let again = db.run_sql(&sql).unwrap();
            prop_assert_eq!(&again.rows, &whole.rows, "second run on the pool: {}", &sql);
        }
    }
}

/// One §III-A scan per range, and it is used: on a fresh session a
/// whole-plan statement costs exactly open + scan + loop + close, at the
/// addresses the session gives them — the tables at the bottom of the
/// address space, the staged columns above (no second scan hiding in
/// `Aggregate`).
#[test]
fn a_whole_plan_statement_is_open_scan_loop_close() {
    let t = table(DEFAULT_MORSEL_ROWS, 9);
    let out = rows_of(
        fresh(&t)
            .run_sql("SELECT a, COUNT(*), SUM(v) FROM t GROUP BY a")
            .unwrap(),
    );

    let (g, v) = (t.column("a").unwrap(), t.column("v").unwrap());
    let cells = *g.iter().max().unwrap() as usize + 1;
    let mut m = Machine::paper();
    let tables = monotable::open(&mut m, cells, 0);
    let input = StagedInput::stage_raw(&mut m, g, v, false);
    let (maxg, _) = vagg::core::input::vector_max_scan(&mut m, &input);
    assert_eq!(maxg as usize + 1, cells);
    monotable::update(&mut m, &tables, input.g, input.v, input.n);
    let (result, rows) = monotable::close(&mut m, &tables);
    assert_eq!(out.report.cycles, m.cycles());
    let groups: Vec<u32> = out.rows.iter().map(|r| r.group).collect();
    assert_eq!(result.read(&m, rows).groups, groups);
}

/// Cancel after k ranges: the open aggregate is abandoned — no
/// compaction, nothing left resident — and the next statement on the
/// same session, or the same pool, is correct.
#[test]
fn a_cancelled_query_leaves_the_session_as_a_finished_one_does() {
    let t = table(5 * DEFAULT_MORSEL_ROWS + 3, 21);
    let sql = "SELECT a, b, COUNT(*), SUM(v), MAX(v) FROM t WHERE w > 0 GROUP BY a, b";
    let resident = |db: &Database| db.session().machine().space().resident_pages();

    let mut reference = fresh(&t);
    let expect = rows_of(
        reference
            .run_sql_cancellable(sql, &CancelToken::new())
            .unwrap(),
    );
    let baseline = resident(&reference);
    let cycles = expect.report.cycles;

    for k in 0..6 {
        let mut db = fresh(&t);
        let err = db
            .run_sql_cancellable(sql, &CancelToken::with_morsel_budget(k))
            .unwrap_err();
        assert!(matches!(err, SqlError::Cancelled(_)), "budget {k}: {err}");
        assert_eq!(resident(&db), 0, "budget {k}: abandoned");
        assert_eq!(counter(&db, "agg_closes"), 0, "budget {k}");
        assert_eq!(counter(&db, "agg_opens"), u64::from(k > 0), "budget {k}");
        let next = rows_of(db.run_sql_cancellable(sql, &CancelToken::new()).unwrap());
        assert_eq!(next.rows, expect.rows, "budget {k}");
        assert_eq!(resident(&db), baseline, "budget {k}");
        assert!(k > 0 || next.report.cycles == cycles, "nothing ran before");
    }

    let mut db = pool(&Engine::new(), &t, 4, 2, 512);
    for k in [0, 1, 3, 7] {
        let err = db
            .run_sql_cancellable(sql, &CancelToken::with_morsel_budget(k))
            .unwrap_err();
        assert!(matches!(err, SqlError::Cancelled(_)), "budget {k}: {err}");
        let next: Vec<Row> = db.run_sql(sql).unwrap().rows;
        assert_eq!(next, expect.rows, "pool after budget {k}");
    }
    let stats = db.executor_stats();
    assert!(
        stats.agg_opens > stats.agg_closes,
        "{stats:?}: abandoned aggregates were opened"
    );
}

/// A join pair whose derived table fits one morsel, so every schedule
/// runs the aggregation as one range: `r` holds each `(a, b)` tuple at
/// most twice (`m` ≤ 130 rows over the 13 × 5 tuple space, walked in
/// order) and `l` has at most half a morsel of rows, so at most
/// [`DEFAULT_MORSEL_ROWS`] pairs match.
fn join_pair(n: usize, m: usize, seed: u64) -> (Table, Table) {
    let t = table(n, seed);
    let col = |name: &str| t.column(name).expect("generated column").to_vec();
    let l = Table::new("l")
        .with_column("a", col("a"))
        .with_column("b", col("b"))
        .with_column("w", col("w"));
    let r = Table::new("r")
        .with_column("a", (0..m).map(|i| (i % 13) as u32).collect())
        .with_column("b", (0..m).map(|i| (i / 13 % 5) as u32).collect())
        .with_column("v", (0..m).map(|i| (i * 7 % 97) as u32).collect());
    (l, r)
}

fn fresh_pair(l: &Table, r: &Table) -> Database {
    let mut db = fresh(l);
    db.register(r.clone());
    db
}

/// What a join answered, and — where the entry point traces — the hash
/// side's `(dict_entries, dict_hits)`.
type JoinAnswer = (&'static str, QueryOutput, Option<(u64, u64)>);

/// Every way to ask for the join `sql`, each on a fresh database over
/// `l` and `r`.
fn every_join_path(l: &Table, r: &Table, sql: &str) -> Vec<JoinAnswer> {
    let analyze = format!("EXPLAIN ANALYZE {sql}");
    let single = || fresh_pair(l, r);
    let sharded = || {
        let mut db = fresh_sharded(l);
        db.register(r.clone());
        db
    };
    let traced = |outcome: SqlOutcome| {
        let dict = match &outcome {
            SqlOutcome::Analyzed(a) => Some((a.trace.dict_entries, a.trace.dict_hits)),
            _ => None,
        };
        (rows_of(outcome), dict)
    };
    let token = CancelToken::new();
    let mut paths = vec![
        ("run_sql", rows_of(single().run_sql(sql).unwrap()), None),
        ("execute_sql", single().execute_sql(sql).unwrap(), None),
        (
            "run_sql_cancellable",
            rows_of(single().run_sql_cancellable(sql, &token).unwrap()),
            None,
        ),
        ("sharded", sharded().run_sql(sql).unwrap().into(), None),
    ];
    {
        let (out, dict) = traced(single().run_sql(&analyze).unwrap());
        paths.push(("run_sql traced", out, dict));
    }
    {
        let outcome = single().run_sql_cancellable(&analyze, &token).unwrap();
        let (out, dict) = traced(outcome);
        paths.push(("run_sql_cancellable traced", out, dict));
    }
    {
        let mut db = single();
        let snap = db.snapshot();
        let out = rows_of(db.run_sql_at(&snap, sql).unwrap());
        paths.push(("run_sql_at", out, None));
    }
    {
        let mut db = single();
        let snap = db.snapshot();
        let (out, dict) = traced(db.run_sql_at(&snap, &analyze).unwrap());
        paths.push(("run_sql_at traced", out, dict));
    }
    let (template, params) = template_of(sql);
    {
        let mut db = single();
        let mut stmt = db.prepare(&template).unwrap();
        let out = stmt.execute(&mut db, &params).unwrap();
        paths.push(("prepared execute", out, None));
    }
    {
        let mut db = single();
        let mut stmt = db.prepare(&template).unwrap();
        let snap = db.snapshot();
        let out = stmt.execute_at(&mut db, &snap, &params).unwrap();
        paths.push(("prepared execute_at", out, None));
    }
    {
        let mut db = single();
        let mut stmt = db.prepare(&template).unwrap();
        let a = stmt.analyze(&mut db, &params).unwrap();
        let dict = (a.trace.dict_entries, a.trace.dict_hits);
        paths.push(("prepared analyze", a.output, Some(dict)));
    }
    {
        let mut db = sharded();
        let mut stmt = db.prepare(&template).unwrap();
        let out = db.execute_prepared(&mut stmt, &params).unwrap();
        paths.push(("sharded prepared", out.into(), None));
    }
    {
        let mut db = sharded();
        let mut stmt = db.prepare(&template).unwrap();
        let snap = db.snapshot();
        let out = db.execute_prepared_at(&mut stmt, &snap, &params).unwrap();
        paths.push(("sharded prepared_at", out.into(), None));
    }
    {
        let out = sharded().run_sql(&analyze).unwrap();
        let trace = out.trace.as_deref().expect("EXPLAIN ANALYZE traces");
        assert_eq!(trace.cycles, out.report.cycles);
        let dict = (trace.dict_entries, trace.dict_hits);
        paths.push(("sharded traced", out.into(), Some(dict)));
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The join oracle: every entry point runs the same build, probe
    /// and aggregation, so rows, cycles, executed steps and the hash
    /// side's counters agree, traced or not.
    #[test]
    fn every_entry_point_agrees_on_a_join(
        n in 1usize..=DEFAULT_MORSEL_ROWS / 2,
        m in 1usize..=130,
        seed in 0u64..1000,
        // `w` is below 8, so the top of this range empties the input.
        filter in proptest::option::of(0u32..10),
        minmax in any::<bool>(),
    ) {
        let (l, r) = join_pair(n, m, seed);
        let mut sql = String::from("SELECT l.a, COUNT(*), SUM(v)");
        if minmax {
            sql += ", MAX(v)";
        }
        sql += " FROM l JOIN r ON l.a = r.a AND l.b = r.b";
        if let Some(k) = filter {
            sql += &format!(" WHERE w > {k}");
        }
        sql += " GROUP BY l.a";

        // The hash side on the host: the planner builds the side with
        // fewer rows (`r` on a tie).
        let build = if m <= n { &r } else { &l };
        let (ka, kb) = (build.column("a").unwrap(), build.column("b").unwrap());
        let distinct: std::collections::BTreeSet<(u32, u32)> =
            ka.iter().copied().zip(kb.iter().copied()).collect();
        let dict = (distinct.len() as u64, (build.rows() - distinct.len()) as u64);

        let mut paths = every_join_path(&l, &r, &sql).into_iter();
        let (_, expect, _) = paths.next().expect("at least one path");
        for (name, got, traced) in paths {
            prop_assert_eq!(&got.rows, &expect.rows, "{}: rows of {}", name, sql);
            if let Some(traced) = traced {
                prop_assert_eq!(traced, dict, "{}: hash side of {}", name, sql);
            }
            prop_assert_eq!(
                got.report.cycles, expect.report.cycles,
                "{}: cycles of {}", name, sql
            );
            prop_assert_eq!(
                got.report.rows_aggregated, expect.report.rows_aggregated,
                "{}: {}", name, sql
            );
            prop_assert_eq!(
                got.report.algorithm, expect.report.algorithm,
                "{}: {}", name, sql
            );
            prop_assert_eq!(
                got.report.describe(), expect.report.describe(),
                "{}: executed steps of {}", name, sql
            );
        }
        if filter.is_some_and(|k| k >= 7) {
            prop_assert!(expect.rows.is_empty(), "WHERE removed every row: {}", sql);
        }
    }
}

/// A join under a token is cancellable *during* its host phases: the
/// build and probe ranges count against the budget like the
/// aggregation's, so every budget short of all of them ends
/// `Cancelled`, is counted, and leaves the session answering correctly.
#[test]
fn a_join_polls_its_token_per_range_of_build_probe_and_aggregation() {
    let (l, r) = join_pair(3 * DEFAULT_MORSEL_ROWS + 5, 40, 11);
    let sql = "SELECT l.a, COUNT(*), SUM(v) FROM l JOIN r ON l.a = r.a AND l.b = r.b \
               WHERE w > 1 GROUP BY l.a";
    let fresh = || fresh_pair(&l, &r);
    // `r` (40 rows, every tuple once) builds in one range, `l` probes
    // in four, and the matched pairs aggregate in ranges of their own.
    let (la, lb) = (l.column("a").unwrap(), l.column("b").unwrap());
    let pairs = (0..l.rows()).filter(|&i| (lb[i] * 13 + la[i]) < 40).count();
    let ranges = 1 + 4 + pairs.div_ceil(DEFAULT_MORSEL_ROWS) as u64;
    assert!(pairs > DEFAULT_MORSEL_ROWS, "several aggregation ranges");

    let expect = rows_of(fresh().run_sql(sql).unwrap());
    let token = CancelToken::new();
    let ranged = rows_of(fresh().run_sql_cancellable(sql, &token).unwrap());
    assert_eq!(ranged.rows, expect.rows);
    assert_eq!(token.morsels(), ranges, "one check per range");

    for k in 0..ranges {
        let mut db = fresh();
        let err = db
            .run_sql_cancellable(sql, &CancelToken::with_morsel_budget(k))
            .unwrap_err();
        assert!(matches!(err, SqlError::Cancelled(_)), "budget {k}: {err}");
        assert_eq!(counter(&db, "queries_cancelled"), 1, "budget {k}");
        let next = rows_of(db.run_sql(sql).unwrap());
        assert_eq!(next.rows, expect.rows, "after budget {k}");
    }
    let mut db = fresh();
    let enough = CancelToken::with_morsel_budget(ranges);
    let out = rows_of(db.run_sql_cancellable(sql, &enough).unwrap());
    assert_eq!(out.rows, expect.rows);
    assert_eq!(counter(&db, "queries_cancelled"), 0);

    // A prepared join builds and probes under the token of the call it
    // runs in, and a cancelled execution leaves nothing behind.
    let mut stmt = db.prepare(sql).unwrap();
    let err = db
        .run_cancellable(&CancelToken::with_morsel_budget(1), |db| {
            stmt.execute(db, &[])
        })
        .unwrap_err();
    assert!(matches!(err, SqlError::Cancelled(_)), "{err}");
    assert_eq!(stmt.executions(), 0);
    assert_eq!(stmt.execute(&mut db, &[]).unwrap().rows, expect.rows);
}
