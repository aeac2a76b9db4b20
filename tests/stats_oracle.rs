//! Live statistics are what a fresh registration of the same rows
//! would compute — at every data version, however the rows got there —
//! and every plan's facts are what a scan of the view it planned reads.
//!
//! The §V-D policy plans from the planned view's column metadata
//! (sortedness, `max + 1` cardinality), the join's build-side choice
//! from the live distinct sketch, and morsel pruning trusts the zone
//! maps, so the write path may maintain them any way it likes as long
//! as, **after every statement**:
//!
//! * each column's `ColumnStats` — `distinct_estimate` and its `{:?}` —
//!   equals that of `Database::register(db.table(t))` on a fresh
//!   database;
//! * whenever the delta holds no appended rows (right after a
//!   registration, a compaction, or a DELETE / UPDATE on a compacted
//!   table) the whole `TableStats` `{:?}`, zone maps included, equals
//!   the fresh registration's;
//! * a filtered aggregate — pruned over the *current* zones — returns
//!   the rows a host-side scan of the table computes;
//! * every aggregate table that read opened was closed once: the
//!   planner's key space bounds every key, whatever the writes did;
//! * the plan the live database serves for that aggregate from its
//!   warm plan cache equals the plan a fresh registration makes cold —
//!   its `explain()` text (but for the data version and zone count,
//!   which describe the table's history), its rows and its cycles;
//! * on every planning path — the live read, a snapshot pinned one
//!   statement earlier, `AS OF data_version`, named snapshots, each
//!   shard of a 4-shard cut, and the aggregate over a join's output —
//!   a plan's presorted flag (its `CardinalityScan` mode) and its
//!   cardinality estimate are those a host scan of the planned rows
//!   gives (`scan_facts`), and a 4-shard join's build side is sorted
//!   exactly when its key column is sorted in every partition.
//!
//! Op lists mix appends (empty, 1-row, 64-row, with a sorted key column
//! and not), `DELETE` / `UPDATE` whose predicate matches no, some or
//! all rows, and `BEGIN … COMMIT` lists of them, under
//! `CompactionPolicy::{never, every(1), every(3), default}`, through
//! autocommit SQL, `append_rows`, a 3-shard `ShardedDatabase`, and
//! drop + reopen replay. This file judges how compaction maintains
//! statistics; `tests/write_path.rs` holds that every entry point
//! agrees with every other.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vagg::db::{
    parse, CompactionPolicy, Database, Engine, ExecutorConfig, MetricsSnapshot, PlanStep,
    QueryPlan, Row, RowBatch, ScanMode, Session, ShardedDatabase, Snapshot, SqlError, SqlOutcome,
    Table, TableStats, TempDir,
};

const COLUMNS: [&str; 3] = ["g", "k", "v"];

#[derive(Debug, Clone)]
enum Op {
    /// `rows` rows drawn from `seed`; `sorted` continues the ascending
    /// run of the key column `k`, otherwise `k` is random.
    Append {
        rows: usize,
        sorted: bool,
        seed: u64,
    },
    /// `DELETE FROM t WHERE <clause>`.
    Delete(String),
    /// `UPDATE t SET <column> = <value> WHERE <clause>`.
    Update(&'static str, u32, String),
}

#[derive(Debug, Clone)]
enum Step {
    One(Op),
    /// `BEGIN; …; COMMIT` where the entry point has transactions, the
    /// ops one by one where it does not.
    Txn(Vec<Op>),
}

/// `(g, k, v)` rows of one append, materialised against the running key
/// counter so that sorted batches really extend the sorted run.
fn rows_of(rows: usize, sorted: bool, seed: u64, next_key: &mut u32) -> Vec<[u32; 3]> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as u32
    };
    (0..rows)
        .map(|_| {
            let k = if sorted {
                *next_key += 1;
                *next_key
            } else {
                next() % 2000
            };
            [next() % 8, k, next() % 100]
        })
        .collect()
}

fn batch_of(rows: &[[u32; 3]]) -> RowBatch {
    COLUMNS
        .iter()
        .enumerate()
        .fold(RowBatch::new(), |b, (c, name)| {
            b.with_column(*name, rows.iter().map(|r| r[c]).collect())
        })
}

fn insert_sql(rows: &[[u32; 3]]) -> String {
    let values: Vec<String> = rows
        .iter()
        .map(|r| format!("({}, {}, {})", r[0], r[1], r[2]))
        .collect();
    format!("INSERT INTO t (g, k, v) VALUES {}", values.join(", "))
}

fn mutation_sql(op: &Op) -> String {
    match op {
        Op::Delete(clause) => format!("DELETE FROM t WHERE {clause}"),
        Op::Update(column, value, clause) => {
            format!("UPDATE t SET {column} = {value} WHERE {clause}")
        }
        Op::Append { .. } => unreachable!("appends are materialised, not rendered"),
    }
}

/// Predicates matching no row, every row, a prefix of the key column
/// (the rolling-window shape), and arbitrary subsets.
fn arb_where() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("v > 1000".to_string()),
        Just("v < 1000".to_string()),
        (0u32..200).prop_map(|c| format!("k < {c}")),
        (200u32..600).prop_map(|c| format!("k > {c}")),
        (0u32..30).prop_map(|c| format!("v < {c}")),
        (3u32..8).prop_map(|c| format!("g > {c}")),
        (0u32..8).prop_map(|c| format!("g <> {c}")),
    ]
}

fn arb_append() -> impl Strategy<Value = Op> {
    (
        prop_oneof![Just(0usize), Just(1usize), Just(64usize), 2usize..7],
        0usize..2,
        any::<u64>(),
    )
        .prop_map(|(rows, sorted, seed)| Op::Append {
            rows,
            sorted: sorted == 1,
            seed,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_append(),
        arb_append(),
        arb_where().prop_map(Op::Delete),
        (0u32..100, arb_where()).prop_map(|(v, w)| Op::Update("v", v, w)),
        (0u32..2000, arb_where()).prop_map(|(k, w)| Op::Update("k", k, w)),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_op().prop_map(Step::One),
        arb_op().prop_map(Step::One),
        arb_op().prop_map(Step::One),
        proptest::collection::vec(arb_op(), 1..4).prop_map(Step::Txn),
    ]
}

fn policy_of(choice: usize) -> CompactionPolicy {
    match choice {
        0 => CompactionPolicy::never(),
        1 => CompactionPolicy::every(1),
        2 => CompactionPolicy::every(3),
        _ => CompactionPolicy::default(),
    }
}

/// Rows registered before the first statement: more distinct keys than
/// the distinct sketch retains, so it starts at capacity.
const SEED_ROWS: usize = 300;

fn seed_table() -> Table {
    let mut next_key = 0;
    let rows = rows_of(SEED_ROWS, true, 7, &mut next_key);
    COLUMNS
        .iter()
        .enumerate()
        .fold(Table::new("t"), |t, (c, name)| {
            t.with_column(*name, rows.iter().map(|r| r[c]).collect())
        })
}

/// What a fresh registration of `db`'s current rows computes.
fn fresh_stats(db: &Database) -> TableStats {
    let mut fresh = Database::new();
    fresh.register(db.table("t").expect("t is registered"));
    fresh.table_stats("t").expect("just registered")
}

/// The statistics half of the oracle, on one database.
fn check_stats(db: &Database, what: &str) -> Result<(), TestCaseError> {
    let live = db.table_stats("t").expect("t is registered");
    let fresh = fresh_stats(db);
    prop_assert_eq!(live.rows(), fresh.rows(), "{}: rows", what);
    prop_assert_eq!(
        live.column_names(),
        fresh.column_names(),
        "{}: columns",
        what
    );
    for name in COLUMNS {
        let (a, b) = (live.column(name).unwrap(), fresh.column(name).unwrap());
        prop_assert_eq!(
            a.distinct_estimate(),
            b.distinct_estimate(),
            "{}: {} distinct",
            what,
            name
        );
        prop_assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: {} rendered",
            what,
            name
        );
    }
    if db.catalogue().delta_rows("t") == Some(0) {
        prop_assert_eq!(
            format!("{live:?}"),
            format!("{fresh:?}"),
            "{}: whole statistics with an empty delta",
            what
        );
    }
    Ok(())
}

/// `SELECT g, COUNT(*), SUM(v) … WHERE v > threshold GROUP BY g` by a
/// host-side scan: what an unpruned execution returns.
fn scan(tables: &[Table], threshold: u32) -> Vec<(u32, Vec<f64>)> {
    let mut groups: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for t in tables {
        let (g, v) = (t.column("g").unwrap(), t.column("v").unwrap());
        for (&g, &v) in g.iter().zip(v) {
            if v > threshold {
                let e = groups.entry(g).or_default();
                e.0 += 1;
                e.1 += u64::from(v);
            }
        }
    }
    groups
        .into_iter()
        .map(|(g, (n, sum))| (g, vec![n as f64, sum as f64]))
        .collect()
}

fn flat(rows: &[Row]) -> Vec<(u32, Vec<f64>)> {
    rows.iter().map(|r| (r.group, r.values.clone())).collect()
}

fn range_sql(threshold: u32) -> String {
    format!("SELECT g, COUNT(*), SUM(v) FROM t WHERE v > {threshold} GROUP BY g")
}

/// Every open of a read's aggregate tables met its close: no range
/// outgrew the tables the plan's key space sized.
fn check_bounded(snap: &MetricsSnapshot, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        snap.get("agg_opens"),
        snap.get("agg_closes"),
        "{}: tables opened ≠ closed",
        what
    );
    Ok(())
}

/// A plan's `explain()` without the words that describe the table's
/// history rather than its rows: the data version, and the zone count
/// (after an append the live statistics keep the batch's own zone, a
/// fresh registration re-seeds one).
fn rows_explain(plan: &QueryPlan) -> String {
    plan.explain()
        .split(' ')
        .filter(|w| !w.starts_with("data_version=") && !w.starts_with("zone_maps="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The plan the live database serves for the range statement — from
/// its warm plan cache — is the plan a fresh registration of the same
/// rows makes cold: the same text, rows and cycles.
fn check_served_plan(db: &Database, threshold: u32, what: &str) -> Result<(), TestCaseError> {
    let sql = range_sql(threshold);
    let served = db.explain_sql(&sql).unwrap();
    let mut fresh = Database::new();
    fresh.register(db.table("t").expect("t is registered"));
    let cold = fresh.explain_sql(&sql).unwrap();
    let (served, cold) = (served.plan().unwrap(), cold.plan().unwrap());
    prop_assert_eq!(
        rows_explain(served),
        rows_explain(cold),
        "{}: served plan",
        what
    );
    let (a, b) = (Session::new().run(served), Session::new().run(cold));
    prop_assert_eq!(flat(&a.rows), flat(&b.rows), "{}: served plan rows", what);
    prop_assert_eq!(
        a.report.cycles,
        b.report.cycles,
        "{}: served plan cycles",
        what
    );
    Ok(())
}

/// The second table of the join checks: never written, its join key
/// `g` sorted in the first and last of four partitions only.
fn join_table() -> Table {
    Table::new("u")
        .with_column("g", vec![0, 1, 3, 2, 5, 4, 6, 6])
        .with_column("w", (1..=8).collect())
}

/// The join whose output the aggregate plans over; grouping by `t.k`
/// carries `t`'s sorted run (or its breaks) into the output.
const JOIN_SQL: &str = "SELECT t.k, COUNT(*), SUM(w) FROM t JOIN u ON t.g = u.g GROUP BY t.k";

/// The unfiltered aggregate grouped by `column`, `AS OF` `as_of` when
/// given: the statement the planning paths are checked with. `k` is
/// sorted until a write breaks its run, `g` almost never is.
fn group_sql(column: &str, as_of: Option<&str>) -> String {
    let as_of = as_of.map_or(String::new(), |a| format!(" AS OF {a}"));
    format!("SELECT {column}, COUNT(*), SUM(v) FROM t{as_of} GROUP BY {column}")
}

/// The facts a host scan of a group column gives the §V-D policy:
/// whether it is sorted ascending, and its cardinality `max + 1`.
fn scan_facts(column: &[u32]) -> (bool, u64) {
    let sorted = column.windows(2).all(|w| w[0] <= w[1]);
    let cardinality = column.iter().max().map_or(0, |&m| u64::from(m) + 1);
    (sorted, cardinality)
}

/// The facts a plan's `CardinalityScan` step states: `(presorted,
/// estimate)`, `None` when the plan has no such step.
fn step_facts(steps: &[PlanStep]) -> Option<(bool, u64)> {
    steps.iter().find_map(|step| match step {
        PlanStep::CardinalityScan { mode, estimate } => {
            Some((*mode == ScanMode::Presorted, *estimate))
        }
        _ => None,
    })
}

/// A plan's facts equal a scan of `view`'s `column`: its presorted
/// flag, its cardinality estimate and its `CardinalityScan` step.
fn check_facts(
    plan: &QueryPlan,
    view: &Table,
    column: &str,
    what: &str,
) -> Result<(), TestCaseError> {
    let expect = scan_facts(view.column(column).unwrap());
    let facts = (plan.presorted(), plan.cardinality_estimate());
    prop_assert_eq!(facts, expect, "{}: {} plan facts", what, column);
    prop_assert_eq!(
        step_facts(plan.steps()),
        Some(expect),
        "{}: {} CardinalityScan",
        what,
        column
    );
    Ok(())
}

fn explained(db: &Database, sql: &str) -> Result<QueryPlan, SqlError> {
    Ok(db.explain_sql(sql)?.plan().expect("no join").clone())
}

/// What a database's earlier statements left for the planning paths
/// that read the past: a snapshot pinned at the previous check with
/// the table it captured, the table at every data version seen, and
/// the named snapshots made so far with theirs.
#[derive(Default)]
struct History {
    pinned: Option<(Snapshot, Table)>,
    versions: BTreeMap<u64, Table>,
    named: Vec<(String, Table)>,
}

/// `t.k` of the join's output, in the order the join builds it: probe
/// rows in order, each followed by its matching build rows in order.
fn joined_keys(t: &Table, u: &Table, t_builds: bool) -> Vec<u32> {
    let (tg, tk, ug) = (
        t.column("g").unwrap(),
        t.column("k").unwrap(),
        u.column("g").unwrap(),
    );
    let mut out = Vec::new();
    if t_builds {
        for &g in ug {
            out.extend(tg.iter().zip(tk).filter(|&(&x, _)| x == g).map(|(_, &k)| k));
        }
    } else {
        for (&g, &k) in tg.iter().zip(tk) {
            out.extend(ug.iter().filter(|&&y| y == g).map(|_| k));
        }
    }
    out
}

/// Plan facts ≡ a scan of the planned view on every single-store
/// planning path.
fn check_plan_facts(
    db: &mut Database,
    history: &mut History,
    what: &str,
) -> Result<(), TestCaseError> {
    let table = db.table("t").unwrap();
    let version = db.data_version("t").unwrap();
    history.versions.insert(version, table.clone());
    // A CREATE SNAPSHOT per check; the first and the newest are read.
    let name = format!("s{}", history.named.len());
    db.run_sql(&format!("CREATE SNAPSHOT {name}")).unwrap();
    history.named.push((name, table.clone()));
    let mut pasts: Vec<(String, Table)> = Vec::new();
    // `AS OF data_version` for this version and the one before it,
    // while the version index still holds them.
    for (&v, past) in history.versions.range(..=version).rev().take(2) {
        pasts.push((format!("data_version {v}"), past.clone()));
    }
    for named in [history.named.first(), history.named.last()]
        .into_iter()
        .flatten()
    {
        pasts.push(named.clone());
    }
    for column in ["g", "k"] {
        if table.rows() > 0 {
            let live = explained(db, &group_sql(column, None)).unwrap();
            check_facts(&live, &table, column, &format!("{what}, live"))?;
        }
        if let Some((snap, pinned)) = history.pinned.as_ref().filter(|(_, t)| t.rows() > 0) {
            match db.run_sql_at(snap, &format!("EXPLAIN {}", group_sql(column, None))) {
                Ok(SqlOutcome::Plan(plan)) => {
                    check_facts(&plan, pinned, column, &format!("{what}, pinned"))?
                }
                other => prop_assert!(false, "{}: pinned plan {:?}", what, other),
            }
        }
        for (as_of, past) in pasts.iter().filter(|(_, t)| t.rows() > 0) {
            match explained(db, &group_sql(column, Some(as_of))) {
                Ok(plan) => check_facts(&plan, past, column, &format!("{what}, AS OF {as_of}"))?,
                Err(SqlError::VersionUnavailable { .. }) => {}
                Err(e) => prop_assert!(false, "{}: AS OF {}: {}", what, as_of, e),
            }
        }
    }
    history.pinned = Some((db.snapshot(), table.clone()));

    // The aggregate over the join's output plans from the derived
    // table's view: execute, and read the facts off the steps.
    if table.rows() > 0 {
        let u = db.table("u").unwrap();
        let join = db.explain_sql(JOIN_SQL).unwrap();
        let t_builds = join.join().expect("a join").build_table() == "t";
        let keys = joined_keys(&table, &u, t_builds);
        let out = db.execute_sql(JOIN_SQL).unwrap();
        let expect = (!keys.is_empty()).then(|| scan_facts(&keys));
        prop_assert_eq!(
            step_facts(&out.report.steps),
            expect,
            "{}: join output plan facts",
            what
        );
    }
    Ok(())
}

/// Every part of the oracle on one single-store database.
fn check(
    db: &mut Database,
    history: &mut History,
    threshold: u32,
    what: &str,
) -> Result<(), TestCaseError> {
    check_stats(db, what)?;
    check_plan_facts(db, history, what)?;
    let table = db.table("t").unwrap();
    // A table a DELETE emptied plans to a typed `EmptyTable` error.
    if table.rows() > 0 {
        check_served_plan(db, threshold, what)?;
        let got = db.execute_sql(&range_sql(threshold)).unwrap();
        prop_assert_eq!(
            flat(&got.rows),
            scan(&[table], threshold),
            "{}: pruned read",
            what
        );
    }
    check_bounded(&db.metrics(), what)
}

fn check_sharded(
    db: &mut ShardedDatabase,
    threshold: u32,
    what: &str,
) -> Result<(), TestCaseError> {
    let mut tables = Vec::new();
    for (i, shard) in db.shards().iter().enumerate() {
        check_stats(&shard.connect(), &format!("{what}, shard {i}"))?;
        tables.push(shard.table("t").unwrap());
    }
    if tables.iter().any(|t| t.rows() > 0) {
        let got = db.run_sql(&range_sql(threshold)).unwrap();
        prop_assert_eq!(
            flat(&got.rows),
            scan(&tables, threshold),
            "{}: pruned read",
            what
        );
    }
    check_bounded(&db.metrics(), what)
}

/// Plan facts on a 4-shard database: every shard's plan at one cut ≡ a
/// scan of that shard's view, and the join's build side is sorted
/// exactly when its key column is sorted in every partition.
fn check_quad(db: &ShardedDatabase, what: &str) -> Result<(), TestCaseError> {
    let cut = db.snapshot();
    let mut rows = 0;
    for (i, (shard, snap)) in db.shards().into_iter().zip(cut.shards()).enumerate() {
        let view = snap.table("t").unwrap();
        rows += view.rows();
        if view.rows() == 0 {
            continue;
        }
        for column in ["g", "k"] {
            let query = parse(&group_sql(column, None)).unwrap().query;
            let plan = shard.plan_query_at(snap, "t", &query).unwrap();
            check_facts(&plan, &view, column, &format!("{what}, shard {i}"))?;
        }
    }
    if rows > 0 {
        let join = db.explain_sql(JOIN_SQL).unwrap();
        let join = join.join().expect("a join");
        let build = join.build_table();
        let sorted = db.shards().into_iter().all(|shard| {
            let part = shard.table(build).unwrap();
            scan_facts(part.column("g").unwrap()).0
        });
        prop_assert_eq!(join.build_sorted(), sorted, "{}: join build_sorted", what);
    }
    Ok(())
}

fn open(dir: &TempDir, policy: CompactionPolicy) -> Database {
    let db = Database::open(dir.path()).unwrap();
    db.catalogue().set_compaction_policy(policy);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn live_statistics_equal_a_fresh_registration_after_every_statement(
        steps in proptest::collection::vec(arb_step(), 1..10),
        policy in 0usize..4,
        threshold in 0u32..100,
    ) {
        let policy = policy_of(policy);
        let in_memory = || {
            let mut db = Database::new();
            db.catalogue().set_compaction_policy(policy);
            db.register(seed_table());
            db.register(join_table());
            db
        };
        let (mut sql, mut bulk) = (in_memory(), in_memory());
        // Small morsels, so that pruning decides per zone and not for
        // the table as a whole.
        let mut sharded = ShardedDatabase::with_executor(
            Engine::new(),
            3,
            ExecutorConfig { morsel_rows: 16, ..ExecutorConfig::default() },
        );
        sharded.set_compaction_policy(policy);
        sharded.register(seed_table());
        let mut quad = ShardedDatabase::new(4);
        quad.set_compaction_policy(policy);
        quad.register(seed_table());
        quad.register(join_table());
        let dir = TempDir::new("stats-oracle");
        let mut durable = open(&dir, policy);
        durable.register(seed_table());
        durable.register(join_table());
        let (mut sql_past, mut bulk_past, mut durable_past) =
            (History::default(), History::default(), History::default());

        check(&mut sql, &mut sql_past, threshold, "registered")?;
        check_sharded(&mut sharded, threshold, "registered, sharded")?;
        check_quad(&quad, "registered, 4 shards")?;

        let mut next_key = SEED_ROWS as u32;
        for (i, step) in steps.iter().enumerate() {
            let ops: &[Op] = match step {
                Step::One(op) => std::slice::from_ref(op),
                Step::Txn(ops) => ops,
            };
            // One rendering of the step for every entry point: SQL text
            // where SQL can say it (it cannot say "no rows"), else the
            // batch.
            let rendered: Vec<(Option<String>, Option<RowBatch>)> = ops
                .iter()
                .map(|op| match op {
                    Op::Append { rows, sorted, seed } => {
                        let rows = rows_of(*rows, *sorted, *seed, &mut next_key);
                        let sql = (!rows.is_empty()).then(|| insert_sql(&rows));
                        (sql, Some(batch_of(&rows)))
                    }
                    other => (Some(mutation_sql(other)), None),
                })
                .collect();
            let in_txn = matches!(step, Step::Txn(_));

            // (a) autocommit SQL / BEGIN … COMMIT, and (d) the same on a
            // durable database.
            for (db, past, what) in [
                (&mut sql, &mut sql_past, "sql"),
                (&mut durable, &mut durable_past, "durable"),
            ] {
                if in_txn {
                    db.run_sql("BEGIN").unwrap();
                }
                for (text, batch) in &rendered {
                    match (text, batch) {
                        (Some(text), _) => {
                            let outcome = db.run_sql(text).unwrap();
                            prop_assert_eq!(in_txn, matches!(outcome, SqlOutcome::Queued(_)));
                        }
                        // The empty append, outside any bracket.
                        (None, Some(batch)) if !in_txn => {
                            db.append_rows("t", batch.clone()).unwrap();
                        }
                        _ => {}
                    }
                    if !in_txn {
                        check(db, past, threshold, &format!("{what}, step {i}"))?;
                    }
                }
                if in_txn {
                    db.run_sql("COMMIT").unwrap();
                    check(db, past, threshold, &format!("{what}, step {i} committed"))?;
                }
            }
            drop(durable);
            durable = open(&dir, policy);
            // A snapshot of the dropped instance is foreign to the
            // reopened one.
            durable_past.pinned = None;
            check(&mut durable, &mut durable_past, threshold, &format!("replayed, step {i}"))?;

            // (b) the bulk API for appends, and (c) three shards; both
            // take a list one op at a time.
            for (text, batch) in &rendered {
                match (batch, text) {
                    (Some(batch), _) => {
                        bulk.append_rows("t", batch.clone()).unwrap();
                        sharded.append_rows("t", batch.clone()).unwrap();
                        quad.append_rows("t", batch.clone()).unwrap();
                    }
                    (None, Some(text)) => {
                        bulk.run_sql(text).unwrap();
                        sharded.mutate_sql(text).unwrap();
                        quad.mutate_sql(text).unwrap();
                    }
                    (None, None) => unreachable!("a rendered op is text or a batch"),
                }
                check(&mut bulk, &mut bulk_past, threshold, &format!("append_rows, step {i}"))?;
                check_sharded(&mut sharded, threshold, &format!("sharded, step {i}"))?;
                check_quad(&quad, &format!("4 shards, step {i}"))?;
            }
        }
    }
}
