//! Differential tests for equi-joins: the hash join (every serving
//! path of it) against a brute-force nested-loop oracle.
//!
//! The oracle materialises the nested-loop match pairs into a flat
//! table whose columns carry the query's reference spellings verbatim,
//! then runs the *single-table* engine over it — so the join machinery
//! under test (build-side choice, key interning, morsel exchange,
//! caching) is exactly what differs between the two sides.

use proptest::correlated::{SideData, TablePair};
use proptest::prelude::*;
use vagg::db::{
    parse, CompactionPolicy, Database, Engine, Row, RowBatch, Session, ShardedDatabase, SqlOutcome,
    Table,
};

/// Correlated pairs over one or two key columns, sweeping overlap
/// (including never-matching 0%) and skew.
fn arb_pair() -> impl Strategy<Value = TablePair> {
    (1usize..=2, 0u32..=100, 0u32..=80).prop_flat_map(|(key_columns, overlap_pct, skew_pct)| {
        proptest::correlated::join_tables(proptest::correlated::JoinConfig {
            key_columns,
            domain: 12,
            overlap_pct,
            skew_pct,
            ..proptest::correlated::JoinConfig::default()
        })
    })
}

/// `l.k0 = r.k0 [AND l.k1 = r.k1]`.
fn on_clause(key_columns: usize) -> String {
    (0..key_columns)
        .map(|c| format!("l.k{c} = r.k{c}"))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// The join statement under test: left table `l` (value column `v`),
/// right table `r` (value column `w`), optional tail clauses.
fn join_sql(
    key_columns: usize,
    group_w: bool,
    filter_t: Option<u32>,
    having_n: Option<u32>,
    order_limit: Option<usize>,
) -> String {
    let groups = if group_w { "l.k0, w" } else { "l.k0" };
    let mut sql = format!(
        "SELECT {groups}, COUNT(*), SUM(w) FROM l JOIN r ON {}",
        on_clause(key_columns)
    );
    if let Some(t) = filter_t {
        sql += &format!(" WHERE v > {t}");
    }
    sql += &format!(" GROUP BY {groups}");
    if let Some(n) = having_n {
        sql += &format!(" HAVING COUNT(*) > {n}");
    }
    if let Some(k) = order_limit {
        sql += &format!(" ORDER BY SUM(w) DESC LIMIT {k}");
    }
    sql
}

/// The first `rows` rows of one generated side as a registered table.
fn side_table(name: &str, value_col: &str, side: &SideData, rows: usize) -> Table {
    let mut t = Table::new(name);
    for (c, keys) in side.keys.iter().enumerate() {
        t = t.with_column(format!("k{c}"), keys[..rows].to_vec());
    }
    t.with_column(value_col, side.vals[..rows].to_vec())
}

/// The rows from `from` onward as an ingest batch.
fn side_batch(value_col: &str, side: &SideData, from: usize) -> RowBatch {
    let mut b = RowBatch::new();
    for (c, keys) in side.keys.iter().enumerate() {
        b = b.with_column(format!("k{c}"), keys[from..].to_vec());
    }
    b.with_column(value_col, side.vals[from..].to_vec())
}

/// Resolves a reference spelling from the test's SQL to its side:
/// `l.x` / `r.x` are qualified, bare `v` is unique to the left table,
/// any other bare name (`w`) is unique to the right.
fn resolve(spelling: &str) -> (bool, &str) {
    if let Some(col) = spelling.strip_prefix("l.") {
        (true, col)
    } else if let Some(col) = spelling.strip_prefix("r.") {
        (false, col)
    } else {
        (spelling == "v", spelling)
    }
}

/// One raw cell of a generated side, by db-visible column name.
fn raw(side: &SideData, col: &str, row: usize) -> u32 {
    match col {
        "v" | "w" => side.vals[row],
        _ => side.keys[col[1..].parse::<usize>().expect("key column index")][row],
    }
}

/// The brute-force oracle: nested-loop match over the first
/// `left_rows` × `right_rows` rows, gathered into a flat table named
/// by the query's reference spellings, aggregated by the single-table
/// engine. Returns the expected output rows.
fn oracle_rows(sql: &str, pair: &TablePair, left_rows: usize, right_rows: usize) -> Vec<Row> {
    let q = parse(sql).unwrap_or_else(|e| panic!("oracle SQL {sql:?} failed to parse: {e}"));
    let mut pairs = Vec::new();
    for i in 0..left_rows {
        let tuple = pair.left.key_tuple(i);
        for j in 0..right_rows {
            if tuple == pair.right.key_tuple(j) {
                pairs.push((i, j));
            }
        }
    }
    if pairs.is_empty() {
        return Vec::new();
    }
    let mut spellings: Vec<String> = Vec::new();
    for s in q.query.group_columns() {
        spellings.push(s.to_string());
    }
    spellings.push(q.query.value.clone());
    if let Some((col, _)) = &q.query.filter {
        spellings.push(col.clone());
    }
    spellings.dedup();
    let mut flat = Table::new("oracle");
    for s in &spellings {
        if flat.column(s).is_some() {
            continue;
        }
        let (from_left, col) = resolve(s);
        let data: Vec<u32> = pairs
            .iter()
            .map(|&(i, j)| {
                let (side, row) = if from_left {
                    (&pair.left, i)
                } else {
                    (&pair.right, j)
                };
                raw(side, col, row)
            })
            .collect();
        flat = flat.with_column(s.clone(), data);
    }
    let plan = Engine::new()
        .plan(&flat, &q.query)
        .unwrap_or_else(|e| panic!("oracle planning of {sql:?} failed: {e}"));
    Session::new().run(&plan).rows
}

/// Runs one SELECT on a single-session database, unwrapping to rows.
fn run_single(db: &mut Database, sql: &str) -> Vec<Row> {
    match db.run_sql(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}")) {
        SqlOutcome::Rows(out) => out.rows,
        other => panic!("SELECT returned {other:?}"),
    }
}

/// A database holding the first `lrows` / `rrows` rows of the pair.
fn seed_db(pair: &TablePair, lrows: usize, rrows: usize) -> Database {
    let mut db = Database::new();
    db.register(side_table("l", "v", &pair.left, lrows));
    db.register(side_table("r", "w", &pair.right, rrows));
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-session hash join ≡ nested-loop oracle, across the full
    /// WHERE → GROUP BY → HAVING → ORDER BY → LIMIT tail, composite
    /// keys included.
    #[test]
    fn single_session_join_matches_nested_loop_oracle(
        pair in arb_pair(),
        filter_t in proptest::option::of(0u32..900),
        having_n in proptest::option::of(0u32..4),
        order_limit in proptest::option::of(1usize..6),
        group_w in any::<bool>(),
    ) {
        let sql = join_sql(pair.key_columns, group_w, filter_t, having_n, order_limit);
        let expect = oracle_rows(&sql, &pair, pair.left.rows(), pair.right.rows());
        let mut db = seed_db(&pair, pair.left.rows(), pair.right.rows());
        let got = run_single(&mut db, &sql);
        prop_assert_eq!(got, expect, "{}", sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// The sharded morsel join is bit-identical to the single-session
    /// join and to the oracle, for every shard count and both exchange
    /// strategies (the planner flips broadcast/partition as the sampled
    /// table sizes move).
    #[test]
    fn sharded_join_is_bit_identical_to_single_session(
        pair in arb_pair(),
        shards in 2usize..6,
        having_n in proptest::option::of(0u32..4),
        order_limit in proptest::option::of(1usize..6),
        group_w in any::<bool>(),
    ) {
        let sql = join_sql(pair.key_columns, group_w, None, having_n, order_limit);
        let expect = oracle_rows(&sql, &pair, pair.left.rows(), pair.right.rows());

        let mut db = seed_db(&pair, pair.left.rows(), pair.right.rows());
        let single = run_single(&mut db, &sql);

        let mut sharded = ShardedDatabase::new(shards);
        sharded.register(side_table("l", "v", &pair.left, pair.left.rows()));
        sharded.register(side_table("r", "w", &pair.right, pair.right.rows()));
        let merged = sharded
            .run_sql(&sql)
            .unwrap_or_else(|e| panic!("{sql:?} on {shards} shards: {e}"))
            .rows;

        prop_assert_eq!(&single, &expect, "single vs oracle: {}", &sql);
        prop_assert_eq!(&merged, &expect, "{} shards vs oracle: {}", shards, &sql);
    }

    /// Snapshot reads of a join — `run_sql_at`, `AS OF <name>`,
    /// `AS OF data_version N`, and a prepared `execute_at` — all see
    /// the pinned state; the current read sees base ++ delta.
    #[test]
    fn snapshot_joins_ignore_later_ingest(
        pair in arb_pair(),
        lsplit in 20usize..=80,
        rsplit in 20usize..=80,
    ) {
        let lbase = 1 + (pair.left.rows() - 1) * lsplit / 100;
        let rbase = 1 + (pair.right.rows() - 1) * rsplit / 100;
        let sql = join_sql(pair.key_columns, false, None, None, None);
        let expect_base = oracle_rows(&sql, &pair, lbase, rbase);
        let expect_all = oracle_rows(&sql, &pair, pair.left.rows(), pair.right.rows());

        let mut db = seed_db(&pair, lbase, rbase);
        // Keep raw versions reconstructible: compaction would retire
        // data_version 1 once the deltas land (only named snapshots
        // survive it), and this test reads `AS OF data_version 1`.
        db.catalogue().set_compaction_policy(CompactionPolicy::never());
        let snap = db.snapshot();
        db.run_sql("CREATE SNAPSHOT cut").unwrap();
        let mut stmt = db.prepare(&sql.replacen(
            " GROUP BY", " WHERE v > ? GROUP BY", 1)).unwrap();

        if lbase < pair.left.rows() {
            db.append_rows("l", side_batch("v", &pair.left, lbase)).unwrap();
        }
        if rbase < pair.right.rows() {
            db.append_rows("r", side_batch("w", &pair.right, rbase)).unwrap();
        }

        let pinned = match db.run_sql_at(&snap, &sql).unwrap() {
            SqlOutcome::Rows(out) => out.rows,
            other => panic!("SELECT returned {other:?}"),
        };
        prop_assert_eq!(&pinned, &expect_base, "run_sql_at");

        let named = sql.replacen(" GROUP BY", " AS OF cut GROUP BY", 1);
        prop_assert_eq!(&run_single(&mut db, &named), &expect_base, "AS OF name");

        let versioned = sql.replacen(" GROUP BY", " AS OF data_version 1 GROUP BY", 1);
        prop_assert_eq!(&run_single(&mut db, &versioned), &expect_base, "AS OF data_version");

        // WHERE v > 0 drops the zero-valued left rows from the pinned cut.
        let filtered = oracle_filtered(&pair, lbase, rbase, &sql);
        prop_assert_eq!(
            &stmt.execute_at(&mut db, &snap, &[0]).unwrap().rows,
            &filtered,
            "prepared execute_at"
        );

        prop_assert_eq!(&run_single(&mut db, &sql), &expect_all, "current read");
    }
}

/// The oracle for the snapshot test's prepared statement: the pinned
/// cut with `WHERE v > 0` inlined.
fn oracle_filtered(pair: &TablePair, lbase: usize, rbase: usize, sql: &str) -> Vec<Row> {
    let inlined = sql.replacen(" GROUP BY", " WHERE v > 0 GROUP BY", 1);
    oracle_rows(&inlined, pair, lbase, rbase)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A prepared join over a parameter sweep matches a fresh oracle of
    /// the literal-inlined SQL, and keeps matching it after ingest.
    #[test]
    fn prepared_join_matches_fresh_oracle_across_ingest(
        pair in arb_pair(),
        thresholds in proptest::collection::vec(0u64..900, 1..4),
        lsplit in 20usize..=80,
    ) {
        let lbase = 1 + (pair.left.rows() - 1) * lsplit / 100;
        let template = format!(
            "SELECT l.k0, COUNT(*), SUM(w) FROM l JOIN r ON {} WHERE v > ? GROUP BY l.k0",
            on_clause(pair.key_columns)
        );
        let mut db = seed_db(&pair, lbase, pair.right.rows());
        let mut stmt = db.prepare(&template).unwrap();
        prop_assert_eq!(stmt.parameter_count(), 1);

        for &t in &thresholds {
            let got = stmt.execute(&mut db, &[t]).unwrap().rows;
            let inlined = template.replacen('?', &t.to_string(), 1);
            let expect = oracle_rows(&inlined, &pair, lbase, pair.right.rows());
            prop_assert_eq!(got, expect, "{} with v > {}", &template, t);
        }

        if lbase < pair.left.rows() {
            db.append_rows("l", side_batch("v", &pair.left, lbase)).unwrap();
            let got = stmt.execute(&mut db, &[thresholds[0]]).unwrap().rows;
            let inlined = template.replacen('?', &thresholds[0].to_string(), 1);
            let expect = oracle_rows(&inlined, &pair, pair.left.rows(), pair.right.rows());
            prop_assert_eq!(got, expect, "post-ingest execution");
        }
        prop_assert_eq!(
            stmt.executions(),
            thresholds.len() as u64 + u64::from(lbase < pair.left.rows())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Joins over base ++ delta — including across compaction
    /// boundaries — match the oracle over the accumulated rows, on the
    /// single session and on every shard count.
    #[test]
    fn join_over_deltas_and_compaction_matches_oracle(
        pair in arb_pair(),
        lsplit in 20usize..=60,
        rsplit in 20usize..=60,
        compact_every in 1usize..24,
        shards in 1usize..4,
    ) {
        let lbase = 1 + (pair.left.rows() - 1) * lsplit / 100;
        let rbase = 1 + (pair.right.rows() - 1) * rsplit / 100;
        let sql = join_sql(pair.key_columns, false, None, None, None);

        let mut db = seed_db(&pair, lbase, rbase);
        db.catalogue().set_compaction_policy(CompactionPolicy::every(compact_every));
        let mut sharded = ShardedDatabase::new(shards);
        sharded.set_compaction_policy(CompactionPolicy::every(compact_every));
        sharded.register(side_table("l", "v", &pair.left, lbase));
        sharded.register(side_table("r", "w", &pair.right, rbase));

        // Grow the left side, then the right, checking after each step.
        let steps = [(pair.left.rows(), rbase), (pair.left.rows(), pair.right.rows())];
        let mut at = (lbase, rbase);
        for (lrows, rrows) in steps {
            if lrows > at.0 {
                db.append_rows("l", side_batch("v", &pair.left, at.0)).unwrap();
                sharded.append_rows("l", side_batch("v", &pair.left, at.0)).unwrap();
            }
            if rrows > at.1 {
                db.append_rows("r", side_batch("w", &pair.right, at.1)).unwrap();
                sharded.append_rows("r", side_batch("w", &pair.right, at.1)).unwrap();
            }
            at = (lrows, rrows);
            let expect = oracle_rows(&sql, &pair, lrows, rrows);
            prop_assert_eq!(&run_single(&mut db, &sql), &expect, "single, {:?}", at);
            let merged = sharded.run_sql(&sql).unwrap().rows;
            prop_assert_eq!(&merged, &expect, "{} shards, {:?}", shards, at);
        }
    }
}
