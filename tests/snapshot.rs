//! Integration tests for the snapshot-first read path: MVCC isolation
//! under ingest and compaction, the prepared-statement acceptance
//! scenario, read-only transactions, the snapshot oracle over every
//! kind of write, and snapshot lifetimes under concurrent traffic.

use proptest::prelude::*;
use std::sync::Arc;
use vagg::core::Algorithm;
use vagg::db::{
    CompactionPolicy, Database, QueryOutput, RowBatch, ShardedDatabase, SharedCatalogue,
    SqlOutcome, Table,
};

fn seed_table(n: usize, cardinality: u32) -> Table {
    Table::new("events")
        .with_column(
            "g",
            (0..n)
                .map(|i| ((i * 7919) % cardinality as usize) as u32)
                .collect(),
        )
        .with_column("v", (0..n).map(|i| (i % 10) as u32).collect())
}

fn batch(g: Vec<u32>, v: Vec<u32>) -> RowBatch {
    RowBatch::new().with_column("g", g).with_column("v", v)
}

fn rows_of(outcome: SqlOutcome) -> QueryOutput {
    match outcome {
        SqlOutcome::Rows(out) => out,
        other => panic!("SELECT returns rows: {other:?}"),
    }
}

const SQL: &str = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events GROUP BY g";

/// One step of the snapshot oracle's stream.
#[derive(Debug, Clone)]
enum Step {
    /// An autocommit INSERT, DELETE or UPDATE.
    Write(String),
    /// Replace the table with a fresh one of this many rows.
    Reregister(usize),
    /// Capture a snapshot and record the answers it must keep giving.
    Capture,
    /// Drop the live snapshot at this index (modulo their count).
    Drop(usize),
}

fn arb_where() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u32..13).prop_map(|k| format!("g > {k}")),
        (0u32..13).prop_map(|k| format!("g <> {k}")),
        (0u32..100).prop_map(|k| format!("v < {k}")),
        (0u32..100).prop_map(|k| format!("v > {k}")),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        proptest::collection::vec((0u32..13, 0u32..100), 1..6).prop_map(|rows| {
            let values: Vec<String> = rows.iter().map(|(g, v)| format!("({g}, {v})")).collect();
            Step::Write(format!(
                "INSERT INTO events (g, v) VALUES {}",
                values.join(", ")
            ))
        }),
        arb_where().prop_map(|w| Step::Write(format!("DELETE FROM events WHERE {w}"))),
        (prop_oneof![Just("g"), Just("v")], 0u32..13, arb_where())
            .prop_map(|(c, x, w)| Step::Write(format!("UPDATE events SET {c} = {x} WHERE {w}"))),
        (1usize..30).prop_map(Step::Reregister),
        Just(Step::Capture),
        Just(Step::Capture),
        (0usize..8).prop_map(Step::Drop),
    ]
}

/// A live snapshot and what it answered at capture.
struct Captured {
    snap: vagg::db::Snapshot,
    version: u64,
    answer: Answer,
    table: Vec<(String, Vec<u32>)>,
    /// Whether `AS OF data_version {version}` still names this cut.
    as_of: bool,
}

/// A SELECT's rows, or its error (a table deleted down to no rows has
/// nothing to plan over).
type Answer = Result<Vec<vagg::db::Row>, String>;

fn answer(outcome: Result<SqlOutcome, vagg::db::SqlError>) -> Answer {
    outcome.map(|o| rows_of(o).rows).map_err(|e| e.to_string())
}

fn columns(table: &Table) -> Vec<(String, Vec<u32>)> {
    table
        .column_names()
        .iter()
        .map(|c| (c.to_string(), table.column(c).unwrap().to_vec()))
        .collect()
}

fn compactions(db: &Database) -> u64 {
    db.catalogue()
        .metrics()
        .snapshot()
        .get("compactions")
        .unwrap()
}

/// The acceptance scenario: a prepared statement executed at an old
/// snapshot returns results identical to a fresh plan over a table
/// registered from that snapshot's rows — even after subsequent ingest
/// flipped the live §V-D choice and triggered compaction — and the
/// pinned plan makes the *snapshot's* algorithm choice, not the live
/// one.
#[test]
fn prepared_statement_at_an_old_snapshot_survives_drift_and_compaction() {
    let mut db = Database::new();
    db.catalogue()
        .set_compaction_policy(CompactionPolicy::every(4));
    // Low cardinality (100 ≤ 9,765): the monotable division.
    db.register(seed_table(600, 100));
    let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";
    let mut stmt = db.prepare(sql).unwrap();
    let first = stmt.execute(&mut db, &[]).unwrap();
    assert_eq!(first.report.algorithm, Some(Algorithm::Monotable));

    // Park rows in the delta, then take the snapshot so its cut holds a
    // non-empty delta (the store compaction replaces must carry it).
    db.append_rows("events", batch(vec![7, 8], vec![1, 2]))
        .unwrap();
    let snap = db.snapshot();
    assert_eq!(snap.delta_rows("events"), Some(2));

    // Drift the live table across the §V-D division boundary AND trip
    // compaction: the snapshot keeps the delta store it holds.
    let receipt = db
        .append_rows("events", batch(vec![20_000, 3], vec![1, 1]))
        .unwrap();
    assert!(receipt.compacted, "threshold compaction ran");
    let live = stmt.execute(&mut db, &[]).unwrap();
    assert_eq!(
        live.report.algorithm,
        Some(Algorithm::PartiallySortedMonotable),
        "the live choice flipped"
    );
    assert_eq!(live.rows.len(), 101);

    // Executing at the old snapshot plans at the snapshot's
    // statistics: the choice flips *back* and the rows are exactly the
    // pinned cut's.
    let at = stmt.execute_at(&mut db, &snap, &[]).unwrap();
    assert_eq!(at.report.algorithm, Some(Algorithm::Monotable));
    let pinned = match db.run_sql_at(&snap, &format!("EXPLAIN {sql}")).unwrap() {
        SqlOutcome::Plan(plan) => plan,
        other => panic!("EXPLAIN returns a plan: {other:?}"),
    };
    assert_eq!(pinned.data_version(), snap.data_version("events"));

    // Oracle: a fresh plan over a table registered from the snapshot's
    // rows.
    let mut fresh = Database::new();
    fresh.register(snap.table("events").unwrap());
    let oracle = fresh.execute_sql(sql).unwrap();
    assert_eq!(at.rows, oracle.rows);
    let oracle_out = fresh.explain_sql(sql).unwrap();
    let oracle_plan = oracle_out.plan().unwrap();
    assert_eq!(pinned.algorithm(), oracle_plan.algorithm());
    assert_eq!(
        pinned.cardinality_estimate(),
        oracle_plan.cardinality_estimate()
    );

    // And the snapshot is released on drop.
    drop(snap);
    assert_eq!(db.snapshot_stats().live_snapshots, 0);
}

/// The one-read-path check: the live `run_sql` is a snapshot-of-now
/// wrapper — a SELECT that plans moves the snapshot counter, pins
/// nothing afterwards, and agrees with an explicit snapshot taken at
/// the same moment; a fresh plan-cache hit needs no cut at all.
#[test]
fn run_sql_is_a_snapshot_of_now_wrapper() {
    let mut db = Database::new();
    db.register(seed_table(200, 23));
    let taken = db.snapshot_stats().snapshots_taken;
    let live = rows_of(db.run_sql(SQL).unwrap());
    let stats = db.snapshot_stats();
    assert_eq!(
        stats.snapshots_taken,
        taken + 1,
        "the SELECT ran through the snapshot read path"
    );
    assert_eq!(stats.live_snapshots, 0, "and released its cut on return");
    let again = rows_of(db.run_sql(SQL).unwrap());
    assert_eq!(again.rows, live.rows);
    assert_eq!(
        db.snapshot_stats().snapshots_taken,
        taken + 1,
        "a fresh hit is served without a cut"
    );

    let snap = db.snapshot();
    let at = rows_of(db.run_sql_at(&snap, SQL).unwrap());
    assert_eq!(live.rows, at.rows, "same cut, same answer");

    // EXPLAIN (the satellite): the plan records the data version it
    // was produced against, live and pinned.
    let plan = db.explain_sql(SQL).unwrap();
    assert_eq!(plan.plan().unwrap().data_version(), Some(1));
    assert!(plan.explain().contains("data_version=1"));
    db.run_sql("INSERT INTO events (g, v) VALUES (1, 2)")
        .unwrap();
    let drifted = db.explain_sql(SQL).unwrap();
    assert_eq!(drifted.plan().unwrap().data_version(), Some(2));
    assert!(drifted.explain().contains("data_version=2"));
    let pinned = match db.run_sql_at(&snap, &format!("EXPLAIN {SQL}")).unwrap() {
        SqlOutcome::Plan(p) => p,
        other => panic!("EXPLAIN returns a plan: {other:?}"),
    };
    assert!(
        pinned.explain().contains("data_version=1"),
        "snapshot version"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot isolation on a single session: for a random base, a
    /// random split of appended batches and a random compaction
    /// threshold, `run_sql_at(snap)` after the tail of appends equals
    /// the same query run at the moment the snapshot was taken.
    #[test]
    fn snapshot_reads_equal_the_pre_append_answer(
        base_rows in 1usize..60,
        appends in proptest::collection::vec(
            proptest::collection::vec((0u32..50, 0u32..100), 1..8),
            1..8,
        ),
        cut in 0usize..8,
        threshold in 1usize..16,
    ) {
        let cut = cut.min(appends.len());
        let mut db = Database::new();
        db.catalogue().set_compaction_policy(CompactionPolicy::every(threshold));
        db.register(seed_table(base_rows, 13));

        // Head of the append stream lands before the snapshot.
        for rows in &appends[..cut] {
            let (g, v): (Vec<u32>, Vec<u32>) = rows.iter().copied().unzip();
            db.append_rows("events", batch(g, v)).unwrap();
        }
        let snap = db.snapshot();
        let expected = rows_of(db.run_sql(SQL).unwrap());

        // Tail lands after it (drift + possible compactions).
        for rows in &appends[cut..] {
            let (g, v): (Vec<u32>, Vec<u32>) = rows.iter().copied().unzip();
            db.append_rows("events", batch(g, v)).unwrap();
        }

        let at = rows_of(db.run_sql_at(&snap, SQL).unwrap());
        prop_assert_eq!(&at.rows, &expected.rows);
        // Repeatable: asking again changes nothing.
        let again = rows_of(db.run_sql_at(&snap, SQL).unwrap());
        prop_assert_eq!(&again.rows, &expected.rows);
        // And the snapshot's materialised table IS the pre-append table.
        let mut fresh = Database::new();
        fresh.register(snap.table("events").unwrap());
        let oracle = fresh.execute_sql(SQL).unwrap();
        prop_assert_eq!(&oracle.rows, &expected.rows);
    }

    /// The same isolation property on a shared catalogue with the
    /// appends arriving from concurrently running writer threads.
    #[test]
    fn snapshot_reads_are_isolated_from_concurrent_writers(
        appends in proptest::collection::vec(
            proptest::collection::vec((0u32..50, 0u32..100), 1..6),
            2..6,
        ),
        threshold in 1usize..8,
    ) {
        let catalogue = SharedCatalogue::new();
        catalogue.set_compaction_policy(CompactionPolicy::every(threshold));
        catalogue.register(seed_table(40, 13));

        let mut reader = catalogue.connect();
        let snap = Arc::new(catalogue.snapshot());
        let expected = rows_of(reader.run_sql(SQL).unwrap());

        std::thread::scope(|scope| {
            // Writers stream batches into the shared catalogue...
            for rows in &appends {
                let catalogue = catalogue.clone();
                scope.spawn(move || {
                    let (g, v): (Vec<u32>, Vec<u32>) = rows.iter().copied().unzip();
                    catalogue.append("events", batch(g, v)).unwrap();
                });
            }
            // ...while reader sessions on other threads keep answering
            // from the pinned cut.
            for _ in 0..2 {
                let mut session = catalogue.connect();
                let snap = Arc::clone(&snap);
                let expected = expected.rows.clone();
                scope.spawn(move || {
                    for _ in 0..4 {
                        let at = rows_of(session.run_sql_at(&snap, SQL).unwrap());
                        assert_eq!(at.rows, expected, "torn or non-repeatable read");
                    }
                });
            }
        });

        // After the dust settles the snapshot still answers the old cut
        // and the live table holds every appended row.
        let at = rows_of(reader.run_sql_at(&snap, SQL).unwrap());
        prop_assert_eq!(&at.rows, &expected.rows);
        let appended: usize = appends.iter().map(Vec::len).sum();
        prop_assert_eq!(
            catalogue.table("events").unwrap().rows(),
            40 + appended
        );
    }

    /// Cross-shard snapshot isolation: the sharded cut answers the
    /// pre-append merged result while routed ingest mutates the shards.
    #[test]
    fn sharded_snapshot_reads_equal_the_pre_append_answer(
        shards in 1usize..5,
        appends in proptest::collection::vec(
            proptest::collection::vec((0u32..50, 0u32..100), 1..8),
            1..6,
        ),
        threshold in 1usize..8,
    ) {
        let mut sharded = ShardedDatabase::new(shards);
        sharded.register(seed_table(50, 13));
        sharded.set_compaction_policy(CompactionPolicy::every(threshold));

        let snap = sharded.snapshot();
        let expected = sharded.run_sql(SQL).unwrap();
        for rows in &appends {
            let (g, v): (Vec<u32>, Vec<u32>) = rows.iter().copied().unzip();
            sharded.append_rows("events", batch(g, v)).unwrap();
        }
        let at = sharded.run_sql_at(&snap, SQL).unwrap();
        prop_assert_eq!(&at.rows, &expected.rows);
        // The live merged answer equals a single fresh session over the
        // merged rows (the sharded correctness oracle still holds).
        let live = sharded.run_sql(SQL).unwrap();
        let appended: usize = appends.iter().map(Vec::len).sum();
        prop_assert_eq!(live.report.rows_aggregated, 50 + appended);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The snapshot oracle over every kind of write: a seeded stream of
    /// INSERT, DELETE, UPDATE and re-registration under a random
    /// compaction threshold, with snapshots captured at random points
    /// and dropped in random order. After every step each live
    /// snapshot's `run_sql_at` and `table()` equal what was recorded at
    /// its capture, and so does `AS OF data_version N` while N is still
    /// in the version index (no re-registration since, and every
    /// compaction since landed at version N).
    #[test]
    fn snapshots_equal_their_capture_over_every_kind_of_write(
        base_rows in 1usize..40,
        steps in proptest::collection::vec(arb_step(), 1..24),
        threshold in 1usize..16,
    ) {
        let mut db = Database::new();
        db.catalogue().set_compaction_policy(CompactionPolicy::every(threshold));
        db.register(seed_table(base_rows, 13));
        let mut live: Vec<Captured> = Vec::new();
        for step in &steps {
            let before = compactions(&db);
            match step {
                Step::Write(sql) => {
                    db.run_sql(sql).unwrap();
                }
                Step::Reregister(rows) => {
                    db.register(seed_table(*rows, 7));
                    for c in &mut live {
                        c.as_of = false;
                    }
                }
                Step::Capture => {
                    let snap = db.snapshot();
                    let version = snap.data_version("events").unwrap();
                    let answer = answer(db.run_sql(SQL));
                    let table = columns(&db.table("events").unwrap());
                    live.push(Captured { snap, version, answer, table, as_of: true });
                }
                Step::Drop(i) => {
                    if !live.is_empty() {
                        let i = i % live.len();
                        drop(live.remove(i));
                    }
                }
            }
            if compactions(&db) != before {
                let now = db.data_version("events").unwrap();
                for c in &mut live {
                    c.as_of &= c.version == now;
                }
            }
            for c in &live {
                let at = answer(db.run_sql_at(&c.snap, SQL));
                prop_assert_eq!(&at, &c.answer, "run_sql_at after {:?}", step);
                let table = columns(&c.snap.table("events").unwrap());
                prop_assert_eq!(&table, &c.table, "snap.table() after {:?}", step);
                if c.as_of {
                    let sql = SQL.replacen(
                        " GROUP BY",
                        &format!(" AS OF data_version {} GROUP BY", c.version),
                        1,
                    );
                    let back = answer(db.run_sql(&sql));
                    prop_assert_eq!(&back, &c.answer, "AS OF after {:?}", step);
                }
            }
        }
    }
}

/// Stress: concurrent appends + aggressive threshold compaction +
/// long-lived snapshot readers. No torn reads, and every snapshot is
/// released on drop.
#[test]
fn concurrent_ingest_compaction_and_snapshot_readers() {
    let catalogue = SharedCatalogue::new();
    catalogue.set_compaction_policy(CompactionPolicy::every(32));
    catalogue.register(seed_table(256, 23));

    const WRITER_BATCHES: usize = 40;
    const BATCH_ROWS: usize = 7;
    std::thread::scope(|scope| {
        let writer = {
            let catalogue = catalogue.clone();
            scope.spawn(move || {
                for i in 0..WRITER_BATCHES {
                    let g: Vec<u32> = (0..BATCH_ROWS)
                        .map(|j| ((i * 31 + j) % 23) as u32)
                        .collect();
                    let v: Vec<u32> = (0..BATCH_ROWS).map(|j| ((i + j) % 10) as u32).collect();
                    catalogue.append("events", batch(g, v)).unwrap();
                }
            })
        };
        for _ in 0..3 {
            let catalogue = catalogue.clone();
            scope.spawn(move || {
                let mut session = catalogue.connect();
                for _ in 0..12 {
                    // Long-lived snapshot: hold it across several
                    // queries while the writer keeps appending and
                    // compacting underneath.
                    let snap = catalogue.snapshot();
                    let pinned_rows = snap.table_stats("events").unwrap().rows();
                    let first = rows_of(session.run_sql_at(&snap, SQL).unwrap());
                    let count: f64 = first.rows.iter().map(|r| r.values[0]).sum();
                    assert_eq!(count as usize, pinned_rows, "torn snapshot read");
                    let second = rows_of(session.run_sql_at(&snap, SQL).unwrap());
                    assert_eq!(first.rows, second.rows, "non-repeatable read");
                    drop(snap);
                }
            });
        }
        writer.join().unwrap();
    });

    // Every snapshot released; the final content equals the full
    // stream loaded in one shot.
    assert_eq!(catalogue.snapshot_stats().live_snapshots, 0);
    assert_eq!(
        catalogue.table("events").unwrap().rows(),
        256 + WRITER_BATCHES * BATCH_ROWS
    );
}

/// A long-lived `BEGIN READ ONLY` transaction sees one consistent
/// database across statements while another session ingests, and the
/// commit releases the pinned snapshot.
#[test]
fn read_only_transactions_survive_heavy_concurrent_ingest() {
    let catalogue = SharedCatalogue::new();
    catalogue.register(seed_table(300, 23));
    let mut reporter = catalogue.connect();
    let mut writer = catalogue.connect();

    reporter.run_sql("BEGIN READ ONLY").unwrap();
    let totals = rows_of(reporter.run_sql(SQL).unwrap());
    for i in 0..10u32 {
        writer
            .run_sql(&format!(
                "INSERT INTO events (g, v) VALUES ({}, {})",
                i % 23,
                i
            ))
            .unwrap();
        // Every statement of the open transaction reads the same cut.
        let again = rows_of(reporter.run_sql(SQL).unwrap());
        assert_eq!(totals.rows, again.rows, "repeatable read across statements");
    }
    reporter.run_sql("COMMIT").unwrap();
    assert_eq!(catalogue.snapshot_stats().live_snapshots, 0);
    let after = rows_of(reporter.run_sql(SQL).unwrap());
    let count: f64 = after.rows.iter().map(|r| r.values[0]).sum();
    assert_eq!(count as usize, 310, "live again after COMMIT");
}
