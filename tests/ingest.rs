//! Integration tests for the write path: INSERT/append through delta
//! stores, live statistics, plan-cache reconciliation, and the §V-D
//! re-planning loop a statistics drift finally exercises end to end.

use vagg::core::Algorithm;
use vagg::datagen::{DatasetSpec, Distribution};
use vagg::db::{CompactionPolicy, Database, RowBatch, ShardedDatabase, SqlOutcome, Table};

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

/// Registers the logical content of `db`'s table under a fresh
/// database — the "as if it had been loaded in one shot" oracle.
fn fresh_merged(db: &Database, table: &str) -> Database {
    let mut fresh = Database::new();
    fresh.register(db.table(table).expect("table registered"));
    fresh
}

/// The acceptance scenario: a prepared statement planned with one §V-D
/// algorithm choice; an ingest drifts the statistics past the policy
/// threshold; the statement's next execution observably misses its cache
/// entry and re-plans to the new choice, and its answers equal a fresh
/// plan over the merged table.
#[test]
fn prepared_statement_replans_on_statistics_drift() {
    let mut db = Database::new();
    // Unsorted, low cardinality (100 ≤ 9,765): monotable division.
    db.register(seed_table(600, 100));
    let sql = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > ? GROUP BY g";
    let mut stmt = db.prepare(sql).unwrap();

    let before = stmt.execute(&mut db, &[2]).unwrap();
    assert!(before.report.describe().contains("Aggregate[mono]"));
    assert_eq!(before.report.algorithm, Some(Algorithm::Monotable));
    let s = db.plan_cache_stats();
    assert_eq!(
        (s.misses, s.invalidations),
        (1, 0),
        "planned once, at prepare"
    );

    // Ingest a batch whose keys cross the §V-D division boundary
    // (9,765): the table flips from low- to high-cardinality.
    let appended: Vec<u32> = (0..50).map(|i| 10_000 + i * 137).collect();
    db.append_rows(
        "events",
        RowBatch::new()
            .with_column("g", appended.clone())
            .with_column("v", (0..50u32).map(|i| i % 10).collect()),
    )
    .unwrap();

    let after = stmt.execute(&mut db, &[2]).unwrap();
    let s = db.plan_cache_stats();
    assert_eq!(
        (s.misses, s.invalidations),
        (2, 0),
        "the write forced a re-plan"
    );
    assert!(after.report.describe().contains("Aggregate[psm]"));
    assert_eq!(
        after.report.algorithm,
        Some(Algorithm::PartiallySortedMonotable),
        "the §V-D choice moved with the statistics"
    );

    // Results are exactly a fresh plan over the merged table.
    let mut oracle = fresh_merged(&db, "events");
    let mut oracle_stmt = oracle.prepare(sql).unwrap();
    let expect = oracle_stmt.execute(&mut oracle, &[2]).unwrap();
    assert_eq!(
        expect.report.algorithm,
        Some(Algorithm::PartiallySortedMonotable),
        "oracle agrees the merged statistics demand PSM"
    );
    assert_eq!(after.rows, expect.rows);

    // Steady state resumes: no further re-plans without further writes.
    stmt.execute(&mut db, &[5]).unwrap();
    let s = db.plan_cache_stats();
    assert_eq!((s.misses, s.invalidations), (2, 0));
}

/// The plan-cache lifecycle under ingest: miss → hit → append → miss +
/// fresh plan → hit → drifting append → miss + fresh plan → hit. An entry
/// serves only the data version it was planned at; a write never purges.
#[test]
fn plan_cache_replans_once_per_write_under_ingest() {
    let mut db = Database::new();
    db.register(seed_table(400, 60));
    let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";

    db.execute_sql(sql).unwrap(); // miss: first plan
    db.execute_sql(sql).unwrap(); // hit
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 0));

    // Low-drift append: the next read re-plans at the new data version.
    db.run_sql("INSERT INTO events (g, v) VALUES (3, 1), (4, 2)")
        .unwrap();
    db.execute_sql(sql).unwrap(); // miss: the entry is a version behind
    db.execute_sql(sql).unwrap(); // hit on the replacement
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (2, 2, 0));

    // High-drift append: the same, and the fresh plan flips §V-D.
    db.run_sql("INSERT INTO events (g, v) VALUES (20000, 1)")
        .unwrap();
    let out = db.execute_sql(sql).unwrap(); // miss
    assert_eq!(
        out.report.algorithm,
        Some(Algorithm::PartiallySortedMonotable)
    );
    db.execute_sql(sql).unwrap(); // hit on the fresh entry
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (3, 3, 0));
}

/// Query answers over base ++ delta equal answers over the same rows
/// registered in one shot, across a compaction boundary.
#[test]
fn queries_over_delta_match_a_fresh_one_shot_registration() {
    let sqls = [
        "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM events GROUP BY g",
        "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > 4 GROUP BY g \
         HAVING SUM(v) > 9 ORDER BY SUM(v) DESC LIMIT 5",
    ];
    let mut db = Database::new();
    db.catalogue()
        .set_compaction_policy(CompactionPolicy::every(64));
    db.register(seed_table(300, 40));
    let mut compactions = 0;
    for round in 0..6usize {
        let n = 20 + round * 7;
        let g: Vec<u32> = (0..n).map(|i| ((i * 31 + round) % 55) as u32).collect();
        let v: Vec<u32> = (0..n).map(|i| ((i + round) % 10) as u32).collect();
        let receipt = db
            .append_rows(
                "events",
                RowBatch::new().with_column("g", g).with_column("v", v),
            )
            .unwrap();
        compactions += receipt.compacted as usize;
        let mut oracle = fresh_merged(&db, "events");
        for sql in sqls {
            let got = db.execute_sql(sql).unwrap();
            let expect = oracle.execute_sql(sql).unwrap();
            assert_eq!(got.rows, expect.rows, "round {round}: {sql}");
        }
    }
    assert!(compactions >= 1, "the workload crossed a compaction");
}

/// The same equivalence holds when ingest is routed across shards.
#[test]
fn sharded_queries_over_routed_ingest_match_a_single_session() {
    let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events \
               WHERE v <> 0 GROUP BY g";
    let mut sharded = ShardedDatabase::new(3);
    sharded.set_compaction_policy(CompactionPolicy::every(32));
    sharded.register(seed_table(200, 30));
    let mut single = Database::new();
    single.register(seed_table(200, 30));

    for round in 0..5usize {
        let n = 10 + round * 13;
        let g: Vec<u32> = (0..n).map(|i| ((i * 13 + round) % 45) as u32).collect();
        let v: Vec<u32> = (0..n).map(|i| ((i * 3 + round) % 10) as u32).collect();
        let batch = || {
            RowBatch::new()
                .with_column("g", g.clone())
                .with_column("v", v.clone())
        };
        sharded.append_rows("events", batch()).unwrap();
        single.append_rows("events", batch()).unwrap();
        let got = sharded.run_sql(sql).unwrap();
        let expect = single.execute_sql(sql).unwrap();
        assert_eq!(got.rows, expect.rows, "round {round}");
    }
}

/// A drifting ingest stream from the datagen side: batches ramp from
/// low to high cardinality, and both the plan cache and a prepared
/// statement follow the drift while answering exactly like a one-shot
/// load of the same rows.
#[test]
fn streaming_ingest_with_cardinality_drift_replans_mid_stream() {
    let mut db = Database::new();
    let first_batches: Vec<vagg::datagen::Batch> = DatasetSpec::paper(Distribution::Uniform, 50)
        .stream(128)
        .with_cardinality_drift(30_000, 6)
        .take(6)
        .collect();

    db.register(
        Table::new("events")
            .with_column("g", first_batches[0].g.clone())
            .with_column("v", first_batches[0].v.clone()),
    );
    let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";
    let mut stmt = db.prepare(sql).unwrap();
    let first = stmt.execute(&mut db, &[]).unwrap();
    assert_eq!(first.report.algorithm, Some(Algorithm::Monotable));

    let mut last = first;
    for batch in &first_batches[1..] {
        db.append_rows(
            "events",
            RowBatch::new()
                .with_column("g", batch.g.clone())
                .with_column("v", batch.v.clone()),
        )
        .unwrap();
        last = stmt.execute(&mut db, &[]).unwrap();
        let expect = fresh_merged(&db, "events").execute_sql(sql).unwrap();
        assert_eq!(last.rows, expect.rows, "batch {}", batch.index);
    }
    assert_eq!(
        last.report.algorithm,
        Some(Algorithm::PartiallySortedMonotable),
        "the drifted stream flipped the §V-D choice"
    );
    let s = db.plan_cache_stats();
    assert_eq!(
        (s.hits, s.misses, s.invalidations),
        (1, 6, 0),
        "planned at prepare, then once per appended batch; nothing purged"
    );
}

/// INSERT through `run_sql` reports a receipt and the write is
/// immediately visible to every session of the catalogue.
#[test]
fn insert_sql_is_visible_across_sessions() {
    let mut alice = Database::new();
    alice.register(seed_table(50, 10));
    let mut bob = alice.catalogue().connect();

    match alice
        .run_sql("INSERT INTO events (g, v) VALUES (100, 1), (100, 2)")
        .unwrap()
    {
        SqlOutcome::Inserted(receipt) => {
            assert_eq!(receipt.rows, 2);
            assert!(!receipt.compacted);
        }
        other => panic!("INSERT must report a receipt: {other:?}"),
    }
    let out = bob
        .execute_sql("SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g")
        .unwrap();
    let g100 = out.rows.iter().find(|r| r.group == 100).unwrap();
    assert_eq!(g100.values, vec![2.0, 3.0]);
}
