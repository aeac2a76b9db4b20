//! Snapshot reads: point-in-time views that never block the writer.
//!
//! The MVCC demo: a reporting session takes a consistent snapshot of an
//! events table (and later a whole `BEGIN READ ONLY` transaction)
//! while a writer streams batches in, drifts the §V-D statistics past
//! the division boundary and trips threshold compactions. Every read
//! at the snapshot keeps answering its captured cut — same rows, same
//! algorithm choice — while live reads follow the drift; a fresh
//! database registered from the snapshot's rows is the correctness
//! oracle. Live and captured snapshot counts are printed from
//! [`vagg::db::SnapshotStats`] along the way.
//!
//! ```text
//! cargo run --release --example snapshot_reads
//! ```

use vagg::datagen::{DatasetSpec, Distribution};
use vagg::db::{CompactionPolicy, Database, RowBatch, Snapshot, SqlOutcome, Table};

const SQL: &str = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";

fn rows(db: &mut Database, sql: &str) -> usize {
    match db.run_sql(sql).expect("query runs") {
        SqlOutcome::Rows(out) => out.rows.len(),
        other => unreachable!("SELECT returns rows: {other:?}"),
    }
}

fn main() {
    // Low cardinality to start: the §V-D policy picks monotable.
    let ds = DatasetSpec::paper(Distribution::Uniform, 60)
        .with_rows(2_048)
        .generate();
    let mut db = Database::new();
    db.catalogue()
        .set_compaction_policy(CompactionPolicy::every(1_024));
    db.register(
        Table::new("events")
            .with_column("g", ds.g.clone())
            .with_column("v", ds.v.clone()),
    );

    let mut stmt = db.prepare(SQL).expect("statement prepares");
    stmt.execute(&mut db, &[]).expect("executes");
    println!("live plan before drift : {}", planned(&mut db, None));

    // A drifting source: cardinality ramps past the §V-D division
    // boundary (9,765) while the compaction threshold trips.
    let mut stream = DatasetSpec::paper(Distribution::Uniform, 60)
        .stream(512)
        .with_cardinality_drift(40_000, 6);
    let append = |db: &mut Database, g: Vec<u32>, v: Vec<u32>| {
        let rows = RowBatch::new().with_column("g", g).with_column("v", v);
        db.append_rows("events", rows).expect("appends")
    };

    // One batch lands in the delta, then the report captures its view
    // of the world: the snapshot's cut holds the base and the delta.
    let first = stream.next().expect("the stream is infinite");
    append(&mut db, first.g, first.v);
    let snap = db.snapshot();
    println!(
        "snapshot taken         : data_version={} rows={} (delta rows={})",
        snap.data_version("events").unwrap(),
        snap.table_stats("events").unwrap().rows(),
        snap.delta_rows("events").unwrap()
    );

    let mut compactions = 0;
    for batch in stream.by_ref().take(5) {
        let receipt = append(&mut db, batch.g, batch.v);
        compactions += usize::from(receipt.compacted);
    }
    println!(
        "writer streamed        : 5 more batches, {compactions} compaction(s), live rows={}",
        db.table("events").unwrap().rows()
    );

    // Live reads follow the drift; the snapshot does not.
    stmt.execute(&mut db, &[]).expect("executes");
    println!("live plan after drift  : {}", planned(&mut db, None));
    let at = stmt.execute_at(&mut db, &snap, &[]).expect("executes at");
    println!("snapshot plan          : {}", planned(&mut db, Some(&snap)));

    // Oracle: the snapshot answer equals a fresh one-shot database
    // over the snapshot's rows.
    let mut fresh = Database::new();
    fresh.register(snap.table("events").unwrap());
    let oracle = fresh.execute_sql(SQL).expect("oracle runs");
    assert_eq!(at.rows, oracle.rows, "snapshot read equals its oracle");
    println!(
        "snapshot read          : {} groups (oracle agrees)",
        at.rows.len()
    );

    // The snapshot holds the delta store compaction replaced, by
    // `Arc`; dropping it frees the store.
    let stats = db.snapshot_stats();
    println!(
        "snapshots              : live={} taken={}",
        stats.live_snapshots, stats.snapshots_taken
    );
    drop(snap);
    let stats = db.snapshot_stats();
    assert_eq!(stats.live_snapshots, 0, "released on drop");
    println!(
        "after drop             : live={} taken={}",
        stats.live_snapshots, stats.snapshots_taken
    );

    // The same machinery through SQL: BEGIN READ ONLY holds one
    // snapshot for the session, concurrent ingest stays invisible until COMMIT.
    let mut writer = db.catalogue().connect();
    db.run_sql("BEGIN READ ONLY").expect("begins");
    let in_txn_before = rows(&mut db, SQL);
    writer
        .run_sql("INSERT INTO events (g, v) VALUES (50000, 1), (50001, 2)")
        .expect("writer inserts");
    let in_txn_after = rows(&mut db, SQL);
    assert_eq!(
        in_txn_before, in_txn_after,
        "repeatable read inside the txn"
    );
    db.run_sql("COMMIT").expect("commits");
    let live = rows(&mut db, SQL);
    assert_eq!(live, in_txn_before + 2, "COMMIT returns to the live view");
    println!("read-only txn          : {in_txn_before} groups across the txn, {live} after COMMIT");
    println!("\nsnapshot reads never blocked the writer — and never saw it.");
}

/// The planner-facts line of `EXPLAIN SQL`, live or at `snap`.
fn planned(db: &mut Database, snap: Option<&Snapshot>) -> String {
    let explain = format!("EXPLAIN {SQL}");
    let plan = match snap {
        Some(snap) => db.run_sql_at(snap, &explain),
        None => db.run_sql(&explain),
    };
    match plan.expect("plans") {
        SqlOutcome::Plan(plan) => {
            let text = plan.explain();
            text.lines().nth(1).unwrap_or_default().trim().to_string()
        }
        other => unreachable!("EXPLAIN returns a plan: {other:?}"),
    }
}
