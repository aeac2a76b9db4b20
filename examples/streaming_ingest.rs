//! Streaming ingest: prepare once, ingest continuously, watch the
//! §V-D choice follow the statistics.
//!
//! The write-path demo: an events table starts low-cardinality (the
//! adaptive policy picks monotable), a deterministic batch stream
//! ([`vagg::datagen::BatchStream`]) ramps the key domain past the
//! §V-D division boundary, and a statement prepared *once* keeps
//! serving while the statistics drift underneath it. Every execution
//! plans through the shared plan cache, whose entries serve only the
//! data version they were planned at: the first execution after each
//! batch re-plans against the new statistics (`CacheStats::misses`),
//! and once the batches cross the boundary the executed steps flip
//! from `Aggregate[mono]` to `Aggregate[psm]`. A fresh one-shot
//! database over the merged rows is the correctness oracle at every
//! step, and a round-robin-sharded database ingests the same stream to
//! show the routed write path agrees.
//!
//! ```text
//! cargo run --release --example streaming_ingest
//! ```

use vagg::datagen::{DatasetSpec, Distribution};
use vagg::db::{CompactionPolicy, Database, QueryOutput, RowBatch, ShardedDatabase, Table};

fn main() {
    // A drifting source: 512-row batches, cardinality ramping from 60
    // to 40,000 across eight batches.
    let mut stream = DatasetSpec::paper(Distribution::Uniform, 60)
        .stream(512)
        .with_cardinality_drift(40_000, 8);
    let first = stream.next().expect("the stream is infinite");
    let seed = Table::new("events")
        .with_column("g", first.g.clone())
        .with_column("v", first.v.clone());

    let mut db = Database::new();
    db.catalogue()
        .set_compaction_policy(CompactionPolicy::every(1024));
    db.register(seed.clone());

    let mut sharded = ShardedDatabase::new(4);
    sharded.set_compaction_policy(CompactionPolicy::every(256));
    sharded.register(seed);

    let sql = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > ? GROUP BY g";
    let mut stmt = db.prepare(sql).expect("statement prepares");
    println!("prepared [{sql}]");
    let mut out = stmt.execute(&mut db, &[3]).expect("prepared execution");
    assert!(
        out.report.describe().contains("Aggregate[mono]"),
        "the low-cardinality seed runs monotable"
    );
    let mut flips = 0;
    println!(
        "batch 0: cardinality≈{:5} | {}\n",
        first.cardinality,
        algorithm_of(&out)
    );

    for batch in stream.take(7) {
        let rows = RowBatch::new()
            .with_column("g", batch.g.clone())
            .with_column("v", batch.v.clone());
        let receipt = db
            .append_rows("events", rows.clone())
            .expect("single-session ingest");
        sharded.append_rows("events", rows).expect("sharded ingest");

        let before = algorithm_of(&out);
        out = stmt.execute(&mut db, &[3]).expect("prepared execution");
        flips += usize::from(algorithm_of(&out) != before);

        // Oracle: the same rows registered in one shot.
        let mut oracle = Database::new();
        oracle.register(db.table("events").expect("registered"));
        let expect = oracle
            .execute_sql(&sql.replace('?', "3"))
            .expect("oracle execution");
        assert_eq!(out.rows, expect.rows, "ingested ≡ one-shot load");

        let merged = sharded
            .run_sql(&sql.replace('?', "3"))
            .expect("sharded execution");
        assert_eq!(merged.rows, expect.rows, "routed ingest ≡ one-shot load");

        let view = db.table("events").expect("registered");
        let max = view.meta("g").expect("g column").max;
        let stats = db.table_stats("events").expect("live statistics");
        let g = stats.column("g").expect("g column");
        println!(
            "batch {}: +{} rows (delta {:4}{}) | max {:5} distinct≈{:5} | {}",
            batch.index,
            receipt.rows,
            receipt.delta_rows,
            if receipt.compacted { ", compacted" } else { "" },
            max.unwrap_or(0),
            g.distinct_estimate(),
            algorithm_of(&out),
        );
    }

    let s = db.plan_cache_stats();
    println!(
        "\nexecutions: {} | plan cache: {} hit(s), {} miss(es) (prepare, \
         then one re-plan per batch) | {} §V-D flip(s) in the executed steps",
        stmt.executions(),
        s.hits,
        s.misses,
        flips
    );
    assert_eq!(s.misses, 1 + 7, "planned at prepare and after every batch");
    assert_eq!(flips, 1, "exactly one threshold crossing");
    assert!(
        out.report.describe().contains("Aggregate[psm]"),
        "the final execution shows the flipped choice"
    );
}

fn algorithm_of(out: &QueryOutput) -> &'static str {
    out.report.algorithm.map_or("none", |a| a.name())
}
