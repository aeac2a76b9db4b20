//! Prepared pipeline: prepare once, execute many, over a sharded
//! database.
//!
//! The serving-layer demo: an events table is partitioned across four
//! shards ([`vagg::db::ShardedDatabase`]; a shard is a catalogue over
//! its row partition), a parameterised statement is prepared once
//! (`WHERE v < ?` — parsed once), and then executed for a sweep of
//! thresholds. Every execution binds the parameter and each shard
//! serves the bound query from its plan cache (every bind of the
//! template is one entry), the distributive COUNT/SUM/MIN/MAX slice
//! runs as morsels on the worker pool's machines in parallel threads,
//! and the partial aggregates merge on the coordinator. A
//! single-session database runs the same SQL as the correctness oracle.
//! Each shard's catalogue (`ShardedDatabase::shards`) shows that the
//! statistics pass ran once per shard, and the metrics that every
//! execution was recorded as a query.
//!
//! ```text
//! cargo run --release --example prepared_pipeline
//! ```

use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::db::{Database, ShardedDatabase, Table};

fn main() {
    // An events table: 20k rows, 64 groups, values in 0..500.
    let n = 20_000usize;
    let mut rng = Xoshiro256StarStar::seed_from_u64(42);
    let g: Vec<u32> = (0..n).map(|_| rng.next_below(64) as u32).collect();
    let v: Vec<u32> = (0..n).map(|_| rng.next_below(500) as u32).collect();
    let events = Table::new("events").with_column("g", g).with_column("v", v);

    // Four shards over contiguous row partitions.
    let mut sharded = ShardedDatabase::new(4);
    sharded.register(events.clone());

    // A single session as the oracle.
    let mut single = Database::new();
    single.register(events);

    // Prepare once: parsed one time, planned on every shard to validate.
    let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events \
               WHERE v < ? GROUP BY g";
    let mut stmt = sharded.prepare(sql).expect("statement prepares");
    println!(
        "prepared [{}] with {} parameter slot(s)\n",
        sql,
        stmt.parameter_count()
    );

    // Execute many: one bind per threshold, no re-parsing or re-planning.
    for threshold in [50u64, 125, 250, 499] {
        let out = sharded
            .execute_prepared(&mut stmt, &[threshold])
            .expect("sharded execution");

        let oracle = single
            .execute_sql(&sql.replace('?', &threshold.to_string()))
            .expect("single-session execution");
        assert_eq!(out.rows, oracle.rows, "sharded ≡ single-session");

        let slowest = out.report.cycles;
        let busiest = out
            .shard_reports
            .iter()
            .map(|r| r.rows_aggregated)
            .max()
            .unwrap_or(0);
        println!(
            "v < {threshold:3}: {:2} groups over {:5} rows | makespan {slowest:7} cycles \
             (busiest shard {busiest:5} rows) | single-session {:7} cycles",
            out.rows.len(),
            out.report.rows_aggregated,
            oracle.report.cycles,
        );
    }

    let shard_misses: Vec<u64> = sharded
        .shards()
        .iter()
        .map(|s| s.cache_stats().misses)
        .collect();
    println!(
        "\nexecutions: {} | plan-cache misses per shard: {shard_misses:?} \
         (planned once, bound per execution)",
        stmt.executions(),
    );
    let stats = single.plan_cache_stats();
    println!(
        "single-session plan cache: {} hit(s), {} miss(es) — every `v < k` \
         literal shares one cached shape",
        stats.hits, stats.misses
    );
    let queries = sharded.metrics().get("queries").unwrap_or(0);
    println!("sharded queries recorded: {queries} (one per execution)");
    assert!(shard_misses.iter().all(|&m| m == 1));
    assert_eq!(stats.misses, 1);
    assert_eq!(queries, stmt.executions());
}
