//! Morsel-driven sharded execution, end to end.
//!
//! Two families of guarantees:
//!
//! * **Composite `GROUP BY` shards correctly.** Property tests check
//!   that `SELECT a, b, ... GROUP BY a, b` on a [`ShardedDatabase`] —
//!   every morsel fusing its keys with the plan's global key domains,
//!   so the partials merge directly — matches a single session bit
//!   for bit, including `HAVING`/`ORDER BY`/`LIMIT` tails,
//!   across delta compaction boundaries, over the prepared path, and
//!   at pinned snapshots.
//! * **Work stealing changes the makespan, never the answer.** A
//!   Zipf-skewed partition (`vagg::datagen::zipf`) is stressed with
//!   stealing on and off: results must be identical to each other and
//!   to a single session, and the steal schedule must shorten the
//!   simulated makespan that whole-shard scheduling pays.

use proptest::prelude::*;
use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::datagen::zipf::Zipf;
use vagg::db::{
    CompactionPolicy, Database, Engine, ExecutorConfig, RowBatch, ShardedDatabase, Table,
};

/// Deterministic pseudo-random columns for the proptest cases.
fn columns(n: usize, da: u32, db: u32, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let a = (0..n).map(|_| rng.next_below(da as u64) as u32).collect();
    let b = (0..n).map(|_| rng.next_below(db as u64) as u32).collect();
    let v = (0..n).map(|_| rng.next_below(100) as u32).collect();
    (a, b, v)
}

fn two_key_table(a: &[u32], b: &[u32], v: &[u32]) -> Table {
    Table::new("t")
        .with_column("a", a.to_vec())
        .with_column("b", b.to_vec())
        .with_column("v", v.to_vec())
}

proptest! {
    #[test]
    fn sharded_composite_group_by_matches_a_single_session(
        n in 1usize..200,
        da in 1u32..12,
        db in 1u32..12,
        shards in 1usize..6,
        tail in 0usize..4,
        threshold in 0u32..100,
        seed in 0u64..1000,
    ) {
        let (a, b, v) = columns(n, da, db, seed);
        let tail_sql = match tail {
            0 => String::new(),
            1 => format!(" HAVING SUM(v) > {threshold}"),
            2 => format!(" ORDER BY SUM(v) DESC LIMIT {}", 1 + threshold as usize % 9),
            _ => format!(
                " HAVING COUNT(*) > 1 ORDER BY a LIMIT {}",
                1 + threshold as usize % 9
            ),
        };
        let sql = format!(
            "SELECT a, b, COUNT(*), SUM(v), MIN(v) FROM t \
             WHERE v < {} GROUP BY a, b{tail_sql}",
            threshold.max(1)
        );

        let mut single = Database::new();
        single.register(two_key_table(&a, &b, &v));
        let mut sharded = ShardedDatabase::new(shards);
        sharded.register(two_key_table(&a, &b, &v));

        let expect = single.execute_sql(&sql).unwrap();
        let got = sharded.run_sql(&sql).unwrap();
        prop_assert_eq!(&got.rows, &expect.rows, "{} shards: {}", shards, sql);
    }

    #[test]
    fn sharded_composite_group_by_survives_ingest_compaction_and_snapshots(
        n in 1usize..120,
        batch_rows in 1usize..40,
        compact_every in 1usize..30,
        shards in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (a, b, v) = columns(n, 7, 9, seed);
        let sql = "SELECT a, b, COUNT(*), SUM(v) FROM t WHERE v <> 3 GROUP BY a, b";

        let mut single = Database::new();
        single
            .catalogue()
            .set_compaction_policy(CompactionPolicy::every(compact_every));
        single.register(two_key_table(&a, &b, &v));
        let mut sharded = ShardedDatabase::new(shards);
        sharded.set_compaction_policy(CompactionPolicy::every(compact_every));
        sharded.register(two_key_table(&a, &b, &v));

        // Pin a cross-shard cut, remember its answer.
        let snap = sharded.snapshot();
        let pinned = sharded.run_sql(sql).unwrap();

        // Stream a batch through both write paths (possibly tripping
        // per-shard compactions), then compare live and pinned reads.
        let (ba, bb, bv) = columns(batch_rows, 9, 11, seed ^ 0xDEAD);
        let batch = || {
            RowBatch::new()
                .with_column("a", ba.clone())
                .with_column("b", bb.clone())
                .with_column("v", bv.clone())
        };
        single.append_rows("t", batch()).unwrap();
        sharded.append_rows("t", batch()).unwrap();

        let expect = single.execute_sql(sql).unwrap();
        let live = sharded.run_sql(sql).unwrap();
        prop_assert_eq!(&live.rows, &expect.rows, "live after ingest");
        let at = sharded.run_sql_at(&snap, sql).unwrap();
        prop_assert_eq!(&at.rows, &pinned.rows, "pinned cut unchanged");

        // The prepared path binds into the same executor pipeline.
        let mut stmt = sharded
            .prepare("SELECT a, b, COUNT(*), SUM(v) FROM t WHERE v < ? GROUP BY a, b")
            .unwrap();
        let mut fresh = single
            .prepare("SELECT a, b, COUNT(*), SUM(v) FROM t WHERE v < ? GROUP BY a, b")
            .unwrap();
        for param in [5u64, 60, 100] {
            let got = sharded.execute_prepared(&mut stmt, &[param]).unwrap();
            let expect = fresh.execute(&mut single, &[param]).unwrap();
            prop_assert_eq!(&got.rows, &expect.rows, "prepared, v < {}", param);
        }
    }
}

/// A Zipf-keyed table of `n` rows (the paper's skewed key family).
fn zipf_table(n: usize, domain: u64, seed: u64) -> Table {
    let zipf = Zipf::new(domain, 1.0);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Table::new("events")
        .with_column("g", (0..n).map(|_| zipf.sample(&mut rng) as u32).collect())
        .with_column("v", (0..n).map(|_| rng.next_below(1000) as u32).collect())
}

/// Splits a table's rows at the given fractions (percent numerators
/// over 100) into one partition per fraction.
fn split_at(table: &Table, percents: &[usize]) -> Vec<Table> {
    assert_eq!(percents.iter().sum::<usize>(), 100);
    let n = table.rows();
    let mut parts = Vec::new();
    let mut lo = 0;
    for (i, pct) in percents.iter().enumerate() {
        let hi = if i + 1 == percents.len() {
            n
        } else {
            lo + n * pct / 100
        };
        let mut part = Table::new(table.name());
        for col in table.column_names() {
            part = part.with_column(col, table.column(col).unwrap()[lo..hi].to_vec());
        }
        parts.push(part);
        lo = hi;
    }
    parts
}

#[test]
fn zipf_skewed_partitions_steal_without_changing_results() {
    let sql = "SELECT g, COUNT(*), SUM(v), MAX(v) FROM events \
               WHERE v > 17 GROUP BY g HAVING COUNT(*) > 1 \
               ORDER BY SUM(v) DESC LIMIT 40";
    let table = zipf_table(4000, 500, 0x5EED);

    let mut single = Database::new();
    single.register(table.clone());
    let expect = single.execute_sql(sql).unwrap();
    assert!(!expect.rows.is_empty());

    // One pathologically hot shard, three thin ones.
    let mut makespans = Vec::new();
    for steal in [false, true] {
        let mut sharded = ShardedDatabase::with_executor(
            Engine::new(),
            4,
            ExecutorConfig {
                workers: 4,
                morsel_rows: 64,
                steal,
                ..ExecutorConfig::default()
            },
        );
        sharded.register_partitioned(split_at(&table, &[76, 12, 6, 6]));
        // Warm the pool once, then measure the steady state.
        sharded.run_sql(sql).unwrap();
        let out = sharded.run_sql(sql).unwrap();
        assert_eq!(out.rows, expect.rows, "steal={steal} matches single");
        assert_eq!(out.worker_loads.len(), 4);
        assert_eq!(
            *out.worker_loads.iter().max().unwrap(),
            out.report.cycles,
            "makespan is the busiest worker"
        );
        if steal {
            assert!(out.steals > 0, "idle workers dismantled the hot shard");
        } else {
            assert_eq!(out.steals, 0, "no stealing when disabled");
        }
        makespans.push(out.report.cycles);
    }
    assert!(
        makespans[1] < makespans[0],
        "stealing shortened the skewed makespan: steal={} vs no-steal={}",
        makespans[1],
        makespans[0]
    );

    // Ingest keeps routing to the smallest shard even from a skewed
    // start: new batches pile onto the thin shards, not the hot one.
    let mut sharded = ShardedDatabase::new(4);
    sharded.register_partitioned(split_at(&table, &[76, 12, 6, 6]));
    let before: Vec<usize> = sharded
        .shards()
        .iter()
        .map(|s| s.table("events").unwrap().rows())
        .collect();
    for chunk in 0..10 {
        let batch = zipf_table(120, 500, 0xBEEF ^ chunk);
        sharded
            .append_rows(
                "events",
                RowBatch::new()
                    .with_column("g", batch.column("g").unwrap().to_vec())
                    .with_column("v", batch.column("v").unwrap().to_vec()),
            )
            .unwrap();
    }
    let after: Vec<usize> = sharded
        .shards()
        .iter()
        .map(|s| s.table("events").unwrap().rows())
        .collect();
    assert_eq!(after[0], before[0], "the hot shard took no new rows");
    assert!(
        after.iter().skip(1).all(|&rows| rows > before[1]),
        "the thin shards absorbed the stream: {before:?} -> {after:?}"
    );
}
