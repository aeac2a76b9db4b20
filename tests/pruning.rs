//! Zone-map morsel pruning is result-invariant, everywhere.
//!
//! Pruning skips morsels whose per-column (min, max) zone maps prove
//! the `WHERE` predicate can match no row. A pruned morsel is exactly
//! one the vector filter would have emptied, so it contributes the
//! same empty partial — the answer must be identical bit for bit with
//! pruning on or off, on every read path:
//!
//! * single-session morselized execution ([`Database`], always prunes)
//! * sharded execution ([`ShardedDatabase`]) with `prune` on and off
//! * pinned snapshots and `AS OF` reads
//! * the prepared-statement path
//! * equi-joins
//! * across delta compaction (zones are rebuilt when batches fold in)
//!
//! A deterministic companion test pins down that pruning actually
//! fires on clustered data (the counters move) while the answer stays
//! put.

use proptest::prelude::*;
use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::db::{
    CompactionPolicy, Database, Engine, ExecutorConfig, RowBatch, ShardedDatabase, Table,
};

/// A table whose `v` column is clustered by row position — the shape
/// zone maps thrive on: disjoint per-batch value ranges mean selective
/// predicates exclude whole morsels.
fn clustered(n: usize, stride: u32, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(3));
    let g = (0..n).map(|_| rng.next_below(8) as u32).collect();
    // v climbs with the row index plus a little jitter, so early rows
    // hold small values and late rows large ones.
    let v = (0..n)
        .map(|i| (i as u32 / stride.max(1)) * 10 + rng.next_below(10) as u32)
        .collect();
    (g, v)
}

fn table(g: &[u32], v: &[u32]) -> Table {
    Table::new("t")
        .with_column("g", g.to_vec())
        .with_column("v", v.to_vec())
}

fn sharded_with(shards: usize, prune: bool) -> ShardedDatabase {
    ShardedDatabase::with_executor(
        Engine::new(),
        shards,
        ExecutorConfig {
            prune,
            ..ExecutorConfig::default()
        },
    )
}

proptest! {
    /// Single (always prunes), sharded-pruned, and sharded-unpruned
    /// agree bit for bit on filtered aggregations — simple and
    /// composite keys, both predicate directions.
    #[test]
    fn pruned_reads_match_unpruned_reads(
        n in 1usize..400,
        stride in 1u32..64,
        threshold in 0u32..120,
        shards in 1usize..6,
        composite in 0usize..2,
        flip in 0usize..2,
        seed in 0u64..1000,
    ) {
        let (g, v) = clustered(n, stride, seed);
        let composite = composite == 1;
        let op = if flip == 1 { ">" } else { "<" };
        let sql = if composite {
            format!(
                "SELECT g, v, COUNT(*), SUM(v) FROM t WHERE v {op} {threshold} GROUP BY g, v"
            )
        } else {
            format!(
                "SELECT g, COUNT(*), SUM(v), MIN(v) FROM t WHERE v {op} {threshold} GROUP BY g"
            )
        };

        let mut single = Database::new();
        single.register(table(&g, &v));
        let mut pruned = sharded_with(shards, true);
        pruned.register(table(&g, &v));
        let mut unpruned = sharded_with(shards, false);
        unpruned.register(table(&g, &v));

        let expect = single.execute_sql(&sql).unwrap();
        let a = pruned.run_sql(&sql).unwrap();
        let b = unpruned.run_sql(&sql).unwrap();
        prop_assert_eq!(&a.rows, &expect.rows, "pruned vs single: {}", sql);
        prop_assert_eq!(&b.rows, &expect.rows, "unpruned vs single: {}", sql);
    }

    /// Pruning stays invariant across ingest, compaction (zones are
    /// rebuilt when the delta folds into the base), pinned snapshots,
    /// `AS OF` reads, and the prepared path.
    #[test]
    fn pruning_survives_ingest_compaction_and_snapshots(
        n in 1usize..200,
        batches in 1usize..6,
        batch_rows in 1usize..60,
        compact_every in 1usize..20,
        shards in 1usize..5,
        threshold in 0u32..80,
        seed in 0u64..1000,
    ) {
        let (g, v) = clustered(n, 16, seed);
        let sql = format!(
            "SELECT g, COUNT(*), SUM(v) FROM t WHERE v > {threshold} GROUP BY g"
        );

        let mut single = Database::new();
        single
            .catalogue()
            .set_compaction_policy(CompactionPolicy::every(compact_every));
        single.register(table(&g, &v));
        let mut pruned = sharded_with(shards, true);
        pruned.set_compaction_policy(CompactionPolicy::every(compact_every));
        pruned.register(table(&g, &v));
        let mut unpruned = sharded_with(shards, false);
        unpruned.set_compaction_policy(CompactionPolicy::every(compact_every));
        unpruned.register(table(&g, &v));

        // Pin a cut before ingest; its answer must never drift.
        let cut = pruned.snapshot();
        let pinned = pruned.run_sql(&sql).unwrap();

        for i in 0..batches {
            let (bg, bv) = clustered(batch_rows, 8, seed ^ (0xA11CE + i as u64));
            let batch = || {
                RowBatch::new()
                    .with_column("g", bg.clone())
                    .with_column("v", bv.clone())
            };
            single.append_rows("t", batch()).unwrap();
            pruned.append_rows("t", batch()).unwrap();
            unpruned.append_rows("t", batch()).unwrap();
        }

        let expect = single.execute_sql(&sql).unwrap();
        let a = pruned.run_sql(&sql).unwrap();
        let b = unpruned.run_sql(&sql).unwrap();
        prop_assert_eq!(&a.rows, &expect.rows, "live pruned after ingest");
        prop_assert_eq!(&b.rows, &expect.rows, "live unpruned after ingest");

        let at = pruned.run_sql_at(&cut, &sql).unwrap();
        prop_assert_eq!(&at.rows, &pinned.rows, "pinned cut unchanged");

        // Prepared statements bind into the same pruning pipeline.
        let mut ps = pruned
            .prepare("SELECT g, COUNT(*), SUM(v) FROM t WHERE v > ? GROUP BY g")
            .unwrap();
        let mut us = unpruned
            .prepare("SELECT g, COUNT(*), SUM(v) FROM t WHERE v > ? GROUP BY g")
            .unwrap();
        let mut fresh = single
            .prepare("SELECT g, COUNT(*), SUM(v) FROM t WHERE v > ? GROUP BY g")
            .unwrap();
        for param in [0u64, u64::from(threshold), 10_000] {
            let expect = fresh.execute(&mut single, &[param]).unwrap();
            let a = pruned.execute_prepared(&mut ps, &[param]).unwrap();
            let b = unpruned.execute_prepared(&mut us, &[param]).unwrap();
            prop_assert_eq!(&a.rows, &expect.rows, "prepared pruned, v > {}", param);
            prop_assert_eq!(&b.rows, &expect.rows, "prepared unpruned, v > {}", param);
        }
    }
}

/// Equi-joins give identical answers whether the executor prunes or
/// not (join morsels carry no zone maps today — the switch must be a
/// no-op there, never a wrong answer).
#[test]
fn joins_are_identical_with_pruning_on_and_off() {
    let (g, v) = clustered(600, 16, 7);
    let dims = Table::new("dims").with_column("g", (0..6u32).collect());
    let sql = "SELECT t.g, COUNT(*), SUM(v) FROM t JOIN dims ON t.g = dims.g GROUP BY t.g";

    let mut single = Database::new();
    single.register(table(&g, &v));
    single.register(dims.clone());
    let expect = match single.run_sql(sql).unwrap() {
        vagg::db::SqlOutcome::Rows(out) => out.rows,
        other => panic!("join SELECT executes: {other:?}"),
    };
    assert!(!expect.is_empty());

    for prune in [true, false] {
        let mut sharded = sharded_with(3, prune);
        sharded.register(table(&g, &v));
        sharded.register(dims.clone());
        let got = sharded.run_sql(sql).unwrap();
        assert_eq!(got.rows, expect, "join, prune={prune}");
    }
}

/// On clustered data the pruning counters actually move — and the
/// answer still matches the unpruned run bit for bit.
#[test]
fn pruning_fires_on_clustered_data_and_counts_it() {
    let n = 40_000;
    let (g, v) = clustered(n, 1, 42);
    // v tops out near n/1*10; keep only the very tail — almost every
    // zone excludes the predicate.
    let sql = format!(
        "SELECT g, COUNT(*), SUM(v) FROM t WHERE v > {} GROUP BY g",
        n * 10 - 500
    );

    let mut single = Database::new();
    single.register(table(&g, &v));
    // The governed path is the morselized one — it splits the plan
    // into morsel-sized ranges and consults zone maps before each
    // (`run_sql`/`execute_sql` run the plan whole).
    let token = vagg::db::CancelToken::new();
    let expect = match single.run_sql_cancellable(&sql, &token).unwrap() {
        vagg::db::SqlOutcome::Rows(out) => out,
        other => panic!("SELECT executes: {other:?}"),
    };
    let snap = single.metrics();
    assert!(
        snap.get("morsels_pruned").unwrap_or(0) > 0,
        "single-session path pruned no morsels"
    );
    assert!(snap.get("rows_pruned").unwrap_or(0) > 0);

    let mut pruned = sharded_with(4, true);
    pruned.register(table(&g, &v));
    let mut unpruned = sharded_with(4, false);
    unpruned.register(table(&g, &v));

    let a = pruned.run_sql(&sql).unwrap();
    let b = unpruned.run_sql(&sql).unwrap();
    assert_eq!(a.rows, expect.rows, "pruned sharded vs single");
    assert_eq!(b.rows, expect.rows, "unpruned sharded vs single");

    let snap = pruned.metrics();
    assert!(
        snap.get("executor_morsels_pruned").unwrap_or(0) > 0,
        "sharded executor pruned no morsels: {:?}",
        snap.counters().collect::<Vec<_>>()
    );
    assert_eq!(
        unpruned.metrics().get("executor_morsels_pruned"),
        Some(0),
        "prune=false must not prune"
    );
}
