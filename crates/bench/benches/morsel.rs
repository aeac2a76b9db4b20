//! Morsel-driven executor bench: what the persistent pool, work
//! stealing, zone-map pruning and the forced-domain composite merge
//! buy on the sharded path.
//!
//! Four workloads —
//!
//! * `small-query`: the same small cached query on one long-lived pool
//!   (`pooled`) vs a pool rebuilt before every query
//!   (`spawn-per-query`, the old thread-per-shard-per-query regime's
//!   cost structure);
//! * `skew`: a Zipf-keyed table partitioned uniformly vs with one hot
//!   shard, stealing on vs off — wall time per query plus the
//!   *simulated* makespan (busiest virtual worker) each schedule pays;
//! * `selective`: clustered-value `WHERE` scans at 0.1% / 1% / 10% /
//!   100% selectivity with zone-map morsel pruning on vs off — the
//!   payoff grows as the predicate excludes more zones;
//! * `composite`: `GROUP BY a, b` on four shards (plan-time global key
//!   domains forced into every morsel, partials merged directly) vs a
//!   single session.
//!
//! Besides the usual stdout lines, the bench writes a machine-readable
//! summary to `BENCH_shard.json` at the repository root so future PRs
//! can track the sharded-path trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_datagen::zipf::Zipf;
use vagg_db::{Database, Engine, ExecutorConfig, ShardedDatabase, ShardedOutput, Table};

const SHARDS: usize = 4;
const SMALL_ROWS: usize = 1024;
const SKEW_ROWS: usize = 12_288;
const COMPOSITE_ROWS: usize = 8_192;
const SELECTIVE_ROWS: usize = 262_144;

fn zipf_table(rows: usize, domain: u64) -> Table {
    let zipf = Zipf::new(domain, 1.0);
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED);
    Table::new("events")
        .with_column(
            "g",
            (0..rows).map(|_| zipf.sample(&mut rng) as u32).collect(),
        )
        .with_column(
            "v",
            (0..rows).map(|_| rng.next_below(1000) as u32).collect(),
        )
}

/// One hot shard (¾ of the rows), the rest spread thin.
fn skewed_parts(table: &Table) -> Vec<Table> {
    let n = table.rows();
    let cuts = [0, n * 3 / 4, n * 5 / 6, n * 11 / 12, n];
    (0..SHARDS)
        .map(|i| {
            let (lo, hi) = (cuts[i], cuts[i + 1]);
            let mut part = Table::new(table.name());
            for col in table.column_names() {
                part = part.with_column(col, table.column(col).unwrap()[lo..hi].to_vec());
            }
            part
        })
        .collect()
}

fn executor(steal: bool) -> ExecutorConfig {
    ExecutorConfig {
        workers: SHARDS,
        morsel_rows: 512,
        steal,
        ..ExecutorConfig::default()
    }
}

/// Mean wall milliseconds per call (one warm-up, then `iters` timed).
fn wall_ms(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

struct Summary {
    pooled_ms: f64,
    spawn_ms: f64,
    uniform: (u64, u64),
    zipf: (u64, u64),
    zipf_steals: u64,
    steal_ms: f64,
    no_steal_ms: f64,
    /// Per selectivity tier: `(label, pruned_ms, unpruned_ms, morsels_pruned)`.
    selective: Vec<(&'static str, f64, f64, u64)>,
    composite_single_ms: f64,
    composite_sharded_ms: f64,
}

fn write_summary(s: &Summary) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo bench -p vagg-bench --bench morsel\",\n  \
         \"shards\": {SHARDS},\n  \"workers\": {SHARDS},"
    );
    let _ = writeln!(
        out,
        "  \"small_query\": {{\n    \"rows\": {SMALL_ROWS},\n    \
         \"pooled_ms\": {:.4},\n    \"spawn_per_query_ms\": {:.4},\n    \
         \"pooled_speedup\": {:.2}\n  }},",
        s.pooled_ms,
        s.spawn_ms,
        s.spawn_ms / s.pooled_ms
    );
    let _ = writeln!(
        out,
        "  \"skew\": {{\n    \"rows\": {SKEW_ROWS},\n    \
         \"uniform_makespan_cycles\": {{\"steal\": {}, \"no_steal\": {}}},\n    \
         \"zipf_makespan_cycles\": {{\"steal\": {}, \"no_steal\": {}}},\n    \
         \"zipf_makespan_reduction\": {:.2},\n    \"zipf_steals\": {},\n    \
         \"zipf_wall_ms\": {{\"steal\": {:.4}, \"no_steal\": {:.4}}}\n  }},",
        s.uniform.0,
        s.uniform.1,
        s.zipf.0,
        s.zipf.1,
        s.zipf.1 as f64 / s.zipf.0.max(1) as f64,
        s.zipf_steals,
        s.steal_ms,
        s.no_steal_ms,
    );
    let _ = writeln!(
        out,
        "  \"selective_where\": {{\n    \"rows\": {SELECTIVE_ROWS},"
    );
    for (i, (label, pruned_ms, unpruned_ms, morsels_pruned)) in s.selective.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{label}\": {{\"pruned_ms\": {:.4}, \"unpruned_ms\": {:.4}, \
             \"speedup\": {:.2}, \"morsels_pruned\": {}}}{}",
            pruned_ms,
            unpruned_ms,
            unpruned_ms / pruned_ms.max(1e-9),
            morsels_pruned,
            if i + 1 == s.selective.len() { "" } else { "," },
        );
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"composite_group_by\": {{\n    \"rows\": {COMPOSITE_ROWS},\n    \
         \"single_session_ms\": {:.4},\n    \"sharded_ms\": {:.4}\n  }}\n}}",
        s.composite_single_ms, s.composite_sharded_ms
    );
    std::fs::write(path, out).expect("write BENCH_shard.json");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("morsel");
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);

    let small_sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";

    // Persistent pool: the query reuses warm workers and cached plans.
    let pooled_ms = {
        let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, executor(true));
        db.register(zipf_table(SMALL_ROWS, 64));
        g.bench_function("small-query/pooled", |b| {
            b.iter(|| black_box(db.run_sql(small_sql).unwrap().rows.len()))
        });
        let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, executor(true));
        db.register(zipf_table(SMALL_ROWS, 64));
        wall_ms(50, || {
            black_box(db.run_sql(small_sql).unwrap().rows.len());
        })
    };

    // Spawn-per-query: rebuilding the pool before every query restores
    // the seed's thread-per-shard-per-query cost structure.
    let spawn_ms = {
        let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, executor(true));
        db.register(zipf_table(SMALL_ROWS, 64));
        g.bench_function("small-query/spawn-per-query", |b| {
            b.iter(|| {
                db.set_executor_config(executor(true)).unwrap();
                black_box(db.run_sql(small_sql).unwrap().rows.len())
            })
        });
        let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, executor(true));
        db.register(zipf_table(SMALL_ROWS, 64));
        wall_ms(50, || {
            db.set_executor_config(executor(true)).unwrap();
            black_box(db.run_sql(small_sql).unwrap().rows.len());
        })
    };

    // Skewed vs uniform partitions, stealing on vs off. The makespan
    // (simulated cycles on the busiest virtual worker) is the number
    // the steal schedule exists to shrink; wall time rides along.
    let skew_sql = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > 100 GROUP BY g";
    let table = zipf_table(SKEW_ROWS, 512);
    let mut makespan = |uniform: bool, steal: bool| -> (ShardedOutput, f64) {
        let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, executor(steal));
        if uniform {
            db.register(table.clone());
        } else {
            db.register_partitioned(skewed_parts(&table));
        }
        db.run_sql(skew_sql).unwrap(); // warm the pool
        let label = format!(
            "skew/{}-{}",
            if uniform { "uniform" } else { "zipf" },
            if steal { "steal" } else { "no-steal" }
        );
        let ms = wall_ms(20, || {
            black_box(db.run_sql(skew_sql).unwrap().rows.len());
        });
        g.bench_function(label, |b| {
            b.iter(|| black_box(db.run_sql(skew_sql).unwrap().rows.len()))
        });
        (db.run_sql(skew_sql).unwrap(), ms)
    };
    let (uni_steal, _) = makespan(true, true);
    let (uni_static, _) = makespan(true, false);
    let (zipf_steal, steal_ms) = makespan(false, true);
    let (zipf_static, no_steal_ms) = makespan(false, false);
    assert_eq!(
        zipf_steal.rows, zipf_static.rows,
        "stealing never changes rows"
    );
    println!(
        "  makespan cycles: uniform steal={} static={} | zipf steal={} static={} (steals={})",
        uni_steal.report.cycles,
        uni_static.report.cycles,
        zipf_steal.report.cycles,
        zipf_static.report.cycles,
        zipf_steal.steals,
    );

    // Selective WHERE on clustered values: `v` climbs with the row
    // index, so `v > t` excludes a contiguous prefix of zones — the
    // shape zone-map pruning exists for. Each tier keeps roughly the
    // named fraction of rows; 100% is the pruning-can't-help control.
    let clustered = {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC1A5);
        Table::new("events")
            .with_column(
                "g",
                (0..SELECTIVE_ROWS)
                    .map(|_| rng.next_below(64) as u32)
                    .collect(),
            )
            .with_column(
                "v",
                (0..SELECTIVE_ROWS)
                    .map(|i| i as u32 * 4 + rng.next_below(4) as u32)
                    .collect(),
            )
    };
    let vmax = SELECTIVE_ROWS as u64 * 4;
    let tiers: [(&str, u64); 4] = [
        ("0.1%", vmax - vmax / 1000),
        ("1%", vmax - vmax / 100),
        ("10%", vmax - vmax / 10),
        ("100%", 0),
    ];
    let mut selective = Vec::new();
    for (label, threshold) in tiers {
        let sql =
            format!("SELECT g, COUNT(*), SUM(v) FROM events WHERE v > {threshold} GROUP BY g");
        let mut tier = [0.0f64; 2];
        let mut morsels_pruned = 0;
        for (slot, prune) in [(0, true), (1, false)] {
            let mut db = ShardedDatabase::with_executor(
                Engine::new(),
                SHARDS,
                ExecutorConfig {
                    workers: SHARDS,
                    prune,
                    ..ExecutorConfig::default()
                },
            );
            db.register(clustered.clone());
            db.run_sql(&sql).unwrap(); // warm the pool
            let mode = if prune { "pruned" } else { "unpruned" };
            g.bench_function(format!("selective/{label}-{mode}"), |b| {
                b.iter(|| black_box(db.run_sql(&sql).unwrap().rows.len()))
            });
            tier[slot] = wall_ms(20, || {
                black_box(db.run_sql(&sql).unwrap().rows.len());
            });
            if prune {
                morsels_pruned = db.metrics().get("executor_morsels_pruned").unwrap_or(0);
            }
        }
        println!(
            "  selective {label}: pruned={:.4}ms unpruned={:.4}ms ({:.1}x, {} morsels pruned)",
            tier[0],
            tier[1],
            tier[1] / tier[0].max(1e-9),
            morsels_pruned,
        );
        selective.push((label, tier[0], tier[1], morsels_pruned));
    }

    // Composite GROUP BY: plan-time global key domains are forced into
    // every morsel's fusion, so shard partials merge directly — the
    // shape used to need a per-query key dictionary and lost to a
    // single session.
    let composite_sql = "SELECT a, b, COUNT(*), SUM(v) FROM t GROUP BY a, b";
    let two_key = {
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        Table::new("t")
            .with_column(
                "a",
                (0..COMPOSITE_ROWS)
                    .map(|_| rng.next_below(16) as u32)
                    .collect(),
            )
            .with_column(
                "b",
                (0..COMPOSITE_ROWS)
                    .map(|_| rng.next_below(24) as u32)
                    .collect(),
            )
            .with_column(
                "v",
                (0..COMPOSITE_ROWS)
                    .map(|_| rng.next_below(100) as u32)
                    .collect(),
            )
    };
    let composite_single_ms = {
        let mut db = Database::new();
        db.register(two_key.clone());
        g.bench_function("composite/single-session", |b| {
            b.iter(|| black_box(db.execute_sql(composite_sql).unwrap().rows.len()))
        });
        let mut db = Database::new();
        db.register(two_key.clone());
        wall_ms(10, || {
            black_box(db.execute_sql(composite_sql).unwrap().rows.len());
        })
    };
    // Default morsel size (one morsel per 2048-row shard): the forced
    // fusion spares each morsel the per-column max scans the single
    // session pays, and there is no dictionary to remap through.
    let composite_config = ExecutorConfig {
        workers: SHARDS,
        ..ExecutorConfig::default()
    };
    let composite_sharded_ms = {
        let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, composite_config);
        db.register(two_key.clone());
        g.bench_function("composite/sharded", |b| {
            b.iter(|| black_box(db.run_sql(composite_sql).unwrap().rows.len()))
        });
        let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, composite_config);
        db.register(two_key.clone());
        wall_ms(10, || {
            black_box(db.run_sql(composite_sql).unwrap().rows.len());
        })
    };

    write_summary(&Summary {
        pooled_ms,
        spawn_ms,
        uniform: (uni_steal.report.cycles, uni_static.report.cycles),
        zipf: (zipf_steal.report.cycles, zipf_static.report.cycles),
        zipf_steals: zipf_steal.steals,
        steal_ms,
        no_steal_ms,
        selective,
        composite_single_ms,
        composite_sharded_ms,
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
