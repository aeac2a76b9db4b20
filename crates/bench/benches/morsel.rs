//! What work stealing buys the morsel executor under skew — the one
//! executor question no tracked `benchmark/` metric asks
//! (`db.executor.steal_rate` counts steals; nothing runs the same
//! statement with stealing off).
//!
//! A Zipf-keyed table on four shards, partitioned uniformly (the
//! control) vs with one hot shard holding ¾ of the rows, stealing on vs
//! off. Criterion measures host wall time per query; the printed
//! *simulated* makespan (cycles on the busiest virtual worker) is the
//! number the steal schedule exists to shrink. That stealing never
//! changes rows is `tests/morsel.rs`'s to hold, not this file's.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_datagen::zipf::Zipf;
use vagg_db::{Engine, ExecutorConfig, ShardedDatabase, Table};

const SHARDS: usize = 4;
const ROWS: usize = 12_288;
const SQL: &str = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > 100 GROUP BY g";

fn zipf_table() -> Table {
    let zipf = Zipf::new(512, 1.0);
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED);
    Table::new("events")
        .with_column(
            "g",
            (0..ROWS).map(|_| zipf.sample(&mut rng) as u32).collect(),
        )
        .with_column(
            "v",
            (0..ROWS).map(|_| rng.next_below(1000) as u32).collect(),
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

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("morsel");
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);

    let table = zipf_table();
    for (partition, uniform) in [("uniform", true), ("zipf", false)] {
        for (schedule, steal) in [("steal", true), ("no-steal", false)] {
            let config = ExecutorConfig {
                workers: SHARDS,
                morsel_rows: 512,
                steal,
                ..ExecutorConfig::default()
            };
            let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, config);
            if uniform {
                db.register(table.clone());
            } else {
                db.register_partitioned(skewed_parts(&table));
            }
            g.bench_function(format!("skew/{partition}-{schedule}"), |b| {
                b.iter(|| black_box(db.run_sql(SQL).unwrap().rows.len()))
            });
            let out = db.run_sql(SQL).unwrap();
            println!(
                "[morsel] {partition} {schedule}: makespan {} simulated cycles, {} steals",
                out.report.cycles, out.steals
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
