//! What the two sharded exchange strategies of an equi-join cost — the
//! one join question no tracked `benchmark/` metric asks (`db.join.ms`
//! and `db.join.freeze_us` time a single-session join).
//!
//! The same 24,000-row fact on four shards against a 1,000-row build
//! side (the planner picks broadcast: one global index every shard
//! probes) and an 8,000-row one (the planner partitions both sides by
//! join-key hash). Criterion measures host wall time per query; the
//! strategy is asserted, so a planner change that moves the boundary
//! fails here instead of silently measuring something else.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_db::{JoinStrategy, ShardedDatabase, Table};

const SHARDS: usize = 4;
const PROBE_ROWS: usize = 24_000;

const SQL: &str = "SELECT priority, COUNT(*), SUM(amount) \
                   FROM fact JOIN dim ON fact.orderkey = dim.orderkey \
                   GROUP BY priority";

/// A dimension side: dense sorted keys, a low-cardinality rollup column.
fn dim(rows: usize) -> Table {
    Table::new("dim")
        .with_column("orderkey", (0..rows as u32).collect())
        .with_column("priority", (0..rows as u32).map(|k| k % 5).collect())
}

/// A fact side: uniform foreign keys into `0..key_domain`, a value.
fn fact(key_domain: usize) -> Table {
    let mut rng = Xoshiro256StarStar::seed_from_u64(21);
    Table::new("fact")
        .with_column(
            "orderkey",
            (0..PROBE_ROWS)
                .map(|_| rng.next_below(key_domain as u64) as u32)
                .collect(),
        )
        .with_column(
            "amount",
            (0..PROBE_ROWS)
                .map(|_| rng.next_below(1_000) as u32)
                .collect(),
        )
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("join");
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);

    for (build_rows, expect) in [
        (1_000, JoinStrategy::Broadcast),
        (8_000, JoinStrategy::Partition),
    ] {
        let mut db = ShardedDatabase::new(SHARDS);
        db.register(dim(build_rows));
        db.register(fact(build_rows));
        let plan = db.explain_sql(SQL).expect("join plans");
        let strategy = plan
            .join()
            .expect("a JOIN statement plans a join")
            .strategy();
        assert_eq!(strategy, expect, "{build_rows}-row build side");
        g.bench_function(format!("exchange/{expect}-build-{build_rows}"), |b| {
            b.iter(|| black_box(db.run_sql(SQL).expect("sharded join").rows.len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
