//! `sql_single` and `sql_sharded`: the same seeded SQL through the two
//! library drivers — one `Database` session running whole plans, and a
//! `ShardedDatabase` dispatching morsels to a two-worker pool.

use super::{ms, us, Clock, Pass, Scale};
use crate::gen::{statements, Class, Dims, Events, Stmt, FILTER_TEMPLATE, PRUNED_TEMPLATE};
use crate::oracle::{expected, flat_row, matches, Flat};
use crate::span::Recorder;
use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;
use vagg_db::{
    parse_statement, Database, Engine, ExecutorConfig, ExecutorStats, QueryOutput, QueryTrace,
    ShardedDatabase, ShardedStatement, SqlError, SqlOutcome,
};

/// `sql_single`: rows in `events`. Four 128 KiB columns — a working
/// set larger than the simulated 256 KiB L2.
pub fn single_rows(scale: Scale) -> usize {
    scale.pick(32_768, 2_048)
}

/// `sql_single`: statements per pass, by class (25 % full scan, 20 %
/// non-clustered filter, 15 % composite, 20 % clustered filter, 10 %
/// HAVING/ORDER/LIMIT tail, 10 % join).
pub fn single_mix(scale: Scale) -> [(Class, usize); 6] {
    let n = scale.pick(4, 1);
    [
        (Class::Full, 5 * n / 2),
        (Class::Filter, 2 * n),
        (Class::Composite, 3 * n / 2),
        (Class::Pruned, 2 * n),
        (Class::Tail, n),
        (Class::Join, n),
    ]
}

/// `sql_sharded`: rows in `events`, over four shards.
pub fn sharded_rows(scale: Scale) -> usize {
    scale.pick(65_536, 8_192)
}

pub const SHARDS: usize = 4;
/// Executor threads: the host's two cores.
pub const WORKERS: usize = 2;

/// `sql_sharded`: 25 % full scan, 20 % filter, 15 % composite and 40 %
/// clustered `ts < ?` whose morsels are almost all zone-map-pruned —
/// operations that do nearly no simulation, so coordination overhead
/// shows — beside 60 % that are simulator-bound.
pub fn sharded_mix(scale: Scale) -> [(Class, usize); 4] {
    let n = scale.pick(4, 1);
    [
        (Class::Full, 5 * n / 2),
        (Class::Filter, 2 * n),
        (Class::Composite, 3 * n / 2),
        (Class::Pruned, 4 * n),
    ]
}

/// What the loop keeps of one executed statement.
struct Done {
    out: QueryOutput,
    /// Simulated cycles per executor worker (sharded only).
    worker_loads: Vec<u64>,
}

/// The two drivers behind one loop.
trait Driver {
    type Prepared;
    fn prepare(&self, template: &str) -> Result<Self::Prepared, SqlError>;
    fn run(&mut self, sql: &str) -> Result<Done, SqlError>;
    fn execute(&mut self, stmt: &mut Self::Prepared, param: u64) -> Result<Done, SqlError>;
    /// Runs `EXPLAIN ANALYZE <sql>` and returns the engine's own trace.
    fn analyze(&mut self, sql: &str) -> Result<QueryTrace, SqlError>;
}

impl Driver for Database {
    type Prepared = vagg_db::PreparedStatement;

    fn prepare(&self, template: &str) -> Result<Self::Prepared, SqlError> {
        Database::prepare(self, template)
    }

    fn run(&mut self, sql: &str) -> Result<Done, SqlError> {
        match self.run_sql(sql)? {
            SqlOutcome::Rows(out) => Ok(Done {
                out,
                worker_loads: Vec::new(),
            }),
            other => unreachable!("a SELECT returns rows, got {other:?}"),
        }
    }

    fn execute(&mut self, stmt: &mut Self::Prepared, param: u64) -> Result<Done, SqlError> {
        Ok(Done {
            out: stmt.execute(self, &[param])?,
            worker_loads: Vec::new(),
        })
    }

    fn analyze(&mut self, sql: &str) -> Result<QueryTrace, SqlError> {
        match self.run_sql(&format!("EXPLAIN ANALYZE {sql}"))? {
            SqlOutcome::Analyzed(a) => Ok(a.trace),
            other => unreachable!("EXPLAIN ANALYZE returns a trace, got {other:?}"),
        }
    }
}

impl Driver for ShardedDatabase {
    type Prepared = ShardedStatement;

    fn prepare(&self, template: &str) -> Result<Self::Prepared, SqlError> {
        ShardedDatabase::prepare(self, template)
    }

    fn run(&mut self, sql: &str) -> Result<Done, SqlError> {
        let mut out = self.run_sql(sql)?;
        Ok(Done {
            worker_loads: std::mem::take(&mut out.worker_loads),
            out: out.into(),
        })
    }

    fn execute(&mut self, stmt: &mut Self::Prepared, param: u64) -> Result<Done, SqlError> {
        let mut out = self.execute_prepared(stmt, &[param])?;
        Ok(Done {
            worker_loads: std::mem::take(&mut out.worker_loads),
            out: out.into(),
        })
    }

    fn analyze(&mut self, sql: &str) -> Result<QueryTrace, SqlError> {
        let out = self.run_sql(&format!("EXPLAIN ANALYZE {sql}"))?;
        Ok(*out.trace.expect("EXPLAIN ANALYZE carries a trace"))
    }
}

/// The two prepared templates of a pass.
struct Prepared<D: Driver> {
    filter: D::Prepared,
    pruned: D::Prepared,
}

impl<D: Driver> Prepared<D> {
    fn new(driver: &D) -> Self {
        Self {
            filter: driver
                .prepare(FILTER_TEMPLATE)
                .expect("prepare the filter template"),
            pruned: driver
                .prepare(PRUNED_TEMPLATE)
                .expect("prepare the clustered template"),
        }
    }

    /// Runs one statement the way its class is issued: prepared for
    /// the two parameterised classes, literal SQL otherwise.
    fn issue(&mut self, driver: &mut D, stmt: Stmt, sql: &str) -> Result<Done, SqlError> {
        match stmt.prepared() {
            Some((FILTER_TEMPLATE, p)) => driver.execute(&mut self.filter, p),
            Some((_, p)) => driver.execute(&mut self.pruned, p),
            None => driver.run(sql),
        }
    }
}

/// One warm-up statement per class in `list`, with fixed parameters.
fn warm_up<D: Driver>(driver: &mut D, prepared: &mut Prepared<D>, list: &[Stmt], rows: usize) {
    let mut seen = Vec::new();
    for stmt in list {
        if seen.contains(&stmt.class()) {
            continue;
        }
        seen.push(stmt.class());
        let warm = match *stmt {
            Stmt::Filter { .. } => Stmt::Filter { gt: 500 },
            Stmt::Pruned { .. } => Stmt::Pruned {
                lt: (rows / 32) as u32,
            },
            Stmt::Tail { .. } => Stmt::Tail { having_gt: 8 },
            other => other,
        };
        prepared
            .issue(driver, warm, &warm.sql())
            .expect("warm-up statement");
    }
}

/// What a pass generates from its seed.
struct Inputs {
    events: Events,
    dims: Dims,
    list: Vec<Stmt>,
}

impl Inputs {
    fn generate(rows: usize, mix: &[(Class, usize)], seed: u64) -> Self {
        Self {
            events: Events::generate(rows, 0, seed),
            dims: Dims::generate(seed),
            list: statements(mix, rows, seed),
        }
    }
}

/// The timed loop and its oracle check. Returns each statement's
/// latency by class and the worker-load imbalance of the sharded ops.
fn run_list<D: Driver>(
    pass: &mut Pass,
    mut clock: Clock,
    driver: &mut D,
    prepared: &mut Prepared<D>,
    inputs: &Inputs,
    rec: &mut Recorder,
) -> (HashMap<Class, Vec<f64>>, Vec<f64>) {
    let Inputs { events, dims, list } = inputs;
    let sqls: Vec<String> = list.iter().map(|s| s.sql()).collect();
    let mut done: Vec<Result<Done, SqlError>> = Vec::with_capacity(list.len());

    let root = rec.enter("harness.loop");
    for (stmt, sql) in list.iter().zip(&sqls) {
        let t = Instant::now();
        rec.next_op();
        let op = rec.enter("harness.statement");
        if rec.is_on() && stmt.prepared().is_none() {
            // What the driver does first with literal SQL.
            rec.span("db.sql.parse", || {
                std::hint::black_box(parse_statement(sql)).is_ok()
            });
        }
        let result = rec.span("db.execute", || prepared.issue(driver, *stmt, sql));
        rec.exit(op);
        clock.op(t.elapsed(), true);
        done.push(result);
    }
    rec.exit(root);
    clock.finish(pass);

    let mut want: HashMap<String, Vec<Flat>> = HashMap::new();
    let mut by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    let mut imbalance = Vec::new();
    for (((stmt, sql), result), lat) in list
        .iter()
        .zip(&sqls)
        .zip(done)
        .zip(pass.ops.iter().map(|o| o.wall_ms).collect::<Vec<_>>())
    {
        by_class.entry(stmt.class()).or_default().push(lat);
        let done = match result {
            Ok(done) => done,
            Err(e) => {
                pass.fail(format!("{sql}: {e}"));
                continue;
            }
        };
        pass.sim_cycles += done.out.report.cycles;
        let busiest = done.worker_loads.iter().copied().max().unwrap_or(0);
        if busiest > 0 {
            let mean =
                done.worker_loads.iter().sum::<u64>() as f64 / done.worker_loads.len() as f64;
            imbalance.push(busiest as f64 / mean);
        }
        let got: Vec<Flat> = done.out.rows.iter().map(flat_row).collect();
        let want = want
            .entry(sql.clone())
            .or_insert_with(|| expected(*stmt, events, dims));
        if !matches(*stmt, &got, want) {
            pass.fail(format!("{sql}: rows differ from the host oracle"));
        }
    }
    (by_class, imbalance)
}

fn class_median(by_class: &HashMap<Class, Vec<f64>>, class: Class) -> f64 {
    by_class.get(&class).map_or(f64::NAN, |v| median(v))
}

/// Share of a traced query's cycles spent in steps whose rendering
/// starts with one of `prefixes`.
fn cycle_share(trace: &QueryTrace, prefixes: &[&str]) -> f64 {
    let part: u64 = trace
        .steps
        .iter()
        .filter(|s| prefixes.iter().any(|p| s.step.starts_with(p)))
        .map(|s| s.cycles)
        .sum();
    // Step cycles are summed over morsels while `trace.cycles` is the
    // makespan on the sharded path, so divide by the steps' own total.
    let all: u64 = trace.steps.iter().map(|s| s.cycles).sum();
    part as f64 / all.max(1) as f64
}

pub fn single_pass(seed: u64, scale: Scale, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let rows = single_rows(scale);

    let mut clock = Clock::start(0);
    let setup = Instant::now();
    let inputs = Inputs::generate(rows, &single_mix(scale), seed);
    let mut db = Database::new();
    db.register(inputs.events.table());
    db.register(inputs.dims.table());
    let mut prepared = Prepared::new(&db);
    warm_up(&mut db, &mut prepared, &inputs.list, rows);
    pass.setup_s = clock.calibrated_s(setup.elapsed());

    let mut rec = Recorder::new(traced);
    let cache_before = db.plan_cache_stats();
    let (by_class, _) = run_list(&mut pass, clock, &mut db, &mut prepared, &inputs, &mut rec);
    if !traced {
        return pass;
    }

    let cache = db.plan_cache_stats();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    pass.layer(
        "db.cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let parses = rec
        .spans()
        .iter()
        .filter(|s| s.name == "db.sql.parse")
        .count();
    pass.layer(
        "db.sql.parse_us",
        rec.total_ns("db.sql.parse") as f64 / 1e3 / parses.max(1) as f64,
    );
    pass.layer(
        "db.session.host_ns_per_row",
        class_median(&by_class, Class::Full) * 1e6 / rows as f64,
    );
    pass.layer("db.session.full_ms", class_median(&by_class, Class::Full));
    pass.layer(
        "db.session.filter_ms",
        class_median(&by_class, Class::Filter),
    );
    pass.layer(
        "db.session.composite_ms",
        class_median(&by_class, Class::Composite),
    );
    pass.layer(
        "db.session.pruned_ms",
        class_median(&by_class, Class::Pruned),
    );
    pass.layer("db.session.tail_ms", class_median(&by_class, Class::Tail));
    pass.layer("db.join.ms", class_median(&by_class, Class::Join));

    // Plan cost, on shapes the loop never issued: the first
    // `explain_sql` of a shape plans it, the second finds it cached.
    let (mut cold, mut cached) = (Vec::new(), Vec::new());
    for aggregate in ["MIN(v)", "MAX(v)", "AVG(v)", "SUM(h)", "MAX(h)"] {
        let sql = format!("SELECT g, {aggregate} FROM events WHERE v > 7 GROUP BY g");
        for sample in [&mut cold, &mut cached] {
            let t = Instant::now();
            std::hint::black_box(db.explain_sql(&sql).expect("plan a fresh shape"));
            sample.push(us(t.elapsed()));
        }
    }
    pass.layer("db.plan.cold_us", median(&cold));
    pass.layer("db.plan.cached_us", median(&cached));

    // The engine's own per-step cycles, from EXPLAIN ANALYZE.
    let analyze = |db: &mut Database, stmt: Stmt| db.analyze(&stmt.sql()).expect("EXPLAIN ANALYZE");
    let filter = analyze(&mut db, Stmt::Filter { gt: 500 });
    pass.layer(
        "db.session.filter_cycle_share",
        cycle_share(&filter, &["VectorFilter"]),
    );
    let tail = analyze(&mut db, Stmt::Tail { having_gt: 8 });
    pass.layer(
        "db.session.tail_cycle_share",
        cycle_share(&tail, &["VectorHaving", "VectorOrderBy", "Limit"]),
    );
    let join = analyze(&mut db, Stmt::Join);
    pass.layer(
        "db.join.freeze_us",
        join.freeze_ns.unwrap_or(0) as f64 / 1e3,
    );

    let t = Instant::now();
    const SNAPSHOTS: u32 = 200;
    for _ in 0..SNAPSHOTS {
        std::hint::black_box(db.snapshot());
    }
    pass.layer(
        "db.snapshot.capture_us",
        us(t.elapsed()) / f64::from(SNAPSHOTS),
    );
    let t = Instant::now();
    for _ in 0..SNAPSHOTS {
        std::hint::black_box(db.metrics());
    }
    pass.layer(
        "db.metrics.snapshot_us",
        us(t.elapsed()) / f64::from(SNAPSHOTS),
    );

    pass.threads.push(rec);
    pass
}

fn sharded_db(events: &Events) -> ShardedDatabase {
    let config = ExecutorConfig {
        workers: WORKERS,
        ..ExecutorConfig::default()
    };
    let mut db = ShardedDatabase::with_executor(Engine::new(), SHARDS, config);
    db.register(events.table());
    db
}

pub fn sharded_pass(seed: u64, scale: Scale, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let rows = sharded_rows(scale);

    let mut clock = Clock::start(0);
    let setup = Instant::now();
    let inputs = Inputs::generate(rows, &sharded_mix(scale), seed);
    let events = &inputs.events;
    let mut db = sharded_db(events);
    let mut prepared = Prepared::new(&db);
    warm_up(&mut db, &mut prepared, &inputs.list, rows);
    pass.setup_s = clock.calibrated_s(setup.elapsed());

    let mut rec = Recorder::new(traced);
    let before = db.executor_stats();
    let (by_class, imbalance) =
        run_list(&mut pass, clock, &mut db, &mut prepared, &inputs, &mut rec);
    if !traced {
        return pass;
    }

    let delta = |f: fn(&ExecutorStats) -> u64| (f(&db.executor_stats()) - f(&before)) as f64;
    let (morsels, pruned) = (delta(|s| s.morsels), delta(|s| s.morsels_pruned));
    pass.layer(
        "db.executor.morsels_per_op",
        morsels / pass.ops.len() as f64,
    );
    pass.layer(
        "db.executor.steal_rate",
        delta(|s| s.steals) / morsels.max(1.0),
    );
    pass.layer(
        "db.executor.prune_rate",
        pruned / (morsels + pruned).max(1.0),
    );
    pass.layer("db.executor.affinity_moves", delta(|s| s.affinity_moves));
    pass.layer(
        "db.executor.worker_imbalance",
        imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64,
    );

    // Per-morsel queue waits, from the engine's EXPLAIN ANALYZE.
    let mut waits = Vec::new();
    for stmt in [Stmt::Full, Stmt::Filter { gt: 500 }, Stmt::Composite] {
        let trace = db.analyze(&stmt.sql()).expect("EXPLAIN ANALYZE");
        waits.extend(trace.morsels.iter().map(|m| m.queue_wait_ns as f64 / 1e3));
    }
    pass.layer(
        "db.executor.queue_wait_us",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    );

    // The same full scan on one session.
    let mut single = Database::new();
    single.register(events.table());
    let full = Stmt::Full.sql();
    single.run(&full).expect("warm the single session");
    let single_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(single.run(&full).expect("full scan"));
            ms(t.elapsed())
        })
        .collect();
    pass.layer(
        "db.shard.speedup_vs_single",
        median(&single_ms) / class_median(&by_class, Class::Full),
    );

    // A statement every morsel of which is pruned: coordinate + merge.
    let nothing: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let done = db
                .execute(&mut prepared.pruned, 0)
                .expect("pruned statement");
            assert!(done.out.rows.is_empty());
            us(t.elapsed())
        })
        .collect();
    pass.layer("db.shard.pruned_op_us", median(&nothing));

    // Which worker runs which morsel is a race, and each worker's
    // simulated caches remember what it ran — so the same first query
    // on identical fresh databases need not cost identical cycles.
    let cycles: Vec<f64> = (0..5)
        .map(|_| {
            sharded_db(events)
                .run(&full)
                .expect("full scan")
                .out
                .report
                .cycles as f64
        })
        .collect();
    let (lo, hi) = crate::stats::min_max(&cycles);
    pass.layer(
        "db.shard.cycle_jitter_ppm",
        (hi - lo) / median(&cycles) * 1e6,
    );

    pass.threads.push(rec);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_session_cycles_repeat_exactly_and_tracing_leaves_them_alone() {
        let a = single_pass(2, Scale::Smoke, false);
        let b = single_pass(2, Scale::Smoke, true);
        assert_eq!(
            (a.failed, b.failed),
            (0, 0),
            "{:?} {:?}",
            a.failures,
            b.failures
        );
        assert_eq!(a.sim_cycles, b.sim_cycles);
        assert_eq!(a.ops.len(), 9);
        assert!(b.layers.iter().any(|(n, _)| *n == "db.join.freeze_us"));
    }

    #[test]
    fn sharded_pass_matches_the_oracle() {
        let p = sharded_pass(2, Scale::Smoke, true);
        assert_eq!(p.failed, 0, "{:?}", p.failures);
        let layer = |name| p.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(layer("db.executor.prune_rate") > 0.0);
        assert!(layer("db.executor.morsels_per_op") > 0.0);
    }
}
