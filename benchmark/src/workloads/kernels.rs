//! `kernels`: the paper's own experiment — the six aggregation
//! algorithms over a distribution × cardinality grid, each cell on a
//! fresh simulated machine (simulated caches start empty), with nothing
//! of the SQL stack above it. This is the simulator floor every other
//! workload stands on.

use super::{Clock, Pass, Scale};
use crate::span::Recorder;
use crate::stats::geomean;
use std::collections::BTreeMap;
use std::time::Instant;
use vagg_core::{reference, run_algorithm, Algorithm, StagedInput};
use vagg_datagen::{Dataset, DatasetSpec, Distribution};
use vagg_sim::{Machine, SimConfig};

/// Three of the paper's 22 cardinalities, one regime each: every table
/// inside simulated L1 (76); polytable's 64 replicated tables past the
/// 256 KiB L2 while monotable stays in L1 (1220); every table past L2
/// (39062: a count and a sum per key are 305 KiB). Table
/// initialisation and scan-out cost host time in proportion to the
/// cardinality whatever the row count, so the top one sets how many
/// passes fit in a run: at 78125 (the next one up, same "high-normal"
/// division) those cells alone are 1.8 s of a pass.
pub const CARDINALITIES: [u64; 3] = [76, 1_220, HIGH];
const HIGH: u64 = 39_062;
/// Smoke scale keeps the grid's shape with a cheaper top cardinality.
const SMOKE_HIGH: u64 = 4_882;

/// One cell of the grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub algorithm: Algorithm,
    pub distribution: Distribution,
    pub cardinality: u64,
}

/// The grid: 6 algorithms × 5 distributions × 3 cardinalities, minus
/// polytable at the top cardinality. Those five cells' 20 MB of
/// replicated tables would cost as much host time as the rest of the
/// grid together, while the regime they would add (polytable's tables
/// past L2) is already covered at 1220 — the one cut made to the grid
/// so that many passes fit in a run.
pub fn grid(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for algorithm in Algorithm::PAPER {
        for distribution in Distribution::ALL {
            for cardinality in CARDINALITIES {
                if algorithm == Algorithm::Polytable && cardinality == HIGH {
                    continue;
                }
                cells.push(Cell {
                    algorithm,
                    distribution,
                    cardinality: scale.pick(cardinality, cardinality.min(SMOKE_HIGH)),
                });
            }
        }
    }
    cells
}

/// Input rows per cell.
pub fn rows_per_cell(scale: Scale) -> usize {
    scale.pick(2048, 256)
}

pub fn pass(seed: u64, scale: Scale, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let cfg = SimConfig::paper();
    let rows = rows_per_cell(scale);

    let mut clock = Clock::start(0);
    let setup = Instant::now();
    let cells = grid(scale);
    let mut datasets: BTreeMap<(&str, u64), Dataset> = BTreeMap::new();
    for c in &cells {
        datasets
            .entry((c.distribution.name(), c.cardinality))
            .or_insert_with(|| {
                DatasetSpec::paper(c.distribution, c.cardinality)
                    .with_rows(rows)
                    .with_seed(seed)
                    .generate()
            });
    }
    // Warm-up: every algorithm once on a small input.
    let warm = DatasetSpec::paper(Distribution::Zipf, 76)
        .with_rows(256)
        .with_seed(seed)
        .generate();
    for algorithm in Algorithm::PAPER {
        std::hint::black_box(run_algorithm(algorithm, &cfg, &warm));
    }
    pass.setup_s = clock.calibrated_s(setup.elapsed());

    let dataset = |c: &Cell| &datasets[&(c.distribution.name(), c.cardinality)];
    if traced {
        traced_loop(&mut pass, clock, &cfg, &cells, dataset);
        return pass;
    }

    let mut runs = Vec::with_capacity(cells.len());
    for c in &cells {
        let t = Instant::now();
        let run = run_algorithm(c.algorithm, &cfg, dataset(c));
        clock.op(t.elapsed(), true);
        runs.push(run);
    }
    clock.finish(&mut pass);

    for (c, run) in cells.iter().zip(&runs) {
        pass.sim_cycles += run.cycles;
        let ds = dataset(c);
        if run.result != reference(&ds.g, &ds.v) {
            pass.fail(cell_name(c));
        }
    }
    pass
}

fn cell_name(c: &Cell) -> String {
    format!(
        "{} on {} c={} differs from vagg_core::reference",
        c.algorithm.short_name(),
        c.distribution.name(),
        c.cardinality
    )
}

/// The traced loop splits `run_algorithm` into the calls it is made
/// of — `Machine::new`, `StagedInput::stage`, `Algorithm::execute` —
/// plus the oracle, one span each, and reads the machine's counters.
fn traced_loop<'a>(
    pass: &mut Pass,
    mut clock: Clock,
    cfg: &SimConfig,
    cells: &[Cell],
    dataset: impl Fn(&Cell) -> &'a Dataset,
) {
    #[derive(Default)]
    struct Sums {
        rows: u64,
        cycles: u64,
        uops: u64,
        l1: (u64, u64),
        l2: (u64, u64),
        dram_rows: (u64, u64),
        vector: (u64, u64),
    }
    #[derive(Default)]
    struct PerAlgorithm {
        host_ns: u64,
        rows: u64,
        cpt: Vec<f64>,
    }
    let mut rec = Recorder::new(true);
    let mut sum = Sums::default();
    let mut per_alg: BTreeMap<&str, PerAlgorithm> = BTreeMap::new();

    let root = rec.enter("harness.loop");
    for c in cells {
        let ds = dataset(c);
        rec.next_op();
        let t = Instant::now();
        let op = rec.enter("harness.cell");
        let mut m = rec.span("sim.machine_new", || Machine::new(cfg.clone()));
        let (input, stage_ns) = rec.span_ns("core.stage", || StagedInput::stage(&mut m, ds));
        let ((result, _rows), execute_ns) =
            rec.span_ns("core.execute", || c.algorithm.execute(&mut m, &input));
        let ok = rec.span("core.reference", || result == reference(&ds.g, &ds.v));
        rec.exit(op);
        clock.op(t.elapsed(), true);
        if !ok {
            pass.fail(cell_name(c));
        }

        let stats = m.stats();
        let n = ds.len() as u64;
        pass.sim_cycles += stats.cycles;
        sum.rows += n;
        sum.cycles += stats.cycles;
        sum.uops += stats.ops;
        let add = |to: &mut (u64, u64), hits: u64, of: u64| *to = (to.0 + hits, to.1 + of);
        add(&mut sum.l1, stats.mem.l1.hits, stats.mem.l1.accesses);
        add(&mut sum.l2, stats.mem.l2.hits, stats.mem.l2.accesses);
        add(
            &mut sum.dram_rows,
            stats.mem.dram.row_hits,
            stats.mem.dram.requests,
        );
        add(
            &mut sum.vector,
            stats.mix.v_elements,
            stats.mix.vector_ops(),
        );
        let alg = per_alg.entry(c.algorithm.short_name()).or_default();
        alg.host_ns += stage_ns + execute_ns;
        alg.rows += n;
        alg.cpt.push(stats.cycles as f64 / n as f64);
    }
    rec.exit(root);
    clock.finish(pass);

    let ratio = |(num, den): (u64, u64)| num as f64 / den.max(1) as f64;
    let execute_ns = rec.total_ns("core.execute");
    pass.layer("mem.l1_hit_rate", ratio(sum.l1));
    pass.layer("mem.l2_hit_rate", ratio(sum.l2));
    pass.layer("mem.dram_row_hit_rate", ratio(sum.dram_rows));
    pass.layer("cpu.uops_per_row", ratio((sum.uops, sum.rows)));
    pass.layer(
        "sim.stage_ns_per_row",
        ratio((rec.total_ns("core.stage"), sum.rows)),
    );
    pass.layer("sim.host_ns_per_uop", ratio((execute_ns, sum.uops)));
    pass.layer("sim.host_ns_per_cycle", ratio((execute_ns, sum.cycles)));
    pass.layer("sim.avg_vl", ratio(sum.vector));
    for (ns_per_row, cpt, short) in [
        ("core.scalar.ns_per_row", "core.scalar.cpt", "scalar"),
        ("core.ssr.ns_per_row", "core.ssr.cpt", "ssr"),
        ("core.poly.ns_per_row", "core.poly.cpt", "poly"),
        ("core.asr.ns_per_row", "core.asr.cpt", "asr"),
        ("core.mono.ns_per_row", "core.mono.cpt", "mono"),
        ("core.psm.ns_per_row", "core.psm.cpt", "psm"),
    ] {
        let a = &per_alg[short];
        pass.layer(ns_per_row, ratio((a.host_ns, a.rows)));
        pass.layer(cpt, geomean(&a.cpt));
    }
    pass.threads.push(rec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_documented_85_cells() {
        let cells = grid(Scale::Full);
        assert_eq!(cells.len(), 6 * 5 * 3 - 5);
        assert!(!cells
            .iter()
            .any(|c| c.algorithm == Algorithm::Polytable && c.cardinality == HIGH));
        assert_eq!(grid(Scale::Smoke).len(), cells.len());
    }

    #[test]
    fn traced_and_untraced_passes_agree_on_simulated_cycles() {
        let plain = pass(3, Scale::Smoke, false);
        let traced = pass(3, Scale::Smoke, true);
        assert_eq!(plain.failed + traced.failed, 0);
        assert_eq!(plain.sim_cycles, traced.sim_cycles);
        assert_eq!(plain.ops.len(), 85);
        assert_eq!(traced.threads.len(), 1);
        assert!(traced
            .layers
            .iter()
            .any(|(n, v)| *n == "core.psm.cpt" && *v > 0.0));
    }
}
