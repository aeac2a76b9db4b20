//! One benchmark run: passes of one workload until the time is up,
//! folded into the metrics the builder contract asks for and printed
//! as one JSON object on the last line of standard output.

use crate::host::{self, out_dir};
use crate::json;
use crate::span::coverage;
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::workloads::{self, loop_seconds, Op, Pass, Scale};
use crate::{replays, Failure};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A run never reports from fewer passes than this, however short
/// `--seconds` is: a median of one is no median.
const MIN_PASSES: usize = 3;

/// What the driver asked for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
}

/// Metric name → (value, unit), in name order.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks beyond the per-operation oracle that did not hold: a
    /// counter that must repeat exactly and did not, a span tree that
    /// does not add up, a metric nothing measured.
    pub broken: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    /// `Ok` when every operation and every check held; the process
    /// exits non-zero otherwise.
    pub fn verdict(&self) -> Result<(), Failure> {
        if self.correct() {
            Ok(())
        } else {
            Err(Failure(format!(
                "{} failed operations, {} broken checks",
                self.failed,
                self.broken.len()
            )))
        }
    }

    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs passes of `request.workload` until `request.seconds` have gone
/// by since `started`, at least `at_least` of them; `traced` says for
/// each pass index whether it records spans. A pass is started only
/// if, going by the passes so far, at least half of it fits before the
/// time is up — so runs end at `--seconds` on average, not a pass late.
fn passes_until(
    request: Request,
    started: Instant,
    at_least: usize,
    traced: impl Fn(usize) -> bool,
) -> Vec<(bool, Pass)> {
    let budget = Duration::from_secs(request.seconds);
    let first = Instant::now();
    let mut passes = Vec::new();
    loop {
        let t = traced(passes.len());
        passes.push((
            t,
            workloads::pass(request.workload, request.seed, request.scale, t),
        ));
        let mean_pass = first.elapsed() / passes.len() as u32;
        if passes.len() >= at_least && started.elapsed() + mean_pass / 2 > budget {
            return passes;
        }
    }
}

/// Adds a pass's operations and failures to the outcome, printing what
/// failed.
fn count(outcome: &mut Outcome, workload: Workload, pass: &Pass) {
    outcome.attempted += pass.ops.len() as u64;
    outcome.failed += pass.failed;
    for failure in &pass.failures {
        println!("# FAILED {} {failure}", workload.name());
    }
}

/// Every operation of the list at its *repeatable* latency: the first
/// quartile, over `passes`, of its calibrated latency.
///
/// What is left of the host's noise once the clock is calibrated is
/// one-sided and bursty — the thread is descheduled for a few
/// milliseconds, a neighbour floods the cache — so a low quantile over
/// the passes estimates what an operation costs far more steadily than
/// its median does. A quantile rather than the smallest or a fixed
/// rank: a burst that lands inside a reference chunk makes the
/// operations beside it read too fast, and the more passes a run has
/// the more of those the low ranks collect (README, "The noise
/// finding").
fn repeatable_ops(passes: &[&Pass]) -> Vec<Op> {
    let shortest = passes.iter().map(|p| p.ops.len()).min().unwrap_or(0);
    let over = |i: usize, f: fn(&Op) -> f64| {
        percentile(
            &passes.iter().map(|p| f(&p.ops[i])).collect::<Vec<_>>(),
            25.0,
        )
    };
    (0..shortest)
        .map(|i| Op {
            ms: over(i, |o| o.ms),
            wall_ms: over(i, |o| o.wall_ms),
            ..passes[0].ops[i]
        })
        .collect()
}

/// The end-to-end metrics of a run's untraced passes. Host times are
/// calibrated ([`crate::workloads::Clock`]): throughput and latency
/// percentiles are taken over the operation list with each operation
/// at its repeatable latency over the passes, set-up is the median
/// over passes, simulated cycles are as counted (and identical in every
/// pass where they must be).
fn end_to_end(workload: Workload, passes: &[&Pass], outcome: &mut Outcome) {
    let over = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    if passes.iter().any(|p| p.ops.len() != passes[0].ops.len()) {
        outcome.broken.push(format!(
            "{}: passes of one seed ran different operation lists",
            workload.name()
        ));
    }
    if workload.exact_cycles() && passes.iter().any(|p| p.sim_cycles != passes[0].sim_cycles) {
        let seen: Vec<u64> = passes.iter().map(|p| p.sim_cycles).collect();
        outcome.broken.push(format!(
            "sim_cycles_per_op@{} must repeat exactly across passes, saw {seen:?}",
            workload.name()
        ));
    }
    let ops = repeatable_ops(passes);
    let primary: Vec<f64> = ops.iter().filter(|o| o.primary).map(|o| o.ms).collect();
    let on_the_wall: Vec<Op> = ops
        .iter()
        .map(|o| Op {
            ms: o.wall_ms,
            ..*o
        })
        .collect();
    println!(
        "# {} operations per pass, latency percentiles over {} of them",
        ops.len(),
        primary.len()
    );
    println!(
        "# {} uncalibrated, on the wall clock: {:.4} ops/s",
        workload.name(),
        ops.len() as f64 / loop_seconds(&on_the_wall)
    );
    let values = [
        ("setup_s", over(&|p| p.setup_s)),
        ("ops_per_s", ops.len() as f64 / loop_seconds(&ops)),
        ("p50_ms", percentile(&primary, 50.0)),
        ("p90_ms", percentile(&primary, 90.0)),
        ("p99_ms", percentile(&primary, 99.0)),
        (
            "sim_cycles_per_op",
            over(&|p| p.sim_cycles as f64 / p.ops.len().max(1) as f64),
        ),
        ("peak_rss_mb", host::peak_rss_mb()),
    ];
    for (spec, (name, value)) in END_TO_END.iter().zip(values) {
        assert_eq!(spec.name, name, "metric tables out of step");
        outcome.metrics.insert(name, (value, spec.unit));
    }
}

/// Checks a traced pass's span trees and writes them out.
fn check_spans(workload: Workload, pass: &Pass, outcome: &mut Outcome) {
    let mut jsonl = String::new();
    for (thread, rec) in pass.threads.iter().enumerate() {
        let c = coverage(rec.spans(), (pass.reference_ms[thread] * 1e6) as u64);
        println!(
            "# spans {} thread {thread}: {} spans, {:.1}% of the loop inside layer calls, self times off the root by {:.3}%",
            workload.name(),
            rec.spans().len(),
            c.layer_share * 100.0,
            c.self_time_gap * 100.0
        );
        if c.layer_share < 0.9 || c.self_time_gap > 0.01 {
            outcome.broken.push(format!(
                "{} thread {thread}: layer spans cover {:.1}% of the loop (need 90%), self times miss the root by {:.2}% (allowed 1%)",
                workload.name(),
                c.layer_share * 100.0,
                c.self_time_gap * 100.0
            ));
        }
        jsonl.push_str(&rec.to_jsonl(thread));
    }
    let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = std::fs::write(&path, jsonl) {
        outcome
            .broken
            .push(format!("write {}: {e}", path.display()));
    }
}

/// Folds the layer metrics of a workload's traced passes: the median
/// over passes, and bit-identical values where the metric is exact.
fn fold_layers(workload: Workload, passes: &[&Pass], outcome: &mut Outcome) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (name, value) in &pass.layers {
            by_name.entry(name).or_default().push(*value);
        }
    }
    for (name, values) in by_name {
        let spec = spec::layer(name);
        if spec.exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            outcome.broken.push(format!(
                "{name}@{} must repeat exactly across passes, saw {values:?}",
                workload.name()
            ));
        }
        outcome.metrics.insert(name, (median(&values), spec.unit));
    }
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn untraced(request: Request, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let passes = passes_until(request, started, MIN_PASSES, |_| false);
    let passes: Vec<&Pass> = passes.iter().map(|(_, p)| p).collect();
    for pass in &passes {
        count(&mut outcome, request.workload, pass);
    }
    println!("# {} untraced passes", passes.len());
    let loops: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", loop_seconds(&p.ops)))
        .collect();
    println!("# calibrated loop seconds per pass: {}", loops.join(" "));
    end_to_end(request.workload, &passes, &mut outcome);
    outcome
}

/// `--trace 1`: every per-layer metric. The layer replays and one
/// traced pass of each *other* workload run first, so that every layer
/// is measured in every traced run, always at the same scale and by
/// the same definition; the rest of the time (two pairs at least) goes
/// to the named workload, alternating untraced and traced passes — the difference
/// between the two is the tracing overhead.
fn traced(request: Request, started: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    for (name, value) in replays::all() {
        outcome
            .metrics
            .insert(name, (value, spec::layer(name).unit));
    }
    for other in Workload::ALL {
        if other != request.workload {
            let pass = workloads::pass(other, request.seed, request.scale, true);
            count(&mut outcome, other, &pass);
            check_spans(other, &pass, &mut outcome);
            fold_layers(other, &[&pass], &mut outcome);
        }
    }

    // U T T U …: two pairs at least, ordered so that a steady drift of
    // the host falls on both kinds alike.
    let passes = passes_until(request, started, 4, |i| matches!(i % 4, 1 | 2));
    let of = |traced: bool| -> Vec<&Pass> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p)
            .collect()
    };
    let (plain, with_spans) = (of(false), of(true));
    println!(
        "# {} untraced and {} traced passes",
        plain.len(),
        with_spans.len()
    );
    for pass in plain.iter().chain(&with_spans) {
        count(&mut outcome, request.workload, pass);
    }
    check_spans(
        request.workload,
        with_spans.last().expect("at least one traced pass"),
        &mut outcome,
    );
    fold_layers(request.workload, &with_spans, &mut outcome);
    let loop_s = |passes: &[&Pass]| loop_seconds(&repeatable_ops(passes));
    outcome.metrics.insert(
        "harness.trace_overhead_pct",
        ((loop_s(&with_spans) / loop_s(&plain) - 1.0) * 100.0, "%"),
    );

    for spec in &PER_LAYER {
        if !outcome.metrics.contains_key(spec.name) {
            outcome
                .broken
                .push(format!("{} was not measured", spec.name));
        }
    }
    outcome
}

/// Runs one request, prints the stamp, every metric by name and the
/// contract's result line, and says whether every check held.
pub fn run(request: Request) -> Result<(), Failure> {
    let started = Instant::now();
    for (key, value) in host::stamp() {
        println!("# {key}: {value}");
    }
    let (one, two) = host::calib_pair_ms();
    println!("# calib_ms: {one:.3} on one thread, {two:.3} on two threads at once");
    println!(
        "# workload: {} (one op = {})",
        request.workload.name(),
        request.workload.operation()
    );
    println!(
        "# seed: {}  seconds: {}  trace: {}  scale: {:?}",
        request.seed, request.seconds, request.trace as u8, request.scale
    );
    let outcome = if request.trace {
        traced(request, started)
    } else {
        untraced(request, started)
    };
    for (name, (value, unit)) in &outcome.metrics {
        println!("{} {name} {value} {unit}", request.workload.name());
    }
    for broken in &outcome.broken {
        println!("# BROKEN {broken}");
    }
    println!("# wall: {:.1} s", started.elapsed().as_secs_f64());
    println!("{}", outcome.to_json());
    outcome.verdict()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(failed: u64, broken: &[&str]) -> Outcome {
        Outcome {
            attempted: 10,
            failed,
            broken: broken.iter().map(|b| b.to_string()).collect(),
            metrics: Metrics::from([("p50_ms", (1.25, "ms"))]),
        }
    }

    #[test]
    fn a_failed_operation_or_a_broken_check_fails_the_run() {
        assert!(outcome(0, &[]).verdict().is_ok());
        assert!(outcome(1, &[]).verdict().is_err());
        assert!(outcome(0, &["cycles differ"]).verdict().is_err());
        assert_eq!(
            outcome(1, &[]).to_json(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    fn pass(ms: &[f64], cycles: u64) -> Pass {
        Pass {
            sim_cycles: cycles,
            setup_s: 0.5,
            ops: ms
                .iter()
                .map(|&ms| Op {
                    ms,
                    wall_ms: ms * 1.5,
                    lane: 0,
                    primary: true,
                })
                .collect(),
            ..Pass::default()
        }
    }

    #[test]
    fn cycles_that_differ_between_passes_break_an_exact_workload_only() {
        let (a, b) = (pass(&[250.0; 4], 100), pass(&[250.0; 4], 104));
        let mut exact = outcome(0, &[]);
        end_to_end(Workload::SqlSingle, &[&a, &b], &mut exact);
        assert!(exact.broken[0].contains("sim_cycles_per_op@sql_single"));
        let mut racy = outcome(0, &[]);
        end_to_end(Workload::SqlSharded, &[&a, &b], &mut racy);
        assert!(racy.broken.is_empty());
        assert_eq!(racy.metrics["sim_cycles_per_op"].0, 25.5);
        assert_eq!(racy.metrics["ops_per_s"].0, 4.0);
    }

    #[test]
    fn each_operation_counts_at_its_first_quartile_latency_over_the_passes() {
        // One pass was disturbed at its second and fourth operation;
        // another has one sample that reads too good to be true. With
        // five passes the first quartile is the second smallest.
        let a = pass(&[10.0, 20.0, 30.0, 40.0], 8);
        let b = pass(&[11.0, 90.0, 31.0, 95.0], 8);
        let c = pass(&[12.0, 22.0, 9.0, 38.0], 8);
        let d = pass(&[13.0, 23.0, 32.0, 41.0], 8);
        let e = pass(&[14.0, 24.0, 33.0, 42.0], 8);
        let passes = [&a, &b, &c, &d, &e];
        let ops = repeatable_ops(&passes);
        assert_eq!(
            ops.iter().map(|o| o.ms).collect::<Vec<_>>(),
            [11.0, 22.0, 30.0, 40.0]
        );
        assert_eq!(ops[0].wall_ms, 16.5);
        let mut out = outcome(0, &[]);
        end_to_end(Workload::Kernels, &passes, &mut out);
        assert!(out.broken.is_empty());
        assert!((out.metrics["ops_per_s"].0 - 4.0 / 0.103).abs() < 1e-9);
        assert_eq!(out.metrics["p50_ms"].0, 22.0);
        assert_eq!(out.metrics["p99_ms"].0, 40.0);
        assert_eq!(out.metrics["setup_s"].0, 0.5);
        // A pass that ran a different list breaks the run.
        let short = pass(&[10.0], 8);
        end_to_end(Workload::Kernels, &[&a, &short], &mut out);
        assert!(out.broken[0].contains("different operation lists"));
    }
}
