//! `run`: the whole benchmark in one command, the way the driver runs
//! it. Every workload runs as several rounds, interleaved across
//! workloads (w1 w2 … w5, w1 …) so a minute of host noise lands on one
//! round of each rather than on every round of one; each round is a
//! fresh child process of this harness, so `peak_rss_mb` is per
//! workload. A metric's value is the median of its round values, with
//! min and max beside it. One traced round per workload follows.

use crate::json::{self, Value};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max, quartile_spread};
use crate::workloads::Scale;
use crate::{host, Failure};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

pub struct Plan {
    pub seed: u64,
    pub rounds: usize,
    pub seconds: u64,
    /// Round `i` uses `seed + i`: the builder contract's steadiness
    /// check (ten runs, ten seeds). Off, every round uses `seed` and
    /// simulated counters must repeat bit for bit across rounds.
    pub vary_seed: bool,
    pub scale: Scale,
    /// Result file, for `compare`; under `benchmark/out/` by default.
    pub out: Option<String>,
}

/// What one child run printed on its last line.
struct Round {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn child(plan: &Plan, workload: Workload, seed: u64, trace: bool) -> Result<Round, Failure> {
    let exe = std::env::current_exe().map_err(|e| Failure(format!("current_exe: {e}")))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if plan.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child and collects what it printed.
    let output = command
        .output()
        .map_err(|e| Failure(format!("start a round of {}: {e}", workload.name())))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("# FAILED") || l.starts_with("# BROKEN"))
    {
        println!("{line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = json::parse(last).map_err(|e| {
        Failure(format!(
            "{} printed no result line ({e}); stderr: {}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr).trim()
        ))
    })?;
    let field = |key: &str| parsed.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = parsed
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| Failure("result line without metrics".into()))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Round {
        correct: parsed.get("correct") == Some(&Value::Bool(true)),
        attempted: field("attempted"),
        failed: field("failed"),
        metrics,
    })
}

/// `{"median": …, "min": …, "max": …, "values": […]}`.
fn summary_json(values: &[f64]) -> String {
    let (lo, hi) = min_max(values);
    let list: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
    format!(
        "{{\"median\": {}, \"min\": {}, \"max\": {}, \"values\": [{}]}}",
        json::number(median(values)),
        json::number(lo),
        json::number(hi),
        list.join(", ")
    )
}

pub fn run(plan: Plan) -> Result<(), Failure> {
    if plan.rounds == 0 {
        return Err(Failure("--rounds must be at least 1".into()));
    }
    let stamp = host::stamp();
    for (key, value) in &stamp {
        println!("# {key}: {value}");
    }
    println!(
        "# seed: {}{}  rounds: {}  seconds per round: {}  scale: {:?}",
        plan.seed,
        if plan.vary_seed { " + round" } else { "" },
        plan.rounds,
        plan.seconds,
        plan.scale
    );

    let mut broken = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut note = |w: Workload, what: &str, r: &Round| {
        attempted += r.attempted;
        failed += r.failed;
        if !r.correct {
            broken.push(format!(
                "{} {what}: {} of {} operations failed or a check broke",
                w.name(),
                r.failed,
                r.attempted
            ));
        }
    };

    // (workload, metric) → one value per round.
    let mut end_to_end: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    let mut calib = Vec::new();
    for round in 0..plan.rounds {
        let seed = plan.seed + if plan.vary_seed { round as u64 } else { 0 };
        calib.push(host::calib_ms());
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            println!(
                "# round {} of {}: {} (seed {seed})",
                round + 1,
                plan.rounds,
                workload.name()
            );
            let r = child(&plan, workload, seed, false)?;
            note(workload, &format!("round {}", round + 1), &r);
            for m in &END_TO_END {
                let value = r.metrics.get(m.name).copied().unwrap_or(f64::NAN);
                end_to_end.entry((w, m.name)).or_default().push(value);
            }
        }
    }

    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut overhead: Vec<f64> = Vec::new();
    for workload in Workload::ALL {
        println!("# traced round: {}", workload.name());
        let r = child(&plan, workload, plan.seed, true)?;
        note(workload, "traced round", &r);
        for m in &PER_LAYER {
            let value = r.metrics.get(m.name).copied().unwrap_or(f64::NAN);
            if m.name == "harness.trace_overhead_pct" {
                overhead.push(value);
            } else {
                per_layer.entry(m.name).or_default().push(value);
            }
        }
    }

    // Determinism guard: with one seed, simulated counters repeat
    // across rounds (each round a separate process) bit for bit.
    if !plan.vary_seed {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let cycles = &end_to_end[&(w, "sim_cycles_per_op")];
            if workload.exact_cycles() && cycles.iter().any(|c| c.to_bits() != cycles[0].to_bits())
            {
                broken.push(format!(
                    "sim_cycles_per_op@{} differs between rounds of one seed: {cycles:?}",
                    workload.name()
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let values = &per_layer[m.name];
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                broken.push(format!(
                    "{} differs between traced rounds of one seed: {values:?}",
                    m.name
                ));
            }
        }
    }

    println!();
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>14} {:>8}  unit (clock)",
        "workload", "metric", "median", "min", "max", "spread"
    );
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"stamp\": {{");
    for (key, value) in &stamp {
        let _ = writeln!(out, "    {}: {},", json::quote(key), json::quote(value));
    }
    let calib_list: Vec<String> = calib.iter().map(|c| json::number(*c)).collect();
    let _ = writeln!(
        out,
        "    \"calib_ms_per_round\": [{}]\n  }},",
        calib_list.join(", ")
    );
    let _ = writeln!(
        out,
        "  \"seed\": {}, \"vary_seed\": {}, \"rounds\": {}, \"seconds\": {}, \"scale\": \"{:?}\",",
        plan.seed, plan.vary_seed, plan.rounds, plan.seconds, plan.scale
    );
    out.push_str("  \"end_to_end\": {\n");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let _ = writeln!(out, "    {}: {{", json::quote(workload.name()));
        for (i, m) in END_TO_END.iter().enumerate() {
            let values = &end_to_end[&(w, m.name)];
            let (lo, hi) = min_max(values);
            let spread =
                quartile_spread(values).map_or("-".into(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<12} {:<20} {:>14.4} {:>14.4} {:>14.4} {:>8}  {} ({}), n={}",
                workload.name(),
                m.name,
                median(values),
                lo,
                hi,
                spread,
                m.unit,
                m.clock,
                values.len()
            );
            let _ = writeln!(
                out,
                "      {}: {}{}",
                json::quote(m.name),
                summary_json(values),
                if i + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "    }}{}",
            if w + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    out.push_str("  },\n  \"per_layer\": {\n");
    println!();
    for m in PER_LAYER
        .iter()
        .filter(|m| m.name != "harness.trace_overhead_pct")
    {
        let values = &per_layer[m.name];
        let (lo, hi) = min_max(values);
        println!(
            "{:<12} {:<36} {:>14.4} {:>14.4} {:>14.4}  {}, n={}",
            "layer",
            m.name,
            median(values),
            lo,
            hi,
            m.unit,
            values.len()
        );
        let _ = writeln!(
            out,
            "    {}: {},",
            json::quote(m.name),
            summary_json(values)
        );
    }
    let _ = writeln!(out, "    \"harness.trace_overhead_pct\": {{");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        println!(
            "{:<12} {:<36} {:>14.4}  %",
            workload.name(),
            "harness.trace_overhead_pct",
            overhead[w]
        );
        let _ = writeln!(
            out,
            "      {}: {}{}",
            json::quote(workload.name()),
            json::number(overhead[w]),
            if w + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "    }}\n  }},");
    let _ = writeln!(
        out,
        "  \"attempted\": {attempted}, \"failed\": {failed}, \"failed_share\": {},",
        json::number(failed as f64 / attempted.max(1) as f64)
    );
    out.push_str("  \"claim\": null\n}\n");

    let path = match &plan.out {
        Some(path) => std::path::PathBuf::from(path),
        None => host::out_dir().join(format!("run-seed{}.json", plan.seed)),
    };
    std::fs::write(&path, out).map_err(|e| Failure(format!("write {}: {e}", path.display())))?;
    println!();
    println!("# failed_share: {failed} of {attempted} operations");
    println!("# wrote {}", path.display());
    for b in &broken {
        println!("# BROKEN {b}");
    }
    if failed == 0 && broken.is_empty() {
        Ok(())
    } else {
        Err(Failure(format!(
            "{failed} failed operations, {} broken checks",
            broken.len()
        )))
    }
}
