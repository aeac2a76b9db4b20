//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! of two `run` result files, with a verdict against the bound the
//! benchmark fixed.

use crate::json::{self, Value};
use crate::spec::{Better, Workload, END_TO_END};
use crate::Failure;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread between rounds is wider than the bound and the two
    /// ranges overlap: the runs cannot tell a regression of the size
    /// the bound forbids from noise. Not "unchanged" — run more rounds,
    /// or on a quieter host.
    Unresolved,
}

/// One side of a comparison: a metric's median and range over rounds.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn spread(self) -> f64 {
        (self.max - self.min) / self.median.abs()
    }
}

/// By how much `b` is worse than `a`, as a share of `a`'s median
/// (negative when better).
pub fn worsening(better: Better, a: Side, b: Side) -> f64 {
    let change = (b.median - a.median) / a.median.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(better: Better, bound: f64, a: Side, b: Side) -> Verdict {
    let every_b_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    if every_b_better {
        Verdict::Better
    } else if overlap && a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worsening(better, a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| Failure(format!("read {path}: {e}")))?;
    json::parse(&text).map_err(|e| Failure(format!("{path}: {e}")))
}

fn side(file: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = file.get("end_to_end")?.get(workload)?.get(metric)?;
    let f = |key| m.get(key).and_then(Value::as_f64);
    Some(Side {
        median: f("median")?,
        min: f("min")?,
        max: f("max")?,
    })
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), Failure> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    // One seed for every round, and the same one, seconds and scale in
    // both files: only then must a simulated count repeat exactly.
    let same_inputs = ["seed", "seconds", "scale"]
        .iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k))
        && [&a, &b]
            .iter()
            .all(|f| f.get("vary_seed") == Some(&Value::Bool(false)));
    println!("# A: {path_a}\n# B: {path_b}");
    if !same_inputs {
        println!("# the two files were not made from one and the same seed, seconds and scale: simulated cycles are held to their bound, not to equality");
    }
    println!(
        "{:<12} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A min..max", "B median", "B min..max", "delta", "bound"
    );
    let mut worse = 0;
    for workload in Workload::ALL {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(&a, workload.name(), m.name),
                side(&b, workload.name(), m.name),
            ) else {
                return Err(Failure(format!(
                    "{}@{} is missing from a file",
                    m.name,
                    workload.name()
                )));
            };
            // With identical inputs a deterministic simulated count
            // either repeats exactly or has changed.
            let exact = same_inputs && m.clock == "simulated" && workload.exact_cycles();
            let bound = if exact { 0.0 } else { m.bound };
            let v = verdict(m.better, bound, sa, sb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<12} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.2}% {:>5.1}%  {}",
                workload.name(),
                m.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.min, sa.max),
                sb.median,
                format!("{:.4}..{:.4}", sb.min, sb.max),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    if worse == 0 {
        Ok(())
    } else {
        Err(Failure(format!("{worse} metric(s) worse than their bound")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, min: f64, max: f64) -> Side {
        Side { median, min, max }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = side(100.0, 98.0, 102.0);
        use Better::{Higher, Lower};
        // Inside the bound.
        assert_eq!(
            verdict(Lower, 0.1, a, side(104.0, 101.0, 106.0)),
            Verdict::Same
        );
        // Past the bound, tight ranges.
        assert_eq!(
            verdict(Lower, 0.1, a, side(115.0, 113.0, 117.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Higher, 0.1, a, side(85.0, 84.0, 86.0)),
            Verdict::Worse
        );
        // Every run of B better than every run of A.
        assert_eq!(
            verdict(Lower, 0.1, a, side(90.0, 89.0, 91.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(Higher, 0.1, a, side(110.0, 109.0, 111.0)),
            Verdict::Better
        );
        // Spread wider than the bound and overlapping ranges.
        let noisy = side(103.0, 90.0, 120.0);
        assert_eq!(verdict(Lower, 0.1, a, noisy), Verdict::Unresolved);
        // Wide spread but every run better still counts as better.
        assert_eq!(
            verdict(Lower, 0.1, side(100.0, 90.0, 115.0), side(70.0, 60.0, 80.0)),
            Verdict::Better
        );
        // An exact metric: any increase is worse, equality is same.
        let exact = side(5.0, 5.0, 5.0);
        assert_eq!(verdict(Lower, 0.0, exact, exact), Verdict::Same);
        assert_eq!(
            verdict(Lower, 0.0, exact, side(5.001, 5.001, 5.001)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Lower, 0.0, exact, side(4.9, 4.9, 4.9)),
            Verdict::Better
        );
    }

    /// A result file in which every metric of every workload reads
    /// `value` in all three rounds.
    fn result_file(dir: &crate::host::ScratchDir, name: &str, value: f64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"median\": {value}, \"min\": {value}, \"max\": {value}}}",
                    m.name
                )
            })
            .collect();
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| format!("\"{}\": {{{}}}", w.name(), metrics.join(", ")))
            .collect();
        let text = format!(
            "{{\"seed\": 1, \"vary_seed\": false, \"seconds\": 15, \"scale\": \"Full\", \"end_to_end\": {{{}}}}}",
            workloads.join(", ")
        );
        let path = dir.path().join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compare_reads_result_files_and_fails_on_a_regression() {
        let dir = crate::host::ScratchDir::new("compare-test");
        let a = result_file(&dir, "a.json", 100.0);
        let slower = result_file(&dir, "b.json", 130.0);
        assert!(run(&a, &a).is_ok());
        // Higher is worse for six of the seven metrics.
        let Err(Failure(why)) = run(&a, &slower) else {
            panic!("a 30 % regression must fail")
        };
        assert_eq!(why, "30 metric(s) worse than their bound");
        assert!(run(&a, "no-such-file.json").is_err());
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        let (a, b) = (side(100.0, 100.0, 100.0), side(110.0, 110.0, 110.0));
        assert!((worsening(Better::Lower, a, b) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, a, b) + 0.1).abs() < 1e-12);
    }
}
