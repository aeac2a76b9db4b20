//! Drives the built harness end to end at `--smoke` scale: all five
//! workloads with every oracle check, one traced run with every
//! per-layer metric, and the ways an invocation must fail.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vagg-benchmark"))
        .args(args)
        .output()
        .expect("start the harness")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// The `"name"` values of one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    let metrics = declared("end_to_end");
    assert_eq!(metrics.len(), 7);
    for workload in declared("workloads") {
        let out = harness(&[
            "--workload",
            &workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        let line = last_line(&out);
        assert!(out.status.success(), "{workload}: {line}");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
        for metric in &metrics {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{workload} lacks {metric}"
            );
        }
        assert!(
            !line.contains("NaN") && !line.contains("inf"),
            "{workload}: {line}"
        );
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
    let out = harness(&[
        "--workload",
        "ingest_wal",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    let line = last_line(&out);
    assert!(out.status.success(), "{line}");
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    let layers = declared("per_layer");
    assert_eq!(layers.len(), 81);
    for metric in &layers {
        assert!(
            line.contains(&format!("\"{metric}\": {{\"value\": ")),
            "traced run lacks {metric}"
        );
    }
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-ingest_wal.jsonl");
    let spans = std::fs::read_to_string(trace).expect("the traced run wrote its spans");
    assert!(spans
        .lines()
        .next()
        .is_some_and(|l| l.contains("\"name\":\"harness.loop\"")));
}

#[test]
fn a_bad_invocation_exits_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "kernels", "--trace", "2"],
        &["--workload", "kernels", "--seconds"],
        &["compare", "only-one.json"],
    ] {
        let out = harness(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!last_line(&out).starts_with('{'), "{args:?}");
    }
}
