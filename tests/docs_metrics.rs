//! README.md, ARCHITECTURE.md and ROADMAP.md cite performance by the
//! names of `BENCHMARK.json`'s metrics — one ruler. This holds them to
//! it: every backticked `layer.metric` token in any of the three
//! (`{a,b}` groups expanded, `*` matched as a glob; a source file's name
//! such as `server.rs` is not one) names a metric the manifest declares,
//! and README and ARCHITECTURE do not mention the retired root
//! `BENCH_*.json` files (ROADMAP records their retirement). Read-only on
//! all four.

use std::collections::BTreeSet;

/// The per-layer prefixes of `BENCHMARK.json`: a code span that starts
/// with one of these and a dot is read as a metric citation.
const LAYERS: [&str; 10] = [
    "harness", "datagen", "isa", "mem", "cpu", "sim", "sort", "core", "db", "server",
];

fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every `"name"` of the manifest's `end_to_end` and `per_layer` lists
/// (the workload names come before them and are not metrics).
fn manifest_metrics() -> BTreeSet<String> {
    let manifest = read("BENCHMARK.json");
    let lists = &manifest[manifest
        .find("\"end_to_end\"")
        .expect("BENCHMARK.json has an end_to_end list")..];
    assert!(lists.contains("\"per_layer\""), "and a per_layer list");
    lists
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The inline code spans of a markdown text, fenced blocks skipped,
/// whitespace (a span may wrap across a line break) removed.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split_whitespace().collect())
        .collect()
}

/// Whether a code span is spelled like a metric citation: a layer
/// prefix, a dot, then only what metric names, groups and globs use —
/// and more than a file extension (`server.rs` is a file of the crate
/// the `server` layer measures).
fn is_citation(span: &str) -> bool {
    span.split_once('.').is_some_and(|(layer, rest)| {
        LAYERS.contains(&layer)
            && !rest.is_empty()
            && rest != "rs"
            && rest
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.{},*".contains(c))
    })
}

/// `a.{b,c}_d` → `a.b_d`, `a.c_d` (leftmost group first, recursively).
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("unclosed { in a citation");
    let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// Glob match where `*` stands for any run of characters.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head) && (head.len()..=name.len()).any(|cut| glob(tail, &name[cut..]))
        }
    }
}

#[test]
fn every_metric_the_docs_cite_is_in_the_manifest() {
    let metrics = manifest_metrics();
    assert!(metrics.contains("db.wal.append_overhead_pct") && metrics.contains("ops_per_s"));
    for doc in ["README.md", "ARCHITECTURE.md", "ROADMAP.md"] {
        let text = read(doc);
        assert!(
            doc == "ROADMAP.md" || !text.contains("BENCH_"),
            "{doc} cites a retired BENCH_*.json file; cite the BENCHMARK.json metric instead"
        );
        let cited: Vec<String> = code_spans(&text)
            .into_iter()
            .filter(|span| is_citation(span))
            .collect();
        assert!(!cited.is_empty(), "{doc} cites no metric at all");
        for span in cited {
            for name in expand(&span) {
                assert!(
                    metrics.iter().any(|m| glob(&name, m)),
                    "{doc} cites `{span}`, but BENCHMARK.json declares no metric `{name}`"
                );
            }
        }
    }
}

#[test]
fn the_citation_grammar_reads_groups_and_globs() {
    assert_eq!(
        expand("mem.{l1,l2}_hit_rate"),
        ["mem.l1_hit_rate", "mem.l2_hit_rate"]
    );
    assert_eq!(expand("db.{a,b}.{c,d}").len(), 4);
    assert!(glob("core.*.cpt", "core.mono.cpt") && glob("db.wal.*", "db.wal.recover_ms"));
    assert!(!glob("core.*.cpt", "core.mono.ns_per_row") && !glob("db.wal", "db.wal.recover_ms"));
    assert!(is_citation("server.scaling_2v1") && is_citation("db.delta.{append_us,read_ms}"));
    assert!(!is_citation("db.metrics()") && !is_citation("tests/server.rs"));
    assert!(!is_citation("server.rs") && is_citation("server.rs_per_op"));
    assert_eq!(
        code_spans("a `x.y` b\n```\n`skipped`\n```\n`db.wal.{a,\n  b}`"),
        ["x.y", "db.wal.{a,b}"]
    );
}
