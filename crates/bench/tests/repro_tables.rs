//! The paper's tables, pinned: `repro all` on a reduced grid must write
//! exactly the markdown tables and CSV series committed under
//! `crates/bench/tables/`, byte for byte (the SVG plots are not pinned).
//!
//! The grid is 4 096 rows per dataset and the cardinalities up to
//! 40 000, which covers the low, low-normal and high-normal divisions
//! and runs in seconds. The full sweep stays a command. A change to the
//! model shows in review as a diff of these files; a change that moves
//! them on purpose regenerates them, from the repository root, with
//!
//! ```text
//! cargo run --release -p vagg-bench --bin repro -- all --rows 4096 --cards-max 40000 --out crates/bench/tables && rm crates/bench/tables/*.svg
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, Output};
use vagg_db::TempDir;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro(args: &[&str], out: &Path) -> Output {
    Command::new(REPRO)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run repro")
}

/// The `.md` and `.csv` files directly under `dir`, by name.
fn tables(dir: &Path) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read table dir") {
        let path = entry.expect("table dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name")
            .to_string();
        if name.ends_with(".md") || name.ends_with(".csv") {
            files.insert(name, fs::read_to_string(&path).expect("read table"));
        }
    }
    files
}

/// The 1-based number and both sides of the first line where `a` and
/// `b` differ; a missing line reads as `<end of file>`.
fn first_difference<'a>(a: &'a str, b: &'a str) -> (usize, &'a str, &'a str) {
    let (mut a, mut b) = (a.split('\n'), b.split('\n'));
    for n in 1.. {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                return (
                    n,
                    x.unwrap_or("<end of file>"),
                    y.unwrap_or("<end of file>"),
                )
            }
        }
    }
    unreachable!("line numbers run out before two strings do")
}

#[test]
fn reduced_grid_tables_match_the_pinned_copies() {
    let dir = TempDir::new("repro-tables");
    let out = repro(
        &["all", "--rows", "4096", "--cards-max", "40000"],
        dir.path(),
    );
    assert!(
        out.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let pinned = tables(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tables"));
    let written = tables(dir.path());
    let names = |m: &BTreeMap<String, String>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(
        names(&written),
        names(&pinned),
        "repro writes a different set of tables than crates/bench/tables holds"
    );
    let diffs: Vec<String> = written
        .iter()
        .filter(|&(name, text)| *text != pinned[name])
        .map(|(name, text)| {
            let (line, got, want) = first_difference(text, &pinned[name]);
            format!(
                "{name} differs from crates/bench/tables/{name} at line {line}:\n  \
                 written: {got}\n  pinned:  {want}"
            )
        })
        .collect();
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

#[test]
fn out_of_range_arguments_are_usage_errors() {
    let dir = TempDir::new("repro-args");
    let out_dir = dir.path().join("out");
    for args in [
        &["fig16", "--rows", "0"][..],
        &["multicore", "--rows", "0"],
        &["table9", "--rows", "4096", "--cards-max", "1"],
    ] {
        let out = repro(args, &out_dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(
            !out_dir.exists(),
            "repro {args:?} wrote {}",
            out_dir.display()
        );
    }
}
