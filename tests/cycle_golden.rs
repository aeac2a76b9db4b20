//! Golden cycle fingerprint: the simulated machine's counters for a
//! fixed set of runs, held to the files under `tests/golden/`.
//!
//! Every other timing test in the suite is relational (`big < small`);
//! none would notice a one-cycle drift. This one does: a change meant
//! only to make the *simulator* faster on the host must leave every
//! pinned counter untouched. Each file is one group of runs: a header
//! naming the counters, then one row per run. A mismatch names the
//! file, the run and the counter that moved. A change that moves the
//! model on purpose rewrites the files with
//!
//! ```text
//! cargo test --release --test cycle_golden -- --ignored write_golden
//! ```
//!
//! and the moved counters show in review as a diff of those files.
//! Rewriting them is a deliberate act, never a way to make the test
//! pass.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::fs;
use std::path::{Path, PathBuf};
use vagg::core::{minmax_aggregate, Algorithm, StagedInput};
use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::datagen::{DatasetSpec, Distribution};
use vagg::db::{Database, SqlOutcome, Table};
use vagg::isa::{BinOp, CmpOp, Mreg, Vreg};
use vagg::sim::{Machine, SimConfig, SimStats};
use vagg::sort::{radix_sort, vsr_sort, SortArrays};

const SEED: u64 = 13;
const ROWS: usize = 2_048;
const SORT_ROWS: usize = 4_096;
const SQL_ROWS: usize = 8_192;
const DISTRIBUTIONS: [Distribution; 3] = [
    Distribution::Uniform,
    Distribution::Zipf,
    Distribution::Sorted,
];
const CARDINALITIES: [u64; 3] = [76, 1_220, 39_062];

/// What one run is held to, as (column, value) pairs: cycles,
/// micro-ops, L1 (hits, misses), L2 (hits, misses), DRAM (row hits,
/// row conflicts, forced closes).
type Fingerprint = Vec<(&'static str, u64)>;

fn fingerprint(s: &SimStats) -> Fingerprint {
    vec![
        ("cycles", s.cycles),
        ("uops", s.ops),
        ("l1_hits", s.mem.l1.hits),
        ("l1_misses", s.mem.l1.misses),
        ("l2_hits", s.mem.l2.hits),
        ("l2_misses", s.mem.l2.misses),
        ("dram_row_hits", s.mem.dram.row_hits),
        ("dram_row_conflicts", s.mem.dram.row_conflicts),
        ("dram_forced_closes", s.mem.dram.forced_closes),
    ]
}

/// One algorithm over one generated dataset on a fresh machine.
fn kernel_run(
    config: SimConfig,
    algorithm: Algorithm,
    distribution: Distribution,
    cardinality: u64,
) -> Fingerprint {
    let ds = DatasetSpec::paper(distribution, cardinality)
        .with_rows(ROWS)
        .with_seed(SEED)
        .generate();
    let mut m = Machine::new(config);
    let input = StagedInput::stage(&mut m, &ds);
    algorithm.execute(&mut m, &input);
    fingerprint(&m.stats())
}

fn kernel_runs() -> Vec<(String, Fingerprint)> {
    let mut out = Vec::new();
    for algorithm in Algorithm::PAPER {
        for distribution in DISTRIBUTIONS {
            for cardinality in CARDINALITIES {
                // As in the benchmark grid: polytable's replicated tables
                // at the top cardinality cost more host time than the
                // rest of the grid together.
                if algorithm == Algorithm::Polytable && cardinality == 39_062 {
                    continue;
                }
                out.push((
                    format!(
                        "{}/{}/{}",
                        algorithm.short_name(),
                        distribution.name(),
                        cardinality
                    ),
                    kernel_run(SimConfig::paper(), algorithm, distribution, cardinality),
                ));
            }
        }
    }
    out
}

/// The paper's machine with another line size at every level (cache
/// sizes unchanged): how addresses split into lines, and lines into sets,
/// is the one thing 64-byte lines hold at one value.
fn with_line_bytes(line_bytes: u64) -> SimConfig {
    let mut config = SimConfig::paper();
    config.mem.line_bytes = line_bytes;
    config
}

/// Machines away from [`SimConfig::paper`]: the schedulers' host fast
/// paths depend on the widest reservation (`VL / lanes`, CAM slice
/// counts) and on the queue depths, which the paper's configuration
/// holds at one value each; the memory side's depend on the line size.
fn configs() -> [(&'static str, SimConfig); 7] {
    let paper = SimConfig::paper;
    let mut cached_vectors = paper();
    cached_vectors.mem.l1_bypass_vector = false;
    let mut plain_l2 = paper();
    plain_l2.mem.xor_l2 = false;
    let mut shallow = paper();
    shallow.cpu.issue_queue_per_cluster = 2;
    shallow.cpu.reorder_buffer = 32;
    [
        (
            "mvl16-lanes2-ports2",
            paper().with_mvl(16).with_lanes(2).with_cam_ports(2),
        ),
        (
            "mvl128-lanes8-ports8",
            paper().with_mvl(128).with_lanes(8).with_cam_ports(8),
        ),
        ("l1-vectors", cached_vectors),
        ("plain-l2", plain_l2),
        ("iq2-rob32", shallow),
        ("line32", with_line_bytes(32)),
        ("line128", with_line_bytes(128)),
    ]
}

fn config_runs() -> Vec<(String, Fingerprint)> {
    const ALGORITHMS: [Algorithm; 4] = [
        Algorithm::Scalar,
        Algorithm::Monotable,
        Algorithm::PartiallySortedMonotable,
        Algorithm::AdvancedSortedReduce,
    ];
    let mut out = Vec::new();
    for (config_name, config) in configs() {
        for algorithm in ALGORITHMS {
            for cardinality in [76, 39_062] {
                out.push((
                    format!("{config_name}/{}/{cardinality}", algorithm.short_name()),
                    kernel_run(
                        config.clone(),
                        algorithm,
                        Distribution::Uniform,
                        cardinality,
                    ),
                ));
            }
        }
    }
    out
}

fn sort_runs() -> Vec<(String, Fingerprint)> {
    const MAX_KEY: u32 = 65_535;
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED);
    let keys: Vec<u32> = (0..SORT_ROWS)
        .map(|_| rng.next_below(u64::from(MAX_KEY) + 1) as u32)
        .collect();
    let vals: Vec<u32> = (0..SORT_ROWS as u32).collect();
    type Sort = fn(&mut Machine, &SortArrays, u32) -> u32;
    let sorts: [(&str, Sort); 2] = [("radix_sort", radix_sort), ("vsr_sort", vsr_sort)];
    sorts
        .into_iter()
        .map(|(name, sort)| {
            let mut m = Machine::paper();
            let arrays = SortArrays::stage(&mut m, &keys, &vals);
            sort(&mut m, &arrays, MAX_KEY);
            (format!("{name}/{SORT_ROWS}"), fingerprint(&m.stats()))
        })
        .collect()
}

fn sql_runs() -> Vec<(String, Fingerprint)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 1);
    let mut col = |bound: u64| -> Vec<u32> {
        (0..SQL_ROWS)
            .map(|_| rng.next_below(bound) as u32)
            .collect()
    };
    let table = Table::new("t")
        .with_column("g", col(1_220))
        .with_column("v", col(1_000))
        .with_column("w", col(100));
    let mut db = Database::new();
    db.register(table);
    // One session machine runs both statements, so the second row also
    // holds the state the first one left in the caches and DRAM banks.
    [
        ("full_scan", "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"),
        (
            "filtered",
            "SELECT g, COUNT(*), SUM(v), MAX(v) FROM t WHERE w > 49 GROUP BY g",
        ),
    ]
    .into_iter()
    .map(|(name, sql)| {
        let before = db.session().machine().cycles();
        let SqlOutcome::Rows(out) = db.run_sql(sql).expect("valid SQL") else {
            panic!("a SELECT returns rows");
        };
        let stats = db.session().machine().stats();
        assert_eq!(out.report.cycles, stats.cycles - before, "report = delta");
        (format!("sql/{name}"), fingerprint(&stats))
    })
    .collect()
}

/// The scatter-add monotable (§VI-B comparator): every `vscatadd` runs
/// two memory phases, a read and a write, over one line list.
fn scatter_add_runs() -> Vec<(String, Fingerprint)> {
    [76, 39_062]
        .into_iter()
        .map(|cardinality| {
            (
                format!("sam/uniform/{cardinality}"),
                kernel_run(
                    SimConfig::paper(),
                    Algorithm::ScatterAddMonotable,
                    Distribution::Uniform,
                    cardinality,
                ),
            )
        })
        .collect()
}

/// The four-table chain (`vagg_core::minmax`): four `vga` and a `vlu`
/// on one key vector, then a gather → combine → scatter per table.
/// Sorted keys repeat one key vector across many passes. On `line32`
/// the 64-aligned tables lie a whole number of lines apart; on
/// `line128` not always.
fn minmax_runs() -> Vec<(String, Fingerprint)> {
    let run = |config: SimConfig, distribution: Distribution, cardinality: u64| {
        let ds = DatasetSpec::paper(distribution, cardinality)
            .with_rows(ROWS)
            .with_seed(SEED)
            .generate();
        let mut m = Machine::new(config);
        let input = StagedInput::stage(&mut m, &ds);
        minmax_aggregate(&mut m, &input);
        fingerprint(&m.stats())
    };
    let mut out = Vec::new();
    for distribution in DISTRIBUTIONS {
        for cardinality in CARDINALITIES {
            out.push((
                format!("minmax/{}/{cardinality}", distribution.name()),
                run(SimConfig::paper(), distribution, cardinality),
            ));
        }
    }
    for (config_name, line_bytes) in [("line32", 32), ("line128", 128)] {
        out.push((
            format!("{config_name}/minmax/uniform/1220"),
            run(with_line_bytes(line_bytes), Distribution::Uniform, 1_220),
        ));
    }
    out
}

/// A [`Fingerprint`] and, behind it, the vector accesses that found
/// their line in the scalar L1 (`vector_l1_evictions`).
fn wide_fingerprint(s: &SimStats) -> Fingerprint {
    let mut wide = fingerprint(s);
    wide.push(("vector_l1_evictions", s.mem.vector_l1_evictions));
    wide
}

const HAND_ROWS: usize = 8_192;

/// A software-prefetched gather loop no algorithm in the repo runs: the
/// three prefetch shapes ahead of the unit-stride, strided and indexed
/// loads they cover.
fn prefetching_kernel(m: &mut Machine) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 2);
    const CELLS: u32 = 2_048;
    let keys: Vec<u32> = (0..HAND_ROWS)
        .map(|_| rng.next_below(u64::from(CELLS)) as u32)
        .collect();
    let table: Vec<u32> = (0..CELLS).collect();
    let mvl = m.mvl();
    let keys_at = m.space_mut().alloc_slice_u32(&keys);
    let table_at = m.space_mut().alloc_slice_u32(&table);
    let out_at = m.space_mut().alloc(4 * HAND_ROWS as u64, 64);
    let (vk, vt, vs) = (Vreg(0), Vreg(1), Vreg(2));
    m.set_vl(mvl);
    m.vprefetch_unit(keys_at, 4, 0);
    for start in (0..HAND_ROWS).step_by(mvl) {
        let at = 4 * start as u64;
        let lt = m.s_op(0);
        // The next chunk of keys, this chunk's table cells, and the
        // column of a 16-word-wide matrix the strided load reads.
        m.vprefetch_unit(keys_at + at + 4 * mvl as u64, 4, lt);
        m.vload_unit(vk, keys_at + at, 4, lt);
        m.vprefetch_indexed(table_at, vk, 4, 0);
        m.vprefetch_strided(keys_at + at / 16, 64, 4, lt);
        m.vgather(vt, table_at, vk, 4, None, 0);
        m.vload_strided(vs, keys_at + at / 16, 64, 4, lt);
        m.vbinop_vv(BinOp::Add, vt, vt, vs, None);
        m.vstore_unit(vt, out_at + at, 4, 0);
    }
}

/// Scalar and vector code taking turns over one table larger than the
/// L2, so that vector line requests find clean and dirty copies in the
/// scalar L1, the dirty ones push dirty victims out of the L2, and the
/// scalar side misses on lines the vector side pulled out.
fn interleaved_kernel(m: &mut Machine) {
    const CELLS: u64 = 96 * 1_024;
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + 3);
    let keys: Vec<u32> = (0..HAND_ROWS)
        .map(|_| rng.next_below(CELLS) as u32)
        .collect();
    let mvl = m.mvl();
    let keys_at = m.space_mut().alloc_slice_u32(&keys);
    let table_at = m.space_mut().alloc(4 * CELLS, 64);
    let (vk, vt, vi) = (Vreg(0), Vreg(1), Vreg(2));
    let mask = Mreg(0);
    for (chunk, start) in (0..HAND_ROWS).step_by(mvl).enumerate() {
        let at = 4 * start as u64;
        // Scalar read-modify-write of this chunk's first cells: their
        // lines become dirty in the L1 ...
        let mut tok = 0;
        for &k in &keys[start..start + 8] {
            let cell = table_at + 4 * u64::from(k);
            let (old, loaded) = m.s_load_u32(cell, tok);
            tok = m.s_store_u32(cell, old.wrapping_add(1), loaded);
        }
        // ... and a scalar read leaves a clean line of the key column.
        m.s_load_u32(keys_at + at, 0);
        m.set_vl(mvl);
        m.vload_unit(vk, keys_at + at, 4, tok);
        m.vgather(vt, table_at, vk, 4, None, tok);
        m.vscatter_add(vt, table_at, vk, 4, None, 0);
        // A scatter needs unique cells: keep each key's low bits and
        // spread the lanes over the start of the table.
        m.viota(vi, None);
        m.vbinop_vs(BinOp::Shl, vi, vi, 5, None);
        m.vbinop_vs(BinOp::And, vk, vk, 31, None);
        m.vbinop_vv(BinOp::Add, vk, vk, vi, None);
        m.vcmp_vs(CmpOp::Ne, mask, vk, 7, None);
        m.vgather(vt, table_at, vk, 4, Some(mask), 0);
        m.vbinop_vs(BinOp::Add, vt, vt, 1, Some(mask));
        m.vscatter(vt, table_at, vk, 4, Some(mask), 0);
        if chunk % 4 == 3 {
            m.vstore_strided(vt, table_at + 4 * (chunk as u64 % 16), 128, 4, 0);
        }
    }
}

fn hand_runs() -> Vec<(String, Fingerprint)> {
    let mut cached_vectors = SimConfig::paper();
    cached_vectors.mem.l1_bypass_vector = false;
    type Kernel = fn(&mut Machine);
    let runs: [(&str, Kernel, SimConfig); 6] = [
        ("prefetching/paper", prefetching_kernel, SimConfig::paper()),
        (
            "prefetching/line32",
            prefetching_kernel,
            with_line_bytes(32),
        ),
        ("interleaved/paper", interleaved_kernel, SimConfig::paper()),
        (
            "interleaved/line32",
            interleaved_kernel,
            with_line_bytes(32),
        ),
        (
            "interleaved/line128",
            interleaved_kernel,
            with_line_bytes(128),
        ),
        ("interleaved/l1-vectors", interleaved_kernel, cached_vectors),
    ];
    runs.into_iter()
        .map(|(name, kernel, config)| {
            let mut m = Machine::new(config);
            kernel(&mut m);
            (name.to_string(), wide_fingerprint(&m.stats()))
        })
        .collect()
}

type Runs = fn() -> Vec<(String, Fingerprint)>;

/// The run groups, one file each under `tests/golden/`.
const GROUPS: [(&str, Runs); 6] = [
    ("kernels.csv", kernel_runs),
    ("configs.csv", config_runs),
    ("sorts.csv", sort_runs),
    ("sql.csv", sql_runs),
    ("scatter_add.csv", scatter_add_runs),
    ("minmax.csv", minmax_runs),
];

/// The hand-written kernels' group: its rows hold a tenth counter.
const HAND: (&str, Runs) = ("hand.csv", hand_runs);

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A group's file: a header naming the counters, then one row per run.
fn render(runs: &[(String, Fingerprint)]) -> String {
    let mut text = String::from("run");
    for (counter, _) in runs.first().map_or(&[][..], |(_, f)| f) {
        write!(text, ",{counter}").unwrap();
    }
    text.push('\n');
    for (name, f) in runs {
        text.push_str(name);
        for (_, value) in f {
            write!(text, ",{value}").unwrap();
        }
        text.push('\n');
    }
    text
}

/// A file's counter names (its header past `run`) and its rows, each a
/// run name and its cells.
type Parsed<'a> = (Vec<&'a str>, Vec<(&'a str, Vec<&'a str>)>);

fn parse(text: &str) -> Parsed<'_> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let rows = lines
        .map(|line| {
            let mut cells = line.split(',');
            (cells.next().unwrap_or_default(), cells.collect())
        })
        .collect();
    (header.split(',').skip(1).collect(), rows)
}

/// Every way the rendered text `got` differs from the `pinned` text of
/// `file`, one line each: a moved counter as `<file>: <run>: <counter>
/// <got> (pinned <want>)`, a run on one side only, and runs in another
/// order.
fn differences(file: &str, got: &str, pinned: &str) -> Vec<String> {
    if got == pinned {
        return Vec::new();
    }
    let ((counters, got_rows), (pinned_counters, pinned_rows)) = (parse(got), parse(pinned));
    if counters != pinned_counters {
        return vec![format!(
            "{file}: counters {} (pinned {})",
            counters.join(","),
            pinned_counters.join(",")
        )];
    }
    let got_by_run: BTreeMap<_, _> = got_rows.iter().cloned().collect();
    let pinned_by_run: BTreeMap<_, _> = pinned_rows.iter().cloned().collect();
    let mut out = Vec::new();
    for (run, cells) in &got_rows {
        let Some(want) = pinned_by_run.get(run) else {
            out.push(format!("{file}: {run}: run, but not pinned"));
            continue;
        };
        for (i, (counter, g)) in counters.iter().zip(cells).enumerate() {
            let w = want.get(i).copied().unwrap_or("<none>");
            if *g != w {
                out.push(format!("{file}: {run}: {counter} {g} (pinned {w})"));
            }
        }
    }
    for (run, _) in &pinned_rows {
        if !got_by_run.contains_key(run) {
            out.push(format!("{file}: {run}: pinned, but not run"));
        }
    }
    // The runs both sides hold, each side in its own order.
    let got_order = got_rows.iter().map(|(run, _)| *run);
    let pinned_order = pinned_rows.iter().map(|(run, _)| *run);
    if let Some((g, w)) = got_order
        .filter(|run| pinned_by_run.contains_key(run))
        .zip(pinned_order.filter(|run| got_by_run.contains_key(run)))
        .find(|(g, w)| g != w)
    {
        out.push(format!(
            "{file}: rows reordered: {g} runs where {w} is pinned"
        ));
    }
    if out.is_empty() {
        out.push(format!(
            "{file}: every counter matches, but not as write_golden writes them"
        ));
    }
    out
}

/// Holds `runs` to `tests/golden/<file>`: every difference, one line each.
fn check(file: &str, runs: &[(String, Fingerprint)]) -> Vec<String> {
    let path = golden_dir().join(file);
    let pinned =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    differences(file, &render(runs), &pinned)
}

fn assert_none_moved(moved: &[String]) {
    assert!(
        moved.is_empty(),
        "simulated counters moved from tests/golden/:\n{}",
        moved.join("\n")
    );
}

#[test]
fn simulated_counters_match_the_golden_table() {
    let moved: Vec<String> = GROUPS
        .iter()
        .flat_map(|(file, runs)| check(file, &runs()))
        .collect();
    assert_none_moved(&moved);
}

#[test]
fn hand_written_kernels_match_the_golden_table() {
    let (file, runs) = HAND;
    let runs = runs();
    assert_none_moved(&check(file, &runs));
    // The coherence path is behind a pinned counter, not just reachable.
    assert!(runs
        .iter()
        .flat_map(|(_, f)| f)
        .any(|&(counter, value)| counter == "vector_l1_evictions" && value > 0));
}

#[test]
#[ignore = "rewrites tests/golden/ after a deliberate model change"]
fn write_golden() {
    let dir = golden_dir();
    fs::create_dir_all(&dir).expect("create tests/golden");
    for (file, runs) in GROUPS.into_iter().chain([HAND]) {
        fs::write(dir.join(file), render(&runs())).expect("write a golden file");
    }
}

/// A two-counter table rendered by the writer, for the comparator's
/// own tests: no simulator runs.
fn table(rows: &[(&str, u64, u64)]) -> String {
    let runs: Vec<(String, Fingerprint)> = rows
        .iter()
        .map(|&(run, cycles, uops)| (run.to_string(), vec![("cycles", cycles), ("uops", uops)]))
        .collect();
    render(&runs)
}

#[test]
fn a_moved_counter_is_named_by_file_run_and_counter() {
    let pinned = table(&[("a", 10, 20), ("b", 30, 40)]);
    assert_eq!(differences("t.csv", &pinned, &pinned), Vec::<String>::new());
    assert_eq!(
        differences("t.csv", &table(&[("a", 10, 20), ("b", 30, 41)]), &pinned),
        ["t.csv: b: uops 41 (pinned 40)"]
    );
    assert_eq!(
        differences("t.csv", &table(&[("a", 11, 21), ("b", 30, 40)]), &pinned),
        [
            "t.csv: a: cycles 11 (pinned 10)",
            "t.csv: a: uops 21 (pinned 20)"
        ]
    );
}

#[test]
fn missing_extra_and_reordered_rows_are_named() {
    let pinned = table(&[("a", 1, 2), ("b", 3, 4)]);
    assert_eq!(
        differences("t.csv", &table(&[("a", 1, 2)]), &pinned),
        ["t.csv: b: pinned, but not run"]
    );
    assert_eq!(
        differences(
            "t.csv",
            &table(&[("a", 1, 2), ("b", 3, 4), ("c", 5, 6)]),
            &pinned
        ),
        ["t.csv: c: run, but not pinned"]
    );
    assert_eq!(
        differences("t.csv", &table(&[("b", 3, 4), ("a", 1, 2)]), &pinned),
        ["t.csv: rows reordered: b runs where a is pinned"]
    );
    assert_eq!(
        differences("t.csv", &pinned, &pinned.replace("uops", "ops")),
        ["t.csv: counters cycles,uops (pinned cycles,ops)"]
    );
    assert_eq!(
        differences("t.csv", &pinned, &pinned.replace('\n', "\r\n")),
        ["t.csv: every counter matches, but not as write_golden writes them"]
    );
}
