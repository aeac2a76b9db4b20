//! Golden cycle fingerprint: the simulated machine's counters for a
//! fixed set of runs, held to literals.
//!
//! Every other timing test in the suite is relational (`big < small`);
//! none would notice a one-cycle drift. This one does: a change meant
//! only to make the *simulator* faster on the host must leave every
//! number below untouched. A change that moves the model on purpose
//! regenerates the table with
//!
//! ```text
//! cargo test --release --test cycle_golden -- --ignored --nocapture print_golden
//! ```
//!
//! and pastes the printed rows over [`GOLDEN`] and [`HAND_GOLDEN`].

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

/// What one run is held to: cycles, micro-ops, L1 (hits, misses), L2
/// (hits, misses), DRAM (row hits, row conflicts, forced closes).
type Fingerprint = [u64; 9];

fn fingerprint(s: &SimStats) -> Fingerprint {
    [
        s.cycles,
        s.ops,
        s.mem.l1.hits,
        s.mem.l1.misses,
        s.mem.l2.hits,
        s.mem.l2.misses,
        s.mem.dram.row_hits,
        s.mem.dram.row_conflicts,
        s.mem.dram.forced_closes,
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
type WideFingerprint = [u64; 10];

fn wide_fingerprint(s: &SimStats) -> WideFingerprint {
    let mut wide = [0; 10];
    wide[..9].copy_from_slice(&fingerprint(s));
    wide[9] = s.mem.vector_l1_evictions;
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

fn hand_runs() -> Vec<(String, WideFingerprint)> {
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

fn every_run() -> Vec<(String, Fingerprint)> {
    let mut runs = kernel_runs();
    runs.extend(sort_runs());
    runs.extend(sql_runs());
    runs.extend(config_runs());
    runs.extend(scatter_add_runs());
    runs.extend(minmax_runs());
    runs
}

fn assert_golden<const N: usize>(runs: &[(String, [u64; N])], table: &[(&str, [u64; N])]) {
    assert_eq!(runs.len(), table.len(), "run list and table differ");
    let mut drifted = Vec::new();
    for ((name, got), (golden_name, golden)) in runs.iter().zip(table) {
        assert_eq!(name, golden_name, "run order and table order differ");
        if got != golden {
            drifted.push(format!("{name}: {got:?}, golden {golden:?}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "simulated counters moved (cycles, ops, l1 hit/miss, l2 hit/miss, \
         dram row-hit/conflict/forced-close[, vector l1 evictions]):\n{}",
        drifted.join("\n")
    );
}

#[test]
fn simulated_counters_match_the_golden_table() {
    assert_golden(&every_run(), GOLDEN);
}

#[test]
fn hand_written_kernels_match_the_golden_table() {
    let runs = hand_runs();
    assert_golden(&runs, HAND_GOLDEN);
    // The coherence path is behind a literal, not just reachable.
    assert!(runs.iter().any(|(_, f)| f[9] > 0));
}

#[test]
#[ignore = "regenerates the table after a deliberate model change"]
fn print_golden() {
    for (name, f) in every_run() {
        println!("    ({name:?}, {f:?}),");
    }
    println!("-- HAND_GOLDEN");
    for (name, f) in hand_runs() {
        println!("    ({name:?}, {f:?}),");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Fingerprint)] = &[
    ("scalar/uniform/76", [21358, 31860, 14587, 281, 0, 281, 244, 0, 34]),
    ("scalar/uniform/1220", [38128, 47451, 21382, 599, 0, 599, 522, 0, 73]),
    ("scalar/uniform/39062", [336901, 357147, 126368, 13124, 14458, 7581, 9239, 108, 1292]),
    ("scalar/zipf/76", [21358, 31860, 14587, 281, 0, 281, 244, 0, 34]),
    ("scalar/zipf/1220", [32956, 44145, 19586, 509, 0, 509, 444, 0, 61]),
    ("scalar/zipf/39062", [302219, 350243, 125189, 10416, 10364, 6965, 8383, 51, 1175]),
    ("scalar/sorted/76", [25923, 25717, 12540, 281, 0, 281, 244, 0, 34]),
    ("scalar/sorted/1220", [42752, 41315, 19339, 599, 0, 599, 522, 0, 73]),
    ("scalar/sorted/39062", [353077, 350964, 125290, 12140, 12103, 8039, 10118, 110, 1418]),
    ("ssr/uniform/76", [55227, 21950, 9709, 400, 17869, 840, 734, 0, 101]),
    ("ssr/uniform/1220", [185407, 82521, 36970, 1424, 32790, 1790, 1565, 0, 217]),
    ("ssr/uniform/39062", [280698, 133705, 60073, 2265, 40683, 2036, 1780, 0, 248]),
    ("ssr/zipf/76", [54906, 21952, 9733, 376, 16089, 840, 734, 0, 101]),
    ("ssr/zipf/1220", [175130, 76410, 34781, 1263, 30875, 1669, 1459, 0, 203]),
    ("ssr/zipf/39062", [259209, 121430, 55616, 2002, 36237, 1800, 1573, 0, 219]),
    ("ssr/sorted/76", [10343, 1374, 285, 96, 461, 280, 244, 0, 33]),
    ("ssr/sorted/1220", [32617, 13360, 4611, 380, 1371, 510, 444, 0, 62]),
    ("ssr/sorted/39062", [54970, 26347, 9357, 629, 2375, 756, 660, 0, 92]),
    ("poly/uniform/76", [15082, 1577, 142, 10, 8224, 889, 776, 0, 108]),
    ("poly/uniform/1220", [364085, 16760, 2284, 154, 6943, 21821, 29101, 884, 3964]),
    ("poly/zipf/76", [15082, 1577, 142, 10, 6500, 889, 776, 0, 108]),
    ("poly/zipf/1220", [363609, 16734, 2280, 154, 6702, 20835, 27498, 650, 3752]),
    ("poly/sorted/76", [13922, 1478, 142, 11, 1433, 889, 776, 0, 108]),
    ("poly/sorted/1220", [353921, 16661, 2284, 155, 3441, 21297, 28147, 558, 3880]),
    ("asr/uniform/76", [13936, 2745, 432, 101, 4263, 541, 472, 0, 66]),
    ("asr/uniform/1220", [41471, 16425, 5111, 397, 7973, 783, 684, 0, 95]),
    ("asr/uniform/39062", [63874, 30022, 10149, 655, 12831, 1038, 907, 0, 126]),
    ("asr/zipf/76", [13704, 2747, 456, 77, 3224, 541, 472, 0, 66]),
    ("asr/zipf/1220", [32815, 10314, 2922, 236, 6481, 662, 578, 0, 81]),
    ("asr/zipf/39062", [43729, 17747, 5692, 392, 9372, 802, 700, 0, 98]),
    ("asr/sorted/76", [10343, 1374, 285, 96, 461, 280, 244, 0, 33]),
    ("asr/sorted/1220", [32617, 13360, 4611, 380, 1371, 510, 444, 0, 62]),
    ("asr/sorted/39062", [54970, 26347, 9357, 629, 2375, 756, 660, 0, 92]),
    ("mono/uniform/76", [5478, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("mono/uniform/1220", [8749, 1025, 0, 0, 5967, 599, 522, 0, 73]),
    ("mono/uniform/39062", [206570, 13859, 0, 0, 17584, 9407, 12004, 125, 1680]),
    ("mono/zipf/76", [5582, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("mono/zipf/1220", [8233, 1025, 0, 0, 3817, 518, 451, 0, 63]),
    ("mono/zipf/39062", [180137, 11893, 0, 0, 13255, 8418, 10660, 62, 1499]),
    ("mono/sorted/76", [8159, 530, 0, 1, 155, 281, 244, 0, 34]),
    ("mono/sorted/1220", [8405, 926, 0, 1, 673, 599, 522, 0, 73]),
    ("mono/sorted/39062", [216025, 13628, 0, 1, 14213, 9984, 13111, 129, 1836]),
    ("psm/uniform/76", [5478, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("psm/uniform/1220", [8749, 1025, 0, 0, 5967, 599, 522, 0, 73]),
    ("psm/uniform/39062", [228950, 15440, 296, 10, 18974, 10563, 13874, 132, 1946]),
    ("psm/zipf/76", [5582, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("psm/zipf/1220", [8233, 1025, 0, 0, 3817, 518, 451, 0, 63]),
    ("psm/zipf/39062", [193447, 13474, 296, 10, 14082, 8941, 11483, 64, 1618]),
    ("psm/sorted/76", [8159, 530, 0, 1, 155, 281, 244, 0, 34]),
    ("psm/sorted/1220", [8405, 926, 0, 1, 673, 599, 522, 0, 73]),
    ("psm/sorted/39062", [216025, 13628, 0, 1, 14213, 9984, 13111, 129, 1836]),
    ("radix_sort/4096", [306000, 135560, 63488, 2048, 75013, 2048, 1791, 0, 248]),
    ("vsr_sort/4096", [28387, 5908, 992, 32, 22998, 1056, 923, 0, 128]),
    ("sql/full_scan", [21482, 2753, 0, 0, 23156, 1409, 1231, 0, 171]),
    ("sql/filtered", [60779, 9516, 2208, 154, 48617, 2736, 2392, 0, 331]),
    ("mvl16-lanes2-ports2/scalar/76", [21358, 31860, 14587, 281, 0, 281, 244, 0, 34]),
    ("mvl16-lanes2-ports2/scalar/39062", [336901, 357147, 126368, 13124, 14458, 7581, 9239, 108, 1292]),
    ("mvl16-lanes2-ports2/mono/76", [7294, 2423, 0, 0, 2622, 281, 244, 0, 34]),
    ("mvl16-lanes2-ports2/mono/39062", [177231, 43234, 0, 0, 17627, 7629, 9328, 110, 1303]),
    ("mvl16-lanes2-ports2/psm/76", [7294, 2423, 0, 0, 2622, 281, 244, 0, 34]),
    ("mvl16-lanes2-ports2/psm/39062", [211242, 47709, 296, 10, 23162, 8624, 10929, 116, 1531]),
    ("mvl16-lanes2-ports2/asr/76", [19487, 7146, 432, 101, 7144, 538, 470, 0, 65]),
    ("mvl16-lanes2-ports2/asr/39062", [72591, 37260, 10149, 655, 20408, 1038, 907, 0, 126]),
    ("mvl128-lanes8-ports8/scalar/76", [21358, 31860, 14587, 281, 0, 281, 244, 0, 34]),
    ("mvl128-lanes8-ports8/scalar/39062", [336901, 357147, 126368, 13124, 14458, 7581, 9239, 108, 1292]),
    ("mvl128-lanes8-ports8/mono/76", [5334, 319, 0, 0, 458, 281, 244, 0, 34]),
    ("mvl128-lanes8-ports8/mono/39062", [158428, 7029, 0, 0, 16781, 9528, 12167, 127, 1708]),
    ("mvl128-lanes8-ports8/psm/76", [5334, 319, 0, 0, 458, 281, 244, 0, 34]),
    ("mvl128-lanes8-ports8/psm/39062", [161716, 8128, 296, 10, 16943, 10632, 13955, 130, 1956]),
    ("mvl128-lanes8-ports8/asr/76", [11890, 2022, 432, 101, 3157, 545, 476, 0, 66]),
    ("mvl128-lanes8-ports8/asr/39062", [61296, 28816, 10149, 655, 9891, 1038, 907, 0, 126]),
    ("l1-vectors/scalar/76", [21358, 31860, 14587, 281, 0, 281, 244, 0, 34]),
    ("l1-vectors/scalar/39062", [336901, 357147, 126368, 13124, 14458, 7581, 9239, 108, 1292]),
    ("l1-vectors/mono/76", [5460, 629, 778, 281, 0, 281, 244, 0, 34]),
    ("l1-vectors/mono/39062", [205454, 13859, 12834, 14157, 13732, 9355, 11901, 122, 1666]),
    ("l1-vectors/psm/76", [5460, 629, 778, 281, 0, 281, 244, 0, 34]),
    ("l1-vectors/psm/39062", [226558, 15440, 16198, 13625, 11393, 10471, 13697, 133, 1920]),
    ("l1-vectors/asr/76", [13521, 2745, 4690, 541, 0, 541, 472, 0, 66]),
    ("l1-vectors/asr/39062", [51889, 30022, 22609, 1325, 997, 1038, 907, 0, 126]),
    ("plain-l2/scalar/76", [21358, 31860, 14587, 281, 0, 281, 244, 0, 34]),
    ("plain-l2/scalar/39062", [338633, 357147, 126368, 13124, 14397, 7642, 9278, 122, 1296]),
    ("plain-l2/mono/76", [5478, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("plain-l2/mono/39062", [205434, 13859, 0, 0, 17639, 9352, 11893, 131, 1667]),
    ("plain-l2/psm/76", [5478, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("plain-l2/psm/39062", [229386, 15440, 296, 10, 18966, 10571, 13861, 150, 1946]),
    ("plain-l2/asr/76", [13936, 2745, 432, 101, 4263, 541, 472, 0, 66]),
    ("plain-l2/asr/39062", [63874, 30022, 10149, 655, 12831, 1038, 907, 0, 126]),
    ("iq2-rob32/scalar/76", [33722, 31860, 14587, 281, 0, 281, 244, 0, 34]),
    ("iq2-rob32/scalar/39062", [416508, 357147, 126368, 13124, 14458, 7581, 9239, 108, 1292]),
    ("iq2-rob32/mono/76", [9400, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("iq2-rob32/mono/39062", [214170, 13859, 0, 0, 17584, 9407, 12004, 125, 1680]),
    ("iq2-rob32/psm/76", [9400, 629, 0, 0, 778, 281, 244, 0, 34]),
    ("iq2-rob32/psm/39062", [245375, 15440, 296, 10, 18974, 10563, 13874, 132, 1946]),
    ("iq2-rob32/asr/76", [15157, 2745, 432, 101, 4263, 541, 472, 0, 66]),
    ("iq2-rob32/asr/39062", [65662, 30022, 10149, 655, 12831, 1038, 907, 0, 126]),
    ("line32/scalar/76", [23182, 31860, 14306, 562, 0, 562, 491, 0, 68]),
    ("line32/scalar/39062", [399977, 357147, 118005, 21487, 21353, 14272, 17048, 254, 2382]),
    ("line32/mono/76", [10530, 629, 0, 0, 1548, 562, 491, 0, 68]),
    ("line32/mono/39062", [291003, 13859, 0, 0, 25013, 19170, 24257, 284, 3401]),
    ("line32/psm/76", [10530, 629, 0, 0, 1548, 562, 491, 0, 68]),
    ("line32/psm/39062", [297679, 15440, 286, 20, 29071, 20400, 26182, 285, 3679]),
    ("line32/asr/76", [21790, 2745, 407, 126, 5486, 1081, 945, 0, 133]),
    ("line32/asr/39062", [75437, 30022, 9495, 1309, 17073, 2076, 1816, 0, 255]),
    ("line128/scalar/76", [20962, 31860, 14727, 141, 0, 141, 122, 0, 16]),
    ("line128/scalar/39062", [294509, 357147, 130805, 8687, 10504, 4466, 5735, 63, 797]),
    ("line128/mono/76", [3815, 629, 0, 0, 459, 141, 122, 0, 16]),
    ("line128/mono/39062", [117554, 13859, 0, 0, 14659, 4874, 6376, 60, 891]),
    ("line128/psm/76", [3815, 629, 0, 0, 459, 141, 122, 0, 16]),
    ("line128/psm/39062", [160262, 15440, 301, 5, 12927, 6313, 8690, 45, 1223]),
    ("line128/asr/76", [10619, 2745, 456, 77, 3439, 271, 236, 0, 32]),
    ("line128/asr/39062", [58150, 30022, 10474, 330, 9460, 520, 454, 0, 61]),
    ("sam/uniform/76", [5281, 405, 0, 0, 778, 281, 244, 0, 34]),
    ("sam/uniform/39062", [184782, 13635, 0, 0, 17584, 9407, 12004, 125, 1680]),
    ("minmax/uniform/76", [8338, 1174, 142, 10, 1428, 291, 253, 0, 35]),
    ("minmax/uniform/1220", [20585, 3484, 1840, 154, 11713, 753, 656, 0, 92]),
    ("minmax/uniform/39062", [501552, 20682, 1242, 2752, 20706, 21971, 30896, 1834, 3975]),
    ("minmax/zipf/76", [8730, 1174, 142, 10, 1428, 291, 253, 0, 35]),
    ("minmax/zipf/1220", [17129, 2544, 902, 152, 7333, 672, 586, 0, 82]),
    ("minmax/zipf/39062", [409266, 16824, 590, 1516, 16426, 17449, 24985, 1021, 3266]),
    ("minmax/sorted/76", [13510, 1075, 142, 11, 309, 291, 253, 0, 35]),
    ("minmax/sorted/1220", [20739, 3387, 1842, 155, 1255, 753, 656, 0, 92]),
    ("minmax/sorted/39062", [523780, 20451, 1204, 2791, 14143, 23350, 33413, 964, 4492]),
    ("line32/minmax/uniform/1220", [30463, 3484, 1688, 306, 14581, 1499, 1310, 0, 184]),
    ("line128/minmax/uniform/1220", [15404, 3484, 1917, 77, 8437, 378, 328, 0, 45]),
];

#[rustfmt::skip]
const HAND_GOLDEN: &[(&str, WideFingerprint)] = &[
    ("prefetching/paper", [22047, 1282, 0, 0, 29732, 1152, 1007, 0, 140, 0]),
    ("prefetching/line32", [31881, 1282, 0, 0, 31722, 2304, 2016, 0, 283, 0]),
    ("interleaved/paper", [152877, 5056, 1024, 1152, 40180, 5399, 5755, 0, 807, 1152]),
    ("interleaved/line32", [176949, 5056, 1024, 1152, 38951, 7191, 6535, 0, 917, 1152]),
    ("interleaved/line128", [138369, 5056, 1025, 1151, 41030, 4129, 5290, 0, 742, 1151]),
    ("interleaved/l1-vectors", [152768, 5056, 37204, 8375, 10356, 5395, 5683, 0, 799, 0]),
];
