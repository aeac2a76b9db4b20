//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <command> [--rows N] [--out DIR] [--cards-max C]
//!
//! commands:
//!   config   print Tables I–III (machine configuration + instruction list)
//!   fig4     scalar baseline CPT series
//!   fig6     standard sorted reduce series + Table IV
//!   fig9     polytable series + Table V
//!   fig12    advanced sorted reduce series + Table VI
//!   fig16    monotable series + Table VII
//!   fig17    partially sorted monotable series + Table VIII
//!   table9   best-algorithm summary + adaptive ideal/realistic averages
//!   related  §VI-B comparators: monotable/psm vs CDI-style vs scatter-add
//!   ablate   design-choice ablations (L1 bypass, XOR L2, CAM ports, MVL,
//!            lanes, PSM partial-sort bits) in simulated CPT
//!   mix      dynamic instruction mix + average vector length per algorithm
//!   extdist  extension: the two remaining Cieslewicz & Ross distributions
//!            (moving cluster, self-similar) across the cardinality sweep
//!   multicore extension: §VI-A multithreaded-scalar comparator (cores
//!            needed to match the vector speedups)
//!   all      everything above, written under --out (default results/)
//! ```
//!
//! `--rows` defaults to 1,000,000 (the paper uses 10,000,000; CPT is
//! row-normalised). The reduced grid whose tables tier-1 pins is
//! described in `crates/bench/tests/repro_tables.rs`'s module doc; at
//! which row count CPT has converged is ROADMAP.md's item 15.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;
use vagg_bench::{GridRunner, Series};
use vagg_core::{AdaptiveMode, Algorithm};
use vagg_datagen::{Distribution, Division, CARDINALITIES};
use vagg_isa::Instruction;
use vagg_mem::DramParams;

struct Opts {
    rows: usize,
    out: PathBuf,
    cards_max: u64,
}

fn parse_args() -> (String, Opts) {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage("missing command"));
    let mut opts = Opts {
        rows: 1_000_000,
        out: PathBuf::from("results"),
        cards_max: u64::MAX,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rows" => {
                opts.rows = args
                    .next()
                    .and_then(|v| v.replace('_', "").parse().ok())
                    .unwrap_or_else(|| usage("--rows needs a number"));
            }
            "--out" => {
                opts.out = PathBuf::from(args.next().unwrap_or_else(|| usage("--out needs a dir")));
            }
            "--cards-max" => {
                opts.cards_max = args
                    .next()
                    .and_then(|v| v.replace('_', "").parse().ok())
                    .unwrap_or_else(|| usage("--cards-max needs a number"));
            }
            other => usage(&format!("unknown option {other}")),
        }
    }
    if opts.rows == 0 {
        usage("--rows must be at least 1");
    }
    // Below the smallest cardinality the sweep is empty and every
    // average over it is NaN.
    if opts.cards_max < CARDINALITIES[0] {
        usage(&format!(
            "--cards-max must be at least {}",
            CARDINALITIES[0]
        ));
    }
    (cmd, opts)
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    let names: Vec<&str> = COMMANDS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: repro <{}|all> [--rows N] [--out DIR] [--cards-max C]",
        names.join("|")
    );
    std::process::exit(2);
}

/// One `repro` command, given the swept grid and the options.
type Command = fn(&GridRunner, &Opts);

/// Every command, in the order `all` runs them: the figures write the
/// series caches that `table9` reads.
const COMMANDS: [(&str, Command); 13] = [
    ("config", |_, _| config()),
    ("fig4", |r, o| figure(r, o, Algorithm::Scalar, "fig4", None)),
    ("fig6", |r, o| {
        figure(
            r,
            o,
            Algorithm::StandardSortedReduce,
            "fig6",
            Some("Table IV"),
        )
    }),
    ("fig9", |r, o| {
        figure(r, o, Algorithm::Polytable, "fig9", Some("Table V"))
    }),
    ("fig12", |r, o| {
        figure(
            r,
            o,
            Algorithm::AdvancedSortedReduce,
            "fig12",
            Some("Table VI"),
        )
    }),
    ("fig16", |r, o| {
        figure(r, o, Algorithm::Monotable, "fig16", Some("Table VII"))
    }),
    ("fig17", |r, o| {
        figure(
            r,
            o,
            Algorithm::PartiallySortedMonotable,
            "fig17",
            Some("Table VIII"),
        )
    }),
    ("table9", table9),
    ("related", related),
    ("ablate", |_, o| ablate(o)),
    ("mix", |_, o| mix(o)),
    ("extdist", extdist),
    ("multicore", |_, o| multicore(o)),
];

fn main() {
    let (cmd, opts) = parse_args();
    let selected: Vec<Command> = COMMANDS
        .iter()
        .filter(|&&(name, _)| cmd == "all" || cmd == name)
        .map(|&(_, run)| run)
        .collect();
    if selected.is_empty() {
        usage(&format!("unknown command {cmd}"));
    }
    fs::create_dir_all(&opts.out).expect("create output dir");
    let runner = GridRunner::new(opts.rows).clamp_cards(opts.cards_max);
    for run in selected {
        run(&runner, &opts);
    }
}

fn config() {
    use vagg_sim::SimConfig;
    let paper = SimConfig::paper();
    let cpu = &paper.cpu;
    println!("== Table I: microarchitecture parameters ==");
    println!("fetch width          {}", cpu.fetch_width);
    println!("fetch queue          {}", cpu.fetch_queue);
    println!("frontend width       {}", cpu.frontend_width);
    println!("frontend stages      {}", cpu.frontend_stages);
    println!("dispatch width       {}", cpu.dispatch_width);
    println!("writeback width      {}", cpu.writeback_width);
    println!("commit width         {}", cpu.commit_width);
    println!("reorder buffer       {}", cpu.reorder_buffer);
    println!("issue width/cluster  {}", cpu.issue_per_cluster);
    println!("issue queue/cluster  {}", cpu.issue_queue_per_cluster);
    println!("load queue           {}", cpu.load_queue);
    println!("store queue          {}", cpu.store_queue);
    println!("vector lanes         {}", paper.lanes);
    println!("CAM ports            {}", paper.cam_ports);

    let d = DramParams::ddr3_1333();
    println!("\n== Table II: memory system parameters ==");
    println!("type                 DDR3-1333");
    println!("cpu:mem clock ratio  {}", d.clock_ratio);
    println!("ranks                {}", d.ranks);
    println!("banks                {}", d.banks);
    println!("rows                 {}", d.rows);
    println!("columns              {}", d.columns);
    println!("device width         {}", d.device_width);
    println!("burst length (B)     {}", d.burst_bytes);
    println!("CL-RCD-RP            {}-{}-{}", d.t_cl, d.t_rcd, d.t_rp);
    println!("max row accesses     {}", d.max_row_accesses);
    println!("transaction queue    {}", d.transaction_queue);
    println!("command queue        {}", d.command_queue);
    println!("row buffer (B)       {}", d.row_buffer_bytes());

    println!("\n== Table III: non-memory vector instructions ==");
    let mut by_class: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    let mut extensions: Vec<&str> = Vec::new();
    for i in Instruction::ALL {
        if i.is_paper() {
            by_class
                .entry(format!("{:?}", i.class()))
                .or_default()
                .push(i.mnemonic());
        } else {
            extensions.push(i.mnemonic());
        }
    }
    for (class, mnems) in by_class {
        println!("{class:16} {}", mnems.join(", "));
    }
    println!("\n== related-work extensions (§VI-B comparators, not Table III) ==");
    println!("{}", extensions.join(", "));
}

fn figure(runner: &GridRunner, opts: &Opts, alg: Algorithm, fig: &str, table: Option<&str>) {
    let t0 = Instant::now();
    eprintln!(
        "[{fig}] {} at n = {} over {} cells...",
        alg.name(),
        runner.rows,
        runner.cells().len()
    );
    let series = runner.run_series_with(alg, |done, total| {
        if done % 11 == 0 || done == total {
            eprintln!("[{fig}] {done}/{total}");
        }
    });
    eprintln!("[{fig}] done in {:.1}s", t0.elapsed().as_secs_f64());

    let csv = runner.series_csv(&series);
    let path = opts.out.join(format!("{fig}_{}.csv", alg.short_name()));
    fs::write(&path, &csv).expect("write csv");
    fs::write(series_cache_path(runner, opts, alg), &csv).ok();
    let svg = vagg_bench::plot::series_svg(
        runner,
        &series,
        &format!("{fig}: {} (n = {})", alg.name(), runner.rows),
        135.0,
    );
    let svg_path = opts.out.join(format!("{fig}_{}.svg", alg.short_name()));
    fs::write(&svg_path, &svg).expect("write svg");
    println!("# {fig}: {} (CPT series)", alg.name());
    print!("{csv}");
    println!("written: {} and {}", path.display(), svg_path.display());

    if let Some(caption) = table {
        let base = load_or_run_scalar(runner, opts);
        let tbl = runner.speedup_table(&base, &series);
        let md = tbl.to_markdown(&format!(
            "{caption}: average speedups (stdev) of {} over baseline",
            alg.name()
        ));
        let tpath = opts.out.join(format!(
            "{}_{}.md",
            caption.to_lowercase().replace(' ', ""),
            alg.short_name()
        ));
        fs::write(&tpath, &md).expect("write table");
        println!("\n{md}");
        println!("written: {}", tpath.display());
    }
}

// Series caches are keyed by algorithm, row count and grid size so a
// `repro all` run computes each series exactly once (the figure commands
// write them too) and stale caches from other configurations are ignored.
fn series_cache_path(runner: &GridRunner, opts: &Opts, alg: Algorithm) -> PathBuf {
    opts.out.join(format!(
        "cache_{}_n{}_c{}.csv",
        alg.short_name(),
        runner.rows,
        runner.cards.len()
    ))
}

fn load_or_run(runner: &GridRunner, opts: &Opts, alg: Algorithm) -> Series {
    let cache = series_cache_path(runner, opts, alg);
    if let Ok(text) = fs::read_to_string(&cache) {
        if let Some(s) = parse_series_csv(runner, &text) {
            return s;
        }
    }
    eprintln!("[{}] series for speedup tables...", alg.short_name());
    let s = runner.run_series(alg);
    fs::write(&cache, runner.series_csv(&s)).ok();
    s
}

fn load_or_run_scalar(runner: &GridRunner, opts: &Opts) -> Series {
    load_or_run(runner, opts, Algorithm::Scalar)
}

fn parse_series_csv(runner: &GridRunner, text: &str) -> Option<Series> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let dists: Vec<Distribution> = header
        .split(',')
        .skip(1)
        .map(Distribution::parse)
        .collect::<Option<_>>()?;
    let mut s = Series::default();
    for line in lines {
        let mut parts = line.split(',');
        let c: u64 = parts.next()?.parse().ok()?;
        for (&d, v) in dists.iter().zip(parts) {
            if let Ok(v) = v.parse::<f64>() {
                s.cpt.insert((d, c), v);
            }
        }
    }
    // Must cover the runner's grid to be usable.
    let complete = runner.cells().iter().all(|cell| s.cpt.contains_key(cell));
    complete.then_some(s)
}

// §VI-B measured: the paper argues qualitatively that its register-level
// conflict resolution beats best-effort retry (AVX-512-CDI style) and
// memory-side scatter-add; this prints the CPT grid that argument implies.
fn related(runner: &GridRunner, opts: &Opts) {
    let contenders = [
        Algorithm::Monotable,
        Algorithm::PartiallySortedMonotable,
        Algorithm::CdiMonotable,
        Algorithm::ScatterAddMonotable,
    ];
    // A reduced grid: the cells where the §VI-B predictions bind.
    let cards: Vec<u64> = [76u64, 1_220, 78_125]
        .into_iter()
        .filter(|&c| c <= opts.cards_max)
        .collect();
    let dists = [
        Distribution::HeavyHitter,
        Distribution::Uniform,
        Distribution::Zipf,
        Distribution::Sorted,
    ];
    let mut sub = runner.clone();
    sub.cards = cards.clone();
    sub.dists = dists.to_vec();

    let mut md = String::from(
        "**§VI-B comparators: simulated CPT (lower is better)**\n\n\
         | dataset | c | mono | psm | cdi | sam |\n|---|---|---|---|---|---|\n",
    );
    for &d in &dists {
        for &c in &cards {
            eprintln!("[related] {} c={c}...", d.name());
            let mut row = format!("| {} | {c} |", d.name());
            for alg in contenders {
                let ds = vagg_datagen::DatasetSpec::paper(d, c)
                    .with_rows(sub.rows)
                    .with_seed(sub.seed)
                    .generate();
                let run = vagg_core::run_algorithm(alg, &sub.cfg, &ds);
                row += &format!(" {:.1} |", run.cpt);
            }
            md.push_str(&row);
            md.push('\n');
        }
    }
    let path = opts.out.join("related_work.md");
    fs::write(&path, &md).expect("write related_work");
    println!("{md}");
    println!("written: {}", path.display());
}

// The design-choice ablations DESIGN.md §5 calls out, reported in
// simulated CPT on focused cells (the cells where each mechanism binds).
// Rows are capped at 200k: ablation deltas are locality/occupancy effects
// that do not need the full grid's n.
fn ablate(opts: &Opts) {
    use vagg_core::{run_algorithm, Algorithm};
    use vagg_datagen::DatasetSpec;
    use vagg_sim::{Machine, SimConfig};

    let rows = opts.rows.min(200_000);
    let gen = |d: Distribution, c: u64| {
        DatasetSpec::paper(d, c)
            .with_rows(rows)
            .with_seed(0)
            .generate()
    };
    let cpt = |cfg: &SimConfig, alg: Algorithm, ds: &vagg_datagen::Dataset| {
        run_algorithm(alg, cfg, ds).cpt
    };
    let mut md =
        format!("**Design-choice ablations (simulated CPT, lower is better; n = {rows})**\n\n");

    // 1. Vector memory L1 bypass (§II-A): funnelling the vector stream
    // through the single-ported L1-d serialises line requests (1/cycle
    // vs `lanes`/cycle into the interleaved L2), but the out-of-order
    // window overlaps vector memory instructions aggressively enough that
    // the measured delta is small for these kernels — the bypass is
    // roughly latency/bandwidth-neutral at this abstraction level, and
    // its practical motivations (L1 port area, scalar/vector thrash; cf.
    // the `vector_l1_evictions` coherence counter) sit below it.
    eprintln!("[ablate] L1 bypass...");
    let ds = gen(Distribution::Uniform, 1_220);
    md.push_str("*Vector L1 bypass* — monotable, uniform, c = 1,220\n\n");
    md.push_str("| vector memory path | CPT |\n|---|---|\n");
    for (label, bypass) in [("L2 direct (paper)", true), ("through L1-d", false)] {
        let mut cfg = SimConfig::paper();
        cfg.mem.l1_bypass_vector = bypass;
        md.push_str(&format!(
            "| {label} | {:.2} |\n",
            cpt(&cfg, Algorithm::Monotable, &ds)
        ));
    }
    md.push_str(
        "\n(The bypass is near-neutral in cycles here: the OoO window hides \
         the L1's single-port serialisation for these kernels. The paper's \
         motivation — sustained bandwidth without growing L1 ports, and \
         keeping vector streams from thrashing the scalar working set — is \
         structural rather than visible in per-kernel CPT.)\n",
    );

    // 2. XOR-interleaved L2 placement (Rau '91). The pathological case
    // §II-A cites is a strided access whose stride maps every request to
    // the same set group: radix sort's stability transformation streams
    // the input at stride n/MVL, which with n = 2^18 is exactly a
    // power-of-two number of cache lines.
    eprintln!("[ablate] XOR L2 placement...");
    let ds = DatasetSpec::paper(Distribution::Uniform, 1_220)
        .with_rows(1 << 18)
        .with_seed(0)
        .generate();
    md.push_str(
        "\n*L2 set placement* — standard sorted reduce (radix), uniform, \
         c = 1,220, n = 2^18 (power-of-two stride)\n\n",
    );
    md.push_str("| L2 index | CPT |\n|---|---|\n");
    for (label, xor) in [("XOR-interleaved (paper)", true), ("modulo", false)] {
        let mut cfg = SimConfig::paper();
        cfg.mem.xor_l2 = xor;
        md.push_str(&format!(
            "| {label} | {:.2} |\n",
            cpt(&cfg, Algorithm::StandardSortedReduce, &ds)
        ));
    }

    // 3. CAM ports p: sorted input maximises port conflicts (runs of one
    // key), uniform input benefits from conflict-free slices.
    eprintln!("[ablate] CAM ports...");
    let sorted = gen(Distribution::Sorted, 610);
    let uniform = gen(Distribution::Uniform, 610);
    md.push_str("\n*CAM ports* — monotable, c = 610\n\n");
    md.push_str("| p | sorted CPT | uniform CPT |\n|---|---|---|\n");
    for p in [1usize, 2, 4, 8] {
        let cfg = SimConfig::paper().with_cam_ports(p);
        md.push_str(&format!(
            "| {p} | {:.2} | {:.2} |\n",
            cpt(&cfg, Algorithm::Monotable, &sorted),
            cpt(&cfg, Algorithm::Monotable, &uniform)
        ));
    }

    // 4. MVL sweep: polytable's replication footprint scales with MVL
    // (its collapse moves earlier as MVL grows); monotable is MVL-robust.
    eprintln!("[ablate] MVL...");
    let ds = gen(Distribution::Uniform, 2_441);
    md.push_str("\n*Maximum vector length* — uniform, c = 2,441\n\n");
    md.push_str("| MVL | polytable CPT | monotable CPT |\n|---|---|---|\n");
    for mvl in [16usize, 32, 64, 128, 256] {
        let cfg = SimConfig::paper().with_mvl(mvl);
        md.push_str(&format!(
            "| {mvl} | {:.2} | {:.2} |\n",
            cpt(&cfg, Algorithm::Polytable, &ds),
            cpt(&cfg, Algorithm::Monotable, &ds)
        ));
    }

    // 5. Lanes sweep: FU occupancy is ceil(VL/lanes) so arithmetic-bound
    // cells scale until memory binds.
    eprintln!("[ablate] lanes...");
    let ds = gen(Distribution::Uniform, 1_220);
    md.push_str("\n*Lockstepped lanes* — monotable, uniform, c = 1,220\n\n");
    md.push_str("| lanes | CPT |\n|---|---|\n");
    for lanes in [1usize, 2, 4, 8, 16] {
        let cfg = SimConfig::paper().with_lanes(lanes);
        md.push_str(&format!(
            "| {lanes} | {:.2} |\n",
            cpt(&cfg, Algorithm::Monotable, &ds)
        ));
    }

    // 6. PSM partial-sort bit count (§V-C): too few bits leaves the
    // tables thrashing, too many re-pays full-sort overhead.
    eprintln!("[ablate] PSM bits...");
    let ds = gen(Distribution::Uniform, 312_500);
    md.push_str("\n*PSM partial-sort top bits* — uniform, c = 312,500 (0 = plain monotable)\n\n");
    md.push_str("| top bits sorted | CPT |\n|---|---|\n");
    let cfg = SimConfig::paper();
    for bits in [0u32, 2, 4, 6, 8, 11, 14, 19] {
        let mut m = Machine::new(cfg.clone());
        let st = vagg_core::StagedInput::stage(&mut m, &ds);
        let (out, nrows) = vagg_core::psm::psm_aggregate_with_bits(&mut m, &st, bits);
        assert_eq!(out.read(&m, nrows), vagg_core::reference(&ds.g, &ds.v));
        md.push_str(&format!(
            "| {bits} | {:.2} |\n",
            m.cycles() as f64 / ds.len() as f64
        ));
    }

    let path = opts.out.join("ablations.md");
    fs::write(&path, &md).expect("write ablations");
    println!("{md}");
    println!("written: {}", path.display());
}

// Dynamic instruction mix per algorithm: the analysis behind the paper's
// §IV/§V discussion (replication costs, strided-vs-unit-stride access,
// CAM traffic, and the average-vector-length collapse of §V-A).
fn mix(opts: &Opts) {
    use vagg_core::{run_algorithm, Algorithm};
    use vagg_datagen::DatasetSpec;
    use vagg_sim::SimConfig;

    let rows = opts.rows.min(200_000);
    let cfg = SimConfig::paper();
    let mut md = format!("**Dynamic instruction mix (n = {rows})**\n\n");

    for (dist, card) in [
        (Distribution::Uniform, 1_220u64),
        (Distribution::Uniform, 312_500),
        (Distribution::Sorted, 1_220),
    ] {
        if card > opts.cards_max {
            continue;
        }
        eprintln!("[mix] {} c={card}...", dist.name());
        let ds = DatasetSpec::paper(dist, card)
            .with_rows(rows)
            .with_seed(0)
            .generate();
        md.push_str(&format!(
            "*{} c = {card}* — per 1,000 tuples\n\n\
             | algorithm | scalar | v.arith | v.red | v.cam | mask | uload | sload | gather | ustore | sstore | scatter | avg VL | CPT |\n\
             |---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
            dist.name()
        ));
        for alg in Algorithm::PAPER {
            let run = run_algorithm(alg, &cfg, &ds);
            let m = run.mix;
            let per_k = |x: u64| x as f64 * 1000.0 / rows as f64;
            md.push_str(&format!(
                "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                alg.short_name(),
                per_k(m.scalar_ops()),
                per_k(m.v_elementwise),
                per_k(m.v_reductions),
                per_k(m.v_cam),
                per_k(m.v_mask_ops),
                per_k(m.v_unit_loads),
                per_k(m.v_strided_loads),
                per_k(m.v_gathers),
                per_k(m.v_unit_stores),
                per_k(m.v_strided_stores),
                per_k(m.v_scatters),
                m.avg_vl(),
                run.cpt,
            ));
        }
        md.push('\n');
    }

    // Functional-unit utilisation: which cluster family each algorithm
    // saturates (one representative cell).
    let ds = DatasetSpec::paper(Distribution::Uniform, 1_220)
        .with_rows(rows)
        .with_seed(0)
        .generate();
    md.push_str(
        "*Functional-unit utilisation* — uniform, c = 1,220 (busy \
         fraction of each cluster family's units)\n\n",
    );
    let mut header_done = false;
    for alg in Algorithm::PAPER {
        use vagg_core::StagedInput;
        use vagg_sim::Machine;
        let mut machine = Machine::new(cfg.clone());
        let st = StagedInput::stage(&mut machine, &ds);
        let _ = alg.execute(&mut machine, &st);
        let util = machine.fu_utilization();
        if !header_done {
            md.push_str("| algorithm |");
            for (name, _) in util {
                md.push_str(&format!(" {name} |"));
            }
            md.push_str("\n|---|");
            for _ in util {
                md.push_str("---|");
            }
            md.push('\n');
            header_done = true;
        }
        md.push_str(&format!("| {} |", alg.short_name()));
        for (_, u) in util {
            md.push_str(&format!(" {:.0}% |", u * 100.0));
        }
        md.push('\n');
    }

    let path = opts.out.join("instruction_mix.md");
    fs::write(&path, &md).expect("write mix");
    println!("{md}");
    println!("written: {}", path.display());
}

// Extension beyond the paper: the two remaining Cieslewicz & Ross
// distributions (moving cluster, self-similar). The paper's §III-A suite
// is derived from theirs; these two cells test the adaptive policy on
// inputs it was not tuned for (temporal locality without order; extreme
// recursive skew).
fn extdist(runner: &GridRunner, opts: &Opts) {
    let mut sub = runner.clone();
    sub.dists = vec![Distribution::MovingCluster, Distribution::SelfSimilar];

    let algs = [
        Algorithm::Scalar,
        Algorithm::Polytable,
        Algorithm::StandardSortedReduce,
        Algorithm::AdvancedSortedReduce,
        Algorithm::Monotable,
        Algorithm::PartiallySortedMonotable,
    ];
    let mut series: Vec<(Algorithm, Series)> = Vec::new();
    for alg in algs {
        eprintln!(
            "[extdist] {} over {} cells...",
            alg.name(),
            sub.cells().len()
        );
        let s = sub.run_series(alg);
        let csv = sub.series_csv(&s);
        fs::write(
            opts.out.join(format!("extdist_{}.csv", alg.short_name())),
            &csv,
        )
        .expect("write extdist csv");
        series.push((alg, s));
    }

    let scalar = series[0].1.clone();
    let mut md = String::from(
        "**Extension: Cieslewicz & Ross distributions the paper omits**\n\n\
         Moving cluster (uniform inside a window sliding over the domain) \
         and self-similar (80–20 rule). Average speedup (stdev) over the \
         scalar baseline per cardinality division:\n\n",
    );
    for (alg, s) in series.iter().skip(1) {
        let t = sub.speedup_table(&scalar, s);
        md.push_str(&t.to_markdown(alg.name()));
        md.push('\n');
    }

    // Adaptive (realistic: no distribution oracle) on the new inputs.
    let vectorised: Vec<(Algorithm, Series)> = series.iter().skip(1).cloned().collect();
    if let Some(adaptive) = sub.adaptive_series_from(AdaptiveMode::Realistic, &vectorised) {
        let t = sub.speedup_table(&scalar, &adaptive);
        md.push_str(&t.to_markdown("adaptive (realistic selection, §V-D policy unchanged)"));
        let cells = sub.cells();
        let avg: f64 = cells
            .iter()
            .map(|cell| scalar.cpt[cell] / adaptive.cpt[cell])
            .sum::<f64>()
            / cells.len() as f64;
        md.push_str(&format!(
            "\ntotal average adaptive speedup on the extension grid: {avg:.2}x\n"
        ));
    }

    let path = opts.out.join("extended_distributions.md");
    fs::write(&path, &md).expect("write extdist");
    println!("{md}");
    println!("written: {}", path.display());
}

// §VI-A measured: the paper claims matching its single-vector-unit
// speedups with multithreading "would require — at minimum — eight
// cores". We simulate Ye et al.-style independent-table multicore scalar
// aggregation (optimistic: private caches and DRAM per core, free
// barriers) and report the core count needed to match the best vector
// algorithm per cell.
fn multicore(opts: &Opts) {
    use vagg_core::{cores_to_match, multicore_scalar_aggregate, run_algorithm, Algorithm};
    use vagg_datagen::DatasetSpec;
    use vagg_sim::SimConfig;

    let rows = opts.rows.min(200_000);
    let cfg = SimConfig::paper();
    let cells: Vec<(Distribution, u64)> = [
        (Distribution::Sorted, 76u64),
        (Distribution::Uniform, 76),
        (Distribution::Uniform, 1_220),
        (Distribution::Uniform, 78_125),
        (Distribution::Zipf, 1_220),
        (Distribution::HeavyHitter, 78_125),
    ]
    .into_iter()
    .filter(|&(_, c)| c <= opts.cards_max)
    .collect();

    let mut md = format!(
        "**§VI-A comparator: cores needed to match one vector unit \
         (n = {rows})**\n\n\
         Multicore model: Ye et al. independent tables, private machine \
         per core, serial merge — optimistic for multithreading (see \
         `vagg_core::multicore` docs), so these core counts are lower \
         bounds.\n\n\
         | dataset | c | best vector | vector speedup | cores to match |\n\
         |---|---|---|---|---|\n"
    );
    for &(d, c) in &cells {
        eprintln!("[multicore] {} c={c}...", d.name());
        let ds = DatasetSpec::paper(d, c)
            .with_rows(rows)
            .with_seed(0)
            .generate();
        let scalar = run_algorithm(Algorithm::Scalar, &cfg, &ds);
        let (best_alg, best) = Algorithm::VECTORISED
            .into_iter()
            .map(|a| (a, run_algorithm(a, &cfg, &ds)))
            .min_by(|a, b| a.1.cycles.cmp(&b.1.cycles))
            .unwrap();
        let speedup = scalar.cycles as f64 / best.cycles as f64;
        let cores = cores_to_match(
            &cfg,
            &ds.g,
            &ds.v,
            ds.spec.distribution.is_presorted(),
            best.cycles,
            64,
        );
        let cores_str = match &cores {
            Some((t, _)) => format!("{t}"),
            None => ">64 (merge-bound)".to_string(),
        };
        md.push_str(&format!(
            "| {} | {c} | {} | {speedup:.1}x | {cores_str} |\n",
            d.name(),
            best_alg.short_name(),
        ));
    }

    // Thread-scaling curve for one representative cell: where the serial
    // merge bends the curve over.
    let ds = DatasetSpec::paper(Distribution::Uniform, 1_220)
        .with_rows(rows)
        .with_seed(0)
        .generate();
    md.push_str(
        "\n*Thread scaling* — uniform, c = 1,220 (CPT; parallel + merge \
         breakdown)\n\n| cores | CPT | parallel | merge |\n|---|---|---|---|\n",
    );
    for threads in [1usize, 2, 4, 8, 16, 32] {
        let run = multicore_scalar_aggregate(&cfg, &ds.g, &ds.v, threads, false);
        md.push_str(&format!(
            "| {threads} | {:.2} | {:.2} | {:.2} |\n",
            run.cpt,
            run.parallel_cycles as f64 / rows as f64,
            run.merge_cycles as f64 / rows as f64,
        ));
    }

    let path = opts.out.join("multicore.md");
    fs::write(&path, &md).expect("write multicore");
    println!("{md}");
    println!("written: {}", path.display());
}

fn table9(runner: &GridRunner, opts: &Opts) {
    eprintln!("[table9] running all algorithms + adaptive...");
    let scalar = load_or_run_scalar(runner, opts);
    let mut series: Vec<(Algorithm, Series)> = Vec::new();
    for alg in Algorithm::VECTORISED {
        series.push((alg, load_or_run(runner, opts, alg)));
    }

    // Best algorithm per (distribution, division).
    let mut md = String::from(
        "**Table IX: best average speedup (algorithm) over baseline**\n\n\
         | dataset | low | low-normal | high-normal | high |\n|---|---|---|---|---|\n",
    );
    for &d in &runner.dists {
        md.push_str(&format!("| {} |", d.name()));
        for div in Division::ALL {
            let mut best: Option<(f64, Algorithm)> = None;
            for (alg, s) in &series {
                let t = runner.speedup_table(&scalar, s);
                if let Some((m, _)) = t.cell(d, div) {
                    if best.is_none_or(|(bm, _)| m > bm) {
                        best = Some((m, *alg));
                    }
                }
            }
            match best {
                Some((m, a)) => md.push_str(&format!(" {m:.1}x ({}) |", a.short_name())),
                None => md.push_str(" — |"),
            }
        }
        md.push('\n');
    }

    // Adaptive averages (ideal vs realistic), grand mean of per-cell
    // speedups as in §V-D. Composed from the measured per-algorithm
    // series — the adaptive run's cycle cost is the selected algorithm's.
    eprintln!("[table9] adaptive (ideal + realistic) from measured series...");
    let ideal = runner
        .adaptive_series_from(AdaptiveMode::Ideal, &series)
        .expect("ideal adaptive series");
    let realistic = runner
        .adaptive_series_from(AdaptiveMode::Realistic, &series)
        .expect("realistic adaptive series");
    let avg = |s: &Series| -> f64 {
        let cells = runner.cells();
        let sum: f64 = cells
            .iter()
            .map(|cell| scalar.cpt[cell] / s.cpt[cell])
            .sum();
        sum / cells.len() as f64
    };
    let ai = avg(&ideal);
    let ar = avg(&realistic);
    md.push_str(&format!(
        "\nideal algorithm selection: {ai:.2}x total average speedup\n\
         realistic algorithm selection: {ar:.2}x total average speedup\n\
         penalty: {:.1}%\n",
        (1.0 - ar / ai) * 100.0
    ));

    let path = opts.out.join("table9.md");
    fs::write(&path, &md).expect("write table9");
    println!("{md}");
    println!("written: {}", path.display());
}
