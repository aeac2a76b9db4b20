//! Instruction-trace consistency: the trace is an event-level view of the
//! same execution the `OpMix` counters summarise, so with an unbounded
//! buffer the two must agree exactly, and traces of real kernels must
//! show the instruction sequences the paper describes.

use vagg::core::{run_algorithm, Algorithm};
use vagg::datagen::{DatasetSpec, Distribution};
use vagg::isa::{BinOp, Mreg, RedOp, Vreg};
use vagg::sim::{Machine, SimConfig, TraceClass};

/// Runs one algorithm with tracing enabled and returns the machine.
fn traced_run(alg: Algorithm, n: usize, c: u64) -> Machine {
    let ds = DatasetSpec::paper(Distribution::Uniform, c)
        .with_rows(n)
        .with_seed(7)
        .generate();
    let mut m = Machine::new(SimConfig::paper());
    m.enable_trace(usize::MAX);
    let st = vagg::core::StagedInput::stage(&mut m, &ds);
    // Drive the kernel directly so the trace and mix come from one machine.
    match alg {
        Algorithm::Scalar => {
            vagg::core::scalar::scalar_aggregate(&mut m, &st);
        }
        Algorithm::Monotable => {
            vagg::core::monotable::monotable_aggregate(&mut m, &st);
        }
        _ => {
            let run = run_algorithm(alg, &SimConfig::paper(), &ds);
            assert!(run.cycles > 0);
        }
    }
    m
}

#[test]
fn trace_counts_match_opmix_for_monotable() {
    let mut m = traced_run(Algorithm::Monotable, 2_000, 152);
    let mix = m.mix();
    let t = m.take_trace().unwrap();
    assert_eq!(t.dropped(), 0, "unbounded buffer must not drop");

    let count = |class: TraceClass| t.of_class(class).count() as u64;
    assert_eq!(count(TraceClass::ScalarAlu), mix.scalar_arith);
    assert_eq!(count(TraceClass::ScalarLoad), mix.scalar_loads);
    assert_eq!(count(TraceClass::ScalarStore), mix.scalar_stores);
    assert_eq!(count(TraceClass::VecReduction), mix.v_reductions);
    assert_eq!(count(TraceClass::Cam), mix.v_cam);
    assert_eq!(count(TraceClass::MaskOp), mix.v_mask_ops);
    assert_eq!(count(TraceClass::Xfer), mix.v_scalar_xfer);
    assert_eq!(count(TraceClass::VecCompute), mix.v_elementwise);
    let loads: u64 = t
        .events()
        .iter()
        .filter(|e| e.class == TraceClass::VecLoad)
        .count() as u64;
    assert_eq!(
        loads,
        mix.v_unit_loads + mix.v_strided_loads + mix.v_gathers
    );
    let stores: u64 = t
        .events()
        .iter()
        .filter(|e| e.class == TraceClass::VecStore)
        .count() as u64;
    assert_eq!(
        stores,
        mix.v_unit_stores + mix.v_strided_stores + mix.v_scatters
    );
}

#[test]
fn tracing_changes_no_simulated_counter() {
    // The trace event of a vector memory instruction reports the line
    // list the instruction built for its own timing; recording it must
    // leave cycles, micro-ops, cache and DRAM counters and the
    // instruction mix exactly as an untraced machine has them, and every
    // recorded line count must be what the pattern says it touches.
    for (alg, c) in [
        (Algorithm::Monotable, 152),
        (Algorithm::Polytable, 152),
        (Algorithm::StandardSortedReduce, 1_220),
        (Algorithm::AdvancedSortedReduce, 1_220),
        (Algorithm::ScatterAddMonotable, 152),
    ] {
        let ds = DatasetSpec::paper(Distribution::Zipf, c)
            .with_rows(2_000)
            .with_seed(7)
            .generate();
        let run = |trace: bool| {
            let mut m = Machine::new(SimConfig::paper());
            if trace {
                m.enable_trace(usize::MAX);
            }
            let st = vagg::core::StagedInput::stage(&mut m, &ds);
            alg.execute(&mut m, &st);
            m
        };
        let (mut traced, untraced) = (run(true), run(false));
        assert_eq!(traced.stats(), untraced.stats(), "{}", alg.name());

        let t = traced.take_trace().unwrap();
        let with_lines = t.events().iter().filter(|e| e.lines.is_some()).count() as u64;
        let mix = untraced.mix();
        assert_eq!(
            with_lines,
            mix.v_unit_loads
                + mix.v_strided_loads
                + mix.v_gathers
                + mix.v_unit_stores
                + mix.v_strided_stores
                + mix.v_scatters
                + mix.v_scatter_adds
                + mix.v_prefetches,
            "{}: every vector memory event carries a line count",
            alg.name()
        );
        // A unit-stride transfer of `vl` words touches the lines its
        // span covers — the count is checkable from the event alone.
        for e in t
            .events()
            .iter()
            .filter(|e| e.mnemonic == "vld.u" && e.vl > 0)
        {
            let (addr, lines) = (e.addr.unwrap(), e.lines.unwrap() as u64);
            let span = (addr + 4 * e.vl as u64 - 1) / 64 - addr / 64 + 1;
            assert_eq!(lines, span, "vld.u of {} words at {addr:#x}", e.vl);
        }
    }
}

#[test]
fn trace_counts_match_opmix_for_scalar() {
    let mut m = traced_run(Algorithm::Scalar, 1_000, 76);
    let mix = m.mix();
    let t = m.take_trace().unwrap();
    let count = |class: TraceClass| t.of_class(class).count() as u64;
    assert_eq!(count(TraceClass::ScalarAlu), mix.scalar_arith);
    assert_eq!(count(TraceClass::ScalarLoad), mix.scalar_loads);
    assert_eq!(count(TraceClass::ScalarStore), mix.scalar_stores);
    // The scalar baseline uses no vector instructions at all.
    assert!(t.events().iter().all(|e| !e.class.is_vector()));
}

#[test]
fn monotable_trace_shows_the_fig15_sequence() {
    // The Figure 15 inner loop is vgasum → vlu → gather → vadd → scatter;
    // every vgasum in the trace must be followed (before the next vgasum)
    // by a vlu, a gather and a scatter.
    let mut m = traced_run(Algorithm::Monotable, 2_000, 152);
    let t = m.take_trace().unwrap();
    let names: Vec<&str> = t.events().iter().map(|e| e.mnemonic).collect();
    let count = |n: &str| names.iter().filter(|&&x| x == n).count();
    // Per chunk: two vgasum (sums + counts), one vlu, and one masked
    // gather/add/scatter per table.
    let vlu = count("vlu");
    assert!(vlu > 0, "monotable must execute vlu");
    assert_eq!(count("vgasum"), 2 * vlu);
    assert_eq!(count("vgather"), 2 * vlu);
    assert_eq!(count("vscatter"), 2 * vlu);
    // The Figure 15 order holds within each chunk: vgasum → vlu →
    // gather → add → scatter.
    let first_vlu = names.iter().position(|&n| n == "vlu").unwrap();
    let chunk = &names[first_vlu..];
    let pos = |n: &str| chunk.iter().position(|&x| x == n).unwrap();
    assert!(pos("vgather") < pos("vscatter"));
    assert!(
        names[..first_vlu].contains(&"vgasum"),
        "vgasum precedes the first vlu"
    );
}

#[test]
fn completion_cycles_are_bounded_by_machine_cycles() {
    let mut m = traced_run(Algorithm::Monotable, 1_000, 76);
    let cycles = m.cycles();
    let t = m.take_trace().unwrap();
    // Loads and compute complete before they retire, so their completion
    // tokens are bounded by the commit clock. Stores, prefetches and
    // scatter-adds retire at address generation and drain afterwards
    // (write-buffer semantics), so only their *start* is bounded.
    assert!(t
        .events()
        .iter()
        .filter(|e| !matches!(
            e.class,
            TraceClass::ScalarStore
                | TraceClass::VecStore
                | TraceClass::Prefetch
                | TraceClass::ScatterAdd
        ))
        .all(|e| e.done <= cycles));
    // Sequence numbers are dense and ordered.
    for (i, e) in t.events().iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
}

#[test]
fn bounded_trace_keeps_head_and_counts_rest() {
    let ds = DatasetSpec::paper(Distribution::Uniform, 76)
        .with_rows(2_000)
        .with_seed(7)
        .generate();
    let mut m = Machine::new(SimConfig::paper());
    m.enable_trace(100);
    let st = vagg::core::StagedInput::stage(&mut m, &ds);
    vagg::core::monotable::monotable_aggregate(&mut m, &st);
    let mix = m.mix();
    let total_expected = mix.scalar_ops()
        + mix.v_elementwise
        + mix.v_reductions
        + mix.v_cam
        + mix.v_mask_ops
        + mix.v_scalar_xfer
        + mix.v_unit_loads
        + mix.v_strided_loads
        + mix.v_gathers
        + mix.v_unit_stores
        + mix.v_strided_stores
        + mix.v_scatters
        + mix.v_scatter_adds
        + mix.v_prefetches;
    let t = m.take_trace().unwrap();
    assert_eq!(t.events().len(), 100);
    // setvl (Control) events are traced but not in OpMix, so total() is
    // at least the OpMix total.
    assert!(
        t.total() >= total_expected,
        "{} < {total_expected}",
        t.total()
    );
    assert!(t.dropped() > 0);
    let listing = t.listing();
    assert!(listing.contains("further instructions not stored"));
}

#[test]
fn trace_disabled_by_default_and_removable() {
    let mut m = Machine::paper();
    assert!(m.trace().is_none());
    m.set_vl(4);
    m.vset(Vreg(0), 1, None);
    assert!(m.take_trace().is_none());

    m.enable_trace(16);
    m.vbinop_vs(BinOp::Add, Vreg(1), Vreg(0), 1, None);
    assert_eq!(m.trace().unwrap().total(), 1);
    let t = m.take_trace().unwrap();
    assert_eq!(t.events()[0].mnemonic, "vadd");
    // After take_trace, recording stops.
    m.vbinop_vs(BinOp::Add, Vreg(1), Vreg(0), 1, None);
    assert!(m.trace().is_none());
}

#[test]
fn irregular_instruction_mnemonics_appear() {
    let mut m = Machine::paper();
    m.enable_trace(64);
    m.set_vl(8);
    m.vset(Vreg(0), 5, None);
    m.vset(Vreg(1), 1, None);
    m.vpi(Vreg(2), Vreg(0));
    m.vlu(Mreg(0), Vreg(0));
    m.vga(RedOp::Sum, Vreg(3), Vreg(0), Vreg(1));
    m.vga(RedOp::Min, Vreg(4), Vreg(0), Vreg(1));
    m.vga(RedOp::Max, Vreg(5), Vreg(0), Vreg(1));
    m.vred(RedOp::Sum, Vreg(3), None);
    let t = m.take_trace().unwrap();
    let names: Vec<&str> = t.events().iter().map(|e| e.mnemonic).collect();
    for expect in [
        "setvl", "vset", "vpi", "vlu", "vgasum", "vgamin", "vgamax", "vredsum",
    ] {
        assert!(names.contains(&expect), "missing {expect} in {names:?}");
    }
    // CAM events carry the CAM class.
    assert_eq!(t.of_class(TraceClass::Cam).count(), 5);
}

#[test]
fn fu_utilization_reflects_algorithm_character() {
    // The scalar baseline exercises only scalar clusters; monotable
    // shifts the work onto the vector execution cluster.
    let mut scalar = traced_run(Algorithm::Scalar, 2_000, 152);
    let mut mono = traced_run(Algorithm::Monotable, 2_000, 152);
    let util = |m: &mut Machine, name: &str| -> f64 {
        m.fu_utilization()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap()
    };
    assert_eq!(util(&mut scalar, "vec-exec"), 0.0);
    assert_eq!(util(&mut scalar, "vec-mem-agu"), 0.0);
    assert!(util(&mut scalar, "load-agu") > 0.1);
    assert!(util(&mut mono, "vec-exec") > util(&mut scalar, "vec-exec"));
    assert!(util(&mut mono, "vec-exec") > 0.1);
    // All fractions stay in [0, 1].
    for (_, u) in mono.fu_utilization() {
        assert!((0.0..=1.0).contains(&u), "utilisation {u} out of range");
    }
}

#[test]
fn zero_length_indexed_instructions_trace_without_an_address() {
    // An indexed access of no elements has no element 0 to name: the
    // event carries no address and no lines, and tracing still changes
    // no simulated counter.
    let run = |trace: bool| {
        let mut m = Machine::new(SimConfig::paper());
        if trace {
            m.enable_trace(16);
        }
        let table = m.space_mut().alloc(256, 64);
        m.set_vl(0);
        m.vgather(Vreg(0), table, Vreg(1), 4, None, 0);
        m.vscatter(Vreg(0), table, Vreg(1), 4, None, 0);
        m.vprefetch_indexed(table, Vreg(1), 4, 0);
        m.vscatter_add(Vreg(0), table, Vreg(1), 4, None, 0);
        m
    };
    let (mut traced, untraced) = (run(true), run(false));
    assert_eq!(traced.stats(), untraced.stats());
    let t = traced.take_trace().unwrap();
    let memory: Vec<_> = t.events().iter().filter(|e| e.class.is_memory()).collect();
    let names: Vec<&str> = memory.iter().map(|e| e.mnemonic).collect();
    assert_eq!(names, ["vgather", "vscatter", "vpf.x", "vscatadd"]);
    for e in memory {
        assert_eq!(
            (e.vl, e.addr, e.lines),
            (0, None, Some(0)),
            "{}",
            e.mnemonic
        );
    }
}
