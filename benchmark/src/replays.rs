//! Layer replays: short loops that drive one layer's public API
//! directly, so a layer the SQL stack buries still has a host-time
//! number of its own. Inputs are fixed; every figure is the median of
//! several repetitions of the same loop.

use crate::host::calib_ms;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use vagg_cpu::{CpuParams, FuKind, Pipeline};
use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_datagen::{DatasetSpec, Distribution};
use vagg_db::{vector_filter, Predicate};
use vagg_isa::{exec, irregular, BinOp, CmpOp, MemPattern, Mreg, RedOp, Vreg};
use vagg_mem::{HierarchyParams, MemoryHierarchy};
use vagg_server::{Response, WireRow};
use vagg_sim::Machine;
use vagg_sort::{radix_sort, vsr_sort, SortArrays};

const REPS: usize = 5;
/// The paper's maximum vector length.
const VL: usize = 64;
const LINE: u64 = 64;

/// Median over [`REPS`] repetitions of `f`'s nanoseconds, divided by
/// `per` (the items one call of `f` processes).
fn ns_per(per: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&samples)
}

fn seeded(n: usize, below: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.next_below(below)).collect()
}

/// Every replay, as `(metric, value)`.
pub fn all() -> Vec<(&'static str, f64)> {
    let mut out = vec![("harness.calib_ms", calib_ms())];
    out.extend(datagen());
    out.extend(isa());
    out.extend(mem());
    out.extend(cpu());
    out.extend(sim());
    out.extend(sort());
    out.extend(filter());
    out.extend(protocol());
    out
}

fn datagen() -> [(&'static str, f64); 1] {
    const ROWS: usize = 20_000;
    let ns = ns_per(ROWS * Distribution::ALL.len(), || {
        for dist in Distribution::ALL {
            black_box(DatasetSpec::paper(dist, 1_220).with_rows(ROWS).generate());
        }
    });
    [("datagen.gen_ns_per_row", ns)]
}

fn isa() -> [(&'static str, f64); 3] {
    const CALLS: usize = 2_000;
    let offsets = seeded(VL, 1 << 20, 1);
    let patterns = [
        MemPattern::UnitStride {
            base: 4096,
            elem_bytes: 4,
        },
        MemPattern::Strided {
            base: 4096,
            stride: 1024,
            elem_bytes: 4,
        },
        MemPattern::Indexed {
            base: 4096,
            offsets,
            elem_bytes: 4,
        },
    ];
    let lines = ns_per(CALLS * patterns.len(), || {
        for _ in 0..CALLS {
            for p in &patterns {
                black_box(p.lines_touched(VL, LINE));
            }
        }
    });

    let (a, b) = (seeded(VL, 1000, 2), seeded(VL, 1000, 3));
    let mask: Vec<bool> = a.iter().map(|x| x % 3 != 0).collect();
    let mut dst = vec![0u64; VL];
    let mut dst_mask = vec![false; VL];
    // Four instructions, each masked and unmasked (compress has no
    // unmasked form: its mask is its operand).
    let exec_ns = ns_per(CALLS * 7 * VL, || {
        for _ in 0..CALLS {
            for m in [None, Some(mask.as_slice())] {
                exec::binop_vv(BinOp::Add, &mut dst, &a, &b, VL, m);
                exec::compare_vs(CmpOp::Ne, &mut dst_mask, &a, 7, VL, m);
                black_box(exec::reduce(RedOp::Sum, &a, VL, m));
            }
            black_box(exec::compress(&mut dst, &a, &mask, VL));
        }
        black_box((&dst, &dst_mask));
    });

    let keys = seeded(VL, 16, 4);
    let cam = ns_per(CALLS * 3 * VL, || {
        for _ in 0..CALLS {
            black_box(irregular::vpi(&keys, VL, 4));
            black_box(irregular::vlu(&keys, VL, 4));
            black_box(irregular::vga_sum(&keys, &a, VL, 4));
        }
    });
    [
        ("isa.lines_touched_ns", lines),
        ("isa.exec_ns_per_elem", exec_ns),
        ("isa.cam_ns_per_key", cam),
    ]
}

fn mem() -> [(&'static str, f64); 1] {
    // A sequential sweep and a random walk over twice the L2, vector
    // and scalar side alternating.
    let params = HierarchyParams::westmere();
    let span = 2 * params.l2_size;
    let random = seeded(16_384, span / 4, 5);
    let ns = ns_per(2 * random.len(), || {
        let mut hier = MemoryHierarchy::new(params.clone());
        let mut now = 0;
        for (i, r) in random.iter().enumerate() {
            now = hier.vector_access((i as u64 * 4) % span, false, now);
            now = hier.scalar_access(r * 4, i % 4 == 0, now);
        }
        black_box(now);
    });
    [("mem.access_ns", ns)]
}

fn cpu() -> [(&'static str, f64); 1] {
    const OPS: usize = 50_000;
    let kinds = [
        FuKind::ScalarArith,
        FuKind::VecArith,
        FuKind::LoadAgu,
        FuKind::VecMemAgu,
    ];
    let ns = ns_per(OPS, || {
        let mut pipe = Pipeline::new(CpuParams::westmere());
        let mut ready = 0;
        for i in 0..OPS {
            let occupancy = 1 + (i % 16) as u64;
            let start = pipe.dispatch(kinds[i % kinds.len()], occupancy, ready);
            ready = pipe.retire(start + occupancy).saturating_sub(8);
        }
        black_box(pipe.cycles());
    });
    [("cpu.dispatch_ns", ns)]
}

fn sim() -> [(&'static str, f64); 3] {
    const OPS: usize = 5_000;
    let (va, vb, vd, vidx) = (Vreg(1), Vreg(2), Vreg(3), Vreg(4));
    let m1 = Mreg(1);
    let mut m = Machine::paper();
    m.set_vl(VL);
    let column: Vec<u32> = seeded(1 << 16, 1000, 6).iter().map(|&x| x as u32).collect();
    let base = m.space_mut().alloc_slice_u32(&column);
    m.vload_unit(va, base, 4, 0);
    m.vload_unit(vb, base + 256, 4, 0);
    m.vcmp_vs(CmpOp::Ne, m1, va, 7, None);
    // Gather indices: the loaded values, spread over the column.
    m.vbinop_vs(BinOp::Mul, vidx, va, 61, None);

    let masked = ns_per(OPS, || {
        for _ in 0..OPS {
            m.vbinop_vv(BinOp::Add, vd, va, vb, Some(m1));
        }
    });
    let unit = ns_per(OPS, || {
        for i in 0..OPS as u64 {
            m.vload_unit(vd, base + (i * 256) % (column.len() as u64 * 4 - 256), 4, 0);
        }
    });
    let gather = ns_per(OPS, || {
        for _ in 0..OPS {
            m.vgather(vd, base, vidx, 4, None, 0);
        }
    });
    black_box(m.cycles());
    [
        ("sim.masked_op_ns", masked),
        ("sim.unit_load_ns", unit),
        ("sim.gather_ns", gather),
    ]
}

fn sort() -> [(&'static str, f64); 2] {
    const ROWS: usize = 20_000;
    const MAX_KEY: u32 = 65_535;
    let keys: Vec<u32> = seeded(ROWS, u64::from(MAX_KEY) + 1, 7)
        .iter()
        .map(|&k| k as u32)
        .collect();
    let vals: Vec<u32> = (0..ROWS as u32).collect();
    let time = |sort: fn(&mut Machine, &SortArrays, u32) -> u32| {
        ns_per(ROWS, || {
            let mut m = Machine::paper();
            let arrays = SortArrays::stage(&mut m, &keys, &vals);
            black_box(sort(&mut m, &arrays, MAX_KEY));
        })
    };
    [
        ("sort.radix_ns_per_row", time(radix_sort)),
        ("sort.vsr_ns_per_row", time(vsr_sort)),
    ]
}

fn filter() -> [(&'static str, f64); 1] {
    const ROWS: usize = 32_768;
    let v: Vec<u32> = seeded(ROWS, 1000, 8).iter().map(|&x| x as u32).collect();
    let ns = ns_per(ROWS, || {
        let mut m = Machine::paper();
        let src = m.space_mut().alloc_slice_u32(&v);
        let dst = m.space_mut().alloc(4 * ROWS as u64, 64);
        black_box(vector_filter(
            &mut m,
            src,
            ROWS,
            Predicate::GreaterThan(500),
            &[(src, dst)],
        ));
    });
    [("db.filter.ns_per_row", ns)]
}

fn protocol() -> [(&'static str, f64); 3] {
    // The reply to a five-aggregate GROUP BY over 1220 groups.
    const ROWS: usize = 1_220;
    const CALLS: usize = 20;
    let rows: Vec<WireRow> = (0..ROWS as u32)
        .map(|g| WireRow {
            group: g,
            group_parts: vec![g],
            values: vec![f64::from(g), f64::from(g) * 499.5, 0.0, 999.0, 499.5],
        })
        .collect();
    let reply = Response::Rows(rows);
    let bytes = reply.encode();
    let encode = ns_per(CALLS * ROWS, || {
        for _ in 0..CALLS {
            black_box(reply.encode());
        }
    });
    let decode = ns_per(CALLS * ROWS, || {
        for _ in 0..CALLS {
            black_box(Response::decode(&bytes).expect("decode what encode wrote"));
        }
    });
    [
        ("server.protocol.encode_ns_per_row", encode),
        ("server.protocol.decode_ns_per_row", decode),
        (
            "server.protocol.reply_bytes_per_row",
            bytes.len() as f64 / ROWS as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_replay_reports_a_positive_figure() {
        let all = super::all();
        assert_eq!(all.len(), 16);
        for (name, value) in all {
            assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
        }
    }
}
