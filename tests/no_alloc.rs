//! Simulated instructions allocate nothing.
//!
//! The machine keeps the line list and the offset vector of the
//! instruction in flight from one instruction to the next, and the last
//! indexed line list and CAM pass for the next instruction over the same
//! index vector, and moves unit-stride data by page run; a kernel is tens of thousands of these
//! instructions, so one `Vec` each was thousands of heap calls per SQL
//! statement. The timing model's reservation windows — one per
//! functional unit, one per cluster, one for the DRAM data bus — are
//! reserved when the machine is built, at the size their caps bound
//! them to. A counting global allocator holds the count at zero.
//!
//! The same allocator bounds the wire decoders: whatever a frame's
//! counts and lengths claim, no single allocation `Request::decode` or
//! `Response::decode` makes exceeds `MAX_FRAME_BYTES`, the most a frame
//! can carry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vagg::isa::{BinOp, CmpOp, Mreg, RedOp, Vreg};
use vagg::mem::{HierarchyParams, MemoryHierarchy};
use vagg::sim::Machine;
use vagg_server::protocol::MAX_FRAME_BYTES;
use vagg_server::{Request, Response};

thread_local! {
    /// Allocations made by this thread while it is counting; `None`
    /// while it is not (the test harness's own threads never are).
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
    /// The largest single request, in bytes, this thread made while
    /// counting.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// Counts one request of `size` bytes, if this thread is counting.
// `try_with`: a thread being torn down may allocate after its
// thread-locals are gone.
fn record(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| {
        if let Some(count) = n.get() {
            n.set(Some(count + 1));
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the thread-locals are `Cell`s of `Copy` values with const
// initialisers, so touching them neither allocates nor runs a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.replace(None)).expect("was counting")
}

/// The largest single allocation (or reallocation), in bytes, `f`
/// makes on this thread; 0 when it makes none.
fn largest_allocation_in(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    allocations_in(f);
    LARGEST.with(|l| l.get())
}

#[test]
fn the_counter_counts() {
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![1u8; 64]))),
        1
    );
    assert_eq!(allocations_in(|| ()), 0);
    assert_eq!(
        largest_allocation_in(|| {
            drop(std::hint::black_box(vec![1u8; 64]));
            drop(std::hint::black_box(vec![1u8; 4_096]));
        }),
        4_096
    );
    assert_eq!(largest_allocation_in(|| ()), 0);
}

#[test]
fn vector_instructions_do_not_allocate() {
    const ROWS: u32 = 4_096;
    let mut m = Machine::paper();
    let mvl = m.mvl();
    let keys: Vec<u32> = (0..ROWS)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1_000)
        .collect();
    let keys_at = m.space_mut().alloc_slice_u32(&keys);
    let table_at = m.space_mut().alloc(4 * 1_024, 64);
    let out_at = m.space_mut().alloc(4 * u64::from(ROWS), 64);
    let (vk, vv, vt, vi) = (Vreg(0), Vreg(1), Vreg(2), Vreg(3));
    let mask = Mreg(0);

    // One chunk of a monotable-shaped loop, and the instructions it
    // does not use.
    let chunk = |m: &mut Machine, i: u64| {
        let at = 4 * (i * mvl as u64 % u64::from(ROWS));
        m.vload_unit(vk, keys_at + at, 4, 0);
        m.viota(vi, None);
        m.vga(RedOp::Sum, vv, vk, vi);
        m.vlu(mask, vk);
        m.vgather(vt, table_at, vk, 4, Some(mask), 0);
        m.vbinop_vv(BinOp::Add, vt, vt, vv, Some(mask));
        m.vscatter(vt, table_at, vk, 4, Some(mask), 0);
        m.vgather(vt, table_at, vk, 4, None, 0);
        m.vscatter(vt, out_at, vi, 4, None, 0);
        m.vscatter_add(vv, table_at, vk, 4, None, 0);
        m.vprefetch_indexed(table_at, vk, 4, 0);
        m.vprefetch_unit(keys_at + at, 4, 0);
        m.vcmp_vs(CmpOp::Ne, mask, vk, 3, None);
        m.vstore_unit(vt, out_at + at, 4, 0);
        m.vload_strided(vv, keys_at, 64, 4, 0);
        m.vstore_strided(vv, out_at, 64, 4, 0);
    };

    m.set_vl(mvl);
    // The warm-up sizes the scratch and materialises the pages.
    for i in 0..u64::from(ROWS) / mvl as u64 {
        chunk(&mut m, i);
    }
    let allocations = allocations_in(|| {
        for i in 0..1_000 {
            chunk(&mut m, i);
        }
    });
    assert_eq!(allocations, 0, "over 1 000 chunks of 16 instructions");
    assert!(m.stats().mix.v_gathers >= 2_000);
}

#[test]
fn the_four_table_chain_does_not_allocate() {
    // `vagg_core::minmax`'s chunk: four `vga` and a `vlu` on one key
    // vector (the CAM replays the last three `vga` and the `vlu`), then a
    // gather and a scatter per table (each scatter reuses its gather's
    // line list, each next gather moves it to the next table).
    const ROWS: u32 = 4_096;
    const CELLS: u64 = 1_220;
    let mut m = Machine::paper();
    let mvl = m.mvl();
    let keys: Vec<u32> = (0..ROWS)
        .map(|i| i.wrapping_mul(2_654_435_761) % CELLS as u32)
        .collect();
    let keys_at = m.space_mut().alloc_slice_u32(&keys);
    let tables = [(); 4].map(|()| m.space_mut().alloc(4 * CELLS, 64));
    let (vk, vv, vt) = (Vreg(0), Vreg(1), Vreg(2));
    let sums = [Vreg(3), Vreg(4), Vreg(5), Vreg(6)];
    let ops = [RedOp::Sum, RedOp::Sum, RedOp::Min, RedOp::Max];
    let mask = Mreg(0);
    let chunk = |m: &mut Machine, i: u64| {
        let at = 4 * (i * mvl as u64 % u64::from(ROWS));
        m.vload_unit(vk, keys_at + at, 4, 0);
        m.vload_unit(vv, keys_at + at, 4, 0);
        for (&op, &sum) in ops.iter().zip(&sums) {
            m.vga(op, sum, vk, vv);
        }
        m.vlu(mask, vk);
        for (&table, &sum) in tables.iter().zip(&sums) {
            m.vgather(vt, table, vk, 4, Some(mask), 0);
            m.vbinop_vv(BinOp::Add, vt, vt, sum, Some(mask));
            m.vscatter(vt, table, vk, 4, Some(mask), 0);
        }
    };

    m.set_vl(mvl);
    for i in 0..u64::from(ROWS) / mvl as u64 {
        chunk(&mut m, i);
    }
    let allocations = allocations_in(|| {
        for i in 0..1_000 {
            chunk(&mut m, i);
        }
    });
    assert_eq!(allocations, 0, "over 1 000 chunks of 20 instructions");
    assert!(m.stats().mix.v_scatters >= 4_000);
}

#[test]
fn scalar_instructions_do_not_allocate() {
    // The scalar baseline's read-modify-write over a table eight times
    // the L2, so most iterations miss to DRAM. Every page exists before
    // the loop: a cell that was never written is not backed.
    const CELLS: u32 = 512 * 1_024;
    let mut m = Machine::paper();
    let table_at = m.space_mut().alloc_slice_u32(&vec![1; CELLS as usize]);
    let step = |m: &mut Machine, i: u32| {
        let cell = table_at + 4 * u64::from(i.wrapping_mul(2_654_435_761) % CELLS);
        let it = m.s_op(0);
        let at = m.s_op(it);
        let (count, ct) = m.s_load_u32(cell, at);
        let dt = m.s_op(ct);
        m.s_store_u32_split(cell, count + 1, at, dt);
    };

    // The warm-up fills the reorder buffer and the load, store and issue
    // queues (deques that grow to their capacity once) and overflows
    // every reservation window many times over: 64 entries per
    // functional unit and per cluster, 128 on the data bus.
    for i in 0..2_000 {
        step(&mut m, i);
    }
    let warm = m.stats();
    assert!(warm.mem.dram.requests > 1_000, "{:?}", warm.mem.dram);
    let allocations = allocations_in(|| {
        for i in 2_000..6_000 {
            step(&mut m, i);
        }
    });
    assert_eq!(allocations, 0, "over 4 000 iterations of five micro-ops");
    assert!(m.stats().mem.dram.requests > warm.mem.dram.requests + 2_000);
}

#[test]
fn a_flushed_hierarchy_books_its_bus_without_allocating() {
    // `flush` idles the DRAM, which empties the bus window; the window
    // that replaces it is reserved like the first one.
    let mut h = MemoryHierarchy::new(HierarchyParams::westmere());
    let miss = |h: &mut MemoryHierarchy, i: u64| h.scalar_access(i * 68 * 1_024, false, 10 * i);
    for i in 0..300 {
        miss(&mut h, i);
    }
    h.flush();
    let allocations = allocations_in(|| {
        for i in 300..900 {
            miss(&mut h, i);
        }
    });
    assert_eq!(allocations, 0, "over 600 DRAM transactions after a flush");
    assert_eq!(h.stats().dram.requests, 900);
}

/// Decodes `bytes` both ways and returns the largest single allocation
/// either decoder made.
fn largest_decode_allocation(bytes: &[u8]) -> usize {
    largest_allocation_in(|| {
        drop(std::hint::black_box(Request::decode(bytes)));
        drop(std::hint::black_box(Response::decode(bytes)));
    })
}

/// Frames whose counts and lengths claim far more than they carry.
#[test]
fn decoders_do_not_trust_a_frame_s_counts() {
    let query_id = [7u8; 8];
    let statement = [3u8; 4];
    let cases: [(&str, Vec<u8>); 6] = [
        (
            "Rows claiming u32::MAX rows",
            vec![0x82, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2],
        ),
        (
            "a row claiming u16::MAX group parts",
            vec![0x82, 1, 0, 0, 0, 9, 9, 9, 9, 0xFF, 0xFF, 1],
        ),
        (
            "a Query string of u32::MAX bytes",
            [&[0x02][..], &query_id, &[0xFF, 0xFF, 0xFF, 0xFF], b"x"].concat(),
        ),
        (
            "an Outcome string of u32::MAX bytes",
            vec![0x85, 0xFF, 0xFF, 0xFF, 0xFF, b'x'],
        ),
        (
            "an Execute claiming 65 535 parameters",
            [
                &[0x04][..],
                &query_id,
                &statement,
                &[0xFF, 0xFF],
                &[1, 2, 3],
            ]
            .concat(),
        ),
        (
            "an Error with an unknown code",
            vec![0x83, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
        ),
    ];
    for (what, bytes) in cases {
        assert!(Request::decode(&bytes).is_err() && Response::decode(&bytes).is_err());
        let largest = largest_decode_allocation(&bytes);
        assert!(largest <= MAX_FRAME_BYTES, "{what}: {largest} bytes");
    }
}

/// Request and response opcodes, so that arbitrary bodies mostly reach
/// a variant's decoder instead of the unknown-opcode arm.
const OPCODES: [u8; 17] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86,
    0x87,
];

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

    /// Arbitrary bodies behind a real opcode, some of their bytes
    /// saturated so that counts and lengths claim the most they can.
    #[test]
    fn no_decode_allocation_exceeds_a_frame(
        op in proptest::sample::select(OPCODES.to_vec()),
        body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        saturated in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..6),
    ) {
        let mut bytes = body;
        for at in saturated {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = 0xFF;
            }
        }
        bytes.insert(0, op);
        let largest = largest_decode_allocation(&bytes);
        proptest::prop_assert!(largest <= MAX_FRAME_BYTES, "{:?}: {} bytes", bytes, largest);
    }
}
