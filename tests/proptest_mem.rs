//! Property-based tests on the memory hierarchy's timing model: for
//! arbitrary access streams the counters must stay internally consistent
//! and the latencies must obey the structural invariants of §II (L1 →
//! L2 → DRAM walks, vector L1 bypass, locality always helping).

use proptest::prelude::*;
use vagg::mem::{HierarchyParams, MemoryHierarchy};

#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u64,
    write: bool,
    vector: bool,
    gap: u64,
}

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    prop::collection::vec(
        (0u64..1 << 16, any::<bool>(), any::<bool>(), 0u64..8).prop_map(
            |(addr, write, vector, gap)| Access {
                addr,
                write,
                vector,
                gap,
            },
        ),
        1..200,
    )
}

fn drive(h: &mut MemoryHierarchy, stream: &[Access]) -> u64 {
    let mut now = 0u64;
    for a in stream {
        now += a.gap;
        let done = if a.vector {
            h.vector_access(a.addr, a.write, now)
        } else {
            h.scalar_access(a.addr, a.write, now)
        };
        assert!(done >= now, "completion {done} before issue {now}");
        now = now.max(done.saturating_sub(32)); // overlapping issue window
    }
    now
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counters_are_internally_consistent(stream in accesses()) {
        let mut h = MemoryHierarchy::new(HierarchyParams::westmere());
        drive(&mut h, &stream);
        let s = h.stats();
        prop_assert_eq!(s.l1.hits + s.l1.misses, s.l1.accesses);
        prop_assert_eq!(s.l2.hits + s.l2.misses, s.l2.accesses);
        // Every L2 access is a scalar L1 miss (fill), a vector access
        // (bypass), an L1 write-back install, or a coherence eviction of
        // an L1 line hit by a vector access — never invented from
        // nothing.
        let scalar = stream.iter().filter(|a| !a.vector).count() as u64;
        let vector = stream.iter().filter(|a| a.vector).count() as u64;
        prop_assert_eq!(s.l1.accesses, scalar);
        prop_assert!(
            s.l2.accesses
                <= s.l1.misses
                    + vector
                    + s.l1.writebacks
                    + s.vector_l1_evictions,
            "l2 accesses {} exceed possible sources {} + {} + {} + {}",
            s.l2.accesses, s.l1.misses, vector, s.l1.writebacks,
            s.vector_l1_evictions
        );
        // DRAM only sees L2 misses and L2 write-backs.
        prop_assert!(
            s.dram.requests <= s.l2.misses + s.l2.writebacks,
            "dram requests {} exceed l2 misses {} + writebacks {}",
            s.dram.requests, s.l2.misses, s.l2.writebacks
        );
    }

    #[test]
    fn repeated_line_access_hits(addr in 0u64..1 << 20) {
        let mut h = MemoryHierarchy::new(HierarchyParams::westmere());
        let cold = h.scalar_access(addr, false, 0);
        let before = h.stats();
        let warm_start = cold + 1;
        let warm = h.scalar_access(addr, false, warm_start);
        let after = h.stats();
        prop_assert_eq!(after.l1.hits, before.l1.hits + 1);
        // A warm hit is never slower than the cold walk took.
        prop_assert!(warm - warm_start <= cold);
    }

    #[test]
    fn vector_accesses_bypass_the_l1(stream in accesses()) {
        let mut h = MemoryHierarchy::new(HierarchyParams::westmere());
        let only_vector: Vec<Access> = stream
            .iter()
            .map(|a| Access { vector: true, ..*a })
            .collect();
        drive(&mut h, &only_vector);
        let s = h.stats();
        prop_assert_eq!(s.l1.accesses, 0, "vector stream must not touch L1");
        prop_assert_eq!(
            s.l2.accesses,
            only_vector.len() as u64,
            "every vector access goes to the L2"
        );
    }

    #[test]
    fn timing_is_replay_deterministic(stream in accesses()) {
        let mut h1 = MemoryHierarchy::new(HierarchyParams::westmere());
        let mut h2 = MemoryHierarchy::new(HierarchyParams::westmere());
        let a = drive(&mut h1, &stream);
        let b = drive(&mut h2, &stream);
        prop_assert_eq!(a, b);
    }

    // The DRAM-bound regime: a footprint four times the L2, requests
    // issued well before the previous one completes (so the data bus
    // backfills gaps) and enough of them that the bus's reservation
    // window overflows. Whatever shortcuts the model takes on the host,
    // a replay must complete every single access on the same cycle and
    // leave the same counters — and a clone taken mid-stream must carry
    // on exactly like the original.
    #[test]
    fn dram_bound_streams_replay_access_for_access(
        stream in prop::collection::vec(
            (0u64..16_384, any::<bool>(), any::<bool>(), 0u64..500),
            300..700,
        ),
        fork_at in 0usize..300,
    ) {
        let completions = |h: &mut MemoryHierarchy, stream: &[(u64, bool, bool, u64)], mut now: u64| {
            let done: Vec<u64> = stream
                .iter()
                .map(|&(line, write, vector, overlap)| {
                    let at = now.saturating_sub(overlap);
                    now = if vector {
                        h.vector_access(line * 64, write, at)
                    } else {
                        h.scalar_access(line * 64, write, at)
                    };
                    now
                })
                .collect();
            (done, now)
        };
        let mut whole = MemoryHierarchy::new(HierarchyParams::westmere());
        let (expected, _) = completions(&mut whole, &stream, 0);

        let mut head = MemoryHierarchy::new(HierarchyParams::westmere());
        let (mut got, now) = completions(&mut head, &stream[..fork_at], 0);
        let mut tail = head.clone();
        got.extend(completions(&mut tail, &stream[fork_at..], now).0);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(tail.stats(), whole.stats());
        prop_assert!(whole.stats().dram.requests > 128, "stream never filled the bus window");
    }

    #[test]
    fn flush_empties_both_caches(stream in accesses()) {
        let mut h = MemoryHierarchy::new(HierarchyParams::westmere());
        drive(&mut h, &stream);
        h.flush();
        // After a flush no line can still be resident.
        for a in &stream {
            prop_assert!(!h.l1_contains(a.addr));
            prop_assert!(!h.l2_contains(a.addr));
        }
    }
}

#[test]
fn capacity_overflow_of_dirty_lines_generates_writebacks() {
    // Write one line per L1 set way and then some: once the working set
    // exceeds the 32 KB L1, dirty victims must be written back (counted),
    // not dropped.
    let mut h = MemoryHierarchy::new(HierarchyParams::westmere());
    let line = h.line_bytes();
    let l1_lines = 32 * 1024 / line; // 512 lines
    let mut now = 0;
    for i in 0..l1_lines * 3 {
        now = h.scalar_access(i * line, true, now);
    }
    let s = h.stats();
    assert!(
        s.l1.writebacks >= l1_lines,
        "streaming 3x the L1 in dirty lines produced only {} write-backs",
        s.l1.writebacks
    );
}
