//! The full memory hierarchy: L1-d → L2 → DRAM.
//!
//! Composition rules from the paper:
//!
//! * Table I latencies — L1-d 4 cycles, L2 10 cycles, 64-byte lines;
//! * scalar accesses walk L1-d → L2 → DRAM;
//! * **vector accesses bypass the L1-d** and go straight to the L2
//!   (§II-A, after Tarantula); a line cached by the scalar side is evicted
//!   (written back if dirty) first, keeping the two paths coherent;
//! * the L2 set index uses XOR-based placement (see [`crate::xor`]);
//! * dirty victims are written back to the next level; write-backs occupy
//!   DRAM banks but do not delay the requester (posted writes).

use crate::cache::{modulo_index, Access, Cache, CacheStats};
use crate::dram::{Dram, DramParams, DramStats};
use crate::xor::poly_mod_index;

/// Geometry and latency knobs (defaults = Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyParams {
    /// L1-d size in bytes.
    pub l1_size: u64,
    /// L1-d associativity.
    pub l1_ways: usize,
    /// L1-d hit latency (cycles).
    pub l1_latency: u64,
    /// L2 size in bytes.
    pub l2_size: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// Line size in bytes (all levels).
    pub line_bytes: u64,
    /// Use XOR-based set placement in the L2 (paper default: yes).
    pub xor_l2: bool,
    /// Vector memory traffic bypasses the L1-d (paper default: yes).
    pub l1_bypass_vector: bool,
    /// DRAM configuration.
    pub dram: DramParams,
}

impl Default for HierarchyParams {
    fn default() -> Self {
        Self::westmere()
    }
}

impl HierarchyParams {
    /// Table I / Table II configuration.
    pub fn westmere() -> Self {
        Self {
            l1_size: 32 * 1024,
            l1_ways: 8,
            l1_latency: 4,
            l2_size: 256 * 1024,
            l2_ways: 8,
            l2_latency: 10,
            line_bytes: 64,
            xor_l2: true,
            l1_bypass_vector: true,
            dram: DramParams::ddr3_1333(),
        }
    }
}

/// Combined counters for one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1-d counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Vector accesses that had to evict a scalar-side L1 line.
    pub vector_l1_evictions: u64,
}

/// L1-d + L2 + DRAM with the paper's routing rules.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    params: HierarchyParams,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    vector_l1_evictions: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy.
    pub fn new(params: HierarchyParams) -> Self {
        let l2_index = if params.xor_l2 {
            poly_mod_index
        } else {
            modulo_index
        };
        Self {
            l1d: Cache::new(params.l1_size, params.l1_ways, params.line_bytes),
            l2: Cache::with_index(params.l2_size, params.l2_ways, params.line_bytes, l2_index),
            dram: Dram::new(params.dram.clone()),
            params,
            vector_l1_evictions: 0,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &HierarchyParams {
        &self.params
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.params.line_bytes
    }

    /// Counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1d.stats(),
            l2: self.l2.stats(),
            dram: self.dram.stats(),
            vector_l1_evictions: self.vector_l1_evictions,
        }
    }

    /// Resets counters (not cache/DRAM contents).
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.dram.reset_stats();
        self.vector_l1_evictions = 0;
    }

    /// Empties caches and idles DRAM (between experiments).
    pub fn flush(&mut self) {
        self.l1d.flush();
        self.l2.flush();
        self.dram.quiesce();
    }

    // A dirty line leaving the L2 is posted to DRAM: occupies a bank but
    // does not delay the requester.
    fn post_writeback_to_dram(&mut self, line_addr: u64, now: u64) {
        let addr = line_addr * self.params.line_bytes;
        let _ = self.dram.access(addr, now);
    }

    // A dirty line leaving the L1 is installed in the L2 (write-back),
    // which may push a dirty line of its own out to DRAM.
    fn write_back_to_l2(&mut self, line_addr: u64, now: u64) {
        if let Access::Miss {
            writeback: Some(l2v),
        } = self.l2.access_line(line_addr, true)
        {
            self.post_writeback_to_dram(l2v, now);
        }
    }

    // Fill path shared by both access kinds once the request reaches the
    // L2; a miss goes to DRAM at `dram_addr`, a byte address in the line.
    fn access_l2(&mut self, line_addr: u64, dram_addr: u64, write: bool, now: u64) -> u64 {
        let after_l2 = now + self.params.l2_latency;
        match self.l2.access_line(line_addr, write) {
            Access::Hit => after_l2,
            Access::Miss { writeback } => {
                if let Some(line) = writeback {
                    self.post_writeback_to_dram(line, after_l2);
                }
                self.dram.access(dram_addr, after_l2)
            }
        }
    }

    /// A scalar load/store of any width within one line. Returns the
    /// completion cycle.
    pub fn scalar_access(&mut self, byte_addr: u64, write: bool, now: u64) -> u64 {
        let after_l1 = now + self.params.l1_latency;
        let line_addr = self.l1d.line_of(byte_addr);
        match self.l1d.access_line(line_addr, write) {
            Access::Hit => after_l1,
            Access::Miss { writeback } => {
                if let Some(line) = writeback {
                    self.write_back_to_l2(line, after_l1);
                }
                self.access_l2(line_addr, byte_addr, write, after_l1)
            }
        }
    }

    /// One element of a vector memory instruction. Bypasses the L1-d when
    /// the paper's configuration is active. Returns the completion cycle.
    pub fn vector_access(&mut self, byte_addr: u64, write: bool, now: u64) -> u64 {
        self.vector_lines(&[self.l1d.line_of(byte_addr)], write, now, 1)
    }

    /// The memory phase of a vector memory instruction: its distinct
    /// lines, as line addresses in the order they are requested, `ports`
    /// per cycle from `start` on. Returns the last completion (`start`
    /// when there are no lines).
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    ///
    /// The model is per line request — their order, each one's issue
    /// cycle, one LRU tick per cache access, where a write-back is posted
    /// — and is what `vector_access` did for one line at a time from byte
    /// addresses (`differential_tests::line_requests_complete_as_at_the_parent`).
    pub fn vector_lines(&mut self, lines: &[u64], write: bool, start: u64, ports: u64) -> u64 {
        let line_bytes = self.params.line_bytes;
        let mut done = start;
        // Line `i` is requested at `start + i / ports`.
        for (cycle, group) in lines.chunks(ports as usize).enumerate() {
            let now = start + cycle as u64;
            for &line_addr in group {
                let addr = line_addr * line_bytes;
                let t = if self.params.l1_bypass_vector {
                    // Coherence: pull the line out of the scalar L1 if
                    // present.
                    if self.l1d.probe_line(line_addr) {
                        self.vector_l1_evictions += 1;
                        if let Some(line) = self.l1d.invalidate_line(line_addr) {
                            self.write_back_to_l2(line, now);
                        }
                    }
                    self.access_l2(line_addr, addr, write, now)
                } else {
                    self.scalar_access(addr, write, now)
                };
                done = done.max(t);
            }
        }
        done
    }

    /// True if the byte's line currently resides in the L2 (test hook).
    pub fn l2_contains(&self, byte_addr: u64) -> bool {
        self.l2.probe(byte_addr)
    }

    /// True if the byte's line currently resides in the L1-d (test hook).
    pub fn l1_contains(&self, byte_addr: u64) -> bool {
        self.l1d.probe(byte_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyParams::westmere())
    }

    #[test]
    fn scalar_l1_hit_costs_l1_latency() {
        let mut h = hier();
        h.scalar_access(0x1000, false, 0); // warm
        let t = h.scalar_access(0x1000, false, 100);
        assert_eq!(t, 104);
    }

    #[test]
    fn scalar_l2_hit_costs_l1_plus_l2() {
        let mut h = hier();
        h.vector_access(0x1000, false, 0); // line in L2 only
        let t = h.scalar_access(0x1000, false, 100);
        assert_eq!(t, 100 + 4 + 10);
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let mut h = hier();
        let t = h.scalar_access(0x1000, false, 0);
        // Must include at least tRCD+tCL memory cycles × ratio.
        assert!(t >= 4 + 10 + (9 + 9) * 4);
        assert_eq!(h.stats().dram.requests, 1);
    }

    #[test]
    fn vector_access_bypasses_l1() {
        let mut h = hier();
        h.vector_access(0x2000, false, 0);
        assert!(h.l2_contains(0x2000));
        assert!(!h.l1_contains(0x2000));
        assert_eq!(h.stats().l1.accesses, 0);
    }

    #[test]
    fn vector_hit_in_l2_costs_l2_latency() {
        let mut h = hier();
        h.vector_access(0x2000, false, 0);
        let t = h.vector_access(0x2000, false, 50);
        assert_eq!(t, 60);
    }

    #[test]
    fn vector_evicts_scalar_l1_copy() {
        let mut h = hier();
        h.scalar_access(0x3000, true, 0); // dirty in L1
        assert!(h.l1_contains(0x3000));
        h.vector_access(0x3000, false, 100);
        assert!(!h.l1_contains(0x3000));
        assert_eq!(h.stats().vector_l1_evictions, 1);
        // The dirty data moved into the L2.
        assert!(h.l2_contains(0x3000));
    }

    #[test]
    fn bypass_can_be_disabled() {
        let mut p = HierarchyParams::westmere();
        p.l1_bypass_vector = false;
        let mut h = MemoryHierarchy::new(p);
        h.vector_access(0x2000, false, 0);
        assert!(h.l1_contains(0x2000));
    }

    #[test]
    fn repeated_misses_heat_up_the_l2() {
        let mut h = hier();
        let t_cold = h.vector_access(0x9000, false, 0);
        let t_warm = h.vector_access(0x9000, false, t_cold) - t_cold;
        assert!(t_warm < t_cold);
        assert_eq!(t_warm, 10);
    }

    #[test]
    fn stats_track_all_levels() {
        let mut h = hier();
        h.scalar_access(0, false, 0);
        h.scalar_access(0, false, 10);
        h.vector_access(0x10000, false, 20);
        let s = h.stats();
        assert_eq!(s.l1.accesses, 2);
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l2.accesses, 2); // one L1-miss fill + one vector access
        assert_eq!(s.dram.requests, 2);
    }

    #[test]
    fn flush_forgets_contents() {
        let mut h = hier();
        h.scalar_access(0x1000, false, 0);
        h.flush();
        assert!(!h.l1_contains(0x1000));
        assert!(!h.l2_contains(0x1000));
    }

    #[test]
    fn working_set_beyond_l1_spills_to_l2() {
        let mut h = hier();
        // 64 KB working set: 2× the L1, fits the 256 KB L2.
        let lines = 1024u64;
        let mut now = 0;
        for round in 0..2 {
            for i in 0..lines {
                now = h.scalar_access(i * 64, false, now);
            }
            if round == 0 {
                h.reset_stats();
            }
        }
        let s = h.stats();
        // Second round: L1 thrashes but L2 absorbs everything.
        assert!(s.l1.misses > 0);
        assert_eq!(s.dram.requests, 0, "L2-resident set went to DRAM");
    }
}

/// Old scan ≡ new fast path, and the old per-line walk from byte
/// addresses ≡ `vector_lines`, seen through the whole hierarchy.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use crate::dram::with_scan_only;
    use crate::reference::RefHierarchy;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    struct Access {
        line: u64,
        write: bool,
        vector: bool,
        /// Issue time relative to the previous completion: well before
        /// it (overlapping requests, bus backfill), at it, or after it.
        offset: i64,
    }

    // 16 Ki lines = 1 MiB, four times the L2: most accesses reach DRAM,
    // and dirty victims post write-backs at earlier timestamps.
    fn accesses() -> impl Strategy<Value = Vec<Access>> {
        let offset = prop_oneof![-400i64..0, Just(0i64), 0i64..60];
        prop::collection::vec(
            (0u64..16_384, any::<bool>(), any::<bool>(), offset).prop_map(
                |(line, write, vector, offset)| Access {
                    line,
                    write,
                    vector,
                    offset,
                },
            ),
            300..500,
        )
    }

    fn drive(stream: &[Access]) -> (Vec<u64>, HierarchyStats) {
        let mut h = MemoryHierarchy::new(HierarchyParams::westmere());
        let mut now = 0u64;
        let done: Vec<u64> = stream
            .iter()
            .map(|a| {
                now = now.saturating_add_signed(a.offset);
                let done = if a.vector {
                    h.vector_access(a.line * 64, a.write, now)
                } else {
                    h.scalar_access(a.line * 64, a.write, now)
                };
                now = done;
                done
            })
            .collect();
        (done, h.stats())
    }

    /// One step of a program: a scalar access or the memory phase of a
    /// vector instruction, whichever `draw` falls to.
    #[derive(Debug, Clone)]
    struct Step {
        /// Scalar if below the case's scalar share (in tenths).
        draw: u8,
        /// The scalar access: a byte offset into the working set, any
        /// alignment.
        byte: u64,
        /// The vector phase's line list.
        lines: Vec<u64>,
        write: bool,
    }

    // Small caches (a 2 KiB L1, a 32 KiB L2: 32 and 512 lines of 64
    // bytes) so that a hundred steps fill and turn over both. The working
    // set is 768 lines, one and a half times the L2 at 64 bytes, so dirty
    // L2 victims reach DRAM; scalar accesses cluster on its first 4 KiB
    // (twice the L1), which vector phases revisit: the L1 is hit, evicted
    // from clean and dirty, and emptied. Line lists repeat lines, as a
    // scatter-add's two phases do across calls and as no deduplicated
    // list does within one — the walk must not care.
    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let line = || prop_oneof![0u64..64, 0u64..768];
        prop::collection::vec(
            (
                0u8..10,
                0u64..4_096,
                prop::collection::vec(line(), 0..40),
                any::<bool>(),
            )
                .prop_map(|(draw, byte, lines, write)| Step {
                    draw,
                    byte,
                    lines,
                    write,
                }),
            50..150,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        #[test]
        fn every_access_completes_when_the_scan_says(stream in accesses()) {
            let fast = drive(&stream);
            let scanned = with_scan_only(|| drive(&stream));
            prop_assert_eq!(fast, scanned);
        }

        #[test]
        fn line_requests_complete_as_at_the_parent(
            steps in steps(),
            // Mostly scalar: a full L1. Mostly vector: an L1 of a few
            // lines that vector phases keep emptying, where the valid-line
            // count decides.
            scalar_tenths in prop::sample::select(vec![1u8, 6]),
            line_bytes in prop::sample::select(vec![32u64, 64, 128]),
            l1_bypass_vector in any::<bool>(),
            xor_l2 in any::<bool>(),
            ports in prop::sample::select(vec![1u64, 2, 3, 4, 8]),
        ) {
            let params = HierarchyParams {
                l1_size: 2 * 1_024,
                l2_size: 32 * 1_024,
                line_bytes,
                l1_bypass_vector,
                xor_l2,
                ..HierarchyParams::westmere()
            };
            let mut new = MemoryHierarchy::new(params.clone());
            let mut old = RefHierarchy::new(params);
            let mut now = 0u64;
            for Step { draw, byte, lines, write } in steps {
                if draw < scalar_tenths {
                    let done = new.scalar_access(byte, write, now);
                    prop_assert_eq!(done, old.scalar_access(byte, write, now));
                    now = done;
                } else {
                    let done = new.vector_lines(&lines, write, now, ports);
                    prop_assert_eq!(done, old.vector_mem_phase(&lines, write, now, ports));
                    // The one-line wrapper is the same walk.
                    let byte = 3 * byte;
                    prop_assert_eq!(
                        new.vector_access(byte, write, done),
                        old.vector_access(byte, write, done)
                    );
                    // Issue the next step before this one is done.
                    now += (done - now) / 4;
                }
                prop_assert_eq!(new.stats(), old.stats());
            }
        }
    }
}
