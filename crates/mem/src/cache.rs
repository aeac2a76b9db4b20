//! Set-associative cache model (write-back, write-allocate, true-LRU).
//!
//! Matches the cache hierarchy of Table I: L1-i 32 KB/4-way, L1-d 32 KB/
//! 8-way, L2 256 KB/8-way, all with 64-byte lines. The set-index function is
//! pluggable so the L2 can use the XOR-based placement of §II-A (see
//! [`crate::xor`]).

/// Where a line's set index comes from.
pub type IndexFn = fn(line_addr: u64, sets: u64) -> u64;

/// Default modulo placement: low bits of the line address.
pub fn modulo_index(line_addr: u64, sets: u64) -> u64 {
    line_addr % sets
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent; if a dirty victim was evicted its line address
    /// is reported so the caller can write it back to the next level.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

impl Access {
    /// Whether this access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Access::Hit)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// Counters exposed by [`Cache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty lines evicted (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 when no accesses have occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A single cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    index_fn: IndexFn,
    lines: Vec<Line>, // sets * ways
    /// How many of `lines` are valid.
    valid_lines: usize,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `ways` associativity and
    /// `line_bytes` lines, using the default modulo set index.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is an exact multiple of `ways *
    /// line_bytes` and the set count is a power of two.
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        Self::with_index(size_bytes, ways, line_bytes, modulo_index)
    }

    /// Like [`Cache::new`] but with a custom set-index function.
    pub fn with_index(size_bytes: u64, ways: usize, line_bytes: u64, index_fn: IndexFn) -> Self {
        assert!(ways > 0 && line_bytes > 0);
        assert_eq!(size_bytes % (ways as u64 * line_bytes), 0);
        let sets = size_bytes / (ways as u64 * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            sets,
            ways,
            line_bytes,
            index_fn,
            lines: vec![Line::default(); (sets as usize) * ways],
            valid_lines: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let set = (self.index_fn)(line_addr, self.sets) as usize;
        let start = set * self.ways;
        start..start + self.ways
    }

    /// The line address of a byte address.
    pub(crate) fn line_of(&self, byte_addr: u64) -> u64 {
        byte_addr / self.line_bytes
    }

    /// Looks up a byte address without modifying state (except no stats).
    pub fn probe(&self, byte_addr: u64) -> bool {
        self.probe_line(self.line_of(byte_addr))
    }

    /// [`Cache::probe`] by line address.
    pub(crate) fn probe_line(&self, line_addr: u64) -> bool {
        // No valid line, no hit: `valid_lines` counts the valid entries of
        // `lines` (held to a recount by `differential_tests`), so an empty
        // cache answers without indexing or scanning a set — the scalar
        // L1 as most vector line requests find it.
        if self.valid_lines == 0 {
            return false;
        }
        self.lines[self.set_range(line_addr)]
            .iter()
            .any(|l| l.valid && l.tag == line_addr)
    }

    /// Accesses a byte address; `write` marks the line dirty. On a miss the
    /// line is allocated (write-allocate for both directions).
    pub fn access(&mut self, byte_addr: u64, write: bool) -> Access {
        self.access_line(self.line_of(byte_addr), write)
    }

    /// [`Cache::access`] by line address.
    pub(crate) fn access_line(&mut self, line_addr: u64, write: bool) -> Access {
        self.tick += 1;
        self.stats.accesses += 1;
        let tick = self.tick;
        let range = self.set_range(line_addr);
        let set = &mut self.lines[range];

        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            l.lru = tick;
            l.dirty |= write;
            self.stats.hits += 1;
            return Access::Hit;
        }

        self.stats.misses += 1;
        // Victim: invalid way first, else true-LRU.
        let victim = if let Some(v) = set.iter_mut().find(|l| !l.valid) {
            self.valid_lines += 1;
            v
        } else {
            set.iter_mut().min_by_key(|l| l.lru).expect("ways > 0")
        };
        let writeback = (victim.valid && victim.dirty).then_some(victim.tag);
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag: line_addr,
            valid: true,
            dirty: write,
            lru: tick,
        };
        Access::Miss { writeback }
    }

    /// Removes a line if present, returning its address if it was dirty
    /// (used to keep the scalar L1 coherent with the vector L1-bypass path).
    pub fn evict_line(&mut self, byte_addr: u64) -> Option<u64> {
        self.invalidate_line(self.line_of(byte_addr))
    }

    /// [`Cache::evict_line`] by line address.
    pub(crate) fn invalidate_line(&mut self, line_addr: u64) -> Option<u64> {
        let range = self.set_range(line_addr);
        let set = &mut self.lines[range];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            l.valid = false;
            self.valid_lines -= 1;
            let was_dirty = l.dirty;
            l.dirty = false;
            return was_dirty.then_some(line_addr);
        }
        None
    }

    /// Invalidates everything (e.g. between experiments) without writing
    /// back.
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.valid_lines = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(512, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = Cache::new(32 * 1024, 8, 64);
        assert_eq!(c.sets(), 64);
        let c = Cache::new(256 * 1024, 8, 64);
        assert_eq!(c.sets(), 512);
        let c = Cache::new(32 * 1024, 4, 64);
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x40, false).is_hit());
        assert!(c.access(0x40, false).is_hit());
        assert!(c.access(0x7f, false).is_hit()); // same line
        assert!(!c.access(0x80, false).is_hit()); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(); // 4 sets → set stride 256 B for 64 B lines
                            // Three lines mapping to set 0: 0x000, 0x100, 0x200.
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch 0x000 again → 0x100 is LRU
        c.access(0x200, false); // evicts 0x100
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        let r = c.access(0x200, false); // evicts dirty 0x000
        assert_eq!(r, Access::Miss { writeback: Some(0) });
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x100, false);
        let r = c.access(0x200, false);
        assert_eq!(r, Access::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, true); // now dirty via hit
        c.access(0x100, false);
        let r = c.access(0x200, false);
        assert_eq!(r, Access::Miss { writeback: Some(0) });
    }

    #[test]
    fn evict_line_reports_dirtiness() {
        let mut c = tiny();
        c.access(0x000, true);
        assert_eq!(c.evict_line(0x000), Some(0));
        assert!(!c.probe(0x000));
        c.access(0x040, false);
        assert_eq!(c.evict_line(0x040), None);
        assert_eq!(c.evict_line(0xdead_beef), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0, true);
        c.flush();
        assert!(!c.probe(0));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny(); // 8 lines total
                            // 16-line working set, round-robin: every access misses.
        for round in 0..3 {
            for i in 0..16u64 {
                let hit = c.access(i * 64, false).is_hit();
                if round > 0 {
                    assert!(!hit, "line {i} unexpectedly survived");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        Cache::new(3 * 64 * 2, 2, 64);
    }
}

#[cfg(test)]
mod model_tests {
    //! Model-based checking: drive the cache and an explicit reference
    //! LRU model with the same access stream and require identical
    //! hit/miss/writeback behaviour.

    use super::*;
    use std::collections::VecDeque;

    /// Reference model: per set, an ordered list of (line, dirty), most
    /// recently used last.
    struct RefLru {
        sets: Vec<VecDeque<(u64, bool)>>,
        ways: usize,
        line_bytes: u64,
    }

    impl RefLru {
        fn new(sets: u64, ways: usize, line_bytes: u64) -> Self {
            Self {
                sets: (0..sets).map(|_| VecDeque::new()).collect(),
                ways,
                line_bytes,
            }
        }

        fn access(&mut self, byte_addr: u64, write: bool) -> Access {
            let line = byte_addr / self.line_bytes;
            let nsets = self.sets.len() as u64;
            let set = &mut self.sets[(line % nsets) as usize];
            if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
                let (l, d) = set.remove(pos).expect("present");
                set.push_back((l, d || write));
                return Access::Hit;
            }
            let writeback = if set.len() == self.ways {
                let (victim, dirty) = set.pop_front().expect("full set");
                dirty.then_some(victim)
            } else {
                None
            };
            set.push_back((line, write));
            Access::Miss { writeback }
        }
    }

    #[test]
    fn agrees_with_reference_lru_on_pseudorandom_stream() {
        let mut cache = Cache::new(4 * 1024, 4, 64); // 16 sets × 4 ways
        let mut model = RefLru::new(16, 4, 64);
        let mut x = 0x12345678u64;
        for i in 0..20_000u64 {
            // Mix of local and far accesses, ~30% writes.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (32 * 1024);
            let write = x % 10 < 3;
            let got = cache.access(addr, write);
            let expect = model.access(addr, write);
            assert_eq!(got, expect, "divergence at access {i} (addr {addr:#x})");
        }
        let s = cache.stats();
        assert_eq!(s.accesses, 20_000);
        assert_eq!(s.hits + s.misses, 20_000);
    }

    #[test]
    fn agrees_on_adversarial_set_thrash() {
        // ways+1 lines in one set: classic LRU kill pattern.
        let mut cache = Cache::new(4 * 1024, 4, 64); // 16 sets
        let mut model = RefLru::new(16, 4, 64);
        for round in 0..50u64 {
            for k in 0..5u64 {
                let addr = k * 16 * 64; // all map to set 0
                let got = cache.access(addr, round % 2 == 0);
                let expect = model.access(addr, round % 2 == 0);
                assert_eq!(got, expect, "round {round} line {k}");
            }
        }
    }
}

/// The line-address cache against the byte-address one it replaced.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use crate::reference::RefCache;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(u64, bool),
        Probe(u64),
        Evict(u64),
        Flush,
    }

    // 4 sets × 2 ways: 24 lines' worth of byte addresses keeps every set
    // full and turning over; evictions and flushes empty it again.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let addr = || 0u64..24 * 64;
        prop::collection::vec(
            prop_oneof![
                (addr(), any::<bool>()).prop_map(|(a, w)| Op::Access(a, w)),
                (addr(), any::<bool>()).prop_map(|(a, w)| Op::Access(a, w)),
                addr().prop_map(Op::Probe),
                addr().prop_map(Op::Evict),
                addr().prop_map(Op::Evict),
                Just(Op::Flush),
            ],
            1..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn same_outcomes_and_a_valid_count_that_is_a_recount(
            ops in ops(),
            line_bytes in prop::sample::select(vec![32u64, 48, 64, 128]),
        ) {
            let mut cache = Cache::new(8 * line_bytes, 2, line_bytes);
            let mut reference = RefCache::new(8 * line_bytes, 2, line_bytes);
            for op in ops {
                match op {
                    Op::Access(a, w) => prop_assert_eq!(cache.access(a, w), reference.access(a, w)),
                    Op::Probe(a) => prop_assert_eq!(cache.probe(a), reference.probe(a)),
                    Op::Evict(a) => prop_assert_eq!(cache.evict_line(a), reference.evict_line(a)),
                    Op::Flush => {
                        cache.flush();
                        reference.flush();
                    }
                }
                let recount = cache.lines.iter().filter(|l| l.valid).count();
                prop_assert_eq!(cache.valid_lines, recount, "after {:?}", op);
            }
            prop_assert_eq!(cache.stats(), reference.stats());
        }
    }
}
