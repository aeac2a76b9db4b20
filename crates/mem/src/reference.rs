//! The cache and the hierarchy walk as they were before they spoke line
//! addresses (PR 18's parent), bodies verbatim: byte addresses divided by
//! the line size at every level, `%` for the set, no valid-line count,
//! one `vector_access` per line. Test-only; the differential tests in
//! [`crate::cache`] and [`crate::hierarchy`] hold the new code to it, so
//! they compare against the parent and not against a sibling of the new
//! code. [`crate::dram`] and [`crate::xor`] are shared: neither changed.

use crate::cache::{Access, CacheStats, IndexFn};
use crate::dram::Dram;
use crate::hierarchy::{HierarchyParams, HierarchyStats};
use crate::xor::poly_mod_index;

fn modulo_index(line_addr: u64, sets: u64) -> u64 {
    line_addr % sets
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

pub(crate) struct RefCache {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    index_fn: IndexFn,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    pub(crate) fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        Self::with_index(size_bytes, ways, line_bytes, modulo_index)
    }

    fn with_index(size_bytes: u64, ways: usize, line_bytes: u64, index_fn: IndexFn) -> Self {
        let sets = size_bytes / (ways as u64 * line_bytes);
        Self {
            sets,
            ways,
            line_bytes,
            index_fn,
            lines: vec![Line::default(); (sets as usize) * ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let set = (self.index_fn)(line_addr, self.sets) as usize;
        let start = set * self.ways;
        start..start + self.ways
    }

    pub(crate) fn probe(&self, byte_addr: u64) -> bool {
        let line_addr = byte_addr / self.line_bytes;
        self.lines[self.set_range(line_addr)]
            .iter()
            .any(|l| l.valid && l.tag == line_addr)
    }

    pub(crate) fn access(&mut self, byte_addr: u64, write: bool) -> Access {
        let line_addr = byte_addr / self.line_bytes;
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

    pub(crate) fn evict_line(&mut self, byte_addr: u64) -> Option<u64> {
        let line_addr = byte_addr / self.line_bytes;
        let range = self.set_range(line_addr);
        let set = &mut self.lines[range];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            l.valid = false;
            let was_dirty = l.dirty;
            l.dirty = false;
            return was_dirty.then_some(line_addr);
        }
        None
    }

    pub(crate) fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }
}

pub(crate) struct RefHierarchy {
    params: HierarchyParams,
    l1d: RefCache,
    l2: RefCache,
    dram: Dram,
    vector_l1_evictions: u64,
}

impl RefHierarchy {
    pub(crate) fn new(params: HierarchyParams) -> Self {
        let l2_index = if params.xor_l2 {
            poly_mod_index
        } else {
            modulo_index
        };
        Self {
            l1d: RefCache::new(params.l1_size, params.l1_ways, params.line_bytes),
            l2: RefCache::with_index(params.l2_size, params.l2_ways, params.line_bytes, l2_index),
            dram: Dram::new(params.dram.clone()),
            params,
            vector_l1_evictions: 0,
        }
    }

    pub(crate) fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1d.stats(),
            l2: self.l2.stats(),
            dram: self.dram.stats(),
            vector_l1_evictions: self.vector_l1_evictions,
        }
    }

    fn post_writeback_to_dram(&mut self, line_addr: u64, now: u64) {
        let addr = line_addr * self.params.line_bytes;
        let _ = self.dram.access(addr, now);
    }

    fn access_l2(&mut self, byte_addr: u64, write: bool, now: u64) -> u64 {
        let after_l2 = now + self.params.l2_latency;
        match self.l2.access(byte_addr, write) {
            Access::Hit => after_l2,
            Access::Miss { writeback } => {
                if let Some(line) = writeback {
                    self.post_writeback_to_dram(line, after_l2);
                }
                self.dram.access(byte_addr, after_l2)
            }
        }
    }

    pub(crate) fn scalar_access(&mut self, byte_addr: u64, write: bool, now: u64) -> u64 {
        let after_l1 = now + self.params.l1_latency;
        match self.l1d.access(byte_addr, write) {
            Access::Hit => after_l1,
            Access::Miss { writeback } => {
                if let Some(line) = writeback {
                    // L1 victim is installed in the L2 (write-back).
                    let addr = line * self.params.line_bytes;
                    if let Access::Miss {
                        writeback: Some(l2v),
                    } = self.l2.access(addr, true)
                    {
                        self.post_writeback_to_dram(l2v, after_l1);
                    }
                }
                self.access_l2(byte_addr, write, after_l1)
            }
        }
    }

    pub(crate) fn vector_access(&mut self, byte_addr: u64, write: bool, now: u64) -> u64 {
        if !self.params.l1_bypass_vector {
            return self.scalar_access(byte_addr, write, now);
        }
        // Coherence: pull the line out of the scalar L1 if present.
        if self.l1d.probe(byte_addr) {
            self.vector_l1_evictions += 1;
            if let Some(line) = self.l1d.evict_line(byte_addr) {
                let addr = line * self.params.line_bytes;
                if let Access::Miss {
                    writeback: Some(l2v),
                } = self.l2.access(addr, true)
                {
                    self.post_writeback_to_dram(l2v, now);
                }
            }
        }
        self.access_l2(byte_addr, write, now)
    }

    /// The machine's `vector_mem_phase` loop over `vector_access`.
    pub(crate) fn vector_mem_phase(
        &mut self,
        lines: &[u64],
        write: bool,
        start: u64,
        ports: u64,
    ) -> u64 {
        let line = self.params.line_bytes;
        let mut done = start;
        for (i, l) in lines.iter().enumerate() {
            let t = self.vector_access(l * line, write, start + i as u64 / ports);
            done = done.max(t);
        }
        done
    }
}
