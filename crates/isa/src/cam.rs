//! The CAM (content-addressable memory) structure that implements the
//! irregular-DLP instructions (paper Figure 11 / Figure 14).
//!
//! The hardware holds one entry per MVL element: `{valid, key, last_idx,
//! accumulator}`. An input vector is processed from the least- to the
//! most-significant element; each element takes two cycles (lookup +
//! write-back). To reduce latency the CAM has `p` ports: a *slice* of up to
//! `p` adjacent elements can be processed in parallel **provided the slice
//! contains no two equal keys** (a conflict would require same-cycle
//! read-after-write on one entry). This port model is what makes sorted
//! inputs pay the maximum latency (every adjacent pair conflicts) while
//! high-cardinality inputs approach `2 * ceil(VL / p)` cycles — exactly the
//! behaviour the paper reports in §V-B.

/// One CAM entry (Figure 11: `valid`, `key`, `last idx`, `count`/`sum`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    last_idx: usize,
    acc: u64,
}

/// Software model of the MVL-entry CAM with `p` ports.
///
/// The same structure backs VPI, VLU and the VGAx family; only the update
/// rule differs (increment vs. sum/min/max with a value operand) and whether
/// the output is taken before or after the update.
///
/// The entry list is the model: its order (first occurrence), `last_idx`
/// and length are what the instructions report. How an entry is *found*
/// is host business — a hardware CAM matches every entry at once, so the
/// lookup goes through a hash index instead of a scan of the list.
#[derive(Debug, Clone)]
pub struct Cam {
    entries: Vec<Entry>,
    /// Open-addressed key → entry lookup: a slot holds the entry's
    /// position in `entries` plus one, zero while empty. Sized (at least
    /// 4 slots per element, so probes stay short) and cleared by every
    /// pass that matches keys (not by a replay).
    index: Vec<u16>,
    /// The keys of the slice being formed (timing only).
    slice: Vec<u64>,
    ports: usize,
    /// Cycles consumed by operations since construction or [`Cam::reset`].
    cycles: u64,
    /// Per element of the last pass that matched keys, its entry: that
    /// pass's keys are `entries[replay[i]].key`, and element `i` was its
    /// key's first instance iff no earlier element named that entry
    /// (entries are in first-occurrence order).
    replay: Vec<usize>,
    /// Whether `replay` describes that pass: no [`Cam::reset`] since.
    replayable: bool,
}

pub(crate) const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where the probe for `key` starts in an open-addressed index of `slots`
/// entries (a power of two): a multiplicative hash, the top
/// `log2(slots)` bits of the product.
#[inline]
pub(crate) fn first_slot(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(HASH_MULTIPLIER) >> (u64::BITS - slots.trailing_zeros())) as usize
}

/// Greedy slicing of `keys` into groups of up to `ports` adjacent elements
/// with pairwise-distinct keys; 2 cycles (lookup + write-back) per slice.
fn slice_cycles(keys: &[u64], ports: usize, slice: &mut Vec<u64>) -> u64 {
    let mut cycles = 0u64;
    slice.clear();
    for &k in keys {
        if slice.len() == ports || slice.contains(&k) {
            cycles += 2;
            slice.clear();
        }
        slice.push(k);
    }
    if !slice.is_empty() {
        cycles += 2;
    }
    cycles
}

impl Cam {
    /// Creates a CAM with capacity for `mvl` distinct keys and `p` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    pub fn new(mvl: usize, ports: usize) -> Self {
        assert!(ports > 0, "CAM needs at least one port");
        Self {
            entries: Vec::with_capacity(mvl),
            index: Vec::new(),
            slice: Vec::with_capacity(ports),
            ports,
            cycles: 0,
            replay: Vec::with_capacity(mvl),
            replayable: false,
        }
    }

    /// Number of ports `p`.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Clears all valid bits and the cycle counter (done at instruction
    /// issue; the CAM is not architectural state).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.cycles = 0;
        self.replayable = false;
    }

    /// Where `key`'s entry is in `entries`, or else the index slot that
    /// will name it once pushed (meaningless while there is no index).
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        if self.index.is_empty() {
            return self.entries.iter().position(|e| e.key == key).ok_or(0);
        }
        let slots = self.index.len();
        let mut slot = first_slot(key, slots);
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                n if self.entries[usize::from(n) - 1].key == key => return Ok(usize::from(n) - 1),
                _ => slot = (slot + 1) & (slots - 1),
            }
        }
    }

    /// Runs one instruction pass over `keys[..vl]`: `update` is given the
    /// accumulator of the element's entry (`None` = first instance) and
    /// the element number, and returns the new accumulator.
    ///
    /// The entry list, `last_idx`, `occupancy()` and `cycles()` depend
    /// on the keys alone. So a pass over the keys of the last one, with
    /// no [`Cam::reset`] between (the Figure 15 loop runs every `vga`
    /// and the `vlu` on one key register), replays that pass's element →
    /// entry map instead of matching again
    /// (`differential_tests::replayed_pass_equals_the_scan`).
    pub(crate) fn pass<F>(&mut self, keys: &[u64], vl: usize, mut update: F)
    where
        F: FnMut(Option<u64>, usize) -> u64,
    {
        let keys = &keys[..vl];
        if self.replayable
            && self.replay.len() == vl
            && keys
                .iter()
                .zip(&self.replay)
                .all(|(&k, &e)| self.entries[e].key == k)
        {
            let mut seen = 0;
            for (i, &e) in self.replay.iter().enumerate() {
                let first = e == seen;
                seen += usize::from(first);
                let e = &mut self.entries[e];
                e.acc = update((!first).then_some(e.acc), i);
            }
            return;
        }
        self.reset();
        self.cycles = slice_cycles(keys, self.ports, &mut self.slice);
        self.replay.clear();

        // Entry numbers 1..=vl must fit a slot; a longer vector (no
        // machine configures one) gets no index and is scanned.
        let slots = if vl <= usize::from(u16::MAX) {
            (4 * vl.max(1)).next_power_of_two()
        } else {
            0
        };
        self.index.clear();
        self.index.resize(slots, 0);
        for (i, &k) in keys.iter().enumerate() {
            match self.find(k) {
                Ok(e) => {
                    self.replay.push(e);
                    let e = &mut self.entries[e];
                    e.acc = update(Some(e.acc), i);
                    e.last_idx = i;
                }
                Err(slot) => {
                    self.replay.push(self.entries.len());
                    self.entries.push(Entry {
                        key: k,
                        last_idx: i,
                        acc: update(None, i),
                    });
                    if let Some(named) = self.index.get_mut(slot) {
                        *named = self.entries.len() as u16;
                    }
                }
            }
        }
        self.replayable = true;
    }

    /// Runs one instruction pass over `keys[..vl]`, applying `update` to the
    /// accumulator of the matching entry (`None` accumulator = first
    /// instance) and collecting per-element outputs.
    ///
    /// `update` returns `(stored, emitted)`: the new accumulator value and
    /// the value placed in the output vector for this element.
    ///
    /// Returns the output vector; the per-element *last-instance* mask is
    /// available afterwards via [`Cam::last_unique_mask`].
    pub fn run<F>(&mut self, keys: &[u64], vl: usize, mut update: F) -> Vec<u64>
    where
        F: FnMut(Option<u64>, usize) -> (u64, u64),
    {
        let mut out = vec![0u64; keys.len()];
        self.pass(keys, vl, |prev, i| {
            let (stored, emitted) = update(prev, i);
            out[i] = emitted;
            stored
        });
        out
    }

    /// The lookup as a scan of the entry list, as `run` was before it had
    /// an index; kept as the reference that `differential_tests` hold
    /// the indexed pass to.
    #[cfg(test)]
    fn run_scan<F>(&mut self, keys: &[u64], vl: usize, mut update: F) -> Vec<u64>
    where
        F: FnMut(Option<u64>, usize) -> (u64, u64),
    {
        self.reset();
        let mut out = vec![0u64; keys.len()];
        // Timing: greedy slicing into groups of up to `ports` adjacent
        // elements with pairwise-distinct keys; 2 cycles per slice.
        let mut slice_len = 0usize;
        let mut slice_keys: Vec<u64> = Vec::with_capacity(self.ports);
        for i in 0..vl {
            let k = keys[i];
            if slice_len == self.ports || slice_keys.contains(&k) {
                self.cycles += 2;
                slice_len = 0;
                slice_keys.clear();
            }
            slice_len += 1;
            slice_keys.push(k);

            // Functional update.
            match self.entries.iter_mut().find(|e| e.key == k) {
                Some(e) => {
                    let (stored, emitted) = update(Some(e.acc), i);
                    e.acc = stored;
                    e.last_idx = i;
                    out[i] = emitted;
                }
                None => {
                    let (stored, emitted) = update(None, i);
                    self.entries.push(Entry {
                        key: k,
                        last_idx: i,
                        acc: stored,
                    });
                    out[i] = emitted;
                }
            }
        }
        if slice_len > 0 {
            self.cycles += 2;
        }
        out
    }

    /// Converts the `last_idx` fields of all valid entries into the VLU
    /// bitmask (paper Figure 10b): bit `i` is set iff element `i` was the
    /// final instance of its key.
    pub fn last_unique_mask(&self, len: usize) -> Vec<bool> {
        let mut m = vec![false; len];
        self.last_unique_mask_into(&mut m);
        m
    }

    /// [`Cam::last_unique_mask`] into a mask the caller owns.
    pub(crate) fn last_unique_mask_into(&self, mask: &mut [bool]) {
        mask.fill(false);
        for e in &self.entries {
            mask[e.last_idx] = true;
        }
    }

    /// Number of distinct keys currently held.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

/// Cycle count for one CAM-class instruction over `keys[..vl]` with `ports`
/// ports, without performing the functional work.
pub fn cam_cycles(keys: &[u64], vl: usize, ports: usize) -> u64 {
    assert!(ports > 0);
    let vl = vl.min(keys.len());
    slice_cycles(&keys[..vl], ports, &mut Vec::with_capacity(ports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distinct_uses_full_ports() {
        let keys: Vec<u64> = (0..8).collect();
        assert_eq!(cam_cycles(&keys, 8, 4), 4); // two slices of 4
        assert_eq!(cam_cycles(&keys, 8, 8), 2); // one slice
        assert_eq!(cam_cycles(&keys, 8, 1), 16); // fully serial
    }

    #[test]
    fn equal_run_pays_maximum_latency() {
        let keys = vec![5u64; 8];
        // Every adjacent pair conflicts: one element per slice.
        assert_eq!(cam_cycles(&keys, 8, 4), 16);
    }

    #[test]
    fn figure11_input_slicing() {
        // Figure 11's input: 7 5 5 5 11 9 9 11 with p implicit; with p = 4
        // slices are [7 5] [5] [5 11 9] [9 11] → 4 slices → 8 cycles.
        let keys = [7u64, 5, 5, 5, 11, 9, 9, 11];
        assert_eq!(cam_cycles(&keys, 8, 4), 8);
    }

    #[test]
    fn vl_truncates_processing() {
        let keys = vec![5u64; 8];
        assert_eq!(cam_cycles(&keys, 2, 4), 4);
        assert_eq!(cam_cycles(&keys, 0, 4), 0);
    }

    #[test]
    fn run_tracks_occupancy_and_cycles() {
        let keys = [7u64, 5, 5, 5, 11, 9, 9, 11];
        let mut cam = Cam::new(8, 4);
        let out = cam.run(&keys, 8, |prev, _| {
            let n = prev.map_or(0, |c| c + 1);
            (n, n)
        });
        // VPI semantics check (Figure 10a): 0 0 1 2 0 0 1 1.
        assert_eq!(out, vec![0, 0, 1, 2, 0, 0, 1, 1]);
        assert_eq!(cam.occupancy(), 4); // keys {7, 5, 11, 9}
        assert_eq!(cam.cycles(), cam_cycles(&keys, 8, 4));
    }

    #[test]
    fn last_unique_mask_matches_figure_10b() {
        let keys = [7u64, 5, 5, 5, 11, 9, 9, 11];
        let mut cam = Cam::new(8, 4);
        cam.run(&keys, 8, |prev, _| {
            let n = prev.map_or(0, |c| c + 1);
            (n, n)
        });
        assert_eq!(
            cam.last_unique_mask(8),
            vec![true, false, false, true, false, false, true, true]
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut cam = Cam::new(4, 2);
        cam.run(&[1, 2, 3], 3, |p, _| (p.unwrap_or(0), 0));
        assert!(cam.occupancy() > 0);
        cam.reset();
        assert_eq!(cam.occupancy(), 0);
        assert_eq!(cam.cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        Cam::new(8, 0);
    }
}

/// The indexed pass against the scan it replaced.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use crate::exec::RedOp;
    use crate::irregular::{vga_on, vlu_on, vpi_on};
    use proptest::prelude::*;

    const LEN: usize = 64;

    // All equal, all distinct, skewed, and keys the multiplicative hash
    // sends to few slots: multiples of 2^58 keep only their low 6 bits
    // after the multiply.
    fn keyvecs() -> impl Strategy<Value = Vec<u64>> {
        let colliding = prop_oneof![
            (0u64..64).prop_map(|m| m << 58),
            Just(u64::MAX),
            Just(0u64),
            (0u64..4).prop_map(|m| u64::MAX - m),
        ];
        // Zipf-ish: the minimum of three draws leans towards small keys.
        let skewed = (0u64..40, 0u64..40, 0u64..40).prop_map(|(a, b, c)| a.min(b).min(c));
        prop_oneof![
            any::<u64>().prop_map(|k| vec![k; LEN]),
            any::<u64>().prop_map(|k| (0..LEN as u64).map(|i| k.wrapping_add(i)).collect()),
            prop::collection::vec(skewed, LEN..LEN + 1),
            prop::collection::vec(colliding, LEN..LEN + 1),
            prop::collection::vec(0u64..8, LEN..LEN + 1),
        ]
    }

    /// What is observable of a CAM after an instruction.
    fn state(cam: &Cam) -> (u64, usize, Vec<bool>) {
        (cam.cycles(), cam.occupancy(), cam.last_unique_mask(LEN))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        #[test]
        fn indexed_pass_equals_the_scan(
            keys in keyvecs(),
            other_keys in keyvecs(),
            values in prop::collection::vec(any::<u64>(), LEN..LEN + 1),
            vl in prop::sample::select(vec![0usize, 1, LEN / 2, LEN]),
            other_vl in prop::sample::select(vec![0usize, 1, 5, LEN]),
            ports in prop::sample::select(vec![1usize, 4, 8]),
        ) {
            // One CAM for every instruction of the case, as a machine's is.
            let mut cam = Cam::new(LEN, ports);
            let mut reference = Cam::new(LEN, ports);
            let count = |prev: Option<u64>, _| {
                let n = prev.map_or(0, |c| c + 1);
                (n, n)
            };
            let mut out = vec![7u64; LEN];
            let mut mask = vec![true; LEN];

            prop_assert_eq!(vpi_on(&mut cam, &keys, vl, &mut out), cam.cycles());
            prop_assert_eq!(&out, &reference.run_scan(&keys, vl, count));
            prop_assert_eq!(state(&cam), state(&reference));

            // A different vector length in between resizes the index.
            vlu_on(&mut cam, &other_keys, other_vl, &mut mask);
            reference.run_scan(&other_keys, other_vl, count);
            prop_assert_eq!(&mask, &reference.last_unique_mask(LEN));
            prop_assert_eq!(state(&cam), state(&reference));

            for op in [RedOp::Sum, RedOp::Min, RedOp::Max] {
                vga_on(&mut cam, op, &keys, &values, vl, &mut out);
                let expect = reference.run_scan(&keys, vl, |prev, i| {
                    let combined = prev.map_or(values[i], |acc| op.fold(acc, values[i]));
                    (combined, combined)
                });
                prop_assert_eq!(&out, &expect, "{:?}", op);
                prop_assert_eq!(state(&cam), state(&reference), "{:?}", op);
            }

            // `run`, the allocating form of the same pass.
            prop_assert_eq!(cam.run(&keys, vl, count), reference.run_scan(&keys, vl, count));
            prop_assert_eq!(state(&cam), state(&reference));
        }
    }

    /// How the next instruction's keys differ from the last one's.
    #[derive(Debug, Clone)]
    enum Next {
        Same,
        /// One lane holds another key.
        OneLane(usize, u64),
        /// Another vector length over the same register.
        Vl(usize),
        Other(Vec<u64>),
        /// The same keys after a [`Cam::reset`].
        AfterReset,
    }

    fn nexts() -> impl Strategy<Value = Next> {
        prop_oneof![
            Just(Next::Same),
            Just(Next::Same),
            (0usize..LEN, 0u64..8).prop_map(|(lane, key)| Next::OneLane(lane, key)),
            prop::sample::select(vec![0usize, 1, 5, LEN - 1, LEN]).prop_map(Next::Vl),
            keyvecs().prop_map(Next::Other),
            Just(Next::AfterReset),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// A pass replayed over the last pass's keys ≡ the scan, through
        /// instruction sequences that repeat, change and reset the keys.
        #[test]
        fn replayed_pass_equals_the_scan(
            first in keyvecs(),
            steps in prop::collection::vec((nexts(), 0usize..5), 1..16),
            mut values in prop::collection::vec(any::<u64>(), LEN..LEN + 1),
            ports in prop::sample::select(vec![1usize, 4, 8]),
        ) {
            let mut cam = Cam::new(LEN, ports);
            let mut reference = Cam::new(LEN, ports);
            let (mut keys, mut vl) = (first, LEN);
            let count = |prev: Option<u64>, _| {
                let n = prev.map_or(0, |c| c + 1);
                (n, n)
            };
            let mut out = vec![7u64; LEN];
            let mut mask = vec![true; LEN];
            for (next, instruction) in steps {
                match next {
                    Next::Same => {}
                    Next::OneLane(lane, key) => keys[lane] = key,
                    Next::Vl(new_vl) => vl = new_vl,
                    Next::Other(other) => keys = other,
                    Next::AfterReset => {
                        cam.reset();
                        prop_assert_eq!(state(&cam), (0, 0, vec![false; LEN]));
                    }
                }
                match instruction {
                    0 => {
                        vpi_on(&mut cam, &keys, vl, &mut out);
                        prop_assert_eq!(&out, &reference.run_scan(&keys, vl, count));
                    }
                    1 => {
                        vlu_on(&mut cam, &keys, vl, &mut mask);
                        reference.run_scan(&keys, vl, count);
                        prop_assert_eq!(&mask, &reference.last_unique_mask(LEN));
                    }
                    _ => {
                        let op = [RedOp::Sum, RedOp::Min, RedOp::Max][instruction - 2];
                        vga_on(&mut cam, op, &keys, &values, vl, &mut out);
                        let expect = reference.run_scan(&keys, vl, |prev, i| {
                            let combined = prev.map_or(values[i], |acc| op.fold(acc, values[i]));
                            (combined, combined)
                        });
                        prop_assert_eq!(&out, &expect, "{:?}", op);
                    }
                }
                prop_assert_eq!(state(&cam), state(&reference));
                // Each instruction its own value operand.
                values.rotate_left(instruction + 1);
            }
        }
    }

    #[test]
    fn a_vector_too_long_for_the_index_is_scanned() {
        // More distinct keys than a slot can number, then the one whose
        // number would have wrapped to "empty" once more.
        let distinct = usize::from(u16::MAX) + 1;
        let mut keys: Vec<u64> = (0..distinct as u64).map(|i| i << 40).collect();
        keys.push(keys[distinct - 1]);
        let vl = keys.len();
        let mut cam = Cam::new(8, 4);
        let out = cam.run(&keys, vl, |prev, _| {
            let n = prev.map_or(0, |c| c + 1);
            (n, n)
        });
        assert!(out[..distinct].iter().all(|&n| n == 0));
        assert_eq!(out[distinct], 1, "the repeated key has one prior instance");
        assert_eq!(cam.occupancy(), distinct);
    }
}
