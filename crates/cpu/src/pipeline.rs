//! Approximate out-of-order pipeline timing (the PTLsim substitution).
//!
//! A greedy scoreboard model processed in program order. For each micro-op
//! the caller supplies the execution cluster, the functional-unit occupancy
//! and the cycle its source operands become ready; the model returns the
//! issue cycle after applying the structural constraints of Table I:
//!
//! * dispatch bandwidth (4 ops/cycle) behind a 17-stage frontend;
//! * reorder-buffer capacity (128) with in-order commit at 4 ops/cycle;
//! * per-cluster issue queues (8 entries) and issue width (1/cycle);
//! * functional-unit occupancy (e.g. a vector add holds its FU for
//!   `VL/lanes` cycles);
//! * load (48) and store (32) queue capacity for memory ops.
//!
//! Register dependencies are the caller's job (`vagg-sim` tracks a
//! ready-time per architectural register, which is equivalent to ideal
//! renaming — the paper provisions 2× physical registers precisely so that
//! renaming is not a bottleneck). Branches are not modelled: the evaluated
//! kernels are long trip-count loops whose predictors would be near-perfect.

use crate::params::{CpuParams, FuKind};
use crate::window::Window;
use std::collections::VecDeque;

#[cfg(test)]
thread_local! {
    static SCAN_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test switch: when set on this thread, every schedule query takes the
/// full scan and never a fast path — the model exactly as it was before
/// the fast paths existed, which the differential tests run beside the
/// real one.
#[cfg(test)]
fn scan_only() -> bool {
    SCAN_ONLY.get()
}

#[cfg(not(test))]
fn scan_only() -> bool {
    false
}

/// Busy-interval schedule for one functional unit. Out-of-order issue
/// means an op whose operands are ready early can claim an FU slot ahead
/// of an earlier-dispatched op that is still waiting on its inputs, so
/// reservations fill the earliest idle gap rather than appending to a
/// cursor. The window is bounded by the issue queue's reach.
///
/// `busy` is sorted by interval start, but intervals are neither
/// disjoint nor sorted by end ([`ClusterState::issue_slot`] may move a
/// start past the probed gap), and the 64-entry cap evicts the oldest
/// *start*, live or not. Both are observable in the cycle counts, so the
/// host fast paths below only skip comparisons whose outcome is already
/// known; they never reorder, merge or prune entries (see ARCHITECTURE,
/// "Host cost of the timing model"). Each is switched off by
/// [`scan_only`], and `differential_tests` holds the two equal: whole
/// micro-op streams (`fast_paths_start_every_op_where_the_scan_does`)
/// and one schedule with overlapping intervals and evicted live entries
/// (`one_schedule_holds_the_same_intervals_either_way`).
#[derive(Debug, Clone)]
struct FuSchedule {
    busy: Window<(u64, u64)>,
    /// Largest interval end ever reserved, evicted entries included: an
    /// op ready at or after it overlaps nothing in `busy`.
    max_end: u64,
    /// Largest `width` ever reserved. Every entry is `(b, b + w)` for
    /// the `w` it was reserved with, so `e - b <= max_width` holds for
    /// all of `busy`, whatever is evicted.
    max_width: u64,
}

impl Default for FuSchedule {
    fn default() -> Self {
        Self {
            busy: Window::new(64),
            max_end: 0,
            max_width: 0,
        }
    }
}

impl FuSchedule {
    /// Earliest start ≥ `earliest` with `width` free cycles, without
    /// reserving it.
    fn probe(&self, earliest: u64, width: u64) -> u64 {
        if earliest >= self.max_end && !scan_only() {
            return earliest;
        }
        // The dead prefix. `b + max_width <= earliest` gives
        // `e <= earliest <= start`: the entry cannot raise `start`, nor
        // end the walk (`start + width <= b < e` contradicts it, widths
        // being ≥ 1). `busy` is sorted by start, so these entries are a
        // prefix; nothing is assumed about the order of ends. The live
        // suffix is a few entries of the 64, so its first entry is found
        // from the back (by hand, here and in `slot_for`: `rposition`
        // says the same and measured 2 % of `kernels` slower).
        let mut live = 0;
        if !scan_only() {
            live = self.busy.len();
            while live > 0 && self.busy[live - 1].0 + self.max_width > earliest {
                live -= 1;
            }
        }
        let mut start = earliest;
        for &(b, e) in &self.busy[live..] {
            if start + width <= b {
                break;
            }
            if start < e {
                start = e;
            }
        }
        start
    }

    /// Where `busy` takes an interval that starts at `start`: before the
    /// first entry that does not start earlier, so of equal starts the
    /// newest comes first.
    fn slot_for(&self, start: u64) -> usize {
        if scan_only() {
            return self
                .busy
                .iter()
                .position(|&(b, _)| b >= start)
                .unwrap_or(self.busy.len());
        }
        // `busy` is sorted by start and a reservation lands near the
        // back: the same index, found from that end.
        let mut at = self.busy.len();
        while at > 0 && self.busy[at - 1].0 >= start {
            at -= 1;
        }
        at
    }

    /// Reserves `[start, start + width)`; `start` must come from
    /// [`FuSchedule::probe`] with the same arguments.
    fn reserve(&mut self, start: u64, width: u64) {
        let at = self.slot_for(start);
        self.busy.insert(at, (start, start + width));
        self.max_end = self.max_end.max(start + width);
        self.max_width = self.max_width.max(width);
    }
}

#[derive(Debug, Clone)]
struct ClusterState {
    /// Reservation schedule of each functional unit in this cluster.
    fus: Vec<FuSchedule>,
    /// Recent issue cycles (issue width = 1/cycle/cluster).
    issued: Window<u64>,
    /// Largest cycle ever pushed to `issued`: a later cycle is free.
    max_issued: u64,
    /// Issue times of ops still notionally queued (capacity = IQ size).
    queue: VecDeque<u64>,
}

impl ClusterState {
    /// `units` idle functional units behind an issue queue of
    /// `iq_cap` entries (never more are queued: see `dispatch`).
    fn new(units: usize, iq_cap: usize) -> Self {
        Self {
            fus: vec![FuSchedule::default(); units],
            issued: Window::new(64),
            max_issued: 0,
            queue: VecDeque::with_capacity(iq_cap),
        }
    }

    /// Finds a free issue cycle ≥ `start` (one issue per cycle per
    /// cluster).
    fn issue_slot(&mut self, mut start: u64, issue_per_cycle: u64) -> u64 {
        if issue_per_cycle > 1 {
            return start;
        }
        // Past `max_issued` no cycle is taken (same tests as the FUs').
        if start <= self.max_issued || scan_only() {
            while self.issued.contains(&start) {
                start += 1;
            }
        }
        self.max_issued = self.max_issued.max(start);
        self.issued.push_back(start);
        start
    }
}

/// The (cluster, FU) pair of one family offering the earliest start to an
/// op that is ready at `ready0`, and that start; of equal starts the
/// first in (cluster, FU) order.
fn select(
    clusters: &[ClusterState],
    iq_cap: usize,
    ready0: u64,
    occupancy: u64,
) -> (usize, usize, u64) {
    let mut best = (0, 0, u64::MAX);
    for (ci, c) in clusters.iter().enumerate() {
        // Issue-queue back-pressure applies per cluster.
        let iq_ready = if c.queue.len() >= iq_cap {
            c.queue.front().copied().unwrap_or(0)
        } else {
            0
        };
        let ready = ready0.max(iq_ready);
        for (fi, fu) in c.fus.iter().enumerate() {
            let start = fu.probe(ready, occupancy);
            if start < best.2 {
                best = (ci, fi, start);
            }
        }
    }
    best
}

/// The pipeline model. Feed it micro-ops in program order via
/// [`Pipeline::dispatch`] and report each op's completion via
/// [`Pipeline::retire`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    params: CpuParams,
    clusters: Vec<Vec<ClusterState>>, // [FuKind ordinal][cluster index]
    /// Next dispatch slot: cycle + ops already dispatched that cycle.
    dispatch_cycle: u64,
    dispatch_in_cycle: u64,
    /// Commit times of in-flight ops (ROB occupancy).
    rob: VecDeque<u64>,
    last_commit: u64,
    commits_in_cycle: u64,
    /// Completion times of in-flight loads/stores (LQ/SQ occupancy).
    load_queue: VecDeque<u64>,
    store_queue: VecDeque<u64>,
    ops: u64,
    ops_by_kind: [u64; 6],
    busy_by_kind: [u64; 6],
}

/// Index of a cluster family in the per-kind tables: its discriminant,
/// which is also its position in [`FuKind::ALL`].
fn ordinal(kind: FuKind) -> usize {
    kind as usize
}

impl Pipeline {
    /// Creates an empty pipeline; the first op dispatches after the
    /// frontend fill latency.
    ///
    /// # Panics
    ///
    /// Panics if the issue queue, the reorder buffer, the load queue or
    /// the store queue has no entries: an op could never leave it.
    pub fn new(params: CpuParams) -> Self {
        for (field, entries) in [
            ("issue_queue_per_cluster", params.issue_queue_per_cluster),
            ("reorder_buffer", params.reorder_buffer),
            ("load_queue", params.load_queue),
            ("store_queue", params.store_queue),
        ] {
            assert!(
                entries > 0,
                "CpuParams::{field} is {entries}: the pipeline needs at least one entry"
            );
        }
        let clusters = FuKind::ALL
            .iter()
            .map(|&k| {
                (0..k.clusters())
                    .map(|_| {
                        ClusterState::new(k.units_per_cluster(), params.issue_queue_per_cluster)
                    })
                    .collect()
            })
            .collect();
        Self {
            dispatch_cycle: params.frontend_stages,
            dispatch_in_cycle: 0,
            clusters,
            rob: VecDeque::new(),
            last_commit: 0,
            commits_in_cycle: 0,
            load_queue: VecDeque::new(),
            store_queue: VecDeque::new(),
            ops: 0,
            ops_by_kind: [0; 6],
            busy_by_kind: [0; 6],
            params,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CpuParams {
        &self.params
    }

    /// Micro-ops dispatched so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Micro-ops dispatched to each execution-cluster family, in
    /// [`FuKind`]'s declaration order (load AGU, store AGU, store data,
    /// scalar arithmetic, vector memory AGU, vector execution).
    pub fn ops_by_kind(&self) -> [u64; 6] {
        self.ops_by_kind
    }

    /// Micro-ops dispatched to one cluster family.
    pub fn ops_of_kind(&self, kind: FuKind) -> u64 {
        self.ops_by_kind[ordinal(kind)]
    }

    /// Functional-unit busy cycles accumulated per cluster family, in
    /// [`FuKind`]'s declaration order. Divide by `cycles() × total
    /// units of the family` for a utilisation fraction — the measure
    /// behind "the vector unit is the bottleneck / is underutilised"
    /// statements (cf. the §V-A average-vector-length collapse).
    pub fn busy_by_kind(&self) -> [u64; 6] {
        self.busy_by_kind
    }

    /// Busy cycles of one cluster family.
    pub fn busy_of_kind(&self, kind: FuKind) -> u64 {
        self.busy_by_kind[ordinal(kind)]
    }

    /// Utilisation fraction of one cluster family so far (0 when no
    /// cycle has elapsed).
    pub fn utilization_of_kind(&self, kind: FuKind) -> f64 {
        if self.last_commit == 0 {
            return 0.0;
        }
        let units = (kind.clusters() * kind.units_per_cluster()) as f64;
        self.busy_of_kind(kind) as f64 / (self.last_commit as f64 * units)
    }

    /// Total simulated cycles: the commit time of the last retired op.
    pub fn cycles(&self) -> u64 {
        self.last_commit
    }

    // Advance the dispatch cursor by one op, honouring dispatch width.
    fn take_dispatch_slot(&mut self, earliest: u64) -> u64 {
        if earliest > self.dispatch_cycle {
            self.dispatch_cycle = earliest;
            self.dispatch_in_cycle = 0;
        }
        let slot = self.dispatch_cycle;
        self.dispatch_in_cycle += 1;
        if self.dispatch_in_cycle >= self.params.dispatch_width {
            self.dispatch_cycle += 1;
            self.dispatch_in_cycle = 0;
        }
        slot
    }

    /// Dispatches one micro-op.
    ///
    /// * `kind` — the execution cluster family;
    /// * `occupancy` — cycles the chosen functional unit stays busy;
    /// * `deps_ready` — cycle all source operands are available.
    ///
    /// Returns the cycle execution *starts* (operands read). The result of
    /// the op is available at `start + occupancy` for single-cycle-latency
    /// units; memory ops learn their completion from the memory hierarchy
    /// and must report it via [`Pipeline::retire`] / the queue hooks.
    pub fn dispatch(&mut self, kind: FuKind, occupancy: u64, deps_ready: u64) -> u64 {
        let ord = ordinal(kind);
        self.ops += 1;
        self.ops_by_kind[ord] += 1;
        let occupancy = occupancy.max(1);
        self.busy_by_kind[ord] += occupancy;

        // ROB back-pressure: op #i needs a free entry, i.e. the op
        // `reorder_buffer` positions earlier must have committed.
        let mut earliest = 0u64;
        if self.rob.len() >= self.params.reorder_buffer {
            // Oldest commit time gates dispatch.
            earliest = self.rob.pop_front().expect("rob non-empty");
        }
        let dispatch_at = self.take_dispatch_slot(earliest);

        // Choose the best (cluster, FU) pair: the one offering the
        // earliest start for this op's ready time.
        let iq_cap = self.params.issue_queue_per_cluster;
        let issue_per = self.params.issue_per_cluster;
        let ready0 = deps_ready.max(dispatch_at + 1);

        let (ci, fi, best) = select(&self.clusters[ord], iq_cap, ready0, occupancy);

        let cluster = &mut self.clusters[ord][ci];
        let mut ready = ready0;
        while cluster.queue.len() >= iq_cap {
            let oldest = cluster.queue.pop_front().expect("queue non-empty");
            ready = ready.max(oldest);
        }
        // `queue.len() <= iq_cap` always (one push per call, after this
        // loop; the capacity is at least 1), so the loop popped exactly
        // the `front()` that `select` folded into its probe of the
        // winner: `best` is what probing again with `ready` returns.
        // Held by `fast_paths_start_every_op_where_the_scan_does`, which
        // draws the queue depth.
        let slot = if scan_only() {
            cluster.fus[fi].probe(ready, occupancy)
        } else {
            best
        };
        let start = cluster.issue_slot(slot, issue_per);
        cluster.fus[fi].reserve(start, occupancy);
        cluster.queue.push_back(start);
        start
    }

    /// Reserves a load-queue entry; returns the cycle a slot is free (the
    /// caller should fold this into the op's dependencies). Call
    /// [`Pipeline::complete_load`] with the final completion time.
    pub fn reserve_load_slot(&mut self) -> u64 {
        if self.load_queue.len() >= self.params.load_queue {
            self.load_queue.pop_front().expect("lq non-empty")
        } else {
            0
        }
    }

    /// Records a load's completion for queue-occupancy accounting.
    pub fn complete_load(&mut self, done: u64) {
        self.load_queue.push_back(done);
    }

    /// Reserves a store-queue entry (see [`Pipeline::reserve_load_slot`]).
    pub fn reserve_store_slot(&mut self) -> u64 {
        if self.store_queue.len() >= self.params.store_queue {
            self.store_queue.pop_front().expect("sq non-empty")
        } else {
            0
        }
    }

    /// Records a store's completion.
    pub fn complete_store(&mut self, done: u64) {
        self.store_queue.push_back(done);
    }

    /// Retires one op that produced its result at `complete_at`. Commit is
    /// in order at `commit_width` per cycle; returns the commit cycle.
    pub fn retire(&mut self, complete_at: u64) -> u64 {
        let mut commit = complete_at.max(self.last_commit);
        if commit == self.last_commit {
            if self.commits_in_cycle >= self.params.commit_width {
                commit += 1;
                self.commits_in_cycle = 1;
            } else {
                self.commits_in_cycle += 1;
            }
        } else {
            self.commits_in_cycle = 1;
        }
        self.last_commit = commit;
        self.rob.push_back(commit);
        while self.rob.len() > self.params.reorder_buffer {
            self.rob.pop_front();
        }
        commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe() -> Pipeline {
        Pipeline::new(CpuParams::westmere())
    }

    #[test]
    fn ordinal_is_the_position_in_fukind_all() {
        for (i, kind) in FuKind::ALL.into_iter().enumerate() {
            assert_eq!(ordinal(kind), i, "{}", kind.name());
        }
    }

    #[test]
    fn ops_by_kind_tracks_every_cluster_family() {
        let mut p = pipe();
        p.dispatch(FuKind::ScalarArith, 1, 0);
        p.dispatch(FuKind::ScalarArith, 1, 0);
        p.dispatch(FuKind::LoadAgu, 1, 0);
        p.dispatch(FuKind::StoreAgu, 1, 0);
        p.dispatch(FuKind::StoreData, 1, 0);
        p.dispatch(FuKind::VecMemAgu, 4, 0);
        p.dispatch(FuKind::VecArith, 16, 0);
        assert_eq!(p.ops(), 7);
        assert_eq!(p.ops_by_kind().iter().sum::<u64>(), p.ops());
        assert_eq!(p.ops_of_kind(FuKind::ScalarArith), 2);
        assert_eq!(p.ops_of_kind(FuKind::LoadAgu), 1);
        assert_eq!(p.ops_of_kind(FuKind::VecMemAgu), 1);
        assert_eq!(p.ops_of_kind(FuKind::VecArith), 1);
    }

    #[test]
    fn busy_cycles_accumulate_occupancy() {
        let mut p = pipe();
        p.dispatch(FuKind::VecArith, 16, 0);
        p.dispatch(FuKind::VecArith, 16, 0);
        p.dispatch(FuKind::ScalarArith, 1, 0);
        assert_eq!(p.busy_of_kind(FuKind::VecArith), 32);
        assert_eq!(p.busy_of_kind(FuKind::ScalarArith), 1);
        assert_eq!(p.busy_by_kind().iter().sum::<u64>(), 33);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let mut p = pipe();
        for _ in 0..50 {
            let s = p.dispatch(FuKind::VecArith, 16, 0);
            p.retire(s + 16);
        }
        let u = p.utilization_of_kind(FuKind::VecArith);
        assert!(u > 0.0 && u <= 1.0, "utilisation {u} out of range");
        // An untouched family reads zero.
        assert_eq!(p.utilization_of_kind(FuKind::LoadAgu), 0.0);
    }

    #[test]
    fn first_op_waits_for_frontend_fill() {
        let mut p = pipe();
        let start = p.dispatch(FuKind::ScalarArith, 1, 0);
        assert!(start >= CpuParams::westmere().frontend_stages);
    }

    #[test]
    fn dependent_op_waits_for_producer() {
        let mut p = pipe();
        let s1 = p.dispatch(FuKind::ScalarArith, 1, 0);
        let done = s1 + 1;
        let s2 = p.dispatch(FuKind::ScalarArith, 1, done);
        assert!(s2 >= done);
    }

    #[test]
    fn independent_ops_overlap_across_clusters() {
        let mut p = pipe();
        let s1 = p.dispatch(FuKind::ScalarArith, 10, 0);
        let s2 = p.dispatch(FuKind::ScalarArith, 10, 0);
        let s3 = p.dispatch(FuKind::ScalarArith, 10, 0);
        // Three identical arithmetic clusters: all can start near each
        // other rather than serialising behind one FU.
        assert!(s2 < s1 + 10);
        assert!(s3 < s1 + 10);
    }

    #[test]
    fn single_cluster_fu_serialises() {
        let mut p = pipe();
        let s1 = p.dispatch(FuKind::LoadAgu, 10, 0);
        let s2 = p.dispatch(FuKind::LoadAgu, 10, 0);
        assert!(s2 >= s1 + 10, "one load AGU: second op must wait");
    }

    #[test]
    fn vector_cluster_two_fus_overlap_two_ops() {
        let mut p = pipe();
        let s1 = p.dispatch(FuKind::VecArith, 16, 0);
        let s2 = p.dispatch(FuKind::VecArith, 16, 0);
        let s3 = p.dispatch(FuKind::VecArith, 16, 0);
        // Two FUs: ops 1 and 2 overlap; op 3 waits for a unit.
        assert!(s2 < s1 + 16);
        assert!(s3 >= s1 + 16);
    }

    #[test]
    fn issue_width_one_per_cluster_per_cycle() {
        let mut p = pipe();
        let s1 = p.dispatch(FuKind::VecArith, 1, 0);
        let s2 = p.dispatch(FuKind::VecArith, 1, 0);
        assert!(s2 > s1, "two issues in one cycle on one cluster");
    }

    #[test]
    fn dispatch_width_limits_throughput() {
        let mut p = pipe();
        // 40 zero-dependency single-cycle ops across plenty of clusters:
        // dispatch at 4/cycle floors the spread at 10 cycles.
        let mut starts = Vec::new();
        for i in 0..40 {
            let kind = match i % 4 {
                0 => FuKind::ScalarArith,
                1 => FuKind::LoadAgu,
                2 => FuKind::StoreAgu,
                _ => FuKind::StoreData,
            };
            starts.push(p.dispatch(kind, 1, 0));
        }
        let spread = starts.last().unwrap() - starts.first().unwrap();
        assert!(spread >= 9, "dispatch width ignored: spread {spread}");
    }

    #[test]
    fn rob_capacity_backpressures() {
        let mut p = pipe();
        // Fill the ROB with slow ops that all complete late.
        let mut last_start = 0;
        for _ in 0..200 {
            let s = p.dispatch(FuKind::ScalarArith, 1, 0);
            p.retire(s + 500); // everything completes at cycle ~500+
            last_start = s;
        }
        // Op 200 cannot dispatch before ROB entries drain (~500).
        assert!(
            last_start > 400,
            "ROB should have stalled dispatch: start {last_start}"
        );
    }

    #[test]
    fn retire_is_in_order_and_width_limited() {
        let mut p = pipe();
        let c1 = p.retire(100);
        let c2 = p.retire(50); // completed earlier but commits after c1
        assert!(c2 >= c1);
        // Five ops completing at once need two cycles at width 4.
        let mut p = pipe();
        let commits: Vec<u64> = (0..5).map(|_| p.retire(10)).collect();
        assert_eq!(commits[3], 10);
        assert!(commits[4] > 10);
    }

    #[test]
    fn load_queue_slots_recycle() {
        let mut p = pipe();
        let cap = p.params().load_queue;
        for _ in 0..cap {
            assert_eq!(p.reserve_load_slot(), 0);
            p.complete_load(1000);
        }
        // Queue full: next reservation waits for the oldest completion.
        assert_eq!(p.reserve_load_slot(), 1000);
    }

    #[test]
    fn store_queue_slots_recycle() {
        let mut p = pipe();
        let cap = p.params().store_queue;
        for _ in 0..cap {
            assert_eq!(p.reserve_store_slot(), 0);
            p.complete_store(777);
        }
        assert_eq!(p.reserve_store_slot(), 777);
    }

    /// A pipeline on Table I's parameters with one of them changed.
    fn pipe_with(change: impl FnOnce(&mut CpuParams)) -> Pipeline {
        let mut params = CpuParams::westmere();
        change(&mut params);
        Pipeline::new(params)
    }

    #[test]
    #[should_panic(expected = "CpuParams::issue_queue_per_cluster is 0")]
    fn an_empty_issue_queue_is_refused() {
        pipe_with(|p| p.issue_queue_per_cluster = 0);
    }

    #[test]
    #[should_panic(expected = "CpuParams::reorder_buffer is 0")]
    fn an_empty_reorder_buffer_is_refused() {
        pipe_with(|p| p.reorder_buffer = 0);
    }

    #[test]
    #[should_panic(expected = "CpuParams::load_queue is 0")]
    fn an_empty_load_queue_is_refused() {
        pipe_with(|p| p.load_queue = 0);
    }

    #[test]
    #[should_panic(expected = "CpuParams::store_queue is 0")]
    fn an_empty_store_queue_is_refused() {
        pipe_with(|p| p.store_queue = 0);
    }

    #[test]
    fn cycles_track_last_commit() {
        let mut p = pipe();
        assert_eq!(p.cycles(), 0);
        p.retire(42);
        assert_eq!(p.cycles(), 42);
        p.retire(40);
        assert!(p.cycles() >= 42);
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::*;

    #[test]
    fn probe_finds_earliest_gap() {
        let mut s = FuSchedule::default();
        s.reserve(10, 5); // busy [10, 15)
        s.reserve(20, 5); // busy [20, 25)
        assert_eq!(s.probe(0, 5), 0); // before everything
        assert_eq!(s.probe(0, 12), 25); // too wide for any gap
        assert_eq!(s.probe(12, 5), 15); // lands in the middle gap
        assert_eq!(s.probe(16, 4), 16); // fits the middle gap exactly
        assert_eq!(s.probe(22, 1), 25); // inside the second interval
    }

    #[test]
    fn reserve_keeps_intervals_sorted_and_disjoint() {
        let mut s = FuSchedule::default();
        let starts: Vec<u64> = [30u64, 0, 15, 7]
            .iter()
            .map(|&e| {
                let st = s.probe(e, 5);
                s.reserve(st, 5);
                st
            })
            .collect();
        // All reservations disjoint.
        let mut iv: Vec<(u64, u64)> = starts.iter().map(|&st| (st, st + 5)).collect();
        iv.sort_unstable();
        for w in iv.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?}", iv);
        }
    }

    #[test]
    fn backfilling_lets_late_dispatch_use_early_slot() {
        // The regression the gap model exists for: op A dispatched first
        // but with late-ready operands must not block op B whose operands
        // are ready immediately.
        let mut p = Pipeline::new(CpuParams::westmere());
        let a = p.dispatch(FuKind::VecArith, 16, 1000); // waits on deps
        let b = p.dispatch(FuKind::VecArith, 16, 0); // ready now
        assert!(
            b < a,
            "late-ready op blocked an early-ready one: {b} !< {a}"
        );
        assert!(b < 1000);
    }

    #[test]
    fn issue_slot_enforces_one_per_cycle() {
        let mut c = ClusterState::new(2, 8);
        let s1 = c.issue_slot(5, 1);
        let s2 = c.issue_slot(5, 1);
        let s3 = c.issue_slot(5, 1);
        let mut v = vec![s1, s2, s3];
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 3, "issue cycles must be distinct");
    }

    #[test]
    fn the_window_cap_evicts_a_live_reservation() {
        // 65 reservations far in the future: the 64-entry window drops
        // the earliest one although no op has reached it yet, and its
        // cycles read as free again. The cycle counts depend on this, so
        // a host optimisation may not prune, merge or resize the window.
        let mut s = FuSchedule::default();
        for i in 0..65u64 {
            let at = 1_000 + 10 * i;
            assert_eq!(s.probe(at, 10), at);
            s.reserve(at, 10);
        }
        assert_eq!(s.busy.len(), 64);
        assert_eq!(s.probe(1_000, 10), 1_000, "evicted, so free again");
        assert_eq!(s.probe(1_010, 10), 1_650, "the rest is still booked");
    }

    #[test]
    fn of_equal_starts_the_first_cluster_wins() {
        // Three idle arithmetic clusters offer the same start; the op
        // goes to the first, and the next op to the first still idle.
        let mut p = Pipeline::new(CpuParams::westmere());
        let ord = ordinal(FuKind::ScalarArith);
        let booked = |p: &Pipeline| -> Vec<usize> {
            p.clusters[ord]
                .iter()
                .map(|c| c.fus[0].busy.len())
                .collect()
        };
        for expected in [[1, 0, 0], [1, 1, 0], [1, 1, 1]] {
            p.dispatch(FuKind::ScalarArith, 100, 0);
            assert_eq!(booked(&p), expected);
        }
    }

    #[test]
    fn issue_slot_unlimited_when_width_above_one() {
        let mut c = ClusterState::new(2, 8);
        assert_eq!(c.issue_slot(5, 2), 5);
        assert_eq!(c.issue_slot(5, 2), 5);
    }
}

/// Old scan ≡ new fast path: the same micro-op stream through the real
/// pipeline and through one that answers every schedule query by the
/// full scan must start every op on the same cycle.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs `f` with every schedule query on this thread forced onto the
    /// full scan.
    fn with_scan_only<T>(f: impl FnOnce() -> T) -> T {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                SCAN_ONLY.set(false);
            }
        }
        let _reset = Reset;
        SCAN_ONLY.set(true);
        f()
    }

    #[derive(Debug, Clone, Copy)]
    struct Op {
        kind: FuKind,
        occupancy: u64,
        /// Where the operands become ready, relative to the previous
        /// op's start: behind it, at it, or far ahead of it;
        /// [`READY_NOW`] for "already, whenever it dispatches".
        dep_offset: i64,
        /// Cycles between execution end and completion (a memory op's
        /// latency), so commits — and with them ROB back-pressure —
        /// arrive out of step with issue.
        latency: u64,
    }

    /// Saturates `deps_ready` to 0, so the op is ready at `dispatch_at + 1`.
    const READY_NOW: i64 = i64::MIN;

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let dep_offset = prop_oneof![-600i64..0, Just(0i64), 1i64..40, 40i64..3_000];
        let latency = prop_oneof![Just(0u64), 0u64..30, 200u64..900];
        prop::collection::vec(
            (0usize..6, 1u64..18, dep_offset, latency).prop_map(
                |(kind, occupancy, dep_offset, latency)| Op {
                    kind: FuKind::ALL[kind],
                    occupancy,
                    dep_offset,
                    latency,
                },
            ),
            300..420,
        )
    }

    /// What a scalar kernel does to the lists: bursts of short ops that
    /// are ready as they dispatch, on few clusters, while every eighth op
    /// is parked hundreds of cycles ahead (a DRAM miss) — so every list
    /// is a long dead prefix, a few live entries and a far reservation
    /// that lifts `max_end` over all of it. One op in eight is 16 wide,
    /// so `max_width` is far above the typical width.
    fn saturated_ops() -> impl Strategy<Value = Vec<Op>> {
        let kind = prop::sample::select(vec![
            FuKind::ScalarArith,
            FuKind::ScalarArith,
            FuKind::ScalarArith,
            FuKind::LoadAgu,
            FuKind::StoreAgu,
            FuKind::VecArith,
        ]);
        let occupancy = prop::sample::select(vec![1u64, 1, 1, 1, 1, 1, 1, 16]);
        prop::collection::vec((kind, occupancy, 200i64..900, 0u64..30), 500..700).prop_map(|ops| {
            ops.into_iter()
                .enumerate()
                .map(|(i, (kind, occupancy, park, latency))| Op {
                    kind,
                    occupancy,
                    dep_offset: if i % 8 == 7 { park } else { READY_NOW },
                    latency,
                })
                .collect()
        })
    }

    /// Shallow and deep queues around Table I's: the capacities decide
    /// how far apart the entries of one list lie.
    fn params() -> impl Strategy<Value = CpuParams> {
        (1usize..17, 8usize..257, 1u64..7, 1u64..3).prop_map(
            |(issue_queue_per_cluster, reorder_buffer, dispatch_width, issue_per_cluster)| {
                CpuParams {
                    issue_queue_per_cluster,
                    reorder_buffer,
                    dispatch_width,
                    issue_per_cluster,
                    ..CpuParams::westmere()
                }
            },
        )
    }

    /// Every op's start and commit cycle, then the final cycle count.
    fn drive(params: &CpuParams, ops: &[Op]) -> Vec<u64> {
        let mut p = Pipeline::new(params.clone());
        let mut out = Vec::with_capacity(2 * ops.len() + 1);
        let mut cursor = 0u64;
        for op in ops {
            let deps_ready = cursor.saturating_add_signed(op.dep_offset);
            let start = p.dispatch(op.kind, op.occupancy, deps_ready);
            out.push(start);
            out.push(p.retire(start + op.occupancy + op.latency));
            cursor = start;
        }
        out.push(p.cycles());
        out
    }

    /// The parent's selection, verbatim: the oracle for [`select`].
    fn select_by_min_by_key(
        clusters: &[ClusterState],
        iq_cap: usize,
        ready0: u64,
        occupancy: u64,
    ) -> (usize, usize, u64) {
        clusters
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| {
                // Issue-queue back-pressure applies per cluster.
                let iq_ready = if c.queue.len() >= iq_cap {
                    c.queue.front().copied().unwrap_or(0)
                } else {
                    0
                };
                let ready = ready0.max(iq_ready);
                c.fus
                    .iter()
                    .enumerate()
                    .map(move |(fi, fu)| (ci, fi, fu.probe(ready, occupancy)))
            })
            .min_by_key(|&(_, _, s)| s)
            .expect("at least one FU")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        #[test]
        fn fast_paths_start_every_op_where_the_scan_does(
            params in params(),
            ops in prop_oneof![ops(), saturated_ops()],
        ) {
            let fast = drive(&params, &ops);
            let scanned = with_scan_only(|| drive(&params, &ops));
            prop_assert_eq!(fast, scanned);
        }

        // Three clusters of two FUs booked at random in a time domain
        // small enough that equal starts are the rule: the nested loop
        // picks the pair `min_by_key` picked, the first of the minima.
        #[test]
        fn the_selection_keeps_the_first_of_equal_starts(
            bookings in prop::collection::vec((0usize..3, 0usize..2, 0u64..40, 1u64..6), 0..30),
            queued in prop::collection::vec((0usize..3, 0u64..60), 0..9),
            ready0 in 0u64..50,
            occupancy in 1u64..6,
        ) {
            let mut clusters = vec![ClusterState::new(2, 8); 3];
            for &(ci, fi, earliest, width) in &bookings {
                let fu = &mut clusters[ci].fus[fi];
                let start = fu.probe(earliest, width);
                fu.reserve(start, width);
            }
            for &(ci, issue) in &queued {
                clusters[ci].queue.push_back(issue);
            }
            for iq_cap in 1..4 {
                prop_assert_eq!(
                    select(&clusters, iq_cap, ready0, occupancy),
                    select_by_min_by_key(&clusters, iq_cap, ready0, occupancy)
                );
            }
        }

        // One schedule on its own, in a time domain small enough that
        // equal starts, overlapping intervals (the `bump` stands in for
        // `issue_slot` moving a start) and evicted-but-live entries are
        // common — states a whole pipeline reaches rarely.
        #[test]
        fn one_schedule_holds_the_same_intervals_either_way(
            calls in prop::collection::vec((0u64..400, 1u64..18, 0u64..3), 300..400)
        ) {
            let (mut fast, mut scanned) = (FuSchedule::default(), FuSchedule::default());
            for (i, &(back, width, bump)) in calls.iter().enumerate() {
                let earliest = (4 * i as u64).saturating_sub(back);
                let slot = fast.probe(earliest, width);
                prop_assert_eq!(slot, with_scan_only(|| scanned.probe(earliest, width)));
                // Of equal starts the new one goes first, as `position`
                // puts it.
                let at = with_scan_only(|| scanned.slot_for(slot + bump));
                prop_assert_eq!(fast.slot_for(slot + bump), at, "call {}", i);
                prop_assert!(at == fast.busy.len() || fast.busy[at].0 >= slot + bump);
                prop_assert!(at == 0 || fast.busy[at - 1].0 < slot + bump);
                fast.reserve(slot + bump, width);
                with_scan_only(|| scanned.reserve(slot + bump, width));
                prop_assert_eq!(&fast.busy[..], &scanned.busy[..], "after call {}", i);
            }
        }
    }
}
