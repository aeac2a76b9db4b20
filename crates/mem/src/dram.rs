//! DDR3 DRAM timing model (the DRAMSim2 substitution).
//!
//! Reproduces the memory-system behaviour Table II prescribes:
//!
//! * DDR3-1333, 1.5 ns memory clock — the 2.67 GHz core clocks the memory
//!   controller once every **4 processor cycles**;
//! * 4 ranks × 8 banks, 32,768 rows, 2,048 columns, device width ×4;
//! * **open-page** row-buffer policy with a maximum of **8 row accesses**
//!   before the controller closes the row (starvation avoidance, as in
//!   DRAMSim2's `total_row_accesses` knob);
//! * address layout `row:rank:bank:column:burst` (the layout the paper
//!   found to work best);
//! * 64-byte bursts (one cache line per transaction).
//!
//! The model tracks, per bank, the open row and the earliest memory cycle
//! the bank can accept a new column command, plus a shared data bus. A
//! request's latency is therefore sensitive to row locality (hit/miss/
//! conflict) *and* to bank/bus contention — the two effects that separate
//! unit-stride from scattered vector traffic.

use crate::window::Window;

/// DDR3 timing and geometry parameters (memory-clock units).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramParams {
    /// Processor cycles per memory-controller cycle.
    pub clock_ratio: u64,
    /// Ranks per channel.
    pub ranks: u64,
    /// Banks per rank.
    pub banks: u64,
    /// Rows per bank.
    pub rows: u64,
    /// Columns per row.
    pub columns: u64,
    /// Device width in bits (×4 parts).
    pub device_width: u64,
    /// Burst length in bytes (one transaction).
    pub burst_bytes: u64,
    /// CAS latency (tCL).
    pub t_cl: u64,
    /// RAS-to-CAS delay (tRCD).
    pub t_rcd: u64,
    /// Row precharge (tRP).
    pub t_rp: u64,
    /// Data transfer occupancy of one burst on the bus (BL8 → 4 memory
    /// cycles).
    pub t_burst: u64,
    /// Maximum column accesses served from one open row before the
    /// controller force-closes it.
    pub max_row_accesses: u64,
    /// Transaction queue capacity (Table II).
    pub transaction_queue: usize,
    /// Command queue capacity (Table II).
    pub command_queue: usize,
}

impl DramParams {
    /// Table II configuration: DDR3-1333 under a 2.67 GHz core.
    pub fn ddr3_1333() -> Self {
        Self {
            clock_ratio: 4,
            ranks: 4,
            banks: 8,
            rows: 32_768,
            columns: 2_048,
            device_width: 4,
            burst_bytes: 64,
            // DDR3-1333H: CL-RCD-RP = 9-9-9 memory cycles.
            t_cl: 9,
            t_rcd: 9,
            t_rp: 9,
            t_burst: 4,
            max_row_accesses: 8,
            transaction_queue: 64,
            command_queue: 256,
        }
    }

    /// Bytes held in one row buffer across the rank: `columns ×
    /// device_width × devices-per-rank / 8`. With ×4 parts filling a 64-bit
    /// bus there are 16 devices: 2,048 × 4 × 16 / 8 = 16 KB.
    pub fn row_buffer_bytes(&self) -> u64 {
        let devices = 64 / self.device_width;
        self.columns * self.device_width * devices / 8
    }
}

/// How a request interacted with the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Open row matched (tCL only).
    Hit,
    /// Bank was idle/precharged (tRCD + tCL).
    Miss,
    /// A different row was open (tRP + tRCD + tCL).
    Conflict,
}

/// Decomposed physical address (layout `row:rank:bank:column:burst`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Row index within the bank.
    pub row: u64,
    /// Rank index.
    pub rank: u64,
    /// Bank index within the rank.
    pub bank: u64,
    /// Column-burst index within the row.
    pub column: u64,
}

#[cfg(test)]
thread_local! {
    static SCAN_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test switch: when set on this thread, every bus reservation takes
/// the full scan and never the fast path — the model exactly as it was
/// before the fast path existed, which the differential tests run
/// beside the real one.
#[cfg(test)]
fn scan_only() -> bool {
    SCAN_ONLY.get()
}

#[cfg(not(test))]
fn scan_only() -> bool {
    false
}

/// Runs `f` with every bus reservation on this thread forced onto the
/// full scan.
#[cfg(test)]
pub(crate) fn with_scan_only<T>(f: impl FnOnce() -> T) -> T {
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

/// Data-bus reservation schedule. The controller's 64-deep transaction
/// queue (Table II) lets it reorder requests and backfill idle bus slots,
/// so a late-arriving request must not starve earlier-timestamped traffic:
/// reservations claim the earliest idle gap at or after their ready time.
#[derive(Debug, Clone)]
struct BusSchedule {
    /// Busy intervals `[start, end)` sorted by start, the oldest start
    /// dropped past 128 entries whether or not it has aged out. The cap
    /// and the insertion order are observable in the cycle counts, so
    /// the fast paths in [`BusSchedule::reserve`] only skip comparisons
    /// whose outcome is known; nothing is merged or pruned.
    ///
    /// Unlike an FU's list this one is disjoint — a transfer is booked
    /// where the scan put it, after every earlier entry's end and before
    /// every later entry's start — so it is sorted by end as well, and
    /// the back entry is never the one the cap drops.
    busy: Window<(u64, u64)>,
    /// The back entry's end (0 while empty): the largest end ever
    /// reserved. A request ready at or after it overlaps nothing.
    max_end: u64,
    /// The narrowest positive width ever asked for (`u64::MAX` before
    /// the first), so never 0. The machine asks for one, `t_burst`.
    narrowest: u64,
    /// Start of the saturated run that ends at `max_end`: a scan that
    /// starts at or after `tail_from` for `narrowest` cycles or more
    /// runs off the back of `busy`. The run may hold gaps — each too
    /// narrow for any width seen so far — and the true run may start
    /// earlier; it never starts later.
    tail_from: u64,
}

impl Default for BusSchedule {
    fn default() -> Self {
        Self {
            busy: Window::new(128),
            max_end: 0,
            narrowest: u64::MAX,
            tail_from: 0,
        }
    }
}

impl BusSchedule {
    /// Reserves `width` cycles at the earliest point ≥ `earliest`;
    /// returns the reserved start.
    fn reserve(&mut self, earliest: u64, width: u64) -> u64 {
        let mut start = earliest;
        // From the start of the saturated run on, a scan for a width the
        // run was learned for cannot stop before the back, and past
        // `max_end` nothing is booked at all. Held by
        // `differential_tests`: the schedule alone (widths of all sorts;
        // one width with sub-burst gaps, as the machine asks) and a whole
        // `Dram`.
        let dropped = if earliest >= self.tail_from && width >= self.narrowest && !scan_only() {
            start = earliest.max(self.max_end);
            self.busy.push_back((start, start + width))
        } else {
            let mut insert_at = self.busy.len();
            for (i, &(b, e)) in self.busy.iter().enumerate() {
                if start + width <= b {
                    insert_at = i;
                    break;
                }
                if start < e {
                    start = e;
                }
            }
            if width > 0 && width <= self.narrowest {
                if insert_at == self.busy.len() {
                    // Nothing from `earliest` to the back hosts the
                    // narrowest width, so nothing there hosts a wider
                    // one or a later one either: the run is learned.
                    self.tail_from = earliest;
                } else if width < self.narrowest {
                    // What was learned held for wider transfers only;
                    // the back entry is a run on its own.
                    self.tail_from = self.busy[self.busy.len() - 1].0;
                }
                self.narrowest = width;
            }
            self.busy.insert(insert_at, (start, start + width))
        };
        if start > self.max_end {
            // Appended after an idle gap: a new run starts here.
            self.tail_from = start;
        }
        self.max_end = self.max_end.max(start + width);
        // The transaction queue depth bounds how far back the controller
        // can reorder: the window drops its oldest start past 128. A
        // dropped entry's cycles read as free again; if it was part of
        // the run, the run now starts at its end.
        if let Some((_, e)) = dropped {
            self.tail_from = self.tail_from.max(e);
        }
        start
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Earliest memory cycle the bank can start a new command.
    ready: u64,
    /// Column accesses served from the currently open row.
    row_uses: u64,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total transactions.
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row misses (bank precharged).
    pub row_misses: u64,
    /// Row conflicts (wrong row open).
    pub row_conflicts: u64,
    /// Rows force-closed by the 8-access policy.
    pub forced_closes: u64,
}

/// The memory controller + DRAM devices.
#[derive(Debug, Clone)]
pub struct Dram {
    params: DramParams,
    /// 64-byte bursts per row buffer (the column field's range).
    bursts_per_row: u64,
    banks: Vec<BankState>, // ranks × banks
    /// Shared data bus reservations.
    bus: BusSchedule,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM system with the given parameters.
    pub fn new(params: DramParams) -> Self {
        let nbanks = (params.ranks * params.banks) as usize;
        Self {
            bursts_per_row: params.row_buffer_bytes() / params.burst_bytes,
            params,
            banks: vec![BankState::default(); nbanks],
            bus: BusSchedule::default(),
            stats: DramStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    /// Counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Resets counters (not device state).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Splits a byte address per `row:rank:bank:column:burst`.
    pub fn decode(&self, byte_addr: u64) -> DecodedAddr {
        let p = &self.params;
        let mut a = byte_addr / p.burst_bytes; // drop burst offset
        let column = a % self.bursts_per_row;
        a /= self.bursts_per_row;
        let bank = a % p.banks;
        a /= p.banks;
        let rank = a % p.ranks;
        a /= p.ranks;
        let row = a % p.rows;
        DecodedAddr {
            row,
            rank,
            bank,
            column,
        }
    }

    /// Issues one 64-byte transaction at processor cycle `cpu_now`; returns
    /// the processor cycle at which the data transfer completes.
    ///
    /// Writes use the same bank/bus occupancy as reads (write latency is
    /// posted, but the bank is busy, which is what back-pressures the
    /// pipeline).
    pub fn access(&mut self, byte_addr: u64, cpu_now: u64) -> u64 {
        let d = self.decode(byte_addr);
        let p = &self.params;
        let mem_now = cpu_now.div_ceil(p.clock_ratio);
        let bank_idx = (d.rank * p.banks + d.bank) as usize;

        self.stats.requests += 1;
        let (start, outcome, act_latency) = {
            let bank = &mut self.banks[bank_idx];
            let start = mem_now.max(bank.ready);
            // Row-buffer outcome (with the forced-close policy applied
            // first).
            let force_closed = bank.open_row.is_some() && bank.row_uses >= p.max_row_accesses;
            if force_closed {
                bank.open_row = None;
                bank.row_uses = 0;
                self.stats.forced_closes += 1;
            }
            let (outcome, act_latency) = match bank.open_row {
                Some(r) if r == d.row => (RowOutcome::Hit, p.t_cl),
                Some(_) => (RowOutcome::Conflict, p.t_rp + p.t_rcd + p.t_cl),
                None => (RowOutcome::Miss, p.t_rcd + p.t_cl),
            };
            (start, outcome, act_latency)
        };
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }

        // Column data must also win a slot on the shared data bus; the
        // controller backfills idle slots (reordering within its
        // transaction queue), so late arrivals cannot starve earlier ones.
        let data_start = self.bus.reserve(start + act_latency, p.t_burst);
        let done = data_start + p.t_burst;
        // Column commands to an open row pipeline at tCCD (= t_burst):
        // the bank accepts the next command while this data is in flight.
        let bank = &mut self.banks[bank_idx];
        bank.ready = start + act_latency + p.t_burst - p.t_cl;
        bank.open_row = Some(d.row);
        bank.row_uses = if outcome == RowOutcome::Hit {
            bank.row_uses + 1
        } else {
            1
        };

        done * p.clock_ratio
    }

    /// Closes all rows and idles all banks (between experiments).
    pub fn quiesce(&mut self) {
        for b in &mut self.banks {
            *b = BankState::default();
        }
        self.bus = BusSchedule::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramParams::ddr3_1333())
    }

    #[test]
    fn row_buffer_is_16kb() {
        assert_eq!(DramParams::ddr3_1333().row_buffer_bytes(), 16 * 1024);
    }

    #[test]
    fn decode_layout_row_rank_bank_column() {
        let d = dram();
        let p = d.params().clone();
        let bursts_per_row = p.row_buffer_bytes() / p.burst_bytes; // 256
                                                                   // Walk one field at a time.
        let a = d.decode(0);
        assert_eq!((a.row, a.rank, a.bank, a.column), (0, 0, 0, 0));
        let a = d.decode(p.burst_bytes);
        assert_eq!(a.column, 1);
        let a = d.decode(p.burst_bytes * bursts_per_row);
        assert_eq!((a.bank, a.column), (1, 0));
        let a = d.decode(p.burst_bytes * bursts_per_row * p.banks);
        assert_eq!((a.rank, a.bank), (1, 0));
        let a = d.decode(p.burst_bytes * bursts_per_row * p.banks * p.ranks);
        assert_eq!((a.row, a.rank, a.bank), (1, 0, 0));
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = dram();
        d.access(0, 0);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn second_access_same_row_hits_and_is_faster() {
        let mut d = dram();
        let t1 = d.access(0, 0);
        let mut d2 = dram();
        d2.access(0, 0);
        let t2 = d2.access(64, t1) - t1; // relative latency of the hit
        assert_eq!(d2.stats().row_hits, 1);
        let miss_latency = t1;
        assert!(
            t2 < miss_latency,
            "row hit ({t2}) not faster than miss ({miss_latency})"
        );
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut d = dram();
        let p = d.params().clone();
        let row_stride = p.row_buffer_bytes() * p.banks * p.ranks; // next row, same bank
        let t1 = d.access(0, 0);
        d.access(row_stride, t1);
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn conflict_costs_more_than_hit() {
        let p = DramParams::ddr3_1333();
        let row_stride = p.row_buffer_bytes() * p.banks * p.ranks;

        let mut hit = Dram::new(p.clone());
        let t = hit.access(0, 0);
        let hit_latency = hit.access(64, t) - t;

        let mut conf = Dram::new(p);
        let t = conf.access(0, 0);
        let conf_latency = conf.access(row_stride, t) - t;
        assert!(conf_latency > hit_latency);
    }

    #[test]
    fn forced_close_after_eight_row_accesses() {
        let mut d = dram();
        let mut now = 0;
        // 1 activating miss + 7 hits = 8 row accesses, the budget.
        for i in 0..8u64 {
            now = d.access(i * 64, now);
        }
        assert_eq!(d.stats().row_hits, 7);
        assert_eq!(d.stats().forced_closes, 0);
        // The 9th access to the same row pays a forced-close miss.
        d.access(8 * 64, now);
        assert_eq!(d.stats().forced_closes, 1);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn banks_overlap_but_bus_serialises_transfers() {
        let mut d = dram();
        let p = d.params().clone();
        let bank_stride = p.row_buffer_bytes(); // next bank
                                                // Two requests to different banks at the same time: the second
                                                // completes one burst after the first, not a full latency after.
        let t1 = d.access(0, 0);
        let t2 = d.access(bank_stride, 0);
        assert!(t2 > t1);
        assert!(
            t2 - t1 <= p.t_burst * p.clock_ratio,
            "bank-parallel requests should pipeline on the bus"
        );
    }

    #[test]
    fn same_bank_row_hits_pipeline_at_burst_rate() {
        let mut d = dram();
        let p = d.params().clone();
        let t1 = d.access(0, 0);
        let t2 = d.access(64, 0); // same row, same bank, immediately after
                                  // Column commands pipeline: spacing is one burst, not a full CAS.
        assert_eq!(t2 - t1, p.t_burst * p.clock_ratio);
    }

    #[test]
    fn streaming_throughput_hits_bus_bound() {
        // 32 sequential lines from one row: after the activating miss,
        // deliveries arrive every t_burst memory cycles (the DDR3-1333
        // bandwidth envelope the paper's vector loads must live within).
        let mut d = dram();
        let p = d.params().clone();
        let mut last = 0;
        let mut gaps = Vec::new();
        for i in 0..8u64 {
            let t = d.access(i * 64, 0);
            if i > 0 {
                gaps.push(t - last);
            }
            last = t;
        }
        assert!(
            gaps.iter().all(|&g| g == p.t_burst * p.clock_ratio),
            "{gaps:?}"
        );
    }

    #[test]
    fn completion_is_cpu_aligned_and_monotonic_per_bank() {
        let mut d = dram();
        let mut now = 0;
        let mut last = 0;
        for i in 0..32u64 {
            let t = d.access(i * 64, now);
            assert_eq!(t % d.params().clock_ratio, 0);
            assert!(t >= last);
            last = t;
            now = t;
        }
    }

    #[test]
    fn quiesce_resets_device_state() {
        let mut d = dram();
        d.access(0, 0);
        d.quiesce();
        d.reset_stats();
        d.access(64, 0);
        // After quiesce the bank is precharged again → row miss, not hit.
        assert_eq!(d.stats().row_misses, 1);
    }
}

/// Old scan ≡ new fast path for the data bus.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use proptest::prelude::*;

    /// `t_burst` of [`DramParams::ddr3_1333`]: the one width the machine
    /// ever asks the bus for.
    const BURST: u64 = 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        // A time domain that advances slower than the bus fills, with
        // requests reaching far back: collisions, backfilled gaps, the
        // 128-entry cap dropping live reservations and zero-width
        // transfers all occur.
        #[test]
        fn the_bus_holds_the_same_reservations_either_way(
            calls in prop::collection::vec((0u64..900, 0u64..7), 300..420)
        ) {
            let (mut fast, mut scanned) = (BusSchedule::default(), BusSchedule::default());
            for (i, &(back, width)) in calls.iter().enumerate() {
                let earliest = (3 * i as u64).saturating_sub(back);
                let start = fast.reserve(earliest, width);
                prop_assert_eq!(start, with_scan_only(|| scanned.reserve(earliest, width)));
                prop_assert_eq!(&fast.busy[..], &scanned.busy[..], "after call {}", i);
            }
        }

        // A saturated bus: 130 to 200 transfers queued behind one early
        // point book a gap-free run that outgrows the cap, so its head
        // is dropped while it is still live. Then requests anywhere from
        // before the first entry to past the last one — in the dropped
        // head (free again), in the surviving run, before it, beyond it,
        // at width 0 — mixed with more queued transfers and with late
        // ones that leave a gap and start a new run.
        #[test]
        fn a_saturated_bus_holds_the_same_reservations_either_way(
            lead in prop::collection::vec((0u64..120, 1u64..7), 0..4),
            run in prop::collection::vec(1u64..7, 130..200),
            calls in prop::collection::vec((0u64..4, 0u64..1_100, 0u64..7), 150..250),
        ) {
            let (mut fast, mut scanned) = (BusSchedule::default(), BusSchedule::default());
            let run_from = 150;
            let queued = run.iter().map(|&width| (run_from, width));
            let mixed = calls.iter().map(|&(shape, at, width)| match shape {
                0 => (run_from, width.max(1)),
                // Up to a few thousand cycles: often past the far end.
                1 => (4 * at, width),
                _ => (at, width),
            });
            for (i, (earliest, width)) in lead.iter().copied().chain(queued).chain(mixed).enumerate() {
                let start = fast.reserve(earliest, width);
                prop_assert_eq!(start, with_scan_only(|| scanned.reserve(earliest, width)));
                prop_assert_eq!(&fast.busy[..], &scanned.busy[..], "after call {}", i);
            }
        }

        // The regime the machine is in: every transfer one burst wide,
        // ready a cycle or three past the far end (a gap no burst fits),
        // a burst or two past it (a hole a later one back-fills), behind
        // it by anything up to the whole window, or queued at one early
        // point — three calls in eight are, so gap-free runs outgrow the
        // cap. The widths above reach 1 within a few calls; here the
        // narrowest width stays `BURST` until one to three late requests
        // in a row, narrower or zero-width, slot in wherever they fit.
        #[test]
        fn a_bus_of_one_burst_width_holds_the_same_reservations_either_way(
            calls in prop::collection::vec((0u64..8, 0u64..600, 1u64..4), 300..420),
            odd_at in 100usize..300,
            odd in prop::collection::vec((0u64..BURST, 0u64..600), 1..4),
        ) {
            let (mut fast, mut scanned) = (BusSchedule::default(), BusSchedule::default());
            for (i, &(shape, back, gap)) in calls.iter().enumerate() {
                let far_end = scanned.max_end;
                let (earliest, width) = if let Some(&(width, back)) = i.checked_sub(odd_at).and_then(|k| odd.get(k)) {
                    (far_end.saturating_sub(back), width)
                } else {
                    let earliest = match shape {
                        0 | 1 => far_end + gap,
                        2 => far_end + BURST * gap + back % BURST,
                        3 | 4 => far_end.saturating_sub(back),
                        _ => 150,
                    };
                    (earliest, BURST)
                };
                let start = fast.reserve(earliest, width);
                prop_assert_eq!(start, with_scan_only(|| scanned.reserve(earliest, width)));
                prop_assert_eq!(&fast.busy[..], &scanned.busy[..], "after call {}", i);
            }
        }

        // The whole controller at Table II's parameters: three rows, one
        // of them favoured, of eight banks, so row hits, conflicts, forced
        // closes and requests colliding on one bank all occur, issued well before the last
        // completion (overlapping, back-filling), at it, a little after
        // it or after the bus has gone idle.
        #[test]
        fn dram_completes_every_access_on_the_same_cycle_either_way(
            stream in prop::collection::vec(
                (
                    (prop_oneof![Just(0u64), 0u64..3], 0u64..2, 0u64..4, 0u64..256),
                    prop_oneof![-600i64..0, Just(0i64), 0i64..60, 200i64..2_000],
                ),
                300..500,
            )
        ) {
            let drive = || {
                let mut dram = Dram::new(DramParams::ddr3_1333());
                let p = dram.params().clone();
                let mut now = 0u64;
                let done: Vec<u64> = stream
                    .iter()
                    .map(|&((row, rank, bank, column), offset)| {
                        let burst = ((row * p.ranks + rank) * p.banks + bank)
                            * dram.bursts_per_row
                            + column;
                        now = now.saturating_add_signed(offset);
                        now = dram.access(burst * p.burst_bytes, now);
                        now
                    })
                    .collect();
                (done, dram.stats())
            };
            let fast = drive();
            let stats = fast.1;
            prop_assert!(stats.row_hits > 0 && stats.row_conflicts > 0 && stats.row_misses > 0);
            prop_assert_eq!(fast, with_scan_only(drive));
        }
    }

    #[test]
    fn the_tail_run_follows_the_cap() {
        let mut bus = BusSchedule::default();
        assert_eq!(bus.reserve(0, 4), 0);
        // 130 transfers queued behind one another book [100, 620)
        // without a gap. The 128th overflows the window, which drops
        // [0, 4); the last two drop the run's own head, [100, 104) and
        // [104, 108), while nothing has reached it.
        for i in 0..128u64 {
            assert_eq!(bus.reserve(100, 4), 100 + 4 * i);
        }
        assert_eq!(bus.reserve(200, 4), 612);
        assert_eq!(bus.reserve(200, 4), 616);
        assert_eq!(bus.busy.first(), Some(&(108, 112)));
        // In the dropped head of the run: free again. (Booked at the
        // front of a full window, each is itself dropped at once.)
        assert_eq!(bus.reserve(100, 4), 100);
        assert_eq!(bus.reserve(104, 4), 104);
        // Before the run ever started.
        assert_eq!(bus.reserve(50, 4), 50);
        // Too late for what is left of the dropped head: behind the run.
        assert_eq!(bus.reserve(106, 4), 620);
        // In the surviving run: behind it, wherever in it.
        assert_eq!(bus.reserve(300, 4), 624);
        assert_eq!(bus.reserve(627, 4), 628);
        // A zero-width transfer slots in between two entries of the run.
        assert_eq!(bus.reserve(300, 0), 300);
        assert_eq!(bus.reserve(302, 0), 304);
        // Past the end an append leaves a gap, which the next fills.
        assert_eq!(bus.reserve(700, 4), 700);
        assert_eq!(bus.reserve(300, 4), 632);
        assert_eq!(bus.reserve(300, 100), 704);
    }

    #[test]
    fn the_bus_cap_drops_a_live_reservation() {
        // 129 transfers booked far ahead: the window drops the earliest
        // although nothing has reached it, and its slot reads as free
        // again. Cycle counts depend on this; see `BusSchedule::busy`.
        let mut bus = BusSchedule::default();
        for i in 0..129u64 {
            assert_eq!(bus.reserve(1_000 + 4 * i, 4), 1_000 + 4 * i);
        }
        assert_eq!(bus.busy.len(), 128);
        assert_eq!(bus.reserve(1_000, 4), 1_000, "dropped, so free again");
        assert_eq!(bus.reserve(1_004, 4), 1_000 + 4 * 129, "the rest is booked");
    }
}
