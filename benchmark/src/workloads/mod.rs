//! The five workloads. Each runs as *passes*: a pass sets the system
//! up from the seed (timed as set-up), runs a fixed, seeded list of
//! operations closed-loop (the timed loop), and checks every result
//! against a host-side oracle (untimed). Every pass of a run starts
//! from the same fresh state, so simulated counters repeat exactly.

pub mod ingest;
pub mod kernels;
pub mod serve;
pub mod sql;

use crate::host::Reference;
use crate::span::Recorder;
use crate::spec::Workload;
use std::time::Duration;

/// How much work one pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's numbers are defined at.
    Full,
    /// All five workloads with every check in a few seconds, for the
    /// harness's own tests.
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` at smoke scale.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One operation of a pass's timed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Its latency on the wall clock.
    pub wall_ms: f64,
    /// Its calibrated latency: the wall latency divided by how much
    /// slower than nominal the host was running around it (see
    /// [`Clock`]). Every host-time metric is computed from this.
    pub ms: f64,
    /// The closed loop it ran in: 0, or the connection for
    /// `serve_mixed`. Operations of one lane run back to back; lanes
    /// run side by side.
    pub lane: usize,
    /// Whether the latency percentiles are taken over it.
    pub primary: bool,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds from the seed to a warmed system ready for the loop.
    pub setup_s: f64,
    /// Every operation the loop attempted, in list order — the same
    /// operations in the same order every pass.
    pub ops: Vec<Op>,
    /// Operations that failed: an engine error, a refusal, or a result
    /// the oracle rejects.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Simulated cycles the loop's operations cost in total.
    pub sim_cycles: u64,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
    /// The span logs, one per harness thread (traced passes only).
    pub threads: Vec<Recorder>,
    /// Milliseconds each harness thread spent in reference chunks
    /// inside its loop — harness time the span checks leave out.
    pub reference_ms: Vec<f64>,
}

impl Pass {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Wall latencies of the primary operations.
    pub fn primary_wall_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.primary)
            .map(|o| o.wall_ms)
            .collect()
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// The calibrated clock of one lane of a pass.
///
/// The reference host is a shared VM whose speed moves by tens of
/// percent for seconds to minutes at a time (README, "The noise
/// finding"), which no statistic over wall times inside one run can
/// remove. So the harness runs a fixed [`Reference`] chunk (~2 ms)
/// between operations — before the first, and again whenever at least
/// [`Clock::EVERY_MS`] of operation time has gone by — and divides
/// each operation's wall latency by the slowdown the two chunks around
/// it show (their mean over [`Reference::NOMINAL_MS`]). What comes out
/// is the latency at nominal host speed; it repeats run to run several
/// times more closely than the wall latency does.
pub struct Clock {
    reference: Reference,
    lane: usize,
    ops: Vec<Op>,
    /// Operations since the last chunk, still waiting for the chunk
    /// that closes their stretch.
    open: usize,
    open_ms: f64,
    last_chunk_ms: f64,
    /// Chunk time is harness time: traced passes record it as
    /// `harness.reference`, and the span checks leave it out.
    chunks_ms: f64,
}

impl Clock {
    /// Operation time between two reference chunks.
    const EVERY_MS: f64 = 8.0;

    /// Starts lane `lane`'s clock with its opening chunk.
    pub fn start(lane: usize) -> Self {
        let mut reference = Reference::new();
        let last_chunk_ms = reference.chunk_ms();
        Self {
            reference,
            lane,
            ops: Vec::new(),
            open: 0,
            open_ms: 0.0,
            last_chunk_ms,
            chunks_ms: 0.0,
        }
    }

    /// Records one operation; runs a chunk if one is due.
    pub fn op(&mut self, took: Duration, primary: bool) {
        let wall_ms = ms(took);
        self.ops.push(Op {
            wall_ms,
            ms: wall_ms,
            lane: self.lane,
            primary,
        });
        self.open += 1;
        self.open_ms += wall_ms;
        if self.open_ms >= Self::EVERY_MS {
            self.close();
        }
    }

    /// Runs a chunk; returns its milliseconds and how much slower than
    /// nominal it and the chunk before it show the host to be running.
    fn chunk(&mut self) -> (f64, f64) {
        let chunk_ms = self.reference.chunk_ms();
        let slowdown = (self.last_chunk_ms + chunk_ms) / 2.0 / Reference::NOMINAL_MS;
        self.last_chunk_ms = chunk_ms;
        (chunk_ms, slowdown)
    }

    /// Runs a chunk and calibrates the operations since the last one.
    fn close(&mut self) {
        let (chunk_ms, slowdown) = self.chunk();
        self.chunks_ms += chunk_ms;
        let from = self.ops.len() - self.open;
        for op in &mut self.ops[from..] {
            op.ms = op.wall_ms / slowdown;
        }
        (self.open, self.open_ms) = (0, 0.0);
    }

    /// Calibrates a duration outside the loop (set-up) against a chunk
    /// before it — the clock's latest — and one after.
    pub fn calibrated_s(&mut self, took: Duration) -> f64 {
        took.as_secs_f64() / self.chunk().1
    }

    /// Closes the last stretch and hands the lane's operations, and
    /// the time its chunks took, to `pass`.
    pub fn finish(mut self, pass: &mut Pass) {
        if self.open > 0 {
            self.close();
        }
        pass.ops.append(&mut self.ops);
        pass.reference_ms.push(self.chunks_ms);
    }
}

/// Seconds a closed loop over `ops` takes at their calibrated
/// latencies: each lane runs its operations back to back, lanes run
/// side by side.
pub fn loop_seconds(ops: &[Op]) -> f64 {
    let lanes = ops.iter().map(|o| o.lane).max().map_or(0, |l| l + 1);
    (0..lanes)
        .map(|lane| {
            ops.iter()
                .filter(|o| o.lane == lane)
                .map(|o| o.ms)
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
        / 1e3
}

/// Runs one pass of `workload`.
pub fn pass(workload: Workload, seed: u64, scale: Scale, traced: bool) -> Pass {
    match workload {
        Workload::Kernels => kernels::pass(seed, scale, traced),
        Workload::SqlSingle => sql::single_pass(seed, scale, traced),
        Workload::SqlSharded => sql::sharded_pass(seed, scale, traced),
        Workload::ServeMixed => serve::pass(seed, scale, traced),
        Workload::IngestWal => ingest::pass(seed, scale, traced),
    }
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub(crate) fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
