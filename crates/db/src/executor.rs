//! Morsel-driven parallel execution: a persistent worker pool with
//! work stealing.
//!
//! The sharded path used to spawn one fresh OS thread per shard per
//! query and hand each thread a *whole* shard — so small cached queries
//! paid thread-creation latency every time, and one skewed partition
//! dictated the makespan while every other thread sat idle. The
//! [`Executor`] replaces both:
//!
//! * **Persistent workers.** A fixed pool of OS threads, each owning a
//!   long-lived [`Session`] (its own simulated machine, caches kept
//!   warm across queries), created once with the
//!   [`crate::ShardedDatabase`] and parked on a condvar between
//!   queries — submitting a query is a mutex/notify, not N `clone()`s
//!   of a thread stack.
//! * **Morsels.** A shard's plan is split into fixed-size row ranges
//!   (morsels) over its base++delta prefix view; each morsel runs the
//!   distributive slice as one update of its worker's open aggregate.
//!   The shard's §V-D algorithm choice rides on the plan, so every
//!   morsel of a shard still runs the algorithm *that shard's*
//!   statistics picked.
//! * **Worker-local aggregate state.** The tables a query's morsels
//!   update live on the worker's machine for as long as the job does:
//!   the first morsel a worker runs opens them, and when the worker
//!   finds nothing left to claim it closes them — one compaction, one
//!   read-back, one mergeable [`vagg_core::PartialAggregate`] per
//!   worker that took part (see `worker_loop` for the protocol).
//! * **Work stealing.** Morsels are seeded onto per-worker deques
//!   (shard *i* → worker *i mod W*, preserving locality). A worker pops
//!   its own deque LIFO (hottest range first); when empty it scans the
//!   other deques and steals FIFO (the victim's coldest, oldest
//!   range) — so a skewed shard's tail is dismantled by idle workers
//!   instead of serialising the query.
//!
//! Merging is order-insensitive (the partial-aggregate merge-join is
//! associative and commutative, and so is accumulating into a table),
//! so stealing never changes results — only the makespan and how many
//! partials there are to merge. [`ExecutorStats`] exposes the steal
//! traffic.

use crate::cancel::CancelToken;
use crate::join::{JoinMorsel, JoinOutcome};
use crate::plan::QueryPlan;
use crate::session::{ClosedAggregate, PartialRun, RangeOpts, Session};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use vagg_sim::SimConfig;

/// Rows per range wherever a read is cut into morsels: the pool's
/// default [`ExecutorConfig::morsel_rows`], and the range size of a
/// single session running under a [`CancelToken`].
pub const DEFAULT_MORSEL_ROWS: usize = 2048;

/// How an [`Executor`] is shaped. The default — as many workers as
/// shards, [`DEFAULT_MORSEL_ROWS`]-row morsels, stealing on, zone-map
/// pruning on — is what [`crate::ShardedDatabase::new`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads in the pool. `0` means "match the shard count" —
    /// a sentinel [`crate::ShardedDatabase`] resolves before the pool
    /// is built; handing it straight to [`Executor::try_new`] is
    /// rejected with [`ExecutorError::ZeroWorkers`].
    pub workers: usize,
    /// Rows per morsel: the stealable unit of work. Smaller morsels
    /// steal finer (better skew absorption) at more scheduling
    /// overhead. `0` is rejected with
    /// [`ExecutorError::ZeroMorselRows`] — it would make the
    /// coordinator's morsel split loop spin forever.
    pub morsel_rows: usize,
    /// Whether idle workers steal from other workers' deques. Off, the
    /// pool degrades to static shard-to-worker assignment: the
    /// reference side of the differentials that hold stealing to
    /// "same rows, shorter simulated makespan" (`tests/morsel.rs`
    /// `zipf_skewed_partitions_steal_without_changing_results`,
    /// `shard::tests::stealing_levels_a_skewed_partition_without_changing_results`).
    pub steal: bool,
    /// Whether coordinators prune morsels whose zone maps prove the
    /// WHERE predicate can match no row (see
    /// [`crate::QueryPlan::zone_maps`]). Pruning is result-invariant —
    /// a pruned morsel is exactly one the filter would have emptied —
    /// and off is the reference side of the differential that holds it
    /// to that (`tests/pruning.rs`: pruned ≡ unpruned, bit for bit).
    pub prune: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            steal: true,
            prune: true,
        }
    }
}

/// Why an [`ExecutorConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorError {
    /// `workers == 0` reached the pool unresolved. The sentinel means
    /// "match the shard count" and only [`crate::ShardedDatabase`]
    /// knows that count; a pool cannot be built from it.
    ZeroWorkers,
    /// `morsel_rows == 0`: no rows per morsel means the morsel split
    /// never advances.
    ZeroMorselRows,
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::ZeroWorkers => {
                write!(f, "executor config rejected: workers must be at least 1")
            }
            ExecutorError::ZeroMorselRows => {
                write!(
                    f,
                    "executor config rejected: morsel_rows must be at least 1"
                )
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Lifetime counters of one [`Executor`] (cumulative across queries),
/// plus two point-in-time gauges — [`ExecutorStats::queued`] and
/// [`ExecutorStats::inflight`] — sampled when the stats were taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Queries submitted to the pool.
    pub queries: u64,
    /// Morsels executed in total.
    pub morsels: u64,
    /// Morsels a worker stole from another worker's deque.
    pub steals: u64,
    /// Morsels popped but *not* executed because the query's
    /// [`CancelToken`] had tripped (cumulative).
    pub cancelled_morsels: u64,
    /// Morsels never dispatched: their zone maps proved the WHERE
    /// predicate matches no row in the range (counted by the read
    /// driver, which drops them before submission).
    pub morsels_pruned: u64,
    /// Rows those pruned morsels covered.
    pub rows_pruned: u64,
    /// Times the affinity placement re-homed a shard to a different
    /// worker than its previous query used (load imbalance outweighed
    /// stickiness).
    pub affinity_moves: u64,
    /// Aggregate tables the workers opened (allocated and cleared): one
    /// per query per worker that ran a morsel of a table-based plan.
    pub agg_opens: u64,
    /// Aggregate tables the workers closed at the end of a query — at
    /// most one per query per worker that ran one of its morsels.
    pub agg_closes: u64,
    /// Tasks seeded on the deques but not yet claimed, at sampling
    /// time.
    queued: u64,
    /// Tasks claimed and currently executing on a worker, at sampling
    /// time.
    inflight: u64,
}

impl ExecutorStats {
    /// Queue-depth gauge: tasks seeded on the per-worker deques that no
    /// worker has claimed yet, at the moment the stats were sampled.
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Inflight gauge: tasks a worker had claimed and was executing at
    /// the moment the stats were sampled.
    pub fn inflight(&self) -> u64 {
        self.inflight
    }
}

/// One unit of a read: a row range of one shard's plan. On the pool it
/// is the stealable unit; a single session runs the same ranges inline.
pub(crate) struct Morsel {
    pub(crate) shard: usize,
    pub(crate) plan: Arc<QueryPlan>,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    /// The query's composite key domains (the elementwise maximum
    /// across its shard plans; empty for single-column grouping), so
    /// every morsel of every shard fuses into one key space — see
    /// [`RangeOpts::forced`].
    pub(crate) domains: Arc<[u64]>,
    /// The query's key space (the maximum of
    /// [`QueryPlan::table_cells`] across its shard plans): what the
    /// first morsel to reach a session opens the aggregate tables with.
    pub(crate) cells: usize,
    /// Record per-step actuals while running (`EXPLAIN ANALYZE`).
    pub(crate) traced: bool,
}

impl Morsel {
    /// Runs the range into `session`'s open aggregate and tags the
    /// outcome with where it ran — the one call both schedules make.
    pub(crate) fn run(
        &self,
        session: &mut Session,
        worker: usize,
        home: usize,
        stolen: bool,
        queue_wait_ns: u64,
    ) -> MorselOutcome {
        let opts = RangeOpts {
            forced: Some(&self.domains),
            trace: self.traced,
        };
        MorselOutcome {
            shard: self.shard,
            lo: self.lo,
            hi: self.hi,
            worker,
            home,
            stolen,
            queue_wait_ns,
            run: session.update(&self.plan, self.lo, self.hi, opts, self.cells),
        }
    }
}

/// What one morsel produced — its cost and counts; the groups come out
/// of its session's close — tagged with where it ran.
pub(crate) struct MorselOutcome {
    pub(crate) shard: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    /// Host thread that executed the morsel — placement telemetry;
    /// simulated-time load accounting goes through
    /// [`virtual_schedule`] instead.
    pub(crate) worker: usize,
    /// The worker the affinity placement seeded this morsel on —
    /// [`virtual_schedule`] replays from here.
    pub(crate) home: usize,
    pub(crate) stolen: bool,
    /// Host nanoseconds between job submission and the claim, measured
    /// for traced morsels only (wall-clock; diagnostic).
    pub(crate) queue_wait_ns: u64,
    pub(crate) run: PartialRun,
}

/// Any unit of work the pool schedules: an aggregation morsel (a row
/// range of one shard's plan) or a join morsel (a build or probe row
/// range — see [`crate::join`]). Both are seeded, stolen and drained
/// identically; only the per-morsel execution differs.
pub(crate) enum Task {
    /// An aggregation morsel run on the worker's [`Session`].
    Agg(Morsel),
    /// A join build/probe morsel (no session needed).
    Join(JoinMorsel),
}

impl Task {
    fn shard(&self) -> usize {
        match self {
            Task::Agg(m) => m.shard,
            Task::Join(m) => m.shard,
        }
    }

    /// Rows the task covers — the affinity placement's load weight.
    fn rows(&self) -> u64 {
        match self {
            Task::Agg(m) => (m.hi - m.lo) as u64,
            Task::Join(m) => (m.hi - m.lo) as u64,
        }
    }
}

/// What one [`Task`] produced — or, once per worker that ran an
/// aggregation morsel of the job, what closing its aggregate did.
pub(crate) enum TaskOutcome {
    /// An aggregation morsel's run (boxed: it and its optional step
    /// trace dwarf a join outcome).
    Agg(Box<MorselOutcome>),
    /// A join morsel's matched pairs.
    Join(JoinOutcome),
    /// A worker's closed aggregate: the groups of every morsel it ran.
    Closed(Box<ClosedAggregate>),
}

/// The result of [`virtual_schedule`]: deterministic per-worker
/// simulated loads and steal traffic.
pub(crate) struct VirtualSchedule {
    /// Per-worker simulated cycles; the max is the query's makespan.
    pub(crate) loads: Vec<u64>,
    /// Per-worker morsel counts.
    pub(crate) morsels: Vec<u64>,
    /// Per-worker counts of morsels taken from another deque.
    pub(crate) stolen: Vec<u64>,
    /// Total steals across the schedule.
    pub(crate) steals: u64,
}

/// Schedules measured morsel costs onto `workers` *virtual* workers —
/// the deterministic simulated-time counterpart of the pool's host-time
/// scheduling. Host threads race real wall time, and one morsel's wall
/// cost is microseconds while its *simulated* cost is thousands of
/// cycles — so the host assignment says nothing about what W parallel
/// machines would have done. This greedy schedule does: morsels sit on
/// their home worker's deque (the affinity placement's assignment,
/// recorded on each outcome, row order within a shard), the
/// least-loaded worker always acts next, drains its own deque
/// front-to-back, and — with stealing on — an idle worker takes the
/// *tail* morsel of the most-backlogged victim. Returns per-worker
/// simulated loads (their max is the query's makespan), per-worker
/// morsel/steal counts, and the number of steals the schedule needed.
///
/// `aggregate` is what one machine pays to open and close the query's
/// aggregate (the mean of what the real workers measured): every virtual
/// worker that runs a morsel at all is charged it once, with its first
/// morsel — a virtual worker is a machine of its own, with tables of
/// its own, however the host threads happened to share the morsels.
pub(crate) fn virtual_schedule(
    outcomes: &[MorselOutcome],
    workers: usize,
    steal: bool,
    aggregate: u64,
) -> VirtualSchedule {
    let mut order: Vec<&MorselOutcome> = outcomes.iter().collect();
    order.sort_by_key(|o| (o.shard, o.lo));
    let mut deques: Vec<VecDeque<u64>> = vec![VecDeque::new(); workers];
    let mut backlog: Vec<u64> = vec![0; workers];
    for o in &order {
        let home = o.home.min(workers - 1);
        deques[home].push_back(o.run.cycles);
        backlog[home] += o.run.cycles;
    }
    let mut sched = VirtualSchedule {
        loads: vec![0u64; workers],
        morsels: vec![0u64; workers],
        stolen: vec![0u64; workers],
        steals: 0,
    };
    let mut live = vec![true; workers];
    while let Some(w) = (0..workers)
        .filter(|&w| live[w])
        .min_by_key(|&w| (sched.loads[w], w))
    {
        let first = if sched.morsels[w] == 0 { aggregate } else { 0 };
        if let Some(cycles) = deques[w].pop_front() {
            backlog[w] -= cycles;
            sched.loads[w] += cycles + first;
            sched.morsels[w] += 1;
        } else if steal {
            let victim = (0..workers)
                .filter(|&v| !deques[v].is_empty())
                .max_by_key(|&v| (backlog[v], std::cmp::Reverse(v)));
            match victim {
                Some(v) => {
                    let cycles = deques[v].pop_back().expect("victim deque is non-empty");
                    backlog[v] -= cycles;
                    sched.loads[w] += cycles + first;
                    sched.morsels[w] += 1;
                    sched.stolen[w] += 1;
                    sched.steals += 1;
                }
                None => live[w] = false,
            }
        } else {
            live[w] = false;
        }
    }
    sched
}

/// One in-flight query: per-worker deques, a completion counter, and
/// the shard→worker placement the submission chose.
struct Job {
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Units of work not yet finished: every seeded task, plus one
    /// close per worker that has started an aggregation morsel. The
    /// worker that takes it to zero wakes the coordinator.
    remaining: AtomicUsize,
    results: Mutex<Vec<TaskOutcome>>,
    /// Home worker per shard id (the affinity placement), so outcomes
    /// and traces report where a morsel was seeded, not `shard mod W`.
    homes: Vec<usize>,
    steal: bool,
    /// The query's cancellation token: checked at every morsel pop —
    /// once tripped, popped tasks are drained *without executing*, so
    /// the workers come free within one morsel's latency while the
    /// coordinator still gets its completion wakeup.
    cancel: Option<CancelToken>,
    /// Set when a morsel panicked on its worker; the coordinator
    /// re-raises instead of merging a silently incomplete answer.
    failed: AtomicBool,
    /// When the job was seeded — traced morsels report their deque
    /// wait as the host time from here to their claim.
    submitted: std::time::Instant,
}

struct State {
    job: Option<Arc<Job>>,
    /// Bumped per submitted job so parked workers can tell a new job
    /// from the one they already drained.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between queries.
    work: Condvar,
    /// The coordinator parks here while a query is in flight.
    done: Condvar,
    /// Queue-depth gauge: tasks seeded but not yet claimed.
    queued: AtomicU64,
    /// Inflight gauge: tasks claimed and currently executing.
    inflight: AtomicU64,
    /// Cumulative count of morsels drained unexecuted after their
    /// query's token tripped.
    cancelled_morsels: AtomicU64,
    /// Cumulative zone-map pruning counters (reported by coordinators
    /// via [`Executor::note_pruned`] — pruned morsels never reach the
    /// deques).
    morsels_pruned: AtomicU64,
    rows_pruned: AtomicU64,
    /// Cumulative count of shards the affinity placement re-homed.
    affinity_moves: AtomicU64,
    /// Cumulative aggregate-table counts, folded in by each worker when
    /// it is done with a job.
    agg_opens: AtomicU64,
    agg_closes: AtomicU64,
}

/// A persistent pool of morsel workers.
/// Owned by [`crate::ShardedDatabase`]; the pool is created once and
/// reused by every query until the database drops.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    config: ExecutorConfig,
    stats: Mutex<ExecutorStats>,
    /// Sticky shard→worker map fed into the per-query affinity
    /// placement (`usize::MAX` = never placed). Stickiness keeps a
    /// shard's morsels on the worker whose session caches are warm
    /// with that shard's ranges; the placement overrides it only when
    /// load balance demands (counted as an affinity move).
    affinity: Mutex<Vec<usize>>,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.handles.len())
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// [`Executor::try_new`], panicking on a rejected configuration.
    /// Callers that resolved the config themselves (the
    /// [`crate::ShardedDatabase`] constructor) use this; anything
    /// accepting user-supplied configs wants the typed error instead.
    pub fn new(config: ExecutorConfig, sim: SimConfig) -> Self {
        Self::try_new(config, sim).expect("executor config accepted")
    }

    /// Spawns a pool of `config.workers` persistent workers, each
    /// owning a [`Session`] on `sim` (the shards' machine
    /// configuration, so morsel cycle accounting matches the sessions
    /// it replaced). Rejects `workers == 0` (the unresolved "match
    /// shard count" sentinel) and `morsel_rows == 0` with a typed
    /// [`ExecutorError`].
    pub fn try_new(config: ExecutorConfig, sim: SimConfig) -> Result<Self, ExecutorError> {
        if config.workers == 0 {
            return Err(ExecutorError::ZeroWorkers);
        }
        if config.morsel_rows == 0 {
            return Err(ExecutorError::ZeroMorselRows);
        }
        let workers = config.workers;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            queued: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            cancelled_morsels: AtomicU64::new(0),
            morsels_pruned: AtomicU64::new(0),
            rows_pruned: AtomicU64::new(0),
            affinity_moves: AtomicU64::new(0),
            agg_opens: AtomicU64::new(0),
            agg_closes: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let sim = sim.clone();
                std::thread::Builder::new()
                    .name(format!("vagg-morsel-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared, sim))
                    .expect("spawn morsel worker")
            })
            .collect();
        Ok(Self {
            shared,
            handles,
            config,
            stats: Mutex::new(ExecutorStats::default()),
            affinity: Mutex::new(Vec::new()),
        })
    }

    /// Worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// The resolved configuration the pool runs.
    pub fn config(&self) -> ExecutorConfig {
        self.config
    }

    /// Cumulative counters since the pool was built, with the
    /// queue-depth and inflight gauges sampled now.
    pub fn stats(&self) -> ExecutorStats {
        let mut stats = *self.stats.lock().expect("executor stats lock");
        stats.queued = self.shared.queued.load(Ordering::Relaxed);
        stats.inflight = self.shared.inflight.load(Ordering::Relaxed);
        stats.cancelled_morsels = self.shared.cancelled_morsels.load(Ordering::Relaxed);
        stats.morsels_pruned = self.shared.morsels_pruned.load(Ordering::Relaxed);
        stats.rows_pruned = self.shared.rows_pruned.load(Ordering::Relaxed);
        stats.affinity_moves = self.shared.affinity_moves.load(Ordering::Relaxed);
        stats.agg_opens = self.shared.agg_opens.load(Ordering::Relaxed);
        stats.agg_closes = self.shared.agg_closes.load(Ordering::Relaxed);
        stats
    }

    /// Records morsels a coordinator pruned by zone map before
    /// submission (they never reach the deques, so the pool can't
    /// count them itself).
    pub(crate) fn note_pruned(&self, morsels: u64, rows: u64) {
        self.shared
            .morsels_pruned
            .fetch_add(morsels, Ordering::Relaxed);
        self.shared.rows_pruned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Places each shard on a worker for one submission: shards are
    /// taken heaviest-first (total rows) and each goes to the
    /// least-loaded worker, preferring the worker it used last time
    /// when loads tie — so placement is sticky under stable load
    /// (warm session caches) and rebalances under skew, with stealing
    /// left as the escape valve for what the weights mispredict.
    /// Returns `homes[shard] = worker` and counts re-homings.
    fn place(&self, tasks: &[Task], workers: usize) -> Vec<usize> {
        let shards = tasks.iter().map(Task::shard).max().map_or(0, |s| s + 1);
        let mut weight = vec![0u64; shards];
        for task in tasks {
            weight[task.shard()] += task.rows().max(1);
        }
        let mut order: Vec<usize> = (0..shards).filter(|&s| weight[s] > 0).collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(weight[s]), s));
        let mut sticky = self.affinity.lock().expect("affinity lock");
        if sticky.len() < shards {
            sticky.resize(shards, usize::MAX);
        }
        let mut homes = vec![0usize; shards];
        let mut load = vec![0u64; workers];
        let mut moves = 0u64;
        for s in order {
            let prev = sticky[s];
            let w = (0..workers)
                .min_by_key(|&w| (load[w], (w != prev) as u8, w))
                .expect("at least one worker");
            if prev != usize::MAX && prev != w {
                moves += 1;
            }
            sticky[s] = w;
            homes[s] = w;
            load[w] += weight[s];
        }
        if moves > 0 {
            self.shared
                .affinity_moves
                .fetch_add(moves, Ordering::Relaxed);
        }
        homes
    }

    /// Runs one query's morsels to completion on the pool and returns
    /// every morsel's outcome (in completion order) and the closed
    /// aggregate of every worker that ran one. Blocks the calling
    /// coordinator; the workers run concurrently.
    pub(crate) fn execute(
        &self,
        morsels: Vec<Morsel>,
        cancel: Option<&CancelToken>,
    ) -> (Vec<MorselOutcome>, Vec<ClosedAggregate>) {
        let (mut outcomes, mut closed) = (Vec::new(), Vec::new());
        for o in self.submit(morsels.into_iter().map(Task::Agg).collect(), cancel) {
            match o {
                TaskOutcome::Agg(o) => outcomes.push(*o),
                TaskOutcome::Closed(c) => closed.push(*c),
                TaskOutcome::Join(_) => unreachable!("aggregation tasks yield Agg outcomes"),
            }
        }
        (outcomes, closed)
    }

    /// Runs one join phase's morsels (all build, or all probe) to
    /// completion on the pool — the same seeding, stealing and parking
    /// as [`Executor::execute`]. The two phases are two submissions:
    /// the coordinator freezes the build indexes at the barrier in
    /// between, so probe morsels always see a complete build side.
    pub(crate) fn execute_join(
        &self,
        morsels: Vec<JoinMorsel>,
        cancel: Option<&CancelToken>,
    ) -> Vec<JoinOutcome> {
        self.submit(morsels.into_iter().map(Task::Join).collect(), cancel)
            .into_iter()
            .map(|o| match o {
                TaskOutcome::Join(o) => o,
                TaskOutcome::Agg(_) | TaskOutcome::Closed(_) => {
                    unreachable!("join tasks yield Join outcomes")
                }
            })
            .collect()
    }

    /// The shared submission path: seeds the tasks, wakes the pool,
    /// parks until the last unit of work — task or close — completes,
    /// re-raises worker panics.
    /// With a `cancel` token, every morsel pop checks it first: a
    /// tripped token drains the remaining tasks unexecuted (see
    /// [`crate::CancelToken`]) — the caller is responsible for turning
    /// the tripped token into a typed error instead of merging the
    /// incomplete outcome set.
    fn submit(&self, tasks: Vec<Task>, cancel: Option<&CancelToken>) -> Vec<TaskOutcome> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let workers = self.handles.len();
        let total = tasks.len();
        let homes = self.place(&tasks, workers);
        let job = Arc::new(Job {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(total),
            results: Mutex::new(Vec::with_capacity(total)),
            homes: homes.clone(),
            steal: self.config.steal,
            cancel: cancel.cloned(),
            failed: AtomicBool::new(false),
            submitted: std::time::Instant::now(),
        });
        self.shared
            .queued
            .fetch_add(total as u64, Ordering::Relaxed);
        // Seed locality-first: a shard's morsels land on its placed
        // home worker in row order (LIFO pop serves the newest range,
        // FIFO steal takes the oldest).
        for task in tasks {
            let home = homes[task.shard()];
            job.deques[home]
                .lock()
                .expect("morsel deque lock")
                .push_back(task);
        }
        {
            let mut st = self.shared.state.lock().expect("executor state lock");
            debug_assert!(st.job.is_none(), "one query in flight at a time");
            st.job = Some(Arc::clone(&job));
            st.epoch += 1;
            self.shared.work.notify_all();
        }
        // Park until the worker that finishes the job's last unit of
        // work clears the job slot.
        {
            let mut st = self.shared.state.lock().expect("executor state lock");
            while st.job.is_some() {
                st = self.shared.done.wait(st).expect("executor state lock");
            }
        }
        if job.failed.load(Ordering::Acquire) {
            panic!("a morsel worker panicked while executing this query");
        }
        let outcomes = std::mem::take(&mut *job.results.lock().expect("results lock"));
        let mut stats = self.stats.lock().expect("executor stats lock");
        stats.queries += 1;
        for o in &outcomes {
            let stolen = match o {
                TaskOutcome::Agg(o) => o.stolen,
                TaskOutcome::Join(o) => o.stolen,
                TaskOutcome::Closed(_) => continue,
            };
            stats.morsels += 1;
            stats.steals += u64::from(stolen);
        }
        outcomes
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("executor state lock");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("morsel worker exits cleanly");
        }
    }
}

/// Claims the next morsel for `id`: LIFO off its own deque, else — with
/// stealing on — FIFO off the first non-empty victim, scanning from its
/// right neighbour so steal pressure spreads instead of piling onto
/// worker 0.
fn claim(job: &Job, id: usize) -> Option<(Task, bool)> {
    if let Some(m) = job.deques[id].lock().expect("morsel deque lock").pop_back() {
        return Some((m, false));
    }
    if !job.steal {
        return None;
    }
    let n = job.deques.len();
    for k in 1..n {
        let victim = (id + k) % n;
        if let Some(m) = job.deques[victim]
            .lock()
            .expect("morsel deque lock")
            .pop_front()
        {
            return Some((m, true));
        }
    }
    None
}

fn worker_loop(id: usize, shared: &Shared, sim: SimConfig) {
    let mut session = Session::with_config(sim);
    let mut seen = 0u64;
    loop {
        // Park until a job with a fresh epoch arrives (or shutdown).
        let job = {
            let mut st = shared.state.lock().expect("executor state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen {
                    seen = st.epoch;
                    if let Some(job) = &st.job {
                        break Arc::clone(job);
                    }
                    // The epoch's job was fully drained before this
                    // worker woke; keep waiting for the next one.
                }
                st = shared.work.wait(st).expect("executor state lock");
            }
        };
        // A worker's aggregate state is local to it and scoped to the
        // job (one job is in flight at a time): the worker that opens
        // owes the job one close. It says so by bumping `remaining`
        // *before* it finishes the morsel that opens — the count cannot
        // reach zero while a close is owed, so the coordinator's wake-up
        // stays "last unit of work done" and waits for no idle worker —
        // and pays when `claim` comes back empty: tasks are only ever
        // taken off the deques, so nothing can follow.
        let mut owes_close = false;
        while let Some((task, stolen)) = claim(&job, id) {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            // The morsel-pop cancellation point: a tripped token means
            // this task is drained unexecuted — counted as finished (so
            // the coordinator still gets its last-morsel wakeup) but
            // contributing no outcome, freeing the worker within one
            // morsel's latency.
            if let Some(cancel) = &job.cancel {
                if cancel.admit_morsel().is_err() {
                    shared.cancelled_morsels.fetch_add(1, Ordering::Relaxed);
                    finish_task(&job, shared);
                    continue;
                }
            }
            shared.inflight.fetch_add(1, Ordering::Relaxed);
            if matches!(task, Task::Agg(_)) && !owes_close {
                job.remaining.fetch_add(1, Ordering::AcqRel);
                owes_close = true;
            }
            // A panic inside a morsel (the session or a join sink) must
            // not strand the coordinator on the done
            // condvar: the morsel is still counted as finished, the job
            // is flagged failed, and the coordinator re-raises the
            // panic — while this worker survives to serve later
            // queries.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &task {
                Task::Agg(morsel) => {
                    let queue_wait_ns = if morsel.traced {
                        job.submitted.elapsed().as_nanos() as u64
                    } else {
                        0
                    };
                    let home = job.homes[morsel.shard];
                    let outcome = morsel.run(&mut session, id, home, stolen, queue_wait_ns);
                    TaskOutcome::Agg(Box::new(outcome))
                }
                Task::Join(morsel) => TaskOutcome::Join(morsel.run(stolen)),
            }));
            match outcome {
                Ok(done) => job.results.lock().expect("results lock").push(done),
                Err(_) => job.failed.store(true, Ordering::Release),
            }
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
            finish_task(&job, shared);
        }
        if owes_close {
            // Nobody reads the answer of a failed or cancelled job, and
            // a morsel that panicked may have left its tables half
            // updated: drop them without a compaction.
            let dead = job.failed.load(Ordering::Acquire)
                || job.cancel.as_ref().is_some_and(|c| c.cause().is_some());
            let closed = if dead {
                None
            } else {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.close()))
                    .unwrap_or_else(|_| {
                        job.failed.store(true, Ordering::Release);
                        None
                    })
            };
            match closed {
                Some(closed) => {
                    let done = TaskOutcome::Closed(Box::new(closed));
                    job.results.lock().expect("results lock").push(done);
                }
                None => session.abandon(),
            }
            let counts = session.take_agg_counts();
            shared.agg_opens.fetch_add(counts.opens, Ordering::Relaxed);
            shared
                .agg_closes
                .fetch_add(counts.closes, Ordering::Relaxed);
            finish_task(&job, shared);
        }
    }
}

/// Counts one unit of work — a task, or a worker's close — as finished;
/// the last one clears the job slot and wakes the coordinator.
fn finish_task(job: &Job, shared: &Shared) {
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut st = shared.state.lock().expect("executor state lock");
        st.job = None;
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::query::AggregateQuery;
    use crate::table::Table;
    use vagg_core::PartialAggregate;

    fn plan(n: usize) -> Arc<QueryPlan> {
        let t = Table::new("r")
            .with_column("g", (0..n).map(|i| (i % 7) as u32).collect())
            .with_column("v", (0..n).map(|i| (i % 10) as u32).collect());
        Arc::new(
            Engine::new()
                .plan(&t, &AggregateQuery::paper("g", "v"))
                .unwrap(),
        )
    }

    fn morselize(shard: usize, plan: &Arc<QueryPlan>, rows: usize) -> Vec<Morsel> {
        let mut out = Vec::new();
        let mut lo = 0;
        while lo < plan.rows() {
            let hi = (lo + rows).min(plan.rows());
            out.push(Morsel {
                shard,
                plan: Arc::clone(plan),
                lo,
                hi,
                domains: plan.key_domains().into(),
                cells: plan.table_cells(plan.key_domains()),
                traced: false,
            });
            lo = hi;
        }
        out
    }

    // The groups are in the closes, one per worker that ran a morsel.
    fn merged_rows(closed: Vec<ClosedAggregate>) -> PartialAggregate {
        PartialAggregate::merge_all(closed.into_iter().map(|c| c.partial)).unwrap()
    }

    fn whole(plan: &QueryPlan) -> PartialAggregate {
        Session::new()
            .run_range(plan, 0, plan.rows(), RangeOpts::default())
            .0
    }

    #[test]
    fn zero_sized_configs_are_rejected_with_typed_errors() {
        let err = Executor::try_new(
            ExecutorConfig {
                workers: 0,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        )
        .unwrap_err();
        assert_eq!(err, ExecutorError::ZeroWorkers);
        assert!(err.to_string().contains("workers"));

        let err = Executor::try_new(
            ExecutorConfig {
                workers: 1,
                morsel_rows: 0,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        )
        .unwrap_err();
        assert_eq!(err, ExecutorError::ZeroMorselRows);
        assert!(err.to_string().contains("morsel"));
    }

    #[test]
    fn pooled_morsels_reproduce_the_whole_answer() {
        let p = plan(500);
        let expect = whole(&p);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 3,
                morsel_rows: 64,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        for round in 0..3 {
            let (outcomes, closed) = exec.execute(morselize(0, &p, 64), None);
            assert_eq!(outcomes.len(), 8, "round {round}");
            assert!((1..=3).contains(&closed.len()), "one close per worker");
            assert_eq!(merged_rows(closed), expect);
        }
        let stats = exec.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.morsels, 24, "closes are not morsels");
        assert!((3..=9).contains(&stats.agg_closes), "{stats:?}");
        assert_eq!(stats.agg_opens, stats.agg_closes);
    }

    #[test]
    fn disabling_steal_pins_morsels_to_their_home_worker() {
        let p = plan(400);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 2,
                morsel_rows: 50,
                steal: false,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        // Everything seeded on worker 0 (shard 0); worker 1 must not
        // touch it.
        let (outcomes, closed) = exec.execute(morselize(0, &p, 50), None);
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().all(|o| o.worker == 0 && !o.stolen));
        assert_eq!(closed.len(), 1, "the idle worker opened nothing");
        assert_eq!(exec.stats().steals, 0);
    }

    #[test]
    fn stealing_spreads_one_skewed_shard_across_the_pool() {
        let p = plan(4000);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 4,
                morsel_rows: 100,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        // One hot shard, three idle workers. Which host thread claims
        // which morsel is a race between four threads — on a loaded
        // 2-core box worker 0 can drain its own deque before a thief
        // wakes — so stealing is asserted on the deterministic virtual
        // schedule, which replays the measured costs on four parallel
        // machines.
        let (outcomes, closed) = exec.execute(morselize(0, &p, 100), None);
        assert_eq!(outcomes.len(), 40);
        let aggregate = closed.iter().map(|c| c.cycles).max().unwrap();
        assert!(
            virtual_schedule(&outcomes, 4, true, aggregate).steals > 0,
            "idle workers steal from the hot shard"
        );
        // These hold under any interleaving.
        assert_eq!(merged_rows(closed), whole(&p));
        let stolen = outcomes.iter().filter(|o| o.stolen).count();
        assert_eq!(exec.stats().steals, stolen as u64);
    }

    #[test]
    fn empty_submission_is_a_no_op() {
        let exec = Executor::new(
            ExecutorConfig {
                workers: 1,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        let (outcomes, closed) = exec.execute(Vec::new(), None);
        assert!(outcomes.is_empty() && closed.is_empty());
        assert_eq!(exec.stats().queries, 0);
    }

    #[test]
    fn a_tripped_token_drains_every_morsel_unexecuted() {
        let p = plan(800);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 2,
                morsel_rows: 100,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        let token = CancelToken::new();
        token.cancel();
        let (outcomes, closed) = exec.execute(morselize(0, &p, 100), Some(&token));
        assert!(outcomes.is_empty(), "no morsel ran after the trip");
        assert!(closed.is_empty(), "so nothing was opened to close");
        let stats = exec.stats();
        assert_eq!(stats.cancelled_morsels, 8);
        assert_eq!(stats.agg_opens, 0);
        assert_eq!(stats.queued(), 0, "the deques drained fully");
        assert_eq!(stats.inflight(), 0);
    }

    #[test]
    fn the_pool_survives_a_cancelled_query() {
        let p = plan(500);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 3,
                morsel_rows: 64,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        let token = CancelToken::with_morsel_budget(0);
        let (drained, _) = exec.execute(morselize(0, &p, 64), Some(&token));
        assert!(drained.is_empty());
        // The next (uncancelled) query on the same pool is whole.
        let (outcomes, closed) = exec.execute(morselize(0, &p, 64), None);
        assert_eq!(outcomes.len(), 8);
        assert_eq!(merged_rows(closed), whole(&p));
    }

    #[test]
    fn a_morsel_that_panics_with_tables_open_fails_its_query_only() {
        let p = plan(500);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 1,
                morsel_rows: 64,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        // The worker pops its deque newest-first, so a morsel seeded at
        // the front runs last — with the tables of the seven before it
        // open on the worker's machine. This one escapes its plan's rows
        // and panics inside the session.
        let mut morsels = morselize(0, &p, 64);
        morsels[0].hi = p.rows() + 1;
        let failed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.execute(morsels, None)));
        assert!(failed.is_err(), "the coordinator re-raises the panic");
        let stats = exec.stats();
        assert_eq!((stats.agg_opens, stats.agg_closes), (1, 0), "abandoned");
        assert_eq!((stats.queued(), stats.inflight()), (0, 0));

        // The worker survived, and its session kept nothing of the
        // failed query: the next one is whole.
        let (outcomes, closed) = exec.execute(morselize(0, &p, 64), None);
        assert_eq!(outcomes.len(), 8);
        assert_eq!(merged_rows(closed), whole(&p));
        let stats = exec.stats();
        assert_eq!((stats.agg_opens, stats.agg_closes), (2, 1));
    }

    #[test]
    fn a_one_morsel_job_waits_for_its_close() {
        // The job's only task finishing must not wake the coordinator:
        // the worker that ran it still owes the close.
        let p = plan(60);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 2,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        for _ in 0..50 {
            let (outcomes, closed) = exec.execute(morselize(0, &p, 64), None);
            assert_eq!((outcomes.len(), closed.len()), (1, 1));
            assert_eq!(merged_rows(closed), whole(&p));
        }
    }

    #[test]
    fn a_worker_that_only_stole_closes_too() {
        // Everything is seeded on worker 0; whatever worker 1 runs, it
        // stole. Whether it gets any is a race — but the merged answer
        // is whole exactly when every worker that ran a morsel closed.
        let p = plan(4000);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 2,
                morsel_rows: 50,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        for _ in 0..20 {
            let (outcomes, closed) = exec.execute(morselize(0, &p, 50), None);
            let ran: std::collections::BTreeSet<usize> =
                outcomes.iter().map(|o| o.worker).collect();
            assert_eq!(closed.len(), ran.len(), "one close per worker that ran");
            assert_eq!(merged_rows(closed), whole(&p));
        }
    }

    #[test]
    fn a_live_token_lets_every_morsel_through() {
        let p = plan(500);
        let exec = Executor::new(
            ExecutorConfig {
                workers: 2,
                morsel_rows: 64,
                ..ExecutorConfig::default()
            },
            SimConfig::paper(),
        );
        let token = CancelToken::new();
        let (outcomes, _) = exec.execute(morselize(0, &p, 64), Some(&token));
        assert_eq!(outcomes.len(), 8);
        assert_eq!(token.morsels(), 8, "every pop was counted on the token");
        assert_eq!(exec.stats().cancelled_morsels, 0);
    }
}
