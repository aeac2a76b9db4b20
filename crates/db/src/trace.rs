//! Per-query execution tracing — the span tree behind `EXPLAIN ANALYZE`.
//!
//! A [`QueryTrace`] is built while a query *actually executes*: every
//! plan step records the rows it saw and the simulated cycles it cost
//! ([`StepTrace`]), every morsel records where it ran and what it waited
//! for ([`MorselTrace`]), and the coordinator folds the lot into
//! per-step and per-worker rollups with the planner's *estimates* kept
//! alongside the observed *actuals* ([`StepRollup`]). The rendered form
//! is the `EXPLAIN ANALYZE` output.
//!
//! Tracing is opt-in per query and changes no results: recording only
//! *reads* the simulated cycle counter and host-side lengths, neither of
//! which perturbs the machine, so a traced run is bit-identical to an
//! untraced one (property-tested in `tests/observability.rs`). When no
//! trace is requested the execution paths carry a `None` and pay one
//! branch per phase, nothing more.

use crate::engine::QueryOutput;
use crate::plan::{PlanStep, QueryPlan};

/// One executed plan step's observed actuals, recorded by
/// [`crate::Session`] while the step runs.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// The plan step that ran.
    pub step: PlanStep,
    /// Rows entering the step.
    pub rows_in: u64,
    /// Rows leaving the step.
    pub rows_out: u64,
    /// Simulated cycles the step cost (cycle-counter delta; exact and
    /// deterministic).
    pub cycles: u64,
}

/// One morsel's execution record: where it ran, what it waited for, and
/// the per-step actuals of its distributive slice.
#[derive(Debug, Clone)]
pub struct MorselTrace {
    /// The shard whose plan this morsel belongs to.
    pub shard: usize,
    /// Morsel row range start (inclusive).
    pub lo: usize,
    /// Morsel row range end (exclusive).
    pub hi: usize,
    /// The worker whose deque the morsel was seeded onto.
    pub home_worker: usize,
    /// The OS worker that actually ran it (nondeterministic under
    /// stealing; diagnostic only).
    pub worker: usize,
    /// Whether the running worker stole it from another deque.
    pub stolen: bool,
    /// Host nanoseconds between job submission and the morsel starting
    /// (wall-clock; diagnostic only, never asserted on).
    pub queue_wait_ns: u64,
    /// Simulated cycles the morsel's distributive slice cost.
    pub cycles: u64,
    /// Per-step actuals, in execution order.
    pub steps: Vec<StepTrace>,
}

/// Estimated-vs-actual rollup of one plan step across every morsel and
/// shard that ran it.
#[derive(Debug, Clone)]
pub struct StepRollup {
    /// The rendered plan step (plans that differ per shard — e.g. in
    /// algorithm choice — roll up separately).
    pub step: String,
    /// The planner's row estimate for the step's output, summed across
    /// shard plans; `None` where the planner makes no estimate (e.g.
    /// WHERE selectivity).
    pub est_rows: Option<u64>,
    /// Observed rows entering the step, summed across morsels.
    pub rows_in: u64,
    /// Observed rows leaving the step, summed across morsels — for a
    /// table-based aggregate, the groups each session that took part
    /// read back at its close (so between the query's groups and that
    /// times the workers, as the host threads happened to share the
    /// morsels).
    pub rows_out: u64,
    /// Simulated cycles, summed across morsels and, for a table-based
    /// aggregate, the opens and closes of its tables.
    pub cycles: u64,
    /// How many morsels executed the step.
    pub morsels: u64,
}

/// Deterministic per-worker rollup from the virtual schedule (see
/// `virtual_schedule` in the executor): the same measured morsel costs
/// replayed onto virtual workers — each charged, with its first morsel,
/// one open and close of the query's aggregate — so the numbers are
/// reproducible even though physical placement is racy.
#[derive(Debug, Clone)]
pub struct WorkerRollup {
    /// Virtual worker index.
    pub worker: usize,
    /// Simulated cycles of the morsels this worker ran, plus — if it
    /// ran any — one open and close of the aggregate.
    pub cycles: u64,
    /// Morsels this worker ran.
    pub morsels: u64,
    /// How many of those morsels it stole.
    pub steals: u64,
}

/// The folded trace of one executed query: per-step estimated-vs-actual
/// rollups, per-worker rollups, morsel spans, and the shared-state costs
/// (join hash side, join freeze barrier) — everything `EXPLAIN ANALYZE`
/// renders.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The traced statement, rendered back to SQL.
    pub sql: String,
    /// Per-step rollups in first-execution order.
    pub steps: Vec<StepRollup>,
    /// Every morsel's span (empty for single-session execution, which
    /// runs the plan whole).
    pub morsels: Vec<MorselTrace>,
    /// Deterministic per-worker rollups (empty for single-session).
    pub workers: Vec<WorkerRollup>,
    /// Steals in the deterministic virtual schedule.
    pub steals: u64,
    /// Morsels actually handed to the executor (after zone-map
    /// pruning).
    pub morsels_dispatched: u64,
    /// Morsels skipped before dispatch because their zone maps proved
    /// the WHERE predicate matches no row in their range.
    pub morsels_pruned: u64,
    /// Rows those pruned morsels covered — rows the query never
    /// touched.
    pub rows_pruned: u64,
    /// Distinct key tuples in a join's build index(es); 0 for non-join
    /// queries.
    pub dict_entries: u64,
    /// Build rows whose key tuple an earlier row had already entered
    /// (build rows − `dict_entries`).
    pub dict_hits: u64,
    /// Host nanoseconds spent in the join build→probe freeze barrier;
    /// `None` for non-join queries. Wall-clock, diagnostic only.
    pub freeze_ns: Option<u64>,
    /// Total host nanoseconds morsels waited in deques (wall-clock,
    /// diagnostic only).
    pub queue_wait_ns: u64,
    /// Total simulated cycles charged to the query (the virtual-schedule
    /// makespan for sharded execution, the machine delta otherwise).
    pub cycles: u64,
    /// Result rows returned.
    pub rows: u64,
}

impl QueryTrace {
    /// An empty trace for a statement.
    pub(crate) fn new(sql: String) -> Self {
        Self {
            sql,
            steps: Vec::new(),
            morsels: Vec::new(),
            workers: Vec::new(),
            steals: 0,
            morsels_dispatched: 0,
            morsels_pruned: 0,
            rows_pruned: 0,
            dict_entries: 0,
            dict_hits: 0,
            freeze_ns: None,
            queue_wait_ns: 0,
            cycles: 0,
            rows: 0,
        }
    }

    fn rollup_mut(&mut self, step: String) -> &mut StepRollup {
        if let Some(i) = self.steps.iter().position(|r| r.step == step) {
            return &mut self.steps[i];
        }
        self.steps.push(StepRollup {
            step,
            est_rows: None,
            rows_in: 0,
            rows_out: 0,
            cycles: 0,
            morsels: 0,
        });
        self.steps.last_mut().expect("just pushed")
    }

    /// Folds one plan's estimates in: establishes the rollup order and
    /// sums `est_rows` across shard plans. Pass-through staging steps
    /// are estimated at the plan's input rows, the aggregate kernels at
    /// the planner's cardinality estimate, and step-intrinsic estimates
    /// come from [`PlanStep::estimated_rows`].
    pub(crate) fn estimate_plan(&mut self, plan: &QueryPlan) {
        for step in plan.steps() {
            let est = match step {
                PlanStep::FuseKeys { .. } | PlanStep::VectorFilter { .. } => {
                    Some(plan.rows() as u64)
                }
                PlanStep::Aggregate(_) | PlanStep::MinMaxKernel => {
                    Some(plan.cardinality_estimate())
                }
                other => other.estimated_rows(),
            };
            let r = self.rollup_mut(step.to_string());
            if let Some(est) = est {
                r.est_rows = Some(r.est_rows.unwrap_or(0).saturating_add(est));
            }
        }
    }

    /// Folds one execution's observed step actuals in.
    pub(crate) fn record_steps(&mut self, steps: &[StepTrace]) {
        for s in steps {
            let r = self.rollup_mut(s.step.to_string());
            r.rows_in += s.rows_in;
            r.rows_out += s.rows_out;
            r.cycles += s.cycles;
            r.morsels += 1;
        }
    }

    /// Folds one session's close in: the groups it read back leave the
    /// kernel `step` its tables belong to, and the cycles of opening and
    /// closing them are billed there — beside the ranges
    /// that updated them, which `morsels` goes on counting alone.
    pub(crate) fn record_close(&mut self, step: &PlanStep, groups: u64, cycles: u64) {
        let r = self.rollup_mut(step.to_string());
        r.rows_out += groups;
        r.cycles += cycles;
    }

    /// Folds a host-side coordinator step (merge/finalise, join
    /// build/probe) in: no simulated cycles, observed rows only.
    pub(crate) fn record_host_step(
        &mut self,
        step: String,
        est_rows: Option<u64>,
        rows_in: u64,
        rows_out: u64,
    ) {
        let r = self.rollup_mut(step);
        if let Some(est) = est_rows {
            r.est_rows = Some(r.est_rows.unwrap_or(0).saturating_add(est));
        }
        r.rows_in += rows_in;
        r.rows_out += rows_out;
        r.morsels += 1;
    }

    /// Like [`QueryTrace::record_host_step`], but when `before` names an
    /// existing rollup and `step` does not, the new rollup is inserted
    /// before it — keeping the rendered order aligned with execution
    /// order when a coordinator step runs between plan steps.
    pub(crate) fn record_host_step_before(
        &mut self,
        before: Option<&str>,
        step: String,
        est_rows: Option<u64>,
        rows_in: u64,
        rows_out: u64,
    ) {
        if !self.steps.iter().any(|r| r.step == step) {
            if let Some(pos) = before.and_then(|b| self.steps.iter().position(|r| r.step == b)) {
                self.steps.insert(
                    pos,
                    StepRollup {
                        step: step.clone(),
                        est_rows: None,
                        rows_in: 0,
                        rows_out: 0,
                        cycles: 0,
                        morsels: 0,
                    },
                );
            }
        }
        self.record_host_step(step, est_rows, rows_in, rows_out);
    }

    /// Renders the trace the way [`QueryPlan::explain`] renders a plan,
    /// with each numbered step annotated `est≈…` vs `rows=in→out` and
    /// its simulated cycle cost.
    ///
    /// Everything rendered except the `*_ns` wall-clock diagnostics is
    /// deterministic for a given table and configuration: cycles are
    /// simulated time and worker loads come from the virtual schedule.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{}", self.sql);
        let _ = write!(
            out,
            "\n  rows={} cycles={} morsels={} steals={} queue_wait_ns={}",
            self.rows,
            self.cycles,
            self.morsels.len(),
            self.steals,
            self.queue_wait_ns
        );
        if self.morsels_dispatched > 0 || self.morsels_pruned > 0 {
            let _ = write!(
                out,
                "\n  morsels: dispatched={} pruned={} rows_pruned={}",
                self.morsels_dispatched, self.morsels_pruned, self.rows_pruned
            );
        }
        if self.dict_entries > 0 || self.dict_hits > 0 {
            let _ = write!(
                out,
                "\n  dictionary: entries={} hits={}",
                self.dict_entries, self.dict_hits
            );
        }
        if let Some(ns) = self.freeze_ns {
            let _ = write!(out, "\n  freeze_barrier_ns={ns}");
        }
        for (i, r) in self.steps.iter().enumerate() {
            let _ = write!(out, "\n  {}. {}", i + 1, r.step);
            match r.est_rows {
                Some(est) => {
                    let _ = write!(out, " est≈{est}");
                }
                None => out.push_str(" est≈?"),
            }
            let _ = write!(
                out,
                " rows={}→{} cycles={} morsels={}",
                r.rows_in, r.rows_out, r.cycles, r.morsels
            );
        }
        if !self.workers.is_empty() {
            out.push_str("\n  workers:");
            for w in &self.workers {
                let _ = write!(
                    out,
                    " {}:cycles={} morsels={} steals={}",
                    w.worker, w.cycles, w.morsels, w.steals
                );
            }
        }
        out
    }
}

/// What `EXPLAIN ANALYZE` produced: the query's ordinary output —
/// bit-identical to running the statement untraced — plus the trace
/// gathered while producing it.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// The executed query's rows and report, exactly as the untraced
    /// statement would have returned them.
    pub output: QueryOutput,
    /// The execution trace.
    pub trace: QueryTrace,
}

impl AnalyzedQuery {
    /// The rendered `EXPLAIN ANALYZE` text (see [`QueryTrace::explain`]).
    pub fn explain(&self) -> String {
        self.trace.explain()
    }
}
