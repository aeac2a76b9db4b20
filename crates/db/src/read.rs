//! The read driver: the one way a `SELECT` executes.
//!
//! Every read — ad hoc or prepared, live or at a snapshot, traced or
//! not, one session or sharded, one table or a join's derived table —
//! is *plan → row ranges → one update of the machine's open aggregate
//! per range → one close per machine → one merge → one host tail →
//! rows + report* ([`drive`]). What differs between entry points is
//! data handed to the driver, not another copy of it: the [`Schedule`]
//! says where the ranges run, and the token and trace ride on the
//! [`ReadRequest`].
//!
//! One cycle contract follows, on every path: `report.cycles` is the
//! simulated work on the staged columns (fuse, filter, cardinality
//! scan, aggregate — the aggregate's open and close included, once per
//! machine the query touched); merging the closed partials and HAVING /
//! ORDER BY / LIMIT over the (at most cardinality-row) output table are
//! host steps that cost no simulated cycles. See the "Read path"
//! section of ARCHITECTURE.md for the diagram and the measurements
//! behind the schedules.

use crate::cancel::CancelToken;
use crate::database::SqlError;
use crate::engine::{ExecutionReport, Row};
use crate::executor::{virtual_schedule, Executor, Morsel, DEFAULT_MORSEL_ROWS};
use crate::metrics::MetricsRegistry;
use crate::plan::{PlanError, PlanStep, QueryPlan};
use crate::query::{AggFn, Having, OrderBy, OrderKey};
use crate::session::{assemble_rows, Session};
use crate::shard::ShardedOutput;
use crate::trace::{MorselTrace, QueryTrace, WorkerRollup};
use std::sync::Arc;
use vagg_core::{AggResult, PartialAggregate};

/// Where a read's row ranges run, and so how large they are: a range is
/// only as small as its purpose needs (the measurements behind that are
/// the sizing table in ARCHITECTURE.md, "Read path").
pub(crate) enum Schedule<'a> {
    /// In order on one session: one range per plan, or — when the
    /// request carries a [`CancelToken`] — [`DEFAULT_MORSEL_ROWS`]
    /// ranges with the token checked before each.
    Inline(&'a mut Session),
    /// As stealable morsels on the worker pool, the token checked at
    /// every morsel pop.
    Pool(&'a Executor),
}

impl Schedule<'_> {
    /// [`drive`] on this schedule, an inline session's aggregate opens /
    /// closes then folded into `metrics` (the read's lead
    /// registry) — cancelled or not: an abandoned aggregate was opened
    /// too. The pool's sessions count theirs in the pool's counters.
    pub(crate) fn drive(
        self,
        request: ReadRequest<'_>,
        metrics: &MetricsRegistry,
    ) -> Result<ShardedOutput, SqlError> {
        let Schedule::Inline(session) = self else {
            return drive(request, self);
        };
        let out = drive(request, Schedule::Inline(&mut *session));
        metrics.record_aggregate(session.take_agg_counts());
        out
    }
}

/// One read, however it was asked for.
pub(crate) struct ReadRequest<'a> {
    /// One plan per shard, all of the same query (its tail runs once,
    /// on the host); `None` for a partition with no rows.
    pub(crate) plans: Vec<Option<QueryPlan>>,
    /// Host steps that ran before the plans — a join's build and probe
    /// — reported in front of theirs.
    pub(crate) prefix: &'a [PlanStep],
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) trace: Option<&'a mut QueryTrace>,
}

/// Surfaces a tripped [`CancelToken`] as the typed
/// [`SqlError::Cancelled`].
pub(crate) fn check_cancel(cancel: Option<&CancelToken>) -> Result<(), SqlError> {
    match cancel.and_then(CancelToken::cause) {
        Some(cause) => Err(SqlError::Cancelled(cause)),
        None => Ok(()),
    }
}

/// Cuts `0..rows` into consecutive ranges of at most `range_rows` — how
/// every schedule, of an aggregation and of a join's build and probe,
/// turns rows into units of work.
pub(crate) fn ranges(rows: usize, range_rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows)
        .step_by(range_rows)
        .map(move |lo| (lo, lo.saturating_add(range_rows).min(rows)))
}

/// Runs one read to completion. With no plan at all (a join that
/// matched nothing) the answer is zero rows at zero cycles.
///
/// # Errors
///
/// [`SqlError::Cancelled`] when the request's token trips before the
/// last range ran (partial work is discarded), and
/// [`PlanError::CompositeKeyOverflow`] when the shards' composite key
/// domains only overflow the 32-bit key space *together*.
pub(crate) fn drive(
    request: ReadRequest<'_>,
    schedule: Schedule<'_>,
) -> Result<ShardedOutput, SqlError> {
    let ReadRequest {
        plans,
        prefix,
        cancel,
        mut trace,
    } = request;
    let plans: Vec<Option<Arc<QueryPlan>>> = plans.into_iter().map(|p| p.map(Arc::new)).collect();

    // Composite grouping fuses with *forced* key domains: every plan
    // carries its partition's exact per-column domains, and their
    // elementwise maximum is the domain over the whole input — so every
    // range of every shard keys its partial in one fused space and the
    // partials merge directly. Each plan only vetted its own product;
    // the global one is vetted here.
    let mut domains: Vec<u64> = Vec::new();
    for plan in plans.iter().flatten() {
        if domains.is_empty() {
            domains = plan.key_domains().to_vec();
        }
        for (d, &x) in domains.iter_mut().zip(plan.key_domains()) {
            *d = (*d).max(x);
        }
    }
    let total: u128 = domains.iter().map(|&d| d as u128).product();
    if total > u32::MAX as u128 + 1 {
        return Err(SqlError::Plan(PlanError::CompositeKeyOverflow {
            domain: total.min(u64::MAX as u128) as u64,
        }));
    }
    let domains: Arc<[u64]> = domains.into();

    if let Some(t) = trace.as_deref_mut() {
        // Establish the rollup order and sum each step's estimate
        // across the shard plans (shards may pick different
        // algorithms; their steps roll up separately by rendering).
        for plan in plans.iter().flatten() {
            t.estimate_plan(plan);
        }
    }

    // The key space every session opens the query's tables with: wide
    // enough for every shard plan, so a worker's tables serve whichever
    // shards' morsels it runs.
    let cells = plans
        .iter()
        .flatten()
        .map(|plan| plan.table_cells(&domains))
        .max()
        .unwrap_or(0);

    // Cut the ranges. One whose zone maps prove the WHERE predicate
    // matches nothing contributes exactly what a filter-emptied range
    // would — an empty partial — so it is dropped before it runs.
    let (range_rows, prune, pooled) = match &schedule {
        Schedule::Inline(_) => (
            cancel.map_or(usize::MAX, |_| DEFAULT_MORSEL_ROWS),
            true,
            false,
        ),
        Schedule::Pool(pool) => (pool.config().morsel_rows, pool.config().prune, true),
    };
    let mut morsels = Vec::new();
    let (mut morsels_pruned, mut rows_pruned) = (0u64, 0u64);
    for (shard, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        for (lo, hi) in ranges(plan.rows(), range_rows) {
            if prune && plan.prunes_range(lo, hi) {
                morsels_pruned += 1;
                rows_pruned += (hi - lo) as u64;
            } else {
                morsels.push(Morsel {
                    shard,
                    plan: Arc::clone(plan),
                    lo,
                    hi,
                    domains: Arc::clone(&domains),
                    cells,
                    traced: trace.is_some(),
                });
            }
        }
    }

    // Run them: every range is one update of the open aggregate of the
    // session it runs on, and every session that ran one closes once. A
    // tripped token means the outcome set is incomplete: the open
    // aggregates are abandoned, and the typed error surfaces instead of
    // a partial answer.
    let (outcomes, closed, workers, steal) = match schedule {
        Schedule::Inline(session) => {
            session.note_query();
            let mut outcomes = Vec::with_capacity(morsels.len());
            for morsel in &morsels {
                if let Some(Err(cause)) = cancel.map(CancelToken::admit_morsel) {
                    session.abandon();
                    return Err(SqlError::Cancelled(cause));
                }
                // One session is worker 0, every range at home on it.
                outcomes.push(morsel.run(session, 0, 0, false, 0));
            }
            (outcomes, Vec::from_iter(session.close()), 1, false)
        }
        Schedule::Pool(pool) => {
            let (outcomes, closed) = pool.execute(morsels, cancel);
            check_cancel(cancel)?;
            // Pruned ranges never reach the deques: the pool cannot
            // count them itself.
            pool.note_pruned(morsels_pruned, rows_pruned);
            (outcomes, closed, pool.worker_count(), pool.config().steal)
        }
    };
    // Worker accounting: the measured range costs are scheduled onto
    // the workers deterministically (host threads race wall time, which
    // says nothing about simulated cycles — see `virtual_schedule`),
    // each worker that runs a range paying for one aggregate of its
    // own; the busiest worker's total is the parallel makespan. One
    // inline session is one worker: its makespan is the sum of its
    // ranges and its close. What an aggregate costs is the mean over
    // the sessions that held one: a close reads back the groups its
    // session saw, so a thread that won more morsels pays a little more
    // and the other less — their mean moves less with how the host
    // threads split the morsels than their maximum does (measured on a
    // 32-morsel full scan: a 14 / 18 split moves the maximum by 15 of
    // 108 771 cycles, the mean by 5).
    let aggregate = closed
        .iter()
        .map(|c| c.cycles)
        .sum::<u64>()
        .div_ceil(closed.len().max(1) as u64);
    let sched = virtual_schedule(&outcomes, workers, steal, aggregate);

    if let Some(t) = trace.as_deref_mut() {
        t.morsels_pruned += morsels_pruned;
        t.rows_pruned += rows_pruned;
        // Completion order is racy; the trace keeps (shard, lo).
        let mut order: Vec<_> = outcomes.iter().collect();
        order.sort_by_key(|o| (o.shard, o.lo));
        for o in order {
            t.record_steps(&o.run.steps);
            if pooled {
                t.morsels_dispatched += 1;
                t.queue_wait_ns += o.queue_wait_ns;
                t.morsels.push(MorselTrace {
                    shard: o.shard,
                    lo: o.lo,
                    hi: o.hi,
                    home_worker: o.home,
                    worker: o.worker,
                    stolen: o.stolen,
                    queue_wait_ns: o.queue_wait_ns,
                    cycles: o.run.cycles,
                    steps: o.run.steps.clone(),
                });
            }
        }
        for c in &closed {
            if let Some(step) = &c.step {
                t.record_close(step, c.partial.len() as u64, c.cycles);
            }
        }
        if pooled {
            t.workers = (0..workers)
                .map(|w| WorkerRollup {
                    worker: w,
                    cycles: sched.loads[w],
                    morsels: sched.morsels[w],
                    steals: sched.stolen[w],
                })
                .collect();
            t.steals = sched.steals;
        }
    }

    // Per-shard reports: one shard's work summed over its ranges,
    // wherever they ran (an aggregate belongs to the machine that held
    // it, not to a shard: its open and close are in the makespan only).
    let mut ran: Vec<(&QueryPlan, ExecutionReport)> = Vec::new();
    for (s, plan) in plans.iter().enumerate() {
        let Some(plan) = plan else { continue };
        let mine = || outcomes.iter().filter(|o| o.shard == s);
        let aggregated = mine().any(|o| o.run.aggregated);
        let cycles: u64 = mine().map(|o| o.run.cycles).sum();
        let report = ExecutionReport {
            algorithm: aggregated.then_some(plan.algorithm()),
            rows_aggregated: mine().map(|o| o.run.rows_aggregated).sum(),
            cycles,
            cpt: cycles as f64 / plan.rows().max(1) as f64,
            steps: executed_steps(plan, aggregated, false),
        };
        ran.push((plan, report));
    }

    // One merge, one tail. Every plan of a request serves the same
    // query, so the first one names it (no plan at all: no rows).
    let rows = match plans.iter().flatten().next() {
        Some(plan) => {
            let partials = closed.into_iter().map(|c| c.partial);
            finish(plan, partials, &domains, trace.as_deref_mut(), pooled)
        }
        None => Vec::new(),
    };

    // The query report: `cycles` is the makespan, `cpt` divides it by
    // the *input* rows (the field's usual contract), and the algorithm
    // and steps come from the first shard that aggregated (shards may
    // adaptively choose different algorithms; see `shard_reports`).
    let lead = ran
        .iter()
        .find(|(_, r)| r.algorithm.is_some())
        .or(ran.first());
    let cycles = sched.loads.iter().copied().max().unwrap_or(0);
    let input_rows: usize = ran.iter().map(|(plan, _)| plan.rows()).sum();
    let mut steps = prefix.to_vec();
    if let Some((plan, report)) = lead {
        steps.extend(executed_steps(plan, report.algorithm.is_some(), true));
    }
    let report = ExecutionReport {
        algorithm: lead.and_then(|(_, r)| r.algorithm),
        rows_aggregated: ran.iter().map(|(_, r)| r.rows_aggregated).sum(),
        cycles,
        cpt: cycles as f64 / input_rows.max(1) as f64,
        steps,
    };
    if let Some(t) = trace {
        t.cycles = report.cycles;
        t.rows = rows.len() as u64;
    }
    Ok(ShardedOutput {
        rows,
        report,
        shard_reports: ran.into_iter().map(|(_, r)| r).collect(),
        worker_loads: sched.loads,
        steals: sched.steals,
        trace: None,
        pruned: (morsels_pruned, rows_pruned),
    })
}

// Folds the closed partials — one per session that ran a range of the
// query — into the output table and runs the query's
// non-distributive tail — HAVING, ORDER BY, LIMIT — over it, once, on
// the host: the table has at most cardinality rows and already lives
// host-side after the merge. `plan` names the query and the planned
// steps the trace records the tail's actuals under; they slot in after
// the distributive steps, mirroring when they ran.
fn finish(
    plan: &QueryPlan,
    partials: impl Iterator<Item = PartialAggregate>,
    domains: &[u64],
    mut trace: Option<&mut QueryTrace>,
    pooled: bool,
) -> Vec<Row> {
    let query = plan.query();
    let partials: Vec<PartialAggregate> = partials.collect();
    let partial_groups: u64 = partials.iter().map(|p| p.len() as u64).sum();
    let merged = PartialAggregate::merge_all(partials)
        .unwrap_or_else(|| PartialAggregate::empty(query.needs_minmax()));
    let (mut base, mut mm) = (merged.base, merged.minmax);

    let step = |pred: fn(&PlanStep) -> bool| {
        plan.steps()
            .iter()
            .find(|s| pred(s))
            .map(ToString::to_string)
    };
    let is_having = |s: &PlanStep| matches!(s, PlanStep::Having { .. });
    let is_order_by = |s: &PlanStep| matches!(s, PlanStep::OrderBy { .. });
    let is_limit = |s: &PlanStep| matches!(s, PlanStep::Limit(_));
    if let Some(t) = trace.as_deref_mut().filter(|_| pooled) {
        let tail = step(|s| {
            matches!(
                s,
                PlanStep::Having { .. } | PlanStep::OrderBy { .. } | PlanStep::Limit(_)
            )
        });
        t.record_host_step_before(
            tail.as_deref(),
            "MergePartials".to_string(),
            None,
            partial_groups,
            base.len() as u64,
        );
    }
    if let Some(h) = &query.having {
        let before = base.len() as u64;
        host_having(h, &mut base, &mut mm);
        if let (Some(t), Some(step)) = (trace.as_deref_mut(), step(is_having)) {
            t.record_host_step(step, None, before, base.len() as u64);
        }
    }
    if let Some(ob) = &query.order_by {
        let before = base.len() as u64;
        host_order_by(ob, &mut base, &mut mm);
        // The sort permutes without dropping rows; LIMIT truncates
        // afterwards.
        if let (Some(t), Some(step)) = (trace.as_deref_mut(), step(is_order_by)) {
            t.record_host_step(step, None, before, before);
        }
        if let (Some(t), Some(step)) = (trace, step(is_limit)) {
            t.record_host_step(step, None, before, base.len() as u64);
        }
    }
    let rest_domains: Vec<u32> = domains.iter().skip(1).map(|&d| d as u32).collect();
    assemble_rows(
        query,
        &base,
        mm.as_ref().map(|(a, b)| (&a[..], &b[..])),
        &rest_domains,
    )
}

// The steps of `plan` that executed: everything (with or without the
// host tail) when some range aggregated, else the pre-filter steps and
// the skip marker — the WHERE clause (or its zone maps) removed every
// row, so no algorithm ran.
fn executed_steps(plan: &QueryPlan, aggregated: bool, with_tail: bool) -> Vec<PlanStep> {
    let steps = plan.steps();
    let kernel = |s: &PlanStep| matches!(s, PlanStep::Aggregate(_) | PlanStep::MinMaxKernel);
    if !aggregated {
        let mut out: Vec<PlanStep> = steps
            .iter()
            .take_while(|s| !matches!(s, PlanStep::CardinalityScan { .. }))
            .cloned()
            .collect();
        out.push(PlanStep::AggregateSkipped);
        out
    } else if with_tail {
        steps.to_vec()
    } else {
        let end = steps.iter().position(kernel).map_or(steps.len(), |i| i + 1);
        steps[..end].to_vec()
    }
}

// The integral column a HAVING / ORDER BY key refers to. AVG is rejected
// at plan time (`PlanError::UnsupportedAvgPredicate`), so it cannot
// reach execution.
fn agg_column<'a>(
    agg: AggFn,
    base: &'a AggResult,
    mm: &'a Option<(Vec<u32>, Vec<u32>)>,
) -> &'a [u32] {
    match agg {
        AggFn::Count => &base.counts,
        AggFn::Sum => &base.sums,
        AggFn::Min => &mm.as_ref().expect("minmax kernel ran").0,
        AggFn::Max => &mm.as_ref().expect("minmax kernel ran").1,
        AggFn::Avg => unreachable!("AVG predicates are rejected at plan time"),
    }
}

// HAVING over the merged output table, on the host: the table has at
// most cardinality rows and already lives host-side after the merge.
fn host_having(h: &Having, base: &mut AggResult, mm: &mut Option<(Vec<u32>, Vec<u32>)>) {
    let keep: Vec<bool> = agg_column(h.agg, base, mm)
        .iter()
        .map(|&x| h.pred.matches(x))
        .collect();
    let filter = |col: &mut Vec<u32>| {
        let mut it = keep.iter();
        col.retain(|_| *it.next().expect("keep mask covers every row"));
    };
    filter(&mut base.groups);
    filter(&mut base.counts);
    filter(&mut base.sums);
    if let Some((mins, maxs)) = mm {
        filter(mins);
        filter(maxs);
    }
}

// ORDER BY + LIMIT over the merged output table, on the host: a stable
// sort on the key (complement for DESC, so ties keep group order either
// way), then truncate.
fn host_order_by(ob: &OrderBy, base: &mut AggResult, mm: &mut Option<(Vec<u32>, Vec<u32>)>) {
    let n = base.len();
    let keys: Vec<u32> = match ob.key {
        OrderKey::Group => base.groups.clone(),
        OrderKey::Agg(a) => agg_column(a, base, mm).to_vec(),
    };
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| if ob.desc { u32::MAX - keys[i] } else { keys[i] });
    let keep = ob.limit.unwrap_or(n).min(n);
    let permute = |col: &mut Vec<u32>| {
        let reordered: Vec<u32> = idx.iter().take(keep).map(|&i| col[i]).collect();
        *col = reordered;
    };
    permute(&mut base.groups);
    permute(&mut base.counts);
    permute(&mut base.sums);
    if let Some((mins, maxs)) = mm {
        permute(mins);
        permute(maxs);
    }
}
