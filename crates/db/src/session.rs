//! Reusable execution sessions — the execute half of the plan/execute
//! split.
//!
//! A [`Session`] owns one long-lived [`Machine`] and executes
//! [`QueryPlan`]s on it. Back-to-back queries amortise machine
//! construction and keep the simulated cache hierarchy warm, the way a
//! real column-store keeps one execution context per connection; each
//! [`Session::run`] reports the *cycle delta* it cost, so per-query
//! accounting stays exact across reuse.
//!
//! A session only ever runs *row ranges* of a plan
//! ([`Session::run_range`]): the simulated, mergeable slice of a query.
//! Cutting ranges, merging their partials and the host-side tail belong
//! to the one read driver every entry point shares (see the "Read path"
//! section of ARCHITECTURE.md); [`Session::run`] is that driver with one
//! range.

use crate::engine::{QueryOutput, Row};
use crate::filter::vector_filter;
use crate::plan::{PlanStep, QueryPlan, ScanMode};
use crate::query::{AggFn, AggregateQuery};
use crate::read::{self, ReadRequest, Schedule};
use crate::trace::StepTrace;
use vagg_core::input::vector_max_scan;
use vagg_core::{minmax_aggregate, PartialAggregate, StagedInput};
use vagg_sim::{Machine, SimConfig};

/// Per-range options of [`Session::run_range`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeOpts<'a> {
    /// Composite `GROUP BY` key domains to fuse with (primary first)
    /// instead of the plan's own. `None` uses the plan's exact
    /// plan-time domains; the sharded coordinator passes the
    /// elementwise maximum across its shard plans, so every range of
    /// every shard keys its partial in one fused space and the partials
    /// merge directly (fusion is positional:
    /// `key = ((g₀·d₁ + g₁)·d₂ + g₂)…` for any consistent dᵢ that bound
    /// every value). Ignored for single-column grouping.
    pub forced: Option<&'a [u64]>,
    /// Record a [`StepTrace`] per executed step. Recording only reads
    /// the cycle counter and host-side lengths — it issues no machine
    /// work — so a traced range is bit-identical to an untraced one.
    pub trace: bool,
}

/// What [`Session::run_range`] produced: the mergeable partial
/// aggregate of one row range's *distributive* slice (WHERE +
/// aggregation, no HAVING/ORDER BY/LIMIT) and what it cost. Partials of
/// disjoint ranges fold into the whole answer with
/// [`PartialAggregate::merge`].
#[derive(Debug, Clone)]
pub struct PartialRun {
    /// The mergeable COUNT/SUM (+ optional MIN/MAX) columns.
    pub partial: PartialAggregate,
    /// Rows of the range surviving the WHERE clause.
    pub rows_aggregated: usize,
    /// Simulated cycles the range cost (cycle-counter delta), so range
    /// costs add up to the whole-plan cost.
    pub cycles: u64,
    /// Whether an aggregation kernel ran; `false` when the range was
    /// empty or the WHERE clause removed every row.
    pub aggregated: bool,
    /// Per-step actuals in execution order, when
    /// [`RangeOpts::trace`] was set (their cycles sum to `cycles`;
    /// staging is billed to the filter when one runs, to the
    /// cardinality scan otherwise).
    pub steps: Vec<StepTrace>,
}

/// A long-lived query-execution context: one simulated machine serving
/// many plans.
///
/// ```
/// use vagg_db::{AggregateQuery, Engine, Session, Table};
///
/// let t = Table::new("r")
///     .with_column("g", vec![1, 2, 1])
///     .with_column("v", vec![10, 20, 30]);
/// let plan = Engine::new().plan(&t, &AggregateQuery::paper("g", "v"))?;
///
/// let mut session = Session::new();
/// let first = session.run(&plan);
/// let second = session.run(&plan); // same machine, warm caches
/// assert_eq!(first.rows, second.rows);
/// assert_eq!(session.queries_run(), 2);
/// # Ok::<(), vagg_db::PlanError>(())
/// ```
pub struct Session {
    machine: Machine,
    queries: usize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("queries", &self.queries)
            .field("total_cycles", &self.machine.cycles())
            .finish_non_exhaustive()
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

// The trace of one range in the making: `None` when tracing is off.
struct Tracer<'p> {
    plan: &'p QueryPlan,
    steps: Option<Vec<StepTrace>>,
}

impl Tracer<'_> {
    // Records the planned step matching `pred` (planned steps are
    // unique per kind, so the first match is the step).
    fn step(&mut self, pred: fn(&PlanStep) -> bool, rows_in: usize, rows_out: usize, cycles: u64) {
        let Some(steps) = &mut self.steps else { return };
        if let Some(step) = self.plan.steps.iter().find(|s| pred(s)) {
            steps.push(StepTrace {
                step: step.clone(),
                rows_in: rows_in as u64,
                rows_out: rows_out as u64,
                cycles,
            });
        }
    }

    // The run of a range no row of which reached an aggregation kernel.
    fn skipped(mut self, cycles: u64) -> PartialRun {
        if let Some(steps) = &mut self.steps {
            steps.push(StepTrace {
                step: PlanStep::AggregateSkipped,
                rows_in: 0,
                rows_out: 0,
                cycles: 0,
            });
        }
        PartialRun {
            partial: PartialAggregate::empty(self.plan.query.needs_minmax()),
            rows_aggregated: 0,
            cycles,
            aggregated: false,
            steps: self.steps.unwrap_or_default(),
        }
    }
}

impl Session {
    /// A session on the paper's machine configuration.
    pub fn new() -> Self {
        Self::with_config(SimConfig::paper())
    }

    /// A session on a custom machine configuration.
    pub fn with_config(cfg: SimConfig) -> Self {
        Self {
            machine: Machine::new(cfg),
            queries: 0,
        }
    }

    /// The underlying machine (cumulative across queries).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Queries executed on this session so far — one per
    /// [`Session::run`] (or per statement of the [`crate::Database`]
    /// that owns the session), however many ranges the query ran as.
    pub fn queries_run(&self) -> usize {
        self.queries
    }

    /// Counts one query; the read driver calls this once per query.
    pub(crate) fn note_query(&mut self) {
        self.queries += 1;
    }

    /// Total simulated cycles across every plan this session ran.
    pub fn total_cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Executes a plan as one range through the read driver, returning
    /// the rows and a report whose `cycles` are this query's delta
    /// (reuse does not double-charge). `cycles` cover the simulated
    /// work on the staged columns; the merge and the HAVING / ORDER BY /
    /// LIMIT tail over the output table are host steps (see the "Read
    /// path" section of ARCHITECTURE.md).
    ///
    /// Execution is infallible: every error condition is typed and
    /// rejected at plan time by [`crate::Engine::plan`].
    pub fn run(&mut self, plan: &QueryPlan) -> QueryOutput {
        let request = ReadRequest::new(vec![Some(plan.clone())]);
        read::drive(request, Schedule::Inline(self))
            .expect("no token to trip; the plan vetted its own key domains")
            .into()
    }

    /// Executes the *distributive* slice of a plan — fuse, WHERE,
    /// cardinality scan, aggregate — over the row range `lo..hi` of its
    /// staged columns, and returns the mergeable partial instead of
    /// assembled rows: `merge(run_range(0..k), run_range(k..n))` is the
    /// whole plan's partial for every split point `k`. This is the one
    /// way work reaches the machine; the read driver decides the ranges
    /// (one per plan, morsels under a [`crate::CancelToken`], stealable
    /// morsels on the [`crate::Executor`]).
    ///
    /// # Panics
    ///
    /// If `lo..hi` is not a sub-range of `0..plan.rows()`, or
    /// [`RangeOpts::forced`] does not match the plan's grouping column
    /// count.
    pub fn run_range(
        &mut self,
        plan: &QueryPlan,
        lo: usize,
        hi: usize,
        opts: RangeOpts<'_>,
    ) -> PartialRun {
        assert!(
            lo <= hi && hi <= plan.rows,
            "morsel {lo}..{hi} escapes the plan's {} rows",
            plan.rows
        );
        let start = self.machine.cycles();
        // Queries own no machine-resident state between runs (results are
        // read back to the host), so reclaim the simulated address space
        // up front: the bump allocator never frees, and without this a
        // long-lived session would grow host memory by the staged table
        // size on every query. Cycle and cache-model state persist.
        self.machine.space_mut().reset();
        let m = &mut self.machine;
        let mut trace = Tracer {
            plan,
            steps: opts.trace.then(Vec::new),
        };
        let n = hi - lo;
        if n == 0 {
            return trace.skipped(0);
        }

        // Composite GROUP BY: fuse the grouping columns into one key per
        // row on the machine; the fused column then flows through the
        // unchanged single-key pipeline.
        let g_fused: Option<Vec<u32>> = (!plan.rest.is_empty()).then(|| {
            let mut cols: Vec<&[u32]> = vec![&plan.group[lo..hi]];
            cols.extend(plan.rest.iter().map(|col| &col[lo..hi]));
            let fused = fuse_group_columns(m, &cols, opts.forced.unwrap_or(plan.key_domains()));
            trace.step(
                |s| matches!(s, PlanStep::FuseKeys { .. }),
                n,
                n,
                m.cycles() - start,
            );
            fused
        });
        let g: &[u32] = g_fused.as_deref().unwrap_or(&plan.group[lo..hi]);
        let v: &[u32] = &plan.value[lo..hi];

        // WHERE: vectorised selection into fresh compacted columns.
        let stage0 = m.cycles();
        let (input, rows_aggregated) = if let Some((_, pred)) = &plan.query.filter {
            let w: &[u32] = &plan
                .filter_col
                .as_deref()
                .expect("plan carries the WHERE column")[lo..hi];
            let ws = m.space_mut().alloc_slice_u32(w);
            let gs = m.space_mut().alloc_slice_u32(g);
            let vs = m.space_mut().alloc_slice_u32(v);
            let gd = m.space_mut().alloc(4 * n as u64, 64);
            let vd = m.space_mut().alloc(4 * n as u64, 64);
            let kept = vector_filter(m, ws, n, *pred, &[(gs, gd), (vs, vd)]);
            trace.step(
                |s| matches!(s, PlanStep::VectorFilter { .. }),
                n,
                kept,
                m.cycles() - stage0,
            );
            if kept == 0 {
                // Nothing survived: no aggregation algorithm runs at
                // all, and the partial is empty (of the right family).
                return trace.skipped(m.cycles() - start);
            }
            // Compaction preserves relative order, so a sorted column
            // stays sorted through the filter.
            let staged = StagedInput {
                g: gd,
                v: vd,
                aux_g: m.space_mut().alloc(4 * kept as u64, 64),
                aux_v: m.space_mut().alloc(4 * kept as u64, 64),
                n: kept,
                presorted: plan.presorted,
            };
            (staged, kept)
        } else {
            (StagedInput::stage_raw(m, g, v, plan.presorted), n)
        };
        // Staging is billed to the filter when one ran (nothing on the
        // machine separates them), to the cardinality scan otherwise.
        let scan0 = if plan.query.filter.is_some() {
            m.cycles()
        } else {
            stage0
        };

        // The charged planning scan (§III-A): the session replays the
        // metadata step the paper bills to the query. The algorithm
        // choice itself was fixed at plan time.
        match plan.scan_mode {
            ScanMode::Presorted => {
                let _ = vagg_core::input::presorted_max(m, &input);
            }
            ScanMode::Exact => {
                let _ = vector_max_scan(m, &input);
            }
            ScanMode::Sampled { stride } => {
                let _ = vagg_core::sampling::sampled_max_scan(m, &input, stride);
            }
        }
        let agg0 = m.cycles();
        trace.step(
            |s| matches!(s, PlanStep::CardinalityScan { .. }),
            rows_aggregated,
            rows_aggregated,
            agg0 - scan0,
        );

        let (base, mm) = if plan.query.needs_minmax() {
            let r = minmax_aggregate(m, &input);
            (r.base, Some((r.mins, r.maxs)))
        } else {
            let (result, _) = plan.algorithm.execute(m, &input);
            (result, None)
        };
        trace.step(
            |s| matches!(s, PlanStep::Aggregate(_) | PlanStep::MinMaxKernel),
            rows_aggregated,
            base.len(),
            m.cycles() - agg0,
        );

        PartialRun {
            partial: PartialAggregate::new(base, mm),
            rows_aggregated,
            cycles: m.cycles() - start,
            aggregated: true,
            steps: trace.steps.unwrap_or_default(),
        }
    }
}

// Fuses the grouping columns into one key per row on the machine:
// key = ((g₀·d₁ + g₁)·d₂ + g₂)… where dᵢ is column i's key domain
// (maxᵢ + 1). The domains are the planner's exact plan-time ones (or
// the cross-shard maxima a coordinator forces), so no range re-measures
// them and every range of a query fuses into one key space. Domain
// overflow was already rejected at plan time from the same statistics.
fn fuse_group_columns(m: &mut Machine, cols: &[&[u32]], domains: &[u64]) -> Vec<u32> {
    use vagg_isa::{BinOp, Vreg};
    const VK: Vreg = Vreg(12); // running fused keys
    const VN: Vreg = Vreg(13); // next column's keys

    let n = cols[0].len();
    debug_assert!(cols.iter().all(|c| c.len() == n), "table columns agree");
    assert_eq!(
        domains.len(),
        cols.len(),
        "one key domain per grouping column"
    );
    debug_assert!(
        domains.iter().map(|&d| d as u128).product::<u128>() <= u32::MAX as u128 + 1,
        "overflow rejected at plan time"
    );
    let staged: Vec<u64> = cols
        .iter()
        .map(|col| m.space_mut().alloc_slice_u32(col))
        .collect();

    // Fuse chunk by chunk: k = ((c₀·d₁) + c₁)·d₂ + c₂ …
    let fused = m.space_mut().alloc(4 * n as u64, 64);
    let mvl = m.mvl();
    for start in (0..n).step_by(mvl) {
        let vl = (n - start).min(mvl);
        m.set_vl(vl);
        let t = m.s_op(0);
        m.vload_unit(VK, staged[0] + 4 * start as u64, 4, t);
        for (i, &addr) in staged.iter().enumerate().skip(1) {
            m.vbinop_vs(BinOp::Mul, VK, VK, domains[i], None);
            m.vload_unit(VN, addr + 4 * start as u64, 4, t);
            m.vbinop_vv(BinOp::Add, VK, VK, VN, None);
        }
        m.vstore_unit(VK, fused + 4 * start as u64, 4, t);
    }
    m.space().read_slice_u32(fused, n)
}

// Splits a fused composite key back into its per-column parts
// (primary part first). `rest_domains` are d₁… in fusion order.
pub(crate) fn decompose_key(key: u32, rest_domains: &[u32]) -> Vec<u32> {
    let mut parts = vec![0u32; rest_domains.len() + 1];
    let mut k = key;
    for (i, &d) in rest_domains.iter().enumerate().rev() {
        parts[i + 1] = k % d;
        k /= d;
    }
    parts[0] = k;
    parts
}

pub(crate) fn assemble_rows(
    query: &AggregateQuery,
    base: &vagg_core::AggResult,
    minmax: Option<(&[u32], &[u32])>,
    rest_domains: &[u32],
) -> Vec<Row> {
    (0..base.len())
        .map(|i| {
            let values = query
                .aggregates
                .iter()
                .map(|agg| match agg {
                    AggFn::Count => base.counts[i] as f64,
                    AggFn::Sum => base.sums[i] as f64,
                    AggFn::Avg => base.sums[i] as f64 / base.counts[i] as f64,
                    AggFn::Min => minmax.expect("minmax kernel ran").0[i] as f64,
                    AggFn::Max => minmax.expect("minmax kernel ran").1[i] as f64,
                })
                .collect();
            Row {
                group: base.groups[i],
                group_parts: decompose_key(base.groups[i], rest_domains),
                values,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::table::Table;

    fn people() -> Table {
        Table::new("r")
            .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
            .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0])
    }

    #[test]
    fn session_reuses_one_machine_across_queries() {
        let t = people();
        let engine = Engine::new();
        let plan = engine.plan(&t, &AggregateQuery::paper("g", "v")).unwrap();

        let mut session = Session::new();
        assert_eq!(session.queries_run(), 0);
        let first = session.run(&plan);
        let after_first = session.total_cycles();
        let second = session.run(&plan);

        assert_eq!(session.queries_run(), 2);
        assert_eq!(first.rows, second.rows);
        // Per-query cycles are deltas on the shared machine: the session
        // total is exactly the sum of the reports.
        assert_eq!(after_first, first.report.cycles);
        assert_eq!(
            session.total_cycles(),
            first.report.cycles + second.report.cycles
        );
        // Both queries were charged real work on the shared machine
        // (cache state carries over, so the deltas need not be equal).
        assert!(second.report.cycles > 0);
    }

    #[test]
    fn session_reuse_does_not_grow_simulated_memory() {
        // The address space is reclaimed per query: a long-lived session
        // must not accumulate host pages run after run.
        let t = people();
        let plan = Engine::new()
            .plan(&t, &AggregateQuery::paper("g", "v"))
            .unwrap();
        let mut session = Session::new();
        session.run(&plan);
        let after_one = session.machine().space().resident_pages();
        for _ in 0..20 {
            session.run(&plan);
        }
        assert_eq!(session.machine().space().resident_pages(), after_one);
    }

    #[test]
    fn one_session_serves_different_plans() {
        let t = people();
        let engine = Engine::new();
        let p1 = engine.plan(&t, &AggregateQuery::paper("g", "v")).unwrap();
        let p2 = engine
            .plan(
                &t,
                &AggregateQuery::paper("g", "v")
                    .with_having(AggFn::Count, crate::filter::Predicate::GreaterThan(1)),
            )
            .unwrap();
        let mut session = Session::new();
        let full = session.run(&p1);
        let having = session.run(&p2);
        assert_eq!(full.rows.len(), 6);
        let groups: Vec<u32> = having.rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec![0, 3]);
    }

    // The whole plan as one range.
    fn one_range(session: &mut Session, plan: &QueryPlan) -> PartialRun {
        session.run_range(plan, 0, plan.rows(), RangeOpts::default())
    }

    #[test]
    fn run_partial_stops_before_the_non_distributive_tail() {
        let t = people();
        let q = AggregateQuery::paper("g", "v")
            .with_having(AggFn::Count, crate::filter::Predicate::GreaterThan(1))
            .with_limit(2);
        let plan = Engine::new().plan(&t, &q).unwrap();
        let mut session = Session::new();
        let pr = session.run_range(
            &plan,
            0,
            plan.rows(),
            RangeOpts {
                trace: true,
                ..RangeOpts::default()
            },
        );
        // Pre-HAVING: all six groups are present in the partial.
        assert_eq!(pr.partial.len(), 6);
        assert!(pr.aggregated);
        assert!(matches!(
            pr.steps.last().map(|s| &s.step),
            Some(PlanStep::Aggregate(_))
        ));
        assert!(!pr
            .steps
            .iter()
            .any(|s| matches!(s.step, PlanStep::Having { .. } | PlanStep::Limit(_))));
        assert!(pr.cycles > 0);
        assert_eq!(pr.steps.iter().map(|s| s.cycles).sum::<u64>(), pr.cycles);
        // A bare range is not a query; the read driver counts those.
        assert_eq!(session.queries_run(), 0);
        assert_eq!(session.run(&plan).rows.len(), 2);
        assert_eq!(session.queries_run(), 1);
    }

    #[test]
    fn partials_over_a_split_table_merge_to_the_whole_answer() {
        let g = [1u32, 3, 3, 0, 0, 5, 2, 4];
        let v = [0u32, 5, 2, 4, 1, 3, 3, 0];
        let engine = Engine::new();
        let q = AggregateQuery::paper("g", "v");

        let whole = Session::new().run(
            &engine
                .plan(
                    &Table::new("r")
                        .with_column("g", g.to_vec())
                        .with_column("v", v.to_vec()),
                    &q,
                )
                .unwrap(),
        );

        let half = |lo: usize, hi: usize| {
            let t = Table::new("r")
                .with_column("g", g[lo..hi].to_vec())
                .with_column("v", v[lo..hi].to_vec());
            one_range(&mut Session::new(), &engine.plan(&t, &q).unwrap()).partial
        };
        let merged = half(0, 4).merge(half(4, 8));
        assert_eq!(merged.len(), whole.rows.len());
        for (i, row) in whole.rows.iter().enumerate() {
            assert_eq!(merged.base.groups[i], row.group);
            assert_eq!(merged.base.counts[i] as f64, row.values[0]);
            assert_eq!(merged.base.sums[i] as f64, row.values[1]);
        }
    }

    #[test]
    fn range_partials_merge_to_the_whole_answer() {
        // Morsels of one plan ≡ the whole partial, at every split.
        let t = people();
        let q = AggregateQuery::paper("g", "v")
            .with_filter("v", crate::filter::Predicate::GreaterThan(0));
        let plan = Engine::new().plan(&t, &q).unwrap();
        let mut session = Session::new();
        let expect = one_range(&mut session, &plan);
        for split in 0..=plan.rows() {
            let left = session.run_range(&plan, 0, split, RangeOpts::default());
            let right = session.run_range(&plan, split, plan.rows(), RangeOpts::default());
            assert_eq!(
                left.partial.merge(right.partial),
                expect.partial,
                "split at {split}"
            );
        }
        // A range is charged its own work, on the shared machine.
        let before = session.total_cycles();
        let half = session.run_range(&plan, 0, 4, RangeOpts::default());
        assert!(half.cycles > 0);
        assert_eq!(session.total_cycles() - before, half.cycles);
    }

    #[test]
    #[should_panic(expected = "escapes the plan")]
    fn out_of_range_morsels_are_rejected() {
        let plan = Engine::new()
            .plan(&people(), &AggregateQuery::paper("g", "v"))
            .unwrap();
        let _ = Session::new().run_range(&plan, 4, 9, RangeOpts::default());
    }

    #[test]
    fn decompose_key_roundtrips() {
        let rest = [7u32, 13];
        for g0 in 0..4u32 {
            for g1 in 0..7 {
                for g2 in 0..13 {
                    let key = (g0 * 7 + g1) * 13 + g2;
                    assert_eq!(decompose_key(key, &rest), vec![g0, g1, g2]);
                }
            }
        }
        assert_eq!(decompose_key(42, &[]), vec![42]);
    }
}
