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
//! A session only ever runs *row ranges* of a plan: the simulated,
//! mergeable slice of a query. The aggregate those ranges feed outlives
//! each of them — the tables of the table-based kernels are opened once
//! at the bottom of the simulated address space, every range is staged
//! above them and updates them in place, and one close compacts and
//! reads them back when the query is done on this machine
//! (`Session::{update, close, abandon}`). Cutting ranges, merging the
//! closed partials and the host-side tail belong to the one read driver
//! every entry point shares (see the "Read path" section of
//! ARCHITECTURE.md); [`Session::run`] is that driver with one range.

use crate::engine::{QueryOutput, Row};
use crate::filter::vector_filter;
use crate::plan::{PlanStep, QueryPlan, ScanMode};
use crate::query::{AggFn, AggregateQuery};
use crate::read::{self, ReadRequest, Schedule};
use crate::trace::StepTrace;
use vagg_core::input::{presorted_max, vector_max_scan};
use vagg_core::{minmax, monotable, Algorithm, PartialAggregate, StagedInput};
use vagg_sim::{Machine, SimConfig};

/// Per-range options of [`Session::update`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RangeOpts<'a> {
    /// Composite `GROUP BY` key domains to fuse with (primary first)
    /// instead of the plan's own. `None` uses the plan's exact
    /// plan-time domains; the sharded coordinator passes the
    /// elementwise maximum across its shard plans, so every range of
    /// every shard keys its partial in one fused space and the partials
    /// merge directly (fusion is positional:
    /// `key = ((g₀·d₁ + g₁)·d₂ + g₂)…` for any consistent dᵢ that bound
    /// every value). Ignored for single-column grouping.
    pub(crate) forced: Option<&'a [u64]>,
    /// Record a [`StepTrace`] per executed step. Recording only reads
    /// the cycle counter and host-side lengths — it issues no machine
    /// work — so a traced range is bit-identical to an untraced one.
    pub(crate) trace: bool,
}

/// What one [`Session::update`] cost: a row range of the plan's
/// *distributive* slice (WHERE + aggregation, no HAVING/ORDER BY/LIMIT)
/// run into the session's open aggregate. The groups come out of the
/// session's one close; `cycles` are the range's own — stage, fuse,
/// filter, scan, the kernel's loop — with the open and the close
/// reported by the close, beside them.
#[derive(Debug, Clone)]
pub(crate) struct PartialRun {
    /// Rows of the range surviving the WHERE clause.
    pub(crate) rows_aggregated: usize,
    /// Simulated cycles the range cost (cycle-counter delta), so range
    /// costs and the close add up to the whole-plan cost.
    pub(crate) cycles: u64,
    /// Whether an aggregation kernel ran; `false` when the range was
    /// empty or the WHERE clause removed every row.
    pub(crate) aggregated: bool,
    /// Per-step actuals in execution order, when
    /// [`RangeOpts::trace`] was set (their cycles sum to `cycles`;
    /// staging is billed to the filter when one runs, to the
    /// cardinality scan otherwise).
    pub(crate) steps: Vec<StepTrace>,
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
    /// The aggregate of the query in flight on this machine: created by
    /// the query's first [`Session::update`], taken by its
    /// [`Session::close`] or [`Session::abandon`].
    agg: Option<OpenAggregate>,
    counts: AggCounts,
}

/// How often this session opened and closed aggregate tables since
/// whoever drives it last took the counts
/// ([`Session::take_agg_counts`]) to fold them into its metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AggCounts {
    /// Tables allocated and cleared.
    pub(crate) opens: u64,
    /// Tables compacted and read back at the end of a query.
    pub(crate) closes: u64,
}

// The live tables of the two table-based kernels, behind one interface.
#[derive(Debug, Clone, Copy)]
enum Tables {
    Mono(monotable::Tables),
    MinMax(minmax::Tables),
}

impl Tables {
    fn open(m: &mut Machine, minmax: bool, cells: usize) -> Self {
        // The size came from the plan, not from a scan: nothing to wait on.
        if minmax {
            Tables::MinMax(minmax::open(m, cells, 0))
        } else {
            Tables::Mono(monotable::open(m, cells, 0))
        }
    }

    fn cells(&self) -> usize {
        match self {
            Tables::Mono(t) => t.cells(),
            Tables::MinMax(t) => t.cells(),
        }
    }

    fn update(&self, m: &mut Machine, input: &StagedInput) {
        match self {
            Tables::Mono(t) => monotable::update(m, t, input.g, input.v, input.n),
            Tables::MinMax(t) => minmax::update(m, t, input.g, input.v, input.n),
        }
    }

    fn close(&self, m: &mut Machine) -> PartialAggregate {
        match self {
            Tables::Mono(t) => {
                let (out, rows) = monotable::close(m, t);
                PartialAggregate::new(out.read(m, rows), None)
            }
            Tables::MinMax(t) => {
                let r = minmax::close(m, t);
                PartialAggregate::new(r.base, Some((r.mins, r.maxs)))
            }
        }
    }

    // The plan step the tables' open and close are billed to.
    fn step(&self) -> PlanStep {
        match self {
            Tables::Mono(_) => PlanStep::Aggregate(Algorithm::Monotable),
            Tables::MinMax(_) => PlanStep::MinMaxKernel,
        }
    }
}

// Aggregate state that outlives a range. Invariant: everything below
// `mark` belongs to the query (the live tables), everything at or above
// it to the range in flight — so releasing to `mark` before each range
// hands every range the same staging addresses and never touches a
// table (`tests/read_path.rs` is the oracle: carried rows ≡ whole-plan
// rows).
#[derive(Debug)]
struct OpenAggregate {
    // Live on the machine from the first range of a table-based plan on.
    tables: Option<Tables>,
    // Rows the live tables took: none means nothing to compact.
    table_rows: usize,
    mark: u64,
    // Host side: what the kernels that keep no tables (sorted reduce,
    // polytable, PSM, scalar) produced per range.
    pending: Option<PartialAggregate>,
    // Cycles of the open; the close reports them with its own.
    cycles: u64,
    minmax: bool,
}

impl OpenAggregate {
    // Compacts and reads back the live tables (if they took any row) into
    // `pending`.
    fn close_tables(&mut self, m: &mut Machine) -> Option<PlanStep> {
        let tables = self.tables.take()?;
        if self.table_rows > 0 {
            let t0 = m.cycles();
            self.merge(tables.close(m));
            self.cycles += m.cycles() - t0;
        }
        Some(tables.step())
    }

    fn merge(&mut self, partial: PartialAggregate) {
        self.pending = Some(match self.pending.take() {
            Some(pending) => pending.merge(partial),
            None => partial,
        });
    }
}

/// What [`Session::close`] produced: the query's groups on this machine
/// and what opening and closing its tables cost.
#[derive(Debug)]
pub(crate) struct ClosedAggregate {
    pub(crate) partial: PartialAggregate,
    /// Simulated cycles of the open and the close — the part
    /// of the query no range's [`PartialRun::cycles`] holds.
    pub(crate) cycles: u64,
    /// The kernel step those cycles are billed to, when tables were
    /// opened at all.
    pub(crate) step: Option<PlanStep>,
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
            agg: None,
            counts: AggCounts::default(),
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
        let request = ReadRequest {
            plans: vec![Some(plan.clone())],
            prefix: &[],
            cancel: None,
            trace: None,
        };
        read::drive(request, Schedule::Inline(self))
            .expect("no token to trip; the plan vetted its own key domains")
            .into()
    }

    /// Runs the range `lo..hi` of `plan` into the session's open
    /// aggregate, opening it first when this is the query's first range
    /// here. `cells` is the query's key space (see
    /// [`QueryPlan::table_cells`]) — what the tables of a table-based
    /// plan are opened with, once, before anything is staged, so that
    /// they sit at the bottom of the address space and every range is
    /// staged at the same addresses above them. The range's exact
    /// §III-A scan is the guard: `cells` bounds every key of every
    /// range, so a range whose maximum reaches it is a planner bug, and
    /// the assertion stops it before anything is written past a table.
    /// A plan whose algorithm keeps no tables runs its whole kernel on
    /// the range and folds the partial in host-side.
    ///
    /// The returned run carries no groups (they come out of
    /// [`Session::close`]), and its `cycles` and `steps` hold the
    /// range's own work only.
    pub(crate) fn update(
        &mut self,
        plan: &QueryPlan,
        lo: usize,
        hi: usize,
        opts: RangeOpts<'_>,
        cells: usize,
    ) -> PartialRun {
        assert!(
            lo <= hi && hi <= plan.rows,
            "morsel {lo}..{hi} escapes the plan's {} rows",
            plan.rows
        );
        let mut trace = Tracer {
            plan,
            steps: opts.trace.then(Vec::new),
        };
        let n = hi - lo;
        if n == 0 {
            return trace.skipped(0);
        }
        let minmax = plan.query.needs_minmax();
        let carried = minmax || plan.algorithm == Algorithm::Monotable;
        let Session {
            machine: m,
            agg,
            counts,
            ..
        } = self;
        // Queries own no machine-resident state between runs (results
        // are read back to the host), so the first range of a query
        // reclaims the whole simulated address space — the bump
        // allocator never frees, and without this a long-lived session
        // would grow host memory by the staged table size on every
        // query — and every later one what the range before it staged.
        // Cycle and cache-model state persist.
        let agg = agg.get_or_insert_with(|| {
            m.space_mut().reset();
            OpenAggregate {
                tables: None,
                table_rows: 0,
                mark: m.space().mark(),
                pending: None,
                cycles: 0,
                minmax,
            }
        });
        m.space_mut().release_to(agg.mark);
        if carried && agg.tables.is_none() {
            let t0 = m.cycles();
            agg.tables = Some(Tables::open(m, minmax, cells.max(1)));
            agg.mark = m.space().mark();
            agg.cycles += m.cycles() - t0;
            counts.opens += 1;
        }
        let start = m.cycles();

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
                // all, and the range adds nothing to the aggregate.
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

        // The charged planning scan (§III-A), once: the session replays
        // the metadata step the paper bills to the query, and a
        // table-based kernel takes its exact maximum as the guard of the
        // open tables instead of scanning again. A kernel that keeps no
        // tables is run whole and scans for itself, so nothing scans
        // here. The algorithm choice itself was fixed at plan time.
        let maxg = match plan.scan_mode {
            _ if !carried => None,
            ScanMode::Presorted => Some(presorted_max(m, &input).0),
            ScanMode::Exact => Some(vector_max_scan(m, &input).0),
        };
        let agg0 = m.cycles();
        trace.step(
            |s| matches!(s, PlanStep::CardinalityScan { .. }),
            rows_aggregated,
            rows_aggregated,
            agg0 - scan0,
        );

        let groups = if let Some(maxg) = maxg {
            let tables = agg.tables.expect("opened before the range was staged");
            assert!(
                (maxg as usize) < tables.cells(),
                "key {maxg} outgrows the {} cells of the plan's key space",
                tables.cells()
            );
            tables.update(m, &input);
            agg.table_rows += rows_aggregated;
            0
        } else {
            let (result, _) = plan.algorithm.execute(m, &input);
            let groups = result.len();
            agg.merge(PartialAggregate::new(result, None));
            groups
        };
        trace.step(
            |s| matches!(s, PlanStep::Aggregate(_) | PlanStep::MinMaxKernel),
            rows_aggregated,
            groups,
            m.cycles() - agg0,
        );

        PartialRun {
            rows_aggregated,
            cycles: m.cycles() - start,
            aggregated: true,
            steps: trace.steps.unwrap_or_default(),
        }
    }

    /// Ends the query on this machine: compacts and reads back the open
    /// tables (once — unless no range put a row in them), folds in what
    /// table-less kernels left host-side, and reports the
    /// cycles no range was charged. `None` when no range of the query
    /// ran here.
    pub(crate) fn close(&mut self) -> Option<ClosedAggregate> {
        let mut agg = self.agg.take()?;
        let step = agg.close_tables(&mut self.machine);
        self.counts.closes += u64::from(step.is_some());
        Some(ClosedAggregate {
            partial: agg
                .pending
                .unwrap_or_else(|| PartialAggregate::empty(agg.minmax)),
            cycles: agg.cycles,
            step,
        })
    }

    /// Drops the query in flight without closing it — its token tripped
    /// or one of its ranges panicked: no compaction runs, the tables and
    /// whatever was staged are released, and the next query finds the
    /// session as a finished one leaves it.
    pub(crate) fn abandon(&mut self) {
        self.agg = None;
        self.machine.space_mut().reset();
    }

    /// The open / close counts since the last call, which this
    /// one resets.
    pub(crate) fn take_agg_counts(&mut self) -> AggCounts {
        std::mem::take(&mut self.counts)
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

    impl Session {
        /// Executes the *distributive* slice of a plan — fuse, WHERE,
        /// cardinality scan, aggregate — over the row range `lo..hi` of
        /// its staged columns, and returns the mergeable partial beside
        /// what the range and its close cost:
        /// `merge(run_range(0..k), run_range(k..n))` is the whole plan's
        /// partial for every split point `k`. It is one update of a
        /// freshly opened aggregate and its close — the same calls, in
        /// the same order, the read driver makes for a whole query
        /// (which opens once, updates per range and closes once).
        pub(crate) fn run_range(
            &mut self,
            plan: &QueryPlan,
            lo: usize,
            hi: usize,
            opts: RangeOpts<'_>,
        ) -> (PartialAggregate, PartialRun) {
            debug_assert!(self.agg.is_none(), "a query is in flight on this session");
            let cells = plan.table_cells(opts.forced.unwrap_or(plan.key_domains()));
            let mut run = self.update(plan, lo, hi, opts, cells);
            let Some(closed) = self.close() else {
                return (PartialAggregate::empty(plan.query.needs_minmax()), run);
            };
            run.cycles += closed.cycles;
            if let (true, Some(step)) = (opts.trace, closed.step) {
                let groups = closed.partial.len() as u64;
                match run.steps.iter_mut().find(|s| s.step == step) {
                    Some(s) => {
                        s.cycles += closed.cycles;
                        s.rows_out = groups;
                    }
                    // The WHERE clause emptied the range after its
                    // tables were cleared.
                    None => run.steps.push(StepTrace {
                        step,
                        rows_in: 0,
                        rows_out: groups,
                        cycles: closed.cycles,
                    }),
                }
            }
            (closed.partial, run)
        }
    }

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
    fn a_carried_query_holds_its_tables_and_one_range_however_many_it_runs() {
        // 1 000 identical 64-row ranges (periodic columns without a zero
        // word, so every staged page materialises): each range releases
        // what the one before it staged, and the simulated memory of the
        // query stays what its first range made it — tables + one
        // range's staging, not 1 000 ×.
        const RANGES: usize = 1_000;
        let t = Table::new("r")
            .with_column("g", (0..64 * RANGES).map(|i| (1 + i % 7) as u32).collect())
            .with_column("v", (0..64 * RANGES).map(|i| (1 + i % 10) as u32).collect());
        let plan = Engine::new()
            .plan(&t, &AggregateQuery::paper("g", "v"))
            .unwrap();
        let cells = plan.table_cells(plan.key_domains());
        let mut session = Session::new();
        let resident = |s: &Session| s.machine().space().resident_pages();

        let mut first = 0;
        for r in 0..RANGES {
            session.update(&plan, 64 * r, 64 * (r + 1), RangeOpts::default(), cells);
            if r == 0 {
                first = resident(&session);
                assert!(first > 0);
            }
            assert_eq!(resident(&session), first, "after range {r}");
        }
        let closed = session.close().expect("a query was in flight");
        let counts = session.take_agg_counts();
        assert_eq!((counts.opens, counts.closes), (1, 1));
        assert_eq!(closed.partial, one_range(&mut session, &plan));
        assert!(session.close().is_none(), "closed once");

        // Abandoned instead: nothing stays resident, and nothing closed.
        session.update(&plan, 0, 64, RangeOpts::default(), cells);
        session.abandon();
        assert_eq!(resident(&session), 0);
        let counts = session.take_agg_counts();
        assert_eq!((counts.opens, counts.closes), (2, 1), "`one_range` closed");
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

    // The whole plan's partial, as one range.
    fn one_range(session: &mut Session, plan: &QueryPlan) -> PartialAggregate {
        session
            .run_range(plan, 0, plan.rows(), RangeOpts::default())
            .0
    }

    #[test]
    fn run_partial_stops_before_the_non_distributive_tail() {
        let t = people();
        let q = AggregateQuery::paper("g", "v")
            .with_having(AggFn::Count, crate::filter::Predicate::GreaterThan(1))
            .with_limit(2);
        let plan = Engine::new().plan(&t, &q).unwrap();
        let mut session = Session::new();
        let (partial, pr) = session.run_range(
            &plan,
            0,
            plan.rows(),
            RangeOpts {
                trace: true,
                ..RangeOpts::default()
            },
        );
        // Pre-HAVING: all six groups are present in the partial.
        assert_eq!(partial.len(), 6);
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
            one_range(&mut Session::new(), &engine.plan(&t, &q).unwrap())
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
            let (left, _) = session.run_range(&plan, 0, split, RangeOpts::default());
            let (right, _) = session.run_range(&plan, split, plan.rows(), RangeOpts::default());
            assert_eq!(left.merge(right), expect, "split at {split}");
        }
        // A range is charged its own work, on the shared machine.
        let before = session.total_cycles();
        let (_, half) = session.run_range(&plan, 0, 4, RangeOpts::default());
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
