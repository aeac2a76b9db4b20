//! Typed physical plans — the planning half of the plan/execute split.
//!
//! [`crate::Engine::plan`] turns an [`AggregateQuery`] plus a
//! [`crate::Table`]'s
//! DBMS metadata (sortedness, maximum) into a
//! [`QueryPlan`]: an ordered list of [`PlanStep`]s with the §V-D adaptive
//! algorithm decision resolved up front. The plan is a self-contained,
//! inspectable artifact — render it with [`QueryPlan::explain`], or hand
//! it to a [`crate::Session`] to execute on the simulated vector machine.
//!
//! Planning never touches the machine: cardinality statistics come from
//! host-side scans of the column data the planner would read from DBMS
//! metadata (charged scans are replayed by the session at execution time,
//! exactly as the paper charges the metadata step to the query).

use crate::delta::ZoneRange;
use crate::filter::Predicate;
use crate::query::{AggFn, AggregateQuery, OrderKey};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use vagg_core::Algorithm;

/// Why a query could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The query names a column the table does not have.
    UnknownColumn(String),
    /// The table has no rows (nothing to stage on the machine).
    EmptyTable,
    /// The query requests no aggregate functions.
    NoAggregates,
    /// A composite GROUP BY whose fused key domain exceeds the 32-bit
    /// key space of the vector machine.
    CompositeKeyOverflow {
        /// The product of the grouping columns' key domains.
        domain: u64,
    },
    /// A `HAVING` or `ORDER BY` predicate over `AVG`, which is computed
    /// on readback and never materialised as a machine column.
    UnsupportedAvgPredicate {
        /// The offending clause (`"HAVING"` or `"ORDER BY"`).
        clause: &'static str,
    },
    /// A bare column reference in a join query names a column both
    /// joined tables have; qualify it (`table.column`).
    AmbiguousColumn(String),
    /// A prepared statement was executed with the wrong number of
    /// parameters.
    BindArity {
        /// Parameter slots the statement declares (`?` placeholders).
        expected: usize,
        /// Parameters actually supplied.
        got: usize,
    },
    /// A bound parameter does not fit its slot's type: comparison
    /// constants are 32-bit column values.
    BindType {
        /// Zero-based position of the offending parameter.
        index: usize,
        /// The value that was supplied.
        value: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownColumn(name) => {
                write!(f, "unknown column {name:?}")
            }
            PlanError::EmptyTable => write!(f, "the table has no rows"),
            PlanError::NoAggregates => write!(f, "no aggregates requested"),
            PlanError::CompositeKeyOverflow { domain } => write!(
                f,
                "composite key domain {domain} exceeds the 32-bit key space; \
                 drop a grouping column or pre-filter"
            ),
            PlanError::UnsupportedAvgPredicate { clause } => write!(
                f,
                "{clause} on AVG is unsupported: AVG is computed on \
                 readback, not materialised as a machine column"
            ),
            PlanError::AmbiguousColumn(name) => write!(
                f,
                "column {name:?} exists on both joined tables; qualify it \
                 as table.column"
            ),
            PlanError::BindArity { expected, got } => write!(
                f,
                "wrong parameter count: the statement has {expected} \
                 placeholder(s), {got} parameter(s) were bound"
            ),
            PlanError::BindType { index, value } => write!(
                f,
                "parameter {index} = {value} does not fit a 32-bit \
                 comparison constant"
            ),
        }
    }
}

impl Error for PlanError {}

/// How the cardinality estimate in a plan was (and will be) obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// O(1) last-element lookup, available on presorted input.
    Presorted,
    /// The exact vectorised max-key scan of the whole column.
    Exact,
}

impl ScanMode {
    pub(crate) fn of(presorted: bool) -> Self {
        if presorted {
            ScanMode::Presorted
        } else {
            ScanMode::Exact
        }
    }
}

impl fmt::Display for ScanMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanMode::Presorted => write!(f, "presorted"),
            ScanMode::Exact => write!(f, "exact"),
        }
    }
}

/// One step of a physical plan (or of an execution report).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanStep {
    /// Fuse the grouping columns into one key per row on the machine.
    FuseKeys {
        /// Grouping column names, primary first.
        columns: Vec<String>,
    },
    /// Vectorised WHERE selection compacting every live column.
    VectorFilter {
        /// The filtered column.
        column: String,
        /// The comparison.
        pred: Predicate,
    },
    /// The planning-metadata scan establishing the cardinality estimate.
    CardinalityScan {
        /// How the scan reads the column.
        mode: ScanMode,
        /// The cardinality the planner acts on.
        estimate: u64,
    },
    /// Run the selected aggregation algorithm.
    Aggregate(
        /// The §V-D adaptive choice.
        Algorithm,
    ),
    /// Run the extended VGAmin/VGAmax kernel (queries with MIN/MAX).
    MinMaxKernel,
    /// Recorded at execution time when the WHERE clause removed every
    /// row, so no aggregation algorithm ran at all.
    AggregateSkipped,
    /// HAVING selection over the merged output table — a host step
    /// (see the "Read path" section of ARCHITECTURE.md).
    Having {
        /// The aggregate the predicate inspects.
        agg: AggFn,
        /// The query's value column (for rendering `SUM(v)` etc.).
        value: String,
        /// The comparison.
        pred: Predicate,
    },
    /// Stable sort of the merged output rows — a host step, like
    /// [`PlanStep::Having`].
    OrderBy {
        /// The sort key.
        key: OrderKey,
        /// The primary grouping column name (for rendering).
        group: String,
        /// The value column name (for rendering).
        value: String,
        /// Descending order.
        desc: bool,
    },
    /// Keep only the first `rows` output rows.
    Limit(
        /// Row budget.
        usize,
    ),
    /// Hash-join build phase: the chosen build side's rows are grouped
    /// by key tuple into one hash index (cooperatively, when run on the
    /// morsel executor).
    JoinBuild {
        /// The build-side table.
        table: String,
        /// The build side's join key columns, in ON order.
        keys: Vec<String>,
        /// Build-side input rows.
        rows: usize,
        /// The planner's KMV distinct estimate of the build key.
        distinct: u64,
    },
    /// Hash-join probe phase: probe-side ranges stream through the
    /// frozen index, emitting matched row pairs.
    JoinProbe {
        /// The probe-side table.
        table: String,
        /// The probe side's join key columns, in ON order.
        keys: Vec<String>,
        /// Probe-side input rows.
        rows: usize,
    },
}

impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStep::FuseKeys { columns } => {
                write!(f, "FuseKeys({})", columns.join("×"))
            }
            PlanStep::VectorFilter { column, pred } => {
                write!(f, "VectorFilter({column} {})", pred.sql())
            }
            PlanStep::CardinalityScan { mode, estimate } => {
                write!(f, "CardinalityScan[{mode}](cardinality≈{estimate})")
            }
            PlanStep::Aggregate(algorithm) => {
                write!(f, "Aggregate[{}]", algorithm.short_name())
            }
            PlanStep::MinMaxKernel => write!(f, "MinMaxKernel[VGAmin/VGAmax]"),
            PlanStep::AggregateSkipped => {
                write!(f, "AggregateSkipped(WHERE removed every row)")
            }
            PlanStep::Having { agg, value, pred } => {
                write!(f, "Having({} {})", agg.sql(value), pred.sql())
            }
            PlanStep::OrderBy {
                key,
                group,
                value,
                desc,
            } => {
                write!(
                    f,
                    "OrderBy({}{})",
                    match key {
                        OrderKey::Group => group.clone(),
                        OrderKey::Agg(a) => a.sql(value),
                    },
                    if *desc { " DESC" } else { "" }
                )
            }
            PlanStep::Limit(rows) => write!(f, "Limit({rows})"),
            PlanStep::JoinBuild {
                table,
                keys,
                rows,
                distinct,
            } => {
                write!(
                    f,
                    "JoinBuild({table}[{}] rows={rows} distinct≈{distinct})",
                    keys.join("×")
                )
            }
            PlanStep::JoinProbe { table, keys, rows } => {
                write!(f, "JoinProbe({table}[{}] rows={rows})", keys.join("×"))
            }
        }
    }
}

impl PlanStep {
    /// The planner's estimate of this step's output rows, where the
    /// step itself carries one: the `LIMIT` budget, the join build
    /// side's KMV distinct estimate, the join probe side's input rows.
    /// `None` for steps whose estimate lives on the plan (aggregate
    /// cardinality) or that the planner does not estimate at all
    /// (WHERE/HAVING selectivity). `EXPLAIN ANALYZE` renders these
    /// against the observed actuals (see [`crate::StepRollup`]).
    pub fn estimated_rows(&self) -> Option<u64> {
        match self {
            PlanStep::Limit(rows) => Some(*rows as u64),
            PlanStep::JoinBuild { distinct, .. } => Some(*distinct),
            PlanStep::JoinProbe { rows, .. } => Some(*rows as u64),
            _ => None,
        }
    }
}

/// A planned query: the typed steps, the resolved algorithm decision,
/// and shared (`Arc`) snapshots of the columns the session will stage.
///
/// Produced by [`crate::Engine::plan`], executed by
/// [`crate::Session::run`], rendered by [`QueryPlan::explain`].
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub(crate) table: String,
    pub(crate) query: AggregateQuery,
    pub(crate) steps: Vec<PlanStep>,
    pub(crate) algorithm: Algorithm,
    pub(crate) scan_mode: ScanMode,
    pub(crate) cardinality: u64,
    pub(crate) presorted: bool,
    pub(crate) rows: usize,
    /// The table data version this plan was produced against — the
    /// snapshot cut for catalogue-planned queries, `None` for plans
    /// built directly by [`crate::Engine::plan`] (no catalogue, no
    /// versions). Rendered by [`QueryPlan::explain`] so a stale plan
    /// is debuggable from its output alone.
    pub(crate) data_version: Option<u64>,
    /// Time-travel provenance (`name@version`, `snapshot@version` or
    /// `data_version@N`) when the plan was made at an explicit
    /// snapshot, a named version or an `AS OF` clause — `None` for
    /// live-of-now plans. Rendered by [`QueryPlan::explain`]; never
    /// present on shared-plan-cache entries.
    pub(crate) as_of: Option<String>,
    /// Column snapshots (shared with the table, not copied): the primary
    /// grouping column, further grouping columns, the value column, and
    /// the WHERE column.
    pub(crate) group: Arc<[u32]>,
    pub(crate) rest: Vec<Arc<[u32]>>,
    pub(crate) value: Arc<[u32]>,
    pub(crate) filter_col: Option<Arc<[u32]>>,
    /// Composite GROUP BY per-column key domains (primary first),
    /// exactly as the overflow check computed them — empty for
    /// single-column plans. Coordinators force the elementwise maximum
    /// of these across shard plans into every morsel's key fusion, so
    /// partials land in one shared key space and merge directly (no
    /// dictionary remap).
    pub(crate) domains: Arc<[u64]>,
    /// The WHERE column's zone maps, row ranges aligned with this plan's
    /// staged view — stamped by the catalogue from [`crate::TableStats`],
    /// `None` for engine-direct or frozen plans. Morsel generators prune
    /// ranges the predicate provably fails (see
    /// [`crate::Predicate::excludes_range`]).
    pub(crate) zones: Option<Arc<[ZoneRange]>>,
    /// How many zone maps the planned table kept at plan time (0 = no
    /// zone maps, e.g. engine-direct plans); rendered by
    /// [`QueryPlan::explain`].
    pub(crate) zone_maps: usize,
}

impl QueryPlan {
    /// The planned steps in execution order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The aggregation algorithm the §V-D policy selected.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The cardinality estimate the selection acted on.
    pub fn cardinality_estimate(&self) -> u64 {
        self.cardinality
    }

    /// Whether the grouping column is known sorted (DBMS metadata).
    pub fn presorted(&self) -> bool {
        self.presorted
    }

    /// The table data version this plan was produced against: the
    /// pinned [`crate::Snapshot`] cut for snapshot reads, the
    /// version-of-now for live reads, `None` for plans built directly
    /// by [`crate::Engine::plan`] outside any catalogue.
    pub fn data_version(&self) -> Option<u64> {
        self.data_version
    }

    /// The time-travel provenance of an `AS OF` / explicit-snapshot
    /// plan (`name@version`, `snapshot@version`, `data_version@N`), or
    /// `None` for a live plan.
    pub fn as_of(&self) -> Option<&str> {
        self.as_of.as_deref()
    }

    /// Input rows the plan will stage.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The planned query, rendered as SQL.
    pub fn sql(&self) -> String {
        self.query.sql(&self.table)
    }

    /// The query this plan serves.
    pub fn query(&self) -> &AggregateQuery {
        &self.query
    }

    /// The `FROM` table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// How many zone maps the planned table kept at plan time (0 for
    /// plans made outside a catalogue, or frozen time-travel views).
    pub fn zone_maps(&self) -> usize {
        self.zone_maps
    }

    /// The composite grouping columns' exact key domains (`max + 1`,
    /// primary first), computed host-side at plan time for the
    /// overflow check; empty for single-column grouping. The sharded
    /// coordinator maxes these across shard plans to force one global
    /// fused key space onto every morsel.
    pub(crate) fn key_domains(&self) -> &[u64] {
        &self.domains
    }

    /// The key space a session opens this plan's aggregate tables with:
    /// every (fused) group key of the plan lies below it. `domains` are the composite key domains the
    /// ranges fuse with — the driver's maxima across shard plans, whose
    /// product bounds every fused key; single-column grouping takes the
    /// planner's `max + 1`.
    pub(crate) fn table_cells(&self, domains: &[u64]) -> usize {
        let cells = match domains {
            [] => self.cardinality,
            domains => domains.iter().product(),
        };
        usize::try_from(cells).expect("a key space fits the host's address width")
    }

    /// The WHERE column's zone ranges, when the plan carries both a
    /// filter and stamped zone maps.
    pub(crate) fn filter_zones(&self) -> Option<&[ZoneRange]> {
        match (&self.zones, &self.query.filter) {
            (Some(z), Some(_)) => Some(z),
            _ => None,
        }
    }

    /// Whether the morsel `[lo, hi)` of this plan's staged view
    /// provably fails the WHERE predicate — every zone overlapping the
    /// range excludes it — and can be skipped without running. `false`
    /// whenever the plan has no filter, no zones, or the zones do not
    /// fully cover the range (conservative: never prune on partial
    /// information).
    pub(crate) fn prunes_range(&self, lo: usize, hi: usize) -> bool {
        let Some((_, pred)) = &self.query.filter else {
            return false;
        };
        let Some(zones) = self.filter_zones() else {
            return false;
        };
        let mut covered = lo;
        for &(zlo, zhi, min, max) in zones {
            if zhi <= covered || zlo >= hi {
                continue;
            }
            if zlo > covered || !pred.excludes_range(min, max) {
                return false;
            }
            covered = zhi;
            if covered >= hi {
                return true;
            }
        }
        false
    }

    /// Rebinds this plan to a query of the same *shape* that differs
    /// only in its literal constants (WHERE/HAVING comparison values,
    /// LIMIT budget): the constants are patched into the cloned steps
    /// while every planning decision — cardinality estimate, scan mode,
    /// the §V-D algorithm choice — is reused unchanged.
    ///
    /// Sound because plan-time statistics are taken over the
    /// *unfiltered* table (classic optimizer shape, see
    /// [`crate::Engine::plan`]): no literal constant feeds the adaptive
    /// decision, so the rebound plan is the plan a cold
    /// [`crate::Engine::plan`] of `query` makes.
    pub(crate) fn rebind(&self, query: &AggregateQuery) -> QueryPlan {
        let mut plan = self.clone();
        for step in &mut plan.steps {
            match step {
                PlanStep::VectorFilter { pred, .. } => {
                    if let Some((_, p)) = &query.filter {
                        *pred = *p;
                    }
                }
                PlanStep::Having { pred, .. } => {
                    if let Some(h) = &query.having {
                        *pred = h.pred;
                    }
                }
                PlanStep::Limit(rows) => {
                    if let Some(k) = query.order_by.as_ref().and_then(|ob| ob.limit) {
                        *rows = k;
                    }
                }
                _ => {}
            }
        }
        plan.query = query.clone();
        plan
    }

    /// Renders the plan in `EXPLAIN` form: the SQL, one header line of
    /// planner facts, then the numbered steps.
    ///
    /// ```
    /// use vagg_db::{AggregateQuery, Engine, Table};
    ///
    /// let t = Table::new("r")
    ///     .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
    ///     .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0]);
    /// let plan = Engine::new().plan(&t, &AggregateQuery::paper("g", "v"))?;
    /// assert_eq!(
    ///     plan.explain(),
    ///     "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g\n\
    ///      \x20 rows=8 presorted=false algorithm=monotable cardinality≈6\n\
    ///      \x20 1. CardinalityScan[exact](cardinality≈6)\n\
    ///      \x20 2. Aggregate[mono]"
    /// );
    /// # Ok::<(), vagg_db::PlanError>(())
    /// ```
    pub fn explain(&self) -> String {
        use fmt::Write as _;
        let mut out = self.sql();
        let _ = write!(
            out,
            "\n  rows={} presorted={} algorithm={} cardinality≈{}",
            self.rows,
            self.presorted,
            self.algorithm.name().replace(' ', "-"),
            self.cardinality
        );
        if let Some(v) = self.data_version {
            // Catalogue-planned queries record the data version (the
            // snapshot cut) the plan was produced against, so a
            // stale-plan investigation needs no counters.
            let _ = write!(out, " data_version={v}");
        }
        if self.zone_maps > 0 {
            let _ = write!(out, " zone_maps={}", self.zone_maps);
        }
        if let Some(label) = &self.as_of {
            let _ = write!(out, " as_of={label}");
        }
        for (i, step) in self.steps.iter().enumerate() {
            let _ = write!(out, "\n  {}. {step}", i + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_error_display_is_stable() {
        assert_eq!(
            PlanError::UnknownColumn("x".into()).to_string(),
            "unknown column \"x\""
        );
        assert_eq!(PlanError::EmptyTable.to_string(), "the table has no rows");
        assert_eq!(
            PlanError::NoAggregates.to_string(),
            "no aggregates requested"
        );
        assert!(PlanError::CompositeKeyOverflow { domain: 1 << 40 }
            .to_string()
            .contains("32-bit key space"));
        let e = PlanError::UnsupportedAvgPredicate { clause: "HAVING" };
        assert!(e.to_string().contains("HAVING on AVG"));
        assert_eq!(
            PlanError::BindArity {
                expected: 2,
                got: 1
            }
            .to_string(),
            "wrong parameter count: the statement has 2 placeholder(s), \
             1 parameter(s) were bound"
        );
        assert!(PlanError::BindType {
            index: 0,
            value: u64::MAX
        }
        .to_string()
        .contains("32-bit"));
    }

    #[test]
    fn plan_errors_implement_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<PlanError>();
    }

    #[test]
    fn step_rendering() {
        assert_eq!(
            PlanStep::FuseKeys {
                columns: vec!["a".into(), "b".into()]
            }
            .to_string(),
            "FuseKeys(a×b)"
        );
        assert_eq!(
            PlanStep::VectorFilter {
                column: "w".into(),
                pred: Predicate::GreaterThan(2)
            }
            .to_string(),
            "VectorFilter(w > 2)"
        );
        assert_eq!(
            PlanStep::CardinalityScan {
                mode: ScanMode::Exact,
                estimate: 625
            }
            .to_string(),
            "CardinalityScan[exact](cardinality≈625)"
        );
        assert_eq!(
            PlanStep::Aggregate(Algorithm::Monotable).to_string(),
            "Aggregate[mono]"
        );
        assert_eq!(
            PlanStep::Having {
                agg: AggFn::Count,
                value: "v".into(),
                pred: Predicate::GreaterThan(1)
            }
            .to_string(),
            "Having(COUNT(*) > 1)"
        );
        assert_eq!(
            PlanStep::OrderBy {
                key: OrderKey::Agg(AggFn::Sum),
                group: "g".into(),
                value: "v".into(),
                desc: true
            }
            .to_string(),
            "OrderBy(SUM(v) DESC)"
        );
        assert_eq!(PlanStep::Limit(5).to_string(), "Limit(5)");
    }
}
