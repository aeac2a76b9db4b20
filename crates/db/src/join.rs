//! Equi-joins: one hash build/probe path for a single session and for
//! the sharded exchange, with a §V-D-style adaptive choice of build
//! side and exchange strategy.
//!
//! A two-table `SELECT ... FROM a JOIN b ON a.k = b.k [AND ...]` runs
//! in three phases, the first two in `run_join`:
//!
//! 1. **Build.** The planner picks a *build side* from live
//!    [`TableStats`] — fewer rows wins, ties broken by the smaller KMV
//!    distinct estimate of the join key, then by key sortedness, read
//!    off the sides' views (every partition's, on the sharded path) —
//!    and its rows are grouped by key tuple into one hash map per
//!    partition (`JoinBuildSink`): each build range groups its rows
//!    locally, then merges them in under one lock. On the sharded path
//!    the ranges are morsels on the persistent [`crate::Executor`], so
//!    the build is cooperative.
//! 2. **Probe.** Freezing takes each map out of its sink and sorts its
//!    buckets (`JoinIndex`); probe ranges then look each row's key
//!    tuple up in it — a plain map lookup, no lock; a miss is simply a
//!    dropped row — and matched build rows emit `(probe row, build
//!    row)` pairs.
//! 3. **Aggregate.** The pairs gather a *derived table* whose columns
//!    are exactly the query's references (`l.g`, `r.v`, …), and the
//!    ordinary single-table engine plans and executes the GROUP
//!    BY/HAVING/ORDER BY/LIMIT tail over it — so every aggregation
//!    algorithm, the morsel executor and the coordinator tail run
//!    unchanged.
//!
//! The sharded exchange picks between two strategies
//! ([`JoinStrategy`]): **broadcast** builds one global index over the
//! (small) build side and every shard probes its own partition against
//! it; **partition** splits the build side into one index per shard by
//! a hash of the join key, and each probe row is routed to the
//! partition its key hashes to — both sides partitioned by join key,
//! no probe row ever visits more than one index. Both strategies
//! produce identical pairs; the choice only moves work.
//!
//! Determinism: build buckets are sorted by row id when the index
//! freezes, probe rows are scanned in order per shard, and the
//! aggregation tail is order-insensitive — so single-session, sharded
//! broadcast and sharded partition answers are bit-identical (the
//! differential tests in `tests/join.rs` hold all of them against a
//! nested-loop oracle).

use crate::cancel::CancelToken;
use crate::database::SqlError;
use crate::delta::TableStats;
use crate::engine::Engine;
use crate::executor::{Executor, DEFAULT_MORSEL_ROWS};
use crate::plan::{PlanError, PlanStep, QueryPlan};
use crate::query::AggregateQuery;
use crate::read::{check_cancel, ranges, Schedule};
use crate::sql::{join_from, SqlQuery};
use crate::table::Table;
use crate::trace::QueryTrace;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// How a sharded join moves the build side to the probe side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Single-session execution: one build, one probe, no exchange.
    Local,
    /// The (small) build side goes into **one** global index and every
    /// shard probes its partition against it.
    Broadcast,
    /// Both sides are partitioned by a hash of the join key: the build
    /// side is split into one index per shard, and each probe row is
    /// routed to the partition its key hashes to.
    Partition,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinStrategy::Local => write!(f, "local"),
            JoinStrategy::Broadcast => write!(f, "broadcast"),
            JoinStrategy::Partition => write!(f, "partition"),
        }
    }
}

/// One column the query references, resolved against the joined pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColumnRef {
    /// The name as the query spells it (`l.g`, or bare `g` when
    /// unambiguous) — the derived table's column name.
    pub(crate) name: String,
    /// Whether the column lives on the `FROM` (left) table.
    pub(crate) left: bool,
    /// The actual column name on that table.
    pub(crate) column: String,
}

/// A planned equi-join: the adaptive build-side and strategy decision,
/// the resolved column references, and the aggregation the derived
/// table feeds. Produced by the join planner behind
/// [`crate::Database::run_sql`] / [`crate::ShardedDatabase::run_sql`],
/// rendered by [`JoinPlan::explain`], returned typed by
/// [`crate::Database::explain_sql`] as [`crate::ExplainOutput::Join`].
#[derive(Debug, Clone)]
pub struct JoinPlan {
    pub(crate) left: String,
    pub(crate) right: String,
    pub(crate) on: Vec<(String, String)>,
    pub(crate) agg: AggregateQuery,
    pub(crate) refs: Vec<ColumnRef>,
    pub(crate) build_right: bool,
    pub(crate) strategy: JoinStrategy,
    pub(crate) steps: Vec<PlanStep>,
    pub(crate) build_rows: usize,
    pub(crate) probe_rows: usize,
    pub(crate) build_distinct: u64,
    pub(crate) build_sorted: bool,
    pub(crate) left_version: u64,
    pub(crate) right_version: u64,
    pub(crate) as_of: Option<String>,
}

impl JoinPlan {
    /// The `FROM` (left) table name.
    pub fn left_table(&self) -> &str {
        &self.left
    }

    /// The joined (right) table name.
    pub fn right_table(&self) -> &str {
        &self.right
    }

    /// The equi-key pairs as `(left column, right column)`.
    pub fn on(&self) -> &[(String, String)] {
        &self.on
    }

    /// The table the hash build runs over (the §V-D-style choice:
    /// fewer rows, ties broken by KMV distinct estimate, then by key
    /// sortedness).
    pub fn build_table(&self) -> &str {
        if self.build_right {
            &self.right
        } else {
            &self.left
        }
    }

    /// The table whose rows stream through the built index.
    pub fn probe_table(&self) -> &str {
        if self.build_right {
            &self.left
        } else {
            &self.right
        }
    }

    /// Whether the joined (right) table was chosen as the build side.
    pub fn build_right(&self) -> bool {
        self.build_right
    }

    /// The sharded exchange strategy the planner picked.
    pub fn strategy(&self) -> JoinStrategy {
        self.strategy
    }

    /// The join steps ([`PlanStep::JoinBuild`], [`PlanStep::JoinProbe`])
    /// in execution order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Build-side input rows.
    pub fn build_rows(&self) -> usize {
        self.build_rows
    }

    /// Probe-side input rows.
    pub fn probe_rows(&self) -> usize {
        self.probe_rows
    }

    /// The KMV distinct estimate of the build key the decision used.
    pub fn build_distinct(&self) -> u64 {
        self.build_distinct
    }

    /// Whether every build key column is known sorted.
    pub fn build_sorted(&self) -> bool {
        self.build_sorted
    }

    /// The left table's data version the plan was made against.
    pub fn left_data_version(&self) -> u64 {
        self.left_version
    }

    /// The right table's data version the plan was made against.
    pub fn right_data_version(&self) -> u64 {
        self.right_version
    }

    /// Time-travel provenance (`name` or `data_version@N`) when the
    /// plan reads a frozen state, `None` for live plans.
    pub fn as_of(&self) -> Option<&str> {
        self.as_of.as_deref()
    }

    /// The aggregation the derived (joined) table feeds.
    pub fn query(&self) -> &AggregateQuery {
        &self.agg
    }

    /// The planned statement rendered as SQL.
    pub fn sql(&self) -> String {
        self.agg.sql(&join_from(&self.left, &self.right, &self.on))
    }

    /// The build side's join key columns, in ON order.
    pub(crate) fn build_keys(&self) -> Vec<&str> {
        self.on
            .iter()
            .map(|(l, r)| {
                if self.build_right {
                    r.as_str()
                } else {
                    l.as_str()
                }
            })
            .collect()
    }

    /// The probe side's join key columns, in ON order.
    pub(crate) fn probe_keys(&self) -> Vec<&str> {
        self.on
            .iter()
            .map(|(l, r)| {
                if self.build_right {
                    l.as_str()
                } else {
                    r.as_str()
                }
            })
            .collect()
    }

    /// The referenced columns living on the build / probe side.
    pub(crate) fn side_refs(&self, build: bool) -> Vec<&ColumnRef> {
        self.refs
            .iter()
            .filter(|r| (r.left != self.build_right) == build)
            .collect()
    }

    /// Renders the join decision in `EXPLAIN` form: the SQL, the
    /// build/probe/strategy header, both tables' data versions, then
    /// the numbered join steps.
    pub fn explain(&self) -> String {
        use fmt::Write as _;
        let mut out = self.sql();
        let _ = write!(
            out,
            "\n  join=hash build={} probe={} strategy={} build_rows={} \
             probe_rows={} build_distinct≈{} build_sorted={}",
            self.build_table(),
            self.probe_table(),
            self.strategy,
            self.build_rows,
            self.probe_rows,
            self.build_distinct,
            self.build_sorted,
        );
        let _ = write!(
            out,
            "\n  left={} data_version={} right={} data_version={}",
            self.left, self.left_version, self.right, self.right_version
        );
        if let Some(label) = &self.as_of {
            let _ = write!(out, " as_of={label}");
        }
        for (i, step) in self.steps.iter().enumerate() {
            let _ = write!(out, "\n  {}. {step}", i + 1);
        }
        out
    }
}

/// The row-count threshold under which a sharded build side is always
/// broadcast (one global index) rather than partitioned.
const BROADCAST_ROWS: usize = 1024;

/// One side of a join as the planner sees it: its partitions' views
/// (one for a single store, one per shard), their statistics merged,
/// and a data version.
pub(crate) type JoinSide<'a> = (&'a [Table], &'a TableStats, u64);

/// Plans the equi-join of `q` (which has a join clause): validates the
/// ON columns, resolves every column the query references against the
/// joined pair, picks the build side and the sharded exchange strategy
/// from the two sides' statistics and views. `shards <= 1` plans
/// [`JoinStrategy::Local`].
pub(crate) fn plan_join(
    q: &SqlQuery,
    (left_parts, left_stats, left_version): JoinSide<'_>,
    (right_parts, right_stats, right_version): JoinSide<'_>,
    shards: usize,
    as_of: Option<String>,
) -> Result<JoinPlan, PlanError> {
    let (agg, left_name) = (&q.query, q.table.as_str());
    let join = q.join.as_ref().expect("a join query");
    let right_name = join.table.as_str();
    if left_stats.rows() == 0 || right_stats.rows() == 0 {
        return Err(PlanError::EmptyTable);
    }
    // Every partition of a side shares its schema.
    let (left_schema, right_schema) = (&left_parts[0], &right_parts[0]);
    for (lc, rc) in &join.on {
        if left_schema.column(lc).is_none() {
            return Err(PlanError::UnknownColumn(format!("{left_name}.{lc}")));
        }
        if right_schema.column(rc).is_none() {
            return Err(PlanError::UnknownColumn(format!("{right_name}.{rc}")));
        }
    }
    // Resolve every column the aggregation references; the derived
    // table's columns carry the reference spellings verbatim.
    let mut refs: Vec<ColumnRef> = Vec::new();
    let mut referenced: Vec<&str> = agg.group_columns();
    referenced.push(&agg.value);
    if let Some((col, _)) = &agg.filter {
        referenced.push(col);
    }
    for name in referenced {
        if refs.iter().any(|r| r.name == name) {
            continue;
        }
        let (left, column) = match name.split_once('.') {
            Some((t, c)) if t == left_name => {
                if left_schema.column(c).is_none() {
                    return Err(PlanError::UnknownColumn(name.to_string()));
                }
                (true, c)
            }
            Some((t, c)) if t == right_name => {
                if right_schema.column(c).is_none() {
                    return Err(PlanError::UnknownColumn(name.to_string()));
                }
                (false, c)
            }
            Some(_) => return Err(PlanError::UnknownColumn(name.to_string())),
            None => match (
                left_schema.column(name).is_some(),
                right_schema.column(name).is_some(),
            ) {
                (true, true) => return Err(PlanError::AmbiguousColumn(name.to_string())),
                (true, false) => (true, name),
                (false, true) => (false, name),
                (false, false) => return Err(PlanError::UnknownColumn(name.to_string())),
            },
        };
        refs.push(ColumnRef {
            name: name.to_string(),
            left,
            column: column.to_string(),
        });
    }
    // §V-D-style build-side choice: the distinct estimate from the
    // statistics, sortedness from the views — a partitioned side is
    // sorted only if every partition is (no global order exists).
    let key_facts = |parts: &[Table], stats: &TableStats, keys: &[&String]| {
        let mut distinct: u64 = 1;
        for key in keys {
            if let Some(col) = stats.column(key) {
                distinct = distinct.saturating_mul(col.distinct_estimate().max(1));
            }
        }
        let sorted = keys
            .iter()
            .all(|key| parts.iter().all(|t| t.meta(key).is_some_and(|m| m.sorted)));
        (distinct.min(stats.rows() as u64), sorted)
    };
    let lkeys: Vec<&String> = join.on.iter().map(|(l, _)| l).collect();
    let rkeys: Vec<&String> = join.on.iter().map(|(_, r)| r).collect();
    let (ldistinct, lsorted) = key_facts(left_parts, left_stats, &lkeys);
    let (rdistinct, rsorted) = key_facts(right_parts, right_stats, &rkeys);
    let (lrows, rrows) = (left_stats.rows(), right_stats.rows());
    let build_right = if rrows != lrows {
        rrows < lrows
    } else if rdistinct != ldistinct {
        rdistinct < ldistinct
    } else if rsorted != lsorted {
        rsorted
    } else {
        true
    };
    let (build_rows, probe_rows) = if build_right {
        (rrows, lrows)
    } else {
        (lrows, rrows)
    };
    let (build_distinct, build_sorted) = if build_right {
        (rdistinct, rsorted)
    } else {
        (ldistinct, lsorted)
    };
    let strategy = if shards <= 1 {
        JoinStrategy::Local
    } else if build_rows <= BROADCAST_ROWS.max(probe_rows / shards) {
        JoinStrategy::Broadcast
    } else {
        JoinStrategy::Partition
    };
    let key_names = |side_right: bool| -> Vec<String> {
        join.on
            .iter()
            .map(|(l, r)| if side_right { r.clone() } else { l.clone() })
            .collect()
    };
    let steps = vec![
        PlanStep::JoinBuild {
            table: if build_right { right_name } else { left_name }.to_string(),
            keys: key_names(build_right),
            rows: build_rows,
            distinct: build_distinct,
        },
        PlanStep::JoinProbe {
            table: if build_right { left_name } else { right_name }.to_string(),
            keys: key_names(!build_right),
            rows: probe_rows,
        },
    ];
    Ok(JoinPlan {
        left: left_name.to_string(),
        right: right_name.to_string(),
        on: join.on.clone(),
        agg: agg.clone(),
        refs,
        build_right,
        strategy,
        steps,
        build_rows,
        probe_rows,
        build_distinct,
        build_sorted,
        left_version,
        right_version,
        as_of,
    })
}

/// A join read up to the read driver: the join `plan` run over its
/// sides' partitions ([`run_join`], its ranges on the read's pool when
/// its `schedule` has one), and the aggregation planned over each
/// derived table — `None` for an empty one (no key matched), which the
/// single-table planner would reject and the driver answers with zero
/// rows. Returns the plans and the join's host steps, which the driver
/// reports in front of them.
pub(crate) fn join_read(
    engine: &Engine,
    plan: JoinPlan,
    left: &[Table],
    right: &[Table],
    schedule: &Schedule<'_>,
    cancel: Option<&CancelToken>,
    trace: Option<&mut QueryTrace>,
) -> Result<(Vec<Option<QueryPlan>>, Vec<PlanStep>), SqlError> {
    let pool = match schedule {
        Schedule::Inline(_) => None,
        Schedule::Pool(pool) => Some(*pool),
    };
    let (derived, obs) = run_join(&plan, left, right, pool, cancel)?;
    if let Some(t) = trace {
        obs.record(t, &plan);
    }
    let aggregate = |d: &Table| (d.rows() > 0).then(|| engine.plan(d, plan.query()));
    let plans = derived.iter().map(aggregate).map(Option::transpose);
    Ok((plans.collect::<Result<_, _>>()?, plan.steps))
}

/// Routes a key tuple to one of `parts` hash partitions (FNV-1a).
fn route(tuple: &[u32], parts: usize) -> usize {
    if parts <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in tuple {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % parts as u64) as usize
}

/// The hash side's one structure: key tuple → the build rows that carry
/// it.
type Buckets = HashMap<Box<[u32]>, Vec<u32>>;

/// One partition of the hash-join build phase. Workers merge whole
/// ranges into it ([`build_range`]), in whatever order they finish.
#[derive(Debug, Default)]
struct JoinBuildSink(Mutex<Buckets>);

impl JoinBuildSink {
    fn lock(&self) -> MutexGuard<'_, Buckets> {
        self.0.lock().expect("join build sink lock")
    }

    /// Takes the map out as the frozen, deterministic probe index:
    /// every bucket sorted by build row id (ranges merge in completion
    /// order). The sink is left empty.
    fn freeze(&self) -> JoinIndex {
        let mut buckets = std::mem::take(&mut *self.lock());
        for bucket in buckets.values_mut() {
            bucket.sort_unstable();
        }
        JoinIndex(buckets)
    }
}

/// The frozen build side of a hash join: a probe tuple's bucket is a
/// plain lookup — nothing is shared for writing any more, so nothing
/// is locked.
#[derive(Debug)]
struct JoinIndex(Buckets);

impl JoinIndex {
    /// Distinct build key tuples in this partition.
    fn entries(&self) -> usize {
        self.0.len()
    }
}

/// Groups build rows `lo..hi` of `keys` by key tuple on the worker,
/// then merges the groups into `sinks` under one lock per sink — one
/// sink broadcasts, several partition by [`route`] of the key tuple.
fn build_range(sinks: &[JoinBuildSink], keys: &[Arc<[u32]>], lo: usize, hi: usize) {
    let mut tuple = vec![0u32; keys.len()];
    let mut staged = vec![Buckets::new(); sinks.len()];
    for row in lo..hi {
        for (t, k) in tuple.iter_mut().zip(keys) {
            *t = k[row];
        }
        let staged = &mut staged[route(&tuple, sinks.len())];
        let row = u32::try_from(row).expect("build rows fit the 32-bit row id space");
        match staged.get_mut(&tuple[..]) {
            Some(bucket) => bucket.push(row),
            None => {
                staged.insert(tuple.as_slice().into(), vec![row]);
            }
        }
    }
    for (sink, staged) in sinks.iter().zip(staged) {
        if staged.is_empty() {
            continue;
        }
        let mut shared = sink.lock();
        for (tuple, rows) in staged {
            shared.entry(tuple).or_default().extend(rows);
        }
    }
}

/// Probes rows `lo..hi` of `keys` against `indexes` (routing each row
/// by [`route`] when partitioned), returning matched
/// `(probe row, build row)` pairs in probe-row order.
fn probe_range(
    indexes: &[JoinIndex],
    keys: &[Arc<[u32]>],
    lo: usize,
    hi: usize,
) -> Vec<(u32, u32)> {
    let mut tuple = vec![0u32; keys.len()];
    let mut pairs = Vec::new();
    for row in lo..hi {
        for (t, k) in tuple.iter_mut().zip(keys) {
            *t = k[row];
        }
        let index = &indexes[route(&tuple, indexes.len())];
        if let Some(bucket) = index.0.get(&tuple[..]) {
            let row = u32::try_from(row).expect("probe rows fit the 32-bit row id space");
            pairs.extend(bucket.iter().map(|&b| (row, b)));
        }
    }
    pairs
}

/// The columns one join side contributes, by actual column name —
/// straight `Arc` shares for a single table, concatenated across
/// partitions for the sharded build side (global row ids).
#[derive(Debug)]
struct ColumnSet {
    cols: Vec<(String, Arc<[u32]>)>,
}

impl ColumnSet {
    /// Zero-copy column shares from one table.
    fn from_table(table: &Table, names: &[&str]) -> Self {
        Self {
            cols: names
                .iter()
                .map(|&n| {
                    (
                        n.to_string(),
                        table.column_shared(n).expect("resolved column exists"),
                    )
                })
                .collect(),
        }
    }

    /// Columns concatenated across partitions, in partition order —
    /// the sharded build side's global row id space.
    fn concat(parts: &[Table], names: &[&str]) -> Self {
        Self {
            cols: names
                .iter()
                .map(|&n| {
                    let mut data = Vec::new();
                    for part in parts {
                        data.extend_from_slice(part.column(n).expect("resolved column exists"));
                    }
                    (n.to_string(), Arc::from(data))
                })
                .collect(),
        }
    }

    /// One column's data by actual column name.
    fn get(&self, name: &str) -> &Arc<[u32]> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
            .expect("requested column was collected")
    }

    /// The key columns named by `names`, in order (shared, cheap).
    fn keys(&self, names: &[&str]) -> Vec<Arc<[u32]>> {
        names.iter().map(|&n| Arc::clone(self.get(n))).collect()
    }
}

/// The actual column names a side must contribute: its join keys plus
/// every referenced column, deduplicated.
fn side_columns(plan: &JoinPlan, build: bool) -> Vec<&str> {
    let mut names: Vec<&str> = if build {
        plan.build_keys()
    } else {
        plan.probe_keys()
    };
    for r in plan.side_refs(build) {
        if !names.contains(&r.column.as_str()) {
            names.push(&r.column);
        }
    }
    names
}

/// Gathers the matched pairs into the derived table the aggregation
/// runs over: one column per reference, named as the query spells it.
fn derived_table(
    plan: &JoinPlan,
    pairs: &[(u32, u32)],
    probe: &ColumnSet,
    build: &ColumnSet,
) -> Table {
    let mut out = Table::new(format!("{}⋈{}", plan.left, plan.right));
    for r in &plan.refs {
        let on_build = r.left != plan.build_right;
        let src = if on_build {
            build.get(&r.column)
        } else {
            probe.get(&r.column)
        };
        let data: Vec<u32> = pairs
            .iter()
            .map(|&(p, b)| src[if on_build { b } else { p } as usize])
            .collect();
        out = out.with_column(&r.name, data);
    }
    out
}

/// Host-side observations of one join execution, recorded for
/// `EXPLAIN ANALYZE`. The join phases run entirely on the host
/// (merging into the sinks, probing the frozen indexes — no simulated
/// machine work), so recording them cannot perturb any result.
pub(crate) struct JoinObs {
    /// Build-side input rows.
    build_rows: usize,
    /// Distinct key tuples the build indexes hold.
    entries: usize,
    /// Build rows whose key tuple an earlier row had already entered.
    dict_hits: u64,
    /// Probe-side input rows streamed.
    probe_rows: usize,
    /// Matched `(probe, build)` pairs emitted.
    pairs: usize,
    /// Host nanoseconds spent freezing the build index (the barrier
    /// between the phases). Wall-clock; diagnostic only.
    freeze_ns: u64,
}

impl JoinObs {
    /// Folds the observations into a trace: the build/probe steps'
    /// observed rows under the plan's rendered step names (no simulated
    /// cycles), plus the hash side's counters and the freeze-barrier
    /// wall time.
    pub(crate) fn record(&self, t: &mut QueryTrace, plan: &JoinPlan) {
        for step in plan.steps() {
            let (rows_in, rows_out) = match step {
                PlanStep::JoinBuild { .. } => (self.build_rows, self.entries),
                PlanStep::JoinProbe { .. } => (self.probe_rows, self.pairs),
                _ => continue,
            };
            t.record_host_step(
                step.to_string(),
                step.estimated_rows(),
                rows_in as u64,
                rows_out as u64,
            );
        }
        t.dict_entries += self.entries as u64;
        t.dict_hits += self.dict_hits;
        t.freeze_ns = Some(t.freeze_ns.unwrap_or(0) + self.freeze_ns);
    }
}

/// **The** join path — *build ranges → freeze → probe ranges → gather*
/// — for one partition per side (a single session) or one per shard:
///
/// 1. **Build.** The build side's partitions form one global row id
///    space (one partition is shared as it is, several are
///    concatenated), cut into ranges that merge their key tuples into
///    the sink(s): one under [`JoinStrategy::Local`] and
///    [`JoinStrategy::Broadcast`], one per probe partition, keyed by a
///    hash of the join key, under [`JoinStrategy::Partition`].
/// 2. **Freeze** (timed): the phase barrier — every sink becomes a
///    deterministic index, so a probe range always sees a complete
///    build side.
/// 3. **Probe.** Each probe partition is cut into ranges streamed
///    through the indexes; a partitioned probe routes each row to the
///    one index its key hashes to.
/// 4. **Gather.** The matched pairs, in (partition, probe row) order,
///    become one derived table per probe partition — what the read
///    driver aggregates like any other per-shard plans.
///
/// Where the ranges run is data, as for [`crate::read::drive`]: on
/// `pool` as stealable morsels of its configured size, the token
/// checked at every pop; with no pool in order on the calling thread —
/// one range per side, or, when `cancel` is given,
/// [`DEFAULT_MORSEL_ROWS`] ranges with the token checked before each.
///
/// # Errors
///
/// [`SqlError::Cancelled`] when the token trips before the last range
/// of either phase ran.
pub(crate) fn run_join(
    plan: &JoinPlan,
    left: &[Table],
    right: &[Table],
    pool: Option<&Executor>,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<Table>, JoinObs), SqlError> {
    let (bparts, pparts) = if plan.build_right {
        (right, left)
    } else {
        (left, right)
    };
    let range_rows = match pool {
        Some(pool) => pool.config().morsel_rows,
        None => cancel.map_or(usize::MAX, |_| DEFAULT_MORSEL_ROWS),
    };
    let run = |morsels: Vec<JoinMorsel>| -> Result<Vec<JoinOutcome>, SqlError> {
        match pool {
            Some(pool) => {
                let outcomes = pool.execute_join(morsels, cancel);
                check_cancel(cancel)?;
                Ok(outcomes)
            }
            None => morsels
                .iter()
                .map(|morsel| match cancel.map(CancelToken::admit_morsel) {
                    Some(Err(cause)) => Err(SqlError::Cancelled(cause)),
                    _ => Ok(morsel.run(false)),
                })
                .collect(),
        }
    };

    let build_columns = side_columns(plan, true);
    let build = match bparts {
        [one] => ColumnSet::from_table(one, &build_columns),
        several => ColumnSet::concat(several, &build_columns),
    };
    let nsinks = match plan.strategy {
        JoinStrategy::Partition => pparts.len(),
        JoinStrategy::Local | JoinStrategy::Broadcast => 1,
    };
    let sinks: Arc<Vec<JoinBuildSink>> =
        Arc::new((0..nsinks).map(|_| JoinBuildSink::default()).collect());
    let build_keys = Arc::new(build.keys(&plan.build_keys()));
    let build_rows = bparts.iter().map(Table::rows).sum();
    // Build ranges belong to no shard: each carries a tag of its own,
    // so the pool places them across all its workers.
    let builds = ranges(build_rows, range_rows)
        .enumerate()
        .map(|(tag, (lo, hi))| JoinMorsel {
            shard: tag,
            keys: Arc::clone(&build_keys),
            lo,
            hi,
            work: JoinWork::Build {
                sinks: Arc::clone(&sinks),
            },
        })
        .collect();
    run(builds)?;

    let freeze_start = std::time::Instant::now();
    let indexes: Arc<Vec<JoinIndex>> = Arc::new(sinks.iter().map(JoinBuildSink::freeze).collect());
    let freeze_ns = freeze_start.elapsed().as_nanos() as u64;

    let probe_columns = side_columns(plan, false);
    let probe_keys = plan.probe_keys();
    let probe_sets: Vec<ColumnSet> = pparts
        .iter()
        .map(|part| ColumnSet::from_table(part, &probe_columns))
        .collect();
    let mut probes = Vec::new();
    for (shard, (part, set)) in pparts.iter().zip(&probe_sets).enumerate() {
        let keys = Arc::new(set.keys(&probe_keys));
        probes.extend(ranges(part.rows(), range_rows).map(|(lo, hi)| JoinMorsel {
            shard,
            keys: Arc::clone(&keys),
            lo,
            hi,
            work: JoinWork::Probe {
                indexes: Arc::clone(&indexes),
            },
        }));
    }
    let mut outcomes = run(probes)?;
    // Pool morsels complete in racy order; pair order must not.
    outcomes.sort_by_key(|o| (o.shard, o.lo));

    let entries: usize = indexes.iter().map(JoinIndex::entries).sum();
    let obs = JoinObs {
        build_rows,
        entries,
        dict_hits: (build_rows - entries) as u64,
        probe_rows: pparts.iter().map(Table::rows).sum(),
        pairs: outcomes.iter().map(|o| o.pairs.len()).sum(),
        freeze_ns,
    };
    // One partition's pairs, in probe-row order: its first range's
    // are moved, not copied — a single session has no other.
    let mut pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); pparts.len()];
    for outcome in outcomes {
        let mine = &mut pairs[outcome.shard];
        if mine.is_empty() {
            *mine = outcome.pairs;
        } else {
            mine.extend(outcome.pairs);
        }
    }
    let derived = probe_sets
        .iter()
        .zip(&pairs)
        .map(|(probe, pairs)| derived_table(plan, pairs, probe, &build))
        .collect();
    Ok((derived, obs))
}

/// What a join morsel does: merge a build row range into the shared
/// sinks, or stream a probe row range through the frozen indexes.
enum JoinWork {
    /// Merge rows into the shared build sinks.
    Build {
        /// One sink broadcasts; several partition by key hash.
        sinks: Arc<Vec<JoinBuildSink>>,
    },
    /// Probe rows against the frozen indexes.
    Probe {
        /// One index broadcasts; several partition by key hash.
        indexes: Arc<Vec<JoinIndex>>,
    },
}

/// One stealable unit of join work: a row range of one side's key
/// columns (see [`crate::Executor`]).
pub(crate) struct JoinMorsel {
    /// Home shard (probe morsels) or spread tag (build morsels) — what
    /// the executor's affinity placement assigns a home worker to.
    pub(crate) shard: usize,
    /// The key columns this morsel reads.
    keys: Arc<Vec<Arc<[u32]>>>,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    work: JoinWork,
}

/// What one join morsel produced.
pub(crate) struct JoinOutcome {
    pub(crate) shard: usize,
    pub(crate) lo: usize,
    /// Matched `(probe row, build row)` pairs (empty for build
    /// morsels).
    pub(crate) pairs: Vec<(u32, u32)>,
    /// Whether a worker stole this morsel from another deque.
    pub(crate) stolen: bool,
}

impl JoinMorsel {
    /// Executes the morsel — on a pool worker, or on the calling
    /// thread of a single session.
    pub(crate) fn run(&self, stolen: bool) -> JoinOutcome {
        let pairs = match &self.work {
            JoinWork::Build { sinks } => {
                build_range(sinks, &self.keys, self.lo, self.hi);
                Vec::new()
            }
            JoinWork::Probe { indexes } => probe_range(indexes, &self.keys, self.lo, self.hi),
        };
        JoinOutcome {
            shard: self.shard,
            lo: self.lo,
            pairs,
            stolen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggregateQuery;
    use crate::sql::JoinClause;

    /// `SELECT … FROM l JOIN …` as the planner takes it.
    fn query(agg: AggregateQuery, join: JoinClause) -> SqlQuery {
        SqlQuery {
            table: "l".into(),
            query: agg,
            as_of: None,
            join: Some(join),
        }
    }

    fn tables() -> (Table, Table) {
        let l = Table::new("l")
            .with_column("k", vec![1, 2, 3, 1, 9])
            .with_column("v", vec![10, 20, 30, 40, 50]);
        let r = Table::new("r")
            .with_column("k", vec![1, 2, 2])
            .with_column("w", vec![7, 8, 9]);
        (l, r)
    }

    fn plan(l: &Table, r: &Table, shards: usize) -> JoinPlan {
        let agg = AggregateQuery::paper("l.k", "l.v");
        let join = JoinClause {
            table: "r".into(),
            on: vec![("k".into(), "k".into())],
        };
        let (ls, rs) = (TableStats::seed(l), TableStats::seed(r));
        let (l, r) = (std::slice::from_ref(l), std::slice::from_ref(r));
        plan_join(&query(agg, join), (l, &ls, 1), (r, &rs, 1), shards, None).unwrap()
    }

    #[test]
    fn build_side_is_the_smaller_table() {
        let (l, r) = tables();
        let p = plan(&l, &r, 1);
        assert!(p.build_right(), "r has fewer rows");
        assert_eq!(p.build_table(), "r");
        assert_eq!(p.probe_table(), "l");
        assert_eq!(p.strategy(), JoinStrategy::Local);
        assert_eq!(p.build_rows(), 3);
        assert_eq!(p.probe_rows(), 5);
        assert_eq!(p.build_distinct(), 2);
    }

    /// The one path on the calling thread, no token.
    fn join(p: &JoinPlan, left: &[Table], right: &[Table]) -> (Vec<Table>, JoinObs) {
        run_join(p, left, right, None, None).expect("no token to trip")
    }

    #[test]
    fn local_join_produces_the_nested_loop_pairs() {
        let (l, r) = tables();
        let p = plan(&l, &r, 1);
        let (derived, obs) = join(&p, &[l], &[r]);
        // Nested loop: l rows with k ∈ {1, 2} match; k=2 matches two
        // r rows.
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].rows(), 4);
        assert_eq!(derived[0].column("l.k"), Some(&[1u32, 2, 2, 1][..]));
        assert_eq!(derived[0].column("l.v"), Some(&[10u32, 20, 20, 40][..]));
        assert_eq!((obs.build_rows, obs.entries, obs.dict_hits), (3, 2, 1));
        assert_eq!((obs.probe_rows, obs.pairs), (5, 4));
    }

    #[test]
    fn partitioned_probe_matches_broadcast() {
        let (l, r) = tables();
        let p = plan(&l, &r, 1);
        // Both sides cut into three partitions, as three shards hold
        // them: the per-partition derived tables, in partition order,
        // are the single session's.
        let cut = |t: &Table, at: [usize; 4]| -> Vec<Table> {
            at.windows(2)
                .map(|w| {
                    t.column_names()
                        .iter()
                        .fold(Table::new(t.name()), |part, c| {
                            part.with_column(*c, t.column(c).unwrap()[w[0]..w[1]].to_vec())
                        })
                })
                .collect()
        };
        let (lparts, rparts) = (cut(&l, [0, 2, 2, 5]), cut(&r, [0, 1, 2, 3]));
        let (whole, _) = join(&p, &[l], &[r]);
        for strategy in [JoinStrategy::Broadcast, JoinStrategy::Partition] {
            let p = JoinPlan {
                strategy,
                ..p.clone()
            };
            let (parts, obs) = join(&p, &lparts, &rparts);
            assert_eq!(parts.len(), 3, "{strategy}: one derived table per shard");
            for name in ["l.k", "l.v"] {
                let gathered: Vec<u32> = parts
                    .iter()
                    .flat_map(|t| t.column(name).unwrap().iter().copied())
                    .collect();
                assert_eq!(
                    gathered,
                    whole[0].column(name).unwrap(),
                    "{strategy}: {name}"
                );
            }
            assert_eq!(
                (obs.entries, obs.dict_hits, obs.pairs),
                (2, 1, 4),
                "{strategy}"
            );
        }
    }

    /// The hash side against the nested loop, as a property over seeded
    /// streams (the crate has no proptest dependency): key tuples of
    /// 1–3 columns over a small domain, so both sides repeat tuples;
    /// the build side cut into ranges of random size, merged in
    /// shuffled order into 1 and into 3 sinks.
    #[test]
    fn the_hash_side_matches_the_nested_loop() {
        use crate::delta::Xorshift;
        for case in 0..300u64 {
            let mut rng = Xorshift::new(case);
            let columns = 1 + rng.below(3) as usize;
            let domain = 1 + rng.below(4);
            let (build_rows, probe_rows) = (rng.below(60) as usize, rng.below(60) as usize);
            let mut side = |rows: usize| -> Vec<Arc<[u32]>> {
                (0..columns)
                    .map(|_| (0..rows).map(|_| rng.below(domain) as u32).collect())
                    .collect()
            };
            let (build, probe) = (side(build_rows), side(probe_rows));
            let tuple = |keys: &[Arc<[u32]>], row: usize| -> Vec<u32> {
                keys.iter().map(|k| k[row]).collect()
            };

            let mut expect = Vec::new();
            for p in 0..probe_rows {
                for b in 0..build_rows {
                    if tuple(&probe, p) == tuple(&build, b) {
                        expect.push((p as u32, b as u32));
                    }
                }
            }
            let distinct: std::collections::BTreeSet<Vec<u32>> =
                (0..build_rows).map(|b| tuple(&build, b)).collect();

            let mut cuts: Vec<(usize, usize)> = Vec::new();
            let mut lo = 0;
            while lo < build_rows {
                let hi = (lo + 1 + rng.below(16) as usize).min(build_rows);
                cuts.push((lo, hi));
                lo = hi;
            }
            for i in (1..cuts.len()).rev() {
                cuts.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for parts in [1, 3] {
                let sinks: Vec<JoinBuildSink> =
                    (0..parts).map(|_| JoinBuildSink::default()).collect();
                for &(lo, hi) in &cuts {
                    build_range(&sinks, &build, lo, hi);
                }
                let indexes: Vec<JoinIndex> = sinks.iter().map(JoinBuildSink::freeze).collect();
                let entries: usize = indexes.iter().map(JoinIndex::entries).sum();
                assert_eq!(entries, distinct.len(), "case {case}, {parts} sinks");
                assert_eq!(
                    probe_range(&indexes, &probe, 0, probe_rows),
                    expect,
                    "case {case}, {parts} sinks"
                );
            }

            // And through the one path: the same pairs counted, and
            // `dict_hits` the build rows that repeated a tuple.
            if build_rows == 0 || probe_rows == 0 {
                continue; // the planner rejects an empty side
            }
            let table = |name: &str, keys: &[Arc<[u32]>]| {
                keys.iter().enumerate().fold(Table::new(name), |t, (c, k)| {
                    t.with_column(format!("k{c}"), k.to_vec())
                })
            };
            let (l, r) = (table("l", &probe), table("r", &build));
            let clause = JoinClause {
                table: "r".into(),
                on: (0..columns)
                    .map(|c| (format!("k{c}"), format!("k{c}")))
                    .collect(),
            };
            let (ls, rs) = (TableStats::seed(&l), TableStats::seed(&r));
            let agg = AggregateQuery::paper("l.k0", "r.k0");
            let q = query(agg, clause);
            let (lp, rp) = (std::slice::from_ref(&l), std::slice::from_ref(&r));
            let p = plan_join(&q, (lp, &ls, 1), (rp, &rs, 1), 1, None).unwrap();
            let built = if p.build_right() { &build } else { &probe };
            let distinct: std::collections::BTreeSet<Vec<u32>> =
                (0..built[0].len()).map(|b| tuple(built, b)).collect();
            let (derived, obs) = join(&p, &[l], &[r]);
            assert_eq!(derived[0].rows(), expect.len(), "case {case}");
            assert_eq!(obs.pairs, expect.len(), "case {case}");
            assert_eq!(obs.entries, distinct.len(), "case {case}");
            assert_eq!(obs.dict_hits, (obs.build_rows - obs.entries) as u64);
            assert_eq!(obs.build_rows, built[0].len(), "case {case}");
        }
    }

    #[test]
    fn ambiguous_and_unknown_references_are_typed_errors() {
        let (l, r) = tables();
        let join = JoinClause {
            table: "r".into(),
            on: vec![("k".into(), "k".into())],
        };
        let (ls, rs) = (TableStats::seed(&l), TableStats::seed(&r));
        let err = |agg: AggregateQuery| {
            let q = query(agg, join.clone());
            let (lp, rp) = (std::slice::from_ref(&l), std::slice::from_ref(&r));
            plan_join(&q, (lp, &ls, 1), (rp, &rs, 1), 1, None).unwrap_err()
        };
        assert_eq!(
            err(AggregateQuery::paper("k", "v")),
            PlanError::AmbiguousColumn("k".into())
        );
        assert_eq!(
            err(AggregateQuery::paper("l.k", "l.nope")),
            PlanError::UnknownColumn("l.nope".into())
        );
        assert_eq!(
            err(AggregateQuery::paper("x.k", "l.v")),
            PlanError::UnknownColumn("x.k".into())
        );
    }

    #[test]
    fn explain_renders_decision_and_steps() {
        let (l, r) = tables();
        let p = plan(&l, &r, 4);
        let text = p.explain();
        assert!(text.contains("join=hash build=r probe=l strategy=broadcast"));
        assert!(text.contains("1. JoinBuild(r[k] rows=3 distinct≈2)"));
        assert!(text.contains("2. JoinProbe(l[k] rows=5)"));
        assert!(text.contains("left=l data_version=1 right=r data_version=1"));
    }
}
