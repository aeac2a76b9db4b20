//! Equi-joins: hash build/probe on the [`crate::KeyDictionary`], with a
//! §V-D-style adaptive choice of build side and sharded exchange
//! strategy.
//!
//! A two-table `SELECT ... FROM a JOIN b ON a.k = b.k [AND ...]` runs
//! in three phases:
//!
//! 1. **Build.** The planner picks a *build side* from live
//!    [`TableStats`] — fewer rows wins, ties broken by the smaller KMV
//!    distinct estimate of the join key, then by key sortedness — and
//!    its key tuples are interned through a [`KeyDictionary`] into
//!    dense-id buckets of row ids (`JoinBuildSink`). On the sharded
//!    path the build is *cooperative*: build-side row ranges are
//!    morsels on the persistent [`crate::Executor`], and every worker
//!    interns into the same shared dictionary.
//! 2. **Probe.** Probe-side morsels stream through the frozen
//!    `JoinIndex`: each row's key tuple is looked up (no interning —
//!    a miss is simply a dropped row) and matched build rows emit
//!    `(probe row, build row)` pairs.
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
//! it; **partition** splits the build side into one dictionary per
//! shard by a hash of the join key, and each probe row is routed to
//! the partition its key hashes to — both sides partitioned by join
//! key, no probe row ever visits more than one dictionary. Both
//! strategies produce identical pairs; the choice only moves work.
//!
//! Determinism: build buckets are sorted by row id when the index
//! freezes, probe rows are scanned in order per shard, and the
//! aggregation tail is order-insensitive — so single-session, sharded
//! broadcast and sharded partition answers are bit-identical (the
//! differential tests in `tests/join.rs` hold all of them against a
//! nested-loop oracle).

use crate::catalogue::{CatalogueId, SharedCatalogue};
use crate::database::{Database, SqlError};
use crate::delta::TableStats;
use crate::engine::{Engine, QueryOutput};
use crate::keydict::KeyDictionary;
use crate::plan::{PlanError, PlanStep, QueryPlan};
use crate::query::AggregateQuery;
use crate::read::ReadRequest;
use crate::snapshot::Snapshot;
use crate::sql::{parse_template, JoinClause, SqlTemplate};
use crate::table::Table;
use crate::trace::QueryTrace;
use std::fmt;
use std::sync::{Arc, Mutex};

/// How a sharded join moves the build side to the probe side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Single-session execution: one build, one probe, no exchange.
    Local,
    /// The (small) build side is interned into **one** global
    /// dictionary and every shard probes its partition against it.
    Broadcast,
    /// Both sides are partitioned by a hash of the join key: the build
    /// side is split into one dictionary per shard, and each probe row
    /// is routed to the partition its key hashes to.
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
/// [`crate::Database::explain_join_sql`].
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
        let on = self
            .on
            .iter()
            .map(|(l, r)| format!("{}.{l} = {}.{r}", self.left, self.right))
            .collect::<Vec<_>>()
            .join(" AND ");
        self.agg
            .sql(&format!("{} JOIN {} ON {on}", self.left, self.right))
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
/// broadcast (one global dictionary) rather than partitioned.
const BROADCAST_ROWS: usize = 1024;

/// Plans an equi-join: validates the ON columns, resolves every column
/// the query references against the joined pair, picks the build side
/// and the sharded exchange strategy from the two tables' live
/// statistics. `shards <= 1` plans [`JoinStrategy::Local`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_join(
    agg: &AggregateQuery,
    join: &JoinClause,
    left_name: &str,
    left_schema: &Table,
    left_stats: &TableStats,
    left_version: u64,
    right_schema: &Table,
    right_stats: &TableStats,
    right_version: u64,
    shards: usize,
    as_of: Option<String>,
) -> Result<JoinPlan, PlanError> {
    let right_name = join.table.as_str();
    if left_stats.rows() == 0 || right_stats.rows() == 0 {
        return Err(PlanError::EmptyTable);
    }
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
    // §V-D-style build-side choice from live statistics.
    let key_facts = |stats: &TableStats, keys: &[&String]| {
        let mut distinct: u64 = 1;
        let mut sorted = true;
        for key in keys {
            if let Some(col) = stats.column(key) {
                distinct = distinct.saturating_mul(col.distinct_estimate().max(1));
                sorted &= col.sorted;
            } else {
                sorted = false;
            }
        }
        (distinct.min(stats.rows() as u64), sorted)
    };
    let lkeys: Vec<&String> = join.on.iter().map(|(l, _)| l).collect();
    let rkeys: Vec<&String> = join.on.iter().map(|(_, r)| r).collect();
    let (ldistinct, lsorted) = key_facts(left_stats, &lkeys);
    let (rdistinct, rsorted) = key_facts(right_stats, &rkeys);
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

/// Plans a single-session join at one snapshot cut: both sides'
/// content, statistics and data versions come from the same consistent
/// view, returned alongside the plan for the build and probe to read.
pub(crate) fn plan_join_at(
    snap: &Snapshot,
    left: &str,
    join: &JoinClause,
    agg: &AggregateQuery,
) -> Result<(JoinPlan, Table, Table), SqlError> {
    let fetch = |name: &str| match (
        snap.table(name),
        snap.table_stats(name),
        snap.data_version(name),
    ) {
        (Some(t), Some(s), Some(v)) => Ok((t, s, v)),
        _ => Err(SqlError::UnknownTable(name.to_string())),
    };
    let (lt, ls, lv) = fetch(left)?;
    let (rt, rs, rv) = fetch(&join.table)?;
    let plan = plan_join(agg, join, left, &lt, &ls, lv, &rt, &rs, rv, 1, None)?;
    Ok((plan, lt, rt))
}

/// Plans the aggregation over a join's derived table — `None` for an
/// empty one (no key matched), which the single-table planner would
/// reject and the read driver answers with zero rows.
pub(crate) fn plan_derived(
    engine: &Engine,
    derived: &Table,
    agg: &AggregateQuery,
) -> Result<Option<QueryPlan>, PlanError> {
    if derived.rows() == 0 {
        return Ok(None);
    }
    engine.plan(derived, agg).map(Some)
}

/// Routes a key tuple to one of `parts` hash partitions (FNV-1a).
pub(crate) fn route(tuple: &[u32], parts: usize) -> usize {
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

/// One partition of the hash-join build phase: a shared
/// [`KeyDictionary`] interning key tuples to dense ids, plus dense-id
/// buckets of build row ids. Workers insert concurrently
/// ([`build_range`]); freezing sorts every bucket so the index is
/// deterministic however morsels interleaved.
#[derive(Debug, Default)]
pub(crate) struct JoinBuildSink {
    dict: Arc<KeyDictionary>,
    buckets: Mutex<Vec<Vec<u32>>>,
}

impl JoinBuildSink {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Interns staged `(dense id, build row)` entries under one lock.
    fn push(&self, staged: &[(usize, u32)]) {
        let mut buckets = self.buckets.lock().expect("join bucket lock");
        for &(id, row) in staged {
            if buckets.len() <= id {
                buckets.resize(id + 1, Vec::new());
            }
            buckets[id].push(row);
        }
    }

    /// The frozen, deterministic probe index: every bucket sorted by
    /// build row id (concurrent morsels insert in completion order).
    pub(crate) fn freeze(&self) -> JoinIndex {
        let mut buckets = self.buckets.lock().expect("join bucket lock").clone();
        for bucket in &mut buckets {
            bucket.sort_unstable();
        }
        JoinIndex {
            dict: Arc::clone(&self.dict),
            buckets,
        }
    }
}

/// The frozen build side of a hash join: lookup a probe tuple in the
/// dictionary (no interning), then emit its bucket's build rows.
#[derive(Debug)]
pub(crate) struct JoinIndex {
    dict: Arc<KeyDictionary>,
    buckets: Vec<Vec<u32>>,
}

impl JoinIndex {
    /// Distinct build key tuples interned into this partition.
    pub(crate) fn entries(&self) -> usize {
        self.dict.len()
    }

    /// Intern calls answered by an existing entry (duplicate build
    /// keys).
    pub(crate) fn dict_hits(&self) -> u64 {
        self.dict.hits()
    }
}

/// Interns build rows `lo..hi` of `keys` into `sinks` — one sink
/// broadcasts, several partition by [`route`] of the key tuple.
pub(crate) fn build_range(sinks: &[JoinBuildSink], keys: &[Arc<[u32]>], lo: usize, hi: usize) {
    let mut tuple = vec![0u32; keys.len()];
    let mut staged: Vec<Vec<(usize, u32)>> = vec![Vec::new(); sinks.len()];
    for row in lo..hi {
        for (t, k) in tuple.iter_mut().zip(keys) {
            *t = k[row];
        }
        let part = route(&tuple, sinks.len());
        let id = sinks[part].dict.intern(&tuple) as usize;
        let row = u32::try_from(row).expect("build rows fit the 32-bit row id space");
        staged[part].push((id, row));
    }
    for (sink, staged) in sinks.iter().zip(&staged) {
        if !staged.is_empty() {
            sink.push(staged);
        }
    }
}

/// Probes rows `lo..hi` of `keys` against `indexes` (routing each row
/// by [`route`] when partitioned), returning matched
/// `(probe row, build row)` pairs in probe-row order.
pub(crate) fn probe_range(
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
        if let Some(id) = index.dict.lookup(&tuple) {
            if let Some(bucket) = index.buckets.get(id as usize) {
                let row = u32::try_from(row).expect("probe rows fit the 32-bit row id space");
                pairs.extend(bucket.iter().map(|&b| (row, b)));
            }
        }
    }
    pairs
}

/// The columns one join side contributes, by actual column name —
/// straight `Arc` shares for a single table, concatenated across
/// partitions for the sharded build side (global row ids).
#[derive(Debug)]
pub(crate) struct ColumnSet {
    cols: Vec<(String, Arc<[u32]>)>,
}

impl ColumnSet {
    /// Zero-copy column shares from one table.
    pub(crate) fn from_table(table: &Table, names: &[&str]) -> Self {
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
    pub(crate) fn concat(parts: &[Table], names: &[&str]) -> Self {
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
    pub(crate) fn get(&self, name: &str) -> &Arc<[u32]> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
            .expect("requested column was collected")
    }

    /// The key columns named by `names`, in order (shared, cheap).
    pub(crate) fn keys(&self, names: &[&str]) -> Vec<Arc<[u32]>> {
        names.iter().map(|&n| Arc::clone(self.get(n))).collect()
    }
}

/// The actual column names a side must contribute: its join keys plus
/// every referenced column, deduplicated.
pub(crate) fn side_columns(plan: &JoinPlan, build: bool) -> Vec<&str> {
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
pub(crate) fn derived_table(
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

/// Runs a planned join start to finish on the calling thread (the
/// single-session [`JoinStrategy::Local`] path): build, probe, gather
/// the derived table.
pub(crate) fn join_local(plan: &JoinPlan, left: &Table, right: &Table) -> Table {
    join_local_traced(plan, left, right).0
}

/// Host-side observations of one join execution, recorded for
/// `EXPLAIN ANALYZE`. The join phases run entirely on the host
/// (interning into the sinks, probing the frozen indexes — no simulated
/// machine work), so recording them cannot perturb any result.
pub(crate) struct JoinObs {
    /// Build-side input rows interned.
    pub(crate) build_rows: usize,
    /// Distinct key tuples the build dictionaries hold.
    pub(crate) entries: usize,
    /// Intern calls answered by an existing entry.
    pub(crate) dict_hits: u64,
    /// Probe-side input rows streamed.
    pub(crate) probe_rows: usize,
    /// Matched `(probe, build)` pairs emitted.
    pub(crate) pairs: usize,
    /// Host nanoseconds spent freezing the build index (the barrier
    /// between the phases). Wall-clock; diagnostic only.
    pub(crate) freeze_ns: u64,
}

impl JoinObs {
    /// Folds the observations into a trace: the build/probe steps'
    /// observed rows under the plan's rendered step names (no simulated
    /// cycles), plus the key-dictionary counters and the freeze-barrier
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

/// [`join_local`] plus the [`JoinObs`] the run produced. The
/// untraced path calls this too and drops the observations — they are
/// a handful of host-side reads, not measurable work.
pub(crate) fn join_local_traced(plan: &JoinPlan, left: &Table, right: &Table) -> (Table, JoinObs) {
    let (build_t, probe_t) = if plan.build_right {
        (right, left)
    } else {
        (left, right)
    };
    let build = ColumnSet::from_table(build_t, &side_columns(plan, true));
    let probe = ColumnSet::from_table(probe_t, &side_columns(plan, false));
    let sinks = [JoinBuildSink::new()];
    build_range(&sinks, &build.keys(&plan.build_keys()), 0, build_t.rows());
    let freeze_start = std::time::Instant::now();
    let indexes = [sinks[0].freeze()];
    let freeze_ns = freeze_start.elapsed().as_nanos() as u64;
    let pairs = probe_range(&indexes, &probe.keys(&plan.probe_keys()), 0, probe_t.rows());
    let obs = JoinObs {
        build_rows: build_t.rows(),
        entries: indexes[0].entries(),
        dict_hits: indexes[0].dict_hits(),
        probe_rows: probe_t.rows(),
        pairs: pairs.len(),
        freeze_ns,
    };
    (derived_table(plan, &pairs, &probe, &build), obs)
}

/// What a join morsel does: cooperatively intern a build row range, or
/// stream a probe row range through the frozen indexes.
pub(crate) enum JoinWork {
    /// Intern rows into the shared build sinks.
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
    /// Home shard (probe morsels) or spread tag (build morsels) — the
    /// executor seeds deques by `shard % workers`.
    pub(crate) shard: usize,
    /// The key columns this morsel reads.
    pub(crate) keys: Arc<Vec<Arc<[u32]>>>,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) work: JoinWork,
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
    /// Executes the morsel (on a pool worker).
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

/// A two-table statement prepared once and executed many times:
/// produced by [`crate::Database::prepare_join`]. The join (build +
/// probe + derived-table gather) is cached keyed on both tables'
/// schema and data versions — re-executing against unchanged tables
/// re-plans only the (cheap) aggregation over the cached derived
/// table; any version drift on either side rebuilds the join
/// (counted by [`PreparedJoin::rejoins`]).
#[derive(Debug)]
pub struct PreparedJoin {
    template: Arc<SqlTemplate>,
    cached: Option<CachedJoin>,
    executions: u64,
    rejoins: u64,
}

/// The cached join materialisation, tagged with the catalogue identity
/// and both tables' versions it was built against.
#[derive(Debug)]
struct CachedJoin {
    catalogue: CatalogueId,
    left: (u64, u64),
    right: (u64, u64),
    plan: JoinPlan,
    derived: Table,
}

impl PreparedJoin {
    /// Parses and eagerly plans a join template (what
    /// [`crate::Database::prepare_join`] calls).
    pub(crate) fn prepare(catalogue: &SharedCatalogue, sql: &str) -> Result<Self, SqlError> {
        let template = Arc::new(parse_template(sql)?);
        if template.join.is_none() {
            return Err(SqlError::JoinStatement);
        }
        let stmt = Self {
            template,
            cached: None,
            executions: 0,
            rejoins: 0,
        };
        // Plan the sentinel query now: prepare-time errors (unknown
        // tables, unresolvable columns) beat first-execution surprises.
        stmt.plan_at(&catalogue.snapshot(), &stmt.template.query)?;
        Ok(stmt)
    }

    /// `?` placeholders this statement declares.
    pub fn parameter_count(&self) -> usize {
        self.template.slots.len()
    }

    /// Successful executions so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Times execution had to rebuild the join (first execution, a
    /// version drift on either table, or a catalogue change) instead
    /// of reusing the cached derived table.
    pub fn rejoins(&self) -> u64 {
        self.rejoins
    }

    /// Binds `params` and executes on `db`'s session. Reads at the
    /// open read-only transaction's snapshot when one is pinned, else
    /// at a snapshot-of-now — the same two-table consistent cut
    /// [`crate::Database::run_sql`] uses for joins.
    ///
    /// # Errors
    ///
    /// Bind errors ([`PlanError::BindArity`] / [`PlanError::BindType`]
    /// wrapped in [`SqlError::Plan`]), plus the usual join planning
    /// errors when the join must be rebuilt.
    pub fn execute(&mut self, db: &mut Database, params: &[u64]) -> Result<QueryOutput, SqlError> {
        let agg = crate::prepared::bind_slots(&self.template, params).map_err(SqlError::Plan)?;
        {
            let owned;
            let snap = match db.txn_snapshot() {
                Some(snap) => snap,
                None => {
                    owned = db.catalogue().snapshot();
                    &owned
                }
            };
            self.refresh(db.catalogue(), snap, &agg)?;
        }
        self.run_tail(db, &agg)
    }

    /// Binds `params` and executes **at a pinned snapshot**: both
    /// tables read the snapshot's cut, so the answer reproduces the
    /// pinned state however much ingest landed since.
    ///
    /// # Errors
    ///
    /// As [`PreparedJoin::execute`], plus [`SqlError::ForeignSnapshot`]
    /// if the snapshot was cut from a catalogue other than `db`'s.
    pub fn execute_at(
        &mut self,
        db: &mut Database,
        snap: &Snapshot,
        params: &[u64],
    ) -> Result<QueryOutput, SqlError> {
        if !snap.catalogue().is_same(db.catalogue()) {
            return Err(SqlError::ForeignSnapshot);
        }
        let agg = crate::prepared::bind_slots(&self.template, params).map_err(SqlError::Plan)?;
        self.refresh(db.catalogue(), snap, &agg)?;
        self.run_tail(db, &agg)
    }

    /// Runs the (cheap) aggregation over the cached derived table.
    fn run_tail(
        &mut self,
        db: &mut Database,
        agg: &AggregateQuery,
    ) -> Result<QueryOutput, SqlError> {
        let cached = self.cached.as_ref().expect("refresh filled the cache");
        let plan = plan_derived(db.catalogue().engine(), &cached.derived, agg)?;
        let request = ReadRequest {
            prefix: &cached.plan.steps,
            ..ReadRequest::new(vec![plan])
        };
        let out = db.execute_read(&cached.plan.sql(), request)?;
        self.executions += 1;
        Ok(out)
    }

    /// Reuses the cached join when both tables still sit at the cached
    /// versions under the same catalogue; otherwise re-plans and
    /// re-materialises the join at `snap`'s cut. Binding only patches
    /// comparison constants — column references never change between
    /// binds — so a version-stable cache stays valid across executions.
    fn refresh(
        &mut self,
        catalogue: &SharedCatalogue,
        snap: &Snapshot,
        agg: &AggregateQuery,
    ) -> Result<(), SqlError> {
        let versions = |table: &str| -> Result<(u64, u64), SqlError> {
            match (snap.schema_version(table), snap.data_version(table)) {
                (Some(s), Some(d)) => Ok((s, d)),
                _ => Err(SqlError::UnknownTable(table.to_string())),
            }
        };
        let left = versions(&self.template.table)?;
        let join = self.template.join.as_ref().expect("join template");
        let right = versions(&join.table)?;
        let hit = self
            .cached
            .as_ref()
            .is_some_and(|c| c.catalogue.matches(catalogue) && c.left == left && c.right == right);
        if !hit {
            let (plan, ltab, rtab) = self.plan_at(snap, agg)?;
            let derived = join_local(&plan, &ltab, &rtab);
            self.cached = Some(CachedJoin {
                catalogue: catalogue.id(),
                left,
                right,
                plan,
                derived,
            });
            self.rejoins += 1;
        }
        Ok(())
    }

    /// Plans the join at a snapshot cut (no execution).
    fn plan_at(
        &self,
        snap: &Snapshot,
        agg: &AggregateQuery,
    ) -> Result<(JoinPlan, Table, Table), SqlError> {
        let join = self.template.join.as_ref().expect("join template");
        plan_join_at(snap, &self.template.table, join, agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggregateQuery;
    use crate::sql::JoinClause;

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
        plan_join(
            &agg,
            &join,
            "l",
            l,
            &TableStats::seed(l),
            1,
            r,
            &TableStats::seed(r),
            1,
            shards,
            None,
        )
        .unwrap()
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

    #[test]
    fn local_join_produces_the_nested_loop_pairs() {
        let (l, r) = tables();
        let p = plan(&l, &r, 1);
        let derived = join_local(&p, &l, &r);
        // Nested loop: l rows with k ∈ {1, 2} match; k=2 matches two
        // r rows.
        assert_eq!(derived.rows(), 4);
        assert_eq!(derived.column("l.k"), Some(&[1u32, 2, 2, 1][..]));
        assert_eq!(derived.column("l.v"), Some(&[10u32, 20, 20, 40][..]));
    }

    #[test]
    fn partitioned_probe_matches_broadcast() {
        let (l, r) = tables();
        let p = plan(&l, &r, 1);
        let build = ColumnSet::from_table(&r, &side_columns(&p, true));
        let probe = ColumnSet::from_table(&l, &side_columns(&p, false));
        let pairs_for = |parts: usize| {
            let sinks: Vec<JoinBuildSink> = (0..parts).map(|_| JoinBuildSink::new()).collect();
            build_range(&sinks, &build.keys(&p.build_keys()), 0, r.rows());
            let indexes: Vec<JoinIndex> = sinks.iter().map(JoinBuildSink::freeze).collect();
            probe_range(&indexes, &probe.keys(&p.probe_keys()), 0, l.rows())
        };
        assert_eq!(pairs_for(1), pairs_for(4));
    }

    #[test]
    fn ambiguous_and_unknown_references_are_typed_errors() {
        let (l, r) = tables();
        let join = JoinClause {
            table: "r".into(),
            on: vec![("k".into(), "k".into())],
        };
        let err = |agg: AggregateQuery| {
            plan_join(
                &agg,
                &join,
                "l",
                &l,
                &TableStats::seed(&l),
                1,
                &r,
                &TableStats::seed(&r),
                1,
                1,
                None,
            )
            .unwrap_err()
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
