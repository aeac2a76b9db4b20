//! The shared catalogue: one table registry + plan cache serving many
//! concurrent sessions.
//!
//! A [`SharedCatalogue`] is an `Arc`-backed handle over a read-mostly
//! table registry (behind an `RwLock`), the planning [`crate::Engine`],
//! and one shared [`PlanCache`]. Cloning the handle is cheap; every
//! clone sees the same tables and the same cache, so a plan computed by
//! one session is a cache hit for every other session — the
//! serving-layer shape of a real column-store, where connections share
//! the catalogue and plan cache but own their execution context.
//!
//! [`SharedCatalogue::connect`] mints a new [`crate::Database`] (a
//! session + this catalogue handle); sessions on different threads run
//! concurrently because execution state lives entirely in the
//! per-session [`crate::Session`] machine.
//!
//! ```
//! use vagg_db::{SharedCatalogue, Table};
//!
//! let catalogue = SharedCatalogue::new();
//! catalogue.register(
//!     Table::new("r")
//!         .with_column("g", vec![1, 2, 1])
//!         .with_column("v", vec![10, 20, 30]),
//! );
//! let mut alice = catalogue.connect();
//! let mut bob = catalogue.connect();
//! let sql = "SELECT g, SUM(v) FROM r GROUP BY g";
//! let a = alice.execute_sql(sql)?;
//! let b = bob.execute_sql(sql)?; // plan served from the shared cache
//! assert_eq!(a.rows, b.rows);
//! assert_eq!(catalogue.cache_stats().hits, 1);
//! # Ok::<(), vagg_db::SqlError>(())
//! ```

use crate::cache::{CacheStats, PlanCache, QueryShape};
use crate::database::{Database, SqlError};
use crate::delta::{materialise, DeltaCut, DeltaStore, TableStats, ZoneMaps};
use crate::engine::Engine;
use crate::filter::Predicate;
use crate::ingest::{CompactionPolicy, IngestReceipt, RowBatch};
use crate::metrics::MetricsRegistry;
use crate::plan::PlanError;
use crate::plan::QueryPlan;
use crate::query::AggregateQuery;
use crate::shard::Shard;
use crate::snapshot::{Snapshot, SnapshotStats, TableCut};
use crate::table::Table;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One registered table: the immutable base, the append-only delta
/// layered on top, live statistics, and two version counters.
///
/// * The **schema version** bumps on (re-)registration and is part of
///   every plan-cache key, so replacing a table makes all of its cached
///   plans unreachable *and* purges them.
/// * The **data version** bumps on every write. Cached plans are tagged
///   with it and serve only that version: the first read after a write
///   misses, and its fresh plan replaces the entry.
struct Registered {
    schema_version: u64,
    data_version: u64,
    base: Table,
    /// Written through `Arc::make_mut`, which copies the store only
    /// while a snapshot still holds it; replaced, never emptied.
    delta: Arc<DeltaStore>,
    stats: TableStats,
    /// The merged base++delta read view at `data_version`, materialised
    /// lazily (`None` = dirty). Appends are O(batch); the first read
    /// after an append pays the merge once.
    view: Option<Table>,
    /// Data version → the delta cut that was live at that version,
    /// for `AS OF data_version N` time travel. Entries only stay
    /// reconstructible while the delta generation stands, so the index
    /// is cleared at compaction and re-registration.
    version_index: BTreeMap<u64, DeltaCut>,
}

impl Registered {
    fn materialise(&mut self) -> &Table {
        if self.view.is_none() {
            self.view = Some(if self.delta.load() == 0 {
                self.base.clone()
            } else {
                materialise(&self.base, &self.delta, self.delta.cut())
            });
        }
        self.view.as_ref().expect("just materialised")
    }

    /// The logical table content (merging any pending delta).
    fn into_table(mut self) -> Table {
        self.materialise();
        self.view.expect("just materialised")
    }

    /// Re-seeds the statistics from the merged view — a DELETE/UPDATE
    /// changes existing rows, which the incremental observe path cannot
    /// express. Leaves the view clean, which the compaction check that
    /// follows takes instead of merging again.
    fn reseed(&mut self, metrics: &MetricsRegistry) {
        self.stats = TableStats::seed(self.materialise());
        metrics.record_stats_reseed();
    }

    /// The physical row ids of the *visible* rows `filter` matches:
    /// tombstoned rows never match again, overwritten values are what
    /// the predicate sees. `None` matches every visible row.
    fn matching(&self, filter: Option<&(String, Predicate)>) -> Result<Vec<u32>, SqlError> {
        let total = self.base.rows() + self.delta.rows();
        let mut keep = vec![true; total];
        for &row in self.delta.tombstone_prefix(self.delta.tombstone_count()) {
            keep[row as usize] = false;
        }
        let values = match filter {
            Some((column, _)) => {
                let base_col = self
                    .base
                    .column(column)
                    .ok_or_else(|| SqlError::Plan(PlanError::UnknownColumn(column.clone())))?;
                let mut values = Vec::with_capacity(total);
                values.extend_from_slice(base_col);
                values.extend_from_slice(self.delta.column(column));
                for ow in self.delta.overwrite_prefix(self.delta.overwrite_count()) {
                    if ow.column == *column {
                        values[ow.row as usize] = ow.value;
                    }
                }
                Some(values)
            }
            None => None,
        };
        Ok((0..total as u32)
            .filter(|&i| keep[i as usize])
            .filter(|&i| match (&values, filter) {
                (Some(values), Some((_, pred))) => pred.matches(values[i as usize]),
                _ => true,
            })
            .collect())
    }

    /// Turns `rows` into checked physical ids: a predicate is resolved
    /// against this table as it stands, and given ids must name rows
    /// the table has — an id beyond them would index past the end of
    /// every later resolution and merge.
    fn resolve(&self, rows: &mut RowSel) -> Result<(), SqlError> {
        match rows {
            RowSel::Where(filter) => *rows = RowSel::Ids(self.matching(filter.as_ref())?),
            RowSel::Ids(ids) => {
                let physical = self.base.rows() + self.delta.rows();
                if let Some(&row) = ids.iter().find(|&&row| row as usize >= physical) {
                    return Err(SqlError::RowOutOfRange {
                        table: self.base.name().to_string(),
                        row,
                        rows: physical,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A borrowed consistent read of one table — the input every plan is
/// made from, whether it comes from a snapshot-of-now cut or a pinned
/// long-lived [`Snapshot`].
struct ViewRef<'a> {
    schema_version: u64,
    data_version: u64,
    table: &'a Table,
    stats: &'a TableStats,
}

/// The rows a DELETE/UPDATE names.
#[derive(Debug)]
pub(crate) enum RowSel {
    /// A live statement's WHERE clause (`None` = every visible row);
    /// [`SharedCatalogue::install`] resolves it and rewrites it in
    /// place to [`RowSel::Ids`].
    Where(Option<(String, Predicate)>),
    /// *Physical* positions into base ++ delta — what the WAL logs, so
    /// replay re-applies them verbatim and never re-runs a predicate.
    Ids(Vec<u32>),
}

impl RowSel {
    /// The physical row ids of a resolved selection.
    pub(crate) fn ids(&self) -> &[u32] {
        match self {
            RowSel::Ids(ids) => ids,
            RowSel::Where(_) => unreachable!("install resolves every predicate before use"),
        }
    }
}

/// One write — an autocommit statement, one statement of a
/// transaction, or one replayed WAL record: the unit
/// [`SharedCatalogue::install`] installs and the WAL logs per record.
#[derive(Debug)]
pub(crate) enum WriteOp {
    /// Append a batch.
    Append {
        /// Target table.
        table: String,
        /// The rows.
        batch: RowBatch,
    },
    /// Tombstone the selected rows.
    Delete {
        /// Target table.
        table: String,
        /// The rows to tombstone.
        rows: RowSel,
    },
    /// Overwrite `sets` columns of the selected rows.
    Update {
        /// Target table.
        table: String,
        /// The rows to overwrite.
        rows: RowSel,
        /// `(column, new value)` assignments applied to every row.
        sets: Vec<(String, u32)>,
    },
}

impl WriteOp {
    /// The table this op writes.
    pub(crate) fn table(&self) -> &str {
        match self {
            WriteOp::Append { table, .. }
            | WriteOp::Delete { table, .. }
            | WriteOp::Update { table, .. } => table,
        }
    }
}

/// What one op of an [`SharedCatalogue::install`] did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Installed {
    /// Rows appended, tombstoned or overwritten; 0 means the op changed
    /// nothing and bumped no version.
    pub(crate) rows: usize,
    /// The table's data version after the op.
    pub(crate) data_version: u64,
    /// Rows parked in the table's delta after the op.
    pub(crate) delta_rows: usize,
}

impl Installed {
    /// The public receipt of an append, given whether the compaction
    /// check that followed it installed a compaction.
    pub(crate) fn receipt(self, compacted: bool) -> IngestReceipt {
        IngestReceipt {
            rows: self.rows,
            delta_rows: if compacted { 0 } else { self.delta_rows },
            compacted,
            data_version: self.data_version,
        }
    }
}

/// One named (`CREATE SNAPSHOT`) version: per table the data version
/// and the fully materialised content at creation time. Frozen tables
/// survive unpin, compaction and re-registration — they share no state
/// with the live registry.
pub(crate) type NamedTables = BTreeMap<String, (u64, Table)>;

struct Inner {
    tables: RwLock<BTreeMap<String, Registered>>,
    cache: Mutex<PlanCache>,
    policy: RwLock<CompactionPolicy>,
    live_snapshots: AtomicU64,
    snapshots_taken: AtomicU64,
    named: RwLock<BTreeMap<String, NamedTables>>,
    engine: Engine,
    /// The unified counter sink every session, ingest and recovery
    /// path of this catalogue reports to (see [`crate::metrics`]).
    metrics: MetricsRegistry,
}

/// An opaque hold on one catalogue's registry read lock (see
/// [`SharedCatalogue::registry_read`]): while any of these is alive,
/// no append, compaction install or re-registration can touch the
/// catalogue's tables — through *any* handle.
pub(crate) struct RegistryReadGuard<'a>(
    std::sync::RwLockReadGuard<'a, BTreeMap<String, Registered>>,
);

/// A cheaply clonable handle to one shared table registry, planner and
/// plan cache.
#[derive(Clone)]
pub struct SharedCatalogue {
    inner: Arc<Inner>,
}

impl fmt::Debug for SharedCatalogue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCatalogue")
            .field("tables", &self.table_names())
            .field("cache", &*self.inner.cache.lock().expect("cache lock"))
            .finish_non_exhaustive()
    }
}

impl Default for SharedCatalogue {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedCatalogue {
    /// An empty catalogue planning for the paper's machine
    /// configuration, with the default plan-cache capacity.
    pub fn new() -> Self {
        Self::with_engine(Engine::new())
    }

    /// An empty catalogue with a custom planning engine.
    pub fn with_engine(engine: Engine) -> Self {
        Self {
            inner: Arc::new(Inner {
                tables: RwLock::new(BTreeMap::new()),
                cache: Mutex::new(PlanCache::default()),
                policy: RwLock::new(CompactionPolicy::default()),
                live_snapshots: AtomicU64::new(0),
                snapshots_taken: AtomicU64::new(0),
                named: RwLock::new(BTreeMap::new()),
                engine,
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    /// Sets the write path's delta-compaction policy (shared by every
    /// session of this catalogue).
    pub fn set_compaction_policy(&self, policy: CompactionPolicy) {
        *self.inner.policy.write().expect("policy lock") = policy;
    }

    /// The current delta-compaction policy.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        *self.inner.policy.read().expect("policy lock")
    }

    /// The planning engine every session of this catalogue shares.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The catalogue-owned [`MetricsRegistry`] — the sink the engine's
    /// counters report to. [`crate::Database::metrics`] folds its
    /// snapshot with the point-in-time subsystem stats.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Whether two handles point at the *same* catalogue (same tables,
    /// same plan cache) — distinct catalogues can register tables under
    /// the same names with independent version counters, so name +
    /// version alone does not identify a table snapshot.
    pub fn is_same(&self, other: &SharedCatalogue) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Opens a new session over this catalogue: a [`Database`] handle
    /// owning its own execution machine but sharing tables and the
    /// plan cache with every other session.
    pub fn connect(&self) -> Database {
        Database::over(Shard::new(self.clone()))
    }

    /// Registers a table under its own name, replacing any previous
    /// table with that name (the replaced table's logical content —
    /// base plus any un-compacted delta — is returned). The table's
    /// schema version is bumped and every cached plan for it is purged,
    /// so later queries re-plan against the new statistics instead of
    /// serving a stale snapshot. The new table starts with an empty
    /// delta and statistics seeded from its columns.
    pub fn register(&self, table: Table) -> Option<Table> {
        self.register_as(table, None)
    }

    /// [`SharedCatalogue::register`] with the version counters forced —
    /// how WAL replay reinstalls a checkpoint image (the record carries
    /// the exact versions the table had when the image was cut).
    pub(crate) fn register_at(
        &self,
        table: Table,
        schema_version: u64,
        data_version: u64,
    ) -> Option<Table> {
        self.register_as(table, Some((schema_version, data_version)))
    }

    fn register_as(&self, table: Table, versions: Option<(u64, u64)>) -> Option<Table> {
        let name = table.name().to_string();
        let delta = Arc::new(DeltaStore::for_table(&table));
        let stats = TableStats::seed(&table);
        self.inner.metrics.record_stats_reseed();
        let mut tables = self.inner.tables.write().expect("catalogue lock");
        let (schema_version, data_version) =
            versions.unwrap_or_else(|| (tables.get(&name).map_or(1, |r| r.schema_version + 1), 1));
        let old = tables.insert(
            name.clone(),
            Registered {
                schema_version,
                data_version,
                base: table,
                delta,
                stats,
                view: None,
                version_index: BTreeMap::from([(data_version, DeltaCut::default())]),
            },
        );
        drop(tables);
        if old.is_some() {
            self.inner
                .cache
                .lock()
                .expect("cache lock")
                .invalidate_table(&name);
        }
        old.map(Registered::into_table)
    }

    /// Appends a batch of rows to a registered table — the one-op case
    /// of the write path (ARCHITECTURE.md, "Write path"): the committer
    /// with one op, over this catalogue and no log — the one installer,
    /// then the compaction check.
    ///
    /// The batch is validated against the table's column set, parked in
    /// the table's [`DeltaStore`] (O(batch) — no base column is
    /// touched), folded into the live [`TableStats`], and the table's
    /// *data* version is bumped (the schema version is not). When the
    /// [`CompactionPolicy`] threshold trips, the delta is merged into a
    /// new base, which keeps the column statistics and gets fresh zone
    /// maps; the merge itself runs outside the registry lock, and a
    /// concurrent append that lands mid-merge supersedes it (the
    /// receipt then reports `compacted: false` and the next append
    /// re-evaluates the threshold over the larger delta).
    ///
    /// Cached plans of the table go stale with the data version: the
    /// next lookup of each shape misses and re-plans (see
    /// [`SharedCatalogue::plan_query`]).
    ///
    /// # Errors
    ///
    /// [`SqlError::UnknownTable`] for unregistered tables and
    /// [`SqlError::Ingest`] (typed [`crate::IngestError`]) for batches
    /// that do not fit the schema.
    pub fn append(&self, table: &str, batch: RowBatch) -> Result<IngestReceipt, SqlError> {
        Shard::new(self.clone()).append(table, batch)
    }

    /// **The** installer — every INSERT, DELETE, UPDATE, COMMIT and
    /// replayed WAL record changes table data here and nowhere else.
    /// Under **one** registry write lock it validates every op, turns
    /// every row selection of the list into physical ids against the
    /// state *before* any op of the list installs (a transaction's
    /// DELETE does not see the same transaction's INSERT; given ids
    /// must name rows that exist then) — the ids the WAL logs, written
    /// back into the op — then applies the ops in order. Nothing is
    /// applied unless everything validated; readers see none of the ops
    /// or all of them (the next snapshot cut lands after the lock
    /// drops). Each op that changes something bumps its table's data
    /// version by one, and installing a list of resolved ops equals
    /// installing them one by one — which is what lets replay hand a
    /// committed transaction's records to this same function one at a
    /// time and rebuild identical version counters and statistics.
    ///
    /// The condition that must hold: resolution and install share the
    /// lock. Physical ids are positions into base ++ delta, and a
    /// compaction (which any other handle's write can trip) renumbers
    /// them — ids resolved under an earlier lock hold could tombstone
    /// or overwrite the wrong rows.
    ///
    /// Compaction is *not* evaluated here — callers run
    /// [`SharedCatalogue::maybe_compact`] per table afterwards, off
    /// this lock.
    pub(crate) fn install(&self, ops: &mut [WriteOp]) -> Result<Vec<Installed>, SqlError> {
        let mut tables = self.inner.tables.write().expect("catalogue lock");
        for op in ops.iter_mut() {
            let r = tables
                .get(op.table())
                .ok_or_else(|| SqlError::UnknownTable(op.table().to_string()))?;
            match op {
                WriteOp::Append { batch, .. } => batch
                    .validate(&r.base.column_names())
                    .map_err(SqlError::Ingest)?,
                WriteOp::Delete { rows, .. } => r.resolve(rows)?,
                WriteOp::Update { rows, sets, .. } => {
                    for (column, _) in sets.iter() {
                        if r.base.column(column).is_none() {
                            return Err(SqlError::Plan(PlanError::UnknownColumn(column.clone())));
                        }
                    }
                    r.resolve(rows)?;
                }
            }
        }
        // Tables whose statistics a DELETE/UPDATE of this list outdated:
        // re-seeded before the table's next append folds into them, or
        // at the end.
        let mut stale: BTreeSet<&str> = BTreeSet::new();
        let mut done = Vec::with_capacity(ops.len());
        for op in ops.iter() {
            let r = tables.get_mut(op.table()).expect("validated above");
            let rows = match op {
                WriteOp::Append { batch, .. } => {
                    if batch.rows() > 0 {
                        if stale.remove(op.table()) {
                            r.reseed(&self.inner.metrics);
                        }
                        Arc::make_mut(&mut r.delta).append(batch);
                        r.stats.observe(batch);
                        self.inner.metrics.record_ingest(batch.rows() as u64);
                    }
                    batch.rows()
                }
                WriteOp::Delete { rows, .. } => {
                    Arc::make_mut(&mut r.delta).tombstone_rows(rows.ids());
                    rows.ids().len()
                }
                WriteOp::Update { rows, sets, .. } => {
                    let delta = Arc::make_mut(&mut r.delta);
                    for &row in rows.ids() {
                        for (column, value) in sets {
                            delta.overwrite(column, row, *value);
                        }
                    }
                    rows.ids().len()
                }
            };
            if rows > 0 {
                if !matches!(op, WriteOp::Append { .. }) {
                    stale.insert(op.table());
                }
                r.data_version += 1;
                r.view = None;
                r.version_index.insert(r.data_version, r.delta.cut());
            }
            done.push(Installed {
                rows,
                data_version: r.data_version,
                delta_rows: r.delta.rows(),
            });
        }
        for table in stale {
            let r = tables.get_mut(table).expect("validated above");
            r.reseed(&self.inner.metrics);
        }
        Ok(done)
    }

    /// Compacts `table` now if the policy threshold trips over the
    /// delta's total load (rows + tombstones + overwrites) — the one
    /// compaction check, run after every write that changed something.
    /// Returns whether a compaction was installed.
    ///
    /// A compaction changes a table's layout, not its content, so it
    /// computes nothing about the content twice. Phase 1 (read lock)
    /// stages the clean view when there is one — there is after every
    /// DELETE / UPDATE, whose re-seed just built it — and otherwise
    /// the parts of an off-lock merge. Phase 2 (no lock): that merge,
    /// which physically drops tombstoned rows and folds overwrites in,
    /// and the zone maps of the merged table, without blocking other
    /// sessions or tables. Phase 3 (write lock): install only if the
    /// table has not moved on — a concurrent write bumped the data
    /// version and will trip (a bigger) compaction itself.
    pub(crate) fn maybe_compact(&self, table: &str) -> bool {
        let (schema_version, data_version, clean, parts) = {
            let tables = self.inner.tables.read().expect("catalogue lock");
            let Some(r) = tables.get(table) else {
                return false;
            };
            let policy = *self.inner.policy.read().expect("policy lock");
            if !policy.should_compact(r.base.rows(), r.delta.load()) {
                return false;
            }
            // A `view` that is there is the merge at this data version
            // (`install` drops it with every change), so taking it is
            // taking `materialise`'s result; `tests/write_path.rs` holds
            // the rows either way. Otherwise both clones are `Arc`-cheap:
            // a write that lands before phase 3 copies the delta first.
            let parts = r
                .view
                .is_none()
                .then(|| (r.base.clone(), Arc::clone(&r.delta)));
            (r.schema_version, r.data_version, r.view.clone(), parts)
        };
        let merged = clean.unwrap_or_else(|| {
            let (base, delta) = parts.expect("staged whenever the view is dirty");
            materialise(&base, &delta, delta.cut())
        });
        let zones = ZoneMaps::seed(&merged);
        let mut tables = self.inner.tables.write().expect("catalogue lock");
        let Some(r) = tables.get_mut(table) else {
            return false;
        };
        if r.schema_version != schema_version || r.data_version != data_version {
            return false;
        }
        // The column statistics carry over. What makes that exact: at
        // every data version `r.stats`' per-column part equals
        // `TableStats::seed(view)`'s — `observe` is exact for appends,
        // `reseed()` follows every DELETE / UPDATE inside the lock hold
        // that installs it — and `merged` is that view. Only the zones,
        // which describe the layout, are re-chunked. Held by
        // `tests/stats_oracle.rs` after every statement.
        r.stats.relay(zones);
        debug_assert_eq!(r.stats, TableStats::seed(&merged), "carried ≡ re-seeded");
        r.base = merged.clone(); // `Arc` columns: base and view share
        r.view = Some(merged);
        // Versions older than the compaction lose their delta
        // generation, so their cuts stop being reconstructible: the
        // time-travel index restarts at the surviving version.
        r.version_index = BTreeMap::from([(r.data_version, DeltaCut::default())]);
        // A fresh store: a snapshot that holds the old one keeps it, and
        // the last holder to drop frees it.
        r.delta = Arc::new(DeltaStore::for_table(&r.base));
        self.inner.metrics.record_compaction();
        true
    }

    /// Looks up a registered table's current content: the base merged
    /// with any pending delta (a cheap clone once materialised — column
    /// data is `Arc`-shared). Like every read, this is a
    /// snapshot-of-now under the hood.
    pub fn table(&self, name: &str) -> Option<Table> {
        self.snapshot_of(name).ok()?.table(name)
    }

    /// Captures an immutable, consistent point-in-time cut of **every**
    /// registered table under one registry read-lock: per table the
    /// data version, the `Arc`-shared base, the delta prefix and the
    /// live statistics. Reads and plans at the snapshot
    /// ([`crate::Database::run_sql_at`], [`SharedCatalogue::plan_query_at`],
    /// [`crate::PreparedStatement::execute_at`]) keep answering from
    /// exactly this cut while appends, compactions and
    /// re-registrations proceed — the write path never blocks on
    /// readers, and dropping the snapshot drops what it holds (see
    /// [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        self.capture(None)
            .expect("a full-catalogue cut cannot name a missing table")
    }

    /// A single-table cut — what the snapshot-of-now read path behind
    /// [`SharedCatalogue::plan_query`] captures per statement.
    pub(crate) fn snapshot_of(&self, table: &str) -> Result<Snapshot, SqlError> {
        self.capture(Some(table))
    }

    /// Acquires this catalogue's registry read lock as an opaque
    /// guard, so a multi-catalogue caller (the sharded coordinator)
    /// can hold every shard's lock at once and cut them as one atomic
    /// moment — see [`crate::ShardedDatabase::snapshot`].
    pub(crate) fn registry_read(&self) -> RegistryReadGuard<'_> {
        RegistryReadGuard(self.inner.tables.read().expect("catalogue lock"))
    }

    /// [`SharedCatalogue::snapshot`] under an already-held registry
    /// guard — which must be *this* catalogue's own, from
    /// [`SharedCatalogue::registry_read`].
    pub(crate) fn capture_under(&self, guard: &RegistryReadGuard<'_>) -> Snapshot {
        self.capture_held(guard, None)
            .expect("a full-catalogue cut cannot name a missing table")
    }

    fn capture(&self, only: Option<&str>) -> Result<Snapshot, SqlError> {
        let guard = self.registry_read();
        self.capture_held(&guard, only)
    }

    fn capture_held(
        &self,
        guard: &RegistryReadGuard<'_>,
        only: Option<&str>,
    ) -> Result<Snapshot, SqlError> {
        let cut_of = |r: &Registered| TableCut {
            schema_version: r.schema_version,
            data_version: r.data_version,
            base: r.base.clone(),
            delta: (r.view.is_none() && r.delta.load() > 0).then(|| Arc::clone(&r.delta)),
            delta_rows: r.delta.rows(),
            stats: r.stats.clone(),
            clean_view: r.view.clone(),
        };
        let tables = &*guard.0;
        let mut cuts = BTreeMap::new();
        match only {
            Some(name) => {
                let r = tables
                    .get(name)
                    .ok_or_else(|| SqlError::UnknownTable(name.to_string()))?;
                cuts.insert(name.to_string(), cut_of(r));
            }
            None => {
                for (name, r) in tables.iter() {
                    cuts.insert(name.clone(), cut_of(r));
                }
            }
        }
        self.inner.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        self.inner.live_snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(Snapshot::over(self.clone(), cuts))
    }

    /// Counts one dropped snapshot (called by [`Snapshot`]'s `Drop`).
    pub(crate) fn release_snapshot(&self) {
        self.inner.live_snapshots.fetch_sub(1, Ordering::Relaxed);
    }

    /// The snapshot subsystem's observability counters.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            live_snapshots: self.inner.live_snapshots.load(Ordering::Relaxed),
            snapshots_taken: self.inner.snapshots_taken.load(Ordering::Relaxed),
        }
    }

    /// Installs a snapshot's freshly merged view as the registry's lazy
    /// view, so the next reader's cut comes back clean — unless the
    /// table has moved on since the cut.
    pub(crate) fn offer_view(&self, name: &str, cut: &TableCut, view: &Table) {
        let mut tables = self.inner.tables.write().expect("catalogue lock");
        if let Some(r) = tables.get_mut(name) {
            if r.schema_version == cut.schema_version
                && r.data_version == cut.data_version
                && r.view.is_none()
            {
                r.view = Some(view.clone());
            }
        }
    }

    /// The table's content as of an earlier data version — `AS OF
    /// data_version N` time travel over the version index. Versions
    /// whose delta generation a compaction (or re-registration) has
    /// since folded away are reported as
    /// [`SqlError::VersionUnavailable`]; `CREATE SNAPSHOT` is the way
    /// to make a version durable across compaction.
    pub(crate) fn table_at_version(&self, name: &str, version: u64) -> Result<Table, SqlError> {
        let (base, prefix, cut) = {
            let tables = self.inner.tables.read().expect("catalogue lock");
            let r = tables
                .get(name)
                .ok_or_else(|| SqlError::UnknownTable(name.to_string()))?;
            let cut = r.version_index.get(&version).copied().ok_or_else(|| {
                SqlError::VersionUnavailable {
                    table: name.to_string(),
                    version,
                }
            })?;
            // Nothing writes to a held store, so the O(base) merge runs
            // off-lock over `Arc` clones.
            (r.base.clone(), Arc::clone(&r.delta), cut)
        };
        Ok(materialise(&base, &prefix, cut))
    }

    /// Creates a named version (`CREATE SNAPSHOT name`): one consistent
    /// cut of every table, fully materialised and frozen under the
    /// name. Unlike a pinned [`Snapshot`], a named version survives
    /// drop, compaction, re-registration — and, WAL-logged, restart.
    pub(crate) fn create_named(&self, name: &str) -> Result<(), SqlError> {
        let snap = self.snapshot();
        let mut frozen = NamedTables::new();
        for table in snap.table_names() {
            let view = snap.table(&table).expect("cut exists for listed table");
            let version = snap.data_version(&table).expect("cut exists");
            frozen.insert(table, (version, view));
        }
        let mut named = self.inner.named.write().expect("named snapshot lock");
        if named.contains_key(name) {
            return Err(SqlError::SnapshotExists(name.to_string()));
        }
        named.insert(name.to_string(), frozen);
        Ok(())
    }

    /// One table of a named version: `(data version at creation,
    /// frozen content)`.
    pub(crate) fn named_table(
        &self,
        snapshot: &str,
        table: &str,
    ) -> Result<(u64, Table), SqlError> {
        let named = self.inner.named.read().expect("named snapshot lock");
        let tables = named
            .get(snapshot)
            .ok_or_else(|| SqlError::UnknownSnapshot(snapshot.to_string()))?;
        let (version, content) = tables
            .get(table)
            .ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
        Ok((*version, content.clone()))
    }

    /// Every named version, frozen tables and all — what a WAL
    /// checkpoint persists as snapshot-image records.
    pub(crate) fn named_images(&self) -> BTreeMap<String, NamedTables> {
        self.inner
            .named
            .read()
            .expect("named snapshot lock")
            .clone()
    }

    /// Installs a named version verbatim — WAL replay of a
    /// snapshot-image record (overwrites any same-named entry: the log
    /// is the authority during recovery).
    pub(crate) fn install_named(&self, name: String, tables: NamedTables) {
        self.inner
            .named
            .write()
            .expect("named snapshot lock")
            .insert(name, tables);
    }

    /// Every table's fully materialised content plus version counters —
    /// what a WAL checkpoint persists as register-image records. Each
    /// image folds the table's delta in, so replaying it (an empty
    /// delta at the recorded versions) reproduces the logical state
    /// exactly.
    pub(crate) fn checkpoint_images(&self) -> Vec<(String, u64, u64, Table)> {
        let mut tables = self.inner.tables.write().expect("catalogue lock");
        tables
            .iter_mut()
            .map(|(name, r)| {
                let view = r.materialise().clone();
                (name.clone(), r.schema_version, r.data_version, view)
            })
            .collect()
    }

    /// Plans directly against a frozen (time-travel) table — named
    /// versions and `AS OF data_version` reads bypass the shared plan
    /// cache, which only ever holds live-lineage entries — stamping the
    /// plan with its provenance for `EXPLAIN`.
    pub(crate) fn plan_frozen(
        &self,
        table: &Table,
        query: &AggregateQuery,
        data_version: u64,
        label: String,
    ) -> Result<QueryPlan, SqlError> {
        let mut plan = self.inner.engine.plan(table, query)?;
        plan.data_version = Some(data_version);
        plan.as_of = Some(label);
        Ok(plan)
    }

    /// `f` of `name`'s registration, read under the registry lock, or
    /// `None` if `name` is unregistered.
    fn registered<T>(&self, name: &str, f: impl FnOnce(&Registered) -> T) -> Option<T> {
        self.inner
            .tables
            .read()
            .expect("catalogue lock")
            .get(name)
            .map(f)
    }

    /// Registered table names, sorted (a [`BTreeMap`]-backed registry:
    /// the listing order is deterministic regardless of registration
    /// order).
    pub fn table_names(&self) -> Vec<String> {
        self.inner
            .tables
            .read()
            .expect("catalogue lock")
            .keys()
            .cloned()
            .collect()
    }

    /// The schema (registration) version of `name` — bumped on every
    /// re-register, *not* by ingest — or `None` if unregistered.
    pub fn version(&self, name: &str) -> Option<u64> {
        self.registered(name, |r| r.schema_version)
    }

    /// The data version of `name` — bumped by every write, reset to 1
    /// by (re-)registration — or `None` if unregistered.
    pub fn data_version(&self, name: &str) -> Option<u64> {
        self.registered(name, |r| r.data_version)
    }

    /// Both versions of `name` at once: `(schema, data)`.
    pub(crate) fn versions(&self, name: &str) -> Option<(u64, u64)> {
        self.registered(name, |r| (r.schema_version, r.data_version))
    }

    /// The live row count of `name` ([`TableStats::rows`]), read under
    /// the registry lock: no cut captured, nothing materialised.
    pub(crate) fn rows(&self, name: &str) -> Option<usize> {
        self.registered(name, |r| r.stats.rows())
    }

    /// The live, incrementally maintained statistics of `name`: row
    /// count, zone maps and per-column sampled distinct estimate.
    pub fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.registered(name, |r| r.stats.clone())
    }

    /// The column set of `name`'s schema (sorted), without
    /// materialising the merged view.
    pub(crate) fn schema(&self, name: &str) -> Option<Vec<String>> {
        self.registered(name, |r| {
            r.base
                .column_names()
                .into_iter()
                .map(str::to_string)
                .collect()
        })
    }

    /// Rows currently parked in `name`'s delta store (0 right after
    /// registration or compaction).
    pub fn delta_rows(&self, name: &str) -> Option<usize> {
        self.registered(name, |r| r.delta.rows())
    }

    /// The shared plan cache's hit/miss/eviction/invalidation counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().expect("cache lock").stats()
    }

    /// Plans `query` against the registered `table`, serving repeated
    /// query *shapes* from the shared [`PlanCache`].
    ///
    /// A hit is an entry planned at the table's current data version:
    /// the cached plan is rebound to this query's literal constants —
    /// sound because no literal is an input of the §V-D choice. Such a
    /// hit is found at the table's current versions under the registry
    /// lock and captures no snapshot.
    ///
    /// Anything else — no entry, or one planned before a write — is a
    /// miss: the query is planned from scratch at a snapshot of now,
    /// and the plan replaces the entry.
    ///
    /// # Errors
    ///
    /// [`SqlError::UnknownTable`] for unregistered tables and
    /// [`SqlError::Plan`] for planning problems.
    pub fn plan_query(&self, table: &str, query: &AggregateQuery) -> Result<QueryPlan, SqlError> {
        // A fresh hit needs no cut: looked up at the table's current
        // versions under the registry lock, it is served as `plan_view`
        // serves one, which never reads its view.
        let cached = self
            .registered(table, |r| {
                let shape = QueryShape::of(table, r.schema_version, query);
                let mut cache = self.inner.cache.lock().expect("cache lock");
                cache.lookup(&shape, r.data_version)
            })
            .ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
        if let Some(cached) = cached {
            return Ok(cached.rebind(query));
        }
        // Anything else is planned at a snapshot-of-now: capture a
        // single-table cut, plan at it, release the pin on return — the
        // same (one and only) funnel an explicit snapshot uses.
        let snap = self.snapshot_of(table)?;
        self.plan_at_snapshot(&snap, table, query)
    }

    /// Plans `query` against `table` **at a pinned snapshot**: the
    /// column snapshots, cardinality statistics and the §V-D algorithm
    /// choice all come from the cut the snapshot captured, not from the
    /// live table — a plan made here is reproducible however far the
    /// live statistics have drifted since.
    ///
    /// Shares the [`PlanCache`] with the live path: an entry tagged
    /// with the snapshot's data version is a hit, anything else plans
    /// afresh (see [`SharedCatalogue::plan_query`]), and a plan made
    /// at a cut the table has moved past is not cached — a snapshot
    /// reader never replaces a newer entry.
    ///
    /// # Errors
    ///
    /// [`SqlError::ForeignSnapshot`] if `snap` was cut from a different
    /// catalogue, [`SqlError::UnknownTable`] if the snapshot does not
    /// contain `table`, and [`SqlError::Plan`] for planning problems.
    pub fn plan_query_at(
        &self,
        snap: &Snapshot,
        table: &str,
        query: &AggregateQuery,
    ) -> Result<QueryPlan, SqlError> {
        let mut plan = self.plan_at_snapshot(snap, table, query)?;
        // An explicit-snapshot plan is stamped with its provenance for
        // `EXPLAIN` — *after* the cache interaction, so the shared
        // cache never holds an `as_of` label.
        if let Some(version) = plan.data_version {
            plan.as_of = Some(format!("snapshot@{version}"));
        }
        Ok(plan)
    }

    /// [`SharedCatalogue::plan_query_at`] without the provenance stamp
    /// — the shared body of the live and explicit-snapshot paths.
    fn plan_at_snapshot(
        &self,
        snap: &Snapshot,
        table: &str,
        query: &AggregateQuery,
    ) -> Result<QueryPlan, SqlError> {
        if !snap.catalogue().is_same(self) {
            return Err(SqlError::ForeignSnapshot);
        }
        let cut = snap
            .cut(table)
            .ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
        let view = snap.table(table).expect("cut exists for this table");
        self.plan_view(
            table,
            &ViewRef {
                schema_version: cut.schema_version,
                data_version: cut.data_version,
                table: &view,
                stats: &cut.stats,
            },
            query,
        )
    }

    /// The single planning funnel every read goes through, live or
    /// pinned: serve the shared cache's entry at the view's data
    /// version, plan afresh otherwise.
    fn plan_view(
        &self,
        table: &str,
        view: &ViewRef<'_>,
        query: &AggregateQuery,
    ) -> Result<QueryPlan, SqlError> {
        let shape = QueryShape::of(table, view.schema_version, query);
        let cached = self
            .inner
            .cache
            .lock()
            .expect("cache lock")
            .lookup(&shape, view.data_version);
        if let Some(cached) = cached {
            return Ok(cached.rebind(query));
        }
        let mut plan = self.inner.engine.plan(view.table, query)?;
        plan.data_version = Some(view.data_version);
        stamp_zones(&mut plan, view.stats);
        // Re-check the versions under the locks before caching: a plan
        // made at an old snapshot — or against a table a concurrent
        // re-register/append has moved past our cut — must not park a
        // dead (stale-version) entry in an LRU slot.
        let tables = self.inner.tables.read().expect("catalogue lock");
        let current = tables
            .get(table)
            .map(|r| (r.schema_version, r.data_version));
        let mut cache = self.inner.cache.lock().expect("cache lock");
        if current == Some((view.schema_version, view.data_version)) {
            cache.insert(shape, plan.clone(), view.data_version);
        } else {
            cache.note_miss();
        }
        Ok(plan)
    }
}

/// Stamps a freshly planned query with the view's zone maps: the zone
/// count for `EXPLAIN`, and the WHERE column's `(lo, hi, min, max)`
/// ranges for morsel pruning. Zones are positions
/// in the statistics' view; a plan whose row count disagrees (frozen
/// content drifted past the stats — defensive, should not happen on
/// catalogue paths) gets none, which only disables pruning.
fn stamp_zones(plan: &mut QueryPlan, stats: &TableStats) {
    if stats.rows() != plan.rows() {
        return;
    }
    let zones = stats.zone_maps();
    plan.zone_maps = zones.zones();
    plan.zones = plan
        .query()
        .filter
        .as_ref()
        .and_then(|(col, _)| zones.column_zones(col))
        .map(Arc::from);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Predicate;

    fn catalogue() -> SharedCatalogue {
        let cat = SharedCatalogue::new();
        cat.register(
            Table::new("r")
                .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
                .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0]),
        );
        cat
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let cat = catalogue();
        let q = AggregateQuery::paper("g", "v");
        let p1 = cat.plan_query("r", &q).unwrap();
        let p2 = cat.plan_query("r", &q).unwrap();
        assert_eq!(p1.explain(), p2.explain());
        let s = cat.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn different_literals_share_one_cached_plan() {
        let cat = catalogue();
        let q = |k| AggregateQuery::paper("g", "v").with_filter("v", Predicate::GreaterThan(k));
        cat.plan_query("r", &q(1)).unwrap();
        let rebound = cat.plan_query("r", &q(3)).unwrap();
        assert_eq!(cat.cache_stats().hits, 1, "same shape, new literal");
        // The rebound plan carries the *new* constant everywhere.
        assert!(rebound.explain().contains("VectorFilter(v > 3)"));
        assert_eq!(
            rebound.query().filter,
            Some(("v".into(), Predicate::GreaterThan(3)))
        );
    }

    #[test]
    fn re_register_bumps_version_and_purges_plans() {
        let cat = catalogue();
        assert_eq!(cat.version("r"), Some(1));
        let q = AggregateQuery::paper("g", "v");
        cat.plan_query("r", &q).unwrap();
        let old = cat.register(
            Table::new("r")
                .with_column("g", vec![7, 7])
                .with_column("v", vec![1, 2]),
        );
        assert_eq!(old.unwrap().rows(), 8);
        assert_eq!(cat.version("r"), Some(2));
        assert_eq!(cat.cache_stats().invalidations, 1);
        // The next plan is a fresh miss against the new table.
        let plan = cat.plan_query("r", &q).unwrap();
        assert_eq!(plan.rows(), 2, "plans the new table, not the stale one");
        assert_eq!(cat.cache_stats().hits, 0);
    }

    #[test]
    fn sessions_share_tables_and_cache() {
        let cat = catalogue();
        let mut s1 = cat.connect();
        let mut s2 = cat.connect();
        let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
        let a = s1.execute_sql(sql).unwrap();
        let b = s2.execute_sql(sql).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(cat.cache_stats().hits, 1);
        // Execution state stays per-session.
        assert_eq!(s1.session().queries_run(), 1);
        assert_eq!(s2.session().queries_run(), 1);
    }

    #[test]
    fn unknown_table_is_reported() {
        let e = catalogue()
            .plan_query("nope", &AggregateQuery::paper("g", "v"))
            .unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("nope".into()));
    }

    fn batch(g: Vec<u32>, v: Vec<u32>) -> RowBatch {
        RowBatch::new().with_column("g", g).with_column("v", v)
    }

    #[test]
    fn append_is_visible_and_bumps_only_the_data_version() {
        let cat = catalogue();
        assert_eq!(cat.versions("r"), Some((1, 1)));
        let receipt = cat.append("r", batch(vec![7, 7], vec![1, 1])).unwrap();
        assert_eq!(receipt.rows, 2);
        assert_eq!(receipt.delta_rows, 2);
        assert!(!receipt.compacted);
        assert_eq!(cat.versions("r"), Some((1, 2)), "schema version untouched");
        assert_eq!(cat.delta_rows("r"), Some(2));

        // The read view merges base ++ delta in append order.
        let t = cat.table("r").unwrap();
        assert_eq!(t.rows(), 10);
        assert_eq!(&t.column("g").unwrap()[8..], &[7, 7]);

        // Live statistics absorbed the batch; the view's metadata, which
        // the planner reads, covers it.
        let stats = cat.table_stats("r").unwrap();
        assert_eq!(stats.rows(), 10);
        assert_eq!(t.meta("g").unwrap().max, Some(7));
        let query = crate::query::AggregateQuery::paper("g", "v");
        let plan = cat.plan_query("r", &query).unwrap();
        assert_eq!(plan.cardinality_estimate(), 8);
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let cat = catalogue();
        let receipt = cat.append("r", batch(vec![], vec![])).unwrap();
        assert_eq!(receipt.rows, 0);
        assert_eq!(cat.versions("r"), Some((1, 1)), "no version bump");
    }

    #[test]
    fn append_validates_against_the_schema() {
        use crate::ingest::IngestError;
        let cat = catalogue();
        let e = cat.append("nope", batch(vec![1], vec![1])).unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("nope".into()));
        let e = cat
            .append("r", RowBatch::new().with_column("g", vec![1]))
            .unwrap_err();
        assert_eq!(e, SqlError::Ingest(IngestError::MissingColumn("v".into())));
        assert!(e.to_string().contains("ingest error"));
        assert!(std::error::Error::source(&e).is_some());
        // A rejected batch changes nothing.
        assert_eq!(cat.versions("r"), Some((1, 1)));
        assert_eq!(cat.table("r").unwrap().rows(), 8);
    }

    #[test]
    fn install_rejects_out_of_range_row_ids_and_applies_nothing() {
        let cat = catalogue();
        let state = |cat: &SharedCatalogue| {
            let stats = format!("{:?}", cat.table_stats("r").unwrap());
            (cat.versions("r"), cat.delta_rows("r"), stats)
        };
        let before = state(&cat);
        let ids = |ids: &[u32]| RowSel::Ids(ids.to_vec());
        let mut ops = vec![
            WriteOp::Append {
                table: "r".into(),
                batch: batch(vec![7], vec![7]),
            },
            WriteOp::Delete {
                table: "r".into(),
                rows: ids(&[7]),
            },
            // Row 8 is the row the append above adds: like a
            // predicate, ids name rows that exist before the list.
            WriteOp::Update {
                table: "r".into(),
                rows: ids(&[3, 8]),
                sets: vec![("v".into(), 1)],
            },
        ];
        let e = cat.install(&mut ops).unwrap_err();
        let expect = SqlError::RowOutOfRange {
            table: "r".into(),
            row: 8,
            rows: 8,
        };
        assert_eq!(e, expect);
        assert!(e.to_string().contains("physical row 8"));
        assert_eq!(state(&cat), before, "nothing was applied");
        // The same list without the bad op installs, one version per op.
        ops.pop();
        let done = cat.install(&mut ops).unwrap();
        assert_eq!((done[0].rows, done[1].rows), (1, 1));
        assert_eq!(cat.versions("r"), Some((1, 3)));
        assert_eq!(cat.table("r").unwrap().rows(), 8);
    }

    #[test]
    fn a_write_makes_the_next_lookup_miss_and_replan() {
        let cat = catalogue();
        let q = AggregateQuery::paper("g", "v");
        let p1 = cat.plan_query("r", &q).unwrap();
        assert_eq!(p1.rows(), 8);
        // A small append: the entry was planned at data version 1, so
        // the lookup at version 2 misses and plans the merged view.
        cat.append("r", batch(vec![3, 1], vec![9, 9])).unwrap();
        let p2 = cat.plan_query("r", &q).unwrap();
        assert_eq!(p2.rows(), 10, "planned on the merged view");
        assert_eq!(p2.algorithm(), p1.algorithm());
        let s = cat.cache_stats();
        assert_eq!(
            (s.hits, s.misses, s.invalidations),
            (0, 2, 0),
            "stale entry re-planned and replaced, nothing purged"
        );
        // And the replacement serves as a plain hit.
        cat.plan_query("r", &q).unwrap();
        assert_eq!(cat.cache_stats().hits, 1);
    }

    #[test]
    fn plans_after_an_append_match_a_fresh_registration() {
        let cat = catalogue();
        let q = AggregateQuery::paper("g", "v");
        cat.plan_query("r", &q).unwrap();
        cat.append("r", batch(vec![6, 0, 2], vec![1, 2, 3]))
            .unwrap();
        let replanned = cat.plan_query("r", &q).unwrap();

        let fresh_cat = SharedCatalogue::new();
        fresh_cat.register(cat.table("r").unwrap());
        let fresh = fresh_cat.plan_query("r", &q).unwrap();
        // Identical plans; the explain output differs only in the
        // recorded provenance — data version 2 after the append vs 1
        // on the fresh registration, and zone granularity (the append
        // kept its own zone, the fresh registration re-seeded one).
        assert_eq!(replanned.steps(), fresh.steps());
        assert_eq!(replanned.algorithm(), fresh.algorithm());
        assert_eq!(
            (replanned.data_version(), fresh.data_version()),
            (Some(2), Some(1))
        );
        assert_eq!((replanned.zone_maps(), fresh.zone_maps()), (2, 1));
        assert_eq!(
            replanned
                .explain()
                .replace(" data_version=2", "")
                .replace(" zone_maps=2", ""),
            fresh
                .explain()
                .replace(" data_version=1", "")
                .replace(" zone_maps=1", "")
        );
        assert_eq!(
            replanned.cardinality_estimate(),
            fresh.cardinality_estimate()
        );
        // The plan executes over the merged rows.
        let out = crate::Session::new().run(&replanned);
        let expect = crate::Session::new().run(&fresh);
        assert_eq!(out.rows, expect.rows);
    }

    #[test]
    fn drifted_stats_invalidate_stats_sensitive_entries() {
        use vagg_core::Algorithm;
        let cat = catalogue();
        let q = AggregateQuery::paper("g", "v");
        let before = cat.plan_query("r", &q).unwrap();
        assert_eq!(before.algorithm(), Algorithm::Monotable);
        // Push the cardinality estimate across the §V-D division
        // boundary (9,765 → PartiallySortedMonotable for unsorted
        // input): the re-plan at the new data version flips the choice.
        cat.append("r", batch(vec![20_000], vec![1])).unwrap();
        let after = cat.plan_query("r", &q).unwrap();
        assert_eq!(after.algorithm(), Algorithm::PartiallySortedMonotable);
        assert_eq!(after.cardinality_estimate(), 20_001);
        let s = cat.cache_stats();
        assert_eq!(
            (s.hits, s.misses, s.invalidations),
            (0, 2, 0),
            "the stale entry missed and was replaced, not purged"
        );
    }

    #[test]
    fn compaction_merges_the_delta_and_reseeds_statistics() {
        let cat = catalogue();
        cat.set_compaction_policy(CompactionPolicy::every(3));
        assert_eq!(cat.compaction_policy().max_delta_rows, 3);
        let r1 = cat.append("r", batch(vec![9, 9], vec![1, 1])).unwrap();
        assert!(!r1.compacted);
        assert_eq!(r1.delta_rows, 2);
        let r2 = cat.append("r", batch(vec![9], vec![1])).unwrap();
        assert!(r2.compacted, "third delta row tripped the threshold");
        assert_eq!(r2.delta_rows, 0);
        assert_eq!(cat.delta_rows("r"), Some(0));
        // Logical content is unchanged by compaction.
        let t = cat.table("r").unwrap();
        assert_eq!(t.rows(), 11);
        let stats = cat.table_stats("r").unwrap();
        assert_eq!(stats.rows(), 11);
        assert_eq!(t.meta("g").unwrap().max, Some(9));
        // Further appends start filling a fresh delta over the new base.
        let r3 = cat.append("r", batch(vec![2], vec![2])).unwrap();
        assert_eq!(r3.delta_rows, 1);
        assert!(!r3.compacted);
    }

    #[test]
    fn register_returns_the_logical_content_including_the_delta() {
        let cat = catalogue();
        cat.append("r", batch(vec![7], vec![7])).unwrap();
        let old = cat
            .register(
                Table::new("r")
                    .with_column("g", vec![1])
                    .with_column("v", vec![1]),
            )
            .unwrap();
        assert_eq!(old.rows(), 9, "base (8) plus the un-compacted delta (1)");
        assert_eq!(cat.versions("r"), Some((2, 1)), "data version reset");
        assert_eq!(cat.delta_rows("r"), Some(0));
    }

    #[test]
    fn snapshots_pin_a_point_in_time_view() {
        let cat = catalogue();
        let snap = cat.snapshot();
        cat.append("r", batch(vec![9, 9], vec![1, 1])).unwrap();
        // Live view moved on; the snapshot did not.
        assert_eq!(cat.table("r").unwrap().rows(), 10);
        assert_eq!(snap.table("r").unwrap().rows(), 8);
        assert_eq!(snap.data_version("r"), Some(1));
        assert_eq!(snap.table_stats("r").unwrap().rows(), 8);
        // Plans at the snapshot use the pinned cut.
        let q = AggregateQuery::paper("g", "v");
        let plan = cat.plan_query_at(&snap, "r", &q).unwrap();
        assert_eq!(plan.rows(), 8);
        assert_eq!(plan.data_version(), Some(1));
        let live = cat.plan_query("r", &q).unwrap();
        assert_eq!(live.rows(), 10);
        assert_eq!(live.data_version(), Some(2));
    }

    #[test]
    fn every_live_read_is_a_snapshot_of_now() {
        // The one-read-path proof: the live plan/table path runs
        // through the same snapshot capture as the explicit API, so
        // the snapshot counter moves on every read.
        let cat = catalogue();
        let before = cat.snapshot_stats().snapshots_taken;
        cat.plan_query("r", &AggregateQuery::paper("g", "v"))
            .unwrap();
        cat.table("r").unwrap();
        let stats = cat.snapshot_stats();
        assert_eq!(stats.snapshots_taken, before + 2);
        assert_eq!(stats.live_snapshots, 0, "of-now cuts release on return");
    }

    /// A `Weak` handle to the delta store a snapshot's cut holds.
    fn held_delta(snap: &Snapshot) -> std::sync::Weak<DeltaStore> {
        let delta = snap.cut("r").unwrap().delta.as_ref();
        Arc::downgrade(delta.expect("a dirty view's cut holds the delta"))
    }

    #[test]
    fn compaction_defers_delta_gc_while_pinned_and_reclaims_on_drop() {
        let cat = catalogue();
        cat.set_compaction_policy(CompactionPolicy::every(2));
        cat.append("r", batch(vec![6], vec![1])).unwrap();
        let snap = cat.snapshot(); // holds data version 2's delta (1 row)
        assert_eq!(snap.delta_rows("r"), Some(1));
        let held = held_delta(&snap);

        // This append trips compaction, which installs a fresh store;
        // the snapshot keeps the old one — and compaction itself is not
        // delayed.
        let receipt = cat.append("r", batch(vec![7], vec![1])).unwrap();
        assert!(receipt.compacted, "readers never block the write path");
        assert_eq!(held.strong_count(), 1, "only the snapshot holds it");

        // The snapshot still reads its cut from the store it holds:
        // 8 base rows + 1 delta row, not the 10-row live table.
        assert_eq!(snap.table("r").unwrap().rows(), 9);
        assert_eq!(&snap.table("r").unwrap().column("g").unwrap()[8..], &[6]);
        assert_eq!(cat.table("r").unwrap().rows(), 10);

        // Dropping the snapshot frees the store.
        drop(snap);
        assert!(held.upgrade().is_none(), "the last holder freed it");
        assert_eq!(cat.snapshot_stats().live_snapshots, 0);
    }

    #[test]
    fn re_registration_retires_a_pinned_delta() {
        let cat = catalogue();
        cat.append("r", batch(vec![6, 6], vec![1, 1])).unwrap();
        let snap = cat.snapshot();
        let held = held_delta(&snap);
        cat.register(
            Table::new("r")
                .with_column("g", vec![0])
                .with_column("v", vec![0]),
        );
        // The snapshot still serves the pre-replacement cut.
        let t = snap.table("r").unwrap();
        assert_eq!(t.rows(), 10);
        assert_eq!(cat.table("r").unwrap().rows(), 1);
        assert_eq!(held.strong_count(), 1, "only the snapshot holds it");
        drop(snap);
        assert!(held.upgrade().is_none(), "the last holder freed it");
    }

    #[test]
    fn unpinned_compactions_free_the_delta_without_deferral() {
        let cat = catalogue();
        cat.set_compaction_policy(CompactionPolicy::every(2));
        cat.append("r", batch(vec![6], vec![1])).unwrap();
        let held = held_delta(&cat.snapshot());
        assert_eq!(held.strong_count(), 1, "the registry alone holds it");
        cat.append("r", batch(vec![7], vec![1])).unwrap();
        assert!(held.upgrade().is_none(), "compaction freed it");
    }

    #[test]
    fn a_write_copies_a_held_delta_and_leaves_the_cut_unchanged() {
        let cat = catalogue();
        cat.append("r", batch(vec![6], vec![1])).unwrap();
        let snap = cat.snapshot(); // holds the delta, reads nothing yet
        let held = held_delta(&snap);
        let mut ops = [
            WriteOp::Append {
                table: "r".into(),
                batch: batch(vec![7, 8], vec![2, 2]),
            },
            WriteOp::Delete {
                table: "r".into(),
                rows: RowSel::Ids(vec![0, 8]),
            },
            WriteOp::Update {
                table: "r".into(),
                rows: RowSel::Ids(vec![1]),
                sets: vec![("v".into(), 99)],
            },
        ];
        cat.install(&mut ops).unwrap();
        // The registry wrote to a copy; the held store is the cut.
        assert_eq!(held.strong_count(), 1, "only the snapshot holds it");
        let t = snap.table("r").unwrap();
        assert_eq!(t.column("g"), Some(&[1u32, 3, 3, 0, 0, 5, 2, 4, 6][..]));
        assert_eq!(t.column("v"), Some(&[0u32, 5, 2, 4, 1, 3, 3, 0, 1][..]));
        let live = cat.table("r").unwrap();
        assert_eq!(live.column("g"), Some(&[3u32, 3, 0, 0, 5, 2, 4, 7, 8][..]));
        assert_eq!(live.column("v"), Some(&[99u32, 2, 4, 1, 3, 3, 0, 2, 2][..]));
    }

    #[test]
    fn clean_view_cuts_pin_no_delta_and_never_defer_gc() {
        let cat = catalogue();
        cat.set_compaction_policy(CompactionPolicy::every(3));
        cat.append("r", batch(vec![6], vec![1])).unwrap();
        cat.table("r").unwrap(); // materialises + installs the clean view
        let snap = cat.snapshot(); // the cut carries that view
        assert_eq!(snap.delta_rows("r"), Some(1));
        assert!(snap.cut("r").unwrap().delta.is_none(), "holds no delta");
        // Compaction trips; the snapshot reads its own clean view.
        cat.append("r", batch(vec![7, 8], vec![1, 1])).unwrap();
        assert_eq!(snap.table("r").unwrap().rows(), 9, "still repeatable");
        drop(snap);
    }

    #[test]
    fn snapshots_at_zero_delta_never_block_gc() {
        // A snapshot taken right after registration holds no delta.
        let cat = catalogue();
        cat.set_compaction_policy(CompactionPolicy::every(2));
        let snap = cat.snapshot();
        assert!(snap.cut("r").unwrap().delta.is_none(), "holds no delta");
        cat.append("r", batch(vec![6, 7], vec![1, 1])).unwrap();
        assert_eq!(snap.table("r").unwrap().rows(), 8, "still repeatable");
        drop(snap);
    }

    #[test]
    fn old_snapshots_are_served_from_newer_cache_entries_without_regression() {
        let cat = catalogue();
        let q = AggregateQuery::paper("g", "v");
        let snap = cat.snapshot(); // data version 1
        cat.append("r", batch(vec![3], vec![9])).unwrap();
        // Live plan caches an entry at data version 2.
        cat.plan_query("r", &q).unwrap();
        // The old snapshot misses that entry and plans its own cut,
        // which is not cached: the entry stays at version 2.
        let at = cat.plan_query_at(&snap, "r", &q).unwrap();
        assert_eq!(at.rows(), 8);
        assert_eq!(at.data_version(), Some(1));
        let s = cat.cache_stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        // The live entry was not regressed: the next live lookup is a
        // plain hit at version 2.
        let live = cat.plan_query("r", &q).unwrap();
        assert_eq!(live.rows(), 9);
        assert_eq!(cat.cache_stats().hits, 1);
    }

    #[test]
    fn foreign_snapshots_are_rejected() {
        let cat = catalogue();
        let other = catalogue();
        let snap = other.snapshot();
        let e = cat
            .plan_query_at(&snap, "r", &AggregateQuery::paper("g", "v"))
            .unwrap_err();
        assert_eq!(e, SqlError::ForeignSnapshot);
    }

    #[test]
    fn snapshot_of_a_missing_table_is_unknown_table() {
        let cat = catalogue();
        let snap = cat.snapshot();
        let e = cat
            .plan_query_at(&snap, "nope", &AggregateQuery::paper("g", "v"))
            .unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("nope".into()));
        // A table registered after the cut does not exist in it.
        cat.register(Table::new("late").with_column("g", vec![1]));
        assert!(snap.table("late").is_none());
        assert!(cat.table("late").is_some());
    }
}
