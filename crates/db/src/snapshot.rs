//! MVCC snapshots: immutable point-in-time views of a catalogue.
//!
//! Every read in vagg-db happens **at a snapshot**. A [`Snapshot`] is a
//! consistent cut of a [`crate::SharedCatalogue`] captured under one
//! registry read-lock: for every table it records the schema and data
//! versions, `Arc`-cheap handles to the immutable base columns and to
//! either the merged view or the delta store, and a clone of the live
//! [`TableStats`]. Nothing blocks the write path: appends, compactions
//! and re-registrations proceed freely while snapshots are alive, and
//! the snapshot keeps answering from the rows it captured.
//!
//! * [`crate::Database::run_sql`] / [`crate::Database::execute_sql`]
//!   are *snapshot-of-now* wrappers: each statement captures a
//!   single-table cut, plans and runs at it, and releases it — there is
//!   exactly one read path.
//! * [`crate::Database::run_sql_at`] and
//!   [`crate::PreparedStatement::execute_at`] run at an explicit,
//!   long-lived snapshot: repeatable reads across statements, plans
//!   pinned to the snapshot's statistics (the §V-D choice is made from
//!   the pinned cardinality, not the drifted live one).
//! * SQL `BEGIN READ ONLY` / `COMMIT` map a session onto one snapshot
//!   for the duration of the transaction.
//!
//! ## What keeps a snapshot's rows alive
//!
//! A cut holds `Arc`s to everything it reads: the immutable base's
//! columns, the registry's merged view when it was clean at capture
//! time, and otherwise the table's [`crate::DeltaStore`] itself. The catalogue never
//! writes to a store a snapshot holds — a write copies it first
//! (`Arc::make_mut`), compaction and re-registration install a fresh
//! one — so the held store *is* the cut, and dropping the last holder
//! frees it. No registry tracks readers; the write path never looks at
//! them.
//!
//! ```
//! use vagg_db::{Database, Table};
//!
//! let mut db = Database::new();
//! db.register(
//!     Table::new("r")
//!         .with_column("g", vec![1, 2, 1])
//!         .with_column("v", vec![10, 20, 30]),
//! );
//! let snap = db.snapshot(); // point-in-time view of every table
//! db.run_sql("INSERT INTO r (g, v) VALUES (9, 99)")?;
//! // The live path sees 4 rows; the snapshot still answers with 3.
//! assert_eq!(db.table("r").unwrap().rows(), 4);
//! assert_eq!(snap.table("r").unwrap().rows(), 3);
//! # Ok::<(), vagg_db::SqlError>(())
//! ```

use crate::catalogue::SharedCatalogue;
use crate::delta::{materialise, DeltaStore, TableStats};
use crate::table::Table;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One table's slice of a snapshot: everything needed to rebuild the
/// merged view and to re-plan at the captured statistics, captured
/// under a single registry read-lock.
#[derive(Debug, Clone)]
pub(crate) struct TableCut {
    /// The registration (schema) version the cut belongs to.
    pub(crate) schema_version: u64,
    /// The data version captured by this cut.
    pub(crate) data_version: u64,
    /// The immutable base at capture time (`Arc`-shared columns — this
    /// handle is what keeps a replaced base readable).
    pub(crate) base: Table,
    /// The delta store at capture time, held only when the registry's
    /// merged view was dirty and the delta not empty: nothing writes to
    /// a held store, so it stays exactly the captured state.
    pub(crate) delta: Option<Arc<DeltaStore>>,
    /// Rows parked in the delta at capture time.
    pub(crate) delta_rows: usize,
    /// The live statistics at capture time — what plans made at this
    /// snapshot feed the §V-D policy.
    pub(crate) stats: TableStats,
    /// The registry's already-materialised merged view, when it was
    /// clean at capture time (reads at this cut are then free).
    pub(crate) clean_view: Option<Table>,
}

/// Observability counters for the snapshot subsystem of one catalogue
/// (see [`crate::SharedCatalogue::snapshot_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SnapshotStats {
    /// Snapshots currently alive (captured, not yet dropped).
    pub live_snapshots: u64,
    /// Snapshots captured so far — including the snapshot-of-now cuts
    /// every [`crate::Database::run_sql`] read takes, so this counter
    /// is also the proof that the live path runs through the one
    /// snapshot read path.
    pub snapshots_taken: u64,
}

impl SnapshotStats {
    /// Folds these counters into a [`crate::MetricsSnapshot`] — the
    /// MVCC subsystem's contribution to the unified registry view.
    pub(crate) fn export_into(&self, snap: &mut crate::metrics::MetricsSnapshot) {
        snap.add("snapshots_live", self.live_snapshots);
        snap.add("snapshots_taken", self.snapshots_taken);
    }

    /// Folds another catalogue's counters into this one (the sharded
    /// observability view: one registry per shard).
    pub(crate) fn absorb(&mut self, other: &SnapshotStats) {
        self.live_snapshots += other.live_snapshots;
        self.snapshots_taken += other.snapshots_taken;
    }
}

/// An immutable, consistent point-in-time view of a catalogue. Captured
/// by [`crate::SharedCatalogue::snapshot`] /
/// [`crate::Database::snapshot`]; dropping it releases what it holds.
pub struct Snapshot {
    catalogue: SharedCatalogue,
    cuts: BTreeMap<String, TableCut>,
    /// Merged views materialised on first read, per table.
    views: Mutex<BTreeMap<String, Table>>,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let versions: BTreeMap<&str, u64> = self
            .cuts
            .iter()
            .map(|(t, c)| (t.as_str(), c.data_version))
            .collect();
        f.debug_struct("Snapshot")
            .field("tables", &versions)
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    pub(crate) fn over(catalogue: SharedCatalogue, cuts: BTreeMap<String, TableCut>) -> Self {
        Self {
            catalogue,
            cuts,
            views: Mutex::new(BTreeMap::new()),
        }
    }

    /// The catalogue this snapshot was cut from.
    pub fn catalogue(&self) -> &SharedCatalogue {
        &self.catalogue
    }

    /// Tables captured in this snapshot, sorted. The full-catalogue
    /// [`crate::SharedCatalogue::snapshot`] captures every table; the
    /// snapshot-of-now cuts behind `run_sql` capture only the table the
    /// statement reads.
    pub fn table_names(&self) -> Vec<String> {
        self.cuts.keys().cloned().collect()
    }

    /// The pinned data version of `table` — what every read and plan at
    /// this snapshot sees, regardless of later ingest.
    pub fn data_version(&self, table: &str) -> Option<u64> {
        self.cuts.get(table).map(|c| c.data_version)
    }

    /// The schema (registration) version of `table` at capture time.
    pub fn schema_version(&self, table: &str) -> Option<u64> {
        self.cuts.get(table).map(|c| c.schema_version)
    }

    /// Rows that were parked in the table's delta store at capture
    /// time.
    pub fn delta_rows(&self, table: &str) -> Option<usize> {
        self.cuts.get(table).map(|c| c.delta_rows)
    }

    /// The table statistics at capture time — the numbers plans made at
    /// this snapshot feed the §V-D policy.
    pub fn table_stats(&self, table: &str) -> Option<TableStats> {
        self.cuts.get(table).map(|c| c.stats.clone())
    }

    /// The captured content of `table`: base ++ delta, merged at the
    /// captured versions (materialised on first read from the cut's own
    /// `Arc`s, under no catalogue lock, and cached for the snapshot's
    /// lifetime; column data is `Arc`-shared).
    pub fn table(&self, table: &str) -> Option<Table> {
        let cut = self.cuts.get(table)?;
        if let Some(view) = self.views.lock().expect("snapshot view lock").get(table) {
            return Some(view.clone());
        }
        let view = match (&cut.clean_view, &cut.delta) {
            (Some(v), _) => v.clone(),
            (None, Some(delta)) => {
                let view = materialise(&cut.base, delta, delta.cut());
                self.catalogue.offer_view(table, cut, &view);
                view
            }
            (None, None) => cut.base.clone(),
        };
        self.views
            .lock()
            .expect("snapshot view lock")
            .insert(table.to_string(), view.clone());
        Some(view)
    }

    /// The cut backing `table`, for the catalogue's planner.
    pub(crate) fn cut(&self, table: &str) -> Option<&TableCut> {
        self.cuts.get(table)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.catalogue.release_snapshot();
    }
}
