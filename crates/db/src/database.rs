//! A session over a (possibly shared) catalogue — the outermost layer
//! of the mini column-store.
//!
//! A [`Database`] pairs one long-lived [`Session`] (execution: a
//! simulated machine reused across queries) with one shard — a handle
//! to a [`SharedCatalogue`] (planning: tables, the [`Engine`], and the
//! shared plan cache) and, when opened durable, its write-ahead log.
//! Statements are planned through the catalogue — repeated query shapes
//! hit the [`crate::PlanCache`] — and executed on this session's
//! machine. [`SharedCatalogue::connect`] opens more sessions over the
//! same tables for concurrent serving.
//!
//! A `Database` is the one-shard case of a [`crate::ShardedDatabase`]:
//! both plan, join, record and commit through the one front-end of
//! [`crate::shard`], and this module holds only what a single session
//! adds — its machine, `BEGIN` / `COMMIT` state, `AS OF` reads of
//! frozen versions and `CREATE SNAPSHOT`.
//!
//! ```
//! use vagg_db::{Database, Table};
//!
//! let mut db = Database::new();
//! db.register(
//!     Table::new("people")
//!         .with_column("age", vec![4, 3, 4, 5, 3])
//!         .with_column("earnings", vec![24, 11, 24, 10, 15]),
//! );
//! let out = db.execute_sql(
//!     "SELECT age, COUNT(*), SUM(earnings) FROM people GROUP BY age",
//! )?;
//! assert_eq!(out.rows.len(), 3);
//!
//! // EXPLAIN returns the typed plan without executing anything.
//! let plan = db.explain_sql(
//!     "EXPLAIN SELECT age, COUNT(*), SUM(earnings) FROM people GROUP BY age",
//! )?;
//! println!("{}", plan.explain());
//! # Ok::<(), vagg_db::SqlError>(())
//! ```

use crate::cache::CacheStats;
use crate::cancel::{CancelCause, CancelToken};
use crate::catalogue::{Installed, RowSel, SharedCatalogue, WriteOp};
use crate::delta::TableStats;
use crate::engine::{Engine, QueryOutput};
use crate::ingest::{IngestError, IngestReceipt, RowBatch};
use crate::join::{join_read, plan_join, JoinPlan};
use crate::metrics::{MetricsSnapshot, SlowQuery};
use crate::plan::{PlanError, QueryPlan};
use crate::prepared::PreparedStatement;
use crate::read::{check_cancel, Schedule};
use crate::session::Session;
use crate::shard::{Commit, Front, Shard, Vouch};
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::sql::{parse_statement, AsOf, ParseSqlError, SqlQuery, Statement};
use crate::table::Table;
use crate::trace::{AnalyzedQuery, QueryTrace};
use crate::wal::{WalError, WalRecord};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::slice;

/// Why a SQL statement failed to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SqlError {
    /// The statement did not parse.
    Parse(ParseSqlError),
    /// The `FROM` table is not registered.
    UnknownTable(String),
    /// The planner rejected the query (typed: unknown column, empty
    /// table, AVG predicate...).
    Plan(PlanError),
    /// An `EXPLAIN` statement was passed to [`Database::execute_sql`],
    /// which returns rows; use [`Database::run_sql`] or
    /// [`Database::explain_sql`] for plans.
    ExplainStatement,
    /// An `INSERT` statement was passed to an API that returns rows or
    /// plans ([`Database::execute_sql`], [`Database::explain_sql`],
    /// [`crate::ShardedDatabase::run_sql`]); use [`Database::run_sql`]
    /// (single session) or [`crate::ShardedDatabase::insert_sql`]
    /// (sharded) for ingest.
    InsertStatement,
    /// The write path rejected a batch: the typed reason (unknown,
    /// missing or duplicate column, ragged lengths).
    Ingest(IngestError),
    /// A write (`INSERT`) was attempted through a read-only view: at an
    /// explicit [`crate::Snapshot`] ([`Database::run_sql_at`]) or
    /// inside a `BEGIN READ ONLY` transaction. Snapshots are immutable
    /// point-in-time cuts; run the write on the live database, outside
    /// the transaction.
    ReadOnly,
    /// `BEGIN` was issued while a transaction is already open;
    /// transactions do not nest. `COMMIT` or `ROLLBACK` first.
    NestedTransaction,
    /// `COMMIT` / `ROLLBACK` was issued with no open transaction.
    NoOpenTransaction,
    /// A `BEGIN READ ONLY` / `COMMIT` bracket was passed to an API
    /// that cannot manage transaction state
    /// ([`Database::execute_sql`], [`Database::explain_sql`],
    /// [`Database::run_sql_at`], the sharded SQL entry points, …);
    /// use [`Database::run_sql`].
    TransactionStatement,
    /// A [`crate::Snapshot`] cut from one catalogue was used to read
    /// another ([`Database::run_sql_at`],
    /// [`crate::SharedCatalogue::plan_query_at`],
    /// [`crate::PreparedStatement::execute_at`]): the pinned cut
    /// describes tables the target catalogue does not own. Capture the
    /// snapshot from the catalogue that executes it.
    ForeignSnapshot,
    /// A [`crate::ShardedSnapshot`] cut from one shard layout was used
    /// to read a [`crate::ShardedDatabase`] with a different shard
    /// count — the per-shard cuts cannot be paired with the shards.
    SnapshotShardMismatch {
        /// Shards the snapshot was cut from.
        snapshot: usize,
        /// Shards the reading database has.
        database: usize,
    },
    /// A write statement that is not an `INSERT` (`DELETE`, `UPDATE`,
    /// `CREATE SNAPSHOT`) was passed to an API that returns rows or
    /// plans; use [`Database::run_sql`] (single session) or
    /// [`crate::ShardedDatabase::mutate_sql`] (sharded).
    MutationStatement,
    /// `CREATE SNAPSHOT` / `AS OF` on a [`crate::ShardedDatabase`]:
    /// named versions and time travel are per-catalogue features, and
    /// freezing each shard independently would not be an atomic
    /// cross-shard state. Capture a [`crate::ShardedSnapshot`] for
    /// consistent cross-shard reads instead.
    ShardedTimeTravel,
    /// The write-ahead log could not be written or replayed (the typed
    /// [`WalError`] carries the reason — torn tail, checksum mismatch,
    /// out-of-order LSN, I/O failure).
    Wal(WalError),
    /// An `AS OF <name>` read (or a duplicate `CREATE SNAPSHOT`)
    /// named a snapshot that does not exist.
    UnknownSnapshot(String),
    /// `CREATE SNAPSHOT` with a name that is already taken — named
    /// versions are immutable; pick a new name.
    SnapshotExists(String),
    /// An `AS OF data_version N` read named a version whose delta
    /// generation a compaction or re-registration has folded away.
    /// `CREATE SNAPSHOT` makes a version durable across compaction.
    VersionUnavailable {
        /// The table read.
        table: String,
        /// The unavailable data version.
        version: u64,
    },
    /// The query's [`crate::CancelToken`] tripped at a morsel boundary
    /// before the answer was complete — the [`CancelCause`] says
    /// whether it was an explicit cancel, a wall-clock timeout, or an
    /// exhausted morsel budget. Any partial work was discarded; the
    /// catalogue is untouched.
    Cancelled(CancelCause),
    /// A write named a physical row the table does not have — only a
    /// replayed write-ahead-log record can (live statements resolve
    /// their rows under the lock that installs them), so the log passed
    /// its checksums but does not describe this table. Nothing was
    /// applied.
    RowOutOfRange {
        /// The table written.
        table: String,
        /// The offending physical row id.
        row: u32,
        /// Physical rows the table has.
        rows: usize,
    },
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "parse error: {e}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            SqlError::Plan(e) => write!(f, "planning error: {e}"),
            SqlError::ExplainStatement => write!(
                f,
                "EXPLAIN produces a plan, not rows; use run_sql or explain_sql"
            ),
            SqlError::InsertStatement => write!(
                f,
                "INSERT ingests rows and returns no row set or plan; use \
                 run_sql (or ShardedDatabase::insert_sql)"
            ),
            SqlError::Ingest(e) => write!(f, "ingest error: {e}"),
            SqlError::ReadOnly => write!(
                f,
                "snapshots and READ ONLY transactions cannot write; run \
                 INSERT on the live database, outside the transaction"
            ),
            SqlError::NestedTransaction => write!(
                f,
                "a transaction is already open; transactions do not \
                 nest — COMMIT or ROLLBACK first"
            ),
            SqlError::NoOpenTransaction => {
                write!(f, "COMMIT / ROLLBACK without an open transaction")
            }
            SqlError::TransactionStatement => write!(
                f,
                "BEGIN READ ONLY / COMMIT manage session transaction \
                 state; use run_sql"
            ),
            SqlError::ForeignSnapshot => write!(
                f,
                "the snapshot was cut from a different catalogue; \
                 capture it from the catalogue that executes it"
            ),
            SqlError::SnapshotShardMismatch { snapshot, database } => write!(
                f,
                "snapshot cut from {snapshot} shard(s) cannot serve \
                 reads on a {database}-shard database"
            ),
            SqlError::MutationStatement => write!(
                f,
                "DELETE / UPDATE / CREATE SNAPSHOT return receipts, not \
                 rows or plans; use run_sql (or ShardedDatabase::mutate_sql)"
            ),
            SqlError::ShardedTimeTravel => write!(
                f,
                "CREATE SNAPSHOT / AS OF are per-catalogue; a sharded \
                 database cannot freeze an atomic cross-shard state — \
                 capture a ShardedSnapshot for consistent reads"
            ),
            SqlError::Wal(e) => write!(f, "write-ahead log error: {e}"),
            SqlError::UnknownSnapshot(name) => {
                write!(f, "unknown snapshot {name:?}")
            }
            SqlError::SnapshotExists(name) => write!(
                f,
                "snapshot {name:?} already exists; named versions are \
                 immutable — pick a new name"
            ),
            SqlError::VersionUnavailable { table, version } => write!(
                f,
                "data version {version} of table {table:?} is no longer \
                 reconstructible (compacted away); CREATE SNAPSHOT keeps \
                 a version durable"
            ),
            SqlError::Cancelled(cause) => write!(f, "query cancelled: {cause}"),
            SqlError::RowOutOfRange { table, row, rows } => write!(
                f,
                "write names physical row {row} of table {table:?}, which \
                 has {rows}"
            ),
        }
    }
}

impl Error for SqlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SqlError::Parse(e) => Some(e),
            SqlError::Plan(e) => Some(e),
            SqlError::Ingest(e) => Some(e),
            SqlError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for SqlError {
    fn from(e: WalError) -> Self {
        SqlError::Wal(e)
    }
}

impl From<ParseSqlError> for SqlError {
    fn from(e: ParseSqlError) -> Self {
        SqlError::Parse(e)
    }
}

impl From<PlanError> for SqlError {
    fn from(e: PlanError) -> Self {
        SqlError::Plan(e)
    }
}

/// What a `DELETE` or `UPDATE` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReceipt {
    /// Rows tombstoned (`DELETE`) or overwritten (`UPDATE`).
    pub rows: usize,
    /// The table's data version after the mutation (unchanged when no
    /// row matched).
    pub data_version: u64,
}

/// What [`Database::explain_sql`] planned: a single-table aggregate
/// plan, or — when the statement has a `JOIN` clause — the typed join
/// plan with its adaptive build-side and exchange-strategy decision.
#[derive(Debug, Clone)]
pub enum ExplainOutput {
    /// A single-table aggregate [`QueryPlan`].
    Plan(Box<QueryPlan>),
    /// A two-table [`JoinPlan`].
    Join(Box<JoinPlan>),
}

impl ExplainOutput {
    /// The rendered plan, whichever kind it is.
    pub fn explain(&self) -> String {
        match self {
            ExplainOutput::Plan(p) => p.explain(),
            ExplainOutput::Join(j) => j.explain(),
        }
    }

    /// The single-table plan, if the statement had no `JOIN` clause.
    pub fn plan(&self) -> Option<&QueryPlan> {
        match self {
            ExplainOutput::Plan(p) => Some(p),
            ExplainOutput::Join(_) => None,
        }
    }

    /// The join plan, if the statement had a `JOIN` clause.
    pub fn join(&self) -> Option<&JoinPlan> {
        match self {
            ExplainOutput::Plan(_) => None,
            ExplainOutput::Join(j) => Some(j),
        }
    }
}

/// What one SQL statement produced.
#[derive(Debug, Clone)]
pub enum SqlOutcome {
    /// A `SELECT` executed on the session.
    Rows(QueryOutput),
    /// An `EXPLAIN SELECT` planned without executing (boxed: a plan
    /// carries column snapshots and is much larger than a row batch).
    Plan(Box<QueryPlan>),
    /// An `EXPLAIN` of a two-table `JOIN` statement: the adaptive
    /// build-side and exchange-strategy decision, without executing.
    JoinPlan(Box<JoinPlan>),
    /// An `EXPLAIN ANALYZE` executed with tracing on: the rows —
    /// bit-identical to the untraced `SELECT` — plus the
    /// estimated-vs-actual execution trace (see [`AnalyzedQuery`]).
    Analyzed(Box<AnalyzedQuery>),
    /// An `INSERT` appended rows through the write path; the receipt
    /// reports the row count, the delta fill and whether the append
    /// tripped a compaction.
    Inserted(IngestReceipt),
    /// A `DELETE` tombstoned rows.
    Deleted(MutationReceipt),
    /// An `UPDATE` overwrote rows.
    Updated(MutationReceipt),
    /// A write statement inside an open `BEGIN` transaction was
    /// buffered; the count is the transaction's queued statements so
    /// far. Nothing is visible or durable until `COMMIT`.
    Queued(usize),
    /// A `BEGIN` opened a transaction: read-only (the session captured
    /// one snapshot and every statement until `COMMIT` reads at it) or
    /// write (statements buffer until `COMMIT` installs them
    /// atomically).
    TransactionBegun,
    /// A `COMMIT` closed the open transaction — released a read-only
    /// transaction's snapshot, or installed a write transaction's
    /// buffered statements in one atomic step.
    TransactionCommitted,
    /// A `ROLLBACK` discarded the open transaction.
    TransactionRolledBack,
    /// A `CREATE SNAPSHOT` froze the current state under a durable
    /// name.
    SnapshotCreated,
}

/// The session's transaction state.
enum TxnState {
    /// No open transaction: every statement autocommits.
    None,
    /// `BEGIN READ ONLY`: all reads at this pinned snapshot.
    Read(Snapshot),
    /// `BEGIN`: writes buffer here until `COMMIT`; reads see the
    /// committed state (the transaction's own writes are not visible
    /// to it before commit). `INSERT`s are validated when queued;
    /// `DELETE`/`UPDATE` predicates stay symbolic and are resolved at
    /// `COMMIT`, against the then-committed state.
    Write(Vec<WriteOp>),
}

/// One session over a [`SharedCatalogue`]: planning goes through the
/// catalogue (tables, [`Engine`], shared plan cache), execution runs on
/// this session's own [`Session`] machine. It is the one-shard case of
/// a [`crate::ShardedDatabase`]: both plan, join, record and commit
/// through one front-end, and this type adds only the session machine,
/// transaction state, `AS OF` and `CREATE SNAPSHOT`.
///
/// Every read happens at a [`Snapshot`]. A bare [`Database::run_sql`]
/// captures a snapshot-of-now per statement; `BEGIN READ ONLY` pins
/// the session to one snapshot until `COMMIT`; and
/// [`Database::run_sql_at`] reads at an explicit snapshot the caller
/// holds — all three are the same read path.
///
/// A database opened with [`Database::open`] is additionally
/// **durable**: every write is recorded in a write-ahead log in the
/// database directory before the call returns, and reopening the path
/// replays the log back to exactly the committed pre-crash state (a
/// damaged log is a typed [`crate::WalError`]). Durability is owned by
/// the opening session — write through it, not through extra
/// [`SharedCatalogue::connect`] handles, which would bypass the log.
pub struct Database {
    /// The catalogue and, when durable, its write-ahead log.
    shard: Shard,
    session: Session,
    txn: TxnState,
    /// The token of the [`Database::run_cancellable`] call in flight:
    /// every read made inside it carries it on its request.
    cancel: Option<CancelToken>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("session", &self.session)
            .field("in_transaction", &self.in_transaction())
            .field("durable", &self.shard.is_durable())
            .finish_non_exhaustive()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database with the paper's machine configuration.
    pub fn new() -> Self {
        Self::with_engine(Engine::new())
    }

    /// A database with a custom engine (e.g. a different `SimConfig`);
    /// the session machine uses the engine's configuration.
    pub fn with_engine(engine: Engine) -> Self {
        SharedCatalogue::with_engine(engine).connect()
    }

    /// A new session over a shard: an existing catalogue (what
    /// [`SharedCatalogue::connect`] returns) or a durable one.
    pub(crate) fn over(shard: Shard) -> Self {
        let session = Session::with_config(shard.catalogue.engine().config().clone());
        Self {
            shard,
            session,
            txn: TxnState::None,
            cancel: None,
        }
    }

    /// Opens (or creates) a **durable** database at `path`: a directory
    /// holding one write-ahead log. Every write through the returned
    /// session — registration, `INSERT`/`DELETE`/`UPDATE`, transaction
    /// commits, `CREATE SNAPSHOT` — is logged before the call returns;
    /// reopening the same path replays the log and reconstructs the
    /// committed state exactly (uncommitted transactions roll back by
    /// omission). A torn log tail — the signature of a crash mid-append
    /// — is truncated to the last valid record; real corruption
    /// (mid-log checksum failure, out-of-order LSNs) is a typed
    /// [`SqlError::Wal`].
    ///
    /// ```
    /// let dir = vagg_db::TempDir::new("open-doc");
    /// let mut db = vagg_db::Database::open(dir.path())?;
    /// db.register(vagg_db::Table::new("r").with_column("g", vec![1, 2, 1]));
    /// db.run_sql("INSERT INTO r (g) VALUES (2)")?;
    /// drop(db); // crash stand-in
    /// let mut db = vagg_db::Database::open(dir.path())?;
    /// assert_eq!(db.table("r").unwrap().rows(), 4);
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SqlError> {
        Ok(Self::over(Shard::open(path.as_ref(), &BTreeSet::new())?))
    }

    /// Whether this session owns a write-ahead log (was opened with
    /// [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.shard.is_durable()
    }

    /// The catalogue this session plans through. Clone the handle to
    /// open further concurrent sessions over the same tables:
    /// `db.catalogue().connect()`.
    pub fn catalogue(&self) -> &SharedCatalogue {
        &self.shard.catalogue
    }

    /// Registers a table under its own name, replacing any previous table
    /// with that name (the replaced table is returned). Re-registering
    /// invalidates every cached plan for the table — see
    /// [`SharedCatalogue::register`]. Visible to every session sharing
    /// this catalogue.
    ///
    /// On a durable database the registration is recorded in the
    /// write-ahead log before this returns. The signature cannot carry
    /// a WAL error, so a log-write failure here panics — losing a
    /// registration silently would corrupt every later replay.
    pub fn register(&mut self, table: Table) -> Option<Table> {
        let mut commit = Commit::begin(slice::from_mut(&mut self.shard), Vouch::Autocommit);
        let old = commit.register(0, table);
        commit
            .finish(&[])
            .expect("write-ahead log append failed during register");
        old
    }

    /// Looks up a registered table (a cheap clone: column data is
    /// `Arc`-shared).
    pub fn table(&self, name: &str) -> Option<Table> {
        self.shard.catalogue.table(name)
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.shard.catalogue.table_names()
    }

    /// The execution session (for cumulative cost accounting).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The shared plan cache's counters — hits, misses, evictions and
    /// invalidations across every session of this catalogue.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.shard.catalogue.cache_stats()
    }

    /// Appends a columnar batch of rows to a registered table — the
    /// bulk entry of the write path (see
    /// [`SharedCatalogue::append`]): rows land in the table's delta
    /// store, the live statistics absorb them, the table's *data*
    /// version bumps, and a threshold compaction may fold the delta
    /// into the base. Visible to every session sharing this catalogue.
    ///
    /// ```
    /// use vagg_db::{Database, RowBatch, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(Table::new("r").with_column("g", vec![1, 2]));
    /// let receipt = db.append_rows("r", RowBatch::new().with_column("g", vec![3]))?;
    /// assert_eq!(receipt.rows, 1);
    /// assert_eq!(db.table("r").unwrap().rows(), 3);
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SqlError::UnknownTable`] for unregistered tables and
    /// [`SqlError::Ingest`] for batches that do not fit the schema. On
    /// a durable database the batch is logged (and the log flushed)
    /// before this returns; if the append then trips a compaction the
    /// log is checkpointed — rewritten as one image per table. This is
    /// the one-op case of the committer every write goes through
    /// (ARCHITECTURE.md, "Write path").
    pub fn append_rows(&mut self, table: &str, batch: RowBatch) -> Result<IngestReceipt, SqlError> {
        self.shard.append(table, batch)
    }

    /// The live, incrementally maintained statistics of a registered
    /// table (row count, zone maps and the per-column sampled distinct
    /// estimate). Sortedness and maximum are the view's
    /// ([`Database::table`], [`crate::ColumnMeta`]).
    pub fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.shard.catalogue.table_stats(name)
    }

    /// The data version of a registered table — bumped by every
    /// appended batch, reset by (re-)registration.
    pub fn data_version(&self, name: &str) -> Option<u64> {
        self.shard.catalogue.data_version(name)
    }

    /// Captures an immutable point-in-time view of every registered
    /// table (see [`SharedCatalogue::snapshot`]): reads at it stay
    /// repeatable while ingest, compaction and re-registration proceed
    /// on the live catalogue. Dropping the snapshot releases its pins.
    ///
    /// ```
    /// use vagg_db::{Database, SqlOutcome, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(Table::new("r").with_column("g", vec![1, 2, 1]));
    /// let snap = db.snapshot();
    /// db.run_sql("INSERT INTO r (g) VALUES (3), (3)")?;
    /// let at = db.run_sql_at(&snap, "SELECT g, COUNT(*) FROM r GROUP BY g")?;
    /// match at {
    ///     SqlOutcome::Rows(out) => assert_eq!(out.rows.len(), 2), // not 3
    ///     other => unreachable!("SELECT returns rows: {other:?}"),
    /// }
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    pub fn snapshot(&self) -> Snapshot {
        self.shard.catalogue.snapshot()
    }

    /// The snapshot subsystem's observability counters — live pins,
    /// oldest pinned data version, deferred/reclaimed GCs (see
    /// [`SharedCatalogue::snapshot_stats`]).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.shard.catalogue.snapshot_stats()
    }

    /// Whether a transaction (`BEGIN` or `BEGIN READ ONLY`) is open on
    /// this session.
    pub fn in_transaction(&self) -> bool {
        !matches!(self.txn, TxnState::None)
    }

    /// Plans a read without executing it.
    fn explain(&self, q: &SqlQuery, at: Option<&Snapshot>) -> Result<ExplainOutput, SqlError> {
        match &q.as_of {
            Some(as_of) => Ok(plan_as_of(self.catalogue(), q, as_of)?.0),
            None => front(&self.shard, &self.txn, at).explain(q),
        }
    }

    /// **The** read path of this session: the front-end every database
    /// reads through, on this session's machine ([`Schedule::Inline`])
    /// — or, for `AS OF`, a plan of the frozen version finished the
    /// same way. `run_sql`, `run_sql_at`, `run_sql_cancellable`,
    /// `execute_sql` and a prepared statement's bound query differ only
    /// in the snapshot they read `at` and whether they `trace`; the
    /// token of the call they are made under
    /// ([`Database::run_cancellable`]) rides on every one.
    pub(crate) fn select(
        &mut self,
        q: &SqlQuery,
        sql: &str,
        at: Option<&Snapshot>,
        trace: bool,
    ) -> Result<(QueryOutput, Option<QueryTrace>), SqlError> {
        let front = front(&self.shard, &self.txn, at);
        let schedule = Schedule::Inline(&mut self.session);
        let cancel = self.cancel.as_ref();
        let mut out = match &q.as_of {
            None => front.select(q, sql, trace, schedule, cancel)?,
            Some(as_of) => {
                let mut trace = trace.then(|| QueryTrace::new(sql.trim().to_string()));
                let planned = match plan_as_of(&self.shard.catalogue, q, as_of)? {
                    (ExplainOutput::Plan(plan), _) => (vec![Some(*plan)], Vec::new()),
                    (ExplainOutput::Join(plan), sides) => {
                        let (engine, (l, r)) = (self.shard.catalogue.engine(), sides.split_at(1));
                        join_read(engine, *plan, l, r, &schedule, cancel, trace.as_mut())?
                    }
                };
                front.finish(sql, planned, trace, schedule, cancel)?
            }
        };
        let trace = out.trace.take().map(|trace| *trace);
        Ok((out.into(), trace))
    }

    /// Runs one parsed read statement: `EXPLAIN` plans, `SELECT`
    /// executes, `EXPLAIN ANALYZE` executes with tracing on.
    fn read(
        &mut self,
        stmt: Statement,
        sql: &str,
        at: Option<&Snapshot>,
    ) -> Result<SqlOutcome, SqlError> {
        let explain = matches!(stmt, Statement::Explain(_));
        let trace = matches!(stmt, Statement::ExplainAnalyze(_));
        let q = select_of(stmt)?;
        if explain {
            return Ok(match self.explain(&q, at)? {
                ExplainOutput::Plan(plan) => SqlOutcome::Plan(plan),
                ExplainOutput::Join(plan) => SqlOutcome::JoinPlan(plan),
            });
        }
        let (output, trace) = self.select(&q, sql, at, trace)?;
        Ok(match trace {
            Some(trace) => SqlOutcome::Analyzed(Box::new(AnalyzedQuery { output, trace })),
            None => SqlOutcome::Rows(output),
        })
    }

    /// Parses and runs one SQL statement — the general entry point, and
    /// the home of the statement semantics the narrower entry points
    /// ([`Database::run_sql_at`], [`Database::run_sql_cancellable`],
    /// [`Database::execute_sql`]) share. `SELECT` executes on the
    /// session and returns rows, `EXPLAIN SELECT` returns the typed
    /// plan without executing, `EXPLAIN ANALYZE SELECT` executes with
    /// tracing on and returns [`SqlOutcome::Analyzed`] (the rows —
    /// bit-identical, cycles included — plus the per-step span tree),
    /// `INSERT` appends rows through the write path, `DELETE` /
    /// `UPDATE` tombstone / overwrite matching rows, `CREATE SNAPSHOT`
    /// freezes the current state under a durable name (readable later
    /// with `AS OF <name>`), and `BEGIN [READ ONLY]` / `COMMIT` /
    /// `ROLLBACK` bracket transactions. Planning is served from the
    /// shared [`crate::PlanCache`] when the query's shape was seen
    /// before.
    ///
    /// Every read executes through the one read driver (ARCHITECTURE.md,
    /// "Read path"): `report.cycles` is the simulated work on the staged
    /// columns; HAVING / ORDER BY / LIMIT over the output table are host
    /// steps. Every read happens at a [`Snapshot`]: a bare statement
    /// captures a snapshot-of-now; between `BEGIN READ ONLY` and
    /// `COMMIT` all statements read at the transaction's pinned
    /// snapshot, so a multi-statement report sees one consistent
    /// database however much concurrent ingest lands in between (writes
    /// inside the transaction are rejected with [`SqlError::ReadOnly`]).
    ///
    /// Every write goes through the one committer (ARCHITECTURE.md,
    /// "Write path"): install under one catalogue lock, log, flush, then
    /// the compaction check — an autocommit statement is a list of one.
    /// Between a bare `BEGIN` and `COMMIT`, write statements buffer
    /// ([`SqlOutcome::Queued`]) and install atomically at `COMMIT`:
    /// other sessions see all of the transaction or none of it, and on
    /// a durable database the commit record makes it all-or-nothing
    /// across a crash too. Reads inside a write transaction see the
    /// committed state — the transaction's own buffered writes are not
    /// visible to it before `COMMIT`, and `DELETE` / `UPDATE`
    /// predicates are resolved at `COMMIT` time. `ROLLBACK` discards
    /// the buffer.
    ///
    /// `SELECT ... FROM t AS OF <name>` / `AS OF data_version N` reads
    /// a named or numbered frozen version regardless of transaction
    /// state — time travel names an explicit state, so it bypasses the
    /// snapshot machinery (and the plan cache).
    ///
    /// ```
    /// use vagg_db::{Database, SqlOutcome, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(
    ///     Table::new("r")
    ///         .with_column("g", vec![1, 2, 1])
    ///         .with_column("v", vec![10, 20, 30]),
    /// );
    /// match db.run_sql("SELECT g, SUM(v) FROM r GROUP BY g")? {
    ///     SqlOutcome::Rows(out) => assert_eq!(out.rows.len(), 2),
    ///     other => unreachable!("SELECT executes: {other:?}"),
    /// }
    /// // The same shape with a different literal is a cache hit.
    /// db.run_sql("SELECT g, SUM(v) FROM r WHERE v > 10 GROUP BY g")?;
    /// db.run_sql("SELECT g, SUM(v) FROM r WHERE v > 25 GROUP BY g")?;
    /// assert_eq!(db.plan_cache_stats().hits, 1);
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SqlError::Parse`] for malformed statements,
    /// [`SqlError::UnknownTable`] for unregistered tables, and
    /// [`SqlError::Plan`] (carrying a typed [`PlanError`]) for planning
    /// problems.
    pub fn run_sql(&mut self, sql: &str) -> Result<SqlOutcome, SqlError> {
        self.run_statement(sql)
    }

    /// [`Database::run_sql`] under a [`CancelToken`]: a `SELECT` runs in
    /// [`crate::DEFAULT_MORSEL_ROWS`]-row ranges with the token checked
    /// before each one (a join polls per range of its host-side build
    /// and probe, then per range of the aggregation), so a tripped token
    /// surfaces [`SqlError::Cancelled`] within one range's work; rows
    /// are bit-identical to the plain path. Every other statement
    /// checks the token before and after. Cancelled queries are counted
    /// in [`Database::metrics`].
    pub fn run_sql_cancellable(
        &mut self,
        sql: &str,
        token: &CancelToken,
    ) -> Result<SqlOutcome, SqlError> {
        self.run_cancellable(token, |db| db.run_statement(sql))
    }

    /// Runs `f` with every read it makes on this session — ad hoc or
    /// prepared ([`PreparedStatement::execute`] and its siblings) —
    /// governed by `token`, exactly as
    /// [`Database::run_sql_cancellable`] governs a statement: the token
    /// is checked before `f` starts and then before each
    /// [`crate::DEFAULT_MORSEL_ROWS`]-row range of each read, and a
    /// read that ends [`SqlError::Cancelled`] is counted in
    /// [`Database::metrics`]. This is how a caller that holds a
    /// prepared statement makes its execution interruptible.
    ///
    /// ```
    /// use vagg_db::{CancelToken, Database, SqlError, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(Table::new("r").with_column("g", (0..4096u32).collect()));
    /// let mut stmt = db.prepare("SELECT g, COUNT(*) FROM r WHERE g < ? GROUP BY g")?;
    /// let token = CancelToken::with_morsel_budget(1); // two ranges to run
    /// let err = db
    ///     .run_cancellable(&token, |db| stmt.execute(db, &[4000]))
    ///     .unwrap_err();
    /// assert!(matches!(err, SqlError::Cancelled(_)));
    /// # Ok::<(), SqlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SqlError::Cancelled`] when the token has tripped, else
    /// whatever `f` returns.
    pub fn run_cancellable<T>(
        &mut self,
        token: &CancelToken,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        let out = check_cancel(Some(token)).and_then(|()| {
            let outer = self.cancel.replace(token.clone());
            let out = f(self);
            self.cancel = outer;
            out
        });
        if matches!(out, Err(SqlError::Cancelled(_))) {
            self.shard.catalogue.metrics().record_cancelled();
        }
        out
    }

    /// The body of [`Database::run_sql`] and
    /// [`Database::run_sql_cancellable`].
    fn run_statement(&mut self, sql: &str) -> Result<SqlOutcome, SqlError> {
        let out = match parse_statement(sql)? {
            stmt
            @ (Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_)) => {
                // The driver checks the token range by range.
                return self.read(stmt, sql, None);
            }
            Statement::Insert(ins) => {
                let batch =
                    RowBatch::from_rows(&ins.columns, &ins.rows).map_err(SqlError::Ingest)?;
                let table = ins.table;
                self.write(WriteOp::Append { table, batch })
            }
            Statement::Delete(del) => self.write(WriteOp::Delete {
                table: del.table,
                rows: RowSel::Where(del.filter),
            }),
            Statement::Update(upd) => self.write(WriteOp::Update {
                table: upd.table,
                rows: RowSel::Where(upd.filter),
                sets: upd.sets,
            }),
            Statement::CreateSnapshot(name) => match &self.txn {
                // A read-only transaction cannot write; a write
                // transaction's CREATE SNAPSHOT applies immediately to
                // the *committed* state — consistent with its reads.
                TxnState::Read(_) => Err(SqlError::ReadOnly),
                _ => {
                    self.shard.catalogue.create_named(&name)?;
                    self.shard.log(&WalRecord::CreateSnapshot { name });
                    self.shard.flush_wal()?;
                    Ok(SqlOutcome::SnapshotCreated)
                }
            },
            Statement::Begin { read_only } => {
                if self.in_transaction() {
                    return Err(SqlError::NestedTransaction);
                }
                self.txn = if read_only {
                    TxnState::Read(self.shard.catalogue.snapshot())
                } else {
                    TxnState::Write(Vec::new())
                };
                Ok(SqlOutcome::TransactionBegun)
            }
            Statement::Commit => match std::mem::replace(&mut self.txn, TxnState::None) {
                TxnState::None => Err(SqlError::NoOpenTransaction),
                TxnState::Read(_) => Ok(SqlOutcome::TransactionCommitted),
                // The transaction is already closed when the commit
                // runs: an error there (a batch that no longer fits a
                // re-registered schema, say) means it rolled back —
                // nothing was applied or logged.
                TxnState::Write(mut ops) => self
                    .commit(&mut ops, Vouch::Own)
                    .map(|_| SqlOutcome::TransactionCommitted),
            },
            Statement::Rollback => match std::mem::replace(&mut self.txn, TxnState::None) {
                TxnState::None => Err(SqlError::NoOpenTransaction),
                _ => Ok(SqlOutcome::TransactionRolledBack),
            },
        }?;
        // Writes and transaction brackets have no range boundary to
        // check at; a trip during the statement is still typed.
        check_cancel(self.cancel.as_ref())?;
        Ok(out)
    }

    /// Runs one write statement: rejected inside a read-only
    /// transaction, queued inside a write transaction, committed on its
    /// own otherwise.
    fn write(&mut self, op: WriteOp) -> Result<SqlOutcome, SqlError> {
        match &mut self.txn {
            TxnState::Read(_) => Err(SqlError::ReadOnly),
            TxnState::Write(queue) => {
                // A missing table or an ill-fitting batch is a typed
                // error at the statement, not at COMMIT.
                let schema = self
                    .shard
                    .catalogue
                    .schema(op.table())
                    .ok_or_else(|| SqlError::UnknownTable(op.table().to_string()))?;
                if let WriteOp::Append { batch, .. } = &op {
                    let names: Vec<&str> = schema.iter().map(String::as_str).collect();
                    batch.validate(&names).map_err(SqlError::Ingest)?;
                }
                queue.push(op);
                Ok(SqlOutcome::Queued(queue.len()))
            }
            TxnState::None => {
                let mut ops = [op];
                let (done, compacted) = self.commit(&mut ops, Vouch::Autocommit)?;
                let receipt = MutationReceipt {
                    rows: done[0].rows,
                    data_version: done[0].data_version,
                };
                Ok(match ops[0] {
                    WriteOp::Append { .. } => SqlOutcome::Inserted(done[0].receipt(compacted)),
                    WriteOp::Delete { .. } => SqlOutcome::Deleted(receipt),
                    WriteOp::Update { .. } => SqlOutcome::Updated(receipt),
                })
            }
        }
    }

    /// This database's case of **the** committer ([`Commit`],
    /// ARCHITECTURE.md, "Write path"): every autocommit `INSERT` /
    /// `DELETE` / `UPDATE` and every `COMMIT` is one call with one op or
    /// many. All ops install under one catalogue write lock; vouched
    /// for by [`Vouch::Own`] (a `COMMIT`), their records are tagged
    /// with a fresh transaction id and closed by a commit record on this
    /// database's own log, so a crash replays all of the list or none.
    ///
    /// Returns what each op did and whether a compaction was installed.
    /// A list that changed nothing writes nothing.
    fn commit(
        &mut self,
        ops: &mut [WriteOp],
        vouch: Vouch<'_>,
    ) -> Result<(Vec<Installed>, bool), SqlError> {
        let mut commit = Commit::begin(slice::from_mut(&mut self.shard), vouch);
        let done = commit.install(0, ops)?;
        let mut touched: Vec<&str> = ops.iter().map(WriteOp::table).collect();
        touched.sort_unstable();
        touched.dedup();
        Ok((done, commit.finish(&touched)? > 0))
    }

    /// Rewrites the write-ahead log as a checkpoint: one register image
    /// per table (delta folded in, exact version counters) plus one
    /// image per named snapshot. Replaying the rewritten log
    /// reconstructs the current committed state directly; every record
    /// the old log accumulated is gone, and the LSN chain continues
    /// where it left off. A no-op on non-durable databases.
    ///
    /// Compactions checkpoint automatically; call this to bound the
    /// log's size (and replay time) on demand.
    pub fn checkpoint(&mut self) -> Result<(), SqlError> {
        self.shard.checkpoint()
    }

    /// [`Database::run_sql`] for reads **at an explicit snapshot**: the
    /// statement reads the rows, statistics and plan of the snapshot's
    /// pinned cut, regardless of ingest since. The same snapshot can
    /// serve any number of statements (repeatable reads) and any
    /// session of the same catalogue.
    ///
    /// ```
    /// use vagg_db::{Database, SqlOutcome, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(
    ///     Table::new("r")
    ///         .with_column("g", vec![1, 2, 1])
    ///         .with_column("v", vec![10, 20, 30]),
    /// );
    /// let snap = db.snapshot();
    /// db.run_sql("INSERT INTO r (g, v) VALUES (3, 40)")?;
    /// let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
    /// let (at, live) = (db.run_sql_at(&snap, sql)?, db.run_sql(sql)?);
    /// match (at, live) {
    ///     (SqlOutcome::Rows(at), SqlOutcome::Rows(live)) => {
    ///         assert_eq!(at.rows.len(), 2);   // the pinned cut
    ///         assert_eq!(live.rows.len(), 3); // the live table
    ///     }
    ///     other => unreachable!("SELECT returns rows: {other:?}"),
    /// }
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Database::run_sql`], plus [`SqlError::ReadOnly`] for writes
    /// (snapshots are immutable), [`SqlError::TransactionStatement`]
    /// for `BEGIN`/`COMMIT` (transaction state belongs to
    /// [`Database::run_sql`]), and [`SqlError::ForeignSnapshot`] if the
    /// snapshot was cut from a different catalogue.
    pub fn run_sql_at(&mut self, snap: &Snapshot, sql: &str) -> Result<SqlOutcome, SqlError> {
        let stmt = parse_statement(sql)?;
        self.read(stmt, sql, Some(snap)).map_err(|e| match e {
            SqlError::InsertStatement | SqlError::MutationStatement => SqlError::ReadOnly,
            e => e,
        })
    }

    /// Parses a `SELECT` with `?` placeholders — over one table or a
    /// two-table `JOIN` — into a reusable [`PreparedStatement`]. The
    /// statement is planned once here where there are rows to plan
    /// against, so unknown tables and columns fail at prepare time; a
    /// table with no rows cannot plan until rows arrive, so its
    /// statement prepares and fails at execution with
    /// [`PlanError::EmptyTable`], as `run_sql` does — the rule
    /// [`crate::ShardedDatabase::prepare`] follows. Every
    /// [`PreparedStatement::execute`] binds its parameters and runs the
    /// bound SQL as [`Database::run_sql`] does, through the shared plan
    /// cache — where every bind of the template is one entry, so steady
    /// executions rebind a cached plan and ingest or a re-register moves
    /// it as it moves any other.
    ///
    /// ```
    /// use vagg_db::{Database, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(
    ///     Table::new("r")
    ///         .with_column("g", vec![1, 2, 1, 2])
    ///         .with_column("v", vec![10, 20, 30, 40]),
    /// );
    /// let mut stmt =
    ///     db.prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g")?;
    /// let big = stmt.execute(&mut db, &[35])?;
    /// let all = stmt.execute(&mut db, &[0])?;
    /// assert_eq!(big.rows.len(), 1);
    /// assert_eq!(all.rows.len(), 2);
    /// assert_eq!(db.plan_cache_stats().misses, 1, "planned once, executed twice");
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Database::run_sql`]: parse errors (including a rejected
    /// `EXPLAIN` or `AS OF`), unknown tables, and planning errors — all
    /// reported here at prepare time, not at first execution.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, SqlError> {
        front(&self.shard, &self.txn, None).prepare(sql)
    }

    /// [`Database::run_sql`] for one `SELECT`, returning the rows
    /// without the [`SqlOutcome`] wrapper.
    ///
    /// # Errors
    ///
    /// As [`Database::run_sql`], plus [`SqlError::ExplainStatement`] if
    /// the statement is an `EXPLAIN` and [`SqlError::InsertStatement`]
    /// if it is an `INSERT` (rejected *before* any row is appended).
    pub fn execute_sql(&mut self, sql: &str) -> Result<QueryOutput, SqlError> {
        match parse_statement(sql)? {
            Statement::Explain(_) | Statement::ExplainAnalyze(_) => Err(SqlError::ExplainStatement),
            stmt => Ok(self.select(&select_of(stmt)?, sql, None, false)?.0),
        }
    }

    /// Plans one statement without executing it. Accepts a bare
    /// `SELECT`, an `EXPLAIN SELECT` or an `EXPLAIN ANALYZE SELECT`
    /// (planned only — use [`Database::run_sql`] to execute the trace).
    /// A statement with a `JOIN` clause routes through the join planner
    /// and returns [`ExplainOutput::Join`]: the adaptive build-side and
    /// strategy decision, renderable with [`JoinPlan::explain`].
    ///
    /// ```
    /// use vagg_db::{Database, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(
    ///     Table::new("orders")
    ///         .with_column("o_id", vec![1, 2, 3])
    ///         .with_column("status", vec![0, 1, 0]),
    /// );
    /// db.register(
    ///     Table::new("lineitem")
    ///         .with_column("order_id", vec![1, 1, 2, 3, 3, 3])
    ///         .with_column("price", vec![10, 20, 30, 40, 50, 60]),
    /// );
    /// let out = db.explain_sql(
    ///     "SELECT status, COUNT(*), SUM(price) FROM lineitem \
    ///      JOIN orders ON lineitem.order_id = orders.o_id \
    ///      GROUP BY status",
    /// )?;
    /// let plan = out.join().expect("a JOIN statement plans a join");
    /// assert_eq!(plan.build_table(), "orders"); // the smaller side
    /// println!("{}", plan.explain());
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Database::run_sql`], plus [`SqlError::InsertStatement`] for
    /// `INSERT` (ingest has no plan).
    pub fn explain_sql(&self, sql: &str) -> Result<ExplainOutput, SqlError> {
        self.explain(&select_of(parse_statement(sql)?)?, None)
    }

    /// One metrics snapshot across every subsystem this database
    /// touches: the catalogue registry's counters (queries, ingest,
    /// compactions, WAL replays, the query cycle histogram, the
    /// slow-query ring) plus the plan cache's, the snapshot
    /// subsystem's, and — on a durable database — the WAL writer's.
    /// Export it with [`MetricsSnapshot::to_text`] /
    /// [`MetricsSnapshot::to_json`].
    ///
    /// ```
    /// use vagg_db::{Database, Table};
    ///
    /// let mut db = Database::new();
    /// db.register(Table::new("r").with_column("g", vec![1, 2, 1]));
    /// db.run_sql("SELECT g, COUNT(*) FROM r GROUP BY g")?;
    /// let snap = db.metrics();
    /// assert_eq!(snap.get("queries"), Some(1));
    /// assert!(snap.to_text().contains("vagg_queries 1"));
    /// # Ok::<(), vagg_db::SqlError>(())
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shard.metrics()
    }

    /// The worst queries on record, sorted worst-first — a bounded ring
    /// shared by every session of this catalogue (see
    /// [`Database::set_slow_query_threshold`]).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shard.catalogue.metrics().slow_queries()
    }

    /// Only queries costing at least `cycles` simulated cycles enter
    /// the slow-query ring. The default threshold of 0 records every
    /// query (the ring keeps the worst regardless).
    pub fn set_slow_query_threshold(&self, cycles: u64) {
        self.catalogue().metrics().set_slow_query_threshold(cycles);
    }
}

/// The query of a read statement (`SELECT` / `EXPLAIN [ANALYZE]
/// SELECT`), or the typed reason a row- or plan-returning API cannot
/// take the statement.
pub(crate) fn select_of(stmt: Statement) -> Result<SqlQuery, SqlError> {
    match stmt {
        Statement::Select(q) | Statement::Explain(q) | Statement::ExplainAnalyze(q) => Ok(q),
        Statement::Insert(_) => Err(SqlError::InsertStatement),
        Statement::Delete(_) | Statement::Update(_) | Statement::CreateSnapshot(_) => {
            Err(SqlError::MutationStatement)
        }
        Statement::Begin { .. } | Statement::Commit | Statement::Rollback => {
            Err(SqlError::TransactionStatement)
        }
    }
}

/// The front-end view of a read on this session: its one shard, at
/// `at` when the caller holds a snapshot, else at the open read-only
/// transaction's, else live (a write transaction's own buffered
/// statements are not visible to it before `COMMIT`).
fn front<'a>(shard: &'a Shard, txn: &'a TxnState, at: Option<&'a Snapshot>) -> Front<'a> {
    let pinned = match txn {
        TxnState::Read(snap) => Some(snap),
        _ => None,
    };
    Front {
        shards: slice::from_ref(shard),
        cut: at.or(pinned).map(slice::from_ref),
    }
}

/// Plans a time-travel read — `AS OF` a named version or an explicit
/// data version — against the frozen tables, bypassing the shared plan
/// cache (frozen states must never serve live queries from the cache,
/// or vice versa). A join plans over its two frozen sides, returned for
/// its build and probe; both come from the one named or numbered state.
fn plan_as_of(
    catalogue: &SharedCatalogue,
    q: &SqlQuery,
    as_of: &AsOf,
) -> Result<(ExplainOutput, Vec<Table>), SqlError> {
    let frozen = |table: &str| match as_of {
        AsOf::DataVersion(n) => Ok((*n, catalogue.table_at_version(table, *n)?)),
        AsOf::Name(name) => catalogue.named_table(name, table),
    };
    let (version, left) = frozen(&q.table)?;
    let label = match as_of {
        AsOf::DataVersion(n) => format!("data_version@{n}"),
        AsOf::Name(name) if q.join.is_some() => name.clone(),
        AsOf::Name(name) => format!("{name}@{version}"),
    };
    let Some(join) = &q.join else {
        let plan = catalogue.plan_frozen(&left, &q.query, version, label)?;
        return Ok((ExplainOutput::Plan(Box::new(plan)), Vec::new()));
    };
    let (right_version, right) = frozen(&join.table)?;
    let (ls, rs) = (TableStats::seed(&left), TableStats::seed(&right));
    let plan = plan_join(
        q,
        (std::slice::from_ref(&left), &ls, version),
        (std::slice::from_ref(&right), &rs, right_version),
        1,
        Some(label),
    )?;
    Ok((ExplainOutput::Join(Box::new(plan)), vec![left, right]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::CompactionPolicy;
    use crate::plan::PlanStep;

    fn db() -> Database {
        let mut db = Database::new();
        db.register(
            Table::new("r")
                .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
                .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0]),
        );
        db
    }

    #[test]
    fn executes_the_paper_query() {
        let out = db()
            .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        assert_eq!(out.rows.len(), 6);
        let r3 = out.rows.iter().find(|r| r.group == 3).unwrap();
        assert_eq!(r3.values, vec![2.0, 7.0]);
    }

    #[test]
    fn where_clause_flows_through() {
        let out = db()
            .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r WHERE g <> 0 GROUP BY g")
            .unwrap();
        assert!(out.rows.iter().all(|r| r.group != 0));
        assert!(out.report.describe().contains("VectorFilter"));
    }

    #[test]
    fn consecutive_statements_share_the_session_machine() {
        let mut db = db();
        let first = db
            .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        let second = db
            .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > 0 GROUP BY g")
            .unwrap();
        assert_eq!(db.session().queries_run(), 2);
        assert_eq!(
            db.session().total_cycles(),
            first.report.cycles + second.report.cycles
        );
    }

    #[test]
    fn explain_returns_a_plan_without_executing() {
        let mut db = db();
        let outcome = db
            .run_sql("EXPLAIN SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        let plan = match outcome {
            SqlOutcome::Plan(p) => p,
            other => panic!("EXPLAIN must not execute: {other:?}"),
        };
        assert_eq!(db.session().queries_run(), 0, "nothing executed");
        assert_eq!(db.session().total_cycles(), 0);
        assert!(plan
            .steps()
            .iter()
            .any(|s| matches!(s, PlanStep::Aggregate(_))));
        assert!(plan.explain().contains("CardinalityScan"));
    }

    #[test]
    fn explain_sql_accepts_bare_selects() {
        let out = db()
            .explain_sql("SELECT g, SUM(v) FROM r GROUP BY g")
            .unwrap();
        let plan = out.plan().expect("non-join SELECT yields a query plan");
        assert_eq!(plan.table(), "r");
        assert_eq!(plan.rows(), 8);
    }

    #[test]
    fn execute_sql_rejects_explain_statements() {
        let e = db()
            .execute_sql("EXPLAIN SELECT g, SUM(v) FROM r GROUP BY g")
            .unwrap_err();
        assert_eq!(e, SqlError::ExplainStatement);
    }

    #[test]
    fn unknown_table_is_reported() {
        let e = db()
            .execute_sql("SELECT g, SUM(v) FROM nope GROUP BY g")
            .unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("nope".into()));
    }

    #[test]
    fn unknown_column_becomes_a_typed_plan_error() {
        let e = db()
            .execute_sql("SELECT g, SUM(missing) FROM r GROUP BY g")
            .unwrap_err();
        assert_eq!(
            e,
            SqlError::Plan(PlanError::UnknownColumn("missing".into()))
        );
        assert!(e.to_string().contains("unknown column"));
        // The typed source chains through std::error::Error.
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn parse_errors_carry_the_source() {
        let e = db()
            .execute_sql("SELECT g, SUM(v) FROM r GROUP BY h")
            .unwrap_err();
        assert!(matches!(e, SqlError::Parse(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn register_replaces_and_returns_previous() {
        let mut d = db();
        let old = d.register(Table::new("r").with_column("g", vec![1]));
        assert!(old.is_some());
        assert_eq!(d.table("r").unwrap().rows(), 1);
        assert_eq!(d.table_names(), vec!["r".to_string()]);
    }

    #[test]
    fn insert_sql_appends_through_the_write_path() {
        let mut db = db();
        let outcome = db
            .run_sql("INSERT INTO r (g, v) VALUES (9, 10), (9, 20);")
            .unwrap();
        let receipt = match outcome {
            SqlOutcome::Inserted(r) => r,
            other => panic!("INSERT must report a receipt: {other:?}"),
        };
        assert_eq!(receipt.rows, 2);
        assert_eq!(receipt.data_version, 2);
        let out = db
            .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        let r9 = out.rows.iter().find(|r| r.group == 9).unwrap();
        assert_eq!(r9.values, vec![2.0, 30.0]);
        assert_eq!(db.data_version("r"), Some(2));
        assert_eq!(db.table_stats("r").unwrap().rows(), 10);
    }

    #[test]
    fn execute_and_explain_reject_insert_without_side_effects() {
        let mut db = db();
        let e = db
            .execute_sql("INSERT INTO r (g, v) VALUES (1, 2)")
            .unwrap_err();
        assert_eq!(e, SqlError::InsertStatement);
        assert!(e.to_string().contains("insert_sql"));
        let e = db
            .explain_sql("INSERT INTO r (g, v) VALUES (1, 2)")
            .unwrap_err();
        assert_eq!(e, SqlError::InsertStatement);
        // Rejected before any row moved.
        assert_eq!(db.table("r").unwrap().rows(), 8);
        assert_eq!(db.data_version("r"), Some(1));
    }

    #[test]
    fn insert_schema_mismatches_are_typed() {
        use crate::ingest::IngestError;
        let mut db = db();
        let e = db
            .run_sql("INSERT INTO r (g, w) VALUES (1, 2)")
            .unwrap_err();
        assert_eq!(e, SqlError::Ingest(IngestError::UnknownColumn("w".into())));
        let e = db.run_sql("INSERT INTO r (g) VALUES (1)").unwrap_err();
        assert_eq!(e, SqlError::Ingest(IngestError::MissingColumn("v".into())));
        let e = db
            .run_sql("INSERT INTO nope (g, v) VALUES (1, 2)")
            .unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("nope".into()));
    }

    #[test]
    fn table_names_listing_is_sorted_regardless_of_registration_order() {
        let mut db = Database::new();
        for name in ["zulu", "alpha", "mike"] {
            db.register(Table::new(name).with_column("g", vec![1]));
        }
        assert_eq!(db.table_names(), vec!["alpha", "mike", "zulu"]);
        // Re-registration does not disturb the order.
        db.register(Table::new("zulu").with_column("g", vec![2]));
        assert_eq!(db.table_names(), vec!["alpha", "mike", "zulu"]);
    }

    #[test]
    fn read_only_transactions_pin_one_snapshot() {
        let mut writer = db();
        let mut reader = writer.catalogue().connect();
        let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";

        assert!(!reader.in_transaction());
        assert!(matches!(
            reader.run_sql("BEGIN READ ONLY").unwrap(),
            SqlOutcome::TransactionBegun
        ));
        assert!(reader.in_transaction());
        let first = reader.execute_sql(sql).unwrap();

        // Concurrent-session ingest lands mid-transaction...
        writer
            .run_sql("INSERT INTO r (g, v) VALUES (9, 1), (9, 1)")
            .unwrap();
        assert_eq!(writer.table("r").unwrap().rows(), 10);

        // ...but the transaction keeps reading its snapshot.
        let second = reader.execute_sql(sql).unwrap();
        assert_eq!(first.rows, second.rows, "repeatable read");
        assert_eq!(second.rows.len(), 6);

        assert!(matches!(
            reader.run_sql("COMMIT").unwrap(),
            SqlOutcome::TransactionCommitted
        ));
        assert!(!reader.in_transaction());
        // After COMMIT the session reads the live database again.
        let after = reader.execute_sql(sql).unwrap();
        assert_eq!(after.rows.len(), 7);
    }

    #[test]
    fn transaction_state_errors_are_typed() {
        let mut db = db();
        db.run_sql("BEGIN READ ONLY").unwrap();
        assert_eq!(
            db.run_sql("BEGIN READ ONLY").unwrap_err(),
            SqlError::NestedTransaction
        );
        // Writes are rejected inside the read-only transaction and the
        // transaction stays open.
        assert_eq!(
            db.run_sql("INSERT INTO r (g, v) VALUES (1, 2)")
                .unwrap_err(),
            SqlError::ReadOnly
        );
        assert!(db.in_transaction());
        assert_eq!(db.table("r").unwrap().rows(), 8, "nothing appended");
        db.run_sql("COMMIT").unwrap();
        assert_eq!(
            db.run_sql("COMMIT;").unwrap_err(),
            SqlError::NoOpenTransaction
        );
        // APIs that cannot manage transaction state say so.
        assert_eq!(
            db.execute_sql("BEGIN READ ONLY").unwrap_err(),
            SqlError::TransactionStatement
        );
        assert_eq!(
            db.explain_sql("COMMIT").unwrap_err(),
            SqlError::TransactionStatement
        );
    }

    #[test]
    fn run_sql_at_reads_the_pinned_cut_and_rejects_writes() {
        let mut db = db();
        let snap = db.snapshot();
        db.run_sql("INSERT INTO r (g, v) VALUES (9, 1)").unwrap();

        let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
        let at = match db.run_sql_at(&snap, sql).unwrap() {
            SqlOutcome::Rows(out) => out,
            other => panic!("SELECT returns rows: {other:?}"),
        };
        assert_eq!(at.rows.len(), 6, "the pinned cut");
        match db.run_sql(sql).unwrap() {
            SqlOutcome::Rows(out) => assert_eq!(out.rows.len(), 7, "the live table"),
            other => panic!("SELECT returns rows: {other:?}"),
        }

        assert_eq!(
            db.run_sql_at(&snap, "INSERT INTO r (g, v) VALUES (1, 1)")
                .unwrap_err(),
            SqlError::ReadOnly
        );
        assert_eq!(
            db.run_sql_at(&snap, "BEGIN READ ONLY").unwrap_err(),
            SqlError::TransactionStatement
        );

        // EXPLAIN at the snapshot reports the pinned data version.
        let plan = match db
            .run_sql_at(&snap, "EXPLAIN SELECT g, SUM(v) FROM r GROUP BY g")
            .unwrap()
        {
            SqlOutcome::Plan(p) => p,
            other => panic!("EXPLAIN returns a plan: {other:?}"),
        };
        assert_eq!(plan.data_version(), Some(1));
        assert!(plan.explain().contains("data_version=1"));
    }

    #[test]
    fn snapshots_from_another_catalogue_are_foreign() {
        let mut db1 = db();
        let db2 = Database::new();
        let snap = db2.snapshot();
        let e = db1
            .run_sql_at(&snap, "SELECT g, SUM(v) FROM r GROUP BY g")
            .unwrap_err();
        assert_eq!(e, SqlError::ForeignSnapshot);
        assert!(e.to_string().contains("catalogue"));
    }

    fn rows_of(db: &mut Database, sql: &str) -> Vec<crate::engine::Row> {
        db.execute_sql(sql).unwrap().rows
    }

    #[test]
    fn delete_tombstones_matching_rows() {
        let mut db = db();
        let receipt = match db.run_sql("DELETE FROM r WHERE g <> 0").unwrap() {
            SqlOutcome::Deleted(r) => r,
            other => panic!("DELETE reports a receipt: {other:?}"),
        };
        assert_eq!(receipt.rows, 6);
        assert_eq!(receipt.data_version, 2);
        let out = rows_of(&mut db, "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g");
        assert_eq!(out.len(), 1, "only the g=0 rows survive");
        assert_eq!(out[0].group, 0);
        assert_eq!(out[0].values, vec![2.0, 5.0]);
        // Statistics were re-seeded from the surviving rows.
        assert_eq!(db.table_stats("r").unwrap().rows(), 2);
        // A no-match DELETE mutates nothing, version included.
        let receipt = match db.run_sql("DELETE FROM r WHERE g > 100").unwrap() {
            SqlOutcome::Deleted(r) => r,
            other => panic!("DELETE reports a receipt: {other:?}"),
        };
        assert_eq!(receipt.rows, 0);
        assert_eq!(receipt.data_version, 2);
        assert_eq!(db.data_version("r"), Some(2));
    }

    #[test]
    fn update_overwrites_matching_rows() {
        let mut db = db();
        let receipt = match db.run_sql("UPDATE r SET v = 100 WHERE g > 3").unwrap() {
            SqlOutcome::Updated(r) => r,
            other => panic!("UPDATE reports a receipt: {other:?}"),
        };
        assert_eq!(receipt.rows, 2, "g=5 and g=4");
        assert_eq!(receipt.data_version, 2);
        let out = rows_of(&mut db, "SELECT g, SUM(v) FROM r GROUP BY g");
        let sum_of = |g: u32| out.iter().find(|r| r.group == g).unwrap().values[0];
        assert_eq!(sum_of(5), 100.0);
        assert_eq!(sum_of(4), 100.0);
        assert_eq!(sum_of(3), 7.0, "unmatched rows untouched");
        // Unknown SET columns are typed errors, matched rows or not.
        for sql in [
            "UPDATE r SET nope = 1 WHERE g > 3",
            "UPDATE r SET nope = 1 WHERE g > 100",
        ] {
            assert_eq!(
                db.run_sql(sql).unwrap_err(),
                SqlError::Plan(PlanError::UnknownColumn("nope".into()))
            );
        }
    }

    #[test]
    fn mutations_are_rejected_by_row_and_plan_apis() {
        let mut db = db();
        assert_eq!(
            db.execute_sql("DELETE FROM r WHERE g <> 0").unwrap_err(),
            SqlError::MutationStatement
        );
        assert_eq!(
            db.explain_sql("UPDATE r SET v = 1").unwrap_err(),
            SqlError::MutationStatement
        );
        let snap = db.snapshot();
        assert_eq!(
            db.run_sql_at(&snap, "DELETE FROM r").unwrap_err(),
            SqlError::ReadOnly
        );
        assert_eq!(db.table("r").unwrap().rows(), 8, "nothing mutated");
    }

    #[test]
    fn write_transactions_buffer_and_commit_atomically() {
        let mut db = db();
        let mut other = db.catalogue().connect();
        let count = "SELECT g, COUNT(*) FROM r GROUP BY g";

        assert!(matches!(
            db.run_sql("BEGIN").unwrap(),
            SqlOutcome::TransactionBegun
        ));
        assert!(db.in_transaction());
        assert!(matches!(
            db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap(),
            SqlOutcome::Queued(1)
        ));
        assert!(matches!(
            db.run_sql("DELETE FROM r WHERE g <> 0").unwrap(),
            SqlOutcome::Queued(2)
        ));
        // The transaction's own reads see the committed state: its
        // buffered insert and delete are not visible to it.
        assert_eq!(rows_of(&mut db, count).len(), 6);
        assert_eq!(rows_of(&mut other, count).len(), 6);
        assert_eq!(db.data_version("r"), Some(1));

        assert!(matches!(
            db.run_sql("COMMIT").unwrap(),
            SqlOutcome::TransactionCommitted
        ));
        assert!(!db.in_transaction());
        // Both statements installed in one step: the g=0 survivors
        // plus the appended (9, 9) — and the DELETE's predicate was
        // resolved against the pre-transaction state, so it never
        // tombstones the transaction's own insert.
        let out = rows_of(&mut other, count);
        assert_eq!(out.len(), 2);
        assert_eq!(db.data_version("r"), Some(3), "one bump per operation");
    }

    #[test]
    fn rollback_discards_the_buffered_transaction() {
        let mut db = db();
        db.run_sql("BEGIN").unwrap();
        db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap();
        assert!(matches!(
            db.run_sql("ROLLBACK").unwrap(),
            SqlOutcome::TransactionRolledBack
        ));
        assert!(!db.in_transaction());
        assert_eq!(db.table("r").unwrap().rows(), 8);
        assert_eq!(db.data_version("r"), Some(1));
        // ROLLBACK also closes a read-only transaction, and without an
        // open transaction it is a typed error.
        db.run_sql("BEGIN READ ONLY").unwrap();
        db.run_sql("ROLLBACK").unwrap();
        assert_eq!(
            db.run_sql("ROLLBACK").unwrap_err(),
            SqlError::NoOpenTransaction
        );
    }

    #[test]
    fn queued_statements_validate_eagerly() {
        let mut db = db();
        db.run_sql("BEGIN").unwrap();
        assert_eq!(
            db.run_sql("INSERT INTO nope (g) VALUES (1)").unwrap_err(),
            SqlError::UnknownTable("nope".into())
        );
        assert!(matches!(
            db.run_sql("INSERT INTO r (g, w) VALUES (1, 2)")
                .unwrap_err(),
            SqlError::Ingest(_)
        ));
        assert_eq!(
            db.run_sql("DELETE FROM nope").unwrap_err(),
            SqlError::UnknownTable("nope".into())
        );
        // The failed statements were not queued; the good one is first.
        assert!(matches!(
            db.run_sql("INSERT INTO r (g, v) VALUES (1, 1)").unwrap(),
            SqlOutcome::Queued(1)
        ));
        db.run_sql("COMMIT").unwrap();
        assert_eq!(db.table("r").unwrap().rows(), 9);
    }

    #[test]
    fn create_snapshot_and_time_travel_reads() {
        let mut db = db();
        assert!(matches!(
            db.run_sql("CREATE SNAPSHOT before").unwrap(),
            SqlOutcome::SnapshotCreated
        ));
        db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap();

        let live = rows_of(&mut db, "SELECT g, COUNT(*) FROM r GROUP BY g");
        assert_eq!(live.len(), 7);
        let named = rows_of(&mut db, "SELECT g, COUNT(*) FROM r AS OF before GROUP BY g");
        assert_eq!(named.len(), 6, "the named version predates the insert");
        let versioned = rows_of(
            &mut db,
            "SELECT g, COUNT(*) FROM r AS OF data_version 1 GROUP BY g",
        );
        assert_eq!(versioned.len(), 6);

        // EXPLAIN renders the frozen label alongside the version.
        let plan = db
            .explain_sql("EXPLAIN SELECT g, COUNT(*) FROM r AS OF before GROUP BY g")
            .unwrap();
        assert!(plan.explain().contains("data_version=1"));
        assert!(plan.explain().contains("as_of=before@1"));

        // Typed errors: duplicate names, unknown names, dead versions.
        assert_eq!(
            db.run_sql("CREATE SNAPSHOT before").unwrap_err(),
            SqlError::SnapshotExists("before".into())
        );
        assert_eq!(
            db.execute_sql("SELECT g, COUNT(*) FROM r AS OF nope GROUP BY g")
                .unwrap_err(),
            SqlError::UnknownSnapshot("nope".into())
        );
        assert_eq!(
            db.execute_sql("SELECT g, COUNT(*) FROM r AS OF data_version 99 GROUP BY g")
                .unwrap_err(),
            SqlError::VersionUnavailable {
                table: "r".into(),
                version: 99
            }
        );
    }

    #[test]
    fn named_versions_survive_compaction_where_raw_versions_die() {
        let mut db = db();
        db.catalogue()
            .set_compaction_policy(CompactionPolicy::every(2));
        db.run_sql("CREATE SNAPSHOT keeper").unwrap();
        // Two appends: the second trips the every-2 policy and folds
        // the delta — retiring data_version 1's delta generation.
        db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap();
        db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap();
        assert_eq!(
            db.execute_sql("SELECT g, COUNT(*) FROM r AS OF data_version 1 GROUP BY g")
                .unwrap_err(),
            SqlError::VersionUnavailable {
                table: "r".into(),
                version: 1
            }
        );
        let kept = rows_of(&mut db, "SELECT g, COUNT(*) FROM r AS OF keeper GROUP BY g");
        assert_eq!(kept.len(), 6, "the name outlives the compaction");
    }

    #[test]
    fn durable_open_reopen_reconstructs_state() {
        let dir = crate::tempdir::TempDir::new("db-reopen");
        let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
        let (before, version, stats_rows) = {
            let mut db = Database::open(dir.path()).unwrap();
            assert!(db.is_durable());
            db.register(
                Table::new("r")
                    .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
                    .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0]),
            );
            db.run_sql("INSERT INTO r (g, v) VALUES (9, 10), (9, 20)")
                .unwrap();
            db.run_sql("CREATE SNAPSHOT mid").unwrap();
            db.run_sql("DELETE FROM r WHERE g > 4").unwrap();
            db.run_sql("UPDATE r SET v = 7 WHERE g <> 0").unwrap();
            (
                rows_of(&mut db, sql),
                db.data_version("r"),
                db.table_stats("r").unwrap().rows(),
            )
        }; // drop = crash stand-in (no clean shutdown hook exists)
        let mut db = Database::open(dir.path()).unwrap();
        assert_eq!(rows_of(&mut db, sql), before, "bit-identical answers");
        assert_eq!(db.data_version("r"), version);
        assert_eq!(db.table_stats("r").unwrap().rows(), stats_rows);
        // The named version replays too.
        let mid = rows_of(&mut db, "SELECT g, COUNT(*) FROM r AS OF mid GROUP BY g");
        assert_eq!(mid.len(), 7, "six seed groups plus g=9");
        // And the reopened database keeps logging: another write, then
        // a third open still agrees.
        db.run_sql("INSERT INTO r (g, v) VALUES (2, 2)").unwrap();
        let after = rows_of(&mut db, sql);
        drop(db);
        let mut db = Database::open(dir.path()).unwrap();
        assert_eq!(rows_of(&mut db, sql), after);
    }

    #[test]
    fn committed_transactions_survive_reopen_uncommitted_do_not() {
        let dir = crate::tempdir::TempDir::new("db-txn-reopen");
        {
            let mut db = Database::open(dir.path()).unwrap();
            db.register(
                Table::new("r")
                    .with_column("g", vec![1, 2, 1])
                    .with_column("v", vec![10, 20, 30]),
            );
            db.run_sql("BEGIN").unwrap();
            db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap();
            db.run_sql("COMMIT").unwrap();
            // A second transaction stays open at the "crash".
            db.run_sql("BEGIN").unwrap();
            db.run_sql("INSERT INTO r (g, v) VALUES (8, 8)").unwrap();
        }
        let db = Database::open(dir.path()).unwrap();
        let t = db.table("r").unwrap();
        assert_eq!(t.rows(), 4, "committed insert yes, open transaction no");
        assert!(t.column("g").unwrap().contains(&9));
        assert!(!t.column("g").unwrap().contains(&8));
    }

    #[test]
    fn compaction_checkpoints_and_replay_stays_exact() {
        let dir = crate::tempdir::TempDir::new("db-checkpoint");
        let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
        let before = {
            let mut db = Database::open(dir.path()).unwrap();
            db.register(
                Table::new("r")
                    .with_column("g", vec![1, 2, 1])
                    .with_column("v", vec![10, 20, 30]),
            );
            db.catalogue()
                .set_compaction_policy(CompactionPolicy::every(3));
            for i in 0..5 {
                db.run_sql(&format!("INSERT INTO r (g, v) VALUES ({}, {i})", i % 3))
                    .unwrap();
            }
            rows_of(&mut db, sql)
        };
        let log = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
        let mut db = Database::open(dir.path()).unwrap();
        assert_eq!(rows_of(&mut db, sql), before);
        // An explicit checkpoint bounds the log and preserves state.
        db.checkpoint().unwrap();
        assert!(
            std::fs::metadata(dir.path().join("wal.log")).unwrap().len()
                <= log + 2 * (crate::wal::FRAME as u64 + 64),
            "checkpoint keeps the log near one image per table"
        );
        drop(db);
        let mut db = Database::open(dir.path()).unwrap();
        assert_eq!(rows_of(&mut db, sql), before);
    }

    #[test]
    fn torn_log_tail_recovers_to_the_last_commit() {
        let dir = crate::tempdir::TempDir::new("db-torn");
        {
            let mut db = Database::open(dir.path()).unwrap();
            db.register(Table::new("r").with_column("g", vec![1, 2, 1]));
            db.run_sql("INSERT INTO r (g) VALUES (3)").unwrap();
        }
        // A crash mid-append leaves a half-written frame.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.path().join("wal.log"))
            .unwrap();
        f.write_all(&[42, 0, 0, 0, 7, 7]).unwrap();
        drop(f);
        let db = Database::open(dir.path()).unwrap();
        assert_eq!(db.table("r").unwrap().rows(), 4, "torn tail truncated");
    }

    #[test]
    fn re_register_invalidates_cached_plans() {
        // A cached plan snapshots the table's columns; re-registering
        // must force a re-plan, not serve the stale snapshot.
        let mut db = db();
        let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
        let first = db.execute_sql(sql).unwrap();
        assert_eq!(first.rows.len(), 6);
        db.register(
            Table::new("r")
                .with_column("g", vec![9, 9, 9])
                .with_column("v", vec![1, 1, 1]),
        );
        let second = db.execute_sql(sql).unwrap();
        assert_eq!(second.rows.len(), 1, "answers from the new table");
        assert_eq!(second.rows[0].group, 9);
        assert_eq!(second.rows[0].values, vec![3.0, 3.0]);
        let stats = db.plan_cache_stats();
        assert_eq!(stats.hits, 0, "the stale plan never served");
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn cancellable_select_matches_the_plain_path_bit_for_bit() {
        let mut db = Database::new();
        let n = 10_000;
        db.register(
            Table::new("t")
                .with_column("a", (0..n).map(|i| (i % 13) as u32).collect())
                .with_column("b", (0..n).map(|i| (i % 5) as u32).collect())
                .with_column("v", (0..n).map(|i| (i % 97) as u32).collect()),
        );
        // Plain, composite GROUP BY, HAVING, ORDER BY + LIMIT: the
        // morselized path must reproduce every tail shape.
        for sql in [
            "SELECT a, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY a",
            "SELECT a, b, COUNT(*), SUM(v) FROM t GROUP BY a, b",
            "SELECT a, SUM(v) FROM t WHERE v > 40 GROUP BY a HAVING SUM(v) > 1000",
            "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY COUNT(*) DESC LIMIT 4",
        ] {
            let plain = match db.run_sql(sql).unwrap() {
                SqlOutcome::Rows(out) => out,
                other => unreachable!("SELECT returns rows: {other:?}"),
            };
            let token = CancelToken::new();
            let before = db.session().queries_run();
            let governed = match db.run_sql_cancellable(sql, &token).unwrap() {
                SqlOutcome::Rows(out) => out,
                other => unreachable!("SELECT returns rows: {other:?}"),
            };
            assert_eq!(governed.rows, plain.rows, "{sql}");
            assert!(token.morsels() > 1, "the token saw morsel boundaries");
            assert_eq!(
                db.session().queries_run(),
                before + 1,
                "one query, however many ranges it ran as"
            );
        }
    }

    #[test]
    fn a_tripped_token_surfaces_cancelled_and_is_counted() {
        let mut db = db();
        let token = CancelToken::new();
        token.cancel();
        let err = db
            .run_sql_cancellable("SELECT g, COUNT(*) FROM r GROUP BY g", &token)
            .unwrap_err();
        assert_eq!(err, SqlError::Cancelled(CancelCause::Requested));
        assert_eq!(db.metrics().get("queries_cancelled"), Some(1));
    }

    #[test]
    fn a_morsel_budget_kills_a_query_mid_flight() {
        let mut db = Database::new();
        db.register(Table::new("big").with_column("g", (0..50_000u32).map(|i| i % 7).collect()));
        // 50k rows at 2048-row morsels is ~25 boundaries; a budget of 2
        // trips partway through.
        let token = CancelToken::with_morsel_budget(2);
        let err = db
            .run_sql_cancellable("SELECT g, COUNT(*) FROM big GROUP BY g", &token)
            .unwrap_err();
        assert_eq!(err, SqlError::Cancelled(CancelCause::OverBudget));
        // The session stays usable afterwards.
        let ok = db
            .execute_sql("SELECT g, COUNT(*) FROM big GROUP BY g")
            .unwrap();
        assert_eq!(ok.rows.len(), 7);
    }

    #[test]
    fn non_select_statements_check_the_token_coarsely() {
        let mut db = db();
        let token = CancelToken::new();
        let out = db
            .run_sql_cancellable("INSERT INTO r (g, v) VALUES (9, 9)", &token)
            .unwrap();
        assert!(matches!(out, SqlOutcome::Inserted(_)));
        token.cancel();
        let err = db
            .run_sql_cancellable("INSERT INTO r (g, v) VALUES (9, 9)", &token)
            .unwrap_err();
        assert!(matches!(err, SqlError::Cancelled(_)));
    }
}
