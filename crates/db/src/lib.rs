//! # vagg-db
//!
//! A miniature column-store query engine running on the simulated vector
//! machine — the DBMS context the paper's aggregation work targets
//! (§III-A emulates exactly this storage model). The public API follows
//! the plan/execute split every real column-store uses:
//!
//! * [`Table`] — named `u32` columns stored contiguously (`Arc`-shared),
//!   with the per-column metadata real systems track (sortedness,
//!   maximum);
//! * [`AggregateQuery`] — `SELECT g, COUNT/SUM/MIN/MAX/AVG(v) FROM t
//!   [WHERE ...] GROUP BY g[, h, ...]` (composite keys are fused on the
//!   machine and decomposed on readback);
//! * [`Engine::plan`] — the paper's §V-D adaptive policy as a *planning*
//!   decision: DBMS metadata (sortedness, cardinality estimate) becomes a
//!   typed [`QueryPlan`] of [`PlanStep`]s, inspectable via
//!   [`QueryPlan::explain`] — or a typed [`PlanError`];
//! * [`Session`] — a long-lived execution context owning one
//!   [`vagg_sim::Machine`]: `session.run(&plan)` executes plans
//!   back-to-back on the same machine, reporting per-query cycle deltas;
//! * [`vector_filter`] — vectorised selection using Table III's
//!   comparison + compress + popcount instructions;
//! * [`parse_statement`] / [`Database`] — a SQL front end (catalogue +
//!   session) for exactly the Figure 2 query family, including
//!   `EXPLAIN SELECT ...` and `?` placeholders via [`Database::prepare`];
//! * the serving layer — a [`PlanCache`] keyed by normalized query
//!   shape (hit/miss counters, LRU eviction, invalidation on
//!   re-register), [`PreparedStatement`]s that parse once and bind
//!   parameters per execution (every bind of a template is one cache
//!   entry), a [`SharedCatalogue`] serving many
//!   concurrent sessions, and a [`ShardedDatabase`] that partitions
//!   rows across N shards, runs their plans as stealable morsels on a
//!   persistent worker pool (the [`Executor`]), merges
//!   [`vagg_core::PartialAggregate`]s — composite `GROUP BY` included:
//!   every morsel fuses its keys with the plan's global key domains, so
//!   the partials share one key space and merge directly;
//! * the write path — `INSERT INTO ... VALUES` and the bulk
//!   [`Database::append_rows`] API feed per-table [`DeltaStore`]s
//!   (append-only batches over the immutable base columns), live
//!   [`TableStats`] maintained incrementally (row count, zone maps,
//!   sampled distinct estimate), a *data* version distinct from the
//!   schema version, threshold-triggered [compaction](CompactionPolicy),
//!   and plan reconciliation: a cached plan serves only the data version
//!   it was planned at, so the first read after a write re-plans against
//!   the view the write drifted, whose [`ColumnMeta`] (sortedness,
//!   maximum) the planner reads ([`CacheStats`] counts the miss);
//! * the snapshot-first read path — **every** read happens at an MVCC
//!   [`Snapshot`]: `run_sql` captures a snapshot-of-now per statement,
//!   [`Database::snapshot`] / [`SharedCatalogue::snapshot`] /
//!   [`ShardedDatabase::snapshot`] pin explicit point-in-time cuts
//!   served by [`Database::run_sql_at`] and
//!   [`PreparedStatement::execute_at`] (plans pinned to the snapshot's
//!   statistics), SQL `BEGIN READ ONLY` / `COMMIT` bracket a session
//!   onto one snapshot, and a snapshot keeps what it reads alive by
//!   holding `Arc`s to it, so compaction never waits for readers
//!   (counted by [`SnapshotStats`]);
//! * durability — [`Database::open`] / [`ShardedDatabase::open`] put
//!   the engine on disk behind a checksummed, LSN-stamped write-ahead
//!   log replayed on reopen to the exact committed state;
//!   write transactions (`BEGIN` … `COMMIT`/`ROLLBACK`) become durable
//!   atomically under one commit record, `DELETE`/`UPDATE` tombstone
//!   and overwrite rows in the delta (physically dropped at
//!   compaction, which doubles as the WAL checkpoint), and
//!   `CREATE SNAPSHOT name` / `AS OF name` / `AS OF data_version N`
//!   give named, crash-surviving time travel — torn log tails are
//!   truncated, real corruption surfaces as typed [`WalError`]s;
//! * observability — `EXPLAIN ANALYZE SELECT ...` executes with a
//!   [`QueryTrace`] span tree threaded through the engine (per-step
//!   rows and simulated cycles, per-morsel worker/steal/queue-wait
//!   spans, bit-identical rows to the untraced run), and every
//!   catalogue owns a [`MetricsRegistry`] snapshotted by
//!   [`Database::metrics`] — query/ingest/cache/WAL/executor counters,
//!   a cycle histogram and a bounded [slow-query ring](SlowQuery).
//!
//! ## Snapshot reads under ingest
//!
//! ```
//! use vagg_db::{Database, SqlOutcome, Table};
//!
//! let mut db = Database::new();
//! db.register(
//!     Table::new("r")
//!         .with_column("g", vec![1, 2, 1])
//!         .with_column("v", vec![10, 20, 30]),
//! );
//! let snap = db.snapshot(); // point-in-time cut of every table
//! db.run_sql("INSERT INTO r (g, v) VALUES (3, 40)")?;
//! let sql = "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g";
//! let at = match db.run_sql_at(&snap, sql)? {
//!     SqlOutcome::Rows(out) => out.rows.len(),
//!     other => unreachable!("SELECT returns rows: {other:?}"),
//! };
//! assert_eq!(at, 2, "the snapshot never sees the insert");
//! drop(snap); // releases what it held
//! assert_eq!(db.snapshot_stats().live_snapshots, 0);
//! # Ok::<(), vagg_db::SqlError>(())
//! ```
//!
//! ## Ingest and stats-driven re-planning
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
//! let mut stmt = db.prepare("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")?;
//! stmt.execute(&mut db, &[])?;
//! db.run_sql("INSERT INTO r (g, v) VALUES (2, 40), (3, 50)")?;
//! let out = stmt.execute(&mut db, &[])?; // sees the appended rows
//! assert_eq!(out.rows.len(), 3);
//! let cache = db.plan_cache_stats();
//! assert_eq!((cache.hits, cache.misses), (1, 2)); // re-planned after the write
//! # Ok::<(), vagg_db::SqlError>(())
//! ```
//!
//! ## Plan, inspect, execute
//!
//! ```
//! use vagg_db::{AggregateQuery, Engine, Session, Table};
//!
//! let t = Table::new("people")
//!     .with_column("age", vec![4, 3, 4, 5, 3])
//!     .with_column("earnings", vec![24, 11, 24, 10, 15]);
//!
//! let engine = Engine::new();
//! let plan = engine.plan(&t, &AggregateQuery::paper("age", "earnings"))?;
//! println!("{}", plan.explain()); // the typed plan, rendered
//!
//! let mut session = Session::new();
//! let out = session.run(&plan);           // first query: cold machine
//! let again = session.run(&plan);         // second query: same machine
//! assert_eq!(out.rows.len(), 3);
//! assert_eq!(out.rows, again.rows);
//! assert_eq!(session.queries_run(), 2);
//! # Ok::<(), vagg_db::PlanError>(())
//! ```
//!
//! ## SQL and EXPLAIN
//!
//! ```
//! use vagg_db::{Database, SqlOutcome, Table};
//!
//! let mut db = Database::new();
//! db.register(
//!     Table::new("r")
//!         .with_column("g", vec![1, 2, 1])
//!         .with_column("v", vec![10, 20, 30]),
//! );
//! match db.run_sql("EXPLAIN SELECT g, SUM(v) FROM r GROUP BY g")? {
//!     SqlOutcome::Plan(plan) => println!("{}", plan.explain()),
//!     other => unreachable!("EXPLAIN never executes: {other:?}"),
//! }
//! # Ok::<(), vagg_db::SqlError>(())
//! ```
//!
//! ## Prepare once, execute many, shard wide
//!
//! ```
//! use vagg_db::{ShardedDatabase, Table};
//!
//! let mut db = ShardedDatabase::new(4); // 4 sessions, 4 threads
//! db.register(
//!     Table::new("r")
//!         .with_column("g", (0..64u32).map(|i| i % 5).collect()),
//! );
//! let mut stmt =
//!     db.prepare("SELECT g, COUNT(*) FROM r WHERE g <> ? GROUP BY g")?;
//! let out = db.execute_prepared(&mut stmt, &[0])?;
//! assert_eq!(out.rows.len(), 4); // merged across all shards
//! # Ok::<(), vagg_db::SqlError>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod cancel;
mod catalogue;
mod database;
mod delta;
mod engine;
mod executor;
mod filter;
mod ingest;
mod join;
mod metrics;
mod plan;
mod prepared;
mod query;
mod read;
mod recovery;
mod session;
mod shard;
mod snapshot;
mod sql;
mod table;
mod tempdir;
mod trace;
mod wal;

pub use cache::{CacheStats, PlanCache, QueryShape};
pub use cancel::{CancelCause, CancelToken};
pub use catalogue::SharedCatalogue;
pub use database::{Database, ExplainOutput, MutationReceipt, SqlError, SqlOutcome};
pub use delta::{ColumnStats, DeltaStore, TableStats, ZoneMaps};
pub use engine::{Engine, ExecutionReport, QueryOutput, Row};
pub use executor::{Executor, ExecutorConfig, ExecutorError, ExecutorStats, DEFAULT_MORSEL_ROWS};
pub use filter::{reference_filter, vector_filter, Predicate};
pub use ingest::{CompactionPolicy, IngestError, IngestReceipt, RowBatch};
pub use join::{JoinPlan, JoinStrategy};
pub use metrics::{MetricsRegistry, MetricsSnapshot, SlowQuery, CYCLE_HISTOGRAM_BUCKETS};
pub use plan::{PlanError, PlanStep, QueryPlan, ScanMode};
pub use prepared::PreparedStatement;
pub use query::{AggFn, AggregateQuery, Having, OrderBy, OrderKey};
pub use session::Session;
pub use shard::{
    ShardedDatabase, ShardedIngestReceipt, ShardedOutput, ShardedSnapshot, ShardedStatement,
};
pub use snapshot::{Snapshot, SnapshotStats};
pub use sql::{
    parse, parse_statement, parse_template, AsOf, DeleteStatement, InsertStatement, JoinClause,
    ParamSlot, ParseSqlError, SqlQuery, SqlTemplate, Statement, UpdateStatement,
};
pub use table::{ColumnMeta, ParseCsvError, Table};
pub use tempdir::TempDir;
pub use trace::{AnalyzedQuery, MorselTrace, QueryTrace, StepRollup, StepTrace, WorkerRollup};
pub use wal::WalError;
