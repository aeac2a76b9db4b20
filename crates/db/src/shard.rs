//! Sharded execution — and the one front-end every database reads and
//! writes through.
//!
//! A shard is a catalogue and, when durable, its write-ahead log —
//! nothing else: no machine, no transaction state. Everything above the
//! read driver takes a slice of shards, so a [`crate::Database`] is the
//! one-shard case of a [`ShardedDatabase`], as one core is the
//! one-partition case of the paper's §VI-A multicore strategy:
//!
//! * a read goes through one front-end — the shards and an optional
//!   cut, one [`Snapshot`] per shard — which plans every populated shard
//!   (a join: plans it at one cut over merged statistics and runs its
//!   build and probe first), hands the plans to the read driver on the
//!   caller's schedule (a session's machine, or the worker pool), and
//!   records the finished read once, in the lead shard's metrics
//!   registry; it also explains a statement and validates a prepared
//!   template;
//! * a write goes through one committer: install and buffer on every
//!   touched shard under one transaction id, flush every shard, write
//!   the commit record on the vouching log — the shard's own for a
//!   `Database` `COMMIT`, the coordinator's for a cross-shard write —
//!   then the compaction check.
//!
//! What only one type has stays with it: `AS OF`, `BEGIN` / `COMMIT`
//! state and `CREATE SNAPSHOT` with [`crate::Database`]; routing, the
//! worker pool and the coordinator's log with [`ShardedDatabase`].
//!
//! A [`ShardedDatabase`] is N shards over row partitions
//! (shared-nothing), one [`Executor`] — a fixed pool of persistent
//! workers, each with its own long-lived session/machine — and, when
//! durable, the coordinator's commit log. [`ShardedDatabase::register`]
//! splits a table into N contiguous row chunks — contiguity preserves
//! per-chunk sortedness metadata, so presorted plans still kick in per
//! shard — and a query is the one read driver (ARCHITECTURE.md, "Read
//! path") on the pool schedule:
//!
//! 1. **plan** the query on every non-empty shard (each shard's plan
//!    cache and adaptive §V-D choice apply to *its* partition);
//! 2. **execute** each plan's distributive slice as fixed-size
//!    *morsels* (row ranges, each one update of the aggregate its
//!    worker's [`crate::Session`] holds open for the query) on the
//!    pooled workers — idle workers steal a skewed shard's tail instead
//!    of waiting, and every morsel still runs the algorithm its
//!    *shard's* statistics picked;
//! 3. **merge** the [`vagg_core::PartialAggregate`]s the workers closed
//!    (COUNT/SUM add, MIN/MAX combine) and finalise the
//!    non-distributive tail — HAVING, ORDER BY, LIMIT — once on the
//!    coordinator.
//!
//! Composite `GROUP BY` shards too: every morsel fuses its keys with
//! the elementwise maximum of the shard plans' exact key domains, so
//! all partials share one fused key space and merge directly. The
//! answer matches a single session's bit for bit, including
//! `HAVING`/`ORDER BY`/`LIMIT` tails.
//!
//! The write path shards too: [`ShardedDatabase::append_rows`] /
//! [`ShardedDatabase::insert_sql`] route each appended batch to the
//! currently *smallest* shard (ties broken by a rotating cursor), so
//! interleaved uneven batches keep the partitions balanced; every
//! shard keeps its own delta store, live statistics, data version and
//! compaction schedule, so concurrent read traffic keeps merging
//! correct partials while rows stream in.
//!
//! Reads can pin an **atomic cross-shard cut**:
//! [`ShardedDatabase::snapshot`] captures one [`Snapshot`] per shard in
//! a single pass (no append can interleave), and
//! [`ShardedDatabase::run_sql_at`] /
//! [`ShardedDatabase::execute_prepared_at`] answer from that cut — a
//! consistent database-wide view, where the bare `run_sql` path could
//! otherwise see shard 0 post-append and shard 3 pre-append. Drift is
//! observable without snapshots too: [`ShardedDatabase::data_versions`]
//! and [`ShardedDatabase::table_stats`] mirror the single-session
//! accessors per shard and merged.

use crate::cancel::CancelToken;
use crate::catalogue::{Installed, RowSel, SharedCatalogue, WriteOp};
use crate::database::{select_of, ExplainOutput, MutationReceipt, SqlError};
use crate::delta::TableStats;
use crate::engine::{Engine, ExecutionReport, QueryOutput, Row};
use crate::executor::{Executor, ExecutorConfig, ExecutorStats};
use crate::filter::Predicate;
use crate::ingest::{CompactionPolicy, IngestReceipt, RowBatch};
use crate::join::{join_read, plan_join, JoinPlan};
use crate::metrics::{MetricsSnapshot, SlowQuery};
use crate::plan::{PlanError, PlanStep, QueryPlan};
use crate::prepared::PreparedStatement;
use crate::read::{ReadRequest, Schedule};
use crate::recovery;
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::sql::{parse_statement, parse_template, ParseSqlError, SqlQuery, Statement};
use crate::table::Table;
use crate::trace::QueryTrace;
use crate::wal::{self, WalError, WalRecord, WalWriter, AUTOCOMMIT};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A row-partitioned database: one coordinator over N shard catalogues
/// and one persistent morsel [`Executor`].
#[derive(Debug)]
pub struct ShardedDatabase {
    shards: Vec<Shard>,
    /// Ingest tie-break cursor: among equally small shards, the next
    /// batch lands on the first one at or after this index.
    next_shard: usize,
    /// The persistent worker pool running every query's morsels.
    executor: Executor,
    /// The coordinator's commit log ([`ShardedDatabase::open`] only):
    /// nothing but commit records, one per multi-shard operation. A
    /// shard-log record tagged with a global transaction id is ignored
    /// on replay unless this log committed the id — which makes
    /// cross-shard writes atomic across a crash.
    coordinator: Option<Wal>,
}

/// What one sharded append did (see [`ShardedDatabase::append_rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedIngestReceipt {
    /// Total rows appended across all shards.
    pub rows: usize,
    /// Rows routed to each shard by the smallest-shard router.
    pub per_shard: Vec<usize>,
    /// Shards whose append tripped their compaction threshold.
    pub compactions: usize,
}

/// What a sharded query produced: the merged rows, a coordinator
/// report, per-shard execution reports and per-worker load accounting.
#[derive(Debug, Clone)]
pub struct ShardedOutput {
    /// The merged result rows, ordered by group key (or as the ORDER BY
    /// clause demands) — identical to a single-session execution for
    /// the distributive aggregates COUNT/SUM/MIN/MAX (and AVG, which
    /// falls out of SUM/COUNT on readback), including composite
    /// `GROUP BY` (every shard fuses into one key space).
    pub rows: Vec<Row>,
    /// The coordinator's view: `cycles` is the *makespan* (the most
    /// loaded executor worker — the workers run in parallel),
    /// `rows_aggregated` the sum of surviving rows, `cpt` the makespan
    /// divided by the total *input* rows (the field's usual contract),
    /// and `algorithm`/`steps` come from the first shard that
    /// aggregated (shards may adaptively choose different algorithms
    /// for their partitions; see `shard_reports`).
    pub report: ExecutionReport,
    /// Every non-empty shard's distributive execution report: cycles
    /// are the shard's *total work* summed over its morsels wherever
    /// they ran, so `shard_reports` cycles add up to the whole query's
    /// work while `report.cycles` is the parallel makespan.
    pub shard_reports: Vec<ExecutionReport>,
    /// Simulated cycles per executor worker under the deterministic
    /// morsel schedule (least-loaded worker acts next; stolen morsels
    /// are charged to the thief). The makespan is the maximum entry;
    /// the spread shows how well stealing levelled a skewed partition.
    pub worker_loads: Vec<u64>,
    /// Morsels the schedule served on a worker other than their home
    /// worker — zero when stealing is disabled
    /// ([`ExecutorConfig::steal`]).
    pub steals: u64,
    /// The execution trace, present when the statement was an
    /// `EXPLAIN ANALYZE` (boxed: traces carry per-morsel spans and are
    /// much larger than the merged rows).
    pub trace: Option<Box<QueryTrace>>,
    /// Ranges (and the rows they covered) the read driver dropped by
    /// zone map before running them — for whoever drove the read to
    /// fold into its metrics.
    pub(crate) pruned: (u64, u64),
}

/// An atomic cross-shard point-in-time cut of a [`ShardedDatabase`]:
/// one [`Snapshot`] per shard, captured with **every shard's registry
/// read lock held at once** — no write through any handle (the
/// coordinator's `&mut self` API or a cloned shard-catalogue handle)
/// can interleave between two shards' cuts. Reads at it
/// ([`ShardedDatabase::run_sql_at`],
/// [`ShardedDatabase::execute_prepared_at`]) see every shard at the
/// same moment: shard 0 can never answer post-append while shard 3
/// answers pre-append.
#[derive(Debug)]
pub struct ShardedSnapshot {
    shards: Vec<Snapshot>,
}

impl ShardedSnapshot {
    /// Shards in the cut.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard snapshots, in shard order.
    pub fn shards(&self) -> &[Snapshot] {
        &self.shards
    }

    /// Each shard's pinned data version of `table`, in shard order
    /// (`None` if any shard lacks the table).
    pub fn data_versions(&self, table: &str) -> Option<Vec<u64>> {
        self.shards.iter().map(|s| s.data_version(table)).collect()
    }

    /// The merged pinned data version of `table` — see
    /// [`ShardedDatabase::data_version`] for the definition.
    pub fn data_version(&self, table: &str) -> Option<u64> {
        merged_data_version(self.shards.iter().map(|s| s.data_version(table)))
    }

    /// The pinned statistics of `table` merged across shards (see
    /// [`TableStats::merged`]).
    pub fn table_stats(&self, table: &str) -> Option<TableStats> {
        cut_stats(&self.shards, table)
    }
}

/// `table`'s statistics at a cross-shard cut, merged (see
/// [`TableStats::merged`]).
fn cut_stats(cut: &[Snapshot], table: &str) -> Option<TableStats> {
    let parts: Option<Vec<TableStats>> = cut.iter().map(|s| s.table_stats(table)).collect();
    TableStats::merged(&parts?)
}

/// One merged data version for a row-partitioned table: `1` for a
/// freshly registered table, `+1` for every shard-level delta bump —
/// the total ingest activity the partitions have absorbed, so drift
/// between a plan and the sharded table is observable as one number.
/// `None` if any shard lacks the table.
fn merged_data_version(mut per_shard: impl Iterator<Item = Option<u64>>) -> Option<u64> {
    per_shard.try_fold(1, |merged, version| Some(merged + version? - 1))
}

/// `workers == 0` in an [`ExecutorConfig`] means "one worker per
/// shard".
fn resolve(config: ExecutorConfig, shards: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers: if config.workers == 0 {
            shards
        } else {
            config.workers
        },
        ..config
    }
}

/// What [`ShardedDatabase::prepare`] returns: the one
/// [`PreparedStatement`], whose bound query every shard plans through
/// its own catalogue. The name stays for callers that spell it.
pub type ShardedStatement = PreparedStatement;

impl ShardedDatabase {
    /// An empty sharded database with `shards` partitions (minimum 1),
    /// each on the paper's machine configuration, served by a worker
    /// pool of the default [`ExecutorConfig`] (one worker per shard).
    pub fn new(shards: usize) -> Self {
        Self::with_engine(Engine::new(), shards)
    }

    /// An empty sharded database whose shard sessions all use (clones
    /// of) a custom engine.
    pub fn with_engine(engine: Engine, shards: usize) -> Self {
        Self::with_executor(engine, shards, ExecutorConfig::default())
    }

    /// An empty sharded database with an explicit executor shape
    /// (worker count, morsel size, stealing) — `config.workers == 0`
    /// means one worker per shard.
    pub fn with_executor(engine: Engine, shards: usize, config: ExecutorConfig) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Shard::new(SharedCatalogue::with_engine(engine.clone())))
                .collect(),
            next_shard: 0,
            executor: Executor::new(resolve(config, shards), engine.config().clone()),
            coordinator: None,
        }
    }

    /// Opens (or creates) a **durable** sharded database at `path`: one
    /// subdirectory (and write-ahead log) per shard plus the
    /// coordinator's own commit log. Single-shard writes (routed
    /// appends) log on their shard alone; multi-shard writes
    /// (registration, `DELETE`/`UPDATE` via
    /// [`ShardedDatabase::mutate_sql`]) are tagged with a global
    /// transaction id on every touched shard and only count after the
    /// coordinator's commit record lands — a crash between two shards'
    /// flushes rolls the whole operation back on reopen, never half of
    /// it.
    ///
    /// `shards` applies when creating; an existing database reopens
    /// with the shard count it was created with (the argument is
    /// ignored then — partitions on disk are authoritative).
    ///
    /// # Errors
    ///
    /// [`SqlError::Wal`] for unreadable or corrupt logs (a torn tail on
    /// any log is truncated, not an error), and any replay error a
    /// damaged record sequence produces.
    pub fn open(path: impl AsRef<Path>, shards: usize) -> Result<Self, SqlError> {
        let dir = path.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| WalError::Io(e.to_string()))?;
        let shards = {
            let existing = (0..)
                .take_while(|i| dir.join(format!("shard-{i}")).is_dir())
                .count();
            if existing > 0 {
                existing
            } else {
                shards.max(1)
            }
        };
        // A torn commit record is an uncommitted cross-shard operation:
        // truncating it rolls the operation back on every shard.
        let (coordinator, records) = Wal::open(dir.join("coordinator.log"))?;
        let committed = recovery::committed_set(&records, &BTreeSet::new());
        let shard_logs = (0..shards)
            .map(|i| Shard::open(&dir.join(format!("shard-{i}")), &committed))
            .collect::<Result<Vec<_>, _>>()?;
        let sim = shard_logs[0].catalogue.engine().config().clone();
        Ok(Self {
            shards: shard_logs,
            next_shard: 0,
            executor: Executor::new(resolve(ExecutorConfig::default(), shards), sim),
            coordinator: Some(coordinator),
        })
    }

    /// Whether this database owns write-ahead logs (was opened with
    /// [`ShardedDatabase::open`]).
    pub fn is_durable(&self) -> bool {
        self.coordinator.is_some()
    }

    /// Checkpoints every shard's log (see
    /// [`crate::Database::checkpoint`]) and then truncates the
    /// coordinator's commit log — the shard images are all autocommit
    /// records now, so no global transaction id needs vouching for. A
    /// no-op on non-durable databases.
    pub fn checkpoint(&mut self) -> Result<(), SqlError> {
        let Some(coordinator) = &mut self.coordinator else {
            return Ok(());
        };
        for shard in &mut self.shards {
            shard.checkpoint()?;
        }
        coordinator.rewrite(&[])
    }

    /// The executor's resolved configuration.
    pub fn executor_config(&self) -> ExecutorConfig {
        self.executor.config()
    }

    /// The executor's cumulative counters (queries, morsels, steals)
    /// since the current pool was built.
    pub fn executor_stats(&self) -> ExecutorStats {
        self.executor.stats()
    }

    /// One metrics snapshot for the whole sharded database: every
    /// shard's metrics (as [`crate::Database::metrics`] reports them)
    /// summed (counters and the query
    /// cycle histogram; the worst slow queries kept), plus the shared
    /// worker pool's counters as `executor_queries` / `executor_morsels`
    /// / `executor_steals` and, under the names a single database
    /// reports them by, `agg_opens` / `agg_closes`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            snap.merge(shard.metrics());
        }
        let stats = self.executor.stats();
        snap.add("executor_queries", stats.queries);
        snap.add("executor_morsels", stats.morsels);
        snap.add("executor_steals", stats.steals);
        snap.add("executor_cancelled_morsels", stats.cancelled_morsels);
        snap.add("executor_morsels_pruned", stats.morsels_pruned);
        snap.add("executor_rows_pruned", stats.rows_pruned);
        snap.add("executor_affinity_moves", stats.affinity_moves);
        // The pool's sessions ran the reads: their aggregate counts are
        // the database's.
        snap.add("agg_opens", stats.agg_opens);
        snap.add("agg_closes", stats.agg_closes);
        snap.add("executor_queued", stats.queued());
        snap.add("executor_inflight", stats.inflight());
        snap
    }

    /// The worst queries on record, sorted worst-first (every read
    /// records into the lead shard's registry; see
    /// [`crate::Database::slow_queries`]).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shards[0].catalogue.metrics().slow_queries()
    }

    /// Only queries costing at least `cycles` enter the slow-query ring
    /// (see [`crate::Database::set_slow_query_threshold`]).
    pub fn set_slow_query_threshold(&self, cycles: u64) {
        self.shards[0]
            .catalogue
            .metrics()
            .set_slow_query_threshold(cycles);
    }

    /// Sets every shard's delta-compaction policy (each shard compacts
    /// its own partition independently).
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        for shard in &self.shards {
            shard.catalogue.set_compaction_policy(policy);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Each shard's catalogue, in shard order (for per-shard
    /// accounting: tables, statistics, plan caches, metrics).
    pub fn shards(&self) -> Vec<&SharedCatalogue> {
        self.shards.iter().map(|shard| &shard.catalogue).collect()
    }

    /// Captures an atomic cross-shard point-in-time cut: every shard's
    /// registry read lock is acquired first (in shard order), then
    /// each shard is cut under the held locks — so no write through
    /// *any* handle (the coordinator's `&mut self` API or a cloned
    /// shard-catalogue handle on another thread) can land between two
    /// shards' cuts. Reads at the cut are a consistent database-wide
    /// view, however much ingest streams in afterwards.
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            shards: cut_now(&self.shards),
        }
    }

    /// Each shard's live data version of `table`, in shard order —
    /// the per-shard drift view ([`crate::Database::data_version`]
    /// per partition). `None` if any shard lacks the table.
    pub fn data_versions(&self, table: &str) -> Option<Vec<u64>> {
        self.shards
            .iter()
            .map(|shard| shard.catalogue.data_version(table))
            .collect()
    }

    /// The merged live data version of `table`: `1` for a freshly
    /// registered table, `+1` for every shard-level delta bump — total
    /// ingest activity across the partitions, the sharded counterpart
    /// of [`crate::Database::data_version`].
    pub fn data_version(&self, table: &str) -> Option<u64> {
        merged_data_version(self.shards.iter().map(|s| s.catalogue.data_version(table)))
    }

    /// Each shard's live statistics of `table`, in shard order.
    pub fn table_stats_per_shard(&self, table: &str) -> Option<Vec<TableStats>> {
        self.shards
            .iter()
            .map(|shard| shard.catalogue.table_stats(table))
            .collect()
    }

    /// The live statistics of `table` merged across every shard (row
    /// counts add, KMV sketches union — see [`TableStats::merged`]):
    /// the sharded counterpart of [`crate::Database::table_stats`].
    pub fn table_stats(&self, table: &str) -> Option<TableStats> {
        TableStats::merged(&self.table_stats_per_shard(table)?)
    }

    /// The snapshot subsystem's counters summed across every shard's
    /// catalogue (pins, deferred/reclaimed GCs — see
    /// [`crate::SharedCatalogue::snapshot_stats`]).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let mut out = SnapshotStats::default();
        for shard in &self.shards {
            out.absorb(&shard.catalogue.snapshot_stats());
        }
        out
    }

    /// Registers a table, splitting its rows into `shard_count`
    /// contiguous chunks — shard `i` owns rows
    /// `[i·⌈n/N⌉, (i+1)·⌈n/N⌉)`. Chunks keep their columns' relative
    /// order, so a sorted column stays sorted within every shard.
    ///
    /// On a durable database the registration is one atomic cross-shard
    /// write: every shard's log record carries one global transaction
    /// id, committed by the coordinator only after all shards flushed —
    /// a crash mid-registration rolls the whole table back on reopen.
    pub fn register(&mut self, table: Table) {
        let n = table.rows();
        let shard_count = self.shards.len();
        let chunk = n.div_ceil(shard_count).max(1);
        let parts = (0..shard_count)
            .map(|i| {
                let lo = (i * chunk).min(n);
                let hi = ((i + 1) * chunk).min(n);
                let mut part = Table::new(table.name());
                for col in table.column_names() {
                    let data = table.column(col).expect("listed column exists");
                    part = part.with_column(col, data[lo..hi].to_vec());
                }
                part
            })
            .collect();
        self.register_parts(parts);
    }

    /// Registers a table with caller-chosen partitions: `parts[i]`
    /// becomes shard `i`'s partition verbatim. This is the control
    /// knob [`ShardedDatabase::register`]'s even contiguous split
    /// deliberately lacks — skewed placements for stress tests and
    /// benches, or locality-driven placements an ingest pipeline
    /// already decided on.
    ///
    /// # Panics
    ///
    /// If `parts` does not hold exactly one table per shard, or the
    /// parts disagree on the table name (they are partitions of *one*
    /// logical table).
    pub fn register_partitioned(&mut self, parts: Vec<Table>) {
        assert_eq!(
            parts.len(),
            self.shards.len(),
            "one partition per shard ({} shards)",
            self.shards.len()
        );
        let name = parts[0].name().to_string();
        assert!(
            parts.iter().all(|p| p.name() == name),
            "partitions of one logical table share its name"
        );
        self.register_parts(parts);
    }

    /// The shared tail of both register paths: one commit registering
    /// one partition per shard, vouched for by the coordinator (see
    /// [`ShardedDatabase::commit`]). WAL failures panic — the register
    /// signatures predate durability and cannot carry the error, and
    /// losing a registration silently would corrupt every later replay.
    fn register_parts(&mut self, parts: Vec<Table>) {
        let mut commit = self.commit();
        for (shard, part) in parts.into_iter().enumerate() {
            commit.register(shard, part);
        }
        commit
            .finish(&[])
            .expect("write-ahead log append failed during register");
    }

    /// A write across every shard, vouched for by the coordinator's log
    /// when durable: every shard's records carry one global transaction
    /// id, and only the coordinator's commit record, written after every
    /// shard flushed, makes them count on replay.
    fn commit(&mut self) -> Commit<'_> {
        let vouch = self
            .coordinator
            .as_mut()
            .map_or(Vouch::Autocommit, Vouch::Log);
        Commit::begin(&mut self.shards, vouch)
    }

    /// Appends a batch of rows, routing the whole batch to the shard
    /// whose partition of `table` is currently **smallest** (ties
    /// broken by a rotating cursor, so equal shards take turns): the
    /// batch lands in that shard's delta store, bumps its data version,
    /// and may trip its compaction threshold — the per-shard write path
    /// mirrors the single-session one exactly, so sharded reads stay
    /// correct under interleaved ingest. Size-aware routing keeps
    /// partitions balanced under *uneven* batch streams, where blind
    /// rotation would slowly skew them.
    ///
    /// # Errors
    ///
    /// As [`crate::Database::append_rows`]; the batch is validated
    /// before any shard is touched, so a rejected batch mutates nothing.
    pub fn append_rows(
        &mut self,
        table: &str,
        batch: RowBatch,
    ) -> Result<ShardedIngestReceipt, SqlError> {
        // Validate against *every* shard's schema before any shard is
        // touched: shard catalogues are independently reachable, so a
        // divergent re-registration on one shard must fail the whole
        // batch up front rather than leave earlier shards mutated.
        for shard in &self.shards {
            let schema = shard
                .catalogue
                .schema(table)
                .ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
            let names: Vec<&str> = schema.iter().map(String::as_str).collect();
            batch.validate(&names).map_err(SqlError::Ingest)?;
        }

        let n = batch.rows();
        let shard_count = self.shards.len();
        // Size probe via the incrementally maintained statistics:
        // `table()` would materialise each shard's base++delta view —
        // an O(partition) copy per append on the write hot path.
        let sizes: Vec<usize> = self
            .shards
            .iter()
            .map(|s| s.catalogue.rows(table).unwrap_or(0))
            .collect();
        let smallest = *sizes.iter().min().expect("at least one shard");
        let chosen = (0..shard_count)
            .map(|k| (self.next_shard + k) % shard_count)
            .find(|&s| sizes[s] == smallest)
            .expect("a smallest shard exists");
        let mut per_shard = vec![0usize; shard_count];
        let mut compactions = 0;
        if n > 0 {
            // Through the committer, not the bare catalogue: a durable
            // shard logs the batch (or checkpoints on compaction) before
            // reporting the receipt. A routed append touches one shard
            // only, so its own autocommit record is already atomic — no
            // coordinator involvement.
            let receipt = self.shards[chosen].append(table, batch)?;
            per_shard[chosen] = n;
            if receipt.compacted {
                compactions += 1;
            }
            self.next_shard = (chosen + 1) % shard_count;
        }
        Ok(ShardedIngestReceipt {
            rows: n,
            per_shard,
            compactions,
        })
    }

    /// Parses and runs one `INSERT`, routing the tuples across the
    /// shards like [`ShardedDatabase::append_rows`].
    ///
    /// # Errors
    ///
    /// Parse errors, [`SqlError::UnknownTable`], [`SqlError::Ingest`];
    /// a `SELECT`/`EXPLAIN` is a typed parse error (use
    /// [`ShardedDatabase::run_sql`]).
    pub fn insert_sql(&mut self, sql: &str) -> Result<ShardedIngestReceipt, SqlError> {
        match parse_statement(sql)? {
            Statement::Insert(ins) => {
                let batch =
                    RowBatch::from_rows(&ins.columns, &ins.rows).map_err(SqlError::Ingest)?;
                self.append_rows(&ins.table, batch)
            }
            other => Err(rejection(other, "INSERT")),
        }
    }

    /// Parses and runs one `DELETE` or `UPDATE` across every shard
    /// (ARCHITECTURE.md, "Write path"): each shard resolves the
    /// predicate against its own partition and tombstones / overwrites
    /// its matches, and on a durable database all shards' records are
    /// tagged with one global transaction id and committed by the
    /// coordinator after every shard's log flushed — the mutation is
    /// atomic across a crash, all shards or none.
    ///
    /// The receipt's `rows` is the total across shards and
    /// `data_version` the merged version (see
    /// [`ShardedDatabase::data_version`]).
    ///
    /// # Errors
    ///
    /// Parse errors, [`SqlError::UnknownTable`], and
    /// [`SqlError::Plan`] for an `UPDATE ... SET` naming an unknown
    /// column — all surfaced before any shard is mutated.
    pub fn mutate_sql(&mut self, sql: &str) -> Result<MutationReceipt, SqlError> {
        match parse_statement(sql)? {
            Statement::Delete(del) => self.mutate_shards(&del.table, None, del.filter.as_ref()),
            Statement::Update(upd) => {
                self.mutate_shards(&upd.table, Some(&upd.sets), upd.filter.as_ref())
            }
            other => Err(rejection(other, "DELETE or UPDATE")),
        }
    }

    /// The cross-shard mutation engine behind
    /// [`ShardedDatabase::mutate_sql`]: `sets == None` deletes,
    /// `Some(sets)` updates. Names are validated on every shard before
    /// any shard is mutated, so errors leave nothing half-applied; then
    /// one commit across the shards ([`ShardedDatabase::commit`]) —
    /// install and buffer everywhere under one gtid, flush everywhere,
    /// the coordinator's commit, then the compaction check everywhere —
    /// under the coordinator's `&mut self` (no reader can interleave a
    /// write).
    fn mutate_shards(
        &mut self,
        table: &str,
        sets: Option<&Vec<(String, u32)>>,
        filter: Option<&(String, Predicate)>,
    ) -> Result<MutationReceipt, SqlError> {
        for shard in &self.shards {
            let schema = shard
                .catalogue
                .schema(table)
                .ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
            let set_columns = sets.into_iter().flatten().map(|(c, _)| c);
            let mut named = set_columns.chain(filter.map(|(c, _)| c));
            if let Some(column) = named.find(|c| !schema.contains(c)) {
                return Err(SqlError::Plan(PlanError::UnknownColumn(column.clone())));
            }
        }
        let shards = self.shards.len();
        let mut commit = self.commit();
        let mut total = 0usize;
        for shard in 0..shards {
            let (table, rows) = (table.to_string(), RowSel::Where(filter.cloned()));
            let mut op = match sets {
                None => WriteOp::Delete { table, rows },
                Some(sets) => WriteOp::Update {
                    table,
                    rows,
                    sets: sets.clone(),
                },
            };
            total += commit.install(shard, std::slice::from_mut(&mut op))?[0].rows;
        }
        commit.finish(&[table])?;
        let data_version = self
            .data_version(table)
            .ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
        Ok(MutationReceipt {
            rows: total,
            data_version,
        })
    }

    /// Parses and runs one `SELECT` across every shard through the read
    /// driver on the worker pool (ARCHITECTURE.md, "Read path"): each
    /// populated shard plans its partition, the plans run as stealable
    /// morsels, the partials merge once and the tail runs once on the
    /// coordinator. `EXPLAIN ANALYZE SELECT …` executes with per-morsel
    /// tracing on and returns the span tree in
    /// [`ShardedOutput::trace`]. Bare `EXPLAIN` is rejected — use
    /// [`ShardedDatabase::explain_sql`] for the typed per-shard plan —
    /// and so are writes (use [`ShardedDatabase::insert_sql`] /
    /// [`ShardedDatabase::mutate_sql`], which route to shards).
    ///
    /// # Errors
    ///
    /// As [`crate::Database::run_sql`], plus
    /// [`SqlError::ExplainStatement`] for `EXPLAIN`,
    /// [`SqlError::InsertStatement`] / [`SqlError::MutationStatement`]
    /// for writes and [`SqlError::ShardedTimeTravel`] for `AS OF`.
    /// Composite `GROUP BY` shards like any other query; only a
    /// *global* fused-key domain exceeding the 32-bit key space is
    /// rejected, with the same typed [`PlanError::CompositeKeyOverflow`]
    /// a single session reports.
    pub fn run_sql(&mut self, sql: &str) -> Result<ShardedOutput, SqlError> {
        self.read_sql(sql, None, None)
    }

    /// [`ShardedDatabase::run_sql`] under a [`CancelToken`]: the
    /// executor checks the token at every morsel pop, so tripping it —
    /// from any thread holding a clone — surfaces a typed
    /// [`SqlError::Cancelled`] within one morsel's latency and frees
    /// the pool for the next query. Cancelled queries are counted in
    /// [`ShardedDatabase::metrics`].
    pub fn run_sql_cancellable(
        &mut self,
        sql: &str,
        token: &CancelToken,
    ) -> Result<ShardedOutput, SqlError> {
        let out = self.read_sql(sql, None, Some(token));
        if matches!(out, Err(SqlError::Cancelled(_))) {
            self.shards[0].catalogue.metrics().record_cancelled();
        }
        out
    }

    /// [`ShardedDatabase::run_sql`] **at an atomic cross-shard
    /// snapshot** (see [`ShardedDatabase::snapshot`]): every shard
    /// plans and executes against its pinned cut, so the merged answer
    /// is a consistent database-wide view however much routed ingest
    /// has landed since the cut.
    ///
    /// # Errors
    ///
    /// As [`ShardedDatabase::run_sql`], except that writes are
    /// [`SqlError::ReadOnly`] (snapshots are immutable); plus
    /// [`SqlError::SnapshotShardMismatch`] when the snapshot's shard
    /// count differs from this database's, and
    /// [`SqlError::ForeignSnapshot`] when a shard cut belongs to a
    /// different catalogue.
    pub fn run_sql_at(
        &mut self,
        snap: &ShardedSnapshot,
        sql: &str,
    ) -> Result<ShardedOutput, SqlError> {
        self.read_sql(sql, Some(snap), None).map_err(|e| match e {
            SqlError::InsertStatement | SqlError::MutationStatement => SqlError::ReadOnly,
            e => e,
        })
    }

    /// The body of the three SQL read entry points.
    fn read_sql(
        &self,
        sql: &str,
        at: Option<&ShardedSnapshot>,
        cancel: Option<&CancelToken>,
    ) -> Result<ShardedOutput, SqlError> {
        let stmt = parse_statement(sql)?;
        if matches!(stmt, Statement::Explain(_)) {
            return Err(SqlError::ExplainStatement);
        }
        let trace = matches!(stmt, Statement::ExplainAnalyze(_));
        self.front(at)
            .select(&select_of(stmt)?, sql, trace, self.schedule(), cancel)
    }

    /// Where every read's ranges run: the worker pool.
    fn schedule(&self) -> Schedule<'_> {
        Schedule::Pool(&self.executor)
    }

    /// The front-end view of a read: every shard, at `at`'s per-shard
    /// cuts or live.
    fn front<'a>(&'a self, at: Option<&'a ShardedSnapshot>) -> Front<'a> {
        Front {
            shards: &self.shards,
            cut: at.map(|snap| &snap.shards[..]),
        }
    }

    /// Plans a statement against the first non-empty shard's partition
    /// (every shard plans the same shape; estimates are per-partition).
    /// A statement with a `JOIN` clause routes through the join planner
    /// and returns [`ExplainOutput::Join`]: the typed
    /// [`crate::JoinPlan`] at an atomic cross-shard cut, whose sharded
    /// exchange strategy ([`crate::JoinStrategy::Broadcast`] or
    /// [`crate::JoinStrategy::Partition`]) is picked from the merged
    /// [`TableStats`] of both sides.
    ///
    /// # Errors
    ///
    /// As [`crate::Database::explain_sql`].
    pub fn explain_sql(&self, sql: &str) -> Result<ExplainOutput, SqlError> {
        self.front(None).explain(&select_of(parse_statement(sql)?)?)
    }

    /// Prepares a statement — over one table or a two-table `JOIN` —
    /// for [`ShardedDatabase::execute_prepared`]: parsed once, and
    /// validated eagerly as [`ShardedDatabase::explain_sql`] plans it
    /// where there are rows to plan against. A table with no rows
    /// anywhere cannot plan until rows arrive, so its statement
    /// prepares and fails at execution with [`PlanError::EmptyTable`],
    /// as `run_sql` does — the rule [`crate::Database::prepare`]
    /// follows.
    ///
    /// # Errors
    ///
    /// As [`crate::Database::prepare`].
    pub fn prepare(&self, sql: &str) -> Result<ShardedStatement, SqlError> {
        self.front(None).prepare(sql)
    }

    /// Binds `params` and executes exactly like
    /// [`ShardedDatabase::run_sql`] of the bound SQL, without the parse:
    /// every shard plans the bound query through its own catalogue's
    /// plan cache, and the execution is recorded in
    /// [`ShardedDatabase::metrics`] and the slow-query ring under the
    /// bound SQL.
    ///
    /// # Errors
    ///
    /// Bind errors ([`PlanError::BindArity`] / [`PlanError::BindType`]
    /// wrapped in [`SqlError::Plan`]), plus whatever `run_sql` of the
    /// bound SQL reports.
    pub fn execute_prepared(
        &mut self,
        stmt: &mut ShardedStatement,
        params: &[u64],
    ) -> Result<ShardedOutput, SqlError> {
        let front = self.front(None);
        stmt.execute_with(params, |q| {
            front.select(q, &q.sql(), false, self.schedule(), None)
        })
    }

    /// [`ShardedDatabase::execute_prepared`] **at an atomic cross-shard
    /// snapshot**, as [`ShardedDatabase::run_sql_at`] reads it: each
    /// shard plans at its cut's statistics, so a statement prepared
    /// before heavy ingest reproduces the pinned answer exactly — even
    /// if the live §V-D choice has flipped on some shards since.
    ///
    /// # Errors
    ///
    /// As [`ShardedDatabase::execute_prepared`], plus
    /// [`SqlError::SnapshotShardMismatch`] /
    /// [`SqlError::ForeignSnapshot`] for cuts that do not match this
    /// database.
    pub fn execute_prepared_at(
        &mut self,
        stmt: &mut ShardedStatement,
        snap: &ShardedSnapshot,
        params: &[u64],
    ) -> Result<ShardedOutput, SqlError> {
        let front = self.front(Some(snap));
        stmt.execute_with(params, |q| {
            front.select(q, &q.sql(), false, self.schedule(), None)
        })
    }
}

/// The typed reason a sharded write entry point cannot take `stmt`;
/// `expected` names what it wanted where the statement is a read.
fn rejection(stmt: Statement, expected: &'static str) -> SqlError {
    let found = match stmt {
        Statement::Select(_) => "SELECT",
        Statement::Explain(_) | Statement::ExplainAnalyze(_) => "EXPLAIN",
        Statement::CreateSnapshot(_) => return SqlError::ShardedTimeTravel,
        other => return select_of(other).expect_err("not a read"),
    };
    let found = found.into();
    SqlError::Parse(ParseSqlError::Expected { expected, found })
}

/// Convenience: the merged output in [`QueryOutput`] form.
impl From<ShardedOutput> for QueryOutput {
    fn from(out: ShardedOutput) -> Self {
        QueryOutput {
            rows: out.rows,
            report: out.report,
        }
    }
}

/// An open write-ahead log: the writer and the file it appends to (a
/// checkpoint rewrites the file in place).
#[derive(Debug)]
pub(crate) struct Wal {
    path: PathBuf,
    writer: WalWriter,
}

impl Wal {
    /// Opens the log at `path`, or creates it. A torn tail — the
    /// signature of a crash mid-append — is truncated to the last valid
    /// record; real corruption (a mid-log checksum failure, out-of-order
    /// LSNs) is a typed [`SqlError::Wal`]. Returns the log, positioned
    /// to append, and the records it holds.
    pub(crate) fn open(path: PathBuf) -> Result<(Self, Vec<(u64, WalRecord)>), SqlError> {
        if !path.exists() {
            let writer = WalWriter::create(&path)?;
            return Ok((Self { path, writer }, Vec::new()));
        }
        let contents = wal::read_log(&path)?;
        if let Some(valid_len) = contents.torn {
            wal::truncate(&path, valid_len)?;
        }
        let writer = WalWriter::append_to(&path, contents.next_lsn)?;
        Ok((Self { path, writer }, contents.records))
    }

    /// Rewrites the log as `records` alone. The LSN chain continues
    /// where it left off, and the writer's counters stay cumulative:
    /// the replacement writer starts at zero, the log's activity did
    /// not.
    pub(crate) fn rewrite(&mut self, records: &[WalRecord]) -> Result<(), SqlError> {
        let prior = self.writer.stats();
        self.writer = wal::rewrite(&self.path, records, self.writer.next_lsn())?;
        self.writer.carry_stats(prior);
        Ok(())
    }
}

/// One partition of a database: its catalogue and, when durable, its
/// write-ahead log.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) catalogue: SharedCatalogue,
    wal: Option<Wal>,
}

impl Shard {
    /// An in-memory shard over `catalogue`.
    pub(crate) fn new(catalogue: SharedCatalogue) -> Self {
        Self {
            catalogue,
            wal: None,
        }
    }

    /// Opens (or creates) a durable shard in `dir`: its log is replayed
    /// into a fresh catalogue, records of transactions it does not
    /// commit skipped — unless `extra_committed` vouches for them (the
    /// sharded coordinator's commit set, which lives in a log of its
    /// own).
    pub(crate) fn open(dir: &Path, extra_committed: &BTreeSet<u64>) -> Result<Self, SqlError> {
        std::fs::create_dir_all(dir).map_err(|e| WalError::Io(e.to_string()))?;
        let (wal, records) = Wal::open(dir.join("wal.log"))?;
        let mut shard = Self::new(SharedCatalogue::new());
        let catalogue = &shard.catalogue;
        // Compaction stays off during replay: every compaction that
        // happened live rewrote the log into image records, so no
        // surviving record should re-trip one.
        catalogue.set_compaction_policy(CompactionPolicy::never());
        recovery::replay(catalogue, &records, extra_committed)?;
        catalogue.metrics().record_replay(records.len() as u64);
        catalogue.set_compaction_policy(CompactionPolicy::default());
        shard.wal = Some(wal);
        Ok(shard)
    }

    /// Whether the shard owns a write-ahead log.
    pub(crate) fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Buffers one record on the log without flushing (nothing on an
    /// in-memory shard).
    pub(crate) fn log(&mut self, record: &WalRecord) {
        if let Some(wal) = &mut self.wal {
            wal.writer.append(record);
        }
    }

    /// **The** durability point: every buffered record reaches the file
    /// here and nowhere else.
    pub(crate) fn flush_wal(&mut self) -> Result<(), SqlError> {
        if let Some(wal) = &mut self.wal {
            wal.writer.flush()?;
        }
        Ok(())
    }

    /// Rewrites the log as a checkpoint: one register image per table
    /// (delta folded in, exact version counters) plus one image per
    /// named snapshot. Replaying it reconstructs the current committed
    /// state directly. A no-op on an in-memory shard.
    pub(crate) fn checkpoint(&mut self) -> Result<(), SqlError> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let mut records = Vec::new();
        for (name, schema_version, data_version, table) in self.catalogue.checkpoint_images() {
            records.push(WalRecord::Register {
                txn: AUTOCOMMIT,
                table: name,
                schema_version,
                data_version,
                columns: columns_of(&table),
            });
        }
        for (name, tables) in self.catalogue.named_images() {
            let tables = tables
                .iter()
                .map(|(t, (v, content))| (t.clone(), *v, columns_of(content)))
                .collect();
            records.push(WalRecord::SnapshotImage { name, tables });
        }
        wal.rewrite(&records)
    }

    /// Appends a batch: the committer with one op, autocommit.
    pub(crate) fn append(
        &mut self,
        table: &str,
        batch: RowBatch,
    ) -> Result<IngestReceipt, SqlError> {
        let mut commit = Commit::begin(std::slice::from_mut(self), Vouch::Autocommit);
        let op = WriteOp::Append {
            table: table.to_string(),
            batch,
        };
        let done = commit.install(0, &mut [op])?[0];
        Ok(done.receipt(commit.finish(&[table])? > 0))
    }

    /// The shard's metrics: its registry's counters plus the plan
    /// cache's, the snapshot subsystem's and, when durable, the log
    /// writer's.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.catalogue.metrics().snapshot();
        self.catalogue.cache_stats().export_into(&mut snap);
        self.catalogue.snapshot_stats().export_into(&mut snap);
        if let Some(wal) = &self.wal {
            let stats = wal.writer.stats();
            snap.add("wal_appends", stats.appends);
            snap.add("wal_flushes", stats.flushes);
            snap.add("wal_bytes", stats.bytes);
        }
        snap
    }
}

/// Which log's commit record makes a write's records count on replay.
pub(crate) enum Vouch<'a> {
    /// None: every record is its own autocommit — one statement on one
    /// shard.
    Autocommit,
    /// The one shard's own log, whose flush carries the commit record
    /// with the records it closes (a `Database` `COMMIT`).
    Own,
    /// A log of its own, written after every shard flushed (the
    /// coordinator's, for a cross-shard write): a shard's records
    /// without it are skipped on replay, so the write is atomic across
    /// a crash.
    Log(&'a mut Wal),
}

/// **The** committer (ARCHITECTURE.md, "Write path"): every
/// registration, append, autocommit statement, `COMMIT` and cross-shard
/// write is one of these, over one shard or many. [`Commit::register`] /
/// [`Commit::install`] change a shard's catalogue and buffer the
/// records under the commit's one transaction id; [`Commit::finish`]
/// flushes every shard, writes the commit record on the vouching log,
/// and only then runs the compaction check. The transaction id is the
/// LSN the vouching log's commit record will take: unique, monotonic,
/// and it survives restarts for free.
pub(crate) struct Commit<'a> {
    shards: &'a mut [Shard],
    vouch: Vouch<'a>,
    txn: u64,
    changed: bool,
}

impl<'a> Commit<'a> {
    /// Opens a write across `shards`, vouched for by `vouch`.
    pub(crate) fn begin(shards: &'a mut [Shard], vouch: Vouch<'a>) -> Self {
        let log = match &vouch {
            Vouch::Autocommit => None,
            Vouch::Own => shards[0].wal.as_ref(),
            Vouch::Log(wal) => Some(&**wal),
        };
        let txn = log.map_or(AUTOCOMMIT, |wal| wal.writer.next_lsn());
        Self {
            shards,
            vouch,
            txn,
            changed: false,
        }
    }

    /// Registers `table` on shard `shard` (replacing any table of that
    /// name, which is returned) and buffers its image record.
    pub(crate) fn register(&mut self, shard: usize, table: Table) -> Option<Table> {
        self.changed = true;
        let shard = &mut self.shards[shard];
        let name = table.name().to_string();
        let old = shard.catalogue.register(table);
        if shard.is_durable() {
            let (schema_version, data_version) =
                shard.catalogue.versions(&name).expect("just registered");
            let content = shard.catalogue.table(&name).expect("just registered");
            shard.log(&WalRecord::Register {
                txn: self.txn,
                table: name,
                schema_version,
                data_version,
                columns: columns_of(&content),
            });
        }
        old
    }

    /// Installs `ops` on shard `shard` under one catalogue lock and
    /// buffers their records. Returns what each op did; a list that
    /// changed nothing buffers nothing.
    pub(crate) fn install(
        &mut self,
        shard: usize,
        ops: &mut [WriteOp],
    ) -> Result<Vec<Installed>, SqlError> {
        let shard = &mut self.shards[shard];
        let done = shard.catalogue.install(ops)?;
        if done.iter().any(|d| d.rows > 0) {
            self.changed = true;
            if let Some(wal) = &mut shard.wal {
                for op in ops.iter() {
                    wal.writer.append(&record_of(op, self.txn));
                }
            }
        }
        Ok(done)
    }

    /// Ends the write, if it changed anything: the commit record, every
    /// shard's flush, then the compaction check of every table the write
    /// touched (`tables`, once each) on every shard. Returns how many
    /// compactions that installed.
    pub(crate) fn finish(self, tables: &[&str]) -> Result<usize, SqlError> {
        if !self.changed {
            return Ok(0);
        }
        let commit = WalRecord::Commit { txn: self.txn };
        let vouched = self.txn != AUTOCOMMIT;
        if let (true, Vouch::Own) = (vouched, &self.vouch) {
            self.shards[0].log(&commit);
        }
        for shard in self.shards.iter_mut() {
            shard.flush_wal()?;
        }
        if let (true, Vouch::Log(wal)) = (vouched, self.vouch) {
            wal.writer.append(&commit);
            wal.writer.flush()?;
        }
        let mut compactions = 0;
        for shard in self.shards.iter_mut() {
            for table in tables {
                // A compaction rewrites history the log's records
                // describe: it checkpoints the log.
                if shard.catalogue.maybe_compact(table) {
                    shard.checkpoint()?;
                    compactions += 1;
                }
            }
        }
        Ok(compactions)
    }
}

/// What a read reads: a database's shards, live or at a cut — one
/// [`Snapshot`] per shard. A `Database` is its one shard at its
/// `run_sql_at` snapshot or its read-only transaction's; a
/// `ShardedDatabase` is its shards at a `ShardedSnapshot`'s cuts.
pub(crate) struct Front<'a> {
    pub(crate) shards: &'a [Shard],
    pub(crate) cut: Option<&'a [Snapshot]>,
}

/// What a read has planned: the per-shard plans the read driver runs,
/// and the host steps that ran before them (a join's build and probe).
pub(crate) type Planned = (Vec<Option<QueryPlan>>, Vec<PlanStep>);

impl Front<'_> {
    /// **The** read above the driver: plans `q` on every populated
    /// shard — a join plans at one cut and runs its build and probe
    /// first, on the schedule's pool when it has one — and finishes it
    /// ([`Front::finish`]). `trace` gathers an `EXPLAIN ANALYZE` trace,
    /// returned in [`ShardedOutput::trace`].
    ///
    /// # Errors
    ///
    /// [`SqlError::ShardedTimeTravel`] for `AS OF` (a front-end reads
    /// live or at a cut; a frozen version is the catalogue's own), plus
    /// whatever planning, the join and the driver report.
    pub(crate) fn select(
        &self,
        q: &SqlQuery,
        sql: &str,
        trace: bool,
        schedule: Schedule<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<ShardedOutput, SqlError> {
        let mut trace = trace.then(|| QueryTrace::new(sql.trim().to_string()));
        let planned = match q.join {
            None => (self.plan(q)?, Vec::new()),
            Some(_) => self.with_cut(|cut| {
                let (plan, l, r) = self.plan_join(cut, q)?;
                let engine = self.shards[0].catalogue.engine();
                join_read(engine, plan, &l, &r, &schedule, cancel, trace.as_mut())
            })?,
        };
        self.finish(sql, planned, trace, schedule, cancel)
    }

    /// Drives what a read planned on `schedule`, and records the
    /// finished read once, in the lead shard's metrics registry — the
    /// query, its pruned ranges, whether it was traced: the one finish
    /// step behind every `SELECT`, ad hoc or prepared, table or join, on
    /// either database.
    pub(crate) fn finish(
        &self,
        sql: &str,
        (plans, prefix): Planned,
        mut trace: Option<QueryTrace>,
        schedule: Schedule<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<ShardedOutput, SqlError> {
        let metrics = self.shards[0].catalogue.metrics();
        let request = ReadRequest {
            plans,
            prefix: &prefix,
            cancel,
            trace: trace.as_mut(),
        };
        let mut out = schedule.drive(request, metrics)?;
        metrics.record_pruned(out.pruned.0, out.pruned.1);
        let (cycles, rows, steps) = (out.report.cycles, out.rows.len(), out.report.steps.len());
        metrics.record_query(sql.trim(), cycles, rows as u64, steps);
        if trace.is_some() {
            metrics.record_traced_query();
        }
        out.trace = trace.map(Box::new);
        Ok(out)
    }

    /// Plans a statement without executing it: a table's plan on the
    /// first populated shard (every shard plans the same shape;
    /// estimates are per partition), or a join's at one cut, whose
    /// sharded exchange strategy is picked from the merged statistics
    /// of both sides.
    pub(crate) fn explain(&self, q: &SqlQuery) -> Result<ExplainOutput, SqlError> {
        if q.join.is_some() {
            let (plan, ..) = self.with_cut(|cut| self.plan_join(cut, q))?;
            return Ok(ExplainOutput::Join(Box::new(plan)));
        }
        let first = self.plan(q)?.into_iter().flatten().next();
        let plan = first.expect("a populated shard planned");
        Ok(ExplainOutput::Plan(Box::new(plan)))
    }

    /// Parses a `SELECT` template and validates it as
    /// [`Front::explain`] plans it, where there are rows to plan
    /// against: a table with no rows anywhere cannot plan until rows
    /// arrive, so its statement prepares, and fails at execution with
    /// [`PlanError::EmptyTable`] as `run_sql` does.
    pub(crate) fn prepare(&self, sql: &str) -> Result<PreparedStatement, SqlError> {
        let stmt = PreparedStatement::new(parse_template(sql)?);
        match self.explain(&stmt.query()) {
            Ok(_) | Err(SqlError::Plan(PlanError::EmptyTable)) => Ok(stmt),
            Err(e) => Err(e),
        }
    }

    /// Whether the read can be served here: live, or at a cut of one
    /// snapshot per shard, each from that shard's own catalogue.
    fn check(&self, q: &SqlQuery) -> Result<(), SqlError> {
        if q.as_of.is_some() {
            return Err(SqlError::ShardedTimeTravel);
        }
        let Some(cut) = self.cut else {
            return Ok(());
        };
        if cut.len() != self.shards.len() {
            return Err(SqlError::SnapshotShardMismatch {
                snapshot: cut.len(),
                database: self.shards.len(),
            });
        }
        let foreign = |(s, c): (&Shard, &Snapshot)| !c.catalogue().is_same(&s.catalogue);
        if self.shards.iter().zip(cut).any(foreign) {
            return Err(SqlError::ForeignSnapshot);
        }
        Ok(())
    }

    /// Runs `f` at the read's cut, or — reading live — at a fresh
    /// atomic cut of every shard, so a join's two sides are read at one
    /// moment everywhere.
    fn with_cut<R>(&self, f: impl FnOnce(&[Snapshot]) -> R) -> R {
        match self.cut {
            Some(cut) => f(cut),
            None => f(&cut_now(self.shards)),
        }
    }

    /// Plans `q` on every shard whose partition of its table has rows —
    /// at the shard's cut when reading at one (a table registered after
    /// the cut does not exist there), else live. A live shard's rows are
    /// its statistics' count, read under the registry lock: counting
    /// them captures no cut and materialises nothing. Planning
    /// everything up front surfaces errors before any range runs.
    ///
    /// # Errors
    ///
    /// [`SqlError::UnknownTable`] when no shard knows the table,
    /// [`PlanError::EmptyTable`] when it has no rows anywhere (nothing
    /// validated the query, so it must not reach the host tail),
    /// [`Front::check`]'s errors, and whatever planning returns.
    fn plan(&self, q: &SqlQuery) -> Result<Vec<Option<QueryPlan>>, SqlError> {
        self.check(q)?;
        let table = q.table.as_str();
        let mut known = false;
        let mut plans = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let catalogue = &shard.catalogue;
            let cut = self.cut.map(|cut| &cut[i]);
            let rows = match cut {
                Some(cut) => cut.cut(table).map(|c| c.stats.rows()),
                None => catalogue.rows(table),
            };
            known |= rows.is_some();
            plans.push(match (rows, cut) {
                (Some(0) | None, _) => None,
                (Some(_), Some(cut)) => Some(catalogue.plan_query_at(cut, table, &q.query)?),
                (Some(_), None) => Some(catalogue.plan_query(table, &q.query)?),
            });
        }
        if !known {
            return Err(SqlError::UnknownTable(table.to_string()));
        }
        if plans.iter().all(Option::is_none) {
            return Err(SqlError::Plan(PlanError::EmptyTable));
        }
        Ok(plans)
    }

    /// Plans a two-table join at `cut`, returned with both sides'
    /// partitions for the build and probe: the statistics and data
    /// version of each side are merged across the cut, so the §V-D
    /// build-side choice and the exchange strategy see the whole table,
    /// not one partition.
    fn plan_join(
        &self,
        cut: &[Snapshot],
        q: &SqlQuery,
    ) -> Result<(JoinPlan, Vec<Table>, Vec<Table>), SqlError> {
        self.check(q)?;
        let side = |name: &str| {
            let parts: Option<Vec<Table>> = cut.iter().map(|s| s.table(name)).collect();
            let version = merged_data_version(cut.iter().map(|s| s.data_version(name)));
            match (parts, cut_stats(cut, name), version) {
                (Some(parts), Some(stats), Some(version)) => Ok((parts, stats, version)),
                _ => Err(SqlError::UnknownTable(name.to_string())),
            }
        };
        let Some(join) = &q.join else {
            unreachable!("caller verified a join clause")
        };
        let ((lt, ls, lv), (rt, rs, rv)) = (side(&q.table)?, side(&join.table)?);
        let shards = self.shards.len();
        let plan = plan_join(q, (&lt, &ls, lv), (&rt, &rs, rv), shards, None)?;
        Ok((plan, lt, rt))
    }
}

/// An atomic cut of every shard: every registry read lock is taken
/// first, in shard order — the only multi-catalogue lock acquirer, so
/// no cycle exists — then each shard is cut under the held locks, so no
/// write through any handle can land between two shards' cuts.
fn cut_now(shards: &[Shard]) -> Vec<Snapshot> {
    let guards: Vec<_> = shards.iter().map(|s| s.catalogue.registry_read()).collect();
    let cut = |(s, guard): (&Shard, _)| s.catalogue.capture_under(guard);
    shards.iter().zip(&guards).map(cut).collect()
}

/// The WAL record describing one installed (hence resolved) op, tagged
/// with the owning transaction id.
fn record_of(op: &WriteOp, txn: u64) -> WalRecord {
    match op {
        WriteOp::Append { table, batch } => WalRecord::Batch {
            txn,
            table: table.clone(),
            columns: batch
                .columns()
                .map(|(n, v)| (n.to_string(), v.to_vec()))
                .collect(),
        },
        WriteOp::Delete { table, rows } => WalRecord::Delete {
            txn,
            table: table.clone(),
            rows: rows.ids().to_vec(),
        },
        WriteOp::Update { table, rows, sets } => WalRecord::Update {
            txn,
            table: table.clone(),
            rows: rows.ids().to_vec(),
            sets: sets.clone(),
        },
    }
}

/// A table's full column content, owned — the payload of a register or
/// snapshot image record.
fn columns_of(table: &Table) -> Vec<(String, Vec<u32>)> {
    table
        .column_names()
        .iter()
        .map(|n| {
            (
                n.to_string(),
                table.column(n).expect("listed column exists").to_vec(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, SqlOutcome};

    fn events(n: usize) -> Table {
        Table::new("events")
            .with_column("g", (0..n).map(|i| ((i * 7919) % 23) as u32).collect())
            .with_column("v", (0..n).map(|i| ((i * 31) % 100) as u32).collect())
    }

    fn single_answer(n: usize, sql: &str) -> QueryOutput {
        let mut db = Database::new();
        db.register(events(n));
        db.execute_sql(sql).unwrap()
    }

    #[test]
    fn sharded_aggregates_match_a_single_session() {
        let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) \
                   FROM events GROUP BY g";
        let single = single_answer(1000, sql);
        for shards in [1, 2, 4, 8] {
            let mut sharded = ShardedDatabase::new(shards);
            sharded.register(events(1000));
            let out = sharded.run_sql(sql).unwrap();
            assert_eq!(out.rows, single.rows, "{shards} shards");
            assert_eq!(out.report.rows_aggregated, 1000);
            assert_eq!(out.shard_reports.len(), shards);
        }
    }

    #[test]
    fn sharded_where_having_order_limit_match_a_single_session() {
        let sql = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > 40 \
                   GROUP BY g HAVING SUM(v) > 500 ORDER BY SUM(v) DESC LIMIT 5";
        let single = single_answer(1000, sql);
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(1000));
        let out = sharded.run_sql(sql).unwrap();
        assert_eq!(out.rows, single.rows);
    }

    #[test]
    fn makespan_cycles_are_the_busiest_worker() {
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(400));
        let out = sharded
            .run_sql("SELECT g, SUM(v) FROM events WHERE v > 40 GROUP BY g")
            .unwrap();
        let makespan = *out.worker_loads.iter().max().unwrap();
        assert_eq!(out.report.cycles, makespan);
        assert!(out.shard_reports.iter().all(|r| r.cycles > 0));
        // Every cycle of shard work is accounted to exactly one worker,
        // and every worker that ran a morsel paid for one aggregate of
        // its own — the same open + close each — on top.
        let loads: u64 = out.worker_loads.iter().sum();
        let ranges: u64 = out.shard_reports.iter().map(|r| r.cycles).sum();
        let active = out.worker_loads.iter().filter(|&&l| l > 0).count() as u64;
        assert!(loads > ranges, "{loads} vs {ranges}");
        assert_eq!((loads - ranges) % active, 0, "{:?}", out.worker_loads);
        // cpt keeps its contract: makespan cycles per *input* tuple
        // (400 rows entered the shards), not per surviving row.
        assert!(out.report.rows_aggregated < 400, "the filter removed rows");
        assert!((out.report.cpt - makespan as f64 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn the_worker_pool_persists_across_queries() {
        let mut sharded = ShardedDatabase::new(2);
        sharded.register(events(200));
        assert_eq!(sharded.executor_config().workers, 2, "0 = shard count");
        for _ in 0..3 {
            sharded
                .run_sql("SELECT g, SUM(v) FROM events GROUP BY g")
                .unwrap();
        }
        let stats = sharded.executor_stats();
        assert_eq!(stats.queries, 3, "one pool served every query");
        assert!(stats.morsels >= 6, "at least one morsel per shard");
    }

    #[test]
    fn stealing_levels_a_skewed_partition_without_changing_results() {
        let sql = "SELECT g, COUNT(*), SUM(v), MIN(v) FROM events GROUP BY g";
        let single = single_answer(1200, sql);
        let skewed_parts = |n: usize| {
            // 90% of the rows on shard 0, the rest spread thin.
            let t = events(n);
            let cuts = [0, n * 9 / 10, n * 29 / 30, n * 59 / 60, n];
            (0..4)
                .map(|i| {
                    let (lo, hi) = (cuts[i], cuts[i + 1]);
                    let mut part = Table::new("events");
                    for col in t.column_names() {
                        part = part.with_column(col, t.column(col).unwrap()[lo..hi].to_vec());
                    }
                    part
                })
                .collect::<Vec<_>>()
        };
        let mut makespans = Vec::new();
        for steal in [false, true] {
            let mut sharded = ShardedDatabase::with_executor(
                Engine::new(),
                4,
                ExecutorConfig {
                    workers: 4,
                    morsel_rows: 32,
                    steal,
                    ..ExecutorConfig::default()
                },
            );
            sharded.register_partitioned(skewed_parts(1200));
            // Warm the pool (first-touch cache misses), then measure —
            // the steady state a persistent pool exists for.
            sharded.run_sql(sql).unwrap();
            let out = sharded.run_sql(sql).unwrap();
            assert_eq!(out.rows, single.rows, "steal={steal}");
            if steal {
                assert!(out.steals > 0, "idle workers raided the hot shard");
            } else {
                assert_eq!(out.steals, 0);
            }
            makespans.push(out.report.cycles);
        }
        assert!(
            makespans[1] < makespans[0],
            "stealing shortened the skewed makespan: {} < {}",
            makespans[1],
            makespans[0]
        );
    }

    #[test]
    fn a_statement_runs_on_any_shard_layout() {
        // A statement is a template, not per-shard plans: prepared on
        // two shards, it executes on four as on its own database.
        let mut two = ShardedDatabase::new(2);
        two.register(events(100));
        let mut stmt = two
            .prepare("SELECT g, SUM(v) FROM events WHERE v > ? GROUP BY g")
            .unwrap();
        let mut four = ShardedDatabase::new(4);
        four.register(events(100));
        let on_four = four.execute_prepared(&mut stmt, &[10]).unwrap();
        let on_two = two.execute_prepared(&mut stmt, &[10]).unwrap();
        assert!(!on_two.rows.is_empty());
        assert_eq!(on_four.rows, on_two.rows);
        assert_eq!(stmt.executions(), 2);
    }

    #[test]
    fn more_shards_than_rows_skips_empty_partitions() {
        let mut sharded = ShardedDatabase::new(8);
        sharded.register(
            Table::new("events")
                .with_column("g", vec![1, 1, 2])
                .with_column("v", vec![10, 20, 30]),
        );
        let out = sharded
            .run_sql("SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.report.rows_aggregated, 3);
        assert!(out.shard_reports.len() < 8, "empty shards never ran");
    }

    fn two_key_table(n: usize) -> Table {
        Table::new("t")
            .with_column("a", (0..n).map(|i| ((i * 13) % 5) as u32).collect())
            .with_column("b", (0..n).map(|i| ((i * 7) % 9) as u32).collect())
            .with_column("v", (0..n).map(|i| ((i * 3) % 50) as u32).collect())
    }

    #[test]
    fn composite_group_by_shards_and_matches_a_single_session() {
        // Every morsel fuses (a, b) with the plan's global key
        // domains, so the partials merge directly and the answer must
        // match a single session bit for bit.
        let sql = "SELECT a, b, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t \
                   WHERE v <> 7 GROUP BY a, b";
        let mut single = Database::new();
        single.register(two_key_table(300));
        let expect = single.execute_sql(sql).unwrap();
        for shards in [1, 2, 4, 7] {
            let mut sharded = ShardedDatabase::new(shards);
            sharded.register(two_key_table(300));
            let out = sharded.run_sql(sql).unwrap();
            assert_eq!(out.rows, expect.rows, "{shards} shards");
        }
    }

    #[test]
    fn composite_group_by_prepares_and_reads_snapshots() {
        let sql = "SELECT a, b, COUNT(*), SUM(v) FROM t WHERE v < ? GROUP BY a, b";
        let mut sharded = ShardedDatabase::new(3);
        sharded.register(two_key_table(120));
        let mut single = Database::new();
        single.register(two_key_table(120));

        // Prepared path.
        let mut stmt = sharded.prepare(sql).unwrap();
        let mut fresh = single.prepare(sql).unwrap();
        for threshold in [10u64, 40, 50] {
            let got = sharded.execute_prepared(&mut stmt, &[threshold]).unwrap();
            let expect = fresh.execute(&mut single, &[threshold]).unwrap();
            assert_eq!(got.rows, expect.rows, "threshold {threshold}");
        }

        // Snapshot paths keep answering the pinned cut after ingest.
        let snap = sharded.snapshot();
        let before = sharded.execute_prepared(&mut stmt, &[50]).unwrap();
        sharded
            .insert_sql("INSERT INTO t (a, b, v) VALUES (9, 9, 1), (9, 8, 2)")
            .unwrap();
        let at = sharded
            .execute_prepared_at(&mut stmt, &snap, &[50])
            .unwrap();
        assert_eq!(at.rows, before.rows, "pinned composite cut");
        let at = sharded
            .run_sql_at(
                &snap,
                "SELECT a, b, COUNT(*), SUM(v) FROM t WHERE v < 50 GROUP BY a, b",
            )
            .unwrap();
        assert_eq!(at.rows, before.rows);
        // The live read sees the two appended (9, *) groups.
        let live = sharded.execute_prepared(&mut stmt, &[50]).unwrap();
        assert_eq!(live.rows.len(), before.rows.len() + 2);
    }

    #[test]
    fn composite_group_by_with_tails_matches_a_single_session() {
        let sql = "SELECT a, b, COUNT(*), SUM(v) FROM t WHERE v > 2 GROUP BY a, b \
                   HAVING SUM(v) > 100 ORDER BY SUM(v) DESC LIMIT 7";
        let mut single = Database::new();
        single.register(two_key_table(400));
        let expect = single.execute_sql(sql).unwrap();
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(two_key_table(400));
        let out = sharded.run_sql(sql).unwrap();
        assert_eq!(out.rows, expect.rows);
        assert!(!out.rows.is_empty());
        assert_eq!(out.rows[0].group_parts.len(), 2, "decomposed (a, b)");
    }

    #[test]
    fn cross_shard_composite_domain_overflow_is_typed() {
        // Each shard's own domain product fits u32, but the global
        // product (measured across shards) does not: shard 0 maxes a,
        // shard 1 maxes b.
        let mut sharded = ShardedDatabase::new(2);
        sharded.register_partitioned(vec![
            Table::new("t")
                .with_column("a", vec![1 << 17, 1])
                .with_column("b", vec![0, 1])
                .with_column("v", vec![1, 2]),
            Table::new("t")
                .with_column("a", vec![0, 1])
                .with_column("b", vec![1 << 17, 1])
                .with_column("v", vec![3, 4]),
        ]);
        let e = sharded
            .run_sql("SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
            .unwrap_err();
        assert!(
            matches!(
                e,
                SqlError::Plan(PlanError::CompositeKeyOverflow { domain })
                    if domain > u32::MAX as u64
            ),
            "got {e:?}"
        );
    }

    #[test]
    fn prepared_sharded_pipeline_matches_fresh_sql() {
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(800));
        let mut stmt = sharded
            .prepare("SELECT g, COUNT(*), SUM(v), MIN(v) FROM events WHERE v < ? GROUP BY g")
            .unwrap();
        for threshold in [10u64, 50, 99, 1] {
            let prepared = sharded.execute_prepared(&mut stmt, &[threshold]).unwrap();
            let fresh = single_answer(
                800,
                &format!(
                    "SELECT g, COUNT(*), SUM(v), MIN(v) FROM events \
                     WHERE v < {threshold} GROUP BY g"
                ),
            );
            assert_eq!(prepared.rows, fresh.rows, "threshold {threshold}");
        }
        assert_eq!(stmt.executions(), 4);
        assert_eq!(stmt.parameter_count(), 1);
        for shard in sharded.shards() {
            // Every shard planned the shape once; each bind was a hit.
            assert_eq!(shard.cache_stats().misses, 1);
        }
    }

    #[test]
    fn sharded_filter_removing_everything_yields_empty_rows() {
        let mut sharded = ShardedDatabase::new(3);
        sharded.register(events(90));
        let out = sharded
            .run_sql("SELECT g, SUM(v) FROM events WHERE v > 1000 GROUP BY g")
            .unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.report.algorithm, None);
        assert_eq!(out.report.rows_aggregated, 0);
    }

    #[test]
    fn explain_is_rejected_but_explain_sql_plans() {
        let mut sharded = ShardedDatabase::new(2);
        sharded.register(events(100));
        let e = sharded
            .run_sql("EXPLAIN SELECT g, SUM(v) FROM events GROUP BY g")
            .unwrap_err();
        assert_eq!(e, SqlError::ExplainStatement);
        let out = sharded
            .explain_sql("SELECT g, SUM(v) FROM events GROUP BY g")
            .unwrap();
        let plan = out.plan().expect("non-join SELECT yields a query plan");
        assert_eq!(plan.rows(), 50, "plans one shard's partition");
    }

    #[test]
    fn unknown_table_is_reported() {
        let mut sharded = ShardedDatabase::new(2);
        let e = sharded
            .run_sql("SELECT g, SUM(v) FROM nope GROUP BY g")
            .unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("nope".into()));
    }

    #[test]
    fn sharded_snapshots_are_an_atomic_cross_shard_cut() {
        let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(400));
        let snap = sharded.snapshot();
        let before = sharded.run_sql(sql).unwrap();

        // Routed ingest mutates the live table...
        sharded
            .insert_sql("INSERT INTO events (g, v) VALUES (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)")
            .unwrap();
        assert_eq!(sharded.run_sql(sql).unwrap().report.rows_aggregated, 405);

        // ...and the snapshot keeps answering the pre-append cut on
        // every shard: no shard mixes post-append rows in.
        let at = sharded.run_sql_at(&snap, sql).unwrap();
        assert_eq!(at.rows, before.rows);
        assert_eq!(at.report.rows_aggregated, 400);
        assert_eq!(snap.data_versions("events"), Some(vec![1, 1, 1, 1]));
    }

    #[test]
    fn sharded_snapshot_misuse_is_typed() {
        let mut four = ShardedDatabase::new(4);
        four.register(events(100));
        let snap = four.snapshot();
        // Wrong shard count.
        let mut two = ShardedDatabase::new(2);
        two.register(events(100));
        let e = two
            .run_sql_at(&snap, "SELECT g, SUM(v) FROM events GROUP BY g")
            .unwrap_err();
        assert_eq!(
            e,
            SqlError::SnapshotShardMismatch {
                snapshot: 4,
                database: 2
            }
        );
        assert!(e.to_string().contains("4 shard(s)"));
        // Right count, wrong catalogues.
        let mut other = ShardedDatabase::new(4);
        other.register(events(100));
        let e = other
            .run_sql_at(&snap, "SELECT g, SUM(v) FROM events GROUP BY g")
            .unwrap_err();
        assert_eq!(e, SqlError::ForeignSnapshot);
        // Writes and transaction brackets are rejected.
        let e = four
            .run_sql_at(&snap, "INSERT INTO events (g, v) VALUES (1, 2)")
            .unwrap_err();
        assert_eq!(e, SqlError::ReadOnly);
        let e = four.run_sql_at(&snap, "BEGIN READ ONLY").unwrap_err();
        assert_eq!(e, SqlError::TransactionStatement);
    }

    #[test]
    fn prepared_statements_execute_at_sharded_snapshots() {
        let sql = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v < ? GROUP BY g";
        let mut sharded = ShardedDatabase::new(3);
        sharded.register(events(90));
        let mut stmt = sharded.prepare(sql).unwrap();
        let snap = sharded.snapshot();
        let before = sharded.execute_prepared(&mut stmt, &[100]).unwrap();
        sharded
            .insert_sql("INSERT INTO events (g, v) VALUES (1, 1), (2, 2)")
            .unwrap();
        let at = sharded
            .execute_prepared_at(&mut stmt, &snap, &[100])
            .unwrap();
        assert_eq!(at.rows, before.rows, "pinned cross-shard cut");
        let live = sharded.execute_prepared(&mut stmt, &[100]).unwrap();
        assert_eq!(live.report.rows_aggregated, 92);
        assert_eq!(stmt.executions(), 3);
    }

    #[test]
    fn sharded_drift_accessors_mirror_the_single_session_ones() {
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(100));
        assert_eq!(sharded.data_versions("events"), Some(vec![1, 1, 1, 1]));
        assert_eq!(sharded.data_version("events"), Some(1));
        assert_eq!(sharded.data_versions("nope"), None);
        assert!(sharded.table_stats("nope").is_none());

        // A 3-row insert lands whole on the smallest shard: one
        // per-shard bump, merged version 1 + 1.
        sharded
            .insert_sql("INSERT INTO events (g, v) VALUES (50, 200), (1, 2), (2, 3)")
            .unwrap();
        let versions = sharded.data_versions("events").unwrap();
        assert_eq!(versions.iter().filter(|&&v| v == 2).count(), 1);
        assert_eq!(sharded.data_version("events"), Some(2));

        // Merged statistics cover every partition, and so do the
        // partitions' views.
        let stats = sharded.table_stats("events").unwrap();
        assert_eq!(stats.rows(), 103);
        let max = |column: &str| {
            let parts = sharded
                .shards()
                .into_iter()
                .map(|s| s.table("events").unwrap());
            parts.filter_map(|t| t.meta(column).unwrap().max).max()
        };
        assert_eq!(max("g"), Some(50));
        assert_eq!(max("v"), Some(200));
        let per_shard = sharded.table_stats_per_shard("events").unwrap();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(TableStats::rows).sum::<usize>(), 103);

        // Snapshot counters aggregate across shard catalogues.
        let snap = sharded.snapshot();
        let stats = sharded.snapshot_stats();
        assert_eq!(stats.live_snapshots, 4, "one cut per shard");
        drop(snap);
        assert_eq!(sharded.snapshot_stats().live_snapshots, 0);
    }

    #[test]
    fn routed_ingest_matches_a_single_session() {
        let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events GROUP BY g";
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(200));

        let mut single = Database::new();
        single.register(events(200));

        // Stream several batches through both write paths.
        for (lo, hi) in [(0u32, 40u32), (40, 41), (41, 100)] {
            let g: Vec<u32> = (lo..hi).map(|i| i % 17).collect();
            let v: Vec<u32> = (lo..hi).map(|i| i % 50).collect();
            let batch = || {
                RowBatch::new()
                    .with_column("g", g.clone())
                    .with_column("v", v.clone())
            };
            let receipt = sharded.append_rows("events", batch()).unwrap();
            assert_eq!(receipt.rows, (hi - lo) as usize);
            assert_eq!(receipt.per_shard.iter().sum::<usize>(), receipt.rows);
            single.append_rows("events", batch()).unwrap();
            let got = sharded.run_sql(sql).unwrap();
            let expect = single.execute_sql(sql).unwrap();
            assert_eq!(got.rows, expect.rows, "after batch {lo}..{hi}");
        }
    }

    fn shard_rows(sharded: &ShardedDatabase) -> Vec<usize> {
        sharded
            .shards()
            .iter()
            .map(|s| s.table("events").unwrap().rows())
            .collect()
    }

    #[test]
    fn equal_shards_take_turns_like_round_robin() {
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(0));
        // 6 one-row batches over all-equal shards: the tie-break cursor
        // spreads them 2/2/1/1 instead of piling all six onto shard 0.
        for i in 0..6u32 {
            let r = sharded
                .append_rows(
                    "events",
                    RowBatch::new()
                        .with_column("g", vec![i])
                        .with_column("v", vec![i]),
                )
                .unwrap();
            assert_eq!(r.rows, 1);
            assert_eq!(r.per_shard.iter().sum::<usize>(), 1);
        }
        assert_eq!(shard_rows(&sharded), vec![2, 2, 1, 1]);
    }

    #[test]
    fn uneven_batches_route_to_the_smallest_shard_and_stay_balanced() {
        let mut sharded = ShardedDatabase::new(3);
        sharded.register(events(0));
        // Interleaved uneven batches: blind rotation would pile the big
        // batches onto whichever shard the cursor happened to point at;
        // size-aware routing keeps the partitions level.
        let batch = |rows: usize| {
            RowBatch::new()
                .with_column("g", vec![1; rows])
                .with_column("v", vec![2; rows])
        };
        for &rows in &[10usize, 1, 1, 10, 1, 1, 10, 4, 4, 2] {
            sharded.append_rows("events", batch(rows)).unwrap();
        }
        let sizes = shard_rows(&sharded);
        assert_eq!(sizes.iter().sum::<usize>(), 44);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(
            max - min <= 10,
            "partitions stay within one max-batch of each other: {sizes:?}"
        );
        // The big batches went to three *different* shards (each was
        // smallest when its batch arrived).
        assert!(sizes.iter().all(|&s| s >= 10), "{sizes:?}");
    }

    #[test]
    fn sharded_insert_sql_routes_and_rejects_misuse() {
        let mut sharded = ShardedDatabase::new(2);
        sharded.register(events(10));
        let receipt = sharded
            .insert_sql("INSERT INTO events (g, v) VALUES (1, 2), (3, 4), (5, 6)")
            .unwrap();
        assert_eq!(receipt.rows, 3);
        assert_eq!(receipt.per_shard, vec![3, 0], "whole batch, one shard");
        let out = sharded
            .run_sql("SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g")
            .unwrap();
        assert_eq!(out.report.rows_aggregated, 13);

        // run_sql refuses INSERT (typed, nothing appended)...
        let e = sharded
            .run_sql("INSERT INTO events (g, v) VALUES (1, 2)")
            .unwrap_err();
        assert_eq!(e, SqlError::InsertStatement);
        // ...and insert_sql refuses SELECT.
        let e = sharded
            .insert_sql("SELECT g, SUM(v) FROM events GROUP BY g")
            .unwrap_err();
        assert!(matches!(e, SqlError::Parse(_)));
        assert_eq!(
            sharded
                .run_sql("SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g")
                .unwrap()
                .report
                .rows_aggregated,
            13
        );
    }

    #[test]
    fn rejected_sharded_batches_mutate_no_shard() {
        use crate::ingest::IngestError;
        let mut sharded = ShardedDatabase::new(2);
        sharded.register(events(10));
        // Ragged batch: shard 0's sub-batch alone would be valid (one
        // row of each column), so the pre-validation is load-bearing.
        let e = sharded
            .append_rows(
                "events",
                RowBatch::new()
                    .with_column("g", vec![1, 2])
                    .with_column("v", vec![9]),
            )
            .unwrap_err();
        assert_eq!(
            e,
            SqlError::Ingest(IngestError::RaggedBatch {
                column: "v".into(),
                rows: 1,
                expected: 2
            })
        );
        for shard in sharded.shards() {
            assert_eq!(shard.table("events").unwrap().rows(), 5);
        }
        let e = sharded
            .append_rows("nope", RowBatch::new().with_column("g", vec![1]))
            .unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("nope".into()));
    }

    #[test]
    fn per_shard_compaction_triggers_independently() {
        use crate::ingest::CompactionPolicy;
        let mut sharded = ShardedDatabase::new(2);
        sharded.register(events(4));
        sharded.set_compaction_policy(CompactionPolicy::every(2));
        // Two 2-row batches: the router sends one to each shard (the
        // second shard is smallest after the first lands), and each
        // shard's delta hits its own threshold.
        for _ in 0..2 {
            let receipt = sharded
                .append_rows(
                    "events",
                    RowBatch::new()
                        .with_column("g", vec![1, 2])
                        .with_column("v", vec![1, 2]),
                )
                .unwrap();
            assert_eq!(receipt.compactions, 1);
        }
        for shard in sharded.shards() {
            assert_eq!(shard.delta_rows("events"), Some(0));
            assert_eq!(shard.table("events").unwrap().rows(), 4);
        }
    }

    #[test]
    fn prepared_sharded_statements_see_appended_rows() {
        let mut sharded = ShardedDatabase::new(3);
        sharded.register(events(90));
        let mut stmt = sharded
            .prepare("SELECT g, COUNT(*), SUM(v) FROM events WHERE v < ? GROUP BY g")
            .unwrap();
        let before = sharded.execute_prepared(&mut stmt, &[100]).unwrap();
        assert_eq!(before.report.rows_aggregated, 90);
        let misses = |db: &ShardedDatabase| -> u64 {
            db.shards().iter().map(|s| s.cache_stats().misses).sum()
        };
        let planned = misses(&sharded);
        sharded
            .insert_sql("INSERT INTO events (g, v) VALUES (0, 1), (1, 2), (2, 3)")
            .unwrap();
        let after = sharded.execute_prepared(&mut stmt, &[100]).unwrap();
        assert_eq!(after.report.rows_aggregated, 93, "ingest visible");
        // The shard the batch landed on re-planned at its new data
        // version; nothing was purged.
        assert_eq!(misses(&sharded), planned + 1);
        assert!(sharded
            .shards()
            .iter()
            .all(|s| s.cache_stats().invalidations == 0));
    }

    #[test]
    fn empty_table_fails_prepared_execution_like_run_sql() {
        // With zero rows everywhere, no shard ever validated the query
        // at plan time — execution must fail with the same typed error
        // run_sql gives, never reach the coordinator tail. One rule for
        // both databases: a single database is the one-shard case.
        let empty = Table::new("r")
            .with_column("g", Vec::new())
            .with_column("v", Vec::new());
        let full = Table::new("r")
            .with_column("g", vec![1, 2])
            .with_column("v", vec![3, 4]);
        let sql = "SELECT g, SUM(v), AVG(v) FROM r GROUP BY g HAVING AVG(v) > ?";
        let empty_table = SqlError::Plan(PlanError::EmptyTable);
        let bad_having = SqlError::Plan(PlanError::UnsupportedAvgPredicate { clause: "HAVING" });

        let mut sharded = ShardedDatabase::new(2);
        sharded.register(empty.clone());
        // Prepare succeeds (nothing to plan against yet)...
        let mut stmt = sharded.prepare(sql).unwrap();
        // ...and execution reports EmptyTable, exactly like run_sql.
        let e = sharded.execute_prepared(&mut stmt, &[1]).unwrap_err();
        assert_eq!(e, empty_table);
        let e = sharded
            .run_sql("SELECT g, SUM(v) FROM r GROUP BY g")
            .unwrap_err();
        assert_eq!(e, empty_table);
        // Once rows arrive, the invalid HAVING AVG is caught by the
        // shard planner as a typed error, not a panic.
        sharded.register(full.clone());
        let e = sharded.execute_prepared(&mut stmt, &[1]).unwrap_err();
        assert_eq!(e, bad_having);

        let mut single = Database::new();
        single.register(empty);
        let mut stmt = single.prepare(sql).unwrap();
        assert_eq!(stmt.execute(&mut single, &[1]).unwrap_err(), empty_table);
        let e = single
            .execute_sql("SELECT g, SUM(v) FROM r GROUP BY g")
            .unwrap_err();
        assert_eq!(e, empty_table);
        single.register(full);
        assert_eq!(stmt.execute(&mut single, &[1]).unwrap_err(), bad_having);
        // A table with rows validates at prepare time, as before.
        assert_eq!(single.prepare(sql).unwrap_err(), bad_having);
        assert_eq!(sharded.prepare(sql).unwrap_err(), bad_having);
    }

    #[test]
    fn prepared_executions_are_recorded_like_run_sql() {
        // Every execution is one finished read in the lead shard's
        // registry: counted, bucketed and in the slow-query ring under
        // its bound SQL.
        let mut sharded = ShardedDatabase::new(3);
        sharded.register(events(600));
        let mut stmt = sharded
            .prepare("SELECT g, COUNT(*), SUM(v) FROM events WHERE v < ? GROUP BY g")
            .unwrap();
        let before = sharded.metrics();
        let mut costliest = (0, String::new());
        for threshold in [5u64, 90, 30, 60] {
            let out = sharded.execute_prepared(&mut stmt, &[threshold]).unwrap();
            if out.report.cycles > costliest.0 {
                let sql = format!(
                    "SELECT g, COUNT(*), SUM(v) FROM events WHERE v < {threshold} GROUP BY g"
                );
                costliest = (out.report.cycles, sql);
            }
        }
        let after = sharded.metrics();
        let queries = |m: &MetricsSnapshot| m.get("queries").unwrap();
        assert_eq!(queries(&after) - queries(&before), 4);
        let histogram = |m: &MetricsSnapshot| m.cycle_histogram().iter().sum::<u64>();
        assert_eq!(histogram(&after) - histogram(&before), 4);
        let worst = &sharded.slow_queries()[0];
        assert_eq!((worst.cycles, &worst.sql), (costliest.0, &costliest.1));
    }

    #[test]
    fn sharded_mutations_match_a_single_session() {
        let delete = "DELETE FROM events WHERE v > 80";
        let update = "UPDATE events SET v = 5 WHERE g <> 3";
        let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";
        let single = {
            let mut db = Database::new();
            db.register(events(400));
            let deleted = match db.run_sql(delete).unwrap() {
                SqlOutcome::Deleted(r) => r.rows,
                other => panic!("DELETE reports a receipt: {other:?}"),
            };
            let updated = match db.run_sql(update).unwrap() {
                SqlOutcome::Updated(r) => r.rows,
                other => panic!("UPDATE reports a receipt: {other:?}"),
            };
            (deleted, updated, db.execute_sql(sql).unwrap().rows)
        };
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(events(400));
        let deleted = sharded.mutate_sql(delete).unwrap();
        assert_eq!(deleted.rows, single.0, "same rows tombstoned in total");
        let updated = sharded.mutate_sql(update).unwrap();
        assert_eq!(updated.rows, single.1);
        assert_eq!(sharded.run_sql(sql).unwrap().rows, single.2);
    }

    #[test]
    fn sharded_mutate_sql_rejects_non_mutations_and_bad_columns() {
        let mut sharded = ShardedDatabase::new(2);
        sharded.register(events(50));
        assert!(matches!(
            sharded.mutate_sql("SELECT g, COUNT(*) FROM events GROUP BY g"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            sharded.mutate_sql("INSERT INTO events (g, v) VALUES (1, 2)"),
            Err(SqlError::InsertStatement)
        ));
        assert_eq!(
            sharded
                .mutate_sql("UPDATE events SET nope = 1 WHERE g > 3")
                .unwrap_err(),
            SqlError::Plan(PlanError::UnknownColumn("nope".into()))
        );
        // The failed validation applied nothing on any shard.
        assert_eq!(sharded.data_version("events"), Some(1));
    }

    #[test]
    fn sharded_time_travel_is_rejected_with_a_typed_error() {
        let mut sharded = ShardedDatabase::new(2);
        sharded.register(events(50));
        let as_of = "SELECT g, COUNT(*) FROM events AS OF x GROUP BY g";
        assert_eq!(
            sharded.run_sql(as_of).unwrap_err(),
            SqlError::ShardedTimeTravel
        );
        assert_eq!(
            sharded
                .explain_sql(&format!("EXPLAIN {as_of}"))
                .unwrap_err(),
            SqlError::ShardedTimeTravel
        );
        assert_eq!(
            sharded.mutate_sql("CREATE SNAPSHOT x").unwrap_err(),
            SqlError::ShardedTimeTravel
        );
        let snap = sharded.snapshot();
        assert_eq!(
            sharded.run_sql_at(&snap, as_of).unwrap_err(),
            SqlError::ShardedTimeTravel
        );
    }

    #[test]
    fn durable_sharded_open_reopen_round_trip() {
        let dir = crate::tempdir::TempDir::new("shard-reopen");
        let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";
        let before = {
            let mut db = ShardedDatabase::open(dir.path(), 3).unwrap();
            assert!(db.is_durable());
            db.register(events(200));
            db.insert_sql("INSERT INTO events (g, v) VALUES (50, 1), (50, 2)")
                .unwrap();
            db.mutate_sql("DELETE FROM events WHERE v > 90").unwrap();
            db.mutate_sql("UPDATE events SET v = 9 WHERE g > 20")
                .unwrap();
            (db.run_sql(sql).unwrap().rows, db.data_versions("events"))
        };
        // Reopen asks for 8 shards, but the 3 partitions on disk win.
        let mut db = ShardedDatabase::open(dir.path(), 8).unwrap();
        assert_eq!(db.shard_count(), 3);
        assert_eq!(db.run_sql(sql).unwrap().rows, before.0);
        assert_eq!(db.data_versions("events"), before.1);
        // The reopened database keeps logging.
        db.insert_sql("INSERT INTO events (g, v) VALUES (51, 3)")
            .unwrap();
        let after = db.run_sql(sql).unwrap().rows;
        drop(db);
        let mut db = ShardedDatabase::open(dir.path(), 3).unwrap();
        assert_eq!(db.run_sql(sql).unwrap().rows, after);
    }

    #[test]
    fn cross_shard_mutation_without_coordinator_commit_rolls_back() {
        let dir = crate::tempdir::TempDir::new("shard-torn");
        let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";
        let coord = dir.path().join("coordinator.log");
        let (before, registered_len) = {
            let mut db = ShardedDatabase::open(dir.path(), 2).unwrap();
            db.set_compaction_policy(CompactionPolicy::never());
            db.register(events(100));
            let keep = db.run_sql(sql).unwrap().rows;
            let len = std::fs::metadata(&coord).unwrap().len();
            db.mutate_sql("DELETE FROM events WHERE v > 50").unwrap();
            (keep, len)
        };
        // Erase the delete's coordinator commit record: the crash
        // happened after the shard logs flushed but before the global
        // commit. (The register's earlier commit record stays.)
        assert!(std::fs::metadata(&coord).unwrap().len() > registered_len);
        crate::wal::truncate(&coord, registered_len).unwrap();
        let mut db = ShardedDatabase::open(dir.path(), 2).unwrap();
        assert_eq!(
            db.run_sql(sql).unwrap().rows,
            before,
            "the delete rolls back on every shard at once"
        );
    }
}
