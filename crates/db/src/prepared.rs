//! Prepared statements: parse and plan once, bind and execute many.
//!
//! [`crate::Database::prepare`] parses a `SELECT` whose comparison
//! constants and LIMIT may be `?` placeholders, plans it immediately
//! (so unknown tables/columns fail at prepare time), and returns a
//! [`PreparedStatement`]. Each [`PreparedStatement::execute`] binds
//! concrete parameters into the cached plan — pure constant patching,
//! no statistics pass — and runs it on the database's session.
//!
//! Binding cannot flip the §V-D adaptive algorithm choice, because the
//! planner takes its cardinality statistics over the *unfiltered*
//! table (see [`crate::Engine::plan`]); the statement still re-verifies
//! the choice on every execution and re-plans if a future policy
//! disagrees, and it always re-plans when the table was re-registered
//! (its statistics changed).
//!
//! The write path makes the re-check live: ingest bumps the table's
//! *data* version, and the next execution re-runs the §V-D choice
//! against the drifted statistics. If the choice stands, the statement
//! picks up a cheaply *rebased* plan (new column snapshots, no
//! statistics pass — counted by [`PreparedStatement::rebases`]); if the
//! drift crossed a policy threshold, it re-plans from scratch (counted
//! by [`PreparedStatement::replans`]).

use crate::catalogue::{CatalogueId, SharedCatalogue};
use crate::database::{Database, SqlError};
use crate::engine::QueryOutput;
use crate::plan::{PlanError, QueryPlan};
use crate::query::AggregateQuery;
use crate::read::ReadRequest;
use crate::snapshot::Snapshot;
use crate::sql::{parse_template, ParamSlot, SqlTemplate};
use crate::trace::QueryTrace;
use std::sync::Arc;

/// A statement planned once and executed many times with bound
/// parameters. Produced by [`crate::Database::prepare`].
#[derive(Debug)]
pub struct PreparedStatement {
    /// Shared (`Arc`) with every sibling statement of a sharded
    /// prepare, so preparing N shards parses and stores the template
    /// once.
    template: Arc<SqlTemplate>,
    cached: Option<CachedPlan>,
    executions: u64,
    replans: u64,
    rebases: u64,
}

/// The plan last used, tagged with the (weak, non-owning) identity of
/// the catalogue it was planned against and that catalogue's table
/// versions: executing against a different catalogue, or after a
/// re-registration bumped the schema version, forces a re-plan (the
/// cached plan snapshots the *old* columns); an ingest-bumped data
/// version re-runs the §V-D choice against the drifted statistics and
/// rebases or re-plans accordingly.
#[derive(Debug)]
struct CachedPlan {
    catalogue: CatalogueId,
    schema_version: u64,
    data_version: u64,
    plan: QueryPlan,
}

impl PreparedStatement {
    /// Parses and eagerly plans `sql` against `catalogue` (what
    /// [`crate::Database::prepare`] calls).
    pub(crate) fn prepare(catalogue: &SharedCatalogue, sql: &str) -> Result<Self, SqlError> {
        let template = Arc::new(parse_template(sql)?);
        if template.join.is_some() {
            return Err(SqlError::JoinStatement);
        }
        let mut stmt = Self {
            template,
            cached: None,
            executions: 0,
            replans: 0,
            rebases: 0,
        };
        // Plan the sentinel query now: prepare-time errors beat
        // first-execution surprises. The plan doubles as the template
        // every later execution rebinds.
        let query = stmt.template.query.clone();
        stmt.plan_bound(catalogue, None, &query)?;
        Ok(stmt)
    }

    /// Builds a statement from an already-parsed, shared template
    /// without planning — the sharded path, which parses the SQL once
    /// and hands the same `Arc` to every shard's slot (prepare cost
    /// O(1) in the shard count). No eager plan happens here because a
    /// shard's partition may be empty (unplannable) until a re-register
    /// populates it; validation runs against a populated shard in
    /// [`crate::ShardedDatabase::prepare`].
    pub(crate) fn from_template(template: Arc<SqlTemplate>) -> Self {
        Self {
            template,
            cached: None,
            executions: 0,
            replans: 0,
            rebases: 0,
        }
    }

    /// `?` placeholders this statement declares (and
    /// [`PreparedStatement::execute`] expects parameters for).
    pub fn parameter_count(&self) -> usize {
        self.template.slots.len()
    }

    /// The `FROM` table this statement targets.
    pub fn table(&self) -> &str {
        &self.template.table
    }

    /// Successful executions so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Times execution had to re-plan instead of rebinding the cached
    /// plan: the table was re-registered (schema version bumped), the
    /// statement moved to a different catalogue, or — the write path's
    /// contribution — an ingest drifted the statistics far enough to
    /// flip the §V-D algorithm choice. Zero under steady traffic — the
    /// prepared-statement fast path.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Times an ingest bumped the table's data version *without*
    /// flipping the §V-D choice, so execution refreshed its plan for
    /// the new data instead of counting a [`PreparedStatement::replans`]
    /// event. Under the default exact-scan engine this is the cheap
    /// cache rebase (fresh column snapshots, no statistics pass); for
    /// plans the cache cannot rebase — sampled estimation, composite
    /// GROUP BY — a real statistics pass still ran underneath (visible
    /// in [`crate::CacheStats::invalidations`]), and this counter only
    /// records that the algorithm choice held.
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// The plan the statement last executed (or eagerly built at
    /// prepare time); `None` only for the sharded path's lazily planned
    /// per-shard statements before their first execution.
    pub fn plan(&self) -> Option<&QueryPlan> {
        self.cached.as_ref().map(|c| &c.plan)
    }

    /// Renders the current plan in `EXPLAIN` form (see
    /// [`QueryPlan::explain`]) — after an ingest past a §V-D threshold,
    /// the next execution's re-plan shows up here as a changed
    /// `Aggregate[...]` step.
    pub fn explain(&self) -> Option<String> {
        self.plan().map(QueryPlan::explain)
    }

    /// Binds `params` into the statement's `?` slots, yielding the
    /// concrete query this execution runs.
    ///
    /// # Errors
    ///
    /// [`PlanError::BindArity`] when `params.len()` disagrees with
    /// [`PreparedStatement::parameter_count`], and
    /// [`PlanError::BindType`] when a comparison constant does not fit
    /// `u32` (column values are 32-bit).
    pub fn bind(&self, params: &[u64]) -> Result<AggregateQuery, PlanError> {
        bind_slots(&self.template, params)
    }

    /// Binds `params` and executes on `db`'s session, reusing the plan
    /// cached at prepare time (constants are patched in; planning
    /// statistics are not recomputed). Re-plans only when the table
    /// was re-registered or the adaptive algorithm choice would flip.
    /// A session inside `BEGIN READ ONLY` pins every read — prepared or
    /// ad hoc — to the transaction's snapshot.
    ///
    /// # Errors
    ///
    /// Bind errors ([`PlanError::BindArity`] / [`PlanError::BindType`],
    /// wrapped in [`SqlError::Plan`]), plus the usual planning errors
    /// when a re-plan is needed.
    pub fn execute(&mut self, db: &mut Database, params: &[u64]) -> Result<QueryOutput, SqlError> {
        Ok(self.run(db, None, params, false)?.0)
    }

    /// [`PreparedStatement::execute`] **at a pinned snapshot**: the
    /// plan's column snapshots, cardinality statistics and §V-D
    /// algorithm choice come from the snapshot's cut — later ingest may
    /// have flipped the live choice and compacted the table, the
    /// execution still reproduces the pinned rows exactly. The
    /// statement's cached plan follows whatever version it last
    /// executed at, so alternating live/snapshot executions refresh it
    /// each time (counted by [`PreparedStatement::rebases`] /
    /// [`PreparedStatement::replans`] like any other version move).
    ///
    /// # Errors
    ///
    /// As [`PreparedStatement::execute`], plus
    /// [`SqlError::ForeignSnapshot`] if the snapshot was cut from a
    /// catalogue other than `db`'s.
    pub fn execute_at(
        &mut self,
        db: &mut Database,
        snap: &Snapshot,
        params: &[u64],
    ) -> Result<QueryOutput, SqlError> {
        Ok(self.run(db, Some(snap), params, false)?.0)
    }

    /// [`PreparedStatement::execute`] with tracing on — the prepared
    /// twin of `EXPLAIN ANALYZE`: the rows and cycles are bit-identical,
    /// plus the per-step estimated-vs-actual trace. Counts as an
    /// execution for [`PreparedStatement::executions`].
    ///
    /// # Errors
    ///
    /// As [`PreparedStatement::execute`].
    pub fn analyze(
        &mut self,
        db: &mut Database,
        params: &[u64],
    ) -> Result<crate::AnalyzedQuery, SqlError> {
        let (output, trace) = self.run(db, None, params, true)?;
        let trace = trace.expect("a traced run returns its trace");
        Ok(crate::AnalyzedQuery { output, trace })
    }

    /// The body of `execute`, `execute_at` and `analyze`: bind, then
    /// hand the plan to the session's one finish step
    /// ([`Database::execute_read`]).
    fn run(
        &mut self,
        db: &mut Database,
        at: Option<&Snapshot>,
        params: &[u64],
        traced: bool,
    ) -> Result<(QueryOutput, Option<QueryTrace>), SqlError> {
        let plan = self.bound_plan_at(db.catalogue(), at.or(db.txn_snapshot()), params)?;
        self.executions += 1;
        let sql = plan.sql();
        let mut trace = traced.then(|| QueryTrace::new(sql.clone()));
        let request = ReadRequest {
            trace: trace.as_mut(),
            ..ReadRequest::new(vec![Some(plan)])
        };
        Ok((db.execute_read(&sql, request)?, trace))
    }

    /// Binds `params` and returns the executable plan without running
    /// it, planned at an explicit snapshot when one is given (else live
    /// — itself a snapshot-of-now inside the catalogue). The shared
    /// half of execution here and on the sharded path.
    pub(crate) fn bound_plan_at(
        &mut self,
        catalogue: &SharedCatalogue,
        snap: Option<&Snapshot>,
        params: &[u64],
    ) -> Result<QueryPlan, SqlError> {
        let bound = self.bind(params).map_err(SqlError::Plan)?;
        self.plan_bound(catalogue, snap, &bound)
    }

    fn plan_bound(
        &mut self,
        catalogue: &SharedCatalogue,
        snap: Option<&Snapshot>,
        bound: &AggregateQuery,
    ) -> Result<QueryPlan, SqlError> {
        let table = &self.template.table;
        if let Some(snap) = snap {
            if !snap.catalogue().is_same(catalogue) {
                return Err(SqlError::ForeignSnapshot);
            }
        }
        let versions = match snap {
            Some(snap) => snap.schema_version(table).zip(snap.data_version(table)),
            None => catalogue.versions(table),
        };
        let (schema_version, data_version) =
            versions.ok_or_else(|| SqlError::UnknownTable(table.clone()))?;
        let mut drifted_from = None;
        if let Some(cached) = &self.cached {
            let same_table =
                cached.catalogue.matches(catalogue) && cached.schema_version == schema_version;
            if same_table && cached.data_version == data_version {
                let rebound = cached.plan.rebind(bound);
                if catalogue.algorithm_holds(&rebound) {
                    return Ok(rebound);
                }
                // A flipped policy at unchanged statistics: re-plan.
                self.replans += 1;
            } else if same_table {
                // Ingest drifted the statistics (data version moved):
                // re-plan through the catalogue — usually a cheap cache
                // rebase — and count below by whether the §V-D choice
                // moved.
                drifted_from = Some(cached.plan.algorithm());
            } else {
                // A different catalogue or a stale schema version:
                // re-plan against *this* catalogue.
                self.replans += 1;
            }
        }
        let plan = match snap {
            Some(snap) => catalogue.plan_query_at(snap, table, bound)?,
            None => catalogue.plan_query(table, bound)?,
        };
        if let Some(old_algorithm) = drifted_from {
            if plan.algorithm() == old_algorithm {
                self.rebases += 1;
            } else {
                self.replans += 1;
            }
        }
        self.cached = Some(CachedPlan {
            catalogue: catalogue.id(),
            schema_version,
            data_version,
            plan: plan.clone(),
        });
        Ok(plan)
    }
}

/// Binds `params` into a template's `?` slots, yielding the concrete
/// query one execution runs — the shared bind half of
/// [`PreparedStatement`] and [`crate::join::PreparedJoin`].
pub(crate) fn bind_slots(
    template: &SqlTemplate,
    params: &[u64],
) -> Result<AggregateQuery, PlanError> {
    if params.len() != template.slots.len() {
        return Err(PlanError::BindArity {
            expected: template.slots.len(),
            got: params.len(),
        });
    }
    let mut query = template.query.clone();
    for (index, (&slot, &value)) in template.slots.iter().zip(params).enumerate() {
        let constant =
            |value: u64| u32::try_from(value).map_err(|_| PlanError::BindType { index, value });
        match slot {
            ParamSlot::FilterConstant => {
                let k = constant(value)?;
                let (_, pred) = query.filter.as_mut().expect("template has a WHERE slot");
                *pred = pred.with_constant(k);
            }
            ParamSlot::HavingConstant => {
                let k = constant(value)?;
                let having = query.having.as_mut().expect("template has a HAVING slot");
                having.pred = having.pred.with_constant(k);
            }
            ParamSlot::Limit => {
                let k = usize::try_from(value).map_err(|_| PlanError::BindType { index, value })?;
                query
                    .order_by
                    .as_mut()
                    .expect("template has a LIMIT slot")
                    .limit = Some(k);
            }
        }
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

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
    fn execute_binds_parameters_into_the_cached_plan() {
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g")
            .unwrap();
        assert_eq!(stmt.parameter_count(), 1);
        assert_eq!(stmt.table(), "r");

        let out3 = stmt.execute(&mut db, &[3]).unwrap();
        let fresh3 = db
            .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > 3 GROUP BY g")
            .unwrap();
        assert_eq!(out3.rows, fresh3.rows);

        let out0 = stmt.execute(&mut db, &[0]).unwrap();
        let fresh0 = db
            .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > 0 GROUP BY g")
            .unwrap();
        assert_eq!(out0.rows, fresh0.rows);

        assert_eq!(stmt.executions(), 2);
        assert_eq!(stmt.replans(), 0, "binding never re-planned");
    }

    #[test]
    fn binding_zero_takes_the_dedicated_nonzero_compare() {
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, SUM(v) FROM r WHERE v <> ? GROUP BY g")
            .unwrap();
        let out = stmt.execute(&mut db, &[0]).unwrap();
        let fresh = db
            .execute_sql("SELECT g, SUM(v) FROM r WHERE v <> 0 GROUP BY g")
            .unwrap();
        assert_eq!(out.rows, fresh.rows);
        assert!(out.report.describe().contains("VectorFilter(v <> 0)"));
    }

    #[test]
    fn having_and_limit_placeholders_bind_in_sql_order() {
        let mut db = db();
        let mut stmt = db
            .prepare(
                "SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g \
                 HAVING SUM(v) > ? ORDER BY SUM(v) DESC LIMIT ?",
            )
            .unwrap();
        assert_eq!(stmt.parameter_count(), 3);
        let out = stmt.execute(&mut db, &[0, 2, 2]).unwrap();
        let fresh = db
            .execute_sql(
                "SELECT g, COUNT(*), SUM(v) FROM r WHERE v > 0 GROUP BY g \
                 HAVING SUM(v) > 2 ORDER BY SUM(v) DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(out.rows, fresh.rows);
    }

    #[test]
    fn wrong_arity_is_a_typed_bind_error() {
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, SUM(v) FROM r WHERE v > ? GROUP BY g")
            .unwrap();
        for params in [&[][..], &[1, 2][..]] {
            let e = stmt.execute(&mut db, params).unwrap_err();
            assert_eq!(
                e,
                SqlError::Plan(PlanError::BindArity {
                    expected: 1,
                    got: params.len()
                })
            );
        }
        assert_eq!(stmt.executions(), 0, "failed binds do not execute");
    }

    #[test]
    fn oversized_constant_is_a_typed_bind_error() {
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, SUM(v) FROM r WHERE v > ? GROUP BY g")
            .unwrap();
        let e = stmt
            .execute(&mut db, &[u64::from(u32::MAX) + 1])
            .unwrap_err();
        assert_eq!(
            e,
            SqlError::Plan(PlanError::BindType {
                index: 0,
                value: u64::from(u32::MAX) + 1
            })
        );
        // LIMIT slots take the full usize range.
        let mut stmt = db
            .prepare("SELECT g, SUM(v) FROM r GROUP BY g LIMIT ?")
            .unwrap();
        let out = stmt.execute(&mut db, &[u64::from(u32::MAX) + 1]).unwrap();
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn prepare_reports_errors_eagerly() {
        let db = db();
        assert_eq!(
            db.prepare("SELECT g, SUM(v) FROM nope WHERE v > ? GROUP BY g")
                .unwrap_err(),
            SqlError::UnknownTable("nope".into())
        );
        assert_eq!(
            db.prepare("SELECT g, SUM(missing) FROM r WHERE v > ? GROUP BY g")
                .unwrap_err(),
            SqlError::Plan(PlanError::UnknownColumn("missing".into()))
        );
    }

    #[test]
    fn re_registration_forces_a_replan() {
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g")
            .unwrap();
        stmt.execute(&mut db, &[0]).unwrap();
        assert_eq!(stmt.replans(), 0);
        db.register(
            Table::new("r")
                .with_column("g", vec![8, 8, 8, 8])
                .with_column("v", vec![1, 2, 3, 4]),
        );
        let out = stmt.execute(&mut db, &[1]).unwrap();
        assert_eq!(stmt.replans(), 1, "stale statistics re-planned");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].group, 8);
        // v > 1 over v = [1, 2, 3, 4]: three rows, SUM 9.
        assert_eq!(out.rows[0].values, vec![3.0, 9.0]);
        // Steady state again afterwards.
        stmt.execute(&mut db, &[2]).unwrap();
        assert_eq!(stmt.replans(), 1);
    }

    #[test]
    fn zero_parameter_statements_prepare_fine() {
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        assert_eq!(stmt.parameter_count(), 0);
        let out = stmt.execute(&mut db, &[]).unwrap();
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn executing_on_another_catalogue_replans_against_its_table() {
        // Same table name, same version number, different catalogue:
        // the cached plan must not leak db1's column snapshots into
        // db2's answer.
        let mut db1 = db();
        let mut stmt = db1
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        let from_db1 = stmt.execute(&mut db1, &[]).unwrap();
        assert_eq!(from_db1.rows.len(), 6);

        let mut db2 = Database::new();
        db2.register(
            Table::new("r")
                .with_column("g", vec![5, 5, 5])
                .with_column("v", vec![1, 1, 1]),
        );
        let from_db2 = stmt.execute(&mut db2, &[]).unwrap();
        assert_eq!(from_db2.rows.len(), 1, "db2's table answered");
        assert_eq!(from_db2.rows[0].group, 5);
        assert_eq!(from_db2.rows[0].values, vec![3.0, 3.0]);
        assert_eq!(stmt.replans(), 1, "catalogue switch re-planned");

        // Switching back re-plans again and serves db1's data.
        let back = stmt.execute(&mut db1, &[]).unwrap();
        assert_eq!(back.rows, from_db1.rows);
        assert_eq!(stmt.replans(), 2);
    }

    #[test]
    fn ingest_without_drift_rebases_instead_of_replanning() {
        use crate::ingest::RowBatch;
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g")
            .unwrap();
        stmt.execute(&mut db, &[0]).unwrap();
        assert_eq!((stmt.replans(), stmt.rebases()), (0, 0));

        // A small append leaves the §V-D choice standing...
        db.append_rows(
            "r",
            RowBatch::new()
                .with_column("g", vec![3, 3])
                .with_column("v", vec![8, 9]),
        )
        .unwrap();
        let out = stmt.execute(&mut db, &[0]).unwrap();
        assert_eq!((stmt.replans(), stmt.rebases()), (0, 1), "cheap refresh");
        // ...and the statement serves the appended rows.
        let r3 = out.rows.iter().find(|r| r.group == 3).unwrap();
        assert_eq!(r3.values, vec![4.0, 24.0], "two base rows + two appended");

        // Steady state again afterwards.
        stmt.execute(&mut db, &[0]).unwrap();
        assert_eq!((stmt.replans(), stmt.rebases()), (0, 1));
    }

    #[test]
    fn stats_drift_past_the_policy_threshold_replans_and_flips() {
        use crate::ingest::RowBatch;
        use vagg_core::Algorithm;
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        stmt.execute(&mut db, &[]).unwrap();
        assert_eq!(stmt.plan().unwrap().algorithm(), Algorithm::Monotable);
        assert!(stmt.explain().unwrap().contains("Aggregate[mono]"));

        // Drift the cardinality estimate across the §V-D division
        // boundary: the re-run choice flips to PSM and the statement
        // re-plans (not a rebase).
        db.append_rows(
            "r",
            RowBatch::new()
                .with_column("g", vec![20_000])
                .with_column("v", vec![1]),
        )
        .unwrap();
        let out = stmt.execute(&mut db, &[]).unwrap();
        assert_eq!((stmt.replans(), stmt.rebases()), (1, 0));
        assert_eq!(
            stmt.plan().unwrap().algorithm(),
            Algorithm::PartiallySortedMonotable
        );
        assert!(stmt.explain().unwrap().contains("Aggregate[psm]"));
        assert_eq!(
            out.report.algorithm,
            Some(Algorithm::PartiallySortedMonotable)
        );
        assert_eq!(out.rows.len(), 7, "six base groups plus group 20000");
    }

    #[test]
    fn execute_at_reads_the_pinned_cut() {
        use crate::ingest::RowBatch;
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g")
            .unwrap();
        let snap = db.snapshot();
        let before = stmt.execute(&mut db, &[0]).unwrap();
        db.append_rows(
            "r",
            RowBatch::new()
                .with_column("g", vec![1, 1])
                .with_column("v", vec![8, 9]),
        )
        .unwrap();
        let at = stmt.execute_at(&mut db, &snap, &[0]).unwrap();
        assert_eq!(at.rows, before.rows, "pinned cut, not the live rows");
        let live = stmt.execute(&mut db, &[0]).unwrap();
        assert_ne!(live.rows, at.rows);
        assert_eq!(stmt.executions(), 3);
    }

    #[test]
    fn execute_inside_a_transaction_joins_its_snapshot() {
        use crate::database::SqlOutcome;
        let mut db = db();
        let mut writer = db.catalogue().connect();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        assert!(matches!(
            db.run_sql("BEGIN READ ONLY").unwrap(),
            SqlOutcome::TransactionBegun
        ));
        let first = stmt.execute(&mut db, &[]).unwrap();
        writer
            .run_sql("INSERT INTO r (g, v) VALUES (9, 1)")
            .unwrap();
        let second = stmt.execute(&mut db, &[]).unwrap();
        assert_eq!(first.rows, second.rows, "prepared reads join the txn");
        db.run_sql("COMMIT").unwrap();
        let after = stmt.execute(&mut db, &[]).unwrap();
        assert_eq!(after.rows.len(), 7, "live again after COMMIT");
    }

    #[test]
    fn execute_at_rejects_foreign_snapshots() {
        let mut db1 = db();
        let db2 = Database::new();
        let mut stmt = db1.prepare("SELECT g, SUM(v) FROM r GROUP BY g").unwrap();
        let snap = db2.snapshot();
        let e = stmt.execute_at(&mut db1, &snap, &[]).unwrap_err();
        assert_eq!(e, SqlError::ForeignSnapshot);
        assert_eq!(stmt.executions(), 0);
    }

    #[test]
    fn dropping_the_table_surfaces_at_execute() {
        // Re-registration keeps the name alive; there is no DROP, but a
        // statement prepared against one catalogue can be executed
        // against a session of another catalogue missing the table.
        let db1 = db();
        let mut stmt = db1.prepare("SELECT g, SUM(v) FROM r GROUP BY g").unwrap();
        let mut db2 = Database::new();
        let e = stmt.execute(&mut db2, &[]).unwrap_err();
        assert_eq!(e, SqlError::UnknownTable("r".into()));
    }
}
