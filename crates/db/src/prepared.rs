//! Prepared statements: parse once, bind and execute many.
//!
//! [`crate::Database::prepare`] and [`crate::ShardedDatabase::prepare`]
//! parse a `SELECT` — over one table or a two-table `JOIN` — whose
//! comparison constants and LIMIT may be `?` placeholders, plan it once
//! so unknown tables and columns fail at prepare time (a table with no
//! rows cannot plan yet: it prepares, and execution reports
//! `EmptyTable` as `run_sql` does), and return a [`PreparedStatement`]:
//! the parsed [`SqlTemplate`] and an execution count, nothing else.
//!
//! Each execution binds the parameters into a concrete [`SqlQuery`] and
//! hands it to the read path `run_sql` reaches, so it plans through the
//! catalogue's one funnel ([`crate::SharedCatalogue::plan_query`]) and
//! the shared [`crate::PlanCache`]. The cache's shape masks literals, so
//! every bind of one template is one cache entry: served at the data
//! version it was planned at (a hit needs no snapshot cut), re-planned
//! after any write or re-registration — exactly as the ad hoc statement
//! would be, and counted in [`crate::CacheStats`].

use crate::database::{Database, SqlError};
use crate::engine::QueryOutput;
use crate::plan::PlanError;
use crate::snapshot::Snapshot;
use crate::sql::{ParamSlot, SqlQuery, SqlTemplate};
use crate::trace::AnalyzedQuery;

/// A statement parsed once and executed many times with bound
/// parameters. Produced by [`crate::Database::prepare`] and
/// [`crate::ShardedDatabase::prepare`].
#[derive(Debug)]
pub struct PreparedStatement {
    template: SqlTemplate,
    executions: u64,
}

impl PreparedStatement {
    pub(crate) fn new(template: SqlTemplate) -> Self {
        Self {
            template,
            executions: 0,
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

    /// The template as a query, its placeholders still holding the
    /// parser's sentinel constants — what prepare plans to validate.
    pub(crate) fn query(&self) -> SqlQuery {
        SqlQuery {
            table: self.template.table.clone(),
            query: self.template.query.clone(),
            as_of: None,
            join: self.template.join.clone(),
        }
    }

    /// Binds `params` into the statement's `?` slots, yielding the
    /// concrete statement this execution runs.
    ///
    /// # Errors
    ///
    /// [`PlanError::BindArity`] when `params.len()` disagrees with
    /// [`PreparedStatement::parameter_count`], and
    /// [`PlanError::BindType`] when a comparison constant does not fit
    /// `u32` (column values are 32-bit).
    pub fn bind(&self, params: &[u64]) -> Result<SqlQuery, PlanError> {
        let slots = &self.template.slots;
        if params.len() != slots.len() {
            return Err(PlanError::BindArity {
                expected: slots.len(),
                got: params.len(),
            });
        }
        let mut bound = self.query();
        let query = &mut bound.query;
        for (index, (&slot, &value)) in slots.iter().zip(params).enumerate() {
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
                    let k =
                        usize::try_from(value).map_err(|_| PlanError::BindType { index, value })?;
                    query
                        .order_by
                        .as_mut()
                        .expect("template has a LIMIT slot")
                        .limit = Some(k);
                }
            }
        }
        Ok(bound)
    }

    /// Binds `params`, runs the bound query with `read` and counts the
    /// execution if it succeeded — every execution on either database.
    pub(crate) fn execute_with<T>(
        &mut self,
        params: &[u64],
        read: impl FnOnce(&SqlQuery) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        let out = read(&self.bind(params)?)?;
        self.executions += 1;
        Ok(out)
    }

    /// Binds `params` and executes on `db`'s session, exactly as
    /// [`Database::run_sql`] executes the bound SQL: planned through the
    /// shared plan cache (one entry for every bind of this template),
    /// inside `BEGIN READ ONLY` at the transaction's snapshot.
    ///
    /// # Errors
    ///
    /// Bind errors ([`PlanError::BindArity`] / [`PlanError::BindType`],
    /// wrapped in [`SqlError::Plan`]), plus whatever `run_sql` of the
    /// bound SQL reports.
    pub fn execute(&mut self, db: &mut Database, params: &[u64]) -> Result<QueryOutput, SqlError> {
        let (output, _) = self.execute_with(params, |q| db.select(q, &q.sql(), None, false))?;
        Ok(output)
    }

    /// [`PreparedStatement::execute`] **at a pinned snapshot**, as
    /// [`Database::run_sql_at`] reads it: the plan's column snapshots,
    /// statistics and §V-D algorithm choice come from the snapshot's
    /// cut, however far ingest has moved the live table since.
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
        let at = Some(snap);
        let (output, _) = self.execute_with(params, |q| db.select(q, &q.sql(), at, false))?;
        Ok(output)
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
    ) -> Result<AnalyzedQuery, SqlError> {
        let (output, trace) = self.execute_with(params, |q| db.select(q, &q.sql(), None, true))?;
        let trace = trace.expect("a traced run returns its trace");
        Ok(AnalyzedQuery { output, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    /// The shared plan cache's `(hits, misses, invalidations)`.
    fn cache(db: &Database) -> (u64, u64, u64) {
        let s = db.plan_cache_stats();
        (s.hits, s.misses, s.invalidations)
    }

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
        // Prepare planned the one entry every bind and literal shares.
        assert_eq!(cache(&db), (4, 1, 0));
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
        assert_eq!(cache(&db), (1, 1, 0));
        db.register(
            Table::new("r")
                .with_column("g", vec![8, 8, 8, 8])
                .with_column("v", vec![1, 2, 3, 4]),
        );
        let out = stmt.execute(&mut db, &[1]).unwrap();
        assert_eq!(cache(&db), (1, 2, 1), "purged, then re-planned");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].group, 8);
        // v > 1 over v = [1, 2, 3, 4]: three rows, SUM 9.
        assert_eq!(out.rows[0].values, vec![3.0, 9.0]);
        // Steady state again afterwards.
        stmt.execute(&mut db, &[2]).unwrap();
        assert_eq!(cache(&db), (2, 2, 1));
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
        // the statement carries no plan, so db2 plans its own table.
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
        assert_eq!(cache(&db2), (0, 1, 0), "planned in db2's cache");

        // Switching back serves db1's data from db1's cache.
        let back = stmt.execute(&mut db1, &[]).unwrap();
        assert_eq!(back.rows, from_db1.rows);
        assert_eq!(cache(&db1), (2, 1, 0));
    }

    #[test]
    fn an_append_replans_once_then_hits_again() {
        use crate::ingest::RowBatch;
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g")
            .unwrap();
        stmt.execute(&mut db, &[0]).unwrap();
        assert_eq!(cache(&db), (1, 1, 0));

        // An append moves the data version past the entry's...
        db.append_rows(
            "r",
            RowBatch::new()
                .with_column("g", vec![3, 3])
                .with_column("v", vec![8, 9]),
        )
        .unwrap();
        let out = stmt.execute(&mut db, &[0]).unwrap();
        assert_eq!(cache(&db), (1, 2, 0), "re-planned, nothing purged");
        // ...and the statement serves the appended rows.
        let r3 = out.rows.iter().find(|r| r.group == 3).unwrap();
        assert_eq!(r3.values, vec![4.0, 24.0], "two base rows + two appended");

        // Steady state again afterwards.
        stmt.execute(&mut db, &[0]).unwrap();
        assert_eq!(cache(&db), (2, 2, 0));
    }

    #[test]
    fn stats_drift_past_the_policy_threshold_replans_and_flips() {
        use crate::ingest::RowBatch;
        use vagg_core::Algorithm;
        let mut db = db();
        let mut stmt = db
            .prepare("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
            .unwrap();
        let out = stmt.execute(&mut db, &[]).unwrap();
        assert_eq!(out.report.algorithm, Some(Algorithm::Monotable));

        // Drift the cardinality estimate across the §V-D division
        // boundary: the re-plan at the new data version flips the
        // choice to PSM.
        db.append_rows(
            "r",
            RowBatch::new()
                .with_column("g", vec![20_000])
                .with_column("v", vec![1]),
        )
        .unwrap();
        let out = stmt.execute(&mut db, &[]).unwrap();
        assert_eq!(cache(&db), (1, 2, 0));
        assert!(out.report.describe().contains("Aggregate[psm]"));
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
