//! The planner: turns queries into typed [`QueryPlan`]s with the paper's
//! §V-D adaptive policy, using DBMS metadata (sortedness, cardinality
//! estimate). Execution is [`crate::Session`]'s.

use crate::plan::{PlanError, PlanStep, QueryPlan, ScanMode};
use crate::query::{AggFn, AggregateQuery, OrderKey};
use crate::table::Table;
use std::sync::Arc;
use vagg_core::{select_algorithm, AdaptiveMode, Algorithm, PlannerInputs};
use vagg_sim::SimConfig;

/// One output row of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The group key (the fused composite key for multi-column GROUP BY).
    pub group: u32,
    /// The key decomposed per grouping column, primary first (one entry
    /// for single-column queries).
    pub group_parts: Vec<u32>,
    /// One value per requested aggregate, in query order. `AVG` is an
    /// `f64`; everything else is integral.
    pub values: Vec<f64>,
}

/// Query output plus the execution report.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows ordered by group key.
    pub rows: Vec<Row>,
    /// What the planner decided and what it cost.
    pub report: ExecutionReport,
}

/// Planner decision + measured cost, as typed steps.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The algorithm the adaptive policy selected, or `None` when the
    /// WHERE clause removed every row and aggregation was skipped.
    pub algorithm: Option<Algorithm>,
    /// Rows surviving the WHERE clause (= input rows when no filter).
    pub rows_aggregated: usize,
    /// Total simulated cycles (filter + aggregation).
    pub cycles: u64,
    /// Simulated cycles per *input* tuple.
    pub cpt: f64,
    /// The steps that actually executed, in order.
    pub steps: Vec<PlanStep>,
}

impl ExecutionReport {
    /// Renders the executed steps as a one-line pipeline description.
    pub fn describe(&self) -> String {
        self.steps
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// The planner: owns the machine configuration it plans for.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    cfg: SimConfig,
}

impl Engine {
    /// An engine with the paper's machine configuration.
    pub fn new() -> Self {
        Self::with_config(SimConfig::paper())
    }

    /// An engine with a custom configuration.
    pub fn with_config(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// The machine configuration this engine plans for.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Plans a query against a table: resolves columns, validates the
    /// predicates, estimates cardinality from the table's column
    /// metadata ([`crate::ColumnMeta`]), and fixes the §V-D algorithm
    /// choice into a typed [`QueryPlan`].
    ///
    /// Planning never runs the machine. The estimate here is taken over
    /// the *unfiltered* column, as a real optimizer plans from table
    /// statistics rather than post-selection data; [`crate::Session::run`]
    /// still charges the §III-A metadata scan at execution time (over
    /// the post-WHERE input), so the billed cost matches the paper even
    /// though the decision was made from plan-time statistics.
    ///
    /// # Errors
    ///
    /// A typed [`PlanError`] for the first problem found: unknown
    /// columns, an empty table or aggregate list, composite-key domain
    /// overflow, or `HAVING`/`ORDER BY` over `AVG`.
    pub fn plan(&self, table: &Table, query: &AggregateQuery) -> Result<QueryPlan, PlanError> {
        let unknown = |name: &str| PlanError::UnknownColumn(name.to_string());
        let group = table
            .column_shared(&query.group_by)
            .ok_or_else(|| unknown(&query.group_by))?;
        let value = table
            .column_shared(&query.value)
            .ok_or_else(|| unknown(&query.value))?;
        if query.aggregates.is_empty() {
            return Err(PlanError::NoAggregates);
        }
        if table.rows() == 0 {
            return Err(PlanError::EmptyTable);
        }
        if let Some(h) = &query.having {
            if h.agg == AggFn::Avg {
                return Err(PlanError::UnsupportedAvgPredicate { clause: "HAVING" });
            }
        }
        if let Some(ob) = &query.order_by {
            if ob.key == OrderKey::Agg(AggFn::Avg) {
                return Err(PlanError::UnsupportedAvgPredicate { clause: "ORDER BY" });
            }
        }
        let mut rest: Vec<Arc<[u32]>> = Vec::with_capacity(query.group_by_rest.len());
        for name in &query.group_by_rest {
            rest.push(table.column_shared(name).ok_or_else(|| unknown(name))?);
        }
        let filter_col = match &query.filter {
            Some((col, _)) => Some(table.column_shared(col).ok_or_else(|| unknown(col))?),
            None => None,
        };

        let n = table.rows();
        let meta = |name: &str| table.meta(name).expect("column resolved above");
        // Fused composite keys have no sortedness guarantee even when
        // the primary column does.
        let presorted = meta(&query.group_by).sorted && query.group_by_rest.is_empty();
        // A column's key domain is `max + 1`, from the view's metadata.
        let domain = |name: &str| meta(name).max.expect("non-empty table") as u64 + 1;

        let mut steps = Vec::new();

        // Composite GROUP BY: check the fused key domain fits the 32-bit
        // key space, from the per-column maxima (the session replays the
        // charged machine scans at execution time). `domains` is empty
        // for single-column queries.
        let domains: Vec<u64> = if rest.is_empty() {
            Vec::new()
        } else {
            let domains: Vec<u64> = query.group_columns().into_iter().map(domain).collect();
            let total: u128 = domains.iter().map(|&d| d as u128).product();
            if total > u32::MAX as u128 + 1 {
                return Err(PlanError::CompositeKeyOverflow {
                    domain: total.min(u64::MAX as u128) as u64,
                });
            }
            steps.push(PlanStep::FuseKeys {
                columns: query
                    .group_columns()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            });
            domains
        };

        if let Some((col, pred)) = &query.filter {
            steps.push(PlanStep::VectorFilter {
                column: col.clone(),
                pred: *pred,
            });
        }

        // Cardinality estimate over the effective (fused) group column,
        // pre-filter: the exact `max + 1`, so it bounds every key of
        // every range of the table. A single column's maximum is the
        // view's metadata; a fused key's is a fact of no column, so it
        // is scanned here. The session's scan at execution time
        // charges the §III-A metadata cost but runs over the post-WHERE
        // input, so it may see different data; the algorithm choice is
        // fixed here, from this estimate.
        let scan_mode = ScanMode::of(presorted);
        let cardinality = if rest.is_empty() {
            domain(&query.group_by)
        } else {
            let key_at = |i: usize| -> u64 {
                let mut k = group[i] as u64;
                for (col, &d) in rest.iter().zip(&domains[1..]) {
                    k = k * d + col[i] as u64;
                }
                k
            };
            (0..n).map(key_at).max().expect("non-empty table") + 1
        };
        steps.push(PlanStep::CardinalityScan {
            mode: scan_mode,
            estimate: cardinality,
        });

        let algorithm = select_algorithm(
            &PlannerInputs {
                presorted,
                cardinality,
                rows: n,
                mvl: self.cfg.mvl,
            },
            None,
            AdaptiveMode::Realistic,
        );
        if query.needs_minmax() {
            steps.push(PlanStep::MinMaxKernel);
        } else {
            steps.push(PlanStep::Aggregate(algorithm));
        }

        if let Some(h) = &query.having {
            steps.push(PlanStep::Having {
                agg: h.agg,
                value: query.value.clone(),
                pred: h.pred,
            });
        }
        if let Some(ob) = &query.order_by {
            steps.push(PlanStep::OrderBy {
                key: ob.key,
                group: query.group_by.clone(),
                value: query.value.clone(),
                desc: ob.desc,
            });
            if let Some(k) = ob.limit {
                steps.push(PlanStep::Limit(k));
            }
        }

        Ok(QueryPlan {
            table: table.name().to_string(),
            query: query.clone(),
            steps,
            algorithm,
            scan_mode,
            cardinality,
            presorted,
            rows: n,
            // Engine-direct plans have no catalogue, hence no data
            // version; the catalogue stamps it on its plans.
            data_version: None,
            as_of: None,
            group,
            rest,
            value,
            filter_col,
            domains: domains.into(),
            // Zone maps come from catalogue statistics; the catalogue
            // stamps them after planning.
            zones: None,
            zone_maps: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Predicate;
    use crate::session::Session;

    // Plan, then run on a fresh one-query session.
    fn execute(
        engine: &Engine,
        table: &Table,
        query: &AggregateQuery,
    ) -> Result<QueryOutput, PlanError> {
        let plan = engine.plan(table, query)?;
        Ok(Session::with_config(engine.config().clone()).run(&plan))
    }

    #[test]
    fn cardinality_is_max_plus_one() {
        let engine = Engine::new();
        let q = AggregateQuery::paper("g", "v");
        // Unsorted and presorted columns plan the same `max + 1`.
        for (g, presorted) in [(vec![4, 17, 3], false), (vec![3, 4, 17], true)] {
            let t = Table::new("r")
                .with_column("g", g)
                .with_column("v", vec![1, 2, 3]);
            let plan = engine.plan(&t, &q).unwrap();
            assert_eq!(plan.cardinality_estimate(), 18);
            assert_eq!(plan.presorted(), presorted);
        }
        let empty = Table::new("r")
            .with_column("g", vec![])
            .with_column("v", vec![]);
        assert_eq!(engine.plan(&empty, &q).unwrap_err(), PlanError::EmptyTable);
    }

    #[test]
    fn composite_group_by_matches_host_oracle() {
        // GROUP BY (a, b): fuse on the machine, decompose on readback.
        let a = vec![1u32, 2, 1, 2, 1, 1];
        let b = vec![0u32, 0, 1, 1, 0, 1];
        let v = vec![10u32, 20, 30, 40, 50, 60];
        let t = Table::new("r")
            .with_column("a", a.clone())
            .with_column("b", b.clone())
            .with_column("v", v.clone());
        let q = AggregateQuery::paper("a", "v").with_group_by_also("b");
        let out = execute(&Engine::new(), &t, &q).unwrap();

        let mut expect: std::collections::BTreeMap<(u32, u32), (u32, u32)> =
            std::collections::BTreeMap::new();
        for i in 0..a.len() {
            let e = expect.entry((a[i], b[i])).or_insert((0, 0));
            e.0 += 1;
            e.1 += v[i];
        }
        assert_eq!(out.rows.len(), expect.len());
        for r in &out.rows {
            assert_eq!(r.group_parts.len(), 2);
            let key = (r.group_parts[0], r.group_parts[1]);
            let (count, sum) = expect[&key];
            assert_eq!(r.values[0] as u32, count, "count of {key:?}");
            assert_eq!(r.values[1] as u32, sum, "sum of {key:?}");
        }
        assert!(out.report.describe().contains("FuseKeys(a×b)"));
    }

    #[test]
    fn three_column_group_by() {
        let t = Table::new("r")
            .with_column("a", vec![0, 1, 0, 1])
            .with_column("b", vec![2, 2, 3, 3])
            .with_column("c", vec![5, 5, 5, 6])
            .with_column("v", vec![1, 2, 3, 4]);
        let q = AggregateQuery::paper("a", "v")
            .with_group_by_also("b")
            .with_group_by_also("c");
        let out = execute(&Engine::new(), &t, &q).unwrap();
        // All four rows are distinct (a, b, c) triples.
        assert_eq!(out.rows.len(), 4);
        let parts: Vec<Vec<u32>> = out.rows.iter().map(|r| r.group_parts.clone()).collect();
        assert!(parts.contains(&vec![0, 2, 5]));
        assert!(parts.contains(&vec![1, 3, 6]));
        for r in &out.rows {
            assert_eq!(r.values[0], 1.0);
        }
    }

    #[test]
    fn composite_group_by_with_filter() {
        let t = Table::new("r")
            .with_column("a", vec![1, 1, 2, 2, 1])
            .with_column("b", vec![0, 1, 0, 1, 0])
            .with_column("v", vec![5, 6, 7, 8, 9]);
        let q = AggregateQuery::paper("a", "v")
            .with_group_by_also("b")
            .with_filter("v", Predicate::NotEqual(7));
        let out = execute(&Engine::new(), &t, &q).unwrap();
        // (2, 0) is filtered out entirely.
        assert!(!out.rows.iter().any(|r| r.group_parts == vec![2, 0]));
        let r10 = out
            .rows
            .iter()
            .find(|r| r.group_parts == vec![1, 0])
            .unwrap();
        assert_eq!(r10.values[0], 2.0); // rows 0 and 4
        assert_eq!(r10.values[1], 14.0);
    }

    #[test]
    fn composite_key_domain_overflow_is_an_error() {
        let t = Table::new("r")
            .with_column("a", vec![0, 100_000])
            .with_column("b", vec![0, 100_000])
            .with_column("v", vec![1, 2]);
        let q = AggregateQuery::paper("a", "v").with_group_by_also("b");
        let err = execute(&Engine::new(), &t, &q).unwrap_err();
        assert!(
            matches!(err, PlanError::CompositeKeyOverflow { domain } if domain > u32::MAX as u64),
            "{err:?}"
        );
        assert!(err.to_string().contains("32-bit key space"), "{err}");
    }

    #[test]
    fn single_column_rows_have_one_part() {
        let t = people();
        let out = execute(&Engine::new(), &t, &AggregateQuery::paper("g", "v")).unwrap();
        for r in &out.rows {
            assert_eq!(r.group_parts, vec![r.group]);
        }
    }

    fn people() -> Table {
        Table::new("r")
            .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
            .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0])
    }

    #[test]
    fn paper_query_end_to_end() {
        let out = execute(&Engine::new(), &people(), &AggregateQuery::paper("g", "v")).unwrap();
        assert_eq!(out.rows.len(), 6);
        // Group 3: COUNT 2, SUM 7.
        let r3 = out.rows.iter().find(|r| r.group == 3).unwrap();
        assert_eq!(r3.values, vec![2.0, 7.0]);
        assert!(out.report.cycles > 0);
        assert!(out.report.describe().contains("CardinalityScan"));
        assert!(out.report.describe().contains("Aggregate["));
    }

    #[test]
    fn filter_then_aggregate() {
        let q = AggregateQuery::paper("g", "v").with_filter("g", Predicate::NotEqual(0));
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        assert_eq!(out.report.rows_aggregated, 6);
        assert!(out.rows.iter().all(|r| r.group != 0));
        assert!(out.report.describe().contains("VectorFilter"));
    }

    #[test]
    fn min_max_avg() {
        let q = AggregateQuery::paper("g", "v")
            .with_aggregate(AggFn::Min)
            .with_aggregate(AggFn::Max)
            .with_aggregate(AggFn::Avg);
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        let r0 = out.rows.iter().find(|r| r.group == 0).unwrap();
        // count, sum, min, max, avg of values {4, 1}.
        assert_eq!(r0.values, vec![2.0, 5.0, 1.0, 4.0, 2.5]);
        assert!(out.report.describe().contains("MinMaxKernel"));
    }

    #[test]
    fn having_filters_output_groups() {
        // people(): group 0 {4,1}, 3 {5,2} have COUNT 2; others COUNT 1.
        let q =
            AggregateQuery::paper("g", "v").with_having(AggFn::Count, Predicate::GreaterThan(1));
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        let groups: Vec<u32> = out.rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec![0, 3]);
        assert!(out.report.describe().contains("Having(COUNT(*) > 1)"));
    }

    #[test]
    fn having_on_sum_with_minmax_columns_in_flight() {
        // HAVING must compact the min/max columns too.
        let q = AggregateQuery::paper("g", "v")
            .with_aggregate(AggFn::Min)
            .with_aggregate(AggFn::Max)
            .with_having(AggFn::Sum, Predicate::GreaterThan(3));
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        // Sums per group: 0→5, 1→0, 2→3, 3→7, 4→0, 5→3 → keep {0, 3}.
        let groups: Vec<u32> = out.rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec![0, 3]);
        let r0 = &out.rows[0];
        assert_eq!(r0.values, vec![2.0, 5.0, 1.0, 4.0]);
    }

    #[test]
    fn having_removing_everything_yields_empty_output() {
        let q =
            AggregateQuery::paper("g", "v").with_having(AggFn::Count, Predicate::GreaterThan(100));
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn having_on_avg_is_a_typed_plan_error() {
        let q = AggregateQuery::paper("g", "v").with_having(AggFn::Avg, Predicate::GreaterThan(1));
        let e = execute(&Engine::new(), &people(), &q).unwrap_err();
        assert_eq!(e, PlanError::UnsupportedAvgPredicate { clause: "HAVING" });
        assert!(e.to_string().contains("AVG"), "{e}");
    }

    #[test]
    fn order_by_on_avg_is_a_typed_plan_error() {
        let q = AggregateQuery::paper("g", "v")
            .with_aggregate(AggFn::Avg)
            .with_order_by(crate::query::OrderKey::Agg(AggFn::Avg), false);
        let e = Engine::new().plan(&people(), &q).unwrap_err();
        assert_eq!(e, PlanError::UnsupportedAvgPredicate { clause: "ORDER BY" });
    }

    #[test]
    fn order_by_aggregate_desc_with_limit() {
        // Top-2 groups by SUM(v): 3 (7), 0 (5).
        let q = AggregateQuery::paper("g", "v")
            .with_order_by(crate::query::OrderKey::Agg(AggFn::Sum), true)
            .with_limit(2);
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        let groups: Vec<u32> = out.rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec![3, 0]);
        assert!(out.report.describe().contains("OrderBy"));
        assert!(out.report.describe().contains("Limit(2)"));
    }

    #[test]
    fn order_by_is_stable_on_ties() {
        // Groups 2 and 5 both sum to 3; the tail's sort is stable, so the
        // lower group key (already in group order) comes first.
        let q = AggregateQuery::paper("g", "v")
            .with_order_by(crate::query::OrderKey::Agg(AggFn::Sum), false);
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        let sums: Vec<f64> = out.rows.iter().map(|r| r.values[1]).collect();
        let mut sorted = sums.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sums, sorted);
        let pos2 = out.rows.iter().position(|r| r.group == 2).unwrap();
        let pos5 = out.rows.iter().position(|r| r.group == 5).unwrap();
        assert!(pos2 < pos5, "stability: group 2 before 5 on equal sums");
    }

    #[test]
    fn bare_limit_truncates_group_order() {
        let q = AggregateQuery::paper("g", "v").with_limit(3);
        let out = execute(&Engine::new(), &people(), &q).unwrap();
        let groups: Vec<u32> = out.rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec![0, 1, 2]);
    }

    #[test]
    fn full_sql_pipeline_via_database() {
        use crate::database::Database;
        let mut db = Database::new();
        db.register(people());
        let out = db
            .execute_sql(
                "SELECT g, COUNT(*), SUM(v) FROM r WHERE v > 0 GROUP BY g \
                 HAVING SUM(v) > 2 ORDER BY SUM(v) DESC LIMIT 2",
            )
            .unwrap();
        // After WHERE v > 0: group sums 0→5, 2→3, 3→7, 5→3; HAVING > 2
        // keeps all of those; top-2 by sum: 3 (7), 0 (5).
        let groups: Vec<u32> = out.rows.iter().map(|r| r.group).collect();
        assert_eq!(groups, vec![3, 0]);
    }

    #[test]
    fn sorted_metadata_drives_the_planner() {
        // Sorted, low cardinality, long runs (128 per group) → polytable
        // per Table IX.
        let n = 512usize;
        let t = Table::new("r")
            .with_column("g", (0..n).map(|i| (i / 128) as u32).collect())
            .with_column("v", (0..n).map(|i| (i % 10) as u32).collect());
        let plan = Engine::new()
            .plan(&t, &AggregateQuery::paper("g", "v"))
            .unwrap();
        assert_eq!(plan.algorithm(), Algorithm::Polytable);
        assert!(plan.presorted());
        let out = execute(&Engine::new(), &t, &AggregateQuery::paper("g", "v")).unwrap();
        assert_eq!(out.report.algorithm, Some(Algorithm::Polytable));
    }

    #[test]
    fn short_runs_steer_the_planner_away_from_polytable() {
        // Sorted but nearly-unique keys: run locality is absent, so the
        // run-length-aware policy falls back to monotable.
        let n = 512usize;
        let t = Table::new("r")
            .with_column("g", (0..n).map(|i| (i / 2) as u32).collect())
            .with_column("v", (0..n).map(|i| (i % 10) as u32).collect());
        let out = execute(&Engine::new(), &t, &AggregateQuery::paper("g", "v")).unwrap();
        assert_eq!(out.report.algorithm, Some(Algorithm::Monotable));
    }

    #[test]
    fn unknown_column_is_a_typed_error() {
        let e = execute(
            &Engine::new(),
            &people(),
            &AggregateQuery::paper("nope", "v"),
        )
        .unwrap_err();
        assert_eq!(e, PlanError::UnknownColumn("nope".into()));
        assert!(e.to_string().contains("unknown column"));
    }

    #[test]
    fn empty_table_and_no_aggregates_are_typed_errors() {
        let empty = Table::new("r")
            .with_column("g", vec![])
            .with_column("v", vec![]);
        let e = Engine::new()
            .plan(&empty, &AggregateQuery::paper("g", "v"))
            .unwrap_err();
        assert_eq!(e, PlanError::EmptyTable);

        let mut q = AggregateQuery::paper("g", "v");
        q.aggregates.clear();
        let e = Engine::new().plan(&people(), &q).unwrap_err();
        assert_eq!(e, PlanError::NoAggregates);
    }

    #[test]
    fn filter_that_drops_everything_reports_skipped_aggregation() {
        let t = Table::new("r")
            .with_column("g", vec![1, 1])
            .with_column("v", vec![2, 2]);
        let q = AggregateQuery::paper("g", "v").with_filter("v", Predicate::NotEqual(2));
        let out = execute(&Engine::new(), &t, &q).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.report.rows_aggregated, 0);
        // No aggregation ran, and the report says so instead of claiming
        // an algorithm.
        assert_eq!(out.report.algorithm, None);
        assert!(out
            .report
            .steps
            .contains(&crate::plan::PlanStep::AggregateSkipped));
        assert!(out.report.describe().contains("AggregateSkipped"));
    }

    #[test]
    fn matches_oracle_on_random_data() {
        let n = 2000;
        let g: Vec<u32> = (0..n).map(|i| (i * 7919) % 97).collect();
        let v: Vec<u32> = (0..n).map(|i| i % 10).collect();
        let t = Table::new("r")
            .with_column("g", g.clone())
            .with_column("v", v.clone());
        let out = execute(&Engine::new(), &t, &AggregateQuery::paper("g", "v")).unwrap();
        let expect = vagg_core::reference(&g, &v);
        assert_eq!(out.rows.len(), expect.len());
        for (row, i) in out.rows.iter().zip(0..) {
            assert_eq!(row.group, expect.groups[i]);
            assert_eq!(row.values[0] as u32, expect.counts[i]);
            assert_eq!(row.values[1] as u32, expect.sums[i]);
        }
    }

    #[test]
    fn explain_renders_without_executing() {
        let q = AggregateQuery::paper("g", "v")
            .with_filter("v", Predicate::GreaterThan(0))
            .with_having(AggFn::Sum, Predicate::GreaterThan(2))
            .with_order_by(crate::query::OrderKey::Agg(AggFn::Sum), true)
            .with_limit(2);
        let plan = Engine::new().plan(&people(), &q).unwrap();
        let text = plan.explain();
        assert_eq!(
            text,
            "SELECT g, COUNT(*), SUM(v) FROM r WHERE v > 0 GROUP BY g \
             HAVING SUM(v) > 2 ORDER BY SUM(v) DESC LIMIT 2\n\
             \x20 rows=8 presorted=false algorithm=monotable cardinality≈6\n\
             \x20 1. VectorFilter(v > 0)\n\
             \x20 2. CardinalityScan[exact](cardinality≈6)\n\
             \x20 3. Aggregate[mono]\n\
             \x20 4. Having(SUM(v) > 2)\n\
             \x20 5. OrderBy(SUM(v) DESC)\n\
             \x20 6. Limit(2)"
        );
    }
}
