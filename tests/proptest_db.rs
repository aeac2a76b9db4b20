//! Property tests for the query engine: SQL roundtripping, vectorised
//! filter equivalence, and full pipelines against a host-side oracle.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vagg::db::{
    parse, AggFn, AggregateQuery, CompactionPolicy, Database, Engine, OrderKey, PlanError,
    Predicate, QueryOutput, RowBatch, Session, ShardedDatabase, Table,
};
use vagg::sim::Machine;

/// Plans `q` and runs it on a fresh one-query session.
fn execute(table: &Table, q: &AggregateQuery) -> Result<QueryOutput, PlanError> {
    let plan = Engine::new().plan(table, q)?;
    Ok(Session::new().run(&plan))
}

fn arb_aggfn() -> impl Strategy<Value = AggFn> {
    prop_oneof![
        Just(AggFn::Count),
        Just(AggFn::Sum),
        Just(AggFn::Min),
        Just(AggFn::Max),
        Just(AggFn::Avg),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        any::<u32>().prop_map(|k| if k == 0 {
            Predicate::NonZero
        } else {
            Predicate::NotEqual(k)
        }),
        Just(Predicate::NonZero),
        any::<u32>().prop_map(Predicate::GreaterThan),
        any::<u32>().prop_map(Predicate::LessThan),
    ]
}

// HAVING / ORDER BY keys must be materialised integral aggregates.
fn arb_int_aggfn() -> impl Strategy<Value = AggFn> {
    prop_oneof![
        Just(AggFn::Count),
        Just(AggFn::Sum),
        Just(AggFn::Min),
        Just(AggFn::Max),
    ]
}

fn arb_query() -> impl Strategy<Value = AggregateQuery> {
    (
        proptest::collection::vec(arb_aggfn(), 1..5),
        proptest::option::of(arb_predicate()),
        proptest::option::of((arb_int_aggfn(), arb_predicate())),
        proptest::option::of((
            prop_oneof![
                Just(OrderKey::Group),
                arb_int_aggfn().prop_map(OrderKey::Agg)
            ],
            any::<bool>(),
            proptest::option::of(1usize..20),
        )),
    )
        .prop_map(|(aggs, filter, having, order)| {
            let mut q = AggregateQuery::paper("g", "v");
            q.aggregates.clear();
            for a in aggs {
                q = q.with_aggregate(a);
            }
            if let Some(p) = filter {
                q = q.with_filter("w", p);
            }
            if let Some((agg, pred)) = having {
                q = q.with_having(agg, pred);
            }
            if let Some((key, desc, limit)) = order {
                q = q.with_order_by(key, desc);
                if let Some(k) = limit {
                    q = q.with_limit(k);
                }
            }
            q
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any constructible query renders to SQL that parses back to the
    /// same structured query.
    #[test]
    fn sql_roundtrips(q in arb_query()) {
        let text = q.sql("r");
        let parsed = parse(&text).unwrap_or_else(|e| {
            panic!("rendered SQL failed to parse: {text:?}: {e}")
        });
        prop_assert_eq!(&parsed.table, "r");
        prop_assert_eq!(&parsed.query.group_by, &q.group_by);
        prop_assert_eq!(&parsed.query.aggregates, &q.aggregates);
        prop_assert_eq!(&parsed.query.filter, &q.filter);
        prop_assert_eq!(&parsed.query.having, &q.having);
        prop_assert_eq!(&parsed.query.order_by, &q.order_by);
        // And rendering is a fixed point.
        prop_assert_eq!(parsed.query.sql("r"), text);
    }

    /// The vectorised filter matches the host-side oracle on arbitrary
    /// columns and predicates.
    #[test]
    fn vector_filter_matches_oracle(
        col in proptest::collection::vec(0u32..64, 1..300),
        pred in prop_oneof![
            (0u32..64).prop_map(Predicate::NotEqual),
            Just(Predicate::NonZero),
            (0u32..64).prop_map(Predicate::GreaterThan),
            (0u32..64).prop_map(Predicate::LessThan),
        ],
    ) {
        let mut m = Machine::paper();
        let n = col.len();
        let src = m.space_mut().alloc_slice_u32(&col);
        let dst = m.space_mut().alloc(4 * n as u64, 64);
        let kept = vagg::db::vector_filter(&mut m, src, n, pred, &[(src, dst)]);
        let expect: Vec<u32> =
            col.iter().copied().filter(|&x| pred.matches(x)).collect();
        prop_assert_eq!(kept, expect.len());
        prop_assert_eq!(m.space().read_slice_u32(dst, kept), expect);
    }

    /// Full WHERE → GROUP BY → HAVING → ORDER BY → LIMIT pipelines agree
    /// with a host-side reference implementation.
    #[test]
    fn engine_pipeline_matches_oracle(
        rows in proptest::collection::vec((0u32..16, 0u32..10, 0u32..8), 1..400),
        filter_pred in proptest::option::of(prop_oneof![
            (0u32..8).prop_map(Predicate::NotEqual),
            (0u32..8).prop_map(Predicate::GreaterThan),
            (0u32..8).prop_map(Predicate::LessThan),
        ]),
        having_t in proptest::option::of(0u32..30),
        desc in any::<bool>(),
        limit in proptest::option::of(1usize..8),
    ) {
        let g: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let v: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let w: Vec<u32> = rows.iter().map(|r| r.2).collect();

        let mut q = AggregateQuery::paper("g", "v");
        if let Some(p) = filter_pred {
            q = q.with_filter("w", p);
        }
        if let Some(t) = having_t {
            q = q.with_having(AggFn::Sum, Predicate::GreaterThan(t));
        }
        q = q.with_order_by(OrderKey::Agg(AggFn::Sum), desc);
        if let Some(k) = limit {
            q = q.with_limit(k);
        }

        // Host-side oracle.
        let mut agg: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
        for i in 0..g.len() {
            if filter_pred.is_none_or(|p| p.matches(w[i])) {
                let e = agg.entry(g[i]).or_insert((0, 0));
                e.0 += 1;
                e.1 += v[i];
            }
        }
        let mut expect: Vec<(u32, u32, u32)> = agg
            .into_iter()
            .filter(|(_, (_, sum))| having_t.is_none_or(|t| *sum > t))
            .map(|(g, (c, s))| (g, c, s))
            .collect();
        // Stable sort by sum (complement for DESC) mirrors the engine.
        expect.sort_by_key(|&(_, _, s)| if desc { u32::MAX - s } else { s });
        if let Some(k) = limit {
            expect.truncate(k);
        }

        let table = Table::new("r")
            .with_column("g", g)
            .with_column("v", v)
            .with_column("w", w);
        let out = execute(&table, &q);

        match out {
            Ok(out) => {
                let got: Vec<(u32, u32, u32)> = out
                    .rows
                    .iter()
                    .map(|r| (r.group, r.values[0] as u32, r.values[1] as u32))
                    .collect();
                prop_assert_eq!(got, expect);
            }
            Err(e) => {
                // The only legitimate failure is the all-rows-filtered
                // empty input... which execute reports as empty output,
                // so any error is a bug.
                return Err(TestCaseError::fail(format!("engine error: {e}")));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Engine::plan` + `Session::run` is a pure function of the table
    /// and the query: two fresh one-query sessions agree on rows,
    /// cycles and algorithm, on random full-pipeline queries.
    #[test]
    fn plan_plus_session_matches_execute(
        rows in proptest::collection::vec((0u32..16, 0u32..10, 0u32..8), 1..300),
        filter_pred in proptest::option::of(prop_oneof![
            (0u32..8).prop_map(Predicate::NotEqual),
            (0u32..8).prop_map(Predicate::GreaterThan),
            (0u32..8).prop_map(Predicate::LessThan),
        ]),
        having_t in proptest::option::of(0u32..30),
        desc in any::<bool>(),
        limit in proptest::option::of(1usize..8),
    ) {
        let g: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let v: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let w: Vec<u32> = rows.iter().map(|r| r.2).collect();

        let mut q = AggregateQuery::paper("g", "v");
        if let Some(p) = filter_pred {
            q = q.with_filter("w", p);
        }
        if let Some(t) = having_t {
            q = q.with_having(AggFn::Sum, Predicate::GreaterThan(t));
        }
        q = q.with_order_by(OrderKey::Agg(AggFn::Sum), desc);
        if let Some(k) = limit {
            q = q.with_limit(k);
        }

        let table = Table::new("r")
            .with_column("g", g)
            .with_column("v", v)
            .with_column("w", w);

        let engine = Engine::new();
        let via_execute = execute(&table, &q).unwrap();
        let plan = engine.plan(&table, &q).unwrap();
        prop_assert!(plan.explain().contains("CardinalityScan"));
        let via_session = Session::new().run(&plan);

        prop_assert_eq!(via_execute.rows, via_session.rows);
        prop_assert_eq!(via_execute.report.cycles, via_session.report.cycles);
        prop_assert_eq!(
            via_execute.report.algorithm,
            via_session.report.algorithm
        );
        prop_assert_eq!(
            via_execute.report.rows_aggregated,
            via_session.report.rows_aggregated
        );
    }

    /// Running one plan twice on a shared session gives identical rows,
    /// and the session accounts per-query cycle deltas exactly.
    #[test]
    fn session_reuse_is_deterministic_on_rows(
        rows in proptest::collection::vec((0u32..16, 0u32..10), 1..200),
    ) {
        let g: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let v: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let table = Table::new("r").with_column("g", g).with_column("v", v);
        let plan = Engine::new()
            .plan(&table, &AggregateQuery::paper("g", "v"))
            .unwrap();
        let mut session = Session::new();
        let first = session.run(&plan);
        let second = session.run(&plan);
        prop_assert_eq!(session.queries_run(), 2);
        prop_assert_eq!(&first.rows, &second.rows);
        prop_assert_eq!(
            session.total_cycles(),
            first.report.cycles + second.report.cycles
        );
    }

    /// Prepared `execute(params)` returns exactly the rows a fresh
    /// one-shot execution of the literal-inlined SQL returns, across a
    /// sweep of bound parameters — the prepared fast path (bind +
    /// rebind, no re-planning) must be invisible in the results.
    #[test]
    fn prepared_execute_matches_fresh_run_sql(
        rows in proptest::collection::vec((0u32..16, 0u32..10, 0u32..8), 1..200),
        thresholds in proptest::collection::vec(0u64..12, 1..6),
        having_t in proptest::option::of(0u64..30),
        limit in proptest::option::of(1u64..8),
    ) {
        let g: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let v: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let w: Vec<u32> = rows.iter().map(|r| r.2).collect();
        let table = Table::new("r")
            .with_column("g", g)
            .with_column("v", v)
            .with_column("w", w);

        let mut sql = "SELECT g, COUNT(*), SUM(v) FROM r WHERE w < ? GROUP BY g".to_string();
        if having_t.is_some() {
            sql += " HAVING SUM(v) > ?";
        }
        if limit.is_some() {
            sql += " ORDER BY SUM(v) DESC LIMIT ?";
        }

        let mut db = Database::new();
        db.register(table.clone());
        let mut stmt = db.prepare(&sql).unwrap();

        for &t in &thresholds {
            let mut params = vec![t];
            params.extend(having_t);
            params.extend(limit);
            let prepared = stmt.execute(&mut db, &params).unwrap();

            // Oracle: inline the literals and execute one-shot, with no
            // caching layer anywhere near the plan.
            let mut inlined = sql.clone();
            for p in &params {
                inlined = inlined.replacen('?', &p.to_string(), 1);
            }
            let fresh = execute(&table, &parse(&inlined).unwrap().query).unwrap();
            prop_assert_eq!(prepared.rows, fresh.rows, "{} with {:?}", sql, params);
        }
        prop_assert_eq!(db.plan_cache_stats().misses, 1, "binding never re-plans");
        prop_assert_eq!(stmt.executions(), thresholds.len() as u64);
    }

    /// The N-session sharded aggregate merges to exactly the
    /// single-session answer for COUNT/SUM/MIN/MAX (and AVG on
    /// readback), for any shard count.
    #[test]
    fn sharded_aggregate_matches_single_session(
        rows in proptest::collection::vec((0u32..16, 0u32..10), 1..300),
        shards in 1usize..9,
    ) {
        let g: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let v: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let table = Table::new("t").with_column("g", g).with_column("v", v);
        let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY g";

        let mut single = Database::new();
        single.register(table.clone());
        let expect = single.execute_sql(sql).unwrap();

        let mut sharded = ShardedDatabase::new(shards);
        sharded.register(table);
        let got = sharded.run_sql(sql).unwrap();
        prop_assert_eq!(got.rows, expect.rows, "{} shards", shards);
        prop_assert_eq!(
            got.report.rows_aggregated,
            expect.report.rows_aggregated
        );
    }

    /// `run_sql` over base ++ delta equals `run_sql` over the same rows
    /// registered in one shot — on a single session and across every
    /// shard count — for arbitrary seed tables, batch sequences and
    /// compaction thresholds.
    #[test]
    fn ingest_equals_fresh_registration_single_and_sharded(
        base in proptest::collection::vec((0u32..2000, 0u32..10), 1..60),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..20_000, 0u32..10), 1..20),
            1..5,
        ),
        compact_every in 1usize..40,
        shards in 1usize..5,
    ) {
        let table = || {
            Table::new("t")
                .with_column("g", base.iter().map(|r| r.0).collect::<Vec<u32>>())
                .with_column("v", base.iter().map(|r| r.1).collect::<Vec<u32>>())
        };
        let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t \
                   WHERE v <> 9 GROUP BY g";

        let mut db = Database::new();
        db.catalogue()
            .set_compaction_policy(CompactionPolicy::every(compact_every));
        db.register(table());
        let mut sharded = ShardedDatabase::new(shards);
        sharded.set_compaction_policy(CompactionPolicy::every(compact_every));
        sharded.register(table());

        // Accumulate all rows for the one-shot oracle.
        let mut all = base.clone();
        for batch in &batches {
            all.extend(batch.iter().copied());
            let rb = || {
                RowBatch::new()
                    .with_column("g", batch.iter().map(|r| r.0).collect::<Vec<u32>>())
                    .with_column("v", batch.iter().map(|r| r.1).collect::<Vec<u32>>())
            };
            db.append_rows("t", rb()).unwrap();
            sharded.append_rows("t", rb()).unwrap();

            let mut oracle = Database::new();
            oracle.register(
                Table::new("t")
                    .with_column("g", all.iter().map(|r| r.0).collect::<Vec<u32>>())
                    .with_column("v", all.iter().map(|r| r.1).collect::<Vec<u32>>()),
            );
            let expect = oracle.execute_sql(sql).unwrap();
            let single = db.execute_sql(sql).unwrap();
            prop_assert_eq!(&single.rows, &expect.rows, "single session");
            let merged = sharded.run_sql(sql).unwrap();
            prop_assert_eq!(&merged.rows, &expect.rows, "{} shards", shards);
        }
    }

    #[test]
    fn composite_group_by_matches_host_oracle(
        n in 1usize..150,
        da in 1u32..20,
        db_ in 1u32..20,
        seed in 0u64..1000,
    ) {
        // Two grouping columns with independent domains; values 0..10.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let a: Vec<u32> = (0..n).map(|_| (next() % da as u64) as u32).collect();
        let b: Vec<u32> = (0..n).map(|_| (next() % db_ as u64) as u32).collect();
        let v: Vec<u32> = (0..n).map(|_| (next() % 10) as u32).collect();

        let mut expect: BTreeMap<(u32, u32), (u32, u32)> = BTreeMap::new();
        for i in 0..n {
            let e = expect.entry((a[i], b[i])).or_insert((0, 0));
            e.0 += 1;
            e.1 += v[i];
        }

        let table = Table::new("r")
            .with_column("a", a)
            .with_column("b", b)
            .with_column("v", v);
        let q = AggregateQuery::paper("a", "v").with_group_by_also("b");
        let out = execute(&table, &q).unwrap();

        prop_assert_eq!(out.rows.len(), expect.len());
        for r in &out.rows {
            prop_assert_eq!(r.group_parts.len(), 2);
            let key = (r.group_parts[0], r.group_parts[1]);
            let (count, sum) = expect[&key];
            prop_assert_eq!(r.values[0] as u32, count);
            prop_assert_eq!(r.values[1] as u32, sum);
        }
    }
}
