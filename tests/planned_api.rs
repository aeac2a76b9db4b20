//! Integration tests for the planned-query API: golden `EXPLAIN`
//! renderings, typed end-to-end errors, and session reuse through the
//! public facade.

use vagg::db::{
    AggFn, AggregateQuery, Database, Engine, JoinStrategy, OrderKey, PlanError, PlanStep,
    Predicate, Session, ShardedDatabase, SqlError, SqlOutcome, Table,
};

fn people() -> Table {
    Table::new("r")
        .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
        .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0])
}

fn orders() -> Table {
    Table::new("orders")
        .with_column("region", vec![0, 1, 0, 2, 1, 0])
        .with_column("quarter", vec![0, 1, 2, 3, 0, 1])
        .with_column("amount", vec![10, 20, 30, 40, 50, 60])
        .with_column("status", vec![1, 0, 1, 1, 0, 1])
}

#[test]
fn explain_golden_paper_query() {
    let plan = Engine::new()
        .plan(&people(), &AggregateQuery::paper("g", "v"))
        .unwrap();
    assert_eq!(
        plan.explain(),
        "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g\n\
         \x20 rows=8 presorted=false algorithm=monotable cardinality≈6\n\
         \x20 1. CardinalityScan[exact](cardinality≈6)\n\
         \x20 2. Aggregate[mono]"
    );
}

#[test]
fn explain_golden_full_tail_via_sql() {
    let mut db = Database::new();
    db.register(orders());
    let outcome = db
        .run_sql(
            "EXPLAIN SELECT region, quarter, COUNT(*), SUM(amount) \
             FROM orders WHERE status <> 0 GROUP BY region, quarter \
             HAVING COUNT(*) > 1 ORDER BY SUM(amount) DESC LIMIT 3",
        )
        .unwrap();
    let plan = match outcome {
        SqlOutcome::Plan(p) => p,
        other => panic!("EXPLAIN must not execute: {other:?}"),
    };
    // Nothing ran on the session's machine.
    assert_eq!(db.session().queries_run(), 0);
    assert_eq!(db.session().total_cycles(), 0);
    assert_eq!(
        plan.explain(),
        "SELECT region, quarter, COUNT(*), SUM(amount) FROM orders \
         WHERE status <> 0 GROUP BY region, quarter \
         HAVING COUNT(*) > 1 ORDER BY SUM(amount) DESC LIMIT 3\n\
         \x20 rows=6 presorted=false algorithm=monotable cardinality≈12 data_version=1 \
         zone_maps=1\n\
         \x20 1. FuseKeys(region×quarter)\n\
         \x20 2. VectorFilter(status <> 0)\n\
         \x20 3. CardinalityScan[exact](cardinality≈12)\n\
         \x20 4. Aggregate[mono]\n\
         \x20 5. Having(COUNT(*) > 1)\n\
         \x20 6. OrderBy(SUM(amount) DESC)\n\
         \x20 7. Limit(3)"
    );
}

#[test]
fn explain_golden_presorted_minmax() {
    let n = 512usize;
    let t = Table::new("sorted")
        .with_column("k", (0..n).map(|i| (i / 128) as u32).collect())
        .with_column("x", (0..n).map(|i| (i % 7) as u32).collect());
    let q = AggregateQuery::paper("k", "x")
        .with_aggregate(AggFn::Min)
        .with_aggregate(AggFn::Max);
    let plan = Engine::new().plan(&t, &q).unwrap();
    assert_eq!(
        plan.explain(),
        "SELECT k, COUNT(*), SUM(x), MIN(x), MAX(x) FROM sorted GROUP BY k\n\
         \x20 rows=512 presorted=true algorithm=polytable cardinality≈4\n\
         \x20 1. CardinalityScan[presorted](cardinality≈4)\n\
         \x20 2. MinMaxKernel[VGAmin/VGAmax]"
    );
}

#[test]
fn explain_golden_as_of_renders_frozen_provenance() {
    let mut db = Database::new();
    db.register(people());
    db.run_sql("CREATE SNAPSHOT launch").unwrap();
    db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap();

    // A named version: the frozen label rides next to data_version.
    let out = db
        .explain_sql("EXPLAIN SELECT g, COUNT(*), SUM(v) FROM r AS OF launch GROUP BY g")
        .unwrap();
    let plan = out.plan().expect("non-join SELECT yields a query plan");
    assert_eq!(plan.as_of(), Some("launch@1"));
    assert_eq!(
        plan.explain(),
        "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g\n\
         \x20 rows=8 presorted=false algorithm=monotable cardinality≈6 \
         data_version=1 as_of=launch@1\n\
         \x20 1. CardinalityScan[exact](cardinality≈6)\n\
         \x20 2. Aggregate[mono]"
    );

    // A raw version pin renders as data_version@N.
    let out = db
        .explain_sql("EXPLAIN SELECT g, COUNT(*), SUM(v) FROM r AS OF data_version 2 GROUP BY g")
        .unwrap();
    let plan = out.plan().expect("non-join SELECT yields a query plan");
    assert_eq!(plan.as_of(), Some("data_version@2"));
    assert_eq!(
        plan.explain(),
        "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g\n\
         \x20 rows=9 presorted=false algorithm=monotable cardinality≈10 \
         data_version=2 as_of=data_version@2\n\
         \x20 1. CardinalityScan[exact](cardinality≈10)\n\
         \x20 2. Aggregate[mono]"
    );

    // The live plan carries no provenance label.
    let out = db
        .explain_sql("EXPLAIN SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")
        .unwrap();
    let plan = out.plan().expect("non-join SELECT yields a query plan");
    assert_eq!(plan.as_of(), None);
    assert!(!plan.explain().contains("as_of="));
}

fn returns() -> Table {
    Table::new("returns")
        .with_column("region", vec![0, 0, 1, 2, 2, 1, 0, 3])
        .with_column("penalty", vec![5, 7, 2, 1, 9, 4, 3, 8])
}

#[test]
fn explain_golden_join_build_side_and_versions() {
    let mut db = Database::new();
    db.register(orders());
    db.register(returns());
    // Drift the right table so the two pinned versions differ.
    db.run_sql("INSERT INTO orders (region, quarter, amount, status) VALUES (3, 2, 70, 1)")
        .unwrap();

    let plan = db
        .explain_sql(
            "EXPLAIN SELECT returns.region, COUNT(*), SUM(penalty) \
             FROM returns JOIN orders ON returns.region = orders.region \
             GROUP BY returns.region",
        )
        .unwrap();
    let plan = plan.join().expect("a JOIN statement plans a join");
    assert_eq!(plan.build_table(), "orders");
    assert_eq!(plan.probe_table(), "returns");
    assert_eq!(plan.strategy(), JoinStrategy::Local);
    assert_eq!(plan.left_data_version(), 1);
    assert_eq!(plan.right_data_version(), 2);
    assert_eq!(
        plan.explain(),
        "SELECT returns.region, COUNT(*), SUM(penalty) FROM returns \
         JOIN orders ON returns.region = orders.region GROUP BY returns.region\n\
         \x20 join=hash build=orders probe=returns strategy=local \
         build_rows=7 probe_rows=8 build_distinct≈4 build_sorted=false\n\
         \x20 left=returns data_version=1 right=orders data_version=2\n\
         \x20 1. JoinBuild(orders[region] rows=7 distinct≈4)\n\
         \x20 2. JoinProbe(returns[region] rows=8)"
    );
}

#[test]
fn explain_golden_join_broadcast_on_shards() {
    let mut db = ShardedDatabase::new(4);
    db.register(orders());
    db.register(returns());
    let plan = db
        .explain_sql(
            "EXPLAIN SELECT returns.region, COUNT(*), SUM(penalty) \
             FROM returns JOIN orders ON returns.region = orders.region \
             GROUP BY returns.region",
        )
        .unwrap();
    let plan = plan.join().expect("a JOIN statement plans a join");
    assert_eq!(plan.strategy(), JoinStrategy::Broadcast);
    assert_eq!(
        plan.explain(),
        "SELECT returns.region, COUNT(*), SUM(penalty) FROM returns \
         JOIN orders ON returns.region = orders.region GROUP BY returns.region\n\
         \x20 join=hash build=orders probe=returns strategy=broadcast \
         build_rows=6 probe_rows=8 build_distinct≈3 build_sorted=false\n\
         \x20 left=returns data_version=1 right=orders data_version=1\n\
         \x20 1. JoinBuild(orders[region] rows=6 distinct≈3)\n\
         \x20 2. JoinProbe(returns[region] rows=8)"
    );
}

#[test]
fn explain_golden_join_partitions_a_large_build_side() {
    let mut db = ShardedDatabase::new(4);
    db.register(
        Table::new("fact")
            .with_column("k", (0..1200u32).map(|i| i % 8).collect())
            .with_column("v", (0..1200u32).map(|i| i % 10).collect()),
    );
    db.register(Table::new("dims").with_column("k", (0..1100u32).map(|i| i % 8).collect()));
    let plan = db
        .explain_sql(
            "EXPLAIN SELECT fact.k, COUNT(*), SUM(v) \
             FROM fact JOIN dims ON fact.k = dims.k GROUP BY fact.k",
        )
        .unwrap();
    let plan = plan.join().expect("a JOIN statement plans a join");
    assert_eq!(plan.build_table(), "dims");
    assert_eq!(plan.strategy(), JoinStrategy::Partition);
    assert_eq!(
        plan.explain(),
        "SELECT fact.k, COUNT(*), SUM(v) FROM fact \
         JOIN dims ON fact.k = dims.k GROUP BY fact.k\n\
         \x20 join=hash build=dims probe=fact strategy=partition \
         build_rows=1100 probe_rows=1200 build_distinct≈8 build_sorted=false\n\
         \x20 left=fact data_version=1 right=dims data_version=1\n\
         \x20 1. JoinBuild(dims[k] rows=1100 distinct≈8)\n\
         \x20 2. JoinProbe(fact[k] rows=1200)"
    );
}

/// A sharded side is sorted only if its key column is sorted in every
/// partition (registration cuts contiguous row ranges): a key sorted
/// over all rows reads `build_sorted=true`, one sorted in the first
/// partition only reads `false`, and both agree with the single
/// database.
#[test]
fn sharded_join_build_sortedness_agrees_with_the_single_database() {
    let ascending: Vec<u32> = (0..40).map(|i| i / 5).collect();
    let mut first_part_only = ascending.clone();
    first_part_only[10..].reverse();
    for (keys, sorted) in [(ascending, true), (first_part_only, false)] {
        let fact = Table::new("fact")
            .with_column("k", (0..48u32).map(|i| i % 8).collect())
            .with_column("v", (0..48u32).collect());
        let dims = Table::new("dims").with_column("k", keys);
        let sql = "EXPLAIN SELECT fact.k, COUNT(*), SUM(v) \
                   FROM fact JOIN dims ON fact.k = dims.k GROUP BY fact.k";
        let mut single = Database::new();
        single.register(fact.clone());
        single.register(dims.clone());
        let mut sharded = ShardedDatabase::new(4);
        sharded.register(fact);
        sharded.register(dims);
        for out in [single.explain_sql(sql), sharded.explain_sql(sql)] {
            let out = out.unwrap();
            let plan = out.join().expect("a JOIN statement plans a join");
            assert_eq!(plan.build_table(), "dims");
            assert_eq!(plan.build_sorted(), sorted, "{}", plan.explain());
        }
    }
}

#[test]
fn explain_golden_join_as_of_renders_the_pinned_cut() {
    let mut db = Database::new();
    db.register(orders());
    db.register(returns());
    db.run_sql("CREATE SNAPSHOT cut").unwrap();
    db.run_sql("INSERT INTO returns (region, penalty) VALUES (3, 6)")
        .unwrap();

    let plan = db
        .explain_sql(
            "EXPLAIN SELECT returns.region, COUNT(*), SUM(penalty) \
             FROM returns JOIN orders ON returns.region = orders.region \
             AS OF cut GROUP BY returns.region",
        )
        .unwrap();
    let plan = plan.join().expect("a JOIN statement plans a join");
    // The plan pins both tables at the named cut: the insert after the
    // snapshot is invisible.
    assert_eq!(plan.as_of(), Some("cut"));
    assert_eq!(plan.probe_rows(), 8);
    assert_eq!(plan.left_data_version(), 1);
    assert!(plan.explain().contains(" as_of=cut"));

    // Without AS OF, the same statement plans live: the build side is
    // the smaller table.
    let out = db
        .explain_sql(
            "EXPLAIN SELECT returns.region, COUNT(*), SUM(penalty) \
             FROM returns JOIN orders ON returns.region = orders.region \
             GROUP BY returns.region",
        )
        .unwrap();
    let join = out.join().expect("join SELECT yields a join plan");
    assert_eq!(join.build_table(), "orders");
    assert_eq!(join.probe_table(), "returns");
    assert!(out.explain().contains("join=hash"));
}

/// Normalizes an `EXPLAIN ANALYZE` rendering for golden comparison:
/// wall-clock diagnostics (`*_ns`) and simulated cycle totals are
/// replaced with `_` so the golden pins only the stable fields — the
/// step order, estimates, and observed row counts.
fn normalize_analyze(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split(' ')
                .map(|token| {
                    for key in ["cycles=", "queue_wait_ns=", "freeze_barrier_ns="] {
                        if let Some(rest) = token.strip_prefix(key) {
                            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                                return format!("{key}_");
                            }
                        }
                    }
                    token.to_string()
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn analyzed(db: &mut Database, sql: &str) -> vagg::db::AnalyzedQuery {
    match db.run_sql(sql).unwrap() {
        SqlOutcome::Analyzed(a) => *a,
        other => panic!("EXPLAIN ANALYZE returns a trace: {other:?}"),
    }
}

#[test]
fn explain_analyze_golden_full_tail() {
    let mut db = Database::new();
    db.register(orders());
    let a = analyzed(
        &mut db,
        "EXPLAIN ANALYZE SELECT region, quarter, COUNT(*), SUM(amount) \
         FROM orders WHERE status <> 0 GROUP BY region, quarter \
         HAVING COUNT(*) > 0 ORDER BY SUM(amount) DESC LIMIT 3",
    );
    assert_eq!(a.output.rows.len(), 3);
    assert_eq!(
        normalize_analyze(&a.explain()),
        "EXPLAIN ANALYZE SELECT region, quarter, COUNT(*), SUM(amount) \
         FROM orders WHERE status <> 0 GROUP BY region, quarter \
         HAVING COUNT(*) > 0 ORDER BY SUM(amount) DESC LIMIT 3\n\
         \x20 rows=3 cycles=_ morsels=0 steals=0 queue_wait_ns=_\n\
         \x20 1. FuseKeys(region×quarter) est≈6 rows=6→6 cycles=_ morsels=1\n\
         \x20 2. VectorFilter(status <> 0) est≈6 rows=6→4 cycles=_ morsels=1\n\
         \x20 3. CardinalityScan[exact](cardinality≈12) est≈? rows=4→4 cycles=_ morsels=1\n\
         \x20 4. Aggregate[mono] est≈12 rows=4→4 cycles=_ morsels=1\n\
         \x20 5. Having(COUNT(*) > 0) est≈? rows=4→4 cycles=_ morsels=1\n\
         \x20 6. OrderBy(SUM(amount) DESC) est≈? rows=4→4 cycles=_ morsels=1\n\
         \x20 7. Limit(3) est≈3 rows=4→3 cycles=_ morsels=1"
    );
}

#[test]
fn explain_analyze_golden_sharded_morsels() {
    let mut db = ShardedDatabase::new(4);
    db.register(
        Table::new("events")
            .with_column("g", (0..400u32).map(|i| i % 7).collect())
            .with_column("v", (0..400u32).map(|i| i % 10).collect()),
    );
    let out = db
        .run_sql("EXPLAIN ANALYZE SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g")
        .unwrap();
    let t = out.trace.as_deref().expect("EXPLAIN ANALYZE traces");
    let text = normalize_analyze(&t.explain());
    // Stable structure: 4 shards × 100 rows = one morsel each, the
    // distributive steps roll up across all 4. The groups leave the
    // aggregate at each worker's close: every shard holds all 7, so the
    // step reports 7 per worker that ran a morsel — 1 to 4 of them, as
    // the host threads happened to share the four — and the
    // coordinator's merge folds exactly those partials down to 7.
    assert!(text.contains("rows=7 cycles=_ morsels=4 steals="), "{text}");
    assert!(
        text.contains(
            "1. CardinalityScan[exact](cardinality≈7) est≈? rows=400→400 cycles=_ morsels=4"
        ),
        "{text}"
    );
    let closed = (1..=4)
        .map(|workers| 7 * workers)
        .find(|groups| {
            text.contains(&format!(
                "2. Aggregate[mono] est≈28 rows=400→{groups} cycles=_ morsels=4"
            ))
        })
        .unwrap_or_else(|| panic!("{text}"));
    assert!(
        text.contains(&format!(
            "3. MergePartials est≈? rows={closed}→7 cycles=_ morsels=1"
        )),
        "{text}"
    );
    assert!(text.contains("workers: 0:"), "{text}");
    // The dispatch rollup: all 4 morsels ran, none were zone-pruned
    // (the query has no WHERE to prune against).
    assert!(
        text.contains("morsels: dispatched=4 pruned=0 rows_pruned=0"),
        "{text}"
    );
    // Every morsel span is attributed and internally consistent.
    assert_eq!(t.morsels.len(), 4);
    assert!(t.morsels.iter().all(|m| m.hi - m.lo == 100));
}

#[test]
fn explain_analyze_golden_join() {
    let mut db = Database::new();
    db.register(orders());
    db.register(returns());
    let a = analyzed(
        &mut db,
        "EXPLAIN ANALYZE SELECT returns.region, COUNT(*), SUM(penalty) \
         FROM returns JOIN orders ON returns.region = orders.region \
         GROUP BY returns.region",
    );
    let text = normalize_analyze(&a.explain());
    // The join trace records build/probe actuals (6 build rows → 3
    // dictionary entries, 8 probe rows → 15 matched pairs) and the
    // freeze-barrier diagnostic.
    assert!(text.contains("dictionary: entries=3 hits="), "{text}");
    assert!(text.contains("freeze_barrier_ns=_"), "{text}");
    assert!(
        text.contains(
            "1. JoinBuild(orders[region] rows=6 distinct≈3) est≈3 rows=6→3 cycles=_ morsels=1"
        ),
        "{text}"
    );
    assert!(
        text.contains("2. JoinProbe(returns[region] rows=8) est≈8 rows=8→15 cycles=_ morsels=1"),
        "{text}"
    );
    assert!(
        text.contains("4. Aggregate[mono] est≈3 rows=15→3"),
        "{text}"
    );
}

#[test]
fn explain_analyze_as_of_and_prepared() {
    let mut db = Database::new();
    db.register(people());
    db.run_sql("CREATE SNAPSHOT launch").unwrap();
    db.run_sql("INSERT INTO r (g, v) VALUES (9, 9)").unwrap();

    // AS OF: the traced execution sees the pinned cut, not the insert.
    let a = analyzed(
        &mut db,
        "EXPLAIN ANALYZE SELECT g, COUNT(*), SUM(v) FROM r AS OF launch GROUP BY g",
    );
    assert_eq!(a.output.rows.len(), 6, "the snapshot misses group 9");
    assert!(
        normalize_analyze(&a.explain()).contains("rows=8→8"),
        "8-row cut"
    );

    // Prepared: `analyze` is `execute` plus the trace.
    let mut stmt = db
        .prepare("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g")
        .unwrap();
    let plain = stmt.execute(&mut db, &[2]).unwrap();
    let traced = stmt.analyze(&mut db, &[2]).unwrap();
    assert_eq!(traced.output.rows, plain.rows);
    let text = normalize_analyze(&traced.explain());
    assert!(text.contains("VectorFilter(v > 2)"), "{text}");
    assert!(text.contains("est≈"), "{text}");
    assert_eq!(stmt.executions(), 2);
}

#[test]
fn plan_steps_are_typed_and_inspectable() {
    let q = AggregateQuery::paper("g", "v")
        .with_filter("v", Predicate::GreaterThan(0))
        .with_order_by(OrderKey::Group, false);
    let plan = Engine::new().plan(&people(), &q).unwrap();
    assert!(matches!(
        plan.steps()[0],
        PlanStep::VectorFilter {
            pred: Predicate::GreaterThan(0),
            ..
        }
    ));
    assert!(plan
        .steps()
        .iter()
        .any(|s| matches!(s, PlanStep::CardinalityScan { .. })));
    assert!(plan
        .steps()
        .iter()
        .any(|s| matches!(s, PlanStep::Aggregate(_))));
    assert_eq!(plan.rows(), 8);
    assert_eq!(plan.cardinality_estimate(), 6);
}

#[test]
fn sql_errors_are_fully_typed() {
    let mut db = Database::new();
    db.register(people());

    // Planning errors arrive as typed PlanError values, not strings.
    let e = db
        .execute_sql("SELECT g, SUM(missing) FROM r GROUP BY g")
        .unwrap_err();
    assert_eq!(
        e,
        SqlError::Plan(PlanError::UnknownColumn("missing".into()))
    );

    let e = db
        .execute_sql("SELECT g, SUM(v) FROM r GROUP BY g HAVING AVG(v) > 1")
        .unwrap_err();
    assert_eq!(
        e,
        SqlError::Plan(PlanError::UnsupportedAvgPredicate { clause: "HAVING" })
    );

    let e = db
        .execute_sql("SELECT g, SUM(v) FROM nowhere GROUP BY g")
        .unwrap_err();
    assert_eq!(e, SqlError::UnknownTable("nowhere".into()));
}

#[test]
fn two_queries_on_one_session_reuse_the_machine() {
    let t = people();
    let engine = Engine::new();
    let p1 = engine.plan(&t, &AggregateQuery::paper("g", "v")).unwrap();
    let p2 = engine
        .plan(
            &t,
            &AggregateQuery::paper("g", "v").with_filter("v", Predicate::GreaterThan(0)),
        )
        .unwrap();

    let mut session = Session::new();
    let r1 = session.run(&p1);
    let r2 = session.run(&p2);

    assert_eq!(session.queries_run(), 2);
    // One machine, cumulative cycles, per-query deltas.
    assert_eq!(session.total_cycles(), r1.report.cycles + r2.report.cycles);
    assert_eq!(r1.rows.len(), 6);
    assert!(r2.rows.iter().all(|r| r.group != 1 || r.values[0] > 0.0));
}

#[test]
fn empty_filter_result_reports_skipped_aggregation() {
    let mut db = Database::new();
    db.register(people());
    let out = db
        .execute_sql("SELECT g, COUNT(*), SUM(v) FROM r WHERE v > 100 GROUP BY g")
        .unwrap();
    assert!(out.rows.is_empty());
    assert_eq!(out.report.algorithm, None);
    assert!(out.report.steps.contains(&PlanStep::AggregateSkipped));
}
