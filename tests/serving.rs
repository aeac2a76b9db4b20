//! Integration tests for the serving layer through the public facade:
//! counter-verified plan-cache hits, invalidation on re-registration,
//! prepared-statement bind errors, truly concurrent sessions over one
//! shared catalogue, and sharded-vs-single equivalence.

use vagg::db::{Database, PlanError, ShardedDatabase, SharedCatalogue, SqlError, Table};

fn events(n: usize) -> Table {
    Table::new("events")
        .with_column("g", (0..n).map(|i| ((i * 7919) % 31) as u32).collect())
        .with_column("v", (0..n).map(|i| ((i * 31) % 100) as u32).collect())
}

#[test]
fn repeated_query_shapes_hit_the_cache_counter_verified() {
    let mut db = Database::new();
    db.register(events(500));

    // Three literals, one shape: one miss, two hits.
    for threshold in [10, 50, 90] {
        db.execute_sql(&format!(
            "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > {threshold} GROUP BY g"
        ))
        .unwrap();
    }
    let stats = db.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one planning pass for the shape");
    assert_eq!(stats.hits, 2, "the other literals rebound the cached plan");

    // A structurally different query is a new shape.
    db.execute_sql("SELECT g, COUNT(*), SUM(v) FROM events WHERE v < 50 GROUP BY g")
        .unwrap();
    let stats = db.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 2));

    // And cached plans answer correctly: hit ≡ miss output.
    let cached = db
        .execute_sql("SELECT g, COUNT(*), SUM(v) FROM events WHERE v > 10 GROUP BY g")
        .unwrap();
    let mut fresh_db = Database::new();
    fresh_db.register(events(500));
    let fresh = fresh_db
        .execute_sql("SELECT g, COUNT(*), SUM(v) FROM events WHERE v > 10 GROUP BY g")
        .unwrap();
    assert_eq!(cached.rows, fresh.rows);
}

#[test]
fn re_registering_a_table_invalidates_its_plans() {
    let mut db = Database::new();
    db.register(events(100));
    let sql = "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g";
    let before = db.execute_sql(sql).unwrap();
    assert!(!before.rows.is_empty());

    // Replace the table: different groups entirely.
    db.register(
        Table::new("events")
            .with_column("g", vec![500, 500])
            .with_column("v", vec![1, 2]),
    );
    let after = db.execute_sql(sql).unwrap();
    assert_eq!(after.rows.len(), 1, "served from the new table");
    assert_eq!(after.rows[0].group, 500);
    assert_eq!(after.rows[0].values, vec![2.0, 3.0]);

    let stats = db.plan_cache_stats();
    assert_eq!(stats.invalidations, 1, "the stale plan was purged");
    assert_eq!(stats.hits, 0, "it never served after the re-register");
}

#[test]
fn bind_errors_are_typed_plan_errors() {
    let mut db = Database::new();
    db.register(events(50));
    let mut stmt = db
        .prepare("SELECT g, SUM(v) FROM events WHERE v > ? GROUP BY g")
        .unwrap();

    let e = stmt.execute(&mut db, &[]).unwrap_err();
    assert_eq!(
        e,
        SqlError::Plan(PlanError::BindArity {
            expected: 1,
            got: 0
        })
    );
    let e = stmt.execute(&mut db, &[1, 2, 3]).unwrap_err();
    assert_eq!(
        e,
        SqlError::Plan(PlanError::BindArity {
            expected: 1,
            got: 3
        })
    );
    let e = stmt.execute(&mut db, &[1 << 40]).unwrap_err();
    assert_eq!(
        e,
        SqlError::Plan(PlanError::BindType {
            index: 0,
            value: 1 << 40
        })
    );
    assert!(e.to_string().contains("32-bit"));
    // The statement survives failed binds.
    let out = stmt.execute(&mut db, &[42]).unwrap();
    let fresh = db
        .execute_sql("SELECT g, SUM(v) FROM events WHERE v > 42 GROUP BY g")
        .unwrap();
    assert_eq!(out.rows, fresh.rows);
    assert!(!out.rows.is_empty());
}

#[test]
fn concurrent_sessions_serve_from_one_catalogue() {
    let catalogue = SharedCatalogue::new();
    catalogue.register(events(600));
    let sql = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v <> 0 GROUP BY g";

    // Warm the shared cache so every thread's query is a hit.
    let expected = catalogue.connect().execute_sql(sql).unwrap().rows;
    let warm_stats = catalogue.cache_stats();
    assert_eq!((warm_stats.hits, warm_stats.misses), (0, 1));

    const SESSIONS: usize = 4;
    const QUERIES_PER_SESSION: usize = 3;
    std::thread::scope(|scope| {
        for _ in 0..SESSIONS {
            let mut session = catalogue.connect();
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..QUERIES_PER_SESSION {
                    let out = session.execute_sql(sql).unwrap();
                    assert_eq!(&out.rows, expected);
                }
                assert_eq!(session.session().queries_run(), QUERIES_PER_SESSION);
            });
        }
    });

    let stats = catalogue.cache_stats();
    assert_eq!(
        stats.hits as usize,
        SESSIONS * QUERIES_PER_SESSION,
        "every concurrent query was served from the shared plan cache"
    );
    assert_eq!(stats.misses, 1);
}

#[test]
fn sharded_sessions_match_a_single_session_for_every_aggregate() {
    let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM events \
               WHERE v > 5 GROUP BY g";
    let mut single = Database::new();
    single.register(events(1200));
    let expect = single.execute_sql(sql).unwrap();

    for sessions in [1, 2, 4, 8] {
        let mut sharded = ShardedDatabase::new(sessions);
        sharded.register(events(1200));
        let out = sharded.run_sql(sql).unwrap();
        assert_eq!(out.rows, expect.rows, "{sessions} sessions");
        assert_eq!(out.report.rows_aggregated, expect.report.rows_aggregated);
        // The makespan is the busiest worker — here one shard's one
        // morsel and the open and close of that worker's aggregate —
        // not the sum.
        let max = out.shard_reports.iter().map(|r| r.cycles).max().unwrap();
        let sum: u64 = out.shard_reports.iter().map(|r| r.cycles).sum();
        assert_eq!(out.report.cycles, *out.worker_loads.iter().max().unwrap());
        assert!(out.report.cycles > max, "{sessions} sessions");
        if sessions > 1 {
            assert!(out.report.cycles < sum, "{sessions} sessions");
        }
    }
}

#[test]
fn prepared_statements_work_across_concurrent_sessions() {
    // Each session owns its statement; the catalogue (tables + plan
    // cache) is shared. All sessions must agree.
    let catalogue = SharedCatalogue::new();
    catalogue.register(events(400));
    let sql = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v < ? GROUP BY g";

    let baseline = {
        let mut db = catalogue.connect();
        let mut stmt = db.prepare(sql).unwrap();
        stmt.execute(&mut db, &[60]).unwrap().rows
    };
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let mut db = catalogue.connect();
            let baseline = &baseline;
            scope.spawn(move || {
                let mut stmt = db.prepare(sql).unwrap();
                for _ in 0..2 {
                    assert_eq!(&stmt.execute(&mut db, &[60]).unwrap().rows, baseline);
                }
            });
        }
    });
    // Five sessions, ten executions, one plan: the first prepare's.
    assert_eq!(catalogue.cache_stats().misses, 1);
}
