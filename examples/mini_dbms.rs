//! Mini DBMS: the full stack as a database developer would consume it —
//! build a column-store table, issue SQL-shaped queries (selection +
//! GROUP BY aggregation, including the VGAmin/VGAmax extension), and read
//! the planner's EXPLAIN output alongside simulated costs.
//!
//! ```text
//! cargo run --release --example mini_dbms
//! ```

use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::db::{AggFn, AggregateQuery, Database, Engine, Predicate, Session, SqlOutcome, Table};

fn main() {
    // An orders table: region (16 values), quarter (4 values), status
    // (0 = cancelled), amount in euros.
    let n = 30_000usize;
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let region: Vec<u32> = (0..n).map(|_| rng.next_below(16) as u32).collect();
    let quarter: Vec<u32> = (0..n).map(|_| rng.next_below(4) as u32).collect();
    let status: Vec<u32> = (0..n).map(|_| (rng.next_below(10) != 0) as u32).collect();
    let amount: Vec<u32> = (0..n).map(|_| 5 + rng.next_below(495) as u32).collect();
    let orders = Table::new("orders")
        .with_column("region", region)
        .with_column("quarter", quarter)
        .with_column("status", status)
        .with_column("amount", amount);

    let engine = Engine::new();
    let mut session = Session::new();

    // Query 1: the paper's query shape, through the plan/execute split —
    // plan once, inspect the typed plan, then run it on the session.
    let q1 = AggregateQuery::paper("region", "amount");
    let plan = engine.plan(&orders, &q1).expect("plan q1");
    println!("EXPLAIN output:\n{}\n", plan.explain());
    let out = session.run(&plan);
    println!(
        "  {} groups, {} cycles ({:.2} CPT), algorithm: {}\n",
        out.rows.len(),
        out.report.cycles,
        out.report.cpt,
        out.report.algorithm.map(|a| a.name()).unwrap_or("skipped")
    );

    // Query 2: WHERE + MIN/MAX/AVG — exercises vectorised selection and
    // the VGAmin/VGAmax kernel, reusing the same session machine.
    let q2 = AggregateQuery::paper("region", "amount")
        .with_aggregate(AggFn::Min)
        .with_aggregate(AggFn::Max)
        .with_aggregate(AggFn::Avg)
        .with_filter("status", Predicate::NonZero);
    println!("Q2: {}", q2.sql("orders"));
    let plan2 = engine.plan(&orders, &q2).expect("plan q2");
    let out = session.run(&plan2);
    println!("  plan: {}", out.report.describe());
    println!(
        "  aggregated {} of {} rows in {} cycles ({:.2} CPT)",
        out.report.rows_aggregated,
        orders.rows(),
        out.report.cycles,
        out.report.cpt
    );
    println!(
        "\n{:>8} {:>8} {:>10} {:>6} {:>6} {:>8}",
        "region", "count", "sum", "min", "max", "avg"
    );
    for r in out.rows.iter().take(8) {
        println!(
            "{:>8} {:>8} {:>10} {:>6} {:>6} {:>8.1}",
            r.group, r.values[0], r.values[1], r.values[2], r.values[3], r.values[4]
        );
    }
    println!("  ... ({} rows total)", out.rows.len());
    println!(
        "  session so far: {} queries, {} cycles on one machine",
        session.queries_run(),
        session.total_cycles()
    );

    // Query 3: the same engine behind plain SQL text. The database owns
    // its own session, so consecutive statements also share a machine.
    let mut db = Database::new();
    db.register(orders);
    let sql = "SELECT region, COUNT(*), AVG(amount) FROM orders WHERE status <> 0 GROUP BY region";
    println!("\nQ3 (SQL): {sql}");
    let explained = db.explain_sql(sql).expect("explain q3");
    println!(
        "  EXPLAIN:\n    {}",
        explained.explain().replace('\n', "\n    ")
    );
    let out = db.execute_sql(sql).expect("execute q3");
    println!("  executed: {}", out.report.describe());
    for r in out.rows.iter().take(4) {
        println!(
            "  region {:>2}: {:>5} orders, avg €{:.2}",
            r.group, r.values[0], r.values[1]
        );
    }
    println!("  ... ({} rows total)", out.rows.len());

    // Query 4: the full tail — range WHERE (composed from max + ≠),
    // HAVING over a computed aggregate, and a top-k (ORDER BY ... DESC
    // LIMIT) — the tail runs host-side over the small output table.
    let sql = "SELECT region, COUNT(*), SUM(amount) FROM orders \
               WHERE amount > 400 GROUP BY region \
               HAVING COUNT(*) > 50 \
               ORDER BY SUM(amount) DESC LIMIT 5";
    println!("\nQ4 (top-5 regions by premium-order revenue): {sql}");
    let out = db.execute_sql(sql).expect("execute q4");
    println!("  plan: {}", out.report.describe());
    for (rank, r) in out.rows.iter().enumerate() {
        println!(
            "  #{} region {:>2}: {:>5} orders, €{:>8}",
            rank + 1,
            r.group,
            r.values[0],
            r.values[1]
        );
    }

    // Query 5: composite GROUP BY — the engine fuses (region, quarter)
    // into one key on the machine and decomposes it on readback.
    let sql = "SELECT region, quarter, COUNT(*), SUM(amount) FROM orders \
               GROUP BY region, quarter ORDER BY region LIMIT 8";
    println!("\nQ5 (revenue by region and quarter): {sql}");
    let out = db.execute_sql(sql).expect("execute q5");
    println!("  plan: {}", out.report.describe());
    for r in &out.rows {
        println!(
            "  region {:>2} Q{}: {:>5} orders, €{:>8}",
            r.group_parts[0],
            r.group_parts[1] + 1,
            r.values[0],
            r.values[1]
        );
    }

    // Query 6: EXPLAIN through SQL — a typed plan, nothing executed.
    let sql = "EXPLAIN SELECT region, COUNT(*), SUM(amount) FROM orders \
               WHERE amount > 250 GROUP BY region";
    println!("\nQ6 (SQL EXPLAIN): {sql}");
    if let SqlOutcome::Plan(plan) = db.run_sql(sql).expect("explain q6") {
        println!("    {}", plan.explain().replace('\n', "\n    "));
    }

    // And the error paths a user would hit — all typed.
    let bad =
        db.execute_sql("SELECT region, SUM(amount) FROM orders WHERE amount = 5 GROUP BY region");
    println!("\nQ7 (unsupported comparison): {}", bad.unwrap_err());
    let bad = db.execute_sql("SELECT region, SUM(nope) FROM orders GROUP BY region");
    println!("Q8 (typed plan error):      {}", bad.unwrap_err());
    println!(
        "\ndatabase session: {} queries on one machine, {} total cycles",
        db.session().queries_run(),
        db.session().total_cycles()
    );
}
