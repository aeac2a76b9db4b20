//! TPC-H-flavoured pricing summary — the workload the paper's
//! introduction motivates ("In the TPC-H decision support benchmark,
//! aggregations can dominate eight of the twenty-two queries").
//!
//! Builds a scaled-down `lineitem` table in the column-store and runs a
//! Q1-shaped pricing summary (`GROUP BY returnflag`, aggregates over
//! quantity/price) plus a Q5-shaped per-nation revenue rollup, both as
//! SQL, and shows what the adaptive planner does with each: `returnflag`
//! has cardinality 3 (deep `low` division → monotable), while `suppkey`
//! sits in the tens of thousands (PSM territory when unsorted).
//!
//! Then it joins: a Q3-shaped `lineitem ⋈ orders` revenue rollup per
//! order priority, with `EXPLAIN` showing the §V-D build-side choice on
//! one session (hash-build the smaller `orders`) and the exchange
//! strategy the same statement picks on a sharded database (the build
//! side outgrows the broadcast threshold → partition both sides).
//!
//! ```text
//! cargo run --release --example tpch_pricing
//! ```

use vagg::datagen::rng::Xoshiro256StarStar;
use vagg::db::{Database, ShardedDatabase, Table};

fn main() {
    let n = 60_000usize;
    let n_orders = 20_000usize;
    let mut rng = Xoshiro256StarStar::seed_from_u64(22);

    // lineitem: returnflag ∈ {0, 1, 2} (A/N/R), linestatus ∈ {0, 1},
    // quantity ∈ [1, 50], extendedprice ∈ [100, 10_000), suppkey with a
    // high-normal cardinality, orderkey referencing `orders` (~3
    // lineitems per order, as in TPC-H).
    let returnflag: Vec<u32> = (0..n).map(|_| rng.next_below(3) as u32).collect();
    let linestatus: Vec<u32> = (0..n).map(|_| rng.next_below(2) as u32).collect();
    let quantity: Vec<u32> = (0..n).map(|_| 1 + rng.next_below(50) as u32).collect();
    let extendedprice: Vec<u32> = (0..n).map(|_| 100 + rng.next_below(9_900) as u32).collect();
    let suppkey: Vec<u32> = (0..n).map(|_| rng.next_below(40_000) as u32).collect();
    let orderkey: Vec<u32> = (0..n)
        .map(|_| rng.next_below(n_orders as u64) as u32)
        .collect();

    // orders: dense sorted orderkey, orderpriority ∈ {0..4}.
    let o_priority: Vec<u32> = (0..n_orders).map(|_| rng.next_below(5) as u32).collect();

    let lineitem = Table::new("lineitem")
        .with_column("returnflag", returnflag)
        .with_column("linestatus", linestatus)
        .with_column("quantity", quantity)
        .with_column("extendedprice", extendedprice)
        .with_column("suppkey", suppkey)
        .with_column("orderkey", orderkey);
    let orders = Table::new("orders")
        .with_column("orderkey", (0..n_orders as u32).collect())
        .with_column("orderpriority", o_priority);

    let mut db = Database::new();
    db.register(lineitem.clone());
    db.register(orders.clone());

    // Q1-shaped pricing summary: one statement per aggregate column (the
    // engine aggregates one value column per pass, as the paper's
    // struct-of-arrays model encourages).
    println!("== Q1-shaped pricing summary ==");
    for sql in [
        "SELECT returnflag, COUNT(*), SUM(quantity), AVG(quantity) \
         FROM lineitem GROUP BY returnflag",
        "SELECT returnflag, SUM(extendedprice), AVG(extendedprice) \
         FROM lineitem GROUP BY returnflag",
    ] {
        let out = db.execute_sql(sql).expect("q1 executes");
        println!("{sql}");
        println!(
            "  plan: {}   ({} cycles, {:.2} CPT)",
            out.report.describe(),
            out.report.cycles,
            out.report.cpt
        );
        for r in &out.rows {
            let cells: Vec<String> = r.values.iter().map(|v| format!("{v:.1}")).collect();
            println!("  flag {}: {}", r.group, cells.join(", "));
        }
    }

    // Q5-shaped revenue rollup over a *high-cardinality* key: watch the
    // planner switch to partially sorted monotable.
    println!("\n== Q5-shaped per-supplier revenue (cardinality ~40,000) ==");
    let sql = "SELECT suppkey, COUNT(*), SUM(extendedprice) \
               FROM lineitem WHERE linestatus <> 0 GROUP BY suppkey";
    let out = db.execute_sql(sql).expect("q5 executes");
    println!("{sql}");
    println!(
        "  plan: {}   ({} of {} rows aggregated, {:.2} CPT)",
        out.report.describe(),
        out.report.rows_aggregated,
        n,
        out.report.cpt
    );
    println!(
        "  {} supplier groups; first: supp {} count {} revenue {}",
        out.rows.len(),
        out.rows[0].group,
        out.rows[0].values[0],
        out.rows[0].values[1],
    );

    // Q3-shaped join: revenue per order priority for open lineitems.
    // The planner hash-builds the smaller `orders` side and streams
    // `lineitem` through it as probe morsels.
    println!("\n== Q3-shaped lineitem ⋈ orders revenue per priority ==");
    let join_sql = "SELECT orderpriority, COUNT(*), SUM(extendedprice) \
                    FROM lineitem JOIN orders ON lineitem.orderkey = orders.orderkey \
                    WHERE linestatus <> 0 GROUP BY orderpriority \
                    ORDER BY SUM(extendedprice) DESC";
    let plan = db.explain_sql(join_sql).expect("join plans");
    println!("{}", plan.explain());
    let out = match db.run_sql(join_sql).expect("join executes") {
        vagg::db::SqlOutcome::Rows(out) => out,
        other => unreachable!("SELECT returns rows: {other:?}"),
    };
    for r in &out.rows {
        println!(
            "  priority {}: {} lineitems, revenue {}",
            r.group, r.values[0], r.values[1]
        );
    }

    // The same statement on a sharded database: 20,000 build rows beat
    // the broadcast threshold, so both sides partition by orderkey.
    let mut sharded = ShardedDatabase::new(4);
    sharded.register(lineitem);
    sharded.register(orders);
    let plan = sharded.explain_sql(join_sql).expect("join plans");
    let plan = plan.join().expect("a JOIN statement plans a join");
    println!("\n  4 shards → strategy={}", plan.strategy());
    let merged = sharded.run_sql(join_sql).expect("sharded join executes");
    assert_eq!(merged.rows, out.rows, "sharded join is bit-identical");
    println!(
        "  merged {} priority groups across 4 shards — identical rows",
        merged.rows.len()
    );

    println!(
        "\nThe same adaptive policy (§V-D) served all three: cardinality 3 \
         stayed on the\nVGAsum monotable; cardinality ~40,000 triggered the \
         single-pass VSR partial\nsort before aggregating; the join built \
         the smaller orders side and picked\nits exchange strategy from the \
         same live statistics."
    );
}
