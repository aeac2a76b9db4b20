//! One write path: a statement changes the same things however it is
//! asked for.
//!
//! Every INSERT / DELETE / UPDATE — autocommit SQL, `append_rows`, a
//! `BEGIN … COMMIT` bracket, a replayed WAL record, a sharded
//! `insert_sql` / `mutate_sql` — goes through the one installer and the
//! one committer (ARCHITECTURE.md, "Write path"), so one generated
//! statement sequence applied through each entry point must agree
//! **after every statement** on the rows, the data version, the live
//! statistics (zone maps and sketches included), the delta fill and the
//! number of compactions — with a compaction policy tight enough that
//! compactions land mid-sequence. The predicate shapes are those of
//! `tests/durability.rs`, which stays the crash-recovery oracle; this
//! file is the twin of `tests/read_path.rs`. A one-shard
//! `ShardedDatabase`, in memory or durable, is the single database's
//! case of the same committer: it must reach the same state, and read
//! it back as the same rows at the same cycles.

use proptest::prelude::*;
use vagg::db::{
    CompactionPolicy, Database, RowBatch, ShardedDatabase, SharedCatalogue, SqlOutcome, Table,
    TableStats, TempDir,
};

#[derive(Debug, Clone)]
enum Stmt {
    /// `INSERT INTO t (g, v) VALUES ...`.
    Insert(Vec<(u32, u32)>),
    /// `DELETE FROM t WHERE <clause>`.
    Delete(String),
    /// `UPDATE t SET v = <n> WHERE <clause>`.
    Update(u32, String),
}

impl Stmt {
    fn sql(&self) -> String {
        match self {
            Stmt::Insert(rows) => {
                let values: Vec<String> = rows.iter().map(|(g, v)| format!("({g}, {v})")).collect();
                format!("INSERT INTO t (g, v) VALUES {}", values.join(", "))
            }
            Stmt::Delete(clause) => format!("DELETE FROM t WHERE {clause}"),
            Stmt::Update(v, clause) => format!("UPDATE t SET v = {v} WHERE {clause}"),
        }
    }
}

fn arb_where() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u32..8).prop_map(|k| format!("g > {k}")),
        (0u32..8).prop_map(|k| format!("g <> {k}")),
        (0u32..100).prop_map(|k| format!("v < {k}")),
        (0u32..100).prop_map(|k| format!("v > {k}")),
    ]
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        proptest::collection::vec((0u32..8, 0u32..100), 1..6).prop_map(Stmt::Insert),
        proptest::collection::vec((0u32..8, 0u32..100), 1..6).prop_map(Stmt::Insert),
        arb_where().prop_map(Stmt::Delete),
        (1u32..100, arb_where()).prop_map(|(v, w)| Stmt::Update(v, w)),
    ]
}

fn seed_table() -> Table {
    Table::new("t")
        .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
        .with_column("v", vec![0, 55, 22, 44, 11, 33, 73, 90])
}

/// Everything a write changes: the materialised rows, the data version,
/// the full statistics (zone maps and sketches included), the delta
/// fill, and compactions so far (`carried` holds those of sessions
/// already dropped).
type State = (Vec<(String, Vec<u32>)>, u64, TableStats, usize, u64);

fn state(db: &SharedCatalogue, carried: u64) -> State {
    let t = db.table("t").unwrap();
    let columns = t
        .column_names()
        .iter()
        .map(|c| (c.to_string(), t.column(c).unwrap().to_vec()))
        .collect();
    (
        columns,
        db.data_version("t").unwrap(),
        db.table_stats("t").unwrap(),
        db.delta_rows("t").unwrap(),
        carried + compactions(db),
    )
}

fn compactions(db: &SharedCatalogue) -> u64 {
    db.metrics().snapshot().get("compactions").unwrap()
}

/// One statement through the sharded entry points: `INSERT` routes,
/// `DELETE` / `UPDATE` run on every shard.
fn run_sharded(db: &mut ShardedDatabase, stmt: &Stmt) {
    match stmt {
        Stmt::Insert(_) => {
            db.insert_sql(&stmt.sql()).unwrap();
        }
        _ => {
            db.mutate_sql(&stmt.sql()).unwrap();
        }
    }
}

/// The read every database answers after every statement: the table
/// stays under one morsel, so every schedule runs it as one range.
const READ: &str = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g";

fn in_memory(every: usize) -> Database {
    let mut db = Database::new();
    db.catalogue()
        .set_compaction_policy(CompactionPolicy::every(every));
    db.register(seed_table());
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_entry_point_writes_the_same_state(
        stmts in proptest::collection::vec(arb_stmt(), 1..12),
        every in 2usize..9,
    ) {
        let policy = CompactionPolicy::every(every);
        let (mut sql, mut bulk, mut txn) = (in_memory(every), in_memory(every), in_memory(every));
        let mut sharded = ShardedDatabase::new(1);
        sharded.set_compaction_policy(policy);
        sharded.register(seed_table());
        let dir = TempDir::new("write-path");
        let mut durable_compactions = 0;
        {
            let mut db = Database::open(dir.path()).unwrap();
            db.register(seed_table());
        }
        let sharded_dir = TempDir::new("write-path-sharded");
        let mut sharded_compactions = 0;
        {
            let mut db = ShardedDatabase::open(sharded_dir.path(), 1).unwrap();
            db.register(seed_table());
        }
        for (i, stmt) in stmts.iter().enumerate() {
            // (a) autocommit SQL — the reference.
            sql.run_sql(&stmt.sql()).unwrap();
            let expect = state(sql.catalogue(), 0);

            // (b) the bulk API for inserts, SQL for mutations.
            match stmt {
                Stmt::Insert(rows) => {
                    let batch = RowBatch::new()
                        .with_column("g", rows.iter().map(|r| r.0).collect())
                        .with_column("v", rows.iter().map(|r| r.1).collect());
                    bulk.append_rows("t", batch).unwrap();
                }
                other => {
                    bulk.run_sql(&other.sql()).unwrap();
                }
            }
            prop_assert_eq!(&state(bulk.catalogue(), 0), &expect, "append_rows, statement {}", i);

            // (c) one transaction per statement.
            txn.run_sql("BEGIN").unwrap();
            prop_assert!(matches!(txn.run_sql(&stmt.sql()).unwrap(), SqlOutcome::Queued(1)));
            txn.run_sql("COMMIT").unwrap();
            prop_assert_eq!(&state(txn.catalogue(), 0), &expect, "BEGIN … COMMIT, statement {}", i);

            // (d) durable, dropped and replayed after every statement.
            {
                let mut db = Database::open(dir.path()).unwrap();
                db.catalogue().set_compaction_policy(policy);
                db.run_sql(&stmt.sql()).unwrap();
                prop_assert_eq!(
                    &state(db.catalogue(), durable_compactions), &expect, "durable, statement {}", i
                );
                durable_compactions += compactions(db.catalogue());
            }
            let reopened = Database::open(dir.path()).unwrap();
            prop_assert_eq!(
                &state(reopened.catalogue(), durable_compactions), &expect, "replayed, statement {}", i
            );

            // (e) one shard behind the sharded coordinator...
            run_sharded(&mut sharded, stmt);
            prop_assert_eq!(
                &state(sharded.shards()[0], 0), &expect, "sharded, statement {}", i
            );
            // ...which reads its state back as the reference does: the
            // same rows at the same cycles, or — once every row is
            // deleted — the same typed error.
            match (sql.execute_sql(READ), sharded.run_sql(READ)) {
                (Ok(single), Ok(one_shard)) => {
                    prop_assert_eq!(&one_shard.rows, &single.rows, "rows, statement {}", i);
                    prop_assert_eq!(
                        one_shard.report.cycles, single.report.cycles, "cycles, statement {}", i
                    );
                }
                (single, one_shard) => {
                    prop_assert_eq!(one_shard.err(), single.err(), "error, statement {}", i);
                }
            }

            // (f) one durable shard behind the coordinator's log, dropped
            // and replayed after every statement.
            {
                let mut db = ShardedDatabase::open(sharded_dir.path(), 1).unwrap();
                db.set_compaction_policy(policy);
                run_sharded(&mut db, stmt);
                let shard = db.shards()[0];
                prop_assert_eq!(
                    &state(shard, sharded_compactions), &expect, "durable sharded, statement {}", i
                );
                sharded_compactions += compactions(shard);
            }
            let reopened = ShardedDatabase::open(sharded_dir.path(), 1).unwrap();
            prop_assert_eq!(
                &state(reopened.shards()[0], sharded_compactions),
                &expect,
                "replayed sharded, statement {}",
                i
            );
        }
    }
}

/// Predicates resolve against the pre-commit state: a transaction's
/// DELETE does not see the same transaction's earlier INSERT — live and
/// after replay.
#[test]
fn a_transactions_delete_does_not_see_its_own_insert() {
    let dir = TempDir::new("write-path-own-insert");
    let mut db = Database::open(dir.path()).unwrap();
    db.register(seed_table());
    db.run_sql("BEGIN").unwrap();
    db.run_sql("INSERT INTO t (g, v) VALUES (9, 9)").unwrap();
    db.run_sql("DELETE FROM t WHERE g > 8").unwrap();
    db.run_sql("UPDATE t SET v = 1 WHERE g > 8").unwrap();
    db.run_sql("COMMIT").unwrap();
    let expect: Vec<u32> = vec![1, 3, 3, 0, 0, 5, 2, 4, 9];
    assert_eq!(db.table("t").unwrap().column("g").unwrap(), &expect[..]);
    assert_eq!(db.table("t").unwrap().column("v").unwrap()[8], 9);
    // Only the INSERT changed anything: one version bump.
    assert_eq!(db.data_version("t"), Some(2));
    drop(db);
    let mut db = Database::open(dir.path()).unwrap();
    assert_eq!(db.table("t").unwrap().column("g").unwrap(), &expect[..]);
    assert_eq!(db.data_version("t"), Some(2));
    // Once committed, the row is as deletable as any other.
    match db.run_sql("DELETE FROM t WHERE g > 8").unwrap() {
        SqlOutcome::Deleted(receipt) => assert_eq!((receipt.rows, receipt.data_version), (1, 3)),
        other => panic!("DELETE returns a receipt, got {other:?}"),
    }
}
