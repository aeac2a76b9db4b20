//! Crash recovery: replaying a validated write-ahead log into an empty
//! [`SharedCatalogue`].
//!
//! Replay goes through the live write path's own installer
//! ([`SharedCatalogue::install`], which range-checks the logged row ids
//! and applies them verbatim) — so version counters and statistics
//! come out identical to the pre-crash state, not merely equivalent.
//!
//! Two passes:
//!
//! 1. Collect the **committed set**: transaction ids with a commit
//!    record in this log, plus any ids the caller vouches for (the
//!    sharded coordinator's commit records live in a separate log).
//! 2. Apply records in LSN order, one install per Batch/Delete/Update
//!    record. Records of uncommitted transactions are skipped — an open
//!    transaction at crash time rolls back by omission. A committed
//!    transaction needs no grouping: its row ids were resolved against
//!    the state before it when it committed, and installing a list
//!    equals installing its ops one by one (nobody reads the catalogue
//!    while it is being recovered).
//!
//! The caller ([`crate::Database::open`]) disables compaction for the
//! duration: every compaction that happened live rewrote the log, so
//! no surviving record should re-trip one during replay.

use crate::catalogue::{NamedTables, RowSel, SharedCatalogue, WriteOp};
use crate::database::SqlError;
use crate::ingest::RowBatch;
use crate::table::Table;
use crate::wal::WalRecord;
use std::collections::BTreeSet;

/// Rebuilds `columns` into a [`Table`] named `name`.
fn table_from(name: &str, columns: &[(String, Vec<u32>)]) -> Table {
    let mut t = Table::new(name);
    for (column, values) in columns {
        t = t.with_column(column, values.clone());
    }
    t
}

/// Rebuilds `columns` into a [`RowBatch`].
fn batch_from(columns: &[(String, Vec<u32>)]) -> RowBatch {
    let mut b = RowBatch::new();
    for (column, values) in columns {
        b = b.with_column(column, values.clone());
    }
    b
}

/// The transaction ids this log commits: autocommit (0), every id with
/// a [`WalRecord::Commit`] record, and the caller-supplied extras (the
/// sharded coordinator's cross-shard commit set).
pub(crate) fn committed_set(
    records: &[(u64, WalRecord)],
    extra_committed: &BTreeSet<u64>,
) -> BTreeSet<u64> {
    let mut committed: BTreeSet<u64> = extra_committed.clone();
    committed.insert(crate::wal::AUTOCOMMIT);
    for (_, record) in records {
        if let WalRecord::Commit { txn } = record {
            committed.insert(*txn);
        }
    }
    committed
}

/// Replays a validated log into `catalogue` (normally empty — a
/// freshly opened database). See the [module docs](self) for the
/// ordering and atomicity rules.
pub(crate) fn replay(
    catalogue: &SharedCatalogue,
    records: &[(u64, WalRecord)],
    extra_committed: &BTreeSet<u64>,
) -> Result<(), SqlError> {
    let committed = committed_set(records, extra_committed);
    for (_, record) in records {
        if !committed.contains(&record.txn()) {
            continue; // Uncommitted at crash time: rolled back by omission.
        }
        let op = match record {
            WalRecord::Commit { .. } => continue,
            WalRecord::CreateSnapshot { name } => {
                catalogue.create_named(name)?;
                continue;
            }
            WalRecord::SnapshotImage { name, tables } => {
                let mut frozen = NamedTables::new();
                for (table, data_version, columns) in tables {
                    frozen.insert(table.clone(), (*data_version, table_from(table, columns)));
                }
                catalogue.install_named(name.clone(), frozen);
                continue;
            }
            WalRecord::Register {
                table,
                schema_version,
                data_version,
                columns,
                ..
            } => {
                catalogue.register_at(table_from(table, columns), *schema_version, *data_version);
                continue;
            }
            WalRecord::Batch { table, columns, .. } => WriteOp::Append {
                table: table.clone(),
                batch: batch_from(columns),
            },
            WalRecord::Delete { table, rows, .. } => WriteOp::Delete {
                table: table.clone(),
                rows: RowSel::Ids(rows.clone()),
            },
            WalRecord::Update {
                table, rows, sets, ..
            } => WriteOp::Update {
                table: table.clone(),
                rows: RowSel::Ids(rows.clone()),
                sets: sets.clone(),
            },
        };
        catalogue.install(&mut [op])?;
    }
    Ok(())
}
