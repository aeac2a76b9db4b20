//! The ingest API: row batches, typed ingest errors, compaction policy
//! and receipts — the front door of the write path.
//!
//! Rows enter the database either through SQL (`INSERT INTO t (cols)
//! VALUES (...)`, see [`crate::sql`]) or through the bulk
//! [`crate::Database::append_rows`] / [`crate::SharedCatalogue::append`]
//! API, both carrying a columnar [`RowBatch`]. The catalogue validates
//! the batch against the table schema (typed [`IngestError`]s), parks
//! the rows in the table's [`crate::delta::DeltaStore`], folds them
//! into the live [`crate::delta::TableStats`], bumps the table's *data*
//! version, and — when the [`CompactionPolicy`] threshold trips —
//! compacts the delta into a new base table. The returned
//! [`IngestReceipt`] reports what happened.

use std::error::Error;
use std::fmt;

/// A columnar batch of rows to append: equal-length value vectors for
/// (exactly) the target table's columns.
///
/// ```
/// use vagg_db::{Database, RowBatch, Table};
///
/// let mut db = Database::new();
/// db.register(
///     Table::new("r")
///         .with_column("g", vec![1, 2])
///         .with_column("v", vec![10, 20]),
/// );
/// let receipt = db.append_rows(
///     "r",
///     RowBatch::new()
///         .with_column("g", vec![3, 4])
///         .with_column("v", vec![30, 40]),
/// )?;
/// assert_eq!(receipt.rows, 2);
/// assert_eq!(db.table("r").unwrap().rows(), 4);
/// # Ok::<(), vagg_db::SqlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    columns: Vec<(String, Vec<u32>)>,
}

impl RowBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one column's values (builder style). Validation — unknown
    /// or missing columns, duplicate names, ragged lengths — happens
    /// against the target table's schema at append time, with typed
    /// [`IngestError`]s.
    pub fn with_column(mut self, name: impl Into<String>, values: Vec<u32>) -> Self {
        self.columns.push((name.into(), values));
        self
    }

    /// Builds a batch from row-major tuples (the `INSERT ... VALUES`
    /// shape): `columns` names the tuple positions, every row must have
    /// exactly `columns.len()` values.
    ///
    /// # Errors
    ///
    /// [`IngestError::TupleArity`] on the first row whose width
    /// disagrees with the column list — nothing is silently dropped or
    /// padded.
    pub fn from_rows(columns: &[String], rows: &[Vec<u32>]) -> Result<Self, IngestError> {
        let mut cols: Vec<(String, Vec<u32>)> = columns
            .iter()
            .map(|c| (c.clone(), Vec::with_capacity(rows.len())))
            .collect();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != columns.len() {
                return Err(IngestError::TupleArity {
                    row: i + 1,
                    expected: columns.len(),
                    got: row.len(),
                });
            }
            for (slot, &value) in cols.iter_mut().zip(row) {
                slot.1.push(value);
            }
        }
        Ok(Self { columns: cols })
    }

    /// Rows in the batch (the first column's length; ragged batches are
    /// rejected at append time).
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, v)| v.len())
    }

    /// Columns in the batch.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The columns in insertion order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&str, &[u32])> {
        self.columns.iter().map(|(n, v)| (n.as_str(), &v[..]))
    }

    /// Checks the batch against a table's column set: every table
    /// column present exactly once, no extras, all lengths equal.
    pub(crate) fn validate(&self, schema: &[&str]) -> Result<(), IngestError> {
        let rows = self.rows();
        let mut seen: Vec<&str> = Vec::with_capacity(self.columns.len());
        for (name, values) in self.columns() {
            if !schema.contains(&name) {
                return Err(IngestError::UnknownColumn(name.to_string()));
            }
            if seen.contains(&name) {
                return Err(IngestError::DuplicateColumn(name.to_string()));
            }
            if values.len() != rows {
                return Err(IngestError::RaggedBatch {
                    column: name.to_string(),
                    rows: values.len(),
                    expected: rows,
                });
            }
            seen.push(name);
        }
        for &col in schema {
            if !seen.contains(&col) {
                return Err(IngestError::MissingColumn(col.to_string()));
            }
        }
        Ok(())
    }
}

/// Why a [`RowBatch`] was rejected (see
/// [`crate::SharedCatalogue::append`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IngestError {
    /// The batch names a column the table does not have.
    UnknownColumn(String),
    /// A table column is absent from the batch (partial inserts are
    /// unsupported: the column store has no NULLs).
    MissingColumn(String),
    /// The batch names one column twice.
    DuplicateColumn(String),
    /// A column's value count disagrees with the rest of the batch.
    RaggedBatch {
        /// The offending column.
        column: String,
        /// Values that column carries.
        rows: usize,
        /// Values the other columns carry.
        expected: usize,
    },
    /// A row-major tuple ([`RowBatch::from_rows`]) whose width
    /// disagrees with the column list.
    TupleArity {
        /// 1-based row number.
        row: usize,
        /// Columns the batch names.
        expected: usize,
        /// Values the row carries.
        got: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownColumn(c) => {
                write!(f, "batch column {c:?} is not in the table")
            }
            IngestError::MissingColumn(c) => write!(
                f,
                "table column {c:?} is missing from the batch (no NULLs: \
                 every column must be supplied)"
            ),
            IngestError::DuplicateColumn(c) => {
                write!(f, "batch names column {c:?} twice")
            }
            IngestError::RaggedBatch {
                column,
                rows,
                expected,
            } => write!(
                f,
                "column {column:?} carries {rows} value(s), the batch \
                 expects {expected}"
            ),
            IngestError::TupleArity { row, expected, got } => write!(
                f,
                "row {row} has {got} value(s), the column list names \
                 {expected}"
            ),
        }
    }
}

impl Error for IngestError {}

/// When the catalogue merges a table's delta into its base. The delta
/// keeps appends O(batch) and reads pay one base++delta merge per data
/// version; compaction bounds that merge (and the delta's memory) by
/// folding the delta into a new immutable base and re-chunking the
/// zone maps over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact when the delta holds at least this many rows.
    pub max_delta_rows: usize,
    /// Compact when the delta reaches this fraction of the base row
    /// count (`1.0` = as large as the base).
    pub max_delta_fraction: f64,
}

impl Default for CompactionPolicy {
    /// Compact at 4096 delta rows, or when the delta grows as large as
    /// the base — whichever comes first.
    fn default() -> Self {
        Self {
            max_delta_rows: 4096,
            max_delta_fraction: 1.0,
        }
    }
}

impl CompactionPolicy {
    /// Never compact (deltas grow without bound; reads still merge).
    pub fn never() -> Self {
        Self {
            max_delta_rows: usize::MAX,
            max_delta_fraction: f64::INFINITY,
        }
    }

    /// Compact whenever the delta reaches `rows` rows.
    pub fn every(rows: usize) -> Self {
        Self {
            max_delta_rows: rows.max(1),
            max_delta_fraction: f64::INFINITY,
        }
    }

    /// Whether a table with `base_rows` base rows and `delta_rows`
    /// delta rows should compact now.
    pub fn should_compact(&self, base_rows: usize, delta_rows: usize) -> bool {
        delta_rows > 0
            && (delta_rows >= self.max_delta_rows
                || delta_rows as f64 >= self.max_delta_fraction * base_rows.max(1) as f64)
    }
}

/// What one append did (see [`crate::SharedCatalogue::append`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Rows appended by this batch.
    pub rows: usize,
    /// Rows in the delta after this append (0 right after compaction).
    pub delta_rows: usize,
    /// Whether this append tripped the [`CompactionPolicy`] and the
    /// delta was merged into a new base.
    pub compacted: bool,
    /// The table's data version after this append (bumped per
    /// non-empty batch; the schema/registration version is untouched).
    pub data_version: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_transposes() {
        let b = RowBatch::from_rows(
            &["g".to_string(), "v".to_string()],
            &[vec![1, 10], vec![2, 20], vec![3, 30]],
        )
        .unwrap();
        assert_eq!(b.rows(), 3);
        assert_eq!(b.width(), 2);
        let cols: Vec<(&str, &[u32])> = b.columns().collect();
        assert_eq!(cols[0], ("g", &[1u32, 2, 3][..]));
        assert_eq!(cols[1], ("v", &[10u32, 20, 30][..]));
    }

    #[test]
    fn from_rows_rejects_ragged_tuples_instead_of_dropping_values() {
        let e = RowBatch::from_rows(&["g".to_string()], &[vec![1, 2]]).unwrap_err();
        assert_eq!(
            e,
            IngestError::TupleArity {
                row: 1,
                expected: 1,
                got: 2
            }
        );
        let e = RowBatch::from_rows(&["g".to_string(), "v".to_string()], &[vec![1, 2], vec![3]])
            .unwrap_err();
        assert_eq!(
            e,
            IngestError::TupleArity {
                row: 2,
                expected: 2,
                got: 1
            }
        );
        assert!(e.to_string().contains("row 2"));
    }

    #[test]
    fn validate_catches_every_mismatch() {
        let schema = ["g", "v"];
        let ok = RowBatch::new()
            .with_column("v", vec![1])
            .with_column("g", vec![2]);
        assert_eq!(ok.validate(&schema), Ok(()));

        let unknown = RowBatch::new()
            .with_column("g", vec![1])
            .with_column("v", vec![1])
            .with_column("x", vec![1]);
        assert_eq!(
            unknown.validate(&schema),
            Err(IngestError::UnknownColumn("x".into()))
        );

        let missing = RowBatch::new().with_column("g", vec![1]);
        assert_eq!(
            missing.validate(&schema),
            Err(IngestError::MissingColumn("v".into()))
        );

        let dup = RowBatch::new()
            .with_column("g", vec![1])
            .with_column("g", vec![2]);
        assert_eq!(
            dup.validate(&schema),
            Err(IngestError::DuplicateColumn("g".into()))
        );

        let ragged = RowBatch::new()
            .with_column("g", vec![1, 2])
            .with_column("v", vec![1]);
        assert_eq!(
            ragged.validate(&schema),
            Err(IngestError::RaggedBatch {
                column: "v".into(),
                rows: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn errors_display_readably_and_implement_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<IngestError>();
        assert!(IngestError::MissingColumn("v".into())
            .to_string()
            .contains("NULL"));
        assert!(IngestError::RaggedBatch {
            column: "v".into(),
            rows: 1,
            expected: 2
        }
        .to_string()
        .contains("1 value(s)"));
    }

    #[test]
    fn compaction_policy_thresholds() {
        let p = CompactionPolicy::default();
        assert!(!p.should_compact(100, 0), "an empty delta never compacts");
        assert!(!p.should_compact(100, 99));
        assert!(p.should_compact(100, 100), "fraction 1.0 of the base");
        assert!(p.should_compact(1_000_000, 4096), "absolute threshold");
        assert!(!p.should_compact(1_000_000, 4095));

        assert!(!CompactionPolicy::never().should_compact(1, usize::MAX - 1));
        assert!(CompactionPolicy::every(3).should_compact(1_000_000, 3));
        assert!(!CompactionPolicy::every(3).should_compact(1_000_000, 2));
        // `every(0)` clamps to 1: compaction on every non-empty append.
        assert!(CompactionPolicy::every(0).should_compact(10, 1));
    }
}
