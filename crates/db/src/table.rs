//! The column-store table model.
//!
//! The paper "emulate\[s\] the behaviour of a column-oriented database
//! management system in which columns are stored contiguously as arrays in
//! memory" (§III-A). [`Table`] is that model: named `u32` columns of equal
//! length, with the per-column metadata a real DBMS keeps and the §V-D
//! policy plans from: the `sorted` flag the paper's algorithms consult
//! to skip sorting, and the maximum whose `max + 1` is the cardinality
//! estimate. Both are computed when a column is added, so every view a
//! plan reads carries them and nothing else keeps a copy.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Metadata for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Column name (unique within the table).
    pub name: String,
    /// DBMS metadata: the column is known to be sorted ascending.
    pub sorted: bool,
    /// The largest value (`None` for an empty column). The planner's
    /// cardinality estimate is `max + 1` — what the §III-A scan
    /// measures.
    pub max: Option<u32>,
}

/// An in-memory column-store table.
///
/// Column data is reference-counted (`Arc`), so planning a query
/// ([`crate::Engine::plan`]) snapshots the columns it needs into the
/// [`crate::QueryPlan`] without copying them.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: BTreeMap<String, (ColumnMeta, Arc<[u32]>)>,
    rows: usize,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Adds a column; the first column fixes the row count.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or the length disagrees with existing
    /// columns.
    pub fn with_column(mut self, name: impl Into<String>, data: Vec<u32>) -> Self {
        let name = name.into();
        assert!(
            !self.columns.contains_key(&name),
            "duplicate column {name:?}"
        );
        if self.columns.is_empty() {
            self.rows = data.len();
        } else {
            assert_eq!(data.len(), self.rows, "column {name:?} length mismatch");
        }
        let sorted = data.windows(2).all(|w| w[0] <= w[1]);
        // A sorted column's maximum is its last element.
        let max = match data.last() {
            Some(&last) if sorted => Some(last),
            Some(_) => Some(data.iter().fold(0, |m, &x| m.max(x))),
            None => None,
        };
        let meta = ColumnMeta {
            name: name.clone(),
            sorted,
            max,
        };
        self.columns.insert(name, (meta, Arc::from(data)));
        self
    }

    /// Looks up a column's data.
    pub fn column(&self, name: &str) -> Option<&[u32]> {
        self.columns.get(name).map(|(_, d)| &d[..])
    }

    /// Looks up a column as a shared (`Arc`) slice, for zero-copy
    /// snapshots into a [`crate::QueryPlan`].
    pub fn column_shared(&self, name: &str) -> Option<Arc<[u32]>> {
        self.columns.get(name).map(|(_, d)| Arc::clone(d))
    }

    /// Looks up a column's metadata.
    pub fn meta(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.get(name).map(|(m, _)| m)
    }

    /// All column names, sorted.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(String::as_str).collect()
    }

    /// Loads a table from CSV text: a header row of column names
    /// followed by rows of unsigned 32-bit integers. Empty lines are
    /// skipped; surrounding whitespace in cells is ignored. Column
    /// metadata (sortedness, maximum) is computed per column, as in
    /// [`Table::with_column`].
    ///
    /// ```
    /// use vagg_db::Table;
    ///
    /// # fn main() -> Result<(), vagg_db::ParseCsvError> {
    /// let t = Table::from_csv("people", "age,earnings\n46,24000\n39,11000")?;
    /// assert_eq!(t.rows(), 2);
    /// assert_eq!(t.column("age"), Some(&[46u32, 39][..]));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseCsvError`] on a missing header, duplicate column
    /// names, ragged rows, or cells that do not parse as `u32`.
    pub fn from_csv(name: impl Into<String>, csv: &str) -> Result<Table, ParseCsvError> {
        let mut lines = csv.lines().map(str::trim).filter(|l| !l.is_empty());
        let header = lines.next().ok_or(ParseCsvError::MissingHeader)?;
        let names: Vec<&str> = header.split(',').map(str::trim).collect();
        if names.iter().any(|n| n.is_empty()) {
            return Err(ParseCsvError::MissingHeader);
        }
        {
            let mut seen = names.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != names.len() {
                return Err(ParseCsvError::DuplicateColumn);
            }
        }
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); names.len()];
        for (row, line) in lines.enumerate() {
            let cells: Vec<&str> = line.split(',').map(str::trim).collect();
            if cells.len() != names.len() {
                return Err(ParseCsvError::RaggedRow {
                    row: row + 1,
                    cells: cells.len(),
                    expected: names.len(),
                });
            }
            for (col, cell) in cols.iter_mut().zip(cells) {
                col.push(cell.parse().map_err(|_| ParseCsvError::BadCell {
                    row: row + 1,
                    cell: cell.to_string(),
                })?);
            }
        }
        let mut t = Table::new(name);
        for (n, data) in names.into_iter().zip(cols) {
            t = t.with_column(n, data);
        }
        Ok(t)
    }
}

/// Why a CSV document failed to load (see [`Table::from_csv`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseCsvError {
    /// The document has no header row (or an empty column name).
    MissingHeader,
    /// Two header columns share a name.
    DuplicateColumn,
    /// A data row's cell count disagrees with the header.
    RaggedRow {
        /// 1-based data-row number.
        row: usize,
        /// Cells found.
        cells: usize,
        /// Cells expected (header width).
        expected: usize,
    },
    /// A cell is not an unsigned 32-bit integer.
    BadCell {
        /// 1-based data-row number.
        row: usize,
        /// The offending cell text.
        cell: String,
    },
}

impl std::fmt::Display for ParseCsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseCsvError::MissingHeader => {
                write!(f, "missing or invalid CSV header row")
            }
            ParseCsvError::DuplicateColumn => {
                write!(f, "duplicate column name in CSV header")
            }
            ParseCsvError::RaggedRow {
                row,
                cells,
                expected,
            } => write!(f, "row {row} has {cells} cells, header declares {expected}"),
            ParseCsvError::BadCell { row, cell } => {
                write!(f, "row {row}: cell {cell:?} is not a u32")
            }
        }
    }
}

impl std::error::Error for ParseCsvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_detects_sortedness() {
        let t = Table::new("r")
            .with_column("g", vec![5, 1, 3])
            .with_column("v", vec![1, 2, 3]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.width(), 2);
        assert!(!t.meta("g").unwrap().sorted);
        assert!(t.meta("v").unwrap().sorted);
        assert_eq!(t.meta("g").unwrap().max, Some(5));
        assert_eq!(t.meta("v").unwrap().max, Some(3));
        assert_eq!(t.column("g"), Some(&[5u32, 1, 3][..]));
        assert!(t.column("nope").is_none());
    }

    #[test]
    fn column_names_sorted() {
        let t = Table::new("r")
            .with_column("b", vec![1])
            .with_column("a", vec![2]);
        assert_eq!(t.column_names(), vec!["a", "b"]);
    }

    #[test]
    fn from_csv_happy_path() {
        let t = Table::from_csv(
            "people",
            "age, earnings\n46, 24000\n\n39, 11000\n58, 24000\n",
        )
        .unwrap();
        assert_eq!(t.name(), "people");
        assert_eq!(t.rows(), 3);
        assert_eq!(t.column("age"), Some(&[46u32, 39, 58][..]));
        assert_eq!(t.column("earnings"), Some(&[24000u32, 11000, 24000][..]));
        assert!(!t.meta("age").unwrap().sorted);
    }

    #[test]
    fn from_csv_detects_sorted_columns() {
        let t = Table::from_csv("r", "g,v\n1,9\n2,8\n3,7").unwrap();
        assert!(t.meta("g").unwrap().sorted);
        assert!(!t.meta("v").unwrap().sorted);
    }

    #[test]
    fn from_csv_errors() {
        assert_eq!(
            Table::from_csv("r", "").unwrap_err(),
            ParseCsvError::MissingHeader
        );
        assert_eq!(
            Table::from_csv("r", "a,a\n1,2").unwrap_err(),
            ParseCsvError::DuplicateColumn
        );
        assert_eq!(
            Table::from_csv("r", "a,b\n1").unwrap_err(),
            ParseCsvError::RaggedRow {
                row: 1,
                cells: 1,
                expected: 2
            }
        );
        assert_eq!(
            Table::from_csv("r", "a\nx").unwrap_err(),
            ParseCsvError::BadCell {
                row: 1,
                cell: "x".into()
            }
        );
        assert!(Table::from_csv("r", "a\n-1").is_err());
        // Errors display readably.
        let e = Table::from_csv("r", "a\nx").unwrap_err();
        assert!(e.to_string().contains("not a u32"));
    }

    #[test]
    fn from_csv_header_only_is_an_empty_table() {
        let t = Table::from_csv("r", "a,b").unwrap();
        assert_eq!(t.rows(), 0);
        assert_eq!(t.width(), 2);
        let meta = t.meta("a").unwrap();
        assert!(meta.sorted);
        assert_eq!(meta.max, None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = Table::new("r")
            .with_column("a", vec![1, 2])
            .with_column("b", vec![1]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        let _ = Table::new("r")
            .with_column("a", vec![1])
            .with_column("a", vec![2]);
    }
}
