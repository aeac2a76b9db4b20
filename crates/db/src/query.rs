//! The query model: a `GROUP BY` aggregation with optional selection,
//! i.e. the query family the paper's evaluation covers (Figure 2) plus
//! the VGAmin/VGAmax extension.

use crate::filter::Predicate;

/// An aggregate function over the value column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// `COUNT(*)`.
    Count,
    /// `SUM(v)`.
    Sum,
    /// `MIN(v)` (uses `VGAmin`).
    Min,
    /// `MAX(v)` (uses `VGAmax`).
    Max,
    /// `AVG(v)` = SUM/COUNT, computed on readback.
    Avg,
}

impl AggFn {
    /// SQL spelling.
    pub fn sql(self, value_col: &str) -> String {
        match self {
            AggFn::Count => "COUNT(*)".into(),
            AggFn::Sum => format!("SUM({value_col})"),
            AggFn::Min => format!("MIN({value_col})"),
            AggFn::Max => format!("MAX({value_col})"),
            AggFn::Avg => format!("AVG({value_col})"),
        }
    }

    /// Whether this aggregate needs the MIN/MAX (VGAmin/VGAmax) kernel.
    pub fn needs_minmax(self) -> bool {
        matches!(self, AggFn::Min | AggFn::Max)
    }
}

/// A `HAVING` clause: a predicate over one computed aggregate.
///
/// `AVG` is excluded (it is an `f64` computed on readback; the tail
/// filters the integral aggregate columns) — the engine rejects it at
/// plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Having {
    /// The aggregate the predicate inspects.
    pub agg: AggFn,
    /// The comparison (same vocabulary as WHERE — the ISA limit).
    pub pred: Predicate,
}

/// The sort key of an `ORDER BY` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKey {
    /// Order by the group key (the engine's natural output order).
    Group,
    /// Order by a computed aggregate (again excluding `AVG`).
    Agg(AggFn),
}

/// An `ORDER BY <key> [ASC|DESC] [LIMIT k]` clause, executed as a
/// stable host-side sort of the (small) merged output table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderBy {
    /// What to sort on.
    pub key: OrderKey,
    /// Descending order (sorts on the complement key).
    pub desc: bool,
    /// Keep only the first `k` rows after sorting.
    pub limit: Option<usize>,
}

/// `SELECT g, <aggs...> FROM t [WHERE pred(w)] GROUP BY g
/// [HAVING pred(agg)] [ORDER BY key [DESC] [LIMIT k]]`.
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// Grouping column name.
    pub group_by: String,
    /// Further grouping columns for composite (multi-column) GROUP BY.
    ///
    /// The engine fuses the columns into one key per row on the vector
    /// machine (`key = ((g₀·d₁) + g₁)·d₂ + g₂ ...` where `dᵢ` is column
    /// `i`'s key domain) and decomposes the keys on readback, so any
    /// aggregation algorithm runs unchanged. Empty for the paper's
    /// single-column query.
    pub group_by_rest: Vec<String>,
    /// Value column name.
    pub value: String,
    /// Selected aggregates (at least one).
    pub aggregates: Vec<AggFn>,
    /// Optional selection `(column, predicate)` applied before grouping.
    pub filter: Option<(String, Predicate)>,
    /// Optional post-aggregation selection.
    pub having: Option<Having>,
    /// Optional output ordering / truncation.
    pub order_by: Option<OrderBy>,
}

impl AggregateQuery {
    /// `SELECT g, COUNT(*), SUM(v) FROM ... GROUP BY g` — the paper's
    /// query (Figure 2).
    pub fn paper(group_by: impl Into<String>, value: impl Into<String>) -> Self {
        Self {
            group_by: group_by.into(),
            group_by_rest: Vec::new(),
            value: value.into(),
            aggregates: vec![AggFn::Count, AggFn::Sum],
            filter: None,
            having: None,
            order_by: None,
        }
    }

    /// Adds a further grouping column (composite GROUP BY).
    pub fn with_group_by_also(mut self, column: impl Into<String>) -> Self {
        self.group_by_rest.push(column.into());
        self
    }

    /// All grouping columns in order (primary first).
    pub fn group_columns(&self) -> Vec<&str> {
        std::iter::once(self.group_by.as_str())
            .chain(self.group_by_rest.iter().map(|s| s.as_str()))
            .collect()
    }

    /// Adds an aggregate.
    pub fn with_aggregate(mut self, agg: AggFn) -> Self {
        if !self.aggregates.contains(&agg) {
            self.aggregates.push(agg);
        }
        self
    }

    /// Adds a WHERE clause.
    pub fn with_filter(mut self, column: impl Into<String>, pred: Predicate) -> Self {
        self.filter = Some((column.into(), pred));
        self
    }

    /// Adds a HAVING clause. The aggregate is added to the SELECT list if
    /// absent (SQL would allow filtering on an unselected aggregate; this
    /// engine materialises it either way).
    pub fn with_having(mut self, agg: AggFn, pred: Predicate) -> Self {
        self.having = Some(Having { agg, pred });
        self.with_aggregate(agg)
    }

    /// Adds an ORDER BY clause.
    pub fn with_order_by(mut self, key: OrderKey, desc: bool) -> Self {
        self.order_by = Some(OrderBy {
            key,
            desc,
            limit: None,
        });
        if let OrderKey::Agg(a) = key {
            return self.with_aggregate(a);
        }
        self
    }

    /// Adds or updates a LIMIT (requires an ORDER BY; defaults to
    /// ascending group order when none was set).
    pub fn with_limit(mut self, k: usize) -> Self {
        let ob = self.order_by.get_or_insert(OrderBy {
            key: OrderKey::Group,
            desc: false,
            limit: None,
        });
        ob.limit = Some(k);
        self
    }

    /// Whether execution needs the extended VGAmin/VGAmax kernel.
    pub fn needs_minmax(&self) -> bool {
        self.aggregates.iter().any(|a| a.needs_minmax())
    }

    /// Renders the query as SQL (for EXPLAIN output).
    pub fn sql(&self, table: &str) -> String {
        let aggs: Vec<String> = self.aggregates.iter().map(|a| a.sql(&self.value)).collect();
        let group_list = self.group_columns().join(", ");
        let mut s = format!("SELECT {group_list}, {} FROM {table}", aggs.join(", "));
        if let Some((col, pred)) = &self.filter {
            s += &format!(" WHERE {col} {}", pred.sql());
        }
        s += &format!(" GROUP BY {}", self.group_columns().join(", "));
        if let Some(h) = &self.having {
            s += &format!(" HAVING {} {}", h.agg.sql(&self.value), h.pred.sql());
        }
        if let Some(ob) = &self.order_by {
            let key = match ob.key {
                OrderKey::Group => self.group_by.clone(),
                OrderKey::Agg(a) => a.sql(&self.value),
            };
            s += &format!(" ORDER BY {key}");
            if ob.desc {
                s += " DESC";
            }
            if let Some(k) = ob.limit {
                s += &format!(" LIMIT {k}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_query_sql() {
        let q = AggregateQuery::paper("g", "v");
        assert_eq!(q.sql("r"), "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g");
        assert!(!q.needs_minmax());
    }

    #[test]
    fn extended_query_sql() {
        let q = AggregateQuery::paper("g", "v")
            .with_aggregate(AggFn::Min)
            .with_aggregate(AggFn::Max)
            .with_aggregate(AggFn::Avg)
            .with_filter("w", Predicate::NotEqual(9));
        assert_eq!(
            q.sql("r"),
            "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) \
             FROM r WHERE w <> 9 GROUP BY g"
        );
        assert!(q.needs_minmax());
    }

    #[test]
    fn composite_group_by_sql() {
        let q = AggregateQuery::paper("a", "v").with_group_by_also("b");
        assert_eq!(
            q.sql("r"),
            "SELECT a, b, COUNT(*), SUM(v) FROM r GROUP BY a, b"
        );
        assert_eq!(q.group_columns(), vec!["a", "b"]);
    }

    #[test]
    fn with_aggregate_dedups() {
        let q = AggregateQuery::paper("g", "v").with_aggregate(AggFn::Sum);
        assert_eq!(q.aggregates.len(), 2);
    }
}
