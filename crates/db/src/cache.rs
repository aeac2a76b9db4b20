//! The plan cache: reusing planning work across queries of one *shape*.
//!
//! Planning a query costs a host-side statistics pass over the grouping
//! column (the §III-A metadata scan, mirrored at plan time) — wasted
//! work when traffic repeats the same query shape with different
//! literals. A [`PlanCache`] keys plans by normalized [`QueryShape`]
//! (table + schema version + column set + filter *structure* +
//! aggregate kinds — every literal constant masked to `?`), so
//! `WHERE v > 10` and `WHERE v > 99` share one entry: on a hit the
//! cached plan is [rebound](crate::QueryPlan) to the incoming literals,
//! which is sound because plan-time statistics are taken over the
//! unfiltered table and no literal feeds the §V-D algorithm choice.
//!
//! The cache is LRU-evicting and counts hits, misses, evictions and
//! invalidations. Two kinds of staleness exist:
//!
//! * **schema change** (re-registration) bumps the version inside the
//!   shape key and purges the table's entries outright;
//! * **data change** (any write) bumps the table's *data version*. An
//!   entry serves exactly the data version it was planned at: a lookup
//!   at any other version is a miss, the catalogue plans afresh, and a
//!   plan made at the table's current versions replaces the entry.

use crate::plan::QueryPlan;
use crate::query::{AggregateQuery, OrderKey};
use std::collections::HashMap;
use std::fmt;

/// The normalized shape of a query against one catalogue state: table
/// name, the table's registration version, and the query with every
/// literal constant masked to `?`.
///
/// Two queries with equal shapes are served by one plan modulo
/// rebinding the constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryShape(String);

impl QueryShape {
    /// Computes the shape key for `query` against `table` at catalogue
    /// `version`.
    pub fn of(table: &str, version: u64, query: &AggregateQuery) -> Self {
        use fmt::Write as _;
        let group_list = query.group_columns().join(", ");
        let aggs: Vec<String> = query
            .aggregates
            .iter()
            .map(|a| a.sql(&query.value))
            .collect();
        let mut s = format!(
            "{table}#v{version}: SELECT {group_list}, {}",
            aggs.join(", ")
        );
        if let Some((col, pred)) = &query.filter {
            let _ = write!(s, " WHERE {col} {}", masked(pred.sql()));
        }
        let _ = write!(s, " GROUP BY {group_list}");
        if let Some(h) = &query.having {
            let _ = write!(
                s,
                " HAVING {} {}",
                h.agg.sql(&query.value),
                masked(h.pred.sql())
            );
        }
        if let Some(ob) = &query.order_by {
            let key = match ob.key {
                OrderKey::Group => query.group_by.clone(),
                OrderKey::Agg(a) => a.sql(&query.value),
            };
            let _ = write!(s, " ORDER BY {key}");
            if ob.desc {
                s += " DESC";
            }
            if ob.limit.is_some() {
                s += " LIMIT ?";
            }
        }
        QueryShape(s)
    }
}

impl fmt::Display for QueryShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Masks the constant of a rendered comparison (`"<> 3"` → `"<> ?"`),
/// collapsing `NonZero` and `NotEqual` into one structural family.
fn masked(pred_sql: String) -> String {
    match pred_sql.split_once(' ') {
        Some((op, _)) => format!("{op} ?"),
        None => pred_sql,
    }
}

/// Hit/miss accounting for a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (after rebinding constants): an
    /// entry planned at the caller's data version.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
    /// Entries purged because their table was re-registered (see
    /// [`PlanCache::invalidate_table`]). A write only moves the data
    /// version: the next lookup misses and its plan replaces the entry.
    pub invalidations: u64,
}

impl CacheStats {
    /// Folds these counters into a [`crate::MetricsSnapshot`] under
    /// `plan_cache_*` names — the plan cache's contribution to the
    /// unified registry view.
    pub(crate) fn export_into(&self, snap: &mut crate::metrics::MetricsSnapshot) {
        snap.add("plan_cache_hits", self.hits);
        snap.add("plan_cache_misses", self.misses);
        snap.add("plan_cache_evictions", self.evictions);
        snap.add("plan_cache_invalidations", self.invalidations);
    }
}

struct Entry {
    plan: QueryPlan,
    table: String,
    data_version: u64,
    last_used: u64,
}

/// An LRU cache of [`QueryPlan`]s keyed by [`QueryShape`].
///
/// The cache itself is a passive map — [`crate::SharedCatalogue`] wires
/// it into planning (shape computation, rebinding) and invalidation
/// (on table re-registration).
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<QueryShape, Entry>,
    stats: CacheStats,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PlanCache {
    /// Plan shapes retained by default. Shapes are whole query
    /// templates, so even heavy dashboards rarely exceed a few dozen.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// An empty cache retaining at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Cached plans currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running hit/miss/eviction/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a shape at the caller's `data_version`: an entry
    /// planned at exactly that version is a counted hit (recency
    /// refreshed); anything else is `None`, with nothing counted.
    /// Counting the miss is [`PlanCache::insert`]'s (or
    /// [`PlanCache::note_miss`]'s) job, so a lookup that the caller
    /// resolves by planning is charged exactly once.
    pub fn lookup(&mut self, shape: &QueryShape, data_version: u64) -> Option<QueryPlan> {
        self.tick += 1;
        let e = self
            .entries
            .get_mut(shape)
            .filter(|e| e.data_version == data_version)?;
        e.last_used = self.tick;
        self.stats.hits += 1;
        Some(e.plan.clone())
    }

    /// Inserts a freshly planned shape at `data_version`, counting the
    /// miss that caused it. The plan replaces the shape's entry at any
    /// other version; a new shape evicts the least-recently-used entry
    /// when full.
    pub fn insert(&mut self, shape: QueryShape, plan: QueryPlan, data_version: u64) {
        self.stats.misses += 1;
        self.tick += 1;
        if !self.entries.contains_key(&shape) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        let table = plan.table().to_string();
        self.entries.insert(
            shape,
            Entry {
                plan,
                table,
                data_version,
                last_used: self.tick,
            },
        );
    }

    /// Counts a planning pass whose result could not be cached (e.g.
    /// the table was re-registered between the version snapshot and
    /// the insert, or the plan was made at an old [`crate::Snapshot`]),
    /// keeping hit + miss == lookups exact.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Purges every plan of `table` (on re-registration), returning how
    /// many entries were dropped.
    pub fn invalidate_table(&mut self, table: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.table != table);
        let dropped = before - self.entries.len();
        self.stats.invalidations += dropped as u64;
        dropped
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::filter::Predicate;
    use crate::table::Table;

    fn plan_for(query: &AggregateQuery) -> QueryPlan {
        let t = Table::new("r")
            .with_column("g", vec![1, 3, 3, 0, 0, 5, 2, 4])
            .with_column("v", vec![0, 5, 2, 4, 1, 3, 3, 0]);
        Engine::new().plan(&t, query).unwrap()
    }

    #[test]
    fn shapes_mask_literals_but_keep_structure() {
        let q = |k| AggregateQuery::paper("g", "v").with_filter("v", Predicate::GreaterThan(k));
        assert_eq!(
            QueryShape::of("r", 0, &q(1)),
            QueryShape::of("r", 0, &q(99))
        );
        // NonZero and NotEqual share the structural `<>` family.
        let ne = AggregateQuery::paper("g", "v").with_filter("v", Predicate::NotEqual(7));
        let nz = AggregateQuery::paper("g", "v").with_filter("v", Predicate::NonZero);
        assert_eq!(QueryShape::of("r", 0, &ne), QueryShape::of("r", 0, &nz));
        // Different comparison structure → different shape.
        let lt = AggregateQuery::paper("g", "v").with_filter("v", Predicate::LessThan(7));
        assert_ne!(QueryShape::of("r", 0, &ne), QueryShape::of("r", 0, &lt));
        // Catalogue version and table are part of the key.
        assert_ne!(QueryShape::of("r", 0, &ne), QueryShape::of("r", 1, &ne));
        assert_ne!(QueryShape::of("r", 0, &ne), QueryShape::of("s", 0, &ne));
        // LIMIT is masked; its presence still shapes the key.
        let lim = AggregateQuery::paper("g", "v").with_limit(3);
        assert_eq!(
            QueryShape::of("r", 0, &lim),
            QueryShape::of("r", 0, &AggregateQuery::paper("g", "v").with_limit(9))
        );
        assert_ne!(
            QueryShape::of("r", 0, &lim),
            QueryShape::of("r", 0, &AggregateQuery::paper("g", "v"))
        );
    }

    #[test]
    fn shape_renders_readably() {
        let q = AggregateQuery::paper("g", "v").with_filter("v", Predicate::GreaterThan(10));
        assert_eq!(
            QueryShape::of("r", 2, &q).to_string(),
            "r#v2: SELECT g, COUNT(*), SUM(v) WHERE v > ? GROUP BY g"
        );
    }

    #[test]
    fn lookup_and_insert_count_hits_and_misses() {
        let mut cache = PlanCache::new(4);
        let q = AggregateQuery::paper("g", "v");
        let shape = QueryShape::of("r", 0, &q);
        assert!(cache.lookup(&shape, 1).is_none());
        cache.insert(shape.clone(), plan_for(&q), 1);
        assert!(cache.lookup(&shape, 1).is_some());
        assert!(cache.lookup(&shape, 1).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn another_data_version_misses_and_the_fresh_plan_replaces_the_entry() {
        let mut cache = PlanCache::new(1);
        let q = AggregateQuery::paper("g", "v");
        let shape = QueryShape::of("r", 0, &q);
        cache.insert(shape.clone(), plan_for(&q), 2);
        // An older and a newer data version both miss, uncounted.
        assert!(cache.lookup(&shape, 1).is_none());
        assert!(cache.lookup(&shape, 3).is_none());
        assert_eq!(cache.stats().hits, 0);
        // The plan made at version 3 takes the entry's place in a full
        // cache: no eviction, and version 2 no longer hits.
        cache.insert(shape.clone(), plan_for(&q), 3);
        let s = cache.stats();
        assert_eq!((cache.len(), s.misses, s.evictions), (1, 2, 0));
        assert!(cache.lookup(&shape, 3).is_some());
        assert!(cache.lookup(&shape, 2).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_shape() {
        let mut cache = PlanCache::new(2);
        let queries: Vec<AggregateQuery> = vec![
            AggregateQuery::paper("g", "v"),
            AggregateQuery::paper("g", "v").with_filter("v", Predicate::NonZero),
            AggregateQuery::paper("g", "v").with_limit(1),
        ];
        let shapes: Vec<QueryShape> = queries.iter().map(|q| QueryShape::of("r", 0, q)).collect();
        cache.insert(shapes[0].clone(), plan_for(&queries[0]), 1);
        cache.insert(shapes[1].clone(), plan_for(&queries[1]), 1);
        // Touch shape 0 so shape 1 is the LRU victim.
        assert!(cache.lookup(&shapes[0], 1).is_some());
        cache.insert(shapes[2].clone(), plan_for(&queries[2]), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&shapes[0], 1).is_some());
        assert!(cache.lookup(&shapes[1], 1).is_none(), "evicted");
        assert!(cache.lookup(&shapes[2], 1).is_some());
    }

    #[test]
    fn invalidation_purges_only_the_named_table() {
        let mut cache = PlanCache::new(8);
        let q = AggregateQuery::paper("g", "v");
        let mut plan_s = plan_for(&q);
        plan_s.table = "s".into();
        cache.insert(QueryShape::of("r", 0, &q), plan_for(&q), 1);
        cache.insert(QueryShape::of("s", 0, &q), plan_s, 1);
        assert_eq!(cache.invalidate_table("r"), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.lookup(&QueryShape::of("s", 0, &q), 1).is_some());
    }
}
