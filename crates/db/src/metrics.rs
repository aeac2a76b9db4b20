//! The unified metrics registry — one place every subsystem reports to.
//!
//! The engine's stats were historically scattered (`CacheStats`,
//! `ExecutorStats`, `SnapshotStats`, ingest receipts, WAL internals).
//! [`MetricsRegistry`] is the cheap, lock-light sink they all fold into:
//! plain relaxed [`AtomicU64`] counters plus a log₂ histogram of query
//! cycles, with the only lock a small [`Mutex`] around the slow-query
//! ring that is taken *only* when a query crosses the configured
//! threshold. One registry lives in each [`crate::SharedCatalogue`], so
//! every session, executor worker and recovery path connected to a
//! catalogue reports to the same place.
//!
//! [`Database::metrics`](crate::Database::metrics) snapshots the
//! registry and folds in the point-in-time stats (plan cache, snapshots,
//! WAL writer, executor) as a [`MetricsSnapshot`], which renders to a
//! Prometheus-style text format ([`MetricsSnapshot::to_text`]) or JSON
//! ([`MetricsSnapshot::to_json`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Buckets in the log₂ query-cycle histogram: bucket `b` counts queries
/// whose simulated cycle cost was in `[2^(b-1), 2^b)` (bucket 0 counts
/// zero-cycle queries; the last bucket absorbs everything larger).
pub const CYCLE_HISTOGRAM_BUCKETS: usize = 24;

/// Default capacity of the slow-query ring.
const SLOW_LOG_CAPACITY: usize = 16;

/// One retained slow query: the shape that ran, what it cost, and how
/// many plan steps it executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// The query's rendered SQL shape (constants included, binds as
    /// written).
    pub sql: String,
    /// Simulated cycles the query cost.
    pub cycles: u64,
    /// Result rows it returned.
    pub rows: u64,
    /// Plan steps it executed.
    pub steps: usize,
}

#[derive(Debug)]
struct SlowLog {
    /// Queries at or above this many cycles are retained.
    threshold: u64,
    /// Worst-N ring bound.
    capacity: usize,
    /// Kept sorted by descending cycles, truncated to `capacity`.
    worst: Vec<SlowQuery>,
}

impl Default for SlowLog {
    fn default() -> Self {
        Self {
            threshold: 0,
            capacity: SLOW_LOG_CAPACITY,
            worst: Vec::new(),
        }
    }
}

/// The catalogue-owned sink of engine counters. All methods take `&self`
/// and are safe to call from any worker; see the module docs for the
/// cost model.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    queries: AtomicU64,
    query_rows: AtomicU64,
    query_cycles: AtomicU64,
    queries_cancelled: AtomicU64,
    traced_queries: AtomicU64,
    ingest_batches: AtomicU64,
    ingest_rows: AtomicU64,
    compactions: AtomicU64,
    stats_reseeds: AtomicU64,
    agg_opens: AtomicU64,
    agg_closes: AtomicU64,
    wal_replayed_records: AtomicU64,
    morsels_pruned: AtomicU64,
    rows_pruned: AtomicU64,
    cycle_histogram: [AtomicU64; CYCLE_HISTOGRAM_BUCKETS],
    slow: Mutex<SlowLog>,
}

impl MetricsRegistry {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed query: bumps the counters, buckets the cycle
    /// cost, and retains the query in the slow ring if it crossed the
    /// threshold.
    pub(crate) fn record_query(&self, sql: &str, cycles: u64, rows: u64, steps: usize) {
        self.queries.fetch_add(1, Relaxed);
        self.query_rows.fetch_add(rows, Relaxed);
        self.query_cycles.fetch_add(cycles, Relaxed);
        let bucket = (64 - cycles.leading_zeros() as usize).min(CYCLE_HISTOGRAM_BUCKETS - 1);
        self.cycle_histogram[bucket].fetch_add(1, Relaxed);

        let mut slow = self.slow.lock().expect("slow-query log poisoned");
        if cycles >= slow.threshold {
            let cap = slow.capacity;
            if slow.worst.len() == cap && slow.worst.last().is_some_and(|w| w.cycles >= cycles) {
                return;
            }
            let at = slow.worst.partition_point(|w| w.cycles >= cycles);
            slow.worst.insert(
                at,
                SlowQuery {
                    sql: sql.to_string(),
                    cycles,
                    rows,
                    steps,
                },
            );
            slow.worst.truncate(cap);
        }
    }

    /// Records one traced (`EXPLAIN ANALYZE`) execution.
    pub(crate) fn record_traced_query(&self) {
        self.traced_queries.fetch_add(1, Relaxed);
    }

    /// Records one query that surfaced
    /// [`SqlError::Cancelled`](crate::SqlError::Cancelled) — explicit
    /// cancel, timeout, or morsel-budget trip alike.
    pub(crate) fn record_cancelled(&self) {
        self.queries_cancelled.fetch_add(1, Relaxed);
    }

    /// Records one ingested batch.
    pub(crate) fn record_ingest(&self, rows: u64) {
        self.ingest_batches.fetch_add(1, Relaxed);
        self.ingest_rows.fetch_add(rows, Relaxed);
    }

    /// Records one installed delta compaction.
    pub(crate) fn record_compaction(&self) {
        self.compactions.fetch_add(1, Relaxed);
    }

    /// Records one full statistics scan of a table
    /// (`TableStats::seed`): a registration, or the re-seed a
    /// DELETE / UPDATE forces. A compaction records none — it carries
    /// the column statistics it has.
    pub(crate) fn record_stats_reseed(&self) {
        self.stats_reseeds.fetch_add(1, Relaxed);
    }

    /// Records what a read did to its session's aggregate tables: how
    /// often it opened (allocated and cleared) them and closed
    /// (compacted and read back) them at its end. A completed read opens
    /// and closes once however many ranges it ran.
    pub(crate) fn record_aggregate(&self, counts: crate::session::AggCounts) {
        self.agg_opens.fetch_add(counts.opens, Relaxed);
        self.agg_closes.fetch_add(counts.closes, Relaxed);
    }

    /// Records morsels (and the rows they covered) a query skipped
    /// because their zone maps proved the WHERE predicate matches no
    /// row in their range.
    pub(crate) fn record_pruned(&self, morsels: u64, rows: u64) {
        self.morsels_pruned.fetch_add(morsels, Relaxed);
        self.rows_pruned.fetch_add(rows, Relaxed);
    }

    /// Records WAL records replayed during crash recovery.
    pub(crate) fn record_replay(&self, records: u64) {
        self.wal_replayed_records.fetch_add(records, Relaxed);
    }

    /// Sets the slow-query retention threshold in simulated cycles
    /// (default 0: every query competes for the worst-N ring).
    pub fn set_slow_query_threshold(&self, cycles: u64) {
        self.slow.lock().expect("slow-query log poisoned").threshold = cycles;
    }

    /// The retained worst queries, most expensive first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow
            .lock()
            .expect("slow-query log poisoned")
            .worst
            .clone()
    }

    /// A point-in-time snapshot of the registry's own counters. The
    /// owning `Database`/`ShardedDatabase` folds the other subsystems'
    /// stats in on top (see [`crate::Database::metrics`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: BTreeMap::new(),
            cycle_histogram: self
                .cycle_histogram
                .iter()
                .map(|b| b.load(Relaxed))
                .collect(),
            slow: self.slow_queries(),
        };
        snap.add("queries", self.queries.load(Relaxed));
        snap.add("query_rows", self.query_rows.load(Relaxed));
        snap.add("query_cycles", self.query_cycles.load(Relaxed));
        snap.add("queries_cancelled", self.queries_cancelled.load(Relaxed));
        snap.add("traced_queries", self.traced_queries.load(Relaxed));
        snap.add("ingest_batches", self.ingest_batches.load(Relaxed));
        snap.add("ingest_rows", self.ingest_rows.load(Relaxed));
        snap.add("compactions", self.compactions.load(Relaxed));
        snap.add("stats_reseeds", self.stats_reseeds.load(Relaxed));
        snap.add("agg_opens", self.agg_opens.load(Relaxed));
        snap.add("agg_closes", self.agg_closes.load(Relaxed));
        snap.add("morsels_pruned", self.morsels_pruned.load(Relaxed));
        snap.add("rows_pruned", self.rows_pruned.load(Relaxed));
        snap.add(
            "wal_replayed_records",
            self.wal_replayed_records.load(Relaxed),
        );
        snap
    }
}

/// A point-in-time fold of every engine counter: the registry's own
/// atomics plus the plan-cache, snapshot, WAL and executor stats the
/// owning database merged in.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    cycle_histogram: Vec<u64>,
    slow: Vec<SlowQuery>,
}

impl MetricsSnapshot {
    /// Adds `value` to the named counter (creating it at zero) — how
    /// the owning database (and the serving layer on top of it) folds
    /// subsystem stats into one exposition.
    pub fn add(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// The named counter, if any subsystem reported it.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Every counter, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The log₂ query-cycle histogram (see [`CYCLE_HISTOGRAM_BUCKETS`]).
    pub fn cycle_histogram(&self) -> &[u64] {
        &self.cycle_histogram
    }

    /// The quantile `q` (in `0.0..=1.0`) of the query-cycle
    /// distribution, resolved to its histogram bucket's upper bound —
    /// the same `le` bound [`MetricsSnapshot::to_text`] renders, so
    /// p50/p99 read off this are consistent with the exposition. The
    /// overflow bucket reports `u64::MAX`. `None` when no query has
    /// been recorded.
    pub fn cycle_quantile(&self, q: f64) -> Option<u64> {
        let total: u64 = self.cycle_histogram.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (b, &v) in self.cycle_histogram.iter().enumerate() {
            cumulative += v;
            if cumulative >= rank {
                return Some(if b + 1 == self.cycle_histogram.len() {
                    u64::MAX
                } else {
                    1u64 << b
                });
            }
        }
        None
    }

    /// The retained worst queries, most expensive first.
    pub fn slow_queries(&self) -> &[SlowQuery] {
        &self.slow
    }

    /// Folds another snapshot in: counters and histogram buckets sum,
    /// slow queries keep the overall worst ring.
    pub(crate) fn merge(&mut self, other: MetricsSnapshot) {
        for (name, value) in other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        if self.cycle_histogram.len() < other.cycle_histogram.len() {
            self.cycle_histogram.resize(other.cycle_histogram.len(), 0);
        }
        for (b, v) in other.cycle_histogram.into_iter().enumerate() {
            self.cycle_histogram[b] += v;
        }
        self.slow.extend(other.slow);
        self.slow.sort_by_key(|s| std::cmp::Reverse(s.cycles));
        self.slow.truncate(SLOW_LOG_CAPACITY);
    }

    /// Prometheus-style text exposition: one `vagg_<name> <value>` line
    /// per counter, the cycle histogram as cumulative `_bucket` lines,
    /// then the slow-query ring as `vagg_slow_query_cycles` lines whose
    /// `sql` label is sanitised (escaped quotes/backslashes/newlines,
    /// control characters stripped, long text truncated on a character
    /// boundary) — so the exposition stays parseable whatever SQL text
    /// a client sent.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "vagg_{name} {value}");
        }
        let mut cumulative = 0u64;
        for (b, &v) in self.cycle_histogram.iter().enumerate() {
            cumulative += v;
            let le = if b + 1 == self.cycle_histogram.len() {
                "+Inf".to_string()
            } else {
                (1u64 << b).to_string()
            };
            let _ = writeln!(out, "vagg_query_cycles_bucket{{le=\"{le}\"}} {cumulative}");
        }
        for q in &self.slow {
            let _ = writeln!(
                out,
                "vagg_slow_query_cycles{{sql=\"{}\"}} {}",
                escape_label(&truncate_chars(&q.sql, SLOW_SQL_MAX_CHARS)),
                q.cycles
            );
        }
        out
    }

    /// JSON exposition: `{"counters": {...}, "cycle_histogram": [...],
    /// "slow_queries": [...]}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {value}");
        }
        out.push_str("\n  },\n  \"cycle_histogram\": [");
        for (b, v) in self.cycle_histogram.iter().enumerate() {
            let sep = if b == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{v}");
        }
        out.push_str("],\n  \"slow_queries\": [");
        for (i, q) in self.slow.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"sql\": \"{}\", \"cycles\": {}, \"rows\": {}, \"steps\": {}}}",
                escape_json(&truncate_chars(&q.sql, SLOW_SQL_MAX_CHARS)),
                q.cycles,
                q.rows,
                q.steps
            );
        }
        if !self.slow.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

/// The longest SQL text retained in an exposition line. Truncation
/// walks characters, never bytes, so a multi-byte character is kept or
/// dropped whole — the output is always valid UTF-8.
const SLOW_SQL_MAX_CHARS: usize = 160;

/// The first `max` characters of `s`, with a `…` marker when anything
/// was dropped. Character-based, so the cut never splits a multi-byte
/// sequence.
fn truncate_chars(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_string();
    }
    let mut out: String = s.chars().take(max).collect();
    out.push('…');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus label-value escaping: backslash, double quote and
/// newline get backslash escapes (the three the text format defines);
/// any other control character is replaced by a space so no line or
/// quote structure can be forged through the label.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let r = MetricsRegistry::new();
        r.record_query("q", 0, 0, 1); // bucket 0
        r.record_query("q", 1, 0, 1); // bucket 1: [1, 2)
        r.record_query("q", 2, 0, 1); // bucket 2: [2, 4)
        r.record_query("q", 3, 0, 1); // bucket 2
        r.record_query("q", 1024, 0, 1); // bucket 11
        let snap = r.snapshot();
        let h = snap.cycle_histogram();
        assert_eq!(h[0], 1);
        assert_eq!(h[1], 1);
        assert_eq!(h[2], 2);
        assert_eq!(h[11], 1);
        assert_eq!(snap.get("queries"), Some(5));
        assert_eq!(snap.get("query_cycles"), Some(1030));
    }

    #[test]
    fn slow_ring_keeps_the_worst_n_sorted() {
        let r = MetricsRegistry::new();
        for c in 0..100u64 {
            r.record_query(&format!("q{c}"), c, 1, 2);
        }
        let slow = r.slow_queries();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY);
        assert_eq!(slow[0].cycles, 99);
        assert_eq!(
            slow.last().unwrap().cycles,
            99 - SLOW_LOG_CAPACITY as u64 + 1
        );
        assert!(slow.windows(2).all(|w| w[0].cycles >= w[1].cycles));
    }

    #[test]
    fn slow_threshold_filters_cheap_queries() {
        let r = MetricsRegistry::new();
        r.set_slow_query_threshold(50);
        r.record_query("cheap", 10, 1, 1);
        r.record_query("dear", 90, 1, 1);
        let slow = r.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].sql, "dear");
    }

    #[test]
    fn snapshots_merge_by_summing() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.record_query("qa", 8, 2, 1);
        b.record_query("qb", 8, 3, 1);
        b.record_ingest(100);
        b.record_compaction();
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        assert_eq!(snap.get("queries"), Some(2));
        assert_eq!(snap.get("query_rows"), Some(5));
        assert_eq!(snap.get("ingest_rows"), Some(100));
        assert_eq!(snap.get("compactions"), Some(1));
        assert_eq!(snap.cycle_histogram()[4], 2);
        assert_eq!(snap.slow_queries().len(), 2);
    }

    #[test]
    fn expositions_render_counters_and_escapes() {
        let r = MetricsRegistry::new();
        r.record_query("SELECT \"x\"", 5, 1, 1);
        let snap = r.snapshot();
        let text = snap.to_text();
        assert!(text.contains("vagg_queries 1"));
        assert!(text.contains("vagg_query_cycles_bucket{le=\"+Inf\"} 1"));
        let json = snap.to_json();
        assert!(json.contains("\"queries\": 1"));
        assert!(json.contains("SELECT \\\"x\\\""));
    }

    #[test]
    fn hostile_query_text_cannot_break_the_expositions() {
        let r = MetricsRegistry::new();
        // Quotes, backslashes, newlines, control chars and a long
        // multi-byte tail, all at once.
        let hostile = format!(
            "SELECT \"g\\h\"\nFROM r\r\x07 -- {}",
            "é".repeat(SLOW_SQL_MAX_CHARS)
        );
        r.record_query(&hostile, 42, 1, 3);
        let text = r.snapshot().to_text();
        let line = text
            .lines()
            .find(|l| l.starts_with("vagg_slow_query_cycles"))
            .expect("slow query rendered");
        // One line (the newline was escaped), balanced quotes, control
        // chars gone, truncated with a marker.
        assert!(line.contains("\\n"), "newline escaped: {line}");
        assert!(line.contains("\\\""), "quote escaped: {line}");
        assert!(!line.contains('\x07'), "control char stripped");
        assert!(line.contains('…'), "long text truncated");
        assert!(line.ends_with(" 42"));
        let json = r.snapshot().to_json();
        assert!(json.contains("\\u0007"), "control char JSON-escaped");
        assert!(!json.contains('\x07'));
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let s = "é".repeat(200);
        let t = truncate_chars(&s, 160);
        assert_eq!(t.chars().count(), 161); // 160 kept + marker
        assert!(t.ends_with('…'));
        assert_eq!(truncate_chars("short", 160), "short");
    }

    #[test]
    fn cancelled_queries_are_counted() {
        let r = MetricsRegistry::new();
        r.record_cancelled();
        r.record_cancelled();
        assert_eq!(r.snapshot().get("queries_cancelled"), Some(2));
    }

    #[test]
    fn quantiles_read_off_the_histogram() {
        let r = MetricsRegistry::new();
        assert_eq!(r.snapshot().cycle_quantile(0.5), None);
        for _ in 0..99 {
            r.record_query("q", 100, 1, 1); // bucket 7: [64, 128)
        }
        r.record_query("q", 1_000_000, 1, 1); // bucket 20
        let snap = r.snapshot();
        assert_eq!(snap.cycle_quantile(0.5), Some(128));
        assert_eq!(snap.cycle_quantile(0.99), Some(128));
        assert_eq!(snap.cycle_quantile(1.0), Some(1 << 20));
    }
}
