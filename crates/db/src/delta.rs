//! Delta stores and live statistics — the storage side of the write
//! path.
//!
//! A registered table pairs an immutable base [`Table`] (`Arc`-shared
//! columns, the read-optimised store every plan snapshots) with a
//! mutable [`DeltaStore`]: append-only columnar batches layered on top,
//! the way real column-stores pair a compressed read store with a
//! write-optimised delta. Appends go to the delta in O(batch); readers
//! see base ++ delta through the catalogue's merged view, materialised
//! lazily once per data version; a threshold-triggered compaction
//! (see [`crate::ingest::CompactionPolicy`]) merges the delta into a
//! new base and re-chunks the zone maps over it (the distinct sketches
//! describe the rows, not their layout, and carry over). The catalogue
//! holds each delta behind an `Arc`: a [`crate::Snapshot`] captures one
//! by cloning that handle — no delta data is copied at capture time — a
//! write copies the store only while a snapshot still holds it, and
//! compaction installs a fresh store, leaving any held one to its
//! holders.
//!
//! [`TableStats`] is the live-statistics half: the row count, per-range
//! zone maps and a per-column sampled (KMV sketch) distinct estimate,
//! maintained *incrementally* on every append. What the §V-D policy
//! plans from — sortedness and the `max + 1` cardinality — is metadata
//! of the view a plan reads ([`crate::ColumnMeta`]), computed in the
//! pass that builds it, so the statistics keep no copy of it.

use crate::ingest::RowBatch;
use crate::table::Table;
use std::collections::BTreeMap;

/// A stable point-in-time cut of one [`DeltaStore`]: how many appended
/// rows, tombstones and overwrites were visible at a mutation boundary.
///
/// All three logs are append-only between compactions, so a captured
/// triple stays a valid **prefix view** however many later mutations
/// land — what the version index behind `AS OF data_version N` keeps
/// per data version.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DeltaCut {
    /// Appended delta rows visible at the cut.
    pub rows: usize,
    /// Tombstoned (deleted) physical rows visible at the cut.
    pub tombstones: usize,
    /// Overwrite (UPDATE) entries visible at the cut.
    pub overwrites: usize,
}

/// One UPDATE cell parked in the delta: `column[row] = value`, where
/// `row` is a *physical* row id into the base ++ delta concatenation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Overwrite {
    /// The updated column.
    pub column: String,
    /// Physical row id (position in base ++ delta, before tombstone
    /// filtering).
    pub row: u32,
    /// The new cell value.
    pub value: u32,
}

/// The write-optimised layer of one registered table: append-only
/// columnar batches over the same column set as the base table, plus
/// two more append-only logs — **tombstones** (physical row ids DELETEd
/// out of the view) and **overwrites** (UPDATEd cells). Readers apply
/// overwrites then filter tombstones at view materialisation; a
/// compaction folds all three into a new base and drops them
/// physically.
///
/// Because every log only ever *grows* between compactions, any
/// `DeltaCut` observed at a mutation boundary is a stable **prefix
/// view** of the store. A store is never emptied in place: compaction
/// and re-registration replace it, so a snapshot holding the old one
/// keeps reading exactly the state it captured.
#[derive(Debug, Clone, Default)]
pub struct DeltaStore {
    columns: BTreeMap<String, Vec<u32>>,
    batches: usize,
    rows: usize,
    tombstones: Vec<u32>,
    overwrites: Vec<Overwrite>,
}

impl DeltaStore {
    /// An empty delta with `table`'s column set.
    pub(crate) fn for_table(table: &Table) -> Self {
        Self {
            columns: table
                .column_names()
                .into_iter()
                .map(|n| (n.to_string(), Vec::new()))
                .collect(),
            batches: 0,
            rows: 0,
            tombstones: Vec::new(),
            overwrites: Vec::new(),
        }
    }

    /// Rows currently parked in the delta (not yet compacted).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tombstoned (DELETEd) physical rows awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Overwrite (UPDATEd) cells awaiting compaction.
    pub fn overwrite_count(&self) -> usize {
        self.overwrites.len()
    }

    /// Everything parked in the delta — appended rows, tombstones and
    /// overwrites — the pressure the compaction policy weighs.
    pub(crate) fn load(&self) -> usize {
        self.rows + self.tombstones.len() + self.overwrites.len()
    }

    /// The current stable cut (see [`DeltaCut`]).
    pub(crate) fn cut(&self) -> DeltaCut {
        DeltaCut {
            rows: self.rows,
            tombstones: self.tombstones.len(),
            overwrites: self.overwrites.len(),
        }
    }

    /// Batches appended since the last compaction.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// One delta column's data (empty slice until rows arrive).
    pub(crate) fn column(&self, name: &str) -> &[u32] {
        self.columns.get(name).map_or(&[], |c| &c[..])
    }

    /// The first `rows` values of one column — a version's prefix view
    /// (batch boundaries make any captured row count a stable prefix of
    /// the append-only delta).
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the column's length — a version-index
    /// bookkeeping bug, never reachable through the public API.
    pub(crate) fn prefix_column(&self, name: &str, rows: usize) -> &[u32] {
        &self.column(name)[..rows]
    }

    /// The first `n` tombstoned physical row ids — a cut's view of the
    /// append-only tombstone log.
    pub(crate) fn tombstone_prefix(&self, n: usize) -> &[u32] {
        &self.tombstones[..n]
    }

    /// The first `n` overwrite entries — a cut's view of the
    /// append-only overwrite log.
    pub(crate) fn overwrite_prefix(&self, n: usize) -> &[Overwrite] {
        &self.overwrites[..n]
    }

    /// Appends one validated batch (the catalogue checks the batch
    /// against the schema first).
    pub(crate) fn append(&mut self, batch: &RowBatch) {
        for (name, values) in batch.columns() {
            self.columns
                .get_mut(name)
                .expect("batch validated against the schema")
                .extend_from_slice(values);
        }
        self.batches += 1;
        self.rows += batch.rows();
    }

    /// Parks DELETEd physical rows in the tombstone log. The caller
    /// resolves visible rows to physical ids first (and never tombstones
    /// a row twice — resolution only sees live rows).
    pub(crate) fn tombstone_rows(&mut self, rows: &[u32]) {
        self.tombstones.extend_from_slice(rows);
    }

    /// Parks one UPDATEd cell in the overwrite log.
    pub(crate) fn overwrite(&mut self, column: &str, row: u32, value: u32) {
        self.overwrites.push(Overwrite {
            column: column.to_string(),
            row,
            value,
        });
    }
}

/// Materialises the view a [`DeltaCut`] names: base rows ++ the delta's
/// first `cut.rows` appended rows, with the first `cut.overwrites`
/// UPDATE cells applied and the first `cut.tombstones` DELETEd rows
/// filtered out. This is the one merge routine every reader shares —
/// the live merged view and snapshot views (`cut == delta.cut()`),
/// `AS OF data_version N` reads of an earlier prefix, and compaction
/// (which installs the result as the new base, dropping tombstones and
/// overwrites physically).
///
/// Column metadata (sortedness, maximum) is computed by
/// [`Table::with_column`], so a delete or overwrite that restores (or
/// breaks) sorted order, or moves the maximum, is reflected in the
/// merged table's metadata.
pub(crate) fn materialise(base: &Table, delta: &DeltaStore, cut: DeltaCut) -> Table {
    let total = base.rows() + cut.rows;
    // Overwrites first (they address physical rows), tombstones second.
    let mut keep = vec![true; total];
    for &row in delta.tombstone_prefix(cut.tombstones) {
        keep[row as usize] = false;
    }
    let deletes = keep.iter().filter(|&&k| !k).count();
    let mut out = Table::new(base.name());
    for name in base.column_names() {
        let mut data = Vec::with_capacity(total - deletes);
        data.extend_from_slice(base.column(name).expect("listed column exists"));
        data.extend_from_slice(delta.prefix_column(name, cut.rows));
        for ow in delta.overwrite_prefix(cut.overwrites) {
            if ow.column == name {
                data[ow.row as usize] = ow.value;
            }
        }
        if deletes > 0 {
            let mut live = Vec::with_capacity(total - deletes);
            live.extend(data.iter().zip(&keep).filter_map(|(&x, &k)| k.then_some(x)));
            data = live;
        }
        out = out.with_column(name, data);
    }
    out
}

/// Incrementally maintained statistics for one column: a sampled
/// distinct-count sketch, the one column fact a view does not carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    sketch: DistinctSketch,
}

impl ColumnStats {
    fn empty() -> Self {
        Self {
            sketch: DistinctSketch::new(),
        }
    }

    /// Folds appended values in. Equal to a re-scan of everything seen
    /// so far (`incremental_stats_match_a_full_rescan`).
    fn observe(&mut self, values: &[u32]) {
        for &x in values {
            self.sketch.insert(x);
        }
    }

    /// Folds another partition's statistics of the same column into
    /// this one (see [`TableStats::merged`]).
    fn absorb(&mut self, other: &ColumnStats) {
        self.sketch.merge(&other.sketch);
    }

    /// The sampled distinct-count estimate (a KMV sketch: exact below
    /// the sketch capacity, within a few percent above it).
    pub fn distinct_estimate(&self) -> u64 {
        self.sketch.estimate()
    }
}

/// Row range a zone-map chunk is seeded over: the default morsel size,
/// so one seeded zone answers for roughly one morsel.
const ZONE_ROWS: usize = 2048;

/// When incremental batches push the zone count past this, adjacent
/// zones merge pairwise (coarser bounds, half the entries) — pruning
/// stays conservative, memory stays bounded.
const MAX_ZONES: usize = 4096;

/// One zone of one column as `(lo, hi, min, max)`: rows `lo..hi` hold
/// only values in `min..=max`.
pub(crate) type ZoneRange = (usize, usize, u32, u32);

/// Per-range min/max column summaries ("zone maps"): the table's rows
/// split into ordered ranges — one per seeded chunk of the base, one
/// per appended batch — with each column's `(min, max)` kept per range.
///
/// The bounds are conservative for **any subrange**: a morsel that
/// overlaps a zone can only contain values inside that zone's
/// `[min, max]`, so a WHERE predicate no value in the covering zones'
/// bounds can satisfy provably matches nothing in the morsel. Ranges
/// are positions in the table's *merged read view*; the catalogue
/// re-seeds statistics (zones included) whenever a DELETE/UPDATE
/// shifts view positions and re-chunks the zones alone when a
/// compaction re-lays the rows out, so the alignment invariant is
/// `ranges` partitioning `[0, rows)` of whatever view the stats
/// describe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneMaps {
    /// Row ranges `[lo, hi)`, in order, partitioning `[0, rows)`.
    ranges: Vec<(usize, usize)>,
    /// Per column, one `(min, max)` per range (parallel to `ranges`).
    columns: BTreeMap<String, Vec<(u32, u32)>>,
}

impl ZoneMaps {
    /// Zones scanned from a full table in [`ZONE_ROWS`]-sized chunks.
    pub(crate) fn seed(table: &Table) -> Self {
        let mut zones = Self {
            ranges: Vec::new(),
            columns: table
                .column_names()
                .into_iter()
                .map(|n| (n.to_string(), Vec::new()))
                .collect(),
        };
        let n = table.rows();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + ZONE_ROWS).min(n);
            zones.ranges.push((lo, hi));
            for (name, bounds) in zones.columns.iter_mut() {
                let col = table.column(name).expect("listed column exists");
                bounds.push(minmax(&col[lo..hi]));
            }
            lo = hi;
        }
        zones
    }

    /// Appends one zone covering a validated batch.
    fn observe(&mut self, batch: &RowBatch, lo: usize) {
        if batch.rows() == 0 {
            return;
        }
        self.ranges.push((lo, lo + batch.rows()));
        for (name, values) in batch.columns() {
            self.columns
                .get_mut(name)
                .expect("batch validated against the schema")
                .push(minmax(values));
        }
        if self.ranges.len() > MAX_ZONES {
            self.coarsen();
        }
    }

    /// Merges adjacent zones pairwise: half the entries, bounds still
    /// conservative.
    fn coarsen(&mut self) {
        let merged_ranges: Vec<(usize, usize)> = self
            .ranges
            .chunks(2)
            .map(|c| (c[0].0, c.last().expect("non-empty chunk").1))
            .collect();
        for bounds in self.columns.values_mut() {
            *bounds = bounds
                .chunks(2)
                .map(|c| {
                    c.iter().fold((u32::MAX, 0u32), |(lo, hi), &(mn, mx)| {
                        (lo.min(mn), hi.max(mx))
                    })
                })
                .collect();
        }
        self.ranges = merged_ranges;
    }

    /// How many zones the table currently keeps (0 = no zone maps).
    pub fn zones(&self) -> usize {
        self.ranges.len()
    }

    /// One column's zones — what the planner pins onto a plan for its
    /// WHERE column.
    pub(crate) fn column_zones(&self, name: &str) -> Option<Vec<ZoneRange>> {
        let bounds = self.columns.get(name)?;
        Some(
            self.ranges
                .iter()
                .zip(bounds.iter())
                .map(|(&(lo, hi), &(mn, mx))| (lo, hi, mn, mx))
                .collect(),
        )
    }
}

/// `(min, max)` of a non-empty slice.
fn minmax(values: &[u32]) -> (u32, u32) {
    values
        .iter()
        .fold((u32::MAX, 0u32), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// Live, incrementally maintained statistics for one registered table:
/// the row count, one [`ColumnStats`] per column, and per-range
/// [`ZoneMaps`]. Seeded from the base table at registration, updated
/// per appended batch, re-seeded from the merged view on DELETE/UPDATE
/// (which change rows and shift view positions); a compaction, which
/// only re-lays the same rows out, keeps the column statistics and
/// re-chunks the zones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    rows: usize,
    columns: BTreeMap<String, ColumnStats>,
    zones: ZoneMaps,
}

impl TableStats {
    /// Statistics scanned from a full table (registration, the re-seed
    /// after a DELETE/UPDATE, frozen tables).
    pub(crate) fn seed(table: &Table) -> Self {
        let mut stats = Self {
            rows: 0,
            columns: table
                .column_names()
                .into_iter()
                .map(|n| (n.to_string(), ColumnStats::empty()))
                .collect(),
            zones: ZoneMaps::seed(table),
        };
        for (name, col) in stats.columns.iter_mut() {
            col.observe(table.column(name).expect("listed column exists"));
        }
        stats.rows = table.rows();
        stats
    }

    /// Folds one validated batch into the statistics.
    pub(crate) fn observe(&mut self, batch: &RowBatch) {
        self.zones.observe(batch, self.rows);
        for (name, values) in batch.columns() {
            self.columns
                .get_mut(name)
                .expect("batch validated against the schema")
                .observe(values);
        }
        self.rows += batch.rows();
    }

    /// Installs the zones of a compaction's merged table — the same
    /// rows as the view these statistics describe, laid out as one
    /// base. Nothing else moves: the row count and the distinct sketch
    /// are functions of the *set* of values seen, which a compaction
    /// does not change; with `zones = ZoneMaps::seed(merged)` the
    /// result is `TableStats::seed(merged)`, which
    /// `tests/stats_oracle.rs` holds after every statement and the
    /// catalogue `debug_assert`s at every compaction.
    pub(crate) fn relay(&mut self, zones: ZoneMaps) {
        self.zones = zones;
    }

    /// The table's per-range zone maps (see [`ZoneMaps`]).
    pub fn zone_maps(&self) -> &ZoneMaps {
        &self.zones
    }

    /// Total rows (base + delta).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// One column's statistics.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Column names, sorted.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(String::as_str).collect()
    }

    /// Merges per-partition statistics into one observability view —
    /// what [`crate::ShardedDatabase::table_stats`] reports for a
    /// row-partitioned table. Row counts add and the KMV sketches union
    /// (keeping the K smallest hashes, so the merged distinct estimate
    /// is as good as a single-store sketch of the same rows).
    ///
    /// `None` when `parts` is empty or the column sets disagree.
    pub fn merged(parts: &[TableStats]) -> Option<TableStats> {
        let (first, rest) = parts.split_first()?;
        let mut out = first.clone();
        // Zone ranges are positions in *one* partition's view; a
        // cross-partition merge has no meaningful row order, so the
        // observability view carries none.
        out.zones = ZoneMaps::default();
        for part in rest {
            if part.column_names() != out.column_names() {
                return None;
            }
            out.rows += part.rows;
            for (name, col) in out.columns.iter_mut() {
                col.absorb(part.column(name).expect("column sets checked equal"));
            }
        }
        Some(out)
    }
}

/// A K-minimum-values distinct-count sketch: keep the `K` smallest
/// hashes seen; with fewer than `K` distinct hashes the count is exact,
/// beyond that `distinct ≈ (K-1) · 2⁶⁴ / kth_smallest`. Deterministic
/// (SplitMix64 hash, no RNG state) — the "sampled distinct estimate" a
/// real optimiser maintains without re-scanning.
///
/// The retained hashes are one sorted array: at capacity a single
/// compare against the kth rejects almost every value of a
/// high-cardinality column, the rest is a binary search and a shift of
/// at most 2 KiB, and a clone — which every statement's snapshot cut
/// takes per column — is one `memcpy`. The sketch is a function of the
/// set of hashes inserted, whatever holds them: `differential_tests`
/// compare it with the B-tree it replaces (`reference`), hash for hash.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DistinctSketch {
    /// Ascending, distinct, at most [`SKETCH_K`].
    hashes: Vec<u64>,
}

/// Sketch capacity: 256 minima keep the estimate within ~6% (1/√K)
/// while costing 2 KiB per column.
const SKETCH_K: usize = 256;

impl DistinctSketch {
    fn new() -> Self {
        Self { hashes: Vec::new() }
    }

    fn insert(&mut self, value: u32) {
        self.insert_hash(hash_of(value));
    }

    fn insert_hash(&mut self, h: u64) {
        // At capacity, a hash that is not below the kth is the kth
        // itself or would be dropped again at once.
        if self.hashes.len() == SKETCH_K && h >= self.hashes[SKETCH_K - 1] {
            return;
        }
        if let Err(at) = self.hashes.binary_search(&h) {
            if self.hashes.len() == SKETCH_K {
                self.hashes.pop();
            }
            self.hashes.insert(at, h);
        }
    }

    /// Unions another sketch into this one, keeping the K smallest
    /// hashes of either — KMV sketches merge losslessly, so the union
    /// estimates the combined distinct count exactly as a single
    /// sketch over all the rows would.
    fn merge(&mut self, other: &DistinctSketch) {
        for &h in &other.hashes {
            self.insert_hash(h);
        }
    }

    fn estimate(&self) -> u64 {
        if self.hashes.len() < SKETCH_K {
            return self.hashes.len() as u64;
        }
        let kth = self.hashes[SKETCH_K - 1];
        ((SKETCH_K as u128 - 1) * (u64::MAX as u128) / (kth as u128).max(1)) as u64
    }
}

/// The hash a column value enters the sketch under.
fn hash_of(value: u32) -> u64 {
    splitmix64(value as u64 ^ 0x5851_F42D_4C95_7F2D)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The B-tree sketch the sorted array replaced, verbatim: what
/// `differential_tests` compare [`DistinctSketch`] with. Never edit it
/// along with the live sketch.
#[cfg(test)]
mod reference {
    use super::{splitmix64, SKETCH_K};
    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    pub(super) struct DistinctSketch {
        pub(super) hashes: BTreeSet<u64>,
    }

    impl DistinctSketch {
        pub(super) fn new() -> Self {
            Self {
                hashes: BTreeSet::new(),
            }
        }

        pub(super) fn insert(&mut self, value: u32) {
            self.insert_hash(splitmix64(value as u64 ^ 0x5851_F42D_4C95_7F2D));
        }

        pub(super) fn insert_hash(&mut self, h: u64) {
            if self.hashes.len() < SKETCH_K {
                self.hashes.insert(h);
            } else if h < *self.hashes.last().expect("sketch at capacity") && self.hashes.insert(h)
            {
                self.hashes.pop_last();
            }
        }

        pub(super) fn merge(&mut self, other: &DistinctSketch) {
            for &h in &other.hashes {
                self.insert_hash(h);
            }
        }

        pub(super) fn estimate(&self) -> u64 {
            if self.hashes.len() < SKETCH_K {
                return self.hashes.len() as u64;
            }
            let kth = *self.hashes.last().expect("sketch at capacity");
            ((SKETCH_K as u128 - 1) * (u64::MAX as u128) / (kth as u128).max(1)) as u64
        }
    }
}

/// A seeded stream for the crate's property tests.
#[cfg(test)]
pub(crate) struct Xorshift(u64);

#[cfg(test)]
impl Xorshift {
    pub(crate) fn new(seed: u64) -> Self {
        Self(splitmix64(seed) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        (self.next() >> 11) % bound
    }
}

/// The array sketch against the B-tree sketch: the same retained
/// hashes in the same order, and the same estimate, after every step of
/// arbitrary `insert` / `merge` streams.
#[cfg(test)]
mod differential_tests {
    use super::*;

    /// Both sketches, driven together and compared after every call.
    struct Pair {
        array: DistinctSketch,
        btree: reference::DistinctSketch,
    }

    impl Pair {
        fn new() -> Self {
            Self {
                array: DistinctSketch::new(),
                btree: reference::DistinctSketch::new(),
            }
        }

        fn check(&self, what: &str) {
            assert!(
                self.array.hashes.iter().eq(self.btree.hashes.iter()),
                "{what}: retained hashes differ"
            );
            assert!(self.array.hashes.len() <= SKETCH_K, "{what}: over capacity");
            assert_eq!(self.array.estimate(), self.btree.estimate(), "{what}");
        }

        fn insert(&mut self, value: u32) {
            self.array.insert(value);
            self.btree.insert(value);
        }

        fn insert_hash(&mut self, h: u64) {
            self.array.insert_hash(h);
            self.btree.insert_hash(h);
        }

        fn merge(&mut self, other: &Pair) {
            self.array.merge(&other.array);
            self.btree.merge(&other.btree);
        }

        /// A sketch of `n` values below `domain`.
        fn of(rng: &mut Xorshift, n: u64, domain: u64) -> Self {
            let mut pair = Self::new();
            for _ in 0..n {
                pair.insert(rng.below(domain) as u32);
            }
            pair
        }
    }

    #[test]
    fn the_array_sketch_retains_what_the_btree_sketch_retains() {
        // All-equal, below capacity, exactly at it, one over, far over.
        for (case, &domain) in [1u64, 100, 256, 257, 50_000]
            .iter()
            .cycle()
            .take(60)
            .enumerate()
        {
            let mut rng = Xorshift::new(case as u64);
            let mut pair = Pair::new();
            for step in 0..1500 {
                let what = format!("domain {domain}, case {case}, step {step}");
                match rng.below(40) {
                    // The current kth itself, its neighbours, and the
                    // extremes: the capacity reject's boundary.
                    0 => {
                        if let Some(&kth) = pair.array.hashes.last() {
                            let around =
                                [kth, kth.wrapping_sub(1), kth.wrapping_add(1), 0, u64::MAX];
                            pair.insert_hash(around[rng.below(5) as usize]);
                        }
                    }
                    // Another sketch, smaller or larger than this one.
                    1 => {
                        let n = [0, 10, 300, 3000][rng.below(4) as usize];
                        let other_domain = [1, 100, 256, 50_000][rng.below(4) as usize];
                        let other = Pair::of(&mut rng, n, other_domain);
                        other.check(&what);
                        pair.merge(&other);
                    }
                    // Itself.
                    2 => {
                        let copy = Pair {
                            array: pair.array.clone(),
                            btree: pair.btree.clone(),
                        };
                        pair.merge(&copy);
                    }
                    _ => pair.insert(rng.below(domain) as u32),
                }
                pair.check(&what);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(g: Vec<u32>, v: Vec<u32>) -> RowBatch {
        RowBatch::new().with_column("g", g).with_column("v", v)
    }

    #[test]
    fn delta_accumulates_batches() {
        let base = Table::new("r")
            .with_column("g", vec![1, 2])
            .with_column("v", vec![3, 4]);
        let mut d = DeltaStore::for_table(&base);
        assert_eq!((d.rows(), d.batches()), (0, 0));
        d.append(&batch(vec![5], vec![6]));
        d.append(&batch(vec![7, 8], vec![9, 10]));
        assert_eq!((d.rows(), d.batches()), (3, 2));
        assert_eq!(d.column("g"), &[5, 7, 8]);
        assert_eq!(d.column("v"), &[6, 9, 10]);
    }

    #[test]
    fn prefix_views_survive_later_appends() {
        let base = Table::new("r").with_column("g", vec![0]);
        let mut d = DeltaStore::for_table(&base);
        d.append(&RowBatch::new().with_column("g", vec![1, 2]));
        let prefix = d.rows();
        d.append(&RowBatch::new().with_column("g", vec![3, 4, 5]));
        assert_eq!(d.prefix_column("g", prefix), &[1, 2], "stable prefix");
    }

    #[test]
    fn materialise_applies_overwrites_then_filters_tombstones() {
        let base = Table::new("r")
            .with_column("g", vec![1, 2, 3])
            .with_column("v", vec![10, 20, 30]);
        let mut d = DeltaStore::for_table(&base);
        d.append(&batch(vec![4, 5], vec![40, 50]));
        // Overwrite a base cell and a delta cell, then delete row 1.
        d.overwrite("v", 0, 11);
        d.overwrite("v", 4, 55);
        d.tombstone_rows(&[1]);
        let t = materialise(&base, &d, d.cut());
        assert_eq!(t.rows(), 4);
        assert_eq!(t.column("g"), Some(&[1u32, 3, 4, 5][..]));
        assert_eq!(t.column("v"), Some(&[11u32, 30, 40, 55][..]));
        // An overwritten-then-deleted row leaves no trace.
        d.overwrite("g", 2, 99);
        d.tombstone_rows(&[2]);
        let t = materialise(&base, &d, d.cut());
        assert_eq!(t.column("g"), Some(&[1u32, 4, 5][..]));
    }

    #[test]
    fn delta_cuts_pin_tombstone_and_overwrite_prefixes() {
        let base = Table::new("r")
            .with_column("g", vec![7, 8])
            .with_column("v", vec![1, 2]);
        let mut d = DeltaStore::for_table(&base);
        d.append(&batch(vec![9], vec![3]));
        d.tombstone_rows(&[0]);
        let cut = d.cut();
        assert_eq!(
            cut,
            DeltaCut {
                rows: 1,
                tombstones: 1,
                overwrites: 0
            }
        );
        // A copy taken at the cut — what a write leaves a snapshot that
        // holds the store — reads the whole of it.
        let frozen = d.clone();
        // Later mutations leave the prefix view untouched.
        d.overwrite("v", 1, 99);
        d.tombstone_rows(&[2]);
        let at_cut = materialise(&base, &d, cut);
        assert_eq!(at_cut.column("g"), Some(&[8u32, 9][..]));
        assert_eq!(at_cut.column("v"), Some(&[2u32, 3][..]));
        // The frozen copy reproduces the cut bit for bit.
        let from_frozen = materialise(&base, &frozen, frozen.cut());
        assert_eq!(from_frozen.column("g"), at_cut.column("g"));
        assert_eq!(from_frozen.column("v"), at_cut.column("v"));
        // The live head sees everything.
        let live = materialise(&base, &d, d.cut());
        assert_eq!(live.column("g"), Some(&[8u32][..]));
        assert_eq!(live.column("v"), Some(&[99u32][..]));
        assert_eq!(d.load(), 1 + 2 + 1);
    }

    #[test]
    fn merged_stats_match_a_single_store_over_all_rows() {
        // Partition the same rows two ways: per-part seed + merged must
        // agree with one seed over everything, for every statistic.
        let all: Vec<u32> = (0..500u32).map(|i| i * 37 % 311).collect();
        let whole = TableStats::seed(&Table::new("r").with_column("g", all.clone()));
        let parts: Vec<TableStats> = all
            .chunks(167)
            .map(|c| TableStats::seed(&Table::new("r").with_column("g", c.to_vec())))
            .collect();
        let merged = TableStats::merged(&parts).unwrap();
        assert_eq!(merged.rows(), whole.rows());
        let (m, w) = (merged.column("g").unwrap(), whole.column("g").unwrap());
        assert_eq!(m, w, "KMV sketches union losslessly");
        // Degenerate and mismatched inputs.
        assert!(TableStats::merged(&[]).is_none());
        let other = TableStats::seed(&Table::new("r").with_column("h", vec![1]));
        assert!(TableStats::merged(&[whole, other]).is_none());
    }

    /// `seed(base)` + k × `observe(batch)` must equal
    /// `seed(base ++ batches)` in every column statistic — what lets a
    /// compaction carry the statistics it has. A property over seeded
    /// streams (the crate has no proptest dependency): bases and batches
    /// of 0 to a few hundred rows, sorted and not, over domains below,
    /// at and far above the sketch's capacity.
    #[test]
    fn incremental_stats_match_a_full_rescan() {
        for case in 0..400u64 {
            let mut rng = Xorshift::new(case);
            let domain = [1, 7, 256, 257, 100_000][rng.below(5) as usize];
            let mut next_key = 0u32;
            let mut rows = |rng: &mut Xorshift, n: u64| -> (Vec<u32>, Vec<u32>) {
                let ascending = rng.below(2) == 0;
                (0..n)
                    .map(|_| {
                        next_key += rng.below(3) as u32;
                        let g = if ascending {
                            next_key
                        } else {
                            rng.below(domain) as u32
                        };
                        (g, rng.below(domain) as u32)
                    })
                    .unzip()
            };
            let n = [0, 1, 64, 600][rng.below(4) as usize];
            let (mut g, mut v) = rows(&mut rng, n);
            let base = Table::new("r")
                .with_column("g", g.clone())
                .with_column("v", v.clone());
            let mut stats = TableStats::seed(&base);
            for _ in 0..rng.below(5) {
                let n = [0, 1, 64, 300][rng.below(4) as usize];
                let (bg, bv) = rows(&mut rng, n);
                g.extend_from_slice(&bg);
                v.extend_from_slice(&bv);
                stats.observe(&batch(bg, bv));
            }
            let merged = Table::new("r").with_column("g", g).with_column("v", v);
            let fresh = TableStats::seed(&merged);
            assert_eq!(stats.rows(), fresh.rows(), "case {case}");
            // Zones differ by design (one per batch against one per
            // 2048 rows); every column statistic is equal.
            assert_eq!(stats.columns, fresh.columns, "case {case}");
        }
    }

    /// The view's sortedness follows the rows in append order: kept by
    /// in-order appends, lost to a break, never regained by appending.
    #[test]
    fn sorted_tracking_survives_in_order_appends_and_catches_breaks() {
        let base = Table::new("r").with_column("g", vec![1, 2, 3]);
        let mut d = DeltaStore::for_table(&base);
        let sorted = |d: &DeltaStore| materialise(&base, d, d.cut()).meta("g").unwrap().sorted;
        assert!(sorted(&d));
        d.append(&RowBatch::new().with_column("g", vec![3, 4, 9]));
        assert!(sorted(&d), "in-order append");
        d.append(&RowBatch::new().with_column("g", vec![0]));
        assert!(!sorted(&d), "break detected");
        d.append(&RowBatch::new().with_column("g", vec![100]));
        assert!(!sorted(&d));
        // Deleting the row that broke the order restores it.
        d.tombstone_rows(&[6]);
        assert!(sorted(&d), "the break deleted");
    }

    #[test]
    fn distinct_sketch_is_exact_below_capacity() {
        let mut s = DistinctSketch::new();
        for x in 0..100u32 {
            s.insert(x);
            s.insert(x); // duplicates never inflate
        }
        assert_eq!(s.estimate(), 100);
    }

    #[test]
    fn distinct_sketch_estimates_within_tolerance_above_capacity() {
        let mut s = DistinctSketch::new();
        let n = 50_000u32;
        for x in 0..n {
            s.insert(x);
        }
        let est = s.estimate();
        let err = (est as f64 - n as f64).abs() / n as f64;
        assert!(err < 0.15, "estimate {est} for {n} distinct (err {err:.3})");
    }

    #[test]
    fn empty_column_stats_are_well_defined() {
        let t = Table::new("r").with_column("g", vec![]);
        let stats = TableStats::seed(&t);
        assert_eq!(stats.rows(), 0);
        assert_eq!(stats.zone_maps().zones(), 0);
        assert_eq!(stats.column("g").unwrap().distinct_estimate(), 0);
    }
}
