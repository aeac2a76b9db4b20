//! Seeded inputs: the `events`/`dims` tables and the statement lists
//! of the SQL workloads. The same seed gives the same inputs; the
//! engine receives only what is generated here.

use vagg_datagen::rng::Xoshiro256StarStar;
use vagg_datagen::zipf::Zipf;
use vagg_db::{RowBatch, Table};

/// Distinct `g` keys (the paper's mid cardinality: one monotable fits
/// simulated L1, polytable's 64 replicas do not fit L2).
pub const G_DOMAIN: u32 = 1220;
/// Distinct `h` keys (the second column of the composite GROUP BY).
pub const H_DOMAIN: u32 = 8;
/// `v` is uniform in `[0, V_DOMAIN)`.
pub const V_DOMAIN: u32 = 1000;

/// The fact table, column-wise: `g` Zipf over [`G_DOMAIN`], `h` and `v`
/// uniform, `ts` the row index — so `ts` is clustered and a `ts < ?`
/// predicate is one the zone maps can prune on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Events {
    pub g: Vec<u32>,
    pub h: Vec<u32>,
    pub v: Vec<u32>,
    pub ts: Vec<u32>,
}

impl Events {
    pub const COLUMNS: [&'static str; 4] = ["g", "h", "v", "ts"];

    /// `rows` rows from `seed`, `ts` counting up from `first_ts`.
    pub fn generate(rows: usize, first_ts: u32, seed: u64) -> Self {
        let zipf = Zipf::new(u64::from(G_DOMAIN), 1.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut out = Self {
            g: Vec::with_capacity(rows),
            h: Vec::with_capacity(rows),
            v: Vec::with_capacity(rows),
            ts: Vec::with_capacity(rows),
        };
        for i in 0..rows {
            out.g.push(zipf.sample(&mut rng) as u32);
            out.h.push(rng.next_below(u64::from(H_DOMAIN)) as u32);
            out.v.push(rng.next_below(u64::from(V_DOMAIN)) as u32);
            out.ts.push(first_ts + i as u32);
        }
        out
    }

    pub fn rows(&self) -> usize {
        self.g.len()
    }

    fn columns(&self) -> [&Vec<u32>; 4] {
        [&self.g, &self.h, &self.v, &self.ts]
    }

    /// The registered form.
    pub fn table(&self) -> Table {
        Self::COLUMNS
            .iter()
            .zip(self.columns())
            .fold(Table::new("events"), |t, (name, col)| {
                t.with_column(*name, col.clone())
            })
    }

    /// Rows `lo..hi` as an ingest batch.
    pub fn batch(&self, lo: usize, hi: usize) -> RowBatch {
        Self::COLUMNS
            .iter()
            .zip(self.columns())
            .fold(RowBatch::new(), |b, (name, col)| {
                b.with_column(*name, col[lo..hi].to_vec())
            })
    }

    /// Row `i` as `[g, h, v, ts]`.
    pub fn row(&self, i: usize) -> [u32; 4] {
        [self.g[i], self.h[i], self.v[i], self.ts[i]]
    }

    #[cfg(test)]
    pub fn push(&mut self, [g, h, v, ts]: [u32; 4]) {
        self.g.push(g);
        self.h.push(h);
        self.v.push(v);
        self.ts.push(ts);
    }

    /// Appends rows `lo..hi` of `other`.
    pub fn extend_from(&mut self, other: &Events, lo: usize, hi: usize) {
        self.g.extend_from_slice(&other.g[lo..hi]);
        self.h.extend_from_slice(&other.h[lo..hi]);
        self.v.extend_from_slice(&other.v[lo..hi]);
        self.ts.extend_from_slice(&other.ts[lo..hi]);
    }

    /// Drops every row with `ts < cutoff` (the host model of the
    /// rolling-window `DELETE`).
    pub fn retain_from(&mut self, cutoff: u32) {
        let keep: Vec<bool> = self.ts.iter().map(|&t| t >= cutoff).collect();
        for col in [&mut self.g, &mut self.h, &mut self.v, &mut self.ts] {
            let mut k = keep.iter();
            col.retain(|_| *k.next().expect("one flag per row"));
        }
    }
}

/// The dimension table: one row per `g` key with a seeded weight.
#[derive(Debug, Clone)]
pub struct Dims {
    pub g: Vec<u32>,
    pub w: Vec<u32>,
}

impl Dims {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x0D15);
        Self {
            g: (0..G_DOMAIN).collect(),
            w: (0..G_DOMAIN).map(|_| rng.next_below(100) as u32).collect(),
        }
    }

    pub fn table(&self) -> Table {
        Table::new("dims")
            .with_column("g", self.g.clone())
            .with_column("w", self.w.clone())
    }
}

/// One statement of a SQL workload. Parameters are part of the value,
/// so a statement list is fully determined by its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// Full scan, five aggregates.
    Full,
    /// `WHERE v > ?` — not clustered, 10–100 % selective.
    Filter { gt: u32 },
    /// `GROUP BY g, h`.
    Composite,
    /// `WHERE ts < ?` — clustered, at most 6 % selective.
    Pruned { lt: u32 },
    /// `HAVING … ORDER BY … LIMIT 10`.
    Tail { having_gt: u32 },
    /// `events JOIN dims`.
    Join,
    /// `WHERE ts > ?` — the newest rows, read while ingest goes on.
    Recent { after: u32 },
}

/// Statement classes, the unit of the per-class layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Full,
    Filter,
    Composite,
    Pruned,
    Tail,
    Join,
    Recent,
}

pub const FILTER_TEMPLATE: &str = "SELECT g, COUNT(*), SUM(v) FROM events WHERE v > ? GROUP BY g";
pub const PRUNED_TEMPLATE: &str = "SELECT g, COUNT(*), SUM(v) FROM events WHERE ts < ? GROUP BY g";

impl Stmt {
    pub fn class(self) -> Class {
        match self {
            Stmt::Full => Class::Full,
            Stmt::Filter { .. } => Class::Filter,
            Stmt::Composite => Class::Composite,
            Stmt::Pruned { .. } => Class::Pruned,
            Stmt::Tail { .. } => Class::Tail,
            Stmt::Join => Class::Join,
            Stmt::Recent { .. } => Class::Recent,
        }
    }

    /// The statement as literal SQL.
    pub fn sql(self) -> String {
        match self {
            Stmt::Full => {
                "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM events GROUP BY g".into()
            }
            Stmt::Filter { gt } => FILTER_TEMPLATE.replace('?', &gt.to_string()),
            Stmt::Composite => "SELECT g, h, COUNT(*), SUM(v) FROM events GROUP BY g, h".into(),
            Stmt::Pruned { lt } => PRUNED_TEMPLATE.replace('?', &lt.to_string()),
            Stmt::Tail { having_gt } => format!(
                "SELECT g, COUNT(*), SUM(v) FROM events GROUP BY g \
                 HAVING COUNT(*) > {having_gt} ORDER BY SUM(v) DESC LIMIT 10"
            ),
            Stmt::Join => "SELECT events.g, COUNT(*), SUM(w) FROM events \
                           JOIN dims ON events.g = dims.g GROUP BY events.g"
                .into(),
            Stmt::Recent { after } => {
                format!("SELECT g, COUNT(*), SUM(v) FROM events WHERE ts > {after} GROUP BY g")
            }
        }
    }

    /// The prepared form, for the two parameterised classes:
    /// `(template, parameter)`.
    pub fn prepared(self) -> Option<(&'static str, u64)> {
        match self {
            Stmt::Filter { gt } => Some((FILTER_TEMPLATE, u64::from(gt))),
            Stmt::Pruned { lt } => Some((PRUNED_TEMPLATE, u64::from(lt))),
            _ => None,
        }
    }
}

/// A seeded statement list: `count` statements of each class for a
/// table of `rows` rows, shuffled. The parameters of a class are
/// *stratified*: its `count` statements take one value from each of
/// `count` equal slices of the parameter range (seeded within the
/// slice), so every seed covers the range alike — a percentile over
/// the list then moves with the engine, not with which thresholds a
/// seed happened to draw.
pub fn statements(mix: &[(Class, usize)], rows: usize, seed: u64) -> Vec<Stmt> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x57A7_E3E7);
    let mut out = Vec::new();
    for &(class, count) in mix {
        // One value from slice `k` of `count` slices of `[lo, hi)`.
        let mut in_slice = |k: usize, lo: u64, hi: u64| {
            let width = ((hi - lo) / count as u64).max(1);
            (lo + k as u64 * width + rng.next_below(width)) as u32
        };
        for k in 0..count {
            out.push(match class {
                Class::Full => Stmt::Full,
                Class::Filter => Stmt::Filter {
                    gt: in_slice(k, 0, u64::from(V_DOMAIN) * 9 / 10),
                },
                Class::Composite => Stmt::Composite,
                Class::Pruned => Stmt::Pruned {
                    lt: in_slice(k, 1, 1 + (rows as u64 * 6 / 100).max(1)),
                },
                Class::Tail => Stmt::Tail {
                    having_gt: in_slice(k, 1, 17),
                },
                Class::Join => Stmt::Join,
                Class::Recent => Stmt::Recent {
                    after: in_slice(k, 0, rows as u64),
                },
            });
        }
    }
    shuffle(&mut out, &mut rng);
    out
}

/// Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256StarStar) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(Events::generate(500, 0, 7), Events::generate(500, 0, 7));
        assert_ne!(Events::generate(500, 0, 7), Events::generate(500, 0, 8));
        let mix = [(Class::Filter, 5), (Class::Pruned, 5), (Class::Full, 2)];
        assert_eq!(statements(&mix, 1000, 3), statements(&mix, 1000, 3));
        assert_ne!(statements(&mix, 1000, 3), statements(&mix, 1000, 4));
        assert_eq!(statements(&mix, 1000, 3).len(), 12);
    }

    #[test]
    fn events_have_the_documented_shape() {
        let e = Events::generate(2000, 10, 1);
        assert!(e.g.iter().all(|&g| g < G_DOMAIN));
        assert!(e.h.iter().all(|&h| h < H_DOMAIN));
        assert!(e.v.iter().all(|&v| v < V_DOMAIN));
        assert_eq!(e.ts, (10..2010).collect::<Vec<u32>>());
        assert_eq!(e.table().rows(), 2000);
        assert_eq!(e.batch(5, 9).rows(), 4);
    }

    #[test]
    fn rolling_window_model_drops_old_rows() {
        let mut e = Events::generate(100, 0, 1);
        let tail = Events::generate(20, 100, 2);
        e.extend_from(&tail, 0, 20);
        e.retain_from(90);
        assert_eq!(e.rows(), 30);
        assert_eq!(e.ts.first(), Some(&90));
        assert_eq!(e.row(10), tail.row(0));
    }

    #[test]
    fn parameters_are_stratified_over_their_range() {
        let mut cutoffs: Vec<u32> = statements(&[(Class::Pruned, 50)], 10_000, 9)
            .into_iter()
            .map(|s| match s {
                Stmt::Pruned { lt } => lt,
                other => panic!("only pruned asked, got {other:?}"),
            })
            .collect();
        cutoffs.sort_unstable();
        // Clustered and at most 6 % selective, one per slice of 12.
        for (k, lt) in cutoffs.iter().enumerate() {
            assert!(
                (1 + 12 * k as u32..1 + 12 * (k as u32 + 1)).contains(lt),
                "{k}: {lt}"
            );
        }
        let mut thresholds: Vec<u32> = statements(&[(Class::Filter, 9)], 10_000, 2)
            .into_iter()
            .map(|s| match s {
                Stmt::Filter { gt } => gt,
                other => panic!("only filters asked, got {other:?}"),
            })
            .collect();
        thresholds.sort_unstable();
        for (k, gt) in thresholds.iter().enumerate() {
            assert!(
                (100 * k as u32..100 * (k as u32 + 1)).contains(gt),
                "{k}: {gt}"
            );
        }
    }
}
