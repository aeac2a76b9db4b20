//! The host-side oracle: what every statement must return, computed
//! from the generated columns with plain host maps — independent of
//! the engine under test.

use crate::gen::{Dims, Events, Stmt};
use std::collections::{BTreeMap, HashMap};

/// A result row without engine types: `(group parts, aggregate values)`.
pub type Flat = (Vec<u32>, Vec<f64>);

/// Flattens an engine row.
pub fn flat_row(row: &vagg_db::Row) -> Flat {
    (row.group_parts.clone(), row.values.clone())
}

/// Flattens a wire row.
pub fn flat_wire(row: &vagg_server::WireRow) -> Flat {
    (row.group_parts.clone(), row.values.clone())
}

#[derive(Debug, Clone, Copy)]
struct Acc {
    count: u64,
    sum: u64,
    min: u32,
    max: u32,
}

/// Host group-by: `(key, value)` pairs to per-key accumulators, in key
/// order.
fn group_by<K: Ord>(rows: impl Iterator<Item = (K, u32)>) -> BTreeMap<K, Acc> {
    let mut groups = BTreeMap::new();
    for (key, v) in rows {
        let acc = groups.entry(key).or_insert(Acc {
            count: 0,
            sum: 0,
            min: u32::MAX,
            max: 0,
        });
        acc.count += 1;
        acc.sum += u64::from(v);
        acc.min = acc.min.min(v);
        acc.max = acc.max.max(v);
    }
    groups
}

fn count_sum(acc: &Acc) -> Vec<f64> {
    vec![acc.count as f64, acc.sum as f64]
}

/// The rows `stmt` must return over `events` (and `dims` for the
/// join), in the engine's natural order (ascending group key) — except
/// for [`Stmt::Tail`], where this is every group that passes `HAVING`
/// and [`matches`] applies the ordering and limit.
pub fn expected(stmt: Stmt, events: &Events, dims: &Dims) -> Vec<Flat> {
    let n = events.rows();
    let by_g = |keep: &dyn Fn(usize) -> bool| {
        group_by(
            (0..n)
                .filter(|&i| keep(i))
                .map(|i| (events.g[i], events.v[i])),
        )
    };
    let single = |groups: BTreeMap<u32, Acc>, values: &dyn Fn(&Acc) -> Vec<f64>| {
        groups
            .iter()
            .map(|(&g, acc)| (vec![g], values(acc)))
            .collect::<Vec<Flat>>()
    };
    match stmt {
        Stmt::Full => single(by_g(&|_| true), &|a| {
            vec![
                a.count as f64,
                a.sum as f64,
                f64::from(a.min),
                f64::from(a.max),
                a.sum as f64 / a.count as f64,
            ]
        }),
        Stmt::Filter { gt } => single(by_g(&|i| events.v[i] > gt), &count_sum),
        Stmt::Pruned { lt } => single(by_g(&|i| events.ts[i] < lt), &count_sum),
        Stmt::Recent { after } => single(by_g(&|i| events.ts[i] > after), &count_sum),
        Stmt::Tail { having_gt } => {
            let mut groups = by_g(&|_| true);
            groups.retain(|_, a| a.count > u64::from(having_gt));
            single(groups, &count_sum)
        }
        Stmt::Composite => group_by((0..n).map(|i| ((events.g[i], events.h[i]), events.v[i])))
            .iter()
            .map(|(&(g, h), acc)| (vec![g, h], count_sum(acc)))
            .collect(),
        Stmt::Join => {
            let mut weights: HashMap<u32, Vec<u32>> = HashMap::new();
            for (&g, &w) in dims.g.iter().zip(&dims.w) {
                weights.entry(g).or_default().push(w);
            }
            let pairs = events
                .g
                .iter()
                .flat_map(|&g| weights.get(&g).into_iter().flatten().map(move |&w| (g, w)));
            single(group_by(pairs), &count_sum)
        }
    }
}

/// Whether `got` is a correct answer to `stmt` given [`expected`].
pub fn matches(stmt: Stmt, got: &[Flat], expected: &[Flat]) -> bool {
    let Stmt::Tail { .. } = stmt else {
        return got == expected;
    };
    // ORDER BY SUM(v) DESC LIMIT 10: ties may break either way, so
    // check each returned row against its group, the order, and that
    // the returned sums are the ten largest.
    let by_group: HashMap<&[u32], &[f64]> = expected
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();
    let sum = |row: &Flat| row.1[1];
    let mut top: Vec<f64> = expected.iter().map(sum).collect();
    top.sort_by(|a, b| b.partial_cmp(a).expect("sums are finite"));
    top.truncate(10);
    got.len() == top.len()
        && got
            .iter()
            .all(|(k, v)| by_group.get(k.as_slice()) == Some(&v.as_slice()))
        && got.iter().map(sum).eq(top.iter().copied())
}

/// Σ `COUNT(*)` over a result (the first aggregate of every statement).
pub fn total_count(rows: &[Flat]) -> u64 {
    rows.iter().map(|(_, values)| values[0] as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vagg_datagen::{DatasetSpec, Distribution};

    /// `SELECT g, COUNT(*), SUM(v) … GROUP BY g` as `(groups, counts,
    /// sums)` — the shape of [`vagg_core::AggResult`].
    fn count_sum_by_g(g: &[u32], v: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let groups = group_by(g.iter().copied().zip(v.iter().copied()));
        (
            groups.keys().copied().collect(),
            groups.values().map(|a| a.count as u32).collect(),
            groups.values().map(|a| a.sum as u32).collect(),
        )
    }

    #[test]
    fn host_oracle_agrees_with_the_core_reference_on_a_small_grid() {
        for dist in Distribution::ALL {
            for cardinality in [9, 152, 2441] {
                let ds = DatasetSpec::paper(dist, cardinality)
                    .with_rows(700)
                    .with_seed(5)
                    .generate();
                let reference = vagg_core::reference(&ds.g, &ds.v);
                let (groups, counts, sums) = count_sum_by_g(&ds.g, &ds.v);
                assert_eq!(groups, reference.groups, "{} {cardinality}", dist.name());
                assert_eq!(counts, reference.counts);
                assert_eq!(sums, reference.sums);
            }
        }
    }

    fn tiny() -> (Events, Dims) {
        let mut e = Events::generate(0, 0, 0);
        for row in [[1, 0, 10, 0], [2, 1, 20, 1], [1, 1, 30, 2], [3, 0, 5, 3]] {
            e.push(row);
        }
        let dims = Dims {
            g: vec![1, 2, 1],
            w: vec![7, 9, 1],
        };
        (e, dims)
    }

    #[test]
    fn expected_rows_by_hand() {
        let (e, d) = tiny();
        assert_eq!(
            expected(Stmt::Full, &e, &d)[0],
            (vec![1], vec![2.0, 40.0, 10.0, 30.0, 20.0])
        );
        assert_eq!(
            expected(Stmt::Filter { gt: 10 }, &e, &d),
            vec![(vec![1], vec![1.0, 30.0]), (vec![2], vec![1.0, 20.0])]
        );
        assert_eq!(
            expected(Stmt::Pruned { lt: 2 }, &e, &d),
            vec![(vec![1], vec![1.0, 10.0]), (vec![2], vec![1.0, 20.0])]
        );
        assert_eq!(expected(Stmt::Composite, &e, &d).len(), 4);
        assert_eq!(expected(Stmt::Composite, &e, &d)[1].0, vec![1, 1]);
        // g=1 matches two dims rows (w 7 and 1), g=2 one, g=3 none.
        assert_eq!(
            expected(Stmt::Join, &e, &d),
            vec![(vec![1], vec![4.0, 16.0]), (vec![2], vec![1.0, 9.0])]
        );
        assert_eq!(
            expected(Stmt::Tail { having_gt: 1 }, &e, &d),
            vec![(vec![1], vec![2.0, 40.0])]
        );
        assert_eq!(total_count(&expected(Stmt::Full, &e, &d)), 4);
    }

    #[test]
    fn a_wrong_answer_is_a_mismatch() {
        let (e, d) = tiny();
        let want = expected(Stmt::Full, &e, &d);
        assert!(matches(Stmt::Full, &want, &want));
        let mut wrong = want.clone();
        wrong[0].1[1] += 1.0;
        assert!(!matches(Stmt::Full, &wrong, &want));
        assert!(!matches(Stmt::Full, &want[1..], &want));
    }

    #[test]
    fn tail_accepts_either_tie_order_but_not_a_wrong_top() {
        let stmt = Stmt::Tail { having_gt: 0 };
        let want: Vec<Flat> = (0..12)
            .map(|g| (vec![g], vec![1.0, f64::from(g / 2)]))
            .collect();
        // Sums descending: 5,5,4,4,3,3,2,2,1,1 — groups 11..2.
        let got: Vec<Flat> = (2..12).rev().map(|g| want[g].clone()).collect();
        assert!(matches(stmt, &got, &want));
        let mut swapped = got.clone();
        swapped.swap(0, 1); // the two sum-5 groups, other order
        assert!(matches(stmt, &swapped, &want));
        let mut wrong = got.clone();
        wrong[9] = want[0].clone(); // sum 0 is not in the top ten
        assert!(!matches(stmt, &wrong, &want));
        assert!(!matches(stmt, &got[..9], &want));
    }
}
