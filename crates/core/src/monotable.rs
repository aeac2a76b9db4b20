//! Monotable — confrontation technique #2 (§V-B), the paper's headline
//! algorithm.
//!
//! A vectorised translation of the scalar baseline that keeps a **single**
//! (non-replicated) pair of tables, preserving whatever cache locality the
//! input has. GMS conflicts are resolved entirely in registers before any
//! memory access, using the paper's new `VGAsum` instruction together with
//! `VLU` (the Figure 15 kernel):
//!
//! ```text
//! v2 ← vgasum(v0, v1)       ; running per-group partial sums
//! m0 ← vlu(v0)              ; last instance of each group
//! v3 ← gather(table, v0, m0)
//! v4 ← vadd(v2, v3)
//! scatter(table, v0, v4, m0)
//! ```
//!
//! At each group's *last* in-register instance, the `VGAsum` output equals
//! the group's total within the register, so one masked gather/add/scatter
//! per table suffices and the scatter indices are conflict-free.

use crate::compact::compact_tables;
use crate::input::{vector_max_scan, OutputTable, StagedInput};
use vagg_isa::{BinOp, Mreg, RedOp, Vreg};
use vagg_sim::Machine;

const VG: Vreg = Vreg(0); // group keys
const VV: Vreg = Vreg(1); // values
const VA: Vreg = Vreg(2); // running group sums (VGAsum out)
const VTS: Vreg = Vreg(3); // sum-table values
const VTC: Vreg = Vreg(4); // count-table values
const VC: Vreg = Vreg(5); // running group counts (VGAsum of ones)
const VZ: Vreg = Vreg(6); // zero
const VONE: Vreg = Vreg(7); // all-ones (hoisted)
const M0: Mreg = Mreg(0); // VLU mask

/// The single pair of tables, live in simulated memory between
/// [`open`] and [`close`].
#[derive(Debug, Clone, Copy)]
pub struct Tables {
    count: u64,
    sum: u64,
    cells: usize,
}

impl Tables {
    /// Keys the tables have a cell for: `0..cells`.
    pub fn cells(&self) -> usize {
        self.cells
    }
}

/// Step 2: allocates the pair of tables for keys `0..cells` and clears
/// them with vector stores, the first of which waits on `tok`.
pub fn open(m: &mut Machine, cells: usize, tok: vagg_sim::Tok) -> Tables {
    let mvl = m.mvl();
    let count = m.space_mut().alloc(4 * cells as u64, 64);
    let sum = m.space_mut().alloc(4 * cells as u64, 64);
    m.set_vl(mvl);
    m.vset(VZ, 0, None);
    let mut t = tok;
    for i in (0..cells).step_by(mvl) {
        let vl = (cells - i).min(mvl);
        if vl != m.vl() {
            m.set_vl(vl);
        }
        t = m.vstore_unit(VZ, count + 4 * i as u64, 4, t);
        m.vstore_unit(VZ, sum + 4 * i as u64, 4, t);
    }
    Tables { count, sum, cells }
}

/// Step 3: the Figure 15 loop over the `n` staged rows at `g`/`v`, once
/// per table, into the live tables. Every key must be below
/// [`Tables::cells`]; any number of updates may run between one
/// [`open`] and its [`close`].
pub fn update(m: &mut Machine, tables: &Tables, g: u64, v: u64, n: usize) {
    let mvl = m.mvl();
    // All-ones vector, hoisted: VGAsum over it yields running group
    // counts (§VI-B notes VGAsum generalises VPI this way), letting the
    // count and sum updates proceed as two independent dependency chains
    // on the two vector FUs.
    m.set_vl(mvl);
    m.vset(VONE, 1, None);

    for start in (0..n).step_by(mvl) {
        let vl = (n - start).min(mvl);
        m.set_vl(vl);
        let lt = m.s_op(0);
        m.vload_unit(VG, g + 4 * start as u64, 4, lt);
        m.vload_unit(VV, v + 4 * start as u64, 4, lt);
        m.vga(RedOp::Sum, VA, VG, VV); // running group sums
        m.vga(RedOp::Sum, VC, VG, VONE); // running group counts
        m.vlu(M0, VG); // last instances
                       // sum[g] += group sum (masked to last instances: conflict-free).
        m.vgather(VTS, tables.sum, VG, 4, Some(M0), 0);
        m.vbinop_vv(BinOp::Add, VTS, VTS, VA, Some(M0));
        m.vscatter(VTS, tables.sum, VG, 4, Some(M0), 0);
        // count[g] += group count.
        m.vgather(VTC, tables.count, VG, 4, Some(M0), 0);
        m.vbinop_vv(BinOp::Add, VTC, VTC, VC, Some(M0));
        m.vscatter(VTC, tables.count, VG, 4, Some(M0), 0);
    }
}

/// Step 4: compacts the tables into a fresh output table. Returns it
/// and its row count.
pub fn close(m: &mut Machine, tables: &Tables) -> (OutputTable, usize) {
    let out = OutputTable::alloc(m, tables.cells);
    let rows = compact_tables(m, tables.count, tables.sum, tables.cells, &out);
    (out, rows)
}

/// Runs monotable on already-staged input columns at `g`/`v` (used both
/// directly and by partially-sorted monotable after its partial sort):
/// one [`open`], one [`update`], one [`close`]. Returns the output
/// table and row count.
pub fn monotable_on(
    m: &mut Machine,
    g: u64,
    v: u64,
    n: usize,
    maxg: u32,
    tok: vagg_sim::Tok,
) -> (OutputTable, usize) {
    let tables = open(m, maxg as usize + 1, tok);
    update(m, &tables, g, v, n);
    close(m, &tables)
}

/// Runs the full monotable algorithm on a staged input.
pub fn monotable_aggregate(m: &mut Machine, input: &StagedInput) -> (OutputTable, usize) {
    let (maxg, tok) = if input.presorted {
        crate::input::presorted_max(m, input)
    } else {
        vector_max_scan(m, input)
    };
    monotable_on(m, input.g, input.v, input.n, maxg, tok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::reference;

    fn run(g: Vec<u32>, v: Vec<u32>, presorted: bool) -> (crate::result::AggResult, u64) {
        let mut m = Machine::paper();
        let st = StagedInput::stage_raw(&mut m, &g, &v, presorted);
        let (out, rows) = monotable_aggregate(&mut m, &st);
        let r = out.read(&m, rows);
        r.validate(g.len()).unwrap();
        assert_eq!(r, reference(&g, &v));
        (r, m.cycles())
    }

    #[test]
    fn matches_reference_small() {
        run(
            vec![1, 3, 3, 0, 0, 5, 2, 4],
            vec![0, 5, 2, 4, 1, 3, 3, 0],
            false,
        );
    }

    #[test]
    fn figure13_vector_aggregates_correctly() {
        let g = vec![7u32, 5, 5, 5, 11, 9, 9, 11];
        let v = vec![6u32, 3, 4, 9, 15, 2, 3, 4];
        let (r, _) = run(g, v, false);
        assert_eq!(r.groups, vec![5, 7, 9, 11]);
        assert_eq!(r.counts, vec![3, 1, 2, 2]);
        assert_eq!(r.sums, vec![16, 6, 5, 19]);
    }

    #[test]
    fn heavy_duplication_within_vectors() {
        // Single group: worst-case CAM conflicts, still correct.
        run(vec![9; 200], (0..200).map(|i| i % 10).collect(), false);
    }

    #[test]
    fn matches_reference_multi_chunk() {
        let n = 3000u32;
        let g: Vec<u32> = (0..n).map(|i| (i * 7919) % 211).collect();
        let v: Vec<u32> = (0..n).map(|i| i % 10).collect();
        run(g, v, false);
    }

    #[test]
    fn groups_spanning_chunk_boundaries_accumulate() {
        // Group 5 appears in many different 64-element chunks.
        let n = 640usize;
        let g: Vec<u32> = (0..n)
            .map(|i| if i % 7 == 0 { 5 } else { (i % 50) as u32 })
            .collect();
        let v: Vec<u32> = vec![1; n];
        run(g, v, false);
    }

    #[test]
    fn sparse_keys() {
        run(vec![1000, 0, 1000, 512], vec![1, 2, 3, 4], false);
    }

    #[test]
    fn n_smaller_than_mvl() {
        run(vec![2, 2, 1], vec![3, 4, 5], false);
    }

    #[test]
    fn beats_scalar_at_low_cardinality() {
        // Table VII: monotable achieves ~3.8-4.1× in `low`.
        let n = 8192usize;
        let g: Vec<u32> = (0..n)
            .map(|i| ((i as u64 * 2654435761) % 64) as u32)
            .collect();
        let v: Vec<u32> = (0..n).map(|i| (i % 10) as u32).collect();

        let (_, mono) = run(g.clone(), v.clone(), false);

        let mut m = Machine::paper();
        let st = StagedInput::stage_raw(&mut m, &g, &v, false);
        crate::scalar::scalar_aggregate(&mut m, &st);
        let scalar = m.cycles();
        assert!(
            mono < scalar,
            "monotable ({mono}) should beat scalar ({scalar}) at c=64"
        );
    }

    #[test]
    fn beats_polytable_at_high_cardinality() {
        // §V-B: monotable "beat[s] the polytable method in every case" for
        // the higher cardinalities.
        let n = 4096usize;
        let c = 50_000u64;
        let g: Vec<u32> = (0..n)
            .map(|i| ((i as u64 * 2654435761) % c) as u32)
            .collect();
        let v: Vec<u32> = (0..n).map(|i| (i % 10) as u32).collect();

        let (_, mono) = run(g.clone(), v.clone(), false);

        let mut m = Machine::paper();
        let st = StagedInput::stage_raw(&mut m, &g, &v, false);
        crate::polytable::polytable_aggregate(&mut m, &st);
        let poly = m.cycles();
        assert!(
            mono < poly,
            "monotable ({mono}) should beat polytable ({poly}) at c=50k"
        );
    }
}
