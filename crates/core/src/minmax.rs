//! Extended aggregation using the full VGAx family (§V-B / §VI-B).
//!
//! The paper defines three Vector Group Aggregate instructions — `VGAsum`,
//! `VGAmin` and `VGAmax` — but its evaluation only exercises `VGAsum`
//! (COUNT + SUM). This module implements the natural extension the
//! instructions were designed for:
//!
//! ```sql
//! SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM r GROUP BY g
//! ```
//!
//! as a monotable-style kernel with four single tables updated per chunk,
//! each through its own `VGAx` + masked gather/combine/scatter chain. The
//! min table is initialised to `u32::MAX` (the identity of `min`), and the
//! combine step uses `vmax`/element-wise minimum instead of `vadd`.

use crate::compact::compact_tables;
use crate::input::{vector_max_scan, OutputTable, StagedInput};
use crate::result::AggResult;
use vagg_isa::{BinOp, Mreg, RedOp, Vreg};
use vagg_sim::Machine;

const VG: Vreg = Vreg(0); // group keys
const VV: Vreg = Vreg(1); // values
const VA: Vreg = Vreg(2); // running sums
const VC: Vreg = Vreg(3); // running counts
const VMIN: Vreg = Vreg(4); // running minima
const VMAX: Vreg = Vreg(5); // running maxima
const VT: Vreg = Vreg(6); // table values (sum)
const VT2: Vreg = Vreg(7); // table values (count)
const VT3: Vreg = Vreg(8); // table values (min)
const VT4: Vreg = Vreg(9); // table values (max)
const VONE: Vreg = Vreg(10); // ones
const VFILL: Vreg = Vreg(11); // min-identity fill
const VSUMAB: Vreg = Vreg(12); // min-combine scratch (a + b)
const M0: Mreg = Mreg(0); // VLU mask

/// The five-column extended result, ordered by group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinMaxResult {
    /// The COUNT/SUM columns (shared layout with [`AggResult`]).
    pub base: AggResult,
    /// `MIN(v)` per group.
    pub mins: Vec<u32>,
    /// `MAX(v)` per group.
    pub maxs: Vec<u32>,
}

/// Host-side oracle for the extended query.
pub fn reference_minmax(g: &[u32], v: &[u32]) -> MinMaxResult {
    let base = crate::result::reference(g, v);
    let mut mins = vec![u32::MAX; base.len()];
    let mut maxs = vec![0u32; base.len()];
    for (&k, &x) in g.iter().zip(v) {
        let i = base.groups.binary_search(&k).expect("group present");
        mins[i] = mins[i].min(x);
        maxs[i] = maxs[i].max(x);
    }
    MinMaxResult { base, mins, maxs }
}

/// The four tables, live in simulated memory between [`open`] and
/// [`close`].
#[derive(Debug, Clone, Copy)]
pub struct Tables {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    cells: usize,
}

impl Tables {
    /// Keys the tables have a cell for: `0..cells`.
    pub fn cells(&self) -> usize {
        self.cells
    }
}

/// Allocates the four tables for keys `0..cells` and clears them —
/// zeros for count/sum/max, the min identity for min — with vector
/// stores, the first of which waits on `tok`.
pub fn open(m: &mut Machine, cells: usize, tok: vagg_sim::Tok) -> Tables {
    let mvl = m.mvl();
    let bytes = 4 * cells as u64;
    let count = m.space_mut().alloc(bytes, 64);
    let sum = m.space_mut().alloc(bytes, 64);
    let min = m.space_mut().alloc(bytes, 64);
    let max = m.space_mut().alloc(bytes, 64);

    m.set_vl(mvl);
    m.vset(VT, 0, None);
    m.vset(VFILL, u32::MAX as u64, None);
    let mut t = tok;
    for i in (0..cells).step_by(mvl) {
        let vl = (cells - i).min(mvl);
        if vl != m.vl() {
            m.set_vl(vl);
        }
        let off = 4 * i as u64;
        t = m.vstore_unit(VT, count + off, 4, t);
        m.vstore_unit(VT, sum + off, 4, t);
        m.vstore_unit(VT, max + off, 4, t);
        m.vstore_unit(VFILL, min + off, 4, t);
    }
    Tables {
        count,
        sum,
        min,
        max,
        cells,
    }
}

/// The main loop over the `n` staged rows at `g`/`v` — one VGAx chain
/// per aggregate — into the live tables. Every key must be below
/// [`Tables::cells`]; any number of updates may run between one
/// [`open`] and its [`close`].
pub fn update(m: &mut Machine, tables: &Tables, g: u64, v: u64, n: usize) {
    let mvl = m.mvl();
    m.set_vl(mvl);
    m.vset(VONE, 1, None);

    for start in (0..n).step_by(mvl) {
        let vl = (n - start).min(mvl);
        m.set_vl(vl);
        let lt = m.s_op(0);
        m.vload_unit(VG, g + 4 * start as u64, 4, lt);
        m.vload_unit(VV, v + 4 * start as u64, 4, lt);
        m.vga(RedOp::Sum, VA, VG, VV);
        m.vga(RedOp::Sum, VC, VG, VONE);
        m.vga(RedOp::Min, VMIN, VG, VV);
        m.vga(RedOp::Max, VMAX, VG, VV);
        m.vlu(M0, VG);

        m.vgather(VT, tables.sum, VG, 4, Some(M0), 0);
        m.vbinop_vv(BinOp::Add, VT, VT, VA, Some(M0));
        m.vscatter(VT, tables.sum, VG, 4, Some(M0), 0);

        m.vgather(VT2, tables.count, VG, 4, Some(M0), 0);
        m.vbinop_vv(BinOp::Add, VT2, VT2, VC, Some(M0));
        m.vscatter(VT2, tables.count, VG, 4, Some(M0), 0);

        // min[g] = min(min[g], group minimum). Table III has no vmin, but
        // for u32 values held in u64 lanes min(a,b) = a + b − max(a,b)
        // computes it exactly in three instructions.
        m.vgather(VT3, tables.min, VG, 4, Some(M0), 0);
        m.vbinop_vv(BinOp::Add, VSUMAB, VT3, VMIN, None);
        m.vbinop_vv(BinOp::Max, VT3, VT3, VMIN, None);
        m.vbinop_vv(BinOp::Sub, VT3, VSUMAB, VT3, None);
        m.vscatter(VT3, tables.min, VG, 4, Some(M0), 0);

        m.vgather(VT4, tables.max, VG, 4, Some(M0), 0);
        m.vbinop_vv(BinOp::Max, VT4, VT4, VMAX, Some(M0));
        m.vscatter(VT4, tables.max, VG, 4, Some(M0), 0);
    }
}

/// Compacts via the shared COUNT/SUM path, then reads the min/max
/// columns of the surviving groups with scalar loads; returns the
/// result read back from simulated memory.
pub fn close(m: &mut Machine, tables: &Tables) -> MinMaxResult {
    let out = OutputTable::alloc(m, tables.cells);
    let rows = compact_tables(m, tables.count, tables.sum, tables.cells, &out);
    let base = out.read(m, rows);
    let mut mins = Vec::with_capacity(rows);
    let mut maxs = Vec::with_capacity(rows);
    let mut tok = 0;
    for &g in &base.groups {
        let (mn, t1) = m.s_load_u32(tables.min + 4 * g as u64, tok);
        let (mx, t2) = m.s_load_u32(tables.max + 4 * g as u64, tok);
        tok = t1.max(t2);
        mins.push(mn);
        maxs.push(mx);
    }
    MinMaxResult { base, mins, maxs }
}

/// Runs the extended monotable kernel — the §III-A scan, then one
/// [`open`], one [`update`], one [`close`]; returns the result read
/// back from simulated memory.
pub fn minmax_aggregate(m: &mut Machine, input: &StagedInput) -> MinMaxResult {
    let (maxg, tok) = if input.presorted {
        crate::input::presorted_max(m, input)
    } else {
        vector_max_scan(m, input)
    };
    let tables = open(m, maxg as usize + 1, tok);
    update(m, &tables, input.g, input.v, input.n);
    close(m, &tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(g: Vec<u32>, v: Vec<u32>) {
        let mut m = Machine::paper();
        let input = StagedInput::stage_raw(&mut m, &g, &v, false);
        let got = minmax_aggregate(&mut m, &input);
        assert_eq!(got, reference_minmax(&g, &v));
    }

    #[test]
    fn figure13_extended() {
        run(
            vec![7, 5, 5, 5, 11, 9, 9, 11],
            vec![6, 3, 4, 9, 15, 2, 3, 4],
        );
    }

    #[test]
    fn multi_chunk_minmax() {
        let n = 2000u32;
        let g: Vec<u32> = (0..n).map(|i| (i * 7919) % 97).collect();
        let v: Vec<u32> = (0..n).map(|i| (i * 31) % 1000).collect();
        run(g, v);
    }

    #[test]
    fn single_group_extremes() {
        run(vec![3; 100], (0..100).collect());
    }

    #[test]
    fn zero_values_are_valid_minima() {
        run(vec![1, 1, 2], vec![0, 5, 0]);
    }

    #[test]
    fn sparse_groups() {
        run(vec![1000, 4, 1000, 4], vec![9, 1, 2, 8]);
    }
}
