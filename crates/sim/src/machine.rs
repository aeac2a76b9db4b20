//! The simulated machine: functional vector execution fused with the
//! paper's cycle accounting.
//!
//! A [`Machine`] owns the simulated address space, the memory hierarchy, the
//! out-of-order pipeline model and the architectural vector state. Kernels
//! (the aggregation algorithms, the sorts) are written against its
//! instruction-shaped API; every call performs the functional semantics
//! *and* dispatches a micro-op into the timing model, so
//! [`Machine::cycles`] reflects the paper's performance model:
//!
//! * scalar memory ops walk L1 → L2 → DRAM, vector memory ops bypass the L1;
//! * unit-stride/strided address generation costs one cycle per cache line,
//!   indexed (gather/scatter) costs `VL/lanes` cycles;
//! * elementwise vector ops occupy a vector FU for `VL/lanes` cycles,
//!   reductions add `log2(lanes)` interlane cycles;
//! * VPI/VLU/VGAx occupy the CAM for 2 cycles per conflict-free slice of
//!   `p` adjacent elements.
//!
//! Data dependencies are expressed with [`Tok`] tokens (the cycle a value is
//! ready). Vector/mask register dependencies are tracked automatically; the
//! tokens returned by scalar operations let kernels express scalar
//! dataflow (e.g. a loaded group key feeding an address).

use crate::config::SimConfig;
use crate::memory::AddressSpace;
use crate::trace::{Trace, TraceClass};
use vagg_cpu::{FuKind, Pipeline};
use vagg_isa::cam::Cam;
use vagg_isa::conflict::MaskLogic;
use vagg_isa::exec::{self, BinOp, CmpOp, RedOp};
use vagg_isa::inst::{MemPattern, VecOpTiming};
use vagg_isa::irregular;
use vagg_isa::reg::{MaskData, Mreg, VectorData, VectorFile, Vreg, NUM_MASKS, NUM_VREGS};
use vagg_mem::{HierarchyStats, MemoryHierarchy};

/// A readiness token: the simulated cycle at which a value is available.
/// `0` means "ready from the start".
pub type Tok = u64;

/// Aggregate statistics for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles (last commit).
    pub cycles: u64,
    /// Micro-ops dispatched.
    pub ops: u64,
    /// Memory hierarchy counters.
    pub mem: HierarchyStats,
    /// Dynamic instruction mix.
    pub mix: OpMix,
}

/// Dynamic instruction-mix counters — which instructions an algorithm
/// actually executed, the analysis behind the paper's §IV/§V discussion
/// of where each technique spends its work (e.g. "the average vector
/// length is reduced to values below the MVL in `high`", §V-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMix {
    /// Scalar ALU micro-ops.
    pub scalar_arith: u64,
    /// Scalar loads.
    pub scalar_loads: u64,
    /// Scalar stores.
    pub scalar_stores: u64,
    /// Element-wise vector instructions (arithmetic, logic, comparisons,
    /// initialisation, compress/expand).
    pub v_elementwise: u64,
    /// Vector reductions.
    pub v_reductions: u64,
    /// Mask instructions (popcount, logic, moves).
    pub v_mask_ops: u64,
    /// Vector↔scalar element transfers (`vgetelem`/`vsetelem`).
    pub v_scalar_xfer: u64,
    /// CAM-backed irregular-DLP instructions (VPI, VLU, VGAx).
    pub v_cam: u64,
    /// Unit-stride vector loads.
    pub v_unit_loads: u64,
    /// Strided vector loads.
    pub v_strided_loads: u64,
    /// Indexed vector loads (gathers).
    pub v_gathers: u64,
    /// Unit-stride vector stores.
    pub v_unit_stores: u64,
    /// Strided vector stores.
    pub v_strided_stores: u64,
    /// Indexed vector stores (scatters).
    pub v_scatters: u64,
    /// Memory-side scatter-add instructions (§VI-B comparator).
    pub v_scatter_adds: u64,
    /// Vector prefetches (any access pattern).
    pub v_prefetches: u64,
    /// Total elements processed by vector instructions (sum of VL), the
    /// numerator of [`OpMix::avg_vl`].
    pub v_elements: u64,
}

impl OpMix {
    /// Vector instructions of every class (memory + compute + CAM),
    /// excluding mask bookkeeping and element transfers.
    pub fn vector_ops(&self) -> u64 {
        self.v_elementwise
            + self.v_reductions
            + self.v_cam
            + self.v_unit_loads
            + self.v_strided_loads
            + self.v_gathers
            + self.v_unit_stores
            + self.v_strided_stores
            + self.v_scatters
            + self.v_scatter_adds
            + self.v_prefetches
    }

    /// Scalar micro-ops of every class.
    pub fn scalar_ops(&self) -> u64 {
        self.scalar_arith + self.scalar_loads + self.scalar_stores
    }

    /// Average vector length across all counted vector instructions —
    /// the utilisation measure behind the paper's `high`-division
    /// serialisation effects.
    pub fn avg_vl(&self) -> f64 {
        let n = self.vector_ops();
        if n == 0 {
            0.0
        } else {
            self.v_elements as f64 / n as f64
        }
    }
}

/// The simulated machine (see module docs).
pub struct Machine {
    cfg: SimConfig,
    space: AddressSpace,
    hier: MemoryHierarchy,
    pipe: Pipeline,
    vf: VectorFile,
    vreg_ready: [Tok; NUM_VREGS],
    mask_ready: [Tok; NUM_MASKS],
    vl_ready: Tok,
    /// Conservative memory disambiguation (as in PTLsim): a scalar load
    /// may not issue until every older scalar store's address is known.
    last_store_agu: Tok,
    mix: OpMix,
    trace: Option<Trace>,
    /// Stand-ins for a source register that is also the destination (see
    /// [`dst_and_srcs`]); MVL elements each, reused by every instruction.
    alias_v: Vec<u64>,
    alias_m: Vec<bool>,
    /// The one CAM behind `vpi` / `vlu` / `vga*`.
    cam: Cam,
    /// The line list of the vector memory instruction in flight
    /// ([`Machine::agen`]) and the offset vector of an indexed one
    /// ([`Machine::indexed_pattern`]); capacity kept from instruction to
    /// instruction, so none of them allocates (`tests/no_alloc.rs`).
    lines: Vec<u64>,
    offsets: Vec<u64>,
    /// The last indexed line list `agen` built, for the next indexed
    /// instruction over the same index vector.
    indexed_lines: IndexedLines,
}

/// The line list of the last indexed pattern, and what it depends on.
///
/// [`MemPattern::lines_into`] ignores the mask, so an indexed pattern's
/// line list is a function of its base, element width and offsets (and
/// the line size, fixed per machine). The Figure 15 loop lists one index
/// vector over and over: a scatter lists the lines its gather just
/// listed, and the next table's gather lists them a whole number of
/// lines further on. The first is the same list; the second is the same
/// list with every line moved by that number — a bijection on lines, so
/// first-touch order and dedupe carry over — provided no element's
/// bytes wrap past `u64::MAX` at either base. Anything else is built
/// afresh (`differential_tests::indexed_lines_as_built_afresh`).
#[derive(Debug)]
struct IndexedLines {
    line: u64,
    /// Whether `offsets`, `elem_bytes`, `base` and `lines` describe a
    /// built list.
    valid: bool,
    offsets: Vec<u64>,
    elem_bytes: u64,
    base: u64,
    /// The largest `offset + elem_bytes - 1`, if no sum overflows: the
    /// list may move to a base `b` if `b + reach` does not overflow.
    reach: Option<u64>,
    lines: Vec<u64>,
}

impl IndexedLines {
    /// Buffers for vectors of up to `mvl` elements over `line`-byte lines.
    fn new(mvl: usize, line: u64) -> Self {
        Self {
            line,
            valid: false,
            offsets: Vec::with_capacity(mvl),
            elem_bytes: 0,
            base: 0,
            reach: None,
            // An element no wider than a line touches at most two.
            lines: Vec::with_capacity(2 * mvl),
        }
    }

    /// The line list of the elements at `base + offsets[i]`,
    /// `elem_bytes` wide, into `out`: what [`MemPattern::lines_into`]
    /// builds for that pattern.
    fn lines_into(&mut self, pattern: &MemPattern, vl: usize, out: &mut Vec<u64>) {
        let MemPattern::Indexed {
            base,
            offsets,
            elem_bytes,
        } = pattern
        else {
            unreachable!("an indexed pattern");
        };
        let (base, offsets, elem_bytes) = (*base, &offsets[..vl], *elem_bytes);
        if !(self.valid && self.elem_bytes == elem_bytes && self.offsets[..] == *offsets) {
            pattern.lines_into(vl, self.line, &mut self.lines);
            self.offsets.clear();
            self.offsets.extend_from_slice(offsets);
            self.elem_bytes = elem_bytes;
            self.base = base;
            self.reach = offsets.iter().try_fold(0, |reach: u64, &o| {
                Some(reach.max(o.checked_add(elem_bytes.max(1) - 1)?))
            });
            self.valid = true;
        } else if base != self.base {
            let fits = |b: u64| {
                self.reach
                    .is_some_and(|reach| b.checked_add(reach).is_some())
            };
            let delta = base.abs_diff(self.base);
            if delta % self.line == 0 && fits(base) && fits(self.base) {
                let lines = delta / self.line;
                if base > self.base {
                    self.lines.iter_mut().for_each(|l| *l += lines);
                } else {
                    self.lines.iter_mut().for_each(|l| *l -= lines);
                }
            } else {
                pattern.lines_into(vl, self.line, &mut self.lines);
            }
            self.base = base;
        }
        out.clear();
        out.extend_from_slice(&self.lines);
    }
}

/// One register of either bank, as its elements.
trait Reg {
    type Elem: Copy;
    fn elems(&self) -> &[Self::Elem];
    fn elems_mut(&mut self) -> &mut [Self::Elem];
}

impl Reg for VectorData {
    type Elem = u64;
    fn elems(&self) -> &[u64] {
        self.as_slice()
    }
    fn elems_mut(&mut self) -> &mut [u64] {
        self.as_mut_slice()
    }
}

impl Reg for MaskData {
    type Elem = bool;
    fn elems(&self) -> &[bool] {
        self.as_slice()
    }
    fn elems_mut(&mut self) -> &mut [bool] {
        self.as_mut_slice()
    }
}

/// Borrows register `dst` of `bank` for writing and registers `srcs` for
/// reading, in place. A source that *is* the destination reads `alias`
/// instead, into which the destination's old contents are copied first —
/// the one case that still costs a copy, and never an allocation.
fn dst_and_srcs<'a, R: Reg, const N: usize>(
    bank: &'a mut [R],
    alias: &'a mut Vec<R::Elem>,
    dst: u8,
    srcs: [u8; N],
) -> (&'a mut [R::Elem], [&'a [R::Elem]; N]) {
    let dst = usize::from(dst);
    if srcs.iter().any(|&s| usize::from(s) == dst) {
        alias.clear();
        alias.extend_from_slice(bank[dst].elems());
    }
    let (below, rest) = bank.split_at_mut(dst);
    let (d, above) = rest.split_first_mut().expect("register number in range");
    let (below, above, alias) = (&*below, &*above, alias.as_slice());
    let srcs = srcs.map(|s| {
        let s = usize::from(s);
        match s.cmp(&dst) {
            std::cmp::Ordering::Less => below[s].elems(),
            std::cmp::Ordering::Equal => alias,
            std::cmp::Ordering::Greater => above[s - dst - 1].elems(),
        }
    });
    (d.elems_mut(), srcs)
}

/// [`dst_and_srcs`] over the mask bank for an instruction that writes
/// mask `md` under an optional governing mask `m`.
fn mask_dst_and_governor<'a>(
    masks: &'a mut [MaskData],
    alias: &'a mut Vec<bool>,
    md: Mreg,
    m: Option<Mreg>,
) -> (&'a mut [bool], Option<&'a [bool]>) {
    match m {
        Some(m) => {
            let (dst, [governor]) = dst_and_srcs(masks, alias, md.0, [m.0]);
            (dst, Some(governor))
        }
        None => (masks[usize::from(md.0)].as_mut_slice(), None),
    }
}

fn mask_of(masks: &[MaskData], m: Option<Mreg>) -> Option<&[bool]> {
    m.map(|m| masks[usize::from(m.0)].as_slice())
}

/// The address a vector memory instruction's trace event carries:
/// element 0's, which an indexed access of no elements does not have.
fn traced_address(pattern: &MemPattern, vl: usize) -> Option<u64> {
    match pattern {
        MemPattern::Indexed { .. } if vl == 0 => None,
        _ => Some(pattern.address(0)),
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            vf: VectorFile::new(cfg.mvl),
            hier: MemoryHierarchy::new(cfg.mem.clone()),
            pipe: Pipeline::new(cfg.cpu.clone()),
            space: AddressSpace::new(),
            vreg_ready: [0; NUM_VREGS],
            mask_ready: [0; NUM_MASKS],
            vl_ready: 0,
            last_store_agu: 0,
            mix: OpMix::default(),
            trace: None,
            alias_v: Vec::with_capacity(cfg.mvl),
            alias_m: Vec::with_capacity(cfg.mvl),
            cam: Cam::new(cfg.mvl, cfg.cam_ports),
            lines: Vec::new(),
            offsets: Vec::with_capacity(cfg.mvl),
            indexed_lines: IndexedLines::new(cfg.mvl, cfg.mem.line_bytes),
            cfg,
        }
    }

    /// The paper's configuration (MVL 64, 4 lanes).
    pub fn paper() -> Self {
        Self::new(SimConfig::paper())
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Maximum vector length.
    pub fn mvl(&self) -> usize {
        self.cfg.mvl
    }

    /// Current vector length.
    pub fn vl(&self) -> usize {
        self.vf.vl()
    }

    /// Total simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.pipe.cycles()
    }

    /// Simulation counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.pipe.cycles(),
            ops: self.pipe.ops(),
            mem: self.hier.stats(),
            mix: self.mix,
        }
    }

    /// The dynamic instruction mix so far.
    pub fn mix(&self) -> OpMix {
        self.mix
    }

    /// Starts recording an instruction trace, keeping the first
    /// `capacity` events (see [`Trace`]). Replaces any active trace.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Stops tracing and returns the recorded trace, if any.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// The active trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Functional-unit utilisation per cluster family: `(name, busy
    /// fraction)` over the elapsed cycles — which execution resource an
    /// algorithm actually saturates (e.g. the §V-A average-vector-length
    /// collapse shows up as vec-exec utilisation falling with
    /// cardinality).
    pub fn fu_utilization(&self) -> [(&'static str, f64); 6] {
        let mut out = [("", 0.0); 6];
        for (slot, &kind) in out.iter_mut().zip(FuKind::ALL.iter()) {
            *slot = (kind.name(), self.pipe.utilization_of_kind(kind));
        }
        out
    }

    #[inline]
    fn emit(
        &mut self,
        mnemonic: &'static str,
        class: TraceClass,
        vl: usize,
        done: Tok,
        addr: Option<u64>,
        lines: Option<usize>,
    ) {
        if let Some(t) = self.trace.as_mut() {
            t.record(mnemonic, class, vl, done, addr, lines);
        }
    }

    /// Host-side (untimed) access to the simulated memory, for staging
    /// inputs and reading back results.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Host-side mutable access to the simulated memory.
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn mask_dep(&self, m: Option<Mreg>) -> Tok {
        m.map_or(0, |m| self.mask_ready[m.0 as usize])
    }

    // Dispatch a non-memory vector op and account its completion.
    fn vec_op(
        &mut self,
        name: &'static str,
        timing: VecOpTiming,
        cam_cycles: u64,
        deps: Tok,
    ) -> (Tok, Tok) {
        match timing {
            VecOpTiming::Elementwise => {
                self.mix.v_elementwise += 1;
                self.mix.v_elements += self.vf.vl() as u64;
            }
            VecOpTiming::Reduction => {
                self.mix.v_reductions += 1;
                self.mix.v_elements += self.vf.vl() as u64;
            }
            VecOpTiming::Cam => {
                self.mix.v_cam += 1;
                self.mix.v_elements += self.vf.vl() as u64;
            }
            VecOpTiming::MaskOp => self.mix.v_mask_ops += 1,
            VecOpTiming::Scalar => self.mix.v_scalar_xfer += 1,
        }
        let occ = timing.occupancy(self.vf.vl(), self.cfg.lanes, cam_cycles);
        let start = self.pipe.dispatch(FuKind::VecArith, occ, deps);
        let done = start + occ;
        self.pipe.retire(done);
        let class = match timing {
            VecOpTiming::Elementwise => TraceClass::VecCompute,
            VecOpTiming::Reduction => TraceClass::VecReduction,
            VecOpTiming::Cam => TraceClass::Cam,
            VecOpTiming::MaskOp => TraceClass::MaskOp,
            VecOpTiming::Scalar => TraceClass::Xfer,
        };
        self.emit(name, class, self.vf.vl(), done, None, None);
        (start, done)
    }

    fn deps2(a: Tok, b: Tok) -> Tok {
        a.max(b)
    }

    fn deps3(a: Tok, b: Tok, c: Tok) -> Tok {
        a.max(b).max(c)
    }

    // Builds the line list of a vector memory instruction — its distinct
    // cache lines, in first touch order — and returns its
    // address-generation occupancy. Built once per instruction: the
    // memory phase(s) and the trace event read the same list. An indexed
    // list is built once per index vector (`IndexedLines`).
    fn agen(&mut self, pattern: &MemPattern, vl: usize) -> u64 {
        match pattern {
            MemPattern::Indexed { .. } => {
                self.indexed_lines.lines_into(pattern, vl, &mut self.lines)
            }
            _ => pattern.lines_into(vl, self.hier.line_bytes(), &mut self.lines),
        }
        pattern.agen_cycles_for_lines(vl, self.cfg.lanes, self.lines.len())
    }

    // The pattern of an indexed instruction: element `i` at `base +
    // vidx[i] * elem_bytes`, wrapping (see `MemPattern::address`). Its
    // offset vector is the machine's, to be handed back with
    // `recycle_offsets` when the instruction is done.
    fn indexed_pattern(&mut self, base: u64, vidx: Vreg, elem_bytes: u64) -> MemPattern {
        let idx = &self.vf.vreg(vidx).as_slice()[..self.vf.vl()];
        let mut offsets = std::mem::take(&mut self.offsets);
        offsets.clear();
        offsets.extend(idx.iter().map(|&x| x.wrapping_mul(elem_bytes)));
        MemPattern::Indexed {
            base,
            offsets,
            elem_bytes,
        }
    }

    // Takes back the offset vector `indexed_pattern` lent out.
    fn recycle_offsets(&mut self, pattern: MemPattern) {
        if let MemPattern::Indexed { offsets, .. } = pattern {
            self.offsets = offsets;
        }
    }

    // Issue the memory phase of a vector memory instruction: the lines
    // `agen` listed are requested starting when the AGU produces them;
    // returns the last completion.
    fn vector_mem_phase(&mut self, write: bool, start: Tok) -> Tok {
        // The interleaved L2 (XOR set placement across banks, §II-A) can
        // accept one line request per bank per cycle; the vector interface
        // issues up to `lanes` per cycle. Without the paper's L1 bypass the
        // vector stream funnels through the single-ported L1-d instead —
        // the bandwidth cost §II-A's bypass exists to avoid.
        let ports = if self.cfg.mem.l1_bypass_vector {
            self.cfg.lanes.max(1) as u64
        } else {
            1
        };
        self.hier.vector_lines(&self.lines, write, start, ports)
    }

    // ------------------------------------------------------------------
    // scalar instructions
    // ------------------------------------------------------------------

    /// One single-cycle scalar ALU op (add, compare, branch...). Returns
    /// the token of its result.
    pub fn s_op(&mut self, deps: Tok) -> Tok {
        self.mix.scalar_arith += 1;
        let start = self.pipe.dispatch(FuKind::ScalarArith, 1, deps);
        let done = start + 1;
        self.pipe.retire(done);
        self.emit("alu", TraceClass::ScalarAlu, 1, done, None, None);
        done
    }

    /// A scalar 32-bit load. `dep` covers the address computation.
    ///
    /// Conservative disambiguation: the load also waits for all older
    /// scalar stores' address generation, so it cannot bypass a store to
    /// an unresolved address.
    pub fn s_load_u32(&mut self, addr: u64, dep: Tok) -> (u32, Tok) {
        self.mix.scalar_loads += 1;
        let slot = self.pipe.reserve_load_slot();
        let dep = dep.max(self.last_store_agu);
        let start = self.pipe.dispatch(FuKind::LoadAgu, 1, dep.max(slot));
        let done = self.hier.scalar_access(addr, false, start + 1);
        self.pipe.complete_load(done);
        self.pipe.retire(done);
        self.emit("load", TraceClass::ScalarLoad, 1, done, Some(addr), None);
        (self.space.read_u32(addr), done)
    }

    /// A scalar 32-bit store. `addr_dep` gates address generation (which
    /// is what younger loads disambiguate against); `data_dep` gates the
    /// store-data micro-op. Returns the AGU completion token.
    pub fn s_store_u32_split(&mut self, addr: u64, val: u32, addr_dep: Tok, data_dep: Tok) -> Tok {
        self.mix.scalar_stores += 1;
        let slot = self.pipe.reserve_store_slot();
        let start = self.pipe.dispatch(FuKind::StoreAgu, 1, addr_dep.max(slot));
        let _data = self.pipe.dispatch(FuKind::StoreData, 1, data_dep);
        let done = self.hier.scalar_access(addr, true, start + 1);
        self.pipe.complete_store(done);
        self.pipe.retire(start + 1);
        self.space.write_u32(addr, val);
        self.last_store_agu = self.last_store_agu.max(start + 1);
        self.emit(
            "store",
            TraceClass::ScalarStore,
            1,
            start + 1,
            Some(addr),
            None,
        );
        start + 1
    }

    /// A scalar 32-bit store whose address and data become ready together.
    pub fn s_store_u32(&mut self, addr: u64, val: u32, dep: Tok) -> Tok {
        self.s_store_u32_split(addr, val, dep, dep)
    }

    // ------------------------------------------------------------------
    // vector control
    // ------------------------------------------------------------------

    /// `setvl`: sets the vector length (clamped to MVL), charging one
    /// cycle.
    pub fn set_vl(&mut self, vl: usize) -> Tok {
        let start = self.pipe.dispatch(FuKind::ScalarArith, 1, self.vl_ready);
        let done = start + 1;
        self.pipe.retire(done);
        self.vf.set_vl(vl);
        self.vl_ready = done;
        self.emit("setvl", TraceClass::Control, self.vf.vl(), done, None, None);
        done
    }

    // ------------------------------------------------------------------
    // vector arithmetic / logic (Table III)
    // ------------------------------------------------------------------

    /// Element-wise vector-vector operation.
    pub fn vbinop_vv(&mut self, op: BinOp, vd: Vreg, va: Vreg, vb: Vreg, m: Option<Mreg>) {
        // Merge masking reads the old destination; unmasked ops fully
        // overwrite it, so renaming removes the WAW dependency.
        let dst_dep = if m.is_some() {
            self.vreg_ready[vd.0 as usize]
        } else {
            0
        };
        let deps = Self::deps3(
            self.vreg_ready[va.0 as usize],
            self.vreg_ready[vb.0 as usize],
            self.mask_dep(m).max(dst_dep),
        );
        let (_, done) = self.vec_op(op.mnemonic(), VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let (dst, [a, b]) = dst_and_srcs(vregs, &mut self.alias_v, vd.0, [va.0, vb.0]);
        exec::binop_vv(op, dst, a, b, vl, mask_of(masks, m));
        self.vreg_ready[vd.0 as usize] = done;
    }

    /// Element-wise vector-scalar operation.
    pub fn vbinop_vs(&mut self, op: BinOp, vd: Vreg, va: Vreg, s: u64, m: Option<Mreg>) {
        let dst_dep = if m.is_some() {
            self.vreg_ready[vd.0 as usize]
        } else {
            0
        };
        let deps = Self::deps3(self.vreg_ready[va.0 as usize], self.mask_dep(m), dst_dep);
        let (_, done) = self.vec_op(op.mnemonic(), VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let (dst, [a]) = dst_and_srcs(vregs, &mut self.alias_v, vd.0, [va.0]);
        exec::binop_vs(op, dst, a, s, vl, mask_of(masks, m));
        self.vreg_ready[vd.0 as usize] = done;
    }

    /// `vset`: broadcast a scalar.
    pub fn vset(&mut self, vd: Vreg, value: u64, m: Option<Mreg>) {
        let dst_dep = if m.is_some() {
            self.vreg_ready[vd.0 as usize]
        } else {
            0
        };
        let deps = self.mask_dep(m).max(dst_dep);
        let (_, done) = self.vec_op("vset", VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let dst = vregs[usize::from(vd.0)].as_mut_slice();
        exec::set_all(dst, value, vl, mask_of(masks, m));
        self.vreg_ready[vd.0 as usize] = done;
    }

    /// `vclear`: zero the register.
    pub fn vclear(&mut self, vd: Vreg, m: Option<Mreg>) {
        self.vset(vd, 0, m);
    }

    /// `viota`: element indices `0, 1, 2, ...`.
    pub fn viota(&mut self, vd: Vreg, m: Option<Mreg>) {
        let dst_dep = if m.is_some() {
            self.vreg_ready[vd.0 as usize]
        } else {
            0
        };
        let deps = self.mask_dep(m).max(dst_dep);
        let (_, done) = self.vec_op("viota", VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let dst = vregs[usize::from(vd.0)].as_mut_slice();
        exec::iota(dst, vl, mask_of(masks, m));
        self.vreg_ready[vd.0 as usize] = done;
    }

    /// Vector-vector comparison into a mask register.
    pub fn vcmp_vv(&mut self, op: CmpOp, md: Mreg, va: Vreg, vb: Vreg, m: Option<Mreg>) {
        let deps = Self::deps3(
            self.vreg_ready[va.0 as usize],
            self.vreg_ready[vb.0 as usize],
            self.mask_dep(m),
        );
        let (_, done) = self.vec_op(op.mnemonic(), VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let (a, b) = (
            vregs[usize::from(va.0)].as_slice(),
            vregs[usize::from(vb.0)].as_slice(),
        );
        let (dst, governor) = mask_dst_and_governor(masks, &mut self.alias_m, md, m);
        exec::compare_vv(op, dst, a, b, vl, governor);
        self.mask_ready[md.0 as usize] = done;
    }

    /// Vector-scalar comparison into a mask register.
    pub fn vcmp_vs(&mut self, op: CmpOp, md: Mreg, va: Vreg, s: u64, m: Option<Mreg>) {
        let deps = Self::deps2(self.vreg_ready[va.0 as usize], self.mask_dep(m));
        let (_, done) = self.vec_op(op.mnemonic(), VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let a = vregs[usize::from(va.0)].as_slice();
        let (dst, governor) = mask_dst_and_governor(masks, &mut self.alias_m, md, m);
        exec::compare_vs(op, dst, a, s, vl, governor);
        self.mask_ready[md.0 as usize] = done;
    }

    /// Reduction to scalar.
    pub fn vred(&mut self, op: RedOp, va: Vreg, m: Option<Mreg>) -> (u64, Tok) {
        let deps = Self::deps2(self.vreg_ready[va.0 as usize], self.mask_dep(m));
        let (_, done) = self.vec_op(op.mnemonic(), VecOpTiming::Reduction, 0, deps);
        let vl = self.vf.vl();
        let mask = m.map(|m| self.vf.mask(m).as_slice());
        let v = exec::reduce(op, self.vf.vreg(va).as_slice(), vl, mask);
        (v, done)
    }

    /// Mask popcount.
    pub fn mpopcnt(&mut self, m: Mreg) -> (usize, Tok) {
        let deps = self.mask_ready[m.0 as usize];
        let (_, done) = self.vec_op("mpopcnt", VecOpTiming::MaskOp, 0, deps);
        let vl = self.vf.vl();
        (self.vf.mask(m).popcount(vl), done)
    }

    /// `vcompress` (mask-controlled, like all permutative instructions).
    /// Returns the packed element count.
    pub fn vcompress(&mut self, vd: Vreg, va: Vreg, m: Mreg) -> (usize, Tok) {
        let deps = Self::deps3(
            self.vreg_ready[va.0 as usize],
            self.mask_ready[m.0 as usize],
            self.vreg_ready[vd.0 as usize],
        );
        let (_, done) = self.vec_op("vcompress", VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let (dst, [a]) = dst_and_srcs(vregs, &mut self.alias_v, vd.0, [va.0]);
        let k = exec::compress(dst, a, masks[usize::from(m.0)].as_slice(), vl);
        self.vreg_ready[vd.0 as usize] = done;
        (k, done)
    }

    /// `vexpand`, inverse of [`Machine::vcompress`].
    pub fn vexpand(&mut self, vd: Vreg, va: Vreg, m: Mreg) -> Tok {
        let deps = Self::deps3(
            self.vreg_ready[va.0 as usize],
            self.mask_ready[m.0 as usize],
            self.vreg_ready[vd.0 as usize],
        );
        let (_, done) = self.vec_op("vexpand", VecOpTiming::Elementwise, 0, deps);
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let (dst, [a]) = dst_and_srcs(vregs, &mut self.alias_v, vd.0, [va.0]);
        exec::expand(dst, a, masks[usize::from(m.0)].as_slice(), vl);
        self.vreg_ready[vd.0 as usize] = done;
        done
    }

    /// `vgetelem`: reads element `i` into scalar dataflow.
    pub fn vget(&mut self, va: Vreg, i: usize) -> (u64, Tok) {
        let deps = self.vreg_ready[va.0 as usize];
        let (_, done) = self.vec_op("vgetelem", VecOpTiming::Scalar, 0, deps);
        (self.vf.vreg(va).as_slice()[i], done)
    }

    /// `vsetelem`: writes element `i` from scalar dataflow.
    pub fn vset_elem(&mut self, vd: Vreg, i: usize, val: u64, dep: Tok) -> Tok {
        let deps = dep.max(self.vreg_ready[vd.0 as usize]);
        let (_, done) = self.vec_op("vsetelem", VecOpTiming::Scalar, 0, deps);
        self.vf.vreg_mut(vd).as_mut_slice()[i] = val;
        self.vreg_ready[vd.0 as usize] = done;
        done
    }

    /// Copies a whole mask register (helper; costs one mask op).
    pub fn mmove(&mut self, md: Mreg, ma: Mreg) {
        let deps = self.mask_ready[ma.0 as usize];
        let (_, done) = self.vec_op("mmove", VecOpTiming::MaskOp, 0, deps);
        let (dst, [src]) = dst_and_srcs(self.vf.banks_mut().1, &mut self.alias_m, md.0, [ma.0]);
        dst.copy_from_slice(src);
        self.mask_ready[md.0 as usize] = done;
    }

    /// Sets the first `vl` bits of a mask (helper for all-active masks).
    pub fn mset_all(&mut self, md: Mreg) {
        let (_, done) = self.vec_op("msetall", VecOpTiming::MaskOp, 0, 0);
        let vl = self.vf.vl();
        let mvl = self.cfg.mvl;
        let m = self.vf.mask_mut(md).as_mut_slice();
        for (i, b) in m.iter_mut().enumerate().take(mvl) {
            *b = i < vl;
        }
        self.mask_ready[md.0 as usize] = done;
    }

    // ------------------------------------------------------------------
    // irregular-DLP instructions (VPI / VLU / VGAx)
    // ------------------------------------------------------------------

    /// `vpi` — Vector Prior Instances.
    pub fn vpi(&mut self, vd: Vreg, va: Vreg) {
        let vl = self.vf.vl();
        let (dst, [keys]) = dst_and_srcs(self.vf.banks_mut().0, &mut self.alias_v, vd.0, [va.0]);
        let cycles = irregular::vpi_on(&mut self.cam, keys, vl, dst);
        let deps = self.vreg_ready[va.0 as usize];
        let (_, done) = self.vec_op("vpi", VecOpTiming::Cam, cycles, deps);
        self.vreg_ready[vd.0 as usize] = done;
    }

    /// `vlu` — Vector Last Unique.
    pub fn vlu(&mut self, md: Mreg, va: Vreg) {
        let vl = self.vf.vl();
        let (vregs, masks) = self.vf.banks_mut();
        let keys = vregs[usize::from(va.0)].as_slice();
        let dst = masks[usize::from(md.0)].as_mut_slice();
        let cycles = irregular::vlu_on(&mut self.cam, keys, vl, dst);
        let deps = self.vreg_ready[va.0 as usize];
        let (_, done) = self.vec_op("vlu", VecOpTiming::Cam, cycles, deps);
        self.mask_ready[md.0 as usize] = done;
    }

    /// `vgasum`/`vgamin`/`vgamax` — Vector Group Aggregate.
    pub fn vga(&mut self, op: RedOp, vd: Vreg, vkeys: Vreg, vvals: Vreg) {
        let vl = self.vf.vl();
        let (dst, [keys, vals]) = dst_and_srcs(
            self.vf.banks_mut().0,
            &mut self.alias_v,
            vd.0,
            [vkeys.0, vvals.0],
        );
        let cycles = irregular::vga_on(&mut self.cam, op, keys, vals, vl, dst);
        let deps = Self::deps2(
            self.vreg_ready[vkeys.0 as usize],
            self.vreg_ready[vvals.0 as usize],
        );
        let (_, done) = self.vec_op(op.vga_mnemonic(), VecOpTiming::Cam, cycles, deps);
        self.vreg_ready[vd.0 as usize] = done;
    }

    // ------------------------------------------------------------------
    // related-work extension instructions (§VI-B comparators)
    // ------------------------------------------------------------------

    /// `vconflict` — AVX-512-CDI-style conflict detection: `vd[i]` holds a
    /// bitmask of the earlier elements of `va` with the same value.
    ///
    /// Charged as an ordinary element-wise vector instruction, which is
    /// generous to the CDI baseline (see [`vagg_isa::conflict`]).
    ///
    /// # Panics
    ///
    /// Panics if the current VL exceeds 64 (the bitmask width limit).
    pub fn vconflict(&mut self, vd: Vreg, va: Vreg) {
        let vl = self.vf.vl();
        let out = vagg_isa::conflict::vconflict(self.vf.vreg(va).as_slice(), vl);
        let deps = self.vreg_ready[va.0 as usize];
        let (_, done) = self.vec_op("vconflict", VecOpTiming::Elementwise, 0, deps);
        self.vf.vreg_mut(vd).as_mut_slice()[..out.len()].copy_from_slice(&out);
        self.vreg_ready[vd.0 as usize] = done;
    }

    /// `vtestnm` — mask bit `i` set iff `va[i] & s == 0`. The scalar
    /// operand's readiness is conveyed through `dep` (it typically comes
    /// from a [`Machine::kmov`]).
    pub fn vtestnm_vs(&mut self, md: Mreg, va: Vreg, s: u64, dep: Tok) {
        let vl = self.vf.vl();
        let out = vagg_isa::conflict::vtestnm_vs(self.vf.vreg(va).as_slice(), s, vl);
        let deps = Self::deps2(self.vreg_ready[va.0 as usize], dep);
        let (_, done) = self.vec_op("vtestnm", VecOpTiming::Elementwise, 0, deps);
        self.vf.mask_mut(md).as_mut_slice()[..out.len()].copy_from_slice(&out);
        self.mask_ready[md.0 as usize] = done;
    }

    /// Two-operand mask logic (`kand`/`kandn`/`kor`/`kxor`); one cycle.
    pub fn mlogic(&mut self, op: MaskLogic, md: Mreg, ma: Mreg, mb: Mreg) {
        let deps = Self::deps2(
            self.mask_ready[ma.0 as usize],
            self.mask_ready[mb.0 as usize],
        );
        let (_, done) = self.vec_op(op.mnemonic(), VecOpTiming::MaskOp, 0, deps);
        let vl = self.vf.vl();
        let (a, b) = (self.vf.mask(ma).as_slice(), self.vf.mask(mb).as_slice());
        let out = vagg_isa::conflict::mask_logic(op, a, b, vl);
        self.vf.mask_mut(md).as_mut_slice()[..out.len()].copy_from_slice(&out);
        self.mask_ready[md.0 as usize] = done;
    }

    /// `kmov` — packs the first VL mask bits into scalar dataflow.
    ///
    /// # Panics
    ///
    /// Panics if the current VL exceeds 64.
    pub fn kmov(&mut self, ma: Mreg) -> (u64, Tok) {
        let deps = self.mask_ready[ma.0 as usize];
        let (_, done) = self.vec_op("kmov", VecOpTiming::MaskOp, 0, deps);
        let vl = self.vf.vl();
        let bits = vagg_isa::conflict::mask_to_bits(self.vf.mask(ma).as_slice(), vl);
        (bits, done)
    }

    /// `vscatadd` — memory-side scatter-add (Ahn et al., HPCA 2005):
    /// `mem[base + idx[i] * elem_bytes] += vs[i]` for every active
    /// element, with conflicting indices accumulated (never lost) by an
    /// adder at the memory interface.
    ///
    /// Unlike [`Machine::vscatter`], duplicate indices are **defined**
    /// behaviour — that is the instruction's whole purpose. The cost model
    /// fetches every distinct line, then writes it back (a read phase and
    /// a write phase), so a scatter-add is roughly a gather plus a
    /// scatter fused into one instruction with no conflict-resolution
    /// overhead. There is **no return path**: the old values never reach a
    /// register, which is exactly the limitation §VI-B raises (it cannot
    /// implement VSR sort or any partial-sorting step).
    pub fn vscatter_add(
        &mut self,
        vs: Vreg,
        base: u64,
        vidx: Vreg,
        elem_bytes: u64,
        m: Option<Mreg>,
        dep: Tok,
    ) -> Tok {
        let vl = self.vf.vl();
        self.mix.v_scatter_adds += 1;
        self.mix.v_elements += vl as u64;
        let pattern = self.indexed_pattern(base, vidx, elem_bytes);
        let deps = Self::deps3(
            dep.max(self.vreg_ready[vidx.0 as usize]),
            self.mask_dep(m),
            self.vreg_ready[vs.0 as usize],
        );

        let occ = self.agen(&pattern, vl);
        let slot = self.pipe.reserve_store_slot();
        let start = self.pipe.dispatch(FuKind::StoreAgu, occ, deps.max(slot));
        let _data = self.pipe.dispatch(FuKind::StoreData, occ, deps);
        let agu_done = start + occ;
        // Read-modify-write: fetch each distinct line, then write it back.
        let read_done = self.vector_mem_phase(false, agu_done);
        let done = self.vector_mem_phase(true, read_done);
        self.pipe.complete_store(done);
        self.pipe.retire(agu_done);
        if self.trace.is_some() {
            self.emit(
                "vscatadd",
                TraceClass::ScatterAdd,
                vl,
                done,
                traced_address(&pattern, vl),
                Some(self.lines.len()),
            );
        }

        let mask = m.map(|m| self.vf.mask(m).as_slice());
        let src = &self.vf.vreg(vs).as_slice()[..vl];
        match &pattern {
            MemPattern::Indexed {
                base,
                offsets,
                elem_bytes: 4,
            } => self.space.scatter_u32(*base, offsets, mask, |i, old| {
                old.wrapping_add(src[i] as u32)
            }),
            _ => {
                for (i, &add) in src.iter().enumerate() {
                    if mask.is_none_or(|mk| mk[i]) {
                        let addr = pattern.address(i);
                        let old = self.space.read_elem(addr, elem_bytes);
                        self.space
                            .write_elem(addr, elem_bytes, old.wrapping_add(add));
                    }
                }
            }
        }
        self.recycle_offsets(pattern);
        agu_done
    }

    // ------------------------------------------------------------------
    // vector memory
    // ------------------------------------------------------------------

    /// Unit-stride vector load of `vl` elements of `elem_bytes` each.
    pub fn vload_unit(&mut self, vd: Vreg, base: u64, elem_bytes: u64, dep: Tok) -> Tok {
        let pattern = MemPattern::UnitStride { base, elem_bytes };
        self.vload_pattern(vd, &pattern, None, dep)
    }

    /// Strided vector load (`stride_bytes` between consecutive elements).
    pub fn vload_strided(
        &mut self,
        vd: Vreg,
        base: u64,
        stride_bytes: i64,
        elem_bytes: u64,
        dep: Tok,
    ) -> Tok {
        let pattern = MemPattern::Strided {
            base,
            stride: stride_bytes,
            elem_bytes,
        };
        self.vload_pattern(vd, &pattern, None, dep)
    }

    /// Indexed vector load (gather): element `i` comes from
    /// `base + idx[i] * elem_bytes`.
    pub fn vgather(
        &mut self,
        vd: Vreg,
        base: u64,
        vidx: Vreg,
        elem_bytes: u64,
        m: Option<Mreg>,
        dep: Tok,
    ) -> Tok {
        let pattern = self.indexed_pattern(base, vidx, elem_bytes);
        let dep = dep.max(self.vreg_ready[vidx.0 as usize]);
        let done = self.vload_pattern(vd, &pattern, m, dep);
        self.recycle_offsets(pattern);
        done
    }

    fn vload_pattern(&mut self, vd: Vreg, pattern: &MemPattern, m: Option<Mreg>, dep: Tok) -> Tok {
        let vl = self.vf.vl();
        match pattern {
            MemPattern::UnitStride { .. } => self.mix.v_unit_loads += 1,
            MemPattern::Strided { .. } => self.mix.v_strided_loads += 1,
            MemPattern::Indexed { .. } => self.mix.v_gathers += 1,
        }
        self.mix.v_elements += vl as u64;
        let dst_dep = if m.is_some() {
            self.vreg_ready[vd.0 as usize]
        } else {
            0
        };
        let deps = Self::deps3(dep, self.mask_dep(m), dst_dep);

        let occ = self.agen(pattern, vl);
        let slot = self.pipe.reserve_load_slot();
        let start = self.pipe.dispatch(FuKind::VecMemAgu, occ, deps.max(slot));
        let agu_done = start + occ;
        let done = self.vector_mem_phase(false, agu_done);
        self.pipe.complete_load(done);
        self.pipe.retire(done);
        if self.trace.is_some() {
            let name = match pattern {
                MemPattern::UnitStride { .. } => "vld.u",
                MemPattern::Strided { .. } => "vld.s",
                MemPattern::Indexed { .. } => "vgather",
            };
            self.emit(
                name,
                TraceClass::VecLoad,
                vl,
                done,
                traced_address(pattern, vl),
                Some(self.lines.len()),
            );
        }

        // Functional transfer (merge masking).
        let (vregs, masks) = self.vf.banks_mut();
        let mask = mask_of(masks, m);
        let dst = &mut vregs[usize::from(vd.0)].as_mut_slice()[..vl];
        match (pattern, mask) {
            // Every element, back to back: by page run, not by element
            // (`differential_tests::unit_stride_transfers_as_element_by_element`).
            (&MemPattern::UnitStride { base, elem_bytes }, None) => {
                self.space.read_run(base, elem_bytes, dst);
            }
            // One page lookup per element, the word copied in place.
            (
                MemPattern::Indexed {
                    base,
                    offsets,
                    elem_bytes: 4,
                },
                _,
            ) => self.space.gather_u32(*base, offsets, mask, dst),
            _ => {
                for (i, d) in dst.iter_mut().enumerate() {
                    if mask.is_none_or(|mk| mk[i]) {
                        *d = self
                            .space
                            .read_elem(pattern.address(i), pattern.elem_bytes());
                    }
                }
            }
        }
        self.vreg_ready[vd.0 as usize] = done;
        done
    }

    /// Unit-stride vector prefetch: warms the L2 with the lines a
    /// subsequent [`Machine::vload_unit`] of the same span would touch.
    ///
    /// §II-A: "Each class corresponds to an access pattern and supports
    /// load, store and prefetch instructions." Prefetches occupy the
    /// vector-memory AGU like a load but write no register, never stall a
    /// consumer (no result token) and are dropped rather than queued when
    /// the load queue is full.
    pub fn vprefetch_unit(&mut self, base: u64, elem_bytes: u64, dep: Tok) {
        let pattern = MemPattern::UnitStride { base, elem_bytes };
        self.vprefetch_pattern(&pattern, dep);
    }

    /// Strided vector prefetch (see [`Machine::vprefetch_unit`]).
    pub fn vprefetch_strided(&mut self, base: u64, stride_bytes: i64, elem_bytes: u64, dep: Tok) {
        let pattern = MemPattern::Strided {
            base,
            stride: stride_bytes,
            elem_bytes,
        };
        self.vprefetch_pattern(&pattern, dep);
    }

    /// Indexed vector prefetch (gather-shaped; see
    /// [`Machine::vprefetch_unit`]).
    pub fn vprefetch_indexed(&mut self, base: u64, vidx: Vreg, elem_bytes: u64, dep: Tok) {
        let pattern = self.indexed_pattern(base, vidx, elem_bytes);
        let dep = dep.max(self.vreg_ready[vidx.0 as usize]);
        self.vprefetch_pattern(&pattern, dep);
        self.recycle_offsets(pattern);
    }

    fn vprefetch_pattern(&mut self, pattern: &MemPattern, dep: Tok) {
        let vl = self.vf.vl();
        self.mix.v_prefetches += 1;
        self.mix.v_elements += vl as u64;
        let occ = self.agen(pattern, vl);
        let slot = self.pipe.reserve_load_slot();
        let start = self.pipe.dispatch(FuKind::VecMemAgu, occ, dep.max(slot));
        let agu_done = start + occ;
        let done = self.vector_mem_phase(false, agu_done);
        self.pipe.complete_load(done);
        // A prefetch retires as soon as its AGU work is done — it has no
        // architectural result for anything to wait on.
        self.pipe.retire(agu_done);
        if self.trace.is_some() {
            let name = match pattern {
                MemPattern::UnitStride { .. } => "vpf.u",
                MemPattern::Strided { .. } => "vpf.s",
                MemPattern::Indexed { .. } => "vpf.x",
            };
            self.emit(
                name,
                TraceClass::Prefetch,
                vl,
                done,
                traced_address(pattern, vl),
                Some(self.lines.len()),
            );
        }
    }

    /// Unit-stride vector store.
    pub fn vstore_unit(&mut self, vs: Vreg, base: u64, elem_bytes: u64, dep: Tok) -> Tok {
        let pattern = MemPattern::UnitStride { base, elem_bytes };
        self.vstore_pattern(vs, &pattern, None, dep)
    }

    /// Strided vector store.
    pub fn vstore_strided(
        &mut self,
        vs: Vreg,
        base: u64,
        stride_bytes: i64,
        elem_bytes: u64,
        dep: Tok,
    ) -> Tok {
        let pattern = MemPattern::Strided {
            base,
            stride: stride_bytes,
            elem_bytes,
        };
        self.vstore_pattern(vs, &pattern, None, dep)
    }

    /// Indexed vector store (scatter): element `i` goes to
    /// `base + idx[i] * elem_bytes`.
    ///
    /// If the active indices are not unique the architectural behaviour is
    /// undefined (the GMS hazard of §III-C); the model applies them in
    /// element order, so the highest-numbered active element wins — and
    /// debug builds assert uniqueness to surface algorithm bugs.
    pub fn vscatter(
        &mut self,
        vs: Vreg,
        base: u64,
        vidx: Vreg,
        elem_bytes: u64,
        m: Option<Mreg>,
        dep: Tok,
    ) -> Tok {
        let pattern = self.indexed_pattern(base, vidx, elem_bytes);
        #[cfg(debug_assertions)]
        if let MemPattern::Indexed { offsets, .. } = &pattern {
            let mask = m.map(|m| self.vf.mask(m).as_slice());
            // Sorted in the alias stand-in, which no store uses.
            let active = &mut self.alias_v;
            active.clear();
            active.extend(
                offsets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask.is_none_or(|mk| mk[*i]))
                    .map(|(_, &o)| o),
            );
            active.sort_unstable();
            debug_assert!(
                active.windows(2).all(|pair| pair[0] != pair[1]),
                "GMS conflict: duplicate scatter indices"
            );
        }
        let dep = dep.max(self.vreg_ready[vidx.0 as usize]);
        let agu_done = self.vstore_pattern(vs, &pattern, m, dep);
        self.recycle_offsets(pattern);
        agu_done
    }

    fn vstore_pattern(&mut self, vs: Vreg, pattern: &MemPattern, m: Option<Mreg>, dep: Tok) -> Tok {
        let vl = self.vf.vl();
        match pattern {
            MemPattern::UnitStride { .. } => self.mix.v_unit_stores += 1,
            MemPattern::Strided { .. } => self.mix.v_strided_stores += 1,
            MemPattern::Indexed { .. } => self.mix.v_scatters += 1,
        }
        self.mix.v_elements += vl as u64;
        let deps = Self::deps3(dep, self.mask_dep(m), self.vreg_ready[vs.0 as usize]);

        let occ = self.agen(pattern, vl);
        let slot = self.pipe.reserve_store_slot();
        let start = self.pipe.dispatch(FuKind::StoreAgu, occ, deps.max(slot));
        let _data = self.pipe.dispatch(FuKind::StoreData, occ, deps);
        let agu_done = start + occ;
        let done = self.vector_mem_phase(true, agu_done);
        self.pipe.complete_store(done);
        self.pipe.retire(agu_done);
        if self.trace.is_some() {
            let name = match pattern {
                MemPattern::UnitStride { .. } => "vst.u",
                MemPattern::Strided { .. } => "vst.s",
                MemPattern::Indexed { .. } => "vscatter",
            };
            self.emit(
                name,
                TraceClass::VecStore,
                vl,
                done,
                traced_address(pattern, vl),
                Some(self.lines.len()),
            );
        }

        let mask = m.map(|m| self.vf.mask(m).as_slice());
        let src = &self.vf.vreg(vs).as_slice()[..vl];
        match (pattern, mask) {
            // As in `vload_pattern`: by page run.
            (&MemPattern::UnitStride { base, elem_bytes }, None) => {
                self.space.write_run(base, elem_bytes, src);
            }
            // As in `vload_pattern`; in element order, so the last
            // writer wins.
            (
                MemPattern::Indexed {
                    base,
                    offsets,
                    elem_bytes: 4,
                },
                _,
            ) => self
                .space
                .scatter_u32(*base, offsets, mask, |i, _| src[i] as u32),
            _ => {
                for (i, &v) in src.iter().enumerate() {
                    if mask.is_none_or(|mk| mk[i]) {
                        self.space
                            .write_elem(pattern.address(i), pattern.elem_bytes(), v);
                    }
                }
            }
        }
        agu_done
    }

    // ------------------------------------------------------------------
    // test/diagnostic hooks
    // ------------------------------------------------------------------

    /// True if the byte's line currently resides in the simulated L2
    /// (diagnostic hook, e.g. for prefetch-coverage tests).
    pub fn hier_l2_contains(&self, byte_addr: u64) -> bool {
        self.hier.l2_contains(byte_addr)
    }

    /// Readiness token of a vector register (diagnostic hook).
    pub fn vreg_ready_of(&self, v: Vreg) -> Tok {
        self.vreg_ready[v.0 as usize]
    }

    /// Readiness token of a mask register (diagnostic hook).
    pub fn mask_ready_of(&self, m: Mreg) -> Tok {
        self.mask_ready[m.0 as usize]
    }

    /// Reads a vector register's first `vl` elements (host-side).
    pub fn vreg_snapshot(&self, v: Vreg) -> Vec<u64> {
        self.vf.vreg(v).as_slice()[..self.vf.vl()].to_vec()
    }

    /// Reads a mask register's first `vl` bits (host-side).
    pub fn mask_snapshot(&self, m: Mreg) -> Vec<bool> {
        self.vf.mask(m).as_slice()[..self.vf.vl()].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V0: Vreg = Vreg(0);
    const V1: Vreg = Vreg(1);
    const V2: Vreg = Vreg(2);
    const M0: Mreg = Mreg(0);

    fn machine() -> Machine {
        Machine::paper()
    }

    #[test]
    fn mix_counts_every_op_class() {
        let mut m = machine();
        let data: Vec<u32> = (0..64).collect();
        let base = m.space_mut().alloc_slice_u32(&data);
        m.set_vl(16);

        m.vload_unit(V0, base, 4, 0);
        m.vload_strided(V1, base, 8, 4, 0);
        m.viota(V2, None);
        m.vgather(V1, base, V2, 4, None, 0);
        m.vbinop_vv(BinOp::Add, V0, V0, V1, None);
        m.vcmp_vs(CmpOp::Ne, M0, V0, 0, None);
        m.vred(RedOp::Sum, V0, None);
        m.mpopcnt(M0);
        m.vpi(V1, V0);
        m.vlu(M0, V0);
        m.vga(RedOp::Sum, V1, V0, V2);
        m.vget(V0, 3);
        m.vstore_unit(V0, base, 4, 0);
        m.vstore_strided(V0, base, 8, 4, 0);
        m.viota(V2, None);
        m.vscatter(V0, base, V2, 4, None, 0);
        m.vscatter_add(V0, base, V2, 4, None, 0);
        m.s_op(0);
        m.s_load_u32(base, 0);
        m.s_store_u32(base, 7, 0);

        let mix = m.mix();
        assert_eq!(mix.v_unit_loads, 1);
        assert_eq!(mix.v_strided_loads, 1);
        assert_eq!(mix.v_gathers, 1);
        assert_eq!(mix.v_unit_stores, 1);
        assert_eq!(mix.v_strided_stores, 1);
        assert_eq!(mix.v_scatters, 1);
        assert_eq!(mix.v_scatter_adds, 1);
        assert_eq!(mix.v_reductions, 1);
        assert_eq!(mix.v_cam, 3, "vpi + vlu + vga");
        assert_eq!(mix.v_mask_ops, 1, "mpopcnt");
        assert_eq!(mix.v_scalar_xfer, 1, "vget");
        // viota ×2 + vbinop + vcmp = 4 element-wise ops.
        assert_eq!(mix.v_elementwise, 4);
        assert_eq!(mix.scalar_arith, 1);
        assert_eq!(mix.scalar_loads, 1);
        assert_eq!(mix.scalar_stores, 1);
        // Every counted vector op ran at VL = 16.
        assert_eq!(mix.v_elements, 16 * mix.vector_ops());
        assert!((mix.avg_vl() - 16.0).abs() < 1e-9);
        assert_eq!(m.stats().mix, mix);
    }

    #[test]
    fn avg_vl_handles_empty_mix() {
        assert_eq!(OpMix::default().avg_vl(), 0.0);
        assert_eq!(OpMix::default().vector_ops(), 0);
    }

    #[test]
    fn prefetch_warms_the_l2_without_writing_registers() {
        let mut m = machine();
        let data: Vec<u32> = (0..64).collect();
        let base = m.space_mut().alloc_slice_u32(&data);
        m.set_vl(64);
        let before = m.vreg_snapshot(V0);

        m.vprefetch_unit(base, 4, 0);
        assert!(m.hier_l2_contains(base), "prefetch must install the line");
        assert_eq!(m.vreg_snapshot(V0), before, "no architectural result");
        assert_eq!(m.mix().v_prefetches, 1);

        // A load after the prefetch hits the L2 rather than DRAM.
        let dram_before = m.stats().mem.dram.requests;
        m.vload_unit(V0, base, 4, 0);
        assert_eq!(m.stats().mem.dram.requests, dram_before);
    }

    #[test]
    fn indexed_prefetch_covers_gather_lines() {
        let mut m = machine();
        let table: Vec<u32> = (0..4096).collect();
        let base = m.space_mut().alloc_slice_u32(&table);
        m.set_vl(8);
        // Scattered indices across distinct lines.
        for (i, idx) in [0u64, 512, 1024, 1536, 2048, 2560, 3072, 3584]
            .into_iter()
            .enumerate()
        {
            m.vset_elem(V1, i, idx, 0);
        }
        m.vprefetch_indexed(base, V1, 4, 0);
        for idx in [0u64, 512, 3584] {
            assert!(m.hier_l2_contains(base + idx * 4), "idx {idx}");
        }
    }

    #[test]
    fn vload_unit_reads_staged_data() {
        let mut m = machine();
        let data: Vec<u32> = (0..64).map(|i| i * 3).collect();
        let base = m.space_mut().alloc_slice_u32(&data);
        m.set_vl(64);
        m.vload_unit(V0, base, 4, 0);
        let snap = m.vreg_snapshot(V0);
        assert_eq!(snap, (0..64).map(|i| i as u64 * 3).collect::<Vec<_>>());
    }

    #[test]
    fn vstore_unit_writes_back() {
        let mut m = machine();
        let base = m.space_mut().alloc(256, 64);
        m.set_vl(8);
        m.viota(V0, None);
        m.vstore_unit(V0, base, 4, 0);
        assert_eq!(
            m.space().read_slice_u32(base, 8),
            vec![0, 1, 2, 3, 4, 5, 6, 7]
        );
    }

    #[test]
    fn strided_load_picks_every_other() {
        let mut m = machine();
        let data: Vec<u32> = (0..32).collect();
        let base = m.space_mut().alloc_slice_u32(&data);
        m.set_vl(16);
        m.vload_strided(V0, base, 8, 4, 0);
        assert_eq!(
            m.vreg_snapshot(V0),
            (0u64..32).step_by(2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut m = machine();
        let data: Vec<u32> = (100..164).collect();
        let src = m.space_mut().alloc_slice_u32(&data);
        let dst = m.space_mut().alloc(64 * 4, 64);
        m.set_vl(8);
        // Reverse permutation.
        for (i, idx) in [7u64, 6, 5, 4, 3, 2, 1, 0].iter().enumerate() {
            m.vset_elem(V1, i, *idx, 0);
        }
        m.vgather(V0, src, V1, 4, None, 0);
        assert_eq!(
            m.vreg_snapshot(V0),
            vec![107, 106, 105, 104, 103, 102, 101, 100]
        );
        m.vscatter(V0, dst, V1, 4, None, 0);
        // Scattering the reversed data through the reversed indices
        // restores the original order.
        assert_eq!(
            m.space().read_slice_u32(dst, 8),
            vec![100, 101, 102, 103, 104, 105, 106, 107]
        );
    }

    #[test]
    fn masked_gather_merges() {
        let mut m = machine();
        let data: Vec<u32> = (0..16).collect();
        let src = m.space_mut().alloc_slice_u32(&data);
        m.set_vl(4);
        m.vset(V0, 99, None);
        m.viota(V1, None);
        m.vcmp_vs(CmpOp::Ne, M0, V1, 1, None); // mask: all but element 1
        m.vgather(V0, src, V1, 4, Some(M0), 0);
        assert_eq!(m.vreg_snapshot(V0), vec![0, 99, 2, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "GMS conflict")]
    fn conflicting_scatter_is_detected_in_debug() {
        let mut m = machine();
        let dst = m.space_mut().alloc(256, 64);
        m.set_vl(4);
        m.vset(V1, 0, None); // all indices equal: conflict
        m.viota(V0, None);
        m.vscatter(V0, dst, V1, 4, None, 0);
    }

    #[test]
    fn vga_plus_gather_scatter_updates_table() {
        // The Figure 15 kernel: one table update step via VGAsum + VLU.
        let mut m = machine();
        let table = m.space_mut().alloc(1024, 64);
        m.set_vl(8);
        let keys = [7u64, 5, 5, 5, 11, 9, 9, 11];
        let vals = [6u64, 3, 4, 9, 15, 2, 3, 4];
        for i in 0..8 {
            m.vset_elem(V0, i, keys[i], 0);
            m.vset_elem(V1, i, vals[i], 0);
        }
        m.vga(RedOp::Sum, V2, V0, V1); // v2 = running group sums
        m.vlu(M0, V0); // last instance per group
        let v3 = Vreg(3);
        m.vgather(v3, table, V0, 4, Some(M0), 0);
        m.vbinop_vv(BinOp::Add, v3, v3, V2, Some(M0));
        m.vscatter(v3, table, V0, 4, Some(M0), 0);
        // Table now holds group sums: 7→6, 5→16, 11→19, 9→5.
        assert_eq!(m.space().read_u32(table + 4 * 7), 6);
        assert_eq!(m.space().read_u32(table + 4 * 5), 16);
        assert_eq!(m.space().read_u32(table + 4 * 11), 19);
        assert_eq!(m.space().read_u32(table + 4 * 9), 5);
    }

    #[test]
    fn cycles_accumulate_monotonically() {
        let mut m = machine();
        let c0 = m.cycles();
        m.set_vl(64);
        m.viota(V0, None);
        let c1 = m.cycles();
        assert!(c1 > c0);
        m.vbinop_vs(BinOp::Add, V1, V0, 5, None);
        assert!(m.cycles() >= c1);
    }

    #[test]
    fn vector_elementwise_costs_vl_over_lanes() {
        let mut m = machine();
        m.set_vl(64);
        let before = m.cycles();
        m.viota(V0, None);
        m.vbinop_vs(BinOp::Add, V0, V0, 1, None); // depends on viota
        let elapsed = m.cycles() - before;
        // Two dependent 16-cycle ops ⇒ ~32 cycles (commit-time deltas may
        // trim one cycle at each boundary).
        assert!(elapsed >= 30, "elapsed {elapsed}");
    }

    #[test]
    fn independent_vector_ops_overlap_on_two_fus() {
        let mut a = machine();
        a.set_vl(64);
        let t0 = a.cycles();
        a.viota(V0, None);
        a.viota(V1, None);
        let dual = a.cycles() - t0;

        let mut b = machine();
        b.set_vl(64);
        let t0 = b.cycles();
        b.viota(V0, None);
        b.vbinop_vs(BinOp::Add, V0, V0, 1, None); // dependent chain
        let chained = b.cycles() - t0;
        assert!(
            dual < chained,
            "independent ops ({dual}) should beat dependent chain ({chained})"
        );
    }

    #[test]
    fn scalar_load_store_roundtrip() {
        let mut m = machine();
        let addr = m.space_mut().alloc(64, 64);
        let t = m.s_store_u32(addr, 77, 0);
        let (v, _) = m.s_load_u32(addr, t);
        assert_eq!(v, 77);
    }

    #[test]
    fn reduction_returns_value_and_costs_more_than_elementwise() {
        let mut m = machine();
        m.set_vl(64);
        m.viota(V0, None);
        let (sum, _) = m.vred(RedOp::Sum, V0, None);
        assert_eq!(sum, (0..64).sum::<u64>());
    }

    #[test]
    fn compress_expand_through_machine() {
        let mut m = machine();
        m.set_vl(8);
        m.viota(V0, None);
        m.vcmp_vs(CmpOp::Ne, M0, V0, 3, None);
        let (k, _) = m.vcompress(V1, V0, M0);
        assert_eq!(k, 7);
        assert_eq!(m.vreg_snapshot(V1)[..7], [0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn popcount_through_machine() {
        let mut m = machine();
        m.set_vl(8);
        m.viota(V0, None);
        m.vcmp_vs(CmpOp::Nez, M0, V0, 0, None);
        let (n, _) = m.mpopcnt(M0);
        assert_eq!(n, 7); // elements 1..7 are non-zero
    }

    #[test]
    fn far_indices_wrap_around_the_address_space() {
        // `u64::MAX / 2` words is four bytes short of a whole turn: the
        // element sits one word below the base, in every build profile,
        // and an index register may hold such a value in any lane.
        const FAR: u64 = u64::MAX / 2;
        let mut m = machine();
        let base = m.space_mut().alloc_slice_u32(&[10, 11, 12, 13, 14]) + 4;
        m.set_vl(4);
        m.viota(V1, None);
        m.vset_elem(V1, 2, FAR, 0);
        m.vcmp_vs(CmpOp::Ne, M0, V1, FAR, None);

        // Masked off, then active.
        m.vset(V0, 99, None);
        m.vgather(V0, base, V1, 4, Some(M0), 0);
        assert_eq!(m.vreg_snapshot(V0), vec![11, 12, 99, 14]);
        m.vgather(V0, base, V1, 4, None, 0);
        assert_eq!(m.vreg_snapshot(V0), vec![11, 12, 10, 14]);

        m.vset(V2, 7, None);
        m.vscatter(V2, base, V1, 4, Some(M0), 0);
        assert_eq!(m.space().read_slice_u32(base - 4, 5), vec![10, 7, 7, 13, 7]);
        m.vscatter(V2, base, V1, 4, None, 0);
        assert_eq!(m.space().read_slice_u32(base - 4, 5), vec![7, 7, 7, 13, 7]);
        m.vscatter_add(V2, base, V1, 4, None, 0);
        m.vprefetch_indexed(base, V1, 4, 0);
        assert_eq!(
            m.space().read_slice_u32(base - 4, 5),
            vec![14, 14, 14, 13, 14]
        );

        // A stride may carry an access around the top as well.
        m.set_vl(2);
        m.vload_strided(V0, base, i64::MAX, 4, 0);
        assert_eq!(m.vreg_snapshot(V0)[0], 14);

        // An element's bytes wrap like its address. Index 2^62 - 1 of
        // 4-byte words from base 2 is address u64::MAX - 1: the bytes
        // are the top two of the address space and addresses 0 and 1,
        // on the top line and line 0. Each instruction lists both lines
        // and moves all four bytes.
        const TOP: u64 = u64::MAX - 1;
        let mut m = machine();
        m.set_vl(1);
        m.vset_elem(V1, 0, (1 << 62) - 1, 0);
        let l2_accesses = |m: &Machine| m.stats().mem.l2.accesses;

        let before = l2_accesses(&m);
        m.vset(V2, 0xAABB_CCDD, None);
        m.vscatter(V2, 2, V1, 4, None, 0);
        assert_eq!(l2_accesses(&m) - before, 2, "the top line and line 0");
        assert_eq!(
            [TOP, u64::MAX, 0, 1].map(|a| m.space().read_u8(a)),
            [0xDD, 0xCC, 0xBB, 0xAA]
        );

        let before = l2_accesses(&m);
        m.vgather(V0, 2, V1, 4, None, 0);
        assert_eq!(m.vreg_snapshot(V0), vec![0xAABB_CCDD]);
        assert_eq!(l2_accesses(&m) - before, 2);

        let before = l2_accesses(&m);
        m.vset(V2, 0x0101_0101, None);
        m.vscatter_add(V2, 2, V1, 4, None, 0);
        assert_eq!(m.space().read_u32(TOP), 0xABBC_CDDE);
        assert_eq!(l2_accesses(&m) - before, 4, "a read and a write phase");

        // A negative stride carries element 1 from base 2 to the top.
        m.set_vl(2);
        let before = l2_accesses(&m);
        m.vload_strided(V0, 2, -4, 4, 0);
        assert_eq!(m.vreg_snapshot(V0), vec![0, 0xABBC_CDDE]);
        assert_eq!(l2_accesses(&m) - before, 2);
    }

    #[test]
    fn stats_expose_memory_behaviour() {
        let mut m = machine();
        let base = m.space_mut().alloc(4096, 64);
        m.set_vl(64);
        m.vload_unit(V0, base, 4, 0);
        let s = m.stats();
        assert!(s.cycles > 0);
        assert!(s.ops > 0);
        assert!(s.mem.l2.accesses >= 4); // 64×4B = 4 lines via L1 bypass
        assert_eq!(s.mem.l1.accesses, 0);
    }
}

/// A unit-stride transfer by page run ≡ the element-by-element loop it
/// used to be, which every other pattern still runs: a strided access
/// whose stride is the element size is the same elements through that
/// loop. An indexed line list reused or moved ≡ one built afresh.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use proptest::prelude::*;

    type Outcome = (Vec<u64>, Vec<u8>, usize, SimStats);

    /// Stores `vals[..vl]` at `base` and loads them back over a register
    /// of stale contents; returns that register, the bytes around the
    /// transfer, the resident pages and the counters.
    fn transfer(
        unit: bool,
        staged: &[u32],
        at: u64,
        width: u64,
        vl: usize,
        vals: &[u64],
    ) -> Outcome {
        const REGION: u64 = 2_048;
        let mut m = Machine::paper();
        let region = m.space_mut().alloc(REGION, 256);
        // Staged data covers the region's second half only, so a run
        // meets resident pages, absent pages and the edge between them.
        m.space_mut().write_slice_u32(region + REGION / 2, staged);
        let (src, dst) = (Vreg(0), Vreg(1));
        m.vf.vreg_mut(src).as_mut_slice()[..vals.len()].copy_from_slice(vals);
        m.vf.vreg_mut(dst).as_mut_slice().fill(u64::MAX);
        m.set_vl(vl);
        let base = region + at;
        if unit {
            m.vstore_unit(src, base, width, 0);
            m.vload_unit(dst, base, width, 0);
        } else {
            m.vstore_strided(src, base, width as i64, width, 0);
            m.vload_strided(dst, base, width as i64, width, 0);
        }
        let bytes = (region..region + REGION)
            .map(|a| m.space().read_u8(a))
            .collect();
        let mut stats = m.stats();
        // The two spellings count as different instructions.
        stats.mix = OpMix::default();
        (
            m.vf.vreg(dst).as_slice().to_vec(),
            bytes,
            m.space().resident_pages(),
            stats,
        )
    }

    /// Where the next indexed pattern's base goes.
    #[derive(Debug, Clone)]
    enum Move {
        Stay,
        /// By a whole number of lines, either way.
        Lines(i64),
        /// By any number of bytes (mostly not whole lines).
        Bytes(i64),
        /// This far below the top of the address space.
        Top(u64),
        /// By whole lines, to within this many lines of the top.
        LinesToTop(u64),
        Anywhere(u64),
    }

    fn moves() -> impl Strategy<Value = Move> {
        prop_oneof![
            Just(Move::Stay),
            (-8i64..9).prop_map(Move::Lines),
            (-8i64..9).prop_map(Move::Lines),
            (-300i64..300).prop_map(Move::Bytes),
            (0u64..5_000).prop_map(Move::Top),
            (0u64..16).prop_map(Move::LinesToTop),
            (0u64..1 << 22).prop_map(Move::Anywhere),
        ]
    }

    // Byte offsets that revisit lines, far ones, and ones that wrap
    // below the base.
    fn offset_vectors() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            prop_oneof![
                0u64..512,
                0u64..100_000,
                (0u64..4, 0u64..200).prop_map(|(hi, lo)| (hi << 62) + lo),
                (1u64..5_000).prop_map(|below| below.wrapping_neg()),
            ],
            64..65,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// `IndexedLines` ≡ `MemPattern::lines_into` built afresh, over a
        /// sequence of indexed patterns that keep or replace their
        /// offsets, width and vector length and move their base.
        #[test]
        fn indexed_lines_as_built_afresh(
            line in prop::sample::select(vec![32u64, 48, 64, 128]),
            steps in prop::collection::vec(
                (
                    any::<bool>(),
                    offset_vectors(),
                    // Mostly the width and vector length of the step
                    // before (zero keeps them).
                    prop::sample::select(vec![0u64, 0, 0, 1, 4, 8]),
                    prop_oneof![Just(0usize), Just(0usize), 0usize..65],
                    moves(),
                ),
                1..12,
            ),
        ) {
            let mut vl = 64;
            let mut memo = IndexedLines::new(64, line);
            let (mut out, mut fresh) = (vec![7; 3], Vec::new());
            let mut pattern = MemPattern::Indexed {
                base: 1 << 21,
                offsets: vec![0; 64],
                elem_bytes: 4,
            };
            for (new_offsets, offsets, width, new_vl, step) in steps {
                let MemPattern::Indexed { base, offsets: current, elem_bytes } = &mut pattern else {
                    unreachable!()
                };
                if new_offsets {
                    *current = offsets;
                }
                if width != 0 {
                    *elem_bytes = width;
                }
                if new_vl != 0 {
                    vl = new_vl;
                }
                *base = match step {
                    Move::Stay => *base,
                    Move::Lines(n) => base.wrapping_add_signed(n * line as i64),
                    Move::Bytes(n) => base.wrapping_add_signed(n),
                    Move::Top(below) => u64::MAX - below,
                    Move::LinesToTop(below) => {
                        let room = (u64::MAX - *base) / line;
                        *base + line * room.saturating_sub(below)
                    }
                    Move::Anywhere(at) => at,
                };
                memo.lines_into(&pattern, vl, &mut out);
                pattern.lines_into(vl, line, &mut fresh);
                prop_assert_eq!(&out, &fresh, "{:?} at vl {}", pattern, vl);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn unit_stride_transfers_as_element_by_element(
            staged in prop::collection::vec(prop_oneof![Just(0u32), any::<u32>()], 0..128),
            at in 0u64..1_400,
            width in prop::sample::select(vec![1u64, 4, 8]),
            vl in 0usize..65,
            vals in prop::collection::vec(
                prop_oneof![Just(0u64), any::<u64>(), (1u64..9).prop_map(|high| high << 32)],
                64..65,
            ),
        ) {
            prop_assert_eq!(
                transfer(true, &staged, at, width, vl, &vals),
                transfer(false, &staged, at, width, vl, &vals)
            );
        }
    }
}
