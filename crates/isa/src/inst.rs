//! Instruction catalogue and timing metadata.
//!
//! [`Instruction`] exhaustively lists the non-memory vector instructions of
//! Table III plus the irregular-DLP additions (VPI/VLU from HPCA'15 and the
//! paper's VGAx family). [`VecOpTiming`] captures the paper's stated
//! occupancy rules (§II-A):
//!
//! * mask instructions: 1 cycle;
//! * most vector instructions: `VL / lanes` cycles through a functional
//!   unit;
//! * reductions: `VL / lanes − 1` cycles of per-lane partial reduction plus
//!   `log2(lanes)` cycles of interlane reduction;
//! * CAM-class (VPI/VLU/VGAx): 2 cycles per conflict-free slice of up to
//!   `p` adjacent elements (see [`crate::cam`]).
//!
//! Memory-instruction address-generation occupancies are also defined here
//! ([`MemPattern::agen_cycles`]): formulaic patterns charge one cycle per
//! cache line touched, indexed (gather/scatter) patterns charge
//! `VL / lanes` cycles.

use crate::cam::first_slot;

/// Instruction classes of Table III (plus the irregular additions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// `set all`, `clear all`, `iota`.
    Initialisation,
    /// `maximum`, `add`, `subtract`, `multiply`.
    Arithmetic,
    /// `and`, `shift left`, `shift right`.
    Bitwise,
    /// `not equal`, `not equal to zero`.
    Comparison,
    /// `popcount`.
    Mask,
    /// `compress`, `expand`.
    Permutative,
    /// `maximum`, `minimum`, `sum`.
    Reduction,
    /// `get/set element`, `get/set vlen`.
    Other,
    /// VPI, VLU, VGAsum/min/max (CAM-backed).
    Irregular,
    /// Related-work emulation (§VI-B): AVX-512-CDI-style conflict
    /// detection and scatter-add. Not part of the paper's proposal — these
    /// exist so the paper's qualitative comparison can be measured.
    Extension,
}

/// The full non-memory instruction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Broadcast a scalar to all (active) elements.
    SetAll,
    /// Zero all (active) elements.
    ClearAll,
    /// Write element indices `0, 1, 2, ...` (CRAY-1 `iota`).
    Iota,
    /// Element-wise maximum.
    VMax,
    /// Element-wise wrapping add.
    VAdd,
    /// Element-wise wrapping subtract.
    VSub,
    /// Element-wise wrapping multiply.
    VMul,
    /// Element-wise bitwise AND.
    VAnd,
    /// Element-wise logical shift left.
    VShl,
    /// Element-wise logical shift right.
    VShr,
    /// Compare not-equal, result to mask.
    VCmpNe,
    /// Compare not-equal-to-zero, result to mask.
    VCmpNez,
    /// Population count of a mask register.
    MaskPopcount,
    /// Pack active elements to the front (mask-controlled).
    Compress,
    /// Unpack front elements to active positions (mask-controlled).
    Expand,
    /// Reduce to scalar: maximum.
    RedMax,
    /// Reduce to scalar: minimum.
    RedMin,
    /// Reduce to scalar: sum.
    RedSum,
    /// Read one element to a scalar register.
    GetElement,
    /// Write one element from a scalar register.
    SetElement,
    /// Read the vector length register.
    GetVlen,
    /// Write the vector length register.
    SetVlen,
    /// Vector Prior Instances (HPCA'15).
    Vpi,
    /// Vector Last Unique (HPCA'15).
    Vlu,
    /// Vector Group Aggregate: sum (this paper).
    VgaSum,
    /// Vector Group Aggregate: minimum (this paper).
    VgaMin,
    /// Vector Group Aggregate: maximum (this paper).
    VgaMax,
    /// AVX-512-CDI-style conflict detection (related work, §VI-B).
    VConflict,
    /// `vptestnm`-style test-against-scalar into a mask (related work).
    VTestnm,
    /// Two-operand mask logic (and/andnot/or/xor; related work).
    MaskLogicOp,
    /// `kmov`: pack a mask register into a scalar (related work).
    MaskToScalar,
    /// Memory-side scatter-add (Ahn et al., HPCA 2005; related work).
    ScatterAdd,
}

impl Instruction {
    /// Every instruction, for catalogue printing (Table III regeneration
    /// plus the related-work [`InstClass::Extension`] entries).
    pub const ALL: [Instruction; 32] = [
        Instruction::SetAll,
        Instruction::ClearAll,
        Instruction::Iota,
        Instruction::VMax,
        Instruction::VAdd,
        Instruction::VSub,
        Instruction::VMul,
        Instruction::VAnd,
        Instruction::VShl,
        Instruction::VShr,
        Instruction::VCmpNe,
        Instruction::VCmpNez,
        Instruction::MaskPopcount,
        Instruction::Compress,
        Instruction::Expand,
        Instruction::RedMax,
        Instruction::RedMin,
        Instruction::RedSum,
        Instruction::GetElement,
        Instruction::SetElement,
        Instruction::GetVlen,
        Instruction::SetVlen,
        Instruction::Vpi,
        Instruction::Vlu,
        Instruction::VgaSum,
        Instruction::VgaMin,
        Instruction::VgaMax,
        Instruction::VConflict,
        Instruction::VTestnm,
        Instruction::MaskLogicOp,
        Instruction::MaskToScalar,
        Instruction::ScatterAdd,
    ];

    /// The instructions of the paper's Table III plus its VPI/VLU/VGAx
    /// additions — i.e. everything except the related-work extensions.
    pub fn is_paper(self) -> bool {
        self.class() != InstClass::Extension
    }

    /// The Table III class this instruction belongs to.
    pub fn class(self) -> InstClass {
        use Instruction::*;
        match self {
            SetAll | ClearAll | Iota => InstClass::Initialisation,
            VMax | VAdd | VSub | VMul => InstClass::Arithmetic,
            VAnd | VShl | VShr => InstClass::Bitwise,
            VCmpNe | VCmpNez => InstClass::Comparison,
            MaskPopcount => InstClass::Mask,
            Compress | Expand => InstClass::Permutative,
            RedMax | RedMin | RedSum => InstClass::Reduction,
            GetElement | SetElement | GetVlen | SetVlen => InstClass::Other,
            Vpi | Vlu | VgaSum | VgaMin | VgaMax => InstClass::Irregular,
            VConflict | VTestnm | MaskLogicOp | MaskToScalar | ScatterAdd => InstClass::Extension,
        }
    }

    /// Mnemonic for traces and the Table III printout.
    pub fn mnemonic(self) -> &'static str {
        use Instruction::*;
        match self {
            SetAll => "vset",
            ClearAll => "vclear",
            Iota => "viota",
            VMax => "vmax",
            VAdd => "vadd",
            VSub => "vsub",
            VMul => "vmul",
            VAnd => "vand",
            VShl => "vshl",
            VShr => "vshr",
            VCmpNe => "vcmp.ne",
            VCmpNez => "vcmp.nez",
            MaskPopcount => "mpopcnt",
            Compress => "vcompress",
            Expand => "vexpand",
            RedMax => "vredmax",
            RedMin => "vredmin",
            RedSum => "vredsum",
            GetElement => "vgetelem",
            SetElement => "vsetelem",
            GetVlen => "getvl",
            SetVlen => "setvl",
            Vpi => "vpi",
            Vlu => "vlu",
            VgaSum => "vgasum",
            VgaMin => "vgamin",
            VgaMax => "vgamax",
            VConflict => "vconflict",
            VTestnm => "vtestnm",
            MaskLogicOp => "mlogic",
            MaskToScalar => "kmov",
            ScatterAdd => "vscatadd",
        }
    }

    /// The timing category (see [`VecOpTiming`]).
    pub fn timing(self) -> VecOpTiming {
        use Instruction::*;
        match self {
            MaskPopcount | MaskLogicOp | MaskToScalar => VecOpTiming::MaskOp,
            GetElement | SetElement | GetVlen | SetVlen => VecOpTiming::Scalar,
            RedMax | RedMin | RedSum => VecOpTiming::Reduction,
            Vpi | Vlu | VgaSum | VgaMin | VgaMax => VecOpTiming::Cam,
            // VConflict is charged as an ordinary element-wise instruction
            // — generous to the CDI baseline (see `crate::conflict`).
            // ScatterAdd's memory phase is timed by the machine; the
            // element-wise charge here covers its address generation.
            _ => VecOpTiming::Elementwise,
        }
    }
}

/// Occupancy categories for non-memory vector instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOpTiming {
    /// One-cycle mask operation.
    MaskOp,
    /// One-cycle scalar/control access.
    Scalar,
    /// `ceil(VL / lanes)` cycles.
    Elementwise,
    /// `max(ceil(VL / lanes) − 1, 1)` + `log2(lanes)` cycles.
    Reduction,
    /// CAM-determined; caller supplies the cycle count from the CAM model.
    Cam,
}

impl VecOpTiming {
    /// Occupancy in cycles. For [`VecOpTiming::Cam`], pass the CAM model's
    /// cycle count in `cam_cycles` (ignored otherwise).
    pub fn occupancy(self, vl: usize, lanes: usize, cam_cycles: u64) -> u64 {
        assert!(lanes > 0 && lanes.is_power_of_two(), "lanes must be 2^k");
        let per_lane = vl.div_ceil(lanes) as u64;
        match self {
            VecOpTiming::MaskOp | VecOpTiming::Scalar => 1,
            VecOpTiming::Elementwise => per_lane.max(1),
            VecOpTiming::Reduction => per_lane.saturating_sub(1).max(1) + lanes.ilog2() as u64,
            VecOpTiming::Cam => cam_cycles.max(1),
        }
    }
}

/// Memory-access direction for vector memory instructions (each of the
/// three pattern classes supports all three — paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemDir {
    /// Load from memory.
    Load,
    /// Store to memory.
    Store,
    /// Non-binding prefetch.
    Prefetch,
}

/// The three vector memory access patterns (paper §II-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemPattern {
    /// Contiguous: `base .. base + vl * elem_bytes`.
    UnitStride {
        /// Start byte address.
        base: u64,
        /// Bytes per element.
        elem_bytes: u64,
    },
    /// Constant increment between consecutive elements.
    Strided {
        /// Start byte address.
        base: u64,
        /// Byte stride between elements.
        stride: i64,
        /// Bytes per element.
        elem_bytes: u64,
    },
    /// Gather/scatter via an offset vector (element indices, scaled).
    Indexed {
        /// Base byte address.
        base: u64,
        /// Per-element byte offsets.
        offsets: Vec<u64>,
        /// Bytes per element.
        elem_bytes: u64,
    },
}

impl MemPattern {
    /// The byte address of element `i`. Strided and indexed addresses
    /// wrap around the top of the address space (an index register may
    /// hold anything, in masked-off lanes too, and every `u64` is an
    /// address), in every build profile, and so do an element's bytes:
    /// one at `u64::MAX - 1` touches the top line and line 0.
    pub fn address(&self, i: usize) -> u64 {
        match self {
            MemPattern::UnitStride { base, elem_bytes } => base + i as u64 * elem_bytes,
            MemPattern::Strided { base, stride, .. } => {
                base.wrapping_add_signed(stride.wrapping_mul(i as i64))
            }
            MemPattern::Indexed { base, offsets, .. } => base.wrapping_add(offsets[i]),
        }
    }

    /// Bytes accessed per element.
    pub fn elem_bytes(&self) -> u64 {
        match self {
            MemPattern::UnitStride { elem_bytes, .. }
            | MemPattern::Strided { elem_bytes, .. }
            | MemPattern::Indexed { elem_bytes, .. } => *elem_bytes,
        }
    }

    /// Address-generation occupancy (paper §II-A): formulaic patterns charge
    /// one cycle per distinct cache line; indexed patterns charge
    /// `ceil(VL / lanes)` cycles.
    pub fn agen_cycles(&self, vl: usize, lanes: usize, line: u64) -> u64 {
        let lines = match self {
            MemPattern::Indexed { .. } => 0, // charged by VL, not by lines
            _ => self.lines_touched(vl, line).len(),
        };
        self.agen_cycles_for_lines(vl, lanes, lines)
    }

    /// [`MemPattern::agen_cycles`] for a caller that already holds the
    /// pattern's line list: `lines` is `lines_touched(vl, line).len()`.
    pub fn agen_cycles_for_lines(&self, vl: usize, lanes: usize, lines: usize) -> u64 {
        match self {
            MemPattern::Indexed { .. } => (vl.div_ceil(lanes) as u64).max(1),
            _ => lines.max(1) as u64,
        }
    }

    /// The distinct cache lines touched by the first `vl` elements, in first
    /// touch order.
    pub fn lines_touched(&self, vl: usize, line: u64) -> Vec<u64> {
        let mut lines = Vec::new();
        self.lines_into(vl, line, &mut lines);
        lines
    }

    /// [`MemPattern::lines_touched`] into a buffer the caller keeps: the
    /// buffer is cleared first, and a vector memory instruction that
    /// reuses one allocates nothing.
    pub fn lines_into(&self, vl: usize, line: u64, lines: &mut Vec<u64>) {
        lines.clear();
        if vl == 0 {
            return;
        }
        let eb = self.elem_bytes().max(1);
        match self {
            MemPattern::UnitStride { .. } => {
                // Consecutive elements abut or overlap, so together they
                // cover one contiguous run of lines.
                let last_byte = self.address(vl - 1) + eb - 1;
                lines.extend(self.address(0) / line..=last_byte / line);
            }
            MemPattern::Strided { .. } => {
                first_touches((0..vl).map(|i| self.address(i)), vl, eb, line, lines);
            }
            MemPattern::Indexed { base, offsets, .. } => {
                let addrs = offsets[..vl].iter().map(|&o| base.wrapping_add(o));
                first_touches(addrs, vl, eb, line, lines);
            }
        }
    }

    /// [`MemPattern::lines_touched`] as it was before the closed-range
    /// and last-line shortcuts and the line index: the differential
    /// tests' reference.
    #[cfg(test)]
    fn lines_touched_reference(&self, vl: usize, line: u64) -> Vec<u64> {
        let mut lines = Vec::new();
        for i in 0..vl {
            let a = self.address(i);
            let eb = self.elem_bytes().max(1);
            // An element may straddle a line boundary.
            let first = a / line;
            let last = (a + eb - 1) / line;
            for l in first..=last {
                if !lines.contains(&l) {
                    lines.push(l);
                }
            }
        }
        lines
    }
}

/// Slots of the line index in [`first_touches`]: four per element of
/// the longest vector it serves, so probes stay short.
const INDEX_SLOTS: usize = 256;

/// Fills the empty `lines` with the lines of the `vl` elements at `addrs`,
/// `eb` bytes each, in first-touch order, each line once. An element's
/// bytes wrap around the top of the address space like its address: one
/// that crosses it touches the top line, then line 0 on.
///
/// First-touch order decides the order the memory hierarchy sees the
/// lines in (LRU and DRAM bank state follow from it), so the list is
/// built by appending. Neighbouring elements mostly share a line, which
/// the check against the last one catches; whether any other line is
/// already listed is a question about the *set* of lines so far, so how
/// it is answered — a search of the list, or an open-addressed index of
/// entry numbers into it — cannot change the list
/// (`differential_tests::same_lines_in_the_same_order`).
fn first_touches(
    addrs: impl Iterator<Item = u64>,
    vl: usize,
    eb: u64,
    line: u64,
    lines: &mut Vec<u64>,
) {
    // A slot holds a line's position in `lines` plus one, zero while
    // empty. An element no wider than a line touches at most two, so 64
    // elements list at most 128 lines: positions fit a byte and the index
    // stays at most half full. Anything longer is searched.
    let mut index = [0u8; INDEX_SLOTS];
    let indexed = vl <= INDEX_SLOTS / 4 && eb <= line;
    for a in addrs {
        // An element may straddle a line boundary, or the top.
        let last = a.wrapping_add(eb - 1);
        let wraps = last < a;
        let top = if wraps { u64::MAX } else { last };
        for l in a / line..=top / line {
            touch(l, lines, &mut index, indexed);
        }
        if wraps {
            for l in 0..=last / line {
                touch(l, lines, &mut index, indexed);
            }
        }
    }
}

/// Appends line `l` to `lines` unless it is listed: [`first_touches`]'
/// body, inlined into both of its loops.
#[inline(always)]
fn touch(l: u64, lines: &mut Vec<u64>, index: &mut [u8; INDEX_SLOTS], indexed: bool) {
    if lines.last() == Some(&l) {
        return;
    }
    if !indexed {
        if !lines.contains(&l) {
            lines.push(l);
        }
        return;
    }
    let mut slot = first_slot(l, INDEX_SLOTS);
    loop {
        match index[slot] {
            0 => {
                lines.push(l);
                index[slot] = lines.len() as u8;
                return;
            }
            n if lines[usize::from(n) - 1] == l => return,
            _ => slot = (slot + 1) % INDEX_SLOTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_exhaustive_and_distinct() {
        let mut names: Vec<_> = Instruction::ALL.iter().map(|i| i.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Instruction::ALL.len());
    }

    #[test]
    fn table3_classes_have_expected_members() {
        let count = |c: InstClass| Instruction::ALL.iter().filter(|i| i.class() == c).count();
        assert_eq!(count(InstClass::Initialisation), 3);
        assert_eq!(count(InstClass::Arithmetic), 4);
        assert_eq!(count(InstClass::Bitwise), 3);
        assert_eq!(count(InstClass::Comparison), 2);
        assert_eq!(count(InstClass::Mask), 1);
        assert_eq!(count(InstClass::Permutative), 2);
        assert_eq!(count(InstClass::Reduction), 3);
        assert_eq!(count(InstClass::Other), 4);
        assert_eq!(count(InstClass::Irregular), 5);
        assert_eq!(count(InstClass::Extension), 5);
    }

    #[test]
    fn paper_catalogue_excludes_extensions() {
        let paper: Vec<_> = Instruction::ALL.iter().filter(|i| i.is_paper()).collect();
        assert_eq!(paper.len(), 27);
        assert!(!Instruction::VConflict.is_paper());
        assert!(!Instruction::ScatterAdd.is_paper());
        assert!(Instruction::VgaSum.is_paper());
    }

    #[test]
    fn extension_timing_categories() {
        assert_eq!(Instruction::VConflict.timing(), VecOpTiming::Elementwise);
        assert_eq!(Instruction::VTestnm.timing(), VecOpTiming::Elementwise);
        assert_eq!(Instruction::MaskLogicOp.timing(), VecOpTiming::MaskOp);
        assert_eq!(Instruction::MaskToScalar.timing(), VecOpTiming::MaskOp);
        assert_eq!(Instruction::ScatterAdd.timing(), VecOpTiming::Elementwise);
    }

    #[test]
    fn elementwise_occupancy_is_vl_over_lanes() {
        let t = VecOpTiming::Elementwise;
        assert_eq!(t.occupancy(64, 4, 0), 16);
        assert_eq!(t.occupancy(63, 4, 0), 16);
        assert_eq!(t.occupancy(1, 4, 0), 1);
        assert_eq!(t.occupancy(0, 4, 0), 1);
    }

    #[test]
    fn reduction_occupancy_matches_paper_formula() {
        // Figure 5: VL = 8, lanes = 2 → 3 cycles per-lane + 1 interlane = 4.
        assert_eq!(VecOpTiming::Reduction.occupancy(8, 2, 0), 4);
        // Paper config: VL = 64, lanes = 4 → 15 + 2 = 17.
        assert_eq!(VecOpTiming::Reduction.occupancy(64, 4, 0), 17);
    }

    #[test]
    fn mask_ops_are_single_cycle() {
        assert_eq!(VecOpTiming::MaskOp.occupancy(64, 4, 0), 1);
        assert_eq!(Instruction::MaskPopcount.timing(), VecOpTiming::MaskOp);
    }

    #[test]
    fn cam_timing_passes_through() {
        assert_eq!(VecOpTiming::Cam.occupancy(64, 4, 10), 10);
        assert_eq!(VecOpTiming::Cam.occupancy(64, 4, 0), 1);
    }

    #[test]
    fn unit_stride_addresses_and_lines() {
        let p = MemPattern::UnitStride {
            base: 0,
            elem_bytes: 4,
        };
        assert_eq!(p.address(0), 0);
        assert_eq!(p.address(15), 60);
        // 64 elements * 4B = 256B = 4 lines of 64B.
        assert_eq!(p.lines_touched(64, 64).len(), 4);
        assert_eq!(p.agen_cycles(64, 4, 64), 4);
    }

    #[test]
    fn strided_addresses_and_lines() {
        let p = MemPattern::Strided {
            base: 0,
            stride: 64,
            elem_bytes: 4,
        };
        // Each element on its own line.
        assert_eq!(p.lines_touched(16, 64).len(), 16);
        assert_eq!(p.agen_cycles(16, 4, 64), 16);
    }

    #[test]
    fn negative_stride_works() {
        let p = MemPattern::Strided {
            base: 1024,
            stride: -4,
            elem_bytes: 4,
        };
        assert_eq!(p.address(0), 1024);
        assert_eq!(p.address(1), 1020);
    }

    #[test]
    fn indexed_agen_is_vl_over_lanes() {
        let p = MemPattern::Indexed {
            base: 0,
            offsets: vec![0; 64],
            elem_bytes: 4,
        };
        assert_eq!(p.agen_cycles(64, 4, 64), 16);
        // Even if all offsets hit one line, agen still costs VL/lanes.
        assert_eq!(p.lines_touched(64, 64).len(), 1);
    }

    #[test]
    fn element_crossing_the_top_touches_the_top_line_and_line_0() {
        // Index 2^62 - 1 from base 2 sits `eb` bytes below the base: a
        // 4-byte element's bytes are u64::MAX - 1, u64::MAX, 0 and 1.
        for (line, eb) in [(64u64, 4u64), (48, 4), (32, 8), (4, 8)] {
            let p = MemPattern::Indexed {
                base: 2,
                offsets: vec![((1u64 << 62) - 1).wrapping_mul(eb), 0],
                elem_bytes: eb,
            };
            let top = u64::MAX / line;
            let mut expect: Vec<u64> = (p.address(0) / line..=top).collect();
            // The last byte is 1.
            expect.extend(0..=1 / line);
            assert_eq!(
                p.lines_touched(1, line),
                expect,
                "{line}-byte lines, {eb}-byte elements"
            );
            if line >= 16 {
                // Element 1 (bytes 2 to 9, line 0) adds nothing new.
                assert_eq!(p.lines_touched(2, line), expect);
            }
        }
        let strided = MemPattern::Strided {
            base: 2,
            stride: -4,
            elem_bytes: 4,
        };
        assert_eq!(strided.lines_touched(2, 64), vec![0, u64::MAX / 64]);
    }

    #[test]
    fn element_straddling_line_boundary_counts_both_lines() {
        let p = MemPattern::UnitStride {
            base: 62,
            elem_bytes: 4,
        };
        assert_eq!(p.lines_touched(1, 64), vec![0, 1]);
    }
}

/// Old element-by-element dedupe ≡ new `lines_into`.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use proptest::prelude::*;

    fn elem_bytes() -> impl Strategy<Value = u64> {
        prop::sample::select(vec![1u64, 4, 8])
    }

    // Lines smaller than an element (every element straddles, and an
    // 8-byte one is wider than the line: no index), the machine's 64
    // bytes, and one that is not a power of two.
    fn line_bytes() -> impl Strategy<Value = u64> {
        prop::sample::select(vec![4u64, 64, 48])
    }

    // Up to the longest vector the line index serves, and past it.
    fn vector_lengths() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..65, 0usize..65, 65usize..257]
    }

    // Offsets that revisit lines out of order, and far ones that wrap
    // around the top of the address space.
    fn offsets() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..256,
            0u64..100_000,
            (0u64..4, 0u64..200).prop_map(|(hi, lo)| (hi << 62) + lo),
            (1u64..5_000).prop_map(|below| below.wrapping_neg()),
        ]
    }

    fn patterns() -> impl Strategy<Value = MemPattern> {
        // Bases leave room below for 256 elements of the most negative
        // stride and sit at every offset within a line.
        let base = 1u64 << 21..(1u64 << 21) + 4_096;
        let stride = prop_oneof![Just(0i64), -300i64..300, -5_000i64..5_000];
        prop_oneof![
            (base.clone(), elem_bytes())
                .prop_map(|(base, elem_bytes)| MemPattern::UnitStride { base, elem_bytes }),
            (base.clone(), stride, elem_bytes()).prop_map(|(base, stride, elem_bytes)| {
                MemPattern::Strided {
                    base,
                    stride,
                    elem_bytes,
                }
            }),
            (
                base,
                prop::collection::vec(offsets(), 256..257),
                elem_bytes()
            )
                .prop_map(|(base, offsets, elem_bytes)| MemPattern::Indexed {
                    base,
                    offsets,
                    elem_bytes,
                }),
        ]
    }

    #[test]
    fn lines_that_share_an_index_slot_are_told_apart() {
        // Line numbers whose hash product has a zero top byte all start
        // their probe at slot 0; the multiplier's inverse finds them.
        use crate::cam::HASH_MULTIPLIER;
        const INVERSE: u64 = 0xF1DE_83E1_9937_733D;
        assert_eq!(INVERSE.wrapping_mul(HASH_MULTIPLIER), 1);
        let colliding: Vec<u64> = (1u64..)
            .map(|product| INVERSE.wrapping_mul(product))
            .filter(|line| line >> 58 == 0)
            .take(24)
            .collect();
        // 64 elements over 24 lines: each revisited, out of order.
        let offsets: Vec<u64> = (0..64).map(|i| colliding[i * 7 % 24] << 6).collect();
        let pattern = MemPattern::Indexed {
            base: 0,
            offsets,
            elem_bytes: 4,
        };
        let reference = pattern.lines_touched_reference(64, 64);
        assert_eq!(reference.len(), 24);
        assert!(reference.iter().all(|&l| first_slot(l, INDEX_SLOTS) == 0));
        assert_eq!(pattern.lines_touched(64, 64), reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        #[test]
        fn same_lines_in_the_same_order(
            calls in prop::collection::vec((patterns(), vector_lengths(), line_bytes()), 1..4),
            lanes in prop::sample::select(vec![1usize, 4, 8]),
        ) {
            // One buffer across calls of different patterns, as the
            // machine keeps one across instructions.
            let mut lines = vec![7; 3];
            for (pattern, vl, line) in calls {
                let reference = pattern.lines_touched_reference(vl, line);
                pattern.lines_into(vl, line, &mut lines);
                prop_assert_eq!(&lines, &reference);
                prop_assert_eq!(&pattern.lines_touched(vl, line), &reference);
                // Address generation charged what the old line list charged.
                let old_agen = match pattern {
                    MemPattern::Indexed { .. } => (vl.div_ceil(lanes) as u64).max(1),
                    _ => reference.len().max(1) as u64,
                };
                prop_assert_eq!(pattern.agen_cycles(vl, lanes, line), old_agen);
                prop_assert_eq!(
                    pattern.agen_cycles_for_lines(vl, lanes, reference.len()),
                    old_agen
                );
            }
        }
    }
}
