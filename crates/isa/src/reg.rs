//! Architectural vector state: vector registers, mask registers and the
//! vector length register (§II-A of the paper).
//!
//! The paper's ISA extension provides sixteen logical vector registers and
//! four logical mask registers, all `MVL` elements wide, plus a vector length
//! register managed with explicit get/set instructions. (The thirty-two
//! *physical* registers of the paper exist only for renaming and are a
//! microarchitectural matter — see `vagg-cpu`; the architectural state here
//! is the logical file.)

use std::fmt;

/// Number of logical vector registers (paper §II-A).
pub const NUM_VREGS: usize = 16;
/// Number of logical mask registers (paper §II-A).
pub const NUM_MASKS: usize = 4;

/// Names a logical vector register `v0..v15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vreg(pub u8);

/// Names a logical mask register `m0..m3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mreg(pub u8);

impl Vreg {
    /// Validates the register index.
    pub fn checked(i: u8) -> Option<Vreg> {
        (usize::from(i) < NUM_VREGS).then_some(Vreg(i))
    }
}

impl Mreg {
    /// Validates the register index.
    pub fn checked(i: u8) -> Option<Mreg> {
        (usize::from(i) < NUM_MASKS).then_some(Mreg(i))
    }
}

impl fmt::Display for Vreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Mreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One vector register's contents. Elements are 64-bit; the paper's
/// experiments use 32-bit keys and values, which occupy the low half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorData {
    elems: Vec<u64>,
}

impl VectorData {
    /// A register of `mvl` zeroed elements.
    pub fn zeroed(mvl: usize) -> Self {
        Self {
            elems: vec![0; mvl],
        }
    }

    /// Wraps existing element data.
    pub fn from_elems(elems: Vec<u64>) -> Self {
        Self { elems }
    }

    /// The elements.
    pub fn as_slice(&self) -> &[u64] {
        &self.elems
    }

    /// Mutable access to the elements.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.elems
    }

    /// Register width (the MVL it was created with).
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the register holds zero elements (only for MVL = 0, which the
    /// file never constructs).
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }
}

/// One mask register's contents: one bit per element position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskData {
    bits: Vec<bool>,
}

impl MaskData {
    /// A mask of `mvl` cleared bits.
    pub fn cleared(mvl: usize) -> Self {
        Self {
            bits: vec![false; mvl],
        }
    }

    /// A mask with the first `vl` bits set (the implicit "all" mask).
    pub fn all_set(mvl: usize, vl: usize) -> Self {
        let mut bits = vec![false; mvl];
        for b in bits.iter_mut().take(vl) {
            *b = true;
        }
        Self { bits }
    }

    /// Wraps existing bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// The bits.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Mutable access to the bits.
    pub fn as_mut_slice(&mut self) -> &mut [bool] {
        &mut self.bits
    }

    /// Number of set bits among the first `vl` (the popcount instruction).
    pub fn popcount(&self, vl: usize) -> usize {
        self.bits.iter().take(vl).filter(|&&b| b).count()
    }

    /// Register width.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// The complete architectural vector state.
#[derive(Debug, Clone)]
pub struct VectorFile {
    mvl: usize,
    vl: usize,
    vregs: Vec<VectorData>,
    masks: Vec<MaskData>,
}

impl VectorFile {
    /// Creates a file of [`NUM_VREGS`] vector and [`NUM_MASKS`] mask
    /// registers, all `mvl` wide, with the vector length initialised to
    /// `mvl`.
    ///
    /// # Panics
    ///
    /// Panics if `mvl == 0`.
    pub fn new(mvl: usize) -> Self {
        assert!(mvl > 0, "MVL must be positive");
        Self {
            mvl,
            vl: mvl,
            vregs: (0..NUM_VREGS).map(|_| VectorData::zeroed(mvl)).collect(),
            masks: (0..NUM_MASKS).map(|_| MaskData::cleared(mvl)).collect(),
        }
    }

    /// Maximum vector length.
    pub fn mvl(&self) -> usize {
        self.mvl
    }

    /// Current vector length (`get vlen`).
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Sets the vector length (`set vlen`), clamped to MVL as in classic
    /// vector machines.
    pub fn set_vl(&mut self, vl: usize) {
        self.vl = vl.min(self.mvl);
    }

    /// Reads a vector register.
    pub fn vreg(&self, r: Vreg) -> &VectorData {
        &self.vregs[usize::from(r.0)]
    }

    /// Writes a vector register.
    pub fn vreg_mut(&mut self, r: Vreg) -> &mut VectorData {
        &mut self.vregs[usize::from(r.0)]
    }

    /// Reads a mask register.
    pub fn mask(&self, m: Mreg) -> &MaskData {
        &self.masks[usize::from(m.0)]
    }

    /// Writes a mask register.
    pub fn mask_mut(&mut self, m: Mreg) -> &mut MaskData {
        &mut self.masks[usize::from(m.0)]
    }

    /// Both register banks at once, each indexed by register number, so
    /// that an instruction can write one register while it reads others
    /// and a mask in place.
    pub fn banks_mut(&mut self) -> (&mut [VectorData], &mut [MaskData]) {
        (&mut self.vregs, &mut self.masks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_has_sixteen_vregs_four_masks() {
        let f = VectorFile::new(64);
        assert!(Vreg::checked(15).is_some());
        assert!(Vreg::checked(16).is_none());
        assert!(Mreg::checked(3).is_some());
        assert!(Mreg::checked(4).is_none());
        assert_eq!(f.vreg(Vreg(15)).len(), 64);
        assert_eq!(f.mask(Mreg(3)).len(), 64);
    }

    #[test]
    fn vl_initialises_to_mvl_and_clamps() {
        let mut f = VectorFile::new(64);
        assert_eq!(f.vl(), 64);
        f.set_vl(10);
        assert_eq!(f.vl(), 10);
        f.set_vl(1000);
        assert_eq!(f.vl(), 64);
        f.set_vl(0);
        assert_eq!(f.vl(), 0);
    }

    #[test]
    fn registers_are_independent() {
        let mut f = VectorFile::new(8);
        f.vreg_mut(Vreg(0)).as_mut_slice()[0] = 7;
        assert_eq!(f.vreg(Vreg(1)).as_slice()[0], 0);
    }

    #[test]
    fn banks_borrow_a_destination_beside_its_sources() {
        let mut f = VectorFile::new(4);
        f.vreg_mut(Vreg(2)).as_mut_slice()[1] = 9;
        f.mask_mut(Mreg(1)).as_mut_slice()[1] = true;
        let (vregs, masks) = f.banks_mut();
        let (src, dst) = vregs.split_at_mut(3);
        if masks[1].as_slice()[1] {
            dst[0].as_mut_slice()[1] = src[2].as_slice()[1] + 1;
        }
        assert_eq!(f.vreg(Vreg(3)).as_slice(), &[0, 10, 0, 0]);
    }

    #[test]
    fn mask_popcount_respects_vl() {
        let mut m = MaskData::cleared(8);
        m.as_mut_slice()[0] = true;
        m.as_mut_slice()[5] = true;
        assert_eq!(m.popcount(8), 2);
        assert_eq!(m.popcount(5), 1);
        assert_eq!(m.popcount(0), 0);
    }

    #[test]
    fn all_set_mask() {
        let m = MaskData::all_set(8, 3);
        assert_eq!(
            m.as_slice(),
            &[true, true, true, false, false, false, false, false]
        );
    }

    #[test]
    #[should_panic(expected = "MVL must be positive")]
    fn zero_mvl_panics() {
        VectorFile::new(0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Vreg(3).to_string(), "v3");
        assert_eq!(Mreg(1).to_string(), "m1");
    }
}
