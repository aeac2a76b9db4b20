//! The simulated flat address space.
//!
//! Algorithms running on the [`crate::machine::Machine`] address memory by
//! simulated byte address, exactly as the paper's kernels address their
//! column arrays and bookkeeping tables. Storage is paged and allocated on
//! demand, so multi-gigabyte layouts (e.g. polytable's MVL-replicated tables
//! at high cardinality) only consume host memory for pages actually touched.
//!
//! Pages are found through a two-level radix table (directory → region
//! table → slab of pages), not a hash: the functional model pays one
//! lookup per element of every vector load and store. Only the bytes and
//! [`AddressSpace::resident_pages`] are observable; the layout is not
//! (ARCHITECTURE.md, "Host cost of the functional model").

use std::collections::HashMap;
use std::ops::Range;

// 256-byte pages: fine-grained enough that sparse gather/scatter traffic
// into gigabyte-scale replicated tables stays cheap on the host.
const PAGE_SHIFT: u32 = 8;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
// 256 pages (64 KiB) per region table: a table is 1 KiB, so a lone page
// in a sparse layout costs five pages' worth of host memory, not more.
const TABLE_SHIFT: u32 = 8;
const TABLE_PAGES: usize = 1 << TABLE_SHIFT;
// The directory covers the first 2^22 regions (256 GiB, at most 16 MiB
// of directory): far more than the bump allocator hands out for any
// layout the host could back, so only stray addresses lie beyond it.
const DIR_REGIONS: u64 = 1 << 22;

type Page = [u8; PAGE_BYTES];

/// Sparse, zero-initialised byte-addressable memory with a bump allocator.
///
/// Any `u64` address may be read or written. Writing zeros to a page that
/// was never materialised is a no-op: absent pages already read as zero.
/// This keeps table-clearing phases (e.g. polytable zeroing gigabytes of
/// replicated cells) from consuming host memory — the *timing* of those
/// stores is charged by the hierarchy model regardless.
///
/// Links between the levels are an index plus one, so that zero — what a
/// fresh directory entry or table holds — means "absent".
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// Region number → its table in `tables`; grown to the highest region
    /// written.
    dir: Vec<u32>,
    /// Page within a region → its page in `slab`.
    tables: Vec<[u32; TABLE_PAGES]>,
    /// The materialised pages, in no particular order.
    slab: Vec<Page>,
    /// The page number of each page in `slab`: what
    /// [`AddressSpace::release_to`] finds the pages above a mark by.
    owners: Vec<u64>,
    /// Page number → its page in `slab`, for regions past [`DIR_REGIONS`].
    far: HashMap<u64, u32>,
    /// Next free address for [`AddressSpace::alloc`].
    brk: u64,
}

/// A 32-bit memory word as the bulk transfers carry it: a `u32` of a host
/// slice, or the low half of a vector register's `u64` element.
trait Word: Copy + From<u32> {
    fn low_u32(self) -> u32;
}

impl Word for u32 {
    fn low_u32(self) -> u32 {
        self
    }
}

impl Word for u64 {
    fn low_u32(self) -> u32 {
        self as u32
    }
}

/// The runs, one per page, of `len` words starting at the 4-aligned
/// `base`: each run's address and its range of word numbers.
fn page_runs(base: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let addr = base + 4 * done as u64;
        let room = (PAGE_BYTES - (addr as usize & (PAGE_BYTES - 1))) / 4;
        let run = done..len.min(done + room);
        done = run.end;
        Some((addr, run))
    })
}

impl AddressSpace {
    /// An empty space; allocations start above the null page.
    pub fn new() -> Self {
        Self {
            brk: PAGE_BYTES as u64,
            ..Self::default()
        }
    }

    /// Reserves `bytes` of fresh zeroed memory aligned to `align` (which
    /// must be a power of two). Returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if the reservation does not fit below `u64::MAX`.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = self.brk.checked_add(align - 1).map(|b| b & !(align - 1));
        let end = base.and_then(|b| b.checked_add(bytes.max(1)));
        let (Some(base), Some(end)) = (base, end) else {
            panic!(
                "alloc of {bytes} bytes aligned to {align} overflows the address space (brk {:#x})",
                self.brk
            );
        };
        self.brk = end;
        base
    }

    /// Releases every allocation and forgets the materialised pages,
    /// returning the space to its freshly-constructed state. Long-lived
    /// owners (e.g. a query session reusing one machine) call this
    /// between units of work so host memory stays bounded: the page
    /// storage is kept and recycled, so the next unit of work allocates
    /// only what it needs beyond the largest one so far.
    pub fn reset(&mut self) {
        self.dir.clear();
        self.tables.clear();
        self.slab.clear();
        self.owners.clear();
        self.far.clear();
        self.brk = PAGE_BYTES as u64;
    }

    /// The next free address: everything [`AddressSpace::alloc`] hands
    /// out from now on lies at or above it, and a later
    /// [`AddressSpace::release_to`] takes exactly that back.
    pub fn mark(&self) -> u64 {
        self.brk
    }

    /// [`AddressSpace::reset`], restricted to the addresses at or above
    /// `mark`: the allocations made since `mark` was taken are released
    /// (the next [`AddressSpace::alloc`] starts at `mark` again), every
    /// byte at or above `mark` reads zero, and a zero written there
    /// materialises nothing. Everything below `mark` keeps its bytes. A
    /// page that `mark` cuts in two stays resident if it was, with its
    /// upper part zeroed; the pages wholly above are forgotten and their
    /// storage recycled, so an owner that releases after every unit of
    /// work holds what lies below the mark plus one unit's pages, however
    /// many units it runs.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is not one this space could have handed out
    /// since its last reset (below the null page's end, or above the
    /// current break).
    pub fn release_to(&mut self, mark: u64) {
        assert!(
            (PAGE_BYTES as u64..=self.brk).contains(&mark),
            "mark {mark:#x} is not between the null page and the break {:#x}",
            self.brk
        );
        self.brk = mark;
        let cut = (mark as usize) & (PAGE_BYTES - 1);
        if cut != 0 {
            if let Some(i) = self.slot(mark) {
                self.slab[i][cut..].fill(0);
            }
        }
        let first_released = mark.div_ceil(PAGE_BYTES as u64);
        let mut i = 0;
        while i < self.slab.len() {
            if self.owners[i] < first_released {
                i += 1;
                continue;
            }
            // Forget page `i`; the last page moves into its place.
            self.set_link(self.owners[i], 0);
            self.slab.swap_remove(i);
            self.owners.swap_remove(i);
            if let Some(&moved) = self.owners.get(i) {
                self.set_link(moved, i as u32 + 1);
            }
        }
    }

    /// Points the link of the materialised page `page_no` at `link`
    /// (zero: absent).
    fn set_link(&mut self, page_no: u64, link: u32) {
        let region = page_no >> TABLE_SHIFT;
        if region < DIR_REGIONS {
            let table = self.dir[region as usize] as usize - 1;
            self.tables[table][page_no as usize % TABLE_PAGES] = link;
        } else if link == 0 {
            self.far.remove(&page_no);
        } else {
            self.far.insert(page_no, link);
        }
    }

    /// Number of host pages materialised (test/diagnostic hook).
    pub fn resident_pages(&self) -> usize {
        self.slab.len()
    }

    /// Where in `slab` the page holding `addr` is, if it was ever
    /// materialised: two dependent loads. Inlined into every caller (a
    /// gather or scatter calls it once per element); the hashed lookup
    /// past the directory, which no kernel reaches, is not.
    #[inline(always)]
    fn slot(&self, addr: u64) -> Option<usize> {
        let page_no = addr >> PAGE_SHIFT;
        let region = page_no >> TABLE_SHIFT;
        let link = if region < DIR_REGIONS {
            match self.dir.get(region as usize) {
                Some(&t) if t != 0 => self.tables[t as usize - 1][page_no as usize % TABLE_PAGES],
                _ => 0,
            }
        } else {
            self.far_link(page_no)
        };
        (link as usize).checked_sub(1)
    }

    /// [`AddressSpace::slot`]'s link for a page past the directory.
    #[cold]
    #[inline(never)]
    fn far_link(&self, page_no: u64) -> u32 {
        self.far.get(&page_no).copied().unwrap_or(0)
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        self.slot(addr).map(|i| &self.slab[i])
    }

    /// Links a fresh zeroed page for `addr`, which must have none.
    fn materialise(&mut self, addr: u64) -> &mut Page {
        let page_no = addr >> PAGE_SHIFT;
        let region = page_no >> TABLE_SHIFT;
        let link = if region < DIR_REGIONS {
            let region = region as usize;
            if region >= self.dir.len() {
                self.dir.resize(region + 1, 0);
            }
            if self.dir[region] == 0 {
                self.tables.push([0; TABLE_PAGES]);
                self.dir[region] =
                    u32::try_from(self.tables.len()).expect("fewer tables than pages");
            }
            &mut self.tables[self.dir[region] as usize - 1][page_no as usize % TABLE_PAGES]
        } else {
            self.far.entry(page_no).or_insert(0)
        };
        debug_assert_eq!(*link, 0, "page already materialised");
        self.slab.push([0; PAGE_BYTES]);
        self.owners.push(page_no);
        *link = u32::try_from(self.slab.len()).expect("under 2^32 resident pages (1 TiB)");
        self.slab.last_mut().expect("just pushed")
    }

    /// Copies `bytes` to `addr`; they must not cross a page boundary.
    /// Zeros onto an absent page materialise nothing.
    #[inline]
    fn write_in_page(&mut self, addr: u64, bytes: &[u8]) {
        let page = match self.slot(addr) {
            Some(i) => &mut self.slab[i],
            None if bytes.iter().all(|&b| b == 0) => return,
            None => self.materialise(addr),
        };
        let off = (addr as usize) & (PAGE_BYTES - 1);
        page[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads `N` bytes at `addr` (may straddle pages, and wrap from the
    /// top of the address space to address 0).
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        let mut b = [0u8; N];
        if off + N <= PAGE_BYTES {
            if let Some(p) = self.page(addr) {
                b.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, x) in b.iter_mut().enumerate() {
                *x = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        b
    }

    /// Writes `N` bytes at `addr` (may straddle pages, and wrap).
    #[inline]
    fn write_bytes<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + N <= PAGE_BYTES {
            self.write_in_page(addr, &bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_in_page(addr.wrapping_add(i as u64), &[b]);
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr as usize) & (PAGE_BYTES - 1)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.write_in_page(addr, &[val]);
    }

    /// Reads a little-endian `u32` (may straddle pages).
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_bytes(addr, val.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_bytes(addr, val.to_le_bytes());
    }

    /// Reads an element of `width` ∈ {1, 4, 8} bytes zero-extended to
    /// `u64`.
    pub fn read_elem(&self, addr: u64, width: u64) -> u64 {
        match width {
            1 => self.read_u8(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            w => panic!("unsupported element width {w}"),
        }
    }

    /// Writes the low `width` ∈ {1, 4, 8} bytes of `val`.
    pub fn write_elem(&mut self, addr: u64, width: u64, val: u64) {
        match width {
            1 => self.write_u8(addr, val as u8),
            4 => self.write_u32(addr, val as u32),
            8 => self.write_u64(addr, val),
            w => panic!("unsupported element width {w}"),
        }
    }

    /// Writes `words` from `base` on. From a 4-aligned base, one page
    /// run at a time: one page lookup and one copy loop per 256-byte
    /// page. An aligned word lies in one page, and a run of zero words
    /// onto an absent page materialises nothing, as each word alone would
    /// not — so the bytes and `resident_pages()` are those of one
    /// `write_u32` per word (`differential_tests`), which is what any
    /// other base gets: its words may straddle pages.
    fn write_words<W: Word>(&mut self, base: u64, words: &[W]) {
        if !base.is_multiple_of(4) {
            for (i, w) in words.iter().enumerate() {
                self.write_u32(base + 4 * i as u64, w.low_u32());
            }
            return;
        }
        for (addr, run) in page_runs(base, words.len()) {
            let words = &words[run];
            let page = match self.slot(addr) {
                Some(i) => &mut self.slab[i],
                // As in `write_in_page`: zeros onto an absent page.
                None if words.iter().all(|w| w.low_u32() == 0) => continue,
                None => self.materialise(addr),
            };
            let off = (addr as usize) & (PAGE_BYTES - 1);
            for (dst, w) in page[off..].chunks_exact_mut(4).zip(words) {
                dst.copy_from_slice(&w.low_u32().to_le_bytes());
            }
        }
    }

    /// Fills `out` with the words from `base` on
    /// ([`AddressSpace::write_words`]'s twin).
    fn read_words<W: Word>(&self, base: u64, out: &mut [W]) {
        if !base.is_multiple_of(4) {
            for (i, w) in out.iter_mut().enumerate() {
                *w = self.read_u32(base + 4 * i as u64).into();
            }
            return;
        }
        for (addr, run) in page_runs(base, out.len()) {
            let out = &mut out[run];
            match self.page(addr) {
                Some(page) => {
                    let off = (addr as usize) & (PAGE_BYTES - 1);
                    for (w, b) in out.iter_mut().zip(page[off..].chunks_exact(4)) {
                        *w = u32::from_le_bytes(b.try_into().expect("4 bytes")).into();
                    }
                }
                None => out.fill(0.into()),
            }
        }
    }

    /// [`AddressSpace::write_elem`] for `vals.len()` consecutive elements
    /// of `width` bytes from `base` on — an unmasked unit-stride vector
    /// store. 32-bit elements move by page run; the other widths go
    /// element by element.
    pub(crate) fn write_run(&mut self, base: u64, width: u64, vals: &[u64]) {
        if width == 4 {
            self.write_words(base, vals);
        } else {
            for (i, &v) in vals.iter().enumerate() {
                self.write_elem(base + i as u64 * width, width, v);
            }
        }
    }

    /// [`AddressSpace::read_elem`] for `out.len()` consecutive elements
    /// ([`AddressSpace::write_run`]'s twin) — an unmasked unit-stride
    /// vector load.
    pub(crate) fn read_run(&self, base: u64, width: u64, out: &mut [u64]) {
        if width == 4 {
            self.read_words(base, out);
        } else {
            for (i, o) in out.iter_mut().enumerate() {
                *o = self.read_elem(base + i as u64 * width, width);
            }
        }
    }

    /// The 32-bit words at `base + offsets[i]` (wrapping) into `out[i]`,
    /// for every element `mask` leaves active (all without a mask); the
    /// others keep their contents — a 32-bit gather. One page lookup
    /// per element, the word copied in place; a word that straddles
    /// pages goes through [`AddressSpace::read_u32`]. The same as
    /// [`AddressSpace::read_elem`] per active element
    /// (`differential_tests::indexed_words_as_element_by_element`).
    pub(crate) fn gather_u32(
        &self,
        base: u64,
        offsets: &[u64],
        mask: Option<&[bool]>,
        out: &mut [u64],
    ) {
        for (i, (&offset, o)) in offsets.iter().zip(out).enumerate() {
            if !mask.is_none_or(|mk| mk[i]) {
                continue;
            }
            let addr = base.wrapping_add(offset);
            let off = (addr as usize) & (PAGE_BYTES - 1);
            *o = if off <= PAGE_BYTES - 4 {
                self.page(addr).map_or(0, |p| {
                    u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes"))
                })
            } else {
                self.read_u32(addr)
            }
            .into();
        }
    }

    /// For every active element in element order, the 32-bit word at
    /// `base + offsets[i]` (wrapping) becomes `word(i, old)` — a 32-bit
    /// scatter (`word` ignores `old`) or scatter-add. A later element
    /// reads what an earlier one wrote, so the last writer wins; a zero
    /// onto an absent page materialises nothing. One page lookup per
    /// element; a straddling word goes through
    /// [`AddressSpace::read_u32`] / [`AddressSpace::write_u32`]. The same
    /// as [`AddressSpace::read_elem`] then [`AddressSpace::write_elem`]
    /// per active element
    /// (`differential_tests::indexed_words_as_element_by_element`).
    pub(crate) fn scatter_u32(
        &mut self,
        base: u64,
        offsets: &[u64],
        mask: Option<&[bool]>,
        mut word: impl FnMut(usize, u32) -> u32,
    ) {
        for (i, &offset) in offsets.iter().enumerate() {
            if !mask.is_none_or(|mk| mk[i]) {
                continue;
            }
            let addr = base.wrapping_add(offset);
            let off = (addr as usize) & (PAGE_BYTES - 1);
            if off > PAGE_BYTES - 4 {
                let new = word(i, self.read_u32(addr));
                self.write_u32(addr, new);
                continue;
            }
            let page = match self.slot(addr) {
                Some(slot) => &mut self.slab[slot],
                None => match word(i, 0) {
                    0 => continue,
                    new => {
                        self.materialise(addr)[off..off + 4].copy_from_slice(&new.to_le_bytes());
                        continue;
                    }
                },
            };
            let cell: &mut [u8; 4] = (&mut page[off..off + 4]).try_into().expect("4 bytes");
            *cell = word(i, u32::from_le_bytes(*cell)).to_le_bytes();
        }
    }

    /// Host-side bulk upload of a `u32` slice (dataset staging; untimed).
    pub fn write_slice_u32(&mut self, base: u64, data: &[u32]) {
        self.write_words(base, data);
    }

    /// Host-side bulk download of `len` `u32`s (result checking; untimed).
    pub fn read_slice_u32(&self, base: u64, len: usize) -> Vec<u32> {
        let mut out = vec![0; len];
        self.read_words(base, &mut out);
        out
    }

    /// Allocates and uploads a `u32` column, returning its base address.
    pub fn alloc_slice_u32(&mut self, data: &[u32]) -> u64 {
        let base = self.alloc(4 * data.len() as u64, 64);
        self.write_slice_u32(base, data);
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let s = AddressSpace::new();
        assert_eq!(s.read_u32(0x1234), 0);
        assert_eq!(s.read_u64(0xFFFF_FFFF), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut s = AddressSpace::new();
        s.write_u32(0x1000, 0xDEAD_BEEF);
        assert_eq!(s.read_u32(0x1000), 0xDEAD_BEEF);
        s.write_u64(0x2000, 0x0102_0304_0506_0708);
        assert_eq!(s.read_u64(0x2000), 0x0102_0304_0506_0708);
    }

    #[test]
    fn values_straddle_page_boundaries() {
        let mut s = AddressSpace::new();
        let addr = (1 << PAGE_SHIFT) - 2; // 2 bytes in page 0, 2 in page 1
        s.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(s.read_u32(addr), 0xAABB_CCDD);
        assert!(s.resident_pages() >= 2);
    }

    #[test]
    fn alloc_respects_alignment_and_is_disjoint() {
        let mut s = AddressSpace::new();
        let a = s.alloc(100, 64);
        let b = s.alloc(100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        assert_ne!(a, 0, "null page must stay unallocated");
    }

    #[test]
    #[should_panic(expected = "overflows the address space")]
    fn alloc_past_the_top_panics_instead_of_wrapping() {
        let mut s = AddressSpace::new();
        s.alloc(u64::MAX - 1_000, 64);
        // Would wrap `brk` to a few hundred and alias the null page.
        s.alloc(2_000, 64);
    }

    #[test]
    fn elem_widths() {
        let mut s = AddressSpace::new();
        s.write_elem(0x10, 1, 0x1FF);
        assert_eq!(s.read_elem(0x10, 1), 0xFF);
        s.write_elem(0x20, 4, u64::MAX);
        assert_eq!(s.read_elem(0x20, 4), u32::MAX as u64);
        s.write_elem(0x30, 8, 42);
        assert_eq!(s.read_elem(0x30, 8), 42);
    }

    #[test]
    #[should_panic(expected = "unsupported element width")]
    fn bad_width_panics() {
        AddressSpace::new().read_elem(0, 3);
    }

    #[test]
    fn slice_roundtrip() {
        let mut s = AddressSpace::new();
        let data: Vec<u32> = (0..1000).collect();
        let base = s.alloc_slice_u32(&data);
        assert_eq!(s.read_slice_u32(base, 1000), data);
    }

    #[test]
    fn sparse_allocation_is_lazy() {
        let mut s = AddressSpace::new();
        // Reserve 1 GB but touch only one word.
        let base = s.alloc(1 << 30, 64);
        s.write_u32(base + (1 << 29), 7);
        assert!(s.resident_pages() <= 2);
    }
}

/// The radix table against a byte map: same bytes, same resident pages.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    const REGION_BYTES: u64 = 1 << (PAGE_SHIFT + TABLE_SHIFT);
    /// First address the directory does not cover.
    const BOUND: u64 = DIR_REGIONS * REGION_BYTES;

    #[derive(Debug, Clone)]
    enum Op {
        WriteElem(u64, u64, u64),
        ReadElem(u64, u64),
        WriteSlice(u64, Vec<u32>),
        ReadSlice(u64, usize),
        WriteRun(u64, u64, Vec<u64>),
        ReadRun(u64, u64, usize),
        Alloc(u64, u64),
        /// `release_to` a mark this far (in 1/2^16ths) from the null
        /// page's end to the break: any alignment, both ends included.
        Release(u64),
        /// `release_to(mark())`: releases no allocation, but whatever
        /// was written past the break.
        ReleaseToMark,
        Reset,
    }

    /// What the space must behave like: a byte map, the pages that took
    /// a non-zero byte since they were last reset or released, and the
    /// bump pointer.
    struct Oracle {
        bytes: BTreeMap<u64, u8>,
        resident: BTreeSet<u64>,
        brk: u64,
    }

    impl Oracle {
        fn write(&mut self, addr: u64, bytes: &[u8]) {
            for (a, &b) in (addr..).zip(bytes) {
                self.bytes.insert(a, b);
                if b != 0 {
                    self.resident.insert(a >> PAGE_SHIFT);
                }
            }
        }

        fn read(&self, addr: u64, n: usize) -> u64 {
            let mut le = [0u8; 8];
            for (a, b) in (addr..).zip(&mut le[..n]) {
                *b = self.bytes.get(&a).copied().unwrap_or(0);
            }
            u64::from_le_bytes(le)
        }
    }

    // A few pages at the bottom (where `alloc` hands out), both sides of
    // a page edge, a region edge and the directory bound, and the top of
    // the address space; every alignment, and narrow enough to revisit.
    // Every window leaves room above for a 32-word slice.
    fn addrs() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1_024,
            REGION_BYTES - 300..REGION_BYTES + 300,
            BOUND - 300..BOUND + 300,
            BOUND + 5 * REGION_BYTES - 20..BOUND + 5 * REGION_BYTES + 20,
            u64::MAX - 600..u64::MAX - 135,
        ]
    }

    // As `addrs`, with room above for a run of 80 eight-byte elements.
    fn run_addrs() -> impl Strategy<Value = u64> {
        prop_oneof![
            addrs().prop_map(|a| a.min(u64::MAX - 2_000)),
            u64::MAX - 2_000..u64::MAX - 700,
        ]
    }

    fn ops() -> impl Strategy<Value = Op> {
        let width = || prop::sample::select(vec![1u64, 4, 8]);
        // Up to 80 elements: a run of words crosses one page edge or two.
        // Zeros, and values whose low word alone is zero: what a 32-bit
        // store writes of them materialises nothing.
        let run = || {
            prop::collection::vec(
                prop_oneof![
                    Just(0u64),
                    any::<u64>(),
                    (1u64..1_000).prop_map(|high| high << 32)
                ],
                0..81,
            )
        };
        // Zero often enough to meet absent pages.
        let val = || prop_oneof![Just(0u64), any::<u64>(), 1u64..256];
        let words = || prop::collection::vec(prop_oneof![Just(0u32), any::<u32>()], 0..33);
        prop_oneof![
            // Twice: the shim's union has no weights.
            (addrs(), width(), val()).prop_map(|(a, w, v)| Op::WriteElem(a, w, v)),
            (addrs(), width(), val()).prop_map(|(a, w, v)| Op::WriteElem(a, w, v)),
            (addrs(), width()).prop_map(|(a, w)| Op::ReadElem(a, w)),
            (addrs(), words()).prop_map(|(a, d)| Op::WriteSlice(a, d)),
            // The aligned (page-wise) path, half of it all zeros.
            (addrs(), words(), any::<bool>()).prop_map(|(a, d, zero)| {
                Op::WriteSlice(a & !3, if zero { vec![0; d.len()] } else { d })
            }),
            (addrs(), 0usize..33).prop_map(|(a, n)| Op::ReadSlice(a, n)),
            (addrs(), 0usize..33).prop_map(|(a, n)| Op::ReadSlice(a & !3, n)),
            // Vector runs at any base and width, then the page-wise path
            // (aligned words), half of it storing zero words.
            (run_addrs(), width(), run()).prop_map(|(a, w, v)| Op::WriteRun(a, w, v)),
            (run_addrs(), run(), any::<bool>()).prop_map(|(a, v, zero)| {
                let v = if zero {
                    v.iter().map(|x| x << 32).collect()
                } else {
                    v
                };
                Op::WriteRun(a & !3, 4, v)
            }),
            (run_addrs(), width(), 0usize..81).prop_map(|(a, w, n)| Op::ReadRun(a, w, n)),
            (run_addrs(), 0usize..81).prop_map(|(a, n)| Op::ReadRun(a & !3, 4, n)),
            (0u64..700, prop::sample::select(vec![1u64, 4, 64, 256]))
                .prop_map(|(b, a)| Op::Alloc(b, a)),
            (0u64..=1 << 16).prop_map(Op::Release),
            Just(Op::ReleaseToMark),
            Just(Op::Reset),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn same_bytes_and_resident_pages_as_a_byte_map(
            ops in prop::collection::vec(ops(), 1..250),
        ) {
            let mut space = AddressSpace::new();
            let mut oracle = Oracle {
                bytes: BTreeMap::new(),
                resident: BTreeSet::new(),
                brk: PAGE_BYTES as u64,
            };
            // A last reset, so that every case ends on one.
            for op in ops.iter().chain([&Op::Reset]) {
                match op {
                    &Op::WriteElem(addr, width, val) => {
                        space.write_elem(addr, width, val);
                        oracle.write(addr, &val.to_le_bytes()[..width as usize]);
                    }
                    &Op::ReadElem(addr, width) => {
                        prop_assert_eq!(
                            space.read_elem(addr, width),
                            oracle.read(addr, width as usize),
                            "{} bytes at {:#x}", width, addr
                        );
                    }
                    Op::WriteSlice(base, data) => {
                        space.write_slice_u32(*base, data);
                        let bytes: Vec<u8> = data.iter().flat_map(|w| w.to_le_bytes()).collect();
                        oracle.write(*base, &bytes);
                    }
                    &Op::ReadSlice(base, len) => {
                        let expect: Vec<u32> = (0..len as u64)
                            .map(|i| oracle.read(base + 4 * i, 4) as u32)
                            .collect();
                        prop_assert_eq!(space.read_slice_u32(base, len), expect, "at {:#x}", base);
                    }
                    Op::WriteRun(base, width, vals) => {
                        space.write_run(*base, *width, vals);
                        for (addr, val) in (*base..).step_by(*width as usize).zip(vals) {
                            oracle.write(addr, &val.to_le_bytes()[..*width as usize]);
                        }
                    }
                    &Op::ReadRun(base, width, len) => {
                        let expect: Vec<u64> = (0..len as u64)
                            .map(|i| oracle.read(base + width * i, width as usize))
                            .collect();
                        // Over stale register contents, not zeros.
                        let mut got = vec![u64::MAX; len];
                        space.read_run(base, width, &mut got);
                        prop_assert_eq!(got, expect, "{} x {} at {:#x}", len, width, base);
                    }
                    &Op::Alloc(bytes, align) => {
                        let base = oracle.brk.next_multiple_of(align);
                        oracle.brk = base + bytes.max(1);
                        prop_assert_eq!(space.alloc(bytes, align), base);
                    }
                    Op::Release(_) | Op::ReleaseToMark => {
                        let mark = match op {
                            &Op::Release(part) => {
                                let floor = PAGE_BYTES as u64;
                                floor + (((oracle.brk - floor) as u128 * part as u128) >> 16) as u64
                            }
                            _ => space.mark(),
                        };
                        prop_assert_eq!(space.mark(), oracle.brk);
                        space.release_to(mark);
                        prop_assert_eq!(space.mark(), mark);
                        // Below the mark nothing moves (the reads of
                        // later ops check it); at and above, all of it
                        // reads zero, and only a page the mark cuts in
                        // two may stay resident.
                        let released = oracle.bytes.split_off(&mark);
                        oracle.resident.retain(|&page| page << PAGE_SHIFT < mark);
                        oracle.brk = mark;
                        for &addr in released.keys() {
                            prop_assert_eq!(space.read_u8(addr), 0, "{:#x} after release", addr);
                        }
                        // A zero there materialises nothing.
                        let before = space.resident_pages();
                        space.write_u32(mark.next_multiple_of(PAGE_BYTES as u64), 0);
                        prop_assert_eq!(space.resident_pages(), before);
                    }
                    Op::Reset => {
                        space.reset();
                        let written: Vec<u64> = oracle.bytes.keys().copied().collect();
                        oracle.bytes.clear();
                        oracle.resident.clear();
                        oracle.brk = PAGE_BYTES as u64;
                        prop_assert_eq!(space.resident_pages(), 0);
                        for addr in written {
                            prop_assert_eq!(space.read_u8(addr), 0, "{:#x} after reset", addr);
                        }
                    }
                }
                prop_assert_eq!(space.resident_pages(), oracle.resident.len(), "after {:?}", op);
            }
        }
    }

    /// One indexed 32-bit transfer: a base, and per element an offset,
    /// a mask bit and a value.
    #[derive(Debug, Clone)]
    enum Indexed {
        Gather(u64, Vec<u64>, Option<Vec<bool>>),
        Scatter(u64, Vec<u64>, Option<Vec<bool>>, Vec<u64>),
        ScatterAdd(u64, Vec<u64>, Option<Vec<bool>>, Vec<u64>),
    }

    fn indexed_ops() -> impl Strategy<Value = Indexed> {
        // Bases at every alignment near a page edge, the directory bound
        // and the top (where an element's bytes wrap to address 0).
        let base = || {
            prop_oneof![
                0u64..1_024,
                BOUND - 300..BOUND + 300,
                u64::MAX - 600..=u64::MAX,
            ]
        };
        // Few distinct cells, so indices repeat; any alignment, so words
        // straddle pages; and some far below the base, wrapping.
        let offsets = || {
            prop::collection::vec(
                prop_oneof![
                    (0u64..24).prop_map(|w| 4 * w),
                    0u64..600,
                    (1u64..700).prop_map(|below| below.wrapping_neg()),
                ],
                0..65,
            )
        };
        let mask = || prop::option::of(prop::collection::vec(any::<bool>(), 64..65));
        // Zeros, and values whose low word alone is zero.
        let vals = || {
            prop::collection::vec(
                prop_oneof![
                    Just(0u64),
                    any::<u64>(),
                    (1u64..1_000).prop_map(|high| high << 32)
                ],
                64..65,
            )
        };
        prop_oneof![
            (base(), offsets(), mask()).prop_map(|(b, o, m)| Indexed::Gather(b, o, m)),
            (base(), offsets(), mask(), vals())
                .prop_map(|(b, o, m, v)| Indexed::Scatter(b, o, m, v)),
            (base(), offsets(), mask(), vals())
                .prop_map(|(b, o, m, v)| Indexed::Scatter(b, o, m, v)),
            (base(), offsets(), mask(), vals())
                .prop_map(|(b, o, m, v)| Indexed::ScatterAdd(b, o, m, v)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// `gather_u32` / `scatter_u32` ≡ `read_elem` / `write_elem` per
        /// active element, in element order: the same register contents,
        /// bytes and resident pages.
        #[test]
        fn indexed_words_as_element_by_element(ops in prop::collection::vec(indexed_ops(), 1..40)) {
            let mut space = AddressSpace::new();
            let mut reference = AddressSpace::new();
            let mut touched = BTreeSet::new();
            let active = |mask: &Option<Vec<bool>>, i: usize| mask.as_ref().is_none_or(|m| m[i]);
            for op in &ops {
                match op {
                    Indexed::Gather(base, offsets, mask) => {
                        // Over stale register contents, which masked-off
                        // elements keep.
                        let mut got = vec![u64::MAX; offsets.len()];
                        space.gather_u32(*base, offsets, mask.as_deref(), &mut got);
                        let expect: Vec<u64> = offsets
                            .iter()
                            .enumerate()
                            .map(|(i, &o)| {
                                if active(mask, i) {
                                    reference.read_elem(base.wrapping_add(o), 4)
                                } else {
                                    u64::MAX
                                }
                            })
                            .collect();
                        prop_assert_eq!(got, expect, "{:?}", op);
                    }
                    Indexed::Scatter(base, offsets, mask, vals)
                    | Indexed::ScatterAdd(base, offsets, mask, vals) => {
                        let add = matches!(op, Indexed::ScatterAdd(..));
                        space.scatter_u32(*base, offsets, mask.as_deref(), |i, old| {
                            if add {
                                old.wrapping_add(vals[i] as u32)
                            } else {
                                vals[i] as u32
                            }
                        });
                        for (i, &o) in offsets.iter().enumerate() {
                            if active(mask, i) {
                                let addr = base.wrapping_add(o);
                                let old = if add { reference.read_elem(addr, 4) } else { 0 };
                                reference.write_elem(addr, 4, old.wrapping_add(vals[i]));
                                touched.extend((0..4).map(|b| addr.wrapping_add(b)));
                            }
                        }
                    }
                }
                prop_assert_eq!(space.resident_pages(), reference.resident_pages(), "after {:?}", op);
            }
            for &addr in &touched {
                prop_assert_eq!(space.read_u8(addr), reference.read_u8(addr), "{:#x}", addr);
            }
        }
    }
}
