//! The simulated flat address space.
//!
//! Algorithms running on the [`crate::machine::Machine`] address memory by
//! simulated byte address, exactly as the paper's kernels address their
//! column arrays and bookkeeping tables. Storage is paged and allocated on
//! demand, so multi-gigabyte layouts (e.g. polytable's MVL-replicated tables
//! at high cardinality) only consume host memory for pages actually touched.

use std::collections::HashMap;

// 256-byte pages: fine-grained enough that sparse gather/scatter traffic
// into gigabyte-scale replicated tables stays cheap on the host.
const PAGE_SHIFT: u32 = 8;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Sparse, zero-initialised byte-addressable memory with a bump allocator.
#[derive(Debug, Default)]
pub struct AddressSpace {
    pages: HashMap<u64, Box<[u8; PAGE_BYTES]>>,
    /// Next free address for [`AddressSpace::alloc`].
    brk: u64,
}

/// Element reads that remember the last page they looked up. The
/// elements of a vector load mostly share pages (64 consecutive words
/// lie on two), so the page map is consulted once per page instead of
/// once per element.
pub(crate) struct PageReader<'a> {
    space: &'a AddressSpace,
    /// Number and contents of the remembered page; no address maps to
    /// page `u64::MAX`.
    page_no: u64,
    page: Option<&'a [u8; PAGE_BYTES]>,
}

impl PageReader<'_> {
    /// [`AddressSpace::read_elem`], through the remembered page.
    pub(crate) fn read_elem(&mut self, addr: u64, width: u64) -> u64 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        let bytes = width as usize;
        if !matches!(width, 1 | 4 | 8) || off + bytes > PAGE_BYTES {
            // Straddles two pages (or is a width to refuse).
            return self.space.read_elem(addr, width);
        }
        let page_no = addr >> PAGE_SHIFT;
        if page_no != self.page_no {
            self.page_no = page_no;
            self.page = self.space.pages.get(&page_no).map(|p| &**p);
        }
        let Some(page) = self.page else { return 0 };
        let mut le = [0u8; 8];
        le[..bytes].copy_from_slice(&page[off..off + bytes]);
        u64::from_le_bytes(le)
    }
}

/// Element writes that hold on to the last page they touched, the write
/// side of [`PageReader`]. The held page is out of the map while it is
/// held and goes back when the writer moves on or is dropped.
pub(crate) struct PageWriter<'a> {
    space: &'a mut AddressSpace,
    /// Number of the held page; no address maps to page `u64::MAX`.
    page_no: u64,
    /// The held page, or `None` while it has not been materialised.
    page: Option<Box<[u8; PAGE_BYTES]>>,
}

impl PageWriter<'_> {
    /// [`AddressSpace::write_elem`], through the held page.
    pub(crate) fn write_elem(&mut self, addr: u64, width: u64, val: u64) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        let bytes = width as usize;
        if !matches!(width, 1 | 4 | 8) || off + bytes > PAGE_BYTES {
            // Straddles two pages (or is a width to refuse): through the
            // map, so the held page goes back first.
            self.release();
            return self.space.write_elem(addr, width, val);
        }
        let page_no = addr >> PAGE_SHIFT;
        if page_no != self.page_no {
            self.release();
            self.page_no = page_no;
            self.page = self.space.pages.remove(&page_no);
        }
        let le = val.to_le_bytes();
        // As in `write_u8`: zero to a page never materialised is a no-op.
        if self.page.is_none() && le[..bytes].iter().all(|&b| b == 0) {
            return;
        }
        let page = self.page.get_or_insert_with(|| Box::new([0; PAGE_BYTES]));
        page[off..off + bytes].copy_from_slice(&le[..bytes]);
    }

    fn release(&mut self) {
        if let Some(page) = self.page.take() {
            self.space.pages.insert(self.page_no, page);
        }
        self.page_no = u64::MAX;
    }
}

impl Drop for PageWriter<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

impl AddressSpace {
    /// A writer for a run of element writes (see [`PageWriter`]).
    pub(crate) fn page_writer(&mut self) -> PageWriter<'_> {
        PageWriter {
            space: self,
            page_no: u64::MAX,
            page: None,
        }
    }

    /// A reader for a run of element reads (see [`PageReader`]).
    pub(crate) fn page_reader(&self) -> PageReader<'_> {
        PageReader {
            space: self,
            page_no: u64::MAX,
            page: None,
        }
    }

    /// An empty space; allocations start above the null page.
    pub fn new() -> Self {
        Self {
            pages: HashMap::new(),
            brk: PAGE_BYTES as u64,
        }
    }

    /// Reserves `bytes` of fresh zeroed memory aligned to `align` (which
    /// must be a power of two). Returns the base address.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        self.brk = base + bytes.max(1);
        base
    }

    /// Releases every allocation and drops the materialised pages,
    /// returning the space to its freshly-constructed state. Long-lived
    /// owners (e.g. a query session reusing one machine) call this
    /// between units of work so host memory stays bounded.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.brk = PAGE_BYTES as u64;
    }

    /// Number of host pages materialised (test/diagnostic hook).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.pages
            .get(&(addr >> PAGE_SHIFT))
            .map_or(0, |p| p[(addr as usize) & (PAGE_BYTES - 1)])
    }

    /// Writes one byte.
    ///
    /// Writing zero to a page that was never materialised is a no-op:
    /// absent pages already read as zero. This keeps table-clearing phases
    /// (e.g. polytable zeroing gigabytes of replicated cells) from
    /// consuming host memory — the *timing* of those stores is charged by
    /// the hierarchy model regardless.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        if val == 0 && !self.pages.contains_key(&(addr >> PAGE_SHIFT)) {
            return;
        }
        self.page_mut(addr)[(addr as usize) & (PAGE_BYTES - 1)] = val;
    }

    /// Reads a little-endian `u32` (may straddle pages).
    pub fn read_u32(&self, addr: u64) -> u32 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 4 <= PAGE_BYTES {
            // Fast path: one page lookup.
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes")),
                None => 0,
            }
        } else {
            let mut b = [0u8; 4];
            for (i, x) in b.iter_mut().enumerate() {
                *x = self.read_u8(addr + i as u64);
            }
            u32::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 4 <= PAGE_BYTES {
            if val == 0 && !self.pages.contains_key(&(addr >> PAGE_SHIFT)) {
                return; // zero to an unmaterialised page: no-op
            }
            let p = self.page_mut(addr);
            p[off..off + 4].copy_from_slice(&val.to_le_bytes());
        } else {
            for (i, b) in val.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr + i as u64, b);
            }
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 8 <= PAGE_BYTES {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            for (i, x) in b.iter_mut().enumerate() {
                *x = self.read_u8(addr + i as u64);
            }
            u64::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 8 <= PAGE_BYTES {
            if val == 0 && !self.pages.contains_key(&(addr >> PAGE_SHIFT)) {
                return;
            }
            let p = self.page_mut(addr);
            p[off..off + 8].copy_from_slice(&val.to_le_bytes());
        } else {
            for (i, b) in val.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr + i as u64, b);
            }
        }
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

    /// Host-side bulk upload of a `u32` slice (dataset staging; untimed).
    pub fn write_slice_u32(&mut self, base: u64, data: &[u32]) {
        for (i, &v) in data.iter().enumerate() {
            self.write_u32(base + 4 * i as u64, v);
        }
    }

    /// Host-side bulk download of `len` `u32`s (result checking; untimed).
    pub fn read_slice_u32(&self, base: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| self.read_u32(base + 4 * i as u64))
            .collect()
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
    fn page_reader_reads_what_read_elem_reads() {
        let mut s = AddressSpace::new();
        // Three materialised pages with a hole after them.
        for i in 0..3 * PAGE_BYTES as u64 {
            s.write_u8(0x1000 + i, (i * 7 + 1) as u8);
        }
        let mut reader = s.page_reader();
        // Every alignment, across page edges, into the hole and back.
        for width in [1u64, 4, 8] {
            for addr in (0x1000 - 16..0x1000 + 3 * PAGE_BYTES as u64 + 16).chain([0x1004, 0x9000]) {
                assert_eq!(
                    reader.read_elem(addr, width),
                    s.read_elem(addr, width),
                    "{width} bytes at {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn page_writer_leaves_what_write_elem_leaves() {
        // The same writes — every width and alignment, across page edges,
        // zeros onto absent and present pages, revisits — through the
        // writer and through `write_elem`: same bytes, same resident set.
        let (mut direct, mut held) = (AddressSpace::new(), AddressSpace::new());
        let mut writes = Vec::new();
        for (i, addr) in (0x1000 - 9..0x1000 + 2 * PAGE_BYTES as u64 + 9)
            .chain([0x5000, 0x1010, 0x5004, 0x9000])
            .enumerate()
        {
            let width = [1u64, 4, 8][i % 3];
            let val = if i % 5 == 0 {
                0
            } else {
                0x0102_0304_0506_0708u64.wrapping_mul(i as u64)
            };
            writes.push((addr * [1, 3][i % 2], width, val));
        }
        let mut writer = held.page_writer();
        for &(addr, width, val) in &writes {
            direct.write_elem(addr, width, val);
            writer.write_elem(addr, width, val);
        }
        drop(writer);
        assert_eq!(held.resident_pages(), direct.resident_pages());
        for &(addr, _, _) in &writes {
            assert_eq!(held.read_u64(addr), direct.read_u64(addr), "at {addr:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported element width")]
    fn page_reader_refuses_the_widths_read_elem_refuses() {
        AddressSpace::new().page_reader().read_elem(0, 2);
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
