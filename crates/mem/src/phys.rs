//! Flat physical memory.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A memory access failure, carrying the faulting address.
///
/// These are delivered by the kernel model as segmentation faults /
/// alignment traps, producing the paper's *Unexpected Termination* class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access falls outside physical memory.
    OutOfRange {
        /// Faulting byte address.
        addr: u32,
        /// Access size in bytes.
        len: u32,
    },
    /// The access is not naturally aligned for its size.
    Misaligned {
        /// Faulting byte address.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
    /// The current process lacks permission for this access.
    Protection {
        /// Faulting byte address.
        addr: u32,
        /// What was attempted.
        kind: crate::AccessKind,
    },
}

impl MemError {
    /// The faulting address.
    pub fn addr(&self) -> u32 {
        match *self {
            MemError::OutOfRange { addr, .. }
            | MemError::Misaligned { addr, .. }
            | MemError::Protection { addr, .. } => addr,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(
                    f,
                    "access of {len} bytes at {addr:#010x} outside physical memory"
                )
            }
            MemError::Misaligned { addr, align } => {
                write!(
                    f,
                    "misaligned access at {addr:#010x} (requires {align}-byte alignment)"
                )
            }
            MemError::Protection { addr, kind } => {
                write!(f, "{kind} permission violation at {addr:#010x}")
            }
        }
    }
}

impl Error for MemError {}

/// The flat, little-endian physical byte store.
///
/// All multi-byte accessors enforce natural alignment — a corrupted base
/// register that produces a misaligned address traps, exactly the
/// wrong-address-calculation channel the paper describes in §4.1.4.
#[derive(Debug, Clone)]
pub struct PhysMem {
    bytes: Vec<u8>,
    /// One bit per [`SNAP_PAGE`] page, set on every write since the
    /// last [`PhysMem::clear_dirty`] (or construction). Lets checkpoint
    /// capture copy, and reconvergence probes compare, only pages that
    /// could have changed instead of scanning all of physical memory.
    /// Every write to `bytes` must mark its pages here.
    dirty: PageSet,
}

impl PhysMem {
    /// Allocates `size` bytes of zeroed memory.
    pub fn new(size: u32) -> PhysMem {
        PhysMem {
            bytes: vec![0; size as usize],
            dirty: PageSet::for_mem(size),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, index: usize, len: usize) {
        let first = index / SNAP_PAGE;
        let last = (index + len.max(1) - 1) / SNAP_PAGE;
        for page in first..=last {
            self.dirty.insert(page);
        }
    }

    /// Physical memory size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    fn check(&self, addr: u32, len: u32, align: u32) -> Result<usize, MemError> {
        if !addr.is_multiple_of(align) {
            return Err(MemError::Misaligned { addr, align });
        }
        let end = u64::from(addr) + u64::from(len);
        if end > self.bytes.len() as u64 {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok(addr as usize)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if outside physical memory.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1, 1)?;
        Ok(self.bytes[i])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if outside physical memory.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1, 1)?;
        self.bytes[i] = value;
        self.mark_dirty(i, 1);
        Ok(())
    }

    /// Reads a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] or [`MemError::Misaligned`].
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4, 4)?;
        Ok(u32::from_le_bytes(
            self.bytes[i..i + 4].try_into().expect("checked length"),
        ))
    }

    /// Writes a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] or [`MemError::Misaligned`].
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        self.mark_dirty(i, 4);
        Ok(())
    }

    /// Reads a 64-bit little-endian word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] or [`MemError::Misaligned`].
    pub fn read_u64(&self, addr: u32) -> Result<u64, MemError> {
        let i = self.check(addr, 8, 8)?;
        Ok(u64::from_le_bytes(
            self.bytes[i..i + 8].try_into().expect("checked length"),
        ))
    }

    /// Writes a 64-bit little-endian word.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] or [`MemError::Misaligned`].
    pub fn write_u64(&mut self, addr: u32, value: u64) -> Result<(), MemError> {
        let i = self.check(addr, 8, 8)?;
        self.bytes[i..i + 8].copy_from_slice(&value.to_le_bytes());
        self.mark_dirty(i, 8);
        Ok(())
    }

    /// Copies a byte slice into memory (used by the loader; unaligned).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range does not fit.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, bytes.len() as u32, 1)?;
        self.bytes[i..i + bytes.len()].copy_from_slice(bytes);
        self.mark_dirty(i, bytes.len());
        Ok(())
    }

    /// Reads a byte range (used by output capture and memory hashing).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range does not fit.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        let i = self.check(addr, len, 1)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// Fills a byte range with zeros.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range does not fit.
    pub fn zero_range(&mut self, addr: u32, len: u32) -> Result<(), MemError> {
        let i = self.check(addr, len, 1)?;
        self.bytes[i..i + len as usize].fill(0);
        self.mark_dirty(i, len as usize);
        Ok(())
    }

    /// A 64-bit FNV-1a hash of a byte range, used for golden-run
    /// memory-state comparison.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range does not fit.
    pub fn hash_range(&self, addr: u32, len: u32) -> Result<u64, MemError> {
        let slice = self.read_bytes(addr, len)?;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in slice {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(hash)
    }

    /// Captures a sparse snapshot: only pages containing at least one
    /// nonzero byte are kept. Guest memory starts zeroed and most of
    /// the 64 MiB physical space is never written, so checkpoints stay
    /// small and restores cheap.
    ///
    /// This is [`PhysMem::snapshot_since`] over an empty base with every
    /// page dirty, so it scans all of memory; a checkpoint ladder pays
    /// that scan once, for its first rung.
    pub fn snapshot(&self) -> MemSnapshot {
        let empty = MemSnapshot {
            size: self.size(),
            pages: Vec::new(),
        };
        self.snapshot_since(&empty, &PageSet::full(self.size()))
    }

    /// Captures a snapshot incrementally from `base`, an earlier
    /// snapshot of this memory, and `dirty`, which must hold every page
    /// written since `base` was captured (the [`PhysMem::take_dirty`]
    /// taken at that instant). Dirty pages are copied afresh, or
    /// dropped when they became all-zero; every other page of `base` is
    /// shared by reference. Cost scales with the pages kept and the
    /// pages dirtied, not with memory size.
    ///
    /// # Panics
    ///
    /// Panics if `base` was captured from a memory of another size.
    pub fn snapshot_since(&self, base: &MemSnapshot, dirty: &PageSet) -> MemSnapshot {
        // Slice comparison against a zero page compiles to memcmp —
        // roughly an order of magnitude faster than a bytewise scan.
        const ZERO_PAGE: [u8; SNAP_PAGE] = [0; SNAP_PAGE];
        assert_eq!(base.size, self.size(), "base snapshot of another memory");
        let len = self.bytes.len();
        let mut dirty = dirty
            .pages()
            .map(|page| page * SNAP_PAGE)
            .take_while(|&start| start < len)
            .peekable();
        let mut kept = base.pages.iter().peekable();
        let mut pages = Vec::with_capacity(base.pages.len());
        // Merge the two ascending offset streams; a dirty page replaces
        // the base page at the same offset.
        loop {
            let next_kept = kept.peek().map(|(offset, _)| *offset as usize);
            match dirty.peek().copied() {
                Some(start) if next_kept.is_none_or(|k| start <= k) => {
                    dirty.next();
                    if next_kept == Some(start) {
                        kept.next();
                    }
                    let chunk = &self.bytes[start..(start + SNAP_PAGE).min(len)];
                    if chunk != &ZERO_PAGE[..chunk.len()] {
                        pages.push((start as u32, Arc::from(chunk)));
                    }
                }
                _ => match kept.next() {
                    Some((offset, page)) => pages.push((*offset, Arc::clone(page))),
                    None => break,
                },
            }
        }
        MemSnapshot {
            size: self.size(),
            pages,
        }
    }

    /// True when this memory is byte-identical to the image `snap`
    /// captured. Walks both page lists in lockstep: pages retained in
    /// the snapshot are compared directly, every other page must still
    /// be all-zero. Costs one pass over memory (memcmp throughput) —
    /// far cheaper than materialising a second snapshot to compare.
    pub fn matches_snapshot(&self, snap: &MemSnapshot) -> bool {
        const ZERO_PAGE: [u8; SNAP_PAGE] = [0; SNAP_PAGE];
        if self.size() != snap.size {
            return false;
        }
        let mut pages = snap.pages.iter().peekable();
        for (i, chunk) in self.bytes.chunks(SNAP_PAGE).enumerate() {
            let offset = (i * SNAP_PAGE) as u32;
            match pages.peek() {
                Some((page_off, page)) if *page_off == offset => {
                    if &page[..] != chunk {
                        return false;
                    }
                    pages.next();
                }
                _ => {
                    if chunk != &ZERO_PAGE[..chunk.len()] {
                        return false;
                    }
                }
            }
        }
        pages.next().is_none()
    }

    /// Bounded snapshot comparison: like [`PhysMem::matches_snapshot`],
    /// but only the pages listed in `touched` are compared. Sound when
    /// the caller can prove every page *not* in `touched` is unchanged
    /// on both sides since a common ancestor image — which is exactly
    /// what the dirty-page sets recorded by checkpoint capture provide.
    /// Cost scales with the number of touched pages, not memory size.
    pub fn matches_snapshot_within(&self, snap: &MemSnapshot, touched: &PageSet) -> bool {
        const ZERO_PAGE: [u8; SNAP_PAGE] = [0; SNAP_PAGE];
        if self.size() != snap.size {
            return false;
        }
        touched.pages().all(|page| {
            let start = page * SNAP_PAGE;
            if start >= self.bytes.len() {
                return true;
            }
            let end = (start + SNAP_PAGE).min(self.bytes.len());
            let chunk = &self.bytes[start..end];
            match snap.page_at((start) as u32) {
                Some(stored) => stored == chunk,
                None => chunk == &ZERO_PAGE[..chunk.len()],
            }
        })
    }

    /// Pages written since construction or the last
    /// [`PhysMem::clear_dirty`].
    pub fn dirty_pages(&self) -> &PageSet {
        &self.dirty
    }

    /// Resets dirty-page tracking (e.g. right after boot or at each
    /// checkpoint mark, so segments between checkpoints record exactly
    /// the pages that segment wrote).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Returns the dirty set and resets tracking in one step.
    pub fn take_dirty(&mut self) -> PageSet {
        let size = self.size();
        std::mem::replace(&mut self.dirty, PageSet::for_mem(size))
    }
}

/// A set of `SNAP_PAGE`-sized page indices, stored as a bitmap. Used
/// for dirty-page tracking and for bounding snapshot comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageSet {
    bits: Vec<u64>,
}

impl PageSet {
    /// An empty set sized for a memory of `mem_size` bytes.
    pub fn for_mem(mem_size: u32) -> PageSet {
        let pages = (mem_size as usize).div_ceil(SNAP_PAGE);
        PageSet {
            bits: vec![0; pages.div_ceil(64)],
        }
    }

    /// The set of every page of a memory of `mem_size` bytes.
    fn full(mem_size: u32) -> PageSet {
        let mut set = PageSet::for_mem(mem_size);
        for page in 0..(mem_size as usize).div_ceil(SNAP_PAGE) {
            set.insert(page);
        }
        set
    }

    /// Adds one page index.
    #[inline]
    pub fn insert(&mut self, page: usize) {
        if let Some(word) = self.bits.get_mut(page / 64) {
            *word |= 1 << (page % 64);
        }
    }

    /// True when `page` is in the set.
    pub fn contains(&self, page: usize) -> bool {
        self.bits
            .get(page / 64)
            .is_some_and(|w| w & (1 << (page % 64)) != 0)
    }

    /// Merges `other` into `self`.
    pub fn union_with(&mut self, other: &PageSet) {
        if self.bits.len() < other.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (dst, src) in self.bits.iter_mut().zip(&other.bits) {
            *dst |= src;
        }
    }

    /// Removes all pages.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no page is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Iterates the page indices in ascending order.
    pub fn pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(i, word)| {
            let mut w = *word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * 64 + bit)
            })
        })
    }
}

/// Page granularity of [`MemSnapshot`] (independent of the MMU's
/// [`crate::PAGE_SIZE`]; chosen for snapshot compactness).
const SNAP_PAGE: usize = 4096;

/// A sparse, immutable copy of a [`PhysMem`] at one instant: the memory
/// size plus every page that held a nonzero byte, in ascending offset
/// order. Rebuilding via [`MemSnapshot::restore`] yields a
/// byte-identical memory image.
///
/// Pages are immutable and reference-counted, so snapshots built by
/// [`PhysMem::snapshot_since`] share every page their base already
/// held unchanged, and cloning a snapshot copies no page bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSnapshot {
    size: u32,
    pages: Vec<(u32, Arc<[u8]>)>,
}

impl MemSnapshot {
    /// Size of the captured physical memory in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of nonzero pages retained.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Reconstructs the full physical memory image. Dirty-page tracking
    /// starts empty: "dirty" on a restored memory means "written since
    /// this snapshot's capture point".
    pub fn restore(&self) -> PhysMem {
        let mut bytes = vec![0u8; self.size as usize];
        for (offset, page) in &self.pages {
            let start = *offset as usize;
            bytes[start..start + page.len()].copy_from_slice(page);
        }
        PhysMem {
            bytes,
            dirty: PageSet::for_mem(self.size),
        }
    }

    /// The retained page starting at byte `offset`, if that page held
    /// any nonzero byte at capture time.
    pub fn page_at(&self, offset: u32) -> Option<&[u8]> {
        let i = self
            .pages
            .binary_search_by_key(&offset, |(off, _)| *off)
            .ok()?;
        Some(&self.pages[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = PhysMem::new(4096);
        m.write_u8(3, 0xab).unwrap();
        m.write_u32(8, 0x1234_5678).unwrap();
        m.write_u64(16, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u8(3).unwrap(), 0xab);
        assert_eq!(m.read_u32(8).unwrap(), 0x1234_5678);
        assert_eq!(m.read_u64(16).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(64);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0x04);
        assert_eq!(m.read_u8(3).unwrap(), 0x01);
    }

    #[test]
    fn misalignment_traps() {
        let mut m = PhysMem::new(64);
        assert!(matches!(
            m.read_u32(2),
            Err(MemError::Misaligned { addr: 2, align: 4 })
        ));
        assert!(matches!(
            m.write_u64(4, 0),
            Err(MemError::Misaligned { addr: 4, align: 8 })
        ));
    }

    #[test]
    fn out_of_range_traps() {
        let mut m = PhysMem::new(64);
        assert!(m.read_u8(64).is_err());
        assert!(m.read_u32(64).is_err());
        assert!(m.write_u32(60, 0).is_ok());
        assert!(m.write_u64(60, 0).is_err());
        // Address near u32::MAX must not overflow the bounds check.
        assert!(m.read_u32(u32::MAX - 3).is_err());
    }

    #[test]
    fn hash_detects_single_bit_change() {
        let mut m = PhysMem::new(1024);
        m.write_bytes(0, &[7u8; 1024]).unwrap();
        let h1 = m.hash_range(0, 1024).unwrap();
        m.write_u8(513, 7 ^ 0x10).unwrap();
        let h2 = m.hash_range(0, 1024).unwrap();
        assert_ne!(h1, h2);
    }

    #[test]
    fn snapshot_roundtrip_is_identical() {
        let mut m = PhysMem::new(64 * 1024);
        m.write_bytes(4096, &[0xaa; 100]).unwrap();
        m.write_u8(0, 1).unwrap();
        m.write_u8(64 * 1024 - 1, 0x55).unwrap();
        let snap = m.snapshot();
        // Only the three touched pages are retained.
        assert_eq!(snap.page_count(), 3);
        let back = snap.restore();
        assert_eq!(back.size(), m.size());
        assert_eq!(
            back.hash_range(0, 64 * 1024).unwrap(),
            m.hash_range(0, 64 * 1024).unwrap()
        );
        assert_eq!(
            back.read_bytes(0, 64 * 1024).unwrap(),
            m.read_bytes(0, 64 * 1024).unwrap()
        );
    }

    #[test]
    fn incremental_snapshot_shares_clean_pages() {
        let mut m = PhysMem::new(64 * 1024);
        m.write_u8(0, 1).unwrap();
        m.write_u8(4096, 2).unwrap();
        m.write_u8(2 * 4096, 3).unwrap();
        let base = m.snapshot();
        m.clear_dirty();
        m.write_u8(4096, 0).unwrap(); // page 1 becomes all-zero
        m.write_u8(2 * 4096, 4).unwrap(); // page 2 changes
        m.write_u8(5 * 4096, 5).unwrap(); // page 5 appears
        let dirty = m.take_dirty();
        let next = m.snapshot_since(&base, &dirty);
        assert_eq!(next, m.snapshot());
        let offsets: Vec<u32> = next.pages.iter().map(|(off, _)| *off).collect();
        assert_eq!(offsets, [0, 2 * 4096, 5 * 4096]);
        // The untouched page is shared, not copied.
        assert!(Arc::ptr_eq(&base.pages[0].1, &next.pages[0].1));
        assert!(!Arc::ptr_eq(&base.pages[2].1, &next.pages[1].1));
    }

    #[test]
    fn dirty_tracking_records_written_pages() {
        let mut m = PhysMem::new(64 * 1024);
        assert!(m.dirty_pages().is_empty());
        m.write_u8(0, 1).unwrap();
        m.write_u32(2 * 4096, 7).unwrap();
        // A span crossing a page boundary marks both pages.
        m.write_bytes(4 * 4096 - 2, &[1, 2, 3, 4]).unwrap();
        let pages: Vec<usize> = m.dirty_pages().pages().collect();
        assert_eq!(pages, [0, 2, 3, 4]);
        assert_eq!(m.take_dirty().len(), 4);
        assert!(m.dirty_pages().is_empty());
        // A restored memory starts clean too.
        assert!(m.snapshot().restore().dirty_pages().is_empty());
    }

    #[test]
    fn bounded_snapshot_compare_only_sees_listed_pages() {
        let mut m = PhysMem::new(64 * 1024);
        m.write_u32(4096, 0xdead_beef).unwrap();
        let snap = m.snapshot();
        assert!(m.matches_snapshot(&snap));
        assert!(m.matches_snapshot_within(&snap, m.dirty_pages()));

        // Diverge inside a tracked page: both compares notice.
        m.write_u32(4096, 0).unwrap();
        assert!(!m.matches_snapshot(&snap));
        assert!(!m.matches_snapshot_within(&snap, m.dirty_pages()));

        // Diverge outside the bounded set: only the full compare
        // notices — which is exactly the contract (callers must pass
        // every page that could have changed on either side).
        m.write_u32(4096, 0xdead_beef).unwrap();
        m.write_u8(8 * 4096, 9).unwrap();
        let mut only_page_one = PageSet::for_mem(m.size());
        only_page_one.insert(1);
        assert!(!m.matches_snapshot(&snap));
        assert!(m.matches_snapshot_within(&snap, &only_page_one));
        assert!(!m.matches_snapshot_within(&snap, m.dirty_pages()));
    }

    #[test]
    fn page_set_union_and_iteration() {
        let mut a = PageSet::for_mem(1 << 20);
        let mut b = PageSet::for_mem(1 << 20);
        a.insert(1);
        b.insert(200);
        b.insert(1);
        a.union_with(&b);
        assert_eq!(a.pages().collect::<Vec<_>>(), [1, 200]);
        assert_eq!(a.len(), 2);
        assert!(a.contains(200));
        assert!(!a.contains(2));
    }

    #[test]
    fn snapshot_of_partial_tail_page() {
        // Size not a multiple of the snapshot page.
        let mut m = PhysMem::new(4096 + 100);
        m.write_u8(4096 + 99, 7).unwrap();
        let back = m.snapshot().restore();
        assert_eq!(back.size(), 4096 + 100);
        assert_eq!(back.read_u8(4096 + 99).unwrap(), 7);
    }

    #[test]
    fn zero_range_clears() {
        let mut m = PhysMem::new(64);
        m.write_bytes(0, &[0xff; 64]).unwrap();
        m.zero_range(8, 16).unwrap();
        assert_eq!(m.read_u8(7).unwrap(), 0xff);
        assert_eq!(m.read_u8(8).unwrap(), 0);
        assert_eq!(m.read_u8(23).unwrap(), 0);
        assert_eq!(m.read_u8(24).unwrap(), 0xff);
    }
}
