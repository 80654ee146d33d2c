//! Simulated process memory with a copy-on-write payload path.
//!
//! Every simulated process owns a [`GuestMem`] arena. Message payloads are
//! real bytes carried end-to-end through the NIC pipeline, so tests can
//! assert data integrity across segmentation, DMA, and reassembly — the
//! same guarantee a real RDMA stack must provide.
//!
//! ## Zero-copy design
//!
//! The arena is a sequence of per-allocation *chunks*, each backed by a
//! reference-counted buffer. [`GuestMem::read`] returns a [`PayloadSeg`] —
//! an offset+length view over the chunk's current backing — in O(1),
//! without copying the bytes. The snapshot is stable: a later write to the
//! same range clones the chunk first (copy-on-write) whenever any segment
//! still references it, so a reader always sees the bytes exactly as they
//! were at read time, which is what the old copying `read` guaranteed.
//!
//! On the receive side, [`GuestMem::install`] lands an inbound fragment by
//! *reference*: the segment (still backed by the sender's chunk) is
//! recorded as a patch over the destination chunk instead of being copied
//! into it. Patches are merged into the backing buffer lazily — when the
//! range is next read or written through the plain byte APIs, or when the
//! patch list grows past a small bound. Steady-state RX traffic that lands
//! fragments at the same offsets over and over (every RPC reuses its
//! receive buffer) therefore never copies payload bytes at all: each
//! install just replaces the previous patch for that range.
//!
//! ## Demand-zero chunks and the unit of copy-on-write
//!
//! A chunk records its length and fill byte and creates its backing buffer
//! only on the first byte-level access: a read not served by a patch, a
//! write, a fill, or a patch merge. Allocating and installing cost no
//! payload-sized memory, so a large pool of receive buffers that only ever
//! sees by-reference installs never materializes at all.
//!
//! The chunk is also the unit of copy-on-write: one write into a chunk
//! that a live segment still references clones the *whole* chunk. A pool
//! of independently reused buffers (NIC rings, eager slots, skbs) must
//! therefore be one chunk per buffer — allocate it with
//! [`GuestMem::alloc_pool`], which keeps the buffers address-contiguous so
//! one region (and one MR) still spans the pool. [`GuestMem::stats`]
//! counts the copies, so a pool allocated as one chunk shows up as
//! `cow_bytes` far above the payload it carries.
//!
//! None of this is visible in virtual time — reads and writes are
//! instantaneous model operations either way — so simulation results are
//! bit-identical to the copying implementation; only wall-clock time and
//! allocator traffic change.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use bytes::Bytes;

/// Errors raised by guest-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address range exceeds the allocated arena.
    OutOfBounds {
        /// Faulting virtual address.
        addr: u64,
        /// Length of the attempted access.
        len: usize,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(
                    f,
                    "guest memory access out of bounds: addr={addr:#x} len={len}"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Base virtual address of the first allocation; nonzero so that address 0
/// is never valid (catching "forgot to set the address" bugs).
pub const GUEST_BASE: u64 = 0x1_0000;

/// Patch-list length at which a chunk merges its patches back into the
/// backing buffer. Small enough that patch lookups stay cheap, large
/// enough that a windowed RPC workload (whose fragments keep landing at
/// the same offsets and so *replace* patches instead of appending) never
/// triggers a merge at all.
const MAX_PATCHES: usize = 32;

/// A contiguous, immutable view of payload bytes: an offset+length window
/// over a reference-counted buffer.
///
/// This is what [`GuestMem::read`] returns and what NIC fragments carry
/// through WQE → packet → frame → RX completion. Cloning and sub-slicing
/// are O(1) (a reference-count bump); the bytes themselves are shared with
/// the arena chunk they were read from and are guaranteed stable — the
/// arena copies on write while any segment is alive.
///
/// # Examples
///
/// ```
/// use cord_hw::GuestMem;
///
/// let mem = GuestMem::new();
/// let region = mem.alloc_from(b"zero copy payload");
/// let seg = mem.read(region.addr, region.len).unwrap();
/// assert_eq!(&seg[..], b"zero copy payload");
///
/// // Snapshots are stable across later writes (copy-on-write):
/// mem.write(region.addr, b"ZERO").unwrap();
/// assert_eq!(&seg[..5], b"zero ");
/// assert_eq!(&mem.read(region.addr, 4).unwrap()[..], b"ZERO");
/// ```
#[derive(Clone)]
pub struct PayloadSeg {
    data: Rc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl PayloadSeg {
    /// A segment viewing `data[start..start + len]`.
    pub(crate) fn new(data: Rc<Vec<u8>>, start: usize, len: usize) -> PayloadSeg {
        debug_assert!(start + len <= data.len());
        PayloadSeg { data, start, len }
    }

    /// A segment owning a fresh copy of `src`.
    pub fn copy_from_slice(src: &[u8]) -> PayloadSeg {
        PayloadSeg::new(Rc::new(src.to_vec()), 0, src.len())
    }

    /// Number of payload bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zero-copy sub-view of `self[offset..offset + len]`.
    pub fn slice(&self, offset: usize, len: usize) -> PayloadSeg {
        assert!(offset + len <= self.len, "segment slice out of bounds");
        PayloadSeg::new(Rc::clone(&self.data), self.start + offset, len)
    }

    /// Copy the viewed bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// Zero-copy conversion into the workspace's [`Bytes`] type (shares
    /// the same backing buffer).
    pub fn to_bytes(&self) -> Bytes {
        Bytes::from_shared(Rc::clone(&self.data), self.start, self.start + self.len)
    }
}

impl Deref for PayloadSeg {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for PayloadSeg {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for PayloadSeg {
    fn eq(&self, other: &PayloadSeg) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PayloadSeg {}

impl PartialEq<[u8]> for PayloadSeg {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for PayloadSeg {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for PayloadSeg {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for PayloadSeg {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl From<Vec<u8>> for PayloadSeg {
    fn from(v: Vec<u8>) -> PayloadSeg {
        let len = v.len();
        PayloadSeg::new(Rc::new(v), 0, len)
    }
}

impl fmt::Debug for PayloadSeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PayloadSeg(b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\")")
    }
}

/// How a patch's range must relate to a queried range (see
/// [`Chunk::unshadowed_patch`]).
#[derive(Clone, Copy)]
enum PatchRel {
    /// Ranges identical (required for in-place replacement).
    Exact,
    /// Patch fully covers the queried range (sufficient for reads).
    Covering,
}

/// One inbound segment recorded over a chunk without copying.
struct Patch {
    /// Offset within the chunk.
    offset: usize,
    seg: PayloadSeg,
}

/// Copy counters of one [`GuestMem`] arena, read through
/// [`GuestMem::stats`].
///
/// They count host-side work only; nothing in the model reads them, so
/// reading them cannot change a simulated result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Copy-on-write clones: writes into a chunk a live segment still
    /// referenced.
    pub cow_clones: u64,
    /// Bytes copied by those clones (whole chunks).
    pub cow_bytes: u64,
    /// Reads spanning chunks, served by a gather copy.
    pub gather_copies: u64,
    /// Merges of installed patches back into a chunk's backing buffer.
    pub patch_merges: u64,
    /// Backing bytes created on a chunk's first byte-level access.
    pub materialized_bytes: u64,
}

impl std::ops::Add for MemStats {
    type Output = MemStats;

    fn add(self, o: MemStats) -> MemStats {
        MemStats {
            cow_clones: self.cow_clones + o.cow_clones,
            cow_bytes: self.cow_bytes + o.cow_bytes,
            gather_copies: self.gather_copies + o.gather_copies,
            patch_merges: self.patch_merges + o.patch_merges,
            materialized_bytes: self.materialized_bytes + o.materialized_bytes,
        }
    }
}

impl std::iter::Sum for MemStats {
    fn sum<I: Iterator<Item = MemStats>>(iter: I) -> MemStats {
        iter.fold(MemStats::default(), |a, b| a + b)
    }
}

/// One allocation's backing storage.
struct Chunk {
    /// First virtual address covered by this chunk.
    base: u64,
    /// Length in bytes.
    len: usize,
    /// Byte every untouched position reads as.
    fill: u8,
    /// Shared backing buffer, created on the first byte-level access
    /// (demand-zero); `Rc::strong_count > 1` means live read snapshots
    /// exist and a write must copy first.
    data: Option<Rc<Vec<u8>>>,
    /// Reference-installed writes not yet merged into `data`, in
    /// application order (later patches shadow earlier ones).
    patches: Vec<Patch>,
}

impl Chunk {
    fn end(&self) -> u64 {
        self.base + self.len as u64
    }

    /// The backing buffer, materialized from the fill byte on first use.
    fn backing(&mut self, stats: &mut MemStats) -> &mut Rc<Vec<u8>> {
        let (len, fill) = (self.len, self.fill);
        self.data.get_or_insert_with(|| {
            stats.materialized_bytes += len as u64;
            Rc::new(vec![fill; len])
        })
    }

    /// Mutable access to the backing buffer, cloning it first if any
    /// outstanding [`PayloadSeg`] still references it (copy-on-write).
    fn data_mut(&mut self, stats: &mut MemStats) -> &mut Vec<u8> {
        let data = self.backing(stats);
        if Rc::strong_count(data) > 1 {
            stats.cow_clones += 1;
            stats.cow_bytes += data.len() as u64;
            *data = Rc::new(data.as_ref().clone());
        }
        Rc::get_mut(data).expect("uniquely owned after COW")
    }

    /// Merge all pending patches into the backing buffer.
    fn merge_patches(&mut self, stats: &mut MemStats) {
        if self.patches.is_empty() {
            return;
        }
        stats.patch_merges += 1;
        let patches = std::mem::take(&mut self.patches);
        let buf = self.data_mut(stats);
        for p in patches {
            buf[p.offset..p.offset + p.seg.len()].copy_from_slice(&p.seg);
        }
    }

    /// Merge pending patches if any overlaps `[start, end)` (chunk-relative),
    /// so the backing buffer holds the current bytes of that range.
    fn settle(&mut self, start: usize, end: usize, stats: &mut MemStats) {
        let overlaps = self
            .patches
            .iter()
            .any(|p| p.offset < end && p.offset + p.seg.len() > start);
        if overlaps {
            self.merge_patches(stats);
        }
    }

    /// Index of the most recent patch whose range relates to `[start,
    /// start + len)` as `rel` demands (exactly equal for in-place
    /// replacement, covering for by-reference reads) and that no *later*
    /// patch overlaps — the one position where the patch can be used
    /// without consulting the rest of the shadow order.
    fn unshadowed_patch(&self, start: usize, len: usize, rel: PatchRel) -> Option<usize> {
        let end = start + len;
        let k = self.patches.iter().rposition(|p| match rel {
            PatchRel::Exact => p.offset == start && p.seg.len() == len,
            PatchRel::Covering => p.offset <= start && p.offset + p.seg.len() >= end,
        })?;
        let shadowed = self.patches[k + 1..]
            .iter()
            .any(|p| p.offset < end && p.offset + p.seg.len() > start);
        (!shadowed).then_some(k)
    }

    /// Record `seg` at `offset` by reference. The fast path replaces an
    /// existing unshadowed patch for the identical range (the windowed-RPC
    /// case where every message reuses its landing offsets), so
    /// steady-state RX installs never copy and never grow the list.
    fn install(&mut self, offset: usize, seg: PayloadSeg, stats: &mut MemStats) {
        if let Some(k) = self.unshadowed_patch(offset, seg.len(), PatchRel::Exact) {
            self.patches[k].seg = seg;
            return;
        }
        self.patches.push(Patch { offset, seg });
        if self.patches.len() >= MAX_PATCHES {
            self.merge_patches(stats);
        }
    }
}

struct Inner {
    /// Chunks in ascending-address order; addresses are dense, so chunk
    /// lookup is a binary search.
    chunks: Vec<Chunk>,
    next: u64,
    stats: MemStats,
}

impl Inner {
    /// Index of the chunk containing `addr`, if any.
    fn chunk_idx(&self, addr: u64) -> Option<usize> {
        let i = self
            .chunks
            .partition_point(|c| c.end() <= addr)
            .min(self.chunks.len().saturating_sub(1));
        let c = self.chunks.get(i)?;
        (c.base <= addr && addr < c.end()).then_some(i)
    }

    /// Bounds check: the arena is contiguous from [`GUEST_BASE`] to the
    /// allocation frontier, exactly as in the flat-buffer implementation.
    fn check(&self, addr: u64, len: usize) -> Result<(), MemError> {
        let err = MemError::OutOfBounds { addr, len };
        if addr < GUEST_BASE || addr as u128 + len as u128 > self.next as u128 {
            return Err(err);
        }
        Ok(())
    }

    /// Append a chunk at the allocation frontier; returns its address.
    fn push_chunk(&mut self, len: usize, fill: u8, data: Option<Rc<Vec<u8>>>) -> u64 {
        let base = self.next;
        self.next += len as u64;
        self.chunks.push(Chunk {
            base,
            len,
            fill,
            data,
            patches: Vec::new(),
        });
        base
    }
}

/// A process's memory arena. Clones share the arena.
///
/// # Examples
///
/// ```
/// use cord_hw::GuestMem;
///
/// let mem = GuestMem::new();
/// let region = mem.alloc(64, 0xAA);
/// mem.write(region.addr, &[1, 2, 3]).unwrap();
/// let seg = mem.read(region.addr, 4).unwrap();
/// assert_eq!(&seg[..], &[1, 2, 3, 0xAA]);
/// ```
#[derive(Clone)]
pub struct GuestMem {
    inner: Rc<RefCell<Inner>>,
}

/// A contiguous allocation inside a [`GuestMem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRegion {
    /// First virtual address of the region.
    pub addr: u64,
    /// Region length in bytes.
    pub len: usize,
}

impl MemRegion {
    /// A sub-region `[offset, offset + len)` of this region.
    ///
    /// Panics if the sub-range does not fit.
    pub fn slice(&self, offset: usize, len: usize) -> MemRegion {
        assert!(offset + len <= self.len, "sub-region out of range");
        MemRegion {
            addr: self.addr + offset as u64,
            len,
        }
    }

    /// One past the last address of the region.
    pub fn end(&self) -> u64 {
        self.addr + self.len as u64
    }
}

impl Default for GuestMem {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestMem {
    /// An empty arena.
    pub fn new() -> Self {
        GuestMem {
            inner: Rc::new(RefCell::new(Inner {
                chunks: Vec::new(),
                next: GUEST_BASE,
                stats: MemStats::default(),
            })),
        }
    }

    /// Allocate `len` bytes initialized to `fill` (demand-zero: no backing
    /// memory until first touched).
    pub fn alloc(&self, len: usize, fill: u8) -> MemRegion {
        let addr = self.inner.borrow_mut().push_chunk(len, fill, None);
        MemRegion { addr, len }
    }

    /// Allocate `count` buffers of `len` bytes each, one chunk per buffer,
    /// back to back; returns the region spanning all of them.
    ///
    /// Use this for any pool whose buffers are reused independently: a
    /// write then copies at most the one buffer a live segment pins, not
    /// the whole pool. Buffer `i` is `region.slice(i * len, len)`.
    pub fn alloc_pool(&self, count: usize, len: usize, fill: u8) -> MemRegion {
        let mut inner = self.inner.borrow_mut();
        let addr = inner.next;
        for _ in 0..count {
            inner.push_chunk(len, fill, None);
        }
        MemRegion {
            addr,
            len: count * len,
        }
    }

    /// Allocate and initialize from a slice.
    pub fn alloc_from(&self, data: &[u8]) -> MemRegion {
        let backing = Rc::new(data.to_vec());
        let addr = self
            .inner
            .borrow_mut()
            .push_chunk(data.len(), 0, Some(backing));
        MemRegion {
            addr,
            len: data.len(),
        }
    }

    /// Read `len` bytes at `addr` as a zero-copy [`PayloadSeg`] snapshot.
    ///
    /// O(1) when the range lies within one allocation (the NIC data path
    /// always does): the segment shares the chunk's backing buffer, and
    /// later writes copy-on-write so the snapshot stays stable. Ranges
    /// spanning allocations fall back to a gather copy.
    pub fn read(&self, addr: u64, len: usize) -> Result<PayloadSeg, MemError> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        inner.check(addr, len)?;
        if len == 0 {
            return Ok(PayloadSeg::new(Rc::new(Vec::new()), 0, 0));
        }
        let Some(i) = inner.chunk_idx(addr) else {
            return Err(MemError::OutOfBounds { addr, len });
        };
        let chunk = &mut inner.chunks[i];
        let start = (addr - chunk.base) as usize;
        if start + len <= chunk.len {
            // Fast path: a read inside one installed segment (whole
            // fragment or a header peek) is served by reference, if
            // nothing later shadows it.
            if let Some(k) = chunk.unshadowed_patch(start, len, PatchRel::Covering) {
                let p = &chunk.patches[k];
                return Ok(p.seg.slice(start - p.offset, len));
            }
            chunk.settle(start, start + len, &mut inner.stats);
            let data = Rc::clone(chunk.backing(&mut inner.stats));
            return Ok(PayloadSeg::new(data, start, len));
        }
        // Cross-chunk read: gather (cold path; the arena is contiguous).
        inner.stats.gather_copies += 1;
        drop(guard);
        let mut out = vec![0u8; len];
        self.for_each_span(addr, len, |chunk, stats, start, n, done| {
            chunk.settle(start, start + n, stats);
            out[done..done + n].copy_from_slice(&chunk.backing(stats)[start..start + n]);
        })?;
        Ok(PayloadSeg::from(out))
    }

    /// Walk the chunks spanning `[addr, addr + len)` in address order,
    /// calling `op(chunk, stats, start_in_chunk, span_len, done_before)`
    /// for each span. The single home of the chunk-walk arithmetic shared
    /// by [`GuestMem::write`], [`GuestMem::fill`], and the gather path.
    fn for_each_span(
        &self,
        addr: u64,
        len: usize,
        mut op: impl FnMut(&mut Chunk, &mut MemStats, usize, usize, usize),
    ) -> Result<(), MemError> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let mut done = 0;
        while done < len {
            let a = addr + done as u64;
            let Some(i) = inner.chunk_idx(a) else {
                return Err(MemError::OutOfBounds { addr, len });
            };
            let chunk = &mut inner.chunks[i];
            let start = (a - chunk.base) as usize;
            let n = (chunk.len - start).min(len - done);
            op(chunk, &mut inner.stats, start, n, done);
            done += n;
        }
        Ok(())
    }

    /// Write `data` at `addr` (copy-on-write if snapshots are live).
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.inner.borrow().check(addr, data.len())?;
        self.for_each_span(addr, data.len(), |chunk, stats, start, n, done| {
            chunk.settle(start, start + n, stats);
            chunk.data_mut(stats)[start..start + n].copy_from_slice(&data[done..done + n]);
        })
    }

    /// Land `seg` at `addr` by reference — the zero-copy receive path.
    ///
    /// Logically identical to `write(addr, &seg)`, but when the range lies
    /// within one allocation the bytes are recorded as a patch sharing the
    /// sender's buffer instead of being copied; the copy happens lazily if
    /// and when the range is next accessed through the byte APIs.
    pub fn install(&self, addr: u64, seg: &PayloadSeg) -> Result<(), MemError> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        inner.check(addr, seg.len())?;
        if seg.is_empty() {
            return Ok(());
        }
        let Some(i) = inner.chunk_idx(addr) else {
            return Err(MemError::OutOfBounds {
                addr,
                len: seg.len(),
            });
        };
        let chunk = &mut inner.chunks[i];
        let start = (addr - chunk.base) as usize;
        if start + seg.len() <= chunk.len {
            chunk.install(start, seg.clone(), &mut inner.stats);
            Ok(())
        } else {
            drop(guard);
            self.write(addr, seg)
        }
    }

    /// Read a region.
    pub fn read_region(&self, r: MemRegion) -> Result<PayloadSeg, MemError> {
        self.read(r.addr, r.len)
    }

    /// Fill a region with a byte value.
    pub fn fill(&self, r: MemRegion, v: u8) -> Result<(), MemError> {
        self.inner.borrow().check(r.addr, r.len)?;
        self.for_each_span(r.addr, r.len, |chunk, stats, start, n, _| {
            chunk.settle(start, start + n, stats);
            chunk.data_mut(stats)[start..start + n].fill(v);
        })
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> usize {
        (self.inner.borrow().next - GUEST_BASE) as usize
    }

    /// Copy counters accumulated since the arena was created.
    pub fn stats(&self) -> MemStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let m = GuestMem::new();
        let r = m.alloc(64, 0xAA);
        assert_eq!(r.addr, GUEST_BASE);
        assert_eq!(m.read(r.addr, 64).unwrap(), vec![0xAA; 64]);
        m.write(r.addr + 8, &[1, 2, 3]).unwrap();
        let b = m.read(r.addr + 8, 3).unwrap();
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let m = GuestMem::new();
        let a = m.alloc(16, 1);
        let b = m.alloc(16, 2);
        assert_eq!(a.end(), b.addr);
        assert_eq!(m.read_region(a).unwrap(), vec![1; 16]);
        assert_eq!(m.read_region(b).unwrap(), vec![2; 16]);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let m = GuestMem::new();
        let r = m.alloc(8, 0);
        assert!(m.read(r.addr, 9).is_err());
        assert!(m.read(0, 1).is_err(), "address 0 is never valid");
        assert!(m.write(r.end(), &[1]).is_err());
    }

    #[test]
    fn alloc_from_copies_data() {
        let m = GuestMem::new();
        let r = m.alloc_from(b"hello rdma");
        assert_eq!(&m.read_region(r).unwrap()[..], b"hello rdma");
    }

    #[test]
    fn subregion_slicing() {
        let m = GuestMem::new();
        let r = m.alloc_from(b"0123456789");
        let s = r.slice(3, 4);
        assert_eq!(&m.read_region(s).unwrap()[..], b"3456");
    }

    #[test]
    #[should_panic(expected = "sub-region out of range")]
    fn subregion_overflow_panics() {
        let r = MemRegion { addr: 0, len: 4 };
        let _ = r.slice(2, 3);
    }

    #[test]
    fn read_spanning_allocations_gathers() {
        let m = GuestMem::new();
        let a = m.alloc(4, 1);
        let _b = m.alloc(4, 2);
        let got = m.read(a.addr + 2, 4).unwrap();
        assert_eq!(&got[..], &[1, 1, 2, 2]);
    }

    #[test]
    fn write_spanning_allocations_scatters() {
        let m = GuestMem::new();
        let a = m.alloc(4, 0);
        let b = m.alloc(4, 0);
        m.write(a.addr + 2, &[7, 7, 7, 7]).unwrap();
        assert_eq!(m.read_region(a).unwrap(), vec![0, 0, 7, 7]);
        assert_eq!(m.read_region(b).unwrap(), vec![7, 7, 0, 0]);
    }

    #[test]
    fn snapshots_are_stable_across_writes() {
        let m = GuestMem::new();
        let r = m.alloc_from(b"immutable snapshot");
        let snap = m.read_region(r).unwrap();
        m.write(r.addr, b"OVERWRITTEN BYTES!").unwrap();
        assert_eq!(&snap[..], b"immutable snapshot", "COW preserved the view");
        assert_eq!(&m.read_region(r).unwrap()[..], b"OVERWRITTEN BYTES!");
    }

    #[test]
    fn snapshots_are_stable_across_fill() {
        let m = GuestMem::new();
        let r = m.alloc(8, 3);
        let snap = m.read_region(r).unwrap();
        m.fill(r, 9).unwrap();
        assert_eq!(snap, vec![3; 8]);
        assert_eq!(m.read_region(r).unwrap(), vec![9; 8]);
    }

    #[test]
    fn install_lands_bytes_without_copy() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"payload from the wire");
        let dr = dst.alloc(64, 0);
        let seg = src.read_region(sr).unwrap();
        dst.install(dr.addr + 8, &seg).unwrap();
        // Exact-range readback is served by reference.
        let got = dst.read(dr.addr + 8, sr.len).unwrap();
        assert_eq!(&got[..], b"payload from the wire");
        // Overlapping byte reads see the merged view.
        let merged = dst.read(dr.addr, 64).unwrap();
        assert_eq!(&merged[..8], &[0; 8]);
        assert_eq!(&merged[8..8 + sr.len], b"payload from the wire");
    }

    #[test]
    fn install_snapshot_isolated_from_source_writes() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"first");
        let dr = dst.alloc(8, 0);
        let seg = src.read_region(sr).unwrap();
        dst.install(dr.addr, &seg).unwrap();
        // The sender reuses its buffer: the installed bytes must not change.
        src.write(sr.addr, b"xxxxx").unwrap();
        assert_eq!(&dst.read(dr.addr, 5).unwrap()[..], b"first");
    }

    #[test]
    fn repeated_same_range_installs_do_not_grow_patches() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc(4096, 0);
        let dr = dst.alloc(8192, 0);
        for round in 0..200u32 {
            src.write(sr.addr, &round.to_le_bytes()).unwrap();
            let seg = src.read_region(sr).unwrap();
            dst.install(dr.addr, &seg).unwrap();
            dst.install(dr.addr + 4096, &seg).unwrap();
        }
        let inner = dst.inner.borrow();
        assert!(
            inner.chunks[0].patches.len() <= 2,
            "windowed installs must replace, not accumulate: {}",
            inner.chunks[0].patches.len()
        );
        drop(inner);
        assert_eq!(&dst.read(dr.addr, 4).unwrap()[..], 199u32.to_le_bytes());
    }

    #[test]
    fn patch_merge_bound_is_enforced() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(&(0u8..32).collect::<Vec<_>>());
        let dr = dst.alloc(64, 0xFF);
        // 40 distinct single-byte installs force at least one merge.
        for i in 0..40usize {
            let seg = src.read(sr.addr + (i % 32) as u64, 1).unwrap();
            dst.install(dr.addr + (i % 64) as u64, &seg).unwrap();
        }
        assert!(dst.inner.borrow().chunks[0].patches.len() < MAX_PATCHES);
        for i in 0..40usize {
            let want = (i % 32) as u8;
            assert_eq!(dst.read(dr.addr + i as u64, 1).unwrap()[0], want);
        }
    }

    #[test]
    fn header_peek_of_installed_fragment_is_by_reference() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"HDR|payload bytes");
        let dr = dst.alloc(64, 0);
        let seg = src.read_region(sr).unwrap();
        dst.install(dr.addr + 4, &seg).unwrap();
        // A sub-range read inside the installed patch must not force a
        // merge (the patch list survives) and must see the right bytes.
        assert_eq!(&dst.read(dr.addr + 4, 3).unwrap()[..], b"HDR");
        assert_eq!(&dst.read(dr.addr + 8, 7).unwrap()[..], b"payload");
        assert_eq!(
            dst.inner.borrow().chunks[0].patches.len(),
            1,
            "peek reads must not merge the patch away"
        );
    }

    #[test]
    fn reinstall_of_unchanged_buffer_still_overwrites_overlap() {
        // Regression: re-sending an unmodified source buffer (retransmit,
        // constant payload) over a range that an overlapping install
        // touched in between must behave as a fresh write, not be
        // shadowed by the older overlapping patch.
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let a = src.alloc_from(b"AAAA");
        let b = src.alloc_from(b"BB");
        let dr = dst.alloc(8, 0);
        let seg_a = src.read_region(a).unwrap();
        let seg_b = src.read_region(b).unwrap();
        dst.install(dr.addr, &seg_a).unwrap();
        dst.install(dr.addr + 1, &seg_b).unwrap();
        // Same backing buffer, same range as the first install.
        dst.install(dr.addr, &src.read_region(a).unwrap()).unwrap();
        assert_eq!(&dst.read(dr.addr, 4).unwrap()[..], b"AAAA");
        let _ = seg_a;
        let _ = seg_b;
    }

    #[test]
    fn overlapping_installs_apply_in_order() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let a = src.alloc_from(b"AAAA");
        let b = src.alloc_from(b"BB");
        let dr = dst.alloc(8, 0);
        dst.install(dr.addr, &src.read_region(a).unwrap()).unwrap();
        dst.install(dr.addr + 1, &src.read_region(b).unwrap())
            .unwrap();
        assert_eq!(&dst.read(dr.addr, 5).unwrap()[..], b"ABBA\0");
    }

    #[test]
    fn install_and_patch_served_read_materialize_nothing() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"by reference");
        let dr = dst.alloc(1 << 20, 0);
        dst.install(dr.addr + 64, &src.read_region(sr).unwrap())
            .unwrap();
        assert_eq!(&dst.read(dr.addr + 67, 9).unwrap()[..], b"reference");
        assert_eq!(dst.stats(), MemStats::default());
        assert_eq!(src.stats().materialized_bytes, 0, "alloc_from is eager");
    }

    #[test]
    fn untouched_range_reads_the_fill_byte() {
        let m = GuestMem::new();
        let r = m.alloc(32, 0x5A);
        assert_eq!(m.read(r.addr + 3, 5).unwrap(), vec![0x5A; 5]);
        assert_eq!(m.stats().materialized_bytes, 32);
    }

    #[test]
    fn write_fill_and_gather_over_unmaterialized_chunks() {
        let m = GuestMem::new();
        let p = m.alloc_pool(4, 4, 1);
        m.write(p.addr + 2, &[7, 7, 7]).unwrap();
        m.fill(p.slice(9, 4), 9).unwrap();
        assert_eq!(
            &m.read_region(p).unwrap()[..],
            &[1, 1, 7, 7, 7, 1, 1, 1, 1, 9, 9, 9, 9, 1, 1, 1]
        );
        let s = m.stats();
        assert_eq!(s.gather_copies, 1);
        assert_eq!(s.materialized_bytes, 16);
        assert_eq!(s.cow_clones, 0);
    }

    #[test]
    fn snapshot_from_lazy_first_read_survives_a_write() {
        let m = GuestMem::new();
        let r = m.alloc(8, 4);
        let snap = m.read_region(r).unwrap();
        m.write(r.addr, &[0; 8]).unwrap();
        assert_eq!(snap, vec![4; 8]);
        assert_eq!(m.read_region(r).unwrap(), vec![0; 8]);
        assert_eq!((m.stats().cow_clones, m.stats().cow_bytes), (1, 8));
    }

    #[test]
    fn pool_buffers_copy_on_write_alone() {
        let m = GuestMem::new();
        let pool = m.alloc_pool(64, 256, 0);
        assert_eq!(pool.len, 64 * 256);
        assert_eq!(m.allocated(), pool.len);
        let buf = |i: usize| pool.slice(i * 256, 256);
        m.write(buf(3).addr, b"in flight").unwrap();
        let pinned = m.read_region(buf(3)).unwrap();
        m.write(buf(3).addr, b"reused").unwrap();
        assert_eq!(&pinned[..9], b"in flight");
        assert_eq!(m.stats().cow_bytes, 256, "one buffer cloned, not the pool");
    }

    #[test]
    fn patch_merges_are_counted() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"abcd");
        let dr = dst.alloc(16, 0);
        dst.install(dr.addr + 2, &src.read_region(sr).unwrap())
            .unwrap();
        assert_eq!(&dst.read(dr.addr, 8).unwrap()[..], b"\0\0abcd\0\0");
        assert_eq!(dst.stats().patch_merges, 1);
    }

    #[test]
    fn payload_seg_slice_and_eq() {
        let seg = PayloadSeg::from(b"0123456789".to_vec());
        let s = seg.slice(3, 4);
        assert_eq!(&s[..], b"3456");
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.to_vec(), b"3456".to_vec());
        assert_eq!(s, PayloadSeg::from(b"3456".to_vec()));
        let b = s.to_bytes();
        assert_eq!(&b[..], b"3456");
    }
}
