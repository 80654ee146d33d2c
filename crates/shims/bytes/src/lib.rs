//! Minimal vendored stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so this shim
//! provides the small slice of the `bytes` API the workspace actually uses:
//! cheaply clonable, immutable, reference-counted byte buffers with
//! zero-copy sub-slicing.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::ManuallyDrop;
use std::ops::{Deref, Range, RangeFrom, RangeFull, RangeTo};
use std::rc::Rc;

/// Recycled payload buffers. Simulators churn through one buffer per
/// packet fragment; reusing the backing `Vec`s removes a malloc/free pair
/// from that path. Only mid-sized buffers are pooled (tiny ones are cheap
/// to allocate, huge ones are not worth pinning).
mod pool {
    use std::cell::RefCell;

    const MIN_CAP: usize = 256;
    const MAX_CAP: usize = 64 << 10;
    const MAX_POOLED: usize = 256;

    thread_local! {
        static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    }

    pub fn get() -> Vec<u8> {
        POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
    }

    pub fn clear() {
        POOL.with(|p| drop(std::mem::take(&mut *p.borrow_mut())));
    }

    pub fn put(mut v: Vec<u8>) {
        if (MIN_CAP..=MAX_CAP).contains(&v.capacity()) {
            v.clear();
            POOL.with(|p| {
                let mut p = p.borrow_mut();
                if p.len() < MAX_POOLED {
                    p.push(v);
                }
            });
        }
    }
}

/// Free every buffer in this thread's pool, and the pool's own storage.
/// The pool keeps up to 256 buffers of up to 64 KiB alive between runs;
/// tests that count live heap bytes around a run empty it on both sides.
#[doc(hidden)]
pub fn clear_pool() {
    pool::clear();
}

/// A cheaply clonable, contiguous, immutable chunk of memory.
///
/// Backed by `Rc<Vec<u8>>` rather than `Rc<[u8]>`: converting a `Vec`
/// into `Rc<[u8]>` copies the bytes into a fresh allocation, and payload
/// construction is on the simulator's per-fragment hot path. When the
/// last reference drops, mid-sized backing buffers return to a
/// thread-local pool for reuse.
pub struct Bytes {
    data: ManuallyDrop<Rc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Clone for Bytes {
    fn clone(&self) -> Bytes {
        Bytes {
            data: ManuallyDrop::new(Rc::clone(&self.data)),
            start: self.start,
            end: self.end,
        }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // Safety: `data` is never touched again after this take.
        let rc = unsafe { ManuallyDrop::take(&mut self.data) };
        if let Some(v) = Rc::into_inner(rc) {
            pool::put(v);
        }
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copy `src` into an owned buffer (recycled when available).
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        let mut v = pool::get();
        v.extend_from_slice(src);
        Bytes::from(v)
    }

    /// Wrap an already-shared buffer without copying, viewing
    /// `data[start..end]`. This is the zero-copy bridge from other
    /// reference-counted byte containers (e.g. guest-memory payload
    /// segments) into `Bytes`.
    pub fn from_shared(data: Rc<Vec<u8>>, start: usize, end: usize) -> Bytes {
        assert!(start <= end && end <= data.len(), "range out of bounds");
        Bytes {
            data: ManuallyDrop::new(data),
            start,
            end,
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-slice sharing the same backing storage.
    pub fn slice(&self, range: impl SliceRange) -> Bytes {
        let (lo, hi) = range.resolve(self.len());
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: ManuallyDrop::new(Rc::clone(&self.data)),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

/// Range forms accepted by [`Bytes::slice`].
pub trait SliceRange {
    fn resolve(self, len: usize) -> (usize, usize);
}

impl SliceRange for Range<usize> {
    fn resolve(self, _len: usize) -> (usize, usize) {
        (self.start, self.end)
    }
}

impl SliceRange for RangeFrom<usize> {
    fn resolve(self, len: usize) -> (usize, usize) {
        (self.start, len)
    }
}

impl SliceRange for RangeTo<usize> {
    fn resolve(self, _len: usize) -> (usize, usize) {
        (0, self.end)
    }
}

impl SliceRange for RangeFull {
    fn resolve(self, len: usize) -> (usize, usize) {
        (0, len)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: ManuallyDrop::new(Rc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equality_and_empty() {
        assert_eq!(Bytes::new().len(), 0);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from(vec![7, 7]), Bytes::copy_from_slice(&[7, 7]));
    }
}
