//! Property test: the copy-on-write [`GuestMem`] is observationally
//! identical to a naive flat-buffer model that copies on every access.
//!
//! A DetRng-driven op sequence (alloc / alloc_pool / write / fill / read /
//! zero-copy install across arenas) runs against both implementations. Two
//! properties are checked after every step:
//!
//! 1. **Byte equivalence** — every read returns exactly the bytes the
//!    naive model holds for that range.
//! 2. **Snapshot stability** — a [`PayloadSeg`] returned by an earlier
//!    read continues to expose the bytes as they were at read time, no
//!    matter how many overlapping writes/installs/fills happen afterwards
//!    (this is the guarantee the old copying `read` gave for free and COW
//!    must preserve).

use cord_hw::{GuestMem, PayloadSeg, GUEST_BASE};
use cord_sim::DetRng;

/// Naive reference: one contiguous buffer per arena, every op a copy.
struct NaiveMem {
    buf: Vec<u8>,
}

impl NaiveMem {
    fn new() -> Self {
        NaiveMem { buf: Vec::new() }
    }

    fn alloc(&mut self, len: usize, fill: u8) -> u64 {
        let addr = GUEST_BASE + self.buf.len() as u64;
        self.buf.extend(std::iter::repeat_n(fill, len));
        addr
    }

    fn start(&self, addr: u64) -> usize {
        (addr - GUEST_BASE) as usize
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let s = self.start(addr);
        self.buf[s..s + len].to_vec()
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let s = self.start(addr);
        self.buf[s..s + data.len()].copy_from_slice(data);
    }

    fn fill(&mut self, addr: u64, len: usize, v: u8) {
        let s = self.start(addr);
        self.buf[s..s + len].fill(v);
    }

    fn len(&self) -> usize {
        self.buf.len()
    }
}

/// One arena pair (COW implementation + reference) plus the live
/// snapshots whose stability we keep asserting.
struct Arena {
    cow: GuestMem,
    naive: NaiveMem,
    /// (segment, bytes it must keep showing forever).
    snapshots: Vec<(PayloadSeg, Vec<u8>)>,
}

impl Arena {
    fn new() -> Self {
        Arena {
            cow: GuestMem::new(),
            naive: NaiveMem::new(),
            snapshots: Vec::new(),
        }
    }

    /// A random in-bounds (addr, len) range; None while empty.
    fn random_range(&self, rng: &DetRng) -> Option<(u64, usize)> {
        let total = self.naive.len();
        if total == 0 {
            return None;
        }
        let start = rng.uniform_range(0, total as u64);
        let max_len = (total as u64 - start).min(300);
        let len = rng.uniform_range(0, max_len + 1) as usize;
        Some((GUEST_BASE + start, len))
    }

    fn check_snapshots(&self, step: usize) {
        for (i, (seg, expect)) in self.snapshots.iter().enumerate() {
            assert_eq!(
                &seg[..],
                &expect[..],
                "snapshot {i} mutated by step {step}: COW broke read stability"
            );
        }
    }
}

#[test]
fn cow_guestmem_matches_naive_reference_model() {
    let rng = DetRng::from_seed(0xC0B_D5EED);
    // Two arenas so installs exercise the cross-arena zero-copy path the
    // NIC RX pipeline uses (sender chunk referenced by receiver patches).
    let mut arenas = [Arena::new(), Arena::new()];

    for step in 0..4000 {
        let which = rng.uniform_range(0, 2) as usize;
        match rng.uniform_range(0, 100) {
            // Occasionally grow an arena by one chunk or a pool of them
            // (bounded so ranges stay dense).
            0..=4 => {
                let len = rng.uniform_range(1, 600) as usize;
                let count = rng.uniform_range(1, 5) as usize;
                let fill = rng.next_u64() as u8;
                let a = &mut arenas[which];
                if a.naive.len() < 16 << 10 {
                    let r = if count == 1 {
                        a.cow.alloc(len, fill)
                    } else {
                        a.cow.alloc_pool(count, len, fill)
                    };
                    let addr = a.naive.alloc(count * len, fill);
                    assert_eq!(r.addr, addr, "allocation layout must match");
                    assert_eq!(r.len, count * len);
                }
            }
            // Byte writes.
            5..=34 => {
                let a = &mut arenas[which];
                if let Some((addr, len)) = a.random_range(&rng) {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    a.cow.write(addr, &data).unwrap();
                    a.naive.write(addr, &data);
                }
            }
            // Region fills.
            35..=44 => {
                let a = &mut arenas[which];
                if let Some((addr, len)) = a.random_range(&rng) {
                    let v = rng.next_u64() as u8;
                    a.cow.fill(cord_hw::MemRegion { addr, len }, v).unwrap();
                    a.naive.fill(addr, len, v);
                }
            }
            // Zero-copy installs: read from arena `which`, land in the
            // other one (or the same one half the time).
            45..=69 => {
                let src_is = which;
                let dst_is = if rng.uniform_range(0, 2) == 0 {
                    which
                } else {
                    1 - which
                };
                let Some((src_addr, len)) = arenas[src_is].random_range(&rng) else {
                    continue;
                };
                let seg = arenas[src_is].cow.read(src_addr, len).unwrap();
                let bytes = arenas[src_is].naive.read(src_addr, len);
                assert_eq!(&seg[..], &bytes[..], "pre-install read diverged");
                let dst_total = arenas[dst_is].naive.len();
                if dst_total < len {
                    continue;
                }
                let dst_start = rng.uniform_range(0, (dst_total - len) as u64 + 1);
                let dst_addr = GUEST_BASE + dst_start;
                arenas[dst_is].cow.install(dst_addr, &seg).unwrap();
                arenas[dst_is].naive.write(dst_addr, &bytes);
            }
            // Reads: verify bytes and retain some as stability snapshots.
            _ => {
                let a = &mut arenas[which];
                if let Some((addr, len)) = a.random_range(&rng) {
                    let seg = a.cow.read(addr, len).unwrap();
                    let expect = a.naive.read(addr, len);
                    assert_eq!(&seg[..], &expect[..], "read diverged at step {step}");
                    if a.snapshots.len() < 64 && rng.uniform_range(0, 4) == 0 {
                        a.snapshots.push((seg, expect));
                    } else if a.snapshots.len() >= 64 {
                        // Rotate so drops exercise refcount-release paths.
                        let i = rng.uniform_range(0, a.snapshots.len() as u64) as usize;
                        a.snapshots.swap_remove(i);
                    }
                }
            }
        }
        for a in &arenas {
            a.check_snapshots(step);
        }
    }

    // Final sweep: whole-arena reads must match the reference exactly.
    for (i, a) in arenas.iter().enumerate() {
        if a.naive.len() > 0 {
            let got = a.cow.read(GUEST_BASE, a.naive.len()).unwrap();
            assert_eq!(&got[..], &a.naive.buf[..], "arena {i} final state");
        }
    }
}

/// Out-of-bounds behavior must match the flat model's address arithmetic.
#[test]
fn cow_bounds_match_flat_semantics() {
    let m = GuestMem::new();
    let a = m.alloc(32, 1);
    let b = m.alloc(32, 2);
    // Reads and writes crossing the a|b boundary are legal (the arena is
    // contiguous), exactly as with the flat buffer.
    assert_eq!(m.read(a.addr + 30, 4).unwrap(), vec![1, 1, 2, 2]);
    m.write(a.addr + 30, &[9, 9, 9, 9]).unwrap();
    assert_eq!(
        m.read(a.addr + 28, 8).unwrap(),
        vec![1, 1, 9, 9, 9, 9, 2, 2]
    );
    // One past the frontier is out of bounds.
    assert!(m.read(b.end(), 1).is_err());
    assert!(m.write(b.end() - 1, &[0, 0]).is_err());
    assert!(m.read(GUEST_BASE - 1, 1).is_err());
}
