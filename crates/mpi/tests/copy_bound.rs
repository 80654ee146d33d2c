//! Copy-bound regression: streaming fixed messages over each MPI transport
//! (bypass verbs, CoRD verbs, IPoIB) copies at most a small constant of
//! guest-memory bytes per payload byte delivered.
//!
//! Copy-on-write clones a whole guest-memory chunk, so a buffer pool
//! allocated as one chunk (instead of one chunk per buffer via
//! `GuestMem::alloc_pool`) clones the entire pool on nearly every reused
//! buffer write and overshoots this bound by orders of magnitude.

use cord_core::prelude::*;
use cord_mpi::{create_world, MpiTransport, EAGER_MAX};

/// Copy-on-write bytes allowed per payload byte delivered.
const MAX_COW_PER_BYTE: f64 = 2.0;
const MSGS: usize = 60;
/// Sub-MTU eager, a full eager slot, and rendezvous / multi-fragment.
const SIZES: [usize; 3] = [1000, EAGER_MAX, 32 * 1024];

fn pattern(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 13 + seed) as u8).collect()
}

/// Stream `MSGS` messages of each size from ranks 0, 1 (node 0) to ranks
/// 2, 3 (node 1); returns the summed copy counters of every guest memory
/// the traffic touched and the payload bytes delivered.
fn stream(t: MpiTransport) -> (MemStats, u64) {
    let builder = Fabric::builder(system_l()).seed(3);
    let fabric = match t {
        MpiTransport::Ipoib => builder.with_ipoib().build(),
        _ => builder.build(),
    };
    let f2 = fabric.clone();
    let (rank_stats, delivered) = fabric.block_on(async move {
        let comms = create_world(&f2, 4, t).await;
        let mut handles = Vec::new();
        for c in comms.clone() {
            handles.push(f2.spawn(async move {
                let r = c.rank();
                let mut got = 0u64;
                for (k, &len) in SIZES.iter().enumerate() {
                    for m in 0..MSGS {
                        let tag = (k * MSGS + m) as u32;
                        if r < 2 {
                            c.send(r + 2, tag, &pattern(len, m)).await;
                        } else {
                            let msg = c.recv(r - 2, tag).await;
                            assert_eq!(&msg[..], &pattern(len, m)[..], "{t}");
                            got += msg.len() as u64;
                        }
                    }
                }
                got
            }));
        }
        let mut delivered = 0;
        for h in handles {
            delivered += h.await;
        }
        let stats: MemStats = comms.iter().map(|c| c.mem_stats()).sum();
        (stats, delivered)
    });
    let stack_stats: MemStats = if fabric.has_ipoib() {
        (0..fabric.nodes())
            .map(|n| fabric.ipoib(n).mem_stats())
            .sum()
    } else {
        MemStats::default()
    };
    (rank_stats + stack_stats, delivered)
}

#[test]
fn cow_bytes_per_payload_byte_stay_bounded_on_every_transport() {
    for t in [
        MpiTransport::Verbs(Dataplane::Bypass),
        MpiTransport::Verbs(Dataplane::Cord),
        MpiTransport::Ipoib,
    ] {
        let (stats, delivered) = stream(t);
        assert_eq!(delivered, (2 * MSGS * SIZES.iter().sum::<usize>()) as u64);
        let per_byte = stats.cow_bytes as f64 / delivered as f64;
        assert!(
            per_byte <= MAX_COW_PER_BYTE,
            "{t}: {per_byte:.2} copy-on-write bytes per payload byte ({stats:?})"
        );
    }
}
