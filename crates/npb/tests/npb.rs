//! NPB skeleton tests: every kernel completes on every transport, and the
//! Fig. 6 runtime shape holds.

use cord_core::prelude::*;
use cord_mpi::MpiTransport;
use cord_npb::{run_benchmark, Bench, Class};

#[test]
fn all_kernels_complete_class_s_rdma() {
    for bench in Bench::ALL {
        let r = run_benchmark(
            system_l(),
            bench,
            Class::S,
            8,
            MpiTransport::Verbs(Dataplane::Bypass),
            1,
        );
        assert!(r.runtime_us > 0.0, "{}", bench.label());
        assert!(r.iters >= 1);
        // EP barely communicates; everything else must move real traffic.
        if bench != Bench::Ep {
            assert!(r.msgs_per_rank_s > 0.0, "{}", bench.label());
        }
    }
}

#[test]
fn all_kernels_complete_class_s_cord_and_ipoib() {
    for bench in Bench::ALL {
        for t in [MpiTransport::Verbs(Dataplane::Cord), MpiTransport::Ipoib] {
            let r = run_benchmark(system_l(), bench, Class::S, 4, t, 2);
            assert!(r.runtime_us > 0.0, "{} over {t}", bench.label());
            assert_eq!(r.ipoib_reasm_pending, 0, "{} over {t}", bench.label());
        }
    }
}

#[test]
fn rank_constraints_are_applied() {
    let r = run_benchmark(
        system_l(),
        Bench::Bt,
        Class::S,
        10,
        MpiTransport::Verbs(Dataplane::Bypass),
        1,
    );
    assert_eq!(r.nranks, 9, "BT runs on a square rank count");
}

/// Fig. 6 in miniature (8 ranks, class A, IS + EP): CoRD ≈ RDMA while
/// IPoIB pays heavily on the data-intensive kernel and nothing on EP.
#[test]
fn fig6_shape_is_and_ep() {
    let run = |b: Bench, t: MpiTransport| {
        let r = run_benchmark(system_a(), b, Class::A, 8, t, 7);
        assert_eq!(r.ipoib_reasm_pending, 0, "{} over {t}", b.label());
        r.runtime_us
    };
    use MpiTransport::{Ipoib, Verbs};
    let is_rdma = run(Bench::Is, Verbs(Dataplane::Bypass));
    let is_cord = run(Bench::Is, Verbs(Dataplane::Cord));
    let is_ipoib = run(Bench::Is, Ipoib);
    let rel_cord = is_cord / is_rdma;
    let rel_ipoib = is_ipoib / is_rdma;
    assert!(
        (0.95..1.12).contains(&rel_cord),
        "IS CoRD relative runtime {rel_cord} (paper: ~1.0)"
    );
    // At 8 ranks the per-node IPoIB ceiling is shared 4 ways instead of
    // 16, so the penalty is milder than the paper's 128-rank 2×; the fig6
    // harness (32 ranks) reproduces the full factor.
    assert!(
        rel_ipoib > 1.25,
        "IS IPoIB relative runtime {rel_ipoib} (paper: up to 2×)"
    );

    let ep_rdma = run(Bench::Ep, Verbs(Dataplane::Bypass));
    let ep_cord = run(Bench::Ep, Verbs(Dataplane::Cord));
    let ep_ipoib = run(Bench::Ep, Ipoib);
    let ep_rel_cord = ep_cord / ep_rdma;
    let ep_rel_ipoib = ep_ipoib / ep_rdma;
    assert!(
        (0.9..1.03).contains(&ep_rel_cord),
        "EP CoRD {ep_rel_cord} (paper: slight boost)"
    );
    assert!(
        (0.9..1.1).contains(&ep_rel_ipoib),
        "EP IPoIB {ep_rel_ipoib} (paper: ~1.0, EP barely communicates)"
    );
}

#[test]
fn deterministic_runtimes() {
    let run = || {
        run_benchmark(
            system_a(),
            Bench::Mg,
            Class::S,
            4,
            MpiTransport::Verbs(Dataplane::Cord),
            3,
        )
        .runtime_us
    };
    assert_eq!(run(), run());
}
