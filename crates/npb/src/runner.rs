//! NPB campaign runner: builds a fabric, runs one benchmark on one
//! transport, and reports runtime + traffic statistics.

use cord_core::prelude::*;
use cord_mpi::{create_world, Comm, MpiTransport};

use crate::kernels;
use crate::model::{Bench, Class};

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub bench: Bench,
    pub class: Class,
    pub transport: MpiTransport,
    pub nranks: usize,
    pub iters: usize,
    /// Timed-region runtime, µs of virtual time.
    pub runtime_us: f64,
    /// Mean per-rank data rate over the timed region, Gbit/s.
    pub gbit_per_rank: f64,
    /// Mean per-rank message rate over the timed region, msgs/s.
    pub msgs_per_rank_s: f64,
    /// IPoIB messages left part-reassembled when the run ended, summed
    /// over nodes (0 on the verbs transports).
    pub ipoib_reasm_pending: usize,
}

/// Run one iteration of `bench` for `comm`.
pub async fn run_iter(comm: &Comm, bench: Bench, class: Class, iter: usize) {
    match bench {
        Bench::Is => kernels::is_iter(comm, class, iter).await,
        Bench::Ep => kernels::ep_iter(comm, class, iter).await,
        Bench::Mg => kernels::mg_iter(comm, class, iter).await,
        Bench::Ft => kernels::ft_iter(comm, class, iter).await,
        Bench::Lu => kernels::lu_iter(comm, class, iter).await,
        Bench::Cg => kernels::cg_iter(comm, class, iter).await,
        Bench::Bt => kernels::bt_iter(comm, class, iter).await,
        Bench::Sp => kernels::sp_iter(comm, class, iter).await,
    }
}

/// Execute `bench` over `transport` on a fresh fabric.
pub fn run_benchmark(
    machine: MachineSpec,
    bench: Bench,
    class: Class,
    want_ranks: usize,
    transport: MpiTransport,
    seed: u64,
) -> BenchResult {
    let nranks = bench.ranks_near(want_ranks);
    let iters = bench.default_iters(class);
    let builder = Fabric::builder(machine).seed(seed);
    let fabric = match transport {
        MpiTransport::Ipoib => builder.with_ipoib().build(),
        _ => builder.build(),
    };
    fabric.sim().set_max_polls(0);
    let f2 = fabric.clone();
    let (runtime_us, bytes, msgs) = fabric.block_on(async move {
        let comms = create_world(&f2, nranks, transport).await;
        let sim = f2.sim().clone();
        let mut handles = Vec::new();
        for comm in comms.clone() {
            handles.push(f2.spawn(async move {
                // Warmup iteration, then a barrier to align the clock.
                run_iter(&comm, bench, class, 100_000).await;
                comm.barrier(9000).await;
                let (b0, m0) = comm.traffic();
                let t0 = comm.core().sim().now();
                for it in 0..iters {
                    run_iter(&comm, bench, class, it).await;
                }
                comm.barrier(9001).await;
                let elapsed = comm.core().sim().now().since(t0).as_us_f64();
                let (b1, m1) = comm.traffic();
                (elapsed, b1 - b0, m1 - m0)
            }));
        }
        let mut runtime: f64 = 0.0;
        let mut bytes = 0u64;
        let mut msgs = 0u64;
        for h in handles {
            let (t, b, m) = h.await;
            runtime = runtime.max(t);
            bytes += b;
            msgs += m;
        }
        let _ = sim;
        (runtime, bytes, msgs)
    });
    let ipoib_reasm_pending = if fabric.has_ipoib() {
        (0..fabric.nodes())
            .map(|n| fabric.ipoib(n).reasm_pending())
            .sum()
    } else {
        0
    };
    let secs = runtime_us / 1e6;
    BenchResult {
        bench,
        class,
        transport,
        nranks,
        iters,
        runtime_us,
        gbit_per_rank: (bytes as f64 * 8.0 / nranks as f64) / secs / 1e9,
        msgs_per_rank_s: (msgs as f64 / nranks as f64) / secs,
        ipoib_reasm_pending,
    }
}
