//! Ablation studies beyond the paper's figures:
//!
//! 1. **Breaking point** (§6: "a set of real-world benchmark applications
//!    that shows the breaking point of CoRD"): sweep small-message burst
//!    rates and report where CoRD's throughput falls behind bypass by more
//!    than 5 / 25 / 50%.
//! 2. **Crossing-cost sensitivity**: how the Fig. 4 crossover moves as the
//!    user↔kernel crossing gets cheaper (the paper's future work targets a
//!    smaller per-message overhead).
//! 3. **KPTI**: what re-enabling page-table isolation (the §5 mitigation
//!    both testbeds disable) would cost CoRD.

use cord_bench::{iters_for, par_map, pow2_sizes, print_table, save_json};
use cord_hw::system_l;
use cord_perftest::{run_test, TestOp, TestSpec};
use cord_verbs::Dataplane;
use serde::Serialize;

#[derive(Serialize)]
struct Ablation {
    breaking_points: Vec<(f64, Option<usize>)>,
    crossing_sensitivity: Vec<(f64, f64)>,
    kpti_overhead_us: f64,
}

fn main() {
    // --- 1. Breaking point ----------------------------------------------
    let sizes = pow2_sizes(8, 1 << 16);
    let rels: Vec<(usize, f64)> = par_map(&sizes, |&size| {
        let iters = iters_for(size, 64 << 20, 150, 1500);
        let run = |c, s2| {
            run_test(
                system_l(),
                TestSpec::new(TestOp::SendBw)
                    .size(size)
                    .iters(iters)
                    .modes(c, s2),
                3,
            )
        };
        use Dataplane::{Bypass as BP, Cord as CD};
        (size, run(CD, CD).bw_gbps / run(BP, BP).bw_gbps)
    });
    let rows: Vec<Vec<String>> = rels
        .iter()
        .map(|(s, r)| vec![format!("{s}"), format!("{r:.3}")])
        .collect();
    print_table(
        "Breaking point: CoRD relative send throughput vs size",
        &["size B", "rel"],
        &rows,
    );
    let mut breaking = Vec::new();
    for threshold in [0.95, 0.75, 0.50] {
        // Largest size still degraded below the threshold.
        let bp = rels
            .iter()
            .rev()
            .find(|(_, r)| *r < threshold)
            .map(|(s, _)| *s);
        println!(
            "CoRD loses >{:.0}% below message size: {}",
            (1.0 - threshold) * 100.0,
            bp.map(|s| format!("{s} B"))
                .unwrap_or_else(|| "never".into())
        );
        breaking.push((threshold, bp));
    }

    // --- 2. Crossing-cost sensitivity ------------------------------------
    let mut sensitivity = Vec::new();
    for factor in [1.0, 0.5, 0.25] {
        let mut m = system_l();
        m.cpu.cord_crossing_ns *= factor;
        m.cpu.cord_driver_ns *= factor;
        let size = 512usize;
        let iters = 1500;
        let run = |machine: cord_hw::MachineSpec, c, s2| {
            run_test(
                machine,
                TestSpec::new(TestOp::SendBw)
                    .size(size)
                    .iters(iters)
                    .modes(c, s2),
                3,
            )
        };
        use Dataplane::{Bypass as BP, Cord as CD};
        let rel = run(m.clone(), CD, CD).bw_gbps / run(m, BP, BP).bw_gbps;
        println!("crossing cost ×{factor:*<4}: CoRD relative throughput at 512 B = {rel:.3}");
        sensitivity.push((factor, rel));
    }
    println!("(the paper's future work: 'strive for a smaller per-message overhead')");

    // --- 3. KPTI ----------------------------------------------------------
    let lat = |kpti: bool| {
        let mut m = system_l();
        m.kpti = kpti;
        run_test(
            m,
            TestSpec::new(TestOp::SendLat)
                .size(4096)
                .iters(100)
                .warmup(10)
                .modes(Dataplane::Cord, Dataplane::Cord),
            1,
        )
        .lat_avg_us
    };
    let kpti_delta = lat(true) - lat(false);
    println!(
        "\nKPTI re-enabled: CoRD→CoRD send latency +{kpti_delta:.2} µs \
         (why §5 disables it; CPUs with hardware mitigation don't pay this)"
    );

    save_json(
        "ablation",
        &Ablation {
            breaking_points: breaking,
            crossing_sensitivity: sensitivity,
            kpti_overhead_us: kpti_delta,
        },
    );
}
