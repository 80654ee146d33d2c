//! Figure 3 — latency overhead on system L at 4 KiB for every
//! transport/op combination and every client/server dataplane pairing.
//!
//! Paper shape: RDMA read with server-side CoRD is free; all other ops
//! pay ~equally per CoRD side; everything stays under ~1.25 µs.

use cord_bench::{par_map, print_table, save_json};
use cord_hw::system_l;
use cord_perftest::{run_test, TestOp, TestSpec};
use cord_verbs::{Dataplane, Transport};
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Row {
    mode: String,
    baseline_us: f64,
    bp_to_cord: f64,
    cord_to_bp: f64,
    cord_to_cord: f64,
}

fn main() {
    let combos = [
        (TestOp::ReadLat, Transport::Rc, "Read/RC"),
        (TestOp::WriteLat, Transport::Rc, "Write/RC"),
        (TestOp::SendLat, Transport::Rc, "Send/RC"),
        (TestOp::SendLat, Transport::Ud, "Send/UD"),
    ];
    let results: Vec<Fig3Row> = par_map(&combos, |&(op, tr, label)| {
        let lat = |c: Dataplane, s: Dataplane| {
            run_test(
                system_l(),
                TestSpec::new(op)
                    .transport(tr)
                    .size(4096)
                    .iters(100)
                    .warmup(10)
                    .modes(c, s),
                1,
            )
            .lat_avg_us
        };
        use Dataplane::{Bypass as BP, Cord as CD};
        let base = lat(BP, BP);
        Fig3Row {
            mode: label.to_string(),
            baseline_us: base,
            bp_to_cord: lat(BP, CD) - base,
            cord_to_bp: lat(CD, BP) - base,
            cord_to_cord: lat(CD, CD) - base,
        }
    });

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.2}", r.baseline_us),
                format!("{:+.2}", r.bp_to_cord),
                format!("{:+.2}", r.cord_to_bp),
                format!("{:+.2}", r.cord_to_cord),
            ]
        })
        .collect();
    print_table(
        "Fig. 3: latency overhead (µs) at 4 KiB, system L",
        &["mode", "baseline", "BP→CoRD", "CoRD→BP", "CoRD→CoRD"],
        &rows,
    );
    println!("\npaper shape: Read BP→CoRD ≈ 0 (server CPU uninvolved); other ops add ~equally per side; max ≤ ~1.25 µs");
    save_json("fig3", &results);
}
