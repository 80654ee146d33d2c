//! `simbench` — the deterministic digest of the simulator core on fixed
//! loadgen scenarios, which `perfgate` checks against the committed
//! baseline.
//!
//! ```text
//! cargo run --release --bin simbench            # whole suite
//! cargo run --release --bin simbench -- incast-dcqcn
//! cargo run --release --bin simbench -- --trace # plus lifecycle traces
//! ```
//!
//! Every named benchmark pins its scenario spec completely (nodes,
//! tenants, requests, topology, cc, seed), so two builds of the simulator
//! can be compared run-to-run:
//!
//! * `kv-fanout`   — closed-loop small RPC fan-out on the full mesh; the
//!   message-rate / executor-churn stress.
//! * `incast-dcqcn` — open-loop 32 KiB fan-in on a fat tree with DCQCN,
//!   the timer-heavy case (CNP echo gates, rate-limiter pacing gates,
//!   alpha/recovery timers on every QP).
//! * `shuffle`     — all-to-all 16 KiB exchange, ~960 concurrent QPs; the
//!   task-count / ready-queue stress.
//! * `lossy-retx`  — the incast on a small-buffer tail-dropping fat tree
//!   with RC retransmission armed: the go-back-N window, sequence NAKs,
//!   and tombstone-cancelled retransmit timers on the hot path. Its
//!   digest line additionally pins the drop/replay counters.
//! * `lossy-retx-spray` — the same lossy fan-in under per-packet spray
//!   routing with the selective-repeat receiver: per-packet congestion
//!   snapshots, out-of-order fragment installs, SACK-driven partial
//!   replays. Its digest line pins spray determinism and the SACK
//!   replay economy.
//! * `allreduce-ring` — a fabric-saturating 16-rank × 512 KiB ring
//!   allreduce over `cord-mpi` with DCQCN: the rendezvous RTS/CTS/DATA
//!   hot path. Its digest line pins the collective schedule end to end.
//! * `prefill-decode` — disaggregated serving: open-loop 128 KiB
//!   KV-cache pushes from the prefill half into the decode half of a
//!   fat tree under a 250 µs SLO.
//!
//! Each run prints and writes `results/simbench_digest.txt`: one line per
//! bench with its virtual time, completions, goodput and loss counters
//! (which must reproduce byte-for-byte) and its executor polls and timer
//! fires (deterministic for a build; `perfgate` lets them improve and
//! caps their regression). simbench reads no host clock: wall-time
//! claims come from perfbench's repeated, host-stamped runs.
//!
//! Two observability side-channels ride along without touching the
//! digest: `results/simbench_attr.txt` attributes every bench's polls
//! and timer fires to the subsystem that caused them (NIC engines,
//! switch ports, CPU billing, other — the executor's [`Subsystem`]
//! tags), and `--trace` arms the packet-lifecycle ring during each bench
//! and exports `results/simbench_trace_<bench>.json` in Chrome
//! trace_event form. Tracing observes without perturbing: the digest is
//! byte-identical with and without `--trace`. A result that cannot be
//! written fails the run.
//!
//! [`Subsystem`]: cord_sim::Subsystem

use std::fmt::Write as _;

use cord_bench::perfetto::write_chrome_trace;
use cord_bench::{results_path, save_text};
use cord_nic::CcAlgorithm;
use cord_sim::Subsystem;
use cord_workload::scenarios::{self, Scale};
use cord_workload::{run_scenario_full, RunOptions, ScenarioSpec};

/// Ring capacity for `--trace` (same bound as loadgen's).
const TRACE_CAPACITY: usize = 1 << 20;

/// One benchmark = one fully pinned scenario.
struct Bench {
    name: &'static str,
    spec: ScenarioSpec,
}

/// The fixed benchmark suite, sized so CI runs all of it (three times)
/// in seconds.
fn suite() -> Vec<Bench> {
    let scale = |requests: usize, cc: CcAlgorithm| Scale {
        requests,
        cc: Some(cc),
        ..Scale::default()
    };
    vec![
        Bench {
            name: "kv-fanout",
            spec: scenarios::kv_fanout(scale(60, CcAlgorithm::None)),
        },
        Bench {
            name: "incast-dcqcn",
            spec: scenarios::incast(scale(60, CcAlgorithm::Dcqcn)),
        },
        Bench {
            name: "shuffle",
            spec: scenarios::shuffle(scale(30, CcAlgorithm::None)),
        },
        Bench {
            name: "lossy-retx",
            // Half the tenant fan-in of the other benches: a sustained
            // 600-request run at the full 32-tenant overload drives some
            // QPs into (legitimate, deterministic) retry exhaustion;
            // 16 tenants keep the bench lossy but fully recoverable, so
            // the digest pins `completed` at the issued count.
            spec: scenarios::lossy_incast_rc(Scale {
                tenants: 16,
                requests: 60,
                ..Scale::default()
            }),
        },
        Bench {
            name: "lossy-retx-spray",
            // The same lossy fan-in under congestion-aware per-packet
            // spray and selective repeat: every cross-leaf packet takes a
            // per-packet congestion snapshot and the receiver runs the
            // SACK/out-of-order-install path — the multipath hot path.
            // Its digest line pins both spray determinism (packet-level
            // path choices feed `drops`) and the SACK replay economy
            // (`retx` is the selective-repeat replay count).
            spec: scenarios::spray_incast(Scale {
                tenants: 16,
                requests: 60,
                ..Scale::default()
            }),
        },
        Bench {
            name: "allreduce-ring",
            // A fabric-saturating ring allreduce (16 ranks × 512 KiB):
            // the rendezvous hot path — every chunk is an RTS/CTS/DATA
            // exchange — plus DCQCN timers on every rank's QPs. Its
            // digest line pins the collective schedule end to end
            // (virtual_ms moves if a single chunk reorders).
            spec: scenarios::allreduce_ring(Scale {
                requests: 60,
                ..Scale::default()
            }),
        },
        Bench {
            name: "prefill-decode",
            // Disaggregated serving: open-loop 128 KiB KV-cache pushes
            // from the prefill half into the decode half of a fat tree,
            // DCQCN armed, 250 µs SLO. The digest pins completion and
            // goodput; SLO attainment lives in the loadgen scoreboard.
            spec: scenarios::prefill_decode(Scale {
                requests: 15,
                ..Scale::default()
            }),
        },
    ]
}

/// What one bench run leaves behind: its digest line, its
/// per-subsystem attribution line, and the lifecycle trace if armed.
struct BenchRun {
    digest: String,
    attr: String,
    trace: Option<Vec<cord_sim::TraceEvent>>,
}

fn run_bench(b: &Bench, trace: bool) -> BenchRun {
    let opts = RunOptions {
        trace_capacity: trace.then_some(TRACE_CAPACITY),
    };
    let out = run_scenario_full(&b.spec, opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let (report, sim) = (out.report, out.core.sim);
    // Everything in the digest must be bit-reproducible across runs.
    let mut digest = format!(
        "{} virtual_ms={} polls={} timer_fires={} completed={} goodput_gbps={}",
        b.name,
        report.elapsed_ms,
        sim.polls,
        sim.timer_fires,
        report.total_completed,
        report.total_goodput_gbps
    );
    // Fabric benches (PFC / RC retransmission) also pin their
    // loss-recovery counters — these are simulation semantics, so they
    // belong with the byte-exact fields, not the perf ones.
    if let Some(f) = &report.fabric {
        write!(
            digest,
            " drops={} pauses={} pause_ms={} retx={}",
            f.net_drops, f.net_pauses, f.net_pause_ms, f.retx_replays
        )
        .unwrap();
    }
    // Attribution: deterministic counts, but deliberately NOT part of the
    // digest — the digest's poll/fire totals are perf-gated (±tolerance),
    // and splitting them there would turn every executor tweak into four
    // baseline refreshes. The side file keeps the breakdown inspectable.
    let mut attr = b.name.to_string();
    for (what, by) in [("polls", &sim.polls_by), ("fires", &sim.timer_fires_by)] {
        for sub in Subsystem::ALL {
            write!(attr, " {what}[{}]={}", sub.label(), by[sub as usize]).unwrap();
        }
    }
    BenchRun {
        digest,
        attr,
        trace: out.trace,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench [--trace] [bench ...]\n\
         benches: kv-fanout, incast-dcqcn, shuffle, lossy-retx, lossy-retx-spray,\n\
         \x20        allreduce-ring, prefill-decode"
    );
    std::process::exit(2);
}

fn main() {
    let mut trace = false;
    let mut picked: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--trace" => trace = true,
            s if s.starts_with('-') => usage(),
            s => picked.push(s.to_string()),
        }
    }
    let benches: Vec<Bench> = suite()
        .into_iter()
        .filter(|b| picked.is_empty() || picked.iter().any(|p| p == b.name))
        .collect();
    if benches.is_empty() {
        usage();
    }

    let mut digest = String::new();
    let mut attr = String::new();
    for b in &benches {
        let run = run_bench(b, trace);
        println!("{}", run.digest);
        writeln!(digest, "{}", run.digest).unwrap();
        writeln!(attr, "{}", run.attr).unwrap();
        if let Some(events) = &run.trace {
            let path = results_path(&format!("simbench_trace_{}", b.name), "json");
            if let Err(e) = write_chrome_trace(&path, events) {
                eprintln!("{}: cannot write {}: {e}", b.name, path.display());
                std::process::exit(1);
            }
            println!("[saved {} — {} trace events]", path.display(), events.len());
        }
    }
    save_text("simbench_digest", "txt", &digest);
    // The attribution breakdown lives beside the digest, never in it:
    // deterministic and diffable, but not a gate.
    save_text("simbench_attr", "txt", &attr);
}
