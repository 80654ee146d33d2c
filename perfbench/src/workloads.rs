//! The four workloads. Each drives the layer crates through their public
//! entry points, times the calls on the host clock, records what the
//! simulation produced, and checks the invariants that hold at any seed.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use cord_core::prelude::*;
use cord_mpi::{create_world, MpiTransport};
use cord_npb::{run_benchmark, run_iter, Bench, Class};
use cord_perftest::harness::setup_pair;
use cord_perftest::{run_on, EmuKnobs, TestOp, TestSpec};
use cord_sim::{SimStats, Subsystem};
use cord_workload::scenarios::{self, Scale};
use cord_workload::{run_scenario_full, RunOptions, ScenarioSpec};

use crate::heap::Heap;
use crate::trace::Recorder;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["p2p-verbs", "npb-transports", "fabric-incast", "spray-sr"];

/// How much simulated work one batch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// Seconds-long self-test scale.
    Tiny,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Everything one batch of one workload produced.
pub struct Batch {
    pub rec: Recorder,
    /// Simulated outputs as `(key, exact value)`, in a fixed order.
    pub outputs: Vec<(String, String)>,
    /// Invariants that did not hold.
    pub failures: Vec<String>,
    /// Simulated operations: requests, messages or iterations.
    pub attempted: u64,
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Executor counters summed over every fabric of the timed region.
    pub sim: SimStats,
    /// Payload bytes the timed region moved (the denominator of copy
    /// amplification).
    pub payload_bytes: f64,
    /// Heap bytes still live after each fabric and everything it returned
    /// was dropped, summed over the timed region's fabrics.
    pub leak_bytes: i64,
    /// Layer metrics this workload measures directly.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Batch {
    pub fn new(rec: Recorder) -> Batch {
        Batch {
            rec,
            outputs: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            wall_s: 0.0,
            sim: SimStats::default(),
            payload_bytes: 0.0,
            leak_bytes: 0,
            layer: BTreeMap::new(),
        }
    }

    fn out(&mut self, key: impl Into<String>, value: impl std::fmt::Debug) {
        self.outputs.push((key.into(), format!("{value:?}")));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn add_layer(&mut self, key: &'static str, v: f64) {
        *self.layer.entry(key).or_insert(0.0) += v;
    }

    fn add_sim(&mut self, s: &SimStats) {
        let t = &mut self.sim;
        t.polls += s.polls;
        t.timer_fires += s.timer_fires;
        t.spawns += s.spawns;
        t.wakers_created += s.wakers_created;
        t.timer_inserts += s.timer_inserts;
        t.timer_slab_allocs += s.timer_slab_allocs;
        t.timer_scan_steps += s.timer_scan_steps;
        for i in 0..Subsystem::COUNT {
            t.polls_by[i] += s.polls_by[i];
            t.timer_fires_by[i] += s.timer_fires_by[i];
        }
    }
}

/// Counters snapshotted at a span boundary.
fn sim_counters(s: &SimStats) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.polls", s.polls as f64),
        ("sim.timer_fires", s.timer_fires as f64),
        ("sim.timer_inserts", s.timer_inserts as f64),
        ("sim.spawns", s.spawns as f64),
    ]
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// Set-up cost of one probe: fabric build, then connections.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub build_s: f64,
    pub connect_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.build_s + self.connect_s
    }

    fn add(&mut self, build: f64, connect: f64) {
        self.build_s += build;
        self.connect_s += connect;
    }
}

/// Run one batch of `workload`'s timed region.
pub fn run(workload: &str, size: Size, seed: u64, b: &mut Batch) {
    let root = b.rec.open(workload);
    match workload {
        "p2p-verbs" => p2p_run(size, seed, b),
        "npb-transports" => npb_run(size, seed, b),
        "fabric-incast" => scenario_run(&incast_spec(size, seed, false), b),
        "spray-sr" => scenario_run(&spray_spec(size, seed, false), b),
        _ => unreachable!("workload names are checked at the command line"),
    }
    b.rec.close(root, Vec::new());
}

/// Time `workload`'s set-up once, outside the timed region.
pub fn setup_probe(workload: &str, size: Size, seed: u64, rec: &mut Recorder) -> Setup {
    let probe = rec.open("setup");
    let s = match workload {
        "p2p-verbs" => p2p_setup(size, seed, rec),
        "npb-transports" => npb_setup(size, seed, rec),
        "fabric-incast" => scenario_setup(&incast_spec(size, seed, true), rec),
        "spray-sr" => scenario_setup(&spray_spec(size, seed, true), rec),
        _ => unreachable!("workload names are checked at the command line"),
    };
    rec.close(probe, Vec::new());
    s
}

// ---------------------------------------------------------------- p2p-verbs

struct Point {
    name: &'static str,
    /// Which host-time split the point counts in: a dataplane's 16 B
    /// legs, or the 1 MiB write with (`zc`) or without (`nozc`) zero copy.
    leg: &'static str,
    spec: TestSpec,
}

impl Point {
    /// Messages the point moves: a ping-pong iteration is two sends.
    fn msgs(&self) -> u64 {
        if self.spec.op.is_latency() {
            2 * (self.spec.iters + self.spec.warmup) as u64
        } else {
            self.spec.iters as u64
        }
    }
}

fn p2p_points(size: Size) -> Vec<Point> {
    let (lat, bw, mib) = match size {
        Size::Full => (20_000, 60_000, 256),
        Size::Tiny => (50, 200, 4),
    };
    let small = |op: TestOp, iters: usize, plane: Dataplane| {
        TestSpec::new(op).size(16).iters(iters).modes(plane, plane)
    };
    let large = TestSpec::new(TestOp::WriteBw).size(1 << 20).iters(mib);
    vec![
        Point {
            name: "send_lat.16.bypass",
            leg: "bypass",
            spec: small(TestOp::SendLat, lat, Dataplane::Bypass),
        },
        Point {
            name: "send_lat.16.cord",
            leg: "cord",
            spec: small(TestOp::SendLat, lat, Dataplane::Cord),
        },
        Point {
            name: "send_bw.16.bypass",
            leg: "bypass",
            spec: small(TestOp::SendBw, bw, Dataplane::Bypass),
        },
        Point {
            name: "send_bw.16.cord",
            leg: "cord",
            spec: small(TestOp::SendBw, bw, Dataplane::Cord),
        },
        Point {
            name: "write_bw.1m.zc",
            leg: "zc",
            spec: large.clone(),
        },
        Point {
            name: "write_bw.1m.nozc",
            leg: "nozc",
            spec: large.knobs(EmuKnobs::no_zero_copy()),
        },
    ]
}

fn p2p_fabric(seed: u64) -> Fabric {
    Fabric::builder(system_l()).seed(seed).build()
}

fn p2p_run(size: Size, seed: u64, b: &mut Batch) {
    let machine = system_l();
    // Host seconds and message counts per leg.
    let mut host: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for p in p2p_points(size) {
        let span = b.rec.open(format!("perftest.{}", p.name));
        let h0 = Heap::now();
        let fabric = p2p_fabric(seed);
        let t0 = Instant::now();
        let m = run_on(&fabric, p.spec.clone());
        let stats = fabric.sim().stats();
        drop(fabric);
        let t1 = Instant::now();
        let measured = if p.spec.op.is_latency() {
            (m.lat_avg_us, m.lat_p99_us)
        } else {
            (m.bw_gbps, m.elapsed_us)
        };
        let iters = m.iters;
        let digest = fnv(&format!("{m:?}"));
        drop(m);
        b.leak_bytes += Heap::now().live() - h0.live();
        b.rec.close(span, sim_counters(&stats));
        b.add_sim(&stats);
        b.wall_s += secs(t0, t1);
        b.attempted += p.msgs();
        b.payload_bytes += p.msgs() as f64 * p.spec.size as f64;
        let e = host.entry(p.leg).or_default();
        e.0 += secs(t0, t1);
        e.1 += p.msgs() as f64;
        let name = p.name;
        if p.spec.op.is_latency() {
            b.out(format!("{name}.lat_avg_us"), measured.0);
            b.out(format!("{name}.lat_p99_us"), measured.1);
        } else {
            b.out(format!("{name}.bw_gbps"), measured.0);
            b.out(format!("{name}.elapsed_us"), measured.1);
        }
        b.out(format!("{name}.digest"), digest);
        let value = measured.0;
        b.check(
            value.is_finite() && value > 0.0 && iters == p.spec.iters,
            || format!("perftest {name}: degenerate measurement ({value}, {iters} iterations)"),
        );
    }
    let per = |leg: &str| host.get(leg).map_or(0.0, |&(s, n)| s / n);
    let bypass = per("bypass") * 1e9;
    let cord = per("cord") * 1e9;
    b.add_layer("verbs.host_ns_per_msg.bypass", bypass);
    b.add_layer("verbs.host_ns_per_msg.cord", cord);
    b.add_layer("kern.cord_host_ns_per_msg", cord - bypass);
    let mib = 1usize << 20;
    let pkts_per_msg = machine.fragments(mib) as f64;
    b.add_layer("nic.host_ns_per_pkt", per("zc") * 1e9 / pkts_per_msg);
    b.add_layer(
        "copy.host_ns_per_byte",
        (per("nozc") - per("zc")) * 1e9 / mib as f64,
    );
}

fn p2p_setup(size: Size, seed: u64, rec: &mut Recorder) -> Setup {
    let mut s = Setup::default();
    for p in p2p_points(size) {
        let t0 = Instant::now();
        let fabric = p2p_fabric(seed);
        let t1 = Instant::now();
        let f = fabric.clone();
        let spec = p.spec.clone();
        fabric.block_on(async move {
            setup_pair(&f, &spec).await;
        });
        let t2 = Instant::now();
        rec.record("fabric.build", t0, t1, Vec::new());
        rec.record(
            "verbs.setup_pair",
            t1,
            t2,
            sim_counters(&fabric.sim().stats()),
        );
        s.add(secs(t0, t1), secs(t1, t2));
    }
    s
}

// ----------------------------------------------------------- npb-transports

/// Each transport with its label and the layer metric its legs add to.
const TRANSPORTS: [(MpiTransport, &str, &str); 3] = [
    (
        MpiTransport::Verbs(Dataplane::Bypass),
        "bypass",
        "mpi.wall_s.bypass",
    ),
    (
        MpiTransport::Verbs(Dataplane::Cord),
        "cord",
        "mpi.wall_s.cord",
    ),
    (MpiTransport::Ipoib, "ipoib", "mpi.wall_s.ipoib"),
];

/// `(benchmarks, class, ranks)`.
fn npb_shape(size: Size) -> ([Bench; 2], Class, usize) {
    match size {
        Size::Full => ([Bench::Mg, Bench::Cg], Class::A, 16),
        Size::Tiny => ([Bench::Mg, Bench::Cg], Class::S, 4),
    }
}

fn npb_fabric(transport: MpiTransport, seed: u64) -> Fabric {
    let builder = Fabric::builder(system_a()).seed(seed);
    match transport {
        MpiTransport::Ipoib => builder.with_ipoib().build(),
        _ => builder.build(),
    }
}

/// Output key prefix of one leg.
fn leg_key(bench: Bench, class: Class, ranks: usize, transport: &str) -> String {
    format!(
        "npb.{}.{}.{ranks}.{transport}",
        bench.label(),
        class.label()
    )
}

/// What one NPB leg reports: the fields of `cord_npb::BenchResult`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LegResult {
    runtime_us: f64,
    gbit_per_rank: f64,
    msgs_per_rank_s: f64,
}

fn npb_run(size: Size, seed: u64, b: &mut Batch) {
    let (benches, class, ranks) = npb_shape(size);
    for bench in benches {
        for (transport, tname, metric) in TRANSPORTS {
            let leg = b.rec.open(format!("npb.{}.{tname}", bench.label()));
            let r = npb_leg(bench, class, ranks, (transport, metric), seed, b);
            b.rec.close(leg, Vec::new());
            let key = leg_key(bench, class, ranks, tname);
            b.out(format!("{key}.runtime_us"), r.runtime_us);
            b.out(format!("{key}.gbit_per_rank"), r.gbit_per_rank);
            b.out(format!("{key}.msgs_per_rank_s"), r.msgs_per_rank_s);
            b.check(r.runtime_us.is_finite() && r.runtime_us > 0.0, || {
                format!("{key}: leg did not finish ({r:?})")
            });
        }
    }
}

/// One (kernel, transport) leg, step for step as `cord_npb::run_benchmark`
/// runs it, with host-clock marks between fabric build, connection
/// set-up and the iterations. The marks only read the clock, so the
/// simulation runs exactly as it would without them.
fn npb_leg(
    bench: Bench,
    class: Class,
    want_ranks: usize,
    (transport, metric): (MpiTransport, &'static str),
    seed: u64,
    b: &mut Batch,
) -> LegResult {
    let nranks = bench.ranks_near(want_ranks);
    let iters = bench.default_iters(class);
    let connected = Rc::new(Cell::new(None));
    let h0 = Heap::now();
    let t0 = Instant::now();
    let fabric = npb_fabric(transport, seed);
    let t1 = Instant::now();
    fabric.sim().set_max_polls(0);
    let mark = connected.clone();
    let f2 = fabric.clone();
    let (runtime_us, bytes, msgs, total) = fabric.block_on(async move {
        let comms = create_world(&f2, nranks, transport).await;
        mark.set(Some(Instant::now()));
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
        let total = comms.iter().fold((0u64, 0u64), |(b, m), c| {
            let (cb, cm) = c.traffic();
            (b + cb, m + cm)
        });
        (runtime, bytes, msgs, total)
    });
    let stats = fabric.sim().stats();
    let (tx, rx) = if fabric.has_ipoib() {
        (0..fabric.nodes()).fold((0, 0), |(t, r), n| {
            let (nt, nr) = fabric.ipoib(n).counters();
            (t + nt, r + nr)
        })
    } else {
        (0, 0)
    };
    drop(fabric);
    let t3 = Instant::now();
    b.leak_bytes += Heap::now().live() - h0.live();
    let t2 = connected
        .get()
        .expect("create_world returned before the run ended");

    b.rec.record("fabric.build", t0, t1, Vec::new());
    b.rec.record("mpi.create_world", t1, t2, Vec::new());
    let mut at_end = sim_counters(&stats);
    at_end.extend([
        ("ipoib.tx_pkts", tx as f64),
        ("ipoib.rx_pkts", rx as f64),
        ("mpi.bytes", total.0 as f64),
        ("mpi.msgs", total.1 as f64),
    ]);
    b.rec.record("npb.iterate", t2, t3, at_end);

    let run_s = secs(t2, t3);
    b.wall_s += run_s;
    b.add_sim(&stats);
    b.attempted += (nranks * (iters + 1)) as u64;
    b.payload_bytes += total.0 as f64;
    b.add_layer("ipoib.tx_pkts", tx as f64);
    b.add_layer("ipoib.rx_pkts", rx as f64);
    b.add_layer("mpi.bytes", total.0 as f64);
    b.add_layer("mpi.msgs", total.1 as f64);
    // The whole leg, set-up included; `ipoib.wall_s` is the run alone.
    b.add_layer(metric, secs(t0, t3));
    if transport == MpiTransport::Ipoib {
        b.add_layer("ipoib.wall_s", run_s);
    }

    let secs_v = runtime_us / 1e6;
    LegResult {
        runtime_us,
        gbit_per_rank: (bytes as f64 * 8.0 / nranks as f64) / secs_v / 1e9,
        msgs_per_rank_s: (msgs as f64 / nranks as f64) / secs_v,
    }
}

/// Check every leg of the last batch against `cord_npb::run_benchmark` on
/// the same inputs. Returns the failures.
pub fn npb_reference(size: Size, seed: u64, outputs: &[(String, String)]) -> Vec<String> {
    let (benches, class, ranks) = npb_shape(size);
    let mut failures = Vec::new();
    for bench in benches {
        for (transport, tname, _) in TRANSPORTS {
            let r = run_benchmark(system_a(), bench, class, ranks, transport, seed);
            let key = leg_key(bench, class, ranks, tname);
            for (field, v) in [
                ("runtime_us", r.runtime_us),
                ("gbit_per_rank", r.gbit_per_rank),
                ("msgs_per_rank_s", r.msgs_per_rank_s),
            ] {
                let k = format!("{key}.{field}");
                let want = format!("{v:?}");
                match outputs.iter().find(|(ok, _)| *ok == k) {
                    Some((_, got)) if *got == want => {}
                    got => failures.push(format!(
                        "{k}: run_benchmark gives {want}, benchmark leg gave {:?}",
                        got.map(|(_, g)| g)
                    )),
                }
            }
        }
    }
    failures
}

fn npb_setup(size: Size, seed: u64, rec: &mut Recorder) -> Setup {
    let (benches, _, ranks) = npb_shape(size);
    let mut s = Setup::default();
    for bench in benches {
        for (transport, _, _) in TRANSPORTS {
            let nranks = bench.ranks_near(ranks);
            let t0 = Instant::now();
            let fabric = npb_fabric(transport, seed);
            let t1 = Instant::now();
            let f2 = fabric.clone();
            fabric.block_on(async move {
                create_world(&f2, nranks, transport).await;
            });
            let t2 = Instant::now();
            rec.record("fabric.build", t0, t1, Vec::new());
            rec.record(
                "mpi.create_world",
                t1,
                t2,
                sim_counters(&fabric.sim().stats()),
            );
            s.add(secs(t0, t1), secs(t1, t2));
        }
    }
    s
}

// ------------------------------------------------------- fabric scenarios

fn scenario_scale(size: Size, seed: u64, setup: bool, tenants: usize, requests: usize) -> Scale {
    let (nodes, tenants, requests) = match size {
        Size::Full => (16, tenants, requests),
        Size::Tiny => (4, 4, 4),
    };
    Scale {
        nodes,
        tenants,
        // Set-up is timed on the same spec with one request per tenant.
        requests: if setup { 1 } else { requests },
        seed,
        ..Scale::default()
    }
}

/// `scenarios::incast` with DCQCN on its default fat tree.
pub fn incast_spec(size: Size, seed: u64, setup: bool) -> ScenarioSpec {
    scenarios::incast(Scale {
        cc: Some(CcAlgorithm::Dcqcn),
        ..scenario_scale(size, seed, setup, 32, 1200)
    })
}

/// `scenarios::spray_incast`: lossy small-buffer fat tree, per-packet
/// spray, selective repeat, sized as simbench's `lossy-retx-spray`.
/// Sustained longer, the overload legitimately exhausts the retry budget
/// of some QPs at some seeds (16 tenants × 1500 requests: two QPs at seed
/// 110); 16 × 600 completed at every one of 64 seeds tried.
pub fn spray_spec(size: Size, seed: u64, setup: bool) -> ScenarioSpec {
    scenarios::spray_incast(scenario_scale(size, seed, setup, 16, 600))
}

fn scenario_run(spec: &ScenarioSpec, b: &mut Batch) {
    let span = b.rec.open("workload.run_scenario_full");
    let h0 = Heap::now();
    let t0 = Instant::now();
    let out = run_scenario_full(spec, RunOptions::default());
    let t1 = Instant::now();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            b.rec.close(span, Vec::new());
            b.failures.push(format!("{}: rejected: {e}", spec.name));
            return;
        }
    };
    let r = &out.report;
    let f = r.fabric.unwrap_or(cord_workload::FabricCounters {
        pfc: false,
        rc_retx: false,
        routing: spec.routing,
        retx_mode: spec.retx_mode,
        buffer_bytes: None,
        net_drops: 0,
        net_pauses: 0,
        net_pause_ms: 0.0,
        retx_replays: 0,
        retx_exhausted: 0,
    });
    let issued: u64 = r.tenants.iter().map(|t| t.issued).sum();
    let bytes: u64 = r.tenants.iter().map(|t| t.bytes_moved).sum();
    let (virtual_ms, completed, dropped, goodput) = (
        r.elapsed_ms,
        r.total_completed,
        r.total_dropped,
        r.total_goodput_gbps,
    );
    let digest = fnv(&format!("{r:?}"));
    let sim = out.core.sim;
    drop(out);
    b.leak_bytes += Heap::now().live() - h0.live();
    let mut at_end = sim_counters(&sim);
    at_end.extend([
        ("workload.issued", issued as f64),
        ("workload.completed", completed as f64),
        ("net.drops", f.net_drops as f64),
        ("retx.replays", f.retx_replays as f64),
    ]);
    b.rec.close(span, at_end);

    b.wall_s += secs(t0, t1);
    b.add_sim(&sim);
    b.attempted += issued;
    b.payload_bytes += bytes as f64;
    b.add_layer("workload.issued", issued as f64);
    b.add_layer("workload.completed", completed as f64);
    b.add_layer("net.drops", f.net_drops as f64);
    b.add_layer("net.pauses", f.net_pauses as f64);
    b.add_layer("retx.replays", f.retx_replays as f64);
    b.add_layer("retx.exhausted", f.retx_exhausted as f64);

    let name = &spec.name;
    b.out(format!("{name}.virtual_ms"), virtual_ms);
    b.out(format!("{name}.completed"), completed);
    b.out(format!("{name}.goodput_gbps"), goodput);
    b.out(format!("{name}.net_drops"), f.net_drops);
    b.out(format!("{name}.retx_replays"), f.retx_replays);
    b.out(format!("{name}.digest"), digest);

    let want: u64 = spec.tenants.iter().map(|t| t.requests as u64).sum();
    b.check(issued == want, || {
        format!("{name}: issued {issued} of {want} requests")
    });
    b.check(completed == issued, || {
        format!("{name}: completed {completed} of {issued} requests")
    });
    b.check(dropped == 0, || {
        format!("{name}: {dropped} requests refused")
    });
    b.check(f.retx_exhausted == 0, || {
        format!("{name}: {} QPs exhausted their retries", f.retx_exhausted)
    });
}

/// The fabric `run_scenario_full` builds for `spec`.
fn scenario_fabric(spec: &ScenarioSpec) -> Fabric {
    let mut machine = spec.machine.clone();
    machine.nodes = spec.nodes;
    let mut net = NetConfig::for_topology(spec.topology);
    if let Some(bytes) = spec.buffer_bytes {
        net.buffer_bytes = bytes;
    }
    net.routing = spec.routing;
    net.pfc.enabled = spec.pfc && spec.topology != Topology::FullMesh;
    Fabric::builder(machine).seed(spec.seed).net(net).build()
}

/// `run_scenario_full` does not separate set-up from the run, so set-up
/// is the whole run of a one-request-per-tenant spec; the fabric build
/// inside it is timed on its own beforehand.
fn scenario_setup(spec: &ScenarioSpec, rec: &mut Recorder) -> Setup {
    let t0 = Instant::now();
    drop(scenario_fabric(spec));
    let t1 = Instant::now();
    let out = run_scenario_full(spec, RunOptions::default());
    let t2 = Instant::now();
    rec.record("fabric.build", t0, t1, Vec::new());
    let counters = out.map(|o| sim_counters(&o.core.sim)).unwrap_or_default();
    rec.record("workload.run_scenario_full.setup", t1, t2, counters);
    let build = secs(t0, t1);
    Setup {
        build_s: build,
        connect_s: (secs(t1, t2) - build).max(0.0),
    }
}

/// FNV-1a, 64-bit: a stable digest of a value's full `Debug` rendering.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
