//! `perfbench` — host time of the simulator on four workloads that cover
//! the paper's three data paths (kernel bypass, CoRD, IPoIB) and two
//! fabric shapes (the lossless DCQCN fat tree and the lossy sprayed one).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fabric-incast --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The process given these flags is the parent: it runs batches of the
//! workload, each in a fresh child process (so peak memory is per batch
//! and one batch's leaks cannot inflate the next), until `--seconds` have
//! passed, then prints medians. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics from a
//! traced run with `--trace 1`. The line before it is a result row with
//! the host stamp and every sample.
//!
//! Simulated outputs are checked, not reported: at the default seed they
//! must equal the values recorded in `expected.rs`; at any seed every
//! request must complete and no QP may exhaust its retries; a traced run
//! must reproduce the untraced run's outputs byte for byte. Each mismatch
//! is a failed operation.

mod expected;
mod heap;
mod metrics;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use heap::Heap;
use trace::Recorder;
use workloads::{Batch, Size};

#[global_allocator]
static GLOBAL: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: perfbench --workload <p2p-verbs|npb-transports|fabric-incast|spray-sr> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--tamper]";

/// Batches the parent runs at least, so every figure is a median.
const MIN_BATCHES: usize = 3;
/// Set-up probes per untraced batch.
const SETUP_PROBES: usize = 3;
/// The parent starts no batch that could end past this.
const BUDGET: Duration = Duration::from_secs(150);
/// Steps of the calibration loop.
const CALIB_STEPS: u64 = 20_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    /// Alter one recorded value, to show the check catches it.
    tamper: bool,
    /// Run one batch in this process (the parent's child).
    batch: Option<usize>,
    /// Print the simulated outputs as an `expected.rs` table.
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: expected::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        size: Size::Full,
        tamper: false,
        batch: None,
        record: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--scale takes full or tiny, not {v}")),
                }
            }
            "--tamper" => args.tamper = true,
            "--batch" => args.batch = Some(value()?.parse().map_err(|e| format!("--batch: {e}"))?),
            "--record" => args.record = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        record(&args);
        return ExitCode::SUCCESS;
    }
    if let Some(index) = args.batch {
        batch(&args, index);
        return ExitCode::SUCCESS;
    }
    match drive(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Host nanoseconds of a fixed integer loop: a reader can tell a slower
/// host from slower code by whether this moved too.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..CALIB_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64
}

/// Compare `outputs` with the values recorded at the default seed.
fn check_expected(args: &Args, outputs: &[(String, String)]) -> Vec<String> {
    if args.seed != expected::DEFAULT_SEED {
        return Vec::new();
    }
    let table = expected::table(&args.workload, args.size);
    let mut failures = Vec::new();
    for (i, &(key, value)) in table.iter().enumerate() {
        let want = if args.tamper && i == 0 {
            format!("{value}1")
        } else {
            value.to_string()
        };
        match outputs.iter().find(|(k, _)| k == key) {
            Some((_, got)) if *got == want => {}
            Some((_, got)) => failures.push(format!("{key}: recorded {want}, got {got}")),
            None => failures.push(format!("{key}: recorded {want}, not produced")),
        }
    }
    for (key, got) in outputs {
        if !table.iter().any(|(k, _)| k == key) {
            failures.push(format!("{key}: produced {got}, nothing recorded"));
        }
    }
    failures
}

fn untraced_batch(args: &Args) -> Batch {
    let mut b = Batch::new(Recorder::new(false, String::new()));
    workloads::run(&args.workload, args.size, args.seed, &mut b);
    b
}

fn record(args: &Args) {
    let b = untraced_batch(args);
    for f in &b.failures {
        eprintln!("perfbench: invariant failed: {f}");
    }
    println!(
        "// {} / {} / seed {}",
        args.workload,
        args.size.label(),
        args.seed
    );
    for (k, v) in &b.outputs {
        println!("    ({k:?}, {v:?}),");
    }
}

/// One batch, run in the parent's child. Prints `key<TAB>value` lines.
fn batch(args: &Args, index: usize) {
    let (w, size, seed) = (args.workload.as_str(), args.size, args.seed);
    let calib_ns = calibrate();
    let u = untraced_batch(args);
    let peak_rss_mb = heap::peak_rss_mb();
    let mut failures = u.failures.clone();
    failures.extend(check_expected(args, &u.outputs));
    let mut attempted = u.attempted;
    println!("calib_ns\t{calib_ns}");
    println!("wall_s\t{}", u.wall_s);

    if !args.trace {
        println!("peak_rss_mb\t{peak_rss_mb}");
        for _ in 0..SETUP_PROBES {
            let mut rec = Recorder::new(false, String::new());
            let s = workloads::setup_probe(w, size, seed, &mut rec);
            println!("setup_s\t{}", s.total());
        }
    } else {
        let run_id = format!("{w}-{}-seed{seed}-batch{index}", size.label());
        let mut t = Batch::new(Recorder::new(true, run_id.clone()));
        let h2 = Heap::now();
        workloads::run(w, size, seed, &mut t);
        let heap_t = Heap::now().since(&h2);
        let setup = workloads::setup_probe(w, size, seed, &mut t.rec);
        attempted += t.attempted;
        // Observers never steer: the traced run must reproduce every
        // simulated output of the untraced one.
        for (traced, untraced) in t.outputs.iter().zip(&u.outputs) {
            if traced != untraced {
                failures.push(format!("traced {traced:?} != untraced {untraced:?}"));
            }
        }
        if t.outputs.len() != u.outputs.len() {
            failures.push("traced run produced a different set of outputs".into());
        }
        for (name, v) in layer_metrics(&t, &heap_t, setup, calib_ns, t.wall_s - u.wall_s) {
            println!("layer\t{name}\t{v}");
        }
        if let Err(e) = write_spans(&run_id, &t.rec) {
            eprintln!("perfbench: could not write the spans of {run_id}: {e}");
        }
    }
    if index == 0 && w == "npb-transports" {
        failures.extend(workloads::npb_reference(size, seed, &u.outputs));
    }
    println!("attempted\t{attempted}");
    for f in failures {
        println!("fail\t{}", f.replace(['\t', '\n'], " "));
    }
}

/// Write a traced batch's spans next to the executable, inside the build
/// directory: `<target>/release/perfbench-spans/spans-<run id>.json`.
fn write_spans(run_id: &str, rec: &Recorder) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or(std::io::ErrorKind::NotFound)?
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("spans-{run_id}.json")), rec.to_json())
}

/// Every per-layer metric, from the traced batch `t`.
fn layer_metrics(
    t: &Batch,
    heap_t: &Heap,
    setup: workloads::Setup,
    calib_ns: f64,
    overhead_s: f64,
) -> Vec<(&'static str, f64)> {
    let s = &t.sim;
    let by =
        |a: &[u64; cord_sim::Subsystem::COUNT], tag: cord_sim::Subsystem| a[tag as usize] as f64;
    let layer = |k: &str| t.layer.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let events = (s.polls + s.timer_fires) as f64;
    use cord_sim::Subsystem::*;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    out.extend([
        ("sim.polls", s.polls as f64),
        ("sim.timer_fires", s.timer_fires as f64),
        ("sim.timer_inserts", s.timer_inserts as f64),
        ("sim.timer_scan_steps", s.timer_scan_steps as f64),
        ("sim.spawns", s.spawns as f64),
        ("sim.wakers_created", s.wakers_created as f64),
        ("sim.ns_per_event", ratio(t.wall_s * 1e9, events)),
        ("nic.polls", by(&s.polls_by, NicEngine)),
        ("nic.timer_fires", by(&s.timer_fires_by, NicEngine)),
        ("switch.timer_fires", by(&s.timer_fires_by, SwitchPort)),
        ("cpu.timer_fires", by(&s.timer_fires_by, CpuBilling)),
        ("other.polls", by(&s.polls_by, Other)),
        ("other.timer_fires", by(&s.timer_fires_by, Other)),
        ("setup.fabric_build_s", setup.build_s),
        ("setup.connect_s", setup.connect_s),
        ("heap.allocs", heap_t.allocs as f64),
        ("heap.alloc_bytes", heap_t.alloc_bytes as f64),
        (
            "heap.alloc_bytes_per_payload_byte",
            ratio(heap_t.alloc_bytes as f64, t.payload_bytes),
        ),
        ("heap.live_after_teardown_bytes", t.leak_bytes as f64),
        (
            "ipoib.host_us_per_pkt",
            ratio(layer("ipoib.wall_s") * 1e6, layer("ipoib.tx_pkts")),
        ),
        (
            "retx.replays_per_completed",
            ratio(layer("retx.replays"), layer("workload.completed")),
        ),
        ("host.calib_ns", calib_ns),
        ("trace.overhead_s", overhead_s),
    ]);
    metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| (name, out.get(name).copied().unwrap_or_else(|| layer(name))))
        .collect()
}

/// What the parent keeps of one child's batch.
#[derive(Default)]
struct BatchReport {
    calib_ns: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    setup_s: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    layer: BTreeMap<String, f64>,
}

fn parse_batch(stdout: &str) -> Result<BatchReport, String> {
    let mut r = BatchReport::default();
    for line in stdout.lines() {
        let mut f = line.split('\t');
        let key = f.next().unwrap_or_default();
        let mut num = || -> Result<f64, String> {
            let v = f.next().ok_or_else(|| format!("bad batch line {line:?}"))?;
            v.parse()
                .map_err(|e| format!("bad batch line {line:?}: {e}"))
        };
        match key {
            "calib_ns" => r.calib_ns = num()?,
            "wall_s" => r.wall_s = num()?,
            "peak_rss_mb" => r.peak_rss_mb = num()?,
            "setup_s" => r.setup_s.push(num()?),
            "attempted" => r.attempted = num()? as u64,
            "fail" => r.failures.push(line["fail\t".len()..].to_string()),
            "layer" => {
                let name = f.next().unwrap_or_default().to_string();
                let v = f.next().unwrap_or_default();
                r.layer
                    .insert(name, v.parse().map_err(|e| format!("{line:?}: {e}"))?);
            }
            _ => return Err(format!("unexpected batch line {line:?}")),
        }
    }
    Ok(r)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(","))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run batches in child processes for `--seconds`, then print the result.
fn drive(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reports = Vec::new();
    loop {
        let t = Instant::now();
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--scale", args.size.label()])
            .args(["--batch", &reports.len().to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if args.tamper {
            cmd.arg("--tamper");
        }
        let out = cmd.output().map_err(|e| format!("batch process: {e}"))?;
        if !out.status.success() {
            return Err(format!("batch {} failed: {}", reports.len(), out.status));
        }
        reports.push(parse_batch(&String::from_utf8_lossy(&out.stdout))?);
        let took = t.elapsed();
        let elapsed = start.elapsed();
        let n = reports.len();
        if (n >= MIN_BATCHES && elapsed >= seconds) || elapsed + took > BUDGET {
            break;
        }
    }

    let col = |f: &dyn Fn(&BatchReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
    let walls = col(&|r| r.wall_s);
    let setups: Vec<f64> = reports.iter().flat_map(|r| r.setup_s.clone()).collect();
    let calib = median(&col(&|r| r.calib_ns));
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failures: Vec<&String> = reports.iter().flat_map(|r| &r.failures).collect();
    let failed = (failures.len() as u64).min(attempted);
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v: Vec<f64> = reports
                    .iter()
                    .map(|r| r.layer.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name, unit, median(&v))
            })
            .collect()
    } else {
        let rss = median(&col(&|r| r.peak_rss_mb));
        metrics::END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "wall_s" => median(&walls),
                    "setup_s" => median(&setups),
                    _ => rss,
                };
                (name, unit, v)
            })
            .collect()
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fails: Vec<String> = failures.iter().take(8).map(|f| json_str(f)).collect();
    println!(
        "{{\"row\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"scale\":{},\"batches\":{},\
\"host\":{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"calib_ns\":{}}},\
\"wall_s\":{},\"setup_s\":{},\"peak_rss_mb\":{},\"failures\":[{}]}}}}",
        json_str(&args.workload),
        args.seed,
        args.trace as u8,
        json_str(args.size.label()),
        reports.len(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_num(calib),
        json_list(&walls),
        json_list(&setups),
        json_list(&col(&|r| r.peak_rss_mb)),
        fails.join(","),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(","),
    );
    Ok(())
}
