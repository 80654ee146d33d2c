//! `perfgate` — the CI perf-regression gate over simbench digests.
//!
//! ```text
//! cargo run --release --bin simbench
//! cargo run --release --bin perfgate
//! ```
//!
//! Compares `results/simbench_digest.txt` (the digest simbench just
//! produced) against the committed `results/simbench_baseline_digest.txt`:
//! semantic fields (virtual time, completions, goodput, drop/pause/retx
//! counters) must match byte-exactly; `polls`/`timer_fires` may improve
//! freely but fail the gate when they regress more than 10 %.
//!
//! Baseline refresh (one line, after an intentional perf/semantic change):
//!
//! ```text
//! cargo run --release --bin simbench && cp results/simbench_digest.txt results/simbench_baseline_digest.txt
//! ```

use cord_bench::gate::check_digests;

const TOLERANCE: f64 = 0.10;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut current = String::from("results/simbench_digest.txt");
    let mut baseline = String::from("results/simbench_baseline_digest.txt");
    while let Some(flag) = args.next() {
        let value = args.next();
        match (flag.as_str(), value) {
            ("--current", Some(v)) => current = v,
            ("--baseline", Some(v)) => baseline = v,
            _ => {
                eprintln!("usage: perfgate [--current <digest>] [--baseline <digest>]");
                std::process::exit(2);
            }
        }
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfgate: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let (base, cur) = (read(&baseline), read(&current));
    match check_digests(&base, &cur, TOLERANCE) {
        Ok(()) => {
            println!(
                "perfgate: OK — semantics byte-exact, perf within +{:.0}% tolerance",
                TOLERANCE * 100.0
            );
            println!("perfgate: {}", cur.trim_end().replace('\n', "\nperfgate: "));
        }
        Err(violations) => {
            eprintln!("perfgate: FAILED ({} violation(s))", violations.len());
            for v in &violations {
                eprintln!("  - {v}");
            }
            eprintln!(
                "refresh after an intentional change:\n  cargo run --release --bin simbench && cp {current} {baseline}"
            );
            std::process::exit(1);
        }
    }
}
