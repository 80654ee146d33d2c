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
//! Exit status: 0 on a pass, 1 on violations, 2 on usage or read errors.
//! The pass report goes to stdout; a failed write of it (a closed pipe)
//! does not change the status.
//!
//! Baseline refresh (one line, after an intentional perf/semantic change):
//!
//! ```text
//! cargo run --release --bin simbench && cp results/simbench_digest.txt results/simbench_baseline_digest.txt
//! ```

use std::io::Write;

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
            // The verdict is the exit status: a reader that closed stdout
            // early (`perfgate | head -1`) must not turn a pass into a
            // failure, so a failed report write is ignored.
            let mut out = std::io::stdout().lock();
            let _ = writeln!(
                out,
                "perfgate: OK — semantics byte-exact, perf within +{:.0}% tolerance\nperfgate: {}",
                TOLERANCE * 100.0,
                cur.trim_end().replace('\n', "\nperfgate: ")
            );
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
