//! Shared plumbing for the figure-harness binaries: table rendering,
//! result persistence under `results/`, an ordered parallel map over
//! independent simulations ([`par_map`]), the CI perf-regression gate
//! over simbench digests ([`gate`]), and the Chrome/Perfetto trace
//! exporter ([`perfetto`]).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use serde::Serialize;

pub mod gate;
pub mod perfetto;

/// Pretty-print a table with a header row.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// `results/<name>.<ext>`, creating `results/` if needed. Panics with the
/// path when the directory cannot be created: a harness must not exit 0
/// without its results.
pub fn results_path(name: &str, ext: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        panic!("cannot create {}: {e}", dir.display());
    }
    dir.join(format!("{name}.{ext}"))
}

/// Persist a machine-readable result file under `results/`, panicking
/// with the path if it cannot be serialized or written.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_path(name, "json");
    let s = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| panic!("cannot serialize {}: {e}", path.display()));
    if let Err(e) = fs::write(&path, s) {
        panic!("cannot write {}: {e}", path.display());
    }
    println!("[saved {}]", path.display());
}

/// Write `text` to `results/<name>.<ext>`, panicking with the path on
/// failure.
pub fn save_text(name: &str, ext: &str, text: &str) {
    let path = results_path(name, ext);
    if let Err(e) = fs::write(&path, text) {
        panic!("cannot write {}: {e}", path.display());
    }
    println!("[saved {}]", path.display());
}

/// Map `f` over `items` on up to `available_parallelism()` scoped threads,
/// returning the results in input order.
///
/// Workers pull the next index from a shared counter, so uneven items
/// balance out. Each call of `f` runs wholly on one worker thread: a
/// harness closure that builds, runs and drops its own single-threaded
/// `Sim` never shares an `Rc` or a waker across threads. A panic in `f`
/// is re-raised here with its original payload.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is mapped"))
        .collect()
}

/// Geometric sweep of message sizes `lo..=hi` (powers of two).
pub fn pow2_sizes(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = lo;
    while s <= hi {
        v.push(s);
        s *= 2;
    }
    v
}

/// Iteration count that keeps total transferred bytes bounded.
pub fn iters_for(size: usize, target_bytes: usize, lo: usize, hi: usize) -> usize {
    (target_bytes / size.max(1)).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_powers_of_two() {
        assert_eq!(pow2_sizes(16, 128), vec![16, 32, 64, 128]);
    }

    #[test]
    fn iters_clamp() {
        assert_eq!(iters_for(1, 1000, 10, 100), 100);
        assert_eq!(iters_for(10_000, 1000, 10, 100), 10);
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        for n in [0, 1, workers.saturating_sub(1).max(1), 50 * workers] {
            let items: Vec<usize> = (0..n).collect();
            let f = |&x: &usize| (x, x * x % 7);
            assert_eq!(
                par_map(&items, f),
                items.iter().map(f).collect::<Vec<_>>(),
                "{n} items"
            );
        }
    }

    #[test]
    fn par_map_runs_one_sim_per_item() {
        use cord_hw::system_l;
        use cord_perftest::{run_test, TestOp, TestSpec};
        let sizes = [16usize, 256, 4096];
        let run = |&size: &usize| {
            let spec = TestSpec::new(TestOp::SendLat).size(size).iters(8).warmup(1);
            format!("{:?}", run_test(system_l(), spec, 1))
        };
        assert_eq!(
            par_map(&sizes, run),
            sizes.iter().map(run).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_map_propagates_a_panic() {
        let items: Vec<u32> = (0..16).collect();
        let err = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert_ne!(x, 11, "item eleven fails");
                x
            })
        })
        .expect_err("the panic must reach the caller");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("item eleven fails"), "{msg}");
    }
}
