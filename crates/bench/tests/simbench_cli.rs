//! The `simbench` binary end to end: it refuses options it no longer
//! has, fails loudly when a result cannot be written, and writes a
//! digest that passes the perf gate against the committed baseline.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cord_bench::gate::check_digests;

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("simbench_cli_{name}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn simbench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("simbench starts")
}

#[test]
fn unwritable_digest_fails_the_run() {
    let dir = workdir("unwritable");
    // A directory where the digest file should go.
    std::fs::create_dir_all(dir.join("results/simbench_digest.txt")).unwrap();
    let out = simbench(&dir, &["kv-fanout"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}", out.status);
    assert!(stderr.contains("results/simbench_digest.txt"), "{stderr}");
}

#[test]
fn retired_options_print_usage() {
    let dir = workdir("usage");
    for args in [&["--quick"][..], &["--label", "x"]] {
        let out = simbench(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr.contains("usage: simbench"), "{args:?}: {stderr}");
    }
}

#[test]
fn kv_fanout_digest_passes_the_gate() {
    let dir = workdir("kv_fanout");
    let out = simbench(&dir, &["kv-fanout"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = std::fs::read_to_string(dir.join("results/simbench_digest.txt")).unwrap();
    let baseline = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/simbench_baseline_digest.txt"),
    )
    .unwrap();
    let line = baseline
        .lines()
        .find(|l| l.starts_with("kv-fanout "))
        .expect("baseline has a kv-fanout line");
    check_digests(line, &digest, 0.10).unwrap_or_else(|v| panic!("{v:#?}"));
}
