//! Self-test of the benchmark at tiny scale:
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Every workload, traced and untraced, must print every named metric
//! with its unit and report no failed operation; a deliberately altered
//! recorded value must be reported as a failure, so the correctness
//! check is shown to bite.

use std::process::Command;

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

const WORKLOADS: [&str; 4] = ["p2p-verbs", "npb-transports", "fabric-incast", "spray-sr"];

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    line: String,
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + key.len()
        + 3;
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line").to_string();
    Outcome {
        correct: field(&line, "correct") == "true",
        attempted: field(&line, "attempted").parse().expect("attempted"),
        failed: field(&line, "failed").parse().expect("failed"),
        line,
    }
}

fn assert_metrics(r: &Outcome, names: &[(&str, &str)]) {
    for (name, unit) in names {
        let at = r
            .line
            .find(&format!("\"{name}\":{{\"value\":"))
            .unwrap_or_else(|| panic!("{name} missing from {}", r.line));
        let rest = &r.line[at..];
        let entry = &rest[..rest.find('}').expect("closed entry") + 1];
        assert!(
            entry.ends_with(&format!("\"unit\":\"{unit}\"}}")),
            "{name} printed without unit {unit}: {entry}"
        );
    }
    assert_eq!(
        r.line.matches("\"value\":").count(),
        names.len(),
        "exactly the named metrics"
    );
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for (trace, names) in [
            ("0", &metrics::END_TO_END[..]),
            ("1", &metrics::PER_LAYER[..]),
        ] {
            let r = run(w, trace, &[]);
            assert!(r.correct && r.failed == 0, "{w} trace {trace}: {}", r.line);
            assert!(r.attempted > 0, "{w}: nothing attempted");
            assert_metrics(&r, names);
        }
    }
}

#[test]
fn an_altered_recorded_value_is_a_failure() {
    for w in WORKLOADS {
        let r = run(w, "0", &["--tamper"]);
        assert!(!r.correct, "{w}: tampered value passed: {}", r.line);
        // One altered value, caught once per batch.
        assert!(r.failed >= 1, "{w}: {}", r.line);
    }
}

#[test]
fn benchmark_json_names_the_same_metrics() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(
        listed,
        metrics::END_TO_END.len() + metrics::PER_LAYER.len(),
        "BENCHMARK.json lists a metric the benchmark does not print"
    );
}

#[test]
fn a_bad_flag_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
