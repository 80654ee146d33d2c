//! The CI perf-regression gate over simbench digests.
//!
//! A digest line looks like
//!
//! ```text
//! incast-dcqcn virtual_ms=5.14 polls=122315 timer_fires=217002 completed=1920 goodput_gbps=97.9
//! ```
//!
//! with optional trailing fabric counters (`drops=… pauses=… …`). Fields
//! split into two classes:
//!
//! * **Semantic fields** (everything except `polls`/`timer_fires`) pin
//!   simulation *semantics* — virtual time, completions, goodput, loss
//!   and pause counters. They are compared **byte-exactly** against the
//!   committed baseline: any difference means results changed, which is
//!   never an acceptable side effect of a perf PR.
//! * **Perf fields** (`polls`, `timer_fires`) measure executor work per
//!   run. They are deterministic for a given build but move when the
//!   implementation changes; the gate allows improvements and up to
//!   `tolerance` (default +10 %) regression before failing.
//!
//! To refresh the baseline after an intentional change:
//!
//! ```text
//! cargo run --release --bin simbench && cp results/simbench_digest.txt results/simbench_baseline_digest.txt
//! ```
//!
//! The gate counts work, never wall time; wall-clock numbers come from
//! perfbench's repeated, host-stamped runs.

/// One parsed digest line.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestLine {
    pub bench: String,
    /// The byte-exact part: every `key=value` token except the perf ones,
    /// joined in original order.
    pub semantic: String,
    pub polls: u64,
    pub timer_fires: u64,
}

/// Parse a digest file into per-bench lines.
pub fn parse_digest(text: &str) -> Result<Vec<DigestLine>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let bench = tokens
            .next()
            .ok_or_else(|| format!("line {}: empty", ln + 1))?
            .to_string();
        let (mut polls, mut fires) = (None, None);
        let mut semantic = Vec::new();
        for tok in tokens {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("line {}: malformed token {tok:?}", ln + 1))?;
            let parse = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("line {}: bad {key} value {v:?}", ln + 1))
            };
            match key {
                "polls" => polls = Some(parse(value)?),
                "timer_fires" => fires = Some(parse(value)?),
                _ => semantic.push(tok),
            }
        }
        out.push(DigestLine {
            semantic: semantic.join(" "),
            polls: polls.ok_or_else(|| format!("line {}: missing polls", ln + 1))?,
            timer_fires: fires.ok_or_else(|| format!("line {}: missing timer_fires", ln + 1))?,
            bench,
        });
    }
    if out.is_empty() {
        return Err("digest is empty".into());
    }
    Ok(out)
}

/// Compare a freshly produced digest against the committed baseline.
/// Returns the list of violations (empty = gate passes). `tolerance` is
/// the fractional perf regression allowed (0.10 = +10 %).
pub fn check_digests(baseline: &str, current: &str, tolerance: f64) -> Result<(), Vec<String>> {
    let parse = |name: &str, text: &str| {
        parse_digest(text).map_err(|e| vec![format!("{name} digest: {e}")])
    };
    let base = parse("baseline", baseline)?;
    let cur = parse("current", current)?;
    let mut violations = Vec::new();
    for b in &base {
        let Some(c) = cur.iter().find(|c| c.bench == b.bench) else {
            violations.push(format!("bench {} missing from current digest", b.bench));
            continue;
        };
        if c.semantic != b.semantic {
            violations.push(format!(
                "{}: semantic fields changed (simulation results drifted)\n  baseline: {}\n  current:  {}",
                b.bench, b.semantic, c.semantic
            ));
        }
        for (what, base_v, cur_v) in [
            ("polls", b.polls, c.polls),
            ("timer_fires", b.timer_fires, c.timer_fires),
        ] {
            let limit = (base_v as f64 * (1.0 + tolerance)).floor() as u64;
            if cur_v > limit {
                violations.push(format!(
                    "{}: {what} regressed {:.1}% ({base_v} -> {cur_v}, limit {limit})",
                    b.bench,
                    (cur_v as f64 / base_v as f64 - 1.0) * 100.0,
                ));
            }
        }
    }
    for c in &cur {
        if !base.iter().any(|b| b.bench == c.bench) {
            violations.push(format!(
                "bench {} not in baseline — refresh it (see module docs)",
                c.bench
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "\
kv virtual_ms=0.79 polls=679048 timer_fires=852055 completed=19200 goodput_gbps=137.5
lossy virtual_ms=9.1 polls=100000 timer_fires=200000 completed=4800 goodput_gbps=30.2 drops=35299 pauses=0 pause_ms=0 retx=6488
";

    #[test]
    fn parses_perf_and_semantic_fields() {
        let lines = parse_digest(BASE).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].bench, "kv");
        assert_eq!(lines[0].polls, 679048);
        assert_eq!(lines[0].timer_fires, 852055);
        assert_eq!(
            lines[0].semantic,
            "virtual_ms=0.79 completed=19200 goodput_gbps=137.5"
        );
        // Fabric counters are semantic (byte-exact), not perf.
        assert!(lines[1].semantic.contains("drops=35299"));
        assert!(lines[1].semantic.contains("retx=6488"));
    }

    #[test]
    fn identical_digests_pass() {
        assert!(check_digests(BASE, BASE, 0.10).is_ok());
    }

    #[test]
    fn perf_improvements_and_small_regressions_pass() {
        let better = BASE
            .replace("polls=679048", "polls=500000")
            .replace("timer_fires=852055", "timer_fires=900000"); // +5.6%
        assert!(check_digests(BASE, &better, 0.10).is_ok());
    }

    #[test]
    fn injected_twenty_percent_timer_fire_regression_fails() {
        // The acceptance experiment: +20% timer fires must trip the gate.
        let worse = BASE.replace("timer_fires=852055", "timer_fires=1022466");
        let errs = check_digests(BASE, &worse, 0.10).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("timer_fires regressed 20.0%"), "{errs:?}");
    }

    #[test]
    fn semantic_drift_fails_byte_exactly() {
        // A one-ulp goodput change is a semantics failure, not perf.
        let drifted = BASE.replace("goodput_gbps=137.5", "goodput_gbps=137.50001");
        let errs = check_digests(BASE, &drifted, 0.10).unwrap_err();
        assert!(errs[0].contains("semantic fields changed"), "{errs:?}");
        // So is a change in the loss-recovery counters.
        let drifted = BASE.replace("retx=6488", "retx=6500");
        assert!(check_digests(BASE, &drifted, 0.10).is_err());
    }

    #[test]
    fn bench_set_mismatches_fail() {
        let missing = BASE.lines().next().unwrap().to_string() + "\n";
        let errs = check_digests(BASE, &missing, 0.10).unwrap_err();
        assert!(errs[0].contains("missing from current"), "{errs:?}");
        let extra = format!("{BASE}new virtual_ms=1 polls=1 timer_fires=1\n");
        let errs = check_digests(BASE, &extra, 0.10).unwrap_err();
        assert!(errs[0].contains("not in baseline"), "{errs:?}");
    }

    #[test]
    fn malformed_digests_are_rejected() {
        assert!(parse_digest("").is_err());
        assert!(parse_digest("kv virtual_ms=1").is_err(), "missing perf");
        assert!(parse_digest("kv polls=x timer_fires=1").is_err());
    }
}
