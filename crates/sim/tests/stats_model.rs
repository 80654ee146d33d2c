//! Property tests for `cord_sim::stats` against naive reference models.
//!
//! The histogram and the bimodality splitter both trade exactness for
//! O(1) memory; these tests pin *how much* they trade. Each property
//! draws randomized sample sets from [`DetRng`] streams (seeded, so
//! failures replay exactly) and compares against the obvious
//! store-everything model: a sorted `Vec` for quantiles.

use cord_sim::stats::{split_modes, Histogram};
use cord_sim::DetRng;

/// The reference quantile: the same definition the histogram uses
/// (`ceil(q·n)`-th order statistic), computed on the sorted samples.
fn naive_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    if q <= 0.0 {
        return sorted[0];
    }
    if q >= 1.0 {
        return *sorted.last().unwrap();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One randomized sample set per distribution shape the simulator
/// actually records: uniform (bytes), lognormal (latency), exponential
/// (inter-arrivals), and a bimodal small/large message mix.
fn sample_sets(seed: u64, n: usize) -> Vec<(&'static str, Vec<u64>)> {
    let rng = DetRng::from_seed(seed);
    let uniform = (0..n).map(|_| rng.uniform_range(1, 1 << 20)).collect();
    let lognormal = (0..n).map(|_| rng.lognormal(10.0, 1.5) as u64).collect();
    let exponential = (0..n).map(|_| rng.exponential(50_000.0) as u64).collect();
    let bimodal = (0..n)
        .map(|_| {
            if rng.uniform() < 0.5 {
                rng.uniform_range(100, 200)
            } else {
                rng.uniform_range(1_000_000, 2_000_000)
            }
        })
        .collect();
    vec![
        ("uniform", uniform),
        ("lognormal", lognormal),
        ("exponential", exponential),
        ("bimodal", bimodal),
    ]
}

#[test]
fn histogram_quantiles_track_the_sorted_model() {
    for seed in [1, 42, 0xC0BD, 7_777_777] {
        for (name, xs) in sample_sets(seed, 2000) {
            let mut h = Histogram::new();
            let mut sorted = xs.clone();
            for &x in &xs {
                h.record(x);
            }
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let exact = naive_quantile(&sorted, q);
                let approx = h.quantile(q);
                let err = (approx as f64 - exact as f64).abs();
                assert!(
                    err <= exact as f64 * 0.04 + 1.0,
                    "{name}/seed={seed} q={q}: approx={approx} exact={exact}"
                );
            }
        }
    }
}

#[test]
fn histogram_count_min_max_mean_are_exact() {
    for seed in [3, 99] {
        for (name, xs) in sample_sets(seed, 1500) {
            let mut h = Histogram::new();
            for &x in &xs {
                h.record(x);
            }
            let naive_mean = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
            assert_eq!(h.count(), xs.len() as u64, "{name}");
            assert_eq!(h.min(), *xs.iter().min().unwrap(), "{name}");
            assert_eq!(h.max(), *xs.iter().max().unwrap(), "{name}");
            // The sum is tracked exactly (u128), so the mean is exact up
            // to the final division.
            assert!(
                (h.mean() - naive_mean).abs() <= naive_mean.abs() * 1e-12,
                "{name}: {} vs {naive_mean}",
                h.mean()
            );
        }
    }
}

/// Merging shards must be indistinguishable from recording everything
/// into one histogram — the property the parallel sweeps rely on.
#[test]
fn histogram_merge_equals_single_stream() {
    let rng = DetRng::from_seed(0xFEED);
    let xs: Vec<u64> = (0..3000).map(|_| rng.uniform_range(1, 1 << 40)).collect();
    let mut whole = Histogram::new();
    let mut shards = vec![Histogram::new(), Histogram::new(), Histogram::new()];
    for &x in &xs {
        whole.record(x);
        shards[rng.uniform_range(0, 3) as usize].record(x);
    }
    let mut merged = Histogram::new();
    for s in &shards {
        merged.merge(s);
    }
    assert_eq!(merged.count(), whole.count());
    assert_eq!(merged.min(), whole.min());
    assert_eq!(merged.max(), whole.max());
    for q in [0.1, 0.5, 0.9, 0.99] {
        assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
    }
}

/// 2-means invariants on arbitrary randomized input: the split conserves
/// samples, orders its centroids, and brackets them by the data range.
#[test]
fn mode_split_invariants_hold_on_random_input() {
    for seed in [5, 23, 0xD00D] {
        for (name, xs) in sample_sets(seed, 800) {
            let xs: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
            let m = split_modes(&xs).unwrap();
            assert_eq!(m.low_count + m.high_count, xs.len(), "{name}");
            assert!(m.low_mean <= m.high_mean, "{name}");
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(m.low_mean >= lo && m.high_mean <= hi, "{name}");
            assert!(m.separation >= 0.0, "{name}");
        }
    }
}

/// The detector's judgment calls, on randomized draws: a well-separated
/// mixture reads bimodal, a single lognormal mode does not.
#[test]
fn mode_detection_separates_mixtures_from_single_modes() {
    for seed in [2, 77, 0x5EED] {
        let rng = DetRng::from_seed(seed);
        let mixture: Vec<f64> = (0..600)
            .map(|_| {
                if rng.uniform() < 0.4 {
                    1.0 + rng.normal() * 0.05
                } else {
                    9.0 + rng.normal() * 0.2
                }
            })
            .collect();
        let m = split_modes(&mixture).unwrap();
        assert!(m.is_bimodal(), "seed={seed}: separation {}", m.separation);
        assert!((m.low_mean - 1.0).abs() < 0.1, "seed={seed}");
        assert!((m.high_mean - 9.0).abs() < 0.3, "seed={seed}");

        let single: Vec<f64> = (0..600).map(|_| rng.lognormal(3.0, 0.3)).collect();
        let s = split_modes(&single).unwrap();
        assert!(!s.is_bimodal(), "seed={seed}: separation {}", s.separation);
    }
}
