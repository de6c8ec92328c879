//! Complexity verification: the paper's per-element cost accounting.
//!
//! §4.2 states the CWS family's costs in units of uniform random variables
//! per `(element, hash)` pair — ICWS `O(5nD)`, PCWS `O(4nD)`, I²CWS time
//! `O(5nD)` — and §3/§4.1 give `O(C·ΣS·D)` for quantization vs
//! `O(Σ log(C·S)·D)` for active-index skipping. This module measures both
//! claims: linear scaling in `n` with the expected constant ordering for
//! the closed-form family, and the `C`-scaling split for the integer
//! algorithms.

use std::time::Instant;
use wmh_core::others::UpperBounds;
use wmh_core::{Algorithm, AlgorithmConfig};
use wmh_data::SynConfig;
use wmh_sets::WeightedSet;

/// Measured sketching time at one support size.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Algorithm name.
    pub algorithm: String,
    /// Nonzero elements per document `n`.
    pub n: usize,
    /// Seconds to sketch the batch.
    pub seconds: f64,
}

wmh_json::json_object!(ScalingPoint { algorithm, n, seconds });

/// Measure sketching time across support sizes `ns` (fixed `D`, fixed
/// document count) for the given algorithms.
///
/// # Panics
/// Panics on unbuildable algorithms.
#[must_use]
pub fn scaling_study(
    algorithms: &[Algorithm],
    ns: &[usize],
    d: usize,
    docs: usize,
    seed: u64,
) -> Vec<ScalingPoint> {
    let mut out = Vec::new();
    for &n in ns {
        let cfg = SynConfig {
            docs,
            features: (n * 50) as u64,
            density: 1.0 / 50.0,
            exponent: 3.0,
            scale: 0.24,
        };
        let ds = cfg.generate(seed).expect("valid config");
        let sets: Vec<WeightedSet> = ds.docs;
        let config = AlgorithmConfig {
            quantization_constant: 300.0,
            upper_bounds: Some(UpperBounds::from_sets(sets.iter()).expect("non-empty")),
            max_rejection_draws: 10_000_000,
            ccws_weight_scale: 10.0,
            ..AlgorithmConfig::default()
        };
        for &algo in algorithms {
            let sk = algo.build(seed, d, &config).expect("buildable");
            // Warm-up pass, then timed pass.
            for doc in sets.iter().take(2) {
                let _ = sk.sketch(doc);
            }
            let start = Instant::now();
            for doc in &sets {
                std::hint::black_box(sk.sketch(doc).expect("sketchable"));
            }
            out.push(ScalingPoint {
                algorithm: algo.name().to_owned(),
                n,
                seconds: start.elapsed().as_secs_f64(),
            });
        }
    }
    out
}

/// Least-squares slope of `seconds` against `n` normalized by the smallest
/// point — a unitless growth factor (≈ `max(n)/min(n)` for linear scaling).
#[must_use]
pub fn growth_factor(points: &[ScalingPoint], algorithm: &str) -> f64 {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.algorithm == algorithm)
        .map(|p| (p.n as f64, p.seconds))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert!(pts.len() >= 2, "need at least two scaling points");
    let (n0, t0) = pts[0];
    let (n1, t1) = pts[pts.len() - 1];
    (t1 / t0) / (n1 / n0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_family_scales_linearly_in_n() {
        // O(·nD): doubling n should ≈ double time; allow generous noise —
        // the growth factor (time-ratio / n-ratio) should sit near 1.
        // Best-of-3 per point: one preemption inside the sub-millisecond
        // n = 100 batch would otherwise swing the ratio under parallel load.
        let algos = [Algorithm::Icws, Algorithm::Pcws, Algorithm::Chum2008];
        let runs: Vec<_> = (0..3).map(|_| scaling_study(&algos, &[100, 800], 32, 8, 1)).collect();
        let points: Vec<ScalingPoint> = (0..runs[0].len())
            .map(|i| ScalingPoint {
                seconds: runs.iter().map(|run| run[i].seconds).fold(f64::INFINITY, f64::min),
                ..runs[0][i].clone()
            })
            .collect();
        for algo in algos {
            let g = growth_factor(&points, algo.name());
            assert!((0.5..2.0).contains(&g), "{}: growth factor {g} not ~linear", algo.name());
        }
    }

    #[test]
    fn quantization_grows_much_faster_than_active_index_in_c() {
        // Fix n, grow C: Haveliwala is ~linear in C, the skipping version
        // ~logarithmic. Compare time ratios at C 50 → 800. Best-of-3 per
        // timing — the minimum is robust against scheduler noise when the
        // suite runs under parallel load.
        let time_at = |algo: Algorithm, c: f64| {
            let cfg =
                SynConfig { docs: 6, features: 3_000, density: 0.02, exponent: 3.0, scale: 0.24 };
            let ds = cfg.generate(2).expect("valid");
            let config = AlgorithmConfig {
                quantization_constant: c,
                upper_bounds: None,
                max_rejection_draws: 1,
                ccws_weight_scale: 1.0,
                ..AlgorithmConfig::default()
            };
            let sk = algo.build(2, 16, &config).expect("buildable");
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    for doc in &ds.docs {
                        std::hint::black_box(sk.sketch(doc).expect("sketchable"));
                    }
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let hav_ratio =
            time_at(Algorithm::Haveliwala2000, 800.0) / time_at(Algorithm::Haveliwala2000, 50.0);
        let gol_ratio =
            time_at(Algorithm::GollapudiActive, 800.0) / time_at(Algorithm::GollapudiActive, 50.0);
        assert!(
            hav_ratio > 3.0 * gol_ratio,
            "Haveliwala C-ratio {hav_ratio} vs Gollapudi {gol_ratio}"
        );
    }
}
