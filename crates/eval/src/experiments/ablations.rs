//! Ablations called out in DESIGN.md:
//!
//! 1. **Quantization constant sweep** — accuracy/runtime of the
//!    quantization-based algorithms vs `C` (the trade-off §3 discusses);
//! 2. **CCWS pairing** — the review's literal Eq. (14) vs the well-defined
//!    linear-shift pairing (module docs of `wmh_core::cws::ccws`);
//! 3. **Small-D advantage of I²CWS** — the §6.3 remark that its gain
//!    "is clear in the case of small D";
//! 4. **b-bit truncation** — storage/accuracy trade-off of the §1
//!    extension.

use crate::report::{fmt_value, Table};
use wmh_core::cws::{Ccws, CcwsPairing, I2cws, Icws};
use wmh_core::extensions::BbitSketch;
use wmh_core::quantization::Haveliwala;
use wmh_core::Sketcher;
use wmh_data::SynConfig;
use wmh_rng::stats::mse;
use wmh_sets::{generalized_jaccard, WeightedSet};

/// Shared tiny workload for ablations: one scaled-down paper dataset and a
/// sample of pairs with exact similarities.
fn workload(
    docs: usize,
    features: u64,
    seed: u64,
) -> (Vec<WeightedSet>, Vec<(usize, usize)>, Vec<f64>) {
    let cfg = SynConfig { docs, features, density: 0.01, exponent: 3.0, scale: 0.24 };
    let ds = cfg.generate(seed).expect("valid config");
    let pairs = wmh_data::pairs::sample_pairs(ds.docs.len(), 200, seed);
    let truths: Vec<f64> =
        pairs.iter().map(|&(i, j)| generalized_jaccard(&ds.docs[i], &ds.docs[j])).collect();
    (ds.docs, pairs, truths)
}

fn mse_of(
    sketcher: &dyn Sketcher,
    docs: &[WeightedSet],
    pairs: &[(usize, usize)],
    truths: &[f64],
) -> f64 {
    let sketches: Vec<_> = docs.iter().map(|d| sketcher.sketch(d).expect("sketchable")).collect();
    let ests: Vec<f64> =
        pairs.iter().map(|&(i, j)| sketches[i].estimate_similarity(&sketches[j])).collect();
    mse(&ests, truths)
}

/// One row of the quantization-constant sweep.
#[derive(Debug, Clone)]
pub struct QuantSweepRow {
    /// The constant `C`.
    pub constant: f64,
    /// MSE of \[Haveliwala et al., 2000\] at this `C`.
    pub mse: f64,
    /// Sketching seconds for the whole workload.
    pub seconds: f64,
}

wmh_json::json_object!(QuantSweepRow { constant, mse, seconds });

/// Ablation 1: sweep `C` for the quantization approach; accuracy improves
/// and runtime grows roughly linearly with `C` (paper §3's trade-off).
#[must_use]
pub fn quantization_sweep(seed: u64, constants: &[f64]) -> (Vec<QuantSweepRow>, Table) {
    let (docs, pairs, truths) = workload(40, 1_500, seed);
    let mut rows = Vec::new();
    let mut t = Table::new(["C", "Haveliwala MSE", "seconds"]);
    for &c in constants {
        let sk = Haveliwala::new(seed, 64, c).expect("valid constant");
        let start = std::time::Instant::now();
        let m = mse_of(&sk, &docs, &pairs, &truths);
        let secs = start.elapsed().as_secs_f64();
        t.row([fmt_value(c), fmt_value(m), fmt_value(secs)]);
        rows.push(QuantSweepRow { constant: c, mse: m, seconds: secs });
    }
    (rows, t)
}

/// Ablation 2 result: the two CCWS pairings side by side.
#[derive(Debug, Clone)]
pub struct CcwsAblation {
    /// MSE with the default `z = y + r` pairing.
    pub linear_shift_mse: f64,
    /// MSE with the review's literal Eq. (14).
    pub review_eq14_mse: f64,
    /// Fraction of element draws that degenerate under Eq. (14) on
    /// sub-unit weights.
    pub eq14_degenerate_rate: f64,
}

wmh_json::json_object!(CcwsAblation { linear_shift_mse, review_eq14_mse, eq14_degenerate_rate });

/// Ablation 2: CCWS pairing comparison (documents why the default deviates
/// from the review's literal equations).
#[must_use]
pub fn ccws_pairing_ablation(seed: u64) -> CcwsAblation {
    let (docs, pairs, truths) = workload(40, 1_500, seed);
    let linear = Ccws::new(seed, 128);
    let eq14 = Ccws::new(seed, 128).with_pairing(CcwsPairing::ReviewEq14);
    let linear_mse = mse_of(&linear, &docs, &pairs, &truths);
    let eq14_mse = mse_of(&eq14, &docs, &pairs, &truths);
    let degenerate =
        (0..4000u64).filter(|&k| eq14.element_sample(0, k, 0.3).2.is_infinite()).count() as f64
            / 4000.0;
    CcwsAblation {
        linear_shift_mse: linear_mse,
        review_eq14_mse: eq14_mse,
        eq14_degenerate_rate: degenerate,
    }
}

/// Ablation 3 row: ICWS vs I²CWS across `D`.
#[derive(Debug, Clone)]
pub struct SmallDRow {
    /// Fingerprint length.
    pub d: usize,
    /// ICWS MSE.
    pub icws_mse: f64,
    /// I²CWS MSE.
    pub i2cws_mse: f64,
}

wmh_json::json_object!(SmallDRow { d, icws_mse, i2cws_mse });

/// Ablation 3: the I²CWS small-D comparison of §6.3.
#[must_use]
pub fn small_d_ablation(seed: u64, d_values: &[usize]) -> Vec<SmallDRow> {
    let (docs, pairs, truths) = workload(40, 1_500, seed);
    d_values
        .iter()
        .map(|&d| SmallDRow {
            d,
            icws_mse: mse_of(&Icws::new(seed, d), &docs, &pairs, &truths),
            i2cws_mse: mse_of(&I2cws::new(seed, d), &docs, &pairs, &truths),
        })
        .collect()
}

/// Ablation 4 row: b-bit truncation of ICWS fingerprints.
#[derive(Debug, Clone)]
pub struct BbitRow {
    /// Bits kept per code.
    pub bits: u8,
    /// Bytes per fingerprint after packing.
    pub bytes: usize,
    /// MSE of the debiased estimator.
    pub mse: f64,
}

wmh_json::json_object!(BbitRow { bits, bytes, mse });

/// Ablation 4: storage vs accuracy for b-bit truncation.
#[must_use]
pub fn bbit_ablation(seed: u64, bits: &[u8]) -> Vec<BbitRow> {
    let (docs, pairs, truths) = workload(40, 1_500, seed);
    let icws = Icws::new(seed, 256);
    let sketches: Vec<_> = docs.iter().map(|d| icws.sketch(d).expect("sketchable")).collect();
    bits.iter()
        .map(|&b| {
            let trunc: Vec<_> = sketches
                .iter()
                .map(|s| BbitSketch::from_sketch(s, b).expect("valid bits"))
                .collect();
            let ests: Vec<f64> = pairs
                .iter()
                .map(|&(i, j)| trunc[i].estimate_similarity(&trunc[j]).expect("compatible"))
                .collect();
            BbitRow { bits: b, bytes: trunc[0].storage_bytes(), mse: mse(&ests, &truths) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_sweep_improves_with_c() {
        let (rows, table) = quantization_sweep(3, &[5.0, 200.0]);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].mse < rows[0].mse,
            "C=200 ({}) should beat C=5 ({})",
            rows[1].mse,
            rows[0].mse
        );
        assert!(rows[1].seconds > rows[0].seconds, "larger C costs more time");
        assert!(table.to_markdown().contains("Haveliwala MSE"));
    }

    #[test]
    fn ccws_eq14_degenerates_and_hurts() {
        let a = ccws_pairing_ablation(4);
        assert!(a.eq14_degenerate_rate > 0.4, "rate {}", a.eq14_degenerate_rate);
        assert!(
            a.review_eq14_mse >= a.linear_shift_mse,
            "eq14 {} vs linear {}",
            a.review_eq14_mse,
            a.linear_shift_mse
        );
    }

    #[test]
    fn small_d_rows_cover_grid() {
        let rows = small_d_ablation(5, &[10, 100]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.icws_mse.is_finite() && r.i2cws_mse.is_finite());
            assert!(r.icws_mse >= 0.0 && r.i2cws_mse >= 0.0);
        }
        // Both shrink with D.
        assert!(rows[1].icws_mse < rows[0].icws_mse);
    }

    #[test]
    fn bbit_tradeoff_is_monotone() {
        let rows = bbit_ablation(6, &[1, 4, 16]);
        assert!(rows[0].bytes < rows[1].bytes && rows[1].bytes < rows[2].bytes);
        // More bits → no worse accuracy (allowing small noise).
        assert!(rows[2].mse <= rows[0].mse + 0.002);
    }
}
