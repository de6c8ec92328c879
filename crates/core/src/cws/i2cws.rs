//! Improved Improved Consistent Weighted Sampling \[53\] (paper §4.2.6).
//!
//! I²CWS removes the dependence between the two special active indices that
//! ICWS introduces by deriving `z_k` from `y_k` (Eqs. 21–22 share
//! `x₁, x₂, b`). Instead, `y_k` and `z_k` are sampled from *independent*
//! random variable pairs (Eqs. 25–26):
//!
//! ```text
//! z_k = exp(r₂·(⌊ln S/r₂ + β₂⌋ − β₂ + 1)),   a_k = c_k / z_k
//! y_k = exp(r₁·(⌊ln S/r₁ + β₁⌋ − β₁))        (computed once, for k*)
//! ```
//!
//! Because `a_k` is a function of `z_k` alone, `y` is evaluated only for the
//! winning element `k* = argmin_k a_k` — the lazy evaluation §4.2.6
//! describes, giving `O(5nD)` time despite `O(7nD)` space.

use crate::cws::encode_step;
use crate::sketch::{check_out_len, pack3, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_rng::gamma21_from_units;
use wmh_sets::WeightedSet;

/// The I²CWS sampler.
#[derive(Debug, Clone)]
pub struct I2cws {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
}

impl I2cws {
    /// Catalog name.
    pub const NAME: &'static str = "I2CWS";

    /// Create an I²CWS sketcher.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self { oracle: SeededHash::new(seed), seed, num_hashes }
    }

    /// The `z`-side draw for one element: `(z_k, a_k)` (Eq. 26 + Eq. 9).
    #[must_use]
    pub fn element_z(&self, d: usize, k: u64, s: f64) -> (f64, f64) {
        let d = d as u64;
        Self::z_closed_form(
            self.oracle.unit3(role::U3, d, k),
            self.oracle.unit3(role::U4, d, k),
            self.oracle.unit3(role::BETA2, d, k),
            self.oracle.unit3(role::V1, d, k),
            self.oracle.unit3(role::V2, d, k),
            s.ln(),
        )
    }

    /// Eq. 26 + Eq. 9 over the five uniforms and pre-computed `ln s` —
    /// shared by the scalar path and the lane kernel.
    #[inline]
    fn z_closed_form(u3: f64, u4: f64, beta2: f64, v1: f64, v2: f64, ln_s: f64) -> (f64, f64) {
        let r2 = gamma21_from_units(u3, u4);
        let c = gamma21_from_units(v1, v2);
        let t2 = (ln_s / r2 + beta2).floor();
        let z = (r2 * (t2 - beta2 + 1.0)).exp();
        (z, c / z)
    }

    /// The independent `y`-side draw (Eq. 25) — evaluated lazily for the
    /// selected element only. Returns `(t₁, y)`.
    #[must_use]
    pub fn element_y(&self, d: usize, k: u64, s: f64) -> (i64, f64) {
        let d = d as u64;
        let r1 = gamma21_from_units(
            self.oracle.unit3(role::U1, d, k),
            self.oracle.unit3(role::U2, d, k),
        );
        let beta1 = self.oracle.unit3(role::BETA, d, k);
        let t1 = (s.ln() / r1 + beta1).floor();
        (t1 as i64, (r1 * (t1 - beta1)).exp())
    }
}

impl Sketcher for I2cws {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn num_hashes(&self) -> usize {
        self.num_hashes
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn sketch_codes_into(
        &self,
        set: &WeightedSet,
        out: &mut [u64],
        scratch: &mut SketchScratch,
    ) -> Result<(), SketchError> {
        check_out_len(out, self.num_hashes)?;
        if set.is_empty() {
            return Err(SketchError::EmptySet);
        }
        // Vectorized d-outer kernel: the z-side race runs over hoisted
        // (role, d) hash prefixes with the five per-element uniforms in
        // registers and a branchless first-minimal select, all in one fused
        // pass; the y-side stays lazy and scalar — one draw per winner,
        // exactly as §4.2.6 prescribes. Bit-identical to the scalar path
        // (a = c/z is never NaN: c is positive finite and z ∈ [0, ∞]).
        // Only `ln s` is staged in scratch, hoisted once per set.
        let keys = set.indices();
        let weights = set.weights();
        let lanes = scratch.lanes();
        lanes.resize(keys.len());
        for (l, &s) in lanes.ln_weight.iter_mut().zip(weights) {
            *l = s.ln();
        }
        for (d, slot) in out.iter_mut().enumerate() {
            let du = d as u64;
            let p_u3 = self.oracle.prefix2(role::U3, du);
            let p_u4 = self.oracle.prefix2(role::U4, du);
            let p_beta2 = self.oracle.prefix2(role::BETA2, du);
            let p_v1 = self.oracle.prefix2(role::V1, du);
            let p_v2 = self.oracle.prefix2(role::V2, du);
            let mut best_a = f64::INFINITY;
            let mut best_i = 0usize;
            for (i, &k) in keys.iter().enumerate() {
                let (_, a) = Self::z_closed_form(
                    p_u3.finish_unit(k),
                    p_u4.finish_unit(k),
                    p_beta2.finish_unit(k),
                    p_v1.finish_unit(k),
                    p_v2.finish_unit(k),
                    lanes.ln_weight[i],
                );
                let better = i == 0 || a < best_a;
                best_a = if better { a } else { best_a };
                best_i = if better { i } else { best_i };
            }
            // Lazy y: only for the winner (§4.2.6).
            let (t1, _) = self.element_y(d, keys[best_i], weights[best_i]);
            *slot = pack3(du, keys[best_i], encode_step(t1));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_rng::stats::{binomial_z, ks_statistic, pearson};
    use wmh_sets::generalized_jaccard;

    fn ws(pairs: &[(u64, f64)]) -> WeightedSet {
        WeightedSet::from_pairs(pairs.iter().copied()).expect("valid")
    }

    #[test]
    fn z_exceeds_weight_and_y_stays_below() {
        let i2 = I2cws::new(1, 1);
        for k in 0..2000u64 {
            let s = 0.05 + (k % 40) as f64 * 0.25;
            let (z, a) = i2.element_z(0, k, s);
            let (_, y) = i2.element_y(0, k, s);
            assert!(z > s * (1.0 - 1e-12), "z {z} <= s {s}");
            assert!(y <= s * (1.0 + 1e-12), "y {y} > s {s}");
            assert!(a > 0.0);
        }
    }

    #[test]
    fn y_and_z_are_independent() {
        // The point of I²CWS: y and z come from independent random pairs.
        // (Note ICWS's gaps (ln S − ln y, ln z − ln S) are *linearly*
        // uncorrelated too — they are the two Exp(1) halves of r — so the
        // discriminating witness is structural: in ICWS, ln z − ln y equals
        // the grid step r exactly; in I²CWS it does not.)
        let i2 = I2cws::new(2, 1);
        let s = 1.3f64;
        let (mut ys, mut zs) = (Vec::new(), Vec::new());
        for k in 0..5000u64 {
            let (z, _) = i2.element_z(0, k, s);
            let (_, y) = i2.element_y(0, k, s);
            ys.push(y.ln() - s.ln());
            zs.push(z.ln() - s.ln());
        }
        let rho = pearson(&ys, &zs);
        assert!(rho.abs() < 0.05, "corr(y, z) = {rho}");

        // ICWS: ln z − ln y ≡ r (deterministic pairing via Eq. 6).
        let icws = crate::cws::Icws::new(2, 1);
        for k in 0..500u64 {
            let smp = icws.element_sample(0, k, s);
            let r = (smp.z / smp.y).ln();
            let smp2 = icws.element_sample(0, k, s * 1.0); // same inputs
            assert!(((smp2.z / smp2.y).ln() - r).abs() < 1e-12);
        }
        // I²CWS: ln z − ln y is NOT the y-grid's step r₁ (independent grids).
        let mut diverges = 0;
        for k in 0..500u64 {
            let (z, _) = i2.element_z(0, k, s);
            let (_, y) = i2.element_y(0, k, s);
            let gap = (z / y).ln();
            let r1 = gamma21_from_units(
                i2.oracle.unit3(role::U1, 0, k),
                i2.oracle.unit3(role::U2, 0, k),
            );
            if (gap - r1).abs() > 1e-6 {
                diverges += 1;
            }
        }
        assert!(diverges > 450, "z should not be tied to the y grid: {diverges}/500");
    }

    #[test]
    fn hash_value_is_exponential_in_weight() {
        // a_k = c/z with z from the independent quantization obeys the same
        // Exp(S) law (proved in [53]).
        let i2 = I2cws::new(3, 1);
        for s in [0.3, 1.0, 4.2] {
            let xs: Vec<f64> = (0..5000u64).map(|k| i2.element_z(0, k, s).1).collect();
            let d = ks_statistic(&xs, |x| 1.0 - (-s * x).exp());
            assert!(d < 1.63 / (xs.len() as f64).sqrt() * 1.5, "s={s}: KS D = {d}");
        }
    }

    #[test]
    fn selection_is_proportional_to_weight() {
        let trials = 4000usize;
        let i2 = I2cws::new(4, trials);
        let set = ws(&[(10, 1.0), (20, 3.0)]);
        let mut wins = 0u64;
        for d in 0..trials {
            let best = set
                .iter()
                .map(|(k, s)| (k, i2.element_z(d, k, s).1))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap()
                .0;
            if best == 20 {
                wins += 1;
            }
        }
        let z = binomial_z(wins, trials as u64, 0.75);
        assert!(z.abs() < 5.0, "z = {z}");
    }

    #[test]
    fn exact_when_overlapping_weights_agree() {
        // When shared elements carry equal weights in both sets, y- and
        // z-cells agree automatically, so the estimator reduces to the exact
        // exponential race: unbiased within CLT bounds.
        let d = 2048;
        let i2 = I2cws::new(5, d);
        let w = |k: u64| 0.2 + 0.8 * ((k * 37 % 11) as f64 / 11.0);
        let s = ws(&(0..80u64).map(|k| (k, w(k))).collect::<Vec<_>>());
        let t = ws(&(40..120u64).map(|k| (k, w(k))).collect::<Vec<_>>());
        let truth = generalized_jaccard(&s, &t);
        let est = i2.sketch(&s).unwrap().estimate_similarity(&i2.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est} truth {truth}");
    }

    #[test]
    fn under_collides_when_overlapping_weights_differ() {
        // With differing weights on shared elements, a collision needs the
        // independent y-grid AND z-grid to both agree — roughly the square
        // of ICWS's single-grid agreement — so I²CWS under-collides in this
        // regime (the follow-up literature's observation on the ICWS/I²CWS
        // dispute; on the paper's near-orthogonal power-law pairs this
        // lowers variance and hence MSE, matching Figure 8's ranking).
        let d = 2048;
        let i2 = I2cws::new(5, d);
        let icws = crate::cws::Icws::new(5, d);
        let s = ws(&(0..80u64)
            .map(|k| (k, 0.2 + 0.8 * ((k * 37 % 11) as f64 / 11.0)))
            .collect::<Vec<_>>());
        let t = ws(&(40..120u64)
            .map(|k| (k, 0.2 + 0.8 * ((k * 17 % 13) as f64 / 13.0)))
            .collect::<Vec<_>>());
        let truth = generalized_jaccard(&s, &t);
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        let est = i2.sketch(&s).unwrap().estimate_similarity(&i2.sketch(&t).unwrap());
        let ic = icws.sketch(&s).unwrap().estimate_similarity(&icws.sketch(&t).unwrap());
        assert!(est < truth + 3.0 * sd, "I²CWS should not overestimate: {est} vs {truth}");
        assert!(est > 0.3 * truth, "est {est} collapsed vs truth {truth}");
        assert!(
            ic > est - 2.0 * sd,
            "ICWS ({ic}) should collide at least as often as I²CWS ({est})"
        );
    }

    #[test]
    fn consistency_of_z_within_quantization_window() {
        // For weights inside one z-quantization cell, (z, a) is unchanged.
        let i2 = I2cws::new(6, 1);
        let mut checked = 0;
        for k in 0..3000u64 {
            let s = 1.7;
            let (z, a) = i2.element_z(0, k, s);
            // The z-cell's lower boundary is z/e^{r2}; probe a weight just
            // below z but above s (same cell when s2 < z).
            let s2 = (s + z) / 2.0;
            if s2 < z {
                let (z2, a2) = i2.element_z(0, k, s2);
                if z2 == z {
                    assert_eq!(a, a2, "element {k}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 1500, "too few checks: {checked}");
    }

    #[test]
    fn empty_set_is_an_error() {
        assert_eq!(I2cws::new(7, 4).sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn lane_kernel_matches_scalar_sample_path() {
        let i2 = I2cws::new(0x12C5, 48);
        for set in [
            ws(&[(3, 1.0)]),
            ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4), (1000, 9.0)]),
            ws(&[(5, 0.001), (6, 1.0), (7, 500.0), (u64::MAX, f64::MAX)]),
        ] {
            let sk = i2.sketch(&set).unwrap();
            for d in 0..48 {
                let (k_star, s_star, _) = set
                    .iter()
                    .map(|(k, s)| {
                        let (_, a) = i2.element_z(d, k, s);
                        (k, s, a)
                    })
                    .min_by(|x, y| x.2.total_cmp(&y.2))
                    .unwrap();
                let (t1, _) = i2.element_y(d, k_star, s_star);
                assert_eq!(sk.codes[d], pack3(d as u64, k_star, encode_step(t1)), "d={d}");
            }
        }
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let i2 = I2cws::new(8, 64);
        let s = ws(&[(5, 0.9), (6, 2.0), (12, 0.05)]);
        assert_eq!(i2.sketch(&s).unwrap().estimate_similarity(&i2.sketch(&s).unwrap()), 1.0);
    }
}
