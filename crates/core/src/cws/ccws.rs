//! Canonical Consistent Weighted Sampling \[51\] (paper §4.2.4).
//!
//! CCWS quantizes the **original** weights instead of their logarithms
//! (Eq. 13):
//!
//! ```text
//! t_k = ⌊ S_k / r_k + β_k ⌋
//! y_k = r_k · (t_k − β_k)          with r_k ~ Beta(2,1)
//! ```
//!
//! avoiding the sublinear scaling that, the CCWS authors argue, breaks
//! uniformity in ICWS (Fig. 6). The price is a reduced collision
//! probability — the review's Figure 8 shows CCWS as the least accurate
//! CWS-family member, degrading with the weight variance.
//!
//! # Pairing of `y_k` and `z_k`
//!
//! The review states that Eq. (6) (`ln z = r + ln y`) is replaced by
//! Eq. (14) (`r = ½(1/y − 1/z)`, i.e. `z = 1/(1/y − 2r)`). Solved literally,
//! Eq. (14) only yields a positive `z` when `y < 1/(2r)`, and Eq. (13)
//! itself yields `y ≤ 0` whenever `S_k < r_k·β_k` — both routinely violated
//! for sub-unit weights (the "limitation" §4.2.4 itself notes, *"which can
//! be appropriately solved by scaling the weight"*). We therefore provide
//! two pairings:
//!
//! * [`CcwsPairing::LinearShift`] (default): `z_k = y_k + r_k`, the direct
//!   linear-domain analogue of Eq. (6). Always positive
//!   (`z = r(t − β + 1) ≥ r(1 − β) > 0`), well-defined for every weight.
//! * [`CcwsPairing::ReviewEq14`]: the review's Eq. (14) literally, with the
//!   degenerate branch (`1/y − 2r ≤ 0` or `y ≤ 0`) mapping to `a_k = +∞`
//!   (the element can then never be selected by that hash). Exposed for the
//!   ablation bench that quantifies how far the literal equations degrade.
//!
//! In both pairings uniformity is approximated via `a_k = c_k / z_k`
//! (Eq. 9) with `c_k ~ Gamma(2,1)`, exactly the framework of §4.2.4.

use crate::cws::encode_step;
use crate::sketch::{check_out_len, pack3, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_rng::{beta21_from_unit, gamma21_from_units};
use wmh_sets::WeightedSet;

/// How `z_k` is paired with `y_k` (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcwsPairing {
    /// `z = y + r` — the well-defined linear-domain analogue of Eq. (6).
    #[default]
    LinearShift,
    /// The review's Eq. (14) literally (degenerate branch → never selected).
    ReviewEq14,
}

/// The CCWS sampler.
#[derive(Debug, Clone)]
pub struct Ccws {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    pairing: CcwsPairing,
    weight_scale: f64,
}

impl Ccws {
    /// Catalog name.
    pub const NAME: &'static str = "CCWS";

    /// Create a CCWS sketcher with the default pairing and no weight
    /// pre-scaling.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self {
            oracle: SeededHash::new(seed),
            seed,
            num_hashes,
            pairing: CcwsPairing::default(),
            weight_scale: 1.0,
        }
    }

    /// Select the `y`/`z` pairing (ablation hook).
    #[must_use]
    pub fn with_pairing(mut self, pairing: CcwsPairing) -> Self {
        self.pairing = pairing;
        self
    }

    /// Pre-scale all weights by a common factor (the mitigation §4.2.4
    /// recommends for sub-unit weights; every compared set must use the
    /// same factor).
    ///
    /// # Errors
    /// [`SketchError::BadParameter`] for non-finite or non-positive factors.
    pub fn with_weight_scale(mut self, scale: f64) -> Result<Self, SketchError> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(SketchError::BadParameter { what: "CCWS weight scale", value: scale });
        }
        self.weight_scale = scale;
        Ok(self)
    }

    /// The per-element draw: `(t_k, y_k, a_k)`. The weight is pre-scaled by
    /// the configured factor.
    #[must_use]
    pub fn element_sample(&self, d: usize, k: u64, s: f64) -> (i64, f64, f64) {
        let d = d as u64;
        self.closed_form(
            self.oracle.unit3(role::BETA_R, d, k),
            self.oracle.unit3(role::BETA, d, k),
            self.oracle.unit3(role::V1, d, k),
            self.oracle.unit3(role::V2, d, k),
            s,
        )
    }

    /// The CCWS quantization over the four uniforms — shared by the scalar
    /// path and the lane kernel.
    #[inline]
    fn closed_form(&self, ur: f64, beta: f64, v1: f64, v2: f64, s: f64) -> (i64, f64, f64) {
        let s = s * self.weight_scale;
        let r = beta21_from_unit(ur);
        let c = gamma21_from_units(v1, v2);
        let t = (s / r + beta).floor();
        let y = r * (t - beta);
        let a = match self.pairing {
            CcwsPairing::LinearShift => {
                let z = y + r; // = r(t − β + 1) > 0 always
                c / z
            }
            CcwsPairing::ReviewEq14 => {
                if y <= 0.0 {
                    f64::INFINITY
                } else {
                    let inv_z = 1.0 / y - 2.0 * r;
                    if inv_z <= 0.0 {
                        f64::INFINITY
                    } else {
                        c * inv_z
                    }
                }
            }
        };
        (t as i64, y, a)
    }
}

impl Sketcher for Ccws {
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
        _scratch: &mut SketchScratch,
    ) -> Result<(), SketchError> {
        check_out_len(out, self.num_hashes)?;
        if set.is_empty() {
            return Err(SketchError::EmptySet);
        }
        // Vectorized d-outer kernel (CCWS needs no ln/exp beyond one Gamma
        // draw, so hashing dominates — the hoisted prefixes and the fused
        // hash-plus-race pass carry the win here; uniforms stay in
        // registers). Bit-identical to the scalar per-element path; a is
        // never NaN (+∞ marks Eq. 14 degeneracy and loses every strict <).
        let keys = set.indices();
        let weights = set.weights();
        for (d, slot) in out.iter_mut().enumerate() {
            let du = d as u64;
            let p_br = self.oracle.prefix2(role::BETA_R, du);
            let p_beta = self.oracle.prefix2(role::BETA, du);
            let p_v1 = self.oracle.prefix2(role::V1, du);
            let p_v2 = self.oracle.prefix2(role::V2, du);
            let mut best_a = f64::INFINITY;
            let mut best_k = keys[0];
            let mut best_t = 0i64;
            for (i, &k) in keys.iter().enumerate() {
                let (t, _, a) = self.closed_form(
                    p_br.finish_unit(k),
                    p_beta.finish_unit(k),
                    p_v1.finish_unit(k),
                    p_v2.finish_unit(k),
                    weights[i],
                );
                let better = i == 0 || a < best_a;
                best_a = if better { a } else { best_a };
                best_k = if better { k } else { best_k };
                best_t = if better { t } else { best_t };
            }
            if best_a.is_infinite() {
                // Every element degenerate under Eq. (14): emit a sentinel
                // code that never collides across sets (mixes d and k).
                *slot = pack3(du, best_k ^ 0xDEAD, u64::MAX);
            } else {
                *slot = pack3(du, best_k, encode_step(best_t));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_sets::generalized_jaccard;

    fn ws(pairs: &[(u64, f64)]) -> WeightedSet {
        WeightedSet::from_pairs(pairs.iter().copied()).expect("valid")
    }

    #[test]
    fn y_brackets_weight_for_super_unit_weights() {
        // For S ≥ 1 > r: y ∈ [S − r, S] ⊂ (0, S] (Eq. 12's law).
        let c = Ccws::new(1, 1);
        for k in 0..2000u64 {
            let s = 1.0 + (k % 30) as f64 * 0.2;
            let (_, y, a) = c.element_sample(0, k, s);
            assert!(y <= s + 1e-12 && y >= s - 1.0 - 1e-12, "y {y} s {s}");
            assert!(y > 0.0);
            assert!(a.is_finite() && a > 0.0);
        }
    }

    #[test]
    fn linear_shift_is_total_on_sub_unit_weights() {
        // The default pairing never degenerates, even for tiny weights.
        let c = Ccws::new(2, 1);
        for k in 0..2000u64 {
            let (_, _, a) = c.element_sample(0, k, 0.01);
            assert!(a.is_finite() && a > 0.0);
        }
    }

    #[test]
    fn review_eq14_degenerates_on_sub_unit_weights() {
        // Documented behaviour: for S ≪ r·β the literal equations yield
        // y ≤ 0 and the element becomes unselectable.
        let c = Ccws::new(3, 1).with_pairing(CcwsPairing::ReviewEq14);
        let degenerate =
            (0..2000u64).filter(|&k| c.element_sample(0, k, 0.05).2.is_infinite()).count();
        assert!(degenerate > 1000, "expected widespread degeneracy, got {degenerate}");
    }

    #[test]
    fn weight_scale_restores_eq14_domain() {
        let c = Ccws::new(4, 1)
            .with_pairing(CcwsPairing::ReviewEq14)
            .with_weight_scale(100.0)
            .expect("valid scale");
        // Scaled weight 5.0: y ∈ [4, 5]; 1/y − 2r needs y < 1/(2r) — still
        // violated for large y! Eq. (14) genuinely requires *small* y too;
        // just assert the sampler stays total (degenerates map to +∞).
        for k in 0..200u64 {
            let (_, _, a) = c.element_sample(0, k, 0.05);
            assert!(a > 0.0);
        }
        assert!(Ccws::new(4, 1).with_weight_scale(0.0).is_err());
        assert!(Ccws::new(4, 1).with_weight_scale(f64::NAN).is_err());
    }

    #[test]
    fn selection_is_roughly_proportional_to_weight() {
        // CCWS is approximate; allow a generous tolerance around 0.75.
        let trials = 4000usize;
        let c = Ccws::new(5, trials);
        let set = ws(&[(10, 1.0), (20, 3.0)]);
        let mut wins = 0u64;
        for d in 0..trials {
            let best = set
                .iter()
                .map(|(k, s)| (k, c.element_sample(d, k, s).2))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap()
                .0;
            if best == 20 {
                wins += 1;
            }
        }
        let frac = wins as f64 / trials as f64;
        assert!((frac - 0.75).abs() < 0.1, "selection fraction {frac}");
    }

    #[test]
    fn underestimates_generalized_jaccard() {
        // The review: CCWS "decreases the probability of collision and thus
        // generally performs worse than ICWS". The additive quantization
        // window r ≤ 1 is narrow relative to super-unit weights, so shared
        // elements with differing weights rarely land in the same cell —
        // a systematic *under*estimate. Assert direction and neighbourhood.
        let d = 2048;
        let c = Ccws::new(6, d);
        let s = ws(&(0..80u64)
            .map(|k| (k, 1.0 + 0.8 * ((k * 37 % 11) as f64 / 11.0)))
            .collect::<Vec<_>>());
        let t = ws(&(40..120u64)
            .map(|k| (k, 1.0 + 0.8 * ((k * 17 % 13) as f64 / 13.0)))
            .collect::<Vec<_>>());
        let truth = generalized_jaccard(&s, &t);
        let est = c.sketch(&s).unwrap().estimate_similarity(&c.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!(est < truth + 3.0 * sd, "CCWS should not overestimate: {est} vs {truth}");
        assert!(est > truth * 0.3, "est {est} collapsed vs truth {truth}");

        // And ICWS on the same workload is closer to the truth.
        let icws = crate::cws::Icws::new(6, d);
        let ic = icws.sketch(&s).unwrap().estimate_similarity(&icws.sketch(&t).unwrap());
        assert!(
            (ic - truth).abs() <= (est - truth).abs() + 2.0 * sd,
            "ICWS ({ic}) should beat CCWS ({est}) against truth {truth}"
        );
    }

    #[test]
    fn consistency_within_quantization_window() {
        // Fixed r, β: weights in the same quantization cell share (t, y).
        let c = Ccws::new(7, 1);
        let mut checked = 0;
        for k in 0..3000u64 {
            let s = 2.0;
            let (t, y, _) = c.element_sample(0, k, s);
            let d = 0u64;
            let r = beta21_from_unit(c.oracle.unit3(role::BETA_R, d, k));
            let s2 = y + 0.5 * r; // still below the next cell boundary y + r
            if s2 > y && s2 < y + r && s2 > 0.0 {
                let (t2, y2, _) = c.element_sample(0, k, s2);
                assert_eq!(t, t2, "element {k}");
                assert_eq!(y, y2, "element {k}");
                checked += 1;
            }
        }
        assert!(checked > 2000, "too few checks: {checked}");
    }

    #[test]
    fn empty_set_is_an_error() {
        assert_eq!(Ccws::new(8, 4).sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn lane_kernel_matches_scalar_sample_path_in_both_pairings() {
        for pairing in [CcwsPairing::LinearShift, CcwsPairing::ReviewEq14] {
            let c = Ccws::new(0xCC5, 48).with_pairing(pairing);
            for set in [
                ws(&[(3, 1.0)]),
                ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4), (1000, 9.0)]),
                ws(&[(5, 0.001), (6, 1.0), (7, 500.0), (u64::MAX, f64::MAX)]),
                ws(&[(5, 0.0011), (9, 0.002)]), // Eq. 14 all-degenerate sets
            ] {
                let sk = c.sketch(&set).unwrap();
                for d in 0..48 {
                    let (k, t, a) = set
                        .iter()
                        .map(|(k, s)| {
                            let (t, _, a) = c.element_sample(d, k, s);
                            (k, t, a)
                        })
                        .min_by(|x, y| x.2.total_cmp(&y.2))
                        .unwrap();
                    let want = if a.is_infinite() {
                        pack3(d as u64, k ^ 0xDEAD, u64::MAX)
                    } else {
                        pack3(d as u64, k, encode_step(t))
                    };
                    assert_eq!(sk.codes[d], want, "{pairing:?} d={d}");
                }
            }
        }
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let c = Ccws::new(9, 64);
        let s = ws(&[(5, 0.9), (6, 2.0)]);
        assert_eq!(c.sketch(&s).unwrap().estimate_similarity(&c.sketch(&s).unwrap()), 1.0);
    }
}
