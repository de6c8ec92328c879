//! \[Chum et al., 2008\] (paper §5.2): exponential sampling.
//!
//! Each element's MinHash value is drawn directly from the closed-form law
//! of the minimum over its quantized subelements (Eq. 27), which collapses
//! to
//!
//! ```text
//! h(S_k) = −ln(x_k) / S_k ~ Exp(S_k)        (Eq. 28)
//! ```
//!
//! with a single shared uniform `x_k` per element — one random variable per
//! element, the cheapest weighted MinHash in the review (Figure 9). The
//! fingerprint keeps only `k = argmin h(S_k)`; with no positional `y_k`
//! the estimator is **biased** (§5.2: consistency fails because the sampled
//! subelement depends on the weight, not on a shared interval).

use crate::sketch::{check_out_len, pack2, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_rng::exp_from_unit;
use wmh_sets::WeightedSet;

/// The Chum et al. exponential sampler.
#[derive(Debug, Clone)]
pub struct Chum {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
}

impl Chum {
    /// Catalog name.
    pub const NAME: &'static str = "Chum2008";

    /// Create a Chum sketcher.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self { oracle: SeededHash::new(seed), seed, num_hashes }
    }

    /// The per-element hash value `h(S_k) = −ln x / S_k` (Eq. 28).
    #[must_use]
    pub fn element_value(&self, d: usize, k: u64, s: f64) -> f64 {
        exp_from_unit(self.oracle.unit3(role::CHUM, d as u64, k), s)
    }
}

impl Sketcher for Chum {
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
        for (d, slot) in out.iter_mut().enumerate() {
            let Some((k, _)) = set
                .iter()
                .map(|(k, s)| (k, self.element_value(d, k, s)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                return Err(SketchError::EmptySet);
            };
            *slot = pack2(d as u64, k);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_rng::stats::{binomial_z, ks_statistic};
    use wmh_sets::generalized_jaccard;

    fn ws(pairs: &[(u64, f64)]) -> WeightedSet {
        WeightedSet::from_pairs(pairs.iter().copied()).expect("valid")
    }

    #[test]
    fn element_value_is_exponential() {
        let c = Chum::new(1, 1);
        for s in [0.3, 1.0, 4.2] {
            let xs: Vec<f64> = (0..5000u64).map(|k| c.element_value(0, k, s)).collect();
            let d = ks_statistic(&xs, |x| 1.0 - (-s * x).exp());
            assert!(d < 1.63 / (xs.len() as f64).sqrt() * 1.5, "s={s}: KS D = {d}");
        }
    }

    #[test]
    fn selection_is_proportional_to_weight() {
        // Eq. (8): the exponential race selects k with prob S_k / ΣS.
        let trials = 4000usize;
        let c = Chum::new(2, trials);
        let set = ws(&[(10, 1.0), (20, 3.0)]);
        let mut wins = 0u64;
        for d in 0..trials {
            let best = set
                .iter()
                .map(|(k, s)| (k, c.element_value(d, k, s)))
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
    fn estimator_is_biased_upward() {
        // §5.2: no y_k component ⇒ collisions over-count (selecting the same
        // element suffices). Construct sets sharing support but with very
        // different weights: genJ is small, Chum's collision rate is large.
        // Analytically: P(same element selected) = Σ p_S(k)·p_T(k)
        // ≈ 2·(10/10.1)·(0.1/10.1) ≈ 0.0196, while genJ = 0.2/20 = 0.01.
        let d = 16_384;
        let c = Chum::new(3, d);
        let s = ws(&[(1, 10.0), (2, 0.1)]);
        let t = ws(&[(1, 0.1), (2, 10.0)]);
        let truth = generalized_jaccard(&s, &t);
        let est = c.sketch(&s).unwrap().estimate_similarity(&c.sketch(&t).unwrap());
        let sd = (0.02f64 * 0.98 / d as f64).sqrt();
        assert!(est > truth + 5.0 * sd, "expected upward bias: est {est}, truth {truth}");
    }

    #[test]
    fn reasonable_on_similar_weight_profiles() {
        let d = 2048;
        let c = Chum::new(4, d);
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.28), (2, 0.17), (3, 0.5), (8, 1.5)]);
        let truth = generalized_jaccard(&s, &t);
        let est = c.sketch(&s).unwrap().estimate_similarity(&c.sketch(&t).unwrap());
        assert!((est - truth).abs() < 0.15, "est {est} truth {truth}");
    }

    #[test]
    fn empty_errors_and_determinism() {
        let c = Chum::new(5, 16);
        assert_eq!(c.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
        let s = ws(&[(7, 0.4)]);
        assert_eq!(c.sketch(&s).unwrap(), c.sketch(&s).unwrap());
    }
}
