//! 0-bit Consistent Weighted Sampling \[50\] (paper §4.2.3).
//!
//! Runs ICWS and keeps only the element component `k` of the code
//! `(k, y_k)`, making the fingerprint integrable into linear learning
//! systems and bounding its storage. Li demonstrated empirically that the
//! collision probability barely changes; the review echoes that a rigorous
//! proof "remains a difficult probability problem".

use crate::cws::Icws;
use crate::sketch::{pack2, SketchError, SketchScratch, Sketcher};
use wmh_sets::WeightedSet;

/// ICWS with the `y_k` component discarded.
#[derive(Debug, Clone)]
pub struct ZeroBitCws {
    inner: Icws,
    seed: u64,
    num_hashes: usize,
}

impl ZeroBitCws {
    /// Catalog name.
    pub const NAME: &'static str = "0-bit-CWS";

    /// Create a 0-bit CWS sketcher (shares ICWS's randomness layout: for
    /// the same seed, it selects exactly the elements ICWS selects).
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self { inner: Icws::new(seed, num_hashes), seed, num_hashes }
    }

    /// Access the underlying ICWS sampler.
    #[must_use]
    pub fn icws(&self) -> &Icws {
        &self.inner
    }
}

impl Sketcher for ZeroBitCws {
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
        // Same lane kernel as ICWS — only the code drops the step.
        self.inner.winners_into(set, out, scratch, |d, k, _t| pack2(d, k))
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
    fn collision_rate_is_at_least_icws() {
        // Dropping y_k can only merge codes, never split them: the 0-bit
        // estimate dominates the ICWS estimate pointwise for the same seed.
        let d = 512;
        let zb = ZeroBitCws::new(1, d);
        let icws = Icws::new(1, d);
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4), (8, 2.0)]);
        let zb_est = zb.sketch(&s).unwrap().estimate_similarity(&zb.sketch(&t).unwrap());
        let ic_est = icws.sketch(&s).unwrap().estimate_similarity(&icws.sketch(&t).unwrap());
        assert!(zb_est >= ic_est, "0-bit {zb_est} < icws {ic_est}");
    }

    #[test]
    fn estimates_generalized_jaccard_closely() {
        // Li's empirical claim: the y_k component is trivial for most data —
        // true on many-element sets, where P(same element but different y)
        // is small. (On tiny sets the upward bias is material; see
        // upward_bias_is_material_on_tiny_sets.)
        let d = 2048;
        let zb = ZeroBitCws::new(2, d);
        let s = ws(&(0..80u64)
            .map(|k| (k, 0.2 + 0.8 * ((k * 37 % 11) as f64 / 11.0)))
            .collect::<Vec<_>>());
        let t = ws(&(40..120u64)
            .map(|k| (k, 0.2 + 0.8 * ((k * 17 % 13) as f64 / 13.0)))
            .collect::<Vec<_>>());
        let truth = generalized_jaccard(&s, &t);
        let est = zb.sketch(&s).unwrap().estimate_similarity(&zb.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd + 0.03, "est {est} truth {truth}");
    }

    #[test]
    fn upward_bias_is_material_on_tiny_sets() {
        // With few elements, "same k" collisions without "same y" are
        // common, so 0-bit CWS overestimates visibly — the regime where the
        // review's caveat (no rigorous proof) bites.
        let d = 2048;
        let zb = ZeroBitCws::new(11, d);
        let icws = Icws::new(11, d);
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4), (8, 2.0)]);
        let truth = generalized_jaccard(&s, &t);
        let zb_est = zb.sketch(&s).unwrap().estimate_similarity(&zb.sketch(&t).unwrap());
        let ic_est = icws.sketch(&s).unwrap().estimate_similarity(&icws.sketch(&t).unwrap());
        assert!(zb_est > ic_est, "0-bit must not be below ICWS");
        assert!(zb_est > truth + 0.03, "tiny-set upward bias expected: {zb_est} vs {truth}");
    }

    #[test]
    fn identical_sets_collide_everywhere_and_empty_errors() {
        let zb = ZeroBitCws::new(3, 64);
        let s = ws(&[(5, 0.9), (6, 2.0)]);
        assert_eq!(zb.sketch(&s).unwrap().estimate_similarity(&zb.sketch(&s).unwrap()), 1.0);
        assert_eq!(zb.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn lane_kernel_matches_scalar_sample_path() {
        // The vectorized kernel must emit exactly `pack2(d, k)` for the
        // element the scalar ICWS sample path selects.
        let zb = ZeroBitCws::new(0xBEE5, 48);
        for set in [
            ws(&[(3, 1.0)]),
            ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4), (1000, 9.0)]),
            ws(&[(5, 0.001), (6, 1.0), (7, 500.0), (u64::MAX, f64::MAX)]),
        ] {
            let sk = zb.sketch(&set).unwrap();
            for d in 0..48 {
                let (k, _) = zb.icws().sample(&set, d).unwrap();
                assert_eq!(sk.codes[d], pack2(d as u64, k), "d={d}");
            }
        }
    }

    #[test]
    fn selects_same_elements_as_icws() {
        let zb = ZeroBitCws::new(4, 32);
        let s = ws(&[(1, 1.0), (2, 2.0), (3, 0.5)]);
        for d in 0..32 {
            let (k_icws, _) = zb.icws().sample(&s, d).expect("non-empty set");
            let (k_again, _) = zb.icws().sample(&s, d).expect("non-empty set");
            assert_eq!(k_icws, k_again);
        }
    }
}
