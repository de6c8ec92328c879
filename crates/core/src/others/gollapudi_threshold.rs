//! \[Gollapudi et al., 2006\](2) (paper §5.1): threshold normalized weights
//! with consistent random samples, then apply standard MinHash.
//!
//! Each element is kept iff a globally shared uniform draw `u_{d,k}` falls
//! at or below the weight normalized by the set's maximum weight (the
//! pre-scan the review calls out: *"the method has to pre-scan the weighted
//! set in order to normalize it"*). The surviving binary set is MinHashed.
//! One independent thresholding per hash function keeps the fingerprint's
//! `D` codes exchangeable (the estimator averages over the thresholding
//! randomness); the estimator remains **biased** — the normalization couples
//! the kept support to the set's own maximum, and thresholding loses the
//! sub-maximum weight structure.

use crate::sketch::{check_out_len, pack2, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

/// The thresholding algorithm of \[Gollapudi et al., 2006\](2).
#[derive(Debug, Clone)]
pub struct GollapudiThreshold {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
}

impl GollapudiThreshold {
    /// Catalog name.
    pub const NAME: &'static str = "Gollapudi2006-Threshold";

    /// Create a thresholding sketcher.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self { oracle: SeededHash::new(seed), seed, num_hashes }
    }

    /// The lossy binary reduction of §5.1 for hash function `d`: pre-scan
    /// for the max weight, keep element `k` iff `u_{d,k} ≤ S_k / max`.
    ///
    /// The draws are shared across sets (consistent thresholding); the
    /// element at the maximum is always kept, so the reduction of a
    /// non-empty set is non-empty.
    #[must_use]
    pub fn reduce(&self, set: &WeightedSet, d: usize) -> WeightedSet {
        let max = set.max_weight();
        if max <= 0.0 {
            return WeightedSet::empty();
        }
        let support = set.iter().filter_map(|(k, w)| {
            let u = self.oracle.unit3(role::THRESHOLD, d as u64, k);
            (u <= w / max).then_some(k)
        });
        // The support is a strictly increasing subsequence of an already
        // sorted-distinct index list, so `binary` cannot reject it.
        WeightedSet::binary(support).unwrap_or_else(|_| WeightedSet::empty())
    }
}

impl Sketcher for GollapudiThreshold {
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
        // Hoist the max-weight pre-scan out of the per-d loop:
        // `min_element` re-scans the set once per hash function (D
        // redundant scans).
        let max = set.max_weight();
        for (d, slot) in out.iter_mut().enumerate() {
            let m = set
                .iter()
                .filter_map(|(k, w)| {
                    let u = self.oracle.unit3(role::THRESHOLD, d as u64, k);
                    (u <= w / max).then_some(k)
                })
                .min_by_key(|&k| self.oracle.hash2(d as u64, k));
            // Max-weight element always survives thresholding.
            let Some(m) = m else {
                return Err(SketchError::EmptySet);
            };
            *slot = pack2(d as u64, m);
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

    /// Two overlapping ~80-element sets with moderate weights — the regime
    /// the paper's experiments run the estimator in.
    fn workload() -> (WeightedSet, WeightedSet) {
        let s = ws(&(0..80u64)
            .map(|k| (k, 0.2 + 0.8 * ((k * 37 % 11) as f64 / 11.0)))
            .collect::<Vec<_>>());
        let t = ws(&(40..120u64)
            .map(|k| (k, 0.2 + 0.8 * ((k * 17 % 13) as f64 / 13.0)))
            .collect::<Vec<_>>());
        (s, t)
    }

    #[test]
    fn reduction_keeps_max_and_is_monotone() {
        let g = GollapudiThreshold::new(1, 8);
        let s = ws(&[(1, 1.0), (2, 0.5), (3, 0.01)]);
        for d in 0..8 {
            let r = g.reduce(&s, d);
            assert!(r.contains(1), "max-weight element always kept (d={d})");
            // Shrinking sub-max weights can only shrink the kept support
            // (u_{d,k} shared, ratios only fall).
            let t = ws(&[(1, 1.0), (2, 0.25), (3, 0.005)]);
            let rt = g.reduce(&t, d);
            for &k in rt.indices() {
                assert!(r.contains(k), "monotone thresholding violated at {k} (d={d})");
            }
        }
    }

    #[test]
    fn retention_rate_matches_normalized_weight() {
        // Elements at half the max weight are kept ≈ half the time across
        // (element, d) pairs.
        let g = GollapudiThreshold::new(2, 16);
        let n = 2000u64;
        let pairs: Vec<(u64, f64)> = (0..n).map(|k| (k, if k == 0 { 1.0 } else { 0.5 })).collect();
        let s = ws(&pairs);
        let mut kept = 0usize;
        for d in 0..16 {
            kept += g.reduce(&s, d).len() - 1; // exclude the max element
        }
        let frac = kept as f64 / (16.0 * (n - 1) as f64);
        assert!((frac - 0.5).abs() < 0.02, "retention {frac}");
    }

    #[test]
    fn reductions_differ_across_hashes() {
        // Per-d thresholding: different d ⇒ (almost surely) different kept
        // support, which is what makes the D codes exchangeable.
        let g = GollapudiThreshold::new(3, 8);
        let (s, _) = workload();
        let r0 = g.reduce(&s, 0);
        let r1 = g.reduce(&s, 1);
        assert_ne!(r0, r1);
    }

    #[test]
    fn estimates_in_right_neighbourhood_but_biased() {
        let d = 2048;
        let g = GollapudiThreshold::new(4, d);
        let (s, t) = workload();
        let truth = generalized_jaccard(&s, &t);
        let est = g.sketch(&s).unwrap().estimate_similarity(&g.sketch(&t).unwrap());
        // Biased estimator: only require the right neighbourhood.
        assert!((est - truth).abs() < 0.2, "est {est} truth {truth}");
    }

    #[test]
    fn deterministic_and_empty_errors() {
        let g = GollapudiThreshold::new(5, 32);
        let s = ws(&[(1, 0.4), (9, 0.8)]);
        assert_eq!(g.sketch(&s).unwrap(), g.sketch(&s).unwrap());
        assert_eq!(g.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn scale_invariance_of_the_reduction() {
        // Normalization makes the reduction invariant to scaling the set.
        let g = GollapudiThreshold::new(6, 8);
        let s = ws(&[(1, 0.4), (2, 0.1), (3, 0.9)]);
        let s10 = s.scaled(10.0).expect("valid");
        for d in 0..8 {
            assert_eq!(g.reduce(&s, d), g.reduce(&s10, d));
        }
    }

    #[test]
    fn batch_override_matches_per_set_path() {
        let g = GollapudiThreshold::new(8, 64);
        let (s, t) = workload();
        let sets = vec![s, t, ws(&[(1, 0.4), (9, 0.8)])];
        let batched = g.sketch_batch(&sets).unwrap();
        for (set, b) in sets.iter().zip(&batched) {
            assert_eq!(&g.sketch(set).unwrap(), b, "batch diverged from sketch()");
        }
        assert!(g.sketch_batch(&[WeightedSet::empty()]).is_err());
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let g = GollapudiThreshold::new(7, 64);
        let (s, _) = workload();
        assert_eq!(g.sketch(&s).unwrap().estimate_similarity(&g.sketch(&s).unwrap()), 1.0);
    }
}
