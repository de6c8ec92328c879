//! \[Gollapudi et al., 2006\](1) (paper §4.1): active indices with geometric
//! skipping.
//!
//! The weighted element is quantized into unit subelements as in
//! [Haveliwala et al., 2000], but instead of hashing every subelement, the
//! algorithm walks only the *active indices* — the subsequence of
//! subelements whose hash values are monotonically decreasing from bottom to
//! top. Between two adjacent active indices the number of skipped
//! subelements follows a geometric distribution with parameter equal to the
//! current minimum hash value (the Bernoulli-trial argument of §4.1), so the
//! per-element cost drops from `O(C·S_k)` to `O(log(C·S_k))` expected.

use crate::quantization::{check_constant, floor_quantize};
use crate::sketch::{check_out_len, pack3, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

/// Safety cap on active-index walk length (expected length is the harmonic
/// number `H_w ≤ 44` even for `w = u64::MAX`).
const MAX_WALK: u32 = 100_000;

/// The accelerated integer-weight algorithm of \[Gollapudi et al., 2006\](1).
///
/// Statistically identical to [`crate::quantization::Haveliwala`] (the
/// review: *"it can be considered as the accelerated version"*) but
/// exponentially cheaper per element.
#[derive(Debug, Clone)]
pub struct GollapudiSkip {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    constant: f64,
}

/// One element's walk outcome: the last active index below the weight and
/// its hash value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveWalk {
    /// The largest active index `< W_k` (the paper's `y_k`).
    pub index: u64,
    /// Its hash value — the minimum over all `W_k` subelements.
    pub value: f64,
    /// Number of active indices visited (the walk length; `O(log W_k)`
    /// expected — asserted by the tests).
    pub steps: u32,
}

impl GollapudiSkip {
    /// Catalog name.
    pub const NAME: &'static str = "Gollapudi2006-Active";

    /// Create with quantization constant `C` (real-valued weights are first
    /// scaled by `C` and floored, exactly as in §4.1's preprocessing row of
    /// Table 2).
    ///
    /// # Errors
    /// [`SketchError::BadParameter`] for a non-finite or non-positive `C`.
    pub fn new(seed: u64, num_hashes: usize, constant: f64) -> Result<Self, SketchError> {
        check_constant(constant)?;
        Ok(Self { oracle: SeededHash::new(seed), seed, num_hashes, constant })
    }

    /// The quantization constant `C`.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Walk the active indices of element `k` with integer weight `w`
    /// (number of unit subelements) under hash function `d`.
    ///
    /// The chain starts at subelement 0 and is a pure function of
    /// `(seed, d, k, index)`, so every set containing element `k` walks the
    /// *same* chain and merely stops at its own weight — the consistency
    /// property of §4.3 ("\[Gollapudi et al., 2006\](1) traverses active
    /// indices from 0").
    ///
    /// Returns `None` for `w == 0`.
    #[must_use]
    pub fn walk(&self, d: usize, k: u64, w: u64) -> Option<ActiveWalk> {
        if w == 0 {
            return None;
        }
        let d = d as u64;
        let mut index = 0u64;
        let mut value = self.oracle.unit4(role::ACTIVE_VALUE, d, k, 0);
        let mut steps = 1u32;
        loop {
            if steps >= MAX_WALK {
                // Unreachable without ~1e5 consecutive near-1.0 hash draws
                // (expected length is H_w ≤ 44 even at w = u64::MAX); accept
                // the current record rather than crawl on.
                return Some(ActiveWalk { index, value, steps });
            }
            // Geometric skip: failures before the next subelement whose hash
            // beats `value` (success probability = `value`).
            let u = self.oracle.unit4(role::SKIP, d, k, index);
            let failures = wmh_rng::geometric_from_unit(u, value);
            let next = index.saturating_add(1).saturating_add(failures);
            if next >= w {
                return Some(ActiveWalk { index, value, steps });
            }
            index = next;
            // The beating hash value is uniform on (0, value); the clamp
            // keeps it a valid geometric parameter even if the product
            // underflows (astronomically improbable, but it must not turn
            // the next skip into a one-subelement crawl).
            value =
                (value * self.oracle.unit4(role::ACTIVE_VALUE, d, k, index)).max(f64::MIN_POSITIVE);
            steps += 1;
        }
    }
}

impl Sketcher for GollapudiSkip {
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
        // The floor-quantized working set lives in the scratch's pair
        // buffer — the per-call `Vec` this kernel used to allocate.
        let quantized = scratch.pairs();
        quantized.clear();
        quantized.extend(
            set.iter().map(|(k, w)| (k, floor_quantize(w, self.constant))).filter(|&(_, w)| w > 0),
        );
        if quantized.is_empty() {
            return Err(SketchError::BadParameter {
                what: "quantization constant C (all weights floor to zero)",
                value: self.constant,
            });
        }
        for (d, slot) in out.iter_mut().enumerate() {
            let mut best: Option<(f64, u64, u64)> = None;
            for &(k, w) in quantized.iter() {
                // `quantized` keeps only w > 0, for which walk() is Some.
                let Some(walk) = self.walk(d, k, w) else { continue };
                if best.is_none_or(|(bv, _, _)| walk.value < bv) {
                    best = Some((walk.value, k, walk.index));
                }
            }
            // `quantized` verified non-empty above.
            let Some((_, k, i)) = best else {
                return Err(SketchError::EmptySet);
            };
            *slot = pack3(d as u64, k, i);
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
    fn walk_is_consistent_prefix_of_longer_walks() {
        // A set with a smaller weight must see a prefix of the same chain:
        // if its last active index is also < the larger weight's last index,
        // both values agree at that index.
        let g = GollapudiSkip::new(1, 1, 1.0).unwrap();
        for k in 0..50u64 {
            let short = g.walk(0, k, 10).expect("w > 0");
            let long = g.walk(0, k, 1000).expect("w > 0");
            assert!(long.value <= short.value, "min can only decrease with weight");
            if long.index < 10 {
                // Chain never advanced past the short weight: identical.
                assert_eq!(short, long);
            }
        }
    }

    #[test]
    fn walk_value_matches_min_of_uniform_subelement_hashes() {
        // The walk's value must equal the chain-derived minimum over all w
        // subelements — verify the record structure: each step's value is
        // strictly below the previous and index strictly increases.
        let g = GollapudiSkip::new(2, 1, 1.0).unwrap();
        let w = 10_000u64;
        let walk = g.walk(0, 7, w).expect("w > 0");
        assert!(walk.index < w);
        assert!(walk.value > 0.0 && walk.value < 1.0);
    }

    #[test]
    fn walk_length_is_logarithmic() {
        // Expected number of active indices in w subelements is H_w ≈ ln w.
        let g = GollapudiSkip::new(3, 1, 1.0).unwrap();
        let w = 100_000u64;
        let mean_steps: f64 =
            (0..200u64).map(|k| f64::from(g.walk(0, k, w).expect("w > 0").steps)).sum::<f64>()
                / 200.0;
        let hw = (w as f64).ln() + 0.5772;
        assert!((mean_steps - hw).abs() < 0.25 * hw, "mean steps {mean_steps}, harmonic {hw}");
    }

    #[test]
    fn min_value_distribution_is_min_of_w_uniforms() {
        // P(min of w uniforms > t) = (1-t)^w; check the median.
        let g = GollapudiSkip::new(4, 1, 1.0).unwrap();
        let w = 64u64;
        let n = 4000u64;
        let median_target = 1.0 - 0.5f64.powf(1.0 / w as f64);
        let below =
            (0..n).filter(|&k| g.walk(0, k, w).expect("w > 0").value < median_target).count();
        let z = wmh_rng::stats::binomial_z(below as u64, n, 0.5);
        assert!(z.abs() < 5.0, "z = {z}");
    }

    #[test]
    fn integer_weights_estimate_generalized_jaccard() {
        let d = 2048;
        let g = GollapudiSkip::new(5, d, 1.0).unwrap();
        let s = ws(&[(1, 2.0), (2, 1.0), (4, 3.0)]);
        let t = ws(&[(1, 1.0), (3, 2.0), (4, 4.0)]);
        let truth = generalized_jaccard(&s, &t); // 4/9
        let est = g.sketch(&s).unwrap().estimate_similarity(&g.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est} truth {truth}");
    }

    #[test]
    fn real_weights_with_constant_estimate_generalized_jaccard() {
        let d = 1024;
        let g = GollapudiSkip::new(6, d, 500.0).unwrap();
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4)]);
        let truth = generalized_jaccard(&s, &t);
        let est = g.sketch(&s).unwrap().estimate_similarity(&g.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd + 0.01, "est {est} truth {truth}");
    }

    #[test]
    fn errors_on_empty_and_all_zero() {
        let g = GollapudiSkip::new(7, 4, 1.0).unwrap();
        assert_eq!(g.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
        assert!(matches!(g.sketch(&ws(&[(1, 0.4)])), Err(SketchError::BadParameter { .. })));
        assert!(GollapudiSkip::new(7, 4, f64::NAN).is_err());
    }

    #[test]
    fn astronomical_weights_walk_in_logarithmic_time() {
        // The skip structure makes u64::MAX-subelement weights cheap —
        // unlike the quantization family, no budget error is needed here.
        let g = GollapudiSkip::new(9, 8, 1000.0).unwrap();
        let walk = g.walk(0, 1, u64::MAX).expect("w > 0");
        assert!(walk.steps < 200, "walk length {} not logarithmic", walk.steps);
        let s = ws(&[(1, 1e300), (2, f64::MAX)]);
        let sk = g.sketch(&s).expect("extreme weights sketch fine");
        assert_eq!(sk.codes.len(), 8);
    }

    #[test]
    fn identical_sets_always_collide() {
        let g = GollapudiSkip::new(8, 64, 100.0).unwrap();
        let s = ws(&[(1, 0.5), (9, 2.5)]);
        assert_eq!(g.sketch(&s).unwrap().estimate_similarity(&g.sketch(&s).unwrap()), 1.0);
    }
}
