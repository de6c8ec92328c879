//! \[Haveliwala et al., 2000\] (paper §3.1): quantize, round off, hash every
//! subelement.

use crate::quantization::{check_constant, check_subelement_budget, floor_quantize};
use crate::sketch::{check_out_len, pack3, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

/// The two-step decomposition of §3.1: *"(1) For the k-th element in S,
/// assign each subelement `(k, y_{k,i})` a hash value and find `(k, y_k)`
/// with the minimum hash value; (2) find `(k, y_k*)` with the minimum hash
/// value among `{(k, y_k)}`."*
///
/// Cost: one hash evaluation per subelement per hash function —
/// `O(D · C · Σ_k S_k)`. Elements whose scaled weight floors to zero vanish
/// entirely (the information loss the review attributes to rounding).
#[derive(Debug, Clone)]
pub struct Haveliwala {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    constant: f64,
}

impl Haveliwala {
    /// Catalog name.
    pub const NAME: &'static str = "Haveliwala2000";

    /// Create with quantization constant `C` (the paper's experiments use
    /// `C = 1000`).
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

    /// Minimum-hash subelement `(k, i)` and its hash value for hash
    /// function `d`, or `None` when every weight quantizes to zero.
    ///
    /// The per-element enumeration is capped at
    /// [`crate::quantization::MAX_SUBELEMENTS`] as defense-in-depth; the
    /// public [`Sketcher::sketch`] path has already rejected over-budget
    /// sets with a typed error before calling this, so the cap never bites
    /// there.
    #[must_use]
    pub fn min_subelement(&self, set: &WeightedSet, d: usize) -> Option<(u64, u64, u64)> {
        let mut best: Option<(u64, u64, u64)> = None;
        for (k, w) in set.iter() {
            let count = floor_quantize(w, self.constant).min(crate::quantization::MAX_SUBELEMENTS);
            for i in 0..count {
                let v = self.oracle.hash4(role::SUBELEMENT, d as u64, k, i);
                if best.is_none_or(|(bv, _, _)| v < bv) {
                    best = Some((v, k, i));
                }
            }
        }
        best.map(|(v, k, i)| (k, i, v))
    }
}

impl Sketcher for Haveliwala {
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
        check_subelement_budget(
            set.iter().map(|(_, w)| floor_quantize(w, self.constant)),
            "Haveliwala2000 subelement enumeration (C · Σ weights too large)",
        )?;
        // A set whose every weight floors to zero has an empty augmented
        // universe — the algorithm's documented failure mode for too-small C.
        for (d, slot) in out.iter_mut().enumerate() {
            match self.min_subelement(set, d) {
                Some((k, i, _)) => *slot = pack3(d as u64, k, i),
                None => {
                    return Err(SketchError::BadParameter {
                        what: "quantization constant C (all weights floor to zero)",
                        value: self.constant,
                    })
                }
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
    fn rejects_bad_constant() {
        assert!(Haveliwala::new(1, 8, 0.0).is_err());
        assert!(Haveliwala::new(1, 8, f64::NAN).is_err());
        assert!(Haveliwala::new(1, 8, 100.0).is_ok());
    }

    #[test]
    fn deterministic_and_self_similar() {
        let h = Haveliwala::new(1, 32, 50.0).unwrap();
        let s = ws(&[(1, 0.5), (2, 1.25)]);
        let a = h.sketch(&s).unwrap();
        let b = h.sketch(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.estimate_similarity(&b), 1.0);
    }

    #[test]
    fn all_zero_quantization_is_reported() {
        let h = Haveliwala::new(1, 4, 1.0).unwrap();
        let s = ws(&[(1, 0.3), (2, 0.9)]); // both floor to 0 at C=1
        assert!(matches!(h.sketch(&s), Err(SketchError::BadParameter { .. })));
    }

    #[test]
    fn empty_set_is_an_error() {
        let h = Haveliwala::new(1, 4, 10.0).unwrap();
        assert_eq!(h.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn integer_weights_estimate_generalized_jaccard() {
        // With integer weights and C = 1 quantization is exact, so the
        // estimator targets Eq. 2 itself.
        let d = 2048;
        let h = Haveliwala::new(7, d, 1.0).unwrap();
        let s = ws(&[(1, 2.0), (2, 1.0), (4, 3.0)]);
        let t = ws(&[(1, 1.0), (3, 2.0), (4, 4.0)]);
        let truth = generalized_jaccard(&s, &t); // 4/9
        let est = h.sketch(&s).unwrap().estimate_similarity(&h.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est} truth {truth}");
    }

    #[test]
    fn real_weights_estimate_with_large_constant() {
        let d = 1024;
        let h = Haveliwala::new(8, d, 200.0).unwrap();
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4)]);
        let truth = generalized_jaccard(&s, &t);
        let est = h.sketch(&s).unwrap().estimate_similarity(&h.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        // Quantization bias + sampling noise; allow a combined tolerance.
        assert!((est - truth).abs() < 5.0 * sd + 0.01, "est {est} truth {truth}");
    }

    #[test]
    fn rounding_loses_small_weights() {
        // An element below 1/C is invisible: sets differing only there
        // collide everywhere.
        let h = Haveliwala::new(9, 64, 10.0).unwrap();
        let s = ws(&[(1, 1.0), (2, 0.05)]);
        let t = ws(&[(1, 1.0)]);
        let est = h.sketch(&s).unwrap().estimate_similarity(&h.sketch(&t).unwrap());
        assert_eq!(est, 1.0, "sub-resolution weight should be rounded away");
    }

    #[test]
    fn astronomical_weights_error_instead_of_hanging() {
        // Regression: a weight near f64::MAX quantizes to u64::MAX
        // subelements; the old loop enumerated all of them (a multi-century
        // hang). Must now be a typed budget error, quickly.
        let h = Haveliwala::new(1, 4, 1000.0).unwrap();
        let s = ws(&[(1, 1e300)]);
        assert!(matches!(h.sketch(&s), Err(SketchError::BudgetExhausted { .. })));
    }

    #[test]
    fn min_subelement_is_within_quantized_range() {
        let h = Haveliwala::new(10, 1, 4.0).unwrap();
        let s = ws(&[(3, 1.0)]); // 4 subelements: i ∈ {0..3}
        let (k, i, _) = h.min_subelement(&s, 0).expect("non-empty");
        assert_eq!(k, 3);
        assert!(i < 4);
    }
}
