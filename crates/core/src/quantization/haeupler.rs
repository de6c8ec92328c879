//! \[Haeupler et al., 2014\] (paper §3.2): quantize, keep the fractional
//! part with probability equal to its value.

use crate::quantization::{check_constant, check_subelement_budget, floor_quantize};
use crate::sketch::{check_out_len, pack3, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

/// Like [`crate::quantization::Haveliwala`], but the remaining fractional
/// part of each scaled weight is *"preserved with probability being exactly
/// equal to the value of the remaining float part"* — decided by a uniform
/// draw *seeded with the element* (paper §3.2), so the decision is
/// consistent across sets: a set with a larger fractional part at the same
/// quantization level always keeps a superset of subelements.
#[derive(Debug, Clone)]
pub struct Haeupler {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    constant: f64,
}

impl Haeupler {
    /// Catalog name.
    pub const NAME: &'static str = "Haeupler2014";

    /// Create with quantization constant `C`.
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

    /// Effective subelement count for element `k` with weight `w`:
    /// `⌊C·w⌋` plus one more iff the element-seeded uniform draw falls below
    /// the fractional part.
    ///
    /// Monotone in `w` for fixed `k` (larger weights keep a superset), which
    /// is the consistency property the rounding needs.
    #[must_use]
    pub fn effective_count(&self, k: u64, w: f64) -> u64 {
        let whole = floor_quantize(w, self.constant);
        let frac = (w * self.constant) - whole as f64;
        // One global draw per (element, quantization level): independent of
        // d, so the rounded set is fixed for the whole fingerprint.
        let u = self.oracle.unit2(role::FRACTION, wmh_hash::mix::combine(k, whole));
        if u < frac {
            // Saturate: `whole` is already clamped to u64::MAX for weights
            // whose scaled value exceeds the integer range, and `frac` is
            // then meaningless anyway (the budget check rejects such sets).
            whole.saturating_add(1)
        } else {
            whole
        }
    }
}

impl Sketcher for Haeupler {
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
        // Round once (not per d): the algorithm sketches the rounded set.
        let counts = scratch.pairs();
        counts.clear();
        counts.extend(
            set.iter().map(|(k, w)| (k, self.effective_count(k, w))).filter(|&(_, c)| c > 0),
        );
        if counts.is_empty() {
            return Err(SketchError::BadParameter {
                what: "quantization constant C (all weights rounded to zero)",
                value: self.constant,
            });
        }
        check_subelement_budget(
            counts.iter().map(|&(_, c)| c),
            "Haeupler2014 subelement enumeration (C · Σ weights too large)",
        )?;
        for (d, slot) in out.iter_mut().enumerate() {
            let mut best: Option<(u64, u64, u64)> = None;
            for &(k, count) in counts.iter() {
                for i in 0..count {
                    // Same subelement role/coordinates as Haveliwala: the two
                    // algorithms share the augmented universe's randomness,
                    // differing only in which subelements exist.
                    let v = self.oracle.hash4(role::SUBELEMENT, d as u64, k, i);
                    if best.is_none_or(|(bv, _, _)| v < bv) {
                        best = Some((v, k, i));
                    }
                }
            }
            // `counts` is non-empty with every count ≥ 1, so the scan above
            // always found a subelement.
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
    fn rejects_bad_constant_and_empty_set() {
        assert!(Haeupler::new(1, 8, -1.0).is_err());
        let h = Haeupler::new(1, 8, 10.0).unwrap();
        assert_eq!(h.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn effective_count_brackets_scaled_weight() {
        let h = Haeupler::new(2, 1, 10.0).unwrap();
        for k in 0..200 {
            let c = h.effective_count(k, 0.47); // scaled 4.7
            assert!(c == 4 || c == 5, "count {c}");
        }
    }

    #[test]
    fn fractional_retention_frequency_matches_fraction() {
        // Across many elements, the fraction kept should ≈ the fractional
        // part (0.7 here).
        let h = Haeupler::new(3, 1, 10.0).unwrap();
        let n = 20_000u64;
        let kept = (0..n).filter(|&k| h.effective_count(k, 0.47) == 5).count() as f64;
        let frac = kept / n as f64;
        assert!((frac - 0.7).abs() < 0.02, "retention rate {frac}");
    }

    #[test]
    fn retention_is_monotone_in_weight() {
        // Same element, larger fractional part at the same level ⇒ count can
        // only grow (consistency of the rounding).
        let h = Haeupler::new(4, 1, 10.0).unwrap();
        for k in 0..500 {
            let lo = h.effective_count(k, 0.42); // 4.2
            let hi = h.effective_count(k, 0.48); // 4.8
            assert!(hi >= lo, "element {k}: {hi} < {lo}");
        }
    }

    #[test]
    fn integer_weights_match_haveliwala_exactly() {
        // No fractional part ⇒ identical augmented universe, identical
        // randomness roles ⇒ identical codes.
        use crate::quantization::Haveliwala;
        let s = ws(&[(1, 2.0), (5, 3.0)]);
        let hae = Haeupler::new(6, 64, 1.0).unwrap();
        let hav = Haveliwala::new(6, 64, 1.0).unwrap();
        assert_eq!(hae.sketch(&s).unwrap().codes, hav.sketch(&s).unwrap().codes);
    }

    #[test]
    fn estimates_generalized_jaccard_on_real_weights() {
        let d = 1024;
        let h = Haeupler::new(7, d, 100.0).unwrap();
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4)]);
        let truth = generalized_jaccard(&s, &t);
        let est = h.sketch(&s).unwrap().estimate_similarity(&h.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd + 0.02, "est {est} truth {truth}");
    }

    #[test]
    fn astronomical_weights_error_instead_of_hanging() {
        let h = Haeupler::new(1, 4, 1000.0).unwrap();
        let s = ws(&[(1, 1e300), (2, 0.5)]);
        assert!(matches!(h.sketch(&s), Err(SketchError::BudgetExhausted { .. })));
    }

    #[test]
    fn small_weights_survive_probabilistically() {
        // Unlike Haveliwala, sub-resolution weights are kept for a fraction
        // of elements, so a set of many tiny weights still sketches.
        let h = Haeupler::new(8, 16, 1.0).unwrap();
        let s = ws(&(0..100u64).map(|k| (k, 0.6)).collect::<Vec<_>>());
        let sk = h.sketch(&s).expect("some elements retained");
        assert_eq!(sk.len(), 16);
    }
}
