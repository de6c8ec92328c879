//! DartMinHash \[Christiani, 2020\] (arXiv:2005.11547): band-major dart
//! throwing — algorithm 14, beyond the paper's thirteen.
//!
//! One pass over the shared dyadic dart process (module docs) in **global
//! band order**: ranks ascend `…, [2ᵏ, 2ᵏ⁺¹), [2ᵏ⁺¹, 2ᵏ⁺²), …`, so every
//! dart seen in band `k` outranks every dart of any later band. Each
//! accepted dart hashes by identity into one of the `D` buckets and
//! competes for the bucket minimum; the sketch is complete at the end of
//! the first band in which all `D` buckets are occupied. Elements enter
//! the scan lazily at their [`first_band`] (sorted once into the scratch
//! pair buffer), so the expected cost is `O(n + D log D)` cells —
//! independent of `D` per element, which is what lets it overtake the
//! `O(n·D)` interval-walk samplers at large `D`. The repository
//! benchmark's traced run times it against the whole catalog as
//! `core.batch_ns_per_doc.dart` (EXPERIMENTS.md, "Beyond the paper").
//!
//! Codes are dart identities: two sets emit the same code in a bucket iff
//! the same accepted dart wins for both, which happens with probability
//! exactly the generalized Jaccard similarity (unbiased; see module docs
//! for the `2⁻⁴⁰`-scale grid caveats).

use super::{decompose, first_band, DartRoles, DartThrower, DEFAULT_MODERN_PROBES, EMPTY_KEY};
use crate::sketch::{check_out_len, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

const ROLES: DartRoles = DartRoles {
    count: role::DART_COUNT,
    pos: role::DART_POS,
    rank: role::DART_RANK,
    id: role::DART_ID,
};

/// Bands span `[-1076, 969]` (see [`first_band`]); shifting by 2048 maps
/// them into `u64` order-preservingly for the scratch sort.
fn encode_band(band: i64) -> u64 {
    (band + 2048) as u64
}

fn decode_band(code: u64) -> i64 {
    code as i64 - 2048
}

/// The DartMinHash sketcher.
#[derive(Debug, Clone)]
pub struct DartMinHash {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    max_probes: u64,
}

impl DartMinHash {
    /// Catalog name.
    pub const NAME: &'static str = "DartMinHash";

    /// Create a DartMinHash sketcher with the default probe budget.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self { oracle: SeededHash::new(seed), seed, num_hashes, max_probes: DEFAULT_MODERN_PROBES }
    }

    /// Override the cell-probe budget (floored at 1); exhaustion surfaces
    /// as [`SketchError::BudgetExhausted`].
    #[must_use]
    pub fn with_max_probes(mut self, max_probes: u64) -> Self {
        self.max_probes = max_probes.max(1);
        self
    }
}

impl Sketcher for DartMinHash {
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
        if self.num_hashes == 0 {
            return Ok(());
        }
        let indices = set.indices();
        let weights = set.weights();
        let (pairs, buckets) = scratch.pairs_and_rank_keys();

        // Entry order: each element joins the band scan at its first
        // acceptance-capable band.
        pairs.clear();
        for (pos, &x) in weights.iter().enumerate() {
            let (_, e) = decompose(x)?;
            pairs.push((encode_band(first_band(e)), pos as u64));
        }
        pairs.sort_unstable();
        let Some(&(start, _)) = pairs.first() else {
            return Err(SketchError::EmptySet);
        };

        buckets.clear();
        buckets.resize(self.num_hashes, EMPTY_KEY);
        let d_count = self.num_hashes as u64;
        let mut filled = 0_usize;
        let mut thrower =
            DartThrower::new(&self.oracle, &ROLES, self.max_probes, "DartMinHash cell probes");
        let mut active = 0_usize;
        let mut band = decode_band(start);
        loop {
            while active < pairs.len() && decode_band(pairs[active].0) <= band {
                active += 1;
            }
            for &(_, pos) in pairs.iter().take(active) {
                let pos = pos as usize;
                let (mantissa, e) = decompose(weights[pos])?;
                thrower.visit_band(indices[pos], mantissa, band, e + band, |rank, id| {
                    let key = (band, rank, id);
                    let slot = &mut buckets[(id % d_count) as usize];
                    if key < *slot {
                        if *slot == EMPTY_KEY {
                            filled += 1;
                        }
                        *slot = key;
                    }
                })?;
            }
            if filled == self.num_hashes {
                // Darts of later bands have strictly larger ranks; every
                // bucket minimum is final.
                break;
            }
            band += 1;
        }
        for (slot, key) in out.iter_mut().zip(buckets.iter()) {
            *slot = key.2;
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
    fn empty_errors_and_determinism() {
        let d = DartMinHash::new(5, 16);
        assert_eq!(d.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
        let s = ws(&[(7, 0.4), (9, 2.5)]);
        assert_eq!(d.sketch(&s).unwrap(), d.sketch(&s).unwrap());
        assert_ne!(d.sketch(&s).unwrap(), DartMinHash::new(6, 16).sketch(&s).unwrap());
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let d = DartMinHash::new(1, 64);
        let s = ws(&[(1, 0.3), (2, 1.7), (40, 0.01)]);
        let a = d.sketch(&s).unwrap();
        assert_eq!(a.estimate_similarity(&a), 1.0);
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        let d = DartMinHash::new(2, 256);
        let a = d.sketch(&ws(&[(1, 1.0), (2, 0.5)])).unwrap();
        let b = d.sketch(&ws(&[(3, 1.0), (4, 0.5)])).unwrap();
        assert!(a.estimate_similarity(&b) < 0.05);
    }

    #[test]
    fn estimates_generalized_jaccard() {
        // Mean collision rate over independent seeds ≈ genJ within 4·SE.
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.28), (3, 0.5), (8, 1.5), (11, 0.2)]);
        let truth = generalized_jaccard(&s, &t);
        let (d, reps) = (128_usize, 24_u64);
        let mut sum = 0.0;
        for rep in 0..reps {
            let dart = DartMinHash::new(0xDA27 ^ rep, d);
            sum += dart.sketch(&s).unwrap().estimate_similarity(&dart.sketch(&t).unwrap());
        }
        let est = sum / reps as f64;
        let se = (truth * (1.0 - truth) / (reps as f64 * d as f64)).sqrt();
        assert!((est - truth).abs() < 4.0 * se, "est {est}, truth {truth}, se {se}");
    }

    #[test]
    fn batch_matches_single() {
        let d = DartMinHash::new(9, 32);
        let sets = [ws(&[(1, 1.0)]), ws(&[(2, 3e-300), (5, 1.0)]), ws(&[(3, 1e300), (900, 0.125)])];
        let batch = d.sketch_batch(&sets).unwrap();
        for (set, row) in sets.iter().zip(&batch) {
            assert_eq!(row.codes, d.sketch(set).unwrap().codes);
        }
    }

    #[test]
    fn extreme_weights_stay_in_budget() {
        // The float ramp starts at first_band(e): magnitudes never inflate
        // the probe count.
        let d = DartMinHash::new(3, 8);
        for &w in &[f64::MIN_POSITIVE, 2.3e-308, 1e-100, 1.0, 1e100, 1e308, f64::MAX] {
            let sk = d.sketch(&ws(&[(1, w)])).unwrap();
            assert_eq!(sk.codes.len(), 8);
        }
        // Mixed magnitudes in one set.
        d.sketch(&ws(&[(1, 3e-308), (2, 1e308), (5, 1.0)])).unwrap();
    }

    #[test]
    fn budget_exhaustion_is_typed_with_spent_context() {
        let d = DartMinHash::new(4, 64).with_max_probes(5);
        let err = d.sketch(&ws(&[(1, 1.0), (2, 2.0)])).expect_err("budget too small");
        assert_eq!(err, SketchError::BudgetExhausted { what: "DartMinHash cell probes", spent: 5 });
    }

    #[test]
    fn weight_perturbation_changes_few_buckets() {
        // Consistency: scaling one element slightly only re-aims the darts
        // whose acceptance flips — most buckets keep their winner.
        let d = DartMinHash::new(8, 256);
        let a = d.sketch(&ws(&[(1, 1.0), (2, 2.0), (3, 0.5)])).unwrap();
        let b = d.sketch(&ws(&[(1, 1.0), (2, 2.2), (3, 0.5)])).unwrap();
        let sim = a.estimate_similarity(&b);
        assert!(sim > 0.85, "small perturbation should keep most winners: {sim}");
    }
}
