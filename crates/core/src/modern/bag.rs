//! BagMinHash \[Ertl, 2018\] (KDD; arXiv:1802.03914): element-major
//! float-decomposed Poisson sampling over a binary-tree hierarchy —
//! algorithm 15, beyond the paper's thirteen.
//!
//! Traverses the same consistent dart process as DartMinHash (module
//! docs) but **element-major**: elements are visited in descending weight
//! order, and each enumerates its own Poisson arrivals band by band
//! (float-decomposed: the ramp starts at the weight's [`first_band`]).
//! Per element the scan stops as soon as the next band's smallest
//! possible rank key `(band, 0, 0)` can no longer undercut any of the `D`
//! slot minima. That stopping rule needs the *maximum* over the current
//! slot minima, which a *binary tournament tree* over the slots maintains
//! in `O(log D)` per update — Ertl's `h_max` hierarchy. Pruning is
//! conservative (a skipped dart could never have won a slot), so the
//! result is the exact per-slot minimum over all accepted darts —
//! independent of visit order, and therefore of the weight sort.
//!
//! The heaviest element pays the `O(D log D)` coupon-collector fill;
//! later elements usually prune after a band or two, giving `O(n +
//! D log D)` expected cells. Codes are dart identities, so collision
//! probability is exactly generalized Jaccard (unbiased), and the
//! `BAG_*` hash roles are disjoint from the `DART_*` roles — the two
//! samplers are statistically independent implementations of the same
//! estimator, which the cross-algorithm agreement suite exploits.

use super::{
    decompose, first_band, DartRoles, DartThrower, DEFAULT_MODERN_PROBES, EMPTY_KEY, MIN_KEY,
};
use crate::sketch::{check_out_len, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

const ROLES: DartRoles = DartRoles {
    count: role::BAG_COUNT,
    pos: role::BAG_POS,
    rank: role::BAG_RANK,
    id: role::BAG_ID,
};

/// The BagMinHash sketcher.
#[derive(Debug, Clone)]
pub struct BagMinHash {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    max_probes: u64,
}

impl BagMinHash {
    /// Catalog name.
    pub const NAME: &'static str = "BagMinHash";

    /// Create a BagMinHash sketcher with the default probe budget.
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

impl Sketcher for BagMinHash {
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
        let (pairs, tree) = scratch.pairs_and_rank_keys();

        // Heaviest first: `!bits` reverses the order of positive floats, so
        // an ascending sort visits weights descending (ties by position).
        pairs.clear();
        for (pos, &x) in weights.iter().enumerate() {
            pairs.push((!x.to_bits(), pos as u64));
        }
        pairs.sort_unstable();

        // Tournament tree over the D slot minima: leaves `p .. p + D` hold
        // slot keys, padding leaves hold MIN_KEY, inner node = max of its
        // children, root `tree[1]` = max over all slots (EMPTY_KEY until
        // every slot has a dart).
        let leaves = self.num_hashes.next_power_of_two();
        tree.clear();
        tree.resize(2 * leaves, MIN_KEY);
        for slot in tree.iter_mut().skip(leaves).take(self.num_hashes) {
            *slot = EMPTY_KEY;
        }
        for parent in (1..leaves).rev() {
            tree[parent] = tree[2 * parent].max(tree[2 * parent + 1]);
        }

        let d_count = self.num_hashes as u64;
        let mut thrower =
            DartThrower::new(&self.oracle, &ROLES, self.max_probes, "BagMinHash cell probes");
        for &(_, pos) in pairs.iter() {
            let pos = pos as usize;
            let (mantissa, e) = decompose(weights[pos])?;
            let mut band = first_band(e);
            // Prune: band k's smallest conceivable key is (k, 0, 0); once
            // it can't beat the worst slot minimum, no later dart can win.
            while (band, 0, 0) < tree[1] {
                thrower.visit_band(indices[pos], mantissa, band, e + band, |rank, id| {
                    let key = (band, rank, id);
                    let mut node = leaves + (id % d_count) as usize;
                    if key < tree[node] {
                        tree[node] = key;
                        // Bubble the shrunken maximum toward the root,
                        // stopping at the first unchanged ancestor.
                        while node > 1 {
                            node /= 2;
                            let v = tree[2 * node].max(tree[2 * node + 1]);
                            if tree[node] == v {
                                break;
                            }
                            tree[node] = v;
                        }
                    }
                })?;
                band += 1;
            }
        }
        for (slot, key) in out.iter_mut().zip(tree.iter().skip(leaves)) {
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
        let b = BagMinHash::new(5, 16);
        assert_eq!(b.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
        let s = ws(&[(7, 0.4), (9, 2.5)]);
        assert_eq!(b.sketch(&s).unwrap(), b.sketch(&s).unwrap());
        assert_ne!(b.sketch(&s).unwrap(), BagMinHash::new(6, 16).sketch(&s).unwrap());
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let b = BagMinHash::new(1, 64);
        let s = ws(&[(1, 0.3), (2, 1.7), (40, 0.01)]);
        let a = b.sketch(&s).unwrap();
        assert_eq!(a.estimate_similarity(&a), 1.0);
    }

    #[test]
    fn result_is_independent_of_visit_order() {
        // The pruning rule is conservative, so sets differing only in how
        // the weight sort tie-breaks produce identical slot minima. Here:
        // same multiset of (index, weight) pairs inserted in two layouts.
        let b = BagMinHash::new(11, 32);
        let a = ws(&[(1, 0.5), (2, 0.5), (3, 1.25)]);
        let c = WeightedSet::from_pairs([(3, 1.25), (1, 0.5), (2, 0.5)]).expect("valid");
        assert_eq!(b.sketch(&a).unwrap(), b.sketch(&c).unwrap());
    }

    #[test]
    fn estimates_generalized_jaccard() {
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.28), (3, 0.5), (8, 1.5), (11, 0.2)]);
        let truth = generalized_jaccard(&s, &t);
        let (d, reps) = (128_usize, 24_u64);
        let mut sum = 0.0;
        for rep in 0..reps {
            let bag = BagMinHash::new(0xBA6 ^ rep, d);
            sum += bag.sketch(&s).unwrap().estimate_similarity(&bag.sketch(&t).unwrap());
        }
        let est = sum / reps as f64;
        let se = (truth * (1.0 - truth) / (reps as f64 * d as f64)).sqrt();
        assert!((est - truth).abs() < 4.0 * se, "est {est}, truth {truth}, se {se}");
    }

    #[test]
    fn agrees_with_dart_minhash() {
        // Independent implementations of the same estimator: both within
        // 4·SE of the truth on a shared workload.
        let s = ws(&[(2, 1.0), (5, 0.25), (9, 3.0), (12, 0.125)]);
        let t = ws(&[(2, 0.75), (5, 0.25), (9, 3.5)]);
        let truth = generalized_jaccard(&s, &t);
        let d = 512;
        let bag = BagMinHash::new(77, d);
        let dart = super::super::DartMinHash::new(77, d);
        let eb = bag.sketch(&s).unwrap().estimate_similarity(&bag.sketch(&t).unwrap());
        let ed = dart.sketch(&s).unwrap().estimate_similarity(&dart.sketch(&t).unwrap());
        let se = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((eb - truth).abs() < 4.0 * se, "bag {eb} vs truth {truth}");
        assert!((ed - truth).abs() < 4.0 * se, "dart {ed} vs truth {truth}");
    }

    #[test]
    fn batch_matches_single() {
        let b = BagMinHash::new(9, 32);
        let sets = [ws(&[(1, 1.0)]), ws(&[(2, 3e-300), (5, 1.0)]), ws(&[(3, 1e300), (900, 0.125)])];
        let batch = b.sketch_batch(&sets).unwrap();
        for (set, row) in sets.iter().zip(&batch) {
            assert_eq!(row.codes, b.sketch(set).unwrap().codes);
        }
    }

    #[test]
    fn extreme_weights_stay_in_budget() {
        let b = BagMinHash::new(3, 8);
        for &w in &[f64::MIN_POSITIVE, 2.3e-308, 1e-100, 1.0, 1e100, 1e308, f64::MAX] {
            let sk = b.sketch(&ws(&[(1, w)])).unwrap();
            assert_eq!(sk.codes.len(), 8);
        }
        b.sketch(&ws(&[(1, 3e-308), (2, 1e308), (5, 1.0)])).unwrap();
    }

    #[test]
    fn budget_exhaustion_is_typed_with_spent_context() {
        let b = BagMinHash::new(4, 64).with_max_probes(5);
        let err = b.sketch(&ws(&[(1, 1.0), (2, 2.0)])).expect_err("budget too small");
        assert_eq!(err, SketchError::BudgetExhausted { what: "BagMinHash cell probes", spent: 5 });
    }

    #[test]
    fn non_power_of_two_widths_work() {
        // Tree padding leaves must never win: D = 5 pads to 8 leaves.
        let b = BagMinHash::new(21, 5);
        let s = ws(&[(1, 0.9), (4, 2.0)]);
        let sk = b.sketch(&s).unwrap();
        assert_eq!(sk.codes.len(), 5);
        assert!(sk.codes.iter().all(|&c| c != u64::MAX), "unfilled slot leaked a sentinel");
    }
}
