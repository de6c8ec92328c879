//! The standard MinHash algorithm (paper Definition 7, §2.2).
//!
//! MinHash treats the input as a *binary* set: applied to a weighted set it
//! simply discards the weights (the review's method 1 in §6.2), which is
//! exactly why it performs worst in Figure 8 — "serious information loss".

use crate::sketch::{check_out_len, pack2, SketchError, SketchScratch, Sketcher};
use wmh_hash::tabulation::TabulationHash;
use wmh_hash::{MersennePermutation, SeededHash};
use wmh_sets::WeightedSet;

/// Which permutation family emulates the random permutation `π_d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PermutationKind {
    /// Full 64-bit avalanche mixing per `(d, k)` — behaves as a fresh random
    /// function for each `d` and is min-wise independent in practice.
    /// The default.
    #[default]
    Mixed,
    /// The paper's historical family `π_d(i) = (a_d·i + b_d) mod p` over the
    /// Mersenne prime `2^61 − 1`. Only 2-universal: *not* min-wise
    /// independent (see `wmh-hash` tests), provided for faithfulness and for
    /// the ablation bench that measures its bias.
    Linear,
    /// Simple tabulation hashing (3-independent, min-wise independent up to
    /// `O(1/√|S|)` bias; Pătraşcu & Thorup 2012). Heavier setup (16 KiB of
    /// tables per hash function).
    Tabulation,
}

/// Standard MinHash: `D` permutations, code `d` = argmin element of `π_d`
/// over the support.
///
/// ```
/// use wmh_core::{Sketcher, minhash::MinHash};
/// use wmh_sets::WeightedSet;
/// let mh = MinHash::new(7, 1024);
/// let s = WeightedSet::binary(0..60).unwrap();
/// let t = WeightedSet::binary(30..90).unwrap();
/// let est = mh.sketch(&s).unwrap().estimate_similarity(&mh.sketch(&t).unwrap());
/// assert!((est - 1.0 / 3.0).abs() < 0.1); // |∩|/|∪| = 30/90
/// ```
#[derive(Debug, Clone)]
pub struct MinHash {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    kind: PermutationKind,
    /// Pre-built per-`d` state for the non-default families.
    linear: Vec<MersennePermutation>,
    tabulation: Vec<TabulationHash>,
}

impl MinHash {
    /// Catalog name.
    pub const NAME: &'static str = "MinHash";

    /// MinHash with `num_hashes` mixed-permutation hash functions.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self::with_permutation(seed, num_hashes, PermutationKind::default())
    }

    /// MinHash with an explicit permutation family.
    #[must_use]
    pub fn with_permutation(seed: u64, num_hashes: usize, kind: PermutationKind) -> Self {
        let oracle = SeededHash::new(seed);
        let linear = match kind {
            PermutationKind::Linear => {
                (0..num_hashes as u64).map(|d| MersennePermutation::new(&oracle, d)).collect()
            }
            _ => Vec::new(),
        };
        let tabulation = match kind {
            PermutationKind::Tabulation => {
                (0..num_hashes as u64).map(|d| TabulationHash::new(&oracle, d)).collect()
            }
            _ => Vec::new(),
        };
        Self { oracle, seed, num_hashes, kind, linear, tabulation }
    }

    /// The configured permutation family.
    #[must_use]
    pub fn permutation_kind(&self) -> PermutationKind {
        self.kind
    }

    /// The argmin element (the paper's MinHash value) of permutation `d`
    /// over the support of `set`, or `None` when the set is empty or `d ≥ D`
    /// for a table-backed permutation family.
    #[must_use]
    pub fn min_element(&self, set: &WeightedSet, d: usize) -> Option<u64> {
        let indices = set.indices();
        match self.kind {
            PermutationKind::Mixed => {
                indices.iter().copied().min_by_key(|&k| self.oracle.hash2(d as u64, k))
            }
            PermutationKind::Linear => {
                let p = self.linear.get(d)?;
                indices.iter().copied().min_by_key(|&k| p.apply(k))
            }
            PermutationKind::Tabulation => {
                let t = self.tabulation.get(d)?;
                indices.iter().copied().min_by_key(|&k| t.hash(k))
            }
        }
    }
}

impl Sketcher for MinHash {
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
        let indices = set.indices();
        if indices.is_empty() {
            return Err(SketchError::EmptySet);
        }
        // MinHash is a pure hash race: the hash is cheap enough that a
        // buffered fill-then-scan pass loses to a fused one (the lane
        // round-trip costs more than the hoisted combine saves), so each
        // family runs hash + branchless first-minimal select in one pass.
        // `best_h` starts at `u64::MAX` with `best_k = indices[0]`, so the
        // strict `<` keeps the FIRST minimal key even when every hash is
        // `u64::MAX` — matching the scalar `min_by_key` tie-break.
        #[inline]
        fn race(indices: &[u64], hash: impl Fn(u64) -> u64) -> u64 {
            let mut best_h = u64::MAX;
            let mut best_k = indices[0];
            for &k in indices {
                let h = hash(k);
                let better = h < best_h;
                best_h = if better { h } else { best_h };
                best_k = if better { k } else { best_k };
            }
            best_k
        }
        match self.kind {
            PermutationKind::Mixed => {
                for (d, slot) in out.iter_mut().enumerate() {
                    // One combine hoisted per `d`; `finish` is bit-identical
                    // to the scalar `hash2(d, k)` call.
                    let pfx = self.oracle.prefix1(d as u64);
                    *slot = pack2(d as u64, race(indices, |k| pfx.finish(k)));
                }
            }
            PermutationKind::Linear => {
                for (d, slot) in out.iter_mut().enumerate() {
                    let p = &self.linear[d];
                    *slot = pack2(d as u64, race(indices, |k| p.apply(k)));
                }
            }
            PermutationKind::Tabulation => {
                for (d, slot) in out.iter_mut().enumerate() {
                    let t = &self.tabulation[d];
                    *slot = pack2(d as u64, race(indices, |k| t.hash(k)));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_sets::jaccard;

    fn binary(support: &[u64]) -> WeightedSet {
        WeightedSet::binary(support.iter().copied()).expect("valid")
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let mh = MinHash::new(1, 64);
        let s = binary(&[1, 5, 9, 42]);
        let a = mh.sketch(&s).unwrap();
        let b = mh.sketch(&s).unwrap();
        assert_eq!(a.estimate_similarity(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        let mh = MinHash::new(2, 256);
        let s = binary(&(0..50).collect::<Vec<_>>());
        let t = binary(&(100..150).collect::<Vec<_>>());
        let est = mh.sketch(&s).unwrap().estimate_similarity(&mh.sketch(&t).unwrap());
        assert!(est < 0.02, "disjoint estimate {est}");
    }

    #[test]
    fn estimates_jaccard_within_clt_bounds() {
        let d = 2048;
        let mh = MinHash::new(3, d);
        let s = binary(&(0..60).collect::<Vec<_>>());
        let t = binary(&(30..90).collect::<Vec<_>>());
        let truth = jaccard(&s, &t); // 30/90 = 1/3
        let est = mh.sketch(&s).unwrap().estimate_similarity(&mh.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est} truth {truth}");
    }

    #[test]
    fn weights_are_ignored() {
        let mh = MinHash::new(4, 128);
        let s = WeightedSet::from_pairs([(1, 10.0), (2, 0.01)]).unwrap();
        let t = s.binarized();
        assert_eq!(mh.sketch(&s).unwrap().estimate_similarity(&mh.sketch(&t).unwrap()), 1.0);
    }

    #[test]
    fn empty_set_is_an_error() {
        let mh = MinHash::new(5, 8);
        assert_eq!(mh.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn all_permutation_kinds_agree_on_identical_inputs() {
        let s = binary(&[3, 8, 1000, 77]);
        for kind in [PermutationKind::Mixed, PermutationKind::Linear, PermutationKind::Tabulation] {
            let mh = MinHash::with_permutation(9, 32, kind);
            let a = mh.sketch(&s).unwrap();
            let b = mh.sketch(&s).unwrap();
            assert_eq!(a, b, "{kind:?} not deterministic");
        }
    }

    #[test]
    fn linear_and_mixed_estimate_similarly_on_random_sets() {
        let d = 1024;
        let s = binary(&(0..40).collect::<Vec<_>>());
        let t = binary(&(20..60).collect::<Vec<_>>());
        let truth = jaccard(&s, &t);
        for kind in [PermutationKind::Linear, PermutationKind::Tabulation] {
            let mh = MinHash::with_permutation(11, d, kind);
            let est = mh.sketch(&s).unwrap().estimate_similarity(&mh.sketch(&t).unwrap());
            // Looser bound for the linear family (known min-wise bias).
            assert!((est - truth).abs() < 0.1, "{kind:?} est {est} truth {truth}");
        }
    }

    #[test]
    fn batch_override_matches_per_set_path_for_every_family() {
        let sets: Vec<WeightedSet> =
            [&[1u64, 5, 9][..], &[2, 5], &[1000, 77, 3, 8]].iter().map(|s| binary(s)).collect();
        for kind in [PermutationKind::Mixed, PermutationKind::Linear, PermutationKind::Tabulation] {
            let mh = MinHash::with_permutation(21, 48, kind);
            let batched = mh.sketch_batch(&sets).unwrap();
            for (set, b) in sets.iter().zip(&batched) {
                assert_eq!(&mh.sketch(set).unwrap(), b, "{kind:?} batch diverged");
            }
        }
        assert!(MinHash::new(21, 8).sketch_batch(&[WeightedSet::empty()]).is_err());
    }

    #[test]
    fn lane_kernel_matches_scalar_min_element_for_every_family() {
        // The vectorized hash-lane argmin must emit exactly
        // `pack2(d, min_element(set, d))` — the pre-vectorization kernel —
        // for each permutation family, including on ties (first minimal).
        for kind in [PermutationKind::Mixed, PermutationKind::Linear, PermutationKind::Tabulation] {
            let mh = MinHash::with_permutation(0xBEE5, 48, kind);
            for set in
                [binary(&[3]), binary(&[3, 8, 1000, 77]), binary(&(0..200).collect::<Vec<_>>())]
            {
                let sk = mh.sketch(&set).unwrap();
                for d in 0..48 {
                    let m = mh.min_element(&set, d).unwrap();
                    assert_eq!(sk.codes[d], pack2(d as u64, m), "{kind:?} d={d}");
                }
            }
        }
    }

    #[test]
    fn subset_collision_rate_matches_containment() {
        // S ⊂ T with |S|=k, |T|=n: P(collision) = k/n.
        let d = 4096;
        let mh = MinHash::new(13, d);
        let t: Vec<u64> = (0..40).collect();
        let s: Vec<u64> = (0..10).collect();
        let est =
            mh.sketch(&binary(&s)).unwrap().estimate_similarity(&mh.sketch(&binary(&t)).unwrap());
        let truth = 0.25;
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est}");
    }
}
