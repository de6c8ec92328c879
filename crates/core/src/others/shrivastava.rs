//! \[Shrivastava, 2016\] (paper §5.3): rejection sampling over the red–green
//! area.
//!
//! A pre-scan of the whole dataset yields the per-element upper bounds
//! `U_i`; their concatenation forms an area of total mass `M = Σ U_i`
//! (Fig. 7). For each hash function, a globally shared sequence of uniform
//! draws over `[0, M)` is consumed until one lands in the *green* region of
//! the sketched set (inside the element's own weight). The hash value is the
//! number of draws taken — two sets collide iff the first draw that is green
//! for *either* is green for *both*, giving an **unbiased** estimator of the
//! generalized Jaccard similarity.
//!
//! The review's caveats are modeled faithfully: loose bounds (small
//! `s_x = ΣS_k / ΣU_k`) mean many rejections — the algorithm times out on
//! Syn3E0.2S in Figure 8/9 — and a weight above its pre-scanned bound is a
//! hard error (the streaming limitation of §5.3).

use crate::sketch::{check_out_len, pack2, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

/// Default cap on rejection draws per hash function.
pub const DEFAULT_MAX_DRAWS: u64 = 10_000_000;

/// The pre-scanned per-element upper bounds (the proposal distribution).
#[derive(Debug, Clone, PartialEq)]
pub struct UpperBounds {
    indices: Vec<u64>,
    bounds: Vec<f64>,
    /// `prefix[i]` = Σ bounds[..i]; `prefix[len]` = total mass `M`.
    prefix: Vec<f64>,
}

impl UpperBounds {
    /// Pre-scan a dataset: `U_i = max` weight of element `i` over all sets.
    ///
    /// # Errors
    /// [`SketchError::EmptySet`] when no set contributes any element.
    pub fn from_sets<'a, I>(sets: I) -> Result<Self, SketchError>
    where
        I: IntoIterator<Item = &'a WeightedSet>,
    {
        let mut max: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for set in sets {
            for (k, w) in set.iter() {
                let e = max.entry(k).or_insert(0.0);
                if w > *e {
                    *e = w;
                }
            }
        }
        if max.is_empty() {
            return Err(SketchError::EmptySet);
        }
        let mut indices = Vec::with_capacity(max.len());
        let mut bounds = Vec::with_capacity(max.len());
        let mut prefix = Vec::with_capacity(max.len() + 1);
        let mut acc = 0.0f64;
        prefix.push(0.0);
        for (k, b) in max {
            indices.push(k);
            bounds.push(b);
            acc += b;
            prefix.push(acc);
        }
        Ok(Self { indices, bounds, prefix })
    }

    /// Explicit bounds (e.g. domain knowledge instead of a pre-scan).
    ///
    /// # Errors
    /// Rejects empty input, non-finite/non-positive bounds, duplicates.
    pub fn from_pairs<I: IntoIterator<Item = (u64, f64)>>(pairs: I) -> Result<Self, SketchError> {
        let set = WeightedSet::from_pairs(pairs).map_err(|_| SketchError::BadParameter {
            what: "upper bounds (must be positive, finite, distinct)",
            value: f64::NAN,
        })?;
        if set.is_empty() {
            return Err(SketchError::EmptySet);
        }
        Self::from_sets([&set])
    }

    /// Total proposal mass `M = Σ U_i`.
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        // `prefix` always starts with a pushed 0.0, so `last` cannot miss;
        // the fallback keeps this total rather than provably-unreachable.
        self.prefix.last().copied().unwrap_or(0.0)
    }

    /// Bound for an element, if known.
    #[must_use]
    pub fn bound(&self, k: u64) -> Option<f64> {
        self.indices.binary_search(&k).ok().map(|i| self.bounds[i])
    }

    /// The review's efficiency ratio `s_x = Σ S_k / Σ U_k` for a set: the
    /// rejection acceptance rate (expected draws per sample = `1 / s_x`).
    #[must_use]
    pub fn acceptance_rate(&self, set: &WeightedSet) -> f64 {
        set.total_weight() / self.total_mass()
    }

    /// Locate the element whose bound interval contains offset `r ∈ [0, M)`:
    /// returns `(position, offset within the element's interval)`.
    fn locate(&self, r: f64) -> (usize, f64) {
        // partition_point: first i with prefix[i+1] > r.
        let i = self.prefix.partition_point(|&p| p <= r).saturating_sub(1);
        let i = i.min(self.indices.len() - 1);
        (i, r - self.prefix[i])
    }
}

/// The rejection-sampling weighted MinHash of \[Shrivastava, 2016\].
#[derive(Debug, Clone)]
pub struct Shrivastava {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    bounds: UpperBounds,
    max_draws: u64,
}

impl Shrivastava {
    /// Catalog name.
    pub const NAME: &'static str = "Shrivastava2016";

    /// Create with pre-scanned bounds.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize, bounds: UpperBounds) -> Self {
        Self {
            oracle: SeededHash::new(seed),
            seed,
            num_hashes,
            bounds,
            max_draws: DEFAULT_MAX_DRAWS,
        }
    }

    /// Override the per-hash rejection budget (the experiment harness uses
    /// this to reproduce the paper's 24-hour-cutoff behaviour).
    #[must_use]
    pub fn with_max_draws(mut self, max_draws: u64) -> Self {
        self.max_draws = max_draws.max(1);
        self
    }

    /// The pre-scanned bounds.
    #[must_use]
    pub fn bounds(&self) -> &UpperBounds {
        &self.bounds
    }

    /// Run the shared rejection sequence for hash `d` against `set`:
    /// returns the step count `t ≥ 1` of the first green draw.
    ///
    /// `None` when the draw budget is exhausted.
    #[must_use]
    pub fn first_green(&self, set: &WeightedSet, d: usize) -> Option<u64> {
        let m = self.bounds.total_mass();
        for t in 1..=self.max_draws {
            // The globally shared sample sequence: identical for all sets.
            let r = self.oracle.unit3(role::REJECTION, d as u64, t) * m;
            let (pos, offset) = self.bounds.locate(r);
            let k = self.bounds.indices[pos];
            if offset <= set.weight(k) {
                return Some(t);
            }
        }
        None
    }
}

impl Sketcher for Shrivastava {
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
        // Validate against the pre-scanned bounds (the streaming limitation:
        // unseen data may exceed the prefixed upper bound).
        for (k, w) in set.iter() {
            match self.bounds.bound(k) {
                Some(b) if w <= b * (1.0 + 1e-12) => {}
                Some(b) => {
                    return Err(SketchError::WeightExceedsBound { element: k, weight: w, bound: b })
                }
                None => {
                    return Err(SketchError::WeightExceedsBound {
                        element: k,
                        weight: w,
                        bound: 0.0,
                    })
                }
            }
        }
        for (d, slot) in out.iter_mut().enumerate() {
            let t = self.first_green(set, d).ok_or(SketchError::BudgetExhausted {
                what: "Shrivastava2016 rejection sampling (acceptance rate too low)",
                spent: self.max_draws,
            })?;
            *slot = pack2(d as u64, t);
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
    fn bounds_prescan_takes_elementwise_max() {
        let s = ws(&[(1, 1.0), (2, 0.5)]);
        let t = ws(&[(1, 0.3), (3, 2.0)]);
        let b = UpperBounds::from_sets([&s, &t]).unwrap();
        assert_eq!(b.bound(1), Some(1.0));
        assert_eq!(b.bound(2), Some(0.5));
        assert_eq!(b.bound(3), Some(2.0));
        assert_eq!(b.bound(4), None);
        assert!((b.total_mass() - 3.5).abs() < 1e-12);
        assert!((b.acceptance_rate(&s) - 1.5 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn locate_maps_offsets_to_elements() {
        let b = UpperBounds::from_pairs([(10, 1.0), (20, 2.0), (30, 0.5)]).unwrap();
        assert_eq!(b.locate(0.0).0, 0);
        assert_eq!(b.locate(0.99).0, 0);
        assert_eq!(b.locate(1.0).0, 1);
        assert_eq!(b.locate(2.9).0, 1);
        assert_eq!(b.locate(3.2).0, 2);
        let (i, off) = b.locate(1.5);
        assert_eq!(b.indices[i], 20);
        assert!((off - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unbiased_estimate_of_generalized_jaccard() {
        // The review: "[Shrivastava, 2016] ... unbiasedly estimates the
        // generalized Jaccard similarity".
        let d = 2048;
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4), (8, 2.0)]);
        let bounds = UpperBounds::from_sets([&s, &t]).unwrap();
        let sh = Shrivastava::new(1, d, bounds);
        let truth = generalized_jaccard(&s, &t);
        let est = sh.sketch(&s).unwrap().estimate_similarity(&sh.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est} truth {truth}");
    }

    #[test]
    fn rejects_out_of_bound_weights() {
        let bounds = UpperBounds::from_pairs([(1, 1.0)]).unwrap();
        let sh = Shrivastava::new(2, 4, bounds);
        // Unknown element.
        assert!(matches!(
            sh.sketch(&ws(&[(9, 0.5)])),
            Err(SketchError::WeightExceedsBound { element: 9, .. })
        ));
        // Exceeding weight (the streaming caveat).
        assert!(matches!(
            sh.sketch(&ws(&[(1, 2.0)])),
            Err(SketchError::WeightExceedsBound { element: 1, .. })
        ));
        // Within bound works.
        assert!(sh.sketch(&ws(&[(1, 0.9)])).is_ok());
    }

    #[test]
    fn loose_bounds_inflate_draw_counts() {
        // Tight vs loose proposal: expected draws scale with 1/s_x.
        let s = ws(&[(1, 1.0)]);
        let tight = UpperBounds::from_pairs([(1, 1.0)]).unwrap();
        let loose = UpperBounds::from_pairs([(1, 1.0), (2, 99.0)]).unwrap();
        let trials = 200usize;
        let mean_draws = |bounds: UpperBounds| {
            let sh = Shrivastava::new(3, trials, bounds);
            (0..trials).map(|d| sh.first_green(&s, d).expect("within budget") as f64).sum::<f64>()
                / trials as f64
        };
        let dt = mean_draws(tight);
        let dl = mean_draws(loose);
        assert!((dt - 1.0).abs() < 1e-9, "tight bounds accept immediately: {dt}");
        assert!(dl > 50.0, "loose bounds should reject ~99% of draws: {dl}");
    }

    #[test]
    fn budget_exhaustion_is_an_error() {
        let s = ws(&[(1, 1.0)]);
        let loose = UpperBounds::from_pairs([(1, 1.0), (2, 1e6)]).unwrap();
        let sh = Shrivastava::new(4, 4, loose).with_max_draws(3);
        assert!(matches!(sh.sketch(&s), Err(SketchError::BudgetExhausted { spent: 3, .. })));
    }

    #[test]
    fn empty_inputs_error() {
        assert!(matches!(
            UpperBounds::from_sets(std::iter::empty::<&WeightedSet>()),
            Err(SketchError::EmptySet)
        ));
        let b = UpperBounds::from_pairs([(1, 1.0)]).unwrap();
        assert_eq!(
            Shrivastava::new(5, 4, b).sketch(&WeightedSet::empty()),
            Err(SketchError::EmptySet)
        );
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let s = ws(&[(1, 0.4), (7, 0.9)]);
        let b = UpperBounds::from_sets([&s]).unwrap();
        let sh = Shrivastava::new(6, 64, b);
        assert_eq!(sh.sketch(&s).unwrap().estimate_similarity(&sh.sketch(&s).unwrap()), 1.0);
    }
}
