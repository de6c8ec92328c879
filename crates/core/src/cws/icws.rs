//! Improved Consistent Weighted Sampling \[49\] (paper §4.2.2).
//!
//! Ioffe's closed-form sampler: instead of exploring intervals, the two
//! special active indices are drawn directly,
//!
//! ```text
//! t_k  = ⌊ ln S_k / r_k + β_k ⌋            (the quantization step)
//! y_k  = exp(r_k · (t_k − β_k))            (Eq. 10, = Eq. 7)
//! z_k  = y_k · e^{r_k}                     (Eq. 6)
//! a_k  = c_k / z_k                         (Eq. 9 / Eq. 11)
//! ```
//!
//! with `r_k, c_k ~ Gamma(2,1)` and `β_k ~ Uniform(0,1)`, all consistent
//! per-element draws. `a_k ~ Exp(S_k)`, so `argmin_k a_k` selects `k` with
//! probability `S_k / Σ S_k` (Eq. 8 — uniformity); the floor makes `y_k`
//! constant while `S_k` fluctuates within `[y_k, z_k)` (consistency). The
//! fingerprint code is `(k, t_k)`, equivalent to the paper's `(k, y_k)`
//! since `y_k` is a deterministic function of `(k, t_k)` and the shared
//! randomness.
//!
//! Per element, ICWS consumes five uniforms (`r` and `c` take two each,
//! `β` one) — the `O(5nD)` the review counts in §4.2.5.

use crate::cws::encode_step;
use crate::sketch::{check_out_len, pack3, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

/// Ioffe's ICWS sampler.
///
/// ```
/// use wmh_core::{Sketcher, cws::Icws};
/// use wmh_sets::WeightedSet;
/// let icws = Icws::new(42, 512);
/// let s = WeightedSet::from_pairs([(1, 2.0), (2, 1.0)]).unwrap();
/// let t = WeightedSet::from_pairs([(1, 1.0), (2, 2.0)]).unwrap();
/// let est = icws.sketch(&s).unwrap().estimate_similarity(&icws.sketch(&t).unwrap());
/// assert!((est - 0.5).abs() < 0.15); // genJ = (1+1)/(2+2)
/// ```
#[derive(Debug, Clone)]
pub struct Icws {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
}

/// One element's ICWS draw (exposed for tests and for the 0-bit variant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcwsSample {
    /// Quantization step `t_k` (can be negative for weights `< 1`).
    pub step: i64,
    /// `y_k ≤ S_k`, the sampled active index.
    pub y: f64,
    /// `z_k = y_k·e^{r_k} > S_k`, the paired upper active index.
    pub z: f64,
    /// The hash value `a_k ~ Exp(S_k)`.
    pub a: f64,
}

impl Icws {
    /// Catalog name.
    pub const NAME: &'static str = "ICWS";

    /// Create an ICWS sketcher.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self { oracle: SeededHash::new(seed), seed, num_hashes }
    }

    /// The per-element draw for hash function `d`.
    #[must_use]
    pub fn element_sample(&self, d: usize, k: u64, s: f64) -> IcwsSample {
        let d = d as u64;
        self.closed_form(
            self.oracle.unit3(role::U1, d, k),
            self.oracle.unit3(role::U2, d, k),
            self.oracle.unit3(role::BETA, d, k),
            self.oracle.unit3(role::V1, d, k),
            self.oracle.unit3(role::V2, d, k),
            s.ln(),
        )
    }

    /// The race-deciding part of Ioffe's closed form over the five uniforms
    /// and the pre-computed `ln s`: returns `(r, t, z, a)`.
    ///
    /// This is the shared body of the scalar path ([`Self::closed_form`])
    /// and the batched kernel ([`Self::winners_into`]), so the two cannot
    /// drift apart. It spends exactly two `ln` and one `exp` per call:
    /// `z = y·e^{r}` collapses to the single exponential
    /// `exp(r·(t − β + 1))`, and `y` — which only the scalar sample and the
    /// per-`d` winner ever need — is materialized separately in
    /// [`Self::closed_form`].
    ///
    /// `r·(t−β+1) ≤ ln s + 2r`, which for `s` near `f64::MAX` plus a large
    /// Gamma draw can push exp past the float range (and symmetrically
    /// under it for `s` near `MIN_POSITIVE`). Clamp into the normal range:
    /// the step `t` — the only part that reaches the fingerprint — is exact
    /// either way, and the clamp keeps `a = c/z` well-defined (never NaN;
    /// it may be +∞ for subnormal-scale weights, which total_cmp orders
    /// fine).
    ///
    /// Kept out of line: inlined into the kernel loop, it stops the five
    /// uniform finishes from vectorizing, which measured ICWS and 0-bit CWS
    /// about 1.4× slower at D=32 and D=128.
    #[inline(never)]
    fn race_form(u1: f64, u2: f64, beta: f64, v1: f64, v2: f64, ln_s: f64) -> (f64, f64, f64, f64) {
        // r, c ~ Gamma(2,1) as the product of two unit exponentials
        // (wmh_rng::gamma21_from_units inlined).
        let r = -(u1 * u2).ln();
        let c = -(v1 * v2).ln();
        let t = (ln_s / r + beta).floor();
        let z = (r * (t - beta + 1.0)).exp().clamp(f64::MIN_POSITIVE, f64::MAX);
        (r, t, z, c / z)
    }

    /// Ioffe's full closed form: [`Self::race_form`] plus the `y` active
    /// index (its own exponential, clamped like `z`).
    #[inline]
    fn closed_form(&self, u1: f64, u2: f64, beta: f64, v1: f64, v2: f64, ln_s: f64) -> IcwsSample {
        let (r, t, z, a) = Self::race_form(u1, u2, beta, v1, v2, ln_s);
        let y = (r * (t - beta)).exp().clamp(f64::MIN_POSITIVE, f64::MAX);
        IcwsSample { step: t as i64, y, z, a }
    }

    /// The full fingerprint sample for hash function `d`: the selected
    /// element and its draw, or `None` for an empty set.
    #[must_use]
    pub fn sample(&self, set: &WeightedSet, d: usize) -> Option<(u64, IcwsSample)> {
        set.iter()
            .map(|(k, s)| (k, self.element_sample(d, k, s)))
            .min_by(|(_, x), (_, y)| x.a.total_cmp(&y.a))
    }

    /// The shared vectorized kernel: run the d-outer, element-inner argmin
    /// and emit `code(d, winner, step)` into each slot. ICWS packs the step;
    /// the 0-bit variant drops it — both ride the same selection.
    ///
    /// Shape: per `d`, the five `(role, d)` hash prefixes are hoisted once
    /// and the five per-element uniforms stay in registers — bit-identical
    /// to the scalar oracle calls, only the loop structure differs — feeding
    /// [`Self::race_form`] and a branchless first-minimal select in the same
    /// pass (a buffered fill-then-scan measured strictly slower: the lane
    /// round-trip costs more than it saves when the finalizer is this
    /// cheap). Only `ln s` is staged in scratch, hoisted once per set — the
    /// scalar path computes the identical `f64::ln` per `(element, d)`, so
    /// reusing it cannot change a bit.
    pub(crate) fn winners_into(
        &self,
        set: &WeightedSet,
        out: &mut [u64],
        scratch: &mut SketchScratch,
        code: impl Fn(u64, u64, i64) -> u64,
    ) -> Result<(), SketchError> {
        check_out_len(out, self.num_hashes)?;
        if set.is_empty() {
            return Err(SketchError::EmptySet);
        }
        let keys = set.indices();
        let lanes = scratch.lanes();
        lanes.resize(keys.len());
        for (l, &s) in lanes.ln_weight.iter_mut().zip(set.weights()) {
            *l = s.ln();
        }
        for (d, slot) in out.iter_mut().enumerate() {
            let du = d as u64;
            let p_u1 = self.oracle.prefix2(role::U1, du);
            let p_u2 = self.oracle.prefix2(role::U2, du);
            let p_beta = self.oracle.prefix2(role::BETA, du);
            let p_v1 = self.oracle.prefix2(role::V1, du);
            let p_v2 = self.oracle.prefix2(role::V2, du);
            // First-minimal argmin, same tie-break as the scalar min_by
            // (strict < never replaces an equal earlier winner; a is never
            // NaN, so total_cmp and < induce the same order).
            let mut best_a = f64::INFINITY;
            let mut best_k = keys[0];
            let mut best_t = 0i64;
            for (i, &k) in keys.iter().enumerate() {
                let (_, t, _, a) = Self::race_form(
                    p_u1.finish_unit(k),
                    p_u2.finish_unit(k),
                    p_beta.finish_unit(k),
                    p_v1.finish_unit(k),
                    p_v2.finish_unit(k),
                    lanes.ln_weight[i],
                );
                let better = i == 0 || a < best_a;
                best_a = if better { a } else { best_a };
                best_k = if better { k } else { best_k };
                best_t = if better { t as i64 } else { best_t };
            }
            *slot = code(du, best_k, best_t);
        }
        Ok(())
    }
}

impl Sketcher for Icws {
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
        self.winners_into(set, out, scratch, |d, k, t| pack3(d, k, encode_step(t)))
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
    fn sample_brackets_weight() {
        // Ioffe Lemma: y_k ≤ S_k < z_k.
        let icws = Icws::new(1, 1);
        for k in 0..2000u64 {
            let s = 0.05 + (k % 40) as f64 * 0.25;
            let smp = icws.element_sample(0, k, s);
            assert!(smp.y <= s * (1.0 + 1e-12), "y {} > s {}", smp.y, s);
            assert!(smp.z > s * (1.0 - 1e-12), "z {} <= s {}", smp.z, s);
            assert!(smp.a > 0.0);
        }
    }

    #[test]
    fn hash_value_is_exponential_in_weight() {
        // The crux of uniformity: a_k ~ Exp(S_k) (proved in [49]).
        let icws = Icws::new(2, 1);
        for s in [0.3, 1.0, 4.2] {
            let xs: Vec<f64> = (0..5000u64).map(|k| icws.element_sample(0, k, s).a).collect();
            let d = ks_statistic(&xs, |x| 1.0 - (-s * x).exp());
            assert!(d < 1.63 / (xs.len() as f64).sqrt() * 1.5, "s={s}: KS D = {d}");
        }
    }

    #[test]
    fn ln_y_is_uniform_in_window() {
        // Eq. (7): ln y_k ~ Uniform(ln S_k − r_k, ln S_k); marginally,
        // S/y = exp(r·(frac part)) — check y/S ∈ (0,1] and its law via
        // the identity P(y/S > q) = E[(1 - ln q / -r)⁺]-ish; here we just
        // verify the uniform *conditional* property empirically: β and the
        // floor make (ln S − ln y)/r distributed as Uniform(0,1) in
        // aggregate.
        let icws = Icws::new(3, 1);
        let s = 0.7;
        let mut fracs = Vec::new();
        for k in 0..5000u64 {
            let d = 0usize;
            let smp = icws.element_sample(d, k, s);
            let r = (smp.z / smp.y).ln();
            fracs.push((s.ln() - smp.y.ln()) / r);
        }
        let d = ks_statistic(&fracs, |x| x.clamp(0.0, 1.0));
        assert!(d < 1.63 / (fracs.len() as f64).sqrt() * 1.5, "KS D = {d}");
    }

    #[test]
    fn consistency_same_sample_for_compatible_weights() {
        // If the weight moves but stays within [y_k, z_k), the sample (step,
        // y) must not change (the consistency window of Fig. 5).
        let icws = Icws::new(4, 1);
        let mut checked = 0;
        for k in 0..3000u64 {
            let s = 1.7;
            let smp = icws.element_sample(0, k, s);
            let s2 = (smp.y + 0.5 * (smp.z - smp.y)).min(smp.z * 0.999);
            if s2 > smp.y && s2 < smp.z {
                let smp2 = icws.element_sample(0, k, s2);
                assert_eq!(smp.step, smp2.step, "element {k}");
                assert_eq!(smp.y, smp2.y, "element {k}");
                checked += 1;
            }
        }
        assert!(checked > 2000, "too few checks: {checked}");
    }

    #[test]
    fn selection_is_proportional_to_weight() {
        let trials = 4000usize;
        let icws = Icws::new(5, trials);
        let set = ws(&[(10, 1.0), (20, 3.0)]);
        let mut wins = 0u64;
        for d in 0..trials {
            let (k, _) = icws.sample(&set, d).expect("non-empty set");
            if k == 20 {
                wins += 1;
            }
        }
        let z = binomial_z(wins, trials as u64, 0.75);
        assert!(z.abs() < 5.0, "z = {z}");
    }

    #[test]
    fn estimates_generalized_jaccard() {
        let d = 2048;
        let icws = Icws::new(6, d);
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4), (8, 2.0)]);
        let truth = generalized_jaccard(&s, &t);
        let est = icws.sketch(&s).unwrap().estimate_similarity(&icws.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est} truth {truth}");
    }

    #[test]
    fn handles_sub_unit_weights_with_negative_steps() {
        let icws = Icws::new(7, 64);
        let s = ws(&[(1, 0.001), (2, 0.002)]);
        let sk = icws.sketch(&s).unwrap();
        assert_eq!(sk.len(), 64);
        // A negative step must occur for such tiny weights.
        let any_negative = (0..64).any(|d| icws.element_sample(d, 1, 0.001).step < 0);
        assert!(any_negative);
    }

    #[test]
    fn empty_set_is_an_error() {
        assert_eq!(Icws::new(8, 4).sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn lane_kernel_matches_scalar_sample_path() {
        // The vectorized d-outer kernel must reproduce, bit for bit, what
        // the per-element scalar API computes (the pre-vectorization kernel
        // was exactly `pack3(d, sample(set, d))`).
        let icws = Icws::new(0xBEE5, 48);
        for set in [
            ws(&[(3, 1.0)]),
            ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4), (1000, 9.0)]),
            ws(&[(5, 0.001), (6, 1.0), (7, 500.0), (u64::MAX, f64::MAX)]),
        ] {
            let sk = icws.sketch(&set).unwrap();
            for d in 0..48 {
                let (k, smp) = icws.sample(&set, d).unwrap();
                assert_eq!(sk.codes[d], pack3(d as u64, k, encode_step(smp.step)), "d={d}");
            }
        }
    }

    #[test]
    fn extreme_weights_stay_in_range() {
        // The closed form must survive both ends of the normal float range:
        // y/z clamp instead of overflowing to ∞ / collapsing to 0 (which
        // would make a = c/z NaN-adjacent in comparisons).
        let icws = Icws::new(9, 16);
        for s in [f64::MIN_POSITIVE, 1e-300, 1e300, f64::MAX] {
            for d in 0..16 {
                let smp = icws.element_sample(d, 7, s);
                assert!(smp.y.is_finite() && smp.y > 0.0, "y = {} for s = {s}", smp.y);
                assert!(smp.z.is_finite() && smp.z > 0.0, "z = {} for s = {s}", smp.z);
                assert!(!smp.a.is_nan(), "a NaN for s = {s}");
            }
        }
        let s = ws(&[(1, f64::MAX), (2, f64::MIN_POSITIVE)]);
        let sk = icws.sketch(&s).expect("extreme weights sketch fine");
        assert_eq!(sk.len(), 16);
    }
}
