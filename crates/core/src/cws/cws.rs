//! The original Consistent Weighted Sampling algorithm \[45\] (paper §4.2.1).
//!
//! # Construction
//!
//! §4.2.1 describes CWS as exploring "active indices" within dyadic
//! intervals `(2^{j−1}, 2^j]` of the real axis, *"starting from the upper
//! endpoint of the interval and generating a sequence of active indices from
//! the upper endpoint to the lower one by uniformly sampling"*, consistent
//! because the sequence depends only on the interval endpoints shared by all
//! sets (§4.3).
//!
//! We implement this exactly, using the continuum limit the review derives
//! in §4.3 (geometric → exponential): as the subelement width `Δ → 0`, the
//! subelement hash values form a unit-rate Poisson process on
//! `(position, value) ∈ (0,∞)²`, and the active indices of an element are
//! precisely the *left-to-right record points* (the lower-left Pareto
//! frontier) of that process. Within one interval `(L, U]`:
//!
//! * the lowest record has value `v₀ ~ Exp(U − L)` at a position uniform in
//!   `(L, U]`;
//! * conditionally, the next record toward `L` has value
//!   `v_{t+1} = v_t + Exp(1)/(y_t − L)` at a position uniform in `(L, y_t)`.
//!
//! Every draw is a pure function of `(seed, d, element, interval, step)`, so
//! the chain is shared by all sets (consistency); the chain construction is
//! the exact conditional law of Poisson records (uniformity). The element's
//! minimum hash value over `[0, S]` is the min of the partial-interval
//! record at or below `S` and the whole-interval minima `Exp(2^{j−1})` of
//! every dyadic interval below; the walk down the intervals stops when the
//! remaining tail `(0, 2^j]` can still beat the current best only with
//! probability `< 2^j · v_best < 1e−12` (documented truncation, orders of
//! magnitude below estimator noise).
//!
//! The resulting sample is the minimal Poisson point of the region
//! `∪_k {k} × (0, S_k]`, so for two sets the collision probability is
//! `|R_S ∩ R_T| / |R_S ∪ R_T|` — the generalized Jaccard similarity,
//! exactly (Eq. 4).

use crate::sketch::{check_out_len, pack3, SketchError, SketchScratch, Sketcher};
use wmh_hash::seeded::role;
use wmh_hash::{SeededHash, WordChain};
use wmh_rng::exp_from_unit;
use wmh_sets::WeightedSet;

/// Truncation threshold for the downward interval walk.
const TAIL_EPS: f64 = 1e-12;

/// Safety cap on record-chain length (practically unreachable; the expected
/// length is `O(log((U−L)/(S−L)))`).
const MAX_CHAIN: u32 = 100_000;

/// The original CWS algorithm (exact continuum active-index process).
/// The downward interval walk truncates when the remaining tail can beat
/// the current minimum only with probability below a configurable epsilon
/// (default `1e−12`; see [`Cws::with_tail_epsilon`]).
///
/// ```
/// use wmh_core::{Sketcher, cws::Cws};
/// use wmh_sets::WeightedSet;
/// let cws = Cws::new(9, 512);
/// let s = WeightedSet::from_pairs([(1, 3.0), (2, 1.0)]).unwrap();
/// let t = WeightedSet::from_pairs([(1, 1.0), (2, 3.0)]).unwrap();
/// let est = cws.sketch(&s).unwrap().estimate_similarity(&cws.sketch(&t).unwrap());
/// assert!((est - 1.0 / 3.0).abs() < 0.15); // genJ = (1+1)/(3+3)
/// ```
#[derive(Debug, Clone)]
pub struct Cws {
    oracle: SeededHash,
    seed: u64,
    num_hashes: usize,
    tail_eps: f64,
}

/// The record selected for one element: identifies *which* active index
/// achieved the element's minimum hash value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordSample {
    /// Dyadic interval index `j` (interval `(2^{j−1}, 2^j]`).
    pub interval: i32,
    /// Steps from the interval's lowest record (0 = the interval minimum).
    pub step: u32,
    /// The record's position `y_k ∈ (0, S]` — the paper's sampled `y_k`.
    pub position: f64,
    /// The record's hash value — `Exp(S)`-distributed minimum over `[0, S]`.
    pub value: f64,
}

impl Cws {
    /// Catalog name.
    pub const NAME: &'static str = "CWS";

    /// Create a CWS sketcher.
    #[must_use]
    pub fn new(seed: u64, num_hashes: usize) -> Self {
        Self { oracle: SeededHash::new(seed), seed, num_hashes, tail_eps: TAIL_EPS }
    }

    /// Override the tail-truncation probability (clamped to
    /// `[1e−300, 1e−3]`). Smaller = more exact, marginally slower.
    #[must_use]
    pub fn with_tail_epsilon(mut self, eps: f64) -> Self {
        self.tail_eps = eps.clamp(1e-300, 1e-3);
        self
    }

    /// Dyadic interval index `j` with `2^{j−1} < s ≤ 2^j`.
    fn interval_of(s: f64) -> i32 {
        debug_assert!(s > 0.0 && s.is_finite());
        let mut j = s.log2().ceil() as i32;
        // Float-edge repair: enforce the defining inequalities.
        while exp2i(j - 1) >= s {
            j -= 1;
        }
        while exp2i(j) < s {
            j += 1;
        }
        j
    }

    /// The hoisted `[role, d, k]` hash-chain prefixes for one element —
    /// reused across the whole `(j, t)` record walk, where the scalar path
    /// used to re-hash all five words per draw. Finishing a copy with
    /// `push(j).push(t)` is bit-identical to
    /// `hash_words(&[role, d, k, j, t])`.
    #[inline]
    fn element_chains(&self, d: u64, k: u64) -> (WordChain, WordChain) {
        let val = self.oracle.chain().push(role::CWS_VAL).push(d).push(k);
        let pos = self.oracle.chain().push(role::CWS_POS).push(d).push(k);
        (val, pos)
    }

    /// Walk interval `j`'s record chain from its minimum upward/leftward
    /// until a record at or below `s` is found; returns `(step, position,
    /// value)`.
    fn partial_interval_record(val: WordChain, pos: WordChain, j: i32, s: f64) -> (u32, f64, f64) {
        let lo = exp2i(j - 1);
        // Weights above 2^1023 make the upper endpoint overflow to ∞;
        // clamping keeps the chain arithmetic finite (the interval is then
        // slightly short, which only perturbs astronomically large weights).
        let hi = exp2i(j).min(f64::MAX);
        let ji = j as i64 as u64;
        // Step 0: the interval minimum. Interval lengths near the bottom of
        // the f64 range are subnormal, so the Exp rate `1/len` overflows;
        // clamping the record value to MAX keeps the downward walk's
        // termination test `2^j · value < ε` well-defined (`0 · ∞` is NaN,
        // which would never compare below ε and the walk would spin forever
        // — the subnormal-weight hang this module used to have).
        let mut step = 0u32;
        let u_val = val.push(ji).push(0).finish_unit();
        let u_pos = pos.push(ji).push(0).finish_unit();
        let mut value = exp_from_unit(u_val, hi - lo).min(f64::MAX);
        let mut position = lo + (hi - lo) * u_pos;
        while position > s {
            step += 1;
            if step > MAX_CHAIN {
                // Astronomically improbable; accept the current record (the
                // bias is far below TAIL_EPS).
                break;
            }
            let u_val = val.push(ji).push(u64::from(step)).finish_unit();
            let u_pos = pos.push(ji).push(u64::from(step)).finish_unit();
            value = (value + exp_from_unit(u_val, position - lo)).min(f64::MAX);
            position = lo + (position - lo) * u_pos;
        }
        (step, position, value)
    }

    /// The record walk over precomputed element chains and interval index —
    /// the shared body of the scalar path ([`Self::element_sample`]) and the
    /// batched kernel, so the two cannot drift apart.
    fn sample_chained(&self, val: WordChain, pos: WordChain, j_star: i32, s: f64) -> RecordSample {
        // Partial interval containing s.
        let (step, position, value) = Self::partial_interval_record(val, pos, j_star, s);
        let mut best = RecordSample { interval: j_star, step, position, value };
        // Whole intervals below, walking down until the tail is negligible.
        // `best.value` is clamped finite, so once 2^j underflows to zero the
        // product is exactly 0 < ε and the walk provably terminates; the
        // extra `j` floor is a belt-and-braces bound (2^j = 0 for j < −1074).
        let mut j = j_star - 1;
        while j >= -1100 {
            // Remaining region (0, 2^j] has total length 2^j.
            if exp2i(j) * best.value < self.tail_eps {
                break;
            }
            let len = exp2i(j) - exp2i(j - 1);
            if len <= 0.0 {
                break;
            }
            let ji = j as i64 as u64;
            let m = exp_from_unit(val.push(ji).push(0).finish_unit(), len).min(f64::MAX);
            if m < best.value {
                best = RecordSample {
                    interval: j,
                    step: 0,
                    position: exp2i(j - 1) + len * pos.push(ji).push(0).finish_unit(),
                    value: m,
                };
            }
            j -= 1;
        }
        best
    }

    /// The element's CWS sample: the minimal Poisson point over
    /// `(0, S]` and its record identity.
    ///
    /// # Panics
    /// Debug-panics on non-positive or non-finite `s` (guarded by
    /// [`WeightedSet`] validation in the public path).
    #[must_use]
    pub fn element_sample(&self, d: usize, k: u64, s: f64) -> RecordSample {
        let (val, pos) = self.element_chains(d as u64, k);
        self.sample_chained(val, pos, Self::interval_of(s), s)
    }
}

/// `2^j` for signed `j`.
#[inline]
fn exp2i(j: i32) -> f64 {
    f64::from(j).exp2()
}

impl Sketcher for Cws {
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
        // The record walk is variable-length per element, so CWS cannot lane
        // the walk itself; the batched wins are (a) the `[role, d, k]` chain
        // prefixes hoisted over every draw of the walk and (b) the dyadic
        // interval index, a pure function of the weight, hoisted per set
        // instead of recomputed per (d, element).
        let keys = set.indices();
        let weights = set.weights();
        let n = keys.len();
        let lanes = scratch.lanes();
        lanes.resize(n);
        for (e, &s) in lanes.exponent.iter_mut().zip(weights) {
            *e = i64::from(Self::interval_of(s));
        }
        for (d, slot) in out.iter_mut().enumerate() {
            let du = d as u64;
            // First-minimal select, same tie-break as the scalar
            // `is_none_or(value < best)`; `value` is clamped ≤ MAX (never
            // NaN), so strict < induces the same order as total_cmp.
            let mut best_v = f64::INFINITY;
            let mut best_k = keys[0];
            let mut best_j = 0i32;
            let mut best_t = 0u32;
            for i in 0..n {
                let (val, pos) = self.element_chains(du, keys[i]);
                #[allow(clippy::cast_possible_truncation)] // round-trips i32
                let j_star = lanes.exponent[i] as i32;
                let r = self.sample_chained(val, pos, j_star, weights[i]);
                let better = i == 0 || r.value < best_v;
                best_v = if better { r.value } else { best_v };
                best_k = if better { keys[i] } else { best_k };
                best_j = if better { r.interval } else { best_j };
                best_t = if better { r.step } else { best_t };
            }
            *slot =
                crate::sketch::pack2(du, pack3(best_k, best_j as i64 as u64, u64::from(best_t)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_rng::stats::ks_statistic;
    use wmh_sets::generalized_jaccard;

    fn ws(pairs: &[(u64, f64)]) -> WeightedSet {
        WeightedSet::from_pairs(pairs.iter().copied()).expect("valid")
    }

    #[test]
    fn interval_of_brackets_weight() {
        for &s in &[0.0001, 0.3, 0.5, 1.0, 1.5, 2.0, 1000.0, 1e-9, 7.3e8] {
            let j = Cws::interval_of(s);
            assert!(exp2i(j - 1) < s && s <= exp2i(j), "s={s} j={j}");
        }
    }

    #[test]
    fn element_value_is_exponential_in_weight() {
        // The element's min hash value over [0,S] must be Exp(S): KS test
        // across many elements.
        let cws = Cws::new(1, 1);
        for s in [0.37, 1.0, 5.5] {
            let xs: Vec<f64> = (0..4000u64).map(|k| cws.element_sample(0, k, s).value).collect();
            let d = ks_statistic(&xs, |x| 1.0 - (-s * x).exp());
            assert!(d < 1.63 / (xs.len() as f64).sqrt() * 1.5, "s={s}: KS D = {d}");
        }
    }

    #[test]
    fn sample_position_is_within_weight() {
        let cws = Cws::new(2, 1);
        for k in 0..500u64 {
            let s = 0.1 + (k as f64) * 0.01;
            let r = cws.element_sample(0, k, s);
            assert!(r.position > 0.0 && r.position <= s, "pos {} s {}", r.position, s);
            assert!(r.value > 0.0);
        }
    }

    #[test]
    fn sample_position_is_uniform_given_selection() {
        // Uniformity (Def. 8): y_k uniform in (0, S]. Positions across
        // elements with the same weight should be uniform.
        let cws = Cws::new(3, 1);
        let s = 2.7;
        let xs: Vec<f64> = (0..4000u64).map(|k| cws.element_sample(0, k, s).position / s).collect();
        let d = ks_statistic(&xs, |x| x.clamp(0.0, 1.0));
        assert!(d < 1.63 / (xs.len() as f64).sqrt() * 1.5, "KS D = {d}");
    }

    #[test]
    fn consistency_weight_fluctuation_between_records() {
        // Definition 8 consistency: if T_k ≤ S_k and the sample of S falls
        // at or below T_k, the sample of T is identical.
        let cws = Cws::new(4, 1);
        let mut checked = 0;
        for k in 0..2000u64 {
            let s = 1.0 + (k % 10) as f64 * 0.3;
            let t = s * 0.8;
            let rs = cws.element_sample(0, k, s);
            if rs.position <= t {
                let rt = cws.element_sample(0, k, t);
                assert_eq!(rs, rt, "element {k}");
                checked += 1;
            }
        }
        assert!(checked > 500, "too few consistency cases: {checked}");
    }

    #[test]
    fn estimates_generalized_jaccard_real_weights() {
        let d = 2048;
        let cws = Cws::new(5, d);
        let s = ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4)]);
        let t = ws(&[(1, 0.11), (2, 0.17), (9, 0.4), (8, 2.0)]);
        let truth = generalized_jaccard(&s, &t);
        let est = cws.sketch(&s).unwrap().estimate_similarity(&cws.sketch(&t).unwrap());
        let sd = (truth * (1.0 - truth) / d as f64).sqrt();
        assert!((est - truth).abs() < 5.0 * sd, "est {est} truth {truth}");
    }

    #[test]
    fn estimates_on_extreme_scales() {
        // Same structure at weight scale 1e-6 and 1e6: the estimator is
        // scale-covariant because the dyadic machinery is.
        let d = 1024;
        let cws = Cws::new(6, d);
        for scale in [1e-6, 1.0, 1e6] {
            let s = ws(&[(1, 2.0 * scale), (2, 1.0 * scale)]);
            let t = ws(&[(1, 1.0 * scale), (2, 2.0 * scale)]);
            let truth = 0.5;
            let est = cws.sketch(&s).unwrap().estimate_similarity(&cws.sketch(&t).unwrap());
            let sd = (truth * 0.5 / d as f64).sqrt();
            assert!((est - truth).abs() < 5.0 * sd, "scale {scale}: est {est}");
        }
    }

    #[test]
    fn empty_set_is_an_error() {
        let cws = Cws::new(7, 4);
        assert_eq!(cws.sketch(&WeightedSet::empty()), Err(SketchError::EmptySet));
    }

    #[test]
    fn tail_epsilon_tightening_rarely_changes_samples() {
        // The default truncation leaves < 1e-12 probability on the table, so
        // a vastly tighter epsilon must produce identical samples.
        let loose = Cws::new(21, 1);
        let tight = Cws::new(21, 1).with_tail_epsilon(1e-30);
        for k in 0..500u64 {
            let s = 0.1 + (k % 13) as f64 * 0.7;
            assert_eq!(loose.element_sample(0, k, s), tight.element_sample(0, k, s));
        }
        // The knob clamps out-of-range requests.
        let clamped = Cws::new(21, 1).with_tail_epsilon(10.0);
        let _ = clamped.element_sample(0, 1, 1.0); // still well-defined
    }

    #[test]
    fn identical_sets_collide_everywhere() {
        let cws = Cws::new(8, 128);
        let s = ws(&[(1, 0.2), (2, 3.7), (5, 0.9)]);
        assert_eq!(cws.sketch(&s).unwrap().estimate_similarity(&cws.sketch(&s).unwrap()), 1.0);
    }

    #[test]
    fn extreme_weights_terminate() {
        // Regression: weights at the bottom of the normal f64 range drive
        // interval lengths subnormal, the Exp rate overflows, and the old
        // downward walk compared `0 · ∞ = NaN < ε` forever. Both extremes
        // must now terminate with a well-formed record.
        let cws = Cws::new(30, 4);
        for s in [f64::MIN_POSITIVE, 1e-300, 1e300, f64::MAX] {
            let r = cws.element_sample(0, 7, s);
            assert!(r.position > 0.0 && r.position <= s, "s={s:e} pos {}", r.position);
            assert!(r.value > 0.0 && r.value.is_finite(), "s={s:e} value {}", r.value);
        }
        let set = ws(&[(1, f64::MIN_POSITIVE), (2, f64::MAX), (3, 1.0)]);
        let sk = cws.sketch(&set).expect("extreme set sketches");
        assert_eq!(sk.codes.len(), 4);
    }

    #[test]
    fn lane_kernel_matches_scalar_sample_path() {
        // The batched kernel (chain-prefix hoist + interval hoist) must
        // reproduce, bit for bit, what the per-element scalar API computes
        // (the pre-batching kernel was exactly the argmin of
        // `element_sample` packed the same way).
        let cws = Cws::new(0xBEE5, 24);
        for set in [
            ws(&[(3, 1.0)]),
            ws(&[(1, 0.31), (2, 0.17), (3, 0.55), (8, 1.4), (1000, 9.0)]),
            ws(&[(5, 0.001), (6, 1.0), (7, 500.0), (2, f64::MAX)]),
        ] {
            let sk = cws.sketch(&set).unwrap();
            for d in 0..24 {
                let (k, r) = set
                    .iter()
                    .map(|(k, s)| (k, cws.element_sample(d, k, s)))
                    .min_by(|(_, a), (_, b)| a.value.total_cmp(&b.value))
                    .unwrap();
                let want = crate::sketch::pack2(
                    d as u64,
                    pack3(k, r.interval as i64 as u64, u64::from(r.step)),
                );
                assert_eq!(sk.codes[d], want, "d={d}");
            }
        }
    }

    #[test]
    fn element_selection_is_proportional_to_weight() {
        // Uniformity (Def. 8): P(select k) = S_k / Σ S. Two elements with
        // weights 1 and 3.
        let d = 4000;
        let cws = Cws::new(9, d);
        let mut wins = 0u64;
        for dd in 0..d {
            let a = cws.element_sample(dd, 10, 1.0);
            let b = cws.element_sample(dd, 20, 3.0);
            if b.value < a.value {
                wins += 1;
            }
        }
        let z = wmh_rng::stats::binomial_z(wins, d as u64, 0.75);
        assert!(z.abs() < 5.0, "selection proportion z = {z}");
    }
}
