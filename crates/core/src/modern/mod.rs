//! Beyond the paper (ROADMAP item 1): the two modern weighted samplers
//! the review predates — [`DartMinHash`] \[Christiani, 2020\] and
//! [`BagMinHash`] \[Ertl, 2018\].
//!
//! Both are built on one shared construction: a **consistent unit-rate
//! Poisson dart process** per element. For element `i`, darts live on the
//! quadrant `(position, rank) ∈ [0, ∞)²`, realized through absolute dyadic
//! cells so the realization is a pure function of the element's identity
//! (never of its weight):
//!
//! * rank **band** `k ∈ ℤ` covers ranks `[2ᵏ, 2ᵏ⁺¹)` (height `2ᵏ`);
//! * within band `k`, **cell** `j` covers positions
//!   `[j·2⁻ᵏ, (j+1)·2⁻ᵏ)` (width `2⁻ᵏ`), so every cell has area 1;
//! * cell `(i, k, j)` holds `Poisson(1)` darts (Knuth's product method on
//!   hashed uniforms), each with a hashed position, rank, and identity.
//!
//! A set with weight `x` on element `i` **accepts** exactly the darts with
//! `position < x` — a thinning that is monotone in `x` and leaves the
//! shared realization untouched. The accepted darts of a whole set form a
//! unit-rate Poisson process over a region of cross-section `Σ S`; the
//! minimum-rank accepted dart per hash bucket therefore lands in the
//! intersection region of two sets with probability exactly
//! `Σ min / Σ max` — the generalized Jaccard similarity — and when it
//! does, both sets emit the *same* dart identity as their code. Both
//! samplers are **unbiased**, unlike most of the review's thirteen.
//!
//! The two algorithms traverse the same process differently:
//!
//! * [`DartMinHash`] is **band-major**: bands ascend globally; the sketch
//!   is done as soon as every bucket has seen a dart (all later darts have
//!   strictly larger ranks). Expected cost `O(n + D log D)` cells after
//!   the ~53-band float ramp-in, independent of `D` per element.
//! * [`BagMinHash`] is **element-major**: elements descend by weight, each
//!   enumerating its own arrivals in rank order, pruned by the running
//!   signature maximum tracked in a binary tournament tree over the `D`
//!   slots — the float-decomposed arrival sampling of Ertl's design.
//!
//! Floating-point honesty: hashed uniforms have a floor of `2⁻⁵³`
//! ([`wmh_hash::to_unit_open`]), so bands more than 53 below a weight's
//! exponent cannot accept darts — both traversals start there (the
//! "float ramp"). Cell counts are capped at `MAX_DARTS_PER_CELL` = 16
//! (`P(Poisson(1) > 16) ≈ 3·10⁻¹⁵`); the cap, the uniform grid, and the
//! discrete ranks perturb the process identically for every set (they are
//! functions of dart identity only), so consistency is exact and the
//! residual estimator bias is below `2⁻⁴⁰` — orders of magnitude under
//! the conformance suite's CLT bound. Every loop is budgeted: pathological
//! inputs surface as typed [`SketchError::BudgetExhausted`], never hangs.

mod bag;
mod dart;

pub use bag::BagMinHash;
pub use dart::DartMinHash;

use crate::sketch::SketchError;
use wmh_hash::{to_unit_open, SeededHash};

/// Default per-sketch cell-probe budget for both samplers. Normal inputs
/// spend ~60 probes per element plus ~`4·D·ln D` for the bucket fill —
/// about 70 000 for a 1 000-element set at `D = 1024` — so 4M probes is
/// a deep safety margin, not a tuning knob.
pub const DEFAULT_MODERN_PROBES: u64 = 1 << 22;

/// Sentinel for an unfilled bucket/slot: compares above every real rank
/// key (no dart carries band `i64::MAX`).
pub(crate) const EMPTY_KEY: (i64, u64, u64) = (i64::MAX, u64::MAX, u64::MAX);

/// Sentinel for tournament-tree padding: compares below every real rank
/// key, so padded leaves never win a maximum.
pub(crate) const MIN_KEY: (i64, u64, u64) = (i64::MIN, 0, 0);

/// `1/e`: Knuth's product threshold for `Poisson(1)` cell counts.
const E_INV: f64 = 0.367_879_441_171_442_33;

/// Deterministic cap on darts per unit cell. `P(Poisson(1) > 16)` is
/// ~`3·10⁻¹⁵`; the cap guarantees termination and, being a function of
/// the cell identity alone, preserves cross-set consistency exactly.
const MAX_DARTS_PER_CELL: u64 = 16;

/// The four role tags separating one dart sampler's random-variable
/// streams (cell count, boundary position, rank, identity). DartMinHash
/// and BagMinHash use disjoint tag sets so their estimators stay
/// statistically independent implementations.
pub(crate) struct DartRoles {
    /// Poisson cell-count draws.
    pub count: u64,
    /// Boundary-cell position draws.
    pub pos: u64,
    /// Within-band rank draws.
    pub rank: u64,
    /// Dart identity (the emitted code, and the bucket/slot assignment).
    pub id: u64,
}

/// Split a normal positive weight into `(mantissa, exponent)` with
/// `x = mantissa · 2^exponent` and `mantissa ∈ [1, 2)`.
///
/// # Errors
/// [`SketchError::BadParameter`] for subnormal, zero, negative, or
/// non-finite weights — defense in depth; every [`wmh_sets::WeightedSet`]
/// constructor already enforces the normal positive range.
pub(crate) fn decompose(x: f64) -> Result<(f64, i64), SketchError> {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i64;
    if biased == 0 || biased == 0x7FF || (bits >> 63) == 1 {
        return Err(SketchError::BadParameter {
            what: "dart sampler weight (must be a normal positive float)",
            value: x,
        });
    }
    let mantissa = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023_u64 << 52));
    Ok((mantissa, biased - 1023))
}

/// First band in which a weight with this exponent can accept a dart:
/// below it, the acceptance threshold `x·2ᵏ` sinks under the hashed
/// uniforms' `2⁻⁵³` floor.
pub(crate) fn first_band(exponent: i64) -> i64 {
    -53 - exponent
}

/// `2^s` for `s ∈ [-1022, 1023]`, by exponent-bit construction (exact).
fn pow2(s: i64) -> f64 {
    f64::from_bits(((s + 1023) as u64) << 52)
}

/// Budgeted enumerator for the consistent dart process: one thrower per
/// sketch call, its probe counter accumulating across every `(element,
/// band)` pair the kernel walks.
pub(crate) struct DartThrower<'a> {
    oracle: &'a SeededHash,
    roles: &'a DartRoles,
    budget: u64,
    what: &'static str,
    probes: u64,
}

impl<'a> DartThrower<'a> {
    pub(crate) fn new(
        oracle: &'a SeededHash,
        roles: &'a DartRoles,
        budget: u64,
        what: &'static str,
    ) -> Self {
        Self { oracle, roles, budget, what, probes: 0 }
    }

    /// Enumerate the accepted darts of one `(element, band)` pair and feed
    /// each `(rank, identity)` to `visit`.
    ///
    /// `shift` is `exponent + band` and must be ≥ −53 (the caller skips
    /// bands below [`first_band`]). The element's weight, measured in cell
    /// widths, is `width = mantissa · 2^shift` — computed exactly (a pure
    /// exponent shift of the mantissa), so the acceptance threshold is
    /// monotone in the weight and identical across sets sharing the
    /// element.
    ///
    /// # Errors
    /// [`SketchError::BudgetExhausted`] once the thrower's probe counter
    /// (incremented per cell) reaches its budget.
    pub(crate) fn visit_band<F: FnMut(u64, u64)>(
        &mut self,
        elem: u64,
        mantissa: f64,
        band: i64,
        shift: i64,
        mut visit: F,
    ) -> Result<(), SketchError> {
        if shift > 62 {
            // ceil(mantissa·2^shift) cells would dwarf any budget.
            return Err(SketchError::BudgetExhausted { what: self.what, spent: self.budget });
        }
        let width = mantissa * pow2(shift);
        let cells = width.ceil() as u64;
        let band_code = band as u64;
        let roles = self.roles;
        for j in 0..cells {
            if self.probes >= self.budget {
                return Err(SketchError::BudgetExhausted { what: self.what, spent: self.budget });
            }
            self.probes += 1;
            // Poisson(1) cell count: Knuth's product method on hashed
            // uniforms.
            let mut count = 0_u64;
            let mut product = 1.0_f64;
            loop {
                product *=
                    to_unit_open(self.oracle.hash_words(&[roles.count, elem, band_code, j, count]));
                if product < E_INV || count >= MAX_DARTS_PER_CELL {
                    break;
                }
                count += 1;
            }
            // Cells fully inside [0, width) accept unconditionally; only the
            // boundary cell thins by position.
            let boundary = width - j as f64;
            for t in 0..count {
                if boundary < 1.0 {
                    let u =
                        to_unit_open(self.oracle.hash_words(&[roles.pos, elem, band_code, j, t]));
                    if u >= boundary {
                        continue;
                    }
                }
                let rank = self.oracle.hash_words(&[roles.rank, elem, band_code, j, t]);
                let id = self.oracle.hash_words(&[roles.id, elem, band_code, j, t]);
                visit(rank, id);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_hash::seeded::role;

    const ROLES: DartRoles = DartRoles {
        count: role::DART_COUNT,
        pos: role::DART_POS,
        rank: role::DART_RANK,
        id: role::DART_ID,
    };

    #[test]
    fn decompose_roundtrips_normal_weights() {
        for x in [1.0, 0.75, 2.0, 1e-300, 1e300, f64::MIN_POSITIVE, f64::MAX, std::f64::consts::PI]
        {
            let (m, e) = decompose(x).expect("normal weight");
            assert!((1.0..2.0).contains(&m), "mantissa {m} out of [1,2) for {x}");
            assert_eq!(m * pow2(e), x, "decompose must be exact for {x}");
        }
    }

    #[test]
    fn decompose_rejects_non_normal_weights() {
        for x in [0.0, -1.0, f64::NAN, f64::INFINITY, 5e-324] {
            assert!(decompose(x).is_err(), "{x} accepted");
        }
    }

    #[test]
    fn pow2_matches_powi_on_the_normal_range() {
        for s in [-1022_i64, -53, -1, 0, 1, 52, 1023] {
            assert_eq!(pow2(s), 2.0_f64.powi(s as i32), "2^{s}");
        }
    }

    #[test]
    fn cell_counts_are_poisson_one() {
        // Mean 1, variance 1, and P(0) = 1/e, over many cells of a fully
        // accepted band (width 1 ⇒ one unconditional cell).
        let oracle = SeededHash::new(42);
        let n = 20_000_u64;
        let mut total = 0_u64;
        let mut zeros = 0_u64;
        let mut sq = 0_f64;
        for elem in 0..n {
            let mut darts = 0_u64;
            let mut thrower = DartThrower::new(&oracle, &ROLES, 1 << 20, "t");
            thrower
                .visit_band(elem, 1.0, 0, 0, |_, _| {
                    darts += 1;
                })
                .expect("in budget");
            total += darts;
            sq += (darts as f64) * (darts as f64);
            if darts == 0 {
                zeros += 1;
            }
        }
        let mean = total as f64 / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
        let p0 = zeros as f64 / n as f64;
        assert!((p0 - E_INV).abs() < 0.02, "P(0) = {p0}");
    }

    #[test]
    fn acceptance_is_monotone_in_weight() {
        // The same element at a larger weight accepts a superset of darts.
        let oracle = SeededHash::new(7);
        let collect = |mantissa: f64, shift: i64| {
            let mut seen = Vec::new();
            let mut thrower = DartThrower::new(&oracle, &ROLES, 1 << 20, "t");
            thrower
                .visit_band(9, mantissa, -2, shift, |rank, id| seen.push((rank, id)))
                .expect("in budget");
            seen
        };
        // x = 1.25·2^3 = 10 vs x = 1.5·2^3 = 12 cell-widths.
        let small = collect(1.25, 3);
        let large = collect(1.5, 3);
        assert!(small.len() <= large.len());
        for dart in &small {
            assert!(large.contains(dart), "dart lost when the weight grew");
        }
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        let oracle = SeededHash::new(1);
        let mut thrower = DartThrower::new(&oracle, &ROLES, 3, "t");
        let err = thrower
            .visit_band(1, 1.9, 5, 10, |_, _| {})
            .expect_err("3 probes cannot cover 2^10 cells");
        assert!(matches!(err, SketchError::BudgetExhausted { spent: 3, .. }), "{err:?}");
        // Oversized shifts fail fast instead of overflowing.
        let mut thrower = DartThrower::new(&oracle, &ROLES, 100, "t");
        let err = thrower.visit_band(1, 1.0, 70, 63, |_, _| {});
        assert!(matches!(err, Err(SketchError::BudgetExhausted { .. })));
    }
}
