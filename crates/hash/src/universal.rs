//! The universal hash family MinHash uses to emulate random permutations.
//!
//! Paper §2.2: *"a hash function as follows is adopted to produce the
//! permutated index `π_d(i) = (a_d·i + b_d) mod c_d`, where … `c_d` is a big
//! prime number such that `c_d ≥ |U|`."* We fix the prime to the Mersenne
//! prime `p = 2^61 − 1`, which admits a fast mod-reduction without division
//! and is larger than any realistic universe.

use crate::seeded::SeededHash;

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// Multiply two residues modulo `2^61 − 1` using 128-bit intermediates.
#[inline]
#[must_use]
pub fn mul_mod_m61(a: u64, b: u64) -> u64 {
    let prod = u128::from(a) * u128::from(b);
    let lo = (prod as u64) & MERSENNE_61;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

/// Add two residues modulo `2^61 − 1`.
#[inline]
#[must_use]
pub fn add_mod_m61(a: u64, b: u64) -> u64 {
    let mut s = a + b; // both < 2^61, no overflow in u64
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

/// One member `π(i) = (a·i + b) mod p` of the universal permutation family.
///
/// `a ∈ [1, p−1]` and `b ∈ [0, p−1]` are derived deterministically from a
/// [`SeededHash`] and the hash-function index `d`, so the whole workspace
/// shares one global family (paper's "global random permutation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MersennePermutation {
    a: u64,
    b: u64,
}

impl MersennePermutation {
    /// Construct the `d`-th member of the family under `oracle`.
    #[must_use]
    pub fn new(oracle: &SeededHash, d: u64) -> Self {
        // Rejection-free: map hashes into the valid ranges. The modulo bias
        // for p = 2^61−1 against a 64-bit source is < 2^-3? No: we draw 61
        // uniform bits (< p with prob ≈ 1) and retry on the negligible
        // overflow cases deterministically by re-hashing.
        let mut t = 0u64;
        let a = loop {
            let cand = oracle.hash3(0xA11C_E5ED, d, t) & ((1u64 << 61) - 1);
            if (1..MERSENNE_61).contains(&cand) {
                break cand;
            }
            t += 1;
        };
        let mut t = 0u64;
        let b = loop {
            let cand = oracle.hash3(0xB0B5_EEDE, d, t) & ((1u64 << 61) - 1);
            if cand < MERSENNE_61 {
                break cand;
            }
            t += 1;
        };
        Self { a, b }
    }

    /// Construct from explicit coefficients (tests / reproducibility).
    ///
    /// # Errors
    /// Returns `Err` when `a == 0` (not a permutation) or a coefficient is
    /// out of the field.
    pub fn from_coefficients(a: u64, b: u64) -> Result<Self, CoefficientError> {
        if a == 0 || a >= MERSENNE_61 {
            return Err(CoefficientError::BadA(a));
        }
        if b >= MERSENNE_61 {
            return Err(CoefficientError::BadB(b));
        }
        Ok(Self { a, b })
    }

    /// Apply the permutation to an index.
    ///
    /// Indices are first reduced into the field; for universes smaller than
    /// `2^61 − 1` (always, in practice) the map restricted to the universe is
    /// injective.
    #[inline]
    #[must_use]
    pub fn apply(&self, i: u64) -> u64 {
        // Full reduction: u64 indices can reach ≈ 8·p, so a single
        // conditional subtraction is not enough (found by proptest).
        let i = if i >= MERSENNE_61 { i % MERSENNE_61 } else { i };
        add_mod_m61(mul_mod_m61(self.a, i), self.b)
    }

    /// The multiplier `a`.
    #[must_use]
    pub fn a(&self) -> u64 {
        self.a
    }

    /// The offset `b`.
    #[must_use]
    pub fn b(&self) -> u64 {
        self.b
    }
}

/// Invalid coefficients for [`MersennePermutation::from_coefficients`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoefficientError {
    /// `a` must be in `[1, p−1]`.
    BadA(u64),
    /// `b` must be in `[0, p−1]`.
    BadB(u64),
}

impl std::fmt::Display for CoefficientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadA(a) => write!(f, "multiplier a={a} outside [1, 2^61-2]"),
            Self::BadB(b) => write!(f, "offset b={b} outside [0, 2^61-2]"),
        }
    }
}

impl std::error::Error for CoefficientError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mersenne_arithmetic_matches_u128_reference() {
        let pairs = [
            (0u64, 0u64),
            (1, 1),
            (MERSENNE_61 - 1, MERSENNE_61 - 1),
            (123_456_789, 987_654_321),
            (1u64 << 60, (1u64 << 60) + 12345),
        ];
        for (a, b) in pairs {
            let want = ((u128::from(a) * u128::from(b)) % u128::from(MERSENNE_61)) as u64;
            assert_eq!(mul_mod_m61(a, b), want, "mul {a} {b}");
            let want = ((u128::from(a) + u128::from(b)) % u128::from(MERSENNE_61)) as u64;
            assert_eq!(add_mod_m61(a, b), want, "add {a} {b}");
        }
    }

    #[test]
    fn permutation_is_injective_on_universe() {
        use std::collections::HashSet;
        let oracle = SeededHash::new(99);
        let p = MersennePermutation::new(&oracle, 0);
        let outs: HashSet<u64> = (0..50_000u64).map(|i| p.apply(i)).collect();
        assert_eq!(outs.len(), 50_000);
    }

    #[test]
    fn different_d_gives_different_permutations() {
        let oracle = SeededHash::new(5);
        let p0 = MersennePermutation::new(&oracle, 0);
        let p1 = MersennePermutation::new(&oracle, 1);
        assert!(p0 != p1);
        assert_ne!(p0.apply(42), p1.apply(42));
    }

    #[test]
    fn deterministic() {
        let a = MersennePermutation::new(&SeededHash::new(3), 7);
        let b = MersennePermutation::new(&SeededHash::new(3), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_coefficients() {
        assert!(MersennePermutation::from_coefficients(0, 0).is_err());
        assert!(MersennePermutation::from_coefficients(MERSENNE_61, 0).is_err());
        assert!(MersennePermutation::from_coefficients(1, MERSENNE_61).is_err());
        assert!(MersennePermutation::from_coefficients(1, 0).is_ok());
    }

    #[test]
    fn linear_family_is_not_minwise_independent() {
        // Known limitation of 2-universal families (Broder et al. 1998):
        // pairwise independence does not give a uniform argmin over a fixed
        // set of keys — and no fixed pre-scrambling of the keys can repair
        // it, because the bias comes from the lattice structure of
        // {a·x mod p} shared by every member. This test pins the behaviour;
        // the default MinHash permutation in wmh-core therefore uses the
        // full avalanche mixer (see seeded::tests::mixer_argmin_is_uniform),
        // and the linear family remains available as the paper-faithful
        // historical option.
        let oracle = SeededHash::new(2024);
        let n = 16u64;
        let trials = 8_000;
        let mut counts = vec![0u32; n as usize];
        for d in 0..trials {
            let p = MersennePermutation::new(&oracle, d);
            let winner = (0..n).min_by_key(|&i| p.apply(i)).expect("non-empty");
            counts[winner as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        let max_z = counts
            .iter()
            .map(|&c| ((f64::from(c) - expect) / (expect * (1.0 - 1.0 / n as f64)).sqrt()).abs())
            .fold(0.0f64, f64::max);
        assert!(max_z > 5.0, "expected visible min-wise bias, max z = {max_z:.2}");
    }
}
