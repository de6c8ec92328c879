//! Scalar bit mixers.
//!
//! The mixers here are the primitive from which all deterministic randomness
//! in the workspace is derived. They are small, branch-free and pass the
//! avalanche sanity checks in this module's tests.

/// Golden-ratio increment used by SplitMix64 (`⌊2^64 / φ⌋`, odd).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 64-bit finalizer of SplitMix64 (Steele, Lea & Flood 2014).
///
/// A bijection on `u64` with full avalanche: flipping any input bit flips
/// each output bit with probability ≈ 1/2.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Murmur3's 64-bit finalizer (`fmix64`) — a second, independent avalanche
/// bijection used where two distinct mixing rounds are needed.
#[inline]
#[must_use]
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

/// Combine two words into one well-mixed word.
///
/// Sequentially folds `b` into `a` with distinct odd multipliers before a
/// final avalanche; used to build the variadic [`crate::seeded::SeededHash`].
#[inline]
#[must_use]
pub fn combine(a: u64, b: u64) -> u64 {
    // Distinct odd constants (high-entropy primes) keep (a, b) and (b, a)
    // uncorrelated; the final splitmix pass restores full avalanche.
    let x = a
        .rotate_left(23)
        .wrapping_mul(0xA24B_AED4_963E_E407)
        .wrapping_add(b.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    splitmix64(x ^ (x >> 29))
}

/// Mix a whole slice of words into one word (order-sensitive).
#[inline]
#[must_use]
pub fn combine_all(seed: u64, words: &[u64]) -> u64 {
    let mut acc = splitmix64(seed ^ 0x243F_6A88_85A3_08D3); // π fraction bits
    for (i, &w) in words.iter().enumerate() {
        acc = combine(acc, w ^ (i as u64).wrapping_mul(GOLDEN_GAMMA));
    }
    fmix64(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn popcount_bias<F: Fn(u64) -> u64>(f: F) -> f64 {
        // Flip each of the 64 input bits on a batch of inputs and record the
        // fraction of output bits that flip; a perfect mixer gives 0.5.
        let mut total = 0u64;
        let mut trials = 0u64;
        for base in 0..256u64 {
            let x = splitmix64(base.wrapping_mul(0x1234_5678_9ABC_DEF1));
            let y = f(x);
            for bit in 0..64 {
                let y2 = f(x ^ (1u64 << bit));
                total += (y ^ y2).count_ones() as u64;
                trials += 64;
            }
        }
        total as f64 / trials as f64
    }

    #[test]
    fn splitmix_is_bijective_on_sample() {
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn splitmix_avalanche() {
        let bias = popcount_bias(splitmix64);
        assert!((bias - 0.5).abs() < 0.01, "avalanche bias {bias}");
    }

    #[test]
    fn fmix_avalanche() {
        let bias = popcount_bias(fmix64);
        assert!((bias - 0.5).abs() < 0.01, "avalanche bias {bias}");
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_ne!(combine_all(7, &[1, 2, 3]), combine_all(7, &[3, 2, 1]));
    }

    #[test]
    fn combine_all_depends_on_every_word() {
        let base = combine_all(42, &[10, 20, 30, 40]);
        for i in 0..4 {
            let mut words = [10u64, 20, 30, 40];
            words[i] ^= 1;
            assert_ne!(base, combine_all(42, &words), "word {i} ignored");
        }
        assert_ne!(base, combine_all(43, &[10, 20, 30, 40]), "seed ignored");
    }

    #[test]
    fn combine_all_distinguishes_length() {
        // [x] and [x, 0] must not collide systematically.
        assert_ne!(combine_all(1, &[5]), combine_all(1, &[5, 0]));
        assert_ne!(combine_all(1, &[]), combine_all(1, &[0]));
    }

    #[test]
    fn combine_avalanche_over_second_arg() {
        let bias = popcount_bias(|x| combine(0xDEAD_BEEF, x));
        assert!((bias - 0.5).abs() < 0.01, "avalanche bias {bias}");
    }

    #[test]
    fn constants_are_odd() {
        assert_eq!(GOLDEN_GAMMA & 1, 1);
    }
}
