//! Simple tabulation hashing.
//!
//! Splits a 64-bit key into eight bytes and XORs eight random table lookups.
//! Simple tabulation is 3-independent and is known to make MinHash-style
//! minima behave as if fully random (Pătraşcu & Thorup 2012); we provide it
//! as an alternative permutation family and use it in tests as an
//! independence cross-check against the multiply-mod-prime family.

use crate::seeded::SeededHash;

/// A tabulation hash function over 64-bit keys.
///
/// Holds 8 tables × 256 entries × 8 bytes = 16 KiB of state, filled
/// deterministically from a [`SeededHash`].
#[derive(Clone)]
pub struct TabulationHash {
    tables: Box<[[u64; 256]; 8]>,
}

impl std::fmt::Debug for TabulationHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabulationHash").field("fingerprint", &self.tables[0][0]).finish()
    }
}

impl TabulationHash {
    /// Build the `d`-th tabulation function under `oracle`.
    #[must_use]
    pub fn new(oracle: &SeededHash, d: u64) -> Self {
        let mut tables = Box::new([[0u64; 256]; 8]);
        for (ti, table) in tables.iter_mut().enumerate() {
            for (bi, slot) in table.iter_mut().enumerate() {
                *slot = oracle.hash4(0x7AB1_E5ED, d, ti as u64, bi as u64);
            }
        }
        Self { tables }
    }

    /// Hash a 64-bit key.
    #[inline]
    #[must_use]
    pub fn hash(&self, key: u64) -> u64 {
        let b = key.to_le_bytes();
        self.tables[0][b[0] as usize]
            ^ self.tables[1][b[1] as usize]
            ^ self.tables[2][b[2] as usize]
            ^ self.tables[3][b[3] as usize]
            ^ self.tables[4][b[4] as usize]
            ^ self.tables[5][b[5] as usize]
            ^ self.tables[6][b[6] as usize]
            ^ self.tables[7][b[7] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let o = SeededHash::new(1);
        let a = TabulationHash::new(&o, 0);
        let b = TabulationHash::new(&o, 0);
        assert_eq!(a.hash(123), b.hash(123));
        let c = TabulationHash::new(&o, 1);
        assert_ne!(a.hash(123), c.hash(123));
    }

    #[test]
    fn no_collisions_on_small_range() {
        use std::collections::HashSet;
        let t = TabulationHash::new(&SeededHash::new(77), 0);
        let outs: HashSet<u64> = (0..100_000u64).map(|k| t.hash(k)).collect();
        assert_eq!(outs.len(), 100_000);
    }

    #[test]
    fn pairwise_independence_spot_check() {
        // Empirical correlation between h(x) bit0 and h(x+1) bit0 ≈ 0.
        let t = TabulationHash::new(&SeededHash::new(4), 0);
        let n = 50_000u64;
        let mut agree = 0u64;
        for x in 0..n {
            if (t.hash(x) ^ t.hash(x + 1)) & 1 == 0 {
                agree += 1;
            }
        }
        let frac = agree as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "bit agreement {frac}");
    }

    #[test]
    fn min_over_set_is_uniform() {
        let oracle = SeededHash::new(2025);
        let n = 8usize;
        let trials = 4_000u64;
        let mut counts = vec![0u32; n];
        for d in 0..trials {
            let t = TabulationHash::new(&oracle, d);
            let winner = (0..n as u64).min_by_key(|&i| t.hash(i)).expect("non-empty");
            counts[winner as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let z = (f64::from(c) - expect) / (expect * (1.0 - 1.0 / n as f64)).sqrt();
            assert!(z.abs() < 5.0, "element {i} won {c} times (z = {z:.2})");
        }
    }
}
