//! The `(seed, words…) → u64` oracle behind all shared randomness.
//!
//! A [`SeededHash`] value captures a master seed; its methods hash small
//! tuples of words. Algorithms identify each random variable by a *role*
//! constant plus its coordinates (hash index `d`, element `k`, step `t`),
//! so that e.g. the `β_k` of ICWS and the `β_{k1}` of I²CWS never alias.

use crate::mix::{combine, combine_all, fmix64, splitmix64, GOLDEN_GAMMA};
use crate::unit::to_unit_open;

/// Deterministic keyed hash oracle.
///
/// Cheap to copy (a single `u64` of pre-mixed state). All methods are pure:
/// the same `(seed, inputs)` always produces the same output, across runs
/// and platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededHash {
    state: u64,
}

impl SeededHash {
    /// Create an oracle from a master seed.
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: splitmix64(seed ^ 0x5851_F42D_4C95_7F2D) }
    }

    /// The pre-mixed internal state (stable across runs; useful for tests).
    #[inline]
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Derive a child oracle, e.g. one per hash-function index `d`.
    ///
    /// `derive(a).derive(b)` differs from `derive(b).derive(a)` and from
    /// `derive(combine(a, b))`.
    #[inline]
    #[must_use]
    pub fn derive(&self, stream: u64) -> Self {
        Self { state: combine(self.state, fmix64(stream)) }
    }

    /// Hash one word.
    #[inline]
    #[must_use]
    pub fn hash1(&self, a: u64) -> u64 {
        fmix64(combine(self.state, a))
    }

    /// Hash two words.
    #[inline]
    #[must_use]
    pub fn hash2(&self, a: u64, b: u64) -> u64 {
        fmix64(combine(combine(self.state, a), b))
    }

    /// Hash three words.
    #[inline]
    #[must_use]
    pub fn hash3(&self, a: u64, b: u64, c: u64) -> u64 {
        fmix64(combine(combine(combine(self.state, a), b), c))
    }

    /// Hash four words.
    #[inline]
    #[must_use]
    pub fn hash4(&self, a: u64, b: u64, c: u64, d: u64) -> u64 {
        fmix64(combine(combine(combine(combine(self.state, a), b), c), d))
    }

    /// Hash an arbitrary word slice (order-sensitive, length-sensitive).
    #[inline]
    #[must_use]
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        combine_all(self.state, words)
    }

    /// Hash a byte string (used for text features / vocabulary keys).
    #[must_use]
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        let mut acc = splitmix64(self.state ^ bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            acc = combine(acc, w);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            acc = combine(acc, u64::from_le_bytes(tail) ^ 0x80 ^ rem.len() as u64);
        }
        fmix64(acc)
    }

    /// Uniform `f64` in the open interval `(0, 1)` from one word.
    #[inline]
    #[must_use]
    pub fn unit1(&self, a: u64) -> f64 {
        crate::unit::to_unit_open(self.hash1(a))
    }

    /// Uniform `f64` in `(0, 1)` from two words.
    #[inline]
    #[must_use]
    pub fn unit2(&self, a: u64, b: u64) -> f64 {
        crate::unit::to_unit_open(self.hash2(a, b))
    }

    /// Uniform `f64` in `(0, 1)` from three words.
    #[inline]
    #[must_use]
    pub fn unit3(&self, a: u64, b: u64, c: u64) -> f64 {
        crate::unit::to_unit_open(self.hash3(a, b, c))
    }

    /// Uniform `f64` in `(0, 1)` from four words.
    #[inline]
    #[must_use]
    pub fn unit4(&self, a: u64, b: u64, c: u64, d: u64) -> f64 {
        crate::unit::to_unit_open(self.hash4(a, b, c, d))
    }

    /// Capture the combine chain over one leading word.
    ///
    /// `prefix1(a).finish(b)` is bit-identical to [`Self::hash2`]`(a, b)`;
    /// the kernels hoist the prefix out of their inner loops so each draw
    /// costs one combine plus one finalize instead of the full chain.
    #[inline]
    #[must_use]
    pub fn prefix1(&self, a: u64) -> HashPrefix {
        HashPrefix { acc: combine(self.state, a) }
    }

    /// Capture the combine chain over two leading words.
    ///
    /// `prefix2(a, b).finish(c)` is bit-identical to [`Self::hash3`]`(a, b, c)`.
    #[inline]
    #[must_use]
    pub fn prefix2(&self, a: u64, b: u64) -> HashPrefix {
        HashPrefix { acc: combine(combine(self.state, a), b) }
    }

    /// Start an incremental word chain, bit-identical to [`Self::hash_words`]
    /// over the words later pushed.
    ///
    /// `chain().push(a).push(b).finish()` equals `hash_words(&[a, b])`; a
    /// partially-built chain is `Copy`, so a shared `[role, d, k]` prefix can
    /// be walked down many `(j, t)` continuations without re-mixing it.
    #[inline]
    #[must_use]
    pub fn chain(&self) -> WordChain {
        WordChain { acc: splitmix64(self.state ^ 0x243F_6A88_85A3_08D3), index: 0 }
    }
}

/// A partially-applied hash: the combine chain up to (but excluding) the
/// final word, produced by [`SeededHash::prefix1`]/[`SeededHash::prefix2`].
///
/// Finishing with the last word reproduces the corresponding `hashN` chain
/// bit for bit — the vectorized sketching kernels hoist one prefix per
/// `(role, d)` and finish it per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPrefix {
    acc: u64,
}

impl HashPrefix {
    /// Extend the prefix by one more word (equivalent to having passed it to
    /// `prefixN` up front).
    #[inline]
    #[must_use]
    pub fn push(self, w: u64) -> Self {
        Self { acc: combine(self.acc, w) }
    }

    /// Finish with the final word — bit-identical to the full scalar chain.
    #[inline]
    #[must_use]
    pub fn finish(self, w: u64) -> u64 {
        fmix64(combine(self.acc, w))
    }

    /// Finish into a uniform `f64` in `(0, 1)`, like the `unitN` methods.
    #[inline]
    #[must_use]
    pub fn finish_unit(self, w: u64) -> f64 {
        to_unit_open(self.finish(w))
    }
}

/// An incremental [`SeededHash::hash_words`] computation.
///
/// Pushing words one at a time reproduces `hash_words` bit for bit; because
/// the value is `Copy`, a common word prefix (say `[role, d, k]`) is mixed
/// once and reused across every continuation — the CWS interval-record walk
/// uses this to cut per-draw hashing from a five-word chain to two combines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordChain {
    acc: u64,
    index: u64,
}

impl WordChain {
    /// Append the next word to the chain.
    #[inline]
    #[must_use]
    pub fn push(self, w: u64) -> Self {
        Self {
            acc: combine(self.acc, w ^ self.index.wrapping_mul(GOLDEN_GAMMA)),
            index: self.index + 1,
        }
    }

    /// Finalize — bit-identical to `hash_words` over the pushed words.
    #[inline]
    #[must_use]
    pub fn finish(self) -> u64 {
        fmix64(self.acc)
    }

    /// Finalize into a uniform `f64` in `(0, 1)`.
    #[inline]
    #[must_use]
    pub fn finish_unit(self) -> f64 {
        to_unit_open(self.finish())
    }
}

/// Role tags separating the random-variable streams of the algorithms.
///
/// Each weighted-MinHash algorithm consumes several independent random
/// variables per `(d, k)` pair (paper §4.2.5 counts them explicitly, e.g.
/// five uniforms for ICWS). Tagging every draw with a distinct role keeps
/// the streams independent even though they share one oracle.
pub mod role {
    /// MinHash permutation value.
    pub const MINHASH: u64 = 0x01;
    /// Subelement hash for quantization-based algorithms.
    pub const SUBELEMENT: u64 = 0x02;
    /// Fractional-part retention draw (\[Haeupler et al., 2014\]).
    pub const FRACTION: u64 = 0x03;
    /// Geometric-skip draw (\[Gollapudi et al., 2006\](1)).
    pub const SKIP: u64 = 0x04;
    /// Active-index value draw (\[Gollapudi et al., 2006\](1)).
    pub const ACTIVE_VALUE: u64 = 0x05;
    /// CWS interval-record position draw.
    pub const CWS_POS: u64 = 0x06;
    /// CWS interval-record value draw.
    pub const CWS_VAL: u64 = 0x07;
    /// ICWS/PCWS/I²CWS `u₁` (first Gamma factor).
    pub const U1: u64 = 0x08;
    /// ICWS/PCWS/I²CWS `u₂` (second Gamma factor).
    pub const U2: u64 = 0x09;
    /// ICWS family `β` (quantization phase).
    pub const BETA: u64 = 0x0A;
    /// ICWS `v₁` (first factor of `c ~ Gamma(2,1)`).
    pub const V1: u64 = 0x0B;
    /// ICWS `v₂` (second factor of `c ~ Gamma(2,1)`).
    pub const V2: u64 = 0x0C;
    /// PCWS `x` (single exponential factor).
    pub const X: u64 = 0x0D;
    /// I²CWS second independent Gamma pair `u₃`.
    pub const U3: u64 = 0x0E;
    /// I²CWS second independent Gamma pair `u₄`.
    pub const U4: u64 = 0x0F;
    /// I²CWS second quantization phase `β₂`.
    pub const BETA2: u64 = 0x10;
    /// CCWS `r ~ Beta(2,1)` draw.
    pub const BETA_R: u64 = 0x11;
    /// Thresholding draw (\[Gollapudi et al., 2006\](2)).
    pub const THRESHOLD: u64 = 0x12;
    /// Exponential draw (\[Chum et al., 2008\]).
    pub const CHUM: u64 = 0x13;
    /// Rejection-sampling sequence (\[Shrivastava, 2016\]).
    pub const REJECTION: u64 = 0x14;
    /// DartMinHash per-cell Poisson count draws (\[Christiani, 2020\]).
    pub const DART_COUNT: u64 = 0x15;
    /// DartMinHash boundary-cell position draw.
    pub const DART_POS: u64 = 0x16;
    /// DartMinHash within-band rank draw.
    pub const DART_RANK: u64 = 0x17;
    /// DartMinHash dart identity (code + bucket assignment).
    pub const DART_ID: u64 = 0x18;
    /// BagMinHash per-cell Poisson count draws (\[Ertl, 2018\]).
    pub const BAG_COUNT: u64 = 0x19;
    /// BagMinHash boundary-cell position draw.
    pub const BAG_POS: u64 = 0x1A;
    /// BagMinHash within-band rank draw.
    pub const BAG_RANK: u64 = 0x1B;
    /// BagMinHash dart identity (code + slot assignment).
    pub const BAG_ID: u64 = 0x1C;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = SeededHash::new(7);
        let b = SeededHash::new(7);
        assert_eq!(a.hash3(1, 2, 3), b.hash3(1, 2, 3));
        assert_eq!(a.hash_bytes(b"hello"), b.hash_bytes(b"hello"));
    }

    #[test]
    fn seed_changes_everything() {
        let a = SeededHash::new(7);
        let b = SeededHash::new(8);
        assert_ne!(a.hash1(1), b.hash1(1));
        assert_ne!(a.unit2(1, 2), b.unit2(1, 2));
    }

    #[test]
    fn arity_and_argument_order_matter() {
        let h = SeededHash::new(1);
        assert_ne!(h.hash2(1, 2), h.hash2(2, 1));
        assert_ne!(h.hash1(1), h.hash2(1, 0));
        assert_ne!(h.hash3(1, 2, 3), h.hash_words(&[1, 2, 3, 0]));
    }

    #[test]
    fn derive_is_directional() {
        let h = SeededHash::new(9);
        assert_ne!(h.derive(1).derive(2).state(), h.derive(2).derive(1).state());
        assert_ne!(h.derive(1).state(), h.state());
    }

    #[test]
    fn hash_words_matches_explicit_arity_semantics() {
        // hash_words must at least distinguish everything the fixed-arity
        // versions distinguish (they need not be equal).
        let h = SeededHash::new(3);
        assert_ne!(h.hash_words(&[1]), h.hash_words(&[1, 1]));
        assert_ne!(h.hash_words(&[]), h.hash_words(&[0]));
    }

    #[test]
    fn hash_bytes_tail_handling() {
        let h = SeededHash::new(4);
        // Distinct lengths sharing a prefix must not collide.
        let inputs: Vec<&[u8]> = vec![
            b"",
            b"a",
            b"ab",
            b"abc",
            b"abcd",
            b"abcde",
            b"abcdef",
            b"abcdefg",
            b"abcdefgh",
            b"abcdefghi",
        ];
        let mut seen = std::collections::HashSet::new();
        for i in inputs {
            assert!(seen.insert(h.hash_bytes(i)), "collision on {i:?}");
        }
        // Trailing zero byte differs from absent byte.
        assert_ne!(h.hash_bytes(b"a\0"), h.hash_bytes(b"a"));
        assert_ne!(h.hash_bytes(b"abcdefgh\0"), h.hash_bytes(b"abcdefgh"));
    }

    #[test]
    fn unit_outputs_in_open_interval() {
        let h = SeededHash::new(11);
        for i in 0..10_000u64 {
            let u = h.unit1(i);
            assert!(u > 0.0 && u < 1.0, "unit1({i}) = {u}");
        }
    }

    #[test]
    fn unit_mean_is_half() {
        let h = SeededHash::new(13);
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| h.unit1(i)).sum::<f64>() / n as f64;
        // CLT: sd of the mean = 1/sqrt(12 n) ≈ 9.1e-4; allow 5σ.
        assert!((mean - 0.5).abs() < 5.0 * (1.0 / (12.0 * n as f64)).sqrt());
    }

    #[test]
    fn mixer_argmin_is_uniform() {
        // The avalanche mixer behaves as a fresh random function per d, so
        // the argmin over a fixed universe is uniform — this is the
        // min-wise-independence property MinHash needs, and the reason the
        // default permutation in wmh-core is mixer-based rather than the
        // 2-universal linear family (see universal.rs for the counterpart
        // bias test).
        let h = SeededHash::new(2024);
        let n = 16u64;
        let trials = 8_000u64;
        let mut counts = vec![0u32; n as usize];
        for d in 0..trials {
            let winner = (0..n).min_by_key(|&k| h.hash2(d, k)).expect("non-empty");
            counts[winner as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (k, &c) in counts.iter().enumerate() {
            let z = (f64::from(c) - expect) / (expect * (1.0 - 1.0 / n as f64)).sqrt();
            assert!(z.abs() < 5.0, "element {k} won {c} times (z = {z:.2})");
        }
    }

    #[test]
    fn prefix_reproduces_fixed_arity_chains() {
        let h = SeededHash::new(0xFACE);
        for a in [0u64, 1, 0x5EED, u64::MAX] {
            for b in [0u64, 7, 0xDEAD_BEEF] {
                assert_eq!(h.prefix1(a).finish(b), h.hash2(a, b));
                assert_eq!(h.prefix1(a).finish_unit(b).to_bits(), h.unit2(a, b).to_bits());
                for c in [0u64, 3, u64::MAX - 1] {
                    assert_eq!(h.prefix2(a, b).finish(c), h.hash3(a, b, c));
                    assert_eq!(h.prefix1(a).push(b).finish(c), h.hash3(a, b, c));
                    assert_eq!(
                        h.prefix2(a, b).finish_unit(c).to_bits(),
                        h.unit3(a, b, c).to_bits()
                    );
                    assert_eq!(h.prefix2(a, b).push(c).finish(0), h.hash4(a, b, c, 0));
                }
            }
        }
    }

    #[test]
    fn word_chain_matches_hash_words() {
        let h = SeededHash::new(0xC1A0);
        assert_eq!(h.chain().finish(), h.hash_words(&[]));
        let words = [0x06u64, 3, 9, u64::MAX, 0, 0x1234_5678_9ABC_DEF0];
        for n in 0..=words.len() {
            let mut chain = h.chain();
            for &w in &words[..n] {
                chain = chain.push(w);
            }
            assert_eq!(chain.finish(), h.hash_words(&words[..n]), "length {n}");
            assert_eq!(
                chain.finish_unit().to_bits(),
                crate::unit::to_unit_open(h.hash_words(&words[..n])).to_bits()
            );
        }
        // A copied prefix walks two continuations independently.
        let prefix = h.chain().push(7).push(8);
        assert_eq!(prefix.push(1).finish(), h.hash_words(&[7, 8, 1]));
        assert_eq!(prefix.push(2).finish(), h.hash_words(&[7, 8, 2]));
    }

    #[test]
    fn roles_are_distinct() {
        let roles = [
            role::MINHASH,
            role::SUBELEMENT,
            role::FRACTION,
            role::SKIP,
            role::ACTIVE_VALUE,
            role::CWS_POS,
            role::CWS_VAL,
            role::U1,
            role::U2,
            role::BETA,
            role::V1,
            role::V2,
            role::X,
            role::U3,
            role::U4,
            role::BETA2,
            role::BETA_R,
            role::THRESHOLD,
            role::CHUM,
            role::REJECTION,
            role::DART_COUNT,
            role::DART_POS,
            role::DART_RANK,
            role::DART_ID,
            role::BAG_COUNT,
            role::BAG_POS,
            role::BAG_RANK,
            role::BAG_ID,
        ];
        let set: std::collections::HashSet<u64> = roles.iter().copied().collect();
        assert_eq!(set.len(), roles.len());
    }
}
