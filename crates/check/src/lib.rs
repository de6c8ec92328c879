//! # `wmh-check` — property testing and fault injection, from scratch
//!
//! A minimal stand-in for an external property-testing framework, built on
//! the same deterministic-randomness philosophy as the rest of the
//! workspace: every case is a pure function of `(suite seed, case index)`,
//! so a failure report names the exact case seed to replay.
//!
//! * [`Gen`] — a SplitMix64-backed value generator (integers, floats in
//!   ranges, byte vectors, collection sizes).
//! * [`run_cases`] / [`run_cases_seeded`] — drive a closure over `n`
//!   generated cases and panic with the offending case seed on the first
//!   failure.
//! * [`chaos`] — [`chaos::ChaosBuf`], a byte-buffer corruptor (bit flips,
//!   truncation, garbage suffixes) for crash-safety tests of binary
//!   formats and checkpoint logs.
//! * [`stress`] — barrier-synchronized concurrency hammering and a
//!   single-thread witness for committer-style designs.
//! * [`scratch`] — a fresh, uniquely named temp directory per call.

pub mod adversarial;
pub mod chaos;
pub mod stress;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under the OS temp dir, named with `tag`, the
/// process id and a per-process counter, so no two calls — in one test
/// run or in two runs sharing a host — ever get the same directory.
///
/// # Panics
/// Panics if the directory cannot be created.
#[must_use]
pub fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("wmh-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Deterministic value generator for property tests.
///
/// SplitMix64 underneath: 64-bit state, full-period, and two generators
/// created from the same seed produce identical streams.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// A generator with an explicit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be positive.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is empty");
        // Rejection sampling kills the modulo bias; at most one extra draw
        // in expectation for any bound.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform in the inclusive integer range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform `usize` in `[lo, hi]`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53-bit resolution.
    pub fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad float range");
        lo + self.unit() * (hi - lo)
    }

    /// Log-uniform float: `10^e` with `e` uniform in `[lo_exp, hi_exp)`.
    /// The natural shape for weights spanning orders of magnitude.
    pub fn log_uniform(&mut self, lo_exp: f64, hi_exp: f64) -> f64 {
        10f64.powf(self.range_f64(lo_exp, hi_exp))
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// A byte vector with length uniform in `[0, max_len]`.
    pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.range_usize(0, max_len);
        let mut out = vec![0u8; len];
        self.fill(&mut out);
        out
    }

    /// Fill a slice with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Run `n` generated cases with the default suite seed.
///
/// The closure returns `Err(message)` (or panics) to fail the suite; the
/// panic message includes the case index and per-case seed so the failure
/// replays with `Gen::new(seed)`.
///
/// # Panics
/// Panics on the first failing case.
pub fn run_cases(n: usize, test: impl FnMut(&mut Gen) -> Result<(), String>) {
    run_cases_seeded(0xC0FF_EE00_5EED, n, test);
}

/// [`run_cases`] with an explicit suite seed.
///
/// # Panics
/// Panics on the first failing case.
pub fn run_cases_seeded(
    suite_seed: u64,
    n: usize,
    mut test: impl FnMut(&mut Gen) -> Result<(), String>,
) {
    for case in 0..n {
        // Decorrelate case streams: the case seed is itself mixed output,
        // not consecutive integers.
        let case_seed = Gen::new(suite_seed ^ case as u64).u64();
        let mut g = Gen::new(case_seed);
        if let Err(msg) = test(&mut g) {
            panic!("property failed at case {case}/{n} (replay seed {case_seed:#x}): {msg}");
        }
    }
}

/// Build a `Result`-returning check from a condition, proptest-style.
///
/// ```
/// wmh_check::run_cases(100, |g| {
///     let x = g.u64();
///     wmh_check::ensure!(x == x, "x {x} not reflexive");
///     Ok(())
/// });
/// ```
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
    ($cond:expr) => {
        if !$cond {
            return Err(format!("condition failed: {}", stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_and_live_under_tmp() {
        let (a, b) = (scratch("sanity"), scratch("sanity"));
        assert_ne!(a, b, "two calls must never share a directory");
        for dir in [a, b] {
            assert!(dir.starts_with(std::env::temp_dir()), "{}", dir.display());
            assert!(dir.is_dir());
            assert_eq!(std::fs::read_dir(&dir).expect("ls").count(), 0, "must start empty");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn gen_is_deterministic() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..32 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn ranges_hold_their_bounds() {
        let mut g = Gen::new(1);
        for _ in 0..2_000 {
            let v = g.range_u64(10, 20);
            assert!((10..=20).contains(&v));
            let x = g.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
            let w = g.log_uniform(-6.0, 6.0);
            assert!(w > 0.0 && w.is_finite());
        }
    }

    #[test]
    fn bytes_cover_lengths() {
        let mut g = Gen::new(2);
        let mut seen_empty = false;
        let mut seen_full = false;
        for _ in 0..400 {
            let b = g.bytes(8);
            assert!(b.len() <= 8);
            seen_empty |= b.is_empty();
            seen_full |= b.len() == 8;
        }
        assert!(seen_empty && seen_full, "length range not exercised");
    }

    #[test]
    #[should_panic(expected = "replay seed")]
    fn failures_report_replay_seed() {
        run_cases(10, |g| {
            let x = g.u64();
            ensure!(x % 2 == 0, "odd {x}");
            Ok(())
        });
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut g = Gen::new(3);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[g.below(3) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }
}
