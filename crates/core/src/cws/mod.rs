//! The Consistent Weighted Sampling scheme (paper §4.2, Table 3).
//!
//! All six algorithms sample, per hash function `d`, a pair `(k, y_k)` with
//! `0 < y_k ≤ S_k` that is **uniform** (element `k` chosen with probability
//! `S_k / Σ S_k`, `y_k` effectively uniform in position) and **consistent**
//! (the same element with compatible weights yields the same sample across
//! sets) — Definition 8. Collision probability then equals the generalized
//! Jaccard similarity (Eq. 4).
//!
//! * [`Cws`] — the original interval-exploration algorithm \[45\] (§4.2.1),
//!   implemented here as an exact simulation of the active-index record
//!   process (see the [`Cws`] type docs for the construction);
//! * [`Icws`] — Ioffe's closed-form sampler \[49\] (§4.2.2);
//! * [`ZeroBitCws`] — ICWS keeping only `k` \[50\] (§4.2.3);
//! * [`Ccws`] — quantization of the *original* weights \[51\] (§4.2.4);
//! * [`Pcws`] — ICWS with one fewer uniform \[52\] (§4.2.5);
//! * [`I2cws`] — independent `y_k`/`z_k` sampling \[53\] (§4.2.6).

mod ccws;
#[allow(clippy::module_inception)]
mod cws;
mod i2cws;
mod icws;
mod pcws;
mod zero_bit;

pub use ccws::{Ccws, CcwsPairing};
pub use cws::{Cws, RecordSample};
pub use i2cws::I2cws;
pub use icws::{Icws, IcwsSample};
pub use pcws::Pcws;
pub use zero_bit::ZeroBitCws;

/// Encode a signed quantization step `t = ⌊ln S / r + β⌋` (which is negative
/// for weights below 1) into a packable word.
#[inline]
#[must_use]
pub fn encode_step(t: i64) -> u64 {
    // Zigzag keeps small |t| small and is bijective.
    ((t << 1) ^ (t >> 63)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_step_is_injective_on_range() {
        use std::collections::HashSet;
        let outs: HashSet<u64> = (-1000..1000).map(encode_step).collect();
        assert_eq!(outs.len(), 2000);
        assert_eq!(encode_step(0), 0);
        assert_eq!(encode_step(-1), 1);
        assert_eq!(encode_step(1), 2);
    }
}
