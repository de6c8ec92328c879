//! Crash-safety and fuzz properties of the [`SketchStore`] binary format.
//!
//! The contract under test (see the `store` module docs): `decode` and
//! `salvage` are **total** — no byte sequence, however hostile, may panic
//! or over-allocate; corruption of an encoded store is either detected
//! (typed error) or survived (salvage recovers the valid prefix).

use wmh_check::chaos::ChaosBuf;
use wmh_check::{ensure, run_cases, Gen};
use wmh_core::cws::Icws;
use wmh_core::store::SketchStore;
use wmh_core::Sketcher;
use wmh_sets::WeightedSet;

/// A store with `docs` sketches of width `d`, seeded deterministically.
fn sample_store(g: &mut Gen, max_docs: usize, max_d: usize) -> SketchStore {
    let docs = g.range_usize(0, max_docs);
    let d = g.range_usize(1, max_d);
    let icws = Icws::new(g.u64(), d);
    let mut store = SketchStore::new();
    for id in 0..docs as u64 {
        let set = WeightedSet::from_pairs((id * 8..id * 8 + 12).map(|k| (k, 1.0 + (k % 5) as f64)))
            .expect("valid");
        store.insert(id, &icws.sketch(&set).expect("ok")).expect("insert");
    }
    store
}

/// 10k arbitrary byte buffers: `decode` never panics, it returns.
#[test]
fn decode_is_total_on_arbitrary_bytes() {
    run_cases(10_000, |g| {
        let bytes = g.bytes(256);
        let _ = SketchStore::decode(&bytes);
        let _ = SketchStore::salvage(&bytes);
        Ok(())
    });
}

/// Arbitrary bytes *behind a valid magic/version prefix* — the hostile
/// region the header and record parsers actually face.
#[test]
fn decode_is_total_behind_a_valid_magic() {
    run_cases(2_000, |g| {
        let mut bytes = b"WMHS".to_vec();
        let version: u32 = if g.bool(0.5) { 2 } else { 1 };
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&g.bytes(192));
        let _ = SketchStore::decode(&bytes);
        let _ = SketchStore::salvage(&bytes);
        Ok(())
    });
}

/// encode → decode is the identity.
#[test]
fn encode_decode_identity() {
    run_cases(128, |g| {
        let store = sample_store(g, 8, 48);
        let back =
            SketchStore::decode(&store.encode()).map_err(|e| format!("decode failed: {e}"))?;
        ensure!(back == store, "roundtrip changed the store");
        Ok(())
    });
}

/// Any ChaosBuf fault sequence on a valid v2 image: `decode` returns a
/// typed result (corruption detected or, for pure garbage suffixes that
/// happen to be benign, the original), and `salvage` never recovers a
/// record that was not in the original store.
#[test]
fn chaos_faults_never_panic_and_salvage_stays_sound() {
    run_cases(1_000, |g| {
        let store = sample_store(g, 6, 32);
        let mut buf = ChaosBuf::new(store.encode());
        let faults = g.range_usize(1, 4);
        for _ in 0..faults {
            buf.corrupt(g);
        }
        // Totality: neither path may panic on the corrupted image.
        let decoded = SketchStore::decode(buf.as_slice());
        if let Ok(d) = &decoded {
            // A fault sequence can cancel out (flip + truncate-before-flip
            // cannot, but flip twice at the same bit can); accepting the
            // image is only sound if it equals the original.
            ensure!(*d == store, "decode accepted a corrupted image: {:?}", buf.mutations());
        }
        if let Ok((recovered, report)) = SketchStore::salvage(buf.as_slice()) {
            ensure!(
                recovered.len() <= store.len(),
                "salvage invented records: {} > {} after {:?}",
                recovered.len(),
                store.len(),
                buf.mutations()
            );
            for &id in recovered.ids() {
                ensure!(
                    recovered.get(id) == store.get(id),
                    "salvaged record {id} differs from the original after {:?}",
                    buf.mutations()
                );
            }
            ensure!(
                report.recovered == recovered.len(),
                "report recovered {} but store holds {}",
                report.recovered,
                recovered.len()
            );
        }
        Ok(())
    });
}

/// Truncation at *every* prefix of a real image: decode errs (or returns
/// the original at full length), salvage recovers only original records.
#[test]
fn every_truncation_point_is_survived() {
    run_cases(16, |g| {
        let store = sample_store(g, 4, 16);
        let bytes = store.encode();
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            ensure!(SketchStore::decode(cut).is_err(), "truncation to {len} accepted");
            if let Ok((recovered, _)) = SketchStore::salvage(cut) {
                for &id in recovered.ids() {
                    ensure!(
                        recovered.get(id) == store.get(id),
                        "salvage at cut {len} corrupted record {id}"
                    );
                }
            }
        }
        Ok(())
    });
}
