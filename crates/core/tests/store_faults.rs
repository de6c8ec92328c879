//! Store persistence under injected I/O faults.
//!
//! `SketchStore::save_to_path` promises atomicity: after any failure the
//! target holds either the old contents or the new ones, and no temp file
//! survives. These tests drive every failpoint in the save path and check
//! that promise, then tear the destination with a short write (the
//! lying-fsync model) and verify the salvage + `RecoveryReport` path
//! recovers the prefix. A failed directory fsync after the rename is
//! reported, with the new store already in place.

use wmh_check::scratch;
use wmh_core::cws::Icws;
use wmh_core::sketch::Sketcher as _;
use wmh_core::store::{SketchStore, StoreError};
use wmh_sets::WeightedSet;

fn filled_store(n: u64) -> SketchStore {
    let icws = Icws::new(7, 16);
    let mut store = SketchStore::new();
    for id in 0..n {
        let set = WeightedSet::from_pairs((id * 3..id * 3 + 12).map(|k| (k, 1.5 + (k % 4) as f64)))
            .expect("valid set");
        store.insert(id, &icws.sketch(&set).expect("sketch")).expect("insert");
    }
    store
}

/// Every fail-fast point in the save path: the save errors with an `Io`
/// naming the point, the destination keeps its previous contents, and no
/// temp file is left behind.
#[test]
fn injected_failures_keep_saves_atomic() {
    let dir = scratch("atomic");
    let path = dir.join("corpus.wmhs");
    let old = filled_store(2);
    old.save_to_path(&path).expect("clean save");
    let new = filled_store(5);

    for point in ["store::write", "store::fsync", "store::rename"] {
        let g = wmh_fault::scenario(&format!("{point}=always"), 1).expect("scenario");
        let err = new.save_to_path(&path).expect_err("injected fault must surface");
        match err {
            StoreError::Io(msg) => {
                assert!(msg.contains(point), "{point}: error message {msg:?} should name it")
            }
            other => panic!("{point}: expected Io, got {other:?}"),
        }
        assert_eq!(g.fired(point), 1, "{point} should have fired once");
        drop(g);
        assert!(!dir.join("corpus.wmhs.tmp").exists(), "{point}: temp file must be cleaned up");
        let on_disk = SketchStore::load_from_path(&path).expect("old file intact");
        assert_eq!(on_disk, old, "{point}: failed save must not touch the destination");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed directory fsync comes after the rename, so the save reports an
/// `Io` naming the point while the destination already holds the new
/// store: published, not known durable.
#[test]
fn failed_directory_sync_is_reported_after_publish() {
    let dir = scratch("sync-dir");
    let path = dir.join("corpus.wmhs");
    filled_store(2).save_to_path(&path).expect("clean save");
    let new = filled_store(5);
    {
        let g = wmh_fault::scenario("store::sync_dir=once", 1).expect("scenario");
        match new.save_to_path(&path) {
            Err(StoreError::Io(msg)) => assert!(msg.contains("store::sync_dir"), "{msg:?}"),
            other => panic!("a failed directory sync must surface as Io, got {other:?}"),
        }
        assert_eq!(g.fired("store::sync_dir"), 1);
    }
    assert!(!dir.join("corpus.wmhs.tmp").exists(), "the temp file was renamed away");
    assert_eq!(SketchStore::load_from_path(&path).expect("renamed file decodes"), new);
    let _ = std::fs::remove_dir_all(&dir);
}

/// ENOSPC-style fail-once: the first save fails, the bare retry succeeds
/// and the destination ends up byte-identical to a fault-free save.
#[test]
fn fail_once_then_retry_recovers() {
    let dir = scratch("once");
    let path = dir.join("corpus.wmhs");
    let store = filled_store(4);
    {
        let g = wmh_fault::scenario("store::write=once", 3).expect("scenario");
        assert!(matches!(store.save_to_path(&path), Err(StoreError::Io(_))));
        store.save_to_path(&path).expect("retry after transient fault");
        assert_eq!(g.hits("store::write"), 2);
        assert_eq!(g.fired("store::write"), 1);
    }
    assert_eq!(SketchStore::load_from_path(&path).expect("load"), store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short write that "succeeds" (lying fsync) leaves a torn destination;
/// the total decoder refuses it and salvage recovers the record prefix
/// with an honest `RecoveryReport`.
#[test]
fn short_write_is_salvageable() {
    let dir = scratch("torn");
    let path = dir.join("corpus.wmhs");
    let store = filled_store(8);
    {
        let _g = wmh_fault::scenario("store::short_write=always", 5).expect("scenario");
        store.save_to_path(&path).expect("short write still reports success");
    }
    let err = SketchStore::load_from_path(&path).expect_err("torn file must not decode");
    assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");

    let (partial, report) = SketchStore::salvage_from_path(&path).expect("header survives");
    assert!(report.recovered < report.expected, "torn file cannot be complete: {report:?}");
    assert_eq!(report.expected, 8);
    assert_eq!(report.recovered, partial.len());
    assert!(!report.is_complete());
    assert!(report.first_error.is_some());
    // Every recovered record matches the original store bit-for-bit.
    for &id in partial.ids() {
        assert_eq!(partial.get(id).expect("recovered"), store.get(id).expect("original"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With no scenario entered, failpoints are invisible: saves succeed and
/// no counters move — not even those of a scenario another thread holds
/// armed meanwhile.
#[test]
fn inert_points_do_not_perturb_saves() {
    let (armed_tx, armed_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let g = wmh_fault::scenario("store::write=always", 1).expect("scenario");
        armed_tx.send(wmh_fault::Scenario::clone(&g)).expect("hand over");
        let _ = done_rx.recv(); // stay entered until the save is checked
    });
    let elsewhere = armed_rx.recv().expect("armed");
    let dir = scratch("inert");
    let path = dir.join("corpus.wmhs");
    let store = filled_store(3);
    store.save_to_path(&path).expect("save with inert points");
    assert_eq!(SketchStore::load_from_path(&path).expect("load"), store);
    assert_eq!(elsewhere.hits("store::write"), 0);
    drop(done_tx);
    holder.join().expect("holder thread");
    let _ = std::fs::remove_dir_all(&dir);
}
