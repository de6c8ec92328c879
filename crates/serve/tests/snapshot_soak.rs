//! Chaos soak for the durability lifecycle: snapshots, compaction,
//! scrubbing, and half-open write recovery.
//!
//! The claims under test, with deterministic failpoint schedules:
//!
//! * **Kill-resume stays byte-identical at every lifecycle phase.** A
//!   service killed while snapshots, rotations, and scrub passes are
//!   being fault-injected (`serve::snapshot_write`,
//!   `serve::snapshot_fsync`, `serve::snapshot_rename`,
//!   `serve::wal_rotate`, `serve::scrub`) reopens byte-identical to a
//!   no-snapshot twin that applied the same acknowledged mutations — at
//!   1, 2, and 8 shards.
//! * **Recovery is bounded by the last snapshot.** After compaction,
//!   reopen replays only segments at or above the newest snapshot's
//!   generation — pinned by the `serve::wal_replay` hit counter, not by
//!   wall-clock hope — and the retired segment files are gone.
//! * **A flipped bit falls back one generation.** A corrupt newest
//!   snapshot is detected by its CRCs and recovery falls back to the
//!   previous generation plus covering WAL history, byte-identical.
//! * **A failed snapshot is an abort, not damage.** ENOSPC-style faults
//!   at any point of the snapshot write leave the prior generation (and
//!   no `*.tmp` litter) behind; writes keep flowing.
//! * **The scrubber finds and heals rot.** Flipped bits in a snapshot
//!   and a sealed segment are quarantined (`*.bad`), a fresh snapshot
//!   re-establishes durability, and an injected shard-memory mismatch
//!   (`serve::scrub_audit`) quarantines and rebuilds the shard — all
//!   without changing a single query byte.
//! * **`read_only` is half-open, not sticky.** A tripped write gate
//!   rejects with typed backoff while the fault persists, and re-admits
//!   writes via a deterministic probe append once it clears.
//!
//! Each test's faults live in its own [`wmh_fault::scenario`], which the
//! service's shard jobs and threads carry, so schedules cannot leak
//! across concurrently scheduled tests.

use std::path::Path;

use wmh_check::scratch;
use wmh_serve::{snapshot, MutationRequest, Outcome, Service, ServiceConfig, ServiceError};

mod common;
use common::{corpus, fast_retry, probe, script, seed, store_for};

fn config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        default_deadline_us: 5_000_000,
        retry: fast_retry(),
        probe_every: 4,
        ..ServiceConfig::default()
    }
}

/// Apply `requests` expecting every one to commit cleanly.
fn apply_all(service: &Service, requests: &[MutationRequest]) {
    for request in requests {
        let response = service.mutate(request);
        assert_eq!(response.outcome, Outcome::Ok, "mutation degraded: {response:?}");
        assert!(response.durable && response.applied, "{response:?}");
    }
}

/// Flip one bit in the middle of `path` — the stand-in for silent disk
/// rot. Any single flipped bit must fail a CRC-32C somewhere.
fn flip_bit(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read for corruption");
    assert!(bytes.len() > 64, "file too small to corrupt meaningfully");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(path, bytes).expect("write corruption");
}

/// Active-segment file name for generation `gen` (mirrors the WAL's
/// naming scheme).
fn segment_name(gen: u64) -> String {
    format!("wal-{gen:016x}.seg")
}

/// The core lifecycle kill-resume claim: run the mutation script with
/// automatic snapshots every 5 writes and periodic scrub passes, all
/// under an injected fault schedule; kill; reopen. The recovered service
/// must answer byte-identically to a twin that applied the same script
/// on a fresh log with no snapshots and no faults anywhere.
fn lifecycle_kill_resume(label: &str, schedule: &str, shards: usize) {
    let faults = wmh_fault::scenario(schedule, seed()).expect("scenario");
    let docs = corpus(32);
    let store = store_for(&docs);
    let dir = scratch(&format!("{label}-{shards}"));
    let wal = dir.join("soak.wal");
    let snapping = ServiceConfig { snapshot_every: Some(5), ..config(shards) };

    let service = Service::open(&store, &wal, snapping.clone()).expect("open");
    let requests = script(&docs, 24);
    for (i, request) in requests.iter().enumerate() {
        let response = service.mutate(request);
        assert_eq!(response.outcome, Outcome::Ok, "write {i} degraded: {response:?}");
        // Periodic scrub passes; a fault-failed pass is absorbed, like
        // the background scrubber absorbs it.
        if i % 7 == 6 {
            let _ = service.scrub();
        }
    }
    drop(service); // SIGKILL stand-in: only the WAL directory survives.

    drop(faults);
    let recovered = Service::open(&store, &wal, snapping).expect("reopen");
    let twin = Service::open(&store, &dir.join("twin.wal"), config(shards)).expect("twin open");
    apply_all(&twin, &requests);
    assert_eq!(
        probe(&recovered, &docs),
        probe(&twin, &docs),
        "lifecycle kill-resume not byte-identical ({label}, {shards} shards)"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn kill_resume_under_snapshot_write_faults() {
    for shards in [1, 2, 8] {
        lifecycle_kill_resume("snap-write", "serve::snapshot_write=1in2", shards);
    }
}

#[test]
fn kill_resume_under_snapshot_fsync_faults() {
    for shards in [1, 2, 8] {
        lifecycle_kill_resume("snap-fsync", "serve::snapshot_fsync=1in2", shards);
    }
}

#[test]
fn kill_resume_under_snapshot_rename_faults() {
    for shards in [1, 2, 8] {
        lifecycle_kill_resume("snap-rename", "serve::snapshot_rename=1in2", shards);
    }
}

#[test]
fn kill_resume_under_rotate_faults() {
    for shards in [1, 2, 8] {
        lifecycle_kill_resume("rotate", "serve::wal_rotate=1in2", shards);
    }
}

#[test]
fn kill_resume_under_scrub_faults() {
    for shards in [1, 2, 8] {
        lifecycle_kill_resume("scrub", "serve::scrub=1in2", shards);
    }
}

/// After two snapshots, recovery must replay only segments at or above
/// the newest snapshot's generation — counted at the `serve::wal_replay`
/// failpoint, with the retired generation-0 segment file actually gone.
#[test]
fn recovery_after_compaction_replays_only_live_segments() {
    let soak = wmh_fault::scenario("soak::baseline=never", seed()).expect("scenario");
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("compaction");
    let wal = dir.join("soak.wal");
    let requests = script(&docs, 15);

    let service = Service::open(&store, &wal, config(2)).expect("open");
    apply_all(&service, &requests[..8]);
    let gen1 = service.snapshot().expect("first snapshot");
    apply_all(&service, &requests[8..12]);
    let gen2 = service.snapshot().expect("second snapshot");
    assert!(gen2 > gen1, "generations must advance: {gen1} -> {gen2}");
    apply_all(&service, &requests[12..]);
    assert_eq!(service.health().snapshot_generation, Some(gen2));
    drop(service);

    // Lag-one retention: the second snapshot subsumes generation 0.
    assert!(
        !wal.join(segment_name(0)).exists(),
        "generation-0 segment must be retired after the second snapshot"
    );
    assert!(
        wal.join(segment_name(gen1)).exists(),
        "the fallback generation's covering segment must survive"
    );

    let before = soak.hits("serve::wal_replay");
    let recovered = Service::open(&store, &wal, config(2)).expect("reopen");
    let replayed = soak.hits("serve::wal_replay") - before;
    assert_eq!(replayed, 1, "only the newest snapshot's tail segment may replay");
    let report = recovered.wal_recovery().expect("writable service");
    assert_eq!(report.records, 3, "exactly the post-snapshot tail: {report:?}");
    assert_eq!(report.segments_replayed, 1, "{report:?}");
    assert_eq!(recovered.recovery().expect("recovery info").snapshot_generation, Some(gen2));
    assert_eq!(recovered.health().replayed_records, 3);

    let twin = Service::open(&store, &dir.join("twin.wal"), config(2)).expect("twin");
    apply_all(&twin, &requests);
    assert_eq!(probe(&recovered, &docs), probe(&twin, &docs));
    let _ = std::fs::remove_dir_all(dir);
}

/// A flipped bit in the newest snapshot is detected on open and recovery
/// falls back exactly one generation — previous snapshot plus covering
/// WAL segments — byte-identical to the acknowledged state.
#[test]
fn corrupt_newest_snapshot_falls_back_one_generation() {
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("fallback");
    let wal = dir.join("soak.wal");
    let requests = script(&docs, 15);

    let service = Service::open(&store, &wal, config(2)).expect("open");
    apply_all(&service, &requests[..8]);
    let gen1 = service.snapshot().expect("first snapshot");
    apply_all(&service, &requests[8..12]);
    let gen2 = service.snapshot().expect("second snapshot");
    apply_all(&service, &requests[12..]);
    let reference = probe(&service, &docs);
    drop(service);

    flip_bit(&wal.join(snapshot::snapshot_file_name(gen2)));

    let recovered = Service::open(&store, &wal, config(2)).expect("reopen past corruption");
    let recovery = recovered.recovery().expect("recovery info").clone();
    assert_eq!(
        recovery.snapshot_generation,
        Some(gen1),
        "recovery must fall back to the previous generation: {recovery:?}"
    );
    assert_eq!(recovery.snapshots_rejected, 1, "{recovery:?}");
    assert_eq!(
        recovery.replay.records, 7,
        "the fallback generation's full tail must replay: {recovery:?}"
    );
    assert_eq!(probe(&recovered, &docs), reference, "fallback recovery not byte-identical");
    let _ = std::fs::remove_dir_all(dir);
}

/// An ENOSPC-style failure at any stage of the snapshot write is a typed
/// abort: the prior generation stays the recovery point, no `*.tmp`
/// litter survives, and writes keep flowing.
#[test]
fn failed_snapshot_keeps_the_prior_generation_intact() {
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("enospc");
    let wal = dir.join("soak.wal");
    let requests = script(&docs, 13);

    let service = Service::open(&store, &wal, config(2)).expect("open");
    apply_all(&service, &requests[..8]);
    let gen1 = service.snapshot().expect("first snapshot");
    apply_all(&service, &requests[8..12]);

    for failpoint in [
        "serve::snapshot_write",
        "serve::snapshot_fsync",
        "serve::snapshot_rename",
        "serve::wal_rotate",
    ] {
        let _faults =
            wmh_fault::scenario(&format!("{failpoint}=always"), seed()).expect("scenario");
        match service.snapshot() {
            Err(ServiceError::Snapshot(e)) => {
                assert!(e.contains(failpoint), "the fault must be named: {e}")
            }
            other => panic!("snapshot under {failpoint} must fail typed: {other:?}"),
        }
        let snaps = snapshot::list(&wal).expect("list snapshots");
        assert_eq!(
            snaps.last().map(|(gen, _)| *gen),
            Some(gen1),
            "the prior generation must remain the newest after a {failpoint} abort"
        );
        let litter: Vec<_> = std::fs::read_dir(&wal)
            .expect("read wal dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(litter.is_empty(), "a failed snapshot must clean its temp file: {litter:?}");
    }

    // Writes flow after the aborts (each fault scenario exited with its
    // iteration), and a kill-resume lands exactly on the acknowledged
    // state via the intact prior generation.
    apply_all(&service, &requests[12..]);
    let reference = probe(&service, &docs);
    drop(service);
    let recovered = Service::open(&store, &wal, config(2)).expect("reopen");
    assert_eq!(recovered.recovery().expect("recovery info").snapshot_generation, Some(gen1));
    assert_eq!(probe(&recovered, &docs), reference);
    let _ = std::fs::remove_dir_all(dir);
}

/// The scrubber detects a flipped bit in both a snapshot and a sealed
/// segment, quarantines the damaged files to `*.bad`, and re-establishes
/// durability with a fresh snapshot — queries unchanged, and the next
/// kill-resume recovers from the healed state.
#[test]
fn scrub_detects_flipped_bits_and_heals() {
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("scrub-rot");
    let wal = dir.join("soak.wal");
    let requests = script(&docs, 12);

    let service = Service::open(&store, &wal, config(2)).expect("open");
    apply_all(&service, &requests[..8]);
    let gen1 = service.snapshot().expect("snapshot");
    apply_all(&service, &requests[8..]);
    let reference = probe(&service, &docs);

    // Rot both durable artifacts behind the service's back.
    let snap_path = wal.join(snapshot::snapshot_file_name(gen1));
    flip_bit(&snap_path);
    flip_bit(&wal.join(segment_name(0)));

    let report = service.scrub().expect("scrub pass");
    assert_eq!(report.corrupt_snapshots.len(), 1, "{report:?}");
    assert_eq!(report.corrupt_segments, vec![0], "{report:?}");
    assert!(report.heal_errors.is_empty(), "healing must succeed: {report:?}");
    assert!(report.mismatched_shards.is_empty(), "shard memory was never touched: {report:?}");
    let healed_gen = report.snapshot_taken.expect("fresh snapshot after file damage");
    assert!(healed_gen > gen1);

    // The damaged files are quarantined aside, never deleted silently.
    let mut bad_snap = snap_path.clone().into_os_string();
    bad_snap.push(".bad");
    assert!(Path::new(&bad_snap).exists(), "damaged snapshot must be quarantined");
    assert!(!snap_path.exists());
    assert_eq!(probe(&service, &docs), reference, "scrub healing changed query bytes");
    drop(service);

    let recovered = Service::open(&store, &wal, config(2)).expect("reopen after heal");
    assert_eq!(recovered.recovery().expect("recovery info").snapshot_generation, Some(healed_gen));
    assert_eq!(probe(&recovered, &docs), reference, "post-heal recovery not byte-identical");
    let _ = std::fs::remove_dir_all(dir);
}

/// An injected shard-memory mismatch (`serve::scrub_audit`) quarantines
/// the shard and rebuilds it from the mirror in the same pass — query
/// bytes unchanged, shard healthy afterwards.
#[test]
fn scrub_audit_mismatch_rebuilds_the_shard() {
    let _guard = wmh_fault::scenario("serve::scrub_audit@0=once", seed()).expect("scenario");
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("scrub-audit");

    let service = Service::open(&store, &dir.join("soak.wal"), config(2)).expect("open");
    apply_all(&service, &script(&docs, 8));
    let reference = probe(&service, &docs);

    let report = service.scrub().expect("scrub pass");
    assert_eq!(report.mismatched_shards, vec![0], "{report:?}");
    assert!(report.heal_errors.is_empty(), "the rebuild must succeed: {report:?}");
    assert!(report.ids_spot_checked > 0 && report.shards_audited == 2, "{report:?}");
    assert_eq!(service.health().shards_quarantined, 0, "the healed shard must be back");
    assert_eq!(probe(&service, &docs), reference, "shard rebuild changed query bytes");

    // A second pass (the `once` trigger is spent) finds genuine memory.
    let clean = service.scrub().expect("second scrub pass");
    assert!(clean.mismatched_shards.is_empty(), "{clean:?}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `read_only` is a half-open circuit, not a latch: a tripped gate
/// rejects with typed backoff while the fault persists, and a
/// deterministic probe append re-admits writes once it clears.
#[test]
fn tripped_write_gate_readmits_after_the_fault_clears() {
    let faults = wmh_fault::scenario("serve::wal_append=always", seed()).expect("scenario");
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("half-open");

    let service = Service::open(&store, &dir.join("soak.wal"), config(2)).expect("open");
    let request = &script(&docs, 1)[0];

    let trip = service.mutate(request);
    assert_eq!(trip.outcome, Outcome::ReadOnly, "{trip:?}");
    assert!(trip.error.as_deref().is_some_and(|e| e.contains("write gate tripped")), "{trip:?}");
    let health = service.health();
    assert!(health.read_only && health.half_open, "{health:?}");

    // While the fault persists: fast typed rejections with backoff, and
    // probe attempts that hit the still-broken disk re-trip, not panic.
    for _ in 0..5 {
        let rejected = service.mutate(request);
        assert_eq!(rejected.outcome, Outcome::ReadOnly, "{rejected:?}");
        assert!(!rejected.durable && !rejected.applied, "{rejected:?}");
    }

    // Fault clears. Within one probe cadence a real append goes through
    // and re-opens the gate.
    drop(faults);
    let mut admitted = None;
    for attempt in 0..4 {
        let response = service.mutate(request);
        if response.outcome == Outcome::Ok {
            admitted = Some(attempt);
            assert!(response.durable && response.applied, "{response:?}");
            break;
        }
        assert_eq!(response.outcome, Outcome::ReadOnly, "{response:?}");
        assert!(response.retry_after_us > 0, "rejections must carry backoff: {response:?}");
    }
    assert!(admitted.is_some(), "a probe within one cadence must re-admit writes");
    let health = service.health();
    assert!(!health.read_only && !health.half_open, "{health:?}");

    // Fully open again: the next write commits on the first attempt.
    let next = service.mutate(&script(&docs, 2)[1]);
    assert_eq!(next.outcome, Outcome::Ok, "{next:?}");
    let _ = std::fs::remove_dir_all(dir);
}
