//! Chaos soak for the crash-safe live-mutation path.
//!
//! The claims under test, with deterministic failpoint schedules:
//!
//! * **Kill-resume recovery is byte-identical.** A service killed
//!   mid-mutation — faults injected at the WAL append (`serve::wal_append`),
//!   the fsync (`serve::wal_fsync`), or the in-shard apply (`serve::apply`)
//!   — and reopened over the same log answers every probe byte-identically
//!   to a fresh service that applied exactly the acknowledged-durable
//!   mutations, at 1, 2, and 8 shards.
//! * **The WAL commit point is honest.** An exhausted append flips the
//!   service read-only and acknowledges *nothing* it did not durably log;
//!   a torn tail (partial final frame after a crash) is discarded on
//!   replay, never misread.
//! * **Self-heal converges.** An apply that exhausts its in-worker retries
//!   rebuilds the shard from the durable state and keeps answering — state
//!   identical to never having failed.
//! * **Re-sharding converges byte-identically** to a from-scratch
//!   partition at the new shard count, even when the rebuild itself is
//!   fault-injected (`serve::reshard`); a permanently failing rebuild is a
//!   typed error that leaves the old fleet serving. While a re-shard runs,
//!   queries answer `ok` at full coverage from the old fleet.
//!
//! Each test's faults live in its own [`wmh_fault::scenario`], which the
//! service's shard jobs carry, so schedules cannot leak across
//! concurrently scheduled tests.

use std::io::Write as _;

use wmh_check::scratch;
use wmh_core::{SketchStore, Sketcher};
use wmh_serve::{
    MutationKind, MutationRequest, Outcome, QueryRequest, Service, ServiceConfig, ServiceError,
};
use wmh_sets::WeightedSet;

mod common;
use common::{corpus, fast_retry, probe, script, seed, store_for};

fn config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        default_deadline_us: 5_000_000,
        retry: fast_retry(),
        ..ServiceConfig::default()
    }
}

fn query(doc: &WeightedSet, id: u64) -> QueryRequest {
    QueryRequest { id, doc: doc.iter().collect(), k: 10, deadline_us: Some(5_000_000) }
}

/// Drive `script` through the service and return the requests it
/// acknowledged as durable (the only ones a crash may preserve).
fn run_script(service: &Service, script: &[MutationRequest]) -> Vec<MutationRequest> {
    let mut durable = Vec::new();
    for request in script {
        let response = service.mutate(request);
        assert!(
            matches!(response.outcome, Outcome::Ok | Outcome::ReadOnly | Outcome::DeadlineExceeded),
            "unexpected mutation verdict: {response:?}"
        );
        if response.durable {
            durable.push(request.clone());
        }
    }
    durable
}

/// The core kill-resume claim, parameterized by fault schedule and shard
/// count: after running the mutation script under injected faults and
/// "killing" the service, a reopen over the same WAL answers every probe
/// byte-identically to a fresh service that applied exactly the
/// acknowledged-durable mutations fault-free.
fn kill_resume_is_byte_identical(label: &str, schedule: &str, shards: usize) {
    let faults = wmh_fault::scenario(schedule, seed()).expect("scenario");
    let docs = corpus(32);
    let store = store_for(&docs);
    let dir = scratch(&format!("{label}-{shards}"));
    let wal = dir.join("soak.wal");

    let service = Service::open(&store, &wal, config(shards)).expect("open");
    let acked = run_script(&service, &script(&docs, 24));
    drop(service); // SIGKILL stand-in: nothing but the WAL survives.

    drop(faults);
    let recovered = Service::open(&store, &wal, config(shards)).expect("reopen");
    assert_eq!(
        recovered.wal_recovery().expect("writable service").records,
        acked.len(),
        "replay must see exactly the acknowledged records"
    );

    // The reference: a fresh log, the acknowledged mutations applied live
    // with no faults anywhere.
    let reference =
        Service::open(&store, &dir.join("reference.wal"), config(shards)).expect("reference open");
    for request in &acked {
        let response = reference.mutate(request);
        assert_eq!(response.outcome, Outcome::Ok, "reference apply degraded: {response:?}");
    }
    assert_eq!(
        probe(&recovered, &docs),
        probe(&reference, &docs),
        "kill-resume replay not byte-identical ({label}, {shards} shards)"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn kill_resume_under_append_faults() {
    for shards in [1, 2, 8] {
        kill_resume_is_byte_identical("append", "serve::wal_append=1in3", shards);
    }
}

#[test]
fn kill_resume_under_fsync_faults() {
    for shards in [1, 2, 8] {
        kill_resume_is_byte_identical("fsync", "serve::wal_fsync=1in3", shards);
    }
}

#[test]
fn kill_resume_under_apply_faults() {
    for shards in [1, 2, 8] {
        kill_resume_is_byte_identical("apply", "serve::apply=1in3", shards);
    }
}

/// An append schedule that never stops failing must flip the service
/// read-only after the retry budget — and the log must contain *nothing*,
/// so a reopen is byte-identical to a service that never saw a write.
#[test]
fn exhausted_append_flips_read_only_and_commits_nothing() {
    let faults = wmh_fault::scenario("serve::wal_append=always", seed()).expect("scenario");
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("read-only");
    let service = Service::open(&store, &dir.join("soak.wal"), config(2)).expect("open");

    let request = &script(&docs, 1)[0];
    let first = service.mutate(request);
    assert_eq!(first.outcome, Outcome::ReadOnly, "{first:?}");
    assert!(!first.durable && !first.applied, "{first:?}");
    assert!(
        first.error.as_deref().is_some_and(|e| e.contains("write gate tripped")),
        "the trip must be reported: {first:?}"
    );
    assert!(service.health().read_only, "health must surface the degradation");

    // Later writes short-circuit; queries keep serving.
    let second = service.mutate(request);
    assert_eq!(second.outcome, Outcome::ReadOnly, "{second:?}");
    let served = service.query(&query(&docs[0], 0));
    assert_eq!(served.outcome, Outcome::Ok, "reads must survive the write-path loss: {served:?}");
    drop(service);

    drop(faults);
    let reopened = Service::open(&store, &dir.join("soak.wal"), config(2)).expect("reopen");
    let report = reopened.wal_recovery().expect("writable service");
    assert_eq!(report.records, 0, "nothing unacknowledged may replay: {report:?}");
    let pristine = Service::open(&store, &dir.join("pristine.wal"), config(2)).expect("pristine");
    assert_eq!(probe(&reopened, &docs), probe(&pristine, &docs));
    let _ = std::fs::remove_dir_all(dir);
}

/// A torn final frame — the on-disk signature of a crash mid-append — is
/// discarded on replay; every complete record before it survives.
#[test]
fn torn_tail_is_discarded_not_misread() {
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("torn-tail");
    let wal = dir.join("soak.wal");

    let service = Service::open(&store, &wal, config(2)).expect("open");
    let acked = run_script(&service, &script(&docs, 12));
    assert_eq!(acked.len(), 12, "fault-free script must fully ack");
    let reference = probe(&service, &docs);
    drop(service);

    // A crash mid-append leaves a length prefix promising more bytes than
    // the file holds — in the *active segment* of the WAL directory.
    let segment = wal.join("wal-0000000000000000.seg");
    let mut file =
        std::fs::OpenOptions::new().append(true).open(&segment).expect("append to torn wal");
    file.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad]).expect("torn bytes");
    drop(file);

    let recovered = Service::open(&store, &wal, config(2)).expect("reopen past torn tail");
    let report = recovered.wal_recovery().expect("writable service");
    assert_eq!(report.records, 12, "complete records must all survive: {report:?}");
    assert!(report.bytes_discarded > 0, "the torn tail must be counted: {report:?}");
    assert_eq!(probe(&recovered, &docs), reference, "torn tail changed replayed state");
    let _ = std::fs::remove_dir_all(dir);
}

/// An apply that exhausts its in-worker retries triggers the front end's
/// self-heal: the shard is rebuilt from the durable state and the service
/// converges to exactly the fault-free result.
#[test]
fn apply_exhaustion_self_heals_byte_identically() {
    let faults = wmh_fault::scenario("serve::apply@0=always", seed()).expect("scenario");
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("self-heal");

    let service = Service::open(&store, &dir.join("soak.wal"), config(2)).expect("open");
    let mutations = script(&docs, 8);
    let mut healed = 0usize;
    for request in &mutations {
        let response = service.mutate(request);
        assert_eq!(response.outcome, Outcome::Ok, "self-heal must converge: {response:?}");
        assert!(response.durable && response.applied, "{response:?}");
        if response.error.as_deref().is_some_and(|e| e.contains("rebuilt")) {
            healed += 1;
        }
    }
    assert!(healed > 0, "the @0 schedule must have forced at least one rebuild");

    // Fault-free twin over its own log: state must match exactly.
    drop(faults);
    let reference =
        Service::open(&store, &dir.join("reference.wal"), config(2)).expect("reference");
    for request in &mutations {
        assert_eq!(reference.mutate(request).outcome, Outcome::Ok);
    }
    assert_eq!(probe(&service, &docs), probe(&reference, &docs));
    let _ = std::fs::remove_dir_all(dir);
}

/// Re-sharding under transient rebuild faults converges byte-identically
/// to a from-scratch open at the new shard count; writes degrade typed
/// (`read_only`) only while the re-shard runs.
#[test]
fn reshard_under_faults_is_byte_identical_to_from_scratch() {
    let faults = wmh_fault::scenario("serve::reshard=1in3", seed()).expect("scenario");
    let docs = corpus(32);
    let store = store_for(&docs);
    let dir = scratch("reshard");
    let wal = dir.join("soak.wal");

    let service = Service::open(&store, &wal, config(2)).expect("open");
    let acked = run_script(&service, &script(&docs, 16));
    assert_eq!(acked.len(), 16, "no faults on the write path yet");

    let report = service.reshard_blocking(8).expect("re-shard under transient faults");
    assert_eq!((report.from, report.to), (2, 8));
    assert!(!service.health().resharding, "the flag must clear");

    // Writes resume after the swap.
    let after = service.mutate(&MutationRequest {
        id: 42_000_000,
        kind: MutationKind::Insert { doc: docs[0].iter().collect() },
        deadline_us: Some(5_000_000),
    });
    assert_eq!(after.outcome, Outcome::Ok, "writes must resume post-re-shard: {after:?}");

    drop(faults);
    let fresh = Service::open(&store, &wal, config(8)).expect("from-scratch at 8 shards");
    assert_eq!(
        probe(&service, &docs),
        probe(&fresh, &docs),
        "re-shard diverged from a from-scratch partition"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A permanently failing re-shard rebuild is a typed error; the old fleet
/// keeps serving and keeps accepting writes.
#[test]
fn failed_reshard_leaves_the_old_fleet_serving() {
    let _guard = wmh_fault::scenario("serve::reshard@1=always", seed()).expect("scenario");
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("reshard-fail");

    let service = Service::open(&store, &dir.join("soak.wal"), config(2)).expect("open");
    run_script(&service, &script(&docs, 8));
    let before = probe(&service, &docs);

    match service.reshard_blocking(4) {
        Err(ServiceError::Ingest { shard, attempts, error }) => {
            assert_eq!(shard, 1, "the @1 schedule only hits shard 1's rebuild");
            assert!(attempts > 1, "the retry budget must be spent: {attempts}");
            assert!(error.contains("serve::reshard"), "{error}");
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(report) => panic!("always-failing rebuild re-sharded: {report:?}"),
    }
    assert!(!service.health().resharding, "the flag must clear on failure");
    assert_eq!(service.health().shards_total, 2, "old fleet intact");
    assert_eq!(probe(&service, &docs), before, "queries unchanged by the aborted re-shard");

    let write = service.mutate(&MutationRequest {
        id: 43_000_000,
        kind: MutationKind::Insert { doc: docs[0].iter().collect() },
        deadline_us: Some(5_000_000),
    });
    assert_eq!(write.outcome, Outcome::Ok, "writes must resume after the abort: {write:?}");
    let _ = std::fs::remove_dir_all(dir);
}

/// A re-shard holds the writer lock for its whole rebuild, so the old
/// fleet cannot go stale before the swap: queries answer `ok` at full
/// coverage throughout, while writes degrade to a retryable `read_only`.
#[test]
fn queries_during_reshard_answer_ok_at_full_coverage() {
    let _guard = wmh_fault::scenario("serve::reshard=always:sleep200ms", seed()).expect("scenario");
    let docs = corpus(24);
    let store = store_for(&docs);
    let dir = scratch("reshard-serving");
    let service = Service::open(&store, &dir.join("soak.wal"), config(2)).expect("open");
    run_script(&service, &script(&docs, 8));

    let mut queried = 0u64;
    std::thread::scope(|scope| {
        let carry = wmh_fault::Carry::capture();
        let reshard = scope.spawn(|| carry.run(|| service.reshard_blocking(4)));
        while !service.health().resharding {
            assert!(!reshard.is_finished(), "the re-shard ended before it was observed");
            std::thread::yield_now();
        }
        let write = service.mutate(&MutationRequest {
            id: 44_000_000,
            kind: MutationKind::Insert { doc: docs[0].iter().collect() },
            deadline_us: Some(5_000_000),
        });
        assert_eq!(write.outcome, Outcome::ReadOnly, "{write:?}");
        assert!(!write.durable && write.retry_after_us > 0, "{write:?}");
        while service.health().resharding {
            let doc = &docs[queried as usize % docs.len()];
            let response = service.query(&query(doc, queried));
            assert_eq!(response.outcome, Outcome::Ok, "mid-re-shard query: {response:?}");
            assert_eq!(response.coverage, 1.0, "mid-re-shard query: {response:?}");
            queried += 1;
        }
        let report = reshard.join().expect("re-shard thread").expect("re-shard");
        assert_eq!((report.from, report.to), (2, 4));
    });
    assert!(queried > 0, "no query ran while the re-shard was in progress");
    let _ = std::fs::remove_dir_all(dir);
}

/// WAL provenance binding: a log written for one store refuses to open
/// against a different one, typed — never silently replayed.
#[test]
fn foreign_wal_is_rejected_typed() {
    let docs = corpus(16);
    let store = store_for(&docs);
    let dir = scratch("foreign");
    let wal = dir.join("soak.wal");

    let service = Service::open(&store, &wal, config(2)).expect("open");
    run_script(&service, &script(&docs, 4));
    drop(service);

    // Same documents, different sketching provenance.
    let other_sketcher = wmh_core::cws::Icws::new(11, 128);
    let mut other = SketchStore::new();
    for (id, doc) in docs.iter().enumerate() {
        other.insert(id as u64, &other_sketcher.sketch(doc).expect("sketch")).expect("insert");
    }
    match Service::open(&other, &wal, config(2)) {
        Err(ServiceError::Wal(e)) => {
            assert!(e.contains("provenance"), "the mismatch must be named: {e}")
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("foreign WAL replayed against a mismatched store"),
    }
    let _ = std::fs::remove_dir_all(dir);
}
