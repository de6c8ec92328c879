//! Chaos soak for the serving robustness envelope.
//!
//! The claims under test, with deterministic failpoint schedules:
//!
//! * **Every request terminates with a typed outcome**, faults or not —
//!   concurrent queries under injected shard failures and admission
//!   rejections each get one of the six outcomes, never a hang or a panic.
//! * **Quarantine is reversible and invisible afterwards**: once a faulty
//!   shard recovers through half-open probes, responses are byte-identical
//!   to a service that never failed.
//! * **Ingest faults are survivable**: transient schedules clear under the
//!   sweep supervisor's retry policy; a permanently failing shard surfaces
//!   as a typed [`ServiceError::Ingest`], never a panic.
//!
//! Each fault phase enters its own [`wmh_fault::scenario`]; the service's
//! shard jobs and the `hammer` threads carry it, so tests run concurrently
//! without seeing each other's faults, and dropping the scenario ends the
//! phase.

use std::sync::atomic::{AtomicUsize, Ordering};

use wmh_serve::{Outcome, QueryRequest, Service, ServiceConfig, ServiceError};
use wmh_sets::WeightedSet;

mod common;
use common::{corpus, fast_retry, seed, store_for};

fn config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        default_deadline_us: 5_000_000,
        probe_every: 4,
        ..ServiceConfig::default()
    }
}

fn query(doc: &WeightedSet, id: u64) -> QueryRequest {
    QueryRequest { id, doc: doc.iter().collect(), k: 10, deadline_us: Some(2_000_000) }
}

/// Quarantine a shard with an always-failing schedule, recover it through
/// half-open probes, and pin that post-recovery responses are
/// byte-identical to the fault-free baseline.
#[test]
fn quarantine_and_recovery_is_byte_identical() {
    let docs = corpus(64);
    let service = Service::from_store(&store_for(&docs), config(4)).expect("service");
    let queries: Vec<QueryRequest> = (0..8).map(|i| query(&docs[i], i as u64)).collect();
    let baseline: Vec<String> = queries
        .iter()
        .map(|q| {
            let response = service.query(q);
            assert_eq!(response.outcome, Outcome::Ok, "baseline not clean: {response:?}");
            wmh_json::to_string(&response)
        })
        .collect();

    // Shard 1 starts failing every probe it sees.
    let faults = wmh_fault::scenario("serve::shard_query@1=always", seed()).expect("scenario");
    let mut saw_quarantine = false;
    for i in 0..32u64 {
        let response = service.query(&query(&docs[(i % 16) as usize], 1000 + i));
        assert_eq!(response.outcome, Outcome::Partial, "{response:?}");
        assert!((response.coverage - 0.75).abs() < 1e-9, "one shard of four lost: {response:?}");
        assert!(
            response.results.iter().all(|&(id, _)| id % 4 != 1),
            "results leaked from the failed shard: {response:?}"
        );
        let health = service.health();
        assert!(health.ready, "3 of 4 shards still serve: {health:?}");
        if health.shards_quarantined == 1 {
            saw_quarantine = true;
            break;
        }
    }
    assert!(saw_quarantine, "shard 1 never reached quarantine");

    // Fault gone; half-open probes must restore the shard.
    drop(faults);
    let mut recovered = false;
    for i in 0..32u64 {
        let response = service.query(&query(&docs[(i % 16) as usize], 2000 + i));
        assert!(matches!(response.outcome, Outcome::Ok | Outcome::Partial), "{response:?}");
        if service.health().shards_quarantined == 0 {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "shard 1 never recovered through probes");

    let after: Vec<String> =
        queries.iter().map(|q| wmh_json::to_string(&service.query(q))).collect();
    assert_eq!(baseline, after, "recovered service must be byte-identical to fault-free");
}

#[test]
fn admission_fault_is_typed_and_transient() {
    let _guard = wmh_fault::scenario("serve::admission=once", seed()).expect("scenario");
    let docs = corpus(24);
    let service = Service::from_store(&store_for(&docs), config(2)).expect("service");
    let rejected = service.query(&query(&docs[0], 0));
    assert_eq!(rejected.outcome, Outcome::Overloaded, "{rejected:?}");
    assert!(rejected.retry_after_us > 0, "overload must carry a backoff hint: {rejected:?}");
    assert!(rejected.results.is_empty());
    let retried = service.query(&query(&docs[0], 1));
    assert_eq!(retried.outcome, Outcome::Ok, "{retried:?}");
}

#[test]
fn merge_fault_yields_typed_partial_not_a_hang() {
    let _guard = wmh_fault::scenario("serve::merge=once", seed()).expect("scenario");
    let docs = corpus(24);
    let service = Service::from_store(&store_for(&docs), config(2)).expect("service");
    let degraded = service.query(&query(&docs[0], 0));
    assert_eq!(degraded.outcome, Outcome::Partial, "{degraded:?}");
    assert_eq!(degraded.shards_answered, 0);
    assert_eq!(degraded.coverage, 0.0);
    let error = degraded.error.as_deref().expect("merge fault must be reported");
    assert!(error.contains("merge"), "{error}");
    let healthy = service.query(&query(&docs[0], 1));
    assert_eq!(healthy.outcome, Outcome::Ok, "{healthy:?}");
}

#[test]
fn transient_ingest_faults_clear_under_retry() {
    let _guard = wmh_fault::scenario("serve::ingest=1in2", seed()).expect("scenario");
    let docs = corpus(48);
    let store = store_for(&docs);
    let with_retry = ServiceConfig { retry: fast_retry(), ..config(4) };
    let service = Service::from_store(&store, with_retry)
        .expect("transient ingest faults must clear under the retry budget");
    let response = service.query(&query(&docs[0], 0));
    assert_eq!(response.outcome, Outcome::Ok, "{response:?}");
}

#[test]
fn permanent_ingest_failure_is_a_typed_error() {
    let _guard = wmh_fault::scenario("serve::ingest@0=always", seed()).expect("scenario");
    let docs = corpus(48);
    let store = store_for(&docs);
    let with_retry = ServiceConfig { retry: fast_retry(), ..config(4) };
    match Service::from_store(&store, with_retry) {
        Err(ServiceError::Ingest { shard, attempts, error }) => {
            assert_eq!(shard, 0, "the @0 schedule only hits shard 0");
            assert!(attempts > 1, "the retry budget must be spent: {attempts}");
            assert!(error.contains("serve::ingest"), "{error}");
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("always-failing ingest built a service"),
    }
}

/// Every query under probabilistic chaos gets a typed outcome; then the
/// faults clear, probes repair the fleet, and it serves everything again.
#[test]
fn every_request_is_typed_under_chaos_then_recovers() {
    let chaos = wmh_fault::scenario("serve::shard_query=p0.2;serve::admission=p0.05", seed())
        .expect("scenario");
    let docs = corpus(64);
    let service = Service::from_store(&store_for(&docs), config(4)).expect("service");

    // 240 queries from 4 threads, each tallied under its outcome.
    let tally: [AtomicUsize; 6] = Default::default();
    wmh_check::stress::hammer(4, 60, |t, i| {
        let n = t * 60 + i;
        let request =
            QueryRequest { deadline_us: Some(20_000), ..query(&docs[n % docs.len()], n as u64) };
        let response = service.query(&request);
        if matches!(response.outcome, Outcome::Ok | Outcome::Partial) {
            assert!((0.0..=1.0).contains(&response.coverage), "{response:?}");
        }
        let slot = Outcome::ALL.iter().position(|&o| o == response.outcome).expect("typed");
        tally[slot].fetch_add(1, Ordering::Relaxed);
    });
    let tally: Vec<usize> = tally.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    assert_eq!(tally.iter().sum::<usize>(), 240, "every request must be typed: {tally:?}");
    assert!(tally[0] < 240, "the chaos schedule never fired: {tally:?}");

    // Faults off; let probes repair whatever got quarantined.
    drop(chaos);
    let mut recovered = false;
    for i in 0..64u64 {
        let _ = service.query(&query(&docs[(i % 16) as usize], 10_000 + i));
        if service.health().shards_quarantined == 0 {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "quarantined shards never recovered after chaos");

    // 160 calm queries: the recovered fleet serves every one in full.
    wmh_check::stress::hammer(4, 40, |t, i| {
        let n = t * 40 + i;
        let response = service.query(&query(&docs[n % docs.len()], 20_000 + n as u64));
        assert_eq!(response.outcome, Outcome::Ok, "recovered fleet must serve: {response:?}");
        assert_eq!(response.coverage, 1.0, "{response:?}");
        assert_eq!(response.shed, 0, "{response:?}");
    });
}
