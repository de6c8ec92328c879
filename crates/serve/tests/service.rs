//! Integration tests over real loopback TCP: every request terminates in a
//! typed outcome, sharding is invisible in results, and the overload hint
//! follows the supervisor's seeded jitter envelope.

use std::sync::Arc;

use wmh_serve::{wire, Client, Outcome, QueryRequest, Response, Server, Service, ServiceConfig};
use wmh_sets::WeightedSet;

mod common;
use common::{corpus, store_for};

/// Generous default deadline so healthy-path tests never flake on a slow
/// machine; individual tests force misses with explicit zero budgets.
fn config(shards: usize) -> ServiceConfig {
    ServiceConfig { shards, default_deadline_us: 5_000_000, ..ServiceConfig::default() }
}

fn pairs(doc: &WeightedSet) -> Vec<(u64, f64)> {
    doc.iter().collect()
}

fn query(doc: &WeightedSet, id: u64) -> QueryRequest {
    QueryRequest { id, doc: pairs(doc), k: 10, deadline_us: Some(2_000_000) }
}

#[test]
fn typed_outcomes_over_tcp() {
    let docs = corpus(48);
    let store = store_for(&docs);
    let service = Arc::new(Service::from_store(&store, config(4)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let health = client.health().expect("health");
    assert!(health.ready, "{health:?}");
    assert_eq!(health.indexed, docs.len());
    assert_eq!(health.shards_quarantined, 0);

    let ok = client.query(&query(&docs[0], 1)).expect("query");
    assert_eq!(ok.outcome, Outcome::Ok, "{ok:?}");
    assert_eq!(ok.results.first(), Some(&(0u64, 1.0f64)), "self-match must lead: {ok:?}");
    assert_eq!(ok.shards_answered, ok.shards_total);
    assert!(ok.error.is_none());

    let miss = client
        .query(&QueryRequest { id: 2, doc: pairs(&docs[1]), k: 10, deadline_us: Some(0) })
        .expect("query");
    assert_eq!(miss.outcome, Outcome::DeadlineExceeded, "{miss:?}");
    assert!(miss.results.is_empty());

    let bad = client
        .query(&QueryRequest { id: 3, doc: Vec::new(), k: 10, deadline_us: None })
        .expect("query");
    assert_eq!(bad.outcome, Outcome::BadRequest, "{bad:?}");
    assert!(bad.error.is_some());

    // A store-built service has no write path: a mutation answers
    // `read_only`, typed like everything else.
    let ro = client.insert(999_999, pairs(&docs[0]), Some(2_000_000)).expect("insert");
    assert_eq!(ro.outcome, Outcome::ReadOnly, "{ro:?}");
    assert!(!ro.durable && ro.error.is_some(), "{ro:?}");

    // The connection survives every verdict: outcomes are data, not
    // transport failures.
    let again = client.query(&query(&docs[0], 4)).expect("query");
    assert_eq!(again.outcome, Outcome::Ok);

    // A zero-capacity twin forces the admission path deterministically.
    let choked = ServiceConfig { max_inflight: 0, ..config(2) };
    let choked = Arc::new(Service::from_store(&store, choked).expect("choked service"));
    let choked_server = Server::spawn(choked, "127.0.0.1:0").expect("choked server");
    let mut choked_client = Client::connect(choked_server.addr()).expect("connect choked");
    let over = choked_client.query(&query(&docs[2], 5)).expect("query");
    assert_eq!(over.outcome, Outcome::Overloaded, "{over:?}");
    assert!(over.retry_after_us > 0, "overload must carry a backoff hint: {over:?}");
    assert!(over.results.is_empty());
}

#[test]
fn malformed_json_gets_typed_bad_request() {
    let docs = corpus(24);
    let service = Arc::new(Service::from_store(&store_for(&docs), config(2)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    wire::write_frame(&mut stream, "this is not json").expect("write");
    let body = wire::read_frame(&mut stream).expect("read").expect("reply");
    let reply: Response = wmh_json::from_str(&body).expect("decode");
    match reply {
        Response::Query(response) => {
            assert_eq!(response.outcome, Outcome::BadRequest, "{response:?}");
            let error = response.error.expect("error detail");
            assert!(error.contains("malformed request"), "{error}");
        }
        Response::Health(h) => panic!("health reply to garbage: {h:?}"),
        Response::Mutation(m) => panic!("mutation reply to garbage: {m:?}"),
    }
}

/// The core serving claim: partitioning the corpus across shards must not
/// change what a query returns. One shard and four shards see the same
/// banded index contents in aggregate, so results are identical.
#[test]
fn sharding_is_invisible_in_results() {
    let docs = corpus(48);
    let store = store_for(&docs);
    let single = Service::from_store(&store, config(1)).expect("1-shard");
    let sharded = Service::from_store(&store, config(4)).expect("4-shard");
    for (i, doc) in docs.iter().take(12).enumerate() {
        let lone = single.query(&query(doc, i as u64));
        let wide = sharded.query(&query(doc, i as u64));
        assert_eq!(lone.outcome, Outcome::Ok, "{lone:?}");
        assert_eq!(wide.outcome, Outcome::Ok, "{wide:?}");
        assert_eq!(lone.results, wide.results, "query {i}: sharding changed results");
    }
}

#[test]
fn overload_hint_follows_backoff_jitter_envelope() {
    let docs = corpus(24);
    let store = store_for(&docs);
    let choked = ServiceConfig { max_inflight: 0, ..config(2) };
    let service = Service::from_store(&store, choked).expect("service");
    let base = service.config().retry.base_backoff;
    for i in 0..8u64 {
        let response = service.query(&query(&docs[i as usize], i));
        assert_eq!(response.outcome, Outcome::Overloaded, "{response:?}");
        let hint = u128::from(response.retry_after_us);
        // First-attempt backoff is base x jitter in [0.5, 1.0].
        assert!(
            hint >= base.as_micros() / 2 && hint <= base.as_micros(),
            "retry_after {hint}us outside [{}/2, {}]us",
            base.as_micros(),
            base.as_micros()
        );
    }
}

#[test]
fn concurrent_clients_all_get_typed_ok() {
    let docs = corpus(48);
    let service = Arc::new(Service::from_store(&store_for(&docs), config(4)).expect("service"));
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server");
    let addr = server.addr();
    wmh_check::stress::hammer(8, 6, |t, i| {
        let mut client = Client::connect(addr).expect("connect");
        let doc = &docs[(t * 7 + i) % docs.len()];
        let response = client.query(&query(doc, (t * 100 + i) as u64)).expect("query");
        assert_eq!(response.outcome, Outcome::Ok, "thread {t} iter {i}: {response:?}");
        assert_eq!(response.shards_answered, response.shards_total);
        for pair in response.results.windows(2) {
            assert!(
                pair[0].1 >= pair[1].1,
                "thread {t} iter {i}: results out of order: {response:?}"
            );
        }
    });
    assert_eq!(service.health().inflight, 0, "in-flight gauge must drain to zero");
}
