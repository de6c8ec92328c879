//! Helpers shared by the `wmh-serve` integration tests. Each test binary
//! uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::time::Duration;

use wmh_core::{SketchStore, Sketcher};
use wmh_data::PAPER_DATASETS;
use wmh_fault::supervisor::RetryPolicy;
use wmh_serve::{MutationKind, MutationRequest, QueryRequest, Service};
use wmh_sets::WeightedSet;

/// The fault seed: `WMH_FAULT_SEED` when pinned, else a fixed default.
pub fn seed() -> u64 {
    wmh_fault::env_seed().expect("WMH_FAULT_SEED").unwrap_or(0xC1A05)
}

/// A small Table-4-shaped corpus (`Syn3E0.24S` scaled preserving overlap).
pub fn corpus(n: usize) -> Vec<WeightedSet> {
    PAPER_DATASETS[2].scaled_down_preserving_overlap(n, 20_000).generate(7).expect("corpus").docs
}

/// Every document sketched with catalog ICWS (seed 9, D=128), id = index.
pub fn store_for(docs: &[WeightedSet]) -> SketchStore {
    let sketcher = wmh_core::cws::Icws::new(9, 128);
    let mut store = SketchStore::new();
    for (id, doc) in docs.iter().enumerate() {
        store.insert(id as u64, &sketcher.sketch(doc).expect("sketch")).expect("insert");
    }
    store
}

/// Backoffs in microseconds, not milliseconds, so deliberately exhausted
/// retry budgets do not dominate a soak's wall clock.
pub fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
    }
}

/// Probe responses as rendered wire JSON — the byte-identity currency.
pub fn probe(service: &Service, docs: &[WeightedSet]) -> Vec<String> {
    docs.iter()
        .enumerate()
        .map(|(i, doc)| {
            let request = QueryRequest {
                id: i as u64,
                doc: doc.iter().collect(),
                k: 10,
                deadline_us: Some(5_000_000),
            };
            wmh_json::to_string(&service.query(&request))
        })
        .collect()
}

/// The soaks' mutation mix: inserts of fresh ids, streaming creates and
/// drifts, deletes chasing earlier inserts — deterministic given `n`.
pub fn script(docs: &[WeightedSet], n: usize) -> Vec<MutationRequest> {
    let base = 1_000_000u64;
    (0..n)
        .map(|i| {
            let doc: Vec<(u64, f64)> = docs[i % docs.len()].iter().collect();
            let (id, kind) = match i % 4 {
                0 => (base + i as u64, MutationKind::Insert { doc }),
                1 => (
                    base + 500_000 + (i / 8) as u64,
                    MutationKind::Stream { lambda: 0.5, items: doc },
                ),
                2 => (base + (i - 2) as u64, MutationKind::Delete),
                _ => (
                    base + 500_000 + (i / 8) as u64,
                    MutationKind::Stream { lambda: 0.9, items: doc },
                ),
            };
            MutationRequest { id, kind, deadline_us: Some(5_000_000) }
        })
        .collect()
}
