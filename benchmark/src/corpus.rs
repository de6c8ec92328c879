//! The workloads' inputs, generated from the workload seed alone.
//!
//! * **long**: the paper's Table-4 `Syn3E0.24S` shape — 100 000 features,
//!   500 nonzeros per document, Pareto(3, 0.24) weights — at 500 documents.
//!   Queries are corpus documents in seeded order, so each has exactly one
//!   true near neighbour: itself.
//! * **short**: 10 000 documents of about 24 nonzeros over a universe of
//!   10^6, in 500 near-duplicate clusters of 20. Each member keeps each base
//!   feature with probability 0.9, rescales its weight by U(0.8, 1.25) and
//!   adds 2 random features. Queries are fresh members of random clusters.

use wmh_data::synthetic::PAPER_DATASETS;
use wmh_rng::dist::pareto_from_unit;
use wmh_rng::{Prng, Xoshiro256pp};
use wmh_sets::WeightedSet;

/// A document as wire pairs.
pub type Pairs = Vec<(u64, f64)>;

/// Documents indexed by the service plus the request stream.
pub struct Inputs {
    /// Indexed documents; id = position.
    pub corpus: Vec<WeightedSet>,
    /// Query documents, cycled by request index.
    pub queries: Vec<Pairs>,
    /// When each query is a corpus document: its id, per query.
    pub source: Option<Vec<u64>>,
    /// Documents the write mix inserts and streams.
    pub writes: Vec<Pairs>,
}

/// Query documents generated per workload; requests cycle through them.
const QUERY_POOL: usize = 2000;
/// Documents the write mix cycles through.
const WRITE_POOL: usize = 500;

/// The `Syn3E0.24S` corpus at 500 documents, queried by its own documents.
#[must_use]
pub fn long(seed: u64) -> Inputs {
    let config = PAPER_DATASETS[2].scaled_down(500, PAPER_DATASETS[2].features);
    let corpus = config.generate(seed).expect("Table-4 configuration is valid").docs;
    let mut rng = Xoshiro256pp::new(seed ^ 0x10_4E51);
    let mut order: Vec<u64> = (0..corpus.len() as u64).collect();
    let mut source = Vec::with_capacity(QUERY_POOL);
    while source.len() < QUERY_POOL {
        rng.shuffle(&mut order);
        source.extend_from_slice(&order);
    }
    source.truncate(QUERY_POOL);
    let queries: Vec<Pairs> = source.iter().map(|&id| pairs(&corpus[id as usize])).collect();
    let writes = queries.iter().rev().take(WRITE_POOL).cloned().collect();
    Inputs { corpus, queries, source: Some(source), writes }
}

/// Near-duplicate clusters of short documents.
#[must_use]
pub fn short(seed: u64) -> Inputs {
    const UNIVERSE: u64 = 1_000_000;
    const BASE_NNZ: usize = 24;
    const CLUSTERS: usize = 500;
    const MEMBERS: usize = 20;
    let mut rng = Xoshiro256pp::new(seed ^ 0x5D0C5);
    let bases: Vec<Pairs> = (0..CLUSTERS)
        .map(|_| {
            rng.sample_distinct(UNIVERSE, BASE_NNZ)
                .into_iter()
                .map(|k| (k, weight(&mut rng)))
                .collect()
        })
        .collect();
    let corpus = (0..CLUSTERS * MEMBERS)
        .map(|i| set(&variant(&bases[i / MEMBERS], &mut rng, UNIVERSE)))
        .collect();
    let mut fresh = |n: usize| -> Vec<Pairs> {
        (0..n)
            .map(|_| {
                let base = &bases[rng.next_below(CLUSTERS as u64) as usize];
                pairs(&set(&variant(base, &mut rng, UNIVERSE)))
            })
            .collect()
    };
    let queries = fresh(QUERY_POOL);
    let writes = fresh(WRITE_POOL);
    Inputs { corpus, queries, source: None, writes }
}

fn weight(rng: &mut Xoshiro256pp) -> f64 {
    pareto_from_unit(rng.next_f64(), 3.0, 0.24)
}

/// A cluster member: keep each base feature with probability 0.9 at a
/// weight rescaled by U(0.8, 1.25), then add 2 random features.
fn variant(base: &[(u64, f64)], rng: &mut Xoshiro256pp, universe: u64) -> Pairs {
    let mut out = Pairs::with_capacity(base.len() + 2);
    for &(k, w) in base {
        if rng.next_f64() < 0.9 {
            out.push((k, w * (0.8 + 0.45 * rng.next_f64())));
        }
    }
    let mut added = 0;
    while added < 2 {
        let k = rng.next_below(universe);
        if base.iter().chain(&out).all(|&(j, _)| j != k) {
            out.push((k, weight(rng)));
            added += 1;
        }
    }
    out
}

fn set(pairs: &[(u64, f64)]) -> WeightedSet {
    WeightedSet::from_pairs(pairs.iter().copied()).expect("generator emits valid weights")
}

/// A set as wire pairs.
#[must_use]
pub fn pairs(set: &WeightedSet) -> Pairs {
    set.iter().collect()
}
