//! Standing `wmh-serve` up the way a user does — sketch the corpus, store
//! it, open the service over a write-ahead log, spawn the TCP server, wait
//! for a ready health check — and driving it over persistent `Client`
//! connections.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wmh_core::{
    Algorithm, AlgorithmConfig, CodeBatch, Sketch, SketchScratch, SketchStore, Sketcher,
};
use wmh_serve::{
    Client, MutationKind, MutationRequest, Outcome, QueryRequest, QueryResponse, Server, Service,
    ServiceConfig,
};
use wmh_sets::{generalized_jaccard, WeightedSet};

use crate::corpus::Pairs;
use crate::loadgen::Verdict;
use crate::sketching::{build, BATCH};

/// Shards behind every serving workload.
pub const SHARDS: usize = 2;
/// Neighbours per query.
pub const K: usize = 10;
/// Per-request budget: generous, so a healthy service never misses it.
pub const DEADLINE_US: u64 = 200_000;
/// Ids minted by the write mix start here, far above any corpus id.
const WRITE_BASE: u64 = 1 << 40;
/// `mixed-rw` snapshots every this many committed writes.
pub const SNAPSHOT_EVERY: u64 = 10;
/// The serving sketcher (what the service's store provenance names).
pub const SERVE_ALGORITHM: Algorithm = Algorithm::Icws;

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `root/<name>-<pid>`, replacing any leftover.
    ///
    /// # Errors
    /// I/O failures, stringified.
    pub fn create(root: &Path, name: &str) -> Result<Self, String> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The service configuration for a workload.
#[must_use]
pub fn service_config(snapshot_every: Option<u64>) -> ServiceConfig {
    ServiceConfig { shards: SHARDS, snapshot_every, ..ServiceConfig::default() }
}

/// A running service behind its TCP front end.
pub struct Deployment {
    /// The service.
    pub service: Arc<Service>,
    server: Server,
    /// Where the sketch store was saved.
    pub store_path: PathBuf,
    /// The WAL directory.
    pub wal_dir: PathBuf,
}

/// Sketch `corpus` into a store through `sketch_batch_into` (id =
/// position).
///
/// # Errors
/// Sketching or store failures, stringified.
fn sketch_store(corpus: &[WeightedSet]) -> Result<SketchStore, String> {
    let sketcher = build(SERVE_ALGORITHM, &AlgorithmConfig::default());
    let mut store = SketchStore::new();
    let mut codes = CodeBatch::new();
    let mut scratch = SketchScratch::new();
    for (c, chunk) in corpus.chunks(BATCH).enumerate() {
        sketcher.sketch_batch_into(chunk, &mut codes, &mut scratch).map_err(|e| e.to_string())?;
        for i in 0..chunk.len() {
            let sketch = Sketch {
                algorithm: sketcher.name().to_owned(),
                seed: sketcher.seed(),
                codes: codes.row(i).to_vec(),
            };
            store.insert((c * BATCH + i) as u64, &sketch).map_err(|e| e.to_string())?;
        }
    }
    Ok(store)
}

/// The set-up a user pays before the first query: sketch the corpus into
/// a store, save and load it, open the service over a fresh WAL in `dir`,
/// spawn the server, and wait for a ready health check over TCP.
///
/// # Errors
/// Any step's failure, stringified.
pub fn deploy(
    corpus: &[WeightedSet],
    dir: &Path,
    config: &ServiceConfig,
) -> Result<(Deployment, Duration), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let start = Instant::now();
    let store = sketch_store(corpus)?;
    let store_path = dir.join("corpus.store");
    store.save_to_path(&store_path).map_err(|e| e.to_string())?;
    let store = SketchStore::load_from_path(&store_path).map_err(|e| e.to_string())?;
    let wal_dir = dir.join("wal");
    let service = Service::open(&store, &wal_dir, config.clone()).map_err(|e| e.to_string())?;
    let deployment = Deployment::serve(service, store_path, wal_dir)?;
    let health = Client::connect(deployment.addr())
        .and_then(|mut c| c.health())
        .map_err(|e| format!("first health check: {e}"))?;
    if !health.ready {
        return Err(format!("service not ready after set-up: {health:?}"));
    }
    Ok((deployment, start.elapsed()))
}

impl Deployment {
    /// Put `service` behind a TCP server on a free loopback port.
    fn serve(service: Service, store_path: PathBuf, wal_dir: PathBuf) -> Result<Self, String> {
        let service = Arc::new(service);
        let server =
            Server::spawn(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Self { service, server, store_path, wal_dir })
    }

    /// The server's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop the server, wait for its connection handlers to release the
    /// service, and drop the service (joining its shard workers) so the
    /// WAL directory is free for a reopen. Callers drop their clients
    /// first.
    ///
    /// # Errors
    /// When a handler still holds the service after 10 s.
    pub fn close(self) -> Result<(), String> {
        self.server.shutdown();
        let start = Instant::now();
        while Arc::strong_count(&self.service) > 1 {
            if start.elapsed() > Duration::from_secs(10) {
                return Err("connection handlers still hold the service".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    /// Restart: close, reopen from disk and serve over TCP again. Returns
    /// the new deployment and how long the reopen took, in seconds.
    ///
    /// # Errors
    /// Close, recovery or bind failures.
    pub fn restart(self, config: &ServiceConfig) -> Result<(Self, f64), String> {
        let (store_path, wal_dir) = (self.store_path.clone(), self.wal_dir.clone());
        self.close()?;
        let (service, took) = reopen(&store_path, &wal_dir, config)?;
        Ok((Self::serve(service, store_path, wal_dir)?, took.as_secs_f64()))
    }
}

/// Reopen the service from the saved store and the WAL directory, timing
/// the restart (store load, snapshot restore, WAL replay, shard builds).
///
/// # Errors
/// Load or recovery failures, stringified.
pub fn reopen(
    store_path: &Path,
    wal_dir: &Path,
    config: &ServiceConfig,
) -> Result<(Service, Duration), String> {
    let start = Instant::now();
    let store = SketchStore::load_from_path(store_path).map_err(|e| e.to_string())?;
    let service = Service::open(&store, wal_dir, config.clone()).map_err(|e| e.to_string())?;
    Ok((service, start.elapsed()))
}

/// The query request for request index `i`.
#[must_use]
pub fn query_request(i: usize, queries: &[Pairs]) -> QueryRequest {
    QueryRequest {
        id: i as u64,
        doc: queries[i % queries.len()].clone(),
        k: K,
        deadline_us: Some(DEADLINE_US),
    }
}

/// The `j`-th write of the mix. Writes cycle insert → stream → delete on
/// fresh ids; each delete removes the insert issued two writes earlier on
/// the same connection, so no delete races its own insert.
#[must_use]
pub fn write_request(j: u64, pool: &[Pairs]) -> MutationRequest {
    let doc = &pool[(j as usize) % pool.len()];
    let (id, kind) = match j % 3 {
        0 => (WRITE_BASE + j, MutationKind::Insert { doc: doc.clone() }),
        1 => (
            WRITE_BASE + j,
            MutationKind::Stream { lambda: 0.5, items: doc.iter().take(8).copied().collect() },
        ),
        _ => (WRITE_BASE + j - 2, MutationKind::Delete),
    };
    MutationRequest { id, kind, deadline_us: Some(DEADLINE_US) }
}

/// The generator's view of a typed outcome.
#[must_use]
pub fn verdict(outcome: Outcome) -> Verdict {
    match outcome {
        Outcome::Ok => Verdict::Ok,
        other => Verdict::Outcome(other.as_str()),
    }
}

/// A load worker: one connection, one request kind.
pub type Worker<'a> = Box<dyn FnMut(usize) -> Verdict + Send + 'a>;

/// A worker sending queries, keeping every response it gets.
pub fn reader<'a>(
    client: &'a mut Client,
    queries: &'a [Pairs],
    got: &'a mut Vec<(usize, QueryResponse)>,
) -> Worker<'a> {
    Box::new(move |i| match client.query(&query_request(i, queries)) {
        Ok(response) => {
            let v = verdict(response.outcome);
            got.push((i, response));
            v
        }
        Err(_) => Verdict::Transport,
    })
}

/// A worker sending the write mix in order, continuing from `*next`.
pub fn writer<'a>(client: &'a mut Client, pool: &'a [Pairs], next: &'a mut u64) -> Worker<'a> {
    Box::new(move |_| {
        let request = write_request(*next, pool);
        *next += 1;
        match client.mutate(&request) {
            Ok(response) => verdict(response.outcome),
            Err(_) => Verdict::Transport,
        }
    })
}

/// Connect a client to `addr`.
///
/// # Errors
/// Connect failures, stringified.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| e.to_string())
}

/// Recall@k against exact generalized Jaccard: for each of the first `n`
/// queries, the share of its true top-`K` corpus documents (ties broken
/// by id) that the in-process service returns.
#[must_use]
pub fn recall_at_k(service: &Service, corpus: &[WeightedSet], queries: &[Pairs], n: usize) -> f64 {
    let mut total = 0.0;
    for (i, q) in queries.iter().take(n).enumerate() {
        let set = WeightedSet::from_pairs(q.iter().copied()).expect("generated queries are valid");
        let mut exact: Vec<(f64, u64)> = corpus
            .iter()
            .enumerate()
            .map(|(id, d)| (generalized_jaccard(&set, d), id as u64))
            .collect();
        exact.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let truth: Vec<u64> = exact.iter().take(K).map(|&(_, id)| id).collect();
        let got = service.query(&query_request(i, queries));
        let hits = got.results.iter().filter(|(id, _)| truth.contains(id)).count();
        total += hits as f64 / K as f64;
    }
    total / n.min(queries.len()).max(1) as f64
}

/// In-process answers to the first `n` queries, as wire JSON.
#[must_use]
pub fn probe(service: &Service, queries: &[Pairs], n: usize) -> Vec<String> {
    (0..n).map(|i| wmh_json::to_string(&service.query(&query_request(i, queries)))).collect()
}
