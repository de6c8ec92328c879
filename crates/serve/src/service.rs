//! The service core: batched ingest into shard-local indexes, admission
//! control, deadline-bounded fan-out, a deterministic merge — and, for
//! services opened over a write-ahead log, the crash-safe live mutation
//! path with its durability lifecycle (snapshots, compaction, scrubbing,
//! half-open write recovery).
//!
//! [`Service::query`] and [`Service::mutate`] are total: they return a
//! typed response for every input — never an `Err`, never a panic, never
//! a silently dropped request. Degradation is *data*, not control flow:
//! the response's [`Outcome`], `coverage`/`durable`/`applied`, and `error`
//! fields say exactly what happened.
//!
//! ## Shard health and quarantine
//!
//! Each shard carries a consecutive-failure counter, updated by the merge
//! path from the slices it actually received. Reaching
//! [`ServiceConfig::quarantine_after`] failures quarantines the shard: it
//! is skipped at fan-out (its slice shows up as missing coverage, not as
//! latency), except that every [`ServiceConfig::probe_every`]-th request
//! is sent through anyway — the half-open probe. One successful probe
//! restores the shard, and because results flow only from received
//! slices, a recovered service is *byte-identical* to one that never
//! failed — the chaos soak pins exactly that.
//!
//! ## The write path (see also [`crate::wal`])
//!
//! Writes are serialized through one writer lock and follow a fixed
//! order: validate → durable WAL append → mirror update → dispatch to the
//! owning shard. The append is the commit point; everything after it is
//! reconstructible, so a SIGKILL anywhere replays to the exact
//! acknowledged state. An apply failure inside a shard (retry budget
//! exhausted) is self-healed by rebuilding that shard from the
//! authoritative mirror — the same code path a cold open uses, so the
//! repaired shard is byte-identical to never having failed.
//!
//! ## The durability lifecycle
//!
//! The writer owns a [`Mirror`]: the live id set, the overlay codes of
//! every id whose indexed sketch differs from the cold store, and the
//! full streaming state of every drifting document. The mirror is what
//! every rebuild (cold open, self-heal, re-shard) folds into shards, and
//! it is exactly what a snapshot freezes:
//!
//! * [`Service::snapshot`] rotates the WAL to a fresh generation, writes
//!   the mirror atomically as that generation's snapshot
//!   ([`crate::snapshot`]), keeps the newest two snapshots, and retires
//!   WAL segments the *second*-newest snapshot subsumes — lag-one
//!   retention, so a flipped bit in the newest snapshot still falls back
//!   one generation with its covering segments intact. Recovery cost is
//!   bounded by writes since the last snapshot, not log lifetime.
//!   `--snapshot-every N` ([`ServiceConfig::snapshot_every`]) triggers
//!   this automatically from the write path.
//! * [`Service::scrub`] re-verifies every snapshot and sealed segment
//!   CRC end-to-end and spot-checks shard fingerprints against the
//!   mirror ([`crate::scrub`]). Corrupt files are quarantined (renamed
//!   `*.bad`), a fresh snapshot re-establishes durability, and a
//!   mismatching shard is rebuilt through the self-heal machinery.
//! * A WAL append that exhausts its retry budget no longer latches a
//!   permanent read-only flag: it trips the [`WriteGate`], whose
//!   half-open probe cadence re-admits every `probe_every`-th write as a
//!   real durable append — one success re-opens the write path
//!   ([`crate::gate`]).
//!
//! ## Re-sharding
//!
//! [`Service::reshard_blocking`] rebuilds the whole fleet at a new shard
//! count behind the quarantine machinery: writes degrade to `read_only`,
//! the most-loaded shard is frozen (queries serve degraded-but-correct
//! `partial` results from the rest), the new partition is built from the
//! mirror — the same builder as a cold open, so the converged fleet is
//! byte-identical to a from-scratch partition — and swapped in under the
//! fleet lock. Skew detection ([`Service::plan_reshard`]) drives the
//! `reshard_hint` response field; the TCP front end turns the hint into a
//! background re-shard.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

use crate::deadline::Deadline;
use crate::fingerprint::BbitFingerprint;
use crate::gate::{WriteAdmission, WriteGate};
use crate::protocol::{
    HealthResponse, MutationKind, MutationRequest, MutationResponse, Outcome, QueryRequest,
    QueryResponse,
};
use crate::scrub::ScrubReport;
use crate::shard::{
    ApplyJob, ApplyOp, AuditJob, DynSketcher, Job, QueryJob, Shard, Slice, SliceOutcome,
};
use crate::snapshot::{self, SnapshotState};
use crate::wal::{Mutation, ReplayReport, Wal, WalError, WalProvenance};
use wmh_core::extensions::HistoSketch;
use wmh_core::{Algorithm, AlgorithmConfig, Sketch, SketchStore, Sketcher};
use wmh_fault::supervisor::{supervise, Attempt, CellOutcome};
use wmh_lsh::{Bands, LshIndex};
use wmh_sets::WeightedSet;

/// Sketches ingested between failpoint hits; a transient build fault
/// restarts the whole shard build under the retry policy, so the batch is
/// the unit of retried work.
const INGEST_BATCH: usize = 64;

/// Live ids sampled per scrub pass (evenly strided over the sorted live
/// set), so a scrub costs O(sample), not O(corpus).
const SCRUB_SAMPLE: usize = 64;

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (worker threads). Defaults to the core count,
    /// capped at 8. This is the *cold-open* count: a live re-shard changes
    /// the running fleet, but a restart partitions at this count again.
    pub shards: usize,
    /// Bound on each shard's inbox; a full inbox sheds the slice.
    pub queue_depth: usize,
    /// Global cap on requests between admission and response.
    pub max_inflight: usize,
    /// Budget applied when a request does not carry `deadline_us`.
    pub default_deadline_us: u64,
    /// b-bit width for the packed re-ranking fingerprints (`1..=32`).
    pub fingerprint_bits: u32,
    /// Banding scheme; `None` derives one for a 0.5 similarity threshold
    /// from the store's fingerprint length.
    pub bands: Option<Bands>,
    /// Consecutive shard failures before quarantine.
    pub quarantine_after: u32,
    /// Every Nth request is routed through quarantined shards as a
    /// half-open recovery probe; the same cadence drives the write gate's
    /// half-open probe appends.
    pub probe_every: u64,
    /// Retry policy: ingest/WAL/apply retries and the `retry_after_us`
    /// backoff hint (the sweep supervisor's seeded-deterministic policy).
    pub retry: wmh_fault::supervisor::RetryPolicy,
    /// Master seed for every deterministic schedule in the service.
    pub seed: u64,
    /// Id-distribution imbalance (max shard size / ideal size) at which
    /// mutation responses raise `reshard_hint`; `None` disables skew
    /// detection.
    pub reshard_skew: Option<f64>,
    /// Largest shard count [`Service::plan_reshard`] will propose.
    pub reshard_cap: usize,
    /// Take an automatic snapshot every N committed writes; `None`
    /// disables the trigger ([`Service::snapshot`] still works on
    /// demand). A failed automatic snapshot is absorbed — the write that
    /// triggered it was already acknowledged durably.
    pub snapshot_every: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get)
                .min(8),
            queue_depth: 64,
            max_inflight: 256,
            default_deadline_us: 50_000,
            fingerprint_bits: 16,
            bands: None,
            quarantine_after: 3,
            probe_every: 8,
            retry: wmh_fault::supervisor::RetryPolicy::default(),
            seed: 0x5E27E,
            reshard_skew: None,
            reshard_cap: 8,
            snapshot_every: None,
        }
    }
}

/// Errors surfaced while *building*, *re-sharding*, *snapshotting*, or
/// *scrubbing* a service. (Query- and mutation-time failures are never
/// errors — they are typed response outcomes.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The sketch store holds no points.
    EmptyStore,
    /// The store's recorded algorithm is not in the catalog.
    UnknownAlgorithm(String),
    /// A configuration field is unusable.
    BadConfig(String),
    /// Rebuilding the store's sketcher failed.
    Build(String),
    /// A shard's ingest failed even after the retry budget.
    Ingest {
        /// Which shard.
        shard: usize,
        /// Attempts made.
        attempts: u32,
        /// The last failure, verbatim.
        error: String,
    },
    /// The OS refused a worker thread.
    Spawn(String),
    /// Opening or replaying the write-ahead log failed.
    Wal(String),
    /// Taking a snapshot failed (the previous generation is intact).
    Snapshot(String),
    /// An integrity scrub could not run (a scrub that *finds* damage is
    /// not an error — damage is data, reported in the [`ScrubReport`]).
    Scrub(String),
    /// A re-shard was requested while one is already in progress.
    Resharding,
    /// The operation needs the write path, but the service was built
    /// read-only ([`Service::from_store`]).
    ReadOnlyService,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyStore => write!(f, "sketch store is empty"),
            Self::UnknownAlgorithm(name) => write!(f, "store algorithm {name:?} not in catalog"),
            Self::BadConfig(e) => write!(f, "bad service config: {e}"),
            Self::Build(e) => write!(f, "rebuilding sketcher from store provenance: {e}"),
            Self::Ingest { shard, attempts, error } => {
                write!(f, "shard {shard} ingest failed after {attempts} attempts: {error}")
            }
            Self::Spawn(e) => write!(f, "spawning shard worker: {e}"),
            Self::Wal(e) => write!(f, "write-ahead log: {e}"),
            Self::Snapshot(e) => write!(f, "snapshot: {e}"),
            Self::Scrub(e) => write!(f, "scrub: {e}"),
            Self::Resharding => write!(f, "a re-shard is already in progress"),
            Self::ReadOnlyService => {
                write!(f, "service was opened read-only (no write-ahead log)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-shard health bookkeeping, updated by the merge path.
struct ShardHealth {
    consecutive_failures: u32,
    quarantined: bool,
    /// Set for the duration of a re-shard on the shard being rebuilt:
    /// skipped at fan-out unconditionally (no half-open probes — the
    /// freeze lifts when the re-shard finishes, not when a probe
    /// succeeds).
    frozen: bool,
}

impl ShardHealth {
    fn new() -> Self {
        Self { consecutive_failures: 0, quarantined: false, frozen: false }
    }
}

/// Decrement-on-drop guard so the in-flight gauge survives every return
/// path (including future early returns) without manual accounting.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Clear-on-drop guard for the `resharding` flag, so every exit path of a
/// re-shard (including build failure) re-opens the write path.
struct ReshardGuard<'a>(&'a AtomicBool);

impl Drop for ReshardGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The authoritative in-memory mirror of the durable state: everything a
/// rebuild needs beyond the cold store, and exactly what a snapshot
/// freezes. Replaying the WAL folds into the same struct the live write
/// path updates, so "restored from snapshot + tail" and "applied live"
/// are the same data by construction.
struct Mirror {
    /// Ids currently indexed (store ∪ inserts ∖ deletes).
    live: HashSet<u64>,
    /// Current codes for every id whose indexed sketch differs from the
    /// cold store: inserted after the store was built, or drifted by
    /// stream updates.
    overlays: HashMap<u64, Vec<u64>>,
    /// Per-id HistoSketch states for streaming documents.
    streams: HashMap<u64, HistoSketch>,
}

impl Mirror {
    /// The mirror of a store with no mutations: every store id live, no
    /// overlays, no streams.
    fn cold(store: &SketchStore) -> Self {
        Self {
            live: store.ids().iter().copied().collect(),
            overlays: HashMap::new(),
            streams: HashMap::new(),
        }
    }

    /// Restore from a verified snapshot.
    fn from_snapshot(state: &SnapshotState) -> Result<Self, String> {
        let mut streams = HashMap::with_capacity(state.streams.len());
        for (id, hs) in &state.streams {
            let sketch = HistoSketch::from_state(hs)
                .map_err(|e| format!("stream state for id {id}: {e}"))?;
            streams.insert(*id, sketch);
        }
        Ok(Self {
            live: state.live.iter().copied().collect(),
            overlays: state.overlays.iter().cloned().collect(),
            streams,
        })
    }

    /// Fold one logged mutation — the replay twin of the live mirror
    /// update in [`Service::mutate`]: identical HistoSketch calls in
    /// identical order, so a recovered mirror is bit-identical to one
    /// that took the writes live.
    fn fold(
        &mut self,
        seed: u64,
        sketcher: &(dyn Sketcher + Send + Sync),
        m: &Mutation,
    ) -> Result<(), String> {
        match m {
            Mutation::Insert { id, codes } => {
                self.live.insert(*id);
                self.overlays.insert(*id, codes.clone());
            }
            Mutation::Delete { id } => {
                self.live.remove(id);
                self.overlays.remove(id);
                self.streams.remove(id);
            }
            Mutation::Stream { id, lambda, items } => {
                let state = match self.streams.entry(*id) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(v) => v.insert(
                        HistoSketch::new(seed, sketcher.num_hashes()).map_err(|e| e.to_string())?,
                    ),
                };
                state.decay(*lambda).map_err(|e| e.to_string())?;
                for &(k, mass) in items {
                    state.add(k, mass).map_err(|e| e.to_string())?;
                }
                let set = state.histogram().map_err(|e| e.to_string())?;
                let sketch = sketcher.sketch(&set).map_err(|e| e.to_string())?;
                self.live.insert(*id);
                self.overlays.insert(*id, sketch.codes);
            }
        }
        Ok(())
    }

    /// Freeze the mirror as snapshot generation `generation`. Everything
    /// is sorted ascending by id, so the same mirror always serializes to
    /// the same bytes.
    fn to_snapshot_state(&self, generation: u64) -> SnapshotState {
        let mut live: Vec<u64> = self.live.iter().copied().collect();
        live.sort_unstable();
        let mut overlays: Vec<(u64, Vec<u64>)> =
            self.overlays.iter().map(|(&id, codes)| (id, codes.clone())).collect();
        overlays.sort_unstable_by_key(|&(id, _)| id);
        let mut streams: Vec<_> = self.streams.iter().map(|(&id, hs)| (id, hs.state())).collect();
        streams.sort_unstable_by_key(|&(id, _)| id);
        SnapshotState { generation, live, overlays, streams }
    }
}

/// Everything the write path owns, serialized under one lock: the WAL,
/// the cold store, the authoritative mirror, and per-shard bookkeeping.
struct WriteState {
    wal: Wal,
    /// The base every rebuild starts from.
    store: SketchStore,
    /// The authoritative mirror (see [`Mirror`]).
    mirror: Mirror,
    /// Live points per shard of the *current* fleet (skew detection).
    sizes: Vec<usize>,
    /// Committed writes since the last snapshot (drives
    /// [`ServiceConfig::snapshot_every`]).
    writes_since_snapshot: u64,
}

/// What a completed re-shard reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardReport {
    /// Shard count before.
    pub from: usize,
    /// Shard count after.
    pub to: usize,
    /// Live points re-partitioned.
    pub points: usize,
}

/// What recovery found at open time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The WAL tail replay (only segments the snapshot does not subsume).
    pub replay: ReplayReport,
    /// The snapshot generation recovery restored from, `None` for a cold
    /// store + full-replay open.
    pub snapshot_generation: Option<u64>,
    /// Snapshot files that failed verification and were skipped (the
    /// one-generation fallback, or — when every snapshot is damaged but
    /// the log still reaches generation 0 — the cold-replay fallback).
    pub snapshots_rejected: usize,
}

/// A sharded similarity-search service (see the crate docs).
pub struct Service {
    config: ServiceConfig,
    sketcher: DynSketcher,
    algorithm: Algorithm,
    bands: Bands,
    shards: RwLock<Vec<Shard>>,
    health: Mutex<Vec<ShardHealth>>,
    inflight: AtomicUsize,
    requests: AtomicU64,
    indexed: AtomicUsize,
    gate: WriteGate,
    resharding: AtomicBool,
    writer: Option<Mutex<WriteState>>,
    recovery: Option<RecoveryInfo>,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    snapshot_gen: AtomicU64,
}

impl Service {
    /// Build a *read-only* service from a sketch store: rebuild the
    /// sketcher from the store's provenance, partition points round-robin
    /// by id, and batch-ingest each partition into its shard's banded
    /// index (transient ingest faults are retried under `config.retry`).
    /// Mutations against it answer `read_only`.
    ///
    /// # Errors
    /// Any [`ServiceError`] variant; notably [`ServiceError::Ingest`] when
    /// a shard's ingest keeps failing after the whole retry budget.
    pub fn from_store(store: &SketchStore, config: ServiceConfig) -> Result<Self, ServiceError> {
        Self::build(store, None, config)
    }

    /// Open a *mutable* service: everything [`Service::from_store`] does,
    /// plus a write-ahead log at `wal_path` — a *directory* of
    /// generation-numbered segments and snapshots. Recovery restores the
    /// newest verifiable snapshot, then replays only the WAL segments the
    /// snapshot does not subsume — after a crash the service state is
    /// byte-identical to the acknowledged pre-crash state. The store is
    /// snapshotted (owned) so shards can be rebuilt at any time.
    ///
    /// # Errors
    /// [`ServiceError::Wal`] for log open/verify/replay failures, plus
    /// everything [`Service::from_store`] can return.
    pub fn open(
        store: &SketchStore,
        wal_path: &Path,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        Self::build(store, Some(wal_path), config)
    }

    fn build(
        store: &SketchStore,
        wal_path: Option<&Path>,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        if store.is_empty() {
            return Err(ServiceError::EmptyStore);
        }
        if config.shards == 0 {
            return Err(ServiceError::BadConfig("shards must be positive".into()));
        }
        if !(1..=32).contains(&config.fingerprint_bits) {
            return Err(ServiceError::BadConfig(format!(
                "fingerprint_bits {} outside 1..=32",
                config.fingerprint_bits
            )));
        }
        if config.probe_every == 0 {
            return Err(ServiceError::BadConfig("probe_every must be positive".into()));
        }
        if config.reshard_skew.is_some_and(|t| t.is_nan() || t < 1.0) {
            return Err(ServiceError::BadConfig("reshard_skew must be >= 1.0".into()));
        }
        if config.snapshot_every == Some(0) {
            return Err(ServiceError::BadConfig("snapshot_every must be positive".into()));
        }
        let algorithm = Algorithm::by_name(store.algorithm())
            .ok_or_else(|| ServiceError::UnknownAlgorithm(store.algorithm().to_owned()))?;
        let bands = match config.bands {
            Some(bands) => bands,
            None => Bands::try_for_threshold(store.num_hashes(), 0.5)
                .map_err(|e| ServiceError::BadConfig(e.to_string()))?,
        };
        let sketcher = build_sketcher(algorithm, store)?;

        let (wal, mirror, recovery) = match wal_path {
            Some(path) => {
                let provenance = provenance_of(store);
                // Snapshot first: it decides the replay floor. A path
                // that is not a directory yet (fresh service) has no
                // snapshots.
                let (loaded, rejected) = if path.is_dir() {
                    snapshot::load_latest(path, &provenance)
                        .map_err(|e| ServiceError::Wal(format!("loading snapshots: {e}")))?
                } else {
                    (None, Vec::new())
                };
                let from_gen = loaded.as_ref().map_or(0, |l| l.state.generation);
                let (wal, tail, report) = Wal::open(path, &provenance, from_gen).map_err(|e| {
                    if loaded.is_none() && !rejected.is_empty() {
                        // Every snapshot failed verification AND the
                        // log no longer reaches generation 0: name
                        // both facts, this is the unrecoverable case.
                        let names: Vec<String> = rejected
                            .iter()
                            .map(|(p, why)| format!("{}: {why}", p.display()))
                            .collect();
                        ServiceError::Wal(format!(
                            "{e}; additionally, all {} snapshot(s) failed verification ({})",
                            rejected.len(),
                            names.join("; ")
                        ))
                    } else {
                        ServiceError::Wal(e.to_string())
                    }
                })?;
                let mut mirror = match &loaded {
                    Some(l) => Mirror::from_snapshot(&l.state)
                        .map_err(|e| ServiceError::Wal(format!("snapshot restore: {e}")))?,
                    None => Mirror::cold(store),
                };
                for m in &tail {
                    mirror
                        .fold(store.seed(), &*sketcher, m)
                        .map_err(|e| ServiceError::Wal(format!("wal replay: {e}")))?;
                }
                let info = RecoveryInfo {
                    replay: report,
                    snapshot_generation: loaded.as_ref().map(|l| l.state.generation),
                    snapshots_rejected: rejected.len(),
                };
                (Some(wal), mirror, Some(info))
            }
            None => (None, Mirror::cold(store), None),
        };

        let (shards, sizes) =
            build_fleet(store, algorithm, bands, &config, config.shards, &mirror, "serve::ingest")?;
        let health = (0..config.shards).map(|_| ShardHealth::new()).collect();
        let live_count = mirror.live.len();
        let wal_records = wal.as_ref().map_or(0, Wal::records);
        let wal_bytes = wal.as_ref().map_or(0, Wal::len_bytes);
        let snapshot_gen = recovery.as_ref().and_then(|r| r.snapshot_generation).unwrap_or(0);

        let gate = WriteGate::new(usize::try_from(config.probe_every).unwrap_or(usize::MAX));
        let writer = wal.map(|wal| {
            Mutex::new(WriteState {
                wal,
                store: store.clone(),
                mirror,
                sizes,
                writes_since_snapshot: 0,
            })
        });
        Ok(Self {
            indexed: AtomicUsize::new(live_count),
            health: Mutex::new(health),
            inflight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            resharding: AtomicBool::new(false),
            shards: RwLock::new(shards),
            wal_records: AtomicU64::new(wal_records),
            wal_bytes: AtomicU64::new(wal_bytes),
            snapshot_gen: AtomicU64::new(snapshot_gen),
            gate,
            recovery,
            sketcher,
            algorithm,
            bands,
            writer,
            config,
        })
    }

    /// What WAL replay found at open time (`None` for [`Self::from_store`]
    /// services).
    #[must_use]
    pub fn wal_recovery(&self) -> Option<&ReplayReport> {
        self.recovery.as_ref().map(|r| &r.replay)
    }

    /// The full recovery picture at open time: the tail replay, the
    /// snapshot generation restored from, and how many damaged snapshots
    /// were skipped on the way.
    #[must_use]
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// Answer a similarity query. Total: every input maps to a typed
    /// [`QueryResponse`]; see [`Outcome`] for the verdict taxonomy.
    pub fn query(&self, request: &QueryRequest) -> QueryResponse {
        let request_id = self.requests.fetch_add(1, Ordering::Relaxed);
        let budget = request.deadline_us.unwrap_or(self.config.default_deadline_us);
        let deadline = Deadline::after(Duration::from_micros(budget));
        let shards_total = self.lock_shards_read().len();

        // Admission: the global in-flight cap, plus the injectable
        // `serve::admission` rejection for overload drills.
        let admitted = self.inflight.fetch_add(1, Ordering::AcqRel);
        let _guard = InflightGuard(&self.inflight);
        let admission_fault = wmh_fault::point!("serve::admission").err();
        if admitted >= self.config.max_inflight || admission_fault.is_some() {
            let backoff = self.config.retry.backoff(self.config.seed, request_id, 1);
            let mut response = QueryResponse::empty(
                request.id,
                Outcome::Overloaded,
                shards_total,
                Some(admission_fault.map_or_else(
                    || format!("{admitted} requests in flight at cap {}", self.config.max_inflight),
                    |fault| fault.to_string(),
                )),
            );
            response.retry_after_us = u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX);
            return response;
        }

        // Sketch once at the front; shards only ever probe and re-rank.
        let set = match WeightedSet::from_pairs(request.doc.iter().copied()) {
            Ok(set) => set,
            Err(e) => {
                return QueryResponse::empty(
                    request.id,
                    Outcome::BadRequest,
                    shards_total,
                    Some(format!("bad document: {e}")),
                )
            }
        };
        let sketch = match self.sketcher.sketch(&set) {
            Ok(sketch) => sketch,
            Err(e) => {
                return QueryResponse::empty(
                    request.id,
                    Outcome::BadRequest,
                    shards_total,
                    Some(format!("unsketchable document: {e}")),
                )
            }
        };
        let fp = match BbitFingerprint::pack(&sketch.codes, self.config.fingerprint_bits) {
            Ok(fp) => fp,
            Err(e) => {
                return QueryResponse::empty(
                    request.id,
                    Outcome::BadRequest,
                    shards_total,
                    Some(e.to_string()),
                )
            }
        };
        if deadline.expired() {
            return QueryResponse::empty(
                request.id,
                Outcome::DeadlineExceeded,
                shards_total,
                Some(format!("budget {budget}us spent before fan-out")),
            );
        }

        // Fan out. Frozen shards (mid-re-shard) are skipped always;
        // quarantined shards are skipped except on half-open probe
        // requests; full inboxes shed explicitly.
        let sketch = Arc::new(sketch);
        let fp = Arc::new(fp);
        let (reply_tx, reply_rx) = mpsc::channel::<Slice>();
        let probing = request_id.is_multiple_of(self.config.probe_every);
        let mut sent = 0usize;
        let mut shed = 0usize;
        let shards_total = {
            let shards = self.lock_shards_read();
            let health = self.lock_health();
            for (shard_id, shard) in shards.iter().enumerate() {
                let entry = &health[shard_id];
                if entry.frozen || (entry.quarantined && !probing) {
                    continue;
                }
                let job = Job::Query(QueryJob {
                    sketch: Arc::clone(&sketch),
                    fp: Arc::clone(&fp),
                    k: request.k,
                    deadline,
                    reply: reply_tx.clone(),
                });
                match shard.tx.try_send(job) {
                    Ok(()) => sent += 1,
                    // Explicit load-shedding: the slice is *counted*, not
                    // silently missing.
                    Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => shed += 1,
                }
            }
            shards.len()
        };
        drop(reply_tx);

        // Merge: collect slices until the budget expires or every
        // fanned-out shard reported. A missing slice never blocks — it
        // becomes missing coverage.
        let merge_fault = wmh_fault::point!("serve::merge").err();
        let mut results: Vec<(u64, f64)> = Vec::new();
        let mut succeeded: Vec<usize> = Vec::new();
        let mut failures: Vec<(usize, String)> = Vec::new();
        if merge_fault.is_none() {
            let mut received = 0usize;
            while received < sent {
                let slice = match deadline.remaining() {
                    None => reply_rx.recv().ok(),
                    Some(left) if left.is_zero() => None,
                    Some(left) => reply_rx.recv_timeout(left).ok(),
                };
                let Some(slice) = slice else { break };
                received += 1;
                match slice.outcome {
                    SliceOutcome::Hits(mut hits) => {
                        results.append(&mut hits);
                        succeeded.push(slice.shard);
                    }
                    SliceOutcome::Expired => {}
                    SliceOutcome::Failed(error) => failures.push((slice.shard, error)),
                }
            }
        }

        // Health accounting from the slices actually received. Shard ids
        // are bounds-checked: a re-shard may have swapped in a smaller
        // fleet while slices from the old one were still in flight.
        {
            let mut health = self.lock_health();
            for &shard_id in &succeeded {
                if let Some(entry) = health.get_mut(shard_id) {
                    entry.consecutive_failures = 0;
                    entry.quarantined = false;
                }
            }
            for (shard_id, _) in &failures {
                if let Some(entry) = health.get_mut(*shard_id) {
                    entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
                    if entry.consecutive_failures >= self.config.quarantine_after {
                        entry.quarantined = true;
                    }
                }
            }
        }

        let answered = succeeded.len();
        let outcome = if answered == shards_total {
            Outcome::Ok
        } else if answered == 0 && deadline.expired() {
            Outcome::DeadlineExceeded
        } else {
            Outcome::Partial
        };
        let error = merge_fault
            .map(|fault| format!("merge: {fault}"))
            .or_else(|| failures.first().map(|(shard_id, e)| format!("shard {shard_id}: {e}")));
        results.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        results.truncate(request.k);
        QueryResponse {
            id: request.id,
            outcome,
            results,
            coverage: answered as f64 / shards_total as f64,
            shards_total,
            shards_answered: answered,
            shed,
            retry_after_us: 0,
            error,
        }
    }

    /// Apply a live mutation. Total: every input maps to a typed
    /// [`MutationResponse`] — see the protocol docs for the write
    /// precedence and the meaning of `durable`/`applied`.
    pub fn mutate(&self, request: &MutationRequest) -> MutationResponse {
        let request_id = self.requests.fetch_add(1, Ordering::Relaxed);
        let budget = request.deadline_us.unwrap_or(self.config.default_deadline_us);
        let deadline = Deadline::after(Duration::from_micros(budget));
        let indexed = self.indexed.load(Ordering::Acquire);

        // Admission first: an overloaded service rejects writes before
        // touching the WAL, so `overloaded` always means "nothing
        // happened, retry verbatim".
        let admitted = self.inflight.fetch_add(1, Ordering::AcqRel);
        let _guard = InflightGuard(&self.inflight);
        let admission_fault = wmh_fault::point!("serve::admission").err();
        if admitted >= self.config.max_inflight || admission_fault.is_some() {
            let backoff = self.config.retry.backoff(self.config.seed, request_id, 1);
            let mut response = MutationResponse::rejected(
                request.id,
                Outcome::Overloaded,
                indexed,
                Some(admission_fault.map_or_else(
                    || format!("{admitted} requests in flight at cap {}", self.config.max_inflight),
                    |fault| fault.to_string(),
                )),
            );
            response.retry_after_us = u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX);
            return response;
        }

        let Some(writer) = &self.writer else {
            return MutationResponse::rejected(
                request.id,
                Outcome::ReadOnly,
                indexed,
                Some("service was opened read-only (no write-ahead log)".into()),
            );
        };
        if self.resharding.load(Ordering::Acquire) {
            let backoff = self.config.retry.backoff(self.config.seed, request_id, 1);
            let mut response = MutationResponse::rejected(
                request.id,
                Outcome::ReadOnly,
                indexed,
                Some("re-shard in progress; writes resume when it completes".into()),
            );
            response.retry_after_us = u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX);
            return response;
        }
        // The half-open write gate. `Reject` is the fast path of a
        // tripped gate; `Probe` proceeds into the real durable append —
        // its success is the evidence that re-opens the gate.
        let admission = self.gate.admit();
        if admission == WriteAdmission::Reject {
            let backoff = self.config.retry.backoff(self.config.seed, request_id, 1);
            let mut response = MutationResponse::rejected(
                request.id,
                Outcome::ReadOnly,
                indexed,
                Some(
                    "write gate tripped by a WAL failure; half-open probes re-admit \
                     writes once an append succeeds — retry later"
                        .into(),
                ),
            );
            response.retry_after_us = u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX);
            return response;
        }

        // Pre-sketch inserts and pre-validate stream parameters outside
        // the writer lock: everything rejectable without id bookkeeping is
        // rejected before any serialization point.
        let presketched = match &request.kind {
            MutationKind::Insert { doc } => match self.sketch_doc(doc) {
                Ok(pair) => Some(pair),
                Err(e) => {
                    return MutationResponse::rejected(
                        request.id,
                        Outcome::BadRequest,
                        indexed,
                        Some(e),
                    )
                }
            },
            MutationKind::Delete => None,
            MutationKind::Stream { lambda, items } => {
                if !lambda.is_finite() || *lambda <= 0.0 || *lambda > 1.0 {
                    return MutationResponse::rejected(
                        request.id,
                        Outcome::BadRequest,
                        indexed,
                        Some(format!("decay factor lambda {lambda} outside (0, 1]")),
                    );
                }
                if let Some((k, mass)) =
                    items.iter().find(|(_, mass)| !mass.is_finite() || *mass <= 0.0)
                {
                    return MutationResponse::rejected(
                        request.id,
                        Outcome::BadRequest,
                        indexed,
                        Some(format!("stream item ({k}, {mass}) has non-positive mass")),
                    );
                }
                None
            }
        };

        // Serialize: validate against live ids, commit to the WAL, update
        // the mirror, dispatch to the owning shard — all under the writer
        // lock, so WAL order is exactly per-shard apply order.
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);

        // Prepare the (record, apply-op) pair; every rejection here
        // happens *before* the append, so a `bad_request` never commits.
        let prepared = prepare_mutation(&w, request, presketched, &*self.sketcher, &self.config);
        let (record, op, new_stream) = match prepared {
            Ok(triple) => triple,
            Err(e) => {
                return MutationResponse::rejected(
                    request.id,
                    Outcome::BadRequest,
                    indexed,
                    Some(e),
                )
            }
        };
        if deadline.expired() {
            return MutationResponse::rejected(
                request.id,
                Outcome::DeadlineExceeded,
                indexed,
                Some(format!("budget {budget}us spent before the WAL append")),
            );
        }

        // The commit point: durable append, transient faults retried
        // under the policy. Exhaustion trips the write gate — a log that
        // cannot take writes must not acknowledge any — and the gate's
        // half-open probes re-admit writes once the disk recovers.
        let appended = supervise(&self.config.retry, self.config.seed, request_id, |_| {
            match w.wal.append(&record) {
                Ok(()) => Attempt::Done(Ok(())),
                Err(e @ WalError::TooLarge(_)) => Attempt::Done(Err(e.to_string())),
                Err(e) => Attempt::Transient(e.to_string()),
            }
        });
        let append_failure = match appended {
            CellOutcome::Completed(Ok(())) => None,
            CellOutcome::Completed(Err(e)) => {
                return MutationResponse::rejected(
                    request.id,
                    Outcome::BadRequest,
                    indexed,
                    Some(e),
                )
            }
            CellOutcome::TimedOut => Some("WAL append deadline".to_owned()),
            CellOutcome::Quarantined { attempts, error } => {
                Some(format!("WAL append failed after {attempts} attempts: {error}"))
            }
        };
        if let Some(detail) = append_failure {
            self.gate.trip();
            return MutationResponse::rejected(
                request.id,
                Outcome::ReadOnly,
                indexed,
                Some(format!(
                    "{detail}; write gate tripped — half-open probes re-admit writes \
                     once an append succeeds"
                )),
            );
        }
        // A successful probe append IS the recovery evidence: the fault
        // has cleared, and this very mutation commits.
        if admission == WriteAdmission::Probe {
            self.gate.restore();
        }
        self.wal_records.store(w.wal.records(), Ordering::Release);
        self.wal_bytes.store(w.wal.len_bytes(), Ordering::Release);

        // Committed. Mirror the mutation, then apply it — from here on the
        // response always reports `durable: true`.
        let was_live = w.mirror.live.contains(&request.id);
        let overlay_codes = match &op {
            ApplyOp::Insert { sketch, .. } | ApplyOp::Upsert { sketch, .. } => {
                Some(sketch.codes.clone())
            }
            ApplyOp::Delete { .. } => None,
        };
        match &request.kind {
            MutationKind::Insert { .. } => {
                w.mirror.live.insert(request.id);
                if let Some(codes) = overlay_codes {
                    w.mirror.overlays.insert(request.id, codes);
                }
            }
            MutationKind::Delete => {
                w.mirror.live.remove(&request.id);
                w.mirror.overlays.remove(&request.id);
                w.mirror.streams.remove(&request.id);
            }
            MutationKind::Stream { .. } => {
                w.mirror.live.insert(request.id);
                if let Some(codes) = overlay_codes {
                    w.mirror.overlays.insert(request.id, codes);
                }
                if let Some(state) = new_stream {
                    w.mirror.streams.insert(request.id, state);
                }
            }
        }
        let live_count = w.mirror.live.len();
        self.indexed.store(live_count, Ordering::Release);

        // The snapshot trigger. A failed automatic snapshot is absorbed
        // (this write is already durably acknowledged; the old generation
        // keeps serving) and the counter resets either way, so a broken
        // disk is probed once per window, not once per write.
        if let Some(every) = self.config.snapshot_every {
            w.writes_since_snapshot += 1;
            if w.writes_since_snapshot >= every {
                let _ = self.snapshot_locked(&mut w);
            }
        }

        // Route to the owning shard of the *current* fleet.
        let (shard_id, send_result, reply_rx) = {
            let shards = self.lock_shards_read();
            let shard_id = (request.id % shards.len() as u64) as usize;
            let (ack_tx, ack_rx) = mpsc::channel();
            // Blocking send: the mutation is durable, so it must reach the
            // worker; the worker always drains, so the wait is bounded by
            // the queue depth.
            let sent =
                shards[shard_id].tx.send(Job::Apply(Box::new(ApplyJob { op, reply: ack_tx })));
            (shard_id, sent, ack_rx)
        };
        match &request.kind {
            MutationKind::Insert { .. } => w.sizes[shard_id] += 1,
            MutationKind::Delete => w.sizes[shard_id] = w.sizes[shard_id].saturating_sub(1),
            MutationKind::Stream { .. } => {
                if !was_live {
                    w.sizes[shard_id] += 1;
                }
            }
        }
        let reshard_hint =
            self.config.reshard_skew.is_some_and(|threshold| imbalance(&w.sizes) >= threshold);

        let ack = if send_result.is_err() {
            // The worker is gone (only possible mid-teardown): treat as an
            // apply failure and fall into the rebuild path.
            Err("shard worker unavailable".to_owned())
        } else {
            match deadline.remaining() {
                None => reply_rx
                    .recv()
                    .map_err(|_| "shard worker gone".to_owned())
                    .map(|a| a.result)
                    .and_then(|r| r),
                Some(left) => match reply_rx.recv_timeout(left) {
                    Ok(ack) => ack.result,
                    Err(RecvTimeoutError::Timeout) => {
                        // Committed but unconfirmed: the worker applies it
                        // regardless; only the wait ran out.
                        return MutationResponse {
                            id: request.id,
                            outcome: Outcome::DeadlineExceeded,
                            durable: true,
                            applied: false,
                            shard: Some(shard_id),
                            indexed: live_count,
                            reshard_hint,
                            retry_after_us: 0,
                            error: Some(
                                "committed to the WAL; apply not confirmed in budget".into(),
                            ),
                        };
                    }
                    Err(RecvTimeoutError::Disconnected) => Err("shard worker gone".to_owned()),
                },
            }
        };

        match ack {
            Ok(()) => MutationResponse {
                id: request.id,
                outcome: Outcome::Ok,
                durable: true,
                applied: true,
                shard: Some(shard_id),
                indexed: live_count,
                reshard_hint,
                retry_after_us: 0,
                error: None,
            },
            Err(apply_error) => {
                self.self_heal(&mut w, shard_id, request, live_count, reshard_hint, &apply_error)
            }
        }
    }

    /// An apply failed after its in-worker retry budget: the shard's
    /// memory no longer matches the log. Rebuild it from the authoritative
    /// mirror — the same builder a cold open uses — and swap it into the
    /// fleet. If even the rebuild fails, quarantine the shard and trip the
    /// write gate: the log stays authoritative, and a half-open probe (or
    /// a restart) recovers.
    fn self_heal(
        &self,
        w: &mut WriteState,
        shard_id: usize,
        request: &MutationRequest,
        live_count: usize,
        reshard_hint: bool,
        apply_error: &str,
    ) -> MutationResponse {
        match self.rebuild_shard_locked(w, shard_id) {
            Ok(()) => MutationResponse {
                id: request.id,
                outcome: Outcome::Ok,
                durable: true,
                applied: true,
                shard: Some(shard_id),
                indexed: live_count,
                reshard_hint,
                retry_after_us: 0,
                error: Some(format!(
                    "apply failed ({apply_error}); shard {shard_id} rebuilt from the \
                     durable state"
                )),
            },
            Err(rebuild_error) => {
                {
                    let mut health = self.lock_health();
                    if let Some(entry) = health.get_mut(shard_id) {
                        entry.quarantined = true;
                    }
                }
                self.gate.trip();
                MutationResponse {
                    id: request.id,
                    outcome: Outcome::ReadOnly,
                    durable: true,
                    applied: false,
                    shard: Some(shard_id),
                    indexed: live_count,
                    reshard_hint,
                    retry_after_us: 0,
                    error: Some(format!(
                        "apply failed ({apply_error}); shard rebuild also failed \
                         ({rebuild_error}); shard quarantined, write gate tripped — the WAL \
                         stays authoritative and probes or a restart recover"
                    )),
                }
            }
        }
    }

    /// Rebuild one shard from the mirror and swap it into the fleet,
    /// resetting its health entry. Shared by mutation self-heal and the
    /// scrubber's mismatch repair.
    fn rebuild_shard_locked(&self, w: &mut WriteState, shard_id: usize) -> Result<(), String> {
        let count = self.lock_shards_read().len();
        let built = supervise(&self.config.retry, self.config.seed, shard_id as u64, |_| {
            build_shard(
                &w.store,
                self.algorithm,
                self.bands,
                &self.config,
                shard_id,
                count,
                &w.mirror,
                "serve::ingest",
            )
        });
        let (index, fingerprints) = match built {
            CellOutcome::Completed(Ok(contents)) => contents,
            // TimedOut cannot fire (shard builds carry no deadline), but a
            // typed failure is the honest fallback if that ever changes.
            CellOutcome::TimedOut => return Err("shard rebuild hit a deadline".into()),
            CellOutcome::Completed(Err(error)) => return Err(error),
            CellOutcome::Quarantined { attempts, error } => {
                return Err(format!("after {attempts} attempts: {error}"))
            }
        };
        if let Some(size) = w.sizes.get_mut(shard_id) {
            *size = index.len();
        }
        let shard = Shard::spawn(
            shard_id,
            index,
            fingerprints,
            self.config.queue_depth,
            self.config.retry,
            self.config.seed,
        )?;
        {
            let mut shards = self.lock_shards_write();
            // The old worker exits once its (now unreferenced) inbox
            // drains.
            shards[shard_id] = shard;
        }
        {
            let mut health = self.lock_health();
            if let Some(entry) = health.get_mut(shard_id) {
                *entry = ShardHealth::new();
            }
        }
        Ok(())
    }

    /// Take a snapshot now: rotate the WAL to a fresh generation, write
    /// the mirror atomically as that generation's snapshot, keep the
    /// newest two snapshots, and retire segments the second-newest
    /// snapshot subsumes. Returns the new generation.
    ///
    /// On *any* failure the previous generation — snapshot and covering
    /// segments — is intact and keeps serving recovery; an ENOSPC
    /// mid-write leaves no trace of the aborted generation.
    ///
    /// # Errors
    /// [`ServiceError::ReadOnlyService`] for WAL-less services,
    /// [`ServiceError::Snapshot`] for rotation/write/retention failures.
    pub fn snapshot(&self) -> Result<u64, ServiceError> {
        let Some(writer) = &self.writer else {
            return Err(ServiceError::ReadOnlyService);
        };
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.snapshot_locked(&mut w)
    }

    fn snapshot_locked(&self, w: &mut WriteState) -> Result<u64, ServiceError> {
        w.writes_since_snapshot = 0;
        // Rotate first: the snapshot subsumes everything below the fresh
        // generation, and new appends land in segments the snapshot's
        // replay floor covers.
        let gen =
            w.wal.rotate().map_err(|e| ServiceError::Snapshot(format!("rotating the WAL: {e}")))?;
        let provenance = provenance_of(&w.store);
        let dir = w.wal.dir().to_owned();
        let state = w.mirror.to_snapshot_state(gen);
        snapshot::write(&dir, &provenance, &state)
            .map_err(|e| ServiceError::Snapshot(e.to_string()))?;
        snapshot::retain_latest(&dir, 2)
            .map_err(|e| ServiceError::Snapshot(format!("retiring old snapshots: {e}")))?;
        // Lag-one retirement: segments stay until the *second*-newest
        // snapshot subsumes them, so a flipped bit in the newest snapshot
        // still has a fallback generation with covering history.
        let snaps = snapshot::list(&dir).map_err(|e| ServiceError::Snapshot(e.to_string()))?;
        if snaps.len() >= 2 {
            w.wal
                .retire_below(snaps[snaps.len() - 2].0)
                .map_err(|e| ServiceError::Snapshot(format!("retiring segments: {e}")))?;
        }
        self.snapshot_gen.store(gen, Ordering::Release);
        self.wal_records.store(w.wal.records(), Ordering::Release);
        self.wal_bytes.store(w.wal.len_bytes(), Ordering::Release);
        Ok(gen)
    }

    /// One integrity scrub pass: re-verify every snapshot and sealed WAL
    /// segment end-to-end (magic, frame CRCs, provenance, footer), then
    /// spot-check a strided sample of shard fingerprints against the
    /// authoritative mirror. Damage found is *healed*, not just reported:
    /// corrupt files are quarantined (renamed `*.bad`), a fresh snapshot
    /// re-establishes a durable recovery point, and a mismatching shard
    /// is quarantined and rebuilt from the mirror. Runs under the writer
    /// lock, so the sample it audits is exactly what the shards hold.
    ///
    /// # Errors
    /// [`ServiceError::ReadOnlyService`] for WAL-less services,
    /// [`ServiceError::Scrub`] when the pass itself cannot run (directory
    /// unreadable, or the injectable `serve::scrub` fault). Damage is
    /// never an `Err` — it is data in the [`ScrubReport`].
    pub fn scrub(&self) -> Result<ScrubReport, ServiceError> {
        if let Err(fault) = wmh_fault::point!("serve::scrub") {
            return Err(ServiceError::Scrub(fault.to_string()));
        }
        let Some(writer) = &self.writer else {
            return Err(ServiceError::ReadOnlyService);
        };
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let provenance = provenance_of(&w.store);
        let dir = w.wal.dir().to_owned();
        let findings = crate::scrub::scan_files(&dir, &provenance, w.wal.active_generation())
            .map_err(|e| ServiceError::Scrub(e.to_string()))?;
        let mut report = ScrubReport {
            snapshots_checked: findings.snapshots_checked,
            segments_checked: findings.segments_checked,
            corrupt_snapshots: findings
                .corrupt_snapshots
                .iter()
                .map(|(_, path, why)| format!("{}: {why}", path.display()))
                .collect(),
            corrupt_segments: findings.corrupt_segments.clone(),
            ids_spot_checked: 0,
            shards_audited: 0,
            mismatched_shards: Vec::new(),
            snapshot_taken: None,
            heal_errors: Vec::new(),
        };

        // Heal phase A — files. Quarantine damaged snapshots out of the
        // fallback walk, take a fresh snapshot so durability does not
        // depend on the damaged history, then quarantine damaged sealed
        // segments (often already retired by the fresh snapshot).
        if !findings.corrupt_snapshots.is_empty() || !findings.corrupt_segments.is_empty() {
            for (_, path, _) in &findings.corrupt_snapshots {
                let mut bad = path.clone().into_os_string();
                bad.push(".bad");
                if let Err(e) = std::fs::rename(path, &bad) {
                    report.heal_errors.push(format!("quarantining {}: {e}", path.display()));
                }
            }
            if !findings.corrupt_snapshots.is_empty() {
                if let Err(e) = crate::wal::sync_dir(&dir) {
                    report.heal_errors.push(format!("syncing {}: {e}", dir.display()));
                }
            }
            match self.snapshot_locked(&mut w) {
                Ok(gen) => report.snapshot_taken = Some(gen),
                Err(e) => report.heal_errors.push(format!("fresh snapshot: {e}")),
            }
            for &gen in &findings.corrupt_segments {
                if let Err(e) = w.wal.quarantine_segment(gen) {
                    report.heal_errors.push(format!("quarantining segment generation {gen}: {e}"));
                }
            }
        }

        // Phase B — spot-check shard fingerprints against the mirror. A
        // strided sample over the sorted live set is deterministic, so a
        // pinned-seed run audits the same ids every pass.
        let count = self.lock_shards_read().len();
        let mut live: Vec<u64> = w.mirror.live.iter().copied().collect();
        live.sort_unstable();
        let stride = (live.len() / SCRUB_SAMPLE).max(1);
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); count];
        for &id in live.iter().step_by(stride) {
            report.ids_spot_checked += 1;
            per_shard[(id % count as u64) as usize].push(id);
        }
        for (shard_id, ids) in per_shard.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            report.shards_audited += 1;
            let tag = shard_id.to_string();
            // The injectable corruption: a fired `serve::scrub_audit`
            // stands in for a shard whose memory has silently diverged.
            let mut mismatch = wmh_fault::point!("serve::scrub_audit", &tag).is_err();
            if !mismatch {
                let reply = {
                    let shards = self.lock_shards_read();
                    let (tx, rx) = mpsc::channel();
                    let job = Job::Audit(AuditJob { ids: ids.clone(), reply: tx });
                    if shards[shard_id].tx.send(job).is_err() {
                        report.heal_errors.push(format!("shard {shard_id}: audit inbox closed"));
                        continue;
                    }
                    rx
                };
                let answers = match reply.recv() {
                    Ok(answers) => answers,
                    Err(_) => {
                        report.heal_errors.push(format!("shard {shard_id}: audit worker gone"));
                        continue;
                    }
                };
                for (id, got) in &answers {
                    let expected = match self.expected_fingerprint(&w, *id) {
                        Ok(fp) => fp,
                        Err(e) => {
                            report.heal_errors.push(format!("fingerprinting id {id}: {e}"));
                            continue;
                        }
                    };
                    if got.as_ref() != Some(&expected) {
                        mismatch = true;
                        break;
                    }
                }
            }
            if mismatch {
                report.mismatched_shards.push(shard_id);
                {
                    let mut health = self.lock_health();
                    if let Some(entry) = health.get_mut(shard_id) {
                        entry.quarantined = true;
                    }
                }
                // Self-heal through the same rebuild the mutation path
                // uses; failure leaves the shard quarantined (fan-out
                // skips it, probes keep trying).
                if let Err(e) = self.rebuild_shard_locked(&mut w, shard_id) {
                    report.heal_errors.push(format!("rebuilding shard {shard_id}: {e}"));
                }
            }
        }
        Ok(report)
    }

    /// The fingerprint shard `id % count` must hold for `id`, derived
    /// from the authoritative mirror: overlay codes if the id drifted
    /// from the store, store codes otherwise.
    fn expected_fingerprint(&self, w: &WriteState, id: u64) -> Result<BbitFingerprint, String> {
        let codes = match w.mirror.overlays.get(&id) {
            Some(codes) => codes.clone(),
            None => w.store.get(id).map_err(|e| e.to_string())?.codes,
        };
        BbitFingerprint::pack(&codes, self.config.fingerprint_bits).map_err(|e| e.to_string())
    }

    /// Rebuild the fleet at `to` shards, blocking until the swap. Writes
    /// answer `read_only` for the duration; queries keep serving, degraded
    /// by the frozen (most-loaded) shard. The new partition is built by
    /// the cold-open builder over the mirror, so it is byte-identical to a
    /// from-scratch partition at `to` shards.
    ///
    /// # Errors
    /// [`ServiceError::ReadOnlyService`] for WAL-less services,
    /// [`ServiceError::Resharding`] when one is already running,
    /// [`ServiceError::Ingest`] when a shard build exhausts its retries
    /// (the old fleet stays in place).
    pub fn reshard_blocking(&self, to: usize) -> Result<ReshardReport, ServiceError> {
        let Some(writer) = &self.writer else {
            return Err(ServiceError::ReadOnlyService);
        };
        if to == 0 {
            return Err(ServiceError::BadConfig("shards must be positive".into()));
        }
        if self
            .resharding
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(ServiceError::Resharding);
        }
        let _flag = ReshardGuard(&self.resharding);
        // Taking the writer lock waits out any in-flight mutation, so the
        // mirror we build from includes everything acknowledged.
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let from = self.lock_shards_read().len();

        // Freeze the most-loaded shard — the skew source — behind the
        // quarantine machinery: queries degrade to partial, no probes.
        let frozen = w
            .sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &size)| size)
            .map_or(0, |(shard_id, _)| shard_id);
        {
            let mut health = self.lock_health();
            if let Some(entry) = health.get_mut(frozen) {
                entry.frozen = true;
            }
        }

        let built = build_fleet(
            &w.store,
            self.algorithm,
            self.bands,
            &self.config,
            to,
            &w.mirror,
            "serve::reshard",
        );
        let (shards, sizes) = match built {
            Ok(pair) => pair,
            Err(e) => {
                // Abort: unfreeze, old fleet intact, writes resume (the
                // guard clears the flag).
                let mut health = self.lock_health();
                if let Some(entry) = health.get_mut(frozen) {
                    entry.frozen = false;
                }
                return Err(e);
            }
        };
        {
            let mut fleet = self.lock_shards_write();
            let mut health = self.lock_health();
            *fleet = shards;
            *health = (0..to).map(|_| ShardHealth::new()).collect();
        }
        w.sizes = sizes;
        Ok(ReshardReport { from, to, points: w.mirror.live.len() })
    }

    /// Propose a better shard count, or `None` when the current partition
    /// is within the configured skew threshold (or skew detection is off,
    /// or the service is read-only). Deterministic: scans live ids against
    /// every candidate count up to `reshard_cap`.
    #[must_use]
    pub fn plan_reshard(&self) -> Option<usize> {
        let threshold = self.config.reshard_skew?;
        let writer = self.writer.as_ref()?;
        let w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.lock_shards_read().len();
        if imbalance(&w.sizes) < threshold {
            return None;
        }
        let cap = self.config.reshard_cap.max(current).max(1);
        let mut best = (current, imbalance(&w.sizes));
        for candidate in 1..=cap {
            if candidate == current {
                continue;
            }
            let mut counts = vec![0usize; candidate];
            for &id in &w.mirror.live {
                counts[(id % candidate as u64) as usize] += 1;
            }
            let skew = imbalance(&counts);
            if skew + 1e-9 < best.1 {
                best = (candidate, skew);
            }
        }
        (best.0 != current).then_some(best.0)
    }

    /// Kick off [`Self::reshard_blocking`] on a background thread if
    /// [`Self::plan_reshard`] proposes a count. Returns whether one
    /// started. Failures (including a concurrent re-shard) are absorbed —
    /// the old fleet keeps serving either way.
    pub fn spawn_reshard(self: &Arc<Self>) -> bool {
        let Some(to) = self.plan_reshard() else { return false };
        let service = Arc::clone(self);
        std::thread::Builder::new()
            .name("wmh-serve-reshard".into())
            .spawn(move || {
                let _ = service.reshard_blocking(to);
            })
            .is_ok()
    }

    /// Health / readiness snapshot. Durability gauges (`wal_records`,
    /// `wal_bytes`, `snapshot_generation`) read from atomics published by
    /// the write path, so health never blocks on the writer lock.
    pub fn health(&self) -> HealthResponse {
        let shards_total = self.lock_shards_read().len();
        let health = self.lock_health();
        let quarantined = health.iter().filter(|entry| entry.quarantined).count();
        let resharding = self.resharding.load(Ordering::Acquire);
        let half_open = self.writer.is_some() && !self.gate.is_open();
        let replay = self.recovery.as_ref().map(|r| &r.replay);
        HealthResponse {
            ready: quarantined < shards_total,
            indexed: self.indexed.load(Ordering::Acquire),
            shards_total,
            shards_quarantined: quarantined,
            inflight: self.inflight.load(Ordering::Acquire),
            read_only: self.writer.is_none() || half_open || resharding,
            half_open,
            resharding,
            wal_records: self.wal_records.load(Ordering::Acquire),
            wal_bytes: self.wal_bytes.load(Ordering::Acquire),
            replayed_records: replay.map_or(0, |r| r.records as u64),
            replay_bytes_discarded: replay.map_or(0, |r| r.bytes_discarded as u64),
            snapshot_generation: match self.snapshot_gen.load(Ordering::Acquire) {
                0 => None,
                gen => Some(gen),
            },
        }
    }

    /// The configuration the service runs under.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Sketch + fingerprint a document (the insert fast path).
    fn sketch_doc(&self, doc: &[(u64, f64)]) -> Result<(Sketch, BbitFingerprint), String> {
        let set = WeightedSet::from_pairs(doc.iter().copied())
            .map_err(|e| format!("bad document: {e}"))?;
        let sketch =
            self.sketcher.sketch(&set).map_err(|e| format!("unsketchable document: {e}"))?;
        let fp = BbitFingerprint::pack(&sketch.codes, self.config.fingerprint_bits)
            .map_err(|e| e.to_string())?;
        Ok((sketch, fp))
    }

    /// Poison-tolerant locks: a panicking thread (impossible by the
    /// crate's own contract, but the lock cannot know that) must not wedge
    /// the whole service.
    fn lock_health(&self) -> std::sync::MutexGuard<'_, Vec<ShardHealth>> {
        self.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_shards_read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Shard>> {
        self.shards.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_shards_write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Shard>> {
        self.shards.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Closing each inbox ends its worker's `recv` loop; join so no
        // worker outlives the index it borrows conceptually.
        let shards =
            std::mem::take(&mut *self.shards.get_mut().unwrap_or_else(PoisonError::into_inner));
        for shard in shards {
            let Shard { tx, handle } = shard;
            drop(tx);
            let _ = handle.join();
        }
    }
}

/// Prepared write: the WAL record, the shard apply op, and (for streams)
/// the post-mutation HistoSketch state to commit into the mirror.
type PreparedWrite = (Mutation, ApplyOp, Option<HistoSketch>);

/// Validate a mutation against the live-id bookkeeping and derive its
/// (record, apply-op) pair. Runs entirely *before* the WAL append: every
/// `Err` here is a `bad_request` that commits nothing.
fn prepare_mutation(
    w: &WriteState,
    request: &MutationRequest,
    presketched: Option<(Sketch, BbitFingerprint)>,
    sketcher: &(dyn Sketcher + Send + Sync),
    config: &ServiceConfig,
) -> Result<PreparedWrite, String> {
    let id = request.id;
    match &request.kind {
        MutationKind::Insert { .. } => {
            if w.mirror.live.contains(&id) {
                return Err(format!("id {id} is already indexed (delete it first, or stream)"));
            }
            let (sketch, fp) =
                presketched.ok_or_else(|| "insert without a pre-sketched document".to_owned())?;
            let record = Mutation::Insert { id, codes: sketch.codes.clone() };
            Ok((record, ApplyOp::Insert { id, sketch, fp }, None))
        }
        MutationKind::Delete => {
            if !w.mirror.live.contains(&id) {
                return Err(format!("id {id} is not indexed"));
            }
            Ok((Mutation::Delete { id }, ApplyOp::Delete { id }, None))
        }
        MutationKind::Stream { lambda, items } => {
            // A static (non-streaming) live id has no histogram to decay;
            // streaming onto it would silently replace its content.
            let state = match w.mirror.streams.get(&id) {
                Some(state) => Some(state.clone()),
                None if w.mirror.live.contains(&id) => {
                    return Err(format!(
                        "id {id} is indexed but not a streaming document; delete it first"
                    ))
                }
                None => None,
            };
            if state.is_none() && items.is_empty() {
                return Err(format!("cannot create streaming id {id} from an empty item list"));
            }
            let mut state = match state {
                Some(state) => state,
                None => HistoSketch::new(w.store.seed(), sketcher.num_hashes())
                    .map_err(|e| e.to_string())?,
            };
            state.decay(*lambda).map_err(|e| e.to_string())?;
            for &(k, mass) in items {
                state.add(k, mass).map_err(|e| e.to_string())?;
            }
            let set = state.histogram().map_err(|e| format!("stream state: {e}"))?;
            let sketch =
                sketcher.sketch(&set).map_err(|e| format!("unsketchable stream state: {e}"))?;
            let fp = BbitFingerprint::pack(&sketch.codes, config.fingerprint_bits)
                .map_err(|e| e.to_string())?;
            let record = Mutation::Stream { id, lambda: *lambda, items: items.clone() };
            Ok((record, ApplyOp::Upsert { id, sketch, fp }, Some(state)))
        }
    }
}

/// Imbalance of a partition: max shard size over the ideal (uniform)
/// size. 1.0 is perfectly balanced; an empty fleet reads as balanced.
fn imbalance(sizes: &[usize]) -> f64 {
    let total: usize = sizes.iter().sum();
    let max = sizes.iter().copied().max().unwrap_or(0);
    if total == 0 || sizes.is_empty() {
        return 1.0;
    }
    (max * sizes.len()) as f64 / total as f64
}

/// The WAL/snapshot provenance binding of a store.
fn provenance_of(store: &SketchStore) -> WalProvenance {
    WalProvenance {
        algorithm: store.algorithm().to_owned(),
        seed: store.seed(),
        num_hashes: store.num_hashes(),
    }
}

/// Rebuild the store's sketcher from its recorded provenance.
fn build_sketcher(algorithm: Algorithm, store: &SketchStore) -> Result<DynSketcher, ServiceError> {
    algorithm
        .build(store.seed(), store.num_hashes(), &AlgorithmConfig::default())
        .map_err(|e| ServiceError::Build(e.to_string()))
}

/// What one shard ingest produces: its banded index plus the re-ranking
/// fingerprints for every point it owns.
type ShardContents = (LshIndex<DynSketcher>, HashMap<u64, BbitFingerprint>);

/// Spawned shard workers plus per-shard sizes, as produced by
/// [`build_fleet`].
type FleetParts = (Vec<Shard>, Vec<usize>);

/// Build every shard of a fleet at `count` shards from the mirror, spawn
/// the workers, and report per-shard sizes. Used by cold open, self-heal
/// (single shard via [`build_shard`]), and re-shard — one builder, so
/// every path converges byte-identical.
fn build_fleet(
    store: &SketchStore,
    algorithm: Algorithm,
    bands: Bands,
    config: &ServiceConfig,
    count: usize,
    mirror: &Mirror,
    failpoint: &'static str,
) -> Result<FleetParts, ServiceError> {
    let mut shards = Vec::with_capacity(count);
    let mut sizes = Vec::with_capacity(count);
    for shard_id in 0..count {
        let built = supervise(&config.retry, config.seed, shard_id as u64, |_| {
            build_shard(store, algorithm, bands, config, shard_id, count, mirror, failpoint)
        });
        let (index, fingerprints) = match built {
            CellOutcome::Completed(Ok(contents)) => contents,
            CellOutcome::Completed(Err(error)) => {
                return Err(ServiceError::Ingest { shard: shard_id, attempts: 1, error })
            }
            CellOutcome::TimedOut => {
                return Err(ServiceError::Ingest {
                    shard: shard_id,
                    attempts: 1,
                    error: "ingest deadline".into(),
                })
            }
            CellOutcome::Quarantined { attempts, error } => {
                return Err(ServiceError::Ingest { shard: shard_id, attempts, error })
            }
        };
        sizes.push(index.len());
        shards.push(
            Shard::spawn(
                shard_id,
                index,
                fingerprints,
                config.queue_depth,
                config.retry,
                config.seed,
            )
            .map_err(ServiceError::Spawn)?,
        );
    }
    Ok((shards, sizes))
}

/// One attempt at building a shard: batch-ingest its slice of the live
/// set in ascending id order, taking each id's current codes from the
/// mirror overlay (inserted or drifted ids) or the cold store. Every id
/// is inserted exactly once, and because query responses depend only on
/// index *content* (candidates and hits are sorted), a folded build is
/// byte-identical to one that applied the same mutations live. Injected
/// `failpoint` faults are transient (the supervisor retries the whole
/// build); everything else is deterministic and terminal.
#[allow(clippy::too_many_arguments)]
fn build_shard(
    store: &SketchStore,
    algorithm: Algorithm,
    bands: Bands,
    config: &ServiceConfig,
    shard_id: usize,
    count: usize,
    mirror: &Mirror,
    failpoint: &'static str,
) -> Attempt<Result<ShardContents, String>> {
    let tag = shard_id.to_string();
    let bits = config.fingerprint_bits;
    let sketcher = match build_sketcher(algorithm, store) {
        Ok(sketcher) => sketcher,
        Err(e) => return Attempt::Done(Err(e.to_string())),
    };
    let mut index = match LshIndex::new(sketcher, bands) {
        Ok(index) => index,
        Err(e) => return Attempt::Done(Err(e.to_string())),
    };
    let mut ids: Vec<u64> =
        mirror.live.iter().copied().filter(|id| (id % count as u64) as usize == shard_id).collect();
    ids.sort_unstable();
    let mut fingerprints = HashMap::with_capacity(ids.len());
    for batch in ids.chunks(INGEST_BATCH.max(1)) {
        if let Err(fault) = wmh_fault::point!(failpoint, &tag) {
            return Attempt::Transient(fault.to_string());
        }
        for &id in batch {
            let sketch = match mirror.overlays.get(&id) {
                Some(codes) => Sketch {
                    algorithm: store.algorithm().to_owned(),
                    seed: store.seed(),
                    codes: codes.clone(),
                },
                None => match store.get(id) {
                    Ok(sketch) => sketch,
                    Err(e) => return Attempt::Done(Err(e.to_string())),
                },
            };
            let fp = match BbitFingerprint::pack(&sketch.codes, bits) {
                Ok(fp) => fp,
                Err(e) => return Attempt::Done(Err(e.to_string())),
            };
            if let Err(e) = index.insert_sketch(id, sketch) {
                return Attempt::Done(Err(e.to_string()));
            }
            fingerprints.insert(id, fp);
        }
    }
    Attempt::Done(Ok((index, fingerprints)))
}
