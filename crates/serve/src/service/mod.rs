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
//! order: pre-sketch (outside the lock) → `Mirror::transition` →
//! durable WAL append → `Mirror::commit` → dispatch to the owning
//! shard. The transition is the only place a mutation's effect is
//! computed: it validates the mutation against the mirror and derives
//! the resulting overlay codes and stream state, and the shard apply op
//! is built from its result. WAL replay folds each logged record through
//! the same transition and commit, so a recovered mirror equals the live
//! one by construction. The append is the commit point; everything after
//! it is reconstructible, so a SIGKILL anywhere replays to the exact
//! acknowledged state. An apply failure inside a shard (retry budget
//! exhausted) is self-healed by rebuilding that shard from the
//! authoritative mirror — the same code path a cold open uses, so the
//! repaired shard is byte-identical to never having failed.
//!
//! ## The durability lifecycle
//!
//! The writer owns a `Mirror`: the live id set, the overlay codes of
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
//! count. It holds the writer lock for the whole rebuild, so writes
//! answer `read_only` while the old fleet — consistent, since nothing can
//! write to it — keeps answering queries at full coverage until the swap.
//! The new partition is built from the mirror by the same builder as a
//! cold open, so the converged fleet is byte-identical to a from-scratch
//! partition, and it is swapped in under the fleet lock.
//!
//! [`Outcome`]: crate::protocol::Outcome

mod lifecycle;
mod read;
mod write;

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use crate::gate::WriteGate;
use crate::protocol::HealthResponse;
use crate::shard::{DynSketcher, Shard};
use crate::snapshot;
use crate::wal::{ReplayReport, Wal, WalProvenance};
use lifecycle::build_fleet;
use wmh_core::{Algorithm, AlgorithmConfig, SketchStore};
use wmh_lsh::Bands;
use write::Mirror;

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
    ///
    /// [`ScrubReport`]: crate::scrub::ScrubReport
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
#[derive(Default)]
struct ShardHealth {
    consecutive_failures: u32,
    quarantined: bool,
}

/// Everything the write path owns, serialized under one lock: the WAL,
/// the cold store, the authoritative mirror, and the snapshot trigger's
/// write counter.
struct WriteState {
    wal: Wal,
    /// The base every rebuild starts from.
    store: SketchStore,
    /// The authoritative mirror (see [`Mirror`]).
    mirror: Mirror,
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

        let shards =
            build_fleet(store, algorithm, bands, &config, config.shards, &mirror, "serve::ingest")?;
        let health = (0..config.shards).map(|_| ShardHealth::default()).collect();
        let live_count = mirror.live.len();
        let wal_records = wal.as_ref().map_or(0, Wal::records);
        let wal_bytes = wal.as_ref().map_or(0, Wal::len_bytes);
        let snapshot_gen = recovery.as_ref().and_then(|r| r.snapshot_generation).unwrap_or(0);

        let gate = WriteGate::new(usize::try_from(config.probe_every).unwrap_or(usize::MAX));
        let writer = wal.map(|wal| {
            Mutex::new(WriteState { wal, store: store.clone(), mirror, writes_since_snapshot: 0 })
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

    /// Mark one shard quarantined: fan-out skips it except on half-open
    /// probes.
    fn quarantine(&self, shard_id: usize) {
        if let Some(entry) = self.lock_health().get_mut(shard_id) {
            entry.quarantined = true;
        }
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
            shard.close();
        }
    }
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
