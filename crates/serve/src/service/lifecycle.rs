//! The lifecycle: snapshots, the integrity scrub, re-sharding, and the
//! one fleet builder every rebuild goes through.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::PoisonError;

use super::write::Mirror;
use super::{
    build_sketcher, provenance_of, ReshardReport, Service, ServiceConfig, ServiceError,
    ShardHealth, WriteState,
};
use crate::fingerprint::BbitFingerprint;
use crate::scrub::ScrubReport;
use crate::shard::{AuditJob, DynSketcher, Job, Shard};
use crate::snapshot;
use wmh_core::{Algorithm, Sketch, SketchStore};
use wmh_fault::supervisor::{supervise, Attempt, CellOutcome};
use wmh_lsh::{Bands, LshIndex};

/// Sketches ingested between failpoint hits; a transient build fault
/// restarts the whole shard build under the retry policy, so the batch is
/// the unit of retried work.
const INGEST_BATCH: usize = 64;

/// Live ids sampled per scrub pass (evenly strided over the sorted live
/// set), so a scrub costs O(sample), not O(corpus).
const SCRUB_SAMPLE: usize = 64;

/// Clear-on-drop guard for the `resharding` flag, so every exit path of a
/// re-shard (including build failure) re-opens the write path.
struct ReshardGuard<'a>(&'a AtomicBool);

impl Drop for ReshardGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Service {
    /// Rebuild one shard from the mirror and swap it into the fleet,
    /// resetting its health entry. Shared by mutation self-heal and the
    /// scrubber's mismatch repair.
    pub(super) fn rebuild_shard_locked(
        &self,
        w: &WriteState,
        shard_id: usize,
    ) -> Result<(), ServiceError> {
        let count = self.lock_shards_read().len();
        let shard = spawn_shard(
            &w.store,
            self.algorithm,
            self.bands,
            &self.config,
            shard_id,
            count,
            &w.mirror,
            "serve::ingest",
        )?;
        // The old worker exits once its (now unreferenced) inbox drains.
        self.lock_shards_write()[shard_id] = shard;
        if let Some(entry) = self.lock_health().get_mut(shard_id) {
            *entry = ShardHealth::default();
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

    pub(super) fn snapshot_locked(&self, w: &mut WriteState) -> Result<u64, ServiceError> {
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
                    if shards[shard_id].send(job).is_err() {
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
                self.quarantine(shard_id);
                // Self-heal through the same rebuild the mutation path
                // uses; failure leaves the shard quarantined (fan-out
                // skips it, probes keep trying).
                if let Err(e) = self.rebuild_shard_locked(&w, shard_id) {
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
        self.fingerprint(&w.mirror.codes(&w.store, id)?)
    }

    /// Rebuild the fleet at `to` shards, blocking until the swap. The
    /// writer lock is held throughout, so writes answer `read_only` for
    /// the duration while queries keep serving from the old fleet at full
    /// coverage. The new partition is built by the cold-open builder over
    /// the mirror, so it is byte-identical to a from-scratch partition at
    /// `to` shards.
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
        let w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let from = self.lock_shards_read().len();
        let shards = build_fleet(
            &w.store,
            self.algorithm,
            self.bands,
            &self.config,
            to,
            &w.mirror,
            "serve::reshard",
        )?;
        {
            let mut fleet = self.lock_shards_write();
            let mut health = self.lock_health();
            *fleet = shards;
            *health = (0..to).map(|_| ShardHealth::default()).collect();
        }
        Ok(ReshardReport { from, to, points: w.mirror.live.len() })
    }
}

/// What one shard ingest produces: its banded index plus the re-ranking
/// fingerprints for every point it owns.
type ShardContents = (LshIndex<DynSketcher>, HashMap<u64, BbitFingerprint>);

/// Build every shard of a fleet at `count` shards from the mirror and
/// spawn the workers. Used by cold open and re-shard; self-heal rebuilds
/// one shard through the same [`spawn_shard`], so every path converges
/// byte-identical.
pub(super) fn build_fleet(
    store: &SketchStore,
    algorithm: Algorithm,
    bands: Bands,
    config: &ServiceConfig,
    count: usize,
    mirror: &Mirror,
    failpoint: &'static str,
) -> Result<Vec<Shard>, ServiceError> {
    (0..count)
        .map(|shard_id| {
            spawn_shard(store, algorithm, bands, config, shard_id, count, mirror, failpoint)
        })
        .collect()
}

/// Build shard `shard_id` of a `count`-shard fleet under the retry policy
/// (injected `failpoint` faults restart the whole build) and spawn its
/// worker.
#[allow(clippy::too_many_arguments)]
fn spawn_shard(
    store: &SketchStore,
    algorithm: Algorithm,
    bands: Bands,
    config: &ServiceConfig,
    shard_id: usize,
    count: usize,
    mirror: &Mirror,
    failpoint: &'static str,
) -> Result<Shard, ServiceError> {
    let built = supervise(&config.retry, config.seed, shard_id as u64, |_| {
        build_shard(store, algorithm, bands, config, shard_id, count, mirror, failpoint)
    });
    let ingest = |attempts, error| ServiceError::Ingest { shard: shard_id, attempts, error };
    let (index, fingerprints) = match built {
        CellOutcome::Completed(Ok(contents)) => contents,
        CellOutcome::Completed(Err(error)) => return Err(ingest(1, error)),
        // Shard builds carry no deadline, but a typed failure is the
        // honest fallback if that ever changes.
        CellOutcome::TimedOut => return Err(ingest(1, "ingest deadline".into())),
        CellOutcome::Quarantined { attempts, error } => return Err(ingest(attempts, error)),
    };
    Shard::spawn(shard_id, index, fingerprints, config.queue_depth, config.retry, config.seed)
        .map_err(ServiceError::Spawn)
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
            let codes = match mirror.codes(store, id) {
                Ok(codes) => codes,
                Err(e) => return Attempt::Done(Err(e)),
            };
            let sketch =
                Sketch { algorithm: store.algorithm().to_owned(), seed: store.seed(), codes };
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
