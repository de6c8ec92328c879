//! Background integrity scrubbing for the durability lifecycle.
//!
//! Disks lie slowly: a snapshot or a sealed WAL segment that verified at
//! write time can rot in place, and the damage stays invisible until the
//! one moment it matters — recovery. The scrubber re-verifies the durable
//! files *before* they are needed and spot-checks that shard memory still
//! matches the authoritative mirror, so latent corruption is found (and
//! healed) while the service is healthy enough to re-establish
//! durability.
//!
//! The split of responsibilities:
//!
//! * `scan_files` (this module) is the read-only phase-A walk: verify
//!   every snapshot end-to-end and every WAL segment's frames, and
//!   classify what is damaged. It holds no locks and mutates nothing.
//! * [`crate::Service::scrub`] owns the healing: it runs `scan_files`
//!   under the writer lock, quarantines damaged files, takes a fresh
//!   snapshot, and audits/rebuilds mismatching shards. The split keeps
//!   the verification logic testable without a running fleet.
//! * [`Scrubber`]/[`spawn_scrubber`] wrap the whole pass in a
//!   low-priority background loop for the TCP front end.
//!
//! The injectable faults: `serve::scrub` fails a whole pass (exercising
//! the caller's error path), and `serve::scrub_audit` (tagged with the
//! shard id) injects a fingerprint mismatch, driving the
//! quarantine-and-rebuild healing path without having to corrupt a live
//! worker's memory from outside.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::Service;
use crate::snapshot;
use crate::wal::{self, WalError, WalProvenance};

/// What one scrub pass found and did. Damage is data, not an error: a
/// pass that finds corruption still returns `Ok(report)` with the healing
/// actions (and any healing *failures*) recorded here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Snapshot files verified end-to-end.
    pub snapshots_checked: usize,
    /// WAL segments whose frames were re-verified.
    pub segments_checked: usize,
    /// Damaged snapshots, as `path: reason` strings (quarantined to
    /// `*.bad` by the healing phase).
    pub corrupt_snapshots: Vec<String>,
    /// Generations of damaged *sealed* segments (the active tail's torn
    /// bytes are normal operation, not damage).
    pub corrupt_segments: Vec<u64>,
    /// Live ids spot-checked against shard memory.
    pub ids_spot_checked: usize,
    /// Shards that received an audit job.
    pub shards_audited: usize,
    /// Shards whose reported fingerprints disagreed with the mirror
    /// (quarantined and rebuilt by the healing phase).
    pub mismatched_shards: Vec<usize>,
    /// The fresh snapshot generation taken after file damage, if any.
    pub snapshot_taken: Option<u64>,
    /// Healing steps that themselves failed (the damage they targeted is
    /// still listed above).
    pub heal_errors: Vec<String>,
}

/// Phase-A findings: what the read-only file walk classified as damaged.
pub(crate) struct FileFindings {
    pub snapshots_checked: usize,
    pub segments_checked: usize,
    /// `(generation, path, reason)` per damaged snapshot.
    pub corrupt_snapshots: Vec<(u64, PathBuf, String)>,
    /// Generations of damaged sealed segments.
    pub corrupt_segments: Vec<u64>,
}

/// Walk `dir` read-only: verify every snapshot end-to-end and every WAL
/// segment's frames against `provenance`. Segments at `active_gen` are
/// exempt from the torn-bytes check (an in-progress tail is normal) and
/// never classified corrupt — the append path owns the active segment.
///
/// # Errors
/// [`WalError::Io`] when the directory itself cannot be walked. Per-file
/// damage is findings, not an error.
pub(crate) fn scan_files(
    dir: &Path,
    provenance: &WalProvenance,
    active_gen: u64,
) -> Result<FileFindings, WalError> {
    let mut findings = FileFindings {
        snapshots_checked: 0,
        segments_checked: 0,
        corrupt_snapshots: Vec::new(),
        corrupt_segments: Vec::new(),
    };
    for (gen, path) in snapshot::list(dir)? {
        findings.snapshots_checked += 1;
        if let Err(e) = snapshot::verify_file(&path, provenance) {
            findings.corrupt_snapshots.push((gen, path, e.to_string()));
        }
    }
    let info = wal::inspect(dir)?;
    for segment in &info.segments {
        findings.segments_checked += 1;
        if segment.generation >= active_gen {
            continue;
        }
        if segment.error.is_some() || segment.torn_bytes > 0 {
            findings.corrupt_segments.push(segment.generation);
        }
    }
    Ok(findings)
}

/// A running background scrubber; dropping it (or calling [`stop`])
/// stops the loop and joins the thread.
///
/// [`stop`]: Scrubber::stop
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scrubber {
    /// Signal the loop to stop and join it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawn a background loop that runs [`Service::scrub`] every `interval`.
/// Pass outcomes — reports and errors alike — are absorbed: the scrubber
/// is maintenance, and a failed pass must never take the service down
/// with it (the next pass retries from scratch). The loop sleeps in short
/// slices so `stop` is responsive even at long intervals. Passes run under
/// the calling thread's failpoint scenario.
///
/// # Errors
/// `std::io::Error` when the OS refuses the thread.
pub fn spawn_scrubber(service: Arc<Service>, interval: Duration) -> std::io::Result<Scrubber> {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let carry = wmh_fault::Carry::capture();
    let handle = std::thread::Builder::new().name("wmh-serve-scrub".into()).spawn(move || {
        const SLICE: Duration = Duration::from_millis(50);
        let mut slept = Duration::ZERO;
        carry.run(|| loop {
            if flag.load(Ordering::Acquire) {
                return;
            }
            if slept >= interval {
                slept = Duration::ZERO;
                let _ = service.scrub();
            }
            std::thread::sleep(SLICE.min(interval));
            slept += SLICE.min(interval);
        });
    })?;
    Ok(Scrubber { stop, handle: Some(handle) })
}
