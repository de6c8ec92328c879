//! Shard workers: one thread per shard, each owning its slice of the
//! banded index plus the packed fingerprints of its points.
//!
//! The inbox is a *bounded* `sync_channel`. Queries use `try_send`, so a
//! shard that falls behind sheds load explicitly at enqueue time instead
//! of growing an invisible backlog. Mutations use a blocking `send`: by
//! the time a mutation is dispatched it is already durable in the WAL, so
//! dropping it would desynchronize memory from the log — the worker always
//! drains its inbox, so the wait is bounded by the queue depth.
//!
//! Every job travels with its submitter's `wmh_fault` scenario and runs
//! under it, so a fault schedule follows the request that armed it, not
//! the long-lived worker thread.
//!
//! A shard never answers out of band — every job it dequeues is answered
//! on the job's own reply channel with exactly one message, and a reply
//! nobody is waiting for anymore (deadline already served) is dropped by
//! the disconnected channel, not by shard-side bookkeeping.
//!
//! ## Applying mutations
//!
//! The worker owns its index mutably, so applies need no locking: WAL
//! order is per-shard apply order because the front end serializes writes
//! and the inbox is FIFO. A mutation is applied *regardless of its
//! request deadline* — the deadline bounds how long the client waits for
//! the ack, not whether a committed record takes effect; skipping an
//! expired apply would silently fork memory from the log. Injected
//! `serve::apply` faults are transient and retried in-worker under the
//! service's retry policy; exhaustion is reported to the front end, which
//! self-heals by rebuilding the shard from the durable state.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SendError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::deadline::Deadline;
use crate::fingerprint::BbitFingerprint;
use wmh_core::{Sketch, Sketcher};
use wmh_fault::supervisor::{supervise, Attempt, CellOutcome, RetryPolicy};
use wmh_fault::Carry;
use wmh_lsh::LshIndex;

/// The runtime-selected sketcher shards are built over.
pub(crate) type DynSketcher = Box<dyn Sketcher + Send + Sync>;

/// What one shard reports back for its slice of a query.
pub(crate) enum SliceOutcome {
    /// Scored candidates, already ranked and truncated to `k`.
    Hits(Vec<(u64, f64)>),
    /// The budget was spent before the shard reached the job. Not a shard
    /// fault: it must not feed quarantine accounting.
    Expired,
    /// A typed shard failure (real or injected) — quarantine accounting
    /// counts these.
    Failed(String),
}

/// One shard's reply to a query.
pub(crate) struct Slice {
    /// Which shard answered.
    pub shard: usize,
    /// Its verdict.
    pub outcome: SliceOutcome,
}

/// A query fan-out unit.
pub(crate) struct QueryJob {
    /// The query sketch (sketched once at the front).
    pub sketch: Arc<Sketch>,
    /// The query's packed fingerprint (packed once at the front).
    pub fp: Arc<BbitFingerprint>,
    /// Neighbours wanted.
    pub k: usize,
    /// The request's budget.
    pub deadline: Deadline,
    /// Where the slice goes.
    pub reply: Sender<Slice>,
}

/// A committed mutation, pre-sketched at the front so the worker only
/// touches its own index.
pub(crate) enum ApplyOp {
    /// Index a new point.
    Insert {
        /// The point's id.
        id: u64,
        /// Its sketch.
        sketch: Sketch,
        /// Its packed re-ranking fingerprint.
        fp: BbitFingerprint,
    },
    /// Forget a point.
    Delete {
        /// The point's id.
        id: u64,
    },
    /// Upsert a drifting point's refreshed sketch (insert if absent).
    Upsert {
        /// The point's id.
        id: u64,
        /// Its refreshed sketch.
        sketch: Sketch,
        /// Its refreshed fingerprint.
        fp: BbitFingerprint,
    },
}

/// A mutation apply unit.
pub(crate) struct ApplyJob {
    /// The committed mutation.
    pub op: ApplyOp,
    /// Where the ack goes.
    pub reply: Sender<ApplyAck>,
}

/// The worker's verdict on one apply. (No shard id: the ack channel is
/// per-request, so the sender already knows which shard it asked.)
pub(crate) struct ApplyAck {
    /// `Err` after the in-worker retry budget is exhausted (or the index
    /// rejected the op — a desync the front end repairs by rebuild).
    pub result: Result<(), String>,
}

/// A scrubber's spot-check unit: report the shard's fingerprints for a
/// sample of ids so the front end can compare them with the authoritative
/// mirror. Because the inbox is FIFO and mutations are dispatched before
/// the writer lock is released, an audit enqueued under that lock sees
/// every mutation the mirror has.
pub(crate) struct AuditJob {
    /// The ids to report on.
    pub ids: Vec<u64>,
    /// Where `(id, fingerprint-if-present)` pairs go.
    pub reply: Sender<Vec<(u64, Option<BbitFingerprint>)>>,
}

/// A unit of shard work.
pub(crate) enum Job {
    /// Probe + re-rank.
    Query(QueryJob),
    /// Apply a committed mutation.
    Apply(Box<ApplyJob>),
    /// Report fingerprints for a scrub spot-check.
    Audit(AuditJob),
}

/// A running shard: its bounded inbox and its worker thread.
pub(crate) struct Shard {
    /// Bounded inbox of jobs, each with its submitter's scenario.
    tx: SyncSender<(Carry, Job)>,
    /// The worker, joined on service drop (detached when a re-shard swaps
    /// the fleet — the worker exits on its own once the inbox drains).
    handle: JoinHandle<()>,
}

impl Shard {
    /// Spawn a shard worker over its slice of the index.
    pub fn spawn(
        id: usize,
        index: LshIndex<DynSketcher>,
        fingerprints: HashMap<u64, BbitFingerprint>,
        queue_depth: usize,
        retry: RetryPolicy,
        seed: u64,
    ) -> Result<Self, String> {
        let (tx, rx) = sync_channel::<(Carry, Job)>(queue_depth);
        let handle = std::thread::Builder::new()
            .name(format!("wmh-serve-shard-{id}"))
            .spawn(move || {
                let mut index = index;
                let mut fingerprints = fingerprints;
                let tag = id.to_string();
                while let Ok((carry, job)) = rx.recv() {
                    carry.run(|| match job {
                        Job::Query(job) => {
                            let outcome = run_query(&tag, &index, &fingerprints, &job);
                            // A receiver that stopped listening (deadline
                            // served, client gone) is not an error the
                            // shard can act on.
                            let _ = job.reply.send(Slice { shard: id, outcome });
                        }
                        Job::Apply(job) => {
                            let result = run_apply(
                                &retry,
                                seed,
                                &tag,
                                &mut index,
                                &mut fingerprints,
                                &job.op,
                            );
                            let _ = job.reply.send(ApplyAck { result });
                        }
                        Job::Audit(job) => {
                            let report = job
                                .ids
                                .iter()
                                .map(|&id| (id, fingerprints.get(&id).cloned()))
                                .collect();
                            let _ = job.reply.send(report);
                        }
                    });
                }
            })
            .map_err(|e| format!("spawning shard {id} worker: {e}"))?;
        Ok(Self { tx, handle })
    }

    /// Enqueue `job` without blocking; a full inbox is an explicit shed.
    pub fn try_send(&self, job: Job) -> Result<(), TrySendError<(Carry, Job)>> {
        self.tx.try_send((Carry::capture(), job))
    }

    /// Enqueue `job`, waiting for inbox room.
    pub fn send(&self, job: Job) -> Result<(), SendError<(Carry, Job)>> {
        self.tx.send((Carry::capture(), job))
    }

    /// Close the inbox, ending the worker's loop once it drains, and join
    /// the worker.
    pub fn close(self) {
        drop(self.tx);
        let _ = self.handle.join();
    }
}

/// Probe the banded index, re-rank candidates against packed fingerprints.
fn run_query(
    tag: &str,
    index: &LshIndex<DynSketcher>,
    fingerprints: &HashMap<u64, BbitFingerprint>,
    job: &QueryJob,
) -> SliceOutcome {
    if job.deadline.expired() {
        return SliceOutcome::Expired;
    }
    if let Err(fault) = wmh_fault::point!("serve::shard_query", tag) {
        return SliceOutcome::Failed(fault.to_string());
    }
    let ids = match index.candidates_for_sketch(&job.sketch) {
        Ok(ids) => ids,
        Err(e) => return SliceOutcome::Failed(e.to_string()),
    };
    let mut hits = Vec::with_capacity(ids.len());
    for id in ids {
        let Some(fp) = fingerprints.get(&id) else {
            return SliceOutcome::Failed(format!("no fingerprint for candidate {id}"));
        };
        match job.fp.estimate(fp) {
            Ok(est) => hits.push((id, est)),
            Err(e) => return SliceOutcome::Failed(e.to_string()),
        }
    }
    // Deterministic slice order: estimate descending, id ascending — the
    // merge keeps the same rule, so responses are schedule-independent.
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(job.k);
    SliceOutcome::Hits(hits)
}

/// Apply one committed mutation, retrying injected `serve::apply` faults
/// under the retry policy. The index call itself fires at most once per
/// attempt and is atomic (it either takes effect or returns typed).
fn run_apply(
    retry: &RetryPolicy,
    seed: u64,
    tag: &str,
    index: &mut LshIndex<DynSketcher>,
    fingerprints: &mut HashMap<u64, BbitFingerprint>,
    op: &ApplyOp,
) -> Result<(), String> {
    let cell = op_id(op);
    let outcome = supervise(retry, seed, cell, |_| {
        if let Err(fault) = wmh_fault::point!("serve::apply", tag) {
            return Attempt::Transient(fault.to_string());
        }
        Attempt::Done(apply_once(index, fingerprints, op))
    });
    match outcome {
        CellOutcome::Completed(result) => result,
        CellOutcome::TimedOut => Err("apply deadline".into()),
        CellOutcome::Quarantined { attempts, error } => {
            Err(format!("apply failed after {attempts} attempts: {error}"))
        }
    }
}

fn op_id(op: &ApplyOp) -> u64 {
    match *op {
        ApplyOp::Insert { id, .. } | ApplyOp::Delete { id } | ApplyOp::Upsert { id, .. } => id,
    }
}

fn apply_once(
    index: &mut LshIndex<DynSketcher>,
    fingerprints: &mut HashMap<u64, BbitFingerprint>,
    op: &ApplyOp,
) -> Result<(), String> {
    match op {
        ApplyOp::Insert { id, sketch, fp } => {
            index.insert_sketch(*id, sketch.clone()).map_err(|e| e.to_string())?;
            fingerprints.insert(*id, fp.clone());
        }
        ApplyOp::Delete { id } => {
            index.remove_sketch(*id).map_err(|e| e.to_string())?;
            fingerprints.remove(id);
        }
        ApplyOp::Upsert { id, sketch, fp } => {
            if index.contains_id(*id) {
                index.update_sketch(*id, sketch.clone()).map_err(|e| e.to_string())?;
            } else {
                index.insert_sketch(*id, sketch.clone()).map_err(|e| e.to_string())?;
            }
            fingerprints.insert(*id, fp.clone());
        }
    }
    Ok(())
}
