//! The write path: the authoritative [`Mirror`] with its one mutation
//! transition, [`Service::mutate`], and the apply self-heal.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::PoisonError;
use std::time::Duration;

use super::{Service, WriteState};
use crate::deadline::Deadline;
use crate::gate::WriteAdmission;
use crate::protocol::{MutationKind, MutationRequest, MutationResponse, Outcome};
use crate::shard::{ApplyJob, ApplyOp, Job};
use crate::snapshot::SnapshotState;
use crate::wal::{Mutation, WalError};
use wmh_core::extensions::HistoSketch;
use wmh_core::{Sketch, SketchStore, Sketcher};
use wmh_fault::supervisor::{supervise, Attempt, CellOutcome};

/// The authoritative in-memory mirror of the durable state: everything a
/// rebuild needs beyond the cold store, and exactly what a snapshot
/// freezes. Replaying the WAL folds into the same struct the live write
/// path updates, so "restored from snapshot + tail" and "applied live"
/// are the same data by construction.
pub(super) struct Mirror {
    /// Ids currently indexed (store ∪ inserts ∖ deletes).
    pub(super) live: HashSet<u64>,
    /// Current codes for every id whose indexed sketch differs from the
    /// cold store: inserted after the store was built, or drifted by
    /// stream updates.
    pub(super) overlays: HashMap<u64, Vec<u64>>,
    /// Per-id HistoSketch states for streaming documents.
    pub(super) streams: HashMap<u64, HistoSketch>,
}

impl Mirror {
    /// The mirror of a store with no mutations: every store id live, no
    /// overlays, no streams.
    pub(super) fn cold(store: &SketchStore) -> Self {
        Self {
            live: store.ids().iter().copied().collect(),
            overlays: HashMap::new(),
            streams: HashMap::new(),
        }
    }

    /// Restore from a verified snapshot.
    pub(super) fn from_snapshot(state: &SnapshotState) -> Result<Self, String> {
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

    /// The one mutation transition: validate `m` against the mirror and
    /// compute its effect — the id's resulting overlay codes and stream
    /// state — without changing anything. Streams run the §7 HistoSketch
    /// gradual forgetting (decay → add → histogram → sketch) on a copy of
    /// the id's state. Every `Err` is a `bad_request` on the live path,
    /// which runs this before the WAL append, so a rejected write never
    /// commits.
    fn transition(
        &self,
        seed: u64,
        sketcher: &(dyn Sketcher + Send + Sync),
        m: &Mutation,
    ) -> Result<Transition, String> {
        match m {
            Mutation::Insert { id, codes } => {
                if self.live.contains(id) {
                    return Err(format!("id {id} is already indexed (delete it first, or stream)"));
                }
                Ok(Transition { id: *id, codes: Some(codes.clone()), stream: None })
            }
            Mutation::Delete { id } => {
                if !self.live.contains(id) {
                    return Err(format!("id {id} is not indexed"));
                }
                Ok(Transition { id: *id, codes: None, stream: None })
            }
            Mutation::Stream { id, lambda, items } => {
                if !lambda.is_finite() || *lambda <= 0.0 || *lambda > 1.0 {
                    return Err(format!("decay factor lambda {lambda} outside (0, 1]"));
                }
                if let Some((k, mass)) =
                    items.iter().find(|(_, mass)| !mass.is_finite() || *mass <= 0.0)
                {
                    return Err(format!("stream item ({k}, {mass}) has non-positive mass"));
                }
                // A static (non-streaming) live id has no histogram to
                // decay; streaming onto it would silently replace its
                // content.
                let mut state = match self.streams.get(id) {
                    Some(state) => state.clone(),
                    None if self.live.contains(id) => {
                        return Err(format!(
                            "id {id} is indexed but not a streaming document; delete it first"
                        ))
                    }
                    None if items.is_empty() => {
                        return Err(format!(
                            "cannot create streaming id {id} from an empty item list"
                        ))
                    }
                    None => {
                        HistoSketch::new(seed, sketcher.num_hashes()).map_err(|e| e.to_string())?
                    }
                };
                state.decay(*lambda).map_err(|e| e.to_string())?;
                for &(k, mass) in items {
                    state.add(k, mass).map_err(|e| e.to_string())?;
                }
                let set = state.histogram().map_err(|e| format!("stream state: {e}"))?;
                let sketch =
                    sketcher.sketch(&set).map_err(|e| format!("unsketchable stream state: {e}"))?;
                Ok(Transition { id: *id, codes: Some(sketch.codes), stream: Some(state) })
            }
        }
    }

    /// Install a transition's effect. Total: validation already happened
    /// in [`Self::transition`].
    fn commit(&mut self, t: Transition) {
        match t.codes {
            Some(codes) => {
                self.live.insert(t.id);
                self.overlays.insert(t.id, codes);
            }
            None => {
                self.live.remove(&t.id);
                self.overlays.remove(&t.id);
            }
        }
        match t.stream {
            Some(state) => self.streams.insert(t.id, state),
            None => self.streams.remove(&t.id),
        };
    }

    /// Fold one logged mutation during replay: the live path's transition
    /// and commit, minus the WAL append in between.
    pub(super) fn fold(
        &mut self,
        seed: u64,
        sketcher: &(dyn Sketcher + Send + Sync),
        m: &Mutation,
    ) -> Result<(), String> {
        let t = self.transition(seed, sketcher, m)?;
        self.commit(t);
        Ok(())
    }

    /// The codes `id` is indexed under: its overlay if it drifted from the
    /// cold store, the store's codes otherwise.
    pub(super) fn codes(&self, store: &SketchStore, id: u64) -> Result<Vec<u64>, String> {
        match self.overlays.get(&id) {
            Some(codes) => Ok(codes.clone()),
            None => store.get(id).map(|sketch| sketch.codes).map_err(|e| e.to_string()),
        }
    }

    /// Freeze the mirror as snapshot generation `generation`. Everything
    /// is sorted ascending by id, so the same mirror always serializes to
    /// the same bytes.
    pub(super) fn to_snapshot_state(&self, generation: u64) -> SnapshotState {
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

/// One validated mutation's effect, computed by [`Mirror::transition`]
/// and installed by [`Mirror::commit`]: what the id becomes.
struct Transition {
    id: u64,
    /// The id's new indexed codes; `None` deletes it.
    codes: Option<Vec<u64>>,
    /// The id's new streaming state; `None` for inserts and deletes.
    stream: Option<HistoSketch>,
}

impl Service {
    /// Apply a live mutation. Total: every input maps to a typed
    /// [`MutationResponse`] — see the protocol docs for the write
    /// precedence and the meaning of `durable`/`applied`.
    pub fn mutate(&self, request: &MutationRequest) -> MutationResponse {
        let id = request.id;
        let request_id = self.requests.fetch_add(1, Ordering::Relaxed);
        let budget = request.deadline_us.unwrap_or(self.config.default_deadline_us);
        let deadline = Deadline::after(Duration::from_micros(budget));
        let indexed = self.indexed.load(Ordering::Acquire);
        let reject = |outcome: Outcome, error: String| {
            MutationResponse::rejected(id, outcome, indexed, Some(error))
        };
        let reject_retryable = |outcome: Outcome, error: String| MutationResponse {
            retry_after_us: self.retry_after_us(request_id),
            ..reject(outcome, error)
        };

        // Admission first: an overloaded service rejects writes before
        // touching the WAL, so `overloaded` always means "nothing
        // happened, retry verbatim".
        let _guard = match self.admit() {
            Ok(guard) => guard,
            Err(why) => return reject_retryable(Outcome::Overloaded, why),
        };
        let Some(writer) = &self.writer else {
            return reject(
                Outcome::ReadOnly,
                "service was opened read-only (no write-ahead log)".into(),
            );
        };
        if self.resharding.load(Ordering::Acquire) {
            return reject_retryable(
                Outcome::ReadOnly,
                "re-shard in progress; writes resume when it completes".into(),
            );
        }
        // The half-open write gate. `Reject` is the fast path of a
        // tripped gate; `Probe` proceeds into the real durable append —
        // its success is the evidence that re-opens the gate.
        let admission = self.gate.admit();
        if admission == WriteAdmission::Reject {
            return reject_retryable(
                Outcome::ReadOnly,
                "write gate tripped by a WAL failure; half-open probes re-admit writes once an \
                 append succeeds — retry later"
                    .into(),
            );
        }

        // Pre-sketch inserts outside the writer lock: the one expensive
        // step that needs no id bookkeeping.
        let record = match &request.kind {
            MutationKind::Insert { doc } => match self.sketch_doc(doc) {
                Ok(sketch) => Mutation::Insert { id, codes: sketch.codes },
                Err(e) => return reject(Outcome::BadRequest, e),
            },
            MutationKind::Delete => Mutation::Delete { id },
            MutationKind::Stream { lambda, items } => {
                Mutation::Stream { id, lambda: *lambda, items: items.clone() }
            }
        };

        // Serialize: transition, commit to the WAL, commit to the mirror,
        // dispatch to the owning shard — all under the writer lock, so WAL
        // order is exactly per-shard apply order.
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let prepared = w
            .mirror
            .transition(w.store.seed(), &*self.sketcher, &record)
            .and_then(|t| Ok((self.apply_op(&t)?, t)));
        let (op, transition) = match prepared {
            Ok(pair) => pair,
            Err(e) => return reject(Outcome::BadRequest, e),
        };
        if deadline.expired() {
            return reject(
                Outcome::DeadlineExceeded,
                format!("budget {budget}us spent before the WAL append"),
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
            CellOutcome::Completed(Err(e)) => return reject(Outcome::BadRequest, e),
            CellOutcome::TimedOut => Some("WAL append deadline".to_owned()),
            CellOutcome::Quarantined { attempts, error } => {
                Some(format!("WAL append failed after {attempts} attempts: {error}"))
            }
        };
        if let Some(detail) = append_failure {
            self.gate.trip();
            return reject(
                Outcome::ReadOnly,
                format!(
                    "{detail}; write gate tripped — half-open probes re-admit writes once an \
                     append succeeds"
                ),
            );
        }
        // A successful probe append IS the recovery evidence: the fault
        // has cleared, and this very mutation commits.
        if admission == WriteAdmission::Probe {
            self.gate.restore();
        }
        self.wal_records.store(w.wal.records(), Ordering::Release);
        self.wal_bytes.store(w.wal.len_bytes(), Ordering::Release);

        // Committed. Install the transition in the mirror, then apply it —
        // from here on the response always reports `durable: true`.
        w.mirror.commit(transition);
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
            let shard_id = (id % shards.len() as u64) as usize;
            let (ack_tx, ack_rx) = mpsc::channel();
            // Blocking send: the mutation is durable, so it must reach the
            // worker; the worker always drains, so the wait is bounded by
            // the queue depth.
            let sent = shards[shard_id].send(Job::Apply(Box::new(ApplyJob { op, reply: ack_tx })));
            (shard_id, sent, ack_rx)
        };
        let committed = |outcome: Outcome, applied: bool, error: Option<String>| MutationResponse {
            id,
            outcome,
            durable: true,
            applied,
            shard: Some(shard_id),
            indexed: live_count,
            retry_after_us: 0,
            error,
        };

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
                        return committed(
                            Outcome::DeadlineExceeded,
                            false,
                            Some("committed to the WAL; apply not confirmed in budget".into()),
                        );
                    }
                    Err(RecvTimeoutError::Disconnected) => Err("shard worker gone".to_owned()),
                },
            }
        };

        match ack {
            Ok(()) => committed(Outcome::Ok, true, None),
            Err(apply_error) => match self.self_heal(&w, shard_id, &apply_error) {
                Ok(detail) => committed(Outcome::Ok, true, Some(detail)),
                Err(detail) => committed(Outcome::ReadOnly, false, Some(detail)),
            },
        }
    }

    /// An apply failed after its in-worker retry budget: the shard's
    /// memory no longer matches the log. Rebuild it from the authoritative
    /// mirror — the same builder a cold open uses — and swap it into the
    /// fleet. If even the rebuild fails, quarantine the shard and trip the
    /// write gate: the log stays authoritative, and a half-open probe (or
    /// a restart) recovers. Returns the response detail: `Ok` when the
    /// shard was rebuilt, `Err` when it was quarantined.
    fn self_heal(
        &self,
        w: &WriteState,
        shard_id: usize,
        apply_error: &str,
    ) -> Result<String, String> {
        match self.rebuild_shard_locked(w, shard_id) {
            Ok(()) => Ok(format!(
                "apply failed ({apply_error}); shard {shard_id} rebuilt from the durable state"
            )),
            Err(rebuild_error) => {
                self.quarantine(shard_id);
                self.gate.trip();
                Err(format!(
                    "apply failed ({apply_error}); shard rebuild also failed ({rebuild_error}); \
                     shard quarantined, write gate tripped — the WAL stays authoritative and \
                     probes or a restart recover"
                ))
            }
        }
    }

    /// The shard apply op for a validated transition: the codes the mirror
    /// commits, as a sketch plus its packed fingerprint.
    fn apply_op(&self, t: &Transition) -> Result<ApplyOp, String> {
        let id = t.id;
        let Some(codes) = &t.codes else { return Ok(ApplyOp::Delete { id }) };
        let fp = self.fingerprint(codes)?;
        let sketch = Sketch {
            algorithm: self.sketcher.name().to_owned(),
            seed: self.sketcher.seed(),
            codes: codes.clone(),
        };
        // A stream step may create its id or refresh it, so it upserts.
        Ok(match t.stream {
            Some(_) => ApplyOp::Upsert { id, sketch, fp },
            None => ApplyOp::Insert { id, sketch, fp },
        })
    }
}
