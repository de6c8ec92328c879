//! The read path: admission, the sketch-once front end, deadline-bounded
//! fan-out to the shards, and the deterministic merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use super::Service;
use crate::deadline::Deadline;
use crate::fingerprint::BbitFingerprint;
use crate::protocol::{Outcome, QueryRequest, QueryResponse};
use crate::shard::{Job, QueryJob, Slice, SliceOutcome};
use wmh_core::{Sketch, Sketcher};
use wmh_sets::WeightedSet;

/// Decrement-on-drop guard so the in-flight gauge survives every return
/// path (including future early returns) without manual accounting.
pub(super) struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Service {
    /// Answer a similarity query. Total: every input maps to a typed
    /// [`QueryResponse`]; see [`Outcome`] for the verdict taxonomy.
    pub fn query(&self, request: &QueryRequest) -> QueryResponse {
        let request_id = self.requests.fetch_add(1, Ordering::Relaxed);
        let budget = request.deadline_us.unwrap_or(self.config.default_deadline_us);
        let deadline = Deadline::after(Duration::from_micros(budget));
        let shards_total = self.lock_shards_read().len();

        let _guard = match self.admit() {
            Ok(guard) => guard,
            Err(why) => {
                return QueryResponse {
                    retry_after_us: self.retry_after_us(request_id),
                    ..QueryResponse::empty(request.id, Outcome::Overloaded, shards_total, Some(why))
                }
            }
        };

        // Sketch once at the front; shards only ever probe and re-rank.
        let prepared = self
            .sketch_doc(&request.doc)
            .and_then(|sketch| Ok((self.fingerprint(&sketch.codes)?, sketch)));
        let (fp, sketch) = match prepared {
            Ok(pair) => pair,
            Err(e) => {
                return QueryResponse::empty(request.id, Outcome::BadRequest, shards_total, Some(e))
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

        // Fan out. Quarantined shards are skipped except on half-open
        // probe requests; full inboxes shed explicitly.
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
                if health[shard_id].quarantined && !probing {
                    continue;
                }
                let job = Job::Query(QueryJob {
                    sketch: Arc::clone(&sketch),
                    fp: Arc::clone(&fp),
                    k: request.k,
                    deadline,
                    reply: reply_tx.clone(),
                });
                match shard.try_send(job) {
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

    /// Admission: count the request in flight, then apply the global
    /// in-flight cap and the injectable `serve::admission` rejection for
    /// overload drills. `Err` carries the overload detail.
    pub(super) fn admit(&self) -> Result<InflightGuard<'_>, String> {
        let admitted = self.inflight.fetch_add(1, Ordering::AcqRel);
        let guard = InflightGuard(&self.inflight);
        if let Err(fault) = wmh_fault::point!("serve::admission") {
            return Err(fault.to_string());
        }
        if admitted >= self.config.max_inflight {
            return Err(format!(
                "{admitted} requests in flight at cap {}",
                self.config.max_inflight
            ));
        }
        Ok(guard)
    }

    /// The seeded backoff hint a retryable rejection carries.
    pub(super) fn retry_after_us(&self, request_id: u64) -> u64 {
        let backoff = self.config.retry.backoff(self.config.seed, request_id, 1);
        u64::try_from(backoff.as_micros()).unwrap_or(u64::MAX)
    }

    /// Sketch a document under the service's provenance.
    pub(super) fn sketch_doc(&self, doc: &[(u64, f64)]) -> Result<Sketch, String> {
        let set = WeightedSet::from_pairs(doc.iter().copied())
            .map_err(|e| format!("bad document: {e}"))?;
        self.sketcher.sketch(&set).map_err(|e| format!("unsketchable document: {e}"))
    }

    /// Pack codes into the re-ranking fingerprint.
    pub(super) fn fingerprint(&self, codes: &[u64]) -> Result<BbitFingerprint, String> {
        BbitFingerprint::pack(codes, self.config.fingerprint_bits).map_err(|e| e.to_string())
    }
}
