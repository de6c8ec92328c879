//! Cell-level parallel execution of the Figure 8 protocol.
//!
//! [`ParallelSweep`] decomposes an MSE sweep into independent
//! `(dataset, algorithm, repeat)` **cells** and schedules them on a
//! [`wmh_par::ThreadPool`] work-stealing pool. Three properties carry over
//! from the sequential engine unchanged:
//!
//! * **Determinism** — every random quantity in a cell derives from
//!   `scale.seed` and the cell's own coordinates, never from the schedule.
//!   `--threads 1` and `--threads N` therefore produce byte-identical
//!   result JSON (the determinism integration test pins this down).
//! * **Checkpoint semantics** — all finished cells funnel through a single
//!   *committer* thread that owns the [`Checkpoint`] writer, so the
//!   fsync-per-append ordering and the resume rules of the sequential
//!   engine are preserved; workers never touch the file. A rejection-budget
//!   timeout in any repeat marks the whole `(dataset, algorithm)` group
//!   timed out, exactly as the sequential early-exit did (the budget is
//!   seed-deterministic, so *which* groups time out is schedule-independent).
//! * **Fault tolerance** — a resumed run loads completed repeats before
//!   scheduling and only executes the missing cells.
//!
//! Cells and the committer run under the caller's `wmh_fault` scenario
//! (pool tasks carry it; the committer is started with a
//! [`wmh_fault::Carry`]), so a scenario armed around a sweep reaches every
//! failpoint the sweep hits.
//!
//! Wall-clock deadlines remain per-`(dataset, algorithm)` group and start
//! on the group's first scheduled cell; like the sequential engine, runs
//! that hit a wall-clock deadline are not reproducible (time is not a
//! seed), which is why the determinism guarantee is stated for rejection
//! budgets only.

use crate::checkpoint::{Checkpoint, Entry};
use crate::runner::{
    algorithm_names, estimate_prefix, min_deadline, sketch_docs, Measurement, MseCell, RunOptions,
    RunnerError, Scale,
};
use crate::supervisor::{supervise, Attempt, CellOutcome, RetryPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;
use wmh_core::others::UpperBounds;
use wmh_core::{Algorithm, SketchError};
use wmh_data::pairs::sample_pairs;
use wmh_data::SynConfig;
use wmh_par::ThreadPool;
use wmh_sets::{generalized_jaccard, WeightedSet};

/// A thread pool sized for an experiment sweep.
///
/// Thin wrapper around [`ThreadPool`] that adds the Figure 8 cell
/// decomposition; reusable across sweeps (datasets prepare on the same
/// pool the cells run on).
#[derive(Debug)]
pub struct ParallelSweep {
    pool: ThreadPool,
}

/// Everything a cell needs about its dataset, computed once per dataset.
struct DatasetCtx {
    name: String,
    bounds: UpperBounds,
    /// The documents that appear in at least one sampled pair.
    used_docs: Vec<WeightedSet>,
    /// Sampled pairs as indices into `used_docs`.
    pair_slots: Vec<(usize, usize)>,
    /// Exact generalized Jaccard per sampled pair.
    truths: Vec<f64>,
}

/// What one finished cell reports to the committer.
enum Payload {
    /// MSE per `D` for this repeat.
    Rep(Vec<f64>),
    /// The cell hit its rejection or wall-clock budget.
    Timeout,
    /// Another repeat already timed the group out; nothing was computed.
    Skipped,
    /// The supervisor spent the retry budget on transient failures; the
    /// group is quarantined (rendered as a `transient-io` dash).
    Quarantine {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last transient failure, verbatim.
        error: String,
    },
    /// A hard failure (bad algorithm configuration, sketching error).
    Fail(RunnerError),
}

struct CellDone {
    group: usize,
    rep: usize,
    payload: Payload,
}

/// Committer-side accumulation for one `(dataset, algorithm)` group.
struct GroupState {
    reps: Vec<Option<Vec<f64>>>,
    timed_out: bool,
    /// A typed algorithm failure: the whole group renders as dash cells
    /// carrying the error kind (algorithm errors are rep-independent —
    /// they depend on the documents and configuration, not the rep seed).
    failed: Option<wmh_core::ErrorKind>,
    /// A supervisor quarantine (persistent transient failures): the group
    /// renders as dash cells of kind `transient-io`.
    quarantined: bool,
}

impl ParallelSweep {
    /// A sweep over `threads` workers; `0` means auto-detect
    /// ([`wmh_par::available_parallelism`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { wmh_par::available_parallelism() } else { threads };
        Self { pool: ThreadPool::new(threads) }
    }

    /// Worker count (including the caller, which helps while waiting).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Run the Figure 8 protocol cell-parallel. Semantics (results,
    /// checkpoint resume, budgets) match the sequential engine; see the
    /// module docs for the determinism argument.
    ///
    /// # Errors
    /// [`RunnerError`] on invalid scales, dataset errors, or unusable
    /// checkpoint files. Algorithm failures do **not** abort the sweep:
    /// they become [`Measurement::Failed`] dash cells recording the error
    /// kind. When hard errors occur concurrently, the error of the first
    /// cell in `(dataset, algorithm, repeat)` order is reported, so the
    /// error, too, is schedule-independent.
    pub fn run_mse(
        &self,
        scale: &Scale,
        algorithms: &[Algorithm],
        options: &RunOptions,
    ) -> Result<Vec<MseCell>, RunnerError> {
        let d_max = *scale.d_values.iter().max().ok_or(RunnerError::EmptyDGrid)?;
        let ckpt = match &options.checkpoint {
            Some(path) => Some(Checkpoint::open(path, "mse", scale, &algorithm_names(algorithms))?),
            None => None,
        };

        let ctxs = self.prepare_datasets(scale)?;
        let n_groups = ctxs.len() * algorithms.len();
        let group = |ds: usize, al: usize| ds * algorithms.len() + al;

        // Resume: load finished repeats and timed-out groups before
        // scheduling anything.
        let mut groups: Vec<GroupState> = (0..n_groups)
            .map(|_| GroupState {
                reps: vec![None; scale.repeats],
                timed_out: false,
                failed: None,
                quarantined: false,
            })
            .collect();
        if let Some(c) = &ckpt {
            for (ds, ctx) in ctxs.iter().enumerate() {
                for (al, algorithm) in algorithms.iter().enumerate() {
                    let state = &mut groups[group(ds, al)];
                    state.timed_out = c.mse_timed_out(&ctx.name, algorithm.name());
                    state.failed = c.mse_failed(&ctx.name, algorithm.name());
                    state.quarantined = c.mse_quarantined(&ctx.name, algorithm.name()).is_some();
                    if state.timed_out || state.failed.is_some() || state.quarantined {
                        continue;
                    }
                    for (rep, slot) in state.reps.iter_mut().enumerate() {
                        if let Some(per_d) = c.mse_rep(&ctx.name, algorithm.name(), rep) {
                            if per_d.len() == scale.d_values.len() {
                                *slot = Some(per_d.to_vec());
                            }
                        }
                    }
                }
            }
        }

        // The cells still to run, in deterministic (dataset, algorithm,
        // repeat) order.
        let cells: Vec<(usize, usize, usize)> = (0..ctxs.len())
            .flat_map(|ds| {
                (0..algorithms.len())
                    .flat_map(move |al| (0..scale.repeats).map(move |rep| (ds, al, rep)))
            })
            .filter(|&(ds, al, rep)| {
                let state = &groups[group(ds, al)];
                !state.timed_out
                    && state.failed.is_none()
                    && !state.quarantined
                    && state.reps[rep].is_none()
            })
            .collect();

        // Per-group shared cell state: the wall-clock deadline (started by
        // the group's first scheduled cell) and the fast-path timeout flag
        // that lets sibling cells skip work once the group's fate is known.
        let deadlines: Vec<OnceLock<Option<Instant>>> =
            (0..n_groups).map(|_| OnceLock::new()).collect();
        let timed_out_flags: Vec<AtomicBool> =
            (0..n_groups).map(|_| AtomicBool::new(false)).collect();

        let group_names: Vec<(String, String)> = ctxs
            .iter()
            .flat_map(|ctx| algorithms.iter().map(|a| (ctx.name.clone(), a.name().to_owned())))
            .collect();
        let (tx, rx) = mpsc::channel::<CellDone>();
        let retry = options.retry;
        let committer_out: Result<(Vec<GroupState>, Option<RunnerError>), _> =
            std::thread::scope(|outer| {
                let carry = wmh_fault::Carry::capture();
                let committer = outer.spawn(move || {
                    carry.run(|| commit_loop(rx, ckpt, groups, group_names, retry, scale.seed))
                });
                self.pool.scope(|s| {
                    for &(ds, al, rep) in &cells {
                        let tx = tx.clone();
                        let (ctx, algorithm) = (&ctxs[ds], algorithms[al]);
                        let g = group(ds, al);
                        let (deadline, flag) = (&deadlines[g], &timed_out_flags[g]);
                        let retry = &options.retry;
                        s.spawn(move || {
                            let payload = run_cell(
                                scale, algorithm, ctx, d_max, rep, retry, deadline, flag, g,
                            );
                            // The committer only disconnects after a
                            // checkpoint write fails; the cell result is
                            // then moot.
                            let _ = tx.send(CellDone { group: g, rep, payload });
                        });
                    }
                });
                drop(tx);
                committer.join()
            });
        let (groups, first_error) = match committer_out {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        if let Some(e) = first_error {
            return Err(e);
        }

        // Deterministic aggregation: schedule order never reaches this
        // point — only the (group, rep)-indexed table does.
        let mut out = Vec::with_capacity(n_groups * scale.d_values.len());
        for (ds, ctx) in ctxs.iter().enumerate() {
            for (al, algorithm) in algorithms.iter().enumerate() {
                let state = &groups[group(ds, al)];
                for (di, &d) in scale.d_values.iter().enumerate() {
                    let cell = if state.timed_out {
                        MseCell {
                            dataset: ctx.name.clone(),
                            algorithm: algorithm.name().to_owned(),
                            d,
                            mse: Measurement::TimedOut,
                            mse_std: 0.0,
                        }
                    } else if let Some(kind) = state.failed {
                        MseCell {
                            dataset: ctx.name.clone(),
                            algorithm: algorithm.name().to_owned(),
                            d,
                            mse: Measurement::Failed(kind),
                            mse_std: 0.0,
                        }
                    } else if state.quarantined {
                        MseCell {
                            dataset: ctx.name.clone(),
                            algorithm: algorithm.name().to_owned(),
                            d,
                            mse: Measurement::Failed(wmh_core::ErrorKind::TransientIo),
                            mse_std: 0.0,
                        }
                    } else {
                        let per_rep: Vec<f64> = state
                            .reps
                            .iter()
                            .map(|r| r.as_ref().expect("all repeats measured")[di])
                            .collect();
                        let (mean, var) = wmh_rng::stats::mean_and_var(&per_rep);
                        MseCell {
                            dataset: ctx.name.clone(),
                            algorithm: algorithm.name().to_owned(),
                            d,
                            mse: Measurement::Value(mean),
                            mse_std: var.sqrt(),
                        }
                    };
                    out.push(cell);
                }
            }
        }
        out.sort_by(|a, b| (&a.dataset, &a.algorithm, a.d).cmp(&(&b.dataset, &b.algorithm, b.d)));
        Ok(out)
    }

    /// Generate and preprocess every dataset, one pool task per dataset.
    fn prepare_datasets(&self, scale: &Scale) -> Result<Vec<DatasetCtx>, RunnerError> {
        let mut slots: Vec<Option<Result<DatasetCtx, RunnerError>>> =
            (0..scale.datasets.len()).map(|_| None).collect();
        self.pool.scope(|s| {
            for (slot, cfg) in slots.iter_mut().zip(&scale.datasets) {
                s.spawn(move || *slot = Some(prepare_dataset(scale, cfg)));
            }
        });
        slots.into_iter().map(|r| r.expect("every dataset task ran")).collect()
    }
}

fn prepare_dataset(scale: &Scale, cfg: &SynConfig) -> Result<DatasetCtx, RunnerError> {
    let dataset = cfg.generate(scale.seed).map_err(RunnerError::Data)?;
    let bounds = UpperBounds::from_sets(dataset.docs.iter())
        .map_err(|e| RunnerError::Data(e.to_string()))?;
    let pairs = sample_pairs(dataset.docs.len(), scale.pair_sample, scale.seed);
    let truths: Vec<f64> = pairs
        .iter()
        .map(|&(i, j)| generalized_jaccard(&dataset.docs[i], &dataset.docs[j]))
        .collect();
    // Only documents that appear in sampled pairs get sketched.
    let mut used: Vec<usize> = pairs.iter().flat_map(|&(i, j)| [i, j]).collect();
    used.sort_unstable();
    used.dedup();
    let slot_of: std::collections::HashMap<usize, usize> =
        used.iter().enumerate().map(|(s, &i)| (i, s)).collect();
    let used_docs: Vec<WeightedSet> = used.iter().map(|&i| dataset.docs[i].clone()).collect();
    let pair_slots = pairs.iter().map(|&(i, j)| (slot_of[&i], slot_of[&j])).collect();
    Ok(DatasetCtx { name: dataset.name, bounds, used_docs, pair_slots, truths })
}

/// Execute one `(dataset, algorithm, repeat)` cell under supervision:
/// transient faults (the `sweep::cell` failpoint) retry with seeded
/// backoff, deadlines are terminal, spent retry budgets quarantine. The
/// measurement itself is pure apart from the deadlines: the repeat seed,
/// the sketches, and the MSE vector depend only on `(scale.seed, rep)` and
/// the inputs.
#[allow(clippy::too_many_arguments)] // internal: the cell's full coordinate frame
fn run_cell(
    scale: &Scale,
    algorithm: Algorithm,
    ctx: &DatasetCtx,
    d_max: usize,
    rep: usize,
    retry: &RetryPolicy,
    deadline: &OnceLock<Option<Instant>>,
    group_timed_out: &AtomicBool,
    group: usize,
) -> Payload {
    if group_timed_out.load(Ordering::Relaxed) {
        return Payload::Skipped;
    }
    let group_deadline =
        *deadline.get_or_init(|| scale.budget.wall_clock.map(|w| Instant::now() + w));
    // The cell's own deadline starts now and spans *all* attempts: retries
    // must not extend the time a stuck cell can hold.
    let cell_deadline =
        min_deadline(group_deadline, scale.budget.cell_wall_clock.map(|w| Instant::now() + w));
    // Stable cell identity (salts the backoff jitter stream): group and
    // repeat coordinates, which no schedule can change.
    let salt = ((group as u64) << 32) | rep as u64;
    let outcome = supervise(retry, scale.seed, salt, |_n| {
        if group_timed_out.load(Ordering::Relaxed) {
            return Attempt::Done(Payload::Skipped);
        }
        if cell_deadline.is_some_and(|t| Instant::now() >= t) {
            return Attempt::TimedOut;
        }
        // Transient-fault hook for the chaos tests, tagged with the
        // algorithm so scenarios can target one group; inert without an
        // active scenario.
        if let Err(f) = wmh_fault::point!("sweep::cell", algorithm.name()) {
            return Attempt::Transient(f.to_string());
        }
        Attempt::Done(attempt_cell(scale, algorithm, ctx, d_max, rep, cell_deadline))
    });
    match outcome {
        CellOutcome::Completed(payload) => {
            if matches!(payload, Payload::Timeout) {
                group_timed_out.store(true, Ordering::Relaxed);
            }
            payload
        }
        CellOutcome::TimedOut => {
            group_timed_out.store(true, Ordering::Relaxed);
            Payload::Timeout
        }
        CellOutcome::Quarantined { attempts, error } => Payload::Quarantine { attempts, error },
    }
}

/// One attempt at the cell's measurement. Typed algorithm errors and
/// budget timeouts are *final* answers (deterministic, so retrying cannot
/// change them) — they come back as `Done`, not `Transient`.
fn attempt_cell(
    scale: &Scale,
    algorithm: Algorithm,
    ctx: &DatasetCtx,
    d_max: usize,
    rep: usize,
    deadline: Option<Instant>,
) -> Payload {
    let algo_err = |e: SketchError| {
        Payload::Fail(RunnerError::Algorithm { algorithm: algorithm.name().to_owned(), error: e })
    };
    let seed = scale.seed ^ (rep as u64).wrapping_mul(0xA5A5_A5A5);
    let sketcher = match algorithm.build(seed, d_max, &scale.config(Some(ctx.bounds.clone()))) {
        Ok(s) => s,
        Err(e) => return algo_err(e),
    };
    // One scratch per attempt: the kernels' temporary buffers are reused
    // across every chunk of this cell's documents.
    let mut scratch = wmh_core::SketchScratch::new();
    let sketches = match sketch_docs(sketcher.as_ref(), &ctx.used_docs, deadline, &mut scratch) {
        Ok(Some(s)) => s,
        Ok(None) => return Payload::Timeout,
        Err(e) => return algo_err(e),
    };
    let mut per_d = Vec::with_capacity(scale.d_values.len());
    for &d in &scale.d_values {
        let mut se = 0.0f64;
        for (p, &(i, j)) in ctx.pair_slots.iter().enumerate() {
            let err = estimate_prefix(&sketches[i], &sketches[j], d) - ctx.truths[p];
            se += err * err;
        }
        per_d.push(se / ctx.pair_slots.len() as f64);
    }
    Payload::Rep(per_d)
}

/// Append with the supervisor's bounded retry. [`Checkpoint::append`]
/// rewinds its file to the last complete record on failure, so retrying
/// is safe; a *persistent* append failure still aborts the sweep — losing
/// checkpoint durability silently would defeat the point of having one.
fn append_with_retry(
    ckpt: &mut Checkpoint,
    entry: &Entry,
    retry: &RetryPolicy,
    seed: u64,
    salt: u64,
) -> Result<(), RunnerError> {
    let outcome = supervise(retry, seed, salt, |_n| match ckpt.append(entry) {
        Ok(()) => Attempt::Done(()),
        Err(e) => Attempt::Transient(e.to_string()),
    });
    match outcome {
        CellOutcome::Completed(()) => Ok(()),
        // The closure never reports TimedOut, but map it conservatively.
        CellOutcome::TimedOut => Err(RunnerError::Checkpoint("append timed out".to_owned())),
        CellOutcome::Quarantined { error, .. } => Err(RunnerError::Checkpoint(error)),
    }
}

/// The single committer: owns the checkpoint writer, serializes every
/// append (fsync ordering unchanged from the sequential engine), retries
/// transient append failures with the supervisor's backoff, and
/// accumulates cell outcomes into the `(group, rep)` table.
fn commit_loop(
    rx: mpsc::Receiver<CellDone>,
    mut ckpt: Option<Checkpoint>,
    mut groups: Vec<GroupState>,
    group_names: Vec<(String, String)>,
    retry: RetryPolicy,
    seed: u64,
) -> (Vec<GroupState>, Option<RunnerError>) {
    // On concurrent failures, report the first cell in (group, rep) order
    // so the surfaced error does not depend on the schedule.
    let mut first_error: Option<((usize, usize), RunnerError)> = None;
    let mut record_error = |key: (usize, usize), e: RunnerError| {
        let earlier = match &first_error {
            Some((k, _)) => key < *k,
            None => true,
        };
        if earlier {
            first_error = Some((key, e));
        }
    };
    for done in rx {
        let state = &mut groups[done.group];
        let (dataset, algorithm) = &group_names[done.group];
        // Committer appends get their own salt stream, disjoint from the
        // worker cells' (high bit set).
        let salt = (1u64 << 63) | ((done.group as u64) << 32) | done.rep as u64;
        match done.payload {
            Payload::Rep(per_d) => {
                // Repeats that land after the group timed out are moot;
                // the sequential engine would not have run them at all.
                if !state.timed_out {
                    if let Some(c) = &mut ckpt {
                        let entry = Entry::MseRep {
                            dataset: dataset.clone(),
                            algorithm: algorithm.clone(),
                            rep: done.rep,
                            per_d: per_d.clone(),
                        };
                        if let Err(e) = append_with_retry(c, &entry, &retry, seed, salt) {
                            record_error((done.group, done.rep), e);
                        }
                    }
                    state.reps[done.rep] = Some(per_d);
                }
            }
            Payload::Timeout => {
                if !state.timed_out {
                    state.timed_out = true;
                    if let Some(c) = &mut ckpt {
                        let entry = Entry::MseTimeout {
                            dataset: dataset.clone(),
                            algorithm: algorithm.clone(),
                        };
                        if let Err(e) = append_with_retry(c, &entry, &retry, seed, salt) {
                            record_error((done.group, done.rep), e);
                        }
                    }
                }
            }
            // A skipping cell observed the group flag that some timing-out
            // sibling set; that sibling's own Timeout message (possibly
            // still in flight) marks the group.
            Payload::Skipped => {}
            // A quarantined cell marks the whole group: its siblings share
            // the environment that kept failing, and a partial group could
            // not be aggregated anyway.
            Payload::Quarantine { attempts, error } => {
                if !state.timed_out && state.failed.is_none() && !state.quarantined {
                    state.quarantined = true;
                    if let Some(c) = &mut ckpt {
                        let entry = Entry::MseQuarantined {
                            dataset: dataset.clone(),
                            algorithm: algorithm.clone(),
                            attempts,
                            error,
                        };
                        if let Err(e) = append_with_retry(c, &entry, &retry, seed, salt) {
                            record_error((done.group, done.rep), e);
                        }
                    }
                }
            }
            // An algorithm failure marks the group as a dash cell carrying
            // the error kind — the sweep itself keeps going. Anything else
            // (today only checkpoint I/O on other arms) still aborts.
            Payload::Fail(RunnerError::Algorithm { error, .. }) => {
                if state.failed.is_none() && !state.timed_out {
                    state.failed = Some(error.kind());
                    if let Some(c) = &mut ckpt {
                        let entry = Entry::MseFailed {
                            dataset: dataset.clone(),
                            algorithm: algorithm.clone(),
                            error: error.kind(),
                        };
                        if let Err(e) = append_with_retry(c, &entry, &retry, seed, salt) {
                            record_error((done.group, done.rep), e);
                        }
                    }
                }
            }
            Payload::Fail(e) => record_error((done.group, done.rep), e),
        }
    }
    (groups, first_error.map(|(_, e)| e))
}
