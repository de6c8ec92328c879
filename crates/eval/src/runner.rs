//! The measurement engine behind Figures 8 and 9.
//!
//! One [`Scale`] describes an experiment's size; [`run_mse`] and
//! [`run_runtime`] execute the paper's §6 protocol on it:
//!
//! * generate each `SynESS` dataset;
//! * sketch every document with every algorithm (one master seed per
//!   repeat — the "globally generated" random variables of §6.2);
//! * estimate the generalized Jaccard similarity of sampled pairs as the
//!   collision fraction, for every fingerprint length `D`;
//! * report the MSE against the exact Eq. 2 value (Figure 8) and the
//!   wall-clock sketching time (Figure 9).
//!
//! Fingerprints are computed once at `max(D)` per (algorithm, repeat) and
//! *prefix-truncated* for smaller `D` — valid because the code at position
//! `d` only depends on `d`, and it mirrors how a deployment would reuse one
//! long fingerprint. Runtime measurements never use the prefix trick: each
//! `D` is timed with a fresh sketching pass.
//!
//! # Budgets and fault tolerance
//!
//! Each `(dataset, algorithm)` cell runs under a [`Budget`]: a rejection
//! budget (the stand-in for the paper's 24-hour cutoff on \[Shrivastava,
//! 2016\]) and an optional wall-clock deadline. Exhausting either marks
//! the cell [`Measurement::TimedOut`] — the paper's "–" — and the run
//! continues with the remaining cells, so one pathological algorithm can
//! never hold a sweep hostage.
//!
//! Long runs survive crashes through [`RunOptions::checkpoint`]: every
//! completed `(dataset, algorithm, repeat)` unit is appended to a JSON-lines
//! checkpoint (see [`crate::checkpoint`]) and skipped on restart, so a
//! `kill -9` costs at most the in-flight unit. Because every random
//! quantity derives from the master seed, a resumed MSE run produces
//! *identical* results to an uninterrupted one.

use crate::checkpoint::{Checkpoint, Entry};
use crate::supervisor::{supervise, Attempt, CellOutcome, RetryPolicy};
use crate::sweep::ParallelSweep;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wmh_core::others::UpperBounds;
use wmh_core::{Algorithm, AlgorithmConfig, Sketch, SketchError, SketchScratch};
use wmh_data::{SynConfig, PAPER_DATASETS};
use wmh_json::{FromJson, Json, JsonError, ToJson};
use wmh_sets::WeightedSet;

/// Per-`(dataset, algorithm)` resource limits.
///
/// Serialized with `wall_clock` flattened to fractional seconds
/// (`wall_clock_secs`), `null` when unlimited.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Rejection budget per hash for \[Shrivastava, 2016\] — the stand-in
    /// for the paper's 24-hour cutoff.
    pub max_rejection_draws: u64,
    /// Wall-clock deadline for one `(dataset, algorithm)` cell; `None`
    /// disables the deadline. A cell that exceeds it is recorded as
    /// [`Measurement::TimedOut`], and the sweep moves on.
    pub wall_clock: Option<Duration>,
    /// Wall-clock deadline for a *single unit of work* — one
    /// `(dataset, algorithm, repeat)` MSE cell or one
    /// `(dataset, algorithm, D)` timing — measured from the unit's first
    /// attempt. Distinct from `wall_clock`: the group budget bounds the
    /// whole `(dataset, algorithm)` cell while this bounds each unit, so a
    /// single stuck unit cannot silently eat the group's entire budget.
    /// The effective deadline of a unit is the earlier of the two.
    pub cell_wall_clock: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Self { max_rejection_draws: 2_000_000, wall_clock: None, cell_wall_clock: None }
    }
}

impl ToJson for Budget {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("max_rejection_draws".to_owned(), self.max_rejection_draws.to_json()),
            ("wall_clock_secs".to_owned(), self.wall_clock.map(|d| d.as_secs_f64()).to_json()),
            (
                "cell_wall_clock_secs".to_owned(),
                self.cell_wall_clock.map(|d| d.as_secs_f64()).to_json(),
            ),
        ])
    }
}

fn duration_field(v: &Json, name: &'static str) -> Result<Option<Duration>, JsonError> {
    // `field_opt`: checkpoints written before the field existed stay
    // resumable (a missing field reads as "no deadline").
    let secs: Option<f64> = match v.field_opt(name) {
        Some(field) => FromJson::from_json(field)?,
        None => None,
    };
    secs.map(|s| Duration::try_from_secs_f64(s).map_err(|_| JsonError::OutOfRange(name)))
        .transpose()
}

impl FromJson for Budget {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            max_rejection_draws: FromJson::from_json(v.field("max_rejection_draws")?)?,
            wall_clock: duration_field(v, "wall_clock_secs")?,
            cell_wall_clock: duration_field(v, "cell_wall_clock_secs")?,
        })
    }
}

/// Experiment size knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Human-readable label recorded in results.
    pub label: String,
    /// Documents per dataset.
    pub docs: usize,
    /// Universe size.
    pub features: u64,
    /// Number of document pairs sampled for the MSE (all pairs if larger).
    pub pair_sample: usize,
    /// Independent repetitions (the paper uses 10).
    pub repeats: usize,
    /// Fingerprint lengths (the paper: 10, 20, 50, 100, 120, 150, 200).
    pub d_values: Vec<usize>,
    /// Quantization constant for algorithms 2–4 (the paper: 1 000).
    pub quantization_constant: f64,
    /// Resource limits per `(dataset, algorithm)` cell.
    pub budget: Budget,
    /// Documents used in the runtime measurement (Figure 9 times encoding
    /// of the whole dataset; the quick scale times a subset).
    pub runtime_docs: usize,
    /// Weight pre-scaling for CCWS. The review (§4.2.4) notes CCWS's
    /// quantization needs `y_k > 0`, "which can be appropriately solved by
    /// scaling the weight"; without it, sub-unit weights hit the degenerate
    /// `t = 0` branch where selection becomes weight-independent. The
    /// default (10) puts the paper's ~0.3-mean weights safely above the
    /// Beta(2,1) grid step, reproducing the paper's CCWS ranking.
    pub ccws_weight_scale: f64,
    /// Master seed.
    pub seed: u64,
    /// The datasets (defaults to the six Table 4 configurations, re-sized
    /// to `docs` × `features`).
    pub datasets: Vec<SynConfig>,
}

wmh_json::json_object!(Scale {
    label,
    docs,
    features,
    pair_sample,
    repeats,
    d_values,
    quantization_constant,
    budget,
    runtime_docs,
    ccws_weight_scale,
    seed,
    datasets,
});

impl Scale {
    /// Laptop-scale default: the same six datasets and `D` grid, re-sized
    /// so the full 13-algorithm sweep finishes in minutes.
    #[must_use]
    pub fn quick() -> Self {
        Self::sized("quick", 120, 6_000, 400, 3, 300.0, 40)
    }

    /// Paper-scale: 1 000 × 100 000, every pair, `C = 1000`, 10 repeats.
    #[must_use]
    pub fn full() -> Self {
        Self::sized("full", 1_000, 100_000, usize::MAX, 10, 1_000.0, 1_000)
    }

    /// Intermediate scale: the paper's quantization constant (`C = 1000`)
    /// and a third of its documents — minutes-to-an-hour instead of the
    /// full run's day-scale quantization sweeps.
    #[must_use]
    pub fn medium() -> Self {
        Self::sized("medium", 300, 20_000, 1_500, 3, 1_000.0, 100)
    }

    /// Test-scale: a few seconds even in debug builds.
    #[must_use]
    pub fn tiny() -> Self {
        let mut s = Self::sized("tiny", 24, 600, 60, 2, 50.0, 8);
        s.d_values = vec![10, 50];
        s.datasets.truncate(2);
        s
    }

    fn sized(
        label: &str,
        docs: usize,
        features: u64,
        pair_sample: usize,
        repeats: usize,
        quantization_constant: f64,
        runtime_docs: usize,
    ) -> Self {
        Self {
            label: label.to_owned(),
            docs,
            features,
            pair_sample,
            repeats,
            d_values: vec![10, 20, 50, 100, 120, 150, 200],
            quantization_constant,
            budget: Budget::default(),
            ccws_weight_scale: 10.0,
            runtime_docs,
            seed: 0xE5EED,
            datasets: PAPER_DATASETS
                .iter()
                .map(|c| c.scaled_down_preserving_overlap(docs, features))
                .collect(),
        }
    }

    pub(crate) fn config(&self, bounds: Option<UpperBounds>) -> AlgorithmConfig {
        AlgorithmConfig {
            quantization_constant: self.quantization_constant,
            upper_bounds: bounds,
            max_rejection_draws: self.budget.max_rejection_draws,
            ccws_weight_scale: self.ccws_weight_scale,
            ..AlgorithmConfig::default()
        }
    }
}

/// Errors surfaced by the runners (every failure mode a caller can
/// trigger through a [`Scale`] or checkpoint file — internal invariants
/// stay debug assertions).
#[derive(Debug, Clone, PartialEq)]
pub enum RunnerError {
    /// `scale.d_values` was empty.
    EmptyDGrid,
    /// Dataset generation or preprocessing failed.
    Data(String),
    /// An algorithm could not be built or failed to sketch.
    Algorithm {
        /// Catalog name of the failing algorithm.
        algorithm: String,
        /// The underlying sketching error.
        error: SketchError,
    },
    /// The checkpoint file could not be read or written.
    Checkpoint(String),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyDGrid => write!(f, "scale has an empty D grid"),
            Self::Data(msg) => write!(f, "dataset error: {msg}"),
            Self::Algorithm { algorithm, error } => {
                write!(f, "algorithm {algorithm} failed: {error}")
            }
            Self::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Execution options shared by [`run_mse_with`] and [`run_runtime_with`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Path of a JSON-lines checkpoint file. When set, completed units are
    /// appended there and skipped on restart; parent directories are
    /// created as needed. `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Worker threads for the MSE sweep; `0` (the default) auto-detects
    /// the machine's parallelism. Results are byte-identical for every
    /// value — the cell decomposition only changes *when* work runs, never
    /// what it computes. Runtime (Figure 9) sweeps ignore this and always
    /// time on a single thread so measurements are not skewed by
    /// contention.
    pub threads: usize,
    /// Retry policy for transiently failing units (see
    /// [`crate::supervisor`]). Timeouts and typed algorithm errors are
    /// never retried; after the policy's budget is spent the unit is
    /// quarantined and rendered as a dash cell of kind `transient-io`.
    pub retry: RetryPolicy,
}

impl RunOptions {
    /// Options with checkpointing at `path`.
    #[must_use]
    pub fn checkpointed(path: impl Into<PathBuf>) -> Self {
        Self { checkpoint: Some(path.into()), ..Self::default() }
    }

    /// Set the MSE worker-thread count (`0` = auto-detect).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the transient-failure retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The worker count an MSE sweep will actually use.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            wmh_par::available_parallelism()
        } else {
            self.threads
        }
    }
}

/// A single measurement value that may have hit the cutoff or failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// Measured value.
    Value(f64),
    /// The algorithm exceeded its budget (the paper's "forced to stop").
    TimedOut,
    /// The algorithm returned a typed error for this cell; the report
    /// renders it as the paper's dash, the checkpoint records the kind.
    Failed(wmh_core::ErrorKind),
}

impl Measurement {
    /// The value, if measured.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        match self {
            Self::Value(v) => Some(*v),
            Self::TimedOut | Self::Failed(_) => None,
        }
    }
}

// Externally-tagged (serde-style) representation: `{"Value": x}`,
// `"TimedOut"`, or `{"Failed": "empty-set"}` — extending the shape earlier
// result files used.
impl ToJson for Measurement {
    fn to_json(&self) -> Json {
        match self {
            Self::Value(v) => Json::Obj(vec![("Value".to_owned(), v.to_json())]),
            Self::TimedOut => Json::Str("TimedOut".to_owned()),
            Self::Failed(kind) => {
                Json::Obj(vec![("Failed".to_owned(), Json::Str(kind.as_str().to_owned()))])
            }
        }
    }
}

impl FromJson for Measurement {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "TimedOut" => Ok(Self::TimedOut),
            Json::Obj(fields) if fields.iter().any(|(k, _)| k == "Failed") => {
                let name = String::from_json(v.field("Failed")?)?;
                let kind = wmh_core::ErrorKind::parse(&name)
                    .ok_or_else(|| JsonError::Invalid(format!("unknown error kind {name:?}")))?;
                Ok(Self::Failed(kind))
            }
            Json::Obj(_) => Ok(Self::Value(f64::from_json(v.field("Value")?)?)),
            other => Err(JsonError::WrongType { expected: "Measurement", got: other.type_name() }),
        }
    }
}

/// One Figure 8 cell: MSE (mean ± std over repeats) for
/// `(dataset, algorithm, D)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MseCell {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Fingerprint length.
    pub d: usize,
    /// Mean MSE over repeats (or timed out).
    pub mse: Measurement,
    /// Std of the MSE over repeats (0 when timed out).
    pub mse_std: f64,
}

wmh_json::json_object!(MseCell { dataset, algorithm, d, mse, mse_std });

/// One Figure 9 cell: sketching wall-clock for `(dataset, algorithm, D)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCell {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Fingerprint length.
    pub d: usize,
    /// Seconds to encode `runtime_docs` documents (or timed out).
    pub seconds: Measurement,
}

wmh_json::json_object!(RuntimeCell { dataset, algorithm, d, seconds });

/// Estimate similarity from fingerprint *prefixes* of length `d`.
pub(crate) fn estimate_prefix(a: &Sketch, b: &Sketch, d: usize) -> f64 {
    let hits = a.codes[..d].iter().zip(&b.codes[..d]).filter(|(x, y)| x == y).count();
    hits as f64 / d as f64
}

/// Documents sketched between two checks of the wall-clock deadline.
const SKETCH_CHUNK: usize = 16;

/// Sketch every listed document; `Ok(None)` marks a budget timeout —
/// either the rejection budget (reported by the sketcher) or the
/// wall-clock `deadline` (checked between chunks). The caller-provided
/// [`SketchScratch`] is threaded through every document, so the kernels'
/// temporary buffers are reused across the whole document list (and, when
/// the caller keeps the scratch, across cells).
pub(crate) fn sketch_docs(
    sketcher: &dyn wmh_core::Sketcher,
    docs: &[WeightedSet],
    deadline: Option<Instant>,
    scratch: &mut SketchScratch,
) -> Result<Option<Vec<Sketch>>, SketchError> {
    let mut out = Vec::with_capacity(docs.len());
    for chunk in docs.chunks(SKETCH_CHUNK) {
        if deadline.is_some_and(|t| Instant::now() >= t) {
            return Ok(None);
        }
        for doc in chunk {
            match sketcher.sketch_with(doc, scratch) {
                Ok(s) => out.push(s),
                // A spent budget (rejection draws, subelement enumeration)
                // is the paper's cutoff, not a configuration mistake: mark
                // the cell timed out and keep the sweep going.
                Err(SketchError::BudgetExhausted { .. }) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }
    Ok(Some(out))
}

pub(crate) fn algorithm_names(algorithms: &[Algorithm]) -> Vec<String> {
    algorithms.iter().map(|a| a.name().to_owned()).collect()
}

/// The earlier of two optional deadlines (`None` = unlimited).
pub(crate) fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Run the Figure 8 protocol. `algorithms` defaults to all thirteen.
///
/// # Errors
/// [`RunnerError`] on invalid scales or algorithm failures.
pub fn run_mse(scale: &Scale, algorithms: &[Algorithm]) -> Result<Vec<MseCell>, RunnerError> {
    run_mse_with(scale, algorithms, &RunOptions::default())
}

/// [`run_mse`] with [`RunOptions`] (checkpoint/resume, worker threads).
///
/// With a checkpoint configured, each completed `(dataset, algorithm,
/// repeat)` unit is persisted; a restarted run reloads them and — because
/// all randomness derives from `scale.seed` — produces results identical
/// to an uninterrupted run.
///
/// Work is decomposed into `(dataset, algorithm, repeat)` cells and run on
/// a [`ParallelSweep`] sized by [`RunOptions::effective_threads`]; any
/// thread count yields byte-identical results (see [`crate::sweep`]).
///
/// # Errors
/// [`RunnerError`] on invalid scales, algorithm failures, or unusable
/// checkpoint files.
pub fn run_mse_with(
    scale: &Scale,
    algorithms: &[Algorithm],
    options: &RunOptions,
) -> Result<Vec<MseCell>, RunnerError> {
    ParallelSweep::new(options.effective_threads()).run_mse(scale, algorithms, options)
}

/// Run the Figure 9 protocol: wall-clock seconds to encode
/// `scale.runtime_docs` documents, per `(dataset, algorithm, D)`.
///
/// Timings run sequentially (no thread pool) so they are not skewed by
/// contention.
///
/// # Errors
/// [`RunnerError`] on invalid scales or algorithm failures.
pub fn run_runtime(
    scale: &Scale,
    algorithms: &[Algorithm],
) -> Result<Vec<RuntimeCell>, RunnerError> {
    run_runtime_with(scale, algorithms, &RunOptions::default())
}

/// [`run_runtime`] with [`RunOptions`] (checkpoint/resume).
///
/// Checkpointed timings are reused verbatim on restart — a timing that was
/// already measured is never re-measured, so a resumed run's report equals
/// the report the interrupted run would have produced.
///
/// [`RunOptions::threads`] is deliberately **ignored** here: Figure 9
/// measures per-algorithm sketching wall-clock, and concurrent timing
/// cells would contend for cores and skew every number. Timing sweeps pin
/// to one thread no matter what `--threads` says (see EXPERIMENTS.md).
///
/// # Errors
/// [`RunnerError`] on invalid scales, algorithm failures, or unusable
/// checkpoint files.
pub fn run_runtime_with(
    scale: &Scale,
    algorithms: &[Algorithm],
    options: &RunOptions,
) -> Result<Vec<RuntimeCell>, RunnerError> {
    let mut ckpt = match &options.checkpoint {
        Some(path) => Some(Checkpoint::open(path, "runtime", scale, &algorithm_names(algorithms))?),
        None => None,
    };
    let mut cells = Vec::new();
    // Stable unit identity for the supervisor's jitter stream: the unit's
    // index in (dataset, algorithm, D) order. Advances for checkpointed
    // units too, so a resumed run retries with the same backoff schedule.
    let mut unit_salt = 0u64;
    for cfg in &scale.datasets {
        let dataset = cfg.generate(scale.seed).map_err(RunnerError::Data)?;
        let docs: Vec<WeightedSet> =
            dataset.docs.iter().take(scale.runtime_docs).cloned().collect();
        let bounds = UpperBounds::from_sets(dataset.docs.iter())
            .map_err(|e| RunnerError::Data(e.to_string()))?;
        for &algorithm in algorithms {
            let algo = algorithm.name();
            // One wall-clock deadline per (dataset, algorithm) cell; a
            // deadline hit mid-grid marks the remaining D cells too.
            let deadline = scale.budget.wall_clock.map(|w| Instant::now() + w);
            for &d in &scale.d_values {
                let salt = unit_salt;
                unit_salt += 1;
                if let Some(c) = &ckpt {
                    if let Some(seconds) = c.runtime_seconds(&dataset.name, algo, d) {
                        cells.push(RuntimeCell {
                            dataset: dataset.name.clone(),
                            algorithm: algo.to_owned(),
                            d,
                            seconds,
                        });
                        continue;
                    }
                }
                let seconds = if deadline.is_some_and(|t| Instant::now() >= t) {
                    Measurement::TimedOut
                } else {
                    // Per-unit deadline: the earlier of the group budget
                    // and this timing's own cell budget.
                    let unit_deadline = min_deadline(
                        deadline,
                        scale.budget.cell_wall_clock.map(|w| Instant::now() + w),
                    );
                    let attempt = |_n: u32| {
                        if unit_deadline.is_some_and(|t| Instant::now() >= t) {
                            return Attempt::TimedOut;
                        }
                        // Transient-fault hook for the chaos tests; inert
                        // without an active scenario.
                        if let Err(f) = wmh_fault::point!("sweep::cell", algo) {
                            return Attempt::Transient(f.to_string());
                        }
                        // An algorithm error is a dash cell (recorded with
                        // its kind), never an aborted sweep — and never a
                        // retry: typed errors are deterministic.
                        let cfg = scale.config(Some(bounds.clone()));
                        Attempt::Done(match algorithm.build(scale.seed, d, &cfg) {
                            Err(e) => Measurement::Failed(e.kind()),
                            Ok(sketcher) => {
                                let mut scratch = SketchScratch::new();
                                let start = Instant::now();
                                match sketch_docs(
                                    sketcher.as_ref(),
                                    &docs,
                                    unit_deadline,
                                    &mut scratch,
                                ) {
                                    Ok(Some(_)) => {
                                        Measurement::Value(start.elapsed().as_secs_f64())
                                    }
                                    Ok(None) => Measurement::TimedOut,
                                    Err(e) => Measurement::Failed(e.kind()),
                                }
                            }
                        })
                    };
                    match supervise(&options.retry, scale.seed, salt, attempt) {
                        CellOutcome::Completed(m) => m,
                        CellOutcome::TimedOut => Measurement::TimedOut,
                        CellOutcome::Quarantined { .. } => {
                            Measurement::Failed(wmh_core::ErrorKind::TransientIo)
                        }
                    }
                };
                if let Some(c) = &mut ckpt {
                    c.append(&Entry::Runtime {
                        dataset: dataset.name.clone(),
                        algorithm: algo.to_owned(),
                        d,
                        seconds,
                    })?;
                }
                cells.push(RuntimeCell {
                    dataset: dataset.name.clone(),
                    algorithm: algo.to_owned(),
                    d,
                    seconds,
                });
            }
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_value(cells: &[MseCell], dataset: &str, algo: &str, d: usize) -> f64 {
        cells
            .iter()
            .find(|c| c.dataset == dataset && c.algorithm == algo && c.d == d)
            .and_then(|c| c.mse.value())
            .unwrap_or_else(|| panic!("missing cell {dataset}/{algo}/{d}"))
    }

    #[test]
    fn tiny_mse_run_produces_full_grid() {
        let scale = Scale::tiny();
        let algos = [Algorithm::MinHash, Algorithm::Icws, Algorithm::Chum2008];
        let cells = run_mse(&scale, &algos).expect("runner");
        assert_eq!(cells.len(), scale.datasets.len() * algos.len() * scale.d_values.len());
        for c in &cells {
            if let Some(v) = c.mse.value() {
                assert!(v.is_finite() && v >= 0.0, "{c:?}");
            }
            assert!(c.mse_std >= 0.0);
        }
    }

    #[test]
    fn mse_decreases_with_d_for_unbiased_algorithms() {
        let scale = Scale::tiny();
        let cells = run_mse(&scale, &[Algorithm::Icws]).expect("runner");
        let name = scale.datasets[0].name();
        let lo_d = cell_value(&cells, &name, "ICWS", 10);
        let hi_d = cell_value(&cells, &name, "ICWS", 50);
        assert!(hi_d < lo_d, "MSE should shrink with D: {lo_d} → {hi_d}");
    }

    #[test]
    fn minhash_is_less_accurate_than_icws_on_weighted_data() {
        // The headline of Figure 8.
        let scale = Scale::tiny();
        let cells = run_mse(&scale, &[Algorithm::MinHash, Algorithm::Icws]).expect("runner");
        let name = scale.datasets[0].name();
        let mh = cell_value(&cells, &name, "MinHash", 50);
        let icws = cell_value(&cells, &name, "ICWS", 50);
        assert!(mh > icws, "MinHash {mh} should be worse than ICWS {icws}");
    }

    #[test]
    fn empty_d_grid_is_a_typed_error() {
        let mut scale = Scale::tiny();
        scale.d_values.clear();
        assert_eq!(run_mse(&scale, &[Algorithm::MinHash]).unwrap_err(), RunnerError::EmptyDGrid);
    }

    #[test]
    fn runtime_cells_are_positive_and_complete() {
        let mut scale = Scale::tiny();
        scale.d_values = vec![10];
        scale.datasets.truncate(1);
        let algos = [Algorithm::MinHash, Algorithm::Icws, Algorithm::Haveliwala2000];
        let cells = run_runtime(&scale, &algos).expect("runner");
        assert_eq!(cells.len(), algos.len());
        for c in &cells {
            let v = c.seconds.value().expect("no timeout at tiny scale");
            assert!(v > 0.0, "{c:?}");
        }
    }

    #[test]
    fn quantization_is_slower_than_active_index() {
        // Figure 9's headline: Haveliwala ≫ GollapudiSkip ≈ ICWS. Wall-clock
        // under test runners is noisy, so take the best of three runs per
        // algorithm and require a modest separation.
        let mut scale = Scale::tiny();
        scale.d_values = vec![50];
        scale.datasets.truncate(1);
        // The active-index walk costs ~25 subelement-hashes per step
        // (two hashed draws + two logarithms), so the speedup appears for
        // quantized weights well above that: C = 2000 gives W ≈ 600.
        scale.quantization_constant = 2_000.0;
        let best_time = |name: &str| {
            (0..3)
                .map(|_| {
                    let cells = run_runtime(
                        &scale,
                        &[Algorithm::Haveliwala2000, Algorithm::GollapudiActive],
                    )
                    .expect("runner");
                    cells
                        .iter()
                        .find(|c| c.algorithm == name)
                        .and_then(|c| c.seconds.value())
                        .expect("measured")
                })
                .fold(f64::INFINITY, f64::min)
        };
        let quant = best_time("Haveliwala2000");
        let active = best_time("Gollapudi2006-Active");
        assert!(quant > 1.5 * active, "quantization {quant} vs active {active}");
    }

    #[test]
    fn shrivastava_times_out_under_starved_budget() {
        let mut scale = Scale::tiny();
        scale.d_values = vec![10];
        scale.datasets.truncate(1);
        scale.budget.max_rejection_draws = 2; // force the cutoff
        let cells = run_mse(&scale, &[Algorithm::Shrivastava2016]).expect("runner");
        assert!(cells.iter().all(|c| c.mse == Measurement::TimedOut));
    }

    #[test]
    fn starved_wall_clock_times_out_but_the_grid_stays_complete() {
        // A zero wall-clock budget: every cell times out, none is dropped.
        let mut scale = Scale::tiny();
        scale.budget.wall_clock = Some(Duration::from_secs(0));
        let algos = [Algorithm::MinHash, Algorithm::Icws];
        let cells = run_mse(&scale, &algos).expect("runner");
        assert_eq!(cells.len(), scale.datasets.len() * algos.len() * scale.d_values.len());
        assert!(cells.iter().all(|c| c.mse == Measurement::TimedOut));
        let rcells = run_runtime(&scale, &algos).expect("runner");
        assert_eq!(rcells.len(), scale.datasets.len() * algos.len() * scale.d_values.len());
        assert!(rcells.iter().all(|c| c.seconds == Measurement::TimedOut));
    }

    #[test]
    fn generous_wall_clock_changes_nothing() {
        let mut scale = Scale::tiny();
        scale.datasets.truncate(1);
        let unlimited = run_mse(&scale, &[Algorithm::Icws]).expect("runner");
        scale.budget.wall_clock = Some(Duration::from_secs(3600));
        let bounded = run_mse(&scale, &[Algorithm::Icws]).expect("runner");
        assert_eq!(unlimited, bounded);
    }

    #[test]
    fn prefix_estimator_matches_full_estimator_at_full_length() {
        let a = Sketch { algorithm: "x".into(), seed: 0, codes: vec![1, 2, 3, 4] };
        let b = Sketch { algorithm: "x".into(), seed: 0, codes: vec![1, 9, 3, 7] };
        assert_eq!(estimate_prefix(&a, &b, 4), 0.5);
        assert_eq!(estimate_prefix(&a, &b, 1), 1.0);
    }

    #[test]
    fn measurement_json_uses_the_external_tag_shape() {
        assert_eq!(wmh_json::to_string(&Measurement::Value(0.5)), r#"{"Value":0.5}"#);
        assert_eq!(wmh_json::to_string(&Measurement::TimedOut), r#""TimedOut""#);
        let v: Measurement = wmh_json::from_str(r#"{"Value":0.25}"#).expect("value");
        assert_eq!(v, Measurement::Value(0.25));
        let t: Measurement = wmh_json::from_str(r#""TimedOut""#).expect("timeout");
        assert_eq!(t, Measurement::TimedOut);
        let failed = Measurement::Failed(wmh_core::ErrorKind::BudgetExhausted);
        assert_eq!(wmh_json::to_string(&failed), r#"{"Failed":"budget-exhausted"}"#);
        let f: Measurement = wmh_json::from_str(r#"{"Failed":"budget-exhausted"}"#).expect("fail");
        assert_eq!(f, failed);
        assert!(wmh_json::from_str::<Measurement>(r#"{"Failed":"no-such-kind"}"#).is_err());
    }

    #[test]
    fn algorithm_failure_becomes_dash_cells_not_an_abort() {
        // A bad quantization constant makes Haveliwala fail at build time;
        // the sweep must keep going, fill the failed algorithm's grid with
        // typed dash cells, and measure the healthy algorithm normally.
        let mut scale = Scale::tiny();
        scale.datasets.truncate(1);
        scale.quantization_constant = -1.0;
        let algos = [Algorithm::Haveliwala2000, Algorithm::Icws];
        let cells = run_mse(&scale, &algos).expect("sweep survives algorithm failure");
        assert_eq!(cells.len(), algos.len() * scale.d_values.len());
        for c in &cells {
            if c.algorithm == "Haveliwala2000" {
                assert_eq!(c.mse, Measurement::Failed(wmh_core::ErrorKind::BadParameter), "{c:?}");
            } else {
                assert!(c.mse.value().is_some(), "{c:?}");
            }
        }
        let rcells = run_runtime(&scale, &algos).expect("runtime sweep survives too");
        for c in rcells.iter().filter(|c| c.algorithm == "Haveliwala2000") {
            assert_eq!(c.seconds, Measurement::Failed(wmh_core::ErrorKind::BadParameter));
        }
    }

    #[test]
    fn scale_json_roundtrip() {
        let mut scale = Scale::tiny();
        scale.budget.wall_clock = Some(Duration::from_millis(1500));
        let text = wmh_json::to_string(&scale);
        let back: Scale = wmh_json::from_str(&text).expect("scale");
        assert_eq!(scale, back);
    }
}
