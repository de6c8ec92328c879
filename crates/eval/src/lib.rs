//! # `wmh-eval` — the experiment harness
//!
//! Regenerates every table and figure of the review's evaluation (paper §6)
//! plus the ablations DESIGN.md calls out. Each artifact has a binary:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 1 (LSH families demo) | `table1_lsh_families` |
//! | Table 2 / Table 3 / Figure 2 (taxonomy) | `table2_overview` |
//! | Table 4 (dataset summaries) | `table4_datasets` |
//! | Figure 8 (MSE vs `D`) | `fig8_mse` |
//! | Figure 9 (runtime vs `D`) | `fig9_runtime` |
//! | Figures 1, 3–7 (didactic traces) | `illustrations` |
//! | Ablations (quantization `C`, CCWS pairing, b-bit, OPH) | `ablations` |
//!
//! All binaries accept `--full` for paper-scale runs (1 000 × 100 000,
//! all pairs, `D` up to 200, 10 repeats) and default to a calibrated
//! laptop-scale configuration whose *shape* matches the paper; see
//! EXPERIMENTS.md for the recorded outputs of both.
//!
//! [`schemas`] registers the shape of every file those binaries write
//! under `results/`; its tests validate each checked-in file.

pub mod checkpoint;
pub mod cli;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod schemas;
pub mod sweep;

// The cell supervisor (retry policy, seeded backoff, quarantine) moved to
// `wmh-fault` so the serving layer can share it without depending on the
// experiment harness; this re-export keeps every historical path working.
pub use wmh_fault::supervisor;

pub use runner::{Budget, Measurement, MseCell, RunOptions, RunnerError, RuntimeCell, Scale};
pub use supervisor::{Attempt, CellOutcome, RetryPolicy};
pub use sweep::ParallelSweep;
