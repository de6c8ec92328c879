//! The benchmark suite: Figure-9 sketching workloads, hashing kernels,
//! and the zero-allocation batch paths.
//!
//! Workload identifiers are stable strings (`fig9/<dataset>/<algo>/D<d>`,
//! `hash/<kernel>`, `batch/<algo>/<path>`) — the CI gate matches baseline
//! and current runs by id, so renaming one is a deliberate baseline
//! refresh, not a cosmetic edit.

use crate::harness::{bench, BenchOptions, BenchResult};
use std::hint::black_box;
use wmh_core::catalog::{Algorithm, AlgorithmConfig};
use wmh_core::others::UpperBounds;
use wmh_core::{CodeBatch, SketchScratch};
use wmh_data::{SynConfig, PAPER_DATASETS};
use wmh_hash::SeededHash;
use wmh_sets::WeightedSet;

/// Deterministic seed for benchmark datasets and sketchers.
pub const BENCH_SEED: u64 = 0xBE9C;

/// Measurement profile: how long to sample and how large the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: two Table-4 dataset shapes, small batches, ~seconds total.
    Quick,
    /// Trajectory-sized: all six Table-4 shapes, larger batches.
    Full,
}

impl Profile {
    /// Parse a CLI profile name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::Quick),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// The profile's CLI / report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Quick => "quick",
            Self::Full => "full",
        }
    }

    /// Measurement tunables for this profile.
    #[must_use]
    pub fn options(self) -> BenchOptions {
        match self {
            Self::Quick => BenchOptions::quick(),
            Self::Full => BenchOptions::full(),
        }
    }

    /// Table-4 dataset shapes measured under this profile. Quick keeps the
    /// two extreme weight scales (s = 0.2 and s = 0.3); the four middle
    /// scales interpolate and add nothing to a regression signal.
    #[must_use]
    pub fn dataset_configs(self) -> Vec<SynConfig> {
        match self {
            Self::Quick => vec![
                PAPER_DATASETS[0].scaled_down_preserving_overlap(8, 2_000),
                PAPER_DATASETS[5].scaled_down_preserving_overlap(8, 2_000),
            ],
            Self::Full => {
                PAPER_DATASETS.iter().map(|c| c.scaled_down_preserving_overlap(12, 4_000)).collect()
            }
        }
    }

    /// Sketch length `D` for the fig9 workloads.
    #[must_use]
    pub fn num_hashes(self) -> usize {
        match self {
            Self::Quick => 32,
            Self::Full => 64,
        }
    }

    /// Quantization constant `C` for the quantizing algorithms. The paper
    /// uses 1000; benchmarks scale it down with the dataset so the
    /// subelement-enumerating algorithms stay proportionate, not dominant.
    #[must_use]
    pub fn quantization_constant(self) -> f64 {
        match self {
            Self::Quick => 200.0,
            Self::Full => 500.0,
        }
    }
}

fn generate_docs(cfg: &SynConfig) -> Vec<WeightedSet> {
    cfg.generate(BENCH_SEED).expect("benchmark dataset config is valid").docs
}

fn build_config(profile: Profile, docs: &[WeightedSet]) -> AlgorithmConfig {
    AlgorithmConfig {
        quantization_constant: profile.quantization_constant(),
        upper_bounds: Some(
            UpperBounds::from_sets(docs.iter()).expect("benchmark docs are non-empty"),
        ),
        ..AlgorithmConfig::default()
    }
}

fn progress(result: &BenchResult) {
    eprintln!(
        "  {:<44} {:>12.0} ns/iter  (MAD {:.0}, n {}/{}, x{})",
        result.id, result.median_ns, result.mad_ns, result.kept, result.samples, result.iters
    );
}

/// The Figure-9 hot loop: batch-sketch every document of each dataset
/// shape with each of the 13 algorithms, through the reusable-buffer
/// [`Sketcher::sketch_batch_into`] path.
#[must_use]
pub fn fig9_workloads(profile: Profile, opts: &BenchOptions) -> Vec<BenchResult> {
    fig9_filtered(profile, opts, &|_| true)
}

fn fig9_filtered(
    profile: Profile,
    opts: &BenchOptions,
    keep: &dyn Fn(&str) -> bool,
) -> Vec<BenchResult> {
    let d = profile.num_hashes();
    let mut out = Vec::new();
    for cfg in profile.dataset_configs() {
        let ids: Vec<String> = Algorithm::ALL
            .iter()
            .map(|a| format!("fig9/{}/{}/D{d}", cfg.name(), a.name()))
            .collect();
        if !ids.iter().any(|id| keep(id)) {
            continue; // skip dataset generation when nothing here is wanted
        }
        let docs = generate_docs(&cfg);
        let config = build_config(profile, &docs);
        for (algorithm, id) in Algorithm::ALL.iter().zip(ids) {
            if !keep(&id) {
                continue;
            }
            let sketcher = algorithm
                .build(BENCH_SEED, d, &config)
                .expect("every catalog algorithm builds under the benchmark config");
            let mut scratch = SketchScratch::new();
            let mut batch = CodeBatch::new();
            let result = bench(&id, "fig9", opts, || {
                sketcher
                    .sketch_batch_into(black_box(&docs), &mut batch, &mut scratch)
                    .expect("benchmark documents sketch cleanly");
                black_box(batch.as_flat());
            });
            progress(&result);
            out.push(result);
        }
    }
    out.extend(head_to_head_filtered(profile, opts, keep));
    out
}

/// Sketch length for the beyond-the-paper head-to-head block: the Table-4
/// shape at `D = 128`, where the dart samplers' `O(n + D log D)` cost
/// overtakes the interval-walk sketchers' `O(n·D·walk)` — but no longer
/// the fused closed-form CWS kernels, whose vectorized register pass
/// undercuts DartMinHash (results/REPORT.md quotes this block; the pinned
/// ordering lives in `schemas.rs::checked_in_head_to_head_ordering_holds_at_d128`).
pub const HEAD_TO_HEAD_D: usize = 128;

fn head_to_head_filtered(
    profile: Profile,
    opts: &BenchOptions,
    keep: &dyn Fn(&str) -> bool,
) -> Vec<BenchResult> {
    let d = HEAD_TO_HEAD_D;
    let mut out = Vec::new();
    let Some(cfg) = profile.dataset_configs().into_iter().next() else {
        return out;
    };
    let ids: Vec<String> =
        Algorithm::ALL.iter().map(|a| format!("fig9/{}/{}/D{d}", cfg.name(), a.name())).collect();
    if !ids.iter().any(|id| keep(id)) {
        return out;
    }
    let docs = generate_docs(&cfg);
    let config = build_config(profile, &docs);
    for (algorithm, id) in Algorithm::ALL.iter().zip(ids) {
        if !keep(&id) {
            continue;
        }
        let sketcher = algorithm
            .build(BENCH_SEED, d, &config)
            .expect("every catalog algorithm builds under the benchmark config");
        let mut scratch = SketchScratch::new();
        let mut batch = CodeBatch::new();
        let result = bench(&id, "fig9", opts, || {
            sketcher
                .sketch_batch_into(black_box(&docs), &mut batch, &mut scratch)
                .expect("benchmark documents sketch cleanly");
            black_box(batch.as_flat());
        });
        progress(&result);
        out.push(result);
    }
    out
}

/// The hashing kernels every sketcher is built on: one bench per arity,
/// 256 evaluations per iteration so the per-call cost is resolvable.
#[must_use]
pub fn hash_workloads(opts: &BenchOptions) -> Vec<BenchResult> {
    hash_filtered(opts, &|_| true)
}

/// A named hashing kernel: maps a key through one `SeededHash` primitive.
type HashKernel = (&'static str, fn(&SeededHash, u64) -> u64);

fn hash_filtered(opts: &BenchOptions, keep: &dyn Fn(&str) -> bool) -> Vec<BenchResult> {
    const CALLS: u64 = 256;
    let oracle = SeededHash::new(BENCH_SEED);
    let kernels: [HashKernel; 4] = [
        ("hash/hash1_x256", |h, k| h.hash1(k)),
        ("hash/hash2_x256", |h, k| h.hash2(7, k)),
        ("hash/hash_words5_x256", |h, k| h.hash_words(&[k, 1, 2, 3, 4])),
        ("hash/unit3_x256", |h, k| h.unit3(3, 7, k).to_bits()),
    ];
    kernels
        .iter()
        .filter(|(id, _)| keep(id))
        .map(|(id, kernel)| {
            let result = bench(id, "hash", opts, || {
                let mut acc = 0u64;
                for k in 0..CALLS {
                    acc ^= kernel(&oracle, black_box(k));
                }
                black_box(acc);
            });
            progress(&result);
            result
        })
        .collect()
}

/// Zero-allocation batch path vs the allocating convenience path, for the
/// three algorithms the allocation-regression test pins (MinHash, ICWS,
/// CWS) — one per vectorized kernel shape.
#[must_use]
pub fn batch_workloads(profile: Profile, opts: &BenchOptions) -> Vec<BenchResult> {
    batch_filtered(profile, opts, &|_| true)
}

fn batch_filtered(
    profile: Profile,
    opts: &BenchOptions,
    keep: &dyn Fn(&str) -> bool,
) -> Vec<BenchResult> {
    let d = profile.num_hashes();
    let cfg = PAPER_DATASETS[0].scaled_down_preserving_overlap(8, 2_000);
    let docs = generate_docs(&cfg);
    let config = build_config(profile, &docs);
    let mut out = Vec::new();
    for algorithm in [Algorithm::MinHash, Algorithm::Icws, Algorithm::Cws] {
        let sketcher = algorithm
            .build(BENCH_SEED, d, &config)
            .expect("MinHash, ICWS, and CWS build without preconditions");
        let mut scratch = SketchScratch::new();
        let mut batch = CodeBatch::new();
        let into_id = format!("batch/{}/into/D{d}", sketcher.name());
        if keep(&into_id) {
            let result = bench(&into_id, "batch", opts, || {
                sketcher
                    .sketch_batch_into(black_box(&docs), &mut batch, &mut scratch)
                    .expect("benchmark documents sketch cleanly");
                black_box(batch.as_flat());
            });
            progress(&result);
            out.push(result);
        }

        let fresh_id = format!("batch/{}/fresh/D{d}", sketcher.name());
        if keep(&fresh_id) {
            let result = bench(&fresh_id, "batch", opts, || {
                let sketches =
                    sketcher.sketch_batch(black_box(&docs)).expect("benchmark documents sketch");
                black_box(sketches.len());
            });
            progress(&result);
            out.push(result);
        }
    }
    out
}

/// Run the complete suite under `opts`, in stable order.
#[must_use]
pub fn run_all(profile: Profile, opts: &BenchOptions) -> Vec<BenchResult> {
    run_filtered(profile, opts, &|_| true)
}

/// Run only the workloads whose id satisfies `keep`, in stable order.
///
/// The perf gate uses this to re-measure just the workloads that exceeded
/// tolerance, so a noisy-machine flake costs one workload's re-run, not
/// the whole suite's.
#[must_use]
pub fn run_filtered(
    profile: Profile,
    opts: &BenchOptions,
    keep: &dyn Fn(&str) -> bool,
) -> Vec<BenchResult> {
    let mut results = fig9_filtered(profile, opts, keep);
    results.extend(hash_filtered(opts, keep));
    results.extend(batch_filtered(profile, opts, keep));
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> BenchOptions {
        BenchOptions { warmup_ns: 1_000, min_sample_ns: 1_000, samples: 3, max_iters: 4 }
    }

    #[test]
    fn quick_profile_covers_all_algorithms_with_unique_ids() {
        let opts = smoke_opts();
        let results = fig9_workloads(Profile::Quick, &opts);
        // Two dataset shapes at the profile D, plus the D=128 head-to-head
        // block on the first shape.
        assert_eq!(results.len(), 3 * Algorithm::ALL.len());
        let ids: std::collections::HashSet<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), results.len(), "workload ids must be unique");
        for algorithm in Algorithm::ALL {
            assert!(
                ids.iter().any(|id| id.contains(algorithm.name())),
                "no workload for {}",
                algorithm.name()
            );
        }
        let d128: Vec<&str> = ids.iter().copied().filter(|id| id.ends_with("/D128")).collect();
        assert_eq!(d128.len(), Algorithm::ALL.len(), "head-to-head block must cover the catalog");
    }

    #[test]
    fn hash_and_batch_suites_produce_results() {
        let opts = smoke_opts();
        assert_eq!(hash_workloads(&opts).len(), 4);
        let batch = batch_workloads(Profile::Quick, &opts);
        assert_eq!(batch.len(), 6);
        assert!(batch.iter().all(|r| r.median_ns > 0.0));
    }

    #[test]
    fn filtered_run_measures_only_matching_ids() {
        let opts = smoke_opts();
        let only = "fig9/Syn3E0.2S/MinHash/D32";
        let results = run_filtered(Profile::Quick, &opts, &|id| id == only);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, only);
        assert!(run_filtered(Profile::Quick, &opts, &|_| false).is_empty());
    }

    #[test]
    fn profile_parsing() {
        assert_eq!(Profile::parse("quick"), Some(Profile::Quick));
        assert_eq!(Profile::parse("full"), Some(Profile::Full));
        assert_eq!(Profile::parse("huge"), None);
        assert_eq!(Profile::Quick.name(), "quick");
    }
}
