//! Estimator-conformance suite: for **every** algorithm in the catalog,
//! the mean of `estimate_similarity` over independently seeded repetitions
//! must land within a CLT bound of the exact similarity it estimates.
//!
//! The workload is chosen so "exact" is really exact:
//!
//! * all weights are **binary fractions** (multiples of 0.25) and the
//!   quantization constant is `C = 4`, so the integer-quantizing
//!   algorithms (Haveliwala 2000, Haeupler 2014, Gollapudi-Active) incur
//!   *zero* rounding error and their references are the plain generalized
//!   Jaccard;
//! * MinHash discards weights by design, so its reference is the binary
//!   Jaccard of the supports — its true collision probability;
//! * the estimators the review proves biased get a small, documented
//!   empirical allowance on top of the CLT bound (measured at high
//!   repetition counts; see the table in `allowance`).
//!
//! `WMH_CHECK_CASES` scales the repetition count (default 24); the CLT
//! bound tightens automatically as repetitions grow, so a nightly run with
//! a large count is a *stricter* test, not just a longer one.
//!
//! A deliberately biased mutant sketcher (ICWS with truncated codes, which
//! inflates collisions) is run through the very same check claiming to be
//! unbiased — the suite must reject it, proving the bound has teeth.

use wmh_core::others::UpperBounds;
use wmh_core::{Algorithm, AlgorithmConfig, SketchError, SketchScratch, Sketcher};
use wmh_sets::{generalized_jaccard, jaccard, WeightedSet};

/// Fingerprint length per repetition.
const D: usize = 128;

/// Repetitions (independent master seeds); `WMH_CHECK_CASES` overrides.
fn reps() -> usize {
    std::env::var("WMH_CHECK_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24).max(2)
}

/// Two small overlapping weighted sets with binary-fraction weights.
fn sets() -> (WeightedSet, WeightedSet) {
    let s = WeightedSet::from_pairs([
        (1, 1.0),
        (2, 0.5),
        (3, 0.25),
        (4, 0.75),
        (5, 1.25),
        (8, 2.0),
        (9, 0.5),
    ])
    .expect("valid set");
    let t = WeightedSet::from_pairs([
        (3, 0.5),
        (4, 0.75),
        (5, 1.0),
        (6, 0.25),
        (7, 1.5),
        (8, 1.0),
        (9, 0.5),
    ])
    .expect("valid set");
    (s, t)
}

fn config(s: &WeightedSet, t: &WeightedSet) -> AlgorithmConfig {
    AlgorithmConfig {
        // Weights are multiples of 1/4, so C = 4 quantizes exactly: the
        // quantizing algorithms become unbiased for the *original* sets.
        quantization_constant: 4.0,
        upper_bounds: Some(UpperBounds::from_sets([s.clone(), t.clone()].iter()).expect("bounds")),
        // Lift CCWS's sub-unit weights clear of its degenerate t = 0
        // branch, as the experiment runner does (see Scale::ccws_weight_scale).
        ccws_weight_scale: 10.0,
        ..AlgorithmConfig::default()
    }
}

/// What the estimator is actually estimating.
fn reference(algorithm: Algorithm, s: &WeightedSet, t: &WeightedSet) -> f64 {
    match algorithm {
        // MinHash binarizes: its collision probability is the support
        // Jaccard, exactly.
        Algorithm::MinHash => jaccard(&s.binarized(), &t.binarized()),
        _ => generalized_jaccard(s, t),
    }
}

/// Empirical bias allowance added to the CLT bound, per algorithm.
///
/// `0.0` for the algorithms the review proves unbiased (and for the
/// exactly-quantizing ones under `C = 4`). The biased estimators carry the
/// deviation measured by `print_empirical_deviations` (400 repetitions ×
/// D = 128 on this workload), rounded up ~40% for seed robustness; the
/// measured value is quoted per line. CCWS's huge bias is real — the
/// review's Figure 8 ranks it worst for exactly this reason — so its check
/// mostly pins the bias from *growing*, not that it is small.
fn allowance(algorithm: Algorithm) -> f64 {
    match algorithm {
        Algorithm::ZeroBitCws => 0.045,        // measured +0.030
        Algorithm::Ccws => 0.36,               // measured -0.319
        Algorithm::Pcws => 0.05,               // measured -0.034
        Algorithm::I2cws => 0.12,              // measured -0.084
        Algorithm::GollapudiThreshold => 0.02, // measured +0.000 (small sets)
        Algorithm::Chum2008 => 0.08,           // measured +0.056
        _ => {
            assert!(algorithm.info().unbiased || algorithm == Algorithm::MinHash);
            0.0
        }
    }
}

/// Mean estimate over `reps` independently seeded repetitions.
fn mean_estimate(
    build: &dyn Fn(u64) -> Box<dyn Sketcher + Send + Sync>,
    s: &WeightedSet,
    t: &WeightedSet,
    reps: usize,
) -> f64 {
    let mut sum = 0.0;
    for rep in 0..reps {
        let seed = 0xC0F_5EED ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sketcher = build(seed);
        let a = sketcher.sketch(s).expect("sketch s");
        let b = sketcher.sketch(t).expect("sketch t");
        sum += a.estimate_similarity(&b);
    }
    sum / reps as f64
}

/// The conformance check: mean estimate within `4·SE + allowance` of the
/// reference. Returns the deviation report on failure so the caller (or
/// the negative control) can inspect it.
fn conformance(
    label: &str,
    build: &dyn Fn(u64) -> Box<dyn Sketcher + Send + Sync>,
    truth: f64,
    allowance: f64,
    reps: usize,
) -> Result<(), String> {
    let (s, t) = sets();
    let mean = mean_estimate(build, &s, &t, reps);
    // Each repetition averages D (approximately independent) collision
    // indicators, so the mean over reps averages reps·D of them.
    let se = (truth * (1.0 - truth) / (reps * D) as f64).sqrt();
    let bound = 4.0 * se + allowance;
    let dev = (mean - truth).abs();
    if dev > bound {
        return Err(format!(
            "{label}: mean estimate {mean:.4} deviates {dev:.4} from reference {truth:.4} \
             (bound {bound:.4} = 4·{se:.4} + {allowance})"
        ));
    }
    Ok(())
}

fn catalog_build(algorithm: Algorithm) -> impl Fn(u64) -> Box<dyn Sketcher + Send + Sync> {
    move |seed| {
        let (s, t) = sets();
        algorithm.build(seed, D, &config(&s, &t)).expect("buildable")
    }
}

#[test]
fn every_algorithm_estimates_its_reference() {
    let (s, t) = sets();
    let reps = reps();
    let mut failures = Vec::new();
    for &algorithm in &Algorithm::ALL {
        let truth = reference(algorithm, &s, &t);
        let result = conformance(
            algorithm.name(),
            &catalog_build(algorithm),
            truth,
            allowance(algorithm),
            reps,
        );
        if let Err(msg) = result {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "conformance failures:\n{}", failures.join("\n"));
}

/// Calibration probe (ignored): prints each algorithm's deviation at high
/// repetition count. Run with
/// `cargo test -p wmh-core --test conformance -- --ignored --nocapture`
/// when re-deriving the allowance table.
#[test]
#[ignore = "calibration tool, not a check"]
fn print_empirical_deviations() {
    let (s, t) = sets();
    for &algorithm in &Algorithm::ALL {
        let truth = reference(algorithm, &s, &t);
        let mean = mean_estimate(&catalog_build(algorithm), &s, &t, 400);
        eprintln!(
            "{:<24} truth {truth:.4} mean {mean:.4} deviation {:+.4}",
            algorithm.name(),
            mean - truth
        );
    }
}

#[test]
fn batch_path_matches_single_path_for_every_algorithm() {
    // The parallel sweep's determinism guarantee leans on sketch_batch
    // overrides being exact clones of the one-at-a-time path.
    let (s, t) = sets();
    let batch = [s.clone(), t.clone()];
    for &algorithm in &Algorithm::ALL {
        let sketcher = algorithm.build(7, 64, &config(&s, &t)).expect("buildable");
        let batched = sketcher.sketch_batch(&batch).expect("batch");
        let singles = [sketcher.sketch(&s).expect("s"), sketcher.sketch(&t).expect("t")];
        assert_eq!(batched, singles, "{} batch path diverged", algorithm.name());
    }
}

/// A sketcher that lies: ICWS with codes truncated to 2 bits, which makes
/// unrelated elements collide with probability ~1/4 and inflates every
/// similarity estimate by ~(1−J)/4 ≈ 0.14 here — comfortably above the
/// CLT bound even at the minimum repetition count. It masquerades as the
/// inner algorithm.
struct BiasedMutant(Box<dyn Sketcher + Send + Sync>);

impl Sketcher for BiasedMutant {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn num_hashes(&self) -> usize {
        self.0.num_hashes()
    }
    fn seed(&self) -> u64 {
        self.0.seed()
    }
    fn sketch_codes_into(
        &self,
        set: &WeightedSet,
        out: &mut [u64],
        scratch: &mut SketchScratch,
    ) -> Result<(), SketchError> {
        self.0.sketch_codes_into(set, out, scratch)?;
        for code in out.iter_mut() {
            *code %= 4;
        }
        Ok(())
    }
}

#[test]
fn deliberately_biased_mutant_fails_the_unbiased_bound() {
    let (s, t) = sets();
    let truth = generalized_jaccard(&s, &t);
    let cfg = config(&s, &t);
    let build = move |seed: u64| -> Box<dyn Sketcher + Send + Sync> {
        Box::new(BiasedMutant(Algorithm::Icws.build(seed, D, &cfg).expect("buildable")))
    };
    let verdict = conformance("biased-mutant", &build, truth, 0.0, reps());
    assert!(
        verdict.is_err(),
        "negative control failed: the mutant's inflated collisions went undetected"
    );
}

/// Negative controls for the beyond-the-paper samplers: the same truncated
/// mutant wrapped around DartMinHash and BagMinHash must also be rejected
/// at their zero allowance — proving the 14/15 rows of the conformance
/// wall have teeth, not just the original thirteen.
#[test]
fn biased_mutants_of_the_modern_samplers_fail_too() {
    let (s, t) = sets();
    let truth = generalized_jaccard(&s, &t);
    for algorithm in Algorithm::MODERN {
        let cfg = config(&s, &t);
        let build = move |seed: u64| -> Box<dyn Sketcher + Send + Sync> {
            Box::new(BiasedMutant(algorithm.build(seed, D, &cfg).expect("buildable")))
        };
        let verdict = conformance(algorithm.name(), &build, truth, allowance(algorithm), reps());
        assert!(
            verdict.is_err(),
            "negative control failed: a truncated {} went undetected",
            algorithm.name()
        );
    }
}

/// The catalog must contain exactly the paper's thirteen plus the two
/// beyond-the-paper samplers; a silently unregistered sketcher would
/// otherwise shrink every `ALL`-driven suite without failing anything.
/// `scripts/ci.sh` pins the same count through the CLI.
#[test]
fn catalog_pins_fifteen_algorithms() {
    assert_eq!(Algorithm::ALL.len(), 15);
    for name in ["DartMinHash", "BagMinHash"] {
        assert!(
            Algorithm::by_name(name).is_some_and(|a| Algorithm::MODERN.contains(&a)),
            "{name} missing from the catalog"
        );
    }
}
