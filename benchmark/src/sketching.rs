//! Batch sketching throughput of the four headline algorithms (the paper's
//! Figure 9 task at the serving `D`), measured in process and bypassing
//! `wmh-serve` entirely: a kernel change moves these numbers, a serving
//! change must not.

use std::time::{Duration, Instant};

use wmh_core::{Algorithm, AlgorithmConfig, CodeBatch, SketchScratch, Sketcher};
use wmh_sets::WeightedSet;

use crate::loadgen::median;

/// The serving fingerprint length.
pub const D: usize = 128;
/// Sketcher seed (program configuration, not a workload input).
pub const SKETCH_SEED: u64 = 0x5EED_0128;
/// Documents per `sketch_batch_into` call.
pub const BATCH: usize = 32;
/// Documents whose batch codes are checked against `sketch` and digested.
const CHECKED: usize = 64;

/// The candidates for the serving sketcher, with their metric slugs.
pub const HEADLINE: [(Algorithm, &str); 4] = [
    (Algorithm::Icws, "icws"),
    (Algorithm::Ccws, "ccws"),
    (Algorithm::ZeroBitCws, "0bit_cws"),
    (Algorithm::DartMinHash, "dart"),
];

/// Batch sketching of one corpus, measured in short slices spread over
/// the run: host noise that lasts a few seconds then hits only some
/// slices, and the median over all batches stays put.
pub struct SketchBench<'a> {
    corpus: &'a [WeightedSet],
    sketchers: Vec<Box<dyn Sketcher + Send + Sync>>,
    out: Vec<CodeBatch>,
    scratch: Vec<SketchScratch>,
    next: usize,
    /// Per-batch docs/s, per [`HEADLINE`] algorithm.
    samples: [Vec<f64>; 4],
    /// FNV-1a digest of the checked documents' codes, per algorithm.
    pub digests: [u64; 4],
    /// Checked documents whose batch codes differ from `sketch` codes.
    pub mismatches: usize,
}

/// Build a catalog sketcher at the serving shape.
///
/// # Panics
/// When the catalog rejects its own default configuration.
#[must_use]
pub fn build(algorithm: Algorithm, config: &AlgorithmConfig) -> Box<dyn Sketcher + Send + Sync> {
    algorithm.build(SKETCH_SEED, D, config).expect("catalog builds at the serving shape")
}

impl<'a> SketchBench<'a> {
    /// Build the four sketchers, check that `sketch_batch_into` codes equal
    /// `sketch` codes on the first documents, and digest those codes.
    ///
    /// # Errors
    /// Any sketching error (the workloads are chosen so none occurs).
    pub fn new(corpus: &'a [WeightedSet]) -> Result<Self, String> {
        let config = AlgorithmConfig::default();
        let mut bench = Self {
            corpus,
            sketchers: HEADLINE.iter().map(|&(a, _)| build(a, &config)).collect(),
            out: (0..4).map(|_| CodeBatch::new()).collect(),
            scratch: (0..4).map(|_| SketchScratch::new()).collect(),
            next: 0,
            samples: Default::default(),
            digests: [0; 4],
            mismatches: 0,
        };
        let checked = &corpus[..CHECKED.min(corpus.len())];
        for k in 0..4 {
            let (sketcher, out) = (&bench.sketchers[k], &mut bench.out[k]);
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for (c, chunk) in checked.chunks(BATCH).enumerate() {
                sketcher
                    .sketch_batch_into(chunk, out, &mut bench.scratch[k])
                    .map_err(|e| e.to_string())?;
                for (i, doc) in chunk.iter().enumerate() {
                    let single = sketcher.sketch(doc).map_err(|e| e.to_string())?;
                    if single.codes != out.row(i) {
                        bench.mismatches += 1;
                        eprintln!("mismatch: {} doc {}", sketcher.name(), c * BATCH + i);
                    }
                    for &code in out.row(i) {
                        h = (h ^ code).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
            bench.digests[k] = h;
        }
        Ok(bench)
    }

    /// Sketch [`BATCH`]-document batches through `sketch_batch_into`,
    /// round-robin across the four algorithms, for `window` (at least one
    /// round) — so a slow moment of the host hits all four alike.
    ///
    /// # Errors
    /// Any sketching error.
    pub fn slice(&mut self, window: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if self.next + BATCH > self.corpus.len() {
                self.next = 0;
            }
            let batch = &self.corpus[self.next..(self.next + BATCH).min(self.corpus.len())];
            self.next += BATCH;
            for k in 0..4 {
                let t = Instant::now();
                self.sketchers[k]
                    .sketch_batch_into(
                        std::hint::black_box(batch),
                        &mut self.out[k],
                        &mut self.scratch[k],
                    )
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(self.out[k].as_flat());
                self.samples[k].push(batch.len() as f64 / t.elapsed().as_secs_f64());
            }
            if start.elapsed() >= window {
                return Ok(());
            }
        }
    }

    /// Median per-batch docs/s per [`HEADLINE`] algorithm.
    #[must_use]
    pub fn docs_per_s(&self) -> [f64; 4] {
        std::array::from_fn(|k| median(&self.samples[k]))
    }

    /// Batches sketched so far.
    #[must_use]
    pub fn batches(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}
