//! The repository benchmark: what a user of the sketching kernels and of
//! `wmh-serve` sees, end to end, and what each layer contributes.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload query-short --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run prints an environment block, per-phase outcome tables, every
//! metric with its unit and every correctness check, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced per-layer
//! profile instead and writes its spans to a TSV file. The process exits
//! nonzero when any check fails. See `benchmark/README.md`.

mod corpus;
mod e2e;
mod env;
mod layers;
mod loadgen;
mod serving;
mod sketching;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use wmh_json::Json;

/// One named workload: a corpus and a traffic mix.
pub struct Spec {
    /// CLI name.
    pub name: &'static str,
    /// Input generator (the program only ever sees its output).
    pub inputs: fn(u64) -> corpus::Inputs,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// 80% reads on one connection and 20% writes on the other, with
    /// periodic snapshots and a background scrubber; otherwise reads
    /// alternate over both connections.
    pub mixed: bool,
    /// Lowest acceptable recall@10: the lowest value recorded over seeds
    /// 100..=129 and the checked-in results, minus 0.02, rounded down.
    /// `query-long` always reads 0.1: each query's only near neighbour is
    /// itself.
    pub recall_floor: f64,
}

/// The workloads. Rates sit below the ~22 rps at which two connections
/// collapse into the back-to-back delayed-ACK stall (about 88 ms per
/// request on loopback), so every phase measures latency, not a growing
/// backlog. No connection's request spacing is a whole number of the
/// kernel's 4 ms timer ticks (125 ms per connection at 16 rps, 97.1 ms at
/// 10.3 rps): at 100 ms every request lands at the same tick phase and the
/// whole run reads ~2 ms high or low.
pub const WORKLOADS: [Spec; 3] = [
    Spec { name: "query-long", inputs: corpus::long, rate: 16.0, mixed: false, recall_floor: 0.08 },
    Spec {
        name: "query-short",
        inputs: corpus::short,
        rate: 16.0,
        mixed: false,
        recall_floor: 0.74,
    },
    Spec { name: "mixed-rw", inputs: corpus::short, rate: 10.3, mixed: true, recall_floor: 0.74 },
];

/// Parsed command line.
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Run the traced per-layer profile.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_file: Option<PathBuf>,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
}

const USAGE: &str = "usage: wmh-benchmark --workload <query-long|query-short|mixed-rw|all> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-file PATH] [--smoke]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Self {
            workload: String::new(),
            seed: 1,
            seconds: 24.0,
            trace: false,
            trace_file: None,
            setups: 3,
        };
        let mut smoke = false;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        if smoke {
            args.seconds /= 10.0;
            args.setups = 1;
        }
        Ok(args)
    }
}

/// Everything one run reports.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new() -> Self {
        Self { correct: true, attempted: 0, failed: 0, metrics: Vec::new() }
    }

    /// Record and print a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name} = {value:.6} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Record and print a correctness check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        println!("check {name}: {} ({detail})", if ok { "PASS" } else { "FAIL" });
        self.correct &= ok;
    }

    /// Count operations attempted and failed.
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_owned(), Json::F64(*value)),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ];
                (name.clone(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Where runs keep their WAL, store and span files: inside the checkout.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for spec in WORKLOADS.iter().filter(|w| args.workload == "all" || w.name == args.workload) {
        println!("env {}", env::block(spec.name, args.seed).render());
        println!(
            "workload {} seed {} seconds {} trace {}",
            spec.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let mut report = Report::new();
        let run = if args.trace {
            layers::run(spec, &args, &mut report)
        } else {
            e2e::run(spec, &args, &mut report)
        };
        if let Err(e) = run {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
        all_correct &= report.correct;
        println!("{}", report.json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
