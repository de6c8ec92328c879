//! Append-only JSON-lines checkpoints for the experiment runners.
//!
//! A checkpoint file makes a long sweep restartable: every completed unit
//! of work — one `(dataset, algorithm, repeat)` MSE measurement or one
//! `(dataset, algorithm, D)` timing — is appended as one JSON line and
//! fsynced, so a crash (power loss, OOM-kill, `kill -9`) costs at most the
//! unit that was in flight.
//!
//! ```text
//! {"kind":"meta","experiment":"mse","algorithms":[...],"scale":{...}}
//! {"kind":"mse_rep","dataset":"SynESS-1","algorithm":"ICWS","rep":0,"per_d":[...]}
//! {"kind":"mse_timeout","dataset":"SynESS-1","algorithm":"[Shrivastava, 2016]"}
//! {"kind":"mse_failed","dataset":"SynESS-1","algorithm":"Haveliwala2000","error":"budget-exhausted"}
//! {"kind":"mse_quarantined","dataset":"SynESS-1","algorithm":"ICWS","attempts":4,"error":"..."}
//! {"kind":"runtime","dataset":"SynESS-1","algorithm":"ICWS","d":10,"seconds":{"Value":0.5}}
//! ```
//!
//! The first line pins the experiment kind, the algorithm list, and the
//! full [`Scale`] (master seed included). On open, a file whose meta line
//! does not match the current configuration is discarded and restarted —
//! results measured under different parameters must never be mixed.
//!
//! The reader tolerates a *torn tail*: a final line cut short by a crash
//! (or any line without its trailing newline) is dropped, the file is
//! truncated back to the last complete record, and only that unit is
//! re-measured. Combined with the runners' seed discipline this makes a
//! resumed MSE run produce results identical to an uninterrupted one.

use crate::runner::{Measurement, RunnerError, Scale};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use wmh_fault::durable::{self, AppendFile, Points};
use wmh_json::{FromJson, Json, JsonError, ToJson};

/// One checkpointed unit of completed work.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// One completed MSE repeat: the per-`D` mean squared errors.
    MseRep {
        /// Dataset name.
        dataset: String,
        /// Algorithm catalog name.
        algorithm: String,
        /// Repeat index.
        rep: usize,
        /// MSE for each `scale.d_values` entry, in grid order.
        per_d: Vec<f64>,
    },
    /// A `(dataset, algorithm)` MSE cell that exhausted its budget.
    MseTimeout {
        /// Dataset name.
        dataset: String,
        /// Algorithm catalog name.
        algorithm: String,
    },
    /// A `(dataset, algorithm)` MSE cell whose algorithm returned a typed
    /// error; the recorded kind lets a resumed run reproduce the dash cell
    /// without re-running the failing algorithm.
    MseFailed {
        /// Dataset name.
        dataset: String,
        /// Algorithm catalog name.
        algorithm: String,
        /// The failure's classification.
        error: wmh_core::ErrorKind,
    },
    /// A `(dataset, algorithm)` MSE cell quarantined by the supervisor:
    /// every attempt failed transiently, the retry budget is spent, and
    /// the sweep moved on. A resumed run reproduces the dash cell
    /// (`transient-io`) without re-running the quarantined work.
    MseQuarantined {
        /// Dataset name.
        dataset: String,
        /// Algorithm catalog name.
        algorithm: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last transient failure, verbatim.
        error: String,
    },
    /// One completed runtime timing.
    Runtime {
        /// Dataset name.
        dataset: String,
        /// Algorithm catalog name.
        algorithm: String,
        /// Fingerprint length.
        d: usize,
        /// The measured seconds (or a recorded timeout).
        seconds: Measurement,
    },
}

impl ToJson for Entry {
    fn to_json(&self) -> Json {
        let kind = |k: &str| ("kind".to_owned(), Json::Str(k.to_owned()));
        match self {
            Self::MseRep { dataset, algorithm, rep, per_d } => Json::Obj(vec![
                kind("mse_rep"),
                ("dataset".to_owned(), dataset.to_json()),
                ("algorithm".to_owned(), algorithm.to_json()),
                ("rep".to_owned(), rep.to_json()),
                ("per_d".to_owned(), per_d.to_json()),
            ]),
            Self::MseTimeout { dataset, algorithm } => Json::Obj(vec![
                kind("mse_timeout"),
                ("dataset".to_owned(), dataset.to_json()),
                ("algorithm".to_owned(), algorithm.to_json()),
            ]),
            Self::MseFailed { dataset, algorithm, error } => Json::Obj(vec![
                kind("mse_failed"),
                ("dataset".to_owned(), dataset.to_json()),
                ("algorithm".to_owned(), algorithm.to_json()),
                ("error".to_owned(), Json::Str(error.as_str().to_owned())),
            ]),
            Self::MseQuarantined { dataset, algorithm, attempts, error } => Json::Obj(vec![
                kind("mse_quarantined"),
                ("dataset".to_owned(), dataset.to_json()),
                ("algorithm".to_owned(), algorithm.to_json()),
                ("attempts".to_owned(), attempts.to_json()),
                ("error".to_owned(), error.to_json()),
            ]),
            Self::Runtime { dataset, algorithm, d, seconds } => Json::Obj(vec![
                kind("runtime"),
                ("dataset".to_owned(), dataset.to_json()),
                ("algorithm".to_owned(), algorithm.to_json()),
                ("d".to_owned(), d.to_json()),
                ("seconds".to_owned(), seconds.to_json()),
            ]),
        }
    }
}

impl FromJson for Entry {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind = String::from_json(v.field("kind")?)?;
        match kind.as_str() {
            "mse_rep" => Ok(Self::MseRep {
                dataset: FromJson::from_json(v.field("dataset")?)?,
                algorithm: FromJson::from_json(v.field("algorithm")?)?,
                rep: FromJson::from_json(v.field("rep")?)?,
                per_d: FromJson::from_json(v.field("per_d")?)?,
            }),
            "mse_timeout" => Ok(Self::MseTimeout {
                dataset: FromJson::from_json(v.field("dataset")?)?,
                algorithm: FromJson::from_json(v.field("algorithm")?)?,
            }),
            "mse_failed" => {
                let name = String::from_json(v.field("error")?)?;
                let error = wmh_core::ErrorKind::parse(&name)
                    .ok_or_else(|| JsonError::Invalid(format!("unknown error kind {name:?}")))?;
                Ok(Self::MseFailed {
                    dataset: FromJson::from_json(v.field("dataset")?)?,
                    algorithm: FromJson::from_json(v.field("algorithm")?)?,
                    error,
                })
            }
            "mse_quarantined" => Ok(Self::MseQuarantined {
                dataset: FromJson::from_json(v.field("dataset")?)?,
                algorithm: FromJson::from_json(v.field("algorithm")?)?,
                attempts: FromJson::from_json(v.field("attempts")?)?,
                error: FromJson::from_json(v.field("error")?)?,
            }),
            "runtime" => Ok(Self::Runtime {
                dataset: FromJson::from_json(v.field("dataset")?)?,
                algorithm: FromJson::from_json(v.field("algorithm")?)?,
                d: FromJson::from_json(v.field("d")?)?,
                seconds: FromJson::from_json(v.field("seconds")?)?,
            }),
            other => Err(JsonError::Invalid(format!("unknown checkpoint record kind {other:?}"))),
        }
    }
}

/// The checkpoint's failpoints, at the steps [`Points`] names.
const POINTS: Points = Points {
    write: Some("checkpoint::write"),
    torn: Some("checkpoint::torn_write"),
    fsync: Some("checkpoint::fsync"),
    rename: None,
    sync_dir: Some("checkpoint::sync_dir"),
    rewind: Some("checkpoint::rewind"),
};

fn meta_line(experiment: &str, scale: &Scale, algorithms: &[String]) -> String {
    let meta = Json::Obj(vec![
        ("kind".to_owned(), Json::Str("meta".to_owned())),
        ("experiment".to_owned(), Json::Str(experiment.to_owned())),
        ("algorithms".to_owned(), algorithms.to_json()),
        ("scale".to_owned(), scale.to_json()),
    ]);
    wmh_json::to_string(&meta)
}

/// An open checkpoint: the already-completed units plus an append handle.
#[derive(Debug)]
pub struct Checkpoint {
    /// Ends at the last complete, synced record.
    file: AppendFile,
    resumed_units: usize,
    mse_reps: HashMap<(String, String, usize), Vec<f64>>,
    mse_timeouts: HashSet<(String, String)>,
    mse_failures: HashMap<(String, String), wmh_core::ErrorKind>,
    mse_quarantines: HashMap<(String, String), (u32, String)>,
    runtime: HashMap<(String, String, usize), Measurement>,
}

impl Checkpoint {
    /// Open (or create) the checkpoint at `path` for the given experiment
    /// configuration. Parent directories are created as needed.
    ///
    /// An existing file is resumed only when its meta line matches
    /// `(experiment, algorithms, scale)` exactly; otherwise it is reset —
    /// a checkpoint from different parameters would poison the results.
    /// A torn final line is discarded and the file truncated back to the
    /// last complete record. A fresh file's meta line and directory entry
    /// are synced before this returns.
    ///
    /// # Errors
    /// [`RunnerError::Checkpoint`] on I/O failure.
    pub fn open(
        path: &Path,
        experiment: &str,
        scale: &Scale,
        algorithms: &[String],
    ) -> Result<Self, RunnerError> {
        let io = |e: std::io::Error| RunnerError::Checkpoint(format!("{}: {e}", path.display()));
        std::fs::create_dir_all(durable::parent_dir(path)).map_err(io)?;
        let expected_meta = meta_line(experiment, scale, algorithms);
        let existing = match std::fs::read(path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io(e)),
        };

        // Walk complete (newline-terminated) lines; stop at the first one
        // that does not parse — everything after it is a torn tail.
        let mut entries = Vec::new();
        let mut valid_len = 0usize;
        let mut meta_matches = false;
        let mut pos = 0usize;
        while let Some(nl) = existing[pos..].find('\n') {
            let line = &existing[pos..pos + nl];
            let line_end = pos + nl + 1;
            if pos == 0 {
                // Meta line: must re-render to exactly the expected meta.
                let ok = wmh_json::from_str::<Json>(line)
                    .is_ok_and(|v| wmh_json::to_string(&v) == expected_meta);
                if !ok {
                    break;
                }
                meta_matches = true;
            } else {
                match wmh_json::from_str::<Entry>(line) {
                    Ok(e) => entries.push(e),
                    Err(_) => break,
                }
            }
            valid_len = line_end;
            pos = line_end;
        }
        let file = if meta_matches {
            AppendFile::open(path, valid_len as u64, POINTS)
        } else {
            // Fresh or stale: restart the file from scratch.
            entries.clear();
            AppendFile::create(path, format!("{expected_meta}\n").as_bytes(), POINTS)
        }
        .map_err(io)?;

        let mut ckpt = Self {
            file,
            resumed_units: entries.len(),
            mse_reps: HashMap::new(),
            mse_timeouts: HashSet::new(),
            mse_failures: HashMap::new(),
            mse_quarantines: HashMap::new(),
            runtime: HashMap::new(),
        };
        for e in entries {
            ckpt.index(e);
        }
        Ok(ckpt)
    }

    fn index(&mut self, e: Entry) {
        match e {
            Entry::MseRep { dataset, algorithm, rep, per_d } => {
                self.mse_reps.insert((dataset, algorithm, rep), per_d);
            }
            Entry::MseTimeout { dataset, algorithm } => {
                self.mse_timeouts.insert((dataset, algorithm));
            }
            Entry::MseFailed { dataset, algorithm, error } => {
                self.mse_failures.insert((dataset, algorithm), error);
            }
            Entry::MseQuarantined { dataset, algorithm, attempts, error } => {
                self.mse_quarantines.insert((dataset, algorithm), (attempts, error));
            }
            Entry::Runtime { dataset, algorithm, d, seconds } => {
                self.runtime.insert((dataset, algorithm, d), seconds);
            }
        }
    }

    /// Units loaded from a pre-existing file (0 for a fresh checkpoint).
    #[must_use]
    pub fn resumed_units(&self) -> usize {
        self.resumed_units
    }

    /// The per-`D` MSEs of a completed repeat, if checkpointed.
    #[must_use]
    pub fn mse_rep(&self, dataset: &str, algorithm: &str, rep: usize) -> Option<&[f64]> {
        self.mse_reps.get(&(dataset.to_owned(), algorithm.to_owned(), rep)).map(Vec::as_slice)
    }

    /// Whether the `(dataset, algorithm)` MSE cell recorded a timeout.
    #[must_use]
    pub fn mse_timed_out(&self, dataset: &str, algorithm: &str) -> bool {
        self.mse_timeouts.contains(&(dataset.to_owned(), algorithm.to_owned()))
    }

    /// The recorded failure kind of a `(dataset, algorithm)` MSE cell.
    #[must_use]
    pub fn mse_failed(&self, dataset: &str, algorithm: &str) -> Option<wmh_core::ErrorKind> {
        self.mse_failures.get(&(dataset.to_owned(), algorithm.to_owned())).copied()
    }

    /// The recorded quarantine of a `(dataset, algorithm)` MSE cell:
    /// `(attempts, last transient error)`.
    #[must_use]
    pub fn mse_quarantined(&self, dataset: &str, algorithm: &str) -> Option<(u32, &str)> {
        self.mse_quarantines
            .get(&(dataset.to_owned(), algorithm.to_owned()))
            .map(|(attempts, error)| (*attempts, error.as_str()))
    }

    /// The checkpointed timing of a `(dataset, algorithm, D)` cell.
    #[must_use]
    pub fn runtime_seconds(&self, dataset: &str, algorithm: &str, d: usize) -> Option<Measurement> {
        self.runtime.get(&(dataset.to_owned(), algorithm.to_owned(), d)).copied()
    }

    /// Append one completed unit and flush it to disk before returning.
    ///
    /// A failed append is rewound ([`AppendFile::append`]), so a retry
    /// never leaves a torn line mid-file, where the open-time repair could
    /// not remove it; a failed rewind poisons the checkpoint.
    ///
    /// # Errors
    /// [`RunnerError::Checkpoint`] on I/O failure.
    pub fn append(&mut self, entry: &Entry) -> Result<(), RunnerError> {
        let mut line = wmh_json::to_string(entry);
        line.push('\n');
        self.file
            .append(line.as_bytes())
            .map_err(|e| RunnerError::Checkpoint(format!("append: {e}")))?;
        self.index(entry.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_mse, run_mse_with, run_runtime_with, RunOptions};
    use wmh_core::Algorithm;

    fn small_scale() -> Scale {
        let mut s = Scale::tiny();
        s.datasets.truncate(1);
        s
    }

    #[test]
    fn entry_json_roundtrip() {
        let entries = [
            Entry::MseRep {
                dataset: "ds".into(),
                algorithm: "ICWS".into(),
                rep: 3,
                per_d: vec![0.5, 0.25],
            },
            Entry::MseTimeout { dataset: "ds".into(), algorithm: "X".into() },
            Entry::MseFailed {
                dataset: "ds".into(),
                algorithm: "Haveliwala2000".into(),
                error: wmh_core::ErrorKind::BudgetExhausted,
            },
            Entry::MseQuarantined {
                dataset: "ds".into(),
                algorithm: "ICWS".into(),
                attempts: 4,
                error: "injected fault at sweep::cell".into(),
            },
            Entry::Runtime {
                dataset: "ds".into(),
                algorithm: "ICWS".into(),
                d: 10,
                seconds: Measurement::Value(1.5),
            },
            Entry::Runtime {
                dataset: "ds".into(),
                algorithm: "X".into(),
                d: 20,
                seconds: Measurement::TimedOut,
            },
        ];
        for e in &entries {
            let text = wmh_json::to_string(e);
            let back: Entry = wmh_json::from_str(&text).expect("entry");
            assert_eq!(&back, e);
        }
    }

    #[test]
    fn fresh_checkpoint_starts_with_a_matching_meta_line() {
        let path = wmh_check::scratch("ckpt").join("fresh.jsonl");
        let scale = small_scale();
        let algos = vec!["ICWS".to_owned()];
        let c = Checkpoint::open(&path, "mse", &scale, &algos).expect("open");
        assert_eq!(c.resumed_units(), 0);
        drop(c);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with(r#"{"kind":"meta","experiment":"mse""#));
        // Reopening with the same config resumes (still zero units).
        let c = Checkpoint::open(&path, "mse", &scale, &algos).expect("reopen");
        assert_eq!(c.resumed_units(), 0);
    }

    #[test]
    fn mismatched_meta_resets_the_file() {
        let path = wmh_check::scratch("ckpt").join("stale.jsonl");
        let scale = small_scale();
        let algos = vec!["ICWS".to_owned()];
        let mut c = Checkpoint::open(&path, "mse", &scale, &algos).expect("open");
        c.append(&Entry::MseTimeout { dataset: "ds".into(), algorithm: "ICWS".into() })
            .expect("append");
        drop(c);
        // Different seed → different run → the old units must not leak in.
        let mut other = scale.clone();
        other.seed ^= 1;
        let c = Checkpoint::open(&path, "mse", &other, &algos).expect("open stale");
        assert_eq!(c.resumed_units(), 0);
        assert!(!c.mse_timed_out("ds", "ICWS"));
    }

    #[test]
    fn checkpointed_mse_run_matches_plain_run_exactly() {
        let scale = small_scale();
        let algos = [Algorithm::MinHash, Algorithm::Icws];
        let plain = run_mse(&scale, &algos).expect("plain");
        let path = wmh_check::scratch("ckpt").join("mse_match.jsonl");
        let opts = RunOptions::checkpointed(&path);
        let ckpted = run_mse_with(&scale, &algos, &opts).expect("checkpointed");
        assert_eq!(wmh_json::to_string(&plain), wmh_json::to_string(&ckpted));
        // A second run resumes everything from the checkpoint and still
        // produces byte-identical JSON.
        let resumed = run_mse_with(&scale, &algos, &opts).expect("resumed");
        assert_eq!(wmh_json::to_string(&plain), wmh_json::to_string(&resumed));
    }

    #[test]
    fn truncated_checkpoint_resumes_to_identical_results() {
        // Simulates a crash: the checkpoint loses its tail, including a
        // torn (half-written) final line. The resumed run must re-measure
        // only the missing units and reproduce the exact same report.
        let scale = small_scale();
        let algos = [Algorithm::MinHash, Algorithm::Icws];
        let path = wmh_check::scratch("ckpt").join("mse_torn.jsonl");
        let opts = RunOptions::checkpointed(&path);
        let full = run_mse_with(&scale, &algos, &opts).expect("full run");

        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "expected meta + several unit records");
        // Keep the meta line and the first completed unit, then a torn
        // fragment of the next line.
        let mut damaged = format!("{}\n{}\n", lines[0], lines[1]);
        damaged.push_str(&lines[2][..lines[2].len() / 2]);
        std::fs::write(&path, &damaged).expect("write damage");

        let resumed = run_mse_with(&scale, &algos, &opts).expect("resumed");
        assert_eq!(wmh_json::to_string(&full), wmh_json::to_string(&resumed));
        // The torn line was dropped from the file before new appends.
        let repaired = std::fs::read_to_string(&path).expect("reread");
        for line in repaired.lines().skip(1) {
            assert!(wmh_json::from_str::<Entry>(line).is_ok(), "unparseable line {line:?}");
        }
    }

    #[test]
    fn failed_cells_are_checkpointed_and_resumed() {
        let mut scale = small_scale();
        scale.quantization_constant = -1.0; // Haveliwala fails at build
        let algos = [Algorithm::Haveliwala2000, Algorithm::Icws];
        let path = wmh_check::scratch("ckpt").join("mse_failed.jsonl");
        let opts = RunOptions::checkpointed(&path);
        let first = run_mse_with(&scale, &algos, &opts).expect("first");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains(r#""kind":"mse_failed""#), "failure not recorded: {text}");
        // The resumed run reproduces the dash cells from the checkpoint
        // without re-running the failing algorithm.
        let resumed = run_mse_with(&scale, &algos, &opts).expect("resumed");
        assert_eq!(wmh_json::to_string(&first), wmh_json::to_string(&resumed));
    }

    #[test]
    fn runtime_checkpoint_reuses_timings_verbatim() {
        let mut scale = small_scale();
        scale.d_values = vec![10];
        let algos = [Algorithm::MinHash, Algorithm::Icws];
        let path = wmh_check::scratch("ckpt").join("runtime.jsonl");
        let opts = RunOptions::checkpointed(&path);
        let first = run_runtime_with(&scale, &algos, &opts).expect("first");
        let second = run_runtime_with(&scale, &algos, &opts).expect("second");
        // Wall-clock timings are not reproducible, so byte-equality here
        // proves the second run loaded them instead of re-measuring.
        assert_eq!(wmh_json::to_string(&first), wmh_json::to_string(&second));
    }
}
