//! The sweep supervisor's contract, pinned under fault injection:
//! deadlines are terminal (never retried), quarantines checkpoint and
//! resume byte-identically, failed checkpoint appends rewind cleanly (and
//! poison the checkpoint when the rewind fails), a fresh checkpoint syncs
//! its directory, and the backoff jitter is thread-count-independent.
//!
//! Every test that runs a sweep enters its own [`wmh_fault::scenario`] —
//! including "fault-free" phases, which use a never-firing probe whose
//! counters the assertions read — and the sweep's threads carry it, so
//! scenarios never leak between concurrently scheduled tests.

use std::time::Duration;
use wmh_check::scratch;
use wmh_core::Algorithm;
use wmh_eval::checkpoint::{Checkpoint, Entry};
use wmh_eval::{runner, Measurement, MseCell, RetryPolicy, RunOptions, RuntimeCell, Scale};

fn small_scale() -> Scale {
    let mut s = Scale::tiny();
    s.datasets.truncate(1);
    s
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(1),
    }
}

/// Regression for the supervisor's core rule: a cell that hits its
/// deadline is terminal — even with an always-failing transient fault
/// armed, zero retries happen — and the timed-out dash cells survive a
/// checkpoint resume byte-identically.
#[test]
fn timed_out_cells_are_terminal_and_never_retried() {
    let mut scale = small_scale();
    scale.budget.cell_wall_clock = Some(Duration::from_secs(0));
    let algos = [Algorithm::MinHash, Algorithm::Icws];
    let path = scratch("supervision").join("terminal_timeout.jsonl");
    let opts = RunOptions::checkpointed(&path).with_retry(fast_retry());

    let first: Vec<MseCell> = {
        // An armed transient fault that MUST lose to the deadline check.
        let g = wmh_fault::scenario("sweep::cell=always", 1).expect("scenario");
        let cells = runner::run_mse_with(&scale, &algos, &opts).expect("sweep");
        assert_eq!(g.hits("sweep::retry"), 0, "a timed-out cell must never enter the retry path");
        assert_eq!(g.fired("sweep::cell"), 0, "deadline must precede the fault hook");
        cells
    };
    assert_eq!(first.len(), scale.datasets.len() * algos.len() * scale.d_values.len());
    assert!(first.iter().all(|c| c.mse == Measurement::TimedOut), "{first:?}");

    // Resume without any scenario: the dashes come from the checkpoint.
    let probe = wmh_fault::scenario("sweep::retry=never", 1).expect("probe");
    let resumed = runner::run_mse_with(&scale, &algos, &opts).expect("resumed");
    assert_eq!(wmh_json::to_string(&first), wmh_json::to_string(&resumed));

    // The runtime (Figure 9) engine honors the same per-unit deadline:
    // every cell dashes, the grid stays complete.
    let rcells: Vec<RuntimeCell> =
        runner::run_runtime_with(&scale, &algos, &RunOptions::default().with_retry(fast_retry()))
            .expect("runtime");
    assert_eq!(rcells.len(), scale.datasets.len() * algos.len() * scale.d_values.len());
    assert!(rcells.iter().all(|c| c.seconds == Measurement::TimedOut), "{rcells:?}");
    assert_eq!(probe.hits("sweep::retry"), 0);
}

/// A persistent transient fault exhausts the retry budget, quarantines the
/// group as a `transient-io` dash, records it in the checkpoint, and a
/// fault-free resume honors the quarantine instead of re-running the cell.
#[test]
fn quarantined_cells_are_checkpointed_and_resumed() {
    let mut scale = small_scale();
    scale.repeats = 1;
    let algos = [Algorithm::MinHash, Algorithm::Icws];
    let path = scratch("supervision").join("quarantine.jsonl");
    let opts = RunOptions::checkpointed(&path).with_retry(fast_retry());

    let first = {
        let g = wmh_fault::scenario("sweep::cell@MinHash=always", 11).expect("scenario");
        let cells = runner::run_mse_with(&scale, &algos, &opts).expect("sweep survives");
        // max_retries = 2 → 3 attempts → 2 backoff sleeps for the one cell.
        assert_eq!(g.hits("sweep::retry"), 2);
        cells
    };
    for c in &first {
        if c.algorithm == "MinHash" {
            assert_eq!(c.mse, Measurement::Failed(wmh_core::ErrorKind::TransientIo), "{c:?}");
        } else {
            assert!(c.mse.value().is_some(), "the healthy algorithm must measure: {c:?}");
        }
    }
    let text = std::fs::read_to_string(&path).expect("read");
    assert!(text.contains(r#""kind":"mse_quarantined""#), "not recorded: {text}");
    assert!(text.contains(r#""attempts":3"#), "attempt count not recorded: {text}");

    let probe = wmh_fault::scenario("sweep::retry=never", 11).expect("probe");
    let resumed = runner::run_mse_with(&scale, &algos, &opts).expect("resumed");
    assert_eq!(wmh_json::to_string(&first), wmh_json::to_string(&resumed));
    assert_eq!(probe.hits("sweep::cell"), 0, "quarantined work must not re-run on resume");
}

/// The runtime engine quarantines the same way: persistent transient
/// faults on one algorithm dash its cells, the others still measure.
#[test]
fn runtime_cells_quarantine_under_persistent_faults() {
    let mut scale = small_scale();
    scale.d_values = vec![10];
    let algos = [Algorithm::MinHash, Algorithm::Icws];
    let _g = wmh_fault::scenario("sweep::cell@MinHash=always", 3).expect("scenario");
    let cells =
        runner::run_runtime_with(&scale, &algos, &RunOptions::default().with_retry(fast_retry()))
            .expect("runtime");
    for c in &cells {
        if c.algorithm == "MinHash" {
            assert_eq!(c.seconds, Measurement::Failed(wmh_core::ErrorKind::TransientIo), "{c:?}");
        } else {
            assert!(c.seconds.value().is_some(), "{c:?}");
        }
    }
}

/// A failed append rewinds the checkpoint to the last complete record, so
/// a retry leaves no torn line mid-file — for fail-fast write/fsync faults
/// and for a torn write that got half the record onto disk.
#[test]
fn failed_append_rewinds_so_a_retry_leaves_no_torn_line() {
    let path = scratch("supervision").join("append_rewind.jsonl");
    let scale = small_scale();
    let algos = vec!["ICWS".to_owned()];
    let mut c = Checkpoint::open(&path, "mse", &scale, &algos).expect("open");
    let entry = Entry::MseRep {
        dataset: "ds".into(),
        algorithm: "ICWS".into(),
        rep: 0,
        per_d: vec![0.5, 0.25],
    };
    {
        let _g = wmh_fault::scenario("checkpoint::torn_write=once", 7).expect("scenario");
        let err = c.append(&entry).expect_err("injected torn write");
        assert!(err.to_string().contains("checkpoint::torn_write"), "{err}");
        c.append(&entry).expect("retry after rewind");
    }
    drop(c);
    let text = std::fs::read_to_string(&path).expect("read");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "meta + exactly one record: {text:?}");
    assert_eq!(wmh_json::from_str::<Entry>(lines[1]).expect("record"), entry);
    assert!(text.ends_with('\n'), "no torn tail");

    // Fail-fast faults leave the file byte-for-byte untouched.
    for point in ["checkpoint::write", "checkpoint::fsync"] {
        let _g = wmh_fault::scenario(&format!("{point}=once"), 7).expect("scenario");
        let mut c = Checkpoint::open(&path, "mse", &scale, &algos).expect("reopen");
        let before = std::fs::metadata(&path).expect("meta").len();
        c.append(&entry).expect_err("injected failure");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), before, "{point}");
        c.append(&entry).expect("retry succeeds");
    }
}

/// A fresh checkpoint's directory entry is synced before `open` returns:
/// a failing directory sync is an open error and leaves no file behind,
/// so the retried open creates it again instead of resuming a file whose
/// name may not survive a power cut.
#[test]
fn fresh_checkpoint_open_fails_when_its_directory_sync_fails() {
    let path = scratch("supervision").join("fresh_sync_dir.jsonl");
    let scale = small_scale();
    let algos = vec!["ICWS".to_owned()];
    {
        let g = wmh_fault::scenario("checkpoint::sync_dir=once", 7).expect("scenario");
        let err = Checkpoint::open(&path, "mse", &scale, &algos).expect_err("injected dir sync");
        assert!(err.to_string().contains("checkpoint::sync_dir"), "{err}");
        assert!(!path.exists(), "a failed create must not leave the file");
        let c = Checkpoint::open(&path, "mse", &scale, &algos).expect("retry creates it");
        assert_eq!(c.resumed_units(), 0);
        assert_eq!(g.hits("checkpoint::sync_dir"), 2);
    }
    // Resuming an existing file creates nothing, so it syncs no directory.
    let g = wmh_fault::scenario("checkpoint::sync_dir=always", 7).expect("scenario");
    Checkpoint::open(&path, "mse", &scale, &algos).expect("resume");
    assert_eq!(g.hits("checkpoint::sync_dir"), 0);
}

/// A failed append whose rewind fails too poisons the checkpoint: the
/// torn half-line stays, every later append is refused without touching
/// the file, and a reopen cuts the torn tail and resumes the complete
/// records.
#[test]
fn failed_rewind_poisons_appends_until_a_reopen_cuts_the_tail() {
    let path = scratch("supervision").join("poisoned.jsonl");
    let scale = small_scale();
    let algos = vec!["ICWS".to_owned()];
    let entry = |rep| Entry::MseRep {
        dataset: "ds".into(),
        algorithm: "ICWS".into(),
        rep,
        per_d: vec![0.5, 0.25],
    };
    let mut c = Checkpoint::open(&path, "mse", &scale, &algos).expect("open");
    c.append(&entry(0)).expect("clean append");
    let complete = std::fs::metadata(&path).expect("meta").len();
    {
        let g = wmh_fault::scenario("checkpoint::torn_write=once;checkpoint::rewind=once", 7)
            .expect("scenario");
        c.append(&entry(1)).expect_err("injected torn write");
        assert_eq!(g.fired("checkpoint::rewind"), 1);
    }
    let torn = std::fs::metadata(&path).expect("meta").len();
    assert!(torn > complete, "the torn half-line stays on disk");
    let err = c.append(&entry(1)).expect_err("poisoned");
    assert!(err.to_string().contains("poisoned"), "{err}");
    assert_eq!(std::fs::metadata(&path).expect("meta").len(), torn, "nothing lands after it");
    drop(c);

    let mut c = Checkpoint::open(&path, "mse", &scale, &algos).expect("reopen");
    assert_eq!(c.resumed_units(), 1);
    assert_eq!(std::fs::metadata(&path).expect("meta").len(), complete, "the tail was cut");
    c.append(&entry(1)).expect("appends resume");
    assert_eq!(c.mse_rep("ds", "ICWS", 1), Some(&[0.5, 0.25][..]));
}

/// The backoff jitter is a pure function of `(seed, cell, attempt)`:
/// hammering it from many threads at once yields exactly the values a
/// single thread computes, so retry schedules cannot depend on the
/// sweep's thread count.
#[test]
fn backoff_jitter_is_identical_across_thread_counts() {
    let policy = RetryPolicy::default();
    let seed = 0xDECAF;
    let expected: Vec<Vec<Duration>> = (0..16u64)
        .map(|cell| (1..=5u32).map(|attempt| policy.backoff(seed, cell, attempt)).collect())
        .collect();
    for threads in [1, 4, 8] {
        wmh_check::stress::hammer(threads, 200, |_, _| {
            for (cell, row) in expected.iter().enumerate() {
                for (ai, &want) in row.iter().enumerate() {
                    let got = policy.backoff(seed, cell as u64, ai as u32 + 1);
                    assert_eq!(got, want, "cell {cell}, attempt {}", ai + 1);
                }
            }
        });
    }
}
