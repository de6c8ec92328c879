//! Automated crash/resume verification — the promotion of the manual
//! `kill -9` experiment into CI.
//!
//! A SIGKILL mid-sweep leaves the checkpoint with a *torn tail*: the last
//! append may be half-written, and anything after the last fsynced record
//! is garbage. [`ChaosBuf`] reproduces exactly that (random truncation
//! plus optional garbage suffix); the resumed run must still produce
//! **byte-identical** final results JSON, because every random quantity
//! re-derives from the master seed.

use wmh_check::chaos::ChaosBuf;
use wmh_check::scratch;
use wmh_check::Gen;
use wmh_core::Algorithm;
use wmh_eval::{runner, RunOptions, Scale};

#[test]
fn chaos_corrupted_checkpoint_tail_resumes_to_identical_json() {
    let scale = Scale::tiny();
    let algorithms = [
        Algorithm::MinHash,
        Algorithm::Haveliwala2000,
        Algorithm::Icws,
        Algorithm::GollapudiThreshold,
        Algorithm::Chum2008,
    ];
    let dir = scratch("resume_chaos");
    let ck = dir.join("fig8.jsonl");

    // Reference: a checkpoint-free run.
    let reference =
        runner::run_mse_with(&scale, &algorithms, &RunOptions::default()).expect("reference run");
    let reference_json = wmh_json::to_string(&reference);

    // A complete checkpointed run leaves a fully written log behind.
    let full = runner::run_mse_with(&scale, &algorithms, &RunOptions::checkpointed(&ck))
        .expect("checkpointed run");
    assert_eq!(wmh_json::to_string(&full), reference_json, "checkpointing changed results");
    let pristine = std::fs::read(&ck).expect("checkpoint bytes");
    assert!(!pristine.is_empty());

    // Crash simulation: cut the log at a random point (any prefix is a
    // state some SIGKILL could have left) and sometimes smear garbage
    // over the torn edge. Resume must repair and reproduce exactly.
    let mut g = Gen::new(0xC4A0_5EED);
    for case in 0..8u32 {
        let mut buf = ChaosBuf::new(pristine.clone());
        buf.truncate_random(&mut g);
        if g.bool(0.5) {
            buf.garbage_suffix(&mut g, 64);
        }
        std::fs::write(&ck, buf.as_slice()).expect("write corrupted checkpoint");
        let threads = [1, 2, 8][case as usize % 3];
        let opts = RunOptions::checkpointed(&ck).with_threads(threads);
        let resumed = runner::run_mse_with(&scale, &algorithms, &opts)
            .unwrap_or_else(|e| panic!("case {case}: resume failed: {e}"));
        assert_eq!(
            wmh_json::to_string(&resumed),
            reference_json,
            "case {case} ({threads} threads): resumed results diverged ({:?})",
            buf.mutations()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_checkpoint_from_other_parameters_is_ignored() {
    // Resuming with a different scale must reset, not poison, the run.
    let dir = scratch("resume_stale");
    let ck = dir.join("fig8.jsonl");
    let algorithms = [Algorithm::MinHash, Algorithm::Icws];

    let mut small = Scale::tiny();
    small.repeats = 1;
    runner::run_mse_with(&small, &algorithms, &RunOptions::checkpointed(&ck)).expect("first run");

    let scale = Scale::tiny();
    let reference =
        runner::run_mse_with(&scale, &algorithms, &RunOptions::default()).expect("reference");
    let resumed = runner::run_mse_with(&scale, &algorithms, &RunOptions::checkpointed(&ck))
        .expect("resumed run");
    assert_eq!(wmh_json::to_string(&resumed), wmh_json::to_string(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}
