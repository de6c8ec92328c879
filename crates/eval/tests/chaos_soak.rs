//! Chaos soak: the Figure 8 sweep under randomized failpoint schedules.
//!
//! The supervision claim under test: when every injected fault is
//! *transient* — counter-scheduled failures that succeed on retry, plus
//! worker delays that only shuffle the schedule — a sweep under chaos
//! finishes and produces **byte-identical** results to a fault-free run,
//! at any thread count. Failure triggers use `1inN` (counter) schedules
//! rather than probabilities: a `1inN` point never fires on the hit
//! immediately after it fired, so a single retry always clears it and no
//! schedule can push a cell into quarantine.
//!
//! Every chaos sweep runs under its own [`wmh_fault::scenario`]; the
//! sweep's pool tasks and committer carry it, so scenarios cannot leak
//! across concurrently scheduled tests.

use std::time::Duration;
use wmh_check::scratch;
use wmh_core::Algorithm;
use wmh_eval::{runner, Measurement, RetryPolicy, RunOptions, Scale};

/// Transient-only chaos: sweep cells fail every 3rd hit, checkpoint writes
/// every 4th, fsyncs tear every 5th, and a fifth of all pool tasks are
/// delayed. Everything recovers on one retry.
const TRANSIENT_CHAOS: &str = "sweep::cell=1in3;checkpoint::write=1in4;\
                               checkpoint::torn_write=1in5;par::worker_delay=p0.2:sleep300us";

fn soak_scale() -> Scale {
    Scale::tiny()
}

fn fast_retry() -> RetryPolicy {
    // The `1inN` counters are shared across cells, so an adversarial
    // interleaving can route several fires at one cell. Total fires are
    // bounded (hits/N, retries included), so a budget above that bound
    // makes quarantine impossible — which the byte-identity assertion
    // needs.
    RetryPolicy {
        max_retries: 8,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
    }
}

#[test]
fn transient_chaos_is_byte_identical_to_a_fault_free_run() {
    let scale = soak_scale();
    let algos = [Algorithm::MinHash, Algorithm::Icws, Algorithm::Chum2008];

    // Fault-free baseline, single-threaded, under no scenario at all.
    let baseline = {
        let opts = RunOptions::default().with_threads(1).with_retry(fast_retry());
        wmh_json::to_string(&runner::run_mse_with(&scale, &algos, &opts).expect("baseline"))
    };

    // CI pins an extra seed via WMH_FAULT_SEED (see scripts/ci.sh); the
    // byte-identity claim is seed-independent, so any seed must pass.
    let mut seeds = vec![0x51u64, 0x52, 0x53];
    if let Some(pinned) = wmh_fault::env_seed().expect("WMH_FAULT_SEED") {
        seeds.push(pinned);
    }

    let dir = scratch("chaos-soak");
    let mut any_faults_fired = false;
    let mut any_retries = false;
    for seed in seeds {
        for threads in [1usize, 8] {
            let path = dir.join(format!("soak_{seed:x}_{threads}.jsonl"));
            let g = wmh_fault::scenario(TRANSIENT_CHAOS, seed).expect("scenario");
            let opts =
                RunOptions::checkpointed(&path).with_threads(threads).with_retry(fast_retry());
            let cells =
                runner::run_mse_with(&scale, &algos, &opts).expect("chaos sweep must finish");
            assert_eq!(
                wmh_json::to_string(&cells),
                baseline,
                "seed {seed:#x}, {threads} threads: transient chaos changed the results"
            );
            any_faults_fired |= g.fired("sweep::cell") > 0
                || g.fired("checkpoint::write") > 0
                || g.fired("checkpoint::torn_write") > 0;
            any_retries |= g.hits("sweep::retry") > 0;
            // Nothing may be left quarantined or timed out: the grid holds
            // measured values only.
            assert!(
                cells.iter().all(|c| matches!(c.mse, Measurement::Value(_))),
                "seed {seed:#x}, {threads} threads: {cells:?}"
            );
        }
    }
    assert!(any_faults_fired, "the chaos schedule never fired — the soak tested nothing");
    assert!(any_retries, "no retry ever happened — the supervisor was never exercised");
}

/// A chaos-interrupted checkpoint must still resume: run once under chaos,
/// then resume fault-free and byte-identically.
#[test]
fn chaos_checkpoints_resume_cleanly() {
    let scale = soak_scale();
    let algos = [Algorithm::MinHash, Algorithm::Icws];
    let path = scratch("chaos-soak").join("resume.jsonl");
    let opts = RunOptions::checkpointed(&path).with_threads(2).with_retry(fast_retry());
    let under_chaos = {
        let _g = wmh_fault::scenario(TRANSIENT_CHAOS, 0x99).expect("scenario");
        wmh_json::to_string(&runner::run_mse_with(&scale, &algos, &opts).expect("chaos run"))
    };
    let probe = wmh_fault::scenario("sweep::retry=never", 0).expect("probe");
    let resumed =
        wmh_json::to_string(&runner::run_mse_with(&scale, &algos, &opts).expect("resume"));
    assert_eq!(under_chaos, resumed);
    assert_eq!(probe.hits("sweep::cell"), 0, "a full checkpoint must schedule no cells");
}
