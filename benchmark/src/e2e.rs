//! The untraced run: the end-to-end metrics a user sees.
//!
//! Every workload runs the same phases over its own corpus and mix, so it
//! reports every end-to-end metric. In order:
//!
//! 1. set-up (kept for serving), then recall@10 of the fresh service
//!    against exact generalized Jaccard;
//! 2. open loop at the workload's fixed rate over 2 persistent
//!    connections (half of the measured time);
//! 3. closed loop, the same 2 connections back-to-back (a tenth).
//!
//! Before each traffic phase and at the end the service restarts: it is
//! dropped and reopened from disk, and must answer byte-identically. The rest of the time is batch sketching of the
//! corpus in process, in five slices between the phases, and the further
//! set-ups run after the open loop and at the end. Samples of each median
//! are thus spread over the whole run, so a few seconds of host noise
//! touch only some of them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wmh_serve::{spawn_scrubber, Outcome, QueryResponse, Scrubber};
use wmh_sets::WeightedSet;

use crate::loadgen::{
    beyond, closed_loop, latencies_ms, median, open_loop, quantile, uniform_schedule,
    verdict_counts, Record, Verdict, MIN_BEYOND,
};
use crate::serving::{
    connect, deploy, probe, query_request, reader, recall_at_k, service_config, writer, Deployment,
    WorkDir, SNAPSHOT_EVERY,
};
use crate::sketching::{SketchBench, HEADLINE};
use crate::{env, Args, Report, Spec};

/// A request not sent by window end + this counts as failed.
const GRACE: Duration = Duration::from_secs(2);
/// Queries recall@10 is averaged over.
const RECALL_QUERIES: usize = 200;
/// TCP answers compared byte-for-byte with in-process answers.
const IDENTITY_QUERIES: usize = 100;
/// Probes compared across each restart.
const RESTART_PROBES: usize = 64;
/// Sketch slices per run.
const SLICES: f64 = 5.0;

/// Run `spec` untraced and fill `report`.
///
/// # Errors
/// Set-up, transport or I/O failures that stop the run.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let s = args.seconds;
    let started = Instant::now();
    let inputs = (spec.inputs)(args.seed);
    println!(
        "inputs: {} corpus docs, {} queries, {} write docs, generated in {:.3} s (excluded from set-up)",
        inputs.corpus.len(),
        inputs.queries.len(),
        inputs.writes.len(),
        started.elapsed().as_secs_f64()
    );
    let q = &inputs.queries;
    let work = WorkDir::create(&crate::out_dir(), spec.name)?;
    let config = service_config(spec.mixed.then_some(SNAPSHOT_EVERY));
    let mut bench = SketchBench::new(&inputs.corpus)?;
    let slice = Duration::from_secs_f64(0.4 * s / SLICES);
    let mut setups = Vec::new();
    let mut reopens = Vec::new();
    let (mut restart_diffs, mut unhealthy) = (0, 0);
    // A set-up that is timed and torn down again.
    let extra_setup = |setups: &mut Vec<f64>, corpus: &[WeightedSet]| -> Result<(), String> {
        let dir = work.path().join(format!("setup-{}", setups.len()));
        let (d, took) = deploy(corpus, &dir, &config)?;
        setups.push(took.as_secs_f64());
        d.close()?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    };
    // Drop and reopen the service; its answers and health must survive.
    let mut restart = |dep: Deployment, reopens: &mut Vec<f64>| -> Result<Deployment, String> {
        let before = probe(&dep.service, q, RESTART_PROBES);
        let (dep, took) = dep.restart(&config)?;
        reopens.push(took);
        let after = probe(&dep.service, q, RESTART_PROBES);
        restart_diffs += before.iter().zip(&after).filter(|(a, b)| a != b).count();
        let health = dep.service.health();
        unhealthy += usize::from(!health.ready || health.read_only || health.half_open);
        if let Some(info) = dep.service.recovery() {
            println!(
                "restart: snapshot generation {:?}, {} records replayed, {} snapshots rejected",
                info.snapshot_generation, info.replay.records, info.snapshots_rejected
            );
        }
        Ok(dep)
    };
    let scrubber = |dep: &Deployment| -> Result<Option<Scrubber>, String> {
        if !spec.mixed {
            return Ok(None);
        }
        let every = Duration::from_secs_f64((s / 8.0).max(0.5));
        spawn_scrubber(Arc::clone(&dep.service), every).map(Some).map_err(|e| e.to_string())
    };

    bench.slice(slice)?;
    let (dep, took) = deploy(&inputs.corpus, &work.path().join("serve"), &config)?;
    setups.push(took.as_secs_f64());
    let n = RECALL_QUERIES.min(q.len());
    let recall = recall_at_k(&dep.service, &inputs.corpus, q, n);
    report.metric("recall_at_10", recall, "fraction");
    report.check(
        "recall@10 at least the recorded value - 0.02",
        recall >= spec.recall_floor,
        format!("{recall:.4} vs floor {}", spec.recall_floor),
    );
    bench.slice(slice)?;
    let dep = restart(dep, &mut reopens)?;

    let scrub = scrubber(&dep)?;
    let mut c0 = connect(dep.addr())?;
    let mut c1 = connect(dep.addr())?;
    let mut next_write = 0u64;
    let open_window = Duration::from_secs_f64(0.5 * s);
    let (mut got0, mut got1) = (Vec::new(), Vec::new());
    let open = if spec.mixed {
        let plan = uniform_schedule(spec.rate, open_window, 2, |i| usize::from(i % 5 == 4));
        let workers =
            vec![reader(&mut c0, q, &mut got0), writer(&mut c1, &inputs.writes, &mut next_write)];
        open_loop(plan, workers, open_window + GRACE)
    } else {
        let plan = uniform_schedule(spec.rate, open_window, 2, |i| i % 2);
        let workers = vec![reader(&mut c0, q, &mut got0), reader(&mut c1, q, &mut got1)];
        open_loop(plan, workers, open_window + GRACE)
    };
    drop((c0, c1, scrub));
    phase_table(
        &format!("open loop @ {} rps for {:.1} s", spec.rate, open_window.as_secs_f64()),
        &open,
    );
    let mut answers: Vec<(usize, QueryResponse)> = got0.into_iter().chain(got1).collect();
    answers.sort_by_key(|(i, _)| *i);
    if !spec.mixed {
        // With no writes, every TCP answer must equal the in-process one.
        let compared: Vec<_> = answers
            .iter()
            .filter(|(_, r)| r.outcome == Outcome::Ok)
            .take(IDENTITY_QUERIES)
            .collect();
        let differing = compared
            .iter()
            .filter(|(i, r)| {
                wmh_json::to_string(r)
                    != wmh_json::to_string(&dep.service.query(&query_request(*i, q)))
            })
            .count();
        report.check(
            "TCP answers byte-identical to in-process Service::query",
            differing == 0 && !compared.is_empty(),
            format!("{differing} of {} differ", compared.len()),
        );
    }
    if args.setups > 1 {
        extra_setup(&mut setups, &inputs.corpus)?;
    }
    bench.slice(slice)?;
    let dep = restart(dep, &mut reopens)?;

    let scrub = scrubber(&dep)?;
    let mut c0 = connect(dep.addr())?;
    let mut c1 = connect(dep.addr())?;
    let closed_window = Duration::from_secs_f64(0.1 * s);
    let (mut got0, mut got1) = (Vec::new(), Vec::new());
    let (closed, elapsed) = if spec.mixed {
        let workers =
            vec![reader(&mut c0, q, &mut got0), writer(&mut c1, &inputs.writes, &mut next_write)];
        closed_loop(workers, closed_window)
    } else {
        let workers = vec![reader(&mut c0, q, &mut got0), reader(&mut c1, q, &mut got1)];
        closed_loop(workers, closed_window)
    };
    drop((c0, c1, scrub));
    phase_table(&format!("closed loop, 2 connections, {:.1} s", elapsed.as_secs_f64()), &closed);
    println!("writes issued: {next_write}");
    answers.extend(got0.into_iter().chain(got1));
    bench.slice(slice)?;
    restart(dep, &mut reopens)?.close()?;

    if let Some(source) = &inputs.source {
        let ok: Vec<_> = answers.iter().filter(|(_, r)| r.outcome == Outcome::Ok).collect();
        let wrong = ok
            .iter()
            .filter(|(i, r)| {
                let own = source[i % source.len()];
                r.results.first() != Some(&(own, 1.0))
            })
            .count();
        report.check(
            "every ok answer ranks its own doc first with estimate 1.0",
            wrong == 0 && !ok.is_empty(),
            format!("{wrong} of {} answers do not", ok.len()),
        );
    }
    report.check(
        "answers after each drop and reopen byte-identical to before",
        restart_diffs == 0,
        format!("{restart_diffs} of {} probes differ", 3 * RESTART_PROBES),
    );
    report.check(
        "reopened service ready and writable (neither read_only nor half_open)",
        unhealthy == 0,
        format!("{unhealthy} of 3 restarts not"),
    );

    while setups.len() < args.setups {
        extra_setup(&mut setups, &inputs.corpus)?;
    }
    bench.slice(slice)?;

    let lat = latencies_ms(&open, open_window + GRACE);
    let tail = beyond(lat.len(), 0.9);
    if tail < MIN_BEYOND {
        println!("warning: p90 has only {tail} samples beyond it (needs {MIN_BEYOND}); run longer");
    }
    println!("open-loop latency: {} samples, {tail} beyond p90", lat.len());
    report.metric("latency_p50_ms", quantile(&lat, 0.5), "ms");
    report.metric("latency_p90_ms", quantile(&lat, 0.9), "ms");
    let ok = |r: &[Record]| r.iter().filter(|x| x.verdict == Verdict::Ok).count();
    report.metric("throughput_rps", ok(&closed) as f64 / elapsed.as_secs_f64(), "1/s");
    let attempted = open.len() + closed.len();
    let oks = ok(&open) + ok(&closed);
    report.metric("ok_fraction", oks as f64 / attempted.max(1) as f64, "fraction");
    report.ops(attempted, attempted - oks);
    println!("set-up runs (s): {setups:.3?}");
    report.metric("setup_s", median(&setups), "s");
    // Printed, not a metric: on a shared host its spread over ten runs
    // (0.1-0.4) is too wide for a regression bound; `service.open_s` in
    // the traced run covers it.
    println!("reopen runs (s): {reopens:.4?}, median {:.4}", median(&reopens));
    for (k, (algorithm, slug)) in HEADLINE.iter().enumerate() {
        println!("sketch digest {} {:016x}", algorithm.name(), bench.digests[k]);
        report.metric(format!("sketch_{slug}_docs_per_s"), bench.docs_per_s()[k], "docs/s");
    }
    report.check(
        "sketch_batch_into codes equal sketch codes",
        bench.mismatches == 0,
        format!("{} mismatching docs, {} batches timed", bench.mismatches, bench.batches()),
    );
    report.ops(bench.batches(), 0);
    report.metric("peak_rss_mb", env::peak_rss_mib(), "MiB");
    println!("run took {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}

/// Print a phase's outcome table and the generator's own trust signals.
fn phase_table(name: &str, records: &[Record]) {
    let ok = records.iter().filter(|r| r.verdict == Verdict::Ok).count();
    let mut lags: Vec<f64> =
        records.iter().filter_map(Record::send_lag).map(|d| d.as_secs_f64() * 1e3).collect();
    lags.sort_by(f64::total_cmp);
    let counts: Vec<String> =
        verdict_counts(records).iter().map(|(label, n)| format!("{label}={n}")).collect();
    println!(
        "phase {name}: attempted {} ok {ok} failed {} [{}]; gen.send_lag_p99_ms {:.3} gen.unsent {}",
        records.len(),
        records.len() - ok,
        counts.join(" "),
        quantile(&lags, 0.99),
        records.iter().filter(|r| r.verdict == Verdict::Unsent).count()
    );
}
