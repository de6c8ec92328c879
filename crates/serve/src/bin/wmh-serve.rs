//! `wmh-serve` — CLI for the sharded similarity-search service.
//!
//! ```text
//! wmh-serve smoke [--quick]
//! wmh-serve load  --out results/BENCH_serve_load.json [--requests N] [--concurrency C]
//!                 [--docs N] [--shards S] [--k K] [--deadline-us U] [--seed X]
//!                 [--write-every W]
//! wmh-serve mutation-soak [--quick]
//! wmh-serve check-report <path>
//! wmh-serve wal-info <dir>
//! wmh-serve snapshot --store sketches.bin --wal DIR
//! wmh-serve serve --store sketches.bin [--addr 127.0.0.1:7878] [--wal DIR]
//!                 [--snapshot-every N] [--scrub-every-secs S]
//! ```
//!
//! * `smoke` — CI's end-to-end gate: a loopback server answering typed
//!   outcomes for a healthy query, a forced deadline miss, a forced
//!   overload, a bad request, and a mutation against a read-only service.
//! * `load` — the closed-loop load generator over a Table-4 medium corpus
//!   (`Syn3E0.24S`, scaled preserving pairwise overlap); writes the
//!   `wmh-serve-load/v1` report the perf gate checks. `--write-every W`
//!   mixes a mutation (insert → stream → delete cycle) into every Wth
//!   request, served over a temporary write-ahead log.
//! * `mutation-soak` — CI's live-mutation gate: drives the whole mutation
//!   surface over the wire against a WAL-backed loopback server, then
//!   proves kill-resume recovery and a live re-shard byte-identical to
//!   from-scratch builds.
//! * `check-report` — validate a report file's schema and arithmetic
//!   invariants (outcome counts must sum to requests issued).
//! * `wal-info` — offline inspection of a WAL directory:
//!   per-segment generations, record counts, torn bytes, and snapshot
//!   inventory. Exits 2 — distinctly from usage errors — when any sealed
//!   segment or snapshot is damaged, so scripts can gate on it.
//! * `snapshot` — open a store + WAL read-write, take one snapshot
//!   (rotating the log and retiring subsumed segments), and exit.
//! * `serve` — run a real server over a saved sketch store; `--wal DIR`
//!   opens it writable with a crash-safe write-ahead log.
//!   `--snapshot-every N` snapshots automatically every N committed
//!   writes; `--scrub-every-secs S` runs the background integrity
//!   scrubber at that cadence.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use wmh_core::{SketchStore, Sketcher};
use wmh_data::PAPER_DATASETS;
use wmh_serve::{
    loadgen, snapshot, wal, Client, LoadConfig, LoadReport, Outcome, QueryRequest, Server, Service,
    ServiceConfig,
};
use wmh_sets::WeightedSet;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n  wmh-serve smoke [--quick]\n  wmh-serve load --out FILE [--requests N] [--concurrency C] [--docs N]\n                 [--shards S] [--k K] [--deadline-us U] [--seed X] [--write-every W]\n  wmh-serve mutation-soak [--quick]\n  wmh-serve check-report FILE\n  wmh-serve wal-info DIR\n  wmh-serve snapshot --store FILE --wal DIR\n  wmh-serve serve --store FILE [--addr 127.0.0.1:7878] [--wal DIR]\n                  [--snapshot-every N] [--scrub-every-secs S]"
        .to_owned()
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let num = |name: &str, default: u64| -> Result<u64, String> {
        flag(name).map_or(Ok(default), |raw| {
            raw.parse().map_err(|e| format!("invalid {name} {raw:?}: {e}"))
        })
    };
    match cmd.as_str() {
        "smoke" => smoke(args.iter().any(|a| a == "--quick")).map(|()| ExitCode::SUCCESS),
        "load" => {
            let out = flag("--out").ok_or_else(|| format!("missing --out\n{}", usage()))?;
            load(
                &out,
                num("--requests", 2000)? as usize,
                num("--concurrency", 4)? as usize,
                num("--docs", 600)? as usize,
                num("--shards", 4)? as usize,
                num("--k", 10)? as usize,
                num("--deadline-us", 20_000)?,
                num("--seed", 42)?,
                num("--write-every", 0)? as usize,
            )
            .map(|()| ExitCode::SUCCESS)
        }
        "mutation-soak" => {
            mutation_soak(args.iter().any(|a| a == "--quick")).map(|()| ExitCode::SUCCESS)
        }
        "check-report" => {
            let path = args.get(1).ok_or_else(|| format!("missing FILE\n{}", usage()))?;
            check_report(path).map(|()| ExitCode::SUCCESS)
        }
        "wal-info" => {
            let dir = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .ok_or_else(|| format!("missing DIR\n{}", usage()))?;
            wal_info(dir)
        }
        "snapshot" => {
            let store = flag("--store").ok_or_else(|| format!("missing --store\n{}", usage()))?;
            let wal = flag("--wal").ok_or_else(|| format!("missing --wal\n{}", usage()))?;
            snapshot_verb(&store, &wal).map(|()| ExitCode::SUCCESS)
        }
        "serve" => {
            let store = flag("--store").ok_or_else(|| format!("missing --store\n{}", usage()))?;
            let addr = flag("--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
            let snapshot_every = match num("--snapshot-every", 0)? {
                0 => None,
                n => Some(n),
            };
            serve(&store, &addr, flag("--wal"), snapshot_every, num("--scrub-every-secs", 0)?)
                .map(|()| ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// The Table-4 medium corpus (`Syn3E0.24S`), scaled down preserving the
/// expected pairwise overlap so similarity estimates stay in the paper's
/// regime.
fn corpus(docs: usize, seed: u64) -> Result<(String, Vec<WeightedSet>), String> {
    let config = PAPER_DATASETS[2].scaled_down_preserving_overlap(docs, 20_000);
    let dataset = config.generate(seed)?;
    Ok((dataset.name, dataset.docs))
}

/// Sketch every document with catalog ICWS and fill a store.
fn build_store(docs: &[WeightedSet], seed: u64) -> Result<SketchStore, String> {
    let sketcher = wmh_core::cws::Icws::new(seed, 128);
    let mut store = SketchStore::new();
    for (id, doc) in docs.iter().enumerate() {
        let sketch = sketcher.sketch(doc).map_err(|e| format!("sketching doc {id}: {e}"))?;
        store.insert(id as u64, &sketch).map_err(|e| format!("storing doc {id}: {e}"))?;
    }
    Ok(store)
}

fn pairs_of(doc: &WeightedSet) -> Vec<(u64, f64)> {
    doc.iter().collect()
}

fn expect(step: &str, ok: bool, detail: String) -> Result<(), String> {
    if ok {
        println!("smoke: {step}: ok");
        Ok(())
    } else {
        Err(format!("smoke: {step}: FAILED — {detail}"))
    }
}

/// End-to-end smoke over a loopback port: every outcome class must be
/// reachable and typed.
fn smoke(quick: bool) -> Result<(), String> {
    let docs_n = if quick { 60 } else { 240 };
    let (name, docs) = corpus(docs_n, 42)?;
    let store = build_store(&docs, 42)?;
    let config = ServiceConfig { shards: 4, ..ServiceConfig::default() };
    let service = Arc::new(Service::from_store(&store, config).map_err(|e| format!("build: {e}"))?);
    let server =
        Server::spawn(Arc::clone(&service), "127.0.0.1:0").map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    println!("smoke: serving {docs_n} docs of {name} on {}", server.addr());

    let health = client.health().map_err(|e| format!("health: {e}"))?;
    expect(
        "health",
        health.ready && health.indexed == docs_n && health.shards_quarantined == 0,
        format!("{health:?}"),
    )?;

    let ok = client
        .query(&QueryRequest { id: 1, doc: pairs_of(&docs[0]), k: 5, deadline_us: Some(2_000_000) })
        .map_err(|e| format!("query: {e}"))?;
    expect(
        "ok outcome",
        ok.outcome == Outcome::Ok
            && ok.results.first().is_some_and(|&(id, est)| id == 0 && est == 1.0)
            && (ok.coverage - 1.0).abs() < f64::EPSILON,
        format!("{ok:?}"),
    )?;

    let miss = client
        .query(&QueryRequest { id: 2, doc: pairs_of(&docs[1]), k: 5, deadline_us: Some(0) })
        .map_err(|e| format!("query: {e}"))?;
    expect(
        "forced deadline miss",
        miss.outcome == Outcome::DeadlineExceeded && miss.results.is_empty(),
        format!("{miss:?}"),
    )?;

    let bad = client
        .query(&QueryRequest { id: 3, doc: Vec::new(), k: 5, deadline_us: None })
        .map_err(|e| format!("query: {e}"))?;
    expect(
        "bad request",
        bad.outcome == Outcome::BadRequest && bad.error.is_some(),
        format!("{bad:?}"),
    )?;

    // A zero-capacity twin forces the admission path deterministically.
    let choked_config = ServiceConfig { shards: 2, max_inflight: 0, ..ServiceConfig::default() };
    let choked = Arc::new(
        Service::from_store(&store, choked_config).map_err(|e| format!("build choked: {e}"))?,
    );
    let choked_server = Server::spawn(Arc::clone(&choked), "127.0.0.1:0")
        .map_err(|e| format!("spawn choked: {e}"))?;
    let mut choked_client =
        Client::connect(choked_server.addr()).map_err(|e| format!("connect choked: {e}"))?;
    let over = choked_client
        .query(&QueryRequest { id: 4, doc: pairs_of(&docs[2]), k: 5, deadline_us: None })
        .map_err(|e| format!("query choked: {e}"))?;
    expect(
        "forced overload",
        over.outcome == Outcome::Overloaded && over.retry_after_us > 0,
        format!("{over:?}"),
    )?;

    // A store-built service has no write path: mutations answer
    // `read_only`, typed like everything else.
    let ro = client
        .insert(999_999, pairs_of(&docs[0]), Some(2_000_000))
        .map_err(|e| format!("insert: {e}"))?;
    expect(
        "read-only mutation",
        ro.outcome == Outcome::ReadOnly && !ro.durable && ro.error.is_some(),
        format!("{ro:?}"),
    )?;

    println!("smoke: all outcomes typed — pass");
    Ok(())
}

/// A scratch directory for WAL-backed runs, removed on a clean exit.
fn scratch_dir(label: &str) -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("wmh-serve-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run the closed-loop load generator and write the report. With a write
/// mix, the service runs over a scratch write-ahead log so mutations take
/// the real durable path.
#[allow(clippy::too_many_arguments)]
fn load(
    out: &str,
    requests: usize,
    concurrency: usize,
    docs_n: usize,
    shards: usize,
    k: usize,
    deadline_us: u64,
    seed: u64,
    write_every: usize,
) -> Result<(), String> {
    let (name, docs) = corpus(docs_n, seed)?;
    let store = build_store(&docs, seed)?;
    let config = ServiceConfig { shards, seed, ..ServiceConfig::default() };
    let scratch = if write_every > 0 { Some(scratch_dir("load")?) } else { None };
    let service = match &scratch {
        Some(dir) => Service::open(&store, &dir.join("load.wal"), config),
        None => Service::from_store(&store, config),
    }
    .map_err(|e| format!("build: {e}"))?;
    let query_docs: Vec<Vec<(u64, f64)>> = docs.iter().map(pairs_of).collect();
    let load_config = LoadConfig { requests, concurrency, k, deadline_us, write_every };
    let report = loadgen::run(&service, &name, &query_docs, &load_config);
    drop(service);
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    report.validate()?;
    let mut text = wmh_json::to_string_pretty(&report);
    text.push('\n');
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "load: {} requests ({} writes) over {name} ({} docs, {} shards): {:.0} req/s, \
         p50 {}us p99 {}us, ok {} partial {} deadline {} overloaded {} bad {} read-only {} \
         — wrote {out}",
        report.requests,
        report.writes,
        report.docs,
        report.shards,
        report.throughput_rps,
        report.p50_us,
        report.p99_us,
        report.ok,
        report.partial,
        report.deadline_exceeded,
        report.overloaded,
        report.bad_request,
        report.read_only,
    );
    Ok(())
}

/// Drive the whole mutation surface over the wire, then prove the two
/// recovery claims end to end: a reopened service (kill-resume over the
/// same WAL) answers byte-identically, and a live re-shard converges
/// byte-identically to a from-scratch build at the new shard count.
fn mutation_soak(quick: bool) -> Result<(), String> {
    let docs_n = if quick { 48 } else { 160 };
    let writes = if quick { 30 } else { 120 };
    let shards = if quick { 2 } else { 4 };
    let (name, docs) = corpus(docs_n, 42)?;
    let store = build_store(&docs, 42)?;
    let dir = scratch_dir("soak")?;
    let wal = dir.join("soak.wal");
    let config =
        ServiceConfig { shards, default_deadline_us: 2_000_000, ..ServiceConfig::default() };
    let deadline = Some(2_000_000u64);

    let service =
        Arc::new(Service::open(&store, &wal, config.clone()).map_err(|e| format!("open: {e}"))?);
    let server =
        Server::spawn(Arc::clone(&service), "127.0.0.1:0").map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    println!("mutation-soak: {docs_n} docs of {name}, {writes} writes, {shards} shards");

    // Mixed mutation script over the wire: inserts of fresh ids, streaming
    // updates (creating and drifting), deletes of corpus and fresh ids.
    let base = 1_000_000u64;
    for i in 0..writes {
        let doc = pairs_of(&docs[i % docs.len()]);
        // Slot cycle: insert → stream → delete-the-insert-two-back →
        // stream again, so every delete targets an id slot 0 inserted.
        let response = match i % 4 {
            0 => client.insert(base + i as u64, doc, deadline),
            1 => client.stream(base + 500_000 + (i / 8) as u64, 0.5, doc, deadline),
            2 => client.delete(base + (i - 2) as u64, deadline),
            _ => client.stream(base + 500_000 + (i / 8) as u64, 0.9, doc, deadline),
        }
        .map_err(|e| format!("write {i}: {e}"))?;
        if response.outcome != Outcome::Ok || !response.durable || !response.applied {
            return Err(format!("mutation-soak: write {i} degraded: {response:?}"));
        }
    }
    let probe = |client: &mut Client, label: &str| -> Result<Vec<String>, String> {
        docs.iter()
            .enumerate()
            .map(|(i, doc)| {
                client
                    .query(&QueryRequest {
                        id: i as u64,
                        doc: pairs_of(doc),
                        k: 10,
                        deadline_us: deadline,
                    })
                    .map(|r| wmh_json::to_string(&r))
                    .map_err(|e| format!("{label} probe {i}: {e}"))
            })
            .collect()
    };
    let live = probe(&mut client, "live")?;
    let indexed = service.health().indexed;
    drop(server);
    drop(service);

    // Kill-resume: a fresh process image over the same store + WAL must
    // answer every probe byte-identically.
    let reopened =
        Arc::new(Service::open(&store, &wal, config.clone()).map_err(|e| format!("reopen: {e}"))?);
    if reopened.health().indexed != indexed {
        return Err(format!(
            "mutation-soak: reopen indexed {} != live {indexed}",
            reopened.health().indexed
        ));
    }
    let server =
        Server::spawn(Arc::clone(&reopened), "127.0.0.1:0").map_err(|e| format!("respawn: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("reconnect: {e}"))?;
    let recovered = probe(&mut client, "recovered")?;
    if recovered != live {
        return Err("mutation-soak: kill-resume replay is not byte-identical".into());
    }
    println!("mutation-soak: kill-resume replay byte-identical over {} probes", live.len());

    // Live re-shard: the re-partitioned fleet must answer byte-identically
    // to a from-scratch open at the new shard count.
    let to = shards + 1;
    let report = reopened.reshard_blocking(to).map_err(|e| format!("reshard: {e}"))?;
    let resharded = probe(&mut client, "resharded")?;
    let fresh_config = ServiceConfig { shards: to, ..config };
    let fresh =
        Arc::new(Service::open(&store, &wal, fresh_config).map_err(|e| format!("fresh: {e}"))?);
    let fresh_server = Server::spawn(Arc::clone(&fresh), "127.0.0.1:0")
        .map_err(|e| format!("fresh spawn: {e}"))?;
    let mut fresh_client =
        Client::connect(fresh_server.addr()).map_err(|e| format!("fresh connect: {e}"))?;
    let from_scratch = probe(&mut fresh_client, "from-scratch")?;
    if resharded != from_scratch {
        return Err("mutation-soak: re-shard is not byte-identical to a from-scratch build".into());
    }
    println!(
        "mutation-soak: re-shard {} -> {} ({} points) byte-identical to from-scratch — pass",
        report.from, report.to, report.points
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Validate a load report file: schema shape plus arithmetic invariants.
fn check_report(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let report: LoadReport =
        wmh_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    report.validate().map_err(|e| format!("{path}: {e}"))?;
    println!("check-report: {path}: valid {}", report.schema);
    Ok(())
}

/// Offline WAL + snapshot inspection. Exit code 2 (distinct from the
/// generic failure 1) when any sealed segment or snapshot is damaged.
fn wal_info(dir: &str) -> Result<ExitCode, String> {
    let path = std::path::Path::new(dir);
    let info = wal::inspect(path).map_err(|e| format!("inspecting {dir}: {e}"))?;
    println!(
        "wal-info: {dir}: provenance {} seed={} D={}",
        info.provenance.algorithm, info.provenance.seed, info.provenance.num_hashes
    );
    let mut corrupt = info.corrupt();
    for segment in &info.segments {
        let health = match &segment.error {
            Some(e) => format!("CORRUPT — {e}"),
            None if segment.torn_bytes > 0 => {
                format!("{} torn tail byte(s)", segment.torn_bytes)
            }
            None => "ok".into(),
        };
        println!(
            "  segment gen {:>3}: {:>6} records, {:>9} bytes, {health}",
            segment.generation, segment.records, segment.bytes
        );
    }
    let snapshots = if path.is_dir() {
        snapshot::list(path).map_err(|e| format!("listing snapshots in {dir}: {e}"))?
    } else {
        Vec::new()
    };
    let provenance = info.provenance.clone();
    for (gen, snap_path) in &snapshots {
        match snapshot::verify_file(snap_path, &provenance) {
            Ok(()) => println!("  snapshot gen {gen:>3}: ok"),
            Err(e) => {
                corrupt = true;
                println!("  snapshot gen {gen:>3}: CORRUPT — {e}");
            }
        }
    }
    if snapshots.is_empty() {
        println!("  (no snapshots)");
    }
    if corrupt {
        println!("wal-info: CORRUPTION FOUND");
        return Ok(ExitCode::from(2));
    }
    println!("wal-info: clean");
    Ok(ExitCode::SUCCESS)
}

/// Open a store + WAL read-write, take one snapshot, and exit.
fn snapshot_verb(store_path: &str, wal_dir: &str) -> Result<(), String> {
    let store = SketchStore::load_from_path(std::path::Path::new(store_path))
        .map_err(|e| format!("loading {store_path}: {e}"))?;
    let service = Service::open(&store, std::path::Path::new(wal_dir), ServiceConfig::default())
        .map_err(|e| format!("open: {e}"))?;
    let generation = service.snapshot().map_err(|e| e.to_string())?;
    println!("snapshot: wrote generation {generation} in {wal_dir}");
    Ok(())
}

/// Serve a saved sketch store until killed; with `--wal`, writable over a
/// crash-safe write-ahead log (replayed at startup).
fn serve(
    store_path: &str,
    addr: &str,
    wal: Option<String>,
    snapshot_every: Option<u64>,
    scrub_every_secs: u64,
) -> Result<(), String> {
    let store = SketchStore::load_from_path(std::path::Path::new(store_path))
        .map_err(|e| format!("loading {store_path}: {e}"))?;
    let config = ServiceConfig { snapshot_every, ..ServiceConfig::default() };
    let service = Arc::new(
        match &wal {
            Some(path) => Service::open(&store, std::path::Path::new(path), config),
            None => Service::from_store(&store, config),
        }
        .map_err(|e| format!("build: {e}"))?,
    );
    if let Some(recovery) = service.recovery() {
        let from = recovery
            .snapshot_generation
            .map_or("cold store".to_owned(), |g| format!("snapshot generation {g}"));
        println!(
            "wal: restored from {from}; replayed {} mutations from {} of {} segment(s) \
             ({} torn-tail bytes discarded, {} damaged snapshot(s) skipped)",
            recovery.replay.records,
            recovery.replay.segments_replayed,
            recovery.replay.segments_total,
            recovery.replay.bytes_discarded,
            recovery.snapshots_rejected,
        );
    }
    let _scrubber = if scrub_every_secs > 0 && wal.is_some() {
        Some(
            wmh_serve::spawn_scrubber(
                Arc::clone(&service),
                std::time::Duration::from_secs(scrub_every_secs),
            )
            .map_err(|e| format!("spawning scrubber: {e}"))?,
        )
    } else {
        None
    };
    let indexed = service.health().indexed;
    let mode = if wal.is_some() { "read-write" } else { "read-only" };
    let server = Server::spawn(service, addr).map_err(|e| format!("spawn: {e}"))?;
    println!("serving {indexed} sketches ({mode}) from {store_path} on {}", server.addr());
    loop {
        std::thread::park();
    }
}
