//! The traced run: per-layer metrics, each the median self time of the
//! spans recorded around the benchmark's calls into that layer's public
//! functions, measured on the workload's own corpus.
//!
//! The core of it is the query decomposition: for sampled queries, a
//! `decompose` span calls the layers in the order the service does —
//! sets, sketch, b-bit pack, an LSH probe of each replica shard index
//! (partitioned by id like the service), fingerprint estimates per
//! candidate, the four JSON calls and the framing — followed by
//! `Service::query` and `Client::query` on the same document. What the
//! service and the server spend beyond the named stages are the two
//! residuals.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use wmh_core::others::UpperBounds;
use wmh_core::{Algorithm, AlgorithmConfig, CodeBatch, SketchScratch, SketchStore, Sketcher};
use wmh_hash::SeededHash;
use wmh_lsh::{Bands, LshIndex};
use wmh_serve::{
    read_frame, snapshot, write_frame, BbitFingerprint, MutationKind, Outcome, QueryResponse,
    Request, Response, Wal, WalProvenance,
};
use wmh_sets::{generalized_jaccard, WeightedSet};

use crate::loadgen::{latencies_ms, median, open_loop, quantile, uniform_schedule, Verdict};
use crate::serving::{
    connect, deploy, probe, query_request, reader, reopen, service_config, write_request,
    Deployment, WorkDir, Worker, SERVE_ALGORITHM, SHARDS, SNAPSHOT_EVERY,
};
use crate::sketching::{build, BATCH, D};
use crate::trace::{stage_times, Tracer, ROOT, WIRE_STAGES};
use crate::{corpus::Inputs, Args, Report, Spec};

/// Request id of spans that belong to no query.
const NO_REQ: u64 = u64::MAX;
/// Queries decomposed stage by stage.
const DECOMPOSED: usize = 200;
/// Of those, how many also go through `Client::query`.
const CLIENT_CALLS: usize = 30;
/// Round trips per client and loopback profile.
const ROUND_TRIPS: usize = 20;
/// Idle time before each spaced client call: above the ~40 ms below
/// which a loopback connection falls into the back-to-back stall, so the
/// spaced and back-to-back calls straddle it (and the spaced one matches
/// the open loop's per-connection spacing).
const CLIENT_GAP: Duration = Duration::from_millis(100);
/// Writes timed in process, and writes left after the last snapshot.
const WRITES: u64 = 30;
const TAIL_WRITES: u64 = 12;
/// Reopens timed for `service.open_s`.
const REOPENS: usize = 5;
/// Hash calls per span.
const HASH_CALLS: u64 = 100_000;

/// Every catalog algorithm with its per-layer metric name.
const BATCH_METRICS: [(Algorithm, &str); 15] = [
    (Algorithm::MinHash, "core.batch_ns_per_doc.minhash"),
    (Algorithm::Haveliwala2000, "core.batch_ns_per_doc.haveliwala2000"),
    (Algorithm::Haeupler2014, "core.batch_ns_per_doc.haeupler2014"),
    (Algorithm::GollapudiActive, "core.batch_ns_per_doc.gollapudi2006_active"),
    (Algorithm::Cws, "core.batch_ns_per_doc.cws"),
    (Algorithm::Icws, "core.batch_ns_per_doc.icws"),
    (Algorithm::ZeroBitCws, "core.batch_ns_per_doc.0bit_cws"),
    (Algorithm::Ccws, "core.batch_ns_per_doc.ccws"),
    (Algorithm::Pcws, "core.batch_ns_per_doc.pcws"),
    (Algorithm::I2cws, "core.batch_ns_per_doc.i2cws"),
    (Algorithm::GollapudiThreshold, "core.batch_ns_per_doc.gollapudi2006_threshold"),
    (Algorithm::Chum2008, "core.batch_ns_per_doc.chum2008"),
    (Algorithm::Shrivastava2016, "core.batch_ns_per_doc.shrivastava2016"),
    (Algorithm::DartMinHash, "core.batch_ns_per_doc.dart"),
    (Algorithm::BagMinHash, "core.batch_ns_per_doc.bag"),
];

/// The samplers that walk quantized or interval structures, tens of ms
/// per paper-shape document: timed on a 4-document subset, once.
const SLOW: [Algorithm; 4] = [
    Algorithm::Haveliwala2000,
    Algorithm::Haeupler2014,
    Algorithm::GollapudiActive,
    Algorithm::Cws,
];

/// Run the traced profile of `spec` and fill `report` with every
/// per-layer metric.
///
/// # Errors
/// Set-up, transport or I/O failures that stop the run.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let started = Instant::now();
    let inputs = (spec.inputs)(args.seed);
    let work = WorkDir::create(&crate::out_dir(), &format!("{}-trace", spec.name))?;
    let mut tr = Tracer::new(Instant::now(), 1 << 16);
    let config = service_config(spec.mixed.then_some(SNAPSHOT_EVERY));
    let setup = tr.begin("setup", ROOT, NO_REQ);
    let (dep, _) = deploy(&inputs.corpus, &work.path().join("serve"), &config)?;
    tr.end(setup, 1);

    hash_layer(&mut tr, args.seed, report);
    core_layer(&mut tr, &inputs.corpus, report)?;
    let store = store_layer(&mut tr, &dep, work.path(), report)?;
    decomposition(&mut tr, &dep, &store, &inputs, config.fingerprint_bits, report)?;
    wire_layer(&mut tr, &dep, &inputs, report)?;
    tracing_overhead(&mut tr, &dep, spec.rate, args.seconds, &inputs)?;
    write_path(&mut tr, &dep, &inputs, &store, work.path(), report)?;
    recovery(&mut tr, dep, &store, &config, &inputs, report)?;

    let path = args.trace_file.clone().unwrap_or_else(|| {
        crate::out_dir().join("traces").join(format!("{}-seed{}.tsv", spec.name, args.seed))
    });
    tr.write_tsv(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", tr.spans().len(), path.display());
    println!("run took {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}

fn med_us(tr: &Tracer, name: &str) -> f64 {
    median(&tr.self_of(name)) / 1e3
}

fn hash_layer(tr: &mut Tracer, seed: u64, report: &mut Report) {
    let h = SeededHash::new(seed ^ 0x4A54);
    for _ in 0..9 {
        let id = tr.begin("hash.unit3", ROOT, NO_REQ);
        let mut acc = 0.0;
        for i in 0..HASH_CALLS {
            acc += h.unit3(black_box(i), i ^ 0x55, 7);
        }
        black_box(acc);
        tr.end(id, HASH_CALLS);
        let id = tr.begin("hash.hash2", ROOT, NO_REQ);
        let mut acc = 0u64;
        for i in 0..HASH_CALLS {
            acc ^= h.hash2(black_box(i), 7);
        }
        black_box(acc);
        tr.end(id, HASH_CALLS);
    }
    report.metric("hash.unit3_ns", median(&tr.per_unit_ns("hash.unit3")), "ns");
    report.metric("hash.hash2_ns", median(&tr.per_unit_ns("hash.hash2")), "ns");
}

/// `sketch_batch_into` per document for all 15 catalog algorithms on the
/// workload corpus (Shrivastava's upper bounds pre-scanned from the docs).
fn core_layer(tr: &mut Tracer, corpus: &[WeightedSet], report: &mut Report) -> Result<(), String> {
    let subset = &corpus[..BATCH.min(corpus.len())];
    let bounds = UpperBounds::from_sets(subset.iter()).map_err(|e| e.to_string())?;
    let config = AlgorithmConfig { upper_bounds: Some(bounds), ..AlgorithmConfig::default() };
    let mut out = CodeBatch::new();
    let mut scratch = SketchScratch::new();
    for (algorithm, name) in BATCH_METRICS {
        let sketcher = build(algorithm, &config);
        let (docs, reps) = if SLOW.contains(&algorithm) { (&subset[..4], 1) } else { (subset, 3) };
        sketcher
            .sketch_batch_into(&docs[..1], &mut out, &mut scratch)
            .map_err(|e| e.to_string())?;
        for _ in 0..reps {
            let id = tr.begin(name, ROOT, NO_REQ);
            let r = sketcher.sketch_batch_into(black_box(docs), &mut out, &mut scratch);
            tr.end(id, docs.len() as u64);
            r.map_err(|e| format!("{}: {e}", sketcher.name()))?;
        }
        report.metric(name, median(&tr.per_unit_ns(name)), "ns");
    }
    Ok(())
}

fn store_layer(
    tr: &mut Tracer,
    dep: &Deployment,
    dir: &Path,
    report: &mut Report,
) -> Result<SketchStore, String> {
    let store = SketchStore::load_from_path(&dep.store_path).map_err(|e| e.to_string())?;
    let path = dir.join("profile.store");
    for _ in 0..3 {
        tr.time("core.store_save", ROOT, NO_REQ, || store.save_to_path(&path))
            .map_err(|e| e.to_string())?;
        tr.time("core.store_load", ROOT, NO_REQ, || SketchStore::load_from_path(&path))
            .map_err(|e| e.to_string())?;
    }
    report.metric("core.store_save_ms", med_us(tr, "core.store_save") / 1e3, "ms");
    report.metric("core.store_load_ms", med_us(tr, "core.store_load") / 1e3, "ms");
    Ok(store)
}

type Replica = (LshIndex<Box<dyn Sketcher + Send + Sync>>, HashMap<u64, BbitFingerprint>);

/// Rebuild the service's shard contents outside it: the same banding, the
/// same id partition, the same fingerprints.
fn replicas(tr: &mut Tracer, store: &SketchStore, bits: u32) -> Result<Vec<Replica>, String> {
    let bands = Bands::try_for_threshold(D, 0.5).map_err(|e| e.to_string())?;
    let mut shards = Vec::new();
    for _ in 0..SHARDS {
        let index = LshIndex::new(build(SERVE_ALGORITHM, &AlgorithmConfig::default()), bands)
            .map_err(|e| e.to_string())?;
        shards.push((index, HashMap::new()));
    }
    for &id in store.ids() {
        let sketch = store.get(id).map_err(|e| e.to_string())?;
        let fp = BbitFingerprint::pack(&sketch.codes, bits).map_err(|e| e.to_string())?;
        let (index, fps) = &mut shards[(id % SHARDS as u64) as usize];
        tr.time("lsh.insert", ROOT, NO_REQ, || index.insert_sketch(id, sketch))
            .map_err(|e| e.to_string())?;
        fps.insert(id, fp);
    }
    Ok(shards)
}

fn decomposition(
    tr: &mut Tracer,
    dep: &Deployment,
    store: &SketchStore,
    inputs: &Inputs,
    bits: u32,
    report: &mut Report,
) -> Result<(), String> {
    let shards = replicas(tr, store, bits)?;
    let sketcher = build(SERVE_ALGORITHM, &AlgorithmConfig::default());
    let mut client = connect(dep.addr())?;
    let (mut candidates, mut useful, mut differing, mut client_differing) = (0usize, 0usize, 0, 0);
    let n = DECOMPOSED.min(inputs.queries.len());
    for i in 0..n {
        let req = i as u64;
        let request = query_request(i, &inputs.queries);
        let root = tr.begin("decompose", ROOT, req);
        let set = tr
            .time("sets", root, req, || WeightedSet::from_pairs(request.doc.iter().copied()))
            .map_err(|e| e.to_string())?;
        let sketch = tr
            .time("core.sketch", root, req, || sketcher.sketch(&set))
            .map_err(|e| e.to_string())?;
        let fp = tr
            .time("fingerprint.pack", root, req, || BbitFingerprint::pack(&sketch.codes, bits))
            .map_err(|e| e.to_string())?;
        let mut hits = Vec::new();
        for (index, fps) in &shards {
            let probe = tr.begin("lsh.probe", root, req);
            let ids = index.candidates_for_sketch(&sketch).map_err(|e| e.to_string())?;
            tr.end(probe, ids.len() as u64);
            let est = tr.begin("fingerprint.estimate", root, req);
            for &id in &ids {
                let other = fps.get(&id).ok_or("replica lost a fingerprint")?;
                hits.push((id, fp.estimate(other).map_err(|e| e.to_string())?));
            }
            tr.end(est, ids.len() as u64);
            candidates += ids.len();
            useful += ids
                .iter()
                .filter(|&&id| generalized_jaccard(&set, &inputs.corpus[id as usize]) >= 0.5)
                .count();
        }
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(request.k);
        let local = QueryResponse {
            id: request.id,
            outcome: Outcome::Ok,
            results: hits,
            coverage: 1.0,
            shards_total: SHARDS,
            shards_answered: SHARDS,
            shed: 0,
            retry_after_us: 0,
            error: None,
        };
        let wrapped = Request::Query(request.clone());
        let req_json =
            tr.time("json.query_request_encode", root, req, || wmh_json::to_string(&wrapped));
        tr.time("json.query_request_parse", root, req, || wmh_json::from_str::<Request>(&req_json))
            .map_err(|e| e.to_string())?;
        let answer = Response::Query(local.clone());
        let resp_json =
            tr.time("json.query_response_encode", root, req, || wmh_json::to_string(&answer));
        tr.time("json.query_response_parse", root, req, || {
            wmh_json::from_str::<Response>(&resp_json)
        })
        .map_err(|e| e.to_string())?;
        let frame = tr.begin("wire.frame", root, req);
        let mut buf = Vec::with_capacity(req_json.len() + resp_json.len() + 8);
        write_frame(&mut buf, &req_json).map_err(|e| e.to_string())?;
        write_frame(&mut buf, &resp_json).map_err(|e| e.to_string())?;
        let mut r = buf.as_slice();
        for _ in 0..2 {
            black_box(read_frame(&mut r).map_err(|e| e.to_string())?);
        }
        tr.end(frame, 1);
        tr.end(root, 1);

        let served = tr.time("service.query", ROOT, req, || dep.service.query(&request));
        differing += usize::from(served != local);
        if i < CLIENT_CALLS {
            let remote = tr.time("client.query", ROOT, req, || client.query(&request));
            client_differing += usize::from(remote.ok().as_ref() != Some(&served));
        }
    }
    report.ops(n + CLIENT_CALLS.min(n), differing + client_differing);
    report.check(
        "decomposed stages reproduce Service::query",
        differing == 0,
        format!("{differing} of {n} answers differ"),
    );
    report.check(
        "Client::query answers equal Service::query",
        client_differing == 0,
        format!("{client_differing} of {} differ", CLIENT_CALLS.min(n)),
    );

    report.metric("sets.from_pairs_us", med_us(tr, "sets"), "us");
    report.metric("core.sketch_us.query", med_us(tr, "core.sketch"), "us");
    report.metric("fingerprint.pack_us", med_us(tr, "fingerprint.pack"), "us");
    report.metric("fingerprint.estimate_ns", median(&tr.per_unit_ns("fingerprint.estimate")), "ns");
    report.metric("lsh.probe_us", med_us(tr, "lsh.probe"), "us");
    report.metric("lsh.candidates_per_query", candidates as f64 / n as f64, "count");
    report.metric("lsh.useful_ratio", useful as f64 / candidates.max(1) as f64, "fraction");
    report.metric("lsh.insert_us", med_us(tr, "lsh.insert"), "us");
    for name in WIRE_STAGES {
        report.metric(format!("{name}_us"), med_us(tr, name), "us");
    }
    report.metric("service.query_us", med_us(tr, "service.query"), "us");

    let stages = stage_times(tr);
    let service_residual: Vec<f64> = stages.iter().map(|s| s.service_residual()).collect();
    let server_residual: Vec<f64> = stages.iter().map(|s| s.server_residual()).collect();
    report.metric("service.residual_us", median(&service_residual), "us");
    report.metric("server.residual_us", median(&server_residual), "us");
    let total = median(&stages.iter().map(|s| s.client).collect::<Vec<_>>());
    let part = |f: &dyn Fn(&crate::trace::StageTimes) -> f64| {
        median(&stages.iter().map(f).collect::<Vec<_>>())
    };
    let sum: f64 = (0..3).map(|k| part(&|s| s.front[k])).sum::<f64>()
        + (0..5).map(|k| part(&|s| s.wire[k])).sum::<f64>()
        + median(&service_residual)
        + median(&server_residual);
    println!(
        "stage sum: median stages + residuals = {sum:.1} us vs median client.query {total:.1} us \
         ({:+.2}%, within 5%: {})",
        (sum / total - 1.0) * 100.0,
        if (sum / total - 1.0).abs() <= 0.05 { "yes" } else { "no" }
    );
    Ok(())
}

fn wire_layer(
    tr: &mut Tracer,
    dep: &Deployment,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<(), String> {
    for j in 0..WRITES {
        let text = wmh_json::to_string(&Request::Mutate(write_request(j, &inputs.writes)));
        tr.time("json.mutation_request_parse", ROOT, NO_REQ, || {
            wmh_json::from_str::<Request>(&text)
        })
        .map_err(|e| e.to_string())?;
    }
    report.metric(
        "json.mutation_request_parse_us",
        med_us(tr, "json.mutation_request_parse"),
        "us",
    );

    // A bare loopback echo, no service: what the transport alone costs.
    let body = wmh_json::to_string(&Request::Query(query_request(0, &inputs.queries)));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            while let Ok(Some(frame)) = read_frame(&mut stream) {
                if write_frame(&mut stream, &frame).is_err() {
                    break;
                }
            }
        }
    });
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    for _ in 0..ROUND_TRIPS {
        let id = tr.begin("wire.loopback_rtt", ROOT, NO_REQ);
        write_frame(&mut stream, &body).map_err(|e| e.to_string())?;
        read_frame(&mut stream).map_err(|e| e.to_string())?;
        tr.end(id, 1);
    }
    drop(stream);
    echo.join().map_err(|_| "echo thread panicked")?;
    report.metric("wire.loopback_rtt_us", med_us(tr, "wire.loopback_rtt"), "us");

    let mut client = connect(dep.addr())?;
    for k in 0..ROUND_TRIPS {
        std::thread::sleep(CLIENT_GAP);
        let request = query_request(k, &inputs.queries);
        tr.time("client.query.gap", ROOT, NO_REQ, || client.query(&request))
            .map_err(|e| e.to_string())?;
    }
    for k in 0..ROUND_TRIPS {
        let request = query_request(k, &inputs.queries);
        tr.time("client.query.b2b", ROOT, NO_REQ, || client.query(&request))
            .map_err(|e| e.to_string())?;
    }
    report.metric("client.query_us.gap", med_us(tr, "client.query.gap"), "us");
    report.metric("client.query_us.b2b", med_us(tr, "client.query.b2b"), "us");
    Ok(())
}

/// The same short open loop untraced, then with a span around every
/// client call; prints the difference in median latency.
fn tracing_overhead(
    tr: &mut Tracer,
    dep: &Deployment,
    rate: f64,
    seconds: f64,
    inputs: &Inputs,
) -> Result<(), String> {
    let window = Duration::from_secs_f64(0.15 * seconds);
    let cutoff = window + Duration::from_secs(2);
    let q = &inputs.queries;
    let mut p50 = [0.0; 2];
    for (traced, slot) in [false, true].into_iter().zip(&mut p50) {
        let (mut c0, mut c1) = (connect(dep.addr())?, connect(dep.addr())?);
        let (mut g0, mut g1) = (Vec::new(), Vec::new());
        let mut tracers = [tr.fork(1024), tr.fork(1024)];
        let plan = uniform_schedule(rate, window, 2, |i| i % 2);
        let records = if traced {
            let [t0, t1] = &mut tracers;
            let mut inner0 = reader(&mut c0, q, &mut g0);
            let mut inner1 = reader(&mut c1, q, &mut g1);
            let w0 = move |i: usize| -> Verdict {
                let id = t0.begin("client.query.open", ROOT, NO_REQ);
                let v = inner0(i);
                t0.end(id, 1);
                v
            };
            let w1 = move |i: usize| -> Verdict {
                let id = t1.begin("client.query.open", ROOT, NO_REQ);
                let v = inner1(i);
                t1.end(id, 1);
                v
            };
            let workers: Vec<Worker<'_>> = vec![Box::new(w0), Box::new(w1)];
            open_loop(plan, workers, cutoff)
        } else {
            open_loop(plan, vec![reader(&mut c0, q, &mut g0), reader(&mut c1, q, &mut g1)], cutoff)
        };
        for t in tracers {
            tr.absorb(t);
        }
        *slot = quantile(&latencies_ms(&records, cutoff), 0.5);
    }
    println!(
        "tracing overhead: open-loop p50 {:.3} ms traced vs {:.3} ms untraced ({:+.3} ms)",
        p50[1],
        p50[0],
        p50[1] - p50[0]
    );
    Ok(())
}

fn write_path(
    tr: &mut Tracer,
    dep: &Deployment,
    inputs: &Inputs,
    store: &SketchStore,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut not_ok = 0;
    let mut write = |tr: &mut Tracer, j: u64| {
        let request = write_request(j, &inputs.writes);
        let name = match request.kind {
            MutationKind::Insert { .. } => "service.mutate.insert",
            MutationKind::Stream { .. } => "service.mutate.stream",
            MutationKind::Delete => "service.mutate.delete",
        };
        let response = tr.time(name, ROOT, NO_REQ, || dep.service.mutate(&request));
        not_ok += usize::from(response.outcome != Outcome::Ok);
    };
    for j in 0..WRITES {
        write(tr, j);
    }
    let mut failures = Vec::new();
    for _ in 0..3 {
        if let Err(e) = tr.time("service.snapshot", ROOT, NO_REQ, || dep.service.snapshot()) {
            failures.push(e.to_string());
        }
    }
    for _ in 0..3 {
        match tr.time("service.scrub", ROOT, NO_REQ, || dep.service.scrub()) {
            Ok(r)
                if r.corrupt_snapshots.is_empty()
                    && r.corrupt_segments.is_empty()
                    && r.mismatched_shards.is_empty() => {}
            Ok(r) => failures.push(format!("scrub found damage: {r:?}")),
            Err(e) => failures.push(e.to_string()),
        }
    }
    for j in WRITES..WRITES + TAIL_WRITES {
        write(tr, j);
    }
    report.ops((WRITES + TAIL_WRITES) as usize + 6, not_ok + failures.len());
    report.check("in-process writes answer ok", not_ok == 0, format!("{not_ok} not ok"));
    report.check("snapshots and scrubs succeed clean", failures.is_empty(), failures.join("; "));
    for kind in ["insert", "stream", "delete"] {
        report.metric(
            format!("service.mutate_us.{kind}"),
            med_us(tr, &format!("service.mutate.{kind}")),
            "us",
        );
    }
    report.metric("service.snapshot_ms", med_us(tr, "service.snapshot") / 1e3, "ms");
    report.metric("service.scrub_ms", med_us(tr, "service.scrub") / 1e3, "ms");

    // A log of its own, so the append is the only thing timed.
    let provenance = provenance(store);
    let (mut wal, _, _) =
        Wal::open(&dir.join("append-profile"), &provenance, 0).map_err(|e| e.to_string())?;
    for (k, &id) in store.ids().iter().take(WRITES as usize).enumerate() {
        let codes = store.get(id).map_err(|e| e.to_string())?.codes;
        let m = wmh_serve::Mutation::Insert { id: APPEND_ID_BASE + k as u64, codes };
        tr.time("wal.append", ROOT, NO_REQ, || wal.append(&m)).map_err(|e| e.to_string())?;
    }
    report.metric("wal.append_us", med_us(tr, "wal.append"), "us");
    Ok(())
}

/// Ids the append profile logs (never applied to any service).
const APPEND_ID_BASE: u64 = 1 << 41;

fn provenance(store: &SketchStore) -> WalProvenance {
    WalProvenance {
        algorithm: store.algorithm().to_owned(),
        seed: store.seed(),
        num_hashes: store.num_hashes(),
    }
}

/// Close the service, then time what a restart does: find the newest
/// snapshot, open and replay the WAL tail, and the whole `Service::open`.
fn recovery(
    tr: &mut Tracer,
    dep: Deployment,
    store: &SketchStore,
    config: &wmh_serve::ServiceConfig,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<(), String> {
    let before = probe(&dep.service, &inputs.queries, 50);
    let (store_path, wal_dir) = (dep.store_path.clone(), dep.wal_dir.clone());
    dep.close()?;
    let provenance = provenance(store);
    let (loaded, _) = tr
        .time("snapshot.load", ROOT, NO_REQ, || snapshot::load_latest(&wal_dir, &provenance))
        .map_err(|e| e.to_string())?;
    let from = loaded.map_or(0, |l| l.state.generation);
    let (wal, _, replay) = tr
        .time("wal.open", ROOT, NO_REQ, || Wal::open(&wal_dir, &provenance, from))
        .map_err(|e| e.to_string())?;
    drop(wal);
    report.metric("snapshot.load_ms", med_us(tr, "snapshot.load") / 1e3, "ms");
    report.metric("wal.open_ms", med_us(tr, "wal.open") / 1e3, "ms");
    report.metric("wal.replayed_records", replay.records as f64, "count");
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let id = tr.begin("service.open", ROOT, NO_REQ);
        let (service, _) = reopen(&store_path, &wal_dir, config)?;
        tr.end(id, 1);
        reopened = Some(service);
    }
    report.metric("service.open_s", med_us(tr, "service.open") / 1e6, "s");
    let service = reopened.ok_or("no reopen ran")?;
    let after = probe(&service, &inputs.queries, 50);
    report.check(
        "reopened service answers as before the drop",
        before == after,
        format!("{} probes", before.len()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_algorithm_has_a_batch_metric() {
        assert_eq!(BATCH_METRICS.map(|(a, _)| a), Algorithm::ALL);
        assert!(SLOW.iter().all(|a| Algorithm::ALL.contains(a)));
    }
}
