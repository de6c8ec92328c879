//! `wmh-serve` — CLI for the sharded similarity-search service.
//!
//! ```text
//! wmh-serve serve --store sketches.bin [--addr 127.0.0.1:7878] [--wal DIR]
//!                 [--snapshot-every N] [--scrub-every-secs S]
//! wmh-serve snapshot --store sketches.bin --wal DIR
//! wmh-serve wal-info DIR
//! ```
//!
//! * `serve` — run a real server over a saved sketch store; `--wal DIR`
//!   opens it writable with a crash-safe write-ahead log.
//!   `--snapshot-every N` snapshots automatically every N committed
//!   writes; `--scrub-every-secs S` runs the background integrity
//!   scrubber at that cadence. Both need `--wal`.
//! * `snapshot` — open a store + WAL read-write, take one snapshot
//!   (rotating the log and retiring subsumed segments), and exit.
//! * `wal-info` — offline inspection of a WAL directory:
//!   per-segment generations, record counts, torn bytes, and snapshot
//!   inventory. Exits 2 — distinctly from usage errors — when any sealed
//!   segment or snapshot is damaged, so scripts can gate on it.
//!
//! An unknown flag, a flag without its value, a repeated flag, or a
//! WAL-only flag without `--wal` is a usage error: nothing runs.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use wmh_core::SketchStore;
use wmh_serve::{snapshot, wal, Server, Service, ServiceConfig};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  wmh-serve serve --store FILE [--addr 127.0.0.1:7878] [--wal DIR]
                  [--snapshot-every N] [--scrub-every-secs S]
  wmh-serve snapshot --store FILE --wal DIR
  wmh-serve wal-info DIR";

fn usage_error(problem: &str) -> String {
    format!("{problem}\n{USAGE}")
}

/// The `--flag value` pairs of one verb's arguments. Every flag must be
/// one of `allowed`, appear at most once, and carry a value that is not
/// itself a flag.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], allowed: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if !allowed.contains(&flag.as_str()) {
                return Err(usage_error(&format!("unknown flag {flag:?}")));
            }
            if pairs.iter().any(|&(seen, _)| seen == flag) {
                return Err(usage_error(&format!("{flag} given twice")));
            }
            match rest.next() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((flag.as_str(), value.as_str()))
                }
                _ => return Err(usage_error(&format!("{flag} needs a value"))),
            }
        }
        Ok(Self(pairs))
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|&&(flag, _)| flag == name).map(|&(_, value)| value)
    }

    fn required(&self, name: &str) -> Result<&'a str, String> {
        self.get(name).ok_or_else(|| usage_error(&format!("missing {name}")))
    }

    fn num(&self, name: &str) -> Result<u64, String> {
        self.get(name).map_or(Ok(0), |raw| {
            raw.parse().map_err(|e| usage_error(&format!("invalid {name} {raw:?}: {e}")))
        })
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err(USAGE.to_owned());
    };
    match cmd.as_str() {
        "serve" => {
            let flags = Flags::parse(
                rest,
                &["--store", "--addr", "--wal", "--snapshot-every", "--scrub-every-secs"],
            )?;
            let store = flags.required("--store")?;
            let wal = flags.get("--wal");
            if wal.is_none() {
                if let Some(flag) = ["--snapshot-every", "--scrub-every-secs"]
                    .into_iter()
                    .find(|&flag| flags.get(flag).is_some())
                {
                    return Err(usage_error(&format!("{flag} needs --wal")));
                }
            }
            let addr = flags.get("--addr").unwrap_or("127.0.0.1:7878");
            let snapshot_every = Some(flags.num("--snapshot-every")?).filter(|&n| n > 0);
            serve(store, addr, wal, snapshot_every, flags.num("--scrub-every-secs")?)
                .map(|()| ExitCode::SUCCESS)
        }
        "snapshot" => {
            let flags = Flags::parse(rest, &["--store", "--wal"])?;
            snapshot_verb(flags.required("--store")?, flags.required("--wal")?)
                .map(|()| ExitCode::SUCCESS)
        }
        "wal-info" => match rest {
            [dir] if !dir.starts_with("--") => wal_info(dir),
            _ => Err(usage_error(&match rest.iter().find(|a| a.starts_with("--")) {
                Some(flag) => format!("unknown flag {flag:?}"),
                None => "wal-info takes exactly one DIR".to_owned(),
            })),
        },
        other => Err(usage_error(&format!("unknown command {other:?}"))),
    }
}

/// Offline WAL + snapshot inspection. Exit code 2 (distinct from the
/// generic failure 1) when any sealed segment or snapshot is damaged.
fn wal_info(dir: &str) -> Result<ExitCode, String> {
    let path = Path::new(dir);
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
    let store = SketchStore::load_from_path(Path::new(store_path))
        .map_err(|e| format!("loading {store_path}: {e}"))?;
    let service = Service::open(&store, Path::new(wal_dir), ServiceConfig::default())
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
    wal: Option<&str>,
    snapshot_every: Option<u64>,
    scrub_every_secs: u64,
) -> Result<(), String> {
    let store = SketchStore::load_from_path(Path::new(store_path))
        .map_err(|e| format!("loading {store_path}: {e}"))?;
    let config = ServiceConfig { snapshot_every, ..ServiceConfig::default() };
    let service = Arc::new(
        match wal {
            Some(path) => Service::open(&store, Path::new(path), config),
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
    let _scrubber = if scrub_every_secs > 0 {
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
