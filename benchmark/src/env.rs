//! The environment block every output carries, so a number can be traced
//! to the host, toolchain and code that produced it.

use std::process::Command;

use wmh_json::Json;

/// Bumped whenever a workload, metric or phase changes meaning.
pub const BENCHMARK_VERSION: &str = "wmh-benchmark/1";

/// Describe this run: host, toolchain, codegen, features, code revision,
/// seed and benchmark version.
#[must_use]
pub fn block(workload: &str, seed: u64) -> Json {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let rev = run("git", &["-C", repo, "rev-parse", "HEAD"]);
    let dirty = rev.as_ref().and_then(|_| run("git", &["-C", repo, "status", "--porcelain"]));
    Json::Obj(vec![
        ("benchmark_version".into(), Json::Str(BENCHMARK_VERSION.into())),
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::U64(seed)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        (
            "available_parallelism".into(),
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc".into(), Json::Str(run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()))),
        ("avx2".into(), Json::Bool(cfg!(target_feature = "avx2"))),
        ("avx512f".into(), Json::Bool(cfg!(target_feature = "avx512f"))),
        (
            "profile".into(),
            Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        // The benchmark declares no features and nothing in its build graph
        // enables `wmh-fault/failpoints`, so every failpoint is inert.
        ("cargo_features".into(), Json::Arr(Vec::new())),
        ("failpoints".into(), Json::Bool(false)),
        ("git_rev".into(), Json::Str(rev.unwrap_or_else(|| "unknown".into()))),
        ("git_dirty".into(), dirty.map_or(Json::Null, |s| Json::Bool(!s.is_empty()))),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run a command to completion; its trimmed stdout, or `None` when it
/// cannot run or fails.
fn run(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
