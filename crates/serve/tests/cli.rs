//! The `wmh-serve` binary, driven as a user drives it: three verbs, and a
//! usage error — before anything runs — for any flag it would otherwise
//! have to ignore.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Output, Stdio};

use wmh_check::scratch;
use wmh_serve::{Client, Outcome, QueryRequest};

mod common;
use common::{corpus, store_for};

fn wmh_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wmh-serve")).args(args).output().expect("run wmh-serve")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Kills the wrapped server process even when an assertion fails.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn usage_lists_exactly_the_three_verbs() {
    for args in [&[][..], &["--help"], &["smoke"], &["load", "--out", "r.json"]] {
        let out = wmh_serve(args);
        assert!(!out.status.success(), "{args:?} must be a usage error");
        let stderr = text(&out.stderr);
        let verbs: Vec<&str> = stderr
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("wmh-serve "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert_eq!(verbs, ["serve", "snapshot", "wal-info"], "{args:?}: {stderr}");
    }
}

#[test]
fn bad_flags_are_usage_errors_before_anything_runs() {
    let cases: [(&[&str], &str); 10] = [
        (
            &["serve", "--store", "s.bin", "--snapshot-evry", "5"],
            "unknown flag \"--snapshot-evry\"",
        ),
        (&["serve", "--store", "--wal", "d"], "--store needs a value"),
        (&["serve", "--store", "s.bin", "--addr"], "--addr needs a value"),
        (
            &["serve", "--store", "s.bin", "--scrub-every-secs", "10"],
            "--scrub-every-secs needs --wal",
        ),
        (&["serve", "--store", "s.bin", "--snapshot-every", "5"], "--snapshot-every needs --wal"),
        (&["serve", "--store", "a.bin", "--store", "b.bin"], "--store given twice"),
        (
            &["snapshot", "--store", "s.bin", "--wal", "d", "--bogus", "1"],
            "unknown flag \"--bogus\"",
        ),
        (&["snapshot", "--store", "s.bin", "--wal"], "--wal needs a value"),
        (&["wal-info", "d", "--verbose"], "unknown flag \"--verbose\""),
        (&["wal-info"], "wal-info takes exactly one DIR"),
    ];
    for (args, problem) in cases {
        let out = wmh_serve(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(problem), "{args:?}: expected {problem:?} in {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something: {}", text(&out.stdout));
    }
}

/// `snapshot`, `wal-info` and a writable `serve` with every WAL flag, in
/// the order an operator would run them.
#[test]
fn verbs_run_end_to_end() {
    let docs = corpus(24);
    let dir = scratch("cli");
    let store = dir.join("sketches.bin");
    store_for(&docs).save_to_path(&store).expect("save store");
    let wal = dir.join("wal");
    let (store_arg, wal_arg) = (path_arg(&store), path_arg(&wal));

    let snap = wmh_serve(&["snapshot", "--store", store_arg, "--wal", wal_arg]);
    assert!(snap.status.success(), "{}", text(&snap.stderr));
    assert!(text(&snap.stdout).contains("snapshot: wrote generation"), "{}", text(&snap.stdout));

    let info = wmh_serve(&["wal-info", wal_arg]);
    assert!(info.status.success(), "{}", text(&info.stderr));
    assert!(text(&info.stdout).contains("wal-info: clean"), "{}", text(&info.stdout));

    let mut server = Running(
        Command::new(env!("CARGO_BIN_EXE_wmh-serve"))
            .args(["serve", "--store", store_arg, "--wal", wal_arg, "--addr", "127.0.0.1:0"])
            .args(["--snapshot-every", "5", "--scrub-every-secs", "60"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve"),
    );
    let stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let banner = stdout
        .lines()
        .map(|line| line.expect("read serve output"))
        .find(|line| line.starts_with("serving "))
        .expect("serve exited before its banner");
    assert!(banner.contains("(read-write)"), "{banner}");
    let addr = banner.rsplit(" on ").next().expect("address in banner");

    let mut client = Client::connect(addr).expect("connect");
    let doc: Vec<(u64, f64)> = docs[0].iter().collect();
    let query = QueryRequest { id: 1, doc: doc.clone(), k: 5, deadline_us: Some(5_000_000) };
    let hit = client.query(&query).expect("query");
    assert_eq!(hit.outcome, Outcome::Ok, "{hit:?}");
    assert_eq!(hit.results.first(), Some(&(0u64, 1.0f64)), "self-match must lead: {hit:?}");
    let write = client.insert(1_000_000, doc, Some(5_000_000)).expect("insert");
    assert_eq!(write.outcome, Outcome::Ok, "{write:?}");
    assert!(write.durable && write.applied, "{write:?}");

    drop(server);
    let _ = std::fs::remove_dir_all(dir);
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 temp path")
}
