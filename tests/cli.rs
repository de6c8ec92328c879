//! End-to-end tests of the `wmh` CLI binary.

use std::process::Command;

fn wmh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wmh"))
}

fn write_docs(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("docs.json");
    std::fs::write(
        &path,
        r#"{
            "alpha":  {"1": 2.0, "2": 1.0, "3": 1.0},
            "alpha2": {"1": 2.0, "2": 1.0, "3": 1.0},
            "beta":   {"10": 1.0, "11": 1.0},
            "textual": {"cat": 1.5, "dog": 0.5}
        }"#,
    )
    .expect("write fixture");
    path
}

#[test]
fn algorithms_lists_all_fifteen() {
    let out = wmh().arg("algorithms").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "MinHash",
        "ICWS",
        "PCWS",
        "I2CWS",
        "Shrivastava2016",
        "Chum2008",
        "DartMinHash",
        "BagMinHash",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    // ci.sh pins the same count: a silently unregistered sketcher fails CI.
    assert_eq!(text.lines().count(), 15);
}

#[test]
fn estimate_reports_expected_similarities() {
    let dir = wmh_check::scratch("cli-estimate");
    let docs = write_docs(&dir);
    let out = wmh()
        .args(["estimate", "--input"])
        .arg(&docs)
        .args(["--hashes", "512", "--exact"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // alpha vs alpha2 are identical: estimate = 1.
    let dup_line =
        text.lines().find(|l| l.contains("alpha") && l.contains("alpha2")).expect("pair line");
    assert!(dup_line.contains("1.0000"), "{dup_line}");
    // alpha vs beta are disjoint: estimate ≈ 0.
    let disjoint =
        text.lines().find(|l| l.contains("alpha ") && l.contains("beta")).expect("pair line");
    assert!(disjoint.contains("0.00"), "{disjoint}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sketch_writes_fingerprints() {
    let dir = wmh_check::scratch("cli-sketch");
    let docs = write_docs(&dir);
    let out_path = dir.join("sketches.json");
    let out = wmh()
        .args(["sketch", "--input"])
        .arg(&docs)
        .args(["--hashes", "64", "--output"])
        .arg(&out_path)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: std::collections::BTreeMap<String, Vec<u64>> =
        wmh_json::from_str(&std::fs::read_to_string(&out_path).expect("read")).expect("json");
    assert_eq!(parsed.len(), 4);
    assert!(parsed.values().all(|codes| codes.len() == 64));
    // Identical documents produce identical fingerprints.
    assert_eq!(parsed["alpha"], parsed["alpha2"]);
    assert_ne!(parsed["alpha"], parsed["beta"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dedup_groups_duplicates() {
    let dir = wmh_check::scratch("cli-dedup");
    let docs = write_docs(&dir);
    let out = wmh()
        .args(["dedup", "--input"])
        .arg(&docs)
        .args(["--threshold", "0.9"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("alpha") && text.contains("alpha2"), "{text}");
    assert!(!text.contains("beta"), "beta is no duplicate: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_inputs_fail_cleanly() {
    let out = wmh().arg("sketch").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    let out =
        wmh().args(["estimate", "--input", "/definitely/missing.json"]).output().expect("spawn");
    assert!(!out.status.success());

    let dir = wmh_check::scratch("cli-bad");
    let docs = write_docs(&dir);
    let out = wmh()
        .args(["estimate", "--input"])
        .arg(&docs)
        .args(["--algorithm", "NotAThing"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("available"));
    let _ = std::fs::remove_dir_all(&dir);

    let out = wmh().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
}
