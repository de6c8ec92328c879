//! Schema registry for every file family under `results/`.
//!
//! CI validates each checked-in artifact against the registered
//! [`Schema`]; a result file with no registered schema is a *failure*, so
//! a new experiment must register its shape here before its output can be
//! committed. That keeps `results/` machine-readable by construction.

use std::path::Path;
use wmh_json::schema::{ObjectSchema, Schema};
use wmh_json::Json;

/// The eval crate's `Measurement` tagged union: a value, a timeout, or a
/// typed failure.
#[must_use]
pub fn measurement() -> Schema {
    Schema::OneOf(vec![
        Schema::Const("TimedOut"),
        Schema::object(vec![("Value", Schema::Number)]),
        Schema::object(vec![("Failed", Schema::Str)]),
    ])
}

/// The wmh-perf report written by `wmh-perf run` (schema `wmh-perf/v1`).
#[must_use]
pub fn perf_report() -> Schema {
    Schema::object(vec![
        ("schema", Schema::Const(crate::report::SCHEMA_VERSION)),
        ("bench", Schema::Str),
        ("profile", Schema::Str),
        (
            "results",
            Schema::array(Schema::object(vec![
                ("id", Schema::Str),
                ("group", Schema::Str),
                ("iters", Schema::UInt),
                ("samples", Schema::UInt),
                ("kept", Schema::UInt),
                ("median_ns", Schema::Number),
                ("mad_ns", Schema::Number),
                ("min_ns", Schema::Number),
            ])),
        ),
    ])
}

fn fig8() -> Schema {
    Schema::array(Schema::object(vec![
        ("dataset", Schema::Str),
        ("algorithm", Schema::Str),
        ("d", Schema::UInt),
        ("mse", measurement()),
        ("mse_std", Schema::Number),
    ]))
}

fn fig9() -> Schema {
    Schema::array(Schema::object(vec![
        ("dataset", Schema::Str),
        ("algorithm", Schema::Str),
        ("d", Schema::UInt),
        ("seconds", measurement()),
    ]))
}

fn table4() -> Schema {
    Schema::array(Schema::object(vec![
        ("name", Schema::Str),
        ("docs", Schema::UInt),
        ("features", Schema::UInt),
        ("avg_density", Schema::Number),
        ("avg_mean_weight", Schema::Number),
        ("avg_std_weight", Schema::Number),
    ]))
}

fn ablation_bbit() -> Schema {
    Schema::array(Schema::object(vec![
        ("bits", Schema::UInt),
        ("bytes", Schema::UInt),
        ("mse", Schema::Number),
    ]))
}

fn ablation_ccws_pairing() -> Schema {
    Schema::object(vec![
        ("linear_shift_mse", Schema::Number),
        ("review_eq14_mse", Schema::Number),
        ("eq14_degenerate_rate", Schema::Number),
    ])
}

fn ablation_quantization() -> Schema {
    Schema::array(Schema::object(vec![
        ("constant", Schema::Number),
        ("mse", Schema::Number),
        ("seconds", Schema::Number),
    ]))
}

fn ablation_small_d() -> Schema {
    Schema::array(Schema::object(vec![
        ("d", Schema::UInt),
        ("icws_mse", Schema::Number),
        ("i2cws_mse", Schema::Number),
    ]))
}

fn bias_study() -> Schema {
    Schema::array(Schema::object(vec![
        ("algorithm", Schema::Str),
        ("family", Schema::Str),
        ("target", Schema::Number),
        ("mean_estimate", Schema::Number),
        ("bias", Schema::Number),
        ("variance", Schema::Number),
        ("binomial_floor", Schema::Number),
    ]))
}

fn complexity_study() -> Schema {
    Schema::array(Schema::object(vec![
        ("algorithm", Schema::Str),
        ("n", Schema::UInt),
        ("seconds", Schema::Number),
    ]))
}

fn streaming_study() -> Schema {
    Schema::array(Schema::Object(ObjectSchema {
        required: vec![
            ("strategy", Schema::Str),
            ("seconds", Schema::Number),
            ("mean_abs_error", Schema::Number),
        ],
        optional: vec![("exact_vs_batch", Schema::Bool)],
        allow_unknown: false,
    }))
}

/// Look up the schema for a `results/` file by its file name.
///
/// Returns `None` for unregistered names — the checker treats that as a
/// failure, not a skip.
#[must_use]
pub fn schema_for(file_name: &str) -> Option<Schema> {
    if file_name == "BENCH_baseline.json" || file_name.starts_with("BENCH_fig9") {
        return Some(perf_report());
    }
    if file_name.starts_with("fig8_") {
        return Some(fig8());
    }
    if file_name.starts_with("fig9_") {
        return Some(fig9());
    }
    if file_name.starts_with("table4_") {
        return Some(table4());
    }
    match file_name {
        "ablation_bbit.json" => Some(ablation_bbit()),
        "ablation_ccws_pairing.json" => Some(ablation_ccws_pairing()),
        "ablation_quantization.json" => Some(ablation_quantization()),
        "ablation_small_d.json" => Some(ablation_small_d()),
        "bias_study.json" => Some(bias_study()),
        "complexity_study.json" => Some(complexity_study()),
        "streaming_study.json" => Some(streaming_study()),
        _ => None,
    }
}

/// Validate every `*.json` directly under `dir`, plus the perf-trajectory
/// points under `dir/trajectory/` (checkpoint logs live in other
/// subdirectories and are line-oriented, so they stay out of scope).
///
/// Returns `(file_name, outcome)` per file, sorted by name; an unknown
/// file name or an unreadable/invalid file is an `Err` outcome.
#[must_use]
pub fn validate_results_dir(dir: &Path) -> Vec<(String, Result<(), String>)> {
    let list = |d: &Path| -> Result<Vec<String>, String> {
        let entries = std::fs::read_dir(d).map_err(|e| format!("unreadable: {e}"))?;
        let mut names: Vec<String> = entries
            .filter_map(Result::ok)
            .filter(|e| e.path().is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort();
        Ok(names)
    };
    let names = match list(dir) {
        Ok(names) => names,
        Err(e) => return vec![(dir.display().to_string(), Err(e))],
    };
    let mut outcomes: Vec<(String, Result<(), String>)> = names
        .into_iter()
        .map(|name| {
            let outcome = validate_file(dir, &name);
            (name, outcome)
        })
        .collect();
    // Trajectory points keep their family's file-name prefix, so they ride
    // the same schema lookup; they are listed as `trajectory/<name>`.
    let traj = dir.join("trajectory");
    if traj.is_dir() {
        match list(&traj) {
            Ok(names) => outcomes.extend(names.into_iter().map(|name| {
                let outcome = validate_file(&traj, &name);
                (format!("trajectory/{name}"), outcome)
            })),
            Err(e) => outcomes.push((traj.display().to_string(), Err(e))),
        }
    }
    outcomes
}

fn validate_file(dir: &Path, name: &str) -> Result<(), String> {
    let schema = schema_for(name)
        .ok_or_else(|| "no schema registered (add one in crates/perf/src/schemas.rs)".to_owned())?;
    let text = std::fs::read_to_string(dir.join(name)).map_err(|e| format!("unreadable: {e}"))?;
    let value = Json::parse(&text).map_err(|e| format!("malformed JSON: {e:?}"))?;
    schema.validate(&value).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_checked_in_result_file_validates() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let outcomes = validate_results_dir(&dir);
        assert!(!outcomes.is_empty(), "results/ should contain artifacts");
        for (name, outcome) in &outcomes {
            assert!(outcome.is_ok(), "{name}: {}", outcome.as_ref().unwrap_err());
        }
    }

    #[test]
    fn checked_in_head_to_head_ordering_holds_at_d128() {
        // The head-to-head acceptance bar, pinned against the checked-in
        // benchmark point on the Table-4 D=128 shape. Two orderings:
        //
        // 1. DartMinHash's O(n + D log D) sketching must undercut every
        //    interval-walk sketcher (the O(n·D·walk) rejection/active-index
        //    family), whose serial per-(element, d) loops resist
        //    vectorization.
        // 2. The fused closed-form CWS kernels (ICWS, 0-bit-CWS, CCWS) must
        //    undercut DartMinHash — the vectorized register-pass layout
        //    inverted the pre-vectorization ordering (see
        //    results/trajectory/ and DESIGN.md "Vectorized kernels").
        //
        // Read from the report so a baseline refresh that loses the
        // head-to-head block (or either advantage) fails here, not in a
        // human's eyeball diff.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_fig9_hot.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_fig9_hot.json is checked in");
        let report: crate::report::Report =
            crate::report::Report::parse(&text).expect("valid perf report");
        let median = |algo: &str| -> f64 {
            let id = format!("fig9/Syn3E0.2S/{algo}/D128");
            report
                .results
                .iter()
                .find(|r| r.id == id)
                .unwrap_or_else(|| panic!("missing head-to-head workload {id}"))
                .median_ns
        };
        let dart = median("DartMinHash");
        for walker in ["CWS", "Haveliwala2000", "Haeupler2014", "Gollapudi2006-Active"] {
            let rival = median(walker);
            assert!(
                dart < rival,
                "DartMinHash ({dart:.0} ns) must beat interval-walker {walker} ({rival:.0} ns) \
                 at D=128"
            );
        }
        for fused in ["ICWS", "0-bit-CWS", "CCWS"] {
            let ours = median(fused);
            assert!(
                ours < dart,
                "vectorized {fused} ({ours:.0} ns) must beat DartMinHash ({dart:.0} ns) at D=128"
            );
        }
    }

    #[test]
    fn unknown_files_are_rejected() {
        assert!(schema_for("mystery_output.json").is_none());
    }

    #[test]
    fn perf_report_schema_accepts_harness_output() {
        let report = crate::report::Report::new(
            "fig9_hot",
            "quick",
            vec![crate::harness::BenchResult {
                id: "fig9/x/MinHash/D32".into(),
                group: "fig9".into(),
                iters: 12,
                samples: 30,
                kept: 29,
                median_ns: 1234.5,
                mad_ns: 10.0,
                min_ns: 1200.0,
            }],
        );
        let value = Json::parse(&wmh_json::to_string(&report)).expect("renders valid JSON");
        perf_report().validate(&value).expect("schema matches the writer");
    }

    #[test]
    fn perf_report_schema_accepts_the_head_to_head_block() {
        // The beyond-the-paper D=128 rows (DartMinHash/BagMinHash) are new
        // workload ids riding the same generic schema; pin that they
        // validate so a registry tightening can't orphan them.
        let results = ["fig9/Syn3E0.2S/DartMinHash/D128", "fig9/Syn3E0.2S/BagMinHash/D128"]
            .into_iter()
            .map(|id| crate::harness::BenchResult {
                id: id.into(),
                group: "fig9".into(),
                iters: 4,
                samples: 30,
                kept: 30,
                median_ns: 987.0,
                mad_ns: 5.0,
                min_ns: 950.0,
            })
            .collect();
        let report = crate::report::Report::new("fig9_hot", "quick", results);
        let value = Json::parse(&wmh_json::to_string(&report)).expect("renders valid JSON");
        perf_report().validate(&value).expect("schema matches the head-to-head rows");
    }

    #[test]
    fn measurement_union_matches_eval_variants() {
        for text in ["\"TimedOut\"", "{\"Value\": 0.5}", "{\"Failed\": \"EmptySet\"}"] {
            let v = Json::parse(text).unwrap();
            assert!(measurement().validate(&v).is_ok(), "{text}");
        }
        assert!(measurement().validate(&Json::parse("{\"Valve\": 1}").unwrap()).is_err());
    }
}
