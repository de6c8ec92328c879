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

/// Validate every `*.json` directly under `dir` (checkpoint logs live in
/// subdirectories and are line-oriented, so they stay out of scope).
///
/// Returns `(file_name, outcome)` per file, sorted by name; an unknown
/// file name or an unreadable/invalid file is an `Err` outcome.
#[must_use]
pub fn validate_results_dir(dir: &Path) -> Vec<(String, Result<(), String>)> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => return vec![(dir.display().to_string(), Err(format!("unreadable: {e}")))],
    };
    let mut names: Vec<String> = entries
        .filter_map(Result::ok)
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let outcome = validate_file(dir, &name);
            (name, outcome)
        })
        .collect()
}

fn validate_file(dir: &Path, name: &str) -> Result<(), String> {
    let schema = schema_for(name)
        .ok_or_else(|| "no schema registered (add one in crates/eval/src/schemas.rs)".to_owned())?;
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
    fn unknown_files_are_rejected() {
        assert!(schema_for("mystery_output.json").is_none());
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
