//! Scenario strings: parsing, and the two ways a scenario gets entered —
//! [`scenario`] for tests (scoped to a guard) and [`init_from_env`] for
//! binaries (for the rest of the main thread's life).
//!
//! A scenario is `;`-separated clauses of the form
//! `point['@'tag]'='trigger[':'action]` (grammar in the crate docs).

use std::time::Duration;

use crate::registry::{Action, Scenario, ScenarioGuard, Spec, Trigger};

/// A scenario string that could not be parsed or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A clause had no `=` separating the point name from its trigger.
    MissingTrigger {
        /// The offending clause, verbatim.
        spec: String,
    },
    /// A clause had an empty point name (e.g. `=always`).
    EmptyPoint {
        /// The offending clause, verbatim.
        spec: String,
    },
    /// The trigger was not `once`/`always`/`never`/`1inN`/`pF`.
    BadTrigger {
        /// The offending clause, verbatim.
        spec: String,
        /// The unrecognized trigger text.
        trigger: String,
    },
    /// The action was not `fail`/`sleepDUR`.
    BadAction {
        /// The offending clause, verbatim.
        spec: String,
        /// The unrecognized action text.
        action: String,
    },
    /// `WMH_FAULT_SEED` was not a decimal or `0x`-prefixed hex u64.
    BadSeed {
        /// The unparseable seed text.
        value: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingTrigger { spec } => {
                write!(f, "fault spec {spec:?} is missing '=trigger'")
            }
            Self::EmptyPoint { spec } => {
                write!(f, "fault spec {spec:?} has an empty point name")
            }
            Self::BadTrigger { spec, trigger } => write!(
                f,
                "fault spec {spec:?}: unknown trigger {trigger:?} \
                 (expected once|always|never|1inN|pF)"
            ),
            Self::BadAction { spec, action } => {
                write!(f, "fault spec {spec:?}: unknown action {action:?} (expected fail|sleepDUR)")
            }
            Self::BadSeed { value } => {
                write!(f, "WMH_FAULT_SEED {value:?} is not a u64 (decimal or 0x-hex)")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// What [`init_from_env`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `WMH_FAULTS` unset or empty: nothing to inject.
    Inactive,
    /// A scenario was entered on the calling thread.
    Active {
        /// Number of fault specs in it.
        specs: usize,
        /// The seed driving probabilistic schedules.
        seed: u64,
    },
    /// `WMH_FAULTS` was set, but this binary was compiled without the
    /// `failpoints` feature — every point is a no-op, so the scenario
    /// cannot take effect. Callers should surface this loudly.
    CompiledOut,
}

fn parse_duration(text: &str, spec: &str) -> Result<Duration, ScenarioError> {
    let bad = || ScenarioError::BadAction { spec: spec.to_owned(), action: format!("sleep{text}") };
    let (digits, unit) = match text.find(|c: char| !c.is_ascii_digit()) {
        Some(split) if split > 0 => text.split_at(split),
        _ => return Err(bad()),
    };
    let value: u64 = digits.parse().map_err(|_| bad())?;
    match unit {
        "ns" => Ok(Duration::from_nanos(value)),
        "us" => Ok(Duration::from_micros(value)),
        "ms" => Ok(Duration::from_millis(value)),
        "s" => Ok(Duration::from_secs(value)),
        _ => Err(bad()),
    }
}

fn parse_trigger(text: &str, spec: &str) -> Result<Trigger, ScenarioError> {
    let bad = || ScenarioError::BadTrigger { spec: spec.to_owned(), trigger: text.to_owned() };
    match text {
        "once" => return Ok(Trigger::Once),
        "always" => return Ok(Trigger::Always),
        "never" => return Ok(Trigger::Never),
        _ => {}
    }
    if let Some(n) = text.strip_prefix("1in") {
        let n: u64 = n.parse().map_err(|_| bad())?;
        if n == 0 {
            return Err(bad());
        }
        return Ok(Trigger::EveryNth(n));
    }
    if let Some(p) = text.strip_prefix('p') {
        let p: f64 = p.parse().map_err(|_| bad())?;
        if !(0.0..=1.0).contains(&p) {
            return Err(bad());
        }
        return Ok(Trigger::Prob(p));
    }
    Err(bad())
}

fn parse_spec(clause: &str) -> Result<(String, Spec), ScenarioError> {
    let Some((site, rest)) = clause.split_once('=') else {
        return Err(ScenarioError::MissingTrigger { spec: clause.to_owned() });
    };
    let (point, tag) = match site.split_once('@') {
        Some((point, tag)) => (point.trim(), Some(tag.trim().to_owned())),
        None => (site.trim(), None),
    };
    if point.is_empty() {
        return Err(ScenarioError::EmptyPoint { spec: clause.to_owned() });
    }
    let (trigger_text, action_text) = match rest.split_once(':') {
        Some((t, a)) => (t.trim(), Some(a.trim())),
        None => (rest.trim(), None),
    };
    let trigger = parse_trigger(trigger_text, clause)?;
    let action = match action_text {
        None | Some("fail") => Action::Fail,
        Some(a) => match a.strip_prefix("sleep") {
            Some(dur) => Action::Sleep(parse_duration(dur, clause)?),
            None => {
                return Err(ScenarioError::BadAction {
                    spec: clause.to_owned(),
                    action: a.to_owned(),
                });
            }
        },
    };
    Ok((point.to_owned(), Spec { tag, trigger, action }))
}

fn parse(scenario: &str) -> Result<Vec<(String, Spec)>, ScenarioError> {
    scenario.split(';').map(str::trim).filter(|clause| !clause.is_empty()).map(parse_spec).collect()
}

/// Parse `spec` and enter it under `seed` on the calling thread for the
/// lifetime of the returned guard, every counter starting at zero.
///
/// The scenario is a value, not process state: other threads — other
/// tests included — never see it unless work carries it there (a
/// [`crate::Carry`]), so scenario-holding tests run in parallel. Read its
/// counters through the guard (`guard.hits(..)`, `guard.fired(..)`).
///
/// # Errors
/// [`ScenarioError`] if `spec` does not match the grammar.
pub fn scenario(spec: &str, seed: u64) -> Result<ScenarioGuard, ScenarioError> {
    Ok(Scenario::new(parse(spec)?, seed).enter())
}

/// A `WMH_FAULT_SEED` value: decimal or `0x`-hex; unset or blank is `None`.
fn parse_seed(text: Option<&str>) -> Result<Option<u64>, ScenarioError> {
    let Some(text) = text.map(str::trim).filter(|s| !s.is_empty()) else {
        return Ok(None);
    };
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map(Some).map_err(|_| ScenarioError::BadSeed { value: text.to_owned() })
}

/// The seed pinned by `WMH_FAULT_SEED` (decimal or `0x`-hex), if any —
/// the one [`init_from_env`] uses, exposed so fault-injecting tests
/// can honour the same pin.
///
/// # Errors
/// [`ScenarioError::BadSeed`] if the variable is set but not a `u64`.
pub fn env_seed() -> Result<Option<u64>, ScenarioError> {
    parse_seed(std::env::var("WMH_FAULT_SEED").ok().as_deref())
}

/// The scenario / seed pair as read from the environment. A bad seed is
/// reported only when a scenario would actually be entered.
fn activate(
    faults: Option<&str>,
    seed: Result<Option<u64>, ScenarioError>,
) -> Result<Activation, ScenarioError> {
    let Some(faults) = faults.map(str::trim).filter(|f| !f.is_empty()) else {
        return Ok(Activation::Inactive);
    };
    if !cfg!(feature = "failpoints") {
        return Ok(Activation::CompiledOut);
    }
    let seed = seed?.unwrap_or(0);
    let specs = parse(faults)?;
    let count = specs.len();
    // Entered for the rest of the thread's life: the guard never drops.
    std::mem::forget(Scenario::new(specs, seed).enter());
    Ok(Activation::Active { specs: count, seed })
}

/// Read `WMH_FAULTS` / `WMH_FAULT_SEED` and enter the scenario they
/// describe, if any, on the calling thread for the rest of its life. Call
/// once at binary startup, on the main thread: threads and pool tasks the
/// binary starts inherit it through [`crate::Carry`].
///
/// * `WMH_FAULTS` unset or blank → [`Activation::Inactive`].
/// * Set, but the binary lacks the `failpoints` feature →
///   [`Activation::CompiledOut`] (the caller should tell the operator the
///   scenario is dead weight).
/// * Otherwise the scenario is entered with the seed from
///   `WMH_FAULT_SEED` (decimal or `0x`-hex, default 0).
///
/// # Errors
/// [`ScenarioError`] if either variable fails to parse.
pub fn init_from_env() -> Result<Activation, ScenarioError> {
    let faults = std::env::var("WMH_FAULTS").ok();
    activate(faults.as_deref(), env_seed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let specs = parse(
            "checkpoint::fsync=1in20; store::write=once; \
             par::worker_delay=p0.25:sleep2ms; sweep::cell@ICWS=always:fail;",
        )
        .expect("parse");
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].0, "checkpoint::fsync");
        assert_eq!(specs[0].1.trigger, Trigger::EveryNth(20));
        assert_eq!(specs[0].1.action, Action::Fail);
        assert_eq!(specs[1].1.trigger, Trigger::Once);
        assert_eq!(specs[2].1.trigger, Trigger::Prob(0.25));
        assert_eq!(specs[2].1.action, Action::Sleep(Duration::from_millis(2)));
        assert_eq!(specs[3].0, "sweep::cell");
        assert_eq!(specs[3].1.tag.as_deref(), Some("ICWS"));
        assert_eq!(specs[3].1.trigger, Trigger::Always);
    }

    #[test]
    fn durations_cover_all_units() {
        let cases = [
            ("a=once:sleep500ns", Duration::from_nanos(500)),
            ("a=once:sleep250us", Duration::from_micros(250)),
            ("a=once:sleep2ms", Duration::from_millis(2)),
            ("a=once:sleep1s", Duration::from_secs(1)),
        ];
        for (text, want) in cases {
            let specs = parse(text).expect("parse");
            assert_eq!(specs[0].1.action, Action::Sleep(want), "{text}");
        }
    }

    #[test]
    fn malformed_scenarios_are_typed_errors() {
        assert!(matches!(parse("no_trigger"), Err(ScenarioError::MissingTrigger { .. })));
        assert!(matches!(parse("=always"), Err(ScenarioError::EmptyPoint { .. })));
        assert!(matches!(parse("a=sometimes"), Err(ScenarioError::BadTrigger { .. })));
        assert!(matches!(parse("a=1in0"), Err(ScenarioError::BadTrigger { .. })));
        assert!(matches!(parse("a=p1.5"), Err(ScenarioError::BadTrigger { .. })));
        assert!(matches!(parse("a=pNaN"), Err(ScenarioError::BadTrigger { .. })));
        assert!(matches!(parse("a=once:explode"), Err(ScenarioError::BadAction { .. })));
        assert!(matches!(parse("a=once:sleep2h"), Err(ScenarioError::BadAction { .. })));
        assert!(matches!(parse("a=once:sleepms"), Err(ScenarioError::BadAction { .. })));
    }

    #[test]
    fn blank_env_is_inactive() {
        assert_eq!(activate(None, Ok(None)), Ok(Activation::Inactive));
        assert_eq!(activate(Some("   "), Ok(None)), Ok(Activation::Inactive));
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex_and_blank_is_unset() {
        assert_eq!(parse_seed(None), Ok(None));
        assert_eq!(parse_seed(Some("  ")), Ok(None));
        assert_eq!(parse_seed(Some(" 42 ")), Ok(Some(42)));
        assert_eq!(parse_seed(Some("0XC1A05")), Ok(Some(0xC1A05)));
        assert!(matches!(parse_seed(Some("0xZZ")), Err(ScenarioError::BadSeed { .. })));
    }

    #[test]
    fn bad_seed_is_a_typed_error() {
        if !cfg!(feature = "failpoints") {
            return; // feature-off builds report CompiledOut before seed parsing
        }
        assert!(matches!(
            activate(Some("a=once"), parse_seed(Some("not-a-number"))),
            Err(ScenarioError::BadSeed { .. })
        ));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn env_activation_parses_seeds_and_installs() {
        let active =
            activate(Some("env::point=always"), parse_seed(Some("0xDEADBEEF"))).expect("activate");
        assert_eq!(active, Activation::Active { specs: 1, seed: 0xDEAD_BEEF });
        assert!(crate::hit("env::point", None).is_err());
        // Entered on this thread only: a fresh thread sees no scenario.
        let elsewhere = std::thread::spawn(|| crate::hit("env::point", None).is_ok());
        assert!(elsewhere.join().expect("thread"));
        let active = activate(Some("env::point=never"), parse_seed(Some("42"))).expect("activate");
        assert_eq!(active, Activation::Active { specs: 1, seed: 42 });
        assert!(crate::hit("env::point", None).is_ok());
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn feature_off_reports_compiled_out() {
        assert_eq!(activate(Some("a=always"), Ok(None)), Ok(Activation::CompiledOut));
    }
}
