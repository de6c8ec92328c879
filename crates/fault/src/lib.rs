//! # `wmh-fault` — deterministic failpoints, from scratch
//!
//! Production fault-tolerance code is only as trustworthy as the tests
//! that exercise its error paths, and error paths are exactly the code
//! that never runs under a healthy test environment. This crate provides
//! *failpoints*: named injection sites compiled into I/O and scheduling
//! hot spots (`wmh_fault::point!("checkpoint::fsync")`) that stay inert
//! until a test or an operator activates them with a *scenario* — a
//! compact string such as
//!
//! ```text
//! WMH_FAULTS="checkpoint::fsync=1in20;store::write=once;par::worker_delay=p0.3:sleep2ms"
//! ```
//!
//! Design goals, in priority order:
//!
//! 1. **Deterministic.** Every activation schedule is a pure function of
//!    the scenario seed and the point's hit counter (probabilities run on
//!    a per-point SplitMix64 stream). Replaying a seed replays the faults.
//! 2. **Zero cost when compiled out.** Without the `failpoints` cargo
//!    feature, [`hit`] is an inlined `Ok(())` — no atomics, no branches —
//!    so release binaries carry no trace of the instrumentation. Test
//!    builds enable the feature through dev-dependency unification.
//! 3. **Hermetic.** A scenario is a value, not process state: a point
//!    consults only the scenario entered on its own thread, so two tests
//!    injecting faults at the same point never see each other's.
//! 4. **Dependency-free and panic-free.** Each scenario's registry is a
//!    `std`-only mutex-protected map; poisoned locks are recovered, and
//!    every parse failure is a typed [`ScenarioError`].
//!
//! ## Scenario grammar
//!
//! ```text
//! scenario := spec (';' spec)*
//! spec     := point ['@' tag] '=' trigger [':' action]
//! trigger  := 'once' | 'always' | 'never' | '1in' N | 'p' FLOAT
//! action   := 'fail' (default) | 'sleep' DURATION      e.g. sleep2ms, sleep500us
//! ```
//!
//! * `once` — fire on the first hit only (fail-once).
//! * `always` — fire on every hit.
//! * `never` — never fire, but still count hits (an observability probe;
//!   see [`Scenario::hits`]).
//! * `1inN` — fire on every Nth hit of the point (hits N, 2N, …).
//! * `pF` — fire each hit with probability `F`, drawn from the point's
//!   seeded SplitMix64 stream.
//! * `@tag` — only fire when the call site's tag matches (e.g.
//!   `sweep::cell@ICWS` injects only into ICWS cells). Untagged specs
//!   match every hit of the point.
//! * `:sleepDUR` — on activation, sleep for `DUR` and succeed instead of
//!   failing; the schedule-shuffling action for concurrency soaks.
//!
//! ## Using a point
//!
//! ```
//! fn save() -> Result<(), String> {
//!     wmh_fault::point!("demo::save").map_err(|f| f.to_string())?;
//!     Ok(())
//! }
//! // Inert by default:
//! assert!(save().is_ok());
//! // Activated under a scenario entered on this thread (tests):
//! # #[cfg(feature = "failpoints")]
//! # {
//! let guard = wmh_fault::scenario("demo::save=always", 7).unwrap();
//! assert!(save().is_err());
//! assert_eq!(guard.fired("demo::save"), 1);
//! # }
//! ```
//!
//! ## Scenarios and threads
//!
//! [`scenario`] returns a [`Scenario`] — its specs and counters behind an
//! `Arc` — entered on the calling thread until the returned
//! [`ScenarioGuard`] drops.
//! Points consult the thread's entered scenario through a thread-local;
//! with none entered they return `Ok(())` and count nothing. Threads do
//! not inherit a scenario by themselves: code that hands work to another
//! thread captures a [`Carry`] where the work is submitted and runs the
//! work through it where it executes (`wmh-par` tasks, `wmh-serve` shard
//! jobs and service threads, `wmh_check::stress::hammer`), so the work's
//! points see its submitter's scenario. Tests therefore need no lock and
//! no `--test-threads=1`. Binaries call [`init_from_env`] once on the
//! main thread instead.

mod registry;
mod scenario;
pub mod supervisor;

pub use registry::{Carry, Fault, Scenario, ScenarioGuard};
pub use scenario::{env_seed, init_from_env, scenario, Activation, ScenarioError};

/// Hit the named failpoint; `tag` scopes the hit for `@tag` filters.
///
/// Returns `Ok(())` when the point is inert (no scenario entered on this
/// thread, no matching spec, schedule did not trigger) or after an injected sleep completes;
/// returns `Err(`[`Fault`]`)` when an injected failure fires. Call sites
/// that only ever want delay injection may ignore the result.
///
/// # Errors
/// [`Fault`] when the thread's scenario fires a `fail` action here.
#[inline]
pub fn hit(name: &'static str, tag: Option<&str>) -> Result<(), Fault> {
    #[cfg(feature = "failpoints")]
    {
        registry::hit(name, tag)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = (name, tag);
        Ok(())
    }
}

/// Declare and hit a failpoint: `point!("area::site")` or
/// `point!("area::site", tag)`.
///
/// Expands to a call to [`hit`], so activation is controlled by the
/// features of **this** crate (one switch for the whole build graph), not
/// by the calling crate's features.
#[macro_export]
macro_rules! point {
    ($name:expr) => {
        $crate::hit($name, None)
    };
    ($name:expr, $tag:expr) => {
        $crate::hit($name, Some($tag))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn inert_point_is_ok() {
        assert!(crate::point!("lib::inert").is_ok());
        assert!(crate::point!("lib::inert", "tagged").is_ok());
    }
}
