//! Scenarios as values: each [`Scenario`] owns its failpoint registry —
//! per-point hit counters and seeded activation state — behind an `Arc`.
//!
//! Nothing here is process-global. A point consults the scenario entered
//! on the *calling thread* (a thread-local); with none entered it returns
//! `Ok(())` and counts nothing. Work that moves to another thread takes
//! its submitter's scenario along in a [`Carry`]. Activation decisions
//! happen under the scenario's lock; injected sleeps happen *after* the
//! lock is released so a delay action never stalls other points.

// Without the feature, `hit` is never called (lib.rs short-circuits), but
// the registry still compiles so `scenario`/`Scenario::hits` keep their
// types and the feature flip can't break callers.
#![cfg_attr(not(feature = "failpoints"), allow(dead_code))]

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// An injected failure: the typed error a firing failpoint returns.
///
/// Callers map this into their own error domain (an I/O error string, a
/// checkpoint error, …); the point name is carried so the mapped error
/// names the injection site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    point: &'static str,
}

impl Fault {
    /// The failpoint that fired.
    #[must_use]
    pub fn point(&self) -> &'static str {
        self.point
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.point)
    }
}

impl std::error::Error for Fault {}

/// When a spec fires relative to the point's hit stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Trigger {
    /// Fire on the first matching hit only.
    Once,
    /// Fire on every matching hit.
    Always,
    /// Never fire — counting-only probe.
    Never,
    /// Fire on every Nth matching hit (hits N, 2N, …).
    EveryNth(u64),
    /// Fire each matching hit with this probability (seeded SplitMix64).
    Prob(f64),
}

/// What a firing spec does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Return [`Fault`] from the point.
    Fail,
    /// Sleep, then succeed — the schedule-shuffling action.
    Sleep(Duration),
}

/// One parsed `point[@tag]=trigger[:action]` clause.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spec {
    pub tag: Option<String>,
    pub trigger: Trigger,
    pub action: Action,
}

/// A spec plus its live activation state.
#[derive(Debug)]
struct SpecState {
    spec: Spec,
    /// Matching hits seen (tag filter applied).
    matched: u64,
    once_done: bool,
    /// SplitMix64 state for `Prob` draws.
    rng: u64,
}

#[derive(Debug, Default)]
struct PointState {
    hits: u64,
    fired: u64,
    specs: Vec<SpecState>,
}

#[derive(Debug, Default)]
struct Registry {
    points: HashMap<String, PointState>,
}

/// SplitMix64 output function (also used to decorrelate seeds).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the point name, to give every point its own seed stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Advance a SplitMix64 state and return a uniform draw in `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    let z = mix(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Registry {
    fn hit(&mut self, name: &str, tag: Option<&str>) -> Option<Action> {
        let point = self.points.entry(name.to_owned()).or_default();
        point.hits += 1;
        for s in &mut point.specs {
            let matches = s.spec.tag.as_deref().is_none_or(|t| Some(t) == tag);
            if !matches {
                continue;
            }
            s.matched += 1;
            let fire = match s.spec.trigger {
                Trigger::Once => !std::mem::replace(&mut s.once_done, true),
                Trigger::Always => true,
                Trigger::Never => false,
                Trigger::EveryNth(n) => s.matched % n == 0,
                Trigger::Prob(p) => next_unit(&mut s.rng) < p,
            };
            if fire {
                point.fired += 1;
                return Some(s.spec.action);
            }
        }
        None
    }
}

/// A parsed scenario: its specs, their seeded schedules and every point's
/// hit/fire counters. Clones share one registry, so a clone carried to
/// another thread counts into the same counters.
///
/// Obtained already entered from [`crate::scenario`] (through the guard's
/// `Deref`); a [`Carry`] enters it on further threads.
#[derive(Clone, Debug)]
pub struct Scenario {
    registry: Arc<Mutex<Registry>>,
}

thread_local! {
    /// The scenario points on this thread consult, if any.
    static CURRENT: RefCell<Option<Scenario>> = const { RefCell::new(None) };
}

impl Scenario {
    /// A fresh scenario over `specs`, every counter at zero.
    pub(crate) fn new(specs: Vec<(String, Spec)>, seed: u64) -> Self {
        let mut reg = Registry::default();
        for (index, (name, spec)) in specs.into_iter().enumerate() {
            let rng = mix(seed ^ fnv1a(&name) ^ (index as u64).wrapping_mul(0x9E37_79B9));
            let point = reg.points.entry(name).or_default();
            point.specs.push(SpecState { spec, matched: 0, once_done: false, rng });
        }
        Self { registry: Arc::new(Mutex::new(reg)) }
    }

    /// A poisoned lock only means some thread panicked mid-update;
    /// counters are monotone u64s, so the state is still usable — recover.
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total hits of `name` on threads that had this scenario entered.
    ///
    /// Every hit is counted — including points the scenario never names —
    /// so a `never` probe (or any unrelated spec) turns arbitrary points
    /// into observable counters for tests.
    #[must_use]
    pub fn hits(&self, name: &str) -> u64 {
        self.lock().points.get(name).map_or(0, |p| p.hits)
    }

    /// How many hits of `name` actually fired an action.
    #[must_use]
    pub fn fired(&self, name: &str) -> u64 {
        self.lock().points.get(name).map_or(0, |p| p.fired)
    }

    /// Enter this scenario on the calling thread until the guard drops,
    /// when the thread's previous scenario (or none) is restored. Guards
    /// on one thread must drop in reverse order of entry.
    pub(crate) fn enter(&self) -> ScenarioGuard {
        let previous = CURRENT.replace(Some(self.clone()));
        ScenarioGuard { scenario: self.clone(), previous, _thread: PhantomData }
    }
}

/// A [`Scenario`] entered on the current thread; dropping the guard exits
/// it. Dereferences to the scenario, so `guard.hits(..)` reads its
/// counters. Not `Send`: it restores *this* thread's previous scenario.
#[must_use = "the scenario exits when the guard drops"]
pub struct ScenarioGuard {
    scenario: Scenario,
    previous: Option<Scenario>,
    _thread: PhantomData<*const ()>,
}

impl std::ops::Deref for ScenarioGuard {
    type Target = Scenario;

    fn deref(&self) -> &Scenario {
        &self.scenario
    }
}

impl Drop for ScenarioGuard {
    fn drop(&mut self) {
        CURRENT.set(self.previous.take());
    }
}

/// The calling thread's scenario, packed for work that runs elsewhere:
/// capture it where work is submitted, [`Carry::run`] the work where it
/// executes, and the work's failpoints see its submitter's scenario.
///
/// Without the `failpoints` feature this is a zero-sized no-op and
/// `run(work)` is just `work()`.
#[derive(Clone, Debug, Default)]
pub struct Carry {
    #[cfg(feature = "failpoints")]
    scenario: Option<Scenario>,
}

impl Carry {
    /// Capture the scenario entered on the calling thread (possibly none).
    #[inline]
    #[must_use]
    pub fn capture() -> Self {
        Self {
            #[cfg(feature = "failpoints")]
            scenario: CURRENT.with_borrow(Clone::clone),
        }
    }

    /// Run `work` on the calling thread with the captured scenario
    /// entered, restoring the thread's own scenario afterwards.
    #[inline]
    pub fn run<R>(self, work: impl FnOnce() -> R) -> R {
        #[cfg(feature = "failpoints")]
        let _entered = self.scenario.as_ref().map(Scenario::enter);
        work()
    }
}

/// Evaluate one hit of `name` against the calling thread's scenario.
pub(crate) fn hit(name: &'static str, tag: Option<&str>) -> Result<(), Fault> {
    let action = CURRENT.with_borrow(|current| current.as_ref()?.lock().hit(name, tag));
    match action {
        None => Ok(()),
        Some(Action::Fail) => Err(Fault { point: name }),
        // Sleep outside the lock: a delay must shuffle thread schedules,
        // not serialize every other failpoint behind it.
        Some(Action::Sleep(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::scenario::scenario;

    #[test]
    fn every_nth_fires_on_schedule() {
        let g = scenario("reg::nth=1in3", 1).expect("scenario");
        let fired: Vec<bool> = (0..9).map(|_| crate::hit("reg::nth", None).is_err()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
        assert_eq!(g.hits("reg::nth"), 9);
        assert_eq!(g.fired("reg::nth"), 3);
    }

    #[test]
    fn once_fires_exactly_once() {
        let g = scenario("reg::once=once", 1).expect("scenario");
        assert!(crate::hit("reg::once", None).is_err());
        for _ in 0..10 {
            assert!(crate::hit("reg::once", None).is_ok());
        }
        assert_eq!(g.fired("reg::once"), 1);
    }

    #[test]
    fn probability_stream_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let _g = scenario("reg::prob=p0.5", seed).expect("scenario");
            (0..64).map(|_| crate::hit("reg::prob", None).is_err()).collect()
        };
        assert_eq!(run(42), run(42), "same seed must replay the same faults");
        assert_ne!(run(42), run(43), "different seeds should diverge");
        let fires = run(7).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&fires), "p0.5 over 64 hits fired {fires} times");
    }

    #[test]
    fn tags_scope_injection() {
        let _g = scenario("reg::tagged@ICWS=always", 1).expect("scenario");
        assert!(crate::hit("reg::tagged", Some("MinHash")).is_ok());
        assert!(crate::hit("reg::tagged", Some("ICWS")).is_err());
        assert!(crate::hit("reg::tagged", None).is_ok());
    }

    #[test]
    fn never_probe_counts_without_firing() {
        let g = scenario("reg::probe=never", 1).expect("scenario");
        for _ in 0..5 {
            assert!(crate::hit("reg::probe", None).is_ok());
        }
        // Unconfigured points are counted too while a scenario is entered.
        assert!(crate::hit("reg::unnamed", None).is_ok());
        assert_eq!(g.hits("reg::probe"), 5);
        assert_eq!(g.hits("reg::unnamed"), 1);
        assert_eq!(g.fired("reg::probe"), 0);
    }

    #[test]
    fn sleep_action_succeeds_after_delay() {
        let _g = scenario("reg::nap=always:sleep1ms", 1).expect("scenario");
        let start = std::time::Instant::now();
        assert!(crate::hit("reg::nap", None).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn counters_reset_between_scenarios() {
        let first = {
            let g = scenario("reg::reset=never", 1).expect("scenario");
            crate::hit("reg::reset", None).ok();
            assert_eq!(g.hits("reg::reset"), 1);
            g.clone()
        };
        // Exited: this thread's hits count nowhere, not in `first`.
        crate::hit("reg::reset", None).ok();
        assert_eq!(first.hits("reg::reset"), 1, "an exited scenario must stop counting");
        let g = scenario("reg::reset=never", 1).expect("scenario");
        assert_eq!(g.hits("reg::reset"), 0);
    }

    #[test]
    fn nested_scenarios_restore_the_outer_one() {
        let outer = scenario("reg::nest=never", 1).expect("scenario");
        {
            let inner = scenario("reg::nest=always", 1).expect("scenario");
            assert!(crate::hit("reg::nest", None).is_err());
            assert_eq!((inner.hits("reg::nest"), outer.hits("reg::nest")), (1, 0));
        }
        assert!(crate::hit("reg::nest", None).is_ok());
        assert_eq!(outer.hits("reg::nest"), 1);
    }

    /// Two threads holding different scenarios over the same point each
    /// see only their own counters, and a thread holding none is untouched
    /// by a point another thread armed `always`.
    #[test]
    fn scenarios_are_hermetic_across_threads() {
        let armed = std::sync::Barrier::new(3);
        let hit_all = std::sync::Barrier::new(3);
        let counts = |spec: &'static str, n: usize| {
            let (armed, hit_all) = (&armed, &hit_all);
            move || {
                let g = scenario(spec, 5).expect("scenario");
                armed.wait();
                let failed = (0..n).filter(|_| crate::hit("reg::shared", None).is_err()).count();
                hit_all.wait();
                (failed, g.hits("reg::shared"), g.fired("reg::shared"))
            }
        };
        std::thread::scope(|s| {
            let always = s.spawn(counts("reg::shared=always", 7));
            let every_third = s.spawn(counts("reg::shared=1in3", 9));
            let bare = s.spawn(|| {
                armed.wait();
                let ok = (0..11).all(|_| crate::hit("reg::shared", None).is_ok());
                hit_all.wait();
                ok
            });
            assert_eq!(always.join().expect("always thread"), (7, 7, 7));
            assert_eq!(every_third.join().expect("1in3 thread"), (3, 9, 3));
            assert!(bare.join().expect("bare thread"), "no scenario: every hit must be Ok");
        });
    }

    #[test]
    fn carry_runs_work_under_the_submitters_scenario() {
        let g = scenario("reg::carried=always", 1).expect("scenario");
        let carry = Carry::capture();
        let point = || crate::hit("reg::carried", None).is_ok();
        let seen = std::thread::spawn(move || (point(), carry.run(point), point()));
        assert_eq!(seen.join().expect("thread"), (true, false, true), "only carried work faults");
        assert_eq!((g.hits("reg::carried"), g.fired("reg::carried")), (1, 1));
    }
}
