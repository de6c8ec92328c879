//! Self-healing supervision: bounded retry with seeded backoff, terminal
//! timeouts, and quarantine for persistent failures.
//!
//! The policy was born in the sweep engine (`wmh-eval` re-exports this
//! module unchanged) and is deliberately generic: a *cell* is any retryable
//! unit of work with a stable `u64` identity — an experiment grid cell, a
//! sketch-store ingest record, an admission decision in the serving layer.
//! A cell can fail three ways, and the supervisor treats them very
//! differently:
//!
//! * **Transient** faults (an I/O hiccup, an injected
//!   `sweep::cell` failpoint) are retried up to
//!   [`RetryPolicy::max_retries`] times with exponential backoff. The
//!   backoff jitter is a *pure function* of `(seed, cell, attempt)` — no
//!   clocks, no thread-local RNG — so identical seeds produce identical
//!   retry schedules at any thread count.
//! * **Deadline** outcomes ([`Attempt::TimedOut`]) are terminal on the
//!   first occurrence. A cell that exceeded its wall-clock budget will
//!   exceed it again; retrying would burn the remaining budget of every
//!   other cell. The sequential engine's timeout semantics stay intact.
//! * **Persistent** transient faults — still failing after the whole
//!   retry budget — put the cell in **quarantine**: the sweep records the
//!   failure (checkpointed as a `mse_quarantined` entry, rendered as the
//!   paper's dash with kind `transient-io`) and moves on instead of
//!   aborting an hours-long run.
//!
//! The marker failpoint `sweep::retry` fires just before every backoff
//! sleep, so chaos tests can count exactly how many retries a scenario
//! caused without parsing logs.

use std::time::Duration;

use crate::registry::mix;

/// Bounded-retry policy for transiently failing cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (so a cell runs at most
    /// `max_retries + 1` times). `0` disables retrying.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based) of cell `cell`
    /// under master seed `seed`.
    ///
    /// Exponential (`base · 2^(attempt−1)`, capped at `max_backoff`) with
    /// seeded jitter in `[0.5, 1.0]×` — jitter decorrelates cells that
    /// fail together without ever *extending* the deterministic cap. Pure:
    /// the same `(seed, cell, attempt)` always yields the same duration,
    /// regardless of thread, schedule, or wall clock.
    #[must_use]
    pub fn backoff(&self, seed: u64, cell: u64, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let uncapped = self.base_backoff.saturating_mul(1u32 << exp.min(31));
        let capped = uncapped.min(self.max_backoff);
        let draw = mix(seed ^ mix(cell) ^ u64::from(attempt).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        capped.mul_f64(0.5 + 0.5 * unit)
    }
}

/// What one execution attempt of a cell reported.
#[derive(Debug, Clone, PartialEq)]
pub enum Attempt<T> {
    /// The attempt finished (including "finished by failing typed-ly" —
    /// algorithm errors are deterministic, retrying cannot help them).
    Done(T),
    /// The attempt exceeded a deadline. Terminal: never retried.
    TimedOut,
    /// A transient fault (I/O, injected). Retried while budget remains;
    /// the message describes the failure for the quarantine record.
    Transient(String),
}

/// The supervisor's verdict on a cell after retries are spent.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<T> {
    /// Some attempt completed.
    Completed(T),
    /// A deadline fired; the cell was not retried.
    TimedOut,
    /// Every attempt failed transiently; the cell is quarantined.
    Quarantined {
        /// Total attempts made (`max_retries + 1`).
        attempts: u32,
        /// The last transient failure, verbatim.
        error: String,
    },
}

/// Run `attempt` under `policy`, sleeping the seeded backoff between
/// transient failures. `cell` is the cell's stable identity (its salt into
/// the jitter stream); `run(n)` receives the 0-based attempt number.
pub fn supervise<T>(
    policy: &RetryPolicy,
    seed: u64,
    cell: u64,
    mut run: impl FnMut(u32) -> Attempt<T>,
) -> CellOutcome<T> {
    let mut error = String::new();
    for attempt in 0..=policy.max_retries {
        match run(attempt) {
            Attempt::Done(value) => return CellOutcome::Completed(value),
            // Deadlines are terminal: a timed-out cell would time out
            // again, and the group's budget is already gone.
            Attempt::TimedOut => return CellOutcome::TimedOut,
            Attempt::Transient(e) => {
                error = e;
                if attempt < policy.max_retries {
                    // Observability marker: one hit per backoff sleep.
                    let _ = crate::point!("sweep::retry");
                    std::thread::sleep(policy.backoff(seed, cell, attempt + 1));
                }
            }
        }
    }
    CellOutcome::Quarantined { attempts: policy.max_retries + 1, error }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
        }
    }

    #[test]
    fn backoff_is_a_pure_function() {
        let p = RetryPolicy::default();
        for cell in 0..8u64 {
            for attempt in 1..=6u32 {
                assert_eq!(p.backoff(42, cell, attempt), p.backoff(42, cell, attempt));
            }
        }
        assert_ne!(p.backoff(1, 0, 1), p.backoff(2, 0, 1), "seed must matter");
        assert_ne!(p.backoff(1, 0, 1), p.backoff(1, 1, 1), "cell must matter");
    }

    #[test]
    fn backoff_grows_exponentially_within_jittered_bounds() {
        let p = RetryPolicy::default();
        for attempt in 1..=4u32 {
            let cap = p.base_backoff * (1 << (attempt - 1));
            let cap = cap.min(p.max_backoff);
            let d = p.backoff(7, 3, attempt);
            assert!(d >= cap.mul_f64(0.5) && d <= cap, "attempt {attempt}: {d:?} vs cap {cap:?}");
        }
        // Far past the doubling range, the cap holds (no overflow).
        assert!(p.backoff(7, 3, 64) <= p.max_backoff);
    }

    #[test]
    fn transient_failures_retry_then_complete() {
        let mut attempts = Vec::new();
        let out = supervise(&fast(), 9, 1, |n| {
            attempts.push(n);
            if n < 2 {
                Attempt::Transient(format!("hiccup {n}"))
            } else {
                Attempt::Done(n * 10)
            }
        });
        assert_eq!(out, CellOutcome::Completed(20));
        assert_eq!(attempts, vec![0, 1, 2]);
    }

    #[test]
    fn timeouts_are_terminal_never_retried() {
        let mut runs = 0u32;
        let out = supervise(&fast(), 9, 2, |_| {
            runs += 1;
            Attempt::<()>::TimedOut
        });
        assert_eq!(out, CellOutcome::TimedOut);
        assert_eq!(runs, 1, "a deadline outcome must not be retried");
        // Even when preceded by transient failures, the first timeout ends
        // the cell.
        let mut runs = 0u32;
        let out = supervise(&fast(), 9, 3, |n| {
            runs += 1;
            if n == 0 {
                Attempt::<()>::Transient("once".into())
            } else {
                Attempt::TimedOut
            }
        });
        assert_eq!(out, CellOutcome::TimedOut);
        assert_eq!(runs, 2);
    }

    #[test]
    fn exhausted_retries_quarantine_with_the_last_error() {
        let policy = fast();
        let mut runs = 0u32;
        let out = supervise(&policy, 9, 4, |n| {
            runs += 1;
            Attempt::<()>::Transient(format!("fault {n}"))
        });
        assert_eq!(runs, policy.max_retries + 1);
        assert_eq!(out, CellOutcome::Quarantined { attempts: 4, error: "fault 3".into() });
    }

    #[test]
    fn zero_retries_disables_retrying() {
        let policy = RetryPolicy { max_retries: 0, ..fast() };
        let mut runs = 0u32;
        let out = supervise(&policy, 9, 5, |_| {
            runs += 1;
            Attempt::<()>::Transient("down".into())
        });
        assert_eq!(runs, 1);
        assert!(matches!(out, CellOutcome::Quarantined { attempts: 1, .. }));
    }
}
