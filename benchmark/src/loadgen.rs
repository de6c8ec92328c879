//! Request generators over blocking connections, and the order statistics
//! the benchmark reports.
//!
//! The open loop sends each request at its due time whether or not the
//! previous one has come back, and times it *from that due time*: a stall
//! on one request shows up as latency on every request queued behind it
//! on the same connection. A request that could not even be sent by the
//! cutoff (window end plus a grace period) is recorded as unsent, which
//! counts as failed. The closed loop sends back-to-back and measures how
//! much work the connections complete per second.
//!
//! Each worker is a closure that performs request `i` on its own
//! connection and returns a [`Verdict`]; the generator knows nothing about
//! the protocol, so tests drive it with fake servers.

use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The service answered `ok`.
    Ok,
    /// The service answered with another typed outcome (its wire name).
    Outcome(&'static str),
    /// The connection failed (framing, decode, closed socket).
    Transport,
    /// Never sent: its due time fell too far behind the phase window.
    Unsent,
}

impl Verdict {
    /// Label used in the per-phase outcome table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Outcome(name) => name,
            Self::Transport => "transport_error",
            Self::Unsent => "unsent",
        }
    }
}

/// One request's timeline, as offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request index within the phase.
    pub index: usize,
    /// When it was due (open loop) or sent (closed loop).
    pub due: Duration,
    /// When it was actually sent; `None` when unsent.
    pub sent: Option<Duration>,
    /// When its answer arrived (or when it was given up on).
    pub done: Duration,
    /// How it ended.
    pub verdict: Verdict,
}

impl Record {
    /// Latency from the due time: what a caller arriving then waited.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    #[must_use]
    pub fn send_lag(&self) -> Option<Duration> {
        self.sent.map(|sent| sent.saturating_sub(self.due))
    }
}

/// Due times for an open loop at `rate` requests per second over `window`,
/// evenly spaced, each assigned to a connection by `conn_of(index)`.
/// Returns one `(index, due)` list per connection.
#[must_use]
pub fn uniform_schedule(
    rate: f64,
    window: Duration,
    conns: usize,
    conn_of: impl Fn(usize) -> usize,
) -> Vec<Vec<(usize, Duration)>> {
    let total = (rate * window.as_secs_f64()).floor() as usize;
    let mut plan = vec![Vec::new(); conns];
    for index in 0..total {
        let due = Duration::from_secs_f64(index as f64 / rate);
        plan[conn_of(index)].push((index, due));
    }
    plan
}

/// Run an open loop: worker `c` sends the requests of `schedules[c]` in
/// order, each no earlier than its due time. A request whose turn comes
/// after `cutoff` is recorded as [`Verdict::Unsent`] without being sent.
/// Records come back sorted by index.
pub fn open_loop<F>(
    schedules: Vec<Vec<(usize, Duration)>>,
    workers: Vec<F>,
    cutoff: Duration,
) -> Vec<Record>
where
    F: FnMut(usize) -> Verdict + Send,
{
    assert_eq!(schedules.len(), workers.len(), "one schedule per worker");
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .into_iter()
            .zip(workers)
            .map(|(schedule, mut work)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(schedule.len());
                    for (index, due) in schedule {
                        let now = start.elapsed();
                        if now > cutoff {
                            out.push(Record {
                                index,
                                due,
                                sent: None,
                                done: now,
                                verdict: Verdict::Unsent,
                            });
                            continue;
                        }
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = start.elapsed();
                        let verdict = work(index);
                        out.push(Record {
                            index,
                            due,
                            sent: Some(sent),
                            done: start.elapsed(),
                            verdict,
                        });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("load worker panicked")).collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

/// Run a closed loop for `window`: worker `w` sends requests
/// `w, w + n, w + 2n, …` back-to-back until the window closes. Returns the
/// records (sorted by index) and the time the last answer arrived.
pub fn closed_loop<F>(workers: Vec<F>, window: Duration) -> (Vec<Record>, Duration)
where
    F: FnMut(usize) -> Verdict + Send,
{
    let n = workers.len();
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(w, mut work)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut index = w;
                    while start.elapsed() < window {
                        let sent = start.elapsed();
                        let verdict = work(index);
                        out.push(Record {
                            index,
                            due: sent,
                            sent: Some(sent),
                            done: start.elapsed(),
                            verdict,
                        });
                        index += n;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("load worker panicked")).collect()
    });
    records.sort_by_key(|r| r.index);
    let elapsed = records.iter().map(|r| r.done).max().unwrap_or(window);
    (records, elapsed)
}

/// 1-based nearest rank of the `q` quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
/// A tail percentile is reported only when this is at least
/// [`MIN_BEYOND`].
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`NaN` when empty).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of unsorted values (`NaN` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Latencies in milliseconds, ascending. A request that did not end `ok`
/// counts as missing any latency limit, so it enters as `penalty`.
#[must_use]
pub fn latencies_ms(records: &[Record], penalty: Duration) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .map(|r| if r.verdict == Verdict::Ok { r.latency() } else { penalty })
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// `(label, count)` for every verdict seen, in first-seen order.
#[must_use]
pub fn verdict_counts(records: &[Record]) -> Vec<(&'static str, usize)> {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for r in records {
        let label = r.verdict.label();
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => counts.push((label, 1)),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_single_stall_inflates_the_requests_queued_behind_it() {
        // One connection, a request due every 20 ms; request 2 stalls for
        // 200 ms. Timed from their due times, the requests behind it wait
        // out the stall even though each is served instantly.
        let plan = uniform_schedule(50.0, Duration::from_millis(200), 1, |_| 0);
        let work = |i: usize| {
            if i == 2 {
                std::thread::sleep(200 * MS);
            }
            Verdict::Ok
        };
        let records = open_loop(plan, vec![work], Duration::from_secs(5));
        assert_eq!(records.len(), 10);
        for r in &records[..2] {
            assert!(
                r.latency() < 15 * MS,
                "request {} before the stall: {:?}",
                r.index,
                r.latency()
            );
        }
        assert!(records[2].latency() >= 200 * MS);
        // Request 3 was due 20 ms after request 2, so it waited ~180 ms.
        assert!(records[3].latency() >= 170 * MS, "{:?}", records[3].latency());
        assert!(records[3].send_lag().expect("sent") >= 170 * MS);
        // Send-time latency would have hidden all of this.
        let service_time = records[3].done - records[3].sent.expect("sent");
        assert!(service_time < 15 * MS);
    }

    #[test]
    fn requests_not_sent_by_the_cutoff_count_as_failed() {
        // The first request blocks past the cutoff; the rest are never sent.
        let plan = uniform_schedule(100.0, Duration::from_millis(50), 1, |_| 0);
        let work = |i: usize| {
            if i == 0 {
                std::thread::sleep(150 * MS);
            }
            Verdict::Ok
        };
        let records = open_loop(plan, vec![work], 100 * MS);
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].verdict, Verdict::Ok);
        assert!(records[1..].iter().all(|r| r.verdict == Verdict::Unsent && r.sent.is_none()));
        assert_eq!(verdict_counts(&records), vec![("ok", 1), ("unsent", 4)]);
        // Unsent requests enter the latency distribution at the penalty.
        let lat = latencies_ms(&records, Duration::from_secs(3));
        assert_eq!(lat.iter().filter(|&&ms| ms == 3000.0).count(), 4);
    }

    #[test]
    fn two_connections_split_the_schedule_and_run_concurrently() {
        let plan = uniform_schedule(100.0, Duration::from_millis(100), 2, |i| i % 2);
        assert_eq!(plan[0].len(), 5);
        assert_eq!(plan[1].len(), 5);
        let slow = |_| {
            std::thread::sleep(15 * MS);
            Verdict::Ok
        };
        let records = open_loop(plan, vec![slow, slow], Duration::from_secs(5));
        // Each connection is busy 15 ms out of every 20: no backlog builds.
        assert!(records.iter().all(|r| r.latency() < 40 * MS), "{records:?}");
    }

    #[test]
    fn closed_loop_keeps_each_connection_busy_until_the_window_closes() {
        let work = |_| {
            std::thread::sleep(10 * MS);
            Verdict::Outcome("partial")
        };
        let (records, elapsed) = closed_loop(vec![work, work], 100 * MS);
        assert!((16..=22).contains(&records.len()), "{}", records.len());
        assert!(elapsed >= 100 * MS);
        // Worker w issues w, w + 2, …: indices never collide.
        let mut seen: Vec<usize> = records.iter().map(|r| r.index).collect();
        seen.dedup();
        assert_eq!(seen.len(), records.len());
        assert_eq!(verdict_counts(&records), vec![("partial", records.len())]);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(99, 0.90), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(0, 0.5), 0);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.90), 90.0);
        assert_eq!(quantile(&sorted, 0.50), 50.0);
        assert_eq!(quantile(&sorted[..1], 0.99), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
