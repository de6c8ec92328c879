//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span holds a name, start and end (ns since the tracer's origin), the
//! span that caused it, a request id and a work count. Spans live in a
//! preallocated in-memory `Vec` and are written out once, at exit. A
//! layer's number is the median *self* time of its spans: the span's
//! duration minus the part its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: usize = usize::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `core.sketch`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: usize,
    /// Request the span belongs to.
    pub req: u64,
    /// Units of work the span covers (calls, candidates, records).
    pub count: u64,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans before it reallocates.
    #[must_use]
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self { origin, spans: Vec::with_capacity(capacity) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, parent: usize, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req, count: 1 });
        self.spans.len() - 1
    }

    /// Close span `id`, recording `count` units of work.
    pub fn end(&mut self, id: usize, count: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Time `f` as one span with a count of 1.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id, 1);
        out
    }

    /// Append a span built by hand. Returns its id.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Self::absorb`].
    #[must_use]
    pub fn fork(&self, capacity: usize) -> Self {
        Self::new(self.origin, capacity)
    }

    /// Append another tracer's spans, re-pointing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// All spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns, indexed like [`Self::spans`].
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent] += s.duration_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Self time of every span named `name`, in ns.
    #[must_use]
    pub fn self_of(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Per-span self time divided by its count, for spans named `name`.
    #[must_use]
    pub fn per_unit_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.count > 0)
            .map(|(s, ns)| ns as f64 / s.count as f64)
            .collect()
    }

    /// Write every span as a tab-separated line:
    /// `id parent req name start_ns end_ns self_ns count`.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\tcount")?;
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == ROOT { "-".to_owned() } else { s.parent.to_string() };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// The stages a query passes through, as the decomposition times them.
/// `service.query` covers admission, fan-out, shard queue, probe,
/// re-rank and merge beyond the three front stages it repeats;
/// `client.query` adds JSON, framing and the socket.
pub const FRONT_STAGES: [&str; 3] = ["sets", "core.sketch", "fingerprint.pack"];

/// The wire-side stages between the client and the service.
pub const WIRE_STAGES: [&str; 5] = [
    "json.query_request_encode",
    "json.query_request_parse",
    "json.query_response_encode",
    "json.query_response_parse",
    "wire.frame",
];

/// One request's stage times (µs) from a decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTimes {
    /// Self time of each [`FRONT_STAGES`] entry.
    pub front: [f64; 3],
    /// Self time of each [`WIRE_STAGES`] entry.
    pub wire: [f64; 5],
    /// The in-process `Service::query` call.
    pub service: f64,
    /// The TCP `Client::query` call.
    pub client: f64,
}

impl StageTimes {
    /// What `Service::query` spends beyond its three front stages:
    /// admission, fan-out, shard queue, probe, re-rank and merge.
    #[must_use]
    pub fn service_residual(&self) -> f64 {
        self.service - self.front.iter().sum::<f64>()
    }

    /// What `Client::query` spends beyond the service and the measured
    /// JSON and framing work: the socket, the server's handler thread and
    /// any transport stall.
    #[must_use]
    pub fn server_residual(&self) -> f64 {
        self.client - self.service - self.wire.iter().sum::<f64>()
    }
}

/// Collect [`StageTimes`] for every request whose `decompose` span has a
/// `service.query` and a `client.query` span, in request order.
#[must_use]
pub fn stage_times(tracer: &Tracer) -> Vec<StageTimes> {
    let own = tracer.self_ns();
    let us = |id: usize| own[id] as f64 / 1e3;
    let mut by_req: std::collections::BTreeMap<u64, Vec<usize>> = std::collections::BTreeMap::new();
    for (id, s) in tracer.spans().iter().enumerate() {
        by_req.entry(s.req).or_default().push(id);
    }
    let mut out = Vec::new();
    for ids in by_req.into_values() {
        let find = |name: &str| ids.iter().copied().find(|&id| tracer.spans()[id].name == name);
        let (Some(service), Some(client)) = (find("service.query"), find("client.query")) else {
            continue;
        };
        let mut front = [0.0; 3];
        let mut wire = [0.0; 5];
        let mut complete = true;
        for (slot, name) in
            front.iter_mut().zip(FRONT_STAGES).chain(wire.iter_mut().zip(WIRE_STAGES))
        {
            match find(name) {
                Some(id) => *slot = us(id),
                None => complete = false,
            }
        }
        if complete {
            out.push(StageTimes { front, wire, service: us(service), client: us(client) });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize, req: u64) -> Span {
        Span { name, start_ns, end_ns, parent, req, count: 1 }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let mut t = Tracer::new(Instant::now(), 4);
        let root = t.push(span("decompose", 0, 1000, ROOT, 7));
        t.push(span("core.sketch", 100, 400, root, 7));
        let probe = t.push(Span { count: 4, ..span("fingerprint.estimate", 500, 900, root, 7) });
        t.push(span("inner", 600, 700, probe, 7));
        assert_eq!(t.self_ns(), vec![300, 300, 300, 100]);
        assert_eq!(t.per_unit_ns("fingerprint.estimate"), vec![75.0]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 2);
        a.push(span("x", 0, 10, ROOT, 1));
        let mut b = Tracer::new(origin, 2);
        let p = b.push(span("y", 0, 10, ROOT, 2));
        b.push(span("z", 2, 4, p, 2));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.self_ns(), vec![10, 8, 2]);
    }

    #[test]
    fn residuals_close_the_stage_sum_on_the_client_total() {
        // One request: front stages 5 + 40 + 2 µs, wire stages 3 + 4 + 6 +
        // 7 + 1 µs, Service::query 60 µs, Client::query 150 µs.
        let mut t = Tracer::new(Instant::now(), 16);
        let root = t.push(span("decompose", 0, 72_000, ROOT, 9));
        let mut at = 0;
        for (name, us) in
            FRONT_STAGES.iter().zip([5, 40, 2]).chain(WIRE_STAGES.iter().zip([3, 4, 6, 7, 1]))
        {
            t.push(span(name, at, at + us * 1000, root, 9));
            at += us * 1000;
        }
        t.push(span("service.query", 100_000, 160_000, ROOT, 9));
        t.push(span("client.query", 200_000, 350_000, ROOT, 9));
        // A request without a client call is skipped.
        t.push(span("service.query", 400_000, 450_000, ROOT, 10));
        let stages = stage_times(&t);
        assert_eq!(stages.len(), 1);
        let s = &stages[0];
        assert_eq!(s.front, [5.0, 40.0, 2.0]);
        assert_eq!(s.service_residual(), 13.0);
        assert_eq!(s.server_residual(), 150.0 - 60.0 - 21.0);
        let stage_sum = s.front.iter().sum::<f64>()
            + s.wire.iter().sum::<f64>()
            + s.service_residual()
            + s.server_residual();
        assert_eq!(stage_sum, s.client);
    }
}
