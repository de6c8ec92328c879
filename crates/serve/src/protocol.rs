//! The JSON request/response protocol, and the typed-outcome contract.
//!
//! Every response carries an [`Outcome`] — the service's one-word verdict
//! on what happened to the request. The precedence is fixed so clients can
//! branch on it without cross-checking other fields:
//!
//! * `bad_request` — the request itself was unusable (malformed JSON,
//!   empty document). Nothing was attempted.
//! * `overloaded` — admission control rejected the request before any
//!   work; `retry_after_us` carries the seeded-deterministic backoff hint.
//! * `deadline_exceeded` — the budget expired with **zero** shard slices
//!   merged; there are no results worth returning.
//! * `partial` — some but not all shards contributed (deadline miss on a
//!   slice, shed inbox, quarantined shard, merge fault). `coverage` says
//!   how much of the index the results actually consulted.
//! * `ok` — every shard answered in budget.
//!
//! Mutations (`insert` / `delete` / `stream`) share the taxonomy, with two
//! differences: they never return `partial` (a mutation touches exactly
//! one shard), and they can return `read_only` — the service is not
//! accepting writes (opened without a WAL, degraded after a WAL failure,
//! or mid-re-shard; `retry_after_us` hints when to retry for the
//! transient cases). Precedence for writes: `overloaded` (rejected at
//! admission, nothing attempted) → `read_only` → `bad_request` →
//! `deadline_exceeded` → `ok`. A write's `durable`/`applied` flags refine
//! the verdict: `deadline_exceeded` with `durable: true` means the
//! mutation **is** committed to the log and will be applied — only the
//! confirmation ran out of time.
//!
//! The outcome spellings are wire contract, pinned by
//! `outcome_spellings_are_stable` exactly like `wmh_core::ErrorKind`'s
//! stability test — renaming a variant must not break deployed clients.

use wmh_json::{FromJson, Json, JsonError, ToJson};

/// Default `k` when a query does not specify one.
pub const DEFAULT_K: usize = 10;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Similarity query.
    Query(QueryRequest),
    /// Live mutation (insert / delete / streaming update).
    Mutate(MutationRequest),
    /// Health / readiness probe.
    Health,
}

/// A similarity query: `{"op":"query","id":7,"doc":[[index,weight],…],
/// "k":10,"deadline_us":5000}`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: u64,
    /// The weighted document as `(index, weight)` pairs.
    pub doc: Vec<(u64, f64)>,
    /// Number of neighbours wanted (defaults to [`DEFAULT_K`]).
    pub k: usize,
    /// Wall-clock budget in microseconds; absent means the server default.
    pub deadline_us: Option<u64>,
}

/// The typed verdict on a request (see the module docs for precedence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every shard answered within budget.
    Ok,
    /// Results from a strict subset of shards (see `coverage`).
    Partial,
    /// The budget expired with no shard slice merged.
    DeadlineExceeded,
    /// Admission control rejected the request.
    Overloaded,
    /// The request was unusable.
    BadRequest,
    /// The service is not accepting writes (no WAL, WAL degraded, or a
    /// re-shard in progress). Mutation-only.
    ReadOnly,
}

impl Outcome {
    /// Every outcome, in precedence order (for exhaustive wire tests).
    pub const ALL: [Self; 6] = [
        Self::Ok,
        Self::Partial,
        Self::DeadlineExceeded,
        Self::Overloaded,
        Self::BadRequest,
        Self::ReadOnly,
    ];

    /// Wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Partial => "partial",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::Overloaded => "overloaded",
            Self::BadRequest => "bad_request",
            Self::ReadOnly => "read_only",
        }
    }

    /// Parse the wire spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(Self::Ok),
            "partial" => Some(Self::Partial),
            "deadline_exceeded" => Some(Self::DeadlineExceeded),
            "overloaded" => Some(Self::Overloaded),
            "bad_request" => Some(Self::BadRequest),
            "read_only" => Some(Self::ReadOnly),
            _ => None,
        }
    }
}

impl ToJson for Outcome {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_owned())
    }
}

impl FromJson for Outcome {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s =
            v.as_str().ok_or(JsonError::WrongType { expected: "string", got: v.type_name() })?;
        Self::parse(s).ok_or_else(|| JsonError::Invalid(format!("unknown outcome {s:?}")))
    }
}

/// A similarity response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Typed verdict.
    pub outcome: Outcome,
    /// `(id, estimated similarity)`, best first; ties break by id.
    pub results: Vec<(u64, f64)>,
    /// Fraction of shards whose slice made it into `results`.
    pub coverage: f64,
    /// Shards the service is configured with.
    pub shards_total: usize,
    /// Shards whose slice was merged.
    pub shards_answered: usize,
    /// Slices shed at full shard inboxes (explicit load-shedding).
    pub shed: usize,
    /// For `overloaded`: the seeded backoff hint, else 0.
    pub retry_after_us: u64,
    /// Human-readable detail for degraded outcomes.
    pub error: Option<String>,
}

wmh_json::json_object!(QueryResponse {
    id,
    outcome,
    results,
    coverage,
    shards_total,
    shards_answered,
    shed,
    retry_after_us,
    error,
});

impl QueryResponse {
    /// A response that carries no results — the rejected/expired shapes.
    #[must_use]
    pub fn empty(id: u64, outcome: Outcome, shards_total: usize, error: Option<String>) -> Self {
        Self {
            id,
            outcome,
            results: Vec::new(),
            coverage: 0.0,
            shards_total,
            shards_answered: 0,
            shed: 0,
            retry_after_us: 0,
            error,
        }
    }
}

/// A live mutation: the `id` is the *point* id being written (it doubles
/// as the correlation id, echoed back verbatim).
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRequest {
    /// The point id the mutation addresses.
    pub id: u64,
    /// What to do to it.
    pub kind: MutationKind,
    /// Wall-clock budget in microseconds; absent means the server default.
    /// Bounds the wait for the ack, never whether a committed mutation is
    /// applied.
    pub deadline_us: Option<u64>,
}

/// The three write shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationKind {
    /// Index a new document: `{"op":"insert","id":7,"doc":[[k,w],…]}`.
    Insert {
        /// The weighted document as `(index, weight)` pairs.
        doc: Vec<(u64, f64)>,
    },
    /// Forget a point: `{"op":"delete","id":7}`.
    Delete,
    /// One streaming step for a drifting document:
    /// `{"op":"stream","id":7,"lambda":0.9,"items":[[k,mass],…]}`.
    /// Decays the point's accumulated histogram by `lambda`, then feeds
    /// `items` through the HistoSketch gradual-forgetting path. An unknown
    /// id with non-empty items is created.
    Stream {
        /// Gradual-forgetting factor in `(0, 1]`.
        lambda: f64,
        /// `(element, mass)` stream items.
        items: Vec<(u64, f64)>,
    },
}

/// A mutation response.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationResponse {
    /// The point id, echoed.
    pub id: u64,
    /// Typed verdict (see the module docs for the write precedence).
    pub outcome: Outcome,
    /// Whether the mutation reached the WAL — the commit point. A durable
    /// mutation survives any crash, whatever else the response says.
    pub durable: bool,
    /// Whether the owning shard confirmed the in-memory apply in budget.
    pub applied: bool,
    /// The owning shard, once routing happened.
    pub shard: Option<usize>,
    /// Live points across all shards after this mutation.
    pub indexed: usize,
    /// For `overloaded`/`read_only`: the seeded backoff hint, else 0.
    pub retry_after_us: u64,
    /// Human-readable detail for degraded outcomes.
    pub error: Option<String>,
}

wmh_json::json_object!(MutationResponse {
    id,
    outcome,
    durable,
    applied,
    shard,
    indexed,
    retry_after_us,
    error,
});

impl MutationResponse {
    /// A response for a mutation that changed nothing — the rejected /
    /// degraded shapes.
    #[must_use]
    pub fn rejected(id: u64, outcome: Outcome, indexed: usize, error: Option<String>) -> Self {
        Self {
            id,
            outcome,
            durable: false,
            applied: false,
            shard: None,
            indexed,
            retry_after_us: 0,
            error,
        }
    }
}

/// A health / readiness snapshot, durability state included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthResponse {
    /// Whether at least one shard is serving.
    pub ready: bool,
    /// Points indexed across all shards.
    pub indexed: usize,
    /// Configured shard count.
    pub shards_total: usize,
    /// Shards currently quarantined.
    pub shards_quarantined: usize,
    /// Requests currently between admission and response.
    pub inflight: usize,
    /// Whether writes are currently rejected with `read_only`.
    pub read_only: bool,
    /// Whether the write gate is tripped and probing (half-open): writes
    /// are rejected fast, except the periodic probe that re-admits them
    /// once the disk fault clears. `read_only` is always true while
    /// `half_open` is.
    pub half_open: bool,
    /// Whether a re-shard is in progress.
    pub resharding: bool,
    /// Mutation records across the live WAL segments (replayed at open
    /// plus appended since; 0 for read-only services).
    pub wal_records: u64,
    /// Bytes across the live WAL segments' valid prefixes.
    pub wal_bytes: u64,
    /// Records replayed by the open-time recovery (0 for read-only
    /// services and fresh logs).
    pub replayed_records: u64,
    /// Torn-tail bytes the open-time recovery discarded (the crash
    /// signature; 0 for a cleanly closed log).
    pub replay_bytes_discarded: u64,
    /// Generation of the newest durable snapshot, `null` before the first
    /// one (and for read-only services).
    pub snapshot_generation: Option<u64>,
}

wmh_json::json_object!(HealthResponse {
    ready,
    indexed,
    shards_total,
    shards_quarantined,
    inflight,
    read_only,
    half_open,
    resharding,
    wal_records,
    wal_bytes,
    replayed_records,
    replay_bytes_discarded,
    snapshot_generation,
});

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Query(QueryResponse),
    /// Answer to [`Request::Mutate`] (wire op `mutation`, whatever the
    /// request op was).
    Mutation(MutationResponse),
    /// Answer to [`Request::Health`].
    Health(HealthResponse),
}

fn tagged(op: &str, inner: Json) -> Json {
    let mut entries = vec![("op".to_owned(), Json::Str(op.to_owned()))];
    if let Json::Obj(rest) = inner {
        entries.extend(rest);
    }
    Json::Obj(entries)
}

fn op_of(v: &Json) -> Result<&str, JsonError> {
    let op = v.field("op")?;
    op.as_str().ok_or(JsonError::WrongType { expected: "string", got: op.type_name() })
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Self::Query(q) => tagged("query", q.to_json()),
            Self::Mutate(m) => {
                let op = match m.kind {
                    MutationKind::Insert { .. } => "insert",
                    MutationKind::Delete => "delete",
                    MutationKind::Stream { .. } => "stream",
                };
                tagged(op, m.to_json())
            }
            Self::Health => tagged("health", Json::Obj(Vec::new())),
        }
    }
}

impl FromJson for Request {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let op = op_of(v)?;
        match op {
            "query" => Ok(Self::Query(QueryRequest::from_json(v)?)),
            "insert" | "delete" | "stream" => Ok(Self::Mutate(MutationRequest::decode(op, v)?)),
            "health" => Ok(Self::Health),
            other => Err(JsonError::Invalid(format!("unknown request op {other:?}"))),
        }
    }
}

impl ToJson for MutationRequest {
    fn to_json(&self) -> Json {
        let mut entries = vec![("id".to_owned(), self.id.to_json())];
        match &self.kind {
            MutationKind::Insert { doc } => entries.push(("doc".to_owned(), doc.to_json())),
            MutationKind::Delete => {}
            MutationKind::Stream { lambda, items } => {
                entries.push(("lambda".to_owned(), lambda.to_json()));
                entries.push(("items".to_owned(), items.to_json()));
            }
        }
        entries.push(("deadline_us".to_owned(), self.deadline_us.to_json()));
        Json::Obj(entries)
    }
}

impl MutationRequest {
    /// Decode the body of an `insert`/`delete`/`stream` request.
    fn decode(op: &str, v: &Json) -> Result<Self, JsonError> {
        let kind = match op {
            "insert" => MutationKind::Insert { doc: Vec::from_json(v.field("doc")?)? },
            "delete" => MutationKind::Delete,
            "stream" => MutationKind::Stream {
                lambda: f64::from_json(v.field("lambda")?)?,
                items: Vec::from_json(v.field("items")?)?,
            },
            other => return Err(JsonError::Invalid(format!("unknown mutation op {other:?}"))),
        };
        let deadline_us = match v.field_opt("deadline_us") {
            Some(field) => Option::<u64>::from_json(field)?,
            None => None,
        };
        Ok(Self { id: u64::from_json(v.field("id")?)?, kind, deadline_us })
    }
}

impl ToJson for QueryRequest {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_owned(), self.id.to_json()),
            ("doc".to_owned(), self.doc.to_json()),
            ("k".to_owned(), self.k.to_json()),
            ("deadline_us".to_owned(), self.deadline_us.to_json()),
        ])
    }
}

impl FromJson for QueryRequest {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let k = match v.field_opt("k") {
            Some(field) => usize::from_json(field)?,
            None => DEFAULT_K,
        };
        let deadline_us = match v.field_opt("deadline_us") {
            Some(field) => Option::<u64>::from_json(field)?,
            None => None,
        };
        Ok(Self {
            id: u64::from_json(v.field("id")?)?,
            doc: Vec::from_json(v.field("doc")?)?,
            k,
            deadline_us,
        })
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        match self {
            Self::Query(q) => tagged("query", q.to_json()),
            Self::Mutation(m) => tagged("mutation", m.to_json()),
            Self::Health(h) => tagged("health", h.to_json()),
        }
    }
}

impl FromJson for Response {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match op_of(v)? {
            "query" => Ok(Self::Query(QueryResponse::from_json(v)?)),
            "mutation" => Ok(Self::Mutation(MutationResponse::from_json(v)?)),
            "health" => Ok(Self::Health(HealthResponse::from_json(v)?)),
            other => Err(JsonError::Invalid(format!("unknown response op {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_round_trips() {
        let req = Request::Query(QueryRequest {
            id: 7,
            doc: vec![(3, 1.5), (9, 0.25)],
            k: 4,
            deadline_us: Some(5000),
        });
        let text = wmh_json::to_string(&req);
        assert!(text.contains("\"op\":\"query\""), "{text}");
        let back: Request = wmh_json::from_str(&text).expect("parse");
        assert_eq!(req, back);
    }

    #[test]
    fn query_request_defaults_apply() {
        let req: Request =
            wmh_json::from_str(r#"{"op":"query","id":1,"doc":[[0,1.0]]}"#).expect("parse");
        let Request::Query(q) = req else { panic!("expected query") };
        assert_eq!(q.k, DEFAULT_K);
        assert_eq!(q.deadline_us, None);
    }

    #[test]
    fn health_round_trips() {
        let req: Request = wmh_json::from_str(r#"{"op":"health"}"#).expect("parse");
        assert_eq!(req, Request::Health);
        let resp = Response::Health(HealthResponse {
            ready: true,
            indexed: 600,
            shards_total: 4,
            shards_quarantined: 1,
            inflight: 2,
            read_only: false,
            half_open: false,
            resharding: true,
            wal_records: 37,
            wal_bytes: 4096,
            replayed_records: 12,
            replay_bytes_discarded: 7,
            snapshot_generation: Some(3),
        });
        let back: Response = wmh_json::from_str(&wmh_json::to_string(&resp)).expect("parse");
        assert_eq!(resp, back);
        // The no-snapshot shape survives the wire too (`null` generation).
        let cold = Response::Health(HealthResponse {
            snapshot_generation: None,
            ..match resp {
                Response::Health(h) => h,
                _ => unreachable!(),
            }
        });
        let back: Response = wmh_json::from_str(&wmh_json::to_string(&cold)).expect("parse");
        assert_eq!(cold, back);
    }

    #[test]
    fn mutation_requests_round_trip() {
        for (req, op) in [
            (
                Request::Mutate(MutationRequest {
                    id: 42,
                    kind: MutationKind::Insert { doc: vec![(3, 1.5), (9, 0.25)] },
                    deadline_us: Some(7000),
                }),
                "insert",
            ),
            (
                Request::Mutate(MutationRequest {
                    id: 42,
                    kind: MutationKind::Delete,
                    deadline_us: None,
                }),
                "delete",
            ),
            (
                Request::Mutate(MutationRequest {
                    id: 42,
                    kind: MutationKind::Stream { lambda: 0.875, items: vec![(5, 2.0)] },
                    deadline_us: Some(1),
                }),
                "stream",
            ),
        ] {
            let text = wmh_json::to_string(&req);
            assert!(text.contains(&format!("\"op\":\"{op}\"")), "{text}");
            let back: Request = wmh_json::from_str(&text).expect("parse");
            assert_eq!(req, back);
        }
    }

    #[test]
    fn mutation_response_round_trips() {
        let resp = Response::Mutation(MutationResponse {
            id: 42,
            outcome: Outcome::Ok,
            durable: true,
            applied: true,
            shard: Some(3),
            indexed: 601,
            retry_after_us: 0,
            error: None,
        });
        let text = wmh_json::to_string(&resp);
        assert!(text.contains("\"op\":\"mutation\""), "{text}");
        let back: Response = wmh_json::from_str(&text).expect("parse");
        assert_eq!(resp, back);
        // The degraded shape keeps its flags honest.
        let degraded = Response::Mutation(MutationResponse {
            outcome: Outcome::DeadlineExceeded,
            durable: true,
            applied: false,
            ..match resp {
                Response::Mutation(m) => m,
                _ => unreachable!(),
            }
        });
        let back: Response = wmh_json::from_str(&wmh_json::to_string(&degraded)).expect("parse");
        assert_eq!(degraded, back);
    }

    /// The wire spellings are a deployed-client contract, pinned the same
    /// way `wmh_core::ErrorKind`'s kebab-case codes are: this test names
    /// every spelling literally, so an enum rename that would change the
    /// wire format fails here instead of in production.
    #[test]
    fn outcome_spellings_are_stable() {
        let expected = [
            (Outcome::Ok, "ok"),
            (Outcome::Partial, "partial"),
            (Outcome::DeadlineExceeded, "deadline_exceeded"),
            (Outcome::Overloaded, "overloaded"),
            (Outcome::BadRequest, "bad_request"),
            (Outcome::ReadOnly, "read_only"),
        ];
        assert_eq!(expected.len(), Outcome::ALL.len(), "new outcomes must be pinned here");
        for (outcome, spelling) in expected {
            assert_eq!(outcome.as_str(), spelling);
            assert_eq!(Outcome::parse(spelling), Some(outcome));
        }
        // Request/response op names are contract too.
        for (req, op) in [
            (
                Request::Mutate(MutationRequest {
                    id: 1,
                    kind: MutationKind::Insert { doc: vec![(0, 1.0)] },
                    deadline_us: None,
                }),
                "insert",
            ),
            (
                Request::Mutate(MutationRequest {
                    id: 1,
                    kind: MutationKind::Delete,
                    deadline_us: None,
                }),
                "delete",
            ),
            (
                Request::Mutate(MutationRequest {
                    id: 1,
                    kind: MutationKind::Stream { lambda: 1.0, items: vec![] },
                    deadline_us: None,
                }),
                "stream",
            ),
        ] {
            assert!(wmh_json::to_string(&req).contains(&format!("\"op\":\"{op}\"")));
        }
    }

    #[test]
    fn query_response_round_trips_with_outcome_spelling() {
        let resp = Response::Query(QueryResponse {
            id: 9,
            outcome: Outcome::Partial,
            results: vec![(12, 0.875), (40, 0.5)],
            coverage: 0.75,
            shards_total: 4,
            shards_answered: 3,
            shed: 1,
            retry_after_us: 0,
            error: Some("shard 2: injected".to_owned()),
        });
        let text = wmh_json::to_string(&resp);
        assert!(text.contains("\"outcome\":\"partial\""), "{text}");
        let back: Response = wmh_json::from_str(&text).expect("parse");
        assert_eq!(resp, back);
    }

    #[test]
    fn unknown_ops_and_outcomes_are_typed_errors() {
        assert!(wmh_json::from_str::<Request>(r#"{"op":"mystery"}"#).is_err());
        assert!(wmh_json::from_str::<Request>(r#"{"id":1}"#).is_err());
        assert_eq!(Outcome::parse("sideways"), None);
        for outcome in Outcome::ALL {
            assert_eq!(Outcome::parse(outcome.as_str()), Some(outcome));
        }
    }
}
