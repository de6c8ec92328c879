//! # `wmh-serve` — sharded similarity search with a robustness envelope
//!
//! A dependency-free similarity-search service over the weighted MinHash
//! toolbox: sketches are ingested in batches from a CRC'd
//! [`wmh_core::SketchStore`] into one banded [`wmh_lsh::LshIndex`] per
//! shard, candidates are re-ranked against b-bit-packed fingerprints that
//! stay cache-resident, and a length-prefixed-TCP front end speaks a small
//! JSON protocol.
//!
//! The headline is not the lookup — it is the *robustness envelope* around
//! it. Every request terminates with a **typed outcome**, never a silent
//! drop and never a panic:
//!
//! * **Deadline propagation.** A per-request budget (`deadline_us`) is
//!   fixed at admission and carried through sketching, shard fan-out, and
//!   merge. A shard that misses its slice does not block the merge; the
//!   response degrades to [`protocol::Outcome::Partial`] with an explicit
//!   coverage fraction.
//! * **Backpressure.** Shard inboxes are bounded queues; a full inbox
//!   sheds that slice explicitly (counted in the response). A global
//!   in-flight cap rejects at admission with
//!   [`protocol::Outcome::Overloaded`] and a seeded-deterministic
//!   `retry_after_us` computed by the same
//!   [`wmh_fault::supervisor::RetryPolicy`] backoff the sweep engine uses.
//! * **Graceful degradation.** A shard failing
//!   [`service::ServiceConfig::quarantine_after`] consecutive queries is
//!   quarantined; the service keeps answering from the healthy shards and
//!   half-open-probes the quarantined one until it recovers. Health and
//!   readiness are observable over the wire.
//! * **Crash-safe live mutation.** Services opened over a write-ahead log
//!   ([`Service::open`](service::Service::open)) accept typed `insert` /
//!   `delete` / `stream` ops: every mutation commits to the CRC-32C-framed
//!   [`wal`] *before* touching any index, so a SIGKILL at any point replays
//!   byte-identical to the acknowledged state — live writes and replay
//!   share one mutation transition. Streaming updates drive per-id
//!   HistoSketch gradual forgetting; an on-demand re-shard keeps
//!   answering queries at full coverage while it rebuilds and converges
//!   byte-identical to a from-scratch partition; a write path that cannot
//!   log degrades to a typed `read_only`, never a lie.
//! * **Durability lifecycle.** The log is a directory of
//!   generation-numbered segments. [`Service::snapshot`](service::Service::snapshot)
//!   atomically freezes the mutation mirror ([`snapshot`]), rotates the
//!   log, and retires segments the second-newest snapshot subsumes —
//!   recovery replays only writes since the last snapshot, and a flipped
//!   bit in the newest snapshot falls back one generation. A background
//!   [`scrub`] re-verifies every durable CRC and spot-checks shard memory
//!   against the mirror, quarantining and self-healing what disagrees.
//!   And a WAL append failure trips a half-open write [`gate`] instead of
//!   a sticky read-only latch: deterministic probe appends re-admit
//!   writes the moment the disk recovers.
//!
//! Failure paths are exercised, not hoped for: `wmh_fault::point!` sites
//! thread through ingest (`serve::ingest`), shard queries
//! (`serve::shard_query`, tagged by shard id), admission
//! (`serve::admission`), merge (`serve::merge`), the whole mutation
//! commit path (`serve::wal_append`, `serve::wal_fsync`, `serve::wal_rewind`,
//! `serve::apply`, `serve::reshard`), and the durability lifecycle (`serve::wal_rotate`,
//! `serve::wal_replay` tagged by generation, `serve::snapshot_write`,
//! `serve::snapshot_fsync`, `serve::snapshot_rename`, `serve::scrub`,
//! `serve::scrub_audit` tagged by shard id). Shard jobs, connection
//! handlers and the scrubber run under the failpoint scenario of the
//! thread that submitted or started them. The crate's chaos soaks
//! drive concurrent queries and the kill-resume/mutation/snapshot scripts
//! under injected faults, asserting that every request gets a typed
//! outcome and that recovery — quarantine repair, WAL replay, snapshot
//! restore, shard self-heal, re-shard — is byte-identical to never having
//! failed. Serving load is measured over TCP by the repository benchmark
//! (`benchmark/`), not in-process.

pub mod client;
pub mod deadline;
pub mod fingerprint;
pub mod gate;
pub mod protocol;
pub mod scrub;
pub mod server;
pub mod service;
mod shard;
pub mod snapshot;
pub mod wal;
pub mod wire;

pub use client::{Client, ClientError};
pub use deadline::Deadline;
pub use fingerprint::{BbitFingerprint, FingerprintError};
pub use gate::{WriteAdmission, WriteGate};
pub use protocol::{
    HealthResponse, MutationKind, MutationRequest, MutationResponse, Outcome, QueryRequest,
    QueryResponse, Request, Response,
};
pub use scrub::{spawn_scrubber, ScrubReport, Scrubber};
pub use server::{Server, ServerError};
pub use service::{RecoveryInfo, ReshardReport, Service, ServiceConfig, ServiceError};
pub use snapshot::{LoadedSnapshot, SnapshotState};
pub use wal::{
    Mutation, ReplayReport, SegmentInfo, SegmentReport, Wal, WalError, WalInfo, WalProvenance,
};
pub use wire::{read_frame, write_frame, WireError, MAX_FRAME};
