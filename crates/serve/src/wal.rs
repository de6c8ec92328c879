//! The write-ahead log: crash-safety for the live mutation path.
//!
//! Every mutation is appended here — length-prefixed, CRC-32C-framed,
//! fsynced — *before* it is applied to any shard index. The durable append
//! is the commit point: a mutation acknowledged `ok` has hit the log, so a
//! SIGKILL at any later point replays to the exact same service state. A
//! mutation that never reached the log was never acknowledged, so losing
//! it is correct.
//!
//! ## On-disk layout
//!
//! A WAL is a *directory* of generation-stamped segment files:
//!
//! ```text
//! <dir>/wal-<generation:016x>.seg      one segment per generation
//! <dir>/snap-<generation:016x>.snap    snapshots (see `crate::snapshot`)
//! ```
//!
//! Each segment:
//!
//! ```text
//! magic       8 bytes  b"WMHWAL1\0"
//! frame*      each: [len: u32 LE] [payload: len bytes] [crc32c(payload): u32 LE]
//! ```
//!
//! The first frame is always a *provenance* record binding the log to one
//! `(algorithm, seed, D)` — a WAL replayed against the wrong store would
//! silently poison every index, so the binding is checked on every open.
//! The second frame stamps the segment's generation (cross-checked against
//! the filename). Subsequent frames are mutations, `kind`-tagged in their
//! first byte:
//!
//! ```text
//! kind 0  provenance  [seed u64] [D u32] [name_len u32] [name bytes]
//! kind 1  insert      [id u64] [n u32] [codes: n × u64]
//! kind 2  delete      [id u64]
//! kind 3  stream      [id u64] [λ: f64 bits] [n u32] [n × (key u64, mass: f64 bits)]
//! kind 4  generation  [generation u64]
//! ```
//!
//! All integers are little-endian; floats travel as raw IEEE-754 bits so a
//! replayed stream update is *bit*-identical to the original, not merely
//! close.
//!
//! ## Segmentation, rotation, retirement
//!
//! Appends go to the highest-generation segment (the *active* one).
//! [`Wal::rotate`] seals it and durably starts generation `g+1`; a
//! snapshot at generation `g` makes every segment *older* than the
//! previous retained snapshot redundant, and [`Wal::retire_below`] deletes
//! them — recovery cost is bounded by writes since the last snapshot, not
//! by total history. [`Wal::open`] takes the replay floor `from_gen` (the
//! recovering snapshot's generation) and *reads only* segments at or above
//! it; older, retirement-pending segments are merely counted.
//!
//! ## Replay rules
//!
//! Replay walks each live segment's frames from the front. In the **last**
//! segment, the first truncated or CRC-failing frame ends the log:
//! everything before it is trusted, everything from it on is discarded and
//! the file rewound to the valid prefix (the same prefix-salvage contract
//! as `SketchStore::salvage`) — a torn tail is the expected signature of a
//! kill mid-append, and the torn frame was never acknowledged. A **sealed**
//! segment was fully fsynced before rotation, so a bad frame there is
//! [`WalError::Corrupt`] (silent bitrot), never a salvage. A last segment
//! whose *header* never landed is a rotation the crash interrupted — it
//! cannot hold acknowledged records and is deleted, resuming the previous
//! segment as active.
//!
//! ## Failpoints
//!
//! `serve::wal_append` fires before the frame bytes are written and
//! `serve::wal_fsync` before the data sync; a reported failure rewinds the
//! file to its pre-append length, so a *failed* append never leaves a torn
//! frame behind — torn frames come only from crashes, which replay
//! tolerates. `serve::wal_rotate` fires before a rotation creates the new
//! segment (a failed rotation leaves the old segment active), and
//! `serve::wal_replay` fires once per segment actually read at open — a
//! never-firing probe on it turns replay work into an observable counter,
//! which is how the compaction bound is pinned in tests.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use wmh_hash::crc32c::crc32c;

/// File magic: identifies a wmh-serve WAL segment, version 1.
pub const WAL_MAGIC: [u8; 8] = *b"WMHWAL1\0";

/// Hard cap on a single frame payload (matches the wire frame cap).
pub const MAX_WAL_RECORD: u32 = 16 << 20;

/// Errors from the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// Filesystem failure (or an injected fault standing in for one).
    Io(String),
    /// The file exists but does not start with [`WAL_MAGIC`].
    BadMagic,
    /// The log's provenance frame names a different `(algorithm, seed, D)`
    /// than the store the service is opening over.
    ProvenanceMismatch {
        /// `(algorithm, seed, D)` the service expects.
        expected: (String, u64, usize),
        /// `(algorithm, seed, D)` recorded in the log.
        got: (String, u64, usize),
    },
    /// A frame that passed its CRC decoded to garbage, a sealed segment
    /// with a bad frame, or a segment chain with a hole — damage that
    /// prefix-salvage must not paper over.
    Corrupt(String),
    /// A mutation too large to frame.
    TooLarge(usize),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal I/O failed: {e}"),
            Self::BadMagic => write!(f, "not a wmh-serve WAL (bad magic)"),
            Self::ProvenanceMismatch { expected, got } => write!(
                f,
                "wal provenance mismatch: store is ({}, seed {}, D {}), log is ({}, seed {}, D {})",
                expected.0, expected.1, expected.2, got.0, got.1, got.2
            ),
            Self::Corrupt(e) => write!(f, "wal frame corrupt: {e}"),
            Self::TooLarge(len) => write!(f, "wal record {len} bytes exceeds cap {MAX_WAL_RECORD}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// An injected fault is indistinguishable from a real I/O failure to
/// callers — same `Io` variant, message naming the failpoint.
pub(crate) fn injected(point: Result<(), wmh_fault::Fault>) -> Result<(), WalError> {
    point.map_err(|f| WalError::Io(f.to_string()))
}

/// The `(algorithm, seed, D)` binding a WAL to one store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalProvenance {
    /// Catalog name of the sketching algorithm.
    pub algorithm: String,
    /// Master seed.
    pub seed: u64,
    /// Fingerprint length `D`.
    pub num_hashes: usize,
}

/// One logged mutation — the logical write, replayable bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Index a new point: its sketch codes (already sketched at the front,
    /// so replay needs no document).
    Insert {
        /// The point's id.
        id: u64,
        /// Its `D` sketch codes.
        codes: Vec<u64>,
    },
    /// Forget a point.
    Delete {
        /// The point's id.
        id: u64,
    },
    /// One streaming step for a drifting document: decay its accumulated
    /// histogram by `lambda`, then feed `items`. Replay re-runs the exact
    /// HistoSketch op sequence, so the rebuilt histogram is bit-identical.
    Stream {
        /// The point's id.
        id: u64,
        /// Gradual-forgetting factor in `(0, 1]`.
        lambda: f64,
        /// `(element, mass)` stream items.
        items: Vec<(u64, f64)>,
    },
}

impl Mutation {
    /// The id the mutation addresses.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            Self::Insert { id, .. } | Self::Delete { id } | Self::Stream { id, .. } => id,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Insert { id, codes } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(codes.len() as u32).to_le_bytes());
                for c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            Self::Delete { id } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Self::Stream { id, lambda, items } => {
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&lambda.to_bits().to_le_bytes());
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for (k, mass) in items {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&mass.to_bits().to_le_bytes());
                }
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, WalError> {
        let mut r = Reader::new(payload);
        let mutation = match r.u8()? {
            1 => {
                let id = r.u64()?;
                let n = r.u32()? as usize;
                let mut codes = Vec::with_capacity(n.min(MAX_WAL_RECORD as usize / 8));
                for _ in 0..n {
                    codes.push(r.u64()?);
                }
                Self::Insert { id, codes }
            }
            2 => Self::Delete { id: r.u64()? },
            3 => {
                let id = r.u64()?;
                let lambda = f64::from_bits(r.u64()?);
                let n = r.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(MAX_WAL_RECORD as usize / 16));
                for _ in 0..n {
                    let k = r.u64()?;
                    let mass = f64::from_bits(r.u64()?);
                    items.push((k, mass));
                }
                Self::Stream { id, lambda, items }
            }
            kind => return Err(WalError::Corrupt(format!("unknown mutation kind {kind}"))),
        };
        r.finish()?;
        Ok(mutation)
    }
}

/// What replay found in an existing log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Mutations replayed (provenance/generation frames are not counted).
    pub records: usize,
    /// Torn-tail bytes discarded (0 for a cleanly closed log).
    pub bytes_discarded: usize,
    /// Segments actually read and replayed (at or above the replay floor).
    pub segments_replayed: usize,
    /// Segments present in the directory, replayed or retirement-pending.
    pub segments_total: usize,
}

/// Per-segment bookkeeping of an open [`Wal`].
///
/// `records`/`bytes` count what this process has seen: replayed segments
/// report their full contents, retirement-pending segments below the
/// replay floor report 0 records (they were deliberately not read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment's generation (from its filename, cross-checked against
    /// its stamped generation frame).
    pub generation: u64,
    /// Mutation records known in it.
    pub records: usize,
    /// Bytes in its valid prefix.
    pub bytes: u64,
}

/// An open, segmented write-ahead log (see the module docs).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    provenance: WalProvenance,
    active: File,
    active_gen: u64,
    /// Valid-prefix length of the active segment — where the next frame
    /// goes, and where a failed append rewinds to.
    active_len: u64,
    /// All non-quarantined segments, ascending by generation; the last is
    /// the active one.
    segments: Vec<SegmentInfo>,
}

/// How a segment header failed to parse.
enum HeaderIssue {
    /// The header is a truncated prefix — a crash mid-create.
    Torn,
    /// The header is present but wrong (foreign magic, undecodable
    /// provenance, generation mismatch).
    Fatal(WalError),
}

impl HeaderIssue {
    /// The error this issue is on a segment that must be readable.
    fn into_error(self) -> WalError {
        match self {
            Self::Torn => WalError::Corrupt("provenance frame missing or torn".into()),
            Self::Fatal(e) => e,
        }
    }
}

impl Wal {
    /// Open (or create) the segmented log in the directory at `path`,
    /// bound to `provenance`, replaying segments at or above `from_gen`
    /// (the generation of the snapshot recovery starts from; 0 replays
    /// everything present).
    ///
    /// Existing segments are verified (magic + provenance + stamped
    /// generation), live ones replayed into the returned `Vec` in log
    /// order, and any torn tail of the last segment rewound; a fresh
    /// directory gets a generation-0 segment written and fsynced.
    ///
    /// # Errors
    /// [`WalError::BadMagic`] / [`WalError::ProvenanceMismatch`] /
    /// [`WalError::Corrupt`] for a foreign or damaged log (including a
    /// sealed segment with a bad frame, and a directory whose oldest
    /// segment is *above* `from_gen` — history needed for replay was
    /// compacted away), [`WalError::Io`] on filesystem failure.
    pub fn open(
        path: &Path,
        provenance: &WalProvenance,
        from_gen: u64,
    ) -> Result<(Self, Vec<Mutation>, ReplayReport), WalError> {
        prepare_dir(path)?;
        let mut gens = scan_segments(path)?;
        if gens.is_empty() {
            let (file, len) = create_segment(path, provenance, 0)?;
            let segments = vec![SegmentInfo { generation: 0, records: 0, bytes: len }];
            let wal = Self {
                dir: path.to_owned(),
                provenance: provenance.clone(),
                active: file,
                active_gen: 0,
                active_len: len,
                segments,
            };
            return Ok((wal, Vec::new(), ReplayReport::default()));
        }

        // A last segment whose header never fully landed is a rotation the
        // crash interrupted: it cannot hold acknowledged records. Drop it
        // and resume the previous segment as active.
        while gens.len() > 1 {
            let Some(&gen) = gens.last() else { break };
            let segpath = path.join(segment_file_name(gen));
            let bytes = std::fs::read(&segpath)?;
            if !matches!(read_segment_header(&bytes, gen), Err(HeaderIssue::Torn)) {
                break;
            }
            std::fs::remove_file(&segpath)?;
            sync_dir(path)?;
            gens.pop();
        }

        if gens[0] > from_gen {
            return Err(WalError::Corrupt(format!(
                "replay must start at generation {from_gen} but the oldest segment is \
                 generation {} — history was compacted past the recovery point",
                gens[0]
            )));
        }

        let mut mutations = Vec::new();
        let mut segments = Vec::with_capacity(gens.len());
        let mut report = ReplayReport { segments_total: gens.len(), ..ReplayReport::default() };
        let mut active_valid = 0u64;
        for (idx, &gen) in gens.iter().enumerate() {
            let last = idx == gens.len() - 1;
            let segpath = path.join(segment_file_name(gen));
            if gen < from_gen {
                // Retirement-pending: deliberately not read, so recovery
                // cost stays bounded by writes since the last snapshot.
                let bytes = std::fs::metadata(&segpath)?.len();
                segments.push(SegmentInfo { generation: gen, records: 0, bytes });
                continue;
            }
            let tag = gen.to_string();
            injected(wmh_fault::point!("serve::wal_replay", &tag))?;
            let bytes = std::fs::read(&segpath)?;
            // Only the last segment can be header-torn (handled above), and
            // only when it is the *sole* segment: a log whose first frame is
            // torn is indistinguishable from a foreign file.
            let (got, mut at) =
                read_segment_header(&bytes, gen).map_err(HeaderIssue::into_error)?;
            check_provenance(provenance, got)?;
            let mut seg_records = 0usize;
            while let Some(frame) = next_frame(&bytes, at) {
                // A CRC-valid frame that decodes to garbage is corruption,
                // not a torn tail — prefix salvage must not swallow it.
                mutations.push(Mutation::decode(frame.payload)?);
                seg_records += 1;
                at = frame.end;
            }
            let torn = bytes.len() - at;
            if torn > 0 && !last {
                return Err(WalError::Corrupt(format!(
                    "sealed segment generation {gen} has {torn} bad trailing bytes — it was \
                     fsynced whole before rotation, so this is damage, not a crash"
                )));
            }
            report.records += seg_records;
            report.bytes_discarded += torn;
            report.segments_replayed += 1;
            segments.push(SegmentInfo { generation: gen, records: seg_records, bytes: at as u64 });
            if last {
                active_valid = at as u64;
            }
        }

        let active_gen = *gens
            .last()
            .ok_or_else(|| WalError::Corrupt("WAL directory lists no segments".into()))?;
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.join(segment_file_name(active_gen)))?;
        // Rewind the torn tail so the next append starts at the valid
        // prefix instead of interleaving with garbage.
        active.set_len(active_valid)?;
        active.seek(SeekFrom::Start(active_valid))?;
        if report.bytes_discarded > 0 {
            active.sync_data()?;
        }
        let wal = Self {
            dir: path.to_owned(),
            provenance: provenance.clone(),
            active,
            active_gen,
            active_len: active_valid,
            segments,
        };
        Ok((wal, mutations, report))
    }

    /// Durably append one mutation to the active segment. On *any*
    /// failure — injected (`serve::wal_append`, `serve::wal_fsync`) or
    /// real — the file is rewound to its pre-append length, so a reported
    /// failure never leaves a torn frame.
    ///
    /// # Errors
    /// [`WalError::TooLarge`] for an oversized record, [`WalError::Io`]
    /// on write/sync failure.
    pub fn append(&mut self, mutation: &Mutation) -> Result<(), WalError> {
        let bytes = frame(&mutation.encode())?;
        let result = (|| -> Result<(), WalError> {
            injected(wmh_fault::point!("serve::wal_append"))?;
            self.active.write_all(&bytes)?;
            injected(wmh_fault::point!("serve::wal_fsync"))?;
            self.active.sync_data()?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.active_len += bytes.len() as u64;
                if let Some(seg) = self.segments.last_mut() {
                    seg.records += 1;
                    seg.bytes = self.active_len;
                }
                Ok(())
            }
            Err(e) => {
                // Best-effort rewind; if even that fails the open-time
                // prefix salvage still recovers, because the torn frame
                // cannot pass its CRC.
                let _ = self.active.set_len(self.active_len);
                let _ = self.active.seek(SeekFrom::Start(self.active_len));
                Err(e)
            }
        }
    }

    /// Seal the active segment and durably start the next generation.
    /// Appends after a successful rotation go to the new segment; on
    /// failure (including an injected `serve::wal_rotate` fault) the
    /// partial file is removed and the old segment stays active, so a
    /// failed rotation is invisible.
    ///
    /// # Errors
    /// [`WalError::Io`] on filesystem failure.
    pub fn rotate(&mut self) -> Result<u64, WalError> {
        let gen = self.active_gen + 1;
        let created = (|| -> Result<(File, u64), WalError> {
            injected(wmh_fault::point!("serve::wal_rotate"))?;
            create_segment(&self.dir, &self.provenance, gen)
        })();
        match created {
            Ok((file, len)) => {
                self.active = file;
                self.active_gen = gen;
                self.active_len = len;
                self.segments.push(SegmentInfo { generation: gen, records: 0, bytes: len });
                Ok(gen)
            }
            Err(e) => {
                let _ = std::fs::remove_file(self.dir.join(segment_file_name(gen)));
                Err(e)
            }
        }
    }

    /// Delete every sealed segment with generation below `gen` (the active
    /// segment is never retired). Returns how many were removed.
    ///
    /// # Errors
    /// [`WalError::Io`] on filesystem failure (already-removed segments
    /// stay removed; the survivors are still listed).
    pub fn retire_below(&mut self, gen: u64) -> Result<usize, WalError> {
        let mut removed = 0usize;
        let mut keep = Vec::with_capacity(self.segments.len());
        let mut failure = None;
        for seg in self.segments.drain(..) {
            if seg.generation < gen && seg.generation != self.active_gen && failure.is_none() {
                match std::fs::remove_file(self.dir.join(segment_file_name(seg.generation))) {
                    Ok(()) => removed += 1,
                    Err(e) => {
                        failure = Some(e.into());
                        keep.push(seg);
                    }
                }
            } else {
                keep.push(seg);
            }
        }
        self.segments = keep;
        if removed > 0 {
            sync_dir(&self.dir)?;
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(removed),
        }
    }

    /// Quarantine a sealed segment found damaged (by the scrubber): rename
    /// it to `<name>.bad` so opens no longer see it, keeping the bytes for
    /// forensics. Returns `false` when the generation is not listed
    /// (already retired or quarantined).
    ///
    /// # Errors
    /// [`WalError::Corrupt`] for the active generation (the write path
    /// owns it), [`WalError::Io`] on rename failure.
    pub fn quarantine_segment(&mut self, gen: u64) -> Result<bool, WalError> {
        if gen == self.active_gen {
            return Err(WalError::Corrupt("cannot quarantine the active segment".into()));
        }
        let Some(pos) = self.segments.iter().position(|s| s.generation == gen) else {
            return Ok(false);
        };
        let name = segment_file_name(gen);
        let mut bad = name.clone();
        bad.push_str(".bad");
        std::fs::rename(self.dir.join(&name), self.dir.join(&bad))?;
        sync_dir(&self.dir)?;
        self.segments.remove(pos);
        Ok(true)
    }

    /// The directory holding the segments.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generation of the active (append-target) segment.
    #[must_use]
    pub fn active_generation(&self) -> u64 {
        self.active_gen
    }

    /// Generation of the oldest segment still on disk.
    #[must_use]
    pub fn oldest_generation(&self) -> u64 {
        self.segments.first().map_or(self.active_gen, |s| s.generation)
    }

    /// The live segments, ascending by generation (the last is active).
    #[must_use]
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    /// Total bytes across all live segments' valid prefixes.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Total mutation records known across live segments (replayed plus
    /// appended; retirement-pending segments count 0 — see
    /// [`SegmentInfo`]).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.segments.iter().map(|s| s.records as u64).sum()
    }
}

/// One segment as seen by offline inspection ([`inspect`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// Generation from the filename.
    pub generation: u64,
    /// Whole mutation records found.
    pub records: usize,
    /// Bytes in the valid prefix.
    pub bytes: u64,
    /// Trailing bytes after the last valid frame (normal crash signature
    /// on the newest segment; damage anywhere else).
    pub torn_bytes: usize,
    /// Typed corruption, if the segment failed verification.
    pub error: Option<String>,
}

/// What [`inspect`] found in a WAL directory.
#[derive(Debug, Clone, PartialEq)]
pub struct WalInfo {
    /// Provenance recorded in the oldest readable segment.
    pub provenance: WalProvenance,
    /// Per-segment reports, ascending by generation.
    pub segments: Vec<SegmentReport>,
}

impl WalInfo {
    /// Whether any segment is damaged: a typed per-segment error, or torn
    /// bytes anywhere but the newest segment (a torn tail there is the
    /// expected kill-mid-append signature, not corruption).
    #[must_use]
    pub fn corrupt(&self) -> bool {
        let newest = self.segments.last().map(|s| s.generation);
        self.segments
            .iter()
            .any(|s| s.error.is_some() || (s.torn_bytes > 0 && Some(s.generation) != newest))
    }
}

/// Offline, read-only inspection of a WAL directory: provenance,
/// per-segment record counts, torn-tail bytes, and typed corruption.
/// Nothing is rewound or repaired. Provenance is taken from the oldest
/// readable segment; later segments are checked against it.
///
/// # Errors
/// [`WalError::Io`] when the directory cannot be read (including a path
/// that is a plain file), [`WalError::Corrupt`] when it holds no segment
/// or no segment yields a readable provenance.
pub fn inspect(path: &Path) -> Result<WalInfo, WalError> {
    let gens = scan_segments(path)?;
    if gens.is_empty() {
        return Err(WalError::Corrupt("no segments found".into()));
    }
    let mut provenance: Option<WalProvenance> = None;
    let mut segments = Vec::with_capacity(gens.len());
    for gen in gens {
        let bytes = std::fs::read(path.join(segment_file_name(gen)))?;
        let mut report =
            SegmentReport { generation: gen, records: 0, bytes: 0, torn_bytes: 0, error: None };
        let header = read_segment_header(&bytes, gen).map_err(HeaderIssue::into_error).and_then(
            |(got, at)| match &provenance {
                None => {
                    provenance = Some(got);
                    Ok(at)
                }
                Some(expected) => check_provenance(expected, got).map(|()| at),
            },
        );
        let mut at = match header {
            Ok(at) => at,
            Err(e) => {
                report.error = Some(e.to_string());
                segments.push(report);
                continue;
            }
        };
        while let Some(f) = next_frame(&bytes, at) {
            match Mutation::decode(f.payload) {
                Ok(_) => report.records += 1,
                Err(e) => {
                    report.error = Some(e.to_string());
                    break;
                }
            }
            at = f.end;
        }
        if report.error.is_none() {
            report.torn_bytes = bytes.len() - at;
        }
        report.bytes = at as u64;
        segments.push(report);
    }
    let provenance = provenance
        .ok_or_else(|| WalError::Corrupt("no segment yields a readable provenance".into()))?;
    Ok(WalInfo { provenance, segments })
}

/// `wal-<generation:016x>.seg`.
fn segment_file_name(gen: u64) -> String {
    format!("wal-{gen:016x}.seg")
}

fn parse_segment_gen(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Segment generations present in `dir`, ascending.
fn scan_segments(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_segment_gen) {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Make `path` a usable WAL directory: create it and sweep stale temp
/// files.
fn prepare_dir(path: &Path) -> Result<(), WalError> {
    std::fs::create_dir_all(path)?;
    for entry in std::fs::read_dir(path)? {
        let entry = entry?;
        if entry.file_name().to_str().is_some_and(|n| n.ends_with(".tmp")) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Create segment `gen` durably: magic + provenance frame + generation
/// frame, fsynced, directory fsynced. Returns the open file positioned at
/// the end and the header length.
fn create_segment(
    dir: &Path,
    provenance: &WalProvenance,
    gen: u64,
) -> Result<(File, u64), WalError> {
    let path = dir.join(segment_file_name(gen));
    let mut file =
        OpenOptions::new().create(true).truncate(true).read(true).write(true).open(&path)?;
    let mut head = Vec::new();
    head.push(0u8);
    head.extend_from_slice(&provenance.seed.to_le_bytes());
    head.extend_from_slice(&(provenance.num_hashes as u32).to_le_bytes());
    head.extend_from_slice(&(provenance.algorithm.len() as u32).to_le_bytes());
    head.extend_from_slice(provenance.algorithm.as_bytes());
    let mut gen_frame = Vec::new();
    gen_frame.push(4u8);
    gen_frame.extend_from_slice(&gen.to_le_bytes());
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.extend_from_slice(&frame(&head)?);
    bytes.extend_from_slice(&frame(&gen_frame)?);
    file.write_all(&bytes)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok((file, bytes.len() as u64))
}

/// Read a segment header — magic, provenance frame, generation frame —
/// and return the recorded provenance and the offset of the first
/// mutation frame. A present generation frame must agree with the
/// filename's `gen`; a torn one reads as a torn tail after the provenance,
/// which is harmless since the filename still carries the generation.
fn read_segment_header(bytes: &[u8], gen: u64) -> Result<(WalProvenance, usize), HeaderIssue> {
    if bytes.len() < WAL_MAGIC.len() {
        return Err(HeaderIssue::Torn);
    }
    if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(HeaderIssue::Fatal(WalError::BadMagic));
    }
    let Some(head) = next_frame(bytes, WAL_MAGIC.len()) else {
        return Err(HeaderIssue::Torn);
    };
    let provenance = decode_provenance(head.payload).map_err(HeaderIssue::Fatal)?;
    let mut at = head.end;
    if let Some(f) = next_frame(bytes, at) {
        if f.payload.first() == Some(&4) {
            let stamped = decode_generation(f.payload).map_err(HeaderIssue::Fatal)?;
            if stamped != gen {
                return Err(HeaderIssue::Fatal(WalError::Corrupt(format!(
                    "segment file says generation {gen} but its frame says {stamped}"
                ))));
            }
            at = f.end;
        }
    }
    Ok((provenance, at))
}

/// [`WalError::ProvenanceMismatch`] unless a segment's recorded provenance
/// `got` is the `expected` one.
fn check_provenance(expected: &WalProvenance, got: WalProvenance) -> Result<(), WalError> {
    if got == *expected {
        return Ok(());
    }
    Err(WalError::ProvenanceMismatch {
        expected: (expected.algorithm.clone(), expected.seed, expected.num_hashes),
        got: (got.algorithm, got.seed, got.num_hashes),
    })
}

fn decode_generation(payload: &[u8]) -> Result<u64, WalError> {
    let mut r = Reader::new(payload);
    if r.u8()? != 4 {
        return Err(WalError::Corrupt("not a generation frame".into()));
    }
    let gen = r.u64()?;
    r.finish()?;
    Ok(gen)
}

/// Fsync a directory so renames/creates/removes inside it are durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Frame a payload: `[len][payload][crc32c(payload)]`.
pub(crate) fn frame(payload: &[u8]) -> Result<Vec<u8>, WalError> {
    let len = u32::try_from(payload.len()).map_err(|_| WalError::TooLarge(payload.len()))?;
    if len > MAX_WAL_RECORD {
        return Err(WalError::TooLarge(payload.len()));
    }
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    Ok(out)
}

pub(crate) struct Frame<'a> {
    pub(crate) payload: &'a [u8],
    pub(crate) end: usize,
}

/// The next whole, CRC-valid frame at `at`, or `None` for a torn tail.
pub(crate) fn next_frame(bytes: &[u8], at: usize) -> Option<Frame<'_>> {
    let len_end = at.checked_add(4)?;
    if len_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    if len > MAX_WAL_RECORD {
        return None;
    }
    let payload_end = len_end.checked_add(len as usize)?;
    let end = payload_end.checked_add(4)?;
    if end > bytes.len() {
        return None;
    }
    let payload = &bytes[len_end..payload_end];
    let stored = u32::from_le_bytes([
        bytes[payload_end],
        bytes[payload_end + 1],
        bytes[payload_end + 2],
        bytes[payload_end + 3],
    ]);
    if crc32c(payload) != stored {
        return None;
    }
    Some(Frame { payload, end })
}

pub(crate) fn decode_provenance(payload: &[u8]) -> Result<WalProvenance, WalError> {
    let mut r = Reader::new(payload);
    if r.u8()? != 0 {
        return Err(WalError::Corrupt("first frame is not a provenance record".into()));
    }
    let seed = r.u64()?;
    let num_hashes = r.u32()? as usize;
    let name_len = r.u32()? as usize;
    let name = r.bytes(name_len)?;
    let algorithm = std::str::from_utf8(name)
        .map_err(|e| WalError::Corrupt(format!("algorithm name not UTF-8: {e}")))?
        .to_owned();
    r.finish()?;
    Ok(WalProvenance { algorithm, seed, num_hashes })
}

/// Encode a provenance frame payload (shared with the snapshot format).
pub(crate) fn encode_provenance(provenance: &WalProvenance) -> Vec<u8> {
    let mut head = Vec::new();
    head.push(0u8);
    head.extend_from_slice(&provenance.seed.to_le_bytes());
    head.extend_from_slice(&(provenance.num_hashes as u32).to_le_bytes());
    head.extend_from_slice(&(provenance.algorithm.len() as u32).to_le_bytes());
    head.extend_from_slice(provenance.algorithm.as_bytes());
    head
}

/// A bounds-checked little-endian cursor; every short read is typed.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| WalError::Corrupt("record shorter than its fields".into()))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WalError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WalError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub(crate) fn finish(self) -> Result<(), WalError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WalError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.bytes.len() - self.at
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_check::scratch;

    fn provenance() -> WalProvenance {
        WalProvenance { algorithm: "ICWS".into(), seed: 9, num_hashes: 128 }
    }

    fn sample() -> Vec<Mutation> {
        vec![
            Mutation::Insert { id: 7, codes: vec![1, 2, 3] },
            Mutation::Stream { id: 9, lambda: 0.875, items: vec![(4, 1.5), (11, 0.062_5)] },
            Mutation::Delete { id: 7 },
        ]
    }

    /// The active segment's file, for tests that damage it directly.
    fn active_path(d: &Path, gen: u64) -> std::path::PathBuf {
        d.join(segment_file_name(gen))
    }

    #[test]
    fn append_replay_round_trips() {
        let d = scratch("wal-roundtrip");
        let path = d.join("serve.wal");
        let (mut wal, replayed, report) = Wal::open(&path, &provenance(), 0).expect("create");
        assert!(replayed.is_empty());
        assert_eq!(report, ReplayReport::default());
        for m in sample() {
            wal.append(&m).expect("append");
        }
        assert_eq!(wal.records(), 3);
        drop(wal);
        let (_, replayed, report) = Wal::open(&path, &provenance(), 0).expect("reopen");
        assert_eq!(replayed, sample());
        assert_eq!(
            report,
            ReplayReport {
                records: 3,
                bytes_discarded: 0,
                segments_replayed: 1,
                segments_total: 1
            }
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_rewound_and_appends_continue() {
        let d = scratch("wal-torn");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        for m in sample() {
            wal.append(&m).expect("append");
        }
        let valid = wal.len_bytes();
        let gen = wal.active_generation();
        drop(wal);
        // A kill mid-append: half a frame lands.
        let seg = active_path(&path, gen);
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes.extend_from_slice(&40u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&seg, &bytes).expect("tear");

        let (mut wal, replayed, report) = Wal::open(&path, &provenance(), 0).expect("salvage");
        assert_eq!(replayed, sample(), "valid prefix survives");
        assert_eq!(report.bytes_discarded, 7, "torn tail measured");
        assert_eq!(wal.len_bytes(), valid, "file rewound to the valid prefix");
        wal.append(&Mutation::Delete { id: 9 }).expect("append after salvage");
        drop(wal);
        let (_, replayed, report) = Wal::open(&path, &provenance(), 0).expect("reopen");
        assert_eq!(replayed.len(), 4);
        assert_eq!(report.bytes_discarded, 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_middle_of_last_segment_reads_as_torn_tail() {
        let d = scratch("wal-corrupt");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        for m in sample() {
            wal.append(&m).expect("append");
        }
        let gen = wal.active_generation();
        drop(wal);
        // Flip one payload byte in the middle of the *active* segment: the
        // CRC fails, which reads as a torn tail — everything after it is
        // discarded.
        let seg = active_path(&path, gen);
        let mut bytes = std::fs::read(&seg).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("corrupt");
        let (_, replayed, report) = Wal::open(&path, &provenance(), 0).expect("salvage");
        assert!(replayed.len() < 3, "corrupted frame and successors dropped");
        assert!(report.bytes_discarded > 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_sealed_segment_is_a_typed_error_not_a_salvage() {
        let d = scratch("wal-sealed");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        for m in sample() {
            wal.append(&m).expect("append");
        }
        wal.rotate().expect("rotate");
        wal.append(&Mutation::Delete { id: 9 }).expect("append");
        drop(wal);
        // Damage the *sealed* generation-0 segment: it was fsynced whole
        // before rotation, so this is bitrot and must be typed, never
        // silently salvaged.
        let seg = active_path(&path, 0);
        let mut bytes = std::fs::read(&seg).expect("read");
        let at = bytes.len() - 10;
        bytes[at] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("corrupt");
        match Wal::open(&path, &provenance(), 0) {
            Err(WalError::Corrupt(e)) => assert!(e.contains("sealed"), "{e}"),
            other => panic!("expected sealed-segment corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn rotation_seals_and_replay_crosses_segments_in_order() {
        let d = scratch("wal-rotate");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        wal.append(&sample()[0]).expect("append");
        assert_eq!(wal.rotate().expect("rotate"), 1);
        wal.append(&sample()[1]).expect("append");
        assert_eq!(wal.rotate().expect("rotate"), 2);
        wal.append(&sample()[2]).expect("append");
        assert_eq!(wal.segments().len(), 3);
        assert_eq!(wal.active_generation(), 2);
        drop(wal);
        let (wal, replayed, report) = Wal::open(&path, &provenance(), 0).expect("reopen");
        assert_eq!(replayed, sample(), "log order preserved across segments");
        assert_eq!(report.segments_replayed, 3);
        assert_eq!(report.segments_total, 3);
        assert_eq!(wal.oldest_generation(), 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn replay_floor_skips_retirement_pending_segments() {
        let d = scratch("wal-floor");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        wal.append(&sample()[0]).expect("append");
        wal.rotate().expect("rotate");
        wal.append(&sample()[1]).expect("append");
        wal.append(&sample()[2]).expect("append");
        drop(wal);
        let (_, replayed, report) = Wal::open(&path, &provenance(), 1).expect("reopen");
        assert_eq!(replayed, sample()[1..], "only generation >= 1 replayed");
        assert_eq!(report.records, 2);
        assert_eq!(report.segments_replayed, 1);
        assert_eq!(report.segments_total, 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn replay_floor_above_oldest_missing_history_is_corrupt() {
        let d = scratch("wal-hole");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        wal.rotate().expect("rotate");
        wal.rotate().expect("rotate");
        wal.retire_below(2).expect("retire");
        drop(wal);
        // The directory's oldest segment is generation 2; replaying from 0
        // would silently lose generations 0-1.
        match Wal::open(&path, &provenance(), 0) {
            Err(WalError::Corrupt(e)) => assert!(e.contains("compacted"), "{e}"),
            other => panic!("expected compaction-hole error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn retire_below_deletes_only_sealed_old_segments() {
        let d = scratch("wal-retire");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        wal.append(&sample()[0]).expect("append");
        wal.rotate().expect("rotate");
        wal.append(&sample()[1]).expect("append");
        wal.rotate().expect("rotate");
        assert_eq!(wal.retire_below(2).expect("retire"), 2);
        assert_eq!(wal.segments().len(), 1);
        assert_eq!(wal.oldest_generation(), 2);
        assert!(!active_path(&path, 0).exists());
        assert!(!active_path(&path, 1).exists());
        // Retiring at-or-above the active generation removes nothing.
        assert_eq!(wal.retire_below(10).expect("retire"), 0);
        assert_eq!(wal.segments().len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn quarantine_renames_a_sealed_segment_out_of_the_scan() {
        let d = scratch("wal-quarantine");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        wal.append(&sample()[0]).expect("append");
        wal.rotate().expect("rotate");
        assert!(wal.quarantine_segment(0).expect("quarantine"));
        assert!(!active_path(&path, 0).exists());
        assert!(path.join("wal-0000000000000000.seg.bad").exists());
        assert!(!wal.quarantine_segment(0).expect("already gone"));
        assert!(wal.quarantine_segment(1).is_err(), "active segment is protected");
        drop(wal);
        // The quarantined file no longer participates in opens; replaying
        // from generation 1 succeeds.
        let (_, replayed, _) = Wal::open(&path, &provenance(), 1).expect("reopen");
        assert!(replayed.is_empty());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn interrupted_rotation_header_is_dropped_and_previous_resumes() {
        let d = scratch("wal-tornrotate");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        for m in sample() {
            wal.append(&m).expect("append");
        }
        drop(wal);
        // A kill mid-rotation: the new segment file exists but its header
        // never fully landed.
        std::fs::write(active_path(&path, 1), &WAL_MAGIC[..4]).expect("torn header");
        let (wal, replayed, report) = Wal::open(&path, &provenance(), 0).expect("recover");
        assert_eq!(replayed, sample(), "nothing acknowledged was lost");
        assert_eq!(wal.active_generation(), 0, "previous segment resumed as active");
        assert_eq!(report.segments_total, 1);
        assert!(!active_path(&path, 1).exists(), "torn rotation removed");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn provenance_mismatch_is_typed() {
        let d = scratch("wal-prov");
        let path = d.join("serve.wal");
        let (_, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        let other = WalProvenance { algorithm: "ICWS".into(), seed: 10, num_hashes: 128 };
        match Wal::open(&path, &other, 0) {
            Err(WalError::ProvenanceMismatch { expected, got }) => {
                assert_eq!(expected.1, 10);
                assert_eq!(got.1, 9);
            }
            other => panic!("expected provenance mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn foreign_segment_is_bad_magic() {
        let d = scratch("wal-magic");
        let path = d.join("serve.wal");
        std::fs::create_dir_all(&path).expect("mkdir");
        std::fs::write(active_path(&path, 0), b"definitely not a wal").expect("write");
        assert_eq!(Wal::open(&path, &provenance(), 0).unwrap_err(), WalError::BadMagic);
        let info = inspect(&path).expect_err("no readable provenance");
        assert!(matches!(info, WalError::Corrupt(_)), "{info:?}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn plain_file_is_a_typed_error_and_left_alone() {
        let d = scratch("wal-plain");
        let path = d.join("serve.wal");
        std::fs::write(&path, b"not a directory").expect("write");
        assert!(matches!(inspect(&path), Err(WalError::Io(_))));
        assert!(matches!(Wal::open(&path, &provenance(), 0), Err(WalError::Io(_))));
        assert_eq!(std::fs::read(&path).expect("still a file"), b"not a directory");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn float_payloads_survive_bit_exactly() {
        let d = scratch("wal-bits");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        let m = Mutation::Stream {
            id: 1,
            lambda: 0.1 + 0.2, // deliberately non-representable
            items: vec![(2, 1.0 / 3.0), (3, f64::MIN_POSITIVE)],
        };
        wal.append(&m).expect("append");
        drop(wal);
        let (_, replayed, _) = Wal::open(&path, &provenance(), 0).expect("reopen");
        let Mutation::Stream { lambda, items, .. } = &replayed[0] else { panic!("kind") };
        assert_eq!(lambda.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(items[0].1.to_bits(), (1.0f64 / 3.0).to_bits());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn inspect_reports_segments_and_flags_corruption() {
        let d = scratch("wal-inspect");
        let path = d.join("serve.wal");
        let (mut wal, _, _) = Wal::open(&path, &provenance(), 0).expect("create");
        for m in sample() {
            wal.append(&m).expect("append");
        }
        wal.rotate().expect("rotate");
        wal.append(&Mutation::Delete { id: 9 }).expect("append");
        drop(wal);

        let info = inspect(&path).expect("inspect");
        assert_eq!(info.provenance, provenance());
        assert_eq!(info.segments.len(), 2);
        assert_eq!(info.segments[0].records, 3);
        assert_eq!(info.segments[1].records, 1);
        assert!(!info.corrupt());

        // A torn tail on the newest segment is a crash signature, not
        // corruption.
        let newest = active_path(&path, 1);
        let mut bytes = std::fs::read(&newest).expect("read");
        bytes.extend_from_slice(&[9, 9, 9]);
        std::fs::write(&newest, &bytes).expect("tear");
        let info = inspect(&path).expect("inspect");
        assert_eq!(info.segments[1].torn_bytes, 3);
        assert!(!info.corrupt());

        // The same bytes on a *sealed* segment are corruption.
        let sealed = active_path(&path, 0);
        let mut bytes = std::fs::read(&sealed).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&sealed, &bytes).expect("corrupt");
        let info = inspect(&path).expect("inspect");
        assert!(info.corrupt());
        let _ = std::fs::remove_dir_all(&d);
    }
}
