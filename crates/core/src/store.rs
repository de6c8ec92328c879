//! Compact, crash-safe binary storage for sketch collections.
//!
//! The review's application list (§1) includes enterprise information
//! management \[16\], where fingerprints of large corpora are persisted and
//! shipped between systems. This module defines a versioned little-endian
//! binary format for a collection of same-provenance sketches, with
//! end-to-end integrity checking (CRC-32C, [`wmh_hash::crc32c`]) and
//! atomic file persistence.
//!
//! # Format v2 (current)
//!
//! ```text
//! ┌────────────────────────── header ──────────────────────────┐
//! │ offset      size  field                                    │
//! │ 0           4     magic  "WMHS"                            │
//! │ 4           4     version        u32 le = 2                │
//! │ 8           4     alg_len        u32 le                    │
//! │ 12          L     algorithm      utf-8, L = alg_len        │
//! │ 12+L        8     seed           u64 le                    │
//! │ 20+L        4     num_hashes D   u32 le                    │
//! │ 24+L        4     count          u32 le                    │
//! │ 28+L        4     header_crc     u32 le                    │
//! │                   = CRC-32C of bytes [0, 28+L)             │
//! └────────────────────────────────────────────────────────────┘
//! ┌──────────────── record, repeated `count` times ────────────┐
//! │ +0          8     id             u64 le                    │
//! │ +8          8·D   codes          D × u64 le                │
//! │ +8+8D       4     record_crc     u32 le                    │
//! │                   = CRC-32C of the 8+8D payload bytes      │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Any other version — including the checksum-less v1 layout — is refused
//! with [`StoreError::UnsupportedVersion`].
//!
//! # Robustness contract
//!
//! * `decode` is **total**: any byte slice yields `Ok` or a typed
//!   [`StoreError`] — never a panic, never an unbounded allocation.
//!   Claimed sizes are validated against the actual buffer length with
//!   checked arithmetic *before* anything is allocated.
//! * [`SketchStore::save_to_path`] is **atomic**: bytes go to a sibling
//!   temp file which is fsynced and then renamed over the target (with a
//!   directory fsync), so a crash mid-write leaves either the old file or
//!   the new one, never a torn hybrid.
//! * [`SketchStore::salvage`] is the disaster path: given a corrupted
//!   buffer with a readable header it recovers the longest valid record
//!   prefix and reports what was lost in a [`RecoveryReport`].
//!
//! All sketches in a store share `(algorithm, seed, D)` — the estimator's
//! compatibility requirements — so the store re-validates on insert and the
//! decoder can reconstruct comparable [`Sketch`] values.

use crate::sketch::Sketch;
use std::io::Write as _;
use std::path::Path;
use wmh_hash::crc32c::crc32c;

const MAGIC: &[u8; 4] = b"WMHS";
const VERSION: u32 = 2;
/// Upper bound on the algorithm-name field, to reject absurd headers
/// before allocating.
const MAX_ALG_LEN: usize = 1024;

/// An in-memory collection of compatible sketches with checksummed binary
/// encode/decode and atomic file persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchStore {
    algorithm: String,
    seed: u64,
    num_hashes: usize,
    ids: Vec<u64>,
    codes: Vec<u64>, // row-major, num_hashes per id
}

/// Errors for [`SketchStore`].
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Inserted sketch does not match the store's provenance.
    Incompatible {
        /// Expected `(algorithm, seed, D)`.
        expected: (String, u64, usize),
        /// The offending sketch's `(algorithm, seed, D)`.
        got: (String, u64, usize),
    },
    /// Duplicate document id.
    DuplicateId(u64),
    /// Unknown id on lookup.
    UnknownId(u64),
    /// Malformed or truncated buffer.
    Corrupt(&'static str),
    /// Well-formed magic but a version this build does not read.
    UnsupportedVersion(u32),
    /// A CRC-32C check failed.
    ChecksumMismatch {
        /// `"header"` or `"record"`.
        what: &'static str,
        /// Record index (0 for the header).
        index: usize,
        /// Checksum stored in the buffer.
        expected: u32,
        /// Checksum recomputed from the payload bytes.
        got: u32,
    },
    /// An I/O error while persisting or loading (message of the
    /// underlying [`std::io::Error`]).
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Incompatible { expected, got } => write!(
                f,
                "sketch {}/seed {}/D={} incompatible with store {}/seed {}/D={}",
                got.0, got.1, got.2, expected.0, expected.1, expected.2
            ),
            Self::DuplicateId(id) => write!(f, "id {id} already stored"),
            Self::UnknownId(id) => write!(f, "id {id} not in store"),
            Self::Corrupt(what) => write!(f, "corrupt store buffer: {what}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            Self::ChecksumMismatch { what, index, expected, got } => write!(
                f,
                "{what} {index} checksum mismatch: stored {expected:#010x}, computed {got:#010x}"
            ),
            Self::Io(msg) => write!(f, "store i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// An injected fault is indistinguishable from a real I/O failure to
/// callers — same `Io` variant, message naming the failpoint.
fn injected(point: Result<(), wmh_fault::Fault>) -> Result<(), StoreError> {
    point.map_err(|f| StoreError::Io(f.to_string()))
}

/// What [`SketchStore::salvage`] managed to pull out of a damaged buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Records recovered into the returned store.
    pub recovered: usize,
    /// Records the header claimed the buffer held.
    pub expected: usize,
    /// Bytes after the last valid record that were thrown away.
    pub bytes_discarded: usize,
    /// The error that stopped recovery, if recovery was partial.
    pub first_error: Option<StoreError>,
}

impl RecoveryReport {
    /// Whether every claimed record was recovered and no bytes were lost.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.recovered == self.expected && self.bytes_discarded == 0
    }
}

/// Cursor over a byte slice with typed, bounds-checked reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32_le(&mut self, what: &'static str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64_le(&mut self, what: &'static str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Parsed, validated store header plus where the record region starts.
struct Header {
    algorithm: String,
    seed: u64,
    num_hashes: usize,
    count: usize,
    /// Byte offset of the first record.
    records_at: usize,
    /// Bytes each record occupies: id, codes and CRC.
    record_size: usize,
}

fn parse_header(bytes: &[u8]) -> Result<Header, StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic")? != MAGIC {
        return Err(StoreError::Corrupt("bad magic"));
    }
    let version = r.u32_le("version")?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let alg_len = r.u32_le("algorithm length")? as usize;
    if alg_len > MAX_ALG_LEN {
        return Err(StoreError::Corrupt("algorithm name too long"));
    }
    let alg = r.take(alg_len, "algorithm name")?.to_vec();
    let seed = r.u64_le("header seed")?;
    let num_hashes = r.u32_le("header num_hashes")? as usize;
    let count = r.u32_le("header count")? as usize;
    // Integrity before semantics: a corrupted header must surface as a
    // checksum mismatch, not as whatever the garbage decodes to.
    let crc_at = r.pos;
    let stored = r.u32_le("header checksum")?;
    let computed = crc32c(&bytes[..crc_at]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch {
            what: "header",
            index: 0,
            expected: stored,
            got: computed,
        });
    }
    let algorithm =
        String::from_utf8(alg).map_err(|_| StoreError::Corrupt("algorithm not utf-8"))?;
    // Per-record size: id + D codes + trailing CRC. Checked — the factor
    // comes from untrusted input.
    let record_size = num_hashes
        .checked_mul(8)
        .and_then(|n| n.checked_add(8 + 4))
        .ok_or(StoreError::Corrupt("record size overflow"))?;
    Ok(Header { algorithm, seed, num_hashes, count, records_at: r.pos, record_size })
}

/// Parse one record at `at`. Returns `(id, codes)` with the CRC already
/// verified.
fn parse_record(
    bytes: &[u8],
    h: &Header,
    index: usize,
    at: usize,
) -> Result<(u64, Vec<u64>), StoreError> {
    let mut r = Reader::new(&bytes[at..]);
    let payload_len = 8 + h.num_hashes * 8;
    let payload = r.take(h.record_size, "record")?;
    let stored = u32::from_le_bytes([
        payload[payload_len],
        payload[payload_len + 1],
        payload[payload_len + 2],
        payload[payload_len + 3],
    ]);
    let computed = crc32c(&payload[..payload_len]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch {
            what: "record",
            index,
            expected: stored,
            got: computed,
        });
    }
    let mut pr = Reader::new(&payload[..payload_len]);
    let id = pr.u64_le("record id")?;
    let mut codes = Vec::with_capacity(h.num_hashes);
    for _ in 0..h.num_hashes {
        codes.push(pr.u64_le("record code")?);
    }
    Ok((id, codes))
}

impl SketchStore {
    /// An empty store adopting the provenance of its first insert.
    #[must_use]
    pub fn new() -> Self {
        Self {
            algorithm: String::new(),
            seed: 0,
            num_hashes: 0,
            ids: Vec::new(),
            codes: Vec::new(),
        }
    }

    /// Number of stored sketches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Insert a sketch under `id`.
    ///
    /// # Errors
    /// [`StoreError::Incompatible`] on provenance mismatch with earlier
    /// inserts; [`StoreError::DuplicateId`] on id reuse.
    pub fn insert(&mut self, id: u64, sketch: &Sketch) -> Result<(), StoreError> {
        if self.is_empty() {
            self.algorithm = sketch.algorithm.clone();
            self.seed = sketch.seed;
            self.num_hashes = sketch.len();
        } else if sketch.algorithm != self.algorithm
            || sketch.seed != self.seed
            || sketch.len() != self.num_hashes
        {
            return Err(StoreError::Incompatible {
                expected: (self.algorithm.clone(), self.seed, self.num_hashes),
                got: (sketch.algorithm.clone(), sketch.seed, sketch.len()),
            });
        }
        if self.ids.contains(&id) {
            return Err(StoreError::DuplicateId(id));
        }
        self.ids.push(id);
        self.codes.extend_from_slice(&sketch.codes);
        Ok(())
    }

    /// Reconstruct the sketch stored under `id`.
    ///
    /// # Errors
    /// [`StoreError::UnknownId`] when absent.
    pub fn get(&self, id: u64) -> Result<Sketch, StoreError> {
        let pos = self.ids.iter().position(|&x| x == id).ok_or(StoreError::UnknownId(id))?;
        let start = pos * self.num_hashes;
        Ok(Sketch {
            algorithm: self.algorithm.clone(),
            seed: self.seed,
            codes: self.codes[start..start + self.num_hashes].to_vec(),
        })
    }

    /// All stored ids, in insertion order.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Producing algorithm's catalog name (empty until the first insert).
    ///
    /// Together with [`Self::seed`] and [`Self::num_hashes`] this is the
    /// provenance a reader needs to rebuild a compatible sketcher — the
    /// serving layer uses it to configure its query-side sketcher from the
    /// store file alone.
    #[must_use]
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Master seed the stored sketches were produced with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fingerprint length `D` of every stored sketch (0 until the first
    /// insert).
    #[must_use]
    pub fn num_hashes(&self) -> usize {
        self.num_hashes
    }

    /// Estimate the similarity of two stored documents.
    ///
    /// # Errors
    /// [`StoreError::UnknownId`] for missing ids.
    pub fn estimate(&self, a: u64, b: u64) -> Result<f64, StoreError> {
        let sa = self.get(a)?;
        let sb = self.get(b)?;
        Ok(sa.try_estimate_similarity(&sb).expect("stored sketches share provenance"))
    }

    fn encode_header(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.algorithm.len() as u32).to_le_bytes());
        buf.extend_from_slice(self.algorithm.as_bytes());
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&(self.num_hashes as u32).to_le_bytes());
        buf.extend_from_slice(&(self.ids.len() as u32).to_le_bytes());
    }

    /// Encode to the current (v2, checksummed) binary format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let record = 8 + self.num_hashes * 8 + 4;
        let mut buf = Vec::with_capacity(32 + self.algorithm.len() + self.ids.len() * record);
        self.encode_header(&mut buf);
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        for (pos, &id) in self.ids.iter().enumerate() {
            let payload_at = buf.len();
            buf.extend_from_slice(&id.to_le_bytes());
            let start = pos * self.num_hashes;
            for &code in &self.codes[start..start + self.num_hashes] {
                buf.extend_from_slice(&code.to_le_bytes());
            }
            let crc = crc32c(&buf[payload_at..]);
            buf.extend_from_slice(&crc.to_le_bytes());
        }
        buf
    }

    /// Decode from the binary format, verifying every CRC.
    ///
    /// Total over arbitrary input: every failure mode is a typed error.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] for malformed input,
    /// [`StoreError::UnsupportedVersion`] for any version but 2,
    /// [`StoreError::ChecksumMismatch`] when stored CRCs disagree with
    /// the payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let h = parse_header(bytes)?;
        // Validate the claimed record region against reality before any
        // count-proportional allocation.
        let needed = h
            .count
            .checked_mul(h.record_size)
            .ok_or(StoreError::Corrupt("record region overflow"))?;
        let remaining = bytes.len() - h.records_at;
        if remaining < needed {
            return Err(StoreError::Corrupt("record"));
        }
        if remaining > needed {
            return Err(StoreError::Corrupt("trailing bytes"));
        }
        // `needed` fits the buffer, so `count * num_hashes` is bounded by
        // buffer_len / 8 and cannot overflow.
        let mut ids = Vec::with_capacity(h.count);
        let mut codes = Vec::with_capacity(h.count * h.num_hashes);
        let mut at = h.records_at;
        for index in 0..h.count {
            let (id, rec_codes) = parse_record(bytes, &h, index, at)?;
            ids.push(id);
            codes.extend_from_slice(&rec_codes);
            at += h.record_size;
        }
        Ok(Self { algorithm: h.algorithm, seed: h.seed, num_hashes: h.num_hashes, ids, codes })
    }

    /// Recover as many valid records as possible from a damaged buffer.
    ///
    /// The header must parse and pass its CRC — a store whose
    /// header is gone is unrecoverable without out-of-band provenance.
    /// Records are then read in order until the first truncated or
    /// checksum-failing record; everything before it becomes the returned
    /// store, and the [`RecoveryReport`] records what was lost.
    ///
    /// # Errors
    /// Any header-level [`StoreError`].
    pub fn salvage(bytes: &[u8]) -> Result<(Self, RecoveryReport), StoreError> {
        let h = parse_header(bytes)?;
        let mut ids = Vec::new();
        let mut codes = Vec::new();
        let mut at = h.records_at;
        let mut first_error = None;
        for index in 0..h.count {
            match parse_record(bytes, &h, index, at) {
                Ok((id, rec_codes)) => {
                    ids.push(id);
                    codes.extend_from_slice(&rec_codes);
                    at += h.record_size;
                }
                Err(e) => {
                    first_error = Some(e);
                    break;
                }
            }
        }
        if first_error.is_none() && bytes.len() > at {
            first_error = Some(StoreError::Corrupt("trailing bytes"));
        }
        let report = RecoveryReport {
            recovered: ids.len(),
            expected: h.count,
            bytes_discarded: bytes.len() - at,
            first_error,
        };
        let store =
            Self { algorithm: h.algorithm, seed: h.seed, num_hashes: h.num_hashes, ids, codes };
        Ok((store, report))
    }

    /// Persist atomically to `path` (v2 format).
    ///
    /// The bytes are written to a sibling temp file, fsynced, renamed over
    /// `path`, and the parent directory is fsynced — after a crash at any
    /// point, `path` holds either the previous contents or the new store.
    ///
    /// # Errors
    /// [`StoreError::Io`] on any filesystem failure. A failed directory
    /// fsync is reported too, after the rename: `path` then already holds
    /// the new store, which is published but not known to be durable.
    pub fn save_to_path(&self, path: &Path) -> Result<(), StoreError> {
        let file_name =
            path.file_name().ok_or_else(|| StoreError::Io("path has no file name".to_owned()))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let result = (|| -> Result<(), StoreError> {
            let mut f = std::fs::File::create(&tmp)?;
            injected(wmh_fault::point!("store::write"))?;
            let bytes = self.encode();
            // A firing `store::short_write` models a lying fsync: half the
            // bytes land and the save still *reports* success, leaving a
            // torn file for the salvage path to chew on.
            let visible: &[u8] = if wmh_fault::point!("store::short_write").is_err() {
                &bytes[..bytes.len() / 2]
            } else {
                &bytes
            };
            f.write_all(visible)?;
            injected(wmh_fault::point!("store::fsync"))?;
            f.sync_all()?;
            drop(f);
            injected(wmh_fault::point!("store::rename"))?;
            std::fs::rename(&tmp, path)?;
            // Make the rename itself durable.
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                injected(wmh_fault::point!("store::sync_dir"))?;
                std::fs::File::open(dir)?.sync_all()?;
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Load and verify a store previously written by [`Self::save_to_path`].
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failure, plus every
    /// [`Self::decode`] error for damaged contents.
    pub fn load_from_path(path: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }

    /// [`Self::salvage`] applied to a file.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failure, plus header-level decode
    /// errors.
    pub fn salvage_from_path(path: &Path) -> Result<(Self, RecoveryReport), StoreError> {
        let bytes = std::fs::read(path)?;
        Self::salvage(&bytes)
    }
}

impl Default for SketchStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cws::Icws;
    use crate::sketch::Sketcher;
    use wmh_sets::WeightedSet;

    fn sketches() -> (Icws, Vec<(u64, Sketch)>) {
        let icws = Icws::new(3, 32);
        let out = (0..5u64)
            .map(|i| {
                let set = WeightedSet::from_pairs(
                    (i * 10..i * 10 + 20).map(|k| (k, 1.0 + (k % 3) as f64)),
                )
                .expect("valid");
                (i, icws.sketch(&set).expect("ok"))
            })
            .collect();
        (icws, out)
    }

    fn filled_store() -> SketchStore {
        let (_, items) = sketches();
        let mut store = SketchStore::new();
        for (id, sk) in &items {
            store.insert(*id, sk).expect("insert");
        }
        store
    }

    #[test]
    fn insert_get_roundtrip() {
        let (_, items) = sketches();
        let mut store = SketchStore::new();
        for (id, sk) in &items {
            store.insert(*id, sk).expect("insert");
        }
        assert_eq!(store.len(), 5);
        for (id, sk) in &items {
            assert_eq!(&store.get(*id).expect("present"), sk);
        }
        assert_eq!(store.get(99), Err(StoreError::UnknownId(99)));
    }

    #[test]
    fn rejects_duplicates_and_mismatches() {
        let (_, items) = sketches();
        let mut store = SketchStore::new();
        store.insert(0, &items[0].1).expect("insert");
        assert_eq!(store.insert(0, &items[1].1), Err(StoreError::DuplicateId(0)));
        // Different seed is incompatible.
        let foreign = Icws::new(999, 32)
            .sketch(&WeightedSet::from_pairs([(1, 1.0)]).expect("valid"))
            .expect("ok");
        assert!(matches!(store.insert(7, &foreign), Err(StoreError::Incompatible { .. })));
        // Different D likewise.
        let short = Icws::new(3, 16)
            .sketch(&WeightedSet::from_pairs([(1, 1.0)]).expect("valid"))
            .expect("ok");
        assert!(matches!(store.insert(8, &short), Err(StoreError::Incompatible { .. })));
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let store = filled_store();
        let bytes = store.encode();
        let back = SketchStore::decode(&bytes).expect("decode");
        assert_eq!(store, back);
        // And estimates survive.
        assert_eq!(store.estimate(0, 1).expect("ok"), back.estimate(0, 1).expect("ok"));
    }

    #[test]
    fn decode_rejects_corruption() {
        let (_, items) = sketches();
        let mut store = SketchStore::new();
        store.insert(0, &items[0].1).expect("insert");
        let bytes = store.encode();

        // Truncations at every prefix length fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let r = SketchStore::decode(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(SketchStore::decode(&bad), Err(StoreError::Corrupt("bad magic")));
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(SketchStore::decode(&long), Err(StoreError::Corrupt("trailing bytes")));
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let (_, items) = sketches();
        let mut store = SketchStore::new();
        store.insert(0, &items[0].1).expect("insert");
        store.insert(1, &items[1].1).expect("insert");
        let bytes = store.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                let r = SketchStore::decode(&bad);
                assert!(r != Ok(store.clone()), "flip @{byte}.{bit} decoded back to the original");
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let store = filled_store();
        let mut bytes = store.encode();
        // Flip a bit in the first record's id (just past the header).
        let header_len = 4 + 4 + 4 + store.algorithm.len() + 8 + 4 + 4 + 4;
        bytes[header_len] ^= 0x01;
        assert!(matches!(
            SketchStore::decode(&bytes),
            Err(StoreError::ChecksumMismatch { what: "record", index: 0, .. })
        ));
        // Flip a header byte (the seed).
        let mut bytes = store.encode();
        bytes[12 + store.algorithm.len()] ^= 0x01;
        assert!(matches!(
            SketchStore::decode(&bytes),
            Err(StoreError::ChecksumMismatch { what: "header", .. })
        ));
    }

    /// A bare header with an empty algorithm name and no records behind
    /// it; `with_crc` appends the v2 header checksum.
    fn raw_header(version: u32, num_hashes: u32, count: u32, with_crc: bool) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // alg_len
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seed
        bytes.extend_from_slice(&num_hashes.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        if with_crc {
            let crc = crc32c(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn future_version_is_refused() {
        let store = filled_store();
        let mut bytes = store.encode();
        bytes[4] = 3; // version field
        assert_eq!(SketchStore::decode(&bytes), Err(StoreError::UnsupportedVersion(3)));
    }

    #[test]
    fn v1_store_is_refused() {
        // An empty store in the checksum-less v1 layout.
        let bytes = raw_header(1, 32, 0, false);
        assert_eq!(SketchStore::decode(&bytes), Err(StoreError::UnsupportedVersion(1)));
        assert_eq!(SketchStore::salvage(&bytes).err(), Some(StoreError::UnsupportedVersion(1)));
    }

    #[test]
    fn huge_claimed_counts_do_not_allocate_or_panic() {
        // A checksum-valid header claiming u32::MAX hashes and records with
        // no record bytes behind it: `count × record_size` overflows and
        // must be caught before anything is allocated.
        let bytes = raw_header(VERSION, u32::MAX, u32::MAX, true);
        assert_eq!(SketchStore::decode(&bytes), Err(StoreError::Corrupt("record region overflow")));
        let (salvaged, report) = SketchStore::salvage(&bytes).expect("header intact");
        assert!(salvaged.is_empty());
        assert_eq!(report.first_error, Some(StoreError::Corrupt("record")));
    }

    #[test]
    fn salvage_recovers_valid_prefix() {
        let store = filled_store();
        let bytes = store.encode();
        let record_size = 8 + 32 * 8 + 4;
        // Corrupt record 3 (of 5): salvage keeps records 0..3.
        let header_len = bytes.len() - 5 * record_size;
        let mut bad = bytes.clone();
        bad[header_len + 3 * record_size + 4] ^= 0xFF;
        let (partial, report) = SketchStore::salvage(&bad).expect("header intact");
        assert_eq!(partial.len(), 3);
        assert_eq!(report.recovered, 3);
        assert_eq!(report.expected, 5);
        assert_eq!(report.bytes_discarded, 2 * record_size);
        assert!(matches!(
            report.first_error,
            Some(StoreError::ChecksumMismatch { what: "record", index: 3, .. })
        ));
        assert!(!report.is_complete());
        for id in 0..3u64 {
            assert_eq!(partial.get(id), store.get(id));
        }
        // Truncation mid-record behaves the same way.
        let cut = header_len + 2 * record_size + 7;
        let (partial, report) = SketchStore::salvage(&bytes[..cut]).expect("header intact");
        assert_eq!(partial.len(), 2);
        assert_eq!(report.recovered, 2);
        assert_eq!(report.bytes_discarded, 7);
        assert!(matches!(report.first_error, Some(StoreError::Corrupt("record"))));
        // A clean buffer salvages completely.
        let (full, report) = SketchStore::salvage(&bytes).expect("ok");
        assert_eq!(full, store);
        assert!(report.is_complete());
        assert_eq!(report.first_error, None);
    }

    #[test]
    fn salvage_refuses_destroyed_header() {
        let store = filled_store();
        let mut bytes = store.encode();
        bytes[8] ^= 0xFF; // alg_len byte — header CRC breaks
        assert!(matches!(
            SketchStore::salvage(&bytes),
            Err(StoreError::ChecksumMismatch { what: "header", .. })
        ));
    }

    #[test]
    fn save_and_load_roundtrip_atomically() {
        let dir = wmh_check::scratch("store");
        let path = dir.join("corpus.wmhs");
        let store = filled_store();
        store.save_to_path(&path).expect("save");
        // No temp file left behind.
        assert!(!dir.join("corpus.wmhs.tmp").exists());
        let back = SketchStore::load_from_path(&path).expect("load");
        assert_eq!(store, back);
        // Overwrite is also atomic and preserves the new contents.
        let (_, items) = sketches();
        let mut store2 = SketchStore::new();
        store2.insert(77, &items[0].1).expect("insert");
        store2.save_to_path(&path).expect("save 2");
        assert_eq!(SketchStore::load_from_path(&path).expect("load 2"), store2);
        // Missing files are an Io error, not a panic.
        assert!(matches!(
            SketchStore::load_from_path(&dir.join("absent.wmhs")),
            Err(StoreError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_roundtrip() {
        let store = SketchStore::new();
        let back = SketchStore::decode(&store.encode()).expect("decode");
        assert!(back.is_empty());
        assert_eq!(store, back);
    }

    #[test]
    fn estimate_between_stored_documents() {
        let icws = Icws::new(11, 512);
        let s = WeightedSet::from_pairs((0..40u64).map(|k| (k, 1.0))).expect("valid");
        let t = WeightedSet::from_pairs((20..60u64).map(|k| (k, 1.0))).expect("valid");
        let mut store = SketchStore::new();
        store.insert(1, &icws.sketch(&s).expect("ok")).expect("insert");
        store.insert(2, &icws.sketch(&t).expect("ok")).expect("insert");
        let est = store.estimate(1, 2).expect("ok");
        let truth = wmh_sets::generalized_jaccard(&s, &t);
        assert!((est - truth).abs() < 0.12, "est {est} truth {truth}");
        assert_eq!(store.estimate(1, 9), Err(StoreError::UnknownId(9)));
    }
}
