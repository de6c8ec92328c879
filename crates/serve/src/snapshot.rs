//! Atomic, generation-numbered snapshots of the mutation mirror.
//!
//! A snapshot freezes everything recovery would otherwise reconstruct by
//! replaying the WAL from the cold store: the live id set, the overlay
//! codes of every id whose indexed sketch differs from the store, and the
//! full streaming state of every drifting document. Restoring the mirror
//! from snapshot generation `g` plus the WAL segments at or above `g` is
//! *bit*-identical to replaying the whole log — which is what lets
//! [`crate::wal::Wal::retire_below`] delete the history the snapshot
//! subsumes and keep recovery cost bounded by writes since the last
//! snapshot.
//!
//! ## On-disk format
//!
//! One file per generation, `snap-<generation:016x>.snap`, next to the WAL
//! segments, using the same `[len][payload][crc32c]` framing
//! ([`crate::wal::frame`]) behind its own magic:
//!
//! ```text
//! magic    8 bytes  b"WMHSNAP1"
//! kind 0   header   [gen u64] [seed u64] [D u32] [name_len u32] [name]
//!                   [live u64] [overlays u64] [streams u64]
//! kind 1   live ids [n u32] [n × id u64]          (sorted, chunked)
//! kind 2   overlay  [id u64] [n u32] [n × code u64]
//! kind 3   stream   [id u64] [support u32] [support × (elem u64, w f64 bits)]
//!                   [num_hashes u32] [num_hashes × (tag u8, elem u64, value f64 bits)]
//! kind 255 footer   [live u64] [overlays u64] [streams u64]
//! ```
//!
//! The header binds the snapshot to one `(algorithm, seed, D)` — restoring
//! a mirror over the wrong store would poison every shard, so the binding
//! is a hard error, never a silent skip. The footer is the completeness
//! marker: a torn write cannot produce a footer whose counts match the
//! header, so "last frame is a matching footer" distinguishes a whole
//! snapshot from a truncated one even though every surviving frame passes
//! its CRC. Floats travel as raw IEEE-754 bits (weights sorted by element,
//! ids sorted ascending), so the same mirror always serializes to the same
//! bytes.
//!
//! ## Atomicity
//!
//! [`write`] stages to `<name>.tmp`, fsyncs, renames into place, and
//! fsyncs the directory — the SketchStore discipline — so a crash or an
//! ENOSPC at any point leaves either the complete new generation or no
//! trace of it (the previous generation keeps serving). The failpoints
//! `serve::snapshot_write`, `serve::snapshot_fsync`, and
//! `serve::snapshot_rename` sit immediately before the three syscalls that
//! can tear.
//!
//! ## Fallback
//!
//! [`load_latest`] walks generations newest-first and returns the first
//! snapshot that verifies end-to-end, listing every rejected newer file —
//! a flipped bit in generation `g` silently falls back to `g-1` (whose
//! covering WAL segments are retained by the lag-one retirement policy in
//! [`crate::Service`]), and a directory with no valid snapshot falls back
//! to cold store + full replay when the log still reaches generation 0.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use wmh_core::extensions::HistoSketchState;

use crate::wal::{
    encode_provenance, frame, injected, next_frame, sync_dir, Reader, WalError, WalProvenance,
};

/// File magic: identifies a wmh-serve snapshot, version 1.
pub const SNAP_MAGIC: [u8; 8] = *b"WMHSNAP1";

/// Live ids per kind-1 frame: keeps frames well under [`crate::wal::MAX_WAL_RECORD`].
const LIVE_CHUNK: usize = 2048;

/// The complete mutation mirror at one generation — everything recovery
/// needs beyond the cold store.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// WAL generation this snapshot subsumes: recovery restores this state
    /// and replays segments at generation `>= generation`.
    pub generation: u64,
    /// Every live id, ascending.
    pub live: Vec<u64>,
    /// `(id, codes)` for every id whose indexed sketch differs from the
    /// cold store (inserted after the store was built, or drifted by
    /// stream updates), ascending by id.
    pub overlays: Vec<(u64, Vec<u64>)>,
    /// Full streaming state per drifting id, ascending by id.
    pub streams: Vec<(u64, HistoSketchState)>,
}

/// A snapshot [`load_latest`] settled on.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The restored mirror.
    pub state: SnapshotState,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer snapshot files that failed verification, newest first —
    /// surfaced so callers can log the fallback and the scrubber can
    /// quarantine them.
    pub rejected: Vec<(PathBuf, String)>,
}

/// `snap-<generation:016x>.snap`.
#[must_use]
pub fn snapshot_file_name(gen: u64) -> String {
    format!("snap-{gen:016x}.snap")
}

fn parse_snapshot_gen(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Snapshot files present in `dir`, ascending by generation.
///
/// # Errors
/// [`WalError::Io`] when the directory cannot be read.
pub fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_snapshot_gen) {
            out.push((gen, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(gen, _)| gen);
    Ok(out)
}

/// Atomically write `state` as generation `state.generation` in `dir`:
/// stage to `<name>.tmp`, fsync, rename into place, fsync the directory.
/// On *any* failure — injected (`serve::snapshot_write`,
/// `serve::snapshot_fsync`, `serve::snapshot_rename`) or real, ENOSPC
/// included — the temp file is removed and the directory is exactly as
/// before: the previous generation keeps serving.
///
/// # Errors
/// [`WalError::Io`] on filesystem failure, [`WalError::TooLarge`] if a
/// single frame exceeds the record cap.
pub fn write(
    dir: &Path,
    provenance: &WalProvenance,
    state: &SnapshotState,
) -> Result<PathBuf, WalError> {
    let name = snapshot_file_name(state.generation);
    let path = dir.join(&name);
    let tmp = dir.join(format!("{name}.tmp"));
    let result = (|| -> Result<(), WalError> {
        let bytes = encode(provenance, state)?;
        let mut file = File::create(&tmp)?;
        injected(wmh_fault::point!("serve::snapshot_write"))?;
        file.write_all(&bytes)?;
        injected(wmh_fault::point!("serve::snapshot_fsync"))?;
        file.sync_all()?;
        drop(file);
        injected(wmh_fault::point!("serve::snapshot_rename"))?;
        std::fs::rename(&tmp, &path)?;
        sync_dir(dir)?;
        Ok(())
    })();
    match result {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Read and fully verify one snapshot file: magic, every frame CRC, the
/// provenance binding, header/footer count agreement, and id ordering.
///
/// # Errors
/// [`WalError::BadMagic`] / [`WalError::Corrupt`] /
/// [`WalError::ProvenanceMismatch`] on damage or a foreign snapshot,
/// [`WalError::Io`] when the file cannot be read.
pub fn read_file(path: &Path, provenance: &WalProvenance) -> Result<SnapshotState, WalError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes, provenance)
}

/// [`read_file`], discarding the state: the scrubber's cheap "is this
/// snapshot still whole?" check.
///
/// # Errors
/// As [`read_file`].
pub fn verify_file(path: &Path, provenance: &WalProvenance) -> Result<(), WalError> {
    read_file(path, provenance).map(drop)
}

/// What [`load_latest`] found: the newest verifying snapshot (if any) and
/// every rejected `(path, reason)` pair walked past while looking.
pub type LoadOutcome = (Option<LoadedSnapshot>, Vec<(PathBuf, String)>);

/// Load the newest snapshot in `dir` that verifies end-to-end, walking
/// generations newest-first. Returns `None` when the directory holds no
/// snapshot at all; a directory where *some* snapshots exist but all fail
/// verification returns `None` with the failures in mind — callers must
/// then check the WAL still reaches generation 0 before cold-replaying
/// (see [`crate::Service`]).
///
/// # Errors
/// [`WalError::ProvenanceMismatch`] the moment any snapshot names a
/// different store — that is a configuration error, not damage, and must
/// not be silently skipped. [`WalError::Io`] when the directory cannot be
/// read.
pub fn load_latest(dir: &Path, provenance: &WalProvenance) -> Result<LoadOutcome, WalError> {
    let mut rejected = Vec::new();
    for (_, path) in list(dir)?.into_iter().rev() {
        match read_file(&path, provenance) {
            Ok(state) => {
                return Ok((
                    Some(LoadedSnapshot { state, path, rejected: rejected.clone() }),
                    rejected,
                ))
            }
            Err(e @ WalError::ProvenanceMismatch { .. }) => return Err(e),
            Err(e) => rejected.push((path, e.to_string())),
        }
    }
    Ok((None, rejected))
}

/// Keep the newest `keep` snapshot files, deleting the rest. Returns how
/// many were removed. The service keeps two: the newest for recovery, the
/// one before it as the fallback a flipped bit in the newest falls back
/// to.
///
/// # Errors
/// [`WalError::Io`] on filesystem failure.
pub fn retain_latest(dir: &Path, keep: usize) -> Result<usize, WalError> {
    let files = list(dir)?;
    let excess = files.len().saturating_sub(keep);
    for (_, path) in &files[..excess] {
        std::fs::remove_file(path)?;
    }
    if excess > 0 {
        sync_dir(dir)?;
    }
    Ok(excess)
}

fn encode(provenance: &WalProvenance, state: &SnapshotState) -> Result<Vec<u8>, WalError> {
    let mut bytes = SNAP_MAGIC.to_vec();
    let mut header = vec![0u8];
    header.extend_from_slice(&state.generation.to_le_bytes());
    // Reuse the WAL provenance layout (seed, D, name) inside the header so
    // the two formats cannot drift apart.
    header.extend_from_slice(&encode_provenance(provenance)[1..]);
    header.extend_from_slice(&(state.live.len() as u64).to_le_bytes());
    header.extend_from_slice(&(state.overlays.len() as u64).to_le_bytes());
    header.extend_from_slice(&(state.streams.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&frame(&header)?);

    for chunk in state.live.chunks(LIVE_CHUNK) {
        let mut payload = vec![1u8];
        payload.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        for id in chunk {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        bytes.extend_from_slice(&frame(&payload)?);
    }
    for (id, codes) in &state.overlays {
        let mut payload = vec![2u8];
        payload.extend_from_slice(&id.to_le_bytes());
        payload.extend_from_slice(&(codes.len() as u32).to_le_bytes());
        for c in codes {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        bytes.extend_from_slice(&frame(&payload)?);
    }
    for (id, hs) in &state.streams {
        let mut payload = vec![3u8];
        payload.extend_from_slice(&id.to_le_bytes());
        payload.extend_from_slice(&(hs.weights.len() as u32).to_le_bytes());
        for (elem, w) in &hs.weights {
            payload.extend_from_slice(&elem.to_le_bytes());
            payload.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        payload.extend_from_slice(&(hs.slots.len() as u32).to_le_bytes());
        for slot in &hs.slots {
            match slot {
                None => {
                    payload.push(0);
                    payload.extend_from_slice(&0u64.to_le_bytes());
                    payload.extend_from_slice(&0u64.to_le_bytes());
                }
                Some((elem, value)) => {
                    payload.push(1);
                    payload.extend_from_slice(&elem.to_le_bytes());
                    payload.extend_from_slice(&value.to_bits().to_le_bytes());
                }
            }
        }
        bytes.extend_from_slice(&frame(&payload)?);
    }

    let mut footer = vec![255u8];
    footer.extend_from_slice(&(state.live.len() as u64).to_le_bytes());
    footer.extend_from_slice(&(state.overlays.len() as u64).to_le_bytes());
    footer.extend_from_slice(&(state.streams.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&frame(&footer)?);
    Ok(bytes)
}

fn decode(bytes: &[u8], provenance: &WalProvenance) -> Result<SnapshotState, WalError> {
    if bytes.len() < SNAP_MAGIC.len() || bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(WalError::BadMagic);
    }
    let mut at = SNAP_MAGIC.len();
    let head = next_frame(bytes, at)
        .ok_or_else(|| WalError::Corrupt("snapshot header missing or torn".into()))?;
    at = head.end;
    let mut r = Reader::new(head.payload);
    if r.u8()? != 0 {
        return Err(WalError::Corrupt("first frame is not a snapshot header".into()));
    }
    let generation = r.u64()?;
    // Provenance fields mirror the WAL layout (minus its kind byte).
    let seed = r.u64()?;
    let num_hashes = r.u32()? as usize;
    let name_len = r.u32()? as usize;
    let name = r.bytes(name_len)?;
    let algorithm = std::str::from_utf8(name)
        .map_err(|e| WalError::Corrupt(format!("algorithm name not UTF-8: {e}")))?
        .to_owned();
    let got = WalProvenance { algorithm, seed, num_hashes };
    if got != *provenance {
        return Err(WalError::ProvenanceMismatch {
            expected: (provenance.algorithm.clone(), provenance.seed, provenance.num_hashes),
            got: (got.algorithm, got.seed, got.num_hashes),
        });
    }
    let live_count = r.u64()? as usize;
    let overlay_count = r.u64()? as usize;
    let stream_count = r.u64()? as usize;
    r.finish()?;

    let mut state = SnapshotState {
        generation,
        live: Vec::with_capacity(live_count.min(1 << 20)),
        overlays: Vec::with_capacity(overlay_count.min(1 << 16)),
        streams: Vec::with_capacity(stream_count.min(1 << 16)),
    };
    let mut footer_seen = false;
    while let Some(f) = next_frame(bytes, at) {
        if footer_seen {
            return Err(WalError::Corrupt("frames after the snapshot footer".into()));
        }
        at = f.end;
        let mut r = Reader::new(f.payload);
        match r.u8()? {
            1 => {
                let n = r.u32()? as usize;
                for _ in 0..n {
                    state.live.push(r.u64()?);
                }
                r.finish()?;
            }
            2 => {
                let id = r.u64()?;
                let n = r.u32()? as usize;
                let mut codes = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    codes.push(r.u64()?);
                }
                r.finish()?;
                state.overlays.push((id, codes));
            }
            3 => {
                let id = r.u64()?;
                let support = r.u32()? as usize;
                let mut weights = Vec::with_capacity(support.min(1 << 20));
                for _ in 0..support {
                    let elem = r.u64()?;
                    weights.push((elem, f64::from_bits(r.u64()?)));
                }
                let slot_count = r.u32()? as usize;
                let mut slots = Vec::with_capacity(slot_count.min(1 << 16));
                for _ in 0..slot_count {
                    let tag = r.u8()?;
                    let elem = r.u64()?;
                    let value = f64::from_bits(r.u64()?);
                    slots.push(match tag {
                        0 => None,
                        1 => Some((elem, value)),
                        t => {
                            return Err(WalError::Corrupt(format!("unknown slot tag {t}")));
                        }
                    });
                }
                r.finish()?;
                state.streams.push((
                    id,
                    HistoSketchState {
                        seed: provenance.seed,
                        num_hashes: slot_count,
                        weights,
                        slots,
                    },
                ));
            }
            255 => {
                let live = r.u64()? as usize;
                let overlays = r.u64()? as usize;
                let streams = r.u64()? as usize;
                r.finish()?;
                if (live, overlays, streams)
                    != (state.live.len(), state.overlays.len(), state.streams.len())
                {
                    return Err(WalError::Corrupt(format!(
                        "footer counts ({live}/{overlays}/{streams}) disagree with frames \
                         ({}/{}/{})",
                        state.live.len(),
                        state.overlays.len(),
                        state.streams.len()
                    )));
                }
                footer_seen = true;
            }
            kind => return Err(WalError::Corrupt(format!("unknown snapshot frame kind {kind}"))),
        }
    }
    if at != bytes.len() {
        return Err(WalError::Corrupt(format!(
            "snapshot has {} bad trailing bytes",
            bytes.len() - at
        )));
    }
    if !footer_seen {
        return Err(WalError::Corrupt("snapshot footer missing — write was torn".into()));
    }
    if (state.live.len(), state.overlays.len(), state.streams.len())
        != (live_count, overlay_count, stream_count)
    {
        return Err(WalError::Corrupt("header counts disagree with frames".into()));
    }
    if !state.live.windows(2).all(|w| w[0] < w[1]) {
        return Err(WalError::Corrupt("live ids not strictly ascending".into()));
    }
    if !state.overlays.windows(2).all(|w| w[0].0 < w[1].0)
        || !state.streams.windows(2).all(|w| w[0].0 < w[1].0)
    {
        return Err(WalError::Corrupt("overlay/stream ids not strictly ascending".into()));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_check::scratch;
    use wmh_core::extensions::HistoSketch;

    fn provenance() -> WalProvenance {
        WalProvenance { algorithm: "ICWS".into(), seed: 9, num_hashes: 8 }
    }

    fn sample(gen: u64) -> SnapshotState {
        let mut hs = HistoSketch::new(9, 8).expect("histosketch");
        hs.decay(0.5).expect("decay");
        hs.add(3, 1.5).expect("add");
        hs.add(17, 0.25).expect("add");
        SnapshotState {
            generation: gen,
            live: vec![1, 5, 9, 1_000 + gen],
            overlays: vec![(5, vec![10, 20, 30]), (9, vec![7; 8])],
            streams: vec![(9, hs.state())],
        }
    }

    #[test]
    fn round_trip_is_bit_exact_and_newest_valid_wins() {
        let d = scratch("snap-roundtrip");
        let p = provenance();
        write(&d, &p, &sample(1)).expect("write gen 1");
        write(&d, &p, &sample(4)).expect("write gen 4");
        let state = read_file(&d.join(snapshot_file_name(4)), &p).expect("read");
        assert_eq!(state, sample(4));
        // The stream state reconstructs a working sketch.
        let hs = HistoSketch::from_state(&state.streams[0].1).expect("from_state");
        assert_eq!(hs.state(), sample(4).streams[0].1);
        let (loaded, rejected) = load_latest(&d, &p).expect("load");
        assert_eq!(loaded.expect("some").state.generation, 4);
        assert!(rejected.is_empty());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_newest_falls_back_one_generation() {
        let d = scratch("snap-fallback");
        let p = provenance();
        write(&d, &p, &sample(2)).expect("write gen 2");
        let newest = write(&d, &p, &sample(3)).expect("write gen 3");
        let mut bytes = std::fs::read(&newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).expect("flip");
        assert!(verify_file(&newest, &p).is_err(), "flip detected");
        let (loaded, rejected) = load_latest(&d, &p).expect("load");
        let loaded = loaded.expect("fallback generation");
        assert_eq!(loaded.state, sample(2), "previous generation restored bit-exactly");
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, newest);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn truncated_snapshot_is_rejected_by_the_footer() {
        let d = scratch("snap-torn");
        let p = provenance();
        let path = write(&d, &p, &sample(1)).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        // Drop the footer frame's last byte: every remaining frame still
        // passes its CRC, but the completeness marker is gone.
        std::fs::write(&path, &bytes[..bytes.len() - 1]).expect("truncate");
        match read_file(&path, &p) {
            Err(WalError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn provenance_mismatch_is_a_hard_error_not_a_skip() {
        let d = scratch("snap-prov");
        write(&d, &provenance(), &sample(1)).expect("write");
        let other = WalProvenance { algorithm: "ICWS".into(), seed: 10, num_hashes: 8 };
        match load_latest(&d, &other) {
            Err(WalError::ProvenanceMismatch { .. }) => {}
            other => panic!("expected provenance mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn failed_write_leaves_no_trace() {
        let d = scratch("snap-enospc");
        let p = provenance();
        write(&d, &p, &sample(1)).expect("write gen 1");
        for point in ["serve::snapshot_write", "serve::snapshot_fsync", "serve::snapshot_rename"] {
            let guard = wmh_fault::scenario(&format!("{point}=always"), 0xC1A05).expect("scenario");
            let err = write(&d, &p, &sample(2)).expect_err("injected failure");
            assert!(matches!(err, WalError::Io(_)), "{err}");
            drop(guard);
            let names: Vec<String> = std::fs::read_dir(&d)
                .expect("ls")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            assert!(
                !names.iter().any(|n| n.ends_with(".tmp")),
                "temp file swept after {point}: {names:?}"
            );
            assert!(
                !names.iter().any(|n| *n == snapshot_file_name(2)),
                "failed generation must not appear after {point}"
            );
        }
        // The previous generation is untouched and still loads.
        let (loaded, _) = load_latest(&d, &p).expect("load");
        assert_eq!(loaded.expect("some").state, sample(1));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn retain_latest_keeps_the_newest_two() {
        let d = scratch("snap-retain");
        let p = provenance();
        for gen in 1..=5 {
            write(&d, &p, &sample(gen)).expect("write");
        }
        assert_eq!(retain_latest(&d, 2).expect("retain"), 3);
        let gens: Vec<u64> = list(&d).expect("list").into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, vec![4, 5]);
        let _ = std::fs::remove_dir_all(&d);
    }
}
