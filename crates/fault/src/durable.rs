//! Durable files: the one module that decides how bytes reach disk for the
//! `SketchStore`, `wmh-serve`'s WAL segments and snapshots, the sweep
//! checkpoints and the result files.
//!
//! * [`publish`] replaces a file atomically: stage to `<name>.tmp`, write,
//!   `sync_all`, rename, sync the directory. A failure before the rename
//!   removes the temp file and leaves the target as it was.
//! * [`AppendFile`] is an append-only log. Each append is write +
//!   `sync_data`; a failed one is rewound to the last good length, and a
//!   failed rewind *poisons* the handle: the tail is unknown, so nothing
//!   more may land after it.
//! * [`quarantine`] renames a damaged file to `<name>.bad`.
//!
//! [`sync_dir`] is the one directory fsync. Callers name their own
//! failpoints ([`Points`]); an injected fault is an [`io::Error`] naming
//! its point, like a real failure.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Failpoint names, each hit just before its step; `None` leaves the step
/// uninstrumented.
#[derive(Debug, Clone, Copy, Default)]
pub struct Points {
    /// Before the bytes are written.
    pub write: Option<&'static str>,
    /// Half the bytes land: a publish still reports success (a lying
    /// fsync), an append fails.
    pub torn: Option<&'static str>,
    /// Before the file sync.
    pub fsync: Option<&'static str>,
    /// Before a publish's rename.
    pub rename: Option<&'static str>,
    /// Before the directory sync of a publish or a create.
    pub sync_dir: Option<&'static str>,
    /// Before a failed append's rewind: firing poisons the handle.
    pub rewind: Option<&'static str>,
}

fn hit(point: Option<&'static str>) -> io::Result<()> {
    point.map_or(Ok(()), |name| crate::hit(name, None).map_err(io::Error::other))
}

/// The directory holding `path`; an empty parent is the current directory.
#[must_use]
pub fn parent_dir(path: &Path) -> &Path {
    path.parent().filter(|dir| !dir.as_os_str().is_empty()).unwrap_or(Path::new("."))
}

/// `path` with `suffix` appended to its file name (`a/b` → `a/b.tmp`).
fn suffixed(path: &Path, suffix: &str) -> io::Result<PathBuf> {
    let mut name =
        path.file_name().ok_or_else(|| io::Error::other("path has no file name"))?.to_os_string();
    name.push(suffix);
    Ok(path.with_file_name(name))
}

/// Fsync a directory so the creates, renames and removes in it are durable.
///
/// # Errors
/// When the directory cannot be opened or synced.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Atomically replace `path` with `bytes` (see the module docs).
///
/// # Errors
/// Any filesystem failure or firing point. A failed directory sync comes
/// after the rename: the new contents are then in place but not known
/// durable.
pub fn publish(path: &Path, bytes: &[u8], points: Points) -> io::Result<()> {
    let tmp = suffixed(path, ".tmp")?;
    let result = (|| {
        let mut file = File::create(&tmp)?;
        hit(points.write)?;
        let torn = hit(points.torn).is_err();
        file.write_all(if torn { &bytes[..bytes.len() / 2] } else { bytes })?;
        hit(points.fsync)?;
        file.sync_all()?;
        drop(file);
        hit(points.rename)?;
        std::fs::rename(&tmp, path)?;
        hit(points.sync_dir)?;
        sync_dir(parent_dir(path))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Rename a damaged file to `<name>.bad`, then sync its directory.
///
/// # Errors
/// When the rename or the directory sync fails.
pub fn quarantine(path: &Path) -> io::Result<()> {
    std::fs::rename(path, suffixed(path, ".bad")?)?;
    sync_dir(parent_dir(path))
}

/// An append-only file and its valid length (see the module docs).
#[derive(Debug)]
pub struct AppendFile {
    file: File,
    /// Bytes known whole and synced: where a failed append rewinds to.
    len: u64,
    poisoned: bool,
    points: Points,
}

impl AppendFile {
    /// Open an existing file whose first `valid_len` bytes the caller has
    /// verified: cut the rest, seek to the end, and sync if anything was cut.
    ///
    /// # Errors
    /// When the file cannot be opened, truncated or synced.
    pub fn open(path: &Path, valid_len: u64, points: Points) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let cut = file.metadata()?.len() > valid_len;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        if cut {
            file.sync_data()?;
        }
        Ok(Self { file, len: valid_len, poisoned: false, points })
    }

    /// Create (or truncate) `path` holding `header`: write it, `sync_data`,
    /// sync the directory. A failure after the open removes the file.
    ///
    /// # Errors
    /// Any filesystem failure or firing `sync_dir` point.
    pub fn create(path: &Path, header: &[u8], points: Points) -> io::Result<Self> {
        let mut file =
            OpenOptions::new().create(true).truncate(true).read(true).write(true).open(path)?;
        let written = file
            .write_all(header)
            .and_then(|()| file.sync_data())
            .and_then(|()| hit(points.sync_dir))
            .and_then(|()| sync_dir(parent_dir(path)));
        if let Err(e) = written {
            let _ = std::fs::remove_file(path);
            return Err(e);
        }
        Ok(Self { file, len: header.len() as u64, poisoned: false, points })
    }

    /// Durably append `bytes`, rewinding on failure (see the module docs).
    ///
    /// # Errors
    /// The failed step or firing point; every call once poisoned.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other("poisoned: a failed append could not be rewound"));
        }
        if let Err(e) = self.write_synced(bytes) {
            let rewound = hit(self.points.rewind)
                .and_then(|()| self.file.set_len(self.len))
                .and_then(|()| self.file.seek(SeekFrom::Start(self.len)));
            self.poisoned = rewound.is_err();
            return Err(e);
        }
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn write_synced(&mut self, bytes: &[u8]) -> io::Result<()> {
        hit(self.points.write)?;
        if let Err(e) = hit(self.points.torn) {
            let _ = self.file.write_all(&bytes[..bytes.len() / 2]);
            return Err(e);
        }
        self.file.write_all(bytes)?;
        hit(self.points.fsync)?;
        self.file.sync_data()
    }

    /// Bytes known whole and synced.
    #[must_use]
    pub fn valid_len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POINTS: Points = Points {
        write: Some("durable::write"),
        torn: Some("durable::torn"),
        fsync: Some("durable::fsync"),
        rename: Some("durable::rename"),
        sync_dir: Some("durable::sync_dir"),
        rewind: Some("durable::rewind"),
    };

    /// A fresh directory for one test (this crate sits below `wmh-check`).
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmh-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn an_empty_parent_is_the_current_directory() {
        assert_eq!(parent_dir(Path::new("corpus.wmhs")), Path::new("."));
        assert_eq!(parent_dir(Path::new("results/a.json")), Path::new("results"));
        assert_eq!(parent_dir(Path::new("/")), Path::new("."));
        sync_dir(parent_dir(Path::new("corpus.wmhs"))).expect("syncs the current directory");
    }

    #[test]
    fn temp_and_quarantine_names_append_to_the_file_name() {
        assert_eq!(suffixed(Path::new("a/b.json"), ".tmp").unwrap(), Path::new("a/b.json.tmp"));
        assert!(suffixed(Path::new("/"), ".tmp").is_err());
        let dir = scratch("quarantine");
        let seg = dir.join("wal-0.seg");
        std::fs::write(&seg, b"damaged").unwrap();
        quarantine(&seg).unwrap();
        assert!(!seg.exists());
        assert_eq!(std::fs::read(dir.join("wal-0.seg.bad")).unwrap(), b"damaged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_replaces_the_target_and_leaves_no_temp_file() {
        let dir = scratch("publish");
        let path = dir.join("r.json");
        publish(&path, b"old", Points::default()).unwrap();
        publish(&path, b"new", Points::default()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!dir.join("r.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_cuts_the_torn_tail_and_appends_after_the_valid_prefix() {
        let dir = scratch("open");
        let path = dir.join("log");
        let mut log = AppendFile::create(&path, b"head\n", POINTS).unwrap();
        log.append(b"one\n").unwrap();
        assert_eq!(log.valid_len(), 9);
        drop(log);
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(b"tw");
        std::fs::write(&path, &torn).unwrap();
        let mut log = AppendFile::open(&path, 9, POINTS).unwrap();
        log.append(b"two\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"head\none\ntwo\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn a_failed_append_rewinds_and_a_failed_rewind_poisons() {
        let dir = scratch("poison");
        let path = dir.join("log");
        let mut log = AppendFile::create(&path, b"h", POINTS).unwrap();
        {
            let g = crate::scenario("durable::torn=once", 1).unwrap();
            assert!(log.append(b"abcd").unwrap_err().to_string().contains("durable::torn"));
            assert_eq!(g.hits("durable::rewind"), 1);
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"h", "the torn half was rewound");
        log.append(b"ok").unwrap();
        {
            let g = crate::scenario("durable::torn=once;durable::rewind=once", 1).unwrap();
            assert!(log.append(b"abcd").is_err());
            assert_eq!(g.fired("durable::rewind"), 1);
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hokab", "the torn half stays");
        let err = log.append(b"more").unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"hokab", "nothing lands after unknown bytes");
        assert_eq!(log.valid_len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn a_failed_publish_keeps_the_target_and_removes_the_temp_file() {
        let dir = scratch("publish-fail");
        let path = dir.join("r.json");
        publish(&path, b"old", POINTS).unwrap();
        for point in ["durable::write", "durable::fsync", "durable::rename"] {
            let _g = crate::scenario(&format!("{point}=once"), 1).unwrap();
            let err = publish(&path, b"new", POINTS).unwrap_err();
            assert!(err.to_string().contains(point), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), b"old");
            assert!(!dir.join("r.json.tmp").exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn a_failed_create_leaves_no_file() {
        let dir = scratch("create-fail");
        let path = dir.join("log");
        let _g = crate::scenario("durable::sync_dir=once", 1).unwrap();
        let err = AppendFile::create(&path, b"h", POINTS).unwrap_err();
        assert!(err.to_string().contains("durable::sync_dir"), "{err}");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
