//! The storage VFS: a minimal file-system surface the WAL and snapshot
//! layers are written against, with two implementations:
//!
//! * [`StdFs`] — real files under a root directory (what
//!   `Database::open` uses);
//! * [`FaultFs`] — an in-memory file system with *crash semantics*
//!   (volatile vs durable bytes, advanced by `fsync`) and scriptable
//!   fault injection: torn writes at a chosen byte offset, bit flips at
//!   chosen offsets, short and failed fsyncs. The recovery test harness
//!   runs whole workloads against it, "crashes" the machine, and reopens.
//!
//! The trait is deliberately tiny — append, read, truncate, atomic
//! replace, list — because that is all a WAL + snapshot design needs, and
//! every operation has well-defined crash behaviour.

use crate::StorageError;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn io_err(path: &str, op: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{op} {path}: {e}"))
}

/// The file operations durable storage is built from. Paths are plain
/// relative names (`"log"`, `"snapshot"`); implementations anchor them.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Full contents of `path`, or `None` if it does not exist.
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>, StorageError>;
    /// Append `data` at the end of `path`, creating it if absent.
    fn append(&self, path: &str, data: &[u8]) -> Result<(), StorageError>;
    /// Make everything written to `path` so far durable.
    fn sync(&self, path: &str) -> Result<(), StorageError>;
    /// Cut `path` down to `len` bytes (used to repair torn tails).
    fn truncate(&self, path: &str, len: u64) -> Result<(), StorageError>;
    /// Atomically replace the contents of `path` with `data` (write a
    /// sidecar, fsync, rename). After a crash the file holds either the
    /// old contents or the new — never a mixture.
    fn replace(&self, path: &str, data: &[u8]) -> Result<(), StorageError>;
    /// The names of the files this VFS holds, sorted. A `replace` sidecar
    /// is not an installed file and is left out.
    fn list(&self) -> Result<Vec<String>, StorageError>;
}

// ----------------------------------------------------------------- StdFs

/// The suffix of the sidecar [`StdFs::replace`] writes before its rename.
const SIDECAR: &str = ".tmp";

/// Real files under a root directory.
#[derive(Debug)]
pub struct StdFs {
    root: PathBuf,
    /// One open append handle per appended path, which `sync` also uses:
    /// a commit costs a write and an fsync, no stat and no open. A
    /// `truncate` or `replace` of the path drops its handle.
    handles: Mutex<HashMap<String, Arc<File>>>,
}

impl StdFs {
    /// Anchor a VFS at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<StdFs, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err(&root.display().to_string(), "create dir", e))?;
        Ok(StdFs {
            root,
            handles: Mutex::default(),
        })
    }

    fn handles(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<File>>> {
        // a panic while the map was held leaves it valid: each update is
        // one insert or remove
        self.handles.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The open append handle of `path`, opening (and creating) it on
    /// first use; `true` when this call created the file.
    fn append_handle(&self, path: &str) -> Result<(Arc<File>, bool), StorageError> {
        let mut handles = self.handles();
        if let Some(f) = handles.get(path) {
            return Ok((f.clone(), false));
        }
        let full = self.path(path);
        let created = !full.exists();
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&full)
            .map_err(|e| io_err(path, "open", e))?;
        let f = Arc::new(f);
        handles.insert(path.to_string(), f.clone());
        Ok((f, created))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// fsync the root directory itself. Metadata operations — creating a
    /// file, renaming over one — are durable only once the *directory* is
    /// synced; without this a crash can lose a whole file whose contents
    /// were individually fsynced.
    fn sync_root(&self) -> Result<(), StorageError> {
        std::fs::File::open(&self.root)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err(&self.root.display().to_string(), "fsync dir", e))
    }
}

impl Vfs for StdFs {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(self.path(path)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(path, "read", e)),
        }
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        let (f, created) = self.append_handle(path)?;
        (&*f)
            .write_all(data)
            .map_err(|e| io_err(path, "append", e))?;
        if created {
            // the new directory entry must be durable before any fsync of
            // the file's own contents means anything
            self.sync_root()?;
        }
        Ok(())
    }

    fn sync(&self, path: &str) -> Result<(), StorageError> {
        // the handle leaves the lock first: an fsync never holds up an
        // append to another file
        let open = self.handles().get(path).cloned();
        match open {
            Some(f) => f.sync_all(),
            None => File::open(self.path(path)).and_then(|f| f.sync_all()),
        }
        .map_err(|e| io_err(path, "fsync", e))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), StorageError> {
        self.handles().remove(path);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(path))
            .map_err(|e| io_err(path, "open", e))?;
        f.set_len(len).map_err(|e| io_err(path, "truncate", e))?;
        f.sync_all().map_err(|e| io_err(path, "fsync", e))
    }

    fn replace(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        // the rename below puts a new file under `path`
        self.handles().remove(path);
        let tmp = self.path(&format!("{path}{SIDECAR}"));
        {
            let mut f =
                std::fs::File::create(&tmp).map_err(|e| io_err(path, "create sidecar", e))?;
            f.write_all(data)
                .and_then(|()| f.sync_all())
                .map_err(|e| io_err(path, "write sidecar", e))?;
        }
        std::fs::rename(&tmp, self.path(path)).map_err(|e| io_err(path, "rename", e))?;
        // fsync the directory so the rename itself is durable
        self.sync_root()
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let err = |e| io_err(&self.root.display().to_string(), "list", e);
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(err)? {
            let name = entry
                .map_err(err)?
                .file_name()
                .to_string_lossy()
                .into_owned();
            if !name.ends_with(SIDECAR) {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------- FaultFs

/// A scripted fault. Offsets count *appended bytes over the file's
/// lifetime*, so a fault point chosen from one run replays exactly in the
/// next — the harness enumerates crash points deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The append that reaches byte offset `at` of `path` persists only
    /// up to `at` and fails — a crash mid-write. Every later write to any
    /// file also fails (the machine is down).
    TornAppend { path: String, at: u64 },
    /// Flip bit `bit` of the byte at `offset` in `path`'s durable image
    /// when the crash happens — latent media corruption surfacing on
    /// reboot.
    BitFlip { path: String, offset: u64, bit: u8 },
    /// The next `sync` of `path` reports success but makes only half of
    /// the pending bytes durable — a lying disk cache.
    ShortFsync { path: String },
    /// The next `sync` of `path` fails with an I/O error (and makes
    /// nothing durable).
    FailFsync { path: String },
}

#[derive(Debug, Default, Clone)]
struct FaultFile {
    data: Vec<u8>,
    durable_len: usize,
}

#[derive(Debug, Default)]
struct FaultState {
    files: HashMap<String, FaultFile>,
    faults: Vec<Fault>,
    halted: bool,
    syncs: u64,
    injected: u64,
    /// Simulated device latency per `sync` (see [`FaultFs::set_sync_delay`]).
    sync_delay: std::time::Duration,
}

/// In-memory VFS with crash semantics and fault injection (see the
/// module docs). `crash()` drops every byte not made durable by `sync`,
/// then applies pending bit flips; the same `FaultFs` is then reopened by
/// the recovery path as if the process restarted.
#[derive(Debug, Default)]
pub struct FaultFs {
    state: Mutex<FaultState>,
}

impl FaultFs {
    pub fn new() -> FaultFs {
        FaultFs::default()
    }

    /// Arm a fault. Faults are one-shot: once triggered they are removed.
    pub fn inject(&self, fault: Fault) {
        self.state.lock().unwrap().faults.push(fault);
    }

    /// How many faults have fired so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().unwrap().injected
    }

    /// Number of successful `sync` calls (the `storage.fsyncs` oracle).
    pub fn syncs(&self) -> u64 {
        self.state.lock().unwrap().syncs
    }

    /// Make every `sync` block for `delay` before taking effect — a
    /// stand-in for real device latency, so group-commit tests get the
    /// overlap window a physical fsync would give concurrent appenders.
    /// The sleep happens *outside* the state lock: appends proceed during
    /// the simulated fsync, exactly as page-cache writes do on a real OS.
    pub fn set_sync_delay(&self, delay: std::time::Duration) {
        self.state.lock().unwrap().sync_delay = delay;
    }

    /// Total bytes ever appended to `path` (durable or not).
    pub fn written_len(&self, path: &str) -> u64 {
        let st = self.state.lock().unwrap();
        st.files.get(path).map_or(0, |f| f.data.len() as u64)
    }

    /// Bytes of `path` that would survive a crash right now.
    pub fn durable_len(&self, path: &str) -> u64 {
        let st = self.state.lock().unwrap();
        st.files.get(path).map_or(0, |f| f.durable_len as u64)
    }

    /// Power-cycle: lose all volatile bytes, apply pending bit flips,
    /// clear the halt so the "rebooted machine" can do I/O again.
    pub fn crash(&self) {
        let mut st = self.state.lock().unwrap();
        for f in st.files.values_mut() {
            let durable = f.durable_len;
            f.data.truncate(durable);
        }
        let flips: Vec<Fault> = st
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::BitFlip { .. }))
            .cloned()
            .collect();
        st.faults.retain(|f| !matches!(f, Fault::BitFlip { .. }));
        for flip in flips {
            if let Fault::BitFlip { path, offset, bit } = flip {
                if let Some(f) = st.files.get_mut(&path) {
                    if let Some(b) = f.data.get_mut(offset as usize) {
                        *b ^= 1 << (bit & 7);
                        st.injected += 1;
                    }
                }
            }
        }
        st.halted = false;
    }

    fn take_fault(st: &mut FaultState, pick: impl Fn(&Fault) -> bool) -> Option<Fault> {
        let idx = st.faults.iter().position(pick)?;
        st.injected += 1;
        Some(st.faults.remove(idx))
    }
}

impl Vfs for FaultFs {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>, StorageError> {
        let st = self.state.lock().unwrap();
        Ok(st.files.get(path).map(|f| f.data.clone()))
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.state.lock().unwrap();
        if st.halted {
            return Err(StorageError::Injected("write after crash point".into()));
        }
        let start = st.files.get(path).map_or(0, |f| f.data.len() as u64);
        let end = start + data.len() as u64;
        let torn = Self::take_fault(
            &mut st,
            |f| matches!(f, Fault::TornAppend { path: p, at } if p == path && *at >= start && *at < end),
        );
        let file = st.files.entry(path.to_string()).or_default();
        if let Some(Fault::TornAppend { at, .. }) = torn {
            let keep = (at - start) as usize;
            file.data.extend_from_slice(&data[..keep]);
            // a torn write is a crash mid-append: the bytes that made it
            // to the device surface after reboot whether synced or not
            let total = file.data.len();
            file.durable_len = file.durable_len.max(total);
            st.halted = true;
            return Err(StorageError::Injected(format!(
                "torn append to {path} at byte {at}"
            )));
        }
        file.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &str) -> Result<(), StorageError> {
        let delay = self.state.lock().unwrap().sync_delay;
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let mut st = self.state.lock().unwrap();
        if st.halted {
            return Err(StorageError::Injected("fsync after crash point".into()));
        }
        if Self::take_fault(
            &mut st,
            |f| matches!(f, Fault::FailFsync { path: p } if p == path),
        )
        .is_some()
        {
            return Err(StorageError::Io(format!(
                "injected fsync failure on {path}"
            )));
        }
        let short = Self::take_fault(
            &mut st,
            |f| matches!(f, Fault::ShortFsync { path: p } if p == path),
        )
        .is_some();
        st.syncs += 1;
        if let Some(f) = st.files.get_mut(path) {
            if short {
                // persist only half of the pending bytes, report success
                f.durable_len += (f.data.len() - f.durable_len) / 2;
            } else {
                f.durable_len = f.data.len();
            }
        }
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), StorageError> {
        let mut st = self.state.lock().unwrap();
        if st.halted {
            return Err(StorageError::Injected("truncate after crash point".into()));
        }
        if let Some(f) = st.files.get_mut(path) {
            f.data.truncate(len as usize);
            f.durable_len = f.durable_len.min(len as usize);
        }
        Ok(())
    }

    fn replace(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.state.lock().unwrap();
        if st.halted {
            return Err(StorageError::Injected("replace after crash point".into()));
        }
        // a rename-based replace is atomic: it either fully happens
        // (durable immediately) or, if the crash hits first, not at all —
        // modelled by the torn fault halting the machine instead
        let torn = Self::take_fault(
            &mut st,
            |f| matches!(f, Fault::TornAppend { path: p, .. } if p == path),
        );
        if torn.is_some() {
            st.halted = true;
            return Err(StorageError::Injected(format!(
                "crash during atomic replace of {path}"
            )));
        }
        let file = st.files.entry(path.to_string()).or_default();
        file.data = data.to_vec();
        file.durable_len = data.len();
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let st = self.state.lock().unwrap();
        let mut names: Vec<String> = st.files.keys().cloned().collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_bytes_die_in_a_crash() {
        let fs = FaultFs::new();
        fs.append("wal", b"durable").unwrap();
        fs.sync("wal").unwrap();
        fs.append("wal", b" volatile").unwrap();
        fs.crash();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"durable");
        // the rebooted machine can write again
        fs.append("wal", b"+more").unwrap();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"durable+more");
    }

    #[test]
    fn torn_append_keeps_a_prefix_and_halts() {
        let fs = FaultFs::new();
        fs.append("wal", b"0123").unwrap();
        fs.sync("wal").unwrap();
        fs.inject(Fault::TornAppend {
            path: "wal".into(),
            at: 6,
        });
        let err = fs.append("wal", b"abcdef").unwrap_err();
        assert!(matches!(err, StorageError::Injected(_)));
        // further I/O fails until the crash is acknowledged
        assert!(fs.append("wal", b"x").is_err());
        assert!(fs.sync("wal").is_err());
        fs.crash();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"0123ab");
    }

    #[test]
    fn short_fsync_persists_half() {
        let fs = FaultFs::new();
        fs.inject(Fault::ShortFsync { path: "wal".into() });
        fs.append("wal", b"0123456789").unwrap();
        fs.sync("wal").unwrap(); // lies
        fs.crash();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"01234");
        assert_eq!(fs.syncs(), 1);
    }

    #[test]
    fn bit_flip_applies_at_crash() {
        let fs = FaultFs::new();
        fs.append("wal", b"\x00\x00").unwrap();
        fs.sync("wal").unwrap();
        fs.inject(Fault::BitFlip {
            path: "wal".into(),
            offset: 1,
            bit: 3,
        });
        fs.crash();
        assert_eq!(fs.read("wal").unwrap().unwrap(), vec![0x00, 0x08]);
        assert_eq!(fs.injected(), 1);
    }

    #[test]
    fn replace_is_atomic_under_crash() {
        let fs = FaultFs::new();
        fs.replace("snapshot", b"old").unwrap();
        fs.inject(Fault::TornAppend {
            path: "snapshot".into(),
            at: 0,
        });
        assert!(fs.replace("snapshot", b"new-but-crashed").is_err());
        fs.crash();
        assert_eq!(fs.read("snapshot").unwrap().unwrap(), b"old");
        fs.replace("snapshot", b"new").unwrap();
        fs.crash();
        assert_eq!(fs.read("snapshot").unwrap().unwrap(), b"new");
    }

    #[test]
    fn failed_fsync_persists_nothing() {
        let fs = FaultFs::new();
        fs.append("wal", b"abc").unwrap();
        fs.inject(Fault::FailFsync { path: "wal".into() });
        assert!(fs.sync("wal").is_err());
        fs.crash();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"");
    }

    #[test]
    fn std_fs_roundtrip() {
        let root =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/stdfs_rt");
        let _ = std::fs::remove_dir_all(&root);
        let fs = StdFs::new(&root).unwrap();
        assert_eq!(fs.read("wal").unwrap(), None);
        assert!(fs.list().unwrap().is_empty());
        fs.append("wal", b"hello ").unwrap();
        fs.append("wal", b"world").unwrap();
        fs.sync("wal").unwrap();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"hello world");
        fs.truncate("wal", 5).unwrap();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"hello");
        fs.replace("snapshot", b"snap").unwrap();
        assert_eq!(fs.read("snapshot").unwrap().unwrap(), b"snap");
        // a sidecar a crash left behind is not an installed file
        std::fs::write(root.join("meta.tmp"), b"half").unwrap();
        assert_eq!(fs.list().unwrap(), ["snapshot", "wal"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn std_fs_appends_through_one_handle_until_a_truncate_or_replace() {
        let root =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/stdfs_handle");
        let _ = std::fs::remove_dir_all(&root);
        let fs = StdFs::new(&root).unwrap();
        fs.append("log", b"abc").unwrap();
        fs.sync("log").unwrap();
        fs.append("log", b"def").unwrap();
        fs.sync("log").unwrap();
        fs.truncate("log", 4).unwrap();
        fs.append("log", b"XY").unwrap();
        fs.sync("log").unwrap();
        // a replace puts a new file under the name; later appends go to it
        fs.append("meta", b"old").unwrap();
        fs.replace("meta", b"new").unwrap();
        fs.append("meta", b"+1").unwrap();
        fs.sync("meta").unwrap();
        drop(fs);
        let reopened = StdFs::new(&root).unwrap();
        assert_eq!(reopened.read("log").unwrap().unwrap(), b"abcdXY");
        assert_eq!(reopened.read("meta").unwrap().unwrap(), b"new+1");
        let _ = std::fs::remove_dir_all(&root);
    }
}
