//! # `ferry-storage` — the durability substrate
//!
//! Ferry treats the database as the coprocessor that holds authoritative
//! data; this crate is what makes that data survive the process. It sits
//! *below* `ferry-engine` (which calls in from its catalog mutation API)
//! and knows nothing about plans or queries — only about the algebra's
//! data model (`Value`/`Row`/`Schema`) and bytes on disk:
//!
//! * [`codec`] — versioned binary encoding of the data model;
//! * [`frame`] — length-prefixed, CRC-32-checksummed frames, the unit of
//!   torn-write detection;
//! * [`wal`] — the append-only log of committed catalog mutations, one
//!   frame per commit, with monotone LSNs; a commit is acked only once a
//!   group fsync covers it;
//! * [`fs`] — the VFS the above are written against: [`fs::StdFs`] for
//!   real directories and [`fs::FaultFs`], an in-memory file system with
//!   crash semantics and scriptable fault injection (torn writes, bit
//!   flips, short/failed fsyncs) that the recovery test suite drives;
//! * [`Storage`] — the store: one directory of three files (`meta`,
//!   `snapshot`, `log`) in one layout, written by one code path and read
//!   by one; a commit is one frame in one file, and the frame's LSN is the
//!   commit's GSN. `open` = load the snapshot ⊕ replay the log,
//!   `log_commit` = append before ack, `checkpoint` = snapshot + truncate
//!   the log. A directory this build did not write is refused before a
//!   byte is written.
//!
//! Recovery correctness is *proven by fault injection rather than
//! asserted*: for arbitrary transaction sequences crashed at arbitrary
//! points, `open` either restores a prefix-consistent state or fails
//! with a typed [`StorageError`] — never a panic, never a divergent
//! table (see `tests/faults.rs`).

pub mod codec;
pub mod frame;
pub mod fs;
pub mod store;
pub mod wal;

pub use fs::{Fault, FaultFs, StdFs, Vfs};
pub use store::{
    row_shape_error, Recovered, RecoveryReport, Storage, TableDef, TableImage, COMMIT_LOG,
    META_FILE, SNAPSHOT_FILE,
};
pub use wal::WalRecord;

use std::fmt;

/// Anything that can go wrong persisting or recovering the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operating-system I/O failure (message carries the errno text).
    Io(String),
    /// A record that passed its checksum failed to decode — writer and
    /// reader disagree about the format.
    Codec(String),
    /// The durable state is internally inconsistent: damaged frames that
    /// are not a torn tail, bad magic, non-monotone LSNs, replay against
    /// a missing table. Recovery refuses to guess.
    Corrupt(String),
    /// The directory is not a store this build wrote: its `meta` starts
    /// with other bytes than this build's magic, or it has no `meta` but
    /// holds files. The message names what was found; nothing was
    /// written.
    Unsupported(String),
    /// A fault injected by [`fs::FaultFs`] — only ever seen by tests,
    /// where it marks the simulated crash point.
    Injected(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "storage I/O error: {m}"),
            StorageError::Codec(m) => write!(f, "storage codec error: {m}"),
            StorageError::Corrupt(m) => write!(f, "storage corruption: {m}"),
            StorageError::Unsupported(m) => write!(f, "unsupported storage directory: {m}"),
            StorageError::Injected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// When WAL appends become durable. `Always` is the one contract: a
/// commit is acked only once an fsync covers it, and concurrent
/// committers share that fsync through group commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync before every ack (shared by concurrent committers through
    /// group commit): an acked commit survives any crash.
    #[default]
    Always,
}

/// Durability knobs passed to `Database::open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityConfig {
    pub fsync: FsyncPolicy,
    /// Checkpoint (snapshot + truncate the log) automatically once it
    /// holds this many records. `None` = only explicit checkpoints.
    pub checkpoint_every: Option<u64>,
}

impl DurabilityConfig {
    pub fn with_fsync(fsync: FsyncPolicy) -> DurabilityConfig {
        DurabilityConfig {
            fsync,
            ..DurabilityConfig::default()
        }
    }
}
