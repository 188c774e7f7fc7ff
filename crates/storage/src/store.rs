//! The store: one snapshot per shard and a commit log — plus, when the
//! shard count `S` is at least 2, one WAL per shard — group-committed
//! under one GSN (group sequence number) sequence.
//!
//! A storage directory holds, for a shard count `S` (1..=64):
//!
//! * [`SHARD_META_FILE`] — replace-installed metadata: `S`, the
//!   checkpoint watermark GSN, and every table's definition (schema,
//!   keys, optional shard key, row count at the watermark);
//! * [`COMMIT_LOG`] — a [`Wal`](crate::wal::Wal) of *commit frames*:
//!   each commit is one CRC-atomic frame carrying its DDL records, at
//!   `S = 1` its rows, and a trailing [`WalRecord::ShardCommit`] marker
//!   `{gsn, mask}`;
//! * `wal-{k}` (`S ≥ 2` only) — shard `k`'s WAL of
//!   [`WalRecord::ShardRows`] frames (at most one frame per shard per
//!   commit, so a frame's CRC makes the shard's slice of the commit
//!   all-or-nothing);
//! * `snap-{k}` — shard `k`'s snapshot: that shard's rows per table,
//!   each tagged with its *absolute position* in the table's global
//!   insert order.
//!
//! At `S = 1` the commit log *is* the shard's log: a commit is one frame
//! in one file made durable by one fsync, its marker's mask is 0, and
//! there is no `wal-0`. An unsharded database is stored this way.
//!
//! Storage is hash-agnostic: the engine's versioned `ShardHash` decides
//! row→shard placement and absolute positions; this layer only persists
//! and reassembles them. Because every row is positioned, application is
//! idempotent — replaying a record over snapshot-restored state rewrites
//! the same positions with the same values, which is what makes every
//! checkpoint crash window consistent without coordination.
//!
//! **Durability protocol** (group commit): shard WALs are fsynced
//! *before* the commit log, so a durable marker implies durable
//! participant rows. **Recovery** replays all shard logs in parallel,
//! then walks the commit log in order and applies each marker whose
//! participant shards (per `mask`) all hold its GSN. The first marker
//! past the checkpoint watermark with a missing participant defines the
//! *epoch-consistent cut*: it and everything after it — acked by no one,
//! because acks wait for the group fsync — are truncated away across all
//! logs.
//!
//! A directory of the retired single-WAL format (`wal` + `snapshot`, no
//! metadata) is refused with [`StorageError::Unsupported`]; there is no
//! reader for it. Its log shares the `FWAL0001` magic, so the file set,
//! not the bytes, identifies it.

use crate::codec::{Dec, Enc};
use crate::frame::{scan, write_frame, Tail};
use crate::fs::Vfs;
use crate::wal::{replay_wal, Wal, WalReplay, WAL_MAGIC};
use crate::{DurabilityConfig, StorageError, WalRecord};
use ferry_algebra::{Row, Schema};
use ferry_telemetry::{Counter, Registry};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The commit log's file name inside the storage directory.
pub const COMMIT_LOG: &str = "commitlog";

/// Replace-installed shard metadata file.
pub const SHARD_META_FILE: &str = "shard-meta";

/// Magic + format version of the metadata file.
pub const SHARD_META_MAGIC: &[u8; 8] = b"FSMT0001";

/// Magic + format version of a per-shard snapshot file.
pub const SHARD_SNAP_MAGIC: &[u8; 8] = b"FSSH0001";

/// Hard shard-count ceiling (participant masks are a `u64`).
pub const MAX_SHARDS: usize = 64;

/// `shard_of` sentinel for rows that live in the commit log itself
/// (an `InstallTable` payload) rather than in any shard's rows.
pub const NO_SHARD: u32 = u32::MAX;

/// Positions are engine selection-vector indices (`u32`); anything
/// larger in a log is hostile input, not data.
const MAX_POSITION: u64 = u32::MAX as u64;

/// The files of the retired single-WAL format.
const LEGACY_FILES: [&str; 2] = ["wal", "snapshot"];

/// Shard `k`'s WAL file name.
pub fn shard_wal_file(k: usize) -> String {
    format!("wal-{k}")
}

/// Shard `k`'s snapshot file name.
pub fn shard_snap_file(k: usize) -> String {
    format!("snap-{k}")
}

/// How many shard WALs an `S`-shard store keeps: none at `S = 1`, where
/// the commit frame carries the rows.
fn shard_logs(shards: usize) -> usize {
    if shards == 1 {
        0
    } else {
        shards
    }
}

/// One table's definition as the store persists it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    pub name: String,
    pub schema: Schema,
    pub keys: Vec<String>,
    /// The declared partitioning column; `None` for unsharded tables
    /// (whose rows the engine routes whole to their home shard).
    pub shard_key: Option<String>,
}

/// A table with its rows in global insert order plus each row's owning
/// shard — checkpoint input (where every entry must be a real shard) and
/// recovery output (where [`NO_SHARD`] marks commit-log-resident rows).
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    pub def: TableDef,
    pub rows: Vec<Row>,
    pub shard_of: Vec<u32>,
}

/// What [`Storage::open`] found and did across all logs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    pub shards: usize,
    /// Checkpoint watermark GSN from the metadata file.
    pub watermark_gsn: u64,
    /// Last GSN in the recovered state — the epoch-consistent cut.
    pub cut_gsn: u64,
    /// Commit markers applied / dropped past the cut.
    pub markers_applied: usize,
    pub markers_dropped: usize,
    /// Frames decoded across the commit log and every shard WAL.
    pub wal_frames: usize,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    /// Files truncated (torn tails or the cut).
    pub repairs: usize,
    pub elapsed_us: u64,
}

impl RecoveryReport {
    /// Render the recovery timeline, one phase per line (the durable
    /// sibling of `explain_analyze`'s span timeline).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- recovery timeline ({} shards, {}us) --",
            self.shards, self.elapsed_us
        );
        let _ = writeln!(
            out,
            "load snapshots     watermark gsn {:>6}  {} bytes",
            self.watermark_gsn, self.snapshot_bytes
        );
        let _ = writeln!(
            out,
            "replay logs        {} frames  {} bytes  {} markers applied",
            self.wal_frames, self.wal_bytes, self.markers_applied
        );
        let _ = writeln!(
            out,
            "epoch cut          gsn {}  {} markers dropped  {} files repaired",
            self.cut_gsn, self.markers_dropped, self.repairs
        );
        out
    }
}

/// The recovered tables plus the attached, ready-to-append storage.
#[derive(Debug)]
pub struct Recovered {
    pub storage: Storage,
    pub tables: Vec<TableImage>,
    pub report: RecoveryReport,
}

/// Handles into the telemetry registry the store maintains.
#[derive(Debug)]
struct StorageMetrics {
    /// Bytes appended to every log.
    wal_bytes: Arc<Counter>,
    /// The shard-WAL subset of `wal_bytes`.
    shard_wal_bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
    wal_records: Arc<Counter>,
    snapshots: Arc<Counter>,
    recoveries: Arc<Counter>,
}

impl StorageMetrics {
    fn new(registry: &Registry) -> StorageMetrics {
        // storage metric names are code-controlled, so a kind conflict is
        // impossible; degrade to detached handles rather than panic if a
        // foreign registrant ever claims one
        let counter = |name: &str| registry.counter(name).unwrap_or_default();
        StorageMetrics {
            wal_bytes: counter("storage.wal_bytes"),
            shard_wal_bytes: counter("storage.shard.wal_bytes"),
            fsyncs: counter("storage.fsyncs"),
            wal_records: counter("storage.wal_records"),
            snapshots: counter("storage.snapshots"),
            recoveries: counter("storage.recoveries"),
        }
    }
}

/// The durability orchestrator one `Database` owns: the commit log and
/// any shard WALs, group-committed together under one GSN sequence.
///
/// All methods take `&self`: each log sits behind a mutex so concurrent
/// committers can append, and [`Storage::group_sync`] deliberately
/// releases those mutexes around the fsyncs themselves — the window in
/// which other appenders enqueue is what group commit batches over.
#[derive(Debug)]
pub struct Storage {
    vfs: Arc<dyn Vfs>,
    shards: usize,
    commit: Mutex<Wal>,
    /// Shard WALs; empty at `S = 1`.
    wals: Vec<Mutex<Wal>>,
    config: DurabilityConfig,
    /// Last allocated group sequence number.
    next_gsn: AtomicU64,
    /// Highest GSN whose commit frame is fully appended (stored while
    /// holding the commit-log lock, so a load ordered before capturing
    /// sync targets is covered by those targets).
    completed_gsn: AtomicU64,
    /// Highest GSN the group fsync protocol has made durable.
    durable_gsn: AtomicU64,
    records_since_checkpoint: AtomicU64,
    metrics: StorageMetrics,
}

// ---------------------------------------------------------------- meta

#[derive(Debug)]
struct Meta {
    shards: usize,
    watermark: u64,
    /// Each table's definition plus its row count at the watermark.
    tables: Vec<(TableDef, u64)>,
}

fn write_meta(vfs: &dyn Vfs, meta: &Meta) -> Result<(), StorageError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SHARD_META_MAGIC);
    let mut head = Enc::new();
    head.u32(meta.shards as u32);
    head.u64(meta.watermark);
    head.u32(meta.tables.len() as u32);
    write_frame(&mut buf, &head.into_bytes())?;
    for (def, total) in &meta.tables {
        let mut e = Enc::new();
        e.str(&def.name);
        e.schema(&def.schema);
        e.strings(&def.keys);
        match &def.shard_key {
            Some(k) => {
                e.u8(1);
                e.str(k);
            }
            None => e.u8(0),
        }
        e.u64(*total);
        write_frame(&mut buf, &e.into_bytes())?;
    }
    vfs.replace(SHARD_META_FILE, &buf)
}

fn read_meta(vfs: &dyn Vfs) -> Result<Option<Meta>, StorageError> {
    let bytes = match vfs.read(SHARD_META_FILE)? {
        None => return Ok(None),
        Some(b) => b,
    };
    if bytes.len() < SHARD_META_MAGIC.len() || &bytes[..SHARD_META_MAGIC.len()] != SHARD_META_MAGIC
    {
        return Err(StorageError::Corrupt("bad shard-meta magic".into()));
    }
    let out = scan(&bytes[SHARD_META_MAGIC.len()..])?;
    if out.tail != Tail::Clean {
        return Err(StorageError::Corrupt(
            "shard-meta has a damaged frame (meta is installed atomically)".into(),
        ));
    }
    let mut frames = out.frames.into_iter();
    let head = frames
        .next()
        .ok_or_else(|| StorageError::Corrupt("shard-meta missing head frame".into()))?;
    let mut d = Dec::new(head);
    let shards = d.u32()? as usize;
    let watermark = d.u64()?;
    let count = d.u32()? as usize;
    d.finish()?;
    if shards == 0 || shards > MAX_SHARDS {
        return Err(StorageError::Corrupt(format!(
            "shard-meta declares {shards} shards (1..={MAX_SHARDS})"
        )));
    }
    let mut tables = Vec::with_capacity(count.min(1 << 16));
    for payload in frames {
        let mut d = Dec::new(payload);
        let name = d.str()?.to_string();
        let schema = d.schema()?;
        let keys = d.strings()?;
        let shard_key = match d.u8()? {
            0 => None,
            1 => Some(d.str()?.to_string()),
            t => {
                return Err(StorageError::Corrupt(format!(
                    "bad shard-key tag {t} in shard-meta"
                )))
            }
        };
        let total = d.u64()?;
        d.finish()?;
        tables.push((
            TableDef {
                name,
                schema,
                keys,
                shard_key,
            },
            total,
        ));
    }
    if tables.len() != count {
        return Err(StorageError::Corrupt(format!(
            "shard-meta declares {count} tables but holds {}",
            tables.len()
        )));
    }
    Ok(Some(Meta {
        shards,
        watermark,
        tables,
    }))
}

// ------------------------------------------------------ shard snapshots

/// One table's slice inside a shard snapshot: `(name, positions, rows)`.
type SnapTable = (String, Vec<u64>, Vec<Row>);

fn write_shard_snap(
    vfs: &dyn Vfs,
    file: &str,
    gsn: u64,
    tables: &[SnapTable],
) -> Result<u64, StorageError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SHARD_SNAP_MAGIC);
    let mut head = Enc::new();
    head.u64(gsn);
    head.u32(tables.len() as u32);
    write_frame(&mut buf, &head.into_bytes())?;
    for (name, idx, rows) in tables {
        let mut e = Enc::new();
        e.str(name);
        e.u64(idx.len() as u64);
        for i in idx {
            e.u64(*i);
        }
        e.rows(rows);
        // a table over MAX_FRAME_LEN refuses to snapshot (typed error)
        // rather than writing a frame recovery could never read back
        write_frame(&mut buf, &e.into_bytes())?;
    }
    let bytes = buf.len() as u64;
    vfs.replace(file, &buf)?;
    Ok(bytes)
}

struct ShardSnap {
    tables: Vec<SnapTable>,
    bytes: u64,
}

fn read_shard_snap(vfs: &dyn Vfs, file: &str) -> Result<Option<ShardSnap>, StorageError> {
    let bytes = match vfs.read(file)? {
        None => return Ok(None),
        Some(b) => b,
    };
    if bytes.len() < SHARD_SNAP_MAGIC.len() || &bytes[..SHARD_SNAP_MAGIC.len()] != SHARD_SNAP_MAGIC
    {
        return Err(StorageError::Corrupt(format!("bad magic in {file}")));
    }
    let out = scan(&bytes[SHARD_SNAP_MAGIC.len()..])?;
    if out.tail != Tail::Clean {
        return Err(StorageError::Corrupt(format!(
            "{file} has a damaged frame (shard snapshots are installed atomically)"
        )));
    }
    let mut frames = out.frames.into_iter();
    let head = frames
        .next()
        .ok_or_else(|| StorageError::Corrupt(format!("{file} missing head frame")))?;
    let mut d = Dec::new(head);
    let _gsn = d.u64()?;
    let count = d.u32()? as usize;
    d.finish()?;
    let mut tables = Vec::with_capacity(count.min(1 << 16));
    for payload in frames {
        let mut d = Dec::new(payload);
        let name = d.str()?.to_string();
        let n = d.u64()?;
        let mut idx = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            idx.push(d.u64()?);
        }
        let rows = d.rows()?;
        d.finish()?;
        if idx.len() != rows.len() {
            return Err(StorageError::Corrupt(format!(
                "{file}: {} positions for {} rows",
                idx.len(),
                rows.len()
            )));
        }
        tables.push((name, idx, rows));
    }
    if tables.len() != count {
        return Err(StorageError::Corrupt(format!(
            "{file} declares {count} tables but holds {}",
            tables.len()
        )));
    }
    Ok(Some(ShardSnap {
        tables,
        bytes: bytes.len() as u64,
    }))
}

// ------------------------------------------------------------- recovery

/// Position-addressed row storage during recovery; dense-checked at the
/// end (a hole means the logs and snapshots disagree).
#[derive(Debug, Default)]
struct SparseRows {
    slots: Vec<Option<(Row, u32)>>,
}

impl SparseRows {
    fn set(&mut self, pos: u64, row: Row, shard: u32) -> Result<(), StorageError> {
        if pos > MAX_POSITION {
            return Err(StorageError::Corrupt(format!(
                "row position {pos} exceeds the engine's u32 space"
            )));
        }
        let pos = pos as usize;
        if pos >= self.slots.len() {
            self.slots.resize_with(pos + 1, || None);
        }
        self.slots[pos] = Some((row, shard));
        Ok(())
    }
}

/// One decoded shard-WAL frame: the `ShardRows` records it carries (a
/// bare record or a same-GSN batch). Frames own their records — the
/// apply loop moves the row payloads out instead of cloning, which is
/// most of what single-core replay throughput is made of.
struct ShardFrame {
    gsn: u64,
    lsn: u64,
    recs: Vec<WalRecord>,
}

/// Validate one shard WAL's replayed records (GSN-monotone `ShardRows`
/// frames only), consuming them into owned [`ShardFrame`]s. Because
/// frames are GSN-ordered, the commit walk finds each participant with
/// a cursor instead of a by-GSN hash index.
fn index_shard_log(
    file: &str,
    records: Vec<(u64, WalRecord)>,
) -> Result<Vec<ShardFrame>, StorageError> {
    let mut frames = Vec::with_capacity(records.len());
    let mut last_gsn = 0u64;
    for (lsn, rec) in records {
        let recs: Vec<WalRecord> = match rec {
            WalRecord::ShardRows { .. } => vec![rec],
            WalRecord::Batch(members)
                if !members.is_empty()
                    && members
                        .iter()
                        .all(|m| matches!(m, WalRecord::ShardRows { .. })) =>
            {
                members
            }
            other => {
                return Err(StorageError::Corrupt(format!(
                    "{file}: unexpected record {other:?} in a shard WAL"
                )))
            }
        };
        let gsn = match &recs[0] {
            WalRecord::ShardRows { gsn, .. } => *gsn,
            _ => unreachable!("validated above"),
        };
        if recs
            .iter()
            .any(|r| !matches!(r, WalRecord::ShardRows { gsn: g, .. } if *g == gsn))
        {
            return Err(StorageError::Corrupt(format!(
                "{file}: mixed GSNs inside one shard frame"
            )));
        }
        if gsn <= last_gsn {
            return Err(StorageError::Corrupt(format!(
                "{file}: non-monotone GSN {gsn} after {last_gsn}"
            )));
        }
        last_gsn = gsn;
        frames.push(ShardFrame { gsn, lsn, recs });
    }
    Ok(frames)
}

/// One decoded commit-log frame: DDL records, the rows it carries
/// inline (`S = 1`), and its marker.
struct CommitFrame {
    lsn: u64,
    ddl: Vec<WalRecord>,
    rows: Vec<WalRecord>,
    gsn: u64,
    mask: u64,
}

/// Validate the commit log's replayed records (a bare marker, or a batch
/// of DDL, same-GSN `ShardRows` and a trailing marker; GSN-monotone),
/// consuming them into owned [`CommitFrame`]s.
fn index_commit_log(records: Vec<(u64, WalRecord)>) -> Result<Vec<CommitFrame>, StorageError> {
    let mut out = Vec::with_capacity(records.len());
    let mut last_gsn = 0u64;
    for (lsn, rec) in records {
        let mut members = match rec {
            WalRecord::Batch(members) => members,
            other => vec![other],
        };
        let Some(WalRecord::ShardCommit { gsn, mask }) = members.pop() else {
            return Err(StorageError::Corrupt(
                "malformed commit frame (expected DDL*, rows*, ShardCommit)".into(),
            ));
        };
        let (mut ddl, mut rows) = (Vec::new(), Vec::new());
        for m in members {
            match m {
                WalRecord::CreateTable { .. }
                | WalRecord::CreateTableSharded { .. }
                | WalRecord::InstallTable { .. } => ddl.push(m),
                WalRecord::ShardRows { gsn: g, .. } if g == gsn => rows.push(m),
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unexpected record {other:?} in commit frame gsn {gsn}"
                    )))
                }
            }
        }
        if gsn <= last_gsn {
            return Err(StorageError::Corrupt(format!(
                "commit log: non-monotone GSN {gsn} after {last_gsn}"
            )));
        }
        last_gsn = gsn;
        out.push(CommitFrame {
            lsn,
            ddl,
            rows,
            gsn,
            mask,
        });
    }
    Ok(out)
}

/// Apply one DDL record to the recovering state and return the table it
/// names. Create and install are create-or-replace, as in the engine:
/// the table restarts empty (or with the install payload) and later
/// positioned rows rebuild it. Re-applying a commit at or below the
/// watermark over snapshot state is still idempotent: every row the
/// snapshot holds for a table re-created in the log was inserted after
/// that create, so it is in the log too.
fn apply_ddl(
    defs: &mut BTreeMap<String, TableDef>,
    rows: &mut HashMap<String, SparseRows>,
    rec: WalRecord,
) -> Result<String, StorageError> {
    let (def, payload) = match rec {
        WalRecord::CreateTable { name, schema, keys } => (
            TableDef {
                name,
                schema,
                keys,
                shard_key: None,
            },
            Vec::new(),
        ),
        WalRecord::CreateTableSharded {
            name,
            schema,
            keys,
            shard_key,
        } => (
            TableDef {
                name,
                schema,
                keys,
                shard_key: Some(shard_key),
            },
            Vec::new(),
        ),
        WalRecord::InstallTable {
            name,
            schema,
            keys,
            rows,
        } => (
            TableDef {
                name,
                schema,
                keys,
                shard_key: None,
            },
            rows,
        ),
        other => {
            return Err(StorageError::Corrupt(format!(
                "record {other:?} is not commit-log DDL"
            )))
        }
    };
    let slots = payload.into_iter().map(|r| Some((r, NO_SHARD))).collect();
    let name = def.name.clone();
    rows.insert(name.clone(), SparseRows { slots });
    defs.insert(name.clone(), def);
    Ok(name)
}

/// Apply one `ShardRows` record owned by `shard`. Rows must target a
/// defined table and match its width — a CRC-valid frame that does not
/// is a writer bug, and recovery refuses to guess.
fn apply_rows(
    defs: &BTreeMap<String, TableDef>,
    rows: &mut HashMap<String, SparseRows>,
    rec: WalRecord,
    shard: usize,
) -> Result<(), StorageError> {
    let WalRecord::ShardRows {
        table,
        idx,
        rows: payload,
        ..
    } = rec
    else {
        unreachable!("indexing validated ShardRows");
    };
    let Some(def) = defs.get(&table) else {
        return Err(StorageError::Corrupt(format!(
            "rows for {table} which nothing created"
        )));
    };
    if let Some(row) = payload.iter().find(|r| r.len() != def.schema.len()) {
        return Err(StorageError::Corrupt(format!(
            "rows for {table}: width {} != schema width {}",
            row.len(),
            def.schema.len()
        )));
    }
    let t = rows.entry(table).or_default();
    for (pos, row) in idx.into_iter().zip(payload) {
        t.set(pos, row, shard as u32)?;
    }
    Ok(())
}

impl Storage {
    /// Open (or create) a store of `shards` shards: load the metadata and
    /// every shard snapshot, replay all shard WALs **in parallel**, walk
    /// the commit log to find the epoch-consistent cut, truncate every
    /// log back to it, and return the reassembled tables (rows in global
    /// insert order, each tagged with its owning shard). Telemetry lands
    /// in `registry` (`storage.*` counters) and a `storage.recover` span.
    ///
    /// `shards` must match the on-disk shard count of an existing
    /// directory — resharding is not supported — and a directory of the
    /// retired single-WAL format is refused. Either refusal writes
    /// nothing.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        shards: usize,
        config: DurabilityConfig,
        registry: &Registry,
    ) -> Result<Recovered, StorageError> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(StorageError::Corrupt(format!(
                "shard count {shards} out of range (1..={MAX_SHARDS})"
            )));
        }
        let logs = shard_logs(shards);
        let start = Instant::now();
        let mut span = ferry_telemetry::span("storage.recover", "storage");
        span.attr("shards", shards);
        let metrics = StorageMetrics::new(registry);
        let mut report = RecoveryReport {
            shards,
            ..RecoveryReport::default()
        };

        // 1. metadata (written at creation, so its absence means fresh)
        let meta = match read_meta(vfs.as_ref())? {
            Some(m) if m.shards != shards => {
                return Err(StorageError::Unsupported(format!(
                    "directory is stored as {} shard(s), {shards} requested; \
                     resharding is unsupported",
                    m.shards
                )));
            }
            Some(m) => m,
            None => {
                for file in LEGACY_FILES {
                    if vfs.size(file)?.is_some() {
                        return Err(StorageError::Unsupported(format!(
                            "`{file}` marks the retired single-WAL format \
                             (`wal` + `snapshot`, no `{SHARD_META_FILE}`), \
                             which this build no longer reads"
                        )));
                    }
                }
                let m = Meta {
                    shards,
                    watermark: 0,
                    tables: Vec::new(),
                };
                write_meta(vfs.as_ref(), &m)?;
                m
            }
        };
        report.watermark_gsn = meta.watermark;

        // 2. snapshots + shard logs, loaded in parallel (one thread per
        //    shard; decode dominates, and the Vfs is Send + Sync). On a
        //    single-core host the threads can only interleave, so the
        //    spawn/join overhead is pure loss — load serially instead.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        type ShardLoad = Result<(Option<ShardSnap>, Option<WalReplay>), StorageError>;
        let load_shard = |k: usize| -> ShardLoad {
            let snap = read_shard_snap(vfs.as_ref(), &shard_snap_file(k))?;
            let replay = if k < logs {
                Some(replay_wal(vfs.read(&shard_wal_file(k))?.as_deref())?)
            } else {
                None
            };
            Ok((snap, replay))
        };
        let loaded: Vec<ShardLoad> = if shards > 1 && cores > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|k| scope.spawn(move || load_shard(k)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard load thread panicked"))
                    .collect()
            })
        } else {
            (0..shards).map(load_shard).collect()
        };
        let mut commit_replay = replay_wal(vfs.read(COMMIT_LOG)?.as_deref())?;

        let mut snaps = Vec::with_capacity(shards);
        let mut shard_replays = Vec::with_capacity(logs);
        for res in loaded {
            let (snap, replay) = res?;
            snaps.push(snap);
            shard_replays.extend(replay);
        }

        // 3. rebuild state: defs from meta, rows from snapshots, then
        //    commit-by-commit replay in GSN order
        let mut defs: BTreeMap<String, TableDef> = BTreeMap::new();
        let mut totals: HashMap<String, u64> = HashMap::new();
        for (def, total) in &meta.tables {
            defs.insert(def.name.clone(), def.clone());
            totals.insert(def.name.clone(), *total);
        }
        let mut rows: HashMap<String, SparseRows> = HashMap::new();
        for (k, snap) in snaps.into_iter().enumerate() {
            let Some(snap) = snap else { continue };
            report.snapshot_bytes += snap.bytes;
            for (name, idx, payload) in snap.tables {
                let table = rows.entry(name).or_default();
                for (pos, row) in idx.into_iter().zip(payload) {
                    table.set(pos, row, k as u32)?;
                }
            }
        }

        let mut shard_frames = Vec::with_capacity(logs);
        for (k, replay) in shard_replays.iter_mut().enumerate() {
            report.wal_frames += replay.records.len();
            report.wal_bytes += replay.good_bytes;
            let frames = index_shard_log(&shard_wal_file(k), std::mem::take(&mut replay.records))?;
            shard_frames.push(frames);
        }
        report.wal_frames += commit_replay.records.len();
        report.wal_bytes += commit_replay.good_bytes;
        let mut commits = index_commit_log(std::mem::take(&mut commit_replay.records))?;

        let mut cut = meta.watermark;
        let mut applied_commits = 0usize;
        let mut applied_ops = 0u64;
        // per-log keep extents: (frame count, byte length) per shard log
        // and for the commit log, advanced as commits are accepted
        let mut shard_keep: Vec<(usize, u64)> = (0..logs)
            .map(|_| (0usize, WAL_MAGIC.len() as u64))
            .collect();
        let mut commit_keep = (0usize, WAL_MAGIC.len() as u64);
        // per-shard frame cursor: commits walk in GSN order and each
        // shard's frames are GSN-monotone, so every participant lookup
        // is an O(1) peek (dead unmarked frames are skipped in passing)
        let mut cursor = vec![0usize; logs];
        let commit_count = commits.len();
        for (ci, commit) in commits.iter_mut().enumerate() {
            if commit.mask.checked_shr(logs as u32).unwrap_or(0) != 0 {
                return Err(StorageError::Corrupt(format!(
                    "commit gsn {} references shard WALs beyond the {logs} this store keeps",
                    commit.gsn
                )));
            }
            if logs > 0 && !commit.rows.is_empty() {
                return Err(StorageError::Corrupt(format!(
                    "commit gsn {} carries rows inline, but {shards} shards keep their own WALs",
                    commit.gsn
                )));
            }
            let complete = (0..logs).filter(|k| commit.mask & (1 << k) != 0).all(|k| {
                let frames = &shard_frames[k];
                let mut c = cursor[k];
                while c < frames.len() && frames[c].gsn < commit.gsn {
                    c += 1;
                }
                cursor[k] = c;
                c < frames.len() && frames[c].gsn == commit.gsn
            });
            if !complete {
                if commit.gsn <= meta.watermark {
                    // markers at or below the watermark only exist while
                    // all logs are still fully intact (the commit log is
                    // truncated before the shard WALs), so a missing
                    // participant here is real damage, not a crash window
                    return Err(StorageError::Corrupt(format!(
                        "commit gsn {} (≤ watermark {}) is missing shard frames",
                        commit.gsn, meta.watermark
                    )));
                }
                // the epoch-consistent cut: this commit and everything
                // after it was never acked — drop them all
                report.markers_dropped = commit_count - ci;
                break;
            }
            for rec in std::mem::take(&mut commit.ddl) {
                let name = apply_ddl(&mut defs, &mut rows, rec)?;
                if commit.gsn > meta.watermark {
                    // re-created since the checkpoint: its recorded row
                    // count no longer bounds it
                    totals.remove(&name);
                }
                applied_ops += 1;
            }
            for rec in std::mem::take(&mut commit.rows) {
                apply_rows(&defs, &mut rows, rec, 0)?;
                applied_ops += 1;
            }
            for k in (0..logs).filter(|k| commit.mask & (1 << k) != 0) {
                let fi = cursor[k];
                cursor[k] = fi + 1;
                for rec in std::mem::take(&mut shard_frames[k][fi].recs) {
                    apply_rows(&defs, &mut rows, rec, k)?;
                    applied_ops += 1;
                }
                // the keep extent advances to cover this frame (plus any
                // unmarked frames before it, which stay as dead bytes)
                let (ref mut kept, ref mut bytes) = shard_keep[k];
                while *kept <= fi {
                    *bytes += shard_replays[k].frame_lens[*kept];
                    *kept += 1;
                }
            }
            commit_keep.1 += commit_replay.frame_lens[ci];
            commit_keep.0 += 1;
            cut = commit.gsn;
            if commit.gsn > meta.watermark {
                applied_commits += 1;
            }
        }
        report.cut_gsn = cut;
        report.markers_applied = applied_commits;

        // 4. truncate every log back to the cut (and repair torn tails);
        //    also (re)create any file a crash left missing
        let mut repair = |file: &str, keep: u64, replay: &WalReplay| -> Result<u64, StorageError> {
            if vfs.size(file)?.is_none() {
                vfs.append(file, WAL_MAGIC)?;
                vfs.sync(file)?;
                return Ok(WAL_MAGIC.len() as u64);
            }
            let current = replay.good_bytes;
            if keep < current || replay.tail != Tail::Clean || current == 0 {
                let keep = keep.max(WAL_MAGIC.len() as u64);
                if current == 0 {
                    // even the magic was torn off: start the file over
                    vfs.truncate(file, 0)?;
                    vfs.append(file, WAL_MAGIC)?;
                } else {
                    vfs.truncate(file, keep)?;
                }
                vfs.sync(file)?;
                report.repairs += 1;
                return Ok(keep);
            }
            Ok(current)
        };
        let mut shard_lens = Vec::with_capacity(logs);
        for k in 0..logs {
            shard_lens.push(repair(
                &shard_wal_file(k),
                shard_keep[k].1,
                &shard_replays[k],
            )?);
        }
        let commit_len = repair(COMMIT_LOG, commit_keep.1, &commit_replay)?;

        // 5. reassemble dense tables and verify against the metadata
        let mut tables = Vec::with_capacity(defs.len());
        for (name, def) in defs {
            let sparse = rows.remove(&name).unwrap_or_default();
            let mut out_rows = Vec::with_capacity(sparse.slots.len());
            let mut shard_of = Vec::with_capacity(sparse.slots.len());
            for (pos, slot) in sparse.slots.into_iter().enumerate() {
                let Some((row, shard)) = slot else {
                    return Err(StorageError::Corrupt(format!(
                        "table {name} has no row at position {pos} \
                         (snapshots and logs disagree)"
                    )));
                };
                out_rows.push(row);
                shard_of.push(shard);
            }
            if let Some(total) = totals.get(&name) {
                if (out_rows.len() as u64) < *total {
                    return Err(StorageError::Corrupt(format!(
                        "table {name} recovered {} rows, checkpoint recorded {total}",
                        out_rows.len()
                    )));
                }
            }
            tables.push(TableImage {
                def,
                rows: out_rows,
                shard_of,
            });
        }
        if let Some(name) = rows.keys().next() {
            return Err(StorageError::Corrupt(format!(
                "recovered rows for {name} but no definition created it"
            )));
        }

        // 6. resume the appenders past the kept extents
        let resume = |file: &str, next_lsn: u64, len: u64, bytes: Vec<Arc<Counter>>| {
            Mutex::new(Wal::resume(
                vfs.clone(),
                file,
                config.fsync,
                next_lsn,
                len,
                bytes,
                metrics.fsyncs.clone(),
            ))
        };
        let wals = (0..logs)
            .map(|k| {
                let kept = shard_keep[k].0;
                let next_lsn = match kept {
                    0 => 1,
                    n => shard_frames[k][n - 1].lsn + 1,
                };
                let bytes = vec![metrics.wal_bytes.clone(), metrics.shard_wal_bytes.clone()];
                resume(&shard_wal_file(k), next_lsn, shard_lens[k], bytes)
            })
            .collect();
        let commit_next_lsn = match commit_keep.0 {
            0 => 1,
            n => commits[n - 1].lsn + 1,
        };
        let commit = resume(
            COMMIT_LOG,
            commit_next_lsn,
            commit_len,
            vec![metrics.wal_bytes.clone()],
        );

        report.elapsed_us = start.elapsed().as_micros() as u64;
        metrics.recoveries.inc();
        span.attr("tables", tables.len())
            .attr("applied", applied_ops)
            .attr("cut_gsn", cut);
        Ok(Recovered {
            storage: Storage {
                vfs,
                shards,
                commit,
                wals,
                config,
                next_gsn: AtomicU64::new(cut),
                completed_gsn: AtomicU64::new(cut),
                durable_gsn: AtomicU64::new(cut),
                records_since_checkpoint: AtomicU64::new(applied_ops),
                metrics,
            },
            tables,
            report,
        })
    }

    /// Log one transaction; returns its GSN. `ddl` rides in the commit
    /// frame; `shard_rows[k]` are the [`WalRecord::ShardRows`] appends
    /// for shard `k` (their `gsn` fields are assigned here). At `S = 1`
    /// the rows join the DDL in the commit frame — one frame, one file.
    /// At `S ≥ 2` each shard's records coalesce into a single CRC-atomic
    /// frame in that shard's WAL. Either way every per-file slice of the
    /// commit is all-or-nothing. A commit with nothing to log (an empty
    /// insert) is a bare marker.
    ///
    /// Under [`FsyncPolicy::Always`](crate::FsyncPolicy::Always) *no*
    /// fsync happens here: the caller must not ack until
    /// [`Storage::group_sync`] reports the GSN durable.
    pub fn log_commit(
        &self,
        ddl: Vec<WalRecord>,
        shard_rows: Vec<(usize, Vec<WalRecord>)>,
    ) -> Result<u64, StorageError> {
        let gsn = self.next_gsn.fetch_add(1, Ordering::SeqCst) + 1;
        let mut mask = 0u64;
        let mut ops = ddl.iter().map(WalRecord::op_count).sum::<u64>();
        // the commit frame: DDL, then (S = 1) the rows, then the marker
        let mut members = ddl;
        for (k, mut recs) in shard_rows {
            if recs.is_empty() {
                continue;
            }
            if k >= self.shards {
                return Err(StorageError::Codec(format!(
                    "shard {k} out of range (S={})",
                    self.shards
                )));
            }
            for rec in &mut recs {
                match rec {
                    WalRecord::ShardRows { gsn: g, .. } => *g = gsn,
                    other => {
                        return Err(StorageError::Codec(format!(
                            "shard payload must be ShardRows, got {other:?}"
                        )))
                    }
                }
            }
            ops += recs.len() as u64;
            let Some(wal) = self.wals.get(k) else {
                members.append(&mut recs);
                continue;
            };
            let frame = if recs.len() == 1 {
                recs.pop().expect("len checked")
            } else {
                WalRecord::Batch(recs)
            };
            wal.lock().unwrap().append(&frame)?;
            mask |= 1 << k;
        }
        let marker = WalRecord::ShardCommit { gsn, mask };
        let frame = if members.is_empty() {
            marker
        } else {
            members.push(marker);
            WalRecord::Batch(members)
        };
        {
            let mut commit = self.commit.lock().unwrap();
            commit.append(&frame)?;
            // ordered inside the lock: a group-sync leader that reads
            // this gsn afterwards will capture sync targets covering it
            self.completed_gsn.store(gsn, Ordering::SeqCst);
        }
        self.metrics.wal_records.add(ops);
        self.records_since_checkpoint
            .fetch_add(ops, Ordering::Relaxed);
        Ok(gsn)
    }

    /// One group fsync across every dirty log; returns the highest GSN
    /// now durable. Shard WALs sync **before** the commit log, so a
    /// durable marker always implies durable participant rows. The
    /// fsyncs run outside the WAL locks — concurrent `log_commit`
    /// callers keep enqueuing into the next batch. If every log is
    /// already synced this is free (no fsync at all).
    ///
    /// Any fsync failure nacks the whole unsynced tail on *every* log
    /// (truncate back to the synced prefix, roll the LSN allocators back
    /// with it, poison until reopen) — one shard's dead disk must not
    /// let a marker outlive its participant rows.
    pub fn group_sync(&self) -> Result<u64, StorageError> {
        // the completed watermark is read first: its marker (and, by the
        // commit protocol, its shard rows) were appended before this
        // load, so the targets captured below cover it
        let completed = self.completed_gsn.load(Ordering::SeqCst);
        let mut shard_targets = Vec::with_capacity(self.wals.len());
        for wal in &self.wals {
            let wal = wal.lock().unwrap();
            wal.check_poisoned()?;
            let (lsn, bytes) = wal.sync_target();
            shard_targets.push((lsn > wal.synced_lsn()).then_some((lsn, bytes)));
        }
        let commit_target = {
            let commit = self.commit.lock().unwrap();
            commit.check_poisoned()?;
            let (lsn, bytes) = commit.sync_target();
            (lsn > commit.synced_lsn()).then_some((lsn, bytes))
        };
        let fail_all = |err: StorageError| -> StorageError {
            for wal in &self.wals {
                wal.lock().unwrap().fail_sync();
            }
            self.commit.lock().unwrap().fail_sync();
            err
        };
        for (k, target) in shard_targets.iter().enumerate() {
            let Some((lsn, bytes)) = target else { continue };
            match self.vfs.sync(&shard_wal_file(k)) {
                Ok(()) => self.wals[k].lock().unwrap().mark_synced(*lsn, *bytes),
                Err(e) => return Err(fail_all(e)),
            }
        }
        if let Some((lsn, bytes)) = commit_target {
            match self.vfs.sync(COMMIT_LOG) {
                Ok(()) => self.commit.lock().unwrap().mark_synced(lsn, bytes),
                Err(e) => return Err(fail_all(e)),
            }
        }
        self.durable_gsn.fetch_max(completed, Ordering::SeqCst);
        Ok(self.durable_gsn.load(Ordering::SeqCst))
    }

    /// Does the configured `checkpoint_every` call for a checkpoint now?
    pub fn checkpoint_due(&self) -> bool {
        self.config
            .checkpoint_every
            .is_some_and(|n| self.records_since_checkpoint.load(Ordering::Relaxed) >= n.max(1))
    }

    /// Checkpoint: sync every log, write one snapshot per shard, install
    /// the metadata, then compact all logs. The caller must hold its
    /// commit lock (no transaction in flight) and every `shard_of` entry
    /// must name a real shard — the engine assigns unsharded tables'
    /// rows to their home shard before calling.
    ///
    /// Crash-ordering: snapshots first (each atomic), metadata second
    /// (atomic), then the **commit log is truncated before the shard
    /// WALs** — so logs still holding markers are always fully intact,
    /// and positioned application makes re-replaying them a no-op.
    pub fn checkpoint(&self, images: &[TableImage]) -> Result<u64, StorageError> {
        let mut span = ferry_telemetry::span("storage.checkpoint", "storage");
        for img in images {
            if img.rows.len() != img.shard_of.len() {
                return Err(StorageError::Codec(format!(
                    "checkpoint image {}: {} rows, {} shard assignments",
                    img.def.name,
                    img.rows.len(),
                    img.shard_of.len()
                )));
            }
            if img.shard_of.iter().any(|&s| s as usize >= self.shards) {
                return Err(StorageError::Codec(format!(
                    "checkpoint image {}: shard assignment out of range",
                    img.def.name
                )));
            }
        }
        // anything the policy left unsynced must be durable before the
        // snapshots claim to cover it
        for wal in &self.wals {
            wal.lock().unwrap().sync()?;
        }
        self.commit.lock().unwrap().sync()?;
        let watermark = self.completed_gsn.load(Ordering::SeqCst);
        let mut bytes = 0u64;
        for k in 0..self.shards {
            let tables: Vec<SnapTable> = images
                .iter()
                .filter_map(|img| {
                    let (idx, rows): (Vec<u64>, Vec<Row>) = img
                        .shard_of
                        .iter()
                        .enumerate()
                        .filter(|(_, &s)| s as usize == k)
                        .map(|(i, _)| (i as u64, img.rows[i].clone()))
                        .unzip();
                    (!idx.is_empty()).then(|| (img.def.name.clone(), idx, rows))
                })
                .collect();
            bytes += write_shard_snap(self.vfs.as_ref(), &shard_snap_file(k), watermark, &tables)?;
        }
        write_meta(
            self.vfs.as_ref(),
            &Meta {
                shards: self.shards,
                watermark,
                tables: images
                    .iter()
                    .map(|img| (img.def.clone(), img.rows.len() as u64))
                    .collect(),
            },
        )?;
        self.commit.lock().unwrap().truncate_to_header()?;
        for wal in &self.wals {
            wal.lock().unwrap().truncate_to_header()?;
        }
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        self.durable_gsn.fetch_max(watermark, Ordering::SeqCst);
        self.metrics.snapshots.inc();
        span.attr("gsn", watermark)
            .attr("bytes", bytes)
            .attr("shards", self.shards);
        Ok(watermark)
    }

    /// Force-fsync every log regardless of policy (shutdown hook).
    pub fn sync(&self) -> Result<(), StorageError> {
        self.group_sync().map(|_| ())
    }

    /// Highest GSN guaranteed durable — the watermark `ferry.storage`
    /// reports as `synced_lsn`.
    pub fn durable_gsn(&self) -> u64 {
        self.durable_gsn.load(Ordering::SeqCst)
    }

    /// The GSN the next commit will be assigned.
    pub fn next_gsn(&self) -> u64 {
        self.next_gsn.load(Ordering::SeqCst) + 1
    }

    /// Has any log refused further I/O after an unrecoverable
    /// write/fsync failure? Reopening the database is the only cure.
    pub fn poisoned(&self) -> bool {
        self.wals.iter().any(|w| w.lock().unwrap().poisoned())
            || self.commit.lock().unwrap().poisoned()
    }

    pub fn config(&self) -> DurabilityConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FaultFs;
    use ferry_algebra::{Ty, Value};

    fn open(vfs: &Arc<FaultFs>, shards: usize) -> Recovered {
        Storage::open(
            vfs.clone() as Arc<dyn Vfs>,
            shards,
            DurabilityConfig::default(),
            &Registry::default(),
        )
        .unwrap()
    }

    fn create_t() -> WalRecord {
        WalRecord::CreateTableSharded {
            name: "t".into(),
            schema: Schema::of(&[("k", Ty::Int)]),
            keys: vec!["k".into()],
            shard_key: "k".into(),
        }
    }

    fn rows_rec(positions: &[u64]) -> WalRecord {
        WalRecord::ShardRows {
            gsn: 0,
            table: "t".into(),
            idx: positions.to_vec(),
            rows: positions
                .iter()
                .map(|p| vec![Value::Int(*p as i64)])
                .collect(),
        }
    }

    #[test]
    fn fresh_open_log_reopen_roundtrip() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs, 4);
        assert!(r.tables.is_empty());
        // gsn 1: create + rows 0,2 on shard 1 and row 1 on shard 3
        let gsn = r
            .storage
            .log_commit(
                vec![create_t()],
                vec![(1, vec![rows_rec(&[0, 2])]), (3, vec![rows_rec(&[1])])],
            )
            .unwrap();
        assert_eq!(gsn, 1);
        assert_eq!(r.storage.group_sync().unwrap(), 1);
        assert_eq!(r.storage.durable_gsn(), 1);

        vfs.crash();
        let r2 = open(&vfs, 4);
        assert_eq!(r2.tables.len(), 1);
        let t = &r2.tables[0];
        assert_eq!(t.def.shard_key.as_deref(), Some("k"));
        assert_eq!(
            t.rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)]
            ],
            "rows reassemble in global insert order"
        );
        assert_eq!(t.shard_of, vec![1, 3, 1]);
        assert_eq!(r2.report.cut_gsn, 1);
        assert_eq!(r2.storage.next_gsn(), 2);
        assert!(r2.report.render().contains("recovery timeline (4 shards"));
    }

    #[test]
    fn one_shard_commits_are_one_frame_in_the_commit_log() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs, 1);
        r.storage
            .log_commit(vec![create_t()], vec![(0, vec![rows_rec(&[0, 1])])])
            .unwrap();
        r.storage.group_sync().unwrap();
        assert_eq!(vfs.size(&shard_wal_file(0)).unwrap(), None, "no wal-0");
        let log = replay_wal(vfs.read(COMMIT_LOG).unwrap().as_deref()).unwrap();
        assert_eq!(log.records.len(), 1);
        assert!(matches!(
            &log.records[0].1,
            WalRecord::Batch(m) if matches!(m[..], [
                WalRecord::CreateTableSharded { .. },
                WalRecord::ShardRows { gsn: 1, .. },
                WalRecord::ShardCommit { gsn: 1, mask: 0 },
            ])
        ));
        // an S = 1 marker naming a shard WAL is damage, not a crash window
        let mut e = Enc::new();
        e.u64(2);
        e.u8(7);
        e.u64(2);
        e.u64(1);
        let mut frame = Vec::new();
        write_frame(&mut frame, &e.into_bytes()).unwrap();
        vfs.append(COMMIT_LOG, &frame).unwrap();
        let err = Storage::open(
            vfs.clone() as Arc<dyn Vfs>,
            1,
            DurabilityConfig::default(),
            &Registry::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn shard_count_mismatch_and_legacy_directories_are_refused_untouched() {
        let vfs = Arc::new(FaultFs::new());
        open(&vfs, 4);
        let meta = vfs.read(SHARD_META_FILE).unwrap();
        for shards in [1, 2] {
            let err = Storage::open(
                vfs.clone() as Arc<dyn Vfs>,
                shards,
                DurabilityConfig::default(),
                &Registry::default(),
            )
            .unwrap_err();
            assert!(matches!(err, StorageError::Unsupported(_)), "{err}");
        }
        assert_eq!(vfs.read(SHARD_META_FILE).unwrap(), meta);

        let legacy = Arc::new(FaultFs::new());
        legacy.append("wal", WAL_MAGIC).unwrap();
        let err = Storage::open(
            legacy.clone() as Arc<dyn Vfs>,
            1,
            DurabilityConfig::default(),
            &Registry::default(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, StorageError::Unsupported(m) if m.contains("single-WAL")),
            "{err}"
        );
        assert_eq!(legacy.size(SHARD_META_FILE).unwrap(), None);
    }

    #[test]
    fn install_table_rides_the_commit_log() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs, 2);
        r.storage
            .log_commit(
                vec![WalRecord::InstallTable {
                    name: "u".into(),
                    schema: Schema::of(&[("x", Ty::Int)]),
                    keys: vec![],
                    rows: vec![vec![Value::Int(5)], vec![Value::Int(6)]],
                }],
                Vec::new(),
            )
            .unwrap();
        r.storage.group_sync().unwrap();
        vfs.crash();
        let r2 = open(&vfs, 2);
        let u = &r2.tables[0];
        assert_eq!(u.def.shard_key, None);
        assert_eq!(u.rows, vec![vec![Value::Int(5)], vec![Value::Int(6)]]);
        assert_eq!(u.shard_of, vec![NO_SHARD, NO_SHARD]);
    }

    #[test]
    fn wal_bytes_count_every_log_and_the_shard_subset() {
        let vfs = Arc::new(FaultFs::new());
        let registry = Registry::default();
        let r = Storage::open(
            vfs.clone() as Arc<dyn Vfs>,
            4,
            DurabilityConfig::default(),
            &registry,
        )
        .unwrap();
        let files: Vec<String> = (0..4)
            .map(shard_wal_file)
            .chain([COMMIT_LOG.to_string()])
            .collect();
        let sizes = || files.iter().map(|f| vfs.written_len(f)).collect::<Vec<_>>();
        let counter = |name: &str| registry.counter(name).unwrap().get();
        let before = sizes();
        let (all0, shard0) = (
            counter("storage.wal_bytes"),
            counter("storage.shard.wal_bytes"),
        );
        r.storage
            .log_commit(
                vec![create_t()],
                vec![(0, vec![rows_rec(&[0])]), (2, vec![rows_rec(&[1, 2])])],
            )
            .unwrap();
        r.storage.group_sync().unwrap();
        let grown: Vec<u64> = sizes().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(
            counter("storage.wal_bytes") - all0,
            grown.iter().sum::<u64>()
        );
        assert_eq!(
            counter("storage.shard.wal_bytes") - shard0,
            grown[..4].iter().sum::<u64>()
        );
        assert!(grown[0] > 0 && grown[2] > 0 && grown[4] > 0);
    }
}
