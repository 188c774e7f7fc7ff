//! The store: one snapshot and one commit log, group-committed under one
//! GSN (group sequence number) sequence.
//!
//! A storage directory holds:
//!
//! * [`SHARD_META_FILE`] — replace-installed metadata: a shard count
//!   (always 1), the checkpoint watermark GSN, and every table's
//!   definition (schema, keys, row count at the watermark);
//! * [`COMMIT_LOG`] — a [`Wal`](crate::wal::Wal) of *commit frames*: each
//!   commit is one CRC-atomic frame carrying its DDL records, its rows
//!   ([`WalRecord::ShardRows`]) and a trailing [`WalRecord::ShardCommit`]
//!   marker `{gsn, mask: 0}` — one frame in one file, made durable by one
//!   fsync;
//! * [`SNAPSHOT_FILE`] — the checkpointed rows of every non-empty table,
//!   each tagged with its position in the table's insert order.
//!
//! The file and record names say "shard" because the format can describe
//! several shards; this layer reads and writes its one-shard form only. A
//! `shard-meta` declaring more shards is refused with
//! [`StorageError::Unsupported`], and so is a directory of the retired
//! single-WAL format (`wal` + `snapshot`, no metadata — its log shares the
//! `FWAL0001` magic, so the file set, not the bytes, identifies it).
//! Either refusal writes nothing.
//!
//! **Recovery** loads the snapshot, then walks the commit log in GSN
//! order. A commit the snapshot already covers (GSN at or below the
//! snapshot's) contributes only its DDL to the table definitions: the
//! metadata lags the snapshot when a checkpoint crashed between
//! installing the two. Every later commit is applied whole. A table's
//! positions are dense and in insert order — each insert appends at the
//! table's end and DDL restarts it — so a row positioned past its table's
//! end is refused as corrupt instead of allocated. So is a row whose shape
//! contradicts its table's definition ([`row_shape_error`]: the width, and
//! each cell's type): the engine's typed kernels rely on every stored
//! column being type-uniform. A torn final frame is truncated away: no one
//! was acked for it, because acks wait for the fsync.

use crate::codec::{Dec, Enc};
use crate::frame::{scan, write_frame, Tail};
use crate::fs::Vfs;
use crate::wal::{replay_wal, Wal, WAL_MAGIC};
use crate::{DurabilityConfig, StorageError, WalRecord};
use ferry_algebra::{Row, Schema, Value};
use ferry_telemetry::{Counter, Registry};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The commit log's file name inside the storage directory.
pub const COMMIT_LOG: &str = "commitlog";

/// Replace-installed metadata file.
pub const SHARD_META_FILE: &str = "shard-meta";

/// The snapshot file.
pub const SNAPSHOT_FILE: &str = "snap-0";

/// Magic + format version of the metadata file.
pub const SHARD_META_MAGIC: &[u8; 8] = b"FSMT0001";

/// Magic + format version of the snapshot file.
pub const SHARD_SNAP_MAGIC: &[u8; 8] = b"FSSH0001";

/// The files of the retired single-WAL format.
const LEGACY_FILES: [&str; 2] = ["wal", "snapshot"];

/// One table's definition as the store persists it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    pub name: String,
    pub schema: Schema,
    pub keys: Vec<String>,
}

/// A table with its rows in insert order — checkpoint input and recovery
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    pub def: TableDef,
    pub rows: Vec<Row>,
}

/// What [`Storage::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Checkpoint watermark GSN from the metadata file.
    pub watermark_gsn: u64,
    /// Last GSN in the recovered state.
    pub cut_gsn: u64,
    /// Commits applied past the watermark.
    pub markers_applied: usize,
    /// Frames decoded from the commit log.
    pub wal_frames: usize,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    /// Files repaired (a torn tail truncated, a missing log recreated).
    pub repairs: usize,
    pub elapsed_us: u64,
}

impl RecoveryReport {
    /// Render the recovery timeline, one phase per line (the durable
    /// sibling of `explain_analyze`'s span timeline).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "-- recovery timeline ({}us) --", self.elapsed_us);
        let _ = writeln!(
            out,
            "load snapshot      watermark gsn {:>6}  {} bytes",
            self.watermark_gsn, self.snapshot_bytes
        );
        let _ = writeln!(
            out,
            "replay log         {} frames  {} bytes  {} markers applied",
            self.wal_frames, self.wal_bytes, self.markers_applied
        );
        let _ = writeln!(
            out,
            "cut                gsn {}  {} files repaired",
            self.cut_gsn, self.repairs
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
    wal_bytes: Arc<Counter>,
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
            fsyncs: counter("storage.fsyncs"),
            wal_records: counter("storage.wal_records"),
            snapshots: counter("storage.snapshots"),
            recoveries: counter("storage.recoveries"),
        }
    }
}

/// The durability orchestrator one `Database` owns: the commit log and
/// its snapshot.
///
/// All methods take `&self`: the log sits behind a mutex so concurrent
/// committers can append, and [`Storage::group_sync`] deliberately
/// releases it around the fsync itself — the window in which other
/// appenders enqueue is what group commit batches over.
#[derive(Debug)]
pub struct Storage {
    vfs: Arc<dyn Vfs>,
    commit: Mutex<Wal>,
    config: DurabilityConfig,
    /// Last allocated group sequence number.
    next_gsn: AtomicU64,
    /// Highest GSN whose commit frame is fully appended (stored while
    /// holding the commit-log lock, so a load ordered before capturing
    /// the sync target is covered by that target).
    completed_gsn: AtomicU64,
    /// Highest GSN the group fsync protocol has made durable.
    durable_gsn: AtomicU64,
    records_since_checkpoint: AtomicU64,
    metrics: StorageMetrics,
}

// ---------------------------------------------------------------- meta

#[derive(Debug)]
struct Meta {
    watermark: u64,
    /// Each table's definition plus its row count at the watermark.
    tables: Vec<(TableDef, u64)>,
}

fn write_meta(vfs: &dyn Vfs, meta: &Meta) -> Result<(), StorageError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SHARD_META_MAGIC);
    let mut head = Enc::new();
    head.u32(1); // shard count
    head.u64(meta.watermark);
    head.u32(meta.tables.len() as u32);
    write_frame(&mut buf, &head.into_bytes())?;
    for (def, total) in &meta.tables {
        let mut e = Enc::new();
        e.str(&def.name);
        e.schema(&def.schema);
        e.strings(&def.keys);
        e.u8(0); // no shard key
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
    let shards = d.u32()?;
    let watermark = d.u64()?;
    let count = d.u32()? as usize;
    d.finish()?;
    match shards {
        0 => return Err(StorageError::Corrupt("shard-meta declares 0 shards".into())),
        1 => {}
        s => {
            return Err(StorageError::Unsupported(format!(
                "directory is stored as {s} hash-partitioned shards; \
                 this build reads one-shard stores only"
            )))
        }
    }
    let mut tables = Vec::with_capacity(count.min(1 << 16));
    for payload in frames {
        let mut d = Dec::new(payload);
        let name = d.str()?.to_string();
        let schema = d.schema()?;
        let keys = d.strings()?;
        // a declared shard key (tag 1) is read past and ignored
        match d.u8()? {
            0 => {}
            1 => {
                d.str()?;
            }
            t => {
                return Err(StorageError::Corrupt(format!(
                    "bad shard-key tag {t} in shard-meta"
                )))
            }
        }
        let total = d.u64()?;
        d.finish()?;
        tables.push((TableDef { name, schema, keys }, total));
    }
    if tables.len() != count {
        return Err(StorageError::Corrupt(format!(
            "shard-meta declares {count} tables but holds {}",
            tables.len()
        )));
    }
    Ok(Some(Meta { watermark, tables }))
}

// ------------------------------------------------------------ snapshot

fn write_snapshot(vfs: &dyn Vfs, gsn: u64, images: &[TableImage]) -> Result<u64, StorageError> {
    let tables: Vec<&TableImage> = images.iter().filter(|img| !img.rows.is_empty()).collect();
    let mut buf = Vec::new();
    buf.extend_from_slice(SHARD_SNAP_MAGIC);
    let mut head = Enc::new();
    head.u64(gsn);
    head.u32(tables.len() as u32);
    write_frame(&mut buf, &head.into_bytes())?;
    for img in tables {
        let mut e = Enc::new();
        e.str(&img.def.name);
        e.u64(img.rows.len() as u64);
        for pos in 0..img.rows.len() as u64 {
            e.u64(pos);
        }
        e.rows(&img.rows);
        // a table over MAX_FRAME_LEN refuses to snapshot (typed error)
        // rather than writing a frame recovery could never read back
        write_frame(&mut buf, &e.into_bytes())?;
    }
    let bytes = buf.len() as u64;
    vfs.replace(SNAPSHOT_FILE, &buf)?;
    Ok(bytes)
}

/// A loaded snapshot: the GSN it covers and each table's rows.
#[derive(Default)]
struct Snapshot {
    gsn: u64,
    rows: HashMap<String, Vec<Row>>,
    bytes: u64,
}

fn read_snapshot(vfs: &dyn Vfs) -> Result<Snapshot, StorageError> {
    let file = SNAPSHOT_FILE;
    let bytes = match vfs.read(file)? {
        None => return Ok(Snapshot::default()),
        Some(b) => b,
    };
    if bytes.len() < SHARD_SNAP_MAGIC.len() || &bytes[..SHARD_SNAP_MAGIC.len()] != SHARD_SNAP_MAGIC
    {
        return Err(StorageError::Corrupt(format!("bad magic in {file}")));
    }
    let out = scan(&bytes[SHARD_SNAP_MAGIC.len()..])?;
    if out.tail != Tail::Clean {
        return Err(StorageError::Corrupt(format!(
            "{file} has a damaged frame (snapshots are installed atomically)"
        )));
    }
    let mut frames = out.frames.into_iter();
    let head = frames
        .next()
        .ok_or_else(|| StorageError::Corrupt(format!("{file} missing head frame")))?;
    let mut d = Dec::new(head);
    let gsn = d.u64()?;
    let count = d.u32()? as usize;
    d.finish()?;
    let mut rows = HashMap::with_capacity(count.min(1 << 16));
    let mut tables = 0usize;
    for payload in frames {
        let mut d = Dec::new(payload);
        let name = d.str()?.to_string();
        let n = d.u64()?;
        let mut idx = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            idx.push(d.u64()?);
        }
        let payload = d.rows()?;
        d.finish()?;
        if idx.len() != payload.len() {
            return Err(StorageError::Corrupt(format!(
                "{file}: {} positions for {} rows",
                idx.len(),
                payload.len()
            )));
        }
        let table: &mut Vec<Row> = rows.entry(name).or_default();
        for (pos, row) in idx.into_iter().zip(payload) {
            set_row(table, pos, row)?;
        }
        tables += 1;
    }
    if tables != count {
        return Err(StorageError::Corrupt(format!(
            "{file} declares {count} tables but holds {tables}"
        )));
    }
    Ok(Snapshot {
        gsn,
        rows,
        bytes: bytes.len() as u64,
    })
}

// ------------------------------------------------------------- recovery

/// Write `row` at position `pos` of a recovering table: overwrite a row
/// already there or append at the end. A position past the end is a
/// hole no writer leaves, and allocating up to it would let one crafted
/// record exhaust memory — it is refused as corrupt.
fn set_row(rows: &mut Vec<Row>, pos: u64, row: Row) -> Result<(), StorageError> {
    match usize::try_from(pos) {
        Ok(p) if p < rows.len() => rows[p] = row,
        Ok(p) if p == rows.len() => rows.push(row),
        _ => {
            return Err(StorageError::Corrupt(format!(
                "row position {pos} lies past the table's {} rows",
                rows.len()
            )))
        }
    }
    Ok(())
}

/// The one row-shape check: `None` when `row` has `schema`'s width and
/// every cell the type its column declares, otherwise what is wrong. The
/// engine's `Tx::insert` and `Tx::install_table` refuse a mismatch with
/// `TableMismatch`; recovery refuses it as [`StorageError::Corrupt`].
pub fn row_shape_error(schema: &Schema, row: &[Value]) -> Option<String> {
    if row.len() != schema.len() {
        return Some(format!(
            "row width {} != schema width {}",
            row.len(),
            schema.len()
        ));
    }
    row.iter()
        .zip(schema.cols())
        .find(|(v, (_, t))| v.ty() != *t)
        .map(|(v, (c, t))| format!("column {c}: value {v} is not {t}"))
}

/// Refuse recovered rows of `def`'s table that fail [`row_shape_error`].
fn check_rows(def: &TableDef, rows: &[Row]) -> Result<(), StorageError> {
    match rows.iter().find_map(|r| row_shape_error(&def.schema, r)) {
        Some(why) => Err(StorageError::Corrupt(format!(
            "rows for {}: {why}",
            def.name
        ))),
        None => Ok(()),
    }
}

/// One decoded commit-log frame: its DDL records, its rows, and the GSN
/// its marker seals.
struct CommitFrame {
    lsn: u64,
    ddl: Vec<WalRecord>,
    rows: Vec<WalRecord>,
    gsn: u64,
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
        if mask != 0 {
            return Err(StorageError::Corrupt(format!(
                "commit gsn {gsn} references shard WALs (mask {mask:#x}), \
                 which a one-shard store does not keep"
            )));
        }
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
        });
    }
    Ok(out)
}

/// Split one DDL record into the definition it installs and the rows the
/// table restarts with. Create and install are create-or-replace, as in
/// the engine; a create that named a shard key is a plain create.
fn ddl_def(rec: WalRecord) -> Result<(TableDef, Vec<Row>), StorageError> {
    Ok(match rec {
        WalRecord::CreateTable { name, schema, keys }
        | WalRecord::CreateTableSharded {
            name, schema, keys, ..
        } => (TableDef { name, schema, keys }, Vec::new()),
        WalRecord::InstallTable {
            name,
            schema,
            keys,
            rows,
        } => (TableDef { name, schema, keys }, rows),
        other => {
            return Err(StorageError::Corrupt(format!(
                "record {other:?} is not commit-log DDL"
            )))
        }
    })
}

/// Apply one `ShardRows` record. Rows must target a defined table and
/// have its shape — a CRC-valid frame that does not is a writer bug,
/// and recovery refuses to guess.
fn apply_rows(
    defs: &BTreeMap<String, TableDef>,
    rows: &mut HashMap<String, Vec<Row>>,
    rec: WalRecord,
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
    check_rows(def, &payload)?;
    let t = rows.entry(table).or_default();
    for (pos, row) in idx.into_iter().zip(payload) {
        set_row(t, pos, row)?;
    }
    Ok(())
}

impl Storage {
    /// Open (or create) a store: load the metadata and the snapshot,
    /// replay the commit log, truncate a torn tail, and return the tables
    /// (rows in insert order). Telemetry lands in `registry`
    /// (`storage.*` counters) and a `storage.recover` span.
    ///
    /// A directory stored as several shards, or in the retired
    /// single-WAL format, is refused with [`StorageError::Unsupported`];
    /// damage that is not a torn tail is [`StorageError::Corrupt`]. Every
    /// refusal comes before anything is written.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        config: DurabilityConfig,
        registry: &Registry,
    ) -> Result<Recovered, StorageError> {
        let start = Instant::now();
        let mut span = ferry_telemetry::span("storage.recover", "storage");
        let metrics = StorageMetrics::new(registry);
        let mut report = RecoveryReport::default();

        // 1. metadata (written at creation, so its absence means fresh)
        let meta = match read_meta(vfs.as_ref())? {
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
                    watermark: 0,
                    tables: Vec::new(),
                };
                write_meta(vfs.as_ref(), &m)?;
                m
            }
        };
        report.watermark_gsn = meta.watermark;

        // 2. snapshot + commit log
        let snap = read_snapshot(vfs.as_ref())?;
        if snap.gsn < meta.watermark {
            return Err(StorageError::Corrupt(format!(
                "snapshot covers gsn {} but the metadata's watermark is {}",
                snap.gsn, meta.watermark
            )));
        }
        report.snapshot_bytes = snap.bytes;
        let mut replay = replay_wal(vfs.read(COMMIT_LOG)?.as_deref())?;
        report.wal_frames = replay.records.len();
        report.wal_bytes = replay.good_bytes;
        let commits = index_commit_log(std::mem::take(&mut replay.records))?;

        // 3. rebuild state: defs from meta, rows from the snapshot, then
        //    commit-by-commit replay in GSN order
        let mut defs: BTreeMap<String, TableDef> = BTreeMap::new();
        let mut totals: HashMap<String, u64> = HashMap::new();
        for (def, total) in meta.tables {
            totals.insert(def.name.clone(), total);
            defs.insert(def.name.clone(), def);
        }
        let mut rows = snap.rows;
        let mut cut = snap.gsn;
        let mut applied_commits = 0usize;
        let mut applied_ops = 0u64;
        let next_lsn = commits.last().map_or(1, |c| c.lsn + 1);
        for commit in commits {
            let covered = commit.gsn <= snap.gsn;
            for rec in commit.ddl {
                let (def, payload) = ddl_def(rec)?;
                let name = def.name.clone();
                if commit.gsn > meta.watermark {
                    // re-created since the checkpoint: its recorded row
                    // count no longer bounds it
                    totals.remove(&name);
                }
                if !covered {
                    check_rows(&def, &payload)?;
                    rows.insert(name.clone(), payload);
                }
                defs.insert(name, def);
                applied_ops += 1;
            }
            for rec in commit.rows {
                if !covered {
                    apply_rows(&defs, &mut rows, rec)?;
                }
                applied_ops += 1;
            }
            cut = cut.max(commit.gsn);
            if commit.gsn > meta.watermark {
                applied_commits += 1;
            }
        }
        report.cut_gsn = cut;
        report.markers_applied = applied_commits;

        // 4. reassemble the tables and verify against the metadata (the
        //    shape check here is the snapshot rows'; logged rows were
        //    checked as they applied)
        let mut tables = Vec::with_capacity(defs.len());
        for (name, def) in defs {
            let out_rows = rows.remove(&name).unwrap_or_default();
            check_rows(&def, &out_rows)?;
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
            });
        }
        if let Some(name) = rows.keys().next() {
            return Err(StorageError::Corrupt(format!(
                "recovered rows for {name} but no definition created it"
            )));
        }

        // 5. repair the log: truncate a torn tail, recreate a missing file
        let file_len = if vfs.size(COMMIT_LOG)?.is_none() {
            vfs.append(COMMIT_LOG, WAL_MAGIC)?;
            vfs.sync(COMMIT_LOG)?;
            WAL_MAGIC.len() as u64
        } else if replay.good_bytes == 0 {
            // even the magic was torn off: start the file over
            vfs.truncate(COMMIT_LOG, 0)?;
            vfs.append(COMMIT_LOG, WAL_MAGIC)?;
            vfs.sync(COMMIT_LOG)?;
            report.repairs += 1;
            WAL_MAGIC.len() as u64
        } else {
            if replay.tail != Tail::Clean {
                vfs.truncate(COMMIT_LOG, replay.good_bytes)?;
                vfs.sync(COMMIT_LOG)?;
                report.repairs += 1;
            }
            replay.good_bytes
        };

        // 6. resume the appender past the kept extent
        let commit = Mutex::new(Wal::resume(
            vfs.clone(),
            COMMIT_LOG,
            config.fsync,
            next_lsn,
            file_len,
            metrics.wal_bytes.clone(),
            metrics.fsyncs.clone(),
        ));

        report.elapsed_us = start.elapsed().as_micros() as u64;
        metrics.recoveries.inc();
        span.attr("tables", tables.len())
            .attr("applied", applied_ops)
            .attr("cut_gsn", cut);
        Ok(Recovered {
            storage: Storage {
                vfs,
                commit,
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

    /// Log one transaction; returns its GSN. The commit frame carries
    /// `ddl`, then `rows` — [`WalRecord::ShardRows`] appends whose `gsn`
    /// fields are assigned here — then the marker: one CRC-atomic frame,
    /// so the commit is all-or-nothing. A commit with nothing to log (an
    /// empty insert) is a bare marker.
    ///
    /// Under [`FsyncPolicy::Always`](crate::FsyncPolicy::Always) *no*
    /// fsync happens here: the caller must not ack until
    /// [`Storage::group_sync`] reports the GSN durable.
    pub fn log_commit(
        &self,
        ddl: Vec<WalRecord>,
        rows: Vec<WalRecord>,
    ) -> Result<u64, StorageError> {
        let gsn = self.next_gsn.fetch_add(1, Ordering::SeqCst) + 1;
        let mut members = ddl;
        for mut rec in rows {
            match &mut rec {
                WalRecord::ShardRows { gsn: g, .. } => *g = gsn,
                other => {
                    return Err(StorageError::Codec(format!(
                        "row payload must be ShardRows, got {other:?}"
                    )))
                }
            }
            members.push(rec);
        }
        let ops = members.iter().map(WalRecord::op_count).sum::<u64>();
        let marker = WalRecord::ShardCommit { gsn, mask: 0 };
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
            // this gsn afterwards will capture a sync target covering it
            self.completed_gsn.store(gsn, Ordering::SeqCst);
        }
        self.metrics.wal_records.add(ops);
        self.records_since_checkpoint
            .fetch_add(ops, Ordering::Relaxed);
        Ok(gsn)
    }

    /// One group fsync of the commit log; returns the highest GSN now
    /// durable. The fsync runs outside the log lock — concurrent
    /// `log_commit` callers keep enqueuing into the next batch. If the
    /// log is already synced this is free (no fsync at all).
    ///
    /// An fsync failure nacks the whole unsynced tail (truncate back to
    /// the synced prefix, roll the LSN allocator back with it, poison
    /// until reopen).
    pub fn group_sync(&self) -> Result<u64, StorageError> {
        // the completed watermark is read first: its commit frame was
        // appended before this load, so the target captured below
        // covers it
        let completed = self.completed_gsn.load(Ordering::SeqCst);
        let target = {
            let commit = self.commit.lock().unwrap();
            commit.check_poisoned()?;
            let (lsn, bytes) = commit.sync_target();
            (lsn > commit.synced_lsn()).then_some((lsn, bytes))
        };
        if let Some((lsn, bytes)) = target {
            match self.vfs.sync(COMMIT_LOG) {
                Ok(()) => self.commit.lock().unwrap().mark_synced(lsn, bytes),
                Err(e) => {
                    self.commit.lock().unwrap().fail_sync();
                    return Err(e);
                }
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

    /// Checkpoint: sync the log, write the snapshot, install the
    /// metadata, then truncate the log. The caller must hold its commit
    /// lock (no transaction in flight).
    ///
    /// Crash-ordering: the snapshot first and the metadata second (each
    /// replaced atomically), the log truncation last — so a crash leaves
    /// the log holding every commit the metadata's watermark does not
    /// cover, and recovery reads the DDL of any commit the snapshot does.
    pub fn checkpoint(&self, images: &[TableImage]) -> Result<u64, StorageError> {
        let mut span = ferry_telemetry::span("storage.checkpoint", "storage");
        // anything the policy left unsynced must be durable before the
        // snapshot claims to cover it
        self.commit.lock().unwrap().sync()?;
        let watermark = self.completed_gsn.load(Ordering::SeqCst);
        let bytes = write_snapshot(self.vfs.as_ref(), watermark, images)?;
        write_meta(
            self.vfs.as_ref(),
            &Meta {
                watermark,
                tables: images
                    .iter()
                    .map(|img| (img.def.clone(), img.rows.len() as u64))
                    .collect(),
            },
        )?;
        self.commit.lock().unwrap().truncate_to_header()?;
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        self.durable_gsn.fetch_max(watermark, Ordering::SeqCst);
        self.metrics.snapshots.inc();
        span.attr("gsn", watermark).attr("bytes", bytes);
        Ok(watermark)
    }

    /// Force-fsync the log regardless of policy (shutdown hook).
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

    /// Has the log refused further I/O after an unrecoverable
    /// write/fsync failure? Reopening the database is the only cure.
    pub fn poisoned(&self) -> bool {
        self.commit.lock().unwrap().poisoned()
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

    fn try_open(vfs: &Arc<FaultFs>) -> Result<Recovered, StorageError> {
        Storage::open(
            vfs.clone() as Arc<dyn Vfs>,
            DurabilityConfig::default(),
            &Registry::default(),
        )
    }

    fn open(vfs: &Arc<FaultFs>) -> Recovered {
        try_open(vfs).unwrap()
    }

    fn create_t() -> WalRecord {
        WalRecord::CreateTable {
            name: "t".into(),
            schema: Schema::of(&[("k", Ty::Int)]),
            keys: vec!["k".into()],
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

    /// Every file of the store and its bytes.
    fn files(vfs: &FaultFs) -> Vec<(&'static str, Option<Vec<u8>>)> {
        [SHARD_META_FILE, COMMIT_LOG, SNAPSHOT_FILE]
            .into_iter()
            .map(|f| (f, vfs.read(f).unwrap()))
            .collect()
    }

    /// Append one hand-encoded commit-log frame with LSN `lsn`.
    fn append_frame(vfs: &FaultFs, lsn: u64, rec: &WalRecord) {
        let mut log = vfs.read(COMMIT_LOG).unwrap().unwrap();
        let mut e = Enc::new();
        e.u64(lsn);
        rec.encode(&mut e);
        write_frame(&mut log, &e.into_bytes()).unwrap();
        vfs.replace(COMMIT_LOG, &log).unwrap();
    }

    #[test]
    fn a_commit_is_one_frame_and_reopens_in_insert_order() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        assert!(r.tables.is_empty());
        let gsn = r
            .storage
            .log_commit(vec![create_t()], vec![rows_rec(&[0, 1]), rows_rec(&[2])])
            .unwrap();
        assert_eq!(gsn, 1);
        assert_eq!(r.storage.group_sync().unwrap(), 1);
        assert_eq!(r.storage.durable_gsn(), 1);
        let log = replay_wal(vfs.read(COMMIT_LOG).unwrap().as_deref()).unwrap();
        assert_eq!(log.records.len(), 1);
        assert!(matches!(
            &log.records[0].1,
            WalRecord::Batch(m) if matches!(m[..], [
                WalRecord::CreateTable { .. },
                WalRecord::ShardRows { gsn: 1, .. },
                WalRecord::ShardRows { gsn: 1, .. },
                WalRecord::ShardCommit { gsn: 1, mask: 0 },
            ])
        ));

        vfs.crash();
        let r2 = open(&vfs);
        assert_eq!(r2.tables.len(), 1);
        assert_eq!(
            r2.tables[0].rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)]
            ]
        );
        assert_eq!(r2.report.cut_gsn, 1);
        assert_eq!(r2.storage.next_gsn(), 2);
        assert!(r2.report.render().contains("recovery timeline"));
    }

    #[test]
    fn a_marker_naming_shard_wals_is_corrupt() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        r.storage.log_commit(vec![create_t()], Vec::new()).unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        append_frame(&vfs, 2, &WalRecord::ShardCommit { gsn: 2, mask: 1 });
        let before = files(&vfs);
        let err = try_open(&vfs).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert_eq!(files(&vfs), before);
    }

    #[test]
    fn multi_shard_and_legacy_directories_are_refused_untouched() {
        let vfs = Arc::new(FaultFs::new());
        let mut buf = SHARD_META_MAGIC.to_vec();
        let mut head = Enc::new();
        head.u32(4);
        head.u64(0);
        head.u32(0);
        write_frame(&mut buf, &head.into_bytes()).unwrap();
        vfs.replace(SHARD_META_FILE, &buf).unwrap();
        let before = files(&vfs);
        let err = try_open(&vfs).unwrap_err();
        assert!(matches!(err, StorageError::Unsupported(_)), "{err}");
        assert_eq!(files(&vfs), before);

        let legacy = Arc::new(FaultFs::new());
        legacy.append("wal", WAL_MAGIC).unwrap();
        let err = try_open(&legacy).unwrap_err();
        assert!(
            matches!(&err, StorageError::Unsupported(m) if m.contains("single-WAL")),
            "{err}"
        );
        assert_eq!(legacy.size(SHARD_META_FILE).unwrap(), None);
    }

    #[test]
    fn a_keyed_create_and_a_meta_shard_key_read_as_a_plain_table() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        let keyed = |name: &str| WalRecord::CreateTableSharded {
            name: name.into(),
            schema: Schema::of(&[("k", Ty::Int)]),
            keys: vec!["k".into()],
            shard_key: "k".into(),
        };
        r.storage
            .log_commit(vec![keyed("t")], vec![rows_rec(&[0])])
            .unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        // a metadata file whose table declares a shard key (tag 1)
        let mut buf = SHARD_META_MAGIC.to_vec();
        let mut head = Enc::new();
        head.u32(1);
        head.u64(0);
        head.u32(1);
        write_frame(&mut buf, &head.into_bytes()).unwrap();
        let mut e = Enc::new();
        e.str("u");
        e.schema(&Schema::of(&[("k", Ty::Int)]));
        e.strings(&[]);
        e.u8(1);
        e.str("k");
        e.u64(0);
        write_frame(&mut buf, &e.into_bytes()).unwrap();
        vfs.replace(SHARD_META_FILE, &buf).unwrap();
        let r = open(&vfs);
        let names: Vec<&str> = r.tables.iter().map(|t| t.def.name.as_str()).collect();
        assert_eq!(names, ["t", "u"]);
        assert_eq!(r.tables[0].rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn install_table_rides_the_commit_log() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
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
        let r2 = open(&vfs);
        assert_eq!(
            r2.tables[0].rows,
            vec![vec![Value::Int(5)], vec![Value::Int(6)]]
        );
    }

    #[test]
    fn wal_bytes_count_what_the_log_grew_by() {
        let vfs = Arc::new(FaultFs::new());
        let registry = Registry::default();
        let r = Storage::open(
            vfs.clone() as Arc<dyn Vfs>,
            DurabilityConfig::default(),
            &registry,
        )
        .unwrap();
        let counter = || registry.counter("storage.wal_bytes").unwrap().get();
        let (len0, bytes0) = (vfs.written_len(COMMIT_LOG), counter());
        r.storage
            .log_commit(vec![create_t()], vec![rows_rec(&[0, 1])])
            .unwrap();
        r.storage.group_sync().unwrap();
        let grown = vfs.written_len(COMMIT_LOG) - len0;
        assert!(grown > 0);
        assert_eq!(counter() - bytes0, grown);
    }

    #[test]
    fn a_row_positioned_past_its_table_is_corrupt_and_allocates_nothing() {
        let far = 1_000_000_000u64;
        // a commit frame inserting at position 1e9 of an empty table
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        r.storage.log_commit(vec![create_t()], Vec::new()).unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        let mut rows = rows_rec(&[far]);
        if let WalRecord::ShardRows { gsn, .. } = &mut rows {
            *gsn = 2;
        }
        let frame = WalRecord::Batch(vec![rows, WalRecord::ShardCommit { gsn: 2, mask: 0 }]);
        append_frame(&vfs, 2, &frame);
        let before = files(&vfs);
        let err = try_open(&vfs).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("1000000000")),
            "{err}"
        );
        assert_eq!(files(&vfs), before, "a refused open writes nothing");

        // a snapshot entry at position 1e9
        let vfs = Arc::new(FaultFs::new());
        drop(open(&vfs));
        let mut buf = SHARD_SNAP_MAGIC.to_vec();
        let mut head = Enc::new();
        head.u64(0);
        head.u32(1);
        write_frame(&mut buf, &head.into_bytes()).unwrap();
        let mut e = Enc::new();
        e.str("t");
        e.u64(1);
        e.u64(far);
        e.rows(&[vec![Value::Int(1)]]);
        write_frame(&mut buf, &e.into_bytes()).unwrap();
        vfs.replace(SNAPSHOT_FILE, &buf).unwrap();
        let before = files(&vfs);
        let err = try_open(&vfs).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("1000000000")),
            "{err}"
        );
        assert_eq!(files(&vfs), before, "a refused open writes nothing");
    }

    /// A snapshot or a commit whose rows contradict their table's schema —
    /// a short row, a mistyped cell — is refused as corrupt before
    /// anything is written.
    #[test]
    fn a_row_shaped_unlike_its_table_is_corrupt() {
        let two = TableDef {
            name: "t".into(),
            schema: Schema::of(&[("a", Ty::Int), ("b", Ty::Int)]),
            keys: vec![],
        };
        let short = vec![Value::Int(1)];
        let mistyped = vec![Value::str("x"), Value::Int(1)];
        let refused = |vfs: &Arc<FaultFs>, want: &str| {
            let before = files(vfs);
            let err = try_open(vfs).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(m) if m.contains(want)),
                "{err}"
            );
            assert_eq!(files(vfs), before, "a refused open writes nothing");
        };
        // the snapshot: a checkpoint of rows the definition contradicts,
        // at 3 rows and at 100
        for (row, want) in [
            (&short, "row width 1 != schema width 2"),
            (&mistyped, "column a: value 'x' is not int"),
        ] {
            for n in [3, 100] {
                let vfs = Arc::new(FaultFs::new());
                let r = open(&vfs);
                let image = TableImage {
                    def: two.clone(),
                    rows: vec![row.clone(); n],
                };
                r.storage.checkpoint(&[image]).unwrap();
                drop(r);
                refused(&vfs, want);
            }
        }
        // the commit log: a mistyped cell in appended rows, a short row in
        // an installed table
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        let create = WalRecord::CreateTable {
            name: "t".into(),
            schema: two.schema.clone(),
            keys: vec![],
        };
        let rows = WalRecord::ShardRows {
            gsn: 0,
            table: "t".into(),
            idx: vec![0, 1],
            rows: vec![vec![Value::Int(1), Value::Int(2)], mistyped.clone()],
        };
        r.storage.log_commit(vec![create], vec![rows]).unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        refused(&vfs, "column a: value 'x' is not int");
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        let install = WalRecord::InstallTable {
            name: "t".into(),
            schema: two.schema.clone(),
            keys: vec![],
            rows: vec![short.clone()],
        };
        r.storage.log_commit(vec![install], Vec::new()).unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        refused(&vfs, "row width 1 != schema width 2");
    }
}
