//! The store: one snapshot and one commit log. A commit is one frame, and
//! the frame's LSN is the commit's sequence number (its GSN).
//!
//! A storage directory holds three files, and this build reads no other
//! layout:
//!
//! * [`META_FILE`] (`FSMT0002`) — replace-installed metadata: the
//!   checkpoint watermark GSN and every table's definition (schema, keys,
//!   row count at the watermark);
//! * [`COMMIT_LOG`] — a [`Wal`](crate::wal::Wal) of *commit frames*: each
//!   commit is one CRC-atomic frame carrying its DDL records, then its
//!   inserts ([`WalRecord::Rows`]) — one frame in one file, made durable
//!   by one fsync;
//! * [`SNAPSHOT_FILE`] (`FSSH0002`) — the checkpointed rows of every
//!   non-empty table.
//!
//! **Refusal.** The metadata is installed before any other file, so a
//! directory is this build's own exactly when its `meta` starts with
//! [`META_MAGIC`], and fresh exactly when it holds no file at all
//! ([`Vfs::list`]). Anything else — an earlier build's layout, a foreign
//! file — is refused with [`StorageError::Unsupported`] naming what was
//! found, before anything is written.
//!
//! **Recovery** loads the snapshot, then walks the commit log in GSN
//! order. A commit the snapshot already covers (GSN at or below the
//! snapshot's) contributes only its DDL to the table definitions: the
//! metadata lags the snapshot when a checkpoint crashed between
//! installing the two. Every later commit is applied whole, its members
//! in order. A row whose shape contradicts its table's definition
//! ([`row_shape_error`]: the width, and each cell's type) is refused as
//! corrupt: the engine's typed kernels rely on every stored column being
//! type-uniform. A torn final frame is truncated away: no one was acked
//! for it, because acks wait for the fsync. The appender resumes one past
//! the recovered cut, so LSNs keep rising past a checkpoint that emptied
//! the log.

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
pub const COMMIT_LOG: &str = "log";

/// Replace-installed metadata file.
pub const META_FILE: &str = "meta";

/// The snapshot file.
pub const SNAPSHOT_FILE: &str = "snapshot";

/// Magic + format version of the metadata file — and so of the directory.
pub const META_MAGIC: &[u8; 8] = b"FSMT0002";

/// Magic + format version of the snapshot file: each table's rows.
pub const SNAP_MAGIC: &[u8; 8] = b"FSSH0002";

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
    pub commits_applied: usize,
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
            "replay log         {} frames  {} bytes  {} commits applied",
            self.wal_frames, self.wal_bytes, self.commits_applied
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
/// All methods take `&self`: the log sits behind a mutex, so concurrent
/// committers can append — each frame's LSN, the commit's GSN, is
/// assigned under it — and [`Storage::group_sync`] deliberately releases
/// it around the fsync itself: the window in which other appenders
/// enqueue is what group commit batches over.
#[derive(Debug)]
pub struct Storage {
    vfs: Arc<dyn Vfs>,
    commit: Mutex<Wal>,
    config: DurabilityConfig,
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
    buf.extend_from_slice(META_MAGIC);
    let mut head = Enc::new();
    head.u64(meta.watermark);
    head.u32(meta.tables.len() as u32);
    write_frame(&mut buf, &head.into_bytes())?;
    for (def, total) in &meta.tables {
        let mut e = Enc::new();
        e.str(&def.name);
        e.schema(&def.schema);
        e.strings(&def.keys);
        e.u64(*total);
        write_frame(&mut buf, &e.into_bytes())?;
    }
    vfs.replace(META_FILE, &buf)
}

/// The metadata, or `None` for a fresh directory: one that holds no file.
/// A directory this build did not write is refused `Unsupported`.
fn read_meta(vfs: &dyn Vfs) -> Result<Option<Meta>, StorageError> {
    let Some(bytes) = vfs.read(META_FILE)? else {
        let found = vfs.list()?;
        if found.is_empty() {
            return Ok(None);
        }
        return Err(StorageError::Unsupported(format!(
            "no `{META_FILE}`, but the directory holds {}: not a store this build wrote",
            found.join(", ")
        )));
    };
    let Some(body) = bytes.strip_prefix(META_MAGIC) else {
        let found = bytes.get(..META_MAGIC.len()).unwrap_or(&bytes);
        return Err(StorageError::Unsupported(format!(
            "`{META_FILE}` starts with `{}`, not `{}`: \
             written by another build, which this one does not read",
            found.escape_ascii(),
            META_MAGIC.escape_ascii()
        )));
    };
    let out = scan(body)?;
    if out.tail != Tail::Clean {
        return Err(StorageError::Corrupt(format!(
            "{META_FILE} has a damaged frame (it is installed atomically)"
        )));
    }
    let mut frames = out.frames.into_iter();
    let head = frames
        .next()
        .ok_or_else(|| StorageError::Corrupt(format!("{META_FILE} missing head frame")))?;
    let mut d = Dec::new(head);
    let watermark = d.u64()?;
    let count = d.u32()? as usize;
    d.finish()?;
    let mut tables = Vec::with_capacity(count.min(1 << 16));
    for payload in frames {
        let mut d = Dec::new(payload);
        let def = TableDef {
            name: d.str()?.to_string(),
            schema: d.schema()?,
            keys: d.strings()?,
        };
        let total = d.u64()?;
        d.finish()?;
        tables.push((def, total));
    }
    if tables.len() != count {
        return Err(StorageError::Corrupt(format!(
            "{META_FILE} declares {count} tables but holds {}",
            tables.len()
        )));
    }
    Ok(Some(Meta { watermark, tables }))
}

// ------------------------------------------------------------ snapshot

fn write_snapshot(vfs: &dyn Vfs, gsn: u64, images: &[TableImage]) -> Result<u64, StorageError> {
    let tables: Vec<&TableImage> = images.iter().filter(|img| !img.rows.is_empty()).collect();
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAP_MAGIC);
    let mut head = Enc::new();
    head.u64(gsn);
    head.u32(tables.len() as u32);
    write_frame(&mut buf, &head.into_bytes())?;
    for img in tables {
        let mut e = Enc::new();
        e.str(&img.def.name);
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
    let Some(body) = bytes.strip_prefix(SNAP_MAGIC) else {
        return Err(StorageError::Corrupt(format!("bad magic in {file}")));
    };
    let out = scan(body)?;
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
    for payload in frames {
        let mut d = Dec::new(payload);
        let name = d.str()?.to_string();
        let table = d.rows()?;
        d.finish()?;
        if rows.insert(name, table).is_some() {
            return Err(StorageError::Corrupt(format!("{file} holds a table twice")));
        }
    }
    if rows.len() != count {
        return Err(StorageError::Corrupt(format!(
            "{file} declares {count} tables but holds {}",
            rows.len()
        )));
    }
    Ok(Snapshot {
        gsn,
        rows,
        bytes: bytes.len() as u64,
    })
}

// ------------------------------------------------------------- recovery

/// The one row-shape check: `None` when `row` has `schema`'s width and
/// every cell the type its column declares, otherwise what is wrong. The
/// engine's `Tx::insert` refuses a mismatch with `TableMismatch`;
/// recovery refuses it as [`StorageError::Corrupt`].
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

/// Append one insert's `payload` to `table`. The table must be defined
/// and the rows must have its shape — a CRC-valid frame that breaks this
/// is a writer bug, and recovery refuses to guess.
fn apply_rows(
    defs: &BTreeMap<String, TableDef>,
    rows: &mut HashMap<String, Vec<Row>>,
    table: String,
    payload: Vec<Row>,
) -> Result<(), StorageError> {
    let Some(def) = defs.get(&table) else {
        return Err(StorageError::Corrupt(format!(
            "rows for {table} which nothing created"
        )));
    };
    check_rows(def, &payload)?;
    rows.entry(table).or_default().extend(payload);
    Ok(())
}

impl Storage {
    /// Open (or create) a store: load the metadata and the snapshot,
    /// replay the commit log, truncate a torn tail, and return the tables
    /// (rows in insert order). Telemetry lands in `registry`
    /// (`storage.*` counters) and a `storage.recover` span.
    ///
    /// A directory this build did not write is refused with
    /// [`StorageError::Unsupported`] (see the module docs); damage that is
    /// not a torn tail is [`StorageError::Corrupt`]. Every refusal comes
    /// before anything is written.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        config: DurabilityConfig,
        registry: &Registry,
    ) -> Result<Recovered, StorageError> {
        let start = Instant::now();
        let mut span = ferry_telemetry::span("storage.recover", "storage");
        let metrics = StorageMetrics::new(registry);
        let mut report = RecoveryReport::default();

        // 1. metadata (installed first at creation: absent means fresh)
        let meta = match read_meta(vfs.as_ref())? {
            Some(m) => m,
            None => {
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
        let log = vfs.read(COMMIT_LOG)?;
        let log_exists = log.is_some();
        let mut replay = replay_wal(log.as_deref())?;
        drop(log);
        report.wal_frames = replay.commits.len();
        report.wal_bytes = replay.good_bytes;
        let commits = std::mem::take(&mut replay.commits);

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
        let mut applied_ops = 0u64;
        for commit in commits {
            let covered = commit.lsn <= snap.gsn;
            for rec in commit.members {
                applied_ops += 1;
                match rec {
                    WalRecord::Rows {
                        table,
                        rows: payload,
                    } => {
                        if !covered {
                            apply_rows(&defs, &mut rows, table, payload)?;
                        }
                    }
                    // create-or-replace, as in the engine: the table
                    // restarts empty
                    WalRecord::CreateTable { name, schema, keys } => {
                        if commit.lsn > meta.watermark {
                            // re-created since the checkpoint: its recorded
                            // row count no longer bounds it
                            totals.remove(&name);
                        }
                        if !covered {
                            rows.remove(&name);
                        }
                        defs.insert(name.clone(), TableDef { name, schema, keys });
                    }
                }
            }
            cut = cut.max(commit.lsn);
            if commit.lsn > meta.watermark {
                report.commits_applied += 1;
            }
        }
        report.cut_gsn = cut;

        // 4. reassemble the tables and verify against the metadata: every
        //    key column lies in its schema, and the snapshot rows have
        //    their table's shape (logged rows were checked as they
        //    applied)
        let mut tables = Vec::with_capacity(defs.len());
        for (name, def) in defs {
            if let Some(k) = def.keys.iter().find(|k| !def.schema.contains(k)) {
                return Err(StorageError::Corrupt(format!(
                    "table {name}: key column {k} not in its schema {}",
                    def.schema
                )));
            }
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
        let file_len = if replay.good_bytes == 0 {
            // no log yet, or even its magic was torn off: start it over
            if log_exists {
                vfs.truncate(COMMIT_LOG, 0)?;
                report.repairs += 1;
            }
            vfs.append(COMMIT_LOG, WAL_MAGIC)?;
            vfs.sync(COMMIT_LOG)?;
            WAL_MAGIC.len() as u64
        } else {
            if replay.tail != Tail::Clean {
                vfs.truncate(COMMIT_LOG, replay.good_bytes)?;
                vfs.sync(COMMIT_LOG)?;
                report.repairs += 1;
            }
            replay.good_bytes
        };

        // 6. resume the appender one past the cut: the next commit's GSN
        let commit = Mutex::new(Wal::resume(
            vfs.clone(),
            COMMIT_LOG,
            cut + 1,
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
                records_since_checkpoint: AtomicU64::new(applied_ops),
                metrics,
            },
            tables,
            report,
        })
    }

    /// Log one transaction as one CRC-atomic commit frame holding
    /// `members` — its DDL, then its [`WalRecord::Rows`] — in order, so
    /// the commit is all-or-nothing; returns the frame's LSN, the
    /// commit's GSN. A commit with nothing to log is an empty frame.
    ///
    /// No fsync happens here: the caller must not ack until
    /// [`Storage::group_sync`] reports the GSN durable.
    pub fn log_commit(&self, members: &[WalRecord]) -> Result<u64, StorageError> {
        let gsn = self.commit.lock().unwrap().append(members)?;
        let ops = members.len() as u64;
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
        let (lsn, bytes) = {
            let commit = self.commit.lock().unwrap();
            commit.check_poisoned()?;
            let (lsn, bytes) = commit.sync_target();
            if lsn <= commit.synced_lsn() {
                return Ok(commit.synced_lsn());
            }
            (lsn, bytes)
        };
        let synced = self.vfs.sync(COMMIT_LOG);
        let mut commit = self.commit.lock().unwrap();
        match synced {
            Ok(()) => {
                commit.mark_synced(lsn, bytes);
                Ok(commit.synced_lsn())
            }
            Err(e) => {
                commit.fail_sync();
                Err(e)
            }
        }
    }

    /// Does the configured `checkpoint_every` call for a checkpoint now?
    pub fn checkpoint_due(&self) -> bool {
        self.config
            .checkpoint_every
            .is_some_and(|n| self.records_since_checkpoint.load(Ordering::Relaxed) >= n.max(1))
    }

    /// Checkpoint: group-sync the log, write the snapshot, install the
    /// metadata, then truncate the log. The caller must hold its commit
    /// lock (no transaction in flight). Returns the watermark: the GSN of
    /// the last commit, which the snapshot covers.
    ///
    /// Crash-ordering: the snapshot first and the metadata second (each
    /// replaced atomically), the log truncation last — so a crash leaves
    /// the log holding every commit the metadata's watermark does not
    /// cover, and recovery reads the DDL of any commit the snapshot does.
    pub fn checkpoint(&self, images: &[TableImage]) -> Result<u64, StorageError> {
        let mut span = ferry_telemetry::span("storage.checkpoint", "storage");
        // a commit still awaiting its group fsync must be durable before
        // the snapshot claims to cover it
        let watermark = self.group_sync()?;
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
        self.metrics.snapshots.inc();
        span.attr("gsn", watermark).attr("bytes", bytes);
        Ok(watermark)
    }

    /// Highest GSN guaranteed durable: the commit log's synced LSN, which
    /// `ferry.storage` reports as `synced_lsn`.
    pub fn durable_gsn(&self) -> u64 {
        self.commit.lock().unwrap().synced_lsn()
    }

    /// Has the log refused further I/O after an unrecoverable
    /// write/fsync failure? Reopening the database is the only cure.
    pub fn poisoned(&self) -> bool {
        self.commit.lock().unwrap().poisoned()
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

    fn ints(ks: &[i64]) -> Vec<Row> {
        ks.iter().map(|k| vec![Value::Int(*k)]).collect()
    }

    fn rows_rec(ks: &[i64]) -> WalRecord {
        WalRecord::Rows {
            table: "t".into(),
            rows: ints(ks),
        }
    }

    /// Every file of the directory and its bytes.
    fn files(vfs: &FaultFs) -> Vec<(String, Option<Vec<u8>>)> {
        let names = vfs.list().unwrap();
        names
            .into_iter()
            .map(|f| (f.clone(), vfs.read(&f).unwrap()))
            .collect()
    }

    /// Opening `vfs` fails naming `want`, and writes nothing.
    fn refused(vfs: &Arc<FaultFs>, want: &str) -> StorageError {
        let before = files(vfs);
        let err = try_open(vfs).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
        assert_eq!(files(vfs), before, "a refused open writes nothing");
        err
    }

    #[test]
    fn a_commit_is_one_frame_whose_lsn_is_its_gsn() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        assert!(r.tables.is_empty());
        let members = [create_t(), rows_rec(&[0, 1]), rows_rec(&[2])];
        assert_eq!(r.storage.log_commit(&members).unwrap(), 1);
        assert_eq!(r.storage.group_sync().unwrap(), 1);
        assert_eq!(r.storage.durable_gsn(), 1);
        let log = replay_wal(vfs.read(COMMIT_LOG).unwrap().as_deref()).unwrap();
        assert_eq!(log.commits.len(), 1);
        assert_eq!(log.commits[0].lsn, 1);
        assert_eq!(log.commits[0].members, members);

        vfs.crash();
        let r2 = open(&vfs);
        assert_eq!(r2.tables.len(), 1);
        assert_eq!(r2.tables[0].rows, ints(&[0, 1, 2]));
        assert_eq!(r2.report.cut_gsn, 1);
        assert!(r2.report.render().contains("1 commits applied"));
        assert_eq!(r2.storage.log_commit(&[]).unwrap(), 2);
    }

    #[test]
    fn a_fresh_store_installs_its_meta_first() {
        let vfs = Arc::new(FaultFs::new());
        vfs.inject(crate::Fault::TornAppend {
            path: COMMIT_LOG.into(),
            at: 0,
        });
        assert!(try_open(&vfs).is_err());
        vfs.crash();
        let meta = vfs.read(META_FILE).unwrap().unwrap();
        assert_eq!(meta.get(..8), Some(&META_MAGIC[..]));
        // the interrupted creation reopens as this build's own store
        assert!(open(&vfs).tables.is_empty());
        assert_eq!(vfs.list().unwrap(), [COMMIT_LOG, META_FILE]);
    }

    /// A directory with no `meta` opens only when it holds no file at all:
    /// an earlier build's single-WAL layout is refused, and so is a lone
    /// foreign file, each naming what it found.
    #[test]
    fn a_directory_without_meta_and_with_files_is_refused() {
        let legacy = Arc::new(FaultFs::new());
        legacy.append("wal", WAL_MAGIC).unwrap();
        legacy.replace("snapshot", b"FSNP0001").unwrap();
        let err = refused(&legacy, "snapshot, wal");
        assert!(matches!(err, StorageError::Unsupported(_)), "{err}");

        let foreign = Arc::new(FaultFs::new());
        foreign.replace("notes.txt", b"hello").unwrap();
        let err = refused(&foreign, "notes.txt");
        assert!(matches!(err, StorageError::Unsupported(_)), "{err}");
    }

    #[test]
    fn a_meta_of_another_format_is_refused() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        r.storage.log_commit(&[create_t(), rows_rec(&[1])]).unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        let mut meta = vfs.read(META_FILE).unwrap().unwrap();
        meta[..8].copy_from_slice(b"FSMT0001");
        vfs.replace(META_FILE, &meta).unwrap();
        let err = refused(&vfs, "FSMT0001");
        assert!(matches!(err, StorageError::Unsupported(_)), "{err}");
    }

    /// A table whose key column is missing from its schema is refused as
    /// corrupt, naming the table and the key, before anything is written.
    #[test]
    fn a_key_outside_its_schema_is_corrupt() {
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        let create = WalRecord::CreateTable {
            name: "t".into(),
            schema: Schema::of(&[("k", Ty::Int)]),
            keys: vec!["zzz".into()],
        };
        r.storage.log_commit(&[create]).unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        let err = refused(&vfs, "table t: key column zzz not in its schema");
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
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
            .log_commit(&[create_t(), rows_rec(&[0, 1])])
            .unwrap();
        r.storage.group_sync().unwrap();
        let grown = vfs.written_len(COMMIT_LOG) - len0;
        assert!(grown > 0);
        assert_eq!(counter() - bytes0, grown);
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
                let err = refused(&vfs, want);
                assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
            }
        }
        // the commit log: a mistyped cell in appended rows
        let vfs = Arc::new(FaultFs::new());
        let r = open(&vfs);
        let create = WalRecord::CreateTable {
            name: "t".into(),
            schema: two.schema.clone(),
            keys: vec![],
        };
        let rows = WalRecord::Rows {
            table: "t".into(),
            rows: vec![vec![Value::Int(1), Value::Int(2)], mistyped.clone()],
        };
        r.storage.log_commit(&[create, rows]).unwrap();
        r.storage.group_sync().unwrap();
        drop(r);
        let err = refused(&vfs, "column a: value 'x' is not int");
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }
}
