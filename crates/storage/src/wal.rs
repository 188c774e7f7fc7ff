//! One append-only log file — the commit log — and its record vocabulary.
//!
//! File layout: the 8-byte magic [`WAL_MAGIC`] (which embeds the codec
//! version), then one [frame](crate::frame) per logged record. Each
//! frame payload is `[lsn: u64][record]` with the record encoded by
//! [`codec`](crate::codec). LSNs are per file, assigned here, start at
//! 1, and are strictly monotone; replay rejects any other sequence as
//! corruption.
//!
//! Appends are acknowledged only after the bytes are handed to the VFS
//! and the [`FsyncPolicy`] has been satisfied — `Always` waits for the
//! group-commit leader's fsync, `EveryN(n)` amortises one fsync over
//! `n` records, `Os` never syncs and leaves durability to the OS page
//! cache (fastest, weakest: a crash can lose any suffix, but never the
//! prefix property).

use crate::codec::{Dec, Enc};
use crate::frame::{scan, write_frame, Tail};
use crate::fs::Vfs;
use crate::{FsyncPolicy, StorageError};
use ferry_algebra::{Row, Schema};
use ferry_telemetry::Counter;
use std::sync::Arc;

/// Magic + format version of the WAL file ("FWAL" + version 0001).
pub const WAL_MAGIC: &[u8; 8] = b"FWAL0001";

/// One logged catalog mutation — the durable mirror of the `Database`
/// mutation API.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `Database::create_table` (validated; table starts empty).
    CreateTable {
        name: String,
        schema: Schema,
        keys: Vec<String>,
    },
    /// `Database::install_table` (unvalidated escape hatch; carries the
    /// full row payload it was installed with).
    InstallTable {
        name: String,
        schema: Schema,
        keys: Vec<String>,
        rows: Vec<Row>,
    },
    /// Several records logged as a single frame so the CRC makes them
    /// all-or-nothing: a crash either replays the whole batch or none of
    /// it. A commit frame is one.
    Batch(Vec<WalRecord>),
    /// A create that also names a partitioning column. Recovery reads it
    /// as a [`WalRecord::CreateTable`] and ignores `shard_key`; the engine
    /// never writes it.
    CreateTableSharded {
        name: String,
        schema: Schema,
        keys: Vec<String>,
        shard_key: String,
    },
    /// One insert of a transaction, carried inside its commit frame.
    /// `idx[i]` is the *absolute* position of `rows[i]` in the table's
    /// insert order: each insert appends at the table's end, so the
    /// positions of one table are dense and ascending.
    ShardRows {
        gsn: u64,
        table: String,
        idx: Vec<u64>,
        rows: Vec<Row>,
    },
    /// The marker that ends a commit frame and seals group sequence
    /// number `gsn`. `mask` names the shard WALs holding the commit's
    /// rows in a multi-shard store; a one-shard store writes 0 and
    /// recovery refuses any other value as corrupt.
    ShardCommit { gsn: u64, mask: u64 },
}

impl WalRecord {
    pub(crate) fn encode(&self, e: &mut Enc) {
        match self {
            WalRecord::CreateTable { name, schema, keys } => {
                e.u8(1);
                e.str(name);
                e.schema(schema);
                e.strings(keys);
            }
            WalRecord::InstallTable {
                name,
                schema,
                keys,
                rows,
            } => {
                e.u8(2);
                e.str(name);
                e.schema(schema);
                e.strings(keys);
                e.rows(rows);
            }
            WalRecord::Batch(recs) => {
                e.u8(4);
                e.u64(recs.len() as u64);
                for rec in recs {
                    rec.encode(e);
                }
            }
            WalRecord::CreateTableSharded {
                name,
                schema,
                keys,
                shard_key,
            } => {
                e.u8(5);
                e.str(name);
                e.schema(schema);
                e.strings(keys);
                e.str(shard_key);
            }
            WalRecord::ShardRows {
                gsn,
                table,
                idx,
                rows,
            } => {
                e.u8(6);
                e.u64(*gsn);
                e.str(table);
                e.u64(idx.len() as u64);
                for i in idx {
                    e.u64(*i);
                }
                e.rows(rows);
            }
            WalRecord::ShardCommit { gsn, mask } => {
                e.u8(7);
                e.u64(*gsn);
                e.u64(*mask);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<WalRecord, StorageError> {
        Self::decode_nested(d, false)
    }

    /// `decode`, tracking whether we are already inside a batch. The
    /// engine never writes `Batch` inside `Batch`, so a nested tag-4
    /// frame is corruption — rejecting it also bounds the recursion
    /// depth (a crafted ~10-bytes-per-level log would otherwise
    /// overflow the stack during recovery instead of erroring).
    fn decode_nested(d: &mut Dec<'_>, in_batch: bool) -> Result<WalRecord, StorageError> {
        Ok(match d.u8()? {
            1 => WalRecord::CreateTable {
                name: d.str()?.to_string(),
                schema: d.schema()?,
                keys: d.strings()?,
            },
            2 => WalRecord::InstallTable {
                name: d.str()?.to_string(),
                schema: d.schema()?,
                keys: d.strings()?,
                rows: d.rows()?,
            },
            4 => {
                if in_batch {
                    return Err(StorageError::Codec("nested WAL batch record".to_string()));
                }
                let n = d.u64()?;
                let mut recs = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    recs.push(WalRecord::decode_nested(d, true)?);
                }
                WalRecord::Batch(recs)
            }
            5 => WalRecord::CreateTableSharded {
                name: d.str()?.to_string(),
                schema: d.schema()?,
                keys: d.strings()?,
                shard_key: d.str()?.to_string(),
            },
            6 => {
                let gsn = d.u64()?;
                let table = d.str()?.to_string();
                let n = d.u64()?;
                let mut idx = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    idx.push(d.u64()?);
                }
                let rows = d.rows()?;
                if idx.len() != rows.len() {
                    return Err(StorageError::Codec(format!(
                        "shard rows record carries {} positions for {} rows",
                        idx.len(),
                        rows.len()
                    )));
                }
                WalRecord::ShardRows {
                    gsn,
                    table,
                    idx,
                    rows,
                }
            }
            7 => WalRecord::ShardCommit {
                gsn: d.u64()?,
                mask: d.u64()?,
            },
            t => return Err(StorageError::Codec(format!("unknown WAL record tag {t}"))),
        })
    }

    /// Rows carried by this record (for span/report accounting).
    pub fn row_count(&self) -> usize {
        match self {
            WalRecord::CreateTable { .. }
            | WalRecord::CreateTableSharded { .. }
            | WalRecord::ShardCommit { .. } => 0,
            WalRecord::InstallTable { rows, .. } | WalRecord::ShardRows { rows, .. } => rows.len(),
            WalRecord::Batch(recs) => recs.iter().map(WalRecord::row_count).sum(),
        }
    }

    /// Operations carried by this record (1 for bare records, the batch
    /// length for [`WalRecord::Batch`]) — the `storage.wal_records` unit.
    pub fn op_count(&self) -> u64 {
        match self {
            WalRecord::Batch(recs) => recs.iter().map(WalRecord::op_count).sum(),
            _ => 1,
        }
    }
}

/// The appender half of one log file. Holds the fsync policy, the LSN
/// allocator, and the metric handles it bumps on the hot path.
#[derive(Debug)]
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    /// VFS path of the log this handle appends to.
    file: String,
    policy: FsyncPolicy,
    next_lsn: u64,
    /// Highest LSN known durable under the current policy (== last acked
    /// LSN for `Always`; trails it for `EveryN`/`Os`).
    synced_lsn: u64,
    unsynced: u64,
    /// Total bytes in the WAL file (magic included) as this handle knows
    /// it — the rollback target after a failed append.
    bytes_len: u64,
    /// Byte length of the prefix covered by the last successful fsync —
    /// the rollback target after a failed fsync.
    synced_bytes: u64,
    /// Set after a write/fsync failure this handle could not roll back
    /// (or any fsync failure — see [`Wal::sync`]): every further
    /// operation fails until the database is reopened.
    poisoned: bool,
    /// The counter the bytes appended here are added to.
    wal_bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
}

impl Wal {
    /// Resume appending after recovery: `next_lsn` continues where the
    /// recovered log left off. The file (with magic) must already exist,
    /// be `file_len` bytes long, and be fully synced.
    pub(crate) fn resume(
        vfs: Arc<dyn Vfs>,
        file: &str,
        policy: FsyncPolicy,
        next_lsn: u64,
        file_len: u64,
        wal_bytes: Arc<Counter>,
        fsyncs: Arc<Counter>,
    ) -> Wal {
        Wal {
            vfs,
            file: file.to_string(),
            policy,
            next_lsn,
            synced_lsn: next_lsn - 1,
            unsynced: 0,
            bytes_len: file_len,
            synced_bytes: file_len,
            poisoned: false,
            wal_bytes,
            fsyncs,
        }
    }

    pub(crate) fn check_poisoned(&self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(
                "WAL poisoned by an earlier write/fsync failure; \
                 reopen the database to recover"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Append one record; returns its LSN. Only the `EveryN` cadence
    /// syncs here: under `Always` the fsync belongs to the group-commit
    /// leader (one fsync for every record enqueued while it ran), so the
    /// caller must not ack until [`Wal::mark_synced`] covers the LSN.
    /// On failure nothing is acked and nothing of the record can ever
    /// become durable: the file is rolled back to its pre-call length
    /// (on a failed write) or to the synced prefix (on a failed fsync),
    /// and if even that is impossible the handle is poisoned so no later
    /// append can flush the rejected bytes.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, StorageError> {
        self.check_poisoned()?;
        let lsn = self.next_lsn;
        let mut span = ferry_telemetry::span("wal.append", "storage");
        let mut e = Enc::new();
        e.u64(lsn);
        rec.encode(&mut e);
        let payload = e.into_bytes();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        // an oversized record is refused before any I/O: state unchanged,
        // the LSN is reused by the next append
        write_frame(&mut framed, &payload)?;
        span.attr("lsn", lsn)
            .attr("bytes", framed.len())
            .attr("rows", rec.row_count());
        if let Err(e) = self.vfs.append(&self.file, &framed) {
            // the write may have landed partially; cut back to the last
            // known-good length, else refuse all further I/O
            if self.vfs.truncate(&self.file, self.bytes_len).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.bytes_len += framed.len() as u64;
        self.wal_bytes.add(framed.len() as u64);
        self.next_lsn += 1;
        self.unsynced += 1;
        if let FsyncPolicy::EveryN(n) = self.policy {
            if self.unsynced >= n.max(1) as u64 {
                self.sync()?;
            }
        }
        Ok(lsn)
    }

    /// The `(lsn, bytes_len)` pair a group-commit leader's fsync will
    /// cover. The leader captures this under the WAL lock, performs the
    /// fsync *without* the lock (so concurrent appenders keep enqueuing —
    /// that overlap is the whole batching win), then reports back via
    /// [`Wal::mark_synced`] or [`Wal::fail_sync`].
    pub(crate) fn sync_target(&self) -> (u64, u64) {
        (self.next_lsn - 1, self.bytes_len)
    }

    /// A leader's unlocked fsync succeeded for the [`Wal::sync_target`]
    /// captured as `(lsn, bytes)`. Monotone-max because a slow leader may
    /// report after a faster one already advanced the watermark.
    pub(crate) fn mark_synced(&mut self, lsn: u64, bytes: u64) {
        self.fsyncs.inc();
        self.synced_lsn = self.synced_lsn.max(lsn);
        self.synced_bytes = self.synced_bytes.max(bytes);
        self.unsynced = (self.next_lsn - 1).saturating_sub(self.synced_lsn);
    }

    /// A leader's unlocked fsync failed: same contract as the error arm
    /// of [`Wal::sync`] — truncate the nacked tail back to the synced
    /// prefix (rolling the LSN allocator with it) and poison the handle.
    pub(crate) fn fail_sync(&mut self) {
        if self.vfs.truncate(&self.file, self.synced_bytes).is_ok() {
            self.bytes_len = self.synced_bytes;
            self.next_lsn = self.synced_lsn + 1;
            self.unsynced = 0;
        }
        self.poisoned = true;
    }

    /// Force an fsync regardless of policy (checkpoints, shutdown).
    ///
    /// On failure the unsynced tail holds records whose callers were (or
    /// are being) told "failed" — it is truncated back to the synced
    /// prefix (rolling `next_lsn` back with it) so no later fsync can
    /// durably commit a nacked record, and the handle is poisoned
    /// regardless: after a failed fsync the kernel may have dropped the
    /// dirty pages, so only a reopen that re-reads the file is sound.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.check_poisoned()?;
        match self.vfs.sync(&self.file) {
            Ok(()) => {
                self.fsyncs.inc();
                self.unsynced = 0;
                self.synced_lsn = self.next_lsn - 1;
                self.synced_bytes = self.bytes_len;
                Ok(())
            }
            Err(e) => {
                if self.vfs.truncate(&self.file, self.synced_bytes).is_ok() {
                    self.bytes_len = self.synced_bytes;
                    self.next_lsn = self.synced_lsn + 1;
                    self.unsynced = 0;
                }
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Truncate the log back to its header after a checkpoint and make
    /// the truncation durable. LSNs keep counting — the snapshot covers
    /// the removed prefix. A failure here poisons the handle: the file
    /// length is no longer known.
    pub(crate) fn truncate_to_header(&mut self) -> Result<(), StorageError> {
        self.check_poisoned()?;
        let header = WAL_MAGIC.len() as u64;
        if let Err(e) = self
            .vfs
            .truncate(&self.file, header)
            .and_then(|()| self.vfs.sync(&self.file))
        {
            self.poisoned = true;
            return Err(e);
        }
        self.bytes_len = header;
        self.synced_bytes = header;
        Ok(())
    }

    /// The LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Highest LSN guaranteed durable so far (see the field docs).
    pub fn synced_lsn(&self) -> u64 {
        self.synced_lsn
    }

    /// Has this handle refused further I/O after an unrecoverable
    /// write/fsync failure? Reopening the database is the only cure.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }
}

/// Result of reading a WAL file back.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded records, in LSN order.
    pub records: Vec<(u64, WalRecord)>,
    /// Tail classification from the frame scanner.
    pub tail: Tail,
    /// Byte length of the valid region (magic + good frames); a torn
    /// file is truncated back to this.
    pub good_bytes: u64,
}

/// Decode the WAL from raw file bytes. `None` input (no file yet) is an
/// empty log. Frame-level damage at the tail is reported as [`Tail::Torn`]
/// (the caller repairs by truncating); anything else — bad magic, decode
/// failure inside a CRC-valid frame, non-monotone LSNs, valid frames
/// after a bad one — is [`StorageError::Corrupt`]/[`StorageError::Codec`].
pub fn replay_wal(bytes: Option<&[u8]>) -> Result<WalReplay, StorageError> {
    let bytes = match bytes {
        None => {
            return Ok(WalReplay {
                records: Vec::new(),
                tail: Tail::Clean,
                good_bytes: 0,
            })
        }
        Some(b) => b,
    };
    if bytes.len() < WAL_MAGIC.len() {
        // a crash can tear even the magic of a freshly created log
        return Ok(WalReplay {
            records: Vec::new(),
            tail: Tail::Torn { offset: 0 },
            good_bytes: 0,
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StorageError::Corrupt(format!(
            "bad WAL magic {:?} (expected {:?})",
            &bytes[..WAL_MAGIC.len()],
            WAL_MAGIC
        )));
    }
    let body = &bytes[WAL_MAGIC.len()..];
    let out = scan(body)?;
    let mut records = Vec::with_capacity(out.frames.len());
    let mut last_lsn = 0u64;
    for payload in out.frames {
        let mut d = Dec::new(payload);
        let lsn = d.u64()?;
        let rec = WalRecord::decode(&mut d)?;
        d.finish()?;
        if lsn <= last_lsn {
            return Err(StorageError::Corrupt(format!(
                "non-monotone LSN {lsn} after {last_lsn}"
            )));
        }
        last_lsn = lsn;
        records.push((lsn, rec));
    }
    Ok(WalReplay {
        records,
        tail: out.tail,
        good_bytes: WAL_MAGIC.len() as u64 + out.good_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Fault, FaultFs};
    use ferry_algebra::{Ty, Value};

    const LOG: &str = "log";

    fn fresh_wal(vfs: Arc<dyn Vfs>, policy: FsyncPolicy) -> Wal {
        vfs.append(LOG, WAL_MAGIC).unwrap();
        vfs.sync(LOG).unwrap();
        let (bytes, fsyncs) = (Arc::new(Counter::default()), Arc::default());
        Wal::resume(vfs, LOG, policy, 1, WAL_MAGIC.len() as u64, bytes, fsyncs)
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::of(&[("k", Ty::Int), ("v", Ty::Str)]);
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema: schema.clone(),
                keys: vec!["k".into()],
            },
            WalRecord::ShardRows {
                gsn: 7,
                table: "t".into(),
                idx: vec![0, 3],
                rows: vec![
                    vec![Value::Int(1), Value::str("one")],
                    vec![Value::Int(2), Value::str("two")],
                ],
            },
            WalRecord::InstallTable {
                name: "u".into(),
                schema,
                keys: vec![],
                rows: vec![vec![Value::Int(9), Value::str("nine")]],
            },
        ]
    }

    fn replay(vfs: &FaultFs) -> WalReplay {
        replay_wal(Some(&vfs.read(LOG).unwrap().unwrap())).unwrap()
    }

    #[test]
    fn append_replay_roundtrip() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone(), FsyncPolicy::Always);
        let recs = sample_records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(wal.append(r).unwrap(), (i + 1) as u64);
        }
        let replay = replay(&vfs);
        assert_eq!(replay.tail, Tail::Clean);
        assert_eq!(
            replay.records,
            recs.into_iter()
                .enumerate()
                .map(|(i, r)| ((i + 1) as u64, r))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn decode_roundtrips_flat_batch_but_rejects_nested() {
        let mut members = sample_records();
        members.push(WalRecord::CreateTableSharded {
            name: "s".into(),
            schema: Schema::of(&[("k", Ty::Int)]),
            keys: vec!["k".into()],
            shard_key: "k".into(),
        });
        members.push(WalRecord::ShardCommit {
            gsn: 7,
            mask: 0b1010,
        });
        let flat = WalRecord::Batch(members);
        let mut e = Enc::new();
        flat.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(WalRecord::decode(&mut d).unwrap(), flat);
        d.finish().unwrap();

        // the engine never writes Batch-inside-Batch, so a nested tag-4
        // frame is corruption — and must fail as a codec error rather
        // than recurse (a ~10-byte-per-level chain would otherwise
        // overflow the stack during recovery)
        let nested = WalRecord::Batch(vec![WalRecord::Batch(sample_records())]);
        let mut e = Enc::new();
        nested.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            WalRecord::decode(&mut d),
            Err(StorageError::Codec(_))
        ));
    }

    #[test]
    fn only_every_n_syncs_inline_and_leaders_mark_the_rest() {
        for (policy, expect_syncs) in [
            (FsyncPolicy::Always, 0),
            (FsyncPolicy::EveryN(2), 1),
            (FsyncPolicy::Os, 0),
        ] {
            let vfs = Arc::new(FaultFs::new());
            let mut wal = fresh_wal(vfs.clone(), policy);
            let before = vfs.syncs(); // the magic write syncs once
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            assert_eq!(vfs.syncs() - before, expect_syncs, "{policy:?}");
            let inline = if expect_syncs > 0 { 2 } else { 0 };
            assert_eq!(wal.synced_lsn(), inline, "{policy:?}");
            // the group-commit leader's fsync covers the rest
            let (lsn, bytes) = wal.sync_target();
            assert_eq!(lsn, 3);
            vfs.sync(LOG).unwrap();
            wal.mark_synced(lsn, bytes);
            assert_eq!(wal.synced_lsn(), 3);
            // a stale leader reporting an older target must not move
            // watermarks backwards
            wal.mark_synced(1, 8);
            assert_eq!(wal.synced_lsn(), 3);
        }
    }

    #[test]
    fn empty_and_missing_logs_replay_empty() {
        let replay = replay_wal(None).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.tail, Tail::Clean);
        let replay = replay_wal(Some(WAL_MAGIC)).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.good_bytes, 8);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        assert!(matches!(
            replay_wal(Some(b"NOTAWAL0rest")),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_magic_is_a_torn_tail() {
        let replay = replay_wal(Some(b"FWA")).unwrap();
        assert_eq!(replay.tail, Tail::Torn { offset: 0 });
        assert_eq!(replay.good_bytes, 0);
    }

    #[test]
    fn failed_fsync_rolls_back_the_rejected_record_and_poisons() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone(), FsyncPolicy::Always);
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        wal.sync().unwrap();
        let acked_len = vfs.written_len(LOG);
        vfs.inject(Fault::FailFsync { path: LOG.into() });
        wal.append(&recs[1]).unwrap();
        assert!(matches!(wal.sync(), Err(StorageError::Io(_))));
        // the nacked record is cut out of the file, so no later fsync —
        // by us or the OS — can ever durably commit it
        assert_eq!(vfs.written_len(LOG), acked_len);
        assert_eq!(wal.next_lsn(), 2, "the rejected LSN is rolled back");
        // and the handle refuses all further I/O until reopen
        assert!(wal.poisoned());
        assert!(matches!(wal.append(&recs[2]), Err(StorageError::Io(_))));
        assert!(matches!(wal.sync(), Err(StorageError::Io(_))));
        assert_eq!(vfs.written_len(LOG), acked_len);
        // replay (as a reopen would) sees exactly the acked prefix
        assert_eq!(replay(&vfs).records, vec![(1, recs[0].clone())]);
    }

    #[test]
    fn fail_sync_rolls_back_like_a_failed_inline_fsync() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone(), FsyncPolicy::Always);
        wal.append(&sample_records()[0]).unwrap();
        wal.sync().unwrap();
        let acked_len = vfs.written_len(LOG);
        wal.append(&sample_records()[1]).unwrap();
        wal.fail_sync();
        assert!(wal.poisoned());
        assert_eq!(vfs.written_len(LOG), acked_len);
        assert_eq!(wal.next_lsn(), 2, "rejected LSN rolled back");
        assert_eq!(replay(&vfs).records.len(), 1);
    }

    #[test]
    fn oversized_record_is_refused_and_its_lsn_reused() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone(), FsyncPolicy::Always);
        let huge = WalRecord::InstallTable {
            name: "t".into(),
            schema: Schema::of(&[("s", Ty::Str)]),
            keys: vec![],
            rows: vec![vec![Value::str(
                "x".repeat(crate::frame::MAX_FRAME_LEN as usize + 1),
            )]],
        };
        let err = wal.append(&huge).unwrap_err();
        assert!(matches!(err, StorageError::Codec(_)), "{err}");
        // nothing was written or acked; the next record takes LSN 1
        assert!(!wal.poisoned());
        assert_eq!(vfs.written_len(LOG), WAL_MAGIC.len() as u64);
        assert_eq!(wal.append(&sample_records()[0]).unwrap(), 1);
    }

    #[test]
    fn batch_record_is_one_frame_and_roundtrips() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone(), FsyncPolicy::Always);
        let batch = WalRecord::Batch(sample_records());
        assert_eq!(batch.op_count(), 3);
        assert_eq!(batch.row_count(), 3);
        assert_eq!(wal.append(&batch).unwrap(), 1, "one LSN for the batch");
        assert_eq!(wal.next_lsn(), 2);
        assert_eq!(replay(&vfs).records, vec![(1, batch)]);
    }

    #[test]
    fn torn_batch_frame_replays_none_of_its_operations() {
        // a batch is all-or-nothing: tearing any byte of its single frame
        // drops the whole transaction at replay, never a prefix of it
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone(), FsyncPolicy::Always);
        wal.append(&sample_records()[0]).unwrap();
        let intact = vfs.written_len(LOG);
        wal.append(&WalRecord::Batch(sample_records()[1..].to_vec()))
            .unwrap();
        let torn = intact + (vfs.written_len(LOG) - intact) / 2;
        vfs.truncate(LOG, torn).unwrap();
        let replay = replay(&vfs);
        assert_eq!(replay.records.len(), 1, "only the pre-batch record");
        assert!(matches!(replay.tail, Tail::Torn { .. }));
        assert_eq!(replay.good_bytes, intact);
    }

    #[test]
    fn shard_rows_position_count_mismatch_is_codec_error() {
        // hand-encode a tag-6 record whose idx list is shorter than its
        // row payload — recovery must reject it, not misalign positions
        let mut e = Enc::new();
        e.u8(6);
        e.u64(1); // gsn
        e.str("t");
        e.u64(1); // one position...
        e.u64(0);
        e.rows(&[vec![Value::Int(1)], vec![Value::Int(2)]]); // ...two rows
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            WalRecord::decode(&mut d),
            Err(StorageError::Codec(_))
        ));
    }

    #[test]
    fn non_monotone_lsn_is_corrupt() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone(), FsyncPolicy::Always);
        let rec = &sample_records()[0];
        wal.append(rec).unwrap();
        // duplicate LSN 1 by appending a hand-built frame
        let mut e = Enc::new();
        e.u64(1);
        rec.encode(&mut e);
        let mut framed = Vec::new();
        write_frame(&mut framed, &e.into_bytes()).unwrap();
        vfs.append(LOG, &framed).unwrap();
        let bytes = vfs.read(LOG).unwrap().unwrap();
        assert!(matches!(
            replay_wal(Some(&bytes)),
            Err(StorageError::Corrupt(_))
        ));
    }
}
