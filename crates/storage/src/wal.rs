//! One append-only log file — the commit log — and its record vocabulary.
//!
//! File layout: the 8-byte magic [`WAL_MAGIC`], then one
//! [frame](crate::frame) per commit. Each frame payload is `[lsn: u64][4]
//! [n: u64][member]*` — a batch of the commit's records, encoded by
//! [`codec`](crate::codec), whose member tags are 1 and 3. LSNs are
//! assigned here under the log lock, start at 1, and are strictly
//! monotone; replay rejects any other sequence as corruption. A commit's
//! LSN is its sequence number.
//!
//! An append never syncs. A commit is acknowledged only once a
//! group-commit leader's fsync covers its LSN ([`Wal::sync_target`], then
//! [`Wal::mark_synced`] or [`Wal::fail_sync`]): that is the one fsync
//! path, so an acked commit survives any crash.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::codec::{Dec, Enc};
use crate::frame::{scan, write_frame, Tail};
use crate::fs::Vfs;
use crate::StorageError;
use ferry_algebra::{Row, Schema};
use ferry_telemetry::Counter;
use std::sync::Arc;

/// Magic + format version of the WAL file ("FWAL" + version 0001).
pub const WAL_MAGIC: &[u8; 8] = b"FWAL0001";

/// One logged catalog mutation — a member of a commit frame, the durable
/// mirror of the `Database` mutation API.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `Database::create_table` (validated; table starts empty).
    CreateTable {
        name: String,
        schema: Schema,
        keys: Vec<String>,
    },
    /// One insert: `rows` appended at the end of `table`.
    Rows { table: String, rows: Vec<Row> },
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
            WalRecord::Rows { table, rows } => {
                e.u8(3);
                e.str(table);
                e.rows(rows);
            }
        }
    }

    /// Decode the member whose `tag` was just read. A batch (tag 4) is
    /// never a member, so a nested one is refused here — which also
    /// bounds the recursion a crafted log could ask for. Tag 2 (an
    /// earlier build's whole-table install) is no member either.
    fn decode(d: &mut Dec<'_>, tag: u8) -> Result<WalRecord, StorageError> {
        Ok(match tag {
            1 => WalRecord::CreateTable {
                name: d.str()?.to_string(),
                schema: d.schema()?,
                keys: d.strings()?,
            },
            3 => WalRecord::Rows {
                table: d.str()?.to_string(),
                rows: d.rows()?,
            },
            t => return Err(StorageError::Codec(format!("unknown WAL record tag {t}"))),
        })
    }

    /// Rows carried by this record (for span/report accounting).
    pub fn row_count(&self) -> usize {
        match self {
            WalRecord::CreateTable { .. } => 0,
            WalRecord::Rows { rows, .. } => rows.len(),
        }
    }
}

/// One commit frame read back from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// The frame's LSN: the commit's sequence number.
    pub lsn: u64,
    /// DDL and rows, in frame order.
    pub members: Vec<WalRecord>,
}

/// Decode the batch of the frame logged at `lsn`.
fn decode_commit(lsn: u64, d: &mut Dec<'_>) -> Result<Commit, StorageError> {
    let tag = d.u8()?;
    if tag != 4 {
        return Err(StorageError::Corrupt(format!(
            "frame lsn {lsn}: a commit frame cannot start with record tag {tag}"
        )));
    }
    let n = d.u64()?;
    let mut members = Vec::new();
    for _ in 0..n {
        let tag = d.u8()?;
        members.push(WalRecord::decode(d, tag)?);
    }
    Ok(Commit { lsn, members })
}

/// The appender half of one log file. Holds the LSN allocator, the synced
/// watermarks, and the metric handles it bumps on the hot path.
#[derive(Debug)]
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    /// VFS path of the log this handle appends to.
    file: String,
    next_lsn: u64,
    /// Highest LSN a successful fsync covers: the last one that may be
    /// acked.
    synced_lsn: u64,
    /// Total bytes in the WAL file (magic included) as this handle knows
    /// it — the rollback target after a failed append.
    bytes_len: u64,
    /// Byte length of the prefix covered by the last successful fsync —
    /// the rollback target after a failed fsync.
    synced_bytes: u64,
    /// Set after a write failure this handle could not roll back, or any
    /// fsync failure (see [`Wal::fail_sync`]): every further operation
    /// fails until the database is reopened.
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
        next_lsn: u64,
        file_len: u64,
        wal_bytes: Arc<Counter>,
        fsyncs: Arc<Counter>,
    ) -> Wal {
        Wal {
            vfs,
            file: file.to_string(),
            next_lsn,
            synced_lsn: next_lsn - 1,
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

    /// Append one commit frame holding `members`, in order — a single
    /// CRC-atomic frame, so a crash replays all of them or none; returns
    /// its LSN. Nothing syncs here: the fsync belongs to the group-commit
    /// leader (one fsync for every frame enqueued while it ran), so the
    /// caller must not ack until [`Wal::mark_synced`] covers the LSN. On
    /// a failed write nothing is acked and nothing of the frame can ever
    /// become durable: the file is rolled back to its pre-call length,
    /// and if even that is impossible the handle is poisoned so no later
    /// append can flush the rejected bytes.
    pub fn append(&mut self, members: &[WalRecord]) -> Result<u64, StorageError> {
        self.check_poisoned()?;
        let lsn = self.next_lsn;
        let mut span = ferry_telemetry::span("wal.append", "storage");
        let mut e = Enc::new();
        e.u64(lsn);
        e.u8(4);
        e.u64(members.len() as u64);
        for m in members {
            m.encode(&mut e);
        }
        let payload = e.into_bytes();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        // an oversized frame is refused before any I/O: state unchanged,
        // the LSN is reused by the next append
        write_frame(&mut framed, &payload)?;
        span.attr("lsn", lsn).attr("bytes", framed.len()).attr(
            "rows",
            members.iter().map(WalRecord::row_count).sum::<usize>(),
        );
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
    }

    /// A leader's unlocked fsync failed. The unsynced tail holds records
    /// whose callers are being told "failed": it is truncated back to the
    /// synced prefix (rolling the LSN allocator back with it), so no later
    /// fsync can durably commit a nacked record, and the handle is
    /// poisoned regardless: after a failed fsync the kernel may have
    /// dropped the dirty pages, so only a reopen that re-reads the file
    /// is sound.
    pub(crate) fn fail_sync(&mut self) {
        if self.vfs.truncate(&self.file, self.synced_bytes).is_ok() {
            self.bytes_len = self.synced_bytes;
            self.next_lsn = self.synced_lsn + 1;
        }
        self.poisoned = true;
    }

    /// Truncate the log back to its header after a checkpoint and make
    /// the truncation durable (one counted fsync). LSNs keep counting —
    /// the snapshot covers the removed prefix. A failure here poisons the
    /// handle: the file length is no longer known.
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
        self.fsyncs.inc();
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
    /// The decoded commits, in LSN order.
    pub commits: Vec<Commit>,
    /// Tail classification from the frame scanner.
    pub tail: Tail,
    /// Byte length of the valid region (magic + good frames); a torn
    /// file is truncated back to this.
    pub good_bytes: u64,
}

/// Decode the WAL from raw file bytes. `None` input (no file yet) is an
/// empty log. Frame-level damage at the tail is reported as [`Tail::Torn`]
/// (the caller repairs by truncating); anything else — bad magic, decode
/// failure inside a CRC-valid frame, non-monotone LSNs, valid frames after
/// a bad one — is [`StorageError::Corrupt`]/[`StorageError::Codec`].
pub fn replay_wal(bytes: Option<&[u8]>) -> Result<WalReplay, StorageError> {
    let empty = |tail| WalReplay {
        commits: Vec::new(),
        tail,
        good_bytes: 0,
    };
    let Some(bytes) = bytes else {
        return Ok(empty(Tail::Clean));
    };
    let Some((magic, body)) = bytes.split_first_chunk() else {
        // a crash can tear even the magic of a freshly created log
        return Ok(empty(Tail::Torn { offset: 0 }));
    };
    if magic != WAL_MAGIC {
        return Err(StorageError::Corrupt(format!(
            "bad WAL magic {magic:?} (expected {WAL_MAGIC:?})"
        )));
    }
    let out = scan(body)?;
    let mut commits: Vec<Commit> = Vec::with_capacity(out.frames.len());
    for payload in out.frames {
        let mut d = Dec::new(payload);
        let lsn = d.u64()?;
        let last = commits.last().map_or(0, |c| c.lsn);
        if lsn <= last {
            return Err(StorageError::Corrupt(format!(
                "non-monotone commit log: lsn {lsn} after lsn {last}"
            )));
        }
        let commit = decode_commit(lsn, &mut d)?;
        d.finish()?;
        commits.push(commit);
    }
    Ok(WalReplay {
        commits,
        tail: out.tail,
        good_bytes: WAL_MAGIC.len() as u64 + out.good_bytes,
    })
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;
    use crate::fs::{Fault, FaultFs};
    use ferry_algebra::{Ty, Value};

    const LOG: &str = "log";

    /// A frame payload at `lsn` whose batch of `n` members `body` encodes.
    fn batch(lsn: u64, n: u64, body: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(lsn);
        e.u8(4);
        e.u64(n);
        body(&mut e);
        e.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<Commit, StorageError> {
        let mut d = Dec::new(payload);
        let lsn = d.u64()?;
        let c = decode_commit(lsn, &mut d)?;
        d.finish()?;
        Ok(c)
    }

    fn fresh_wal(vfs: Arc<dyn Vfs>) -> Wal {
        vfs.append(LOG, WAL_MAGIC).unwrap();
        vfs.sync(LOG).unwrap();
        let (bytes, fsyncs) = (Arc::new(Counter::default()), Arc::default());
        Wal::resume(vfs, LOG, 1, WAL_MAGIC.len() as u64, bytes, fsyncs)
    }

    /// One leader's fsync the way `Storage::group_sync` runs it: capture
    /// the target, sync, then mark it synced or fail the tail.
    fn sync(vfs: &FaultFs, wal: &mut Wal) -> Result<(), StorageError> {
        wal.check_poisoned()?;
        let (lsn, bytes) = wal.sync_target();
        match vfs.sync(LOG) {
            Ok(()) => {
                wal.mark_synced(lsn, bytes);
                Ok(())
            }
            Err(e) => {
                wal.fail_sync();
                Err(e)
            }
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::of(&[("k", Ty::Int), ("v", Ty::Str)]);
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema: schema.clone(),
                keys: vec!["k".into()],
            },
            WalRecord::Rows {
                table: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::str("one")],
                    vec![Value::Int(2), Value::str("two")],
                ],
            },
            WalRecord::CreateTable {
                name: "u".into(),
                schema,
                keys: vec![],
            },
        ]
    }

    /// The commit `members` logged at `lsn`.
    fn commit(lsn: u64, members: &[WalRecord]) -> Commit {
        Commit {
            lsn,
            members: members.to_vec(),
        }
    }

    fn replay(vfs: &FaultFs) -> WalReplay {
        replay_wal(Some(&vfs.read(LOG).unwrap().unwrap())).unwrap()
    }

    #[test]
    fn append_replay_roundtrip() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone());
        let recs = sample_records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(wal.append(std::slice::from_ref(r)).unwrap(), (i + 1) as u64);
        }
        assert_eq!(wal.append(&[]).unwrap(), 4, "an empty commit is a frame");
        let replay = replay(&vfs);
        assert_eq!(replay.tail, Tail::Clean);
        let mut want: Vec<Commit> = (1..=3)
            .map(|i| commit(i, &recs[i as usize - 1..][..1]))
            .collect();
        want.push(commit(4, &[]));
        assert_eq!(replay.commits, want);
    }

    #[test]
    fn a_nested_batch_is_a_codec_error() {
        // a batch is never a member, so a nested tag-4 record must fail as
        // a codec error rather than recurse (a ~10-byte-per-level chain
        // would otherwise overflow the stack during recovery); tags 2 and
        // 5-7, which only an earlier build wrote, are no member either
        for tag in [2, 4, 5, 6, 7] {
            let payload = batch(1, 1, |e| {
                e.u8(tag);
                e.u64(0);
            });
            let got = decode(&payload);
            assert!(
                matches!(got, Err(StorageError::Codec(_))),
                "tag {tag}: {got:?}"
            );
        }
    }

    #[test]
    fn appends_never_sync_and_a_leader_marks_them_synced() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone());
        let before = vfs.syncs(); // the magic write syncs once
        for r in sample_records() {
            wal.append(&[r]).unwrap();
        }
        assert_eq!(vfs.syncs(), before);
        assert_eq!(wal.synced_lsn(), 0);
        // the group-commit leader's fsync covers them all
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

    #[test]
    fn empty_and_missing_logs_replay_empty() {
        let replay = replay_wal(None).unwrap();
        assert!(replay.commits.is_empty());
        assert_eq!(replay.tail, Tail::Clean);
        let replay = replay_wal(Some(WAL_MAGIC)).unwrap();
        assert!(replay.commits.is_empty());
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
        let mut wal = fresh_wal(vfs.clone());
        let recs = sample_records();
        wal.append(&recs[..1]).unwrap();
        sync(&vfs, &mut wal).unwrap();
        let acked_len = vfs.written_len(LOG);
        vfs.inject(Fault::FailFsync { path: LOG.into() });
        wal.append(&recs[1..2]).unwrap();
        assert!(matches!(sync(&vfs, &mut wal), Err(StorageError::Io(_))));
        // the nacked record is cut out of the file, so no later fsync —
        // by us or the OS — can ever durably commit it
        assert_eq!(vfs.written_len(LOG), acked_len);
        assert_eq!(wal.next_lsn(), 2, "the rejected LSN is rolled back");
        // and the handle refuses all further I/O until reopen
        assert!(wal.poisoned());
        assert!(matches!(wal.append(&recs[2..]), Err(StorageError::Io(_))));
        assert!(matches!(sync(&vfs, &mut wal), Err(StorageError::Io(_))));
        assert_eq!(vfs.written_len(LOG), acked_len);
        // replay (as a reopen would) sees exactly the acked prefix
        assert_eq!(replay(&vfs).commits, vec![commit(1, &recs[..1])]);
    }

    #[test]
    fn fail_sync_rolls_back_like_a_failed_inline_fsync() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone());
        wal.append(&sample_records()[..1]).unwrap();
        sync(&vfs, &mut wal).unwrap();
        let acked_len = vfs.written_len(LOG);
        wal.append(&sample_records()[1..2]).unwrap();
        wal.fail_sync();
        assert!(wal.poisoned());
        assert_eq!(vfs.written_len(LOG), acked_len);
        assert_eq!(wal.next_lsn(), 2, "rejected LSN rolled back");
        assert_eq!(replay(&vfs).commits.len(), 1);
    }

    #[test]
    fn oversized_record_is_refused_and_its_lsn_reused() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone());
        let huge = WalRecord::Rows {
            table: "t".into(),
            rows: vec![vec![Value::str(
                "x".repeat(crate::frame::MAX_FRAME_LEN as usize + 1),
            )]],
        };
        let err = wal.append(&[huge]).unwrap_err();
        assert!(matches!(err, StorageError::Codec(_)), "{err}");
        // nothing was written or acked; the next record takes LSN 1
        assert!(!wal.poisoned());
        assert_eq!(vfs.written_len(LOG), WAL_MAGIC.len() as u64);
        assert_eq!(wal.append(&sample_records()[..1]).unwrap(), 1);
    }

    #[test]
    fn a_commit_is_one_frame_and_roundtrips() {
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone());
        let recs = sample_records();
        assert_eq!(wal.append(&recs).unwrap(), 1, "one LSN for the commit");
        assert_eq!(wal.next_lsn(), 2);
        assert_eq!(replay(&vfs).commits, vec![commit(1, &recs)]);
    }

    #[test]
    fn torn_commit_frame_replays_none_of_its_operations() {
        // a commit is all-or-nothing: tearing any byte of its single frame
        // drops the whole transaction at replay, never a prefix of it
        let vfs = Arc::new(FaultFs::new());
        let mut wal = fresh_wal(vfs.clone());
        wal.append(&sample_records()[..1]).unwrap();
        let intact = vfs.written_len(LOG);
        wal.append(&sample_records()[1..]).unwrap();
        let torn = intact + (vfs.written_len(LOG) - intact) / 2;
        vfs.truncate(LOG, torn).unwrap();
        let replay = replay(&vfs);
        assert_eq!(replay.commits.len(), 1, "only the first commit");
        assert!(matches!(replay.tail, Tail::Torn { .. }));
        assert_eq!(replay.good_bytes, intact);
    }

    #[test]
    fn non_monotone_lsn_is_corrupt() {
        // a duplicate LSN and a falling one
        for lsn in [2, 1] {
            let mut log = WAL_MAGIC.to_vec();
            write_frame(&mut log, &batch(2, 0, |_| {})).unwrap();
            write_frame(&mut log, &batch(lsn, 0, |_| {})).unwrap();
            let got = replay_wal(Some(&log));
            assert!(
                matches!(got, Err(StorageError::Corrupt(_))),
                "lsn {lsn} after 2: {got:?}"
            );
        }
        // a frame that starts with an earlier build's commit marker (tag 7)
        let mut e = Enc::new();
        e.u64(1);
        e.u8(7);
        e.u64(1);
        e.u64(0);
        let mut log = WAL_MAGIC.to_vec();
        write_frame(&mut log, &e.into_bytes()).unwrap();
        let got = replay_wal(Some(&log));
        assert!(matches!(got, Err(StorageError::Corrupt(_))), "{got:?}");
    }
}
