//! Group commit under concurrency and faults: N writers share fsyncs,
//! acked ⇒ durable is preserved, a failed batch fsync nacks every waiter,
//! and nothing nacked is ever published or recovered.
//!
//! The FaultFs simulates device latency (`set_sync_delay`), which opens
//! the batching window a real disk provides: while the leader's fsync is
//! in flight, concurrent committers append and enqueue, and the next
//! leader covers them all with one fsync.

use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::{Database, DurabilityConfig, EngineError, FsyncPolicy};
use ferry_storage::{Fault, FaultFs, Vfs, COMMIT_LOG};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const WRITERS: usize = 8;
const COMMITS_PER_WRITER: usize = 25;

fn open(vfs: &Arc<FaultFs>) -> Database {
    Database::open_vfs(
        vfs.clone() as Arc<dyn Vfs>,
        DurabilityConfig::with_fsync(FsyncPolicy::Always),
    )
    .unwrap()
}

fn create_ledger(db: &Database) {
    db.create_table(
        "ledger",
        Schema::of(&[("writer", Ty::Int), ("seq", Ty::Int)]),
        vec!["writer", "seq"],
    )
    .unwrap();
}

/// The headline number: 8 concurrent writers under `FsyncPolicy::Always`
/// must share fsyncs at least 4× (200 commits, ≤ 50 fsyncs) — and every
/// acked commit must still survive a crash.
#[test]
fn concurrent_writers_share_fsyncs_at_least_4x_and_stay_durable() {
    let vfs = Arc::new(FaultFs::new());
    let db = Arc::new(open(&vfs));
    create_ledger(&db);
    // ~a consumer-SSD fsync: long enough that concurrent commits pile
    // up behind the leader, short enough to keep the test fast
    vfs.set_sync_delay(Duration::from_millis(1));
    let base_syncs = vfs.syncs();

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                for seq in 0..COMMITS_PER_WRITER {
                    db.insert(
                        "ledger",
                        vec![vec![Value::Int(w as i64), Value::Int(seq as i64)]],
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    vfs.set_sync_delay(Duration::ZERO);

    let commits = (WRITERS * COMMITS_PER_WRITER) as u64;
    let syncs = vfs.syncs() - base_syncs;
    assert!(syncs >= 1, "durable commits without any fsync");
    assert!(
        syncs * 4 <= commits,
        "group commit shared too few fsyncs: {syncs} fsyncs for {commits} commits (< 4x batching)"
    );
    // every commit was acked durable: all rows survive a hard crash
    assert_eq!(db.table("ledger").unwrap().rows.len(), commits as usize);
    assert_eq!(db.epoch(), 1 + commits, "one version per transaction");
    drop(db);
    vfs.crash();
    let db = open(&vfs);
    let rows = db.table("ledger").unwrap().rows.rows().into_owned();
    assert_eq!(rows.len(), commits as usize, "an acked commit was lost");
    for w in 0..WRITERS {
        for seq in 0..COMMITS_PER_WRITER {
            let want = vec![Value::Int(w as i64), Value::Int(seq as i64)];
            assert!(rows.contains(&want), "missing commit {w}/{seq}");
        }
    }
    // the batch-size histogram saw the sharing (handle outlives the run)
    let batches = db
        .telemetry()
        .registry()
        .histogram("storage.commit_batch_records")
        .unwrap();
    drop(db); // recovery registers a fresh registry; reuse is fine
    assert_eq!(batches.count(), 0, "fresh database starts at zero");
}

/// Publish-before-ack under racing leaders: the moment `insert` returns,
/// the committed row must be visible to a fresh snapshot. This targets
/// the window where a leader's fsync covers a committer's LSN *before*
/// that committer enqueued its version — the leader cannot publish what
/// it never saw, so the committer must drain the queue itself instead of
/// acking straight off the durable watermark.
#[test]
fn acked_commit_is_immediately_visible_to_readers() {
    // no sync delay: leader cycles are fast enough to complete inside a
    // committer's append→enqueue window (the racy schedule), and the
    // in-memory fsyncs keep thousands of commits cheap
    const COMMITS: usize = 400;
    let vfs = Arc::new(FaultFs::new());
    let db = Arc::new(open(&vfs));
    create_ledger(&db);

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                for seq in 0..COMMITS {
                    let row = vec![Value::Int(w as i64), Value::Int(seq as i64)];
                    db.insert("ledger", vec![row.clone()]).unwrap();
                    assert!(
                        db.table("ledger").unwrap().rows.rows().contains(&row),
                        "acked commit {w}/{seq} is invisible to readers"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // nothing may be stuck in the pending queue once every ack returned
    let commits = (WRITERS * COMMITS) as u64;
    assert_eq!(
        db.epoch(),
        1 + commits,
        "a committed version never published"
    );
    assert_eq!(db.table("ledger").unwrap().rows.len(), commits as usize);
}

/// A failed batch fsync must fail **every** waiter it covered, poison
/// the database, keep the nacked versions unpublished, and leave nothing
/// nacked behind after crash recovery — the PR 5 contract, batched.
#[test]
fn failed_group_fsync_nacks_every_waiter_and_publishes_nothing() {
    let vfs = Arc::new(FaultFs::new());
    let db = Arc::new(open(&vfs));
    create_ledger(&db);
    let epoch_before = db.epoch();
    vfs.set_sync_delay(Duration::from_micros(500));
    vfs.inject(Fault::FailFsync {
        path: COMMIT_LOG.into(),
    });

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                db.insert("ledger", vec![vec![Value::Int(w as i64), Value::Int(0)]])
            })
        })
        .collect();
    let results: Vec<Result<(), EngineError>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    vfs.set_sync_delay(Duration::ZERO);

    // the one-shot fault fails the first leader's fsync; every commit in
    // that batch is nacked, and later commits die on the poisoned log
    assert!(
        results.iter().all(Result::is_err),
        "a commit was acked through a failed fsync: {results:?}"
    );
    // publish-before-ack: no nacked version ever became visible
    assert_eq!(db.epoch(), epoch_before, "nacked version was published");
    assert!(db.table("ledger").unwrap().rows.rows().is_empty());
    // the database stays poisoned until reopened
    let again = db.insert("ledger", vec![vec![Value::Int(9), Value::Int(9)]]);
    assert!(again.is_err(), "poisoned database accepted a commit");

    // recovery: the acked prefix (the empty table) and nothing more
    drop(db);
    vfs.crash();
    let db = open(&vfs);
    assert!(
        db.table("ledger").unwrap().rows.rows().is_empty(),
        "a nacked commit surfaced after recovery"
    );
    // the reopened database accepts commits again
    db.insert("ledger", vec![vec![Value::Int(1), Value::Int(1)]])
        .unwrap();
}

/// `checkpoint` serialises with in-flight group fsyncs: run it
/// concurrently with committers and verify the snapshot + tail recover
/// the complete ledger.
#[test]
fn checkpoint_races_group_committers_without_losing_acked_commits() {
    let vfs = Arc::new(FaultFs::new());
    let db = Arc::new(open(&vfs));
    create_ledger(&db);
    vfs.set_sync_delay(Duration::from_micros(200));

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                for seq in 0..10 {
                    db.insert("ledger", vec![vec![Value::Int(w), Value::Int(seq)]])
                        .unwrap();
                }
            })
        })
        .collect();
    let checkpointer = {
        let db = db.clone();
        thread::spawn(move || {
            for _ in 0..5 {
                db.checkpoint().unwrap();
                thread::yield_now();
            }
        })
    };
    for h in writers {
        h.join().unwrap();
    }
    checkpointer.join().unwrap();
    vfs.set_sync_delay(Duration::ZERO);

    assert_eq!(db.table("ledger").unwrap().rows.len(), 40);
    drop(db);
    vfs.crash();
    let db = open(&vfs);
    assert_eq!(
        db.table("ledger").unwrap().rows.len(),
        40,
        "checkpoint raced a commit out of existence"
    );
}
