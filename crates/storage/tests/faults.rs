//! Crash-recovery correctness of the store, proven by fault injection.
//!
//! Every test here runs a generated transaction workload against a
//! [`Storage`] over a [`FaultFs`] — each commit one frame in the commit
//! log — crashes the "machine" at a scripted fault point (torn write, bit
//! flip, lying or failing fsync, a crash inside a checkpoint), reopens,
//! and checks the recovered tables against an **independent in-test
//! model** of the transaction semantics. The invariant under test is
//! always the same:
//!
//! > recovery yields *exactly* some prefix of the acked transaction
//! > sequence — or a typed [`StorageError`] — never a panic and never a
//! > state that no prefix produced.
//!
//! The default run samples fault offsets sparsely so `cargo test` stays
//! fast; building with `--features storage-faults` sweeps every byte
//! offset of the log and many more seeds (the CI fault-injection job
//! does this).

use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_storage::wal::replay_wal;
use ferry_storage::{
    DurabilityConfig, Fault, FaultFs, Recovered, Storage, StorageError, TableDef, TableImage, Vfs,
    WalRecord, COMMIT_LOG, META_FILE, SNAPSHOT_FILE,
};
use ferry_telemetry::Registry;
use proptest::TestRng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Sparse sampling stride for fault offsets; 1 (exhaustive) under the
/// `storage-faults` feature.
fn stride() -> usize {
    if cfg!(feature = "storage-faults") {
        1
    } else {
        17
    }
}

// ----------------------------------------------------------- the model

/// One operation of a generated transaction.
#[derive(Clone, Debug)]
enum Op {
    /// Create-or-replace.
    Create {
        table: String,
    },
    Insert {
        table: String,
        rows: Vec<Row>,
    },
}

/// A table as the model and recovery both describe it.
#[derive(Clone, Debug, PartialEq)]
struct Table {
    keys: Vec<String>,
    rows: Vec<Row>,
}

type State = BTreeMap<String, Table>;

/// What the engine logs for one transaction: the commit frame's
/// members, DDL then rows.
type Commit = Vec<WalRecord>;

fn schema() -> Schema {
    Schema::of(&[("k", Ty::Int), ("v", Ty::Str)])
}

/// Apply one transaction to the model and return what the engine logs
/// for it: DDL in order, then the rows of every insert that follows its
/// table's last DDL in the transaction (earlier ones belong to a table
/// the DDL replaced).
fn apply(state: &mut State, tx: &[Op]) -> Commit {
    let mut ddl = Vec::new();
    let mut staged: Vec<WalRecord> = Vec::new();
    for op in tx {
        match op {
            Op::Create { table } => {
                unstage(&mut staged, table);
                let keys = vec!["k".to_string()];
                ddl.push(WalRecord::CreateTable {
                    name: table.clone(),
                    schema: schema(),
                    keys: keys.clone(),
                });
                let t = Table {
                    keys,
                    rows: Vec::new(),
                };
                state.insert(table.clone(), t);
            }
            Op::Insert { table, rows } => {
                let t = state.get_mut(table).expect("inserts target live tables");
                if rows.is_empty() {
                    continue;
                }
                staged.push(WalRecord::Rows {
                    table: table.clone(),
                    rows: rows.clone(),
                });
                t.rows.extend(rows.iter().cloned());
            }
        }
    }
    ddl.append(&mut staged);
    ddl
}

fn unstage(staged: &mut Vec<WalRecord>, name: &str) {
    staged.retain(|r| !matches!(r, WalRecord::Rows { table, .. } if table == name));
}

// -------------------------------------------------- workload generation

fn gen_rows(rng: &mut TestRng, tag: usize) -> Vec<Row> {
    (0..rng.below(4))
        .map(|j| {
            vec![
                Value::Int((tag * 10 + j) as i64),
                Value::str(format!("r{tag}_{j}")),
            ]
        })
        .collect()
}

/// A random but *valid* sequence of 1–3-operation transactions: inserts
/// only target tables that exist by then (the storage layer logs
/// blindly; validation is the engine's job). One draw in ten replaces a
/// table and fills it in the same transaction: a create plus its rows.
fn workload(rng: &mut TestRng, n: usize) -> Vec<Vec<Op>> {
    let mut live: Vec<String> = Vec::new();
    let mut txs = Vec::with_capacity(n);
    for i in 0..n {
        let mut tx = Vec::new();
        for j in 0..1 + rng.below(3) {
            let tag = i * 3 + j;
            let name = format!("t{}", rng.below(3));
            let op = match if live.is_empty() { 0 } else { rng.below(10) } {
                0 | 1 => {
                    // an unused draw: it keeps each seed's workload, and
                    // so the crash-point counts, comparable across builds
                    rng.bool();
                    Op::Create { table: name }
                }
                2 => {
                    tx.push(Op::Create {
                        table: name.clone(),
                    });
                    Op::Insert {
                        table: name,
                        rows: gen_rows(rng, tag),
                    }
                }
                _ => Op::Insert {
                    table: live[rng.below(live.len())].clone(),
                    rows: gen_rows(rng, tag),
                },
            };
            // an insert's table is live unless this draw just created it
            let (Op::Create { table } | Op::Insert { table, .. }) = &op;
            if !live.contains(table) {
                live.push(table.clone());
            }
            tx.push(op);
        }
        txs.push(tx);
    }
    txs
}

/// A workload: `states[i]` is the model after the first `i`
/// transactions, `commits[i]` what transaction `i` logs.
struct Run {
    states: Vec<State>,
    commits: Vec<Commit>,
}

impl Run {
    fn new(seed: u64, n: usize) -> Run {
        let mut state = State::new();
        let mut states = vec![state.clone()];
        let mut commits = Vec::with_capacity(n);
        for tx in workload(&mut TestRng::new(seed), n) {
            commits.push(apply(&mut state, &tx));
            states.push(state.clone());
        }
        Run { states, commits }
    }

    fn open(&self, vfs: &Arc<FaultFs>) -> Result<Recovered, StorageError> {
        Storage::open(
            vfs.clone() as Arc<dyn Vfs>,
            DurabilityConfig::default(),
            &Registry::default(),
        )
    }

    /// Commit transactions `txs` the engine's way — log, then ack only
    /// once a group sync covers the GSN — until one fails. Returns the
    /// index after the last acked transaction and the failure, if any.
    fn commit(&self, storage: &Storage, txs: Range<usize>) -> (usize, Option<StorageError>) {
        for i in txs.clone() {
            let acked = storage.log_commit(&self.commits[i]).and_then(|gsn| {
                let synced = storage.group_sync()?;
                assert!(synced >= gsn, "group_sync returned a stale GSN");
                Ok(())
            });
            if let Err(e) = acked {
                return (i, Some(e));
            }
        }
        (txs.end, None)
    }

    /// The recovered tables in the model's terms.
    fn state_of(&self, r: &Recovered) -> State {
        r.tables
            .iter()
            .map(|img| {
                assert_eq!(img.def.schema, schema());
                let t = Table {
                    keys: img.def.keys.clone(),
                    rows: img.rows.clone(),
                };
                (img.def.name.clone(), t)
            })
            .collect()
    }

    /// Checkpoint images of model state `i` — what the engine's catalog
    /// hands the store.
    fn images(&self, i: usize) -> Vec<TableImage> {
        self.states[i]
            .iter()
            .map(|(name, t)| TableImage {
                def: TableDef {
                    name: name.clone(),
                    schema: schema(),
                    keys: t.keys.clone(),
                },
                rows: t.rows.clone(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------- tests

/// Tear the log at (a sample of) every byte offset. Recovery must
/// restore **exactly** the acked
/// transactions: nothing acked is lost, and the torn commit vanishes
/// whole, never a prefix of its operations.
#[test]
fn torn_append_at_any_byte_of_the_log_recovers_exactly_the_acked_prefix() {
    let run = Run::new(0xB417, 12);
    let clean = Arc::new(FaultFs::new());
    let r = run.open(&clean).unwrap();
    assert_eq!(run.commit(&r.storage, 0..12), (12, None));
    for at in (8..clean.written_len(COMMIT_LOG)).step_by(stride()) {
        let ctx = format!("log torn at byte {at}");
        let vfs = Arc::new(FaultFs::new());
        vfs.inject(Fault::TornAppend {
            path: COMMIT_LOG.into(),
            at,
        });
        let r = run.open(&vfs).unwrap();
        let (acked, err) = run.commit(&r.storage, 0..12);
        assert!(
            matches!(err, Some(StorageError::Injected(_))),
            "{ctx}: {err:?}"
        );
        drop(r);
        vfs.crash();
        let r = run.open(&vfs).unwrap();
        assert_eq!(
            run.state_of(&r),
            run.states[acked],
            "{ctx}: recovered state differs from the {acked} acked transactions"
        );
    }
}

/// Flip (a sample of) every bit position of the fully synced log, then
/// reboot. Recovery must either repair — a flip in the log's final frame
/// is a torn tail — or refuse with a typed corruption error (a flip
/// anywhere else is mid-log damage).
#[test]
fn bit_flips_recover_a_prefix_or_fail_typed_never_panic() {
    let run = Run::new(7, 10);
    let clean = Arc::new(FaultFs::new());
    run.commit(&run.open(&clean).unwrap().storage, 0..10);
    for offset in (0..clean.written_len(COMMIT_LOG)).step_by(stride()) {
        let ctx = format!("flip at byte {offset}");
        let vfs = Arc::new(FaultFs::new());
        let r = run.open(&vfs).unwrap();
        run.commit(&r.storage, 0..10);
        vfs.inject(Fault::BitFlip {
            path: COMMIT_LOG.into(),
            offset,
            bit: (offset % 8) as u8,
        });
        drop(r);
        vfs.crash();
        match run.open(&vfs) {
            Ok(r) => {
                // a single-bit flip is always caught by the frame CRC, so
                // an Ok recovery cut the final frame away: exactly the
                // last transaction is lost
                assert!(r.report.repairs > 0, "{ctx}");
                assert_eq!(run.state_of(&r), run.states[9], "{ctx}");
            }
            Err(StorageError::Corrupt(_)) | Err(StorageError::Codec(_)) => {}
            Err(e) => panic!("{ctx}: unexpected error kind {e}"),
        }
    }
}

/// A disk that acknowledges an fsync but persists only half the pending
/// bytes. The durable lower bound is forfeit (the disk lied), but the
/// prefix guarantee must survive: the lie covered only the last commit,
/// whose half-persisted frame recovery cuts away whole.
#[test]
fn lying_fsync_still_yields_a_consistent_prefix() {
    for seed in 0..10u64 {
        let n = 4 + TestRng::new(0x5F5F + seed).below(8);
        let run = Run::new(0x5F5F + seed, n);
        let vfs = Arc::new(FaultFs::new());
        let r = run.open(&vfs).unwrap();
        assert_eq!(run.commit(&r.storage, 0..n - 1), (n - 1, None));
        vfs.inject(Fault::ShortFsync {
            path: COMMIT_LOG.into(),
        });
        assert_eq!(run.commit(&r.storage, n - 1..n), (n, None));
        drop(r);
        vfs.crash();
        let r = run.open(&vfs).unwrap();
        assert_eq!(run.state_of(&r), run.states[n - 1], "seed {seed}");
    }
}

/// A failing group fsync surfaces as a typed I/O error on that commit
/// and nacks the unsynced tail: the log is cut back to its synced prefix
/// and the store poisons itself, so every later commit is refused typed
/// and the rejected commit never becomes durable, whether the process
/// then crashes or simply reopens.
#[test]
fn failed_fsync_nacks_the_tail_poisons_and_never_commits_the_rejected_transaction() {
    let run = Run::new(99, 8);
    for crash in [true, false] {
        let ctx = format!("fsync fails, crash {crash}");
        let vfs = Arc::new(FaultFs::new());
        let r = run.open(&vfs).unwrap();
        assert_eq!(run.commit(&r.storage, 0..3), (3, None));
        vfs.inject(Fault::FailFsync {
            path: COMMIT_LOG.into(),
        });
        for i in 3..8 {
            let (acked, err) = run.commit(&r.storage, i..i + 1);
            assert_eq!(acked, i, "{ctx}: commit {i} acked");
            assert!(matches!(err, Some(StorageError::Io(_))), "{ctx}: {err:?}");
        }
        assert!(r.storage.poisoned(), "{ctx}");
        assert_eq!(
            vfs.written_len(COMMIT_LOG),
            vfs.durable_len(COMMIT_LOG),
            "{ctx}: unsynced tail"
        );
        drop(r);
        if crash {
            vfs.crash();
        }
        let r = run.open(&vfs).unwrap();
        assert_eq!(run.state_of(&r), run.states[3], "{ctx}");
    }
}

/// Where a checkpoint can be interrupted.
#[derive(Clone, Debug)]
enum Window {
    /// It completes.
    Done,
    /// Crash while atomically replacing this file: the snapshot (which
    /// stays old) or the metadata (which then lags the new snapshot).
    Replace(&'static str),
    /// Crash after the metadata is installed, before the log is
    /// truncated: the log still holds commits the snapshot covers.
    BeforeTruncate,
}

const WINDOWS: [Window; 4] = [
    Window::Done,
    Window::BeforeTruncate,
    Window::Replace(SNAPSHOT_FILE),
    Window::Replace(META_FILE),
];

/// Checkpoint after every prefix of a workload, crashing in every window
/// of the checkpoint. Recovery must restore exactly the checkpointed
/// state — nothing double-applied, nothing lost — and the store must
/// keep working: the rest of the workload commits on top, and snapshot
/// ⊕ tail recovers the same state as full replay, twice over.
#[test]
fn checkpoint_at_every_cut_and_crash_in_every_window_recovers_the_acked_state() {
    let run = Run::new(2024, 10);
    let n = run.commits.len();
    for cut in 0..=n {
        // the un-checkpointed twin: what the log held before the
        // checkpoint truncated it
        let twin = Arc::new(FaultFs::new());
        run.commit(&run.open(&twin).unwrap().storage, 0..cut);
        for window in WINDOWS {
            let ctx = format!("checkpoint at {cut}, {window:?}");
            let vfs = Arc::new(FaultFs::new());
            let r = run.open(&vfs).unwrap();
            run.commit(&r.storage, 0..cut);
            if let Window::Replace(file) = window {
                vfs.inject(Fault::TornAppend {
                    path: file.into(),
                    at: 0,
                });
            }
            let checkpoint = r.storage.checkpoint(&run.images(cut));
            match window {
                Window::Replace(_) => assert!(
                    matches!(checkpoint, Err(StorageError::Injected(_))),
                    "{ctx}"
                ),
                _ => assert_eq!(checkpoint, Ok(cut as u64), "{ctx}"),
            }
            drop(r);
            if matches!(window, Window::BeforeTruncate) {
                let log = twin.read(COMMIT_LOG).unwrap().unwrap();
                vfs.replace(COMMIT_LOG, &log).unwrap();
            }
            vfs.crash();
            let r = run.open(&vfs).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(run.state_of(&r), run.states[cut], "{ctx}");
            assert_eq!(run.commit(&r.storage, cut..n), (n, None), "{ctx}");
            drop(r);
            vfs.crash();
            for pass in 0..2 {
                let r = run.open(&vfs).unwrap();
                assert_eq!(run.state_of(&r), run.states[n], "{ctx}: reopen {pass}");
                assert_eq!(r.report.repairs, 0, "{ctx}: reopen {pass}");
            }
        }
    }
}

/// The headline property: arbitrary workloads, optional mid-workload
/// checkpoints, a torn append at an arbitrary byte of the log. Recovery
/// always lands on exactly the acked prefix, and a second reopen is
/// idempotent.
#[test]
fn recovery_roundtrip_property() {
    let seeds = if cfg!(feature = "storage-faults") {
        80
    } else {
        16
    };
    for seed in 0..seeds {
        let mut rng = TestRng::new(0xFE44 + seed as u64);
        // the first draw samples about half the seeds; every later draw
        // of a kept seed depends on its number alone
        if rng.below(2) != 0 {
            continue;
        }
        let n = 4 + rng.below(10);
        let run = Run::new(0xFE44 + seed as u64, n);
        let with_checkpoints = rng.bool();
        let clean = Arc::new(FaultFs::new());
        run.commit(&run.open(&clean).unwrap().storage, 0..n);
        let at = 8 + rng.below((clean.written_len(COMMIT_LOG) - 8) as usize) as u64;

        let vfs = Arc::new(FaultFs::new());
        vfs.inject(Fault::TornAppend {
            path: COMMIT_LOG.into(),
            at,
        });
        let r = run.open(&vfs).unwrap();
        let mut acked = 0usize;
        while acked < n {
            match run.commit(&r.storage, acked..acked + 1) {
                (_, None) => acked += 1,
                (_, Some(StorageError::Injected(_))) => break,
                (_, Some(e)) => panic!("seed {seed}: unexpected error {e}"),
            }
            if with_checkpoints && acked.is_multiple_of(3) {
                r.storage.checkpoint(&run.images(acked)).unwrap();
            }
            assert_eq!(r.storage.durable_gsn(), acked as u64, "seed {seed}");
        }
        drop(r);
        vfs.crash();
        let recovered = run.state_of(&run.open(&vfs).unwrap());
        // every acked commit is durable and an unacked one never
        // half-applies: exactly the acked prefix
        assert_eq!(recovered, run.states[acked], "seed {seed}: acked={acked}");
        // recovery repaired the log; a second open must agree with itself
        let again = run.open(&vfs).unwrap();
        assert_eq!(run.state_of(&again), recovered, "seed {seed}: reopen");
        assert_eq!(again.report.repairs, 0, "seed {seed}: reopen repaired");
    }
}

/// A commit is one frame in one file made durable by one fsync: the
/// commit log grows by exactly one frame, and the group sync that acks
/// the commit is its only fsync.
#[test]
fn a_commit_costs_one_frame_and_one_fsync() {
    let run = Run::new(3, 6);
    let vfs = Arc::new(FaultFs::new());
    let r = run.open(&vfs).unwrap();
    let frames = || {
        let log = vfs.read(COMMIT_LOG).unwrap();
        replay_wal(log.as_deref()).unwrap().commits.len()
    };
    for i in 0..6 {
        let (syncs, before) = (vfs.syncs(), frames());
        let acked = run.commit(&r.storage, i..i + 1);
        assert_eq!(acked, (i + 1, None));
        assert_eq!(vfs.syncs() - syncs, 1, "commit {i}: fsyncs");
        assert_eq!(frames() - before, 1, "commit {i}: frames");
        assert_eq!(r.storage.durable_gsn(), i as u64 + 1);
    }
}
