//! Crash-recovery correctness of the one store, proven by fault
//! injection.
//!
//! Every test here runs a generated transaction workload against a
//! [`Storage`] over a [`FaultFs`] — at S = 1 (each commit one frame in
//! the commit log, the shape an unsharded database is stored in) and at
//! S = 4 (rows in shard WALs, sealed by commit-log markers) — crashes
//! the "machine" at a scripted fault point (torn write, bit flip, lying
//! or failing fsync, a crash inside a checkpoint), reopens, and checks
//! the recovered tables against an **independent in-test model** of the
//! transaction semantics. The invariant under test is always the same:
//!
//! > recovery yields *exactly* some prefix of the acked transaction
//! > sequence — or a typed [`StorageError`] — never a panic and never a
//! > state that no prefix produced.
//!
//! At S = 4 a prefix is also an **epoch-consistent cut**: a commit torn
//! on any one shard WAL or on the commit log vanishes from every shard,
//! and every surviving row keeps the shard it was routed to.
//!
//! The default run samples fault offsets sparsely so `cargo test` stays
//! fast; building with `--features storage-faults` sweeps every byte
//! offset of every log and many more seeds (the CI fault-injection job
//! does this).

use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_storage::wal::replay_wal;
use ferry_storage::{
    shard_snap_file, shard_wal_file, DurabilityConfig, Fault, FaultFs, FsyncPolicy, Recovered,
    Storage, StorageError, TableDef, TableImage, Vfs, WalRecord, COMMIT_LOG, NO_SHARD,
    SHARD_META_FILE,
};
use ferry_telemetry::Registry;
use proptest::TestRng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The shard counts every test runs at.
const SHARDS: [usize; 2] = [1, 4];

/// Sparse sampling stride for fault offsets; 1 (exhaustive) under the
/// `storage-faults` feature.
fn stride() -> usize {
    if cfg!(feature = "storage-faults") {
        1
    } else {
        17
    }
}

/// Every log file of an S-shard store: the commit log, plus one WAL per
/// shard from two shards up.
fn logs(shards: usize) -> Vec<String> {
    let mut files = vec![COMMIT_LOG.to_string()];
    if shards > 1 {
        files.extend((0..shards).map(shard_wal_file));
    }
    files
}

// ----------------------------------------------------------- the model

/// One operation of a generated transaction.
#[derive(Clone, Debug)]
enum Op {
    /// Create-or-replace; a keyed table routes each row by its `k` cell.
    Create {
        table: String,
        keyed: bool,
    },
    /// Replace wholesale with `rows` (an unkeyed table).
    Install {
        table: String,
        rows: Vec<Row>,
    },
    Insert {
        table: String,
        rows: Vec<Row>,
    },
}

/// A table as the model and recovery both describe it.
#[derive(Clone, Debug, PartialEq)]
struct Table {
    keyed: bool,
    keys: Vec<String>,
    rows: Vec<Row>,
    shard_of: Vec<u32>,
}

type State = BTreeMap<String, Table>;

/// What the engine logs for one transaction: DDL, and per shard the
/// positioned rows.
type Commit = (Vec<WalRecord>, Vec<(usize, Vec<WalRecord>)>);

fn schema() -> Schema {
    Schema::of(&[("k", Ty::Int), ("v", Ty::Str)])
}

/// The home shard of an unkeyed table (the engine hashes the name; any
/// fixed function will do here — storage is hash-agnostic).
fn home(table: &str, shards: usize) -> u32 {
    table.bytes().map(u32::from).sum::<u32>() % shards as u32
}

/// Apply one transaction to the model and return what the engine logs
/// for it: DDL in order, and per shard the positioned rows of every
/// insert that follows its table's last DDL in the transaction (earlier
/// ones belong to a table the DDL replaced).
fn apply(state: &mut State, tx: &[Op], shards: usize) -> Commit {
    let mut ddl = Vec::new();
    let mut staged: Vec<Vec<WalRecord>> = vec![Vec::new(); shards];
    for op in tx {
        match op {
            Op::Create { table, keyed } => {
                unstage(&mut staged, table);
                let (name, keys) = (table.clone(), vec!["k".to_string()]);
                ddl.push(if *keyed {
                    WalRecord::CreateTableSharded {
                        name,
                        schema: schema(),
                        keys: keys.clone(),
                        shard_key: "k".into(),
                    }
                } else {
                    WalRecord::CreateTable {
                        name,
                        schema: schema(),
                        keys: keys.clone(),
                    }
                });
                let t = Table {
                    keyed: *keyed,
                    keys,
                    rows: Vec::new(),
                    shard_of: Vec::new(),
                };
                state.insert(table.clone(), t);
            }
            Op::Install { table, rows } => {
                unstage(&mut staged, table);
                ddl.push(WalRecord::InstallTable {
                    name: table.clone(),
                    schema: schema(),
                    keys: Vec::new(),
                    rows: rows.clone(),
                });
                let t = Table {
                    keyed: false,
                    keys: Vec::new(),
                    rows: rows.clone(),
                    shard_of: vec![home(table, shards); rows.len()],
                };
                state.insert(table.clone(), t);
            }
            Op::Insert { table, rows } => {
                let t = state.get_mut(table).expect("inserts target live tables");
                let mut slices: BTreeMap<u32, (Vec<u64>, Vec<Row>)> = BTreeMap::new();
                for row in rows {
                    let k = match &row[0] {
                        Value::Int(k) if t.keyed => k.rem_euclid(shards as i64) as u32,
                        _ => home(table, shards),
                    };
                    let slice = slices.entry(k).or_default();
                    slice.0.push(t.rows.len() as u64);
                    slice.1.push(row.clone());
                    t.rows.push(row.clone());
                    t.shard_of.push(k);
                }
                for (k, (idx, rows)) in slices {
                    staged[k as usize].push(WalRecord::ShardRows {
                        gsn: 0,
                        table: table.clone(),
                        idx,
                        rows,
                    });
                }
            }
        }
    }
    let rows = staged.into_iter().enumerate();
    (ddl, rows.filter(|(_, r)| !r.is_empty()).collect())
}

fn unstage(staged: &mut [Vec<WalRecord>], name: &str) {
    for recs in staged {
        recs.retain(|r| !matches!(r, WalRecord::ShardRows { table, .. } if table == name));
    }
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
/// blindly; validation is the engine's job).
fn workload(rng: &mut TestRng, n: usize) -> Vec<Vec<Op>> {
    let mut live: Vec<String> = Vec::new();
    let mut txs = Vec::with_capacity(n);
    for i in 0..n {
        let mut tx = Vec::new();
        for j in 0..1 + rng.below(3) {
            let tag = i * 3 + j;
            let name = format!("t{}", rng.below(3));
            let op = match if live.is_empty() { 0 } else { rng.below(10) } {
                0 | 1 => Op::Create {
                    table: name,
                    keyed: rng.bool(),
                },
                2 => Op::Install {
                    table: name,
                    rows: gen_rows(rng, tag),
                },
                _ => Op::Insert {
                    table: live[rng.below(live.len())].clone(),
                    rows: gen_rows(rng, tag),
                },
            };
            if let Op::Create { table, .. } | Op::Install { table, .. } = &op {
                if !live.contains(table) {
                    live.push(table.clone());
                }
            }
            tx.push(op);
        }
        txs.push(tx);
    }
    txs
}

/// A workload at one shard count: `states[i]` is the model after the
/// first `i` transactions, `commits[i]` what transaction `i` logs.
struct Run {
    shards: usize,
    states: Vec<State>,
    commits: Vec<Commit>,
}

impl Run {
    fn new(seed: u64, n: usize, shards: usize) -> Run {
        Run::of(&workload(&mut TestRng::new(seed), n), shards)
    }

    fn of(txs: &[Vec<Op>], shards: usize) -> Run {
        let mut state = State::new();
        let mut states = vec![state.clone()];
        let mut commits = Vec::with_capacity(txs.len());
        for tx in txs {
            commits.push(apply(&mut state, tx, shards));
            states.push(state.clone());
        }
        Run {
            shards,
            states,
            commits,
        }
    }

    fn open(&self, vfs: &Arc<FaultFs>, policy: FsyncPolicy) -> Result<Recovered, StorageError> {
        Storage::open(
            vfs.clone() as Arc<dyn Vfs>,
            self.shards,
            DurabilityConfig::with_fsync(policy),
            &Registry::default(),
        )
    }

    /// Commit transactions `txs` the engine's way — log, then under
    /// `Always` ack only once a group sync covers the GSN — until one
    /// fails. Returns the index after the last acked transaction and
    /// the failure, if any.
    fn commit(
        &self,
        storage: &Storage,
        txs: Range<usize>,
        policy: FsyncPolicy,
    ) -> (usize, Option<StorageError>) {
        for i in txs.clone() {
            let (ddl, rows) = self.commits[i].clone();
            let acked = storage.log_commit(ddl, rows).and_then(|gsn| {
                if policy == FsyncPolicy::Always {
                    let synced = storage.group_sync()?;
                    assert!(synced >= gsn, "group_sync returned a stale GSN");
                }
                Ok(())
            });
            if let Err(e) = acked {
                return (i, Some(e));
            }
        }
        (txs.end, None)
    }

    /// The recovered tables in the model's terms (rows still resident in
    /// the commit log count as on their table's home shard).
    fn state_of(&self, r: &Recovered) -> State {
        r.tables
            .iter()
            .map(|img| {
                assert_eq!(img.def.schema, schema());
                let home = home(&img.def.name, self.shards);
                let shard_of = img.shard_of.iter();
                let t = Table {
                    keyed: img.def.shard_key.is_some(),
                    keys: img.def.keys.clone(),
                    rows: img.rows.clone(),
                    shard_of: shard_of
                        .map(|&s| if s == NO_SHARD { home } else { s })
                        .collect(),
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
                    shard_key: t.keyed.then(|| "k".to_string()),
                },
                rows: t.rows.clone(),
                shard_of: t.shard_of.clone(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------- tests

/// Tear every log at (a sample of) every byte offset. Under
/// `FsyncPolicy::Always`, recovery must restore **exactly** the acked
/// transactions: nothing acked is lost, and the torn commit vanishes
/// whole — from every shard — never a prefix of its operations.
#[test]
fn torn_append_at_any_byte_of_any_log_recovers_exactly_the_acked_prefix() {
    for shards in SHARDS {
        let run = Run::new(0xB417, 12, shards);
        let clean = Arc::new(FaultFs::new());
        let r = run.open(&clean, FsyncPolicy::Always).unwrap();
        assert_eq!(
            run.commit(&r.storage, 0..12, FsyncPolicy::Always),
            (12, None)
        );
        for file in logs(shards) {
            for at in (8..clean.written_len(&file)).step_by(stride()) {
                let ctx = format!("S={shards}: {file} torn at byte {at}");
                let vfs = Arc::new(FaultFs::new());
                vfs.inject(Fault::TornAppend {
                    path: file.clone(),
                    at,
                });
                let r = run.open(&vfs, FsyncPolicy::Always).unwrap();
                let (acked, err) = run.commit(&r.storage, 0..12, FsyncPolicy::Always);
                assert!(
                    matches!(err, Some(StorageError::Injected(_))),
                    "{ctx}: {err:?}"
                );
                drop(r);
                vfs.crash();
                let r = run.open(&vfs, FsyncPolicy::Always).unwrap();
                assert_eq!(
                    run.state_of(&r),
                    run.states[acked],
                    "{ctx}: recovered state differs from the {acked} acked transactions"
                );
            }
        }
    }
}

/// Flip (a sample of) every bit position of every fully synced log, then
/// reboot. Recovery must either repair — a flip in a log's final frame
/// is a torn tail — or refuse with a typed corruption error (a flip
/// anywhere else is mid-log damage).
#[test]
fn bit_flips_recover_a_prefix_or_fail_typed_never_panic() {
    for shards in SHARDS {
        let run = Run::new(7, 10, shards);
        let clean = Arc::new(FaultFs::new());
        run.commit(
            &run.open(&clean, FsyncPolicy::Always).unwrap().storage,
            0..10,
            FsyncPolicy::Always,
        );
        for file in logs(shards) {
            for offset in (0..clean.written_len(&file)).step_by(stride()) {
                let ctx = format!("S={shards}: flip in {file} at byte {offset}");
                let vfs = Arc::new(FaultFs::new());
                let r = run.open(&vfs, FsyncPolicy::Always).unwrap();
                run.commit(&r.storage, 0..10, FsyncPolicy::Always);
                vfs.inject(Fault::BitFlip {
                    path: file.clone(),
                    offset,
                    bit: (offset % 8) as u8,
                });
                drop(r);
                vfs.crash();
                match run.open(&vfs, FsyncPolicy::Always) {
                    Ok(r) => {
                        // a single-bit flip is always caught by the frame
                        // CRC, so an Ok recovery cut a final frame away:
                        // with one log exactly the last transaction is
                        // lost; with shard WALs the cut falls back to the
                        // last commit intact on every log
                        let got = run.state_of(&r);
                        assert!(r.report.repairs > 0, "{ctx}");
                        if shards == 1 {
                            assert_eq!(got, run.states[9], "{ctx}");
                        } else {
                            assert!(run.states[..10].contains(&got), "{ctx}: not a prefix");
                        }
                    }
                    Err(StorageError::Corrupt(_)) | Err(StorageError::Codec(_)) => {}
                    Err(e) => panic!("{ctx}: unexpected error kind {e}"),
                }
            }
        }
    }
}

/// A disk that acknowledges fsync but persists only half the pending
/// bytes. The durable lower bound is forfeit (the disk lied), but the
/// prefix guarantee must survive.
#[test]
fn lying_fsync_still_yields_a_consistent_prefix() {
    for seed in 0..10u64 {
        for shards in SHARDS {
            let mut rng = TestRng::new(0x5F5F + seed);
            let n = 4 + rng.below(8);
            let run = Run::new(0x5F5F + seed, n, shards);
            let files = logs(shards);
            let vfs = Arc::new(FaultFs::new());
            let r = run.open(&vfs, FsyncPolicy::EveryN(2)).unwrap();
            vfs.inject(Fault::ShortFsync {
                path: files[rng.below(files.len())].clone(),
            });
            assert_eq!(
                run.commit(&r.storage, 0..n, FsyncPolicy::EveryN(2)),
                (n, None)
            );
            drop(r);
            vfs.crash();
            let r = run.open(&vfs, FsyncPolicy::EveryN(2)).unwrap();
            let got = run.state_of(&r);
            assert!(
                run.states.contains(&got),
                "S={shards} seed {seed}: not a prefix"
            );
        }
    }
}

/// A failing group fsync — on the commit log or on any shard WAL the
/// commit touched — surfaces as a typed I/O error on that commit and
/// nacks the unsynced tail on **every** log: each is cut back to its
/// synced prefix and the store poisons itself, so every later commit is
/// refused typed and the rejected commit never becomes durable, whether
/// the process then crashes or simply reopens.
#[test]
fn failed_fsync_nacks_every_log_poisons_and_never_commits_the_rejected_transaction() {
    for shards in SHARDS {
        let run = Run::new(99, 8, shards);
        let mut targets = vec![COMMIT_LOG.to_string()];
        if shards > 1 {
            targets.extend(run.commits[3].1.iter().map(|(k, _)| shard_wal_file(*k)));
        }
        for file in targets {
            for crash in [true, false] {
                let ctx = format!("S={shards}: fsync of {file} fails, crash {crash}");
                let vfs = Arc::new(FaultFs::new());
                let r = run.open(&vfs, FsyncPolicy::Always).unwrap();
                assert_eq!(run.commit(&r.storage, 0..3, FsyncPolicy::Always), (3, None));
                vfs.inject(Fault::FailFsync { path: file.clone() });
                for i in 3..8 {
                    let (acked, err) = run.commit(&r.storage, i..i + 1, FsyncPolicy::Always);
                    assert_eq!(acked, i, "{ctx}: commit {i} acked");
                    assert!(matches!(err, Some(StorageError::Io(_))), "{ctx}: {err:?}");
                }
                assert!(r.storage.poisoned(), "{ctx}");
                for f in logs(shards) {
                    assert_eq!(vfs.written_len(&f), vfs.durable_len(&f), "{ctx}: {f} tail");
                }
                drop(r);
                if crash {
                    vfs.crash();
                }
                let r = run.open(&vfs, FsyncPolicy::Always).unwrap();
                assert_eq!(run.state_of(&r), run.states[3], "{ctx}");
            }
        }
    }
}

/// Where a checkpoint can be interrupted.
#[derive(Clone, Debug)]
enum Window {
    /// It completes.
    Done,
    /// Crash while atomically replacing this file (a shard snapshot —
    /// leaving some shards' snapshots new, some old — or the metadata).
    Replace(String),
    /// Crash after the metadata is installed, before any log is
    /// truncated: every commit at or below the watermark is re-applied
    /// over the snapshots.
    BeforeTruncate,
    /// Crash after the commit log is truncated, before the shard WALs
    /// are (their frames are then marked by no commit).
    BetweenTruncates,
}

fn windows(shards: usize) -> Vec<Window> {
    let mut w = vec![Window::Done, Window::BeforeTruncate];
    w.extend((0..shards).map(|k| Window::Replace(shard_snap_file(k))));
    w.push(Window::Replace(SHARD_META_FILE.into()));
    if shards > 1 {
        w.push(Window::BetweenTruncates);
    }
    w
}

/// Checkpoint after every prefix of a workload, crashing in every window
/// of the checkpoint. Recovery must restore exactly the checkpointed
/// state — nothing double-applied, nothing lost — and the store must
/// keep working: the rest of the workload commits on top, and snapshot
/// ⊕ tail recovers the same state as full replay, twice over.
#[test]
fn checkpoint_at_every_cut_and_crash_in_every_window_recovers_the_acked_state() {
    let always = FsyncPolicy::Always;
    for shards in SHARDS {
        let run = Run::new(2024, 10, shards);
        let n = run.commits.len();
        for cut in 0..=n {
            // the un-checkpointed twin: what the logs held before the
            // checkpoint truncated them
            let twin = Arc::new(FaultFs::new());
            run.commit(&run.open(&twin, always).unwrap().storage, 0..cut, always);
            for window in windows(shards) {
                let ctx = format!("S={shards}: checkpoint at {cut}, {window:?}");
                let vfs = Arc::new(FaultFs::new());
                let r = run.open(&vfs, always).unwrap();
                run.commit(&r.storage, 0..cut, always);
                if let Window::Replace(file) = &window {
                    vfs.inject(Fault::TornAppend {
                        path: file.clone(),
                        at: 0,
                    });
                }
                let checkpoint = r.storage.checkpoint(&run.images(cut));
                let grafted = match window {
                    Window::Done => Vec::new(),
                    Window::Replace(_) => {
                        assert!(
                            matches!(checkpoint, Err(StorageError::Injected(_))),
                            "{ctx}"
                        );
                        Vec::new()
                    }
                    Window::BeforeTruncate => logs(shards),
                    Window::BetweenTruncates => logs(shards)[1..].to_vec(),
                };
                if !matches!(window, Window::Replace(_)) {
                    assert_eq!(checkpoint, Ok(cut as u64), "{ctx}");
                }
                drop(r);
                for f in &grafted {
                    vfs.replace(f, &twin.read(f).unwrap().unwrap()).unwrap();
                }
                vfs.crash();
                let r = run
                    .open(&vfs, always)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(run.state_of(&r), run.states[cut], "{ctx}");
                assert_eq!(run.commit(&r.storage, cut..n, always), (n, None), "{ctx}");
                drop(r);
                vfs.crash();
                for pass in 0..2 {
                    let r = run.open(&vfs, always).unwrap();
                    assert_eq!(run.state_of(&r), run.states[n], "{ctx}: reopen {pass}");
                    assert_eq!(r.report.repairs, 0, "{ctx}: reopen {pass}");
                }
            }
        }
    }
}

/// The headline property: arbitrary workloads at either shard count,
/// random fsync policies, optional mid-workload checkpoints, a torn
/// append at an arbitrary byte of an arbitrary log. Recovery always
/// lands on a model prefix at or beyond the last durable commit, and a
/// second reopen is idempotent.
#[test]
fn recovery_roundtrip_property() {
    let seeds = if cfg!(feature = "storage-faults") {
        80
    } else {
        16
    };
    for seed in 0..seeds {
        let mut rng = TestRng::new(0xFE44 + seed as u64);
        let shards = SHARDS[rng.below(SHARDS.len())];
        let n = 4 + rng.below(10);
        let run = Run::new(0xFE44 + seed as u64, n, shards);
        let policy = match rng.below(3) {
            0 => FsyncPolicy::Always,
            1 => FsyncPolicy::EveryN(1 + rng.below(3) as u32),
            _ => FsyncPolicy::Os,
        };
        let with_checkpoints = rng.bool();
        let clean = Arc::new(FaultFs::new());
        run.commit(&run.open(&clean, policy).unwrap().storage, 0..n, policy);
        let files: Vec<String> = logs(shards)
            .into_iter()
            .filter(|f| clean.written_len(f) > 8)
            .collect();
        let file = files[rng.below(files.len())].clone();
        let at = 8 + rng.below((clean.written_len(&file) - 8) as usize) as u64;

        let vfs = Arc::new(FaultFs::new());
        vfs.inject(Fault::TornAppend { path: file, at });
        let r = run.open(&vfs, policy).unwrap();
        let (mut acked, mut synced) = (0usize, 0usize);
        while acked < n {
            match run.commit(&r.storage, acked..acked + 1, policy) {
                (_, None) => acked += 1,
                (_, Some(StorageError::Injected(_))) => break,
                (_, Some(e)) => panic!("seed {seed}: unexpected error {e}"),
            }
            if with_checkpoints && acked.is_multiple_of(3) {
                r.storage.checkpoint(&run.images(acked)).unwrap();
            }
            synced = r.storage.durable_gsn() as usize;
        }
        drop(r);
        vfs.crash();
        let recovered = run.state_of(&run.open(&vfs, policy).unwrap());
        // durable lower bound: the recovered state must be reachable
        // from some prefix at or beyond the last durable commit (and at
        // or below the acked count — unacked commits never half-apply)
        assert!(
            run.states[synced..=acked].contains(&recovered),
            "seed {seed} (S={shards}): recovered state outside [synced={synced}, acked={acked}]"
        );
        // recovery repaired the logs; a second open must agree with itself
        let again = run.open(&vfs, policy).unwrap();
        assert_eq!(run.state_of(&again), recovered, "seed {seed}: reopen");
        assert_eq!(again.report.repairs, 0, "seed {seed}: reopen repaired");
    }
}

/// At S = 4 under `Os`, a commit's marker can outlive one participant
/// shard's rows. That commit falls at the cut, and with it every later
/// commit — on every log — and a second reopen sees a clean prefix.
#[test]
fn a_marker_without_its_shard_rows_cuts_every_later_commit() {
    let (t, os) = ("t0".to_string(), FsyncPolicy::Os);
    let rows = |k: i64| vec![vec![Value::Int(k), Value::str("x")]];
    // keyed rows route by k mod 4: commit 1 touches shard 2, commit 2
    // shard 0
    let run = Run::of(
        &[
            vec![
                Op::Create {
                    table: t.clone(),
                    keyed: true,
                },
                Op::Insert {
                    table: t.clone(),
                    rows: rows(0),
                },
            ],
            vec![Op::Insert {
                table: t.clone(),
                rows: rows(2),
            }],
            vec![Op::Insert {
                table: t,
                rows: rows(4),
            }],
        ],
        4,
    );
    let vfs = Arc::new(FaultFs::new());
    let r = run.open(&vfs, os).unwrap();
    run.commit(&r.storage, 0..1, os);
    r.storage.sync().unwrap(); // gsn 1 fully durable
    run.commit(&r.storage, 1..3, os);
    // the commit log and shard 0 become durable, shard 2 does not: the
    // gsn-2 marker outlives its shard-2 rows
    vfs.sync(COMMIT_LOG).unwrap();
    vfs.sync(&shard_wal_file(0)).unwrap();
    drop(r);
    vfs.crash();
    let r = run.open(&vfs, os).unwrap();
    assert_eq!((r.report.cut_gsn, r.report.markers_dropped), (1, 2));
    assert_eq!(run.state_of(&r), run.states[1]);
    drop(r);
    // the dropped frames were truncated out of every log
    let r = run.open(&vfs, os).unwrap();
    assert_eq!((r.report.cut_gsn, r.report.markers_dropped), (1, 0));
    assert_eq!(r.storage.next_gsn(), 2);
}

/// At S = 1 a commit is one frame in one file made durable by one fsync:
/// the commit log grows by exactly one frame, no shard WAL exists, and
/// the group sync that acks the commit is its only fsync.
#[test]
fn a_one_shard_commit_costs_one_frame_and_one_fsync() {
    let run = Run::new(3, 6, 1);
    let vfs = Arc::new(FaultFs::new());
    let r = run.open(&vfs, FsyncPolicy::Always).unwrap();
    let frames = || {
        let log = vfs.read(COMMIT_LOG).unwrap();
        replay_wal(log.as_deref()).unwrap().records.len()
    };
    for i in 0..6 {
        let (syncs, before) = (vfs.syncs(), frames());
        let acked = run.commit(&r.storage, i..i + 1, FsyncPolicy::Always);
        assert_eq!(acked, (i + 1, None));
        assert_eq!(vfs.syncs() - syncs, 1, "commit {i}: fsyncs");
        assert_eq!(frames() - before, 1, "commit {i}: frames");
        assert_eq!(r.storage.durable_gsn(), i as u64 + 1);
    }
    assert_eq!(vfs.size(&shard_wal_file(0)).unwrap(), None, "no wal-0");
}
