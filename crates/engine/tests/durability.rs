//! Engine-level durability: `Database::open` / `open_vfs` round trips,
//! crash recovery of acked mutations and log compaction — the wiring
//! above `ferry-storage` that the storage crate's own fault suite
//! cannot see.

use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_engine::{Database, DurabilityConfig, EngineError, FsyncPolicy, StorageError};
use ferry_storage::codec::Enc;
use ferry_storage::frame::write_frame;
use ferry_storage::{Fault, FaultFs, Storage, Vfs, WalRecord, COMMIT_LOG, SNAPSHOT_FILE};
use ferry_telemetry::Registry;
use std::path::Path;
use std::sync::Arc;

fn v(i: i64) -> Value {
    Value::Int(i)
}

fn s(x: &str) -> Value {
    Value::str(x)
}

fn config() -> DurabilityConfig {
    DurabilityConfig::with_fsync(FsyncPolicy::Always)
}

fn open(vfs: &Arc<FaultFs>, config: DurabilityConfig) -> Result<Database, EngineError> {
    Database::open_vfs(vfs.clone() as Arc<dyn Vfs>, config)
}

fn seed_rows() -> Vec<Row> {
    vec![
        vec![v(1), s("ada")],
        vec![v(2), s("bob")],
        vec![v(3), s("cy")],
    ]
}

fn people_schema() -> Schema {
    Schema::of(&[("id", Ty::Int), ("name", Ty::Str)])
}

/// `people` + its seed rows as two commits.
fn create_people(db: &Database) {
    db.create_table("people", people_schema(), vec!["id"])
        .unwrap();
    db.insert("people", seed_rows()).unwrap();
}

#[test]
fn durable_roundtrip_restores_tables_and_bumps_schema_version() {
    let vfs = Arc::new(FaultFs::new());
    {
        let db = open(&vfs, config()).unwrap();
        assert!(db.is_durable());
        assert_eq!(db.schema_version(), 0, "fresh store recovered nothing");
        create_people(&db);
        db.create_table("empty", Schema::of(&[("x", Ty::Int)]), vec!["x"])
            .unwrap();
    }
    let db = open(&vfs, config()).unwrap();
    assert_eq!(db.table("people").unwrap().rows.rows(), &seed_rows()[..]);
    assert_eq!(db.table("people").unwrap().keys, vec!["id".to_string()]);
    assert!(db.table("empty").unwrap().rows.rows().is_empty());
    // one bump per recovered table, so plan caches keyed on a fresh
    // database cannot serve stale plans
    assert_eq!(db.schema_version(), 2);
    let report = db.recovery_report().unwrap();
    assert_eq!(report.commits_applied, 3);
    assert_eq!(report.cut_gsn, 3);
    assert!(report.render().contains("recovery"));
}

#[test]
fn acked_mutations_survive_a_torn_write_crash() {
    let vfs = Arc::new(FaultFs::new());
    let db = open(&vfs, config()).unwrap();
    create_people(&db);
    // tear the log mid-way through some future insert
    let at = vfs.written_len(COMMIT_LOG) + 40;
    vfs.inject(Fault::TornAppend {
        path: COMMIT_LOG.into(),
        at,
    });
    let mut acked = 3usize;
    let crashed = loop {
        match db.insert("people", vec![vec![v(acked as i64 + 1), s("extra")]]) {
            Ok(()) => acked += 1,
            Err(EngineError::Storage(_)) => break true,
            Err(e) => panic!("unexpected error: {e}"),
        }
        if acked > 100 {
            break false;
        }
    };
    assert!(crashed, "torn-write fault never fired");
    drop(db);
    vfs.crash();
    let db = open(&vfs, config()).unwrap();
    // fsync policy Always: every acked insert is durable, the torn one
    // is truncated away at recovery
    assert_eq!(db.table("people").unwrap().rows.rows().len(), acked);
    assert_eq!(db.recovery_report().unwrap().repairs, 1);
}

#[test]
fn checkpoint_compacts_the_log_and_recovery_uses_the_snapshot() {
    let vfs = Arc::new(FaultFs::new());
    let db = open(&vfs, config()).unwrap();
    create_people(&db);
    let before = vfs.written_len(COMMIT_LOG);
    let covered_gsn = db.checkpoint().unwrap();
    assert_eq!(covered_gsn, 2, "create + insert were logged");
    assert!(
        vfs.written_len(COMMIT_LOG) < before,
        "checkpoint must truncate the log"
    );
    // a post-checkpoint mutation lands in the log tail
    db.insert("people", vec![vec![v(4), s("dan")]]).unwrap();
    drop(db);
    let db = open(&vfs, config()).unwrap();
    assert_eq!(db.table("people").unwrap().rows.rows().len(), 4);
    let report = db.recovery_report().unwrap();
    assert_eq!(report.watermark_gsn, 2);
    assert_eq!(report.commits_applied, 1, "only the tail is replayed");
}

#[test]
fn automatic_checkpoint_fires_on_the_configured_budget() {
    let vfs = Arc::new(FaultFs::new());
    let db = open(
        &vfs,
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: Some(3),
        },
    )
    .unwrap();
    create_people(&db); // 2 records: create + insert
    db.insert("people", vec![vec![v(4), s("dan")]]).unwrap(); // 3rd: budget spent
    assert_eq!(
        vfs.written_len(COMMIT_LOG),
        8,
        "log compacted back to its magic"
    );
    drop(db);
    let db = open(&vfs, config()).unwrap();
    assert_eq!(db.table("people").unwrap().rows.rows().len(), 4);
    assert_eq!(db.recovery_report().unwrap().commits_applied, 0);
}

#[test]
fn auto_checkpoint_failure_does_not_fail_the_applied_mutation() {
    let vfs = Arc::new(FaultFs::new());
    let db = open(
        &vfs,
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: Some(3),
        },
    )
    .unwrap();
    // create_people logs 2 records, below the budget; the 3rd triggers
    // the auto-checkpoint — crash its snapshot write. The insert was
    // already durable and applied, so it must ack: surfacing the
    // compaction failure would invite a retry that double-applies rows.
    create_people(&db);
    vfs.inject(Fault::TornAppend {
        path: SNAPSHOT_FILE.into(),
        at: 0,
    });
    db.insert("people", vec![vec![v(4), s("dan")]]).unwrap();
    assert_eq!(db.table("people").unwrap().rows.rows().len(), 4);
    assert!(db.last_checkpoint_error().is_some());
    let failures = db
        .telemetry()
        .registry()
        .counter("storage.checkpoint_failures")
        .unwrap();
    assert_eq!(failures.get(), 1);
    drop(db);
    // the injected fault halted the "machine"; power-cycle and recover
    vfs.crash();
    let db = open(&vfs, config()).unwrap();
    assert_eq!(
        db.table("people").unwrap().rows.rows().len(),
        4,
        "the acked mutation survives the failed compaction"
    );
    assert!(db.last_checkpoint_error().is_none());
}

/// Every file of the store and its bytes.
fn files(vfs: &FaultFs) -> Vec<(String, Option<Vec<u8>>)> {
    let names = vfs.list().unwrap();
    names
        .into_iter()
        .map(|f| (f.clone(), vfs.read(&f).unwrap()))
        .collect()
}

/// The error opening `vfs` is refused with; the open writes nothing.
fn refusal(vfs: &Arc<FaultFs>) -> StorageError {
    let before = files(vfs);
    let err = match open(vfs, config()) {
        Err(EngineError::Storage(e)) => e,
        other => panic!("{other:?}"),
    };
    assert_eq!(files(vfs), before, "a refused open writes nothing");
    err
}

/// What only an earlier build could log is refused on open with a typed
/// error, every file left as it was: a commit frame holding a tag-2
/// member (a whole-table install), and a table whose key column is not
/// in its schema.
#[test]
fn a_tag_2_member_and_a_key_outside_its_schema_are_refused_untouched() {
    let vfs = Arc::new(FaultFs::new());
    drop(open(&vfs, config()).unwrap());
    // commit 1: a batch of one tag-2 member carrying its rows
    let mut e = Enc::new();
    e.u64(1);
    e.u8(4);
    e.u64(1);
    e.u8(2);
    e.str("imported");
    e.schema(&people_schema());
    e.strings(&["id".to_string()]);
    e.rows(&seed_rows());
    let mut frame = Vec::new();
    write_frame(&mut frame, &e.into_bytes()).unwrap();
    vfs.append(COMMIT_LOG, &frame).unwrap();
    vfs.sync(COMMIT_LOG).unwrap();
    let err = refusal(&vfs);
    assert!(
        matches!(&err, StorageError::Codec(m) if m.contains("tag 2")),
        "{err}"
    );

    // a table whose key is not in its schema, logged below the engine
    let vfs = Arc::new(FaultFs::new());
    let r = Storage::open(vfs.clone() as Arc<dyn Vfs>, config(), &Registry::default()).unwrap();
    let create = WalRecord::CreateTable {
        name: "people".into(),
        schema: people_schema(),
        keys: vec!["zzz".into()],
    };
    r.storage.log_commit(&[create]).unwrap();
    r.storage.group_sync().unwrap();
    drop(r);
    let err = refusal(&vfs);
    assert!(
        matches!(&err, StorageError::Corrupt(m) if m.contains("people") && m.contains("zzz")),
        "{err}"
    );
}

/// A transaction that inserts into a table and then replaces it logs
/// the replacement's DDL and none of the dead rows: recovery applies a
/// commit's DDL before its rows.
#[test]
fn replacing_a_table_inside_a_transaction_recovers_as_committed() {
    let vfs = Arc::new(FaultFs::new());
    let db = open(&vfs, config()).unwrap();
    create_people(&db);
    db.transact(|tx| {
        tx.insert("people", vec![vec![v(9), s("gone")]])?;
        tx.create_table("people", people_schema(), vec!["id"])?;
        tx.insert("people", vec![vec![v(5), s("eve")]])?;
        tx.insert("people", vec![vec![v(6), s("fay")]])
    })
    .unwrap();
    let want = db.table("people").unwrap().rows.rows().into_owned();
    assert_eq!(want, vec![vec![v(5), s("eve")], vec![v(6), s("fay")]]);
    drop(db);
    vfs.crash();
    let db = open(&vfs, config()).unwrap();
    assert_eq!(db.table("people").unwrap().rows.rows(), &want[..]);
}

#[test]
fn in_memory_database_is_unaffected_by_the_durability_layer() {
    let db = Database::new();
    assert!(!db.is_durable());
    assert!(db.recovery_report().is_none());
    create_people(&db);
    assert_eq!(db.checkpoint().unwrap(), 0, "checkpoint is a no-op");
}

#[test]
fn std_fs_directory_roundtrip() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("engine_durability_rt");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir, config()).unwrap();
        create_people(&db);
    }
    {
        let db = Database::open(&dir, config()).unwrap();
        assert_eq!(db.table("people").unwrap().rows.rows(), &seed_rows()[..]);
        db.checkpoint().unwrap();
        db.insert("people", vec![vec![v(4), s("dan")]]).unwrap();
    }
    let db = Database::open(&dir, config()).unwrap();
    assert_eq!(db.table("people").unwrap().rows.rows().len(), 4);
    assert_eq!(db.recovery_report().unwrap().watermark_gsn, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `replace` sidecar a crash left behind is not an installed file: a
/// directory holding only `meta.tmp` opens as a fresh store. Any other
/// file without a `meta` marks a directory this build did not write, and
/// the open is refused naming it, with every file left as it was.
#[test]
fn a_directory_is_fresh_only_when_it_holds_nothing_but_sidecars() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("engine_durability_fresh");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("meta.tmp"), b"half").unwrap();
    {
        let db = Database::open(&dir, config()).unwrap();
        assert!(db.table_names().is_empty());
        create_people(&db);
    }
    let db = Database::open(&dir, config()).unwrap();
    assert_eq!(db.table("people").unwrap().rows.rows(), &seed_rows()[..]);
    drop(db);

    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("meta.tmp"), b"half").unwrap();
    std::fs::write(dir.join("notes.txt"), b"mine").unwrap();
    match Database::open(&dir, config()) {
        Err(EngineError::Storage(StorageError::Unsupported(m))) => {
            assert!(m.contains("notes.txt") && !m.contains("meta.tmp"), "{m}")
        }
        other => panic!("{other:?}"),
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["meta.tmp", "notes.txt"]);
    assert_eq!(std::fs::read(dir.join("meta.tmp")).unwrap(), b"half");
    assert_eq!(std::fs::read(dir.join("notes.txt")).unwrap(), b"mine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable database registers no per-shard metric: its Prometheus
/// exposition names only the one store's counters.
#[test]
fn the_exposition_carries_no_shard_metrics() {
    let vfs = Arc::new(FaultFs::new());
    let db = open(&vfs, config()).unwrap();
    create_people(&db);
    let text = db.telemetry().registry().render_prometheus();
    assert!(text.contains("storage_wal_bytes"), "{text}");
    assert!(!text.contains("shard"), "{text}");
}
