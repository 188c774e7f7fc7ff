//! Upgrade in place: a store an earlier build wrote (the `one-shard`
//! fixture — v1 commit frames and an `FSSH0001` snapshot) takes new
//! commits in the current format on top of its old log. A crash that
//! tears any byte of the appended tail reopens to the fixture's rows plus
//! a prefix of the new commits, and the first checkpoint rewrites the
//! snapshot as `FSSH0002`.

use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_engine::{Database, DurabilityConfig, FsyncPolicy};
use ferry_storage::{FaultFs, Vfs, COMMIT_LOG, SNAPSHOT_FILE};
use std::path::Path;
use std::sync::Arc;

/// The fixture's files, loaded into a fresh in-memory file system.
fn fixture() -> Arc<FaultFs> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/one-shard");
    let vfs = Arc::new(FaultFs::new());
    for e in std::fs::read_dir(dir).unwrap() {
        let e = e.unwrap();
        let name = e.file_name().into_string().unwrap();
        vfs.replace(&name, &std::fs::read(e.path()).unwrap())
            .unwrap();
    }
    vfs
}

fn open(vfs: &Arc<FaultFs>) -> Database {
    let config = DurabilityConfig::with_fsync(FsyncPolicy::Always);
    Database::open_vfs(vfs.clone() as Arc<dyn Vfs>, config).unwrap()
}

/// Every table and its rows, by name.
fn state(db: &Database) -> Vec<(String, Vec<Row>)> {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let rows = db.table(&n).unwrap().rows.rows().to_vec();
            (n, rows)
        })
        .collect()
}

fn person(id: i64, name: &str, score: f64) -> Row {
    vec![Value::Int(id), Value::str(name), Value::Dbl(score)]
}

#[test]
fn new_commits_on_a_v1_log_survive_a_tear_at_every_byte_and_a_checkpoint() {
    let vfs = fixture();
    let db = open(&vfs);
    let mut states = vec![state(&db)];
    // the tail's frame boundaries, from the fixture's own end
    let mut ends = vec![vfs.written_len(COMMIT_LOG)];
    let commits: [&dyn Fn(&Database); 3] = [
        &|db| db.insert("people", vec![person(11, "hal", 6.0)]).unwrap(),
        &|db| {
            db.transact(|tx| {
                tx.create_table("late", Schema::of(&[("x", Ty::Int)]), vec![])?;
                tx.insert("late", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            })
            .unwrap()
        },
        &|db| {
            db.insert("imported", vec![vec![Value::Int(9), Value::Bool(true)]])
                .unwrap()
        },
    ];
    for commit in commits {
        commit(&db);
        states.push(state(&db));
        ends.push(vfs.written_len(COMMIT_LOG));
    }
    drop(db);
    let log = vfs.read(COMMIT_LOG).unwrap().unwrap();

    for at in ends[0]..=ends[3] {
        let torn = fixture();
        torn.replace(COMMIT_LOG, &log[..at as usize]).unwrap();
        let whole = ends.iter().rposition(|e| *e <= at).unwrap();
        let db = open(&torn);
        assert_eq!(state(&db), states[whole], "log torn at byte {at}");
        let report = db.recovery_report().unwrap();
        assert_eq!(report.cut_gsn, 7 + whole as u64, "log torn at byte {at}");
    }

    let db = open(&vfs);
    assert_eq!(state(&db), states[3]);
    assert_eq!(db.checkpoint().unwrap(), 10);
    drop(db);
    let snap = vfs.read(SNAPSHOT_FILE).unwrap().unwrap();
    assert_eq!(&snap[..8], b"FSSH0002");
    let db = open(&vfs);
    assert_eq!(state(&db), states[3]);
    assert_eq!(db.recovery_report().unwrap().watermark_gsn, 10);
}
