//! Directories checked in under `tests/fixtures/`, and what this build
//! does with each. This build reads only the layout it writes (`meta`,
//! `snapshot`, `log`):
//!
//! * `store` — written by this build's `Database::open` running
//!   [`fixture_script`]: a table created, inserted into twice and
//!   replaced inside a transaction, an empty table, a table created and
//!   filled in one transaction, a checkpoint, then one more insert left
//!   in the log. It opens with every
//!   row and writes nothing, and replaying the script into a fresh
//!   directory writes byte-identical files. A change to the encoding
//!   fails that replay on purpose.
//! * `one-shard-v2` — the same script written by the previous build, in
//!   its layout (`shard-meta`, `snap-0`, `commitlog`). It is refused
//!   `Unsupported`, and every file is left as it was.

use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_engine::{Database, DurabilityConfig, EngineError, FsyncPolicy, StorageError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn config() -> DurabilityConfig {
    DurabilityConfig::with_fsync(FsyncPolicy::Always)
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Every file of `dir` and its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// A scratch copy of fixture `name` (opening a directory may repair it;
/// the checked-in one must stay as written).
fn copy(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("on_disk_format")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (file, bytes) in files(&fixture(name)) {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    dir
}

fn rows_of(db: &Database, table: &str) -> Vec<Row> {
    db.table(table)
        .unwrap_or_else(|| panic!("table {table} missing"))
        .rows
        .rows()
        .to_vec()
}

fn person(id: i64, name: &str, score: f64) -> Row {
    vec![Value::Int(id), Value::str(name), Value::Dbl(score)]
}

fn people_schema() -> Schema {
    Schema::of(&[("id", Ty::Int), ("name", Ty::Str), ("score", Ty::Dbl)])
}

/// The script that wrote the `store` and `one-shard-v2` fixtures.
fn fixture_script(db: &Database) {
    db.create_table("people", people_schema(), vec!["id"])
        .unwrap();
    db.insert(
        "people",
        vec![person(1, "ada", 1.5), person(2, "bob", -0.0)],
    )
    .unwrap();
    db.insert("people", vec![person(3, "cy", 2.25)]).unwrap();
    db.transact(|tx| {
        tx.insert("people", vec![person(9, "gone", 0.0)])?;
        tx.create_table("people", people_schema(), vec!["id"])?;
        tx.insert("people", vec![person(5, "eve", 3.0)])?;
        tx.insert("people", vec![person(6, "fay", 4.5)])
    })
    .unwrap();
    db.create_table("empty", Schema::of(&[("x", Ty::Int)]), vec!["x"])
        .unwrap();
    db.transact(|tx| {
        tx.create_table(
            "imported",
            Schema::of(&[("n", Ty::Int), ("ok", Ty::Bool)]),
            vec!["n"],
        )?;
        tx.insert(
            "imported",
            vec![
                vec![Value::Int(7), Value::Bool(true)],
                vec![Value::Int(8), Value::Bool(false)],
            ],
        )
    })
    .unwrap();
    db.checkpoint().unwrap();
    db.insert("people", vec![person(10, "gil", 5.0)]).unwrap();
}

#[test]
fn the_store_fixture_opens_with_every_row_and_writes_nothing() {
    let dir = copy("store");
    let db = Database::open(&dir, config()).unwrap();
    assert_eq!(
        rows_of(&db, "people"),
        vec![
            person(5, "eve", 3.0),
            person(6, "fay", 4.5),
            person(10, "gil", 5.0)
        ]
    );
    assert!(rows_of(&db, "empty").is_empty());
    assert_eq!(
        rows_of(&db, "imported"),
        vec![
            vec![Value::Int(7), Value::Bool(true)],
            vec![Value::Int(8), Value::Bool(false)],
        ]
    );
    let report = db.recovery_report().unwrap();
    assert_eq!((report.watermark_gsn, report.commits_applied), (6, 1));
    drop(db);
    assert_eq!(files(&dir), files(&fixture("store")));
}

#[test]
fn replaying_the_script_writes_byte_identical_files() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("on_disk_format_replay");
    let _ = std::fs::remove_dir_all(&dir);
    fixture_script(&Database::open(&dir, config()).unwrap());
    let (want, got) = (files(&fixture("store")), files(&dir));
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>()
    );
    for (file, bytes) in &want {
        assert!(got[file] == *bytes, "{file} differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_previous_layout_is_refused_untouched() {
    let dir = copy("one-shard-v2");
    let before = files(&dir);
    assert_eq!(before, files(&fixture("one-shard-v2")));
    match Database::open(&dir, config()) {
        Err(EngineError::Storage(StorageError::Unsupported(m))) => {
            assert!(m.contains("commitlog, shard-meta, snap-0"), "{m}")
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(files(&dir), before, "a refusal writes nothing");
}
