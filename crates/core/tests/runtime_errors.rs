//! Catalog defects must surface as `FerryError`s, not panics.
//!
//! `Database::install_table` skips `create_table`'s validation (the
//! restore-from-snapshot escape hatch), so the runtime can meet tables
//! whose invariants do not hold: key columns missing from the schema,
//! cells in the engine's surrogate domain that have no DSL value. The
//! interpreter export used to `expect()` its way through these; now it
//! reports them.

use ferry::prelude::*;
use ferry::Val;
use ferry_algebra::{Rel, Schema, Ty, Value};
use ferry_engine::{BaseTable, Database};

#[test]
fn missing_key_column_is_an_error_not_a_panic() {
    let db = Database::new();
    db.install_table(
        "broken",
        BaseTable {
            schema: Schema::of(&[("a", Ty::Int)]),
            keys: vec!["zzz".to_string()],
            rows: Rel::new(Schema::of(&[("a", Ty::Int)]), vec![vec![Value::Int(1)]]),
        },
    )
    .unwrap();
    let conn = Connection::new(db);

    let err = conn.interpreter_tables().unwrap_err();
    match &err {
        FerryError::Table(msg) => {
            assert!(msg.contains("key column zzz"), "got: {msg}");
            assert!(msg.contains("broken"), "names the table: {msg}");
        }
        other => panic!("expected FerryError::Table, got {other:?}"),
    }

    // the interpreter path propagates the same error
    let q = table::<i64>("broken");
    assert!(matches!(conn.interpret(&q), Err(FerryError::Table(_))));
}

#[test]
fn non_atomic_cell_is_an_error_not_a_panic() {
    // Nat is the engine's surrogate/order domain — representable in a
    // base table via install_table, but no DSL value corresponds to it
    let db = Database::new();
    db.install_table(
        "odd",
        BaseTable {
            schema: Schema::of(&[("a", Ty::Nat)]),
            keys: vec!["a".to_string()],
            rows: Rel::new(Schema::of(&[("a", Ty::Nat)]), vec![vec![Value::Nat(7)]]),
        },
    )
    .unwrap();
    let conn = Connection::new(db);

    let err = conn.interpreter_tables().unwrap_err();
    match &err {
        FerryError::Table(msg) => {
            assert!(msg.contains("odd"), "names the table: {msg}");
            assert!(msg.contains("not an atomic value"), "got: {msg}");
        }
        other => panic!("expected FerryError::Table, got {other:?}"),
    }
}

#[test]
fn healthy_catalog_still_exports() {
    let db = Database::new();
    db.create_table("t", Schema::of(&[("a", Ty::Int)]), vec!["a"])
        .unwrap();
    db.insert("t", vec![vec![Value::Int(2)], vec![Value::Int(1)]])
        .unwrap();
    let conn = Connection::new(db);
    let tables = conn.interpreter_tables().unwrap();
    assert_eq!(
        tables["t"],
        Val::List(vec![Val::Int(1), Val::Int(2)]),
        "rows in key order"
    );
}
