//! Catalog defects must surface as `FerryError`s, not panics.
//!
//! A base table may hold cells of the engine's surrogate domain (`Nat`),
//! which have no DSL value. The interpreter export used to `expect()` its
//! way through these; now it reports them.

use ferry::prelude::*;
use ferry::Val;
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::Database;

#[test]
fn non_atomic_cell_is_an_error_not_a_panic() {
    // Nat is the engine's surrogate/order domain — representable in a
    // base table, but no DSL value corresponds to it
    let db = Database::new();
    db.create_table("odd", Schema::of(&[("a", Ty::Nat)]), vec!["a"])
        .unwrap();
    db.insert("odd", vec![vec![Value::Nat(7)]]).unwrap();
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
