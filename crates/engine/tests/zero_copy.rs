//! Regression tests for the copy-free execution paths: scans must share
//! the catalog's column `Arc`s (`Arc::ptr_eq`, not just equal contents),
//! and pass-through operators must keep sharing them. Also locks in the
//! append path (string codes across insert batches, snapshots keeping
//! their own columns) and that malformed plans reaching the executor
//! surface `NoSuchColumn` errors instead of panicking.

use ferry_algebra::{
    infer_schema, plan::cn, BinOp, ColVec, Dir, Expr, JoinCols, Plan, Rel, Schema, Ty, Value,
};
use ferry_engine::{Database, EngineError, QueryStats, VecMode};
use std::sync::Arc;

fn db() -> Database {
    let db = Database::new();
    db.create_table(
        "t",
        Schema::of(&[("a", Ty::Int), ("b", Ty::Str)]),
        vec!["a"],
    )
    .unwrap();
    db.insert(
        "t",
        (0..100)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "x" } else { "y" }),
                ]
            })
            .collect(),
    )
    .unwrap();
    db
}

fn scan(plan: &mut Plan) -> ferry_algebra::NodeId {
    plan.table(
        "t",
        vec![(cn("a"), Ty::Int), (cn("b"), Ty::Str)],
        vec![cn("a")],
    )
}

/// The catalog's rows of table `t`.
fn stored(db: &Database) -> Rel {
    db.table("t").unwrap().rows
}

/// Is column `c` of `rel` column `tc` of `of` itself?
fn shares(rel: &Rel, c: usize, of: &Rel, tc: usize) -> bool {
    Arc::ptr_eq(rel.col(c), of.col(tc))
}

#[test]
fn table_scan_shares_catalog_columns() {
    let db = db();
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let rel = db.execute(&plan, t).unwrap();
    // the scan result's columns *are* the base table's — no cell was copied
    let table = stored(&db);
    assert!(shares(&rel, 0, &table, 0) && shares(&rel, 1, &table, 1));
    assert_eq!(rel.len(), 100);
}

#[test]
fn filter_and_sort_stay_on_the_shared_columns() {
    let db = db();
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let sel = plan.select(t, Expr::bin(BinOp::Gt, Expr::col("a"), Expr::lit(49i64)));
    let ser = plan.serialize(sel, vec![(cn("a"), Dir::Desc)], vec![cn("b"), cn("a")]);
    let rel = db.execute(&plan, ser).unwrap();
    // select emitted a selection vector and serialize a sorted one over
    // the picked columns — all still views over the catalog's columns
    let table = stored(&db);
    assert!(shares(&rel, 0, &table, 1) && shares(&rel, 1, &table, 0));
    assert_eq!(rel.len(), 50);
    assert_eq!(rel.rows()[0], vec![Value::str("y"), Value::Int(99)]);
}

#[test]
fn project_picks_its_input_columns() {
    let db = db();
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let p = plan.project(t, vec![(cn("bb"), cn("b")), (cn("aa"), cn("a"))]);
    let rel = db.execute(&plan, p).unwrap();
    let table = stored(&db);
    assert!(shares(&rel, 0, &table, 1) && shares(&rel, 1, &table, 0));
}

#[test]
fn an_unfiltered_compute_adds_one_column_beside_its_inputs() {
    let db = db();
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let c = plan.compute(
        t,
        "c",
        Expr::bin(BinOp::Mul, Expr::col("a"), Expr::lit(2i64)),
    );
    let rel = db.execute(&plan, c).unwrap();
    let table = stored(&db);
    assert_eq!(rel.width(), 3);
    assert!(shares(&rel, 0, &table, 0) && shares(&rel, 1, &table, 1));
    assert_eq!(rel.col(2).as_int().unwrap()[..3], [0, 2, 4]);
    assert!(rel.sel().is_none());
}

#[test]
fn literal_executions_share_one_set_of_columns() {
    let db = Database::new();
    let mut plan = Plan::new();
    let l = plan.lit(
        Schema::of(&[("x", Ty::Int)]),
        (0..10).map(|i| vec![Value::Int(i)]).collect(),
    );
    let r1 = db.execute(&plan, l).unwrap();
    let r2 = db.execute(&plan, l).unwrap();
    // both executions and the plan itself share one column
    assert!(shares(&r1, 0, &r2, 0));
}

#[test]
fn insert_after_scan_leaves_its_columns_intact() {
    let db = db();
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let before = db.execute(&plan, t).unwrap();
    let cells = before.col(0).clone();
    // copy-on-write: the insert must not mutate the outstanding result
    db.insert("t", vec![vec![Value::Int(1000), Value::str("z")]])
        .unwrap();
    assert_eq!((before.len(), cells.len()), (100, 100));
    let after = db.execute(&plan, t).unwrap();
    assert_eq!(after.len(), 101);
    assert!(!shares(&before, 0, &after, 0));
    assert!(Arc::ptr_eq(before.col(0), &cells));
}

/// Two insert batches into a table keyed on a string: strings the second
/// batch repeats keep their codes, new ones get new codes, the typed join
/// and distinct agree with the scalar oracle over both batches, and a
/// snapshot pinned between the batches keeps its own columns.
#[test]
fn appended_strings_keep_their_codes_and_snapshots_their_columns() {
    let db = Database::new();
    db.create_table(
        "s",
        Schema::of(&[("k", Ty::Str), ("n", Ty::Int)]),
        vec!["k"],
    )
    .unwrap();
    let batch = |ks: &[&str], n0: i64| -> Vec<Vec<Value>> {
        (ks.iter().zip(n0..))
            .map(|(k, n)| vec![Value::str(*k), Value::Int(n)])
            .collect()
    };
    db.insert("s", batch(&["p", "q", "p", "r"], 0)).unwrap();
    let pinned = db.snapshot();
    let first = pinned.table("s").unwrap().rows.clone();
    db.insert("s", batch(&["q", "s", "p", "t", "s"], 10))
        .unwrap();

    let rows = db.table("s").unwrap().rows;
    let ColVec::Str { codes, dict } = rows.col(0).as_ref() else {
        panic!("a str column is dictionary-encoded");
    };
    assert_eq!(codes.len(), 9);
    assert_eq!(dict.len(), 5, "p q r s t, once each");
    for i in 0..codes.len() {
        for j in 0..codes.len() {
            assert_eq!(codes[i] == codes[j], rows.cell(i, 0) == rows.cell(j, 0));
        }
    }

    // the pinned snapshot still sees its 4 rows in its own columns
    let then = pinned.table("s").unwrap();
    assert_eq!(then.rows.len(), 4);
    assert!(shares(&then.rows, 0, &first, 0) && shares(&then.rows, 1, &first, 1));
    assert!(!shares(&then.rows, 0, &rows, 0));

    // a self-join on the key and a distinct over the table, both modes
    let mut plan = Plan::new();
    let l = plan.table(
        "s",
        vec![(cn("k"), Ty::Str), (cn("n"), Ty::Int)],
        vec![cn("k")],
    );
    let r = plan.table(
        "s",
        vec![(cn("k2"), Ty::Str), (cn("n2"), Ty::Int)],
        vec![cn("k2")],
    );
    let on = JoinCols {
        left: vec![cn("k")],
        right: vec![cn("k2")],
    };
    let join = plan.equi_join(l, r, on);
    let keys = plan.project(l, vec![(cn("k"), cn("k"))]);
    let distinct = plan.distinct(keys);
    let mut got = Vec::new();
    for vec in [VecMode::On, VecMode::Off] {
        db.set_vec_mode(vec);
        got.push(db.execute_bundle(&plan, &[join, distinct]).unwrap());
    }
    assert_eq!(got[0], got[1]);
    assert_eq!(got[0][0].len(), 3 * 3 + 2 * 2 + 2 * 2 + 1 + 1);
    assert_eq!(got[0][1].len(), 5);
}

/// Drive the executor with hand-forged schemas (bypassing `infer_schema`,
/// which would reject these plans) and check every resolver reports the
/// missing column as an error instead of panicking.
#[test]
fn malformed_plans_report_no_such_column() {
    let db = db();
    let schema = Schema::of(&[("a", Ty::Int), ("b", Ty::Str)]);

    // serialize ordering on a column the input does not have
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let bad = plan.serialize(t, vec![(cn("zzz"), Dir::Asc)], vec![cn("a")]);
    let schemas = vec![schema.clone(); plan.len()];
    let err = ferry_engine::exec::run(
        &db.snapshot(),
        &plan,
        bad,
        &schemas,
        &mut QueryStats::default(),
        &mut Vec::new(),
    )
    .unwrap_err();
    assert!(
        matches!(&err, EngineError::NoSuchColumn { col, .. } if col == "zzz"),
        "unexpected error: {err}"
    );

    // window partition column missing
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let bad = plan.rownum(t, "rn", vec![cn("ghost")], vec![(cn("a"), Dir::Asc)]);
    let schemas = vec![schema.clone(); plan.len()];
    let err = ferry_engine::exec::run(
        &db.snapshot(),
        &plan,
        bad,
        &schemas,
        &mut QueryStats::default(),
        &mut Vec::new(),
    )
    .unwrap_err();
    assert!(matches!(&err, EngineError::NoSuchColumn { col, .. } if col == "ghost"));

    // projection from a column that is not there
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let bad = plan.project(t, vec![(cn("out"), cn("nope"))]);
    let schemas = vec![schema.clone(); plan.len()];
    let err = ferry_engine::exec::run(
        &db.snapshot(),
        &plan,
        bad,
        &schemas,
        &mut QueryStats::default(),
        &mut Vec::new(),
    )
    .unwrap_err();
    assert!(matches!(&err, EngineError::NoSuchColumn { col, .. } if col == "nope"));

    // well-formed plans still pass schema inference and execute
    let mut plan = Plan::new();
    let t = scan(&mut plan);
    let ok = plan.serialize(t, vec![(cn("a"), Dir::Asc)], vec![cn("b")]);
    assert!(infer_schema(&plan).is_ok());
    assert!(db.execute(&plan, ok).is_ok());
}
