//! Operator-level tests: each physical operator of the table algebra is
//! exercised against hand-computed expectations.

use ferry_algebra::{
    plan::{cn, Aggregate},
    AggFun, BinOp, Dir, Expr, JoinCols, Plan, Rel, Schema, Ty, Value,
};
use ferry_engine::Database;

fn v(i: i64) -> Value {
    Value::Int(i)
}

fn s(x: &str) -> Value {
    Value::str(x)
}

fn db() -> Database {
    let db = Database::new();
    db.create_table(
        "emp",
        Schema::of(&[("dept", Ty::Str), ("name", Ty::Str), ("sal", Ty::Int)]),
        vec!["name"],
    )
    .unwrap();
    db.insert(
        "emp",
        vec![
            vec![s("eng"), s("ada"), v(90)],
            vec![s("eng"), s("bob"), v(70)],
            vec![s("ops"), s("cy"), v(50)],
            vec![s("eng"), s("dan"), v(70)],
        ],
    )
    .unwrap();
    db
}

fn exec(db: &Database, plan: &Plan, root: ferry_algebra::NodeId) -> Rel {
    db.execute(plan, root).unwrap()
}

fn emp_ref(p: &mut Plan) -> ferry_algebra::NodeId {
    p.table(
        "emp",
        vec![
            (cn("dept"), Ty::Str),
            (cn("name"), Ty::Str),
            (cn("sal"), Ty::Int),
        ],
        vec![cn("name")],
    )
}

#[test]
fn table_ref_reads_catalog() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let r = exec(&db, &p, t);
    assert_eq!(r.len(), 4);
    assert_eq!(r.schema.names().count(), 3);
}

#[test]
fn table_ref_type_mismatch_is_reported() {
    let db = db();
    let mut p = Plan::new();
    let t = p.table("emp", vec![(cn("a"), Ty::Int)], vec![]);
    assert!(db.execute(&p, t).is_err());
}

#[test]
fn missing_table_is_reported() {
    let db = db();
    let mut p = Plan::new();
    let t = p.table("ghost", vec![(cn("a"), Ty::Int)], vec![]);
    assert!(matches!(
        db.execute(&p, t),
        Err(ferry_engine::EngineError::NoSuchTable(_))
    ));
}

#[test]
fn select_compute_project() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let hi = p.select(t, Expr::bin(BinOp::Ge, Expr::col("sal"), Expr::lit(70i64)));
    let bonus = p.compute(
        hi,
        "bonus",
        Expr::bin(BinOp::Div, Expr::col("sal"), Expr::lit(10i64)),
    );
    let proj = p.project(
        bonus,
        vec![(cn("who"), cn("name")), (cn("bonus"), cn("bonus"))],
    );
    let r = exec(&db, &p, proj);
    assert_eq!(
        r.schema,
        Schema::of(&[("who", Ty::Str), ("bonus", Ty::Int)])
    );
    assert_eq!(r.len(), 3);
    let bonuses: Vec<i64> = r
        .column("bonus")
        .unwrap()
        .map(|x| x.as_int().unwrap())
        .collect();
    assert_eq!(bonuses, vec![9, 7, 7]);
}

#[test]
fn attach_appends_constant() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let a = p.attach(t, "one", Value::Nat(1));
    let r = exec(&db, &p, a);
    assert!(r.column("one").unwrap().all(|x| x == Value::Nat(1)));
}

#[test]
fn distinct_keeps_first_occurrence() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let d0 = p.project(t, vec![(cn("dept"), cn("dept"))]);
    let d = p.distinct(d0);
    let r = exec(&db, &p, d);
    let depts: Vec<String> = r
        .column("dept")
        .unwrap()
        .map(|x| x.as_str().unwrap().to_string())
        .collect();
    assert_eq!(depts, vec!["eng", "ops"]);
}

#[test]
fn union_all_is_a_bag() {
    let db = db();
    let mut p = Plan::new();
    let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![vec![v(1)], vec![v(2)]]);
    let b = p.lit(Schema::of(&[("y", Ty::Int)]), vec![vec![v(2)]]);
    let u = p.union_all(a, b);
    let r = exec(&db, &p, u);
    assert_eq!(r.len(), 3);
    assert_eq!(r.schema.index_of("x"), Some(0)); // left names win
}

#[test]
fn difference_is_set_semantics() {
    let db = db();
    let mut p = Plan::new();
    let a = p.lit(
        Schema::of(&[("x", Ty::Int)]),
        vec![vec![v(1)], vec![v(1)], vec![v(2)], vec![v(3)]],
    );
    let b = p.lit(Schema::of(&[("x", Ty::Int)]), vec![vec![v(2)]]);
    let d = p.difference(a, b);
    let r = exec(&db, &p, d);
    let xs: Vec<i64> = r
        .column("x")
        .unwrap()
        .map(|x| x.as_int().unwrap())
        .collect();
    assert_eq!(xs, vec![1, 3]); // distinct, 2 removed
}

#[test]
fn cross_join_product() {
    let db = db();
    let mut p = Plan::new();
    let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![vec![v(1)], vec![v(2)]]);
    let b = p.lit(
        Schema::of(&[("y", Ty::Str)]),
        vec![vec![s("a")], vec![s("b")]],
    );
    let c = p.cross(a, b);
    let r = exec(&db, &p, c);
    assert_eq!(r.len(), 4);
}

#[test]
fn equi_join_matches_pairs() {
    let db = db();
    let mut p = Plan::new();
    let a = p.lit(
        Schema::of(&[("x", Ty::Int), ("lx", Ty::Str)]),
        vec![vec![v(1), s("a")], vec![v(2), s("b")], vec![v(3), s("c")]],
    );
    let b = p.lit(
        Schema::of(&[("y", Ty::Int), ("ly", Ty::Str)]),
        vec![vec![v(2), s("B")], vec![v(2), s("B2")], vec![v(3), s("C")]],
    );
    let j = p.equi_join(a, b, JoinCols::single("x", "y"));
    let r = exec(&db, &p, j);
    assert_eq!(r.len(), 3); // 2 matches twice, 3 once
    assert_eq!(r.schema.len(), 4);
}

#[test]
fn semi_and_anti_join() {
    let db = db();
    let mut p = Plan::new();
    let a = p.lit(
        Schema::of(&[("x", Ty::Int)]),
        vec![vec![v(1)], vec![v(2)], vec![v(3)]],
    );
    let b = p.lit(Schema::of(&[("y", Ty::Int)]), vec![vec![v(2)], vec![v(2)]]);
    let sj = p.semi_join(a, b, JoinCols::single("x", "y"));
    let aj = p.anti_join(a, b, JoinCols::single("x", "y"));
    let rs = exec(&db, &p, sj);
    let ra = exec(&db, &p, aj);
    let xs: Vec<i64> = rs
        .column("x")
        .unwrap()
        .map(|x| x.as_int().unwrap())
        .collect();
    assert_eq!(xs, vec![2]); // no duplication from the two matches
    let ys: Vec<i64> = ra
        .column("x")
        .unwrap()
        .map(|x| x.as_int().unwrap())
        .collect();
    assert_eq!(ys, vec![1, 3]);
}

#[test]
fn theta_join_general_predicate() {
    let db = db();
    let mut p = Plan::new();
    let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![vec![v(1)], vec![v(5)]]);
    let b = p.lit(Schema::of(&[("y", Ty::Int)]), vec![vec![v(3)]]);
    let j = p.theta_join(a, b, Expr::bin(BinOp::Lt, Expr::col("x"), Expr::col("y")));
    let r = exec(&db, &p, j);
    assert_eq!(r.len(), 1);
    assert_eq!(r.rows()[0], vec![v(1), v(3)]);
    // the output columns hold the matching pairs only, not the cross
    // product under a selection
    assert!(r.sel().is_none());
    assert_eq!(r.col(0).len(), 1);
}

#[test]
fn rownum_partitions_and_orders() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let rn = p.rownum(
        t,
        "pos",
        vec![cn("dept")],
        vec![(cn("sal"), Dir::Desc), (cn("name"), Dir::Asc)],
    );
    let ser = p.serialize(
        rn,
        vec![(cn("dept"), Dir::Asc), (cn("pos"), Dir::Asc)],
        vec![cn("dept"), cn("name"), cn("pos")],
    );
    let r = exec(&db, &p, ser);
    let rows: Vec<(String, u64)> = r
        .rows()
        .iter()
        .map(|row| {
            (
                row[1].as_str().unwrap().to_string(),
                row[2].as_nat().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            ("ada".into(), 1),
            ("bob".into(), 2),
            ("dan".into(), 3),
            ("cy".into(), 1),
        ]
    );
}

#[test]
fn dense_rank_assigns_surrogates() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let dr = p.dense_rank(t, "grp", vec![], vec![(cn("dept"), Dir::Asc)]);
    let ser = p.serialize(
        dr,
        vec![(cn("name"), Dir::Asc)],
        vec![cn("name"), cn("grp")],
    );
    let r = exec(&db, &p, ser);
    let grp: Vec<u64> = r
        .column("grp")
        .unwrap()
        .map(|x| x.as_nat().unwrap())
        .collect();
    // ada,bob,dan in eng (group 1), cy in ops (group 2)
    assert_eq!(grp, vec![1, 1, 2, 1]);
}

#[test]
fn rank_has_gaps_dense_rank_does_not() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let rk = p.add(ferry_algebra::Node::RowRank {
        input: t,
        col: cn("rk"),
        order: vec![(cn("sal"), Dir::Desc)],
    });
    let dr = p.dense_rank(rk, "dr", vec![], vec![(cn("sal"), Dir::Desc)]);
    let ser = p.serialize(
        dr,
        vec![(cn("sal"), Dir::Desc), (cn("name"), Dir::Asc)],
        vec![cn("name"), cn("rk"), cn("dr")],
    );
    let r = exec(&db, &p, ser);
    let pairs: Vec<(u64, u64)> = r
        .rows()
        .iter()
        .map(|row| (row[1].as_nat().unwrap(), row[2].as_nat().unwrap()))
        .collect();
    // sal: 90 (rank 1), 70, 70 (rank 2), 50 (rank 4 with gaps, dense 3)
    assert_eq!(pairs, vec![(1, 1), (2, 2), (2, 2), (4, 3)]);
}

#[test]
fn group_by_aggregates() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let g = p.group_by(
        t,
        vec![cn("dept")],
        vec![
            Aggregate {
                fun: AggFun::CountAll,
                input: None,
                output: cn("n"),
            },
            Aggregate {
                fun: AggFun::Sum,
                input: Some(cn("sal")),
                output: cn("total"),
            },
            Aggregate {
                fun: AggFun::Min,
                input: Some(cn("name")),
                output: cn("first"),
            },
            Aggregate {
                fun: AggFun::Max,
                input: Some(cn("sal")),
                output: cn("top"),
            },
            Aggregate {
                fun: AggFun::Avg,
                input: Some(cn("sal")),
                output: cn("avg"),
            },
        ],
    );
    let ser = p.serialize(
        g,
        vec![(cn("dept"), Dir::Asc)],
        vec![
            cn("dept"),
            cn("n"),
            cn("total"),
            cn("first"),
            cn("top"),
            cn("avg"),
        ],
    );
    let r = exec(&db, &p, ser);
    assert_eq!(
        r.rows()[0],
        vec![
            s("eng"),
            v(3),
            v(230),
            s("ada"),
            v(90),
            Value::Dbl(230.0 / 3.0)
        ]
    );
    assert_eq!(
        r.rows()[1],
        vec![s("ops"), v(1), v(50), s("cy"), v(50), Value::Dbl(50.0)]
    );
}

#[test]
fn group_by_bool_aggregates() {
    let db = db();
    let mut p = Plan::new();
    let t = p.lit(
        Schema::of(&[("k", Ty::Int), ("b", Ty::Bool)]),
        vec![
            vec![v(1), Value::Bool(true)],
            vec![v(1), Value::Bool(false)],
            vec![v(2), Value::Bool(true)],
        ],
    );
    let g = p.group_by(
        t,
        vec![cn("k")],
        vec![
            Aggregate {
                fun: AggFun::All,
                input: Some(cn("b")),
                output: cn("all"),
            },
            Aggregate {
                fun: AggFun::Any,
                input: Some(cn("b")),
                output: cn("any"),
            },
        ],
    );
    let ser = p.serialize(
        g,
        vec![(cn("k"), Dir::Asc)],
        vec![cn("k"), cn("all"), cn("any")],
    );
    let r = exec(&db, &p, ser);
    assert_eq!(
        r.rows()[0],
        vec![v(1), Value::Bool(false), Value::Bool(true)]
    );
    assert_eq!(
        r.rows()[1],
        vec![v(2), Value::Bool(true), Value::Bool(true)]
    );
}

#[test]
fn group_by_empty_input_yields_no_groups() {
    let db = db();
    let mut p = Plan::new();
    let t = p.lit(Schema::of(&[("k", Ty::Int)]), vec![]);
    let g = p.group_by(
        t,
        vec![cn("k")],
        vec![Aggregate {
            fun: AggFun::CountAll,
            input: None,
            output: cn("n"),
        }],
    );
    let r = exec(&db, &p, g);
    assert!(r.is_empty());
}

#[test]
fn serialize_orders_and_projects() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let ser = p.serialize(
        t,
        vec![(cn("sal"), Dir::Desc), (cn("name"), Dir::Asc)],
        vec![cn("name")],
    );
    let r = exec(&db, &p, ser);
    let names: Vec<String> = r
        .column("name")
        .unwrap()
        .map(|x| x.as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, vec!["ada", "bob", "dan", "cy"]);
}

#[test]
fn dag_sharing_evaluates_shared_node_once() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let d0 = p.project(t, vec![(cn("dept"), cn("dept"))]);
    let d = p.distinct(d0);
    // self-join of the shared distinct node (renamed on one side)
    let renamed = p.project(d, vec![(cn("dept2"), cn("dept"))]);
    let j = p.equi_join(d, renamed, JoinCols::single("dept", "dept2"));
    db.reset_stats();
    let r = exec(&db, &p, j);
    assert_eq!(r.len(), 2);
    // nodes: table, project, distinct, project(rename), join = 5
    assert_eq!(db.stats().nodes_evaluated, 5);
}

/// Parameters are bound before dispatch: a template that reaches the
/// engine anyway is a typed error on every path, never a panic.
#[test]
fn an_unbound_parameter_is_a_typed_error() {
    use ferry_engine::{EngineError, VecMode};
    let db = db();
    for vec in [VecMode::Off, VecMode::On] {
        db.set_vec_mode(vec);
        let mut p = Plan::new();
        let t = emp_ref(&mut p);
        let pred = Expr::bin(BinOp::Ge, Expr::col("sal"), Expr::Param(0, Ty::Int));
        let sel = p.select(t, pred);
        let c = p.compute(sel, "x", Expr::Param(0, Ty::Int));
        for root in [sel, c] {
            assert_eq!(
                db.execute(&p, root).unwrap_err(),
                EngineError::UnboundParam(0),
                "{vec:?}"
            );
        }
    }
}

/// Every evaluated plan node is one evaluation with its own profile
/// entry, and `vec_nodes` counts them the way `nodes_evaluated` does
/// under `VecMode::On` — a view-only build scan, which runs no row code
/// of either kind, and a join on `unit` keys (one constant code)
/// included — and is 0 under `Off`.
#[test]
fn vec_nodes_counts_chain_members() {
    use ferry_engine::VecMode;
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    let sel = p.select(t, Expr::bin(BinOp::Gt, Expr::col("sal"), Expr::lit(60i64)));
    let cmp = p.compute(
        sel,
        "x2",
        Expr::bin(BinOp::Mul, Expr::col("sal"), Expr::lit(2i64)),
    );
    let rn = p.rownum(cmp, "rn", vec![], vec![(cn("x2"), Dir::Asc)]);
    db.reset_stats();
    assert_eq!(exec(&db, &p, rn).len(), 3);
    let st = db.stats();
    // table → select → compute → rownum: four nodes, four evaluations
    assert_eq!((st.nodes_evaluated, st.vec_nodes), (4, 4));
    let prof = &st.latest_profile().unwrap().nodes;
    let entries: Vec<_> = prof
        .iter()
        .map(|n| (n.node, n.label, n.rows, n.batches))
        .collect();
    assert_eq!(
        entries,
        [
            (t.0, "table", 4, 0),
            (sel.0, "select", 3, 1),
            (cmp.0, "compute", 3, 1),
            (rn.0, "rownum", 3, 1),
        ]
    );
    assert_eq!(st.kernel_batches, 3);

    let t2 = emp_ref(&mut p);
    let left = p.project(t2, vec![(cn("d"), cn("dept")), (cn("n"), cn("name"))]);
    let keys = JoinCols {
        left: vec![cn("d"), cn("n")],
        right: vec![cn("dept"), cn("name")],
    };
    let j = p.equi_join(left, t, keys);
    db.reset_stats();
    assert_eq!(exec(&db, &p, j).len(), 4);
    let st = db.stats();
    // the build scan, then table → project → join
    assert_eq!((st.nodes_evaluated, st.vec_nodes), (4, 4));
    let prof = &st.latest_profile().unwrap().nodes;
    let entries: Vec<_> = prof.iter().map(|n| (n.label, n.batches)).collect();
    assert_eq!(
        entries,
        [("table", 0), ("table", 0), ("project", 0), ("join", 1)]
    );

    // a `unit` key column is one constant code: the typed probe takes it
    let units = Schema::of(&[("u", Ty::Unit), ("x", Ty::Int)]);
    let lu = p.lit(
        units,
        vec![vec![Value::Unit, v(1)], vec![Value::Unit, v(2)]],
    );
    let lp = p.project(lu, vec![(cn("lu"), cn("u")), (cn("lx"), cn("x"))]);
    let ru = p.lit(Schema::of(&[("ru", Ty::Unit)]), vec![vec![Value::Unit]]);
    let uj = p.equi_join(lp, ru, JoinCols::single("lu", "ru"));
    db.reset_stats();
    assert_eq!(exec(&db, &p, uj).len(), 2);
    let st = db.stats();
    assert_eq!((st.nodes_evaluated, st.vec_nodes), (4, 4));
    let prof = &st.latest_profile().unwrap().nodes;
    assert_eq!(prof.len(), 4);
    let tail = prof.last().unwrap();
    assert_eq!((tail.label, tail.batches), ("join", 1));

    // the oracle counts nothing as vec
    db.set_vec_mode(VecMode::Off);
    db.reset_stats();
    assert_eq!(exec(&db, &p, uj).len(), 2);
    let st = db.stats();
    assert_eq!((st.nodes_evaluated, st.vec_nodes), (4, 0));
    let prof = &st.latest_profile().unwrap().nodes;
    assert_eq!(prof.len(), 4);
    assert!(prof.iter().all(|n| n.batches == 0));
}

#[test]
fn stats_track_rows() {
    let db = db();
    let mut p = Plan::new();
    let t = emp_ref(&mut p);
    db.reset_stats();
    let _ = exec(&db, &p, t);
    let st = db.stats();
    assert_eq!(st.queries, 1);
    assert_eq!(st.rows_out, 4);
}

#[test]
fn runtime_error_surfaces() {
    let db = db();
    let mut p = Plan::new();
    let t = p.lit(Schema::of(&[("x", Ty::Int)]), vec![vec![v(1)], vec![v(0)]]);
    let c = p.compute(
        t,
        "y",
        Expr::bin(BinOp::Div, Expr::lit(10i64), Expr::col("x")),
    );
    assert!(matches!(
        db.execute(&p, c),
        Err(ferry_engine::EngineError::Eval(_))
    ));
}
