//! Differential testing of the vectorized engine: every operator must
//! produce **cell-for-cell identical** results — including sort and
//! window tie-break order — whether it takes the scalar row-at-a-time
//! path or the vectorized one (kernels + typed sinks). The scalar
//! engine (`VecMode::Off`) is the oracle; the production configuration
//! (`VecMode::On`, vectorized at every input size) must reproduce it
//! exactly. Every sort comparator is a total order and kernels reproduce
//! scalar error semantics, so this is an invariant, not a statistical
//! property; here we check it over random relations, a 5 000-row one
//! whose four full 1024-row batches and ragged tail cover the kernels'
//! batch boundaries, and fixed roots at 0, 1, 63, 64 and
//! 1 025 rows for the shapes short-circuits and the code kernels exist
//! for, and generated expressions at 0, 1 and 1 025 rows.

use ferry_algebra::{
    plan::{cn, Aggregate},
    AggFun, BinOp, Dir, Expr, JoinCols, Node, NodeId, Plan, Rel, Schema, Ty, UnOp, Value,
};
use ferry_engine::{Database, VecMode};
use proptest::prelude::*;

fn schema_abc(prefix: &str) -> Schema {
    Schema::new(vec![
        (format!("{prefix}x").into(), Ty::Int),
        (format!("{prefix}k").into(), Ty::Int),
        (format!("{prefix}s").into(), Ty::Str),
    ])
}

fn row_strategy() -> impl Strategy<Value = (i64, i64, String)> {
    (
        -8i64..8,
        -3i64..3,
        proptest::sample::select(vec!["a", "b", "c"]).prop_map(String::from),
    )
}

fn rel_rows(rows: &[(i64, i64, String)]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|(x, k, s)| vec![Value::Int(*x), Value::Int(*k), Value::str(s.as_str())])
        .collect()
}

/// The oracle configuration: scalar row-at-a-time evaluation.
fn scalar_oracle() -> VecMode {
    VecMode::Off
}

/// The configuration under test: kernels and typed sinks at every input
/// size, as the product runs.
fn production() -> VecMode {
    VecMode::On
}

/// One root per operator over left/right relations `l` and `r`.
fn operator_roots(plan: &mut Plan, l: NodeId, r: NodeId, quadratic: bool) -> Vec<NodeId> {
    let gt = Expr::bin(BinOp::Gt, Expr::col("x"), Expr::lit(0i64));
    let mut roots = vec![
        plan.select(l, gt.clone()),
        plan.project(l, vec![(cn("k2"), cn("k")), (cn("k3"), cn("k"))]),
        plan.compute(
            l,
            "y",
            Expr::bin(BinOp::Add, Expr::col("x"), Expr::col("k")),
        ),
        plan.attach(l, "tag", Value::str("t")),
        plan.distinct(l),
        plan.union_all(l, r),
        plan.difference(l, r),
        plan.equi_join(l, r, JoinCols::single("k", "rk")),
        plan.semi_join(l, r, JoinCols::single("k", "rk")),
        plan.anti_join(l, r, JoinCols::single("k", "rk")),
        plan.rownum(
            l,
            "rn",
            vec![cn("k")],
            vec![(cn("x"), Dir::Asc), (cn("s"), Dir::Desc)],
        ),
        plan.add(Node::RowRank {
            input: l,
            col: cn("rr"),
            order: vec![(cn("k"), Dir::Asc)],
        }),
        plan.dense_rank(l, "dr", vec![cn("s")], vec![(cn("k"), Dir::Desc)]),
        plan.group_by(
            l,
            vec![cn("s")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Sum,
                    input: Some(cn("x")),
                    output: cn("sum_x"),
                },
                Aggregate {
                    fun: AggFun::Min,
                    input: Some(cn("k")),
                    output: cn("min_k"),
                },
                Aggregate {
                    fun: AggFun::Max,
                    input: Some(cn("k")),
                    output: cn("max_k"),
                },
                Aggregate {
                    fun: AggFun::Avg,
                    input: Some(cn("x")),
                    output: cn("avg_x"),
                },
            ],
        ),
        plan.serialize(
            l,
            vec![(cn("k"), Dir::Desc), (cn("s"), Dir::Asc)],
            vec![cn("s"), cn("x")],
        ),
    ];
    // views compose: filter → project → sort without materialising
    let sel = plan.select(l, gt);
    let proj = plan.project_keep(sel, &[cn("x"), cn("s")]);
    roots.push(plan.serialize(proj, vec![(cn("x"), Dir::Asc)], vec![cn("s")]));
    if quadratic {
        roots.push(plan.cross(l, r));
        let ne = Expr::bin(BinOp::Lt, Expr::col("x"), Expr::col("rx"));
        roots.push(plan.theta_join(l, r, ne));
    }
    roots
}

fn db_with(mode: VecMode) -> Database {
    let db = Database::new();
    db.set_vec_mode(mode);
    db
}

/// Execute every root under the oracle and each test configuration and
/// demand identical relations.
fn assert_differential(plan: &Plan, roots: &[NodeId]) {
    let serial = db_with(scalar_oracle());
    let baseline: Vec<Rel> = roots
        .iter()
        .map(|&r| serial.execute(plan, r).expect("oracle execute"))
        .collect();
    let db = db_with(production());
    for (&root, expect) in roots.iter().zip(&baseline) {
        let got = db.execute(plan, root).expect("execute under test");
        assert_eq!(
            &got, expect,
            "divergence at node {root:?}:\noracle:\n{expect}\nunder test:\n{got}"
        );
    }
    // evaluate all roots as one bundle too: one pass over the shared DAG
    // must give every member the result it gets alone
    let bundled = db.execute_bundle(plan, roots).expect("bundle execute");
    for ((got, expect), &root) in bundled.iter().zip(&baseline).zip(roots) {
        assert_eq!(got, expect, "bundle divergence at node {root:?}");
    }
}

/// Execute every root alone under the oracle and under test and demand
/// the same relation or the same error message.
fn assert_same_outcome(plan: &Plan, roots: &[NodeId]) {
    let (oracle, db) = (db_with(scalar_oracle()), db_with(production()));
    for &root in roots {
        let expect = oracle.execute(plan, root).map_err(|e| e.to_string());
        let got = db.execute(plan, root).map_err(|e| e.to_string());
        assert_eq!(got, expect, "divergence at node {root:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn operators_agree_scalar_vs_vectorized(
        l in proptest::collection::vec(row_strategy(), 0..40),
        r in proptest::collection::vec(row_strategy(), 0..12),
    ) {
        let mut plan = Plan::new();
        let lx = plan.lit(schema_abc(""), rel_rows(&l));
        let rx = plan.lit(schema_abc("r"), rel_rows(&r));
        let roots = operator_roots(&mut plan, lx, rx, true);
        assert_differential(&plan, &roots);
    }
}

/// A larger deterministic relation (several kernel batches and a ragged
/// tail, with heavy duplication in the sort/partition keys) so kernels
/// cross batch boundaries and sorts resolve many ties.
#[test]
fn operators_agree_on_large_input() {
    let n = 5000i64;
    let l: Vec<(i64, i64, String)> = (0..n)
        .map(|i| {
            let x = (i * 37) % 200 - 100;
            let k = (i * 17) % 13 - 6;
            let s = ["a", "b", "c", "d"][(i % 4) as usize].to_string();
            (x, k, s)
        })
        .collect();
    let r: Vec<(i64, i64, String)> = (0..50i64)
        .map(|i| {
            (
                i % 9 - 4,
                i % 13 - 6,
                ["a", "c", "e"][(i % 3) as usize].to_string(),
            )
        })
        .collect();
    let mut plan = Plan::new();
    let lx = plan.lit(schema_abc(""), rel_rows(&l));
    let rx = plan.lit(schema_abc("r"), rel_rows(&r));
    let roots = operator_roots(&mut plan, lx, rx, false);
    assert_differential(&plan, &roots);
}

// ---------------------------------------------------------------------
// Mixed-type schemas: Dbl / Bool / Unit columns drive the F64 and Bool
// kernels, the dictionary string paths, and the `Vec<Value>` fallback
// registers (Unit columns transpose to `ColVec::Other`).
// ---------------------------------------------------------------------

fn schema_mixed(prefix: &str) -> Schema {
    Schema::new(vec![
        (format!("{prefix}x").into(), Ty::Int),
        (format!("{prefix}d").into(), Ty::Dbl),
        (format!("{prefix}p").into(), Ty::Bool),
        (format!("{prefix}s").into(), Ty::Str),
        (format!("{prefix}u").into(), Ty::Unit),
    ])
}

/// `-0.0` and `0.0` are distinct under the engine's total order (and
/// distinct eq-codes), so both appear in the pool to pin Dbl group keys;
/// `NaN` equals itself under that order, so it groups and joins.
fn dbl_pool() -> Vec<f64> {
    vec![-1.5, -0.0, 0.0, 0.25, 2.0, 1e300, f64::NAN]
}

fn mixed_row_strategy() -> impl Strategy<Value = (i64, f64, bool, String)> {
    (
        -8i64..8,
        proptest::sample::select(dbl_pool()),
        any::<bool>(),
        proptest::sample::select(vec!["a", "b", "c"]).prop_map(String::from),
    )
}

fn mixed_rows(rows: &[(i64, f64, bool, String)]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|(x, d, p, s)| {
            vec![
                Value::Int(*x),
                Value::Dbl(*d),
                Value::Bool(*p),
                Value::str(s.as_str()),
                Value::Unit,
            ]
        })
        .collect()
}

/// Expression-heavy roots over the mixed schema: one per kernel family
/// (integer / float / boolean / string / case / cast), plus the fallback
/// triggers (Unit columns, fallible CASE branches) and the typed
/// group-by / join paths over non-Int key domains.
fn mixed_roots(plan: &mut Plan, l: NodeId, r: NodeId) -> Vec<NodeId> {
    let x = Expr::col("x");
    let d = Expr::col("d");
    let p = Expr::col("p");
    let xp = plan.project_keep(l, &[cn("x"), cn("p")]);
    let mut roots = vec![
        // Bool logic kernel with an infallible comparison RHS
        plan.select(
            l,
            Expr::and(p.clone(), Expr::bin(BinOp::Gt, x.clone(), Expr::lit(0i64))),
        ),
        // F64 comparison kernel (pool includes ±0.0 and a huge value)
        plan.select(l, Expr::bin(BinOp::Lt, d.clone(), Expr::lit(1.5))),
        // NotMask
        plan.select(l, Expr::not(p.clone())),
        // nested integer arithmetic (inputs small: never overflows)
        plan.compute(
            l,
            "y",
            Expr::bin(
                BinOp::Mul,
                Expr::bin(BinOp::Add, x.clone(), Expr::lit(1i64)),
                Expr::bin(BinOp::Sub, x.clone(), Expr::lit(2i64)),
            ),
        ),
        // F64 arithmetic kernel
        plan.compute(
            l,
            "z",
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, d.clone(), Expr::lit(2.0)),
                Expr::lit(0.5),
            ),
        ),
        // SelectCase with infallible branches
        plan.compute(l, "c1", Expr::case(p.clone(), x.clone(), Expr::lit(0i64))),
        // CASE with a *fallible* branch: each branch runs under its guard
        plan.compute(
            l,
            "c2",
            Expr::case(
                Expr::bin(BinOp::Lt, d.clone(), Expr::lit(0.0)),
                Expr::bin(BinOp::Sub, Expr::lit(0i64), x.clone()),
                x.clone(),
            ),
        ),
        // string concatenation kernel
        plan.compute(
            l,
            "t",
            Expr::bin(BinOp::Concat, Expr::col("s"), Expr::lit(Value::str("!"))),
        ),
        // widening cast kernel
        plan.compute(l, "w", Expr::cast(Ty::Dbl, x.clone())),
        // Unit column: ColVec::Other → Vec<Value> fallback registers
        plan.compute(l, "u2", Expr::col("u")),
        // distinct over the full mixed schema (a Unit key is one code)
        plan.distinct(l),
        // typed distinct over Int+Bool only
        plan.distinct(xp),
        // typed group-by: Str+Bool keys, aggregates over every domain
        plan.group_by(
            l,
            vec![cn("s"), cn("p")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Sum,
                    input: Some(cn("x")),
                    output: cn("sum_x"),
                },
                Aggregate {
                    fun: AggFun::Sum,
                    input: Some(cn("d")),
                    output: cn("sum_d"),
                },
                Aggregate {
                    fun: AggFun::Max,
                    input: Some(cn("d")),
                    output: cn("max_d"),
                },
                Aggregate {
                    fun: AggFun::Avg,
                    input: Some(cn("d")),
                    output: cn("avg_d"),
                },
                Aggregate {
                    fun: AggFun::All,
                    input: Some(cn("p")),
                    output: cn("all_p"),
                },
                Aggregate {
                    fun: AggFun::Any,
                    input: Some(cn("p")),
                    output: cn("any_p"),
                },
                // Min over a Unit column: accumulates through ColVec::Other
                Aggregate {
                    fun: AggFun::Min,
                    input: Some(cn("u")),
                    output: cn("min_u"),
                },
            ],
        ),
        // Dbl group keys: ±0.0 are distinct groups, 1e300 collides never
        plan.group_by(
            l,
            vec![cn("d")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Min,
                    input: Some(cn("s")),
                    output: cn("min_s"),
                },
            ],
        ),
        // typed joins on Int and Dbl key domains
        plan.equi_join(l, r, JoinCols::single("x", "rx")),
        plan.semi_join(l, r, JoinCols::single("x", "rx")),
        plan.anti_join(l, r, JoinCols::single("x", "rx")),
        plan.equi_join(l, r, JoinCols::single("d", "rd")),
        plan.union_all(l, r),
        plan.difference(l, r),
        plan.serialize(
            l,
            vec![(cn("d"), Dir::Asc), (cn("x"), Dir::Desc)],
            vec![cn("s"), cn("d"), cn("p")],
        ),
    ];
    // chained views: vectorized select → vectorized compute → group-by
    let sel = plan.select(l, Expr::bin(BinOp::Ge, x.clone(), Expr::lit(-4i64)));
    let cmp = plan.compute(
        sel,
        "xx",
        Expr::bin(BinOp::Mul, Expr::col("x"), Expr::col("x")),
    );
    roots.push(plan.group_by(
        cmp,
        vec![cn("p")],
        vec![Aggregate {
            fun: AggFun::Sum,
            input: Some(cn("xx")),
            output: cn("sum_xx"),
        }],
    ));
    roots
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn mixed_type_operators_agree(
        l in proptest::collection::vec(mixed_row_strategy(), 0..48),
        r in proptest::collection::vec(mixed_row_strategy(), 0..12),
    ) {
        let mut plan = Plan::new();
        let lx = plan.lit(schema_mixed(""), mixed_rows(&l));
        let rx = plan.lit(schema_mixed("r"), mixed_rows(&r));
        let roots = mixed_roots(&mut plan, lx, rx);
        assert_differential(&plan, &roots);
    }
}

#[test]
fn mixed_type_operators_agree_on_large_input() {
    let pool = dbl_pool();
    let l: Vec<(i64, f64, bool, String)> = (0..4000i64)
        .map(|i| {
            (
                (i * 31) % 17 - 8,
                pool[(i % pool.len() as i64) as usize],
                i % 3 == 0,
                ["a", "b", "c"][(i % 3) as usize].to_string(),
            )
        })
        .collect();
    let r: Vec<(i64, f64, bool, String)> = (0..60i64)
        .map(|i| {
            (
                (i * 7) % 17 - 8,
                pool[((i + 2) % pool.len() as i64) as usize],
                i % 2 == 0,
                ["b", "d"][(i % 2) as usize].to_string(),
            )
        })
        .collect();
    let mut plan = Plan::new();
    let lx = plan.lit(schema_mixed(""), mixed_rows(&l));
    let rx = plan.lit(schema_mixed("r"), mixed_rows(&r));
    let roots = mixed_roots(&mut plan, lx, rx);
    assert_differential(&plan, &roots);
}

// ---------------------------------------------------------------------
// Chain-shaped roots: multi-operator runs (scan → Select*/Compute/
// Project/Attach → window / join-probe / serialize / group-by sink), and
// lone row-wise operators over a distinct, a union or a shared join.
// Both modes evaluate one node at a time — results must be cell-for-cell
// identical either way.
// ---------------------------------------------------------------------

/// Chains over the mixed schema, one per sink family, each at least
/// three operators deep.
fn pipeline_roots(plan: &mut Plan, l: NodeId, r: NodeId) -> Vec<NodeId> {
    let x = Expr::col("x");
    let d = Expr::col("d");
    let mut roots = Vec::new();

    // select → compute → rownum: window sink over a computed order key
    let s1 = plan.select(l, Expr::bin(BinOp::Ge, x.clone(), Expr::lit(-5i64)));
    let c1 = plan.compute(
        s1,
        "y",
        Expr::bin(
            BinOp::Mul,
            x.clone(),
            Expr::bin(BinOp::Add, x.clone(), Expr::lit(3i64)),
        ),
    );
    roots.push(plan.rownum(c1, "rn", vec![cn("s")], vec![(cn("y"), Dir::Asc)]));

    // compute → select-on-computed → dense_rank ordered by a Dbl column
    // (±0.0 keys stay distinct through the kernels)
    let c2 = plan.compute(l, "v", Expr::bin(BinOp::Add, d.clone(), Expr::lit(0.0)));
    let s2 = plan.select(c2, Expr::bin(BinOp::Lt, Expr::col("v"), Expr::lit(10.0)));
    roots.push(plan.dense_rank(s2, "dr", vec![cn("p")], vec![(cn("d"), Dir::Desc)]));

    // select → project → attach → serialize: dict-string sort keys
    let s3 = plan.select(l, Expr::bin(BinOp::Gt, x.clone(), Expr::lit(-6i64)));
    let p3 = plan.project_keep(s3, &[cn("s"), cn("d"), cn("x")]);
    let a3 = plan.attach(p3, "tag", Value::str("t"));
    roots.push(plan.serialize(
        a3,
        vec![(cn("s"), Dir::Asc), (cn("d"), Dir::Desc)],
        vec![cn("tag"), cn("s"), cn("x")],
    ));

    // select → compute → equi-join probe (the chain is the probe side)
    let s4 = plan.select(l, Expr::bin(BinOp::Le, x.clone(), Expr::lit(6i64)));
    let c4 = plan.compute(s4, "xm", Expr::bin(BinOp::Mod, x.clone(), Expr::lit(5i64)));
    roots.push(plan.equi_join(c4, r, JoinCols::single("x", "rx")));
    roots.push(plan.semi_join(c4, r, JoinCols::single("x", "rx")));
    roots.push(plan.anti_join(c4, r, JoinCols::single("x", "rx")));

    // select → compute → group-by sink over string keys
    let s5 = plan.select(l, Expr::not(Expr::col("p")));
    let c5 = plan.compute(s5, "w", Expr::bin(BinOp::Mul, d.clone(), Expr::lit(2.0)));
    roots.push(plan.group_by(
        c5,
        vec![cn("s")],
        vec![
            Aggregate {
                fun: AggFun::CountAll,
                input: None,
                output: cn("n"),
            },
            Aggregate {
                fun: AggFun::Sum,
                input: Some(cn("w")),
                output: cn("sum_w"),
            },
        ],
    ));

    // deep chain: select → compute → select → compute → rowrank
    let s6 = plan.select(l, Expr::bin(BinOp::Gt, x.clone(), Expr::lit(-7i64)));
    let c6 = plan.compute(s6, "a", Expr::bin(BinOp::Add, x.clone(), Expr::lit(1i64)));
    let s7 = plan.select(
        c6,
        Expr::bin(
            BinOp::Ne,
            Expr::bin(BinOp::Mod, Expr::col("a"), Expr::lit(3i64)),
            Expr::lit(0i64),
        ),
    );
    let c7 = plan.compute(
        s7,
        "b",
        Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("a")),
    );
    roots.push(plan.add(Node::RowRank {
        input: c7,
        col: cn("rr"),
        order: vec![(cn("b"), Dir::Asc)],
    }));

    // chain into a distinct
    let s8 = plan.select(l, Expr::bin(BinOp::Ge, d.clone(), Expr::lit(-2.0)));
    let c8 = plan.compute(
        s8,
        "t",
        Expr::bin(BinOp::Concat, Expr::col("s"), Expr::lit(Value::str("#"))),
    );
    let p8 = plan.project_keep(c8, &[cn("t"), cn("p")]);
    let d8 = plan.distinct(p8);
    roots.push(d8);

    // lone row-wise operators: attach over the distinct, select over a
    // union, and a compute over a join that two consumers share
    roots.push(plan.attach(d8, "tag", Value::Nat(1)));
    let u9 = plan.union_all(l, l);
    roots.push(plan.select(u9, Expr::bin(BinOp::Lt, d.clone(), Expr::lit(1.0))));
    let j9 = plan.equi_join(l, r, JoinCols::single("x", "rx"));
    let c9 = plan.compute(j9, "xr", Expr::bin(BinOp::Add, x.clone(), Expr::col("rx")));
    roots.push(plan.select(c9, Expr::bin(BinOp::Gt, Expr::col("xr"), Expr::lit(0i64))));
    roots.push(plan.distinct(c9));

    roots
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn pipeline_chains_agree(
        l in proptest::collection::vec(mixed_row_strategy(), 0..48),
        r in proptest::collection::vec(mixed_row_strategy(), 0..12),
    ) {
        let mut plan = Plan::new();
        let lx = plan.lit(schema_mixed(""), mixed_rows(&l));
        let rx = plan.lit(schema_mixed("r"), mixed_rows(&r));
        let roots = pipeline_roots(&mut plan, lx, rx);
        assert_differential(&plan, &roots);
    }
}

#[test]
fn pipeline_chains_agree_on_large_input() {
    let pool = dbl_pool();
    let l: Vec<(i64, f64, bool, String)> = (0..4000i64)
        .map(|i| {
            (
                (i * 29) % 15 - 7,
                pool[(i % pool.len() as i64) as usize],
                i % 4 == 0,
                ["a", "b", "c", "d"][(i % 4) as usize].to_string(),
            )
        })
        .collect();
    let r: Vec<(i64, f64, bool, String)> = (0..60i64)
        .map(|i| {
            (
                (i * 11) % 15 - 7,
                pool[((i + 1) % pool.len() as i64) as usize],
                i % 2 == 0,
                ["b", "e"][(i % 2) as usize].to_string(),
            )
        })
        .collect();
    let mut plan = Plan::new();
    let lx = plan.lit(schema_mixed(""), mixed_rows(&l));
    let rx = plan.lit(schema_mixed("r"), mixed_rows(&r));
    let roots = pipeline_roots(&mut plan, lx, rx);
    assert_differential(&plan, &roots);
}

// ---------------------------------------------------------------------
// Key matrix: every key-consuming operator (equi/semi/anti join,
// difference, distinct, group-by) at key arities 1, 2 and 4, over Int,
// Str, Bool and Dbl columns. The two inputs are separate buffers whose
// string pools overlap only partly, so string keys cross dictionaries and
// some probe strings are absent from the build side. Small domains
// duplicate keys on both sides (join match order is probe row, then
// ascending build row), and explicit empty inputs cover either side.
// ---------------------------------------------------------------------

fn schema_keys(prefix: &str) -> Schema {
    Schema::new(vec![
        (format!("{prefix}x").into(), Ty::Int),
        (format!("{prefix}s").into(), Ty::Str),
        (format!("{prefix}p").into(), Ty::Bool),
        (format!("{prefix}d").into(), Ty::Dbl),
    ])
}

fn key_row_strategy(
    strs: &'static [&'static str],
) -> impl Strategy<Value = (i64, String, bool, f64)> {
    (
        -2i64..2,
        proptest::sample::select(strs.to_vec()).prop_map(String::from),
        any::<bool>(),
        proptest::sample::select(dbl_pool()),
    )
}

fn key_rows(rows: &[(i64, String, bool, f64)]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|(x, s, p, d)| {
            vec![
                Value::Int(*x),
                Value::str(s.as_str()),
                Value::Bool(*p),
                Value::Dbl(*d),
            ]
        })
        .collect()
}

fn on(left: &[&str], right: &[&str]) -> JoinCols {
    JoinCols {
        left: left.iter().map(|c| cn(c)).collect(),
        right: right.iter().map(|c| cn(c)).collect(),
    }
}

fn key_roots(plan: &mut Plan, l: NodeId, r: NodeId) -> Vec<NodeId> {
    let none_l = plan.lit(schema_keys(""), vec![]);
    let none_r = plan.lit(schema_keys("r"), vec![]);
    let keys = [
        on(&["s"], &["rs"]),
        on(&["x", "s"], &["rx", "rs"]),
        on(&["p", "d"], &["rp", "rd"]),
        on(&["x", "s", "p", "d"], &["rx", "rs", "rp", "rd"]),
    ];
    let mut roots = Vec::new();
    for k in &keys {
        for (a, b) in [(l, r), (l, none_r), (none_l, r)] {
            roots.push(plan.equi_join(a, b, k.clone()));
            roots.push(plan.semi_join(a, b, k.clone()));
            roots.push(plan.anti_join(a, b, k.clone()));
        }
    }
    // both sides views of one buffer: string codes need no translation
    let ls = plan.project(l, vec![(cn("ls"), cn("s")), (cn("lx"), cn("x"))]);
    let ms = plan.project(l, vec![(cn("ms"), cn("s")), (cn("mx"), cn("x"))]);
    roots.push(plan.equi_join(ls, ms, on(&["ls", "lx"], &["ms", "mx"])));
    let pos = plan.select(l, Expr::bin(BinOp::Gt, Expr::col("x"), Expr::lit(0i64)));
    roots.push(plan.difference(l, pos));
    // multi-column set operations and grouping
    roots.push(plan.difference(l, r));
    roots.push(plan.difference(r, l));
    roots.push(plan.difference(l, none_r));
    roots.push(plan.difference(none_l, r));
    let lsd = plan.project_keep(l, &[cn("s"), cn("d")]);
    let rsd = plan.project_keep(r, &[cn("rs"), cn("rd")]);
    roots.push(plan.difference(lsd, rsd));
    let l_s = plan.project_keep(l, &[cn("s")]);
    let r_s = plan.project_keep(r, &[cn("rs")]);
    roots.push(plan.difference(l_s, r_s));
    roots.push(plan.distinct(l));
    roots.push(plan.distinct(lsd));
    roots.push(plan.group_by(
        l,
        vec![cn("s"), cn("p"), cn("d")],
        vec![
            Aggregate {
                fun: AggFun::CountAll,
                input: None,
                output: cn("n"),
            },
            Aggregate {
                fun: AggFun::Sum,
                input: Some(cn("x")),
                output: cn("sum_x"),
            },
        ],
    ));
    roots.push(plan.group_by(
        r,
        vec![cn("rx"), cn("rs")],
        vec![
            Aggregate {
                fun: AggFun::Min,
                input: Some(cn("rd")),
                output: cn("min_d"),
            },
            Aggregate {
                fun: AggFun::Max,
                input: Some(cn("rd")),
                output: cn("max_d"),
            },
        ],
    ));
    roots
}

const LEFT_STRS: &[&str] = &["a", "b", "f", "c"];
const RIGHT_STRS: &[&str] = &["c", "d", "b", "e"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn key_operators_agree(
        l in proptest::collection::vec(key_row_strategy(LEFT_STRS), 0..40),
        r in proptest::collection::vec(key_row_strategy(RIGHT_STRS), 0..16),
    ) {
        let mut plan = Plan::new();
        let lx = plan.lit(schema_keys(""), key_rows(&l));
        let rx = plan.lit(schema_keys("r"), key_rows(&r));
        let roots = key_roots(&mut plan, lx, rx);
        assert_differential(&plan, &roots);
    }
}

#[test]
fn key_operators_agree_on_large_input() {
    let pool = dbl_pool();
    let row = |i: i64, strs: &[&str]| {
        (
            (i * 7) % 5 - 2,
            strs[(i % strs.len() as i64) as usize].to_string(),
            i % 3 == 0,
            pool[((i * 3) % pool.len() as i64) as usize],
        )
    };
    let l: Vec<_> = (0..3000i64).map(|i| row(i, LEFT_STRS)).collect();
    let r: Vec<_> = (0..400i64).map(|i| row(i * 11 + 1, RIGHT_STRS)).collect();
    let mut plan = Plan::new();
    let lx = plan.lit(schema_keys(""), key_rows(&l));
    let rx = plan.lit(schema_keys("r"), key_rows(&r));
    let roots = key_roots(&mut plan, lx, rx);
    assert_differential(&plan, &roots);
}

// ---------------------------------------------------------------------
// Error parity: when an expression fails on some row, the scalar and
// vectorized paths must agree on *whether* the query fails and on the
// error message. (Each root below has a single possible error kind, so
// the tree-major kernel order and the row-major scalar order
// cannot surface different messages.)
// ---------------------------------------------------------------------

#[test]
fn runtime_errors_agree_across_paths() {
    // x cycles through -2..=2, so both roots fail iff the relation is
    // non-empty (division by zero at x == 0), and the overflow root
    // fails via checked i64 addition
    for n in [0usize, 1, 5, 100, 3000] {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int((i as i64) % 5 - 2)])
            .collect();
        let mut plan = Plan::new();
        let l = plan.lit(Schema::of(&[("x", Ty::Int)]), rows);
        let div = plan.compute(
            l,
            "q",
            Expr::bin(BinOp::Div, Expr::lit(10i64), Expr::col("x")),
        );
        let ovf = plan.compute(
            l,
            "o",
            Expr::bin(BinOp::Add, Expr::col("x"), Expr::lit(i64::MAX)),
        );
        let sel = plan.select(
            l,
            Expr::bin(
                BinOp::Gt,
                Expr::bin(BinOp::Mod, Expr::lit(7i64), Expr::col("x")),
                Expr::lit(0i64),
            ),
        );
        // mid-chain error sites: the fallible expression sits between a
        // select upstream and a window/serialize sink downstream, and must
        // surface the same message — division by zero is each root's only
        // possible error
        let keep = plan.select(l, Expr::bin(BinOp::Gt, Expr::col("x"), Expr::lit(-2i64)));
        let mid = plan.compute(
            keep,
            "q",
            Expr::bin(BinOp::Div, Expr::lit(10i64), Expr::col("x")),
        );
        let piped_rn = plan.rownum(mid, "rn", vec![], vec![(cn("q"), Dir::Asc)]);
        let piped_ser = plan.serialize(mid, vec![(cn("q"), Dir::Desc)], vec![cn("x"), cn("q")]);
        // a lone fallible compute behind a distinct
        let dist = plan.distinct(l);
        let lone = plan.compute(
            dist,
            "z",
            Expr::bin(BinOp::Div, Expr::col("x"), Expr::lit(0i64)),
        );
        assert_same_outcome(&plan, &[div, ovf, sel, piped_rn, piped_ser, lone]);
    }
}

// ---------------------------------------------------------------------
// Cross-node error parity: two fallible nodes in sequence, where the
// upper node fails in the first kernel batch and the lower one only at
// row 5 000, past the first batch. The oracle evaluates one node at a
// time, so it reports the lower node's error; production evaluates every
// node on its own too and must report the same message.
// ---------------------------------------------------------------------

#[test]
fn the_lower_of_two_failing_nodes_reports_its_error() {
    let x = || Expr::col("x");
    let int = |i: i64| Expr::lit(i);
    let rows: Vec<Vec<Value>> = (0..6000).map(|i| vec![Value::Int(i)]).collect();
    let mut plan = Plan::new();
    let l = plan.lit(Schema::of(&[("x", Ty::Int)]), rows);
    // lower nodes: fail at x = 5000 only
    let div_at_5000 = || Expr::bin(BinOp::Div, int(1), Expr::bin(BinOp::Sub, x(), int(5000)));
    let ovf_at_5000 = || Expr::bin(BinOp::Add, x(), int(i64::MAX - 4999));
    let lower_div = plan.compute(l, "d", div_at_5000());
    let lower_sel = plan.select(l, Expr::bin(BinOp::Ge, ovf_at_5000(), int(0)));
    // upper nodes: fail at x = 1, in the first batch
    let ovf_at_1 = || Expr::bin(BinOp::Add, x(), int(i64::MAX));
    let div_at_1 = || Expr::bin(BinOp::Div, int(1), Expr::bin(BinOp::Sub, x(), int(1)));
    let cases = [
        (plan.compute(lower_div, "o", ovf_at_1()), "division by zero"),
        (
            plan.select(lower_div, Expr::bin(BinOp::Gt, ovf_at_1(), int(0))),
            "division by zero",
        ),
        (
            plan.compute(lower_sel, "q", div_at_1()),
            "integer overflow in +",
        ),
        (
            plan.select(lower_sel, Expr::bin(BinOp::Gt, div_at_1(), int(0))),
            "integer overflow in +",
        ),
    ];
    let roots: Vec<NodeId> = cases.iter().map(|&(root, _)| root).collect();
    assert_same_outcome(&plan, &roots);
    let db = db_with(production());
    for (root, want) in cases {
        let err = db.execute(&plan, root).unwrap_err();
        assert_eq!(
            err.to_string(),
            ferry_engine::EngineError::Eval(want.into()).to_string()
        );
    }
}

// ---------------------------------------------------------------------
// The shapes short-circuits and the code kernels exist for, at 0, 1,
// 63, 64 and 1 025 rows: a division or an overflow reachable only on
// rows `AND`/`OR`/`CASE` do not short-circuit (nested and not), `Nat`
// division and modulo, `unit` keys in every key-consuming operator and
// in sorts, and unbound parameters. Each root has one possible error message, so the outcome —
// relation or message — must agree.
// ---------------------------------------------------------------------

/// `x` cycles through -3..=3, `n` through 0..5; `u` is `unit`.
fn guard_rel(prefix: &str, rows: usize) -> (Schema, Vec<Vec<Value>>) {
    let schema = Schema::new(vec![
        (format!("{prefix}x").into(), Ty::Int),
        (format!("{prefix}n").into(), Ty::Nat),
        (format!("{prefix}p").into(), Ty::Bool),
        (format!("{prefix}u").into(), Ty::Unit),
        (format!("{prefix}s").into(), Ty::Str),
    ]);
    let rows = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i as i64 % 7 - 3),
                Value::Nat(i as u64 % 5),
                Value::Bool(i % 3 == 0),
                Value::Unit,
                Value::str(["a", "b"][i % 2]),
            ]
        })
        .collect();
    (schema, rows)
}

const ROW_COUNTS: [usize; 5] = [0, 1, 63, 64, 1025];

#[test]
fn guarded_logic_and_case_agree() {
    let x = || Expr::col("x");
    let int = |i: i64| Expr::lit(i);
    let div = |a: Expr, b: Expr| Expr::bin(BinOp::Div, a, b);
    let gt = |a: Expr, b: Expr| Expr::bin(BinOp::Gt, a, b);
    let or = |a: Expr, b: Expr| Expr::bin(BinOp::Or, a, b);
    let x_1 = || Expr::bin(BinOp::Sub, x(), int(1));
    let big = || Expr::bin(BinOp::Mul, x(), int(i64::MAX));
    for rows in ROW_COUNTS {
        let (schema, data) = guard_rel("", rows);
        let mut plan = Plan::new();
        let l = plan.lit(schema, data);
        let roots = vec![
            // the division is guarded away on the rows where x = 0
            plan.select(l, or(Expr::eq(x(), int(0)), gt(div(int(12), x()), int(1)))),
            plan.select(
                l,
                Expr::and(
                    Expr::bin(BinOp::Ne, x(), int(0)),
                    gt(div(int(12), x()), int(1)),
                ),
            ),
            plan.compute(
                l,
                "q",
                Expr::case(Expr::eq(x(), int(0)), int(0), div(int(12), x())),
            ),
            // the overflow is guarded away: only x = 0 and x = 1 multiply
            plan.compute(
                l,
                "o",
                Expr::case(or(Expr::eq(x(), int(0)), Expr::eq(x(), int(1))), big(), x()),
            ),
            // a narrowing cast is guarded away on the negatives
            plan.compute(
                l,
                "c",
                Expr::case(
                    Expr::bin(BinOp::Ge, x(), int(0)),
                    Expr::cast(Ty::Nat, x()),
                    Expr::lit(Value::Nat(0)),
                ),
            ),
            // nested three deep: x != 0 AND CASE p THEN 12/x > 0 ELSE
            // (x = 1 OR 12/(x - 1) > 0)
            plan.select(
                l,
                Expr::and(
                    Expr::bin(BinOp::Ne, x(), int(0)),
                    Expr::case(
                        Expr::col("p"),
                        gt(div(int(12), x()), int(0)),
                        or(Expr::eq(x(), int(1)), gt(div(int(12), x_1()), int(0))),
                    ),
                ),
            ),
            // reached failures: x in {2, 3} overflows (rows 5, 6, …), and
            // p AND x = 1 divides by zero (row 18 first)
            plan.select(l, or(Expr::bin(BinOp::Lt, x(), int(2)), gt(big(), int(0)))),
            plan.select(
                l,
                Expr::and(
                    Expr::col("p"),
                    Expr::case(
                        gt(x(), int(0)),
                        gt(div(int(12), x_1()), int(0)),
                        Expr::lit(true),
                    ),
                ),
            ),
        ];
        // the same guards mid-chain, into a sink
        let c = plan.compute(
            l,
            "q",
            Expr::case(Expr::eq(x(), int(0)), int(0), div(int(12), x())),
        );
        let f = plan.select(
            c,
            or(Expr::eq(x(), int(0)), gt(div(Expr::col("q"), x()), int(0))),
        );
        let sink = plan.rownum(f, "rn", vec![cn("s")], vec![(cn("q"), Dir::Desc)]);
        let mut roots = roots;
        roots.push(sink);
        assert_same_outcome(&plan, &roots);
    }
}

#[test]
fn nat_division_agrees() {
    let n = || Expr::col("n");
    let two = || Expr::lit(Value::Nat(2));
    for rows in ROW_COUNTS {
        let (schema, data) = guard_rel("", rows);
        let mut plan = Plan::new();
        let l = plan.lit(schema, data);
        let mut roots = Vec::new();
        for op in [BinOp::Div, BinOp::Mod] {
            roots.push(plan.compute(l, "q", Expr::bin(op, n(), two())));
            roots.push(plan.select(l, Expr::eq(Expr::bin(op, n(), two()), n())));
            // reached only where x > 2 (row 6 first), or never
            let guarded = Expr::case(
                Expr::bin(BinOp::Gt, Expr::col("x"), Expr::lit(2i64)),
                Expr::bin(op, n(), two()),
                n(),
            );
            roots.push(plan.compute(l, "g", guarded));
            let never = Expr::case(Expr::lit(false), Expr::bin(op, n(), two()), n());
            roots.push(plan.compute(l, "z", never));
        }
        assert_same_outcome(&plan, &roots);
    }
}

#[test]
fn unit_keys_agree() {
    for rows in ROW_COUNTS {
        let (ls, ld) = guard_rel("", rows);
        let (rs, rd) = guard_rel("r", 5);
        let mut plan = Plan::new();
        let l = plan.lit(ls, ld);
        let r = plan.lit(rs, rd);
        let none = plan.lit(guard_rel("r", 0).0, vec![]);
        let lu = plan.project_keep(l, &[cn("u"), cn("x")]);
        let ru = plan.project(r, vec![(cn("u"), cn("ru")), (cn("x"), cn("rx"))]);
        let mut roots = Vec::new();
        for b in [r, none] {
            for on in [
                JoinCols::single("u", "ru"),
                JoinCols {
                    left: vec![cn("u"), cn("x")],
                    right: vec![cn("ru"), cn("rx")],
                },
            ] {
                roots.push(plan.equi_join(l, b, on.clone()));
                roots.push(plan.semi_join(l, b, on.clone()));
                roots.push(plan.anti_join(l, b, on));
            }
        }
        roots.push(plan.group_by(
            l,
            vec![cn("u")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("cnt"),
                },
                Aggregate {
                    fun: AggFun::Max,
                    input: Some(cn("u")),
                    output: cn("max_u"),
                },
            ],
        ));
        roots.push(plan.group_by(
            l,
            vec![cn("u"), cn("s")],
            vec![Aggregate {
                fun: AggFun::Sum,
                input: Some(cn("x")),
                output: cn("sum_x"),
            }],
        ));
        roots.push(plan.distinct(lu));
        roots.push(plan.difference(lu, ru));
        roots.push(plan.difference(ru, lu));
        roots.push(plan.serialize(
            l,
            vec![(cn("u"), Dir::Asc), (cn("x"), Dir::Desc)],
            vec![cn("x"), cn("u")],
        ));
        roots.push(plan.rownum(l, "rn", vec![cn("u")], vec![(cn("u"), Dir::Desc)]));
        roots.push(plan.dense_rank(l, "dr", vec![cn("u")], vec![(cn("x"), Dir::Asc)]));
        assert_same_outcome(&plan, &roots);
        assert_differential(&plan, &roots);
    }
}

#[test]
fn unbound_parameters_agree() {
    let param = || Expr::Param(0, Ty::Int);
    for rows in ROW_COUNTS {
        let (schema, data) = guard_rel("", rows);
        let mut plan = Plan::new();
        let l = plan.lit(schema, data);
        let sel = plan.select(l, Expr::bin(BinOp::Ge, Expr::col("x"), param()));
        let cmp = plan.compute(l, "y", Expr::bin(BinOp::Add, Expr::col("x"), param()));
        // second stage of a chain, and inside a guarded branch
        let keep = plan.select(l, Expr::col("p"));
        let deep = plan.compute(
            keep,
            "z",
            Expr::case(Expr::lit(false), param(), Expr::col("x")),
        );
        let sink = plan.serialize(deep, vec![(cn("z"), Dir::Asc)], vec![cn("z")]);
        assert_same_outcome(&plan, &[sel, cmp, deep, sink]);
        let err = db_with(production()).execute(&plan, sink).unwrap_err();
        assert_eq!(err, ferry_engine::EngineError::UnboundParam(0));
    }
}

// ---------------------------------------------------------------------
// Generated expressions: well-typed trees of depth ≤ 4 over the mixed
// schema, mixing fallible operators (`Div`/`Mod` by a column that holds
// 0, `Add`/`Mul`/`Neg` near `i64::MAX`, `Nat` subtraction, division and
// modulo, narrowing casts to `Nat`, `Dbl` division) nested under
// `AND`/`OR`/`CASE`. Each tree runs as a `Select` root and as a
// `Compute` root at 0, 1 and 1 025 rows. Production and the oracle give
// the same relation or both fail; when the tree holds at most one
// fallible operator, every failing row fails with that operator's
// message, so the two messages are equal too.
// ---------------------------------------------------------------------

/// One well-typed expression per result type, over `schema_mixed("")`.
#[derive(Debug, Clone)]
struct Typed {
    int: Expr,
    nat: Expr,
    dbl: Expr,
    boolean: Expr,
    str: Expr,
}

fn typed_leaves() -> impl Strategy<Value = Typed> {
    let sel = proptest::sample::select::<Expr>;
    let nat = |n: u64| Expr::lit(Value::Nat(n));
    (
        sel(vec![
            Expr::col("x"),
            Expr::lit(0i64),
            Expr::lit(1i64),
            Expr::lit(-1i64),
            Expr::lit(3i64),
            Expr::lit(i64::MAX),
            Expr::lit(i64::MIN),
        ]),
        sel(vec![nat(0), nat(1), nat(2), nat(u64::MAX)]),
        sel(vec![
            Expr::col("d"),
            Expr::lit(0.0f64),
            Expr::lit(2.5f64),
            Expr::lit(-1.5f64),
        ]),
        sel(vec![Expr::col("p"), Expr::lit(true), Expr::lit(false)]),
        sel(vec![Expr::col("s"), Expr::lit("a"), Expr::lit("zz")]),
    )
        .prop_map(|(int, nat, dbl, boolean, str)| Typed {
            int,
            nat,
            dbl,
            boolean,
            str,
        })
}

/// Each result type's operator `k` over the subtrees `a` and `b` (and the
/// condition `c.boolean`); `cmp` picks a comparison.
fn typed_node(a: &Typed, b: &Typed, c: &Typed, k: [usize; 5], cmp: BinOp) -> Typed {
    const ARITH: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
    let bin = |op, l: &Expr, r: &Expr| Expr::bin(op, l.clone(), r.clone());
    let case = |t: &Expr, e: &Expr| Expr::case(c.boolean.clone(), t.clone(), e.clone());
    let neg = |x: &Expr| Expr::Un(UnOp::Neg, std::sync::Arc::new(x.clone()));
    let cast = |ty, x: &Expr| Expr::cast(ty, x.clone());
    let arith = |k: usize, l: &Expr, r: &Expr| bin(ARITH[k], l, r);
    Typed {
        int: match k[0] {
            0..=4 => arith(k[0], &a.int, &b.int),
            5 => neg(&a.int),
            6 => case(&a.int, &b.int),
            7 => cast(Ty::Int, &a.dbl),
            _ => cast(Ty::Int, &a.nat),
        },
        nat: match k[1] {
            0..=4 => arith(k[1], &a.nat, &b.nat),
            5 => case(&a.nat, &b.nat),
            6 => cast(Ty::Nat, &a.int),
            _ => cast(Ty::Nat, &a.dbl),
        },
        dbl: match k[2] {
            0..=4 => arith(k[2], &a.dbl, &b.dbl),
            5 => neg(&a.dbl),
            6 => case(&a.dbl, &b.dbl),
            7 => cast(Ty::Dbl, &a.int),
            _ => cast(Ty::Dbl, &a.nat),
        },
        boolean: match k[3] {
            0 => Expr::and(a.boolean.clone(), b.boolean.clone()),
            1 => bin(BinOp::Or, &a.boolean, &b.boolean),
            2 => Expr::not(a.boolean.clone()),
            3 => case(&a.boolean, &b.boolean),
            4 => bin(cmp, &a.int, &b.int),
            5 => bin(cmp, &a.nat, &b.nat),
            6 => bin(cmp, &a.dbl, &b.dbl),
            7 => bin(cmp, &a.str, &b.str),
            8 => bin(cmp, &a.boolean, &b.boolean),
            _ => Expr::eq(Expr::col("u"), Expr::col("u")),
        },
        str: match k[4] {
            0 => bin(BinOp::Concat, &a.str, &b.str),
            1 => case(&a.str, &b.str),
            _ => a.str.clone(),
        },
    }
}

/// Trees of depth ≤ 4: a leaf level and three operator levels.
fn typed_exprs() -> impl Strategy<Value = Typed> {
    const CMPS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    typed_leaves().prop_recursive(3, 64, 3, |inner| {
        (
            inner.clone(),
            inner.clone(),
            inner,
            (0usize..9, 0usize..8, 0usize..9),
            (0usize..10, 0usize..3, 0usize..6),
        )
            .prop_map(|(a, b, c, (ki, kn, kd), (kb, ks, kc))| {
                typed_node(&a, &b, &c, [ki, kn, kd, kb, ks], CMPS[kc])
            })
    })
}

/// The operators in `e` that can fail on some row.
fn fallible_ops(e: &Expr, s: &Schema) -> usize {
    let own = match e {
        Expr::Bin(op, l, _) if op.is_arith() => {
            let dbl = l.infer_ty(s) == Some(Ty::Dbl);
            usize::from(!dbl || matches!(op, BinOp::Div | BinOp::Mod))
        }
        Expr::Un(UnOp::Neg, x) => usize::from(x.infer_ty(s) == Some(Ty::Int)),
        // `as` casts to `Int` and `Dbl` saturate; only `Nat` ⇄ `Int` and
        // `Dbl` → `Nat` refuse a value
        Expr::Cast(ty, x) => {
            let from = x.infer_ty(s);
            usize::from(from != Some(*ty) && (*ty == Ty::Nat || from == Some(Ty::Nat)))
        }
        _ => 0,
    };
    own + match e {
        Expr::Bin(_, l, r) => fallible_ops(l, s) + fallible_ops(r, s),
        Expr::Un(_, x) | Expr::Cast(_, x) => fallible_ops(x, s),
        Expr::Case(c, t, f) => fallible_ops(c, s) + fallible_ops(t, s) + fallible_ops(f, s),
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn generated_expressions_agree(
        t in typed_exprs(),
        pool in proptest::collection::vec(mixed_row_strategy(), 1..9),
    ) {
        let schema = schema_mixed("");
        let (oracle, db) = (db_with(scalar_oracle()), db_with(production()));
        for n in [0usize, 1, 1025] {
            let rows: Vec<_> = pool.iter().cycle().take(n).cloned().collect();
            let mut plan = Plan::new();
            let l = plan.lit(schema.clone(), mixed_rows(&rows));
            let mut roots = vec![(plan.select(l, t.boolean.clone()), &t.boolean)];
            for e in [&t.int, &t.nat, &t.dbl, &t.boolean, &t.str] {
                roots.push((plan.compute(l, "v", e.clone()), e));
            }
            for (root, e) in roots {
                let expect = oracle.execute(&plan, root);
                let got = db.execute(&plan, root);
                match (&expect, &got) {
                    (Ok(want), Ok(got)) => assert_eq!(got, want, "{e} at {n} rows"),
                    (Err(want), Err(got)) => {
                        if fallible_ops(e, &schema) <= 1 {
                            assert_eq!(got.to_string(), want.to_string(), "{e} at {n} rows");
                        }
                    }
                    _ => panic!("{e} at {n} rows: oracle {expect:?}, production {got:?}"),
                }
            }
        }
    }
}
