//! Hash-partitioned shards: routing stability, durable round trips,
//! partition pruning, and the sharded-vs-unsharded differential.
//!
//! The sharding layer is an *optimisation*, never an observable: a
//! sharded database must return cell-for-cell the relations (and the
//! errors) of an unsharded one over the same data, while the row→shard
//! assignment itself must be pinned forever — a row's shard survives
//! recovery, process restarts and engine upgrades, which is what makes
//! shard-local WAL replay correct. Golden vectors pin the hash; the
//! crash tests pin the recovery path; the differential pins semantics.

use ferry_algebra::{
    plan::{cn, Aggregate},
    AggFun, BinOp, Dir, Expr, JoinCols, NodeId, Plan, Rel, Row, Schema, Ty, Value,
};
use ferry_engine::{
    shard_hash, shard_of, Database, DurabilityConfig, FsyncPolicy, ParConfig, VecMode,
};
use ferry_storage::{FaultFs, Vfs};
use proptest::prelude::*;
use std::sync::Arc;

const S: usize = 4;

fn config() -> DurabilityConfig {
    DurabilityConfig::with_fsync(FsyncPolicy::Always)
}

fn open_sharded(vfs: &Arc<FaultFs>, shards: usize) -> Database {
    Database::open_vfs(vfs.clone() as Arc<dyn Vfs>, shards, config()).unwrap()
}

fn orders_schema() -> Schema {
    Schema::of(&[("cust", Ty::Int), ("qty", Ty::Int), ("tag", Ty::Str)])
}

fn orders_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i % 23 - 11),
                Value::Int((i * 7) % 50),
                Value::str(["a", "b", "c"][(i % 3) as usize]),
            ]
        })
        .collect()
}

/// Seed one sharded database: `orders` partitioned on `cust`, plus an
/// unsharded (home-routed) side table.
fn seed(db: &Database, n: i64) {
    db.create_table_sharded("orders", orders_schema(), vec!["cust"], "cust")
        .unwrap();
    db.insert("orders", orders_rows(n)).unwrap();
    db.create_table(
        "names",
        Schema::of(&[("id", Ty::Int), ("name", Ty::Str)]),
        vec!["id"],
    )
    .unwrap();
    db.insert(
        "names",
        (-11..12)
            .map(|i| vec![Value::Int(i), Value::str(["x", "y"][(i & 1) as usize])])
            .collect(),
    )
    .unwrap();
}

// ---------------------------------------------------------------------
// Satellite: ShardHash golden vectors + routing determinism
// ---------------------------------------------------------------------

/// The versioned hash is a **forever contract**: these constants were
/// computed once from the spec (FNV-1a 64 over the LE version prefix,
/// the type tag byte, then the LE payload) and must never change — a
/// drift here silently reroutes every existing sharded directory.
#[test]
fn golden_shard_hash_vectors() {
    let golden: &[(Value, u64)] = &[
        (Value::Unit, 0xd80d_6cae_a7dc_7eec),
        (Value::Bool(true), 0xfb51_fdc7_3bae_8c7a),
        (Value::Int(0), 0x1379_67e0_3fa6_8092),
        (Value::Int(1), 0x3274_2ee9_4a95_cab3),
        (Value::Int(42), 0xacb2_f337_df2b_8178),
        (Value::Int(-1), 0xc4e1_74c4_92a4_0d0a),
        (Value::Nat(1), 0x136a_f603_4db0_6812),
        (Value::Dbl(1.5), 0xa98b_6e3d_d682_f060),
        (Value::Dbl(0.0), 0xa6e3_bd3d_d441_76a5),
        (Value::Dbl(-0.0), 0xa6e4_3d3d_d442_5025),
        (Value::str(""), 0xd80d_68ae_a7dc_7820),
        (Value::str("ferry"), 0xaa7b_d056_6e28_59a4),
    ];
    for (v, want) in golden {
        assert_eq!(
            shard_hash(v),
            *want,
            "golden vector drifted for {v:?} — the row→shard hash is a \
             forever contract, fix the code, never the constant"
        );
    }
}

proptest! {
    /// `shard_of` is a pure function of the value and the shard count:
    /// recomputing it (any process, any time) yields the same shard, and
    /// the shard is always in range.
    #[test]
    fn routing_is_deterministic_and_in_range(
        ints in proptest::collection::vec(any::<i64>(), 1..50),
        shards in 1usize..65,
    ) {
        for i in ints {
            let v = Value::Int(i);
            let k = shard_of(&v, shards);
            prop_assert!((k as usize) < shards);
            prop_assert_eq!(k, shard_of(&Value::Int(i), shards));
        }
    }
}

// ---------------------------------------------------------------------
// Tentpole: durable round trips and crash recovery keep the assignment
// ---------------------------------------------------------------------

/// Shard assignment of every row, read from the catalog's partition
/// state, verified internally consistent with the declared key.
fn assignment(db: &Database, table: &str, key_col: usize, shards: usize) -> Vec<u32> {
    let t = db.table(table).unwrap();
    let ts = t.shard.as_ref().expect("sharded database table");
    assert_eq!(ts.shard_of.len(), t.rows.rows().len(), "row-aligned");
    for (i, row) in t.rows.rows().iter().enumerate() {
        assert_eq!(
            ts.shard_of[i],
            shard_of(&row[key_col], shards),
            "row {i} routed off its key hash"
        );
    }
    ts.shard_of.clone()
}

#[test]
fn sharded_roundtrip_restores_tables_and_reports() {
    let vfs = Arc::new(FaultFs::new());
    let before = {
        let db = open_sharded(&vfs, S);
        assert_eq!(db.shards(), S);
        seed(&db, 200);
        assignment(&db, "orders", 0, S)
    };
    let db = open_sharded(&vfs, S);
    let t = db.table("orders").unwrap();
    assert_eq!(t.rows.rows(), &orders_rows(200)[..], "insert order kept");
    assert_eq!(
        assignment(&db, "orders", 0, S),
        before,
        "recovery re-derives the exact pre-restart shard assignment"
    );
    // the unsharded side table recovered too, home-routed on one shard
    let names = db.table("names").unwrap();
    let nts = names.shard.as_ref().unwrap();
    assert!(nts.key.is_none());
    assert!(nts.shard_of.iter().all(|&k| k == nts.home));
    let report = db.recovery_report().expect("sharded recovery ran");
    assert_eq!(report.shards, S);
    assert!(report.render().contains("recovery"));
}

#[test]
fn crash_mid_workload_keeps_every_acked_row_on_its_shard() {
    let vfs = Arc::new(FaultFs::new());
    let before = {
        let db = open_sharded(&vfs, S);
        seed(&db, 64);
        // checkpoint so recovery exercises snapshot + WAL-tail replay,
        // then keep writing past it
        db.checkpoint().unwrap();
        db.insert("orders", orders_rows(64)).unwrap();
        assignment(&db, "orders", 0, S)
    };
    vfs.crash(); // drop everything not durably synced
    let db = open_sharded(&vfs, S);
    let t = db.table("orders").unwrap();
    assert_eq!(t.rows.rows().len(), 128, "fsync Always: all acked rows");
    assert_eq!(
        assignment(&db, "orders", 0, S),
        before,
        "pre-crash rows land on the same shard after replay"
    );
}

// ---------------------------------------------------------------------
// Partition pruning, and group-by on the shard key
// ---------------------------------------------------------------------

fn orders_scan(plan: &mut Plan) -> NodeId {
    plan.table(
        "orders",
        vec![
            (cn("cust"), Ty::Int),
            (cn("qty"), Ty::Int),
            (cn("tag"), Ty::Str),
        ],
        vec![cn("cust")],
    )
}

#[test]
fn shard_key_equality_scan_prunes_and_counts() {
    let db = Database::new_sharded(S).unwrap();
    seed(&db, 400);
    let mut plan = Plan::new();
    let t = orders_scan(&mut plan);
    let root = plan.select(t, Expr::bin(BinOp::Eq, Expr::col("cust"), Expr::lit(3i64)));
    db.reset_stats();
    let got = db.execute(&plan, root).unwrap();
    // semantics: exactly the unsharded answer
    let plain = Database::new();
    plain
        .create_table("orders", orders_schema(), vec!["cust"])
        .unwrap();
    plain.insert("orders", orders_rows(400)).unwrap();
    let want = plain.execute(&plan, root).unwrap();
    assert_eq!(got, want);
    // accounting: one shard scanned, the rest pruned without a read
    let st = db.stats();
    let total = 400u64;
    assert!(st.shard_pruned > 0, "equality predicate must prune");
    assert_eq!(st.shard_rows + st.shard_pruned, total);
    let prof = st.latest_profile().unwrap();
    let scan = prof
        .nodes
        .iter()
        .find(|p| p.shards_total > 0)
        .expect("sharded scan profiled");
    assert_eq!(scan.shards_total, S as u32);
    assert_eq!(scan.shards_scanned, 1, "cust = 3 pins one shard");
    assert!(st.shard_rows < total, "only one shard's rows were read");
}

#[test]
fn multi_consumer_scans_are_never_pruned() {
    let db = Database::new_sharded(S).unwrap();
    seed(&db, 100);
    let mut plan = Plan::new();
    let t = orders_scan(&mut plan);
    let eq = plan.select(t, Expr::bin(BinOp::Eq, Expr::col("cust"), Expr::lit(3i64)));
    // second consumer of the same scan: a global count that must see
    // every shard even though its sibling's predicate pins one
    let count = plan.group_by(
        t,
        vec![],
        vec![Aggregate {
            fun: AggFun::CountAll,
            input: None,
            output: cn("n"),
        }],
    );
    db.reset_stats();
    let out = db.execute_bundle(&plan, &[eq, count]).unwrap();
    assert_eq!(out[1].cell(0, 0), &Value::Int(100), "count sees all rows");
    assert_eq!(db.stats().shard_pruned, 0, "shared scan cannot prune");
}

#[test]
fn in_style_or_chain_prunes_to_the_union_of_shards() {
    let db = Database::new_sharded(S).unwrap();
    seed(&db, 300);
    let mut plan = Plan::new();
    let t = orders_scan(&mut plan);
    let eq = |v: i64| Expr::bin(BinOp::Eq, Expr::col("cust"), Expr::lit(v));
    let root = plan.select(t, Expr::bin(BinOp::Or, eq(1), eq(5)));
    db.reset_stats();
    let got = db.execute(&plan, root).unwrap();
    let plain = Database::new();
    plain
        .create_table("orders", orders_schema(), vec!["cust"])
        .unwrap();
    plain.insert("orders", orders_rows(300)).unwrap();
    assert_eq!(got, plain.execute(&plan, root).unwrap());
    let st = db.stats();
    let prof = st.latest_profile().unwrap();
    let scan = prof.nodes.iter().find(|p| p.shards_total > 0).unwrap();
    let k1 = shard_of(&Value::Int(1), S);
    let k5 = shard_of(&Value::Int(5), S);
    let want = if k1 == k5 { 1 } else { 2 };
    assert_eq!(scan.shards_scanned, want, "OR unions the pinned shards");
}

#[test]
fn group_by_on_shard_key_is_exact_including_order() {
    let db = Database::new_sharded(S).unwrap();
    seed(&db, 500);
    let plain = Database::new();
    plain
        .create_table("orders", orders_schema(), vec!["cust"])
        .unwrap();
    plain.insert("orders", orders_rows(500)).unwrap();
    let mut plan = Plan::new();
    let t = orders_scan(&mut plan);
    let aggs = vec![
        Aggregate {
            fun: AggFun::CountAll,
            input: None,
            output: cn("n"),
        },
        Aggregate {
            fun: AggFun::Sum,
            input: Some(cn("qty")),
            output: cn("total"),
        },
        Aggregate {
            fun: AggFun::Min,
            input: Some(cn("tag")),
            output: cn("min_tag"),
        },
    ];
    // directly on the key; through a filter; and through a rename
    let direct = plan.group_by(t, vec![cn("cust")], aggs.clone());
    let sel = plan.select(t, Expr::bin(BinOp::Gt, Expr::col("qty"), Expr::lit(10i64)));
    let filtered = plan.group_by(sel, vec![cn("cust")], aggs.clone());
    let renamed_in = plan.project(t, vec![(cn("c2"), cn("cust")), (cn("qty"), cn("qty"))]);
    let renamed = plan.group_by(
        renamed_in,
        vec![cn("c2")],
        vec![Aggregate {
            fun: AggFun::Sum,
            input: Some(cn("qty")),
            output: cn("total"),
        }],
    );
    for cfg in matrix() {
        db.set_par_config(cfg);
        plain.set_par_config(cfg);
        for root in [direct, filtered, renamed] {
            let got = db.execute(&plan, root).unwrap();
            let want = plain.execute(&plan, root).unwrap();
            assert_eq!(
                got, want,
                "sharded group-by diverged at {root:?} under {cfg:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Sharded (S ∈ {1, 4}) vs unsharded differential — scans, filters,
// group-bys on shard and non-shard keys, and joins over the full shared
// buffer, across every execution-path configuration.
// ---------------------------------------------------------------------

fn diff_roots(plan: &mut Plan) -> Vec<NodeId> {
    let t = orders_scan(plan);
    let names = plan.table(
        "names",
        vec![(cn("id"), Ty::Int), (cn("name"), Ty::Str)],
        vec![cn("id")],
    );
    let eq3 = Expr::bin(BinOp::Eq, Expr::col("cust"), Expr::lit(3i64));
    let mut roots = vec![
        // pruned scan (sole-consumer select on the shard key)
        plan.select(t, eq3.clone()),
        // range predicate: unprunable, full scan
        plan.select(t, Expr::bin(BinOp::Lt, Expr::col("cust"), Expr::lit(0i64))),
        // group-by on the shard key
        plan.group_by(
            t,
            vec![cn("cust")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Sum,
                    input: Some(cn("qty")),
                    output: cn("total"),
                },
            ],
        ),
        // group-by on a NON-shard key: groups span shards
        plan.group_by(
            t,
            vec![cn("tag")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Avg,
                    input: Some(cn("qty")),
                    output: cn("avg_q"),
                },
            ],
        ),
        // join on the shard key against an unsharded build side
        plan.equi_join(t, names, JoinCols::single("cust", "id")),
        // join on a non-shard key: full scans on both sides
        plan.equi_join(t, names, JoinCols::single("qty", "id")),
        plan.semi_join(t, names, JoinCols::single("cust", "id")),
        plan.serialize(
            t,
            vec![(cn("qty"), Dir::Desc), (cn("cust"), Dir::Asc)],
            vec![cn("cust"), cn("qty"), cn("tag")],
        ),
    ];
    // pruned scan feeding a group-by on the shard key through a chain
    let sel = plan.select(
        t,
        Expr::bin(
            BinOp::Or,
            eq3,
            Expr::bin(BinOp::Eq, Expr::col("cust"), Expr::lit(-7i64)),
        ),
    );
    roots.push(plan.group_by(
        sel,
        vec![cn("cust")],
        vec![Aggregate {
            fun: AggFun::Max,
            input: Some(cn("qty")),
            output: cn("max_q"),
        }],
    ));
    roots
}

/// Every execution-path configuration: the scalar oracle, forced
/// vectorization, and the product default.
fn matrix() -> [ParConfig; 3] {
    [VecMode::Off, VecMode::Force, VecMode::Auto].map(|vec| ParConfig { vec })
}

fn seeded_dbs(n: i64) -> Vec<(String, Database)> {
    let mut dbs = vec![("unsharded".to_string(), Database::new())];
    for s in [1usize, 4] {
        dbs.push((format!("S={s}"), Database::new_sharded(s).unwrap()));
    }
    for (label, db) in &dbs {
        if label == "unsharded" {
            db.create_table("orders", orders_schema(), vec!["cust"])
                .unwrap();
            db.insert("orders", orders_rows(n)).unwrap();
            db.create_table(
                "names",
                Schema::of(&[("id", Ty::Int), ("name", Ty::Str)]),
                vec!["id"],
            )
            .unwrap();
            db.insert(
                "names",
                (-11..12)
                    .map(|i| vec![Value::Int(i), Value::str(["x", "y"][(i & 1) as usize])])
                    .collect(),
            )
            .unwrap();
        } else {
            seed(db, n);
        }
    }
    dbs
}

#[test]
fn sharded_and_unsharded_agree_cell_for_cell() {
    for n in [0i64, 1, 37, 600] {
        let dbs = seeded_dbs(n);
        let mut plan = Plan::new();
        let roots = diff_roots(&mut plan);
        for cfg in matrix() {
            let baseline: Vec<Rel> = {
                let (_, oracle) = &dbs[0];
                oracle.set_par_config(ParConfig { vec: VecMode::Off });
                roots
                    .iter()
                    .map(|&r| oracle.execute(&plan, r).unwrap())
                    .collect()
            };
            for (label, db) in &dbs {
                db.set_par_config(cfg);
                for (&root, want) in roots.iter().zip(&baseline) {
                    let got = db.execute(&plan, root).unwrap();
                    assert_eq!(
                        &got, want,
                        "{label} diverged at node {root:?} (n={n}) under {cfg:?}"
                    );
                }
                let bundled = db.execute_bundle(&plan, &roots).unwrap();
                for (got, want) in bundled.iter().zip(&baseline) {
                    assert_eq!(got, want, "{label} bundle divergence (n={n}, {cfg:?})");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random row sets: the sharded engines must reproduce the unsharded
    /// oracle over arbitrary data, not just the deterministic seeds.
    #[test]
    fn sharded_differential_over_random_rows(
        rows in proptest::collection::vec((-11i64..12, 0i64..50, 0usize..3), 0..80),
    ) {
        let to_rows = |rows: &[(i64, i64, usize)]| -> Vec<Row> {
            rows.iter()
                .map(|(c, q, s)| {
                    vec![Value::Int(*c), Value::Int(*q), Value::str(["a", "b", "c"][*s])]
                })
                .collect()
        };
        let oracle = Database::new();
        oracle.create_table("orders", orders_schema(), vec!["cust"]).unwrap();
        oracle.insert("orders", to_rows(&rows)).unwrap();
        let sharded = Database::new_sharded(4).unwrap();
        sharded
            .create_table_sharded("orders", orders_schema(), vec!["cust"], "cust")
            .unwrap();
        sharded.insert("orders", to_rows(&rows)).unwrap();
        let mut plan = Plan::new();
        let t = orders_scan(&mut plan);
        let roots = [
            plan.select(t, Expr::bin(BinOp::Eq, Expr::col("cust"), Expr::lit(3i64))),
            plan.group_by(
                t,
                vec![cn("cust")],
                vec![Aggregate { fun: AggFun::Sum, input: Some(cn("qty")), output: cn("s") }],
            ),
            plan.group_by(
                t,
                vec![cn("tag")],
                vec![Aggregate { fun: AggFun::CountAll, input: None, output: cn("n") }],
            ),
        ];
        for cfg in matrix() {
            oracle.set_par_config(cfg);
            sharded.set_par_config(cfg);
            for root in roots {
                prop_assert_eq!(
                    sharded.execute(&plan, root).unwrap(),
                    oracle.execute(&plan, root).unwrap(),
                    "divergence at {:?} under {:?}", root, cfg
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Error parity: sharded execution reports the exact error of the
// unsharded run (the first failing row's error, as in the scalar oracle).
// ---------------------------------------------------------------------

#[test]
fn errors_match_the_unsharded_run_exactly() {
    let schema = Schema::of(&[("k", Ty::Int), ("v", Ty::Int)]);
    let rows: Vec<Row> = (0..40)
        .map(|i| {
            // one group (k = 7) overflows its SUM; division by x-3 fails
            // on some rows of several shards
            let v = if i % 23 == 7 { i64::MAX } else { i64::from(i) };
            vec![Value::Int(i64::from(i) % 23 - 11), Value::Int(v)]
        })
        .collect();
    let oracle = Database::new();
    oracle.create_table("t", schema.clone(), vec!["k"]).unwrap();
    oracle.insert("t", rows.clone()).unwrap();
    let sharded = Database::new_sharded(S).unwrap();
    sharded
        .create_table_sharded("t", schema, vec!["k"], "k")
        .unwrap();
    sharded.insert("t", rows).unwrap();
    let mut plan = Plan::new();
    let t = plan.table(
        "t",
        vec![(cn("k"), Ty::Int), (cn("v"), Ty::Int)],
        vec![cn("k")],
    );
    // SUM overflow inside a group-by on the shard key
    let ovf = plan.group_by(
        t,
        vec![cn("k")],
        vec![Aggregate {
            fun: AggFun::Sum,
            input: Some(cn("v")),
            output: cn("s"),
        }],
    );
    // row-level eval error under a pruned-scan select
    let div = plan.compute(
        t,
        "q",
        Expr::bin(
            BinOp::Div,
            Expr::lit(1i64),
            Expr::bin(BinOp::Sub, Expr::col("k"), Expr::lit(3i64)),
        ),
    );
    for cfg in matrix() {
        oracle.set_par_config(cfg);
        sharded.set_par_config(cfg);
        for root in [ovf, div] {
            let want = oracle.execute(&plan, root).map_err(|e| e.to_string());
            let got = sharded.execute(&plan, root).map_err(|e| e.to_string());
            assert!(want.is_err(), "roots are constructed to fail");
            assert_eq!(got, want, "error divergence at {root:?} under {cfg:?}");
        }
    }
}
