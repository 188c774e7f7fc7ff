//! **The work ledger.** Exact counts of what the paper's programs cost,
//! layer by layer: the optimized plan's shape (a walk over the compiled
//! bundle; for X1 the loop-lifted one too), the engine's `QueryStats`
//! counters and work ledger (sorts, hash-table builds, rows converted
//! between row and column form), the rows the whole run converted on its
//! thread (engine, compiler, commits; the decoder reads columns and
//! converts none), the `Val` nodes built (none on the `fromQ` path), and
//! the storage layer's fsyncs and WAL bytes.
//!
//! Every count is pinned with `assert_eq!`, to the unit: a count does not
//! drift between hosts or sessions, so a change that moves one states
//! old → new here. Each program runs twice in one process, on a fresh
//! database each time, and the two runs must agree on every count.
//! Everything runs under the default `VecMode::On` unless a row says
//! otherwise.

use ferry::prelude::*;
use ferry::shred::CompiledBundle;
use ferry::VecMode;
use ferry_algebra::{Node, NodeId, Plan, Schema, Ty, Value};
use ferry_bench::dotp::{dotp_data, dotp_database, dotp_query, dotp_scalar};
use ferry_bench::table1::dsh_query;
use ferry_bench::workload::{paper_dataset, scaled_dataset};
use ferry_engine::Database;
use std::path::{Path, PathBuf};

// ------------------------------------------------------------- harness

/// The live operators of a compiled bundle (reachable from a member's
/// root), by kind.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    operators: usize,
    equi_joins: usize,
    cross_joins: usize,
    row_nums: usize,
    dense_ranks: usize,
    distincts: usize,
}

fn shape(bundle: &CompiledBundle) -> Shape {
    plan_shape(&bundle.plan, &bundle.roots())
}

/// The live operators of `plan` reachable from `roots`, by kind.
fn plan_shape(plan: &Plan, roots: &[NodeId]) -> Shape {
    let live: std::collections::HashSet<_> =
        roots.iter().flat_map(|&r| plan.reachable(r)).collect();
    let count = |what: fn(&Node) -> bool| live.iter().filter(|&&id| what(plan.node(id))).count();
    Shape {
        operators: live.len(),
        equi_joins: count(|n| matches!(n, Node::EquiJoin { .. })),
        cross_joins: count(|n| matches!(n, Node::CrossJoin { .. })),
        row_nums: count(|n| matches!(n, Node::RowNum { .. })),
        dense_ranks: count(|n| matches!(n, Node::DenseRank { .. })),
        distincts: count(|n| matches!(n, Node::Distinct { .. })),
    }
}

/// What one measured piece of work cost.
#[derive(Debug, Default, PartialEq, Eq)]
struct Work {
    // `QueryStats` counters
    queries: u64,
    rows_out: u64,
    nodes_evaluated: u64,
    rows_produced: u64,
    vec_nodes: u64,
    kernel_batches: u64,
    cache_hits: u64,
    cache_misses: u64,
    // the engine's work ledger
    sorts: u64,
    rows_sorted: u64,
    hash_builds: u64,
    rows_hashed: u64,
    engine_rows_converted: u64,
    /// Every row the work converted on this thread: the engine's, the
    /// compiler's literals, a commit's and a checkpoint's (the decoder
    /// reads the result's columns and converts none).
    rows_converted: u64,
    /// `Val` nodes built on this thread: 0 wherever `fromQ` decodes the
    /// result columns into the host type; only the stitcher builds them.
    vals_built: u64,
    // storage
    fsyncs: u64,
    wal_bytes: u64,
}

/// Measure `work` against `db` from zeroed counters.
fn measure<R>(db: &Database, work: impl FnOnce() -> R) -> (R, Work) {
    db.reset_stats();
    let before = ferry_algebra::rows_converted();
    let vals_before = ferry::stitch::vals_built();
    let out = work();
    let rows_converted = ferry_algebra::rows_converted() - before;
    let vals_built = ferry::stitch::vals_built() - vals_before;
    let s = db.stats();
    let registry = db.telemetry().registry();
    let counter = |name: &str| registry.counter(name).map_or(0, |c| c.get());
    let w = Work {
        queries: s.queries,
        rows_out: s.rows_out,
        nodes_evaluated: s.nodes_evaluated,
        rows_produced: s.rows_produced,
        vec_nodes: s.vec_nodes,
        kernel_batches: s.kernel_batches,
        cache_hits: s.cache_hits,
        cache_misses: s.cache_misses,
        sorts: s.sorts,
        rows_sorted: s.rows_sorted,
        hash_builds: s.hash_builds,
        rows_hashed: s.rows_hashed,
        engine_rows_converted: s.rows_converted,
        rows_converted,
        vals_built,
        fsyncs: counter(ferry_telemetry::names::STORAGE_FSYNCS),
        wal_bytes: counter(ferry_telemetry::names::STORAGE_WAL_BYTES),
    };
    (out, w)
}

/// Run `program` twice in this process; the runs must agree to the unit.
fn twice<T: PartialEq + std::fmt::Debug>(program: impl Fn() -> T) -> T {
    let first = program();
    assert_eq!(first, program(), "two runs of one program disagree");
    first
}

fn optimized(db: Database) -> Connection {
    Connection::new(db).with_optimizer(ferry_optimizer::rewriter())
}

/// Prepare Table 1's running example on `db` and execute it once.
fn table1(db: Database, mode: VecMode) -> (Shape, Work) {
    let conn = optimized(db);
    conn.set_vec_mode(mode);
    let q = dsh_query();
    let (out, work) = measure(conn.database(), || {
        let prepared = conn.prepare(&q).unwrap();
        conn.execute(&prepared).unwrap()
    });
    assert!(!out.is_empty());
    (shape(&conn.compile(&q).unwrap()), work)
}

/// The optimized running example at every size: Table 1's second query
/// keeps its tower of identity joins on the iteration key.
fn running_example_shape() -> Shape {
    Shape {
        operators: 84,
        equi_joins: 19,
        cross_joins: 0,
        row_nums: 10,
        dense_ranks: 2,
        distincts: 4,
    }
}

// ------------------------------------------------------------ Table 1

#[test]
fn table1_running_example_at_the_paper_dataset() {
    let (shape, work) = twice(|| table1(paper_dataset(), VecMode::On));
    assert_eq!(shape, running_example_shape());
    // the engine converts no row, the decoder converts none and builds
    // no `Val`, and compiling builds the plan's 2 literal rows
    assert_eq!(
        work,
        Work {
            queries: 2,
            rows_out: 25,
            nodes_evaluated: 84,
            rows_produced: 1_384,
            vec_nodes: 84,
            kernel_batches: 39,
            cache_misses: 1,
            sorts: 4,
            rows_sorted: 52,
            hash_builds: 19,
            rows_hashed: 329,
            engine_rows_converted: 0,
            rows_converted: 2,
            vals_built: 0,
            ..Work::default()
        }
    );
}

#[test]
fn table1_running_example_at_300_categories() {
    let (shape, work) = twice(|| table1(scaled_dataset(300, 2), VecMode::On));
    assert_eq!(shape, running_example_shape());
    assert_eq!(
        work,
        Work {
            queries: 2,
            rows_out: 1_328,
            nodes_evaluated: 84,
            rows_produced: 66_593,
            vec_nodes: 84,
            kernel_batches: 57,
            cache_misses: 1,
            sorts: 2,
            rows_sorted: 1_210,
            hash_builds: 19,
            rows_hashed: 15_337,
            engine_rows_converted: 0,
            rows_converted: 2,
            vals_built: 0,
            ..Work::default()
        }
    );
}

#[test]
fn table1_running_example_on_the_scalar_oracle() {
    // the oracle runs every operator row at a time: the rows it builds are
    // the conversions the production path does not make (the other 2 are
    // the plan's literals; the decoder converts none)
    let (_, work) = twice(|| table1(paper_dataset(), VecMode::Off));
    assert_eq!(
        work,
        Work {
            queries: 2,
            rows_out: 25,
            nodes_evaluated: 84,
            rows_produced: 1_384,
            cache_misses: 1,
            sorts: 14,
            rows_sorted: 202,
            engine_rows_converted: 1_245,
            rows_converted: 1_247,
            vals_built: 0,
            ..Work::default()
        }
    );
}

#[test]
fn prepare_once_then_execute_100_times() {
    let work = twice(|| {
        let conn = optimized(paper_dataset());
        let q = dsh_query();
        measure(conn.database(), || {
            let prepared = conn.prepare(&q).unwrap();
            for _ in 0..100 {
                conn.execute(&prepared).unwrap();
            }
            // `from_q` on the warm cache: a hit per call, no compile
            for _ in 0..100 {
                conn.from_q(&q).unwrap();
            }
        })
        .1
    });
    // one compile (its 2 literal rows are the only conversions: the
    // decoder converts none); 200 executions of the running example's
    // two queries
    assert_eq!(
        work,
        Work {
            queries: 400,
            rows_out: 5_000,
            nodes_evaluated: 16_800,
            rows_produced: 276_800,
            vec_nodes: 16_800,
            kernel_batches: 7_800,
            cache_hits: 100,
            cache_misses: 1,
            sorts: 800,
            rows_sorted: 10_400,
            hash_builds: 3_800,
            rows_hashed: 65_800,
            engine_rows_converted: 0,
            rows_converted: 2,
            vals_built: 0,
            ..Work::default()
        }
    );
}

// ------------------------------------------------------- Fig. 6 `dotp`

#[test]
fn dotp_at_n_10000_nnz_1000() {
    let (sv, v) = dotp_data(10_000, 1_000, 7);
    let (shape, work) = twice(|| {
        let conn = optimized(dotp_database(&sv, &v));
        let q = dotp_query();
        let (got, work) = measure(conn.database(), || {
            let prepared = conn.prepare(&q).unwrap();
            conn.execute(&prepared).unwrap()
        });
        assert!((got - dotp_scalar(&sv, &v)).abs() < 1e-6);
        (shape(&conn.compile(&q).unwrap()), work)
    });
    // Fig. 6 draws one join; the plan keeps two
    assert_eq!(
        shape,
        Shape {
            operators: 26,
            equi_joins: 2,
            cross_joins: 0,
            row_nums: 2,
            dense_ranks: 0,
            distincts: 0,
        }
    );
    // no row conversion in the engine or the decoder (which reads the
    // 1-row scalar result's columns); compiling builds 4 literal rows
    assert_eq!(
        work,
        Work {
            queries: 1,
            rows_out: 1,
            nodes_evaluated: 26,
            rows_produced: 62_006,
            vec_nodes: 26,
            kernel_batches: 28,
            cache_misses: 1,
            sorts: 1,
            rows_sorted: 1_000,
            hash_builds: 2,
            rows_hashed: 1_001,
            engine_rows_converted: 0,
            rows_converted: 4,
            vals_built: 0,
            ..Work::default()
        }
    );
}

/// The order of `dense` is found at run time, not kept: stored out of its
/// key order (reversed, or in order but for one row appended last), the
/// `RowNum` that numbers it sorts its 10 000 rows again. The join on those
/// numbers stays positional, because a `RowNum`'s numbers run `1, 2, …`
/// in its output whatever order its input came in.
#[test]
fn dotp_with_dense_out_of_key_order() {
    let (sv, v) = dotp_data(10_000, 1_000, 7);
    let cells = |i: usize| vec![Value::Int(i as i64), Value::Dbl(v[i])];
    let reversed: Vec<_> = (0..v.len()).rev().map(cells).collect();
    let late = 4_321;
    let one_late: Vec<_> = (0..v.len())
        .filter(|&i| i != late)
        .chain([late])
        .map(cells)
        .collect();
    for dense in [reversed, one_late] {
        let work = twice(|| {
            let db = dotp_database(&sv, &[]);
            db.insert("dense", dense.clone()).unwrap();
            let conn = optimized(db);
            let (got, work) = measure(conn.database(), || conn.from_q(&dotp_query()).unwrap());
            assert!((got - dotp_scalar(&sv, &v)).abs() < 1e-6);
            work
        });
        assert_eq!(
            work,
            Work {
                queries: 1,
                rows_out: 1,
                nodes_evaluated: 26,
                rows_produced: 62_006,
                vec_nodes: 26,
                kernel_batches: 28,
                cache_misses: 1,
                sorts: 2,
                rows_sorted: 11_000,
                hash_builds: 2,
                rows_hashed: 1_001,
                engine_rows_converted: 0,
                rows_converted: 4,
                vals_built: 0,
                ..Work::default()
            }
        );
    }
}

// ------------------------------------------ X1: raw vs optimized plans

/// `ferry_optimizer::optimize` minus `join_elimination`, composed from
/// the public pass functions: join recovery, then cost-guarded rounds of
/// the remaining passes.
fn optimize_without_join_elimination(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    use ferry_optimizer::{joins, passes, reachable_size, reachable_width};
    let cost = |p: &Plan, r: &[NodeId]| reachable_size(p, r) + reachable_width(p, r);
    let (mut plan, mut roots) = joins::recover_joins(plan, roots);
    for _ in 0..8 {
        let (p, r) = passes::cse(&plan, &roots);
        let (p, r) = passes::fold_constants(&p, &r);
        let (p, r) = passes::prune_columns(&p, &r);
        let (p, r) = passes::merge_projects(&p, &r);
        if cost(&p, &r) >= cost(&plan, &roots) {
            break;
        }
        (plan, roots) = (p, r);
    }
    (plan, roots)
}

/// (operators, equi-joins, cross joins) of `q` compiled straight from
/// loop-lifting, optimized without join elimination, and fully optimized
/// (EXPERIMENTS X1).
fn raw_and_optimized<T: QA>(db: impl Fn() -> Database, q: &Q<T>) -> [(usize, usize, usize); 3] {
    let raw = Connection::new(db()).compile(q).unwrap();
    let no_je = optimize_without_join_elimination(&raw.plan, &raw.roots());
    [
        shape(&raw),
        plan_shape(&no_je.0, &no_je.1),
        shape(&optimized(db()).compile(q).unwrap()),
    ]
    .map(|s| (s.operators, s.equi_joins, s.cross_joins))
}

#[test]
fn optimizer_shrinks_the_running_example_and_dotp() {
    let table1 = twice(|| raw_and_optimized(paper_dataset, &dsh_query()));
    // loop-lifting's three `loop × table` crosses become equi-joins
    assert_eq!(table1, [(73, 15, 3), (105, 27, 1), (84, 19, 0)]);
    let (sv, v) = dotp_data(100, 10, 7);
    let dotp = twice(|| raw_and_optimized(|| dotp_database(&sv, &v), &dotp_query()));
    assert_eq!(dotp, [(30, 5, 2), (51, 12, 1), (26, 2, 0)]);
}

// ------------------------------------------------ the `orders` bundle

type Customer = (i64, String);
type Order = (i64, i64);
type Item = (i64, i64, String);
type Report = Vec<(String, Vec<(i64, Vec<(String, i64)>)>)>;

/// `examples/orders.rs`'s report: every customer with every order and
/// its items — three list constructors, three queries.
fn report() -> Q<Report> {
    map(
        |c: Q<Customer>| {
            let (cid, name) = c.view();
            let orders = filter(
                move |o: Q<Order>| o.fst().eq(&cid),
                table::<Order>("orders"),
            );
            pair(
                name,
                map(
                    |o: Q<Order>| {
                        let oid = o.snd();
                        let items = map(
                            |it: Q<Item>| pair(it.proj3_2(), it.proj3_1()),
                            filter(
                                {
                                    let oid = oid.clone();
                                    move |it: Q<Item>| it.proj3_0().eq(&oid)
                                },
                                table::<Item>("items"),
                            ),
                        );
                        pair(oid, items)
                    },
                    orders,
                ),
            )
        },
        table::<Customer>("customers"),
    )
}

/// `examples/orders.rs`'s three tables and rows, in one transaction.
fn load_orders(db: &Database) {
    let (i, s) = (Value::Int, Value::str);
    db.transact(|tx| {
        tx.create_table(
            "customers",
            Schema::of(&[("cid", Ty::Int), ("name", Ty::Str)]),
            vec!["cid"],
        )?;
        tx.create_table(
            "orders",
            Schema::of(&[("cid", Ty::Int), ("oid", Ty::Int)]),
            vec!["oid"],
        )?;
        tx.create_table(
            "items",
            Schema::of(&[("oid", Ty::Int), ("price", Ty::Int), ("product", Ty::Str)]),
            vec!["oid", "product"],
        )?;
        tx.insert(
            "customers",
            vec![
                vec![i(1), s("Ada")],
                vec![i(2), s("Grace")],
                vec![i(3), s("Edsger")],
            ],
        )?;
        tx.insert(
            "orders",
            vec![vec![i(1), i(10)], vec![i(1), i(11)], vec![i(2), i(20)]],
        )?;
        tx.insert(
            "items",
            vec![
                vec![i(10), i(120), s("anvil")],
                vec![i(10), i(2), s("banana")],
                vec![i(11), i(30), s("compass")],
                vec![i(20), i(45), s("dynamite")],
                vec![i(20), i(45), s("fuse")],
            ],
        )
    })
    .unwrap();
}

/// One order of customer 3 with four items in one transaction, shaped
/// like an `orders.mixed` commit.
fn commit_order(db: &Database) {
    let i = Value::Int;
    db.transact(|tx| {
        tx.insert("orders", vec![vec![i(3), i(30)]])?;
        tx.insert(
            "items",
            (0..4)
                .map(|k| vec![i(30), i(100 + k), Value::str(format!("p{k}").as_str())])
                .collect(),
        )
    })
    .unwrap();
}

/// A fresh directory for a durable database.
fn dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable() -> DurabilityConfig {
    DurabilityConfig::with_fsync(FsyncPolicy::Always)
}

#[test]
fn orders_report_three_levels() {
    let (shape, work) = twice(|| {
        let db = Database::new();
        load_orders(&db);
        let conn = optimized(db);
        let (out, work) = measure(conn.database(), || {
            let prepared = conn.prepare(&report()).unwrap();
            conn.execute(&prepared).unwrap()
        });
        assert_eq!(out.len(), 3);
        // the oracle's route over the same prepared bundle: the same
        // engine work, plus the nested value the stitcher builds
        let prepared = conn.prepare(&report()).unwrap();
        let (val, stitched) = measure(conn.database(), || conn.execute_val(&prepared).unwrap());
        assert_eq!(Report::from_val(&val).unwrap(), out);
        (shape(&conn.compile(&report()).unwrap()), (work, stitched))
    });
    let (work, stitched) = work;
    assert_eq!(
        shape,
        Shape {
            operators: 41,
            equi_joins: 6,
            cross_joins: 0,
            row_nums: 5,
            dense_ranks: 2,
            distincts: 2,
        }
    );
    // the decoder converts none of the 11 result rows and builds no
    // `Val`; compiling builds 2 literal rows
    assert_eq!(
        work,
        Work {
            queries: 3,
            rows_out: 11,
            nodes_evaluated: 41,
            rows_produced: 141,
            vec_nodes: 41,
            kernel_batches: 18,
            cache_misses: 1,
            sorts: 0,
            rows_sorted: 0,
            hash_builds: 8,
            rows_hashed: 26,
            engine_rows_converted: 0,
            rows_converted: 2,
            vals_built: 0,
            ..Work::default()
        }
    );
    // a list node for the report, and per customer, order and item a
    // tuple, its atom and its inner list or second atom: 1 + 3 × (3 + 3
    // + 5) nodes
    assert_eq!(
        stitched,
        Work {
            queries: 3,
            rows_out: 11,
            nodes_evaluated: 41,
            rows_produced: 141,
            vec_nodes: 41,
            kernel_batches: 18,
            hash_builds: 8,
            rows_hashed: 26,
            vals_built: 34,
            ..Work::default()
        }
    );
}

#[test]
fn one_durable_commit_of_an_order_and_four_items() {
    let (commit, read) = twice(|| {
        let conn = optimized(Database::open(dir("ledger_commit"), durable()).unwrap());
        load_orders(conn.database());
        let prepared = conn.prepare(&report()).unwrap();
        let ((), commit) = measure(conn.database(), || commit_order(conn.database()));
        // the read half of an `orders.mixed` run, after its commit
        let (out, read) = measure(conn.database(), || conn.execute(&prepared).unwrap());
        assert_eq!(
            out[2].1,
            vec![(30, (0..4).map(|k| (format!("p{k}"), 100 + k)).collect())]
        );
        (commit, read)
    });
    // one fsync and 192 WAL bytes per commit, as `orders.mixed` measures;
    // the read after it converts no row (its plan was prepared before
    // the commit, and the decoder reads the result's columns)
    assert_eq!(
        commit,
        Work {
            rows_converted: 5,
            fsyncs: 1,
            wal_bytes: 192,
            ..Work::default()
        }
    );
    assert_eq!(
        read,
        Work {
            queries: 3,
            rows_out: 16,
            nodes_evaluated: 41,
            rows_produced: 196,
            vec_nodes: 41,
            kernel_batches: 18,
            sorts: 0,
            rows_sorted: 0,
            hash_builds: 8,
            rows_hashed: 34,
            rows_converted: 0,
            vals_built: 0,
            ..Work::default()
        }
    );
}

#[test]
fn reopening_a_snapshot_and_a_log_tail() {
    let (checkpoint, reopen) = twice(|| {
        let path = dir("ledger_reopen");
        let checkpoint = {
            let db = Database::open(&path, durable()).unwrap();
            load_orders(&db);
            let (_, checkpoint) = measure(&db, || db.checkpoint().unwrap());
            commit_order(&db); // the log tail past the snapshot
            checkpoint
        };
        let before = ferry_algebra::rows_converted();
        let db = Database::open(&path, durable()).unwrap();
        let converted = ferry_algebra::rows_converted() - before;
        let r = db.recovery_report().unwrap();
        (checkpoint, (converted, r.commits_applied, r.wal_frames))
    });
    // the checkpoint writes the 11 rows of the three tables
    assert_eq!(
        checkpoint,
        Work {
            rows_converted: 11,
            fsyncs: 1,
            ..Work::default()
        }
    );
    // recovery transposes the 11 snapshot rows and the tail's 5 rows into
    // columns: (rows converted, commits applied, log frames decoded)
    assert_eq!(reopen, (16, 1, 1));
}

// -------------------------------------------- X2: operators vs depth

/// A pipeline of `depth` stacked filter/map stages over `facilities`
/// (EXPERIMENTS X2).
fn deep_pipeline(depth: usize) -> Q<Vec<i64>> {
    let base = table::<(String, String)>("facilities");
    let mut out: Q<Vec<i64>> = map(|_t: Q<(String, String)>| toq(&1i64), base);
    for i in 0..depth {
        let k = i as i64;
        out = map(
            move |x: Q<i64>| x + toq(&k),
            filter(|x: Q<i64>| x.ge(&toq(&0i64)), out),
        );
    }
    out
}

#[test]
fn operators_grow_linearly_with_pipeline_depth() {
    // the compiler recurses once per stage: an unoptimized build of depth
    // 64 needs more than a test thread's default stack
    let ops = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            twice(|| {
                let raw = Connection::new(scaled_dataset(5, 2));
                let opt = optimized(scaled_dataset(5, 2));
                [1usize, 4, 16, 64].map(|d| {
                    let q = deep_pipeline(d);
                    let (raw, opt) = (raw.compile(&q).unwrap(), opt.compile(&q).unwrap());
                    (d, shape(&raw).operators, shape(&opt).operators)
                })
            })
        })
        .unwrap()
        .join()
        .unwrap();
    // (depth, raw operators, optimized operators): 14 and 8 per stage
    assert_eq!(
        ops,
        [(1, 24, 15), (4, 66, 39), (16, 234, 135), (64, 906, 519)]
    );
}
