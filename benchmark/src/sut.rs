//! The system under test, seen through one file: **every call into a
//! product crate is in here** (README.md lists the signatures this
//! stands on). The rest of the harness speaks plain Rust data, opaque
//! handles from this module, and `Result<_, String>`.
//!
//! Nothing here edits or reaches into a product crate: timings come from
//! wrapping public functions, counts from counters the product already
//! publishes (`QueryStats`, `OptReport`, the telemetry registry).

use crate::data::{Cell, ColTy, OrdersData, TableData};
use crate::digest::Digest;
use crate::trace::{Layer, Recorder};
use ferry::prelude::*;
use ferry::shred::{CompiledBundle, QueryDesc};
use ferry::stitch::stitch;
use ferry::OptReport;
use ferry_algebra::{Rel, Row, Schema, Ty, Value};
use ferry_engine::Database;
use ferry_server::{
    proto, Client, ClientError, ErrorCode, Response, Server, ServerConfig, ServerHandle,
};
use std::fmt::Display;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

fn err(e: impl Display) -> String {
    e.to_string()
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ------------------------------------------------------------- database

/// One database with the two connections the harness needs: `conn`
/// carries the optimizer (the product's normal configuration), `bare`
/// shares its catalog and plan cache but rewrites nothing, so
/// `Connection::compile` on it times loop-lifting alone.
pub struct Db {
    conn: Connection,
    bare: Connection,
}

/// The product counters the harness reads, as one point-in-time view;
/// metrics are deltas between two of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub queries: u64,
    pub rows_out: u64,
    pub rows_produced: u64,
    pub nodes_evaluated: u64,
    pub vec_nodes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub server_rejects: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            queries: self.queries - earlier.queries,
            rows_out: self.rows_out - earlier.rows_out,
            rows_produced: self.rows_produced - earlier.rows_produced,
            nodes_evaluated: self.nodes_evaluated - earlier.nodes_evaluated,
            vec_nodes: self.vec_nodes - earlier.vec_nodes,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            fsyncs: self.fsyncs - earlier.fsyncs,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            server_rejects: self.server_rejects - earlier.server_rejects,
        }
    }
}

fn value(c: &Cell) -> Value {
    match c {
        Cell::Int(i) => Value::Int(*i),
        Cell::Str(s) => Value::str(s.as_str()),
    }
}

fn rows(cells: &[Vec<Cell>]) -> Vec<Row> {
    cells
        .iter()
        .map(|r| r.iter().map(value).collect())
        .collect()
}

fn schema(t: &TableData) -> Schema {
    let cols: Vec<(&str, Ty)> = t
        .cols
        .iter()
        .map(|(n, ty)| {
            (
                *n,
                match ty {
                    ColTy::Int => Ty::Int,
                    ColTy::Str => Ty::Str,
                },
            )
        })
        .collect();
    Schema::of(&cols)
}

impl Db {
    fn wrap(db: Database) -> Db {
        let bare = Connection::new(db);
        let conn = bare.clone().with_optimizer(ferry_optimizer::rewriter());
        Db { conn, bare }
    }

    /// An in-memory database holding `tables`.
    pub fn memory(tables: &[TableData]) -> Res<Db> {
        let db = Db::wrap(Database::new());
        db.load(tables)?;
        Ok(db)
    }

    /// Open (or create) the durable database at `path`, fsync policy
    /// **Always**, no automatic checkpoints — so WAL bytes and fsyncs
    /// per commit are exact counts.
    pub fn open_durable(path: &Path) -> Res<Db> {
        let config = DurabilityConfig::with_fsync(FsyncPolicy::Always);
        Ok(Db::wrap(Database::open(path, config).map_err(err)?))
    }

    /// Create and fill `tables`, each in one transaction.
    pub fn load(&self, tables: &[TableData]) -> Res<()> {
        for t in tables {
            self.conn
                .database()
                .transact(|tx| {
                    tx.create_table(t.name, schema(t), t.keys.clone())?;
                    tx.insert(t.name, rows(&t.rows))
                })
                .map_err(err)?;
        }
        Ok(())
    }

    /// The verbatim Fig. 1 tables (`ferry_bench::workload::paper_dataset`)
    /// plus `extra`.
    pub fn paper_dataset(extra: &[TableData]) -> Res<Db> {
        let db = Db::wrap(ferry_bench::workload::paper_dataset());
        db.load(extra)?;
        Ok(db)
    }

    /// A `dotp` instance (`ferry_bench::dotp::{dotp_data, dotp_database}`)
    /// and its ground truth by `dotp_scalar`.
    pub fn dotp(n: usize, nnz: usize, seed: u64) -> (Db, f64) {
        let (sv, v) = ferry_bench::dotp::dotp_data(n, nnz, seed);
        let truth = ferry_bench::dotp::dotp_scalar(&sv, &v);
        (Db::wrap(ferry_bench::dotp::dotp_database(&sv, &v)), truth)
    }

    /// Append one order and its items in **one** transaction — the write
    /// half of an `orders.mixed` run.
    pub fn commit_order(&self, order: &[Cell], items: &[Vec<Cell>]) -> Res<()> {
        self.conn
            .database()
            .transact(|tx| {
                tx.insert("orders", vec![order.iter().map(value).collect()])?;
                tx.insert("items", rows(items))
            })
            .map_err(err)
    }

    /// Every value of an integer column, for the reopen check.
    pub fn int_column(&self, table: &str, col: &str) -> Res<Vec<i64>> {
        let t = self
            .conn
            .database()
            .table(table)
            .ok_or_else(|| format!("no table {table}"))?;
        let idx = t
            .schema
            .index_of(col)
            .ok_or_else(|| format!("no column {table}.{col}"))?;
        t.rows
            .rows()
            .iter()
            .map(|r| {
                r[idx]
                    .as_int()
                    .ok_or_else(|| format!("{table}.{col} is not Int"))
            })
            .collect()
    }

    pub fn counters(&self) -> Counters {
        let s = self.conn.database().stats();
        let telemetry = self.conn.telemetry();
        let counter = |name: &str| telemetry.registry().counter(name).map_or(0, |c| c.get());
        Counters {
            queries: s.queries,
            rows_out: s.rows_out,
            rows_produced: s.rows_produced,
            nodes_evaluated: s.nodes_evaluated,
            vec_nodes: s.vec_nodes,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            fsyncs: counter("storage.fsyncs"),
            wal_bytes: counter("storage.wal_bytes"),
            server_rejects: counter("server.rejects"),
        }
    }

    /// `TelemetryConfig::Full` for the traced pass, the default
    /// (`Counters`) otherwise.
    pub fn set_tracing(&self, on: bool) {
        self.conn.set_telemetry_config(if on {
            TelemetryConfig::Full
        } else {
            TelemetryConfig::Counters
        });
    }

    pub fn clear_plan_cache(&self) {
        self.conn.clear_plan_cache();
    }

    /// The product defaults the run used, echoed into the output.
    pub fn config_echo(&self) -> String {
        format!("{:?}", self.conn.database().par_config())
    }
}

// -------------------------------------------------------------- queries

/// A typed program. Not `Send` (the DSL's terms are `Rc`): build it in
/// the thread that uses it.
pub struct Query<T>(Q<T>);

/// A prepared program: `Send + Sync`, shared by reference.
pub struct Stmt<T>(Prepared<T>);

/// What compiling one program costs, stage by stage (set-up of the
/// prepared workloads; every run of `adhoc.cold`).
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    pub looplift_ns: u64,
    /// Operators in the loop-lifted, unoptimized plan.
    pub plan_nodes: usize,
    pub rewrite_ns: u64,
    pub opt: OptSummary,
}

/// The optimizer's own account of one run (`OptReport`).
#[derive(Debug, Clone, Default)]
pub struct OptSummary {
    pub nodes_in: usize,
    pub nodes_out: usize,
    pub rewrites: u64,
    /// `(pass, ns)` in pipeline order.
    pub pass_ns: Vec<(&'static str, u64)>,
}

impl From<&OptReport> for OptSummary {
    fn from(r: &OptReport) -> OptSummary {
        OptSummary {
            nodes_in: r.nodes_before,
            nodes_out: r.nodes_after,
            rewrites: r.rewrites(),
            pass_ns: r.passes.iter().map(|p| (p.pass, p.elapsed_ns)).collect(),
        }
    }
}

/// Loop-lift on the optimizer-less connection, then optimize, as two
/// timed stages; returns the executable bundle.
fn compile_staged<T: QA>(
    db: &Db,
    q: &Q<T>,
    mut rec: Option<&mut Recorder>,
) -> Res<(CompiledBundle, CompileStats)> {
    let t = Instant::now();
    let mut bundle = Recorder::stage_if(rec.as_deref_mut(), "compile", Layer::CoreCompile, || {
        db.bare.compile(q)
    })
    .map_err(err)?;
    let looplift_ns = elapsed_ns(t);
    let plan_nodes = bundle.plan_size();

    let t = Instant::now();
    let (plan, roots, report) = Recorder::stage_if(rec, "optimize", Layer::Optimizer, || {
        ferry_optimizer::optimize_report(&bundle.plan, &bundle.roots())
    });
    let rewrite_ns = elapsed_ns(t);
    bundle.plan = plan;
    for (qd, root) in bundle.queries.iter_mut().zip(roots) {
        qd.root = root;
    }
    let opt = OptSummary::from(&report);
    bundle.opt = Some(report);
    Ok((
        bundle,
        CompileStats {
            looplift_ns,
            plan_nodes,
            rewrite_ns,
            opt,
        },
    ))
}

/// Execute → stitch → decode, one public function at a time. Each stage
/// also releases its input, as the one-call API does before it returns,
/// so freeing a large result is charged to the stage that consumed it.
fn execute_staged<T: QA>(db: &Db, bundle: &CompiledBundle, rec: &mut Recorder) -> Res<T> {
    let rels = rec
        .stage("execute", Layer::Engine, || db.conn.execute_bundle(bundle))
        .map_err(err)?;
    stitch_staged(rels, &bundle.queries, rec)
}

fn stitch_staged<T: QA>(rels: Vec<Rel>, queries: &[QueryDesc], rec: &mut Recorder) -> Res<T> {
    let val = rec
        .stage("stitch", Layer::CoreStitch, move || stitch(&rels, queries))
        .map_err(err)?;
    rec.stage("decode", Layer::CoreStitch, move || T::from_val(&val))
        .map_err(err)
}

impl<T: QA> Query<T> {
    /// `Connection::prepare`: compile + optimize through the plan cache.
    pub fn prepare(&self, db: &Db) -> Res<Stmt<T>> {
        db.conn.prepare(&self.0).map(Stmt).map_err(err)
    }

    /// `from_q`: the whole pipeline in one call.
    pub fn run(&self, db: &Db) -> Res<T> {
        db.conn.from_q(&self.0).map_err(err)
    }

    /// The same pipeline, staged: compile → optimize → execute → stitch →
    /// decode, each its own span.
    pub fn run_staged(&self, db: &Db, rec: &mut Recorder) -> Res<(T, CompileStats)> {
        let (bundle, stats) = compile_staged(db, &self.0, Some(rec))?;
        Ok((execute_staged(db, &bundle, rec)?, stats))
    }

    /// What compiling this program costs, outside any run.
    pub fn compile_stats(&self, db: &Db) -> Res<CompileStats> {
        compile_staged(db, &self.0, None).map(|x| x.1)
    }

    /// The reference interpreter over the same catalog.
    pub fn interpret(&self, db: &Db) -> Res<T> {
        db.conn.interpret(&self.0).map_err(err)
    }

    /// The program as its generated SQL bundle, one statement per
    /// member, with what the client needs to stitch the answers.
    pub fn sql_bundle(&self, db: &Db) -> Res<(SqlBundle<T>, SqlGenStats)> {
        let bundle = db.conn.compile(&self.0).map_err(err)?;
        let snap = db.conn.snapshot();
        let t = Instant::now();
        let sqls = ferry_sql::codegen::generate_bundle(&snap, &bundle.plan, &bundle.roots())
            .map_err(err)?;
        let codegen_ns = elapsed_ns(t);
        let statements: Vec<String> = sqls.into_iter().map(|s| s.sql).collect();
        let chars = statements.iter().map(String::len).sum();
        Ok((
            SqlBundle {
                statements,
                queries: bundle.queries,
                _t: std::marker::PhantomData,
            },
            SqlGenStats { codegen_ns, chars },
        ))
    }
}

impl<T: QA> Stmt<T> {
    /// `Connection::execute`: dispatch + stitch + decode in one call.
    pub fn execute(&self, db: &Db) -> Res<T> {
        db.conn.execute(&self.0).map_err(err)
    }

    pub fn execute_staged(&self, db: &Db, rec: &mut Recorder) -> Res<T> {
        execute_staged(db, self.0.bundle(), rec)
    }
}

// ---- the paper's programs

pub type Table1 = Vec<(String, Vec<String>)>;
/// One customer's orders: `[(oid, [(product, price)])]`.
pub type OrderLines = Vec<(i64, Vec<(String, i64)>)>;
pub type OrdersReport = Vec<(String, OrderLines)>;

type Customer = (i64, String); // customers(cid, name)
type Order = (i64, i64); // orders(cid, oid)
type Item = (i64, i64, String); // items(oid, price, product)
type Fac = (String, String); // facilities(cat, fac) — columns alphabetical

/// Table 1's running example (`ferry_bench::table1::dsh_query`).
pub fn table1_query() -> Query<Table1> {
    Query(ferry_bench::table1::dsh_query())
}

/// Fig. 6's `dotp` (`ferry_bench::dotp::dotp_query`).
pub fn dotp_query() -> Query<f64> {
    Query(ferry_bench::dotp::dotp_query())
}

fn items_of(oid: Q<i64>) -> Q<Vec<(String, i64)>> {
    map(
        |it: Q<Item>| pair(it.proj3_2(), it.proj3_1()),
        filter(
            move |it: Q<Item>| it.proj3_0().eq(&oid),
            table::<Item>("items"),
        ),
    )
}

fn orders_of(cid: Q<i64>) -> Q<OrderLines> {
    map(
        |o: Q<Order>| pair(o.snd(), items_of(o.snd())),
        filter(
            move |o: Q<Order>| o.fst().eq(&cid),
            table::<Order>("orders"),
        ),
    )
}

/// The 3-level `orders` report of `examples/orders.rs`:
/// `[(name, [(oid, [(product, price)])])]` — three list constructors,
/// three queries.
pub fn orders_report() -> Query<OrdersReport> {
    Query(map(
        |c: Q<Customer>| {
            let (cid, name) = c.view();
            pair(name, orders_of(cid))
        },
        table::<Customer>("customers"),
    ))
}

// ---- the adhoc.cold pool

/// One member of the `adhoc.cold` pool with its result type erased.
pub trait AdhocProgram {
    fn name(&self) -> &str;
    /// Cold `from_q`; returns `(latency ns, result checksum)`.
    fn cold(&self, db: &Db) -> Res<(u64, u64)>;
    /// The same run staged; also yields the compile statistics.
    fn cold_staged(&self, db: &Db, rec: &mut Recorder) -> Res<(u64, u64, CompileStats)>;
    /// Checksum of the reference interpreter's answer.
    fn oracle(&self, db: &Db) -> Res<u64>;
}

struct Named<T> {
    name: String,
    q: Query<T>,
}

impl<T: QA + Digest> AdhocProgram for Named<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn cold(&self, db: &Db) -> Res<(u64, u64)> {
        db.clear_plan_cache();
        let t = Instant::now();
        let out = self.q.run(db)?;
        Ok((elapsed_ns(t), out.digest()))
    }

    fn cold_staged(&self, db: &Db, rec: &mut Recorder) -> Res<(u64, u64, CompileStats)> {
        db.clear_plan_cache();
        let root = rec.begin_run();
        let t = Instant::now();
        let out = self.q.run_staged(db, rec);
        let ns = elapsed_ns(t);
        rec.exit(root);
        let (out, stats) = out?;
        Ok((ns, out.digest(), stats))
    }

    fn oracle(&self, db: &Db) -> Res<u64> {
        Ok(self.q.interpret(db)?.digest())
    }
}

fn named<T: QA + Digest + 'static>(name: impl Into<String>, q: Q<T>) -> Box<dyn AdhocProgram> {
    Box::new(Named {
        name: name.into(),
        q: Query(q),
    })
}

/// `depth` comprehension stages over the item prices, alternating a
/// `map` and a `filter` that never empties the list: loop-lifting and
/// optimizer work grow with `depth`, the data does not.
fn chain(depth: usize) -> Q<Vec<i64>> {
    let mut xs = map(|it: Q<Item>| it.proj3_1(), table::<Item>("items"));
    for stage in 1..depth {
        let k = toq(&(stage as i64));
        xs = if stage % 2 == 1 {
            map(move |x: Q<i64>| x + k, xs)
        } else {
            filter(move |x: Q<i64>| x.gt(&k), xs)
        };
    }
    xs
}

/// The fixed pool `adhoc.cold` draws from: 34 distinct programs over the
/// Fig. 1 tables, the 3-customer `orders` instance and a 16-element
/// `dotp` instance — flat and nested result types, comprehension depth
/// 1–16, one to three queries each.
pub fn adhoc_pool() -> Vec<Box<dyn AdhocProgram>> {
    let mut pool: Vec<Box<dyn AdhocProgram>> = vec![
        named("table1", ferry_bench::table1::dsh_query()),
        named("dotp", ferry_bench::dotp::dotp_query()),
        named("orders.report", orders_report().0),
        named(
            "orders.revenue",
            map(
                |c: Q<Customer>| {
                    let (cid, name) = c.view();
                    let spent = sum(ferry::comp!(
                        (price.clone())
                        for (ocid, oid) in table::<Order>("orders"),
                        if ocid.eq(&cid),
                        for (ioid, price, product) in table::<Item>("items"),
                        if ioid.eq(&oid),
                        let _unused = product
                    ));
                    pair(name, spent)
                },
                table::<Customer>("customers"),
            ),
        ),
    ];
    for depth in 1..=16 {
        pool.push(named(format!("chain.{depth:02}"), chain(depth)));
    }
    for max_cid in 1..=3i64 {
        pool.push(named(
            format!("orders.upto.{max_cid}"),
            map(
                |c: Q<Customer>| {
                    pair(
                        c.snd(),
                        map(
                            |o: Q<Order>| o.snd(),
                            filter(
                                {
                                    let cid = c.fst();
                                    move |o: Q<Order>| o.fst().eq(&cid)
                                },
                                table::<Order>("orders"),
                            ),
                        ),
                    )
                },
                filter(
                    move |c: Q<Customer>| c.fst().le(&toq(&max_cid)),
                    table::<Customer>("customers"),
                ),
            ),
        ));
    }
    for cat in ["API", "LIB", "LIN", "ORM", "QLA"] {
        pool.push(named(
            format!("features.of.{cat}"),
            map(
                |f: Q<Fac>| {
                    let fac = f.snd();
                    pair(
                        fac.clone(),
                        map(
                            |x: Q<(String, String)>| x.snd(),
                            filter(
                                move |x: Q<(String, String)>| x.fst().eq(&fac),
                                table::<(String, String)>("features"),
                            ),
                        ),
                    )
                },
                filter(
                    move |f: Q<Fac>| f.fst().eq(&toq(&cat.to_string())),
                    table::<Fac>("facilities"),
                ),
            ),
        ));
    }
    pool.push(named(
        "facilities.by.category",
        map(
            |g: Q<Vec<Fac>>| {
                pair(
                    the(map(|f: Q<Fac>| f.fst(), g.clone())),
                    map(|f: Q<Fac>| f.snd(), g),
                )
            },
            group_with(|f: Q<Fac>| f.fst(), table::<Fac>("facilities")),
        ),
    ));
    pool.push(named(
        "features.with.meanings",
        map(
            |f: Q<Fac>| {
                let fac = f.snd();
                pair(
                    fac.clone(),
                    map(
                        |x: Q<(String, String)>| {
                            let feat = x.snd();
                            pair(
                                feat.clone(),
                                map(
                                    |m: Q<(String, String)>| m.snd(),
                                    filter(
                                        move |m: Q<(String, String)>| m.fst().eq(&feat),
                                        table::<(String, String)>("meanings"),
                                    ),
                                ),
                            )
                        },
                        filter(
                            move |x: Q<(String, String)>| x.fst().eq(&fac),
                            table::<(String, String)>("features"),
                        ),
                    ),
                )
            },
            table::<Fac>("facilities"),
        ),
    ));
    pool.push(named(
        "count.features",
        length(table::<(String, String)>("features")),
    ));
    pool.push(named(
        "sum.prices",
        sum(map(|it: Q<Item>| it.proj3_1(), table::<Item>("items"))),
    ));
    pool.push(named(
        "max.price",
        maximum(map(|it: Q<Item>| it.proj3_1(), table::<Item>("items"))),
    ));
    pool.push(named(
        "sorted.products",
        sort_with(
            |p: Q<(String, i64)>| p.snd(),
            map(
                |it: Q<Item>| pair(it.proj3_2(), it.proj3_1()),
                table::<Item>("items"),
            ),
        ),
    ));
    pool
}

/// The small `dotp` instance the pool's `dotp` member runs on.
pub fn adhoc_database(orders: &OrdersData) -> Res<Db> {
    let db = Db::paper_dataset(&orders.tables())?;
    let (sv, v) = ferry_bench::dotp::dotp_data(16, 4, 1);
    for (name, key, data) in [
        (
            "sparse",
            "idx",
            sv.iter().map(|&(i, x)| (i, x)).collect::<Vec<_>>(),
        ),
        (
            "dense",
            "pos",
            v.iter().enumerate().map(|(i, &x)| (i as i64, x)).collect(),
        ),
    ] {
        db.conn
            .database()
            .transact(|tx| {
                tx.create_table(
                    name,
                    Schema::of(&[(key, Ty::Int), ("val", Ty::Dbl)]),
                    vec![key],
                )?;
                tx.insert(
                    name,
                    data.iter()
                        .map(|&(i, x)| vec![Value::Int(i), Value::Dbl(x)])
                        .collect(),
                )
            })
            .map_err(err)?;
    }
    Ok(db)
}

// ------------------------------------------------------------- baseline

/// Table 1's headline at `k` categories: `run_haskelldb` ÷ `run_dsh`
/// wall time (median of `reps`), with both query counts.
pub fn avalanche_ratio(db: &Db, reps: usize) -> Res<(f64, u64, u64)> {
    let mut ratios = Vec::with_capacity(reps);
    let mut counts = (0, 0);
    for _ in 0..reps {
        let t = Instant::now();
        let (dsh, dsh_queries) = ferry_bench::table1::run_dsh(&db.conn).map_err(err)?;
        let dsh_ns = elapsed_ns(t);
        let t = Instant::now();
        let (hdb, hdb_queries) =
            ferry_bench::table1::run_haskelldb(db.conn.database()).map_err(err)?;
        let hdb_ns = elapsed_ns(t);
        if ferry_bench::table1::normalise(dsh) != ferry_bench::table1::normalise(hdb) {
            return Err("HaskellDB-style and DSH results differ".into());
        }
        ratios.push(hdb_ns as f64 / dsh_ns.max(1) as f64);
        counts = (hdb_queries, dsh_queries);
    }
    Ok((crate::measure::median_f64(ratios), counts.0, counts.1))
}

// ------------------------------------------------------------- the wire

/// A program as SQL text plus its stitching metadata — what a client of
/// `ferry-server` holds after compiling once.
pub struct SqlBundle<T> {
    pub statements: Vec<String>,
    queries: Vec<QueryDesc>,
    _t: std::marker::PhantomData<fn() -> T>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SqlGenStats {
    pub codegen_ns: u64,
    pub chars: usize,
}

/// One statement's answer off the wire.
pub struct Rows(ferry_server::ResultSet);

impl Rows {
    /// `(name, oid, lines, total)` rows of the `lookup.wire` statement.
    pub fn lookup_rows(&self) -> Res<Vec<(String, i64, i64, i64)>> {
        self.0
            .rows
            .iter()
            .map(|r| match r.as_slice() {
                [name, oid, n, total] => name
                    .as_str()
                    .zip(oid.as_int())
                    .zip(n.as_int().zip(total.as_int()))
                    .map(|((name, oid), (n, total))| (name.to_string(), oid, n, total))
                    .ok_or_else(|| format!("unexpected cell types in {r:?}")),
                _ => Err(format!("expected 4 columns, got {}", r.len())),
            })
            .collect()
    }
}

impl<T: QA> SqlBundle<T> {
    /// Stitch and decode the per-statement answers client-side.
    pub fn stitch(&self, answers: Vec<Rows>, rec: Option<&mut Recorder>) -> Res<T> {
        let rels: Vec<Rel> = answers
            .into_iter()
            .map(|r| Rel::new(r.0.schema, r.0.rows))
            .collect();
        match rec {
            Some(rec) => stitch_staged(rels, &self.queries, rec),
            None => T::from_val(&stitch(&rels, &self.queries).map_err(err)?).map_err(err),
        }
    }
}

/// The in-process `ferry-server` on a loopback port, product-default
/// `ServerConfig`.
pub struct WireServer {
    handle: ServerHandle,
}

impl WireServer {
    pub fn bind(db: &Db) -> Res<WireServer> {
        let handle =
            Server::bind(db.conn.clone(), "127.0.0.1:0", ServerConfig::default()).map_err(err)?;
        Ok(WireServer { handle })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Drain, close, and join every server thread.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }

    pub fn config_echo() -> String {
        format!("{:?}", ServerConfig::default())
    }
}

/// A failed wire call; `refused` marks admission-control refusals
/// (`Busy` / `QueueFull` / `ShuttingDown`).
#[derive(Debug)]
pub struct WireError {
    pub refused: bool,
    pub message: String,
}

impl From<ClientError> for WireError {
    fn from(e: ClientError) -> WireError {
        let refused = matches!(
            &e,
            ClientError::Server {
                code: ErrorCode::Busy | ErrorCode::QueueFull | ErrorCode::ShuttingDown,
                ..
            }
        );
        WireError {
            refused,
            message: e.to_string(),
        }
    }
}

pub struct WireClient(Client);

impl WireClient {
    pub fn connect(addr: SocketAddr) -> Res<WireClient> {
        Client::connect(addr).map(WireClient).map_err(err)
    }

    pub fn prepare(&mut self, sql: &str) -> Result<u32, WireError> {
        Ok(self.0.prepare(sql)?.0)
    }

    pub fn execute(&mut self, stmt: u32, params: &[i64]) -> Result<Rows, WireError> {
        let params: Vec<Value> = params.iter().map(|p| Value::Int(*p)).collect();
        Ok(Rows(self.0.execute(stmt, &params)?))
    }

    pub fn close(self) {
        let _ = self.0.close();
    }
}

/// What one SQL statement costs in process, stage by stage — the
/// reference a wire round trip is split by. The plan is built the way the
/// server's session builds it: parse, bind, then the connection's
/// rewriter.
#[derive(Debug, Clone, Default)]
pub struct SqlReference {
    pub parse_bind_ns: u64,
    pub optimize_ns: u64,
    pub execute_ns: u64,
    pub opt: OptSummary,
}

pub fn sql_reference(db: &Db, sql: &str) -> Res<(SqlReference, Rows)> {
    let snap = db.conn.snapshot();
    let t = Instant::now();
    let stmt = ferry_sql::parser::parse(sql).map_err(err)?;
    let (plan, root) = ferry_sql::binder::bind(&snap, &stmt).map_err(err)?;
    let parse_bind_ns = elapsed_ns(t);
    let t = Instant::now();
    let (plan, roots, report) = ferry_optimizer::optimize_report(&plan, &[root]);
    let optimize_ns = elapsed_ns(t);
    let t = Instant::now();
    let rel = snap.execute(&plan, roots[0]).map_err(err)?;
    let execute_ns = elapsed_ns(t);
    let schema = ferry_algebra::validate(&plan, roots[0]).map_err(err)?;
    let rows = rel.rows().into_owned();
    Ok((
        SqlReference {
            parse_bind_ns,
            optimize_ns,
            execute_ns,
            opt: OptSummary::from(&report),
        },
        Rows(ferry_server::ResultSet { schema, rows }),
    ))
}

/// Encode → frame → unframe → decode one run's answers over an in-memory
/// buffer, in the server's own chunking. Returns `(ns, bytes on the
/// wire)`.
pub fn codec_roundtrip(answers: &[Rows]) -> Res<(u64, usize)> {
    let chunk = ServerConfig::default().chunk_rows.max(1);
    let t = Instant::now();
    let mut wire: Vec<u8> = Vec::new();
    let mut put = |resp: Response| {
        ferry_server::frame::write_wire_frame(&mut wire, &proto::encode_response(&resp))
            .map_err(err)
    };
    for a in answers {
        put(Response::ResultHeader {
            schema: a.0.schema.clone(),
        })?;
        for batch in a.0.rows.chunks(chunk) {
            put(Response::RowBatch {
                rows: batch.to_vec(),
            })?;
        }
        put(Response::ResultDone {
            rows: a.0.rows.len() as u64,
        })?;
    }
    let mut rest: &[u8] = &wire;
    let mut decoded = 0usize;
    while !rest.is_empty() {
        let payload = ferry_server::frame::read_wire_frame_blocking(&mut rest).map_err(err)?;
        if let Response::RowBatch { rows } = proto::decode_response(&payload).map_err(err)? {
            decoded += rows.len();
        }
    }
    let ns = elapsed_ns(t);
    let expected: usize = answers.iter().map(|a| a.0.rows.len()).sum();
    if decoded != expected {
        return Err(format!(
            "codec round trip carried {decoded} of {expected} rows"
        ));
    }
    Ok((ns, wire.len()))
}
