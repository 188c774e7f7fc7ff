//! The six workloads. Each is the paper's own unit of work — a whole
//! program from `Q<T>` / statement handle to a decoded, verified host
//! value — arranged so that a different layer owns the time (see
//! README.md for the one-sentence reason behind each).
//!
//! A workload is set up on the main thread (data generation, load, open,
//! bind, connect, prepare, warm-up — all of it `setup_s`), then hands out
//! one [`ClientLoop`] per load-generating thread. A client runs the
//! program either *plain* (the product's one-call API, what a user pays)
//! or *staged* (one public function at a time, each in a span).

use crate::data::{self, Order, OrdersData};
use crate::digest::Digest;
use crate::measure::median_ns as median;
use crate::sut::{
    self, AdhocProgram, CompileStats, Db, OrdersReport, Res, SqlBundle, SqlGenStats, Stmt, Table1,
    WireClient, WireError, WireServer,
};
use crate::trace::{Layer, Recorder};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Name, client count and the reason a workload exists.
pub struct Spec {
    pub name: &'static str,
    pub clients: usize,
    pub sizes: &'static str,
    pub why: &'static str,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "table1.inproc",
        clients: 1,
        sizes: "3000 categories x 2 facilities, 12000 features; prepared, Connection::execute",
        why: "Table 1 running example in process: string join/group-by/nub, nested 2-query result; the engine owns the time",
    },
    Spec {
        name: "dotp.inproc",
        clients: 1,
        sizes: "n = 100000, nnz = 10000; prepared, Connection::execute",
        why: "Fig. 6 dotp in process: typed numeric kernels and the equi-join, scalar result, no stitching; engine again, other use",
    },
    Spec {
        name: "table1.wire",
        clients: 2,
        sizes: "table1.inproc's data as its 2-statement SQL bundle through ferry-server, 2 connections",
        why: "same engine work as table1.inproc over loopback: the difference is server codec, queue and the chunked row stream",
    },
    Spec {
        name: "lookup.wire",
        clients: 2,
        sizes: "20 customers / 100 orders / 400 items; one prepared join+aggregate, $1 $2 from the seed, 2 connections",
        why: "many small parameterised requests: every distinct value recompiles, so sql, plan cache and per-request server cost own the time",
    },
    Spec {
        name: "adhoc.cold",
        clients: 1,
        sizes: "34 distinct programs over Fig. 1 data, plan cache cleared before every from_q",
        why: "cold compilation of varied programs on <=30 rows: the only workload where loop-lifting and the optimizer own the time",
    },
    Spec {
        name: "orders.mixed",
        clients: 1,
        sizes: "durable, fsync Always; 500 customers / 2000 orders / 8000 items; commit 1 order + 4 items, then the 3-level report",
        why: "writes beside reads on one catalog: the only workload touching storage, MVCC publish and a 3-query bundle",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Why a run did not count.
#[derive(Debug)]
pub struct Failure {
    /// Refused by admission control (`Busy` / `QueueFull`).
    pub refused: bool,
    pub message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure {
            refused: false,
            message,
        }
    }
}

impl From<WireError> for Failure {
    fn from(e: WireError) -> Failure {
        Failure {
            refused: e.refused,
            message: e.message,
        }
    }
}

/// One complete run: the latency of the product calls (verification
/// excluded) and whether the decoded value was right.
pub struct RunResult {
    pub ns: u64,
    pub outcome: Result<(), Failure>,
}

fn timed<T>(f: impl FnOnce() -> Result<T, Failure>) -> (u64, Result<T, Failure>) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as u64, out)
}

fn staged<T>(
    rec: &mut Recorder,
    f: impl FnOnce(&mut Recorder) -> Result<T, Failure>,
) -> (u64, Result<T, Failure>) {
    let root = rec.begin_run();
    let t = Instant::now();
    let out = f(rec);
    let ns = t.elapsed().as_nanos() as u64;
    rec.exit(root);
    (ns, out)
}

fn verdict<T>(
    ns: u64,
    out: Result<T, Failure>,
    check: impl FnOnce(T) -> Result<(), String>,
) -> RunResult {
    RunResult {
        ns,
        outcome: out.and_then(|v| check(v).map_err(Failure::from)),
    }
}

fn expect_digest(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: result checksum {got:016x}, expected {want:016x}"
        ))
    }
}

/// One load-generating thread's view of a workload.
pub trait ClientLoop {
    fn run(&mut self) -> RunResult;
    fn run_staged(&mut self, rec: &mut Recorder) -> RunResult;
    /// May the measurement stop here? (`adhoc.cold` only stops after a
    /// whole pass over its pool, so every measurement sees the same mix.)
    fn at_boundary(&self) -> bool {
        true
    }
    /// Runs this client makes during set-up, before anything is timed, so
    /// that caches fill and lazy set-up finishes.
    fn warm_up_runs(&self) -> usize {
        3
    }
    /// Release what the client holds (close its connection).
    fn finish(self: Box<Self>) {}
}

/// Numbers a workload measures itself, outside the run loop (traced pass
/// only): what compilation cost at set-up, reference timings, codec cost.
#[derive(Debug, Default, Clone)]
pub struct Extras {
    pub compile: Option<CompileStats>,
    pub sqlgen: SqlGenStats,
    pub parse_bind_ns: u64,
    pub sql_opt: Option<sut::OptSummary>,
    pub sql_optimize_ns: u64,
    /// In-process execution of what one run executes, ns.
    pub engine_ref_ns: u64,
    pub codec_ns: u64,
    pub wire_bytes: usize,
    pub fixed_over_varying: f64,
    pub avalanche: Option<(f64, u64, u64)>,
    /// Bytes of user data one run commits.
    pub user_bytes_per_run: u64,
}

pub trait Workload: Sync {
    fn db(&self) -> &Db;
    /// Build one client inside the thread that will drive it.
    fn client(&self, idx: usize) -> Res<Box<dyn ClientLoop + '_>>;
    /// Check the set-up against an independent route (the reference
    /// interpreter at a tenth of the size, the in-process twin, …), where
    /// checking every run against one is not already all there is to do.
    fn oracle(&self) -> Res<()> {
        Ok(())
    }
    /// Reference measurements for the traced pass; may split the staged
    /// spans by them.
    fn references(&self, _recorders: &mut [Recorder], _extras: &mut Extras) -> Res<()> {
        Ok(())
    }
    /// Tear down; the place for end-of-run checks.
    fn finish(self: Box<Self>) -> Res<()> {
        Ok(())
    }
}

/// Set a workload up from nothing — data, load, open, bind, prepare,
/// then the warm-up runs of every client: the whole of `setup_s`.
pub fn setup(spec: &Spec, seed: u64) -> Res<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match spec.name {
        "table1.inproc" => Box::new(Table1Inproc::setup(seed)?),
        "dotp.inproc" => Box::new(DotpInproc::setup(seed)?),
        "table1.wire" => Box::new(Table1Wire::setup(seed)?),
        "lookup.wire" => Box::new(LookupWire::setup(seed)?),
        "adhoc.cold" => Box::new(AdhocCold::setup(seed)?),
        "orders.mixed" => Box::new(OrdersMixed::setup(seed)?),
        other => return Err(format!("unknown workload {other}")),
    };
    warm_up(w.as_ref(), spec.clients)?;
    Ok(w)
}

fn warm_up(w: &dyn Workload, clients: usize) -> Res<()> {
    for idx in 0..clients {
        let mut c = w.client(idx)?;
        let mut done = 0;
        while done < c.warm_up_runs() || !c.at_boundary() {
            if let Err(f) = c.run().outcome {
                return Err(format!("warm-up run failed: {}", f.message));
            }
            done += 1;
        }
        c.finish();
    }
    Ok(())
}

// -------------------------------------------------------- table1.inproc

const TABLE1_CATEGORIES: usize = 3000;
const TABLE1_FACS_PER_CAT: usize = 2;
/// Category count of the Table 1 headline comparison.
const AVALANCHE_CATEGORIES: usize = 300;

/// The interpreter check shared by both `table1.*` workloads: at a tenth
/// of the categories, the database route must equal `Connection::interpret`.
fn table1_tenth_scale_oracle(seed: u64) -> Res<()> {
    let small = Db::memory(&data::facilities(
        TABLE1_CATEGORIES / 10,
        TABLE1_FACS_PER_CAT,
        seed,
    ))?;
    let q = sut::table1_query();
    if q.run(&small)? != q.interpret(&small)? {
        return Err(
            "table1 at 1/10 scale: database result differs from the reference interpreter".into(),
        );
    }
    Ok(())
}

struct Table1Inproc {
    seed: u64,
    db: Db,
    stmt: Stmt<Table1>,
    /// Checksum of the first execution; every later run must repeat it.
    expected: u64,
}

impl Table1Inproc {
    fn setup(seed: u64) -> Res<Table1Inproc> {
        let db = Db::memory(&data::facilities(
            TABLE1_CATEGORIES,
            TABLE1_FACS_PER_CAT,
            seed,
        ))?;
        let stmt = sut::table1_query().prepare(&db)?;
        let expected = stmt.execute(&db)?.digest();
        Ok(Table1Inproc {
            seed,
            db,
            stmt,
            expected,
        })
    }
}

struct PreparedClient<'a, T> {
    db: &'a Db,
    stmt: &'a Stmt<T>,
    check: Box<dyn Fn(T) -> Result<(), String> + 'a>,
}

impl<T: ferry::QA> ClientLoop for PreparedClient<'_, T> {
    fn run(&mut self) -> RunResult {
        let (ns, out) = timed(|| Ok(self.stmt.execute(self.db)?));
        verdict(ns, out, &self.check)
    }

    fn run_staged(&mut self, rec: &mut Recorder) -> RunResult {
        let (ns, out) = staged(rec, |rec| Ok(self.stmt.execute_staged(self.db, rec)?));
        verdict(ns, out, &self.check)
    }
}

impl Workload for Table1Inproc {
    fn db(&self) -> &Db {
        &self.db
    }

    fn client(&self, _idx: usize) -> Res<Box<dyn ClientLoop + '_>> {
        let expected = self.expected;
        Ok(Box::new(PreparedClient {
            db: &self.db,
            stmt: &self.stmt,
            check: Box::new(move |v: Table1| expect_digest("table1.inproc", v.digest(), expected)),
        }))
    }

    fn oracle(&self) -> Res<()> {
        table1_tenth_scale_oracle(self.seed)
    }

    fn references(&self, _recorders: &mut [Recorder], extras: &mut Extras) -> Res<()> {
        extras.compile = Some(sut::table1_query().compile_stats(&self.db)?);
        let small = Db::memory(&data::facilities(
            AVALANCHE_CATEGORIES,
            TABLE1_FACS_PER_CAT,
            self.seed,
        ))?;
        extras.avalanche = Some(sut::avalanche_ratio(&small, 3)?);
        Ok(())
    }
}

// ---------------------------------------------------------- dotp.inproc

const DOTP_N: usize = 100_000;
const DOTP_NNZ: usize = 10_000;

struct DotpInproc {
    db: Db,
    stmt: Stmt<f64>,
    /// `dotp_scalar` over the same vectors.
    truth: f64,
}

fn close_enough(got: f64, truth: f64) -> Result<(), String> {
    if (got - truth).abs() <= 1e-9 * truth.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!("dotp: got {got}, dotp_scalar says {truth}"))
    }
}

impl DotpInproc {
    fn setup(seed: u64) -> Res<DotpInproc> {
        let (db, truth) = Db::dotp(DOTP_N, DOTP_NNZ, seed);
        let stmt = sut::dotp_query().prepare(&db)?;
        Ok(DotpInproc { db, stmt, truth })
    }
}

impl Workload for DotpInproc {
    fn db(&self) -> &Db {
        &self.db
    }

    fn client(&self, _idx: usize) -> Res<Box<dyn ClientLoop + '_>> {
        let truth = self.truth;
        Ok(Box::new(PreparedClient {
            db: &self.db,
            stmt: &self.stmt,
            check: Box::new(move |got: f64| close_enough(got, truth)),
        }))
    }

    fn references(&self, _recorders: &mut [Recorder], extras: &mut Extras) -> Res<()> {
        extras.compile = Some(sut::dotp_query().compile_stats(&self.db)?);
        Ok(())
    }
}

// ---------------------------------------------------------- table1.wire

/// Span names of the per-statement round trips of one wire run.
const ROUNDTRIP: [&str; 3] = ["roundtrip.q1", "roundtrip.q2", "roundtrip.q3"];
/// In-process repetitions behind each reference timing.
const REFERENCE_REPS: usize = 15;

/// What framing and coding one run's answers costs, outside the server:
/// `server.codec_us` and `server.wire_bytes_per_run`.
fn measure_codec(answers: &[sut::Rows], extras: &mut Extras) -> Res<()> {
    let mut ns = Vec::with_capacity(REFERENCE_REPS);
    for _ in 0..REFERENCE_REPS {
        let (took, bytes) = sut::codec_roundtrip(answers)?;
        ns.push(took);
        extras.wire_bytes = bytes;
    }
    extras.codec_ns = median(ns);
    Ok(())
}

struct Table1Wire {
    seed: u64,
    db: Db,
    server: Option<WireServer>,
    bundle: SqlBundle<Table1>,
    sqlgen: SqlGenStats,
    /// Checksum of the in-process execution of the same program on the
    /// same data: what `table1.inproc` computes.
    expected: u64,
}

impl Table1Wire {
    fn setup(seed: u64) -> Res<Table1Wire> {
        let db = Db::memory(&data::facilities(
            TABLE1_CATEGORIES,
            TABLE1_FACS_PER_CAT,
            seed,
        ))?;
        let q = sut::table1_query();
        let (bundle, sqlgen) = q.sql_bundle(&db)?;
        let expected = q.prepare(&db)?.execute(&db)?.digest();
        let server = WireServer::bind(&db)?;
        Ok(Table1Wire {
            seed,
            db,
            server: Some(server),
            bundle,
            sqlgen,
            expected,
        })
    }
}

struct BundleClient<'a> {
    wire: WireClient,
    stmts: Vec<u32>,
    bundle: &'a SqlBundle<Table1>,
    expected: u64,
}

impl ClientLoop for BundleClient<'_> {
    fn run(&mut self) -> RunResult {
        let (ns, out) = timed(|| {
            let mut answers = Vec::with_capacity(self.stmts.len());
            for &stmt in &self.stmts {
                answers.push(self.wire.execute(stmt, &[])?);
            }
            Ok(self.bundle.stitch(answers, None)?)
        });
        verdict(ns, out, |v| {
            expect_digest("table1.wire", v.digest(), self.expected)
        })
    }

    fn run_staged(&mut self, rec: &mut Recorder) -> RunResult {
        let (ns, out) = staged(rec, |rec| {
            let mut answers = Vec::with_capacity(self.stmts.len());
            for (i, &stmt) in self.stmts.iter().enumerate() {
                answers
                    .push(rec.stage(ROUNDTRIP[i], Layer::Server, || self.wire.execute(stmt, &[]))?);
            }
            Ok(self.bundle.stitch(answers, Some(rec))?)
        });
        verdict(ns, out, |v| {
            expect_digest("table1.wire", v.digest(), self.expected)
        })
    }

    fn finish(self: Box<Self>) {
        self.wire.close();
    }
}

impl Workload for Table1Wire {
    fn db(&self) -> &Db {
        &self.db
    }

    fn client(&self, _idx: usize) -> Res<Box<dyn ClientLoop + '_>> {
        let server = self.server.as_ref().ok_or("server already shut down")?;
        let mut wire = WireClient::connect(server.addr())?;
        let stmts = self
            .bundle
            .statements
            .iter()
            .map(|sql| wire.prepare(sql).map_err(|e| e.message))
            .collect::<Res<Vec<u32>>>()?;
        Ok(Box::new(BundleClient {
            wire,
            stmts,
            bundle: &self.bundle,
            expected: self.expected,
        }))
    }

    fn oracle(&self) -> Res<()> {
        // full scale: `expected` is the in-process twin's checksum, which
        // every wire run must reproduce; the interpreter vouches for the
        // program itself at a tenth of the size
        table1_tenth_scale_oracle(self.seed)
    }

    fn references(&self, recorders: &mut [Recorder], extras: &mut Extras) -> Res<()> {
        extras.compile = Some(sut::table1_query().compile_stats(&self.db)?);
        extras.sqlgen = self.sqlgen;
        let mut answers = Vec::new();
        for (i, sql) in self.bundle.statements.iter().enumerate() {
            let mut exec = Vec::new();
            let mut parse_bind = Vec::new();
            let mut last = None;
            for _ in 0..REFERENCE_REPS {
                let (r, rows) = sut::sql_reference(&self.db, sql)?;
                exec.push(r.execute_ns);
                parse_bind.push(r.parse_bind_ns);
                last = Some(rows);
            }
            let exec = median(exec);
            extras.engine_ref_ns += exec;
            extras.parse_bind_ns += median(parse_bind);
            answers.extend(last);
            // the statement text is fixed, so at run time the server serves
            // a plan-cache hit: only execution happens inside the round trip
            for rec in recorders.iter_mut() {
                rec.derive_children(ROUNDTRIP[i], &[("execute.ref", Layer::Engine, exec)]);
            }
        }
        measure_codec(&answers, extras)?;
        Ok(())
    }

    fn finish(mut self: Box<Self>) -> Res<()> {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        Ok(())
    }
}

// ---------------------------------------------------------- lookup.wire

const LOOKUP_CUSTOMERS: usize = 20;
const LOOKUP_ORDERS: usize = 100;

/// "Order lines of customer `$1` priced at least `$2`", per order.
const LOOKUP_SQL: &str =
    "SELECT c.name AS name, o.oid AS oid, COUNT (*) AS n, SUM (i.price) AS total \
     FROM customers AS c, orders AS o, items AS i \
     WHERE c.cid = $1 AND o.cid = c.cid AND i.oid = o.oid AND i.price >= $2 \
     GROUP BY c.name, o.oid ORDER BY oid ASC;";

/// The statement as the server's session sees it after splicing the
/// parameters in.
fn lookup_text(cid: i64, floor: i64) -> String {
    LOOKUP_SQL
        .replace("$1", &cid.to_string())
        .replace("$2", &floor.to_string())
}

struct LookupWire {
    seed: u64,
    db: Db,
    server: Option<WireServer>,
    data: OrdersData,
}

impl LookupWire {
    fn setup(seed: u64) -> Res<LookupWire> {
        let data = data::orders(LOOKUP_CUSTOMERS, LOOKUP_ORDERS, seed);
        let db = Db::memory(&data.tables())?;
        let server = WireServer::bind(&db)?;
        Ok(LookupWire {
            seed,
            db,
            server: Some(server),
            data,
        })
    }

    fn draw(rng: &mut StdRng) -> (i64, i64) {
        (
            rng.gen_range(0..LOOKUP_CUSTOMERS as i64),
            rng.gen_range(0..data::PRICE_RANGE),
        )
    }
}

struct LookupClient<'a> {
    wire: WireClient,
    stmt: u32,
    data: &'a OrdersData,
    rng: StdRng,
}

impl LookupClient<'_> {
    fn check(&self, rows: sut::Rows, cid: i64, floor: i64) -> Result<(), String> {
        let got = rows.lookup_rows()?;
        let want = self.data.lookup_expected(cid, floor);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "lookup({cid}, {floor}): got {got:?}, the data says {want:?}"
            ))
        }
    }
}

impl ClientLoop for LookupClient<'_> {
    fn run(&mut self) -> RunResult {
        let (cid, floor) = LookupWire::draw(&mut self.rng);
        let (ns, out) = timed(|| Ok(self.wire.execute(self.stmt, &[cid, floor])?));
        verdict(ns, out, |rows| self.check(rows, cid, floor))
    }

    fn run_staged(&mut self, rec: &mut Recorder) -> RunResult {
        let (cid, floor) = LookupWire::draw(&mut self.rng);
        let (ns, out) = staged(rec, |rec| {
            Ok(rec.stage(ROUNDTRIP[0], Layer::Server, || {
                self.wire.execute(self.stmt, &[cid, floor])
            })?)
        });
        verdict(ns, out, |rows| self.check(rows, cid, floor))
    }

    /// Two clients' worth of distinct parameter pairs overfill the
    /// product's 1024-entry plan cache, so measurement starts where a
    /// long-running server lives: every miss also evicts.
    fn warm_up_runs(&self) -> usize {
        600
    }

    fn finish(self: Box<Self>) {
        self.wire.close();
    }
}

impl Workload for LookupWire {
    fn db(&self) -> &Db {
        &self.db
    }

    fn client(&self, idx: usize) -> Res<Box<dyn ClientLoop + '_>> {
        let server = self.server.as_ref().ok_or("server already shut down")?;
        let mut wire = WireClient::connect(server.addr())?;
        let stmt = wire.prepare(LOOKUP_SQL).map_err(|e| e.message)?;
        Ok(Box::new(LookupClient {
            wire,
            stmt,
            data: &self.data,
            rng: data::rng(self.seed, 0x100C + idx as u64),
        }))
    }

    fn references(&self, recorders: &mut [Recorder], extras: &mut Extras) -> Res<()> {
        let mut rng = data::rng(self.seed, 0x4EF);
        let (mut parse_bind, mut optimize, mut exec) = (Vec::new(), Vec::new(), Vec::new());
        let mut sample = None;
        for _ in 0..200 {
            let (cid, floor) = LookupWire::draw(&mut rng);
            let (r, rows) = sut::sql_reference(&self.db, &lookup_text(cid, floor))?;
            parse_bind.push(r.parse_bind_ns);
            optimize.push(r.optimize_ns);
            exec.push(r.execute_ns);
            extras.sql_opt = Some(r.opt);
            sample = Some(rows);
        }
        extras.parse_bind_ns = median(parse_bind);
        extras.sql_optimize_ns = median(optimize);
        extras.engine_ref_ns = median(exec);
        extras.sqlgen.chars = LOOKUP_SQL.len();
        // every distinct parameter pair is a new statement text to the
        // server: parse, bind, optimize and execute all sit inside the
        // round trip
        for rec in recorders.iter_mut() {
            rec.derive_children(
                ROUNDTRIP[0],
                &[
                    ("parse_bind.ref", Layer::Sql, extras.parse_bind_ns),
                    ("optimize.ref", Layer::Optimizer, extras.sql_optimize_ns),
                    ("execute.ref", Layer::Engine, extras.engine_ref_ns),
                ],
            );
        }
        let answers: Vec<sut::Rows> = sample.into_iter().collect();
        measure_codec(&answers, extras)?;

        // the same statement with fixed parameters is a plan-cache hit;
        // the ratio is what real statement parameters would buy
        let server = self.server.as_ref().ok_or("server already shut down")?;
        let mut wire = WireClient::connect(server.addr())?;
        let stmt = wire.prepare(LOOKUP_SQL).map_err(|e| e.message)?;
        let mut time = |params: &mut dyn FnMut() -> (i64, i64)| -> Res<u64> {
            let mut ns = Vec::with_capacity(400);
            for _ in 0..400 {
                let (cid, floor) = params();
                let t = Instant::now();
                wire.execute(stmt, &[cid, floor]).map_err(|e| e.message)?;
                ns.push(t.elapsed().as_nanos() as u64);
            }
            Ok(median(ns))
        };
        let fixed = time(&mut || (3, 500))?;
        let varying = time(&mut || LookupWire::draw(&mut rng))?;
        wire.close();
        extras.fixed_over_varying = fixed as f64 / varying.max(1) as f64;
        Ok(())
    }

    fn finish(mut self: Box<Self>) -> Res<()> {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        Ok(())
    }
}

// ----------------------------------------------------------- adhoc.cold

struct AdhocCold {
    seed: u64,
    db: Db,
    /// Per pool member: the reference interpreter's checksum.
    oracle: Vec<u64>,
    /// Compile statistics the staged runs leave behind.
    compiled: Mutex<Vec<CompileStats>>,
}

impl AdhocCold {
    fn setup(seed: u64) -> Res<AdhocCold> {
        let db = sut::adhoc_database(&data::paper_orders())?;
        let oracle = sut::adhoc_pool()
            .iter()
            .map(|p| p.oracle(&db))
            .collect::<Res<Vec<u64>>>()?;
        Ok(AdhocCold {
            seed,
            db,
            oracle,
            compiled: Mutex::new(Vec::new()),
        })
    }
}

struct AdhocClient<'a> {
    db: &'a Db,
    pool: Vec<Box<dyn AdhocProgram>>,
    oracle: &'a [u64],
    rng: StdRng,
    /// The seeded order of the current pass over the pool.
    order: Vec<usize>,
    at: usize,
    /// Compile statistics of the staged runs, for the traced pass.
    compiled: &'a Mutex<Vec<CompileStats>>,
}

impl AdhocClient<'_> {
    fn next(&mut self) -> usize {
        if self.at == self.order.len() {
            self.order = data::shuffled(self.pool.len(), &mut self.rng);
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

impl ClientLoop for AdhocClient<'_> {
    fn run(&mut self) -> RunResult {
        let i = self.next();
        match self.pool[i].cold(self.db) {
            Ok((ns, digest)) => RunResult {
                ns,
                outcome: expect_digest(self.pool[i].name(), digest, self.oracle[i])
                    .map_err(Failure::from),
            },
            Err(e) => RunResult {
                ns: 0,
                outcome: Err(e.into()),
            },
        }
    }

    fn run_staged(&mut self, rec: &mut Recorder) -> RunResult {
        let i = self.next();
        match self.pool[i].cold_staged(self.db, rec) {
            Ok((ns, digest, stats)) => {
                if let Ok(mut all) = self.compiled.lock() {
                    all.push(stats);
                }
                RunResult {
                    ns,
                    outcome: expect_digest(self.pool[i].name(), digest, self.oracle[i])
                        .map_err(Failure::from),
                }
            }
            Err(e) => RunResult {
                ns: 0,
                outcome: Err(e.into()),
            },
        }
    }

    fn at_boundary(&self) -> bool {
        self.at == self.order.len()
    }
}

impl Workload for AdhocCold {
    fn db(&self) -> &Db {
        &self.db
    }

    fn client(&self, idx: usize) -> Res<Box<dyn ClientLoop + '_>> {
        Ok(Box::new(AdhocClient {
            db: &self.db,
            pool: sut::adhoc_pool(),
            oracle: &self.oracle,
            rng: data::rng(self.seed, 0xAD0C + idx as u64),
            order: Vec::new(),
            at: 0,
            compiled: &self.compiled,
        }))
    }

    fn oracle(&self) -> Res<()> {
        // the data is tiny, so the interpreter checks every member at
        // full scale: `self.oracle` holds its checksums
        let pool = sut::adhoc_pool();
        let distinct: std::collections::BTreeSet<&str> = pool.iter().map(|p| p.name()).collect();
        if distinct.len() != pool.len() || pool.len() < 32 {
            return Err("adhoc pool must hold at least 32 distinctly named programs".into());
        }
        Ok(())
    }

    fn references(&self, _recorders: &mut [Recorder], extras: &mut Extras) -> Res<()> {
        let all = self.compiled.lock().map_err(|e| e.to_string())?;
        if all.is_empty() {
            return Ok(());
        }
        let med = |f: &dyn Fn(&CompileStats) -> u64| median(all.iter().map(f).collect());
        let passes: Vec<&'static str> = all[0].opt.pass_ns.iter().map(|p| p.0).collect();
        extras.compile = Some(CompileStats {
            looplift_ns: med(&|s| s.looplift_ns),
            plan_nodes: med(&|s| s.plan_nodes as u64) as usize,
            rewrite_ns: med(&|s| s.rewrite_ns),
            opt: sut::OptSummary {
                nodes_in: med(&|s| s.opt.nodes_in as u64) as usize,
                nodes_out: med(&|s| s.opt.nodes_out as u64) as usize,
                rewrites: med(&|s| s.opt.rewrites),
                pass_ns: passes
                    .iter()
                    .map(|&name| {
                        (
                            name,
                            med(&|s| {
                                s.opt
                                    .pass_ns
                                    .iter()
                                    .find(|p| p.0 == name)
                                    .map_or(0, |p| p.1)
                            }),
                        )
                    })
                    .collect(),
            },
        });
        Ok(())
    }
}

// --------------------------------------------------------- orders.mixed

const MIXED_CUSTOMERS: usize = 500;
const MIXED_ORDERS: usize = 2000;

struct OrdersMixed {
    seed: u64,
    db: Option<Db>,
    dir: PathBuf,
    report: Stmt<OrdersReport>,
    /// Orders whose commit was acknowledged, in commit order.
    acked: Mutex<Vec<i64>>,
}

/// A fresh directory under `benchmark/out/tmp`.
fn scratch_dir() -> Res<PathBuf> {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = crate::report::out_dir()
        .join("tmp")
        .join(format!("orders-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

impl OrdersMixed {
    fn setup(seed: u64) -> Res<OrdersMixed> {
        let dir = scratch_dir()?;
        let db = Db::open_durable(&dir)?;
        db.load(&data::orders(MIXED_CUSTOMERS, MIXED_ORDERS, seed).tables())?;
        let report = sut::orders_report().prepare(&db)?;
        Ok(OrdersMixed {
            seed,
            db: Some(db),
            dir,
            report,
            acked: Mutex::new(Vec::new()),
        })
    }

    fn live(&self) -> &Db {
        self.db
            .as_ref()
            .expect("the database is only taken in finish")
    }
}

impl Drop for OrdersMixed {
    fn drop(&mut self) {
        self.db = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct MixedClient<'a> {
    w: &'a OrdersMixed,
    rng: StdRng,
}

impl MixedClient<'_> {
    fn next_order(&mut self) -> Order {
        // one writer: the acknowledged list is also the oid allocator
        let taken = self.w.acked.lock().map_or(0, |a| a.len());
        let oid = (MIXED_ORDERS + taken) as i64;
        let cid = self.rng.gen_range(0..MIXED_CUSTOMERS as i64);
        Order::generate(oid, cid, &mut self.rng)
    }

    fn ack(&self, oid: i64) {
        if let Ok(mut a) = self.w.acked.lock() {
            a.push(oid);
        }
    }

    /// Read-your-write: the report must list the order just committed,
    /// last under its customer, with exactly its items.
    fn check(report: OrdersReport, order: &Order) -> Result<(), String> {
        let (name, orders) = report
            .get(order.cid as usize)
            .ok_or_else(|| format!("report has no customer {}", order.cid))?;
        if *name != data::customer_name(order.cid) {
            return Err(format!("report row {} is {name}", order.cid));
        }
        match orders.last() {
            Some((oid, items)) if *oid == order.oid && *items == order.items => Ok(()),
            other => Err(format!(
                "order {} not read back after commit; last is {other:?}",
                order.oid
            )),
        }
    }
}

impl ClientLoop for MixedClient<'_> {
    fn run(&mut self) -> RunResult {
        let order = self.next_order();
        let (row, items) = (order.order_row(), order.item_rows());
        let db = self.w.live();
        let (ns, out) = timed(|| {
            db.commit_order(&row, &items)?;
            self.ack(order.oid);
            Ok(self.w.report.execute(db)?)
        });
        verdict(ns, out, |report| MixedClient::check(report, &order))
    }

    fn run_staged(&mut self, rec: &mut Recorder) -> RunResult {
        let order = self.next_order();
        let (row, items) = (order.order_row(), order.item_rows());
        let db = self.w.live();
        let (ns, out) = staged(rec, |rec| {
            rec.stage("commit", Layer::Storage, || db.commit_order(&row, &items))?;
            self.ack(order.oid);
            Ok(self.w.report.execute_staged(db, rec)?)
        });
        verdict(ns, out, |report| MixedClient::check(report, &order))
    }
}

impl Workload for OrdersMixed {
    fn db(&self) -> &Db {
        self.live()
    }

    fn client(&self, idx: usize) -> Res<Box<dyn ClientLoop + '_>> {
        Ok(Box::new(MixedClient {
            w: self,
            rng: data::rng(self.seed, 0x0D0D + idx as u64),
        }))
    }

    fn oracle(&self) -> Res<()> {
        let small =
            Db::memory(&data::orders(MIXED_CUSTOMERS / 10, MIXED_ORDERS / 10, self.seed).tables())?;
        let q = sut::orders_report();
        if q.run(&small)? != q.interpret(&small)? {
            return Err("orders report at 1/10 scale: database result differs from the reference interpreter".into());
        }
        Ok(())
    }

    fn references(&self, _recorders: &mut [Recorder], extras: &mut Extras) -> Res<()> {
        extras.compile = Some(sut::orders_report().compile_stats(self.live())?);
        let mut rng = data::rng(self.seed, 0);
        let probe = Order::generate(0, 0, &mut rng);
        let mut rows = probe.item_rows();
        rows.push(probe.order_row());
        extras.user_bytes_per_run = data::TableData::user_bytes(&rows);
        Ok(())
    }

    /// Close the database, reopen the directory, and find every
    /// acknowledged order with all its items.
    fn finish(mut self: Box<Self>) -> Res<()> {
        self.db = None;
        let acked = self.acked.lock().map_err(|e| e.to_string())?.clone();
        let reopened = Db::open_durable(&self.dir)?;
        let oids: std::collections::BTreeSet<i64> =
            reopened.int_column("orders", "oid")?.into_iter().collect();
        if let Some(lost) = acked.iter().find(|oid| !oids.contains(oid)) {
            return Err(format!(
                "acknowledged order {lost} is missing after reopening"
            ));
        }
        let items = reopened.int_column("items", "oid")?;
        let want = (MIXED_ORDERS + acked.len()) * data::ITEMS_PER_ORDER;
        if oids.len() != MIXED_ORDERS + acked.len() || items.len() != want {
            return Err(format!(
                "after reopening: {} orders / {} items, expected {} / {want}",
                oids.len(),
                items.len(),
                MIXED_ORDERS + acked.len()
            ));
        }
        Ok(())
    }
}
