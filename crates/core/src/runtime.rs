//! The runtime: `Connection`, `Prepared` query handles, and `from_q`.
//!
//! `from_q`, "when provided with a connection parameter, executes its query
//! argument on the database and returns the result as a regular Haskell
//! value" (§2) — here, a regular Rust value. The full pipeline of Fig. 2
//! runs inside: compile (loop-lifting) → optional plan optimisation →
//! dispatch the bundle through the configured [`Backend`] (one engine
//! round-trip per member) → decode the result columns into the host
//! value.
//!
//! ## Prepared bundles and the plan cache
//!
//! A query's relational bundle is a *constant-size, data-independent
//! artefact* (avalanche safety, §3.2) — compiling it is pure overhead
//! once it exists. [`Connection::prepare`] therefore returns a
//! [`Prepared`] handle owning the optimized [`CompiledBundle`] plus its
//! stitching metadata; executing the handle skips compilation entirely.
//! Behind `prepare` sits a content-addressed plan cache keyed by the
//! [alpha-invariant hash](crate::exp::Exp::stable_hash) of the kernel
//! term and the catalog's schema version, so even plain `from_q` calls
//! amortise compilation across repeated queries. The cache is
//! capacity-bounded with least-recently-used eviction (default 1024
//! bundles, [`Connection::set_plan_cache_capacity`]) so workloads that
//! keep compiling distinct statements hold memory steady instead of
//! growing it without bound. Hit/miss counts are surfaced through
//! [`ferry_engine::QueryStats`].
//!
//! ## Concurrency
//!
//! The database is multi-versioned (see `ferry_engine::catalog`): a
//! `Connection` is cheaply cloneable, clones share the `Arc<Database>`,
//! the plan cache and the backend, and `from_q` / `execute` may run
//! concurrently from many threads. Every execution pins one catalog
//! [`Snapshot`](ferry_engine::Snapshot) — an immutable version all
//! members of the bundle see — and runs lock-free against it, so
//! readers never block writers and a commit landing mid-bundle can
//! never tear a result. Catalog mutations go through
//! [`Database::transact`] (or the `create_table` / `insert`
//! conveniences) on [`Connection::database`].

use crate::backend::{AlgebraBackend, Backend};
use crate::compile::{SchemaProvider, TableInfo};
use crate::decode::decode;
use crate::error::FerryError;
use crate::qa::{Q, QA};
use crate::shred::{compile_program, CompiledBundle, QueryDesc};
use crate::stitch::stitch;
use crate::types::Val;
use ferry_algebra::{NodeId, Plan, Rel};
use ferry_engine::{Database, TraceState};
use ferry_telemetry::{OptReport, QueryTrace, Telemetry, TelemetryConfig, TraceGuard};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// A plan rewriter slot (wired to `ferry_optimizer::rewriter` by callers;
/// kept abstract here so the core crate does not depend on the optimizer).
/// Returns the rewritten plan, the relocated roots, and — when the
/// rewriter accounts for its work — an [`OptReport`] that rides along in
/// the compiled bundle and is rendered by `explain`. Shared by every
/// clone of a `Connection`, hence `Arc`.
pub type PlanRewriter =
    Arc<dyn Fn(&Plan, &[NodeId]) -> (Plan, Vec<NodeId>, Option<OptReport>) + Send + Sync>;

/// Cache key: (alpha-invariant kernel-term hash, catalog schema version).
type PlanKey = (u64, u64);

/// One cached bundle plus its hit count (`ferry.plan_cache` surfaces
/// both; a hot entry with many hits is compilation well amortised).
struct CacheEntry {
    bundle: Arc<CompiledBundle>,
    hits: u64,
    /// The source text the content hash was computed from, when the
    /// frontend has one (the SQL path does, the DSL path keys on the
    /// alpha-invariant `Exp` hash and passes `None`). Verified on every
    /// hit so a 64-bit hash collision — accidental or crafted by a
    /// hostile client — can never hand back the wrong plan.
    source: Option<Arc<str>>,
    /// LRU clock value of the last hit or insert.
    last_used: u64,
}

/// Default ceiling on cached bundles; see [`PlanCache::capacity`].
const PLAN_CACHE_DEFAULT_CAPACITY: usize = 1024;

/// The content-addressed store of optimized bundles.
struct PlanCache {
    entries: HashMap<PlanKey, CacheEntry>,
    /// Entry ceiling: inserting beyond it evicts the least recently
    /// used bundle, so hostile or merely varied workloads (one plan per
    /// parameter set) bound memory instead of growing it forever.
    capacity: usize,
    /// Monotonic LRU clock, bumped on every hit and insert.
    tick: u64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache {
            entries: HashMap::new(),
            capacity: PLAN_CACHE_DEFAULT_CAPACITY,
            tick: 0,
        }
    }
}

impl PlanCache {
    /// Evict least-recently-used entries until at most `target` remain.
    /// O(n) per eviction — fine at cache sizes where n is the capacity
    /// bound.
    fn evict_to(&mut self, target: usize) {
        while self.entries.len() > target {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            else {
                return;
            };
            self.entries.remove(&oldest);
        }
    }

    /// `ferry.plan_cache` rows: one per cached bundle, in key order
    /// (exp_hash, schema_version). u64 hashes are exposed as their i64
    /// bit patterns — the same cast `ferry.queries.plan_hash` uses, so
    /// the two join.
    fn rows(&self) -> Vec<ferry_algebra::Row> {
        use ferry_algebra::Value;
        let mut rows: Vec<ferry_algebra::Row> = self
            .entries
            .iter()
            .map(|(&(hash, ver), e)| {
                vec![
                    Value::Int(hash as i64),
                    Value::Int(e.hits as i64),
                    Value::Int(e.bundle.plan_size() as i64),
                    Value::Int(e.bundle.queries.len() as i64),
                    Value::Int(ver as i64),
                ]
            })
            .collect();
        rows.sort_by_key(|r| match (&r[0], &r[4]) {
            (Value::Int(h), Value::Int(v)) => (*h, *v),
            _ => unreachable!("plan-cache rows are all-Int"),
        });
        rows
    }
}

/// Where the trace of a given dispatch is — the typed answer to "why did
/// [`Connection::trace_json_for`] return `None`?", which conflates three
/// very different situations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStatus {
    /// The dispatch ran traced and its trace is still in the telemetry
    /// ring: here is the Chrome trace-format JSON.
    Captured(String),
    /// The dispatch ran, but without tracing (telemetry level below
    /// `Full` and not `explain_analyze`) — there never was a trace.
    NotTraced,
    /// The dispatch ran traced, but its trace has aged out of the
    /// bounded trace ring.
    Evicted,
    /// No record of this query id anywhere — it never ran on this
    /// database, or is old enough to have left every retention window.
    UnknownQuery,
}

/// A compiled, optimized, executable-many-times query of result type `T`
/// — the prepared-statement analogue. The handle is `Send + Sync` and
/// independent of the `Connection` that produced it: share one across
/// threads via `Arc`, or hand clones of the (cheap) `Arc`'d bundle to a
/// pool of workers.
pub struct Prepared<T> {
    bundle: Arc<CompiledBundle>,
    _t: PhantomData<fn() -> T>,
}

// manual impl: cloning a prepared handle never requires `T: Clone`
impl<T> Clone for Prepared<T> {
    fn clone(&self) -> Prepared<T> {
        Prepared {
            bundle: self.bundle.clone(),
            _t: PhantomData,
        }
    }
}

impl<T> Prepared<T> {
    /// The compiled bundle: plan DAG, serialized roots, decode layouts.
    pub fn bundle(&self) -> &CompiledBundle {
        &self.bundle
    }
}

/// A connection to the database coprocessor.
pub struct Connection {
    db: Arc<Database>,
    rewriter: Option<PlanRewriter>,
    backend: Arc<dyn Backend>,
    cache: Arc<Mutex<PlanCache>>,
}

impl Clone for Connection {
    fn clone(&self) -> Connection {
        Connection {
            db: self.db.clone(),
            rewriter: self.rewriter.clone(),
            backend: self.backend.clone(),
            cache: self.cache.clone(),
        }
    }
}

impl Connection {
    pub fn new(db: Database) -> Connection {
        let cache = Arc::new(Mutex::new(PlanCache::default()));
        // The plan cache lives up here in the runtime, so `ferry.plan_cache`
        // is an *extrinsic* system table: we hand the engine a provider
        // that snapshots the cache at scan time. Columns alphabetical,
        // like every table the `table` combinator exposes.
        let for_scan = cache.clone();
        db.register_system_table(
            "ferry.plan_cache",
            ferry_algebra::Schema::of(&[
                ("exp_hash", ferry_algebra::Ty::Int),
                ("hits", ferry_algebra::Ty::Int),
                ("operators", ferry_algebra::Ty::Int),
                ("queries", ferry_algebra::Ty::Int),
                ("schema_version", ferry_algebra::Ty::Int),
            ]),
            vec!["exp_hash".into(), "schema_version".into()],
            Arc::new(move || for_scan.lock().unwrap().rows()),
        )
        .expect("ferry.plan_cache registration is well-formed");
        Connection {
            db: Arc::new(db),
            rewriter: None,
            backend: Arc::new(AlgebraBackend),
            cache,
        }
    }

    /// Open (or create) a **durable** database rooted at `path` and wrap
    /// it in a connection: the catalog is recovered from its snapshot +
    /// commit log, and every subsequent mutation through this connection
    /// is logged there before being acknowledged.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        config: ferry_engine::DurabilityConfig,
    ) -> Result<Connection, FerryError> {
        Ok(Connection::new(Database::open(path, config)?))
    }

    /// Snapshot the catalog and compact the logs. Returns the GSN the
    /// snapshot covers (0 for an in-memory database, where this is a
    /// no-op).
    pub fn checkpoint(&self) -> Result<u64, FerryError> {
        Ok(self.db.checkpoint()?)
    }

    /// Install a plan rewriter (e.g. `ferry_optimizer::rewriter()`)
    /// applied once, at prepare time, to every compiled bundle. Cached
    /// bundles are already rewritten — a cache hit skips the optimizer
    /// along with the compiler.
    pub fn with_optimizer(mut self, rewriter: PlanRewriter) -> Connection {
        self.rewriter = Some(rewriter);
        self
    }

    /// Select the execution backend (default: [`AlgebraBackend`]).
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Connection {
        self.backend = backend;
        self
    }

    /// The active backend.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// The shared database. All of its methods take `&self`: reads pin
    /// an MVCC snapshot, mutations commit through
    /// [`Database::transact`] — there is no guard to hold and nothing
    /// for one caller to block on. (The former `database_mut` write
    /// guard is gone with the lock it guarded.)
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Pin the current catalog version: every read and execution through
    /// the returned snapshot sees exactly this epoch, immune to
    /// concurrent commits. Shorthand for `self.database().snapshot()`.
    pub fn snapshot(&self) -> ferry_engine::Snapshot<'_> {
        self.db.snapshot()
    }

    /// Compile a query to its relational bundle (no execution, no cache)
    /// — the artefact whose size the avalanche-safety guarantee speaks
    /// about.
    pub fn compile<T: QA>(&self, q: &Q<T>) -> Result<CompiledBundle, FerryError> {
        self.compile_exp(q.exp())
    }

    fn compile_exp(&self, exp: &crate::exp::Exp) -> Result<CompiledBundle, FerryError> {
        let mut bundle = compile_program(exp, self)?;
        if let Some(rw) = &self.rewriter {
            let _s = ferry_telemetry::span("optimize", "optimize");
            let roots = bundle.roots();
            let (plan, new_roots, report) = rw(&bundle.plan, &roots);
            bundle.plan = plan;
            for (q, r) in bundle.queries.iter_mut().zip(new_roots) {
                q.root = r;
            }
            bundle.opt = report;
        }
        Ok(bundle)
    }

    /// Compile-or-fetch: returns the prepared handle for `q`, consulting
    /// the plan cache first. Two alpha-equivalent queries prepared
    /// against the same catalog schema share one compiled bundle, however
    /// and whenever they were built.
    pub fn prepare<T: QA>(&self, q: &Q<T>) -> Result<Prepared<T>, FerryError> {
        let telemetry = self.telemetry();
        let _trace = telemetry.begin_query(0);
        let bundle = self.prepare_raw(q.exp().stable_hash(), None, |conn| {
            conn.compile_exp(q.exp())
        })?;
        Ok(Prepared {
            bundle,
            _t: PhantomData,
        })
    }

    /// Compile-or-fetch by **content hash**: the cache machinery behind
    /// [`Connection::prepare`], exposed for frontends that compile to a
    /// [`CompiledBundle`] from something other than a `Q<T>` term — the
    /// SQL layer and `ferry-server` key on a hash of the statement text
    /// and pass that text as `source`. The entry shares
    /// `ferry.plan_cache` rows and hit/miss accounting with DSL-prepared
    /// bundles; `build` runs only on a miss (outside the cache lock),
    /// and a catalog schema change invalidates as usual because the key
    /// is `(content_hash, schema_version)`.
    ///
    /// `source` is the collision guard: a hit is only served when the
    /// stored source matches the caller's, so two statements whose texts
    /// collide under the 64-bit content hash (crafting such pairs
    /// offline is feasible for non-cryptographic hashes) each compile
    /// and run their own plan — the second never sees the first's. The
    /// colliding latecomer executes correctly but uncached; it does not
    /// evict the resident entry.
    pub fn prepare_raw(
        &self,
        content_hash: u64,
        source: Option<&str>,
        build: impl FnOnce(&Connection) -> Result<CompiledBundle, FerryError>,
    ) -> Result<Arc<CompiledBundle>, FerryError> {
        let mut span = ferry_telemetry::span("prepare", "runtime");
        // one pinned snapshot supplies the cache key's schema version
        // AND the hit/miss accounting: a DDL commit between the two can
        // no longer record a hit against one version and key the entry
        // under another
        let snap = self.db.snapshot();
        let key: PlanKey = (content_hash, snap.schema_version());
        let mut collided = false;
        {
            let mut cache = self.cache.lock().unwrap();
            let tick = {
                cache.tick += 1;
                cache.tick
            };
            if let Some(e) = cache.entries.get_mut(&key) {
                if e.source.as_deref() == source {
                    e.hits += 1;
                    e.last_used = tick;
                    let bundle = e.bundle.clone();
                    drop(cache);
                    self.db.record_cache(true);
                    span.attr("cache", "hit");
                    return Ok(bundle);
                }
                collided = true;
            }
        }
        // compile outside the cache lock: compilation can be slow and
        // other threads may be serving hits meanwhile
        let bundle = Arc::new(build(self)?);
        let mut cache = self.cache.lock().unwrap();
        // hygiene: a schema change strands entries under old versions
        cache.entries.retain(|(_, v), _| *v == key.1);
        let bundle = if collided {
            // hash collision: serve the fresh bundle without touching
            // the resident entry
            bundle
        } else {
            let tick = {
                cache.tick += 1;
                cache.tick
            };
            if !cache.entries.contains_key(&key) {
                let room = cache.capacity.max(1) - 1;
                cache.evict_to(room);
            }
            cache
                .entries
                .entry(key)
                .or_insert(CacheEntry {
                    bundle,
                    hits: 0,
                    source: source.map(Arc::from),
                    last_used: tick,
                })
                .bundle
                .clone()
        };
        drop(cache);
        self.db.record_cache(false);
        span.attr("cache", "miss")
            .attr("queries", bundle.queries.len());
        Ok(bundle)
    }

    /// Cap the plan cache at `capacity` bundles (least-recently-used
    /// eviction; minimum 1). The default is 1024 — bounded so workloads
    /// that compile many distinct statements or programs (a wire client
    /// may send any number of distinct SQL texts; a statement's varying
    /// parameters share its one entry) cannot grow server memory without
    /// limit.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        let mut cache = self.cache.lock().unwrap();
        cache.capacity = capacity.max(1);
        let cap = cache.capacity;
        cache.evict_to(cap);
    }

    /// The installed plan rewriter, if any — external frontends (e.g. the
    /// server's SQL path) apply it to their own plans so every statement
    /// gets the same optimisation treatment as a DSL query.
    pub fn plan_rewriter(&self) -> Option<&PlanRewriter> {
        self.rewriter.as_ref()
    }

    /// Number of bundles currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.cache.lock().unwrap().entries.len()
    }

    /// Drop every cached bundle.
    pub fn clear_plan_cache(&self) {
        self.cache.lock().unwrap().entries.clear();
    }

    /// Execute a prepared query and decode the result — the hot path:
    /// no compilation, no optimisation, just dispatch + decode straight
    /// from the result columns into `T` ([`crate::decode`]).
    pub fn execute<T: QA>(&self, prepared: &Prepared<T>) -> Result<T, FerryError> {
        self.execute_with(prepared, decode)
    }

    /// Like [`Connection::execute`] but stitching the untyped nested
    /// value instead (the oracle's route: `T::from_val` of it equals
    /// `execute`'s result, errors included).
    pub fn execute_val<T: QA>(&self, prepared: &Prepared<T>) -> Result<Val, FerryError> {
        self.execute_with(prepared, stitch)
    }

    /// Dispatch `prepared`'s bundle and hand its relations to `finish`
    /// inside the `stitch` span.
    fn execute_with<T: QA, R>(
        &self,
        prepared: &Prepared<T>,
        finish: impl FnOnce(&[Rel], &[QueryDesc]) -> Result<R, FerryError>,
    ) -> Result<R, FerryError> {
        let telemetry = self.telemetry();
        let mut trace = telemetry.begin_query(0);
        let rels = self.execute_bundle(prepared.bundle())?;
        self.stamp_query_id(&mut trace);
        let _s = ferry_telemetry::span("stitch", "runtime");
        finish(&rels, &prepared.bundle().queries)
    }

    /// Execute a compiled bundle through the configured backend and
    /// return the raw relations (one per bundle member).
    pub fn execute_bundle(&self, bundle: &CompiledBundle) -> Result<Vec<Rel>, FerryError> {
        self.backend.execute_bundle(&self.db.snapshot(), bundle)
    }

    /// Execute the query on the database and decode the result — `fromQ`.
    /// Equivalent to `prepare` + `execute`; repeated calls with the same
    /// query hit the plan cache.
    pub fn from_q<T: QA>(&self, q: &Q<T>) -> Result<T, FerryError> {
        self.prepare_then(q, Connection::execute)
    }

    /// Like [`Connection::from_q`] but stitching the untyped nested value
    /// instead (the oracle's route, as [`Connection::execute_val`]).
    pub fn from_q_val<T: QA>(&self, q: &Q<T>) -> Result<Val, FerryError> {
        self.prepare_then(q, Connection::execute_val)
    }

    /// Prepare `q` and run it with `execute`, under one trace.
    fn prepare_then<T: QA, R>(
        &self,
        q: &Q<T>,
        execute: impl FnOnce(&Connection, &Prepared<T>) -> Result<R, FerryError>,
    ) -> Result<R, FerryError> {
        let telemetry = self.telemetry();
        // one trace covers prepare (compile + optimize) and execution —
        // the inner begin_query calls join this ambient trace
        let mut trace = telemetry.begin_query(0);
        let prepared = self.prepare(q)?;
        let out = execute(self, &prepared)?;
        self.stamp_query_id(&mut trace);
        Ok(out)
    }

    /// Back-fill the engine-assigned query id onto an active trace guard:
    /// the id is allocated inside the dispatch, after the trace began.
    fn stamp_query_id(&self, trace: &mut TraceGuard) {
        if !trace.is_active() {
            return;
        }
        if let Some(qid) = self.database().query_id_for_trace(trace.trace_id()) {
            trace.set_query_id(qid);
        }
    }

    /// This connection's telemetry hub (shared with the database and all
    /// connection clones): config, metrics registry, recent traces.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.database().telemetry().clone()
    }

    /// Set the telemetry level for every subsequent operation on this
    /// connection's database ([`TelemetryConfig::Full`] records query
    /// traces; `Counters`, the default, keeps counters and profiles but
    /// records no spans).
    pub fn set_telemetry_config(&self, config: TelemetryConfig) {
        self.database().set_telemetry_config(config);
    }

    /// The most recently completed query trace as Chrome trace-format
    /// JSON (load in `chrome://tracing` / Perfetto). `None` until a query
    /// has run under [`TelemetryConfig::Full`] or `explain_analyze`.
    pub fn trace_json(&self) -> Option<String> {
        self.telemetry()
            .latest_trace()
            .as_ref()
            .map(ferry_telemetry::chrome_trace_json)
    }

    /// Chrome trace-format JSON for the (retained) trace of the given
    /// engine-assigned query id — see `Database::last_query_id`.
    ///
    /// `None` is **ambiguous** here: it means "no trace", without saying
    /// whether the id is unknown, the dispatch ran untraced, or the
    /// trace was captured and later evicted from the bounded ring. Use
    /// [`Connection::trace_status_for`] when the distinction matters.
    pub fn trace_json_for(&self, query_id: u64) -> Option<String> {
        self.telemetry()
            .trace_for_query(query_id)
            .as_ref()
            .map(ferry_telemetry::chrome_trace_json)
    }

    /// The typed disposition of dispatch `query_id`'s trace — the
    /// disambiguated [`Connection::trace_json_for`]. The retained
    /// profile ring and slow-query log are consulted to tell "ran
    /// untraced" ([`TraceStatus::NotTraced`]) from "trace aged out"
    /// ([`TraceStatus::Evicted`]) from "never heard of it"
    /// ([`TraceStatus::UnknownQuery`]).
    pub fn trace_status_for(&self, query_id: u64) -> TraceStatus {
        let trace_id = self
            .db
            .trace_id_for_query(query_id)
            .or_else(|| self.db.slow_query(query_id).map(|r| r.profile.trace_id));
        match TraceState::of(&self.telemetry(), query_id, trace_id) {
            TraceState::Captured(t) => {
                TraceStatus::Captured(ferry_telemetry::chrome_trace_json(&t))
            }
            TraceState::Evicted => TraceStatus::Evicted,
            TraceState::Off => TraceStatus::NotTraced,
            TraceState::Unknown => TraceStatus::UnknownQuery,
        }
    }

    /// Set (or with `None`, disable) the database's slow-query
    /// threshold: any dispatch at least this slow is captured — plan
    /// pretty-print, optimizer report, per-node profile — queryable as
    /// `ferry.slow_queries` and renderable via
    /// [`Connection::slow_query_report`]. Shorthand for
    /// `self.database().set_slow_query_threshold(t)`.
    pub fn set_slow_query_threshold(&self, t: Option<std::time::Duration>) {
        self.db.set_slow_query_threshold(t);
    }

    /// Human-readable post-mortem of a captured slow dispatch: timing
    /// against the threshold in force, the optimizer's report, every
    /// root's plan, the per-node profile, and the trace disposition.
    /// `None` when `query_id` is not (or no longer) in the slow-query
    /// ring.
    pub fn slow_query_report(&self, query_id: u64) -> Option<String> {
        use std::fmt::Write;
        let r = self.db.slow_query(query_id)?;
        let telemetry = self.telemetry();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slow query {}: {:?} (threshold {:?}), {} root{}",
            r.profile.query_id,
            r.profile.elapsed,
            r.threshold,
            r.profile.roots,
            if r.profile.roots == 1 { "" } else { "s" }
        );
        if r.profile.plan_hash != 0 {
            let _ = writeln!(
                out,
                "plan hash: {} (joins ferry.plan_cache)",
                r.profile.plan_hash
            );
        }
        if let Some(rep) = &r.opt_report {
            let _ = write!(out, "{rep}");
        }
        let _ = writeln!(out, "-- plan --");
        let _ = writeln!(out, "{}", r.plan.trim_end());
        let _ = writeln!(out, "-- profile --");
        for p in &r.profile.nodes {
            let _ = writeln!(
                out,
                "node {:>3}  {:<12} {:>9} rows  {:?}",
                p.node, p.label, p.rows, p.elapsed
            );
        }
        let _ = writeln!(out, "trace: {}", r.trace_state(&telemetry).label());
        Some(out)
    }

    /// The id of the most recent dispatch on this connection's database.
    pub fn last_query_id(&self) -> u64 {
        self.database().last_query_id()
    }

    /// Export the catalog as in-heap tables for the reference interpreter:
    /// rows in canonical key order, columns in alphabetical order —
    /// exactly the view `table "name"` denotes.
    pub fn interpreter_tables(&self) -> Result<crate::interp::Tables, FerryError> {
        // one snapshot: the exported tables are a consistent version
        let snap = self.db.snapshot();
        let mut out = HashMap::new();
        for name in snap.table_names() {
            let t = snap
                .table(name)
                .ok_or_else(|| FerryError::Table(format!("listed table {name} disappeared")))?;
            let cols = t.schema.cols();
            let mut alpha: Vec<usize> = (0..cols.len()).collect();
            alpha.sort_by(|&i, &j| cols[i].0.cmp(&cols[j].0));
            let key_idx: Vec<usize> = if t.keys.is_empty() {
                (0..cols.len()).collect()
            } else {
                t.keys
                    .iter()
                    .map(|k| {
                        t.schema.index_of(k).ok_or_else(|| {
                            FerryError::Table(format!(
                                "table {name}: key column {k} not in schema {}",
                                t.schema
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?
            };
            let mut rows = t.rows.rows().into_owned();
            rows.sort_by(|a, b| {
                key_idx
                    .iter()
                    .map(|&i| a[i].cmp(&b[i]))
                    .find(|o| !o.is_eq())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let vals: Vec<Val> = rows
                .iter()
                .map(|row| {
                    let cells: Vec<Val> = alpha
                        .iter()
                        .map(|&i| {
                            Val::from_cell(&row[i]).ok_or_else(|| {
                                FerryError::Table(format!(
                                    "table {name}: cell {} is not an atomic value",
                                    row[i]
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    Ok(if cells.len() == 1 {
                        cells.into_iter().next().unwrap()
                    } else {
                        Val::Tuple(cells)
                    })
                })
                .collect::<Result<_, FerryError>>()?;
            out.insert(name.to_string(), Val::List(vals));
        }
        Ok(out)
    }

    /// Run the query through the reference interpreter instead of the
    /// database (same table view) — the semantics `from_q` must reproduce.
    pub fn interpret<T: QA>(&self, q: &Q<T>) -> Result<T, FerryError> {
        let tables = self.interpreter_tables()?;
        let val = crate::interp::interpret(q.exp(), &tables)?;
        T::from_val(&val)
    }

    /// Human-readable account of what `from_q` would do: the kernel term,
    /// the bundle size, each member's (optimized) algebra plan, and —
    /// when the configured backend ships something other than the plan
    /// itself (e.g. `SqlBackend`) — the exact text it would send, e.g.
    /// the generated SQL:1999. No query is executed.
    pub fn explain<T: QA>(&self, q: &Q<T>) -> Result<String, FerryError> {
        use std::fmt::Write;
        let bundle = self.compile(q)?;
        let mut out = String::new();
        let _ = writeln!(out, "combinators: {}", q.exp());
        let _ = writeln!(out, "result type: {}", bundle.ty);
        let _ = writeln!(out, "backend: {}", self.backend.name());
        let _ = writeln!(
            out,
            "bundle: {} quer{} ({} operators)",
            bundle.queries.len(),
            if bundle.queries.len() == 1 {
                "y"
            } else {
                "ies"
            },
            bundle.plan_size()
        );
        if let Some(rep) = &bundle.opt {
            let _ = write!(out, "{}", rep.render());
        }
        let algebra = AlgebraBackend;
        let snap = self.db.snapshot();
        for (i, qd) in bundle.queries.iter().enumerate() {
            let _ = writeln!(out, "-- query {} --", i + 1);
            let _ = write!(
                out,
                "{}",
                algebra.render_root(&snap, &bundle.plan, qd.root)?
            );
            if self.backend.name() != algebra.name() {
                let _ = writeln!(out, "-- query {} ({}) --", i + 1, self.backend.name());
                let rendered = self.backend.render_root(&snap, &bundle.plan, qd.root)?;
                let _ = writeln!(out, "{}", rendered.trim_end());
            }
        }
        Ok(out)
    }

    /// [`explain`](Connection::explain) plus execution: run the bundle
    /// (under a forced telemetry trace, whatever the configured level)
    /// and render the engine's per-node profile — kernel batch count,
    /// wall time, output rows and the rows each operator sorted, hashed
    /// and converted — the dispatch's totals, and the compile → optimize
    /// → execute span timeline. The profiling analogue of SQL's
    /// `EXPLAIN ANALYZE`.
    pub fn explain_analyze<T: QA>(&self, q: &Q<T>) -> Result<String, FerryError> {
        use std::fmt::Write;
        let mut out = self.explain(q)?;
        let telemetry = self.telemetry();
        let mut trace = telemetry.begin_query_forced(0);
        // compile inside the trace so the timeline shows the frontend
        // stages too; the plan cache is deliberately bypassed
        let bundle = self.compile(q)?;
        let results = self.backend.execute_bundle(&self.db.snapshot(), &bundle)?;
        let stats = self.db.stats();
        self.stamp_query_id(&mut trace);
        let trace_id = trace.trace_id();
        drop(trace); // finish the trace so the timeline below can render it
        let _ = writeln!(
            out,
            "-- execution profile ({} rows out) --",
            results.iter().map(Rel::len).sum::<usize>()
        );
        // this dispatch's totals: the latest profile summed
        let mut total = ferry_engine::QueryStats::default();
        for p in stats.latest_profile().map_or(&[][..], |q| &q.nodes) {
            let _ = writeln!(
                out,
                "node {:>3}  {:<12} batches {:<4} {:>9} rows  {:?}  sorted {}  hashed {}  converted {}",
                p.node,
                p.label,
                p.batches,
                p.rows,
                p.elapsed,
                p.rows_sorted,
                p.rows_hashed,
                p.rows_converted
            );
            total.nodes_evaluated += 1;
            total.kernel_batches += u64::from(p.batches);
            total.sorts += u64::from(p.sorts);
            total.rows_sorted += p.rows_sorted;
            total.hash_builds += u64::from(p.hash_builds);
            total.rows_hashed += p.rows_hashed;
            total.rows_converted += p.rows_converted;
        }
        let _ = writeln!(
            out,
            "nodes: {}  kernel batches: {}  sorts: {} ({} rows)  hash builds: {} ({} rows)  rows converted: {}",
            total.nodes_evaluated,
            total.kernel_batches,
            total.sorts,
            total.rows_sorted,
            total.hash_builds,
            total.rows_hashed,
            total.rows_converted
        );
        let recorded = telemetry
            .traces()
            .into_iter()
            .rev()
            .find(|t| t.trace_id == trace_id);
        if let Some(t) = recorded {
            render_timeline(&mut out, &t);
        }
        Ok(out)
    }

    /// Configure the engine's execution path for every subsequent
    /// execution on this connection's database (shared by all clones).
    /// `VecMode::Off` pins the scalar oracle.
    pub fn set_vec_mode(&self, mode: ferry_engine::VecMode) {
        self.db.set_vec_mode(mode);
    }
}

/// Render a completed query trace as an indented span timeline:
/// offset-from-trace-start and duration per span, children nested under
/// their parents, attributes inline.
fn render_timeline(out: &mut String, trace: &QueryTrace) {
    use std::fmt::Write;
    let us = |ns: u64| ns as f64 / 1000.0;
    let _ = writeln!(
        out,
        "-- timeline (trace {}, query {}, {:.1}us) --",
        trace.trace_id,
        trace.query_id,
        us(trace.dur_ns)
    );
    let mut children: HashMap<u64, Vec<&ferry_telemetry::SpanRecord>> = HashMap::new();
    for s in &trace.spans {
        children.entry(s.parent).or_default().push(s);
    }
    // spans are sorted root-first then by start, so sibling order is
    // already chronological
    let mut stack: Vec<(&ferry_telemetry::SpanRecord, usize)> = children
        .get(&0)
        .map(|roots| roots.iter().rev().map(|s| (*s, 0)).collect())
        .unwrap_or_default();
    while let Some((s, depth)) = stack.pop() {
        let mut line = format!(
            "{:>9.1}us {:>9.1}us  {}{} [{}]",
            us(s.start_ns.saturating_sub(trace.start_ns)),
            us(s.dur_ns),
            "  ".repeat(depth),
            s.name,
            s.cat
        );
        for (k, v) in &s.attrs {
            let _ = write!(line, " {k}={v}");
        }
        let _ = writeln!(out, "{line}");
        if let Some(kids) = children.get(&s.id) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
}

impl SchemaProvider for Connection {
    fn table_info(&self, name: &str) -> Option<TableInfo> {
        // base tables shadow system tables, mirroring execution-time
        // resolution (`Snapshot::system_table` is only consulted on a
        // catalog miss)
        if let Some(t) = self.db.table(name) {
            return Some(TableInfo {
                cols: t
                    .schema
                    .cols()
                    .iter()
                    .map(|(n, ty)| (n.to_string(), *ty))
                    .collect(),
                keys: t.keys.clone(),
            });
        }
        let (schema, keys) = self.db.system_table_info(name)?;
        Some(TableInfo {
            cols: schema
                .cols()
                .iter()
                .map(|(n, ty)| (n.to_string(), *ty))
                .collect(),
            keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Connection` clones and `Prepared` handles cross thread
    /// boundaries; regressions here break the concurrent runtime.
    #[test]
    fn runtime_handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Connection>();
        assert_send_sync::<Prepared<Vec<(String, Vec<String>)>>>();
        assert_send_sync::<Arc<CompiledBundle>>();
    }
}
