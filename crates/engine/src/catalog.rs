//! The database: a catalog of base tables plus the query entry point.
//!
//! # Concurrency model (MVCC + group commit)
//!
//! The catalog is multi-versioned. Every committed transaction produces a
//! fresh immutable [`Catalog`] version behind an `Arc`; readers *pin* the
//! published version with one brief `RwLock` read ([`Database::snapshot`])
//! and then run entirely lock-free against it — a writer committing
//! mid-query can never tear a bundle, stall a scan, or be observed
//! half-applied. Writers serialise on a commit mutex, build their version
//! off to the side (copy-on-write per column: cloning the table map shares
//! every column `Arc`; the first insert into a table copies each of its
//! columns once), and commit by atomically installing the new version.
//!
//! Durability composes via **group commit**: a committing transaction
//! appends its commit (its GSN, the group sequence number, is the commit
//! frame's LSN) and then *enqueues* for durability instead of fsyncing
//! itself. Whichever waiter finds the fsync slot free becomes the leader,
//! runs one group fsync covering every commit appended so far (the log
//! mutex is released during the fsync, so more committers keep
//! enqueuing), then publishes the newest catalog version the fsync
//! covered and wakes all waiters whose GSNs are now durable. Acked ⇒
//! durable is the only contract — versions are *published to readers
//! only after* their GSN is synced — while N concurrent writers share one
//! fsync instead of paying N.
//!
//! A failed group fsync keeps the fsync-failure contract: the storage
//! layer truncates the un-synced tail and poisons its logs; here the
//! pending queue is cleared, every waiter gets the error (nothing they
//! were told failed can ever surface), and the commit head rolls back to
//! the published version so the catalog agrees with the log.

use crate::error::EngineError;
use crate::exec;
use crate::stats::{ProfileRing, QueryProfile, QueryStats};
use crate::sys::{self, DispatchCtx, SlowQueryRecord, SysTableDef, SLOW_RING_CAP};
use crate::vec_eval::VecMode;
use ferry_algebra::{infer_schema, NodeId, Plan, Rel, Row, Schema, Value};
use ferry_storage::{
    DurabilityConfig, RecoveryReport, StdFs, Storage, StorageError, TableDef, TableImage, Vfs,
    WalRecord,
};
use ferry_telemetry::{names, Counter, Gauge, Histogram, Registry, Telemetry, TelemetryConfig};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtOrd};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// A database-resident base table: schema, key columns (defining the
/// canonical order the `table` combinator exposes) and rows.
///
/// The rows are a dense [`Rel`] of the table's schema: one `Arc`-shared
/// typed column per schema column, so a `TableRef` scan shares the
/// catalog's columns with the query result instead of copying the table
/// (`Arc::make_mut` per column on insert preserves value semantics for
/// writers and for every snapshot holding the columns).
#[derive(Debug, Clone)]
pub struct BaseTable {
    pub schema: Schema,
    /// Names of key columns (must be part of the schema). The key orders
    /// the table: the Ferry front-end materialises `pos` by row-numbering
    /// over these columns.
    pub keys: Vec<String>,
    pub rows: Rel,
}

/// Incrementally-maintained size statistics of one base table, versioned
/// with the catalog (cloned per transaction like the table map — two
/// `u64`s per table, so versioning them is free). `ferry.tables` reads
/// these instead of walking columns per scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Approximate resident bytes of the table's rows
    /// ([`sys::row_bytes`] heuristic, summed at insert time).
    pub bytes: u64,
    /// Approximate bytes this table has contributed to the WAL over its
    /// lifetime (durable databases; 0 in-memory). `ferry.tables` reports
    /// this minus the mark taken at the last successful checkpoint.
    pub wal_bytes: u64,
}

/// One immutable version of the catalog. Published versions are never
/// mutated — writers clone the table map (sharing columns) and
/// install a successor with `epoch + 1`.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, BaseTable>,
    /// Per-table [`TableStats`], keyed like `tables` and maintained by
    /// the same transactions.
    stats: HashMap<String, TableStats>,
    /// Bumped by DDL only (`create_table`); row inserts leave it alone.
    /// Compiled plans are data-independent, so the runtime's plan cache
    /// keys on this to invalidate exactly when recompilation could
    /// change a bundle.
    schema_version: u64,
    /// Bumped by **every** committed transaction — the version number of
    /// this catalog. Exported as the `engine.epoch` gauge.
    epoch: u64,
}

impl Catalog {
    /// Storage images of every table, sorted by name so identical states
    /// write byte-identical snapshots regardless of `HashMap` order.
    fn images(&self) -> Vec<TableImage> {
        let mut images: Vec<TableImage> = self
            .tables
            .iter()
            .map(|(name, t)| TableImage {
                def: TableDef {
                    name: name.clone(),
                    schema: t.schema.clone(),
                    keys: t.keys.clone(),
                },
                rows: t.rows.rows().into_owned(),
            })
            .collect();
        images.sort_by(|a, b| a.def.name.cmp(&b.def.name));
        images
    }
}

/// Writer-side state guarded by the commit mutex: the newest committed
/// catalog version. Under group commit this can run *ahead* of the
/// published version while its GSN awaits the batch fsync.
#[derive(Debug)]
struct Committer {
    head: Arc<Catalog>,
}

/// Group-commit state: the durable watermark, the fsync-leader slot, and
/// the committed-but-unpublished versions awaiting their GSN.
#[derive(Debug, Default)]
struct GroupCommit {
    /// Highest GSN known durable (matches `Storage::durable_gsn`).
    durable_gsn: u64,
    /// Is a leader's fsync (or a checkpoint) in flight? At most one
    /// thread syncs at a time; everyone else waits on the condvar.
    syncing: bool,
    /// Set when a group fsync failed: the logs are poisoned, every pending
    /// commit was nacked, and all further durable commits fail until the
    /// database is reopened.
    poisoned: Option<String>,
    /// `(gsn, version)` of committed transactions not yet published,
    /// oldest first. Publishing pops every entry the fsync covered and
    /// installs the newest.
    pending: VecDeque<(u64, Arc<Catalog>)>,
}

/// The in-memory database acting as the coprocessor.
///
/// `execute` is the client/server boundary: each call is **one query**
/// dispatched to the database and counted in [`QueryStats`].
///
/// All methods take `&self` — share a `Database` behind a plain `Arc`.
/// Reads go through [`Database::snapshot`]; writes through
/// [`Database::transact`] (or the `create_table`/`insert` conveniences,
/// which are single-operation transactions). See the module docs for the
/// locking model. Lock order, for the auditor: `commit` ≺ `gc` ≺
/// `current`; none is ever held across a query, and only `gc` waiters
/// block on an fsync.
#[derive(Debug)]
pub struct Database {
    /// The published catalog version readers pin. Held only for the
    /// nanoseconds an `Arc` clone or store takes.
    current: RwLock<Arc<Catalog>>,
    /// Writer serialisation + the commit head.
    commit: Mutex<Committer>,
    /// Group-commit queue; `gc_cv` signals durability advances and
    /// leader-slot hand-offs.
    gc: Mutex<GroupCommit>,
    gc_cv: Condvar,
    /// Execution-path selection used by every dispatch.
    vec_mode: Mutex<VecMode>,
    /// The observability hub: config, metrics registry, trace ring.
    /// Per-instance (no process globals), so concurrent databases and
    /// tests never see each other's numbers.
    telemetry: Arc<Telemetry>,
    /// Cached counter handles into `telemetry`'s registry — the hot path
    /// bumps atomics without touching the registry lock.
    metrics: EngineMetrics,
    /// Per-node profiles of the most recent dispatches.
    profiles: Mutex<ProfileRing>,
    /// Dispatch id allocator (`QueryProfile::query_id`; monotone, 1-based).
    next_query_id: AtomicU64,
    /// The durability substrate, when this database was opened with
    /// [`Database::open`]. `None` = in-memory only (the default). Every
    /// transaction is appended to its log **before** being applied in
    /// memory (log-before-ack).
    storage: Option<Storage>,
    /// What recovery found and did, for databases opened durably.
    recovery: Option<RecoveryReport>,
    /// The most recent *auto*-checkpoint failure. Mutations do not surface
    /// these (see [`Database::maybe_checkpoint`]); callers that care poll
    /// here or watch the `storage.checkpoint_failures` counter.
    last_checkpoint_error: Mutex<Option<String>>,
    /// Bounded ring of captured slow dispatches, oldest first (see
    /// [`sys::SlowQueryRecord`]; scanned as `ferry.slow_queries`).
    slow: Mutex<VecDeque<SlowQueryRecord>>,
    /// Extrinsic system tables registered by upper layers (e.g. the
    /// runtime's `ferry.plan_cache`), keyed by full `ferry.*` name.
    sys_tables: Mutex<HashMap<String, SysTableDef>>,
    /// Per-table `wal_bytes` marks taken at the last successful
    /// checkpoint; `ferry.tables` reports WAL bytes *since* then.
    ckpt_marks: Mutex<HashMap<String, u64>>,
}

/// The engine's named metrics, resolved once per database. Counter names
/// are the public contract (`DESIGN.md` lists them); `Database::stats()`
/// reads these same handles back into a [`QueryStats`] view.
#[derive(Debug)]
struct EngineMetrics {
    queries: Arc<Counter>,
    rows_out: Arc<Counter>,
    nodes_evaluated: Arc<Counter>,
    rows_produced: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    vec_nodes: Arc<Counter>,
    kernel_batches: Arc<Counter>,
    sorts: Arc<Counter>,
    rows_sorted: Arc<Counter>,
    hash_builds: Arc<Counter>,
    rows_hashed: Arc<Counter>,
    rows_converted: Arc<Counter>,
    checkpoint_failures: Arc<Counter>,
    query_latency_ns: Arc<Histogram>,
    /// The published catalog epoch (gauge, monotone under one process).
    epoch: Arc<Gauge>,
    /// Transactions made durable per group-commit fsync (batch size).
    commit_batch: Arc<Histogram>,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> EngineMetrics {
        // these names are code-controlled, so a kind conflict cannot
        // happen from within the workspace; if a foreign registrant ever
        // claims one as a different kind, fall back to a detached handle
        // (the numbers are lost, the engine keeps running)
        let counter = |name: &str| registry.counter(name).unwrap_or_default();
        EngineMetrics {
            queries: counter(names::ENGINE_QUERIES),
            rows_out: counter(names::ENGINE_ROWS_OUT),
            nodes_evaluated: counter(names::ENGINE_NODES_EVALUATED),
            rows_produced: counter(names::ENGINE_ROWS_PRODUCED),
            cache_hits: counter(names::RUNTIME_CACHE_HITS),
            cache_misses: counter(names::RUNTIME_CACHE_MISSES),
            vec_nodes: counter(names::ENGINE_VEC_NODES),
            kernel_batches: counter(names::ENGINE_KERNEL_BATCHES),
            sorts: counter(names::ENGINE_SORTS),
            rows_sorted: counter(names::ENGINE_ROWS_SORTED),
            hash_builds: counter(names::ENGINE_HASH_BUILDS),
            rows_hashed: counter(names::ENGINE_ROWS_HASHED),
            rows_converted: counter(names::ENGINE_ROWS_CONVERTED),
            checkpoint_failures: counter(names::STORAGE_CHECKPOINT_FAILURES),
            query_latency_ns: registry
                .histogram(names::ENGINE_QUERY_LATENCY_NS)
                .unwrap_or_default(),
            epoch: registry.gauge(names::ENGINE_EPOCH).unwrap_or_default(),
            commit_batch: registry
                .histogram(names::STORAGE_COMMIT_BATCH_RECORDS)
                .unwrap_or_default(),
        }
    }
}

impl Default for Database {
    fn default() -> Database {
        Database::with_telemetry(Arc::new(Telemetry::default()))
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Build a database reporting into an existing telemetry hub (e.g.
    /// one shared with other databases of a process).
    pub fn with_telemetry(telemetry: Arc<Telemetry>) -> Database {
        let metrics = EngineMetrics::new(telemetry.registry());
        Database {
            current: RwLock::new(Arc::new(Catalog::default())),
            commit: Mutex::new(Committer {
                head: Arc::new(Catalog::default()),
            }),
            gc: Mutex::new(GroupCommit::default()),
            gc_cv: Condvar::new(),
            vec_mode: Mutex::new(VecMode::default()),
            telemetry,
            metrics,
            profiles: Mutex::new(ProfileRing::default()),
            next_query_id: AtomicU64::new(0),
            storage: None,
            recovery: None,
            last_checkpoint_error: Mutex::new(None),
            slow: Mutex::new(VecDeque::new()),
            sys_tables: Mutex::new(HashMap::new()),
            ckpt_marks: Mutex::new(HashMap::new()),
        }
    }

    /// Open (or create) a **durable** database rooted at `path`: recover
    /// the catalog from its snapshot + log, then log every subsequent
    /// mutation there before acknowledging it.
    pub fn open(path: impl AsRef<Path>, config: DurabilityConfig) -> Result<Database, EngineError> {
        let vfs: Arc<dyn Vfs> = Arc::new(StdFs::new(path.as_ref())?);
        Database::open_vfs(vfs, config)
    }

    /// [`Database::open`] over an explicit VFS — the entry point the
    /// fault-injection harness uses with a `ferry_storage::FaultFs`.
    pub fn open_vfs(vfs: Arc<dyn Vfs>, config: DurabilityConfig) -> Result<Database, EngineError> {
        let mut db = Database::new();
        let recovered = Storage::open(vfs, config, db.telemetry.registry())?;
        // recovered tables are installed directly (they were validated
        // when first logged); each install bumps `schema_version`, so
        // any plan cache keyed on a fresh database misses as it must
        let mut cat = Catalog::default();
        for img in recovered.tables {
            let bytes: u64 = img.rows.iter().map(sys::row_bytes).sum();
            cat.stats.insert(
                img.def.name.clone(),
                TableStats {
                    bytes,
                    wal_bytes: 0,
                },
            );
            cat.tables.insert(
                img.def.name,
                BaseTable {
                    rows: Rel::new(img.def.schema.clone(), img.rows),
                    schema: img.def.schema,
                    keys: img.def.keys,
                },
            );
            cat.schema_version += 1;
            cat.epoch += 1;
        }
        db.metrics.epoch.set(cat.epoch as i64);
        let cat = Arc::new(cat);
        db.current = RwLock::new(cat.clone());
        db.commit = Mutex::new(Committer { head: cat });
        db.gc = Mutex::new(GroupCommit {
            durable_gsn: recovered.storage.durable_gsn(),
            ..GroupCommit::default()
        });
        db.storage = Some(recovered.storage);
        db.recovery = Some(recovered.report);
        Ok(db)
    }

    // ------------------------------------------------------------ reads

    /// Pin the published catalog version: one `RwLock` read to clone an
    /// `Arc`, then every table lookup and query in this snapshot is
    /// lock-free and immune to concurrent commits. This is *the* read
    /// path — queries, compilation and bundle execution all see exactly
    /// one epoch.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot {
            db: self,
            cat: self.current.read().unwrap().clone(),
        }
    }

    /// The published catalog epoch (bumped by every committed
    /// transaction).
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap().epoch
    }

    /// The current schema version (see the [`Catalog`] field docs).
    pub fn schema_version(&self) -> u64 {
        self.current.read().unwrap().schema_version
    }

    /// A point-in-time copy of one table's catalog entry (schema and keys
    /// cloned, rows shared). Prefer [`Database::snapshot`] when reading
    /// more than one thing — each `table` call pins its own version.
    pub fn table(&self, name: &str) -> Option<BaseTable> {
        self.current.read().unwrap().tables.get(name).cloned()
    }

    /// Names of every table in the published version, unordered.
    pub fn table_names(&self) -> Vec<String> {
        self.current
            .read()
            .unwrap()
            .tables
            .keys()
            .cloned()
            .collect()
    }

    // ----------------------------------------------------------- writes

    /// Run `f` as one atomic transaction. The closure mutates a private
    /// working version forked off the commit head (read-your-own-writes
    /// within the transaction); if it succeeds and changed anything, the
    /// whole transaction is logged as **one commit** — one CRC-atomic
    /// frame, whose LSN is its GSN — and the new catalog version is
    /// installed for readers once its GSN is group-commit durable, before
    /// the call returns. An `Err` from the closure
    /// (or from logging) commits nothing: readers never saw the working
    /// version, and the head is unchanged.
    pub fn transact<T>(
        &self,
        f: impl FnOnce(&mut Tx) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut commit = self.commit.lock().unwrap();
        let head = commit.head.clone();
        let mut tx = Tx {
            work: Catalog {
                tables: head.tables.clone(),
                stats: head.stats.clone(),
                schema_version: head.schema_version,
                epoch: head.epoch + 1,
            },
            ddl: Vec::new(),
            rows: Vec::new(),
            durable: self.storage.is_some(),
            dirty: false,
        };
        let out = f(&mut tx)?;
        if !tx.dirty {
            return Ok(out); // read-only: nothing to log or install
        }
        if let Some(storage) = &self.storage {
            // log-before-ack: the log sees the transaction before memory
            let mut members = std::mem::take(&mut tx.ddl);
            members.append(&mut tx.rows);
            let gsn = storage.log_commit(&members)?;
            let version = Arc::new(tx.work);
            commit.head = version.clone();
            // enqueue for the batch fsync while still ordered by the
            // commit lock; publish happens when a leader covers us
            let mut gc = self.gc.lock().unwrap();
            if let Some(msg) = gc.poisoned.clone() {
                // a leader's fsync failed between our log_commit and this
                // enqueue: our commit sits in the truncated tail and the
                // pending queue was already cleared — fail the commit
                // rather than enqueue into a poisoned database. Restore
                // the head we forked from (the poisoning leader re-anchors
                // it on `current` once we release the commit lock anyway)
                drop(gc);
                commit.head = head;
                return Err(EngineError::Storage(StorageError::Io(msg)));
            }
            gc.pending.push_back((gsn, version));
            drop(gc);
            drop(commit);
            self.wait_durable(gsn)?;
        } else {
            let version = Arc::new(tx.work);
            commit.head = version.clone();
            self.install(version);
            drop(commit);
        }
        self.maybe_checkpoint();
        Ok(out)
    }

    /// Create (or replace) a base table — a single-operation
    /// [`Database::transact`].
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        keys: Vec<&str>,
    ) -> Result<(), EngineError> {
        let name = name.into();
        self.transact(|tx| tx.create_table(name, schema, keys))
    }

    /// Append rows to a base table (types are checked) — a
    /// single-operation [`Database::transact`].
    pub fn insert(&self, name: &str, rows: Vec<Row>) -> Result<(), EngineError> {
        self.transact(|tx| tx.insert(name, rows))
    }

    /// Publish `version` to readers and export its epoch.
    fn install(&self, version: Arc<Catalog>) {
        self.metrics.epoch.set(version.epoch as i64);
        *self.current.write().unwrap() = version;
    }

    // ----------------------------------------------- group-commit core

    /// Block until `gsn` is durable (or the logs are poisoned). The first
    /// waiter to find the fsync slot free becomes the **leader**: it runs
    /// one group fsync covering every appended commit — crucially
    /// *without* holding the log mutexes, so concurrent committers keep
    /// enqueuing —
    /// publishes the newest covered catalog version, records the batch
    /// size, and wakes everyone. Other waiters sleep on the condvar.
    fn wait_durable(&self, gsn: u64) -> Result<(), EngineError> {
        let storage = self.storage.as_ref().expect("durable commit path");
        let mut gc = self.gc.lock().unwrap();
        loop {
            if gc.durable_gsn >= gsn {
                // A leader's fsync can cover our GSN before our entry
                // reached the queue (transact enqueues after log_commit
                // returns, and the leader holds neither the logs nor the
                // commit lock while syncing). That leader could not see
                // our version, so drain everything the watermark covers
                // here — publish-before-ack must hold on this path too.
                let durable = gc.durable_gsn;
                self.publish_durable(&mut gc, durable);
                return Ok(());
            }
            if let Some(msg) = gc.poisoned.clone() {
                return Err(EngineError::Storage(StorageError::Io(msg)));
            }
            if gc.syncing {
                gc = self.gc_cv.wait(gc).unwrap();
                continue;
            }
            // leader election: claim the slot, sync without any lock
            gc.syncing = true;
            drop(gc);
            // group-commit window: let committers that just missed the
            // previous batch append before this fsync's target is
            // captured — without it, batches alternate full/size-1 and
            // the fsync sharing halves (the `commit_delay` of real DBs)
            std::thread::yield_now();
            let mut span = ferry_telemetry::span("wal.group_commit", "storage");
            match storage.group_sync() {
                Ok(synced) => {
                    let mut held = self.gc.lock().unwrap();
                    held.syncing = false;
                    let batch = held
                        .pending
                        .iter()
                        .take_while(|(g, _)| *g <= synced)
                        .count();
                    span.attr("synced_gsn", synced).attr("batch", batch);
                    self.publish_durable(&mut held, synced);
                    if batch > 0 {
                        self.metrics.commit_batch.record(batch as u64);
                    }
                    drop(held);
                    self.gc_cv.notify_all();
                    gc = self.gc.lock().unwrap();
                    // loop re-checks: our gsn is covered unless we raced
                    // a concurrent appender's newer target — then we wait
                    // or lead again
                }
                Err(e) => {
                    // the store truncated the nacked tail and poisoned
                    // itself. Fail every waiter first — *then* roll the
                    // head back; the gap is safe because any transact
                    // landing in it fails at log_commit on the poisoned
                    // store without touching the head.
                    {
                        let mut held = self.gc.lock().unwrap();
                        held.syncing = false;
                        held.pending.clear();
                        held.poisoned = Some(e.to_string());
                    }
                    self.gc_cv.notify_all();
                    let mut commit = self.commit.lock().unwrap();
                    commit.head = self.current.read().unwrap().clone();
                    drop(commit);
                    return Err(EngineError::Storage(e));
                }
            }
        }
    }

    /// Advance the durable watermark to `synced` and publish the newest
    /// pending version it covers. Caller holds the `gc` lock.
    fn publish_durable(&self, gc: &mut GroupCommit, synced: u64) {
        gc.durable_gsn = gc.durable_gsn.max(synced);
        let mut newest = None;
        while gc.pending.front().is_some_and(|(g, _)| *g <= synced) {
            newest = Some(gc.pending.pop_front().expect("front checked").1);
        }
        if let Some(v) = newest {
            self.install(v);
        }
    }

    // ------------------------------------------------------ durability

    /// Is this database backed by durable storage?
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// The recovery timeline of a durable database: snapshot loads, log
    /// replay, the epoch-consistent cut and any torn tails repaired.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Write a snapshot of the current catalog and compact the logs.
    /// No-op returning 0 for in-memory databases. Serialises with
    /// committers (commit lock) and with any in-flight group fsync
    /// (sync slot), so the snapshot provably covers every logged commit.
    /// Returns the GSN the snapshot covers.
    pub fn checkpoint(&self) -> Result<u64, EngineError> {
        let Some(storage) = &self.storage else {
            return Ok(0);
        };
        let mut commit = self.commit.lock().unwrap();
        // claim the fsync slot (waiting out an in-flight leader); holding
        // the commit lock, no new transaction can enqueue meanwhile
        let mut gc = self.gc.lock().unwrap();
        while gc.syncing {
            gc = self.gc_cv.wait(gc).unwrap();
        }
        if let Some(msg) = gc.poisoned.clone() {
            return Err(EngineError::Storage(StorageError::Io(msg)));
        }
        gc.syncing = true;
        drop(gc);
        let result = storage.checkpoint(&commit.head.images());
        let mut gc = self.gc.lock().unwrap();
        gc.syncing = false;
        let out = match result {
            Ok(gsn) => {
                self.publish_durable(&mut gc, gsn);
                // the snapshot covers every logged byte: re-mark each
                // table's WAL contribution so `ferry.tables` reports
                // bytes *since* this checkpoint
                let mut marks = self.ckpt_marks.lock().unwrap();
                for (name, st) in &commit.head.stats {
                    marks.insert(name.clone(), st.wal_bytes);
                }
                drop(marks);
                Ok(gsn)
            }
            Err(e) => {
                if storage.poisoned() {
                    // the group fsync or the log truncation failed: any
                    // nacked tail is truncated, the log poisoned — mirror that here and re-anchor the
                    // head on what readers (and the log) actually have
                    gc.pending.clear();
                    gc.poisoned = Some(e.to_string());
                    commit.head = self.current.read().unwrap().clone();
                } else {
                    // fsync succeeded, the snapshot write itself failed:
                    // everything synced is durable and publishable; the
                    // logs just keep growing until a later checkpoint
                    self.publish_durable(&mut gc, storage.durable_gsn());
                }
                Err(EngineError::Storage(e))
            }
        };
        drop(gc);
        drop(commit);
        self.gc_cv.notify_all();
        out
    }

    /// Run the auto-checkpoint if `checkpoint_every` says the log budget
    /// is spent. Called **after** the transaction committed, so the
    /// snapshot covers it. Failures are recorded, never returned: the
    /// mutation itself is already durable and applied, so an error from
    /// `insert`/`create_table` here would read as "mutation failed" and
    /// invite a double-applying retry. The logs keep growing and the next
    /// mutation retries the compaction.
    fn maybe_checkpoint(&self) {
        if self.storage.as_ref().is_some_and(Storage::checkpoint_due) {
            match self.checkpoint() {
                Ok(_) => *self.last_checkpoint_error.lock().unwrap() = None,
                Err(e) => {
                    self.metrics.checkpoint_failures.inc();
                    *self.last_checkpoint_error.lock().unwrap() = Some(e.to_string());
                }
            }
        }
    }

    /// The most recent auto-checkpoint failure, if any (cleared by the
    /// next successful one). See [`Database::maybe_checkpoint`] for why
    /// mutations swallow these.
    pub fn last_checkpoint_error(&self) -> Option<String> {
        self.last_checkpoint_error.lock().unwrap().clone()
    }

    // ----------------------------------------------------- observability

    /// This database's telemetry hub (registry, trace ring, config).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Set how much the telemetry layer records for subsequent dispatches.
    pub fn set_telemetry_config(&self, config: TelemetryConfig) {
        self.telemetry.set_config(config);
    }

    /// The id of the most recently dispatched query (0 before the first).
    pub fn last_query_id(&self) -> u64 {
        self.next_query_id.load(AtOrd::Relaxed)
    }

    /// The id of the most recent dispatch executed under telemetry trace
    /// `trace_id`, if its profile is still in the ring.
    pub fn query_id_for_trace(&self, trace_id: u64) -> Option<u64> {
        if trace_id == 0 {
            return None;
        }
        let profiles = self.profiles.lock().unwrap();
        let qid = profiles
            .iter()
            .rev()
            .find(|p| p.trace_id == trace_id)
            .map(|p| p.query_id);
        qid
    }

    /// The telemetry trace dispatch `query_id` ran under (0: untraced),
    /// if its profile is still in the ring.
    pub fn trace_id_for_query(&self, query_id: u64) -> Option<u64> {
        let profiles = self.profiles.lock().unwrap();
        let trace_id = profiles
            .iter()
            .rev()
            .find(|p| p.query_id == query_id)
            .map(|p| p.trace_id);
        trace_id
    }

    /// Per-node profiles of the most recent dispatches, oldest first —
    /// a clone of the profile ring (also the `ferry.queries` source).
    pub fn profiles(&self) -> Vec<QueryProfile> {
        self.profiles.lock().unwrap().iter().cloned().collect()
    }

    /// Set (or with `None`, disable) the slow-query threshold: dispatches
    /// whose wall time meets it are captured — plan pretty-print,
    /// optimizer report, per-node profile — into a bounded ring of
    /// [`SlowQueryRecord`]s, queryable as `ferry.slow_queries`. Capture
    /// is threshold-gated, not config-gated: it works at either
    /// telemetry level (crossing the threshold is the opt-in), though
    /// traces additionally need [`TelemetryConfig::Full`].
    pub fn set_slow_query_threshold(&self, t: Option<Duration>) {
        self.telemetry.set_slow_query_threshold(t);
    }

    /// The captured slow dispatches, oldest first (bounded ring of
    /// [`SLOW_RING_CAP`]).
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.slow.lock().unwrap().iter().cloned().collect()
    }

    /// The captured record of dispatch `query_id`, if still retained.
    pub fn slow_query(&self, query_id: u64) -> Option<SlowQueryRecord> {
        self.slow
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find(|r| r.profile.query_id == query_id)
            .cloned()
    }

    /// Drop every retained slow-query record.
    pub fn clear_slow_queries(&self) {
        self.slow.lock().unwrap().clear();
    }

    /// Register (or replace) an **extrinsic** system table: `name` must
    /// live under the reserved `ferry.` namespace, `provider` snapshots
    /// the live source into rows (typed per `schema`, key order) at every
    /// scan. The runtime registers `ferry.plan_cache` this way; intrinsic
    /// tables ([`sys::INTRINSIC`]) cannot be replaced.
    pub fn register_system_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        keys: Vec<String>,
        provider: Arc<dyn Fn() -> Vec<Row> + Send + Sync>,
    ) -> Result<(), EngineError> {
        let name = name.into();
        if !sys::is_system(&name) {
            return Err(EngineError::TableMismatch {
                table: name.clone(),
                detail: format!("system tables must live under `{}`", sys::SYS_PREFIX),
            });
        }
        if sys::schema_of(&name).is_some() {
            return Err(EngineError::TableMismatch {
                table: name.clone(),
                detail: "intrinsic system table cannot be replaced".into(),
            });
        }
        for k in &keys {
            if !schema.contains(k) {
                return Err(EngineError::TableMismatch {
                    table: name.clone(),
                    detail: format!("key column {k} not in schema {schema}"),
                });
            }
        }
        self.sys_tables.lock().unwrap().insert(
            name,
            SysTableDef {
                schema,
                keys,
                provider,
            },
        );
        Ok(())
    }

    /// Schema and key columns of system table `name` (intrinsic or
    /// registered), for compile-time resolution. Base tables shadow
    /// system tables — callers should consult the catalog first.
    pub fn system_table_info(&self, name: &str) -> Option<(Schema, Vec<String>)> {
        if let Some(info) = sys::schema_of(name) {
            return Some(info);
        }
        self.sys_tables
            .lock()
            .unwrap()
            .get(name)
            .map(|d| (d.schema.clone(), d.keys.clone()))
    }

    /// `ferry.storage` property rows (`name`, `value`), sorted by name.
    fn storage_props(&self, cat: &Catalog) -> Vec<Row> {
        let gc = self.gc.lock().unwrap();
        let (durable, synced, poisoned) = match &self.storage {
            Some(s) => (1, s.durable_gsn() as i64, s.poisoned() as i64),
            None => (0, 0, 0),
        };
        let pending = gc.pending.len() as i64;
        drop(gc);
        let props: [(&str, i64); 7] = [
            ("durable", durable),
            ("epoch", cat.epoch as i64),
            ("pending_commits", pending),
            ("poisoned", poisoned),
            ("schema_version", cat.schema_version as i64),
            ("synced_lsn", synced),
            ("tables", cat.tables.len() as i64),
        ];
        props
            .iter()
            .map(|(n, v)| vec![Value::str(*n), Value::Int(*v)])
            .collect()
    }

    /// Capture one over-threshold dispatch into the slow ring.
    fn record_slow(
        &self,
        plan: &Plan,
        roots: &[NodeId],
        profile: &QueryProfile,
        ctx: DispatchCtx<'_>,
        threshold_ns: u64,
    ) {
        let plan_text = roots
            .iter()
            .map(|&r| ferry_algebra::pretty::render(plan, r))
            .collect::<Vec<_>>()
            .join("\n");
        let rec = SlowQueryRecord {
            threshold: Duration::from_nanos(threshold_ns),
            plan: plan_text,
            opt_report: ctx.opt.map(|r| r.render()),
            profile: profile.clone(),
        };
        let mut ring = self.slow.lock().unwrap();
        if ring.len() >= SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Record a plan-cache outcome in this database's [`QueryStats`].
    /// The cache itself lives in the runtime (`ferry::Connection`); the
    /// counters live here so one `stats()` call tells the whole story of
    /// a workload (queries dispatched *and* compilations amortised).
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.metrics.cache_hits.inc();
        } else {
            self.metrics.cache_misses.inc();
        }
    }

    /// Set the execution path of subsequent dispatches: the production
    /// path (`VecMode::On`, the default) or the scalar oracle.
    pub fn set_vec_mode(&self, mode: VecMode) {
        *self.vec_mode.lock().unwrap() = mode;
    }

    pub fn vec_mode(&self) -> VecMode {
        *self.vec_mode.lock().unwrap()
    }

    /// [`Database::vec_mode`] under the name the end-to-end benchmark's
    /// configuration echo reads.
    pub fn par_config(&self) -> VecMode {
        self.vec_mode()
    }

    /// A point-in-time [`QueryStats`] view assembled from the telemetry
    /// registry and the profile ring.
    pub fn stats(&self) -> QueryStats {
        let m = &self.metrics;
        QueryStats {
            queries: m.queries.get(),
            rows_out: m.rows_out.get(),
            nodes_evaluated: m.nodes_evaluated.get(),
            rows_produced: m.rows_produced.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            vec_nodes: m.vec_nodes.get(),
            kernel_batches: m.kernel_batches.get(),
            sorts: m.sorts.get(),
            rows_sorted: m.rows_sorted.get(),
            hash_builds: m.hash_builds.get(),
            rows_hashed: m.rows_hashed.get(),
            rows_converted: m.rows_converted.get(),
            profiles: self.profiles.lock().unwrap().clone(),
        }
    }

    /// Zero every registry metric (latency histograms included) and drop
    /// the retained profiles. Traces in the telemetry ring are untouched.
    pub fn reset_stats(&self) {
        self.telemetry.registry().reset();
        self.profiles.lock().unwrap().clear();
    }

    // --------------------------------------------------------- dispatch

    /// Dispatch **one query** against a freshly pinned snapshot.
    pub fn execute(&self, plan: &Plan, root: NodeId) -> Result<Rel, EngineError> {
        self.snapshot().execute(plan, root)
    }

    /// Dispatch a bundle against a freshly pinned snapshot: every member
    /// sees the same catalog version. Pin a [`Database::snapshot`]
    /// yourself to span several calls with one version.
    pub fn execute_bundle(&self, plan: &Plan, roots: &[NodeId]) -> Result<Vec<Rel>, EngineError> {
        self.snapshot().execute_bundle(plan, roots)
    }
}

/// A pinned, immutable view of one catalog version. Cheap to create
/// (one `Arc` clone) and entirely lock-free to read: concurrent commits
/// install new versions without disturbing it. Everything executed
/// through one snapshot — every member of a bundle, every table lookup —
/// sees the same epoch.
#[derive(Debug, Clone)]
pub struct Snapshot<'db> {
    db: &'db Database,
    cat: Arc<Catalog>,
}

impl<'db> Snapshot<'db> {
    /// The database this snapshot was pinned from (for stats, telemetry
    /// and mutation APIs — none of which affect this snapshot).
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// This version's epoch (bumped by every committed transaction).
    pub fn epoch(&self) -> u64 {
        self.cat.epoch
    }

    /// This version's schema version (bumped by DDL only).
    pub fn schema_version(&self) -> u64 {
        self.cat.schema_version
    }

    pub fn table(&self, name: &str) -> Option<&BaseTable> {
        self.cat.tables.get(name)
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.cat.tables.keys().map(|s| s.as_str())
    }

    /// This version's [`TableStats`] for base table `name`.
    pub fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.cat.stats.get(name).copied()
    }

    /// Materialise system table `name` — a live snapshot of its source
    /// (metrics registry, profile ring, catalog, storage state, …) as a
    /// throwaway [`BaseTable`], or `None` if `name` is no system table.
    /// Catalog-resident state (`ferry.tables`) reads
    /// **this snapshot's** pinned version; telemetry-resident state reads
    /// the live hub (not transactional — see [`crate::sys`] docs). The
    /// executor calls this only after the pinned catalog missed, so base
    /// tables shadow system tables.
    pub fn system_table(&self, name: &str) -> Option<BaseTable> {
        let db = self.db;
        let rows = match name {
            "ferry.metrics" => sys::metrics_rows(db.telemetry.registry()),
            "ferry.histograms" => sys::histograms_rows(db.telemetry.registry()),
            "ferry.queries" => {
                let profiles = db.profiles.lock().unwrap();
                sys::queries_rows(profiles.iter())
            }
            "ferry.slow_queries" => {
                let mut slow = db.slow.lock().unwrap();
                sys::slow_rows(slow.make_contiguous(), &db.telemetry)
            }
            "ferry.storage" => db.storage_props(&self.cat),
            "ferry.tables" => {
                let marks = db.ckpt_marks.lock().unwrap();
                let mut names: Vec<&String> = self.cat.tables.keys().collect();
                names.sort_unstable();
                names
                    .into_iter()
                    .map(|n| {
                        let t = &self.cat.tables[n];
                        let st = self.cat.stats.get(n).copied().unwrap_or_default();
                        let since_ckpt = st
                            .wal_bytes
                            .saturating_sub(marks.get(n).copied().unwrap_or(0));
                        vec![
                            Value::Int(st.bytes as i64),
                            Value::str(n.clone()),
                            Value::Int(t.rows.len() as i64),
                            Value::Int(since_ckpt as i64),
                        ]
                    })
                    .collect()
            }
            _ => {
                let def = db.sys_tables.lock().unwrap().get(name).cloned()?;
                let rows = (def.provider)();
                return Some(BaseTable {
                    rows: Rel::new(def.schema.clone(), rows),
                    schema: def.schema,
                    keys: def.keys,
                });
            }
        };
        let (schema, keys) = sys::schema_of(name).expect("matched intrinsic name");
        Some(BaseTable {
            rows: Rel::new(schema.clone(), rows),
            schema,
            keys,
        })
    }

    /// The execution path dispatches through this snapshot use.
    pub fn vec_mode(&self) -> VecMode {
        self.db.vec_mode()
    }

    /// Dispatch **one query** — validate the plan, evaluate the DAG bottom-
    /// up (shared nodes once), return the root relation.
    pub fn execute(&self, plan: &Plan, root: NodeId) -> Result<Rel, EngineError> {
        Ok(self
            .execute_bundle(plan, &[root])?
            .pop()
            .expect("one root in, one relation out"))
    }

    /// Dispatch a bundle of queries and collect the results in order.
    ///
    /// The whole bundle is evaluated in **one pass** over the shared plan
    /// DAG: sub-plans common to several members run once. Accounting is
    /// unchanged from dispatching each member separately — every root
    /// still counts as one query, so the Table 1 avalanche numbers count
    /// the same client/server protocol.
    pub fn execute_bundle(&self, plan: &Plan, roots: &[NodeId]) -> Result<Vec<Rel>, EngineError> {
        self.execute_bundle_ctx(plan, roots, DispatchCtx::default())
    }

    /// [`Snapshot::execute_bundle`] with dispatch context: the runtime
    /// passes the compiled bundle's expression hash and optimizer report
    /// so slow-query capture and `ferry.queries` can attribute the
    /// dispatch to its source program.
    pub fn execute_bundle_ctx(
        &self,
        plan: &Plan,
        roots: &[NodeId],
        ctx: DispatchCtx<'_>,
    ) -> Result<Vec<Rel>, EngineError> {
        if roots.is_empty() {
            return Ok(Vec::new());
        }
        let db = self.db;
        let qid = db.next_query_id.fetch_add(1, AtOrd::Relaxed) + 1;
        let trace_id = ferry_telemetry::current_ctx().trace;
        let mut dispatch = ferry_telemetry::span("dispatch", "engine");
        dispatch
            .attr("query_id", qid)
            .attr("queries", roots.len())
            .attr("epoch", self.cat.epoch);
        let start_ns = ferry_telemetry::now_ns();
        let schemas = infer_schema(plan)?;
        let mut local = QueryStats::default();
        let mut prof = Vec::new();
        let results = exec::run_many(self, plan, roots, &schemas, &mut local, &mut prof)?;
        let elapsed_ns = ferry_telemetry::now_ns().saturating_sub(start_ns);
        drop(dispatch);
        let profile = QueryProfile {
            query_id: qid,
            trace_id,
            plan_hash: ctx.plan_hash,
            roots: roots.len() as u32,
            elapsed: Duration::from_nanos(elapsed_ns),
            nodes: prof,
        };
        // the slow-query log is threshold-gated, not config-gated: with
        // the threshold unset (the idle default) this is one relaxed load
        let threshold_ns = db.telemetry.slow_query_threshold_ns();
        if threshold_ns != 0 && elapsed_ns >= threshold_ns {
            db.record_slow(plan, roots, &profile, ctx, threshold_ns);
        }
        let m = &db.metrics;
        m.queries.add(roots.len() as u64);
        m.rows_out.add(results.iter().map(|r| r.len() as u64).sum());
        m.nodes_evaluated.add(local.nodes_evaluated);
        m.rows_produced.add(local.rows_produced);
        m.vec_nodes.add(local.vec_nodes);
        m.kernel_batches.add(local.kernel_batches);
        m.sorts.add(local.sorts);
        m.rows_sorted.add(local.rows_sorted);
        m.hash_builds.add(local.hash_builds);
        m.rows_hashed.add(local.rows_hashed);
        m.rows_converted.add(local.rows_converted);
        m.query_latency_ns.record(elapsed_ns);
        db.profiles.lock().unwrap().push(profile);
        Ok(results)
    }
}

/// The working state of one open transaction: a private catalog version
/// forked off the commit head, plus the records that will log it.
/// Handed to the closure of [`Database::transact`]; mutations validate
/// against — and are immediately visible in — the working version
/// (read-your-own-writes), but nothing escapes until commit.
#[derive(Debug)]
pub struct Tx {
    work: Catalog,
    /// DDL records, in transaction order (they ride in the commit frame).
    ddl: Vec<WalRecord>,
    /// The [`WalRecord::Rows`] appends of this transaction, one per
    /// insert. Every staged row follows its table's last DDL in this
    /// transaction, so the commit frame may carry all DDL first.
    rows: Vec<WalRecord>,
    /// Building log records costs a clone of inserted rows; in-memory
    /// databases skip it.
    durable: bool,
    dirty: bool,
}

/// Refuse rows that do not have `schema`'s shape (the storage layer's
/// [`ferry_storage::row_shape_error`], which recovery runs too).
fn check_rows(table: &str, schema: &Schema, rows: &[Row]) -> Result<(), EngineError> {
    match rows
        .iter()
        .find_map(|r| ferry_storage::row_shape_error(schema, r))
    {
        Some(detail) => Err(EngineError::TableMismatch {
            table: table.to_string(),
            detail,
        }),
        None => Ok(()),
    }
}

impl Tx {
    /// Create (or replace) a base table.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        keys: Vec<&str>,
    ) -> Result<(), EngineError> {
        let name = name.into();
        for k in &keys {
            if !schema.contains(k) {
                return Err(EngineError::TableMismatch {
                    table: name,
                    detail: format!("key column {k} not in schema {schema}"),
                });
            }
        }
        let keys: Vec<String> = keys.into_iter().map(String::from).collect();
        if self.durable {
            self.unstage(&name);
            self.ddl.push(WalRecord::CreateTable {
                name: name.clone(),
                schema: schema.clone(),
                keys: keys.clone(),
            });
        }
        // create-or-replace: size stats restart with the empty table
        self.work.stats.insert(name.clone(), TableStats::default());
        self.work.tables.insert(
            name,
            BaseTable {
                rows: Rel::empty(schema.clone()),
                schema,
                keys,
            },
        );
        self.work.schema_version += 1;
        self.dirty = true;
        Ok(())
    }

    /// Append rows to a base table (types are checked against the
    /// transaction's working version, so a `create_table` earlier in the
    /// same transaction is a valid target).
    pub fn insert(&mut self, name: &str, rows: Vec<Row>) -> Result<(), EngineError> {
        let table = self
            .work
            .tables
            .get(name)
            .ok_or_else(|| EngineError::NoSuchTable(name.to_string()))?;
        check_rows(name, &table.schema, &rows)?;
        self.bump_stats(name, rows.iter().map(sys::row_bytes).sum());
        let table = self.work.tables.get_mut(name).expect("validated above");
        // copy-on-write: the first insert into a table this transaction
        // copies each of its shared columns once; later inserts append in
        // place
        table.rows.append_rows(&rows);
        if self.durable && !rows.is_empty() {
            self.rows.push(WalRecord::Rows {
                table: name.to_string(),
                rows,
            });
        }
        self.dirty = true;
        Ok(())
    }

    /// Drop the rows this transaction staged for `name`: the DDL about to
    /// be logged replaces the table, so they belong to a table that no
    /// longer exists — and recovery applies a commit's DDL before its
    /// rows.
    fn unstage(&mut self, name: &str) {
        self.rows
            .retain(|r| !matches!(r, WalRecord::Rows { table, .. } if table == name));
    }

    /// Add `delta` bytes to `name`'s size stats (and its WAL share on a
    /// durable database).
    fn bump_stats(&mut self, name: &str, delta: u64) {
        let entry = self.work.stats.entry(name.to_string()).or_default();
        entry.bytes += delta;
        if self.durable {
            entry.wal_bytes += delta;
        }
    }

    /// Read a table as this transaction sees it (own writes included).
    pub fn table(&self, name: &str) -> Option<&BaseTable> {
        self.work.tables.get(name)
    }

    /// The schema version as this transaction sees it.
    pub fn schema_version(&self) -> u64 {
        self.work.schema_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferry_algebra::{Ty, Value};

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
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_lookup() {
        let db = db();
        let t = db.table("t").unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.keys, vec!["a"]);
        assert!(db.table("nope").is_none());
    }

    #[test]
    fn insert_type_checked() {
        let db = db();
        let bad = db.insert("t", vec![vec![Value::str("no"), Value::str("x")]]);
        assert!(matches!(bad, Err(EngineError::TableMismatch { .. })));
        let bad_width = db.insert("t", vec![vec![Value::Int(1)]]);
        assert!(bad_width.is_err());
        let no_table = db.insert("zzz", vec![]);
        assert!(matches!(no_table, Err(EngineError::NoSuchTable(_))));
    }

    #[test]
    fn key_must_be_in_schema() {
        let db = Database::new();
        let r = db.create_table("t", Schema::of(&[("a", Ty::Int)]), vec!["zzz"]);
        assert!(r.is_err());
    }

    #[test]
    fn execute_counts_queries() {
        let db = db();
        let mut plan = Plan::new();
        let l = plan.lit(Schema::of(&[("x", Ty::Int)]), vec![vec![Value::Int(5)]]);
        db.execute(&plan, l).unwrap();
        db.execute(&plan, l).unwrap();
        let stats = db.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.rows_out, 2);
        db.reset_stats();
        assert_eq!(db.stats().queries, 0);
    }

    #[test]
    fn snapshots_pin_a_version_and_commits_bump_the_epoch() {
        let db = db();
        let before = db.snapshot();
        assert_eq!(before.epoch(), 2); // create + insert
        db.insert("t", vec![vec![Value::Int(3), Value::str("z")]])
            .unwrap();
        // the pinned snapshot still sees the old version…
        assert_eq!(before.table("t").unwrap().rows.len(), 2);
        assert_eq!(before.epoch(), 2);
        // …while a fresh pin sees the commit
        let after = db.snapshot();
        assert_eq!(after.table("t").unwrap().rows.len(), 3);
        assert_eq!(after.epoch(), 3);
        assert_eq!(db.epoch(), 3);
        // inserts bump the epoch but not the schema version
        assert_eq!(before.schema_version(), after.schema_version());
    }

    #[test]
    fn transact_is_atomic_and_reads_its_own_writes() {
        let db = db();
        let epoch = db.epoch();
        db.transact(|tx| {
            tx.create_table("u", Schema::of(&[("k", Ty::Int)]), vec!["k"])?;
            // read-your-own-writes: the table created above is insertable
            tx.insert("u", vec![vec![Value::Int(1)]])?;
            assert_eq!(tx.table("u").unwrap().rows.len(), 1);
            tx.insert("t", vec![vec![Value::Int(9), Value::str("w")]])
        })
        .unwrap();
        // the whole transaction landed as ONE version bump
        assert_eq!(db.epoch(), epoch + 1);
        assert_eq!(db.table("u").unwrap().rows.len(), 1);
        assert_eq!(db.table("t").unwrap().rows.len(), 3);
    }

    #[test]
    fn failed_transact_commits_nothing() {
        let db = db();
        let epoch = db.epoch();
        let err = db.transact(|tx| {
            tx.insert("t", vec![vec![Value::Int(7), Value::str("q")]])?;
            tx.insert("t", vec![vec![Value::str("wrong type")]])
        });
        assert!(err.is_err());
        assert_eq!(db.epoch(), epoch, "no version installed");
        assert_eq!(db.table("t").unwrap().rows.len(), 2, "insert rolled back");
    }

    #[test]
    fn read_only_transact_installs_no_version() {
        let db = db();
        let epoch = db.epoch();
        let n = db
            .transact(|tx| Ok(tx.table("t").unwrap().rows.len()))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.epoch(), epoch);
    }
}
