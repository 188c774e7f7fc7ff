//! # `ferry-engine` — the database coprocessor substrate
//!
//! An in-memory relational query engine that executes [`ferry_algebra`]
//! plans. It plays the role of the off-the-shelf RDBMS of the paper
//! (PostgreSQL / MonetDB): a *bulk-oriented* evaluator whose primitives
//! "apply a single operation to all rows in a given table" (§3.2
//! *Operations*), which is exactly the execution model loop-lifting
//! targets.
//!
//! ## What is modelled
//!
//! * a catalog of named base tables with declared key columns (the
//!   `table` combinator references tables by name; the key defines the
//!   canonical row order used for the `pos` encoding),
//! * bulk-at-a-time physical operators for the entire table algebra,
//! * **query accounting** ([`QueryStats`]): every [`Database::execute`]
//!   call counts as one query dispatched to the coprocessor, with an
//!   optional fixed dispatch cost to model client/server round-trip and
//!   parse/plan overhead — this is what makes the avalanche of Table 1
//!   observable and measurable.

//! ## Execution strategies
//!
//! Two strategies: the bulk operators run **copy-free** where the algebra
//! allows it (scans, filters, projections and serialisation share their
//! input's `Arc`'d typed columns, under a selection vector), and a
//! dispatch evaluates its whole bundle in **one pass** over the plan DAG,
//! so sub-plans shared between members run once. A dispatch runs on the
//! thread that calls it; concurrency lives between queries (MVCC
//! snapshots, the server's sessions), not inside one.
//!
//! Row-wise operators run in **vectorized** form ([`vec_eval`]): a
//! `Select` or `Compute` walks its bound expression tree once per batch
//! of 1024 rows over typed registers gathered from the columns, at every
//! input size; a sub-expression sees only the rows that reach it. Every
//! plan node is one evaluation, with one entry in the per-dispatch
//! [`QueryProfile`]. The scalar row-at-a-time
//! interpreter is kept as the differential oracle only:
//! `Database::set_vec_mode(VecMode::Off)` selects it, and the profile
//! records the path.
//!
//! ## Observability
//!
//! Every database owns a `ferry-telemetry` hub
//! ([`Database::telemetry`]): aggregate counters and the query-latency
//! histogram live in its metrics registry ([`QueryStats`] is the view
//! `stats()` assembles from it), per-node profiles of the last 16
//! dispatches sit in a [`ProfileRing`], and — under
//! [`TelemetryConfig::Full`] — each dispatch and node evaluation records
//! a span into the active query trace.

pub mod catalog;
pub mod error;
pub mod eval;
pub mod exec;
pub mod stats;
pub mod sys;
pub mod vec_eval;

pub use catalog::{BaseTable, Database, Snapshot, TableStats, Tx};
pub use error::EngineError;
pub use ferry_storage::{DurabilityConfig, FsyncPolicy, RecoveryReport, StorageError};
pub use ferry_telemetry::{Telemetry, TelemetryConfig};
pub use stats::{NodeProfile, ProfileRing, QueryProfile, QueryStats, PROFILE_RING_CAP};
pub use sys::{DispatchCtx, SlowQueryRecord, SysTableDef, TraceState, SLOW_RING_CAP, SYS_PREFIX};
pub use vec_eval::VecMode;
