//! # `ferry` — database-supported program execution
//!
//! A Rust implementation of **Ferry** (Grust, Mayr, Rittinger, Schreiber,
//! SIGMOD 2009), following the detailed description in *"Haskell Boards the
//! Ferry"* (Giorgidze, Grust, Schreiber, Weijers): data-intensive
//! list-processing program fragments are written against a typed, deeply
//! embedded DSL, compiled *in their entirety* into a constant-size bundle of
//! relational queries by **loop-lifting**, executed on a relational database
//! coprocessor, and their tabular results stitched back into ordinary
//! nested Rust values.
//!
//! ## The headline guarantee: avalanche safety
//!
//! The number of queries in the emitted bundle is determined **solely by the
//! static type** of the program's result — one query per list type
//! constructor — never by the size of the queried data. `Q<Vec<(String,
//! Vec<String>)>>` compiles to exactly two queries whether the database
//! holds ten rows or ten million.
//!
//! ## Quick tour
//!
//! ```
//! use ferry::prelude::*;
//!
//! // a database with one table
//! let mut db = ferry_engine::Database::new();
//! db.create_table("nums",
//!     ferry_algebra::Schema::of(&[("n", ferry_algebra::Ty::Int)]),
//!     vec!["n"]).unwrap();
//! db.insert("nums", vec![
//!     vec![ferry_algebra::Value::Int(3)],
//!     vec![ferry_algebra::Value::Int(1)],
//!     vec![ferry_algebra::Value::Int(2)],
//! ]).unwrap();
//! let conn = Connection::new(db);
//!
//! // a query: squares of the numbers below 3, in table (key) order
//! let q = map(|x: Q<i64>| x.clone() * x,
//!             filter(|x: Q<i64>| x.lt(&toq(&3i64)), table::<i64>("nums")));
//! let result: Vec<i64> = conn.from_q(&q).unwrap();
//! assert_eq!(result, vec![1, 4]);
//! ```
//!
//! Modules:
//! * [`types`]/[`exp`] — the kernel: DSL types, nested values, the typed AST,
//! * [`qa`] — the `QA`/`TA` traits and the phantom-typed [`Q<T>`](qa::Q),
//! * [`ops`] — the list-prelude combinators (`map`, `filter`, `group_with`, …),
//! * [`comp`](mod@comp) — the `comp!` comprehension macro (stand-in for `[qc| … |]`),
//! * [`interp`] — the reference interpreter (in-heap semantics; test oracle),
//! * [`compile`] — loop-lifting into table algebra,
//! * [`shred`] — query-bundle emission (avalanche safety lives here),
//! * [`decode`] — tabular results straight into the host type (`fromQ`),
//! * [`stitch`] — tabular results back to nested values (the oracle's route),
//! * [`backend`] — pluggable execution backends (algebra-direct here,
//!   the SQL:1999 round trip in `ferry-sql`),
//! * [`runtime`] — [`runtime::Connection`]: `from_q` end to end, plus
//!   [`runtime::Prepared`] handles and the plan cache,
//! * [`pipeline`] — stage-by-stage artefacts of Figure 2.

#![allow(clippy::type_complexity, clippy::items_after_test_module)]

pub mod backend;
pub mod comp;
pub mod compile;
pub mod decode;
pub mod error;
pub mod exp;
pub mod interp;
pub mod ops;
pub mod pipeline;
pub mod qa;
pub mod record;
pub mod runtime;
pub mod shred;
pub mod stitch;
pub mod types;

pub use backend::{AlgebraBackend, Backend};
pub use error::FerryError;
pub use ferry_engine::{
    DurabilityConfig, FsyncPolicy, NodeProfile, ProfileRing, QueryProfile, QueryStats,
    RecoveryReport, VecMode,
};
pub use ferry_telemetry::{
    chrome_trace_json, OptReport, PassStat, QueryTrace, Telemetry, TelemetryConfig,
};
pub use qa::{Q, QA, TA};
pub use runtime::{Connection, PlanRewriter, Prepared, TraceStatus};
pub use types::{Ty, Val};

/// Everything needed to write Ferry programs.
pub mod prelude {
    pub use crate::backend::{AlgebraBackend, Backend};
    pub use crate::comp;
    pub use crate::ops::*;
    pub use crate::qa::{toq, Q, QA, TA};
    pub use crate::runtime::{Connection, Prepared, TraceStatus};
    pub use crate::FerryError;
    pub use ferry_engine::{DurabilityConfig, FsyncPolicy};
    pub use ferry_telemetry::TelemetryConfig;
}
