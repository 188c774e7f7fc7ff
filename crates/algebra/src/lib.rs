//! # `ferry-algebra` — the table algebra
//!
//! The intermediate representation of the Ferry compiler: a small variant of
//! relational algebra ("table algebra") that has "been designed to reflect
//! the query capabilities of modern off-the-shelf relational database
//! engines" (Haskell Boards the Ferry, §3.2). Loop-lifted Ferry programs
//! compile into DAG-shaped plans over this algebra; the plans are then
//! either executed directly by `ferry-engine` or turned into SQL:1999 by
//! `ferry-sql`.
//!
//! The crate also hosts the shared relational *data model* — [`Value`],
//! [`Ty`], [`Schema`], [`Row`], [`Rel`] — used by every other crate in the
//! workspace.
//!
//! ## Plan representation
//!
//! A [`Plan`] is an arena of [`Node`]s indexed by [`NodeId`]. Sharing is
//! real: a node referenced by two parents is a genuine DAG edge, and the
//! engine evaluates every node at most once. Loop-lifting produces heavily
//! shared plans (the `loop` relation of an iteration context is referenced
//! by every lifted subexpression), so this matters.
//!
//! ## Column discipline
//!
//! Columns are identified by name. Every operator that combines two inputs
//! (joins, unions, differences) requires the obvious name discipline —
//! disjoint names for joins, identical schemas for unions — which is
//! enforced by [`infer::infer_schema`]. The Ferry compiler only ever
//! generates fresh column names, so the discipline is free there; hand-built
//! plans are validated before execution.

pub mod chunk;
pub mod expr;
pub mod infer;
pub mod plan;
pub mod pretty;
pub mod rel;
pub mod schema;
pub mod value;

pub use chunk::ColVec;
pub use expr::{AggFun, BinOp, Expr, ParamError, UnOp};
pub use infer::{infer_node, infer_schema, validate, InferError};
pub use plan::{Dir, JoinCols, Node, NodeId, Plan, SortSpec};
pub use rel::{rows_converted, NoSuchColumn, Rel, Row};
pub use schema::{ColName, Schema};
pub use value::{Ty, Value};
