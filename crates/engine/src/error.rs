//! Engine error type.

use ferry_algebra::InferError;
use std::fmt;

/// Anything that can go wrong while executing a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The plan failed schema validation.
    Schema(InferError),
    /// A referenced base table does not exist in the catalog.
    NoSuchTable(String),
    /// A `TableRef` disagrees with the catalog (arity or column types).
    TableMismatch { table: String, detail: String },
    /// An operator references a column its input does not provide — a
    /// malformed plan that slipped past (or around) schema inference.
    NoSuchColumn { col: String, schema: String },
    /// A runtime evaluation error (division by zero, numeric overflow, …).
    Eval(String),
    /// The plan still holds statement parameter `slot` (0-based): a
    /// template dispatched without `Plan::bind_params`.
    UnboundParam(u32),
    /// The durability layer failed (WAL append, fsync, recovery). The
    /// in-memory catalog is unchanged when a mutation reports this —
    /// mutations log before they apply.
    Storage(ferry_storage::StorageError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Schema(e) => write!(f, "schema error: {e}"),
            EngineError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            EngineError::TableMismatch { table, detail } => {
                write!(f, "table {table} mismatch: {detail}")
            }
            EngineError::NoSuchColumn { col, schema } => {
                write!(f, "no such column {col} in schema {schema}")
            }
            EngineError::Eval(m) => write!(f, "evaluation error: {m}"),
            EngineError::UnboundParam(slot) => {
                write!(f, "parameter ${} was never bound", *slot as u64 + 1)
            }
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<InferError> for EngineError {
    fn from(e: InferError) -> Self {
        EngineError::Schema(e)
    }
}

impl From<ferry_storage::StorageError> for EngineError {
    fn from(e: ferry_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}
