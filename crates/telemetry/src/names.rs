//! The metric-names contract: every counter, gauge and histogram name
//! the workspace registers, as `const`s in one place.
//!
//! PR 8 declared the names a public contract (DESIGN.md lists them and
//! external scrapers key on them); this module enforces it. Crates
//! register handles through these constants instead of scattered string
//! literals, and [`ALL`] pins the full list in a golden test — adding,
//! renaming or retiring a metric is a deliberate, reviewed edit here,
//! never an accident in a call site.

/// Queries dispatched (one per `execute` / `execute_bundle` member).
pub const ENGINE_QUERIES: &str = "engine.queries";
/// Rows returned to the client across all queries.
pub const ENGINE_ROWS_OUT: &str = "engine.rows_out";
/// Operator (plan-node) evaluations.
pub const ENGINE_NODES_EVALUATED: &str = "engine.nodes_evaluated";
/// Rows produced by intermediate operators (a rough work metric).
pub const ENGINE_ROWS_PRODUCED: &str = "engine.rows_produced";
/// Plan-node evaluations that took the vectorized path.
pub const ENGINE_VEC_NODES: &str = "engine.vec_nodes";
/// Kernel batches executed by vectorized nodes.
pub const ENGINE_KERNEL_BATCHES: &str = "engine.kernel_batches";
/// Sorts executed by plan nodes (the work ledger, like the four below).
pub const ENGINE_SORTS: &str = "engine.sorts";
/// Rows ordered by those sorts.
pub const ENGINE_ROWS_SORTED: &str = "engine.rows_sorted";
/// Hash tables built over typed key codes.
pub const ENGINE_HASH_BUILDS: &str = "engine.hash_builds";
/// Rows inserted into those hash tables.
pub const ENGINE_ROWS_HASHED: &str = "engine.rows_hashed";
/// Rows converted between row and column form by plan nodes.
pub const ENGINE_ROWS_CONVERTED: &str = "engine.rows_converted";
/// Per-dispatch wall time (histogram, log₂ buckets).
pub const ENGINE_QUERY_LATENCY_NS: &str = "engine.query_latency_ns";
/// The published catalog epoch (gauge, monotone under one process).
pub const ENGINE_EPOCH: &str = "engine.epoch";

/// Plan-cache hits recorded by the runtime (`Connection::prepare`).
pub const RUNTIME_CACHE_HITS: &str = "runtime.cache_hits";
/// Plan-cache misses (full compilations).
pub const RUNTIME_CACHE_MISSES: &str = "runtime.cache_misses";

/// Connections the server accepted into a session.
pub const SERVER_ACCEPTS: &str = "server.accepts";
/// Live server sessions right now (gauge).
pub const SERVER_CONNECTIONS: &str = "server.connections";
/// Sessions waiting for a statement slot right now (gauge).
pub const SERVER_QUEUE_DEPTH: &str = "server.queue_depth";
/// Time a statement waited for a slot before it ran (histogram).
pub const SERVER_QUEUE_WAIT_NS: &str = "server.queue_wait_ns";
/// Admission-control refusals: connection limit (`Busy`), wait-line
/// limit (`QueueFull`) and shutdown-window (`ShuttingDown`) rejections.
pub const SERVER_REJECTS: &str = "server.rejects";
/// Wall time from request frame decoded to response frames written
/// (histogram).
pub const SERVER_REQUEST_LATENCY_NS: &str = "server.request_latency_ns";
/// Requests the server finished processing (any type, any outcome).
pub const SERVER_REQUESTS: &str = "server.requests";

/// Bytes appended to the write-ahead log.
pub const STORAGE_WAL_BYTES: &str = "storage.wal_bytes";
/// WAL fsync calls issued.
pub const STORAGE_FSYNCS: &str = "storage.fsyncs";
/// WAL records appended.
pub const STORAGE_WAL_RECORDS: &str = "storage.wal_records";
/// Snapshots (checkpoints) written.
pub const STORAGE_SNAPSHOTS: &str = "storage.snapshots";
/// Recovery runs performed at open.
pub const STORAGE_RECOVERIES: &str = "storage.recoveries";
/// Auto-checkpoint failures recorded by the engine.
pub const STORAGE_CHECKPOINT_FAILURES: &str = "storage.checkpoint_failures";
/// Transactions made durable per group-commit fsync (histogram).
pub const STORAGE_COMMIT_BATCH_RECORDS: &str = "storage.commit_batch_records";

/// Every metric name the workspace registers, sorted. The golden test
/// below pins this list; `Registry::render_prometheus` output for a
/// fully-registered database is stable because registration goes through
/// these constants only.
pub const ALL: &[&str] = &[
    ENGINE_EPOCH,
    ENGINE_HASH_BUILDS,
    ENGINE_KERNEL_BATCHES,
    ENGINE_NODES_EVALUATED,
    ENGINE_QUERIES,
    ENGINE_QUERY_LATENCY_NS,
    ENGINE_ROWS_CONVERTED,
    ENGINE_ROWS_HASHED,
    ENGINE_ROWS_OUT,
    ENGINE_ROWS_PRODUCED,
    ENGINE_ROWS_SORTED,
    ENGINE_SORTS,
    ENGINE_VEC_NODES,
    RUNTIME_CACHE_HITS,
    RUNTIME_CACHE_MISSES,
    SERVER_ACCEPTS,
    SERVER_CONNECTIONS,
    SERVER_QUEUE_DEPTH,
    SERVER_QUEUE_WAIT_NS,
    SERVER_REJECTS,
    SERVER_REQUEST_LATENCY_NS,
    SERVER_REQUESTS,
    STORAGE_CHECKPOINT_FAILURES,
    STORAGE_COMMIT_BATCH_RECORDS,
    STORAGE_FSYNCS,
    STORAGE_RECOVERIES,
    STORAGE_SNAPSHOTS,
    STORAGE_WAL_BYTES,
    STORAGE_WAL_RECORDS,
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden list: the full names contract, alphabetical. A failure
    /// here means a metric was added, renamed or removed — update BOTH
    /// this test and `ALL` (and DESIGN.md §7) deliberately.
    #[test]
    fn golden_metric_names() {
        let expected = [
            "engine.epoch",
            "engine.hash_builds",
            "engine.kernel_batches",
            "engine.nodes_evaluated",
            "engine.queries",
            "engine.query_latency_ns",
            "engine.rows_converted",
            "engine.rows_hashed",
            "engine.rows_out",
            "engine.rows_produced",
            "engine.rows_sorted",
            "engine.sorts",
            "engine.vec_nodes",
            "runtime.cache_hits",
            "runtime.cache_misses",
            "server.accepts",
            "server.connections",
            "server.queue_depth",
            "server.queue_wait_ns",
            "server.rejects",
            "server.request_latency_ns",
            "server.requests",
            "storage.checkpoint_failures",
            "storage.commit_batch_records",
            "storage.fsyncs",
            "storage.recoveries",
            "storage.snapshots",
            "storage.wal_bytes",
            "storage.wal_records",
        ];
        assert_eq!(ALL, &expected, "metric names contract changed");
    }

    #[test]
    fn all_is_sorted_and_unique() {
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ALL, &sorted[..], "ALL must be sorted and duplicate-free");
    }
}
