//! System tables: the database describing itself as relations.
//!
//! The paper's thesis — *database-supported program execution* — turned
//! inward: telemetry, catalog, storage and slow-query state are
//! exposed as ordinary tables under the reserved `ferry.` namespace, so
//! the standard `Q<T>` DSL (filters, group-bys, joins, `explain_analyze`)
//! is the observability query language. No second API surface.
//!
//! Snapshot semantics: a scan of a system table materialises the live
//! source (metrics registry, profile ring, …) **once per scan**, at the
//! moment the executor resolves the `TableRef`, against the catalog
//! version the query pinned. Telemetry reads are *not* transactional —
//! two scans in one bundle may observe different counter values — but
//! each scan is internally consistent (one registry walk, one ring
//! clone). Rows are emitted in key order, so identical state renders
//! identical relations.
//!
//! Base tables shadow system tables: the executor resolves a name in the
//! pinned catalog first and falls back here only on a miss. Creating a
//! base table named `ferry.*` is therefore possible but hides the system
//! view — don't.

use crate::stats::QueryProfile;
use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_telemetry::{Metric, QueryTrace, Registry, Telemetry};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The reserved system-table namespace.
pub const SYS_PREFIX: &str = "ferry.";

/// Slow-query records retained per database (oldest evicted first).
pub const SLOW_RING_CAP: usize = 32;

/// Is `name` inside the reserved system namespace?
pub fn is_system(name: &str) -> bool {
    name.starts_with(SYS_PREFIX)
}

/// The intrinsic system tables every database serves, sorted.
/// (`ferry.plan_cache` is *extrinsic*: the runtime registers it via
/// `Database::register_system_table` because the plan cache lives there.)
pub const INTRINSIC: &[&str] = &[
    "ferry.histograms",
    "ferry.metrics",
    "ferry.queries",
    "ferry.slow_queries",
    "ferry.storage",
    "ferry.tables",
];

/// Schema and key columns of an intrinsic system table. Columns are
/// declared **alphabetically** — the canonical order the `table`
/// combinator exposes, so the DSL tuple arity maps positionally exactly
/// like any base table.
pub fn schema_of(name: &str) -> Option<(Schema, Vec<String>)> {
    let (cols, keys): (&[(&str, Ty)], &[&str]) = match name {
        "ferry.metrics" => (
            &[("kind", Ty::Str), ("name", Ty::Str), ("value", Ty::Int)],
            &["name"],
        ),
        "ferry.histograms" => (
            &[
                ("count", Ty::Int),
                ("mean", Ty::Dbl),
                ("name", Ty::Str),
                ("p50", Ty::Int),
                ("p95", Ty::Int),
                ("p99", Ty::Int),
                ("sum", Ty::Int),
            ],
            &["name"],
        ),
        "ferry.queries" => (
            &[
                ("elapsed_us", Ty::Int),
                ("nodes", Ty::Int),
                ("plan_hash", Ty::Int),
                ("query_id", Ty::Int),
                ("roots", Ty::Int),
                ("trace_id", Ty::Int),
            ],
            &["query_id"],
        ),
        "ferry.tables" => (
            &[
                ("bytes", Ty::Int),
                ("name", Ty::Str),
                ("rows", Ty::Int),
                ("wal_bytes", Ty::Int),
            ],
            &["name"],
        ),
        "ferry.storage" => (&[("name", Ty::Str), ("value", Ty::Int)], &["name"]),
        "ferry.slow_queries" => (
            &[
                ("elapsed_us", Ty::Int),
                ("plan", Ty::Str),
                ("plan_hash", Ty::Int),
                ("query_id", Ty::Int),
                ("threshold_us", Ty::Int),
                ("trace", Ty::Str),
            ],
            &["query_id"],
        ),
        _ => return None,
    };
    Some((
        Schema::of(cols),
        keys.iter().map(|s| s.to_string()).collect(),
    ))
}

/// One captured slow dispatch: everything needed to diagnose it after
/// the fact without re-running — the plan pretty-print, the optimizer's
/// report, the per-node profile, and (when the dispatch ran traced) the
/// trace id to pull the span timeline from the telemetry ring. The
/// dispatch's id, trace id, plan hash, bundle size and wall time are its
/// `profile`'s.
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// The threshold in force when this record was captured.
    pub threshold: Duration,
    /// Pretty-printed plan of every root, in bundle order.
    pub plan: String,
    /// The optimizer's report, rendered (None below the runtime).
    pub opt_report: Option<String>,
    /// The dispatch's per-node profile (captured at either telemetry
    /// level — crossing the threshold is the opt-in).
    pub profile: QueryProfile,
}

impl SlowQueryRecord {
    /// Where this dispatch's trace is at this instant.
    pub fn trace_state(&self, telemetry: &Telemetry) -> TraceState {
        TraceState::of(
            telemetry,
            self.profile.query_id,
            Some(self.profile.trace_id),
        )
    }
}

/// Where a dispatch's trace is at this instant: the one decision behind
/// the `trace` column of `ferry.slow_queries` and the runtime's
/// `Connection::trace_status_for`.
#[derive(Debug, Clone)]
pub enum TraceState {
    /// The telemetry ring still holds the trace.
    Captured(QueryTrace),
    /// The dispatch ran traced, and its trace has aged out of the ring.
    Evicted,
    /// The dispatch ran untraced: there never was a trace.
    Off,
    /// Neither the trace ring nor a retained profile knows the dispatch.
    Unknown,
}

impl TraceState {
    /// The state of dispatch `query_id`'s trace: the ring first, then
    /// `trace_id`, what the dispatch's retained profile recorded (0 = ran
    /// untraced; `None` = no profile retained).
    pub fn of(telemetry: &Telemetry, query_id: u64, trace_id: Option<u64>) -> TraceState {
        match (telemetry.trace_for_query(query_id), trace_id) {
            (Some(trace), _) => TraceState::Captured(trace),
            (None, Some(0)) => TraceState::Off,
            (None, Some(_)) => TraceState::Evicted,
            (None, None) => TraceState::Unknown,
        }
    }

    /// The word `ferry.slow_queries` shows for this state.
    pub fn label(&self) -> &'static str {
        match self {
            TraceState::Captured(_) => "captured",
            TraceState::Evicted => "evicted",
            TraceState::Off => "off",
            TraceState::Unknown => "unknown",
        }
    }
}

/// Per-dispatch context the runtime threads through `execute_bundle_ctx`
/// so slow-query capture can attribute a dispatch to its source
/// expression and optimizer run. `Default` (hash 0, no report) is what
/// raw `execute` paths use.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchCtx<'a> {
    /// `Exp::stable_hash` of the source program (0 when unknown).
    pub plan_hash: u64,
    /// The optimizer report of the compiled bundle, if any.
    pub opt: Option<&'a ferry_telemetry::OptReport>,
}

/// An extrinsic system table registered by an upper layer
/// (`Database::register_system_table`): a schema plus a provider closure
/// snapshotting the live source into rows at scan time. The provider
/// must emit rows typed per `schema`, in key order.
#[derive(Clone)]
pub struct SysTableDef {
    pub schema: Schema,
    pub keys: Vec<String>,
    pub provider: Arc<dyn Fn() -> Vec<Row> + Send + Sync>,
}

impl fmt::Debug for SysTableDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SysTableDef")
            .field("schema", &self.schema)
            .field("keys", &self.keys)
            .finish_non_exhaustive()
    }
}

/// `ferry.metrics` rows: one per counter/gauge, in registry (name) order.
pub(crate) fn metrics_rows(reg: &Registry) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, m) in reg.metrics() {
        let (kind, value) = match m {
            Metric::Counter(c) => ("counter", c.get() as i64),
            Metric::Gauge(g) => ("gauge", g.get()),
            Metric::Histogram(_) => continue,
        };
        rows.push(vec![Value::str(kind), Value::str(name), Value::Int(value)]);
    }
    rows
}

/// `ferry.histograms` rows: one per histogram, each a single consistent
/// snapshot (count = Σ buckets by construction).
pub(crate) fn histograms_rows(reg: &Registry) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, m) in reg.metrics() {
        let Metric::Histogram(h) = m else { continue };
        let s = h.snapshot();
        rows.push(vec![
            Value::Int(s.count as i64),
            Value::Dbl(s.mean()),
            Value::str(name),
            Value::Int(s.p50() as i64),
            Value::Int(s.p95() as i64),
            Value::Int(s.p99() as i64),
            Value::Int(s.sum as i64),
        ]);
    }
    rows
}

/// `ferry.queries` rows from the profile ring, oldest first (query-id
/// order — the ring is recency-ordered already).
pub(crate) fn queries_rows<'a>(profiles: impl Iterator<Item = &'a QueryProfile>) -> Vec<Row> {
    profiles
        .map(|p| {
            vec![
                Value::Int(p.elapsed.as_micros() as i64),
                Value::Int(p.nodes.len() as i64),
                Value::Int(p.plan_hash as i64),
                Value::Int(p.query_id as i64),
                Value::Int(p.roots as i64),
                Value::Int(p.trace_id as i64),
            ]
        })
        .collect()
}

/// `ferry.slow_queries` rows, oldest first. The `trace` column is the
/// disposition *now* (a trace can age out of the ring after capture).
pub(crate) fn slow_rows(records: &[SlowQueryRecord], telemetry: &Telemetry) -> Vec<Row> {
    records
        .iter()
        .map(|r| {
            vec![
                Value::Int(r.profile.elapsed.as_micros() as i64),
                Value::str(r.plan.clone()),
                Value::Int(r.profile.plan_hash as i64),
                Value::Int(r.profile.query_id as i64),
                Value::Int(r.threshold.as_micros() as i64),
                Value::str(r.trace_state(telemetry).label()),
            ]
        })
        .collect()
}

/// Approximate in-memory footprint of one row, used for the
/// incrementally-maintained `ferry.tables` byte counts: fixed cells cost
/// their machine width, strings their length plus header.
pub(crate) fn row_bytes(row: &Row) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Unit => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Dbl(_) | Value::Nat(_) => 8,
            Value::Str(s) => 8 + s.len() as u64,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_tables_all_have_schemas() {
        for name in INTRINSIC {
            let (schema, keys) = schema_of(name).expect("intrinsic schema");
            assert!(is_system(name));
            // columns alphabetical (the canonical `table` order)
            let cols: Vec<&str> = schema.cols().iter().map(|(c, _)| c.as_ref()).collect();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            assert_eq!(cols, sorted, "{name} columns must be alphabetical");
            for k in &keys {
                assert!(schema.contains(k), "{name} key {k} in schema");
            }
        }
        assert!(schema_of("ferry.nope").is_none());
        assert!(!is_system("users"));
    }

    #[test]
    fn row_bytes_counts_strings_by_length() {
        let row: Row = vec![
            Value::Int(1),
            Value::str("abcd"),
            Value::Bool(true),
            Value::Unit,
        ];
        assert_eq!(row_bytes(&row), 8 + (8 + 4) + 1);
    }
}
