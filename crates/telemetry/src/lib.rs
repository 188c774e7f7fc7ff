//! # `ferry-telemetry` — the observability substrate
//!
//! Always-on, low-overhead, per-query attribution for the whole pipeline
//! (compile → loop-lift → shred → optimize → codegen → execute), built
//! in-house like every other dependency of this workspace (no crates.io
//! access — see `shims/`). Three layers:
//!
//! * **Span tracing** ([`span`]): a query-scoped trace is a tree of
//!   [`SpanRecord`]s with wall-clock start/duration and typed attributes.
//!   Finished spans land in a thread-local buffer, tagged with a
//!   process-unique trace id, and are drained into a bounded ring of
//!   recent [`QueryTrace`]s when the trace ends on the thread that began
//!   it — a query runs on one thread, so its spans do too.
//! * **Metrics** ([`metrics`]): named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (p50/p95/p99) in a [`Registry`].
//!   `ferry_engine::QueryStats` is a view assembled from this registry.
//! * **Export** ([`export`]): [`chrome_trace_json`] renders a
//!   [`QueryTrace`] as Chrome-trace-format JSON (`chrome://tracing`,
//!   Perfetto), one complete (`"ph":"X"`) event per span.
//!
//! Counters are always on. [`TelemetryConfig`] gates spans only:
//! `Counters` (the default) keeps the registry hot but never records
//! spans, `Full` additionally traces every query. When no trace is active
//! the cost of an instrumentation point is a single thread-local read.

pub mod export;
pub mod metrics;
pub mod names;
pub mod report;
pub mod span;
pub mod trace;

pub use export::chrome_trace_json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metric, MetricTypeConflict, Registry,
};
pub use report::{OptReport, PassStat};
pub use span::{
    current_ctx, now_ns, record_span, span, tracing_active, AttrVal, Span, SpanRecord, TraceCtx,
};
pub use trace::{QueryTrace, Telemetry, TraceGuard};

/// How much the telemetry layer records: everything `Counters` records,
/// `Full` records too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// Metrics registry only (the default): counters and latency
    /// histograms are maintained, spans are never recorded.
    #[default]
    Counters,
    /// Counters plus span tracing: every query gets a trace in the ring,
    /// exportable via [`chrome_trace_json`].
    Full,
}
