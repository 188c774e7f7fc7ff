//! The `Telemetry` hub: config, metrics registry, and the bounded ring of
//! recent query traces.
//!
//! Each `Database`/`Connection` owns an `Arc<Telemetry>` (no process
//! globals beyond the span id counters), so tests and concurrent
//! connections never see each other's traces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::span::{
    drain_trace, next_trace_id, now_ns, set_ctx, thread_id, tracing_active, SpanRecord, TraceCtx,
};
use crate::{AttrVal, Registry, TelemetryConfig};

/// Recent query traces kept per `Telemetry` instance.
pub const TRACE_RING_CAP: usize = 16;

/// One completed query trace: the synthesized root span plus every span
/// recorded on the tracing thread while the trace was active.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Process-unique trace id (matches `SpanRecord::trace`).
    pub trace_id: u64,
    /// The engine-assigned query id the trace was begun for.
    pub query_id: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// All spans, root first, then by start time.
    pub spans: Vec<SpanRecord>,
}

/// The per-instance telemetry hub.
#[derive(Debug)]
pub struct Telemetry {
    /// Is the level [`TelemetryConfig::Full`]?
    full: AtomicBool,
    registry: Registry,
    traces: Mutex<VecDeque<QueryTrace>>,
    /// Slow-query threshold in nanoseconds; 0 disables the slow-query log.
    /// Lives here (not in [`TelemetryConfig`]) so it can be flipped at
    /// runtime with the same relaxed-atomic cost as the config level.
    slow_ns: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry {
            // the default level, `Counters`
            full: AtomicBool::new(false),
            registry: Registry::default(),
            traces: Mutex::new(VecDeque::new()),
            slow_ns: AtomicU64::new(0),
        }
    }
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Telemetry {
        let t = Telemetry::default();
        t.set_config(config);
        t
    }

    pub fn config(&self) -> TelemetryConfig {
        if self.full.load(Ordering::Relaxed) {
            TelemetryConfig::Full
        } else {
            TelemetryConfig::Counters
        }
    }

    pub fn set_config(&self, config: TelemetryConfig) {
        self.full
            .store(config == TelemetryConfig::Full, Ordering::Relaxed);
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The slow-query threshold in nanoseconds; 0 means the slow-query
    /// log is disabled (the idle default).
    pub fn slow_query_threshold_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// The slow-query threshold as a `Duration`, if enabled.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        match self.slow_query_threshold_ns() {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Set (or with `None` / zero, disable) the slow-query threshold.
    /// Dispatches whose wall time meets the threshold get captured into
    /// the engine's slow-query ring regardless of the config level.
    pub fn set_slow_query_threshold(&self, t: Option<Duration>) {
        let ns = t.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Begin a trace for query `query_id` on the calling thread, if the
    /// config level is `Full`. Returns an inert guard when tracing is
    /// disabled, or when a trace is already active on this thread (the
    /// inner query joins the ambient trace instead of starting its own —
    /// this is how `from_q`'s prepare and execute land in one trace).
    pub fn begin_query(self: &Arc<Telemetry>, query_id: u64) -> TraceGuard {
        if !self.full.load(Ordering::Relaxed) {
            return TraceGuard { active: None };
        }
        self.begin_query_forced(query_id)
    }

    /// Begin a trace regardless of the config level (used by
    /// `explain_analyze`, which always wants the timeline). Still joins an
    /// already-active ambient trace instead of nesting.
    pub fn begin_query_forced(self: &Arc<Telemetry>, query_id: u64) -> TraceGuard {
        if tracing_active() {
            return TraceGuard { active: None };
        }
        let trace = next_trace_id();
        let root = crate::span::next_span_id_pub();
        let prev = set_ctx(TraceCtx {
            trace,
            parent: root,
        });
        TraceGuard {
            active: Some(ActiveTrace {
                telemetry: self.clone(),
                trace,
                root,
                query_id,
                start_ns: now_ns(),
                prev,
            }),
        }
    }

    /// The recorded traces, oldest first.
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.traces.lock().unwrap().iter().cloned().collect()
    }

    /// The most recently completed trace.
    pub fn latest_trace(&self) -> Option<QueryTrace> {
        self.traces.lock().unwrap().back().cloned()
    }

    /// The most recent trace for `query_id`, if still in the ring.
    pub fn trace_for_query(&self, query_id: u64) -> Option<QueryTrace> {
        self.traces
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find(|t| t.query_id == query_id)
            .cloned()
    }

    pub fn clear_traces(&self) {
        self.traces.lock().unwrap().clear();
    }

    fn finish(&self, trace: u64, root: u64, query_id: u64, start_ns: u64) {
        let end = now_ns();
        let mut spans = drain_trace(trace);
        spans.push(SpanRecord {
            id: root,
            parent: 0,
            trace,
            name: "query".into(),
            cat: "query",
            tid: thread_id(),
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            attrs: vec![("query_id", AttrVal::UInt(query_id))],
        });
        // root first, then by start time (stable for equal starts)
        spans.sort_by_key(|s| (s.parent != 0, s.start_ns, s.id));
        let mut ring = self.traces.lock().unwrap();
        if ring.len() >= TRACE_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(QueryTrace {
            trace_id: trace,
            query_id,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            spans,
        });
    }
}

struct ActiveTrace {
    telemetry: Arc<Telemetry>,
    trace: u64,
    root: u64,
    query_id: u64,
    start_ns: u64,
    prev: TraceCtx,
}

/// Ends the trace on drop: restores the previous context, drains this
/// trace's spans from the thread's buffer, synthesizes the root
/// `"query"` span, and pushes the completed [`QueryTrace`] into the
/// ring. Must be dropped on the thread that began the trace.
pub struct TraceGuard {
    active: Option<ActiveTrace>,
}

impl TraceGuard {
    /// Is this guard actually collecting a trace?
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// The trace id being collected (0 for an inert guard).
    pub fn trace_id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.trace)
    }

    /// Stamp the query id the trace will be filed under — callers usually
    /// begin with a placeholder and learn the engine-assigned id only
    /// after the dispatch. No-op on an inert guard.
    pub fn set_query_id(&mut self, id: u64) {
        if let Some(a) = &mut self.active {
            a.query_id = id;
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        set_ctx(a.prev);
        a.telemetry.finish(a.trace, a.root, a.query_id, a.start_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::span;

    #[test]
    fn counters_mode_never_traces() {
        let t = Arc::new(Telemetry::default());
        assert_eq!(t.config(), TelemetryConfig::Counters);
        let g = t.begin_query(1);
        assert!(!g.is_active());
        assert!(!tracing_active());
        drop(g);
        assert!(t.latest_trace().is_none());
    }

    #[test]
    fn full_mode_collects_root_and_children() {
        let t = Arc::new(Telemetry::new(TelemetryConfig::Full));
        {
            let g = t.begin_query(42);
            assert!(g.is_active());
            assert!(tracing_active());
            let mut s = span("compile", "compile");
            s.attr("queries", 2u64);
            drop(s);
        }
        assert!(!tracing_active());
        let tr = t.latest_trace().unwrap();
        assert_eq!(tr.query_id, 42);
        assert_eq!(tr.spans.len(), 2);
        let root = &tr.spans[0];
        assert_eq!(root.name, "query");
        assert_eq!(root.parent, 0);
        let child = &tr.spans[1];
        assert_eq!(child.name, "compile");
        assert_eq!(child.parent, root.id);
        assert_eq!(child.trace, tr.trace_id);
    }

    #[test]
    fn nested_begin_joins_ambient_trace() {
        let t = Arc::new(Telemetry::new(TelemetryConfig::Full));
        {
            let outer = t.begin_query(1);
            assert!(outer.is_active());
            let inner = t.begin_query(2);
            assert!(!inner.is_active());
            let forced = t.begin_query_forced(3);
            assert!(!forced.is_active());
        }
        // only the outer query produced a trace
        let traces = t.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].query_id, 1);
    }

    #[test]
    fn forced_trace_works_below_full() {
        let t = Arc::new(Telemetry::new(TelemetryConfig::Counters));
        {
            let g = t.begin_query_forced(9);
            assert!(g.is_active());
        }
        assert_eq!(t.latest_trace().unwrap().query_id, 9);
    }

    #[test]
    fn slow_query_threshold_roundtrips_and_disables() {
        let t = Telemetry::default();
        assert_eq!(t.slow_query_threshold(), None);
        t.set_slow_query_threshold(Some(Duration::from_millis(5)));
        assert_eq!(t.slow_query_threshold_ns(), 5_000_000);
        assert_eq!(t.slow_query_threshold(), Some(Duration::from_millis(5)));
        t.set_slow_query_threshold(None);
        assert_eq!(t.slow_query_threshold_ns(), 0);
        t.set_slow_query_threshold(Some(Duration::ZERO));
        assert_eq!(t.slow_query_threshold(), None, "zero means disabled");
    }

    #[test]
    fn ring_keeps_last_16_in_order() {
        let t = Arc::new(Telemetry::new(TelemetryConfig::Full));
        for q in 0..20u64 {
            let _g = t.begin_query(q);
        }
        let traces = t.traces();
        assert_eq!(traces.len(), TRACE_RING_CAP);
        let ids: Vec<u64> = traces.iter().map(|t| t.query_id).collect();
        assert_eq!(ids, (4..20).collect::<Vec<u64>>());
        assert_eq!(t.latest_trace().unwrap().query_id, 19);
        assert_eq!(t.trace_for_query(5).unwrap().query_id, 5);
        assert!(t.trace_for_query(3).is_none());
        t.clear_traces();
        assert!(t.traces().is_empty());
    }
}
