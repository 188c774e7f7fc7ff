//! Span recording: trace context, the thread's span buffer, and the
//! RAII [`Span`] guard.
//!
//! A *trace context* (`(trace id, parent span id)`) is thread-local.
//! [`crate::Telemetry::begin_query`] installs it on the calling thread,
//! and every span of the trace is recorded on that thread: a query —
//! and a server request — runs on one thread from start to end. When no
//! context is installed every recording entry point is a no-op after one
//! thread-local read — that is the entire disabled-mode cost of an
//! instrumentation point.
//!
//! Finished spans are pushed onto a thread-local buffer; ending a trace
//! drains that trace's spans from the buffer of the thread it ends on.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Spans per thread buffer before new records are dropped — a backstop
/// against a trace guard that is never dropped, not a tuning knob.
const THREAD_BUF_CAP: usize = 1 << 16;

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrVal {
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl From<i64> for AttrVal {
    fn from(v: i64) -> AttrVal {
        AttrVal::Int(v)
    }
}
impl From<u64> for AttrVal {
    fn from(v: u64) -> AttrVal {
        AttrVal::UInt(v)
    }
}
impl From<u32> for AttrVal {
    fn from(v: u32) -> AttrVal {
        AttrVal::UInt(v as u64)
    }
}
impl From<usize> for AttrVal {
    fn from(v: usize) -> AttrVal {
        AttrVal::UInt(v as u64)
    }
}
impl From<f64> for AttrVal {
    fn from(v: f64) -> AttrVal {
        AttrVal::Float(v)
    }
}
impl From<bool> for AttrVal {
    fn from(v: bool) -> AttrVal {
        AttrVal::Bool(v)
    }
}
impl From<&str> for AttrVal {
    fn from(v: &str) -> AttrVal {
        AttrVal::Str(v.to_string())
    }
}
impl From<String> for AttrVal {
    fn from(v: String) -> AttrVal {
        AttrVal::Str(v)
    }
}

impl std::fmt::Display for AttrVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrVal::Int(v) => write!(f, "{v}"),
            AttrVal::UInt(v) => write!(f, "{v}"),
            AttrVal::Float(v) => write!(f, "{v}"),
            AttrVal::Str(v) => write!(f, "{v}"),
            AttrVal::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id; 0 for the trace's root span.
    pub parent: u64,
    /// The query-scoped trace this span belongs to.
    pub trace: u64,
    pub name: Cow<'static, str>,
    /// Coarse pipeline stage: `"compile"`, `"optimize"`, `"sql"`,
    /// `"engine"`, `"exec.node"`, `"runtime"`, `"query"`.
    pub cat: &'static str,
    /// Small dense id of the recording thread (for trace viewers' lanes).
    pub tid: u64,
    /// Nanoseconds since the process-wide monotonic epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub attrs: Vec<(&'static str, AttrVal)>,
}

/// The ambient `(trace, parent span)` pair. `trace == 0` means tracing is
/// inactive on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace: u64,
    pub parent: u64,
}

impl TraceCtx {
    pub const INACTIVE: TraceCtx = TraceCtx {
        trace: 0,
        parent: 0,
    };

    pub fn is_active(&self) -> bool {
        self.trace != 0
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx::INACTIVE) };
    static BUF: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process-wide monotonic epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Dense per-thread id, assigned on first use.
pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Allocate a span id for a caller that builds its own [`SpanRecord`]
/// (the trace root synthesized by `Telemetry::finish`).
pub(crate) fn next_span_id_pub() -> u64 {
    next_span_id()
}

/// The calling thread's ambient trace context.
pub fn current_ctx() -> TraceCtx {
    CTX.with(|c| c.get())
}

/// Is a trace active on this thread? The one-read fast-path check every
/// instrumentation point performs first.
pub fn tracing_active() -> bool {
    current_ctx().is_active()
}

pub(crate) fn set_ctx(ctx: TraceCtx) -> TraceCtx {
    CTX.with(|c| c.replace(ctx))
}

/// Push one finished record onto this thread's buffer.
pub(crate) fn push_record(rec: SpanRecord) {
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < THREAD_BUF_CAP {
            buf.push(rec);
        }
    });
}

/// Extract every span of `trace` from this thread's buffer.
pub(crate) fn drain_trace(trace: u64) -> Vec<SpanRecord> {
    BUF.with(|buf| {
        buf.borrow_mut()
            .extract_if(.., |s| s.trace == trace)
            .collect()
    })
}

/// An in-flight span: started now, recorded when dropped. Inert (zero
/// allocation, zero recording) when no trace is active on this thread.
///
/// While the guard lives, spans opened on the same thread parent to it.
pub struct Span {
    open: Option<Box<OpenSpan>>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrVal)>,
}

/// Open a span under the ambient trace context (inert when inactive).
pub fn span(name: &'static str, cat: &'static str) -> Span {
    let ctx = current_ctx();
    if !ctx.is_active() {
        return Span { open: None };
    }
    let id = next_span_id();
    set_ctx(TraceCtx {
        trace: ctx.trace,
        parent: id,
    });
    Span {
        open: Some(Box::new(OpenSpan {
            id,
            parent: ctx.parent,
            trace: ctx.trace,
            name,
            cat,
            start_ns: now_ns(),
            attrs: Vec::new(),
        })),
    }
}

impl Span {
    /// Is this span actually recording (a trace is active)?
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }

    /// Attach an attribute (no-op on an inert span).
    pub fn attr(&mut self, key: &'static str, val: impl Into<AttrVal>) -> &mut Span {
        if let Some(open) = &mut self.open {
            open.attrs.push((key, val.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        // restore the parent slot for our siblings
        set_ctx(TraceCtx {
            trace: open.trace,
            parent: open.parent,
        });
        let end = now_ns();
        push_record(SpanRecord {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            name: Cow::Borrowed(open.name),
            cat: open.cat,
            tid: thread_id(),
            start_ns: open.start_ns,
            dur_ns: end.saturating_sub(open.start_ns),
            attrs: open.attrs,
        });
    }
}

/// Record an already-measured span (post-hoc: the caller timed the work
/// itself, e.g. the engine's per-node profiler). Parents to the ambient
/// span; returns the new span's id, or 0 when tracing is inactive.
pub fn record_span(
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    attrs: Vec<(&'static str, AttrVal)>,
) -> u64 {
    let ctx = current_ctx();
    if !ctx.is_active() {
        return 0;
    }
    let id = next_span_id();
    push_record(SpanRecord {
        id,
        parent: ctx.parent,
        trace: ctx.trace,
        name: name.into(),
        cat,
        tid: thread_id(),
        start_ns,
        dur_ns,
        attrs,
    });
    id
}

pub(crate) fn next_trace_id() -> u64 {
    static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_thread_records_nothing() {
        assert!(!tracing_active());
        let mut s = span("noop", "test");
        assert!(!s.is_recording());
        s.attr("k", 1u64);
        drop(s);
        assert_eq!(record_span("noop", "test", 0, 1, vec![]), 0);
    }

    #[test]
    fn spans_nest_and_restore_parent() {
        let trace = next_trace_id();
        set_ctx(TraceCtx { trace, parent: 0 });
        let outer_id;
        {
            let outer = span("outer", "test");
            outer_id = outer.open.as_ref().unwrap().id;
            assert_eq!(current_ctx().parent, outer_id);
            {
                let inner = span("inner", "test");
                assert_eq!(inner.open.as_ref().unwrap().parent, outer_id);
            }
            // sibling after inner still parents to outer
            assert_eq!(current_ctx().parent, outer_id);
        }
        assert_eq!(current_ctx().parent, 0);
        set_ctx(TraceCtx::INACTIVE);
        let spans = drain_trace(trace);
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn a_trace_drains_only_its_own_threads_spans() {
        let trace = next_trace_id();
        std::thread::scope(|s| {
            s.spawn(|| {
                set_ctx(TraceCtx { trace, parent: 0 });
                let _s = span("elsewhere", "test");
            });
        });
        assert!(drain_trace(trace).is_empty());
    }

    #[test]
    fn drain_takes_only_the_requested_trace() {
        let t1 = next_trace_id();
        let t2 = next_trace_id();
        for (trace, name) in [(t1, "one"), (t2, "two")] {
            set_ctx(TraceCtx { trace, parent: 0 });
            let _s = span(name, "test");
        }
        set_ctx(TraceCtx::INACTIVE);
        let got1 = drain_trace(t1);
        assert_eq!(got1.len(), 1);
        assert_eq!(got1[0].name, "one");
        let got2 = drain_trace(t2);
        assert_eq!(got2.len(), 1);
        assert_eq!(got2[0].name, "two");
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
