//! Harness-side spans: the traced pass wraps every call it makes into a
//! product crate in a span held in memory, and computes each layer's
//! *self time* (span minus the part its children cover) from them. The
//! spans are written out once, at exit, in Chrome-trace shape.
//!
//! These are spans of the *benchmark's* calls, recorded in the
//! benchmark's own files; reading the same breakdown from spans inside
//! the product is a later change (see README.md).

use std::fmt::Write as _;
use std::time::Instant;

/// The product layers wall time is attributed to — the crate names, with
/// `core` split into its compile and stitch halves because they answer
/// different questions (what a plan-cache hit saves vs. what every run
/// pays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Time inside a run that no product call covers: the harness's own
    /// bookkeeping between stages.
    Harness,
    CoreCompile,
    Optimizer,
    Sql,
    Engine,
    CoreStitch,
    Server,
    Storage,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::CoreCompile,
        Layer::Optimizer,
        Layer::Sql,
        Layer::Engine,
        Layer::CoreStitch,
        Layer::Server,
        Layer::Storage,
        Layer::Harness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::CoreCompile => "core.compile",
            Layer::Optimizer => "optimizer",
            Layer::Sql => "sql",
            Layer::Engine => "engine",
            Layer::CoreStitch => "core.stitch",
            Layer::Server => "server",
            Layer::Storage => "storage",
        }
    }

    /// The per-layer metric carrying this layer's share of staged wall
    /// time.
    pub fn share_metric(self) -> &'static str {
        match self {
            Layer::Harness => "harness.share_pct",
            Layer::CoreCompile => "core.compile_share_pct",
            Layer::Optimizer => "optimizer.share_pct",
            Layer::Sql => "sql.share_pct",
            Layer::Engine => "engine.share_pct",
            Layer::CoreStitch => "core.stitch_share_pct",
            Layer::Server => "server.share_pct",
            Layer::Storage => "storage.share_pct",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    pub run_id: u64,
    /// Placed from a reference measurement rather than observed: the
    /// part of a wire round trip the same plan takes in process.
    pub derived: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client's in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    client: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u64,
}

impl Recorder {
    /// `epoch` is shared by all clients of a pass so their timelines
    /// line up in the trace file.
    pub fn new(epoch: Instant, client: usize) -> Recorder {
        Recorder {
            epoch,
            client,
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of the next run.
    pub fn begin_run(&mut self) -> usize {
        self.run_id += 1;
        self.enter("run", Layer::Harness)
    }

    pub fn enter(&mut self, name: &'static str, layer: Layer) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run_id: self.run_id,
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Time one call into the product as a child of the open span.
    pub fn stage<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, layer);
        let out = f();
        self.exit(id);
        out
    }

    /// [`Recorder::stage`] when there is a recorder, a plain call when
    /// there is none — for code shared by the traced and untraced paths.
    pub fn stage_if<T>(
        rec: Option<&mut Recorder>,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce() -> T,
    ) -> T {
        match rec {
            Some(rec) => rec.stage(name, layer, f),
            None => f(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Split every `outer`-named span by reference durations: lay the
    /// `parts` end to end from the span's start as derived children,
    /// scaled down together if they would overrun it. What is left of the
    /// span stays its own self time.
    pub fn derive_children(&mut self, outer: &'static str, parts: &[(&'static str, Layer, u64)]) {
        let total: u64 = parts.iter().map(|p| p.2).sum();
        if total == 0 {
            return;
        }
        for id in 0..self.spans.len() {
            if self.spans[id].name != outer || self.spans[id].derived {
                continue;
            }
            let (start, dur, run_id) = {
                let s = &self.spans[id];
                (s.start_ns, s.dur_ns(), s.run_id)
            };
            let scale = (dur as f64 / total as f64).min(1.0);
            let mut at = start;
            for &(name, layer, ns) in parts {
                let d = (ns as f64 * scale) as u64;
                self.spans.push(Span {
                    name,
                    layer,
                    start_ns: at,
                    end_ns: at + d,
                    parent: Some(id),
                    run_id,
                    derived: true,
                });
                at += d;
            }
        }
    }
}

/// What the spans of one pass add up to.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Staged runs seen.
    pub runs: usize,
    /// Per-run wall time (root span duration), ns.
    pub run_wall_ns: Vec<u64>,
    /// Per layer: total self time over all runs, ns.
    pub self_ns: Vec<(Layer, u64)>,
    /// Largest |Σ self − wall| ÷ wall over the runs.
    pub max_sum_error: f64,
}

impl Breakdown {
    pub fn total_wall_ns(&self) -> u64 {
        self.run_wall_ns.iter().sum()
    }

    pub fn share_pct(&self, layer: Layer) -> f64 {
        let total = self.total_wall_ns();
        if total == 0 {
            return 0.0;
        }
        let own = self
            .self_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |x| x.1);
        100.0 * own as f64 / total as f64
    }
}

/// Self time per layer over every recorder of a pass. A span's self time
/// is its duration minus the union of its children's intervals, so
/// children that overlap are not subtracted twice.
pub fn breakdown(recorders: &[Recorder]) -> Breakdown {
    let mut out = Breakdown {
        self_ns: Layer::ALL.iter().map(|l| (*l, 0)).collect(),
        ..Breakdown::default()
    };
    for rec in recorders {
        let spans = rec.spans();
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        let self_of = |i: usize| -> u64 {
            let s = &spans[i];
            let mut iv: Vec<(u64, u64)> = kids[i]
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(s.start_ns),
                        spans[k].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        };
        // a parent always precedes its children in the log (derived
        // children are appended last), so one forward pass finds each
        // span's run root
        let mut root_of = vec![0usize; spans.len()];
        let mut sum_of = vec![0u64; spans.len()]; // Σ self, at the root's index
        for (i, s) in spans.iter().enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            let own = self_of(i);
            sum_of[root_of[i]] += own;
            if let Some(slot) = out.self_ns.iter_mut().find(|(l, _)| *l == s.layer) {
                slot.1 += own;
            }
        }
        let per_run = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| (s.dur_ns(), sum_of[i]));
        for (wall, sum) in per_run {
            out.runs += 1;
            out.run_wall_ns.push(wall);
            if wall > 0 {
                let err = (sum as f64 - wall as f64).abs() / wall as f64;
                out.max_sum_error = out.max_sum_error.max(err);
            }
        }
    }
    out
}

/// Per-run total duration of the observed (not derived) spans whose name
/// starts with `name`, one entry per run that has any.
pub fn per_run_ns(recorders: &[Recorder], name: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for rec in recorders {
        let mut cur: Option<(u64, u64)> = None;
        for s in rec
            .spans()
            .iter()
            .filter(|s| !s.derived && s.name.starts_with(name))
        {
            match &mut cur {
                Some((run, ns)) if *run == s.run_id => *ns += s.dur_ns(),
                _ => {
                    if let Some((_, ns)) = cur.take() {
                        out.push(ns);
                    }
                    cur = Some((s.run_id, s.dur_ns()));
                }
            }
        }
        if let Some((_, ns)) = cur {
            out.push(ns);
        }
    }
    out
}

/// Runs written to the trace file per client; the breakdown itself is
/// computed over all of them.
const TRACE_FILE_RUNS: u64 = 500;

/// Chrome trace-format JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, one `tid` per client.
pub fn chrome_json(workload: &str, recorders: &[Recorder]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for rec in recorders {
        for (i, s) in rec.spans().iter().enumerate() {
            if s.run_id > TRACE_FILE_RUNS {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"run_id\":{},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}}}",
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                rec.client,
                i,
                parent,
                s.run_id,
                s.start_ns,
                s.end_ns,
                s.derived
            );
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\"}}}}\n"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 1,
            derived: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.spans = vec![
            span(Layer::Harness, 0, 100, None),
            span(Layer::Engine, 10, 60, Some(0)),
            span(Layer::CoreStitch, 50, 80, Some(0)), // overlaps the engine span
            span(Layer::Storage, 20, 30, Some(1)),
        ];
        let b = breakdown(&[rec]);
        let own = |l| b.self_ns.iter().find(|(x, _)| *x == l).unwrap().1;
        assert_eq!(own(Layer::Harness), 30); // 100 − |[10,80)|
        assert_eq!(own(Layer::Engine), 40);
        assert_eq!(own(Layer::CoreStitch), 30);
        assert_eq!(own(Layer::Storage), 10);
        assert_eq!(b.runs, 1);
        // the overlap is counted in both siblings, so the sum overshoots
        assert!((b.max_sum_error - 0.10).abs() < 1e-9);
    }

    #[test]
    fn derived_children_never_overrun_their_span() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.spans = vec![
            span(Layer::Harness, 0, 100, None),
            Span {
                name: "roundtrip",
                ..span(Layer::Server, 0, 100, Some(0))
            },
        ];
        rec.derive_children(
            "roundtrip",
            &[("a", Layer::Sql, 150), ("b", Layer::Engine, 50)],
        );
        let b = breakdown(&[rec]);
        let own = |l| b.self_ns.iter().find(|(x, _)| *x == l).unwrap().1;
        assert_eq!(own(Layer::Sql), 75);
        assert_eq!(own(Layer::Engine), 25);
        assert_eq!(own(Layer::Server), 0);
        assert!(b.max_sum_error < 1e-9);
    }
}
