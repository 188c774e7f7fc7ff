//! The metrics registry: named counters, gauges, and log-bucketed
//! latency histograms.
//!
//! Handles are `Arc`s over atomics — hot paths fetch them once (e.g. at
//! `Database` construction) and update without touching the registry
//! lock again. Histograms bucket by bit length (`⌈log2⌉`), so 64 buckets
//! cover the full `u64` range and recording is a `leading_zeros` plus one
//! relaxed atomic add; quantiles are read back as the **upper bound** of
//! the bucket holding the requested rank (an estimate within 2× of the
//! true value, which is all a latency percentile needs).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` holds values of bit length
/// `i`, i.e. `2^(i-1) <= v < 2^i` (bucket 0 holds exactly 0).
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins signed value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.set(0);
    }
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Index of the bucket holding `v`: its bit length.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Largest value bucket `i` can hold (`2^i - 1`; bucket 0 holds only 0).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A self-consistent point-in-time copy. `count` is **derived from
    /// the bucket sums** rather than read from the `count` atomic: a
    /// `record` (or `reset`) racing this snapshot could otherwise leave
    /// `count ≠ Σ buckets`, which breaks every quantile walk over the
    /// buckets. `sum` may still lag the buckets by in-flight samples, so
    /// `mean()` is approximate under concurrency — but the structural
    /// invariant `snapshot.count == snapshot.buckets.iter().sum()` always
    /// holds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]`, reported as the upper bound of
    /// the bucket containing the sample of that rank. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean of the recorded samples (the sum is exact even though
    /// the buckets are logarithmic).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One named metric handle.
#[derive(Debug, Clone)]
pub enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    /// The kind of this metric, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// `name` is already registered as a different metric kind. Registration
/// is get-or-create, so asking for the *same* kind twice returns the
/// existing handle; only a kind mismatch produces this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricTypeConflict {
    pub name: String,
    /// Kind already in the registry under `name`.
    pub existing: &'static str,
    /// Kind this registration asked for.
    pub requested: &'static str,
}

impl std::fmt::Display for MetricTypeConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metric {} already registered as a {}, requested as a {}",
            self.name, self.existing, self.requested
        )
    }
}

impl std::error::Error for MetricTypeConflict {}

/// The name → metric map. Handle acquisition locks; updates through the
/// returned `Arc`s do not.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Get or create the counter `name`. Asking again for the same name
    /// and kind returns the existing handle; a kind mismatch is a
    /// [`MetricTypeConflict`] (and the existing registration is kept).
    pub fn counter(&self, name: &str) -> Result<Arc<Counter>, MetricTypeConflict> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Ok(c.clone()),
            other => Err(MetricTypeConflict {
                name: name.to_string(),
                existing: other.kind(),
                requested: "counter",
            }),
        }
    }

    /// Get or create the gauge `name` (same kind rules as [`counter`](Registry::counter)).
    pub fn gauge(&self, name: &str) -> Result<Arc<Gauge>, MetricTypeConflict> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Ok(g.clone()),
            other => Err(MetricTypeConflict {
                name: name.to_string(),
                existing: other.kind(),
                requested: "gauge",
            }),
        }
    }

    /// Get or create the histogram `name` (same kind rules as [`counter`](Registry::counter)).
    pub fn histogram(&self, name: &str) -> Result<Arc<Histogram>, MetricTypeConflict> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Ok(h.clone()),
            other => Err(MetricTypeConflict {
                name: name.to_string(),
                existing: other.kind(),
                requested: "histogram",
            }),
        }
    }

    /// Every registered metric, by name.
    pub fn metrics(&self) -> Vec<(String, Metric)> {
        self.metrics
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset(&self) {
        for (_, m) in self.metrics.lock().unwrap().iter() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Prometheus text-exposition rendering of every registered metric —
    /// the body a future `/metrics` endpoint serves. Byte-stable for
    /// identical registry state: the metric map is a `BTreeMap`, so names
    /// come out sorted, and within a histogram buckets come out in
    /// ascending `le` order.
    ///
    /// Conventions: dots in metric names become underscores
    /// (`engine.queries` → `engine_queries`); counters and gauges render
    /// as `# TYPE` plus one sample; histograms render cumulative
    /// `_bucket{le="…"}` samples (only non-empty buckets, each labelled
    /// with its inclusive upper bound, plus the mandatory `le="+Inf"`),
    /// then `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, m) in self.metrics() {
            let pname = prometheus_name(&name);
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = writeln!(out, "{pname} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    let mut cum = 0u64;
                    for (i, &n) in s.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum += n;
                        let _ = writeln!(
                            out,
                            "{pname}_bucket{{le=\"{}\"}} {cum}",
                            bucket_upper_bound(i)
                        );
                    }
                    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", s.count);
                    let _ = writeln!(out, "{pname}_sum {}", s.sum);
                    let _ = writeln!(out, "{pname}_count {}", s.count);
                }
            }
        }
        out
    }
}

/// A registry name as a legal Prometheus metric name: every character
/// outside `[a-zA-Z0-9_:]` (notably the `.` separators this workspace
/// uses) becomes `_`.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::default();
        let c = r.counter("q").unwrap();
        c.inc();
        c.add(4);
        assert_eq!(r.counter("q").unwrap().get(), 5);
        let g = r.gauge("depth").unwrap();
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn kind_mismatch_is_an_error_not_a_panic() {
        let r = Registry::default();
        let c = r.counter("x").unwrap();
        c.inc();
        // same name, same kind: the existing handle comes back
        assert!(Arc::ptr_eq(&c, &r.counter("x").unwrap()));
        // same name, different kind: a typed error, no panic
        let err = r.gauge("x").unwrap_err();
        assert_eq!(err.name, "x");
        assert_eq!(err.existing, "counter");
        assert_eq!(err.requested, "gauge");
        assert!(err.to_string().contains("already registered as a counter"));
        let err = r.histogram("x").unwrap_err();
        assert_eq!(err.requested, "histogram");
        // the original registration survives the conflict untouched
        assert_eq!(r.counter("x").unwrap().get(), 1);
        assert_eq!(r.metrics().len(), 1);
    }

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        // bucket 0: {0}; bucket 1: {1}; bucket 2: {2,3}; bucket 3: {4..7}
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // every value lands in the bucket whose bounds contain it
        for v in [0u64, 1, 2, 5, 100, 1023, 1024, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let h = Histogram::default();
        // 100 samples of 5 (bucket 3, ub 7) and 1 sample of 1000
        // (bucket 10, ub 1023)
        for _ in 0..100 {
            h.record(5);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.sum, 1500);
        assert_eq!(s.p50(), 7);
        assert_eq!(s.p95(), 7);
        // rank ceil(0.99 * 101) = 100 → still the bucket of the 5s
        assert_eq!(s.p99(), 7);
        assert_eq!(s.quantile(1.0), 1023);
        assert!((s.mean() - 1500.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        h.record(0);
        assert_eq!(h.snapshot().quantile(0.5), 0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 0); // rank clamps to 1 → first sample
        assert_eq!(s.quantile(1.0), u64::MAX);
        h.reset();
        assert_eq!(h.snapshot().count, 0);
    }

    /// Golden test for the Prometheus text exposition: exact bytes for a
    /// fixed registry state, and byte-stability across repeated renders.
    /// The fixture covers one family from each layer the exposition
    /// serves — engine counters/gauges/histograms and the `server.*`
    /// families `ferry-server`'s `Metrics` request returns over the wire.
    #[test]
    fn prometheus_rendering_is_golden_and_stable() {
        let r = Registry::default();
        r.counter("engine.queries").unwrap().add(7);
        r.gauge("engine.epoch").unwrap().set(-3);
        let h = r.histogram("engine.query_latency_ns").unwrap();
        h.record(0); // bucket 0, ub 0
        h.record(5); // bucket 3, ub 7
        h.record(5);
        h.record(1000); // bucket 10, ub 1023
        r.counter(crate::names::SERVER_ACCEPTS).unwrap().add(4);
        r.counter(crate::names::SERVER_REJECTS).unwrap().add(2);
        r.gauge(crate::names::SERVER_QUEUE_DEPTH).unwrap().set(1);
        let w = r.histogram(crate::names::SERVER_QUEUE_WAIT_NS).unwrap();
        w.record(3); // bucket 2, ub 3
        w.record(900); // bucket 10, ub 1023
        let expected = "\
# TYPE engine_epoch gauge
engine_epoch -3
# TYPE engine_queries counter
engine_queries 7
# TYPE engine_query_latency_ns histogram
engine_query_latency_ns_bucket{le=\"0\"} 1
engine_query_latency_ns_bucket{le=\"7\"} 3
engine_query_latency_ns_bucket{le=\"1023\"} 4
engine_query_latency_ns_bucket{le=\"+Inf\"} 4
engine_query_latency_ns_sum 1010
engine_query_latency_ns_count 4
# TYPE server_accepts counter
server_accepts 4
# TYPE server_queue_depth gauge
server_queue_depth 1
# TYPE server_queue_wait_ns histogram
server_queue_wait_ns_bucket{le=\"3\"} 1
server_queue_wait_ns_bucket{le=\"1023\"} 2
server_queue_wait_ns_bucket{le=\"+Inf\"} 2
server_queue_wait_ns_sum 903
server_queue_wait_ns_count 2
# TYPE server_rejects counter
server_rejects 2
";
        assert_eq!(r.render_prometheus(), expected);
        // identical state renders identical bytes
        assert_eq!(r.render_prometheus(), r.render_prometheus());
    }

    #[test]
    fn prometheus_names_are_sanitized_and_sorted() {
        let r = Registry::default();
        r.counter("z.last").unwrap().inc();
        r.counter("a.first-metric").unwrap().inc();
        let text = r.render_prometheus();
        let a = text.find("a_first_metric").expect("sanitized name present");
        let z = text.find("z_last").expect("sanitized name present");
        assert!(a < z, "names must render in sorted order:\n{text}");
    }

    /// Satellite fix: a snapshot taken while `record` / `reset` race must
    /// stay internally consistent — `count` equals the summed buckets, so
    /// quantile walks can never run past the recorded mass.
    #[test]
    fn concurrent_record_snapshot_reset_keeps_snapshots_consistent() {
        use std::sync::atomic::AtomicBool;
        let h = Arc::new(Histogram::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let h = h.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut v: u64 = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 4096);
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                })
            })
            .collect();
        let resetter = {
            let h = h.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    h.reset();
                    std::thread::yield_now();
                }
            })
        };
        for _ in 0..2000 {
            let s = h.snapshot();
            assert_eq!(
                s.count,
                s.buckets.iter().sum::<u64>(),
                "snapshot count must equal summed buckets"
            );
            // quantiles stay in range whatever the interleaving
            let _ = s.p50();
            let _ = s.p99();
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        resetter.join().unwrap();
    }
}
