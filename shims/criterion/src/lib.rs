//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of the criterion 0.5 API its benches use:
//! [`Criterion::benchmark_group`], `sample_size`, `bench_function`,
//! `bench_with_input`, [`BenchmarkId`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark runs one untimed warm-up iteration,
//! then `sample_size` timed samples of one iteration each (batched up to
//! a minimum per-sample duration for very fast bodies). Median / mean /
//! min / max per-iteration times are printed to stderr. No statistics,
//! plots, baselines, or outlier analysis — just honest wall-clock numbers
//! so relative comparisons (the only thing the paper's tables need)
//! remain meaningful without the real harness.
//!
//! Like the real criterion, passing `--test` on the bench command line
//! (`cargo bench -- --test`) switches to smoke mode: every benchmark body
//! executes exactly once, untimed — CI uses this to keep benches from
//! bit-rotting without paying measurement time. No timing is recorded
//! anywhere but stderr, and nothing compares one.

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Identifier `function_name/parameter` for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// An opaque barrier against the optimiser, same contract as
/// `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Smoke mode (`--test`): run the body once, collect nothing.
    test_mode: bool,
    /// Mean per-iteration durations of each sample, filled by `iter`.
    collected: Vec<Duration>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        if self.test_mode {
            black_box(body());
            return;
        }
        // untimed warm-up
        black_box(body());
        // batch fast bodies so each sample is at least ~50µs of work
        let probe = Instant::now();
        black_box(body());
        let once = probe.elapsed();
        let batch = (Duration::from_micros(50).as_nanos() / once.as_nanos().max(1)).clamp(1, 10_000)
            as usize;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(body());
            }
            self.collected.push(start.elapsed() / batch as u32);
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    test_mode: bool,
    /// Held for the group's life, as criterion does: one open group at a
    /// time.
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            test_mode: self.test_mode,
            collected: Vec::new(),
        };
        f(&mut b);
        self.report(&id, &b.collected);
        self
    }

    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            test_mode: self.test_mode,
            collected: Vec::new(),
        };
        f(&mut b, input);
        self.report(&id, &b.collected);
        self
    }

    pub fn finish(self) {}

    fn report(&self, id: &BenchmarkId, samples: &[Duration]) {
        if self.test_mode {
            eprintln!("{}/{}: test mode, ran once", self.name, id.id);
            return;
        }
        if samples.is_empty() {
            eprintln!("{}/{}: no samples collected", self.name, id.id);
            return;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2
        };
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        let min = sorted.first().unwrap();
        let max = sorted.last().unwrap();
        eprintln!(
            "{}/{}: median {:?}  mean {:?}  min {:?}  max {:?}  ({} samples)",
            self.name,
            id.id,
            median,
            mean,
            min,
            max,
            samples.len()
        );
    }
}

/// The top-level harness handle.
#[derive(Default)]
pub struct Criterion {
    test_mode: bool,
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            test_mode: self.test_mode,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, f);
        self
    }

    /// Honour the one command-line flag CI relies on: `--test` runs every
    /// benchmark body once without timing (`cargo bench -- --test`).
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().any(|a| a == "--test");
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function(BenchmarkId::new("sum", 100), |b| {
            b.iter(|| (0..100u64).sum::<u64>())
        });
        let n = 50u64;
        group.bench_with_input(BenchmarkId::new("sum_input", n), &n, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(test_benches, sample_bench);

    #[test]
    fn harness_runs() {
        test_benches();
    }
}
