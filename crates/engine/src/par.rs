//! Morsel-driven parallelism: a dependency-free worker pool over row
//! ranges.
//!
//! Large operator inputs are split into *morsels* (contiguous row ranges)
//! that std scoped threads claim from a shared atomic counter — the
//! classic morsel-driven scheme, minus NUMA placement, which an in-process
//! engine does not control anyway. Results are reassembled **in morsel
//! order**, so a parallel run produces byte-identical output to a serial
//! run regardless of thread count, morsel size, or claim order; the
//! differential test suite (`tests/differential.rs`) locks this in.
//!
//! Everything is gated by [`ParConfig`]: small inputs (`min_rows`) and
//! single-threaded configurations take a straight serial path with zero
//! synchronisation overhead.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};
use std::sync::Mutex;

/// Execution-path selection. Every operator has the scalar
/// (row-at-a-time `Bound` interpretation) implementation; the vectorized
/// one is the chain program for `Select`/`Compute`/`Attach` runs (a lone
/// operator is a chain of one — see `crate::exec`) and the typed sinks
/// (joins, windows, group-by, distinct, difference, serialize). See
/// `crate::vec_eval` and `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VecMode {
    /// Vectorize when the input is large enough to amortise the one-off
    /// column transposition; small inputs stay scalar.
    #[default]
    Auto,
    /// Scalar only — the kernel-bail fallback doubles as the differential
    /// oracle.
    Off,
    /// Vectorize whenever a kernel can be compiled, regardless of input
    /// size (differential tests force this to cover tiny inputs).
    Force,
}

/// Parallelism knobs carried by a `Database` (and settable through a
/// `Connection`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker threads for morsel execution and DAG wavefronts. `1`
    /// disables all parallelism (pure serial evaluation, no threads
    /// spawned).
    pub threads: usize,
    /// Inputs smaller than this stay serial — forking threads for a
    /// 50-row relation costs more than the work itself.
    pub min_rows: usize,
    /// Rows per morsel; `0` picks automatically (input split into about
    /// `4 × threads` morsels, at least 1024 rows each). Exposed mainly so
    /// the differential tests can force degenerate splits.
    pub morsel_rows: usize,
    /// Scalar vs vectorized path selection (orthogonal to threading:
    /// kernels run inside morsels, so the two compose).
    pub vec: VecMode,
}

impl Default for ParConfig {
    fn default() -> ParConfig {
        ParConfig {
            threads: default_threads(),
            min_rows: 4096,
            morsel_rows: 0,
            vec: VecMode::Auto,
        }
    }
}

impl ParConfig {
    /// Fully serial configuration.
    pub fn serial() -> ParConfig {
        ParConfig {
            threads: 1,
            ..ParConfig::default()
        }
    }

    pub fn with_threads(threads: usize) -> ParConfig {
        ParConfig {
            threads: threads.max(1),
            ..ParConfig::default()
        }
    }

    /// Should an input of `n` rows be processed in parallel?
    pub fn parallel_for(&self, n: usize) -> bool {
        self.threads > 1 && n >= self.min_rows.max(2)
    }

    /// Should a chain or typed sink over `n` input rows take the
    /// vectorized path (assuming its kernels compile)? The `Auto` threshold
    /// is deliberately low: the transposition is cached on the shared
    /// buffer, so it amortises across operators, not just within one.
    pub fn vectorize(&self, n: usize) -> bool {
        match self.vec {
            VecMode::Off => false,
            VecMode::Force => n > 0,
            VecMode::Auto => n >= 64,
        }
    }

    /// Morsel size for an input of `n` rows.
    pub fn morsel_size(&self, n: usize) -> usize {
        if self.morsel_rows > 0 {
            self.morsel_rows
        } else {
            n.div_ceil(self.threads.max(1) * 4).max(1024)
        }
    }
}

/// Hardware parallelism, capped: beyond 8 workers the shared-buffer
/// engine is memory-bound and extra threads only add contention.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Split `0..n` into morsels, apply `f` to each (in parallel when the
/// config allows), and concatenate the per-morsel outputs in morsel
/// order. Returns the output plus the number of morsels executed.
///
/// Errors: the lowest-indexed morsel error is returned, so failure is as
/// deterministic as success.
pub fn map_morsels<T, E, F>(cfg: &ParConfig, n: usize, f: F) -> Result<(Vec<T>, u32), E>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<Vec<T>, E> + Sync,
{
    let (chunks, morsels) = run_morsels(cfg, n, f)?;
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for mut chunk in chunks {
        out.append(&mut chunk);
    }
    Ok((out, morsels))
}

/// Result slot a worker fills for one claimed morsel.
type MorselSlot<T, E> = Mutex<Option<Result<Vec<T>, E>>>;

/// Like [`map_morsels`] but keeping per-morsel outputs separate (the
/// parallel sort needs the chunk boundaries for merging).
pub fn run_morsels<T, E, F>(cfg: &ParConfig, n: usize, f: F) -> Result<(Vec<Vec<T>>, u32), E>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<Vec<T>, E> + Sync,
{
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    if !cfg.parallel_for(n) {
        return f(0..n).map(|v| (vec![v], 1));
    }
    let m = cfg.morsel_size(n);
    let count = n.div_ceil(m);
    if count <= 1 {
        return f(0..n).map(|v| (vec![v], 1));
    }
    let slots: Vec<MorselSlot<T, E>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = cfg.threads.min(count);
    // forward the ambient trace context into the workers: per-morsel
    // spans then carry the dispatching query's trace id even though they
    // are recorded on other threads (and an inactive context keeps all of
    // this a no-op)
    let ctx = ferry_telemetry::current_ctx();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let _t = ferry_telemetry::enter_ctx(ctx);
                loop {
                    let i = next.fetch_add(1, AtOrd::Relaxed);
                    if i >= count {
                        break;
                    }
                    let lo = i * m;
                    let hi = (lo + m).min(n);
                    let mut span = ferry_telemetry::span("morsel", "exec.morsel");
                    span.attr("morsel", i).attr("rows", hi - lo);
                    *slots[i].lock().unwrap() = Some(f(lo..hi));
                }
            });
        }
    });
    let mut chunks = Vec::with_capacity(count);
    for slot in slots {
        match slot.into_inner().unwrap() {
            Some(Ok(v)) => chunks.push(v),
            Some(Err(e)) => return Err(e),
            None => unreachable!("every morsel is claimed by some worker"),
        }
    }
    Ok((chunks, count as u32))
}

/// Sort the index set `0..n` by `cmp` — serial `sort_by` below the
/// parallelism threshold, chunk-sort + k-way merge above it. `cmp` must be
/// a *total* order (break ties on the index itself) so chunked and serial
/// runs agree exactly.
pub fn sort_indices<F>(cfg: &ParConfig, n: usize, cmp: F) -> (Vec<u32>, u32)
where
    F: Fn(u32, u32) -> Ordering + Sync,
{
    if !cfg.parallel_for(n) {
        let mut idxs: Vec<u32> = (0..n as u32).collect();
        idxs.sort_unstable_by(|&a, &b| cmp(a, b));
        return (idxs, 1);
    }
    let (mut runs, morsels) = run_morsels::<u32, std::convert::Infallible, _>(cfg, n, |range| {
        let mut idxs: Vec<u32> = (range.start as u32..range.end as u32).collect();
        idxs.sort_unstable_by(|&a, &b| cmp(a, b));
        Ok(idxs)
    })
    .unwrap_or_else(|e| match e {});
    // balanced pairwise merging: O(n log k) total
    while runs.len() > 1 {
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => merged.push(merge_sorted(a, b, &cmp)),
                None => merged.push(a),
            }
        }
        runs = merged;
    }
    (runs.pop().unwrap_or_default(), morsels)
}

fn merge_sorted<F: Fn(u32, u32) -> Ordering>(a: Vec<u32>, b: Vec<u32>, cmp: &F) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i], b[j]) == Ordering::Greater {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par() -> ParConfig {
        ParConfig {
            threads: 4,
            min_rows: 1,
            morsel_rows: 7,
            ..ParConfig::default()
        }
    }

    #[test]
    fn map_morsels_preserves_order() {
        let (out, morsels) = map_morsels::<usize, (), _>(&par(), 100, |r| Ok(r.collect())).unwrap();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(morsels, 100usize.div_ceil(7) as u32);
        // serial path gives the identical answer
        let (serial, m1) =
            map_morsels::<usize, (), _>(&ParConfig::serial(), 100, |r| Ok(r.collect())).unwrap();
        assert_eq!(out, serial);
        assert_eq!(m1, 1);
    }

    #[test]
    fn map_morsels_reports_lowest_error() {
        let err = map_morsels::<usize, usize, _>(&par(), 100, |r| {
            if r.start >= 30 {
                Err(r.start)
            } else {
                Ok(r.collect())
            }
        })
        .unwrap_err();
        // morsels are 7 rows: the first failing morsel starts at 35
        assert_eq!(err, 35);
    }

    #[test]
    fn empty_input_runs_no_morsels() {
        let (out, morsels) = map_morsels::<usize, (), _>(&par(), 0, |r| Ok(r.collect())).unwrap();
        assert!(out.is_empty());
        assert_eq!(morsels, 0);
    }

    #[test]
    fn sort_indices_matches_serial() {
        let keys: Vec<u32> = (0..500).map(|i| (i * 7919) % 101).collect();
        let cmp = |a: u32, b: u32| keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b));
        let (par_sorted, morsels) = sort_indices(&par(), keys.len(), cmp);
        let (serial, _) = sort_indices(&ParConfig::serial(), keys.len(), cmp);
        assert!(morsels > 1);
        assert_eq!(par_sorted, serial);
        assert!(par_sorted
            .windows(2)
            .all(|w| cmp(w[0], w[1]) != Ordering::Greater));
    }

    #[test]
    fn config_gates() {
        let cfg = ParConfig::default();
        assert!(!ParConfig::serial().parallel_for(1_000_000));
        assert!(!ParConfig::with_threads(4).parallel_for(10));
        assert!(cfg.morsel_size(0) >= 1);
        let fixed = ParConfig {
            morsel_rows: 7,
            ..cfg
        };
        assert_eq!(fixed.morsel_size(1_000_000), 7);
    }

    #[test]
    fn vec_mode_gates() {
        let auto = ParConfig::default();
        assert!(auto.vectorize(100_000));
        assert!(!auto.vectorize(8));
        let off = ParConfig {
            vec: VecMode::Off,
            ..auto
        };
        assert!(!off.vectorize(100_000));
        let force = ParConfig {
            vec: VecMode::Force,
            ..auto
        };
        assert!(force.vectorize(1));
        assert!(!force.vectorize(0));
    }
}
