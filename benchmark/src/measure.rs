//! The closed-loop driver: `clients` threads each send their next run
//! only after the previous one completed, for a fixed time, and every
//! result is verified. One pass is either *plain* (untraced, what the
//! end-to-end metrics come from) or *staged* (each product call in a
//! span).

use crate::sut::{Counters, Res};
use crate::trace::Recorder;
use crate::workloads::Workload;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one pass over a workload observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latencies of the verified runs, ns, sorted.
    pub ok_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Of the failed: refused by admission control.
    pub refused: u64,
    /// From the common start to the last client's last run.
    pub wall: Duration,
    /// Product counters, as a delta over the pass.
    pub counters: Counters,
    pub recorders: Vec<Recorder>,
    /// The first few failure messages.
    pub complaints: Vec<String>,
}

impl Pass {
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Median latency of the verified runs, ms.
    pub fn p50_ms(&self) -> f64 {
        quantile_ms(&self.ok_ns, 0.5)
    }

    /// The highest of p90/p95/p99 that still has ten samples beyond it.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.ok_ns.len() as f64;
        [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)]
            .into_iter()
            .find(|(_, q)| n * (1.0 - q) >= 10.0)
            .map(|(name, q)| (name, quantile_ms(&self.ok_ns, q)))
    }

    /// Requests admission control turned away, as the clients saw them
    /// plus as the server counted them; asserted zero at ≤ `nproc`
    /// clients.
    pub fn refusals(&self) -> u64 {
        self.refused + self.counters.server_rejects
    }

    pub fn runs_per_s(&self) -> f64 {
        self.verified() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn quantile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let i = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[i] as f64 / 1e6
}

struct ClientTally {
    ok_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    complaints: Vec<String>,
    finished: Instant,
    recorder: Option<Recorder>,
}

const COMPLAINTS_KEPT: usize = 5;

/// Drive `clients` closed loops over `w` for `seconds`.
pub fn pass(w: &dyn Workload, clients: usize, seconds: f64, staged: bool) -> Res<Pass> {
    // clients build their state (connect, prepare) before `ready`; the
    // main thread reads the counters between `ready` and `go`, so the
    // delta covers the runs and nothing else
    let ready = Barrier::new(clients + 1);
    let go = Barrier::new(clients + 1);
    let epoch = Instant::now();
    let (before, start, tallies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| {
                let (ready, go) = (&ready, &go);
                scope.spawn(move || -> Res<ClientTally> {
                    let client = w.client(idx);
                    ready.wait();
                    go.wait();
                    let mut client = client?;
                    let mut recorder = staged.then(|| Recorder::new(epoch, idx));
                    let mut tally = ClientTally {
                        ok_ns: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        refused: 0,
                        complaints: Vec::new(),
                        finished: Instant::now(),
                        recorder: None,
                    };
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline || !client.at_boundary() {
                        let result = match recorder.as_mut() {
                            Some(rec) => client.run_staged(rec),
                            None => client.run(),
                        };
                        tally.attempted += 1;
                        match result.outcome {
                            Ok(()) => tally.ok_ns.push(result.ns),
                            Err(f) => {
                                tally.failed += 1;
                                tally.refused += f.refused as u64;
                                if tally.complaints.len() < COMPLAINTS_KEPT {
                                    tally.complaints.push(f.message);
                                }
                            }
                        }
                    }
                    tally.finished = Instant::now();
                    client.finish();
                    tally.recorder = recorder;
                    Ok(tally)
                })
            })
            .collect();
        ready.wait();
        let before = w.db().counters();
        let start = Instant::now();
        go.wait();
        let tallies: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect();
        (before, start, tallies)
    });
    let counters = w.db().counters().since(&before);
    let mut out = Pass {
        counters,
        ..Pass::default()
    };
    for tally in tallies {
        let t = tally?;
        out.ok_ns.extend(t.ok_ns);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.refused += t.refused;
        out.wall = out.wall.max(t.finished.duration_since(start));
        out.recorders.extend(t.recorder);
        for c in t.complaints {
            if out.complaints.len() < COMPLAINTS_KEPT {
                out.complaints.push(c);
            }
        }
    }
    out.ok_ns.sort_unstable();
    Ok(out)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Upper median of nanosecond samples (0 when there are none).
pub fn median_ns(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}
