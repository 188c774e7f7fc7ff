//! Group-commit throughput: N concurrent writers sharing batched fsyncs
//! versus the same commit count paying one fsync each, over a FaultFs
//! with simulated device latency (`set_sync_delay`) — without it every
//! fsync is a memcpy and batching has nothing to amortise.
//!
//! Alongside the timed medians the bench prints the measured
//! fsyncs-per-commit ratio, the number the paper-repro acceptance pins
//! (≥ 4× fewer fsyncs at 8 writers; the engine test
//! `concurrent_writers_share_fsyncs_at_least_4x_and_stay_durable`
//! enforces it, this bench records it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::{Database, DurabilityConfig, FsyncPolicy};
use ferry_storage::{FaultFs, Vfs};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Total commits per iteration (divisible by `WRITERS`).
const COMMITS: usize = 200;
const WRITERS: usize = 8;
/// Simulated fsync latency — modest for bench runtime; the sharing ratio
/// is about overlap, not the absolute delay.
const SYNC_DELAY: Duration = Duration::from_micros(200);

fn open_db() -> (Arc<FaultFs>, Arc<Database>) {
    let vfs = Arc::new(FaultFs::new());
    let db = Database::open_vfs(
        vfs.clone() as Arc<dyn Vfs>,
        DurabilityConfig::with_fsync(FsyncPolicy::Always),
    )
    .unwrap();
    db.create_table(
        "ledger",
        Schema::of(&[("writer", Ty::Int), ("seq", Ty::Int)]),
        vec!["writer", "seq"],
    )
    .unwrap();
    vfs.set_sync_delay(SYNC_DELAY);
    (vfs, Arc::new(db))
}

fn commit_burst(db: &Arc<Database>, writers: usize) {
    let per_writer = COMMITS / writers;
    if writers == 1 {
        for seq in 0..COMMITS {
            db.insert("ledger", vec![vec![Value::Int(0), Value::Int(seq as i64)]])
                .unwrap();
        }
        return;
    }
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                for seq in 0..per_writer {
                    db.insert(
                        "ledger",
                        vec![vec![Value::Int(w as i64), Value::Int(seq as i64)]],
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn fsyncs_for(writers: usize) -> u64 {
    let (vfs, db) = open_db();
    let base = vfs.syncs();
    commit_burst(&db, writers);
    vfs.syncs() - base
}

fn bench(c: &mut Criterion) {
    // evidence line: measured fsync sharing at the acceptance shape
    let solo = fsyncs_for(1);
    let grouped = fsyncs_for(WRITERS);
    eprintln!(
        "group_commit: {COMMITS} commits -> {solo} fsyncs serial, \
         {grouped} fsyncs at {WRITERS} writers ({:.1}x fewer)",
        solo as f64 / grouped as f64
    );
    assert!(
        grouped * 2 <= solo,
        "group commit stopped sharing fsyncs: {grouped} vs {solo}"
    );

    let mut g = c.benchmark_group("storage");
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::new("group_commit_w8", COMMITS),
        &COMMITS,
        |b, _| {
            // open outside the timed body: we measure commits, not recovery
            let (_vfs, db) = open_db();
            b.iter(|| commit_burst(&db, WRITERS));
        },
    );
    g.bench_with_input(
        BenchmarkId::new("always_serial", COMMITS),
        &COMMITS,
        |b, _| {
            let (_vfs, db) = open_db();
            b.iter(|| commit_burst(&db, 1));
        },
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
