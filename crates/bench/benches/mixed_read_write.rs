//! Mixed reader/writer latency: the number the MVCC refactor exists for.
//! Readers pin a snapshot and scan; a background writer commits paced
//! transactions the whole time. Under the old global `RwLock` every
//! commit stalled every reader; under MVCC the reader's p95 with a
//! writer present should sit on top of its reader-only p95.
//!
//! The evidence preamble measures both p95s directly and prints them
//! (for README / DESIGN documentation); the criterion benches time the
//! medians.
//!
//! Host caveat: CI runs on one core, so the writer is *paced* (it sleeps
//! between commits). An unpaced writer on a single core inflates reader
//! latency through CPU time-slicing, which measures the scheduler, not
//! the locking design. The writer also *replaces* its side table per
//! commit, keeping each commit O(side-table) instead of growing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferry_algebra::{plan::cn, BinOp, Expr, NodeId, Plan, Schema, Ty, Value};
use ferry_engine::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Rows in the table the readers scan.
const ROWS: usize = 20_000;
/// Rows the writer commits per transaction (into a replaced side table).
const WRITER_ROWS: usize = 32;
/// Pause between writer commits — see the pacing caveat above.
const WRITER_PACE: Duration = Duration::from_micros(500);

fn reader_db() -> Arc<Database> {
    let db = Database::new();
    db.create_table(
        "events",
        Schema::of(&[("id", Ty::Int), ("val", Ty::Int)]),
        vec!["id"],
    )
    .unwrap();
    db.insert(
        "events",
        (0..ROWS)
            .map(|i| vec![Value::Int(i as i64), Value::Int((i % 97) as i64)])
            .collect(),
    )
    .unwrap();
    Arc::new(db)
}

/// The read workload: pin a fresh snapshot, filter-scan `events`.
fn read_once(db: &Database, plan: &Plan, root: NodeId) -> usize {
    let snap = db.snapshot();
    snap.execute(plan, root).unwrap().len()
}

fn scan_plan() -> (Plan, NodeId) {
    let mut plan = Plan::new();
    let t = plan.table(
        "events",
        vec![(cn("id"), Ty::Int), (cn("val"), Ty::Int)],
        vec![cn("id")],
    );
    let root = plan.select(
        t,
        Expr::bin(BinOp::Ge, Expr::col("val"), Expr::lit(Value::Int(90))),
    );
    (plan, root)
}

/// Spawn the paced background writer; returns (stop flag, join handle).
fn spawn_writer(db: &Arc<Database>) -> (Arc<AtomicBool>, thread::JoinHandle<u64>) {
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let db = db.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.transact(|tx| {
                    tx.create_table(
                        "side",
                        Schema::of(&[("k", Ty::Int), ("v", Ty::Int)]),
                        vec!["k"],
                    )?;
                    tx.insert(
                        "side",
                        (0..WRITER_ROWS)
                            .map(|i| vec![Value::Int(i as i64), Value::Int(commits as i64)])
                            .collect(),
                    )
                })
                .unwrap();
                commits += 1;
                thread::sleep(WRITER_PACE);
            }
            commits
        })
    };
    (stop, handle)
}

fn p95(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() * 95 / 100]
}

fn sample_reads(db: &Database, plan: &Plan, root: NodeId, n: usize) -> Vec<Duration> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(read_once(db, plan, root));
            t.elapsed()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let db = reader_db();
    let (plan, root) = scan_plan();
    const PROBE: usize = 300;

    // evidence preamble: reader p95 alone vs under a live writer
    sample_reads(&db, &plan, root, 50); // warm-up
    let alone = sample_reads(&db, &plan, root, PROBE);
    let (stop, writer) = spawn_writer(&db);
    thread::sleep(Duration::from_millis(5)); // writer is definitely live
    let contended = sample_reads(&db, &plan, root, PROBE);
    stop.store(true, Ordering::Relaxed);
    let commits = writer.join().unwrap();
    let (p_alone, p_cont) = (p95(alone), p95(contended));
    eprintln!(
        "mixed_read_write: reader p95 alone {p_alone:?}, with writer {p_cont:?} \
         ({commits} commits landed, epoch now {})",
        db.epoch()
    );
    assert!(commits > 0, "the background writer never committed");

    let mut g = c.benchmark_group("concurrency");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("read_only", ROWS), &ROWS, |b, _| {
        b.iter(|| read_once(&db, &plan, root))
    });
    g.bench_with_input(BenchmarkId::new("read_with_writer", ROWS), &ROWS, |b, _| {
        let (stop, writer) = spawn_writer(&db);
        b.iter(|| read_once(&db, &plan, root));
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
