//! Hash-partitioned shard benchmarks: what partition pruning buys a
//! shard-key equality scan, and how fast four shard WALs replay next to
//! the one commit log of an unsharded database (stored as one shard).
//! Not a paper artefact — the regression guard for the sharding layer.
//!
//! The `scan_pruned` / `scan_unsharded` pair is the acceptance check
//! for the planner: both run the identical plan over the identical
//! rows on one thread — the only difference is that the sharded
//! scan's selection vector covers one shard in four. The win is
//! pruned *rows*, so it holds on any host regardless of core count.
//! Recovery benches run over the in-memory `FaultFs` (codec + framing
//! cost, not disk): on a single-core host parallel shard replay must
//! not lose to one-shard replay, and on multi-core hosts the four
//! decoders run concurrently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferry_algebra::{plan::cn, BinOp, Expr, NodeId, Plan, Schema, Ty, Value};
use ferry_engine::{Database, DurabilityConfig, FsyncPolicy};
use ferry_storage::{FaultFs, Vfs};
use std::sync::Arc;

/// Shard count under test everywhere in this file.
const S: usize = 4;
/// Rows in the scanned table.
const N: usize = 200_000;
/// Insert batches logged before the recovery benches (each batch is one
/// commit: one frame at S = 1; split across the shard WALs plus a
/// commit marker at S = 4). Bulk-load shaped — recovery time should be
/// dominated by row payload decode, which both layouts share, not by
/// per-frame framing, which the four-shard layout pays 4× more often.
const BATCHES: usize = 64;
const BATCH_ROWS: usize = 256;

fn schema() -> Schema {
    Schema::of(&[("k", Ty::Int), ("v", Ty::Int)])
}

fn rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| vec![Value::Int(i as i64 % 1000), Value::Int(i as i64)])
        .collect()
}

/// `orders(k, v)` loaded into either a sharded (on `k`) or flat engine.
fn load(sharded: bool) -> Database {
    let db = if sharded {
        Database::new_sharded(S).expect("shard count")
    } else {
        Database::new()
    };
    if sharded {
        db.create_table_sharded("orders", schema(), vec!["k"], "k")
            .expect("create");
    } else {
        db.create_table("orders", schema(), vec!["k"])
            .expect("create");
    }
    db.insert("orders", rows(N)).expect("insert");
    db
}

fn scan_plan() -> (Plan, NodeId) {
    let mut plan = Plan::new();
    let t = plan.table(
        "orders",
        vec![(cn("k"), Ty::Int), (cn("v"), Ty::Int)],
        vec![cn("k")],
    );
    let root = plan.select(t, Expr::bin(BinOp::Eq, Expr::col("k"), Expr::lit(37i64)));
    (plan, root)
}

/// Schema of the recovered table: a string column alongside the ints so
/// replay decodes realistic (allocation-bearing) payloads.
fn wide_schema() -> Schema {
    Schema::of(&[("k", Ty::Int), ("v", Ty::Int), ("tag", Ty::Str)])
}

/// A durable database (sharded or flat) holding the full insert
/// workload, returned as the VFS its logs live on.
fn prebuilt(sharded: bool) -> Arc<FaultFs> {
    let vfs = Arc::new(FaultFs::new());
    let config = DurabilityConfig::with_fsync(FsyncPolicy::Os);
    let shards = if sharded { S } else { 0 };
    let db = Database::open_vfs(vfs.clone() as Arc<dyn Vfs>, shards, config).expect("open");
    if sharded {
        db.create_table_sharded("orders", wide_schema(), vec!["k"], "k")
            .expect("create");
    } else {
        db.create_table("orders", wide_schema(), vec!["k"])
            .expect("create");
    }
    for b in 0..BATCHES {
        let batch = (0..BATCH_ROWS)
            .map(|j| {
                let i = b * BATCH_ROWS + j;
                vec![
                    Value::Int(i as i64 % 1000),
                    Value::Int(i as i64),
                    Value::str(["alpha", "beta", "gamma"][i % 3]),
                ]
            })
            .collect();
        db.insert("orders", batch).expect("insert");
    }
    db.sync().expect("sync");
    vfs
}

fn bench_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard");

    // shard-key equality scan: pruned (1 of 4 shards) vs flat full scan
    {
        let (plan, root) = scan_plan();
        let sharded = load(true);
        let flat = load(false);
        let want = flat.execute(&plan, root).expect("flat scan");
        assert_eq!(sharded.execute(&plan, root).expect("pruned scan"), want);
        group.bench_with_input(BenchmarkId::new("scan_pruned", N), &N, |bch, _| {
            bch.iter(|| sharded.execute(&plan, root).expect("pruned scan"))
        });
        group.bench_with_input(BenchmarkId::new("scan_unsharded", N), &N, |bch, _| {
            bch.iter(|| flat.execute(&plan, root).expect("flat scan"))
        });
    }

    // recovery: replaying four shard WALs vs the one-shard commit log
    // of the same workload
    {
        let vfs = prebuilt(true);
        let config = DurabilityConfig::with_fsync(FsyncPolicy::Os);
        group.bench_with_input(
            BenchmarkId::new("recover_parallel", BATCHES),
            &BATCHES,
            |bch, _| {
                bch.iter(|| {
                    let db = Database::open_vfs(vfs.clone() as Arc<dyn Vfs>, S, config)
                        .expect("recover sharded");
                    let t = db.table("orders").expect("orders");
                    assert_eq!(t.rows.rows().len(), BATCHES * BATCH_ROWS);
                    t.rows.rows().len()
                })
            },
        );
        let flat_vfs = prebuilt(false);
        group.bench_with_input(
            BenchmarkId::new("recover_single", BATCHES),
            &BATCHES,
            |bch, _| {
                bch.iter(|| {
                    let db = Database::open_vfs(flat_vfs.clone() as Arc<dyn Vfs>, 0, config)
                        .expect("recover flat");
                    let t = db.table("orders").expect("orders");
                    assert_eq!(t.rows.rows().len(), BATCHES * BATCH_ROWS);
                    t.rows.rows().len()
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_sharding);
criterion_main!(benches);
