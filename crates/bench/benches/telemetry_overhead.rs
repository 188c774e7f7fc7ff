//! Telemetry overhead: the same engine workloads under the three
//! [`TelemetryConfig`] levels.
//!
//! Each iteration does what an instrumented `from_q` does — begin a query
//! (a no-op guard below `Full`), execute, end the query — over the
//! `filter` and `compute_chain` plans of `engine_operators` (default
//! vectorized engine, so the `off` medians are directly comparable to
//! `engine/filter_fused` / `engine/compute_chain_fused`).
//! `off` vs `counters` isolates the atomic-counter cost per dispatch;
//! `counters` vs `full` adds span recording, per-node profile retention
//! and the trace-ring drain. No median is gated; `tests/telemetry.rs`
//! checks that `Off` accounts nothing and `Full` traces every node.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferry_algebra::{BinOp, ColName, Expr, NodeId, Plan, Schema, Ty, Value};
use ferry_engine::{Database, TelemetryConfig};
use std::sync::Arc;

fn int_table(rows: usize, modulus: i64) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| vec![Value::Int(i as i64), Value::Int(i as i64 % modulus)])
        .collect()
}

fn db_at(config: TelemetryConfig) -> Database {
    let db = Database::new();
    db.set_telemetry_config(config);
    db
}

fn bench_levels(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    n: usize,
    plan: &Plan,
    root: NodeId,
) {
    let levels = [
        ("off", TelemetryConfig::Off),
        ("counters", TelemetryConfig::Counters),
        ("full", TelemetryConfig::Full),
    ];
    for (tag, config) in levels {
        let db = db_at(config);
        let telemetry = db.telemetry().clone();
        group.bench_with_input(
            BenchmarkId::new(format!("{name}_{tag}"), n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    let _q = telemetry.begin_query(0);
                    db.execute(plan, root).expect(name)
                })
            },
        );
    }
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    const M: usize = 100_000;

    // filter at 100k rows — the short-per-node workload where fixed
    // per-dispatch costs show up the most
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(M, 10),
        );
        let f = plan.select(l, Expr::bin(BinOp::Lt, Expr::col("k"), Expr::lit(5i64)));
        bench_levels(&mut group, "filter", M, &plan, f);
    }

    // the 8-operator arithmetic expression at 100k rows — kernel-bound, so
    // relative overhead is small and per-span cost is what remains
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(M, 97),
        );
        let a = Expr::col("a");
        let k = Expr::col("k");
        // ((a*2 + k) * 3 - a) + (k * k) - (a % 7) + 1
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Sub,
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(
                        BinOp::Sub,
                        Expr::bin(
                            BinOp::Mul,
                            Expr::bin(
                                BinOp::Add,
                                Expr::bin(BinOp::Mul, a.clone(), Expr::lit(2i64)),
                                k.clone(),
                            ),
                            Expr::lit(3i64),
                        ),
                        a.clone(),
                    ),
                    Expr::bin(BinOp::Mul, k.clone(), k.clone()),
                ),
                Expr::bin(BinOp::Mod, a.clone(), Expr::lit(7i64)),
            ),
            Expr::lit(1i64),
        );
        let cch = plan.compute(l, "y", e);
        bench_levels(&mut group, "compute_chain", M, &plan, cch);
    }

    // a full `ferry.metrics` + `ferry.queries` scan: the cost of the
    // database describing itself — registry walk + profile-ring clone,
    // materialised into throwaway tables and filtered: the cost of the
    // system-table layer per scan.
    {
        let cn = |s: &str| -> ColName { Arc::from(s) };
        let db = db_at(TelemetryConfig::Counters);
        // prime both sources: a few dispatches populate the engine
        // counters and the profile ring
        let mut prime = Plan::new();
        let l = prime.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(64, 10),
        );
        let f = prime.select(l, Expr::bin(BinOp::Lt, Expr::col("k"), Expr::lit(5i64)));
        for _ in 0..32 {
            db.execute(&prime, f).expect("prime");
        }
        let mut plan = Plan::new();
        let m = plan.table(
            "ferry.metrics",
            vec![
                (cn("kind"), Ty::Str),
                (cn("name"), Ty::Str),
                (cn("value"), Ty::Int),
            ],
            vec![cn("name")],
        );
        let ms = plan.select(m, Expr::bin(BinOp::Ge, Expr::col("value"), Expr::lit(0i64)));
        let q = plan.table(
            "ferry.queries",
            vec![
                (cn("elapsed_us"), Ty::Int),
                (cn("nodes"), Ty::Int),
                (cn("plan_hash"), Ty::Int),
                (cn("query_id"), Ty::Int),
                (cn("roots"), Ty::Int),
                (cn("trace_id"), Ty::Int),
            ],
            vec![cn("query_id")],
        );
        let qs = plan.select(
            q,
            Expr::bin(BinOp::Ge, Expr::col("elapsed_us"), Expr::lit(0i64)),
        );
        group.bench_with_input(BenchmarkId::new("system_scan", 2), &2, |bch, _| {
            bch.iter(|| {
                let snap = db.snapshot();
                let a = snap.execute(&plan, ms).expect("ferry.metrics scan");
                let b = snap.execute(&plan, qs).expect("ferry.queries scan");
                (a, b)
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
