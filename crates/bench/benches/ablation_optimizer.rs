//! **Experiment X1 — optimizer ablation.** Loop-lifting is deliberately
//! compositional; the Pathfinder-role rewriter (`ferry-optimizer`) exists
//! to make the emitted plans executable at reasonable cost (§3, \[10, 11\]).
//! This bench quantifies the design choice: execution time of the running
//! example and of `dotp` under three plans — as loop-lifted (`raw`), fully
//! optimized (`optimized`), and optimized by every pass *except* join
//! elimination (`no_join_elimination`, composed here from the public pass
//! functions) — plus each plan's operator count and total column width
//! (printed once).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferry::prelude::*;
use ferry_algebra::{NodeId, Plan};
use ferry_bench::dotp::{dotp_data, dotp_database, dotp_query};
use ferry_bench::table1::dsh_query;
use ferry_bench::workload::scaled_dataset;
use ferry_optimizer::{joins, optimize, passes, reachable_size, reachable_width};

/// `ferry_optimizer::optimize` minus `join_elimination`: join recovery,
/// then the cost-guarded rounds of the remaining passes.
fn optimize_without_join_elimination(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    let cost = |p: &Plan, r: &[NodeId]| reachable_size(p, r) + reachable_width(p, r);
    let (mut plan, mut roots) = joins::recover_joins(plan, roots);
    for _ in 0..8 {
        let (p, r) = passes::cse(&plan, &roots);
        let (p, r) = passes::fold_constants(&p, &r);
        let (p, r) = passes::prune_columns(&p, &r);
        let (p, r) = passes::merge_projects(&p, &r);
        if cost(&p, &r) >= cost(&plan, &roots) {
            break;
        }
        (plan, roots) = (p, r);
    }
    (plan, roots)
}

/// Bench one workload's three plans, printing their sizes first.
fn ablate<T: QA>(c: &mut Criterion, workload: &str, conn: &Connection, q: &Q<T>) {
    let bundle = conn.compile(q).expect("compile");
    let raw = (bundle.plan.clone(), bundle.roots());
    let variants = [
        ("optimized", optimize(&raw.0, &raw.1)),
        (
            "no_join_elimination",
            optimize_without_join_elimination(&raw.0, &raw.1),
        ),
        ("raw", raw),
    ];
    let mut group = c.benchmark_group("ablation_optimizer");
    group.sample_size(10);
    for (variant, (plan, roots)) in &variants {
        eprintln!(
            "{workload}/{variant}: {} operators, width {}",
            reachable_size(plan, roots),
            reachable_width(plan, roots)
        );
        group.bench_function(BenchmarkId::new(workload, variant), |b| {
            b.iter(|| conn.database().execute_bundle(plan, roots).expect("run"))
        });
    }
    group.finish();
}

fn bench_ablation(c: &mut Criterion) {
    // Workload sizes are chosen so the *unoptimized* plans stay runnable:
    // without join recovery, loop-lifted plans materialise loop × table
    // crosses, so the raw variants are quadratic in the data — which is
    // precisely the effect this ablation quantifies.

    // workload 1: the running example at 60 categories
    let conn = Connection::new(scaled_dataset(60, 2));
    ablate(c, "running_example", &conn, &dsh_query());

    // workload 2: dotp at 2k/200
    let (sv, v) = dotp_data(2_000, 200, 9);
    let conn = Connection::new(dotp_database(&sv, &v));
    ablate(c, "dotp", &conn, &dotp_query());
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
