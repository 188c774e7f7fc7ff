//! Engine micro-benchmarks: the bulk operators loop-lifted plans lean on
//! hardest (hash join, row numbering, grouping, duplicate elimination,
//! filtering, projection, serialization, expression evaluation). Not a
//! paper artefact: timings of the substrate that all measured
//! experiments run on, gated nowhere (the work ledger in
//! `tests/ledger.rs` pins what these operators do on the paper's
//! programs).
//!
//! Each operator runs on the production path, one kernel or typed sink
//! per plan node, under the ids `{operator}_fused/{rows}` — the suffix
//! predates the removal of the unfused kernel path and of pipeline
//! fusion, and keeps old records comparable. The row-at-a-time
//! oracle (`VecMode::Off`) is timed by no bench: no production query
//! runs it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferry_algebra::{
    plan::cn, plan::Aggregate, AggFun, BinOp, Dir, Expr, JoinCols, NodeId, Plan, Schema, Ty, Value,
};
use ferry_engine::Database;

fn int_table(rows: usize, modulus: i64) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| vec![Value::Int(i as i64), Value::Int(i as i64 % modulus)])
        .collect()
}

fn bench_fused(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    n: usize,
    plan: &Plan,
    root: NodeId,
) {
    let db = Database::new();
    group.bench_with_input(
        BenchmarkId::new(format!("{name}_fused"), n),
        &n,
        |bch, _| bch.iter(|| db.execute(plan, root).expect(name)),
    );
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    const N: usize = 50_000;
    const M: usize = 100_000;

    // hash join N × N on a key with ~N/10 duplicates
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(N, 10),
        );
        let r = plan.lit(
            Schema::of(&[("b", Ty::Int), ("j", Ty::Int)]),
            int_table(N, 50_000),
        );
        let j = plan.equi_join(l, r, JoinCols::single("a", "b"));
        bench_fused(&mut group, "equi_join", N, &plan, j);
    }

    // ROW_NUMBER over a 10-partition table
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(N, 10),
        );
        let rn = plan.rownum(l, "pos", vec![cn("k")], vec![(cn("a"), Dir::Asc)]);
        bench_fused(&mut group, "rownum", N, &plan, rn);
    }

    // grouped aggregation, 10 groups
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(N, 10),
        );
        let g = plan.group_by(
            l,
            vec![cn("k")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Sum,
                    input: Some(cn("a")),
                    output: cn("s"),
                },
            ],
        );
        bench_fused(&mut group, "group_by", N, &plan, g);
    }

    // duplicate elimination with heavy duplication
    {
        let mut plan = Plan::new();
        let l0 = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(N, 100),
        );
        let l = plan.project(l0, vec![(cn("k"), cn("k"))]);
        let d = plan.distinct(l);
        bench_fused(&mut group, "distinct", N, &plan, d);
    }

    // filter → project → sort at 100k rows: the copy-free chain — a
    // selection vector, then picked column `Arc`s, then a sorted
    // selection vector, all over the literal's shared columns
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(M, 10),
        );
        let f = plan.select(l, Expr::bin(BinOp::Lt, Expr::col("k"), Expr::lit(5i64)));
        bench_fused(&mut group, "filter", M, &plan, f);
        let pr = plan.project(f, vec![(cn("a"), cn("a"))]);
        bench_fused(&mut group, "project", M, &plan, pr);
        let ser = plan.serialize(pr, vec![(cn("a"), Dir::Desc)], vec![cn("a")]);
        bench_fused(&mut group, "serialize", M, &plan, ser);
    }

    // an 8-operator arithmetic expression in one `Compute` at 100k rows:
    // the expression-bound workload the batch kernels exist for
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
        bench_fused(&mut group, "compute_chain", M, &plan, cch);
    }

    // compute → filter-on-the-computed-column → row numbering at 100k
    // rows, one evaluation per node: the compute adds one column beside
    // the literal's shared ones, the filter keeps 30% of the rows as a
    // selection vector over them, and the window gathers only those
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(M, 10),
        );
        let y = plan.compute(
            l,
            "y",
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::col("a"), Expr::lit(3i64)),
                Expr::col("k"),
            ),
        );
        let f = plan.select(
            y,
            Expr::bin(
                BinOp::Lt,
                Expr::bin(BinOp::Mod, Expr::col("y"), Expr::lit(10i64)),
                Expr::lit(3i64),
            ),
        );
        let rn = plan.rownum(f, "pos", vec![cn("k")], vec![(cn("y"), Dir::Asc)]);
        bench_fused(&mut group, "filter_rownum", M, &plan, rn);
    }

    // scan → filter → join-probe: 100k probe rows filtered to 10k, joined
    // against a 10k build side. The filter's selection vector is the
    // join's probe input
    {
        let mut plan = Plan::new();
        let probe = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(M, 10),
        );
        let build = plan.lit(
            Schema::of(&[("b", Ty::Int), ("j", Ty::Int)]),
            int_table(10_000, 10),
        );
        let f = plan.select(
            probe,
            Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(10_000i64)),
        );
        let j = plan.equi_join(f, build, JoinCols::single("a", "b"));
        bench_fused(&mut group, "scan_filter_join_probe", M, &plan, j);
    }

    // filter selectivity sweep at 100k rows: 1% / 50% / 99% of rows kept.
    // The kernel→selection-vector path pays per *input* row
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(M, 10),
        );
        for (tag, cutoff) in [("1", 1_000i64), ("50", 50_000), ("99", 99_000)] {
            let f = plan.select(l, Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(cutoff)));
            bench_fused(&mut group, &format!("filter_sel{tag}"), M, &plan, f);
        }
    }

    // typed grouped aggregation at 100k rows over every typed
    // accumulator family (count / sum / min / max / avg)
    {
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]),
            int_table(M, 10),
        );
        let g = plan.group_by(
            l,
            vec![cn("k")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Sum,
                    input: Some(cn("a")),
                    output: cn("s"),
                },
                Aggregate {
                    fun: AggFun::Min,
                    input: Some(cn("a")),
                    output: cn("lo"),
                },
                Aggregate {
                    fun: AggFun::Max,
                    input: Some(cn("a")),
                    output: cn("hi"),
                },
                Aggregate {
                    fun: AggFun::Avg,
                    input: Some(cn("a")),
                    output: cn("avg"),
                },
            ],
        );
        bench_fused(&mut group, "group_by_typed", M, &plan, g);
    }

    // hash join N × N on a composite (Int, Str) key, one match per row:
    // the shape of loop-lifting's iteration-context joins. The two sides
    // are separate buffers listing the keys in different orders, so their
    // string dictionaries number the tags differently
    {
        let tags = ["alpha", "beta", "gamma", "delta"];
        let keyed = |i: usize| vec![Value::Int((i / 4) as i64), Value::str(tags[i % 4])];
        let mut plan = Plan::new();
        let l = plan.lit(
            Schema::of(&[("a", Ty::Int), ("s", Ty::Str)]),
            (0..N).map(keyed).collect(),
        );
        let r = plan.lit(
            Schema::of(&[("b", Ty::Int), ("t", Ty::Str)]),
            (0..N).map(|i| keyed(N - 1 - i)).collect(),
        );
        let on = JoinCols {
            left: vec![cn("a"), cn("s")],
            right: vec![cn("b"), cn("t")],
        };
        let j = plan.equi_join(l, r, on);
        bench_fused(&mut group, "equi_join_composite", N, &plan, j);
    }

    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
