//! The shared backend end-to-end suite.
//!
//! Every query here runs through **both** execution backends behind the
//! [`ferry::Backend`] trait — [`AlgebraBackend`] (plans straight to the
//! engine) and [`ferry_sql::SqlBackend`] (generate SQL:1999 → parse →
//! bind → execute) — with and without the optimizer, and each result is
//! compared against the reference interpreter. The two tails of Fig. 2
//! are interchangeable or they are broken.

use ferry::prelude::*;
use ferry::Backend;
use ferry_bench::table1::dsh_query;
use ferry_bench::workload::paper_dataset;
use ferry_sql::SqlBackend;
use std::sync::Arc;

fn backends() -> Vec<Arc<dyn Backend>> {
    vec![Arc::new(AlgebraBackend), Arc::new(SqlBackend)]
}

/// Run `q` on every (backend × optimizer) configuration; all four
/// database results must equal the interpreter's value, and each run
/// must dispatch exactly one engine query per bundle member (no double
/// dispatch hiding inside a backend).
fn check<T: QA + PartialEq + std::fmt::Debug>(q: &Q<T>) -> T {
    let mut results = Vec::new();
    for backend in backends() {
        for optimize in [false, true] {
            let mut conn = Connection::new(paper_dataset()).with_backend(backend.clone());
            if optimize {
                conn = conn.with_optimizer(ferry_optimizer::rewriter());
            }
            let members = conn.compile(q).unwrap().queries.len() as u64;
            conn.database().reset_stats();
            let via_db = conn.from_q(q).unwrap();
            let stats = conn.database().stats();
            assert_eq!(
                stats.queries,
                members,
                "backend {}, optimize={optimize}: one dispatch per bundle member",
                backend.name()
            );
            // the decoder against its oracle, `from_val` of the stitched
            // value, on this backend's relations
            let stitched = T::from_val(&conn.from_q_val(q).unwrap()).unwrap();
            assert_eq!(
                via_db,
                stitched,
                "backend {}, optimize={optimize}: decode differs from from_val of stitch",
                backend.name()
            );
            let oracle = conn.interpret(q).unwrap();
            assert_eq!(
                via_db,
                oracle,
                "backend {}, optimize={optimize} disagrees with the interpreter",
                backend.name()
            );
            results.push(via_db);
        }
    }
    results.pop().unwrap()
}

#[test]
fn running_example_on_both_backends() {
    let result = check(&dsh_query());
    assert_eq!(result.len(), 5);
    assert_eq!(result[0].0, "API");
}

#[test]
fn flat_projection_on_both_backends() {
    let q = ferry::comp!(
        (fac.clone())
        for (cat, fac) in table::<(String, String)>("facilities"),
        if cat.eq(&toq(&"QLA".to_string()))
    );
    let result = check(&q);
    assert!(result.contains(&"SQL".to_string()));
}

#[test]
fn join_on_both_backends() {
    let q = ferry::comp!(
        (pair(fac, mean))
        for (fac, feat1) in table::<(String, String)>("features"),
        for (feat2, mean) in table::<(String, String)>("meanings"),
        if feat1.eq(&feat2)
    );
    let result = check(&q);
    assert!(!result.is_empty());
}

#[test]
fn aggregate_on_both_backends() {
    let q = length(table::<(String, String)>("facilities"));
    let n = check(&q);
    assert!(n > 0);
}

#[test]
fn nested_grouping_on_both_backends() {
    let q = map(
        |g: Q<Vec<(String, String)>>| {
            pair(
                the(map(|p: Q<(String, String)>| p.fst(), g.clone())),
                map(|p: Q<(String, String)>| p.snd(), g),
            )
        },
        group_with(
            |p: Q<(String, String)>| p.fst(),
            table::<(String, String)>("facilities"),
        ),
    );
    let result = check(&q);
    assert_eq!(result.len(), 5, "five categories");
}

#[test]
fn prepared_handles_work_on_both_backends() {
    for backend in backends() {
        let conn = Connection::new(paper_dataset())
            .with_backend(backend.clone())
            .with_optimizer(ferry_optimizer::rewriter());
        let prepared = conn.prepare(&dsh_query()).unwrap();
        let first = conn.execute(&prepared).unwrap();
        let second = conn.execute(&prepared).unwrap();
        assert_eq!(first, second, "backend {}", backend.name());
        assert_eq!(first, conn.interpret(&dsh_query()).unwrap());
    }
}

/// A literal list is one `Lit` node, which the SQL text spells as a
/// balanced `UNION ALL` tree: its depth grows as log2 of its length, so
/// the parser's depth budget never sees a long list.
#[test]
fn long_literal_lists_on_both_backends() {
    let xs: Vec<i64> = (0..1000).map(|i| i * 7 % 1000 - 500).collect();
    assert_eq!(check(&toq(&xs)), xs);
    let names: Vec<(i64, String)> = (0..257).map(|i| (i, format!("n{i}"))).collect();
    assert_eq!(check(&toq(&names)), names);
}

/// A 120-operator expression, left-deep and right-deep, is 122 levels of
/// the SQL text's tree: inside the parser's budget, although the code
/// generator parenthesises every operator. Both backends compute it.
#[test]
fn long_arithmetic_chains_on_both_backends() {
    use ferry_algebra::{BinOp, Dir, Expr, Plan, Schema, Ty, Value};
    let ops = 120;
    let op = |i: i64| if i % 2 == 0 { BinOp::Add } else { BinOp::Sub };
    // ((x + 0) - 1) + 2 …   and   0 + (1 - (2 + (… x)))
    let left = (0..ops).fold(Expr::col("x"), |e, i| Expr::bin(op(i), e, Expr::lit(i)));
    let right = (0..ops)
        .rev()
        .fold(Expr::col("x"), |e, i| Expr::bin(op(i), Expr::lit(i), e));
    let mut plan = Plan::new();
    let rows = (1..=3).map(|x| vec![Value::Int(x)]).collect();
    let lit = plan.lit(Schema::of(&[("x", Ty::Int)]), rows);
    let l = plan.compute(lit, "l", left);
    let r = plan.compute(l, "r", right);
    let cols = ["x", "l", "r"].map(Into::into).to_vec();
    let root = plan.serialize(r, vec![("x".into(), Dir::Asc)], cols);
    let db = paper_dataset();
    let snap = db.snapshot();
    let sql = SqlBackend.render_root(&snap, &plan, root).unwrap();
    assert!(sql.contains(&"(".repeat(ops as usize)), "{sql}");
    let expected: Vec<Vec<Value>> = (1..=3)
        .map(|x| {
            let l = (0..ops).fold(x, |e, i| if i % 2 == 0 { e + i } else { e - i });
            let r = (0..ops)
                .rev()
                .fold(x, |e, i| if i % 2 == 0 { i + e } else { i - e });
            vec![Value::Int(x), Value::Int(l), Value::Int(r)]
        })
        .collect();
    for backend in backends() {
        let rel = backend.execute_root(&snap, &plan, root).unwrap();
        assert_eq!(rel.rows().into_owned(), expected, "{}", backend.name());
    }
}
