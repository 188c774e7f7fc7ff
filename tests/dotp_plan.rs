//! **Experiment F5/F6.** Sparse-vector multiplication: the DSH side of
//! Fig. 6 must contain the structural backbone the figure shows —
//! `bpermuteP` as an equi-join over positions, the lifted multiplication,
//! and `sumP` as a grouped SUM — and all three implementations must agree
//! numerically.

use ferry::prelude::*;
use ferry_algebra::{AggFun, Node};
use ferry_bench::dotp::{dotp_data, dotp_database, dotp_query, dotp_scalar, dotp_vectorised};

#[test]
fn fig5_instance_agrees_everywhere() {
    let sv = vec![(1i64, 0.1f64), (3, 1.0), (4, 0.0)];
    let v = vec![10.0, 20.0, 30.0, 40.0, 50.0];
    let expected = 42.0;
    assert_eq!(dotp_scalar(&sv, &v), expected);
    assert_eq!(dotp_vectorised(&sv, &v), expected);
    for optimize in [false, true] {
        let conn = if optimize {
            Connection::new(dotp_database(&sv, &v)).with_optimizer(ferry_optimizer::rewriter())
        } else {
            Connection::new(dotp_database(&sv, &v))
        };
        assert_eq!(conn.from_q(&dotp_query()).unwrap(), expected);
    }
}

#[test]
fn random_instances_agree() {
    for seed in 0..5 {
        let (sv, v) = dotp_data(40, 12, seed);
        let expected = dotp_scalar(&sv, &v);
        assert_eq!(dotp_vectorised(&sv, &v), expected);
        let conn =
            Connection::new(dotp_database(&sv, &v)).with_optimizer(ferry_optimizer::rewriter());
        let got = conn.from_q(&dotp_query()).unwrap();
        assert!(
            (got - expected).abs() < 1e-9,
            "seed {seed}: {got} vs {expected}"
        );
    }
}

#[test]
fn fig6_backbone_in_the_compiled_plan() {
    let (sv, v) = dotp_data(16, 4, 3);
    let conn = Connection::new(dotp_database(&sv, &v)).with_optimizer(ferry_optimizer::rewriter());
    let bundle = conn.compile(&dotp_query()).unwrap();
    assert_eq!(bundle.queries.len(), 1, "Float result ⇒ one query");
    let mut joins = 0;
    let mut crosses = 0;
    let mut mults = 0;
    let mut sums = 0;
    let reachable = bundle.plan.reachable(bundle.queries[0].root);
    for id in &reachable {
        match bundle.plan.node(*id) {
            Node::EquiJoin { .. } => joins += 1,
            Node::CrossJoin { .. } => crosses += 1,
            Node::Compute { expr, .. } if expr.to_string().contains('*') => mults += 1,
            Node::GroupBy { aggs, .. } => {
                sums += aggs.iter().filter(|a| a.fun == AggFun::Sum).count()
            }
            _ => {}
        }
    }
    // Fig. 6 draws one join. Ours keeps that one (bpermuteP ⇔ equi-join on
    // pos) plus the look-up that brings the sparse value back beside the
    // element it selected; every identity join loop-lifting added on the
    // way (15 equi-joins and a cross before join elimination) is gone.
    let rendered = ferry_algebra::pretty::render(&bundle.plan, bundle.queries[0].root);
    assert!(
        (1..=2).contains(&joins),
        "{joins} equi-joins in\n{rendered}"
    );
    assert_eq!(crosses, 0, "no cross join survives in\n{rendered}");
    let raw = Connection::new(dotp_database(&sv, &v))
        .compile(&dotp_query())
        .unwrap();
    assert!(
        reachable.len() < raw.plan_size(),
        "optimizing shrinks the plan: {} operators from {}",
        reachable.len(),
        raw.plan_size()
    );
    assert!(mults >= 1, "the lifted * of the comprehension");
    assert!(sums >= 1, "sumP ⇔ grouped SUM");
}

#[test]
fn empty_sparse_vector_sums_to_zero() {
    let conn = Connection::new(dotp_database(&[], &[1.0, 2.0]))
        .with_optimizer(ferry_optimizer::rewriter());
    assert_eq!(conn.from_q(&dotp_query()).unwrap(), 0.0);
}

#[test]
fn out_of_range_index_semantics() {
    // (!!) is partial. At the *top level* a missing row is a clean error
    // (see `stitch`); *inside a lifted computation* the iteration vanishes
    // from the relational encoding — the documented deviation D3 in
    // EXPERIMENTS.md: the reference interpreter errors, the database
    // silently skips the offending element.
    let conn = Connection::new(dotp_database(&[(99, 1.0)], &[1.0]))
        .with_optimizer(ferry_optimizer::rewriter());
    assert!(conn.interpret(&dotp_query()).is_err(), "oracle: hard error");
    assert_eq!(
        conn.from_q(&dotp_query()).unwrap(),
        0.0,
        "database: the out-of-range element drops out of the sum"
    );
    // a top-level (!!) out of range errors on both sides
    let top = index(toq(&vec![1i64, 2]), toq(&9i64));
    assert!(conn.from_q(&top).is_err());
    assert!(conn.interpret(&top).is_err());
}
