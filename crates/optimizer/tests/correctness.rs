//! Optimizer correctness: every query of the core end-to-end suite must
//! produce identical results with and without optimisation, and the
//! optimizer must actually shrink loop-lifted plans.

use ferry::prelude::*;
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::Database;
use ferry_optimizer::{optimize_report, reachable_size};

fn database() -> Database {
    let db = Database::new();
    db.create_table("nums", Schema::of(&[("n", Ty::Int)]), vec!["n"])
        .unwrap();
    db.insert(
        "nums",
        (1..=7).map(|i| vec![Value::Int(i * 3 % 5)]).collect(),
    )
    .unwrap();
    db.create_table(
        "emp",
        Schema::of(&[("dept", Ty::Str), ("name", Ty::Str), ("sal", Ty::Int)]),
        vec!["name"],
    )
    .unwrap();
    db.insert(
        "emp",
        vec![
            vec![Value::str("eng"), Value::str("ada"), Value::Int(90)],
            vec![Value::str("eng"), Value::str("bob"), Value::Int(70)],
            vec![Value::str("ops"), Value::str("cy"), Value::Int(50)],
        ],
    )
    .unwrap();
    db
}

/// Execute `q` with and without the optimizer; results must match and the
/// optimized plan must not be larger.
fn check<T: QA + PartialEq + std::fmt::Debug>(q: &Q<T>) -> T {
    let plain = Connection::new(database());
    let optimized = Connection::new(database()).with_optimizer(ferry_optimizer::rewriter());
    let a = plain.from_q(q).expect("unoptimized run");
    let b = optimized.from_q(q).expect("optimized run");
    assert_eq!(a, b, "optimizer changed the result");

    let bundle = plain.compile(q).expect("compile");
    let roots = bundle.roots();
    let (p2, r2, report) = optimize_report(&bundle.plan, &roots);
    // join recovery may add a bounded number of operators (rotated
    // projections) in exchange for dissolving cross products — the plan
    // must stay within a small constant factor
    assert!(
        report.nodes_after <= report.nodes_before * 2,
        "optimizer exploded the plan: {report:?}"
    );
    for r in r2 {
        ferry_algebra::validate(&p2, r).expect("optimized plan validates");
    }
    a
}

fn emp() -> Q<Vec<(String, String, i64)>> {
    table::<(String, String, i64)>("emp")
}

#[test]
fn simple_pipelines() {
    check(&table::<i64>("nums"));
    check(&map(|x: Q<i64>| x.clone() * x, table::<i64>("nums")));
    check(&filter(|x: Q<i64>| x.gt(&toq(&1i64)), table::<i64>("nums")));
    check(&sum(table::<i64>("nums")));
}

#[test]
fn nested_results() {
    check(&group_with(
        |x: Q<i64>| x % toq(&2i64),
        table::<i64>("nums"),
    ));
    check(&map(|x: Q<i64>| list([x.clone(), x]), table::<i64>("nums")));
    check(&toq(&vec![vec![1i64], vec![], vec![2, 3]]));
}

#[test]
fn grouping_aggregation_pipeline() {
    let q = map(
        |g: Q<Vec<(String, String, i64)>>| {
            pair(
                the(map(|e: Q<(String, String, i64)>| e.proj3_0(), g.clone())),
                sum(map(|e: Q<(String, String, i64)>| e.proj3_2(), g)),
            )
        },
        group_with(|e: Q<(String, String, i64)>| e.proj3_0(), emp()),
    );
    let r = check(&q);
    assert_eq!(r, vec![("eng".to_string(), 160), ("ops".to_string(), 50)]);
}

#[test]
fn conditionals_and_appends() {
    check(&cond(
        length(emp()).gt(&toq(&2i64)),
        toq(&vec![1i64, 2]),
        toq(&vec![3i64]),
    ));
    check(&append(table::<i64>("nums"), toq(&vec![99i64])));
    check(&concat_map(
        |x: Q<i64>| {
            cond(
                (x.clone() % toq(&2i64)).eq(&toq(&0i64)),
                list([x]),
                empty::<i64>(),
            )
        },
        table::<i64>("nums"),
    ));
}

#[test]
fn optimizer_narrows_realistic_plans() {
    // the query touches only dept and sal; the name column is dead weight
    // that loop-lifting drags through every join — pruning must remove it
    let conn = Connection::new(database());
    let q = map(
        |g: Q<Vec<(String, String, i64)>>| {
            pair(
                the(map(|e: Q<(String, String, i64)>| e.proj3_0(), g.clone())),
                sum(map(|e: Q<(String, String, i64)>| e.proj3_2(), g)),
            )
        },
        group_with(|e: Q<(String, String, i64)>| e.proj3_0(), emp()),
    );
    let bundle = conn.compile(&q).unwrap();
    let roots = bundle.roots();
    let before_nodes = reachable_size(&bundle.plan, &roots);
    let before_width = ferry_optimizer::reachable_width(&bundle.plan, &roots);
    let (p2, r2, report) = optimize_report(&bundle.plan, &roots);
    assert_eq!(report.nodes_before, before_nodes);
    assert_eq!(report.nodes_after, reachable_size(&p2, &r2));
    let after_width = ferry_optimizer::reachable_width(&p2, &r2);
    // join recovery may add thin projections; total column traffic must
    // stay in the same ballpark
    assert!(
        after_width <= before_width * 2,
        "width exploded: {before_width} → {after_width}"
    );
}

#[test]
fn constant_filter_reaches_the_plan_as_a_select() {
    // loop-lifting compiles `filter (== 37)` into `attach k := 37` on the
    // loop side and a self-join of loop × table on (iter, pos) that brings
    // the constant beside the column; join elimination sees one relation
    // joined with itself on its key and leaves a plain selection
    let q = filter(
        |e: Q<(String, String, i64)>| e.proj3_2().eq(&toq(&37i64)),
        emp(),
    );
    assert!(check(&q).is_empty());
    let conn = Connection::new(database()).with_optimizer(ferry_optimizer::rewriter());
    let bundle = conn.compile(&q).unwrap();
    let root = bundle.queries[0].root;
    let rendered = ferry_algebra::pretty::render(&bundle.plan, root);
    let nodes = || {
        bundle
            .plan
            .reachable(root)
            .into_iter()
            .map(|id| bundle.plan.node(id))
    };
    use ferry_algebra::Node;
    assert!(
        !nodes().any(|n| matches!(
            n,
            Node::EquiJoin { .. } | Node::CrossJoin { .. } | Node::ThetaJoin { .. }
        )),
        "a join survives in\n{rendered}"
    );
    assert!(
        !nodes().any(|n| matches!(
            n,
            Node::Attach {
                value: Value::Int(37),
                ..
            }
        )),
        "the constant is still attached as a column in\n{rendered}"
    );
    assert!(
        nodes().any(|n| matches!(n, Node::Select { pred, .. } if pred.to_string() == "(t3 = 37)")),
        "no Select(t3 = 37) in\n{rendered}"
    );
}

#[test]
fn optimized_plans_still_validate() {
    let conn = Connection::new(database());
    let q = group_with(|x: Q<i64>| x % toq(&2i64), table::<i64>("nums"));
    let bundle = conn.compile(&q).unwrap();
    let (p2, r2) = ferry_optimizer::optimize(&bundle.plan, &bundle.roots());
    for r in r2 {
        ferry_algebra::validate(&p2, r).expect("optimized plan validates");
    }
}
