//! **Experiment P1 + the library's central correctness property.**
//!
//! * *Oracle equivalence*: for randomised pipelines over randomised
//!   databases, `compile → (optimize) → execute → stitch → decode` must
//!   equal the reference interpreter **exactly, including list order**
//!   (List Order Preservation, §4.1).
//! * *Avalanche safety*: the bundle size is a function of the result type
//!   alone — never of the data (§3.2).

use ferry::prelude::*;
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::Database;
use proptest::prelude::*;

/// One pipeline stage over `Q<Vec<i64>>`. Constants are kept small so no
/// run hits integer overflow (which both sides treat as a runtime error,
/// but which would make shrunk counter-examples noisy).
#[derive(Debug, Clone)]
enum Stage {
    MapAdd(i64),
    MapMul(i64),
    FilterGt(i64),
    FilterEven,
    Reverse,
    Take(i64),
    Drop(i64),
    Nub,
    SortAsc,
    SortDesc,
    AppendConst(Vec<i64>),
    Cons(i64),
    /// `concat (group_with (x mod k))` — a nested round trip
    GroupConcat(i64),
    /// keep elements that occur in the (re-read) table
    SelfSemi,
    TakeWhileLt(i64),
    DropWhileLt(i64),
}

/// Terminal shape of the pipeline.
#[derive(Debug, Clone)]
enum Finish {
    List,
    Sum,
    Length,
    MaximumGuarded,
    AnyGt(i64),
    NullCheck,
    GroupNested(i64),
    ZipSelf,
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (-20i64..20).prop_map(Stage::MapAdd),
        (-3i64..4).prop_map(Stage::MapMul),
        (-30i64..30).prop_map(Stage::FilterGt),
        Just(Stage::FilterEven),
        Just(Stage::Reverse),
        (0i64..10).prop_map(Stage::Take),
        (0i64..10).prop_map(Stage::Drop),
        Just(Stage::Nub),
        Just(Stage::SortAsc),
        Just(Stage::SortDesc),
        proptest::collection::vec(-20i64..20, 0..4).prop_map(Stage::AppendConst),
        (-20i64..20).prop_map(Stage::Cons),
        (1i64..5).prop_map(Stage::GroupConcat),
        Just(Stage::SelfSemi),
        (-20i64..20).prop_map(Stage::TakeWhileLt),
        (-20i64..20).prop_map(Stage::DropWhileLt),
    ]
}

fn finish_strategy() -> impl Strategy<Value = Finish> {
    prop_oneof![
        Just(Finish::List),
        Just(Finish::Sum),
        Just(Finish::Length),
        Just(Finish::MaximumGuarded),
        (-20i64..20).prop_map(Finish::AnyGt),
        Just(Finish::NullCheck),
        (1i64..4).prop_map(Finish::GroupNested),
        Just(Finish::ZipSelf),
    ]
}

fn apply_stage(q: Q<Vec<i64>>, s: &Stage) -> Q<Vec<i64>> {
    match s {
        Stage::MapAdd(k) => map(move |x: Q<i64>| x + toq(k), q),
        Stage::MapMul(k) => map(move |x: Q<i64>| x * toq(k), q),
        Stage::FilterGt(k) => filter(move |x: Q<i64>| x.gt(&toq(k)), q),
        Stage::FilterEven => filter(|x: Q<i64>| (x % toq(&2i64)).eq(&toq(&0i64)), q),
        Stage::Reverse => reverse(q),
        Stage::Take(k) => take(toq(k), q),
        Stage::Drop(k) => drop(toq(k), q),
        Stage::Nub => nub(q),
        Stage::SortAsc => sort_with(|x: Q<i64>| x, q),
        Stage::SortDesc => sort_with(|x: Q<i64>| -x, q),
        Stage::AppendConst(v) => append(q, toq(v)),
        Stage::Cons(k) => cons(toq(k), q),
        Stage::GroupConcat(k) => concat(group_with(move |x: Q<i64>| x % toq(k), q)),
        Stage::SelfSemi => filter(|x: Q<i64>| elem(x, table::<i64>("nums")), q),
        Stage::TakeWhileLt(k) => take_while(move |x: Q<i64>| x.lt(&toq(k)), q),
        Stage::DropWhileLt(k) => drop_while(move |x: Q<i64>| x.lt(&toq(k)), q),
    }
}

fn database(rows: &[i64]) -> Database {
    let db = Database::new();
    db.create_table("nums", Schema::of(&[("n", Ty::Int)]), vec![])
        .unwrap();
    db.insert("nums", rows.iter().map(|&i| vec![Value::Int(i)]).collect())
        .unwrap();
    db
}

fn build(stages: &[Stage]) -> Q<Vec<i64>> {
    let mut q = table::<i64>("nums");
    for s in stages {
        q = apply_stage(q, s);
    }
    q
}

/// Compare database execution (optimized and raw) against the interpreter.
fn check<T: QA + PartialEq + std::fmt::Debug>(db_rows: &[i64], q: &Q<T>) {
    for optimize in [false, true] {
        let conn = if optimize {
            Connection::new(database(db_rows)).with_optimizer(ferry_optimizer::rewriter())
        } else {
            Connection::new(database(db_rows))
        };
        let via_db = conn.from_q(q).expect("database run");
        // the decoder against its oracle, `from_val` of the stitched value
        let stitched = conn.from_q_val(q).and_then(|v| T::from_val(&v));
        assert_eq!(stitched.as_ref(), Ok(&via_db), "optimize={optimize}");
        let oracle = conn.interpret(q).expect("interpreter run");
        assert_eq!(via_db, oracle, "optimize={optimize}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn oracle_equivalence(
        rows in proptest::collection::vec(-25i64..25, 0..14),
        stages in proptest::collection::vec(stage_strategy(), 0..5),
        finish in finish_strategy(),
    ) {
        let pipeline = build(&stages);
        match finish {
            Finish::List => check(&rows, &pipeline),
            Finish::Sum => check(&rows, &sum(pipeline)),
            Finish::Length => check(&rows, &length(pipeline)),
            Finish::MaximumGuarded => {
                // guard against the empty list: maximum is partial
                check(&rows, &maximum(cons(toq(&0i64), pipeline)))
            }
            Finish::AnyGt(k) => check(&rows, &ferry::ops::any(move |x: Q<i64>| x.gt(&toq(&k)), pipeline)),
            Finish::NullCheck => check(&rows, &null(pipeline)),
            Finish::GroupNested(k) => {
                check(&rows, &group_with(move |x: Q<i64>| x % toq(&k), pipeline))
            }
            Finish::ZipSelf => {
                check(&rows, &zip(pipeline.clone(), reverse(pipeline)))
            }
        }
    }

    #[test]
    fn avalanche_safety_is_type_determined(
        rows_a in proptest::collection::vec(-9i64..9, 0..4),
        rows_b in proptest::collection::vec(-9i64..9, 40..60),
        stages in proptest::collection::vec(stage_strategy(), 0..4),
    ) {
        // two databases of very different size: identical bundle sizes
        let q = group_with(|x: Q<i64>| x, build(&stages));
        let small = Connection::new(database(&rows_a));
        let large = Connection::new(database(&rows_b));
        let b_small = small.compile(&q).expect("compile small");
        let b_large = large.compile(&q).expect("compile large");
        prop_assert_eq!(b_small.queries.len(), 2);
        prop_assert_eq!(b_large.queries.len(), 2);
        // and the count matches the static type: [[i64]] has 2 list ctors
        prop_assert_eq!(b_small.queries.len(), <Vec<Vec<i64>> as QA>::ty().bundle_size());
    }

    #[test]
    fn query_count_observed_equals_bundle_size(
        rows in proptest::collection::vec(-9i64..9, 0..20),
        stages in proptest::collection::vec(stage_strategy(), 0..3),
    ) {
        let q = build(&stages);
        let conn = Connection::new(database(&rows));
        let bundle = conn.compile(&q).expect("compile");
        conn.database().reset_stats();
        let _ = conn.from_q(&q).expect("run");
        prop_assert_eq!(conn.database().stats().queries, bundle.queries.len() as u64);
    }
}
