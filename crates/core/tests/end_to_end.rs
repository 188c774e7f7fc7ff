//! End-to-end tests: every combinator compiled via loop-lifting, executed
//! on the engine, stitched, and compared against the reference interpreter
//! (order-sensitive — List Order Preservation, §4.1 of the paper).

use ferry::prelude::*;
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::Database;

fn conn() -> Connection {
    let db = Database::new();
    db.create_table("nums", Schema::of(&[("n", Ty::Int)]), vec!["n"])
        .unwrap();
    db.insert(
        "nums",
        vec![
            vec![Value::Int(3)],
            vec![Value::Int(1)],
            vec![Value::Int(4)],
            vec![Value::Int(1)],
            vec![Value::Int(5)],
        ],
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
            vec![Value::str("eng"), Value::str("dan"), Value::Int(70)],
            vec![Value::str("hr"), Value::str("eve"), Value::Int(60)],
        ],
    )
    .unwrap();
    Connection::new(db)
}

/// Run on the database and on the interpreter; both must agree exactly.
fn check<T: QA + PartialEq + std::fmt::Debug>(conn: &Connection, q: &Q<T>) -> T {
    let db_result = conn.from_q(q).expect("database execution");
    let oracle = conn.interpret(q).expect("interpreter");
    assert_eq!(db_result, oracle, "database vs interpreter mismatch");
    db_result
}

// `nums` has a single column: rows are bare i64 in key (value) order.
fn nums() -> Q<Vec<i64>> {
    table::<i64>("nums")
}

// `emp` columns alphabetically: (dept, name, sal)
fn emp() -> Q<Vec<(String, String, i64)>> {
    table::<(String, String, i64)>("emp")
}

#[test]
fn table_in_key_order() {
    let c = conn();
    assert_eq!(check(&c, &nums()), vec![1, 1, 3, 4, 5]);
}

#[test]
fn map_over_table() {
    let c = conn();
    let q = map(|x: Q<i64>| x + toq(&100i64), nums());
    assert_eq!(check(&c, &q), vec![101, 101, 103, 104, 105]);
}

#[test]
fn filter_preserves_order() {
    let c = conn();
    let q = filter(|x: Q<i64>| x.gt(&toq(&1i64)), nums());
    assert_eq!(check(&c, &q), vec![3, 4, 5]);
}

#[test]
fn constants_round_trip() {
    let c = conn();
    assert_eq!(check(&c, &toq(&42i64)), 42);
    assert_eq!(check(&c, &toq(&"hi".to_string())), "hi");
    assert_eq!(check(&c, &toq(&vec![9i64, 8, 7])), vec![9, 8, 7]);
    assert_eq!(
        check(&c, &toq(&vec![vec![1i64], vec![], vec![2, 3]])),
        vec![vec![1], vec![], vec![2, 3]]
    );
    assert_eq!(
        check(&c, &toq(&(1i64, vec![true, false]))),
        (1, vec![true, false])
    );
}

#[test]
fn nested_result_from_map() {
    // map over a table producing a list per row: [[x, x+1] | x <- nums]
    let c = conn();
    let q = map(|x: Q<i64>| list([x.clone(), x + toq(&1i64)]), nums());
    assert_eq!(
        check(&c, &q),
        vec![vec![1, 2], vec![1, 2], vec![3, 4], vec![4, 5], vec![5, 6]]
    );
}

#[test]
fn concat_and_concat_map() {
    let c = conn();
    let q = concat(map(|x: Q<i64>| list([x.clone(), x]), nums()));
    assert_eq!(check(&c, &q), vec![1, 1, 1, 1, 3, 3, 4, 4, 5, 5]);
    let q2 = concat_map(
        |x: Q<i64>| filter(move |y: Q<i64>| y.le(&x), nums()),
        toq(&vec![1i64, 3]),
    );
    assert_eq!(check(&c, &q2), vec![1, 1, 1, 1, 3]);
}

#[test]
fn group_with_groups_sorted_by_key() {
    let c = conn();
    let q = group_with(|x: Q<i64>| x % toq(&2i64), nums());
    assert_eq!(check(&c, &q), vec![vec![4], vec![1, 1, 3, 5]]);
}

#[test]
fn group_with_on_table_rows() {
    // group employees by department: [[rows]] sorted by dept
    let c = conn();
    let q = group_with(|e: Q<(String, String, i64)>| e.proj3_0(), emp());
    let r = check(&c, &q);
    assert_eq!(r.len(), 3);
    assert_eq!(r[0].len(), 3); // eng
    assert_eq!(r[1][0].1, "eve"); // hr
    assert_eq!(r[2][0].1, "cy"); // ops
}

#[test]
fn sort_with_is_stable() {
    let c = conn();
    // sort employees by salary; ties keep name (key) order
    let q = map(
        |e: Q<(String, String, i64)>| e.proj3_1(),
        sort_with(|e: Q<(String, String, i64)>| e.proj3_2(), emp()),
    );
    assert_eq!(check(&c, &q), vec!["cy", "eve", "bob", "dan", "ada"]);
}

#[test]
fn aggregates_with_defaults_on_empty() {
    let c = conn();
    assert_eq!(check(&c, &sum(nums())), 14);
    assert_eq!(check(&c, &length(emp())), 5);
    assert_eq!(check(&c, &sum(empty::<i64>())), 0);
    assert_eq!(check(&c, &length(empty::<i64>())), 0);
    assert!(check(&c, &null(empty::<i64>())));
    assert!(!check(&c, &null(nums())));
    assert_eq!(check(&c, &maximum(nums())), 5);
    assert_eq!(check(&c, &minimum(nums())), 1);
    assert!(check(&c, &and(empty::<bool>())));
    assert!(!check(&c, &or(empty::<bool>())));
    assert_eq!(check(&c, &avg(nums())), 2.8);
}

#[test]
fn aggregates_lifted_inside_map() {
    // per-department salary sums — aggregates under a lifted lambda
    let c = conn();
    let q = map(
        |g: Q<Vec<(String, String, i64)>>| {
            pair(
                the(map(|e: Q<(String, String, i64)>| e.proj3_0(), g.clone())),
                sum(map(|e: Q<(String, String, i64)>| e.proj3_2(), g)),
            )
        },
        group_with(|e: Q<(String, String, i64)>| e.proj3_0(), emp()),
    );
    assert_eq!(
        check(&c, &q),
        vec![
            ("eng".to_string(), 230),
            ("hr".to_string(), 60),
            ("ops".to_string(), 50)
        ]
    );
}

#[test]
fn empty_groups_inside_map_get_defaults() {
    // for each n in nums: how many employees earn more than 10*n?
    let c = conn();
    let q = map(
        |n: Q<i64>| {
            length(filter(
                move |e: Q<(String, String, i64)>| e.proj3_2().gt(&(n.clone() * toq(&10i64))),
                emp(),
            ))
        },
        nums(),
    );
    assert_eq!(check(&c, &q), vec![5, 5, 5, 5, 4]);
    // ... and with a threshold that empties the filter entirely
    let q2 = map(
        |n: Q<i64>| {
            length(filter(
                move |e: Q<(String, String, i64)>| e.proj3_2().gt(&(n.clone() * toq(&100i64))),
                emp(),
            ))
        },
        nums(),
    );
    assert_eq!(check(&c, &q2), vec![0, 0, 0, 0, 0]);
}

#[test]
fn head_last_tail_init_reverse() {
    let c = conn();
    assert_eq!(check(&c, &head(nums())), 1);
    assert_eq!(check(&c, &last(nums())), 5);
    assert_eq!(check(&c, &tail(nums())), vec![1, 3, 4, 5]);
    assert_eq!(check(&c, &init(nums())), vec![1, 1, 3, 4]);
    assert_eq!(check(&c, &reverse(nums())), vec![5, 4, 3, 1, 1]);
}

#[test]
fn partial_head_on_empty_errors_both_sides() {
    let c = conn();
    let q = head(empty::<i64>());
    assert!(c.from_q(&q).is_err());
    assert!(c.interpret(&q).is_err());
}

#[test]
fn take_drop_index_zip() {
    let c = conn();
    assert_eq!(check(&c, &take(toq(&2i64), nums())), vec![1, 1]);
    assert_eq!(check(&c, &drop(toq(&2i64), nums())), vec![3, 4, 5]);
    assert_eq!(check(&c, &take(toq(&-1i64), nums())), Vec::<i64>::new());
    assert_eq!(check(&c, &drop(toq(&99i64), nums())), Vec::<i64>::new());
    assert_eq!(check(&c, &index(nums(), toq(&2i64))), 3);
    let q = zip(nums(), toq(&vec![10i64, 20]));
    assert_eq!(check(&c, &q), vec![(1, 10), (1, 20)]);
}

#[test]
fn append_cons_literals() {
    let c = conn();
    let q = append(toq(&vec![9i64]), nums());
    assert_eq!(check(&c, &q), vec![9, 1, 1, 3, 4, 5]);
    let q2 = cons(toq(&0i64), nums());
    assert_eq!(check(&c, &q2), vec![0, 1, 1, 3, 4, 5]);
    let q3 = list([sum(nums()), length(nums())]);
    assert_eq!(check(&c, &q3), vec![14, 5]);
}

#[test]
fn append_of_nested_lists_disambiguates_surrogates() {
    let c = conn();
    let a = toq(&vec![vec![1i64, 2]]);
    let b = toq(&vec![vec![3i64], vec![]]);
    let q = append(a, b);
    assert_eq!(check(&c, &q), vec![vec![1, 2], vec![3], vec![]]);
}

#[test]
fn nub_the_number() {
    let c = conn();
    assert_eq!(check(&c, &nub(nums())), vec![1, 3, 4, 5]);
    let q = the(map(|_x: Q<i64>| toq(&7i64), nums()));
    assert_eq!(check(&c, &q), 7);
    let q2 = number(toq(&vec!["a".to_string(), "b".to_string()]));
    assert_eq!(
        check(&c, &q2),
        vec![("a".to_string(), 1), ("b".to_string(), 2)]
    );
}

#[test]
fn unzip_round_trips() {
    let c = conn();
    let q = unzip(zip(nums(), reverse(nums())));
    assert_eq!(check(&c, &q), (vec![1, 1, 3, 4, 5], vec![5, 4, 3, 1, 1]));
}

#[test]
fn conditionals_scalar_and_list() {
    let c = conn();
    let q = cond(
        length(nums()).gt(&toq(&3i64)),
        toq(&"big".to_string()),
        toq(&"small".to_string()),
    );
    assert_eq!(check(&c, &q), "big");
    // per-iteration conditional inside map, with list branches
    let q2 = concat_map(
        |x: Q<i64>| {
            cond(
                (x.clone() % toq(&2i64)).eq(&toq(&1i64)),
                list([x.clone()]),
                empty::<i64>(),
            )
        },
        nums(),
    );
    // odd numbers only (via if, not filter)
    assert_eq!(check(&c, &q2), vec![1, 1, 3, 5]);
}

#[test]
fn any_all_elem() {
    let c = conn();
    assert!(check(&c, &any(|x: Q<i64>| x.gt(&toq(&4i64)), nums())));
    assert!(!check(&c, &all(|x: Q<i64>| x.gt(&toq(&4i64)), nums())));
    assert!(check(&c, &elem(toq(&4i64), nums())));
    assert!(!check(&c, &elem(toq(&9i64), nums())));
}

#[test]
fn tuple_comparisons_are_lexicographic() {
    let c = conn();
    let q = pair(toq(&(1i64, 5i64)), toq(&(2i64, 0i64)));
    let lt = q.fst().lt(&q.snd());
    assert!(check(&c, &lt));
    let p = pair(toq(&(2i64, 0i64)), toq(&(2i64, 0i64)));
    assert!(check(&c, &p.fst().le(&p.snd())));
    assert!(!check(&c, &p.fst().lt(&p.snd())));
}

#[test]
fn arithmetic_and_text() {
    let c = conn();
    assert_eq!(check(&c, &(toq(&7i64) % toq(&3i64))), 1);
    assert_eq!(check(&c, &(-toq(&5i64))), -5);
    assert_eq!(check(&c, &int_to_dbl(toq(&3i64))), 3.0);
    let t = toq(&"a".to_string()).concat(&toq(&"b".to_string()));
    assert_eq!(check(&c, &t), "ab");
}

#[test]
fn deeply_nested_three_levels() {
    let c = conn();
    // [[[x]] | x <- nums] : three list constructors => bundle of 3
    let q = map(|x: Q<i64>| list([list([x])]), nums());
    let bundle = c.compile(&q).unwrap();
    assert_eq!(bundle.queries.len(), 3);
    assert_eq!(
        check(&c, &q),
        vec![
            vec![vec![1]],
            vec![vec![1]],
            vec![vec![3]],
            vec![vec![4]],
            vec![vec![5]]
        ]
    );
}

#[test]
fn tuple_of_lists_result() {
    let c = conn();
    let q = pair(filter(|x: Q<i64>| x.lt(&toq(&3i64)), nums()), emp());
    let bundle = c.compile(&q).unwrap();
    assert_eq!(bundle.queries.len(), 3); // root + 2 lists
    let (small, all_emp) = check(&c, &q);
    assert_eq!(small, vec![1, 1]);
    assert_eq!(all_emp.len(), 5);
}

#[test]
fn comprehension_macro_end_to_end() {
    let c = conn();
    // a join via the comprehension notation
    let q: Q<Vec<(i64, String)>> = ferry::comp!(
        (pair(n.clone(), name))
        for n in nums(),
        for (dept, name, sal) in emp(),
        if sal.eq(&(n.clone() * toq(&10i64))),
        let _unused = dept
    );
    let r = check(&c, &q);
    assert_eq!(r, vec![(5, "cy".to_string())]);
}

#[test]
fn avalanche_safety_query_count_is_type_determined() {
    let c = conn();
    // same type, wildly different data sizes — always the same bundle size
    let q1 = group_with(|x: Q<i64>| x, nums());
    let b1 = c.compile(&q1).unwrap();
    assert_eq!(b1.queries.len(), 2);
    // run it: the engine must have been hit exactly twice
    c.database().reset_stats();
    let _ = c.from_q(&q1).unwrap();
    assert_eq!(c.database().stats().queries, 2);
}

#[test]
fn variables_shared_across_scopes() {
    let c = conn();
    // outer variable used inside a nested lambda (environment lifting)
    let q = concat_map(
        |x: Q<i64>| map(move |y: Q<i64>| y + x.clone(), nums()),
        toq(&vec![100i64, 200]),
    );
    assert_eq!(
        check(&c, &q),
        vec![101, 101, 103, 104, 105, 201, 201, 203, 204, 205]
    );
}

#[test]
fn x_used_twice_self_join() {
    let c = conn();
    let q = map(|x: Q<i64>| x.clone() * x, nums());
    assert_eq!(check(&c, &q), vec![1, 1, 9, 16, 25]);
}

#[test]
fn take_while_drop_while_span() {
    let c = conn();
    // nums in key order: [1, 1, 3, 4, 5]
    let tw = take_while(|x: Q<i64>| x.lt(&toq(&4i64)), nums());
    assert_eq!(check(&c, &tw), vec![1, 1, 3]);
    let dw = drop_while(|x: Q<i64>| x.lt(&toq(&4i64)), nums());
    assert_eq!(check(&c, &dw), vec![4, 5]);
    // predicate never fails → take_while keeps all, drop_while drops all
    let all = take_while(|x: Q<i64>| x.lt(&toq(&99i64)), nums());
    assert_eq!(check(&c, &all), vec![1, 1, 3, 4, 5]);
    let none = drop_while(|x: Q<i64>| x.lt(&toq(&99i64)), nums());
    assert_eq!(check(&c, &none), Vec::<i64>::new());
    // predicate fails immediately
    let zero = take_while(|x: Q<i64>| x.gt(&toq(&99i64)), nums());
    assert_eq!(check(&c, &zero), Vec::<i64>::new());
    // span/break/split_at round-trip the pieces
    let (a, b) = check(&c, &span(|x: Q<i64>| x.le(&toq(&1i64)), nums()));
    assert_eq!((a, b), (vec![1, 1], vec![3, 4, 5]));
    let (a, b) = check(&c, &break_(|x: Q<i64>| x.gt(&toq(&3i64)), nums()));
    assert_eq!((a, b), (vec![1, 1, 3], vec![4, 5]));
    let (a, b) = check(&c, &split_at(toq(&2i64), nums()));
    assert_eq!((a, b), (vec![1, 1], vec![3, 4, 5]));
}

#[test]
fn take_while_inside_map_respects_iterations() {
    let c = conn();
    // per n: the prefix of nums strictly below n
    let q = map(
        |n: Q<i64>| take_while(move |x: Q<i64>| x.lt(&n), nums()),
        toq(&vec![0i64, 2, 9]),
    );
    assert_eq!(check(&c, &q), vec![vec![], vec![1, 1], vec![1, 1, 3, 4, 5]]);
}

#[test]
fn table_errors_surface_at_runtime() {
    // "it is the user's responsibility to make sure that the referenced
    // table does exist … and that type a indeed matches the table's row
    // type — otherwise, an error is thrown at runtime" (§3.1)
    let c = conn();
    let missing = table::<i64>("ghost");
    assert!(matches!(
        c.from_q(&missing),
        Err(ferry::FerryError::Table(_))
    ));
    // wrong arity
    let wrong_arity = table::<(String, String)>("nums");
    assert!(matches!(
        c.from_q(&wrong_arity),
        Err(ferry::FerryError::Table(_))
    ));
    // wrong column type
    let wrong_ty = table::<String>("nums");
    assert!(matches!(
        c.from_q(&wrong_ty),
        Err(ferry::FerryError::Table(_))
    ));
}

#[test]
fn fifth_arity_tuples_work() {
    let c = conn();
    let q = toq(&vec![(1i64, 2i64, 3i64, 4i64, 5i64)]);
    assert_eq!(check(&c, &q), vec![(1, 2, 3, 4, 5)]);
    let p = map(|t: Q<(i64, i64, i64, i64, i64)>| t.proj5_4(), q);
    assert_eq!(check(&c, &p), vec![5]);
}

#[test]
fn unit_values_round_trip_on_the_engine_path() {
    let c = conn();
    let q = toq(&vec![(), ()]);
    assert_eq!(check(&c, &q), vec![(), ()]);
    assert_eq!(check(&c, &length(toq(&vec![(), (), ()]))), 3);
}

#[test]
fn doubles_round_trip() {
    let c = conn();
    let xs = vec![1.5f64, -0.25, 1e10];
    assert_eq!(check(&c, &toq(&xs)), xs);
    assert_eq!(check(&c, &sum(toq(&vec![0.5f64, 0.25]))), 0.75);
    assert_eq!(check(&c, &avg(toq(&vec![1.0f64, 2.0]))), 1.5);
    assert_eq!(
        check(&c, &map(|x: Q<i64>| int_to_dbl(x) / toq(&2.0f64), nums())),
        vec![0.5, 0.5, 1.5, 2.0, 2.5]
    );
}

#[test]
fn option_encoding_round_trips() {
    // sum types are future work in the paper (§5); Option<T> ships here
    // via the tag-plus-payload relational encoding
    let c = conn();
    let xs: Vec<Option<i64>> = vec![Some(3), None, Some(-1)];
    assert_eq!(check(&c, &toq(&xs)), xs);
    // cat_maybes / map_maybe
    assert_eq!(check(&c, &cat_maybes(toq(&xs))), vec![3, -1]);
    let q = map_maybe(
        |x: Q<i64>| {
            cond(
                (x.clone() % toq(&2i64)).eq(&toq(&0i64)),
                some(x.clone() * x),
                none(),
            )
        },
        nums(),
    );
    assert_eq!(check(&c, &q), vec![16]);
}

#[test]
fn option_accessors() {
    let c = conn();
    let s = some(toq(&7i64));
    let n = none::<i64>();
    assert!(check(&c, &s.is_some()));
    assert!(!check(&c, &n.is_some()));
    assert_eq!(check(&c, &s.unwrap_or(&toq(&0i64))), 7);
    assert_eq!(check(&c, &n.unwrap_or(&toq(&42i64))), 42);
    assert_eq!(check(&c, &s.map_or(toq(&0i64), |x| x + toq(&1i64))), 8);
}

#[test]
fn lookup_in_assoc_lists() {
    let c = conn();
    let assoc = toq(&vec![
        ("a".to_string(), 1i64),
        ("b".to_string(), 2),
        ("a".to_string(), 9),
    ]);
    assert_eq!(
        check(&c, &lookup(toq(&"a".to_string()), assoc.clone())),
        Some(1),
        "lookup returns the first match"
    );
    assert_eq!(check(&c, &lookup(toq(&"z".to_string()), assoc)), None);
    // lifted inside a map: per-department head salary lookup
    let q = map(
        |d: Q<String>| {
            lookup(
                d,
                map(
                    |e: Q<(String, String, i64)>| pair(e.proj3_0(), e.proj3_2()),
                    emp(),
                ),
            )
        },
        toq(&vec!["eng".to_string(), "xyz".to_string()]),
    );
    assert_eq!(check(&c, &q), vec![Some(90), None]);
}

ferry::record! {
    /// `emp` rows as a record (fields in alphabetical column order).
    pub struct EmpRow : EmpRowFields {
        pub dept: String,
        pub name: String,
        pub sal: i64,
    }
}

#[test]
fn records_query_tables_directly() {
    // the record derivation of §3.1: a user-defined product type as the
    // row type of `table`, with generated field accessors
    let c = conn();
    let q = map(
        |e: Q<EmpRow>| pair(e.name(), e.sal()),
        filter(
            |e: Q<EmpRow>| e.dept().eq(&toq(&"eng".to_string())),
            table::<EmpRow>("emp"),
        ),
    );
    assert_eq!(
        check(&c, &q),
        vec![
            ("ada".to_string(), 90),
            ("bob".to_string(), 70),
            ("dan".to_string(), 70)
        ]
    );
    // whole records decode too
    let rows: Vec<EmpRow> = c.from_q(&table::<EmpRow>("emp")).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].name, "ada");
}

#[test]
fn explain_describes_the_bundle() {
    let c = conn();
    let text = c
        .explain(&group_with(|x: Q<i64>| x % toq(&2i64), nums()))
        .unwrap();
    assert!(text.contains("result type: [[Int]]"), "{text}");
    assert!(text.contains("bundle: 2 queries"), "{text}");
    assert!(text.contains("-- query 2 --"), "{text}");
    assert!(text.contains("serialize"), "{text}");
}

#[test]
fn explain_analyze_renders_the_node_profile() {
    let c = conn();
    let text = c
        .explain_analyze(&group_with(|x: Q<i64>| x % toq(&2i64), nums()))
        .unwrap();
    // everything explain prints, plus the engine's per-node profile
    assert!(text.contains("-- execution profile"), "{text}");
    assert!(text.contains("serialize"), "{text}");
    assert!(text.contains("rows"), "{text}");
    // every node line carries its kernel batches: under the default
    // `VecMode::On` even a 5-row table runs kernels, and a view-only node
    // shows 0
    assert!(text.contains(" batches 0 "), "{text}");
    let nodes = text.lines().filter(|l| l.starts_with("node ")).count();
    assert!(
        text.lines()
            .any(|l| l.starts_with(&format!("nodes: {nodes} "))),
        "the summary counts every node line: {text}"
    );
}

#[test]
fn explain_analyze_under_the_oracle_counts_no_batches() {
    use ferry_engine::VecMode;
    let c = conn();
    c.set_vec_mode(VecMode::Off);
    let text = c
        .explain_analyze(&group_with(|x: Q<i64>| x % toq(&2i64), nums()))
        .unwrap();
    let nodes: Vec<&str> = text.lines().filter(|l| l.starts_with("node ")).collect();
    assert!(!nodes.is_empty(), "{text}");
    assert!(nodes.iter().all(|l| l.contains(" batches 0 ")), "{text}");
    assert!(text.contains("kernel batches: 0 "), "{text}");
}

#[test]
fn explain_analyze_counts_kernel_batches() {
    let c = conn();
    // `x % 2` forces a Compute node; under the default VecMode::On it
    // runs a kernel and the profile must say so, batch count included
    let text = c
        .explain_analyze(&map(|x: Q<i64>| x % toq(&2i64), nums()))
        .unwrap();
    assert!(text.contains(" batches 1 "), "{text}");
    assert!(text.contains("kernel batches:"), "{text}");
    assert!(!text.contains("kernel batches: 0 "), "{text}");
}

/// Each facility category with its features' meanings.
type Categories = Q<Vec<(String, Vec<String>)>>;

/// The paper's running example (§2) over a few rows of its Figure 1
/// tables: a 2-query bundle.
fn running_example() -> (Connection, Categories) {
    let db = Database::new();
    for (name, cols, rows) in [
        (
            "facilities",
            [("fac", "cat")],
            vec![("SQL", "QLA"), ("LINQ", "LIN"), ("Links", "LIN")],
        ),
        (
            "features",
            [("fac", "feature")],
            vec![("SQL", "aval"), ("LINQ", "nest"), ("Links", "comp")],
        ),
        (
            "meanings",
            [("feature", "meaning")],
            vec![
                ("aval", "avoids avalanches"),
                ("nest", "nests"),
                ("comp", "composes"),
            ],
        ),
    ] {
        let (a, b) = cols[0];
        db.create_table(name, Schema::of(&[(a, Ty::Str), (b, Ty::Str)]), vec![a])
            .unwrap();
        let rows = rows
            .iter()
            .map(|&(x, y)| vec![Value::str(x), Value::str(y)]);
        db.insert(name, rows.collect()).unwrap();
    }
    let descr = |f: Q<String>| {
        ferry::comp!(
            (mean.clone())
            for (fac, feat2) in table::<(String, String)>("features"),
            if fac.eq(&f),
            for (feat, mean) in table::<(String, String)>("meanings"),
            if feat.eq(&feat2)
        )
    };
    let q = ferry::comp!(
        (pair(the(cat), nub(concat_map(descr, fac))))
        for (cat, fac) in table::<(String, String)>("facilities"),
        group by fst
    );
    (Connection::new(db), q)
}

#[test]
fn explain_analyze_prints_one_line_per_evaluated_node() {
    let (c, q) = running_example();
    check(&c, &q);
    c.database().reset_stats();
    let text = c.explain_analyze(&q).unwrap();
    // every evaluated plan node is one evaluation with its own line
    let nodes = text.lines().filter(|l| l.starts_with("node ")).count();
    assert_eq!(nodes as u64, c.database().stats().nodes_evaluated, "{text}");
    assert!(nodes > 10, "{text}");
    assert!(!text.contains("pipeline["), "{text}");
    assert!(!text.contains("fused"), "{text}");
}
