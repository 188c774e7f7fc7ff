//! Parser totality on the dialect: for randomised SQL ASTs,
//! `parse(print(ast)) == ast`, statement parameters `$n` included. This
//! pins the parser and printer to the same grammar and guards against
//! precedence/keyword regressions.

use ferry_sql::ast::*;
use ferry_sql::parser::parse;
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    proptest::sample::select(vec!["alpha", "beta", "gamma", "delta", "v_1", "pos_nat"])
        .prop_map(String::from)
}

fn leaf_expr() -> impl Strategy<Value = SqlExpr> {
    prop_oneof![
        (ident(), proptest::option::of(ident()))
            .prop_map(|(name, qualifier)| { SqlExpr::Column { qualifier, name } }),
        (0i64..1000).prop_map(SqlExpr::Int),
        // floats chosen to print/parse exactly
        (0i64..100).prop_map(|i| SqlExpr::Float(i as f64 + 0.5)),
        "[a-z ]{0,6}".prop_map(SqlExpr::Str),
        any::<bool>().prop_map(SqlExpr::Bool),
        (1u32..u32::MAX).prop_map(SqlExpr::Param),
    ]
}

fn bin_op() -> impl Strategy<Value = SqlBinOp> {
    prop_oneof![
        Just(SqlBinOp::Add),
        Just(SqlBinOp::Sub),
        Just(SqlBinOp::Mul),
        Just(SqlBinOp::Div),
        Just(SqlBinOp::Mod),
        Just(SqlBinOp::Eq),
        Just(SqlBinOp::Ne),
        Just(SqlBinOp::Lt),
        Just(SqlBinOp::Le),
        Just(SqlBinOp::Gt),
        Just(SqlBinOp::Ge),
        Just(SqlBinOp::And),
        Just(SqlBinOp::Or),
        Just(SqlBinOp::Concat),
    ]
}

fn expr(depth: u32) -> impl Strategy<Value = SqlExpr> {
    leaf_expr().prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (bin_op(), inner.clone(), inner.clone())
                .prop_map(|(op, l, r)| { SqlExpr::Bin(op, Box::new(l), Box::new(r)) }),
            inner.clone().prop_map(|x| SqlExpr::Not(Box::new(x))),
            inner.clone().prop_map(|x| SqlExpr::Neg(Box::new(x))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| {
                SqlExpr::Case {
                    when: Box::new(c),
                    then: Box::new(t),
                    els: Box::new(e),
                }
            }),
            (
                inner.clone(),
                prop_oneof![
                    Just(SqlTy::Bigint),
                    Just(SqlTy::Double),
                    Just(SqlTy::Nat),
                    Just(SqlTy::Varchar),
                    Just(SqlTy::Boolean)
                ]
            )
                .prop_map(|(e, ty)| SqlExpr::Cast {
                    expr: Box::new(e),
                    ty
                }),
        ]
    })
}

fn window() -> impl Strategy<Value = SqlExpr> {
    (
        prop_oneof![
            Just(WindowFun::RowNumber),
            Just(WindowFun::Rank),
            Just(WindowFun::DenseRank)
        ],
        proptest::collection::vec(
            ident().prop_map(|n| SqlExpr::Column {
                qualifier: None,
                name: n,
            }),
            0..3,
        ),
        proptest::collection::vec(
            (ident(), any::<bool>()).prop_map(|(n, desc)| OrderItem {
                expr: SqlExpr::Column {
                    qualifier: None,
                    name: n,
                },
                desc,
            }),
            0..3,
        ),
    )
        .prop_map(|(fun, partition_by, order_by)| SqlExpr::Window {
            fun,
            partition_by,
            order_by,
        })
}

fn select() -> impl Strategy<Value = Select> {
    (
        any::<bool>(),
        proptest::collection::vec(
            prop_oneof![expr(2), window()].prop_flat_map(|e| {
                ident().prop_map(move |a| SelectItem {
                    expr: e.clone(),
                    alias: Some(a),
                })
            }),
            1..4,
        ),
        proptest::collection::vec(
            (ident(), ident()).prop_map(|(name, alias)| FromItem::Named { name, alias }),
            0..3,
        ),
        proptest::option::of(expr(2)),
    )
        .prop_map(|(distinct, items, from, where_)| Select {
            distinct,
            items,
            from,
            where_,
            group_by: vec![],
        })
}

fn statement() -> impl Strategy<Value = Statement> {
    (
        proptest::collection::vec(
            (ident(), select()).prop_map(|(name, s)| Cte {
                name,
                columns: vec![],
                body: SetExpr::Select(Box::new(s)),
            }),
            0..2,
        ),
        select(),
        proptest::collection::vec(
            (ident(), any::<bool>()).prop_map(|(n, desc)| OrderItem {
                expr: SqlExpr::Column {
                    qualifier: None,
                    name: n,
                },
                desc,
            }),
            0..2,
        ),
    )
        .prop_map(|(ctes, body, order_by)| Statement {
            ctes,
            body: SetExpr::Select(Box::new(body)),
            order_by,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn print_parse_round_trip(stmt in statement()) {
        let printed = stmt.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("printed SQL failed to parse: {e}\n{printed}"));
        prop_assert_eq!(reparsed, stmt, "\nprinted: {}", printed);
    }

    #[test]
    fn exprs_round_trip(e in expr(4)) {
        // wrap in a minimal SELECT so the statement is well-formed
        let stmt = Statement {
            ctes: vec![],
            body: SetExpr::Select(Box::new(Select {
                distinct: false,
                items: vec![SelectItem { expr: e, alias: Some("x".into()) }],
                from: vec![],
                where_: None,
                group_by: vec![],
            })),
            order_by: vec![],
        };
        let printed = stmt.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|err| panic!("{err}\n{printed}"));
        prop_assert_eq!(reparsed, stmt, "\nprinted: {}", printed);
    }
}
