//! Row-level expression evaluation.
//!
//! Expressions are *bound* against a schema once per operator (column names
//! resolve to row indices), then evaluated per row. Binding keeps the inner
//! loop free of name lookups — the engine is bulk-oriented, so a `Compute`
//! over a million rows binds once and evaluates a million times.

use crate::error::EngineError;
use ferry_algebra::{BinOp, Expr, Row, Schema, Ty, UnOp, Value};

/// An expression with column references resolved to row indices.
#[derive(Debug, Clone)]
pub enum Bound {
    Col(usize),
    Const(Value),
    Bin(BinOp, Box<Bound>, Box<Bound>),
    Un(UnOp, Box<Bound>),
    Case(Box<Bound>, Box<Bound>, Box<Bound>),
    Cast(Ty, Box<Bound>),
}

/// Resolve column names in `expr` against `schema`. Plans are validated
/// before execution, so a missing column means a malformed plan slipped
/// past (or around) schema inference — reported as
/// [`EngineError::NoSuchColumn`], never a panic. Parameters are bound
/// before dispatch; one that is still here is
/// [`EngineError::UnboundParam`].
pub fn bind(expr: &Expr, schema: &Schema) -> Result<Bound, EngineError> {
    match expr {
        Expr::Col(c) => {
            schema
                .index_of(c)
                .map(Bound::Col)
                .ok_or_else(|| EngineError::NoSuchColumn {
                    col: c.to_string(),
                    schema: schema.to_string(),
                })
        }
        Expr::Const(v) => Ok(Bound::Const(v.clone())),
        Expr::Bin(op, l, r) => Ok(Bound::Bin(
            *op,
            Box::new(bind(l, schema)?),
            Box::new(bind(r, schema)?),
        )),
        Expr::Un(op, e) => Ok(Bound::Un(*op, Box::new(bind(e, schema)?))),
        Expr::Case(c, t, e) => Ok(Bound::Case(
            Box::new(bind(c, schema)?),
            Box::new(bind(t, schema)?),
            Box::new(bind(e, schema)?),
        )),
        Expr::Cast(ty, e) => Ok(Bound::Cast(*ty, Box::new(bind(e, schema)?))),
        Expr::Param(slot, _) => Err(EngineError::UnboundParam(*slot)),
    }
}

fn ee(msg: impl Into<String>) -> EngineError {
    EngineError::Eval(msg.into())
}

/// Evaluate a bound expression over one row.
pub fn eval(b: &Bound, row: &Row) -> Result<Value, EngineError> {
    match b {
        Bound::Col(i) => Ok(row[*i].clone()),
        Bound::Const(v) => Ok(v.clone()),
        Bound::Bin(op, l, r) => {
            // short-circuit logic first
            if matches!(op, BinOp::And | BinOp::Or) {
                let lv = eval(l, row)?
                    .as_bool()
                    .ok_or_else(|| ee("AND/OR on non-bool"))?;
                return match (op, lv) {
                    (BinOp::And, false) => Ok(Value::Bool(false)),
                    (BinOp::Or, true) => Ok(Value::Bool(true)),
                    _ => {
                        let rv = eval(r, row)?
                            .as_bool()
                            .ok_or_else(|| ee("AND/OR on non-bool"))?;
                        Ok(Value::Bool(rv))
                    }
                };
            }
            let lv = eval(l, row)?;
            let rv = eval(r, row)?;
            bin_op(*op, lv, rv)
        }
        Bound::Un(UnOp::Not, e) => match eval(e, row)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            v => Err(ee(format!("NOT on {v}"))),
        },
        Bound::Un(UnOp::Neg, e) => match eval(e, row)? {
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| ee("integer overflow in negation")),
            Value::Dbl(d) => Ok(Value::Dbl(-d)),
            v => Err(ee(format!("negation on {v}"))),
        },
        Bound::Case(c, t, e) => match eval(c, row)? {
            Value::Bool(true) => eval(t, row),
            Value::Bool(false) => eval(e, row),
            v => Err(ee(format!("CASE condition is {v}, not bool"))),
        },
        Bound::Cast(ty, e) => cast(*ty, eval(e, row)?),
    }
}

/// Apply a non-logical binary operator to two values.
pub fn bin_op(op: BinOp, l: Value, r: Value) -> Result<Value, EngineError> {
    use BinOp::*;
    if op.is_cmp() {
        let o = l.cmp(&r);
        let b = match op {
            Eq => o.is_eq(),
            Ne => o.is_ne(),
            Lt => o.is_lt(),
            Le => o.is_le(),
            Gt => o.is_gt(),
            Ge => o.is_ge(),
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    match (op, l, r) {
        (Concat, Value::Str(a), Value::Str(b)) => {
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(&a);
            s.push_str(&b);
            Ok(Value::str(s))
        }
        (Add, Value::Int(a), Value::Int(b)) => a
            .checked_add(b)
            .map(Value::Int)
            .ok_or_else(|| ee("integer overflow in +")),
        (Sub, Value::Int(a), Value::Int(b)) => a
            .checked_sub(b)
            .map(Value::Int)
            .ok_or_else(|| ee("integer overflow in -")),
        (Mul, Value::Int(a), Value::Int(b)) => a
            .checked_mul(b)
            .map(Value::Int)
            .ok_or_else(|| ee("integer overflow in *")),
        (Div, Value::Int(a), Value::Int(b)) => {
            if b == 0 {
                Err(ee("division by zero"))
            } else {
                Ok(Value::Int(a.wrapping_div(b)))
            }
        }
        (Mod, Value::Int(a), Value::Int(b)) => {
            if b == 0 {
                Err(ee("modulo by zero"))
            } else {
                Ok(Value::Int(a.wrapping_rem(b)))
            }
        }
        (Add, Value::Dbl(a), Value::Dbl(b)) => Ok(Value::Dbl(canon(a + b))),
        (Sub, Value::Dbl(a), Value::Dbl(b)) => Ok(Value::Dbl(canon(a - b))),
        (Mul, Value::Dbl(a), Value::Dbl(b)) => Ok(Value::Dbl(canon(a * b))),
        (Div, Value::Dbl(a), Value::Dbl(b)) => {
            if b == 0.0 {
                Err(ee("division by zero"))
            } else {
                Ok(Value::Dbl(canon(a / b)))
            }
        }
        (Mod, Value::Dbl(a), Value::Dbl(b)) => {
            if b == 0.0 {
                Err(ee("modulo by zero"))
            } else {
                Ok(Value::Dbl(canon(a % b)))
            }
        }
        (Add, Value::Nat(a), Value::Nat(b)) => a
            .checked_add(b)
            .map(Value::Nat)
            .ok_or_else(|| ee("nat overflow in +")),
        (Sub, Value::Nat(a), Value::Nat(b)) => a
            .checked_sub(b)
            .map(Value::Nat)
            .ok_or_else(|| ee("nat underflow in -")),
        (Mul, Value::Nat(a), Value::Nat(b)) => a
            .checked_mul(b)
            .map(Value::Nat)
            .ok_or_else(|| ee("nat overflow in *")),
        (op, l, r) => Err(ee(format!("{op:?} not applicable to {l} and {r}"))),
    }
}

/// `x`, or the one positive quiet NaN if `x` is a NaN. Which NaN an
/// arithmetic operation on a NaN returns is left open (an optimized build
/// may swap the operands of `+`), and the engine's total order tells NaNs
/// apart, so the oracle and the kernels both return this one.
pub(crate) fn canon(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// Cast between numeric domains (and from bool).
pub fn cast(ty: Ty, v: Value) -> Result<Value, EngineError> {
    match (ty, &v) {
        (t, _) if v.ty() == t => Ok(v),
        (Ty::Dbl, Value::Int(i)) => Ok(Value::Dbl(*i as f64)),
        (Ty::Dbl, Value::Nat(n)) => Ok(Value::Dbl(*n as f64)),
        (Ty::Dbl, Value::Bool(b)) => Ok(Value::Dbl(if *b { 1.0 } else { 0.0 })),
        (Ty::Int, Value::Dbl(d)) => Ok(Value::Int(*d as i64)),
        (Ty::Int, Value::Nat(n)) => i64::try_from(*n)
            .map(Value::Int)
            .map_err(|_| ee("nat too large for int")),
        (Ty::Int, Value::Bool(b)) => Ok(Value::Int(i64::from(*b))),
        (Ty::Nat, Value::Int(i)) => u64::try_from(*i)
            .map(Value::Nat)
            .map_err(|_| ee("negative int cast to nat")),
        (Ty::Nat, Value::Dbl(d)) if *d >= 0.0 => Ok(Value::Nat(*d as u64)),
        (Ty::Nat, Value::Bool(b)) => Ok(Value::Nat(u64::from(*b))),
        (t, v) => Err(ee(format!("cannot cast {v} to {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[
            ("a", Ty::Int),
            ("b", Ty::Int),
            ("p", Ty::Bool),
            ("s", Ty::Str),
        ])
    }

    fn row() -> Row {
        vec![
            Value::Int(6),
            Value::Int(3),
            Value::Bool(true),
            Value::str("x"),
        ]
    }

    fn run(e: Expr) -> Result<Value, EngineError> {
        eval(&bind(&e, &schema())?, &row())
    }

    #[test]
    fn unbound_column_is_an_error_not_a_panic() {
        let err = bind(&Expr::col("nope"), &schema()).unwrap_err();
        assert!(matches!(err, EngineError::NoSuchColumn { .. }));
        // nested occurrences are found too
        let nested = Expr::case(
            Expr::col("p"),
            Expr::bin(BinOp::Add, Expr::col("a"), Expr::col("ghost")),
            Expr::lit(0i64),
        );
        match bind(&nested, &schema()) {
            Err(EngineError::NoSuchColumn { col, .. }) => assert_eq!(col, "ghost"),
            other => panic!("expected NoSuchColumn, got {other:?}"),
        }
    }

    #[test]
    fn an_unbound_parameter_is_an_error_not_a_panic() {
        let e = Expr::bin(BinOp::Ge, Expr::col("a"), Expr::Param(1, Ty::Int));
        assert_eq!(run(e).unwrap_err(), EngineError::UnboundParam(1));
    }

    #[test]
    fn arithmetic() {
        let e = Expr::bin(BinOp::Div, Expr::col("a"), Expr::col("b"));
        assert_eq!(run(e).unwrap(), Value::Int(2));
        let m = Expr::bin(BinOp::Mod, Expr::col("a"), Expr::lit(4i64));
        assert_eq!(run(m).unwrap(), Value::Int(2));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = Expr::bin(BinOp::Div, Expr::col("a"), Expr::lit(0i64));
        assert!(run(e).is_err());
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let e = Expr::bin(BinOp::Add, Expr::lit(i64::MAX), Expr::lit(1i64));
        assert!(run(e).is_err());
        let n = Expr::Un(UnOp::Neg, std::sync::Arc::new(Expr::lit(i64::MIN)));
        assert!(run(n).is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        let e = Expr::and(
            Expr::bin(BinOp::Gt, Expr::col("a"), Expr::col("b")),
            Expr::col("p"),
        );
        assert_eq!(run(e).unwrap(), Value::Bool(true));
        let ne = Expr::bin(BinOp::Ne, Expr::col("s"), Expr::lit("y"));
        assert_eq!(run(ne).unwrap(), Value::Bool(true));
    }

    #[test]
    fn logic_short_circuits() {
        // (false AND (1/0 = 1)) must not evaluate the division
        let e = Expr::and(
            Expr::lit(false),
            Expr::eq(
                Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
                Expr::lit(1i64),
            ),
        );
        assert_eq!(run(e).unwrap(), Value::Bool(false));
        let o = Expr::bin(
            BinOp::Or,
            Expr::lit(true),
            Expr::eq(
                Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
                Expr::lit(1i64),
            ),
        );
        assert_eq!(run(o).unwrap(), Value::Bool(true));
    }

    #[test]
    fn concat_and_case() {
        let e = Expr::bin(BinOp::Concat, Expr::col("s"), Expr::lit("!"));
        assert_eq!(run(e).unwrap(), Value::str("x!"));
        let c = Expr::case(Expr::col("p"), Expr::lit(1i64), Expr::lit(0i64));
        assert_eq!(run(c).unwrap(), Value::Int(1));
    }

    #[test]
    fn casts() {
        assert_eq!(cast(Ty::Dbl, Value::Int(2)).unwrap(), Value::Dbl(2.0));
        assert_eq!(cast(Ty::Int, Value::Nat(7)).unwrap(), Value::Int(7));
        assert_eq!(cast(Ty::Nat, Value::Int(7)).unwrap(), Value::Nat(7));
        assert!(cast(Ty::Nat, Value::Int(-1)).is_err());
        assert_eq!(cast(Ty::Int, Value::Bool(true)).unwrap(), Value::Int(1));
        assert!(cast(Ty::Str, Value::Int(1)).is_err());
        // identity cast
        assert_eq!(cast(Ty::Int, Value::Int(5)).unwrap(), Value::Int(5));
    }

    #[test]
    fn nat_arithmetic_is_checked() {
        assert!(bin_op(BinOp::Sub, Value::Nat(1), Value::Nat(2)).is_err());
        assert_eq!(
            bin_op(BinOp::Add, Value::Nat(1), Value::Nat(2)).unwrap(),
            Value::Nat(3)
        );
    }
}

/// Exhaustive pin of `bin_op` over every operator × numeric domain,
/// including the nasty edges. This is the *scalar oracle*: the vectorized
/// kernels in [`crate::vec_eval`] are differentially tested against `eval`,
/// so any behaviour change here must be deliberate.
#[cfg(test)]
mod bin_op_oracle {
    use super::*;

    const CMPS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    const ARITH: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];

    fn ok(op: BinOp, l: Value, r: Value) -> Value {
        bin_op(op, l.clone(), r.clone())
            .unwrap_or_else(|e| panic!("{op:?}({l}, {r}) unexpectedly failed: {e}"))
    }

    fn err(op: BinOp, l: Value, r: Value) -> String {
        match bin_op(op, l.clone(), r.clone()) {
            Err(EngineError::Eval(m)) => m,
            other => panic!("{op:?}({l}, {r}) should fail, got {other:?}"),
        }
    }

    #[test]
    fn int_arithmetic_edges() {
        assert_eq!(
            ok(BinOp::Add, Value::Int(i64::MAX - 1), Value::Int(1)),
            Value::Int(i64::MAX)
        );
        assert_eq!(
            err(BinOp::Add, Value::Int(i64::MAX), Value::Int(1)),
            "integer overflow in +"
        );
        assert_eq!(
            err(BinOp::Sub, Value::Int(i64::MIN), Value::Int(1)),
            "integer overflow in -"
        );
        assert_eq!(
            err(BinOp::Mul, Value::Int(i64::MIN), Value::Int(-1)),
            "integer overflow in *"
        );
        // Pinned quirk: Int division uses wrapping_div after the zero
        // check, so i64::MIN / -1 wraps to i64::MIN instead of erroring.
        assert_eq!(
            ok(BinOp::Div, Value::Int(i64::MIN), Value::Int(-1)),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            ok(BinOp::Mod, Value::Int(i64::MIN), Value::Int(-1)),
            Value::Int(0)
        );
        assert_eq!(
            err(BinOp::Div, Value::Int(5), Value::Int(0)),
            "division by zero"
        );
        assert_eq!(
            err(BinOp::Mod, Value::Int(5), Value::Int(0)),
            "modulo by zero"
        );
        // truncation toward zero
        assert_eq!(
            ok(BinOp::Div, Value::Int(-7), Value::Int(2)),
            Value::Int(-3)
        );
        assert_eq!(
            ok(BinOp::Mod, Value::Int(-7), Value::Int(2)),
            Value::Int(-1)
        );
    }

    #[test]
    fn nat_arithmetic_edges() {
        assert_eq!(
            err(BinOp::Add, Value::Nat(u64::MAX), Value::Nat(1)),
            "nat overflow in +"
        );
        assert_eq!(
            err(BinOp::Sub, Value::Nat(0), Value::Nat(1)),
            "nat underflow in -"
        );
        assert_eq!(
            err(BinOp::Mul, Value::Nat(u64::MAX), Value::Nat(2)),
            "nat overflow in *"
        );
        assert_eq!(
            ok(BinOp::Sub, Value::Nat(u64::MAX), Value::Nat(u64::MAX)),
            Value::Nat(0)
        );
        // Pinned: Nat has no Div/Mod in the scalar oracle — they fall
        // through to the catch-all "not applicable" error.
        assert!(err(BinOp::Div, Value::Nat(4), Value::Nat(2)).contains("not applicable"));
        assert!(err(BinOp::Mod, Value::Nat(4), Value::Nat(2)).contains("not applicable"));
    }

    #[test]
    fn dbl_arithmetic_edges() {
        assert_eq!(
            ok(BinOp::Add, Value::Dbl(f64::MAX), Value::Dbl(f64::MAX)),
            Value::Dbl(f64::INFINITY)
        );
        // NaN propagates silently through arithmetic…
        match ok(BinOp::Mul, Value::Dbl(f64::NAN), Value::Dbl(1.0)) {
            Value::Dbl(d) => assert!(d.is_nan()),
            v => panic!("expected Dbl, got {v}"),
        }
        // …but division/modulo by literal zero is still an error.
        assert_eq!(
            err(BinOp::Div, Value::Dbl(1.0), Value::Dbl(0.0)),
            "division by zero"
        );
        assert_eq!(
            err(BinOp::Div, Value::Dbl(1.0), Value::Dbl(-0.0)),
            "division by zero"
        );
        assert_eq!(
            err(BinOp::Mod, Value::Dbl(1.0), Value::Dbl(0.0)),
            "modulo by zero"
        );
        assert_eq!(
            ok(BinOp::Mod, Value::Dbl(7.5), Value::Dbl(2.0)),
            Value::Dbl(1.5)
        );
    }

    #[test]
    fn nan_results_are_the_one_positive_nan() {
        let (nan, neg) = (Value::Dbl(f64::NAN), Value::Dbl(-f64::NAN));
        for op in ARITH {
            for (l, r) in [(&nan, &neg), (&neg, &nan), (&neg, &Value::Dbl(1.0))] {
                match ok(op, l.clone(), r.clone()) {
                    Value::Dbl(d) => assert_eq!(d.to_bits(), f64::NAN.to_bits(), "{op:?}"),
                    v => panic!("{op:?}: expected Dbl, got {v}"),
                }
            }
        }
    }

    #[test]
    fn comparisons_are_total_over_every_domain() {
        // Int: MIN < -1 < 0 < MAX
        let ints = [i64::MIN, -1, 0, i64::MAX].map(Value::Int);
        // Nat: 0 < 1 < MAX
        let nats = [0, 1, u64::MAX].map(Value::Nat);
        // Dbl under total_cmp: -inf < -0.0 < 0.0 < 1.0 < inf < NaN
        let dbls = [f64::NEG_INFINITY, -0.0, 0.0, 1.0, f64::INFINITY, f64::NAN].map(Value::Dbl);
        for vals in [&ints[..], &nats[..], &dbls[..]] {
            for (i, l) in vals.iter().enumerate() {
                for (j, r) in vals.iter().enumerate() {
                    for op in CMPS {
                        let want = match op {
                            BinOp::Eq => i == j,
                            BinOp::Ne => i != j,
                            BinOp::Lt => i < j,
                            BinOp::Le => i <= j,
                            BinOp::Gt => i > j,
                            BinOp::Ge => i >= j,
                            _ => unreachable!(),
                        };
                        assert_eq!(
                            ok(op, l.clone(), r.clone()),
                            Value::Bool(want),
                            "{op:?}({l}, {r})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nan_compares_equal_to_itself_under_total_order() {
        // Value ordering is f64::total_cmp, not IEEE partial order.
        assert_eq!(
            ok(BinOp::Eq, Value::Dbl(f64::NAN), Value::Dbl(f64::NAN)),
            Value::Bool(true)
        );
        assert_eq!(
            ok(BinOp::Gt, Value::Dbl(f64::NAN), Value::Dbl(f64::INFINITY)),
            Value::Bool(true)
        );
        // -0.0 and 0.0 are *distinct* under total order.
        assert_eq!(
            ok(BinOp::Lt, Value::Dbl(-0.0), Value::Dbl(0.0)),
            Value::Bool(true)
        );
    }

    #[test]
    fn mixed_domains_never_arith() {
        // Every arithmetic op across mismatched domains is the catch-all
        // error — kernels must bail rather than coerce.
        let l = Value::Int(1);
        for r in [
            Value::Nat(1),
            Value::Dbl(1.0),
            Value::Bool(true),
            Value::str("x"),
        ] {
            for op in ARITH {
                assert!(
                    err(op, l.clone(), r.clone()).contains("not applicable"),
                    "{op:?}(int, {r})"
                );
            }
        }
        // Concat is string-only.
        assert!(err(BinOp::Concat, Value::Int(1), Value::Int(2)).contains("not applicable"));
        assert_eq!(
            ok(BinOp::Concat, Value::str("ab"), Value::str("cd")),
            Value::str("abcd")
        );
    }
}
