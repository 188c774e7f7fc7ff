//! Row-level scalar expressions and aggregation functions.
//!
//! Scalar expressions appear in `Compute` (derive a new column), `Select`
//! (filter predicate) and `ThetaJoin` nodes. They are deliberately small —
//! exactly the operations the Ferry front-end can produce — and are
//! evaluated per row by the engine (and translated 1:1 to SQL expressions
//! by the code generator).

use crate::schema::{ColName, Schema};
use crate::value::{Ty, Value};
use std::fmt;
use std::sync::Arc;

/// Binary scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    /// String concatenation (SQL `||`).
    Concat,
}

impl BinOp {
    /// Is this a comparison (result type `Bool`, argument types equal)?
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }

    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        }
    }
}

/// Unary scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
}

/// A row-level scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A column reference.
    Col(ColName),
    /// A constant.
    Const(Value),
    Bin(BinOp, Arc<Expr>, Arc<Expr>),
    Un(UnOp, Arc<Expr>),
    /// `CASE WHEN cond THEN then ELSE els END`.
    Case(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// Type cast between numeric domains (`Int` ⇄ `Dbl` ⇄ `Nat`).
    Cast(Ty, Arc<Expr>),
    /// A statement parameter: 0-based slot (`$1` is slot 0) and the type
    /// the SQL binder inferred for it. A plan holding one is a template;
    /// [`Plan::bind_params`](crate::Plan::bind_params) turns it into a
    /// runnable plan of constants.
    Param(u32, Ty),
}

impl Expr {
    pub fn col(name: impl Into<ColName>) -> Expr {
        Expr::Col(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Arc::new(l), Arc::new(r))
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Eq, l, r)
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::And, l, r)
    }

    // an associated constructor, not a `Not` impl on `Expr` values
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Un(UnOp::Not, Arc::new(e))
    }

    pub fn case(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::Case(Arc::new(c), Arc::new(t), Arc::new(e))
    }

    pub fn cast(ty: Ty, e: Expr) -> Expr {
        Expr::Cast(ty, Arc::new(e))
    }

    /// All column names referenced by this expression.
    pub fn columns(&self, out: &mut Vec<ColName>) {
        match self {
            Expr::Col(c) => {
                if !out.iter().any(|o| o == c) {
                    out.push(c.clone());
                }
            }
            Expr::Const(_) | Expr::Param(..) => {}
            Expr::Bin(_, l, r) => {
                l.columns(out);
                r.columns(out);
            }
            Expr::Un(_, e) => e.columns(out),
            Expr::Case(c, t, e) => {
                c.columns(out);
                t.columns(out);
                e.columns(out);
            }
            Expr::Cast(_, e) => e.columns(out),
        }
    }

    /// Infer the result type against a schema; `None` if ill-typed.
    pub fn infer_ty(&self, schema: &Schema) -> Option<Ty> {
        match self {
            Expr::Col(c) => schema.ty_of(c),
            Expr::Const(v) => Some(v.ty()),
            Expr::Param(_, ty) => Some(*ty),
            Expr::Bin(op, l, r) => {
                let lt = l.infer_ty(schema)?;
                let rt = r.infer_ty(schema)?;
                if op.is_cmp() {
                    (lt == rt).then_some(Ty::Bool)
                } else if op.is_logic() {
                    (lt == Ty::Bool && rt == Ty::Bool).then_some(Ty::Bool)
                } else if *op == BinOp::Concat {
                    (lt == Ty::Str && rt == Ty::Str).then_some(Ty::Str)
                } else {
                    // arithmetic: both numeric and equal
                    (lt == rt && matches!(lt, Ty::Int | Ty::Dbl | Ty::Nat)).then_some(lt)
                }
            }
            Expr::Un(UnOp::Not, e) => (e.infer_ty(schema)? == Ty::Bool).then_some(Ty::Bool),
            Expr::Un(UnOp::Neg, e) => {
                let t = e.infer_ty(schema)?;
                matches!(t, Ty::Int | Ty::Dbl).then_some(t)
            }
            Expr::Case(c, t, e) => {
                let ct = c.infer_ty(schema)?;
                let tt = t.infer_ty(schema)?;
                let et = e.infer_ty(schema)?;
                (ct == Ty::Bool && tt == et).then_some(tt)
            }
            Expr::Cast(ty, e) => {
                let et = e.infer_ty(schema)?;
                let ok = matches!(et, Ty::Int | Ty::Dbl | Ty::Nat | Ty::Bool)
                    && matches!(ty, Ty::Int | Ty::Dbl | Ty::Nat);
                ok.then_some(*ty)
            }
        }
    }

    /// Every parameter occurrence in this expression, as `(slot, type)`.
    pub(crate) fn params(&self, out: &mut Vec<(u32, Ty)>) {
        match self {
            Expr::Param(slot, ty) => out.push((*slot, *ty)),
            Expr::Col(_) | Expr::Const(_) => {}
            Expr::Bin(_, l, r) => {
                l.params(out);
                r.params(out);
            }
            Expr::Un(_, e) | Expr::Cast(_, e) => e.params(out),
            Expr::Case(c, t, e) => {
                c.params(out);
                t.params(out);
                e.params(out);
            }
        }
    }

    /// This expression with every parameter replaced by its value from
    /// `params` (indexed by slot). A value must have its slot's type; the
    /// one coercion is the binder's literal repair, a non-negative `Int`
    /// for a `Nat` slot.
    pub(crate) fn bind_params(&self, params: &[Value]) -> Result<Expr, ParamError> {
        let bind = |e: &Arc<Expr>| e.bind_params(params).map(Arc::new);
        Ok(match self {
            Expr::Param(slot, ty) => {
                let v = params.get(*slot as usize).ok_or(ParamError::Arity {
                    expected: *slot as usize + 1,
                    got: params.len(),
                })?;
                Expr::Const(match (ty, v) {
                    (Ty::Nat, Value::Int(i)) if *i >= 0 => Value::Nat(*i as u64),
                    _ if v.ty() == *ty => v.clone(),
                    _ => {
                        return Err(ParamError::Type {
                            slot: *slot,
                            expected: *ty,
                            got: v.ty(),
                        })
                    }
                })
            }
            Expr::Col(_) | Expr::Const(_) => self.clone(),
            Expr::Bin(op, l, r) => Expr::Bin(*op, bind(l)?, bind(r)?),
            Expr::Un(op, e) => Expr::Un(*op, bind(e)?),
            Expr::Case(c, t, e) => Expr::Case(bind(c)?, bind(t)?, bind(e)?),
            Expr::Cast(ty, e) => Expr::Cast(*ty, bind(e)?),
        })
    }
}

/// Why a parameter binding was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// The statement takes `expected` parameters; `got` were supplied.
    Arity { expected: usize, got: usize },
    /// The value bound to `slot` has the wrong type.
    Type { slot: u32, expected: Ty, got: Ty },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Arity { expected, got } => {
                write!(f, "statement expects {expected} parameters, got {got}")
            }
            ParamError::Type {
                slot,
                expected,
                got,
            } => write!(
                f,
                "parameter ${} expects a {expected} value, got {got}",
                *slot as u64 + 1
            ),
        }
    }
}

impl std::error::Error for ParamError {}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Bin(op, l, r) => write!(f, "({l} {} {r})", op.sql()),
            Expr::Un(UnOp::Not, e) => write!(f, "NOT ({e})"),
            Expr::Un(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Case(c, t, e) => write!(f, "CASE WHEN {c} THEN {t} ELSE {e} END"),
            Expr::Cast(ty, e) => write!(f, "CAST({e} AS {ty})"),
            Expr::Param(slot, _) => write!(f, "${}", *slot as u64 + 1),
        }
    }
}

/// Aggregation functions used by `GroupBy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFun {
    /// `COUNT(*)` — argument ignored.
    CountAll,
    Sum,
    Min,
    Max,
    Avg,
    /// Boolean conjunction of a `Bool` column (SQL `BOOL_AND` / `MIN`).
    All,
    /// Boolean disjunction of a `Bool` column (SQL `BOOL_OR` / `MAX`).
    Any,
}

impl AggFun {
    /// Result type of the aggregate given the input column type.
    pub fn result_ty(self, input: Option<Ty>) -> Option<Ty> {
        match self {
            AggFun::CountAll => Some(Ty::Int),
            AggFun::Sum => input.filter(|t| matches!(t, Ty::Int | Ty::Dbl | Ty::Nat)),
            AggFun::Min | AggFun::Max => input,
            AggFun::Avg => input
                .filter(|t| matches!(t, Ty::Int | Ty::Dbl))
                .map(|_| Ty::Dbl),
            AggFun::All | AggFun::Any => input.filter(|t| *t == Ty::Bool),
        }
    }

    pub fn sql(self) -> &'static str {
        match self {
            AggFun::CountAll => "COUNT",
            AggFun::Sum => "SUM",
            AggFun::Min => "MIN",
            AggFun::Max => "MAX",
            AggFun::Avg => "AVG",
            AggFun::All => "BOOL_AND",
            AggFun::Any => "BOOL_OR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[
            ("a", Ty::Int),
            ("b", Ty::Int),
            ("s", Ty::Str),
            ("p", Ty::Bool),
        ])
    }

    #[test]
    fn infer_arith_and_cmp() {
        let s = schema();
        let e = Expr::bin(BinOp::Add, Expr::col("a"), Expr::col("b"));
        assert_eq!(e.infer_ty(&s), Some(Ty::Int));
        let c = Expr::bin(BinOp::Lt, Expr::col("a"), Expr::col("b"));
        assert_eq!(c.infer_ty(&s), Some(Ty::Bool));
        let bad = Expr::bin(BinOp::Add, Expr::col("a"), Expr::col("s"));
        assert_eq!(bad.infer_ty(&s), None);
    }

    #[test]
    fn infer_logic_concat_case_cast() {
        let s = schema();
        let l = Expr::and(Expr::col("p"), Expr::lit(true));
        assert_eq!(l.infer_ty(&s), Some(Ty::Bool));
        let cc = Expr::bin(BinOp::Concat, Expr::col("s"), Expr::lit("x"));
        assert_eq!(cc.infer_ty(&s), Some(Ty::Str));
        let cs = Expr::case(Expr::col("p"), Expr::col("a"), Expr::col("b"));
        assert_eq!(cs.infer_ty(&s), Some(Ty::Int));
        let ct = Expr::cast(Ty::Dbl, Expr::col("a"));
        assert_eq!(ct.infer_ty(&s), Some(Ty::Dbl));
        let bad_case = Expr::case(Expr::col("a"), Expr::col("a"), Expr::col("b"));
        assert_eq!(bad_case.infer_ty(&s), None);
    }

    #[test]
    fn columns_are_deduplicated() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::col("a"),
            Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("b")),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        let names: Vec<&str> = cols.iter().map(|c| c.as_ref()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn agg_result_types() {
        assert_eq!(AggFun::CountAll.result_ty(None), Some(Ty::Int));
        assert_eq!(AggFun::Sum.result_ty(Some(Ty::Int)), Some(Ty::Int));
        assert_eq!(AggFun::Sum.result_ty(Some(Ty::Str)), None);
        assert_eq!(AggFun::Avg.result_ty(Some(Ty::Int)), Some(Ty::Dbl));
        assert_eq!(AggFun::Min.result_ty(Some(Ty::Str)), Some(Ty::Str));
        assert_eq!(AggFun::All.result_ty(Some(Ty::Bool)), Some(Ty::Bool));
        assert_eq!(AggFun::Any.result_ty(Some(Ty::Int)), None);
    }

    #[test]
    fn display_round_trips_structure() {
        let e = Expr::case(
            Expr::eq(Expr::col("a"), Expr::lit(1i64)),
            Expr::lit("yes"),
            Expr::lit("no"),
        );
        assert_eq!(e.to_string(), "CASE WHEN (a = 1) THEN 'yes' ELSE 'no' END");
    }
}
