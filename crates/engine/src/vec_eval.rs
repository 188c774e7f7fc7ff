//! Vectorized expression kernels: batch evaluation over typed columns.
//!
//! The scalar evaluator ([`crate::eval`]) walks a [`Bound`] tree once per
//! row — every cell goes through a `Value` match. A kernel walks the same
//! tree once per **batch** of up to [`BATCH_ROWS`] rows ([`eval_batch`]):
//! a column reference gathers its typed column at the batch's rows, and
//! an operator zips its operands' typed registers in one monomorphic loop
//! (`&[i64]` + `&[i64]` → `Vec<i64>`), so the per-row cost is an add and
//! a bounds check instead of an enum dispatch and a `Value` clone.
//!
//! A kernel is one plan node's expression: a `Select`'s predicate
//! ([`filter`]) or a `Compute`'s value ([`compute`]), run over the
//! node's input batch by batch. `crate::exec` evaluates every plan node
//! on its own, so each node's kernel runs over its whole input before the
//! next node starts. Under [`VecMode::On`] every `Select` and `Compute`
//! runs this way, whatever its input size; the scalar operators run only
//! under [`VecMode::Off`], as the differential oracle.
//!
//! ## Semantics contract
//!
//! The kernels are *observably identical* to the scalar oracle — same
//! values, same errors (message strings included) — with one deliberate
//! freedom within one node: when several rows fail, which error is
//! reported may differ (the oracle walks rows outer-most, a kernel walks
//! the tree outer-most). Across nodes there is none: a node fails before
//! the node above it runs, as in the oracle.
//!
//! **A sub-expression sees only the rows that reach it.** The right side
//! of `AND` is evaluated over the rows whose left side is true, the right
//! side of `OR` over those whose left side is false, and each `CASE`
//! branch over the rows that take it; the results are merged back in row
//! order. An operator that can raise therefore raises only for a row the
//! oracle would evaluate it on, and the oracle's short-circuits hold by
//! construction. Names resolve once, through the oracle's own
//! [`eval::bind`], so a missing column or an unbound parameter is refused
//! before any row is touched.
//!
//! Checked `Int`/`Nat` arithmetic with the oracle's exact error strings,
//! `wrapping_div` after the zero check (pinning the `i64::MIN / -1`
//! quirk), one canonical NaN ([`eval::canon`]) and `total_cmp` double
//! ordering are reproduced operator by operator, and so are three numeric
//! casts: `Nat` → `Int` (failing with the oracle's `nat too large for
//! int`), `Int` → `Dbl` and `Nat` → `Dbl`. What has no typed loop — the
//! other casts, `Nat` division and modulo, `unit` operands — goes cell by
//! cell through [`eval::cast`] and [`eval::bin_op`]. `infer_schema`
//! rejects an ill-typed expression before dispatch; one that reached a
//! kernel anyway fails with the internal register-confusion error, never
//! a fallback.
//! `tests/differential.rs` locks the contract in cell-for-cell, on
//! generated expressions too.

use crate::error::EngineError;
use crate::eval::{self, Bound};
use ferry_algebra::{BinOp, ColVec, Expr, Rel, Ty, UnOp, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Rows per kernel batch. Large enough to amortise dispatch, small enough
/// that a batch's registers stay cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// Execution-path selection. Production runs one implementation per
/// operator: a kernel for `Select` and `Compute`, column picks for
/// `Project` and `Attach`, and the typed sinks (joins, windows, group-by,
/// distinct, difference, serialize). The row-at-a-time `Bound`
/// interpretation is kept as the differential oracle. A `Database` carries
/// one (`Database::set_vec_mode`). See `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VecMode {
    /// Kernels and typed sinks, at every input size.
    #[default]
    On,
    /// The scalar oracle: every node through its scalar operator. For the
    /// differential suite.
    Off,
}

fn ee(msg: impl Into<String>) -> EngineError {
    EngineError::Eval(msg.into())
}

/// An expression `infer_schema` rejects reached a kernel.
fn mistyped(e: &Expr) -> EngineError {
    ee(format!(
        "internal: ill-typed expression {e} reached a kernel"
    ))
}

fn confusion() -> EngineError {
    ee("kernel register type confusion")
}

/// A batch register: one value per row of the batch (or sub-selection)
/// it was computed over, type-specialized like the columns it comes
/// from. `Val` holds `unit` cells.
#[derive(Debug)]
enum Reg {
    I64(Vec<i64>),
    U64(Vec<u64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
    Val(Vec<Value>),
}

impl Reg {
    /// An empty `ty` register with room for `cap` cells.
    fn new(ty: Ty, cap: usize) -> Reg {
        match ty {
            Ty::Int => Reg::I64(Vec::with_capacity(cap)),
            Ty::Nat => Reg::U64(Vec::with_capacity(cap)),
            Ty::Dbl => Reg::F64(Vec::with_capacity(cap)),
            Ty::Bool => Reg::Bool(Vec::with_capacity(cap)),
            Ty::Str => Reg::Str(Vec::with_capacity(cap)),
            Ty::Unit => Reg::Val(Vec::with_capacity(cap)),
        }
    }

    /// Column `col` at column rows `rows`.
    fn gather(col: &ColVec, rows: &[u32]) -> Reg {
        fn pick<T: Clone>(v: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&i| v[i as usize].clone()).collect()
        }
        match col {
            ColVec::Int(v) => Reg::I64(pick(v, rows)),
            ColVec::Nat(v) => Reg::U64(pick(v, rows)),
            ColVec::Dbl(v) => Reg::F64(pick(v, rows)),
            ColVec::Bool(v) => Reg::Bool(pick(v, rows)),
            ColVec::Str { codes, dict } => Reg::Str(
                rows.iter()
                    .map(|&i| dict[codes[i as usize] as usize].clone())
                    .collect(),
            ),
            ColVec::Other(v) => Reg::Val(pick(v, rows)),
        }
    }

    /// `v` in each of `n` cells.
    fn splat(v: &Value, n: usize) -> Reg {
        match v {
            Value::Int(x) => Reg::I64(vec![*x; n]),
            Value::Nat(x) => Reg::U64(vec![*x; n]),
            Value::Dbl(x) => Reg::F64(vec![*x; n]),
            Value::Bool(x) => Reg::Bool(vec![*x; n]),
            Value::Str(x) => Reg::Str(vec![x.clone(); n]),
            Value::Unit => Reg::Val(vec![Value::Unit; n]),
        }
    }

    fn ty(&self) -> Ty {
        match self {
            Reg::I64(_) => Ty::Int,
            Reg::U64(_) => Ty::Nat,
            Reg::F64(_) => Ty::Dbl,
            Reg::Bool(_) => Ty::Bool,
            Reg::Str(_) => Ty::Str,
            Reg::Val(_) => Ty::Unit,
        }
    }

    fn len(&self) -> usize {
        match self {
            Reg::I64(v) => v.len(),
            Reg::U64(v) => v.len(),
            Reg::F64(v) => v.len(),
            Reg::Bool(v) => v.len(),
            Reg::Str(v) => v.len(),
            Reg::Val(v) => v.len(),
        }
    }

    /// Cell `k` as an owned [`Value`], for the cell-by-cell loops.
    #[inline(always)]
    fn value(&self, k: usize) -> Value {
        match self {
            Reg::I64(v) => Value::Int(v[k]),
            Reg::U64(v) => Value::Nat(v[k]),
            Reg::F64(v) => Value::Dbl(v[k]),
            Reg::Bool(v) => Value::Bool(v[k]),
            Reg::Str(v) => Value::Str(v[k].clone()),
            Reg::Val(v) => v[k].clone(),
        }
    }

    #[inline(always)]
    fn push(&mut self, v: Value) -> Result<(), EngineError> {
        match (self, v) {
            (Reg::I64(o), Value::Int(x)) => o.push(x),
            (Reg::U64(o), Value::Nat(x)) => o.push(x),
            (Reg::F64(o), Value::Dbl(x)) => o.push(x),
            (Reg::Bool(o), Value::Bool(x)) => o.push(x),
            (Reg::Str(o), Value::Str(x)) => o.push(x),
            (Reg::Val(o), v) => o.push(v),
            _ => return Err(confusion()),
        }
        Ok(())
    }

    /// Move the cells of `src` (same variant) onto the end of `self`.
    fn append(&mut self, src: Reg) -> Result<(), EngineError> {
        match (self, src) {
            (Reg::I64(a), Reg::I64(b)) => a.extend(b),
            (Reg::U64(a), Reg::U64(b)) => a.extend(b),
            (Reg::F64(a), Reg::F64(b)) => a.extend(b),
            (Reg::Bool(a), Reg::Bool(b)) => a.extend(b),
            (Reg::Str(a), Reg::Str(b)) => a.extend(b),
            (Reg::Val(a), Reg::Val(b)) => a.extend(b),
            _ => return Err(confusion()),
        }
        Ok(())
    }

    /// The register as a column: typed registers move, strings are
    /// dictionary-encoded.
    fn into_col(self) -> ColVec {
        match self {
            Reg::I64(v) => ColVec::Int(v),
            Reg::U64(v) => ColVec::Nat(v),
            Reg::F64(v) => ColVec::Dbl(v),
            Reg::Bool(v) => ColVec::Bool(v),
            Reg::Str(v) => ColVec::from_strs(v),
            Reg::Val(v) => ColVec::Other(v),
        }
    }

    fn bools(self) -> Result<Vec<bool>, EngineError> {
        match self {
            Reg::Bool(v) => Ok(v),
            _ => Err(confusion()),
        }
    }
}

/// `b` over the batch rows `rows` of `rel` (column row indices, never
/// empty): one register holding a cell per row, in row order.
fn eval_batch(b: &Bound, rel: &Rel, rows: &[u32]) -> Result<Reg, EngineError> {
    match b {
        Bound::Col(c) => Ok(Reg::gather(rel.col(*c), rows)),
        Bound::Const(v) => Ok(Reg::splat(v, rows.len())),
        Bound::Bin(op @ (BinOp::And | BinOp::Or), l, r) => {
            // the right side sees the rows the left side did not decide:
            // true ones for AND, false ones for OR
            let when = *op == BinOp::And;
            let mut out = eval_batch(l, rel, rows)?.bools()?;
            if let Some(rv) = eval_reached(r, rel, rows, &out, when)? {
                let undecided = out.iter_mut().filter(|x| **x == when);
                for (x, v) in undecided.zip(rv.bools()?) {
                    *x = v;
                }
            }
            Ok(Reg::Bool(out))
        }
        Bound::Bin(op, l, r) => bin(*op, eval_batch(l, rel, rows)?, eval_batch(r, rel, rows)?),
        Bound::Un(UnOp::Not, x) => {
            let mut v = eval_batch(x, rel, rows)?.bools()?;
            v.iter_mut().for_each(|x| *x = !*x);
            Ok(Reg::Bool(v))
        }
        Bound::Un(UnOp::Neg, x) => match eval_batch(x, rel, rows)? {
            Reg::I64(v) => v
                .iter()
                .map(|x| {
                    x.checked_neg()
                        .ok_or_else(|| ee("integer overflow in negation"))
                })
                .collect::<Result<_, _>>()
                .map(Reg::I64),
            Reg::F64(v) => Ok(Reg::F64(v.iter().map(|x| -x).collect())),
            _ => Err(confusion()),
        },
        Bound::Case(c, t, e) => {
            // each branch sees the rows that take it
            let cond = eval_batch(c, rel, rows)?.bools()?;
            let t = eval_reached(t, rel, rows, &cond, true)?;
            let e = eval_reached(e, rel, rows, &cond, false)?;
            match (t, e) {
                (Some(t), Some(e)) => merge(&cond, t, e),
                (t, e) => t.or(e).ok_or_else(confusion),
            }
        }
        Bound::Cast(ty, x) => {
            let a = eval_batch(x, rel, rows)?;
            cast(*ty, a)
        }
    }
}

/// `b` over the rows of `rows` where `cond` is `when` — the rows that
/// reach it — or `None` if no row does.
fn eval_reached(
    b: &Bound,
    rel: &Rel,
    rows: &[u32],
    cond: &[bool],
    when: bool,
) -> Result<Option<Reg>, EngineError> {
    let mut sub = Vec::with_capacity(rows.len());
    sub.extend(
        rows.iter()
            .zip(cond)
            .filter(|(_, &c)| c == when)
            .map(|(&r, _)| r),
    );
    if sub.is_empty() {
        return Ok(None);
    }
    eval_batch(b, rel, &sub).map(Some)
}

/// A `CASE`'s result in row order: `t`'s next cell where `cond` holds,
/// `e`'s next cell where it does not.
fn merge(cond: &[bool], t: Reg, e: Reg) -> Result<Reg, EngineError> {
    fn pick<T>(cond: &[bool], t: Vec<T>, e: Vec<T>) -> Vec<T> {
        let (mut t, mut e) = (t.into_iter(), e.into_iter());
        let mut out = Vec::with_capacity(cond.len());
        out.extend(
            cond.iter()
                .map_while(|&c| if c { t.next() } else { e.next() }),
        );
        out
    }
    Ok(match (t, e) {
        (Reg::I64(t), Reg::I64(e)) => Reg::I64(pick(cond, t, e)),
        (Reg::U64(t), Reg::U64(e)) => Reg::U64(pick(cond, t, e)),
        (Reg::F64(t), Reg::F64(e)) => Reg::F64(pick(cond, t, e)),
        (Reg::Bool(t), Reg::Bool(e)) => Reg::Bool(pick(cond, t, e)),
        (Reg::Str(t), Reg::Str(e)) => Reg::Str(pick(cond, t, e)),
        (Reg::Val(t), Reg::Val(e)) => Reg::Val(pick(cond, t, e)),
        _ => return Err(confusion()),
    })
}

/// `a` cast to `ty`, with the oracle's values and error. `Nat` → `Int`
/// (the loop-lifted position columns), `Int` → `Dbl` and `Nat` → `Dbl`
/// are typed loops; every other pair goes cell by cell through
/// [`eval::cast`].
fn cast(ty: Ty, a: Reg) -> Result<Reg, EngineError> {
    Ok(match (ty, a) {
        (ty, a) if a.ty() == ty => a,
        (Ty::Int, Reg::U64(v)) => {
            if v.iter().any(|&n| n > i64::MAX as u64) {
                return Err(ee("nat too large for int"));
            }
            Reg::I64(v.into_iter().map(|n| n as i64).collect())
        }
        (Ty::Dbl, Reg::I64(v)) => Reg::F64(v.into_iter().map(|i| i as f64).collect()),
        (Ty::Dbl, Reg::U64(v)) => Reg::F64(v.into_iter().map(|n| n as f64).collect()),
        (ty, a) => by_value(ty, a.len(), |k| eval::cast(ty, a.value(k)))?,
    })
}

/// `f` at cells `0..n`, through the oracle's own `Value` functions, into
/// a `ty` register.
fn by_value(
    ty: Ty,
    n: usize,
    f: impl Fn(usize) -> Result<Value, EngineError>,
) -> Result<Reg, EngineError> {
    let mut out = Reg::new(ty, n);
    for k in 0..n {
        out.push(f(k)?)?;
    }
    Ok(out)
}

/// `f(x, y)` for every pair of cells, failing with `msg` at the first
/// `None`.
fn checked<T: Copy, U>(
    x: &[T],
    y: &[T],
    msg: &str,
    f: impl Fn(T, T) -> Option<U>,
) -> Result<Vec<U>, EngineError> {
    x.iter()
        .zip(y)
        .map(|(&x, &y)| f(x, y).ok_or_else(|| ee(msg)))
        .collect()
}

/// `f(x, y)` for every pair of cells.
fn zip<T: Copy, U>(x: &[T], y: &[T], f: impl Fn(T, T) -> U) -> Vec<U> {
    x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect()
}

/// Map a comparison operator to its `Ordering` predicate.
fn cmp_keep(op: BinOp) -> fn(Ordering) -> bool {
    match op {
        BinOp::Eq => |o| o == Ordering::Equal,
        BinOp::Ne => |o| o != Ordering::Equal,
        BinOp::Lt => |o| o == Ordering::Less,
        BinOp::Le => |o| o != Ordering::Greater,
        BinOp::Gt => |o| o == Ordering::Greater,
        _ => |o| o != Ordering::Less,
    }
}

/// A non-logical binary operator over two registers of one batch, with
/// the oracle's semantics and error strings.
fn bin(op: BinOp, a: Reg, b: Reg) -> Result<Reg, EngineError> {
    use BinOp::{Add, Concat, Div, Mod, Mul, Sub};
    use Reg::{Bool, Str, F64, I64, U64};
    if op.is_cmp() {
        let keep = cmp_keep(op);
        return Ok(Bool(match (&a, &b) {
            (I64(x), I64(y)) => zip(x, y, |x, y| keep(x.cmp(&y))),
            (U64(x), U64(y)) => zip(x, y, |x, y| keep(x.cmp(&y))),
            // `Value` ordering: total, not IEEE
            (F64(x), F64(y)) => zip(x, y, |x, y| keep(x.total_cmp(&y))),
            (Bool(x), Bool(y)) => zip(x, y, |x, y| keep(x.cmp(&y))),
            (Str(x), Str(y)) => x.iter().zip(y).map(|(x, y)| keep(x.cmp(y))).collect(),
            _ => {
                return by_value(Ty::Bool, a.len(), |k| {
                    eval::bin_op(op, a.value(k), b.value(k))
                })
            }
        }));
    }
    Ok(match (op, a, b) {
        (Concat, Str(x), Str(y)) => Str(x
            .iter()
            .zip(&y)
            .map(|(x, y)| Arc::from([&**x, &**y].concat()))
            .collect()),
        (Add, I64(x), I64(y)) => I64(checked(&x, &y, "integer overflow in +", i64::checked_add)?),
        (Sub, I64(x), I64(y)) => I64(checked(&x, &y, "integer overflow in -", i64::checked_sub)?),
        (Mul, I64(x), I64(y)) => I64(checked(&x, &y, "integer overflow in *", i64::checked_mul)?),
        // the oracle's quirk: `i64::MIN / -1` wraps
        (Div, I64(x), I64(y)) => I64(checked(&x, &y, "division by zero", |x, y| {
            (y != 0).then(|| x.wrapping_div(y))
        })?),
        (Mod, I64(x), I64(y)) => I64(checked(&x, &y, "modulo by zero", |x, y| {
            (y != 0).then(|| x.wrapping_rem(y))
        })?),
        (Add, U64(x), U64(y)) => U64(checked(&x, &y, "nat overflow in +", u64::checked_add)?),
        (Sub, U64(x), U64(y)) => U64(checked(&x, &y, "nat underflow in -", u64::checked_sub)?),
        (Mul, U64(x), U64(y)) => U64(checked(&x, &y, "nat overflow in *", u64::checked_mul)?),
        (Add, F64(x), F64(y)) => F64(zip(&x, &y, |x, y| eval::canon(x + y))),
        (Sub, F64(x), F64(y)) => F64(zip(&x, &y, |x, y| eval::canon(x - y))),
        (Mul, F64(x), F64(y)) => F64(zip(&x, &y, |x, y| eval::canon(x * y))),
        (Div, F64(x), F64(y)) => F64(checked(&x, &y, "division by zero", |x, y| {
            (y != 0.0).then(|| eval::canon(x / y))
        })?),
        (Mod, F64(x), F64(y)) => F64(checked(&x, &y, "modulo by zero", |x, y| {
            (y != 0.0).then(|| eval::canon(x % y))
        })?),
        // `Nat` division and modulo, which the oracle does not define,
        // and anything else without a typed loop
        (op, a, b) => by_value(a.ty(), a.len(), |k| {
            eval::bin_op(op, a.value(k), b.value(k))
        })?,
    })
}

/// Run `b` over every visible row of `rel`, in [`BATCH_ROWS`]-row
/// batches, handing `each` a batch's column rows and its result register.
/// Returns the number of batches run.
fn stream(
    b: &Bound,
    rel: &Rel,
    mut each: impl FnMut(&[u32], Reg) -> Result<(), EngineError>,
) -> Result<u32, EngineError> {
    let n = rel.len();
    let mut rows: Vec<u32> = Vec::with_capacity(BATCH_ROWS.min(n));
    let mut batches = 0;
    for lo in (0..n).step_by(BATCH_ROWS) {
        let hi = (lo + BATCH_ROWS).min(n);
        rows.clear();
        match rel.sel() {
            Some(s) => rows.extend_from_slice(&s[lo..hi]),
            None => rows.extend(lo as u32..hi as u32),
        }
        each(&rows, eval_batch(b, rel, &rows)?)?;
        batches += 1;
    }
    Ok(batches)
}

/// A `Select`'s kernel: the column rows of `rel`'s visible rows where
/// `pred` holds, in visible order, and the batches it ran.
pub(crate) fn filter(pred: &Expr, rel: &Rel) -> Result<(Vec<u32>, u32), EngineError> {
    let bound = eval::bind(pred, &rel.schema)?;
    let mut keep = Vec::new();
    let batches = stream(&bound, rel, |rows, out| {
        let mask = out.bools()?;
        keep.extend(rows.iter().zip(mask).filter(|(_, m)| *m).map(|(&r, _)| r));
        Ok(())
    })?;
    Ok((keep, batches))
}

/// A `Compute`'s kernel: `expr` at every visible row of `rel`, as one
/// column of type `ty` (the node's new column), and the batches it ran.
pub(crate) fn compute(expr: &Expr, rel: &Rel, ty: Ty) -> Result<(ColVec, u32), EngineError> {
    let bound = eval::bind(expr, &rel.schema)?;
    if expr.infer_ty(&rel.schema) != Some(ty) {
        return Err(mistyped(expr));
    }
    let mut col = Reg::new(ty, rel.len());
    let batches = stream(&bound, rel, |_, out| col.append(out))?;
    Ok((col.into_col(), batches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{bind, eval};
    use ferry_algebra::{Plan, Schema};

    fn schema() -> Schema {
        Schema::of(&[
            ("a", Ty::Int),
            ("b", Ty::Int),
            ("d", Ty::Dbl),
            ("p", Ty::Bool),
            ("s", Ty::Str),
            ("u", Ty::Unit),
        ])
    }

    fn rel(n: i64) -> Rel {
        Rel::new(
            schema(),
            (0..n)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(3),
                        Value::Dbl(i as f64 / 2.0),
                        Value::Bool(i % 2 == 0),
                        Value::str(if i % 3 == 0 { "x" } else { "y" }),
                        Value::Unit,
                    ]
                })
                .collect(),
        )
    }

    /// `e` over every row of `r` by the kernel, or its error.
    fn kernel_column(e: &Expr, r: &Rel) -> Result<Vec<Value>, EngineError> {
        let ty = e.infer_ty(&r.schema).expect("typed expression");
        let (col, _) = compute(e, r, ty)?;
        assert_eq!(col.len(), r.len());
        Ok((0..r.len()).map(|i| col.value(i)).collect())
    }

    /// `e` over every row of `r` by the scalar oracle, or its first error.
    fn oracle_column(e: &Expr, r: &Rel) -> Result<Vec<Value>, EngineError> {
        let bound = bind(e, &r.schema)?;
        (0..r.len()).map(|i| eval(&bound, &r.row(i))).collect()
    }

    /// Kernel result == scalar oracle result, row for row (errors by
    /// message).
    fn assert_agrees(e: &Expr, r: &Rel) {
        assert_eq!(kernel_column(e, r), oracle_column(e, r), "{e}");
    }

    /// … and neither fails.
    fn assert_matches_oracle(e: &Expr, r: &Rel) {
        assert!(oracle_column(e, r).is_ok(), "{e} fails in the oracle");
        assert_agrees(e, r);
    }

    #[test]
    fn arithmetic_kernels_match_oracle() {
        let r = rel(100);
        assert_matches_oracle(
            &Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::col("a"), Expr::lit(7i64)),
                Expr::col("b"),
            ),
            &r,
        );
        assert_matches_oracle(&Expr::bin(BinOp::Div, Expr::col("a"), Expr::col("b")), &r);
        assert_matches_oracle(
            &Expr::bin(BinOp::Mul, Expr::col("d"), Expr::lit(1.5f64)),
            &r,
        );
        assert_matches_oracle(&Expr::Un(UnOp::Neg, Arc::new(Expr::col("a"))), &r);
    }

    #[test]
    fn comparison_and_logic_kernels_match_oracle() {
        let r = rel(100);
        assert_matches_oracle(
            &Expr::and(
                Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(50i64)),
                Expr::col("p"),
            ),
            &r,
        );
        assert_matches_oracle(&Expr::eq(Expr::col("s"), Expr::lit("x")), &r);
        assert_matches_oracle(
            &Expr::bin(BinOp::Ge, Expr::col("d"), Expr::lit(10.0f64)),
            &r,
        );
        // unit comparisons go cell by cell through the oracle's bin_op
        assert_matches_oracle(&Expr::eq(Expr::col("u"), Expr::col("u")), &r);
    }

    #[test]
    fn case_concat_and_cast_match_oracle() {
        let r = rel(60);
        assert_matches_oracle(
            &Expr::case(Expr::col("p"), Expr::col("a"), Expr::col("b")),
            &r,
        );
        assert_matches_oracle(
            &Expr::bin(BinOp::Concat, Expr::col("s"), Expr::lit("!")),
            &r,
        );
        assert_matches_oracle(&Expr::Cast(Ty::Dbl, Arc::new(Expr::col("a"))), &r);
    }

    #[test]
    fn filter_yields_selection_vector() {
        let r = rel(3000); // several batches
        let lt = Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(10i64));
        let (keep, batches) = filter(&lt, &r).unwrap();
        assert_eq!(keep, (0..10).collect::<Vec<u32>>());
        assert_eq!(batches, 3);
    }

    #[test]
    fn kernels_report_scalar_error_messages() {
        let r = rel(100);
        let div = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a"));
        let err = kernel_column(&div, &r).unwrap_err();
        assert_eq!(err, EngineError::Eval("division by zero".into()));
        let ovf = Expr::bin(BinOp::Add, Expr::col("a"), Expr::lit(i64::MAX));
        let err = kernel_column(&ovf, &r).unwrap_err();
        assert_eq!(err, EngineError::Eval("integer overflow in +".into()));
    }

    /// A sub-expression sees only the rows that reach it: the right side
    /// of `AND`/`OR` and each `CASE` branch raise only on those rows
    /// (nested too), and a row that reaches a failing operator raises the
    /// oracle's error.
    #[test]
    fn guarded_logic_and_case_agree_with_oracle() {
        let (a, p) = (Expr::col("a"), Expr::col("p"));
        let div = |x: Expr| Expr::bin(BinOp::Div, Expr::lit(12i64), x);
        let inv = |x: Expr| Expr::eq(div(x), Expr::lit(1i64));
        let is0 = |x: Expr| Expr::eq(x, Expr::lit(0i64));
        let pos = Expr::bin(BinOp::Gt, a.clone(), Expr::lit(0i64));
        let a1 = Expr::bin(BinOp::Sub, a.clone(), Expr::lit(1i64));
        let neg = Expr::Un(UnOp::Neg, Arc::new(a.clone()));
        let r = rel(100); // a = 0 on row 0 only, where p holds
        for e in [
            Expr::bin(BinOp::Or, is0(a.clone()), inv(a.clone())),
            Expr::case(pos.clone(), div(a.clone()), neg),
            // three short-circuits deep
            Expr::and(
                pos,
                Expr::case(
                    p.clone(),
                    inv(a.clone()),
                    Expr::bin(BinOp::Or, is0(a1.clone()), inv(a1)),
                ),
            ),
        ] {
            assert_matches_oracle(&e, &r);
        }
        let reached = Expr::and(p, inv(a));
        assert_agrees(&reached, &r);
        assert_eq!(
            kernel_column(&reached, &r).unwrap_err(),
            ee("division by zero")
        );
    }

    #[test]
    fn nat_div_and_mod_raise_the_oracle_error() {
        let s = Schema::of(&[("n", Ty::Nat), ("p", Ty::Bool)]);
        let rows = (0..70).map(|i| vec![Value::Nat(i + 4), Value::Bool(i == 3)]);
        let r = Rel::new(s, rows.collect());
        for op in [BinOp::Div, BinOp::Mod] {
            let e = Expr::bin(op, Expr::col("n"), Expr::lit(Value::Nat(2)));
            // inside a branch only the one row that reaches it raises
            let case = Expr::case(Expr::col("p"), e.clone(), Expr::col("n"));
            let never = Expr::case(Expr::lit(false), e.clone(), Expr::col("n"));
            for (e, row) in [(e, "@4"), (case, "@7")] {
                assert_agrees(&e, &r);
                let err = kernel_column(&e, &r).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("not applicable to {row} and @2")),
                    "{err}"
                );
            }
            assert_matches_oracle(&never, &r);
        }
    }

    /// A relation of `Nat`, `Int` and `Dbl` edge values over 1100 rows
    /// (two batches). Row 1030 alone holds `u64::MAX`, and `p` holds
    /// there only.
    fn cast_rel() -> Rel {
        let s = Schema::of(&[
            ("n", Ty::Nat),
            ("i", Ty::Int),
            ("d", Ty::Dbl),
            ("p", Ty::Bool),
        ]);
        let ns = [0, 1, 1 << 53, (1 << 53) + 1, i64::MAX as u64];
        let is = [i64::MIN, -1, 0, 1, i64::MAX, (1 << 53) + 1];
        let ds = [-1.5, -0.0, 0.0, 2.5, 1e300, -1e300, f64::NAN];
        let rows = (0..1100).map(|k| {
            let n = if k == 1030 {
                u64::MAX
            } else {
                ns[k % ns.len()]
            };
            vec![
                Value::Nat(n),
                Value::Int(is[k % is.len()]),
                Value::Dbl(ds[k % ds.len()]),
                Value::Bool(k == 1030),
            ]
        });
        Rel::new(s, rows.collect())
    }

    /// The typed casts give the oracle's values, and `Nat` → `Int` fails
    /// with its error only on a row that reaches the cast.
    #[test]
    fn typed_casts_match_the_oracle() {
        let r = cast_rel();
        let cast = |ty, c| Expr::cast(ty, Expr::col(c));
        assert_matches_oracle(&cast(Ty::Dbl, "i"), &r);
        assert_matches_oracle(&cast(Ty::Dbl, "n"), &r);
        // u64::MAX does not fit: the oracle's error, from the second batch
        let too_large = ee("nat too large for int");
        assert_agrees(&cast(Ty::Int, "n"), &r);
        assert_eq!(
            kernel_column(&cast(Ty::Int, "n"), &r),
            Err(too_large.clone())
        );
        // behind a guard, the one row holding it raises only where it
        // reaches the cast
        let zero = Expr::lit(0i64);
        let skips = Expr::case(Expr::col("p"), zero.clone(), cast(Ty::Int, "n"));
        assert_matches_oracle(&skips, &r);
        let reaches = Expr::case(Expr::col("p"), cast(Ty::Int, "n"), zero);
        assert_agrees(&reaches, &r);
        assert_eq!(kernel_column(&reaches, &r), Err(too_large));
        // i64::MAX fits, and casts back to its own bits
        let fits = Expr::case(Expr::col("p"), Expr::lit(0i64), cast(Ty::Int, "n"));
        let (col, _) = compute(&fits, &r, Ty::Int).unwrap();
        assert_eq!(col.value(4), Value::Int(i64::MAX));
    }

    /// Casts without a typed loop go through the oracle's `cast` cell by
    /// cell: the same values, and the same errors.
    #[test]
    fn other_casts_match_the_oracle() {
        let r = cast_rel();
        for (ty, c) in [
            (Ty::Int, "d"),
            (Ty::Int, "p"),
            (Ty::Dbl, "p"),
            (Ty::Nat, "p"),
            (Ty::Int, "i"),
            (Ty::Dbl, "d"),
        ] {
            assert_matches_oracle(&Expr::cast(ty, Expr::col(c)), &r);
        }
        for (ty, c, err) in [
            (Ty::Nat, "i", "negative int cast to nat"),
            (Ty::Nat, "d", "cannot cast -1.5 to nat"),
        ] {
            let e = Expr::cast(ty, Expr::col(c));
            assert_agrees(&e, &r);
            assert_eq!(kernel_column(&e, &r), Err(ee(err)), "{e}");
        }
    }

    /// A filter's survivors are the next kernel's input: a compute over
    /// them, several batches long, sees only the rows the filter kept.
    #[test]
    fn computes_see_only_the_rows_filters_kept() {
        let r = rel(3000);
        let lt = Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(500i64));
        let (keep, _) = filter(&lt, &r).unwrap();
        let kept = r.with_sel(keep);
        // y = a * 2 + b over rows 0..500 only
        let y = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::col("a"), Expr::lit(2i64)),
            Expr::col("b"),
        );
        let (col, batches) = compute(&y, &kept, Ty::Int).unwrap();
        assert_eq!(batches, 1);
        let want: Vec<i64> = (0..500).map(|a| 2 * a + 3).collect();
        assert_eq!(col.as_int(), Some(&want[..]));
        // rows a filter dropped never reach a later fallible compute
        let inv = Expr::bin(BinOp::Div, Expr::lit(100i64), Expr::col("a"));
        let pos = Expr::bin(BinOp::Gt, Expr::col("a"), Expr::lit(0i64));
        let (keep, _) = filter(&pos, &r).unwrap();
        let (col, _) = compute(&inv, &r.with_sel(keep), Ty::Int).unwrap();
        assert_eq!((col.len(), col.value(0)), (2999, Value::Int(100)));
        // unfiltered, the zero row reaches the divide and raises the
        // scalar oracle's message
        let err = compute(&inv, &r, Ty::Int).unwrap_err();
        assert_eq!(err, EngineError::Eval("division by zero".into()));
    }

    /// A kernel over a projected selection loads the picked columns at
    /// the selected rows, in the selection's order.
    #[test]
    fn kernels_bind_to_projected_selections() {
        let r = rel(100).with_sel((0..100).rev().collect());
        let view = r.project(Schema::of(&[("b", Ty::Int), ("d", Ty::Dbl)]), &[1, 2]);
        let gt = Expr::bin(BinOp::Gt, Expr::col("d"), Expr::lit(25.0f64));
        let (keep, _) = filter(&gt, &view).unwrap();
        // d = i/2 > 25 → i > 50, in the selection's (descending) order
        assert_eq!(keep, (51..100).rev().collect::<Vec<u32>>());
        let (col, _) = compute(&Expr::col("d"), &view, Ty::Dbl).unwrap();
        assert_eq!(col.value(0), Value::Dbl(49.5));
    }

    /// A kernel takes every well-typed expression; it refuses only what
    /// the oracle refuses before touching a row, with the oracle's error.
    #[test]
    fn kernels_refuse_only_what_the_oracle_refuses() {
        let r = rel(10);
        let inv = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a"));
        let fallible = Expr::eq(inv.clone(), Expr::lit(1i64));
        let (keep, _) = filter(&Expr::bin(BinOp::Or, Expr::col("p"), fallible), &r).unwrap();
        // `p` OR 1/a = 1: rows 0, 2, 4, … and a = 1
        assert_eq!(keep, [0, 1, 2, 4, 6, 8]);
        let pos = Expr::bin(BinOp::Gt, Expr::col("a"), Expr::lit(0i64));
        let case = Expr::case(pos, inv, Expr::lit(1i64));
        let (col, _) = compute(&case, &r, Ty::Int).unwrap();
        assert_eq!(col.value(1), Value::Int(1));
        let param = Expr::Param(2, Ty::Bool);
        assert_eq!(filter(&param, &r), Err(EngineError::UnboundParam(2)));
        let ghost = Expr::col("ghost");
        assert_eq!(
            filter(&ghost, &r),
            Err(bind(&ghost, &r.schema).unwrap_err())
        );
        // an ill-typed predicate, which `infer_schema` stops before
        // dispatch, fails when it runs: no fallback
        assert_eq!(filter(&Expr::col("a"), &r), Err(confusion()));
        let err = compute(&Expr::col("a"), &r, Ty::Str).unwrap_err();
        assert_eq!(err, mistyped(&Expr::col("a")));
    }

    /// `On` (the default) runs a Select's kernel at every input size,
    /// `Off` the scalar operator; both agree.
    #[test]
    fn vec_modes_agree_and_only_on_runs_kernels() {
        assert_eq!(VecMode::default(), VecMode::On);
        for n in [0, 1, 63, 64, 200] {
            let mut plan = Plan::new();
            let l = plan.lit(schema(), rel(n).rows().into_owned());
            let root = plan.select(l, Expr::col("p"));
            let mut got = Vec::new();
            for (vec, batches) in [(VecMode::Off, 0), (VecMode::On, u64::from(n > 0))] {
                let db = crate::Database::new();
                db.set_vec_mode(vec);
                got.push(db.execute(&plan, root).unwrap());
                assert_eq!(db.stats().kernel_batches, batches, "{vec:?} at {n}");
            }
            assert_eq!(got[0], got[1], "{n} rows");
            assert_eq!(got[0].len(), (n as usize).div_ceil(2));
        }
    }
}
