//! The reference interpreter: direct in-heap semantics of the kernel AST.
//!
//! This is the meaning the database-supported execution must reproduce —
//! DSH combinators "behave as their namesakes in the Haskell list prelude".
//! The property-test suite compares `compile → execute → stitch` against
//! this interpreter on randomised programs and databases (list order is
//! compared exactly: *List Order Preservation*, §4.1).
//!
//! Semantics notes (kept deliberately identical on both sides):
//! * integer `div`/`mod` truncate toward zero and overflow is an error
//!   (matching the engine, not Haskell's flooring `div`),
//! * partial operations (`head`, `the`, `maximum`, out-of-range `!!`) on
//!   empty input are [`FerryError::Partial`],
//! * `the` returns the first element of a non-empty list (its precondition
//!   — all elements equal — is the caller's obligation, as in GHC),
//! * `group_with` sorts groups by key and preserves element order within a
//!   group; `sort_with` is a stable sort.

use crate::error::FerryError;
use crate::exp::{Exp, Fun1, Fun2, Prim1, Prim2};
#[cfg(test)]
use crate::types::Ty;
use crate::types::Val;
use std::collections::HashMap;
use std::rc::Rc;

/// Provider of in-heap table contents for `table "name"`: the rows as a
/// `Val::List` of flat tuples, in canonical (key) order with columns in
/// alphabetical order — exactly the view the compiler gives the database
/// side.
pub type Tables = HashMap<String, Val>;

/// Interpret a closed kernel term.
pub fn interpret(exp: &Exp, tables: &Tables) -> Result<Val, FerryError> {
    eval(exp, &mut Vec::new(), tables)
}

type Env = Vec<(u32, Val)>;

fn lookup(env: &Env, x: u32) -> Result<Val, FerryError> {
    env.iter()
        .rev()
        .find(|(y, _)| *y == x)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| FerryError::IllTyped(format!("unbound variable x{x}")))
}

fn as_list(v: Val) -> Vec<Val> {
    match v {
        Val::List(vs) => vs,
        v => panic!("expected a list, got {v:?} (surface typing should prevent this)"),
    }
}

fn eval(exp: &Exp, env: &mut Env, tables: &Tables) -> Result<Val, FerryError> {
    match exp {
        Exp::Const(v, _) => Ok(v.clone()),
        Exp::Var(x, _) => lookup(env, *x),
        Exp::Tuple(es, _) => {
            let vs: Result<Vec<Val>, _> = es.iter().map(|e| eval(e, env, tables)).collect();
            Ok(Val::Tuple(vs?))
        }
        Exp::ListE(es, _) => {
            let vs: Result<Vec<Val>, _> = es.iter().map(|e| eval(e, env, tables)).collect();
            Ok(Val::List(vs?))
        }
        Exp::Table(name, _) => tables
            .get(name)
            .cloned()
            .ok_or_else(|| FerryError::Table(format!("no such table: {name}"))),
        Exp::Lam(..) => Err(FerryError::IllTyped(
            "lambda in value position (first-class functions are unsupported)".into(),
        )),
        Exp::Prim2(op, a, b, _) => {
            // short-circuit And/Or like the engine
            if matches!(op, Prim2::And | Prim2::Or) {
                let av = eval(a, env, tables)?;
                return match (op, av) {
                    (Prim2::And, Val::Bool(false)) => Ok(Val::Bool(false)),
                    (Prim2::Or, Val::Bool(true)) => Ok(Val::Bool(true)),
                    (_, Val::Bool(_)) => eval(b, env, tables),
                    _ => Err(FerryError::IllTyped("logic on non-bool".into())),
                };
            }
            let av = eval(a, env, tables)?;
            let bv = eval(b, env, tables)?;
            prim2(*op, av, bv)
        }
        Exp::Prim1(op, e, _) => {
            let v = eval(e, env, tables)?;
            match (op, v) {
                (Prim1::Not, Val::Bool(b)) => Ok(Val::Bool(!b)),
                (Prim1::Neg, Val::Int(i)) => i
                    .checked_neg()
                    .map(Val::Int)
                    .ok_or_else(|| FerryError::Engine("integer overflow".into())),
                (Prim1::Neg, Val::Dbl(d)) => Ok(Val::Dbl(-d)),
                (Prim1::IntToDbl, Val::Int(i)) => Ok(Val::Dbl(i as f64)),
                (op, v) => Err(FerryError::IllTyped(format!("{op:?} on {v:?}"))),
            }
        }
        Exp::If(c, t, e, _) => match eval(c, env, tables)? {
            Val::Bool(true) => eval(t, env, tables),
            Val::Bool(false) => eval(e, env, tables),
            v => Err(FerryError::IllTyped(format!("if on {v:?}"))),
        },
        Exp::Proj(i, e, _) => match eval(e, env, tables)? {
            Val::Tuple(mut vs) if *i < vs.len() => Ok(vs.swap_remove(*i)),
            v => Err(FerryError::IllTyped(format!("proj {i} on {v:?}"))),
        },
        Exp::App1(f, e, _) => {
            let v = eval(e, env, tables)?;
            fun1(*f, v)
        }
        Exp::App2(f, a, b, _) => fun2(*f, a, b, env, tables),
    }
}

fn prim2(op: Prim2, a: Val, b: Val) -> Result<Val, FerryError> {
    use Prim2::*;
    if op.is_cmp() {
        let o = a.cmp_total(&b);
        let r = match op {
            Eq => o.is_eq(),
            Ne => o.is_ne(),
            Lt => o.is_lt(),
            Le => o.is_le(),
            Gt => o.is_gt(),
            Ge => o.is_ge(),
            _ => unreachable!(),
        };
        return Ok(Val::Bool(r));
    }
    let overflow = || FerryError::Engine("integer overflow".into());
    match (op, a, b) {
        (Conc, Val::Text(x), Val::Text(y)) => Ok(Val::Text([&*x, &*y].concat().into())),
        (Add, Val::Int(x), Val::Int(y)) => x.checked_add(y).map(Val::Int).ok_or_else(overflow),
        (Sub, Val::Int(x), Val::Int(y)) => x.checked_sub(y).map(Val::Int).ok_or_else(overflow),
        (Mul, Val::Int(x), Val::Int(y)) => x.checked_mul(y).map(Val::Int).ok_or_else(overflow),
        (Div, Val::Int(x), Val::Int(y)) => {
            if y == 0 {
                Err(FerryError::Engine("division by zero".into()))
            } else {
                Ok(Val::Int(x.wrapping_div(y)))
            }
        }
        (Mod, Val::Int(x), Val::Int(y)) => {
            if y == 0 {
                Err(FerryError::Engine("modulo by zero".into()))
            } else {
                Ok(Val::Int(x.wrapping_rem(y)))
            }
        }
        (Add, Val::Dbl(x), Val::Dbl(y)) => Ok(Val::Dbl(x + y)),
        (Sub, Val::Dbl(x), Val::Dbl(y)) => Ok(Val::Dbl(x - y)),
        (Mul, Val::Dbl(x), Val::Dbl(y)) => Ok(Val::Dbl(x * y)),
        (Div, Val::Dbl(x), Val::Dbl(y)) => {
            if y == 0.0 {
                Err(FerryError::Engine("division by zero".into()))
            } else {
                Ok(Val::Dbl(x / y))
            }
        }
        (Mod, Val::Dbl(x), Val::Dbl(y)) => {
            if y == 0.0 {
                Err(FerryError::Engine("modulo by zero".into()))
            } else {
                Ok(Val::Dbl(x % y))
            }
        }
        (op, a, b) => Err(FerryError::IllTyped(format!("{op:?} on {a:?} and {b:?}"))),
    }
}

fn empty(err: &str) -> FerryError {
    FerryError::Partial(format!("{err} of an empty list"))
}

fn fun1(f: Fun1, v: Val) -> Result<Val, FerryError> {
    use Fun1::*;
    let vs = as_list(v);
    match f {
        Concat => {
            let mut out = Vec::new();
            for inner in vs {
                out.extend(as_list(inner));
            }
            Ok(Val::List(out))
        }
        Head | The => vs.into_iter().next().ok_or_else(|| empty("head/the")),
        Last => vs.into_iter().last().ok_or_else(|| empty("last")),
        Tail => {
            let mut it = vs.into_iter();
            if it.next().is_none() {
                return Err(empty("tail"));
            }
            Ok(Val::List(it.collect()))
        }
        Init => {
            let mut vs = vs;
            if vs.pop().is_none() {
                return Err(empty("init"));
            }
            Ok(Val::List(vs))
        }
        Reverse => {
            let mut vs = vs;
            vs.reverse();
            Ok(Val::List(vs))
        }
        Length => Ok(Val::Int(vs.len() as i64)),
        Null => Ok(Val::Bool(vs.is_empty())),
        Sum => {
            if vs.iter().all(|v| matches!(v, Val::Dbl(_))) && !vs.is_empty() {
                let s: f64 = vs
                    .iter()
                    .map(|v| if let Val::Dbl(d) = v { *d } else { 0.0 })
                    .sum();
                return Ok(Val::Dbl(s));
            }
            let mut acc: i64 = 0;
            let mut dbl: f64 = 0.0;
            let mut is_dbl = false;
            for v in &vs {
                match v {
                    Val::Int(i) => {
                        acc = acc
                            .checked_add(*i)
                            .ok_or_else(|| FerryError::Engine("overflow in sum".into()))?
                    }
                    Val::Dbl(d) => {
                        is_dbl = true;
                        dbl += d;
                    }
                    v => return Err(FerryError::IllTyped(format!("sum of {v:?}"))),
                }
            }
            Ok(if is_dbl { Val::Dbl(dbl) } else { Val::Int(acc) })
        }
        Avg => {
            if vs.is_empty() {
                return Err(empty("avg"));
            }
            let mut s = 0.0;
            for v in &vs {
                s += match v {
                    Val::Int(i) => *i as f64,
                    Val::Dbl(d) => *d,
                    v => return Err(FerryError::IllTyped(format!("avg of {v:?}"))),
                };
            }
            Ok(Val::Dbl(s / vs.len() as f64))
        }
        Maximum => vs
            .into_iter()
            .reduce(|a, b| if b.cmp_total(&a).is_gt() { b } else { a })
            .ok_or_else(|| empty("maximum")),
        Minimum => vs
            .into_iter()
            .reduce(|a, b| if b.cmp_total(&a).is_lt() { b } else { a })
            .ok_or_else(|| empty("minimum")),
        And => Ok(Val::Bool(vs.iter().all(|v| *v == Val::Bool(true)))),
        Or => Ok(Val::Bool(vs.contains(&Val::Bool(true)))),
        Nub => {
            let mut out: Vec<Val> = Vec::new();
            for v in vs {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            Ok(Val::List(out))
        }
        Unzip => {
            let mut xs = Vec::with_capacity(vs.len());
            let mut ys = Vec::with_capacity(vs.len());
            for v in vs {
                match v {
                    Val::Tuple(mut p) if p.len() == 2 => {
                        ys.push(p.pop().unwrap());
                        xs.push(p.pop().unwrap());
                    }
                    v => return Err(FerryError::IllTyped(format!("unzip of {v:?}"))),
                }
            }
            Ok(Val::Tuple(vec![Val::List(xs), Val::List(ys)]))
        }
        Number => Ok(Val::List(
            vs.into_iter()
                .enumerate()
                .map(|(i, v)| Val::Tuple(vec![v, Val::Int(i as i64 + 1)]))
                .collect(),
        )),
    }
}

fn apply_lam(lam: &Exp, arg: Val, env: &mut Env, tables: &Tables) -> Result<Val, FerryError> {
    match lam {
        Exp::Lam(x, body, _) => {
            env.push((*x, arg));
            let r = eval(body, env, tables);
            env.pop();
            r
        }
        e => Err(FerryError::IllTyped(format!("expected a lambda, got {e}"))),
    }
}

fn fun2(
    f: Fun2,
    a: &Rc<Exp>,
    b: &Rc<Exp>,
    env: &mut Env,
    tables: &Tables,
) -> Result<Val, FerryError> {
    use Fun2::*;
    match f {
        Map | ConcatMap | Filter | GroupWith | SortWith | TakeWhile | DropWhile => {
            let xs = as_list(eval(b, env, tables)?);
            match f {
                Map => {
                    let mut out = Vec::with_capacity(xs.len());
                    for x in xs {
                        out.push(apply_lam(a, x, env, tables)?);
                    }
                    Ok(Val::List(out))
                }
                ConcatMap => {
                    let mut out = Vec::new();
                    for x in xs {
                        out.extend(as_list(apply_lam(a, x, env, tables)?));
                    }
                    Ok(Val::List(out))
                }
                Filter => {
                    let mut out = Vec::new();
                    for x in xs {
                        if apply_lam(a, x.clone(), env, tables)? == Val::Bool(true) {
                            out.push(x);
                        }
                    }
                    Ok(Val::List(out))
                }
                TakeWhile => {
                    let mut out = Vec::new();
                    for x in xs {
                        if apply_lam(a, x.clone(), env, tables)? == Val::Bool(true) {
                            out.push(x);
                        } else {
                            break;
                        }
                    }
                    Ok(Val::List(out))
                }
                DropWhile => {
                    let mut out = Vec::new();
                    let mut dropping = true;
                    for x in xs {
                        if dropping && apply_lam(a, x.clone(), env, tables)? == Val::Bool(true) {
                            continue;
                        }
                        dropping = false;
                        out.push(x);
                    }
                    Ok(Val::List(out))
                }
                SortWith => {
                    let mut keyed = Vec::with_capacity(xs.len());
                    for x in xs {
                        let k = apply_lam(a, x.clone(), env, tables)?;
                        keyed.push((k, x));
                    }
                    keyed.sort_by(|(k1, _), (k2, _)| k1.cmp_total(k2));
                    Ok(Val::List(keyed.into_iter().map(|(_, x)| x).collect()))
                }
                GroupWith => {
                    let mut keyed = Vec::with_capacity(xs.len());
                    for x in xs {
                        let k = apply_lam(a, x.clone(), env, tables)?;
                        keyed.push((k, x));
                    }
                    keyed.sort_by(|(k1, _), (k2, _)| k1.cmp_total(k2));
                    let mut groups: Vec<Val> = Vec::new();
                    let mut current: Vec<Val> = Vec::new();
                    let mut current_key: Option<Val> = None;
                    for (k, x) in keyed {
                        if current_key.as_ref() != Some(&k) {
                            if !current.is_empty() {
                                groups.push(Val::List(std::mem::take(&mut current)));
                            }
                            current_key = Some(k);
                        }
                        current.push(x);
                    }
                    if !current.is_empty() {
                        groups.push(Val::List(current));
                    }
                    Ok(Val::List(groups))
                }
                _ => unreachable!(),
            }
        }
        Append => {
            let mut xs = as_list(eval(a, env, tables)?);
            xs.extend(as_list(eval(b, env, tables)?));
            Ok(Val::List(xs))
        }
        Cons => {
            let x = eval(a, env, tables)?;
            let mut xs = as_list(eval(b, env, tables)?);
            xs.insert(0, x);
            Ok(Val::List(xs))
        }
        Index => {
            let xs = as_list(eval(a, env, tables)?);
            let i = match eval(b, env, tables)? {
                Val::Int(i) => i,
                v => return Err(FerryError::IllTyped(format!("index {v:?}"))),
            };
            if i < 0 || i as usize >= xs.len() {
                return Err(FerryError::Partial(format!(
                    "index {i} out of range (length {})",
                    xs.len()
                )));
            }
            Ok(xs.into_iter().nth(i as usize).unwrap())
        }
        Zip => {
            let xs = as_list(eval(a, env, tables)?);
            let ys = as_list(eval(b, env, tables)?);
            Ok(Val::List(
                xs.into_iter()
                    .zip(ys)
                    .map(|(x, y)| Val::Tuple(vec![x, y]))
                    .collect(),
            ))
        }
        Take | Drop => {
            let n = match eval(a, env, tables)? {
                Val::Int(i) => i.max(0) as usize,
                v => return Err(FerryError::IllTyped(format!("take/drop {v:?}"))),
            };
            let xs = as_list(eval(b, env, tables)?);
            let out = if f == Take {
                xs.into_iter().take(n).collect()
            } else {
                xs.into_iter().skip(n).collect()
            };
            Ok(Val::List(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::fresh_var;

    fn int(i: i64) -> Rc<Exp> {
        Rc::new(Exp::Const(Val::Int(i), Ty::Int))
    }

    fn ints(is: &[i64]) -> Rc<Exp> {
        Rc::new(Exp::Const(
            Val::List(is.iter().map(|i| Val::Int(*i)).collect()),
            Ty::list(Ty::Int),
        ))
    }

    fn run(e: Exp) -> Val {
        interpret(&e, &Tables::new()).unwrap()
    }

    #[test]
    fn map_square() {
        let x = fresh_var();
        let lam = Rc::new(Exp::Lam(
            x,
            Rc::new(Exp::Prim2(
                Prim2::Mul,
                Rc::new(Exp::Var(x, Ty::Int)),
                Rc::new(Exp::Var(x, Ty::Int)),
                Ty::Int,
            )),
            Ty::fun(Ty::Int, Ty::Int),
        ));
        let e = Exp::App2(Fun2::Map, lam, ints(&[1, 2, 3]), Ty::list(Ty::Int));
        assert_eq!(
            run(e),
            Val::List(vec![Val::Int(1), Val::Int(4), Val::Int(9)])
        );
    }

    #[test]
    fn group_with_sorts_groups_and_preserves_element_order() {
        // group_with (x mod 2) [3,1,4,1,5] = [[4], [3,1,1,5]]
        let x = fresh_var();
        let lam = Rc::new(Exp::Lam(
            x,
            Rc::new(Exp::Prim2(
                Prim2::Mod,
                Rc::new(Exp::Var(x, Ty::Int)),
                int(2),
                Ty::Int,
            )),
            Ty::fun(Ty::Int, Ty::Int),
        ));
        let e = Exp::App2(
            Fun2::GroupWith,
            lam,
            ints(&[3, 1, 4, 1, 5]),
            Ty::list(Ty::list(Ty::Int)),
        );
        assert_eq!(
            run(e),
            Val::List(vec![
                Val::List(vec![Val::Int(4)]),
                Val::List(vec![Val::Int(3), Val::Int(1), Val::Int(1), Val::Int(5)]),
            ])
        );
    }

    #[test]
    fn aggregates() {
        assert_eq!(
            run(Exp::App1(Fun1::Sum, ints(&[1, 2, 3]), Ty::Int)),
            Val::Int(6)
        );
        assert_eq!(run(Exp::App1(Fun1::Sum, ints(&[]), Ty::Int)), Val::Int(0));
        assert_eq!(
            run(Exp::App1(Fun1::Length, ints(&[7, 7]), Ty::Int)),
            Val::Int(2)
        );
        assert_eq!(
            run(Exp::App1(Fun1::Null, ints(&[]), Ty::Bool)),
            Val::Bool(true)
        );
        assert_eq!(
            run(Exp::App1(Fun1::Maximum, ints(&[2, 9, 4]), Ty::Int)),
            Val::Int(9)
        );
        assert!(matches!(
            interpret(
                &Exp::App1(Fun1::Maximum, ints(&[]), Ty::Int),
                &Tables::new()
            ),
            Err(FerryError::Partial(_))
        ));
        assert_eq!(
            run(Exp::App1(Fun1::Avg, ints(&[1, 2]), Ty::Dbl)),
            Val::Dbl(1.5)
        );
    }

    #[test]
    fn list_surgery() {
        assert_eq!(
            run(Exp::App1(
                Fun1::Reverse,
                ints(&[1, 2, 3]),
                Ty::list(Ty::Int)
            )),
            Val::List(vec![Val::Int(3), Val::Int(2), Val::Int(1)])
        );
        assert_eq!(
            run(Exp::App1(Fun1::Tail, ints(&[1, 2, 3]), Ty::list(Ty::Int))),
            Val::List(vec![Val::Int(2), Val::Int(3)])
        );
        assert_eq!(
            run(Exp::App1(Fun1::Init, ints(&[1, 2, 3]), Ty::list(Ty::Int))),
            Val::List(vec![Val::Int(1), Val::Int(2)])
        );
        assert_eq!(
            run(Exp::App2(
                Fun2::Take,
                int(2),
                ints(&[1, 2, 3]),
                Ty::list(Ty::Int)
            )),
            Val::List(vec![Val::Int(1), Val::Int(2)])
        );
        assert_eq!(
            run(Exp::App2(
                Fun2::Drop,
                int(2),
                ints(&[1, 2, 3]),
                Ty::list(Ty::Int)
            )),
            Val::List(vec![Val::Int(3)])
        );
        assert_eq!(
            run(Exp::App2(Fun2::Index, ints(&[10, 20, 30]), int(1), Ty::Int)),
            Val::Int(20)
        );
    }

    #[test]
    fn nub_keeps_first_occurrences() {
        assert_eq!(
            run(Exp::App1(
                Fun1::Nub,
                ints(&[2, 1, 2, 3, 1]),
                Ty::list(Ty::Int)
            )),
            Val::List(vec![Val::Int(2), Val::Int(1), Val::Int(3)])
        );
    }

    #[test]
    fn zip_truncates_to_shorter() {
        let e = Exp::App2(
            Fun2::Zip,
            ints(&[1, 2, 3]),
            ints(&[10, 20]),
            Ty::list(Ty::Tuple(vec![Ty::Int, Ty::Int])),
        );
        assert_eq!(
            run(e),
            Val::List(vec![
                Val::Tuple(vec![Val::Int(1), Val::Int(10)]),
                Val::Tuple(vec![Val::Int(2), Val::Int(20)]),
            ])
        );
    }

    #[test]
    fn table_lookup() {
        let mut tables = Tables::new();
        tables.insert("t".into(), Val::List(vec![Val::Int(1), Val::Int(2)]));
        let e = Exp::Table("t".into(), Ty::list(Ty::Int));
        assert_eq!(
            interpret(&e, &tables).unwrap(),
            Val::List(vec![Val::Int(1), Val::Int(2)])
        );
        let missing = Exp::Table("ghost".into(), Ty::list(Ty::Int));
        assert!(matches!(
            interpret(&missing, &tables),
            Err(FerryError::Table(_))
        ));
    }
}
