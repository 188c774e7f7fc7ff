//! DSL types and nested values.
//!
//! The Ferry data model: the basic types, plus arbitrarily nested tuples
//! and lists of them (§3.1). `Fun` exists only internally (combinator
//! arguments); it can never be the type of a query result.

use std::fmt;
use std::sync::Arc;

/// A Ferry (DSL-level) type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    Unit,
    Bool,
    Int,
    Dbl,
    Text,
    Tuple(Vec<Ty>),
    List(Arc<Ty>),
    /// Function types appear only as combinator arguments; programs whose
    /// *result* contains a function are rejected by construction ("support
    /// for functions as first-class citizens" is future work, §5).
    Fun(Arc<Ty>, Arc<Ty>),
}

impl Ty {
    pub fn list(elem: Ty) -> Ty {
        Ty::List(Arc::new(elem))
    }

    pub fn fun(arg: Ty, res: Ty) -> Ty {
        Ty::Fun(Arc::new(arg), Arc::new(res))
    }

    pub fn is_atom(&self) -> bool {
        matches!(self, Ty::Unit | Ty::Bool | Ty::Int | Ty::Dbl | Ty::Text)
    }

    /// A *flat* type: an atom or a tuple of flat non-list types — the types
    /// that fit a single table row (legal table row types, grouping keys,
    /// `nub`/`elem` element types).
    pub fn is_flat(&self) -> bool {
        match self {
            t if t.is_atom() => true,
            Ty::Tuple(ts) => ts.iter().all(Ty::is_flat),
            _ => false,
        }
    }

    /// Element type of a list type.
    pub fn elem(&self) -> Option<&Ty> {
        match self {
            Ty::List(e) => Some(e),
            _ => None,
        }
    }

    /// The number of list type constructors in this type. Avalanche safety
    /// (§3.2): "it is exclusively the number of list constructors [·] in
    /// the program's result type that determines the number of queries".
    pub fn list_ctors(&self) -> usize {
        match self {
            Ty::List(e) => 1 + e.list_ctors(),
            Ty::Tuple(ts) => ts.iter().map(Ty::list_ctors).sum(),
            Ty::Fun(a, r) => a.list_ctors() + r.list_ctors(),
            _ => 0,
        }
    }

    /// The size of the query bundle a result of this type compiles to:
    /// one query for the root value plus one per *non-root* list
    /// constructor. For a list-rooted type this equals `list_ctors`.
    pub fn bundle_size(&self) -> usize {
        match self {
            Ty::List(e) => 1 + e.list_ctors(),
            t => 1 + t.list_ctors(),
        }
    }

    /// Map an atomic DSL type to its table column type.
    pub fn col_ty(&self) -> Option<ferry_algebra::Ty> {
        match self {
            Ty::Unit => Some(ferry_algebra::Ty::Unit),
            Ty::Bool => Some(ferry_algebra::Ty::Bool),
            Ty::Int => Some(ferry_algebra::Ty::Int),
            Ty::Dbl => Some(ferry_algebra::Ty::Dbl),
            Ty::Text => Some(ferry_algebra::Ty::Str),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Unit => write!(f, "()"),
            Ty::Bool => write!(f, "Bool"),
            Ty::Int => write!(f, "Int"),
            Ty::Dbl => write!(f, "Double"),
            Ty::Text => write!(f, "Text"),
            Ty::Tuple(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Ty::List(e) => write!(f, "[{e}]"),
            Ty::Fun(a, r) => write!(f, "({a} -> {r})"),
        }
    }
}

/// A nested Ferry value — what queries denote and what the interpreter and
/// the stitcher produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    Unit,
    Bool(bool),
    Int(i64),
    Dbl(f64),
    /// Shared with the column dictionary it was stitched from (and with
    /// the table cell it came from or goes to).
    Text(Arc<str>),
    Tuple(Vec<Val>),
    List(Vec<Val>),
}

impl Val {
    /// Does this value inhabit the given type? (Empty lists inhabit every
    /// list type.)
    pub fn has_ty(&self, ty: &Ty) -> bool {
        match (self, ty) {
            (Val::Unit, Ty::Unit)
            | (Val::Bool(_), Ty::Bool)
            | (Val::Int(_), Ty::Int)
            | (Val::Dbl(_), Ty::Dbl)
            | (Val::Text(_), Ty::Text) => true,
            (Val::Tuple(vs), Ty::Tuple(ts)) => {
                vs.len() == ts.len() && vs.iter().zip(ts).all(|(v, t)| v.has_ty(t))
            }
            (Val::List(vs), Ty::List(e)) => vs.iter().all(|v| v.has_ty(e)),
            _ => false,
        }
    }

    /// Convert an *atomic* value to its table-cell representation.
    pub fn to_cell(&self) -> Option<ferry_algebra::Value> {
        match self {
            Val::Unit => Some(ferry_algebra::Value::Unit),
            Val::Bool(b) => Some(ferry_algebra::Value::Bool(*b)),
            Val::Int(i) => Some(ferry_algebra::Value::Int(*i)),
            Val::Dbl(d) => Some(ferry_algebra::Value::Dbl(*d)),
            Val::Text(s) => Some(ferry_algebra::Value::Str(s.clone())),
            _ => None,
        }
    }

    /// Convert a table cell back to an atomic value.
    pub fn from_cell(v: &ferry_algebra::Value) -> Option<Val> {
        match v {
            ferry_algebra::Value::Unit => Some(Val::Unit),
            ferry_algebra::Value::Bool(b) => Some(Val::Bool(*b)),
            ferry_algebra::Value::Int(i) => Some(Val::Int(*i)),
            ferry_algebra::Value::Dbl(d) => Some(Val::Dbl(*d)),
            ferry_algebra::Value::Str(s) => Some(Val::Text(s.clone())),
            ferry_algebra::Value::Nat(_) => None,
        }
    }

    /// Total order on values of equal type (list order is lexicographic,
    /// as in Haskell's derived `Ord`). Used by the interpreter for
    /// `sort_with`/`group_with`/`maximum`.
    pub fn cmp_total(&self, other: &Val) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Val::Unit, Val::Unit) => Ordering::Equal,
            (Val::Bool(a), Val::Bool(b)) => a.cmp(b),
            (Val::Int(a), Val::Int(b)) => a.cmp(b),
            (Val::Dbl(a), Val::Dbl(b)) => a.total_cmp(b),
            (Val::Text(a), Val::Text(b)) => a.cmp(b),
            (Val::Tuple(a), Val::Tuple(b)) | (Val::List(a), Val::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.cmp_total(y) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => panic!("cmp_total on values of different types: {self:?} vs {other:?}"),
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Unit => write!(f, "()"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Int(i) => write!(f, "{i}"),
            Val::Dbl(d) => write!(f, "{d}"),
            Val::Text(s) => write!(f, "{s}"),
            Val::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Val::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_ctor_counting() {
        // [(String, [String])] — the running example's type: 2 ctors
        let t = Ty::list(Ty::Tuple(vec![Ty::Text, Ty::list(Ty::Text)]));
        assert_eq!(t.list_ctors(), 2);
        assert_eq!(t.bundle_size(), 2);
        // Int: 0 ctors, but still one query
        assert_eq!(Ty::Int.list_ctors(), 0);
        assert_eq!(Ty::Int.bundle_size(), 1);
        // ([Int], [Int]): tuple root → 1 + 2
        let t2 = Ty::Tuple(vec![Ty::list(Ty::Int), Ty::list(Ty::Int)]);
        assert_eq!(t2.bundle_size(), 3);
        // [[[Int]]]: 3
        let t3 = Ty::list(Ty::list(Ty::list(Ty::Int)));
        assert_eq!(t3.bundle_size(), 3);
    }

    #[test]
    fn flatness() {
        assert!(Ty::Int.is_flat());
        assert!(Ty::Tuple(vec![Ty::Int, Ty::Text]).is_flat());
        assert!(!Ty::list(Ty::Int).is_flat());
        assert!(!Ty::Tuple(vec![Ty::Int, Ty::list(Ty::Int)]).is_flat());
    }

    #[test]
    fn val_typing() {
        let v = Val::List(vec![Val::Int(1), Val::Int(2)]);
        assert!(v.has_ty(&Ty::list(Ty::Int)));
        assert!(!v.has_ty(&Ty::list(Ty::Text)));
        assert!(Val::List(vec![]).has_ty(&Ty::list(Ty::Text)));
        let t = Val::Tuple(vec![Val::Int(1), Val::Text("x".into())]);
        assert!(t.has_ty(&Ty::Tuple(vec![Ty::Int, Ty::Text])));
    }

    #[test]
    fn cell_round_trip() {
        for v in [
            Val::Unit,
            Val::Bool(true),
            Val::Int(-3),
            Val::Dbl(1.5),
            Val::Text("hi".into()),
        ] {
            let cell = v.to_cell().unwrap();
            assert_eq!(Val::from_cell(&cell).unwrap(), v);
        }
        assert!(Val::List(vec![]).to_cell().is_none());
        assert!(Val::from_cell(&ferry_algebra::Value::Nat(1)).is_none());
    }

    #[test]
    fn total_order_is_lexicographic_on_lists() {
        let a = Val::List(vec![Val::Int(1), Val::Int(2)]);
        let b = Val::List(vec![Val::Int(1), Val::Int(3)]);
        let c = Val::List(vec![Val::Int(1)]);
        assert_eq!(a.cmp_total(&b), std::cmp::Ordering::Less);
        assert_eq!(c.cmp_total(&a), std::cmp::Ordering::Less);
        assert_eq!(a.cmp_total(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_types_and_values() {
        let t = Ty::list(Ty::Tuple(vec![Ty::Text, Ty::list(Ty::Text)]));
        assert_eq!(t.to_string(), "[(Text, [Text])]");
        let v = Val::Tuple(vec![Val::Int(1), Val::List(vec![Val::Bool(true)])]);
        assert_eq!(v.to_string(), "(1, [true])");
    }
}
