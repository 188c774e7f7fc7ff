//! The typed query surface: `Q<T>`, `QA`, `TA`.
//!
//! `Q<T>` is the paper's `data Q a = Q Exp` — a phantom-typed wrapper around
//! the kernel AST, "typed using a technique called phantom typing", so that
//! the host language's type checker (Rust's, here) guarantees that only
//! well-typed kernel terms can be constructed (§3.1).
//!
//! The [`QA`] trait is the paper's `class QA` — the types *representable*
//! as queries: the basic types, and arbitrarily nested tuples and lists of
//! them. [`toq`] is `toQ`; the inverse direction (`fromQ`) lives on
//! [`crate::Connection`] because it talks to the database. `fromQ`
//! builds its value with [`QA::decode`], straight from the result
//! columns ([`crate::decode`]); [`QA::from_val`] decodes a nested
//! [`Val`] and serves the oracle (the interpreter, and the stitcher the
//! decoder is tested against).
//!
//! [`TA`] marks legal table-row types: the basic types and flat tuples of
//! them.

use crate::decode::{At, Decoder};
use crate::error::FerryError;
use crate::exp::Exp;
use crate::types::{Ty, Val};
use ferry_algebra::{ColVec, Value};
use std::marker::PhantomData;
use std::rc::Rc;

/// A query that computes a value of type `T` on the database coprocessor.
#[derive(Debug)]
pub struct Q<T> {
    pub(crate) exp: Rc<Exp>,
    _t: PhantomData<fn() -> T>,
}

// manual impl: cloning a query handle never requires `T: Clone`
impl<T> Clone for Q<T> {
    fn clone(&self) -> Q<T> {
        Q {
            exp: self.exp.clone(),
            _t: PhantomData,
        }
    }
}

impl<T> Q<T> {
    pub(crate) fn wrap(exp: Exp) -> Q<T> {
        Q {
            exp: Rc::new(exp),
            _t: PhantomData,
        }
    }

    pub(crate) fn wrap_rc(exp: Rc<Exp>) -> Q<T> {
        Q {
            exp,
            _t: PhantomData,
        }
    }

    /// The underlying kernel term. Exposed read-only for inspection
    /// (pipeline tracing, tests); it cannot be used to build ill-typed `Q`s.
    pub fn exp(&self) -> &Exp {
        &self.exp
    }
}

/// Queryable types: representable relationally, movable in both directions
/// between the Rust heap and the database.
///
/// Two decoders give the same value and the same error: [`QA::decode`]
/// is the production `fromQ`, reading the result columns, and
/// [`QA::from_val`] is the oracle's, reading a nested [`Val`].
pub trait QA: Sized + 'static {
    /// The DSL type that represents `Self`.
    fn ty() -> Ty;
    /// Embed a heap value (`toQ` direction).
    fn to_val(&self) -> Val;
    /// Decode a nested value (the interpreter's, or a stitched one).
    fn from_val(v: &Val) -> Result<Self, FerryError>;
    /// Decode the value at `at` straight from the bundle's result
    /// columns (`fromQ` direction); anything that does not fit goes to
    /// [`Decoder::mismatch`].
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError>;
}

/// Legal table-row types (`class TA`): basic types and flat tuples of
/// basic types. The alphabetically ordered columns of the referenced table
/// map positionally onto the tuple components (§3.1).
pub trait TA: QA {}

/// Embed a Rust value into a query — the paper's `toQ`.
pub fn toq<T: QA>(v: &T) -> Q<T> {
    Q::wrap(Exp::Const(v.to_val(), T::ty()))
}

fn decode_err<T>(want: &str, v: &Val) -> Result<T, FerryError> {
    Err(FerryError::Decode(format!("expected {want}, got {v:?}")))
}

impl QA for () {
    fn ty() -> Ty {
        Ty::Unit
    }
    fn to_val(&self) -> Val {
        Val::Unit
    }
    fn from_val(v: &Val) -> Result<Self, FerryError> {
        match v {
            Val::Unit => Ok(()),
            v => decode_err("()", v),
        }
    }
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
        match d.cell(at) {
            Some((ColVec::Other(v), r)) if v[r] == Value::Unit => Ok(()),
            _ => d.mismatch(at),
        }
    }
}

impl QA for bool {
    fn ty() -> Ty {
        Ty::Bool
    }
    fn to_val(&self) -> Val {
        Val::Bool(*self)
    }
    fn from_val(v: &Val) -> Result<Self, FerryError> {
        match v {
            Val::Bool(b) => Ok(*b),
            v => decode_err("bool", v),
        }
    }
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
        match d.cell(at) {
            Some((ColVec::Bool(v), r)) => Ok(v[r]),
            _ => d.mismatch(at),
        }
    }
}

impl QA for i64 {
    fn ty() -> Ty {
        Ty::Int
    }
    fn to_val(&self) -> Val {
        Val::Int(*self)
    }
    fn from_val(v: &Val) -> Result<Self, FerryError> {
        match v {
            Val::Int(i) => Ok(*i),
            v => decode_err("i64", v),
        }
    }
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
        match d.cell(at) {
            Some((ColVec::Int(v), r)) => Ok(v[r]),
            _ => d.mismatch(at),
        }
    }
}

impl QA for f64 {
    fn ty() -> Ty {
        Ty::Dbl
    }
    fn to_val(&self) -> Val {
        Val::Dbl(*self)
    }
    fn from_val(v: &Val) -> Result<Self, FerryError> {
        match v {
            Val::Dbl(d) => Ok(*d),
            v => decode_err("f64", v),
        }
    }
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
        match d.cell(at) {
            Some((ColVec::Dbl(v), r)) => Ok(v[r]),
            _ => d.mismatch(at),
        }
    }
}

impl QA for String {
    fn ty() -> Ty {
        Ty::Text
    }
    fn to_val(&self) -> Val {
        Val::Text(self.as_str().into())
    }
    fn from_val(v: &Val) -> Result<Self, FerryError> {
        match v {
            Val::Text(s) => Ok(String::from(&**s)),
            v => decode_err("String", v),
        }
    }
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
        match d.cell(at) {
            Some((ColVec::Str { codes, dict }, r)) => Ok(String::from(&*dict[codes[r] as usize])),
            _ => d.mismatch(at),
        }
    }
}

impl<T: QA> QA for Vec<T> {
    fn ty() -> Ty {
        Ty::list(T::ty())
    }
    fn to_val(&self) -> Val {
        Val::List(self.iter().map(T::to_val).collect())
    }
    fn from_val(v: &Val) -> Result<Self, FerryError> {
        match v {
            Val::List(vs) => vs.iter().map(T::from_val).collect(),
            v => decode_err("Vec", v),
        }
    }
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
        d.list(at)
    }
}

macro_rules! impl_qa_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: QA),+> QA for ($($name,)+) {
            fn ty() -> Ty {
                Ty::Tuple(vec![$($name::ty()),+])
            }
            fn to_val(&self) -> Val {
                Val::Tuple(vec![$(self.$idx.to_val()),+])
            }
            fn from_val(v: &Val) -> Result<Self, FerryError> {
                match v {
                    Val::Tuple(vs) if vs.len() == impl_qa_tuple!(@count $($name)+) => {
                        Ok(($($name::from_val(&vs[$idx])?,)+))
                    }
                    v => decode_err("tuple", v),
                }
            }
            fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
                match at.fields(impl_qa_tuple!(@count $($name)+)) {
                    Some(f) => Ok(($($name::decode(d, f.at($idx))?,)+)),
                    None => d.mismatch(at),
                }
            }
        }
    };
    (@count $($t:ident)+) => { [$(impl_qa_tuple!(@one $t)),+].len() };
    (@one $t:ident) => { () };
}

impl_qa_tuple!(A: 0, B: 1);
impl_qa_tuple!(A: 0, B: 1, C: 2);
impl_qa_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_qa_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_qa_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_qa_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_qa_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

/// Marker for atomic (basic) types.
pub trait BasicQA: QA {}
impl BasicQA for () {}
impl BasicQA for bool {}
impl BasicQA for i64 {}
impl BasicQA for f64 {}
impl BasicQA for String {}

impl<T: BasicQA> TA for T {}
macro_rules! impl_ta_tuple {
    ($($name:ident),+) => {
        impl<$($name: BasicQA),+> TA for ($($name,)+) {}
    };
}
impl_ta_tuple!(A, B);
impl_ta_tuple!(A, B, C);
impl_ta_tuple!(A, B, C, D);
impl_ta_tuple!(A, B, C, D, E);
impl_ta_tuple!(A, B, C, D, E, F);
impl_ta_tuple!(A, B, C, D, E, F, G);
impl_ta_tuple!(A, B, C, D, E, F, G, H);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_reflection() {
        assert_eq!(
            <Vec<(String, Vec<String>)>>::ty().to_string(),
            "[(Text, [Text])]"
        );
        assert_eq!(
            <(i64, f64, bool)>::ty(),
            Ty::Tuple(vec![Ty::Int, Ty::Dbl, Ty::Bool])
        );
    }

    #[test]
    fn to_val_from_val_round_trips() {
        let v: Vec<(i64, Vec<String>)> = vec![(1, vec!["a".into(), "b".into()]), (2, vec![])];
        let val = v.to_val();
        assert_eq!(<Vec<(i64, Vec<String>)>>::from_val(&val).unwrap(), v);
    }

    #[test]
    fn decode_errors_are_reported() {
        assert!(matches!(
            i64::from_val(&Val::Bool(true)),
            Err(FerryError::Decode(_))
        ));
        assert!(matches!(
            <(i64, i64)>::from_val(&Val::Tuple(vec![Val::Int(1)])),
            Err(FerryError::Decode(_))
        ));
    }

    /// `toq` a value, run it on the engine and decode it back, through
    /// `decode` (`from_q`) and through its oracle (`from_val` of the
    /// stitched value).
    fn through_the_database<T: QA + PartialEq + std::fmt::Debug>(v: T) {
        let conn = crate::Connection::new(ferry_engine::Database::new());
        let q = toq(&v);
        assert_eq!(conn.from_q(&q).unwrap(), v);
        assert_eq!(T::from_val(&conn.from_q_val(&q).unwrap()).unwrap(), v);
    }

    #[test]
    fn every_impl_decodes_what_it_embedded() {
        through_the_database(());
        through_the_database(-7i64);
        through_the_database(vec![
            (1i64, vec!["a".to_string(), String::new()]),
            (2, vec![]),
        ]);
        through_the_database(vec![Some(1.5f64), None, Some(-0.0)]);
        through_the_database(vec![vec![vec![true]], vec![], vec![vec![], vec![false]]]);
        through_the_database((
            true,
            -3i64,
            2.5f64,
            "Grüße".to_string(),
            (),
            vec![()],
            Some("s".to_string()),
            vec![(None::<i64>, vec![1i64])],
        ));
    }

    #[test]
    fn toq_builds_constants() {
        let q = toq(&vec![1i64, 2, 3]);
        match q.exp() {
            Exp::Const(Val::List(vs), t) => {
                assert_eq!(vs.len(), 3);
                assert_eq!(*t, Ty::list(Ty::Int));
            }
            e => panic!("unexpected {e:?}"),
        }
    }
}

// ------------------------------------------------------------- Option<T>
//
// §5 lists "support for sum types" as future work and notes that a
// relational representation had already been devised in work-to-be-
// published. We implement the special case every query API needs first:
// `Option<T>` over basic payloads, encoded as the flat pair
// `(present: Bool, payload: T)` with a dummy payload for `None` — the
// tag-plus-padded-payload scheme sum types compile to relationally.
// Because the encoding is an ordinary flat tuple, the whole compiler
// pipeline (loop-lifting, shredding, SQL) handles it with no changes;
// only `QA` and a handful of combinators (`ops::some`, `ops::none`,
// `ops::opt`, `ops::lookup`, …) know about the convention.

/// Basic types with a canonical dummy payload for the `None` encoding.
pub trait OptPayload: BasicQA {
    fn dummy() -> Self;
}

impl OptPayload for i64 {
    fn dummy() -> Self {
        0
    }
}
impl OptPayload for f64 {
    fn dummy() -> Self {
        0.0
    }
}
impl OptPayload for bool {
    fn dummy() -> Self {
        false
    }
}
impl OptPayload for String {
    fn dummy() -> Self {
        String::new()
    }
}
impl OptPayload for () {
    fn dummy() -> Self {}
}

impl<T: OptPayload> QA for Option<T> {
    fn ty() -> Ty {
        Ty::Tuple(vec![Ty::Bool, T::ty()])
    }
    fn to_val(&self) -> Val {
        match self {
            Some(v) => Val::Tuple(vec![Val::Bool(true), v.to_val()]),
            None => Val::Tuple(vec![Val::Bool(false), T::dummy().to_val()]),
        }
    }
    fn from_val(v: &Val) -> Result<Self, FerryError> {
        match v {
            Val::Tuple(vs) if vs.len() == 2 => match &vs[0] {
                Val::Bool(true) => Ok(Some(T::from_val(&vs[1])?)),
                Val::Bool(false) => Ok(None),
                v => decode_err("Option tag", v),
            },
            v => decode_err("Option", v),
        }
    }
    fn decode<'a>(d: &mut Decoder<'a>, at: At<'a>) -> Result<Self, FerryError> {
        if let Some(f) = at.fields(2) {
            if let Some((ColVec::Bool(tag), r)) = d.cell(f.at(0)) {
                return match tag[r] {
                    true => T::decode(d, f.at(1)).map(Some),
                    false => Ok(None),
                };
            }
        }
        d.mismatch(at)
    }
}

// the encoding is flat, so optional payloads are legal table-row
// components and grouping keys
impl<T: OptPayload> TA for Option<T> {}
