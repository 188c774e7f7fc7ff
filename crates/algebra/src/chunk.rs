//! Typed columns: the storage of every relation.
//!
//! A [`ColVec`] is one column in type-specialized, contiguous form
//! (`Vec<i64>`, `Vec<f64>`, …); a [`crate::rel::Rel`] is one `ColVec` per
//! schema column. The variant is the column's schema [`Ty`], so an empty
//! column is typed too, and every cell of a column has its type.
//!
//! Strings are dictionary-encoded: cell `i` is `dict[codes[i]]`, and equal
//! strings — and only equal strings — share a code, so grouping and
//! equality tests compare codes and only order comparisons touch the
//! dictionary. The dictionary sits behind an `Arc`: a gathered column
//! keeps its source's dictionary (unused entries are harmless), so columns
//! derived from one another compare codes without translation. It keeps
//! its string → code lookup, so an append costs what it appends. `unit`
//! columns are [`ColVec::Other`], a plain `Vec<Value>`.

use crate::value::{Ty, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One column in type-specialized storage.
#[derive(Debug, Clone)]
pub enum ColVec {
    Int(Vec<i64>),
    Nat(Vec<u64>),
    Dbl(Vec<f64>),
    Bool(Vec<bool>),
    /// Dictionary-encoded strings: cell `i` is `dict[codes[i]]`, and no
    /// string appears twice in `dict`.
    Str {
        codes: Vec<u32>,
        dict: Arc<Dict>,
    },
    /// A `unit` column.
    Other(Vec<Value>),
}

impl ColVec {
    /// An empty column of type `ty`.
    pub fn new(ty: Ty) -> ColVec {
        match ty {
            Ty::Int => ColVec::Int(Vec::new()),
            Ty::Nat => ColVec::Nat(Vec::new()),
            Ty::Dbl => ColVec::Dbl(Vec::new()),
            Ty::Bool => ColVec::Bool(Vec::new()),
            Ty::Str => ColVec::Str {
                codes: Vec::new(),
                dict: Arc::default(),
            },
            Ty::Unit => ColVec::Other(Vec::new()),
        }
    }

    /// A column of type `ty` holding `cells`, which must all be of that
    /// type (see [`ColVec::extend_cells`]).
    pub fn from_cells<'a>(ty: Ty, cells: impl Iterator<Item = &'a Value>) -> ColVec {
        let mut col = ColVec::new(ty);
        col.extend_cells(cells);
        col
    }

    /// Dictionary-encode `strs` into a fresh string column.
    pub fn from_strs(strs: impl IntoIterator<Item = Arc<str>>) -> ColVec {
        let mut col = ColVec::new(Ty::Str);
        if let ColVec::Str { codes, dict } = &mut col {
            encode(codes, dict, &mut strs.into_iter());
        }
        col
    }

    /// Append `cells`. Each must have the column's type: callers at the
    /// edges check untrusted rows first (the storage layer's
    /// `row_shape_error`), so a mistyped cell is a bug and panics.
    pub fn extend_cells<'a>(&mut self, cells: impl Iterator<Item = &'a Value>) {
        fn typed<T>(v: &mut Vec<T>, cells: impl Iterator<Item = Option<T>>) {
            v.extend(cells.map(|c| c.expect("cell type differs from its column's")));
        }
        match self {
            ColVec::Int(v) => typed(v, cells.map(Value::as_int)),
            ColVec::Nat(v) => typed(v, cells.map(Value::as_nat)),
            ColVec::Dbl(v) => typed(v, cells.map(Value::as_dbl)),
            ColVec::Bool(v) => typed(v, cells.map(Value::as_bool)),
            ColVec::Str { codes, dict } => encode(
                codes,
                dict,
                &mut cells.map(|c| match c {
                    Value::Str(s) => s.clone(),
                    other => panic!("cell {other} in a str column"),
                }),
            ),
            ColVec::Other(v) => v.extend(cells.cloned()),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColVec::Int(v) => v.len(),
            ColVec::Nat(v) => v.len(),
            ColVec::Dbl(v) => v.len(),
            ColVec::Bool(v) => v.len(),
            ColVec::Str { codes, .. } => codes.len(),
            ColVec::Other(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `i` as an owned [`Value`] (cheap: no heap allocation for the
    /// fast types, an `Arc` bump for strings).
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColVec::Int(v) => Value::Int(v[i]),
            ColVec::Nat(v) => Value::Nat(v[i]),
            ColVec::Dbl(v) => Value::Dbl(v[i]),
            ColVec::Bool(v) => Value::Bool(v[i]),
            ColVec::Str { codes, dict } => Value::Str(dict[codes[i] as usize].clone()),
            ColVec::Other(v) => v[i].clone(),
        }
    }

    /// Compare cells `a` and `b` with [`Value`] ordering semantics
    /// (`total_cmp` for doubles) without materialising values.
    pub fn cmp_cells(&self, a: usize, b: usize) -> Ordering {
        match self {
            ColVec::Int(v) => v[a].cmp(&v[b]),
            ColVec::Nat(v) => v[a].cmp(&v[b]),
            ColVec::Dbl(v) => v[a].total_cmp(&v[b]),
            ColVec::Bool(v) => v[a].cmp(&v[b]),
            ColVec::Str { codes, dict } => dict[codes[a] as usize].cmp(&dict[codes[b] as usize]),
            ColVec::Other(v) => v[a].cmp(&v[b]),
        }
    }

    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            ColVec::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_nat(&self) -> Option<&[u64]> {
        match self {
            ColVec::Nat(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_dbl(&self) -> Option<&[f64]> {
        match self {
            ColVec::Dbl(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            ColVec::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// A new column holding cells `idx` (in order), of the same variant.
    /// A string column keeps this column's dictionary.
    pub fn gather(&self, idx: &[u32]) -> ColVec {
        let mut out = match self {
            ColVec::Str { dict, .. } => ColVec::Str {
                codes: Vec::with_capacity(idx.len()),
                dict: dict.clone(),
            },
            _ => ColVec::new(self.ty()),
        };
        out.extend_gather(self, idx);
        out
    }

    /// Append cells `idx` of `src`, a column of the same variant. Strings
    /// from another dictionary are re-encoded into this one.
    pub fn extend_gather(&mut self, src: &ColVec, idx: &[u32]) {
        fn pick<T: Clone>(o: &mut Vec<T>, v: &[T], idx: &[u32]) {
            o.extend(idx.iter().map(|&i| v[i as usize].clone()));
        }
        match (self, src) {
            (ColVec::Int(o), ColVec::Int(v)) => pick(o, v, idx),
            (ColVec::Nat(o), ColVec::Nat(v)) => pick(o, v, idx),
            (ColVec::Dbl(o), ColVec::Dbl(v)) => pick(o, v, idx),
            (ColVec::Bool(o), ColVec::Bool(v)) => pick(o, v, idx),
            (ColVec::Str { codes: o, dict: od }, ColVec::Str { codes, dict }) => {
                if Arc::ptr_eq(od, dict) {
                    pick(o, codes, idx);
                } else {
                    let mut strs = idx
                        .iter()
                        .map(|&i| dict[codes[i as usize] as usize].clone());
                    encode(o, od, &mut strs);
                }
            }
            (ColVec::Other(o), ColVec::Other(v)) => pick(o, v, idx),
            (o, s) => panic!("appending a {s:?} column to a {o:?} column"),
        }
    }

    /// The column's type.
    pub fn ty(&self) -> Ty {
        match self {
            ColVec::Int(_) => Ty::Int,
            ColVec::Nat(_) => Ty::Nat,
            ColVec::Dbl(_) => Ty::Dbl,
            ColVec::Bool(_) => Ty::Bool,
            ColVec::Str { .. } => Ty::Str,
            ColVec::Other(_) => Ty::Unit,
        }
    }
}

/// A string column's dictionary: its distinct strings in code order
/// (reached as a slice), and the code of each.
#[derive(Clone, Default)]
pub struct Dict {
    strs: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
}

impl Deref for Dict {
    type Target = [Arc<str>];

    fn deref(&self) -> &[Arc<str>] {
        &self.strs
    }
}

impl fmt::Debug for Dict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.strs).finish()
    }
}

/// Append `strs` to a string column, giving a string already in `dict`
/// its code and a new one the next code.
fn encode(codes: &mut Vec<u32>, dict: &mut Arc<Dict>, strs: &mut dyn Iterator<Item = Arc<str>>) {
    // a gathered column may name few of its dictionary's strings: give it
    // a dictionary of its own first, so a new string does not copy the
    // source's whole dictionary
    if codes.len() < dict.len() {
        let (old, old_codes) = (std::mem::take(dict), std::mem::take(codes));
        encode(
            codes,
            dict,
            &mut old_codes.iter().map(|&c| old[c as usize].clone()),
        );
    }
    for s in strs {
        let code = match dict.codes.get(&s) {
            Some(&c) => c,
            None => {
                let dict = Arc::make_mut(dict);
                let c = dict.strs.len() as u32;
                dict.strs.push(s.clone());
                dict.codes.insert(s, c);
                c
            }
        };
        codes.push(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<Value> {
        vec![Value::str("b"), Value::str("a"), Value::str("b")]
    }

    #[test]
    fn strings_are_dictionary_encoded() {
        let s = ColVec::from_cells(Ty::Str, cells().iter());
        match &s {
            ColVec::Str { codes, dict } => {
                assert_eq!(codes, &[0, 1, 0]);
                assert_eq!(dict.len(), 2);
            }
            other => panic!("expected dict-encoded strings, got {other:?}"),
        }
        assert_eq!(s.value(2), Value::str("b"));
        assert_eq!(s.cmp_cells(0, 1), Ordering::Greater);
    }

    #[test]
    fn empty_columns_are_typed() {
        assert!(ColVec::new(Ty::Int).as_int().unwrap().is_empty());
        assert!(matches!(ColVec::new(Ty::Str), ColVec::Str { .. }));
        assert!(matches!(ColVec::new(Ty::Unit), ColVec::Other(_)));
    }

    #[test]
    fn gather_keeps_the_dictionary_and_appends_reencode() {
        let s = ColVec::from_cells(Ty::Str, cells().iter());
        let g = s.gather(&[2, 1]);
        let (ColVec::Str { dict: a, .. }, ColVec::Str { dict: b, codes }) = (&s, &g) else {
            panic!("string columns gather to string columns");
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(codes, &[0, 1]);
        // another dictionary numbers "a" first: appending re-encodes
        let mut other = ColVec::from_strs([Arc::from("a"), Arc::from("c")]);
        other.extend_gather(&s, &[0, 1]);
        let vals: Vec<Value> = (0..other.len()).map(|i| other.value(i)).collect();
        assert_eq!(vals, ["a", "c", "b", "a"].map(Value::str));
        let ColVec::Str { codes, dict } = &other else {
            unreachable!()
        };
        assert_eq!(codes, &[0, 1, 2, 0]);
        assert_eq!(dict.len(), 3);
        // a later append finds the strings the dictionary already holds
        other.extend_cells([Value::str("b"), Value::str("d")].iter());
        let ColVec::Str { codes, dict } = &other else {
            unreachable!()
        };
        assert_eq!(codes, &[0, 1, 2, 0, 2, 3]);
        assert_eq!(dict.len(), 4);
        // -0.0 and 0.0 stay distinct through a gather
        let d = ColVec::from_cells(Ty::Dbl, [Value::Dbl(-0.0), Value::Dbl(0.0)].iter());
        assert_eq!(d.gather(&[1, 0]).cmp_cells(0, 1), Ordering::Greater);
    }

    #[test]
    #[should_panic(expected = "cell type differs")]
    fn a_mistyped_cell_panics() {
        ColVec::from_cells(Ty::Int, [Value::Int(1), Value::str("oops")].iter());
    }
}
