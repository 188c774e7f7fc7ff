//! Stitching: tabular query results back into nested values.
//!
//! The inverse of shredding (Fig. 2, steps 5 – 6 ): the bundle's
//! relations arrive sorted by `(nest, pos)`; inner queries are indexed by
//! their `nest` surrogates, then the levels are reassembled outside-in.
//! An inner surrogate with no matching rows denotes an empty inner list —
//! "if the i-th inner list is empty, its surrogate @i will not appear in
//! the nest column of this second table" (Fig. 3b).
//!
//! The stitcher reads the result's typed columns in place: surrogates as
//! `&[u64]`, each atom from its column at the visible row's column row
//! ([`Rel::raw_row`]), so a view is stitched without copying its rows and
//! a string shares its column dictionary's allocation. No row is built.
//! Inner items are grouped by runs of equal `nest` (one hash insert per
//! run); a run that shows up again later appends, so any row order
//! stitches correctly.

use crate::error::FerryError;
use crate::shred::{QueryDesc, VLayout};
use crate::types::Val;
use ferry_algebra::{ColVec, Rel};
use std::collections::hash_map::{Entry, HashMap};

/// Inner lists of one query, by their `nest` surrogate.
type Inner = HashMap<u64, Vec<Val>>;

/// Reassemble the bundle's relations into a single nested value.
///
/// `results[i]` must be the relation produced by `queries[i]`'s root.
pub fn stitch(results: &[Rel], queries: &[QueryDesc]) -> Result<Val, FerryError> {
    if results.len() != queries.len() {
        return Err(FerryError::Decode(format!(
            "bundle has {} queries but {} results",
            queries.len(),
            results.len()
        )));
    }
    // inner queries are built innermost-first (they only reference higher
    // indices, never lower ones)
    let mut maps: Vec<Inner> = vec![HashMap::new(); queries.len()];
    for q in (1..queries.len()).rev() {
        let rel = &results[q];
        if rel.is_empty() {
            continue;
        }
        let nests = (rel.width() > 0)
            .then(|| rel.col(0).as_nat())
            .flatten()
            .ok_or_else(|| FerryError::Decode("nest column is not a surrogate".into()))?;
        let nest_at = |i: usize| nests[rel.raw_row(i)];
        let mut map = Inner::new();
        let mut i = 0;
        while i < rel.len() {
            let nest = nest_at(i);
            let end = (i + 1..rel.len())
                .find(|&j| nest_at(j) != nest)
                .unwrap_or(rel.len());
            let mut run = Vec::with_capacity(end - i);
            for k in i..end {
                run.push(build_item(
                    rel,
                    rel.raw_row(k),
                    &queries[q].layout,
                    &mut maps,
                )?);
            }
            i = end;
            match map.entry(nest) {
                Entry::Occupied(mut e) => e.get_mut().append(&mut run),
                Entry::Vacant(e) => {
                    e.insert(run);
                }
            }
        }
        maps[q] = map;
    }
    let (rel, root) = (&results[0], &queries[0]);
    if root.is_list {
        let mut out = Vec::with_capacity(rel.len());
        for i in 0..rel.len() {
            out.push(build_item(rel, rel.raw_row(i), &root.layout, &mut maps)?);
        }
        Ok(Val::List(out))
    } else {
        match rel.len() {
            1 => build_item(rel, rel.raw_row(0), &root.layout, &mut maps),
            0 => Err(FerryError::Partial(
                "no result row — a partial operation (head/the/maximum/!!) was \
                 applied to an empty list"
                    .into(),
            )),
            n => Err(FerryError::Decode(format!(
                "scalar result query returned {n} rows"
            ))),
        }
    }
}

/// The item `layout` describes at column row `r` of `rel`.
fn build_item(
    rel: &Rel,
    r: usize,
    layout: &VLayout,
    maps: &mut [Inner],
) -> Result<Val, FerryError> {
    match layout {
        VLayout::Atom(c) => atom(rel.col(*c), r).ok_or_else(|| {
            FerryError::Decode(format!("column {c} holds a surrogate, expected data"))
        }),
        VLayout::Tuple(ls) => {
            let mut vs = Vec::with_capacity(ls.len());
            for l in ls {
                vs.push(build_item(rel, r, l, maps)?);
            }
            Ok(Val::Tuple(vs))
        }
        VLayout::Nested { col, query } => {
            let surr = rel
                .col(*col)
                .as_nat()
                .map(|s| s[r])
                .ok_or_else(|| FerryError::Decode("surrogate column is not Nat".into()))?;
            // each surrogate is referenced exactly once, so take ownership;
            // a missing entry is an empty inner list
            let items = maps[*query].remove(&surr).unwrap_or_default();
            Ok(Val::List(items))
        }
    }
}

/// Cell `r` of `col` as an atomic value; `None` for a surrogate.
fn atom(col: &ColVec, r: usize) -> Option<Val> {
    Some(match col {
        ColVec::Int(v) => Val::Int(v[r]),
        ColVec::Dbl(v) => Val::Dbl(v[r]),
        ColVec::Bool(v) => Val::Bool(v[r]),
        ColVec::Str { codes, dict } => Val::Text(dict[codes[r] as usize].clone()),
        ColVec::Other(v) => return Val::from_cell(&v[r]),
        ColVec::Nat(_) => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferry_algebra::{Schema, Ty, Value};
    use std::sync::Arc;

    fn nat(n: u64) -> Value {
        Value::Nat(n)
    }

    #[test]
    fn stitches_the_fig3_encoding() {
        // Q1: outer list [( @1 ), ( @2 )]; Q2: inner lists for @1 = [10],
        // @2 = [] (surrogate 2 absent from Q2)
        let q1 = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("pos", Ty::Nat), ("s", Ty::Nat)]),
            vec![vec![nat(1), nat(1), nat(1)], vec![nat(1), nat(2), nat(2)]],
        );
        let q2 = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("pos", Ty::Nat), ("item", Ty::Int)]),
            vec![vec![nat(1), nat(1), Value::Int(10)]],
        );
        let queries = vec![
            QueryDesc {
                root: ferry_algebra::NodeId(0),
                is_list: true,
                layout: VLayout::Nested { col: 2, query: 1 },
            },
            QueryDesc {
                root: ferry_algebra::NodeId(0),
                is_list: true,
                layout: VLayout::Atom(2),
            },
        ];
        let v = stitch(&[q1, q2], &queries).unwrap();
        assert_eq!(
            v,
            Val::List(vec![Val::List(vec![Val::Int(10)]), Val::List(vec![]),])
        );
    }

    #[test]
    fn empty_scalar_is_partial() {
        let q = Rel::new(Schema::of(&[("nest", Ty::Nat), ("a", Ty::Int)]), vec![]);
        let queries = vec![QueryDesc {
            root: ferry_algebra::NodeId(0),
            is_list: false,
            layout: VLayout::Atom(1),
        }];
        assert!(matches!(
            stitch(&[q], &queries),
            Err(FerryError::Partial(_))
        ));
    }

    fn desc(is_list: bool, layout: VLayout) -> QueryDesc {
        QueryDesc {
            root: ferry_algebra::NodeId(0),
            is_list,
            layout,
        }
    }

    /// `rel`'s visible rows in a relation of its own, with no selection.
    fn dense(rel: &Rel) -> Rel {
        Rel::new(rel.schema.clone(), rel.rows().into_owned())
    }

    /// Stitch `results` and their dense copies; both must give the same
    /// value. Compared through `Debug`, which tells NaN and -0.0 apart
    /// where `PartialEq` on `f64` does not.
    fn stitch_both(results: &[Rel], queries: &[QueryDesc]) -> Val {
        let v = stitch(results, queries).unwrap();
        let copies: Vec<Rel> = results.iter().map(dense).collect();
        let d = stitch(&copies, queries).unwrap();
        assert_eq!(format!("{v:?}"), format!("{d:?}"));
        v
    }

    fn decode_error(results: &[Rel], queries: &[QueryDesc]) -> String {
        match stitch(results, queries) {
            Err(FerryError::Decode(m)) => m,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    fn ints(vs: &[i64]) -> Val {
        Val::List(vs.iter().map(|&i| Val::Int(i)).collect())
    }

    #[test]
    fn views_in_any_order_over_shared_columns_stitch_like_their_copies() {
        // one set of columns holds both queries' rows, shuffled: nest 0
        // rows are the outer list, the rest its inner lists
        let base = Rel::new(
            Schema::of(&[
                ("nest", Ty::Nat),
                ("pos", Ty::Nat),
                ("s", Ty::Nat),
                ("t", Ty::Str),
            ]),
            vec![
                vec![nat(2), nat(1), nat(0), Value::str("c")],
                vec![nat(0), nat(2), nat(2), Value::str("two")],
                vec![nat(1), nat(2), nat(0), Value::str("b")],
                vec![nat(0), nat(1), nat(1), Value::str("one")],
                vec![nat(1), nat(1), nat(0), Value::str("a")],
            ],
        );
        let outer = base.with_sel(vec![3, 1]);
        let inner = base.with_sel(vec![4, 2, 0]);
        assert!(Arc::ptr_eq(outer.col(3), inner.col(3)));
        let queries = [
            desc(
                true,
                VLayout::Tuple(vec![VLayout::Atom(3), VLayout::Nested { col: 2, query: 1 }]),
            ),
            desc(true, VLayout::Atom(3)),
        ];
        let text = |s: &str| Val::Text(s.into());
        assert_eq!(
            stitch_both(&[outer, inner], &queries),
            Val::List(vec![
                Val::Tuple(vec![text("one"), Val::List(vec![text("a"), text("b")])]),
                Val::Tuple(vec![text("two"), Val::List(vec![text("c")])]),
            ])
        );
    }

    #[test]
    fn a_split_nest_run_appends_and_a_missing_surrogate_is_empty() {
        let outer = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("pos", Ty::Nat), ("s", Ty::Nat)]),
            (1..=3).map(|i| vec![nat(1), nat(i), nat(i)]).collect(),
        );
        // surrogate 1's rows come in two runs with surrogate 2's between
        // them; surrogate 3 has none
        let inner = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("pos", Ty::Nat), ("i", Ty::Int)]),
            [(1, 10), (1, 11), (2, 20), (1, 12)]
                .iter()
                .map(|&(n, i)| vec![nat(n), nat(1), Value::Int(i)])
                .collect(),
        );
        let queries = [
            desc(true, VLayout::Nested { col: 2, query: 1 }),
            desc(true, VLayout::Atom(2)),
        ];
        let want = Val::List(vec![ints(&[10, 11, 12]), ints(&[20]), ints(&[])]);
        assert_eq!(stitch_both(&[outer.clone(), inner.clone()], &queries), want);
        // the same rows seen through a reversing view of reversed columns
        let rev = |r: &Rel| {
            let rows: Vec<_> = r.rows().iter().rev().cloned().collect();
            let n = rows.len() as u32;
            Rel::new(r.schema.clone(), rows).with_sel((0..n).rev().collect())
        };
        assert_eq!(stitch_both(&[rev(&outer), rev(&inner)], &queries), want);
    }

    #[test]
    fn every_atom_type_stitches_like_its_copy() {
        let schema = Schema::of(&[
            ("nest", Ty::Nat),
            ("pos", Ty::Nat),
            ("u", Ty::Unit),
            ("b", Ty::Bool),
            ("i", Ty::Int),
            ("d", Ty::Dbl),
            ("t", Ty::Str),
        ]);
        let row = |p: u64, b: bool, i: i64, d: f64, t: &str| {
            vec![
                nat(1),
                nat(p),
                Value::Unit,
                Value::Bool(b),
                Value::Int(i),
                Value::Dbl(d),
                Value::str(t),
            ]
        };
        let rel = Rel::new(
            schema,
            vec![
                row(4, false, i64::MIN, f64::NAN, "Grüße, 世界"),
                row(1, true, -1, -0.0, ""),
                row(3, false, i64::MAX, f64::INFINITY, "ascii"),
                row(2, true, 0, 0.0, ""),
            ],
        )
        .with_sel(vec![1, 3, 2, 0]);
        let queries = [desc(
            true,
            VLayout::Tuple((2..7).map(VLayout::Atom).collect()),
        )];
        let v = stitch_both(&[rel], &queries);
        let Val::List(items) = &v else {
            panic!("{v:?}")
        };
        let Val::Tuple(first) = &items[0] else {
            panic!("{v:?}")
        };
        assert_eq!(first[0], Val::Unit);
        assert!(matches!(first[3], Val::Dbl(d) if d == 0.0 && d.is_sign_negative()));
        assert!(matches!(&items[3], Val::Tuple(t)
            if matches!(t[3], Val::Dbl(d) if d.is_nan()) && t[4] == Val::Text("Grüße, 世界".into())));
    }

    #[test]
    fn scalar_roots() {
        let rel = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("a", Ty::Int), ("b", Ty::Str)]),
            vec![
                vec![nat(1), Value::Int(7), Value::str("x")],
                vec![nat(1), Value::Int(2), Value::str("seen")],
            ],
        );
        let queries = [desc(
            false,
            VLayout::Tuple(vec![VLayout::Atom(1), VLayout::Atom(2)]),
        )];
        assert_eq!(
            stitch_both(&[rel.with_sel(vec![0])], &queries),
            Val::Tuple(vec![Val::Int(7), Val::Text("x".into())])
        );
        // a view's one visible row, not its columns' first
        assert_eq!(
            stitch_both(&[rel.with_sel(vec![1])], &queries),
            Val::Tuple(vec![Val::Int(2), Val::Text("seen".into())])
        );
        assert_eq!(
            decode_error(&[rel], &queries),
            "scalar result query returned 2 rows"
        );
    }

    #[test]
    fn decode_errors_keep_their_words() {
        let outer = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("pos", Ty::Nat), ("s", Ty::Int)]),
            vec![vec![nat(1), nat(1), Value::Int(1)]],
        );
        let nested = [
            desc(true, VLayout::Nested { col: 2, query: 1 }),
            desc(true, VLayout::Atom(1)),
        ];
        let bad_nest = Rel::new(
            Schema::of(&[("nest", Ty::Int), ("i", Ty::Int)]),
            vec![vec![Value::Int(1), Value::Int(1)]],
        );
        assert_eq!(
            decode_error(&[outer.clone(), bad_nest], &nested),
            "nest column is not a surrogate"
        );
        let inner = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("i", Ty::Int)]),
            vec![vec![nat(1), Value::Int(1)]],
        );
        assert_eq!(
            decode_error(&[outer.clone(), inner], &nested),
            "surrogate column is not Nat"
        );
        assert_eq!(
            decode_error(&[outer], &[desc(true, VLayout::Atom(1))]),
            "column 1 holds a surrogate, expected data"
        );
    }

    #[test]
    fn result_count_mismatch_is_reported() {
        let queries = vec![QueryDesc {
            root: ferry_algebra::NodeId(0),
            is_list: true,
            layout: VLayout::Atom(2),
        }];
        assert!(matches!(stitch(&[], &queries), Err(FerryError::Decode(_))));
    }
}
