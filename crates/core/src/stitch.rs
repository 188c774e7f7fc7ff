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
//!
//! `fromQ` does not come this way: [`crate::decode`] builds the host
//! value straight from the columns. `stitch` followed by
//! [`QA::from_val`](crate::QA::from_val) is its oracle (the interpreter
//! comparisons, `Connection::execute_val`, the differential tests), and
//! the error texts below are shared by both routes.

use crate::error::FerryError;
use crate::shred::{QueryDesc, VLayout};
use crate::types::Val;
use ferry_algebra::{ColVec, Rel};
use std::cell::Cell;
use std::collections::hash_map::{Entry, HashMap};

thread_local! {
    static VALS_BUILT: Cell<u64> = const { Cell::new(0) };
}

/// How many [`Val`] nodes (atoms, tuples and lists) stitching has built
/// on this thread, including the few a failing decode builds for its
/// message. The production `fromQ` path builds none.
pub fn vals_built() -> u64 {
    VALS_BUILT.with(Cell::get)
}

pub(crate) fn count_val() {
    VALS_BUILT.with(|n| n.set(n.get() + 1));
}

pub(crate) fn count_mismatch(queries: usize, results: usize) -> FerryError {
    FerryError::Decode(format!(
        "bundle has {queries} queries but {results} results"
    ))
}

pub(crate) fn nest_not_surrogate() -> FerryError {
    FerryError::Decode("nest column is not a surrogate".into())
}

pub(crate) fn surrogate_not_nat() -> FerryError {
    FerryError::Decode("surrogate column is not Nat".into())
}

pub(crate) fn atom_is_surrogate(c: usize) -> FerryError {
    FerryError::Decode(format!("column {c} holds a surrogate, expected data"))
}

pub(crate) fn no_scalar_row() -> FerryError {
    FerryError::Partial(
        "no result row — a partial operation (head/the/maximum/!!) was \
         applied to an empty list"
            .into(),
    )
}

pub(crate) fn many_scalar_rows(n: usize) -> FerryError {
    FerryError::Decode(format!("scalar result query returned {n} rows"))
}

/// Inner lists of one query, by their `nest` surrogate.
type Inner = HashMap<u64, Vec<Val>>;

/// Reassemble the bundle's relations into a single nested value.
///
/// `results[i]` must be the relation produced by `queries[i]`'s root.
pub fn stitch(results: &[Rel], queries: &[QueryDesc]) -> Result<Val, FerryError> {
    if results.len() != queries.len() {
        return Err(count_mismatch(queries.len(), results.len()));
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
            .ok_or_else(nest_not_surrogate)?;
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
        count_val();
        Ok(Val::List(out))
    } else {
        match rel.len() {
            1 => build_item(rel, rel.raw_row(0), &root.layout, &mut maps),
            0 => Err(no_scalar_row()),
            n => Err(many_scalar_rows(n)),
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
    count_val();
    match layout {
        VLayout::Atom(c) => atom(rel.col(*c), r).ok_or_else(|| atom_is_surrogate(*c)),
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
                .ok_or_else(surrogate_not_nat)?;
            // each surrogate is referenced exactly once, so take ownership;
            // a missing entry is an empty inner list
            let items = maps[*query].remove(&surr).unwrap_or_default();
            Ok(Val::List(items))
        }
    }
}

/// Cell `r` of `col` as an atomic value; `None` for a surrogate.
pub(crate) fn atom(col: &ColVec, r: usize) -> Option<Val> {
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
    use crate::decode::decode;
    use crate::QA;
    use ferry_algebra::{Schema, Ty, Value};
    use std::fmt::Debug;
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
        let rels = [q1, q2];
        let v = stitch(&rels, &queries).unwrap();
        assert_eq!(
            v,
            Val::List(vec![Val::List(vec![Val::Int(10)]), Val::List(vec![]),])
        );
        assert_eq!(
            agree::<Vec<Vec<i64>>>(&rels, &queries).unwrap(),
            vec![vec![10], vec![]]
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
            stitch(std::slice::from_ref(&q), &queries),
            Err(FerryError::Partial(_))
        ));
        // the decode twin: the same error, whatever the type asked for
        assert!(matches!(
            agree::<i64>(std::slice::from_ref(&q), &queries),
            Err(FerryError::Partial(_))
        ));
        assert!(agree::<(i64, String)>(&[q], &queries).is_err());
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

    /// The decode twin: `decode::<T>` gives what the oracle,
    /// `T::from_val` of the stitched value, gives — the same value or the
    /// same error word for word — on `results` and on their dense copies,
    /// and builds no `Val` when it succeeds.
    fn agree<T: QA + Debug>(results: &[Rel], queries: &[QueryDesc]) -> Result<T, FerryError> {
        let copies: Vec<Rel> = results.iter().map(dense).collect();
        for rels in [results, &copies] {
            let oracle = stitch(rels, queries).and_then(|v| T::from_val(&v));
            let before = vals_built();
            let got = decode::<T>(rels, queries);
            if got.is_ok() {
                assert_eq!(vals_built(), before, "a successful decode builds no Val");
            }
            assert_eq!(format!("{got:?}"), format!("{oracle:?}"));
        }
        decode::<T>(results, queries)
    }

    /// The message of the decode error both routes give for `T`.
    fn agreed_error<T: QA + Debug>(results: &[Rel], queries: &[QueryDesc]) -> String {
        match agree::<T>(results, queries) {
            Err(FerryError::Decode(m)) => m,
            other => panic!("expected a decode error, got {other:?}"),
        }
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
        let rels = [outer, inner];
        assert_eq!(
            stitch_both(&rels, &queries),
            Val::List(vec![
                Val::Tuple(vec![text("one"), Val::List(vec![text("a"), text("b")])]),
                Val::Tuple(vec![text("two"), Val::List(vec![text("c")])]),
            ])
        );
        let s = |s: &str| s.to_string();
        assert_eq!(
            agree::<Vec<(String, Vec<String>)>>(&rels, &queries).unwrap(),
            vec![(s("one"), vec![s("a"), s("b")]), (s("two"), vec![s("c")])]
        );
        // types that do not fit: at an inner atom, at a nested list, at
        // a tuple, and a tuple of the wrong width
        assert_eq!(
            agreed_error::<Vec<(String, Vec<i64>)>>(&rels, &queries),
            r#"expected i64, got Text("a")"#
        );
        assert_eq!(
            agreed_error::<Vec<(String, String)>>(&rels, &queries),
            r#"expected String, got List([Text("a"), Text("b")])"#
        );
        assert_eq!(
            agreed_error::<Vec<String>>(&rels, &queries),
            r#"expected String, got Tuple([Text("one"), List([Text("a"), Text("b")])])"#
        );
        assert_eq!(
            agreed_error::<Vec<(String, Vec<String>, i64)>>(&rels, &queries),
            r#"expected tuple, got Tuple([Text("one"), List([Text("a"), Text("b")])])"#
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
        let typed = vec![vec![10, 11, 12], vec![20], vec![]];
        assert_eq!(
            agree::<Vec<Vec<i64>>>(&[outer.clone(), inner.clone()], &queries).unwrap(),
            typed
        );
        // the split run's second half is where the type stops fitting
        assert_eq!(
            agreed_error::<Vec<Vec<bool>>>(&[outer.clone(), inner.clone()], &queries),
            "expected bool, got Int(10)"
        );
        assert_eq!(
            agreed_error::<Vec<(i64, i64)>>(&[outer.clone(), inner.clone()], &queries),
            "expected tuple, got List([Int(10), Int(11), Int(12)])"
        );
        assert_eq!(
            agreed_error::<i64>(&[outer.clone(), inner.clone()], &queries),
            "expected i64, got List([List([Int(10), Int(11), Int(12)]), List([Int(20)]), List([])])"
        );
        // the same rows seen through a reversing view of reversed columns
        let rev = |r: &Rel| {
            let rows: Vec<_> = r.rows().iter().rev().cloned().collect();
            let n = rows.len() as u32;
            Rel::new(r.schema.clone(), rows).with_sel((0..n).rev().collect())
        };
        assert_eq!(stitch_both(&[rev(&outer), rev(&inner)], &queries), want);
        assert_eq!(
            agree::<Vec<Vec<i64>>>(&[rev(&outer), rev(&inner)], &queries).unwrap(),
            typed
        );
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
        let v = stitch_both(std::slice::from_ref(&rel), &queries);
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
        let rels = [rel];
        let typed = agree::<Vec<((), bool, i64, f64, String)>>(&rels, &queries).unwrap();
        assert!(typed[0].3 == 0.0 && typed[0].3.is_sign_negative());
        assert!(typed[3].3.is_nan() && typed[3].4 == "Grüße, 世界");
        // each atom asked for as the next one's type
        assert_eq!(
            agreed_error::<Vec<(bool, bool, i64, f64, String)>>(&rels, &queries),
            "expected bool, got Unit"
        );
        assert_eq!(
            agreed_error::<Vec<((), (), i64, f64, String)>>(&rels, &queries),
            "expected (), got Bool(true)"
        );
        assert_eq!(
            agreed_error::<Vec<((), bool, f64, f64, String)>>(&rels, &queries),
            "expected f64, got Int(-1)"
        );
        assert_eq!(
            agreed_error::<Vec<((), bool, i64, String, String)>>(&rels, &queries),
            "expected String, got Dbl(-0.0)"
        );
        assert_eq!(
            agreed_error::<Vec<((), bool, i64, f64, i64)>>(&rels, &queries),
            r#"expected i64, got Text("")"#
        );
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
            agree::<(i64, String)>(&[rel.with_sel(vec![1])], &queries).unwrap(),
            (2, "seen".to_string())
        );
        assert_eq!(
            agreed_error::<i64>(&[rel.with_sel(vec![0])], &queries),
            r#"expected i64, got Tuple([Int(7), Text("x")])"#
        );
        assert_eq!(
            agreed_error::<Vec<i64>>(&[rel.with_sel(vec![0])], &queries),
            r#"expected Vec, got Tuple([Int(7), Text("x")])"#
        );
        assert_eq!(
            decode_error(std::slice::from_ref(&rel), &queries),
            "scalar result query returned 2 rows"
        );
        assert_eq!(
            agreed_error::<(i64, String)>(&[rel], &queries),
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
            decode_error(&[outer.clone(), bad_nest.clone()], &nested),
            "nest column is not a surrogate"
        );
        // a structural error wins over a type that does not fit, on both
        // routes
        for m in [
            agreed_error::<Vec<Vec<i64>>>(&[outer.clone(), bad_nest.clone()], &nested),
            agreed_error::<String>(&[outer.clone(), bad_nest], &nested),
        ] {
            assert_eq!(m, "nest column is not a surrogate");
        }
        let inner = Rel::new(
            Schema::of(&[("nest", Ty::Nat), ("i", Ty::Int)]),
            vec![vec![nat(1), Value::Int(1)]],
        );
        assert_eq!(
            decode_error(&[outer.clone(), inner.clone()], &nested),
            "surrogate column is not Nat"
        );
        for m in [
            agreed_error::<Vec<Vec<i64>>>(&[outer.clone(), inner.clone()], &nested),
            agreed_error::<bool>(&[outer.clone(), inner], &nested),
        ] {
            assert_eq!(m, "surrogate column is not Nat");
        }
        assert_eq!(
            decode_error(
                std::slice::from_ref(&outer),
                &[desc(true, VLayout::Atom(1))]
            ),
            "column 1 holds a surrogate, expected data"
        );
        for m in [
            agreed_error::<Vec<i64>>(
                std::slice::from_ref(&outer),
                &[desc(true, VLayout::Atom(1))],
            ),
            agreed_error::<Vec<String>>(&[outer], &[desc(true, VLayout::Atom(1))]),
        ] {
            assert_eq!(m, "column 1 holds a surrogate, expected data");
        }
    }

    #[test]
    fn result_count_mismatch_is_reported() {
        let queries = vec![QueryDesc {
            root: ferry_algebra::NodeId(0),
            is_list: true,
            layout: VLayout::Atom(2),
        }];
        assert!(matches!(stitch(&[], &queries), Err(FerryError::Decode(_))));
        assert_eq!(
            agreed_error::<Vec<i64>>(&[], &queries),
            "bundle has 1 queries but 0 results"
        );
    }

    crate::record! {
        /// One employee, in an inner list.
        struct Emp : EmpFields {
            age: i64,
            name: String,
        }
    }

    #[test]
    fn records_decode_like_their_stitched_tuples() {
        let outer = Rel::new(
            Schema::of(&[
                ("nest", Ty::Nat),
                ("pos", Ty::Nat),
                ("n", Ty::Str),
                ("s", Ty::Nat),
            ]),
            vec![
                vec![nat(1), nat(1), Value::str("ops"), nat(7)],
                vec![nat(1), nat(2), Value::str("dev"), nat(8)],
            ],
        );
        let inner = Rel::new(
            Schema::of(&[
                ("nest", Ty::Nat),
                ("pos", Ty::Nat),
                ("a", Ty::Int),
                ("e", Ty::Str),
            ]),
            vec![
                vec![nat(8), nat(1), Value::Int(30), Value::str("ann")],
                vec![nat(8), nat(2), Value::Int(41), Value::str("bo")],
            ],
        );
        let rels = [outer, inner.clone()];
        let dept = VLayout::Tuple(vec![VLayout::Atom(2), VLayout::Nested { col: 3, query: 1 }]);
        let emp = |layout| [desc(true, dept.clone()), desc(true, layout)];
        let two = emp(VLayout::Tuple(vec![VLayout::Atom(2), VLayout::Atom(3)]));
        let emp = |age: i64, name: &str| Emp {
            age,
            name: name.into(),
        };
        assert_eq!(
            agree::<Vec<(String, Vec<Emp>)>>(&rels, &two).unwrap(),
            vec![
                ("ops".into(), vec![]),
                ("dev".into(), vec![emp(30, "ann"), emp(41, "bo")]),
            ]
        );
        let one = [desc(true, dept.clone()), desc(true, VLayout::Atom(3))];
        assert_eq!(
            agreed_error::<Vec<(String, Vec<Emp>)>>(&rels, &one),
            r#"expected a 2-field record, got Text("ann")"#
        );
        let three = [
            desc(true, dept),
            desc(
                true,
                VLayout::Tuple(vec![VLayout::Atom(2), VLayout::Atom(3), VLayout::Atom(2)]),
            ),
        ];
        assert_eq!(
            agreed_error::<Vec<(String, Vec<Emp>)>>(&rels, &three),
            r#"expected a 2-field record, got Tuple([Int(30), Text("ann"), Int(30)])"#
        );
        // a field that does not fit reports the field's own type
        let swapped = [
            rels[0].clone(),
            Rel::new(inner.schema.clone(), inner.rows().into_owned()).with_sel(vec![1, 0]),
        ];
        assert_eq!(
            agreed_error::<Vec<(String, Vec<Emp>)>>(
                &swapped,
                &[
                    two[0].clone(),
                    desc(
                        true,
                        VLayout::Tuple(vec![VLayout::Atom(3), VLayout::Atom(2)])
                    )
                ],
            ),
            r#"expected i64, got Text("bo")"#
        );
    }

    #[test]
    fn options_decode_like_their_stitched_pairs() {
        let rel = Rel::new(
            Schema::of(&[
                ("nest", Ty::Nat),
                ("pos", Ty::Nat),
                ("some", Ty::Bool),
                ("v", Ty::Int),
                ("i", Ty::Int),
            ]),
            vec![
                vec![
                    nat(1),
                    nat(1),
                    Value::Bool(true),
                    Value::Int(5),
                    Value::Int(1),
                ],
                vec![
                    nat(1),
                    nat(2),
                    Value::Bool(false),
                    Value::Int(0),
                    Value::Int(2),
                ],
            ],
        );
        let rels = [rel];
        let pair = |a, b| {
            desc(
                true,
                VLayout::Tuple(vec![VLayout::Atom(a), VLayout::Atom(b)]),
            )
        };
        assert_eq!(
            agree::<Vec<Option<i64>>>(&rels, &[pair(2, 3)]).unwrap(),
            vec![Some(5), None]
        );
        // a `None`'s payload is never read, so only the `Some` misfits
        assert_eq!(
            agreed_error::<Vec<Option<String>>>(&rels, &[pair(2, 3)]),
            "expected String, got Int(5)"
        );
        assert_eq!(
            agreed_error::<Vec<Option<i64>>>(&rels, &[pair(4, 3)]),
            "expected Option tag, got Int(1)"
        );
        assert_eq!(
            agreed_error::<Vec<Option<i64>>>(&rels, &[desc(true, VLayout::Atom(3))]),
            "expected Option, got Int(5)"
        );
    }
}
