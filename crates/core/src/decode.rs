//! Decoding: tabular query results straight into the host type.
//!
//! The production `fromQ` (Fig. 2, steps 5 – 6): [`decode`] builds a
//! `T: QA` top-down from the bundle's result columns, following each
//! query's [`VLayout`], with no nested [`Val`] in between. An atom reads
//! its column at the visible row's column row ([`Rel::raw_row`]), so a
//! `String` is copied once from the column dictionary's `&str`; tuples,
//! records and `Option`s decode their components in place. A `Vec<T>` at
//! a surrogate column finds its items through a per-inner-query index
//! from `nest` surrogates to runs of rows (one hash insert per run, as in
//! the stitcher) and is sized from them. An absent surrogate is an empty
//! list; a nest whose rows arrive in several runs decodes them all, in
//! row order.
//!
//! [`stitch`](crate::stitch::stitch) followed by [`QA::from_val`] is the
//! oracle, and the two agree on every bundle, errors included:
//! structural errors (a nest or surrogate column that is not `Nat`, an
//! atom column that is, a scalar root with no row or several) are found
//! before any item is decoded, in the stitcher's order; an item that does
//! not fit `T` is rebuilt as the `Val` the stitcher would have built and
//! handed to `from_val`, so every message keeps its words.

use crate::error::FerryError;
use crate::qa::QA;
use crate::shred::{QueryDesc, VLayout};
use crate::stitch;
use crate::types::Val;
use ferry_algebra::{ColVec, Rel};
use std::collections::hash_map::{Entry, HashMap};

/// Decode the bundle's relations into a `T` — the production `fromQ`.
///
/// `results[i]` must be the relation produced by `queries[i]`'s root.
pub fn decode<T: QA>(results: &[Rel], queries: &[QueryDesc]) -> Result<T, FerryError> {
    if results.len() != queries.len() {
        return Err(stitch::count_mismatch(queries.len(), results.len()));
    }
    let mut runs: Vec<Runs> = (0..queries.len()).map(|_| Runs::default()).collect();
    for q in (1..queries.len()).rev() {
        runs[q] = Runs::of(&results[q], &queries[q].layout)?;
    }
    let (rel, root) = (&results[0], &queries[0]);
    let mut d = Decoder {
        rels: results,
        queries,
        runs,
    };
    if root.is_list {
        if !rel.is_empty() {
            check(rel, &root.layout)?;
        }
        d.runs[0].runs.push(Run {
            lo: 0,
            hi: rel.len(),
            next: NO_RUN,
        });
        T::decode(&mut d, At(Pos::List { q: 0, run: 0 }))
    } else {
        match rel.len() {
            1 => {
                check(rel, &root.layout)?;
                let row = rel.raw_row(0);
                let layout = &root.layout;
                T::decode(&mut d, At(Pos::Item { q: 0, row, layout }))
            }
            0 => Err(stitch::no_scalar_row()),
            n => Err(stitch::many_scalar_rows(n)),
        }
    }
}

/// The stitcher's errors for `layout` over a relation with rows: they
/// depend on column types only, so any row raises the same first one.
fn check(rel: &Rel, layout: &VLayout) -> Result<(), FerryError> {
    match layout {
        VLayout::Atom(c) => match **rel.col(*c) {
            ColVec::Nat(_) => Err(stitch::atom_is_surrogate(*c)),
            _ => Ok(()),
        },
        VLayout::Tuple(ls) => ls.iter().try_for_each(|l| check(rel, l)),
        VLayout::Nested { col, .. } => match rel.col(*col).as_nat() {
            Some(_) => Ok(()),
            None => Err(stitch::surrogate_not_nat()),
        },
    }
}

/// The end of a run chain.
const NO_RUN: usize = usize::MAX;

/// Visible rows `lo..hi` of one query, all of one `nest`, and the index
/// of that nest's next run (or [`NO_RUN`]).
#[derive(Clone, Copy)]
struct Run {
    lo: usize,
    hi: usize,
    next: usize,
}

/// One query's rows grouped by `nest`: each surrogate's first and last
/// run, chained through `runs`.
#[derive(Default)]
struct Runs {
    by_nest: HashMap<u64, (usize, usize)>,
    runs: Vec<Run>,
}

impl Runs {
    /// Index inner query `rel`, checking it as the stitcher does.
    fn of(rel: &Rel, layout: &VLayout) -> Result<Runs, FerryError> {
        let mut out = Runs::default();
        if rel.is_empty() {
            return Ok(out);
        }
        let nests = (rel.width() > 0)
            .then(|| rel.col(0).as_nat())
            .flatten()
            .ok_or_else(stitch::nest_not_surrogate)?;
        check(rel, layout)?;
        let nest_at = |i: usize| nests[rel.raw_row(i)];
        let mut lo = 0;
        while lo < rel.len() {
            let nest = nest_at(lo);
            let hi = (lo + 1..rel.len())
                .find(|&j| nest_at(j) != nest)
                .unwrap_or(rel.len());
            let id = out.runs.len();
            out.runs.push(Run {
                lo,
                hi,
                next: NO_RUN,
            });
            match out.by_nest.entry(nest) {
                Entry::Occupied(mut e) => {
                    let (_, last) = e.get_mut();
                    out.runs[*last].next = id;
                    *last = id;
                }
                Entry::Vacant(e) => {
                    e.insert((id, id));
                }
            }
            lo = hi;
        }
        Ok(out)
    }
}

/// The bundle being decoded: its relations, their layouts and the inner
/// queries' run indexes. Handed to every [`QA::decode`].
pub struct Decoder<'a> {
    rels: &'a [Rel],
    queries: &'a [QueryDesc],
    runs: Vec<Runs>,
}

/// Where a value sits in the bundle's result columns.
#[derive(Clone, Copy)]
pub struct At<'a>(Pos<'a>);

#[derive(Clone, Copy)]
enum Pos<'a> {
    /// One item: column row `row` of query `q`, laid out by `layout`.
    Item {
        q: usize,
        row: usize,
        layout: &'a VLayout,
    },
    /// A whole list: query `q`'s rows in the run chain from `run`.
    List { q: usize, run: usize },
}

/// The components of a tuple item.
#[derive(Clone, Copy)]
pub struct Fields<'a> {
    q: usize,
    row: usize,
    layouts: &'a [VLayout],
}

impl<'a> At<'a> {
    /// This item's `width` components, or `None` when it is not a tuple
    /// of that width.
    pub fn fields(self, width: usize) -> Option<Fields<'a>> {
        match self.0 {
            Pos::Item {
                q,
                row,
                layout: VLayout::Tuple(layouts),
            } if layouts.len() == width => Some(Fields { q, row, layouts }),
            _ => None,
        }
    }
}

impl<'a> Fields<'a> {
    /// Component `i` (panics past the width asked of [`At::fields`]).
    pub fn at(self, i: usize) -> At<'a> {
        At(Pos::Item {
            q: self.q,
            row: self.row,
            layout: &self.layouts[i],
        })
    }
}

impl<'a> Decoder<'a> {
    /// `at` does not hold a `T`: the error `from_val` gives for the value
    /// the stitcher builds there.
    pub fn mismatch<T: QA>(&self, at: At<'a>) -> Result<T, FerryError> {
        T::from_val(&self.val(at)?)
    }

    /// The column and column row of an atom item.
    pub(crate) fn cell(&self, at: At<'a>) -> Option<(&'a ColVec, usize)> {
        let rels: &'a [Rel] = self.rels;
        match at.0 {
            Pos::Item {
                q,
                row,
                layout: VLayout::Atom(c),
            } => Some((&**rels[q].col(*c), row)),
            _ => None,
        }
    }

    /// The list at `at`: a whole query's rows, or the rows a surrogate
    /// names. Each surrogate is taken once, as the stitcher does.
    pub(crate) fn list<T: QA>(&mut self, at: At<'a>) -> Result<Vec<T>, FerryError> {
        let (q, first) = match at.0 {
            Pos::List { q, run } => (q, run),
            Pos::Item {
                q,
                row,
                layout: VLayout::Nested { col, query },
            } => (*query, self.take(q, row, *col, *query)?),
            Pos::Item { .. } => return self.mismatch(at),
        };
        let (rels, queries): (&'a [Rel], &'a [QueryDesc]) = (self.rels, self.queries);
        let (rel, layout) = (&rels[q], &queries[q].layout);
        let mut len = 0;
        let mut run = first;
        while run != NO_RUN {
            let r = self.runs[q].runs[run];
            len += r.hi - r.lo;
            run = r.next;
        }
        let mut out = Vec::with_capacity(len);
        let mut run = first;
        while run != NO_RUN {
            let r = self.runs[q].runs[run];
            for i in r.lo..r.hi {
                let row = rel.raw_row(i);
                out.push(T::decode(self, At(Pos::Item { q, row, layout }))?);
            }
            run = r.next;
        }
        Ok(out)
    }

    /// The first run of the inner list named by the surrogate at column
    /// `col`, row `row` of query `q`, removed from `query`'s index.
    fn take(
        &mut self,
        q: usize,
        row: usize,
        col: usize,
        query: usize,
    ) -> Result<usize, FerryError> {
        let surr = self.surrogate(q, row, col)?;
        Ok(self.runs[query]
            .by_nest
            .remove(&surr)
            .map_or(NO_RUN, |(first, _)| first))
    }

    fn surrogate(&self, q: usize, row: usize, col: usize) -> Result<u64, FerryError> {
        self.rels[q]
            .col(col)
            .as_nat()
            .map(|s| s[row])
            .ok_or_else(stitch::surrogate_not_nat)
    }

    /// The value the stitcher builds at `at` (the error path only).
    fn val(&self, at: At<'a>) -> Result<Val, FerryError> {
        stitch::count_val();
        match at.0 {
            Pos::List { q, run } => self.list_val(q, run),
            Pos::Item { q, row, layout } => match layout {
                VLayout::Atom(c) => stitch::atom(self.rels[q].col(*c), row)
                    .ok_or_else(|| stitch::atom_is_surrogate(*c)),
                VLayout::Tuple(ls) => ls
                    .iter()
                    .map(|layout| self.val(At(Pos::Item { q, row, layout })))
                    .collect::<Result<_, _>>()
                    .map(Val::Tuple),
                VLayout::Nested { col, query } => {
                    let surr = self.surrogate(q, row, *col)?;
                    let run = self.runs[*query]
                        .by_nest
                        .get(&surr)
                        .map_or(NO_RUN, |&(first, _)| first);
                    self.list_val(*query, run)
                }
            },
        }
    }

    fn list_val(&self, q: usize, mut run: usize) -> Result<Val, FerryError> {
        let (rel, layout) = (&self.rels[q], &self.queries[q].layout);
        let mut items = Vec::new();
        while run != NO_RUN {
            let r = self.runs[q].runs[run];
            for i in r.lo..r.hi {
                let row = rel.raw_row(i);
                items.push(self.val(At(Pos::Item { q, row, layout }))?);
            }
            run = r.next;
        }
        Ok(Val::List(items))
    }
}
