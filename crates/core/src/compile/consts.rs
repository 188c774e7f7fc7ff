//! Compiling embedded constants (`toQ` values) to literal tables.
//!
//! An embedded nested value becomes a bundle of `Lit` tables mirroring the
//! relational encoding of Fig. 3: element tables with `pos` columns,
//! nested lists keyed by the (composite) ordinal path of their owner.
//! The literal tables are database-independent; they are replicated per
//! live iteration by a cross join with the `loop` relation.

use super::rep::{FlatRep, Layout, ListRep, Loop, Rep};
use super::Compiler;
use crate::error::FerryError;
use crate::types::{Ty, Val};
use ferry_algebra::{ColName, Schema, Value};

impl<'a> Compiler<'a> {
    /// Compile a constant of arbitrary type under `lp`.
    pub fn compile_const(&mut self, v: &Val, ty: &Ty, lp: &Loop) -> Result<Rep, FerryError> {
        match (v, ty) {
            (v, t) if t.is_atom() => {
                let cell = v.to_cell().ok_or_else(|| {
                    FerryError::IllTyped(format!("constant {v:?} is not of atomic type {t}"))
                })?;
                let col = self.fresh("k");
                let plan = self.plan.attach(lp.plan, col.clone(), cell);
                Ok(Rep::Flat(FlatRep {
                    plan,
                    iter: lp.iter.clone(),
                    layout: Layout::Atom(col),
                }))
            }
            (Val::Tuple(vs), Ty::Tuple(ts)) if vs.len() == ts.len() => {
                let mut reps = Vec::with_capacity(vs.len());
                for (v, t) in vs.iter().zip(ts) {
                    reps.push(self.compile_const(v, t, lp)?);
                }
                Ok(Rep::Flat(self.tuple_of_reps(reps, lp)))
            }
            (Val::List(vs), Ty::List(elem)) => {
                let standalone = self.const_lists(vec![(Vec::new(), vs.clone())], elem)?;
                Ok(Rep::List(self.cross_with_loop(standalone, lp)))
            }
            (v, t) => Err(FerryError::IllTyped(format!(
                "constant {v:?} does not match type {t}"
            ))),
        }
    }

    /// Build one literal element table holding several lists, each
    /// identified by a `Nat` key path. Nested lists recurse with the key
    /// path extended by the owning element's position. The returned
    /// representation is *standalone*: its iteration key is the key path
    /// (empty at the top).
    fn const_lists(
        &mut self,
        keyed: Vec<(Vec<u64>, Vec<Val>)>,
        elem_ty: &Ty,
    ) -> Result<ListRep, FerryError> {
        let key_width = keyed.first().map_or(0, |(k, _)| k.len());
        // schema: key columns, pos, atom columns (flat parts of the element)
        let mut schema: Vec<(ColName, ferry_algebra::Ty)> = Vec::new();
        let mut iter: Vec<ColName> = Vec::new();
        for _ in 0..key_width {
            let c = self.fresh("kk");
            schema.push((c.clone(), ferry_algebra::Ty::Nat));
            iter.push(c);
        }
        let pos = self.fresh("pos");
        schema.push((pos.clone(), ferry_algebra::Ty::Nat));

        // walk the element type, allocating atom columns and collecting
        // nested-list recursion points
        struct NestSpec {
            ty: Ty,
            lists: Vec<(Vec<u64>, Vec<Val>)>,
        }
        fn build_layout(
            c: &mut Compiler,
            ty: &Ty,
            schema: &mut Vec<(ColName, ferry_algebra::Ty)>,
            surr: &[ColName],
            nests: &mut Vec<NestSpec>,
        ) -> Result<Layout, FerryError> {
            match ty {
                t if t.is_atom() => {
                    let col = c.fresh("v");
                    schema.push((col.clone(), t.col_ty().expect("atom")));
                    Ok(Layout::Atom(col))
                }
                Ty::Tuple(ts) => {
                    let mut ls = Vec::with_capacity(ts.len());
                    for t in ts {
                        ls.push(build_layout(c, t, schema, surr, nests)?);
                    }
                    Ok(Layout::Tuple(ls))
                }
                Ty::List(e) => {
                    nests.push(NestSpec {
                        ty: (**e).clone(),
                        lists: Vec::new(),
                    });
                    Ok(Layout::Nested {
                        surr: surr.to_vec(),
                        // placeholder — patched after recursion below
                        inner: Box::new(ListRep {
                            plan: ferry_algebra::NodeId(0),
                            iter: Vec::new(),
                            pos: c.fresh("x"),
                            layout: Layout::Atom(c.fresh("x")),
                        }),
                    })
                }
                t => Err(FerryError::Unsupported(format!("constant of type {t}"))),
            }
        }

        let mut full_surr = iter.clone();
        full_surr.push(pos.clone());
        let mut nests: Vec<NestSpec> = Vec::new();
        let layout = build_layout(self, elem_ty, &mut schema, &full_surr, &mut nests)?;

        // rows: one per element of every keyed list; nested components are
        // collected for the recursive tables
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (key, elems) in &keyed {
            for (i, elem) in elems.iter().enumerate() {
                let p = i as u64 + 1;
                let mut row: Vec<Value> = key.iter().map(|k| Value::Nat(*k)).collect();
                row.push(Value::Nat(p));
                let mut child_key = key.clone();
                child_key.push(p);
                let mut nest_idx = 0;
                collect_cells(
                    elem,
                    elem_ty,
                    &mut row,
                    &child_key,
                    &mut nests,
                    &mut nest_idx,
                )?;
                rows.push(row);
            }
        }

        fn collect_cells(
            v: &Val,
            ty: &Ty,
            row: &mut Vec<Value>,
            child_key: &[u64],
            nests: &mut [NestSpec],
            nest_idx: &mut usize,
        ) -> Result<(), FerryError> {
            match (v, ty) {
                (v, t) if t.is_atom() => {
                    // the literal's columns are typed by the schema
                    let cell = v.to_cell().filter(|c| Some(c.ty()) == t.col_ty());
                    row.push(cell.ok_or_else(|| FerryError::IllTyped(format!("{v:?} : {t}")))?);
                    Ok(())
                }
                (Val::Tuple(vs), Ty::Tuple(ts)) if vs.len() == ts.len() => {
                    for (v, t) in vs.iter().zip(ts) {
                        collect_cells(v, t, row, child_key, nests, nest_idx)?;
                    }
                    Ok(())
                }
                (Val::List(vs), Ty::List(_)) => {
                    nests[*nest_idx]
                        .lists
                        .push((child_key.to_vec(), vs.clone()));
                    *nest_idx += 1;
                    Ok(())
                }
                (v, t) => Err(FerryError::IllTyped(format!("{v:?} : {t}"))),
            }
        }

        let plan = self.plan.lit(Schema::new(schema), rows);

        // recurse into nested tables and patch the placeholder layouts;
        // a nested slot with no lists at all still gets an inner table of
        // the right key width (key path of this level plus one ordinal)
        let mut layout = layout;
        let mut nest_iter = nests.into_iter();
        let inner_width = key_width + 1;
        fn patch(
            c: &mut Compiler,
            l: &mut Layout,
            nests: &mut std::vec::IntoIter<NestSpec>,
            inner_width: usize,
        ) -> Result<(), FerryError> {
            match l {
                Layout::Atom(_) => Ok(()),
                Layout::Tuple(ls) => {
                    for l in ls {
                        patch(c, l, nests, inner_width)?;
                    }
                    Ok(())
                }
                Layout::Nested { inner, .. } => {
                    let spec = nests.next().expect("nest spec");
                    let mut lists = spec.lists;
                    if lists.is_empty() {
                        lists.push((vec![0; inner_width], Vec::new()));
                    }
                    let lr = c.const_lists(lists, &spec.ty)?;
                    **inner = lr;
                    Ok(())
                }
            }
        }
        patch(self, &mut layout, &mut nest_iter, inner_width)?;

        Ok(ListRep {
            plan,
            iter,
            pos,
            layout,
        })
    }

    /// Replicate a standalone literal list per live iteration: cross-join
    /// the element table (and, recursively, every inner table) with the
    /// loop relation, prefixing the loop's iteration key to every
    /// surrogate link.
    fn cross_with_loop(&mut self, lr: ListRep, lp: &Loop) -> ListRep {
        let (lpp, lmap) = self.reproject(lp.plan, &lp.iter);
        let lp_cols: Vec<ColName> = lp.iter.iter().map(|c| lmap[c].clone()).collect();
        let plan = self.plan.cross(lpp, lr.plan);
        let mut iter = lp_cols.clone();
        iter.extend(lr.iter.iter().cloned());
        let layout = self.cross_layout(lr.layout, &lp_cols, lp);
        ListRep {
            plan,
            iter,
            pos: lr.pos,
            layout,
        }
    }

    fn cross_layout(&mut self, l: Layout, outer_lp_cols: &[ColName], lp: &Loop) -> Layout {
        match l {
            Layout::Atom(c) => Layout::Atom(c),
            Layout::Tuple(ls) => Layout::Tuple(
                ls.into_iter()
                    .map(|l| self.cross_layout(l, outer_lp_cols, lp))
                    .collect(),
            ),
            Layout::Nested { surr, inner } => {
                let inner = self.cross_with_loop(*inner, lp);
                let mut s = outer_lp_cols.to_vec();
                s.extend(surr);
                Layout::Nested {
                    surr: s,
                    inner: Box::new(inner),
                }
            }
        }
    }

    /// The empty list of the given element type under `lp` — a `Lit` with
    /// zero rows (and empty inner tables for nested element types).
    pub fn empty_list(&mut self, elem_ty: &Ty, lp: &Loop) -> Result<ListRep, FerryError> {
        let standalone = self.const_lists(vec![(Vec::new(), Vec::new())], elem_ty)?;
        Ok(self.cross_with_loop(standalone, lp))
    }
}
