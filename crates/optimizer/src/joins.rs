//! Join recovery — the pass that makes loop-lifted plans *runnable*.
//!
//! Loop-lifting evaluates a `table` reference under an inner loop as
//! `loop × table` and applies comprehension guards as late selections.
//! Executed literally, that materialises quadratic intermediates; the real
//! Ferry pipeline relies on Pathfinder's rewrites (cf. "XQuery Join Graph
//! Isolation" \[10\]) to dissolve these crosses back into equi-joins. This
//! module is the equivalent for our engine:
//!
//! * **selection descent** — `σ` moves through `Project` (rename),
//!   `Compute`/`Attach` (substitution), `Distinct`, `UnionAll`, semi/anti
//!   joins, and splits across the two sides of `×`/`⋈`;
//! * **join condition absorption** — an equality conjunct spanning the two
//!   sides of a join/cross becomes part of the equi-join condition
//!   (`σ_{a=b}(l × r)` ⇒ `l ⋈_{a=b} r`);
//! * **join rotation** — equi/semi/anti joins whose key columns come from
//!   one side of an underlying cross (or sit behind a projection /
//!   attachment) rotate inward, so conditions keep descending until they
//!   reach the relation they constrain.
//!
//! Every rewrite preserves the rewritten node's *output schema* (column
//! names, types, order), which is what lets the pass run inside the
//! rebuild framework without global re-inference, and none of them touch
//! an order-defining `RowNum`/`DenseRank` — the compiler's composite
//! iteration keys make sure the hot paths do not hide behind one.

use crate::rewrite::{map_cols, rebuild, Emit, Schemas};
use ferry_algebra::{BinOp, ColName, Expr, JoinCols, Node, NodeId, Plan, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// Run selection descent + join recovery to a (bounded) fixpoint.
pub fn recover_joins(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    let mut plan = plan.clone();
    let mut roots = roots.to_vec();
    for _ in 0..64 {
        let (p2, r2, changed) = step(&plan, &roots);
        plan = p2;
        roots = r2;
        if !changed {
            break;
        }
    }
    (plan, roots)
}

fn step(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>, bool) {
    let mut changed = false;
    // schemas of the plan under construction, grown as it grows (every
    // rewrite preserves its node's output schema)
    let mut known = Schemas::default();
    let (p2, r2) = rebuild(plan, roots, |out, _, node| {
        let known = &mut known;
        let emit = match &node {
            Node::Select { input, pred } => push_select(out, known, *input, pred),
            Node::Compute { input, col, expr } => {
                push_compute_into_cross(out, known, *input, col, expr)
            }
            Node::EquiJoin { left, right, on } => {
                rotate_join(out, known, JoinKind::Equi, *left, *right, on)
            }
            Node::SemiJoin { left, right, on } => {
                rotate_join(out, known, JoinKind::Semi, *left, *right, on)
            }
            Node::AntiJoin { left, right, on } => {
                rotate_join(out, known, JoinKind::Anti, *left, *right, on)
            }
            _ => None,
        };
        match emit {
            Some(e) => {
                changed = true;
                e
            }
            None => Emit::Keep,
        }
    });
    (p2, r2, changed)
}

enum JoinKind {
    Equi,
    Semi,
    Anti,
}

/// Columns referenced by an expression.
fn cols_of(e: &Expr) -> Vec<ColName> {
    let mut cs = Vec::new();
    e.columns(&mut cs);
    cs
}

fn subset(cols: &[ColName], schema: &Schema) -> bool {
    cols.iter().all(|c| schema.contains(c))
}

/// Substitute column `col` by `with` inside `e`.
fn substitute(e: &Expr, col: &ColName, with: &Expr) -> Expr {
    let by = |c: &ColName| {
        Some(if c == col {
            with.clone()
        } else {
            Expr::Col(c.clone())
        })
    };
    map_cols(e, &by).expect("every column has a replacement")
}

/// Rename columns via a projection's (new → old) map; `None` if a column
/// is missing (defensive — projections expose every column a parent uses).
fn rename_expr(e: &Expr, map: &HashMap<&ColName, &ColName>) -> Option<Expr> {
    map_cols(e, &|c| map.get(c).map(|o| Expr::Col((*o).clone())))
}

pub(crate) fn conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Bin(BinOp::And, l, r) => {
            conjuncts(l, out);
            conjuncts(r, out);
        }
        e => out.push(e.clone()),
    }
}

pub(crate) fn and_all(mut es: Vec<Expr>) -> Expr {
    let first = es.remove(0);
    es.into_iter().fold(first, Expr::and)
}

/// One descent step for `σ_pred(input)`. Returns `None` when no rewrite
/// applies.
fn push_select(out: &mut Plan, known: &mut Schemas, input: NodeId, pred: &Expr) -> Option<Emit> {
    let child = out.node(input).clone();
    match child {
        Node::Project { input: g, cols } => {
            let map: HashMap<&ColName, &ColName> = cols.iter().map(|(n, o)| (n, o)).collect();
            let pred2 = rename_expr(pred, &map)?;
            let sel = out.select(g, pred2);
            Some(Emit::Replace(Node::Project { input: sel, cols }))
        }
        Node::Compute {
            input: g,
            col,
            expr,
        } => {
            let pred2 = substitute(pred, &col, &expr);
            let sel = out.select(g, pred2);
            Some(Emit::Replace(Node::Compute {
                input: sel,
                col,
                expr,
            }))
        }
        Node::Attach {
            input: g,
            col,
            value,
        } => {
            let pred2 = substitute(pred, &col, &Expr::Const(value.clone()));
            let sel = out.select(g, pred2);
            Some(Emit::Replace(Node::Attach {
                input: sel,
                col,
                value,
            }))
        }
        Node::Select { input: g, pred: p1 } => {
            // keep guard-then-use evaluation order: p1 first
            Some(Emit::Replace(Node::Select {
                input: g,
                pred: Expr::and(p1, pred.clone()),
            }))
        }
        Node::Distinct { input: g } => {
            let sel = out.select(g, pred.clone());
            Some(Emit::Replace(Node::Distinct { input: sel }))
        }
        Node::SemiJoin { left, right, on } => {
            let sel = out.select(left, pred.clone());
            Some(Emit::Replace(Node::SemiJoin {
                left: sel,
                right,
                on,
            }))
        }
        Node::AntiJoin { left, right, on } => {
            let sel = out.select(left, pred.clone());
            Some(Emit::Replace(Node::AntiJoin {
                left: sel,
                right,
                on,
            }))
        }
        Node::UnionAll { left, right } => {
            // clone the σ into both sides; the right side's columns are
            // matched positionally (union semantics)
            let ls = known.of(out, left)?.clone();
            let rs = known.of(out, right)?.clone();
            if !subset(&cols_of(pred), &ls) {
                return None;
            }
            let pos_map: HashMap<&ColName, &ColName> = ls
                .cols()
                .iter()
                .zip(rs.cols())
                .map(|((ln, _), (rn, _))| (ln, rn))
                .collect();
            let pred_r = rename_expr(pred, &pos_map)?;
            let l2 = out.select(left, pred.clone());
            let r2 = out.select(right, pred_r);
            Some(Emit::Replace(Node::UnionAll {
                left: l2,
                right: r2,
            }))
        }
        Node::CrossJoin { left, right } | Node::EquiJoin { left, right, .. } => {
            let ls = known.of(out, left)?.clone();
            let rs = known.of(out, right)?.clone();
            let mut cs = Vec::new();
            conjuncts(pred, &mut cs);
            let mut to_l: Vec<Expr> = Vec::new();
            let mut to_r: Vec<Expr> = Vec::new();
            let mut new_on: Vec<(ColName, ColName)> = Vec::new();
            // computed join keys: `e_l = e_r` with each side confined to
            // one input becomes Compute + an equi condition
            let mut compute_l: Vec<(ColName, Expr)> = Vec::new();
            let mut compute_r: Vec<(ColName, Expr)> = Vec::new();
            let mut residue: Vec<Expr> = Vec::new();
            for c in cs {
                let cc = cols_of(&c);
                if subset(&cc, &ls) {
                    to_l.push(c);
                } else if subset(&cc, &rs) {
                    to_r.push(c);
                } else if let Some((a, b)) = as_cross_equality(&c, &ls, &rs) {
                    new_on.push((a, b));
                } else if let Some((el, er)) = as_split_equality(&c, &ls, &rs) {
                    let salt = out.len() + compute_l.len();
                    let cl: ColName = Arc::from(format!("__ek{salt}l"));
                    let cr: ColName = Arc::from(format!("__ek{salt}r"));
                    compute_l.push((cl.clone(), el));
                    compute_r.push((cr.clone(), er));
                    new_on.push((cl, cr));
                } else {
                    residue.push(c);
                }
            }
            if to_l.is_empty() && to_r.is_empty() && new_on.is_empty() {
                return None;
            }
            let mut l2 = if to_l.is_empty() {
                left
            } else {
                out.select(left, and_all(to_l))
            };
            let mut r2 = if to_r.is_empty() {
                right
            } else {
                out.select(right, and_all(to_r))
            };
            for (c, e) in compute_l {
                l2 = out.compute(l2, c, e);
            }
            for (c, e) in compute_r {
                r2 = out.compute(r2, c, e);
            }
            let mut on = match out.node(input) {
                Node::EquiJoin { on, .. } => on.clone(),
                _ => JoinCols {
                    left: vec![],
                    right: vec![],
                },
            };
            for (a, b) in new_on {
                on.left.push(a);
                on.right.push(b);
            }
            let had_computed_keys = on.left.iter().any(|c| c.starts_with("__ek"));
            let joined = if on.left.is_empty() {
                out.cross(l2, r2)
            } else {
                out.equi_join(l2, r2, on)
            };
            // restore the original output schema when computed key columns
            // were introduced
            let joined = if had_computed_keys {
                let cols: Vec<(ColName, ColName)> = ls
                    .names()
                    .chain(rs.names())
                    .map(|n| (n.clone(), n.clone()))
                    .collect();
                out.project(joined, cols)
            } else {
                joined
            };
            if residue.is_empty() {
                Some(Emit::Forward(joined))
            } else {
                Some(Emit::Replace(Node::Select {
                    input: joined,
                    pred: and_all(residue),
                }))
            }
        }
        Node::GroupBy {
            input: g,
            keys,
            aggs,
        } => {
            // predicates over group keys commute with grouping
            if !subset(
                &cols_of(pred),
                &Schema::new(
                    keys.iter()
                        .map(|k| (k.clone(), ferry_algebra::Ty::Nat))
                        .collect(),
                ),
            ) {
                // (type payload irrelevant — containment check only)
                return None;
            }
            let sel = out.select(g, pred.clone());
            Some(Emit::Replace(Node::GroupBy {
                input: sel,
                keys,
                aggs,
            }))
        }
        _ => None,
    }
}

/// Does a cross join hide within `depth` single-input hops below `id`?
fn sees_cross(plan: &Plan, id: NodeId, depth: usize) -> bool {
    if depth == 0 {
        return false;
    }
    match plan.node(id) {
        Node::CrossJoin { .. } => true,
        Node::Project { input, .. }
        | Node::Attach { input, .. }
        | Node::Compute { input, .. }
        | Node::Select { input, .. } => sees_cross(plan, *input, depth - 1),
        _ => false,
    }
}

/// A semi/anti join over a cross with mixed-side keys: re-express the semi
/// join as an equi join against the *distinct* key set (each left row then
/// matches at most once), which the mixed-key rotation above can dissolve
/// on the next pass. Anti joins are left alone.
fn mixed_semi_to_equi(
    out: &mut Plan,
    known: &mut Schemas,
    kind: JoinKind,
    left: NodeId,
    right: NodeId,
    on: &JoinCols,
) -> Option<Emit> {
    if !matches!(kind, JoinKind::Semi) {
        return None;
    }
    let ls = known.of(out, left)?.clone();
    // project the key set under fresh names (an equi join needs disjoint
    // schemas where the semi join did not)
    let salt = out.len();
    let proj: Vec<(ColName, ColName)> = on
        .right
        .iter()
        .enumerate()
        .map(|(i, c)| (Arc::from(format!("__sj{salt}_{i}")), c.clone()))
        .collect();
    let fresh: Vec<ColName> = proj.iter().map(|(n, _)| n.clone()).collect();
    if fresh.iter().any(|c| ls.contains(c)) {
        return None;
    }
    let keyed = out.project(right, proj);
    let d = out.distinct(keyed);
    let j = out.equi_join(left, d, JoinCols::new(on.left.clone(), fresh));
    let cols: Vec<(ColName, ColName)> = ls.names().map(|n| (n.clone(), n.clone())).collect();
    Some(Emit::Replace(Node::Project { input: j, cols }))
}

/// A computed column over a cross join whose expression only reads one
/// factor moves into that factor — so computed join keys introduced by the
/// equality absorption become visible to the rotations that dissolve the
/// cross.
fn push_compute_into_cross(
    out: &mut Plan,
    known: &mut Schemas,
    input: NodeId,
    col: &ColName,
    expr: &Expr,
) -> Option<Emit> {
    // swap through a projection first: compute(π(g)) ⇒ π'(compute(g))
    if let Node::Project { input: g, cols } = out.node(input).clone() {
        let map: HashMap<&ColName, &ColName> = cols.iter().map(|(n, o)| (n, o)).collect();
        let expr2 = rename_expr(expr, &map)?;
        // the computed name must not collide below the projection
        let gs = known.of(out, g)?.clone();
        if gs.contains(col) {
            return None;
        }
        let c2 = out.compute(g, col.clone(), expr2);
        let mut cols2 = cols.clone();
        cols2.push((col.clone(), col.clone()));
        return Some(Emit::Replace(Node::Project {
            input: c2,
            cols: cols2,
        }));
    }
    let Node::CrossJoin { left: a, right: b } = out.node(input).clone() else {
        return None;
    };
    let sa = known.of(out, a)?.clone();
    let sb = known.of(out, b)?.clone();
    let cols = cols_of(expr);
    if subset(&cols, &sb) {
        // a × (compute b) — output order a ++ b ++ col already matches
        let b2 = out.compute(b, col.clone(), expr.clone());
        Some(Emit::Replace(Node::CrossJoin { left: a, right: b2 }))
    } else if subset(&cols, &sa) {
        let a2 = out.compute(a, col.clone(), expr.clone());
        let crossed = out.cross(a2, b);
        // restore output order: a, b, col
        let mut proj: Vec<(ColName, ColName)> = Vec::new();
        for n in sa.names().chain(sb.names()) {
            proj.push((n.clone(), n.clone()));
        }
        proj.push((col.clone(), col.clone()));
        Some(Emit::Replace(Node::Project {
            input: crossed,
            cols: proj,
        }))
    } else {
        None
    }
}

/// `e_l = e_r` with every column of `e_l` on the left and of `e_r` on the
/// right (or swapped): a join condition over *computed* keys.
fn as_split_equality(e: &Expr, ls: &Schema, rs: &Schema) -> Option<(Expr, Expr)> {
    let Expr::Bin(BinOp::Eq, l, r) = e else {
        return None;
    };
    let (cl, cr) = (cols_of(l), cols_of(r));
    if cl.is_empty() || cr.is_empty() {
        return None; // constant sides belong to the per-side pushes
    }
    let (el, er) = if subset(&cl, ls) && subset(&cr, rs) {
        ((**l).clone(), (**r).clone())
    } else if subset(&cl, rs) && subset(&cr, ls) {
        ((**r).clone(), (**l).clone())
    } else {
        return None;
    };
    // both sides must infer to the same type for a legal join
    let lt = el.infer_ty(ls)?;
    let rt = er.infer_ty(rs)?;
    if lt == rt {
        Some((el, er))
    } else {
        None
    }
}

/// `a = b` with `a` from the left schema and `b` from the right (or
/// swapped) — a recoverable equi-join condition.
fn as_cross_equality(e: &Expr, ls: &Schema, rs: &Schema) -> Option<(ColName, ColName)> {
    let Expr::Bin(BinOp::Eq, l, r) = e else {
        return None;
    };
    let (Expr::Col(a), Expr::Col(b)) = (l.as_ref(), r.as_ref()) else {
        return None;
    };
    if ls.contains(a) && rs.contains(b) && ls.ty_of(a) == rs.ty_of(b) {
        Some((a.clone(), b.clone()))
    } else if ls.contains(b) && rs.contains(a) && ls.ty_of(b) == rs.ty_of(a) {
        Some((b.clone(), a.clone()))
    } else {
        None
    }
}

/// Rotate a join inward when its left key columns come from one side of an
/// underlying cross, projection, or column attachment, so the condition
/// keeps descending toward the relation it constrains.
fn rotate_join(
    out: &mut Plan,
    known: &mut Schemas,
    kind: JoinKind,
    left: NodeId,
    right: NodeId,
    on: &JoinCols,
) -> Option<Emit> {
    let left_schema = &known.of(out, left)?.clone();
    let right_schema = &known.of(out, right)?.clone();
    let lchild = out.node(left).clone();
    let mk_join = |out: &mut Plan, l: NodeId, r: NodeId, on: JoinCols| match kind {
        JoinKind::Equi => out.equi_join(l, r, on),
        JoinKind::Semi => out.semi_join(l, r, on),
        JoinKind::Anti => out.anti_join(l, r, on),
    };
    // commute: an equi join whose *right* side hides a cross (and whose
    // left does not) flips, so the left-side rotations can dissolve it
    if matches!(kind, JoinKind::Equi)
        && sees_cross(out, right, 4)
        && !sees_cross(out, left, 4)
        && !matches!(
            lchild,
            Node::CrossJoin { .. } | Node::Project { .. } | Node::Attach { .. }
        )
    {
        let flipped = out.equi_join(
            right,
            left,
            JoinCols::new(on.right.clone(), on.left.clone()),
        );
        let mut cols: Vec<(ColName, ColName)> = Vec::new();
        for n in left_schema.names().chain(right_schema.names()) {
            cols.push((n.clone(), n.clone()));
        }
        return Some(Emit::Replace(Node::Project {
            input: flipped,
            cols,
        }));
    }
    match lchild {
        Node::CrossJoin { left: a, right: b } => {
            let sa = known.of(out, a)?.clone();
            let sb = known.of(out, b)?.clone();
            if on.left.iter().all(|c| sa.contains(c)) {
                // ⋈(a × b, r) ⇒ (⋈(a, r)) × b — for equi joins the output
                // column order changes (a r b vs a b r), restored with a
                // projection
                let inner = mk_join(out, a, right, on.clone());
                let crossed = out.cross(inner, b);
                match kind {
                    JoinKind::Equi => {
                        let mut cols: Vec<(ColName, ColName)> = Vec::new();
                        for n in left_schema.names() {
                            cols.push((n.clone(), n.clone()));
                        }
                        for n in right_schema.names() {
                            cols.push((n.clone(), n.clone()));
                        }
                        Some(Emit::Replace(Node::Project {
                            input: crossed,
                            cols,
                        }))
                    }
                    _ => Some(Emit::Forward(crossed)),
                }
            } else if on.left.iter().all(|c| sb.contains(c)) {
                // ⋈(a × b, r) ⇒ a × ⋈(b, r) — order a b r is preserved
                let inner = mk_join(out, b, right, on.clone());
                Some(Emit::Replace(Node::CrossJoin {
                    left: a,
                    right: inner,
                }))
            } else if on.left.iter().all(|c| sa.contains(c) || sb.contains(c)) {
                // mixed keys: ⋈_{a.x=r.x ∧ b.y=r.y}(a × b, r)
                //           ⇒ ⋈_{r.y=b.y}(⋈_{a.x=r.x}(a, r), b)
                // — the cross dissolves entirely. Equi joins only (the
                // factoring duplicates matches for semi/anti).
                if !matches!(kind, JoinKind::Equi) {
                    return mixed_semi_to_equi(out, known, kind, left, right, on);
                }
                let rs = known.of(out, right)?.clone();
                let mut on_a = JoinCols {
                    left: vec![],
                    right: vec![],
                };
                let mut on_b = JoinCols {
                    left: vec![],
                    right: vec![],
                };
                for (l, r) in on.left.iter().zip(on.right.iter()) {
                    if sa.contains(l) {
                        on_a.left.push(l.clone());
                        on_a.right.push(r.clone());
                    } else {
                        // after the first join, r's columns are on the left
                        on_b.left.push(r.clone());
                        on_b.right.push(l.clone());
                    }
                }
                let j1 = out.equi_join(a, right, on_a);
                let j2 = out.equi_join(j1, b, on_b);
                // restore output order: a, b, r
                let mut cols: Vec<(ColName, ColName)> = Vec::new();
                for n in sa.names().chain(sb.names()).chain(rs.names()) {
                    cols.push((n.clone(), n.clone()));
                }
                Some(Emit::Replace(Node::Project { input: j2, cols }))
            } else {
                None
            }
        }
        Node::Project { input: g, cols } => {
            // stacked projections block the rules below: compose them
            // first (Project ∘ Project ⇒ Project)
            if let Node::Project {
                input: gg,
                cols: inner,
            } = out.node(g).clone()
            {
                let imap: HashMap<&ColName, &ColName> = inner.iter().map(|(n, o)| (n, o)).collect();
                let composed: Option<Vec<(ColName, ColName)>> = cols
                    .iter()
                    .map(|(new, mid)| imap.get(mid).map(|o| (new.clone(), (*o).clone())))
                    .collect();
                if let Some(composed) = composed {
                    let p2 = out.project(gg, composed);
                    let j = mk_join(out, p2, right, on.clone());
                    return Some(Emit::Forward(j));
                }
            }
            // pull the projection above the join. When the unprojected
            // input's names collide with the right side (the same base
            // node feeding both sides), insulate with a fresh renaming
            // projection first — the pull then proceeds next pass.
            let gs = known.of(out, g)?.clone();
            if !matches!(kind, JoinKind::Semi | JoinKind::Anti) && !gs.disjoint(right_schema) {
                // the same base node feeds both join sides. When the left
                // input is a cross, rename *inside* its factors so the
                // collision disappears for good (renaming above the cross
                // would just be pulled and re-collide).
                let Node::CrossJoin {
                    left: ca,
                    right: cb,
                } = out.node(g).clone()
                else {
                    return None;
                };
                let sa = known.of(out, ca)?.clone();
                let sb = known.of(out, cb)?.clone();
                let salt = out.len();
                let mut fmap: HashMap<ColName, ColName> = HashMap::new();
                let fresh_side = |out: &mut Plan,
                                  side: NodeId,
                                  schema: &Schema,
                                  fmap: &mut HashMap<ColName, ColName>|
                 -> NodeId {
                    let proj: Vec<(ColName, ColName)> = schema
                        .names()
                        .map(|n| {
                            let f: ColName = Arc::from(format!("__jr{salt}_{}", fmap.len()));
                            fmap.insert(n.clone(), f.clone());
                            (f, n.clone())
                        })
                        .collect();
                    out.project(side, proj)
                };
                let ca2 = fresh_side(out, ca, &sa, &mut fmap);
                let cb2 = fresh_side(out, cb, &sb, &mut fmap);
                let g2 = out.cross(ca2, cb2);
                let cols2: Vec<(ColName, ColName)> = cols
                    .iter()
                    .map(|(new, old)| (new.clone(), fmap[old].clone()))
                    .collect();
                let p2 = out.project(g2, cols2);
                let j = mk_join(out, p2, right, on.clone());
                return Some(Emit::Forward(j));
            }
            let map: HashMap<&ColName, &ColName> = cols.iter().map(|(n, o)| (n, o)).collect();
            let renamed: Option<Vec<ColName>> = on
                .left
                .iter()
                .map(|c| map.get(c).map(|o| (*o).clone()))
                .collect();
            let renamed = renamed?;
            let on2 = JoinCols::new(renamed, on.right.clone());
            let inner = mk_join(out, g, right, on2);
            let mut out_cols = cols.clone();
            if matches!(kind, JoinKind::Equi) {
                for n in right_schema.names() {
                    out_cols.push((n.clone(), n.clone()));
                }
            }
            Some(Emit::Replace(Node::Project {
                input: inner,
                cols: out_cols,
            }))
        }
        Node::Attach {
            input: g,
            col,
            value,
        } => {
            if on.left.contains(&col) {
                return None;
            }
            let inner = mk_join(out, g, right, on.clone());
            match kind {
                JoinKind::Equi => {
                    // (g + col) ⋈ r has col before r's columns; re-order
                    let attached = out.attach(inner, col.clone(), value);
                    let mut cols: Vec<(ColName, ColName)> = Vec::new();
                    for n in left_schema.names() {
                        cols.push((n.clone(), n.clone()));
                    }
                    for n in right_schema.names() {
                        cols.push((n.clone(), n.clone()));
                    }
                    Some(Emit::Replace(Node::Project {
                        input: attached,
                        cols,
                    }))
                }
                _ => Some(Emit::Replace(Node::Attach {
                    input: inner,
                    col,
                    value,
                })),
            }
        }
        _ => None,
    }
}
