//! The rewrite passes.

use crate::joins::and_all;
use crate::props::{Lineage, PropTable};
use crate::rewrite::{live, rebuild, Emit};
use ferry_algebra::{
    infer_schema, BinOp, ColName, Expr, JoinCols, Node, NodeId, Plan, Schema, UnOp, Value,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

// ------------------------------------------------------------------- CSE

/// Hash-consing: structurally identical nodes are merged, turning repeated
/// compilation patterns (the re-projected `loop` relation above all) into
/// genuine DAG sharing.
pub fn cse(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    let mut seen: HashMap<String, NodeId> = HashMap::new();
    rebuild(plan, roots, |out, _, node| {
        let key = format!("{node:?}");
        match seen.get(&key) {
            Some(&id) => Emit::Forward(id),
            None => {
                // the id `rebuild` will assign on Keep
                seen.insert(key, NodeId(out.len() as u32));
                Emit::Keep
            }
        }
    })
}

// -------------------------------------------------------- project merging

/// Collapse `Project ∘ Project` chains and eliminate identity projections.
pub fn merge_projects(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    match infer_schema(plan) {
        Ok(schemas) => merge_projects_with(plan, roots, &schemas),
        Err(_) => (plan.clone(), roots.to_vec()),
    }
}

/// [`merge_projects`] over already-inferred `schemas` of `plan`.
pub(crate) fn merge_projects_with(
    plan: &Plan,
    roots: &[NodeId],
    schemas: &[Schema],
) -> (Plan, Vec<NodeId>) {
    // old-id → (old child, mapping) for projects, consulted when the parent
    // project composes over its (old) child
    rebuild(plan, roots, |out, old_id, node| {
        let Node::Project { input, cols } = &node else {
            return Emit::Keep;
        };
        // identity?
        let input_schema = input_schema_of(plan, old_id, schemas);
        if let Some(s) = input_schema {
            let identity = cols.len() == s.len()
                && cols
                    .iter()
                    .zip(s.cols())
                    .all(|((new, old), (name, _))| new == old && new == name);
            if identity {
                return Emit::Forward(*input);
            }
        }
        // compose over a child projection (the child already lives in the
        // new plan — inspect it there)
        if let Node::Project {
            input: grand,
            cols: inner,
        } = out.node(*input)
        {
            let inner: HashMap<&ColName, &ColName> = inner.iter().map(|(n, o)| (n, o)).collect();
            let composed: Option<Vec<(ColName, ColName)>> = cols
                .iter()
                .map(|(new, mid)| inner.get(mid).map(|old| (new.clone(), (*old).clone())))
                .collect();
            if let Some(cols) = composed {
                return Emit::Replace(Node::Project {
                    input: *grand,
                    cols,
                });
            }
        }
        Emit::Keep
    })
}

/// The schema of a single-input node's child, looked up in the *old* plan.
fn input_schema_of<'a>(plan: &Plan, old_id: NodeId, schemas: &'a [Schema]) -> Option<&'a Schema> {
    plan.node(old_id)
        .children()
        .first()
        .map(|c| &schemas[c.index()])
}

// ------------------------------------------------------- constant folding

/// Fold constants inside scalar expressions, remove `Select(true)`, fuse
/// `Select ∘ Select` (conjunction order preserves the guard-then-use
/// evaluation order, so guarded partial expressions stay safe).
pub fn fold_constants(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    rebuild(plan, roots, |out, _, node| match node {
        Node::Select { input, pred } => {
            let pred = simplify(&pred);
            if pred == Expr::Const(Value::Bool(true)) {
                return Emit::Forward(input);
            }
            // fuse with a child select: σ_p2(σ_p1(x)) = σ_(p1 ∧ p2)(x)
            if let Node::Select {
                input: grand,
                pred: inner,
            } = out.node(input)
            {
                let fused = Expr::and(inner.clone(), pred);
                return Emit::Replace(Node::Select {
                    input: *grand,
                    pred: fused,
                });
            }
            Emit::Replace(Node::Select { input, pred })
        }
        Node::Compute { input, col, expr } => {
            let expr = simplify(&expr);
            if let Expr::Const(v) = &expr {
                return Emit::Replace(Node::Attach {
                    input,
                    col,
                    value: v.clone(),
                });
            }
            Emit::Replace(Node::Compute { input, col, expr })
        }
        Node::ThetaJoin { left, right, pred } => Emit::Replace(Node::ThetaJoin {
            left,
            right,
            pred: simplify(&pred),
        }),
        _ => Emit::Keep,
    })
}

/// Conservative expression simplification: never turns a non-erroring
/// expression into an erroring one or vice versa (division by zero etc. is
/// left in place). A parameter is an opaque leaf: its value differs per
/// dispatch, so nothing folds through it.
pub fn simplify(e: &Expr) -> Expr {
    match e {
        Expr::Col(_) | Expr::Const(_) | Expr::Param(..) => e.clone(),
        Expr::Un(UnOp::Not, x) => match simplify(x) {
            Expr::Const(Value::Bool(b)) => Expr::Const(Value::Bool(!b)),
            Expr::Un(UnOp::Not, inner) => (*inner).clone(),
            x => Expr::Un(UnOp::Not, Arc::new(x)),
        },
        Expr::Un(op, x) => Expr::Un(*op, Arc::new(simplify(x))),
        Expr::Case(c, t, f) => match simplify(c) {
            Expr::Const(Value::Bool(true)) => simplify(t),
            Expr::Const(Value::Bool(false)) => simplify(f),
            c => Expr::Case(Arc::new(c), Arc::new(simplify(t)), Arc::new(simplify(f))),
        },
        Expr::Cast(ty, x) => {
            let x = simplify(x);
            if x.infer_ty(&Schema::empty()) == Some(*ty) {
                // cast to the expression's own type — only provable here
                // for constants
                if let Expr::Const(_) = x {
                    return x;
                }
            }
            Expr::Cast(*ty, Arc::new(x))
        }
        Expr::Bin(op, l, r) => {
            let l = simplify(l);
            let r = simplify(r);
            // boolean identities (respecting evaluation order: the left
            // operand is evaluated first, so `true AND x` → `x` is safe,
            // and `false AND x` → `false` matches short-circuiting)
            match (op, &l, &r) {
                (BinOp::And, Expr::Const(Value::Bool(true)), _) => return r,
                (BinOp::And, Expr::Const(Value::Bool(false)), _) => {
                    return Expr::Const(Value::Bool(false))
                }
                (BinOp::Or, Expr::Const(Value::Bool(false)), _) => return r,
                (BinOp::Or, Expr::Const(Value::Bool(true)), _) => {
                    return Expr::Const(Value::Bool(true))
                }
                _ => {}
            }
            if let (Expr::Const(a), Expr::Const(b)) = (&l, &r) {
                if let Some(v) = fold_bin(*op, a, b) {
                    return Expr::Const(v);
                }
            }
            Expr::Bin(*op, Arc::new(l), Arc::new(r))
        }
    }
}

/// Fold a binary operator over two constants; `None` when folding would
/// change error behaviour (overflow, division by zero) or is unsupported.
fn fold_bin(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    use BinOp::*;
    if op.is_cmp() && a.ty() == b.ty() {
        let o = a.cmp(b);
        let r = match op {
            Eq => o.is_eq(),
            Ne => o.is_ne(),
            Lt => o.is_lt(),
            Le => o.is_le(),
            Gt => o.is_gt(),
            Ge => o.is_ge(),
            _ => unreachable!(),
        };
        return Some(Value::Bool(r));
    }
    match (op, a, b) {
        (Add, Value::Int(x), Value::Int(y)) => x.checked_add(*y).map(Value::Int),
        (Sub, Value::Int(x), Value::Int(y)) => x.checked_sub(*y).map(Value::Int),
        (Mul, Value::Int(x), Value::Int(y)) => x.checked_mul(*y).map(Value::Int),
        (Add, Value::Nat(x), Value::Nat(y)) => x.checked_add(*y).map(Value::Nat),
        (Concat, Value::Str(x), Value::Str(y)) => Some(Value::str(format!("{x}{y}"))),
        (Add, Value::Dbl(x), Value::Dbl(y)) => Some(Value::Dbl(x + y)),
        (Sub, Value::Dbl(x), Value::Dbl(y)) => Some(Value::Dbl(x - y)),
        (Mul, Value::Dbl(x), Value::Dbl(y)) => Some(Value::Dbl(x * y)),
        _ => None,
    }
}

// ------------------------------------------------------- join elimination

/// Dissolve the joins whose result the inferred properties
/// ([`crate::props`]) already determine:
///
/// * **a fully known side** — `X × R` / `X ⋈ R` where `R` is one row of
///   constants: `R`'s columns are attached to `X`; an equated column of
///   `X` that is itself constant is compared now (unequal: the empty
///   relation), any other becomes `Select(col = const)`;
/// * **an identity join** — `L ⋈ R` where `L` derives row for row from a
///   node `B`, `R` from a node `X`, `B` is `X` or a join with `X` as an
///   input (so every row of `B` carries one whole row of `X`), and the
///   condition equates a key of `X` with `L`'s copy of those very
///   columns: each left row finds exactly the `X` row it was made from,
///   so the join is one derivation over `B`. Further equated pairs become
///   a residual `Select` over `B`.
///
/// Every replacement has the replaced node's schema and its row order
/// (joins emit in left-probe order: here `X`'s, `B`'s, or — for a one-row
/// left side — the right side's own). Properties are inferred on the plan
/// under construction, so a join over a just-dissolved join is seen as
/// what it has become, in the same sweep.
pub fn join_elimination(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    let mut known = PropTable::default();
    rebuild(plan, roots, |out, _, node| {
        if known.sync(out).is_err() {
            return Emit::Keep;
        }
        let replacement = match &node {
            Node::CrossJoin { left, right } => known_side_join(out, &known, *left, *right, None),
            Node::EquiJoin { left, right, on } => {
                known_side_join(out, &known, *left, *right, Some(on))
                    .or_else(|| identity_join(out, &known, *left, *right, on))
            }
            _ => None,
        };
        replacement.map_or(Emit::Keep, Emit::Forward)
    })
}

/// A cross or equi-join with one side a single row of constants.
fn known_side_join(
    out: &mut Plan,
    known: &PropTable,
    left: NodeId,
    right: NodeId,
    on: Option<&JoinCols>,
) -> Option<NodeId> {
    let (ls, rs) = (known.schema(left), known.schema(right));
    // (the side that stays, its join columns), (the known row, its join columns)
    let no_cols: &[ColName] = &[];
    let (on_l, on_r) = on.map_or((no_cols, no_cols), |on| (&on.left[..], &on.right[..]));
    let (kept, kept_on, row, row_schema, row_on) = if known.props(right).is_one_const_row(rs) {
        (left, on_l, known.props(right), rs, on_r)
    } else if known.props(left).is_one_const_row(ls) {
        (right, on_r, known.props(left), ls, on_l)
    } else {
        return None;
    };
    let value_of = |c: &ColName| row.const_of(c).expect("every column is constant");
    let mut residual = Vec::new();
    for (k, r) in kept_on.iter().zip(row_on) {
        match known.props(kept).const_of(k) {
            Some(v) if v == value_of(r) => {}
            Some(_) => return Some(out.lit(ls.concat(rs), vec![])),
            None => residual.push(Expr::eq(
                Expr::Col(k.clone()),
                Expr::Const(value_of(r).clone()),
            )),
        }
    }
    let mut cur = kept;
    if !residual.is_empty() {
        cur = out.select(cur, and_all(residual));
    }
    for c in row_schema.names() {
        cur = out.attach(cur, c.clone(), value_of(c).clone());
    }
    if kept == right {
        // attached behind the right side's columns: restore left ++ right
        let cols = ls.names().chain(rs.names());
        cur = out.project(cur, cols.map(|n| (n.clone(), n.clone())).collect());
    }
    Some(cur)
}

/// Does every row of `b` carry one whole row of `x`, under `x`'s column
/// names?
fn carries_rows_of(plan: &Plan, b: NodeId, x: NodeId) -> bool {
    b == x
        || match plan.node(b) {
            Node::CrossJoin { left, right }
            | Node::EquiJoin { left, right, .. }
            | Node::ThetaJoin { left, right, .. } => *left == x || *right == x,
            _ => false,
        }
}

/// An equi-join that re-finds, by key, the rows its left side was made
/// from (see [`join_elimination`]).
fn identity_join(
    out: &mut Plan,
    known: &PropTable,
    left: NodeId,
    right: NodeId,
    on: &JoinCols,
) -> Option<NodeId> {
    let l = Lineage::of(out, left, known.schema(left));
    // walk the right side's derivation chain down to a node `l.base` carries
    let mut r = Lineage::identity(right, known.schema(right));
    while !carries_rows_of(out, l.base, r.base) {
        if !r.step(out) {
            return None;
        }
    }
    let mut matched: Vec<ColName> = Vec::new();
    let mut residual = Vec::new();
    for (lc, rc) in on.left.iter().zip(&on.right) {
        match (l.expr_of(lc)?, r.expr_of(rc)?) {
            (Expr::Col(a), Expr::Col(b)) if a == b => matched.push(a.clone()),
            (a, b) if a == b => {}
            (a @ Expr::Const(_), b) => residual.push(Expr::eq(b.clone(), a.clone())),
            (a, b) => residual.push(Expr::eq(a.clone(), b.clone())),
        }
    }
    if !known.props(r.base).has_key_within(&matched) {
        return None;
    }
    let both = Lineage {
        base: l.base,
        cols: l.cols.into_iter().chain(r.cols).collect(),
    };
    let mut over = both.base;
    if !residual.is_empty() {
        over = out.select(over, and_all(residual));
    }
    both.materialize(out, over, known.schema(both.base))
}

// ------------------------------------------------------- column pruning

/// *icols* analysis: compute the columns each operator's output actually
/// contributes to the result, then narrow projections, bypass unused
/// column-producing operators, and pin `UnionAll` inputs to the needed
/// columns.
pub fn prune_columns(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    match infer_schema(plan) {
        Ok(schemas) => prune_columns_with(plan, roots, &schemas),
        Err(_) => (plan.clone(), roots.to_vec()),
    }
}

/// [`prune_columns`] over already-inferred `schemas` of `plan`.
pub(crate) fn prune_columns_with(
    plan: &Plan,
    roots: &[NodeId],
    schemas: &[Schema],
) -> (Plan, Vec<NodeId>) {
    let reachable = live(plan, roots);
    // needed output columns per node (by name)
    let mut needed: Vec<HashSet<ColName>> = vec![HashSet::new(); plan.len()];
    for &r in roots {
        needed[r.index()] = schemas[r.index()].names().cloned().collect();
    }
    for i in (0..plan.len()).rev() {
        if !reachable[i] {
            continue;
        }
        let id = NodeId(i as u32);
        let node = plan.node(id);
        let my: HashSet<ColName> = needed[i].clone();
        let mut demand = |child: NodeId, cols: HashSet<ColName>| {
            needed[child.index()].extend(cols);
        };
        match node {
            Node::TableRef { .. } | Node::Lit { .. } => {}
            Node::Attach { input, col, .. } => {
                let mut n = my.clone();
                n.remove(col);
                demand(*input, n);
            }
            Node::Project { input, cols } => {
                let mut n: HashSet<ColName> = cols
                    .iter()
                    .filter(|(new, _)| my.contains(new))
                    .map(|(_, old)| old.clone())
                    .collect();
                if n.is_empty() {
                    if let Some((_, old)) = cols.first() {
                        // the rewrite keeps the first column when nothing
                        // is demanded — its source must stay alive
                        n.insert(old.clone());
                    }
                }
                demand(*input, n);
            }
            Node::Compute { input, col, expr } => {
                let mut n = my.clone();
                let used = n.remove(col);
                if used {
                    let mut cs = Vec::new();
                    expr.columns(&mut cs);
                    n.extend(cs);
                }
                demand(*input, n);
            }
            Node::Select { input, pred } => {
                let mut n = my.clone();
                let mut cs = Vec::new();
                pred.columns(&mut cs);
                n.extend(cs);
                demand(*input, n);
            }
            Node::Distinct { input } => {
                // duplicate elimination is sensitive to every column
                let all = schemas[input.index()].names().cloned().collect();
                demand(*input, all);
            }
            Node::UnionAll { left, right } => {
                // positional: translate the needed left-names to the right
                let ls = &schemas[left.index()];
                let rs = &schemas[right.index()];
                let mut ln = HashSet::new();
                let mut rn = HashSet::new();
                for (pos, (name, _)) in ls.cols().iter().enumerate() {
                    if my.contains(name) {
                        ln.insert(name.clone());
                        rn.insert(rs.cols()[pos].0.clone());
                    }
                }
                demand(*left, ln);
                demand(*right, rn);
            }
            Node::Difference { left, right } => {
                let all_l: HashSet<ColName> = schemas[left.index()].names().cloned().collect();
                let all_r: HashSet<ColName> = schemas[right.index()].names().cloned().collect();
                demand(*left, all_l);
                demand(*right, all_r);
            }
            Node::CrossJoin { left, right } => {
                let ls = &schemas[left.index()];
                demand(
                    *left,
                    my.iter().filter(|c| ls.contains(c)).cloned().collect(),
                );
                let rs = &schemas[right.index()];
                demand(
                    *right,
                    my.iter().filter(|c| rs.contains(c)).cloned().collect(),
                );
            }
            Node::EquiJoin { left, right, on } => {
                let ls = &schemas[left.index()];
                let mut ln: HashSet<ColName> =
                    my.iter().filter(|c| ls.contains(c)).cloned().collect();
                ln.extend(on.left.iter().cloned());
                demand(*left, ln);
                let rs = &schemas[right.index()];
                let mut rn: HashSet<ColName> =
                    my.iter().filter(|c| rs.contains(c)).cloned().collect();
                rn.extend(on.right.iter().cloned());
                demand(*right, rn);
            }
            Node::SemiJoin { left, right, on } | Node::AntiJoin { left, right, on } => {
                let mut ln = my.clone();
                ln.extend(on.left.iter().cloned());
                demand(*left, ln);
                demand(*right, on.right.iter().cloned().collect());
            }
            Node::ThetaJoin { left, right, pred } => {
                let mut cs = Vec::new();
                pred.columns(&mut cs);
                let ls = &schemas[left.index()];
                let mut ln: HashSet<ColName> =
                    my.iter().filter(|c| ls.contains(c)).cloned().collect();
                ln.extend(cs.iter().filter(|c| ls.contains(c)).cloned());
                demand(*left, ln);
                let rs = &schemas[right.index()];
                let mut rn: HashSet<ColName> =
                    my.iter().filter(|c| rs.contains(c)).cloned().collect();
                rn.extend(cs.iter().filter(|c| rs.contains(c)).cloned());
                demand(*right, rn);
            }
            Node::RowNum {
                input,
                col,
                part,
                order,
            }
            | Node::DenseRank {
                input,
                col,
                part,
                order,
            } => {
                let mut n = my.clone();
                let used = n.remove(col);
                if used {
                    n.extend(part.iter().cloned());
                    n.extend(order.iter().map(|(c, _)| c.clone()));
                }
                demand(*input, n);
            }
            Node::RowRank { input, col, order } => {
                let mut n = my.clone();
                let used = n.remove(col);
                if used {
                    n.extend(order.iter().map(|(c, _)| c.clone()));
                }
                demand(*input, n);
            }
            Node::GroupBy { input, keys, aggs } => {
                let mut n: HashSet<ColName> = keys.iter().cloned().collect();
                for a in aggs {
                    if my.contains(&a.output) {
                        if let Some(i) = &a.input {
                            n.insert(i.clone());
                        }
                    }
                }
                demand(*input, n);
            }
            Node::Serialize { input, order, cols } => {
                let mut n: HashSet<ColName> = cols.iter().cloned().collect();
                n.extend(order.iter().map(|(c, _)| c.clone()));
                demand(*input, n);
            }
        }
    }

    // rewrite using the needed sets
    let root_set: HashSet<NodeId> = roots.iter().copied().collect();
    rebuild(plan, roots, |out, old_id, node| {
        let my = &needed[old_id.index()];
        let emit = match node.clone() {
            Node::Project { input, mut cols } => {
                cols.retain(|(new, _)| my.contains(new));
                if cols.is_empty() {
                    // keep at least one column so the relation keeps its
                    // cardinality
                    let (new, old) = match plan.node(old_id) {
                        Node::Project { cols, .. } => cols[0].clone(),
                        _ => unreachable!(),
                    };
                    cols.push((new, old));
                }
                Emit::Replace(Node::Project { input, cols })
            }
            Node::Attach { input, col, .. } if !my.contains(&col) => Emit::Forward(input),
            Node::Compute { input, col, .. } if !my.contains(&col) => Emit::Forward(input),
            Node::RowNum { input, col, .. } if !my.contains(&col) => Emit::Forward(input),
            Node::RowRank { input, col, .. } if !my.contains(&col) => Emit::Forward(input),
            Node::DenseRank { input, col, .. } if !my.contains(&col) => Emit::Forward(input),
            Node::GroupBy {
                input,
                keys,
                mut aggs,
            } => {
                aggs.retain(|a| my.contains(&a.output));
                Emit::Replace(Node::GroupBy { input, keys, aggs })
            }
            Node::UnionAll { left, right } => {
                // pin both inputs to the needed columns, positionally
                let (old_left, old_right) = match plan.node(old_id) {
                    Node::UnionAll { left, right } => (*left, *right),
                    _ => unreachable!(),
                };
                let ls = &schemas[old_left.index()];
                let rs = &schemas[old_right.index()];
                let keep: Vec<usize> = (0..ls.len())
                    .filter(|&p| my.contains(&ls.cols()[p].0))
                    .collect();
                if keep.len() == ls.len() || keep.is_empty() {
                    Emit::Keep
                } else {
                    let lproj: Vec<(ColName, ColName)> = keep
                        .iter()
                        .map(|&p| (ls.cols()[p].0.clone(), ls.cols()[p].0.clone()))
                        .collect();
                    let rproj: Vec<(ColName, ColName)> = keep
                        .iter()
                        .map(|&p| (rs.cols()[p].0.clone(), rs.cols()[p].0.clone()))
                        .collect();
                    let l2 = out.project(left, lproj);
                    let r2 = out.project(right, rproj);
                    Emit::Replace(Node::UnionAll {
                        left: l2,
                        right: r2,
                    })
                }
            }
            _ => Emit::Keep,
        };
        // narrow over-wide outputs right where they appear: a pruning
        // projection on top stops dead columns from flowing through joins
        if root_set.contains(&old_id) {
            return emit;
        }
        let produced = match emit {
            Emit::Forward(t) => return Emit::Forward(t),
            Emit::Keep => node,
            Emit::Replace(n) => n,
        };
        // recompute the produced node's width from the *original* schema —
        // narrowing below only removed columns outside `my`
        let schema = &schemas[old_id.index()];
        let produced_is_narrow = matches!(
            produced,
            Node::Project { .. } | Node::Serialize { .. } | Node::GroupBy { .. }
        );
        if produced_is_narrow || my.len() >= schema.len() {
            return Emit::Replace(produced);
        }
        let cols: Vec<(ColName, ColName)> = schema
            .names()
            .filter(|n| my.contains(*n))
            .map(|n| (n.clone(), n.clone()))
            .collect();
        if cols.is_empty() {
            return Emit::Replace(produced);
        }
        let id = out.add(produced);
        Emit::Forward(out.project(id, cols))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;
    use ferry_algebra::plan::cn;
    use ferry_algebra::{Dir, Row, Ty};
    use ferry_engine::Database;

    /// `σ(k = key)(t) ⋈_{k = k2} [(1, 'one')]`, plus `w = v + key`.
    fn keyed(key: Expr) -> (Plan, NodeId, NodeId) {
        let mut p = Plan::new();
        let t = p.table(
            "t",
            vec![(cn("k"), Ty::Int), (cn("v"), Ty::Int)],
            vec![cn("k")],
        );
        let sel = p.select(t, Expr::eq(Expr::col("k"), key.clone()));
        let one = p.lit(
            Schema::of(&[("k2", Ty::Int), ("tag", Ty::Str)]),
            vec![vec![Value::Int(1), Value::str("one")]],
        );
        let j = p.equi_join(sel, one, JoinCols::single("k", "k2"));
        let c = p.compute(j, "w", Expr::bin(BinOp::Add, Expr::col("v"), key));
        let cols = ["k", "v", "w", "tag"].map(cn).to_vec();
        let root = p.serialize(c, vec![(cn("v"), Dir::Asc)], cols);
        (p, sel, root)
    }

    fn run(db: &Database, plan: &Plan, root: NodeId) -> Vec<Row> {
        db.snapshot()
            .execute(plan, root)
            .unwrap()
            .rows()
            .into_owned()
    }

    #[test]
    fn a_parameter_is_never_folded_nor_a_known_constant() {
        let param = Expr::Param(0, Ty::Int);
        // no folding through a parameter, where a literal folds
        let cmp = Expr::eq(param.clone(), Expr::lit(3i64));
        assert_eq!(simplify(&cmp), cmp);
        assert_eq!(
            simplify(&Expr::eq(Expr::lit(3i64), Expr::lit(3i64))),
            Expr::lit(true)
        );
        // σ(k = $1) plants no constant; its literal twin does
        let (p, sel, _) = keyed(param.clone());
        assert_eq!(props::infer(&p).unwrap()[sel.index()].const_of("k"), None);
        let (p, sel, _) = keyed(Expr::lit(2i64));
        assert_eq!(
            props::infer(&p).unwrap()[sel.index()].const_of("k"),
            Some(&Value::Int(2))
        );

        // the optimized template, bound, is its optimized literal twin
        let db = Database::new();
        db.create_table(
            "t",
            Schema::of(&[("k", Ty::Int), ("v", Ty::Int)]),
            vec!["k"],
        )
        .unwrap();
        let rows = [(1, 10), (1, 20), (2, 30), (3, 40)];
        db.insert(
            "t",
            rows.iter()
                .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
                .collect(),
        )
        .unwrap();
        let (p, _, root) = keyed(param);
        let (template, roots) = crate::optimize(&p, &[root]);
        assert!(!template.params().is_empty());
        for k in [1i64, 2] {
            let bound = template.bind_params(&[Value::Int(k)]).unwrap();
            let (lp, _, lroot) = keyed(Expr::lit(k));
            let (twin, troots) = crate::optimize(&lp, &[lroot]);
            let got = run(&db, &bound, roots[0]);
            assert_eq!(got, run(&db, &twin, troots[0]), "k = {k}");
            assert_eq!(got.len(), if k == 1 { 2 } else { 0 });
        }
    }
}
