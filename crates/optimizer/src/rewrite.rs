//! Rebuild-based rewriting infrastructure.
//!
//! All passes share one mechanism: walk the arena in topological (index)
//! order, give the pass a chance to emit a replacement for each node (with
//! children already remapped), and translate the roots. A pass that
//! returns `None` keeps the node as-is (with remapped children).

use ferry_algebra::{infer_node, ColName, Expr, InferError, Node, NodeId, Plan, Schema};
use std::sync::Arc;

/// Outcome of rewriting a single node.
pub enum Emit {
    /// Keep the (child-remapped) node unchanged.
    Keep,
    /// Replace the node with a different one (children must already be
    /// expressed in *new* plan ids).
    Replace(Node),
    /// Forward all references to an existing node of the new plan.
    Forward(NodeId),
}

/// Which arena nodes are reachable from `roots` (indexable by
/// `NodeId::index`).
pub(crate) fn live(plan: &Plan, roots: &[NodeId]) -> Vec<bool> {
    let mut seen = vec![false; plan.len()];
    let mut stack = roots.to_vec();
    while let Some(id) = stack.pop() {
        if !std::mem::replace(&mut seen[id.index()], true) {
            stack.extend(plan.node(id).children());
        }
    }
    seen
}

/// Rebuild `plan` restricted to nodes reachable from `roots`, applying `f`
/// to every node. `f` receives the new plan (so it can add helper nodes)
/// and the candidate node with children already remapped.
pub fn rebuild(
    plan: &Plan,
    roots: &[NodeId],
    mut f: impl FnMut(&mut Plan, NodeId, Node) -> Emit,
) -> (Plan, Vec<NodeId>) {
    let reachable = live(plan, roots);
    let mut out = Plan::new();
    let mut map: Vec<Option<NodeId>> = vec![None; plan.len()];
    for (i, node) in plan.nodes().iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let id = NodeId(i as u32);
        let mut node = node.clone();
        node.map_children(|c| map[c.index()].expect("child remapped before parent"));
        let new_id = match f(&mut out, id, node.clone()) {
            Emit::Keep => out.add(node),
            Emit::Replace(n) => out.add(n),
            Emit::Forward(target) => target,
        };
        map[i] = Some(new_id);
    }
    let new_roots = roots
        .iter()
        .map(|r| map[r.index()].expect("root remapped"))
        .collect();
    (out, new_roots)
}

/// Drop unreachable arena entries (pure copy of the live subgraph).
pub fn gc(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    rebuild(plan, roots, |_, _, _| Emit::Keep)
}

/// Schemas of a plan that is still growing: [`Schemas::sync`] infers only
/// the nodes added since the last call, so a rebuild that consults schemas
/// at every step stays linear in the plan instead of re-inferring a
/// subgraph per question.
#[derive(Default)]
pub(crate) struct Schemas {
    done: Vec<Schema>,
}

impl Schemas {
    /// Extend the table to cover every node of `plan`. A node that fails
    /// inference stays uncovered (and fails again on the next call).
    pub(crate) fn sync(&mut self, plan: &Plan) -> Result<(), InferError> {
        for i in self.done.len()..plan.len() {
            let id = NodeId(i as u32);
            self.done.push(infer_node(id, plan.node(id), &self.done)?);
        }
        Ok(())
    }

    /// Schema of `id`, inferring any nodes `plan` gained since the last
    /// look-up; `None` when inference fails at or before `id`.
    pub(crate) fn of(&mut self, plan: &Plan, id: NodeId) -> Option<&Schema> {
        // a failure past `id` does not matter to this question
        let _ = self.sync(plan);
        self.done.get(id.index())
    }

    /// Nodes covered so far.
    pub(crate) fn len(&self) -> usize {
        self.done.len()
    }

    /// Schema of a node already covered by [`Schemas::sync`].
    pub(crate) fn get(&self, id: NodeId) -> &Schema {
        &self.done[id.index()]
    }
}

/// Replace every column reference in `e` by `f(column)`; `None` as soon as
/// `f` has no answer for a column.
pub(crate) fn map_cols(e: &Expr, f: &impl Fn(&ColName) -> Option<Expr>) -> Option<Expr> {
    Some(match e {
        Expr::Col(c) => f(c)?,
        Expr::Const(_) | Expr::Param(..) => e.clone(),
        Expr::Bin(op, l, r) => Expr::Bin(*op, Arc::new(map_cols(l, f)?), Arc::new(map_cols(r, f)?)),
        Expr::Un(op, x) => Expr::Un(*op, Arc::new(map_cols(x, f)?)),
        Expr::Case(c, t, e) => Expr::Case(
            Arc::new(map_cols(c, f)?),
            Arc::new(map_cols(t, f)?),
            Arc::new(map_cols(e, f)?),
        ),
        Expr::Cast(ty, x) => Expr::Cast(*ty, Arc::new(map_cols(x, f)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferry_algebra::{Schema, Ty, Value};

    #[test]
    fn gc_drops_unreachable_nodes() {
        let mut p = Plan::new();
        let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![]);
        let _orphan = p.lit(Schema::of(&[("y", Ty::Int)]), vec![]);
        let b = p.attach(a, "z", Value::Int(1));
        let (p2, roots) = gc(&p, &[b]);
        assert_eq!(p2.len(), 2);
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn rebuild_can_forward() {
        let mut p = Plan::new();
        let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![]);
        let b = p.distinct(a);
        let c = p.distinct(b);
        // drop every Distinct
        let (p2, roots) = rebuild(&p, &[c], |_, _, node| match node {
            Node::Distinct { input } => Emit::Forward(input),
            _ => Emit::Keep,
        });
        assert_eq!(p2.len(), 1);
        assert!(matches!(p2.node(roots[0]), Node::Lit { .. }));
    }
}
