//! Plan pretty-printing: an indented tree rendering (shared subtrees are
//! printed once and referenced by id) and Graphviz dot output.

use crate::plan::{Dir, Node, NodeId, Plan};
use std::collections::HashMap;
use std::fmt::Write;

fn dir(d: Dir) -> &'static str {
    match d {
        Dir::Asc => "asc",
        Dir::Desc => "desc",
    }
}

/// Operator details beyond the mnemonic label.
pub fn node_detail(node: &Node) -> String {
    match node {
        Node::TableRef { name, cols, keys } => {
            let cs: Vec<String> = cols.iter().map(|(n, t)| format!("{n}:{t}")).collect();
            let ks: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
            format!("{name} ({}) key [{}]", cs.join(", "), ks.join(", "))
        }
        Node::Lit { rel } => format!("{} × {} rows", rel.schema, rel.len()),
        Node::Attach { col, value, .. } => format!("{col} := {value}"),
        Node::Project { cols, .. } => {
            let cs: Vec<String> = cols
                .iter()
                .map(|(new, old)| {
                    if new == old {
                        new.to_string()
                    } else {
                        format!("{new}:{old}")
                    }
                })
                .collect();
            cs.join(", ")
        }
        Node::Compute { col, expr, .. } => format!("{col} := {expr}"),
        Node::Select { pred, .. } => pred.to_string(),
        Node::Distinct { .. } => String::new(),
        Node::UnionAll { .. } | Node::Difference { .. } | Node::CrossJoin { .. } => String::new(),
        Node::EquiJoin { on, .. } | Node::SemiJoin { on, .. } | Node::AntiJoin { on, .. } => {
            let eqs: Vec<String> = on
                .left
                .iter()
                .zip(on.right.iter())
                .map(|(l, r)| format!("{l}={r}"))
                .collect();
            eqs.join(" and ")
        }
        Node::ThetaJoin { pred, .. } => pred.to_string(),
        Node::RowNum {
            col, part, order, ..
        }
        | Node::DenseRank {
            col, part, order, ..
        } => {
            let ps: Vec<String> = part.iter().map(|p| p.to_string()).collect();
            let os: Vec<String> = order
                .iter()
                .map(|(c, d)| format!("{c} {}", dir(*d)))
                .collect();
            format!("{col} part [{}] order [{}]", ps.join(", "), os.join(", "))
        }
        Node::RowRank { col, order, .. } => {
            let os: Vec<String> = order
                .iter()
                .map(|(c, d)| format!("{c} {}", dir(*d)))
                .collect();
            format!("{col} order [{}]", os.join(", "))
        }
        Node::GroupBy { keys, aggs, .. } => {
            let ks: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
            let as_: Vec<String> = aggs
                .iter()
                .map(|a| {
                    format!(
                        "{}:{}({})",
                        a.output,
                        a.fun.sql(),
                        a.input.as_deref().unwrap_or("*")
                    )
                })
                .collect();
            format!("keys [{}] aggs [{}]", ks.join(", "), as_.join(", "))
        }
        Node::Serialize { order, cols, .. } => {
            let os: Vec<String> = order
                .iter()
                .map(|(c, d)| format!("{c} {}", dir(*d)))
                .collect();
            let cs: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            format!("order [{}] cols [{}]", os.join(", "), cs.join(", "))
        }
    }
}

/// Render the plan rooted at `root` as an indented tree. Shared nodes are
/// expanded the first time they are met and referenced as `^id` afterwards.
pub fn render(plan: &Plan, root: NodeId) -> String {
    // count references to detect sharing
    let mut refs: HashMap<NodeId, usize> = HashMap::new();
    for id in plan.reachable(root) {
        for c in plan.node(id).children() {
            *refs.entry(c).or_insert(0) += 1;
        }
    }
    let mut out = String::new();
    let mut printed: HashMap<NodeId, ()> = HashMap::new();
    fn go(
        plan: &Plan,
        id: NodeId,
        depth: usize,
        refs: &HashMap<NodeId, usize>,
        printed: &mut HashMap<NodeId, ()>,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth);
        let node = plan.node(id);
        let shared = refs.get(&id).copied().unwrap_or(0) > 1;
        if shared && printed.contains_key(&id) {
            let _ = writeln!(out, "{pad}^{}", id.0);
            return;
        }
        let detail = node_detail(node);
        let tag = if shared {
            format!(" #{}", id.0)
        } else {
            String::new()
        };
        if detail.is_empty() {
            let _ = writeln!(out, "{pad}{}{tag}", node.label());
        } else {
            let _ = writeln!(out, "{pad}{} {detail}{tag}", node.label());
        }
        printed.insert(id, ());
        for c in node.children() {
            go(plan, c, depth + 1, refs, printed, out);
        }
    }
    go(plan, root, 0, &refs, &mut printed, &mut out);
    out
}

/// Graphviz dot rendering of the DAG reachable from `root`.
pub fn dot(plan: &Plan, root: NodeId) -> String {
    let mut out = String::from("digraph plan {\n  node [shape=box, fontname=monospace];\n");
    for id in plan.reachable(root) {
        let node = plan.node(id);
        let detail = node_detail(node).replace('"', "'");
        let _ = writeln!(
            out,
            "  n{} [label=\"{} {}\\n{}\"];",
            id.0,
            id.0,
            node.label(),
            detail
        );
        for c in node.children() {
            let _ = writeln!(out, "  n{} -> n{};", id.0, c.0);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{Ty, Value};

    #[test]
    fn render_marks_shared_nodes() {
        let mut p = Plan::new();
        let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![]);
        let b = p.attach(a, "y", Value::Int(1));
        let c = p.lit(Schema::of(&[("z", Ty::Int)]), vec![]);
        let d = p.cross(b, c);
        let e = p.union_all(d, d);
        let txt = render(&p, e);
        assert!(txt.contains("union_all"));
        assert!(txt.contains(&format!("#{}", d.0)), "{txt}");
        assert!(txt.contains(&format!("^{}", d.0)), "{txt}");
    }

    #[test]
    fn dot_contains_all_edges() {
        let mut p = Plan::new();
        let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![]);
        let b = p.distinct(a);
        let g = dot(&p, b);
        assert!(g.contains(&format!("n{} -> n{};", b.0, a.0)));
        assert!(g.starts_with("digraph"));
    }
}
