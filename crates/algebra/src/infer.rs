//! Schema inference and plan validation.
//!
//! Every plan is validated before execution or code generation: the schema
//! of each node is inferred bottom-up, and operator preconditions (column
//! existence, join-name disjointness, union compatibility, expression
//! well-typedness) are checked. A plan that passes [`validate`] cannot fail
//! schema-wise inside the engine.

use crate::expr::AggFun;
use crate::plan::{Node, NodeId, Plan};
use crate::schema::Schema;
use crate::value::Ty;
use std::fmt;

/// A schema-level plan error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferError {
    pub node: NodeId,
    pub message: String,
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {}: {}", self.node.0, self.message)
    }
}

impl std::error::Error for InferError {}

fn err<T>(node: NodeId, message: impl Into<String>) -> Result<T, InferError> {
    Err(InferError {
        node,
        message: message.into(),
    })
}

/// Infer the output schemas of all nodes of `plan` (indexable by
/// `NodeId::index`). Fails with the first precondition violation.
pub fn infer_schema(plan: &Plan) -> Result<Vec<Schema>, InferError> {
    let mut out: Vec<Schema> = Vec::with_capacity(plan.len());
    for (i, node) in plan.nodes().iter().enumerate() {
        let schema = infer_node(NodeId(i as u32), node, &out)?;
        out.push(schema);
    }
    Ok(out)
}

/// Validate a plan rooted at `root`; returns the root schema.
pub fn validate(plan: &Plan, root: NodeId) -> Result<Schema, InferError> {
    let schemas = infer_schema(plan)?;
    Ok(schemas[root.index()].clone())
}

/// Schema of one node, given the schemas of every node before it in the
/// arena (`done[i]` is the schema of `NodeId(i)`); `id` only labels errors.
/// [`infer_schema`] is this in a loop — callers that grow a plan node by
/// node (the optimizer's rebuilds) extend their schema table with it
/// instead of re-inferring the whole arena.
pub fn infer_node(id: NodeId, node: &Node, done: &[Schema]) -> Result<Schema, InferError> {
    let input = |n: NodeId| -> &Schema { &done[n.index()] };
    match node {
        Node::TableRef { cols, keys, name } => {
            let schema = Schema::new(cols.clone());
            for k in keys {
                if !schema.contains(k) {
                    return err(id, format!("key column {k} not in table {name}"));
                }
            }
            if cols.is_empty() {
                return err(id, format!("table {name} has no columns"));
            }
            Ok(schema)
        }
        // a literal's columns are typed by its schema when it is built
        Node::Lit { rel } => Ok(rel.schema.clone()),
        Node::Attach {
            input: i,
            col,
            value,
        } => {
            let s = input(*i);
            if s.contains(col) {
                return err(id, format!("attach: column {col} already present"));
            }
            let mut s = s.clone();
            s.push(col.clone(), value.ty());
            Ok(s)
        }
        Node::Project { input: i, cols } => {
            let s = input(*i);
            let mut out = Vec::with_capacity(cols.len());
            for (new, old) in cols {
                match s.ty_of(old) {
                    Some(t) => out.push((new.clone(), t)),
                    None => return err(id, format!("project: no column {old} in {s}")),
                }
            }
            let mut names: Vec<&str> = out.iter().map(|(n, _)| n.as_ref()).collect();
            names.sort_unstable();
            if names.windows(2).any(|w| w[0] == w[1]) {
                return err(id, "project: duplicate output column names");
            }
            Ok(Schema::new(out))
        }
        Node::Compute {
            input: i,
            col,
            expr,
        } => {
            let s = input(*i);
            if s.contains(col) {
                return err(id, format!("compute: column {col} already present"));
            }
            match expr.infer_ty(s) {
                Some(t) => {
                    let mut s = s.clone();
                    s.push(col.clone(), t);
                    Ok(s)
                }
                None => err(id, format!("compute: ill-typed expression {expr} over {s}")),
            }
        }
        Node::Select { input: i, pred } => {
            let s = input(*i);
            match pred.infer_ty(s) {
                Some(Ty::Bool) => Ok(s.clone()),
                Some(t) => err(id, format!("select: predicate has type {t}, not bool")),
                None => err(id, format!("select: ill-typed predicate {pred} over {s}")),
            }
        }
        Node::Distinct { input: i } => Ok(input(*i).clone()),
        Node::UnionAll { left, right } => {
            let (l, r) = (input(*left), input(*right));
            if !l.union_compatible(r) {
                return err(id, format!("union: incompatible schemas {l} vs {r}"));
            }
            Ok(l.clone())
        }
        Node::Difference { left, right } => {
            let (l, r) = (input(*left), input(*right));
            if !l.union_compatible(r) {
                return err(id, format!("difference: incompatible schemas {l} vs {r}"));
            }
            Ok(l.clone())
        }
        Node::CrossJoin { left, right } => {
            let (l, r) = (input(*left), input(*right));
            if !l.disjoint(r) {
                return err(id, format!("cross: overlapping columns {l} vs {r}"));
            }
            Ok(l.concat(r))
        }
        Node::EquiJoin { left, right, on }
        | Node::SemiJoin { left, right, on }
        | Node::AntiJoin { left, right, on } => {
            let (l, r) = (input(*left), input(*right));
            let semi = !matches!(node, Node::EquiJoin { .. });
            if !semi && !l.disjoint(r) {
                return err(id, format!("join: overlapping columns {l} vs {r}"));
            }
            if on.left.is_empty() {
                return err(id, "join: empty column list");
            }
            for (lc, rc) in on.left.iter().zip(on.right.iter()) {
                match (l.ty_of(lc), r.ty_of(rc)) {
                    (Some(a), Some(b)) if a == b => {}
                    (Some(a), Some(b)) => {
                        return err(
                            id,
                            format!("join: column types differ {lc}:{a} vs {rc}:{b}"),
                        )
                    }
                    (None, _) => return err(id, format!("join: no column {lc} on the left")),
                    (_, None) => return err(id, format!("join: no column {rc} on the right")),
                }
            }
            if semi {
                Ok(l.clone())
            } else {
                Ok(l.concat(r))
            }
        }
        Node::ThetaJoin { left, right, pred } => {
            let (l, r) = (input(*left), input(*right));
            if !l.disjoint(r) {
                return err(id, format!("thetajoin: overlapping columns {l} vs {r}"));
            }
            let joint = l.concat(r);
            match pred.infer_ty(&joint) {
                Some(Ty::Bool) => Ok(joint),
                _ => err(id, format!("thetajoin: ill-typed predicate {pred}")),
            }
        }
        Node::RowNum {
            input: i,
            col,
            part,
            order,
        }
        | Node::DenseRank {
            input: i,
            col,
            part,
            order,
        } => {
            let s = input(*i);
            if s.contains(col) {
                return err(id, format!("rownum/rank: column {col} already present"));
            }
            for p in part {
                if !s.contains(p) {
                    return err(id, format!("rownum/rank: no partition column {p}"));
                }
            }
            for (o, _) in order {
                if !s.contains(o) {
                    return err(id, format!("rownum/rank: no order column {o}"));
                }
            }
            let mut s = s.clone();
            s.push(col.clone(), Ty::Nat);
            Ok(s)
        }
        Node::RowRank {
            input: i,
            col,
            order,
        } => {
            let s = input(*i);
            if s.contains(col) {
                return err(id, format!("rank: column {col} already present"));
            }
            for (o, _) in order {
                if !s.contains(o) {
                    return err(id, format!("rank: no order column {o}"));
                }
            }
            let mut s = s.clone();
            s.push(col.clone(), Ty::Nat);
            Ok(s)
        }
        Node::GroupBy {
            input: i,
            keys,
            aggs,
        } => {
            let s = input(*i);
            let mut out = Vec::new();
            for k in keys {
                match s.ty_of(k) {
                    Some(t) => out.push((k.clone(), t)),
                    None => return err(id, format!("group: no key column {k}")),
                }
            }
            for a in aggs {
                let in_ty = match (&a.input, a.fun) {
                    (None, AggFun::CountAll) => None,
                    (None, f) => return err(id, format!("group: {f:?} needs an input column")),
                    (Some(c), _) => match s.ty_of(c) {
                        Some(t) => Some(t),
                        None => return err(id, format!("group: no input column {c}")),
                    },
                };
                match a.fun.result_ty(in_ty) {
                    Some(t) => out.push((a.output.clone(), t)),
                    None => {
                        return err(
                            id,
                            format!("group: {:?} not applicable to {:?}", a.fun, in_ty),
                        )
                    }
                }
            }
            let mut names: Vec<&str> = out.iter().map(|(n, _)| n.as_ref()).collect();
            names.sort_unstable();
            if names.windows(2).any(|w| w[0] == w[1]) {
                return err(id, "group: duplicate output column names");
            }
            Ok(Schema::new(out))
        }
        Node::Serialize {
            input: i,
            order,
            cols,
        } => {
            let s = input(*i);
            for (o, _) in order {
                if !s.contains(o) {
                    return err(id, format!("serialize: no order column {o}"));
                }
            }
            let mut out = Vec::with_capacity(cols.len());
            for c in cols {
                match s.ty_of(c) {
                    Some(t) => out.push((c.clone(), t)),
                    None => return err(id, format!("serialize: no column {c}")),
                }
            }
            Ok(Schema::new(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::plan::{cn, Aggregate, JoinCols};
    use crate::value::Value;

    fn lit_xy(p: &mut Plan) -> NodeId {
        p.lit(
            Schema::of(&[("x", Ty::Int), ("y", Ty::Str)]),
            vec![vec![Value::Int(1), Value::str("a")]],
        )
    }

    #[test]
    fn attach_compute_select_schemas() {
        let mut p = Plan::new();
        let l = lit_xy(&mut p);
        let a = p.attach(l, "z", Value::Bool(true));
        let c = p.compute(
            a,
            "w",
            Expr::bin(BinOp::Add, Expr::col("x"), Expr::lit(1i64)),
        );
        let s = p.select(c, Expr::col("z"));
        let schema = validate(&p, s).unwrap();
        assert_eq!(
            schema,
            Schema::of(&[
                ("x", Ty::Int),
                ("y", Ty::Str),
                ("z", Ty::Bool),
                ("w", Ty::Int)
            ])
        );
    }

    #[test]
    fn select_requires_bool() {
        let mut p = Plan::new();
        let l = lit_xy(&mut p);
        let s = p.select(l, Expr::col("x"));
        assert!(validate(&p, s).is_err());
    }

    #[test]
    fn join_requires_disjoint_names() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let b = lit_xy(&mut p);
        let j = p.equi_join(a, b, JoinCols::single("x", "x"));
        assert!(validate(&p, j).is_err());
    }

    #[test]
    fn join_schema_concatenates() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let b = p.lit(Schema::of(&[("u", Ty::Int)]), vec![]);
        let j = p.equi_join(a, b, JoinCols::single("x", "u"));
        let s = validate(&p, j).unwrap();
        assert_eq!(
            s,
            Schema::of(&[("x", Ty::Int), ("y", Ty::Str), ("u", Ty::Int)])
        );
        let sj = p.semi_join(a, b, JoinCols::single("x", "u"));
        assert_eq!(
            validate(&p, sj).unwrap(),
            Schema::of(&[("x", Ty::Int), ("y", Ty::Str)])
        );
    }

    #[test]
    fn join_type_mismatch_rejected() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let b = p.lit(Schema::of(&[("u", Ty::Str)]), vec![]);
        let j = p.equi_join(a, b, JoinCols::single("x", "u"));
        assert!(validate(&p, j).is_err());
    }

    #[test]
    fn union_compat_checked() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let b = p.lit(Schema::of(&[("p", Ty::Int), ("q", Ty::Str)]), vec![]);
        let u = p.union_all(a, b);
        let s = validate(&p, u).unwrap();
        assert_eq!(s.index_of("x"), Some(0)); // left names win
        let c = p.lit(Schema::of(&[("p", Ty::Str)]), vec![]);
        let bad = p.union_all(a, c);
        assert!(validate(&p, bad).is_err());
    }

    #[test]
    fn rownum_adds_nat() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let r = p.rownum(a, "pos", vec![], vec![(cn("x"), crate::plan::Dir::Asc)]);
        let s = validate(&p, r).unwrap();
        assert_eq!(s.ty_of("pos"), Some(Ty::Nat));
    }

    #[test]
    fn group_by_schema() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let g = p.group_by(
            a,
            vec![cn("y")],
            vec![
                Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: cn("n"),
                },
                Aggregate {
                    fun: AggFun::Sum,
                    input: Some(cn("x")),
                    output: cn("s"),
                },
            ],
        );
        let s = validate(&p, g).unwrap();
        assert_eq!(
            s,
            Schema::of(&[("y", Ty::Str), ("n", Ty::Int), ("s", Ty::Int)])
        );
    }

    #[test]
    fn group_by_bad_agg_rejected() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let g = p.group_by(
            a,
            vec![],
            vec![Aggregate {
                fun: AggFun::Sum,
                input: Some(cn("y")),
                output: cn("s"),
            }],
        );
        assert!(validate(&p, g).is_err());
    }

    #[test]
    fn serialize_projects() {
        let mut p = Plan::new();
        let a = lit_xy(&mut p);
        let s = p.serialize(a, vec![(cn("x"), crate::plan::Dir::Asc)], vec![cn("y")]);
        assert_eq!(validate(&p, s).unwrap(), Schema::of(&[("y", Ty::Str)]));
    }

    /// A literal's columns are typed by its schema when it is built, so a
    /// mistyped cell is refused there, before any validation.
    #[test]
    #[should_panic(expected = "cell type differs")]
    fn literal_type_mismatch_rejected() {
        Plan::new().lit(Schema::of(&[("x", Ty::Int)]), vec![vec![Value::str("no")]]);
    }
}
