//! The table-algebra plan: a DAG of relational operators.
//!
//! A [`Plan`] owns an arena of [`Node`]s; [`NodeId`]s are indices into the
//! arena. Children always have smaller ids than their parents, so a plain
//! forward scan of the arena is a topological order — both the engine and
//! the optimizer rely on this.

use crate::expr::{AggFun, Expr, ParamError};
use crate::rel::{Rel, Row};
use crate::schema::{ColName, Schema};
use crate::value::{Ty, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Index of a node within a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sort direction for order specifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    Asc,
    Desc,
}

/// One `(column, direction)` entry of an order specification.
pub type SortSpec = (ColName, Dir);

/// Join columns: positionally paired `(left, right)` column lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinCols {
    pub left: Vec<ColName>,
    pub right: Vec<ColName>,
}

impl JoinCols {
    pub fn new(left: Vec<ColName>, right: Vec<ColName>) -> JoinCols {
        assert_eq!(left.len(), right.len(), "join column lists must pair up");
        JoinCols { left, right }
    }

    pub fn single(l: impl Into<ColName>, r: impl Into<ColName>) -> JoinCols {
        JoinCols {
            left: vec![l.into()],
            right: vec![r.into()],
        }
    }
}

/// A table-algebra operator.
///
/// This is the operator set of the Ferry/Pathfinder table algebra (§3.2 of
/// the paper; \[13\]): the usual relational core, plus the row-numbering and
/// ranking operators that make the relational encoding of *list order* and
/// the generation of *surrogate keys* for nested lists possible, plus
/// `Serialize`, which fixes the observable row order of a query bundle
/// member.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Reference to a database-resident base table. `cols` renames the
    /// catalog columns into plan-local names (paired positionally with the
    /// catalog schema); `keys` lists plan-local columns that form a key and
    /// define the table's canonical (alphabetical/key) order.
    TableRef {
        name: String,
        cols: Vec<(ColName, crate::value::Ty)>,
        keys: Vec<ColName>,
    },
    /// A literal table. Every execution of the plan shares its columns
    /// with the plan itself (copy-free `Lit` scans).
    Lit { rel: Rel },
    /// Attach a constant column.
    Attach {
        input: NodeId,
        col: ColName,
        value: Value,
    },
    /// Projection with rename/duplication: output column `new` takes the
    /// value of input column `old`.
    Project {
        input: NodeId,
        cols: Vec<(ColName, ColName)>,
    },
    /// Extend the input with a computed column.
    Compute {
        input: NodeId,
        col: ColName,
        expr: Expr,
    },
    /// Keep rows satisfying a boolean predicate.
    Select { input: NodeId, pred: Expr },
    /// Duplicate elimination over all columns.
    Distinct { input: NodeId },
    /// Bag union (schemas must be union-compatible; left names win).
    UnionAll { left: NodeId, right: NodeId },
    /// Set difference (`EXCEPT`): distinct rows of `left` not in `right`.
    Difference { left: NodeId, right: NodeId },
    /// Cartesian product (schemas must be disjoint).
    CrossJoin { left: NodeId, right: NodeId },
    /// Equi-join on positionally paired columns (schemas disjoint).
    EquiJoin {
        left: NodeId,
        right: NodeId,
        on: JoinCols,
    },
    /// Rows of `left` with at least one equi-match in `right`.
    SemiJoin {
        left: NodeId,
        right: NodeId,
        on: JoinCols,
    },
    /// Rows of `left` with no equi-match in `right`.
    AntiJoin {
        left: NodeId,
        right: NodeId,
        on: JoinCols,
    },
    /// General theta join (schemas disjoint, arbitrary predicate).
    ThetaJoin {
        left: NodeId,
        right: NodeId,
        pred: Expr,
    },
    /// `ROW_NUMBER () OVER (PARTITION BY part ORDER BY order)` into a new
    /// `Nat` column (1-based). The workhorse of the order encoding.
    RowNum {
        input: NodeId,
        col: ColName,
        part: Vec<ColName>,
        order: Vec<SortSpec>,
    },
    /// `RANK () OVER (ORDER BY order)` into a new `Nat` column.
    RowRank {
        input: NodeId,
        col: ColName,
        order: Vec<SortSpec>,
    },
    /// `DENSE_RANK () OVER (PARTITION BY part ORDER BY order)` into a new
    /// `Nat` column. Generates surrogate keys for nested lists.
    DenseRank {
        input: NodeId,
        col: ColName,
        part: Vec<ColName>,
        order: Vec<SortSpec>,
    },
    /// Grouped aggregation. Output schema: `keys ++ aggregate outputs`.
    GroupBy {
        input: NodeId,
        keys: Vec<ColName>,
        aggs: Vec<Aggregate>,
    },
    /// Fix the observable result: project to `cols` and order rows by
    /// `order`. The root of every query in an emitted bundle.
    Serialize {
        input: NodeId,
        order: Vec<SortSpec>,
        cols: Vec<ColName>,
    },
}

/// One aggregate computation of a `GroupBy`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub fun: AggFun,
    /// Input column; `None` only for `CountAll`.
    pub input: Option<ColName>,
    /// Name of the output column.
    pub output: ColName,
}

impl Node {
    /// Child node ids, in evaluation order.
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            Node::TableRef { .. } | Node::Lit { .. } => vec![],
            Node::Attach { input, .. }
            | Node::Project { input, .. }
            | Node::Compute { input, .. }
            | Node::Select { input, .. }
            | Node::Distinct { input }
            | Node::RowNum { input, .. }
            | Node::RowRank { input, .. }
            | Node::DenseRank { input, .. }
            | Node::GroupBy { input, .. }
            | Node::Serialize { input, .. } => vec![*input],
            Node::UnionAll { left, right }
            | Node::Difference { left, right }
            | Node::CrossJoin { left, right }
            | Node::EquiJoin { left, right, .. }
            | Node::SemiJoin { left, right, .. }
            | Node::AntiJoin { left, right, .. }
            | Node::ThetaJoin { left, right, .. } => vec![*left, *right],
        }
    }

    /// Rewrite child ids through `f` (used by the optimizer when splicing).
    pub fn map_children(&mut self, mut f: impl FnMut(NodeId) -> NodeId) {
        match self {
            Node::TableRef { .. } | Node::Lit { .. } => {}
            Node::Attach { input, .. }
            | Node::Project { input, .. }
            | Node::Compute { input, .. }
            | Node::Select { input, .. }
            | Node::Distinct { input }
            | Node::RowNum { input, .. }
            | Node::RowRank { input, .. }
            | Node::DenseRank { input, .. }
            | Node::GroupBy { input, .. }
            | Node::Serialize { input, .. } => *input = f(*input),
            Node::UnionAll { left, right }
            | Node::Difference { left, right }
            | Node::CrossJoin { left, right }
            | Node::EquiJoin { left, right, .. }
            | Node::SemiJoin { left, right, .. }
            | Node::AntiJoin { left, right, .. }
            | Node::ThetaJoin { left, right, .. } => {
                *left = f(*left);
                *right = f(*right);
            }
        }
    }

    /// The scalar expression this operator evaluates, if any.
    fn expr(&self) -> Option<&Expr> {
        match self {
            Node::Compute { expr, .. } => Some(expr),
            Node::Select { pred, .. } | Node::ThetaJoin { pred, .. } => Some(pred),
            _ => None,
        }
    }

    fn expr_mut(&mut self) -> Option<&mut Expr> {
        match self {
            Node::Compute { expr, .. } => Some(expr),
            Node::Select { pred, .. } | Node::ThetaJoin { pred, .. } => Some(pred),
            _ => None,
        }
    }

    /// Short operator mnemonic for printing.
    pub fn label(&self) -> &'static str {
        match self {
            Node::TableRef { .. } => "table",
            Node::Lit { .. } => "lit",
            Node::Attach { .. } => "attach",
            Node::Project { .. } => "project",
            Node::Compute { .. } => "compute",
            Node::Select { .. } => "select",
            Node::Distinct { .. } => "distinct",
            Node::UnionAll { .. } => "union_all",
            Node::Difference { .. } => "difference",
            Node::CrossJoin { .. } => "cross",
            Node::EquiJoin { .. } => "join",
            Node::SemiJoin { .. } => "semijoin",
            Node::AntiJoin { .. } => "antijoin",
            Node::ThetaJoin { .. } => "thetajoin",
            Node::RowNum { .. } => "rownum",
            Node::RowRank { .. } => "rank",
            Node::DenseRank { .. } => "dense_rank",
            Node::GroupBy { .. } => "group_by",
            Node::Serialize { .. } => "serialize",
        }
    }
}

/// A DAG of table-algebra operators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    nodes: Vec<Node>,
}

impl Plan {
    pub fn new() -> Plan {
        Plan::default()
    }

    pub fn add(&mut self, node: Node) -> NodeId {
        debug_assert!(
            node.children().iter().all(|c| c.index() < self.nodes.len()),
            "child id out of range"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Ids of all nodes reachable from `root` (including `root`), ascending.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            stack.extend(self.node(id).children());
        }
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|id| seen[id.index()])
            .collect()
    }

    /// Number of nodes reachable from `root` — the "plan size" metric used
    /// by the optimizer ablation (experiment X1).
    pub fn size_from(&self, root: NodeId) -> usize {
        self.reachable(root).len()
    }

    /// Every parameter occurrence in the arena, as `(slot, type)`, in
    /// node order.
    pub fn params(&self) -> Vec<(u32, Ty)> {
        let mut out = Vec::new();
        for e in self.nodes.iter().filter_map(Node::expr) {
            e.params(&mut out);
        }
        out
    }

    /// Bind a template's parameters: the plan with every `Expr::Param`
    /// replaced by the constant `params[slot]`. The arity is one more
    /// than the highest slot in the arena; any other `params.len()` is
    /// refused, as is a value whose type differs from its slot's — but a
    /// non-negative `Int` binds to a `Nat` slot, the binder's literal
    /// repair. A parameterless plan binds to itself, uncopied.
    pub fn bind_params(&self, params: &[Value]) -> Result<Cow<'_, Plan>, ParamError> {
        let arity = self
            .params()
            .iter()
            .map(|(slot, _)| *slot as usize + 1)
            .max()
            .unwrap_or(0);
        if params.len() != arity {
            return Err(ParamError::Arity {
                expected: arity,
                got: params.len(),
            });
        }
        if arity == 0 {
            return Ok(Cow::Borrowed(self));
        }
        let mut plan = self.clone();
        for e in plan.nodes.iter_mut().filter_map(Node::expr_mut) {
            *e = e.bind_params(params)?;
        }
        Ok(Cow::Owned(plan))
    }

    // ----- builder conveniences (used by the compiler, the SQL binder and
    // ----- by tests; they keep call sites readable) -----

    pub fn lit(&mut self, schema: Schema, rows: Vec<Row>) -> NodeId {
        self.add(Node::Lit {
            rel: Rel::new(schema, rows),
        })
    }

    pub fn table(
        &mut self,
        name: impl Into<String>,
        cols: Vec<(ColName, Ty)>,
        keys: Vec<ColName>,
    ) -> NodeId {
        self.add(Node::TableRef {
            name: name.into(),
            cols,
            keys,
        })
    }

    pub fn attach(&mut self, input: NodeId, col: impl Into<ColName>, value: Value) -> NodeId {
        self.add(Node::Attach {
            input,
            col: col.into(),
            value,
        })
    }

    pub fn project(&mut self, input: NodeId, cols: Vec<(ColName, ColName)>) -> NodeId {
        self.add(Node::Project { input, cols })
    }

    /// Projection keeping columns under their own names.
    pub fn project_keep(&mut self, input: NodeId, cols: &[ColName]) -> NodeId {
        let cols = cols.iter().map(|c| (c.clone(), c.clone())).collect();
        self.add(Node::Project { input, cols })
    }

    pub fn compute(&mut self, input: NodeId, col: impl Into<ColName>, expr: Expr) -> NodeId {
        self.add(Node::Compute {
            input,
            col: col.into(),
            expr,
        })
    }

    pub fn select(&mut self, input: NodeId, pred: Expr) -> NodeId {
        self.add(Node::Select { input, pred })
    }

    pub fn distinct(&mut self, input: NodeId) -> NodeId {
        self.add(Node::Distinct { input })
    }

    pub fn union_all(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(Node::UnionAll { left, right })
    }

    pub fn difference(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(Node::Difference { left, right })
    }

    pub fn cross(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(Node::CrossJoin { left, right })
    }

    pub fn equi_join(&mut self, left: NodeId, right: NodeId, on: JoinCols) -> NodeId {
        self.add(Node::EquiJoin { left, right, on })
    }

    pub fn semi_join(&mut self, left: NodeId, right: NodeId, on: JoinCols) -> NodeId {
        self.add(Node::SemiJoin { left, right, on })
    }

    pub fn anti_join(&mut self, left: NodeId, right: NodeId, on: JoinCols) -> NodeId {
        self.add(Node::AntiJoin { left, right, on })
    }

    pub fn theta_join(&mut self, left: NodeId, right: NodeId, pred: Expr) -> NodeId {
        self.add(Node::ThetaJoin { left, right, pred })
    }

    pub fn rownum(
        &mut self,
        input: NodeId,
        col: impl Into<ColName>,
        part: Vec<ColName>,
        order: Vec<SortSpec>,
    ) -> NodeId {
        self.add(Node::RowNum {
            input,
            col: col.into(),
            part,
            order,
        })
    }

    pub fn dense_rank(
        &mut self,
        input: NodeId,
        col: impl Into<ColName>,
        part: Vec<ColName>,
        order: Vec<SortSpec>,
    ) -> NodeId {
        self.add(Node::DenseRank {
            input,
            col: col.into(),
            part,
            order,
        })
    }

    pub fn group_by(&mut self, input: NodeId, keys: Vec<ColName>, aggs: Vec<Aggregate>) -> NodeId {
        self.add(Node::GroupBy { input, keys, aggs })
    }

    pub fn serialize(&mut self, input: NodeId, order: Vec<SortSpec>, cols: Vec<ColName>) -> NodeId {
        self.add(Node::Serialize { input, order, cols })
    }
}

/// Helper to build `ColName`s in call sites that use `&str`.
pub fn cn(s: &str) -> ColName {
    Arc::from(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn arena_is_topologically_ordered() {
        let mut p = Plan::new();
        let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![vec![Value::Int(1)]]);
        let b = p.attach(a, "y", Value::Int(2));
        let c = p.distinct(b);
        assert!(a < b && b < c);
        assert_eq!(p.node(c).children(), vec![b]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn reachable_follows_dag_sharing() {
        let mut p = Plan::new();
        let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![]);
        let b = p.lit(Schema::of(&[("y", Ty::Int)]), vec![]);
        let j = p.cross(a, b);
        let j2 = p.cross(j, j); // shared child — illegal schema but fine structurally
        let r = p.reachable(j2);
        assert_eq!(r, vec![a, b, j, j2]);
        assert_eq!(p.size_from(j2), 4);
        assert_eq!(p.size_from(a), 1);
        // unreachable node
        let _orphan = p.lit(Schema::of(&[("z", Ty::Int)]), vec![]);
        assert_eq!(p.size_from(j2), 4);
    }

    #[test]
    fn map_children_rewrites() {
        let mut p = Plan::new();
        let a = p.lit(Schema::of(&[("x", Ty::Int)]), vec![]);
        let b = p.lit(Schema::of(&[("y", Ty::Int)]), vec![]);
        let c = p.cross(a, b);
        p.node_mut(c).map_children(|_| a);
        assert_eq!(p.node(c).children(), vec![a, a]);
    }

    #[test]
    #[should_panic]
    fn join_cols_must_pair() {
        let _ = JoinCols::new(vec![cn("a")], vec![]);
    }

    /// `SELECT … WHERE x >= $1 AND n = $2` over `(x Int, n Nat)`.
    fn template() -> (Plan, NodeId) {
        let mut p = Plan::new();
        let t = p.lit(
            Schema::of(&[("x", Ty::Int), ("n", Ty::Nat)]),
            vec![vec![Value::Int(5), Value::Nat(1)]],
        );
        let pred = Expr::and(
            Expr::bin(BinOp::Ge, Expr::col("x"), Expr::Param(0, Ty::Int)),
            Expr::eq(Expr::col("n"), Expr::Param(1, Ty::Nat)),
        );
        let s = p.select(t, pred);
        (p, s)
    }

    #[test]
    fn bind_params_replaces_every_slot_with_a_constant() {
        let (p, s) = template();
        assert_eq!(p.params(), vec![(0, Ty::Int), (1, Ty::Nat)]);
        // an Int >= 0 binds to a Nat slot, as a literal would
        let bound = p.bind_params(&[Value::Int(3), Value::Int(1)]).unwrap();
        assert!(bound.params().is_empty());
        let Node::Select { pred, .. } = bound.node(s) else {
            panic!()
        };
        assert_eq!(pred.to_string(), "((x >= 3) AND (n = @1))");
        // the template itself is untouched
        assert_eq!(p.params().len(), 2);
    }

    #[test]
    fn bind_params_refuses_wrong_arity_and_types() {
        let (p, _) = template();
        assert_eq!(
            p.bind_params(&[Value::Int(3)]).unwrap_err(),
            ParamError::Arity {
                expected: 2,
                got: 1
            }
        );
        assert!(matches!(
            p.bind_params(&[Value::Int(3), Value::Nat(1), Value::Int(0)]),
            Err(ParamError::Arity { .. })
        ));
        assert_eq!(
            p.bind_params(&[Value::str("3"), Value::Nat(1)])
                .unwrap_err(),
            ParamError::Type {
                slot: 0,
                expected: Ty::Int,
                got: Ty::Str
            }
        );
        // a negative Int is no surrogate
        assert!(matches!(
            p.bind_params(&[Value::Int(3), Value::Int(-1)]),
            Err(ParamError::Type { slot: 1, .. })
        ));
    }

    #[test]
    fn parameterless_plans_bind_to_themselves() {
        let mut p = Plan::new();
        p.lit(Schema::of(&[("x", Ty::Int)]), vec![]);
        assert!(matches!(p.bind_params(&[]), Ok(Cow::Borrowed(_))));
        assert!(p.bind_params(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn labels() {
        let mut p = Plan::new();
        let a = p.lit(Schema::empty(), vec![]);
        assert_eq!(p.node(a).label(), "lit");
        let d = p.distinct(a);
        assert_eq!(p.node(d).label(), "distinct");
    }
}
