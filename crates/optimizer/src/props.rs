//! Property inference — what can be *proved* about a node's relation from
//! the operators below it.
//!
//! One bottom-up sweep derives, per node:
//!
//! * **constant columns** ([`Props::consts`]) — every row holds the
//!   recorded value (vacuously so in an empty relation);
//! * **exactly one row** ([`Props::one_row`]);
//! * **candidate keys** ([`Props::keys`]) — no two rows agree on all
//!   columns of a key; the empty key says "at most one row";
//! * **lineage** ([`Lineage`], derived on demand) — the node as a
//!   row-preserving derivation of an ancestor: same rows, same order, each
//!   output column an expression over the ancestor's columns
//!   (`Expr::Col` when it is an unchanged copy).
//!
//! | operator | constants | one row | keys |
//! |---|---|---|---|
//! | `TableRef` | — | — | **none** (see below) |
//! | `Lit` (1 row / 0 rows) | its values / — | yes / — | `∅` |
//! | `Attach` | + the new column | kept | kept |
//! | `Compute` | + the column, if its inputs are constant and it folds | kept | kept |
//! | `Project`, `Serialize` | of retained columns | kept | those fully retained |
//! | `Select` | + `col = lit` conjuncts (a parameter is no literal) | lost (`∅` key stays) | kept |
//! | `Distinct` | kept | kept | + all columns |
//! | `RowNum` | kept; `@1` over ≤ 1 row | kept | + `part ∪ {col}` |
//! | `RowRank`, `DenseRank` | kept; `@1` over ≤ 1 row | kept | kept |
//! | `GroupBy` | constant group keys | kept | the group keys |
//! | `CrossJoin`, `ThetaJoin` | both sides | both (cross only) | left key ∪ right key |
//! | `EquiJoin` | both sides, carried across equated pairs | both, on equal constants | left key ∪ the right key's *un-equated* columns, and vice versa — a side's key survives whole when the other side is matched on a key |
//! | `SemiJoin`, `AntiJoin`, `Difference` | left | lost | left (`Difference`: + all columns) |
//! | `UnionAll` | where both sides agree | lost | destroyed |
//!
//! Keys come **only from operators that construct uniqueness**. The
//! `keys` a `TableRef` declares are the catalog's word, not a fact: the
//! engine does not enforce them on insert, so a table may hold two rows
//! with one "key" value, and a rewrite that trusted the declaration would
//! drop or duplicate rows. Every key column that turns out constant is
//! dropped from its key (it cannot tell rows apart), which is how
//! `RowNum part [iter]` over a one-iteration loop becomes a single-column
//! key.

use crate::joins::conjuncts;
use crate::passes::simplify;
use crate::rewrite::{map_cols, Schemas};
use ferry_algebra::{
    BinOp, ColName, Expr, InferError, JoinCols, Node, NodeId, Plan, Schema, Value,
};
use std::sync::Arc;

/// Candidate keys tracked per node; joins multiply key sets, and the
/// rewrites only ever ask for one small key.
const MAX_KEYS: usize = 4;

/// Proven properties of one node's output relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Props {
    /// Columns holding the same value in every row, with that value.
    pub consts: Vec<(ColName, Value)>,
    /// The relation has exactly one row.
    pub one_row: bool,
    /// Candidate keys, each sorted, none containing another, constant
    /// columns removed. `[[]]` (the empty key) means at most one row.
    pub keys: Vec<Vec<ColName>>,
}

impl Props {
    /// The value `col` holds in every row, if that is proven.
    pub fn const_of(&self, col: &str) -> Option<&Value> {
        self.consts
            .iter()
            .find(|(c, _)| c.as_ref() == col)
            .map(|(_, v)| v)
    }

    /// Is some candidate key contained in `cols`? (Then `cols` determine
    /// the row.)
    pub fn has_key_within(&self, cols: &[ColName]) -> bool {
        self.keys.iter().any(|k| k.iter().all(|c| cols.contains(c)))
    }

    /// Exactly one row, every column constant: the relation is known in
    /// full.
    pub fn is_one_const_row(&self, schema: &Schema) -> bool {
        self.one_row && schema.names().all(|n| self.const_of(n).is_some())
    }

    fn at_most_one_row(&self) -> bool {
        self.keys.iter().any(|k| k.is_empty())
    }

    /// Restore the invariants documented on [`Props::keys`].
    fn normalized(mut self) -> Props {
        if self.one_row {
            self.keys = vec![vec![]];
            return self;
        }
        let mut keys = std::mem::take(&mut self.keys);
        for k in &mut keys {
            k.retain(|c| self.const_of(c).is_none());
            k.sort();
            k.dedup();
        }
        keys.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        for k in keys {
            let implied = self.keys.iter().any(|s| s.iter().all(|c| k.contains(c)));
            if !implied && self.keys.len() < MAX_KEYS {
                self.keys.push(k);
            }
        }
        self
    }
}

/// Properties of every node of `plan`, indexable by `NodeId::index`.
pub fn infer(plan: &Plan) -> Result<Vec<Props>, InferError> {
    let mut table = PropTable::default();
    table.sync(plan)?;
    Ok(table.props)
}

/// Properties (and schemas) of a plan that is still growing: the one
/// linear sweep, resumable, so a rebuild sees the properties of the nodes
/// it has just emitted without re-inferring anything.
#[derive(Default)]
pub(crate) struct PropTable {
    schemas: Schemas,
    props: Vec<Props>,
}

impl PropTable {
    /// Cover the nodes `plan` gained since the last call.
    pub(crate) fn sync(&mut self, plan: &Plan) -> Result<(), InferError> {
        let inferred = self.schemas.sync(plan);
        for i in self.props.len()..self.schemas.len() {
            let p = derive(plan.node(NodeId(i as u32)), &self.schemas, &self.props);
            self.props.push(p.normalized());
        }
        inferred
    }

    pub(crate) fn props(&self, id: NodeId) -> &Props {
        &self.props[id.index()]
    }

    pub(crate) fn schema(&self, id: NodeId) -> &Schema {
        self.schemas.get(id)
    }
}

/// Every pairing of a left key with a right key keys the product.
fn product_keys(l: &Props, r: &Props) -> Vec<Vec<ColName>> {
    let mut out = Vec::new();
    for kl in &l.keys {
        for kr in &r.keys {
            out.push(kl.iter().chain(kr).cloned().collect());
        }
    }
    out
}

/// The constant `e` evaluates to when every column it reads is constant.
fn const_value(e: &Expr, input: &Props) -> Option<Value> {
    let folded = map_cols(e, &|c| input.const_of(c).cloned().map(Expr::Const))?;
    match simplify(&folded) {
        Expr::Const(v) => Some(v),
        _ => None,
    }
}

/// Keys (and constants) that survive a rename/narrowing to `cols`
/// (`(new, old)` pairs).
fn projected(input: &Props, cols: &[(ColName, ColName)]) -> Props {
    let new_name = |old: &ColName| cols.iter().find(|(_, o)| o == old).map(|(n, _)| n.clone());
    Props {
        consts: cols
            .iter()
            .filter_map(|(new, old)| Some((new.clone(), input.const_of(old)?.clone())))
            .collect(),
        one_row: input.one_row,
        keys: input
            .keys
            .iter()
            .filter_map(|k| k.iter().map(new_name).collect())
            .collect(),
    }
}

fn derive(node: &Node, schemas: &Schemas, props: &[Props]) -> Props {
    let p = |id: &NodeId| &props[id.index()];
    let names = |id: &NodeId| schemas.get(*id).names().cloned().collect::<Vec<_>>();
    // a window function over at most one row numbers it 1
    let windowed = |input: &NodeId, col: &ColName| {
        let mut out = p(input).clone();
        if out.at_most_one_row() {
            out.consts.push((col.clone(), Value::Nat(1)));
        }
        out
    };
    match node {
        Node::TableRef { .. } => Props::default(),
        Node::Lit { rel } => match rel.len() {
            0 => Props {
                keys: vec![vec![]],
                ..Props::default()
            },
            1 => Props {
                consts: rel.schema.names().cloned().zip(rel.row(0)).collect(),
                one_row: true,
                keys: vec![],
            },
            _ => Props::default(),
        },
        Node::Attach { input, col, value } => {
            let mut out = p(input).clone();
            out.consts.push((col.clone(), value.clone()));
            out
        }
        Node::Project { input, cols } => projected(p(input), cols),
        Node::Serialize { input, cols, .. } => {
            let keep: Vec<_> = cols.iter().map(|c| (c.clone(), c.clone())).collect();
            projected(p(input), &keep)
        }
        Node::Compute { input, col, expr } => {
            let mut out = p(input).clone();
            if let Some(v) = const_value(expr, &out) {
                out.consts.push((col.clone(), v));
            }
            out
        }
        Node::Select { input, pred } => {
            let mut out = p(input).clone();
            out.one_row = false;
            let mut cs = Vec::new();
            conjuncts(pred, &mut cs);
            for conjunct in cs {
                let Expr::Bin(BinOp::Eq, l, r) = conjunct else {
                    continue;
                };
                if let (Expr::Col(c), Expr::Const(v)) | (Expr::Const(v), Expr::Col(c)) =
                    (l.as_ref(), r.as_ref())
                {
                    if out.const_of(c).is_none() {
                        out.consts.push((c.clone(), v.clone()));
                    }
                }
            }
            out
        }
        Node::Distinct { input } => {
            let mut out = p(input).clone();
            out.keys.push(names(input));
            out
        }
        Node::UnionAll { left, right } => {
            let (l, r) = (p(left), p(right));
            let agreed = schemas
                .get(*left)
                .names()
                .zip(schemas.get(*right).names())
                .filter_map(|(ln, rn)| {
                    let v = l.const_of(ln)?;
                    (r.const_of(rn) == Some(v)).then(|| (ln.clone(), v.clone()))
                });
            Props {
                consts: agreed.collect(),
                ..Props::default()
            }
        }
        Node::Difference { left, .. } => {
            let mut out = p(left).clone();
            out.one_row = false;
            out.keys.push(names(left));
            out
        }
        Node::SemiJoin { left, .. } | Node::AntiJoin { left, .. } => {
            let mut out = p(left).clone();
            out.one_row = false;
            out
        }
        Node::CrossJoin { left, right } | Node::ThetaJoin { left, right, .. } => {
            let (l, r) = (p(left), p(right));
            Props {
                consts: l.consts.iter().chain(&r.consts).cloned().collect(),
                one_row: matches!(node, Node::CrossJoin { .. }) && l.one_row && r.one_row,
                keys: product_keys(l, r),
            }
        }
        Node::EquiJoin { left, right, on } => equi_join(p(left), p(right), on),
        Node::RowNum {
            input, col, part, ..
        } => {
            let mut out = windowed(input, col);
            out.keys.push(part.iter().chain([col]).cloned().collect());
            out
        }
        Node::RowRank { input, col, .. } | Node::DenseRank { input, col, .. } => {
            windowed(input, col)
        }
        Node::GroupBy { input, keys, .. } => {
            let i = p(input);
            Props {
                consts: keys
                    .iter()
                    .filter_map(|k| Some((k.clone(), i.const_of(k)?.clone())))
                    .collect(),
                // one input row is one group; no input row may be none
                one_row: i.one_row,
                keys: vec![keys.clone()],
            }
        }
    }
}

fn equi_join(l: &Props, r: &Props, on: &JoinCols) -> Props {
    let mut consts: Vec<_> = l.consts.iter().chain(&r.consts).cloned().collect();
    let mut all_equal = true;
    for (lc, rc) in on.left.iter().zip(&on.right) {
        let (lv, rv) = (l.const_of(lc), r.const_of(rc));
        all_equal &= lv.is_some() && lv == rv;
        // an equated column takes the other side's constant
        match (lv, rv) {
            (Some(v), None) => consts.push((rc.clone(), v.clone())),
            (None, Some(v)) => consts.push((lc.clone(), v.clone())),
            _ => {}
        }
    }
    // a key of one side fixes that side's row, hence its join columns,
    // hence the other side's: of the other side's key only the columns
    // the condition does not equate are still needed (none, when the
    // other side is matched on a whole key)
    let mut keys = Vec::new();
    for kl in &l.keys {
        for kr in &r.keys {
            let rest_r = kr.iter().filter(|c| !on.right.contains(c));
            keys.push(kl.iter().chain(rest_r).cloned().collect());
            let rest_l = kl.iter().filter(|c| !on.left.contains(c));
            keys.push(kr.iter().chain(rest_l).cloned().collect());
        }
    }
    Props {
        consts,
        one_row: l.one_row && r.one_row && all_equal,
        keys,
    }
}

/// A node seen as a row-preserving column derivation of an ancestor
/// (`base`): the same rows in the same order, every output column an
/// expression over `base`'s columns — `Expr::Col` for an unchanged copy,
/// `Expr::Const` for an attached constant, anything else for a computed
/// column. `Project`, `Attach` and `Compute` are the operators a
/// derivation steps through.
#[derive(Debug, Clone, PartialEq)]
pub struct Lineage {
    pub base: NodeId,
    /// Output columns in schema order.
    pub cols: Vec<(ColName, Expr)>,
}

impl Lineage {
    /// `id` as the trivial derivation of itself.
    pub fn identity(id: NodeId, schema: &Schema) -> Lineage {
        Lineage {
            base: id,
            cols: schema
                .names()
                .map(|n| (n.clone(), Expr::Col(n.clone())))
                .collect(),
        }
    }

    /// `id` traced down to the first node that is not a derivation step.
    pub fn of(plan: &Plan, id: NodeId, schema: &Schema) -> Lineage {
        let mut l = Lineage::identity(id, schema);
        while l.step(plan) {}
        l
    }

    /// Re-express the columns over `base`'s input, when `base` is a
    /// `Project`/`Attach`/`Compute`; `false` (and no change) otherwise.
    pub fn step(&mut self, plan: &Plan) -> bool {
        let (input, over_input): (NodeId, Option<Vec<_>>) = match plan.node(self.base) {
            Node::Project { input, cols } => (
                *input,
                self.rewritten(|c| {
                    let (_, old) = cols.iter().find(|(new, _)| new == c)?;
                    Some(Expr::Col(old.clone()))
                }),
            ),
            Node::Attach { input, col, value } => (
                *input,
                self.rewritten(|c| {
                    Some(if c == col {
                        Expr::Const(value.clone())
                    } else {
                        Expr::Col(c.clone())
                    })
                }),
            ),
            Node::Compute { input, col, expr } => (
                *input,
                self.rewritten(|c| {
                    Some(if c == col {
                        expr.clone()
                    } else {
                        Expr::Col(c.clone())
                    })
                }),
            ),
            _ => return false,
        };
        let Some(cols) = over_input else {
            return false;
        };
        self.base = input;
        self.cols = cols;
        true
    }

    fn rewritten(&self, f: impl Fn(&ColName) -> Option<Expr>) -> Option<Vec<(ColName, Expr)>> {
        self.cols
            .iter()
            .map(|(n, e)| Some((n.clone(), map_cols(e, &f)?)))
            .collect()
    }

    pub fn expr_of(&self, col: &str) -> Option<&Expr> {
        self.cols
            .iter()
            .find(|(c, _)| c.as_ref() == col)
            .map(|(_, e)| e)
    }

    /// Build the derivation over `over` — `base`, or a node with `base`'s
    /// rows and at least its columns (`over_schema` is its schema): one
    /// `Attach`/`Compute` per distinct non-copy expression, then the
    /// `Project` that fixes names and order. `None` if a scratch column
    /// name is already taken.
    pub fn materialize(
        &self,
        out: &mut Plan,
        over: NodeId,
        over_schema: &Schema,
    ) -> Option<NodeId> {
        let salt = out.len();
        let mut scratch: Vec<(&Expr, ColName)> = Vec::new();
        let mut cur = over;
        let mut project = Vec::with_capacity(self.cols.len());
        for (name, e) in &self.cols {
            let source = match e {
                Expr::Col(c) => c.clone(),
                e => match scratch.iter().find(|(seen, _)| *seen == e) {
                    Some((_, tmp)) => tmp.clone(),
                    None => {
                        let tmp: ColName = Arc::from(format!("__je{salt}_{}", scratch.len()));
                        if over_schema.contains(&tmp) {
                            return None;
                        }
                        cur = match e {
                            Expr::Const(v) => out.attach(cur, tmp.clone(), v.clone()),
                            e => out.compute(cur, tmp.clone(), e.clone()),
                        };
                        scratch.push((e, tmp.clone()));
                        tmp
                    }
                },
            };
            project.push((name.clone(), source));
        }
        Some(out.project(cur, project))
    }
}
