//! Lowering parsed SQL to table-algebra plans.
//!
//! The binder resolves names against the database catalog and the CTE
//! environment, extracts equi-join conjuncts from `WHERE` clauses (so the
//! engine gets hash joins instead of filtered cross products), lowers
//! window functions and grouped aggregation to their algebra operators,
//! and repairs literal types against the `_nat`-suffix convention of the
//! generated dialect.
//!
//! A statement parameter `$n` becomes `Expr::Param(n - 1, ty)`. Its type
//! comes from the other operand of the binary operator it meets, or from
//! the `CAST` around it; anywhere else it is a bind error. Every slot
//! `$1..$max` must occur, so a statement's arity is bounded by its text.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::ast::*;
use crate::SqlError;
use ferry_algebra::{
    plan::Aggregate, AggFun, BinOp as ABinOp, ColName, Dir, Expr as AExpr, JoinCols, NodeId, Plan,
    Schema, Ty, UnOp, Value,
};
use ferry_engine::Snapshot;
use std::collections::HashMap;
use std::sync::Arc;

/// Bind a parsed statement against one pinned catalog version. Returns
/// the plan and its root.
pub fn bind(db: &Snapshot<'_>, stmt: &Statement) -> Result<(Plan, NodeId), SqlError> {
    let mut b = Binder {
        db,
        plan: Plan::new(),
        ctes: HashMap::new(),
        next: 0,
    };
    for cte in &stmt.ctes {
        let (node, schema) = b.bind_set(&cte.body)?;
        let (node, schema) = if cte.columns.is_empty() {
            (node, schema)
        } else {
            if cte.columns.len() != schema.len() {
                return Err(SqlError::Bind(format!(
                    "CTE {} declares {} columns, query produces {}",
                    cte.name,
                    cte.columns.len(),
                    schema.len()
                )));
            }
            let cols: Vec<(ColName, ColName)> = cte
                .columns
                .iter()
                .zip(schema.cols())
                .map(|(new, (old, _))| (Arc::from(new.as_str()), old.clone()))
                .collect();
            let renamed = b.plan.project(node, cols);
            let schema = Schema::new(
                cte.columns
                    .iter()
                    .zip(schema.cols())
                    .map(|(new, (_, t))| (Arc::from(new.as_str()), *t))
                    .collect(),
            );
            (renamed, schema)
        };
        b.ctes.insert(cte.name.clone(), (node, schema));
    }
    let (node, schema) = b.bind_set(&stmt.body)?;
    // final observable order
    let order: Vec<(ColName, Dir)> = stmt
        .order_by
        .iter()
        .map(|o| {
            let col = match &o.expr {
                SqlExpr::Column { name, .. } => name.clone(),
                e => return Err(SqlError::Bind(format!("ORDER BY expects a column: {e:?}"))),
            };
            let c: ColName = Arc::from(col.as_str());
            if !schema.contains(&c) {
                return Err(SqlError::Bind(format!("ORDER BY unknown column {c}")));
            }
            Ok((c, if o.desc { Dir::Desc } else { Dir::Asc }))
        })
        .collect::<Result<_, _>>()?;
    let cols: Vec<ColName> = schema.names().cloned().collect();
    let root = b.plan.serialize(node, order, cols);
    check_param_slots(&b.plan)?;
    Ok((b.plan, root))
}

/// Refuse a gap in the parameter numbering (`$1` and `$3` without `$2`).
fn check_param_slots(plan: &Plan) -> Result<(), SqlError> {
    let mut slots: Vec<u32> = plan.params().into_iter().map(|(s, _)| s).collect();
    slots.sort_unstable();
    slots.dedup();
    match (slots.iter().zip(0..).find(|(s, i)| *s != i), slots.last()) {
        (Some((_, missing)), Some(&last)) => Err(SqlError::Bind(format!(
            "parameter ${} is never used, but ${} is",
            missing + 1,
            last as u64 + 1
        ))),
        _ => Ok(()),
    }
}

struct Binder<'a> {
    db: &'a Snapshot<'a>,
    plan: Plan,
    ctes: HashMap<String, (NodeId, Schema)>,
    next: u32,
}

/// One in-scope FROM item: alias plus its output schema (columns already
/// prefixed `alias.col` in the plan).
struct Scope {
    items: Vec<(String, Schema)>,
}

impl Scope {
    /// Resolve a possibly-qualified column to its plan-level name.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(ColName, Ty), SqlError> {
        let mut hits = Vec::new();
        for (alias, schema) in &self.items {
            if let Some(q) = qualifier {
                if q != alias {
                    continue;
                }
            }
            if let Some(t) = schema.ty_of(&format!("{alias}.{name}")) {
                hits.push((Arc::from(format!("{alias}.{name}").as_str()), t));
            }
        }
        match (hits.pop(), hits.is_empty()) {
            (Some(hit), true) => Ok(hit),
            (None, _) => Err(SqlError::Bind(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            _ => Err(SqlError::Bind(format!("ambiguous column {name}"))),
        }
    }
}

impl<'a> Binder<'a> {
    fn fresh(&mut self, base: &str) -> ColName {
        let n = self.next;
        self.next += 1;
        Arc::from(format!("__{base}{n}"))
    }

    fn bind_set(&mut self, e: &SetExpr) -> Result<(NodeId, Schema), SqlError> {
        match e {
            SetExpr::Select(s) => self.bind_select(s),
            SetExpr::UnionAll(l, r) | SetExpr::Except(l, r) => {
                let (ln, ls) = self.bind_set(l)?;
                let (rn, rs) = self.bind_set(r)?;
                if !ls.union_compatible(&rs) {
                    return Err(SqlError::Bind(format!(
                        "set operands are not union compatible: {ls} vs {rs}"
                    )));
                }
                let node = match e {
                    SetExpr::UnionAll(..) => self.plan.union_all(ln, rn),
                    _ => self.plan.difference(ln, rn),
                };
                Ok((node, ls))
            }
        }
    }

    /// Materialise one FROM item, projecting its columns to `alias.col`.
    fn bind_from_item(&mut self, item: &FromItem) -> Result<(String, NodeId, Schema), SqlError> {
        let (alias, node, schema) = match item {
            FromItem::Named { name, alias } => {
                if let Some((node, schema)) = self.ctes.get(name).cloned() {
                    (alias.clone(), node, schema)
                } else if let Some(t) = self.db.table(name) {
                    let cols: Vec<(ColName, Ty)> = t.schema.cols().to_vec();
                    let keys: Vec<ColName> = t.keys.iter().map(|k| Arc::from(k.as_str())).collect();
                    let node = self.plan.table(name.clone(), cols.clone(), keys);
                    (alias.clone(), node, Schema::new(cols))
                } else if let Some((schema, keys)) = self.db.database().system_table_info(name) {
                    // system tables (`ferry.*`) bind like base tables; the
                    // executor resolves them with the same catalog-first
                    // shadowing this arm order encodes
                    let cols: Vec<(ColName, Ty)> = schema.cols().to_vec();
                    let keys: Vec<ColName> = keys.iter().map(|k| Arc::from(k.as_str())).collect();
                    let node = self.plan.table(name.clone(), cols.clone(), keys);
                    (alias.clone(), node, Schema::new(cols))
                } else {
                    return Err(SqlError::Bind(format!("unknown table {name}")));
                }
            }
            FromItem::Derived { body, alias } => {
                let (node, schema) = self.bind_set(body)?;
                (alias.clone(), node, schema)
            }
        };
        // prefix every column with the alias
        let cols: Vec<(ColName, ColName)> = schema
            .cols()
            .iter()
            .map(|(n, _)| (Arc::from(format!("{alias}.{n}").as_str()), n.clone()))
            .collect();
        let node = self.plan.project(node, cols.clone());
        let schema = Schema::new(
            cols.iter()
                .zip(schema.cols())
                .map(|((new, _), (_, t))| (new.clone(), *t))
                .collect(),
        );
        Ok((alias, node, schema))
    }

    fn bind_select(&mut self, s: &Select) -> Result<(NodeId, Schema), SqlError> {
        // FROM: bind the items
        let mut items: Vec<(String, NodeId, Schema)> = Vec::new();
        if s.from.is_empty() {
            // FROM-less SELECT: one dummy row
            let dummy = self.fresh("one");
            let node = self.plan.lit(
                Schema::new(vec![(dummy.clone(), Ty::Nat)]),
                vec![vec![Value::Nat(1)]],
            );
            items.push(("".to_string(), node, Schema::new(vec![(dummy, Ty::Nat)])));
        } else {
            let mut seen = std::collections::HashSet::new();
            for item in &s.from {
                let bound = self.bind_from_item(item)?;
                if !seen.insert(bound.0.clone()) {
                    return Err(SqlError::Bind(format!("duplicate alias {}", bound.0)));
                }
                items.push(bound);
            }
        }
        let scope = Scope {
            items: items
                .iter()
                .map(|(a, _, s)| (a.clone(), s.clone()))
                .collect(),
        };

        // split WHERE into equi-join conjuncts and residual predicates
        let mut conjuncts = Vec::new();
        if let Some(w) = &s.where_ {
            split_conjuncts(w, &mut conjuncts);
        }
        let mut join_edges: Vec<(ColName, Ty, ColName)> = Vec::new();
        let mut residual: Vec<&SqlExpr> = Vec::new();
        for c in &conjuncts {
            match as_join_edge(c, &scope) {
                Some(edge) => join_edges.push(edge),
                None => residual.push(c),
            }
        }

        // greedy join tree: start with the first item, repeatedly join in
        // an item connected by at least one edge, falling back to a cross
        // join when nothing connects
        let mut items = items.into_iter();
        let Some((first, mut node, mut schema)) = items.next() else {
            return Err(SqlError::Bind("a query needs a FROM item".into()));
        };
        let mut joined_aliases: Vec<String> = vec![first];
        let mut remaining: Vec<(String, NodeId, Schema)> = items.collect();
        let mut edges = join_edges;
        while !remaining.is_empty() {
            // find an item with an edge to the joined set
            let pick = remaining.iter().position(|(_, _, s)| {
                edges.iter().any(|(l, _, r)| {
                    (schema.contains(l) && s.contains(r)) || (schema.contains(r) && s.contains(l))
                })
            });
            match pick {
                Some(i) => {
                    let (alias, rnode, rschema) = remaining.remove(i);
                    let mut lcols = Vec::new();
                    let mut rcols = Vec::new();
                    edges.retain(|(l, _, r)| {
                        if schema.contains(l) && rschema.contains(r) {
                            lcols.push(l.clone());
                            rcols.push(r.clone());
                            false
                        } else if schema.contains(r) && rschema.contains(l) {
                            lcols.push(r.clone());
                            rcols.push(l.clone());
                            false
                        } else {
                            true
                        }
                    });
                    node = self
                        .plan
                        .equi_join(node, rnode, JoinCols::new(lcols, rcols));
                    schema = schema.concat(&rschema);
                    joined_aliases.push(alias);
                }
                None => {
                    let (alias, rnode, rschema) = remaining.remove(0);
                    node = self.plan.cross(node, rnode);
                    schema = schema.concat(&rschema);
                    joined_aliases.push(alias);
                }
            }
        }
        // edges that never connected (same-item equalities) become filters
        for (l, _, r) in edges {
            node = self
                .plan
                .select(node, AExpr::eq(AExpr::Col(l), AExpr::Col(r)));
        }
        for pred in residual {
            let e = self.bind_expr(pred, &scope, &schema)?;
            let e = coerce_to(e, Ty::Bool, &schema)
                .ok_or_else(|| SqlError::Bind("WHERE predicate is not boolean".into()))?;
            node = self.plan.select(node, e);
        }

        // GROUP BY / aggregate path
        if !s.group_by.is_empty() || contains_agg_items(&s.items) {
            return self.bind_grouped(s, &scope, node, schema);
        }

        // window functions: materialise each distinct window expression
        let mut windows: HashMap<String, ColName> = HashMap::new();
        for item in &s.items {
            self.materialise_windows(&item.expr, &scope, &mut node, &mut schema, &mut windows)?;
        }

        // output items
        self.project_items(&s.items, &scope, node, schema, &windows, s.distinct)
    }

    /// Bind a SELECT with aggregates / GROUP BY.
    fn bind_grouped(
        &mut self,
        s: &Select,
        scope: &Scope,
        mut node: NodeId,
        mut schema: Schema,
    ) -> Result<(NodeId, Schema), SqlError> {
        // group keys must be column references
        let mut keys: Vec<ColName> = Vec::new();
        for k in &s.group_by {
            match k {
                SqlExpr::Column { qualifier, name } => {
                    let (c, _) = scope.resolve(qualifier.as_deref(), name)?;
                    keys.push(c);
                }
                e => return Err(SqlError::Bind(format!("GROUP BY expects columns: {e:?}"))),
            }
        }
        // collect aggregates from the select items; compute their argument
        // columns on the input
        let mut aggs: Vec<Aggregate> = Vec::new();
        let mut agg_cols: HashMap<String, (ColName, Ty)> = HashMap::new();
        for item in &s.items {
            collect_aggs(&item.expr, &mut |agg: &SqlExpr| -> Result<(), SqlError> {
                let key = format!("{agg:?}");
                if agg_cols.contains_key(&key) {
                    return Ok(());
                }
                let SqlExpr::Agg { fun, arg } = agg else {
                    return Err(SqlError::Bind(format!("internal: {agg:?} is no aggregate")));
                };
                let (input, in_ty) = match arg {
                    None => (None, None),
                    Some(a) => {
                        let bound = self.bind_expr(a, scope, &schema)?;
                        let ty = bound.infer_ty(&schema).ok_or_else(|| {
                            SqlError::Bind(format!("ill-typed aggregate argument {a:?}"))
                        })?;
                        match bound {
                            AExpr::Col(c) => (Some(c), Some(ty)),
                            e => {
                                let c = self.fresh("aggarg");
                                node = self.plan.compute(node, c.clone(), e);
                                schema.push(c.clone(), ty);
                                (Some(c), Some(ty))
                            }
                        }
                    }
                };
                let fun = match fun {
                    AggName::CountStar => AggFun::CountAll,
                    AggName::Sum => AggFun::Sum,
                    AggName::Min => AggFun::Min,
                    AggName::Max => AggFun::Max,
                    AggName::Avg => AggFun::Avg,
                    AggName::BoolAnd => AggFun::All,
                    AggName::BoolOr => AggFun::Any,
                };
                let out = self.fresh("agg");
                let out_ty = fun
                    .result_ty(in_ty)
                    .ok_or_else(|| SqlError::Bind(format!("{fun:?} on {in_ty:?}")))?;
                aggs.push(Aggregate {
                    fun,
                    input,
                    output: out.clone(),
                });
                agg_cols.insert(key, (out, out_ty));
                Ok(())
            })?;
        }
        let gnode = self.plan.group_by(node, keys.clone(), aggs);
        let mut gschema = Schema::new(
            keys.iter()
                .map(|k| match schema.ty_of(k) {
                    Some(t) => Ok((k.clone(), t)),
                    None => Err(SqlError::Bind(format!("unknown group key {k}"))),
                })
                .collect::<Result<Vec<_>, _>>()?,
        );
        for (out, ty) in agg_cols.values() {
            gschema.push(out.clone(), *ty);
        }
        // evaluate the select items over the grouped schema, aggregates
        // replaced by their output columns
        let windows = HashMap::new();
        let items: Vec<SelectItem> = s
            .items
            .iter()
            .map(|it| SelectItem {
                expr: replace_aggs(&it.expr, &agg_cols),
                alias: it.alias.clone(),
            })
            .collect();
        self.project_items_grouped(&items, scope, gnode, gschema, &windows, s.distinct)
    }

    /// Replace window expressions in `e` by computed columns, extending the
    /// plan as needed.
    fn materialise_windows(
        &mut self,
        e: &SqlExpr,
        scope: &Scope,
        node: &mut NodeId,
        schema: &mut Schema,
        windows: &mut HashMap<String, ColName>,
    ) -> Result<(), SqlError> {
        match e {
            SqlExpr::Window {
                fun,
                partition_by,
                order_by,
            } => {
                let key = format!("{e:?}");
                if windows.contains_key(&key) {
                    return Ok(());
                }
                let part: Vec<ColName> = partition_by
                    .iter()
                    .map(|p| match p {
                        SqlExpr::Column { qualifier, name } => {
                            scope.resolve(qualifier.as_deref(), name).map(|(c, _)| c)
                        }
                        e => Err(SqlError::Bind(format!(
                            "PARTITION BY expects columns: {e:?}"
                        ))),
                    })
                    .collect::<Result<_, _>>()?;
                let order: Vec<(ColName, Dir)> = order_by
                    .iter()
                    .map(|o| match &o.expr {
                        SqlExpr::Column { qualifier, name } => scope
                            .resolve(qualifier.as_deref(), name)
                            .map(|(c, _)| (c, if o.desc { Dir::Desc } else { Dir::Asc })),
                        e => Err(SqlError::Bind(format!(
                            "OVER ORDER BY expects columns: {e:?}"
                        ))),
                    })
                    .collect::<Result<_, _>>()?;
                let col = self.fresh("win");
                *node = match fun {
                    WindowFun::RowNumber => self.plan.rownum(*node, col.clone(), part, order),
                    WindowFun::DenseRank => self.plan.dense_rank(*node, col.clone(), part, order),
                    WindowFun::Rank => self.plan.add(ferry_algebra::Node::RowRank {
                        input: *node,
                        col: col.clone(),
                        order,
                    }),
                };
                schema.push(col.clone(), Ty::Nat);
                windows.insert(key, col);
                Ok(())
            }
            SqlExpr::Bin(_, l, r) => {
                self.materialise_windows(l, scope, node, schema, windows)?;
                self.materialise_windows(r, scope, node, schema, windows)
            }
            SqlExpr::Not(x) | SqlExpr::Neg(x) | SqlExpr::Cast { expr: x, .. } => {
                self.materialise_windows(x, scope, node, schema, windows)
            }
            SqlExpr::Case { when, then, els } => {
                self.materialise_windows(when, scope, node, schema, windows)?;
                self.materialise_windows(then, scope, node, schema, windows)?;
                self.materialise_windows(els, scope, node, schema, windows)
            }
            _ => Ok(()),
        }
    }

    /// Compute and project the final output columns of a SELECT.
    fn project_items(
        &mut self,
        items: &[SelectItem],
        scope: &Scope,
        node: NodeId,
        schema: Schema,
        windows: &HashMap<String, ColName>,
        distinct: bool,
    ) -> Result<(NodeId, Schema), SqlError> {
        self.project_items_inner(items, Some(scope), node, schema, windows, distinct)
    }

    /// Like [`Binder::project_items`], but resolving bare columns against
    /// the grouped schema rather than the FROM scope.
    fn project_items_grouped(
        &mut self,
        items: &[SelectItem],
        _scope: &Scope,
        node: NodeId,
        schema: Schema,
        windows: &HashMap<String, ColName>,
        distinct: bool,
    ) -> Result<(NodeId, Schema), SqlError> {
        self.project_items_inner(items, None, node, schema, windows, distinct)
    }

    fn project_items_inner(
        &mut self,
        items: &[SelectItem],
        scope: Option<&Scope>,
        mut node: NodeId,
        mut schema: Schema,
        windows: &HashMap<String, ColName>,
        distinct: bool,
    ) -> Result<(NodeId, Schema), SqlError> {
        let mut out_cols: Vec<(ColName, ColName)> = Vec::new();
        let mut out_schema: Vec<(ColName, Ty)> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let out_name: ColName = match &item.alias {
                Some(a) => Arc::from(a.as_str()),
                None => match &item.expr {
                    SqlExpr::Column { name, .. } => Arc::from(name.as_str()),
                    _ => Arc::from(format!("col{i}").as_str()),
                },
            };
            let bound = match windows.get(&format!("{:?}", item.expr)) {
                Some(c) => AExpr::Col(c.clone()),
                None => self.bind_expr_general(&item.expr, scope, &schema, windows)?,
            };
            // `_nat`-suffix repair: integer expressions feeding a *_nat
            // output become surrogates
            let want_nat = out_name.ends_with("_nat");
            let bound = if want_nat {
                coerce_to(bound, Ty::Nat, &schema)
                    .ok_or_else(|| SqlError::Bind(format!("cannot make {out_name} a surrogate")))?
            } else {
                bound
            };
            let ty = bound
                .infer_ty(&schema)
                .ok_or_else(|| SqlError::Bind(format!("ill-typed item {:?}", item.expr)))?;
            let src = match bound {
                AExpr::Col(c) => c,
                e => {
                    let c = self.fresh("item");
                    node = self.plan.compute(node, c.clone(), e);
                    schema.push(c.clone(), ty);
                    c
                }
            };
            out_cols.push((out_name.clone(), src));
            out_schema.push((out_name, ty));
        }
        let mut node = self.plan.project(node, out_cols);
        if distinct {
            node = self.plan.distinct(node);
        }
        Ok((node, Schema::new(out_schema)))
    }

    fn bind_expr_general(
        &mut self,
        e: &SqlExpr,
        scope: Option<&Scope>,
        schema: &Schema,
        windows: &HashMap<String, ColName>,
    ) -> Result<AExpr, SqlError> {
        if let Some(c) = windows.get(&format!("{e:?}")) {
            return Ok(AExpr::Col(c.clone()));
        }
        match scope {
            Some(s) => self.bind_expr(e, s, schema),
            None => bind_expr_schema(e, schema),
        }
    }

    /// Bind a scalar expression against a FROM scope.
    fn bind_expr(&self, e: &SqlExpr, scope: &Scope, schema: &Schema) -> Result<AExpr, SqlError> {
        match e {
            SqlExpr::Column { qualifier, name } => {
                let (c, _) = scope.resolve(qualifier.as_deref(), name)?;
                Ok(AExpr::Col(c))
            }
            _ => bind_expr_with(e, &|q, n| scope.resolve(q, n), schema),
        }
    }
}

/// Bind a scalar expression resolving bare columns directly in a schema
/// (the grouped path).
fn bind_expr_schema(e: &SqlExpr, schema: &Schema) -> Result<AExpr, SqlError> {
    bind_expr_with(
        e,
        &|q, n| {
            // grouped keys keep their scoped `alias.col` names, so try the
            // qualified spelling first, then the bare one
            let qualified = q.map(|q| format!("{q}.{n}"));
            for candidate in qualified.iter().map(String::as_str).chain([n]) {
                let c: ColName = Arc::from(candidate);
                if let Some(t) = schema.ty_of(&c) {
                    return Ok((c, t));
                }
            }
            Err(SqlError::Bind(format!("unknown column {n}")))
        },
        schema,
    )
}

/// Shared recursive expression binding; `resolve` maps column syntax to
/// plan columns.
fn bind_expr_with(
    e: &SqlExpr,
    resolve: &dyn Fn(Option<&str>, &str) -> Result<(ColName, Ty), SqlError>,
    schema: &Schema,
) -> Result<AExpr, SqlError> {
    Ok(match e {
        SqlExpr::Column { qualifier, name } => {
            let (c, _) = resolve(qualifier.as_deref(), name)?;
            AExpr::Col(c)
        }
        SqlExpr::Int(i) => AExpr::lit(*i),
        SqlExpr::Float(f) => AExpr::lit(*f),
        SqlExpr::Str(s) => AExpr::lit(s.as_str()),
        SqlExpr::Bool(b) => AExpr::lit(*b),
        SqlExpr::Param(n) => return Err(untyped_param(*n)),
        SqlExpr::Neg(x) => AExpr::Un(UnOp::Neg, Arc::new(bind_expr_with(x, resolve, schema)?)),
        SqlExpr::Not(x) => AExpr::not(bind_expr_with(x, resolve, schema)?),
        SqlExpr::Case { when, then, els } => AExpr::case(
            bind_expr_with(when, resolve, schema)?,
            bind_expr_with(then, resolve, schema)?,
            bind_expr_with(els, resolve, schema)?,
        ),
        SqlExpr::Cast { expr, ty } => {
            let t = match ty {
                SqlTy::Bigint => Ty::Int,
                SqlTy::Double => Ty::Dbl,
                SqlTy::Nat => Ty::Nat,
                SqlTy::Varchar => Ty::Str,
                SqlTy::Boolean => Ty::Bool,
            };
            // a cast types the parameter inside it; the cast itself is
            // then the identity
            if let SqlExpr::Param(n) = expr.as_ref() {
                return param(*n, t);
            }
            let inner = bind_expr_with(expr, resolve, schema)?;
            if matches!(t, Ty::Str | Ty::Bool) {
                // only numeric casts occur in the dialect; a cast to the
                // expression's own type is the identity
                if inner.infer_ty(schema) == Some(t) {
                    inner
                } else {
                    return Err(SqlError::Bind(format!("unsupported cast to {t}")));
                }
            } else {
                AExpr::cast(t, inner)
            }
        }
        SqlExpr::Bin(op, l, r) => {
            let bind = |e| bind_expr_with(e, resolve, schema);
            // a parameter takes the type of the operand it meets
            let (mut lb, mut rb) = match (l.as_ref(), r.as_ref()) {
                (SqlExpr::Param(n), SqlExpr::Param(_)) => return Err(untyped_param(*n)),
                (SqlExpr::Param(n), other) => {
                    let other = bind(other)?;
                    (param_beside(*n, &other, schema)?, other)
                }
                (other, SqlExpr::Param(n)) => {
                    let other = bind(other)?;
                    let p = param_beside(*n, &other, schema)?;
                    (other, p)
                }
                (l, r) => (bind(l)?, bind(r)?),
            };
            // literal ↔ surrogate repair: `pos = 1` compares Nat with an
            // integer literal
            let lt = lb.infer_ty(schema);
            let rt = rb.infer_ty(schema);
            if lt == Some(Ty::Nat) && rt == Some(Ty::Int) {
                if let AExpr::Const(Value::Int(i)) = &rb {
                    if *i >= 0 {
                        rb = AExpr::Const(Value::Nat(*i as u64));
                    }
                }
            }
            if rt == Some(Ty::Nat) && lt == Some(Ty::Int) {
                if let AExpr::Const(Value::Int(i)) = &lb {
                    if *i >= 0 {
                        lb = AExpr::Const(Value::Nat(*i as u64));
                    }
                }
            }
            let op = match op {
                SqlBinOp::Add => ABinOp::Add,
                SqlBinOp::Sub => ABinOp::Sub,
                SqlBinOp::Mul => ABinOp::Mul,
                SqlBinOp::Div => ABinOp::Div,
                SqlBinOp::Mod => ABinOp::Mod,
                SqlBinOp::Eq => ABinOp::Eq,
                SqlBinOp::Ne => ABinOp::Ne,
                SqlBinOp::Lt => ABinOp::Lt,
                SqlBinOp::Le => ABinOp::Le,
                SqlBinOp::Gt => ABinOp::Gt,
                SqlBinOp::Ge => ABinOp::Ge,
                SqlBinOp::And => ABinOp::And,
                SqlBinOp::Or => ABinOp::Or,
                SqlBinOp::Concat => ABinOp::Concat,
            };
            AExpr::bin(op, lb, rb)
        }
        SqlExpr::Window { .. } => {
            return Err(SqlError::Bind(
                "window function in an unsupported position".into(),
            ))
        }
        SqlExpr::Agg { .. } => {
            return Err(SqlError::Bind("aggregate outside GROUP BY binding".into()))
        }
    })
}

/// Parameter `$n` (1-based) of type `ty`.
fn param(n: u32, ty: Ty) -> Result<AExpr, SqlError> {
    let slot = n
        .checked_sub(1)
        .ok_or_else(|| SqlError::Bind("parameters are numbered from $1".into()))?;
    Ok(AExpr::Param(slot, ty))
}

/// Parameter `$n` typed by the operand `other` it meets.
fn param_beside(n: u32, other: &AExpr, schema: &Schema) -> Result<AExpr, SqlError> {
    let ty = other.infer_ty(schema).ok_or_else(|| untyped_param(n))?;
    param(n, ty)
}

fn untyped_param(n: u32) -> SqlError {
    SqlError::Bind(format!(
        "cannot infer the type of parameter ${n}: compare it with, or compute it \
         against, a typed operand, or CAST it"
    ))
}

/// Coerce an expression to the wanted type when a safe coercion exists.
fn coerce_to(e: AExpr, want: Ty, schema: &Schema) -> Option<AExpr> {
    let t = e.infer_ty(schema)?;
    if t == want {
        return Some(e);
    }
    match (t, want) {
        (Ty::Int, Ty::Nat) => match &e {
            AExpr::Const(Value::Int(i)) if *i >= 0 => Some(AExpr::Const(Value::Nat(*i as u64))),
            _ => Some(AExpr::cast(Ty::Nat, e)),
        },
        (Ty::Nat, Ty::Int) => Some(AExpr::cast(Ty::Int, e)),
        _ => None,
    }
}

fn split_conjuncts(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match e {
        SqlExpr::Bin(SqlBinOp::And, l, r) => {
            split_conjuncts(l, out);
            split_conjuncts(r, out);
        }
        e => out.push(e.clone()),
    }
}

/// `alias1.col = alias2.col` between *different* items becomes a join edge.
fn as_join_edge(e: &SqlExpr, scope: &Scope) -> Option<(ColName, Ty, ColName)> {
    let SqlExpr::Bin(SqlBinOp::Eq, l, r) = e else {
        return None;
    };
    let (
        SqlExpr::Column {
            qualifier: lq,
            name: ln,
        },
        SqlExpr::Column {
            qualifier: rq,
            name: rn,
        },
    ) = (l.as_ref(), r.as_ref())
    else {
        return None;
    };
    let (lc, lt) = scope.resolve(lq.as_deref(), ln).ok()?;
    let (rc, rt) = scope.resolve(rq.as_deref(), rn).ok()?;
    if lt != rt {
        return None;
    }
    // same item? leave it as a filter
    let item_of = |c: &ColName| c.split('.').next().map(String::from);
    if item_of(&lc) == item_of(&rc) {
        return None;
    }
    Some((lc, lt, rc))
}

fn contains_agg_items(items: &[SelectItem]) -> bool {
    fn has_agg(e: &SqlExpr) -> bool {
        match e {
            SqlExpr::Agg { .. } => true,
            SqlExpr::Bin(_, l, r) => has_agg(l) || has_agg(r),
            SqlExpr::Not(x) | SqlExpr::Neg(x) | SqlExpr::Cast { expr: x, .. } => has_agg(x),
            SqlExpr::Case { when, then, els } => has_agg(when) || has_agg(then) || has_agg(els),
            _ => false,
        }
    }
    items.iter().any(|i| has_agg(&i.expr))
}

fn collect_aggs(
    e: &SqlExpr,
    f: &mut dyn FnMut(&SqlExpr) -> Result<(), SqlError>,
) -> Result<(), SqlError> {
    match e {
        SqlExpr::Agg { .. } => f(e),
        SqlExpr::Bin(_, l, r) => {
            collect_aggs(l, f)?;
            collect_aggs(r, f)
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) | SqlExpr::Cast { expr: x, .. } => collect_aggs(x, f),
        SqlExpr::Case { when, then, els } => {
            collect_aggs(when, f)?;
            collect_aggs(then, f)?;
            collect_aggs(els, f)
        }
        _ => Ok(()),
    }
}

/// Replace aggregate subexpressions by their grouped output columns.
fn replace_aggs(e: &SqlExpr, agg_cols: &HashMap<String, (ColName, Ty)>) -> SqlExpr {
    match e {
        SqlExpr::Agg { .. } => {
            let (c, _) = &agg_cols[&format!("{e:?}")];
            SqlExpr::Column {
                qualifier: None,
                name: c.to_string(),
            }
        }
        SqlExpr::Bin(op, l, r) => SqlExpr::Bin(
            *op,
            Box::new(replace_aggs(l, agg_cols)),
            Box::new(replace_aggs(r, agg_cols)),
        ),
        SqlExpr::Not(x) => SqlExpr::Not(Box::new(replace_aggs(x, agg_cols))),
        SqlExpr::Neg(x) => SqlExpr::Neg(Box::new(replace_aggs(x, agg_cols))),
        SqlExpr::Cast { expr, ty } => SqlExpr::Cast {
            expr: Box::new(replace_aggs(expr, agg_cols)),
            ty: *ty,
        },
        SqlExpr::Case { when, then, els } => SqlExpr::Case {
            when: Box::new(replace_aggs(when, agg_cols)),
            then: Box::new(replace_aggs(then, agg_cols)),
            els: Box::new(replace_aggs(els, agg_cols)),
        },
        e => e.clone(),
    }
}
