//! SQL:1999 code generation from table-algebra plans.
//!
//! The output follows the paper's appendix dialect: every operator that
//! needs materialisation becomes a `WITH` binding annotated with a comment
//! ("binding due to rank operator", …), column names carry their type as a
//! suffix (`item1_str`, `iter3_nat`, `pos29_nat`), window functions are
//! spelled `DENSE_RANK () OVER (ORDER BY …)`, and the statement ends with
//! the observable `ORDER BY`.
//!
//! Semi/anti joins have no direct SQL:1999 spelling in this dialect; they
//! are lowered to joins against `SELECT DISTINCT` key sets (semi) and
//! `EXCEPT` key differences (anti) — both expressible in, and parseable
//! from, the emitted subset.

use crate::SqlError;
use ferry_algebra::{
    infer_schema, AggFun, BinOp, ColName, Dir, Expr, Node, NodeId, Plan, Schema, Ty, UnOp, Value,
};
use ferry_engine::Snapshot;
use std::collections::HashMap;
use std::fmt::Write;

/// One generated SQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlQuery {
    pub sql: String,
}

/// Generate the SQL statement for the query rooted at `root`. The pinned
/// snapshot provides the catalog column names of referenced base tables.
pub fn generate_sql(db: &Snapshot<'_>, plan: &Plan, root: NodeId) -> Result<SqlQuery, SqlError> {
    let mut span = ferry_telemetry::span("codegen", "sql");
    let schemas = infer_schema(plan).map_err(|e| SqlError::Codegen(e.to_string()))?;
    let mut g = Gen {
        db,
        plan,
        schemas: &schemas,
        ctes: Vec::new(),
        bound: HashMap::new(),
        next_alias: 0,
    };
    let final_select = g.final_query(root)?;
    let mut sql = String::new();
    if !g.ctes.is_empty() {
        sql.push_str("WITH\n");
        let n = g.ctes.len();
        for (i, cte) in g.ctes.iter().enumerate() {
            sql.push_str(cte);
            if i + 1 < n {
                sql.push_str(",\n");
            } else {
                sql.push('\n');
            }
        }
    }
    sql.push_str(&final_select);
    sql.push(';');
    span.attr("root", root.0)
        .attr("ctes", g.ctes.len())
        .attr("chars", sql.len());
    Ok(SqlQuery { sql })
}

/// Generate the full bundle (one statement per root) — the artefact of the
/// paper's appendix.
pub fn generate_bundle(
    db: &Snapshot<'_>,
    plan: &Plan,
    roots: &[NodeId],
) -> Result<Vec<SqlQuery>, SqlError> {
    roots.iter().map(|&r| generate_sql(db, plan, r)).collect()
}

/// SQL-facing name of a plan column: the type suffix makes column domains
/// recoverable from names alone, as in the appendix (`item4_nat`).
fn sql_col(name: &ColName, ty: Ty) -> String {
    let sfx = match ty {
        Ty::Nat => "nat",
        Ty::Int => "int",
        Ty::Dbl => "dbl",
        Ty::Str => "str",
        Ty::Bool => "bool",
        Ty::Unit => "unit",
    };
    format!("{name}_{sfx}")
}

struct Gen<'a> {
    db: &'a Snapshot<'a>,
    plan: &'a Plan,
    schemas: &'a [Schema],
    ctes: Vec<String>,
    /// node → CTE name (every non-root node is materialised once).
    bound: HashMap<NodeId, String>,
    next_alias: u32,
}

impl<'a> Gen<'a> {
    fn alias(&mut self) -> String {
        let a = format!("a{:04}", self.next_alias);
        self.next_alias += 1;
        a
    }

    fn schema(&self, id: NodeId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Output column list of a node, SQL-named.
    fn out_cols(&self, id: NodeId) -> Vec<String> {
        self.schema(id)
            .cols()
            .iter()
            .map(|(n, t)| sql_col(n, *t))
            .collect()
    }

    /// Ensure `id` is bound as a CTE; returns its name.
    fn bind(&mut self, id: NodeId) -> Result<String, SqlError> {
        if let Some(name) = self.bound.get(&id) {
            return Ok(name.clone());
        }
        let body = self.render_node(id)?;
        let name = format!("t{:04}", self.bound.len());
        let cols = self.out_cols(id).join(", ");
        let comment = binding_comment(self.plan.node(id));
        let mut cte = String::new();
        if !comment.is_empty() {
            let _ = writeln!(cte, "-- binding due to {comment}");
        }
        let _ = write!(cte, "{name} ({cols}) AS\n  ({body})");
        self.ctes.push(cte);
        self.bound.insert(id, name.clone());
        Ok(name)
    }

    /// The final (root) query: rendered inline, with its ORDER BY.
    fn final_query(&mut self, root: NodeId) -> Result<String, SqlError> {
        match self.plan.node(root) {
            Node::Serialize { input, order, cols } => {
                let input = *input;
                let order = order.clone();
                let cols = cols.clone();
                let src = self.bind(input)?;
                let a = self.alias();
                let in_schema = self.schema(input).clone();
                let items: Vec<String> = cols
                    .iter()
                    .map(|c| {
                        let t = in_schema.ty_of(c).expect("validated");
                        format!("{a}.{} AS {}", sql_col(c, t), sql_col(c, t))
                    })
                    .collect();
                let mut sql = format!("SELECT {}\nFROM {src} AS {a}", items.join(", "));
                if !order.is_empty() {
                    let os: Vec<String> = order
                        .iter()
                        .map(|(c, d)| {
                            let t = in_schema.ty_of(c).expect("validated");
                            format!(
                                "{a}.{} {}",
                                sql_col(c, t),
                                if *d == Dir::Asc { "ASC" } else { "DESC" }
                            )
                        })
                        .collect();
                    let _ = write!(sql, "\nORDER BY {}", os.join(", "));
                }
                Ok(sql)
            }
            _ => {
                // roots are normally Serialize; accept any node by
                // materialising it and selecting everything
                let src = self.bind(root)?;
                let a = self.alias();
                let items: Vec<String> = self
                    .out_cols(root)
                    .iter()
                    .map(|c| format!("{a}.{c} AS {c}"))
                    .collect();
                Ok(format!("SELECT {}\nFROM {src} AS {a}", items.join(", ")))
            }
        }
    }

    /// Render one node as a standalone SELECT (the body of its CTE).
    fn render_node(&mut self, id: NodeId) -> Result<String, SqlError> {
        let node = self.plan.node(id).clone();
        match node {
            Node::TableRef { name, cols, .. } => {
                let table = self
                    .db
                    .table(&name)
                    .ok_or_else(|| SqlError::Codegen(format!("unknown table {name}")))?;
                let a = self.alias();
                let items: Vec<String> = cols
                    .iter()
                    .zip(table.schema.cols())
                    .map(|((plan_col, t), (cat_col, _))| {
                        format!("{a}.{cat_col} AS {}", sql_col(plan_col, *t))
                    })
                    .collect();
                Ok(format!("SELECT {} FROM {name} AS {a}", items.join(", ")))
            }
            Node::Lit { rel } => {
                let (schema, rows) = (&rel.schema, rel.rows());
                if rows.is_empty() {
                    let items: Vec<String> = schema
                        .cols()
                        .iter()
                        .map(|(n, t)| Ok(format!("{} AS {}", dummy_value(*t)?, sql_col(n, *t))))
                        .collect::<Result<_, SqlError>>()?;
                    return Ok(format!("SELECT {} WHERE FALSE", items.join(", ")));
                }
                let selects: Vec<String> = rows
                    .iter()
                    .map(|row| {
                        let items: Vec<String> = row
                            .iter()
                            .zip(schema.cols())
                            .map(|(v, (n, t))| {
                                Ok(format!("{} AS {}", render_value(v)?, sql_col(n, *t)))
                            })
                            .collect::<Result<_, SqlError>>()?;
                        Ok(format!("SELECT {}", items.join(", ")))
                    })
                    .collect::<Result<Vec<_>, SqlError>>()?;
                Ok(union_all(&selects))
            }
            Node::Attach { input, col, value } => {
                let (src, a, mut items) = self.carry_all(input)?;
                items.push(format!(
                    "{} AS {}",
                    render_value(&value)?,
                    sql_col(&col, value.ty())
                ));
                Ok(format!("SELECT {} FROM {src} AS {a}", items.join(", ")))
            }
            Node::Project { input, cols } => {
                let src = self.bind(input)?;
                let a = self.alias();
                let s = self.schema(input).clone();
                let items: Vec<String> = cols
                    .iter()
                    .map(|(new, old)| {
                        let t = s.ty_of(old).expect("validated");
                        format!("{a}.{} AS {}", sql_col(old, t), sql_col(new, t))
                    })
                    .collect();
                Ok(format!("SELECT {} FROM {src} AS {a}", items.join(", ")))
            }
            Node::Compute { input, col, expr } => {
                let (src, a, mut items) = self.carry_all(input)?;
                let s = self.schema(input).clone();
                let t = expr.infer_ty(&s).expect("validated");
                items.push(format!(
                    "{} AS {}",
                    self.render_expr(&expr, &[(&a, &s)])?,
                    sql_col(&col, t)
                ));
                Ok(format!("SELECT {} FROM {src} AS {a}", items.join(", ")))
            }
            Node::Select { input, pred } => {
                let (src, a, items) = self.carry_all(input)?;
                let s = self.schema(input).clone();
                let w = self.render_expr(&pred, &[(&a, &s)])?;
                Ok(format!(
                    "SELECT {} FROM {src} AS {a} WHERE {w}",
                    items.join(", ")
                ))
            }
            Node::Distinct { input } => {
                let (src, a, items) = self.carry_all(input)?;
                Ok(format!(
                    "SELECT DISTINCT {} FROM {src} AS {a}",
                    items.join(", ")
                ))
            }
            Node::UnionAll { left, right } => {
                let (ls, la, litems) = self.carry_all(left)?;
                let l = format!("SELECT {} FROM {ls} AS {la}", litems.join(", "));
                // align the right side to the left's output names
                let rs = self.bind(right)?;
                let ra = self.alias();
                let lsch = self.schema(left).clone();
                let rsch = self.schema(right).clone();
                let ritems: Vec<String> = rsch
                    .cols()
                    .iter()
                    .zip(lsch.cols())
                    .map(|((rn, rt), (ln, lt))| {
                        format!("{ra}.{} AS {}", sql_col(rn, *rt), sql_col(ln, *lt))
                    })
                    .collect();
                let r = format!("SELECT {} FROM {rs} AS {ra}", ritems.join(", "));
                Ok(format!("{l} UNION ALL {r}"))
            }
            Node::Difference { left, right } => {
                let (ls, la, litems) = self.carry_all(left)?;
                let l = format!("SELECT {} FROM {ls} AS {la}", litems.join(", "));
                let rs = self.bind(right)?;
                let ra = self.alias();
                let lsch = self.schema(left).clone();
                let rsch = self.schema(right).clone();
                let ritems: Vec<String> = rsch
                    .cols()
                    .iter()
                    .zip(lsch.cols())
                    .map(|((rn, rt), (ln, lt))| {
                        format!("{ra}.{} AS {}", sql_col(rn, *rt), sql_col(ln, *lt))
                    })
                    .collect();
                let r = format!("SELECT {} FROM {rs} AS {ra}", ritems.join(", "));
                Ok(format!("{l} EXCEPT {r}"))
            }
            Node::CrossJoin { left, right } => {
                let (ls, la) = (self.bind(left)?, self.alias());
                let (rs, ra) = (self.bind(right)?, self.alias());
                let mut items = self.qualified_items(left, &la);
                items.extend(self.qualified_items(right, &ra));
                Ok(format!(
                    "SELECT {} FROM {ls} AS {la}, {rs} AS {ra}",
                    items.join(", ")
                ))
            }
            Node::EquiJoin { left, right, on } => {
                let (ls, la) = (self.bind(left)?, self.alias());
                let (rs, ra) = (self.bind(right)?, self.alias());
                let mut items = self.qualified_items(left, &la);
                items.extend(self.qualified_items(right, &ra));
                let lsch = self.schema(left).clone();
                let rsch = self.schema(right).clone();
                let conds: Vec<String> = on
                    .left
                    .iter()
                    .zip(on.right.iter())
                    .map(|(lc, rc)| {
                        format!(
                            "{la}.{} = {ra}.{}",
                            sql_col(lc, lsch.ty_of(lc).expect("validated")),
                            sql_col(rc, rsch.ty_of(rc).expect("validated"))
                        )
                    })
                    .collect();
                Ok(format!(
                    "SELECT {} FROM {ls} AS {la}, {rs} AS {ra} WHERE {}",
                    items.join(", "),
                    conds.join(" AND ")
                ))
            }
            Node::SemiJoin { left, right, on } | Node::AntiJoin { left, right, on } => {
                let anti = matches!(self.plan.node(id), Node::AntiJoin { .. });
                // key set: DISTINCT right keys (semi) / left keys EXCEPT
                // right keys (anti) — joined back to the left
                let (ls, la) = (self.bind(left)?, self.alias());
                let rs = self.bind(right)?;
                let ra = self.alias();
                let items = self.qualified_items(left, &la);
                let lsch = self.schema(left).clone();
                let rsch = self.schema(right).clone();
                let rkeys: Vec<String> = on
                    .right
                    .iter()
                    .enumerate()
                    .map(|(i, rc)| {
                        format!(
                            "{ra}.{} AS k{i}_{}",
                            sql_col(rc, rsch.ty_of(rc).expect("validated")),
                            suffix_of(rsch.ty_of(rc).expect("validated"))
                        )
                    })
                    .collect();
                let key_select = format!("SELECT DISTINCT {} FROM {rs} AS {ra}", rkeys.join(", "));
                let key_set = if anti {
                    let la2 = self.alias();
                    let lkeys: Vec<String> = on
                        .left
                        .iter()
                        .enumerate()
                        .map(|(i, lc)| {
                            format!(
                                "{la2}.{} AS k{i}_{}",
                                sql_col(lc, lsch.ty_of(lc).expect("validated")),
                                suffix_of(lsch.ty_of(lc).expect("validated"))
                            )
                        })
                        .collect();
                    format!(
                        "SELECT DISTINCT {} FROM {ls} AS {la2} EXCEPT {key_select}",
                        lkeys.join(", ")
                    )
                } else {
                    key_select
                };
                let d = self.alias();
                let conds: Vec<String> = on
                    .left
                    .iter()
                    .enumerate()
                    .map(|(i, lc)| {
                        let t = lsch.ty_of(lc).expect("validated");
                        format!("{la}.{} = {d}.k{i}_{}", sql_col(lc, t), suffix_of(t))
                    })
                    .collect();
                Ok(format!(
                    "SELECT {} FROM {ls} AS {la}, ({key_set}) AS {d} WHERE {}",
                    items.join(", "),
                    conds.join(" AND ")
                ))
            }
            Node::ThetaJoin { left, right, pred } => {
                let (ls, la) = (self.bind(left)?, self.alias());
                let (rs, ra) = (self.bind(right)?, self.alias());
                let mut items = self.qualified_items(left, &la);
                items.extend(self.qualified_items(right, &ra));
                let lsch = self.schema(left).clone();
                let rsch = self.schema(right).clone();
                let w = self.render_expr(&pred, &[(&la, &lsch), (&ra, &rsch)])?;
                Ok(format!(
                    "SELECT {} FROM {ls} AS {la}, {rs} AS {ra} WHERE {w}",
                    items.join(", ")
                ))
            }
            Node::RowNum {
                input,
                col,
                part,
                order,
            } => self.render_window(input, &col, "ROW_NUMBER", &part, &order),
            Node::RowRank { input, col, order } => {
                self.render_window(input, &col, "RANK", &[], &order)
            }
            Node::DenseRank {
                input,
                col,
                part,
                order,
            } => self.render_window(input, &col, "DENSE_RANK", &part, &order),
            Node::GroupBy { input, keys, aggs } => {
                let src = self.bind(input)?;
                let a = self.alias();
                let s = self.schema(input).clone();
                let out = self.schema(id).clone();
                let mut items: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        let t = s.ty_of(k).expect("validated");
                        format!("{a}.{} AS {}", sql_col(k, t), sql_col(k, t))
                    })
                    .collect();
                for agg in &aggs {
                    let out_ty = out.ty_of(&agg.output).expect("validated");
                    let rendered = match (&agg.fun, &agg.input) {
                        (AggFun::CountAll, _) => "COUNT (*)".to_string(),
                        (f, Some(c)) => {
                            let t = s.ty_of(c).expect("validated");
                            format!("{} ({a}.{})", f.sql(), sql_col(c, t))
                        }
                        (f, None) => return Err(SqlError::Codegen(format!("{f:?} without input"))),
                    };
                    items.push(format!("{rendered} AS {}", sql_col(&agg.output, out_ty)));
                }
                let mut sql = format!("SELECT {} FROM {src} AS {a}", items.join(", "));
                if !keys.is_empty() {
                    let ks: Vec<String> = keys
                        .iter()
                        .map(|k| format!("{a}.{}", sql_col(k, s.ty_of(k).expect("validated"))))
                        .collect();
                    let _ = write!(sql, " GROUP BY {}", ks.join(", "));
                }
                Ok(sql)
            }
            Node::Serialize { input, order, cols } => {
                // an interior Serialize (unusual): render without ORDER BY —
                // only the statement-level Serialize orders observably
                let src = self.bind(input)?;
                let a = self.alias();
                let s = self.schema(input).clone();
                let items: Vec<String> = cols
                    .iter()
                    .map(|c| {
                        let t = s.ty_of(c).expect("validated");
                        format!("{a}.{} AS {}", sql_col(c, t), sql_col(c, t))
                    })
                    .collect();
                let _ = order;
                Ok(format!("SELECT {} FROM {src} AS {a}", items.join(", ")))
            }
        }
    }

    /// Bind the input and produce `(cte, alias, SELECT items carrying every
    /// input column through unchanged)`.
    fn carry_all(&mut self, input: NodeId) -> Result<(String, String, Vec<String>), SqlError> {
        let src = self.bind(input)?;
        let a = self.alias();
        let items = self
            .out_cols(input)
            .iter()
            .map(|c| format!("{a}.{c} AS {c}"))
            .collect();
        Ok((src, a, items))
    }

    /// Qualified pass-through items for one join side.
    fn qualified_items(&self, side: NodeId, alias: &str) -> Vec<String> {
        self.out_cols(side)
            .iter()
            .map(|c| format!("{alias}.{c} AS {c}"))
            .collect()
    }

    fn render_window(
        &mut self,
        input: NodeId,
        col: &ColName,
        fun: &str,
        part: &[ColName],
        order: &[(ColName, Dir)],
    ) -> Result<String, SqlError> {
        let (src, a, mut items) = self.carry_all(input)?;
        let s = self.schema(input).clone();
        let mut over = String::new();
        if !part.is_empty() {
            let ps: Vec<String> = part
                .iter()
                .map(|p| format!("{a}.{}", sql_col(p, s.ty_of(p).expect("validated"))))
                .collect();
            let _ = write!(over, "PARTITION BY {}", ps.join(", "));
        }
        if !order.is_empty() {
            if !over.is_empty() {
                over.push(' ');
            }
            let os: Vec<String> = order
                .iter()
                .map(|(c, d)| {
                    format!(
                        "{a}.{} {}",
                        sql_col(c, s.ty_of(c).expect("validated")),
                        if *d == Dir::Asc { "ASC" } else { "DESC" }
                    )
                })
                .collect();
            let _ = write!(over, "ORDER BY {}", os.join(", "));
        }
        items.push(format!(
            "{fun} () OVER ({over}) AS {}",
            sql_col(col, Ty::Nat)
        ));
        Ok(format!("SELECT {} FROM {src} AS {a}", items.join(", ")))
    }

    /// Render a scalar expression; column references are resolved against
    /// the given `(alias, schema)` scopes.
    fn render_expr(&self, e: &Expr, scopes: &[(&str, &Schema)]) -> Result<String, SqlError> {
        Ok(match e {
            Expr::Col(c) => {
                let (a, s) = scopes
                    .iter()
                    .find(|(_, s)| s.contains(c))
                    .ok_or_else(|| SqlError::Codegen(format!("unresolved column {c}")))?;
                format!("{a}.{}", sql_col(c, s.ty_of(c).expect("resolved")))
            }
            Expr::Const(v) => render_value(v)?,
            Expr::Bin(op, l, r) => {
                let ls = self.render_expr(l, scopes)?;
                let rs = self.render_expr(r, scopes)?;
                format!("({ls} {} {rs})", bin_sql(*op))
            }
            Expr::Un(UnOp::Not, x) => format!("(NOT {})", self.render_expr(x, scopes)?),
            Expr::Un(UnOp::Neg, x) => format!("(- {})", self.render_expr(x, scopes)?),
            Expr::Case(c, t, f) => format!(
                "CASE WHEN {} THEN {} ELSE {} END",
                self.render_expr(c, scopes)?,
                self.render_expr(t, scopes)?,
                self.render_expr(f, scopes)?
            ),
            Expr::Cast(ty, x) => format!(
                "CAST({} AS {})",
                self.render_expr(x, scopes)?,
                sql_type(*ty)?
            ),
            Expr::Param(..) => e.to_string(),
        })
    }
}

/// The rows' `SELECT`s as one balanced `UNION ALL` tree, in row order: a
/// literal table of n rows nests ⌈log2 n⌉ set operations, where a chain
/// would nest n and outgrow the parser's depth budget. `UNION ALL` is
/// left-associative, so only a right side of more than one row needs
/// parentheses.
fn union_all(selects: &[String]) -> String {
    if let [select] = selects {
        return select.clone();
    }
    let (l, r) = selects.split_at(selects.len() / 2);
    let r = match r {
        [select] => select.clone(),
        _ => format!("({})", union_all(r)),
    };
    format!("{} UNION ALL {r}", union_all(l))
}

fn binding_comment(node: &Node) -> &'static str {
    match node {
        Node::RowNum { .. } | Node::RowRank { .. } | Node::DenseRank { .. } => "rank operator",
        Node::Distinct { .. } => "duplicate elimination",
        Node::GroupBy { .. } => "aggregate",
        Node::UnionAll { .. } | Node::Difference { .. } => "set operation",
        _ => "",
    }
}

fn bin_sql(op: BinOp) -> &'static str {
    op.sql()
}

fn suffix_of(t: Ty) -> &'static str {
    match t {
        Ty::Nat => "nat",
        Ty::Int => "int",
        Ty::Dbl => "dbl",
        Ty::Str => "str",
        Ty::Bool => "bool",
        Ty::Unit => "unit",
    }
}

fn sql_type(t: Ty) -> Result<&'static str, SqlError> {
    Ok(match t {
        Ty::Int => "BIGINT",
        Ty::Dbl => "DOUBLE PRECISION",
        Ty::Nat => "NUMERIC(18,0)",
        Ty::Str => "VARCHAR",
        Ty::Bool => "BOOLEAN",
        Ty::Unit => return Err(SqlError::Codegen("unit type in SQL".into())),
    })
}

fn render_value(v: &Value) -> Result<String, SqlError> {
    Ok(match v {
        Value::Int(i) => {
            if *i < 0 {
                format!("({i})")
            } else {
                i.to_string()
            }
        }
        Value::Nat(n) => n.to_string(),
        Value::Dbl(d) => {
            let s = format!("{d:?}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Unit => return Err(SqlError::Codegen("unit value in SQL".into())),
    })
}

fn dummy_value(t: Ty) -> Result<String, SqlError> {
    Ok(match t {
        Ty::Int | Ty::Nat => "0".to_string(),
        Ty::Dbl => "0.0".to_string(),
        Ty::Str => "''".to_string(),
        Ty::Bool => "FALSE".to_string(),
        Ty::Unit => return Err(SqlError::Codegen("unit type in SQL".into())),
    })
}
