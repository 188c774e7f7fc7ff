//! Abstract syntax of the supported SQL:1999 subset — exactly the dialect
//! the code generator emits (plus harmless generalisations).

/// A full statement: optional CTE bindings, then a set expression, then an
/// optional final ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    pub ctes: Vec<Cte>,
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
}

/// One `WITH name (cols…) AS (…)` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    /// Optional explicit column list renaming the select's outputs.
    pub columns: Vec<String>,
    pub body: SetExpr,
}

/// Set-level expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    /// `UNION ALL`.
    UnionAll(Box<SetExpr>, Box<SetExpr>),
    /// `EXCEPT` (set semantics).
    Except(Box<SetExpr>, Box<SetExpr>),
}

/// A `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<FromItem>,
    pub where_: Option<SqlExpr>,
    pub group_by: Vec<SqlExpr>,
}

/// One select-list item; `alias` is mandatory in generated SQL but the
/// parser also accepts bare column references.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: SqlExpr,
    pub alias: Option<String>,
}

/// A `FROM` item.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// `name AS alias` — a base table or a CTE.
    Named { name: String, alias: String },
    /// `(select…) AS alias` — a derived table.
    Derived { body: Box<SetExpr>, alias: String },
}

/// `expr ASC|DESC` in `ORDER BY` / `OVER (ORDER BY …)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: SqlExpr,
    pub desc: bool,
}

/// Window functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFun {
    RowNumber,
    Rank,
    DenseRank,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    CountStar,
    Sum,
    Min,
    Max,
    Avg,
    BoolAnd,
    BoolOr,
}

/// Scalar / window / aggregate expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// `alias.column` or bare `column`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// Integer literal (typing resolved at bind time via column-name
    /// suffixes).
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    /// Statement parameter `$n` (1-based, as written). The binder types
    /// it from the operand it meets or the `CAST` around it.
    Param(u32),
    Bin(SqlBinOp, Box<SqlExpr>, Box<SqlExpr>),
    Not(Box<SqlExpr>),
    Neg(Box<SqlExpr>),
    Case {
        when: Box<SqlExpr>,
        then: Box<SqlExpr>,
        els: Box<SqlExpr>,
    },
    Cast {
        expr: Box<SqlExpr>,
        ty: SqlTy,
    },
    Window {
        fun: WindowFun,
        partition_by: Vec<SqlExpr>,
        order_by: Vec<OrderItem>,
    },
    Agg {
        fun: AggName,
        /// `None` only for `COUNT (*)`.
        arg: Option<Box<SqlExpr>>,
    },
}

/// SQL type names accepted by `CAST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlTy {
    Bigint,
    Double,
    /// The surrogate/order domain (rendered `NUMERIC(18,0)`; recovered via
    /// `_nat` name suffixes as well).
    Nat,
    Varchar,
    Boolean,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
}

// --------------------------------------------------------------- printing

use std::fmt;

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.ctes.is_empty() {
            write!(f, "WITH ")?;
            for (i, c) in self.ctes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, " ")?;
        }
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{o}")?;
            }
        }
        write!(f, ";")
    }
}

impl fmt::Display for Cte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        write!(f, " AS ({})", self.body)
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::UnionAll(l, r) => write!(f, "{l} UNION ALL {r}"),
            SetExpr::Except(l, r) => write!(f, "{l} EXCEPT {r}"),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", it.expr)?;
            if let Some(a) = &it.alias {
                write!(f, " AS {a}")?;
            }
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, fr) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{fr}")?;
            }
        }
        if let Some(w) = &self.where_ {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromItem::Named { name, alias } => write!(f, "{name} AS {alias}"),
            FromItem::Derived { body, alias } => write!(f, "({body}) AS {alias}"),
        }
    }
}

impl fmt::Display for OrderItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}",
            self.expr,
            if self.desc { "DESC" } else { "ASC" }
        )
    }
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            SqlExpr::Int(i) => {
                if *i < 0 {
                    write!(f, "({i})")
                } else {
                    write!(f, "{i}")
                }
            }
            SqlExpr::Float(x) => {
                let s = format!("{x:?}");
                if s.contains('.') || s.contains('e') {
                    write!(f, "{s}")
                } else {
                    write!(f, "{s}.0")
                }
            }
            SqlExpr::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            SqlExpr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            SqlExpr::Param(n) => write!(f, "${n}"),
            SqlExpr::Bin(op, l, r) => {
                let sym = match op {
                    SqlBinOp::Add => "+",
                    SqlBinOp::Sub => "-",
                    SqlBinOp::Mul => "*",
                    SqlBinOp::Div => "/",
                    SqlBinOp::Mod => "%",
                    SqlBinOp::Eq => "=",
                    SqlBinOp::Ne => "<>",
                    SqlBinOp::Lt => "<",
                    SqlBinOp::Le => "<=",
                    SqlBinOp::Gt => ">",
                    SqlBinOp::Ge => ">=",
                    SqlBinOp::And => "AND",
                    SqlBinOp::Or => "OR",
                    SqlBinOp::Concat => "||",
                };
                write!(f, "({l} {sym} {r})")
            }
            SqlExpr::Not(x) => write!(f, "(NOT {x})"),
            SqlExpr::Neg(x) => write!(f, "(- {x})"),
            SqlExpr::Case { when, then, els } => {
                write!(f, "CASE WHEN {when} THEN {then} ELSE {els} END")
            }
            SqlExpr::Cast { expr, ty } => {
                let t = match ty {
                    SqlTy::Bigint => "BIGINT",
                    SqlTy::Double => "DOUBLE PRECISION",
                    SqlTy::Nat => "NUMERIC(18,0)",
                    SqlTy::Varchar => "VARCHAR",
                    SqlTy::Boolean => "BOOLEAN",
                };
                write!(f, "CAST({expr} AS {t})")
            }
            SqlExpr::Window {
                fun,
                partition_by,
                order_by,
            } => {
                let name = match fun {
                    WindowFun::RowNumber => "ROW_NUMBER",
                    WindowFun::Rank => "RANK",
                    WindowFun::DenseRank => "DENSE_RANK",
                };
                write!(f, "{name} () OVER (")?;
                if !partition_by.is_empty() {
                    write!(f, "PARTITION BY ")?;
                    for (i, p) in partition_by.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    if !order_by.is_empty() {
                        write!(f, " ")?;
                    }
                }
                if !order_by.is_empty() {
                    write!(f, "ORDER BY ")?;
                    for (i, o) in order_by.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{o}")?;
                    }
                }
                write!(f, ")")
            }
            SqlExpr::Agg { fun, arg } => {
                let name = match fun {
                    AggName::CountStar => return write!(f, "COUNT (*)"),
                    AggName::Sum => "SUM",
                    AggName::Min => "MIN",
                    AggName::Max => "MAX",
                    AggName::Avg => "AVG",
                    AggName::BoolAnd => "BOOL_AND",
                    AggName::BoolOr => "BOOL_OR",
                };
                write!(f, "{name} ({})", arg.as_ref().expect("aggregate argument"))
            }
        }
    }
}
