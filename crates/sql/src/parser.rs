//! Recursive-descent parser for the supported SQL dialect.
//!
//! Statement text arrives from the socket, and the parser, the binder and
//! the AST's own `Drop` all recurse once per level of the tree, so depth
//! is a budget: a statement deeper than [`MAX_DEPTH`] levels is refused
//! with a [`SqlError::Parse`] that names the limit. The limit bounds two
//! depths. The tree's: every expression node, every `SELECT` and every
//! set operation, derived table and CTE body is one level, and a
//! left-deep chain built by a loop (`1 + 1 + … + 1`, `a AND b AND …`,
//! `… UNION ALL …`) counts as deep as the tree it is. And the parser's
//! own: the constructs open around a token, a parenthesis included. A
//! parenthesis builds no node, so it is no level of the tree, and the
//! parentheses the code generator puts around every operator cost its
//! SQL nothing beyond the expression's own depth. The parser checks the
//! budget before it recurses into a nested construct, and again
//! whenever it builds a node.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::ast::*;
use crate::lexer::{lex, Tok};
use crate::SqlError;

/// The deepest statement the parser accepts, in levels of its tree and
/// of open constructs (see the module docs). The code generator's SQL is
/// as deep as the plan's deepest expression, plus a few levels, plus
/// ⌈log2 n⌉ for a literal table of n rows. A statement at the limit
/// runs end to end (parse, bind, optimize, execute) on a server
/// session's 2 MiB stack in a debug build; one of 384 levels overflows
/// that stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed node and its depth: the levels of its tree, a leaf being 1.
type Parsed<T> = (T, usize);

/// Binary operator precedences, loosest first.
const OR: u8 = 1;
const AND: u8 = 2;
const CMP: u8 = 3;
const ADD: u8 = 4;
const MUL: u8 = 5;

fn too_deep() -> SqlError {
    SqlError::Parse(format!(
        "statement nests deeper than the limit of {MAX_DEPTH} levels"
    ))
}

/// The depth of a node over children of depth `h`, if within budget.
fn up(h: usize) -> Result<usize, SqlError> {
    if h >= MAX_DEPTH {
        return Err(too_deep());
    }
    Ok(h + 1)
}

/// Parse one statement (a query, optionally with CTEs and a final ORDER BY).
pub fn parse(input: &str) -> Result<Statement, SqlError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_semicolons();
    if let Some(tok) = p.peek() {
        return Err(SqlError::Parse(format!("trailing input at token {tok:?}")));
    }
    Ok(stmt)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Nested constructs open around the current token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, SqlError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SqlError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: &Tok) -> Result<(), SqlError> {
        let got = self.next()?;
        if got == *t {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {t:?}, got {got:?}")))
        }
    }

    /// Case-insensitive keyword check; consumes on match.
    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected keyword {kw}, got {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            t => Err(SqlError::Parse(format!("expected identifier, got {t:?}"))),
        }
    }

    /// Parse inside one more open construct, checking the budget before
    /// recursing. A parenthesis is only this: it builds no node.
    fn open<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth >= MAX_DEPTH {
            return Err(too_deep());
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Parse a nested construct one level down: an open construct whose
    /// node is one level deeper than its contents.
    fn nest<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Parsed<T>, SqlError>,
    ) -> Result<Parsed<T>, SqlError> {
        let (t, h) = self.open(parse)?;
        Ok((t, up(h)?))
    }

    /// A comma-separated list of expressions, and the depth of the
    /// deepest.
    fn expr_list(&mut self) -> Result<Parsed<Vec<SqlExpr>>, SqlError> {
        let mut out = Vec::new();
        let mut h = 0;
        loop {
            let (e, he) = self.expr()?;
            out.push(e);
            h = h.max(he);
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
            } else {
                return Ok((out, h));
            }
        }
    }

    fn eat_semicolons(&mut self) {
        while matches!(self.peek(), Some(Tok::Semicolon)) {
            self.pos += 1;
        }
    }

    // ---------------------------------------------------------- statement

    fn statement(&mut self) -> Result<Statement, SqlError> {
        let mut ctes = Vec::new();
        if self.keyword("WITH") {
            loop {
                ctes.push(self.cte()?);
                if !matches!(self.peek(), Some(Tok::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        let (body, _) = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.keyword("ORDER") {
            self.expect_keyword("BY")?;
            (order_by, _) = self.order_items()?;
        }
        Ok(Statement {
            ctes,
            body,
            order_by,
        })
    }

    fn cte(&mut self) -> Result<Cte, SqlError> {
        let name = self.ident()?;
        let mut columns = Vec::new();
        if matches!(self.peek(), Some(Tok::LParen)) {
            // lookahead: a column list, not `AS (`
            self.pos += 1;
            loop {
                columns.push(self.ident()?);
                match self.next()? {
                    Tok::Comma => continue,
                    Tok::RParen => break,
                    t => return Err(SqlError::Parse(format!("in CTE columns: {t:?}"))),
                }
            }
        }
        self.expect_keyword("AS")?;
        self.expect(&Tok::LParen)?;
        let (body, _) = self.nest(Self::set_expr)?;
        self.expect(&Tok::RParen)?;
        Ok(Cte {
            name,
            columns,
            body,
        })
    }

    fn set_expr(&mut self) -> Result<Parsed<SetExpr>, SqlError> {
        let (mut left, mut h) = self.set_primary()?;
        loop {
            let op: fn(_, _) -> SetExpr = if self.keyword("UNION") {
                self.expect_keyword("ALL")?;
                SetExpr::UnionAll
            } else if self.keyword("EXCEPT") {
                SetExpr::Except
            } else {
                break;
            };
            let (right, hr) = self.set_primary()?;
            h = up(h.max(hr))?;
            left = op(Box::new(left), Box::new(right));
        }
        Ok((left, h))
    }

    fn set_primary(&mut self) -> Result<Parsed<SetExpr>, SqlError> {
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            let e = self.open(Self::set_expr)?;
            self.expect(&Tok::RParen)?;
            return Ok(e);
        }
        let (select, h) = self.select()?;
        Ok((SetExpr::Select(Box::new(select)), h))
    }

    fn select(&mut self) -> Result<Parsed<Select>, SqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.keyword("DISTINCT");
        let mut items = Vec::new();
        let mut h = 0;
        loop {
            let (expr, he) = self.expr()?;
            h = h.max(he);
            let alias = if self.keyword("AS") {
                Some(self.ident()?)
            } else {
                None
            };
            items.push(SelectItem { expr, alias });
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let mut from = Vec::new();
        if self.keyword("FROM") {
            loop {
                let (item, hf) = self.from_item()?;
                from.push(item);
                h = h.max(hf);
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let where_ = if self.keyword("WHERE") {
            let (e, hw) = self.expr()?;
            h = h.max(hw);
            Some(e)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            let (keys, hg) = self.expr_list()?;
            group_by = keys;
            h = h.max(hg);
        }
        let select = Select {
            distinct,
            items,
            from,
            where_,
            group_by,
        };
        Ok((select, up(h)?))
    }

    // parser-state method, not a conversion constructor
    #[allow(clippy::wrong_self_convention)]
    fn from_item(&mut self) -> Result<Parsed<FromItem>, SqlError> {
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            let (body, h) = self.nest(Self::set_expr)?;
            self.expect(&Tok::RParen)?;
            self.keyword("AS");
            let alias = self.ident()?;
            let derived = FromItem::Derived {
                body: Box::new(body),
                alias,
            };
            return Ok((derived, h));
        }
        let mut name = self.ident()?;
        // dotted table names (`ferry.connections`): the dot is part of
        // the catalog name, not a scope qualifier
        while matches!(self.peek(), Some(Tok::Dot)) {
            self.pos += 1;
            name = format!("{name}.{}", self.ident()?);
        }
        // `AS alias`, a bare implicit alias, or none at all
        let has_implicit_alias = matches!(self.peek(), Some(Tok::Ident(s))
            if !is_clause_keyword(s));
        let alias = if self.keyword("AS") || has_implicit_alias {
            self.ident()?
        } else {
            name.clone()
        };
        Ok((FromItem::Named { name, alias }, 1))
    }

    fn order_items(&mut self) -> Result<Parsed<Vec<OrderItem>>, SqlError> {
        let mut out = Vec::new();
        let mut h = 0;
        loop {
            let (expr, he) = self.expr()?;
            h = h.max(he);
            let desc = if self.keyword("DESC") {
                true
            } else {
                self.keyword("ASC");
                false
            };
            out.push(OrderItem { expr, desc });
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok((out, h))
    }

    // -------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Parsed<SqlExpr>, SqlError> {
        self.binary(OR)
    }

    /// The binary operator at the current token and its precedence.
    fn peek_op(&self) -> Option<(SqlBinOp, u8)> {
        let op = match self.peek()? {
            Tok::Ident(s) if s.eq_ignore_ascii_case("OR") => (SqlBinOp::Or, OR),
            Tok::Ident(s) if s.eq_ignore_ascii_case("AND") => (SqlBinOp::And, AND),
            Tok::Eq => (SqlBinOp::Eq, CMP),
            Tok::Ne => (SqlBinOp::Ne, CMP),
            Tok::Lt => (SqlBinOp::Lt, CMP),
            Tok::Le => (SqlBinOp::Le, CMP),
            Tok::Gt => (SqlBinOp::Gt, CMP),
            Tok::Ge => (SqlBinOp::Ge, CMP),
            Tok::Plus => (SqlBinOp::Add, ADD),
            Tok::Minus => (SqlBinOp::Sub, ADD),
            Tok::Concat => (SqlBinOp::Concat, ADD),
            Tok::Star => (SqlBinOp::Mul, MUL),
            Tok::Slash => (SqlBinOp::Div, MUL),
            Tok::Percent => (SqlBinOp::Mod, MUL),
            _ => return None,
        };
        Some(op)
    }

    /// An expression whose operators bind at least as tightly as `min`,
    /// by precedence climbing over the grammar
    ///
    /// ```text
    /// or  := and (OR and)*          add := mul ((+ | - | ||) mul)*
    /// and := not (AND not)*         mul := un ((* | / | %) un)*
    /// not := NOT not | cmp          un  := - un | primary
    /// cmp := add [(= | <> | < | <= | > | >=) add]
    /// ```
    ///
    /// Chains build left-deep, each operator one level over the chain so
    /// far. After an operator of precedence `p` only operators of
    /// precedence `p` or looser may extend the chain, and after a
    /// comparison or a `NOT` only `AND` and `OR`, as in the grammar.
    fn binary(&mut self, min: u8) -> Result<Parsed<SqlExpr>, SqlError> {
        let (mut e, mut h, mut max) = if min <= CMP && self.keyword("NOT") {
            let (e, h) = self.nest(|p| p.binary(CMP))?;
            (SqlExpr::Not(Box::new(e)), h, AND)
        } else {
            let (e, h) = self.unary()?;
            (e, h, MUL)
        };
        while let Some((op, prec)) = self.peek_op() {
            if prec < min || prec > max {
                break;
            }
            self.pos += 1;
            let (r, hr) = self.binary(prec + 1)?;
            h = up(h.max(hr))?;
            e = SqlExpr::Bin(op, Box::new(e), Box::new(r));
            max = if prec == CMP { AND } else { prec };
        }
        Ok((e, h))
    }

    fn unary(&mut self) -> Result<Parsed<SqlExpr>, SqlError> {
        if matches!(self.peek(), Some(Tok::Minus)) {
            self.pos += 1;
            let (e, h) = self.nest(Self::unary)?;
            return Ok((SqlExpr::Neg(Box::new(e)), h));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Parsed<SqlExpr>, SqlError> {
        let leaf = match self.next()? {
            Tok::Int(i) => SqlExpr::Int(i),
            Tok::Float(f) => SqlExpr::Float(f),
            Tok::Str(s) => SqlExpr::Str(s),
            Tok::Param(n) => SqlExpr::Param(n),
            Tok::LParen => {
                let e = self.open(Self::expr)?;
                self.expect(&Tok::RParen)?;
                return Ok(e);
            }
            Tok::Ident(id) => return self.ident_led(id),
            t => return Err(SqlError::Parse(format!("unexpected token {t:?}"))),
        };
        Ok((leaf, 1))
    }

    /// Expressions starting with an identifier: literals, CASE, CAST,
    /// window functions, aggregates, column references.
    fn ident_led(&mut self, id: String) -> Result<Parsed<SqlExpr>, SqlError> {
        let upper = id.to_ascii_uppercase();
        match upper.as_str() {
            "TRUE" => return Ok((SqlExpr::Bool(true), 1)),
            "FALSE" => return Ok((SqlExpr::Bool(false), 1)),
            "CASE" => {
                return self.nest(|p| {
                    p.expect_keyword("WHEN")?;
                    let (when, hw) = p.expr()?;
                    p.expect_keyword("THEN")?;
                    let (then, ht) = p.expr()?;
                    p.expect_keyword("ELSE")?;
                    let (els, he) = p.expr()?;
                    p.expect_keyword("END")?;
                    let case = SqlExpr::Case {
                        when: Box::new(when),
                        then: Box::new(then),
                        els: Box::new(els),
                    };
                    Ok((case, hw.max(ht).max(he)))
                });
            }
            "CAST" => {
                self.expect(&Tok::LParen)?;
                let (e, h) = self.nest(Self::expr)?;
                self.expect_keyword("AS")?;
                let ty = self.type_name()?;
                self.expect(&Tok::RParen)?;
                let cast = SqlExpr::Cast {
                    expr: Box::new(e),
                    ty,
                };
                return Ok((cast, h));
            }
            "ROW_NUMBER" | "RANK" | "DENSE_RANK" => {
                let fun = match upper.as_str() {
                    "ROW_NUMBER" => WindowFun::RowNumber,
                    "RANK" => WindowFun::Rank,
                    _ => WindowFun::DenseRank,
                };
                self.expect(&Tok::LParen)?;
                self.expect(&Tok::RParen)?;
                self.expect_keyword("OVER")?;
                self.expect(&Tok::LParen)?;
                let (window, h) = self.nest(|p| {
                    let (mut partition_by, mut h) = (Vec::new(), 0);
                    if p.keyword("PARTITION") {
                        p.expect_keyword("BY")?;
                        (partition_by, h) = p.expr_list()?;
                    }
                    let mut order_by = Vec::new();
                    if p.keyword("ORDER") {
                        p.expect_keyword("BY")?;
                        let (items, ho) = p.order_items()?;
                        order_by = items;
                        h = h.max(ho);
                    }
                    let window = SqlExpr::Window {
                        fun,
                        partition_by,
                        order_by,
                    };
                    Ok((window, h))
                })?;
                self.expect(&Tok::RParen)?;
                return Ok((window, h));
            }
            "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" | "BOOL_AND" | "BOOL_OR" => {
                self.expect(&Tok::LParen)?;
                if upper == "COUNT" && matches!(self.peek(), Some(Tok::Star)) {
                    self.pos += 1;
                    self.expect(&Tok::RParen)?;
                    let count = SqlExpr::Agg {
                        fun: AggName::CountStar,
                        arg: None,
                    };
                    return Ok((count, 1));
                }
                let fun = match upper.as_str() {
                    "SUM" => AggName::Sum,
                    "MIN" => AggName::Min,
                    "MAX" => AggName::Max,
                    "AVG" => AggName::Avg,
                    "BOOL_AND" => AggName::BoolAnd,
                    "BOOL_OR" => AggName::BoolOr,
                    _ => return Err(SqlError::Parse("only COUNT (*) is supported".into())),
                };
                let (arg, h) = self.nest(Self::expr)?;
                self.expect(&Tok::RParen)?;
                let agg = SqlExpr::Agg {
                    fun,
                    arg: Some(Box::new(arg)),
                };
                return Ok((agg, h));
            }
            _ => {}
        }
        // column reference: `id` or `id.col`
        let column = if matches!(self.peek(), Some(Tok::Dot)) {
            self.pos += 1;
            let col = self.ident()?;
            SqlExpr::Column {
                qualifier: Some(id),
                name: col,
            }
        } else {
            SqlExpr::Column {
                qualifier: None,
                name: id,
            }
        };
        Ok((column, 1))
    }

    fn type_name(&mut self) -> Result<SqlTy, SqlError> {
        let id = self.ident()?.to_ascii_uppercase();
        let ty = match id.as_str() {
            "BIGINT" | "INTEGER" | "INT" => SqlTy::Bigint,
            "DOUBLE" => {
                self.keyword("PRECISION");
                SqlTy::Double
            }
            "FLOAT" | "REAL" => SqlTy::Double,
            "NUMERIC" | "DECIMAL" => {
                // optional (p, s) — NUMERIC(18,0) is our Nat rendering
                if matches!(self.peek(), Some(Tok::LParen)) {
                    self.pos += 1;
                    let _ = self.next()?;
                    if matches!(self.peek(), Some(Tok::Comma)) {
                        self.pos += 1;
                        let _ = self.next()?;
                    }
                    self.expect(&Tok::RParen)?;
                }
                SqlTy::Nat
            }
            "VARCHAR" | "TEXT" | "CHAR" => {
                if matches!(self.peek(), Some(Tok::LParen)) {
                    self.pos += 1;
                    let _ = self.next()?;
                    self.expect(&Tok::RParen)?;
                }
                SqlTy::Varchar
            }
            "BOOLEAN" | "BOOL" => SqlTy::Boolean,
            t => return Err(SqlError::Parse(format!("unknown type {t}"))),
        };
        Ok(ty)
    }
}

fn is_clause_keyword(s: &str) -> bool {
    [
        "WHERE", "GROUP", "ORDER", "UNION", "EXCEPT", "ON", "AS", "FROM", "SELECT",
    ]
    .iter()
    .any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s =
            parse("SELECT a.x AS y, 1 AS one FROM t AS a WHERE a.x < 3 ORDER BY y ASC;").unwrap();
        assert!(s.ctes.is_empty());
        let SetExpr::Select(sel) = &s.body else {
            panic!()
        };
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.from.len(), 1);
        assert!(sel.where_.is_some());
        assert_eq!(s.order_by.len(), 1);
    }

    #[test]
    fn parses_ctes_and_windows() {
        let sql = r#"
            WITH t0 (a, b) AS (SELECT x AS a, DENSE_RANK () OVER (ORDER BY x ASC) AS b FROM t)
            SELECT t0.a AS a FROM t0 AS t0
        "#;
        let s = parse(sql).unwrap();
        assert_eq!(s.ctes.len(), 1);
        assert_eq!(s.ctes[0].columns, vec!["a", "b"]);
    }

    #[test]
    fn parses_group_by_aggregates() {
        let s = parse("SELECT k AS k, COUNT (*) AS n, SUM (v) AS s FROM t GROUP BY k").unwrap();
        let SetExpr::Select(sel) = &s.body else {
            panic!()
        };
        assert_eq!(sel.group_by.len(), 1);
        assert!(matches!(
            sel.items[1].expr,
            SqlExpr::Agg {
                fun: AggName::CountStar,
                ..
            }
        ));
    }

    #[test]
    fn parses_union_except() {
        let s = parse("SELECT 1 AS x UNION ALL SELECT 2 AS x EXCEPT SELECT 3 AS x").unwrap();
        assert!(matches!(s.body, SetExpr::Except(..)));
    }

    #[test]
    fn parses_case_cast_derived() {
        let sql = "SELECT CASE WHEN a = 1 THEN 'y' ELSE 'n' END AS c, \
                   CAST(a AS DOUBLE PRECISION) AS d \
                   FROM (SELECT 1 AS a) AS q";
        let s = parse(sql).unwrap();
        let SetExpr::Select(sel) = &s.body else {
            panic!()
        };
        assert!(matches!(sel.from[0], FromItem::Derived { .. }));
        assert!(matches!(sel.items[0].expr, SqlExpr::Case { .. }));
    }

    #[test]
    fn parses_window_with_partition() {
        let sql = "SELECT ROW_NUMBER () OVER (PARTITION BY a.k ORDER BY a.p DESC) AS rn \
                   FROM t AS a";
        let s = parse(sql).unwrap();
        let SetExpr::Select(sel) = &s.body else {
            panic!()
        };
        match &sel.items[0].expr {
            SqlExpr::Window {
                fun,
                partition_by,
                order_by,
            } => {
                assert_eq!(*fun, WindowFun::RowNumber);
                assert_eq!(partition_by.len(), 1);
                assert!(order_by[0].desc);
            }
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT 1 AS x blah blah").is_err());
        assert!(parse("SELECT").is_err());
    }

    /// A statement of exactly `levels` levels in each shape the budget
    /// must see: parentheses, `NOT`, unary minus, the loop-built chains
    /// of `+`, `AND` and `UNION ALL`, and the code generator's
    /// parenthesised chain. A `SELECT` of a leaf is 2 levels of the tree,
    /// and each operator or set operation adds one; a parenthesis is one
    /// level of open constructs and none of the tree.
    fn deep(levels: usize) -> [String; 7] {
        let n = levels - 2;
        [
            format!("SELECT {}1{}", "(".repeat(levels), ")".repeat(levels)),
            format!("SELECT {}1{}", "(".repeat(n), " + 1)".repeat(n)),
            format!("SELECT {}TRUE", "NOT ".repeat(n)),
            format!("SELECT {}1", "- ".repeat(n)),
            format!("SELECT 1{}", " + 1".repeat(n)),
            format!("SELECT TRUE{}", " AND TRUE".repeat(n)),
            format!("SELECT 1 AS x{}", " UNION ALL SELECT 1 AS x".repeat(n)),
        ]
    }

    #[test]
    fn nesting_past_the_depth_budget_is_refused() {
        let refusal = SqlError::Parse(format!(
            "statement nests deeper than the limit of {MAX_DEPTH} levels"
        ));
        for levels in [MAX_DEPTH + 1, 100_000] {
            for sql in deep(levels) {
                assert_eq!(parse(&sql).unwrap_err(), refusal, "{}", &sql[..40]);
            }
        }
    }

    #[test]
    fn nesting_at_the_depth_budget_parses() {
        for sql in deep(MAX_DEPTH) {
            parse(&sql).unwrap_or_else(|e| panic!("{}: {e}", &sql[..40]));
        }
    }

    #[test]
    fn implicit_alias_from_item() {
        let s = parse("SELECT t.x AS x FROM facilities t WHERE t.x = 1").unwrap();
        let SetExpr::Select(sel) = &s.body else {
            panic!()
        };
        match &sel.from[0] {
            FromItem::Named { name, alias } => {
                assert_eq!(name, "facilities");
                assert_eq!(alias, "t");
            }
            f => panic!("{f:?}"),
        }
    }
}
