//! Recursive-descent parser for the supported SQL dialect.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::ast::*;
use crate::lexer::{lex, Tok};
use crate::SqlError;

/// Parse one statement (a query, optionally with CTEs and a final ORDER BY).
pub fn parse(input: &str) -> Result<Statement, SqlError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
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

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
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
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.keyword("ORDER") {
            self.expect_keyword("BY")?;
            order_by = self.order_items()?;
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
        let body = self.set_expr()?;
        self.expect(&Tok::RParen)?;
        Ok(Cte {
            name,
            columns,
            body,
        })
    }

    fn set_expr(&mut self) -> Result<SetExpr, SqlError> {
        let mut left = self.set_primary()?;
        loop {
            if self.peek_keyword("UNION") {
                self.pos += 1;
                self.expect_keyword("ALL")?;
                let right = self.set_primary()?;
                left = SetExpr::UnionAll(Box::new(left), Box::new(right));
            } else if self.peek_keyword("EXCEPT") {
                self.pos += 1;
                let right = self.set_primary()?;
                left = SetExpr::Except(Box::new(left), Box::new(right));
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn set_primary(&mut self) -> Result<SetExpr, SqlError> {
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            let e = self.set_expr()?;
            self.expect(&Tok::RParen)?;
            return Ok(e);
        }
        Ok(SetExpr::Select(Box::new(self.select()?)))
    }

    fn select(&mut self) -> Result<Select, SqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.keyword("DISTINCT");
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
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
                from.push(self.from_item()?);
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let where_ = if self.keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        Ok(Select {
            distinct,
            items,
            from,
            where_,
            group_by,
        })
    }

    // parser-state method, not a conversion constructor
    #[allow(clippy::wrong_self_convention)]
    fn from_item(&mut self) -> Result<FromItem, SqlError> {
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            let body = self.set_expr()?;
            self.expect(&Tok::RParen)?;
            self.keyword("AS");
            let alias = self.ident()?;
            return Ok(FromItem::Derived {
                body: Box::new(body),
                alias,
            });
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
        Ok(FromItem::Named { name, alias })
    }

    fn order_items(&mut self) -> Result<Vec<OrderItem>, SqlError> {
        let mut out = Vec::new();
        loop {
            let expr = self.expr()?;
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
        Ok(out)
    }

    // -------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<SqlExpr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut e = self.and_expr()?;
        while self.keyword("OR") {
            let r = self.and_expr()?;
            e = SqlExpr::Bin(SqlBinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut e = self.not_expr()?;
        while self.keyword("AND") {
            let r = self.not_expr()?;
            e = SqlExpr::Bin(SqlBinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, SqlError> {
        if self.keyword("NOT") {
            let e = self.not_expr()?;
            return Ok(SqlExpr::Not(Box::new(e)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let l = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(SqlBinOp::Eq),
            Some(Tok::Ne) => Some(SqlBinOp::Ne),
            Some(Tok::Lt) => Some(SqlBinOp::Lt),
            Some(Tok::Le) => Some(SqlBinOp::Le),
            Some(Tok::Gt) => Some(SqlBinOp::Gt),
            Some(Tok::Ge) => Some(SqlBinOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let r = self.add_expr()?;
                Ok(SqlExpr::Bin(op, Box::new(l), Box::new(r)))
            }
            None => Ok(l),
        }
    }

    fn add_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => SqlBinOp::Add,
                Some(Tok::Minus) => SqlBinOp::Sub,
                Some(Tok::Concat) => SqlBinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let r = self.mul_expr()?;
            e = SqlExpr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut e = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => SqlBinOp::Mul,
                Some(Tok::Slash) => SqlBinOp::Div,
                Some(Tok::Percent) => SqlBinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let r = self.unary()?;
            e = SqlExpr::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<SqlExpr, SqlError> {
        if matches!(self.peek(), Some(Tok::Minus)) {
            self.pos += 1;
            let e = self.unary()?;
            return Ok(SqlExpr::Neg(Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr, SqlError> {
        match self.next()? {
            Tok::Int(i) => Ok(SqlExpr::Int(i)),
            Tok::Float(f) => Ok(SqlExpr::Float(f)),
            Tok::Str(s) => Ok(SqlExpr::Str(s)),
            Tok::Param(n) => Ok(SqlExpr::Param(n)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(id) => self.ident_led(id),
            t => Err(SqlError::Parse(format!("unexpected token {t:?}"))),
        }
    }

    /// Expressions starting with an identifier: literals, CASE, CAST,
    /// window functions, aggregates, column references.
    fn ident_led(&mut self, id: String) -> Result<SqlExpr, SqlError> {
        let upper = id.to_ascii_uppercase();
        match upper.as_str() {
            "TRUE" => return Ok(SqlExpr::Bool(true)),
            "FALSE" => return Ok(SqlExpr::Bool(false)),
            "CASE" => {
                self.expect_keyword("WHEN")?;
                let when = self.expr()?;
                self.expect_keyword("THEN")?;
                let then = self.expr()?;
                self.expect_keyword("ELSE")?;
                let els = self.expr()?;
                self.expect_keyword("END")?;
                return Ok(SqlExpr::Case {
                    when: Box::new(when),
                    then: Box::new(then),
                    els: Box::new(els),
                });
            }
            "CAST" => {
                self.expect(&Tok::LParen)?;
                let e = self.expr()?;
                self.expect_keyword("AS")?;
                let ty = self.type_name()?;
                self.expect(&Tok::RParen)?;
                return Ok(SqlExpr::Cast {
                    expr: Box::new(e),
                    ty,
                });
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
                let mut partition_by = Vec::new();
                if self.keyword("PARTITION") {
                    self.expect_keyword("BY")?;
                    loop {
                        partition_by.push(self.expr()?);
                        if matches!(self.peek(), Some(Tok::Comma)) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                let mut order_by = Vec::new();
                if self.keyword("ORDER") {
                    self.expect_keyword("BY")?;
                    order_by = self.order_items()?;
                }
                self.expect(&Tok::RParen)?;
                return Ok(SqlExpr::Window {
                    fun,
                    partition_by,
                    order_by,
                });
            }
            "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" | "BOOL_AND" | "BOOL_OR" => {
                self.expect(&Tok::LParen)?;
                if upper == "COUNT" && matches!(self.peek(), Some(Tok::Star)) {
                    self.pos += 1;
                    self.expect(&Tok::RParen)?;
                    return Ok(SqlExpr::Agg {
                        fun: AggName::CountStar,
                        arg: None,
                    });
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
                let arg = self.expr()?;
                self.expect(&Tok::RParen)?;
                return Ok(SqlExpr::Agg {
                    fun,
                    arg: Some(Box::new(arg)),
                });
            }
            _ => {}
        }
        // column reference: `id` or `id.col`
        if matches!(self.peek(), Some(Tok::Dot)) {
            self.pos += 1;
            let col = self.ident()?;
            Ok(SqlExpr::Column {
                qualifier: Some(id),
                name: col,
            })
        } else {
            Ok(SqlExpr::Column {
                qualifier: None,
                name: id,
            })
        }
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
