//! Recursive-descent parser producing [`crate::ast`] values.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Keyword as K, Token, TokenKind as T};
use nsql_types::{ColumnType, Date, Value};

/// Parse a single SELECT query (a trailing `;` is allowed).
pub fn parse_query(src: &str) -> Result<QueryBlock, ParseError> {
    let mut p = Parser::new(src)?;
    p.expect_keyword(K::Select)?;
    let q = p.parse_query_body()?;
    p.eat(&T::Semi);
    p.expect_eof()?;
    Ok(q)
}

/// Parse a single statement (CREATE TABLE / INSERT / SELECT / EXPLAIN).
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let mut p = Parser::new(src)?;
    let s = p.parse_statement()?;
    p.eat(&T::Semi);
    p.expect_eof()?;
    Ok(s)
}

/// Parse a `;`-separated script of statements.
pub fn parse_statements(src: &str) -> Result<Vec<Statement>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&T::Semi) {}
        if p.at_eof() {
            break;
        }
        out.push(p.parse_statement()?);
        if !p.eat(&T::Semi) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Deepest nesting the parser accepts, counting every query block, `NOT`
/// and parenthesized predicate on the path from the statement down. Each
/// later stage recurses over the AST, so the bound keeps deep input from
/// overflowing the stack: a 2 MiB thread evaluates a chain this deep of
/// correlated subqueries in a debug build.
pub const MAX_NESTING_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser { tokens: lex(src)?, pos: 0, depth: 0 })
    }

    /// Run `parse` one nesting level deeper, refusing input that nests
    /// past [`MAX_NESTING_DEPTH`].
    fn nested<R>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<R, ParseError>,
    ) -> Result<R, ParseError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.err(format!("nesting depth exceeds the limit of {MAX_NESTING_DEPTH}")));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &T {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &T {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> T {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), T::Eof)
    }

    fn eat(&mut self, kind: &T) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: K) -> bool {
        self.eat(&T::Keyword(k))
    }

    fn expect(&mut self, kind: &T) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_keyword(&mut self, k: K) -> Result<(), ParseError> {
        self.expect(&T::Keyword(k))
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.offset(), message)
    }

    fn parse_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().clone() {
            T::Ident(s) => {
                self.advance();
                Ok(s.to_ascii_uppercase())
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    // ---------------------------------------------------------------- statements

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword(K::Select) {
            return Ok(Statement::Select(self.parse_query_body()?));
        }
        if self.eat_keyword(K::Explain) {
            let analyze = self.eat_keyword(K::Analyze);
            self.expect_keyword(K::Select)?;
            return Ok(Statement::Explain { analyze, query: self.parse_query_body()? });
        }
        if self.eat_keyword(K::Create) {
            self.expect_keyword(K::Table)?;
            return self.parse_create_table();
        }
        if self.eat_keyword(K::Insert) {
            self.expect_keyword(K::Into)?;
            return self.parse_insert();
        }
        Err(self.err(format!(
            "expected SELECT, EXPLAIN, CREATE TABLE, or INSERT INTO; found {}",
            self.peek()
        )))
    }

    fn parse_create_table(&mut self) -> Result<Statement, ParseError> {
        let name = self.parse_ident("table name")?;
        self.expect(&T::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.parse_ident("column name")?;
            let ty = self.parse_column_type()?;
            columns.push((col, ty));
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect(&T::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn parse_column_type(&mut self) -> Result<ColumnType, ParseError> {
        let ty = match self.peek() {
            T::Keyword(K::Int) | T::Keyword(K::Integer) => ColumnType::Int,
            T::Keyword(K::Float) | T::Keyword(K::Real) => ColumnType::Float,
            T::Keyword(K::String) | T::Keyword(K::Char) | T::Keyword(K::Varchar)
            | T::Keyword(K::Text) => ColumnType::Str,
            T::Keyword(K::Date) => ColumnType::Date,
            other => return Err(self.err(format!("expected column type, found {other}"))),
        };
        self.advance();
        // Allow CHAR(20)-style width annotations; width is ignored.
        if self.eat(&T::LParen) {
            match self.advance() {
                T::Int(_) => {}
                other => return Err(self.err(format!("expected type width, found {other}"))),
            }
            self.expect(&T::RParen)?;
        }
        Ok(ty)
    }

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        let table = self.parse_ident("table name")?;
        self.expect_keyword(K::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&T::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_literal()?);
                if !self.eat(&T::Comma) {
                    break;
                }
            }
            self.expect(&T::RParen)?;
            rows.push(row);
            if !self.eat(&T::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    // ---------------------------------------------------------------- queries

    /// Parse the remainder of a query after `SELECT` has been consumed.
    fn parse_query_body(&mut self) -> Result<QueryBlock, ParseError> {
        self.nested(Self::parse_block_clauses)
    }

    fn parse_block_clauses(&mut self) -> Result<QueryBlock, ParseError> {
        let distinct = self.eat_keyword(K::Distinct);
        let mut select = Vec::new();
        loop {
            select.push(self.parse_select_item()?);
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect_keyword(K::From)?;
        let mut from = Vec::new();
        loop {
            from.push(self.parse_table_ref()?);
            if !self.eat(&T::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword(K::Where) {
            Some(self.parse_predicate()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(K::Group) {
            self.expect_keyword(K::By)?;
            loop {
                group_by.push(self.parse_column_ref()?);
                if !self.eat(&T::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword(K::Order) {
            self.expect_keyword(K::By)?;
            loop {
                let column = self.parse_column_ref()?;
                let dir = if self.eat_keyword(K::Desc) {
                    SortDir::Desc
                } else {
                    self.eat_keyword(K::Asc);
                    SortDir::Asc
                };
                order_by.push(OrderKey { column, dir });
                if !self.eat(&T::Comma) {
                    break;
                }
            }
        }
        Ok(QueryBlock { distinct, select, from, where_clause, group_by, order_by })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        let expr = match self.peek().clone() {
            T::Keyword(k) if agg_keyword(k).is_some() => {
                let func = agg_keyword(k).expect("guard");
                self.advance();
                self.expect(&T::LParen)?;
                let arg = if self.eat(&T::Star) {
                    if func != AggFunc::Count {
                        return Err(self.err(format!("{}(*) is only valid for COUNT", func.name())));
                    }
                    AggArg::Star
                } else {
                    AggArg::Column(self.parse_column_ref()?)
                };
                self.expect(&T::RParen)?;
                ScalarExpr::Aggregate(func, arg)
            }
            T::Ident(_) => ScalarExpr::Column(self.parse_column_ref()?),
            _ => ScalarExpr::Literal(self.parse_literal()?),
        };
        let alias = if self.eat_keyword(K::As) {
            Some(self.parse_ident("alias")?)
        } else if let T::Ident(_) = self.peek() {
            Some(self.parse_ident("alias")?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.parse_ident("table name")?;
        let alias = if self.eat_keyword(K::As) {
            Some(self.parse_ident("alias")?)
        } else if let T::Ident(_) = self.peek() {
            Some(self.parse_ident("alias")?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn parse_column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.parse_ident("column name")?;
        if self.eat(&T::Dot) {
            let column = self.parse_ident("column name")?;
            Ok(ColumnRef { table: Some(first), column })
        } else {
            Ok(ColumnRef { table: None, column: first })
        }
    }

    // ---------------------------------------------------------------- literals

    /// Parse a literal value: numbers (optionally signed), strings, NULL,
    /// `DATE '…'`, and the paper's bare `M-D-YY` / `M/D/YY` date forms.
    fn parse_literal(&mut self) -> Result<Value, ParseError> {
        if self.eat_keyword(K::Null) {
            return Ok(Value::Null);
        }
        if self.eat_keyword(K::Date) {
            return match self.advance() {
                T::Str(s) => Date::parse(&s)
                    .map(Value::Date)
                    .map_err(|e| self.err(e.to_string())),
                other => Err(self.err(format!("expected date string after DATE, found {other}"))),
            };
        }
        let negative = self.eat(&T::Minus);
        if !negative {
            self.eat(&T::Plus);
        }
        let at = self.offset();
        match self.advance() {
            // Only `-9223372036854775808` lexes to a negative token.
            T::Int(v) if v < 0 && !negative => {
                let msg = format!("bad integer literal \"{}\"", v.unsigned_abs());
                Err(ParseError::new(at, msg))
            }
            T::Int(v) => {
                // Bare date literal? `Int (-|/) Int (-|/) Int`.
                if !negative {
                    if let Some(date) = self.try_finish_date(v)? {
                        return Ok(Value::Date(date));
                    }
                }
                Ok(Value::Int(if negative { v.wrapping_neg() } else { v }))
            }
            T::Float(v) => Ok(Value::Float(if negative { -v } else { v })),
            T::Str(s) if !negative => Ok(Value::Str(s)),
            other => Err(self.err(format!("expected literal, found {other}"))),
        }
    }

    /// After consuming an integer, check for the two-more-components date
    /// shape and build the date if present.
    fn try_finish_date(&mut self, first: i64) -> Result<Option<Date>, ParseError> {
        let sep = match self.peek() {
            T::Minus => T::Minus,
            T::Slash => T::Slash,
            _ => return Ok(None),
        };
        // Require `sep Int sep Int` ahead before consuming anything.
        let (second, fourth) = (self.peek_at(1).clone(), self.peek_at(3).clone());
        if *self.peek_at(2) != sep {
            return Ok(None);
        }
        let (T::Int(mid @ 0..), T::Int(last @ 0..)) = (second, fourth) else {
            return Ok(None);
        };
        let start = self.offset();
        self.advance(); // sep
        self.advance(); // mid
        self.advance(); // sep
        let last_width = last_token_width(last);
        self.advance(); // last
        let year = if last_width <= 2 { 1900 + last } else { last };
        let (Ok(year), Ok(month), Ok(day)) =
            (i32::try_from(year), u8::try_from(first), u8::try_from(mid))
        else {
            let msg = format!("date component out of range in {first}, {mid}, {last}");
            return Err(ParseError::new(start, msg));
        };
        Date::new(year, month, day).map(Some).map_err(|e| ParseError::new(start, e.to_string()))
    }

    // ---------------------------------------------------------------- predicates

    fn parse_predicate(&mut self) -> Result<Predicate, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Predicate, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.eat_keyword(K::Or) {
            parts.push(self.parse_and()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("len checked"))
        } else {
            Ok(Predicate::Or(parts))
        }
    }

    fn parse_and(&mut self) -> Result<Predicate, ParseError> {
        let mut parts = vec![self.parse_not()?];
        while self.eat_keyword(K::And) {
            parts.push(self.parse_not()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("len checked"))
        } else {
            Ok(Predicate::And(parts))
        }
    }

    fn parse_not(&mut self) -> Result<Predicate, ParseError> {
        // `NOT EXISTS` is handled in the atom so it parses as a single
        // predicate; bare NOT before anything else is general negation.
        if *self.peek() == T::Keyword(K::Not) && *self.peek_at(1) != T::Keyword(K::Exists) {
            self.advance();
            return Ok(Predicate::Not(Box::new(self.nested(Self::parse_not)?)));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Predicate, ParseError> {
        // [NOT] EXISTS (SELECT …)
        if *self.peek() == T::Keyword(K::Exists)
            || (*self.peek() == T::Keyword(K::Not) && *self.peek_at(1) == T::Keyword(K::Exists))
        {
            let negated = self.eat_keyword(K::Not);
            self.expect_keyword(K::Exists)?;
            let query = self.parse_parenthesized_query()?;
            return Ok(Predicate::Exists { negated, query: Box::new(query) });
        }
        // Parenthesized predicate — but `(SELECT …)` is a scalar-subquery
        // operand, not a grouping.
        if *self.peek() == T::LParen && *self.peek_at(1) != T::Keyword(K::Select) {
            self.advance();
            let p = self.nested(Self::parse_or)?;
            self.expect(&T::RParen)?;
            return Ok(p);
        }
        let left = self.parse_operand()?;
        self.parse_predicate_tail(left)
    }

    fn parse_predicate_tail(&mut self, left: Operand) -> Result<Predicate, ParseError> {
        // IS NULL / IS NOT NULL / IS [NOT] IN (the paper writes "IS IN")
        if self.eat_keyword(K::Is) {
            let negated = self.eat_keyword(K::Not);
            if self.eat_keyword(K::Null) {
                return Ok(Predicate::IsNull { operand: left, negated });
            }
            self.expect_keyword(K::In)?;
            return self.parse_in_tail(left, negated);
        }
        if self.eat_keyword(K::Not) {
            self.expect_keyword(K::In)?;
            return self.parse_in_tail(left, true);
        }
        if self.eat_keyword(K::In) {
            return self.parse_in_tail(left, false);
        }
        let op = match self.advance() {
            T::Eq => CompareOp::Eq,
            T::Ne => CompareOp::Ne,
            T::Lt => CompareOp::Lt,
            T::Le => CompareOp::Le,
            T::Gt => CompareOp::Gt,
            T::Ge => CompareOp::Ge,
            other => return Err(self.err(format!("expected comparison operator, found {other}"))),
        };
        // Quantified comparison?
        let quantifier = if self.eat_keyword(K::Any) || self.eat_keyword(K::Some) {
            Some(Quantifier::Any)
        } else if self.eat_keyword(K::All) {
            Some(Quantifier::All)
        } else {
            None
        };
        if let Some(quantifier) = quantifier {
            let query = self.parse_parenthesized_query()?;
            return Ok(Predicate::Quantified { left, op, quantifier, query: Box::new(query) });
        }
        let right = self.parse_operand()?;
        Ok(Predicate::Compare { left, op, right })
    }

    fn parse_in_tail(&mut self, operand: Operand, negated: bool) -> Result<Predicate, ParseError> {
        self.expect(&T::LParen)?;
        if self.eat_keyword(K::Select) {
            let q = self.parse_query_body()?;
            self.expect(&T::RParen)?;
            return Ok(Predicate::In { operand, negated, rhs: InRhs::Subquery(Box::new(q)) });
        }
        let mut values = Vec::new();
        loop {
            values.push(self.parse_literal()?);
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect(&T::RParen)?;
        Ok(Predicate::In { operand, negated, rhs: InRhs::List(values) })
    }

    fn parse_parenthesized_query(&mut self) -> Result<QueryBlock, ParseError> {
        self.expect(&T::LParen)?;
        self.expect_keyword(K::Select)?;
        let q = self.parse_query_body()?;
        self.expect(&T::RParen)?;
        Ok(q)
    }

    fn parse_operand(&mut self) -> Result<Operand, ParseError> {
        match self.peek().clone() {
            T::LParen if *self.peek_at(1) == T::Keyword(K::Select) => {
                let q = self.parse_parenthesized_query()?;
                Ok(Operand::Subquery(Box::new(q)))
            }
            T::Ident(_) => Ok(Operand::Column(self.parse_column_ref()?)),
            _ => Ok(Operand::Literal(self.parse_literal()?)),
        }
    }
}

fn agg_keyword(k: K) -> Option<AggFunc> {
    Some(match k {
        K::Count => AggFunc::Count,
        K::Sum => AggFunc::Sum,
        K::Avg => AggFunc::Avg,
        K::Max => AggFunc::Max,
        K::Min => AggFunc::Min,
        _ => return None,
    })
}

/// Decimal digit count of a non-negative integer (date year-width check).
fn last_token_width(v: i64) -> usize {
    if v == 0 {
        1
    } else {
        (v.unsigned_abs().ilog10() + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_1() {
        // Query (1) from the introduction.
        let q = parse_query(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2');",
        )
        .unwrap();
        assert_eq!(q.from, vec![TableRef::new("S")]);
        let Some(Predicate::In { rhs: InRhs::Subquery(inner), negated: false, .. }) =
            q.where_clause
        else {
            panic!("expected IN subquery");
        };
        assert_eq!(inner.from, vec![TableRef::new("SP")]);
    }

    #[test]
    fn parses_is_in_form() {
        // The paper writes "PNO IS IN (SELECT …)".
        let q = parse_query(
            "SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 50)",
        )
        .unwrap();
        assert!(matches!(
            q.where_clause,
            Some(Predicate::In { negated: false, rhs: InRhs::Subquery(_), .. })
        ));
    }

    #[test]
    fn parses_type_a_query() {
        // Query (2): scalar comparison against MAX subquery.
        let q = parse_query("SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)").unwrap();
        let Some(Predicate::Compare { right: Operand::Subquery(inner), op: CompareOp::Eq, .. }) =
            q.where_clause
        else {
            panic!("expected scalar subquery comparison");
        };
        assert!(inner.has_aggregate_select());
    }

    #[test]
    fn parses_kiessling_q2_with_bare_date() {
        let q = parse_query(
            "SELECT PNUM FROM PARTS WHERE QOH = \
             (SELECT COUNT(SHIPDATE) FROM SUPPLY \
              WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        )
        .unwrap();
        let Some(Predicate::Compare { right: Operand::Subquery(inner), .. }) = q.where_clause
        else {
            panic!("expected subquery");
        };
        let conj = inner.where_clause.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 2);
        // The second conjunct compares against the parsed date 1980-01-01.
        let Predicate::And(ps) = inner.where_clause.as_ref().unwrap() else {
            panic!()
        };
        let Predicate::Compare { right: Operand::Literal(Value::Date(d)), .. } = &ps[1] else {
            panic!("expected date literal, got {:?}", ps[1]);
        };
        assert_eq!(d.to_string(), "1980-01-01");
    }

    #[test]
    fn parses_slash_dates_in_insert() {
        let s = parse_statement("INSERT INTO SUPPLY VALUES (3, 4, 8/14/77), (10, 1, 6/22/76)")
            .unwrap();
        let Statement::Insert { rows, .. } = s else { panic!() };
        assert_eq!(rows.len(), 2);
        assert!(matches!(rows[0][2], Value::Date(_)));
    }

    #[test]
    fn parses_create_table() {
        let s = parse_statement(
            "CREATE TABLE S (SNO CHAR(5), SNAME VARCHAR(20), STATUS INT, CITY TEXT)",
        )
        .unwrap();
        let Statement::CreateTable { name, columns } = s else { panic!() };
        assert_eq!(name, "S");
        assert_eq!(columns[0], ("SNO".to_string(), ColumnType::Str));
        assert_eq!(columns[2], ("STATUS".to_string(), ColumnType::Int));
    }

    #[test]
    fn parses_exists_and_not_exists() {
        let q = parse_query(
            "SELECT SNO FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = S.SNO) \
             AND NOT EXISTS (SELECT SNO FROM SP WHERE SP.QTY > 500)",
        )
        .unwrap();
        let Some(Predicate::And(ps)) = q.where_clause else { panic!() };
        assert!(matches!(ps[0], Predicate::Exists { negated: false, .. }));
        assert!(matches!(ps[1], Predicate::Exists { negated: true, .. }));
    }

    #[test]
    fn parses_quantified() {
        let q = parse_query("SELECT SNO FROM SP WHERE QTY < ANY (SELECT QTY FROM SP)").unwrap();
        assert!(matches!(
            q.where_clause,
            Some(Predicate::Quantified { quantifier: Quantifier::Any, op: CompareOp::Lt, .. })
        ));
        let q = parse_query("SELECT SNO FROM SP WHERE QTY >= ALL (SELECT QTY FROM SP)").unwrap();
        assert!(matches!(
            q.where_clause,
            Some(Predicate::Quantified { quantifier: Quantifier::All, op: CompareOp::Ge, .. })
        ));
    }

    #[test]
    fn some_is_any() {
        let q = parse_query("SELECT SNO FROM SP WHERE QTY = SOME (SELECT QTY FROM SP)").unwrap();
        assert!(matches!(
            q.where_clause,
            Some(Predicate::Quantified { quantifier: Quantifier::Any, .. })
        ));
    }

    #[test]
    fn parses_not_less_operator() {
        let q = parse_query("SELECT SNO FROM SP WHERE QTY !< 100").unwrap();
        assert!(matches!(
            q.where_clause,
            Some(Predicate::Compare { op: CompareOp::Ge, .. })
        ));
    }

    #[test]
    fn parses_group_by_and_aliases() {
        let q = parse_query(
            "SELECT PNUM, COUNT(SHIPDATE) AS CT FROM SUPPLY GROUP BY PNUM",
        )
        .unwrap();
        assert_eq!(q.group_by, vec![ColumnRef::bare("PNUM")]);
        assert_eq!(q.select[1].alias.as_deref(), Some("CT"));
    }

    #[test]
    fn parses_table_alias() {
        let q = parse_query("SELECT X.SNO FROM SP X WHERE X.QTY > 10").unwrap();
        assert_eq!(q.from[0], TableRef::aliased("SP", "X"));
    }

    #[test]
    fn parses_in_value_list() {
        let q = parse_query("SELECT SNO FROM SP WHERE PNO IN ('P1', 'P2')").unwrap();
        let Some(Predicate::In { rhs: InRhs::List(vs), .. }) = q.where_clause else { panic!() };
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn parses_count_star() {
        let q = parse_query("SELECT COUNT(*) FROM SP").unwrap();
        assert_eq!(
            q.select[0].expr,
            ScalarExpr::Aggregate(AggFunc::Count, AggArg::Star)
        );
        assert!(parse_query("SELECT MAX(*) FROM SP").is_err());
    }

    #[test]
    fn parses_parenthesized_or() {
        let q = parse_query("SELECT SNO FROM SP WHERE (QTY > 10 OR QTY < 2) AND PNO = 'P1'")
            .unwrap();
        let Some(Predicate::And(ps)) = q.where_clause else { panic!() };
        assert!(matches!(ps[0], Predicate::Or(_)));
    }

    #[test]
    fn negative_numbers_and_null() {
        let s = parse_statement("INSERT INTO T VALUES (-5, NULL, 2.5)").unwrap();
        let Statement::Insert { rows, .. } = s else { panic!() };
        assert_eq!(rows[0], vec![Value::Int(-5), Value::Null, Value::Float(2.5)]);
    }

    #[test]
    fn parses_explain_and_explain_analyze() {
        let s = parse_statement("EXPLAIN SELECT A FROM T").unwrap();
        let Statement::Explain { analyze: false, query } = s else { panic!("{s:?}") };
        assert_eq!(query.from[0].table, "T");

        let s = parse_statement(
            "EXPLAIN ANALYZE SELECT PNUM FROM PARTS WHERE QOH = \
             (SELECT COUNT(SHIPDATE) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
        )
        .unwrap();
        let Statement::Explain { analyze: true, .. } = s else { panic!("{s:?}") };

        // EXPLAIN requires a SELECT after it.
        assert!(parse_statement("EXPLAIN INSERT INTO T VALUES (1)").is_err());
        assert!(parse_statement("EXPLAIN ANALYZE").is_err());
    }

    #[test]
    fn multi_statement_script() {
        let s = parse_statements(
            "CREATE TABLE T (A INT); INSERT INTO T VALUES (1); SELECT A FROM T;",
        )
        .unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn deep_nesting_parses() {
        let q = parse_query(
            "SELECT A FROM R1 WHERE A IN (SELECT B FROM R2 WHERE B IN \
             (SELECT C FROM R3 WHERE C IN (SELECT D FROM R4)))",
        )
        .unwrap();
        let mut depth = 0;
        let mut cur = &q;
        while let Some(Predicate::In { rhs: InRhs::Subquery(inner), .. }) = &cur.where_clause {
            depth += 1;
            cur = inner;
        }
        assert_eq!(depth, 3);
    }

    /// The three recursive shapes at nesting depth `depth`: a chain of
    /// `IN` subqueries (one block per level), and a WHERE clause of `NOT`s
    /// or of parentheses under the top-level block.
    fn nested_shapes(depth: usize) -> [String; 3] {
        let chain = format!(
            "{}SELECT A FROM T{}",
            "SELECT A FROM T WHERE A IN (".repeat(depth - 1),
            ")".repeat(depth - 1)
        );
        let nots = format!("SELECT A FROM T WHERE {}A = 1", "NOT ".repeat(depth - 1));
        let parens = format!(
            "SELECT A FROM T WHERE {}A = 1{}",
            "(".repeat(depth - 1),
            ")".repeat(depth - 1)
        );
        [chain, nots, parens]
    }

    #[test]
    fn nesting_depth_is_bounded() {
        for sql in nested_shapes(MAX_NESTING_DEPTH) {
            parse_query(&sql).unwrap_or_else(|e| panic!("{e} at the limit: {sql}"));
        }
        for sql in nested_shapes(MAX_NESTING_DEPTH + 1) {
            let e = parse_query(&sql).unwrap_err();
            assert!(e.message.contains(&MAX_NESTING_DEPTH.to_string()), "{e}");
        }
        // Far past the limit the parser still returns an error instead of
        // overflowing its stack.
        for sql in nested_shapes(100_000) {
            assert!(parse_statement(&sql).is_err());
        }
    }

    #[test]
    fn reports_errors_with_position() {
        let e = parse_query("SELECT FROM").unwrap_err();
        assert!(e.offset > 0);
        assert!(parse_query("SELECT A FROM").is_err());
        assert!(parse_query("SELECT A FROM T WHERE").is_err());
        assert!(parse_query("SELECT A FROM T WHERE A ==== 1").is_err());
    }

    #[test]
    fn date_keyword_literal() {
        let q = parse_query("SELECT A FROM T WHERE D < DATE '1980-01-01'").unwrap();
        let Some(Predicate::Compare { right: Operand::Literal(Value::Date(_)), .. }) =
            q.where_clause
        else {
            panic!()
        };
    }

    #[test]
    fn four_digit_year_date() {
        let s = parse_statement("INSERT INTO T VALUES (7-3-1979)").unwrap();
        let Statement::Insert { rows, .. } = s else { panic!() };
        let Value::Date(d) = &rows[0][0] else { panic!() };
        assert_eq!(d.year(), 1979);
    }

    #[test]
    fn i64_extremes_round_trip() {
        let literal = |sql: &str| {
            let q = parse_query(&format!("SELECT A FROM T WHERE A = {sql}"))?;
            let Some(Predicate::Compare { right: Operand::Literal(v), .. }) = q.where_clause
            else {
                panic!("{sql}: not a comparison with a literal")
            };
            Ok::<Value, ParseError>(v)
        };
        assert_eq!(literal("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(literal("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(literal("-9223372036854775807").unwrap(), Value::Int(-i64::MAX));
        for bad in ["9223372036854775808", "+9223372036854775808", "-9223372036854775809"] {
            let e = literal(bad).unwrap_err();
            assert!(e.to_string().contains("bad integer literal"), "{bad}: {e}");
            // The error points at the digits, as a lexer error does.
            assert_eq!(e.offset, 26 + bad.find(|c: char| c.is_ascii_digit()).unwrap(), "{bad}");
        }
        // The printer's rendering of `i64::MIN` parses back to it.
        let q = parse_query("SELECT A FROM T WHERE A = -9223372036854775808").unwrap();
        assert_eq!(parse_query(&crate::print_query(&q)).unwrap(), q);
    }

    #[test]
    fn out_of_range_date_components_are_errors() {
        // Each would wrap to 1980-01-01 under a truncating cast.
        for bad in ["257-1-80", "1-257-80", "1-1-4294969276"] {
            let sql = format!("INSERT INTO T VALUES ({bad})");
            assert!(parse_statement(&sql).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn subtraction_is_not_a_date() {
        // `QOH - 1` is not valid in this dialect; ensure it errors rather
        // than silently becoming a date.
        assert!(parse_query("SELECT A FROM T WHERE A = 1 - 1").is_err());
    }
}
