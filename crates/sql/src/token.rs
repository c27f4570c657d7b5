//! Token kinds produced by the lexer.

use std::fmt;

/// A lexical token with its source offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Byte offset of the token start in the source.
    pub offset: usize,
    /// The token kind and payload.
    pub kind: TokenKind,
}

/// Keywords of the dialect. Matched case-insensitively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is the keyword it names
pub enum Keyword {
    Select,
    Distinct,
    From,
    Where,
    Group,
    Order,
    By,
    In,
    Is,
    Not,
    Exists,
    Any,
    Some,
    All,
    And,
    Or,
    Null,
    As,
    Asc,
    Desc,
    Create,
    Table,
    Insert,
    Into,
    Values,
    Date,
    Count,
    Sum,
    Avg,
    Max,
    Min,
    Int,
    Integer,
    Float,
    Real,
    String,
    Char,
    Varchar,
    Text,
    Explain,
    Analyze,
}

impl Keyword {
    /// Look up an identifier as a keyword.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Option::Some(match s.to_ascii_uppercase().as_str() {
            "SELECT" => Select,
            "DISTINCT" => Distinct,
            "FROM" => From,
            "WHERE" => Where,
            "GROUP" => Group,
            "ORDER" => Order,
            "BY" => By,
            "IN" => In,
            "IS" => Is,
            "NOT" => Not,
            "EXISTS" => Exists,
            "ANY" => Any,
            "SOME" => Keyword::Some,
            "ALL" => All,
            "AND" => And,
            "OR" => Or,
            "NULL" => Null,
            "AS" => As,
            "ASC" => Asc,
            "DESC" => Desc,
            "CREATE" => Create,
            "TABLE" => Table,
            "INSERT" => Insert,
            "INTO" => Into,
            "VALUES" => Values,
            "DATE" => Date,
            "COUNT" => Count,
            "SUM" => Sum,
            "AVG" => Avg,
            "MAX" => Max,
            "MIN" => Min,
            "INT" => Int,
            "INTEGER" => Integer,
            "FLOAT" => Float,
            "REAL" => Real,
            "STRING" => String,
            "CHAR" => Char,
            "VARCHAR" => Varchar,
            "TEXT" => Text,
            "EXPLAIN" => Explain,
            "ANALYZE" => Analyze,
            _ => return None,
        })
    }
}

/// Token payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A keyword (see [`Keyword`]).
    Keyword(Keyword),
    /// A non-keyword identifier, stored as written.
    Ident(String),
    /// An integer literal's magnitude (a sign is a separate token);
    /// `i64::MIN` stands for 2^63, which only a leading minus makes valid.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A quoted string literal (quotes removed, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=` or `!>`
    Le,
    /// `>`
    Gt,
    /// `>=` or `!<`
    Ge,
    /// `-`
    Minus,
    /// `+`
    Plus,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}"),
            TokenKind::Ident(s) => write!(f, "identifier {s:?}"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Float(v) => write!(f, "float {v}"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::LParen => f.write_str("'('"),
            TokenKind::RParen => f.write_str("')'"),
            TokenKind::Comma => f.write_str("','"),
            TokenKind::Dot => f.write_str("'.'"),
            TokenKind::Star => f.write_str("'*'"),
            TokenKind::Semi => f.write_str("';'"),
            TokenKind::Eq => f.write_str("'='"),
            TokenKind::Ne => f.write_str("'!='"),
            TokenKind::Lt => f.write_str("'<'"),
            TokenKind::Le => f.write_str("'<='"),
            TokenKind::Gt => f.write_str("'>'"),
            TokenKind::Ge => f.write_str("'>='"),
            TokenKind::Minus => f.write_str("'-'"),
            TokenKind::Plus => f.write_str("'+'"),
            TokenKind::Slash => f.write_str("'/'"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}
