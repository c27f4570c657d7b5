#![warn(missing_docs)]

//! SQL front-end for the dialect the paper studies.
//!
//! The dialect is the SQL of [AST 76] / System R as used by Kim and by
//! Ganski & Wong, plus the Section-8 extensions:
//!
//! * `SELECT [DISTINCT] … FROM … WHERE … [GROUP BY …] [ORDER BY …]`
//! * Nested predicates: `x IN (subquery)`, `x op (subquery)` (scalar),
//!   `[NOT] EXISTS (subquery)`, `x op ANY|ALL (subquery)`
//! * Aggregates `COUNT|SUM|AVG|MAX|MIN` over a column or `*`
//! * Comparison operators `= != <> < <= > >= !< !>` (the paper's `!<`/`!>`
//!   forms are normalised to `>=`/`<=`)
//! * The paper's unquoted date literals (`SHIPDATE < 1-1-80`, `8/14/77`)
//! * `CREATE TABLE` / `INSERT INTO … VALUES` for building test databases
//!
//! The module layout follows the classic pipeline: [`lexer`] → [`parser`] →
//! [`ast`], with [`printer`] rendering an AST back to SQL text (used by
//! `EXPLAIN`-style output and by the transformation demos that print the
//! paper's intermediate queries).

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::{
    AggArg, AggFunc, ColumnRef, CompareOp, InRhs, Operand, OrderKey, Predicate, Quantifier,
    QueryBlock, ScalarExpr, SelectItem, SortDir, Statement, TableRef,
};
pub use error::ParseError;
pub use parser::{parse_query, parse_statement, parse_statements, MAX_NESTING_DEPTH};
pub use printer::{print_predicate, print_query, print_query_masked};

/// Result alias for parsing.
pub type Result<T> = std::result::Result<T, ParseError>;
