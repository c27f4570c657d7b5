//! Unified error type for the facade.

use std::fmt;

/// Anything that can go wrong between SQL text and a result table.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Lexing/parsing failure.
    Parse(nsql_sql::ParseError),
    /// Semantic analysis failure.
    Analyze(nsql_analyzer::AnalyzeError),
    /// Transformation failure (query outside the supported class).
    Transform(nsql_core::TransformError),
    /// Execution failure.
    Engine(nsql_engine::EngineError),
    /// Value-level failure.
    Type(nsql_types::TypeError),
    /// Catalog-level failure (duplicate table, unknown table, …).
    Catalog(String),
    /// Malformed query option, e.g. a bad `NSQL_THREADS` value.
    Config(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Analyze(e) => write!(f, "{e}"),
            DbError::Transform(e) => write!(f, "{e}"),
            DbError::Engine(e) => write!(f, "{e}"),
            DbError::Type(e) => write!(f, "{e}"),
            DbError::Catalog(m) => write!(f, "catalog error: {m}"),
            DbError::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<nsql_sql::ParseError> for DbError {
    fn from(e: nsql_sql::ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<nsql_analyzer::AnalyzeError> for DbError {
    fn from(e: nsql_analyzer::AnalyzeError) -> Self {
        DbError::Analyze(e)
    }
}

impl From<nsql_core::TransformError> for DbError {
    fn from(e: nsql_core::TransformError) -> Self {
        DbError::Transform(e)
    }
}

impl From<nsql_engine::EngineError> for DbError {
    fn from(e: nsql_engine::EngineError) -> Self {
        DbError::Engine(e)
    }
}

impl From<nsql_types::TypeError> for DbError {
    fn from(e: nsql_types::TypeError) -> Self {
        DbError::Type(e)
    }
}
