//! Error type for SPARQL parsing and evaluation.

use crate::budget::BudgetBreach;
use sofya_rdf::Term;
use std::fmt;

/// Errors raised while lexing, parsing, planning, or evaluating a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// Lexical error: unexpected character or unterminated token.
    Lex {
        /// Byte offset into the query string.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// Syntax error during parsing.
    Parse {
        /// Human-readable description, including what was expected.
        message: String,
    },
    /// Semantic / evaluation error (e.g. type error in a FILTER).
    Eval {
        /// Description of the failure.
        message: String,
    },
    /// The query exceeded its [`crate::QueryBudget`] (deadline, scan
    /// cap, binding cap) or was cancelled. Unlike [`SparqlError::Eval`],
    /// this is **not** absorbed by FILTER error semantics — a killed
    /// query always surfaces this error, never a partial result.
    Budget {
        /// Which limit was breached.
        breach: BudgetBreach,
    },
    /// A prepared query's argument whose text would not parse back as
    /// that one term where the template puts it (see
    /// [`crate::Prepared::render`]).
    Unrenderable {
        /// The refused argument.
        term: Term,
    },
}

impl SparqlError {
    /// Constructs a lexical error.
    pub fn lex(offset: usize, message: impl Into<String>) -> Self {
        SparqlError::Lex {
            offset,
            message: message.into(),
        }
    }

    /// Constructs a parse error.
    pub fn parse(message: impl Into<String>) -> Self {
        SparqlError::Parse {
            message: message.into(),
        }
    }

    /// Constructs an evaluation error.
    pub fn eval(message: impl Into<String>) -> Self {
        SparqlError::Eval {
            message: message.into(),
        }
    }

    /// Constructs a budget-breach error.
    pub fn budget(breach: BudgetBreach) -> Self {
        SparqlError::Budget { breach }
    }

    /// Whether this is a budget breach (used by layers that must keep
    /// cancellation errors out of SPARQL's error-absorbing contexts).
    pub fn is_budget(&self) -> bool {
        matches!(self, SparqlError::Budget { .. })
    }
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparqlError::Lex { offset, message } => {
                write!(f, "SPARQL lexical error at byte {offset}: {message}")
            }
            SparqlError::Parse { message } => write!(f, "SPARQL syntax error: {message}"),
            SparqlError::Eval { message } => write!(f, "SPARQL evaluation error: {message}"),
            SparqlError::Budget { breach } => write!(f, "query budget exceeded: {breach}"),
            SparqlError::Unrenderable { term } => write!(
                f,
                "prepared argument {term:?} does not render as one SPARQL term in its place"
            ),
        }
    }
}

impl std::error::Error for SparqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SparqlError::lex(4, "bad char")
            .to_string()
            .contains("byte 4"));
        assert!(SparqlError::parse("expected WHERE")
            .to_string()
            .contains("syntax"));
        assert!(SparqlError::eval("type error")
            .to_string()
            .contains("evaluation"));
        let budget = SparqlError::budget(BudgetBreach::Deadline);
        assert!(budget.to_string().contains("budget"));
        assert!(budget.is_budget());
        assert!(!SparqlError::parse("x").is_budget());
    }
}
