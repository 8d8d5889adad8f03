//! Runtime values for filter-expression evaluation.
//!
//! The SPARQL spec's full value hierarchy (with typed-literal promotion
//! rules) is reduced here to the cases the workspace's queries need:
//! RDF terms, booleans, integers, and strings. Coercions are documented on
//! each function; unsupported combinations evaluate to an error, which a
//! `FILTER` treats as *false* (SPARQL's error-as-unbound semantics).
//!
//! A value borrows its term or string from the store's dictionary or the
//! plan wherever it can, so a filter over a solution clones no term.

use crate::ast::CompareOp;
use crate::error::SparqlError;
use crate::parser::{XSD_BOOLEAN, XSD_INTEGER};
use sofya_rdf::Term;
use std::borrow::Cow;
use std::cmp::Ordering;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// An RDF term (IRI, literal, or blank node).
    Term(Cow<'a, Term>),
    /// A boolean (result of comparisons and logical operators).
    Bool(bool),
    /// An integer (decoded from `xsd:integer` literals).
    Int(i64),
    /// A plain string (result of `STR`, `LANG`, …).
    Str(Cow<'a, str>),
}

impl Value<'_> {
    /// SPARQL effective boolean value.
    ///
    /// Booleans are themselves; integers are true iff non-zero; strings are
    /// true iff non-empty; literal terms use their lexical form (with
    /// boolean/integer decoding); IRIs and blank nodes are errors.
    pub fn effective_boolean(&self) -> Result<bool, SparqlError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            Value::Str(s) => Ok(!s.is_empty()),
            Value::Term(term) => match term.as_ref() {
                Term::Literal {
                    lexical, datatype, ..
                } => match datatype.as_deref() {
                    Some(XSD_BOOLEAN) => match lexical.as_str() {
                        "true" | "1" => Ok(true),
                        "false" | "0" => Ok(false),
                        other => Err(SparqlError::eval(format!("invalid xsd:boolean '{other}'"))),
                    },
                    Some(XSD_INTEGER) => {
                        Ok(lexical.parse::<i64>().map(|v| v != 0).unwrap_or(false))
                    }
                    _ => Ok(!lexical.is_empty()),
                },
                other => Err(SparqlError::eval(format!("no boolean value for {other}"))),
            },
        }
    }

    /// String form used by `STR` and the string builtins, borrowed from
    /// the value where it holds one.
    pub fn string_form(&self) -> Result<Cow<'_, str>, SparqlError> {
        match self {
            Value::Str(s) => Ok(Cow::Borrowed(s)),
            Value::Int(i) => Ok(Cow::Owned(i.to_string())),
            Value::Bool(b) => Ok(Cow::Owned(b.to_string())),
            Value::Term(term) => match term.as_ref() {
                Term::Iri(iri) => Ok(Cow::Borrowed(iri)),
                Term::Literal { lexical, .. } => Ok(Cow::Borrowed(lexical)),
                Term::BNode(_) => Err(SparqlError::eval("STR of a blank node is undefined")),
            },
        }
    }

    /// Integer form, if this value is numeric (`xsd:integer` literal,
    /// [`Value::Int`], or a numeric string).
    pub fn integer_form(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(s) => s.parse().ok(),
            Value::Term(term) => match term.as_ref() {
                Term::Literal {
                    lexical, datatype, ..
                } if datatype.as_deref() == Some(XSD_INTEGER) => lexical.parse().ok(),
                _ => None,
            },
            Value::Bool(_) => None,
        }
    }

    /// Applies a comparison operator.
    ///
    /// Rules, in order: if both sides are numeric, compare numerically; for
    /// `=`/`!=` on two terms, compare term identity; otherwise compare
    /// string forms lexicographically.
    pub fn compare(&self, op: CompareOp, other: &Value<'_>) -> Result<bool, SparqlError> {
        if let (Some(a), Some(b)) = (self.integer_form(), other.integer_form()) {
            return Ok(apply_ordering(op, a.cmp(&b)));
        }
        if let (Value::Term(a), Value::Term(b)) = (self, other) {
            if matches!(op, CompareOp::Eq) {
                return Ok(a == b);
            }
            if matches!(op, CompareOp::Neq) {
                return Ok(a != b);
            }
        }
        let a = self.string_form()?;
        let b = other.string_form()?;
        Ok(apply_ordering(op, a.cmp(&b)))
    }
}

fn apply_ordering(op: CompareOp, ord: Ordering) -> bool {
    match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Neq => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(t: Term) -> Value<'static> {
        Value::Term(Cow::Owned(t))
    }

    #[test]
    fn effective_boolean_of_scalars() {
        assert!(Value::Bool(true).effective_boolean().unwrap());
        assert!(!Value::Bool(false).effective_boolean().unwrap());
        assert!(Value::Int(3).effective_boolean().unwrap());
        assert!(!Value::Int(0).effective_boolean().unwrap());
        assert!(Value::Str("x".into()).effective_boolean().unwrap());
        assert!(!Value::Str("".into()).effective_boolean().unwrap());
    }

    #[test]
    fn effective_boolean_of_literals() {
        let t = term(Term::typed_literal("true", XSD_BOOLEAN));
        assert!(t.effective_boolean().unwrap());
        let f = term(Term::typed_literal("false", XSD_BOOLEAN));
        assert!(!f.effective_boolean().unwrap());
        let n = term(Term::integer(0));
        assert!(!n.effective_boolean().unwrap());
        let s = term(Term::literal("non-empty"));
        assert!(s.effective_boolean().unwrap());
    }

    #[test]
    fn effective_boolean_of_iri_is_error() {
        assert!(term(Term::iri("x")).effective_boolean().is_err());
    }

    #[test]
    fn numeric_comparison_beats_string_comparison() {
        // "10" < "9" as strings but 10 > 9 numerically.
        let a = term(Term::integer(10));
        let b = term(Term::integer(9));
        assert!(a.compare(CompareOp::Gt, &b).unwrap());
    }

    #[test]
    fn term_equality() {
        let a = term(Term::iri("x"));
        let b = term(Term::iri("x"));
        let c = term(Term::literal("x"));
        assert!(a.compare(CompareOp::Eq, &b).unwrap());
        assert!(a.compare(CompareOp::Neq, &c).unwrap());
        // IRI and literal with same text are different terms.
        assert!(!a.compare(CompareOp::Eq, &c).unwrap());
    }

    #[test]
    fn string_ordering() {
        let a = Value::Str("apple".into());
        let b = Value::Str("banana".into());
        assert!(a.compare(CompareOp::Lt, &b).unwrap());
        assert!(b.compare(CompareOp::Ge, &a).unwrap());
    }

    #[test]
    fn str_of_bnode_is_error() {
        assert!(term(Term::bnode("b")).string_form().is_err());
    }

    #[test]
    fn integer_form_decodes_typed_literal() {
        assert_eq!(term(Term::integer(-5)).integer_form(), Some(-5));
        assert_eq!(term(Term::literal("5")).integer_form(), None);
    }
}
