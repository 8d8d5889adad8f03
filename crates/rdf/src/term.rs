//! RDF terms: IRIs, literals, and blank nodes.

use std::fmt;

/// An RDF term.
///
/// Literals carry an optional language tag or datatype IRI. Plain literals
/// (`datatype == None`, `lang == None`) are treated as `xsd:string`, which is
/// the behaviour mandated by RDF 1.1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding angle brackets.
    Iri(String),
    /// A literal with lexical form and optional annotation.
    Literal {
        /// The lexical form (the string between the quotes).
        lexical: String,
        /// Language tag (`"en"`, `"fr"`, …), mutually exclusive with `datatype`.
        lang: Option<String>,
        /// Datatype IRI, e.g. `http://www.w3.org/2001/XMLSchema#integer`.
        datatype: Option<String>,
    },
    /// A blank node with its local label (without the `_:` prefix).
    BNode(String),
}

impl Term {
    /// Builds an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Builds a plain (string) literal.
    pub fn literal(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: None,
        }
    }

    /// Builds a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: Some(lang.into()),
            datatype: None,
        }
    }

    /// Builds a typed literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }

    /// Builds an integer literal typed as `xsd:integer`.
    pub fn integer(value: i64) -> Self {
        Term::typed_literal(
            value.to_string(),
            "http://www.w3.org/2001/XMLSchema#integer",
        )
    }

    /// Builds a blank node.
    pub fn bnode(label: impl Into<String>) -> Self {
        Term::BNode(label.into())
    }

    /// Returns `true` for [`Term::Iri`].
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Returns `true` for [`Term::Literal`].
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// Returns `true` for [`Term::BNode`].
    pub fn is_bnode(&self) -> bool {
        matches!(self, Term::BNode(_))
    }

    /// The IRI value, if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(v) => Some(v),
            _ => None,
        }
    }

    /// The lexical form, if this term is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }

    /// The local name of an IRI: everything after the last `#` or `/`.
    ///
    /// Returns the whole IRI when no separator is present; `None` for
    /// non-IRI terms.
    pub fn local_name(&self) -> Option<&str> {
        let iri = self.as_iri()?;
        Some(match iri.rfind(['#', '/']) {
            Some(pos) => &iri[pos + 1..],
            None => iri,
        })
    }

    /// Parses an integer value out of a numeric literal.
    pub fn integer_value(&self) -> Option<i64> {
        self.as_literal()?.parse().ok()
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(v) => write!(f, "<{v}>"),
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                write!(f, "\"{}\"", escape_literal(lexical))?;
                if let Some(lang) = lang {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
            Term::BNode(label) => write!(f, "_:{label}"),
        }
    }
}

/// Escapes a literal lexical form for N-Triples output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// Whether `iri` reads back as itself between `<` and `>`: the
/// N-Triples and SPARQL lexers both end an IRI at its first `>` and
/// refuse whitespace and `<` inside one.
pub fn is_delimitable_iri(iri: &str) -> bool {
    !iri.contains(|c: char| c.is_whitespace() || c == '<' || c == '>')
}

/// Reverses [`escape_literal`].
pub fn unescape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_kind_predicates() {
        assert!(Term::iri("http://x/a").is_iri());
        assert!(Term::literal("abc").is_literal());
        assert!(Term::bnode("b1").is_bnode());
        assert!(!Term::literal("abc").is_iri());
    }

    #[test]
    fn as_iri_and_as_literal() {
        assert_eq!(Term::iri("http://x/a").as_iri(), Some("http://x/a"));
        assert_eq!(Term::iri("http://x/a").as_literal(), None);
        assert_eq!(Term::literal("v").as_literal(), Some("v"));
        assert_eq!(Term::literal("v").as_iri(), None);
    }

    #[test]
    fn local_name_extraction() {
        assert_eq!(
            Term::iri("http://kb/ont#wasBornIn").local_name(),
            Some("wasBornIn")
        );
        assert_eq!(
            Term::iri("http://kb/wasBornIn").local_name(),
            Some("wasBornIn")
        );
        assert_eq!(Term::iri("wasBornIn").local_name(), Some("wasBornIn"));
        assert_eq!(Term::literal("x").local_name(), None);
    }

    #[test]
    fn display_iri() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
    }

    #[test]
    fn display_plain_literal() {
        assert_eq!(Term::literal("hello").to_string(), "\"hello\"");
        assert_eq!(
            Term::literal("say \"hi\"").to_string(),
            "\"say \\\"hi\\\"\""
        );
    }

    #[test]
    fn display_lang_literal() {
        assert_eq!(
            Term::lang_literal("bonjour", "fr").to_string(),
            "\"bonjour\"@fr"
        );
    }

    #[test]
    fn display_typed_literal() {
        assert_eq!(
            Term::integer(42).to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn display_bnode() {
        assert_eq!(Term::bnode("b0").to_string(), "_:b0");
    }

    #[test]
    fn integer_round_trip() {
        assert_eq!(Term::integer(-7).integer_value(), Some(-7));
        assert_eq!(Term::literal("not a number").integer_value(), None);
    }

    #[test]
    fn escape_and_unescape_round_trip() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash\r";
        assert_eq!(unescape_literal(&escape_literal(nasty)), nasty);
    }

    #[test]
    fn unescape_tolerates_unknown_escapes() {
        assert_eq!(unescape_literal("a\\qb"), "a\\qb");
        assert_eq!(unescape_literal("trailing\\"), "trailing\\");
    }

    #[test]
    fn term_ordering_is_total() {
        let mut terms = vec![
            Term::literal("b"),
            Term::iri("a"),
            Term::bnode("c"),
            Term::literal("a"),
        ];
        terms.sort();
        // Sorting must not panic and must be deterministic.
        let again = {
            let mut t = terms.clone();
            t.sort();
            t
        };
        assert_eq!(terms, again);
    }
}
