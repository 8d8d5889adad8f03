//! A pragmatic N-Triples subset parser and serialiser.
//!
//! Supported per line: `<iri> <iri> (<iri> | "literal" | "lit"@lang |
//! "lit"^^<dt> | _:bnode) .` plus `#` comments and blank lines. Blank nodes
//! are accepted in subject and object position. This covers everything the
//! workspace's generators and fixtures emit; it is not a full W3C
//! conformance parser (no UCHAR escapes beyond the common ones).

use crate::error::RdfError;
use crate::store::TripleStore;
use crate::term::{is_delimitable_iri, unescape_literal, Term};

/// Parses N-Triples text into a fresh [`TripleStore`].
pub fn parse_ntriples(input: &str) -> Result<TripleStore, RdfError> {
    let mut store = TripleStore::new();
    parse_ntriples_into(input, &mut store)?;
    Ok(store)
}

/// Parses N-Triples text, inserting into an existing store.
///
/// The whole document is parsed first and bulk-loaded through
/// [`TripleStore::load_batch_terms`] (one sort + dedup + merge per
/// index), so nothing is inserted when any line fails to parse.
pub fn parse_ntriples_into(input: &str, store: &mut TripleStore) -> Result<(), RdfError> {
    let triples = parse_ntriples_terms(input)?;
    store.load_batch_terms(triples.iter().map(|(s, p, o)| (s, p, o)));
    Ok(())
}

/// Parses N-Triples text into term triples: one per statement line, in
/// document order, repeats kept. No store, no interning — for a caller
/// that hands the batch on (the ingest door) instead of querying it.
pub fn parse_ntriples_terms(input: &str) -> Result<Vec<(Term, Term, Term)>, RdfError> {
    let mut triples = Vec::new();
    for (idx, raw_line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cursor = Cursor {
            line,
            pos: 0,
            lineno,
        };
        let s = cursor.parse_term()?;
        cursor.skip_ws();
        let p = cursor.parse_term()?;
        cursor.skip_ws();
        let o = cursor.parse_term()?;
        cursor.skip_ws();
        cursor.expect('.')?;
        cursor.skip_ws();
        if !cursor.at_end() {
            return Err(RdfError::parse(lineno, "trailing content after '.'"));
        }
        if !p.is_iri() {
            return Err(RdfError::parse(lineno, "predicate must be an IRI"));
        }
        if s.is_literal() {
            return Err(RdfError::parse(lineno, "subject must not be a literal"));
        }
        triples.push((s, p, o));
    }
    Ok(triples)
}

/// Serialises every triple of `store` as N-Triples, in SPO id order.
pub fn write_ntriples(store: &TripleStore) -> String {
    let mut out = String::new();
    for t in store.iter() {
        let (s, p, o) = store.resolve(t);
        out.push_str(&format!("{s} {p} {o} .\n"));
    }
    out
}

struct Cursor<'a> {
    line: &'a str,
    pos: usize,
    lineno: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.line[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.line.len()
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    fn expect(&mut self, c: char) -> Result<(), RdfError> {
        if self.rest().starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(RdfError::parse(self.lineno, format!("expected '{c}'")))
        }
    }

    fn err(&self, msg: impl Into<String>) -> RdfError {
        RdfError::parse(self.lineno, msg)
    }

    fn parse_term(&mut self) -> Result<Term, RdfError> {
        self.skip_ws();
        let rest = self.rest();
        if rest.starts_with('<') {
            self.parse_iri().map(Term::Iri)
        } else if rest.starts_with('"') {
            self.parse_literal()
        } else if let Some(label_part) = rest.strip_prefix("_:") {
            let end = label_part
                .find(|c: char| c.is_whitespace() || c == '.')
                .unwrap_or(label_part.len());
            if end == 0 {
                return Err(self.err("empty blank node label"));
            }
            let label = &label_part[..end];
            self.pos += 2 + end;
            Ok(Term::bnode(label))
        } else {
            Err(self.err("expected '<', '\"' or '_:'"))
        }
    }

    fn parse_iri(&mut self) -> Result<String, RdfError> {
        self.expect('<')?;
        let rest = self.rest();
        let close = rest.find('>').ok_or_else(|| self.err("unterminated IRI"))?;
        let iri = &rest[..close];
        if !is_delimitable_iri(iri) {
            return Err(self.err("whitespace or '<' inside IRI"));
        }
        self.pos += close + 1;
        Ok(iri.to_owned())
    }

    fn parse_literal(&mut self) -> Result<Term, RdfError> {
        self.expect('"')?;
        // Find the closing unescaped quote.
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let mut i = 0;
        let mut escaped = false;
        let close = loop {
            if i >= bytes.len() {
                return Err(self.err("unterminated literal"));
            }
            match bytes[i] {
                b'\\' if !escaped => escaped = true,
                b'"' if !escaped => break i,
                _ => escaped = false,
            }
            i += 1;
        };
        let lexical = unescape_literal(&rest[..close]);
        self.pos += close + 1;

        let rest = self.rest();
        if let Some(lang_part) = rest.strip_prefix('@') {
            let end = lang_part
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(lang_part.len());
            if end == 0 {
                return Err(self.err("empty language tag"));
            }
            let lang = lang_part[..end].to_owned();
            self.pos += 1 + end;
            Ok(Term::Literal {
                lexical,
                lang: Some(lang),
                datatype: None,
            })
        } else if rest.starts_with("^^") {
            self.pos += 2;
            let dt = self.parse_iri()?;
            Ok(Term::Literal {
                lexical,
                lang: None,
                datatype: Some(dt),
            })
        } else {
            Ok(Term::literal(lexical))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_triples() {
        let store = parse_ntriples(
            "<http://kb/a> <http://kb/p> <http://kb/b> .\n\
             <http://kb/a> <http://kb/name> \"Alice\" .\n",
        )
        .unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let store = parse_ntriples("# a comment\n\n<a> <p> <b> .\n   \n").unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn parses_lang_and_typed_literals() {
        let store = parse_ntriples(
            "<a> <p> \"bonjour\"@fr .\n\
             <a> <q> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        )
        .unwrap();
        let terms: Vec<Term> = store.iter().map(|t| store.resolve(t).2.clone()).collect();
        assert!(terms.contains(&Term::lang_literal("bonjour", "fr")));
        assert!(terms.contains(&Term::integer(42)));
    }

    #[test]
    fn parses_bnodes_in_subject_and_object() {
        let store = parse_ntriples("_:b1 <p> _:b2 .\n").unwrap();
        let t = store.iter().next().unwrap();
        assert!(store.resolve(t).0.is_bnode());
        assert!(store.resolve(t).2.is_bnode());
    }

    #[test]
    fn parses_escaped_quotes_in_literal() {
        let store = parse_ntriples(r#"<a> <p> "say \"hi\"\n" ."#).unwrap();
        let t = store.iter().next().unwrap();
        assert_eq!(store.resolve(t).2.as_literal(), Some("say \"hi\"\n"));
    }

    #[test]
    fn rejects_literal_subject() {
        assert!(parse_ntriples("\"x\" <p> <b> .").is_err());
    }

    #[test]
    fn rejects_non_iri_predicate() {
        assert!(parse_ntriples("<a> \"p\" <b> .").is_err());
        assert!(parse_ntriples("<a> _:p <b> .").is_err());
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse_ntriples("<a> <p> <b>").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_ntriples("<a> <p> <b> . extra").is_err());
    }

    #[test]
    fn rejects_unterminated_iri_and_literal() {
        assert!(parse_ntriples("<a <p> <b> .").is_err());
        assert!(parse_ntriples("<a> <p> \"open .").is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_ntriples("<a> <p> <b> .\nbad line\n").unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn round_trip_parse_write_parse() {
        let src = "<http://kb/a> <http://kb/p> <http://kb/b> .\n\
                   <http://kb/a> <http://kb/name> \"Fran\\\"k\"@en .\n\
                   <http://kb/b> <http://kb/age> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        let store = parse_ntriples(src).unwrap();
        let written = write_ntriples(&store);
        let reparsed = parse_ntriples(&written).unwrap();
        assert_eq!(store.len(), reparsed.len());
        let set_a: std::collections::BTreeSet<String> = store
            .iter()
            .map(|t| {
                let (s, p, o) = store.resolve(t);
                format!("{s} {p} {o}")
            })
            .collect();
        let set_b: std::collections::BTreeSet<String> = reparsed
            .iter()
            .map(|t| {
                let (s, p, o) = reparsed.resolve(t);
                format!("{s} {p} {o}")
            })
            .collect();
        assert_eq!(set_a, set_b);
    }
}
