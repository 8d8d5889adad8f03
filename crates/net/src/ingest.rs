//! The ingestion front door: what `POST /ingest` accepts and where the
//! parsed triples go.
//!
//! The server itself does not know how to mutate a store — writers live
//! behind [`sofya_endpoint::SnapshotStore`] and friends, owned by
//! whoever composed the process. So the route delegates to an
//! [`IngestSink`]: one call per HTTP request (and per scheduler job),
//! handing over the parsed batch and getting back the epoch the caller
//! can read its own writes at.
//!
//! Two body formats are auto-detected per request:
//!
//! * **N-Triples** — the standard line syntax, parsed with
//!   [`sofya_rdf::parse_ntriples_terms`] (comments and blank lines
//!   allowed).
//! * **line-JSON** — one `{"s":…,"p":…,"o":…}` object per line, each
//!   term in the wire term encoding (see [`crate::wire::term_to_json`]).
//!   Detected by a leading `{`.
//!
//! Either way the sink gets the client's batch as sent: one triple per
//! line, in order, repeats included. Deduplication is the store's job.

use crate::json::Json;
use crate::wire::term_from_json;
use sofya_endpoint::EndpointError;
use sofya_rdf::term::is_delimitable_iri;
use sofya_rdf::{parse_ntriples_terms, Term};

/// Where `POST /ingest` delivers parsed triples. Implemented by the
/// streaming layer (`sofya_stream::SharedIngestor`); one call covers one
/// HTTP request, executed as one scheduler job.
pub trait IngestSink: Send + Sync {
    /// Accepts a batch of triples and returns the epoch at which they
    /// are (or will be) readable: the epoch of the publish that covered
    /// them, or of the snapshot current at buffering time if the batch
    /// only filled a buffer.
    fn ingest(&self, triples: Vec<(Term, Term, Term)>) -> Result<u64, EndpointError>;
}

/// Parses an ingest request body into triples, auto-detecting the
/// format: a body whose first non-whitespace byte is `{` is line-JSON,
/// anything else is N-Triples.
pub fn parse_ingest_body(body: &str) -> Result<Vec<(Term, Term, Term)>, String> {
    if body.trim_start().starts_with('{') {
        parse_line_json(body)
    } else {
        parse_ntriples_terms(body).map_err(|e| e.to_string())
    }
}

fn parse_line_json(body: &str) -> Result<Vec<(Term, Term, Term)>, String> {
    let mut triples = Vec::new();
    for (idx, raw_line) in body.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let term = |key: &str| {
            let value = json
                .get(key)
                .ok_or_else(|| format!("line {}: triple missing {key:?}", idx + 1))?;
            term_from_json(value).map_err(|e| format!("line {}: {e}", idx + 1))
        };
        let (s, p, o) = (term("s")?, term("p")?, term("o")?);
        // The rules `parse_ntriples_terms` enforces on the other format.
        if !p.is_iri() {
            return Err(format!("line {}: predicate must be an IRI", idx + 1));
        }
        if s.is_literal() {
            return Err(format!("line {}: subject must not be a literal", idx + 1));
        }
        for term in [&s, &p, &o] {
            let iri = match term {
                Term::Iri(iri) => Some(iri),
                Term::Literal { datatype, .. } => datatype.as_ref(),
                Term::BNode(_) => None,
            };
            if let Some(iri) = iri.filter(|iri| !is_delimitable_iri(iri)) {
                return Err(format!(
                    "line {}: IRI {iri:?} holds whitespace, '<' or '>'",
                    idx + 1
                ));
            }
        }
        triples.push((s, p, o));
    }
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::term_to_json;

    #[test]
    fn ntriples_bodies_parse() {
        let triples = parse_ingest_body(
            "# comment\n\
             <http://e/a> <http://r/p> <http://e/b> .\n\
             \n\
             <http://e/a> <http://r/p> \"lit\" .\n",
        )
        .unwrap();
        assert_eq!(triples.len(), 2);
        assert!(triples
            .iter()
            .all(|(_, p, _)| *p == Term::iri("http://r/p")));
    }

    #[test]
    fn line_json_bodies_parse() {
        let line = Json::obj(vec![
            ("s", term_to_json(&Term::iri("e:a"))),
            ("p", term_to_json(&Term::iri("r:p"))),
            ("o", term_to_json(&Term::literal("x"))),
        ])
        .to_text();
        let body = format!("{line}\n{line}\n");
        let triples = parse_ingest_body(&body).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].0, Term::iri("e:a"));
        assert_eq!(triples[0].2, Term::literal("x"));
    }

    /// The sink gets the batch the client sent, in either format: a
    /// repeated line arrives twice, and nothing is reordered.
    #[test]
    fn a_repeated_line_reaches_the_sink_twice_and_in_order() {
        let (a, p) = (Term::iri("e:a"), Term::iri("r:p"));
        let sent = [
            (a.clone(), p.clone(), Term::literal("z")),
            (a.clone(), p.clone(), Term::iri("e:b")),
            (a.clone(), p.clone(), Term::literal("z")),
        ];
        let ntriples: String = sent
            .iter()
            .map(|(s, p, o)| format!("{s} {p} {o} .\n"))
            .collect();
        let line_json: String = sent
            .iter()
            .map(|(s, p, o)| {
                let line = Json::obj(vec![
                    ("s", term_to_json(s)),
                    ("p", term_to_json(p)),
                    ("o", term_to_json(o)),
                ]);
                line.to_text() + "\n"
            })
            .collect();
        assert_eq!(parse_ingest_body(&ntriples).unwrap(), sent);
        assert_eq!(parse_ingest_body(&line_json).unwrap(), sent);
    }

    /// Line-JSON refuses the triples N-Triples refuses — a predicate that
    /// is not an IRI, a literal subject, an IRI holding whitespace, `<` or
    /// `>` — and names the line.
    #[test]
    fn line_json_refuses_what_ntriples_refuses() {
        let (iri, lit, bnode) = (Term::iri("e:x"), Term::literal("x"), Term::bnode("b"));
        let good = (iri.clone(), iri.clone(), iri.clone());
        for (bad, rule) in [
            ((iri.clone(), bnode.clone(), iri.clone()), "predicate"),
            ((iri.clone(), lit.clone(), iri.clone()), "predicate"),
            ((lit.clone(), iri.clone(), iri.clone()), "subject"),
            ((lit.clone(), bnode.clone(), iri.clone()), "predicate"),
            (
                (Term::iri("e:a><r:q><e:b"), iri.clone(), iri.clone()),
                "IRI",
            ),
            ((iri.clone(), Term::iri("r:p q"), iri.clone()), "IRI"),
            ((iri.clone(), iri.clone(), Term::iri("e:<b")), "IRI"),
            (
                (iri.clone(), iri.clone(), Term::typed_literal("1", "x:t>")),
                "IRI",
            ),
        ] {
            let line_json: String = [&good, &bad]
                .iter()
                .map(|(s, p, o)| {
                    let line = Json::obj(vec![
                        ("s", term_to_json(s)),
                        ("p", term_to_json(p)),
                        ("o", term_to_json(o)),
                    ]);
                    line.to_text() + "\n"
                })
                .collect();
            let err = parse_ingest_body(&line_json).unwrap_err();
            assert!(err.contains("line 2") && err.contains(rule), "{err}");
            let (s, p, o) = &bad;
            assert!(parse_ingest_body(&format!("{s} {p} {o} .\n")).is_err());
        }
    }

    #[test]
    fn malformed_bodies_name_the_line() {
        let err = parse_ingest_body("{\"s\":1}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(parse_ingest_body("not ntriples at all").is_err());
    }
}
