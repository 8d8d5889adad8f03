//! AST → query-string serialisation.
//!
//! Needed by query *rewriting* (SOFYA's motivating use case: take a query
//! written for KB `K`, align its relations on the fly, and re-issue it
//! against KB `K'`). `parse_query(unparse(q))` is the identity on the
//! AST, which the round-trip tests below and the workspace property tests
//! enforce.
//!
//! The same writer cuts a prepared template's text at its parameters
//! (`unparse_template`), so [`crate::Prepared::render`] splices
//! argument terms into the holes instead of binding and unparsing.

use crate::ast::{
    Builtin, CompareOp, Expr, GroupGraphPattern, NodePattern, Projection, Query, SelectQuery,
};
use sofya_rdf::term::is_delimitable_iri;
use sofya_rdf::Term;
use std::fmt::Write;

/// Serialises a query back to SPARQL text.
pub fn unparse(query: &Query) -> String {
    let (mut text, _) = unparse_template(query, &[]);
    if let Query::Select(s) = query {
        write_page(&mut text, s.limit, s.offset);
    }
    text
}

/// Where a parameter stands, which decides the terms that may fill it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Place {
    /// Subject or object of a triple pattern: any term.
    Node,
    /// Predicate of a triple pattern: an IRI.
    Predicate,
    /// An operand of a `FILTER` expression: an IRI or a literal.
    Expr,
}

/// One parameter occurrence cut out of a template's text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hole {
    /// Byte offset of the hole in the text.
    pub(crate) at: usize,
    /// Index of the parameter that fills it.
    pub(crate) param: usize,
    /// What may fill it.
    pub(crate) place: Place,
}

/// `query`'s text up to, not including, its `LIMIT`/`OFFSET`, with every
/// occurrence of a variable named in `params` left out and recorded as a
/// [`Hole`], in text order. Writing each hole's argument (its N-Triples
/// text) and the page with [`write_page`] gives exactly [`unparse`] of
/// the bound query.
pub(crate) fn unparse_template(query: &Query, params: &[String]) -> (String, Vec<Hole>) {
    let mut w = Writer {
        out: String::new(),
        params,
        holes: Vec::new(),
    };
    w.query(query);
    (w.out, w.holes)
}

/// Appends a query's ` LIMIT n` / ` OFFSET n`, as [`unparse`] writes them.
pub(crate) fn write_page(out: &mut String, limit: Option<usize>, offset: Option<usize>) {
    if let Some(limit) = limit {
        let _ = write!(out, " LIMIT {limit}");
    }
    if let Some(offset) = offset {
        let _ = write!(out, " OFFSET {offset}");
    }
}

/// Whether `term`'s N-Triples text, which is valid SPARQL for constants,
/// parses back as `term` in `place`: an IRI the lexer does not end
/// early, a language tag and a blank-node label of the characters their
/// tokens take, no literal that carries both a tag and a datatype (only
/// the tag is written), no literal as a predicate and no blank node in
/// an expression, which the parser refuses.
pub(crate) fn writes_as_itself(term: &Term, place: Place) -> bool {
    match term {
        Term::Iri(iri) => is_delimitable_iri(iri),
        Term::Literal { lang, datatype, .. } => {
            place != Place::Predicate
                && match (lang, datatype) {
                    (Some(_), Some(_)) => false,
                    (Some(lang), None) => {
                        !lang.is_empty()
                            && lang.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-')
                    }
                    (None, Some(datatype)) => is_delimitable_iri(datatype),
                    (None, None) => true,
                }
        }
        Term::BNode(label) => {
            place == Place::Node
                && !label.is_empty()
                && label
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_')
        }
    }
}

/// One output buffer for the whole query; a parameter variable becomes a
/// hole instead of text.
struct Writer<'p> {
    out: String,
    params: &'p [String],
    holes: Vec<Hole>,
}

impl Writer<'_> {
    fn query(&mut self, query: &Query) {
        match query {
            Query::Select(s) => self.select(s),
            Query::Ask(p) => {
                self.out.push_str("ASK ");
                self.group(p);
            }
        }
    }

    /// Everything of a `SELECT` but its `LIMIT`/`OFFSET`.
    fn select(&mut self, q: &SelectQuery) {
        self.out.push_str("SELECT ");
        if q.distinct {
            self.out.push_str("DISTINCT ");
        }
        match &q.projection {
            Projection::Star => self.out.push('*'),
            Projection::Vars(vars) => {
                let names: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
                self.out.push_str(&names.join(" "));
            }
            Projection::Count {
                var,
                distinct,
                alias,
            } => {
                let distinct = if *distinct { "DISTINCT " } else { "" };
                let var = var.as_ref().map_or("*".to_owned(), |v| format!("?{v}"));
                let _ = write!(self.out, "(COUNT({distinct}{var}) AS ?{alias})");
            }
        }
        self.out.push_str(" WHERE ");
        self.group(&q.pattern);
        if !q.order_by.is_empty() {
            self.out.push_str(" ORDER BY");
            for key in &q.order_by {
                if key.descending {
                    let _ = write!(self.out, " DESC(?{})", key.var);
                } else {
                    let _ = write!(self.out, " ?{}", key.var);
                }
            }
        }
    }

    fn group(&mut self, group: &GroupGraphPattern) {
        self.out.push_str("{ ");
        for tp in &group.triples {
            self.node(&tp.s, Place::Node);
            self.out.push(' ');
            self.node(&tp.p, Place::Predicate);
            self.out.push(' ');
            self.node(&tp.o, Place::Node);
            self.out.push_str(" . ");
        }
        for block in &group.unions {
            for (i, branch) in block.iter().enumerate() {
                self.out.push_str(if i > 0 { " UNION " } else { "" });
                self.group(branch);
            }
            self.out.push_str(" . ");
        }
        for optional in &group.optionals {
            self.out.push_str("OPTIONAL ");
            self.group(optional);
            self.out.push_str(" . ");
        }
        for filter in &group.filters {
            self.out.push_str("FILTER(");
            self.expr(filter);
            self.out.push_str(") . ");
        }
        self.out.push('}');
    }

    fn node(&mut self, node: &NodePattern, place: Place) {
        match node {
            NodePattern::Var(v) => self.var(v, place),
            NodePattern::Term(t) => {
                let _ = write!(self.out, "{t}");
            }
        }
    }

    fn var(&mut self, name: &str, place: Place) {
        match self.params.iter().position(|p| p == name) {
            Some(param) => self.holes.push(Hole {
                at: self.out.len(),
                param,
                place,
            }),
            None => {
                let _ = write!(self.out, "?{name}");
            }
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Var(v) => self.var(v, Place::Expr),
            Expr::Const(t) => {
                let _ = write!(self.out, "{t}");
            }
            Expr::Compare(op, a, b) => self.infix(a, compare_op(*op), b),
            Expr::And(a, b) => self.infix(a, "&&", b),
            Expr::Or(a, b) => self.infix(a, "||", b),
            Expr::Not(inner) => {
                self.out.push_str("(!");
                self.expr(inner);
                self.out.push(')');
            }
            Expr::Call(builtin, args) => {
                self.out.push_str(builtin_name(*builtin));
                self.out.push('(');
                for (i, arg) in args.iter().enumerate() {
                    self.out.push_str(if i > 0 { ", " } else { "" });
                    self.expr(arg);
                }
                self.out.push(')');
            }
            Expr::Exists { pattern, negated } => {
                self.out
                    .push_str(if *negated { "NOT EXISTS " } else { "EXISTS " });
                self.group(pattern);
            }
        }
    }

    /// `(a op b)`.
    fn infix(&mut self, a: &Expr, op: &str, b: &Expr) {
        self.out.push('(');
        self.expr(a);
        let _ = write!(self.out, " {op} ");
        self.expr(b);
        self.out.push(')');
    }
}

fn compare_op(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Neq => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
    }
}

fn builtin_name(b: Builtin) -> &'static str {
    match b {
        Builtin::Bound => "BOUND",
        Builtin::Str => "STR",
        Builtin::Lang => "LANG",
        Builtin::Datatype => "DATATYPE",
        Builtin::IsIri => "ISIRI",
        Builtin::IsLiteral => "ISLITERAL",
        Builtin::IsBlank => "ISBLANK",
        Builtin::StrStarts => "STRSTARTS",
        Builtin::StrEnds => "STRENDS",
        Builtin::Contains => "CONTAINS",
        Builtin::Regex => "REGEX",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn round_trip(q: &str) {
        let ast = parse_query(q).unwrap_or_else(|e| panic!("parse {q}: {e}"));
        let text = unparse(&ast);
        let again = parse_query(&text).unwrap_or_else(|e| panic!("reparse {text}: {e}"));
        assert_eq!(
            ast, again,
            "round trip changed the AST for {q}\nunparsed: {text}"
        );
    }

    #[test]
    fn round_trips_basic_queries() {
        round_trip("SELECT ?x WHERE { ?x <p> ?y }");
        round_trip("SELECT DISTINCT ?x ?y { ?x <p> ?y . ?y <q> <a> }");
        round_trip("SELECT * { ?x <p> \"lit\"@en }");
        round_trip("ASK { <a> <p> <b> }");
    }

    #[test]
    fn round_trips_modifiers() {
        round_trip("SELECT ?x { ?x <p> ?y } ORDER BY ?x DESC(?y) LIMIT 5 OFFSET 2");
        round_trip("SELECT (COUNT(*) AS ?n) { ?x <p> ?y }");
        round_trip("SELECT (COUNT(DISTINCT ?x) AS ?n) { ?x <p> ?y }");
    }

    #[test]
    fn round_trips_filters() {
        round_trip("SELECT ?x { ?x <p> ?y FILTER(?x != ?y) }");
        round_trip("SELECT ?x { ?x <p> ?y FILTER(?y > 3 && BOUND(?x) || !ISLITERAL(?y)) }");
        round_trip("SELECT ?x { ?x <p> ?y FILTER(STRSTARTS(STR(?y), \"A\")) }");
        round_trip("SELECT ?x { ?x <p> ?y FILTER NOT EXISTS { ?x <q> ?y } }");
        round_trip("SELECT ?x { ?x <p> ?y FILTER EXISTS { ?x <q> ?z } }");
    }

    #[test]
    fn round_trips_typed_literals() {
        round_trip("SELECT ?x { ?x <age> 42 }");
        round_trip("SELECT ?x { ?x <name> \"O'Neil \\\"Bob\\\"\" }");
        round_trip("SELECT ?x { ?x <dt> \"2020\"^^<http://www.w3.org/2001/XMLSchema#gYear> }");
    }

    #[test]
    fn unparsed_text_is_executable() {
        use sofya_rdf::{Term, TripleStore};
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        let ast = parse_query("SELECT ?x { ?x <p> ?y }").unwrap();
        let rs = crate::eval::execute(&store, &unparse(&ast)).unwrap();
        assert_eq!(rs.len(), 1);
    }
}
