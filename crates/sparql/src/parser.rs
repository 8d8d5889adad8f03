//! Recursive-descent parser for the supported SPARQL subset.

use crate::ast::{
    Builtin, CompareOp, Expr, GroupGraphPattern, NodePattern, OrderKey, Projection, Query,
    SelectQuery, TriplePatternAst,
};
use crate::error::SparqlError;
use crate::token::{tokenize, Token};
use sofya_rdf::Term;

/// XSD boolean datatype IRI (used for `TRUE`/`FALSE` literals).
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
/// XSD integer datatype IRI (used for numeric literals).
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

/// Parses a query string into an AST.
pub fn parse_query(input: &str) -> Result<Query, SparqlError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens: tokens.into_iter().peekable(),
    };
    let query = parser.parse_query()?;
    if !parser.at_end() {
        return Err(SparqlError::parse(format!(
            "unexpected trailing token {:?}",
            parser.peek().unwrap()
        )));
    }
    Ok(query)
}

/// Takes each token by move: an IRI, variable or literal token becomes
/// the AST's string without a copy.
struct Parser {
    tokens: std::iter::Peekable<std::vec::IntoIter<Token>>,
}

impl Parser {
    fn peek(&mut self) -> Option<&Token> {
        self.tokens.peek()
    }

    fn at_end(&mut self) -> bool {
        self.tokens.peek().is_none()
    }

    fn next(&mut self) -> Result<Token, SparqlError> {
        self.tokens
            .next()
            .ok_or_else(|| SparqlError::parse("unexpected end of query"))
    }

    /// Drops the token [`Parser::peek`] just matched.
    fn bump(&mut self) {
        self.tokens.next();
    }

    fn expect(&mut self, want: &Token) -> Result<(), SparqlError> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(SparqlError::parse(format!(
                "expected {want:?}, found {got:?}"
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SparqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SparqlError::parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn parse_query(&mut self) -> Result<Query, SparqlError> {
        if self.eat_keyword("ASK") {
            let pattern = self.parse_group()?;
            return Ok(Query::Ask(pattern));
        }
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let projection = self.parse_projection()?;
        // WHERE is optional in SPARQL.
        let _ = self.eat_keyword("WHERE");
        let pattern = self.parse_group()?;

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek() {
                    Some(Token::Var(_)) => {
                        let Token::Var(v) = self.next()? else {
                            unreachable!()
                        };
                        order_by.push(OrderKey {
                            var: v,
                            descending: false,
                        });
                    }
                    Some(Token::Keyword(k)) if *k == "ASC" || *k == "DESC" => {
                        let descending = *k == "DESC";
                        self.bump();
                        self.expect(&Token::LParen)?;
                        let Token::Var(v) = self.next()? else {
                            return Err(SparqlError::parse("expected variable in ORDER BY"));
                        };
                        self.expect(&Token::RParen)?;
                        order_by.push(OrderKey { var: v, descending });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(SparqlError::parse("ORDER BY requires at least one key"));
            }
        }

        let mut limit = None;
        let mut offset = None;
        // Accept LIMIT/OFFSET in either order, each at most once.
        for _ in 0..2 {
            if limit.is_none() && self.eat_keyword("LIMIT") {
                limit = Some(self.parse_usize()?);
            } else if offset.is_none() && self.eat_keyword("OFFSET") {
                offset = Some(self.parse_usize()?);
            }
        }

        Ok(Query::Select(SelectQuery {
            projection,
            distinct,
            pattern,
            order_by,
            limit,
            offset,
        }))
    }

    fn parse_usize(&mut self) -> Result<usize, SparqlError> {
        match self.next()? {
            Token::Integer(n) if n >= 0 => Ok(n as usize),
            other => Err(SparqlError::parse(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    fn parse_projection(&mut self) -> Result<Projection, SparqlError> {
        match self.peek() {
            Some(Token::Star) => {
                self.bump();
                Ok(Projection::Star)
            }
            Some(Token::LParen) => {
                // ( COUNT ( * | [DISTINCT] ?v ) AS ?alias )
                self.bump();
                self.expect_keyword("COUNT")?;
                self.expect(&Token::LParen)?;
                let (var, distinct) = match self.peek() {
                    Some(Token::Star) => {
                        self.bump();
                        (None, false)
                    }
                    _ => {
                        let distinct = self.eat_keyword("DISTINCT");
                        let Token::Var(v) = self.next()? else {
                            return Err(SparqlError::parse("expected variable in COUNT"));
                        };
                        (Some(v), distinct)
                    }
                };
                self.expect(&Token::RParen)?;
                self.expect_keyword("AS")?;
                let Token::Var(alias) = self.next()? else {
                    return Err(SparqlError::parse("expected variable after AS"));
                };
                self.expect(&Token::RParen)?;
                Ok(Projection::Count {
                    var,
                    distinct,
                    alias,
                })
            }
            Some(Token::Var(_)) => {
                let mut vars = Vec::new();
                while let Some(Token::Var(_)) = self.peek() {
                    let Token::Var(v) = self.next()? else {
                        unreachable!()
                    };
                    vars.push(v);
                }
                Ok(Projection::Vars(vars))
            }
            other => Err(SparqlError::parse(format!(
                "expected projection (*, variables or COUNT), found {other:?}"
            ))),
        }
    }

    fn parse_group(&mut self) -> Result<GroupGraphPattern, SparqlError> {
        self.expect(&Token::LBrace)?;
        let mut group = GroupGraphPattern::default();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                Some(Token::Keyword("FILTER")) => {
                    self.bump();
                    group.filters.push(self.parse_constraint()?);
                    // An optional '.' may separate filters from triples.
                    while matches!(self.peek(), Some(Token::Dot)) {
                        self.bump();
                    }
                }
                Some(Token::Keyword("OPTIONAL")) => {
                    self.bump();
                    group.optionals.push(self.parse_group()?);
                    while matches!(self.peek(), Some(Token::Dot)) {
                        self.bump();
                    }
                }
                Some(Token::LBrace) => {
                    // A nested group, possibly the head of a UNION chain.
                    let mut branches = vec![self.parse_group()?];
                    while self.eat_keyword("UNION") {
                        branches.push(self.parse_group()?);
                    }
                    group.unions.push(branches);
                    while matches!(self.peek(), Some(Token::Dot)) {
                        self.bump();
                    }
                }
                Some(_) => {
                    let triple = self.parse_triple()?;
                    group.triples.push(triple);
                    // '.' separators are optional before '}' per SPARQL.
                    while matches!(self.peek(), Some(Token::Dot)) {
                        self.bump();
                    }
                }
                None => {
                    return Err(SparqlError::parse(
                        "unterminated group pattern, expected '}'",
                    ))
                }
            }
        }
        Ok(group)
    }

    fn parse_triple(&mut self) -> Result<TriplePatternAst, SparqlError> {
        let s = self.parse_node()?;
        let p = self.parse_node()?;
        let o = self.parse_node()?;
        if matches!(&p, NodePattern::Term(t) if !t.is_iri()) {
            return Err(SparqlError::parse("predicate must be a variable or an IRI"));
        }
        Ok(TriplePatternAst { s, p, o })
    }

    fn parse_node(&mut self) -> Result<NodePattern, SparqlError> {
        match self.next()? {
            Token::Var(v) => Ok(NodePattern::Var(v)),
            Token::Iri(iri) => Ok(NodePattern::Term(Term::iri(iri))),
            Token::BNode(label) => Ok(NodePattern::Term(Term::bnode(label))),
            Token::Str(s) => Ok(NodePattern::Term(self.finish_literal(s)?)),
            Token::Integer(n) => Ok(NodePattern::Term(Term::integer(n))),
            other => Err(SparqlError::parse(format!(
                "expected triple-pattern node, found {other:?}"
            ))),
        }
    }

    /// After a string token, consumes an optional `@lang` or `^^<dt>`.
    fn finish_literal(&mut self, lexical: String) -> Result<Term, SparqlError> {
        match self.peek() {
            Some(Token::LangTag(_)) => {
                let Token::LangTag(lang) = self.next()? else {
                    unreachable!()
                };
                Ok(Term::lang_literal(lexical, lang))
            }
            Some(Token::DoubleCaret) => {
                self.bump();
                match self.next()? {
                    Token::Iri(dt) => Ok(Term::typed_literal(lexical, dt)),
                    other => Err(SparqlError::parse(format!(
                        "expected datatype IRI, found {other:?}"
                    ))),
                }
            }
            _ => Ok(Term::literal(lexical)),
        }
    }

    fn parse_constraint(&mut self) -> Result<Expr, SparqlError> {
        // FILTER is followed by a parenthesised expression or a bare
        // builtin / EXISTS call.
        match self.peek() {
            Some(Token::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, SparqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SparqlError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Some(Token::OrOr)) {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, SparqlError> {
        let mut lhs = self.parse_unary()?;
        while matches!(self.peek(), Some(Token::AndAnd)) {
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, SparqlError> {
        if matches!(self.peek(), Some(Token::Bang)) {
            self.bump();
            let inner = self.parse_unary()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, SparqlError> {
        let lhs = self.parse_primary()?;
        let op = match self.peek() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Neq) => CompareOp::Neq,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_primary()?;
        Ok(Expr::Compare(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_primary(&mut self) -> Result<Expr, SparqlError> {
        match self.next()? {
            Token::Var(v) => Ok(Expr::Var(v)),
            Token::Iri(iri) => Ok(Expr::Const(Term::iri(iri))),
            Token::Str(s) => Ok(Expr::Const(self.finish_literal(s)?)),
            Token::Integer(n) => Ok(Expr::Const(Term::integer(n))),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Bang => {
                let inner = self.parse_unary()?;
                Ok(Expr::Not(Box::new(inner)))
            }
            Token::Keyword(kw) => self.parse_keyword_primary(kw),
            other => Err(SparqlError::parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    fn parse_keyword_primary(&mut self, kw: &str) -> Result<Expr, SparqlError> {
        let builtin = match kw {
            "TRUE" => {
                return Ok(Expr::Const(Term::typed_literal("true", XSD_BOOLEAN)));
            }
            "FALSE" => {
                return Ok(Expr::Const(Term::typed_literal("false", XSD_BOOLEAN)));
            }
            "NOT" => {
                self.expect_keyword("EXISTS")?;
                let pattern = self.parse_group()?;
                return Ok(Expr::Exists {
                    pattern,
                    negated: true,
                });
            }
            "EXISTS" => {
                let pattern = self.parse_group()?;
                return Ok(Expr::Exists {
                    pattern,
                    negated: false,
                });
            }
            "BOUND" => Builtin::Bound,
            "STR" => Builtin::Str,
            "LANG" => Builtin::Lang,
            "DATATYPE" => Builtin::Datatype,
            "ISIRI" => Builtin::IsIri,
            "ISLITERAL" => Builtin::IsLiteral,
            "ISBLANK" => Builtin::IsBlank,
            "STRSTARTS" => Builtin::StrStarts,
            "STRENDS" => Builtin::StrEnds,
            "CONTAINS" => Builtin::Contains,
            "REGEX" => Builtin::Regex,
            other => {
                return Err(SparqlError::parse(format!(
                    "unexpected keyword {other} in expression"
                )))
            }
        };
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if !matches!(self.peek(), Some(Token::RParen)) {
            loop {
                args.push(self.parse_expr()?);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        let arity: usize = match builtin {
            Builtin::Bound
            | Builtin::Str
            | Builtin::Lang
            | Builtin::Datatype
            | Builtin::IsIri
            | Builtin::IsLiteral
            | Builtin::IsBlank => 1,
            Builtin::StrStarts | Builtin::StrEnds | Builtin::Contains | Builtin::Regex => 2,
        };
        if args.len() != arity {
            return Err(SparqlError::parse(format!(
                "{builtin:?} expects {arity} argument(s), got {}",
                args.len()
            )));
        }
        Ok(Expr::Call(builtin, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(input: &str) -> SelectQuery {
        match parse_query(input).unwrap() {
            Query::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_select() {
        let q = select("SELECT ?x WHERE { ?x <p> ?y }");
        assert_eq!(q.projection, Projection::Vars(vec!["x".into()]));
        assert_eq!(q.pattern.triples.len(), 1);
        assert!(!q.distinct);
    }

    #[test]
    fn parses_star_and_distinct() {
        let q = select("SELECT DISTINCT * { ?x <p> ?y . ?y <q> ?z }");
        assert_eq!(q.projection, Projection::Star);
        assert!(q.distinct);
        assert_eq!(q.pattern.triples.len(), 2);
    }

    #[test]
    fn parses_count_star() {
        let q = select("SELECT (COUNT(*) AS ?n) WHERE { ?x <p> ?y }");
        assert_eq!(
            q.projection,
            Projection::Count {
                var: None,
                distinct: false,
                alias: "n".into()
            }
        );
    }

    #[test]
    fn parses_count_distinct_var() {
        let q = select("SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x <p> ?y }");
        assert_eq!(
            q.projection,
            Projection::Count {
                var: Some("x".into()),
                distinct: true,
                alias: "n".into()
            }
        );
    }

    #[test]
    fn parses_limit_offset_in_both_orders() {
        let q = select("SELECT ?x { ?x <p> ?y } LIMIT 5 OFFSET 2");
        assert_eq!((q.limit, q.offset), (Some(5), Some(2)));
        let q = select("SELECT ?x { ?x <p> ?y } OFFSET 2 LIMIT 5");
        assert_eq!((q.limit, q.offset), (Some(5), Some(2)));
    }

    #[test]
    fn parses_order_by() {
        let q = select("SELECT ?x { ?x <p> ?y } ORDER BY ?x DESC(?y) LIMIT 1");
        assert_eq!(
            q.order_by,
            vec![
                OrderKey {
                    var: "x".into(),
                    descending: false
                },
                OrderKey {
                    var: "y".into(),
                    descending: true
                },
            ]
        );
    }

    #[test]
    fn parses_filter_comparison() {
        let q = select("SELECT ?x { ?x <p> ?y . FILTER(?y != ?x) }");
        assert_eq!(q.pattern.filters.len(), 1);
        match &q.pattern.filters[0] {
            Expr::Compare(CompareOp::Neq, a, b) => {
                assert_eq!(**a, Expr::Var("y".into()));
                assert_eq!(**b, Expr::Var("x".into()));
            }
            other => panic!("unexpected filter {other:?}"),
        }
    }

    #[test]
    fn parses_boolean_connectives_with_precedence() {
        let q = select("SELECT ?x { ?x <p> ?y FILTER(?x = ?y || ?x != ?y && BOUND(?x)) }");
        // && binds tighter than ||.
        match &q.pattern.filters[0] {
            Expr::Or(_, rhs) => assert!(matches!(**rhs, Expr::And(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_not_exists() {
        let q = select("SELECT ?x { ?x <p> ?y FILTER NOT EXISTS { ?x <q> ?y } }");
        match &q.pattern.filters[0] {
            Expr::Exists { pattern, negated } => {
                assert!(*negated);
                assert_eq!(pattern.triples.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_exists_inside_parens() {
        let q = select("SELECT ?x { ?x <p> ?y FILTER(EXISTS { ?x <q> ?y }) }");
        assert!(matches!(
            &q.pattern.filters[0],
            Expr::Exists { negated: false, .. }
        ));
    }

    #[test]
    fn parses_builtins() {
        let q =
            select("SELECT ?x { ?x <name> ?n FILTER(ISLITERAL(?n) && STRSTARTS(STR(?n), \"A\")) }");
        assert_eq!(q.pattern.filters.len(), 1);
    }

    #[test]
    fn parses_ask() {
        match parse_query("ASK { <a> <p> <b> }").unwrap() {
            Query::Ask(p) => assert_eq!(p.triples.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_literals_in_patterns() {
        let q = select("SELECT ?x { ?x <name> \"Alice\"@en . ?x <age> 42 }");
        match &q.pattern.triples[0].o {
            NodePattern::Term(t) => assert_eq!(t, &Term::lang_literal("Alice", "en")),
            other => panic!("unexpected {other:?}"),
        }
        match &q.pattern.triples[1].o {
            NodePattern::Term(t) => assert_eq!(t, &Term::integer(42)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variable_predicate_is_allowed() {
        let q = select("SELECT ?p { <a> ?p ?y }");
        assert_eq!(q.pattern.triples[0].p.as_var(), Some("p"));
    }

    #[test]
    fn literal_predicate_is_rejected() {
        assert!(parse_query("SELECT ?x { ?x \"p\" ?y }").is_err());
    }

    #[test]
    fn rejects_wrong_builtin_arity() {
        assert!(parse_query("SELECT ?x { ?x <p> ?y FILTER(BOUND(?x, ?y)) }").is_err());
        assert!(parse_query("SELECT ?x { ?x <p> ?y FILTER(CONTAINS(?x)) }").is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_query("SELECT ?x { ?x <p> ?y } }").is_err());
    }

    #[test]
    fn rejects_unterminated_group() {
        assert!(parse_query("SELECT ?x { ?x <p> ?y").is_err());
    }

    #[test]
    fn rejects_negative_limit() {
        assert!(parse_query("SELECT ?x { ?x <p> ?y } LIMIT -1").is_err());
    }

    #[test]
    fn dot_separators_are_flexible() {
        let q = select("SELECT ?x { ?x <p> ?y . . ?y <q> ?z . }");
        assert_eq!(q.pattern.triples.len(), 2);
    }
}
