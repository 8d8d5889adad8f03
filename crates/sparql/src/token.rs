//! SPARQL lexer.
//!
//! Produces a flat token stream; keywords are recognised case-insensitively
//! as SPARQL requires. IRIs are delivered without angle brackets and string
//! literals without quotes (escape sequences already decoded).

use crate::error::SparqlError;
use sofya_rdf::term::unescape_literal;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Case-normalised keyword, e.g. `SELECT`, `WHERE`, `FILTER`: the
    /// entry of the keyword table, so a keyword allocates nothing.
    Keyword(&'static str),
    /// Variable without the leading `?`/`$`.
    Var(String),
    /// IRI without angle brackets.
    Iri(String),
    /// String literal content (unescaped).
    Str(String),
    /// Language tag without `@`.
    LangTag(String),
    /// Integer literal.
    Integer(i64),
    /// Blank node label without `_:`.
    BNode(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `^^`
    DoubleCaret,
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<` (only in expression context; the lexer always resolves `<…>` to
    /// an IRI when the bracket closes on the same line without whitespace,
    /// so a bare `<` token is comparison)
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
}

const KEYWORDS: &[&str] = &[
    "SELECT",
    "DISTINCT",
    "WHERE",
    "FILTER",
    "LIMIT",
    "OFFSET",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "ASK",
    "COUNT",
    "AS",
    "BOUND",
    "STR",
    "LANG",
    "DATATYPE",
    "ISIRI",
    "ISLITERAL",
    "ISBLANK",
    "STRSTARTS",
    "STRENDS",
    "CONTAINS",
    "REGEX",
    "EXISTS",
    "NOT",
    "TRUE",
    "FALSE",
    "UNION",
    "OPTIONAL",
    "VALUES",
    "UNDEF",
];

/// Tokenises a query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, SparqlError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Neq);
                    i += 2;
                } else {
                    tokens.push(Token::Bang);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(SparqlError::lex(i, "lone '&'"));
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(SparqlError::lex(i, "lone '|'"));
                }
            }
            '^' => {
                if bytes.get(i + 1) == Some(&b'^') {
                    tokens.push(Token::DoubleCaret);
                    i += 2;
                } else {
                    return Err(SparqlError::lex(i, "lone '^'"));
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '<' => {
                // Try to lex an IRI: `<` followed by non-space chars up to `>`.
                let rest = &input[i + 1..];
                if let Some(close) = rest.find('>') {
                    let candidate = &rest[..close];
                    if !candidate.contains(char::is_whitespace) && !candidate.contains('<') {
                        tokens.push(Token::Iri(candidate.to_owned()));
                        i += close + 2;
                        continue;
                    }
                }
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '?' | '$' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                if end == start {
                    return Err(SparqlError::lex(i, "empty variable name"));
                }
                tokens.push(Token::Var(input[start..end].to_owned()));
                i = end;
            }
            '"' => {
                let rest = &input[i + 1..];
                let rbytes = rest.as_bytes();
                let mut j = 0;
                let mut escaped = false;
                let close = loop {
                    if j >= rbytes.len() {
                        return Err(SparqlError::lex(i, "unterminated string literal"));
                    }
                    match rbytes[j] {
                        b'\\' if !escaped => escaped = true,
                        b'"' if !escaped => break j,
                        _ => escaped = false,
                    }
                    j += 1;
                };
                tokens.push(Token::Str(unescape_literal(&rest[..close])));
                i += close + 2;
            }
            '@' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'-')
                {
                    end += 1;
                }
                if end == start {
                    return Err(SparqlError::lex(i, "empty language tag"));
                }
                tokens.push(Token::LangTag(input[start..end].to_owned()));
                i = end;
            }
            '_' => {
                if bytes.get(i + 1) == Some(&b':') {
                    let start = i + 2;
                    let mut end = start;
                    while end < bytes.len()
                        && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                    {
                        end += 1;
                    }
                    if end == start {
                        return Err(SparqlError::lex(i, "empty blank node label"));
                    }
                    tokens.push(Token::BNode(input[start..end].to_owned()));
                    i = end;
                } else {
                    return Err(SparqlError::lex(i, "unexpected '_'"));
                }
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = i;
                let mut end = if c == '-' || c == '+' { i + 1 } else { i };
                while end < bytes.len() && (bytes[end] as char).is_ascii_digit() {
                    end += 1;
                }
                if end == start || (end == start + 1 && (c == '-' || c == '+')) {
                    return Err(SparqlError::lex(i, format!("unexpected character '{c}'")));
                }
                let value: i64 = input[start..end]
                    .parse()
                    .map_err(|_| SparqlError::lex(i, "integer out of range"))?;
                tokens.push(Token::Integer(value));
                i = end;
            }
            c if c.is_ascii_alphabetic() => {
                let start = i;
                let mut end = i;
                while end < bytes.len() && (bytes[end] as char).is_ascii_alphanumeric() {
                    end += 1;
                }
                let word = &input[start..end];
                let Some(keyword) = KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) else {
                    return Err(SparqlError::lex(
                        i,
                        format!("unknown keyword or bare name '{word}'"),
                    ));
                };
                tokens.push(Token::Keyword(keyword));
                i = end;
            }
            other => {
                return Err(SparqlError::lex(
                    i,
                    format!("unexpected character '{other}'"),
                ))
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_select_query() {
        let toks = tokenize("SELECT ?x WHERE { ?x <p> \"v\" . }").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT"),
                Token::Var("x".into()),
                Token::Keyword("WHERE"),
                Token::LBrace,
                Token::Var("x".into()),
                Token::Iri("p".into()),
                Token::Str("v".into()),
                Token::Dot,
                Token::RBrace,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = tokenize("select Where filter").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT"),
                Token::Keyword("WHERE"),
                Token::Keyword("FILTER"),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("= != < <= > >= ! && ||").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Eq,
                Token::Neq,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Bang,
                Token::AndAnd,
                Token::OrOr,
            ]
        );
    }

    #[test]
    fn lt_followed_by_iri_like_text_prefers_iri() {
        // `?a < ?b` must lex as comparison, `<p>` as IRI.
        let toks = tokenize("?a < 3").unwrap();
        assert_eq!(toks[1], Token::Lt);
        let toks = tokenize("<http://x/p>").unwrap();
        assert_eq!(toks[0], Token::Iri("http://x/p".into()));
    }

    #[test]
    fn typed_and_lang_literals() {
        let toks = tokenize("\"42\"^^<xsd:int> \"hi\"@en").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("42".into()),
                Token::DoubleCaret,
                Token::Iri("xsd:int".into()),
                Token::Str("hi".into()),
                Token::LangTag("en".into()),
            ]
        );
    }

    #[test]
    fn integers_with_sign() {
        let toks = tokenize("10 -3 +7").unwrap();
        assert_eq!(
            toks,
            vec![Token::Integer(10), Token::Integer(-3), Token::Integer(7)]
        );
    }

    #[test]
    fn string_escapes_are_decoded() {
        let toks = tokenize(r#""a\"b\n""#).unwrap();
        assert_eq!(toks, vec![Token::Str("a\"b\n".into())]);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT # everything\n ?x").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn bnode_labels() {
        let toks = tokenize("_:b1").unwrap();
        assert_eq!(toks, vec![Token::BNode("b1".into())]);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn rejects_unknown_bare_word() {
        assert!(tokenize("SELECT bogusword").is_err());
    }

    #[test]
    fn rejects_lone_ampersand() {
        assert!(tokenize("?a & ?b").is_err());
    }
}
