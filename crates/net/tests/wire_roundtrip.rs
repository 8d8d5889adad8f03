//! Wire-format round-trip properties: every `Request` variant lowers to
//! the wire and executes to the same `Response` a local endpoint gives,
//! and every `Response` / `EndpointError` shape survives the JSON
//! envelope byte-exactly.
//!
//! The one-pass codec that serves `/query` is checked against the tree
//! codec as its reference, in the small-scope, every-case pattern of
//! Collavizza et al. (arXiv:0808.1508): its text equals the tree's byte
//! for byte, and its decoders give the tree's verdict — the same value
//! or a refusal — on every reference encoding, on the same JSON re-spaced
//! with its keys in another order, and on each of those broken in one
//! place: truncated, a value of the wrong type, a member missing, a row
//! too wide or too narrow, an unknown tag, a bad escape.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use sofya_endpoint::testing::RequestBuf;
use sofya_endpoint::{Endpoint, EndpointError, LocalEndpoint, Response};
use sofya_net::wire::{envelope_from_json, envelope_to_json, parse_envelope, write_envelope};
use sofya_net::{execute_wire_budgeted, Json, WireRequest};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{BudgetBreach, Prepared, QueryBudget, ResultSet, SparqlError};
use std::sync::{Arc, OnceLock};

// --------------------------------------------------------------- fixtures

fn store_endpoint() -> &'static LocalEndpoint {
    static EP: OnceLock<LocalEndpoint> = OnceLock::new();
    EP.get_or_init(|| {
        let mut store = TripleStore::new();
        for i in 0..12 {
            store.insert_terms(
                &Term::iri(format!("e:s{i}")),
                &Term::iri("e:p"),
                &Term::iri(format!("e:o{}", i % 5)),
            );
            store.insert_terms(
                &Term::iri(format!("e:s{i}")),
                &Term::iri("e:label"),
                &Term::literal(format!("thing {i}")),
            );
        }
        LocalEndpoint::new("kb", store)
    })
}

fn objects_template() -> Arc<Prepared> {
    static T: OnceLock<Arc<Prepared>> = OnceLock::new();
    Arc::clone(T.get_or_init(|| {
        Arc::new(Prepared::new("SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o", &["s", "p"]).unwrap())
    }))
}

fn count_template() -> Arc<Prepared> {
    static T: OnceLock<Arc<Prepared>> = OnceLock::new();
    Arc::clone(T.get_or_init(|| {
        Arc::new(Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", &["s", "p"]).unwrap())
    }))
}

fn ask_template() -> Arc<Prepared> {
    static T: OnceLock<Arc<Prepared>> = OnceLock::new();
    Arc::clone(
        T.get_or_init(|| Arc::new(Prepared::new("ASK { ?s ?p ?o }", &["s", "p", "o"]).unwrap())),
    )
}

// ------------------------------------------------------------- strategies

/// One owned request of any non-batch variant against the fixture store.
fn leaf_request() -> BoxedStrategy<RequestBuf> {
    let select = (0usize..12).prop_map(|i| RequestBuf::PreparedSelect {
        prepared: objects_template(),
        args: vec![Term::iri(format!("e:s{i}")), Term::iri("e:p")],
    });
    let ask = (0usize..12).prop_map(|i| RequestBuf::PreparedAsk {
        prepared: ask_template(),
        args: vec![
            Term::iri(format!("e:s{i}")),
            Term::iri("e:p"),
            Term::iri(format!("e:o{}", i % 5)),
        ],
    });
    let paged = ((0usize..12), (0usize..4), (0usize..6)).prop_map(|(i, limit, offset)| {
        RequestBuf::PreparedSelectPaged {
            prepared: objects_template(),
            args: vec![Term::iri(format!("e:s{i}")), Term::iri("e:p")],
            limit: (limit > 0).then_some(limit),
            offset: (offset > 0).then_some(offset),
        }
    });
    let count = (0usize..12).prop_map(|i| RequestBuf::PreparedSelect {
        prepared: count_template(),
        args: vec![Term::iri(format!("e:s{i}")), Term::iri("e:p")],
    });
    let text_select = Just(RequestBuf::Select {
        query: "SELECT ?s ?o WHERE { ?s <e:p> ?o } ORDER BY ?s ?o".to_owned(),
    });
    let text_ask = Just(RequestBuf::Ask {
        query: "ASK { <e:s0> <e:p> <e:o0> }".to_owned(),
    });
    prop_oneof![select, ask, paged, count, text_select, text_ask].boxed()
}

/// A request of any variant, with batches nesting up to two levels.
fn any_request() -> BoxedStrategy<RequestBuf> {
    let inner_batch = vec(leaf_request(), 1..4).prop_map(RequestBuf::Batch);
    let batch_item = prop_oneof![leaf_request(), leaf_request(), inner_batch].boxed();
    prop_oneof![
        leaf_request(),
        vec(batch_item, 1..5).prop_map(RequestBuf::Batch),
    ]
    .boxed()
}

/// Text that needs every kind of escape: printable ASCII and a few
/// non-ASCII characters, or a string of quotes, backslashes, control
/// characters and multi-byte characters.
fn arb_text() -> BoxedStrategy<String> {
    const CHARS: [char; 16] = [
        'a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é',
        '日', '\u{2028}', '🦀',
    ];
    prop_oneof![
        ".{0,12}",
        vec(0usize..CHARS.len(), 0..8)
            .prop_map(|picks| picks.into_iter().filter_map(|i| CHARS.get(i)).collect()),
    ]
    .boxed()
}

fn arb_term() -> BoxedStrategy<Term> {
    let iri = "[a-z]{1,8}:[a-zA-Z0-9/._-]{0,12}".prop_map(Term::iri);
    let plain = arb_text().prop_map(Term::literal);
    let tagged = (arb_text(), "[a-z]{2}").prop_map(|(lex, lang)| Term::Literal {
        lexical: lex,
        lang: Some(lang),
        datatype: None,
    });
    let typed = (".{0,8}", "[a-z]{1,6}:[a-z]{1,8}").prop_map(|(lex, dt)| Term::Literal {
        lexical: lex,
        lang: None,
        datatype: Some(dt),
    });
    let both = (arb_text(), arb_text(), arb_text()).prop_map(|(lex, lang, dt)| Term::Literal {
        lexical: lex,
        lang: Some(lang),
        datatype: Some(dt),
    });
    let bnode = "[a-z0-9]{1,8}".prop_map(Term::bnode);
    prop_oneof![iri, plain, tagged, typed, both, bnode].boxed()
}

/// A rows response with 0–3 vars; cells are drawn independently and
/// clipped/padded to the var count, with ~half left unbound (`None`).
/// Zero vars make rows of zero cells.
fn arb_rows() -> BoxedStrategy<Response> {
    (
        (0usize..4),
        vec(vec((arb_term(), 0u8..2), 0..4), 0..5),
        arb_text(),
    )
        .prop_map(|(width, raw_rows, name)| {
            let vars: Vec<String> = (0..width).map(|i| format!("{name}{i}")).collect();
            let rows: Vec<Vec<Option<Term>>> = raw_rows
                .into_iter()
                .map(|cells| {
                    (0..width)
                        .map(|i| {
                            cells
                                .get(i)
                                .and_then(|(t, bound)| (*bound == 1).then(|| t.clone()))
                        })
                        .collect()
                })
                .collect();
            Response::Rows(ResultSet::new(vars, rows))
        })
        .boxed()
}

fn leaf_response() -> BoxedStrategy<Response> {
    prop_oneof![
        arb_rows(),
        (0u8..2).prop_map(|b| Response::Boolean(b == 1)),
        (0u64..1_000_000).prop_map(Response::Count),
    ]
    .boxed()
}

/// Any response, with batches — empty ones included — nesting up to
/// two levels.
fn arb_response() -> BoxedStrategy<Response> {
    let inner_batch = vec(leaf_response(), 0..3).prop_map(Response::Batch);
    let batch_item = prop_oneof![leaf_response(), inner_batch].boxed();
    prop_oneof![
        leaf_response(),
        vec(batch_item, 0..4).prop_map(Response::Batch),
    ]
    .boxed()
}

fn arb_error() -> BoxedStrategy<EndpointError> {
    prop_oneof![
        ((0usize..500), ".{0,20}").prop_map(|(offset, message)| {
            EndpointError::Sparql(SparqlError::Lex { offset, message })
        }),
        ".{0,20}".prop_map(|message| EndpointError::Sparql(SparqlError::Parse { message })),
        ".{0,20}".prop_map(|message| EndpointError::Sparql(SparqlError::Eval { message })),
        (".{1,12}", (0u64..1_000)).prop_map(|(endpoint, max_queries)| {
            EndpointError::QuotaExceeded {
                endpoint,
                max_queries,
            }
        }),
        (".{0,20}", (0u64..100_000)).prop_map(|(message, ms)| EndpointError::Unavailable {
            message,
            retry_after: (ms % 2 == 0).then(|| std::time::Duration::from_millis(ms)),
        }),
        ".{0,30}".prop_map(EndpointError::Other),
        (0u64..u64::MAX).prop_map(|ns| EndpointError::DeadlineExceeded {
            elapsed: std::time::Duration::from_nanos(ns),
        }),
        ".{0,20}".prop_map(|message| EndpointError::BudgetExceeded { message }),
        arb_text().prop_map(EndpointError::Other),
        (0u64..2).prop_map(|cancelled| {
            // Hand-built: travels as the class it would have entered as.
            EndpointError::Sparql(SparqlError::budget(if cancelled == 1 {
                BudgetBreach::Cancelled
            } else {
                BudgetBreach::RowsScanned { limit: 42 }
            }))
        }),
    ]
    .boxed()
}

/// Any envelope: a response or an error.
fn arb_result() -> BoxedStrategy<Result<Response, EndpointError>> {
    prop_oneof![arb_response().prop_map(Ok), arb_error().prop_map(Err)].boxed()
}

/// A wire request as a foreign client may send it, `count` included,
/// with batches — empty ones included — nesting up to two levels.
fn arb_wire_request() -> BoxedStrategy<WireRequest> {
    let leaf = || {
        prop_oneof![
            arb_text().prop_map(WireRequest::Select),
            arb_text().prop_map(WireRequest::Ask),
            arb_text().prop_map(WireRequest::Count),
        ]
    };
    let inner_batch = vec(leaf(), 0..3).prop_map(WireRequest::Batch);
    let batch_item = prop_oneof![leaf(), inner_batch].boxed();
    prop_oneof![leaf(), vec(batch_item, 0..4).prop_map(WireRequest::Batch)].boxed()
}

// ------------------------------------------------- the reference and foreign peers

/// The one-pass encoding of an envelope.
fn one_pass(result: &Result<Response, EndpointError>) -> String {
    let mut text = String::new();
    write_envelope(result.as_ref(), &mut text);
    text
}

/// The one-pass encoding of a request.
fn one_pass_request(wire: &WireRequest) -> String {
    let mut text = String::new();
    wire.write(&mut text);
    text
}

/// A decoded envelope, `None` for a refusal.
type Verdict = Option<Result<Response, EndpointError>>;

/// What each codec decodes `text` to: the tree (parse, then decode the
/// tree) and the one-pass decoder.
fn both_envelope_decoders(text: &str) -> (Verdict, Verdict) {
    let tree = Json::parse(text)
        .ok()
        .and_then(|json| envelope_from_json(&json).ok());
    (tree, parse_envelope(text).ok())
}

fn both_request_decoders(text: &str) -> (Option<WireRequest>, Option<WireRequest>) {
    let tree = Json::parse(text)
        .ok()
        .and_then(|json| WireRequest::from_json(&json).ok());
    (tree, WireRequest::parse(text).ok())
}

/// `json` as a foreign peer might send it: every object's members in
/// another order (reversed when `turn` is odd, then rotated by it — all
/// six orders of three keys occur), and whitespace around the tokens.
fn foreign_text(json: &Json, turn: usize, out: &mut String) {
    const GAPS: [&str; 4] = ["", " ", "\n\t", "\r\n  "];
    let gap = GAPS[turn % GAPS.len()];
    match json {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(gap);
                foreign_text(item, turn + i + 1, out);
            }
            out.push_str(gap);
            out.push(']');
        }
        Json::Obj(pairs) => {
            let mut order: Vec<_> = pairs.iter().collect();
            if turn % 2 == 1 {
                order.reverse();
            }
            if !order.is_empty() {
                let by = turn / 2 % order.len();
                order.rotate_left(by);
            }
            out.push('{');
            for (i, (key, value)) in order.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(gap);
                out.push_str(&Json::str(key.as_ref()).to_text());
                out.push_str(gap);
                out.push(':');
                out.push_str(gap);
                foreign_text(value, turn + i + 1, out);
            }
            out.push_str(gap);
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_text()),
    }
}

fn foreign(json: &Json, turn: usize) -> String {
    let mut out = String::new();
    foreign_text(json, turn, &mut out);
    out
}

/// Stands in for a bad escape: swapped for one in the text (see
/// [`MALFORMED_ESCAPES`]) after the tree is printed.
const ESCAPE_MARK: &str = "\u{1}\u{2}\u{3}";
const MALFORMED_ESCAPES: [&str; 4] = ["\\q", "\\u12", "\\ud800", "\\uZZZZ"];

/// Breaks the `at`-th node of `json` (preorder, wrapping) in one place,
/// chosen by `how`: a value of another type, a bogus tag, a member or
/// element dropped or duplicated, or a string holding [`ESCAPE_MARK`].
fn break_node(json: &mut Json, at: usize, how: usize) {
    let count = count_nodes(json);
    let mut left = at % count;
    if let Some(node) = nth_node(json, &mut left) {
        let pick = how / 9;
        match (how % 9, &mut *node) {
            (0, _) => *node = Json::Null,
            (1, _) => *node = Json::Uint(7),
            (2, _) => *node = Json::Bool(true),
            (3, _) => *node = Json::str("bogus"),
            (4, _) => *node = Json::Arr(Vec::new()),
            (5, _) => *node = Json::obj([]),
            (6, Json::Obj(pairs)) if !pairs.is_empty() => {
                pairs.remove(pick % pairs.len());
            }
            (6, Json::Arr(items)) if !items.is_empty() => {
                items.remove(pick % items.len());
            }
            (7, Json::Obj(pairs)) if !pairs.is_empty() => {
                let (key, _) = pairs[pick % pairs.len()].clone();
                pairs.push((key, Json::Null));
            }
            (7, Json::Arr(items)) if !items.is_empty() => {
                let copy = items[pick % items.len()].clone();
                items.push(copy);
            }
            (_, _) => *node = Json::str(ESCAPE_MARK),
        }
    }
}

fn count_nodes(json: &Json) -> usize {
    1 + match json {
        Json::Arr(items) => items.iter().map(count_nodes).sum(),
        Json::Obj(pairs) => pairs.iter().map(|(_, v)| count_nodes(v)).sum(),
        _ => 0,
    }
}

fn nth_node<'j>(json: &'j mut Json, left: &mut usize) -> Option<&'j mut Json> {
    if *left == 0 {
        return Some(json);
    }
    *left -= 1;
    match json {
        Json::Arr(items) => items.iter_mut().find_map(|item| nth_node(item, left)),
        Json::Obj(pairs) => pairs.iter_mut().find_map(|(_, v)| nth_node(v, left)),
        _ => None,
    }
}

/// `text` cut short at its `cut`-th character boundary, wrapping.
fn prefix(text: &str, cut: usize) -> &str {
    let ends: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    &text[..ends[cut % ends.len()]]
}

/// The texts a broken `json` is sent as: compact, foreign, and each
/// with the escape mark swapped for a malformed escape.
fn broken_texts(json: &Json, turn: usize, how: usize) -> Vec<String> {
    let bad = MALFORMED_ESCAPES[how % MALFORMED_ESCAPES.len()];
    let mark = Json::str(ESCAPE_MARK).to_text();
    let mark = mark.trim_matches('"');
    [json.to_text(), foreign(json, turn)]
        .into_iter()
        .map(|text| text.replace(mark, bad))
        .collect()
}

// ---------------------------------------------------------------- props

proptest! {
    /// Lowering any request to the wire and executing the lowered form
    /// yields exactly what direct local execution yields — including
    /// counts (plain selects on the wire) and arbitrarily nested batches.
    #[test]
    fn lowered_execution_matches_local(req in any_request()) {
        let ep = store_endpoint();
        let direct = ep.execute(req.as_request()).expect("direct execution");
        let wire = WireRequest::from_request(&req.as_request()).expect("lowering");
        let via_wire = execute_wire_budgeted(ep, &wire, &QueryBudget::unlimited())
            .expect("wire execution");
        prop_assert_eq!(direct, via_wire);
    }

    /// A wire request survives JSON serialization byte-exactly, through
    /// either codec: the one-pass text is the tree's, and both decoders
    /// give it back from that text and from a foreign peer's spelling.
    #[test]
    fn wire_request_json_round_trips(
        req in any_request(),
        foreign_wire in arb_wire_request(),
        turn in 0usize..12,
    ) {
        let lowered = WireRequest::from_request(&req.as_request()).expect("lowering");
        for wire in [lowered, foreign_wire] {
            let tree = wire.to_json();
            let text = tree.to_text();
            prop_assert_eq!(&one_pass_request(&wire), &text);
            for text in [text, foreign(&tree, turn)] {
                let (tree, one_pass) = both_request_decoders(&text);
                prop_assert_eq!(tree.as_ref(), Some(&wire), "{}", text);
                prop_assert_eq!(one_pass.as_ref(), Some(&wire), "{}", text);
            }
        }
    }

    /// Every response shape survives the success envelope, through
    /// either codec, as every request does.
    #[test]
    fn response_envelope_round_trips(response in arb_response(), turn in 0usize..12) {
        let result = Ok(response);
        let tree = envelope_to_json(&result);
        let text = tree.to_text();
        prop_assert_eq!(&one_pass(&result), &text);
        for text in [text, foreign(&tree, turn)] {
            let (tree, one_pass) = both_envelope_decoders(&text);
            prop_assert_eq!(tree.as_ref(), Some(&result), "{}", text);
            prop_assert_eq!(one_pass.as_ref(), Some(&result), "{}", text);
        }
    }

    /// Every error kind survives the failure envelope, through either
    /// codec. A hand-built raw kill comes back as its class.
    #[test]
    fn error_envelope_round_trips(error in arb_error(), turn in 0usize..12) {
        let result = Err(error);
        let tree = envelope_to_json(&result);
        let text = tree.to_text();
        prop_assert_eq!(&one_pass(&result), &text);
        let expected = result.clone().map_err(|e| match e {
            EndpointError::Sparql(raw @ SparqlError::Budget { .. }) => EndpointError::from(raw),
            e => e,
        });
        for text in [text, foreign(&tree, turn)] {
            let (tree, one_pass) = both_envelope_decoders(&text);
            prop_assert_eq!(tree.as_ref(), Some(&expected), "{}", text);
            prop_assert_eq!(one_pass.as_ref(), Some(&expected), "{}", text);
        }
    }

    /// An envelope broken in one place, compact or foreign, gets the
    /// same verdict from both decoders; so does every cut of it.
    #[test]
    fn broken_envelopes_get_the_references_verdict(
        result in arb_result(),
        at in 0usize..256,
        how in 0usize..72,
        turn in 0usize..12,
        cut in 0usize..4096,
    ) {
        let mut json = envelope_to_json(&result);
        let text = json.to_text();
        let truncated = prefix(&text, cut);
        let (tree, one_pass) = both_envelope_decoders(truncated);
        prop_assert!(tree.is_none() && one_pass.is_none(), "{}", truncated);
        break_node(&mut json, at, how);
        for text in broken_texts(&json, turn, how) {
            let (tree, one_pass) = both_envelope_decoders(&text);
            prop_assert_eq!(one_pass, tree, "{}", text);
        }
    }

    /// The same for requests.
    #[test]
    fn broken_requests_get_the_references_verdict(
        wire in arb_wire_request(),
        at in 0usize..256,
        how in 0usize..72,
        turn in 0usize..12,
        cut in 0usize..4096,
    ) {
        let mut json = wire.to_json();
        let text = json.to_text();
        let truncated = prefix(&text, cut);
        let (tree, one_pass) = both_request_decoders(truncated);
        prop_assert!(tree.is_none() && one_pass.is_none(), "{}", truncated);
        break_node(&mut json, at, how);
        for text in broken_texts(&json, turn, how) {
            let (tree, one_pass) = both_request_decoders(&text);
            prop_assert_eq!(one_pass, tree, "{}", text);
        }
    }

    /// Strings of the wire's own tokens, in any order: whatever the tree
    /// makes of one, so does the one-pass decoder, and neither panics.
    #[test]
    fn token_soup_gets_the_references_verdict(picks in vec(0usize..TOKENS.len(), 0..40)) {
        let text: String = picks.iter().filter_map(|i| TOKENS.get(*i)).copied().collect();
        let (tree, one_pass) = both_envelope_decoders(&text);
        prop_assert_eq!(one_pass, tree, "{}", text);
        let (tree, one_pass) = both_request_decoders(&text);
        prop_assert_eq!(one_pass, tree, "{}", text);
    }
}

/// The pieces a fuzzed message is made of.
const TOKENS: [&str; 40] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "null",
    "true",
    "false",
    "0",
    "7",
    "\"x\"",
    "\"\\q\"",
    "\"ok\"",
    "\"response\"",
    "\"error\"",
    "\"type\"",
    "\"rows\"",
    "\"vars\"",
    "\"value\"",
    "\"responses\"",
    "\"batch\"",
    "\"boolean\"",
    "\"count\"",
    "\"t\"",
    "\"v\"",
    "\"iri\"",
    "\"lit\"",
    "\"lang\"",
    "\"kind\"",
    "\"other\"",
    "\"message\"",
    "\"op\"",
    "\"select\"",
    "\"query\"",
    "\"requests\"",
    "{\"ok\":true,\"response\":",
    "{\"type\":\"rows\",\"vars\":[\"a\"],\"rows\":[[",
    "{\"op\":\"batch\",\"requests\":[",
];

/// Every cut of a representative envelope — a row of each term shape,
/// unbound cells, a nested batch — is refused by both decoders.
#[test]
fn every_truncation_is_refused_by_both_decoders() {
    let rows = ResultSet::new(
        vec!["s".to_owned(), "o".to_owned()],
        vec![
            vec![
                Some(Term::iri("e:a")),
                Some(Term::literal("x \"y\" \u{1} é")),
            ],
            vec![
                Some(Term::bnode("b0")),
                Some(Term::Literal {
                    lexical: "1".to_owned(),
                    lang: Some("en".to_owned()),
                    datatype: Some("x:int".to_owned()),
                }),
            ],
            vec![None, None],
        ],
    );
    let result = Ok(Response::Batch(vec![
        Response::Rows(rows),
        Response::Batch(vec![Response::Boolean(true), Response::Count(3)]),
    ]));
    let text = one_pass(&result);
    assert_eq!(parse_envelope(&text), Ok(result));
    for (cut, _) in text.char_indices() {
        let (tree, one_pass) = both_envelope_decoders(&text[..cut]);
        assert!(tree.is_none() && one_pass.is_none(), "{}", &text[..cut]);
    }
}

/// Hostile bodies of nothing but openers are refused at the nesting cap
/// by both decoders, not recursed into.
#[test]
fn bodies_of_openers_are_refused_not_recursed() {
    for opener in [
        "[",
        "{\"requests\":",
        "{\"response\":",
        "{\"ok\":true,\"response\":",
    ] {
        let body = opener.repeat(1 << 20);
        let err = parse_envelope(&body).expect_err("refused");
        assert!(err.0.contains("nesting deeper than 64"), "{err}");
        let err = WireRequest::parse(&body).expect_err("refused");
        assert!(err.0.contains("nesting deeper than 64"), "{err}");
    }
}

/// Keys the wire does not define are skipped by both decoders, however
/// deep they nest within the cap; a duplicate key counts at its first.
#[test]
fn unknown_and_duplicate_keys_read_as_the_tree_reads_them() {
    for text in [
        r#"{"extra":{"a":[1,{"b":null}]},"ok":true,"response":{"type":"boolean","value":false}}"#,
        r#"{"ok":true,"ok":false,"response":{"type":"count","value":3,"type":"rows"}}"#,
        r#"{"response":{"value":true,"type":"boolean"},"ok":true,"error":{"kind":"bogus"}}"#,
        r#"{"ok":false,"response":[1,2],"error":{"message":"m","kind":"other"}}"#,
        r#"{"ok":"yes","response":{"type":"boolean","value":true}}"#,
    ] {
        let (tree, one_pass) = both_envelope_decoders(text);
        assert_eq!(one_pass, tree, "{text}");
    }
}

/// The text under a `count` op is the client's, not a rendering of ours:
/// a `SELECT` whose single cell is a negative integer must be refused as
/// a non-aggregate, exactly like a non-integer cell — never wrapped into
/// a count near 2^64.
#[test]
fn a_count_op_over_a_negative_cell_is_refused_not_wrapped() {
    let mut store = TripleStore::new();
    store.insert_terms(
        &Term::iri("e:acct"),
        &Term::iri("e:balance"),
        &Term::integer(-5),
    );
    store.insert_terms(
        &Term::iri("e:acct"),
        &Term::iri("e:owner"),
        &Term::literal("ann"),
    );
    let ep = LocalEndpoint::new("kb", store);
    let refused = Err(EndpointError::Other(
        "count query returned a non-aggregate result".to_owned(),
    ));
    for query in [
        "SELECT ?o { <e:acct> <e:balance> ?o }",
        "SELECT ?o { <e:acct> <e:owner> ?o }",
    ] {
        let wire = WireRequest::from_json(
            &Json::parse(&format!(r#"{{"op":"count","query":"{query}"}}"#)).expect("parse"),
        )
        .expect("decode");
        assert_eq!(
            execute_wire_budgeted(&ep, &wire, &QueryBudget::unlimited()),
            refused,
            "{query}"
        );
    }
    // A real aggregate still reshapes — also positionally inside a
    // batch, beside a `select` of the same text that stays rows.
    let aggregate = "SELECT (COUNT(*) AS ?n) { <e:acct> ?p ?o }".to_owned();
    let wire = WireRequest::Count(aggregate.clone());
    assert_eq!(
        execute_wire_budgeted(&ep, &wire, &QueryBudget::unlimited()),
        Ok(Response::Count(2))
    );
    let batch = WireRequest::Batch(vec![WireRequest::Select(aggregate), wire]);
    let Ok(Response::Batch(parts)) = execute_wire_budgeted(&ep, &batch, &QueryBudget::unlimited())
    else {
        panic!("a batch answers as a batch");
    };
    assert!(matches!(&parts[0], Response::Rows(rows) if rows.single_integer() == Some(2)));
    assert_eq!(parts[1], Response::Count(2));
}

/// The endpoint layer never produces `Sparql(Budget)` — `From<SparqlError>`
/// types a kill where it enters — and the wire has no kind for it: one
/// built by hand travels as the class it would have entered as.
#[test]
fn a_hand_built_raw_kill_travels_as_its_class() {
    for breach in [
        BudgetBreach::Cancelled,
        BudgetBreach::RowsScanned { limit: 42 },
    ] {
        let raw = Err(EndpointError::Sparql(SparqlError::budget(breach)));
        let text = envelope_to_json(&raw).to_text();
        assert_eq!(one_pass(&raw), text);
        let class = Err(EndpointError::from(SparqlError::budget(breach)));
        assert_eq!(
            envelope_from_json(&Json::parse(&text).expect("parse")).expect("decode"),
            class
        );
        assert_eq!(parse_envelope(&text).expect("decode"), class);
    }
}
