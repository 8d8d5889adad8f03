//! Wire-format round-trip properties: every `Request` variant lowers to
//! the wire and executes to the same `Response` a local endpoint gives,
//! and every `Response` / `EndpointError` shape survives the JSON
//! envelope byte-exactly.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use sofya_endpoint::testing::RequestBuf;
use sofya_endpoint::{Endpoint, EndpointError, LocalEndpoint, Response};
use sofya_net::wire::{envelope_from_json, envelope_to_json};
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

fn arb_term() -> BoxedStrategy<Term> {
    let iri = "[a-z]{1,8}:[a-zA-Z0-9/._-]{0,12}".prop_map(Term::iri);
    let plain = ".{0,12}".prop_map(Term::literal);
    let tagged = (".{0,8}", "[a-z]{2}").prop_map(|(lex, lang)| Term::Literal {
        lexical: lex,
        lang: Some(lang),
        datatype: None,
    });
    let typed = (".{0,8}", "[a-z]{1,6}:[a-z]{1,8}").prop_map(|(lex, dt)| Term::Literal {
        lexical: lex,
        lang: None,
        datatype: Some(dt),
    });
    let bnode = "[a-z0-9]{1,8}".prop_map(Term::bnode);
    prop_oneof![iri, plain, tagged, typed, bnode].boxed()
}

/// A rows response with 1–3 vars; cells are drawn independently and
/// clipped/padded to the var count, with ~half left unbound (`None`).
fn arb_rows() -> BoxedStrategy<Response> {
    ((1usize..4), vec(vec((arb_term(), 0u8..2), 0..4), 0..5))
        .prop_map(|(width, raw_rows)| {
            let vars: Vec<String> = (0..width).map(|i| format!("v{i}")).collect();
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

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        leaf_response(),
        vec(leaf_response(), 0..4).prop_map(Response::Batch),
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
    ]
    .boxed()
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

    /// A wire request survives JSON serialization byte-exactly.
    #[test]
    fn wire_request_json_round_trips(req in any_request()) {
        let wire = WireRequest::from_request(&req.as_request()).expect("lowering");
        let text = wire.to_json().to_text();
        let parsed = WireRequest::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        prop_assert_eq!(wire, parsed);
    }

    /// Every response shape survives the success envelope.
    #[test]
    fn response_envelope_round_trips(response in arb_response()) {
        let envelope = envelope_to_json(&Ok(response.clone()));
        let text = envelope.to_text();
        let decoded = envelope_from_json(&Json::parse(&text).expect("parse")).expect("decode");
        prop_assert_eq!(decoded, Ok(response));
    }

    /// Every error kind survives the failure envelope.
    #[test]
    fn error_envelope_round_trips(error in arb_error()) {
        let envelope = envelope_to_json(&Err(error.clone()));
        let text = envelope.to_text();
        let decoded = envelope_from_json(&Json::parse(&text).expect("parse")).expect("decode");
        prop_assert_eq!(decoded, Err(error));
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
        assert_eq!(
            envelope_from_json(&Json::parse(&text).expect("parse")).expect("decode"),
            Err(EndpointError::from(SparqlError::budget(breach)))
        );
    }
}
