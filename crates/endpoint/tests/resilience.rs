//! Deterministic tests for cache hit/expiry — all driven by injected
//! clocks and counters, never wall time, so every assertion is exact.

use sofya_endpoint::{
    CachingEndpoint, Clock, EndpointExt, InstrumentedEndpoint, LocalEndpoint, ManualClock,
};
use sofya_rdf::{Term, TripleStore};
use std::sync::Arc;
use std::time::Duration;

const ASK: &str = "ASK { <a> <p> <b> }";
const SELECT: &str = "SELECT ?o { <a> <p> ?o }";

fn base() -> LocalEndpoint {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
    store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("c"));
    LocalEndpoint::new("kb", store)
}

// -------------------------------------------------------- cache hit/expiry

#[test]
fn cache_hits_within_ttl_expire_after() {
    let clock = Arc::new(ManualClock::new());
    let ep = CachingEndpoint::with_ttl(
        InstrumentedEndpoint::new(base()),
        Duration::from_secs(60),
        clock.clone() as Arc<dyn Clock>,
    );
    let counters = ep.inner().counters();

    ep.select(SELECT).unwrap(); // miss, cached at t=0
    clock.advance(Duration::from_secs(59));
    ep.select(SELECT).unwrap(); // still fresh
    assert_eq!(ep.hits(), 1);
    assert_eq!(counters.select_queries(), 1);

    clock.advance(Duration::from_secs(1)); // age == ttl → expired
    ep.select(SELECT).unwrap(); // miss, re-fetched, re-cached at t=60s
    assert_eq!(ep.hits(), 1);
    assert_eq!(ep.expirations(), 1);
    assert_eq!(counters.select_queries(), 2);

    clock.advance(Duration::from_secs(30));
    ep.select(SELECT).unwrap(); // fresh again relative to the new stamp
    assert_eq!(ep.hits(), 2);
    assert_eq!(counters.select_queries(), 2);
}

#[test]
fn ask_cache_expires_independently() {
    let clock = Arc::new(ManualClock::new());
    let ep = CachingEndpoint::with_ttl(
        InstrumentedEndpoint::new(base()),
        Duration::from_secs(10),
        clock.clone() as Arc<dyn Clock>,
    );
    let counters = ep.inner().counters();
    assert!(ep.ask(ASK).unwrap());
    clock.advance(Duration::from_secs(5));
    ep.select(SELECT).unwrap(); // cached at t=5
    clock.advance(Duration::from_secs(6));
    // t=11: the ASK entry (t=0) lapsed, the SELECT entry (t=5) has not.
    assert!(ep.ask(ASK).unwrap());
    ep.select(SELECT).unwrap();
    assert_eq!(counters.ask_queries(), 2);
    assert_eq!(counters.select_queries(), 1);
    assert_eq!(ep.expirations(), 1);
    assert_eq!(ep.hits(), 1);
}

#[test]
fn without_ttl_entries_never_expire() {
    // The legacy constructor must be unaffected by any notion of time.
    let ep = CachingEndpoint::new(InstrumentedEndpoint::new(base()));
    let counters = ep.inner().counters();
    for _ in 0..100 {
        ep.select(SELECT).unwrap();
    }
    assert_eq!(counters.select_queries(), 1);
    assert_eq!(ep.hits(), 99);
    assert_eq!(ep.expirations(), 0);
}

// --------------------------------------------------- full stack composure

#[test]
fn cached_hits_reach_the_server_once() {
    // Cache(Instrumented(Local)) — the order a client would deploy:
    // repeated identical queries must reach the server once.
    let clock = Arc::new(ManualClock::new());
    let instrumented = InstrumentedEndpoint::new(base());
    let counters = instrumented.counters();
    let ep = CachingEndpoint::with_ttl(
        instrumented,
        Duration::from_secs(3600),
        clock.clone() as Arc<dyn Clock>,
    );
    for _ in 0..50 {
        ep.ask(ASK).unwrap();
    }
    assert_eq!(ep.hits(), 49);
    assert_eq!(counters.total_queries(), 1);
}
