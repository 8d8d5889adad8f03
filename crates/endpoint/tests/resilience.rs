//! Deterministic tests for the endpoint resilience layer: retry backoff
//! and cache hit/expiry — all driven by injected clocks and counters,
//! never wall time, so every assertion is exact.

use sofya_endpoint::testing::FlakyEndpoint;
use sofya_endpoint::{
    BackoffPolicy, CachingEndpoint, Clock, Endpoint, EndpointError, EndpointExt,
    InstrumentedEndpoint, LocalEndpoint, ManualClock, Request, RetryEndpoint,
};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::QueryBudget;
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

// ---------------------------------------------------------- retry backoff

#[test]
fn backoff_policy_schedule_is_exponential_and_capped() {
    let p = BackoffPolicy {
        base: Duration::from_millis(100),
        factor: 2,
        max_delay: Duration::from_secs(1),
    };
    assert_eq!(p.delay_for(0), Duration::from_millis(100));
    assert_eq!(p.delay_for(1), Duration::from_millis(200));
    assert_eq!(p.delay_for(2), Duration::from_millis(400));
    assert_eq!(p.delay_for(3), Duration::from_millis(800));
    assert_eq!(p.delay_for(4), Duration::from_secs(1)); // capped
    assert_eq!(p.delay_for(30), Duration::from_secs(1)); // stays capped
}

#[test]
fn exhausted_retries_charge_the_full_schedule_to_the_clock() {
    // Every query fails; 3 retries back off 100 + 200 + 400 ms.
    let clock = Arc::new(ManualClock::new());
    let policy = BackoffPolicy::exponential(Duration::from_millis(100));
    let ep = RetryEndpoint::with_backoff(
        FlakyEndpoint::new(base(), 1),
        3,
        policy,
        clock.clone() as Arc<dyn Clock>,
    );
    assert!(ep.ask(ASK).is_err());
    assert_eq!(ep.retries_used(), 3);
    assert_eq!(clock.now(), Duration::from_millis(700));
    assert_eq!(ep.backoff_time(), Duration::from_millis(700));
}

#[test]
fn backoff_resets_per_query() {
    // Every 2nd attempt fails: each query needs exactly one retry, and
    // each retry is the *first* of its query (base delay, no growth).
    let clock = Arc::new(ManualClock::new());
    let policy = BackoffPolicy::exponential(Duration::from_millis(50));
    let ep = RetryEndpoint::with_backoff(
        FlakyEndpoint::new(base(), 2),
        2,
        policy,
        clock.clone() as Arc<dyn Clock>,
    );
    for _ in 0..4 {
        ep.ask(ASK).unwrap();
    }
    // Attempt stream: 1 ok | 2 fail, 3 ok | 4 fail, 5 ok | 6 fail, 7 ok —
    // three queries needed one retry each, always at the base delay
    // (the schedule restarts per query, it does not keep growing).
    assert_eq!(ep.retries_used(), 3);
    assert_eq!(clock.now(), Duration::from_millis(150));
}

#[test]
fn successful_queries_charge_no_backoff() {
    let clock = Arc::new(ManualClock::new());
    let ep = RetryEndpoint::with_backoff(
        base(),
        5,
        BackoffPolicy::exponential(Duration::from_millis(100)),
        clock.clone() as Arc<dyn Clock>,
    );
    for _ in 0..10 {
        ep.ask(ASK).unwrap();
    }
    assert_eq!(clock.now(), Duration::ZERO);
    assert_eq!(ep.backoff_time(), Duration::ZERO);
}

#[test]
fn fatal_errors_skip_backoff_entirely() {
    let clock = Arc::new(ManualClock::new());
    let ep = RetryEndpoint::with_backoff(
        base(),
        5,
        BackoffPolicy::exponential(Duration::from_millis(100)),
        clock.clone() as Arc<dyn Clock>,
    );
    // Two rows scanned against a cap of one.
    let cap = QueryBudget::unlimited().with_max_rows_scanned(1);
    let err = ep
        .execute_with_budget(Request::Select { query: SELECT }, &cap)
        .unwrap_err();
    assert!(matches!(err, EndpointError::BudgetExceeded { .. }));
    // A cap kill is deterministic, not transient: no retries, no waiting.
    assert_eq!(ep.retries_used(), 0);
    assert_eq!(clock.now(), Duration::ZERO);
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
fn cached_hits_do_not_spend_quota_or_backoff() {
    // Cache(Retry(Instrumented(Local))) — the order a client would
    // deploy: repeated identical queries must reach the server once.
    let clock = Arc::new(ManualClock::new());
    let instrumented = InstrumentedEndpoint::new(base());
    let counters = instrumented.counters();
    let retry = RetryEndpoint::with_backoff(
        instrumented,
        2,
        BackoffPolicy::exponential(Duration::from_millis(10)),
        clock.clone() as Arc<dyn Clock>,
    );
    let ep = CachingEndpoint::with_ttl(
        retry,
        Duration::from_secs(3600),
        clock.clone() as Arc<dyn Clock>,
    );
    for _ in 0..50 {
        ep.ask(ASK).unwrap();
    }
    assert_eq!(ep.hits(), 49);
    assert_eq!(counters.total_queries(), 1);
    assert_eq!(clock.now(), Duration::ZERO);
}
