//! Client-side memoisation of identical queries.

use crate::clock::Clock;
use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use parking_lot::Mutex;
use sofya_sparql::QueryBudget;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// An endpoint wrapper that caches responses by rendered request.
///
/// SOFYA re-issues identical `sameAs` lookups and existence probes for
/// entities shared between samples; a client-side cache keeps those free.
/// Only successful responses are cached (a transient failure should be
/// retried, and quota errors must keep failing).
///
/// Every request kind shares one cache: the key is the request's SPARQL
/// rendering prefixed with its response shape, so a `SELECT` and a
/// `COUNT` over the same pattern never collide. A [`Request::Batch`] is
/// **decomposed** — each leaf is looked up and memoised individually, so
/// a batch re-issuing known probes is answered from the cache without
/// touching the inner endpoint at all. (Decomposition means a cached
/// batch no longer reaches the inner endpoint as one unit; stack this
/// wrapper over [`crate::ConcurrentEndpoint::pinned`] when batch-level snapshot
/// consistency matters too.)
///
/// [`CachingEndpoint::with_ttl`] adds expiry against an injected
/// [`Clock`]: an entry older than the TTL counts as a miss, is evicted,
/// and the fresh response is re-cached with a new timestamp. Without a
/// TTL entries live until [`CachingEndpoint::clear`].
pub struct CachingEndpoint<E> {
    inner: E,
    cache: Mutex<HashMap<String, (Response, Duration)>>,
    hits: Mutex<u64>,
    expirations: Mutex<u64>,
    ttl: Option<(Duration, Arc<dyn Clock>)>,
}

impl<E: Endpoint> CachingEndpoint<E> {
    /// Wraps `inner` with an empty cache and no expiry.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            cache: Mutex::new(HashMap::new()),
            hits: Mutex::new(0),
            expirations: Mutex::new(0),
            ttl: None,
        }
    }

    /// Wraps `inner` with a cache whose entries expire once `clock` has
    /// advanced by at least `ttl` since insertion.
    pub fn with_ttl(inner: E, ttl: Duration, clock: Arc<dyn Clock>) -> Self {
        Self {
            ttl: Some((ttl, clock)),
            ..Self::new(inner)
        }
    }

    /// Number of cache hits so far (all request kinds).
    pub fn hits(&self) -> u64 {
        *self.hits.lock()
    }

    /// Number of entries evicted because their TTL lapsed.
    pub fn expirations(&self) -> u64 {
        *self.expirations.lock()
    }

    /// Number of cached entries (all request kinds; expired entries that
    /// have not been touched since lapsing still count).
    pub fn entries(&self) -> usize {
        self.cache.lock().len()
    }

    /// Drops all cached entries.
    pub fn clear(&self) {
        self.cache.lock().clear();
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Current simulated time (zero when no clock is attached).
    fn now(&self) -> Duration {
        self.ttl
            .as_ref()
            .map(|(_, clock)| clock.now())
            .unwrap_or(Duration::ZERO)
    }

    /// Whether an entry stamped at `stamp` is still fresh.
    fn fresh(&self, stamp: Duration) -> bool {
        match &self.ttl {
            Some((ttl, clock)) => clock.now().saturating_sub(stamp) < *ttl,
            None => true,
        }
    }

    /// Cache lookup with expiry: a lapsed entry is evicted and reported
    /// as a miss.
    fn lookup(&self, key: &str) -> Option<Response> {
        let mut cache = self.cache.lock();
        match cache.get(key) {
            Some((value, stamp)) if self.fresh(*stamp) => {
                let value = value.clone();
                *self.hits.lock() += 1;
                Some(value)
            }
            Some(_) => {
                cache.remove(key);
                *self.expirations.lock() += 1;
                None
            }
            None => None,
        }
    }
}

impl<E: Endpoint> Endpoint for CachingEndpoint<E> {
    /// A cache hit answers without touching the inner endpoint (and so
    /// without spending any of the budget); a miss forwards the budget
    /// inward. Errors — including budget breaches — are never cached, so
    /// a killed query does not poison the entry for the next caller.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        // The key of a leaf is its response shape (so one pattern
        // rendered as `SELECT` and as `COUNT` never collide) plus its
        // SPARQL rendering (each page of a paged shape renders to a
        // distinct string, so pages never collide either); a batch has
        // no key and is answered leaf by leaf.
        let shape = match req {
            Request::Batch(requests) => {
                return Ok(Response::Batch(
                    requests
                        .into_iter()
                        .map(|sub| self.execute_with_budget(sub, budget))
                        .collect::<Result<_, _>>()?,
                ));
            }
            Request::Select { .. }
            | Request::PreparedSelect { .. }
            | Request::PreparedSelectPaged { .. } => 'S',
            Request::Ask { .. } | Request::PreparedAsk { .. } => 'A',
            Request::Count { .. } => 'C',
        };
        let key = format!("{shape}\u{1}{}", req.to_sparql()?);
        if let Some(hit) = self.lookup(&key) {
            return Ok(hit);
        }
        let response = self.inner.execute_with_budget(req, budget)?;
        self.cache
            .lock()
            .insert(key, (response.clone(), self.now()));
        Ok(response)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointExt;
    use crate::instrument::InstrumentedEndpoint;
    use crate::local::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};
    use sofya_sparql::Prepared;

    fn stack() -> CachingEndpoint<InstrumentedEndpoint<LocalEndpoint>> {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        CachingEndpoint::new(InstrumentedEndpoint::new(LocalEndpoint::new("kb", store)))
    }

    #[test]
    fn repeated_select_hits_cache() {
        let ep = stack();
        let counters = ep.inner().counters();
        let q = "SELECT ?o { <a> <p> ?o }";
        let first = ep.select(q).unwrap();
        let second = ep.select(q).unwrap();
        assert_eq!(first, second);
        assert_eq!(counters.select_queries(), 1);
        assert_eq!(ep.hits(), 1);
    }

    #[test]
    fn repeated_ask_hits_cache() {
        let ep = stack();
        let counters = ep.inner().counters();
        let q = "ASK { <a> <p> <b> }";
        assert!(ep.ask(q).unwrap());
        assert!(ep.ask(q).unwrap());
        assert_eq!(counters.ask_queries(), 1);
    }

    #[test]
    fn different_queries_do_not_collide() {
        let ep = stack();
        ep.select("SELECT ?o { <a> <p> ?o }").unwrap();
        ep.select("SELECT ?s { ?s <p> <b> }").unwrap();
        assert_eq!(ep.entries(), 2);
        assert_eq!(ep.hits(), 0);
    }

    #[test]
    fn counts_and_selects_of_one_pattern_do_not_collide() {
        let ep = stack();
        let pattern = Prepared::new("SELECT ?o WHERE { ?s <p> ?o }", &["s"]).unwrap();
        let args = [Term::iri("a")];
        assert_eq!(ep.count_prepared(&pattern, &args).unwrap(), 1);
        let rows = ep.select_prepared(&pattern, &args).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(ep.entries(), 2, "count and select cached separately");
        // Both kinds hit on re-issue.
        assert_eq!(ep.count_prepared(&pattern, &args).unwrap(), 1);
        assert_eq!(ep.select_prepared(&pattern, &args).unwrap(), rows);
        assert_eq!(ep.hits(), 2);
    }

    #[test]
    fn batches_are_decomposed_into_cached_leaves() {
        let ep = stack();
        let counters = ep.inner().counters();
        let q = "SELECT ?o { <a> <p> ?o }";
        ep.select(q).unwrap();
        assert_eq!(counters.select_queries(), 1);
        // A batch re-issuing the cached probe plus one new ASK only
        // forwards the ASK.
        let responses = ep
            .execute_batch(vec![
                Request::Select { query: q },
                Request::Ask {
                    query: "ASK { <a> <p> <b> }",
                },
            ])
            .unwrap();
        assert_eq!(responses.len(), 2);
        assert_eq!(counters.select_queries(), 1);
        assert_eq!(counters.ask_queries(), 1);
        assert_eq!(ep.hits(), 1);
        assert_eq!(ep.entries(), 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let ep = stack();
        let counters = ep.inner().counters();
        let _ = ep.select("NOT SPARQL");
        let _ = ep.select("NOT SPARQL");
        assert_eq!(counters.select_queries(), 2);
        assert_eq!(ep.entries(), 0);
    }

    #[test]
    fn clear_empties_cache() {
        let ep = stack();
        ep.select("SELECT ?o { <a> <p> ?o }").unwrap();
        ep.clear();
        assert_eq!(ep.entries(), 0);
    }
}
