//! Client-side memoisation of identical queries.

use crate::clock::Clock;
use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use parking_lot::Mutex;
use sofya_sparql::QueryBudget;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An endpoint wrapper that caches responses by rendered request.
///
/// SOFYA re-issues identical `sameAs` lookups and existence probes for
/// entities shared between samples; a client-side cache keeps those free.
/// Only successful responses are cached (a failed request asks the
/// server again next time, and quota errors must keep failing).
///
/// Every request kind shares one cache: the key is the request's SPARQL
/// rendering prefixed with its response shape. A [`Request::Batch`] is
/// looked up **leaf by leaf** — a batch re-issuing known probes is
/// answered from the cache without touching the inner endpoint at all —
/// and the leaves it misses are forwarded together, as **one** inner
/// batch: through a remote endpoint the misses still cost one round
/// trip, and on a [`crate::ConcurrentEndpoint`] they are answered from
/// one snapshot. (Hits may be older than that snapshot; bound their age
/// with a TTL where that matters.)
///
/// [`CachingEndpoint::with_ttl`] adds expiry against an injected
/// [`Clock`]: an entry older than the TTL counts as a miss, is evicted,
/// and the fresh response is re-cached with a new timestamp. Without a
/// TTL entries live until [`CachingEndpoint::clear`].
pub struct CachingEndpoint<E> {
    inner: E,
    cache: Mutex<HashMap<String, (Response, Duration)>>,
    hits: AtomicU64,
    expirations: AtomicU64,
    ttl: Option<(Duration, Arc<dyn Clock>)>,
}

impl<E: Endpoint> CachingEndpoint<E> {
    /// Wraps `inner` with an empty cache and no expiry.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
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
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of entries evicted because their TTL lapsed.
    pub fn expirations(&self) -> u64 {
        self.expirations.load(Ordering::Relaxed)
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
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value.clone())
            }
            Some(_) => {
                cache.remove(key);
                self.expirations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        }
    }
}

/// The cache key of a leaf: its response shape plus its SPARQL rendering
/// (each page of a paged shape renders to a distinct string, so pages
/// never collide). A batch has no key.
fn leaf_key(req: &Request<'_>) -> Result<String, EndpointError> {
    let shape = match req {
        Request::Select { .. }
        | Request::PreparedSelect { .. }
        | Request::PreparedSelectPaged { .. } => 'S',
        Request::Ask { .. } | Request::PreparedAsk { .. } => 'A',
        // No single rendering: `to_sparql` below says so.
        Request::Batch(_) => 'B',
    };
    Ok(format!("{shape}\u{1}{}", req.to_sparql()?))
}

/// Where one sub-response of a batch comes from.
enum Slot {
    /// Answered from the cache.
    Hit(Response),
    /// Forwarded; the answer is stored under this key.
    Miss(String),
    /// A nested batch, slot by slot.
    Nested(Vec<Slot>),
}

impl<E: Endpoint> CachingEndpoint<E> {
    /// Caches a successful answer, stamped with the current time.
    fn store(&self, key: String, response: &Response) {
        self.cache
            .lock()
            .insert(key, (response.clone(), self.now()));
    }

    /// Looks every leaf of a batch up, moving the ones the cache cannot
    /// answer to `misses` in the order their answers will be consumed.
    fn look_up<'a>(
        &self,
        requests: Vec<Request<'a>>,
        misses: &mut Vec<Request<'a>>,
    ) -> Result<Vec<Slot>, EndpointError> {
        requests
            .into_iter()
            .map(|req| match req {
                Request::Batch(subs) => Ok(Slot::Nested(self.look_up(subs, misses)?)),
                leaf => {
                    let key = leaf_key(&leaf)?;
                    Ok(match self.lookup(&key) {
                        Some(hit) => Slot::Hit(hit),
                        None => {
                            misses.push(leaf);
                            Slot::Miss(key)
                        }
                    })
                }
            })
            .collect()
    }

    /// Rebuilds the response tree of a batch from its hits and the inner
    /// endpoint's `answers` to its misses, caching each answer.
    fn stitch(
        &self,
        slots: Vec<Slot>,
        answers: &mut std::vec::IntoIter<Response>,
    ) -> Result<Vec<Response>, EndpointError> {
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Hit(hit) => Ok(hit),
                Slot::Nested(subs) => Ok(Response::Batch(self.stitch(subs, answers)?)),
                Slot::Miss(key) => {
                    let answer = answers.next().ok_or_else(|| {
                        EndpointError::Other(
                            "the inner endpoint answered fewer requests than the batch forwarded"
                                .to_owned(),
                        )
                    })?;
                    self.store(key, &answer);
                    Ok(answer)
                }
            })
            .collect()
    }
}

impl<E: Endpoint> Endpoint for CachingEndpoint<E> {
    /// A cache hit answers without touching the inner endpoint (and so
    /// without spending any of the budget); misses forward the budget
    /// inward — the misses of one batch as one inner batch. Errors —
    /// including budget breaches — are never cached, so a killed query
    /// does not poison the entry for the next caller.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        let requests = match req {
            Request::Batch(requests) => requests,
            leaf => {
                let key = leaf_key(&leaf)?;
                if let Some(hit) = self.lookup(&key) {
                    return Ok(hit);
                }
                let response = self.inner.execute_with_budget(leaf, budget)?;
                self.store(key, &response);
                return Ok(response);
            }
        };
        let mut misses = Vec::new();
        let slots = self.look_up(requests, &mut misses)?;
        let answers = if misses.is_empty() {
            Vec::new()
        } else {
            self.inner
                .execute_with_budget(Request::Batch(misses), budget)?
                .into_batch()?
        };
        Ok(Response::Batch(
            self.stitch(slots, &mut answers.into_iter())?,
        ))
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
        let count = Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s <p> ?o }", &["s"]).unwrap();
        let args = [Term::iri("a")];
        let counted = ep.select_prepared(&count, &args).unwrap();
        assert_eq!(counted.single_integer(), Some(1));
        let rows = ep.select_prepared(&pattern, &args).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(ep.entries(), 2, "count and select cached separately");
        // Both hit on re-issue.
        assert_eq!(ep.select_prepared(&count, &args).unwrap(), counted);
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

    /// A batch reaches the inner endpoint as one request: over a remote
    /// endpoint its misses cost one round trip, not one each.
    #[test]
    fn cold_batch_is_forwarded_as_one_batch() {
        let ep = stack();
        let counters = ep.inner().counters();
        let probe = Prepared::new("ASK { ?s <p> ?o }", &["s", "o"]).unwrap();
        let args: Vec<[Term; 2]> = (0..5)
            .map(|i| [Term::iri("a"), Term::iri(format!("o{i}"))])
            .collect();
        let batch = || {
            args.iter()
                .map(|a| Request::PreparedAsk {
                    prepared: &probe,
                    args: a,
                })
                .collect::<Vec<_>>()
        };
        let cold = ep.execute_batch(batch()).unwrap();
        assert_eq!(counters.requests(), 1);
        assert_eq!(counters.batches(), 1);
        assert_eq!(counters.batch_expanded(), 5);
        assert_eq!(counters.ask_queries(), 5);
        assert_eq!(ep.entries(), 5);
        // Warm, the same batch never leaves the cache.
        assert_eq!(ep.execute_batch(batch()).unwrap(), cold);
        assert_eq!(counters.requests(), 1);
        assert_eq!(ep.hits(), 5);
    }

    /// Hits and misses interleaved, one level of nesting: the stitched
    /// response tree is the uncached endpoint's, and only the misses
    /// travelled — together.
    #[test]
    fn hits_and_misses_stitch_back_in_order() {
        let ep = stack();
        let counters = ep.inner().counters();
        let queries = [
            "ASK { <a> <p> <b> }",
            "SELECT ?o { <a> <p> ?o }",
            "ASK { <a> <p> <zzz> }",
            "SELECT ?s { ?s <p> <b> }",
            "ASK { <b> <p> <a> }",
        ];
        let request = |q: &'static str| {
            if q.starts_with("ASK") {
                Request::Ask { query: q }
            } else {
                Request::Select { query: q }
            }
        };
        let tree = || {
            vec![
                request(queries[0]),
                request(queries[1]),
                Request::Batch(vec![request(queries[2]), request(queries[3])]),
                request(queries[4]),
            ]
        };
        let uncached = ep.inner().execute_batch(tree()).unwrap();
        counters.reset();
        // Warm every other leaf, singly.
        for q in [queries[1], queries[3]] {
            ep.execute(request(q)).unwrap();
        }
        assert_eq!(counters.requests(), 2);
        assert_eq!(ep.execute_batch(tree()).unwrap(), uncached);
        assert_eq!(counters.requests(), 3, "the three misses share one request");
        assert_eq!(counters.ask_queries(), 3);
        assert_eq!(counters.select_queries(), 2);
        assert_eq!(ep.hits(), 2);
        assert_eq!(ep.entries(), 5);
    }

    /// The promise of `concurrent.rs::batch_is_pinned_to_one_snapshot`
    /// holds through the cache: the inner endpoint here publishes a new
    /// fact before every request it receives, so a `count → page` batch
    /// forwarded leaf by leaf would count one state and page the next.
    #[test]
    fn cached_batch_is_answered_from_one_snapshot() {
        use crate::concurrent::{ConcurrentEndpoint, SnapshotStore};
        use std::sync::atomic::{AtomicU64, Ordering};

        struct PublishesBeforeEveryRequest {
            writer: Mutex<SnapshotStore>,
            reader: ConcurrentEndpoint,
            published: AtomicU64,
        }
        impl Endpoint for PublishesBeforeEveryRequest {
            fn execute_with_budget(
                &self,
                req: Request<'_>,
                budget: &QueryBudget,
            ) -> Result<Response, EndpointError> {
                let n = self.published.fetch_add(1, Ordering::Relaxed);
                let mut writer = self.writer.lock();
                writer.store_mut().insert_terms(
                    &Term::iri("a"),
                    &Term::iri("p"),
                    &Term::iri(format!("new{n}")),
                );
                writer.publish();
                drop(writer);
                self.reader.execute_with_budget(req, budget)
            }
        }

        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        let writer = SnapshotStore::new(store);
        let ep = CachingEndpoint::new(PublishesBeforeEveryRequest {
            reader: writer.reader("kb"),
            writer: Mutex::new(writer),
            published: AtomicU64::new(0),
        });
        let pattern = Prepared::new("SELECT ?o WHERE { ?s <p> ?o }", &["s"]).unwrap();
        let count = Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s <p> ?o }", &["s"]).unwrap();
        let args = [Term::iri("a")];
        let responses = ep
            .execute_batch(vec![
                Request::PreparedSelect {
                    prepared: &count,
                    args: &args,
                },
                Request::PreparedSelect {
                    prepared: &pattern,
                    args: &args,
                },
            ])
            .unwrap();
        let [count, page] = responses.try_into().expect("two sub-responses");
        assert_eq!(
            count.into_rows().unwrap().single_integer().unwrap(),
            page.into_rows().unwrap().len() as i64
        );
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
