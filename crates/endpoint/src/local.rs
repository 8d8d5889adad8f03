//! An endpoint over one fixed store state.

use crate::concurrent::{run, PublishedSnapshot};
use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use crate::plan_cache::{ShardedPlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use sofya_rdf::TripleStore;
use sofya_sparql::QueryBudget;
use std::sync::Arc;

/// The "remote server" of this reproduction: one immutable published
/// store state, queried through `sofya-sparql` by the same execution
/// core as [`crate::ConcurrentEndpoint`] — of which this is the view
/// that never moves to a newer snapshot.
///
/// [`LocalEndpoint::new`] publishes a store of its own, once;
/// [`crate::ConcurrentEndpoint::pinned`] hands out the same type over
/// the snapshot current at pin time, so a dependent query sequence —
/// string, prepared, or paged — is transactionally consistent even while
/// the writer keeps publishing. Either way the state never changes under
/// the endpoint, which buys two layers of work-skipping:
///
/// * planner statistics are computed once per snapshot (lazily, on the
///   first query that plans) and fed to the selectivity-driven query
///   planner on every request;
/// * a bounded **LRU plan cache** keyed by query string makes re-issued
///   queries skip tokenizer, parser, and planner entirely (the aligner
///   re-issues a handful of fixed shapes throughout a session; the LRU
///   policy keeps those hot shapes resident even when a scan of many
///   distinct paged queries passes through), and the prepared request
///   shapes ([`crate::Request::PreparedSelect`] and friends) execute
///   bound ASTs directly so parameterized probes never parse at all.
///
/// Clones share the snapshot and the plan cache.
#[derive(Clone)]
pub struct LocalEndpoint {
    pub(crate) name: String,
    pub(crate) snap: Arc<PublishedSnapshot>,
    pub(crate) plans: Arc<ShardedPlanCache>,
}

impl LocalEndpoint {
    /// Publishes `store` as it is now and wraps that state under a
    /// display name, with a plan cache of its own.
    pub fn new(name: impl Into<String>, mut store: TripleStore) -> Self {
        Self {
            name: name.into(),
            snap: Arc::new(PublishedSnapshot::new(store.snapshot())),
            plans: Arc::new(ShardedPlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
        }
    }

    /// The store state this endpoint answers from.
    pub fn snapshot(&self) -> &PublishedSnapshot {
        &self.snap
    }

    /// Version of that state.
    pub fn snapshot_version(&self) -> u64 {
        self.snap.version()
    }

    /// Re-bounds the plan cache (total capacity, split evenly across
    /// shards; 0 disables caching). Entries beyond the new bound are
    /// evicted least-recently-used first.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.plans.set_capacity(capacity);
    }

    /// Number of cached plans (shared with every clone, and with the
    /// [`crate::ConcurrentEndpoint`] this view was pinned from).
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }
}

impl Endpoint for LocalEndpoint {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        run(&self.plans, &self.snap, req, budget)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for LocalEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalEndpoint")
            .field("name", &self.name)
            .field("snapshot_version", &self.snap.version())
            .field("snapshot_triples", &self.snap.snapshot().len())
            .field("cached_plans", &self.plan_cache_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointExt;
    use crate::plan_cache::PLAN_CACHE_SHARDS;
    use sofya_rdf::Term;
    use sofya_sparql::Prepared;

    fn endpoint() -> LocalEndpoint {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:b"));
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:c"));
        LocalEndpoint::new("test", store)
    }

    #[test]
    fn select_and_ask_round_trip() {
        let ep = endpoint();
        let rs = ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap();
        assert_eq!(rs.len(), 2);
        assert!(ep.ask("ASK { <e:a> <r:p> <e:b> }").unwrap());
        assert!(!ep.ask("ASK { <e:b> <r:p> <e:a> }").unwrap());
    }

    #[test]
    fn parse_errors_surface_as_endpoint_errors() {
        let ep = endpoint();
        let err = ep.select("SELECT WHERE").unwrap_err();
        assert!(matches!(err, EndpointError::Sparql(_)));
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(endpoint().name(), "test");
    }

    #[test]
    fn plan_cache_reuses_compiled_queries() {
        let ep = endpoint();
        assert_eq!(ep.plan_cache_len(), 0);
        let q = "SELECT ?o { <e:a> <r:p> ?o }";
        let first = ep.select(q).unwrap();
        assert_eq!(ep.plan_cache_len(), 1);
        let second = ep.select(q).unwrap();
        assert_eq!(first, second);
        assert_eq!(ep.plan_cache_len(), 1);
        // ASK plans are cached too, under their own key.
        ep.ask("ASK { <e:a> <r:p> <e:b> }").unwrap();
        assert_eq!(ep.plan_cache_len(), 2);
    }

    #[test]
    fn plan_cache_is_bounded_lru() {
        let ep = endpoint();
        ep.set_plan_cache_capacity(4);
        for i in 0..20 {
            let _ = ep.select(&format!("SELECT ?o {{ <e:a> <r:p> ?o }} LIMIT {i}"));
        }
        // The sharded bound; `plan_cache.rs` pins the exact LRU policy.
        assert!(ep.plan_cache_len() <= 4 + PLAN_CACHE_SHARDS);
        // Cached and uncached execution agree.
        let cached = ep.select("SELECT ?o { <e:a> <r:p> ?o } LIMIT 19").unwrap();
        ep.set_plan_cache_capacity(0);
        let uncached = ep.select("SELECT ?o { <e:a> <r:p> ?o } LIMIT 19").unwrap();
        assert_eq!(cached, uncached);
        assert_eq!(ep.plan_cache_len(), 0);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let ep = endpoint();
        let _ = ep.select("NOT SPARQL");
        assert_eq!(ep.plan_cache_len(), 0);
    }

    #[test]
    fn plan_cache_keeps_reused_entries_under_churn() {
        let ep = endpoint();
        ep.set_plan_cache_capacity(2);
        let hot = "SELECT ?o { <e:a> <r:p> ?o }";
        let oracle = ep.select(hot).unwrap();
        // A stream of distinct paged shapes would evict a FIFO entry; the
        // LRU keeps `hot` because we re-touch it between insertions.
        for i in 0..10 {
            let _ = ep.select(&format!("SELECT ?o {{ <e:a> <r:p> ?o }} LIMIT {i}"));
            assert_eq!(ep.select(hot).unwrap(), oracle);
        }
        assert!(ep.plan_cache_len() <= 2 + PLAN_CACHE_SHARDS);
    }

    #[test]
    fn prepared_paged_matches_string_pagination() {
        let ep = endpoint();
        let q = Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let args = [Term::iri("e:a"), Term::iri("r:p")];
        let page = ep
            .select_prepared_paged(&q, &args, Some(1), Some(1))
            .unwrap();
        let oracle = ep
            .select("SELECT ?o WHERE { <e:a> <r:p> ?o } ORDER BY ?o LIMIT 1 OFFSET 1")
            .unwrap();
        assert_eq!(page, oracle);
        // No limit/offset override behaves like plain select_prepared.
        let full = ep.select_prepared_paged(&q, &args, None, None).unwrap();
        assert_eq!(full, ep.select_prepared(&q, &args).unwrap());
    }

    #[test]
    fn prepared_queries_match_string_queries() {
        let ep = endpoint();
        let probe = Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
        assert!(ep
            .ask_prepared(
                &probe,
                &[Term::iri("e:a"), Term::iri("r:p"), Term::iri("e:b")]
            )
            .unwrap());
        assert!(!ep
            .ask_prepared(
                &probe,
                &[Term::iri("e:b"), Term::iri("r:p"), Term::iri("e:a")]
            )
            .unwrap());
        let objects =
            Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let rs = ep
            .select_prepared(&objects, &[Term::iri("e:a"), Term::iri("r:p")])
            .unwrap();
        let oracle = ep
            .select("SELECT ?o WHERE { <e:a> <r:p> ?o } ORDER BY ?o")
            .unwrap();
        assert_eq!(rs, oracle);
    }
}
