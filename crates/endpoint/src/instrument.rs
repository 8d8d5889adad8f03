//! Query/transfer accounting for the "few queries" claim, and what the
//! counts would cost in network time.

use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use sofya_sparql::QueryBudget;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters accumulated by an [`InstrumentedEndpoint`].
///
/// Cheap to clone (the counters are shared), so a harness can keep a
/// handle while the endpoint is moved into the aligner.
///
/// Counting is **per leaf request**: a [`Request::Batch`] contributes
/// one increment per contained non-batch request to the matching
/// variant counter (select/ask), plus the same number to
/// [`EndpointCounters::batch_expanded`] — so the paper's "few queries"
/// accounting stays exact no matter how requests are grouped, and the
/// batch share is visible separately.
///
/// Queries are counted **at issue time**, before execution — the same
/// rule as for single requests (a failed query still counts as issued).
/// For a batch that means every leaf counts once the batch is
/// transmitted, even if the backend aborts the batch at an earlier
/// failing leaf: the server received them all.
#[derive(Debug, Clone, Default)]
pub struct EndpointCounters {
    requests: Arc<AtomicU64>,
    largest_request: Arc<AtomicU64>,
    select_queries: Arc<AtomicU64>,
    ask_queries: Arc<AtomicU64>,
    batches: Arc<AtomicU64>,
    batch_expanded: Arc<AtomicU64>,
    rows_returned: Arc<AtomicU64>,
}

impl EndpointCounters {
    /// Number of requests received, a whole batch counting once: what a
    /// remote endpoint would pay in round trips.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The most leaf requests any one request carried.
    pub fn largest_request(&self) -> u64 {
        self.largest_request.load(Ordering::Relaxed)
    }

    /// Number of `SELECT`-shaped leaf requests issued (string, prepared,
    /// and paged-prepared; a `COUNT(*)` is one of them).
    pub fn select_queries(&self) -> u64 {
        self.select_queries.load(Ordering::Relaxed)
    }

    /// Number of `ASK`-shaped leaf requests issued.
    pub fn ask_queries(&self) -> u64 {
        self.ask_queries.load(Ordering::Relaxed)
    }

    /// Number of batch requests received (nested batches count once
    /// each).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Number of leaf requests that arrived inside a batch (each is
    /// *also* counted under its own variant).
    pub fn batch_expanded(&self) -> u64 {
        self.batch_expanded.load(Ordering::Relaxed)
    }

    /// Total leaf queries of both variants.
    pub fn total_queries(&self) -> u64 {
        self.select_queries() + self.ask_queries()
    }

    /// Total solution rows transferred (a count transfers one row).
    pub fn rows_returned(&self) -> u64 {
        self.rows_returned.load(Ordering::Relaxed)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.largest_request.store(0, Ordering::Relaxed);
        self.select_queries.store(0, Ordering::Relaxed);
        self.ask_queries.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batch_expanded.store(0, Ordering::Relaxed);
        self.rows_returned.store(0, Ordering::Relaxed);
    }

    /// Charges one request (recursively, for batches) to the per-variant
    /// counters. Recorded before execution, so failed queries still
    /// count as issued.
    fn record_request(&self, req: &Request<'_>, in_batch: bool) {
        let variant = match req {
            Request::Select { .. }
            | Request::PreparedSelect { .. }
            | Request::PreparedSelectPaged { .. } => &self.select_queries,
            Request::Ask { .. } | Request::PreparedAsk { .. } => &self.ask_queries,
            Request::Batch(subs) => {
                self.batches.fetch_add(1, Ordering::Relaxed);
                for sub in subs {
                    self.record_request(sub, true);
                }
                return;
            }
        };
        variant.fetch_add(1, Ordering::Relaxed);
        if in_batch {
            self.batch_expanded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulates the transfer cost of one response (recursively, for
    /// batches). Booleans transfer no rows; counts transfer one row.
    fn record_response(&self, resp: &Response) {
        match resp {
            Response::Rows(rs) => {
                self.rows_returned
                    .fetch_add(rs.len() as u64, Ordering::Relaxed);
            }
            Response::Boolean(_) => {}
            Response::Count(_) => {
                self.rows_returned.fetch_add(1, Ordering::Relaxed);
            }
            Response::Batch(subs) => {
                for sub in subs {
                    self.record_response(sub);
                }
            }
        }
    }
}

/// Latency model: fixed round-trip cost per request plus a per-row
/// transfer cost. Actually sleeping would make experiments slow and
/// flaky; [`LatencyModel::cost`] turns what an [`InstrumentedEndpoint`]
/// counted into simulated time instead, so an experiment can report
/// "aligning this relation would take ≈0.4 s against a 20 ms-RTT
/// endpoint" deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Round-trip time charged per request.
    pub round_trip: Duration,
    /// Transfer time charged per returned row.
    pub per_row: Duration,
}

impl LatencyModel {
    /// A same-continent public endpoint: 20 ms RTT, 50 µs/row.
    pub fn wan() -> Self {
        Self {
            round_trip: Duration::from_millis(20),
            per_row: Duration::from_micros(50),
        }
    }

    /// The network time of everything `counters` has seen: one round
    /// trip per request — a whole batch being one, which is exactly why
    /// [`Request::Batch`] exists — plus transfer per row, a boolean
    /// answer weighing one row like a count. A request that failed still
    /// paid its round trip.
    pub fn cost(&self, counters: &EndpointCounters) -> Duration {
        let rows = counters.rows_returned() + counters.ask_queries();
        Duration::from_nanos(
            self.round_trip.as_nanos() as u64 * counters.requests()
                + self.per_row.as_nanos() as u64 * rows,
        )
    }
}

/// An endpoint wrapper that counts queries and transferred rows.
pub struct InstrumentedEndpoint<E> {
    inner: E,
    counters: EndpointCounters,
}

impl<E: Endpoint> InstrumentedEndpoint<E> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            counters: EndpointCounters::default(),
        }
    }

    /// A shared handle to the counters.
    pub fn counters(&self) -> EndpointCounters {
        self.counters.clone()
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Endpoint> Endpoint for InstrumentedEndpoint<E> {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .largest_request
            .fetch_max(req.leaf_count(), Ordering::Relaxed);
        self.counters.record_request(&req, false);
        let response = self.inner.execute_with_budget(req, budget)?;
        self.counters.record_response(&response);
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
    use crate::local::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};
    use sofya_sparql::Prepared;

    fn wrapped() -> InstrumentedEndpoint<LocalEndpoint> {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("c"));
        InstrumentedEndpoint::new(LocalEndpoint::new("x", store))
    }

    #[test]
    fn counts_selects_rows_and_cells() {
        let ep = wrapped();
        let counters = ep.counters();
        ep.select("SELECT ?s ?o { ?s <p> ?o }").unwrap();
        ep.select("SELECT ?o { <a> <p> ?o }").unwrap();
        assert_eq!(counters.select_queries(), 2);
        assert_eq!(counters.rows_returned(), 2 + 2);
    }

    #[test]
    fn counts_asks_separately() {
        let ep = wrapped();
        let counters = ep.counters();
        ep.ask("ASK { <a> <p> <b> }").unwrap();
        assert!(!ep.ask("ASK { <a> <p> <zzz> }").unwrap());
        assert_eq!(counters.ask_queries(), 2);
        assert_eq!(counters.select_queries(), 0);
    }

    #[test]
    fn a_count_is_tallied_as_a_select_of_one_row() {
        let ep = wrapped();
        let counters = ep.counters();
        let count = Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s <p> ?o }", &["s"]).unwrap();
        let rs = ep.select_prepared(&count, &[Term::iri("a")]).unwrap();
        assert_eq!(rs.single_integer(), Some(2));
        assert_eq!(counters.select_queries(), 1);
        assert_eq!(counters.total_queries(), 1);
        // A count transfers one row.
        assert_eq!(counters.rows_returned(), 1);
    }

    #[test]
    fn batches_expand_into_exact_per_variant_counts() {
        let ep = wrapped();
        let counters = ep.counters();
        let count = Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s <p> ?o }", &["s"]).unwrap();
        let args = [Term::iri("a")];
        ep.execute_batch(vec![
            Request::Select {
                query: "SELECT ?o { <a> <p> ?o }",
            },
            Request::Ask {
                query: "ASK { <a> <p> <b> }",
            },
            Request::PreparedSelect {
                prepared: &count,
                args: &args,
            },
            Request::Batch(vec![Request::Ask {
                query: "ASK { <a> <p> <c> }",
            }]),
        ])
        .unwrap();
        assert_eq!(counters.select_queries(), 2);
        assert_eq!(counters.ask_queries(), 2);
        assert_eq!(counters.total_queries(), 4);
        assert_eq!(counters.batch_expanded(), 4);
        assert_eq!(counters.batches(), 2); // outer + nested
        assert_eq!(counters.requests(), 1); // …all in one round trip
        assert_eq!(counters.largest_request(), 4);
        assert_eq!(counters.rows_returned(), 2 + 1); // select rows + count row
    }

    #[test]
    fn latency_model_charges_round_trips_plus_rows() {
        let model = LatencyModel {
            round_trip: Duration::from_millis(10),
            per_row: Duration::from_millis(1),
        };
        let ep = wrapped();
        let counters = ep.counters();
        ep.select("SELECT ?o { <a> <p> ?o }").unwrap();
        // 10 ms + 2 rows × 1 ms.
        assert_eq!(model.cost(&counters), Duration::from_millis(12));
        let ask = Request::Ask {
            query: "ASK { <a> <p> <b> }",
        };
        ep.execute_batch(vec![ask.clone(), ask.clone(), ask])
            .unwrap();
        // One more RTT + 3 boolean rows — not 3 RTTs.
        assert_eq!(model.cost(&counters), Duration::from_millis(12 + 13));
    }

    #[test]
    fn failed_queries_still_count_as_issued() {
        let ep = wrapped();
        let counters = ep.counters();
        let _ = ep.select("THIS IS NOT SPARQL");
        assert_eq!(counters.select_queries(), 1);
        assert_eq!(counters.rows_returned(), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let ep = wrapped();
        let counters = ep.counters();
        ep.select("SELECT ?o { <a> <p> ?o }").unwrap();
        counters.reset();
        assert_eq!(counters.total_queries(), 0);
        assert_eq!(counters.rows_returned(), 0);
        assert_eq!(counters.batches(), 0);
        assert_eq!(counters.requests(), 0);
    }

    #[test]
    fn counter_handle_survives_endpoint_move() {
        let ep = wrapped();
        let counters = ep.counters();
        let moved = ep; // move endpoint elsewhere
        moved.select("SELECT ?o { <a> <p> ?o }").unwrap();
        assert_eq!(counters.select_queries(), 1);
    }
}
