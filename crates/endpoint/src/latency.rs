//! Simulated network latency accounting.
//!
//! A remote SPARQL endpoint costs a round-trip per query plus transfer
//! time per row. Actually sleeping would make experiments slow and flaky;
//! instead this wrapper *accounts* simulated time, so an experiment can
//! report "aligning this relation would take ≈1.8 s against a 20 ms-RTT
//! endpoint" deterministically.

use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use sofya_sparql::QueryBudget;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency model: fixed round-trip cost per query plus a per-row
/// transfer cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Round-trip time charged per query.
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
}

/// An endpoint wrapper accumulating simulated network time.
pub struct LatencyEndpoint<E> {
    inner: E,
    model: LatencyModel,
    simulated_nanos: AtomicU64,
}

impl<E: Endpoint> LatencyEndpoint<E> {
    /// Wraps `inner` under a latency model.
    pub fn new(inner: E, model: LatencyModel) -> Self {
        Self {
            inner,
            model,
            simulated_nanos: AtomicU64::new(0),
        }
    }

    /// Total simulated network time so far.
    pub fn simulated_time(&self) -> Duration {
        Duration::from_nanos(self.simulated_nanos.load(Ordering::Relaxed))
    }

    /// Resets the accumulated time.
    pub fn reset(&self) {
        self.simulated_nanos.store(0, Ordering::Relaxed);
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn charge(&self, rows: usize) {
        let cost = self.model.round_trip.as_nanos() as u64
            + self.model.per_row.as_nanos() as u64 * rows as u64;
        self.simulated_nanos.fetch_add(cost, Ordering::Relaxed);
    }
}

impl<E: Endpoint> Endpoint for LatencyEndpoint<E> {
    /// One round trip per request plus transfer per response row — which
    /// is exactly why [`Request::Batch`] exists: N batched probes cost
    /// one RTT where N sequential requests cost N.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        let response = self.inner.execute_with_budget(req, budget)?;
        self.charge(response.row_count() as usize);
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

    fn wrapped(model: LatencyModel) -> LatencyEndpoint<LocalEndpoint> {
        let mut store = TripleStore::new();
        for i in 0..10 {
            store.insert_terms(
                &Term::iri(format!("e:{i}")),
                &Term::iri("r:p"),
                &Term::iri("e:o"),
            );
        }
        LatencyEndpoint::new(LocalEndpoint::new("kb", store), model)
    }

    #[test]
    fn charges_round_trip_plus_rows() {
        let model = LatencyModel {
            round_trip: Duration::from_millis(10),
            per_row: Duration::from_millis(1),
        };
        let ep = wrapped(model);
        ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap();
        // 10 ms + 10 rows × 1 ms.
        assert_eq!(ep.simulated_time(), Duration::from_millis(20));
        ep.ask("ASK { <e:0> <r:p> <e:o> }").unwrap();
        assert_eq!(ep.simulated_time(), Duration::from_millis(31));
    }

    #[test]
    fn a_batch_costs_one_round_trip() {
        let model = LatencyModel {
            round_trip: Duration::from_millis(10),
            per_row: Duration::from_millis(1),
        };
        let ep = wrapped(model);
        let q = "ASK { <e:0> <r:p> <e:o> }";
        ep.execute_batch(vec![
            Request::Ask { query: q },
            Request::Ask { query: q },
            Request::Ask { query: q },
        ])
        .unwrap();
        // One RTT + 3 boolean rows — not 3 RTTs.
        assert_eq!(ep.simulated_time(), Duration::from_millis(13));
    }

    #[test]
    fn failed_queries_charge_nothing() {
        let ep = wrapped(LatencyModel::wan());
        let _ = ep.select("NOT SPARQL");
        assert_eq!(ep.simulated_time(), Duration::ZERO);
    }

    #[test]
    fn reset_zeroes_the_clock() {
        let ep = wrapped(LatencyModel::wan());
        ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap();
        assert!(ep.simulated_time() > Duration::ZERO);
        ep.reset();
        assert_eq!(ep.simulated_time(), Duration::ZERO);
    }
}
