//! Query-budget and row-cap enforcement.
//!
//! Public SPARQL endpoints enforce fair-use policies: a client may issue a
//! limited number of requests, and each response is truncated server-side
//! (DBpedia's public endpoint caps results at 10 000 rows). SOFYA's whole
//! point is to work inside such limits; this wrapper makes them explicit
//! so experiments fail loudly when an algorithm overspends.

use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use sofya_sparql::{QueryBudget, ResultSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Limits enforced by a [`QuotaEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Maximum number of queries (SELECT + ASK) before erroring;
    /// `None` = unlimited.
    pub max_queries: Option<u64>,
    /// Server-side truncation: at most this many rows per SELECT;
    /// `None` = unlimited.
    pub max_rows_per_query: Option<usize>,
}

impl Default for QuotaConfig {
    /// A DBpedia-like default: 10 000 queries, 10 000 rows per query.
    fn default() -> Self {
        Self {
            max_queries: Some(10_000),
            max_rows_per_query: Some(10_000),
        }
    }
}

/// An endpoint wrapper enforcing a [`QuotaConfig`].
///
/// Row truncation is silent (as on real servers); exceeding the query
/// budget raises [`EndpointError::QuotaExceeded`].
pub struct QuotaEndpoint<E> {
    inner: E,
    config: QuotaConfig,
    used: AtomicU64,
}

impl<E: Endpoint> QuotaEndpoint<E> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: E, config: QuotaConfig) -> Self {
        Self {
            inner,
            config,
            used: AtomicU64::new(0),
        }
    }

    /// Queries already spent.
    pub fn used_queries(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Queries still available (`u64::MAX` when unlimited).
    pub fn remaining_queries(&self) -> u64 {
        match self.config.max_queries {
            Some(max) => max.saturating_sub(self.used_queries()),
            None => u64::MAX,
        }
    }

    /// The configured limits.
    pub fn config(&self) -> QuotaConfig {
        self.config
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Charges `n` leaf queries against the budget. A **rejected**
    /// request is charged exactly one unit — the server round-trip the
    /// rejected envelope cost — never its full leaf count: none of an
    /// oversized batch's queries executed, so burning the whole
    /// remaining budget for it would let one bad batch starve a client
    /// that sequential issuance would not have.
    fn charge(&self, n: u64) -> Result<(), EndpointError> {
        let used = self.used.fetch_add(n, Ordering::Relaxed);
        if let Some(max) = self.config.max_queries {
            if used + n > max {
                if n > 1 {
                    self.used.fetch_sub(n - 1, Ordering::Relaxed);
                }
                return Err(EndpointError::QuotaExceeded {
                    endpoint: self.inner.name().to_owned(),
                    max_queries: max,
                    // A per-run budget never refills: no retry hint.
                    retry_after: None,
                });
            }
        }
        Ok(())
    }

    /// Server-side truncation at `max_rows_per_query` (silent, as on real
    /// endpoints).
    fn cap_rows(&self, rs: ResultSet) -> ResultSet {
        match self.config.max_rows_per_query {
            Some(cap) if rs.len() > cap => {
                let rows: Vec<_> = rs.rows().iter().take(cap).cloned().collect();
                ResultSet::new(rs.vars().to_vec(), rows)
            }
            _ => rs,
        }
    }

    /// Applies the per-query row cap to every row-shaped response,
    /// recursing through batches (each batched `SELECT` is one query on
    /// the server, so each gets its own cap).
    fn cap_response(&self, response: Response) -> Response {
        match response {
            Response::Rows(rs) => Response::Rows(self.cap_rows(rs)),
            Response::Batch(subs) => {
                Response::Batch(subs.into_iter().map(|r| self.cap_response(r)).collect())
            }
            other => other,
        }
    }
}

impl<E: Endpoint> Endpoint for QuotaEndpoint<E> {
    /// Charges one budget unit per **leaf** request — a batch of five
    /// queries spends five, so batching can never smuggle work past the
    /// budget — then caps every row-shaped response.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.charge(req.leaf_count())?;
        Ok(self.cap_response(self.inner.execute_with_budget(req, budget)?))
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

    fn base() -> LocalEndpoint {
        let mut store = TripleStore::new();
        for i in 0..20 {
            store.insert_terms(
                &Term::iri(format!("e:{i}")),
                &Term::iri("r:p"),
                &Term::iri("e:o"),
            );
        }
        LocalEndpoint::new("kb", store)
    }

    #[test]
    fn rows_are_truncated_at_cap() {
        let ep = QuotaEndpoint::new(
            base(),
            QuotaConfig {
                max_queries: None,
                max_rows_per_query: Some(5),
            },
        );
        let rs = ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap();
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn under_cap_results_are_untouched() {
        let ep = QuotaEndpoint::new(
            base(),
            QuotaConfig {
                max_queries: None,
                max_rows_per_query: Some(100),
            },
        );
        let rs = ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap();
        assert_eq!(rs.len(), 20);
    }

    #[test]
    fn query_budget_is_enforced() {
        let ep = QuotaEndpoint::new(
            base(),
            QuotaConfig {
                max_queries: Some(3),
                max_rows_per_query: None,
            },
        );
        for _ in 0..3 {
            ep.ask("ASK { <e:0> <r:p> <e:o> }").unwrap();
        }
        let err = ep.ask("ASK { <e:0> <r:p> <e:o> }").unwrap_err();
        assert!(matches!(
            err,
            EndpointError::QuotaExceeded { max_queries: 3, .. }
        ));
        assert_eq!(ep.used_queries(), 4); // the failed attempt was charged
        assert_eq!(ep.remaining_queries(), 0);
    }

    #[test]
    fn select_and_ask_share_the_budget() {
        let ep = QuotaEndpoint::new(
            base(),
            QuotaConfig {
                max_queries: Some(2),
                max_rows_per_query: None,
            },
        );
        ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap();
        ep.ask("ASK { <e:0> <r:p> <e:o> }").unwrap();
        assert!(ep.select("SELECT ?s { ?s <r:p> ?o }").is_err());
    }

    #[test]
    fn batches_charge_per_leaf_request() {
        let ep = QuotaEndpoint::new(
            base(),
            QuotaConfig {
                max_queries: Some(3),
                max_rows_per_query: Some(5),
            },
        );
        // A 3-leaf batch fits exactly; its SELECTs are row-capped.
        let responses = ep
            .execute_batch(vec![
                Request::Select {
                    query: "SELECT ?s { ?s <r:p> ?o }",
                },
                Request::Select {
                    query: "SELECT ?s { ?s <r:p> ?o }",
                },
                Request::Ask {
                    query: "ASK { <e:0> <r:p> <e:o> }",
                },
            ])
            .unwrap();
        for resp in &responses[..2] {
            assert_eq!(resp.clone().into_rows().unwrap().len(), 5);
        }
        assert_eq!(ep.used_queries(), 3);
        // The next single query is over budget: batching hid nothing.
        assert!(ep.ask("ASK { <e:0> <r:p> <e:o> }").is_err());
    }

    #[test]
    fn oversized_batch_is_rejected_before_execution() {
        let ep = QuotaEndpoint::new(
            base(),
            QuotaConfig {
                max_queries: Some(2),
                max_rows_per_query: None,
            },
        );
        let q = "ASK { <e:0> <r:p> <e:o> }";
        let err = ep
            .execute_batch(vec![
                Request::Ask { query: q },
                Request::Ask { query: q },
                Request::Ask { query: q },
            ])
            .unwrap_err();
        assert!(matches!(err, EndpointError::QuotaExceeded { .. }));
        // The rejected envelope cost one unit, not three: the budget is
        // not burned by a batch that never executed.
        assert_eq!(ep.used_queries(), 1);
        assert_eq!(ep.remaining_queries(), 1);
        assert!(ep.ask(q).is_ok());
    }

    #[test]
    fn unlimited_config_never_errs() {
        let ep = QuotaEndpoint::new(
            base(),
            QuotaConfig {
                max_queries: None,
                max_rows_per_query: None,
            },
        );
        for _ in 0..100 {
            ep.ask("ASK { <e:0> <r:p> <e:o> }").unwrap();
        }
        assert_eq!(ep.remaining_queries(), u64::MAX);
    }
}
