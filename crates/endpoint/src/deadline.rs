//! The limits a server puts on every request it runs.
//!
//! A budget is a value the caller passes: every [`crate::Endpoint`]
//! takes a [`QueryBudget`] in `execute_with_budget`, and a kill by it
//! is typed where the evaluator's error enters the endpoint layer
//! (`From<SparqlError> for EndpointError`), whatever backend or wrapper
//! order ran the query:
//!
//! * deadline passed / token cancelled →
//!   [`EndpointError::DeadlineExceeded`] (the HTTP 504 class; the
//!   deadline is the caller's, so nothing sends the request again);
//! * scan or binding cap breached → [`EndpointError::BudgetExceeded`]
//!   (deterministic for the query, so nothing sends it again either).
//!
//! [`BudgetConfig`] is what a server is configured with. The HTTP tier
//! builds one `QueryBudget` per request from it: the time limit becomes
//! an absolute deadline when the request is read, the two caps copy
//! across, and the server's cancel token is attached.
//!
//! [`QueryBudget`]: sofya_sparql::QueryBudget
//! [`EndpointError::DeadlineExceeded`]: crate::EndpointError::DeadlineExceeded
//! [`EndpointError::BudgetExceeded`]: crate::EndpointError::BudgetExceeded

use std::time::Duration;

/// Per-query limits a server applies to every request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Wall-clock limit per request, converted to an absolute deadline
    /// when the request is read. `None` = no deadline.
    pub time_limit: Option<Duration>,
    /// Cap on rows scanned per query; a row of a `VALUES` table counts
    /// as a query of its own, for both caps.
    pub max_rows_scanned: Option<u64>,
    /// Cap on intermediate bindings held per query.
    pub max_bindings: Option<usize>,
}

impl BudgetConfig {
    /// Only a time limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        Self {
            time_limit: Some(limit),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::endpoint::{Endpoint, Request};
    use crate::error::EndpointError;
    use crate::local::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};
    use sofya_sparql::{CancelToken, QueryBudget, ResultSet};
    use std::sync::Arc;
    use std::time::Duration;

    fn base(n: usize) -> LocalEndpoint {
        let mut store = TripleStore::new();
        for i in 0..n {
            store.insert_terms(
                &Term::iri(format!("e:{i}")),
                &Term::iri("r:p"),
                &Term::iri(format!("e:o{}", i % 10)),
            );
        }
        LocalEndpoint::new("kb", store)
    }

    fn select(
        ep: &dyn Endpoint,
        query: &str,
        budget: &QueryBudget,
    ) -> Result<ResultSet, EndpointError> {
        ep.execute_with_budget(Request::Select { query }, budget)?
            .into_rows()
    }

    fn tripped() -> QueryBudget {
        let token = Arc::new(CancelToken::new());
        token.cancel();
        QueryBudget::unlimited().with_cancel(token)
    }

    #[test]
    fn unlimited_config_passes_through() {
        let all = select(
            &base(5),
            "SELECT ?s { ?s <r:p> ?o }",
            &QueryBudget::unlimited(),
        );
        assert_eq!(all.unwrap().len(), 5);
    }

    #[test]
    fn scan_cap_surfaces_as_budget_exceeded() {
        let ep = base(100);
        let cap = QueryBudget::unlimited().with_max_rows_scanned(10);
        // A cross join over 100 triples blows a 10-row scan cap.
        let err = select(&ep, "SELECT ?a ?c { ?a ?p ?b . ?c ?q ?d }", &cap).unwrap_err();
        assert!(
            matches!(err, EndpointError::BudgetExceeded { .. }),
            "got {err:?}"
        );
        // Small queries still fit.
        let probe = select(&ep, "SELECT ?o { <e:0> <r:p> ?o }", &cap).unwrap();
        assert_eq!(probe.len(), 1);
    }

    #[test]
    fn cancel_token_aborts_and_reports_deadline_exceeded() {
        let err = select(&base(5), "SELECT ?s { ?s <r:p> ?o }", &tripped()).unwrap_err();
        assert!(
            matches!(err, EndpointError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn expired_deadline_fails_before_executing() {
        let spent = QueryBudget::unlimited().with_time_limit(Duration::ZERO);
        let err = select(&base(5), "SELECT ?s { ?s <r:p> ?o }", &spent).unwrap_err();
        assert!(matches!(err, EndpointError::DeadlineExceeded { .. }));
    }
}
