//! Deadline/budget enforcement middleware.
//!
//! [`DeadlineEndpoint`] derives a fresh [`QueryBudget`] for every
//! request from its [`BudgetConfig`] (relative time limit → absolute
//! deadline at request start) plus a shared [`CancelToken`] and runs the
//! inner endpoint's budgeted path. It does not classify the kills it
//! causes — a breach is typed where the evaluator's error enters the
//! endpoint layer (`From<SparqlError> for EndpointError`), with or
//! without this wrapper above it:
//!
//! * deadline passed / token cancelled →
//!   [`EndpointError::DeadlineExceeded`] (the HTTP 504 class, counted by
//!   the circuit breaker), which this wrapper stamps with the elapsed
//!   time it measured;
//! * scan or binding cap breached → [`EndpointError::BudgetExceeded`]
//!   (deterministic for the query, never retried).
//!
//! The wrapper composes with the rest of the middleware stack like any
//! other: put it *outside* caching (a cache hit should not spend
//! budget). Either side of retry is fine — a deadline error is never
//! retried and always counts toward the breaker, see
//! [`crate::RetryEndpoint`].

use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use sofya_sparql::{CancelToken, QueryBudget};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-query limits applied by a [`DeadlineEndpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Wall-clock limit per request, converted to an absolute deadline
    /// when the request starts. `None` = no deadline.
    pub time_limit: Option<Duration>,
    /// Cap on rows scanned per query.
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

    /// The budget for a request starting now (no cancel token attached).
    pub fn budget_starting_now(&self) -> QueryBudget {
        QueryBudget {
            // sofya: allow(determinism) — deadline enforcement is wall-clock by contract; budgets never alter surviving results
            deadline: self.time_limit.map(|limit| Instant::now() + limit),
            max_rows_scanned: self.max_rows_scanned,
            max_bindings: self.max_bindings,
            cancel: None,
        }
    }
}

/// Stamps a deadline or cancellation failure with the measured elapsed
/// time. Every other error passes through unchanged.
fn map_budget_error(error: EndpointError, elapsed: Duration) -> EndpointError {
    match error {
        EndpointError::DeadlineExceeded { .. } => EndpointError::DeadlineExceeded { elapsed },
        other => other,
    }
}

/// An endpoint wrapper that enforces a per-query [`BudgetConfig`] and a
/// shared cancel switch.
///
/// Every clone shares the cancel token: cancelling the endpoint aborts
/// all in-flight budgeted queries (within one evaluator poll interval)
/// and rejects new ones until [`DeadlineEndpoint::reset_cancel`].
pub struct DeadlineEndpoint<E> {
    inner: E,
    config: BudgetConfig,
    cancel: Arc<CancelToken>,
}

impl<E: Endpoint> DeadlineEndpoint<E> {
    /// Wraps `inner` under `config` with a fresh cancel token.
    pub fn new(inner: E, config: BudgetConfig) -> Self {
        Self {
            inner,
            config,
            cancel: Arc::new(CancelToken::new()),
        }
    }

    /// Wraps `inner` sharing an existing cancel token (the server folds
    /// its drain token into every request this way).
    pub fn with_cancel(inner: E, config: BudgetConfig, cancel: Arc<CancelToken>) -> Self {
        Self {
            inner,
            config,
            cancel,
        }
    }

    /// The shared cancel token; trip it to abort all in-flight queries.
    pub fn cancel_token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.cancel)
    }

    /// Replaces the tripped token with a fresh one, re-admitting work.
    pub fn reset_cancel(&mut self) {
        self.cancel = Arc::new(CancelToken::new());
    }

    /// The configured limits.
    pub fn config(&self) -> BudgetConfig {
        self.config
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Endpoint> Endpoint for DeadlineEndpoint<E> {
    /// The caller's budget merges with the configured one: the tighter
    /// deadline and caps win, and this endpoint's cancel token is
    /// attached (outermost token wins, see [`QueryBudget::merge`]).
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        let budget = self
            .config
            .budget_starting_now()
            .with_cancel(Arc::clone(&self.cancel))
            .merge(budget);
        // sofya: allow(determinism) — elapsed time reported in DeadlineExceeded errors
        let start = Instant::now();
        self.inner
            .execute_with_budget(req, &budget)
            .map_err(|e| map_budget_error(e, start.elapsed()))
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

    #[test]
    fn unlimited_config_passes_through() {
        let ep = DeadlineEndpoint::new(base(5), BudgetConfig::default());
        assert_eq!(ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 5);
    }

    #[test]
    fn scan_cap_surfaces_as_budget_exceeded() {
        let ep = DeadlineEndpoint::new(
            base(100),
            BudgetConfig {
                max_rows_scanned: Some(10),
                ..BudgetConfig::default()
            },
        );
        // A cross join over 100 triples blows a 10-row scan cap.
        let err = ep
            .select("SELECT ?a ?c { ?a ?p ?b . ?c ?q ?d }")
            .unwrap_err();
        assert!(
            matches!(err, EndpointError::BudgetExceeded { .. }),
            "got {err:?}"
        );
        // Small queries still fit.
        assert!(ep.ask("ASK { <e:0> <r:p> <e:o0> }").unwrap());
    }

    #[test]
    fn cancel_token_aborts_and_reports_deadline_exceeded() {
        let ep = DeadlineEndpoint::new(base(5), BudgetConfig::default());
        ep.cancel_token().cancel();
        let err = ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap_err();
        assert!(
            matches!(err, EndpointError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn reset_cancel_re_admits_work() {
        let mut ep = DeadlineEndpoint::new(base(5), BudgetConfig::default());
        ep.cancel_token().cancel();
        assert!(ep.select("SELECT ?s { ?s <r:p> ?o }").is_err());
        ep.reset_cancel();
        assert_eq!(ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 5);
    }

    #[test]
    fn expired_deadline_fails_before_executing() {
        let ep = DeadlineEndpoint::new(base(5), BudgetConfig::with_time_limit(Duration::ZERO));
        let err = ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap_err();
        assert!(matches!(err, EndpointError::DeadlineExceeded { .. }));
    }

    #[test]
    fn caller_budget_merges_with_config() {
        let ep = DeadlineEndpoint::new(
            base(100),
            BudgetConfig {
                max_rows_scanned: Some(1_000_000),
                ..BudgetConfig::default()
            },
        );
        // The caller's tighter scan cap wins over the roomy config.
        let caller = QueryBudget::unlimited().with_max_rows_scanned(5);
        let err = ep
            .execute_with_budget(
                Request::Select {
                    query: "SELECT ?s { ?s <r:p> ?o }",
                },
                &caller,
            )
            .unwrap_err();
        assert!(matches!(err, EndpointError::BudgetExceeded { .. }));
    }

    #[test]
    fn composes_under_retry_without_retrying_deadline_errors() {
        use crate::retry::RetryEndpoint;
        let inner = DeadlineEndpoint::new(base(5), BudgetConfig::default());
        let token = inner.cancel_token();
        let ep = RetryEndpoint::new(inner, 5);
        token.cancel();
        let err = ep.select("SELECT ?s { ?s <r:p> ?o }").unwrap_err();
        assert!(matches!(err, EndpointError::DeadlineExceeded { .. }));
        assert_eq!(ep.retries_used(), 0, "deadline errors must not be retried");
    }

    #[test]
    fn map_budget_error_passes_non_budget_errors_through() {
        let e = EndpointError::Other("boom".into());
        assert_eq!(
            map_budget_error(e.clone(), Duration::ZERO),
            EndpointError::Other("boom".into())
        );
        let deadline = map_budget_error(
            EndpointError::DeadlineExceeded {
                elapsed: Duration::ZERO,
            },
            Duration::from_millis(7),
        );
        assert_eq!(
            deadline,
            EndpointError::DeadlineExceeded {
                elapsed: Duration::from_millis(7)
            }
        );
    }
}
