//! Test scaffolding: endpoints that misbehave on purpose.
//!
//! Not re-exported at the crate root — nothing here belongs in a
//! production stack.

use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use sofya_sparql::QueryBudget;
use std::sync::atomic::{AtomicU64, Ordering};

/// Injects a deterministic transient failure every `period`-th query.
pub struct FlakyEndpoint<E> {
    inner: E,
    period: u64,
    counter: AtomicU64,
}

impl<E: Endpoint> FlakyEndpoint<E> {
    /// Wraps `inner`; every `period`-th query (1-based) fails with a
    /// transient error. `period == 0` never fails.
    pub fn new(inner: E, period: u64) -> Self {
        Self {
            inner,
            period,
            counter: AtomicU64::new(0),
        }
    }

    fn maybe_fail(&self) -> Result<(), EndpointError> {
        if self.period == 0 {
            return Ok(());
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        if n % self.period == 0 {
            Err(EndpointError::Other(format!(
                "simulated transient failure (query #{n})"
            )))
        } else {
            Ok(())
        }
    }

    /// Queries attempted so far (including failed ones).
    pub fn attempts(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

impl<E: Endpoint> Endpoint for FlakyEndpoint<E> {
    /// One failure opportunity per request — a whole batch is one
    /// transport exchange, so it fails (and is retried) as a unit.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.maybe_fail()?;
        self.inner.execute_with_budget(req, budget)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
