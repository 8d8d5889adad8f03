//! Test scaffolding: an endpoint that misbehaves on purpose, and the
//! owning request form the proptest suites generate.
//!
//! Not re-exported at the crate root — nothing here belongs in a
//! production stack.

use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use sofya_rdf::Term;
use sofya_sparql::{Prepared, QueryBudget};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// An owning [`Request`]: the same variants with owned strings,
/// `Arc`-shared templates, and owned argument vectors, so a proptest
/// strategy can generate a request tree as a value. Borrow it back with
/// [`RequestBuf::as_request`] at execution time.
#[derive(Debug, Clone)]
pub enum RequestBuf {
    /// Owned form of [`Request::Select`].
    Select {
        /// The SPARQL text.
        query: String,
    },
    /// Owned form of [`Request::Ask`].
    Ask {
        /// The SPARQL text.
        query: String,
    },
    /// Owned form of [`Request::PreparedSelect`].
    PreparedSelect {
        /// The shared template.
        prepared: Arc<Prepared>,
        /// One constant per template parameter.
        args: Vec<Term>,
    },
    /// Owned form of [`Request::PreparedAsk`].
    PreparedAsk {
        /// The shared template.
        prepared: Arc<Prepared>,
        /// One constant per template parameter.
        args: Vec<Term>,
    },
    /// Owned form of [`Request::PreparedSelectPaged`].
    PreparedSelectPaged {
        /// The shared template.
        prepared: Arc<Prepared>,
        /// One constant per template parameter.
        args: Vec<Term>,
        /// Page size.
        limit: Option<usize>,
        /// Page start.
        offset: Option<usize>,
    },
    /// Owned form of [`Request::Batch`].
    Batch(Vec<RequestBuf>),
}

impl RequestBuf {
    /// The borrowed view this buffer executes as.
    pub fn as_request(&self) -> Request<'_> {
        match self {
            RequestBuf::Select { query } => Request::Select { query },
            RequestBuf::Ask { query } => Request::Ask { query },
            RequestBuf::PreparedSelect { prepared, args } => {
                Request::PreparedSelect { prepared, args }
            }
            RequestBuf::PreparedAsk { prepared, args } => Request::PreparedAsk { prepared, args },
            RequestBuf::PreparedSelectPaged {
                prepared,
                args,
                limit,
                offset,
            } => Request::PreparedSelectPaged {
                prepared,
                args,
                limit: *limit,
                offset: *offset,
            },
            RequestBuf::Batch(reqs) => Request::Batch(reqs.iter().map(Self::as_request).collect()),
        }
    }
}
