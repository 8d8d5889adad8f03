//! Test scaffolding: the owning request form the proptest suites
//! generate.
//!
//! Not re-exported at the crate root — nothing here belongs in a
//! production stack.

use crate::endpoint::Request;
use sofya_rdf::Term;
use sofya_sparql::Prepared;
use std::sync::Arc;

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
