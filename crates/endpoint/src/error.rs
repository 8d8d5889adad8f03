//! Endpoint error type.

use sofya_sparql::{BudgetBreach, SparqlError};
use std::fmt;
use std::time::Duration;

/// Errors surfaced by endpoint implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointError {
    /// The query failed to parse or evaluate. Never a budget kill:
    /// `From<SparqlError>` turns those into the two classes below.
    Sparql(SparqlError),
    /// The caller exhausted its query budget: a server's admission gate
    /// answered HTTP 429 (per-client quotas, `sofya_service::scheduler`).
    QuotaExceeded {
        /// Who ran out: the client id the server keyed the quota by.
        endpoint: String,
        /// The configured maximum number of queries.
        max_queries: u64,
    },
    /// The endpoint is refusing work (busy or shutting down) or could not
    /// be reached — the HTTP 503 class. `retry_after` carries the server's
    /// `Retry-After` hint when it sent one: a busy server's admission
    /// refused the job before it ran, so the request is safe to send again
    /// after the hint.
    Unavailable {
        /// Human-readable reason.
        message: String,
        /// Server hint for when to try again.
        retry_after: Option<Duration>,
    },
    /// The query's wall-clock deadline passed (or its cancel token was
    /// tripped) before it finished — the HTTP 504 class. The deadline
    /// belongs to the caller, so sending the request again cannot help.
    DeadlineExceeded {
        /// How long the query ran before it was killed.
        elapsed: Duration,
    },
    /// A non-time budget limit (rows scanned, intermediate bindings) was
    /// breached. Deterministic for a given query and dataset.
    BudgetExceeded {
        /// Which limit was breached, in words.
        message: String,
    },
    /// Any other failure (kept as text; a remote endpoint would return
    /// HTTP-level errors here).
    Other(String),
}

impl fmt::Display for EndpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointError::Sparql(e) => write!(f, "{e}"),
            EndpointError::QuotaExceeded {
                endpoint,
                max_queries,
            } => write!(
                f,
                "endpoint '{endpoint}': query quota of {max_queries} exhausted"
            ),
            EndpointError::Unavailable {
                message,
                retry_after,
            } => {
                write!(f, "endpoint unavailable: {message}")?;
                if let Some(after) = retry_after {
                    write!(f, " (retry after {:?})", after)?;
                }
                Ok(())
            }
            EndpointError::DeadlineExceeded { elapsed } => {
                write!(f, "deadline exceeded after {:?}", elapsed)
            }
            EndpointError::BudgetExceeded { message } => {
                write!(f, "query budget exceeded: {message}")
            }
            EndpointError::Other(msg) => write!(f, "endpoint error: {msg}"),
        }
    }
}

impl std::error::Error for EndpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EndpointError::Sparql(e) => Some(e),
            _ => None,
        }
    }
}

/// Where the evaluator's error enters the endpoint layer, at every `?`.
/// A budget kill gets its class here, so every layer above — wrappers
/// in either order, the server's 504 mapping, the wire — sees
/// the one typed form. Nothing has timed the query yet: `elapsed` is
/// zero until whoever timed the request stamps it (the HTTP server, with
/// the time since it read the request).
impl From<SparqlError> for EndpointError {
    fn from(e: SparqlError) -> Self {
        match e {
            SparqlError::Budget {
                breach: BudgetBreach::Deadline | BudgetBreach::Cancelled,
            } => EndpointError::DeadlineExceeded {
                elapsed: Duration::ZERO,
            },
            SparqlError::Budget { breach } => EndpointError::BudgetExceeded {
                message: breach.to_string(),
            },
            other => EndpointError::Sparql(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let quota = EndpointError::QuotaExceeded {
            endpoint: "dbpedia".into(),
            max_queries: 100,
        };
        assert!(quota.to_string().contains("dbpedia"));
        assert!(quota.to_string().contains("100"));
        let unavailable = EndpointError::Unavailable {
            message: "draining".into(),
            retry_after: Some(Duration::from_secs(1)),
        };
        assert!(unavailable.to_string().contains("unavailable"));
        assert!(unavailable.to_string().contains("retry after"));
        let deadline = EndpointError::DeadlineExceeded {
            elapsed: Duration::from_millis(250),
        };
        assert!(deadline.to_string().contains("deadline exceeded"));
        let budget = EndpointError::BudgetExceeded {
            message: "scanned more than 10 rows".into(),
        };
        assert!(budget.to_string().contains("budget"));
        let other = EndpointError::Other("boom".into());
        assert!(other.to_string().contains("boom"));
        let sparql: EndpointError = SparqlError::parse("x").into();
        assert!(sparql.to_string().contains("syntax"));
    }

    #[test]
    fn a_budget_kill_enters_the_layer_typed() {
        for breach in [BudgetBreach::Deadline, BudgetBreach::Cancelled] {
            assert_eq!(
                EndpointError::from(SparqlError::budget(breach)),
                EndpointError::DeadlineExceeded {
                    elapsed: Duration::ZERO
                }
            );
        }
        for breach in [
            BudgetBreach::RowsScanned { limit: 10 },
            BudgetBreach::Bindings { limit: 7 },
        ] {
            assert_eq!(
                EndpointError::from(SparqlError::budget(breach)),
                EndpointError::BudgetExceeded {
                    message: breach.to_string()
                }
            );
        }
    }
}
