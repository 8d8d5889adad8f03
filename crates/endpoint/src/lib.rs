//! # sofya-endpoint
//!
//! The endpoint abstraction SOFYA runs against.
//!
//! The paper's setting is that each knowledge base is reachable **only**
//! through a SPARQL endpoint: no dump download, a bounded number of
//! queries, and expensive queries killed. This crate models that
//! contract — the query bound itself is the server's admission gate
//! (`sofya_net::HttpServer`, HTTP 429), and a kill is a [`QueryBudget`]
//! the caller passes:
//!
//! [`QueryBudget`]: sofya_sparql::QueryBudget
//!
//! * [`Endpoint`] — the trait every KB access goes through. One required
//!   method: `execute_with_budget(Request, &QueryBudget) -> Response`, a
//!   **typed request/response pipeline** (`execute` is provided: the same
//!   call under the unlimited budget). The [`Request`] enum covers every
//!   query shape in six arms (string `SELECT`/`ASK`, prepared
//!   `SELECT`/`ASK`, paged-prepared, and `Batch`; a count is a
//!   `SELECT (COUNT(*) AS ?n)`, not a shape of its own); wrappers
//!   intercept all of them with that single method, so neither a query
//!   shape nor a caller's budget can bypass a middleware layer. A query
//!   killed by its budget fails as one class from every backend and
//!   under every stack: [`EndpointError::DeadlineExceeded`] for time or
//!   cancellation, [`EndpointError::BudgetExceeded`] for a cap.
//!   Algorithms call the ergonomic [`EndpointExt`] methods, which build
//!   the request and destructure the [`Response`].
//! * [`SnapshotStore`] / [`ConcurrentEndpoint`] / [`LocalEndpoint`] — the
//!   one in-process backend, evaluated by `sofya-sparql`; plays the role
//!   of the remote server in this reproduction. The writer keeps loading
//!   and periodically publishes an immutable [`PublishedSnapshot`]; a
//!   `ConcurrentEndpoint` answers each request lock-free from the snapshot
//!   current when it starts, a `LocalEndpoint` from one snapshot for good
//!   (a store it published itself, or [`ConcurrentEndpoint::pinned`]).
//!   Both run the same execution core through one sharded,
//!   snapshot-versioned LRU plan cache. [`DurableStore`] is the
//!   `SnapshotStore` that commits to a write-ahead log before it
//!   publishes.
//! * [`InstrumentedEndpoint`] — counts requests, leaf queries and
//!   transferred rows, so experiments can report the paper's "works with
//!   few queries" claim quantitatively (the cost columns of
//!   `sofya-eval frontier`); [`LatencyModel::cost`] prices those counts in
//!   simulated network time.
//! * [`BudgetConfig`] — the per-request limits a server is configured
//!   with, from which it builds each request's budget.
//! * [`helpers`] — the typed query builders for every query shape the
//!   SOFYA algorithms issue (facts of a relation, relations of an entity,
//!   `sameAs` resolution, existence probes, counts).
//!
//! `InstrumentedEndpoint` is the one wrapper: `sofya-eval` and the
//! benchmark run `Instrumented(Local)`, a federated client
//! `Instrumented(Remote)`. Waiting out a busy server is not a wrapper:
//! the one client on the wire, `sofya_net::RemoteEndpoint`, honours the
//! server's `Retry-After` itself, within the caller's deadline.

#![forbid(unsafe_code)]

pub mod clock;
pub mod concurrent;
pub mod deadline;
pub mod delta;
pub mod durable;
pub mod endpoint;
pub mod error;
pub mod helpers;
pub mod instrument;
pub mod local;
pub(crate) mod plan_cache;

pub use clock::{Clock, ManualClock, WallClock};
pub use concurrent::{ConcurrentEndpoint, PublishedSnapshot, SnapshotStore};
pub use deadline::BudgetConfig;
pub use delta::{CatchUp, DeltaLinks, DeltaLog, FreshnessGauge, Links, PublishDelta};
pub use durable::{DurabilityGauge, DurableStore};
pub use endpoint::{Endpoint, EndpointExt, Request, Response};
pub use error::EndpointError;
pub use instrument::{EndpointCounters, InstrumentedEndpoint, LatencyModel};
pub use local::LocalEndpoint;
