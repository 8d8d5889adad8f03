//! # sofya-service
//!
//! The job scheduler: a worker pool behind a bounded queue, and nothing
//! else. The crate knows no RDF, no SPARQL and no endpoint — it is
//! generic over the job and result types, and its callers decide what a
//! job is:
//!
//! * `sofya_net::HttpServer` runs every `POST /query` and `POST /ingest`
//!   through [`scheduler::serve`] (per-client quotas → `429`, full queue
//!   → `503` + `Retry-After`, expired deadline → `504`);
//! * `sofya_eval` fans relations and seeds out through
//!   [`scheduler::run_batch`].
//!
//! Three modules:
//!
//! * [`queue::BoundedQueue`] — bounded multi-producer/multi-consumer
//!   queue whose full-queue rejections are the backpressure signal;
//! * [`scheduler`] — N scoped worker threads over the queue, per-client
//!   request quotas, reject-with-retry-after on overload, deadline
//!   shedding at dequeue, and panic containment (a dying job never takes
//!   the pool down);
//! * [`metrics::ServiceMetrics`] — counters, approximate p50/p99 latency
//!   and queue depth, plus the gauges the HTTP tier's write path records
//!   (durable epoch, WAL fsync, alignment freshness) — all relaxed
//!   atomics, shared freely with the workers.
//!
//! ```text
//! clients ──▶ BoundedQueue ──▶ worker pool ──▶ handler(job)
//!   (quotas, retry-after)     (shedding, panic containment, metrics)
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod queue;
pub mod scheduler;

pub use metrics::{LatencyHistogram, MetricsReport, ServiceMetrics};
pub use queue::{BoundedQueue, PushError};
pub use scheduler::{
    run_batch, serve, JobOutcome, JobTicket, RejectedJob, SchedulerConfig, SchedulerHandle,
    ServiceError, SubmitError,
};
