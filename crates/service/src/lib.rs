//! # sofya-service
//!
//! The admission gate in front of a request handler, and nothing else.
//! The crate knows no RDF, no SPARQL and no endpoint — it is generic
//! over the job and result types — and it owns no threads: a job runs on
//! the thread that waits for it. `sofya_net::HttpServer` passes every
//! `POST /query` and `POST /ingest` through [`scheduler::serve`] on the
//! connection thread that read the request.
//!
//! Two modules:
//!
//! * [`scheduler`] — one mutex-guarded gate behind one condvar:
//!   per-client quotas, a bounded backlog, a cap on handlers running at
//!   once, arrival order among waiters, deadline shedding and panic
//!   containment;
//! * [`metrics::ServiceMetrics`] — counters, approximate p50/p99 latency
//!   and queue wait, and queue depth — all relaxed atomics, recorded
//!   from whichever thread runs the job.
//!
//! ```text
//!          submit                       wait
//! thread ──▶ quota? capacity? ──ticket──▶ first in line, slot free? ──▶ handler(job)
//!            (no: 429 / 503,             (blocks; 504 if the deadline    on this thread
//!             job handed back)            has passed by then)            (panic: 500)
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod scheduler;

pub use metrics::{LatencyHistogram, MetricsReport, ServiceMetrics};
pub use scheduler::{
    serve, JobOutcome, JobTicket, RejectedJob, SchedulerConfig, SchedulerHandle, ServiceError,
    SubmitError,
};
