//! # sofya-stream
//!
//! The streaming tier: alignment that stays fresh while the knowledge
//! bases keep changing, without ever re-mining from scratch.
//!
//! The paper's setting is *on-the-fly* alignment against live
//! endpoints; this crate closes the loop for KBs that are not merely
//! live but **moving**. Three pieces compose end to end:
//!
//! 1. [`StreamIngestor`] — the write path. Offered triples are
//!    micro-batched (count / time / capacity publish triggers) into a
//!    [`sofya_endpoint::SnapshotStore`], optionally under a sliding
//!    window that expires old triples on publish. Every publish yields
//!    a [`sofya_endpoint::PublishDelta`] — the diff of two snapshots, in ids,
//!    costing the pages written — retained in a ring for subscribers.
//!    [`SharedIngestor`] adapts it to the network tier's
//!    [`sofya_net::IngestSink`], so `POST /ingest` feeds the same
//!    machinery behind the scheduler's quotas and backpressure.
//! 2. [`FreshnessTracker`] — the subscription. It replays missed deltas
//!    into an [`sofya_core::AlignmentSession`], which marks dirty
//!    exactly the cached relations whose recorded evidence footprints
//!    intersect the delta (and resyncs from scratch only when the ring
//!    evicted the gap). The differential guarantee: an incrementally
//!    maintained session answers **bit-identically** to a fresh session
//!    built at the same epoch.
//! 3. [`run_refresher`] — the background loop that re-mines dirty
//!    relations eagerly, keeping re-alignment latency off the query
//!    path and the `GET /metrics` freshness gauges
//!    (`last_publish_epoch`, `dirty_relations`,
//!    `alignment_staleness_epochs`) honest.

#![forbid(unsafe_code)]

pub mod ingestor;
pub mod refresher;
pub mod tracker;

pub use ingestor::{IngestorConfig, SharedIngestor, StreamIngestor};
pub use refresher::run_refresher;
pub use tracker::{FreshnessTracker, KbSide, SyncOutcome};
