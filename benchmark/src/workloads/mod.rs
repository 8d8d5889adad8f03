//! The four workloads. Each sets itself up, drives real `HttpServer`s on
//! loopback for the run's window, checks every answer, and hands back
//! raw samples; `main` turns those into the named metrics.

use crate::fixture::RunConfig;
use crate::openloop::OpenLoopStats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub mod bgp_mix;
pub mod federated_align;
pub mod ingest_durable;
pub mod stream_refresh;

pub const NAMES: [&str; 4] = [
    "federated_align",
    "bgp_mix",
    "ingest_durable",
    "stream_refresh",
];

#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up (generation, preload, boot, warm-up).
    pub setup_s: Vec<f64>,
    /// When each set-up began.
    pub setup_began: Vec<Instant>,
    /// When the closed-loop window opened: the origin of `op_done_s`.
    pub closed_origin: Option<Instant>,
    /// Length of the closed-loop window, seconds.
    pub timed_s: f64,
    /// When each closed-loop operation completed, seconds since the
    /// window opened; a traced run's clock stops while it replays.
    pub op_done_s: Vec<f64>,
    /// Latency of every closed-loop operation, microseconds. A failed
    /// operation is charged the whole window.
    pub op_us: Vec<f64>,
    /// Operations per block of [`crate::stats::Blocks`]: a length over
    /// which the workload's operations repeat.
    pub op_block: usize,
    /// The workload's open-loop traffic.
    pub open: OpenLoopStats,
    /// Open-loop requests per block: a second or two of them.
    pub open_block: usize,
    /// `VmHWM` when the window closed, before the answers are checked:
    /// the check's reference copies are the harness's memory, not the
    /// workload's.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics by name; names a workload does not exercise
    /// stay absent and are reported as zero.
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

pub fn run(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Option<Outcome> {
    Some(match cfg.workload.as_str() {
        "federated_align" => federated_align::run(cfg, tracer),
        "bgp_mix" => bgp_mix::run(cfg, tracer),
        "ingest_durable" => ingest_durable::run(cfg, tracer),
        "stream_refresh" => stream_refresh::run(cfg, tracer),
        _ => return None,
    })
}
