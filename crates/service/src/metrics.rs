//! Lock-free service metrics: counters, a log-bucketed latency histogram
//! (p50/p99) and queue depth.
//!
//! Every value is an atomic updated with relaxed ordering — metrics are
//! observability, not synchronisation — so recording from N threads never
//! contends. Reading produces a consistent-enough [`MetricsReport`]
//! (individual values may be a few events apart, which is fine for a
//! dashboard line).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` holds latencies whose
/// nanosecond value has `i` significant bits, i.e. `[2^(i-1), 2^i)`.
const BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram. Quantiles are approximate (within
/// a factor of 2, the bucket width), which is the usual contract for
/// service-side p99 gauges.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        if let Some(cell) = self.buckets.get(bucket) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The approximate `q`-quantile in nanoseconds: the upper bound of
    /// the first bucket whose cumulative count reaches `q · total`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// Shared registry of everything the service reports. Every thread that
/// waits for a job records into it; snapshot with
/// [`ServiceMetrics::report`].
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests admitted by the gate.
    submitted: AtomicU64,
    /// Requests whose handler ran to completion.
    completed: AtomicU64,
    /// Requests rejected because `queue_capacity` jobs were already
    /// waiting to start (backpressure).
    rejected_full: AtomicU64,
    /// Requests rejected because the client's quota was exhausted.
    rejected_quota: AtomicU64,
    /// Requests whose handler panicked (contained to the job).
    panicked: AtomicU64,
    /// Jobs admitted and not yet started right now.
    queue_depth: AtomicU64,
    /// End-to-end latency (submit → handler done), including queue wait.
    latency: LatencyHistogram,
    /// Queue-wait component of the latency (submit → handler start).
    queue_wait: LatencyHistogram,
    /// Queries killed because their execution deadline passed.
    queries_timed_out: AtomicU64,
    /// Queries aborted by an external cancel (drain, client disconnect).
    queries_cancelled: AtomicU64,
    /// Admitted jobs dropped unexecuted because their deadline had
    /// already passed when their turn came (no slot wasted on them).
    queries_shed: AtomicU64,
}

impl ServiceMetrics {
    pub(crate) fn on_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_dequeued(&self, waited: Duration) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record(waited);
    }

    pub(crate) fn on_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    pub(crate) fn on_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_quota(&self) {
        self.rejected_quota.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query killed by its deadline.
    pub fn on_query_timed_out(&self) {
        self.queries_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query aborted by an external cancel.
    pub fn on_query_cancelled(&self) {
        self.queries_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one admitted job shed unexecuted (deadline already passed).
    pub fn on_query_shed(&self) {
        self.queries_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every metric.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            latency_mean_ns: self.latency.mean_ns(),
            latency_p50_ns: self.latency.quantile_ns(0.50),
            latency_p99_ns: self.latency.quantile_ns(0.99),
            queue_wait_p99_ns: self.queue_wait.quantile_ns(0.99),
            queries_timed_out: self.queries_timed_out.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time metrics snapshot (plain data, cheap to copy around).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsReport {
    /// Requests admitted by the gate.
    pub submitted: u64,
    /// Requests whose handler ran to completion.
    pub completed: u64,
    /// Rejections due to a full queue.
    pub rejected_full: u64,
    /// Rejections due to an exhausted client quota.
    pub rejected_quota: u64,
    /// Contained handler panics.
    pub panicked: u64,
    /// Queue depth at report time.
    pub queue_depth: u64,
    /// Mean end-to-end latency (ns).
    pub latency_mean_ns: u64,
    /// Approximate median end-to-end latency (ns).
    pub latency_p50_ns: u64,
    /// Approximate 99th-percentile end-to-end latency (ns).
    pub latency_p99_ns: u64,
    /// Approximate 99th-percentile queue wait (ns).
    pub queue_wait_p99_ns: u64,
    /// Queries killed by their execution deadline.
    pub queries_timed_out: u64,
    /// Queries aborted by an external cancel (drain, disconnect).
    pub queries_cancelled: u64,
    /// Admitted jobs shed unexecuted because their deadline had passed.
    pub queries_shed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5);
        // The median observation is 30µs; the log₂ bucket bound is within 2x.
        assert!((15_000..=65_000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 1_000_000 / 2, "p99 {p99} must reflect the 1ms tail");
        assert!(h.mean_ns() > 0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn counters_flow_into_report() {
        let m = ServiceMetrics::default();
        m.on_submitted();
        m.on_submitted();
        m.on_dequeued(Duration::from_micros(5));
        m.on_completed(Duration::from_micros(50));
        m.on_rejected_full();
        m.on_rejected_quota();
        m.on_panicked();
        m.on_query_timed_out();
        m.on_query_cancelled();
        m.on_query_shed();
        let r = m.report();
        assert_eq!(r.queries_timed_out, 1);
        assert_eq!(r.queries_cancelled, 1);
        assert_eq!(r.queries_shed, 1);
        assert_eq!(r.submitted, 2);
        assert_eq!(r.completed, 1);
        assert_eq!(r.rejected_full, 1);
        assert_eq!(r.rejected_quota, 1);
        assert_eq!(r.panicked, 1);
        assert_eq!(r.queue_depth, 1);
        assert!(r.latency_p50_ns > 0);
    }
}
