//! The alignment service: session-cached relation alignment behind the
//! scheduler.
//!
//! One [`AlignmentService`] wraps a shared [`AlignmentSession`] (the
//! paper's query-time contract: first request for a relation pays the
//! sampling cost, later ones reuse the mined rules) and pushes every
//! request through the bounded-queue scheduler, so a burst of clients
//! gets worker-pool parallelism, per-client quotas, and backpressure
//! instead of unbounded thread spawn.
//!
//! When reading from a live [`sofya_endpoint::SnapshotStore`], hand the
//! service **pinned** views ([`sofya_endpoint::ConcurrentEndpoint::pinned`],
//! each a [`sofya_endpoint::LocalEndpoint`]), not the per-query-fresh one: an
//! alignment issues *dependent* query sequences (count → offset → page), and
//! pinning keeps each on one snapshot even while the writer keeps publishing.

use crate::metrics::MetricsReport;
use crate::scheduler::{serve, JobOutcome, SchedulerConfig, ServiceError, SubmitError};
use sofya_core::{AlignError, AlignerConfig, AlignmentSession, SubsumptionRule};
use sofya_endpoint::Endpoint;
use std::time::{Duration, Instant};

/// One client request: align `relation` on behalf of `client` (the quota
/// / accounting key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentRequest {
    /// Quota and accounting key.
    pub client: String,
    /// Target relation IRI to align.
    pub relation: String,
}

impl AlignmentRequest {
    /// Convenience constructor.
    pub fn new(client: impl Into<String>, relation: impl Into<String>) -> Self {
        Self {
            client: client.into(),
            relation: relation.into(),
        }
    }
}

/// Why one request produced no rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceFailure {
    /// The aligner itself failed.
    Align(AlignError),
    /// The scheduler rejected the request (quota; or queue-full if the
    /// caller opted out of the backpressure retry loop).
    Rejected(SubmitError),
    /// The handler panicked; the panic was contained to this request.
    Panicked(String),
}

impl std::fmt::Display for ServiceFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceFailure::Align(e) => write!(f, "alignment failed: {e}"),
            ServiceFailure::Rejected(e) => write!(f, "request rejected: {e}"),
            ServiceFailure::Panicked(msg) => write!(f, "alignment worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceFailure {}

/// The outcome of one scheduled batch.
#[derive(Debug)]
pub struct AlignmentBatchOutcome {
    /// Per-request results, in submission order.
    pub responses: Vec<Result<Vec<SubsumptionRule>, ServiceFailure>>,
    /// Service metrics accumulated over the batch.
    pub metrics: MetricsReport,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

impl AlignmentBatchOutcome {
    /// Completed requests per second for this batch.
    pub fn requests_per_sec(&self) -> f64 {
        self.metrics.throughput_per_sec(self.elapsed)
    }
}

/// A multi-threaded alignment service over two endpoints.
///
/// The session cache is owned by the service, so a relation aligned in
/// one batch is free in the next — construct a fresh service to reset it.
pub struct AlignmentService<'a> {
    session: AlignmentSession<'a>,
    scheduler: SchedulerConfig,
    /// Optional probe reporting how stale the read snapshot is (wired to
    /// [`sofya_endpoint::ConcurrentEndpoint::snapshot_age`] when the
    /// service reads from published snapshots).
    age_probe: Option<Box<dyn Fn() -> Duration + Sync + 'a>>,
}

impl<'a> AlignmentService<'a> {
    /// Creates a service aligning `target`'s relations against `source`,
    /// with default scheduler knobs.
    pub fn new(source: &'a dyn Endpoint, target: &'a dyn Endpoint, config: AlignerConfig) -> Self {
        Self {
            session: AlignmentSession::new(source, target, config),
            scheduler: SchedulerConfig::default(),
            age_probe: None,
        }
    }

    /// Overrides the scheduler configuration.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Installs a snapshot-age probe, sampled once per completed request
    /// into the metrics' staleness gauge.
    pub fn with_snapshot_age_probe(mut self, probe: impl Fn() -> Duration + Sync + 'a) -> Self {
        self.age_probe = Some(Box::new(probe));
        self
    }

    /// The scheduler configuration in effect.
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.scheduler
    }

    /// The underlying session (to inspect or invalidate cached rules).
    pub fn session(&self) -> &AlignmentSession<'a> {
        &self.session
    }

    /// Schedules `requests` across the worker pool and waits for all of
    /// them. Queue-full backpressure is absorbed with the retry-after
    /// loop (the batch caller has nowhere better to shed load to); quota
    /// rejections surface per request.
    pub fn run_batch(
        &self,
        requests: &[AlignmentRequest],
    ) -> Result<AlignmentBatchOutcome, ServiceError> {
        // sofya: allow(determinism) — batch wall-time is a reported metric, never alignment state
        let started = Instant::now();
        let (responses, metrics) = serve(
            &self.scheduler,
            |relation: String| {
                let rules = self.session.rules_for(&relation);
                // The handler has no metrics access, so the sampled
                // snapshot age rides back on the return value and the
                // driver records it (last write wins — it's a gauge).
                let age = self.age_probe.as_ref().map(|probe| probe());
                (rules, age)
            },
            |handle| {
                let tickets: Vec<_> = requests
                    .iter()
                    .map(|req| handle.submit_with_backpressure(&req.client, req.relation.clone()))
                    .collect();
                let responses: Vec<Result<Vec<SubsumptionRule>, ServiceFailure>> = tickets
                    .into_iter()
                    .map(|ticket| match ticket {
                        Ok(ticket) => match ticket.wait() {
                            JobOutcome::Completed((rules, age)) => {
                                if let Some(age) = age {
                                    handle.metrics().record_snapshot_age(age);
                                }
                                rules.map_err(ServiceFailure::Align)
                            }
                            JobOutcome::Panicked(msg) => Err(ServiceFailure::Panicked(msg)),
                            JobOutcome::Shed => {
                                // sofya: allow(panic_path) — alignment requests carry no deadline, Shed cannot occur
                                unreachable!("alignment requests are submitted without a deadline")
                            }
                        },
                        Err(error) => Err(ServiceFailure::Rejected(error)),
                    })
                    .collect();
                let metrics = handle.metrics().report();
                (responses, metrics)
            },
        )?;
        Ok(AlignmentBatchOutcome {
            responses,
            metrics,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::{LocalEndpoint, SnapshotStore};
    use sofya_rdf::{Term, TripleStore};

    const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

    fn stores() -> (TripleStore, TripleStore) {
        let mut yago = TripleStore::new();
        let mut dbp = TripleStore::new();
        for i in 0..8 {
            let (py, pd) = (format!("y:p{i}"), format!("d:P{i}"));
            let (cy, cd) = (format!("y:c{i}"), format!("d:C{i}"));
            yago.insert_terms(&Term::iri(&py), &Term::iri("y:born"), &Term::iri(&cy));
            yago.insert_terms(&Term::iri(&py), &Term::iri("y:lives"), &Term::iri(&cy));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri("d:birthPlace"), &Term::iri(&cd));
            yago.insert_terms(&Term::iri(&py), &Term::iri(SA), &Term::iri(&pd));
            yago.insert_terms(&Term::iri(&cy), &Term::iri(SA), &Term::iri(&cd));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri(SA), &Term::iri(&py));
            dbp.insert_terms(&Term::iri(&cd), &Term::iri(SA), &Term::iri(&cy));
        }
        (dbp, yago)
    }

    #[test]
    fn batch_aligns_and_caches_across_requests() {
        let (dbp, yago) = stores();
        let source = LocalEndpoint::new("dbp", dbp);
        let target = LocalEndpoint::new("yago", yago);
        let service = AlignmentService::new(&source, &target, AlignerConfig::paper_defaults(1))
            .with_scheduler(SchedulerConfig::for_batch(2, 8));
        let requests = vec![
            AlignmentRequest::new("alice", "y:born"),
            AlignmentRequest::new("bob", "y:lives"),
            AlignmentRequest::new("alice", "y:born"), // session cache hit
        ];
        let out = service.run_batch(&requests).unwrap();
        assert_eq!(out.responses.len(), 3);
        let born = out.responses[0].as_ref().unwrap();
        assert!(born.iter().any(|r| r.premise == "d:birthPlace"));
        assert_eq!(out.responses[2].as_ref().unwrap(), born);
        assert_eq!(out.metrics.completed, 3);
        assert!(out.requests_per_sec() > 0.0);
        assert_eq!(service.session().cached_relations().len(), 2);
    }

    #[test]
    fn per_client_quota_rejects_but_batch_continues() {
        let (dbp, yago) = stores();
        let source = LocalEndpoint::new("dbp", dbp);
        let target = LocalEndpoint::new("yago", yago);
        let service = AlignmentService::new(&source, &target, AlignerConfig::paper_defaults(1))
            .with_scheduler(SchedulerConfig {
                workers: 2,
                queue_capacity: 8,
                client_quotas: vec![("greedy".into(), 1)],
                ..SchedulerConfig::default()
            });
        let requests = vec![
            AlignmentRequest::new("greedy", "y:born"),
            AlignmentRequest::new("greedy", "y:lives"), // over quota
            AlignmentRequest::new("modest", "y:lives"),
        ];
        let out = service.run_batch(&requests).unwrap();
        assert!(out.responses[0].is_ok());
        assert!(matches!(
            out.responses[1],
            Err(ServiceFailure::Rejected(SubmitError::QuotaExhausted { .. }))
        ));
        assert!(out.responses[2].is_ok());
        assert_eq!(out.metrics.rejected_quota, 1);
    }

    #[test]
    fn snapshot_age_probe_feeds_the_staleness_gauge() {
        let (dbp, yago) = stores();
        let source_writer = SnapshotStore::new(dbp);
        let target_writer = SnapshotStore::new(yago);
        let source = source_writer.reader("dbp");
        let target = target_writer.reader("yago");
        let service = AlignmentService::new(&source, &target, AlignerConfig::paper_defaults(1))
            .with_scheduler(SchedulerConfig::for_batch(2, 4))
            .with_snapshot_age_probe(|| source.snapshot_age());
        let out = service
            .run_batch(&[AlignmentRequest::new("c", "y:born")])
            .unwrap();
        assert!(out.responses[0].is_ok());
        assert!(out.metrics.snapshot_age_ns > 0);
    }

    #[test]
    fn zero_worker_service_is_an_error() {
        let (dbp, yago) = stores();
        let source = LocalEndpoint::new("dbp", dbp);
        let target = LocalEndpoint::new("yago", yago);
        let service = AlignmentService::new(&source, &target, AlignerConfig::paper_defaults(1))
            .with_scheduler(SchedulerConfig {
                workers: 0,
                ..SchedulerConfig::default()
            });
        assert_eq!(service.run_batch(&[]).unwrap_err(), ServiceError::NoWorkers);
    }
}
