//! The session scheduler: N worker threads over a bounded work queue,
//! with per-client quotas, reject-with-retry-after backpressure, and
//! panic containment.
//!
//! The scheduler is generic over the job type: the HTTP tier schedules
//! wire requests through [`serve`], and the evaluation harness drives its
//! relation- and seed-level fan-out through [`run_batch`].
//!
//! Shape: [`serve`] owns the queue and the worker pool inside a
//! `std::thread::scope`, and hands the caller a [`SchedulerHandle`] in a
//! driver closure. The driver submits jobs (getting a [`JobTicket`] per
//! accepted job) and waits for results; when it returns, the queue is
//! closed, the workers drain what is left and exit, and `serve` returns
//! the driver's value. Nothing leaks: a panicking driver still closes the
//! queue (so the scope can join), and a panicking *handler* is contained
//! to its job — the worker reports [`JobOutcome::Panicked`] and moves on.

use crate::metrics::ServiceMetrics;
use crate::queue::{BoundedQueue, PushError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads. Zero is a configuration error ([`ServiceError::NoWorkers`]).
    pub workers: usize,
    /// Bound on queued (not yet running) jobs; submissions beyond it are
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-client request budget for clients without an explicit entry in
    /// `client_quotas`; `None` = unlimited.
    pub default_client_quota: Option<u64>,
    /// Explicit per-client request budgets.
    pub client_quotas: Vec<(String, u64)>,
    /// The retry hint returned with [`SubmitError::QueueFull`].
    pub retry_after: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            default_client_quota: None,
            client_quotas: Vec::new(),
            retry_after: Duration::from_millis(1),
        }
    }
}

impl SchedulerConfig {
    /// A config sized for an in-process batch: `workers` threads and a
    /// queue large enough that the batch never trips backpressure.
    pub fn for_batch(workers: usize, batch_len: usize) -> Self {
        Self {
            workers,
            queue_capacity: batch_len.max(1),
            ..Self::default()
        }
    }
}

/// Service-level configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// `workers == 0`: the pool could never make progress.
    NoWorkers,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NoWorkers => write!(f, "scheduler configured with zero workers"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the queue is full. Retry after the hinted delay.
    QueueFull {
        /// Suggested client-side wait before retrying.
        retry_after: Duration,
    },
    /// The client spent its whole request budget.
    QuotaExhausted {
        /// The over-budget client.
        client: String,
    },
    /// The scheduler is shutting down (driver already returned).
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after } => {
                write!(f, "queue full; retry after {retry_after:?}")
            }
            SubmitError::QuotaExhausted { client } => {
                write!(f, "quota exhausted for client {client:?}")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A rejected submission: the error plus the job handed back, so callers
/// can retry without cloning.
#[derive(Debug)]
pub struct RejectedJob<J> {
    /// The job that was not accepted.
    pub job: J,
    /// Why it was rejected.
    pub error: SubmitError,
}

/// What happened to one accepted job.
#[derive(Debug)]
pub enum JobOutcome<R> {
    /// The handler ran to completion.
    Completed(R),
    /// The handler panicked (contained; the worker kept serving). The
    /// payload is the panic message.
    Panicked(String),
    /// The job was dropped unexecuted: its deadline had already passed
    /// when a worker dequeued it, so running it would only waste worker
    /// time on an answer nobody is waiting for.
    Shed,
}

/// A claim on one accepted job's eventual outcome.
#[derive(Debug)]
pub struct JobTicket<R> {
    rx: mpsc::Receiver<JobOutcome<R>>,
}

impl<R> JobTicket<R> {
    /// Blocks until the job finishes. Workers always report an outcome
    /// for every accepted job (even a panicking one), so this only falls
    /// back to a synthetic panic report if a worker was killed externally.
    pub fn wait(self) -> JobOutcome<R> {
        self.rx
            .recv()
            .unwrap_or_else(|_| JobOutcome::Panicked("worker dropped the reply channel".into()))
    }
}

struct Envelope<J, R> {
    job: J,
    reply: mpsc::Sender<JobOutcome<R>>,
    submitted_at: Instant,
    /// Absolute deadline; a worker dequeuing the envelope after this
    /// instant sheds it instead of running the handler.
    deadline: Option<Instant>,
}

/// The driver's interface to a running scheduler.
pub struct SchedulerHandle<'s, J, R> {
    queue: &'s BoundedQueue<Envelope<J, R>>,
    metrics: &'s ServiceMetrics,
    quotas: &'s Mutex<HashMap<String, u64>>,
    config: &'s SchedulerConfig,
}

impl<J, R> SchedulerHandle<'_, J, R> {
    /// Submits a job for `client`. Rejects immediately (without
    /// blocking) when the client's quota is spent or the queue is full —
    /// the caller decides whether to retry, shed, or surface the error,
    /// and gets the job back to do so.
    pub fn submit(&self, client: &str, job: J) -> Result<JobTicket<R>, RejectedJob<J>> {
        self.submit_with_deadline(client, job, None)
    }

    /// [`SchedulerHandle::submit`] with an absolute deadline attached:
    /// if the job is still queued when the deadline passes, the worker
    /// that dequeues it **sheds** it (reports [`JobOutcome::Shed`],
    /// counts `queries_shed`) instead of running the handler — under
    /// overload, worker time goes to jobs whose callers are still
    /// waiting.
    pub fn submit_with_deadline(
        &self,
        client: &str,
        job: J,
        deadline: Option<Instant>,
    ) -> Result<JobTicket<R>, RejectedJob<J>> {
        if !self.try_charge(client) {
            self.metrics.on_rejected_quota();
            return Err(RejectedJob {
                job,
                error: SubmitError::QuotaExhausted {
                    client: client.to_owned(),
                },
            });
        }
        let (tx, rx) = mpsc::channel();
        let envelope = Envelope {
            job,
            reply: tx,
            // sofya: allow(determinism) — queue-wait latency gauge, never alignment state
            submitted_at: Instant::now(),
            deadline,
        };
        // Count the submission *before* the push: the moment the envelope
        // is in the queue a worker may dequeue it, and its depth decrement
        // must never observe a gauge this thread has not incremented yet.
        self.metrics.on_submitted();
        match self.queue.try_push(envelope) {
            Ok(()) => Ok(JobTicket { rx }),
            Err(PushError::Full(envelope)) => {
                self.metrics.on_submission_rejected();
                self.refund(client);
                self.metrics.on_rejected_full();
                Err(RejectedJob {
                    job: envelope.job,
                    error: SubmitError::QueueFull {
                        retry_after: self.config.retry_after,
                    },
                })
            }
            Err(PushError::Closed(envelope)) => {
                self.metrics.on_submission_rejected();
                self.refund(client);
                Err(RejectedJob {
                    job: envelope.job,
                    error: SubmitError::ShuttingDown,
                })
            }
        }
    }

    /// The live metrics registry (shared with the workers).
    pub fn metrics(&self) -> &ServiceMetrics {
        self.metrics
    }

    /// Remaining quota for `client` (`None` = unlimited).
    pub fn remaining_quota(&self, client: &str) -> Option<u64> {
        let map = self.quotas.lock();
        map.get(client)
            .copied()
            .or(self.config.default_client_quota)
    }

    fn try_charge(&self, client: &str) -> bool {
        let mut map = self.quotas.lock();
        if !map.contains_key(client) {
            match self.config.default_client_quota {
                Some(quota) => {
                    map.insert(client.to_owned(), quota);
                }
                None => return true, // unlimited
            }
        }
        let Some(remaining) = map.get_mut(client) else {
            // Unreachable in practice (the entry was ensured above), but
            // a missing entry must not panic the submission path; treat
            // it as unlimited rather than killing the request.
            return true;
        };
        if *remaining == 0 {
            false
        } else {
            *remaining -= 1;
            true
        }
    }

    fn refund(&self, client: &str) {
        if let Some(remaining) = self.quotas.lock().get_mut(client) {
            *remaining += 1;
        }
    }
}

/// Closes the queue when dropped, so workers always see shutdown even if
/// the driver panics (otherwise the scope would join forever).
struct CloseOnDrop<'q, T>(&'q BoundedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs a scheduler: spawns `config.workers` threads executing `handler`
/// over submitted jobs, calls `driver` with the submission handle, and
/// returns the driver's value once all accepted jobs have drained.
pub fn serve<J, R, T, F, D>(
    config: &SchedulerConfig,
    handler: F,
    driver: D,
) -> Result<T, ServiceError>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
    D: FnOnce(&SchedulerHandle<'_, J, R>) -> T,
{
    if config.workers == 0 {
        return Err(ServiceError::NoWorkers);
    }
    let queue: BoundedQueue<Envelope<J, R>> = BoundedQueue::new(config.queue_capacity);
    let metrics = ServiceMetrics::default();
    let quotas: Mutex<HashMap<String, u64>> =
        Mutex::new(config.client_quotas.iter().cloned().collect());

    let out = std::thread::scope(|scope| {
        let close_guard = CloseOnDrop(&queue);
        for _ in 0..config.workers {
            scope.spawn(|| worker_loop(&queue, &metrics, &handler));
        }
        let handle = SchedulerHandle {
            queue: &queue,
            metrics: &metrics,
            quotas: &quotas,
            config,
        };
        let out = driver(&handle);
        drop(close_guard); // close now so workers drain and the scope joins
        out
    });
    Ok(out)
}

fn worker_loop<J, R, F>(queue: &BoundedQueue<Envelope<J, R>>, metrics: &ServiceMetrics, handler: &F)
where
    F: Fn(J) -> R,
{
    while let Some(envelope) = queue.pop() {
        let Envelope {
            job,
            reply,
            submitted_at,
            deadline,
        } = envelope;
        metrics.on_dequeued(submitted_at.elapsed());
        // Deadline-aware admission: work whose caller has already given
        // up is dropped here, before it can occupy the worker.
        if let Some(deadline) = deadline {
            // sofya: allow(determinism) — deadline shedding is wall-clock by contract
            if Instant::now() >= deadline {
                metrics.on_query_shed();
                let _ = reply.send(JobOutcome::Shed);
                continue;
            }
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| handler(job))) {
            Ok(result) => {
                metrics.on_completed(submitted_at.elapsed());
                let _ = reply.send(JobOutcome::Completed(result));
            }
            Err(payload) => {
                metrics.on_panicked();
                let _ = reply.send(JobOutcome::Panicked(panic_message(payload.as_ref())));
            }
        }
    }
}

/// Runs a fixed batch through a pool of `workers` threads and returns the
/// results in submission order — the common harness shape (one job per
/// relation, per seed, …). The queue is sized to the batch and quotas are
/// off, so no submission is ever rejected; a worker panic is re-raised on
/// the caller's thread, because a batch harness has no partial-result
/// story (callers that have one drive [`serve`] directly).
pub fn run_batch<J, R, F>(workers: usize, jobs: Vec<J>, handler: F) -> Result<Vec<R>, ServiceError>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let config = SchedulerConfig::for_batch(workers, jobs.len());
    serve(&config, handler, |handle| {
        let tickets: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                handle
                    .submit("batch", job)
                    // sofya: allow(panic_path) — offline batch harness; queue is sized to the batch and quotas are off
                    .unwrap_or_else(|_| unreachable!("queue sized to the batch, quotas off"))
            })
            .collect();
        tickets
            .into_iter()
            .map(|ticket| match ticket.wait() {
                JobOutcome::Completed(result) => result,
                // sofya: allow(panic_path) — the batch harness re-raises contained worker panics by documented contract
                JobOutcome::Panicked(msg) => panic!("scheduler worker panicked: {msg}"),
                // sofya: allow(panic_path) — batch jobs carry no deadline, Shed cannot occur
                JobOutcome::Shed => unreachable!("batch jobs carry no deadline"),
            })
            .collect()
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn zero_workers_is_a_config_error() {
        let config = SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        };
        let err = serve(&config, |x: u64| x, |_| ()).unwrap_err();
        assert_eq!(err, ServiceError::NoWorkers);
        assert!(err.to_string().contains("zero workers"));
    }

    #[test]
    fn jobs_complete_and_metrics_count() {
        let config = SchedulerConfig::for_batch(2, 8);
        let sum = serve(
            &config,
            |x: u64| x * 2,
            |handle| {
                let tickets: Vec<_> = (0..8)
                    .map(|i| handle.submit("c", i).expect("queue sized for batch"))
                    .collect();
                let total: u64 = tickets
                    .into_iter()
                    .map(|t| match t.wait() {
                        JobOutcome::Completed(v) => v,
                        other => panic!("unexpected outcome: {other:?}"),
                    })
                    .sum();
                assert_eq!(handle.metrics().report().completed, 8);
                assert_eq!(handle.metrics().queue_depth(), 0);
                total
            },
        )
        .unwrap();
        assert_eq!(sum, 2 * (0..8).sum::<u64>());
    }

    /// Queue-full rejection: one worker is parked on a gate, the queue
    /// holds one pending job, so a third submission must be rejected with
    /// the retry hint — and succeed after the gate opens.
    #[test]
    fn full_queue_rejects_with_retry_after() {
        let config = SchedulerConfig {
            workers: 1,
            queue_capacity: 1,
            retry_after: Duration::from_micros(100),
            ..SchedulerConfig::default()
        };
        let (gate_tx, gate_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        let gate = Mutex::new((Some(gate_rx), started_tx));
        serve(
            &config,
            |block: bool| {
                if block {
                    let (rx, started) = {
                        let mut g = gate.lock();
                        (g.0.take().unwrap(), g.1.clone())
                    };
                    started.send(()).unwrap();
                    rx.recv().unwrap();
                }
            },
            |handle| {
                let t1 = handle.submit("c", true).expect("accepted");
                started_rx.recv().unwrap(); // worker is now parked on job 1
                let t2 = handle.submit("c", false).expect("fits the queue");
                let rejected = handle.submit("c", false).expect_err("queue is full");
                assert_eq!(
                    rejected.error,
                    SubmitError::QueueFull {
                        retry_after: Duration::from_micros(100)
                    }
                );
                assert_eq!(handle.metrics().report().rejected_full, 1);
                gate_tx.send(()).unwrap(); // release the worker
                assert!(matches!(t1.wait(), JobOutcome::Completed(())));
                assert!(matches!(t2.wait(), JobOutcome::Completed(())));
                // The queue has drained, so the rejected job now fits.
                let t3 = handle
                    .submit("c", rejected.job)
                    .expect("retry succeeds once the queue drains");
                assert!(matches!(t3.wait(), JobOutcome::Completed(())));
            },
        )
        .unwrap();
    }

    /// Quota exhaustion mid-session: the third request of a 2-budget
    /// client is rejected while other clients keep going, and the
    /// rejection does not consume queue capacity.
    #[test]
    fn quota_exhausts_mid_session_per_client() {
        let config = SchedulerConfig {
            workers: 2,
            queue_capacity: 16,
            client_quotas: vec![("bounded".into(), 2)],
            ..SchedulerConfig::default()
        };
        serve(
            &config,
            |x: u64| x,
            |handle| {
                let a = handle.submit("bounded", 1).expect("1st within quota");
                let b = handle.submit("bounded", 2).expect("2nd within quota");
                let rejected = handle.submit("bounded", 3).expect_err("3rd over quota");
                assert_eq!(
                    rejected.error,
                    SubmitError::QuotaExhausted {
                        client: "bounded".into()
                    }
                );
                assert_eq!(handle.remaining_quota("bounded"), Some(0));
                // Unlimited clients are unaffected.
                let c = handle.submit("other", 4).expect("no quota for others");
                assert_eq!(handle.remaining_quota("other"), None);
                for t in [a, b, c] {
                    assert!(matches!(t.wait(), JobOutcome::Completed(_)));
                }
                assert_eq!(handle.metrics().report().rejected_quota, 1);
            },
        )
        .unwrap();
    }

    #[test]
    fn default_quota_applies_to_unknown_clients() {
        let config = SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
            default_client_quota: Some(1),
            ..SchedulerConfig::default()
        };
        serve(
            &config,
            |x: u64| x,
            |handle| {
                let t = handle.submit("anyone", 1).expect("first is free");
                assert!(matches!(
                    handle.submit("anyone", 2).unwrap_err().error,
                    SubmitError::QuotaExhausted { .. }
                ));
                assert!(matches!(t.wait(), JobOutcome::Completed(1)));
            },
        )
        .unwrap();
    }

    /// Worker panic containment: a panicking session reports
    /// `Panicked` to its submitter, the pool keeps serving later jobs,
    /// and no lock is poisoned.
    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let config = SchedulerConfig::for_batch(2, 8);
        let completed = AtomicU64::new(0);
        serve(
            &config,
            |x: u64| {
                if x == 13 {
                    panic!("boom on {x}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            },
            |handle| {
                let bad = handle.submit("c", 13).unwrap();
                match bad.wait() {
                    JobOutcome::Panicked(msg) => assert!(msg.contains("boom"), "{msg}"),
                    other => panic!("expected a contained panic, got {other:?}"),
                }
                // The pool is still fully operational afterwards.
                let tickets: Vec<_> = (0..6).map(|i| handle.submit("c", i).unwrap()).collect();
                for t in tickets {
                    assert!(matches!(t.wait(), JobOutcome::Completed(_)));
                }
                let report = handle.metrics().report();
                assert_eq!(report.panicked, 1);
                assert_eq!(report.completed, 6);
            },
        )
        .unwrap();
    }

    /// Even with every worker panicking once, the scope still joins and
    /// `serve` returns (regression guard for shutdown deadlocks).
    #[test]
    fn all_workers_panicking_still_drains_and_returns() {
        let config = SchedulerConfig::for_batch(4, 16);
        let out = serve(
            &config,
            |_: u64| panic!("every job dies"),
            |handle| {
                let tickets: Vec<_> = (0..8).map(|i| handle.submit("c", i).unwrap()).collect();
                tickets
                    .into_iter()
                    .map(JobTicket::wait)
                    .filter(|o| matches!(o, JobOutcome::Panicked(_)))
                    .count()
            },
        )
        .unwrap();
        assert_eq!(out, 8);
    }

    /// Deadline-aware admission: a job whose deadline passes while it is
    /// queued behind a slow one is shed at dequeue — the handler never
    /// runs for it — while an undeadlined job behind it completes.
    #[test]
    fn expired_queued_jobs_are_shed_not_executed() {
        let config = SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
            ..SchedulerConfig::default()
        };
        let (gate_tx, gate_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        let gate = Mutex::new((Some(gate_rx), started_tx));
        let ran = AtomicU64::new(0);
        serve(
            &config,
            |block: bool| {
                if block {
                    let (rx, started) = {
                        let mut g = gate.lock();
                        (g.0.take().unwrap(), g.1.clone())
                    };
                    started.send(()).unwrap();
                    rx.recv().unwrap();
                } else {
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            },
            |handle| {
                let t1 = handle.submit("c", true).unwrap();
                started_rx.recv().unwrap(); // worker parked on job 1
                                            // Queued behind it: one already-expired job, one without
                                            // a deadline.
                let expired = handle
                    .submit_with_deadline("c", false, Some(Instant::now()))
                    .unwrap();
                let healthy = handle.submit("c", false).unwrap();
                gate_tx.send(()).unwrap();
                assert!(matches!(expired.wait(), JobOutcome::Shed));
                assert!(matches!(healthy.wait(), JobOutcome::Completed(())));
                assert!(matches!(t1.wait(), JobOutcome::Completed(())));
                assert_eq!(ran.load(Ordering::Relaxed), 1, "shed job never ran");
                let report = handle.metrics().report();
                assert_eq!(report.queries_shed, 1);
                // A shed job still counts as dequeued, not completed.
                assert_eq!(report.completed, 2);
            },
        )
        .unwrap();
    }

    /// A future deadline that has not passed does not shed.
    #[test]
    fn unexpired_deadlines_execute_normally() {
        let config = SchedulerConfig::for_batch(1, 4);
        serve(
            &config,
            |x: u64| x + 1,
            |handle| {
                let t = handle
                    .submit_with_deadline("c", 1, Some(Instant::now() + Duration::from_secs(60)))
                    .unwrap();
                assert!(matches!(t.wait(), JobOutcome::Completed(2)));
                assert_eq!(handle.metrics().report().queries_shed, 0);
            },
        )
        .unwrap();
    }

    #[test]
    fn queue_full_refunds_quota() {
        let config = SchedulerConfig {
            workers: 1,
            queue_capacity: 1,
            client_quotas: vec![("c".into(), 3)],
            retry_after: Duration::from_micros(50),
            ..SchedulerConfig::default()
        };
        let (gate_tx, gate_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        let gate = Mutex::new((Some(gate_rx), started_tx));
        serve(
            &config,
            |block: bool| {
                if block {
                    let (rx, started) = {
                        let mut g = gate.lock();
                        (g.0.take().unwrap(), g.1.clone())
                    };
                    started.send(()).unwrap();
                    rx.recv().unwrap();
                }
            },
            |handle| {
                let t1 = handle.submit("c", true).unwrap();
                started_rx.recv().unwrap();
                let t2 = handle.submit("c", false).unwrap();
                // Quota now 1; a queue-full rejection must refund it.
                assert!(matches!(
                    handle.submit("c", false).unwrap_err().error,
                    SubmitError::QueueFull { .. }
                ));
                assert_eq!(handle.remaining_quota("c"), Some(1));
                gate_tx.send(()).unwrap();
                assert!(matches!(t1.wait(), JobOutcome::Completed(())));
                assert!(matches!(t2.wait(), JobOutcome::Completed(())));
                let t3 = handle.submit("c", false).unwrap();
                assert_eq!(handle.remaining_quota("c"), Some(0));
                assert!(matches!(t3.wait(), JobOutcome::Completed(())));
            },
        )
        .unwrap();
    }
}
