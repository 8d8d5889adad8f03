//! The admission gate: per-client quotas, reject-with-retry-after
//! backpressure, a cap on jobs running at once, deadline shedding and
//! panic containment — and no threads of its own.
//!
//! A job runs on the thread that waits for it. [`serve`] builds the gate
//! and hands the caller a [`SchedulerHandle`] in a driver closure (a
//! closure only because the benchmark of record calls it by that shape;
//! nothing is scoped). [`SchedulerHandle::submit`] admits or rejects
//! without blocking; [`JobTicket::wait`] blocks until its ticket is first
//! in the line of tickets being waited on and a slot is free, then calls
//! the handler right there. A ticket nobody waits on holds a unit of
//! `queue_capacity` but no place in the line, so waiting on tickets in
//! any order cannot deadlock.
//!
//! All of it is one mutex-guarded `Gate` behind one condvar: plain
//! `&mut self` transitions over a few counters, small enough that the
//! tests below replay every short sequence of them against a naive
//! model. The shell around it only locks, calls one, and waits; the lock
//! is never held while a handler runs.

use crate::metrics::ServiceMetrics;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Jobs running at once. Zero is an error ([`ServiceError::NoWorkers`]).
    pub workers: usize,
    /// Bound on jobs admitted and not yet started (minimum 1);
    /// submissions beyond it are rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-client request budget for clients without an explicit entry in
    /// `client_quotas`; `None` = unlimited.
    pub default_client_quota: Option<u64>,
    /// Explicit per-client request budgets; a client listed twice is
    /// held to its first entry.
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

/// Service-level configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// `workers == 0`: no job could ever start.
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
    /// Backpressure: the backlog is full. Retry after the hinted delay.
    QueueFull {
        /// Suggested client-side wait before retrying.
        retry_after: Duration,
    },
    /// The client spent its whole request budget.
    QuotaExhausted {
        /// The over-budget client.
        client: String,
        /// The budget it was held to.
        max_queries: u64,
    },
}

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
    /// The handler panicked (contained; the gate kept serving). The
    /// payload is the panic message.
    Panicked(String),
    /// The job was dropped unexecuted: its deadline had already passed
    /// when its turn came, so running it would only hold a slot for an
    /// answer nobody is waiting for.
    Shed,
}

/// The gate's whole state. Transitions neither block nor read a clock;
/// the shell ([`SchedulerHandle`], [`JobTicket`]) calls them under the
/// lock and does the waiting.
#[derive(Debug, Default)]
struct Gate {
    /// Handlers running now; never more than `workers`.
    running: usize,
    /// Jobs admitted and not yet started, waited on or not; never more
    /// than `queue_capacity`.
    admitted: usize,
    /// The line of tickets being waited on, in the order their waits
    /// began: the places from `now_serving` up to `next_place`.
    now_serving: u64,
    next_place: u64,
    /// Requests left per client that has been admitted once; a client
    /// absent here still has its whole `Gate::quota`.
    quotas: HashMap<String, u64>,
}

impl Gate {
    /// The request budget `config` gives `client`: its first entry in
    /// `client_quotas`, else `default_client_quota`. The one place the
    /// quota rule is read.
    fn quota(config: &SchedulerConfig, client: &str) -> Option<u64> {
        config
            .client_quotas
            .iter()
            .find(|(name, _)| name == client)
            .map(|(_, quota)| *quota)
            .or(config.default_client_quota)
    }

    fn remaining_quota(&self, config: &SchedulerConfig, client: &str) -> Option<u64> {
        self.quotas
            .get(client)
            .copied()
            .or_else(|| Self::quota(config, client))
    }

    /// Admits one job for `client` or says why not, quota before
    /// capacity. A rejection changes nothing: quota is spent only once
    /// both checks have passed, so there is nothing to refund.
    fn admit(&mut self, config: &SchedulerConfig, client: &str) -> Result<(), SubmitError> {
        let left = self.remaining_quota(config, client);
        if let (Some(0), Some(max_queries)) = (left, Self::quota(config, client)) {
            return Err(SubmitError::QuotaExhausted {
                client: client.to_owned(),
                max_queries,
            });
        }
        if self.admitted >= config.queue_capacity.max(1) {
            return Err(SubmitError::QueueFull {
                retry_after: config.retry_after,
            });
        }
        if let Some(left) = left {
            self.quotas.insert(client.to_owned(), left - 1);
        }
        self.admitted += 1;
        Ok(())
    }

    /// An admitted ticket starts being waited on: it takes the place at
    /// the end of the line.
    fn begin_wait(&mut self) -> u64 {
        let place = self.next_place;
        self.next_place += 1;
        place
    }

    /// Whether the ticket first in line could start.
    fn head_may_start(&self, config: &SchedulerConfig) -> bool {
        self.running < config.workers && self.now_serving < self.next_place
    }

    /// Starts the ticket at `place` if it is first in line and a slot is
    /// free: its unit of `queue_capacity` becomes a running slot.
    fn try_start(&mut self, config: &SchedulerConfig, place: u64) -> bool {
        let starts = self.head_may_start(config) && place == self.now_serving;
        if starts {
            self.now_serving += 1;
            self.admitted -= 1;
            self.running += 1;
        }
        starts
    }

    /// A started job is over (completed, panicked or shed).
    fn finish(&mut self) {
        self.running -= 1;
    }

    /// A ticket nobody waited on is dropped: its unit comes back.
    fn abandon(&mut self) {
        self.admitted -= 1;
    }
}

/// The driver's interface to a running scheduler.
pub struct SchedulerHandle<'s, J, R> {
    config: &'s SchedulerConfig,
    handler: &'s (dyn Fn(J) -> R + Sync),
    gate: Mutex<Gate>,
    /// Notified when a start or a finish lets the head of the line go.
    turn: Condvar,
    metrics: ServiceMetrics,
}

impl<J, R> SchedulerHandle<'_, J, R> {
    /// Submits a job for `client`. Rejects immediately (without
    /// blocking) when the client's quota is spent or `queue_capacity`
    /// jobs are already waiting to start — the caller decides whether to
    /// retry, shed, or surface the error, and gets the job back to do so.
    pub fn submit(&self, client: &str, job: J) -> Result<JobTicket<'_, J, R>, RejectedJob<J>> {
        self.submit_with_deadline(client, job, None)
    }

    /// [`SchedulerHandle::submit`] with an absolute deadline attached:
    /// if it has passed by the time the job's turn comes,
    /// [`JobTicket::wait`] **sheds** the job (reports
    /// [`JobOutcome::Shed`], counts `queries_shed`) instead of running
    /// the handler — under overload, running slots go to jobs whose
    /// callers are still waiting.
    pub fn submit_with_deadline(
        &self,
        client: &str,
        job: J,
        deadline: Option<Instant>,
    ) -> Result<JobTicket<'_, J, R>, RejectedJob<J>> {
        let admitted = self.lock().admit(self.config, client);
        if let Err(error) = admitted {
            match error {
                SubmitError::QueueFull { .. } => self.metrics.on_rejected_full(),
                SubmitError::QuotaExhausted { .. } => self.metrics.on_rejected_quota(),
            }
            return Err(RejectedJob { job, error });
        }
        self.metrics.on_submitted();
        Ok(JobTicket {
            handle: self,
            job: Some(job),
            // sofya: allow(determinism) — queue-wait latency gauge, never alignment state
            submitted_at: Instant::now(),
            deadline,
        })
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Remaining quota for `client` (`None` = unlimited).
    pub fn remaining_quota(&self, client: &str) -> Option<u64> {
        self.lock().remaining_quota(self.config, client)
    }

    /// No transition panics and no handler runs under the lock, so a
    /// poisoned gate is still a consistent one.
    fn lock(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases the lock and, if the head of the line may now start,
    /// wakes the line — all of it: a single wake-up might not pick the
    /// head.
    fn unlock(&self, gate: MutexGuard<'_, Gate>) {
        let wake = gate.head_may_start(self.config);
        drop(gate);
        if wake {
            self.turn.notify_all();
        }
    }
}

/// A claim on one accepted job: the job itself, and the right to run it
/// when its turn comes.
pub struct JobTicket<'s, J, R> {
    handle: &'s SchedulerHandle<'s, J, R>,
    /// Taken by [`JobTicket::wait`]; still here when a ticket is dropped
    /// unwaited.
    job: Option<J>,
    submitted_at: Instant,
    /// Absolute deadline; a job whose turn comes after it is shed.
    deadline: Option<Instant>,
}

impl<J, R> std::fmt::Debug for JobTicket<'_, J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl<J, R> Drop for JobTicket<'_, J, R> {
    /// A ticket dropped unwaited gives its unit of `queue_capacity`
    /// back. It left the backlog all the same, after waiting this long.
    fn drop(&mut self) {
        if self.job.is_some() {
            self.handle.lock().abandon();
            self.handle.metrics.on_dequeued(self.submitted_at.elapsed());
        }
    }
}

impl<J, R> JobTicket<'_, J, R> {
    /// Blocks until every ticket that began waiting earlier has started
    /// and fewer than `workers` jobs run, then runs the job **on the
    /// calling thread** and reports what happened. A handler panic is
    /// contained to its job.
    pub fn wait(mut self) -> JobOutcome<R> {
        let (handle, metrics, deadline) = (self.handle, &self.handle.metrics, self.deadline);
        let mut gate = handle.lock();
        let place = gate.begin_wait();
        let gate = handle
            .turn
            .wait_while(gate, |gate| !gate.try_start(handle.config, place))
            .unwrap_or_else(PoisonError::into_inner);
        // With two or more slots the ticket behind may start as well.
        handle.unlock(gate);
        metrics.on_dequeued(self.submitted_at.elapsed());
        // sofya: allow(determinism) — deadline shedding is wall-clock by contract
        let expired = deadline.is_some_and(|deadline| Instant::now() >= deadline);
        // The unit of capacity is a running slot now: `Drop` finds no job
        // (`wait` consumes the ticket, so until here there always is one).
        let outcome = match self.job.take() {
            Some(job) if !expired => {
                match std::panic::catch_unwind(AssertUnwindSafe(|| (handle.handler)(job))) {
                    Ok(result) => {
                        metrics.on_completed(self.submitted_at.elapsed());
                        JobOutcome::Completed(result)
                    }
                    Err(payload) => {
                        metrics.on_panicked();
                        JobOutcome::Panicked(panic_message(payload.as_ref()))
                    }
                }
            }
            // Deadline-aware admission: work whose caller has already
            // given up is dropped here, before it can occupy the slot.
            _ => {
                metrics.on_query_shed();
                JobOutcome::Shed
            }
        };
        let mut gate = handle.lock();
        gate.finish();
        handle.unlock(gate);
        outcome
    }
}

/// Runs a scheduler: builds the gate, calls `driver` with the submission
/// handle, and returns the driver's value. `handler` runs once per
/// accepted job, on whichever thread calls that job's
/// [`JobTicket::wait`] — from as many threads at once as the driver
/// waits from, up to `config.workers`.
pub fn serve<J, R, T, F, D>(
    config: &SchedulerConfig,
    handler: F,
    driver: D,
) -> Result<T, ServiceError>
where
    F: Fn(J) -> R + Sync,
    D: FnOnce(&SchedulerHandle<'_, J, R>) -> T,
{
    if config.workers == 0 {
        return Err(ServiceError::NoWorkers);
    }
    Ok(driver(&SchedulerHandle {
        config,
        handler: &handler,
        gate: Mutex::new(Gate::default()),
        turn: Condvar::new(),
        metrics: ServiceMetrics::default(),
    }))
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
    use std::sync::mpsc::{channel, Receiver, Sender};

    fn config(workers: usize, queue_capacity: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            queue_capacity,
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let err = serve(&config(0, 64), |x: u64| x, |_| ()).unwrap_err();
        assert_eq!(err, ServiceError::NoWorkers);
        assert!(err.to_string().contains("zero workers"));
    }

    #[test]
    fn jobs_complete_and_metrics_count() {
        let sum = serve(
            &config(2, 8),
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

    /// A handler whose `true` jobs say they have started and then park
    /// until released, the way a slow query holds its slot. Whoever
    /// parks one waits for it from a thread of its own, as the HTTP
    /// tier's connection threads do.
    fn parking_handler() -> (impl Fn(bool) + Sync, Receiver<()>, Sender<()>) {
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let handler = move |park: bool| {
            if park {
                started_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        };
        (handler, started_rx, release_tx)
    }

    /// Queue-full rejection: the one slot is held by a parked job, one
    /// more job is admitted and waiting to start, so a third submission
    /// must be rejected with the retry hint — and succeed after the
    /// parked job is released.
    #[test]
    fn full_queue_rejects_with_retry_after() {
        let config = SchedulerConfig {
            retry_after: Duration::from_micros(100),
            ..config(1, 1)
        };
        let (handler, started, release) = parking_handler();
        serve(&config, handler, |handle| {
            std::thread::scope(|scope| {
                let t1 = handle.submit("c", true).expect("accepted");
                let t1 = scope.spawn(move || t1.wait());
                started.recv().unwrap(); // job 1 now holds the only slot
                let t2 = handle.submit("c", false).expect("fits the queue");
                let rejected = handle.submit("c", false).expect_err("queue is full");
                assert_eq!(
                    rejected.error,
                    SubmitError::QueueFull {
                        retry_after: Duration::from_micros(100)
                    }
                );
                assert_eq!(handle.metrics().report().rejected_full, 1);
                release.send(()).unwrap();
                assert!(matches!(t1.join().unwrap(), JobOutcome::Completed(())));
                assert!(matches!(t2.wait(), JobOutcome::Completed(())));
                // The queue has drained, so the rejected job now fits.
                let t3 = handle
                    .submit("c", rejected.job)
                    .expect("retry succeeds once the queue drains");
                assert!(matches!(t3.wait(), JobOutcome::Completed(())));
            });
        })
        .unwrap();
    }

    /// Quota exhaustion mid-session: the third request of a 2-budget
    /// client is rejected while other clients keep going, and the
    /// rejection does not consume queue capacity.
    #[test]
    fn quota_exhausts_mid_session_per_client() {
        let config = SchedulerConfig {
            client_quotas: vec![("bounded".into(), 2)],
            ..config(2, 16)
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
                        client: "bounded".into(),
                        max_queries: 2,
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
            default_client_quota: Some(1),
            ..config(1, 8)
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

    /// Panic containment: a panicking job reports `Panicked` to its
    /// waiter, the gate keeps serving later jobs, and no lock is
    /// poisoned.
    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let completed = AtomicU64::new(0);
        serve(
            &config(2, 8),
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
                // The gate is still fully operational afterwards.
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

    /// Even with every job panicking, each slot comes back and `serve`
    /// returns (regression guard for shutdown deadlocks).
    #[test]
    fn all_workers_panicking_still_drains_and_returns() {
        let out = serve(
            &config(4, 16),
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

    /// Deadline-aware admission: a job whose deadline passes while it
    /// waits behind a slow one is shed when its turn comes — the handler
    /// never runs for it — while an undeadlined job behind it completes.
    #[test]
    fn expired_queued_jobs_are_shed_not_executed() {
        let (park, started, release) = parking_handler();
        let ran = AtomicU64::new(0);
        let handler = |block: bool| {
            if !block {
                ran.fetch_add(1, Ordering::Relaxed);
            }
            park(block)
        };
        serve(&config(1, 8), handler, |handle| {
            std::thread::scope(|scope| {
                let t1 = handle.submit("c", true).unwrap();
                let t1 = scope.spawn(move || t1.wait());
                started.recv().unwrap(); // job 1 holds the only slot
                let expired = handle
                    .submit_with_deadline("c", false, Some(Instant::now()))
                    .unwrap();
                let healthy = handle.submit("c", false).unwrap();
                release.send(()).unwrap();
                assert!(matches!(expired.wait(), JobOutcome::Shed));
                assert!(matches!(healthy.wait(), JobOutcome::Completed(())));
                assert!(matches!(t1.join().unwrap(), JobOutcome::Completed(())));
                assert_eq!(ran.load(Ordering::Relaxed), 1, "shed job never ran");
                let report = handle.metrics().report();
                assert_eq!(report.queries_shed, 1);
                // A shed job still counts as dequeued, not completed.
                assert_eq!(report.completed, 2);
            });
        })
        .unwrap();
    }

    /// A future deadline that has not passed does not shed.
    #[test]
    fn unexpired_deadlines_execute_normally() {
        serve(
            &config(1, 4),
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
            client_quotas: vec![("c".into(), 3)],
            retry_after: Duration::from_micros(50),
            ..config(1, 1)
        };
        let (handler, started, release) = parking_handler();
        serve(&config, handler, |handle| {
            std::thread::scope(|scope| {
                let t1 = handle.submit("c", true).unwrap();
                let t1 = scope.spawn(move || t1.wait());
                started.recv().unwrap();
                let t2 = handle.submit("c", false).unwrap();
                // Quota now 1; a queue-full rejection must not cost it.
                assert!(matches!(
                    handle.submit("c", false).unwrap_err().error,
                    SubmitError::QueueFull { .. }
                ));
                assert_eq!(handle.remaining_quota("c"), Some(1));
                release.send(()).unwrap();
                assert!(matches!(t1.join().unwrap(), JobOutcome::Completed(())));
                assert!(matches!(t2.wait(), JobOutcome::Completed(())));
                let t3 = handle.submit("c", false).unwrap();
                assert_eq!(handle.remaining_quota("c"), Some(0));
                assert!(matches!(t3.wait(), JobOutcome::Completed(())));
            });
        })
        .unwrap();
    }

    /// A ticket nobody waits on has no place in the line, so the order
    /// of waits is free: last submitted first, all on one thread, with
    /// one slot, and nothing deadlocks.
    #[test]
    fn tickets_waited_in_reverse_order_all_complete() {
        serve(
            &config(1, 4),
            |x: u64| x,
            |handle| {
                let tickets: Vec<_> = (0..4).map(|i| handle.submit("c", i).unwrap()).collect();
                for (i, ticket) in tickets.into_iter().enumerate().rev() {
                    assert!(matches!(ticket.wait(), JobOutcome::Completed(v) if v == i as u64));
                }
                assert_eq!(handle.metrics().queue_depth(), 0);
            },
        )
        .unwrap();
    }

    /// Capacity zero is floored to one unit — and that one unit is what
    /// a ticket dropped unwaited gives back.
    #[test]
    fn dropped_ticket_frees_its_capacity_unit() {
        serve(
            &config(1, 0),
            |x: u64| x,
            |handle| {
                let ticket = handle.submit("c", 1).unwrap();
                assert!(handle.submit("c", 2).is_err(), "the only unit is held");
                drop(ticket);
                assert_eq!(handle.metrics().queue_depth(), 0);
                let again = handle.submit("c", 3).expect("the unit came back");
                assert!(matches!(again.wait(), JobOutcome::Completed(3)));
            },
        )
        .unwrap();
    }

    /// The shell's wake-ups, raced: eight threads push jobs through two
    /// slots. A lost wake-up hangs the test; a leaked slot shows as more
    /// than two handlers inside at once.
    #[test]
    fn contended_gate_never_exceeds_its_slots_or_strands_a_waiter() {
        let inside = AtomicU64::new(0);
        let most = AtomicU64::new(0);
        let handler = |_: u64| {
            most.fetch_max(inside.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            std::thread::yield_now();
            inside.fetch_sub(1, Ordering::SeqCst);
        };
        serve(&config(2, 8), handler, |handle| {
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        for i in 0..200 {
                            // Eight threads, eight units: never rejected.
                            let ticket = handle.submit("c", i).unwrap();
                            assert!(matches!(ticket.wait(), JobOutcome::Completed(())));
                        }
                    });
                }
            });
            assert_eq!(handle.metrics().report().completed, 8 * 200);
        })
        .unwrap();
        assert!(most.load(Ordering::SeqCst) <= 2);
    }

    /// What one enumerated step does to the gate and to the model.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Admit(&'static str),
        BeginWait,
        StartIfAllowed,
        Finish,
        Drop,
    }

    const STEPS: [Step; 6] = [
        Step::Admit("a"),
        Step::Admit("b"),
        Step::BeginWait,
        Step::StartIfAllowed,
        Step::Finish,
        Step::Drop,
    ];

    /// What a ticket of the reference model is doing.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Doing {
        Held,
        Waiting { place: u64 },
        Running,
        Gone,
    }

    /// Handlers running, and jobs admitted and not yet started.
    fn tally(tickets: &[(&str, Doing)]) -> (usize, usize) {
        let count = |want: fn(&Doing) -> bool| tickets.iter().filter(|(_, d)| want(d)).count();
        (
            count(|d| *d == Doing::Running),
            count(|d| matches!(d, Doing::Held | Doing::Waiting { .. })),
        )
    }

    /// Replays `steps` on a fresh gate and on a naive model — a list of
    /// every ticket ever admitted, with its client and what it is doing,
    /// and the order in which waits began — and compares the two after
    /// every step. Steps that do not apply (finish with nothing running)
    /// are no-ops on both sides.
    fn replay(config: &SchedulerConfig, steps: &[Step]) -> Result<(), String> {
        let (workers, capacity) = (config.workers, config.queue_capacity);
        let quota = config.default_client_quota;
        let spent = |tickets: &[(&str, Doing)], client: &str| {
            tickets.iter().filter(|(c, _)| *c == client).count() as u64
        };
        let mut gate = Gate::default();
        let mut tickets: Vec<(&str, Doing)> = Vec::new();
        let mut waits: Vec<usize> = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            let fail = |why: String| Err(format!("step {i}, {step:?}: {why}"));
            let (running, backlog) = tally(&tickets);
            let oldest = |want: Doing| tickets.iter().position(|(_, d)| *d == want);
            match *step {
                Step::Admit(client) => {
                    let expected = if let Some(quota) =
                        quota.filter(|&quota| spent(&tickets, client) >= quota)
                    {
                        Err(SubmitError::QuotaExhausted {
                            client: client.to_owned(),
                            max_queries: quota,
                        })
                    } else if backlog >= capacity {
                        Err(SubmitError::QueueFull {
                            retry_after: config.retry_after,
                        })
                    } else {
                        Ok(())
                    };
                    let got = gate.admit(config, client);
                    if got != expected {
                        return fail(format!("{got:?}, expected {expected:?}"));
                    }
                    if got.is_ok() {
                        tickets.push((client, Doing::Held));
                    }
                }
                Step::BeginWait => {
                    if let Some(t) = oldest(Doing::Held) {
                        let place = gate.begin_wait();
                        tickets[t].1 = Doing::Waiting { place };
                        waits.push(t);
                    }
                }
                Step::StartIfAllowed => {
                    // Only the earliest wait still going may start, and
                    // only into a free slot; everyone else is refused
                    // first, which the comparison below shows changed
                    // nothing.
                    let head = waits
                        .iter()
                        .copied()
                        .find(|&t| matches!(tickets[t].1, Doing::Waiting { .. }));
                    let mut order: Vec<usize> = (0..tickets.len()).collect();
                    order.sort_by_key(|&t| Some(t) == head);
                    for t in order {
                        let Doing::Waiting { place } = tickets[t].1 else {
                            continue;
                        };
                        let may = Some(t) == head && running < workers;
                        if gate.try_start(config, place) != may {
                            return fail(format!("ticket {t} started: {}, expected {may}", !may));
                        }
                        if may {
                            tickets[t].1 = Doing::Running;
                        }
                    }
                }
                Step::Finish => {
                    if let Some(t) = oldest(Doing::Running) {
                        gate.finish();
                        tickets[t].1 = Doing::Gone;
                    }
                }
                Step::Drop => {
                    if let Some(t) = oldest(Doing::Held) {
                        gate.abandon();
                        tickets[t].1 = Doing::Gone;
                    }
                }
            }
            // The gate is the model, counted: so every ticket left once,
            // a refusal changed nothing and spent nothing, quota never
            // underflowed, and with no ticket left only the quotas
            // differ from a fresh gate.
            let (running, backlog) = tally(&tickets);
            let line: Vec<u64> = waits
                .iter()
                .filter_map(|&t| match tickets[t].1 {
                    Doing::Waiting { place } => Some(place),
                    _ => None,
                })
                .collect();
            let left = |client| quota.map(|quota| quota.checked_sub(spent(&tickets, client)));
            let model = (running, backlog, line, left("a"), left("b"));
            let actual = (
                gate.running,
                gate.admitted,
                (gate.now_serving..gate.next_place).collect(),
                gate.remaining_quota(config, "a").map(Some),
                gate.remaining_quota(config, "b").map(Some),
            );
            if actual != model {
                return fail(format!("gate {actual:?}, model {model:?}"));
            }
            if running > workers || backlog > capacity {
                return fail(format!("{running} running, {backlog} not started"));
            }
        }
        Ok(())
    }

    /// Small scope, every case: all sequences of five transitions (six
    /// when optimised; shorter ones are their prefixes) for every
    /// combination of one or two slots, one or two units of capacity,
    /// and no quota or a quota of two.
    #[test]
    fn gate_agrees_with_the_reference_model_on_every_short_sequence() {
        let depth = if cfg!(debug_assertions) { 5 } else { 6 };
        for (workers, capacity, quota) in [1, 2]
            .into_iter()
            .flat_map(|w| [1, 2].map(|c| (w, c)))
            .flat_map(|(w, c)| [None, Some(2)].map(|q| (w, c, q)))
        {
            let config = SchedulerConfig {
                default_client_quota: quota,
                ..config(workers, capacity)
            };
            for code in 0..STEPS.len().pow(depth) {
                let steps: Vec<Step> = (0..depth)
                    .map(|i| STEPS[code / STEPS.len().pow(i) % STEPS.len()])
                    .collect();
                if let Err(why) = replay(&config, &steps) {
                    panic!("{why}\n  after {steps:?}\n  with {workers} slots, capacity {capacity}, quota {quota:?}");
                }
            }
        }
    }
}
