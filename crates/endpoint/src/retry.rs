//! Retries and the circuit breaker.
//!
//! Public endpoints fail transiently (timeouts, 503s).
//! [`RetryEndpoint`] re-issues failed queries up to a bound, which is
//! how a production client would wrap a remote endpoint. Quota errors are
//! **not** retried: retrying an exhausted budget can never succeed.
//! (Tests inject such failures deterministically with
//! [`crate::testing::FlakyEndpoint`].)

use crate::clock::Clock;
use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use sofya_sparql::QueryBudget;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The externally visible state of a [`RetryEndpoint`] circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow through; consecutive failures are being counted.
    Closed,
    /// Requests fail fast without touching the endpoint until the
    /// cooldown elapses.
    Open,
    /// The cooldown elapsed: exactly one probe request is allowed
    /// through; its outcome closes or re-opens the breaker.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Circuit-breaker policy for [`RetryEndpoint::with_breaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive breaker-counted failures (503s and deadline
    /// timeouts, *after* retries are exhausted) that trip the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a half-open
    /// probe, measured on the injected [`Clock`].
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    /// Trip after 5 consecutive failures; probe again after 30 s.
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_secs(30),
        }
    }
}

const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

/// Closed → (K consecutive failures) → Open → (cooldown) → HalfOpen →
/// one probe → Closed or back to Open. Time comes from the injected
/// [`Clock`], so the whole lifecycle is deterministic under
/// [`crate::ManualClock`].
struct Breaker {
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    state: AtomicU8,
    consecutive: AtomicU32,
    opened_at_nanos: AtomicU64,
    probe_in_flight: AtomicBool,
    trips: AtomicU64,
}

impl Breaker {
    fn new(config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            config,
            clock,
            state: AtomicU8::new(BREAKER_CLOSED),
            consecutive: AtomicU32::new(0),
            opened_at_nanos: AtomicU64::new(0),
            probe_in_flight: AtomicBool::new(false),
            trips: AtomicU64::new(0),
        }
    }

    fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            BREAKER_OPEN => BreakerState::Open,
            BREAKER_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether `error` counts toward tripping the breaker: the classes
    /// that mean "the server did not usefully respond". Errors the
    /// server *computed* (SPARQL, quota, budget caps) prove it is alive
    /// and reset the failure streak instead.
    fn counts_as_failure(error: &EndpointError) -> bool {
        matches!(
            error,
            EndpointError::Unavailable { .. } | EndpointError::DeadlineExceeded { .. }
        )
    }

    fn fail_fast(&self, name: &str, retry_after: Option<Duration>) -> EndpointError {
        EndpointError::Unavailable {
            message: format!("circuit breaker open for '{name}'"),
            retry_after,
        }
    }

    /// Gate on the current state; `Ok(())` admits one attempt (in
    /// half-open, only the single probe winner).
    fn admit(&self, name: &str) -> Result<(), EndpointError> {
        loop {
            match self.state.load(Ordering::Acquire) {
                BREAKER_OPEN => {
                    let opened = Duration::from_nanos(self.opened_at_nanos.load(Ordering::Acquire));
                    let since = self.clock.now().saturating_sub(opened);
                    if since < self.config.cooldown {
                        return Err(self.fail_fast(name, Some(self.config.cooldown - since)));
                    }
                    // Cooldown over — race to half-open and retry the gate.
                    let _ = self.state.compare_exchange(
                        BREAKER_OPEN,
                        BREAKER_HALF_OPEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                }
                BREAKER_HALF_OPEN => {
                    if self
                        .probe_in_flight
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Ok(());
                    }
                    return Err(self.fail_fast(name, Some(self.config.cooldown)));
                }
                _ => return Ok(()),
            }
        }
    }

    /// The server responded (success, or an error it computed): close
    /// and reset the streak.
    fn record_success(&self) {
        self.state.store(BREAKER_CLOSED, Ordering::Release);
        self.consecutive.store(0, Ordering::Release);
        self.probe_in_flight.store(false, Ordering::Release);
    }

    /// A breaker-counted failure after retries were exhausted.
    fn record_failure(&self) {
        let was = self.state.load(Ordering::Acquire);
        self.probe_in_flight.store(false, Ordering::Release);
        if was == BREAKER_HALF_OPEN {
            // Failed probe: straight back to open for another cooldown.
            self.trip();
            return;
        }
        // `was` is Closed here (an Open state never admits attempts).
        let streak = self.consecutive.fetch_add(1, Ordering::AcqRel) + 1;
        if streak >= self.config.failure_threshold {
            self.trip();
        }
    }

    fn trip(&self) {
        self.opened_at_nanos
            .store(self.clock.now().as_nanos() as u64, Ordering::Release);
        self.consecutive.store(0, Ordering::Release);
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.state.store(BREAKER_OPEN, Ordering::Release);
    }
}

/// Exponential backoff schedule: retry `k` (0-based) waits
/// `base · factor^k`, capped at `max_delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier between consecutive retries.
    pub factor: u32,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl BackoffPolicy {
    /// The conventional doubling schedule with a 30 s cap.
    pub fn exponential(base: Duration) -> Self {
        Self {
            base,
            factor: 2,
            max_delay: Duration::from_secs(30),
        }
    }

    /// Delay before retry number `retry` (0-based).
    pub fn delay_for(&self, retry: u32) -> Duration {
        self.base
            .saturating_mul(self.factor.saturating_pow(retry))
            .min(self.max_delay)
    }
}

/// Retries transient failures up to `max_retries` additional attempts.
///
/// Retried errors: [`EndpointError::Other`] (the transport-level class)
/// and [`EndpointError::Unavailable`] (the 503 class). A quota error
/// with a `retry_after` hint is also transient — the budget refills —
/// and is retried; one without a hint is permanent and surfaced
/// immediately, as are SPARQL errors (the query itself is broken).
///
/// When a retried error carries a server `Retry-After` hint, the hint
/// **replaces** the local backoff schedule for that retry: the server
/// knows when it will have capacity, the client's exponential guess
/// does not.
///
/// With [`RetryEndpoint::with_backoff`] each retry first spends its
/// delay on an injected [`Clock`]: over [`crate::WallClock`] that is a
/// real wait, which is what backing off from a busy server means; over
/// [`crate::ManualClock`] the time is only accounted, so the schedule is
/// testable deterministically.
pub struct RetryEndpoint<E> {
    inner: E,
    max_retries: u32,
    retries_used: AtomicU64,
    backoff: Option<(BackoffPolicy, Arc<dyn Clock>)>,
    backoff_nanos: AtomicU64,
    breaker: Option<Breaker>,
}

impl<E: Endpoint> RetryEndpoint<E> {
    /// Wraps `inner` with a retry budget per query (no backoff
    /// accounting).
    pub fn new(inner: E, max_retries: u32) -> Self {
        Self {
            inner,
            max_retries,
            retries_used: AtomicU64::new(0),
            backoff: None,
            backoff_nanos: AtomicU64::new(0),
            breaker: None,
        }
    }

    /// Wraps `inner` with a retry budget and an exponential backoff
    /// schedule spent on `clock` before every retry.
    pub fn with_backoff(
        inner: E,
        max_retries: u32,
        policy: BackoffPolicy,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            backoff: Some((policy, clock)),
            ..Self::new(inner, max_retries)
        }
    }

    /// Adds a circuit breaker in front of the retry loop: after
    /// `config.failure_threshold` consecutive breaker-counted failures
    /// (503s and deadline timeouts, each *after* its retries were
    /// exhausted) the breaker opens and every request fails fast with
    /// [`EndpointError::Unavailable`] — no load reaches a struggling
    /// server. Once `config.cooldown` has elapsed on `clock`, a single
    /// half-open probe is admitted; its success closes the breaker, its
    /// failure re-opens it for another cooldown.
    pub fn with_breaker(self, config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            breaker: Some(Breaker::new(config, clock)),
            ..self
        }
    }

    /// Total retries spent across all queries.
    pub fn retries_used(&self) -> u64 {
        self.retries_used.load(Ordering::Relaxed)
    }

    /// Total time spent backing off across all queries.
    pub fn backoff_time(&self) -> Duration {
        Duration::from_nanos(self.backoff_nanos.load(Ordering::Relaxed))
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The breaker's current state (`None` without a breaker).
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(Breaker::state)
    }

    /// How many times the breaker has tripped open (0 without one).
    pub fn breaker_trips(&self) -> u64 {
        self.breaker
            .as_ref()
            .map(|b| b.trips.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Whether `error` is worth another attempt, and the server's
    /// `Retry-After` hint if it sent one.
    fn transient_hint(error: &EndpointError) -> Option<Option<Duration>> {
        match error {
            EndpointError::Other(_) => Some(None),
            EndpointError::Unavailable { retry_after, .. } => Some(*retry_after),
            // A hinted quota refills; an unhinted one never does.
            EndpointError::QuotaExceeded {
                retry_after: Some(after),
                ..
            } => Some(Some(*after)),
            _ => None,
        }
    }

    fn with_retries<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, EndpointError>,
    ) -> Result<T, EndpointError> {
        let mut try_no = 0;
        loop {
            match attempt() {
                Ok(value) => return Ok(value),
                Err(e) => {
                    let Some(hint) = Self::transient_hint(&e) else {
                        return Err(e);
                    };
                    // Retries exhausted: the last error is the answer —
                    // returned directly, so no placeholder to unwrap.
                    if try_no >= self.max_retries {
                        return Err(e);
                    }
                    self.retries_used.fetch_add(1, Ordering::Relaxed);
                    if let Some((policy, clock)) = &self.backoff {
                        // The server's hint overrides the local
                        // guess; without one, back off as scheduled.
                        let delay = hint.unwrap_or_else(|| policy.delay_for(try_no));
                        clock.advance(delay);
                        self.backoff_nanos
                            .fetch_add(delay.as_nanos() as u64, Ordering::Relaxed);
                    }
                    try_no += 1;
                }
            }
        }
    }

    /// The breaker-gated retry loop: fail fast while open, run the
    /// retries otherwise, and record the *final* outcome (individual
    /// retried attempts don't count — only a query that exhausted its
    /// retries is a breaker failure).
    fn guarded<T>(
        &self,
        attempt: impl FnMut() -> Result<T, EndpointError>,
    ) -> Result<T, EndpointError> {
        if let Some(breaker) = &self.breaker {
            breaker.admit(self.inner.name())?;
        }
        let result = self.with_retries(attempt);
        if let Some(breaker) = &self.breaker {
            match &result {
                Err(e) if Breaker::counts_as_failure(e) => breaker.record_failure(),
                _ => breaker.record_success(),
            }
        }
        result
    }
}

impl<E: Endpoint> Endpoint for RetryEndpoint<E> {
    /// Re-issues the whole request on transient failure (requests are
    /// cheap to clone: borrowed strings, template references, and — for
    /// batches — a vector of the same).
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.guarded(|| self.inner.execute_with_budget(req.clone(), budget))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointExt;
    use crate::local::LocalEndpoint;
    use crate::testing::FlakyEndpoint;
    use sofya_rdf::{Term, TripleStore};

    fn base() -> LocalEndpoint {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        LocalEndpoint::new("kb", store)
    }

    #[test]
    fn flaky_fails_on_schedule() {
        let ep = FlakyEndpoint::new(base(), 3);
        assert!(ep.ask("ASK { <a> <p> <b> }").is_ok());
        assert!(ep.ask("ASK { <a> <p> <b> }").is_ok());
        assert!(ep.ask("ASK { <a> <p> <b> }").is_err()); // 3rd query
        assert!(ep.ask("ASK { <a> <p> <b> }").is_ok());
        assert_eq!(ep.attempts(), 4);
    }

    #[test]
    fn zero_period_never_fails() {
        let ep = FlakyEndpoint::new(base(), 0);
        for _ in 0..10 {
            ep.ask("ASK { <a> <p> <b> }").unwrap();
        }
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        // Every 2nd query fails; one retry always recovers.
        let ep = RetryEndpoint::new(FlakyEndpoint::new(base(), 2), 1);
        for _ in 0..10 {
            ep.ask("ASK { <a> <p> <b> }").unwrap();
        }
        assert!(ep.retries_used() > 0);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        // Everything fails; 2 retries then surface the error.
        let ep = RetryEndpoint::new(FlakyEndpoint::new(base(), 1), 2);
        let err = ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        assert!(matches!(err, EndpointError::Other(_)));
        assert_eq!(ep.retries_used(), 2);
    }

    /// Over the wall clock a backoff is a real wait: a client told to
    /// come back later does not re-send back to back.
    #[test]
    fn backoff_over_the_wall_clock_really_waits() {
        let flat = BackoffPolicy {
            base: Duration::from_millis(5),
            factor: 1,
            max_delay: Duration::from_millis(5),
        };
        let clock = Arc::new(crate::clock::WallClock::new());
        let ep = RetryEndpoint::with_backoff(FlakyEndpoint::new(base(), 1), 2, flat, clock);
        let started = std::time::Instant::now();
        ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        assert!(started.elapsed() >= Duration::from_millis(10));
        assert_eq!(ep.backoff_time(), Duration::from_millis(10));
    }

    #[test]
    fn sparql_errors_are_not_retried() {
        let flaky = FlakyEndpoint::new(base(), 0);
        let ep = RetryEndpoint::new(flaky, 5);
        let err = ep.select("NOT SPARQL").unwrap_err();
        assert!(matches!(err, EndpointError::Sparql(_)));
        assert_eq!(ep.retries_used(), 0);
    }

    /// Emits a scripted error sequence, then answers from `inner`.
    struct Scripted {
        inner: LocalEndpoint,
        errors: std::sync::Mutex<Vec<EndpointError>>,
    }

    impl Scripted {
        fn new(errors: Vec<EndpointError>) -> Self {
            Self {
                inner: base(),
                errors: std::sync::Mutex::new(errors),
            }
        }
    }

    impl Endpoint for Scripted {
        fn execute_with_budget(
            &self,
            req: Request<'_>,
            budget: &QueryBudget,
        ) -> Result<Response, EndpointError> {
            let mut errors = self.errors.lock().unwrap();
            if errors.is_empty() {
                self.inner.execute_with_budget(req, budget)
            } else {
                Err(errors.remove(0))
            }
        }

        fn name(&self) -> &str {
            "scripted"
        }
    }

    #[test]
    fn server_retry_after_hint_overrides_backoff_schedule() {
        use crate::clock::ManualClock;
        let scripted = Scripted::new(vec![
            EndpointError::Unavailable {
                message: "queue full".into(),
                retry_after: Some(Duration::from_millis(250)),
            },
            EndpointError::Unavailable {
                message: "queue full".into(),
                retry_after: None,
            },
        ]);
        let clock = Arc::new(ManualClock::new());
        let policy = BackoffPolicy::exponential(Duration::from_millis(100));
        let ep = RetryEndpoint::with_backoff(scripted, 3, policy, clock.clone());
        ep.ask("ASK { <a> <p> <b> }").unwrap();
        assert_eq!(ep.retries_used(), 2);
        // Retry 0 waits the server's 250 ms hint (not the schedule's
        // 100 ms); retry 1 has no hint and falls back to the schedule's
        // 100 · 2¹ = 200 ms.
        let want = Duration::from_millis(250 + 200);
        assert_eq!(ep.backoff_time(), want);
        assert_eq!(clock.now(), want);
    }

    #[test]
    fn hinted_quota_errors_are_retried_after_the_hint() {
        use crate::clock::ManualClock;
        let scripted = Scripted::new(vec![EndpointError::QuotaExceeded {
            endpoint: "remote".into(),
            max_queries: 10,
            retry_after: Some(Duration::from_secs(2)),
        }]);
        let clock = Arc::new(ManualClock::new());
        let policy = BackoffPolicy::exponential(Duration::from_millis(100));
        let ep = RetryEndpoint::with_backoff(scripted, 3, policy, clock.clone());
        ep.ask("ASK { <a> <p> <b> }").unwrap();
        assert_eq!(ep.retries_used(), 1);
        assert_eq!(ep.backoff_time(), Duration::from_secs(2));
    }

    fn unavailable() -> EndpointError {
        EndpointError::Unavailable {
            message: "down".into(),
            retry_after: None,
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_fails_fast() {
        use crate::clock::ManualClock;
        let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
        // Every attempt (including retries) fails with a 503.
        let scripted = Scripted::new(vec![unavailable(); 100]);
        let config = BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(10),
        };
        let ep = RetryEndpoint::new(scripted, 0).with_breaker(config, clock.clone());
        assert_eq!(ep.breaker_state(), Some(BreakerState::Closed));
        for _ in 0..3 {
            ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        }
        assert_eq!(ep.breaker_state(), Some(BreakerState::Open));
        assert_eq!(ep.breaker_trips(), 1);
        // While open, requests fail fast without reaching the endpoint.
        let before = ep.inner().errors.lock().unwrap().len();
        let err = ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        assert!(err.to_string().contains("circuit breaker open"));
        assert!(matches!(
            err,
            EndpointError::Unavailable {
                retry_after: Some(_),
                ..
            }
        ));
        assert_eq!(ep.inner().errors.lock().unwrap().len(), before);
    }

    #[test]
    fn breaker_half_open_probe_closes_on_success() {
        use crate::clock::ManualClock;
        let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
        // Two failures trip the breaker; the script is then empty, so
        // the probe succeeds against the local store.
        let scripted = Scripted::new(vec![unavailable(); 2]);
        let config = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(5),
        };
        let ep = RetryEndpoint::new(scripted, 0).with_breaker(config, clock.clone());
        for _ in 0..2 {
            ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        }
        assert_eq!(ep.breaker_state(), Some(BreakerState::Open));
        // Cooldown not yet elapsed: still failing fast.
        clock.advance(Duration::from_secs(4));
        ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        // Cooldown elapsed: the probe goes through and closes the breaker.
        clock.advance(Duration::from_secs(1));
        assert!(ep.ask("ASK { <a> <p> <b> }").unwrap());
        assert_eq!(ep.breaker_state(), Some(BreakerState::Closed));
        assert!(ep.ask("ASK { <a> <p> <b> }").unwrap());
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        use crate::clock::ManualClock;
        let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
        // One failure trips the breaker, the probe fails too, then a
        // second cooldown's probe succeeds.
        let scripted = Scripted::new(vec![unavailable(); 2]);
        let config = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(5),
        };
        let ep = RetryEndpoint::new(scripted, 0).with_breaker(config, clock.clone());
        ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        assert_eq!(ep.breaker_state(), Some(BreakerState::Open));
        clock.advance(Duration::from_secs(5));
        ep.ask("ASK { <a> <p> <b> }").unwrap_err(); // failed probe
        assert_eq!(ep.breaker_state(), Some(BreakerState::Open));
        assert_eq!(ep.breaker_trips(), 2);
        clock.advance(Duration::from_secs(5));
        assert!(ep.ask("ASK { <a> <p> <b> }").unwrap());
        assert_eq!(ep.breaker_state(), Some(BreakerState::Closed));
    }

    #[test]
    fn server_computed_errors_reset_the_breaker_streak() {
        use crate::clock::ManualClock;
        let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
        let scripted = Scripted::new(vec![unavailable(), unavailable()]);
        let config = BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        };
        let ep = RetryEndpoint::new(scripted, 0).with_breaker(config, clock);
        ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        // A SPARQL error proves the server is alive: streak resets, so
        // the breaker needs a fresh run of 3 to trip.
        ep.select("NOT SPARQL").unwrap_err();
        assert_eq!(ep.breaker_state(), Some(BreakerState::Closed));
        assert_eq!(ep.breaker_trips(), 0);
    }

    #[test]
    fn deadline_errors_count_toward_the_breaker() {
        use crate::clock::ManualClock;
        let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
        let scripted = Scripted::new(vec![
            EndpointError::DeadlineExceeded {
                elapsed: Duration::from_millis(100),
            },
            unavailable(),
        ]);
        let config = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(5),
        };
        let ep = RetryEndpoint::new(scripted, 0).with_breaker(config, clock);
        // Deadline errors are not retried (the caller's deadline is
        // gone) but do count as the server failing to answer in time.
        ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        assert_eq!(ep.retries_used(), 0);
        ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        assert_eq!(ep.breaker_state(), Some(BreakerState::Open));

        // No wrapper has to sit below to name the class: a bare backend
        // killed by the caller's spent budget counts too.
        let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
        let bare = RetryEndpoint::new(base(), 0).with_breaker(config, clock);
        let spent = QueryBudget::unlimited().with_time_limit(Duration::ZERO);
        for _ in 0..2 {
            let ask = Request::Ask {
                query: "ASK { <a> <p> <b> }",
            };
            bare.execute_with_budget(ask, &spent).unwrap_err();
        }
        assert_eq!(bare.breaker_state(), Some(BreakerState::Open));
    }

    #[test]
    fn quota_errors_are_not_retried() {
        // Without a hint the quota is permanent: retrying cannot help.
        let scripted = Scripted::new(vec![EndpointError::QuotaExceeded {
            endpoint: "remote".into(),
            max_queries: 1,
            retry_after: None,
        }]);
        let ep = RetryEndpoint::new(scripted, 5);
        let err = ep.ask("ASK { <a> <p> <b> }").unwrap_err();
        assert!(matches!(err, EndpointError::QuotaExceeded { .. }));
        assert_eq!(ep.retries_used(), 0);
    }

    #[test]
    fn alignment_survives_a_flaky_endpoint_with_retries() {
        // End-to-end failure injection: SOFYA behind a retry wrapper
        // completes despite periodic transient failures.
        use sofya_rdf::parse_ntriples;
        const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";
        let mut yago_nt = String::new();
        let mut dbp_nt = String::new();
        for i in 0..6 {
            yago_nt.push_str(&format!("<y:p{i}> <y:born> <y:c{i}> .\n"));
            dbp_nt.push_str(&format!("<d:P{i}> <d:birthPlace> <d:C{i}> .\n"));
            for (a, b) in [
                (format!("y:p{i}"), format!("d:P{i}")),
                (format!("y:c{i}"), format!("d:C{i}")),
            ] {
                yago_nt.push_str(&format!("<{a}> <{SA}> <{b}> .\n"));
                dbp_nt.push_str(&format!("<{b}> <{SA}> <{a}> .\n"));
            }
        }
        let dbp = RetryEndpoint::new(
            FlakyEndpoint::new(
                LocalEndpoint::new("dbp", parse_ntriples(&dbp_nt).unwrap()),
                5,
            ),
            3,
        );
        let yago = RetryEndpoint::new(
            FlakyEndpoint::new(
                LocalEndpoint::new("yago", parse_ntriples(&yago_nt).unwrap()),
                5,
            ),
            3,
        );
        let aligner = sofya_core_stub::align(&dbp, &yago);
        assert_eq!(aligner, vec!["d:birthPlace".to_owned()]);
    }

    /// Minimal indirection so this crate's tests don't depend on
    /// `sofya-core` (which depends on us). Mirrors what the aligner does:
    /// a couple of queries with retries in the loop.
    mod sofya_core_stub {
        use super::super::*;
        use crate::helpers;

        pub fn align<E1: Endpoint, E2: Endpoint>(source: &E1, target: &E2) -> Vec<String> {
            // Sample a linked fact of y:born in the target, translate,
            // list relations between the translated pair.
            let facts = helpers::linked_entity_facts_page(
                target,
                "y:born",
                "http://www.w3.org/2002/07/owl#sameAs",
                10,
                0,
            )
            .unwrap();
            let pairs: Vec<(&str, &str)> = facts
                .iter()
                .filter_map(|(_, _, x2, y2)| Some((x2.as_iri()?, y2.as_iri()?)))
                .collect();
            let out: std::collections::BTreeSet<String> =
                helpers::relations_between_batch(source, &pairs)
                    .unwrap()
                    .into_iter()
                    .flatten()
                    .collect();
            out.into_iter().collect()
        }
    }
}
