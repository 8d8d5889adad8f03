//! Injected time for the resilience wrappers.
//!
//! Wrappers that wait (retry backoff) or age things (cache TTLs) take a
//! [`Clock`] and spend their time on it. Tests drive a [`ManualClock`]
//! by hand, where a wait is only accounted, so timing behaviour is fully
//! deterministic; a client of a real server hands them a [`WallClock`],
//! where a wait is a wait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source.
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;

    /// Lets `by` go past. Wrappers call this to wait (e.g. a backoff
    /// delay): a simulated clock jumps, the wall clock sleeps.
    fn advance(&self, by: Duration);
}

/// A [`Clock`] advanced explicitly — by tests or by wrappers charging
/// simulated waits. Starts at zero.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Jumps to an absolute instant (must not move backwards in sane use;
    /// not enforced — tests own the clock).
    pub fn set(&self, to: Duration) {
        self.nanos.store(to.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    fn advance(&self, by: Duration) {
        self.nanos
            .fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The one blessed wall-clock [`Clock`]: production code that genuinely
/// needs real time takes a `Clock` and is handed one of these, keeping
/// the wall-clock read behind the injection seam so tests can substitute
/// a [`ManualClock`].
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        Self {
            // sofya: allow(determinism) — this is the injection seam; every other wall-clock read routes through it
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Real time cannot be advanced by fiat: this sleeps for `by`.
    fn advance(&self, by: Duration) {
        std::thread::sleep(by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(250));
        c.advance(Duration::from_millis(750));
        assert_eq!(c.now(), Duration::from_secs(1));
        c.set(Duration::from_secs(10));
        assert_eq!(c.now(), Duration::from_secs(10));
    }
}
