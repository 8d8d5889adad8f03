//! Injected time for whatever ages things.
//!
//! Code that ages entries (the stream tier's windows) takes
//! a [`Clock`] and reads its time from it. Tests drive a [`ManualClock`]
//! by hand, so timing behaviour is fully deterministic; production hands
//! it a [`WallClock`]. A clock is only read: nothing waits on one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source.
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
}

/// A [`Clock`] advanced explicitly by whoever holds it. Starts at zero.
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

    /// Lets `by` go past.
    pub fn advance(&self, by: Duration) {
        self.nanos
            .fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
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
