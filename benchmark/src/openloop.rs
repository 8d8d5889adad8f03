//! Open-loop load: requests leave on a fixed schedule whether or not the
//! previous one has come back.
//!
//! A connection carries one request at a time, so a slow answer holds
//! back the requests behind it. Latency is therefore counted from the
//! moment each request was *due*, which charges that wait to the system
//! under test instead of hiding it. Two counts keep the generator
//! honest: how many requests were *blocked* behind an outstanding answer
//! (the system's doing, already in their latency), and how many started
//! *late* although the connection was free (the generator's own doing —
//! too many of those and the load claimed was not the load offered).

use std::time::{Duration, Instant};

/// A request that starts this long after it could have counts as sent
/// late: one tick of a 250 Hz scheduler, which is how long a generator
/// that shares its one CPU with the system under test can wait for it
/// without anything being wrong.
pub const LATE_TOLERANCE: Duration = Duration::from_millis(4);

/// A run whose generator sent more than this share of requests late did
/// not offer the load it claims; its open-loop numbers are unresolved.
pub const MAX_LATE_SHARE: f64 = 0.05;

/// Time as the open loop sees it; faked in tests.
pub trait Clock {
    /// The loop's origin on the wall clock, if the clock has one.
    fn origin(&self) -> Option<Instant> {
        None
    }
    /// Time since the loop's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= at`; returns at once when already past.
    fn wait_until(&self, at: Duration);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn origin(&self) -> Option<Instant> {
        Some(self.0)
    }

    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn wait_until(&self, at: Duration) {
        // Sleeping overshoots by tens of microseconds, which every request
        // then carries as latency. Spinning the last stretch would remove
        // that, but on a two-core box it takes the cycles from the server
        // being measured; the overshoot is the same on every commit.
        if let Some(left) = at.checked_sub(self.now()) {
            std::thread::sleep(left);
        }
    }
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpenLoopStats {
    /// Per request, completion minus due time, in microseconds. A failed
    /// request is charged the whole window: it missed any limit.
    pub latency_us: Vec<f64>,
    /// Per request, when it was due: seconds since the loop's origin.
    pub due_s: Vec<f64>,
    /// The loop's origin on the wall clock; `None` under a fake clock.
    pub origin: Option<Instant>,
    pub sent: u64,
    /// Requests whose connection was still waiting for the previous
    /// answer when they fell due.
    pub blocked: u64,
    /// Requests that started more than [`LATE_TOLERANCE`] after both
    /// their due time and the previous answer.
    pub late: u64,
    pub failed: u64,
    /// Largest such delay seen.
    pub max_lateness: Duration,
}

impl OpenLoopStats {
    pub fn late_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.late as f64 / self.sent as f64
        }
    }

    pub fn merge(&mut self, other: OpenLoopStats) {
        self.latency_us.extend(other.latency_us);
        self.due_s.extend(other.due_s);
        // Connections start within microseconds of each other.
        self.origin = self.origin.or(other.origin);
        self.sent += other.sent;
        self.blocked += other.blocked;
        self.late += other.late;
        self.failed += other.failed;
        self.max_lateness = self.max_lateness.max(other.max_lateness);
    }
}

/// Sends request `k` at `offset + k * interval` for every due time
/// before `window`. `send` returns whether the request succeeded.
pub fn run(
    clock: &impl Clock,
    offset: Duration,
    interval: Duration,
    window: Duration,
    mut send: impl FnMut(u64) -> bool,
) -> OpenLoopStats {
    let mut stats = OpenLoopStats {
        origin: clock.origin(),
        ..OpenLoopStats::default()
    };
    let mut free_at = Duration::ZERO;
    for k in 0u64.. {
        let due = offset + interval.mul_f64(k as f64);
        if due >= window {
            break;
        }
        clock.wait_until(due);
        stats.due_s.push(due.as_secs_f64());
        let lateness = clock.now().saturating_sub(due.max(free_at));
        stats.sent += 1;
        if free_at > due {
            stats.blocked += 1;
        }
        if lateness > LATE_TOLERANCE {
            stats.late += 1;
        }
        stats.max_lateness = stats.max_lateness.max(lateness);
        let ok = send(k);
        free_at = clock.now();
        if ok {
            stats
                .latency_us
                .push(free_at.saturating_sub(due).as_secs_f64() * 1e6);
        } else {
            stats.failed += 1;
            stats.latency_us.push(window.as_secs_f64() * 1e6);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, and whose waits overshoot
    /// by a set amount.
    struct FakeClock {
        now: Cell<Duration>,
        overshoot: Duration,
    }

    impl FakeClock {
        fn new(overshoot: Duration) -> Self {
            Self {
                now: Cell::new(Duration::ZERO),
                overshoot,
            }
        }
        fn pass(&self, time: Duration) {
            self.now.set(self.now.get() + time);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now.get()
        }
        fn wait_until(&self, at: Duration) {
            if self.now.get() < at {
                self.now.set(at + self.overshoot);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn latency_counts_from_due_time_and_blocking_is_not_lateness() {
        let clock = FakeClock::new(Duration::ZERO);
        // Every 10 ms for 50 ms; the second request stalls for 25 ms.
        let service = [MS, 25 * MS, MS, MS, MS];
        let stats = run(&clock, Duration::ZERO, 10 * MS, 50 * MS, |k| {
            clock.pass(service[k as usize]);
            true
        });
        assert_eq!(stats.sent, 5);
        // #0 due 0 done 1; #1 due 10 done 35; #2 due 20, held until 35,
        // done 36: 16 ms from due though served in 1; #3 due 30, held
        // until 36, done 37; #4 due 40 is back on schedule.
        assert_eq!(stats.latency_us, vec![1e3, 25e3, 16e3, 7e3, 1e3]);
        // Both held requests left the moment the connection was free.
        assert_eq!((stats.blocked, stats.late), (2, 0));
        assert_eq!(stats.max_lateness, Duration::ZERO);
    }

    #[test]
    fn a_generator_behind_its_own_schedule_is_late() {
        let clock = FakeClock::new(6 * MS);
        let stats = run(&clock, Duration::ZERO, 10 * MS, 40 * MS, |_| {
            clock.pass(MS);
            true
        });
        // #0 is due at once and needs no wait; the other three each wake
        // 6 ms after their due time with the connection long free.
        assert_eq!((stats.sent, stats.blocked, stats.late), (4, 0, 3));
        assert_eq!(stats.max_lateness, 6 * MS);
        assert_eq!(stats.late_share(), 0.75);
        // The overshoot is in the latency too: counted from due time.
        assert_eq!(stats.latency_us, vec![1e3, 7e3, 7e3, 7e3]);
    }

    #[test]
    fn a_failed_request_is_charged_the_whole_window() {
        let clock = FakeClock::new(Duration::ZERO);
        let stats = run(&clock, 5 * MS, 10 * MS, 30 * MS, |k| k != 1);
        // Due at 5, 15, 25.
        assert_eq!((stats.sent, stats.failed, stats.late), (3, 1, 0));
        assert_eq!(stats.latency_us, vec![0.0, 30e3, 0.0]);
    }
}
