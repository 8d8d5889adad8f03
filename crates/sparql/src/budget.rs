//! Cooperative query budgets: deadlines, scan caps, and cancel tokens.
//!
//! A public endpoint needs a kill switch, not just quotas on query
//! count: a single pathological BGP can otherwise pin an evaluation
//! thread until it runs to completion. A [`QueryBudget`] bounds one
//! query's execution along three axes — wall-clock deadline, rows
//! scanned, and intermediate bindings held — plus an external
//! [`CancelToken`] so a server can abort in-flight work (drain, client
//! disconnect) without waiting for a timer.
//!
//! Enforcement is **cooperative**: the evaluator calls a cheap per-row
//! tick inside its scan loops. Row/binding caps are exact; the deadline
//! and the cancel token are polled every [`POLL_INTERVAL`] scanned rows
//! (an `Instant::now()` per row would dominate small queries), so a
//! cancelled or expired query unwinds within one poll interval of scan
//! work rather than instantly — bounded, not immediate. The unbudgeted
//! path pays a single predictable branch per row.

use crate::error::SparqlError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many scanned rows pass between deadline/cancel polls. Row and
/// binding caps are checked exactly; only the clock read and the token
/// load are amortised over this many rows.
pub const POLL_INTERVAL: u32 = 1024;

/// Why a budgeted query was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetBreach {
    /// The wall-clock deadline passed.
    Deadline,
    /// The attached [`CancelToken`] was tripped.
    Cancelled,
    /// More rows were scanned than the budget allows.
    RowsScanned {
        /// The configured scan cap.
        limit: u64,
    },
    /// More intermediate bindings were held than the budget allows.
    Bindings {
        /// The configured binding cap.
        limit: usize,
    },
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetBreach::Deadline => write!(f, "deadline exceeded"),
            BudgetBreach::Cancelled => write!(f, "cancelled"),
            BudgetBreach::RowsScanned { limit } => {
                write!(f, "scanned more than {limit} rows")
            }
            BudgetBreach::Bindings { limit } => {
                write!(f, "held more than {limit} intermediate bindings")
            }
        }
    }
}

/// A shared flag that aborts every query polling it. One token can be
/// attached to many budgets (a server trips one token to cancel all
/// in-flight work when its drain deadline passes).
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: every query polling it unwinds with
    /// [`BudgetBreach::Cancelled`] within one poll interval. Idempotent,
    /// and never un-trips.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Execution limits for one query. `Default` is unlimited — every
/// existing entry point runs under an unlimited budget and pays only a
/// dead branch per scanned row.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Absolute wall-clock deadline; polled every [`POLL_INTERVAL`] rows.
    pub deadline: Option<Instant>,
    /// Exact cap on rows scanned across all index ranges of the query.
    /// A row of a `VALUES` table is charged as a query of its own, here
    /// and for `max_bindings`: what it scans and binds does not carry
    /// over to the next row.
    pub max_rows_scanned: Option<u64>,
    /// Exact cap on intermediate bindings held at any point.
    pub max_bindings: Option<usize>,
    /// External abort switch; polled every [`POLL_INTERVAL`] rows.
    pub cancel: Option<Arc<CancelToken>>,
}

impl QueryBudget {
    /// The no-op budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether every limit is absent (the tracker disables itself).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_rows_scanned.is_none()
            && self.max_bindings.is_none()
            && self.cancel.is_none()
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline to `limit` from now.
    pub fn with_time_limit(self, limit: Duration) -> Self {
        // sofya: allow(determinism) — deadline enforcement is wall-clock by contract; budgets never alter surviving results
        self.with_deadline(Instant::now() + limit)
    }

    /// Caps rows scanned.
    pub fn with_max_rows_scanned(mut self, max: u64) -> Self {
        self.max_rows_scanned = Some(max);
        self
    }

    /// Caps intermediate bindings held.
    pub fn with_max_bindings(mut self, max: usize) -> Self {
        self.max_bindings = Some(max);
        self
    }

    /// Attaches an external cancel token.
    pub fn with_cancel(mut self, token: Arc<CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Time left until the deadline (`None` when no deadline is set;
    /// zero once passed).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            // sofya: allow(determinism) — deadline enforcement is wall-clock by contract
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The polled checks: cancel token first (an explicit abort wins over
    /// a coincident expiry), then the deadline.
    pub fn check_expired(&self) -> Result<(), SparqlError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(SparqlError::budget(BudgetBreach::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            // sofya: allow(determinism) — deadline enforcement is wall-clock by contract
            if Instant::now() >= deadline {
                return Err(SparqlError::budget(BudgetBreach::Deadline));
            }
        }
        Ok(())
    }
}

/// Per-execution budget state threaded through the evaluator. Created
/// once per query; the disabled (unlimited) form reduces every check to
/// one branch.
pub(crate) struct BudgetTracker<'a> {
    budget: &'a QueryBudget,
    enabled: bool,
    scanned: u64,
    countdown: u32,
}

impl<'a> BudgetTracker<'a> {
    pub(crate) fn new(budget: &'a QueryBudget) -> Self {
        Self {
            budget,
            enabled: !budget.is_unlimited(),
            scanned: 0,
            countdown: POLL_INTERVAL,
        }
    }

    /// Checked once before execution starts, so an already-expired or
    /// already-cancelled query fails even on paths that never scan
    /// (index-shortcut counts, provably-empty plans).
    pub(crate) fn preflight(&self) -> Result<(), SparqlError> {
        if !self.enabled {
            return Ok(());
        }
        self.budget.check_expired()
    }

    /// The per-scanned-row tick: exact row-cap accounting, amortised
    /// deadline/cancel polling.
    #[inline]
    pub(crate) fn tick_scan(&mut self) -> Result<(), SparqlError> {
        if !self.enabled {
            return Ok(());
        }
        self.tick_scan_enabled()
    }

    fn tick_scan_enabled(&mut self) -> Result<(), SparqlError> {
        self.scanned += 1;
        if let Some(max) = self.budget.max_rows_scanned {
            if self.scanned > max {
                return Err(SparqlError::budget(BudgetBreach::RowsScanned {
                    limit: max,
                }));
            }
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = POLL_INTERVAL;
            self.budget.check_expired()?;
        }
        Ok(())
    }

    /// Rows scanned so far.
    pub(crate) fn scanned(&self) -> u64 {
        self.scanned
    }

    /// Forgets every row scanned since [`BudgetTracker::scanned`] read
    /// `mark`.
    pub(crate) fn rewind(&mut self, mark: u64) {
        self.scanned = mark;
    }

    /// Exact check against the binding cap for a solution set about to
    /// hold `held` rows.
    pub(crate) fn check_bindings(&self, held: usize) -> Result<(), SparqlError> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(max) = self.budget.max_bindings {
            if held > max {
                return Err(SparqlError::budget(BudgetBreach::Bindings { limit: max }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_disables_the_tracker() {
        let budget = QueryBudget::unlimited();
        assert!(budget.is_unlimited());
        let mut t = BudgetTracker::new(&budget);
        t.preflight().unwrap();
        for _ in 0..10_000 {
            t.tick_scan().unwrap();
        }
        t.check_bindings(usize::MAX).unwrap();
    }

    #[test]
    fn row_cap_is_exact() {
        let budget = QueryBudget::unlimited().with_max_rows_scanned(5);
        let mut t = BudgetTracker::new(&budget);
        for _ in 0..5 {
            t.tick_scan().unwrap();
        }
        let err = t.tick_scan().unwrap_err();
        assert!(matches!(
            err,
            SparqlError::Budget {
                breach: BudgetBreach::RowsScanned { limit: 5 }
            }
        ));
    }

    #[test]
    fn binding_cap_is_exact() {
        let budget = QueryBudget::unlimited().with_max_bindings(3);
        let t = BudgetTracker::new(&budget);
        t.check_bindings(3).unwrap();
        assert!(t.check_bindings(4).is_err());
    }

    #[test]
    fn cancel_token_is_polled_within_one_interval() {
        let token = Arc::new(CancelToken::new());
        let budget = QueryBudget::unlimited().with_cancel(Arc::clone(&token));
        let mut t = BudgetTracker::new(&budget);
        token.cancel();
        assert!(token.is_cancelled());
        let mut failed_at = None;
        for i in 0..=u64::from(POLL_INTERVAL) {
            if t.tick_scan().is_err() {
                failed_at = Some(i);
                break;
            }
        }
        assert_eq!(failed_at, Some(u64::from(POLL_INTERVAL) - 1));
    }

    #[test]
    fn expired_deadline_fails_preflight() {
        let budget = QueryBudget::unlimited().with_deadline(Instant::now());
        let t = BudgetTracker::new(&budget);
        let err = t.preflight().unwrap_err();
        assert!(matches!(
            err,
            SparqlError::Budget {
                breach: BudgetBreach::Deadline
            }
        ));
        assert_eq!(budget.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_wins_over_a_coincident_deadline() {
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let budget = QueryBudget::unlimited()
            .with_deadline(Instant::now())
            .with_cancel(token);
        assert!(matches!(
            budget.check_expired().unwrap_err(),
            SparqlError::Budget {
                breach: BudgetBreach::Cancelled
            }
        ));
    }
}
