//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a cheap, clonable handle (one shared
//! `AtomicBool` plus an optional wall-clock deadline and morsel budget)
//! that long-running queries check at **morsel boundaries** — the
//! natural cancellation points of the engine: the [`crate::Executor`]
//! checks it at every morsel pop, and the single-session
//! [`crate::Database::run_sql_cancellable`] path checks it before each
//! morsel-sized row range it runs. Nothing is interrupted mid-kernel;
//! a tripped token makes the query surface a typed
//! [`SqlError::Cancelled`](crate::SqlError::Cancelled) carrying the
//! [`CancelCause`] — an explicit [`CancelToken::cancel`], a missed
//! deadline, or an exhausted morsel budget — instead of rows.
//!
//! The serving layer is the primary consumer (every wire query gets a
//! token; `Cancel(query_id)` trips it from any connection), but the
//! token is just as useful for library callers: hand a clone to
//! another thread and a runaway analytical query becomes interruptible.
//!
//! ```
//! use vagg_db::{CancelToken, Database, SqlError, Table};
//!
//! let mut db = Database::new();
//! db.register(Table::new("r").with_column("g", (0..4096u32).collect()));
//! let token = CancelToken::new();
//! token.cancel(); // e.g. from another thread holding a clone
//! let err = db
//!     .run_sql_cancellable("SELECT g, COUNT(*) FROM r GROUP BY g", &token)
//!     .unwrap_err();
//! assert!(matches!(err, SqlError::Cancelled(_)));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a query was cancelled — carried by
/// [`SqlError::Cancelled`](crate::SqlError::Cancelled) so callers (and
/// the wire protocol) can tell an explicit kill from a policy kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Requested,
    /// The token's wall-clock deadline passed
    /// ([`CancelToken::with_timeout`]).
    TimedOut,
    /// The query popped more morsels than its budget allows
    /// ([`CancelToken::with_morsel_budget`]).
    OverBudget,
}

impl fmt::Display for CancelCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelCause::Requested => write!(f, "cancelled by request"),
            CancelCause::TimedOut => write!(f, "query timed out"),
            CancelCause::OverBudget => write!(f, "morsel budget exhausted"),
        }
    }
}

const LIVE: u8 = 0;
const REQUESTED: u8 = 1;
const TIMED_OUT: u8 = 2;
const OVER_BUDGET: u8 = 3;

#[derive(Debug)]
struct Inner {
    /// `LIVE` until the first cause trips; the first writer wins, so a
    /// query cancelled *and* timed out reports whichever landed first.
    cause: AtomicU8,
    /// Wall-clock point after which the token trips `TimedOut`.
    deadline: Option<Instant>,
    /// Morsels the query may pop before tripping `OverBudget`.
    budget: Option<u64>,
    /// Morsels popped so far (across every worker running this query).
    morsels: AtomicU64,
}

/// A shared cancellation flag for one query (see
/// [`crate::Database::run_sql_cancellable`]). Clones observe the same
/// flag; all methods are safe to call from any thread.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A live token with no deadline and no budget: it only trips when
    /// [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token that additionally trips [`CancelCause::TimedOut`] once
    /// `timeout` has elapsed (measured from this call).
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::build(Some(Instant::now() + timeout), None)
    }

    /// A token that additionally trips [`CancelCause::OverBudget`]
    /// after `morsels` morsel pops.
    pub fn with_morsel_budget(morsels: u64) -> Self {
        Self::build(None, Some(morsels))
    }

    /// A token with both a wall-clock deadline and a morsel budget —
    /// the serving layer's per-query governor. `None` disables the
    /// respective limit.
    pub fn with_limits(timeout: Option<Duration>, morsels: Option<u64>) -> Self {
        Self::build(timeout.map(|t| Instant::now() + t), morsels)
    }

    fn build(deadline: Option<Instant>, budget: Option<u64>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cause: AtomicU8::new(LIVE),
                deadline,
                budget,
                morsels: AtomicU64::new(0),
            }),
        }
    }

    /// Trips the token: every in-flight check from here on reports
    /// [`CancelCause::Requested`]. Idempotent; a later cause never
    /// overwrites an earlier one.
    pub fn cancel(&self) {
        self.trip(REQUESTED);
    }

    /// Whether the token has tripped (any cause). Checks the deadline
    /// lazily, so a timed-out token reports `true` even if no morsel
    /// boundary has run since the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }

    /// The cause the token tripped for, or `None` while it is live.
    pub fn cause(&self) -> Option<CancelCause> {
        self.check_deadline();
        match self.inner.cause.load(Ordering::Acquire) {
            LIVE => None,
            REQUESTED => Some(CancelCause::Requested),
            TIMED_OUT => Some(CancelCause::TimedOut),
            _ => Some(CancelCause::OverBudget),
        }
    }

    /// Morsels popped against this token so far.
    pub fn morsels(&self) -> u64 {
        self.inner.morsels.load(Ordering::Relaxed)
    }

    /// The morsel-boundary check: counts one pop against the budget,
    /// trips the deadline if it passed, and returns the cause if the
    /// token is no longer live. Called by the [`crate::Executor`] at
    /// every morsel pop and by the single-session morsel loop.
    pub(crate) fn admit_morsel(&self) -> Result<(), CancelCause> {
        let popped = self.inner.morsels.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(budget) = self.inner.budget {
            if popped > budget {
                self.trip(OVER_BUDGET);
            }
        }
        match self.cause() {
            None => Ok(()),
            Some(cause) => Err(cause),
        }
    }

    fn check_deadline(&self) {
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(TIMED_OUT);
            }
        }
    }

    fn trip(&self, cause: u8) {
        // The first cause wins; later trips are no-ops.
        let _ = self
            .inner
            .cause
            .compare_exchange(LIVE, cause, Ordering::AcqRel, Ordering::Acquire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.cause(), None);
        assert!(t.admit_morsel().is_ok());
    }

    #[test]
    fn cancel_trips_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Requested));
        assert_eq!(t.admit_morsel(), Err(CancelCause::Requested));
    }

    #[test]
    fn an_elapsed_deadline_reports_timed_out() {
        let t = CancelToken::with_timeout(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.cause(), Some(CancelCause::TimedOut));
    }

    #[test]
    fn the_budget_counts_morsel_pops() {
        let t = CancelToken::with_morsel_budget(3);
        assert!(t.admit_morsel().is_ok());
        assert!(t.admit_morsel().is_ok());
        assert!(t.admit_morsel().is_ok());
        assert_eq!(t.admit_morsel(), Err(CancelCause::OverBudget));
        assert_eq!(t.morsels(), 4);
    }

    #[test]
    fn the_first_cause_wins() {
        let t = CancelToken::with_morsel_budget(0);
        assert_eq!(t.admit_morsel(), Err(CancelCause::OverBudget));
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::OverBudget));
    }
}
