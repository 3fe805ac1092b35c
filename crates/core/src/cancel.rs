//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheap, cloneable handle carrying an optional
//! wall-clock deadline and an explicit cancel flag. Solvers poll the
//! token between units of work — a uniform column sweep every 64
//! columns, whole-horizon or windowed; a step-grid sweep every column;
//! Newton every iteration — and bail out with
//! [`crate::OpmError::Cancelled`] instead of running to completion.
//! This is what lets a server enforce a per-request compute deadline
//! without preemption: a deadline-busting solve stops at its next
//! poll, the thread is reclaimed, and every other request keeps its
//! factorization cache intact.
//!
//! The flag/deadline protocol itself lives in [`CancelCore`], generic
//! over [`CancelFlag`] and [`DeadlineSource`] so `opm-verify` can run
//! it on shim primitives under a deterministic scheduler (with a
//! virtual clock in place of [`Instant`]) and check cross-thread
//! visibility and monotonicity: once any clone observes the token as
//! cancelled, every later check on every clone agrees.
//!
//! ```
//! use opm_core::cancel::CancelToken;
//!
//! let token = CancelToken::new();
//! assert!(token.check().is_ok());
//! token.cancel();
//! assert!(token.check().is_err());
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{AtomicCancelFlag, CancelFlag, DeadlineSource};
use crate::OpmError;

/// Why a [`CancelCore`] reports itself cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelCore::cancel`] was called on some clone.
    Explicit,
    /// The deadline elapsed.
    Deadline,
}

/// The cancellation protocol, generic over the flag and the clock.
///
/// Monotone by construction: the flag is set-once
/// ([`CancelFlag::set`] is idempotent, never cleared) and the deadline
/// source only moves from pending to expired — so
/// [`CancelCore::reason`] can only go from `None` to `Some`, never
/// back. The explicit flag is checked before the deadline, so a token
/// that is both cancelled and expired consistently reports
/// [`CancelReason::Explicit`].
#[derive(Debug)]
pub struct CancelCore<F: CancelFlag, D: DeadlineSource> {
    flag: F,
    deadline: Option<D>,
}

impl<F: CancelFlag + Default, D: DeadlineSource> Default for CancelCore<F, D> {
    fn default() -> Self {
        CancelCore {
            flag: F::default(),
            deadline: None,
        }
    }
}

impl<F: CancelFlag, D: DeadlineSource> CancelCore<F, D> {
    /// A core over the given flag, with an optional deadline.
    pub fn new(flag: F, deadline: Option<D>) -> Self {
        CancelCore { flag, deadline }
    }

    /// Raises the flag; every holder observes it.
    pub fn cancel(&self) {
        self.flag.set();
    }

    /// Whether the flag is raised or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// Why the core is cancelled, or `None` while it is live.
    pub fn reason(&self) -> Option<CancelReason> {
        if self.flag.get() {
            return Some(CancelReason::Explicit);
        }
        if self.deadline.as_ref().is_some_and(DeadlineSource::expired) {
            return Some(CancelReason::Deadline);
        }
        None
    }

    /// The deadline source, when one was set.
    pub fn deadline(&self) -> Option<&D> {
        self.deadline.as_ref()
    }
}

/// A wall-clock [`DeadlineSource`]: expired once [`Instant::now`]
/// reaches the stored instant.
#[derive(Clone, Copy, Debug)]
pub struct InstantDeadline {
    at: Instant,
}

impl DeadlineSource for InstantDeadline {
    fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// A cloneable cancellation handle: explicit [`CancelToken::cancel`]
/// plus an optional deadline fixed at construction. All clones share
/// one flag, so any holder can stop every cooperating solve.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelCore<AtomicCancelFlag, InstantDeadline>>,
}

impl CancelToken {
    /// A token with no deadline; cancels only via
    /// [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that auto-cancels `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelCore::new(
                AtomicCancelFlag::default(),
                Some(InstantDeadline {
                    at: Instant::now() + budget,
                }),
            )),
        }
    }

    /// Flags the token; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancel();
    }

    /// Whether the token is cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// `Err(OpmError::Cancelled)` once cancelled/past deadline — the
    /// polling form solvers call between work units.
    ///
    /// # Errors
    /// [`OpmError::Cancelled`] naming the cause (explicit cancel or
    /// elapsed deadline).
    pub fn check(&self) -> Result<(), OpmError> {
        match self.inner.reason() {
            None => Ok(()),
            Some(CancelReason::Explicit) => Err(OpmError::Cancelled("solve cancelled".into())),
            Some(CancelReason::Deadline) => {
                Err(OpmError::Cancelled("compute deadline exceeded".into()))
            }
        }
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// zero once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline()
            .map(|d| d.at.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(matches!(b.check(), Err(OpmError::Cancelled(_))));
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.is_cancelled());
        let err = t.check().unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn unexpired_deadline_passes() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn explicit_cancel_outranks_an_elapsed_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        t.cancel();
        let err = t.check().unwrap_err();
        assert!(err.to_string().contains("solve cancelled"), "{err}");
    }
}
