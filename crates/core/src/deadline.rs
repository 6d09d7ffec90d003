//! Cooperative query deadlines and cancellation.
//!
//! The §5 aggregation loop is a sequence of short rounds, each leaving the
//! query's floor consistent, so bounded-time serving is cheap — the engine
//! only needs a *check point* at
//! block-pop granularity, not preemption. [`Deadline`] is that check
//! point: a cloneable token holding an optional expiry instant and an
//! optional shared cancel flag, consulted once per aggregation round and
//! once per 32-row delta chunk.
//!
//! The unset token is the common case and must stay invisible on the hot
//! path: [`Deadline::check`] is a single inline branch on two `Option`
//! discriminants before anything touches the clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::types::SdError;

/// A shared cancellation flag: clone it into however many queries should
/// be abortable together and call [`CancelToken::cancel`] from any thread.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token: every in-flight query carrying it returns
    /// [`SdError::Cancelled`] at its next check point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A per-query time budget and/or cancel hook, checked cooperatively at
/// block-pop granularity inside the aggregation loops.
///
/// `Deadline::default()` is unlimited and free: the per-round check
/// reduces to one predictable branch. A bounded deadline captures its
/// expiry `Instant` at construction, so build it per query (not per
/// batch).
#[derive(Clone, Debug, Default)]
pub struct Deadline {
    expires_at: Option<Instant>,
    started: Option<Instant>,
    budget: Duration,
    cancel: Option<CancelToken>,
}

impl Deadline {
    /// The unlimited deadline: checks always pass.
    pub fn none() -> Self {
        Deadline::default()
    }

    /// Expires `budget` from now.
    pub fn within(budget: Duration) -> Self {
        let now = Instant::now();
        Deadline {
            expires_at: Some(now + budget),
            started: Some(now),
            budget,
            cancel: None,
        }
    }

    /// Expires `budget_micros` microseconds from now (`0` = unlimited).
    pub fn within_micros(budget_micros: u64) -> Self {
        if budget_micros == 0 {
            Deadline::none()
        } else {
            Deadline::within(Duration::from_micros(budget_micros))
        }
    }

    /// An unlimited deadline that still honours `token`.
    pub fn cancelled_by(token: &CancelToken) -> Self {
        Deadline {
            cancel: Some(token.clone()),
            ..Deadline::default()
        }
    }

    /// Attaches a cancel token to this deadline.
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// `true` when neither a time budget nor a cancel token is set.
    pub fn is_unlimited(&self) -> bool {
        self.expires_at.is_none() && self.cancel.is_none()
    }

    /// The granted budget in microseconds (`0` when unlimited).
    pub fn budget_micros(&self) -> u64 {
        self.budget.as_micros() as u64
    }

    /// The cooperative check point: `Ok(())` while the query may keep
    /// running, a typed error once the budget is spent or the token
    /// tripped. Inlined to a single branch when the deadline is unset.
    #[inline(always)]
    pub fn check(&self) -> Result<(), SdError> {
        if self.expires_at.is_none() && self.cancel.is_none() {
            return Ok(());
        }
        self.check_slow()
    }

    #[cold]
    fn check_slow(&self) -> Result<(), SdError> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(SdError::Cancelled);
            }
        }
        if let Some(at) = self.expires_at {
            let now = Instant::now();
            if now >= at {
                let elapsed = self
                    .started
                    .map(|s| now.duration_since(s))
                    .unwrap_or_default();
                return Err(SdError::DeadlineExceeded {
                    elapsed_micros: elapsed.as_micros() as u64,
                    budget_micros: self.budget.as_micros() as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let d = Deadline::none();
        assert!(d.is_unlimited());
        assert_eq!(d.budget_micros(), 0);
        for _ in 0..1000 {
            assert!(d.check().is_ok());
        }
    }

    #[test]
    fn zero_budget_is_unlimited() {
        assert!(Deadline::within_micros(0).is_unlimited());
        assert!(!Deadline::within_micros(1).is_unlimited());
    }

    #[test]
    fn expired_budget_reports_elapsed_and_budget() {
        let d = Deadline::within(Duration::from_micros(50));
        std::thread::sleep(Duration::from_millis(2));
        match d.check() {
            Err(SdError::DeadlineExceeded {
                elapsed_micros,
                budget_micros,
            }) => {
                assert_eq!(budget_micros, 50);
                assert!(elapsed_micros >= 50);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_passes() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(d.check().is_ok());
    }

    #[test]
    fn cancel_token_trips_every_clone() {
        let token = CancelToken::new();
        let a = Deadline::cancelled_by(&token);
        let b = a.clone();
        assert!(a.check().is_ok());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(a.check(), Err(SdError::Cancelled));
        assert_eq!(b.check(), Err(SdError::Cancelled));
    }

    #[test]
    fn cancel_beats_time_budget() {
        let token = CancelToken::new();
        token.cancel();
        let d = Deadline::within(Duration::from_secs(3600)).with_cancel(&token);
        assert_eq!(d.check(), Err(SdError::Cancelled));
    }
}
