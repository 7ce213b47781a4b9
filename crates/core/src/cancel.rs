//! Cooperative cancellation for engine runs.
//!
//! The engine has no preemption points finer than a super-step, so
//! stopping a run mid-flight is necessarily cooperative: the loop polls
//! a probe once per iteration (before any kernel work) and exits early
//! when the probe says stop, recording the reason in
//! [`RunReport::stopped`](crate::RunReport). The poll costs one
//! `Option` check when no probe is installed — the same discipline as
//! the decision-trace recorder.
//!
//! [`CancelToken`] is the standard probe: a cancel [`Flag`] plus an
//! optional wall-clock deadline. A serving scheduler hands each job a
//! token built from its admission deadline, keeps it while the job
//! runs (so `cancel` can reach a job that already started), and maps
//! the stop reason onto the job's terminal status.

use gswitch_obs::sync::Flag;
use std::sync::Arc;
use std::time::Instant;

/// Why a run was stopped before convergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The caller asked the run to stop.
    Cancelled,
    /// The run's deadline passed while it was executing.
    DeadlineExceeded,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Polled by the engine once per super-step; `Some` stops the run.
pub trait RunProbe: Send + Sync {
    /// Return `Some(reason)` to stop the run before `iteration` does
    /// any work. Called at the top of every super-step.
    fn check(&self, iteration: u32) -> Option<StopReason>;
}

/// A shareable probe slot for [`EngineOptions`](crate::EngineOptions):
/// either no probe (free) or an `Arc<dyn RunProbe>`.
#[derive(Clone, Default)]
pub struct ProbeHandle(Option<Arc<dyn RunProbe>>);

impl ProbeHandle {
    /// No probe: the engine runs to convergence unconditionally.
    pub fn none() -> Self {
        ProbeHandle(None)
    }

    /// Install `probe`.
    pub fn new(probe: Arc<dyn RunProbe>) -> Self {
        ProbeHandle(Some(probe))
    }

    /// Whether a probe is installed.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Poll the probe, if any.
    #[inline]
    pub fn check(&self, iteration: u32) -> Option<StopReason> {
        match &self.0 {
            Some(p) => p.check(iteration),
            None => None,
        }
    }
}

impl std::fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProbeHandle").field(&self.0.as_ref().map(|_| "dyn RunProbe")).finish()
    }
}

/// The standard probe: a cancel flag plus an optional deadline.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: Flag,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only ever stops when [`CancelToken::cancel`] is
    /// called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally stops once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken { cancelled: Flag::new(false), deadline: Some(deadline) }
    }

    /// Ask the run to stop at its next super-step. Whatever the
    /// canceller wrote before (deadline bookkeeping, outcome state) is
    /// visible to the run that observes the flip.
    pub fn cancel(&self) {
        self.cancelled.set(true);
    }

    /// Whether [`CancelToken::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

impl RunProbe for CancelToken {
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline comparison, not a measurement: no interval is produced, so there \
                  is nothing for a span profile to miss"
    )]
    fn check(&self, _iteration: u32) -> Option<StopReason> {
        if self.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(StopReason::DeadlineExceeded),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_handle_never_stops() {
        let h = ProbeHandle::none();
        assert!(!h.is_enabled());
        assert_eq!(h.check(0), None);
        assert_eq!(h.check(1_000_000), None);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "deadlines are Instants")]
    fn token_cancel_and_deadline() {
        let t = CancelToken::new();
        assert_eq!(t.check(0), None);
        t.cancel();
        assert_eq!(t.check(1), Some(StopReason::Cancelled));

        let past = Instant::now() - Duration::from_millis(1);
        let t = CancelToken::with_deadline(past);
        assert_eq!(t.check(0), Some(StopReason::DeadlineExceeded));
        // Cancellation outranks the deadline: the caller's explicit
        // request is the more specific signal.
        t.cancel();
        assert_eq!(t.check(0), Some(StopReason::Cancelled));

        let future = Instant::now() + Duration::from_secs(3600);
        let t = CancelToken::with_deadline(future);
        assert_eq!(t.check(0), None);
    }
}
