//! Brownout: sustained-overload detection and degraded-mode serving.
//!
//! When queue occupancy stays above a high watermark, the runtime
//! *browns out* rather than falling over: it sheds optional work to
//! buy throughput — the divergence sentinel (`verify_every`) is
//! suspended and batch quota admission is tightened (see
//! [`ShardService`](crate::shards::ShardService)). Decision tracing is
//! not optional work here: it measures at 0.4–1.0 % of a run
//! (`obs.trace_overhead_pct`), and degraded runs are the ones worth
//! reading afterwards. The `health` verb
//! reports the degraded state; normal service resumes automatically
//! once occupancy stays below the low watermark.
//!
//! Detection uses consecutive-sample hysteresis on admission-time
//! occupancy samples: `enter_after` consecutive samples at or above
//! `enter_occupancy` engage the brownout, `exit_after` consecutive
//! samples at or below `exit_occupancy` disengage it. The asymmetric
//! watermarks (high in, low out) prevent flapping at the boundary.

use crate::obs::metric;
use gswitch_obs::{Counter, Gauge, MetricsRegistry};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Brownout detection thresholds.
#[derive(Clone, Debug)]
pub struct BrownoutConfig {
    /// Queue occupancy (0.0–1.0) at or above which a sample counts
    /// toward entering brownout.
    pub enter_occupancy: f64,
    /// Queue occupancy at or below which a sample counts toward
    /// exiting brownout. Must be below `enter_occupancy`.
    pub exit_occupancy: f64,
    /// Consecutive high samples required to engage (minimum 1).
    pub enter_after: u32,
    /// Consecutive low samples required to disengage (minimum 1).
    pub exit_after: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            enter_occupancy: 0.90,
            exit_occupancy: 0.50,
            enter_after: 8,
            exit_after: 8,
        }
    }
}

/// The brownout state machine. Sampled on every admission; read
/// (lock-free) on every hot path that degrades under brownout.
#[derive(Debug)]
pub struct Brownout {
    config: BrownoutConfig,
    active: AtomicBool,
    high_streak: AtomicU32,
    low_streak: AtomicU32,
    entered: Counter,
    exited: Counter,
    active_gauge: Gauge,
}

impl Brownout {
    /// A brownout detector reporting into `registry` under the
    /// canonical metric names.
    pub fn new(config: BrownoutConfig, registry: &MetricsRegistry) -> Self {
        Brownout {
            config: BrownoutConfig {
                enter_occupancy: config.enter_occupancy.clamp(0.0, 1.0),
                exit_occupancy: config.exit_occupancy.clamp(0.0, 1.0),
                enter_after: config.enter_after.max(1),
                exit_after: config.exit_after.max(1),
            },
            active: AtomicBool::new(false),
            high_streak: AtomicU32::new(0),
            low_streak: AtomicU32::new(0),
            entered: registry.counter(metric::BROWNOUT_ENTERED),
            exited: registry.counter(metric::BROWNOUT_EXITED),
            active_gauge: registry.gauge(metric::BROWNOUT_ACTIVE),
        }
    }

    /// Whether degraded mode is currently engaged.
    ///
    /// Acquire pairs with the AcqRel swaps in
    /// [`Brownout::on_sample`]: an admission thread that sees the flag
    /// flip also sees the streak resets and gauge update that preceded
    /// the transition.
    #[inline]
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// The configured thresholds.
    pub fn config(&self) -> &BrownoutConfig {
        &self.config
    }

    /// Brownout activations so far.
    pub fn entered(&self) -> u64 {
        self.entered.get()
    }

    /// Brownout deactivations so far.
    pub fn exited(&self) -> u64 {
        self.exited.get()
    }

    /// Feed one occupancy sample (0.0–1.0) from an admission decision.
    ///
    /// Samples race harmlessly under concurrent submission: streak
    /// updates are per-counter atomics, and the worst interleaving only
    /// delays a transition by a sample or two — hysteresis exists
    /// precisely so single-sample precision does not matter.
    pub fn on_sample(&self, occupancy: f64) {
        if self.active() {
            if occupancy <= self.config.exit_occupancy {
                let low = self.low_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if low >= self.config.exit_after && self.active.swap(false, Ordering::AcqRel) {
                    self.exited.inc();
                    self.active_gauge.set(0);
                    self.low_streak.store(0, Ordering::Relaxed);
                }
            } else {
                self.low_streak.store(0, Ordering::Relaxed);
            }
        } else if occupancy >= self.config.enter_occupancy {
            let high = self.high_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if high >= self.config.enter_after && !self.active.swap(true, Ordering::AcqRel) {
                self.entered.inc();
                self.active_gauge.set(1);
                self.high_streak.store(0, Ordering::Relaxed);
                self.low_streak.store(0, Ordering::Relaxed);
            }
        } else {
            self.high_streak.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(enter_after: u32, exit_after: u32) -> Brownout {
        Brownout::new(
            BrownoutConfig { enter_occupancy: 0.8, exit_occupancy: 0.3, enter_after, exit_after },
            &MetricsRegistry::new(),
        )
    }

    #[test]
    fn engages_after_sustained_high_occupancy_only() {
        let b = detector(3, 2);
        b.on_sample(0.9);
        b.on_sample(0.9);
        assert!(!b.active(), "two high samples must not engage a 3-sample brownout");
        // A dip resets the streak.
        b.on_sample(0.5);
        b.on_sample(0.9);
        b.on_sample(0.9);
        assert!(!b.active());
        b.on_sample(0.95);
        assert!(b.active());
        assert_eq!(b.entered(), 1);
    }

    #[test]
    fn disengages_after_sustained_low_occupancy_with_hysteresis() {
        let b = detector(1, 2);
        b.on_sample(1.0);
        assert!(b.active());
        // Mid-band samples (between the watermarks) keep brownout on.
        b.on_sample(0.6);
        b.on_sample(0.2);
        assert!(b.active(), "one low sample must not disengage a 2-sample exit");
        b.on_sample(0.6);
        b.on_sample(0.2);
        b.on_sample(0.1);
        assert!(!b.active());
        assert_eq!((b.entered(), b.exited()), (1, 1));
    }

    #[test]
    fn reengages_after_recovery() {
        let b = detector(1, 1);
        b.on_sample(0.9);
        b.on_sample(0.1);
        b.on_sample(0.9);
        assert!(b.active());
        assert_eq!(b.entered(), 2);
        assert_eq!(b.exited(), 1);
    }
}
