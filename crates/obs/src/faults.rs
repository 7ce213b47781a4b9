//! Deterministic fault injection: the one registry every layer's fault
//! sites fire through.
//!
//! Compiled to no-ops unless the `fault-injection` cargo feature is on
//! (the core, shard and runtime features of that name forward to this
//! crate's), so production builds pay nothing and cannot be armed. With
//! the feature on, tests arm faults at **named sites** — fixed strings
//! each layer lists beside the code that fires them
//! (`gswitch_core::engine::fault_site`, `gswitch_runtime::faults::site`)
//! — and the code fires them at exactly those points:
//!
//! * [`Fault::Panic`] — panic at the site (one-shot under [`arm`] /
//!   [`arm_after`]: auto-disarms when it fires, so a retry of the same
//!   job can succeed).
//! * [`Fault::SlowMs`] — sleep at the site, every time it is reached
//!   (how tests make a fast simulated job overrun a real deadline).
//! * [`Fault::CorruptText`] — mangle text flowing through the site
//!   (how tests corrupt a cache file between disk and parser).
//! * [`Fault::Trip`] — nothing at the site itself: [`fire_for`] reports
//!   the firing and the caller loses or damages its own data (a shard's
//!   result at the exchange barrier, one entry of a frontier).
//!
//! A `skip` count delays a fault past the first `skip` firings, which
//! is what "panic mid-expand on iteration 3" means in the integration
//! suite.
//!
//! Beyond the one-shot/persistent arms, [`arm_schedule`] attaches a
//! [`Schedule`] to a site: periodic firings (`every(n)`, optionally
//! `.after(skip)` / `.times(limit)`), seeded pseudo-random firings
//! (`random(seed, one_in)`), or firings for one site argument only
//! (`.only(arg)` — the target shard of a site several lanes reach).
//! Schedules apply to *every* fault kind — including recurring panics,
//! which the chaos-soak harness uses to keep re-injuring the worker pool
//! for thousands of jobs. All randomness is a pure function of
//! `(seed, arrival index)`, so chaos runs replay bit-identically under a
//! fixed seed.
//!
//! All state is process-global; a test that arms faults holds
//! `exclusive()` (compiled with the feature) for its whole body.

/// What an armed site does when reached.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Panic with this message. One-shot under [`arm`]/[`arm_after`]
    /// (disarms as it fires); recurring under a [`Schedule`].
    Panic(String),
    /// Sleep this many milliseconds. Persistent until disarmed.
    SlowMs(u64),
    /// Replace text passing through the site with unparseable garbage.
    /// Persistent until disarmed.
    CorruptText,
    /// Do nothing at the site; [`fire_for`] returns `true` and the caller
    /// acts on it. Persistent until disarmed.
    Trip,
}

/// When a scheduled fault fires, as a pure function of the site's
/// arrival counter. Built with [`Schedule::every`] / [`Schedule::once`]
/// / [`Schedule::random`] plus the [`Schedule::after`],
/// [`Schedule::times`] and [`Schedule::only`] modifiers.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Arrivals to let pass before the schedule starts.
    skip: u64,
    /// Fire every `period` arrivals once started (periodic mode).
    period: u64,
    /// Stop after this many firings (`None` = unlimited).
    limit: Option<u64>,
    /// Random mode: `(seed, one_in)` — fire when
    /// `splitmix64(seed ^ arrival) % one_in == 0`.
    random: Option<(u64, u64)>,
    /// Count and fire only arrivals whose site argument equals this.
    only: Option<u64>,
}

impl Schedule {
    /// Fire on every `period`-th arrival (period 1 = every arrival).
    pub fn every(period: u64) -> Self {
        Schedule { skip: 0, period: period.max(1), limit: None, random: None, only: None }
    }

    /// Fire exactly once, on the first arrival (compose with
    /// [`Schedule::after`] to delay it).
    pub fn once() -> Self {
        Schedule::every(1).times(1)
    }

    /// Fire pseudo-randomly on roughly one in `one_in` arrivals.
    /// Deterministic: whether arrival `i` fires depends only on
    /// `(seed, i)`, so a fixed seed replays identically.
    pub fn random(seed: u64, one_in: u64) -> Self {
        Schedule {
            skip: 0,
            period: 1,
            limit: None,
            random: Some((seed, one_in.max(1))),
            only: None,
        }
    }

    /// Let the first `skip` arrivals pass before the schedule starts.
    pub fn after(mut self, skip: u64) -> Self {
        self.skip = skip;
        self
    }

    /// Disarm after `limit` firings.
    pub fn times(mut self, limit: u64) -> Self {
        self.limit = Some(limit.max(1));
        self
    }

    /// Apply only to arrivals from [`fire_for`] with this site argument
    /// (the target shard); every other arrival passes uncounted.
    pub fn only(mut self, arg: u64) -> Self {
        self.only = Some(arg);
        self
    }

    /// Whether arrival number `arrival` (0-based) fires. Pure — a
    /// function of the schedule and the index only — so tests can
    /// predict a chaos run and replays agree bit-for-bit.
    pub fn fires(&self, arrival: u64) -> bool {
        if arrival < self.skip {
            return false;
        }
        match self.random {
            Some((seed, one_in)) => splitmix64(seed ^ arrival).is_multiple_of(one_in),
            None => (arrival - self.skip).is_multiple_of(self.period),
        }
    }
}

/// SplitMix64: the standard 64-bit finalizer; a bijective scramble, so
/// distinct arrival indices give independent-looking draws from one
/// seed. Shared with the scheduler's retry jitter.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(feature = "fault-injection")]
mod armed {
    use super::{Fault, Schedule};
    use crate::sync::Lock;
    use std::collections::HashMap;

    struct ArmedFault {
        fault: Fault,
        schedule: Schedule,
        /// Arrivals seen so far (including non-firing ones).
        arrivals: u64,
        /// Firings so far (for `Schedule::times` and [`fired`]).
        fired: u64,
    }

    static SITES: Lock<Option<HashMap<String, ArmedFault>>> = Lock::new(None);

    fn with_sites<R>(f: impl FnOnce(&mut HashMap<String, ArmedFault>) -> R) -> R {
        let mut guard = SITES.lock();
        f(guard.get_or_insert_with(HashMap::new))
    }

    /// Arm `fault` at `site`, letting the first `skip` arrivals pass: a
    /// `Panic` then fires once, every other fault on every arrival.
    pub fn arm_after(site: &str, skip: u64, fault: Fault) {
        let schedule = match fault {
            Fault::Panic(_) => Schedule::once(),
            _ => Schedule::every(1),
        };
        arm_schedule(site, schedule.after(skip), fault);
    }

    /// Arm `fault` at `site` on a deterministic [`Schedule`]. Unlike
    /// [`super::arm`], a scheduled `Panic` recurs until the schedule's limit
    /// (if any) is exhausted.
    pub fn arm_schedule(site: &str, schedule: Schedule, fault: Fault) {
        let armed = ArmedFault { fault, schedule, arrivals: 0, fired: 0 };
        with_sites(|s| s.insert(site.to_string(), armed));
    }

    /// Disarm one site.
    pub fn disarm(site: &str) {
        with_sites(|s| s.remove(site));
    }

    /// Disarm everything (test teardown).
    pub fn reset() {
        with_sites(|s| s.clear());
    }

    /// How many times the fault armed at `site` has fired.
    pub fn fired(site: &str) -> u64 {
        with_sites(|s| s.get(site).map_or(0, |armed| armed.fired))
    }

    /// Decide what to do at `site` without holding the lock while
    /// acting (a panic must not poison the fault table itself).
    fn take_action(site: &str, arg: u64) -> Option<Fault> {
        with_sites(|s| {
            let armed = s.get_mut(site)?;
            let schedule = &armed.schedule;
            // A schedule that reached its limit is disarmed; its entry
            // stays so `fired` can still be read.
            let spent = schedule.limit.is_some_and(|l| armed.fired >= l);
            if spent || schedule.only.is_some_and(|target| target != arg) {
                return None;
            }
            armed.arrivals += 1;
            if !schedule.fires(armed.arrivals - 1) {
                return None;
            }
            armed.fired += 1;
            Some(armed.fault.clone())
        })
    }

    /// Decide whether this arrival at `site` fires, without acting on
    /// it (see [`super::act`]).
    pub fn arrive(site: &str) -> Option<Fault> {
        take_action(site, 0)
    }

    /// Fire `site` on behalf of `arg` (the lane's shard): may panic or
    /// sleep; returns whether a fault fired, which is all a
    /// [`Fault::Trip`] does.
    pub fn fire_for(site: &str, arg: u64) -> bool {
        super::act(site, take_action(site, arg))
    }

    /// Pass `text` through `site`, corrupting it if so armed. Panics
    /// and sleeps also apply here.
    pub fn transform_text(site: &str, text: String) -> String {
        match take_action(site, 0) {
            Some(Fault::CorruptText) => {
                // Truncate mid-token and append garbage: defeats both
                // full and partial JSON parses.
                let mut cut = text.len() / 2;
                while cut > 0 && !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                format!("{}\u{0}garbage%%", &text[..cut])
            }
            fault => {
                super::act(site, fault);
                text
            }
        }
    }

    /// Holds the fault table for one test: see [`exclusive`].
    #[derive(Debug)]
    #[must_use = "the table is shared again as soon as the guard is dropped"]
    pub struct Exclusive {
        _table: std::sync::MutexGuard<'static, ()>,
    }

    impl Drop for Exclusive {
        fn drop(&mut self) {
            reset();
        }
    }

    /// Serialize the tests that arm faults (the table is process-global):
    /// the caller owns the table, emptied now and again when the guard
    /// drops. A test holds this across every call it makes, so it stands
    /// outside the lock order of [`crate::sync`] and is a plain std lock;
    /// a test that failed while holding it poisoned it, which changes
    /// nothing for the next one.
    #[expect(
        clippy::disallowed_types,
        reason = "test serialization held across calls that take the order-checked locks"
    )]
    pub fn exclusive() -> Exclusive {
        static TABLE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let held =
            Exclusive { _table: TABLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner) };
        reset();
        held
    }
}

#[cfg(feature = "fault-injection")]
pub use armed::{
    arm_after, arm_schedule, arrive, disarm, exclusive, fire_for, fired, reset, transform_text,
    Exclusive,
};

/// No-op stubs compiled when the `fault-injection` feature is off:
/// sites cannot be armed and firing costs nothing.
#[cfg(not(feature = "fault-injection"))]
mod disarmed {
    use super::{Fault, Schedule};

    /// No-op (enable the `fault-injection` feature to arm faults).
    pub fn arm_after(_site: &str, _skip: u64, _fault: Fault) {}
    /// No-op (enable the `fault-injection` feature to arm faults).
    pub fn arm_schedule(_site: &str, _schedule: Schedule, _fault: Fault) {}
    /// No-op.
    pub fn disarm(_site: &str) {}
    /// No-op.
    pub fn reset() {}
    /// Always 0.
    pub fn fired(_site: &str) -> u64 {
        0
    }
    /// Never fires.
    #[inline(always)]
    pub fn arrive(_site: &str) -> Option<Fault> {
        None
    }
    /// Never fires.
    #[inline(always)]
    pub fn fire_for(_site: &str, _arg: u64) -> bool {
        false
    }
    /// Identity.
    #[inline(always)]
    pub fn transform_text(_site: &str, text: String) -> String {
        text
    }
}

#[cfg(not(feature = "fault-injection"))]
pub use disarmed::{
    arm_after, arm_schedule, arrive, disarm, fire_for, fired, reset, transform_text,
};

/// Arm `fault` at `site`, firing on the first arrival.
pub fn arm(site: &str, fault: Fault) {
    arm_after(site, 0, fault);
}

/// Fire `site`: may panic or sleep.
#[inline(always)]
pub fn fire(site: &str) {
    fire_for(site, 0);
}

/// Act on what [`arrive`] decided at `site`: panic or sleep as armed;
/// returns whether a fault fired. A site that acts while it holds a lock
/// arrives before taking it, since the fault table is itself a leaf lock
/// ([`crate::sync`]) and nothing may be acquired under a leaf.
#[inline(always)]
pub fn act(site: &str, fault: Option<Fault>) -> bool {
    match fault {
        Some(Fault::Panic(msg)) => panic!("injected fault at {site}: {msg}"),
        Some(Fault::SlowMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            true
        }
        Some(Fault::CorruptText | Fault::Trip) => true,
        None => false,
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    /// Sites are plain strings; this one belongs to no layer.
    const SITE: &str = "test::site";

    #[test]
    fn panic_fault_is_one_shot_and_skippable() {
        let _g = exclusive();
        arm_after(SITE, 2, Fault::Panic("boom".into()));
        fire(SITE); // skip 1
        fire(SITE); // skip 2
        let err = std::panic::catch_unwind(|| fire(SITE)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom"), "panic message was `{msg}`");
        // One-shot: the site is clean again.
        fire(SITE);
    }

    #[test]
    fn corrupt_text_mangles_until_disarmed() {
        let _g = exclusive();
        let clean = "{\"version\":1}".to_string();
        assert_eq!(transform_text(SITE, clean.clone()), clean);
        arm(SITE, Fault::CorruptText);
        let mangled = transform_text(SITE, clean.clone());
        assert_ne!(mangled, clean);
        assert!(serde_json::parse(&mangled).is_err());
        disarm(SITE);
        assert_eq!(transform_text(SITE, clean.clone()), clean);
    }

    #[test]
    fn scheduled_panic_recurs_on_its_period() {
        let _g = exclusive();
        // Fire on arrivals 1 and 4 (skip 1, then every 3rd), twice only.
        arm_schedule(SITE, Schedule::every(3).after(1).times(2), Fault::Panic("recurring".into()));
        let mut fired = Vec::new();
        for arrival in 0..10 {
            if std::panic::catch_unwind(|| fire(SITE)).is_err() {
                fired.push(arrival);
            }
        }
        assert_eq!(fired, vec![1, 4], "periodic panic must recur then hit its limit");
    }

    #[test]
    fn random_schedule_is_deterministic_and_roughly_calibrated() {
        let _g = exclusive();
        let run = || {
            arm_schedule(SITE, Schedule::random(42, 5), Fault::SlowMs(0));
            let sched = Schedule::random(42, 5);
            let fired: Vec<u64> = (0..200).filter(|&i| sched.fires(i)).collect();
            disarm(SITE);
            fired
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay identically");
        // one-in-5 over 200 arrivals: expect ~40, accept a wide band.
        assert!(a.len() > 15 && a.len() < 80, "rate off: {} firings", a.len());
    }

    #[test]
    fn once_schedule_fires_exactly_once() {
        let _g = exclusive();
        arm_schedule(SITE, Schedule::once(), Fault::Panic("one save".into()));
        assert!(std::panic::catch_unwind(|| fire(SITE)).is_err());
        fire(SITE); // disarmed after its single firing
    }

    #[test]
    fn targeted_schedule_fires_for_its_argument_only_and_counts() {
        let _g = exclusive();
        arm_schedule(SITE, Schedule::once().only(2), Fault::Trip);
        assert!(!fire_for(SITE, 0));
        assert!(!fire_for(SITE, 1));
        assert_eq!(fired(SITE), 0, "other arguments pass uncounted");
        assert!(fire_for(SITE, 2));
        assert!(!fire_for(SITE, 2), "once() disarms as it fires");
        assert_eq!(fired(SITE), 1, "the count outlives the one-shot arm");
        reset();
        assert_eq!(fired(SITE), 0);
    }

    #[test]
    fn trip_is_persistent_and_leaves_text_alone() {
        let _g = exclusive();
        arm(SITE, Fault::Trip);
        assert!(fire_for(SITE, 7) && fire_for(SITE, 8));
        assert_eq!(transform_text(SITE, "x".into()), "x");
        assert_eq!(fired(SITE), 3);
    }
}
