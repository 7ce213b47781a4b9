//! The serving runtime's fault-injection sites. The mechanism — arming,
//! [`Fault`] kinds, seeded [`Schedule`]s, the no-op twin compiled when
//! the `fault-injection` feature is off — is `gswitch_obs::faults`,
//! re-exported here; CI runs `cargo test -p gswitch-runtime --features
//! fault-injection`.

pub use gswitch_obs::faults::*;

/// Named injection sites. Arming any other string is legal but will
/// never fire.
pub mod site {
    /// Fired by [`execute`](crate::execute) and
    /// [`execute_sharded`](crate::execute_sharded) before the engine
    /// starts.
    pub const EXECUTOR_START: &str = "executor::start";
    /// Fired once per engine super-step, from the scheduler's run
    /// probe (so `SlowMs` stretches iterations and `Panic` lands
    /// mid-run, between super-steps).
    pub const ENGINE_ITERATION: &str = "engine::iteration";
    /// Fired by an idle worker **while it holds the queue lock**,
    /// between its shutdown check and its wait for work — the window a
    /// shutdown must not fall into.
    pub const WORKER_IDLE: &str = "worker::idle";
    /// Acted on inside [`ConfigCache::store`](crate::ConfigCache::store)
    /// **while the write lock is held** (decided by `arrive` just before
    /// the lock is taken) — a panic here poisons the cache lock, which
    /// is exactly what the poison-recovery tests need to prove
    /// survivable.
    pub const CACHE_STORE: &str = "cache::store";
    /// Text-transform site on the bytes read by
    /// [`ConfigCache::load_or_empty`](crate::ConfigCache::load_or_empty).
    pub const CACHE_LOAD: &str = "cache::load";
    /// Fired by [`ConfigCache::save`](crate::ConfigCache::save) after
    /// the temp file is written and fsynced but **before** the rename —
    /// the crash window an atomic save must make harmless.
    pub const CACHE_SAVE: &str = "cache::save";
}
