//! The GSWITCH autotuning engine (Fig. 10).
//!
//! Per super-step the engine runs the paper's three stages:
//!
//! * **Inspector** (host) — checks convergence and assembles the 21-entry
//!   feature vector of Table 1 from the dataset attributes, the runtime
//!   characteristics of the last Filter/Expand, and historical timing.
//! * **Selector** (host) — a [`Policy`] maps the features to a
//!   [`KernelConfig`]: one candidate per pattern, decided in the order
//!   P1 → P3 → P2 → P4 → P5 (§4.5). The production policy is
//!   [`ModelPolicy`] (five CART trees trained offline); [`AutoPolicy`]
//!   ships the hand-derived fallback rules; [`StaticPolicy`] pins a
//!   configuration (that is what the baselines do).
//! * **Executor** (device) — runs the chosen Filter/Expand variants from
//!   `gswitch-kernels` on the simulated GPU and feeds the measured runtime
//!   characteristics back.
//!
//! [`oracle`] adds the offline half: brute-force labelling of every
//! iteration for the feature database (§4.4), as a policy the same loop
//! runs.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cancel;
pub mod engine;
pub mod features;
pub mod model;
pub mod oracle;
pub mod policy;
pub mod sharded;

pub use cancel::{CancelToken, ProbeHandle, RunProbe, StopReason};
pub use engine::{
    panic_message, run, EngineOptions, IterationTrace, PatternMask, RunReport, SentinelReport,
};
pub use features::DecisionContext;
pub use policy::{
    AppCaps, AutoPolicy, Lookahead, ModelEnvelope, ModelLoadReport, ModelPolicy, Policy, Priced,
    StaticPolicy, MODEL_SCHEMA_VERSION,
};
pub use sharded::{run_sharded, ShardError, ShardedOptions, ShardedRunReport, SuperStep};

// Observability handles callers need to request a decision trace
// (`EngineOptions.recorder`); the full registry/summary API lives in
// `gswitch-obs`.
pub use gswitch_obs::{
    Provenance, Recorder, RecorderHandle, SpanCollector, SpanCtx, SpanKind, SpanRecord, SpanRing,
    TraceEvent, TraceRing,
};

// The user programming API re-exported at the crate root: implementing
// `GraphApp` (the paper's filter/emit/comp/compAtomic quartet) is all a
// user writes.
pub use gswitch_kernels::pattern::{
    AsFormat, Direction, Fusion, KernelConfig, LoadBalance, SteppingDelta,
};
pub use gswitch_kernels::{EdgeApp as GraphApp, Status};
