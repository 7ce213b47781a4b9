//! Analytic SIMT execution-model simulator.
//!
//! The paper measures kernel variants on real Nvidia K40m and P100 GPUs. We
//! have no GPU, so `gswitch-kernels` runs every variant *for real* on the
//! CPU while counting the device-relevant work it performs — edges touched,
//! atomics issued, coalesced vs. random memory words, binary-search steps,
//! per-warp lockstep work, prefix-scan elements, kernel launches. This crate
//! converts those counts into simulated milliseconds under a device model.
//!
//! The model is deliberately first-order:
//!
//! * A kernel is a bag of **warp tasks**; each task has a cycle estimate
//!   derived from the lockstep rule (a warp is as slow as its busiest lane).
//! * The device offers `sm_count × warps_per_sm` concurrent warp slots;
//!   makespan is the greedy-scheduling bound
//!   `max(total_cycles / slots, longest_task)`.
//! * A kernel cannot beat global memory bandwidth: the final time is
//!   `max(compute_time, bytes_moved / bandwidth) + launches × launch_overhead`.
//!
//! First-order is enough: the autotuner's decisions (and the paper's
//! figures) depend on the *relative ordering* of variants, which is driven
//! by workload structure the kernels measure exactly, not by microarch
//! details. See DESIGN.md §2 for the substitution argument.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod device;
pub mod profile;

pub use device::DeviceSpec;
pub use profile::{KernelProfile, TaskStats};

/// Simulated durations are carried as milliseconds in `f64`, the same unit
/// as every runtime table in the paper.
pub type SimMs = f64;

/// Version tag of the pricing model and feature encoding. Bump whenever
/// cost constants, pricing formulas, or the feature transform change, so
/// cached oracle labels and features are invalidated, never silently
/// reused. v7: bitmap-mode Expand charges workload reads word-granularly
/// (8 bytes per backing `u64`, each word once) instead of per-chunk
/// `len/8` rounding. v8: Expand is priced and charged by one
/// `expand_cost`; oracle bitmap prices are now word-granular.
pub const COST_MODEL_VERSION: u32 = 8;
