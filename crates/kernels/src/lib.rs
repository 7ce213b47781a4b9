//! The GSWITCH parameterized kernel library.
//!
//! The paper's back-end compiles the five algorithmic patterns into 12
//! standalone filter kernels and 144 expand variants (§4.5) as C++
//! templates. Here the same variant space is realised as Rust generics over
//! an [`EdgeApp`] (the 4-function user API of Fig. 11) running on the CPU
//! as parts on the `gswitch_pool` worker pool, with every variant exactly
//! instrumented for the `gswitch-simt` pricing model:
//!
//! * [`pattern`] — the candidate enums of the five patterns (class order
//!   and trace wire names), the [`pattern::KernelConfig`] tuple the
//!   Selector chooses each iteration, and the one legality rule
//!   ([`pattern::AppCaps::legalise`]) every configuration passes.
//! * [`app`] — the [`EdgeApp`] trait (`filter`/`emit`/`comp`/`comp_atomic`
//!   plus the `prepare` "Apply/Update" hook folded into Filter, §2.1).
//! * [`atomics`] — lock-free vertex-value arrays (`u32`/`u64`/`f32`/`f64`)
//!   and an atomic bitset, the building blocks every app stores its data in.
//! * [`bucket`] — degree-bucketed work partitioning: frontier degree
//!   prefix sums formed into small/warp/cta task blocks (the SpMSpV/SpMV
//!   load balancer), cacheable across super-steps for prefix-sum reuse.
//! * [`frontier`] — the P2 active-set formats (bitmap / unsorted queue /
//!   sorted queue) with their generation cost accounting (Fig. 4).
//! * [`filter`] — the Filter primitive: classify vertices (all of them, or
//!   only those that can have changed since the resident
//!   [`Classification`]), update private data of actives, emit runtime
//!   characteristics, and build the workload frontier in the chosen format.
//! * [`expand()`](fn@expand) — the Expand primitive in push and pull
//!   modes with fused/standalone variants (P1, P5), and its one charge,
//!   [`expand::expand_cost`], which also prices the counts
//!   [`expand::analyze`] predicts for the oracle.
//! * [`lb`] — the P3 load-balancing strategies (TWC/WM/CM/STRICT of Fig. 6)
//!   as warp-task pricing over the per-slot workload.
//! * [`exchange`] — inter-shard frontier-exchange volume accounting for
//!   partitioned execution (duplicate-merge policy + routed-byte counts).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod app;
pub mod atomics;
pub mod bucket;
pub mod exchange;
pub mod expand;
pub mod filter;
pub mod frontier;
pub mod lb;
pub mod pattern;

pub use app::{EdgeApp, Status};
pub use bucket::{DegreeSource, WorkPlan};
pub use exchange::ExchangeProfile;
pub use expand::{expand, expand_planned, ExpandOutput};
pub use filter::{classify, materialize, Classification, ClassifyOutput, IterStats, WorkloadStats};
pub use frontier::Frontier;
pub use pattern::{AsFormat, Direction, Fusion, KernelConfig, LoadBalance, SteppingDelta};
