//! The paper's five benchmark applications (§2.1) implemented on the
//! GSWITCH 4-function API, each in ~50 lines of app code — the
//! productivity claim of §4.2 — plus sequential CPU references used by
//! the test suite to verify every kernel variant bit-for-bit (or within
//! float tolerance for PageRank).
//!
//! | Benchmark | Module | Paper reference |
//! |---|---|---|
//! | Breadth-First Search | [`bfs`] | direction-optimizing BFS \[7\] |
//! | Connected Components | [`cc`] | label propagation (cf. Soman \[53\]) |
//! | PageRank | [`pr`] | delta-PageRank \[19\] |
//! | Single-Source Shortest Path | [`sssp`] | dynamic stepping (§3 P4), Bellman-Ford, Δ-stepping \[42\] |
//! | Betweenness Centrality | [`bc`] | Brandes on GPUs \[47\] |

#![warn(missing_docs)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod pr;
pub mod reference;
pub mod sssp;

pub use bfs::Bfs;
pub use cc::Cc;
pub use pr::PageRank;
pub use sssp::{BellmanFord, DeltaStepping, Sssp};
