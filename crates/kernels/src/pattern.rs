//! The five algorithmic patterns and their candidates (§3 of the paper),
//! and the one rule that decides which of them an app may run.
//!
//! Each pattern enum lists its candidates once. The declaration order is
//! the class index the oracle labels with and the trained trees predict
//! (`ALL`), and each candidate carries its stable trace wire name. Every
//! configuration the engine runs goes through [`AppCaps::legalise`].

use crate::EdgeApp;
use serde::{Deserialize, Serialize};

/// Declare one pattern's candidate enum with its class table and trace
/// wire names. Declaration order *is* class order — the order the shipped
/// trees were trained on and `golden_traces` hashes — so it never changes.
macro_rules! candidates {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $wire:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every candidate, in class-index order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Class index: the position in [`Self::ALL`].
            pub const fn class(self) -> usize {
                self as usize
            }

            /// Stable trace wire name.
            pub const fn wire(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)+
                }
            }

            /// The candidate a wire name names.
            pub fn from_wire(s: &str) -> Option<Self> {
                Self::ALL.iter().copied().find(|c| c.wire() == s)
            }
        }
    };
}

candidates! {
    /// P1 — Direction: push touches out-edges of active vertices and updates
    /// destinations with atomics; pull touches in-edges of receiver vertices
    /// and combines atomic-free, skipping edges once satisfied (Fig. 2).
    Direction {
        /// Data-driven scatter from the active set.
        Push => "push",
        /// Gather into not-yet-satisfied vertices.
        Pull => "pull",
    }
}

candidates! {
    /// P2 — Active-set data structure (Fig. 4).
    AsFormat {
        /// One bit per vertex. No generation scan, but warp lanes assigned
        /// inactive vertices idle.
        Bitmap => "bitmap",
        /// Compact queue built with warp-aggregated atomic append: cheap to
        /// generate (coalesced), out of order.
        UnsortedQueue => "queue",
        /// Compact queue built with a device-wide prefix scan: costly to
        /// generate, but the Expand enjoys contiguous access.
        SortedQueue => "sorted",
    }
}

candidates! {
    /// P3 — Load balancing (Fig. 6).
    LoadBalance {
        /// Thread/Warp/CTA mapping by degree bucket (B40C). Lowest overhead,
        /// worst balance.
        Twc => "twc",
        /// Warp Mapping: a warp stages 32 vertices' edges through shared
        /// memory with a log2(32)-step binary search per edge batch.
        Wm => "wm",
        /// CTA Mapping: as WM at CTA granularity with log2(cta_size) search
        /// and CTA barriers.
        Cm => "cm",
        /// Equal edges per CTA via sorted search over the offsets (merge-path
        /// LB partitioning). Best balance, highest fixed overhead.
        Strict => "strict",
    }
}

candidates! {
    /// P4 — Stepping: how the dynamic priority threshold of a monotonic
    /// algorithm moves between iterations (±35% active-edge trigger, §3 P4).
    SteppingDelta {
        /// Widen the priority window (workload shrank — seek parallelism).
        Increase => "increase",
        /// Narrow the window (workload exploded — seek work efficiency).
        Decrease => "decrease",
        /// Keep the current window.
        Remain => "remain",
    }
}

candidates! {
    /// P5 — Kernel fusion (Fig. 9).
    Fusion {
        /// Separate Filter and Expand kernels with deduplicated frontiers.
        Standalone => "standalone",
        /// One kernel: Expand emits the next frontier directly, tolerating
        /// duplicates; saves a launch and the dedup/scan pass.
        Fused => "fused",
    }
}

/// The per-iteration kernel configuration the Selector assembles. One value
/// of this struct identifies one of the paper's variants (2 directions × 3
/// formats × 4 load balancers × 2 fusion modes = 48 expand shapes, × 3
/// stepping moves = 144 expand candidates; 12 filter candidates).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelConfig {
    /// P1 direction.
    pub direction: Direction,
    /// P2 active-set format.
    pub format: AsFormat,
    /// P3 load-balancing strategy.
    pub lb: LoadBalance,
    /// P4 stepping move (only consulted by priority-driven apps).
    pub stepping: SteppingDelta,
    /// P5 fusion mode.
    pub fusion: Fusion,
}

impl KernelConfig {
    /// The paper's reference static configuration (what a non-switching
    /// push-based framework would run): push + unsorted queue + TWC +
    /// standalone.
    pub fn push_baseline() -> Self {
        KernelConfig {
            direction: Direction::Push,
            format: AsFormat::UnsortedQueue,
            lb: LoadBalance::Twc,
            stepping: SteppingDelta::Remain,
            fusion: Fusion::Standalone,
        }
    }

    /// Gunrock-like static configuration: push + LB(strict) partitioning.
    pub fn gunrock_like() -> Self {
        KernelConfig { lb: LoadBalance::Strict, ..Self::push_baseline() }
    }

    /// Enumerate every (direction, format, lb, fusion) shape in class
    /// order; stepping is orthogonal and left at `Remain`. Used by
    /// brute-force oracles and tests.
    pub fn all_shapes() -> Vec<KernelConfig> {
        let mut v = Vec::with_capacity(48);
        for &direction in Direction::ALL {
            for &format in AsFormat::ALL {
                for &lb in LoadBalance::ALL {
                    for &fusion in Fusion::ALL {
                        let stepping = SteppingDelta::Remain;
                        v.push(KernelConfig { direction, format, lb, stepping, fusion });
                    }
                }
            }
        }
        v
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::push_baseline()
    }
}

impl std::fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}/{:?}/{:?}/{:?}/{:?}",
            self.direction, self.format, self.lb, self.stepping, self.fusion
        )
    }
}

/// Which patterns the Selector may actually switch — the ablation knob
/// behind Fig. 16 ("incremental performance of GSWITCH"). A masked
/// pattern is pinned to the static baseline candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternMask {
    /// P1 direction switching enabled.
    pub direction: bool,
    /// P2 active-set format switching enabled.
    pub format: bool,
    /// P3 load-balance switching enabled.
    pub load_balance: bool,
    /// P4 stepping enabled.
    pub stepping: bool,
    /// P5 fusion enabled.
    pub fusion: bool,
}

impl PatternMask {
    /// Everything on (production configuration).
    pub fn all() -> Self {
        Self::up_to(5)
    }

    /// Everything off: the non-switching "GSWITCH baseline" of Fig. 16.
    pub fn none() -> Self {
        Self::up_to(0)
    }

    /// Enable patterns P1..=Pk in the paper's numbering (Fig. 16's
    /// incremental bars): `up_to(0)` = baseline, `up_to(5)` = all.
    pub fn up_to(k: usize) -> Self {
        PatternMask {
            direction: k >= 1,
            format: k >= 2,
            load_balance: k >= 3,
            stepping: k >= 4,
            fusion: k >= 5,
        }
    }
}

impl Default for PatternMask {
    fn default() -> Self {
        PatternMask::all()
    }
}

/// What the running application permits, derived from its `EdgeApp`
/// constants. The default permits neither fusion nor stepping.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppCaps {
    /// Fused frontiers allowed (duplicate-tolerant `comp`).
    pub dup_tolerant: bool,
    /// P4 stepping applies (monotonic algorithm with a priority window).
    pub priority_driven: bool,
}

impl AppCaps {
    /// Derive from an `EdgeApp` implementation.
    pub fn of<A: EdgeApp>() -> Self {
        AppCaps { dup_tolerant: A::DUP_TOLERANT, priority_driven: A::PRIORITY_DRIVEN }
    }

    /// Does P4 move under `mask`? Stepping needs a priority-driven app.
    pub fn steps(self, mask: PatternMask) -> bool {
        mask.stepping && self.priority_driven
    }

    /// May a `direction` Expand fuse under `mask`? Fusion needs a
    /// duplicate-tolerant push — pull produces no queue to fuse over.
    pub fn fuses(self, mask: PatternMask, direction: Direction) -> bool {
        mask.fusion && self.dup_tolerant && direction == Direction::Push
    }

    /// The legality rule. Policies only propose; every configuration the
    /// engine runs (decided, seeded, or the reference) is this function of
    /// a proposal: masked-off patterns take their baseline candidate,
    /// fusion survives only where [`fuses`](Self::fuses), stepping only
    /// where [`steps`](Self::steps).
    pub fn legalise(self, mask: PatternMask, proposed: KernelConfig) -> KernelConfig {
        fn pick<T>(on: bool, proposed: T, baseline: T) -> T {
            if on {
                proposed
            } else {
                baseline
            }
        }
        let direction = pick(mask.direction, proposed.direction, Direction::Push);
        KernelConfig {
            direction,
            format: pick(mask.format, proposed.format, AsFormat::UnsortedQueue),
            lb: pick(mask.load_balance, proposed.lb, LoadBalance::Strict),
            stepping: pick(self.steps(mask), proposed.stepping, SteppingDelta::Remain),
            fusion: pick(self.fuses(mask, direction), proposed.fusion, Fusion::Standalone),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shapes_covers_48() {
        let shapes = KernelConfig::all_shapes();
        assert_eq!(shapes.len(), 48);
        let uniq: std::collections::HashSet<_> = shapes.iter().collect();
        assert_eq!(uniq.len(), 48);
    }

    #[test]
    fn fusion_legality() {
        let all = PatternMask::all();
        let tolerant = AppCaps { dup_tolerant: true, priority_driven: true };
        let fused = KernelConfig { fusion: Fusion::Fused, ..KernelConfig::push_baseline() };
        let pulled = KernelConfig { direction: Direction::Pull, ..fused };
        assert_eq!(tolerant.legalise(all, fused), fused);
        assert_eq!(AppCaps::default().legalise(all, fused).fusion, Fusion::Standalone);
        assert_eq!(tolerant.legalise(all, pulled).fusion, Fusion::Standalone);
        // A masked-off direction pins push first, and push may fuse.
        let push_only = PatternMask { direction: false, ..all };
        assert_eq!(tolerant.legalise(push_only, pulled), fused);
        assert_eq!(tolerant.legalise(PatternMask::up_to(4), fused).fusion, Fusion::Standalone);
    }

    #[test]
    fn display_is_compact() {
        let s = KernelConfig::push_baseline().to_string();
        assert!(s.contains("Push") && s.contains("Twc"));
    }
}
