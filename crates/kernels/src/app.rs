//! The user-facing 4-function programming API (paper §4.2, Fig. 11).
//!
//! An application implements [`EdgeApp`] and stores its per-vertex data in
//! the lock-free arrays of [`crate::atomics`]; the kernels drive the
//! callbacks. All tuning details (direction, format, load balance,
//! stepping, fusion) are opaque to the app — exactly the paper's promise.

use gswitch_graph::{VertexId, Weight};

/// Per-iteration vertex classification returned by `filter`.
///
/// `Active` vertices form the push workload and send messages; `Inactive`
/// vertices are the default pull receivers; `Fixed` vertices are converged
/// and touched by no kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Participates in this iteration's computation as a source.
    Active = 0,
    /// Not active; may receive updates (pull) and activate later.
    Inactive = 1,
    /// Converged; never touched again.
    Fixed = 2,
}

/// A graph application in the GSWITCH abstraction.
///
/// The engine guarantees BSP semantics: within one super-step, `filter` /
/// `prepare` run first over all vertices (the Filter kernel), then `emit` +
/// `comp`/`comp_atomic` run over edges (the Expand kernel). App state must
/// use interior mutability ([`crate::atomics`]) because kernels share the
/// app across the worker pool's threads.
pub trait EdgeApp: Sync {
    /// The message an active source sends along an edge (paper: `vmsg`).
    type Msg: Copy + Send;

    /// Classify `v` for the current iteration.
    fn filter(&self, v: VertexId) -> Status;

    /// Update the private data of an *active* vertex (the "Apply/Update"
    /// step the paper folds into Filter, §2.1). Runs exactly once per
    /// active vertex per super-step, before any `emit` of that step. The
    /// Filter runs it with no Expand running and visits each vertex once,
    /// so no `comp`/`comp_atomic` touches `v` concurrently and plain loads
    /// and stores suffice — except inside a fused chain, where the fused
    /// Expand prepares its queue entries while other rows combine into
    /// them; only a [`DUP_TOLERANT`](EdgeApp::DUP_TOLERANT) app fuses.
    fn prepare(&self, _v: VertexId) {}

    /// The message `u` sends over an edge of weight `w` (1 when the graph
    /// is unweighted).
    fn emit(&self, u: VertexId, w: Weight) -> Self::Msg;

    /// Combine `msg` into `dst` with atomic operations (push mode; many
    /// writers). Returns `true` when `dst`'s value changed (it becomes an
    /// activation candidate).
    fn comp_atomic(&self, dst: VertexId, msg: Self::Msg) -> bool;

    /// Combine `msg` into `dst` without atomics (pull mode; `dst` is owned
    /// by the calling lane). Returns `true` when the value changed.
    fn comp(&self, dst: VertexId, msg: Self::Msg) -> bool;

    /// Combine one pull row: apply [`comp`](EdgeApp::comp)`(dst, m)` to
    /// every message of `msgs` in order — stopping after the first success
    /// when [`PULL_EARLY_EXIT`](EdgeApp::PULL_EARLY_EXIT) — and return the
    /// number of successes. The pull kernel calls only this, once per
    /// receiver, with the messages of the row's Active sources in row
    /// order; `msgs` is lazy, so what an early exit leaves unconsumed is
    /// never emitted (that is the edge skipping the kernel prices). The
    /// default is the definition. An override exists to keep `dst`'s cell
    /// in a register across the row (one load, one store) and must be
    /// indistinguishable from the default: same final state bit for bit,
    /// same count, same number of messages consumed.
    ///
    /// Rows of one Expand may run at once, in any order, on the worker
    /// pool: always once its plan has more than 256 tasks, and from 32 Ki
    /// edges when [`pull_rows_independent`](EdgeApp::pull_rows_independent)
    /// and a core is idle; otherwise the rows run in plan order on the
    /// calling thread.
    fn gather(&self, dst: VertexId, msgs: impl Iterator<Item = Self::Msg>) -> u64 {
        let mut wins = 0;
        for m in msgs {
            if self.comp(dst, m) {
                wins += 1;
                if Self::PULL_EARLY_EXIT {
                    break;
                }
            }
        }
        wins
    }

    /// Hook invoked once when a super-step begins, with its index
    /// (0-based). Apps tracking a level/iteration counter update it here.
    fn advance(&self, _iteration: u32) {}

    /// May a pull-mode scan of one destination stop at the first
    /// successful `comp`? True for level-synchronous traversal (BFS: any
    /// parent at the current level gives the same result); false for
    /// value-combining apps (SSSP min, PR sum).
    const PULL_EARLY_EXIT: bool = false;

    /// Whether duplicate frontier entries are harmless (idempotent /
    /// monotonic `comp`). Gates the P5 fused variant.
    const DUP_TOLERANT: bool = true;

    /// Whether `emit` consumes edge weights; when false the kernels skip
    /// the weight loads (and their simulated bytes).
    const NEEDS_WEIGHTS: bool = false;

    /// Whether the app maintains a priority threshold that the P4 stepping
    /// pattern should drive (`adjust_priority`). Only monotonic algorithms
    /// with deferred work (SSSP dynamic stepping) set this.
    const PRIORITY_DRIVEN: bool = false;

    /// Should a vertex with classification `status` receive messages in
    /// pull mode? Default: only `Inactive` (BFS-style: unvisited gather).
    /// Dense value-propagating apps (PR) override to include `Active`.
    fn pull_receives(status: Status) -> bool {
        matches!(status, Status::Inactive)
    }

    /// Does no pull row read a cell that another row of the same Expand
    /// writes? Then any schedule leaves the rows' state bit for bit, and
    /// the pull kernel may pool a plan by its edges, not only by its task
    /// count. A row writes its receiver (`comp`) and reads its Active
    /// sources (`emit`), so the default — no Active vertex receives —
    /// holds by construction. PageRank declares it (`emit` reads only what
    /// `prepare` staged); CC and SSSP must not (`emit` reads the labels and
    /// distances their rows lower, so the trace depends on row order).
    fn pull_rows_independent() -> bool {
        !Self::pull_receives(Status::Active)
    }

    /// Adjust the priority threshold per the P4 stepping decision. Only
    /// priority-driven apps (SSSP dynamic stepping) implement this.
    fn adjust_priority(&self, _delta: crate::pattern::SteppingDelta) {}

    /// The engine found no active vertex. Return `true` after unlocking
    /// more work (e.g. a priority-driven SSSP advancing its threshold past
    /// the pending set) — the engine re-classifies; `false` means the
    /// algorithm has genuinely converged. Default: converged.
    fn rescue(&self) -> bool {
        false
    }

    /// Bound what the next classification has to re-`filter`. Asked
    /// between two classifications, the engine already re-filters (a) every
    /// vertex the earlier one found `Active` and (b) every vertex for which
    /// `comp`/`comp_atomic` returned `true` since — "since" reaching back
    /// across a fused chain, whose steps classify nothing, to the
    /// classification before it. Push onto `out` every *other* vertex
    /// whose `filter` result may differ from the earlier classification —
    /// a level that turns active with the step counter, a deferred set a
    /// threshold move may admit — and return `true`. The
    /// list may over-report (and repeat vertices) but must never
    /// under-report; `false` means "I cannot bound it" and is always safe:
    /// the engine sweeps all vertices, as it does for an app without the
    /// hook.
    fn refilter_hint(&self, _out: &mut Vec<VertexId>) -> bool {
        false
    }

    /// Would a concurrent writer racing with this `msg` have enqueued a
    /// duplicate? On the GPU, two parents writing the *same* value to `dst`
    /// in one fused kernel both see their update "succeed" and both
    /// enqueue `dst`; our CPU atomics resolve the tie exactly, so the
    /// fused Expand asks this hook after a failed `comp_atomic` to decide
    /// whether the losing lane would have enqueued anyway. Default: no
    /// ties (apps that never fuse can ignore it). A duplicate-tolerant app
    /// should return `true` when `msg` equals `dst`'s current value.
    fn would_tie(&self, _dst: VertexId, _msg: Self::Msg) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomics::AtomicArray;

    /// Minimal test app: propagate the minimum seen value.
    struct MinApp {
        vals: AtomicArray<u32>,
    }

    impl EdgeApp for MinApp {
        type Msg = u32;
        fn filter(&self, v: VertexId) -> Status {
            if self.vals.load(v) == u32::MAX {
                Status::Inactive
            } else {
                Status::Active
            }
        }
        fn emit(&self, u: VertexId, _w: Weight) -> u32 {
            self.vals.load(u)
        }
        fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
            self.vals.fetch_min(dst, msg) > msg
        }
        fn comp(&self, dst: VertexId, msg: u32) -> bool {
            let old = self.vals.load(dst);
            if msg < old {
                self.vals.store(dst, msg);
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn default_trait_plumbing() {
        let app = MinApp { vals: AtomicArray::filled(4, u32::MAX) };
        app.vals.store(0, 3);
        assert_eq!(app.filter(0), Status::Active);
        assert_eq!(app.filter(1), Status::Inactive);
        assert!(app.comp_atomic(1, 7));
        assert!(!app.comp_atomic(1, 9));
        assert!(app.comp(2, 5));
        assert!(MinApp::pull_receives(Status::Inactive));
        assert!(!MinApp::pull_receives(Status::Active));
        // default hooks are no-ops
        app.prepare(0);
        app.advance(3);
        app.adjust_priority(crate::pattern::SteppingDelta::Increase);
    }
}
