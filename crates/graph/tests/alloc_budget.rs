//! Heap budgets of graph construction, measured by a counting global
//! allocator: a weighted twin allocates its weight arrays and nothing
//! else of size, and the builder's transient peak per input edge stays
//! under what the old global triple sort needed (about 32 bytes per
//! undirected edge: two 12-byte triples plus two 4-byte targets).

use gswitch_graph::{gen, GraphBuilder, VertexId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's live heap bytes, its peak, and the bytes
/// it allocated in total. Counters are per thread, so tests running side
/// by side do not see each other; nothing measured here allocates off the
/// calling thread. `realloc` is the default alloc + copy + free, so a
/// resize is charged at both sizes, as it may be in fact.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
    TOTAL.set(TOTAL.get() + bytes);
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counting
// touches only `const`-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`, as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` cost on this thread: (its result, the peak of live bytes
/// above those live when it was called, the bytes it allocated in all).
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.get();
    PEAK.set(base);
    let total = TOTAL.get();
    let out = f();
    (out, PEAK.get() - base, TOTAL.get() - total)
}

/// Room for the name string, `Arc` headers and the like.
const SLACK: usize = 1024;

#[test]
fn weighted_twin_allocates_only_its_weight_arrays() {
    let weight = std::mem::size_of::<gswitch_graph::Weight>();
    let symmetric = gen::barabasi_albert(5_000, 8, 1);
    let directed = GraphBuilder::new(5_000)
        .symmetric(false)
        .edges(symmetric.out_csr().iter_edges().filter(|&(u, v)| (u ^ v) & 1 == 0))
        .build();
    for (g, arrays) in [(&symmetric, 1), (&directed, 2)] {
        let (twin, _, total) = measure(|| gen::with_random_weights(g, 64, 7));
        assert!(twin.is_weighted());
        let budget = arrays * weight * g.num_edges() + SLACK;
        assert!(
            total <= budget,
            "twin of {} ({} edges) allocated {total} bytes, budget {budget}",
            g.name(),
            g.num_edges()
        );
    }
}

#[test]
fn symmetric_build_peaks_under_24_bytes_per_input_edge() {
    // 200 000 undirected edges over 10 000 vertices, drawn with a
    // multiplicative hash: some parallel edges and self loops, as real
    // edge lists have.
    let (n, m) = (10_000u64, 200_000u64);
    let edges: Vec<(VertexId, VertexId)> = (0..m)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((h >> 20) % n, (h >> 42) % n)
        })
        .map(|(u, v)| (u as VertexId, v as VertexId))
        .collect();
    let builder = GraphBuilder::with_capacity(n as usize, m as usize).edges(edges);
    let (g, peak, _) = measure(|| builder.build());
    assert!(g.num_edges() > m as usize, "the build kept too few edges");
    let per_edge = peak as f64 / m as f64;
    assert!(per_edge <= 24.0, "build peaked at {per_edge:.2} bytes per input edge");
}
