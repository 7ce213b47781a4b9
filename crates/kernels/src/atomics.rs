//! Lock-free per-vertex storage.
//!
//! On the GPU these are plain device arrays hit with `atomicMin`,
//! `atomicAdd`, `atomicCAS`. On the CPU we mirror them with `AtomicU32` /
//! `AtomicU64` and bit-pattern encodings for floats. All operations use
//! `Relaxed` ordering: kernels only need per-location atomicity inside a
//! super-step, and the pool's join at the end of every kernel provides the
//! cross-thread happens-before the next step needs.

use gswitch_graph::VertexId;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A scalar storable in an [`AtomicArray`].
pub trait Value: Copy + PartialEq + Send + Sync + 'static {
    /// The backing atomic bit width's unsigned integer type.
    type Bits: Copy;
    /// Encode to bits.
    fn to_bits_(self) -> u64;
    /// Decode from bits.
    fn from_bits_(bits: u64) -> Self;
    /// Total order used by `fetch_min`/`fetch_max` (IEEE semantics for
    /// floats on non-NaN data).
    fn lt(self, other: Self) -> bool;
    /// Addition used by `fetch_add`.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_value_int {
    ($t:ty) => {
        impl Value for $t {
            type Bits = u64;
            #[inline]
            fn to_bits_(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_bits_(bits: u64) -> Self {
                bits as $t
            }
            #[inline]
            fn lt(self, other: Self) -> bool {
                self < other
            }
            #[inline]
            fn add(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
        }
    };
}
impl_value_int!(u32);
impl_value_int!(u64);

impl Value for f32 {
    type Bits = u64;
    #[inline]
    fn to_bits_(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits_(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    #[inline]
    fn lt(self, other: Self) -> bool {
        self < other
    }
    #[inline]
    fn add(self, other: Self) -> Self {
        self + other
    }
}

impl Value for f64 {
    type Bits = u64;
    #[inline]
    fn to_bits_(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits_(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    #[inline]
    fn lt(self, other: Self) -> bool {
        self < other
    }
    #[inline]
    fn add(self, other: Self) -> Self {
        self + other
    }
}

/// Fixed-size array of atomically updatable values, indexed by vertex.
pub struct AtomicArray<T: Value> {
    cells: Box<[AtomicU64]>,
    _t: std::marker::PhantomData<T>,
}

impl<T: Value> AtomicArray<T> {
    /// An array of `n` copies of `init`.
    pub fn filled(n: usize, init: T) -> Self {
        let bits = init.to_bits_();
        AtomicArray {
            cells: (0..n).map(|_| AtomicU64::new(bits)).collect(),
            _t: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read element `v`.
    #[inline]
    pub fn load(&self, v: VertexId) -> T {
        T::from_bits_(self.cells[v as usize].load(Relaxed))
    }

    /// Write element `v`.
    #[inline]
    pub fn store(&self, v: VertexId, val: T) {
        self.cells[v as usize].store(val.to_bits_(), Relaxed);
    }

    /// Atomic min by `Value::lt`; returns the *previous* value (so
    /// `prev.lt(msg) == false && msg.lt(prev)` means we improved it).
    #[inline]
    pub fn fetch_min(&self, v: VertexId, val: T) -> T {
        let cell = &self.cells[v as usize];
        let mut cur = cell.load(Relaxed);
        loop {
            let cur_v = T::from_bits_(cur);
            if !val.lt(cur_v) {
                return cur_v;
            }
            match cell.compare_exchange_weak(cur, val.to_bits_(), Relaxed, Relaxed) {
                Ok(_) => return cur_v,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomic add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: VertexId, val: T) -> T {
        let cell = &self.cells[v as usize];
        let mut cur = cell.load(Relaxed);
        loop {
            let next = T::from_bits_(cur).add(val);
            match cell.compare_exchange_weak(cur, next.to_bits_(), Relaxed, Relaxed) {
                Ok(_) => return T::from_bits_(cur),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Compare-and-set: store `new` iff the current value equals
    /// `expected`; returns success.
    #[inline]
    pub fn compare_set(&self, v: VertexId, expected: T, new: T) -> bool {
        self.cells[v as usize]
            .compare_exchange(expected.to_bits_(), new.to_bits_(), Relaxed, Relaxed)
            .is_ok()
    }

    /// Snapshot into a plain vector (host-side readback).
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(|c| T::from_bits_(c.load(Relaxed))).collect()
    }

    /// Overwrite every element with `val`.
    pub fn fill(&self, val: T) {
        let bits = val.to_bits_();
        for c in self.cells.iter() {
            c.store(bits, Relaxed);
        }
    }
}

impl<T: Value> std::fmt::Debug for AtomicArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicArray(len={})", self.len())
    }
}

/// Concurrent bitset over vertices: the activation marker the kernels use
/// for duplicate detection, and the storage behind the Bitmap frontier.
pub struct AtomicBitSet {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl AtomicBitSet {
    /// All-zero bitset over `n` bits.
    pub fn new(n: usize) -> Self {
        AtomicBitSet { words: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(), len: n }
    }

    /// The bitset over `n` bits whose word `w` is `words[w]` (bits
    /// `64*w..64*w+64`): words built without atomics, handed over whole.
    /// Bits at or past `n` must be clear.
    pub fn from_words(words: Vec<u64>, n: usize) -> Self {
        assert_eq!(words.len(), n.div_ceil(64), "one word per 64 bits");
        let clear_past_n = words.last().is_none_or(|&w| n.is_multiple_of(64) || w >> (n % 64) == 0);
        assert!(clear_past_n, "no bit past {n}");
        AtomicBitSet { words: words.into_iter().map(AtomicU64::new).collect(), len: n }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `v`; returns `true` when this call flipped it (i.e. `v` was
    /// not already set) — the duplicate detector. The word is read first
    /// and a bit already set costs no write: repeat hits on a hot
    /// destination (a hub's activation bit, a halo vertex many cut edges
    /// point at) then leave the cache line shared instead of pulling it
    /// exclusive once per edge. A racing pair both see it clear and the
    /// `fetch_or` decides, so exactly one caller gets `true` either way.
    #[inline]
    pub fn set(&self, v: VertexId) -> bool {
        if self.get(v) {
            return false;
        }
        let (w, b) = (v as usize / 64, v as usize % 64);
        let prev = self.words[w].fetch_or(1 << b, Relaxed);
        prev & (1 << b) == 0
    }

    /// Clear bit `v`; returns `true` when this call flipped it. Reads
    /// before it writes, like [`set`](Self::set).
    #[inline]
    pub fn unset(&self, v: VertexId) -> bool {
        if !self.get(v) {
            return false;
        }
        let (w, b) = (v as usize / 64, v as usize % 64);
        let prev = self.words[w].fetch_and(!(1 << b), Relaxed);
        prev & (1 << b) != 0
    }

    /// Test bit `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> bool {
        let (w, b) = (v as usize / 64, v as usize % 64);
        self.words[w].load(Relaxed) & (1 << b) != 0
    }

    /// Clear all bits (sequential; called between iterations).
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Relaxed);
        }
    }

    /// Population count.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.load(Relaxed).count_ones() as usize).sum()
    }

    /// Whether any bit is set — stops at the first nonzero word, unlike
    /// [`count`](Self::count) which always sweeps every word. This is the
    /// BSP termination probe: on a live frontier the answer is almost
    /// always in the first few words.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| w.load(Relaxed) != 0)
    }

    /// Number of backing 64-bit words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Load backing word `w` (bits `64*w..64*w+64`).
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w].load(Relaxed)
    }

    /// Software-prefetch hint for the word holding bit `v` (no-op off
    /// x86_64). Purely a cache hint: never reads the bit.
    #[inline(always)]
    pub fn prefetch(&self, v: VertexId) {
        #[cfg(target_arch = "x86_64")]
        {
            let w = v as usize / 64;
            if w < self.words.len() {
                // SAFETY: w is in bounds, so the pointer is valid;
                // PREFETCHT0 never faults and performs no memory access.
                unsafe {
                    std::arch::x86_64::_mm_prefetch(
                        self.words.as_ptr().add(w) as *const i8,
                        std::arch::x86_64::_MM_HINT_T0,
                    );
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    /// Collect the set bits in ascending order.
    pub fn to_sorted_vec(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.count());
        self.append_sorted(&mut out);
        out
    }

    /// Append the set bits to `out` in ascending order: one pass over the
    /// words, zero words skipped.
    pub fn append_sorted(&self, out: &mut Vec<VertexId>) {
        append_set_bits(self.words.iter().map(|w| w.load(Relaxed)), out);
    }
}

/// Append the set bits of `words` — bit `b` of word `w` is `64*w + b` —
/// to `out` in ascending order, zero words skipped.
pub fn append_set_bits(words: impl IntoIterator<Item = u64>, out: &mut Vec<VertexId>) {
    for (wi, mut bits) in words.into_iter().enumerate() {
        while bits != 0 {
            out.push((wi * 64) as VertexId + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

impl std::fmt::Debug for AtomicBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicBitSet(len={}, set={})", self.len, self.count())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the tests race real threads on one cell")]
mod tests {
    use super::*;

    #[test]
    fn u32_min_and_add() {
        let a = AtomicArray::<u32>::filled(3, 100);
        assert_eq!(a.fetch_min(0, 40), 100);
        assert_eq!(a.load(0), 40);
        assert_eq!(a.fetch_min(0, 60), 40); // no improvement
        assert_eq!(a.load(0), 40);
        assert_eq!(a.fetch_add(1, 5), 100);
        assert_eq!(a.load(1), 105);
    }

    #[test]
    fn f32_add_and_min() {
        let a = AtomicArray::<f32>::filled(2, 1.5);
        a.fetch_add(0, 2.25);
        assert_eq!(a.load(0), 3.75);
        a.fetch_min(1, 0.5);
        assert_eq!(a.load(1), 0.5);
    }

    #[test]
    fn compare_set_success_and_failure() {
        let a = AtomicArray::<u32>::filled(1, 7);
        assert!(a.compare_set(0, 7, 9));
        assert!(!a.compare_set(0, 7, 11));
        assert_eq!(a.load(0), 9);
    }

    #[test]
    fn concurrent_min_is_exact() {
        let a = AtomicArray::<u32>::filled(1, u32::MAX);
        std::thread::scope(|s| {
            for t in 0..8 {
                let a = &a;
                s.spawn(move || {
                    for i in 0..1000u32 {
                        a.fetch_min(0, i * 8 + t);
                    }
                });
            }
        });
        assert_eq!(a.load(0), 0);
    }

    #[test]
    fn concurrent_add_conserves_sum() {
        let a = AtomicArray::<f64>::filled(1, 0.0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let a = &a;
                s.spawn(move || {
                    for _ in 0..1000 {
                        a.fetch_add(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(a.load(0), 8000.0);
    }

    #[test]
    fn any_early_exit_agrees_with_count() {
        let b = AtomicBitSet::new(1000);
        assert!(!b.any());
        assert_eq!(b.count(), 0);
        b.set(999); // last word: the worst case for the early exit
        assert!(b.any());
        b.unset(999);
        assert!(!b.any());
        b.set(0);
        assert!(b.any());
        assert_eq!(b.word(0), 1);
        assert_eq!(b.num_words(), 1000usize.div_ceil(64));
        b.prefetch(0);
        b.prefetch(999_999); // out of range: no-op
    }

    #[test]
    fn bitset_set_get_dup() {
        let b = AtomicBitSet::new(130);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(64), "second set is a duplicate");
        assert!(b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
        assert_eq!(b.to_sorted_vec(), vec![0, 64, 129]);
        b.clear();
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn racing_setters_get_exactly_one_true_per_bit() {
        const THREADS: usize = 4;
        const BITS: u32 = 200;
        let b = AtomicBitSet::new(BITS as usize);
        let start = std::sync::Barrier::new(THREADS);
        let wins: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        // Released together so the threads race on the same
                        // bits, set-after-load windows included.
                        start.wait();
                        (0..BITS).filter(|&v| b.set(v)).collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("setter panicked")).collect()
        });
        let mut won: Vec<u32> = wins.into_iter().flatten().collect();
        won.sort_unstable();
        assert_eq!(won, (0..BITS).collect::<Vec<_>>(), "each bit has exactly one winner");
        assert_eq!(b.count(), BITS as usize);
        // Same contract on the way down.
        let cleared: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| s.spawn(|| (0..BITS).filter(|&v| b.unset(v)).count()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("clearer panicked")).sum()
        });
        assert_eq!(cleared, BITS as usize);
        assert!(!b.any());
    }

    #[test]
    fn to_vec_snapshot() {
        let a = AtomicArray::<u64>::filled(4, 9);
        a.store(2, 1);
        assert_eq!(a.to_vec(), vec![9, 9, 1, 9]);
        a.fill(0);
        assert_eq!(a.to_vec(), vec![0, 0, 0, 0]);
    }
}
