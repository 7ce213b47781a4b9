//! Clean fixture: the sharded view counts exchange records once per
//! Active vertex from its precomputed cut degree; the per-edge callback
//! only marks a per-destination bit.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct HaloView<'a, A> {
    app: &'a A,
    n_owned: u32,
    cut_degree: Vec<u32>,
    halo_records: AtomicU64,
    halo_seen: AtomicBitSet,
}

impl<A: EdgeApp> EdgeApp for HaloView<'_, A> {
    fn prepare(&self, v: u32) {
        self.halo_records.fetch_add(u64::from(self.cut_degree[v as usize]), Ordering::Relaxed);
        self.app.prepare(v);
    }

    fn comp_atomic(&self, dst: u32, msg: A::Msg) -> bool {
        if dst >= self.n_owned {
            self.halo_seen.set(dst - self.n_owned);
        }
        self.app.comp_atomic(dst, msg)
    }
}
