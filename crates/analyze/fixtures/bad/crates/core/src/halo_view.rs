//! Fixture: `per-edge-shared-rmw` (1 expected). The sharded view as it
//! counted exchange records before PR 23: one `fetch_add` on the view's
//! own counter for every cut edge, from every lane's pool thread.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct HaloView<'a, A> {
    app: &'a A,
    n_owned: u32,
    halo_records: AtomicU64,
    halo_seen: AtomicBitSet,
}

impl<A: EdgeApp> EdgeApp for HaloView<'_, A> {
    fn comp_atomic(&self, dst: u32, msg: A::Msg) -> bool {
        if dst >= self.n_owned {
            self.halo_records.fetch_add(1, Ordering::Relaxed);
            self.halo_seen.set(dst - self.n_owned);
        }
        self.app.comp_atomic(dst, msg)
    }
}
