//! Property test of the cost model: on every preset device a kernel's
//! time is finite, non-negative, and never drops when any one count in
//! its profile grows. The oracle's argmin over priced shapes relies on
//! it: more work must never price cheaper.

use gswitch_simt::{DeviceSpec, KernelProfile, TaskStats};
use proptest::prelude::*;

/// The counts a profile is priced by, in [`profile`]'s order.
const COUNTS: [&str; 9] = [
    "task total cycles",
    "task max cycles",
    "atomics",
    "atomic conflicts",
    "scan elements",
    "syncs",
    "bytes read",
    "bytes written",
    "launches",
];

fn profile(c: &[u64]) -> KernelProfile {
    KernelProfile {
        tasks: TaskStats { total_cycles: c[0] as f64, max_cycles: c[1] as f64, count: 1 },
        atomics: c[2],
        atomic_conflicts: c[3],
        scan_elems: c[4],
        syncs: c[5],
        bytes_read: c[6],
        bytes_written: c[7],
        launches: c[8] as u32,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `shift` scales the whole profile down, so small counts (a handful
    /// of conflicts, one launch) are drawn as often as huge ones. Every
    /// count and its growth stay below 2³¹, so a grown launch count still
    /// fits its `u32`.
    #[test]
    fn kernel_time_is_finite_non_negative_and_monotone_in_every_count(
        counts in proptest::collection::vec(0u64..1 << 31, COUNTS.len()..COUNTS.len() + 1),
        grown in 0usize..COUNTS.len(),
        by in 1u64..1 << 31,
        shift in 0u32..31,
    ) {
        let counts: Vec<u64> = counts.iter().map(|c| c >> shift).collect();
        let mut more = counts.clone();
        more[grown] += (by >> shift).max(1);
        for spec in [DeviceSpec::k40m(), DeviceSpec::p100()] {
            let (before, after) =
                (spec.kernel_time_ms(&profile(&counts)), spec.kernel_time_ms(&profile(&more)));
            prop_assert!(
                before.is_finite() && before >= 0.0,
                "{}: {before} ms for {counts:?}",
                spec.name
            );
            prop_assert!(
                after >= before,
                "{}: growing {} of {counts:?} to {more:?} priced {before} → {after} ms",
                spec.name,
                COUNTS[grown]
            );
        }
    }
}
