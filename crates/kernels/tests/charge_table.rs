//! The golden charge table: what `expand_cost` and `materialize_cost`
//! charge, in simulated ms, for a fixed dozen of workloads on both device
//! presets, frozen bit for bit under one `COST_MODEL_VERSION`.
//!
//! A change to either charge, to `lb`'s task pricing or to the device
//! model moves these bits, and every cached oracle label with them. So a
//! mismatch fails and prints the fresh table: bump `COST_MODEL_VERSION`
//! (`gswitch-simt`), then paste the table here under the new version.

use gswitch_kernels::expand::{expand_cost, ExpandCounts, ExpandShape};
use gswitch_kernels::filter::materialize_cost;
use gswitch_kernels::AsFormat::{self, Bitmap, SortedQueue, UnsortedQueue};
use gswitch_kernels::Direction::{self, Pull, Push};
use gswitch_kernels::LoadBalance::{self, Cm, Strict, Twc, Wm};
use gswitch_simt::{DeviceSpec, COST_MODEL_VERSION};

/// The version [`FROZEN`] was computed under.
const FROZEN_AT: u32 = 8;

/// One workload: `(direction, format, lb, needs_weights, slots, degrees,
/// hub)` — `slots` entries whose degrees cycle over `degrees`, the middle
/// one replaced by a hub of `hub` edges when that is non-zero, over a
/// graph of `3 · slots` vertices (a bitmap puts entry `s` on vertex
/// `3s`). Push conflicts are 40 % of the edges; pull hits 40 % and
/// wins 25 %.
type Case = (Direction, AsFormat, LoadBalance, bool, usize, &'static [u32], u32);

const CASES: [Case; 12] = [
    (Push, UnsortedQueue, Twc, false, 1, &[3], 0),
    (Push, UnsortedQueue, Twc, false, 5_000, &[1, 2, 8, 40], 0),
    (Push, SortedQueue, Wm, false, 5_000, &[1, 2, 8, 40], 0),
    (Push, Bitmap, Cm, false, 5_000, &[1, 2, 8, 40], 0),
    (Push, UnsortedQueue, Strict, true, 2_000, &[2, 3], 120_000),
    (Push, Bitmap, Twc, true, 70_000, &[0, 4, 9], 0),
    (Pull, UnsortedQueue, Twc, false, 8_000, &[6, 1, 30], 0),
    (Pull, SortedQueue, Strict, false, 8_000, &[6, 1, 30], 5_000),
    (Pull, Bitmap, Wm, true, 8_000, &[6, 1, 30], 0),
    (Pull, Bitmap, Cm, false, 20_000, &[300, 2], 0),
    (Pull, UnsortedQueue, Cm, true, 0, &[1], 0),
    (Pull, SortedQueue, Twc, true, 40_000, &[1, 1, 2, 70], 0),
];

/// `(case, device, expand ms bits, materialize ms bits)`.
const FROZEN: &[(usize, &str, u64, u64)] = &[
    (0, "k40m", 0x3f7b50120ece0b0c, 0x3f789434e7912f7e),
    (0, "p100", 0x3f718bc1041d1684, 0x3f706279237ff59f),
    (1, "k40m", 0x3fb0ef6e8394d3e0, 0x3f7912e319b6ba24),
    (1, "p100", 0x3f92fa38fc0533ed, 0x3f709470da4636c5),
    (2, "k40m", 0x3fb038f089230b3b, 0x3f89ad9ff8b7dd6a),
    (2, "p100", 0x3f9214b2d3ff7a72, 0x3f80d1523e9a9895),
    (3, "k40m", 0x3fb0a54bddf52b19, 0x3f78d0e560418937),
    (3, "p100", 0x3f92b9d42479ebd5, 0x3f707a7a2431494b),
    (4, "k40m", 0x3fbe2c7a54c821a1, 0x3f78c66dae88fd0b),
    (4, "p100", 0x3f9f3ce6e9b295bb, 0x3f70765bd5e048b3),
    (5, "k40m", 0x3fd967e7b0ea9def, 0x3f7bef9db22d0e56),
    (5, "p100", 0x3fbbe04be9d9633b, 0x3f71b4ba446c604a),
    (6, "k40m", 0x3f8a67ba237cdcca, 0x3f795f5884e4773d),
    (6, "p100", 0x3f7b7e1b4868f79a, 0x3f70b285deac24d8),
    (7, "k40m", 0x3f87c5bb30daf2d0, 0x3f8a56ed1ce64946),
    (7, "p100", 0x3f797685065b01e1, 0x3f8113ee7f3327be),
    (8, "k40m", 0x3f8b52441100c168, 0x3f78f5c28f5c28f6),
    (8, "p100", 0x3f7c36a963d4f2d6, 0x3f7088fb21bddc14),
    (9, "k40m", 0x3fcb58eaf42ef989, 0x3f7989374bc6a7f0),
    (9, "p100", 0x3fb5f05ae00a1acf, 0x3f70c2ff17f02737),
    (10, "k40m", 0x3f789374bc6a7efa, 0x3f789374bc6a7efa),
    (10, "p100", 0x3f70624dd2f1a9fc, 0x3f70624dd2f1a9fc),
    (11, "k40m", 0x3fa90eca8641fdb9, 0x3f90b2674f6ab93b),
    (11, "p100", 0x3f956572e0d514df, 0x3f83da7130391ec4),
];

/// Every case charged on both presets.
fn charge_table() -> Vec<(usize, &'static str, u64, u64)> {
    let mut rows = Vec::new();
    for (i, &(direction, format, lb, weights, slots, degrees, hub)) in CASES.iter().enumerate() {
        let mut compact: Vec<u32> = (0..slots).map(|s| degrees[s % degrees.len()]).collect();
        if hub > 0 {
            compact[slots / 2] = hub;
        }
        let edges: u64 = compact.iter().map(|&d| d as u64).sum();
        let (bitmap, n) = (format == Bitmap, 3 * slots);
        let mut full = vec![0u32; n];
        for (s, &d) in compact.iter().enumerate() {
            full[3 * s] = d;
        }
        let shape = ExpandShape {
            touched: if bitmap { &full } else { &compact },
            bitmap,
            sorted: format == SortedQueue,
        };
        let counts = match direction {
            Push => ExpandCounts { edges, conflicts: edges * 40 / 100, ..Default::default() },
            Pull => {
                ExpandCounts { edges, hits: edges * 40 / 100, wins: edges * 25 / 100, conflicts: 0 }
            }
        };
        for (name, spec) in [("k40m", DeviceSpec::k40m()), ("p100", DeviceSpec::p100())] {
            let expand = expand_cost(&spec, direction, lb, weights, &shape, &counts);
            let gen = materialize_cost(format, n, slots as u64, &spec);
            rows.push((
                i,
                name,
                spec.kernel_time_ms(&expand).to_bits(),
                spec.kernel_time_ms(&gen).to_bits(),
            ));
        }
    }
    rows
}

#[test]
fn charges_are_frozen_under_this_cost_model_version() {
    let fresh = charge_table();
    if fresh == FROZEN && FROZEN_AT == COST_MODEL_VERSION {
        return;
    }
    let mut table = format!(
        "const FROZEN_AT: u32 = {COST_MODEL_VERSION};\n\
         const FROZEN: &[(usize, &str, u64, u64)] = &[\n"
    );
    for (i, device, expand, gen) in &fresh {
        table.push_str(&format!("    ({i}, \"{device}\", {expand:#018x}, {gen:#018x}),\n"));
    }
    table.push_str("];\n");
    let what = if FROZEN_AT == COST_MODEL_VERSION {
        "the charges moved: bump COST_MODEL_VERSION, then freeze this table under it"
    } else {
        "COST_MODEL_VERSION moved: freeze this table under it"
    };
    panic!("{what}\n{table}");
}
