//! Per-kernel rows: every hot kernel (classify, its dirty-set update,
//! materialize × format × direction, expand × format × direction) on a
//! fixed mid-BFS workload, plus pull Expand at a dense level (the first
//! step of PR and of CC: every vertex Active, every in-edge gathered) —
//! the mid-BFS pull rows exit early after 229 edges and time only the
//! call's fixed cost. Frontier and dirty-set sizes, edges touched and the
//! simulated ms of each Expand are exact; host wall µs are timed.

#![expect(clippy::disallowed_methods, reason = "offline: times each kernel call on its own")]

use super::{round_to, Row, Snapshot, Timed, KERNEL_WALL_ABS_US};
use gswitch_algos::{Bfs, Cc, PageRank};
use gswitch_kernels::{
    classify, expand, expand_planned, materialize, AsFormat, Classification, Direction, EdgeApp,
    KernelConfig, WorkPlan,
};
use gswitch_simt::DeviceSpec;
use serde_json::json;
use std::time::Instant;

/// Kronecker scale of the fixed workload graph.
const SCALE: u32 = 13;
/// BFS level at which the kernels are measured (frontier in the hump).
const LEVEL: u32 = 2;
/// Wall samples per kernel.
const REPEATS: usize = 7;

const FORMATS: [(AsFormat, &str); 3] = [
    (AsFormat::Bitmap, "bitmap"),
    (AsFormat::SortedQueue, "sorted_queue"),
    (AsFormat::UnsortedQueue, "unsorted_queue"),
];
const DIRECTIONS: [(Direction, &str); 2] = [(Direction::Push, "push"), (Direction::Pull, "pull")];

/// A mid-frontier BFS state on a scale-free graph: the workload shape the
/// selector sees most often.
fn mid_bfs() -> (gswitch_graph::Graph, Bfs, Vec<u8>) {
    let g = gswitch_graph::gen::kronecker(SCALE, 8, 42);
    let app = Bfs::new(g.num_vertices(), 0);
    let spec = DeviceSpec::k40m();
    for it in 0..LEVEL {
        app.advance(it);
        let co = classify(&g, &app, &spec);
        let (f, _) =
            materialize::<Bfs>(&g, &co.status, Direction::Push, AsFormat::UnsortedQueue, &spec);
        expand(&g, &app, &f, &co.status, KernelConfig::push_baseline(), &spec);
    }
    app.advance(LEVEL);
    let co = classify(&g, &app, &spec);
    (g, app, co.status)
}

fn wall_us(samples: Vec<f64>) -> Timed {
    Timed::from_samples(samples, KERNEL_WALL_ABS_US)
}

/// The first super-step of `make()` as a pull Expand over a sorted queue
/// of all receivers, with the work plan already built (the engine reuses
/// it while the workload repeats, as PR's and CC's dense steps do), so the
/// row times the gather and not the degree scan. Expand mutates the app:
/// every repeat starts from a fresh one and times only the kernel.
fn dense_pull<A: EdgeApp>(g: &gswitch_graph::Graph, make: impl Fn() -> A) -> Row {
    let spec = DeviceSpec::k40m();
    let cfg = KernelConfig {
        direction: Direction::Pull,
        format: AsFormat::SortedQueue,
        ..KernelConfig::push_baseline()
    };
    let mut wall = Vec::with_capacity(REPEATS);
    let (mut edges, mut sim_ms) = (0u64, 0.0f64);
    for _ in 0..REPEATS {
        let app = make();
        app.advance(0);
        let co = classify(g, &app, &spec);
        let (frontier, _) = materialize::<A>(g, &co.status, cfg.direction, cfg.format, &spec);
        let plan = WorkPlan::for_frontier(g, &frontier, cfg.direction);
        let t0 = Instant::now();
        let eo = expand_planned(g, &app, &frontier, &co.status, cfg, &spec, Some(&plan));
        wall.push(t0.elapsed().as_secs_f64() * 1e6);
        (edges, sim_ms) = (eo.edges_touched, spec.kernel_time_ms(&eo.profile));
    }
    Row::default()
        .exact("edges", edges)
        .exact("sim_ms", round_to(sim_ms, 3))
        .timed("wall_us", wall_us(wall))
}

/// Measure every kernel row.
pub fn measure() -> Snapshot {
    let spec = DeviceSpec::k40m();
    let graph = format!("kronecker({SCALE},8,42)");
    let mut snap = Snapshot::new("kernels", &spec.name, json!({ "graph": graph, "level": LEVEL }));

    // classify: re-runs on the same state are idempotent, time in place.
    {
        let (g, app, _) = mid_bfs();
        let mut wall = Vec::with_capacity(REPEATS);
        let mut v_active = 0u64;
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let co = classify(&g, &app, &spec);
            wall.push(t0.elapsed().as_secs_f64() * 1e6);
            v_active = co.stats.v_active;
        }
        let row = Row::default().exact("workload", v_active).timed("wall_us", wall_us(wall));
        snap.rows.insert("classify".into(), row);
    }

    // The dirty-set update next to the sweep it stands in for, the two
    // ways the engine meets it. `active`: nothing changed, so only the
    // level's own vertices are re-filtered — idempotent, timed in place.
    // `next`: the step after a push Expand of this level re-filters the
    // activated vertices and the old level, and as the first update after
    // a sweep also compacts the Active list and counts receivers per
    // in-degree; Expand mutates the app, so every repeat rebuilds it.
    {
        let (g, app, _) = mid_bfs();
        let mut co = Classification::new(&g, &spec);
        co.sweep(&app);
        let (mut wall, mut dirty) = (Vec::with_capacity(REPEATS), Vec::new());
        for _ in 0..REPEATS {
            dirty.clear();
            let t0 = Instant::now();
            co.update(&app, &mut dirty);
            wall.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let row = Row::default()
            .exact("dirty", dirty.len() as u64)
            .exact("v_active", co.stats().v_active)
            .timed("wall_us", wall_us(wall));
        snap.rows.insert("reclassify/active".into(), row);
    }
    {
        let mut wall = Vec::with_capacity(REPEATS);
        let (mut n_dirty, mut v_active) = (0u64, 0u64);
        for _ in 0..REPEATS {
            let (g, app, _) = mid_bfs();
            let mut co = Classification::new(&g, &spec);
            co.sweep(&app);
            let (f, _) = co.materialize::<Bfs>(Direction::Push, AsFormat::UnsortedQueue, &spec);
            let eo = expand(&g, &app, &f, co.status(), KernelConfig::push_baseline(), &spec);
            app.advance(LEVEL + 1);
            let mut dirty = eo.activated.to_sorted_vec();
            let t0 = Instant::now();
            co.update(&app, &mut dirty);
            wall.push(t0.elapsed().as_secs_f64() * 1e6);
            (n_dirty, v_active) = (dirty.len() as u64, co.stats().v_active);
        }
        let row = Row::default()
            .exact("dirty", n_dirty)
            .exact("v_active", v_active)
            .timed("wall_us", wall_us(wall));
        snap.rows.insert("reclassify/next".into(), row);
    }

    // materialize and expand, per format × direction. Expand mutates app
    // state, so every repeat rebuilds a pristine mid-BFS state and times
    // only the kernel under test.
    for (dir, dname) in DIRECTIONS {
        for (fmt, fname) in FORMATS {
            let mut mat_wall = Vec::with_capacity(REPEATS);
            let mut exp_wall = Vec::with_capacity(REPEATS);
            let mut workload = 0u64;
            let mut edges = 0u64;
            let mut sim_ms = 0.0f64;
            for _ in 0..REPEATS {
                let (g, app, status) = mid_bfs();
                let t0 = Instant::now();
                let (frontier, _) = materialize::<Bfs>(&g, &status, dir, fmt, &spec);
                mat_wall.push(t0.elapsed().as_secs_f64() * 1e6);
                workload = frontier.len() as u64;
                let cfg =
                    KernelConfig { direction: dir, format: fmt, ..KernelConfig::push_baseline() };
                let t1 = Instant::now();
                let eo = expand(&g, &app, &frontier, &status, cfg, &spec);
                exp_wall.push(t1.elapsed().as_secs_f64() * 1e6);
                edges = eo.edges_touched;
                sim_ms = spec.kernel_time_ms(&eo.profile);
            }
            snap.rows.insert(
                format!("materialize/{fname}/{dname}"),
                Row::default().exact("workload", workload).timed("wall_us", wall_us(mat_wall)),
            );
            snap.rows.insert(
                format!("expand/{fname}/{dname}"),
                Row::default()
                    .exact("edges", edges)
                    .exact("sim_ms", round_to(sim_ms, 3))
                    .timed("wall_us", wall_us(exp_wall)),
            );
        }
    }

    // Pull where the edges are: a sum that folds every in-edge (PR) and a
    // min that reads every in-edge and seldom wins (CC).
    let g = gswitch_graph::gen::kronecker(SCALE, 8, 42);
    snap.rows.insert("expand/pull/gather-sum".into(), dense_pull(&g, || PageRank::new(&g, 1e-3)));
    snap.rows.insert("expand/pull/gather-min".into(), dense_pull(&g, || Cc::new(g.num_vertices())));
    snap
}
