//! Golden decision traces: the per-iteration behaviour of the super-step
//! loop, frozen as one FNV-1a digest per run.
//!
//! The constants in [`GOLDEN`] were generated at the commit *before*
//! `engine::run_with_seed_config` and `sharded::run_sharded` were merged
//! into one loop, and must pass unchanged after it: every decision, every
//! simulated time and every work counter of every super-step has to come
//! out bit-for-bit the same. The `*/model` cells (the shipped trained
//! trees on the twins with no parallel cell) were added at the commit
//! before the Selector's candidate tables replaced the hand-written class
//! decoding, and hold the trees' decisions to the same standard.
//!
//! The `*/oracle` cells were added at the commit before the brute-force
//! oracle's private labelling loop became a policy that the engine's loop
//! runs, and hold its training records to the same standard: BFS, BC's
//! forward phase, CC and SSSP under `oracle_run` on every twin.
//!
//! Two oracle cells were re-frozen at the commit that made the oracle
//! price an Expand with the function that charges it (`expand_cost`,
//! `COST_MODEL_VERSION` 8): `roadNet-CA` and `roadNet-TX` `sssp/oracle`.
//! The old price charged a bitmap's workload reads as 4 bytes per
//! receiver, where the kernel reads the bitmap's words; priced as charged,
//! a pull over a bitmap wins 8 steps of roadNet-CA and 6 of roadNet-TX.
//! No other oracle cell and no executed digest moved.
//!
//! A `RunReport` digest covers, per iteration, `(config, decided,
//! estimated, filter_ms.to_bits(), expand_ms.to_bits(), edges_touched,
//! activations, duplicates)`; a `ShardedRunReport` digest covers, per
//! `SuperStep`, `(filter_ms, exchange_ms, exchange.records, active,
//! edges_touched)`; an `OracleOutcome` digest covers the record count,
//! `optimal_ms.to_bits()` and, per record, the 21 feature bits and the 5
//! labels (a pattern left unlabelled hashes as [`UNLABELLED`]).
//!
//! # What was dropped, and why
//!
//! Every cell was run four times on a 2-core host and once pinned to one
//! core at the parent commit; a cell is frozen only when it reproduced
//! *and* there is an argument for why it must.
//!
//! * **Single graph.** The bucketed Expand runs its task list on the
//!   calling thread up to 256 tasks (`run_bucketed`'s own rule) and as
//!   parts on the worker pool above that.
//!   Below that everything is sequential and every field of every
//!   algorithm reproduces. Above it push tasks race: BFS and BC still
//!   reproduce (first writer claims the level, everyone else ties, so
//!   the per-step success/conflict totals do not depend on who won), but
//!   CC and SSSP relax with `fetch_min` over *different* candidate values
//!   and read labels other tasks are lowering, so every field flaps
//!   (soc-orkut CC and all kron_g500 CC/SSSP cells changed between
//!   repeats), and a fused BFS emits its raw queue in interleaving order.
//!   [`PARALLEL_EXPAND`] lists the cells that reach a parallel Expand
//!   (measured: kron_g500 peaks at 744 tasks, soc-orkut CC at 277); they
//!   are excluded from the bitwise set and only their answers are
//!   checked. PageRank is excluded everywhere (push-parallel f64
//!   accumulation order can flap one super-step, CHANGES PR 8) and keeps
//!   its ≤ 1e-9 result check in `crates/shard/tests/equivalence.rs`.
//! * **Oracle.** The oracle picks its own shapes, so its cells were
//!   screened on their own, the same 4 + 1 runs: CC and SSSP on
//!   soc-orkut and kron_g500 changed on every repeat, pinned to one core
//!   too (the pool keeps its workers), for the reason above; they are
//!   listed in [`ORACLE_UNSTABLE`] and only their answers are checked.
//!   Every other oracle cell reproduced, BFS and BC on those two twins
//!   included.
//! * **Sharded (K = 2, 4).** Shards expand concurrently into one global
//!   app, so *which shard's* atomic claims a boundary vertex is racy:
//!   per-shard `atomic_conflicts`, and with it `SuperStep::expand_ms`
//!   (the slowest shard's priced expand), changed on every repeat of
//!   every graph — the field is dropped. For BFS the remaining fields
//!   reproduced everywhere (attempt-counted exchange records, the barrier
//!   classification and the edge totals are interleaving-independent).
//!   Sharded CC races on the labels themselves and reproduced nowhere;
//!   only its answer is checked.
//!
//! On a mismatch the test prints the freshly computed table, so a
//! deliberate behaviour change regenerates the constants by copy-paste.

use gswitch_algos::{bc, bfs, cc, reference, sssp, Bfs, Cc, Sssp};
use gswitch_core::oracle::{oracle_run, OracleOptions, OracleOutcome};
use gswitch_core::{
    run_sharded, AutoPolicy, EngineOptions, Fusion, KernelConfig, ModelPolicy, Policy, RunReport,
    ShardedOptions, ShardedRunReport, StaticPolicy,
};
use gswitch_graph::corpus::representatives_small;
use gswitch_graph::shard::ShardedCsr;
use gswitch_graph::{gen, Graph};

/// `(graph, cell)` pairs whose run reaches an Expand of more than 256
/// bucketed tasks (which `run_bucketed` cuts into pool parts) *and* whose
/// trace depends on the interleaving — see the header.
const PARALLEL_EXPAND: &[(&str, &str)] = &[
    ("soc-orkut", "cc/auto"),
    ("soc-orkut", "cc/fused"),
    ("kron_g500-log21", "cc/auto"),
    ("kron_g500-log21", "cc/fused"),
    ("kron_g500-log21", "sssp/auto"),
    ("kron_g500-log21", "sssp/fused"),
    ("kron_g500-log21", "bfs/fused"),
];

/// What an oracle digest hashes for a pattern the app leaves no choice.
const UNLABELLED: u64 = u64::MAX;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn run(&mut self, rep: &RunReport) {
        self.u64(rep.iterations.len() as u64);
        self.u64(rep.converged as u64);
        for t in &rep.iterations {
            self.u64(t.iteration as u64);
            let c = t.config;
            for x in [
                c.direction as u64,
                c.format as u64,
                c.lb as u64,
                c.stepping as u64,
                c.fusion as u64,
                t.decided as u64,
                t.estimated as u64,
            ] {
                self.u64(x);
            }
            self.f64(t.filter_ms);
            self.f64(t.expand_ms);
            self.u64(t.edges_touched);
            self.u64(t.activations);
            self.u64(t.duplicates);
        }
    }
    fn oracle(&mut self, out: &OracleOutcome) {
        self.u64(out.records.len() as u64);
        self.f64(out.optimal_ms);
        for r in &out.records {
            for &x in &r.features {
                self.f64(x);
            }
            let l = r.labels;
            for class in [l.direction, l.format, l.load_balance, l.stepping, l.fusion] {
                self.u64(class.map_or(UNLABELLED, u64::from));
            }
        }
    }
    fn sharded(&mut self, rep: &ShardedRunReport) {
        self.u64(rep.supersteps.len() as u64);
        self.u64(rep.converged as u64);
        for s in &rep.supersteps {
            self.u64(s.iteration as u64);
            self.f64(s.filter_ms);
            self.f64(s.exchange_ms);
            self.u64(s.exchange.records);
            self.u64(s.active);
            self.u64(s.edges_touched);
        }
    }
}

fn fused_static() -> StaticPolicy {
    StaticPolicy::new(KernelConfig { fusion: Fusion::Fused, ..KernelConfig::push_baseline() })
}

/// The shipped trained trees.
fn shipped_model() -> ModelPolicy {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/gswitch_model.json");
    let (model, loaded) = ModelPolicy::load_or_fallback(path);
    assert!(loaded.error.is_none() && loaded.dropped.is_empty(), "model unusable: {loaded:?}");
    model
}

/// Run every cell, check every answer against the CPU reference, and
/// return the digests of the bitwise set as `(graph, cell, digest)`.
fn compute() -> Vec<(String, String, u64)> {
    let auto = AutoPolicy;
    let fused = fused_static();
    let model = shipped_model();
    let opts = EngineOptions::default();
    let mut out = Vec::new();
    for r in representatives_small() {
        let name = r.paper_name;
        let g: Graph = r.recipe.build();
        let gw = gen::with_random_weights(&g, 64, 0xC0FFEE);
        let want_bfs = reference::bfs(&g, 0);
        let want_cc = reference::cc(&g);
        let want_sssp = reference::sssp(&gw, 0);
        let want_bc = reference::bc(&g, 0);
        let mut freeze = |cell: String, h: Fnv| {
            if !PARALLEL_EXPAND.contains(&(name, cell.as_str())) {
                out.push((name.to_string(), cell, h.0));
            }
        };
        // The trained trees run only on the twins that never reach a
        // parallel Expand under any policy above.
        let serial = !PARALLEL_EXPAND.iter().any(|&(twin, _)| twin == name);
        let mut policies = vec![(&auto as &dyn Policy, "auto"), (&fused, "fused")];
        if serial {
            policies.push((&model, "model"));
        }
        for (policy, tag) in policies {
            let mut h = Fnv::new();
            let r = bfs::bfs(&g, 0, policy, &opts);
            assert_eq!(r.levels, want_bfs, "{name} bfs/{tag}");
            h.run(&r.report);
            freeze(format!("bfs/{tag}"), h);

            let mut h = Fnv::new();
            let r = cc::cc(&g, policy, &opts);
            assert_eq!(r.labels, want_cc, "{name} cc/{tag}");
            h.run(&r.report);
            freeze(format!("cc/{tag}"), h);

            let mut h = Fnv::new();
            let r = sssp::sssp(&gw, 0, policy, &opts);
            assert_eq!(r.distances, want_sssp, "{name} sssp/{tag}");
            h.run(&r.report);
            freeze(format!("sssp/{tag}"), h);

            let mut h = Fnv::new();
            let r = bc::bc(&g, 0, policy, &opts);
            for (v, (a, b)) in r.scores.iter().zip(&want_bc).enumerate() {
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{name} bc/{tag} at {v}");
            }
            h.run(&r.forward);
            h.run(&r.backward);
            freeze(format!("bc/{tag}"), h);
        }
        for k in [2u32, 4] {
            let sharded = ShardedCsr::partition(&g, k).expect("partition");
            let sopts = ShardedOptions::default();

            let app = Bfs::new(g.num_vertices(), 0);
            let rep = run_sharded(&sharded, &app, &auto, &sopts).expect("sharded bfs");
            assert_eq!(app.levels(), want_bfs, "{name} bfs/k{k}");
            let mut h = Fnv::new();
            h.sharded(&rep);
            freeze(format!("bfs/k{k}"), h);

            let app = Cc::new(g.num_vertices());
            let rep = run_sharded(&sharded, &app, &auto, &sopts).expect("sharded cc");
            assert!(rep.converged);
            assert_eq!(app.labels(), want_cc, "{name} cc/k{k}");
        }
    }
    out
}

/// The brute-force oracle's labelling of BFS, BC's forward phase, CC and
/// SSSP on every twin, each answer checked against the CPU reference, as
/// `(graph, cell, digest)` for the cells outside [`ORACLE_UNSTABLE`].
fn compute_oracle() -> Vec<(String, String, u64)> {
    let opts = OracleOptions::default();
    let mut out = Vec::new();
    for r in representatives_small() {
        let name = r.paper_name;
        let g: Graph = r.recipe.build();
        let gw = gen::with_random_weights(&g, 64, 0xC0FFEE);
        let n = g.num_vertices();
        let mut freeze = |cell: &str, o: OracleOutcome| {
            if !ORACLE_UNSTABLE.contains(&(name, cell)) {
                let mut h = Fnv::new();
                h.oracle(&o);
                out.push((name.to_string(), cell.to_string(), h.0));
            }
        };

        let app = Bfs::new(n, 0);
        let o = oracle_run(&g, &app, "bfs", &opts);
        assert_eq!(app.levels(), reference::bfs(&g, 0), "{name} bfs/oracle");
        freeze("bfs/oracle", o);

        let app = bc::BcForward::new(n, 0);
        freeze("bc/oracle", oracle_run(&g, &app, "bc", &opts));

        let app = Cc::new(n);
        let o = oracle_run(&g, &app, "cc", &opts);
        assert_eq!(app.labels(), reference::cc(&g), "{name} cc/oracle");
        freeze("cc/oracle", o);

        let app = Sssp::new(&gw, 0);
        let o = oracle_run(&gw, &app, "sssp", &opts);
        assert_eq!(app.distances(), reference::sssp(&gw, 0), "{name} sssp/oracle");
        freeze("sssp/oracle", o);
    }
    out
}

/// `(graph, cell)` oracle cells that did not reproduce — see the header.
const ORACLE_UNSTABLE: &[(&str, &str)] = &[
    ("soc-orkut", "cc/oracle"),
    ("soc-orkut", "sssp/oracle"),
    ("kron_g500-log21", "cc/oracle"),
    ("kron_g500-log21", "sssp/oracle"),
];

/// Compare `got` with a frozen table; on a mismatch, print the fresh one.
fn check(got: &[(String, String, u64)], golden: &[(&str, &str, u64)], what: &str) {
    let same = got.len() == golden.len()
        && got.iter().zip(golden).all(|(a, b)| (a.0.as_str(), a.1.as_str(), a.2) == *b);
    if !same {
        let table: String =
            got.iter().map(|(g, c, d)| format!("    ({g:?}, {c:?}, {d:#018x}),\n")).collect();
        panic!("{what} changed; freshly computed table:\n{table}");
    }
}

#[rustfmt::skip]
const ORACLE_GOLDEN: &[(&str, &str, u64)] = &[
    ("soc-orkut", "bfs/oracle", 0x23b9a487be90b4af),
    ("soc-orkut", "bc/oracle", 0x0fa5642471b27e6e),
    ("soc-pokec", "bfs/oracle", 0x122518ced47b3e7b),
    ("soc-pokec", "bc/oracle", 0xad89c0b8764f90d2),
    ("soc-pokec", "cc/oracle", 0xe673ab008acb9d66),
    ("soc-pokec", "sssp/oracle", 0x2d535a1fbc0c856a),
    ("web-uk-2005", "bfs/oracle", 0xff5b9b77d147dd68),
    ("web-uk-2005", "bc/oracle", 0xf8df8a191ab6f40a),
    ("web-uk-2005", "cc/oracle", 0x3a1f31bef03dd1e2),
    ("web-uk-2005", "sssp/oracle", 0x9e3eabb29756f2a9),
    ("web-wikipedia-2009", "bfs/oracle", 0x5e82804bccfaff96),
    ("web-wikipedia-2009", "bc/oracle", 0x0316040351cfddae),
    ("web-wikipedia-2009", "cc/oracle", 0x156c8abaaf769d79),
    ("web-wikipedia-2009", "sssp/oracle", 0xb4704cd5ce41e7fa),
    ("kron_g500-log21", "bfs/oracle", 0xe1ab636141ab79fe),
    ("kron_g500-log21", "bc/oracle", 0xe262c4fe8903bb52),
    ("rgg_n_2_24", "bfs/oracle", 0x011685b264869116),
    ("rgg_n_2_24", "bc/oracle", 0xbc35506e4a144d1f),
    ("rgg_n_2_24", "cc/oracle", 0xe021a1f88a95c2f5),
    ("rgg_n_2_24", "sssp/oracle", 0x8c8edf1ce31603cf),
    ("roadNet-CA", "bfs/oracle", 0x7d64cdb587efe515),
    ("roadNet-CA", "bc/oracle", 0x917814753fb5242b),
    ("roadNet-CA", "cc/oracle", 0xfdf1da931d1985f7),
    ("roadNet-CA", "sssp/oracle", 0x385efca9cdd5ea84),
    ("roadNet-TX", "bfs/oracle", 0xa9cff7f67526efc3),
    ("roadNet-TX", "bc/oracle", 0x8fd5543a93c60d59),
    ("roadNet-TX", "cc/oracle", 0x8e43361220ab0976),
    ("roadNet-TX", "sssp/oracle", 0x3fbb7b03eb11047c),
    ("sc-msdoor", "bfs/oracle", 0x49980acc3e66b825),
    ("sc-msdoor", "bc/oracle", 0xac997bd3a3ca99f9),
    ("sc-msdoor", "cc/oracle", 0xfbf814375adb29a3),
    ("sc-msdoor", "sssp/oracle", 0xf511cdbb58c622bd),
    ("sc-ldoor", "bfs/oracle", 0xc2970e5d1fed3a93),
    ("sc-ldoor", "bc/oracle", 0xb95ce7edfe197384),
    ("sc-ldoor", "cc/oracle", 0x1981235598a10cee),
    ("sc-ldoor", "sssp/oracle", 0x5d2c7d10bb3ffc02),
];

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64)] = &[
    ("soc-orkut", "bfs/auto", 0x1b0e023e5a376929),
    ("soc-orkut", "sssp/auto", 0x8578458b503106c5),
    ("soc-orkut", "bc/auto", 0x40574d03c58f6ed1),
    ("soc-orkut", "bfs/fused", 0xa55e25ed99a61070),
    ("soc-orkut", "sssp/fused", 0x3279fdecf0c5ca51),
    ("soc-orkut", "bc/fused", 0xe9af30bfa3c8d457),
    ("soc-orkut", "bfs/k2", 0xe44faad5b395a4c3),
    ("soc-orkut", "bfs/k4", 0xdf42b20ef395e5b7),
    ("soc-pokec", "bfs/auto", 0xb1045c80a997222b),
    ("soc-pokec", "cc/auto", 0x1d112836a3d55b2f),
    ("soc-pokec", "sssp/auto", 0x5b8ff963bf653348),
    ("soc-pokec", "bc/auto", 0x4d7705eca794b713),
    ("soc-pokec", "bfs/fused", 0xc3e894fff7777b16),
    ("soc-pokec", "cc/fused", 0xe1b826ed94dfe06f),
    ("soc-pokec", "sssp/fused", 0x1898977b205d7f8e),
    ("soc-pokec", "bc/fused", 0x88ed125d57b065e3),
    ("soc-pokec", "bfs/model", 0x0f6586ab45c3d7ea),
    ("soc-pokec", "cc/model", 0x262fbb2ee0a75e62),
    ("soc-pokec", "sssp/model", 0x0386ec274e61f275),
    ("soc-pokec", "bc/model", 0x750a036e431de2f0),
    ("soc-pokec", "bfs/k2", 0x948741d842e6df43),
    ("soc-pokec", "bfs/k4", 0x52fe67341aa21034),
    ("web-uk-2005", "bfs/auto", 0x3bc0db59ab980ec4),
    ("web-uk-2005", "cc/auto", 0x7b54b557bac38539),
    ("web-uk-2005", "sssp/auto", 0x6b0c5fd941a0a7f4),
    ("web-uk-2005", "bc/auto", 0x81a019659ed522e6),
    ("web-uk-2005", "bfs/fused", 0x9a5e5d118b227138),
    ("web-uk-2005", "cc/fused", 0x25818a3714c47fd8),
    ("web-uk-2005", "sssp/fused", 0xff727a491083bfce),
    ("web-uk-2005", "bc/fused", 0x5aba7ccaf13bd1fc),
    ("web-uk-2005", "bfs/model", 0xf8e51e73c616c279),
    ("web-uk-2005", "cc/model", 0xff18e82e10b15aa0),
    ("web-uk-2005", "sssp/model", 0xd7147a8d1541c694),
    ("web-uk-2005", "bc/model", 0xfb37f019379c1d1e),
    ("web-uk-2005", "bfs/k2", 0xd5048c52aeda21c5),
    ("web-uk-2005", "bfs/k4", 0xa796d23a8be5c0e6),
    ("web-wikipedia-2009", "bfs/auto", 0x687d562ace1c3259),
    ("web-wikipedia-2009", "cc/auto", 0x2265764f8893088c),
    ("web-wikipedia-2009", "sssp/auto", 0xa6498d62060ebcd3),
    ("web-wikipedia-2009", "bc/auto", 0xcfad30de35f04900),
    ("web-wikipedia-2009", "bfs/fused", 0x1ea79f5b80f244fa),
    ("web-wikipedia-2009", "cc/fused", 0x2e404468d88ca003),
    ("web-wikipedia-2009", "sssp/fused", 0x87afa98f7243c853),
    ("web-wikipedia-2009", "bc/fused", 0xa34f05aaea5ef1f3),
    ("web-wikipedia-2009", "bfs/model", 0xfe25adba2ba7f471),
    ("web-wikipedia-2009", "cc/model", 0x8cb7910f219b1dbc),
    ("web-wikipedia-2009", "sssp/model", 0xcb07b8e8da78e38d),
    ("web-wikipedia-2009", "bc/model", 0xc8e88ab4b303637a),
    ("web-wikipedia-2009", "bfs/k2", 0xe7e8c88ffb0a6587),
    ("web-wikipedia-2009", "bfs/k4", 0xe2676922dffa09f0),
    ("kron_g500-log21", "bfs/auto", 0x0fd4f9ad06d22160),
    ("kron_g500-log21", "bc/auto", 0x2f1a87cf3729fdf1),
    ("kron_g500-log21", "bc/fused", 0x26f6f8529326adbc),
    ("kron_g500-log21", "bfs/k2", 0x44a59da6689c0cd0),
    ("kron_g500-log21", "bfs/k4", 0xff8440719df54a90),
    ("rgg_n_2_24", "bfs/auto", 0x67b0264e70ec0c08),
    ("rgg_n_2_24", "cc/auto", 0x896b7bcebfa847d5),
    ("rgg_n_2_24", "sssp/auto", 0xcafc33a815bdac18),
    ("rgg_n_2_24", "bc/auto", 0xfa65d6af37c2ba78),
    ("rgg_n_2_24", "bfs/fused", 0x67b0264e70ec0c08),
    ("rgg_n_2_24", "cc/fused", 0x57571dfe100935af),
    ("rgg_n_2_24", "sssp/fused", 0xecb315a514d2fe65),
    ("rgg_n_2_24", "bc/fused", 0xfa65d6af37c2ba78),
    ("rgg_n_2_24", "bfs/model", 0xb8781efd88dfcdf7),
    ("rgg_n_2_24", "cc/model", 0x9f3f85fb2fbc0dfd),
    ("rgg_n_2_24", "sssp/model", 0xb08af729404b0c18),
    ("rgg_n_2_24", "bc/model", 0xf387a5e91c1aca9c),
    ("rgg_n_2_24", "bfs/k2", 0x14dc50f8bc4fe4b7),
    ("rgg_n_2_24", "bfs/k4", 0x0fceca9e37fe80fd),
    ("roadNet-CA", "bfs/auto", 0xe3d491d05b377185),
    ("roadNet-CA", "cc/auto", 0x2e43e3957ce1617f),
    ("roadNet-CA", "sssp/auto", 0x1f85ec4841917f65),
    ("roadNet-CA", "bc/auto", 0x7bc38132430d2451),
    ("roadNet-CA", "bfs/fused", 0xe3d491d05b377185),
    ("roadNet-CA", "cc/fused", 0x28eeac91d6c7faae),
    ("roadNet-CA", "sssp/fused", 0x9b9b7fe204392f3d),
    ("roadNet-CA", "bc/fused", 0x7bc38132430d2451),
    ("roadNet-CA", "bfs/model", 0xe272e82ad5932183),
    ("roadNet-CA", "cc/model", 0xf60b1b0d68b1580b),
    ("roadNet-CA", "sssp/model", 0x8165c83bf0421fe3),
    ("roadNet-CA", "bc/model", 0x5e01172974168ca2),
    ("roadNet-CA", "bfs/k2", 0x12131499d7faed70),
    ("roadNet-CA", "bfs/k4", 0x2a06f630cc6d0f1d),
    ("roadNet-TX", "bfs/auto", 0x494d132da3e0f6f8),
    ("roadNet-TX", "cc/auto", 0xfb2a9a1f5ddccc52),
    ("roadNet-TX", "sssp/auto", 0xa715f61afab15d1c),
    ("roadNet-TX", "bc/auto", 0x44abc7704455e760),
    ("roadNet-TX", "bfs/fused", 0x494d132da3e0f6f8),
    ("roadNet-TX", "cc/fused", 0xbcdb6c80aff0f911),
    ("roadNet-TX", "sssp/fused", 0x78dd5293d7f458c7),
    ("roadNet-TX", "bc/fused", 0x44abc7704455e760),
    ("roadNet-TX", "bfs/model", 0xfdeef7b2f4a086d3),
    ("roadNet-TX", "cc/model", 0xa3c384ecf10da18e),
    ("roadNet-TX", "sssp/model", 0xeb82c2a52d96319d),
    ("roadNet-TX", "bc/model", 0x0d131e77d64dff5d),
    ("roadNet-TX", "bfs/k2", 0xd98485e22e11780a),
    ("roadNet-TX", "bfs/k4", 0x95447b7c4a7e7b35),
    ("sc-msdoor", "bfs/auto", 0x2edc3bdb8ab2d90e),
    ("sc-msdoor", "cc/auto", 0xae0813c3ec8dcb81),
    ("sc-msdoor", "sssp/auto", 0x5aba1128d821eb6f),
    ("sc-msdoor", "bc/auto", 0x7fd6d31d1fa85f55),
    ("sc-msdoor", "bfs/fused", 0x2edc3bdb8ab2d90e),
    ("sc-msdoor", "cc/fused", 0x9ca508d9b77f313f),
    ("sc-msdoor", "sssp/fused", 0x56602cd4af4d037c),
    ("sc-msdoor", "bc/fused", 0x7fd6d31d1fa85f55),
    ("sc-msdoor", "bfs/model", 0x19ad825a0f326ebc),
    ("sc-msdoor", "cc/model", 0x3895b9e39366064b),
    ("sc-msdoor", "sssp/model", 0x2f0601085ed980d9),
    ("sc-msdoor", "bc/model", 0x755c84661bca356b),
    ("sc-msdoor", "bfs/k2", 0x4dd6df95e6c62786),
    ("sc-msdoor", "bfs/k4", 0xc045b7b0921fa056),
    ("sc-ldoor", "bfs/auto", 0xb26454ccf6997d6f),
    ("sc-ldoor", "cc/auto", 0xec6d59e11a9e4e4e),
    ("sc-ldoor", "sssp/auto", 0x3a3db1d5764069de),
    ("sc-ldoor", "bc/auto", 0xa80a5c272a978d27),
    ("sc-ldoor", "bfs/fused", 0xb26454ccf6997d6f),
    ("sc-ldoor", "cc/fused", 0xc902c7341306ea11),
    ("sc-ldoor", "sssp/fused", 0x580c9d93c748c334),
    ("sc-ldoor", "bc/fused", 0x9f805b50fc6e7ff5),
    ("sc-ldoor", "bfs/model", 0x06b7f9f3a305cc87),
    ("sc-ldoor", "cc/model", 0xef229342854d65e6),
    ("sc-ldoor", "sssp/model", 0x2ca8e65afcda6c8d),
    ("sc-ldoor", "bc/model", 0xf38615192da81b68),
    ("sc-ldoor", "bfs/k2", 0xf4a1e301c8a79be0),
    ("sc-ldoor", "bfs/k4", 0x6db3b21026ae0744),
];

#[test]
fn traces_match_the_digests_frozen_before_the_loop_merge() {
    check(&compute(), GOLDEN, "golden traces");
}

#[test]
fn oracle_records_match_the_digests_frozen_before_the_oracle_became_a_policy() {
    check(&compute_oracle(), ORACLE_GOLDEN, "oracle records");
}
