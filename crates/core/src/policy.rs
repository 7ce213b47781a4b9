//! The Selector: policies mapping features to kernel configurations.

use crate::features::DecisionContext;
use crate::model::validate_tree;
use gswitch_graph::Graph;
pub use gswitch_kernels::pattern::AppCaps;
use gswitch_kernels::pattern::{
    AsFormat, Direction, Fusion, KernelConfig, LoadBalance, SteppingDelta,
};
use gswitch_ml::{DecisionTree, Pattern, FEATURE_COUNT};
use gswitch_simt::{DeviceSpec, SimMs};

/// One priced candidate shape: `(format, load balance, materialize +
/// expand ms)`.
pub type Priced = (AsFormat, LoadBalance, SimMs);

/// What a decided step can price before it commits: the lane's resident
/// classification of this super-step and what it cost. The engine builds
/// one per decided step; policies that tune ignore it, the labelling
/// ones (the brute-force oracle, the Fig. 14 search) rank its prices.
#[derive(Debug)]
pub struct Lookahead<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) status: &'a [u8],
    pub(crate) device: &'a DeviceSpec,
    /// This step's simulated classification cost, ms.
    pub(crate) classify_ms: SimMs,
    /// The lane app's pricing, its type hidden so [`Policy`] stays
    /// object-safe.
    pub(crate) price: fn(&Graph, &DeviceSpec, &[u8], Direction) -> Vec<Priced>,
}

impl Lookahead<'_> {
    /// Every (format × load balance) shape of `direction`, priced
    /// analytically over this step's classification.
    pub fn prices(&self, direction: Direction) -> Vec<Priced> {
        (self.price)(self.graph, self.device, self.status, direction)
    }
}

/// A Selector backend. Policies only propose: the engine runs
/// [`AppCaps::legalise`] of every proposal, so a policy need not know
/// what the app or the pattern mask permits.
pub trait Policy: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Propose the direction, format, load balance and fusion for the
    /// upcoming Expand given the current iteration's context. The
    /// proposal's stepping move is ignored: P4 is
    /// [`decide_stepping`](Self::decide_stepping)'s.
    fn decide(&self, ctx: &DecisionContext, caps: &AppCaps) -> KernelConfig;

    /// [`decide`](Self::decide), with candidate prices at hand. This is
    /// what the engine calls; the default ignores `look`.
    fn decide_priced(
        &self,
        ctx: &DecisionContext,
        caps: &AppCaps,
        _look: &Lookahead,
    ) -> KernelConfig {
        self.decide(ctx, caps)
    }

    /// Choose the stepping move *before* classification (the threshold
    /// feeds the filter predicate). The engine asks only where stepping
    /// applies. Defaults to the paper's ±35% rule.
    fn decide_stepping(&self, ctx: &DecisionContext, _caps: &AppCaps) -> SteppingDelta {
        ctx.stepping_by_rule()
    }
}

/// A pinned configuration — what every non-switching framework
/// effectively is (and what the Fig. 16 "GSWITCH baseline" runs).
#[derive(Clone, Copy, Debug)]
pub struct StaticPolicy {
    /// The configuration returned for every iteration.
    pub config: KernelConfig,
}

impl StaticPolicy {
    /// Pin `config`.
    pub fn new(config: KernelConfig) -> Self {
        StaticPolicy { config }
    }
}

impl Policy for StaticPolicy {
    fn name(&self) -> &str {
        "static"
    }
    fn decide(&self, _ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        self.config
    }
    fn decide_stepping(&self, _ctx: &DecisionContext, _caps: &AppCaps) -> SteppingDelta {
        self.config.stepping
    }
}

/// Hand-derived decision rules: the "tailored tree kept as low as
/// possible" the paper ships when no trained model is available. Each
/// rule is the paper's own summary of its Fig. 12 analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoPolicy;

impl AutoPolicy {
    fn direction(ctx: &DecisionContext) -> Direction {
        let s = &ctx.stats;
        // "The pull mode is preferable in the middle iterations when the
        // number of the active edges is greater than that of inactive
        // edges" (§3 P1) — and only when there is a pull workload at all.
        if s.e_active > s.e_inactive && s.pull.vertices > 0 {
            Direction::Pull
        } else {
            Direction::Push
        }
    }

    fn format(ctx: &DecisionContext, direction: Direction) -> AsFormat {
        // Fig. 12(b): queue wins when few vertices are active; bitmap when
        // the workload is dense (no enqueue overhead, no idle-lane waste).
        let n = ctx.stats.n().max(1) as f64;
        let frac = ctx.stats.workload(direction).vertices as f64 / n;
        if frac > 0.10 {
            AsFormat::Bitmap
        } else if frac > 0.01 {
            AsFormat::SortedQueue
        } else {
            AsFormat::UnsortedQueue
        }
    }

    fn load_balance(ctx: &DecisionContext, direction: Direction) -> LoadBalance {
        // Fig. 12(c)/(d): STRICT when the workload is irregular *and*
        // large; TWC when regular (lowest overhead); WM/CM in between.
        let w = ctx.stats.workload(direction);
        let avg = w.avg_degree().max(1.0);
        let imbalance = w.max_degree as f64 / avg;
        let big = w.edges > 1 << 14;
        if big && (w.max_degree >= 2048 || imbalance > 64.0) {
            LoadBalance::Strict
        } else if imbalance > 16.0 {
            LoadBalance::Cm
        } else if imbalance > 4.0 {
            LoadBalance::Wm
        } else {
            LoadBalance::Twc
        }
    }

    fn fusion(ctx: &DecisionContext) -> Fusion {
        // Fig. 12(f): fused kernels win on regular (low-Gini) graphs with
        // small stable frontiers — road networks — where launch overhead
        // dominates and duplicates are rare.
        if ctx.graph.gini < 0.30 && ctx.active_vertex_ratio() < 0.05 && ctx.stats.e_active < 1 << 18
        {
            Fusion::Fused
        } else {
            Fusion::Standalone
        }
    }
}

impl Policy for AutoPolicy {
    fn name(&self) -> &str {
        "auto-rules"
    }

    fn decide(&self, ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        // Decision order P1 → P3 → P2 → P5 (§4.5); P4 precedes them all.
        let direction = Self::direction(ctx);
        let lb = Self::load_balance(ctx, direction);
        let format = Self::format(ctx, direction);
        let fusion = Self::fusion(ctx);
        KernelConfig { direction, format, lb, stepping: SteppingDelta::Remain, fusion }
    }
}

/// Five trained CART classifiers, one per pattern (§4.4), with
/// [`AutoPolicy`] as the fallback for any missing tree.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct ModelPolicy {
    /// P1 classifier (classes: push, pull).
    pub direction: Option<DecisionTree>,
    /// P2 classifier (classes: bitmap, unsorted, sorted).
    pub format: Option<DecisionTree>,
    /// P3 classifier (classes: twc, wm, cm, strict).
    pub load_balance: Option<DecisionTree>,
    /// P4 classifier (classes: increase, decrease, remain).
    pub stepping: Option<DecisionTree>,
    /// P5 classifier (classes: standalone, fused).
    pub fusion: Option<DecisionTree>,
    /// Per-feature `[min, max]` seen at training time. Installed by
    /// [`ModelPolicy::load_or_fallback`] from the envelope; when
    /// present, features are clamped into these ranges before every
    /// prediction (trees extrapolate badly out-of-distribution).
    /// Absent in legacy model files (`Option` fields may be missing).
    pub feature_ranges: Option<Vec<(f64, f64)>>,
}

impl ModelPolicy {
    /// A policy with no trees: behaves exactly like [`AutoPolicy`].
    pub fn empty() -> Self {
        Self::default()
    }

    /// Install a tree for one pattern.
    pub fn with_tree(mut self, pattern: Pattern, tree: DecisionTree) -> Self {
        match pattern {
            Pattern::Direction => self.direction = Some(tree),
            Pattern::Format => self.format = Some(tree),
            Pattern::LoadBalance => self.load_balance = Some(tree),
            Pattern::Stepping => self.stepping = Some(tree),
            Pattern::Fusion => self.fusion = Some(tree),
        }
        self
    }

    /// Access the tree for one pattern.
    pub fn tree(&self, pattern: Pattern) -> Option<&DecisionTree> {
        match pattern {
            Pattern::Direction => self.direction.as_ref(),
            Pattern::Format => self.format.as_ref(),
            Pattern::LoadBalance => self.load_balance.as_ref(),
            Pattern::Stepping => self.stepping.as_ref(),
            Pattern::Fusion => self.fusion.as_ref(),
        }
    }

    /// Number of installed trees.
    pub fn n_trees(&self) -> usize {
        Pattern::DECISION_ORDER.iter().filter(|&&p| self.tree(p).is_some()).count()
    }

    /// Serialize to JSON.
    #[expect(
        clippy::expect_used,
        reason = "serializing an owned, non-recursive tree arena cannot fail; the envelope \
                  checksum downstream catches any corruption this could hide"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Read a model file's text as serving does: a [`ModelEnvelope`]
    /// that must validate (its training ranges installed in the model),
    /// else a legacy bare model. The flag says which it was. Trees are
    /// not yet admitted: that is [`validate_tree`], per pattern.
    pub fn decode(text: &str) -> Result<(Self, bool), String> {
        // The envelope parse must come first: its JSON is a superset
        // that would also deserialize as an (empty) bare model.
        match ModelEnvelope::from_json(text) {
            Ok(env) => match env.validate() {
                Ok(()) => {
                    Ok((Self { feature_ranges: Some(env.feature_ranges), ..env.model }, true))
                }
                Err(e) => Err(format!("model envelope rejected: {e}")),
            },
            Err(_) => match Self::from_json(text) {
                Ok(m) => Ok((m, false)),
                Err(e) => Err(format!("model JSON rejected: {e}")),
            },
        }
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Remove the tree for one pattern (that pattern falls back to the
    /// built-in [`AutoPolicy`] rule).
    pub fn clear_tree(&mut self, pattern: Pattern) {
        match pattern {
            Pattern::Direction => self.direction = None,
            Pattern::Format => self.format = None,
            Pattern::LoadBalance => self.load_balance = None,
            Pattern::Stepping => self.stepping = None,
            Pattern::Fusion => self.fusion = None,
        }
    }

    /// Load a model file defensively: a missing/unreadable/invalid file
    /// degrades to the empty model (pure [`AutoPolicy`] behaviour), and
    /// any individual tree failing structural validation is dropped to
    /// the heuristic for just its pattern. Accepts both the versioned
    /// [`ModelEnvelope`] format and the legacy bare-model JSON. Never
    /// fails; what happened is in the [`ModelLoadReport`].
    pub fn load_or_fallback(path: impl AsRef<std::path::Path>) -> (Self, ModelLoadReport) {
        let mut report = ModelLoadReport::default();
        let decoded = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading model file: {e}"))
            .and_then(|s| Self::decode(&s));
        let mut model = match decoded {
            Ok((model, enveloped)) => {
                report.enveloped = enveloped;
                model
            }
            Err(e) => {
                report.error = Some(e);
                return (Self::empty(), report);
            }
        };
        for p in Pattern::DECISION_ORDER {
            let ranges = model.feature_ranges.as_deref();
            let bad = model.tree(p).and_then(|t| validate_tree(p, t, ranges).err());
            if let Some(e) = bad {
                report.dropped.push((p, e.to_string()));
                model.clear_tree(p);
            }
        }
        report.kept = model.n_trees();
        (model, report)
    }

    /// Clamp a feature vector into the training ranges.
    fn clamp_features(&self, f: &mut [f64; FEATURE_COUNT]) {
        let Some(ranges) = &self.feature_ranges else { return };
        for (x, &(lo, hi)) in f.iter_mut().zip(ranges.iter()) {
            if x.is_finite() && (*x < lo || *x > hi) {
                *x = x.clamp(lo, hi);
            }
        }
    }
}

/// Current envelope schema version.
pub const MODEL_SCHEMA_VERSION: u32 = 1;

/// The versioned on-disk wrapper around [`ModelPolicy`]: schema
/// version, expected feature arity, per-pattern class counts, the
/// per-feature training ranges (for OOD clamping at inference), and an
/// FNV-1a checksum of the canonical model JSON so silent corruption is
/// caught before a tree is followed.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ModelEnvelope {
    /// Envelope format version ([`MODEL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Feature arity every tree must match (21).
    pub feature_count: usize,
    /// Class counts in [`Pattern::DECISION_ORDER`] order.
    pub class_counts: Vec<usize>,
    /// Per-feature `(min, max)` observed at training time.
    pub feature_ranges: Vec<(f64, f64)>,
    /// FNV-1a-64 of the canonical `model` JSON, lowercase hex.
    pub checksum: String,
    /// The wrapped model.
    pub model: ModelPolicy,
}

impl ModelEnvelope {
    /// Wrap a trained model, stamping version, class counts and
    /// checksum. `feature_ranges` must hold one `(min, max)` per
    /// feature column of the training matrix.
    pub fn wrap(model: ModelPolicy, feature_ranges: Vec<(f64, f64)>) -> Self {
        let checksum = fnv1a_hex(model.to_json().as_bytes());
        ModelEnvelope {
            schema_version: MODEL_SCHEMA_VERSION,
            feature_count: FEATURE_COUNT,
            class_counts: Pattern::DECISION_ORDER.iter().map(|p| p.n_classes()).collect(),
            feature_ranges,
            checksum,
            model,
        }
    }

    /// Check everything the envelope promises; tree structure itself is
    /// validated per-pattern by [`ModelPolicy::load_or_fallback`].
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != MODEL_SCHEMA_VERSION {
            return Err(format!(
                "schema version {} (this build reads {MODEL_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.feature_count != FEATURE_COUNT {
            return Err(format!(
                "feature count {} (this build computes {FEATURE_COUNT})",
                self.feature_count
            ));
        }
        let expected: Vec<usize> = Pattern::DECISION_ORDER.iter().map(|p| p.n_classes()).collect();
        if self.class_counts != expected {
            return Err(format!("class counts {:?} != expected {expected:?}", self.class_counts));
        }
        if self.feature_ranges.len() != self.feature_count {
            return Err(format!(
                "{} feature ranges for {} features",
                self.feature_ranges.len(),
                self.feature_count
            ));
        }
        for (i, &(lo, hi)) in self.feature_ranges.iter().enumerate() {
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(format!("feature range {i} is malformed: ({lo}, {hi})"));
            }
        }
        let actual = fnv1a_hex(self.model.to_json().as_bytes());
        if actual != self.checksum {
            return Err(format!(
                "checksum mismatch: recorded {}, computed {actual}",
                self.checksum
            ));
        }
        Ok(())
    }

    /// Serialize to JSON.
    #[expect(
        clippy::expect_used,
        reason = "plain structs with derived Serialize, as in ModelPolicy::to_json: an error \
                  here is unreachable"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("envelope serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// FNV-1a 64-bit, lowercase hex (dependency-free checksum).
fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What [`ModelPolicy::load_or_fallback`] did.
#[derive(Clone, Debug, Default)]
pub struct ModelLoadReport {
    /// Error that made the whole file unusable (the model is empty).
    pub error: Option<String>,
    /// Trees dropped to the built-in heuristic, with reasons.
    pub dropped: Vec<(Pattern, String)>,
    /// Trees retained.
    pub kept: usize,
    /// Whether the file was a valid versioned envelope.
    pub enveloped: bool,
}

impl Policy for ModelPolicy {
    fn name(&self) -> &str {
        "cart-model"
    }

    fn decide(&self, ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        // P1 decides on push-side workload features (cd/r_cd are defined
        // only once a workload side is chosen; the paper breaks the cycle
        // the same way by ordering P1 first).
        let mut push_features = ctx.features(Direction::Push);
        self.clamp_features(&mut push_features);
        let direction = match predicted(&self.direction, Direction::ALL, &push_features) {
            Some(Direction::Pull) if ctx.stats.pull.vertices == 0 => Direction::Push,
            Some(d) => d,
            None => AutoPolicy::direction(ctx),
        };
        let mut features = ctx.features(direction);
        self.clamp_features(&mut features);
        let lb = predicted(&self.load_balance, LoadBalance::ALL, &features)
            .unwrap_or_else(|| AutoPolicy::load_balance(ctx, direction));
        let format = predicted(&self.format, AsFormat::ALL, &features)
            .unwrap_or_else(|| AutoPolicy::format(ctx, direction));
        let fusion = predicted(&self.fusion, Fusion::ALL, &features)
            .unwrap_or_else(|| AutoPolicy::fusion(ctx));
        KernelConfig { direction, format, lb, stepping: SteppingDelta::Remain, fusion }
    }

    fn decide_stepping(&self, ctx: &DecisionContext, _caps: &AppCaps) -> SteppingDelta {
        if self.stepping.is_none() {
            return ctx.stepping_by_rule();
        }
        let mut features = ctx.features(Direction::Push);
        self.clamp_features(&mut features);
        predicted(&self.stepping, SteppingDelta::ALL, &features)
            .unwrap_or_else(|| ctx.stepping_by_rule())
    }
}

/// The candidate `tree` predicts: its class index into `all`, the
/// pattern's class table. `None` — fall back to the rule — when no tree
/// is installed or it names no candidate.
fn predicted<T: Copy>(tree: &Option<DecisionTree>, all: &[T], features: &[f64]) -> Option<T> {
    tree.as_ref().and_then(|t| all.get(t.predict(features)).copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_graph::GraphStats;
    use gswitch_kernels::{IterStats, WorkloadStats};
    use gswitch_ml::TrainParams;

    fn caps() -> AppCaps {
        AppCaps::default()
    }

    fn ctx(v_active: u64, e_active: u64, e_inactive: u64) -> DecisionContext {
        let n = 10_000u64;
        DecisionContext {
            graph: GraphStats {
                num_vertices: n as usize,
                num_edges: 80_000,
                avg_degree: 8.0,
                degree_stddev: 3.0,
                degree_rel_range: 4.0,
                max_degree: 50,
                min_degree: 1,
                gini: 0.2,
                entropy: 0.95,
            },
            stats: IterStats {
                v_active,
                v_inactive: n - v_active,
                v_fixed: 0,
                e_active,
                e_inactive,
                push: WorkloadStats {
                    vertices: v_active,
                    edges: e_active,
                    max_degree: 50,
                    min_degree: 1,
                },
                pull: WorkloadStats {
                    vertices: n - v_active,
                    edges: e_inactive,
                    max_degree: 50,
                    min_degree: 1,
                },
            },
            t_f: 0.1,
            t_e: 0.3,
            t_f_avg: 0.1,
            t_e_avg: 0.3,
            prev_workload_edges: e_active,
            prev_prev_workload_edges: e_active,
            iteration: 2,
        }
    }

    #[test]
    fn auto_direction_switches_on_edge_ratio() {
        let sparse = ctx(10, 100, 79_900);
        let dense = ctx(8_000, 70_000, 10_000);
        assert_eq!(AutoPolicy.decide(&sparse, &caps()).direction, Direction::Push);
        assert_eq!(AutoPolicy.decide(&dense, &caps()).direction, Direction::Pull);
    }

    #[test]
    fn auto_format_tracks_density() {
        let c = caps();
        assert_eq!(AutoPolicy.decide(&ctx(5_000, 40_000, 40_000), &c).format, AsFormat::Bitmap);
        assert_eq!(AutoPolicy.decide(&ctx(10, 80, 79_920), &c).format, AsFormat::UnsortedQueue);
    }

    #[test]
    fn clamp_blocks_illegal_candidates() {
        // A policy proposes what it is pinned to; legality is the engine's.
        let cfg = KernelConfig {
            direction: Direction::Push,
            format: AsFormat::Bitmap,
            lb: LoadBalance::Twc,
            stepping: SteppingDelta::Increase,
            fusion: Fusion::Fused,
        };
        assert_eq!(StaticPolicy::new(cfg).decide(&ctx(5, 10, 100), &caps()), cfg);
        let c = caps().legalise(gswitch_kernels::pattern::PatternMask::all(), cfg);
        assert_eq!(c.fusion, Fusion::Standalone);
        assert_eq!(c.stepping, SteppingDelta::Remain);
    }

    #[test]
    fn static_policy_returns_pin() {
        let p = StaticPolicy::new(KernelConfig::gunrock_like());
        let c = p.decide(&ctx(5, 10, 100), &caps());
        assert_eq!(c, KernelConfig::gunrock_like());
        assert_eq!(p.name(), "static");
    }

    #[test]
    fn model_policy_uses_trained_tree() {
        // Train a direction tree: pull iff e_ap (feature 13) > 0.5.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let mut f = vec![0.0; 21];
                f[13] = i as f64 / 100.0;
                f
            })
            .collect();
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[13] > 0.5)).collect();
        let tree = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        let policy = ModelPolicy::empty().with_tree(Pattern::Direction, tree);
        assert_eq!(policy.n_trees(), 1);

        let dense = ctx(8_000, 70_000, 10_000); // e_ap = 0.875
        let sparse = ctx(10, 100, 79_900);
        assert_eq!(policy.decide(&dense, &caps()).direction, Direction::Pull);
        assert_eq!(policy.decide(&sparse, &caps()).direction, Direction::Push);
    }

    #[test]
    fn model_policy_json_roundtrip() {
        let rows = vec![vec![0.0; 21], vec![1.0; 21]];
        let tree = DecisionTree::train(&rows, &[0, 1], TrainParams::default()).unwrap();
        let p = ModelPolicy::empty().with_tree(Pattern::Fusion, tree);
        let p2 = ModelPolicy::from_json(&p.to_json()).unwrap();
        assert_eq!(p2.n_trees(), 1);
        assert!(p2.fusion.is_some());
    }

    #[test]
    fn model_policy_empty_falls_back_to_rules() {
        let p = ModelPolicy::empty();
        let dense = ctx(8_000, 70_000, 10_000);
        assert_eq!(
            p.decide(&dense, &caps()).direction,
            AutoPolicy.decide(&dense, &caps()).direction
        );
    }

    fn trained_policy() -> ModelPolicy {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let mut f = vec![0.0; FEATURE_COUNT];
                f[13] = i as f64 / 100.0;
                f
            })
            .collect();
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[13] > 0.5)).collect();
        let tree = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        ModelPolicy::empty().with_tree(Pattern::Direction, tree)
    }

    fn unit_ranges() -> Vec<(f64, f64)> {
        vec![(0.0, 1.0); FEATURE_COUNT]
    }

    #[test]
    fn envelope_roundtrip_validates() {
        let env = ModelEnvelope::wrap(trained_policy(), unit_ranges());
        let back = ModelEnvelope::from_json(&env.to_json()).unwrap();
        assert!(back.validate().is_ok());
        assert_eq!(back.schema_version, MODEL_SCHEMA_VERSION);
        assert_eq!(back.class_counts, vec![2, 4, 3, 3, 2]);
    }

    #[test]
    fn envelope_rejects_tampering() {
        let good = ModelEnvelope::wrap(trained_policy(), unit_ranges());

        let mut bad = good.clone();
        bad.schema_version = 99;
        assert!(bad.validate().unwrap_err().contains("schema version"));

        let mut bad = good.clone();
        bad.feature_count = 7;
        assert!(bad.validate().unwrap_err().contains("feature count"));

        let mut bad = good.clone();
        bad.class_counts[0] = 9;
        assert!(bad.validate().unwrap_err().contains("class counts"));

        let mut bad = good.clone();
        bad.feature_ranges[3] = (f64::NAN, 1.0);
        assert!(bad.validate().unwrap_err().contains("malformed"));

        let mut bad = good.clone();
        bad.feature_ranges.pop();
        assert!(bad.validate().unwrap_err().contains("feature ranges"));

        // Swap in a different (valid) model without restamping: the
        // checksum catches the content change.
        let mut bad = good.clone();
        bad.model = ModelPolicy::empty();
        assert!(bad.validate().unwrap_err().contains("checksum"));
    }

    #[test]
    fn load_or_fallback_reads_envelope_and_legacy() {
        let dir = std::env::temp_dir();

        let env_path = dir.join("gswitch-policy-test-envelope.json");
        ModelEnvelope::wrap(trained_policy(), unit_ranges()).save(&env_path).unwrap();
        let (m, rep) = ModelPolicy::load_or_fallback(&env_path);
        assert!(rep.error.is_none(), "{:?}", rep.error);
        assert!(rep.enveloped);
        assert_eq!(rep.kept, 1);
        assert!(rep.dropped.is_empty());
        assert_eq!(m.feature_ranges.as_ref().unwrap().len(), FEATURE_COUNT);

        let legacy_path = dir.join("gswitch-policy-test-legacy.json");
        trained_policy().save(&legacy_path).unwrap();
        let (m, rep) = ModelPolicy::load_or_fallback(&legacy_path);
        assert!(rep.error.is_none());
        assert!(!rep.enveloped);
        assert_eq!(rep.kept, 1);
        assert!(m.feature_ranges.is_none());

        let _ = std::fs::remove_file(env_path);
        let _ = std::fs::remove_file(legacy_path);
    }

    #[test]
    fn load_or_fallback_degrades_instead_of_failing() {
        let dir = std::env::temp_dir();
        // Each failed load is one empty model whose report says why.
        let failed = |path: &std::path::Path, why: &str| {
            let (m, rep) = ModelPolicy::load_or_fallback(path);
            assert_eq!(m.n_trees(), 0);
            assert!(rep.error.as_ref().unwrap().contains(why), "{:?}", rep.error);
            assert_eq!((rep.kept, rep.dropped.len(), rep.enveloped), (0, 0, false));
        };

        // Missing file.
        failed(&dir.join("gswitch-policy-test-does-not-exist.json"), "reading model file");

        // Truncated/garbage JSON.
        let garbage = dir.join("gswitch-policy-test-garbage.json");
        std::fs::write(&garbage, "{\"direction\": {\"nodes\": [").unwrap();
        failed(&garbage, "model JSON rejected");

        // Corrupt envelope (bit-rotted checksum).
        let rotten = dir.join("gswitch-policy-test-rotten.json");
        let mut env = ModelEnvelope::wrap(trained_policy(), unit_ranges());
        env.checksum = "0000000000000000".into();
        env.save(&rotten).unwrap();
        failed(&rotten, "checksum");

        let _ = std::fs::remove_file(garbage);
        let _ = std::fs::remove_file(rotten);
    }

    #[test]
    fn load_or_fallback_drops_wrong_arity_tree() {
        // A structurally valid tree trained on 3 features can't consume
        // the engine's 21-feature vectors: that pattern falls back.
        let rows = vec![vec![0.0; 3], vec![1.0; 3]];
        let narrow = DecisionTree::train(&rows, &[0, 1], TrainParams::default()).unwrap();
        let policy = trained_policy().with_tree(Pattern::Fusion, narrow);
        let path = std::env::temp_dir().join("gswitch-policy-test-arity.json");
        policy.save(&path).unwrap();

        let (m, rep) = ModelPolicy::load_or_fallback(&path);
        assert!(rep.error.is_none());
        assert_eq!(rep.kept, 1);
        assert_eq!(rep.dropped.len(), 1);
        assert_eq!(rep.dropped[0].0, Pattern::Fusion);
        assert_eq!(rep.dropped[0].1, crate::model::TreeRejection::Arity(3).to_string());
        assert!(m.fusion.is_none() && m.direction.is_some());

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn ood_features_clamp_to_training_ranges() {
        // The tree pulls iff e_ap (f13) > 0.5. Training saw e_ap only up
        // to 0.25, so a dense step (e_ap = 0.875) is clamped to the edge
        // of that range and decides as a step at e_ap = 0.25 does.
        let mut policy = trained_policy();
        let dense = ctx(8_000, 70_000, 10_000);
        let at_edge = ctx(8_000, 20_000, 60_000);
        let unclamped = policy.decide(&dense, &caps()).direction;
        let mut ranges = vec![(0.0, f64::MAX); FEATURE_COUNT];
        ranges[13] = (0.0, 0.25);
        policy.feature_ranges = Some(ranges);
        let clamped = policy.decide(&dense, &caps()).direction;
        assert_eq!(clamped, policy.decide(&at_edge, &caps()).direction);
        assert_eq!((unclamped, clamped), (Direction::Pull, Direction::Push));
    }
}
