//! Decision tracing: one record per engine super-step, kept in a
//! bounded ring and exportable as JSONL.
//!
//! The engine emits through the [`Recorder`] trait behind a
//! [`RecorderHandle`]; the disabled handle is a single `Option` check
//! and the event itself is plain `Copy` data, so the non-observed path
//! allocates nothing. The enabled path stamps each event with job/graph
//! /algorithm labels and appends to a [`TraceRing`], overwriting the
//! oldest events when full (and counting what it dropped — a trace that
//! silently truncates would lie about coverage).

use crate::sync::Lock;
use crate::wire;
use gswitch_kernels::pattern::{
    AsFormat, Direction, Fusion, KernelConfig, LoadBalance, SteppingDelta,
};
use gswitch_ml::FEATURE_COUNT;
use gswitch_simt::SimMs;
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the iteration's configuration came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// The Selector ran and decided fresh.
    Decided,
    /// The Fig. 10 stability bypass retained the previous configuration.
    StabilityBypass,
    /// A cached tuned configuration seeded the first iteration.
    WarmStart,
    /// A fused kernel chained without re-classifying.
    FusedChain,
    /// The divergence sentinel detected a mismatch against the serial
    /// reference and pinned the run to the reference variant.
    Sentinel,
}

impl Provenance {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Provenance::Decided => "decided",
            Provenance::StabilityBypass => "bypass",
            Provenance::WarmStart => "warm",
            Provenance::FusedChain => "fused-chain",
            Provenance::Sentinel => "sentinel",
        }
    }

    /// Parse the wire name back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "decided" => Some(Provenance::Decided),
            "bypass" => Some(Provenance::StabilityBypass),
            "warm" => Some(Provenance::WarmStart),
            "fused-chain" => Some(Provenance::FusedChain),
            "sentinel" => Some(Provenance::Sentinel),
            _ => None,
        }
    }
}

/// Everything one engine super-step tells the observability layer.
/// `Copy`, heap-free: building one costs a struct copy and nothing else.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Super-step index within the run (0-based, monotone).
    pub iteration: u32,
    /// The configuration the Executor ran.
    pub config: KernelConfig,
    /// How that configuration was chosen.
    pub provenance: Provenance,
    /// The Inspector's expectation for this step's Expand time — the
    /// historical mean `T_e` the stability bypass gambles on (0 when no
    /// history exists yet).
    pub predicted_ms: SimMs,
    /// The Expand time the simulator actually priced.
    pub measured_ms: SimMs,
    /// Simulated Filter time (0 inside a fused chain).
    pub filter_ms: SimMs,
    /// Host decision time + device→host feedback copy.
    pub overhead_ms: f64,
    /// Active vertices the Selector saw.
    pub v_active: u64,
    /// Active edges the Selector saw.
    pub e_active: u64,
    /// Edges the Expand actually traversed.
    pub edges_touched: u64,
    /// Successful comp events.
    pub activations: u64,
    /// Duplicate frontier entries processed (fused mode).
    pub duplicates: u64,
    /// Sum of warp-task cycles in the Expand (load-balance accounting).
    pub task_total_cycles: f64,
    /// Longest warp task (critical path).
    pub task_max_cycles: f64,
    /// Number of warp tasks.
    pub task_count: u64,
    /// The 21-entry feature vector the Selector saw.
    pub features: [f64; FEATURE_COUNT],
    /// Shard that ran this step (`None` for whole-graph runs; set by the
    /// partitioned driver so traces can be grouped per shard).
    pub shard: Option<u32>,
}

impl TraceEvent {
    /// Load-balance imbalance of the Expand: max/mean task cycles
    /// (1 = perfectly balanced, 0 when no tasks ran).
    pub fn imbalance(&self) -> f64 {
        if self.task_count == 0 || self.task_total_cycles == 0.0 {
            0.0
        } else {
            self.task_max_cycles / (self.task_total_cycles / self.task_count as f64)
        }
    }
}

/// The engine-side sink. Implementations must be cheap: `record` runs
/// once per super-step inside the engine loop.
pub trait Recorder: Send + Sync {
    /// Append one event.
    fn record(&self, event: &TraceEvent);
}

/// The optional recorder slot engine options carry. `Clone`-able and
/// `Default`-off; the disabled state costs one `Option` check per
/// iteration and no allocation.
#[derive(Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl RecorderHandle {
    /// A disabled handle (the default).
    pub fn none() -> Self {
        RecorderHandle(None)
    }

    /// An enabled handle.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle(Some(recorder))
    }

    /// The recorder, if recording is on.
    #[inline]
    pub fn active(&self) -> Option<&dyn Recorder> {
        self.0.as_deref()
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecorderHandle({})", if self.0.is_some() { "on" } else { "off" })
    }
}

/// One ring entry: the raw event plus serving-layer labels.
#[derive(Clone, Debug, PartialEq)]
pub struct StampedEvent {
    /// Global sequence number (monotone across the ring's lifetime).
    pub seq: u64,
    /// Job id (0 outside the serving runtime).
    pub job: u64,
    /// Graph label (empty outside the serving runtime).
    pub graph: String,
    /// Algorithm label (empty outside the serving runtime).
    pub algo: String,
    /// The engine event.
    pub event: TraceEvent,
}

impl StampedEvent {
    /// Encode as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let e = &self.event;
        wire::encode(json!({
            "seq": self.seq,
            "job": self.job,
            "graph": self.graph,
            "algo": self.algo,
            "iter": e.iteration,
            "direction": e.config.direction.wire(),
            "format": e.config.format.wire(),
            "lb": e.config.lb.wire(),
            "stepping": e.config.stepping.wire(),
            "fusion": e.config.fusion.wire(),
            "provenance": e.provenance.as_str(),
            "predicted_ms": e.predicted_ms,
            "measured_ms": e.measured_ms,
            "filter_ms": e.filter_ms,
            "overhead_ms": e.overhead_ms,
            "v_active": e.v_active,
            "e_active": e.e_active,
            "edges_touched": e.edges_touched,
            "activations": e.activations,
            "duplicates": e.duplicates,
            "task_total_cycles": e.task_total_cycles,
            "task_max_cycles": e.task_max_cycles,
            "task_count": e.task_count,
            "features": e.features,
            // Written only for sharded runs so pre-shard traces stay byte-stable.
            "shard": e.shard,
        }))
    }

    /// Decode one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let v = serde_json::parse(line).map_err(|e| e.to_string())?;
        let (s, u, f) = (
            |k: &str| wire::string(&v, k),
            |k: &str| wire::uint(&v, k),
            |k: &str| wire::float(&v, k),
        );
        let config = KernelConfig {
            direction: wire::named(&v, "direction", Direction::from_wire)?,
            format: wire::named(&v, "format", AsFormat::from_wire)?,
            lb: wire::named(&v, "lb", LoadBalance::from_wire)?,
            stepping: wire::named(&v, "stepping", SteppingDelta::from_wire)?,
            fusion: wire::named(&v, "fusion", Fusion::from_wire)?,
        };
        let provenance = wire::named(&v, "provenance", Provenance::parse)?;
        let mut features = [0.0; FEATURE_COUNT];
        let arr = v.get("features").and_then(Value::as_array).ok_or("missing `features`")?;
        if arr.len() != FEATURE_COUNT {
            return Err(format!("expected {FEATURE_COUNT} features, got {}", arr.len()));
        }
        for (slot, item) in features.iter_mut().zip(arr) {
            *slot = item.as_f64().filter(|x| x.is_finite()).ok_or("non-numeric feature")?;
        }
        Ok(StampedEvent {
            seq: u("seq")?,
            job: u("job")?,
            graph: s("graph")?.to_string(),
            algo: s("algo")?.to_string(),
            event: TraceEvent {
                iteration: u("iter")? as u32,
                config,
                provenance,
                predicted_ms: f("predicted_ms")?,
                measured_ms: f("measured_ms")?,
                filter_ms: f("filter_ms")?,
                overhead_ms: f("overhead_ms")?,
                v_active: u("v_active")?,
                e_active: u("e_active")?,
                edges_touched: u("edges_touched")?,
                activations: u("activations")?,
                duplicates: u("duplicates")?,
                task_total_cycles: f("task_total_cycles")?,
                task_max_cycles: f("task_max_cycles")?,
                task_count: u("task_count")?,
                features,
                shard: wire::shard(&v),
            },
        })
    }
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<StampedEvent>,
}

/// A bounded, thread-safe event ring. When full, the oldest event is
/// evicted and counted in [`TraceRing::dropped`].
#[derive(Debug)]
pub struct TraceRing {
    inner: Lock<RingInner>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Lock::new(RingInner { events: VecDeque::new() }),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one stamped event.
    pub fn push(&self, job: u64, graph: &str, algo: &str, event: &TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let stamped = StampedEvent {
            seq,
            job,
            graph: graph.to_string(),
            algo: algo.to_string(),
            event: *event,
        };
        let mut inner = self.inner.lock();
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.events.push_back(stamped);
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out every retained event, oldest first.
    pub fn snapshot(&self) -> Vec<StampedEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Drop every retained event (the `trace` verb's `clear`).
    pub fn clear(&self) {
        self.inner.lock().events.clear();
    }

    /// Encode the whole ring as JSONL (one event per line, oldest first,
    /// trailing newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.snapshot() {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }

    /// A recorder stamping events with `job`/`graph`/`algo` labels and
    /// appending to this ring. Hand the result to the engine via
    /// [`RecorderHandle::new`].
    pub fn recorder(self: &Arc<Self>, job: u64, graph: &str, algo: &str) -> Arc<dyn Recorder> {
        Arc::new(RingRecorder {
            ring: Arc::clone(self),
            job,
            graph: graph.to_string(),
            algo: algo.to_string(),
        })
    }
}

struct RingRecorder {
    ring: Arc<TraceRing>,
    job: u64,
    graph: String,
    algo: String,
}

impl Recorder for RingRecorder {
    fn record(&self, event: &TraceEvent) {
        self.ring.push(self.job, &self.graph, &self.algo, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_event(iteration: u32) -> TraceEvent {
        let mut features = [0.0; FEATURE_COUNT];
        for (i, f) in features.iter_mut().enumerate() {
            *f = i as f64 * 0.25;
        }
        TraceEvent {
            iteration,
            config: KernelConfig::push_baseline(),
            provenance: Provenance::Decided,
            predicted_ms: 1.5,
            measured_ms: 2.0,
            filter_ms: 0.5,
            overhead_ms: 0.05,
            v_active: 10,
            e_active: 80,
            edges_touched: 75,
            activations: 40,
            duplicates: 3,
            task_total_cycles: 1000.0,
            task_max_cycles: 250.0,
            task_count: 8,
            features,
            shard: None,
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_every_field() {
        let stamped = StampedEvent {
            seq: 42,
            job: 7,
            graph: "rmat-mid".into(),
            algo: "bfs".into(),
            event: sample_event(3),
        };
        let line = stamped.to_json_line();
        assert!(!line.contains('\n'));
        // Whole-graph events never mention the shard key on the wire.
        assert!(!line.contains("\"shard\""));
        let back = StampedEvent::from_json_line(&line).unwrap();
        assert_eq!(back, stamped);
    }

    #[test]
    fn shard_tag_round_trips_and_is_optional() {
        let mut stamped = StampedEvent {
            seq: 1,
            job: 2,
            graph: "g".into(),
            algo: "pr".into(),
            event: sample_event(0),
        };
        stamped.event.shard = Some(3);
        let line = stamped.to_json_line();
        assert!(line.contains("\"shard\":3"));
        let back = StampedEvent::from_json_line(&line).unwrap();
        assert_eq!(back.event.shard, Some(3));
        // A pre-shard trace line (no `shard` key) still parses.
        let legacy = StampedEvent { event: sample_event(0), ..stamped.clone() };
        let parsed = StampedEvent::from_json_line(&legacy.to_json_line()).unwrap();
        assert_eq!(parsed.event.shard, None);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(StampedEvent::from_json_line("not json").is_err());
        assert!(StampedEvent::from_json_line("{}").is_err());
        let stamped = StampedEvent {
            seq: 0,
            job: 0,
            graph: String::new(),
            algo: String::new(),
            event: sample_event(0),
        };
        let bad = stamped.to_json_line().replace("\"push\"", "\"sideways\"");
        assert!(StampedEvent::from_json_line(&bad).is_err());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = Arc::new(TraceRing::new(3));
        for i in 0..5 {
            ring.push(1, "g", "bfs", &sample_event(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let evs = ring.snapshot();
        assert_eq!(evs[0].event.iteration, 2);
        assert_eq!(evs[2].event.iteration, 4);
        // Sequence numbers keep counting through evictions.
        assert_eq!(evs[2].seq, 4);
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_recorder_stamps_labels() {
        let ring = Arc::new(TraceRing::new(16));
        let rec = ring.recorder(9, "road", "sssp");
        rec.record(&sample_event(0));
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].job, evs[0].graph.as_str(), evs[0].algo.as_str()), (9, "road", "sssp"));
    }

    #[test]
    fn imbalance_and_miss_math() {
        let e = sample_event(0);
        // mean task = 1000/8 = 125; imbalance = 250/125 = 2.
        assert_eq!(e.imbalance(), 2.0);
        let mut idle = e;
        idle.task_count = 0;
        assert_eq!(idle.imbalance(), 0.0);
    }

    #[test]
    fn recorder_handle_states() {
        let off = RecorderHandle::none();
        assert!(!off.is_enabled());
        assert!(off.active().is_none());
        assert_eq!(format!("{off:?}"), "RecorderHandle(off)");
        let on = RecorderHandle::new(Arc::new(TraceRing::new(4)).recorder(0, "g", "bfs"));
        assert!(on.is_enabled());
        assert!(on.active().is_some());
    }
}
