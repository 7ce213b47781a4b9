//! Causal span profiling: hierarchical wall-clock spans over the whole
//! serving stack.
//!
//! The decision trace ([`crate::trace`]) answers *what the autotuner
//! chose*; spans answer *where the wall time went* — a served request
//! decomposes into scheduler queue wait, engine execution, per-shard
//! super-steps and their inspector/selector/filter/expand/exchange
//! phases, each a [`SpanRecord`] with an explicit parent id. The
//! design keeps the hot path cheap:
//!
//! * one [`Clock`] per ring — a monotonic origin captured once, so a
//!   timestamp is a single `Instant::elapsed` (or an atomic load for
//!   the deterministic manual clock tests and benches use);
//! * spans stage in a bounded per-thread [`LocalSpans`] buffer
//!   (`RefCell`, no lock, no allocation per span) and merge into the
//!   shared [`SpanRing`] in batches of up to [`LOCAL_SPAN_BUF`];
//! * a disabled [`SpanCollector`] costs one `Option` check per span
//!   site, exactly like the decision-trace [`crate::RecorderHandle`].
//!
//! On top of the raw records sit two read-side views: [`timeline_json`]
//! renders Chrome trace-event JSON (open in Perfetto or
//! `chrome://tracing`; one track per worker/shard) and [`profile`]
//! folds spans into an inclusive/exclusive self-time table per kind
//! with exact p50/p95/p99 over per-span self-times.
//!
//! [`Clock::monotonic`] is the *only* place in the serving crates allowed
//! to call `std::time::Instant::now` — clippy's `disallowed_methods`
//! (the root `clippy.toml`) enforces that, so every measured section is
//! attributable to a span or an explicit clock read.

use crate::sync::Lock;
use crate::wire;
use serde_json::{json, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-thread staging capacity: spans buffered locally before one
/// locked merge into the ring. 256 spans × 64 B ≈ 16 KiB per thread.
pub const LOCAL_SPAN_BUF: usize = 256;

/// The monotonic clock every span timestamp comes from.
///
/// `Monotonic` anchors an origin `Instant` at construction and reports
/// nanoseconds since it; `Manual` is a hand-advanced atomic counter so
/// tests and benchmark baselines are bit-deterministic.
#[derive(Clone, Debug)]
pub struct Clock(ClockInner);

#[derive(Clone, Debug)]
enum ClockInner {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A wall clock anchored now.
    #[expect(clippy::disallowed_methods, reason = "the one raw wall-clock read behind every span")]
    pub fn monotonic() -> Self {
        Clock(ClockInner::Monotonic(Instant::now()))
    }

    /// A deterministic clock starting at 0; advance with
    /// [`Clock::advance_ns`].
    pub fn manual() -> Self {
        Clock(ClockInner::Manual(Arc::new(AtomicU64::new(0))))
    }

    /// Nanoseconds since the clock's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            ClockInner::Monotonic(origin) => origin.elapsed().as_nanos() as u64,
            ClockInner::Manual(c) => c.load(Ordering::Relaxed),
        }
    }

    /// Milliseconds elapsed since an earlier [`Clock::now_ns`] reading.
    #[inline]
    pub fn elapsed_ms(&self, start_ns: u64) -> f64 {
        self.now_ns().saturating_sub(start_ns) as f64 / 1.0e6
    }

    /// Advance a manual clock; no-op on a monotonic clock (real time
    /// cannot be pushed).
    pub fn advance_ns(&self, ns: u64) {
        if let ClockInner::Manual(c) = &self.0 {
            c.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Whether this is the hand-advanced test clock.
    pub fn is_manual(&self) -> bool {
        matches!(self.0, ClockInner::Manual(_))
    }

    /// The `Instant` a clock reading corresponds to — how deadline
    /// machinery (which compares `Instant`s) anchors to span time.
    /// `None` for a manual clock, which has no wall identity.
    pub fn instant_at_ns(&self, ns: u64) -> Option<Instant> {
        match &self.0 {
            ClockInner::Monotonic(origin) => {
                origin.checked_add(std::time::Duration::from_nanos(ns))
            }
            ClockInner::Manual(_) => None,
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::monotonic()
    }
}

/// Declares [`SpanKind`], the [`SPAN_KINDS`] registry and the wire names
/// from one list, so no kind can exist without a registry entry and a
/// name.
macro_rules! span_kinds {
    ($($(#[$doc:meta])* $kind:ident => $wire:literal,)+) => {
        /// What a span measures. One variant per structurally distinct
        /// section of the serving stack; the profile table groups by this.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum SpanKind {
            $($(#[$doc])* $kind,)+
        }

        /// Every kind, in stack order (requests before phases).
        pub const SPAN_KINDS: [SpanKind; [$($wire),+].len()] = [$(SpanKind::$kind),+];

        impl SpanKind {
            /// Stable wire name.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(SpanKind::$kind => $wire,)+
                }
            }
        }
    };
}

span_kinds! {
    /// A whole served job: admission to response.
    Request => "request",
    /// Time a job sat in the scheduler queue before a worker took it.
    QueueWait => "queue-wait",
    /// A worker executing one job (engine run + cache bookkeeping).
    Execute => "execute",
    /// One batched multi-query run over a shard plan.
    Batch => "batch",
    /// One query inside a batch, on its slot worker.
    BatchQuery => "batch-query",
    /// One engine super-step (whole-graph) or BSP super-step (sharded).
    SuperStep => "super-step",
    /// Inspector pass: frontier advance / feature classification.
    Inspect => "inspect",
    /// Selector decision (policy evaluation).
    Select => "select",
    /// Filter phase: frontier materialization.
    Filter => "filter",
    /// Work-partition phase: building (or fingerprint-matching and
    /// reusing) the degree-bucketed plan the Expand runs under.
    Partition => "partition",
    /// Expand phase: the priced kernel execution.
    Expand => "expand",
    /// Sharded frontier exchange accounting.
    Exchange => "exchange",
    /// Divergence-sentinel verification of the chosen variant.
    Sentinel => "sentinel",
}

impl SpanKind {
    /// Parse the wire name back.
    pub fn parse(s: &str) -> Option<Self> {
        SPAN_KINDS.iter().copied().find(|k| k.as_str() == s)
    }
}

/// The `worker` of spans the scheduler records at admission: no
/// worker uses it, and timelines label its track `admission`.
pub const ADMISSION_WORKER: u32 = u32::MAX;

/// One timed section. `Copy`, heap-free: recording a span is a struct
/// copy into a thread-local buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Ring-unique id (never 0 — 0 is the "no parent" sentinel).
    pub id: u64,
    /// Enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// What this span measures.
    pub kind: SpanKind,
    /// Job / query id the span belongs to (0 outside serving).
    pub job: u64,
    /// Worker or slot index that ran the section; [`ADMISSION_WORKER`]
    /// for a job settled at admission (refused by an open breaker,
    /// purged or shed), which no worker touched.
    pub worker: u32,
    /// Shard the section ran over (`None` for whole-graph work).
    pub shard: Option<u32>,
    /// Iteration / super-step / query index (0 when not applicable).
    pub iter: u32,
    /// Start, nanoseconds on the ring's [`Clock`].
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End timestamp (start + duration, saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// Duration in milliseconds.
    pub fn dur_ms(&self) -> f64 {
        self.dur_ns as f64 / 1.0e6
    }

    /// Encode as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        wire::encode(json!({
            "id": self.id,
            "parent": self.parent,
            "kind": self.kind.as_str(),
            "job": self.job,
            "worker": self.worker,
            "shard": self.shard,
            "iter": self.iter,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
        }))
    }

    /// Decode one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let v = serde_json::parse(line).map_err(|e| e.to_string())?;
        let kind_name = wire::string(&v, "kind")?;
        let kind =
            SpanKind::parse(kind_name).ok_or_else(|| format!("unknown span kind `{kind_name}`"))?;
        Ok(SpanRecord {
            id: wire::uint(&v, "id")?,
            parent: wire::uint(&v, "parent")?,
            kind,
            job: wire::uint(&v, "job")?,
            worker: wire::uint(&v, "worker")? as u32,
            shard: wire::shard(&v),
            iter: wire::uint(&v, "iter")? as u32,
            start_ns: wire::uint(&v, "start_ns")?,
            dur_ns: wire::uint(&v, "dur_ns")?,
        })
    }
}

/// Parse a whole span JSONL document. Returns the good records in file
/// order and `(1-based line, error)` for every bad line; blank lines
/// are skipped.
pub fn parse_spans_jsonl(text: &str) -> (Vec<SpanRecord>, Vec<(usize, String)>) {
    let mut spans = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match SpanRecord::from_json_line(line) {
            Ok(s) => spans.push(s),
            Err(e) => errors.push((i + 1, e)),
        }
    }
    (spans, errors)
}

/// A bounded, thread-safe span sink. When full, the oldest span is
/// evicted and counted in [`SpanRing::dropped`] — a profile computed
/// from a saturated ring reports less work, never phantom work.
#[derive(Debug)]
pub struct SpanRing {
    inner: Lock<VecDeque<SpanRecord>>,
    capacity: usize,
    next_id: AtomicU64,
    dropped: AtomicU64,
    clock: Clock,
}

impl SpanRing {
    /// A ring holding at most `capacity` spans (min 1), timed by a
    /// fresh monotonic clock.
    pub fn new(capacity: usize) -> Self {
        Self::with_clock(capacity, Clock::monotonic())
    }

    /// A ring with an explicit clock (tests and deterministic benches
    /// pass [`Clock::manual`]).
    pub fn with_clock(capacity: usize, clock: Clock) -> Self {
        SpanRing {
            inner: Lock::new(VecDeque::new()),
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            clock,
        }
    }

    /// The clock all of this ring's spans are stamped with.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Reserve a ring-unique span id (ids start at 1; 0 means "none").
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append one span.
    pub fn push(&self, rec: SpanRecord) {
        let mut inner = self.inner.lock();
        if inner.len() >= self.capacity {
            inner.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.push_back(rec);
    }

    /// Drain a thread-local batch into the ring under one lock.
    pub fn merge(&self, recs: &mut Vec<SpanRecord>) {
        if recs.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        for rec in recs.drain(..) {
            if inner.len() >= self.capacity {
                inner.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            inner.push_back(rec);
        }
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out every retained span, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner.lock().iter().copied().collect()
    }

    /// Drop every retained span.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Encode the whole ring as JSONL (one span per line, oldest first,
    /// trailing newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        out
    }

    /// An enabled collector handle over this ring.
    pub fn collector(self: &Arc<Self>) -> SpanCollector {
        SpanCollector(Some(Arc::clone(self)))
    }
}

/// The optional span sink the stack's options structs carry. `Clone`
/// and `Default`-off; disabled, every span site costs one `Option`
/// check and records nothing.
#[derive(Clone, Debug, Default)]
pub struct SpanCollector(Option<Arc<SpanRing>>);

impl SpanCollector {
    /// A disabled collector (the default).
    pub fn none() -> Self {
        SpanCollector(None)
    }

    /// An enabled collector over `ring`.
    pub fn new(ring: Arc<SpanRing>) -> Self {
        SpanCollector(Some(ring))
    }

    /// Whether spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The backing ring, if enabled.
    pub fn ring(&self) -> Option<&Arc<SpanRing>> {
        self.0.as_ref()
    }

    /// Reserve a span id (0 when disabled).
    pub fn alloc_id(&self) -> u64 {
        self.0.as_ref().map(|r| r.alloc_id()).unwrap_or(0)
    }

    /// A per-thread staging buffer stamping spans with `worker`/`job`.
    /// Not `Sync` — each thread makes its own and the buffer flushes on
    /// drop (or every [`LOCAL_SPAN_BUF`] spans).
    pub fn local(&self, worker: u32, job: u64) -> LocalSpans {
        LocalSpans {
            ring: self.0.clone(),
            clock: self.0.as_ref().map(|r| r.clock().clone()).unwrap_or_default(),
            worker,
            job,
            buf: RefCell::new(Vec::new()),
        }
    }
}

/// A bounded per-thread span buffer. Spans open via [`LocalSpans::
/// start`] (RAII) or record directly via [`LocalSpans::record_interval`]
/// when the caller already timed the section; either way they stage
/// here and merge into the ring in batches.
pub struct LocalSpans {
    ring: Option<Arc<SpanRing>>,
    clock: Clock,
    worker: u32,
    job: u64,
    buf: RefCell<Vec<SpanRecord>>,
}

impl LocalSpans {
    /// Whether this buffer feeds a ring.
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// The ring's clock (a fresh monotonic clock when disabled, so
    /// callers can still time sections unconditionally).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Open a span now; it records when the guard drops. `parent` is an
    /// explicit span id (0 for a root) — explicit rather than inferred
    /// from nesting, because children often run on other threads.
    pub fn start(&self, kind: SpanKind, parent: u64) -> SpanGuard<'_> {
        self.start_tagged(kind, parent, None, 0)
    }

    /// [`LocalSpans::start`] with shard and iteration tags.
    pub fn start_tagged(
        &self,
        kind: SpanKind,
        parent: u64,
        shard: Option<u32>,
        iter: u32,
    ) -> SpanGuard<'_> {
        match &self.ring {
            Some(ring) => SpanGuard {
                local: Some(self),
                id: ring.alloc_id(),
                parent,
                kind,
                shard,
                iter,
                start_ns: self.clock.now_ns(),
            },
            None => SpanGuard { local: None, id: 0, parent, kind, shard, iter, start_ns: 0 },
        }
    }

    /// Record a section the caller timed itself (both endpoints read
    /// from this buffer's clock). Returns the new span's id, 0 when
    /// disabled.
    pub fn record_interval(
        &self,
        kind: SpanKind,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        shard: Option<u32>,
        iter: u32,
    ) -> u64 {
        let Some(ring) = &self.ring else { return 0 };
        let id = ring.alloc_id();
        self.push(SpanRecord {
            id,
            parent,
            kind,
            job: self.job,
            worker: self.worker,
            shard,
            iter,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        });
        id
    }

    /// Stage a fully-formed record (the caller controls every field —
    /// how the scheduler closes a `Request` span whose id it allocated
    /// at admission, before any worker existed).
    pub fn record(&self, rec: SpanRecord) {
        if self.ring.is_some() {
            self.push(rec);
        }
    }

    fn push(&self, rec: SpanRecord) {
        let mut buf = self.buf.borrow_mut();
        buf.push(rec);
        if buf.len() >= LOCAL_SPAN_BUF {
            if let Some(ring) = &self.ring {
                ring.merge(&mut buf);
            }
        }
    }

    /// Merge everything staged into the ring now.
    pub fn flush(&self) {
        if let Some(ring) = &self.ring {
            ring.merge(&mut self.buf.borrow_mut());
        }
    }
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for LocalSpans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LocalSpans(worker={}, job={}, {}, staged={})",
            self.worker,
            self.job,
            if self.ring.is_some() { "on" } else { "off" },
            self.buf.borrow().len()
        )
    }
}

/// RAII handle for an open span: the section ends (and the record is
/// staged) when this drops. Holds a shared borrow of its [`LocalSpans`],
/// so sibling and nested guards coexist on one buffer.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    local: Option<&'a LocalSpans>,
    id: u64,
    parent: u64,
    kind: SpanKind,
    shard: Option<u32>,
    iter: u32,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id — hand it to children as their `parent` (0 when
    /// collection is disabled, which children pass through harmlessly).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(local) = self.local else { return };
        let end = local.clock.now_ns();
        local.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            kind: self.kind,
            job: local.job,
            worker: local.worker,
            shard: self.shard,
            iter: self.iter,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
        });
    }
}

/// Everything a subsystem needs to emit spans: the collector, the
/// clock, and the identity (parent span, worker, job) of the section
/// it runs inside. Options structs carry one of these; the default is
/// fully disabled with a private monotonic clock, so un-instrumented
/// callers still time correctly.
#[derive(Clone, Debug)]
pub struct SpanCtx {
    collector: SpanCollector,
    clock: Clock,
    /// Span id of the enclosing section (0 = root).
    pub parent: u64,
    /// Worker / slot index stamped on spans from this context.
    pub worker: u32,
    /// Job id stamped on spans from this context.
    pub job: u64,
}

impl Default for SpanCtx {
    fn default() -> Self {
        SpanCtx {
            collector: SpanCollector::none(),
            clock: Clock::monotonic(),
            parent: 0,
            worker: 0,
            job: 0,
        }
    }
}

impl SpanCtx {
    /// A context over `collector`, inheriting the ring's clock (or a
    /// fresh monotonic clock when disabled).
    pub fn new(collector: SpanCollector, parent: u64, worker: u32, job: u64) -> Self {
        let clock = collector.ring().map(|r| r.clock().clone()).unwrap_or_default();
        SpanCtx { collector, clock, parent, worker, job }
    }

    /// Whether spans are being collected.
    pub fn enabled(&self) -> bool {
        self.collector.is_enabled()
    }

    /// The timestamp source for this context.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The underlying collector.
    pub fn collector(&self) -> &SpanCollector {
        &self.collector
    }

    /// A per-thread buffer stamped with this context's worker and job.
    pub fn local(&self) -> LocalSpans {
        self.collector.local(self.worker, self.job)
    }

    /// The same collector re-rooted under `parent` — how a guard's id
    /// becomes the parent for a callee's spans.
    pub fn child(&self, parent: u64) -> SpanCtx {
        SpanCtx { parent, ..self.clone() }
    }

    /// The same context attributed to another worker/slot index.
    pub fn for_worker(&self, worker: u32) -> SpanCtx {
        SpanCtx { worker, ..self.clone() }
    }
}

// ---------------------------------------------------------------------
// Read side: Chrome trace-event timeline + self-time profile.
// ---------------------------------------------------------------------

/// Render spans as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto format): one complete event (`"ph":"X"`) per span with
/// microsecond timestamps, one named track per worker (`worker-N`),
/// shard (`shard-N`) or the scheduler's `admission`, all under pid 1.
pub fn timeline_json(spans: &[SpanRecord]) -> String {
    // Track ids by first appearance, so the timeline reads top-down in
    // the order work actually started.
    let mut tracks: Vec<String> = Vec::new();
    let tids: Vec<usize> = spans
        .iter()
        .map(|s| {
            let label = match s.shard {
                Some(shard) => format!("shard-{shard}"),
                None if s.worker == ADMISSION_WORKER => "admission".to_string(),
                None => format!("worker-{}", s.worker),
            };
            tracks.iter().position(|t| *t == label).unwrap_or_else(|| {
                tracks.push(label);
                tracks.len() - 1
            })
        })
        .collect();

    let gswitch = json!({ "name": "gswitch" });
    let mut events =
        vec![json!({ "name": "process_name", "ph": "M", "pid": 1u64, "args": gswitch })];
    for (tid, label) in tracks.iter().enumerate() {
        let args = json!({ "name": label });
        events.push(
            json!({ "name": "thread_name", "ph": "M", "pid": 1u64, "tid": tid, "args": args }),
        );
    }
    for (s, tid) in spans.iter().zip(tids) {
        let args = json!({
            "id": s.id,
            "parent": s.parent,
            "job": s.job,
            "iter": s.iter,
            "shard": s.shard,
        });
        // Trace-event timestamps are microseconds; fractional values
        // keep sub-µs host sections visible.
        events.push(json!({
            "name": s.kind.as_str(),
            "cat": "gswitch",
            "ph": "X",
            "ts": s.start_ns as f64 / 1.0e3,
            "dur": s.dur_ns as f64 / 1.0e3,
            "pid": 1u64,
            "tid": tid,
            "args": args,
        }));
    }
    wire::encode(json!({ "displayTimeUnit": "ms", "traceEvents": events }))
}

/// One row of the self-time table: all spans of one kind.
#[derive(Clone, Debug, PartialEq)]
pub struct KindProfile {
    /// The span kind.
    pub kind: SpanKind,
    /// Spans of this kind.
    pub count: u64,
    /// Total inclusive time (span durations summed; nested time counts
    /// once per enclosing kind).
    pub incl_ms: f64,
    /// Total exclusive (self) time: inclusive minus time attributed to
    /// child spans. Exclusive times partition wall time — they sum to
    /// at most the root spans' total.
    pub excl_ms: f64,
    /// Median per-span self time.
    pub p50_ms: f64,
    /// 95th-percentile per-span self time.
    pub p95_ms: f64,
    /// 99th-percentile per-span self time.
    pub p99_ms: f64,
}

/// The aggregated self-time profile over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanProfile {
    /// Per-kind rows, hottest (largest exclusive time) first.
    pub kinds: Vec<KindProfile>,
    /// Total inclusive time of root spans — the wall-time budget the
    /// exclusive column decomposes.
    pub total_ms: f64,
    /// Spans analyzed.
    pub spans: u64,
    /// Root spans (no parent, or parent evicted from the ring).
    pub roots: u64,
}

/// Exact quantile over a sorted sample (nearest-rank); 0 when empty.
fn exact_quantile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as usize;
    sorted_ms[rank.min(sorted_ms.len()) - 1]
}

/// Fold spans into a per-kind inclusive/exclusive self-time profile.
///
/// Exclusive (self) time is *wall-attributed*: each root span owns a
/// budget equal to its duration, and a top-down pass hands each child
/// its share. When children run serially their durations sum to at
/// most the parent's, every child claims its full duration, and the
/// result is the classic `dur − Σ(children dur)` self-time. When
/// children overlap in wall time — shard fan-out runs expands on
/// parallel workers under one super-step — their claims are scaled
/// down proportionally so the parent's wall second is attributed only
/// once. This keeps `Σ excl ≤ Σ root durations` (`total_ms`) exact on
/// arbitrarily parallel traces; read the `incl ms` column for the raw
/// (CPU-time-like) per-kind sums.
///
/// Spans whose parent is missing (evicted, or recorded by a disabled
/// parent) count as roots, so the invariant holds even on a saturated
/// ring. Malformed inputs whose parent links form a cycle are
/// unreachable from any root and get zero self-time.
pub fn profile(spans: &[SpanRecord]) -> SpanProfile {
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 && s.parent != s.id && index.contains_key(&s.parent) {
            children.entry(s.parent).or_default().push(i);
        }
    }

    let mut out = SpanProfile { spans: spans.len() as u64, ..Default::default() };
    let mut self_ms_of: Vec<f64> = vec![0.0; spans.len()];
    let mut stack: Vec<(usize, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let is_root = s.parent == 0 || s.parent == s.id || !index.contains_key(&s.parent);
        if is_root {
            out.roots += 1;
            out.total_ms += s.dur_ms();
            stack.push((i, s.dur_ms()));
        }
    }
    while let Some((i, budget)) = stack.pop() {
        let kids = children.get(&spans[i].id).map(Vec::as_slice).unwrap_or(&[]);
        let kid_sum: f64 = kids.iter().map(|&k| spans[k].dur_ms()).sum();
        let claim = kid_sum.min(budget);
        self_ms_of[i] = budget - claim;
        if kid_sum > 0.0 {
            let scale = claim / kid_sum;
            for &k in kids {
                stack.push((k, spans[k].dur_ms() * scale));
            }
        }
    }

    let mut per_kind: BTreeMap<SpanKind, (u64, u64, Vec<f64>)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let entry = per_kind.entry(s.kind).or_insert_with(|| (0, 0, Vec::new()));
        entry.0 += 1;
        entry.1 += s.dur_ns;
        entry.2.push(self_ms_of[i]);
    }

    for (kind, (count, incl_ns, mut self_ms)) in per_kind {
        self_ms.sort_by(f64::total_cmp);
        out.kinds.push(KindProfile {
            kind,
            count,
            incl_ms: incl_ns as f64 / 1.0e6,
            excl_ms: self_ms.iter().sum(),
            p50_ms: exact_quantile(&self_ms, 0.50),
            p95_ms: exact_quantile(&self_ms, 0.95),
            p99_ms: exact_quantile(&self_ms, 0.99),
        });
    }
    out.kinds.sort_by(|a, b| b.excl_ms.total_cmp(&a.excl_ms));
    out
}

impl SpanProfile {
    /// Sum of per-kind exclusive times — by construction ≤
    /// [`SpanProfile::total_ms`] (plus float rounding).
    pub fn excl_total_ms(&self) -> f64 {
        self.kinds.iter().map(|k| k.excl_ms).sum()
    }

    /// Render the flame-style table, hottest kind first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span profile: {} spans, {} roots, total {:.3} ms (self-time accounted {:.3} ms)",
            self.spans,
            self.roots,
            self.total_ms,
            self.excl_total_ms()
        );
        if self.kinds.is_empty() {
            let _ = writeln!(out, "  (no spans)");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>11} {:>11} {:>7} {:>10} {:>10} {:>10}",
            "kind", "count", "incl ms", "self ms", "self%", "p50 ms", "p95 ms", "p99 ms"
        );
        for k in &self.kinds {
            let pct = if self.total_ms > 0.0 { k.excl_ms / self.total_ms * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "  {:<12} {:>7} {:>11.3} {:>11.3} {:>6.1}% {:>10.4} {:>10.4} {:>10.4}",
                k.kind.as_str(),
                k.count,
                k.incl_ms,
                k.excl_ms,
                pct,
                k.p50_ms,
                k.p95_ms,
                k.p99_ms
            );
        }
        out
    }

    /// Render as one JSON object (the serve `stats.profile` section and
    /// the `BENCH_profile.json` phase table).
    pub fn to_json(&self) -> String {
        let kinds = self
            .kinds
            .iter()
            .map(|k| {
                let row = json!({
                    "count": k.count,
                    "incl_ms": k.incl_ms,
                    "excl_ms": k.excl_ms,
                    "p50_ms": k.p50_ms,
                    "p95_ms": k.p95_ms,
                    "p99_ms": k.p99_ms,
                });
                (k.kind.as_str().to_string(), row)
            })
            .collect();
        wire::encode(json!({
            "spans": self.spans,
            "roots": self.roots,
            "total_ms": self.total_ms,
            "self_total_ms": self.excl_total_ms(),
            "kinds": Value::Object(kinds),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_ring(capacity: usize) -> Arc<SpanRing> {
        Arc::new(SpanRing::with_clock(capacity, Clock::manual()))
    }

    #[test]
    fn clocks_advance_and_convert() {
        let m = Clock::manual();
        assert!(m.is_manual());
        assert_eq!(m.now_ns(), 0);
        m.advance_ns(2_500_000);
        assert_eq!(m.now_ns(), 2_500_000);
        assert!((m.elapsed_ms(500_000) - 2.0).abs() < 1e-12);
        assert!(m.instant_at_ns(0).is_none());

        let w = Clock::monotonic();
        assert!(!w.is_manual());
        let a = w.now_ns();
        let b = w.now_ns();
        assert!(b >= a);
        w.advance_ns(1); // no-op on wall clocks
        assert!(w.instant_at_ns(1_000).is_some());
    }

    #[test]
    fn span_kind_names_round_trip() {
        for kind in SPAN_KINDS {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }

    #[test]
    fn jsonl_round_trip_with_and_without_shard() {
        let rec = SpanRecord {
            id: 7,
            parent: 3,
            kind: SpanKind::Expand,
            job: 11,
            worker: 2,
            shard: Some(1),
            iter: 5,
            start_ns: 1_000,
            dur_ns: 2_500,
        };
        let line = rec.to_json_line();
        assert!(line.contains("\"shard\":1"));
        assert_eq!(SpanRecord::from_json_line(&line), Ok(rec));

        let plain = SpanRecord { shard: None, ..rec };
        let line = plain.to_json_line();
        assert!(!line.contains("shard"));
        assert_eq!(SpanRecord::from_json_line(&line), Ok(plain));

        assert!(SpanRecord::from_json_line("not json").is_err());
        assert!(SpanRecord::from_json_line("{}").is_err());
        let bad = rec.to_json_line().replace("expand", "sideways");
        assert!(SpanRecord::from_json_line(&bad).is_err());
    }

    #[test]
    fn parse_spans_jsonl_reports_bad_lines() {
        let ring = manual_ring(8);
        let local = ring.collector().local(0, 1);
        drop(local.start(SpanKind::Execute, 0));
        drop(local);
        let mut text = ring.to_jsonl();
        text.push('\n');
        text.push_str("garbage\n");
        let (spans, errors) = parse_spans_jsonl(&text);
        assert_eq!(spans.len(), 1);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 3);
    }

    #[test]
    fn guards_nest_with_explicit_parents_and_measure_durations() {
        let ring = manual_ring(64);
        let clock = ring.clock().clone();
        let collector = ring.collector();
        {
            let local = collector.local(3, 9);
            let step = local.start_tagged(SpanKind::SuperStep, 0, None, 2);
            clock.advance_ns(1_000);
            {
                let inner = local.start_tagged(SpanKind::Expand, step.id(), Some(1), 2);
                assert_ne!(inner.id(), step.id());
                clock.advance_ns(5_000);
            }
            clock.advance_ns(500);
        } // local drops → flush
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 2);
        // Inner guard drops first.
        let (expand, step) = (&spans[0], &spans[1]);
        assert_eq!(expand.kind, SpanKind::Expand);
        assert_eq!(expand.parent, step.id);
        assert_eq!(expand.dur_ns, 5_000);
        assert_eq!(expand.shard, Some(1));
        assert_eq!((expand.worker, expand.job, expand.iter), (3, 9, 2));
        assert_eq!(step.kind, SpanKind::SuperStep);
        assert_eq!(step.parent, 0);
        assert_eq!(step.dur_ns, 6_500);
        assert_eq!(step.start_ns, 0);
    }

    #[test]
    fn disabled_collector_records_nothing_and_ids_are_zero() {
        let c = SpanCollector::none();
        assert!(!c.is_enabled());
        assert_eq!(c.alloc_id(), 0);
        let local = c.local(0, 0);
        assert!(!local.enabled());
        let g = local.start(SpanKind::Execute, 0);
        assert_eq!(g.id(), 0);
        drop(g);
        assert_eq!(local.record_interval(SpanKind::Select, 0, 0, 10, None, 0), 0);
        local.flush();
        // The clock still works so callers can time unconditionally.
        let t0 = local.clock().now_ns();
        assert!(local.clock().now_ns() >= t0);
    }

    #[test]
    fn local_buffer_flushes_when_full() {
        let ring = manual_ring(10_000);
        let local = ring.collector().local(0, 0);
        for _ in 0..LOCAL_SPAN_BUF - 1 {
            drop(local.start(SpanKind::Select, 0));
        }
        assert_eq!(ring.len(), 0, "stays staged below the buffer bound");
        drop(local.start(SpanKind::Select, 0));
        assert_eq!(ring.len(), LOCAL_SPAN_BUF, "merges in one batch at the bound");
    }

    #[test]
    fn ring_eviction_counts_drops() {
        let ring = manual_ring(3);
        for i in 0..5u64 {
            ring.push(SpanRecord {
                id: i + 1,
                parent: 0,
                kind: SpanKind::Execute,
                job: 0,
                worker: 0,
                shard: None,
                iter: 0,
                start_ns: i,
                dur_ns: 1,
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.snapshot()[0].id, 3);
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn span_ctx_inherits_ring_clock_and_reroots() {
        let ring = manual_ring(8);
        let ctx = SpanCtx::new(ring.collector(), 0, 2, 7);
        assert!(ctx.enabled());
        ring.clock().advance_ns(42);
        assert_eq!(ctx.clock().now_ns(), 42, "ctx clock is the ring clock");
        let child = ctx.child(99).for_worker(5);
        assert_eq!((child.parent, child.worker, child.job), (99, 5, 7));
        let local = child.local();
        drop(local.start(SpanKind::Inspect, child.parent));
        drop(local);
        let spans = ring.snapshot();
        assert_eq!((spans[0].parent, spans[0].worker, spans[0].job), (99, 5, 7));
        // The default ctx is off but still has a usable clock.
        let off = SpanCtx::default();
        assert!(!off.enabled());
        let _ = off.clock().now_ns();
    }

    fn rec(id: u64, parent: u64, kind: SpanKind, shard: Option<u32>, dur_ns: u64) -> SpanRecord {
        SpanRecord { id, parent, kind, job: 1, worker: 0, shard, iter: 0, start_ns: 0, dur_ns }
    }

    #[test]
    fn profile_computes_self_time_and_respects_wall_budget() {
        // request(10ms) → execute(8ms) → {expand 5ms, select 1ms}
        let spans = vec![
            rec(1, 0, SpanKind::Request, None, 10_000_000),
            rec(2, 1, SpanKind::Execute, None, 8_000_000),
            rec(3, 2, SpanKind::Expand, None, 5_000_000),
            rec(4, 2, SpanKind::Select, None, 1_000_000),
        ];
        let p = profile(&spans);
        assert_eq!(p.spans, 4);
        assert_eq!(p.roots, 1);
        assert!((p.total_ms - 10.0).abs() < 1e-9);
        let by_kind = |k: SpanKind| p.kinds.iter().find(|r| r.kind == k).map(|r| r.excl_ms);
        assert!((by_kind(SpanKind::Request).unwrap() - 2.0).abs() < 1e-9);
        assert!((by_kind(SpanKind::Execute).unwrap() - 2.0).abs() < 1e-9);
        assert!((by_kind(SpanKind::Expand).unwrap() - 5.0).abs() < 1e-9);
        // Self-times decompose the root's wall time.
        assert!(p.excl_total_ms() <= p.total_ms + 1e-9);
        // Hottest first.
        assert_eq!(p.kinds[0].kind, SpanKind::Expand);
        let text = p.render();
        assert!(text.contains("expand"));
        assert!(text.contains("total 10.000 ms"));
        let json = serde_json::parse(&p.to_json()).unwrap();
        assert_eq!(
            json.get("kinds")
                .and_then(|k| k.get("expand"))
                .and_then(|e| e.get("count"))
                .and_then(|c| c.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn profile_treats_orphans_as_roots() {
        // Parent id 99 was evicted: the child must become a root so
        // totals never undercount what remains.
        let spans = vec![
            rec(1, 99, SpanKind::Execute, None, 4_000_000),
            rec(2, 1, SpanKind::Expand, Some(0), 3_000_000),
        ];
        let p = profile(&spans);
        assert_eq!(p.roots, 1);
        assert!((p.total_ms - 4.0).abs() < 1e-9);
        assert!(p.excl_total_ms() <= p.total_ms + 1e-9);
    }

    #[test]
    fn profile_percentiles_are_exact_over_self_times() {
        let mut spans = Vec::new();
        for i in 0..100u64 {
            spans.push(rec(i + 1, 0, SpanKind::Expand, None, (i + 1) * 1_000_000));
        }
        let p = profile(&spans);
        let row = &p.kinds[0];
        assert_eq!(row.count, 100);
        assert!((row.p50_ms - 50.0).abs() < 1e-9);
        assert!((row.p95_ms - 95.0).abs() < 1e-9);
        assert!((row.p99_ms - 99.0).abs() < 1e-9);
        assert_eq!(exact_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn timeline_groups_tracks_per_worker_and_shard() {
        let mut spans = vec![
            rec(1, 0, SpanKind::Batch, None, 9_000_000),
            rec(2, 1, SpanKind::Expand, Some(0), 2_000_000),
            rec(3, 1, SpanKind::Expand, Some(1), 3_000_000),
            rec(4, 0, SpanKind::Request, None, 1_000_000),
        ];
        spans[1].worker = 1;
        spans[3].worker = ADMISSION_WORKER;
        let json = timeline_json(&spans);
        let v = serde_json::parse(&json).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 1 process_name + 4 thread_name (worker-0, shard-0, shard-1,
        // admission) + 4 complete events.
        assert_eq!(events.len(), 9);
        let metas: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")).collect();
        assert_eq!(metas.len(), 5);
        let last = metas.last().and_then(|m| m.get("args")).and_then(|a| a.get("name"));
        assert_eq!(last.and_then(|n| n.as_str()), Some("admission"));
        let completes: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
        assert_eq!(completes.len(), 4);
        // Shards land on distinct tracks.
        let tid_of = |shard: u64| {
            completes
                .iter()
                .find(|e| {
                    e.get("args").and_then(|a| a.get("shard")).and_then(|s| s.as_u64())
                        == Some(shard)
                })
                .and_then(|e| e.get("tid"))
                .and_then(|t| t.as_u64())
        };
        assert_ne!(tid_of(0), tid_of(1));
        // Durations are microseconds.
        assert_eq!(completes[0].get("dur").and_then(|d| d.as_f64()), Some(9_000.0));
    }
}
