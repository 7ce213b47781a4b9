//! Typed queries and structured results.

/// A query against a registered graph — one of the paper's five
/// benchmarks, with its per-algorithm parameter.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Query {
    /// Breadth-first search from `src`.
    Bfs {
        /// Source vertex.
        src: u32,
    },
    /// Single-source shortest paths from `src` (runs on the entry's
    /// weighted twin when the graph is unweighted).
    Sssp {
        /// Source vertex.
        src: u32,
    },
    /// Delta-PageRank to tolerance `eps`.
    Pr {
        /// Convergence tolerance.
        eps: f64,
    },
    /// Connected components.
    Cc,
    /// Single-source betweenness centrality (Brandes dependencies).
    Bc {
        /// Source vertex.
        src: u32,
    },
}

impl Query {
    /// Algorithm tag used in cache keys and reports.
    pub fn algo(&self) -> &'static str {
        match self {
            Query::Bfs { .. } => "bfs",
            Query::Sssp { .. } => "sssp",
            Query::Pr { .. } => "pr",
            Query::Cc => "cc",
            Query::Bc { .. } => "bc",
        }
    }

    /// The source vertex, for queries that have one.
    pub fn source(&self) -> Option<u32> {
        match *self {
            Query::Bfs { src } | Query::Sssp { src } | Query::Bc { src } => Some(src),
            Query::Pr { .. } | Query::Cc => None,
        }
    }
}

/// Priority class of a submission, used by the scheduler's shed policy
/// when the queue crosses its occupancy watermark: under pressure,
/// lower classes are dropped to admit higher ones. Within a class the
/// queue stays FIFO.
#[derive(
    Clone,
    Copy,
    Debug,
    Default,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    serde::Serialize,
    serde::Deserialize,
)]
pub enum Priority {
    /// Background work: first to be shed.
    BestEffort,
    /// Bulk/offline work: the default class.
    #[default]
    Batch,
    /// Latency-sensitive user traffic: shed last, served first.
    Interactive,
}

impl Priority {
    /// Shedding rank: higher values survive overload longer and are
    /// picked up first. (`Ord` derives from variant order, which is
    /// arranged lowest-to-highest; this makes the intent explicit.)
    pub fn rank(self) -> u8 {
        match self {
            Priority::BestEffort => 0,
            Priority::Batch => 1,
            Priority::Interactive => 2,
        }
    }

    /// Wire/display tag.
    pub fn tag(self) -> &'static str {
        match self {
            Priority::BestEffort => "best-effort",
            Priority::Batch => "batch",
            Priority::Interactive => "interactive",
        }
    }
}

/// A job submission: which graph, what query, how long it may take.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Registry name of the graph.
    pub graph: String,
    /// The query to run.
    pub query: Query,
    /// Per-job deadline in milliseconds, measured from admission
    /// (queue wait included). `None` uses the scheduler default.
    pub timeout_ms: Option<u64>,
    /// Priority class for overload shedding. `None` (an absent field on
    /// the wire — older clients keep working) means [`Priority::Batch`].
    pub priority: Option<Priority>,
}

impl JobSpec {
    /// The effective priority class ([`Priority::Batch`] when unset).
    pub fn priority(&self) -> Priority {
        self.priority.unwrap_or_default()
    }
}

/// Terminal state of a job.
///
/// The full taxonomy (see DESIGN.md §"Failure model" and §4.14):
/// `Ok` / `Error` / `Failed` / `Cancelled` / `DeadlineExceeded` /
/// `Shed` / `BreakerOpen`.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum JobStatus {
    /// Completed within its deadline.
    Ok,
    /// Exceeded its deadline — while queued, mid-run (the engine was
    /// stopped cooperatively), or discovered at completion. The result
    /// is withheld in every case.
    DeadlineExceeded,
    /// Cancelled by the caller — before execution started, or mid-run
    /// at a super-step boundary.
    Cancelled,
    /// The job itself was invalid (unknown graph, bad parameter,
    /// non-convergence). Retrying the same request fails the same way.
    Error,
    /// The runtime failed the job (worker panic, worker death). The
    /// request may be fine — retrying can succeed.
    Failed,
    /// Dropped from the queue by the overload shed policy to make room
    /// for higher-priority work. The request was fine — retrying (with
    /// backoff) can succeed once pressure eases.
    Shed,
    /// Failed fast because the circuit breaker for this
    /// (graph, algorithm) is open after repeated infrastructure
    /// failures. Retry only after the breaker's cooldown; hammering an
    /// open breaker is pointless by construction.
    BreakerOpen,
}

impl JobStatus {
    /// Whether an immediate retry of the identical request could
    /// plausibly succeed: true for infrastructure failures and shed
    /// jobs. `BreakerOpen` is deliberately *not* here — see
    /// [`JobStatus::retry_after_cooldown`].
    pub fn is_retryable(self) -> bool {
        matches!(self, JobStatus::Failed | JobStatus::Shed)
    }

    /// Whether a retry could succeed *after the breaker cooldown* —
    /// the statuses a client should back off on rather than hammer.
    pub fn retry_after_cooldown(self) -> bool {
        matches!(self, JobStatus::BreakerOpen)
    }
}

/// One engine super-step, trimmed for the wire.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct IterStat {
    /// Super-step index.
    pub iteration: u32,
    /// The kernel configuration that ran, in display form
    /// (e.g. `push/queue/twc/remain/standalone`).
    pub config: String,
    /// Whether the selector actually decided this step.
    pub decided: bool,
    /// Active vertices.
    pub v_active: u64,
    /// Active edges.
    pub e_active: u64,
    /// Simulated filter time (ms).
    pub filter_ms: f64,
    /// Simulated expand time (ms).
    pub expand_ms: f64,
    /// Tuning overhead (ms).
    pub overhead_ms: f64,
}

/// A named scalar result (e.g. `reached`, `components`).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Metric value.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &str, value: f64) -> Self {
        Metric { name: name.to_string(), value }
    }
}

/// Full per-vertex result vectors, for callers that want more than the
/// summary metrics (tests compare these against reference
/// implementations; the serve binary strips them unless asked).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Payload {
    /// BFS levels (`u32::MAX` = unreachable).
    Levels {
        /// Per-vertex values.
        values: Vec<u32>,
    },
    /// SSSP distances (`u32::MAX` = unreachable).
    Distances {
        /// Per-vertex values.
        values: Vec<u32>,
    },
    /// CC labels (minimum vertex id per component).
    Labels {
        /// Per-vertex values.
        values: Vec<u32>,
    },
    /// PageRank scores.
    Ranks {
        /// Per-vertex values.
        values: Vec<f64>,
    },
    /// BC dependency scores.
    Scores {
        /// Per-vertex values.
        values: Vec<f64>,
    },
}

/// Everything the scheduler reports back about one job.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JobOutcome {
    /// Job id assigned at admission.
    pub id: u64,
    /// Graph the job ran against.
    pub graph: String,
    /// Algorithm tag.
    pub algo: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Error description when `status` is `Error` (what was wrong with
    /// the request) or `Failed` (the worker's panic payload).
    pub error: Option<String>,
    /// `"hit"` or `"miss"` when the tuned-config cache was consulted.
    pub cache: Option<String>,
    /// Dominant kernel configuration of the run, display form.
    pub config: Option<String>,
    /// Wall-clock time from admission to completion (ms).
    pub wall_ms: f64,
    /// Simulated time including tuner overhead (ms): device Filter,
    /// Expand (and, sharded, exchange) time plus host decision time and
    /// the simulated feedback copy — `RunReport::total_ms`.
    pub sim_ms: f64,
    /// Whether the engine converged.
    pub converged: bool,
    /// Summary metrics.
    pub metrics: Vec<Metric>,
    /// Per-iteration engine trace.
    pub iterations: Vec<IterStat>,
    /// Full result vectors (stripped on the wire by default).
    pub payload: Option<Payload>,
}

impl JobOutcome {
    /// A copy without the bulky per-vertex payload, for the wire.
    pub fn without_payload(mut self) -> Self {
        self.payload = None;
        self
    }

    /// Fetch a summary metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_json_shapes() {
        let q = Query::Bfs { src: 3 };
        let j = serde_json::to_string(&q).unwrap();
        assert_eq!(j, r#"{"Bfs":{"src":3}}"#);
        let back: Query = serde_json::from_str(&j).unwrap();
        assert_eq!(back, q);

        let cc: Query = serde_json::from_str("\"Cc\"").unwrap();
        assert_eq!(cc, Query::Cc);

        let pr: Query = serde_json::from_str(r#"{"Pr":{"eps":0.001}}"#).unwrap();
        assert_eq!(pr, Query::Pr { eps: 0.001 });
    }

    #[test]
    fn algo_tags() {
        assert_eq!(Query::Bfs { src: 0 }.algo(), "bfs");
        assert_eq!(Query::Sssp { src: 0 }.algo(), "sssp");
        assert_eq!(Query::Pr { eps: 1e-3 }.algo(), "pr");
        assert_eq!(Query::Cc.algo(), "cc");
        assert_eq!(Query::Bc { src: 0 }.algo(), "bc");
        assert_eq!(Query::Cc.source(), None);
        assert_eq!(Query::Bc { src: 9 }.source(), Some(9));
    }

    #[test]
    fn job_status_wire_shapes_and_retryability() {
        for (status, wire) in [
            (JobStatus::Ok, "\"Ok\""),
            (JobStatus::DeadlineExceeded, "\"DeadlineExceeded\""),
            (JobStatus::Cancelled, "\"Cancelled\""),
            (JobStatus::Error, "\"Error\""),
            (JobStatus::Failed, "\"Failed\""),
            (JobStatus::Shed, "\"Shed\""),
            (JobStatus::BreakerOpen, "\"BreakerOpen\""),
        ] {
            assert_eq!(serde_json::to_string(&status).unwrap(), wire);
            let back: JobStatus = serde_json::from_str(wire).unwrap();
            assert_eq!(back, status);
        }
        // Immediately retryable: infrastructure failures and shed work.
        assert!(JobStatus::Failed.is_retryable());
        assert!(JobStatus::Shed.is_retryable());
        for s in [
            JobStatus::Ok,
            JobStatus::Error,
            JobStatus::Cancelled,
            JobStatus::DeadlineExceeded,
            JobStatus::BreakerOpen,
        ] {
            assert!(!s.is_retryable(), "{s:?} must not be immediately retryable");
        }
        // Retry-after-cooldown: only an open breaker.
        assert!(JobStatus::BreakerOpen.retry_after_cooldown());
        for s in [JobStatus::Ok, JobStatus::Failed, JobStatus::Shed, JobStatus::Error] {
            assert!(!s.retry_after_cooldown(), "{s:?} must not ask for a cooldown retry");
        }
    }

    #[test]
    fn jobspec_roundtrip_with_missing_timeout() {
        let text = r#"{"graph":"g1","query":{"Sssp":{"src":5}},"timeout_ms":null}"#;
        let spec: JobSpec = serde_json::from_str(text).unwrap();
        assert_eq!(spec.graph, "g1");
        assert_eq!(spec.query, Query::Sssp { src: 5 });
        assert_eq!(spec.timeout_ms, None);
        // `priority` absent on the wire (pre-shedding clients): Batch.
        assert_eq!(spec.priority, None);
        assert_eq!(spec.priority(), Priority::Batch);
    }

    #[test]
    fn priority_wire_shapes_and_ordering() {
        for (p, wire) in [
            (Priority::BestEffort, "\"BestEffort\""),
            (Priority::Batch, "\"Batch\""),
            (Priority::Interactive, "\"Interactive\""),
        ] {
            assert_eq!(serde_json::to_string(&p).unwrap(), wire);
            let back: Priority = serde_json::from_str(wire).unwrap();
            assert_eq!(back, p);
        }
        assert!(Priority::BestEffort < Priority::Batch);
        assert!(Priority::Batch < Priority::Interactive);
        assert_eq!(Priority::default(), Priority::Batch);
        assert_eq!(Priority::Interactive.rank(), 2);
        assert_eq!(Priority::Interactive.tag(), "interactive");
    }
}
