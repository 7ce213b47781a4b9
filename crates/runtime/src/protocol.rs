//! The line-delimited JSON protocol `gswitch-serve` speaks.
//!
//! One request per line on stdin, one JSON response per line on stdout.
//! Requests are a flat object with a `cmd` discriminator:
//!
//! ```json
//! {"cmd":"load","name":"kron","gen":{"kind":"rmat","scale":10,"ef":8,"seed":1}}
//! {"cmd":"load","name":"wiki","path":"graphs/wiki.mtx"}
//! {"cmd":"query","graph":"kron","query":{"Bfs":{"src":0}}}
//! {"cmd":"query","graph":"kron","query":"Cc","timeout_ms":5000,"payload":true}
//! {"cmd":"query","graph":"kron","query":"Cc","priority":"Interactive"}
//! {"cmd":"batch","graph":"kron","queries":[{"Bfs":{"src":0}},"Cc"],"shards":4,"timeout_ms":5000}
//! {"cmd":"stats"}
//! {"cmd":"health"}
//! {"cmd":"save_cache","path":"tuned.json"}
//! {"cmd":"load_cache","path":"tuned.json"}
//! {"cmd":"trace","enable":true}
//! {"cmd":"trace","path":"decisions.jsonl","clear":true}
//! {"cmd":"quit"}
//! ```
//!
//! `batch` submits each of its queries as a scheduler job over a
//! resident K-shard partitioning of the graph (built on first use,
//! cached after), then waits for all of them: each job gets the
//! request's `timeout_ms` and `priority` and is queued, shed, timed out
//! and counted like any `query`. The response lists every job's
//! outcome (payload stripped) plus `ok_count`, summed `sim_ms` and
//! exchange volume, and the worst shard imbalance. Only BFS/PR/CC are
//! batchable — SSSP and BC stay on the single-shard `query` path
//! (priority-driven stepping and two-phase Brandes don't shard), and a
//! batch naming one is refused before any job is submitted.
//!
//! `query` responses are the full [`JobOutcome`](crate::JobOutcome)
//! (per-vertex payload stripped unless `"payload":true`); other
//! commands answer `{"ok":...}` or `{"error":"..."}`. A query's
//! `status` is one of `"Ok"`, `"Error"` (the request itself was bad —
//! not retryable), `"Failed"` (infrastructure fault such as a worker
//! panic — the server retries these transparently, see `--retries`),
//! `"Cancelled"`, `"DeadlineExceeded"` (the job ran past its
//! `timeout_ms`, whether queued, mid-run, or at completion; results
//! are withheld), `"Shed"` (dropped from a full queue to admit
//! higher-priority work — retryable), or `"BreakerOpen"` (the circuit
//! breaker for this graph/algorithm is open — retry after the cooldown
//! the `error` text names). See DESIGN.md's "Failure model" and §4.14
//! for the taxonomy.
//!
//! `priority` on `query` picks the admission class — `"Interactive"`,
//! `"Batch"` (the default), or `"BestEffort"`. Workers drain the queue
//! highest class first, and under overload a full queue sheds strictly
//! lower-priority queued work to admit the newcomer.
//!
//! `health` answers with a per-component report (scheduler occupancy,
//! open breakers, brownout state, cache, shards) and an overall
//! `"ok"`/`"degraded"` status; see [`crate::health::HealthReport`]. It
//! never blocks on workers, so it answers even under full overload.
//!
//! `stats` returns the legacy cache/queue fields plus a `metrics`
//! object — the unified registry snapshot (queue depth, stage latency
//! histograms, job outcome counters including deadline/cancel drops).
//! `trace` controls decision tracing: `enable` toggles it, `path`
//! writes the buffered trace as JSONL (readable by `gswitch-trace`),
//! `clear` empties the buffer; any combination works in one request.

use crate::query::{Priority, Query};
use gswitch_graph::{gen, Graph};

/// A parsed request line.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Request {
    /// Command discriminator: `load`, `query`, `batch`, `stats`,
    /// `health`, `save_cache`, `load_cache`, `trace`, or `quit`.
    pub cmd: String,
    /// Graph name (`load`).
    pub name: Option<String>,
    /// File path (`load` from disk, `save_cache`, `load_cache`).
    pub path: Option<String>,
    /// Synthetic generator spec (`load` without a path).
    pub gen: Option<GenSpec>,
    /// Target graph (`query`).
    pub graph: Option<String>,
    /// The query itself (`query`).
    pub query: Option<Query>,
    /// Per-job deadline override (`query`, and each job of a `batch`).
    pub timeout_ms: Option<u64>,
    /// Admission class (`query`, and each job of a `batch`):
    /// `"Interactive"`, `"Batch"` (the default when absent), or
    /// `"BestEffort"`.
    pub priority: Option<Priority>,
    /// Include per-vertex result vectors in the response (`query`).
    pub payload: Option<bool>,
    /// Turn decision tracing on or off (`trace`).
    pub enable: Option<bool>,
    /// Empty the trace buffer, after any `path` dump (`trace`).
    pub clear: Option<bool>,
    /// Queries to run as sharded jobs (`batch`).
    pub queries: Option<Vec<Query>>,
    /// Shard count override for this batch (`batch`); defaults to the
    /// server's `--shards` setting.
    pub shards: Option<u32>,
}

/// A synthetic graph recipe, mirroring `gswitch_graph::gen`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct GenSpec {
    /// Family: `rmat`, `er`, `ba`, `grid`, `banded`.
    pub kind: String,
    /// R-MAT scale (`rmat`).
    pub scale: Option<u32>,
    /// R-MAT edge factor (`rmat`).
    pub ef: Option<usize>,
    /// Vertex count (`er`, `ba`, `banded`).
    pub n: Option<usize>,
    /// Edge count (`er`).
    pub m: Option<usize>,
    /// Attachment degree (`ba`) / half band width (`banded`).
    pub d: Option<usize>,
    /// Grid width (`grid`).
    pub w: Option<usize>,
    /// Grid height (`grid`).
    pub h: Option<usize>,
    /// RNG seed (all families).
    pub seed: Option<u64>,
}

impl GenSpec {
    /// Materialize the graph, or explain what is wrong with the spec.
    pub fn build(&self) -> Result<Graph, String> {
        let seed = self.seed.unwrap_or(1);
        match self.kind.as_str() {
            "rmat" => {
                let scale = self.scale.ok_or("rmat needs `scale`")?;
                let ef = self.ef.unwrap_or(8);
                if !(1..=24).contains(&scale) {
                    return Err(format!("rmat scale {scale} out of range 1..=24"));
                }
                Ok(gen::kronecker(scale, ef, seed))
            }
            "er" => {
                let n = self.n.ok_or("er needs `n`")?;
                let m = self.m.unwrap_or(n * 8);
                Ok(gen::erdos_renyi(n, m, seed))
            }
            "ba" => {
                let n = self.n.ok_or("ba needs `n`")?;
                let d = self.d.unwrap_or(4);
                Ok(gen::barabasi_albert(n, d, seed))
            }
            "grid" => {
                let w = self.w.ok_or("grid needs `w`")?;
                let h = self.h.unwrap_or(w);
                Ok(gen::grid2d(w, h, 0.0, seed))
            }
            "banded" => {
                let n = self.n.ok_or("banded needs `n`")?;
                let d = self.d.unwrap_or(8);
                Ok(gen::banded(n, d, 0.0, seed))
            }
            other => Err(format!("unknown generator `{other}` (expected rmat|er|ba|grid|banded)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_query_request() {
        let line = r#"{"cmd":"query","graph":"g","query":{"Bfs":{"src":4}}}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        assert_eq!(req.cmd, "query");
        assert_eq!(req.graph.as_deref(), Some("g"));
        assert_eq!(req.query, Some(Query::Bfs { src: 4 }));
        assert_eq!(req.timeout_ms, None);
        assert_eq!(req.payload, None);
    }

    #[test]
    fn parse_query_with_priority() {
        let line = r#"{"cmd":"query","graph":"g","query":"Cc","priority":"Interactive"}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        assert_eq!(req.priority, Some(Priority::Interactive));
        // Absent priority stays None (the scheduler defaults it to Batch).
        let bare: Request =
            serde_json::from_str(r#"{"cmd":"query","graph":"g","query":"Cc"}"#).unwrap();
        assert_eq!(bare.priority, None);
        // And the field round-trips through serialization.
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.priority, Some(Priority::Interactive));
    }

    /// Older clients still send `"tenant"` on `batch`; the field is no
    /// longer read, and the line must still parse.
    #[test]
    fn batch_line_with_a_tenant_still_parses() {
        let line = r#"{"cmd":"batch","graph":"g","queries":["Cc"],"shards":2,"tenant":"t1","timeout_ms":50}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        assert_eq!(req.cmd, "batch");
        assert_eq!(req.queries, Some(vec![Query::Cc]));
        assert_eq!(req.shards, Some(2));
        assert_eq!(req.timeout_ms, Some(50));
    }

    #[test]
    fn overload_statuses_round_trip_on_the_wire() {
        use crate::query::JobStatus;
        for (status, wire) in
            [(JobStatus::Shed, "\"Shed\""), (JobStatus::BreakerOpen, "\"BreakerOpen\"")]
        {
            assert_eq!(serde_json::to_string(&status).unwrap(), wire);
            let back: JobStatus = serde_json::from_str(wire).unwrap();
            assert_eq!(back, status);
        }
        // Retry semantics are part of the wire contract: shed work is
        // immediately retryable, breaker-open only after a cooldown.
        assert!(JobStatus::Shed.is_retryable());
        assert!(!JobStatus::BreakerOpen.is_retryable());
        assert!(JobStatus::BreakerOpen.retry_after_cooldown());
    }

    #[test]
    fn parse_load_with_gen() {
        let line = r#"{"cmd":"load","name":"k","gen":{"kind":"rmat","scale":9,"ef":8,"seed":3}}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        let spec = req.gen.unwrap();
        let g = spec.build().unwrap();
        assert_eq!(g.num_vertices(), 1 << 9);
    }

    #[test]
    fn genspec_errors_are_readable() {
        let bad: GenSpec = serde_json::from_str(r#"{"kind":"warp"}"#).unwrap();
        assert!(bad.build().unwrap_err().contains("unknown generator"));
        let no_scale: GenSpec = serde_json::from_str(r#"{"kind":"rmat"}"#).unwrap();
        assert!(no_scale.build().unwrap_err().contains("scale"));
    }

    #[test]
    fn every_family_builds() {
        for line in [
            r#"{"kind":"rmat","scale":6}"#,
            r#"{"kind":"er","n":50}"#,
            r#"{"kind":"ba","n":50,"d":3}"#,
            r#"{"kind":"grid","w":5}"#,
            r#"{"kind":"banded","n":40,"d":4}"#,
        ] {
            let spec: GenSpec = serde_json::from_str(line).unwrap();
            let g = spec.build().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(g.num_vertices() > 0, "{line}");
        }
    }
}
