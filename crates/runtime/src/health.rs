//! The `health` verb: a per-component liveness and degradation report.
//!
//! [`HealthReport::gather`] is cheap and lock-light by construction —
//! it reads atomics, counter handles, and short snapshots, never an
//! engine run — so health answers even while every worker is busy and
//! the queue is full. That property is asserted by the chaos-soak
//! suite: health must respond throughout sustained overload and fault
//! injection.
//!
//! The overall `status` is `"ok"` or `"degraded"`; it degrades when
//! brownout is active or any circuit breaker is open. Both conditions
//! self-heal (brownout exits on low occupancy, breakers close after a
//! successful cooldown probe), so a degraded report is a statement
//! about *now*, not a latched alarm.

use crate::breaker::BreakerView;
use crate::cache::ConfigCache;
use crate::scheduler::Scheduler;

/// One component's row in the health report.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ComponentHealth {
    /// Component name (`scheduler`, `breakers`, `brownout`, `cache`,
    /// `shards`).
    pub component: String,
    /// `"ok"`, `"degraded"`, or `"open"` (breakers only).
    pub status: String,
    /// Human-readable state summary.
    pub detail: String,
}

/// The aggregate report behind the `health` verb.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct HealthReport {
    /// `"ok"` or `"degraded"`.
    pub status: String,
    /// Whether brownout (degraded-mode serving) is active.
    pub brownout: bool,
    /// Circuit breakers currently open or half-open.
    pub breakers_open: u64,
    /// Per-component rows.
    pub components: Vec<ComponentHealth>,
    /// Every non-closed breaker, by (graph fingerprint, algorithm).
    pub breakers: Vec<BreakerView>,
}

impl HealthReport {
    /// Assemble the report from live component state.
    pub fn gather(scheduler: &Scheduler, cache: &ConfigCache) -> Self {
        let queued = scheduler.queued();
        let capacity = scheduler.capacity();
        let occupancy = queued as f64 / capacity.max(1) as f64;
        let wait = scheduler
            .queue_wait_p95_ms()
            .map(|p95| format!("{p95:.1}"))
            .unwrap_or_else(|| "n/a".to_string());

        let brownout = scheduler.brownout();
        let degraded = brownout.active();
        let breakers = scheduler.breakers();
        let open = breakers.open_count();

        let components = vec![
            ComponentHealth {
                component: "scheduler".to_string(),
                status: if occupancy >= 1.0 { "degraded" } else { "ok" }.to_string(),
                detail: format!(
                    "queued {queued}/{capacity} (occupancy {occupancy:.2}), p95 wait {wait} ms"
                ),
            },
            ComponentHealth {
                component: "breakers".to_string(),
                status: if open > 0 { "open" } else { "ok" }.to_string(),
                detail: format!(
                    "{open} open (threshold {}, cooldown {} ms)",
                    breakers.failure_threshold(),
                    breakers.cooldown_ms()
                ),
            },
            ComponentHealth {
                component: "brownout".to_string(),
                status: if degraded { "degraded" } else { "ok" }.to_string(),
                detail: format!(
                    "entered {} / exited {} times",
                    brownout.entered(),
                    brownout.exited()
                ),
            },
            {
                let c = cache.counters();
                ComponentHealth {
                    component: "cache".to_string(),
                    status: if c.load_failed > 0 { "degraded" } else { "ok" }.to_string(),
                    detail: format!(
                        "{} entries, hit rate {:.2}, {} failed loads",
                        c.entries,
                        c.hit_rate(),
                        c.load_failed
                    ),
                }
            },
            {
                let plans = scheduler.plans();
                ComponentHealth {
                    component: "shards".to_string(),
                    status: "ok".to_string(),
                    detail: format!(
                        "{} resident plans, {} hits / {} misses",
                        plans.len(),
                        plans.hits(),
                        plans.misses()
                    ),
                }
            },
        ];
        HealthReport {
            status: if degraded || open > 0 { "degraded" } else { "ok" }.to_string(),
            brownout: degraded,
            breakers_open: open as u64,
            components,
            breakers: breakers.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::registry::GraphRegistry;
    use crate::scheduler::{BreakerConfig, SchedulerConfig};
    use gswitch_graph::gen;
    use std::sync::Arc;

    #[test]
    fn healthy_runtime_reports_ok_everywhere() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let s = Scheduler::new(registry, Arc::clone(&cache), SchedulerConfig::default());
        let report = HealthReport::gather(&s, &cache);
        assert_eq!(report.status, "ok");
        assert!(!report.brownout);
        assert_eq!(report.breakers_open, 0);
        assert!(report.breakers.is_empty());
        // The shards row is there before any sharded job ran.
        let names: Vec<&str> = report.components.iter().map(|c| c.component.as_str()).collect();
        assert_eq!(names, ["scheduler", "breakers", "brownout", "cache", "shards"]);
        assert!(report.components.iter().all(|c| c.status == "ok"), "{report:?}");
        s.shutdown();
    }

    #[test]
    fn open_breaker_degrades_the_report() {
        use crate::breaker::BreakerKey;
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let fp = registry.get("kron").unwrap().fingerprint().0;
        let cache = Arc::new(ConfigCache::new());
        let config = SchedulerConfig {
            breaker: BreakerConfig { failure_threshold: 1, cooldown_ms: 600_000 },
            ..Default::default()
        };
        let s = Scheduler::new(registry, Arc::clone(&cache), config);
        s.breakers().record_failure(BreakerKey { fingerprint: fp, algo: "bfs" }, false);
        let report = HealthReport::gather(&s, &cache);
        assert_eq!(report.status, "degraded");
        assert_eq!(report.breakers_open, 1);
        assert_eq!(report.breakers.len(), 1);
        assert_eq!(report.breakers[0].algo, "bfs");
        // The report round-trips through the wire format.
        let json = serde_json::to_string(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.status, "degraded");
        assert_eq!(back.breakers_open, 1);
        s.shutdown();
    }

    /// The shards row reads the scheduler's own plan store.
    #[test]
    fn health_answers_with_shards_attached() {
        use crate::query::{JobSpec, JobStatus};
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("er-h", gen::erdos_renyi(100, 400, 5));
        let cache = Arc::new(ConfigCache::new());
        let s = Scheduler::new(registry, Arc::clone(&cache), SchedulerConfig::default());
        let spec =
            JobSpec { graph: "er-h".into(), query: Query::Cc, timeout_ms: None, priority: None };
        assert_eq!(s.submit_sharded(spec, 4).unwrap().wait().status, JobStatus::Ok);
        let report = HealthReport::gather(&s, &cache);
        let shard_row = report.components.iter().find(|c| c.component == "shards").unwrap();
        assert!(shard_row.detail.contains("1 resident plans"), "{}", shard_row.detail);
        s.shutdown();
    }
}
