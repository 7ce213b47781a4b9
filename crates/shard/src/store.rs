//! Resident partitioned graphs, shared across queries.

use gswitch_graph::shard::ShardedCsr;
use gswitch_graph::Graph;
use gswitch_obs::sync::Lock;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One resident partitioning: the whole graph plus its K-shard form.
///
/// The whole graph stays alongside the shards because apps carry global
/// state sized to it (a PageRank instance needs every out-degree, not
/// one shard's), and because K=1 queries should not pay partition
/// overhead twice.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    graph: Arc<Graph>,
    sharded: Arc<ShardedCsr>,
}

impl ShardPlan {
    /// Partition `graph` into `k` shards.
    pub fn new(graph: Arc<Graph>, k: u32) -> Result<Self, String> {
        let sharded = Arc::new(ShardedCsr::partition(&graph, k)?);
        Ok(ShardPlan { graph, sharded })
    }

    /// The whole graph the shards were cut from.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The resident sharded form.
    pub fn sharded(&self) -> &Arc<ShardedCsr> {
        &self.sharded
    }

    /// Number of shards.
    pub fn k(&self) -> u32 {
        self.sharded.k()
    }
}

/// A plan's identity: the address of the `Arc<Graph>` it was cut from,
/// and K. The resident plan holds a clone of that `Arc`, so no other
/// graph can take the address while the key is in the store.
type PlanKey = (usize, u32);

#[derive(Debug, Default)]
struct StoreInner {
    plans: HashMap<PlanKey, Arc<ShardPlan>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<PlanKey>,
}

/// A bounded cache of [`ShardPlan`]s keyed by graph identity and K.
///
/// Partitioning is the expensive step this subsystem exists to amortize,
/// so plans are built once and shared by `Arc` with every query that
/// needs them. The key is the graph's `Arc`, not its name: two graphs
/// that share a name (two files called `web.mtx`, or one file loaded
/// again) are different graphs with different plans. The cache is
/// bounded (FIFO eviction) because each plan duplicates the graph's CSR
/// across shards; an evicted plan stays alive as long as any in-flight
/// query still holds its `Arc`.
#[derive(Debug)]
pub struct ShardStore {
    inner: Lock<StoreInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardStore {
    /// A store retaining at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ShardStore {
            inner: Lock::new(StoreInner {
                plans: HashMap::with_capacity(capacity.max(1)),
                order: VecDeque::with_capacity(capacity.max(1)),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch the resident plan for `(graph, k)`, partitioning and
    /// inserting it on miss. Errors propagate from the partitioner
    /// (`k == 0`) without poisoning the cache.
    ///
    /// A miss partitions under the store's lock: the queries of one
    /// batch ask for the same plan at the same moment, and one cut they
    /// share is cheaper than one cut each.
    pub fn get_or_partition(&self, graph: &Arc<Graph>, k: u32) -> Result<Arc<ShardPlan>, String> {
        let key = (Arc::as_ptr(graph) as usize, k);
        let mut inner = self.inner.lock();
        if let Some(plan) = inner.plans.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(ShardPlan::new(Arc::clone(graph), k)?);
        if inner.plans.len() >= self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.plans.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.order.push_back(key);
        inner.plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Plans currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().plans.len()
    }

    /// Whether no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (each one paid a partitioning) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The `(graph name, k)` of each resident plan, in eviction order.
    pub fn keys(&self) -> Vec<(String, u32)> {
        let inner = self.inner.lock();
        inner
            .order
            .iter()
            .filter_map(|key| inner.plans.get(key))
            .map(|plan| (plan.graph().name().to_string(), plan.k()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_graph::gen;

    fn arc_graph(seed: u64) -> Arc<Graph> {
        Arc::new(gen::erdos_renyi(120, 480, seed).with_name(format!("er{seed}")))
    }

    #[test]
    fn hit_returns_the_same_plan() {
        let store = ShardStore::new(4);
        let g = arc_graph(1);
        let a = store.get_or_partition(&g, 2).expect("partition");
        let b = store.get_or_partition(&g, 2).expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn different_k_is_a_different_plan() {
        let store = ShardStore::new(4);
        let g = arc_graph(2);
        let a = store.get_or_partition(&g, 2).expect("k=2");
        let b = store.get_or_partition(&g, 4).expect("k=4");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.k(), 2);
        assert_eq!(b.k(), 4);
        assert_eq!(store.len(), 2);
    }

    /// Two graphs that share a name but not their edges get one plan
    /// each, and a sharded BFS over each plan answers for its own graph.
    #[test]
    fn plans_are_keyed_by_graph_identity_not_name() {
        use crate::{run_query, BatchQuery, BatchResult};
        use gswitch_algos::reference;
        use gswitch_core::sharded::ShardedOptions;

        let store = ShardStore::new(4);
        let x = Arc::new(gen::erdos_renyi(120, 480, 1).with_name("web"));
        let y = Arc::new(gen::erdos_renyi(120, 480, 2).with_name("web"));
        assert_ne!(reference::bfs(&x, 0), reference::bfs(&y, 0), "the two graphs must differ");
        for g in [&x, &y] {
            let plan = store.get_or_partition(g, 2).expect("partition");
            assert!(Arc::ptr_eq(plan.graph(), g), "a plan cut from another graph");
            let (_, levels) =
                run_query(&plan, BatchQuery::Bfs { src: 0 }, &ShardedOptions::default())
                    .expect("sharded bfs");
            assert_eq!(levels, BatchResult::Levels(reference::bfs(g, 0)));
        }
        assert_eq!(store.misses(), 2);
        assert_eq!(store.keys(), vec![("web".to_string(), 2), ("web".to_string(), 2)]);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let store = ShardStore::new(2);
        let graphs: Vec<_> = (0..3).map(arc_graph).collect();
        for g in &graphs {
            store.get_or_partition(g, 2).expect("partition");
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        let keys = store.keys();
        assert_eq!(keys, vec![("er1".to_string(), 2), ("er2".to_string(), 2)]);
    }

    #[test]
    fn partitioner_error_propagates_without_insert() {
        let store = ShardStore::new(2);
        let g = arc_graph(5);
        assert!(store.get_or_partition(&g, 0).is_err());
        assert!(store.is_empty());
    }
}
