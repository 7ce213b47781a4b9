//! The graph registry: load once, fingerprint once, share everywhere.
//!
//! Every query names its graph; the registry owns the only copy. A
//! graph is fingerprinted (content hash over its CSR arrays, see
//! [`gswitch_graph::fingerprint`]) exactly once at registration, and
//! all queries against it share the same `Arc` — a thousand concurrent
//! BFS jobs on the same social graph cost one graph's worth of memory.
//! Untrusted graphs enter through [`GraphRegistry::insert_validated`],
//! directly or from a file by [`GraphRegistry::load_path`], which count
//! what they refuse and repair.

use crate::obs::metric;
use gswitch_graph::{gen, io, CsrValidator, Fingerprint, Graph};
use gswitch_obs::sync::RwLock;
use gswitch_obs::{Counter, MetricsRegistry};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Weight attachment parameters for the SSSP twin — the same the bench
/// harness uses, so tuned configs transfer between the two.
const WEIGHT_MAX: u32 = 64;
const WEIGHT_SEED: u64 = 0xC0FFEE;

/// One registered graph: the shared topology, its content fingerprint,
/// and a lazily built weighted twin for weight-demanding queries.
#[derive(Debug)]
pub struct GraphEntry {
    name: String,
    graph: Arc<Graph>,
    fingerprint: Fingerprint,
    weighted: OnceLock<Arc<Graph>>,
}

impl GraphEntry {
    fn new(name: String, graph: Graph) -> Self {
        let fingerprint = graph.fingerprint();
        GraphEntry { name, graph: Arc::new(graph), fingerprint, weighted: OnceLock::new() }
    }

    /// Registry name of this entry.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Content fingerprint, computed once at registration.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The graph with edge weights: the graph itself when already
    /// weighted, otherwise a deterministic weighted twin built on first
    /// use and shared afterwards (SSSP on an unweighted graph).
    pub fn weighted(&self) -> Arc<Graph> {
        if self.graph.is_weighted() {
            return Arc::clone(&self.graph);
        }
        Arc::clone(self.weighted.get_or_init(|| {
            Arc::new(gen::with_random_weights(&self.graph, WEIGHT_MAX, WEIGHT_SEED))
        }))
    }
}

/// Thread-safe name → [`GraphEntry`] map, with counts of the loads and
/// graphs it refused and the repairs its loads made.
#[derive(Default, Debug)]
pub struct GraphRegistry {
    entries: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
    load_rejected: Counter,
    edges_repaired: Counter,
    graphs_rejected: Counter,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register this registry's counters into `metrics` under the
    /// canonical names, sharing state, as
    /// [`ConfigCache::bind_metrics`](crate::ConfigCache::bind_metrics)
    /// does.
    pub fn bind_metrics(&self, metrics: &MetricsRegistry) {
        metrics.adopt_counter(metric::LOAD_REJECTED, &self.load_rejected);
        metrics.adopt_counter(metric::EDGES_REPAIRED, &self.edges_repaired);
        metrics.adopt_counter(metric::GRAPHS_REJECTED, &self.graphs_rejected);
    }

    /// Register `graph` under `name`, replacing any previous entry of
    /// that name. Fingerprinting happens here, once.
    pub fn insert(&self, name: impl Into<String>, graph: Graph) -> Arc<GraphEntry> {
        let name = name.into();
        let entry = Arc::new(GraphEntry::new(name.clone(), graph));
        self.entries.write().insert(name, Arc::clone(&entry));
        entry
    }

    /// Register `graph` under `name` after structural validation —
    /// the untrusted-input front door. A graph whose CSR invariants or
    /// weight alignment fail is refused with the joined issue list, is
    /// never inserted, and is counted in `graphs_rejected`.
    pub fn insert_validated(
        &self,
        name: impl Into<String>,
        graph: Graph,
    ) -> Result<Arc<GraphEntry>, String> {
        let name = name.into();
        let report = CsrValidator::new().validate_graph(&graph);
        if !report.is_valid() {
            self.graphs_rejected.inc();
            return Err(format!("graph `{name}` rejected: {report}"));
        }
        Ok(self.insert(name, graph))
    }

    /// Load a graph file (MatrixMarket, edge list, or DIMACS — whatever
    /// [`gswitch_graph::io::load_path`] accepts) under `opts` (size
    /// limits, strict-vs-repair mode) and register it through
    /// [`GraphRegistry::insert_validated`]. Returns the entry plus the
    /// number of repairs the load made ([`io::Loaded::repairs`]). A
    /// refused load, an unreadable file included, is counted in
    /// `load_rejected`, the repairs in `edges_repaired`.
    pub fn load_path(
        &self,
        name: impl Into<String>,
        path: &str,
        opts: &io::LoadOptions,
    ) -> Result<(Arc<GraphEntry>, usize), String> {
        let loaded = io::load_path(path, opts).map_err(|e| {
            self.load_rejected.inc();
            e.to_string()
        })?;
        let repairs = loaded.repairs();
        self.edges_repaired.add(repairs as u64);
        Ok((self.insert_validated(name, loaded.graph)?, repairs))
    }

    /// Look up a registered graph.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.entries.read().get(name).cloned()
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.entries.read().keys().cloned().collect()
    }

    /// One [`GraphSummary`] per entry, for the serve protocol's
    /// `stats` command.
    pub fn summaries(&self) -> Vec<GraphSummary> {
        self.entries
            .read()
            .values()
            .map(|e| GraphSummary {
                name: e.name.clone(),
                fingerprint: e.fingerprint.to_hex(),
                vertices: e.graph.num_vertices(),
                edges: e.graph.num_edges(),
            })
            .collect()
    }
}

/// A registry entry as reported by the serve protocol's `stats`
/// command.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct GraphSummary {
    /// Registry name.
    pub name: String,
    /// Content fingerprint, hex form.
    pub fingerprint: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_share_one_graph() {
        let reg = GraphRegistry::new();
        let e = reg.insert("k", gen::kronecker(7, 8, 1));
        let g1 = reg.get("k").unwrap();
        assert!(Arc::ptr_eq(e.graph(), g1.graph()));
        assert_eq!(reg.len(), 1);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn fingerprint_computed_once_and_stable() {
        let reg = GraphRegistry::new();
        let a = reg.insert("a", gen::erdos_renyi(64, 256, 3));
        let b = reg.insert("b", gen::erdos_renyi(64, 256, 3));
        // Same content under different names → same fingerprint.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.graph().fingerprint());
    }

    #[test]
    fn weighted_twin_is_lazy_and_shared() {
        let reg = GraphRegistry::new();
        let e = reg.insert("g", gen::grid2d(6, 6, 0.0, 1));
        assert!(!e.graph().is_weighted());
        let w1 = e.weighted();
        let w2 = e.weighted();
        assert!(Arc::ptr_eq(&w1, &w2));
        assert!(w1.is_weighted());
        // Topology is unchanged by weighting: shared, not copied.
        assert!(std::ptr::eq(w1.out_csr(), e.graph().out_csr()));
        assert!(std::ptr::eq(w1.in_csr(), e.graph().in_csr()));
        assert_eq!(w1.stats(), e.graph().stats());
    }

    #[test]
    fn already_weighted_graph_is_its_own_twin() {
        let reg = GraphRegistry::new();
        let g = gen::with_random_weights(&gen::grid2d(5, 5, 0.0, 2), 16, 9);
        let e = reg.insert("w", g);
        assert!(Arc::ptr_eq(&e.weighted(), e.graph()));
    }

    #[test]
    fn insert_validated_accepts_sound_graphs() {
        let reg = GraphRegistry::new();
        let e = reg.insert_validated("ok", gen::grid2d(4, 4, 0.0, 1)).unwrap();
        assert_eq!(e.name(), "ok");
        assert!(reg.get("ok").is_some());
    }

    /// Sound topology, corrupt weights: zero weight + misaligned length
    /// — exactly what a hostile pre-built graph could smuggle past the
    /// builder.
    fn corrupt_graph() -> Graph {
        let csr = gswitch_graph::Csr::new(vec![0, 1, 2], vec![1, 0]);
        Graph::from_parts(csr, None, Some(vec![0]), None, "bad")
    }

    /// The registry's three counters as its bound metrics read them:
    /// (load_rejected, edges_repaired, graphs_rejected).
    fn counts(metrics: &MetricsRegistry) -> (u64, u64, u64) {
        let snap = metrics.snapshot();
        let c = |name| snap.counter(name);
        (c(metric::LOAD_REJECTED), c(metric::EDGES_REPAIRED), c(metric::GRAPHS_REJECTED))
    }

    #[test]
    fn insert_validated_rejects_and_counts_bad_graphs() {
        let (reg, metrics) = (GraphRegistry::new(), MetricsRegistry::new());
        reg.bind_metrics(&metrics);
        let err = reg.insert_validated("bad", corrupt_graph()).map(|_| ()).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        assert!(reg.is_empty(), "rejected graph must not be registered");
        assert_eq!(counts(&metrics), (0, 0, 1));
    }

    /// A refused load, a repaired load and an invalid graph each move
    /// exactly their own counter, by exactly their own amount.
    #[test]
    fn each_outcome_moves_only_its_own_counter() {
        let (reg, metrics) = (GraphRegistry::new(), MetricsRegistry::new());
        reg.bind_metrics(&metrics);
        // A self loop, one edge in both orientations (two directed
        // duplicates once symmetrized) and one weight raised from 0.
        let dirty = std::env::temp_dir().join(format!("gswitch-dirty-{}.txt", std::process::id()));
        std::fs::write(&dirty, "0 0 1\n0 1 0\n1 0 2\n").unwrap();
        let dirty = dirty.to_str().unwrap().to_string();

        let strict = reg.load_path("d", &dirty, &io::LoadOptions::strict());
        assert!(strict.map(|_| ()).unwrap_err().contains("strict mode"));
        assert_eq!(counts(&metrics), (1, 0, 0));

        let (_, repairs) = reg.load_path("d", &dirty, &io::LoadOptions::default()).unwrap();
        assert_eq!(repairs, 4);
        assert_eq!(counts(&metrics), (1, 4, 0));

        assert!(reg.insert_validated("bad", corrupt_graph()).is_err());
        assert_eq!(counts(&metrics), (1, 4, 1));

        // A file that cannot be opened is a refused load too.
        let _ = std::fs::remove_file(&dirty);
        assert!(reg.load_path("d", &dirty, &io::LoadOptions::default()).is_err());
        assert_eq!(counts(&metrics), (2, 4, 1));
        assert_eq!(reg.names(), ["d"]);
    }

    #[test]
    fn replace_under_same_name() {
        let reg = GraphRegistry::new();
        reg.insert("g", gen::kronecker(6, 4, 1));
        let fp1 = reg.get("g").unwrap().fingerprint();
        reg.insert("g", gen::kronecker(6, 4, 2));
        let fp2 = reg.get("g").unwrap().fingerprint();
        assert_ne!(fp1, fp2);
        assert_eq!(reg.len(), 1);
    }
}
