//! The graph registry: load once, fingerprint once, share everywhere.
//!
//! Every query names its graph; the registry owns the only copy. A
//! graph is fingerprinted (content hash over its CSR arrays, see
//! [`gswitch_graph::fingerprint`]) exactly once at registration, and
//! all queries against it share the same `Arc` — a thousand concurrent
//! BFS jobs on the same social graph cost one graph's worth of memory.
//! Untrusted graphs enter through [`GraphRegistry::insert_validated`],
//! directly or from a file by [`GraphRegistry::load_path`].

use gswitch_graph::{gen, io, validate, CsrValidator, Fingerprint, Graph};
use gswitch_obs::sync::RwLock;
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

/// Thread-safe name → [`GraphEntry`] map.
#[derive(Default, Debug)]
pub struct GraphRegistry {
    entries: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
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
    /// never inserted, and is counted in
    /// [`gswitch_graph::validate::graphs_rejected`].
    pub fn insert_validated(
        &self,
        name: impl Into<String>,
        graph: Graph,
    ) -> Result<Arc<GraphEntry>, String> {
        let name = name.into();
        let report = CsrValidator::new().validate_graph(&graph);
        if !report.is_valid() {
            validate::note_graph_rejected();
            return Err(format!("graph `{name}` rejected: {report}"));
        }
        Ok(self.insert(name, graph))
    }

    /// Load a graph file (MatrixMarket, edge list, or DIMACS — whatever
    /// [`gswitch_graph::io::load_path`] accepts) under `opts` (size
    /// limits, strict-vs-repair mode) and register it through
    /// [`GraphRegistry::insert_validated`]. Returns the entry plus the
    /// loader's repair report so callers can surface what repair-mode
    /// loading had to fix.
    pub fn load_path(
        &self,
        name: impl Into<String>,
        path: &str,
        opts: &io::LoadOptions,
    ) -> Result<(Arc<GraphEntry>, gswitch_graph::BuildReport), String> {
        let loaded = io::load_path(path, opts).map_err(|e| e.to_string())?;
        let entry = self.insert_validated(name, loaded.graph)?;
        Ok((entry, loaded.report))
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

    #[test]
    fn insert_validated_rejects_and_counts_bad_graphs() {
        use gswitch_graph::Csr;
        // Sound topology, corrupt weights: zero weight + misaligned
        // length — exactly what a hostile pre-built graph could smuggle
        // past the builder.
        let csr = Csr::new(vec![0, 1, 2], vec![1, 0]);
        let bad = Graph::from_parts(csr, None, Some(vec![0]), None, "bad");
        let reg = GraphRegistry::new();
        let before = validate::graphs_rejected();
        let err = reg.insert_validated("bad", bad).map(|_| ()).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        assert!(reg.is_empty(), "rejected graph must not be registered");
        assert!(validate::graphs_rejected() > before);
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
