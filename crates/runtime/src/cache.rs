//! The tuned-config cache.
//!
//! GSWITCH's tuning happens per super-step, but its *output* — the
//! configuration that dominated a converged run — is a durable fact
//! about (graph, algorithm, workload shape). The cache keys that fact
//! by `(graph fingerprint, algorithm, feature bucket)` so a warm
//! process can seed the engine and skip the cold-start decisions. The
//! feature bucket quantizes the Table 1 graph attributes that drive the
//! selector's graph-level choices (size, density, skew), so two graphs
//! with the same fingerprint always bucket identically, and re-tuning
//! is reserved for genuinely different workload shapes.
//!
//! The cache persists to disk as a single JSON document and keeps
//! hit/miss/store counters for observability (the serve protocol
//! exposes the hit rate via `stats`).

use gswitch_graph::{Fingerprint, GraphStats};
use gswitch_kernels::KernelConfig;
use gswitch_obs::sync::RwLock;
use gswitch_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::path::Path;

/// Cache key: which graph, which algorithm, which workload shape.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content fingerprint of the graph.
    pub fingerprint: Fingerprint,
    /// Algorithm tag (`"bfs"`, `"sssp"`, `"pr"`, `"cc"`, `"bc"`).
    pub algo: String,
    /// Quantized graph-feature bucket (see [`feature_bucket`]).
    pub bucket: String,
}

impl CacheKey {
    /// Build a key; `bucket` normally comes from [`feature_bucket`].
    pub fn new(fingerprint: Fingerprint, algo: &str, bucket: &str) -> Self {
        CacheKey { fingerprint, algo: algo.to_string(), bucket: bucket.to_string() }
    }

    /// Flat string form used for persistence:
    /// `<fingerprint-hex>/<algo>/<bucket>`.
    pub fn flat(&self) -> String {
        format!("{}/{}/{}", self.fingerprint.to_hex(), self.algo, self.bucket)
    }

    /// Parse the flat form back; `None` if malformed.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.splitn(3, '/');
        let fp = u64::from_str_radix(parts.next()?, 16).ok()?;
        let algo = parts.next()?;
        let bucket = parts.next()?;
        Some(CacheKey::new(Fingerprint(fp), algo, bucket))
    }
}

/// Quantize the selector-relevant graph attributes into a coarse bucket
/// string: log₂|V|, log₂ of the average degree, and the Gini quintile
/// of the degree distribution (quintiles, not deciles, so graphs of the
/// same family and size land together across generator seeds).
/// Identical graphs always agree; graphs that would drive the selector
/// differently usually disagree.
pub fn feature_bucket(stats: &GraphStats) -> String {
    let lv = (stats.num_vertices.max(1) as f64).log2().round() as i64;
    let ld = stats.avg_degree.max(0.0625).log2().round() as i64;
    let gini = (stats.gini.clamp(0.0, 0.999) * 5.0).floor() as i64;
    format!("v{lv}d{ld}g{gini}")
}

/// Counter snapshot (see [`ConfigCache::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheCounters {
    /// Lookups that found a config.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Configs written.
    pub stores: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Persisted-cache loads that failed to parse and degraded to an
    /// empty cache (see [`ConfigCache::load_or_empty`]).
    pub load_failed: u64,
}

impl CacheCounters {
    /// Hits over lookups, 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One persisted cache line (flat key → config).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct CacheRecord {
    key: String,
    config: KernelConfig,
}

/// The persisted document.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct CacheFile {
    version: u32,
    entries: Vec<CacheRecord>,
}

/// Thread-safe tuned-config store with hit/miss accounting.
///
/// The counters are `gswitch_obs` handles so a serving process can
/// share them with its unified [`MetricsRegistry`] (see
/// [`ConfigCache::bind_metrics`]); standalone use needs no registry.
#[derive(Default, Debug)]
pub struct ConfigCache {
    entries: RwLock<HashMap<String, KernelConfig>>,
    hits: Counter,
    misses: Counter,
    stores: Counter,
    load_failed: Counter,
}

impl ConfigCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register this cache's counters into `registry` under the
    /// canonical names, sharing state: increments show up in both the
    /// legacy [`ConfigCache::counters`] shape and the registry snapshot.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter(crate::obs::metric::CACHE_HITS, &self.hits);
        registry.adopt_counter(crate::obs::metric::CACHE_MISSES, &self.misses);
        registry.adopt_counter(crate::obs::metric::CACHE_STORES, &self.stores);
        registry.adopt_counter(crate::obs::metric::CACHE_LOAD_FAILED, &self.load_failed);
    }

    /// Look up a tuned config, counting the hit or miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<KernelConfig> {
        let got = self.entries.read().get(&key.flat()).copied();
        match got {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        got
    }

    /// Look without touching the counters (diagnostics).
    pub fn peek(&self, key: &CacheKey) -> Option<KernelConfig> {
        self.entries.read().get(&key.flat()).copied()
    }

    /// Remember `config` as the tuned choice for `key`.
    pub fn store(&self, key: &CacheKey, config: KernelConfig) {
        self.stores.inc();
        let mut entries = self.entries.write();
        // Fault site fired *inside* the write lock on purpose: an
        // injected panic here poisons the lock, which the poison-safe
        // wrapper must survive (tests/faults.rs).
        crate::faults::fire(crate::faults::site::CACHE_STORE);
        entries.insert(key.flat(), config);
    }

    /// Current counter values.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            stores: self.stores.get(),
            entries: self.entries.read().len() as u64,
            load_failed: self.load_failed.get(),
        }
    }

    /// Zero the hit/miss/store counters (entries are kept), so one
    /// phase of a workload can be counted on its own.
    pub fn reset_counters(&self) {
        self.hits.reset();
        self.misses.reset();
        self.stores.reset();
    }

    /// Serialize the whole cache as a JSON document.
    pub fn to_json(&self) -> String {
        let map = self.entries.read();
        let mut entries: Vec<CacheRecord> =
            map.iter().map(|(k, v)| CacheRecord { key: k.clone(), config: *v }).collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        // Serializing owned records cannot fail in practice; if it ever
        // does, persisting an empty (loadable) document loses cached
        // configs but never takes the server down with it.
        serde_json::to_string_pretty(&CacheFile { version: 1, entries })
            .unwrap_or_else(|_| "{\"version\":1,\"entries\":[]}".to_string())
    }

    /// Rebuild a cache from [`ConfigCache::to_json`] output. Counters
    /// start at zero.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        let file: CacheFile = serde_json::from_str(text)?;
        let cache = ConfigCache::new();
        {
            let mut map = cache.entries.write();
            for rec in file.entries {
                map.insert(rec.key, rec.config);
            }
        }
        Ok(cache)
    }

    /// Merge every entry of `other` into this cache (other wins on
    /// conflicts); counters are untouched. Lets a long-lived server
    /// absorb a persisted cache without replacing what it has learned
    /// since startup.
    pub fn absorb(&self, other: &ConfigCache) {
        let theirs = other.entries.read();
        let mut mine = self.entries.write();
        for (k, v) in theirs.iter() {
            mine.insert(k.clone(), *v);
        }
    }

    /// Persist to `path` as JSON, crash-safely: the document is written
    /// to a temp file in the same directory, fsynced, and renamed over
    /// the target. A crash at any point leaves either the old file or
    /// the new one — never a truncated hybrid that would cost every
    /// tuned config on the next [`ConfigCache::load_or_empty`].
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        use std::io::Write as _;
        let path = path.as_ref();
        // Sibling temp path (same directory, so the rename cannot cross
        // filesystems).
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(self.to_json().as_bytes())?;
            file.sync_all()?;
            drop(file);
            // The crash window the fault suite exercises: temp written
            // and durable, target still untouched.
            crate::faults::fire(crate::faults::site::CACHE_SAVE);
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Load a cache persisted by [`ConfigCache::save`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Load a persisted cache, degrading instead of failing: a missing
    /// file yields a fresh empty cache (normal first run), and a
    /// truncated/corrupt file yields an empty cache with `load_failed`
    /// counted — a serving process must start either way, because the
    /// cache is an optimization, never a correctness dependency.
    pub fn load_or_empty(path: impl AsRef<Path>) -> Self {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(_) => return Self::new(),
        };
        let text = crate::faults::transform_text(crate::faults::site::CACHE_LOAD, text);
        match Self::from_json(&text) {
            Ok(cache) => cache,
            Err(_) => {
                let cache = Self::new();
                cache.load_failed.inc();
                cache
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_graph::gen;
    use gswitch_kernels::KernelConfig;

    fn key(n: u64) -> CacheKey {
        CacheKey::new(Fingerprint(n), "bfs", "v10d3g7")
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = ConfigCache::new();
        assert_eq!(cache.lookup(&key(1)), None);
        assert_eq!(cache.counters().misses, 1);
        assert_eq!(cache.counters().hits, 0);

        cache.store(&key(1), KernelConfig::push_baseline());
        assert_eq!(cache.lookup(&key(1)), Some(KernelConfig::push_baseline()));
        assert_eq!(cache.lookup(&key(2)), None);

        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.stores, c.entries), (1, 2, 1, 1));
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);

        cache.reset_counters();
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.stores), (0, 0, 0));
        assert_eq!(c.entries, 1, "entries survive a counter reset");
    }

    #[test]
    fn bind_metrics_shares_counter_state() {
        let cache = ConfigCache::new();
        let registry = MetricsRegistry::new();
        cache.bind_metrics(&registry);
        cache.lookup(&key(1)); // miss
        cache.store(&key(1), KernelConfig::push_baseline());
        cache.lookup(&key(1)); // hit
        let snap = registry.snapshot();
        assert_eq!(snap.counter(crate::obs::metric::CACHE_HITS), 1);
        assert_eq!(snap.counter(crate::obs::metric::CACHE_MISSES), 1);
        assert_eq!(snap.counter(crate::obs::metric::CACHE_STORES), 1);
        // The legacy shape still reports the same numbers.
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));
    }

    #[test]
    fn peek_does_not_count() {
        let cache = ConfigCache::new();
        cache.store(&key(5), KernelConfig::gunrock_like());
        assert!(cache.peek(&key(5)).is_some());
        assert!(cache.peek(&key(6)).is_none());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (0, 0));
    }

    #[test]
    fn json_roundtrip() {
        let cache = ConfigCache::new();
        for (i, cfg) in KernelConfig::all_shapes().into_iter().enumerate().take(6) {
            cache.store(&CacheKey::new(Fingerprint(i as u64), "pr", "v8d2g3"), cfg);
        }
        let restored = ConfigCache::from_json(&cache.to_json()).unwrap();
        for (i, cfg) in KernelConfig::all_shapes().into_iter().enumerate().take(6) {
            let k = CacheKey::new(Fingerprint(i as u64), "pr", "v8d2g3");
            assert_eq!(restored.peek(&k), Some(cfg), "shape {i}");
        }
        assert_eq!(restored.counters().entries, 6);
    }

    #[test]
    fn save_load_disk_roundtrip() {
        let cache = ConfigCache::new();
        cache.store(&key(7), KernelConfig::gunrock_like());
        let path = std::env::temp_dir().join("gswitch-cache-test.json");
        cache.save(&path).unwrap();
        let back = ConfigCache::load(&path).unwrap();
        assert_eq!(back.peek(&key(7)), Some(KernelConfig::gunrock_like()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_residue() {
        let cache = ConfigCache::new();
        cache.store(&key(3), KernelConfig::push_baseline());
        let path = std::env::temp_dir().join("gswitch-cache-atomic-test.json");
        // Pre-existing content survives until the rename lands.
        std::fs::write(&path, "old-not-json").unwrap();
        cache.save(&path).unwrap();
        let back = ConfigCache::load(&path).unwrap();
        assert_eq!(back.peek(&key(3)), Some(KernelConfig::push_baseline()));
        let tmp = {
            let mut t = path.as_os_str().to_os_string();
            t.push(".tmp");
            std::path::PathBuf::from(t)
        };
        assert!(!tmp.exists(), "successful save must not leave its temp file behind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_or_empty_degrades_on_corruption() {
        let dir = std::env::temp_dir();

        // Missing file: a fresh cache, not a load failure.
        let cache = ConfigCache::load_or_empty(dir.join("gswitch-no-such-cache.json"));
        assert_eq!(cache.counters().entries, 0);
        assert_eq!(cache.counters().load_failed, 0);

        // Truncated JSON: empty cache, load_failed counted.
        let path = dir.join("gswitch-corrupt-cache-test.json");
        let full = {
            let c = ConfigCache::new();
            c.store(&key(1), KernelConfig::push_baseline());
            c.to_json()
        };
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let cache = ConfigCache::load_or_empty(&path);
        assert_eq!(cache.counters().entries, 0, "corrupt file must yield an empty cache");
        assert_eq!(cache.counters().load_failed, 1);
        // The degraded cache is fully usable.
        cache.store(&key(2), KernelConfig::gunrock_like());
        assert_eq!(cache.lookup(&key(2)), Some(KernelConfig::gunrock_like()));

        // A valid file still round-trips through the degrading loader.
        std::fs::write(&path, &full).unwrap();
        let cache = ConfigCache::load_or_empty(&path);
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.counters().load_failed, 0);
        assert_eq!(cache.peek(&key(1)), Some(KernelConfig::push_baseline()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flat_key_roundtrip() {
        let k = CacheKey::new(Fingerprint(0xDEAD_BEEF), "sssp", "v12d4g8");
        let parsed = CacheKey::parse(&k.flat()).unwrap();
        assert_eq!(parsed, k);
        assert!(CacheKey::parse("nonsense").is_none());
    }

    #[test]
    fn bucket_is_stable_and_discriminating() {
        let a = gen::kronecker(9, 8, 1);
        let b = gen::kronecker(9, 8, 2);
        // Same family and size → same bucket even across seeds.
        assert_eq!(feature_bucket(a.stats()), feature_bucket(b.stats()));
        // A regular mesh buckets differently from a scale-free graph.
        let road = gen::grid2d(23, 23, 0.0, 1);
        assert_ne!(feature_bucket(a.stats()), feature_bucket(road.stats()));
    }
}
