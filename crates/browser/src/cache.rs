//! The browser caches: the LRU result cache (keyed by element + root
//! fingerprint) and the stage cache (keyed by interior stage
//! fingerprints) that feeds local residual-suffix execution.

use std::collections::HashMap;

use parking_lot::Mutex;
use sigma_value::Batch;

/// Cache statistics (experiment E4/E5 observables).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: usize,
}

struct Entry {
    batch: Batch,
    /// Elements this result depends on (for edit invalidation).
    depends_on: Vec<String>,
    bytes: usize,
    last_used: u64,
}

/// LRU result cache with a byte budget.
pub struct ResultCache {
    entries: Mutex<HashMap<String, Entry>>,
    stats: Mutex<CacheStats>,
    clock: Mutex<u64>,
    budget_bytes: usize,
}

impl ResultCache {
    pub fn new(budget_bytes: usize) -> ResultCache {
        ResultCache {
            entries: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
            clock: Mutex::new(0),
            budget_bytes: budget_bytes.max(1),
        }
    }

    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    fn tick(&self) -> u64 {
        let mut c = self.clock.lock();
        *c += 1;
        *c
    }

    pub fn get(&self, key: &str) -> Option<Batch> {
        let now = self.tick();
        let mut entries = self.entries.lock();
        let hit = entries.get_mut(key).map(|e| {
            e.last_used = now;
            e.batch.clone()
        });
        let mut stats = self.stats.lock();
        if hit.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        hit
    }

    pub fn put(&self, key: &str, batch: Batch, depends_on: Vec<String>) {
        let now = self.tick();
        let bytes = batch.byte_size();
        let mut entries = self.entries.lock();
        entries.insert(
            key.to_string(),
            Entry {
                batch,
                depends_on,
                bytes,
                last_used: now,
            },
        );
        // Evict least-recently-used entries until within budget.
        let mut total: usize = entries.values().map(|e| e.bytes).sum();
        let mut evictions = 0;
        while total > self.budget_bytes && entries.len() > 1 {
            let victim = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            if victim == key && entries.len() == 1 {
                break;
            }
            if let Some(e) = entries.remove(&victim) {
                total -= e.bytes;
                evictions += 1;
            }
        }
        let mut stats = self.stats.lock();
        stats.evictions += evictions;
        stats.bytes = total;
    }

    /// Drop every result that depends on the given element (edits to an
    /// input table invalidate downstream results).
    pub fn invalidate_element(&self, element: &str) -> usize {
        let mut entries = self.entries.lock();
        let victims: Vec<String> = entries
            .iter()
            .filter(|(_, e)| e.depends_on.iter().any(|d| d.eq_ignore_ascii_case(element)))
            .map(|(k, _)| k.clone())
            .collect();
        for v in &victims {
            entries.remove(v);
        }
        let mut stats = self.stats.lock();
        stats.bytes = entries.values().map(|e| e.bytes).sum();
        victims.len()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct StageEntry {
    batch: Batch,
    /// Warehouse tables (lower-cased) the stage result was computed from;
    /// table-targeted invalidation drops dependents, mirroring the
    /// service directory's precision.
    tables: Vec<String>,
    bytes: usize,
    last_used: u64,
}

/// Browser-side cache of **interior stage results**, keyed by the stage's
/// Merkle fingerprint (hex). This is the client half of the service's
/// query directory: where the service keeps `(fingerprint → query id)`
/// pointers into the CDW, the browser keeps the small batches themselves,
/// so an edit's unchanged prefix never leaves the tab. LRU over a byte
/// budget, like [`ResultCache`].
pub struct StageCache {
    entries: Mutex<HashMap<String, StageEntry>>,
    stats: Mutex<CacheStats>,
    clock: Mutex<u64>,
    budget_bytes: usize,
}

impl StageCache {
    pub fn new(budget_bytes: usize) -> StageCache {
        StageCache {
            entries: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
            clock: Mutex::new(0),
            budget_bytes: budget_bytes.max(1),
        }
    }

    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    fn tick(&self) -> u64 {
        let mut c = self.clock.lock();
        *c += 1;
        *c
    }

    /// Fetch a stage result by fingerprint, counting hit/miss and
    /// promoting the entry.
    pub fn get(&self, fingerprint: &str) -> Option<Batch> {
        let now = self.tick();
        let mut entries = self.entries.lock();
        let hit = entries.get_mut(fingerprint).map(|e| {
            e.last_used = now;
            e.batch.clone()
        });
        let mut stats = self.stats.lock();
        if hit.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        hit
    }

    pub fn put(&self, fingerprint: &str, batch: Batch, tables: Vec<String>) {
        let now = self.tick();
        let bytes = batch.byte_size();
        if bytes > self.budget_bytes {
            return; // would evict everything else for one oversized entry
        }
        let tables = tables.into_iter().map(|t| t.to_ascii_lowercase()).collect();
        let mut entries = self.entries.lock();
        entries.insert(
            fingerprint.to_string(),
            StageEntry {
                batch,
                tables,
                bytes,
                last_used: now,
            },
        );
        let mut total: usize = entries.values().map(|e| e.bytes).sum();
        let mut evictions = 0;
        while total > self.budget_bytes && entries.len() > 1 {
            let victim = entries
                .iter()
                .filter(|(k, _)| k.as_str() != fingerprint)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(e) = entries.remove(&victim) {
                total -= e.bytes;
                evictions += 1;
            }
        }
        let mut stats = self.stats.lock();
        stats.evictions += evictions;
        stats.bytes = total;
    }

    /// Drop every stage result computed from any of the given warehouse
    /// tables (case-insensitive). Re-installing a table with new contents
    /// must call this, or stale stage batches would keep serving.
    pub fn invalidate_tables<S: AsRef<str>>(&self, tables: &[S]) -> usize {
        let needles: Vec<String> = tables
            .iter()
            .map(|t| t.as_ref().to_ascii_lowercase())
            .collect();
        let mut entries = self.entries.lock();
        let victims: Vec<String> = entries
            .iter()
            .filter(|(_, e)| e.tables.iter().any(|t| needles.contains(t)))
            .map(|(k, _)| k.clone())
            .collect();
        for v in &victims {
            entries.remove(v);
        }
        let mut stats = self.stats.lock();
        stats.bytes = entries.values().map(|e| e.bytes).sum();
        victims.len()
    }

    /// Drop every cached stage result (hit/miss/eviction counters keep
    /// their history). Harnesses that want to measure the no-stage-reuse
    /// tiers use this; ordinary invalidation should stay table-targeted.
    pub fn clear(&self) -> usize {
        let mut entries = self.entries.lock();
        let dropped = entries.len();
        entries.clear();
        self.stats.lock().bytes = 0;
        dropped
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_value::{Column, DataType, Field, Schema};
    use std::sync::Arc;

    fn batch(n: usize) -> Batch {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        Batch::new(schema, vec![Column::from_ints((0..n as i64).collect())]).unwrap()
    }

    #[test]
    fn hit_miss_counting() {
        let cache = ResultCache::new(1 << 20);
        assert!(cache.get("a").is_none());
        cache.put("a", batch(10), vec!["E".into()]);
        assert!(cache.get("a").is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lru_eviction_under_budget() {
        // Budget fits two 100-row Int batches (plus slack) but not three.
        let one = batch(100).byte_size();
        let cache = ResultCache::new(2 * one + one / 2);
        cache.put("a", batch(100), vec![]);
        cache.put("b", batch(100), vec![]);
        let _ = cache.get("a"); // freshen a
        cache.put("c", batch(100), vec![]); // evicts b (LRU)
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn dependency_invalidation() {
        let cache = ResultCache::new(1 << 20);
        cache.put("q1", batch(5), vec!["Notes".into(), "Flights".into()]);
        cache.put("q2", batch(5), vec!["Flights".into()]);
        assert_eq!(cache.invalidate_element("notes"), 1);
        assert!(cache.get("q1").is_none());
        assert!(cache.get("q2").is_some());
    }

    #[test]
    fn stage_cache_lru_and_table_invalidation() {
        let one = batch(100).byte_size();
        let cache = StageCache::new(2 * one + one / 2);
        cache.put("fp-a", batch(100), vec!["Flights".into()]);
        cache.put("fp-b", batch(100), vec!["airports".into()]);
        assert!(cache.get("fp-a").is_some()); // freshen a
        cache.put("fp-c", batch(100), vec![]); // evicts b (LRU)
        assert!(cache.get("fp-a").is_some());
        assert!(cache.get("fp-b").is_none());
        assert_eq!(cache.invalidate_tables(&["FLIGHTS"]), 1);
        assert!(cache.get("fp-a").is_none());
        assert!(cache.get("fp-c").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 2));
    }

    #[test]
    fn stage_cache_rejects_oversized_entries() {
        let cache = StageCache::new(64);
        cache.put("big", batch(10_000), vec![]);
        assert!(cache.is_empty());
    }
}
