//! The browser's batch cache, used twice: as the result cache (keyed by
//! element + root fingerprint, tagged with the elements a result depends
//! on) and as the stage cache (keyed by interior stage fingerprints,
//! tagged with the warehouse tables a stage read) that feeds local
//! residual-suffix execution. Both are an [`Lru`] weighted by
//! [`Batch::byte_size`].

use parking_lot::Mutex;
use sigma_value::lru::Lru;
use sigma_value::Batch;

/// Cache hit, miss and eviction counters, plus resident bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: usize,
}

struct Inner {
    /// key → (batch, the names it depends on).
    lru: Lru<String, (Batch, Vec<String>)>,
    stats: CacheStats,
}

/// A byte-budgeted LRU of batches, each tagged with the names (elements
/// or warehouse tables) whose change must drop it.
pub struct BatchCache {
    inner: Mutex<Inner>,
}

impl BatchCache {
    pub fn new(budget_bytes: usize) -> BatchCache {
        BatchCache {
            inner: Mutex::new(Inner {
                lru: Lru::new(budget_bytes),
                stats: CacheStats::default(),
            }),
        }
    }

    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            bytes: inner.lru.weight(),
            ..inner.stats
        }
    }

    /// Fetch a batch, counting a hit or a miss and promoting the entry.
    pub fn get(&self, key: &str) -> Option<Batch> {
        let mut inner = self.inner.lock();
        let hit = inner.lru.get_mut(key).map(|(batch, _)| batch.clone());
        if hit.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        hit
    }

    /// Cache `batch` under `key`, evicting least-recently-used entries to
    /// stay within the budget. A batch larger than the whole budget is not
    /// cached: it would evict everything else.
    pub fn put(&self, key: &str, batch: Batch, deps: Vec<String>) {
        let bytes = batch.byte_size();
        let mut inner = self.inner.lock();
        if bytes > inner.lru.budget() {
            return;
        }
        let evicted = inner.lru.insert(key.to_string(), (batch, deps), bytes);
        inner.stats.evictions += evicted.len() as u64;
    }

    /// Drop every entry that depends on any of `names` (case-insensitive):
    /// an edited element, or a re-installed table whose stale batches must
    /// not keep serving.
    pub fn invalidate<S: AsRef<str>>(&self, names: &[S]) -> usize {
        self.inner.lock().lru.retain(|_, (_, deps)| {
            !deps
                .iter()
                .any(|d| names.iter().any(|n| d.eq_ignore_ascii_case(n.as_ref())))
        })
    }

    pub fn len(&self) -> usize {
        self.inner.lock().lru.len()
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
        let cache = BatchCache::new(1 << 20);
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
        let cache = BatchCache::new(2 * one + one / 2);
        cache.put("a", batch(100), vec![]);
        cache.put("b", batch(100), vec![]);
        let _ = cache.get("a"); // freshen a
        cache.put("c", batch(100), vec![]); // evicts b (LRU)
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert!(cache.stats().evictions >= 1);
        assert_eq!(cache.stats().bytes, 2 * one);
    }

    #[test]
    fn dependency_invalidation() {
        let cache = BatchCache::new(1 << 20);
        cache.put("q1", batch(5), vec!["Notes".into(), "Flights".into()]);
        cache.put("q2", batch(5), vec!["Flights".into()]);
        assert_eq!(cache.invalidate(&["notes"]), 1);
        assert!(cache.get("q1").is_none());
        assert!(cache.get("q2").is_some());
    }

    #[test]
    fn stage_cache_lru_and_table_invalidation() {
        let one = batch(100).byte_size();
        let cache = BatchCache::new(2 * one + one / 2);
        cache.put("fp-a", batch(100), vec!["Flights".into()]);
        cache.put("fp-b", batch(100), vec!["airports".into()]);
        assert!(cache.get("fp-a").is_some()); // freshen a
        cache.put("fp-c", batch(100), vec![]); // evicts b (LRU)
        assert!(cache.get("fp-a").is_some());
        assert!(cache.get("fp-b").is_none());
        assert_eq!(cache.invalidate(&["FLIGHTS"]), 1);
        assert!(cache.get("fp-a").is_none());
        assert!(cache.get("fp-c").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 2));
    }

    #[test]
    fn stage_cache_rejects_oversized_entries() {
        let cache = BatchCache::new(64);
        cache.put("big", batch(10_000), vec![]);
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_put_keeps_resident_entries() {
        // The result cache used to evict everything else to hold an
        // oversized batch alone; now it skips it, like the stage cache.
        let one = batch(100).byte_size();
        let cache = BatchCache::new(2 * one);
        cache.put("small", batch(100), vec![]);
        cache.put("big", batch(1_000), vec![]);
        assert!(cache.get("big").is_none());
        assert!(cache.get("small").is_some());
        assert_eq!(cache.stats().evictions, 0);
    }
}
