//! The app-server **query directory** — the second cache level of §4.
//!
//! "The second level of caching is a directory of recent queries maintained
//! by the Sigma app server. The directory points to available result sets,
//! stored in the CDW by their query-id, which can be re-fetched as
//! requested. It also tracks in-flight query requests, enabling multiple
//! browsers to share results when collaboratively editing a document."
//!
//! Entries hold only `(key -> query id + table deps)` — never warehouse
//! data, honoring the constraint that "user warehouse data is never stored
//! within the Sigma service cloud".
//!
//! Three properties matter at scale:
//!
//! * **Fixed-width keys.** Entries are keyed by a 128-bit hash
//!   ([`DirKey`]) of `(connection, stage fingerprint)`, so the directory's
//!   memory footprint is bounded by entry *count*, never by query length.
//! * **O(log n) recency.** Entries live in one [`Lru`] in which every
//!   entry weighs 1, so its budget is the capacity; lookups and inserts
//!   promote in O(log n).
//! * **Precise invalidation.** Entries carry the set of warehouse tables
//!   their results were computed from; a table change invalidates only the
//!   entries that read it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use sigma_core::Fingerprint;
use sigma_value::lru::Lru;

/// Fixed-width directory key: a 128-bit hash of whatever identifies the
/// cached result (for stage entries, `(connection, stage fingerprint)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirKey(pub u128);

impl DirKey {
    /// Key for a compiled stage on a connection.
    pub fn for_stage(connection: &str, fingerprint: Fingerprint) -> DirKey {
        let fp = Fingerprint::of_bytes(connection.as_bytes())
            .extend(b"\0")
            .extend(&fingerprint.0.to_le_bytes());
        DirKey(fp.0)
    }
}

impl From<&str> for DirKey {
    fn from(s: &str) -> DirKey {
        DirKey(Fingerprint::of_bytes(s.as_bytes()).0)
    }
}

impl From<Fingerprint> for DirKey {
    fn from(fp: Fingerprint) -> DirKey {
        DirKey(fp.0)
    }
}

/// Query-directory counters, read by the edit-session bench and the
/// benchmark driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectoryStats {
    pub hits: u64,
    pub misses: u64,
    /// Queries that piggybacked on an identical in-flight request.
    pub coalesced: u64,
    /// Stage-level lookups answered from the directory (prefix reuse).
    pub stage_hits: u64,
    /// Stage-level lookups that had to execute on the warehouse.
    pub stage_misses: u64,
    /// Entries dropped by table-targeted invalidation.
    pub invalidated: u64,
}

#[derive(Default)]
struct InFlight {
    done: Mutex<Option<String>>, // query id once complete
    cv: Condvar,
}

struct Entry {
    query_id: String,
    /// Warehouse tables (lower-cased) the result was computed from.
    deps: Arc<[String]>,
}

/// Directory of recent query keys, pointing at CDW-persisted result sets
/// (re-fetchable via `RESULT_SCAN`) by query id.
pub struct QueryDirectory {
    /// Every entry weighs 1, so the budget is the capacity.
    entries: Mutex<Lru<DirKey, Entry>>,
    in_flight: Mutex<HashMap<DirKey, Arc<InFlight>>>,
    stats: Mutex<DirectoryStats>,
}

impl QueryDirectory {
    pub fn new(capacity: usize) -> QueryDirectory {
        QueryDirectory {
            entries: Mutex::new(Lru::new(capacity)),
            in_flight: Mutex::new(HashMap::new()),
            stats: Mutex::new(DirectoryStats::default()),
        }
    }

    pub fn stats(&self) -> DirectoryStats {
        *self.stats.lock()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a completed query id. A hit promotes the entry to
    /// most-recently-used so hot keys survive eviction.
    pub fn lookup(&self, key: impl Into<DirKey>) -> Option<String> {
        let hit = self.lookup_quiet(key.into());
        let mut stats = self.stats.lock();
        if hit.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        hit
    }

    /// Stage-level lookup, *uncounted*: the caller decides whether the
    /// pointer is actually usable (the persisted result may have been
    /// evicted from the CDW) and then reports via
    /// [`QueryDirectory::record_stage`], so `stage_hits` only counts reuse
    /// that really happened.
    pub fn lookup_stage(&self, key: impl Into<DirKey>) -> Option<String> {
        self.lookup_quiet(key.into())
    }

    /// Count one stage-level cache decision (see
    /// [`QueryDirectory::lookup_stage`]).
    pub fn record_stage(&self, hit: bool) {
        let mut stats = self.stats.lock();
        if hit {
            stats.stage_hits += 1;
        } else {
            stats.stage_misses += 1;
        }
    }

    fn lookup_quiet(&self, key: DirKey) -> Option<String> {
        self.entries
            .lock()
            .get_mut(&key)
            .map(|e| e.query_id.clone())
    }

    /// Record a completed query together with the warehouse tables its
    /// result set was computed from. Re-inserting a known key refreshes
    /// its recency, query id and tables.
    pub fn insert_with_deps(&self, key: impl Into<DirKey>, query_id: &str, deps: Arc<[String]>) {
        let key = key.into();
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(&key) {
            e.query_id = query_id.to_string();
            e.deps = deps;
            return;
        }
        let entry = Entry {
            query_id: query_id.to_string(),
            deps,
        };
        entries.insert(key, entry, 1);
    }

    /// Drop one entry (e.g. its persisted result was evicted from the CDW).
    pub fn invalidate_key(&self, key: impl Into<DirKey>) -> bool {
        self.entries.lock().remove(&key.into()).is_some()
    }

    /// Targeted invalidation: drop entries whose results read any of the
    /// given warehouse tables. Table names are compared case-insensitively.
    pub fn invalidate_tables<S: AsRef<str>>(&self, tables: &[S]) -> usize {
        let n = self.entries.lock().retain(|_, e| {
            !e.deps
                .iter()
                .any(|d| tables.iter().any(|t| d.eq_ignore_ascii_case(t.as_ref())))
        });
        self.stats.lock().invalidated += n as u64;
        n
    }

    /// Run `execute` once per key even under concurrency: the first caller
    /// executes and records the query id with `deps`, the tables its
    /// result reads; identical concurrent requests block and share the
    /// resulting query id (collaborative editing, §4).
    pub fn run_coalesced<E>(
        &self,
        key: impl Into<DirKey>,
        deps: Arc<[String]>,
        execute: impl FnOnce() -> Result<String, E>,
    ) -> Result<(String, bool), E> {
        let key = key.into();
        // Fast path: already in the directory.
        if let Some(qid) = self.lookup(key) {
            return Ok((qid, true));
        }
        let (flight, leader) = {
            let mut in_flight = self.in_flight.lock();
            match in_flight.get(&key) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = Arc::new(InFlight::default());
                    in_flight.insert(key, f.clone());
                    (f, true)
                }
            }
        };
        if leader {
            let outcome = execute();
            match &outcome {
                Ok(qid) => {
                    self.insert_with_deps(key, qid, deps);
                    *flight.done.lock() = Some(qid.clone());
                }
                Err(_) => {
                    // Leave `done` empty; followers will re-drive.
                    *flight.done.lock() = Some(String::new());
                }
            }
            flight.cv.notify_all();
            self.in_flight.lock().remove(&key);
            outcome.map(|qid| (qid, false))
        } else {
            let mut done = flight.done.lock();
            while done.is_none() {
                flight.cv.wait(&mut done);
            }
            let qid = done.clone().unwrap();
            drop(done);
            if qid.is_empty() {
                // Leader failed: retry as a new leader.
                return self.run_coalesced(key, deps, execute);
            }
            self.stats.lock().coalesced += 1;
            Ok((qid, true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn deps(tables: &[&str]) -> Arc<[String]> {
        tables.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn lookup_insert_evict() {
        let dir = QueryDirectory::new(2);
        assert_eq!(dir.lookup("a"), None);
        dir.insert_with_deps("a", "q-1", deps(&["t"]));
        dir.insert_with_deps("b", "q-2", deps(&["t"]));
        dir.insert_with_deps("c", "q-3", deps(&["t"])); // evicts "a", the least recently used
        assert_eq!(dir.lookup("a"), None);
        assert_eq!(dir.lookup("c"), Some("q-3".into()));
        let stats = dir.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn lookup_promotes_entry_to_most_recent() {
        let dir = QueryDirectory::new(2);
        dir.insert_with_deps("a", "q-1", deps(&["t"]));
        dir.insert_with_deps("b", "q-2", deps(&["t"]));
        // Re-reading "a" promotes it, so the next eviction takes "b".
        assert_eq!(dir.lookup("a"), Some("q-1".into()));
        dir.insert_with_deps("c", "q-3", deps(&["t"]));
        assert_eq!(dir.lookup("a"), Some("q-1".into()));
        assert_eq!(dir.lookup("b"), None);
        assert_eq!(dir.lookup("c"), Some("q-3".into()));
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let dir = QueryDirectory::new(2);
        dir.insert_with_deps("a", "q-1", deps(&["t"]));
        dir.insert_with_deps("b", "q-2", deps(&["t"]));
        dir.insert_with_deps("a", "q-9", deps(&["t"])); // refresh id and recency
        dir.insert_with_deps("c", "q-3", deps(&["t"])); // evicts "b"
        assert_eq!(dir.lookup("a"), Some("q-9".into()));
        assert_eq!(dir.lookup("b"), None);
    }

    #[test]
    fn eviction_order_survives_many_operations() {
        // Regression for the recency index: interleaved lookups and
        // re-inserts must keep strict LRU order at any size.
        let dir = QueryDirectory::new(64);
        for i in 0..64 {
            dir.insert_with_deps(format!("k{i}").as_str(), &format!("q-{i}"), deps(&["t"]));
        }
        // Touch the even keys, making the odd keys the LRU half.
        for i in (0..64).step_by(2) {
            assert!(dir.lookup(format!("k{i}").as_str()).is_some());
        }
        // Inserting 32 new keys evicts exactly the 32 odd (untouched) keys.
        for i in 64..96 {
            dir.insert_with_deps(format!("k{i}").as_str(), &format!("q-{i}"), deps(&["t"]));
        }
        for i in (1..64).step_by(2) {
            assert_eq!(dir.lookup(format!("k{i}").as_str()), None, "odd k{i}");
        }
        for i in (0..64).step_by(2) {
            assert!(dir.lookup(format!("k{i}").as_str()).is_some(), "even k{i}");
        }
    }

    #[test]
    fn table_targeted_invalidation() {
        let dir = QueryDirectory::new(10);
        dir.insert_with_deps("flights-agg", "q-1", deps(&["flights"]));
        dir.insert_with_deps("joined", "q-2", deps(&["flights", "airports"]));
        dir.insert_with_deps("airports-only", "q-3", deps(&["airports"]));
        dir.insert_with_deps("mixed-case", "q-5", deps(&["Flights"]));
        assert_eq!(dir.invalidate_tables(&["flights"]), 3);
        assert_eq!(dir.lookup("airports-only"), Some("q-3".into()));
        assert_eq!(dir.lookup("flights-agg"), None);
        assert_eq!(dir.lookup("joined"), None);
        assert_eq!(dir.lookup("mixed-case"), None);
        assert_eq!(dir.stats().invalidated, 3);
    }

    #[test]
    fn invalidate_key() {
        let dir = QueryDirectory::new(10);
        dir.insert_with_deps("a", "q-1", deps(&["t"]));
        dir.insert_with_deps("b", "q-2", deps(&["t"]));
        assert!(dir.invalidate_key("a"));
        assert!(!dir.invalidate_key("a"));
        assert_eq!(dir.lookup("b"), Some("q-2".into()));
    }

    #[test]
    fn stage_lookups_count_separately() {
        let dir = QueryDirectory::new(10);
        dir.insert_with_deps(DirKey(7), "q-1", deps(&["t"]));
        // lookup_stage is uncounted; the caller reports the verified
        // outcome (a directory pointer whose result was evicted is a miss).
        assert_eq!(dir.lookup_stage(DirKey(7)), Some("q-1".into()));
        dir.record_stage(true);
        assert_eq!(dir.lookup_stage(DirKey(8)), None);
        dir.record_stage(false);
        let stats = dir.stats();
        assert_eq!(stats.stage_hits, 1);
        assert_eq!(stats.stage_misses, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn coalescing_runs_execute_once() {
        let dir = Arc::new(QueryDirectory::new(10));
        let executions = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let dir = dir.clone();
            let executions = executions.clone();
            handles.push(std::thread::spawn(move || {
                dir.run_coalesced("same-query", deps(&["t"]), || {
                    executions.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok::<_, ()>("q-77".to_string())
                })
                .unwrap()
            }));
        }
        let results: Vec<(String, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert!(results.iter().all(|(qid, _)| qid == "q-77"));
        // At least one request was served from cache/coalescing.
        assert!(results.iter().filter(|(_, cached)| *cached).count() >= 7);
    }

    #[test]
    fn failed_leader_retries() {
        let dir = QueryDirectory::new(10);
        let r: Result<(String, bool), &str> = dir.run_coalesced("f", deps(&["t"]), || Err("boom"));
        assert!(r.is_err());
        // A later attempt can succeed.
        let ok = dir
            .run_coalesced("f", deps(&["t"]), || Ok::<_, &str>("q-9".into()))
            .unwrap();
        assert_eq!(ok.0, "q-9");
    }
}
