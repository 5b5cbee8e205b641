//! The one LRU every cache in the workspace is a use of: the browser's
//! result and stage caches (entries weighted by batch bytes), the service's
//! query directory and the warehouse's persisted result sets (every entry
//! weighs 1, so the budget is a count).
//!
//! Entries live in a `HashMap` beside a `BTreeMap` recency index keyed by a
//! monotone sequence number, so lookup, promotion, insertion and each
//! eviction cost O(log n).

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

struct Slot<V> {
    value: V,
    weight: usize,
    /// Position in `Lru::recency`.
    seq: u64,
}

/// A key → value map that evicts least-recently-used entries once their
/// total weight exceeds a budget.
pub struct Lru<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// seq → key; the smallest sequence number is the eviction candidate.
    recency: BTreeMap<u64, K>,
    next_seq: u64,
    weight: usize,
    budget: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty LRU holding at most `budget` total weight (0 acts as 1).
    pub fn new(budget: usize) -> Self {
        Lru {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            next_seq: 0,
            weight: 0,
            budget: budget.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total weight of the resident entries.
    pub fn weight(&self) -> usize {
        self.weight
    }

    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The value under `key`, leaving its recency as it is.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|slot| &slot.value)
    }

    /// The value under `key`, promoted to most-recently-used.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.entries.get_mut(key)?;
        let key = self.recency.remove(&slot.seq).expect("indexed entry");
        slot.seq = self.next_seq;
        self.recency.insert(slot.seq, key);
        self.next_seq += 1;
        Some(&mut slot.value)
    }

    /// Store `value` under `key` as most-recently-used, replacing any
    /// previous value, then evict least-recently-used entries while the
    /// total weight exceeds the budget and more than one entry remains.
    /// Returns the evicted entries, oldest first; the key just inserted is
    /// never among them.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> Vec<(K, V)> {
        self.remove(&key);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.recency.insert(seq, key.clone());
        self.entries.insert(key, Slot { value, weight, seq });
        self.weight += weight;
        let mut evicted = Vec::new();
        while self.weight > self.budget && self.entries.len() > 1 {
            let (_, victim) = self.recency.pop_first().expect("non-empty");
            let slot = self.entries.remove(&victim).expect("indexed entry");
            self.weight -= slot.weight;
            evicted.push((victim, slot.value));
        }
        evicted
    }

    /// Drop `key`, returning its value if it was present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.entries.remove(key)?;
        self.recency.remove(&slot.seq);
        self.weight -= slot.weight;
        Some(slot.value)
    }

    /// Keep only the entries `keep` accepts; returns how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.entries.len();
        let (recency, weight) = (&mut self.recency, &mut self.weight);
        self.entries.retain(|key, slot| {
            let kept = keep(key, &slot.value);
            if !kept {
                recency.remove(&slot.seq);
                *weight -= slot.weight;
            }
            kept
        });
        before - self.entries.len()
    }

    /// The entries, least-recently-used first, without promoting any.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.recency
            .values()
            .map(|key| (key, &self.entries[key].value))
    }
}
