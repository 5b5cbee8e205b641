//! Model test for `sigma_value::lru::Lru`: random sequences of `insert`
//! (weights from 0 to past the budget, keys repeating), `get_mut`,
//! `peek`, `remove` and `retain`, run against a naive `Vec` kept in
//! recency order, least-recently-used first. After every step both sides
//! must hold the same entries in the same order with the same total
//! weight, and every call must return the same thing.

use proptest::prelude::*;
use sigma_value::lru::Lru;

/// The naive model: `(key, value, weight)`, least-recently-used first.
struct Model {
    entries: Vec<(usize, usize, usize)>,
    budget: usize,
}

impl Model {
    fn position(&self, key: usize) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == key)
    }

    fn weight(&self) -> usize {
        self.entries.iter().map(|e| e.2).sum()
    }

    fn get_mut(&mut self, key: usize) -> Option<usize> {
        let i = self.position(key)?;
        let entry = self.entries.remove(i);
        self.entries.push(entry);
        Some(entry.1)
    }

    fn peek(&self, key: usize) -> Option<usize> {
        Some(self.entries[self.position(key)?].1)
    }

    fn remove(&mut self, key: usize) -> Option<usize> {
        let i = self.position(key)?;
        Some(self.entries.remove(i).1)
    }

    fn insert(&mut self, key: usize, value: usize, weight: usize) -> Vec<(usize, usize)> {
        self.remove(key);
        self.entries.push((key, value, weight));
        let mut evicted = Vec::new();
        while self.weight() > self.budget && self.entries.len() > 1 {
            let (k, v, _) = self.entries.remove(0);
            evicted.push((k, v));
        }
        evicted
    }

    fn retain(&mut self, keep: impl Fn(usize) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| keep(e.0));
        before - self.entries.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn lru_matches_recency_ordered_vec_model(
        budget in 0usize..12,
        ops in proptest::collection::vec((0usize..9, 0usize..8, 0usize..16), 1..64),
    ) {
        let mut lru = Lru::new(budget);
        let mut model = Model { entries: Vec::new(), budget: budget.max(1) };
        for (step, &(op, key, arg)) in ops.iter().enumerate() {
            match op {
                // Inserts dominate so the cache fills up and evicts.
                0..=3 => {
                    let got = lru.insert(key, step, arg);
                    prop_assert!(
                        got.iter().all(|(k, _)| *k != key),
                        "step {step}: insert evicted the key it inserted"
                    );
                    prop_assert_eq!(got, model.insert(key, step, arg), "step {}", step);
                }
                4 | 5 => prop_assert_eq!(lru.get_mut(&key).copied(), model.get_mut(key)),
                6 => prop_assert_eq!(lru.remove(&key), model.remove(key)),
                7 => prop_assert_eq!(lru.peek(&key).copied(), model.peek(key)),
                _ => {
                    let m = arg % 4 + 2;
                    let keep = |k: usize| k % m != key % m;
                    prop_assert_eq!(lru.retain(|k, _| keep(*k)), model.retain(keep));
                }
            }
            let got: Vec<(usize, usize)> = lru.iter().map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(usize, usize)> = model.entries.iter().map(|e| (e.0, e.1)).collect();
            prop_assert_eq!(got, want, "step {}", step);
            prop_assert_eq!(lru.weight(), model.weight());
            prop_assert_eq!(lru.len(), model.entries.len());
        }
    }
}
