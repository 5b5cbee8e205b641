//! Concurrency stress for the query directory: many threads hammering
//! single-flight coalescing, LRU promotion/eviction, and table-targeted
//! invalidation at once, checking the two properties collaborative
//! editing depends on:
//!
//! 1. **Single-flight**: for any key, at most one execution runs at a
//!    time — concurrent identical requests either coalesce onto the
//!    in-flight leader or re-execute strictly *after* it finished (an
//!    invalidation in between legitimately forces a fresh run, but never
//!    a concurrent one).
//! 2. **No lost stats**: every lookup lands in exactly one of
//!    `hits`/`misses`, every recorded stage decision in
//!    `stage_hits`/`stage_misses`, and `invalidated` matches what the
//!    invalidation calls reported — under full contention.
//!
//! `#[ignore]` by default (it burns a few CPU-seconds); CI runs it in a
//! dedicated job via `cargo test -p sigma-service --test directory_stress
//! -- --ignored`.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use sigma_service::cache::{DirKey, QueryDirectory};

const THREADS: usize = 8;
const ITERS: usize = 2_000;
const KEYS: usize = 16;
/// Capacity below the key count so LRU eviction races with everything.
const CAPACITY: usize = 12;

fn key(i: usize) -> DirKey {
    DirKey(0xD1CE_0000 + i as u128)
}

fn table(i: usize) -> String {
    format!("tbl{}", i % 4)
}

#[test]
#[ignore = "stress test: run explicitly (CI runs it with --ignored)"]
fn directory_single_flight_and_stats_under_contention() {
    let dir = Arc::new(QueryDirectory::new(CAPACITY));
    // Per-key count of *currently executing* leader closures; must never
    // exceed 1 (that would be duplicate in-flight execution).
    let in_flight: Arc<Vec<AtomicIsize>> =
        Arc::new((0..KEYS).map(|_| AtomicIsize::new(0)).collect());
    let executions = Arc::new(AtomicUsize::new(0));
    let explicit_lookups = Arc::new(AtomicUsize::new(0));
    let coalesced_lookups = Arc::new(AtomicUsize::new(0));
    let stage_records = Arc::new(AtomicUsize::new(0));
    let invalidated = Arc::new(AtomicUsize::new(0));
    let max_seen = Arc::new(AtomicIsize::new(0));

    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let dir = dir.clone();
            let in_flight = in_flight.clone();
            let executions = executions.clone();
            let explicit_lookups = explicit_lookups.clone();
            let coalesced_lookups = coalesced_lookups.clone();
            let stage_records = stage_records.clone();
            let invalidated = invalidated.clone();
            let max_seen = max_seen.clone();
            std::thread::spawn(move || {
                // Deterministic per-thread op mix (no RNG dependency).
                let mut x: u64 = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1);
                for i in 0..ITERS {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = (x >> 33) as usize % KEYS;
                    match (x >> 7) % 10 {
                        // Mostly coalesced execution (the hot path).
                        0..=4 => {
                            coalesced_lookups.fetch_add(1, Ordering::SeqCst);
                            let deps = vec![table(k)].into();
                            let result: Result<_, ()> = dir.run_coalesced(key(k), deps, || {
                                let live = in_flight[k].fetch_add(1, Ordering::SeqCst) + 1;
                                max_seen.fetch_max(live, Ordering::SeqCst);
                                assert!(
                                    live == 1,
                                    "duplicate in-flight execution for key {k}: {live}"
                                );
                                executions.fetch_add(1, Ordering::SeqCst);
                                // Hold the flight open long enough for
                                // followers to pile up.
                                std::thread::yield_now();
                                in_flight[k].fetch_sub(1, Ordering::SeqCst);
                                Ok(format!("q-{t}-{i}"))
                            });
                            let (qid, _cached) = result.unwrap();
                            assert!(qid.starts_with("q-"));
                        }
                        // Plain lookups (count toward hits+misses).
                        5 | 6 => {
                            explicit_lookups.fetch_add(1, Ordering::SeqCst);
                            let _ = dir.lookup(key(k));
                        }
                        // Stage-level decisions, reported explicitly.
                        7 => {
                            let hit = dir.lookup_stage(key(k)).is_some();
                            dir.record_stage(hit);
                            stage_records.fetch_add(1, Ordering::SeqCst);
                        }
                        // Targeted invalidation.
                        8 => {
                            let n = dir.invalidate_tables(&[table(k)]);
                            invalidated.fetch_add(n, Ordering::SeqCst);
                        }
                        // Direct insert/invalidate churn (LRU pressure).
                        // `invalidate_key` drops stale pointers and is
                        // deliberately *not* counted in `invalidated`
                        // (that stat means table-targeted drops).
                        _ => {
                            dir.insert_with_deps(
                                key(k),
                                &format!("q-direct-{t}-{i}"),
                                vec![table(k)].into(),
                            );
                            dir.invalidate_key(key(k));
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("stress thread panicked");
    }

    // Single-flight held (the assert inside would have fired otherwise;
    // double-check the observed maximum).
    assert_eq!(max_seen.load(Ordering::SeqCst), 1, "concurrent executions");

    let stats = dir.stats();
    // Every lookup is accounted exactly once: explicit lookups plus the
    // internal fast-path lookup each run_coalesced performs (leaders that
    // never fail never re-drive, so there are no hidden retries).
    assert_eq!(
        stats.hits + stats.misses,
        (explicit_lookups.load(Ordering::SeqCst) + coalesced_lookups.load(Ordering::SeqCst)) as u64,
        "lost or double-counted lookup stats"
    );
    // Every stage decision recorded exactly once.
    assert_eq!(
        stats.stage_hits + stats.stage_misses,
        stage_records.load(Ordering::SeqCst) as u64,
        "lost stage stats"
    );
    // Invalidation counts match what the calls reported.
    assert_eq!(
        stats.invalidated,
        invalidated.load(Ordering::SeqCst) as u64,
        "lost invalidation stats"
    );
    // Executions can't exceed coalesced requests, and with 5x more
    // coalesced calls than keys there must have been plenty of sharing.
    let executed = executions.load(Ordering::SeqCst);
    let requested = coalesced_lookups.load(Ordering::SeqCst);
    assert!(executed <= requested);
    assert!(
        stats.hits + stats.coalesced > 0,
        "no sharing observed at all: {stats:?}"
    );
    // LRU never overruns its capacity.
    assert!(dir.len() <= CAPACITY, "capacity exceeded: {}", dir.len());
}
