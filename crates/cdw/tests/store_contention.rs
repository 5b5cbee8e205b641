//! Writes to the warehouse's stores must not wait for a running query.
//!
//! A query's plan owns the partitions and result sets it reads, so no
//! catalog or result-store lock is held while it executes. This test times
//! one 1M-row sort, then loops that sort on one thread while another
//! installs and evicts a persisted result and replaces a table, and
//! asserts each of those calls finishes within a quarter of one sort. If a
//! running query held a lock a write needs, each write would wait out the
//! rest of the sort in flight: a uniformly placed wait passes the bar about
//! one time in four, so over the sampled rounds it fails almost surely.
//!
//! `#[ignore]` by default (it runs about a dozen sorts of 1M rows); CI runs
//! it in the stress job via `cargo test -p sigma-cdw --test
//! store_contention -- --ignored`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sigma_cdw::{Warehouse, WarehouseConfig};
use sigma_value::{Batch, Column, DataType, Field, Schema};

const ROWS: i64 = 1_000_000;
const ROUNDS: u32 = 6;
const SORT: &str = "SELECT x FROM big ORDER BY x";

fn ints(values: Vec<i64>) -> Batch {
    let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
    Batch::new(schema, vec![Column::from_ints(values)]).unwrap()
}

fn timed(f: impl FnOnce()) -> Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

#[test]
#[ignore = "stress test: run explicitly (CI runs it with --ignored)"]
fn store_writes_do_not_wait_for_a_running_query() {
    // A few retained results bound memory while the sort loops.
    let wh = Warehouse::new(WarehouseConfig {
        max_persisted_results: 4,
        ..WarehouseConfig::default()
    });
    // A fixed permutation of 0..ROWS (the multiplier is coprime to ROWS).
    let shuffled = (0..ROWS).map(|i| i * 7_919 % ROWS).collect();
    wh.load_table("big", ints(shuffled)).unwrap();
    wh.execute_sql(SORT).unwrap();
    let sort = timed(|| {
        wh.execute_sql(SORT).unwrap();
    });
    let bar = sort / 4;

    let stop = AtomicBool::new(false);
    let (mut install, mut evict, mut load) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    std::thread::scope(|s| {
        let sorter = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                wh.execute_sql(SORT).unwrap();
            }
        });
        for round in 0..ROUNDS {
            // Land each round at a different point of the sort in flight.
            std::thread::sleep(sort * (round + 1) / (ROUNDS + 1));
            let mut id = String::new();
            install = install.max(timed(|| id = wh.install_result(ints(vec![1]))));
            evict = evict.max(timed(|| assert!(wh.evict_result(&id))));
            load = load.max(timed(|| wh.load_table("side", ints(vec![2])).unwrap()));
        }
        stop.store(true, Ordering::Relaxed);
        sorter.join().unwrap();
    });
    for (call, took) in [
        ("install_result", install),
        ("evict_result", evict),
        ("load_table", load),
    ] {
        assert!(
            took < bar,
            "{call} took {took:?} while a sort ran; one sort takes {sort:?}"
        );
    }
}
