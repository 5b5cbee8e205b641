//! Aggregation / join / distinct scaling vs. the parallelism knob, plus
//! the **skewed-input sweep** pitting morsel-driven work stealing against
//! never splitting a partition — two morsel sizings of the one executor.
//!
//! Before the two-phase refactor only the Scan→Filter→Project prefix ran
//! partition-parallel; GROUP BY, JOIN, and DISTINCT collapsed to one
//! thread. The criterion section sweeps `parallelism` over a uniform
//! multi-partition table so regressions in partition parallelism of the
//! heavy operators show up as flat (non-scaling) curves.
//!
//! The skewed sweep loads one partition with ~90% of the rows (plus empty
//! partitions and 1-row tails) — the layout whole-partition units handle
//! worst, since no assignment can split the big partition across threads.
//! Derived morsel sizing breaks it into stealable morsels. Both lanes run
//! at parallelism 4 on the same engine and differ only in
//! `MorselSizing` (`WholePartition` vs `Derived`); the JSON keeps the
//! historical field names `static_p4_ms` / `morsel_p4_ms` for them so
//! records stay comparable across PRs. Besides the streaming
//! filter/project pipeline and the fused aggregate, the sweep covers the
//! long tail: a LEFT join probe (per-morsel probes with regrouped
//! unmatched tails), an ORDER BY (per-morsel sorted runs, k-way merge),
//! and a window (per-morsel eval, partition-parallel compute). All lanes
//! execute on the shared persistent worker pool, whose target defaults to
//! the host's core count — so `parallelism 4` on a single-core host has
//! an effective width of 1, the height function returns whole partitions
//! for every sizing, and the two lanes are the *same schedule* (parity by
//! construction), while multi-core hosts get real stealing. Results (the
//! cut-vs-uncut speedup plus the cut lane's scheduler counters) are
//! recorded to `BENCH_<date>_scaling.json` at the repo root (override with
//! `SCALING_BENCH_OUT`). Gates: on hosts with >= 4 CPUs the
//! streaming-pipeline case must show >= 1.5x speedup of derived over
//! whole-partition sizing at parallelism 4 and at least one of the
//! long-tail trio {left_join, sort, window} must clear the same bar; with
//! a 1-slot pool every case must stay at parity (>= 0.95x, the lanes
//! being the same schedule there); hosts in between only record. On every host
//! the left_join case gates whole-partition p4 <= 1.2x serial — the
//! regression this bench once caught (4.5x, a per-cell String allocation
//! in join assembly) stays dead. Run with:
//!
//! ```text
//! cargo bench -p sigma-bench --bench scaling
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use sigma_cdw::{MorselSizing, Warehouse};
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};

const ROWS: usize = 200_000;
/// 16 partitions: enough grain for an 8-way sweep.
const PARTITION_ROWS: usize = ROWS / 16;

const AGG_SQL: &str = "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, \
                              MIN(v) AS mn, MAX(v) AS mx \
                       FROM fact GROUP BY g";
const JOIN_SQL: &str = "SELECT d.lab, COUNT(*) AS n, SUM(fact.v) AS s \
                        FROM fact JOIN d ON fact.k = d.k GROUP BY d.lab";
const DISTINCT_SQL: &str = "SELECT DISTINCT g, k FROM fact";

fn scaling_warehouse() -> Warehouse {
    let wh = Warehouse::default();
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]));
    // Deterministic pseudo-random-ish distribution (no RNG dependency).
    let fact = Batch::new(
        schema,
        vec![
            Column::from_ints((0..ROWS as i64).map(|i| (i * 7919) % 64).collect()),
            Column::from_ints((0..ROWS as i64).map(|i| (i * 104729) % 1000).collect()),
            Column::from_floats((0..ROWS as i64).map(|i| ((i * 31) % 997) as f64).collect()),
        ],
    )
    .unwrap();
    wh.load_table_partitioned("fact", fact, PARTITION_ROWS)
        .unwrap();
    let dim = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("lab", DataType::Text),
        ])),
        vec![
            Column::from_ints((0..1000).collect()),
            Column::from_texts((0..1000).map(|i| format!("d{}", i % 25)).collect()),
        ],
    )
    .unwrap();
    wh.load_table("d", dim).unwrap();
    wh
}

fn bench_scaling(c: &mut Criterion) {
    let wh = scaling_warehouse();
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, sql) in [
        ("aggregate", AGG_SQL),
        ("join_agg", JOIN_SQL),
        ("distinct", DISTINCT_SQL),
    ] {
        for threads in [1usize, 2, 4, 8] {
            wh.set_parallelism(threads);
            group.bench_with_input(
                BenchmarkId::new(name, format!("p{threads}")),
                &threads,
                // Evict each run's persisted result: hundreds of retained
                // multi-MB batches would turn the bench into a memory-
                // pressure measurement.
                |b, _| {
                    b.iter(|| {
                        let r = wh.execute_sql(sql).unwrap();
                        wh.evict_result(&r.query_id);
                        r
                    })
                },
            );
        }
        wh.set_parallelism(1);
    }
    group.finish();
}

// ---------------------------------------------------------------------
// skewed-input sweep: derived morsels (stealing) vs whole partitions
// ---------------------------------------------------------------------

const SKEW_ROWS: usize = 400_000;
const SKEW_ITERS: usize = 5;

/// The gated case: a fully streaming Scan→Filter→Project pipeline, where
/// every morsel is independent end-to-end (no partition-granular fold),
/// so stealing should reclaim nearly all the imbalance.
const SKEW_FILTER_SQL: &str = "SELECT g, v * 2.0 + 1.0 AS x FROM skew WHERE v * 3.0 + k < 220.0";
/// Recorded (not gated): fused partial aggregation parallelizes its
/// per-morsel expression evaluation, but each partition's states still
/// fold sequentially to keep the FP update order pinned, so its curve is
/// informative rather than a hard bar.
const SKEW_AGG_SQL: &str = "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a \
                            FROM skew GROUP BY g";
/// Long-tail trio (group-gated: at least one must clear the 1.5x bar on
/// multi-core hosts). LEFT join: per-morsel probes of the shared build
/// table, unmatched tails regrouped per (partition, morsel) — 20% of the
/// fact keys dangle past the dimension's 0..800 range.
const SKEW_LEFT_SQL: &str = "SELECT skew.g, skew.v, sd.lab \
                             FROM skew LEFT JOIN sd ON skew.k = sd.k";
/// Sort: per-morsel sorted runs k-way merged by (keys, row id).
const SKEW_SORT_SQL: &str = "SELECT g, k, v FROM skew ORDER BY v DESC, k";
/// Window: per-morsel expression eval + partition grouping, then
/// partition-parallel sort/compute (64 groups).
const SKEW_WINDOW_SQL: &str = "SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY v) AS w FROM skew";

/// ~90% of rows in one partition, two empty partitions, eight 1-row
/// tails, and the rest split uniformly — the worst case for
/// whole-partition units (the makespan is bound by the big partition no
/// matter the assignment).
fn skewed_warehouse() -> Warehouse {
    let wh = Warehouse::default();
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]));
    let n = SKEW_ROWS;
    let batch = Batch::new(
        schema.clone(),
        vec![
            Column::from_ints((0..n as i64).map(|i| (i * 7919) % 64).collect()),
            Column::from_ints((0..n as i64).map(|i| (i * 104729) % 1000).collect()),
            Column::from_floats((0..n as i64).map(|i| ((i * 31) % 997) as f64).collect()),
        ],
    )
    .unwrap();
    let tails = 8;
    let big = n * 9 / 10;
    let rest = n - big - tails;
    let mut parts = vec![Batch::empty(schema.clone()), batch.slice(0, big)];
    let small = (rest / 14).max(1);
    let mut start = big;
    while start < big + rest {
        let len = small.min(big + rest - start);
        parts.push(batch.slice(start, len));
        start += len;
    }
    parts.push(Batch::empty(schema));
    for i in 0..tails {
        parts.push(batch.slice(n - tails + i, 1));
    }
    wh.load_table_parts("skew", parts).unwrap();
    // Skew dimension for the LEFT-join case: keys 0..800 only, so fact
    // keys 800..1000 dangle and exercise the null-extended tails.
    let sd = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("lab", DataType::Text),
        ])),
        vec![
            Column::from_ints((0..800).collect()),
            Column::from_texts((0..800).map(|i| format!("s{}", i % 25)).collect()),
        ],
    )
    .unwrap();
    wh.load_table("sd", sd).unwrap();
    wh
}

fn assert_bit_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{what}");
    assert_eq!(a.num_columns(), b.num_columns(), "{what}");
    for c in 0..a.num_columns() {
        for r in 0..a.num_rows() {
            match (a.value(r, c), b.value(r, c)) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what} at ({r},{c})")
                }
                (x, y) => assert_eq!(x, y, "{what} at ({r},{c})"),
            }
        }
    }
}

fn median_ms(wh: &Warehouse, sql: &str) -> (f64, Batch) {
    let mut times: Vec<Duration> = Vec::with_capacity(SKEW_ITERS);
    let mut last = None;
    for _ in 0..SKEW_ITERS {
        let started = Instant::now();
        let result = wh.execute_sql(sql).expect("bench query");
        times.push(started.elapsed());
        // Evict the persisted copy: 400k-row results retained across the
        // whole sweep (up to `max_persisted_results`) would put the later
        // lanes under gigabytes of memory pressure the earlier lanes never
        // saw, skewing every ratio this bench gates on.
        wh.evict_result(&result.query_id);
        last = Some(result.batch);
    }
    times.sort();
    (times[SKEW_ITERS / 2].as_secs_f64() * 1e3, last.unwrap())
}

/// Pull one `key=value` counter off the `scheduler:` line that
/// `explain_analyze` renders (satellite of the persistent-pool work: the
/// bench records how much stealing the morsel lane actually did).
fn sched_counter(analyzed: &str, key: &str) -> usize {
    analyzed
        .lines()
        .find(|l| l.trim_start().starts_with("scheduler:"))
        .and_then(|l| l.split_whitespace().find_map(|t| t.strip_prefix(key)))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no scheduler {key} in explain_analyze:\n{analyzed}"))
}

fn skewed_morsel_sweep() {
    let wh = skewed_warehouse();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cells = String::new();
    println!("\nskewed sweep ({SKEW_ROWS} rows, 90% in one partition, median of {SKEW_ITERS} runs, {cpus} cpus)");
    println!(
        "{:<16} {:<8} {:>12} {:>12} {:>9}",
        "case", "p", "static_ms", "morsel_ms", "speedup"
    );
    // Gate kinds: "each" must individually clear 1.5x on >=4-cpu hosts;
    // "group" cases are gated collectively (at least one of the long-tail
    // trio must clear the bar); "none" is recorded for context only.
    let mut group_speedups: Vec<(&str, f64)> = Vec::new();
    for (case, sql, gate) in [
        ("filter_project", SKEW_FILTER_SQL, "each"),
        ("aggregate", SKEW_AGG_SQL, "none"),
        ("left_join", SKEW_LEFT_SQL, "group"),
        ("sort", SKEW_SORT_SQL, "group"),
        ("window", SKEW_WINDOW_SQL, "group"),
    ] {
        // Serial uncut run = the reference every lane must reproduce
        // bit-for-bit (and the p1 context row in the record).
        wh.set_parallelism(1);
        wh.set_morsel_sizing(MorselSizing::WholePartition);
        let (serial_ms, oracle) = median_ms(&wh, sql);

        // Same engine at p4, two sizings: never split a partition
        // ("static" in the record) vs derived morsels ("morsel").
        wh.set_parallelism(4);
        let (static_ms, static_batch) = median_ms(&wh, sql);
        wh.set_morsel_sizing(MorselSizing::Derived);
        let (morsel_ms, morsel_batch) = median_ms(&wh, sql);
        assert_bit_identical(&oracle, &static_batch, case);
        assert_bit_identical(&oracle, &morsel_batch, case);
        // One instrumented run of the morsel lane for the record: how many
        // tasks the pool dispatched and how many were stolen vs taken from
        // the worker's own queue.
        let analyzed = wh.explain_analyze(sql).expect("explain analyze");
        let (tasks, local, steals) = (
            sched_counter(&analyzed, "tasks="),
            sched_counter(&analyzed, "local="),
            sched_counter(&analyzed, "steals="),
        );

        let speedup = static_ms / morsel_ms;
        println!(
            "{case:<16} {:<8} {static_ms:>12.2} {morsel_ms:>12.2} {speedup:>8.2}x  \
             (tasks={tasks} local={local} steals={steals})",
            4
        );
        if gate == "each" && cpus >= 4 {
            assert!(
                speedup >= 1.5,
                "{case}: derived morsels {morsel_ms:.2}ms vs whole partitions \
                 {static_ms:.2}ms (speedup {speedup:.2}x < 1.5x) on a {cpus}-cpu host"
            );
        }
        if sigma_cdw::worker_pool_target() == 1 {
            // Effective width 1: the height function never cuts, so both
            // lanes ran the identical schedule and anything past timer
            // noise is a bug in it. (With 2-3 workers the lanes really
            // differ and cutting may not pay — a LEFT join's regroup
            // copies its output once more — so those hosts only record.)
            assert!(
                speedup >= 0.95,
                "{case}: derived {morsel_ms:.2}ms vs whole-partition {static_ms:.2}ms with a \
                 1-slot pool — both lanes should be the same uncut schedule \
                 (speedup {speedup:.2}x < 0.95x)"
            );
        }
        if case == "left_join" {
            // The fixed regression: partition-parallel join assembly used
            // to cost 4.5x serial from per-cell String allocation.
            let vs_serial = static_ms / serial_ms;
            assert!(
                vs_serial <= 1.2,
                "left_join: whole-partition p4 {static_ms:.2}ms is {vs_serial:.2}x serial \
                 {serial_ms:.2}ms (> 1.2x) — the parallel-slower-than-serial join \
                 regression is back"
            );
        }
        if gate == "group" {
            group_speedups.push((case, speedup));
        }
        if !cells.is_empty() {
            cells.push_str(",\n");
        }
        cells.push_str(&format!(
            "    {{ \"case\": \"skew_{case}\", \"serial_ms\": {serial_ms:.3}, \
             \"static_p4_ms\": {static_ms:.3}, \"morsel_p4_ms\": {morsel_ms:.3}, \
             \"morsel_vs_static_speedup\": {speedup:.3}, \"gate\": \"{gate}\", \
             \"sched_tasks\": {tasks}, \"sched_local\": {local}, \
             \"sched_steals\": {steals} }}"
        ));
    }
    if cpus >= 4 {
        assert!(
            group_speedups.iter().any(|&(_, s)| s >= 1.5),
            "long-tail gate: none of {group_speedups:?} reached a 1.5x \
             derived-vs-whole-partition speedup at p4 on a {cpus}-cpu host"
        );
    }

    let date = sigma_bench::today();
    let json = format!(
        "{{\n  \"recorded\": \"{date}\",\n  \"note\": \"Skewed-input scaling: two morsel \
         sizings of the one executor at parallelism 4 over {SKEW_ROWS} rows with ~90% of them in \
         a single partition (plus empty partitions and 1-row tails), median of {SKEW_ITERS} \
         runs. static_p4_ms = MorselSizing::WholePartition (never split a partition), \
         morsel_p4_ms = MorselSizing::Derived (stealable morsels); the field names predate the \
         removal of the separate static executor and are kept so records stay comparable. \
         Every lane is asserted bit-identical to the serial uncut reference (serial_ms). \
         Both lanes run on the shared persistent worker pool (target = host cores): at an \
         effective width of 1 the height function never cuts and the lanes are the \
         identical schedule and the gate is parity (>= 0.95x); on >= 4 cpus the \
         streaming filter_project case must show >= 1.5x derived-vs-whole-partition speedup \
         (gate=each) and at least one of the long-tail trio left_join/sort/window must clear \
         the same bar (gate=group). On every host left_join gates whole-partition p4 <= 1.2x \
         serial (the old per-cell-allocation join regression). sched_* fields are the derived \
         lane's scheduler counters from one instrumented run. Regenerate with: \
         cargo bench -p sigma-bench --bench scaling.\",\n  \"cpus\": {cpus},\n  \
         \"iters\": {SKEW_ITERS},\n  \"cells\": [\n{cells}\n  ]\n}}\n"
    );
    sigma_bench::write_record("scaling", "SCALING_BENCH_OUT", &json);
}

criterion_group!(benches, bench_scaling);

fn main() {
    benches();
    skewed_morsel_sweep();
}
