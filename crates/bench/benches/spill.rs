//! The **spill bench**: throughput of the memory-budgeted out-of-core
//! operators (spilling aggregation, external merge sort, Grace hash
//! join) across budget levels, from unbounded (pure in-memory) down to
//! budgets forcing wide multi-bucket spills.
//!
//! Doubles as a regression gate: at every budget level each query's
//! result must be **bit-identical** to the unbounded run, small budgets
//! must actually spill (nonzero bytes, ≥2 rounds), and the unbounded run
//! must spill nothing.
//!
//! Results are written to `BENCH_<date>_spill.json` at the repo root
//! (override the path with `SPILL_BENCH_OUT`). Run with:
//!
//! ```text
//! cargo bench -p sigma-bench --bench spill
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use sigma_cdw::Warehouse;
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};

const ROWS: usize = 200_000;
const PARTITION_ROWS: usize = ROWS / 16;
const ITERS: usize = 5;

/// Budget levels swept per query (`None` = unbounded in-memory). The
/// bool marks levels small enough that every case *must* spill (4 MiB is
/// the "roomy" level: some operators still fit after projection pruning,
/// which is itself worth seeing in the curve).
const BUDGETS: &[(&str, Option<usize>, bool)] = &[
    ("unbounded", None, false),
    ("4MiB", Some(4 << 20), false),
    ("256KiB", Some(256 << 10), true),
    ("16KiB", Some(16 << 10), true),
];

const CASES: &[(&str, &str)] = &[
    (
        "aggregate",
        "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS mn, MAX(v) AS mx \
         FROM fact GROUP BY g",
    ),
    ("sort", "SELECT g, k, v FROM fact ORDER BY v DESC, k, g"),
    (
        "join",
        "SELECT d.lab, COUNT(*) AS n, SUM(fact.v) AS s \
         FROM fact JOIN d ON fact.k = d.k GROUP BY d.lab",
    ),
];

fn warehouse() -> Warehouse {
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
            Column::from_ints((0..ROWS as i64).map(|i| (i * 7919) % 512).collect()),
            Column::from_ints((0..ROWS as i64).map(|i| (i * 104729) % 20_000).collect()),
            Column::from_floats((0..ROWS as i64).map(|i| ((i * 31) % 997) as f64).collect()),
        ],
    )
    .unwrap();
    wh.load_table_partitioned("fact", fact, PARTITION_ROWS)
        .unwrap();
    // A build side big enough that realistic budgets force Grace rounds.
    let dim = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("lab", DataType::Text),
        ])),
        vec![
            Column::from_ints((0..20_000).collect()),
            Column::from_texts((0..20_000).map(|i| format!("d{}", i % 40)).collect()),
        ],
    )
    .unwrap();
    wh.load_table("d", dim).unwrap();
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

struct Sample {
    ms: f64,
    spilled_bytes: usize,
    spill_rounds: usize,
}

fn median_run(wh: &Warehouse, sql: &str) -> (Sample, Batch) {
    let mut times: Vec<Duration> = Vec::with_capacity(ITERS);
    let mut last = None;
    let mut spilled = (0usize, 0usize);
    for _ in 0..ITERS {
        let started = Instant::now();
        let result = wh.execute_sql(sql).expect("bench query");
        times.push(started.elapsed());
        spilled = (result.spilled_bytes, result.spill_rounds);
        last = Some(result.batch);
    }
    times.sort();
    (
        Sample {
            ms: times[ITERS / 2].as_secs_f64() * 1e3,
            spilled_bytes: spilled.0,
            spill_rounds: spilled.1,
        },
        last.unwrap(),
    )
}

fn main() {
    let wh = warehouse();
    let mut rows_json = String::new();
    println!("spill bench ({ROWS} rows, median of {ITERS} runs per cell)");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>14} {:>8}",
        "case", "budget", "ms", "rows/s", "spilled_bytes", "rounds"
    );
    for (case, sql) in CASES {
        let mut oracle: Option<Batch> = None;
        for (label, budget, must_spill) in BUDGETS {
            wh.set_memory_budget(*budget);
            let (sample, batch) = median_run(&wh, sql);
            let throughput = ROWS as f64 / (sample.ms / 1e3);
            println!(
                "{:<10} {:<10} {:>10.2} {:>12.0} {:>14} {:>8}",
                case, label, sample.ms, throughput, sample.spilled_bytes, sample.spill_rounds
            );
            match &oracle {
                None => {
                    // The unbounded baseline: must not touch disk.
                    assert_eq!(sample.spilled_bytes, 0, "{case}: unbounded run spilled");
                    assert_eq!(sample.spill_rounds, 0, "{case}: unbounded run spilled");
                    oracle = Some(batch);
                }
                Some(oracle) => {
                    // Budgeted runs must match bit-for-bit; tight budgets
                    // must actually spill, in multiple rounds.
                    if *must_spill {
                        assert!(
                            sample.spilled_bytes > 0,
                            "{case} @ {label}: budget did not force a spill"
                        );
                        assert!(
                            sample.spill_rounds >= 2,
                            "{case} @ {label}: expected multi-round spilling"
                        );
                    }
                    assert_bit_identical(oracle, &batch, &format!("{case} @ {label}"));
                }
            }
            if !rows_json.is_empty() {
                rows_json.push_str(",\n");
            }
            rows_json.push_str(&format!(
                "    {{ \"case\": \"{case}\", \"budget\": \"{label}\", \"ms\": {:.3}, \
                 \"rows_per_s\": {:.0}, \"spilled_bytes\": {}, \"spill_rounds\": {} }}",
                sample.ms, throughput, sample.spilled_bytes, sample.spill_rounds
            ));
        }
        wh.set_memory_budget(None);
    }

    let date = sigma_bench::today();
    let json = format!(
        "{{\n  \"recorded\": \"{date}\",\n  \"note\": \"Memory-budgeted out-of-core execution: \
         spilling aggregation / external merge sort / Grace hash join over {ROWS} synthetic rows \
         ({} partitions), median of {ITERS} runs per (case, budget). Every budgeted run is \
         asserted bit-identical to the unbounded in-memory run and must report nonzero \
         spilled_bytes with >=2 spill_rounds; the unbounded run must report zero. Regenerate \
         with: cargo bench -p sigma-bench --bench spill.\",\n  \"rows\": {ROWS},\n  \
         \"iters\": {ITERS},\n  \"cells\": [\n{rows_json}\n  ]\n}}\n",
        ROWS / PARTITION_ROWS
    );
    sigma_bench::write_record("spill", "SPILL_BENCH_OUT", &json);
}
