//! Exact-pool-size behavior of the persistent worker pool. The pool
//! target is process-global, so this binary holds the only tests that
//! *set* it exactly (everything else uses the grow-only API); the whole
//! sweep lives in one `#[test]` so no concurrently running test can
//! observe a half-applied target.
//!
//! What is pinned, per `set_worker_pool_target` value {1, 4, 16}:
//!
//! * **Bit-identity** — every query result matches the uncut serial
//!   reference (`parallelism = 1`, whole-partition morsels) exactly, for
//!   parallelism {1, 4, 16} × sizing {whole partition, 3, 4096, derived}.
//!   The pool target only decides *where* work runs, never what it
//!   computes.
//! * **Serial collapse at pool = 1** — a 1-thread budget makes every
//!   query uncut inline execution: no operator reports more morsels than
//!   it has input partitions, and the scheduler counters show zero steals
//!   and zero unparks no matter what `parallelism`/sizing ask for.
//! * **Thread cap** — after arbitrarily parallel queries, the pool's
//!   live worker count never exceeds its configured target.

use sigma_cdw::{
    set_worker_pool_target, worker_pool_stats, worker_pool_target, MorselSizing, Warehouse,
};
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};
use std::sync::Arc;

const QUERIES: &[&str] = &[
    "SELECT g, COUNT(*) AS c, SUM(v) AS s, AVG(d) AS a FROM t GROUP BY g",
    "SELECT t.g, u.lab FROM t LEFT JOIN u ON t.jk = u.k",
    "SELECT g, v, d FROM t ORDER BY v DESC, d, g",
    "SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY v) AS w FROM t",
    "SELECT DISTINCT g, v FROM t",
];

fn load() -> Warehouse {
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("d", DataType::Float),
        Field::new("jk", DataType::Int),
    ]));
    let rows = 160usize;
    let batch = Batch::new(
        schema,
        vec![
            Column::from_ints((0..rows).map(|i| (i % 5) as i64).collect()),
            Column::from_ints((0..rows).map(|i| (i as i64 * 13) % 97).collect()),
            Column::from_floats((0..rows).map(|i| i as f64 / 3.0).collect()),
            Column::from_ints((0..rows).map(|i| (i % 8) as i64).collect()),
        ],
    )
    .unwrap();
    let wh = Warehouse::default();
    wh.load_table_partitioned("t", batch, 13).unwrap();
    wh.load_table(
        "u",
        Batch::new(
            Arc::new(Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("lab", DataType::Text),
            ])),
            vec![
                Column::from_ints((0..6).collect()),
                Column::from_texts((0..6).map(|i| format!("l{i}")).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    wh
}

fn assert_bit_identical(oracle: &Batch, got: &Batch, what: &str) {
    assert_eq!(oracle.num_rows(), got.num_rows(), "rows: {what}");
    assert_eq!(oracle.num_columns(), got.num_columns(), "cols: {what}");
    for c in 0..oracle.num_columns() {
        for r in 0..oracle.num_rows() {
            match (oracle.value(r, c), got.value(r, c)) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "float bits ({r},{c}): {what}")
                }
                (a, b) => assert_eq!(a, b, "value ({r},{c}): {what}"),
            }
        }
    }
}

fn sched_counter(analyzed: &str, key: &str) -> usize {
    analyzed
        .lines()
        .find(|l| l.starts_with("scheduler:"))
        .and_then(|l| l.split_whitespace().find_map(|t| t.strip_prefix(key)))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no scheduler {key} in:\n{analyzed}"))
}

#[test]
fn exact_pool_sizes_stay_bit_identical_and_bounded() {
    let wh = load();
    wh.set_parallelism(1);
    wh.set_morsel_sizing(MorselSizing::WholePartition);
    let oracles: Vec<Batch> = QUERIES
        .iter()
        .map(|sql| wh.execute_sql(sql).unwrap().batch)
        .collect();

    for &pool in &[1usize, 4, 16] {
        set_worker_pool_target(pool);
        assert_eq!(worker_pool_target(), pool);
        for &parallelism in &[1usize, 4, 16] {
            wh.set_parallelism(parallelism);
            for sizing in [
                MorselSizing::WholePartition,
                MorselSizing::Fixed(3),
                MorselSizing::Fixed(4096),
                MorselSizing::Derived,
            ] {
                wh.set_morsel_sizing(sizing);
                for (sql, oracle) in QUERIES.iter().zip(&oracles) {
                    let got = wh.execute_sql(sql).unwrap();
                    let what = format!("{sql} [pool={pool} p={parallelism} sizing={sizing:?}]");
                    assert_bit_identical(oracle, &got.batch, &what);
                }
            }
        }
        let stats = worker_pool_stats();
        assert!(
            stats.live <= pool.max(stats.target),
            "pool {pool}: live workers exceed the budget: {stats:?}"
        );
    }

    // A 1-thread pool makes every query uncut inline execution: no
    // operator takes more morsels than its children hand it partitions,
    // no steals, no worker wake-ups — regardless of the requested
    // parallelism and morsel height.
    set_worker_pool_target(1);
    wh.set_parallelism(16);
    wh.set_morsel_sizing(MorselSizing::Fixed(3));
    for sql in QUERIES {
        let result = wh.execute_sql(sql).unwrap();
        for (i, op) in result.operators.iter().enumerate() {
            let input_partitions: usize = result.operators[i + 1..]
                .iter()
                .take_while(|c| c.depth > op.depth)
                .filter(|c| c.depth == op.depth + 1)
                .map(|c| c.partitions)
                .sum();
            assert!(
                op.morsels <= input_partitions,
                "pool=1 must not split partitions ({input_partitions} in): {op:?} {sql}"
            );
        }
        let analyzed = wh.explain_analyze(sql).unwrap();
        assert_eq!(sched_counter(&analyzed, "steals="), 0, "{analyzed}");
        assert_eq!(sched_counter(&analyzed, "unparks="), 0, "{analyzed}");
        let tasks = sched_counter(&analyzed, "tasks=");
        assert_eq!(
            sched_counter(&analyzed, "local="),
            tasks,
            "serial tasks all count as own-queue work: {analyzed}"
        );
    }

    // And reopening the pool cuts input again on the same warehouse (the
    // height function reads the live target, not captured state).
    set_worker_pool_target(4);
    let result = wh.execute_sql(QUERIES[0]).unwrap();
    assert!(
        result
            .operators
            .iter()
            .any(|op| op.morsels > result.partitions_scanned),
        "pool=4 must split partitions again: {:?}",
        result.operators
    );
    assert_bit_identical(&oracles[0], &result.batch, "reopened pool");
}
