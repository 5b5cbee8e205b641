//! The two-phase split's safety net: for generated GROUP BY / JOIN /
//! DISTINCT queries over randomly partitioned tables, `parallelism = 1`
//! and `parallelism = 4` must produce **bit-identical** batches (same
//! rows, same order, same float bit patterns). The optimizer decides the
//! partial/final placement purely from plan shape and the executor merges
//! partial states in partition-index order, so thread count can never
//! change a result — this test pins that invariant.
//!
//! The skew suite extends the pin to how input is cut: pathological
//! partition layouts (one ~90% partition, empties, 1-row tails) at
//! parallelism {1, 4, 16} and morsel sizings {whole partition, 3 rows,
//! 4096 rows, derived} must all agree bit-for-bit, because morsels
//! regroup by (partition, morsel index) before anything order-sensitive
//! happens. That covers the long tail — LEFT/FULL probes, ORDER BY, and
//! window pipelines — and each skew case additionally re-runs the 3-row
//! morsel setting under a 1-byte memory budget, so the spilling sinks
//! (per-morsel bucket routing, parallel sorted-run spills, Grace probes)
//! are pinned against the same reference.
//!
//! The reference lane is `parallelism = 1` with
//! `MorselSizing::WholePartition`: the same engine with every
//! split/regroup/steal step degenerate (one unit per partition, identity
//! merge, inline run). It is not an independent implementation — what
//! these suites pin is that cutting, regrouping, stealing, pooling and
//! spilling never change a byte. What a query *means* is pinned by
//! `sql_exec.rs`, `eval_oracle.rs` and the scenario suites.

use proptest::prelude::*;
use sigma_cdw::{MorselSizing, OpStats, Warehouse};
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};
use std::sync::Arc;

/// Open the persistent worker pool to 16 slots for every test in this
/// binary. `parallelism = p` then occupies `min(p, 16)` pool slots, so
/// sweeping `parallelism` {1, 4, 16} is exactly a sweep of pooled worker
/// counts {1, 4, 16} — the per-query knob and the pool budget clamp
/// through `effective_workers(min(requested, pool_target))`. Grow-only
/// (monotonic `fetch_max`) so concurrent tests in this binary can't race
/// each other's budgets.
fn open_pool() {
    sigma_cdw::grow_worker_pool_target(16);
}

/// Queries covering the operators the two-phase refactor touches.
const QUERIES: &[&str] = &[
    // Grouped aggregation across every mergeable state.
    "SELECT g, COUNT(*) AS c, COUNT(v) AS cv, COUNT(DISTINCT v) AS cd, \
            SUM(v) AS s, AVG(v) AS a, MIN(v) AS mn, MAX(v) AS mx, \
            STDDEV(v) AS sd, MEDIAN(v) AS md \
     FROM t GROUP BY g",
    // Global aggregate (one row even over empty filters).
    "SELECT COUNT(*) AS c, SUM(d) AS s, AVG(d) AS a, STDDEV(d) AS sd FROM t",
    "SELECT COUNT(*) AS c, SUM(v) AS s FROM t WHERE v > 1000",
    // DISTINCT: partial dedup per partition + global merge.
    "SELECT DISTINCT g, v FROM t",
    // Partitioned hash join (shared build side).
    "SELECT t.g, t.v, u.lab FROM t JOIN u ON t.jk = u.k",
    "SELECT t.g, u.lab FROM t LEFT JOIN u ON t.jk = u.k",
    // WHERE pushed below the join: a filter-only chain, whose cut
    // partitions regroup by concatenating per-morsel selections.
    "SELECT t.g, t.v, u.lab FROM t JOIN u ON t.jk = u.k WHERE t.v > 3 AND u.k < 5",
    // Aggregation over a join: the join's per-partition output feeds a
    // two-phase aggregate.
    "SELECT u.lab, COUNT(*) AS n, SUM(t.v) AS s \
     FROM t LEFT JOIN u ON t.jk = u.k GROUP BY u.lab",
    // Aggregation over UNION ALL (parts from both inputs retained).
    "SELECT g, SUM(v) AS s FROM (SELECT g, v FROM t UNION ALL SELECT g, v FROM t) x GROUP BY g",
    // FULL join: unmatched lefts regroup per (partition, morsel) and the
    // matched-right flags union across probe morsels.
    "SELECT t.g, t.v, u.lab FROM t FULL JOIN u ON t.jk = u.k",
    // ORDER BY: per-morsel sorted runs k-way merged by (keys, row id).
    "SELECT g, v, d FROM t ORDER BY v DESC, d, g",
    "SELECT g, v FROM t ORDER BY g",
    // Windows: per-morsel expression eval + partition grouping merged in
    // chunk order, partitions computed in parallel.
    "SELECT g, v, SUM(v) OVER (PARTITION BY g ORDER BY v) AS w, \
            ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) AS rn FROM t",
    "SELECT g, AVG(d) OVER (PARTITION BY jk) AS a, LAG(v) OVER (ORDER BY g) AS l FROM t",
];

fn fact_batch(rows: &[(i64, Option<i64>, i64)]) -> Batch {
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("d", DataType::Float),
        Field::new("jk", DataType::Int),
    ]));
    Batch::new(
        schema,
        vec![
            Column::from_ints(rows.iter().map(|(g, _, _)| *g).collect()),
            Column::from_opt_ints(rows.iter().map(|(_, v, _)| *v).collect()),
            Column::from_floats(
                rows.iter()
                    .map(|(_, v, j)| v.unwrap_or(*j) as f64 / 3.0)
                    .collect(),
            ),
            Column::from_ints(rows.iter().map(|(_, _, j)| *j).collect()),
        ],
    )
    .unwrap()
}

/// Small dimension table: keys 0..6 so some jk values (6..8) dangle.
fn dim_batch() -> Batch {
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
    .unwrap()
}

fn load(rows: &[(i64, Option<i64>, i64)], partition_rows: usize) -> Warehouse {
    open_pool();
    let wh = Warehouse::default();
    wh.load_table_partitioned("t", fact_batch(rows), partition_rows)
        .unwrap();
    wh.load_table("u", dim_batch()).unwrap();
    wh
}

/// Load `t` with a deliberately pathological partition layout: one
/// partition holding ~90% of the rows, empty partitions interleaved, and
/// `tails` single-row partitions (which morselize into 1-row morsels).
/// This is the layout partition-granular dispatch handles worst and the
/// work-stealing scheduler must handle without changing a single bit.
fn load_skewed(rows: &[(i64, Option<i64>, i64)], tails: usize) -> Warehouse {
    open_pool();
    let wh = Warehouse::default();
    let batch = fact_batch(rows);
    let n = batch.num_rows();
    let tails = tails.min(n.saturating_sub(1));
    let big = n - tails;
    let schema = batch.schema().clone();
    let mut parts = vec![
        Batch::empty(schema.clone()),
        batch.slice(0, big),
        Batch::empty(schema.clone()),
    ];
    for i in 0..tails {
        parts.push(batch.slice(big + i, 1));
    }
    parts.push(Batch::empty(schema));
    wh.load_table_parts("t", parts).unwrap();
    wh.load_table("u", dim_batch()).unwrap();
    wh
}

/// Equality down to float bit patterns (NaN-safe, -0.0 ≠ 0.0 visible).
fn assert_bit_identical(serial: &Batch, parallel: &Batch, sql: &str) {
    assert_eq!(serial.num_rows(), parallel.num_rows(), "row count: {sql}");
    assert_eq!(
        serial.num_columns(),
        parallel.num_columns(),
        "column count: {sql}"
    );
    for c in 0..serial.num_columns() {
        assert_eq!(
            serial.column(c).dtype(),
            parallel.column(c).dtype(),
            "dtype of column {c}: {sql}"
        );
        for r in 0..serial.num_rows() {
            let (a, b) = (serial.value(r, c), parallel.value(r, c));
            match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "float bits at ({r}, {c}): {x} vs {y}: {sql}"
                ),
                _ => assert_eq!(a, b, "value at ({r}, {c}): {sql}"),
            }
        }
    }
}

/// The part of the per-operator stats tree that must not depend on how
/// input was cut: labels, depths, rows out and partition counts, in plan
/// pre-order. (sigma-e2e's `cdw.op_ms.*` attribution walks this tree.)
fn op_tree(ops: &[OpStats]) -> Vec<(String, usize, usize, usize)> {
    ops.iter()
        .map(|o| (o.op.clone(), o.depth, o.rows_out, o.partitions))
        .collect()
}

/// Pin the uncut serial reference lane: one worker, whole partitions,
/// nothing spilled.
fn reference_lane(wh: &Warehouse) {
    wh.set_parallelism(1);
    wh.set_morsel_sizing(MorselSizing::WholePartition);
    wh.set_memory_budget(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn parallel_and_serial_execution_bit_identical(
        rows in proptest::collection::vec(
            (0i64..5, proptest::option::of(-50i64..50), 0i64..8),
            1..120,
        ),
        partition_rows in 1usize..24,
    ) {
        let wh = load(&rows, partition_rows);
        for sql in QUERIES {
            wh.set_parallelism(1);
            let serial = wh.execute_sql(sql).unwrap().batch;
            wh.set_parallelism(4);
            let parallel = wh.execute_sql(sql).unwrap().batch;
            assert_bit_identical(&serial, &parallel, sql);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Skewed layouts are the scheduler's worst case: one ~90% partition,
    /// empty partitions, and 1-row morsel tails. Uncut serial execution
    /// (`parallelism = 1`, whole-partition morsels) is the reference;
    /// every combination of parallelism {1, 4, 16} × sizing {whole
    /// partition, 3 rows, 4096 rows, derived} must reproduce it
    /// bit-for-bit — and report the same operator tree. The 3-row morsel
    /// size forces the big partition through multi-morsel regrouping
    /// while the tails exercise single-row morsels.
    #[test]
    fn skewed_partitions_bit_identical(
        rows in proptest::collection::vec(
            (0i64..5, proptest::option::of(-50i64..50), 0i64..8),
            30..140,
        ),
        tails in 1usize..6,
    ) {
        let wh = load_skewed(&rows, tails);
        for sql in QUERIES {
            reference_lane(&wh);
            let oracle = wh.execute_sql(sql).unwrap();
            for &parallelism in &[1usize, 4, 16] {
                wh.set_parallelism(parallelism);
                // (sizing, memory budget): the unbudgeted sweep pins the
                // in-memory sinks; the 1-byte run forces every
                // spill-capable sink out of core *while* consuming 3-row
                // morsels, pinning the spilling code.
                for (sizing, budget) in [
                    (MorselSizing::WholePartition, None),
                    (MorselSizing::Fixed(3), None),
                    (MorselSizing::Fixed(4096), None),
                    (MorselSizing::Derived, None),
                    (MorselSizing::Fixed(3), Some(1)),
                ] {
                    wh.set_morsel_sizing(sizing);
                    wh.set_memory_budget(budget);
                    let got = wh.execute_sql(sql).unwrap();
                    let what = format!("{sql} [p={parallelism} sizing={sizing:?} budget={budget:?}]");
                    assert_bit_identical(&oracle.batch, &got.batch, &what);
                    assert_eq!(
                        op_tree(&oracle.operators),
                        op_tree(&got.operators),
                        "operator tree: {what}"
                    );
                }
                wh.set_memory_budget(None);
            }
        }
    }
}

/// Derived per-pipeline morsel sizing (the default config) is a pure
/// scheduling choice: over the skewed layout, every query must match the
/// uncut serial reference bit-for-bit at parallelism {1, 4}, and pinning
/// a fixed 3-row size afterwards must actually take effect (and still
/// match).
#[test]
fn adaptive_morsel_sizing_bit_identical() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..60).map(|i| (i % 4, Some(i * 7), i % 8)).collect();
    let wh = load_skewed(&rows, 4);
    assert_eq!(wh.config().morsel_sizing, MorselSizing::Derived);
    for sql in QUERIES {
        reference_lane(&wh);
        let oracle = wh.execute_sql(sql).unwrap().batch;
        for &parallelism in &[1usize, 4] {
            wh.set_parallelism(parallelism);
            wh.set_morsel_sizing(MorselSizing::Derived);
            let adaptive = wh.execute_sql(sql).unwrap().batch;
            assert_bit_identical(
                &oracle,
                &adaptive,
                &format!("{sql} [derived p={parallelism}]"),
            );
            wh.set_morsel_sizing(MorselSizing::Fixed(3));
            assert_eq!(wh.config().morsel_sizing, MorselSizing::Fixed(3));
            let fixed = wh.execute_sql(sql).unwrap().batch;
            assert_bit_identical(&oracle, &fixed, &format!("{sql} [fixed-3 p={parallelism}]"));
        }
    }
}

/// Deterministic worst-case layout, checked down to the morsel counters:
/// `[empty, 36-row, empty, 1-row × 4, empty]` under 3-row morsels must
/// split into 19 morsels over 8 partitions (12 for the big partition, one
/// each for the rest) and still match the uncut serial reference exactly.
#[test]
fn skewed_layout_morsel_stats_and_equivalence() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..40).map(|i| (i % 4, Some(i), i % 8)).collect();
    let wh = load_skewed(&rows, 4);
    let sql = "SELECT g, COUNT(*) AS c, SUM(v) AS s, AVG(d) AS a FROM t GROUP BY g";
    reference_lane(&wh);
    let oracle = wh.execute_sql(sql).unwrap().batch;

    wh.set_parallelism(4);
    wh.set_morsel_sizing(MorselSizing::Fixed(3));
    let result = wh.execute_sql(sql).unwrap();
    assert_bit_identical(&oracle, &result.batch, sql);
    let partial = result
        .operators
        .iter()
        .find(|o| o.op.starts_with("Aggregate[partial]"))
        .unwrap();
    assert_eq!(partial.partitions, 8, "{partial:?}");
    assert_eq!(partial.morsels, 19, "{partial:?}");
    let analyzed = wh.explain_analyze(sql).unwrap();
    assert!(analyzed.contains("morsels=19"), "{analyzed}");

    // The pooled scheduler reports per-query counters: a 4-way morselized
    // aggregate dispatches parallel tasks, and every task is accounted to
    // either an own-queue pop or a steal.
    assert!(analyzed.contains("scheduler: tasks="), "{analyzed}");
    assert!(
        analyzed.contains("local=") && analyzed.contains("steals="),
        "{analyzed}"
    );
    let sched_line = analyzed
        .lines()
        .find(|l| l.starts_with("scheduler:"))
        .unwrap();
    let field = |k: &str| -> usize {
        sched_line
            .split_whitespace()
            .find_map(|t| t.strip_prefix(k))
            .unwrap()
            .parse()
            .unwrap()
    };
    let (tasks, local, steals) = (field("tasks="), field("local="), field("steals="));
    assert!(
        tasks > 0,
        "parallel query dispatched no tasks: {sched_line}"
    );
    assert_eq!(
        local + steals,
        tasks,
        "every task is an own-queue pop or a steal: {sched_line}"
    );
}

/// The long-tail operators must actually cut their input and say so:
/// under 3-row morsels, LEFT join probes, sort, and window all report
/// more `morsels` than the uncut reference (which counts one per input
/// partition) in their [`OpStats`] entry and in `explain_analyze` —
/// while matching that reference exactly.
#[test]
fn long_tail_operators_report_morsels() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..40).map(|i| (i % 4, Some(i), i % 8)).collect();
    let wh = load_skewed(&rows, 4);
    let cases = [
        (
            "Join Left",
            "SELECT t.g, u.lab FROM t LEFT JOIN u ON t.jk = u.k",
        ),
        ("Sort", "SELECT g, v, d FROM t ORDER BY v DESC, g"),
        (
            "Window",
            "SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY v) AS w FROM t",
        ),
    ];
    for (op_prefix, sql) in cases {
        reference_lane(&wh);
        let oracle = wh.execute_sql(sql).unwrap();
        let uncut_op = oracle
            .operators
            .iter()
            .find(|o| o.op.starts_with(op_prefix))
            .unwrap_or_else(|| panic!("no {op_prefix} op: {:?}", oracle.operators));
        // Join probes take one morsel per left partition (8 here); sort
        // and window take their concatenated input as one.
        let uncut = if op_prefix == "Join Left" { 8 } else { 1 };
        assert_eq!(
            uncut_op.morsels, uncut,
            "reference lane split a partition: {sql}"
        );

        wh.set_parallelism(4);
        wh.set_morsel_sizing(MorselSizing::Fixed(3));
        let result = wh.execute_sql(sql).unwrap();
        assert_bit_identical(&oracle.batch, &result.batch, sql);
        let op = result
            .operators
            .iter()
            .find(|o| o.op.starts_with(op_prefix))
            .unwrap_or_else(|| panic!("no {op_prefix} op: {:?}", result.operators));
        assert!(op.morsels > uncut, "input was not cut: {op:?} {sql}");
        let analyzed = wh.explain_analyze(sql).unwrap();
        assert!(analyzed.contains("morsels="), "{analyzed}");
    }
}

/// The split must actually engage: a grouped aggregate over a partitioned
/// scan plans as Final-over-Partial and reports per-operator stats.
#[test]
fn two_phase_split_visible_in_plan_and_stats() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..40).map(|i| (i % 4, Some(i), i % 8)).collect();
    let wh = load(&rows, 8); // 5 partitions
    let plan = wh
        .plan_sql("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    let explain = plan.explain();
    assert!(explain.contains("Aggregate[final]"), "{explain}");
    assert!(explain.contains("Aggregate[partial]"), "{explain}");

    wh.set_parallelism(4);
    let result = wh
        .execute_sql("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    assert_eq!(result.batch.num_rows(), 4);
    assert_eq!(result.partitions_scanned, 5);
    let ops: Vec<&str> = result.operators.iter().map(|o| o.op.as_str()).collect();
    assert!(
        ops.iter().any(|o| o.starts_with("Aggregate[final]")),
        "{ops:?}"
    );
    assert!(
        ops.iter().any(|o| o.starts_with("Aggregate[partial]")),
        "{ops:?}"
    );
    let partial = result
        .operators
        .iter()
        .find(|o| o.op.starts_with("Aggregate[partial]"))
        .unwrap();
    // 5 partitions × up to 4 groups each, merged down to 4 final groups.
    assert_eq!(partial.partitions, 5);
    assert!(partial.rows_out >= 4, "{partial:?}");
    let analyzed = wh
        .explain_analyze("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    assert!(analyzed.contains("Aggregate[partial]"), "{analyzed}");
    assert!(analyzed.contains("rows_out="), "{analyzed}");
}
