//! The out-of-core contract: for any pipeline, executing under a memory
//! budget small enough to force multi-round spilling produces results
//! **bit-identical** (row order, column types, float bit patterns) to the
//! unbudgeted in-memory execution — at any parallelism.
//!
//! The in-memory reference is `budget = ∞, parallelism = 1,
//! MorselSizing::WholePartition` — the engine with nothing spilled and
//! nothing cut; each generated table/query runs additionally at `(∞, 4)`,
//! `(1 byte, 1)` and `(1 byte, 4)` (a 1-byte budget forces every
//! aggregation, sort, and hash-join build out of core), each both uncut
//! and with 3-row morsels — the latter cuts the streaming chains that
//! feed the spilling sinks, while the sinks themselves take whole
//! partitions (one record set per partition into the spilled aggregate,
//! budget-sized sorted runs, Grace probe keys evaluated once per
//! partition). A deterministic companion test pins the
//! observability half of the contract: forced-spill runs report nonzero
//! `spilled_bytes` and ≥2 `spill_rounds` for aggregate, sort, and join —
//! and unbudgeted runs report exactly zero — through both `ResultSet` and
//! `Warehouse::explain_analyze`.

use proptest::prelude::*;
use sigma_cdw::{MorselSizing, Warehouse};
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};
use std::sync::Arc;

/// Pipelines covering every spill-capable operator (and their fusions).
const QUERIES: &[&str] = &[
    // Grouped aggregation across every mergeable state (one group table
    // per scanned partition, merged in order).
    "SELECT g, COUNT(*) AS c, COUNT(v) AS cv, COUNT(DISTINCT v) AS cd, \
            SUM(v) AS s, AVG(v) AS a, MIN(v) AS mn, MAX(v) AS mx, \
            STDDEV(v) AS sd, MEDIAN(v) AS md \
     FROM t GROUP BY g",
    // Multi-column grouping (wider keys stress the bucket router).
    "SELECT g, jk, SUM(d) AS s, AVG(d) AS a FROM t GROUP BY g, jk",
    // Aggregation over a filter (possibly-empty input under a budget).
    "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM t WHERE v > 1000 GROUP BY g",
    // External sort: multi-key, mixed direction, nullable key column.
    "SELECT g, v, d FROM t ORDER BY v DESC, d, g",
    "SELECT g, v FROM t ORDER BY g",
    // Sort over an aggregate (spilled agg feeding spilled sort).
    "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY s DESC, g",
    // Grace hash joins of every kind (dangling keys on both sides).
    "SELECT t.g, t.v, u.lab FROM t JOIN u ON t.jk = u.k",
    "SELECT t.g, u.lab FROM t LEFT JOIN u ON t.jk = u.k",
    "SELECT t.g, u.lab FROM t FULL JOIN u ON t.jk = u.k",
    // Grace joins with residuals: the bucket passes pair by key only and
    // the shared per-partition assembly filters. LEFT with a non-equi
    // conjunct over the nullable `v`; FULL with a residual that also
    // decides which right rows go unmatched.
    "SELECT t.g, t.v, u.lab FROM t LEFT JOIN u ON t.jk = u.k AND t.v > u.k",
    "SELECT t.g, t.v, u.k, u.lab FROM t FULL JOIN u ON t.jk = u.k AND t.v < u.k + 3",
    // Aggregation over a join (spilled join feeding the spilled aggregate).
    "SELECT u.lab, COUNT(*) AS n, SUM(t.v) AS s \
     FROM t LEFT JOIN u ON t.jk = u.k GROUP BY u.lab",
    // Aggregation over UNION ALL (partition structure preserved).
    "SELECT g, SUM(v) AS s FROM (SELECT g, v FROM t UNION ALL SELECT g, v FROM t) x GROUP BY g",
    // A FULL join over a left input collapsed to one part: the matched
    // part and the unmatched-right tail are two parts, whose groups the
    // aggregate above merges (float SUM/AVG across both).
    "SELECT u.k % 2 AS p, SUM(a.d) AS s, AVG(u.k / 3.0) AS m, COUNT(*) AS n \
     FROM (SELECT g, d, jk FROM t ORDER BY v, d, g LIMIT 7) a FULL JOIN u ON a.jk = u.k \
     GROUP BY u.k % 2",
    // DISTINCT over an input that collapses to one part.
    "SELECT DISTINCT g FROM (SELECT g, v FROM t ORDER BY v, d, g LIMIT 9) x",
];

fn load(rows: &[(i64, Option<i64>, i64)], partition_rows: usize) -> Warehouse {
    // Open the shared worker pool so `parallelism = p` occupies p slots;
    // the sweep below then exercises pooled worker counts, and inputs are
    // actually cut (at an effective width of 1 they never are).
    sigma_cdw::grow_worker_pool_target(16);
    let wh = Warehouse::default();
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("d", DataType::Float),
        Field::new("jk", DataType::Int),
    ]));
    let batch = Batch::new(
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
    .unwrap();
    wh.load_table_partitioned("t", batch, partition_rows)
        .unwrap();
    // Dimension keys 0..6, duplicated labels, so some fact keys (6..8)
    // dangle and some dimension rows multi-match.
    let dim = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("lab", DataType::Text),
        ])),
        vec![
            Column::from_ints((0..6).collect()),
            Column::from_texts((0..6).map(|i| format!("l{}", i % 3)).collect()),
        ],
    )
    .unwrap();
    wh.load_table("u", dim).unwrap();
    wh
}

/// Equality down to float bit patterns (NaN-safe, -0.0 ≠ 0.0 visible).
fn assert_bit_identical(oracle: &Batch, spilled: &Batch, what: &str) {
    assert_eq!(oracle.num_rows(), spilled.num_rows(), "row count: {what}");
    assert_eq!(
        oracle.num_columns(),
        spilled.num_columns(),
        "column count: {what}"
    );
    for c in 0..oracle.num_columns() {
        assert_eq!(
            oracle.column(c).dtype(),
            spilled.column(c).dtype(),
            "dtype of column {c}: {what}"
        );
        for r in 0..oracle.num_rows() {
            let (a, b) = (oracle.value(r, c), spilled.value(r, c));
            match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "float bits at ({r}, {c}): {x} vs {y}: {what}"
                ),
                _ => assert_eq!(a, b, "value at ({r}, {c}): {what}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn spilled_execution_bit_identical_to_in_memory(
        rows in proptest::collection::vec(
            (0i64..5, proptest::option::of(-50i64..50), 0i64..8),
            1..120,
        ),
        partition_rows in 1usize..24,
    ) {
        let wh = load(&rows, partition_rows);
        for sql in QUERIES {
            wh.set_memory_budget(None);
            wh.set_parallelism(1);
            wh.set_morsel_sizing(MorselSizing::WholePartition);
            let oracle = wh.execute_sql(sql).unwrap();
            assert_eq!(oracle.spilled_bytes, 0, "unbudgeted must not spill: {sql}");
            assert_eq!(oracle.spill_rounds, 0, "unbudgeted must not spill: {sql}");
            for (budget, parallelism) in
                [(None, 4usize), (Some(1), 1), (Some(1), 4)]
            {
                wh.set_memory_budget(budget);
                wh.set_parallelism(parallelism);
                for sizing in [MorselSizing::WholePartition, MorselSizing::Fixed(3)] {
                    wh.set_morsel_sizing(sizing);
                    let run = wh.execute_sql(sql).unwrap();
                    let what =
                        format!("{sql} [budget={budget:?} p={parallelism} sizing={sizing:?}]");
                    assert_bit_identical(&oracle.batch, &run.batch, &what);
                    if budget.is_none() {
                        assert_eq!(run.spilled_bytes, 0, "{what}");
                    }
                }
            }
        }
    }
}

/// Parse `spilled_bytes=<n>` / `spill_rounds=<n>` out of the EXPLAIN
/// ANALYZE footer.
fn footer_stat(rendered: &str, stat: &str) -> usize {
    let tail = rendered
        .split(&format!("{stat}="))
        .nth(1)
        .unwrap_or_else(|| panic!("no {stat} in: {rendered}"));
    tail.split_whitespace()
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {stat} in: {rendered}"))
}

/// Observability contract on a deterministic workload: a budget that
/// forces each operator out of core yields ≥2 spill rounds and nonzero
/// spilled bytes (visible in `ResultSet` and `explain_analyze`); lifting
/// the budget zeroes both.
#[test]
fn forced_spill_reports_rounds_and_bytes() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..2000)
        .map(|i| {
            (
                i % 37,
                if i % 11 == 0 { None } else { Some(i % 251) },
                i % 8,
            )
        })
        .collect();
    let wh = load(&rows, 256); // 8 partitions

    // Per-case forcing budget: well under that operator's state estimate
    // (the join's build side is the small dimension table, so its budget
    // sits below the key-material estimate for 6 rows).
    let cases = [
        (
            "aggregate",
            "SELECT g, SUM(v) AS s, AVG(d) AS a, COUNT(*) AS c FROM t GROUP BY g",
            4096usize,
        ),
        ("sort", "SELECT g, v, d FROM t ORDER BY v DESC, g", 4096),
        ("join", "SELECT t.g, u.lab FROM t JOIN u ON t.jk = u.k", 64),
    ];
    for parallelism in [1usize, 4] {
        wh.set_parallelism(parallelism);
        for (name, sql, budget) in cases {
            // In-memory oracle.
            wh.set_memory_budget(None);
            let oracle = wh.execute_sql(sql).unwrap();
            assert_eq!(oracle.spilled_bytes, 0, "{name} p={parallelism}");
            assert_eq!(oracle.spill_rounds, 0, "{name} p={parallelism}");
            let rendered = wh.explain_analyze(sql).unwrap();
            assert!(rendered.contains("memory: budget=unbounded"), "{rendered}");
            assert_eq!(footer_stat(&rendered, "spilled_bytes"), 0, "{rendered}");
            assert_eq!(footer_stat(&rendered, "spill_rounds"), 0, "{rendered}");

            // Forced out-of-core.
            wh.set_memory_budget(Some(budget));
            let spilled = wh.execute_sql(sql).unwrap();
            assert!(
                spilled.spilled_bytes > 0,
                "{name} p={parallelism}: no bytes spilled"
            );
            assert!(
                spilled.spill_rounds >= 2,
                "{name} p={parallelism}: rounds={} (wanted multi-round spilling)",
                spilled.spill_rounds
            );
            assert_bit_identical(
                &oracle.batch,
                &spilled.batch,
                &format!("{name} p={parallelism}"),
            );
            let rendered = wh.explain_analyze(sql).unwrap();
            assert!(
                rendered.contains(&format!("memory: budget={budget}")),
                "{rendered}"
            );
            assert!(footer_stat(&rendered, "spilled_bytes") > 0, "{rendered}");
            assert!(footer_stat(&rendered, "spill_rounds") >= 2, "{rendered}");
        }
    }
    wh.set_memory_budget(None);
}

/// The spilling sinks take whole partitions at every morsel height: with
/// 3-row morsels and a 1-byte budget at p4, the spill-capable operators
/// spill exactly the bytes and rounds the uncut lane spills, and count
/// exactly its morsels (one per input partition, one for a sort) —
/// while reproducing the unbudgeted uncut serial reference bit-for-bit.
#[test]
fn morselized_spilling_spills_and_counts_morsels() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..400)
        .map(|i| (i % 13, if i % 7 == 0 { None } else { Some(i % 97) }, i % 8))
        .collect();
    let wh = load(&rows, 64); // 7 partitions
    let cases = [
        (
            "Aggregate",
            "SELECT g, SUM(v) AS s, AVG(d) AS a FROM t GROUP BY g",
            7,
        ),
        ("Sort", "SELECT g, v, d FROM t ORDER BY v DESC, g", 1),
        (
            "Join Inner",
            "SELECT t.g, u.lab FROM t JOIN u ON t.jk = u.k",
            7,
        ),
    ];
    for (op_prefix, sql, uncut_morsels) in cases {
        wh.set_memory_budget(None);
        wh.set_parallelism(1);
        wh.set_morsel_sizing(MorselSizing::WholePartition);
        let oracle = wh.execute_sql(sql).unwrap();

        wh.set_memory_budget(Some(1));
        wh.set_parallelism(4);
        let uncut = wh.execute_sql(sql).unwrap();
        wh.set_morsel_sizing(MorselSizing::Fixed(3));
        let run = wh.execute_sql(sql).unwrap();
        assert!(run.spilled_bytes > 0, "budget did not force a spill: {sql}");
        assert_eq!(run.spilled_bytes, uncut.spilled_bytes, "{sql}");
        assert_eq!(run.spill_rounds, uncut.spill_rounds, "{sql}");
        assert_bit_identical(&oracle.batch, &run.batch, sql);
        let op = run
            .operators
            .iter()
            .find(|o| o.op.starts_with(op_prefix))
            .unwrap_or_else(|| panic!("no {op_prefix} op: {:?}", run.operators));
        assert_eq!(op.morsels, uncut_morsels, "{op:?} {sql}");
    }
    wh.set_memory_budget(None);
}

/// DML wrapping a query (CTAS / INSERT ... SELECT) reports the inner
/// query's spill activity too.
#[test]
fn ctas_and_insert_report_spill_stats() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..200).map(|i| (i % 7, Some(i), i % 8)).collect();
    let wh = load(&rows, 32);
    wh.set_memory_budget(Some(1));
    let ctas = wh
        .execute_sql("CREATE TABLE agg AS SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    assert!(ctas.spilled_bytes > 0, "CTAS hid the inner query's spill");
    assert!(ctas.spill_rounds >= 2);
    let insert = wh
        .execute_sql("INSERT INTO agg SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    assert!(
        insert.spilled_bytes > 0,
        "INSERT hid the inner query's spill"
    );
    wh.set_memory_budget(None);
    let cold = wh
        .execute_sql("CREATE OR REPLACE TABLE agg2 AS SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    assert_eq!(cold.spilled_bytes, 0);
    assert_eq!(cold.spill_rounds, 0);
}

/// Under spill the aggregate is still one operator over its input's
/// partitions: one executed entry that counts one morsel per partition
/// (cut into 3-row morsels or not), spills exactly what the uncut lane
/// spills, and matches the unbudgeted reference bit for bit.
#[test]
fn aggregate_spills_over_each_partition_in_one_entry() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..40).map(|i| (i % 4, Some(i), i % 8)).collect();
    let wh = load(&rows, 8); // 5 partitions
    let sql = "SELECT g, SUM(v) AS s, AVG(d) AS a FROM t GROUP BY g";
    wh.set_parallelism(1);
    wh.set_morsel_sizing(MorselSizing::WholePartition);
    let oracle = wh.execute_sql(sql).unwrap();

    wh.set_parallelism(4);
    wh.set_memory_budget(Some(1));
    let uncut = wh.execute_sql(sql).unwrap();
    wh.set_morsel_sizing(MorselSizing::Fixed(3));
    let cut = wh.execute_sql(sql).unwrap();
    wh.set_memory_budget(None);
    for (lane, result) in [("uncut", &uncut), ("3-row", &cut)] {
        assert!(result.spilled_bytes > 0, "{lane}");
        assert_eq!(result.spilled_bytes, uncut.spilled_bytes, "{lane}");
        assert_eq!(result.spill_rounds, uncut.spill_rounds, "{lane}");
        assert_bit_identical(&oracle.batch, &result.batch, &format!("{sql} [{lane}]"));
        let aggs: Vec<_> = result
            .operators
            .iter()
            .filter(|o| o.op.starts_with("Aggregate"))
            .collect();
        assert_eq!(aggs.len(), 1, "{lane}: {aggs:?}");
        assert_eq!(
            (aggs[0].rows_out, aggs[0].partitions, aggs[0].morsels),
            (4, 1, 5),
            "{lane}: {aggs:?}"
        );
    }
}
