//! The delta tier's referee. A browser "delta" edit is not a second
//! engine: it is the stage query planned and executed by the warehouse
//! with the cached input batch bound by name
//! (`Warehouse::execute_over`). Three things are pinned here:
//!
//! 1. Bound-input execution is **bit-identical** — float bit patterns
//!    included — to loading the same batch as a table and running the
//!    same SQL, at every parallelism and morsel height. The sweep covers
//!    the shapes the browser tier actually replays: wildcard filters,
//!    aliased projections with qualified columns, duplicate output
//!    names, CASE/LIKE, and `ORDER BY` in both its resolutions (output
//!    name and hidden input-scoped key), over batches with nulls, NaN,
//!    ±0.0 and ties.
//! 2. The classification the tier label hangs on: all of those shapes
//!    plan as chains (filter / project / sort over the bound input);
//!    grouping, LIMIT, DISTINCT, joins, windows and `RESULT_SCAN` do not.
//! 3. A bound input shadows a catalog table of the same name.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sigma_cdw::{MorselSizing, Warehouse};
use sigma_sql::parse_query;
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};
use std::sync::Arc;

const FLOAT_POOL: &[f64] = &[
    0.0,
    -0.0,
    1.5,
    -2.25,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];
const TEXT_POOL: &[&str] = &["", "alpha", "Beta", "a%b", "aa", "no", "100"];

fn gen_parent(rng: &mut StdRng, rows: usize) -> Batch {
    let schema = Arc::new(Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("y", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Text),
    ]));
    let nullable = |rng: &mut StdRng| rng.random_range(0..4usize) == 0;
    // Narrow ranges on purpose: ties exercise sort stability.
    let xs: Vec<i64> = (0..rows).map(|_| rng.random_range(-10i64..10)).collect();
    let ys: Vec<Option<i64>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| rng.random_range(-10i64..10)))
        .collect();
    let fs: Vec<Option<f64>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| FLOAT_POOL[rng.random_range(0..FLOAT_POOL.len())]))
        .collect();
    let ss: Vec<Option<String>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| TEXT_POOL[rng.random_range(0..TEXT_POOL.len())].into()))
        .collect();
    Batch::new(
        schema,
        vec![
            Column::from_ints(xs),
            Column::from_opt_ints(ys),
            Column::from_opt_floats(fs),
            Column::from_opt_texts(ss),
        ],
    )
    .unwrap()
}

/// The stage shapes the browser tier replays as delta edits.
const STAGE_SQL: &[&str] = &[
    // Filter-tweak shape (base_0_f / lvl_f stages).
    "SELECT * FROM base_0 WHERE y > 5",
    "SELECT * FROM base_0 WHERE s LIKE 'a%' ORDER BY y DESC, x",
    // Projection shape (base_0 recompute after a formula edit).
    "SELECT t.s AS name, t.f * 2 AS f2 FROM base_0 AS t ORDER BY t.f DESC",
    "SELECT CASE WHEN y > 0 THEN 'pos' ELSE 'neg' END AS sign, x FROM base_0 ORDER BY sign DESC, x",
    // Sink shape: qualified columns + ORDER BY resolved as a hidden key.
    "SELECT t.x AS x, t.y AS y FROM base_0 AS t ORDER BY t.x",
    // ORDER BY against an output name, with ties.
    "SELECT * FROM base_0 ORDER BY x",
    // Hidden expression key (not in the select list).
    "SELECT s FROM base_0 ORDER BY y + 1",
    // Duplicate output names dedup with " (k)".
    "SELECT t.x AS a, t.y AS a FROM base_0 AS t ORDER BY a",
];

fn assert_bit_identical(bound: &Batch, oracle: &Batch, sql: &str) {
    assert_eq!(bound.num_rows(), oracle.num_rows(), "{sql}");
    assert_eq!(bound.num_columns(), oracle.num_columns(), "{sql}");
    for c in 0..bound.num_columns() {
        let (bf, of) = (bound.schema().field(c), oracle.schema().field(c));
        assert_eq!(bf.name, of.name, "{sql}");
        assert_eq!(bf.dtype, of.dtype, "{sql}");
        for r in 0..bound.num_rows() {
            match (bound.value(r, c), oracle.value(r, c)) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "float bits at ({r},{c}): {a} vs {b}: {sql}"
                ),
                (a, b) => assert_eq!(a, b, "value at ({r},{c}): {sql}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bound_input_matches_load_and_execute(seed in any::<u64>(), rows in 0usize..60) {
        // Let parallelism 4 be real on a small host.
        sigma_cdw::grow_worker_pool_target(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let parent = gen_parent(&mut rng, rows);
        let oracle_wh = Warehouse::default();
        oracle_wh.load_table("base_0", parent.clone()).unwrap();
        // No table anywhere in this one: every row comes from the binding.
        let bound_wh = Warehouse::default();
        for sql in STAGE_SQL {
            let query = parse_query(sql).unwrap();
            let oracle = oracle_wh.execute_sql(sql).unwrap().batch;
            for parallelism in [1, 4] {
                for sizing in [MorselSizing::WholePartition, MorselSizing::Fixed(7)] {
                    bound_wh.set_parallelism(parallelism);
                    bound_wh.set_morsel_sizing(sizing);
                    let (bound, chain) =
                        bound_wh.execute_over(&query, &[("base_0", &parent)]).unwrap();
                    prop_assert!(chain, "{sql} must stay a chain");
                    assert_bit_identical(&bound, &oracle, sql);
                }
            }
        }
    }
}

fn small_batch(name: &str, values: Vec<i64>) -> Batch {
    let schema = Arc::new(Schema::new(vec![Field::new(name, DataType::Int)]));
    Batch::new(schema, vec![Column::from_ints(values)]).unwrap()
}

#[test]
fn only_filter_project_sort_over_a_bound_input_is_a_chain() {
    let wh = Warehouse::default();
    let t = small_batch("a", vec![3, 1, 2]);
    let u = small_batch("a", vec![2, 3]);
    wh.load_table("stored", t.clone()).unwrap();
    let qid = wh.execute_sql("SELECT a FROM stored").unwrap().query_id;
    let result_scan = format!("SELECT * FROM TABLE(RESULT_SCAN('{qid}')) AS r");
    let cases: [(&str, bool); 10] = [
        (
            "SELECT a, a + 1 AS b FROM t WHERE a > 1 ORDER BY a DESC",
            true,
        ),
        ("SELECT a, SUM(a) AS s FROM t GROUP BY a", false),
        ("SELECT a FROM t LIMIT 5", false),
        ("SELECT DISTINCT a FROM t", false),
        ("SELECT t.a FROM t JOIN u ON t.a = u.a", false),
        ("SELECT ROW_NUMBER() OVER (ORDER BY a) AS r FROM t", false),
        (&result_scan, false),
        // A chain over a catalog table scans; it is not over an input.
        ("SELECT a FROM stored WHERE a > 1", false),
        // Neither is a chain over rows of its own.
        ("SELECT 1 AS one", false),
        ("SELECT a FROM t UNION ALL SELECT a FROM u", false),
    ];
    for (sql, expected) in cases {
        let query = parse_query(sql).unwrap();
        let (_, chain) = wh.execute_over(&query, &[("t", &t), ("u", &u)]).unwrap();
        assert_eq!(chain, expected, "{sql}");
    }
}

#[test]
fn bound_input_shadows_a_catalog_table_and_leaves_no_result_behind() {
    let wh = Warehouse::default();
    wh.load_table("base_0", small_batch("a", vec![1, 2, 3]))
        .unwrap();
    let query = parse_query("SELECT a FROM Base_0 ORDER BY a").unwrap();
    let bound = small_batch("a", vec![20, 10]);
    let (over, _) = wh.execute_over(&query, &[("BASE_0", &bound)]).unwrap();
    assert_eq!(over, small_batch("a", vec![10, 20]));
    // Unbound, the same query reads the table again.
    let (plain, chain) = wh.execute_over(&query, &[]).unwrap();
    assert_eq!(plain, small_batch("a", vec![1, 2, 3]));
    assert!(!chain);
    // execute_over registers no result: the next id is still the first.
    assert_eq!(wh.execute_sql("SELECT 1 AS x").unwrap().query_id, "q-1");
}
