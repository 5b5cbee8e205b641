//! End-to-end SQL execution tests: text in, rows out.

use std::sync::Arc;

use sigma_cdw::{Warehouse, WarehouseConfig};
use sigma_value::{calendar, Batch, Column, DataType, Field, Schema, Value};

fn wh() -> Warehouse {
    let wh = Warehouse::new(WarehouseConfig::default());
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("carrier", DataType::Text),
        Field::new("delay", DataType::Float),
        Field::new("cancelled", DataType::Bool),
        Field::new("day", DataType::Date),
    ]));
    let d = |y, m, dd| calendar::days_from_civil(y, m, dd);
    let batch = Batch::new(
        schema,
        vec![
            Column::from_ints(vec![1, 2, 3, 4, 5, 6]),
            Column::from_texts(
                ["AA", "AA", "UA", "UA", "DL", "DL"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
            Column::from_opt_floats(vec![
                Some(5.0),
                Some(15.0),
                None,
                Some(45.0),
                Some(0.0),
                Some(30.0),
            ]),
            Column::from_bools(vec![false, false, true, false, false, true]),
            Column::from_dates(vec![
                d(2020, 1, 1),
                d(2020, 1, 2),
                d(2020, 1, 2),
                d(2020, 2, 1),
                d(2020, 2, 15),
                d(2020, 3, 1),
            ]),
        ],
    )
    .unwrap();
    wh.load_table("flights", batch).unwrap();
    wh
}

fn q(wh: &Warehouse, sql: &str) -> Batch {
    wh.execute_sql(sql)
        .unwrap_or_else(|e| panic!("query failed: {e}\n{sql}"))
        .batch
}

fn cell(b: &Batch, r: usize, c: usize) -> Value {
    b.value(r, c)
}

#[test]
fn select_where_order() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT id, delay FROM flights WHERE delay > 10 ORDER BY delay DESC",
    );
    assert_eq!(b.num_rows(), 3);
    assert_eq!(cell(&b, 0, 0), Value::Int(4)); // 45.0
    assert_eq!(cell(&b, 1, 0), Value::Int(6)); // 30.0
    assert_eq!(cell(&b, 2, 0), Value::Int(2)); // 15.0
}

#[test]
fn group_by_with_having() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT carrier, COUNT(*) AS n, AVG(delay) AS avg_delay \
         FROM flights GROUP BY carrier HAVING COUNT(*) = 2 ORDER BY carrier",
    );
    assert_eq!(b.num_rows(), 3);
    assert_eq!(cell(&b, 0, 0), Value::Text("AA".into()));
    assert_eq!(cell(&b, 0, 1), Value::Int(2));
    assert_eq!(cell(&b, 0, 2), Value::Float(10.0));
    // UA has one NULL delay: AVG ignores it.
    assert_eq!(cell(&b, 2, 2), Value::Float(45.0));
}

#[test]
fn global_aggregate_over_empty_filter() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT COUNT(*) AS n, SUM(delay) AS s FROM flights WHERE id > 100",
    );
    assert_eq!(b.num_rows(), 1);
    assert_eq!(cell(&b, 0, 0), Value::Int(0));
    assert_eq!(cell(&b, 0, 1), Value::Null);
}

#[test]
fn count_distinct_and_attr() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT COUNT(DISTINCT carrier) AS c, ATTR(carrier) AS a FROM flights",
    );
    assert_eq!(cell(&b, 0, 0), Value::Int(3));
    assert_eq!(cell(&b, 0, 1), Value::Null); // conflicting values
    let b2 = q(
        &wh,
        "SELECT ATTR(carrier) AS a FROM flights WHERE carrier = 'AA'",
    );
    assert_eq!(cell(&b2, 0, 0), Value::Text("AA".into()));
}

#[test]
fn median_stddev_percentile() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT MEDIAN(delay) AS med, PERCENTILE_CONT(delay, 0.0) AS p0, STDDEV(delay) AS sd \
         FROM flights",
    );
    // Non-null delays: 0, 5, 15, 30, 45 -> median 15.
    assert_eq!(cell(&b, 0, 0), Value::Float(15.0));
    assert_eq!(cell(&b, 0, 1), Value::Float(0.0));
    if let Value::Float(sd) = cell(&b, 0, 2) {
        assert!((sd - 18.506755523321747).abs() < 1e-9, "{sd}");
    } else {
        panic!("stddev not float");
    }
}

#[test]
fn case_and_scalar_functions() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT id, CASE WHEN delay > 15 THEN 'late' WHEN delay IS NULL THEN 'unknown' \
         ELSE 'ok' END AS status, UPPER(carrier) AS c FROM flights ORDER BY id",
    );
    assert_eq!(cell(&b, 0, 1), Value::Text("ok".into()));
    assert_eq!(cell(&b, 2, 1), Value::Text("unknown".into()));
    assert_eq!(cell(&b, 3, 1), Value::Text("late".into()));
    assert_eq!(cell(&b, 0, 2), Value::Text("AA".into()));
}

#[test]
fn date_functions_in_sql() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT DATE_TRUNC('month', day) AS m, COUNT(*) AS n FROM flights \
         GROUP BY DATE_TRUNC('month', day) ORDER BY m",
    );
    assert_eq!(b.num_rows(), 3);
    assert_eq!(
        cell(&b, 0, 0),
        Value::Date(calendar::days_from_civil(2020, 1, 1))
    );
    assert_eq!(cell(&b, 0, 1), Value::Int(3));
}

#[test]
fn joins_inner_left() {
    let wh = wh();
    let dim = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("code", DataType::Text),
            Field::new("name", DataType::Text),
        ])),
        vec![
            Column::from_texts(vec!["AA".into(), "UA".into()]),
            Column::from_texts(vec!["American".into(), "United".into()]),
        ],
    )
    .unwrap();
    wh.load_table("carriers", dim).unwrap();
    let inner = q(
        &wh,
        "SELECT f.id, c.name FROM flights f JOIN carriers c ON f.carrier = c.code ORDER BY f.id",
    );
    assert_eq!(inner.num_rows(), 4); // DL rows drop out
    let left = q(
        &wh,
        "SELECT f.id, c.name FROM flights f LEFT JOIN carriers c ON f.carrier = c.code \
         ORDER BY f.id",
    );
    assert_eq!(left.num_rows(), 6);
    assert_eq!(cell(&left, 4, 1), Value::Null); // DL unmatched
}

#[test]
fn full_join_and_residual() {
    let wh = wh();
    let dim = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("code", DataType::Text),
            Field::new("min_delay", DataType::Float),
        ])),
        vec![
            Column::from_texts(vec!["AA".into(), "ZZ".into()]),
            Column::from_floats(vec![10.0, 0.0]),
        ],
    )
    .unwrap();
    wh.load_table("rules", dim).unwrap();
    let full = q(
        &wh,
        "SELECT f.id, r.code FROM flights f FULL JOIN rules r ON f.carrier = r.code \
         ORDER BY f.id NULLS LAST",
    );
    // 6 flight rows + unmatched ZZ.
    assert_eq!(full.num_rows(), 7);
    assert_eq!(cell(&full, 6, 1), Value::Text("ZZ".into()));
    // Residual: equality + non-equi condition.
    let resid = q(
        &wh,
        "SELECT f.id FROM flights f JOIN rules r ON f.carrier = r.code AND f.delay > r.min_delay \
         ORDER BY f.id",
    );
    assert_eq!(resid.num_rows(), 1);
    assert_eq!(cell(&resid, 0, 0), Value::Int(2)); // AA with 15 > 10
}

#[test]
fn window_functions_end_to_end() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT id, carrier, \
                ROW_NUMBER() OVER (PARTITION BY carrier ORDER BY day) AS rn, \
                LAG(day) OVER (PARTITION BY carrier ORDER BY day) AS prev_day, \
                SUM(delay) OVER (PARTITION BY carrier ORDER BY day) AS run \
         FROM flights ORDER BY id",
    );
    assert_eq!(cell(&b, 0, 2), Value::Int(1));
    assert_eq!(cell(&b, 1, 2), Value::Int(2));
    assert_eq!(cell(&b, 0, 3), Value::Null);
    assert_eq!(
        cell(&b, 1, 3),
        Value::Date(calendar::days_from_civil(2020, 1, 1))
    );
    assert_eq!(cell(&b, 1, 4), Value::Float(20.0)); // 5 + 15
}

#[test]
fn last_value_ignore_nulls_filldown() {
    let wh = Warehouse::default();
    let schema = Arc::new(Schema::new(vec![
        Field::new("pos", DataType::Int),
        Field::new("marker", DataType::Text),
    ]));
    let batch = Batch::new(
        schema,
        vec![
            Column::from_ints(vec![1, 2, 3, 4, 5]),
            Column::from_opt_texts(vec![Some("a".into()), None, None, Some("b".into()), None]),
        ],
    )
    .unwrap();
    wh.load_table("events", batch).unwrap();
    let b = q(
        &wh,
        "SELECT pos, LAST_VALUE(marker) IGNORE NULLS OVER (ORDER BY pos \
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS filled \
         FROM events ORDER BY pos",
    );
    let got: Vec<Value> = (0..5).map(|i| cell(&b, i, 1)).collect();
    assert_eq!(
        got,
        vec![
            Value::Text("a".into()),
            Value::Text("a".into()),
            Value::Text("a".into()),
            Value::Text("b".into()),
            Value::Text("b".into()),
        ]
    );
}

#[test]
fn qualify_filters_window() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT id, carrier FROM flights \
         QUALIFY ROW_NUMBER() OVER (PARTITION BY carrier ORDER BY day) = 1 ORDER BY carrier",
    );
    assert_eq!(b.num_rows(), 3); // first flight per carrier
}

#[test]
fn moving_average_frame() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT id, AVG(delay) OVER (ORDER BY id ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) \
         AS ma FROM flights ORDER BY id",
    );
    assert_eq!(cell(&b, 0, 1), Value::Float(5.0));
    assert_eq!(cell(&b, 1, 1), Value::Float(10.0)); // (5+15)/2
                                                    // Row 3: delay NULL; frame covers (15, NULL) -> avg 15.
    assert_eq!(cell(&b, 2, 1), Value::Float(15.0));
}

#[test]
fn union_values_cte() {
    let wh = wh();
    let b = q(
        &wh,
        "WITH extra AS (SELECT 'XX' AS carrier) \
         SELECT carrier FROM extra UNION ALL SELECT DISTINCT carrier FROM flights \
         ORDER BY carrier",
    );
    assert_eq!(b.num_rows(), 4);
    assert_eq!(cell(&b, 3, 0), Value::Text("XX".into()));
    let v = q(&wh, "VALUES (1, 'a'), (2, 'b') ORDER BY column1 DESC");
    assert_eq!(cell(&v, 0, 0), Value::Int(2));
}

#[test]
fn union_coerces_types() {
    let wh = wh();
    let b = q(&wh, "SELECT 1 AS x UNION ALL SELECT 2.5 ORDER BY x");
    assert_eq!(b.schema().field(0).dtype, DataType::Float);
    assert_eq!(cell(&b, 0, 0), Value::Float(1.0));
}

#[test]
fn limit_offset() {
    let wh = wh();
    let b = q(&wh, "SELECT id FROM flights ORDER BY id LIMIT 2 OFFSET 3");
    assert_eq!(b.num_rows(), 2);
    assert_eq!(cell(&b, 0, 0), Value::Int(4));
}

#[test]
fn order_by_non_projected_column() {
    let wh = wh();
    let b = q(&wh, "SELECT carrier FROM flights ORDER BY id DESC LIMIT 1");
    assert_eq!(cell(&b, 0, 0), Value::Text("DL".into()));
    assert_eq!(b.num_columns(), 1); // hidden sort column dropped
}

#[test]
fn ddl_dml_lifecycle() {
    let wh = wh();
    wh.execute_sql("CREATE TABLE notes (id BIGINT, txt VARCHAR)")
        .unwrap();
    wh.execute_sql("INSERT INTO notes VALUES (1, 'first'), (2, 'second')")
        .unwrap();
    let r = wh
        .execute_sql("INSERT INTO notes (txt, id) VALUES ('third', 3)")
        .unwrap();
    assert_eq!(r.rows_affected, 1);
    let b = q(&wh, "SELECT * FROM notes ORDER BY id");
    assert_eq!(b.num_rows(), 3);
    assert_eq!(cell(&b, 2, 1), Value::Text("third".into()));

    let u = wh
        .execute_sql("UPDATE notes SET txt = 'edited' WHERE id = 2")
        .unwrap();
    assert_eq!(u.rows_affected, 1);
    let b = q(&wh, "SELECT txt FROM notes WHERE id = 2");
    assert_eq!(cell(&b, 0, 0), Value::Text("edited".into()));

    let d = wh.execute_sql("DELETE FROM notes WHERE id = 1").unwrap();
    assert_eq!(d.rows_affected, 1);
    assert_eq!(
        q(&wh, "SELECT COUNT(*) AS n FROM notes").value(0, 0),
        Value::Int(2)
    );

    wh.execute_sql("DROP TABLE notes").unwrap();
    assert!(wh.execute_sql("SELECT * FROM notes").is_err());
}

/// `notes(id BIGINT, score DOUBLE, txt VARCHAR)`: ids 1..=4, a NULL score
/// on row 3.
fn notes() -> Warehouse {
    let wh = Warehouse::default();
    wh.execute_sql("CREATE TABLE notes (id BIGINT, score DOUBLE, txt VARCHAR)")
        .unwrap();
    wh.execute_sql(
        "INSERT INTO notes VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, 'c'), (4, 4.5, '7')",
    )
    .unwrap();
    wh
}

#[test]
fn update_and_delete_touch_only_rows_whose_predicate_is_true() {
    let wh = notes();
    // `score > 2` is NULL on row 3: not updated...
    let u = wh
        .execute_sql("UPDATE notes SET txt = 'big' WHERE score > 2")
        .unwrap();
    assert_eq!(u.rows_affected, 2);
    let b = q(&wh, "SELECT txt FROM notes ORDER BY id");
    let txt: Vec<Value> = (0..4).map(|r| cell(&b, r, 0)).collect();
    assert_eq!(txt, ["a", "big", "c", "big"].map(|s| Value::Text(s.into())));
    // ...and not deleted.
    let d = wh.execute_sql("DELETE FROM notes WHERE score > 2").unwrap();
    assert_eq!(d.rows_affected, 2);
    let b = q(&wh, "SELECT id FROM notes ORDER BY id");
    assert_eq!(
        (cell(&b, 0, 0), cell(&b, 1, 0)),
        (Value::Int(1), Value::Int(3))
    );
    // No WHERE: every row.
    assert_eq!(
        wh.execute_sql("UPDATE notes SET score = 0")
            .unwrap()
            .rows_affected,
        2
    );
    assert_eq!(
        wh.execute_sql("DELETE FROM notes").unwrap().rows_affected,
        2
    );
    assert_eq!(q(&wh, "SELECT * FROM notes").num_rows(), 0);
}

#[test]
fn update_reads_other_columns_and_casts_to_the_column_type() {
    let wh = notes();
    // Reads another column; the Int result lands in a Float column.
    wh.execute_sql("UPDATE notes SET score = id + 1 WHERE notes.id <= 2")
        .unwrap();
    // An Int literal into a Float column, a qualified predicate column.
    wh.execute_sql("UPDATE notes SET score = 7 WHERE notes.id = 4")
        .unwrap();
    let b = q(&wh, "SELECT score FROM notes ORDER BY id");
    assert_eq!(b.schema().field(0).dtype, DataType::Float);
    let score: Vec<Value> = (0..4).map(|r| cell(&b, r, 0)).collect();
    assert_eq!(
        score,
        [
            Value::Float(2.0),
            Value::Float(3.0),
            Value::Null,
            Value::Float(7.0)
        ]
    );
    // Both assignments read the row as it was before the statement.
    wh.execute_sql("UPDATE notes SET id = id * 10, score = id WHERE id = 4")
        .unwrap();
    let b = q(&wh, "SELECT id, score FROM notes WHERE id = 40");
    assert_eq!(
        (cell(&b, 0, 0), cell(&b, 0, 1)),
        (Value::Int(40), Value::Float(4.0))
    );
}

#[test]
fn failed_update_or_delete_leaves_the_table_unchanged() {
    let wh = notes();
    let before = q(&wh, "SELECT * FROM notes ORDER BY id");
    for sql in [
        "UPDATE notes SET txt = 'x' WHERE nope = 1",
        "UPDATE notes SET txt = nope",
        "UPDATE notes SET txt = 'x' WHERE other.id = 1",
        "DELETE FROM notes WHERE nope = 1",
    ] {
        let err = wh.execute_sql(sql).unwrap_err();
        assert!(matches!(err, sigma_cdw::CdwError::Plan(_)), "{sql}: {err}");
        assert_eq!(q(&wh, "SELECT * FROM notes ORDER BY id"), before, "{sql}");
    }
    // Strict cast: 'a' is not a BIGINT, and the statement fails whole —
    // even though row 4 ('7') would have converted.
    let err = wh.execute_sql("UPDATE notes SET id = txt").unwrap_err();
    assert!(matches!(err, sigma_cdw::CdwError::Value(_)), "{err}");
    assert_eq!(q(&wh, "SELECT * FROM notes ORDER BY id"), before);
    // Where every value converts, the same assignment succeeds.
    wh.execute_sql("DELETE FROM notes WHERE id < 4").unwrap();
    wh.execute_sql("UPDATE notes SET id = txt").unwrap();
    assert_eq!(q(&wh, "SELECT id FROM notes").value(0, 0), Value::Int(7));
}

/// A filter narrows its selection conjunct by conjunct only when every
/// conjunct is a selection step, which cannot fail. SQL plans every CAST
/// as TRY_CAST, so the fallible conjunct here is a comparison with no
/// typed arm (Text against Int):
/// the first conjunct rejects every row, and the query still fails, as a
/// whole-predicate evaluation over every row does.
#[test]
fn fallible_conjunct_fails_after_a_conjunct_rejecting_every_row() {
    let wh = notes();
    let before = q(&wh, "SELECT * FROM notes ORDER BY id");
    for sql in [
        "SELECT id FROM notes WHERE id > 100 AND txt > 5",
        "SELECT id FROM notes WHERE id > 100 AND score > 0 AND txt > 5",
        "DELETE FROM notes WHERE id > 100 AND txt > 5",
        "UPDATE notes SET txt = 'x' WHERE id > 100 AND txt > 5",
    ] {
        let err = wh.execute_sql(sql).unwrap_err();
        assert!(err.to_string().contains('>'), "{sql}: {err}");
        assert_eq!(q(&wh, "SELECT * FROM notes ORDER BY id"), before, "{sql}");
    }
    // The step-only prefix alone runs, and selects nothing.
    assert_eq!(
        q(&wh, "SELECT id FROM notes WHERE id > 100 AND score > 0").num_rows(),
        0
    );
}

#[test]
fn create_table_as_and_result_scan() {
    let wh = wh();
    wh.execute_sql("CREATE OR REPLACE TABLE mat AS SELECT carrier, COUNT(*) AS n FROM flights GROUP BY carrier")
        .unwrap();
    let b = q(&wh, "SELECT * FROM mat ORDER BY carrier");
    assert_eq!(b.num_rows(), 3);

    let r = wh
        .execute_sql("SELECT id FROM flights WHERE cancelled ORDER BY id")
        .unwrap();
    assert_eq!(r.batch.num_rows(), 2);
    let re = q(
        &wh,
        &format!(
            "SELECT COUNT(*) AS n FROM TABLE(RESULT_SCAN('{}')) AS r",
            r.query_id
        ),
    );
    assert_eq!(re.value(0, 0), Value::Int(2));
}

#[test]
fn parallel_scan_matches_serial() {
    let wh = Warehouse::default();
    let n = 10_000i64;
    let schema = Arc::new(Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("y", DataType::Float),
    ]));
    let batch = Batch::new(
        schema,
        vec![
            Column::from_ints((0..n).collect()),
            Column::from_floats((0..n).map(|i| i as f64 * 0.5).collect()),
        ],
    )
    .unwrap();
    // Small partitions to exercise the parallel path.
    let stored = sigma_cdw::storage::StoredTable::from_batch(batch.clone(), 512);
    assert!(stored.partitions().len() > 4);
    wh.load_table("nums", batch).unwrap();

    let sql = "SELECT COUNT(*) AS n, SUM(y) AS s FROM nums WHERE x % 3 = 0";
    let serial = q(&wh, sql);
    wh.set_parallelism(4);
    let parallel = q(&wh, sql);
    assert_eq!(serial.value(0, 0), parallel.value(0, 0));
    assert_eq!(serial.value(0, 1), parallel.value(0, 1));
}

#[test]
fn plan_is_optimized() {
    let wh = wh();
    let plan = wh
        .plan_sql("SELECT id FROM (SELECT id, carrier FROM flights) sub WHERE id > 3")
        .unwrap();
    let explain = plan.explain();
    // The filter must sit below the outer projection, adjacent to the scan.
    let filter_pos = explain.find("Filter").expect("filter present");
    let scan_pos = explain.find("Scan").expect("scan present");
    assert!(filter_pos < scan_pos, "pushdown failed:\n{explain}");
}

#[test]
fn error_isolation_dirty_cast() {
    let wh = wh();
    let b = q(&wh, "SELECT CAST(carrier AS BIGINT) AS x FROM flights");
    assert_eq!(b.column(0).null_count(), 6);
}

#[test]
fn nonexistent_table_and_column_errors() {
    let wh = wh();
    assert!(wh.execute_sql("SELECT * FROM nope").is_err());
    assert!(wh.execute_sql("SELECT nope FROM flights").is_err());
    assert!(wh
        .execute_sql("SELECT delay FROM flights GROUP BY carrier")
        .is_err());
}

#[test]
fn in_between_like() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT id FROM flights WHERE carrier IN ('AA', 'DL') AND delay BETWEEN 0 AND 30 \
         ORDER BY id",
    );
    assert_eq!(b.num_rows(), 4);
    let l = q(
        &wh,
        "SELECT id FROM flights WHERE carrier LIKE 'A%' ORDER BY id",
    );
    assert_eq!(l.num_rows(), 2);
}

#[test]
fn distinct_rows() {
    let wh = wh();
    let b = q(&wh, "SELECT DISTINCT carrier FROM flights ORDER BY carrier");
    assert_eq!(b.num_rows(), 3);
}

#[test]
fn aggregate_of_expression_and_group_expr_reuse() {
    let wh = wh();
    let b = q(
        &wh,
        "SELECT DATE_PART('month', day) AS m, SUM(delay * 2.0) AS d2 FROM flights \
         GROUP BY DATE_PART('month', day) ORDER BY m",
    );
    assert_eq!(b.num_rows(), 3);
    assert_eq!(cell(&b, 0, 0), Value::Int(1));
    assert_eq!(cell(&b, 0, 1), Value::Float(40.0)); // (5+15)*2
}
