//! Property-based tests over the core invariants.

use proptest::prelude::*;
use sigma_workbook::cdw::Warehouse;
use sigma_workbook::expr::{parse_formula, Formula};
use sigma_workbook::sql::{parse_query, printer::print_query, Dialect};
use sigma_workbook::value::{calendar, Batch, Column, DataType, Field, Schema, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// calendar
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn calendar_civil_bijection(days in -1_000_000i32..1_000_000) {
        let (y, m, d) = calendar::civil_from_days(days);
        prop_assert_eq!(calendar::days_from_civil(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!(d >= 1 && d <= calendar::last_day_of_month(y, m));
    }

    #[test]
    fn calendar_format_parse_round_trip(days in -500_000i32..500_000) {
        let text = calendar::format_date(days);
        prop_assert_eq!(calendar::parse_date(&text), Some(days));
    }

    #[test]
    fn date_add_diff_consistent(days in -100_000i32..100_000, n in -500i64..500) {
        let added = calendar::date_add(days, calendar::DateUnit::Month, n);
        let diff = calendar::date_diff(days, added, calendar::DateUnit::Month);
        // Clamping can shorten but never overshoot.
        prop_assert!((diff - n).abs() <= 1, "add {n} months -> diff {diff}");
        prop_assert_eq!(calendar::date_add(days, calendar::DateUnit::Day, n as i64), days + n as i32);
    }
}

// ---------------------------------------------------------------------
// formula language: print . parse == identity
// ---------------------------------------------------------------------

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Formula::lit),
        (-100.0f64..100.0).prop_map(|f| Formula::lit((f * 4.0).round() / 4.0)),
        "[a-z][a-z0-9_]{0,6}".prop_map(Formula::col),
        "[A-Za-z ]{1,12}"
            .prop_filter("trimmed non-empty, no brackets", |s| {
                let t = s.trim();
                !t.is_empty() && !t.contains(['[', ']', '/'])
            })
            .prop_map(|s| Formula::col(s.trim().to_string())),
        Just(Formula::Literal(Value::Null)),
        Just(Formula::lit(true)),
        any::<bool>().prop_map(|_| Formula::lit("text \"quoted\"")),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Formula::binary(
                sigma_workbook::expr::BinaryOp::Add,
                l,
                r
            )),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Formula::binary(
                sigma_workbook::expr::BinaryOp::Mul,
                l,
                r
            )),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Formula::binary(
                sigma_workbook::expr::BinaryOp::Lt,
                l,
                r
            )),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Formula::binary(
                sigma_workbook::expr::BinaryOp::Pow,
                l,
                r
            )),
            inner.clone().prop_map(|e| Formula::call("Abs", vec![e])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::call("Coalesce", vec![a, b])),
            inner.clone().prop_map(|e| Formula::call("Sum", vec![e])),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(a, b, c)| { Formula::call("If", vec![a, b, c]) }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn formula_print_parse_round_trip(f in arb_formula()) {
        let printed = f.to_string();
        let reparsed = parse_formula(&printed)
            .unwrap_or_else(|e| panic!("reparse failed for {printed:?}: {e}"));
        prop_assert_eq!(reparsed, f, "round trip failed for {}", printed);
    }
}

// ---------------------------------------------------------------------
// SQL printer/parser round trip (via random formula lowering is covered in
// unit tests; here: parse(print(parse(sql))) == parse(sql) over generated
// SELECTs)
// ---------------------------------------------------------------------

fn arb_select_sql() -> impl Strategy<Value = String> {
    let col = prop_oneof![Just("a"), Just("b"), Just("c")];
    (col, 0i64..100, any::<bool>(), any::<bool>()).prop_map(|(c, n, grouped, ordered)| {
        let mut sql = if grouped {
            format!("SELECT {c}, COUNT(*) AS n, SUM(b) AS s FROM t WHERE a > {n} GROUP BY {c}")
        } else {
            format!("SELECT {c}, a + b * 2 AS e FROM t WHERE a > {n} AND b IS NOT NULL")
        };
        if ordered {
            sql.push_str(&format!(" ORDER BY {c} DESC NULLS LAST LIMIT 10"));
        }
        sql
    })
}

proptest! {
    #[test]
    fn sql_round_trip(sql in arb_select_sql()) {
        let q1 = parse_query(&sql).unwrap();
        let printed = print_query(&q1, &Dialect::generic());
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("reparse failed:\n{printed}\n{e}"));
        prop_assert_eq!(q1, q2);
    }
}

// ---------------------------------------------------------------------
// engine: group-by against a BTreeMap oracle
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn group_by_matches_oracle(
        rows in proptest::collection::vec((0i64..8, proptest::option::of(-100i64..100)), 0..200)
    ) {
        let wh = Warehouse::default();
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                Column::from_ints(rows.iter().map(|(k, _)| *k).collect()),
                Column::from_opt_ints(rows.iter().map(|(_, v)| *v).collect()),
            ],
        ).unwrap();
        wh.load_table("t", batch).unwrap();
        let got = wh
            .execute_sql("SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM t GROUP BY k ORDER BY k")
            .unwrap()
            .batch;

        // Oracle.
        let mut oracle: BTreeMap<i64, (i64, Option<i64>, Option<i64>)> = BTreeMap::new();
        for (k, v) in &rows {
            let e = oracle.entry(*k).or_insert((0, None, None));
            e.0 += 1;
            if let Some(v) = v {
                e.1 = Some(e.1.unwrap_or(0) + v);
                e.2 = Some(e.2.map_or(*v, |lo: i64| lo.min(*v)));
            }
        }
        prop_assert_eq!(got.num_rows(), oracle.len());
        for (i, (k, (n, s, lo))) in oracle.into_iter().enumerate() {
            prop_assert_eq!(got.value(i, 0), Value::Int(k));
            prop_assert_eq!(got.value(i, 1), Value::Int(n));
            prop_assert_eq!(got.value(i, 2), s.map(Value::Int).unwrap_or(Value::Null));
            prop_assert_eq!(got.value(i, 3), lo.map(Value::Int).unwrap_or(Value::Null));
        }
    }

    #[test]
    fn running_sum_matches_oracle(
        values in proptest::collection::vec(proptest::option::of(-50i64..50), 1..100)
    ) {
        let wh = Warehouse::default();
        let schema = Arc::new(Schema::new(vec![
            Field::new("pos", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                Column::from_ints((0..values.len() as i64).collect()),
                Column::from_opt_ints(values.clone()),
            ],
        ).unwrap();
        wh.load_table("t", batch).unwrap();
        let got = wh
            .execute_sql("SELECT pos, SUM(v) OVER (ORDER BY pos) AS rs FROM t ORDER BY pos")
            .unwrap()
            .batch;
        let mut acc: Option<i64> = None;
        for (i, v) in values.iter().enumerate() {
            if let Some(v) = v {
                acc = Some(acc.unwrap_or(0) + v);
            }
            let expected = acc.map(Value::Int).unwrap_or(Value::Null);
            prop_assert_eq!(got.value(i, 1), expected, "at row {}", i);
        }
    }

    #[test]
    fn filter_pushdown_preserves_results(
        rows in proptest::collection::vec((0i64..20, -50i64..50), 0..150),
        threshold in -50i64..50
    ) {
        // The same query through the optimizer (plan_sql is optimized) must
        // match a pre-filtered oracle.
        let wh = Warehouse::default();
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                Column::from_ints(rows.iter().map(|(k, _)| *k).collect()),
                Column::from_ints(rows.iter().map(|(_, v)| *v).collect()),
            ],
        ).unwrap();
        wh.load_table("t", batch).unwrap();
        let sql = format!(
            "SELECT k, n FROM (SELECT k, COUNT(*) AS n FROM t WHERE v > {threshold} GROUP BY k) s \
             WHERE k > 5 ORDER BY k"
        );
        let got = wh.execute_sql(&sql).unwrap().batch;
        let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
        for (k, v) in &rows {
            if *v > threshold && *k > 5 {
                *oracle.entry(*k).or_default() += 1;
            }
        }
        prop_assert_eq!(got.num_rows(), oracle.len());
        for (i, (k, n)) in oracle.into_iter().enumerate() {
            prop_assert_eq!(got.value(i, 0), Value::Int(k));
            prop_assert_eq!(got.value(i, 1), Value::Int(n));
        }
    }
}

// ---------------------------------------------------------------------
// local engine ≡ warehouse on the same data + query
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn local_engine_matches_warehouse(
        rows in proptest::collection::vec((0i64..5, 0i64..100), 1..80)
    ) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                Column::from_ints(rows.iter().map(|(k, _)| *k).collect()),
                Column::from_ints(rows.iter().map(|(_, v)| *v).collect()),
            ],
        ).unwrap();
        let wh = Warehouse::default();
        wh.load_table("dim", batch.clone()).unwrap();
        let local = sigma_workbook::browser::LocalEngine::new();
        local.install_table("dim", batch).unwrap();
        let sql = "SELECT k, SUM(v) AS s, AVG(v) AS a FROM dim GROUP BY k ORDER BY k";
        let remote = wh.execute_sql(sql).unwrap().batch;
        let plan = sigma_workbook::core::StagePlan::from_query(
            &parse_query(sql).unwrap(),
            &Dialect::generic(),
        );
        let local_result = local.execute_plan(&plan).unwrap().expect("dim is installed");
        prop_assert_eq!(remote, local_result.batch);
        prop_assert_eq!(
            (local_result.stage_hits, local_result.kernel_stages, local_result.engine_stages),
            (0, 0, 1)
        );
    }
}
