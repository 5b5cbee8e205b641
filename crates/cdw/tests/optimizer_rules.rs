//! Direct checks on the optimizer's three rewrites, via EXPLAIN-style
//! plan inspection, and on the plan shapes the executor runs.

use std::sync::Arc;

use sigma_cdw::eval::PhysExpr;
use sigma_cdw::plan::Plan;
use sigma_cdw::Warehouse;
use sigma_value::{Batch, Column, DataType, Field, Schema};

fn wh() -> Warehouse {
    let wh = Warehouse::default();
    let schema = Arc::new(Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Int),
        Field::new("c", DataType::Text),
        Field::new("d", DataType::Float),
    ]));
    let batch = Batch::new(
        schema,
        vec![
            Column::from_ints((0..100).collect()),
            Column::from_ints((0..100).map(|i| i * 2).collect()),
            Column::from_texts((0..100).map(|i| format!("t{i}")).collect()),
            Column::from_floats((0..100).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    wh.load_table("t", batch).unwrap();
    let dim = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("label", DataType::Text),
        ])),
        vec![
            Column::from_ints((0..10).collect()),
            Column::from_texts((0..10).map(|i| format!("l{i}")).collect()),
        ],
    )
    .unwrap();
    wh.load_table("dim", dim).unwrap();
    wh
}

#[test]
fn constant_folding_inlines_literals() {
    let wh = wh();
    let plan = wh
        .plan_sql("SELECT a FROM t WHERE a > 1 + 2 * 3 AND LENGTH('abcd') = 4")
        .unwrap();
    let explain = format!("{plan:?}");
    // 1 + 2 * 3 folds to 7; LENGTH('abcd') = 4 folds to true.
    assert!(explain.contains("Int(7)"), "{explain}");
    assert!(!explain.contains("Length"), "{explain}");
}

#[test]
fn filter_pushed_below_projection_and_sort() {
    let wh = wh();
    let plan = wh
        .plan_sql("SELECT x FROM (SELECT a + 1 AS x, c FROM t ORDER BY a) s WHERE x > 10")
        .unwrap();
    let explain = plan.explain();
    let filter = explain.find("Filter").expect("filter exists");
    let sort = explain.find("Sort").expect("sort exists");
    let scan = explain.find("Scan").expect("scan exists");
    assert!(
        filter > 0 && filter < scan,
        "filter should sit near the scan:\n{explain}"
    );
    assert!(
        sort < filter,
        "filter should be pushed below the sort:\n{explain}"
    );
}

#[test]
fn filter_split_across_join_sides() {
    let wh = wh();
    let plan = wh
        .plan_sql(
            "SELECT t.a, dim.label FROM t JOIN dim ON t.a = dim.k \
             WHERE t.b > 50 AND dim.label <> 'l1'",
        )
        .unwrap();
    let explain = plan.explain();
    // Both conjuncts push into their own sides: two filters below the join.
    let join_pos = explain.find("Join").expect("join exists");
    let filters: Vec<usize> = explain.match_indices("Filter").map(|(i, _)| i).collect();
    assert_eq!(filters.len(), 2, "{explain}");
    assert!(filters.iter().all(|&f| f > join_pos), "{explain}");
}

#[test]
fn projection_pruning_narrows_scan() {
    let wh = wh();
    // Only `a` of four columns is needed.
    let plan = wh.plan_sql("SELECT a + 1 AS x FROM t").unwrap();
    fn scan_project_width(plan: &sigma_cdw::plan::Plan) -> Option<usize> {
        use sigma_cdw::plan::Plan;
        match plan {
            Plan::Project { input, exprs, .. } => {
                if matches!(**input, Plan::Scan { .. }) {
                    Some(exprs.len())
                } else {
                    scan_project_width(input)
                }
            }
            Plan::Filter { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input, .. } => scan_project_width(input),
            _ => None,
        }
    }
    // The narrow projection over the scan selects exactly 1 column.
    assert_eq!(scan_project_width(&plan), Some(1), "{}", plan.explain());
}

/// Stacked projections fold into one when either side only selects
/// columns, but not when folding would evaluate a child expression twice.
#[test]
fn stacked_projections_fold_when_one_only_selects() {
    let wh = wh();
    // A parent selection over a computed child, over the narrowing
    // selection on the scan: one Project is left.
    let plan = wh
        .plan_sql("SELECT x, y FROM (SELECT a + 1 AS x, b * 2 AS y, c FROM t) s")
        .unwrap();
    assert_eq!(plan.explain(), "Project (2 exprs)\n  Scan t\n");
    // Picking `x` twice would evaluate `a + 1` twice: the pair stays.
    let plan = wh
        .plan_sql("SELECT x AS p, x AS q FROM (SELECT a + 1 AS x FROM t) s")
        .unwrap();
    assert_eq!(
        plan.explain(),
        "Project (2 exprs)\n  Project (1 exprs)\n    Scan t\n"
    );
    let batch = wh
        .execute_sql("SELECT x AS p, x AS q FROM (SELECT a + 1 AS x FROM t) s")
        .unwrap()
        .batch;
    assert_eq!(batch.value(99, 1), sigma_value::Value::Int(100));
}

/// `t` again as four 25-row partitions, so the scan emits four parts.
fn partitioned_wh() -> Warehouse {
    let wh = wh();
    let t = wh.execute_sql("SELECT * FROM t").unwrap().batch;
    wh.load_table_partitioned("tp", t, 25).unwrap();
    wh
}

/// The executed entries whose label starts with `prefix`.
fn entries(wh: &Warehouse, sql: &str, prefix: &str) -> Vec<sigma_cdw::OpStats> {
    wh.execute_sql(sql)
        .unwrap()
        .operators
        .into_iter()
        .filter(|o| o.op.starts_with(prefix))
        .collect()
}

/// An aggregate is one plan node and one executed entry over a
/// partitioned scan: it folds each of the scan's four parts into its own
/// group table (one morsel each, uncut at one worker) and merges them.
#[test]
fn aggregate_is_one_node_over_partitioned_scan() {
    let wh = partitioned_wh();
    let sql = "SELECT c, SUM(a) AS s FROM tp GROUP BY c";
    let explain = wh.plan_sql(sql).unwrap().explain();
    assert_eq!(explain.matches("Aggregate").count(), 1, "{explain}");
    assert!(
        explain.contains("Aggregate (groups=1, aggs=1)\n"),
        "{explain}"
    );
    let aggs = entries(&wh, sql, "Aggregate");
    assert_eq!(aggs.len(), 1, "{aggs:?}");
    assert_eq!((aggs[0].morsels, aggs[0].partitions), (4, 1), "{aggs:?}");
}

/// DISTINCT is one plan node and one executed entry over a partitioned
/// scan: each part dedups, then the survivors dedup across parts.
#[test]
fn distinct_is_one_node_over_partitioned_scan() {
    let wh = partitioned_wh();
    let sql = "SELECT DISTINCT b % 7 AS r FROM tp";
    let explain = wh.plan_sql(sql).unwrap().explain();
    assert_eq!(explain.matches("Distinct").count(), 1, "{explain}");
    let result = wh.execute_sql(sql).unwrap();
    assert_eq!(result.batch.num_rows(), 7);
    let distinct: Vec<_> = result
        .operators
        .iter()
        .filter(|o| o.op == "Distinct")
        .collect();
    assert_eq!(distinct.len(), 1, "{distinct:?}");
    assert_eq!(
        (distinct[0].rows_in, distinct[0].rows_out),
        (100, 7),
        "{distinct:?}"
    );
}

/// Over an input that collapses to one batch (a LIMIT), the aggregate is
/// the same node and folds that one part.
#[test]
fn aggregate_over_collapsing_input_folds_one_part() {
    let wh = partitioned_wh();
    let sql = "SELECT SUM(x) AS s FROM (SELECT a AS x FROM tp ORDER BY a LIMIT 10) s";
    let explain = wh.plan_sql(sql).unwrap().explain();
    assert_eq!(explain.matches("Aggregate").count(), 1, "{explain}");
    let aggs = entries(&wh, sql, "Aggregate");
    assert_eq!(aggs.len(), 1, "{aggs:?}");
    assert_eq!(aggs[0].morsels, 1, "{aggs:?}");
}

/// The join emits one part per probe (left) partition, so the aggregate
/// above it folds four parts.
#[test]
fn aggregate_over_join_folds_each_probe_partition() {
    let wh = partitioned_wh();
    let sql = "SELECT dim.label, COUNT(*) AS n FROM tp JOIN dim ON tp.a = dim.k GROUP BY dim.label";
    let explain = wh.plan_sql(sql).unwrap().explain();
    assert_eq!(explain.matches("Aggregate").count(), 1, "{explain}");
    let aggs = entries(&wh, sql, "Aggregate");
    assert_eq!(aggs.len(), 1, "{aggs:?}");
    assert_eq!(aggs[0].morsels, 4, "{aggs:?}");
    assert_eq!(aggs[0].rows_out, 10, "{aggs:?}");
}

#[test]
fn left_join_right_filter_not_pushed() {
    let wh = wh();
    // For LEFT JOIN, a WHERE on the right side cannot push into the right
    // input (it would change null-extension semantics) — it must stay above.
    let plan = wh
        .plan_sql("SELECT t.a FROM t LEFT JOIN dim ON t.a = dim.k WHERE dim.label IS NULL")
        .unwrap();
    let explain = plan.explain();
    let join_pos = explain.find("Join").expect("join");
    let filter_pos = explain.find("Filter").expect("filter");
    assert!(
        filter_pos < join_pos,
        "filter must stay above the join:\n{explain}"
    );
    // And the semantics hold: rows 10..99 have no dim match.
    let rows = wh
        .execute_sql(
            "SELECT COUNT(*) AS n FROM t LEFT JOIN dim ON t.a = dim.k WHERE dim.label IS NULL",
        )
        .unwrap()
        .batch;
    assert_eq!(rows.value(0, 0), sigma_value::Value::Int(90));
}

/// Pipeline decomposition is derived purely from plan shape: streaming
/// Filter/Project chains fuse into one pipeline line, breakers (sort,
/// join build) start new ones, and an aggregate is the sink of the fused
/// pipeline feeding it.
#[test]
fn explain_pipelines_shows_fused_chains_and_breakers() {
    let wh = wh();
    let agg = wh
        .explain_pipelines("SELECT c, SUM(b) AS s FROM t WHERE a > 10 GROUP BY c ORDER BY s")
        .unwrap();
    // Granularity annotations: sort takes whole partitions, the fused
    // aggregate runs morsel-driven.
    assert!(agg.contains("break: Sort (1 keys) [partition]"), "{agg}");
    // The scan-side chain fuses scan, filter, and projections into one
    // pipeline that sinks into the aggregate, the aggregate's one line.
    assert_eq!(agg.matches("Aggregate").count(), 2, "{agg}");
    assert!(
        agg.contains("pipeline: Scan t => ")
            && agg.contains("=> Filter => ")
            && agg.contains("=> Aggregate (groups=1, aggs=1) [sink] [morsel]\n"),
        "{agg}"
    );
    // Above it, the projection of the aggregate's output.
    assert!(
        agg.contains("pipeline: Aggregate (groups=1, aggs=1) => Project (2 exprs) [partition]"),
        "{agg}"
    );
    assert!(agg.contains("source: Scan t"), "{agg}");

    let join = wh
        .explain_pipelines("SELECT t.a, dim.label FROM t JOIN dim ON t.b = dim.k WHERE t.a < 50")
        .unwrap();
    assert!(
        join.contains("break: Join Inner (1 keys) [build: right, probe: left]"),
        "{join}"
    );
    // Probe side keeps its own streaming pipeline; build side is a bare
    // source.
    assert!(join.contains("pipeline: Scan t => Filter"), "{join}");
    assert!(join.contains("source: Scan dim"), "{join}");
    assert!(
        join.contains("[build: right, probe: left] [partition]"),
        "{join}"
    );
    // A chain that filters is cut into morsels; the column selection
    // above the join has no work to share and runs on whole partitions.
    assert!(
        join.contains("pipeline: Scan t => Filter [morsel]"),
        "{join}"
    );
    assert!(
        join.contains("pipeline: Join Inner (1 keys) => Project (2 exprs) [partition]\n"),
        "{join}"
    );

    // The column selection `narrow` puts over a LEFT join folds into the
    // projection above it: one Project, not a pair.
    let left = wh
        .explain_pipelines("SELECT t.b, t.d, dim.label FROM t LEFT JOIN dim ON t.a = dim.k")
        .unwrap();
    assert_eq!(
        left.matches("Join Left (1 keys) => Project (3 exprs)")
            .count(),
        1,
        "{left}"
    );
    assert_eq!(left.matches("Project").count(), 1, "{left}");

    // Window work items take the morsel height; LIMIT still collapses
    // partition-granular.
    let win = wh
        .explain_pipelines("SELECT a, SUM(b) OVER (PARTITION BY c) AS r FROM t LIMIT 5")
        .unwrap();
    assert!(
        win.contains("break: Limit Some(5) offset 0 [partition]"),
        "{win}"
    );
    assert!(win.contains("break: Window (1 calls) [morsel]"), "{win}");
    assert!(
        win.contains("pipeline: Window (1 calls) => Project (2 exprs) [partition]\n"),
        "{win}"
    );
}

/// `OpStats::op` is `Plan::label`: executed operators with their depths
/// read exactly as the optimized plan's EXPLAIN lines. The executor runs
/// (and records) a join's build side before its probe side, so both lists
/// are compared sorted.
#[test]
fn operator_stats_match_explain_lines() {
    let wh = wh();
    for q in [
        "SELECT a FROM t ORDER BY a LIMIT 2",
        "SELECT dim.label, SUM(t.b) AS s FROM t JOIN dim ON t.a = dim.k \
         GROUP BY dim.label ORDER BY dim.label LIMIT 3 OFFSET 1",
        "SELECT 1 AS x",
    ] {
        let mut ran: Vec<(usize, String)> = wh
            .execute_sql(q)
            .unwrap()
            .operators
            .into_iter()
            .map(|o| (o.depth, o.op))
            .collect();
        let explain = wh.plan_sql(q).unwrap().explain();
        let mut planned: Vec<(usize, String)> = explain
            .lines()
            .map(|l| {
                let text = l.trim_start();
                ((l.len() - text.len()) / 2, text.to_string())
            })
            .collect();
        ran.sort();
        planned.sort();
        assert_eq!(ran, planned, "{q}\n{explain}");
    }
}

/// Constant folding reaches every expression slot a node holds: a
/// column-free `1 + 1` planted in each kind of slot must be gone from the
/// optimized plan.
#[test]
fn constant_folding_reaches_every_expression_slot() {
    let plan = wh()
        .plan_sql(
            "SELECT g, s + (1 + 1) AS p, \
             SUM(s * (1 + 1)) OVER (PARTITION BY g + (1 + 1) ORDER BY s - (1 + 1)) AS w \
             FROM (SELECT t.a % (1 + 1) AS g, SUM(t.b + (1 + 1)) AS s \
                   FROM t JOIN dim ON t.a + (1 + 1) = dim.k AND t.b > dim.k + (1 + 1) \
                   WHERE t.d > 1 + 1 GROUP BY t.a % (1 + 1)) x \
             ORDER BY g * (1 + 1)",
        )
        .unwrap();
    fn unfolded(e: &PhysExpr) -> bool {
        let mut cols = Vec::new();
        e.columns_used(&mut cols);
        let mut found = cols.is_empty() && !matches!(e, PhysExpr::Literal(_));
        e.for_each_child(&mut |c| found |= unfolded(c));
        found
    }
    fn check(plan: &Plan, slots: &mut usize) {
        plan.clone().for_each_expr_mut(&mut |e| {
            *slots += 1;
            assert!(!unfolded(e), "unfolded {e:?} in {}", plan.label());
        });
        plan.inputs().into_iter().for_each(|p| check(p, slots));
    }
    let mut slots = 0;
    check(&plan, &mut slots);
    assert!(slots >= 10, "{}", plan.explain());
    // Independent of the visitors: no `1 + 1` survives anywhere.
    let debug = format!("{plan:?}");
    assert!(
        !debug.contains("left: Literal(Int(1)), right: Literal(Int(1))"),
        "{debug}"
    );
    assert!(debug.matches("Literal(Int(2))").count() >= 10, "{debug}");
}
