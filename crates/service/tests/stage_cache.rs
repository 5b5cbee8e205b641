//! Stage-level caching: cross-edit prefix reuse over the scripted
//! interactive session (load → add column → change filter → regroup), plus
//! the equivalence guarantee that results served through `RESULT_SCAN`
//! stage reuse are bit-identical to a cold full recompilation.

use std::sync::Arc;

use sigma_cdw::{Warehouse, WarehouseConfig};
use sigma_core::document::ElementKind;
use sigma_core::table::{ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec};
use sigma_core::Workbook;
use sigma_flights::{load_flights, FlightsConfig};
use sigma_service::workload::Priority;
use sigma_service::{QueryOutcome, QueryRequest, ServedFrom, SigmaService};
use sigma_value::Value;

fn setup(rows: usize) -> (SigmaService, Arc<Warehouse>, String) {
    setup_on(rows, Warehouse::default())
}

fn setup_on(rows: usize, warehouse: Warehouse) -> (SigmaService, Arc<Warehouse>, String) {
    let service = SigmaService::new();
    let org = service.tenancy.create_org("acme");
    let user = service
        .tenancy
        .create_user(org, "ada", sigma_service::tenancy::Role::Creator)
        .unwrap();
    let token = service.tenancy.issue_token(user).unwrap();
    let wh = Arc::new(warehouse);
    load_flights(&wh, &FlightsConfig::with_rows(rows)).unwrap();
    service.add_connection(org, "primary", wh.clone());
    (service, wh, token)
}

/// The scripted edit session: each step is one workbook state, derived
/// from the previous by a single interactive gesture.
fn edit_session_steps() -> Vec<(&'static str, Workbook)> {
    let base = |keys: Vec<String>| {
        let mut t = TableSpec::new(DataSource::WarehouseTable {
            table: "flights".into(),
        });
        t.add_column(ColumnDef::source("Carrier", "carrier"))
            .unwrap();
        t.add_column(ColumnDef::source("Origin", "origin")).unwrap();
        t.add_column(ColumnDef::source("Dep Delay", "dep_delay"))
            .unwrap();
        t.add_level(1, Level::keyed("Grouped", keys)).unwrap();
        t.add_column(ColumnDef::formula("Flights", "Count()", 1))
            .unwrap();
        t.detail_level = 1;
        t
    };
    let wrap = |t: TableSpec| {
        let mut wb = Workbook::new(Some("session"));
        wb.add_element(0, "Delays", ElementKind::Table(t)).unwrap();
        wb
    };

    // 1. load: group by carrier, count flights.
    let load = base(vec!["Carrier".into()]);

    // 2. add column: a new aggregate at the grouped level.
    let mut add_column = base(vec!["Carrier".into()]);
    add_column
        .add_column(ColumnDef::formula("Avg Delay", "Avg([Dep Delay])", 1))
        .unwrap();

    // 3. change filter: keep the new column, filter the base rows.
    let mut change_filter = base(vec!["Carrier".into()]);
    change_filter
        .add_column(ColumnDef::formula("Avg Delay", "Avg([Dep Delay])", 1))
        .unwrap();
    change_filter.filters.push(FilterSpec {
        column: "Dep Delay".into(),
        predicate: FilterPredicate::Range {
            min: Some(Value::Float(10.0)),
            max: None,
        },
    });

    // 4. pivot: regroup the same (filtered) data by origin instead.
    let mut pivot = base(vec!["Origin".into()]);
    pivot
        .add_column(ColumnDef::formula("Avg Delay", "Avg([Dep Delay])", 1))
        .unwrap();
    pivot.filters.push(FilterSpec {
        column: "Dep Delay".into(),
        predicate: FilterPredicate::Range {
            min: Some(Value::Float(10.0)),
            max: None,
        },
    });

    vec![
        ("load", wrap(load)),
        ("add_column", wrap(add_column)),
        ("change_filter", wrap(change_filter)),
        ("pivot", wrap(pivot)),
    ]
}

fn run(service: &SigmaService, token: &str, wb: &Workbook) -> QueryOutcome {
    let json = wb.to_json().unwrap();
    service
        .run_query(&QueryRequest {
            token,
            connection: "primary",
            workbook_json: &json,
            element: "Delays",
            priority: Priority::Interactive,
        })
        .unwrap()
}

#[test]
fn every_edit_step_reuses_a_cached_prefix() {
    let (service, _wh, token) = setup(2_000);
    let steps = edit_session_steps();

    let first = run(&service, &token, &steps[0].1);
    assert_eq!(first.served_from, ServedFrom::Warehouse);
    assert!(first.stages_executed >= 3, "pipeline executes per stage");

    for (name, wb) in &steps[1..] {
        let before = service.directory_stats("primary").unwrap();
        let out = run(&service, &token, wb);
        let after = service.directory_stats("primary").unwrap();
        assert_eq!(
            out.served_from,
            ServedFrom::StageReuse,
            "step {name} should reuse a prefix"
        );
        assert!(out.stage_hits >= 1, "step {name}: no stage-level hit");
        assert!(
            after.stage_hits > before.stage_hits,
            "step {name}: directory stats must show the stage hit"
        );
        // The reused prefix includes the source scan: the edit re-executes
        // only downstream stages, which read persisted results, so no
        // warehouse table rows are re-scanned at all.
        assert_eq!(
            out.rows_scanned, 0,
            "step {name} re-scanned the warehouse despite a cached prefix"
        );
    }
}

#[test]
fn stage_reuse_is_bit_identical_to_cold_recompilation() {
    // Warm service: stage caching on, edits reuse prefixes.
    let (warm, _wh1, warm_token) = setup(2_000);
    // Cold service: stage caching off, every step recompiles and re-runs
    // the full flattened query on an independent warehouse.
    let (cold, _wh2, cold_token) = setup(2_000);
    cold.set_stage_caching(false);

    for (name, wb) in &edit_session_steps() {
        let warm_out = run(&warm, &warm_token, wb);
        let cold_out = run(&cold, &cold_token, wb);
        assert_eq!(
            warm_out.batch, cold_out.batch,
            "step {name}: stage-reused result differs from cold recompilation"
        );
        assert_eq!(cold_out.stage_hits, 0);
        assert_eq!(cold_out.stages_executed, 1);
    }
}

#[test]
fn repeat_query_still_hits_the_whole_query_directory() {
    let (service, wh, token) = setup(2_000);
    let steps = edit_session_steps();
    run(&service, &token, &steps[0].1);
    let executed = wh.queries_executed();
    let again = run(&service, &token, &steps[0].1);
    assert_eq!(again.served_from, ServedFrom::QueryDirectory);
    assert_eq!(wh.queries_executed(), executed, "no warehouse round trip");
}

#[test]
fn upload_to_unrelated_table_keeps_cached_stages() {
    let (service, _wh, token) = setup(2_000);
    let steps = edit_session_steps();
    run(&service, &token, &steps[0].1);

    // An upload into a table the query never reads must not flush it.
    service
        .upload_csv(&token, "primary", "notes", "id,note\n1,hello\n")
        .unwrap();
    let again = run(&service, &token, &steps[0].1);
    assert_eq!(again.served_from, ServedFrom::QueryDirectory);

    // An upload into the table it *does* read must invalidate precisely.
    service
        .upload_csv(
            &token,
            "primary",
            "flights",
            "carrier,origin,dep_delay\nZZ,AAA,5.0\n",
        )
        .unwrap();
    let refreshed = run(&service, &token, &steps[0].1);
    assert_eq!(refreshed.served_from, ServedFrom::Warehouse);
    assert_eq!(refreshed.batch.num_rows(), 1, "reads the replaced table");
}

/// A small result store: every warehouse query persists a result, so
/// stage results fall out of `RESULT_SCAN` reach within one request.
fn setup_evicting(
    rows: usize,
    max_persisted_results: usize,
) -> (SigmaService, Arc<Warehouse>, String) {
    setup_on(
        rows,
        Warehouse::new(WarehouseConfig {
            max_persisted_results,
            ..Default::default()
        }),
    )
}

/// The element from a cold service with stage caching off: one flattened
/// query.
fn cold_run(wb: &Workbook) -> QueryOutcome {
    let (cold, _wh, token) = setup(2_000);
    cold.set_stage_caching(false);
    run(&cold, &token, wb)
}

/// Two states of one element over `flights`, both showing detail rows:
/// the plain rows (`source → base_0 → sink`), then grouped by carrier
/// and origin under a per-origin level, whose sink joins `base_0` back
/// to both levels (`base_0 → lvl1_0 → lvl2_0`, sink reads all three).
fn detail_states() -> (Workbook, Workbook) {
    let mut t = TableSpec::new(DataSource::WarehouseTable {
        table: "flights".into(),
    });
    t.add_column(ColumnDef::source("Carrier", "carrier"))
        .unwrap();
    t.add_column(ColumnDef::source("Origin", "origin")).unwrap();
    t.add_column(ColumnDef::source("Dep Delay", "dep_delay"))
        .unwrap();
    let plain = t.clone();
    t.add_level(1, Level::keyed("Grouped", vec!["Carrier".into()]))
        .unwrap();
    t.add_column(ColumnDef::formula("Flights", "Count()", 1))
        .unwrap();
    t.add_level(2, Level::keyed("Top", vec!["Origin".into()]))
        .unwrap();
    t.add_column(ColumnDef::formula("Top Flights", "Count()", 2))
        .unwrap();
    let wrap = |t: TableSpec| {
        let mut wb = Workbook::new(Some("session"));
        wb.add_element(0, "Delays", ElementKind::Table(t)).unwrap();
        wb
    };
    (wrap(plain), wrap(t))
}

#[test]
fn stale_stage_pointer_is_invalidated_and_re_executed() {
    let (service, _wh, token) = setup_evicting(2_000, 2);
    let steps = edit_session_steps();
    run(&service, &token, &steps[0].1);
    // Two persisted results survive the load: its lvl1_0 stage and its
    // answer. The directory still points at source and base_0, whose
    // results are gone.
    let before = service.directory_stats("primary").unwrap();
    let out = run(&service, &token, &steps[1].1);
    let after = service.directory_stats("primary").unwrap();
    // The walk drops both stale pointers and re-executes every stage
    // instead of failing on a dead RESULT_SCAN and falling back.
    assert_eq!(out.served_from, ServedFrom::Warehouse);
    assert_eq!((out.stage_hits, out.stages_executed), (0, 4));
    assert_eq!(out.rows_scanned, 2_000, "the source scan re-ran");
    assert_eq!(after.stage_hits, before.stage_hits);
    assert_eq!(after.stage_misses, before.stage_misses + 3);
    assert_eq!(out.batch, cold_run(&steps[1].1).batch);
}

#[test]
fn reused_input_evicted_mid_suffix_falls_back_to_the_flattened_query() {
    let (service, _wh, token) = setup_evicting(2_000, 2);
    let (plain, grouped) = detail_states();
    let first = run(&service, &token, &plain);
    assert_eq!(first.stages_executed, 3);
    // Shipping base_0 back with the answer promoted its result, so it
    // is still live for the next edit's walk...
    let before = service.directory_stats("primary").unwrap();
    let out = run(&service, &token, &grouped);
    let after = service.directory_stats("primary").unwrap();
    // ...which reuses it, but lvl1_0 and lvl2_0 each persist a result
    // before the sink reads base_0 again, and the second evicts it. The
    // request answers from one flattened query, and the walk's tentative
    // reuse is never counted.
    assert_eq!(out.served_from, ServedFrom::Warehouse);
    assert_eq!((out.stage_hits, out.stages_executed), (0, 1));
    assert_eq!(after.stage_hits, before.stage_hits);
    assert_eq!(after.stage_misses, before.stage_misses);
    let cold = cold_run(&grouped);
    assert_eq!(out.rows_scanned, cold.rows_scanned);
    assert_eq!(out.batch, cold.batch);
}

#[test]
fn evicted_root_result_re_runs_the_whole_query() {
    let (service, wh, token) = setup_evicting(2_000, 2);
    let steps = edit_session_steps();
    run(&service, &token, &steps[0].1);
    // Other traffic on the warehouse pushes the answer out of the store;
    // the directory still points at it.
    for _ in 0..2 {
        wh.execute_sql("SELECT carrier FROM flights").unwrap();
    }
    let out = run(&service, &token, &steps[0].1);
    assert_eq!(out.served_from, ServedFrom::Warehouse);
    assert_eq!((out.stage_hits, out.stages_executed), (0, 1));
    let cold = cold_run(&steps[0].1);
    assert_eq!(out.rows_scanned, cold.rows_scanned);
    assert_eq!(out.batch, cold.batch);
    // The re-run's result is re-registered under the root key.
    let again = run(&service, &token, &steps[0].1);
    assert_eq!(again.served_from, ServedFrom::QueryDirectory);
    assert_eq!(again.query_id, out.query_id);
}
