//! The **edit-session bench**: replay a scripted interactive session
//! (load → add column → change filter → pivot/regroup) through the full
//! service path and record, per step, end-to-end latency and warehouse
//! *table* rows scanned — with stage caching on vs. off.
//!
//! With stage caching on, each edit should re-execute only the stages
//! downstream of the change; the untouched prefix (in particular the raw
//! source scan) is re-served from CDW-persisted results via `RESULT_SCAN`,
//! so the rows-scanned column collapses to ~0 on every edit step.
//!
//! Results are written to `BENCH_<date>_edit_session.json` at the repo
//! root (override the path with `EDIT_SESSION_BENCH_OUT`). Run with:
//!
//! ```text
//! cargo bench -p sigma-bench --bench edit_session
//! ```

use std::sync::Arc;
use std::time::Instant;

use sigma_cdw::Warehouse;
use sigma_core::document::ElementKind;
use sigma_core::table::{ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec};
use sigma_core::Workbook;
use sigma_service::workload::Priority;
use sigma_service::{QueryOutcome, QueryRequest, SigmaService};
use sigma_value::Value;
use sigma_workbook::demo::demo_warehouse;

const ROWS: usize = 50_000;
const ITERS: usize = 5;

fn setup() -> (Arc<SigmaService>, String) {
    let wh: Arc<Warehouse> = demo_warehouse(ROWS);
    let service = SigmaService::new();
    let org = service.tenancy.create_org("bench");
    let user = service
        .tenancy
        .create_user(org, "analyst", sigma_service::tenancy::Role::Creator)
        .expect("org exists");
    let token = service.tenancy.issue_token(user).expect("user exists");
    service.add_connection(org, "primary", wh);
    (Arc::new(service), token)
}

/// One workbook state per interactive gesture (mirrors
/// `crates/service/tests/stage_cache.rs` so the bench and the equivalence
/// test replay the same script).
fn steps() -> Vec<(&'static str, Workbook)> {
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
    let with_avg = |mut t: TableSpec| {
        t.add_column(ColumnDef::formula("Avg Delay", "Avg([Dep Delay])", 1))
            .unwrap();
        t
    };
    let with_filter = |mut t: TableSpec| {
        t.filters.push(FilterSpec {
            column: "Dep Delay".into(),
            predicate: FilterPredicate::Range {
                min: Some(Value::Float(10.0)),
                max: None,
            },
        });
        t
    };
    let wrap = |t: TableSpec| {
        let mut wb = Workbook::new(Some("session"));
        wb.add_element(0, "Delays", ElementKind::Table(t)).unwrap();
        wb
    };
    vec![
        ("load", wrap(base(vec!["Carrier".into()]))),
        ("add_column", wrap(with_avg(base(vec!["Carrier".into()])))),
        (
            "change_filter",
            wrap(with_filter(with_avg(base(vec!["Carrier".into()])))),
        ),
        (
            "pivot",
            wrap(with_filter(with_avg(base(vec!["Origin".into()])))),
        ),
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

#[derive(Clone, Copy, Default)]
struct StepRecord {
    ms: f64,
    rows_scanned: usize,
    stage_hits: usize,
    stages_executed: usize,
}

/// Replay the whole session on a fresh service; per-step latency is the
/// median over `ITERS` fresh replays (state resets each iteration so every
/// replay exercises the same cold-start + four-edits trajectory).
fn replay(caching: bool) -> Vec<(&'static str, StepRecord)> {
    let script = steps();
    let mut records: Vec<Vec<StepRecord>> = vec![Vec::new(); script.len()];
    for _ in 0..ITERS {
        let (service, token) = setup();
        service.set_stage_caching(caching);
        for (i, (_, wb)) in script.iter().enumerate() {
            let started = Instant::now();
            let out = run(&service, &token, wb);
            let elapsed = started.elapsed();
            records[i].push(StepRecord {
                ms: elapsed.as_secs_f64() * 1e3,
                rows_scanned: out.rows_scanned,
                stage_hits: out.stage_hits,
                stages_executed: out.stages_executed,
            });
        }
    }
    script
        .iter()
        .zip(records)
        .map(|((name, _), mut rs)| {
            rs.sort_by(|a, b| a.ms.total_cmp(&b.ms));
            (*name, rs[rs.len() / 2])
        })
        .collect()
}

fn main() {
    // `cargo bench` passes filter args; this harness always runs fully.
    let on = replay(true);
    let off = replay(false);

    let mut rows = String::new();
    println!("edit_session bench ({ROWS} rows, median of {ITERS} replays)");
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>12} {:>6} {:>7}",
        "step", "on ms", "on rows", "off ms", "off rows", "hits", "stages"
    );
    for ((name, a), (_, b)) in on.iter().zip(&off) {
        println!(
            "{:<14} {:>10.2} {:>12} {:>10.2} {:>12} {:>6} {:>7}",
            name, a.ms, a.rows_scanned, b.ms, b.rows_scanned, a.stage_hits, a.stages_executed
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"step\": \"{name}\", \
             \"caching_on\": {{ \"ms\": {:.3}, \"rows_scanned\": {}, \
             \"stage_hits\": {}, \"stages_executed\": {} }}, \
             \"caching_off\": {{ \"ms\": {:.3}, \"rows_scanned\": {} }} }}",
            a.ms, a.rows_scanned, a.stage_hits, a.stages_executed, b.ms, b.rows_scanned
        ));
    }

    // The bench doubles as a regression gate for the caching contract:
    // every edit step must land at least one stage-level directory hit and
    // scan strictly fewer warehouse rows than the caching-off baseline.
    for ((name, a), (_, b)) in on.iter().skip(1).zip(off.iter().skip(1)) {
        assert!(a.stage_hits >= 1, "step {name}: no stage-level reuse");
        assert!(
            a.rows_scanned < b.rows_scanned,
            "step {name}: rows scanned did not drop ({} vs {})",
            a.rows_scanned,
            b.rows_scanned
        );
    }

    let date = sigma_bench::today();
    let json = format!(
        "{{\n  \"recorded\": \"{date}\",\n  \"note\": \"Scripted interactive session \
         (load -> add column -> change filter -> pivot/regroup) through the full service path \
         over {ROWS} synthetic flights rows; median of {ITERS} fresh replays per configuration. \
         caching_on = stage-level query directory (per-CTE fingerprints, RESULT_SCAN prefix \
         reuse); caching_off = one flattened query per request. rows_scanned counts warehouse \
         TABLE rows only; RESULT_SCAN re-serves of persisted results are free. Regenerate with: \
         cargo bench -p sigma-bench --bench edit_session.\",\n  \"rows\": {ROWS},\n  \
         \"iters\": {ITERS},\n  \"steps\": [\n{rows}\n  ]\n}}\n"
    );
    sigma_bench::write_record("edit_session", "EDIT_SESSION_BENCH_OUT", &json);
}
