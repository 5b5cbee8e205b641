//! The **local-eval bench**: replay a scripted edit session through one
//! browser tab and record, per edit step, the latency of the incremental
//! local path (stage-cache reuse + the embedded engine over cached stage
//! results) against a service round trip for the same state by a fresh
//! tab, under a simulated network RTT.
//!
//! After the initial load ships the stage DAG, interior stage results and
//! table schemas, every subsequent edit should be served from a local
//! tier: the filter tweak and formula column as **LocalDelta** (a
//! filter/project/sort chain the embedded engine runs over cached stage
//! results — zero warehouse queries), the regroup through
//! **residual-suffix execution** (only the invalidated suffix recomputes,
//! locally).
//!
//! Results are written to `BENCH_<date>_local_eval.json` at the repo root
//! (override the path with `LOCAL_EVAL_BENCH_OUT`). Run with:
//!
//! ```text
//! cargo bench -p sigma-bench --bench local_eval
//! ```

use std::time::{Duration, Instant};

use sigma_bench::Env;
use sigma_browser::{BrowserSession, Source};
use sigma_core::document::ElementKind;
use sigma_core::table::{ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec};
use sigma_core::Workbook;
use sigma_value::Value;

const ROWS: usize = 50_000;
const ITERS: usize = 5;
const RTT_MS: u64 = 25;

/// One workbook state per interactive gesture: load a filtered detail
/// table, tweak the filter threshold, add a formula column, then group.
/// The filter tweak re-runs one kernel filter pass over the cached base
/// projection; the formula column is one kernel projection pass over the
/// cached source — both the paper's A3 delta shapes. Grouping needs the
/// embedded engine for the aggregation, but still only for the residual
/// suffix (the source scan is served from the stage cache).
fn steps() -> Vec<(&'static str, Workbook)> {
    let base = |min: f64| {
        let mut t = TableSpec::new(DataSource::WarehouseTable {
            table: "flights".into(),
        });
        t.add_column(ColumnDef::source("Carrier", "carrier"))
            .unwrap();
        t.add_column(ColumnDef::source("Origin", "origin")).unwrap();
        t.add_column(ColumnDef::source("Dep Delay", "dep_delay"))
            .unwrap();
        t.filters.push(FilterSpec {
            column: "Dep Delay".into(),
            predicate: FilterPredicate::Range {
                min: Some(Value::Float(min)),
                max: None,
            },
        });
        t
    };
    let with_hours = |mut t: TableSpec| {
        t.add_column(ColumnDef::formula("Delay Hours", "[Dep Delay] / 60", 0))
            .unwrap();
        t
    };
    let grouped = |mut t: TableSpec| {
        t.add_level(1, Level::keyed("Grouped", vec!["Carrier".into()]))
            .unwrap();
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
    vec![
        ("load", wrap(base(10.0))),
        ("filter_tweak", wrap(base(30.0))),
        ("formula_column", wrap(with_hours(base(30.0)))),
        ("regroup", wrap(grouped(with_hours(base(30.0))))),
    ]
}

#[derive(Clone, Copy, Default)]
struct StepRecord {
    local_ms: f64,
    service_ms: f64,
    warehouse_queries: u64,
}

fn source_name(s: Source) -> &'static str {
    match s {
        Source::BrowserCache => "browser_cache",
        Source::LocalEngine => "local_engine",
        Source::LocalDelta => "local_delta",
        Source::LocalResidual => "local_residual",
        Source::ServiceDirectory => "service_directory",
        Source::Warehouse => "warehouse",
    }
}

/// Replay the session `ITERS` times on fresh environments; per step, keep
/// the median latencies and check the tier contract on every iteration.
fn replay() -> Vec<(&'static str, &'static str, StepRecord)> {
    let script = steps();
    let mut records: Vec<Vec<StepRecord>> = vec![Vec::new(); script.len()];
    let mut sources: Vec<&'static str> = vec![""; script.len()];
    for _ in 0..ITERS {
        let env = Env::new(ROWS);
        let rtt = Duration::from_millis(RTT_MS);
        // A generous stage-shipping budget: at 50k rows the deep source
        // stage (~the whole projected scan) exceeds the 8 MiB default,
        // and the formula-column edit needs it in the browser stage cache.
        env.service.set_stage_ship_cap(64 << 20);
        let mut tab = BrowserSession::new(env.service.clone(), env.token.clone(), "primary")
            .with_network_latency(rtt);
        tab.prefetch_policy.max_stage_bytes = 64 << 20;
        for (i, (name, wb)) in script.iter().enumerate() {
            let before = env.warehouse.queries_executed();
            let started = Instant::now();
            let out = tab.query_element(wb, "Delays").unwrap();
            let local_ms = started.elapsed().as_secs_f64() * 1e3;
            let warehouse_queries = env.warehouse.queries_executed() - before;
            sources[i] = source_name(out.source);

            // The tier contract (also the bench's regression gate).
            match *name {
                "load" => assert_eq!(out.source, Source::Warehouse, "step {name}"),
                "filter_tweak" | "formula_column" => {
                    // Delta fast path: kernels over cached stage results,
                    // zero warehouse queries.
                    assert_eq!(out.source, Source::LocalDelta, "step {name}");
                    assert_eq!(warehouse_queries, 0, "step {name} scanned the warehouse");
                }
                _ => {
                    assert!(
                        matches!(out.source, Source::LocalDelta | Source::LocalResidual),
                        "step {name}: expected a local tier, got {:?}",
                        out.source
                    );
                    assert_eq!(warehouse_queries, 0, "step {name} scanned the warehouse");
                }
            }

            // Baseline: the same state through a cold tab (round trip).
            let fresh = BrowserSession::new(env.service.clone(), env.token.clone(), "primary")
                .with_network_latency(rtt);
            let started = Instant::now();
            let base = fresh.query_element(wb, "Delays").unwrap();
            let service_ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(out.batch, base.batch, "step {name}: local != service");

            records[i].push(StepRecord {
                local_ms,
                service_ms,
                warehouse_queries,
            });
        }
    }
    script
        .iter()
        .zip(sources)
        .zip(records)
        .map(|(((name, _), src), mut rs)| {
            rs.sort_by(|a, b| a.local_ms.total_cmp(&b.local_ms));
            (*name, src, rs[rs.len() / 2])
        })
        .collect()
}

fn main() {
    let results = replay();

    let mut rows = String::new();
    println!("local_eval bench ({ROWS} rows, rtt {RTT_MS}ms, median of {ITERS} replays)");
    println!(
        "{:<16} {:<18} {:>10} {:>12} {:>9} {:>8}",
        "step", "source", "local ms", "service ms", "speedup", "queries"
    );
    for (name, src, r) in &results {
        let speedup = r.service_ms / r.local_ms.max(1e-6);
        println!(
            "{:<16} {:<18} {:>10.2} {:>12.2} {:>8.1}x {:>8}",
            name, src, r.local_ms, r.service_ms, speedup, r.warehouse_queries
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"step\": \"{name}\", \"source\": \"{src}\", \
             \"local_ms\": {:.3}, \"service_ms\": {:.3}, \
             \"speedup\": {:.1}, \"warehouse_queries\": {} }}",
            r.local_ms, r.service_ms, speedup, r.warehouse_queries
        ));
    }

    // Acceptance gate: the delta fast-path steps must beat the round trip
    // by at least 10x under the simulated RTT.
    for (name, _, r) in results.iter().filter(|(n, _, _)| *n != "load") {
        let speedup = r.service_ms / r.local_ms.max(1e-6);
        assert!(
            speedup >= 10.0,
            "step {name}: local path only {speedup:.1}x faster ({:.2}ms vs {:.2}ms)",
            r.local_ms,
            r.service_ms
        );
    }

    let date = sigma_bench::today();
    let json = format!(
        "{{\n  \"recorded\": \"{date}\",\n  \"note\": \"Scripted edit session \
         (load -> filter tweak -> formula column -> regroup) through one browser tab over \
         {ROWS} synthetic flights rows with a simulated {RTT_MS}ms one-way RTT; median of \
         {ITERS} fresh replays. After the load ships stage results + schemas, every edit is \
         served from a local tier: filter tweak and formula column via the delta fast path \
         (kernel passes over cached stage results, zero warehouse queries), regroup via \
         residual-suffix execution. service_ms is the same state through a cold tab (round \
         trip). Regenerate with: cargo bench -p sigma-bench --bench local_eval.\",\n  \
         \"rows\": {ROWS},\n  \"iters\": {ITERS},\n  \"rtt_ms\": {RTT_MS},\n  \
         \"steps\": [\n{rows}\n  ]\n}}\n"
    );
    sigma_bench::write_record("local_eval", "LOCAL_EVAL_BENCH_OUT", &json);
}
