//! The traced run's second pass over an edit: direct calls of each layer's
//! public functions, each wrapped in a span, hung under the span of the
//! whole call they estimate. The calls repeat work the whole edit already
//! did, so they are estimates of where its time went, not parts of it.

use std::collections::HashMap;

use sigma_core::{CompileOptions, Compiler, StagePlan, Workbook};
use sigma_protocol::{Request, Response, WireBatch, WireOutcome, WirePriority};
use sigma_service::service::WarehouseSchemas;
use sigma_service::QueryOutcome;
use sigma_sql::{parse_statement, printer::print_query, Statement};
use sigma_value::{codec, Batch, Value};

use crate::env::{Answer, Env, Served};
use crate::gen::Edit;
use crate::trace::Tracer;

const RUN_QUERY: &str = "service.run_query";

/// Operator kinds `cdw.op_ms.*` is reported for; anything else is `other`.
pub const OPERATORS: [&str; 8] = [
    "scan",
    "filter",
    "project",
    "aggregate",
    "join",
    "window",
    "sort",
    "other",
];

fn operator_key(label: &str) -> &'static str {
    let word = label
        .split(|c: char| !c.is_ascii_alphabetic())
        .next()
        .unwrap_or("")
        .to_ascii_lowercase();
    OPERATORS
        .into_iter()
        .find(|k| *k == word)
        .unwrap_or("other")
}

/// The same state with its seeded literal moved by less than the
/// generator's resolution: a new fingerprint, the same work. A repeat of
/// the edit itself would be a directory hit and estimate nothing.
pub fn shifted(edit: &Edit) -> Workbook {
    let mut wb = edit.workbook.clone();
    if let Some(table) = wb.table_mut(edit.element) {
        for filter in &mut table.filters {
            if let sigma_core::FilterPredicate::Range {
                min: Some(Value::Float(v)),
                ..
            } = &mut filter.predicate
            {
                if v.to_bits() == edit.threshold.to_bits() {
                    *v += 1e-7;
                }
            }
        }
    }
    wb
}

/// Children of a `service.run_query` span: JSON decode, compile, and the
/// stages the service executed, replayed one warehouse query per stage as
/// the service issues them.
pub fn decompose_run_query(
    t: &mut Tracer,
    id: u64,
    env: &Env,
    json: &str,
    element: &str,
    outcome: &QueryOutcome,
) {
    let wh = &env.warehouse;
    let Ok(wb) = t.span(id, "core.from_json", RUN_QUERY, || {
        Workbook::from_json(json)
    }) else {
        return;
    };
    let schemas = WarehouseSchemas(wh);
    let options = CompileOptions {
        dialect: wh.dialect(),
        ..Default::default()
    };
    let Ok(compiled) = t.span(id, "core.compile", RUN_QUERY, || {
        Compiler::new(&wb, &schemas, options).compile_element(element)
    }) else {
        return;
    };
    t.count("stages", compiled.stages.nodes.len() as u64);
    t.span(id, "sql.print", "core.compile", || {
        print_query(&compiled.query, &wh.dialect())
    });
    if outcome.stages_executed == 0 {
        return; // a directory hit never reaches the warehouse
    }
    let staged = env.service.stage_caching() && compiled.stages.nodes.len() > 1;
    if !(staged && execute_stages(t, id, env, &compiled.stages, outcome)) {
        // One flattened query, as the service falls back to.
        let result = t.span(id, "cdw.execute", RUN_QUERY, || {
            wh.execute_sql(&compiled.sql)
        });
        if let Ok(r) = result {
            count_result(t, &r);
            wh.evict_result(&r.query_id);
        }
    }
}

/// Execute the last `stages_executed` stages of the plan, reading reused
/// inputs from the stage results the outcome shipped. Exact for a chain of
/// stages; for a DAG the executed set is taken to be the stages nearest
/// the sink. False when a reused input was not shipped.
fn execute_stages(
    t: &mut Tracer,
    id: u64,
    env: &Env,
    plan: &StagePlan,
    outcome: &QueryOutcome,
) -> bool {
    let wh = &env.warehouse;
    let n = plan.nodes.len();
    let first = n.saturating_sub(outcome.stages_executed);
    let shipped: HashMap<&str, &Batch> = outcome
        .stage_results
        .iter()
        .map(|(hex, b)| (hex.as_str(), b))
        .collect();
    // Install every reused input first: nothing is timed if one is missing.
    let mut qids: HashMap<usize, String> = HashMap::new();
    for &input in plan.nodes[first..].iter().flat_map(|node| &node.inputs) {
        if input >= first || qids.contains_key(&input) {
            continue;
        }
        match shipped.get(plan.nodes[input].fingerprint.hex().as_str()) {
            Some(batch) => qids.insert(input, wh.install_result((*batch).clone())),
            None => {
                qids.values().for_each(|qid| {
                    wh.evict_result(qid);
                });
                return false;
            }
        };
    }
    for (idx, node) in plan.nodes.iter().enumerate().skip(first) {
        let scans: HashMap<String, String> = node
            .inputs
            .iter()
            .map(|i| (plan.nodes[*i].name.to_ascii_lowercase(), qids[i].clone()))
            .collect();
        let mut query = node.query.clone();
        sigma_sql::substitute_result_scans(&mut query, &scans);
        // The service hands the warehouse the AST; planning is timed
        // through `plan_sql`, which parses first, so the parse is timed
        // again on its own and comes off `cdw.plan` as its child.
        let sql = print_query(&query, &wh.dialect());
        let _ = t.span(id, "cdw.plan", "cdw.execute", || wh.plan_sql(&sql));
        let _ = t.span(id, "sql.parse", "cdw.plan", || parse_statement(&sql));
        let stmt = Statement::Query(query);
        let Ok(r) = t.span(id, "cdw.execute", RUN_QUERY, || wh.execute_statement(&stmt)) else {
            break;
        };
        count_result(t, &r);
        qids.insert(idx, r.query_id);
    }
    for qid in qids.values() {
        wh.evict_result(qid);
    }
    true
}

/// Counts at the warehouse boundary, on the `cdw.execute` span just made.
fn count_result(t: &mut Tracer, r: &sigma_cdw::ResultSet) {
    t.count("rows_scanned", r.rows_scanned as u64);
    t.count("spilled_bytes", r.spilled_bytes as u64);
    t.count(
        "morsels",
        r.operators.iter().map(|o| o.morsels as u64).sum(),
    );
    // `elapsed` includes children; an operator's own time is what its
    // direct children (the deeper entries that follow it) leave.
    for (i, op) in r.operators.iter().enumerate() {
        let children: u128 = r.operators[i + 1..]
            .iter()
            .take_while(|c| c.depth > op.depth)
            .filter(|c| c.depth == op.depth + 1)
            .map(|c| c.elapsed.as_nanos())
            .sum();
        let own = op.elapsed.as_nanos().saturating_sub(children) as u64;
        t.count(operator_key(&op.op), own);
    }
}

/// Estimate the `service.run_query` inside an edit that reached the
/// service through a tab or a socket: the shifted state run in process,
/// under `parent`, with its own children.
pub fn estimate_run_query(t: &mut Tracer, id: u64, env: &Env, edit: &Edit, parent: &'static str) {
    let Ok(json) = shifted(edit).to_json() else {
        return;
    };
    let Ok(outcome) = t.span(id, RUN_QUERY, parent, || env.run_query(&json, edit.element)) else {
        return;
    };
    decompose_run_query(t, id, env, &json, edit.element, &outcome);
    env.warehouse.evict_result(&outcome.query_id);
}

/// Second pass for an in-process service edit.
pub fn decompose_service_edit(t: &mut Tracer, id: u64, env: &Env, edit: &Edit, answer: &Answer) {
    let (Some(outcome), Ok(json)) = (&answer.outcome, edit.workbook.to_json()) else {
        return;
    };
    decompose_run_query(t, id, env, &json, edit.element, outcome);
}

/// Second pass for a tab edit: the client-side compile for the local
/// tiers, the service call for an open. What `browser.query_element`
/// keeps is the tier ladder itself — caches, delta kernels, the embedded
/// engine.
pub fn decompose_browser_edit(t: &mut Tracer, id: u64, env: &Env, edit: &Edit, answer: &Answer) {
    const PARENT: &str = "browser.query_element";
    match answer.served {
        Served::Browser(sigma_browser::Source::BrowserCache) => {}
        Served::Browser(sigma_browser::Source::Warehouse)
        | Served::Browser(sigma_browser::Source::ServiceDirectory) => {
            let _ = t.span(id, "core.to_json", PARENT, || edit.workbook.to_json());
            estimate_run_query(t, id, env, edit, PARENT);
        }
        _ => {
            let schemas = WarehouseSchemas(&env.warehouse);
            let compiled = t.span(id, "core.compile", PARENT, || {
                Compiler::new(&edit.workbook, &schemas, CompileOptions::default())
                    .compile_element(edit.element)
            });
            if let Ok(c) = compiled {
                t.count("stages", c.stages.nodes.len() as u64);
            }
        }
    }
}

/// Second pass for a wire edit: both directions of the protocol on the
/// bytes the edit moved, and the service call in between.
pub fn decompose_wire_edit(t: &mut Tracer, id: u64, env: &Env, edit: &Edit, answer: &Answer) {
    const PARENT: &str = "server.query_element";
    let (Some(batch), Ok(json)) = (&answer.batch, edit.workbook.to_json()) else {
        return;
    };
    let request = Request::QueryElement {
        workbook_json: json,
        element: edit.element.to_string(),
        priority: WirePriority::Interactive,
        deadline_ms: None,
    };
    let Ok(frame) = t.span(id, "protocol.encode_request", PARENT, || {
        sigma_protocol::encode_request(&request)
    }) else {
        return;
    };
    t.count("bytes", frame.len() as u64);
    let _ = t.span(id, "protocol.decode_request", PARENT, || {
        sigma_protocol::read_frame(&mut frame.as_slice())
            .and_then(|payload| sigma_protocol::decode_request(&payload))
    });
    estimate_run_query(t, id, env, edit, PARENT);

    let wire_batch = t.span(id, "protocol.from_batch", PARENT, || {
        WireBatch::from_batch(batch)
    });
    let bytes = t.span(id, "value.encode_batch", "protocol.from_batch", || {
        codec::encode_batch(batch)
    });
    t.count("bytes", bytes.len() as u64);
    let (query_id, sql) = answer.wire_text.clone().unwrap_or_default();
    let response = Response::Query(WireOutcome {
        batch: wire_batch,
        query_id,
        sql,
        served_from: "warehouse".into(),
        queue_wait_us: 0,
        stage_hits: answer.stage_hits,
        stages_executed: 1,
        rows_scanned: answer.rows_scanned,
    });
    let Ok(frame) = t.span(id, "protocol.encode_response", PARENT, || {
        sigma_protocol::encode_response(&response)
    }) else {
        return;
    };
    t.count("bytes", frame.len() as u64);
    let decoded = t.span(id, "protocol.decode_response", PARENT, || {
        sigma_protocol::read_frame(&mut frame.as_slice())
            .and_then(|payload| sigma_protocol::decode_response(&payload))
    });
    if let Ok(Response::Query(outcome)) = decoded {
        let _ = t.span(id, "protocol.to_batch", PARENT, || outcome.batch.to_batch());
        let _ = t.span(id, "value.decode_batch", "protocol.to_batch", || {
            codec::decode_batch(&bytes)
        });
        t.count("bytes", bytes.len() as u64);
    }
}
