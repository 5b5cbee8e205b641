//! Every workload at `--scale smoke` (2k rows, a few dozen edits), in
//! process: the five stay buildable and their correctness checks — the
//! source each edit must be served from, table-scoped invalidation,
//! byte-identical answers over the wire and from every browser tier — stay
//! green under `cargo test`.

use sigma_e2e::gen::{Scale, Workload, CYCLE_EDITS, REPLAY_EDITS};
use sigma_e2e::report::{END_TO_END, PER_LAYER};
use sigma_e2e::run::{run, Budget, Config, RunResult};

fn smoke(workload: Workload, trace: bool, wrong_reference: bool) -> RunResult {
    let edits = match workload {
        Workload::TabEditSession => 2 * REPLAY_EDITS,
        Workload::AugmentWriteMix => 3 * CYCLE_EDITS,
        _ => 12,
    };
    run(&Config {
        workload,
        seed: 11,
        budget: Budget::Edits(edits),
        scale: Scale::Smoke,
        trace,
        setups: 1,
        wrong_reference,
        out_dir: None,
    })
    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_answers_correctly_and_prints_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let r = smoke(workload, false, false);
        assert!(
            r.correct,
            "{}: {} of {} failed",
            workload.name(),
            r.failed,
            r.attempted
        );
        assert_eq!(r.failed, 0);
        assert!(
            r.attempted >= 10,
            "{}: {} edits",
            workload.name(),
            r.attempted
        );
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, expected, "{}", workload.name());
        for m in &r.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for workload in Workload::ALL {
        let r = smoke(workload, true, false);
        assert!(
            r.correct,
            "{}: {} of {} failed",
            workload.name(),
            r.failed,
            r.attempted
        );
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, expected, "{}", workload.name());
        let m = |name: &str| r.metric(name).expect(name);
        assert_eq!(m("check.failed_share"), 0.0);
        assert_eq!(
            m("check.compared_share"),
            1.0,
            "smoke compares every answer"
        );
        assert!(m("core.compile_p50_ms") > 0.0);
        match workload {
            Workload::ScenariosCold | Workload::Scan1m => {
                // Cold: the fact table is scanned whole on every edit and
                // the whole-query directory never hits.
                assert_eq!(m("cdw.rows_scanned_per_edit"), 2_000.0);
                assert_eq!(m("service.directory_hit_share"), 0.0);
                assert!(m("cdw.execute_p50_ms") > 0.0 && m("share.cdw") > 0.0);
            }
            Workload::TabEditSession => {
                let shares = m("browser.tier_share.cache")
                    + m("browser.tier_share.delta")
                    + m("browser.tier_share.residual")
                    + m("browser.tier_share.local")
                    + m("browser.tier_share.service");
                assert!((shares - 1.0).abs() < 1e-9);
                // One open per replay of 24 edits reaches the service.
                assert!((m("browser.tier_share.service") - 1.0 / 24.0).abs() < 1e-9);
                assert_eq!(m("browser.tier_share.cache"), 3.0 / 24.0);
            }
            Workload::WireDetailPages => {
                assert!(m("protocol.wire_bytes_per_edit") > 10_000.0);
                assert!(
                    m("protocol.armor_ratio") > 2.0,
                    "hex doubles the codec bytes"
                );
                assert!(m("share.protocol") > 0.0);
            }
            Workload::AugmentWriteMix => {
                // Six of the eleven reads of a cycle are directory hits.
                assert!((m("service.directory_hit_share") - 6.0 / 11.0).abs() < 1e-9);
                assert!(m("service.stage_hit_share") > 0.0);
                assert!(m("service.invalidated_per_write") > 0.0);
                assert!(m("service.write_p50_ms") > 0.0);
            }
        }
    }
}

#[test]
fn a_wrong_reference_fails_the_run() {
    for workload in [
        Workload::Scan1m,
        Workload::TabEditSession,
        Workload::AugmentWriteMix,
    ] {
        let r = smoke(workload, false, true);
        assert!(!r.correct, "{}: answers are not compared", workload.name());
        assert!(r.failed > 0);
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let list = |key: &str| {
        json[key]
            .as_array()
            .unwrap_or_else(|| panic!("{key}"))
            .clone()
    };
    let text_of = |v: &serde_json::Value, key: &str| v[key].as_str().expect(key).to_string();

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for w in list("workloads") {
        assert!(text_of(&w, "why").len() <= 200);
    }

    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, e) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text_of(listed, "name"), e.name);
        assert_eq!(text_of(listed, "unit"), e.unit);
        assert_eq!(text_of(listed, "better"), e.better.as_str());
        assert_eq!(listed["bound"].as_f64(), Some(e.bound));
        assert!(e.bound <= 0.25);
    }

    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text_of(listed, "name"), *name);
        assert_eq!(text_of(listed, "unit"), *unit);
        assert_eq!(text_of(listed, "better"), better.as_str());
        assert!(name.len() <= 64 && unit.len() <= 16);
    }
    assert_eq!(json["paths"][0].as_str(), Some("sigma-e2e"));
    assert!(matches!(json["run_seconds"].as_i64(), Some(1..=60)));
}
