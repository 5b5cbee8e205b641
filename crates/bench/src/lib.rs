//! Shared helpers for the benchmark harness: the demo environment the
//! browser-tier benches run against, and the one writer every bench uses
//! for its `BENCH_<date>_<kind>.json` record.

use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use sigma_cdw::Warehouse;
use sigma_service::SigmaService;
use sigma_workbook::demo;

/// One prepared scenario environment.
pub struct Env {
    pub warehouse: Arc<Warehouse>,
    pub service: Arc<SigmaService>,
    pub token: String,
}

impl Env {
    pub fn new(rows: usize) -> Env {
        let warehouse = demo::demo_warehouse(rows);
        let (service, token) = demo::demo_service(warehouse.clone());
        Env {
            warehouse,
            service,
            token,
        }
    }
}

/// Today's UTC date as `YYYY-MM-DD` (the `recorded` field of a bench record).
pub fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_secs();
    let (y, m, d) = sigma_value::calendar::civil_from_days((secs / 86_400) as i32);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Write a bench record to `$env_var` if set, else to
/// `BENCH_<date>_<kind>.json` at the repo root, and say where it went.
pub fn write_record(kind: &str, env_var: &str, json: &str) {
    let out = std::env::var(env_var).unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_{}_{kind}.json",
            env!("CARGO_MANIFEST_DIR"),
            today()
        )
    });
    std::fs::write(&out, json).expect("write bench record");
    println!("\nrecorded -> {out}");
}
