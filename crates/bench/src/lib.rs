//! Shared helpers for the benchmark harness: scenario runners used by both
//! the Criterion benches and the `experiments` binary that regenerates the
//! EXPERIMENTS.md tables.

use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sigma_cdw::Warehouse;
use sigma_core::Workbook;
use sigma_service::workload::Priority;
use sigma_service::{QueryRequest, SigmaService};
use sigma_workbook::demo;

/// Row-count sweep used by the scenario experiments.
pub const SWEEP: &[usize] = &[10_000, 50_000, 200_000];

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

    /// Run one element query through the full service path; returns
    /// (rows, elapsed).
    pub fn run(&self, wb: &Workbook, element: &str) -> (usize, Duration) {
        let json = wb.to_json().expect("workbook serializes");
        let started = Instant::now();
        let outcome = self
            .service
            .run_query(&QueryRequest {
                token: &self.token,
                connection: "primary",
                workbook_json: &json,
                element,
                priority: Priority::Interactive,
            })
            .expect("query runs");
        (outcome.batch.num_rows(), started.elapsed())
    }

    /// Compile-only path (no execution).
    pub fn compile(&self, wb: &Workbook, element: &str) -> String {
        let user = self
            .service
            .tenancy
            .authenticate(&self.token)
            .expect("token valid");
        self.service
            .compile(&user, "primary", wb, element)
            .expect("compiles")
            .sql
    }
}

/// Milliseconds with two decimals, for table printing.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
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

/// Median of several timed runs of `f`.
pub fn median_time(iters: usize, mut f: impl FnMut()) -> Duration {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}
