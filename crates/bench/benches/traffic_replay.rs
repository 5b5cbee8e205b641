//! Traffic replay against a live server socket: the networked tier's
//! headline numbers.
//!
//! The paper's service tier fronts many concurrent workbook sessions per
//! customer warehouse; what matters operationally is (a) interactive
//! latency while the warehouse keeps up and (b) *graceful* degradation —
//! explicit shedding, not latency collapse — when it does not. This bench
//! measures both against a real `sigma-server` TCP socket:
//!
//! 1. **Fidelity pin** — one replayed query is asserted byte-identical to
//!    the same request answered in process (the wire adds nothing and
//!    loses nothing).
//! 2. **Closed loop** — N concurrent client sessions each replay a
//!    scripted edit session (load → filter tweak → formula column →
//!    regroup, unique thresholds per step so nothing is served for free
//!    from the query directory) as fast as the server admits them. This
//!    yields p50/p99 latency and the saturation throughput.
//! 3. **Open loop** — requests arrive on a fixed schedule at ~2x the
//!    measured saturation rate with a per-request deadline. The gate: the
//!    admission controller must shed (`Overloaded`) rather than queue
//!    without bound, and the p99 of *admitted* requests must stay within
//!    the deadline-bounded envelope instead of collapsing.
//!
//! Results land in `BENCH_<date>_traffic_replay.json` at the repo root
//! (override with `TRAFFIC_REPLAY_BENCH_OUT`). Run with:
//!
//! ```text
//! cargo bench -p sigma-bench --bench traffic_replay
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use sigma_core::document::ElementKind;
use sigma_core::table::{ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec};
use sigma_core::Workbook;
use sigma_protocol::{ErrorKind, WirePriority};
use sigma_server::{serve, ClientError, QueryReply, ServerHandle, SigmaClient};
use sigma_service::workload::Priority;
use sigma_service::{AdmissionConfig, QueryRequest};
use sigma_value::Value;
use sigma_workbook::demo::{demo_service, demo_warehouse};

const ROWS: usize = 8_000;
/// Concurrent replay sessions (the acceptance floor is 8).
const CLIENTS: usize = 8;
/// Edit-session repetitions per client in the closed-loop phase.
const REPS: usize = 6;
/// Open-loop worker sessions draining the arrival schedule.
const OPEN_WORKERS: usize = 12;
/// Per-request admission deadline in the open-loop phase.
const DEADLINE: Duration = Duration::from_millis(750);
/// Open-loop phase length.
const OPEN_SECS: f64 = 1.5;
/// Admission policy under test: 2 warehouse slots, short per-tenant queue
/// — pressure beyond ~(slots + queue) concurrent requests must shed.
const ADMISSION: AdmissionConfig = AdmissionConfig {
    max_concurrent: 2,
    tenant_quota: 2,
    queue_bound: 4,
    default_deadline: None,
    exec_threads: 0,
};

/// One step of the scripted edit session. `phase` perturbs the filter
/// threshold so every (client, rep, step) compiles to a distinct
/// fingerprint: replayed traffic exercises admission + execution, not the
/// query directory.
fn edit_session(phase: f64) -> Vec<(&'static str, Workbook)> {
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
    let wrap = |t: TableSpec| {
        let mut wb = Workbook::new(Some("replay"));
        wb.add_element(0, "Delays", ElementKind::Table(t)).unwrap();
        wb
    };

    let load = base(phase);
    let tweaked = base(phase + 0.25);
    let mut with_formula = base(phase + 0.5);
    with_formula
        .add_column(ColumnDef::formula("Delay Hours", "[Dep Delay] / 60", 0))
        .unwrap();
    let mut grouped = base(phase + 0.75);
    grouped
        .add_level(1, Level::keyed("By Carrier", vec!["Carrier".into()]))
        .unwrap();
    grouped
        .add_column(ColumnDef::formula("Flights", "Count()", 1))
        .unwrap();
    grouped.detail_level = 1;

    vec![
        ("load", wrap(load)),
        ("filter_tweak", wrap(tweaked)),
        ("formula_column", wrap(with_formula)),
        ("regroup", wrap(grouped)),
    ]
}

fn connect_session(handle: &ServerHandle, token: &str) -> SigmaClient {
    let mut client = SigmaClient::connect(handle.addr()).expect("connect");
    client.auth(token).expect("auth");
    client.open_session("primary").expect("open session");
    client
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Phase 1: the wire adds nothing — a replayed answer is byte-identical
/// to the in-process answer for the same request.
fn assert_bit_identical(handle: &ServerHandle, token: &str) {
    let mut client = connect_session(handle, token);
    let (_, wb) = &edit_session(1.0)[3];
    let json = wb.to_json().unwrap();
    let QueryReply::Ok(remote) = client
        .query_element(&json, "Delays", WirePriority::Interactive, None)
        .expect("fidelity query")
    else {
        panic!("fidelity query shed on an idle server");
    };
    let local = handle
        .service()
        .run_query(&QueryRequest {
            token,
            connection: "primary",
            workbook_json: &json,
            element: "Delays",
            priority: Priority::Interactive,
        })
        .expect("in-process query");
    assert_eq!(
        sigma_value::codec::encode_batch(&remote.batch),
        sigma_value::codec::encode_batch(&local.batch),
        "networked batch must be byte-identical to the in-process batch"
    );
    let _ = client.close();
}

/// Phase 2a: one warm session running sequentially — no queueing, no
/// shedding. Its request rate is the per-slot service rate, which floors
/// the server's true capacity at `max_concurrent x` that rate (the
/// closed loop alone can underestimate capacity when its sessions spend
/// time in shed/backoff cycles).
fn sequential_service_rate(handle: &ServerHandle, token: &str) -> f64 {
    const WARM: usize = 4;
    const MEASURED: usize = 32;
    let mut client = connect_session(handle, token);
    let mut run = |phase: f64| {
        let steps = edit_session(phase);
        let (_, wb) = &steps[(phase as usize) % steps.len()];
        let json = wb.to_json().unwrap();
        loop {
            match client
                .query_element(&json, "Delays", WirePriority::Interactive, None)
                .expect("sequential probe")
            {
                QueryReply::Ok(_) => break,
                QueryReply::Overloaded { retry_after } => {
                    std::thread::sleep(retry_after.min(Duration::from_millis(5)));
                }
            }
        }
    };
    for i in 0..WARM {
        run(50_000.0 + i as f64);
    }
    let t0 = Instant::now();
    for i in 0..MEASURED {
        run(60_000.0 + i as f64);
    }
    let rate = MEASURED as f64 / t0.elapsed().as_secs_f64();
    let _ = client.close();
    rate
}

/// Phase 2b: closed loop. Each session replays its script back-to-back,
/// retrying shed requests after the server's hint. Returns
/// (latencies of admitted requests, wall time, admitted count).
fn closed_loop(handle: &ServerHandle, token: &str) -> (Vec<f64>, f64, usize) {
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = connect_session(handle, token);
            let latencies = latencies.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let mut local = Vec::new();
                for rep in 0..REPS {
                    let phase = (c * REPS + rep) as f64 * 4.0;
                    for (_, wb) in edit_session(phase) {
                        let json = wb.to_json().unwrap();
                        // Retry shed requests after the hint, like a real
                        // client; only admitted requests count toward
                        // latency.
                        loop {
                            let t0 = Instant::now();
                            match client
                                .query_element(&json, "Delays", WirePriority::Interactive, None)
                                .expect("closed-loop transport")
                            {
                                QueryReply::Ok(_) => {
                                    local.push(t0.elapsed().as_secs_f64() * 1e3);
                                    break;
                                }
                                QueryReply::Overloaded { retry_after } => {
                                    std::thread::sleep(retry_after.min(Duration::from_millis(5)));
                                }
                            }
                        }
                    }
                }
                latencies.lock().unwrap().extend(local);
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for t in threads {
        t.join().expect("closed-loop session");
    }
    let wall = t0.elapsed().as_secs_f64();
    let lat = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    let admitted = lat.len();
    (lat, wall, admitted)
}

struct OpenLoopResult {
    target_rps: f64,
    issued: usize,
    admitted: usize,
    shed: usize,
    deadline_exceeded: usize,
    admitted_latencies_ms: Vec<f64>,
}

/// Phase 3: open loop at `target_rps`. Arrivals follow a fixed global
/// schedule drained by a pool of sessions — a slow server cannot slow the
/// offered load down, which is exactly what makes overload real.
fn open_loop(handle: &ServerHandle, token: &str, target_rps: f64) -> OpenLoopResult {
    let total = ((target_rps * OPEN_SECS) as usize).clamp(OPEN_WORKERS, 4_000);
    let next = Arc::new(AtomicUsize::new(0));
    let admitted = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let expired = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(OPEN_WORKERS + 1));
    let start = Arc::new(Mutex::new(Instant::now()));

    let threads: Vec<_> = (0..OPEN_WORKERS)
        .map(|w| {
            let mut client = connect_session(handle, token);
            let next = next.clone();
            let admitted = admitted.clone();
            let shed = shed.clone();
            let expired = expired.clone();
            let latencies = latencies.clone();
            let barrier = barrier.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let start = *start.lock().unwrap();
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total {
                        break;
                    }
                    // Fixed arrival schedule: request i fires at i/rate,
                    // regardless of how the server is doing.
                    let due = start + Duration::from_secs_f64(i as f64 / target_rps);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    // Distinct fingerprint space from the closed loop.
                    let phase = 100_000.0 + (w * 10_000 + i) as f64;
                    let steps = edit_session(phase);
                    let (_, wb) = &steps[i % steps.len()];
                    let json = wb.to_json().unwrap();
                    let t0 = Instant::now();
                    match client.query_element(
                        &json,
                        "Delays",
                        WirePriority::Interactive,
                        Some(DEADLINE),
                    ) {
                        Ok(QueryReply::Ok(_)) => {
                            local.push(t0.elapsed().as_secs_f64() * 1e3);
                            admitted.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(QueryReply::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ClientError::Server {
                            kind: ErrorKind::DeadlineExceeded,
                            ..
                        }) => {
                            expired.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => panic!("open-loop transport failure: {e}"),
                    }
                }
                latencies.lock().unwrap().extend(local);
            })
        })
        .collect();
    *start.lock().unwrap() = Instant::now();
    barrier.wait();
    for t in threads {
        t.join().expect("open-loop session");
    }
    OpenLoopResult {
        target_rps,
        issued: total,
        admitted: admitted.load(Ordering::SeqCst),
        shed: shed.load(Ordering::SeqCst),
        deadline_exceeded: expired.load(Ordering::SeqCst),
        admitted_latencies_ms: Arc::try_unwrap(latencies).unwrap().into_inner().unwrap(),
    }
}

fn main() {
    let (service, token) = demo_service(demo_warehouse(ROWS));
    assert!(service.set_connection_admission("primary", ADMISSION));
    let handle = serve(service, "127.0.0.1:0").expect("bind server");

    assert_bit_identical(&handle, &token);
    println!("fidelity: networked == in-process (byte-identical)");

    let per_slot_rps = sequential_service_rate(&handle, &token);
    println!("sequential probe: {per_slot_rps:.0} rps per warehouse slot");

    let (mut closed_lat, wall, closed_admitted) = closed_loop(&handle, &token);
    closed_lat.sort_by(|a, b| a.total_cmp(b));
    let closed_p50 = percentile(&closed_lat, 0.50);
    let closed_p99 = percentile(&closed_lat, 0.99);
    let saturation_rps = closed_admitted as f64 / wall;
    println!(
        "closed loop: {CLIENTS} sessions, {closed_admitted} requests in {wall:.2}s \
         -> {saturation_rps:.0} rps, p50 {closed_p50:.2}ms p99 {closed_p99:.2}ms"
    );

    // True capacity is at least per_slot_rps x slots; the closed loop can
    // only underestimate it (its sessions burn time in shed/backoff
    // cycles). Offering 2x the larger of the two guarantees genuine
    // overload.
    let capacity_rps = saturation_rps.max(per_slot_rps * ADMISSION.max_concurrent as f64);
    let open = open_loop(&handle, &token, capacity_rps * 2.0);
    let mut open_lat = open.admitted_latencies_ms.clone();
    open_lat.sort_by(|a, b| a.total_cmp(b));
    let open_p50 = percentile(&open_lat, 0.50);
    let open_p99 = percentile(&open_lat, 0.99);
    println!(
        "open loop @2x ({:.0} rps): issued {}, admitted {}, shed {}, expired {}, \
         admitted p50 {open_p50:.2}ms p99 {open_p99:.2}ms",
        open.target_rps, open.issued, open.admitted, open.shed, open.deadline_exceeded
    );

    // The degradation gates. Shedding must engage at 2x saturation...
    assert!(
        open.shed > 0,
        "open-loop 2x overload produced no Overloaded responses \
         (admitted {}, expired {})",
        open.admitted,
        open.deadline_exceeded
    );
    assert!(open.admitted > 0, "overload must not starve every request");
    // ...and admitted requests must stay inside the deadline-bounded
    // envelope: bounded queue wait (deadline) + service + generous CI
    // slack — overload degrades by rejecting, not by latency collapse.
    let p99_bound_ms = DEADLINE.as_secs_f64() * 1e3 + 2_000.0;
    assert!(
        open_p99 <= p99_bound_ms,
        "admitted p99 {open_p99:.1}ms blew the bounded-latency envelope \
         ({p99_bound_ms:.0}ms) under 2x overload"
    );
    // Queue bound held: the workload manager never buffered more than the
    // configured backlog per tenant.
    let stats = handle.service().workload_stats("primary").expect("stats");
    assert!(
        stats.peak_waiting <= ADMISSION.queue_bound,
        "peak backlog {} exceeded the configured bound {}",
        stats.peak_waiting,
        ADMISSION.queue_bound
    );

    let date = sigma_bench::today();
    let json = format!(
        "{{\n  \"recorded\": \"{date}\",\n  \"note\": \"Traffic replay against a live \
         sigma-server TCP socket over a {ROWS}-row flights warehouse with admission \
         max_concurrent={}, tenant_quota={}, queue_bound={}. Closed loop: {CLIENTS} \
         concurrent sessions each replaying {REPS} scripted edit sessions (load/filter \
         tweak/formula column/regroup; unique filter thresholds defeat the query \
         directory), shed requests retried after the server hint. Open loop: fixed \
         arrival schedule at 2x the estimated capacity (the larger of closed-loop \
         throughput and the sequential per-slot rate x slots) with {}ms per-request \
         deadlines across {OPEN_WORKERS} sessions. Gates: one replayed answer is \
         byte-identical to the in-process answer; at 2x overload the server sheds with \
         Overloaded (shed > 0) while p99 of admitted requests stays inside the \
         deadline-bounded envelope; peak per-tenant backlog never exceeds queue_bound. \
         Regenerate with: cargo bench -p sigma-bench --bench traffic_replay.\",\n  \
         \"bit_identical\": true,\n  \"admission\": {{ \"max_concurrent\": {}, \
         \"tenant_quota\": {}, \"queue_bound\": {} }},\n  \"sequential_per_slot_rps\": {per_slot_rps:.1},\n  \"closed_loop\": {{ \
         \"sessions\": {CLIENTS}, \"requests\": {closed_admitted}, \"wall_s\": {wall:.3}, \
         \"throughput_rps\": {saturation_rps:.1}, \"p50_ms\": {closed_p50:.3}, \
         \"p99_ms\": {closed_p99:.3} }},\n  \"open_loop\": {{ \"target_rps\": {:.1}, \
         \"deadline_ms\": {}, \"issued\": {}, \"admitted\": {}, \"shed\": {}, \
         \"deadline_exceeded\": {}, \"admitted_p50_ms\": {open_p50:.3}, \
         \"admitted_p99_ms\": {open_p99:.3} }},\n  \"workload_stats\": {{ \
         \"admitted\": {}, \"shed\": {}, \"expired\": {}, \"peak_waiting\": {} }}\n}}\n",
        ADMISSION.max_concurrent,
        ADMISSION.tenant_quota,
        ADMISSION.queue_bound,
        DEADLINE.as_millis(),
        ADMISSION.max_concurrent,
        ADMISSION.tenant_quota,
        ADMISSION.queue_bound,
        open.target_rps,
        DEADLINE.as_millis(),
        open.issued,
        open.admitted,
        open.shed,
        open.deadline_exceeded,
        stats.admitted,
        stats.shed,
        stats.expired,
        stats.peak_waiting,
    );
    sigma_bench::write_record("traffic_replay", "TRAFFIC_REPLAY_BENCH_OUT", &json);

    handle.shutdown();
}
