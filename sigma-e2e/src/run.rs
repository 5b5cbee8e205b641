//! One run of one workload: set-up (repeated, median reported), warm-up,
//! the timed closed loop, the reference comparison, and the metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

use sigma_browser::Source;
use sigma_value::{codec, Batch};

use crate::env::{BrowserClient, Client, Env, Served, ServiceClient, WireClient, EDIT};
use crate::gen::{Op, Scale, Script, Workload, CYCLE_EDITS, REPLAY_EDITS};
use crate::layers;
use crate::report::{
    json_string, median, percentile, result_line, sorted, vm_hwm_mib, Metric, END_TO_END, PER_LAYER,
};
use crate::trace::{layer_shares, self_times, write_spans, Span, Tracer, ROOT};

/// How long the timed phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    /// Edits per client (tests).
    Edits(usize),
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub scale: Scale,
    pub trace: bool,
    /// Set-ups to time at least (cheap ones are repeated up to three
    /// times as often); the last one is kept and measured on.
    pub setups: usize,
    /// Generate the reference side from another seed: every comparison
    /// must then fail (the smoke test's proof that answers are compared).
    pub wrong_reference: bool,
    /// Where the result file and the spans go (nothing is written if
    /// `None`).
    pub out_dir: Option<PathBuf>,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Host sizing and counts recorded beside the metrics.
    pub notes: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn line(&self) -> String {
        result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One timed edit as the closed loop saw it.
struct Sample {
    /// Position in the client's script (warm-up edits included).
    index: usize,
    traced: bool,
    /// Seconds into the timed phase at which the edit was sent.
    at_s: f64,
    ms: f64,
    ok: bool,
    write: bool,
    served: Served,
    /// Hash and length of the answer's `codec::encode_batch` bytes.
    digest: Option<(u64, usize)>,
    rows_scanned: u64,
    queue_wait_ms: f64,
    shed_retries: u64,
}

/// Clients of the closed loop: one, except over the wire where every core
/// gets a session. A traced run keeps to one: the second pass of one
/// client would otherwise be timed against the whole edits of another, and
/// what the sessions cost each other is read off the untraced run.
fn clients(workload: Workload, trace: bool) -> usize {
    if workload == Workload::WireDetailPages && !trace {
        nproc()
    } else {
        1
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Untimed edits per client after each set-up: whole replays and cycles,
/// so lazily started threads, the first-ever `By Carrier` run and the
/// allocator's growth are behind the first timed edit.
fn warmup_edits(workload: Workload) -> usize {
    match workload {
        Workload::ScenariosCold => 6,
        Workload::Scan1m => 4,
        Workload::TabEditSession => REPLAY_EDITS,
        Workload::WireDetailPages => 4,
        Workload::AugmentWriteMix => CYCLE_EDITS,
    }
}

/// Edits that are compared (or skipped) together, so that every kind of
/// edit in the script's period is.
fn unit_edits(workload: Workload) -> usize {
    match workload {
        Workload::ScenariosCold => 3,
        Workload::TabEditSession => REPLAY_EDITS,
        Workload::AugmentWriteMix => CYCLE_EDITS,
        _ => 1,
    }
}

fn digest(batch: &Batch) -> (u64, usize) {
    let bytes = codec::encode_batch(batch);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(0x0100_0000_01b3);
        h ^= h >> 29;
    }
    for b in words.remainder() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    }
    (h, bytes.len())
}

fn new_client<'a>(workload: Workload, env: &'a Env) -> Result<Box<dyn Client + 'a>, String> {
    Ok(match workload {
        Workload::TabEditSession => Box::new(BrowserClient::new(env)),
        Workload::WireDetailPages => Box::new(WireClient::connect(env)?),
        _ => Box::new(ServiceClient { env }),
    })
}

/// Build the environment and push every client's warm-up edits through it.
fn set_up(cfg: &Config, n_clients: usize) -> Result<(Env, Vec<Script>), String> {
    let env = Env::new(cfg.workload, cfg.scale);
    if cfg.trace && cfg.workload != Workload::TabEditSession {
        // The second pass reads reused stage inputs from what the outcome
        // ships; without the cap it can always replay the stages.
        env.service.set_stage_ship_cap(usize::MAX);
    }
    let mut scripts = Vec::new();
    let mut off = Tracer::new(Instant::now(), false);
    for c in 0..n_clients {
        let mut script = Script::new(cfg.workload, cfg.seed, c, n_clients);
        let mut client = new_client(cfg.workload, &env)?;
        for edit in script.by_ref().take(warmup_edits(cfg.workload)) {
            client.prepare(&edit);
            client.submit(&edit, 0, &mut off)?;
        }
        scripts.push(script);
    }
    Ok((env, scripts))
}

/// What one client's closed loop produced.
#[derive(Default)]
struct Loop {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    browser_caches: Option<((u64, u64), (u64, u64))>,
}

/// Edits per block of a traced run: one block in four runs untraced, so
/// that what the second pass costs the whole edits around it can be read
/// off the same process, trend and all.
fn block_edits(workload: Workload) -> usize {
    unit_edits(workload) * 8usize.div_ceil(unit_edits(workload))
}

/// The closed loop of one client: the next edit is sent when the previous
/// answer has been received and checked.
fn closed_loop(
    cfg: &Config,
    env: &Env,
    client_no: usize,
    script: &mut Script,
    first_index: usize,
    epoch: Instant,
) -> Result<Loop, String> {
    let mut out = Loop::default();
    let mut client = new_client(cfg.workload, env)?;
    let flights_rows = cfg.workload.rows(cfg.scale) as u64;
    let mut on = Tracer::new(epoch, true);
    let mut off = Tracer::new(epoch, false);
    let started = Instant::now();
    for index in first_index.. {
        let done = index - first_index;
        match cfg.budget {
            Budget::Seconds(s) if started.elapsed().as_secs_f64() >= s => break,
            Budget::Edits(n) if done >= n => break,
            _ => {}
        }
        let traced = cfg.trace
            && (matches!(cfg.budget, Budget::Edits(_))
                || !(done / block_edits(cfg.workload)).is_multiple_of(4));
        let t = if traced { &mut on } else { &mut off };
        let edit = script.next().expect("scripts are endless");
        let id = (client_no as u64) << 32 | index as u64;
        client.prepare(&edit);
        let at_s = started.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let answer = client.submit(&edit, id, t);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut sample = Sample {
            index,
            traced,
            at_s,
            ms,
            ok: false,
            write: edit.op != Op::Query,
            served: Served::Write,
            digest: None,
            rows_scanned: 0,
            queue_wait_ms: 0.0,
            shed_retries: 0,
        };
        match &answer {
            Ok(a) => {
                sample.ok = a.meets(edit.expect, flights_rows);
                if !sample.ok {
                    eprintln!(
                        "edit {index}: expected {:?}, served from {:?} (stage hits {}, rows scanned {})",
                        edit.expect, a.served, a.stage_hits, a.rows_scanned
                    );
                }
                sample.served = a.served;
                sample.digest = a.batch.as_ref().map(digest);
                sample.rows_scanned = a.rows_scanned;
                sample.queue_wait_ms = a.queue_wait.as_secs_f64() * 1e3;
                sample.shed_retries = a.shed_retries;
            }
            Err(e) => eprintln!("edit {index} failed: {e}"),
        }
        if let (true, Ok(a)) = (traced, &answer) {
            t.record(id, EDIT, ROOT, ms);
            match cfg.workload {
                Workload::TabEditSession => layers::decompose_browser_edit(t, id, env, &edit, a),
                Workload::WireDetailPages => layers::decompose_wire_edit(t, id, env, &edit, a),
                _ => layers::decompose_service_edit(t, id, env, &edit, a),
            }
        }
        out.samples.push(sample);
    }
    out.spans = on.spans;
    out.browser_caches = client.browser_caches();
    Ok(out)
}

/// Compare sampled answers with the reference path, replaying every write
/// in order on the reference side; an edit whose bytes differ is marked
/// failed. Returns how many were compared.
fn verify(cfg: &Config, loops: &mut [Loop]) -> u64 {
    let reference = Env::reference(cfg.workload, cfg.scale);
    let seed = if cfg.wrong_reference {
        cfg.seed.wrapping_add(1)
    } else {
        cfg.seed
    };
    let stride = cfg.workload.verify_stride(cfg.scale);
    let unit = unit_edits(cfg.workload);
    let n_clients = loops.len();
    let mut compared = 0;
    for (c, run) in loops.iter_mut().enumerate() {
        let Some(last) = run.samples.last().map(|s| s.index) else {
            continue;
        };
        let first = run.samples[0].index;
        let script = Script::new(cfg.workload, seed, c, n_clients);
        for (index, edit) in script.take(last + 1).enumerate() {
            if edit.op != Op::Query {
                if let Err(e) = reference.write(&edit) {
                    eprintln!("reference write {index} failed: {e}");
                    if index >= first {
                        run.samples[index - first].ok = false;
                    }
                }
                continue;
            }
            if index < first || !((index - first) / unit).is_multiple_of(stride) {
                continue;
            }
            let sample = &mut run.samples[index - first];
            let expected = reference.reference_answer(&edit).map(|b| digest(&b));
            compared += 1;
            if expected.as_ref().ok() != sample.digest.as_ref() {
                sample.ok = false;
                eprintln!(
                    "edit {index}: answer {:?} differs from reference {:?}",
                    sample.digest, expected
                );
            }
        }
    }
    compared
}

/// Sum of the named spans' durations per edit.
fn per_edit(spans: &[Span], names: &[&str]) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *sums.entry(s.edit_id).or_default() += s.ms();
    }
    sums.into_values().collect()
}

fn total(spans: &[Span], name: &str, key: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .flat_map(|s| &s.counts)
        .filter(|(k, _)| *k == key)
        .map(|(_, v)| *v as f64)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counters read before and after the timed phase.
struct Counters {
    directory: sigma_service::DirectoryStats,
    shed: u64,
    pool_parks: usize,
}

fn counters(env: &Env) -> Counters {
    Counters {
        directory: env
            .service
            .directory_stats(crate::env::CONNECTION)
            .unwrap_or_default(),
        shed: env
            .service
            .workload_stats(crate::env::CONNECTION)
            .map_or(0, |w| w.shed),
        pool_parks: sigma_cdw::worker_pool_stats().parks,
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    loops: &[Loop],
    spans: &[Span],
    before: &Counters,
    after: &Counters,
    compared: u64,
    failed: u64,
) -> Vec<Metric> {
    let samples: Vec<&Sample> = loops.iter().flat_map(|l| &l.samples).collect();
    let traced: Vec<&Sample> = samples.iter().copied().filter(|s| s.traced).collect();
    let plain: Vec<f64> = samples.iter().filter(|s| !s.traced).map(|s| s.ms).collect();
    let queries = samples.iter().filter(|s| !s.write).count() as f64;
    let writes = samples.iter().filter(|s| s.write).count() as f64;
    let own = self_times(spans);
    let own_p50 = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    let p50_of = |names: &[&str]| median(&per_edit(spans, names));
    let count_of = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    // browser: which tier answered, and how fast.
    let tier = |pred: fn(Source) -> bool| -> Vec<f64> {
        traced
            .iter()
            .filter(|s| matches!(s.served, Served::Browser(src) if pred(src)))
            .map(|s| s.ms)
            .collect()
    };
    let tab_edits = tier(|_| true).len() as f64;
    let tiers = [
        ("cache", tier(|s| s == Source::BrowserCache)),
        ("delta", tier(|s| s == Source::LocalDelta)),
        ("residual", tier(|s| s == Source::LocalResidual)),
        ("local", tier(|s| s == Source::LocalEngine)),
        (
            "service",
            tier(|s| matches!(s, Source::Warehouse | Source::ServiceDirectory)),
        ),
    ];
    for (name, ms) in &tiers {
        put(
            &format!("browser.tier_share.{name}"),
            ratio(ms.len() as f64, tab_edits),
        );
        match *name {
            "local" => {}
            "service" => put("browser.open_p50_ms", median(ms)),
            _ => put(&format!("browser.{name}_p50_ms"), median(ms)),
        }
    }
    if let Some((results, stages)) = loops.iter().find_map(|l| l.browser_caches) {
        let share = |(hits, misses): (u64, u64)| ratio(hits as f64, (hits + misses) as f64);
        put("browser.result_cache_hit_share", share(results));
        put("browser.stage_cache_hit_share", share(stages));
    }

    // core / sql: direct calls of the compiler, the JSON codec, the parser
    // and the printer.
    put("core.compile_p50_ms", p50_of(&["core.compile"]));
    put(
        "core.json_p50_ms",
        p50_of(&["core.to_json", "core.from_json"]),
    );
    put(
        "core.stages_per_plan",
        ratio(
            total(spans, "core.compile", "stages"),
            count_of("core.compile"),
        ),
    );
    put("sql.parse_p50_ms", p50_of(&["sql.parse"]));
    put("sql.print_p50_ms", p50_of(&["sql.print"]));

    // cdw: planning, execution and the operators inside it.
    put("cdw.plan_p50_ms", own_p50("cdw.plan"));
    let execute = per_edit(spans, &["cdw.execute"]);
    let executed = execute.len() as f64;
    put("cdw.execute_p50_ms", median(&execute));
    let scanned: f64 = traced.iter().map(|s| s.rows_scanned as f64).sum();
    put(
        "cdw.rows_scanned_per_edit",
        ratio(scanned, traced.iter().filter(|s| !s.write).count() as f64),
    );
    put(
        "cdw.rows_per_s",
        ratio(
            total(spans, "cdw.execute", "rows_scanned"),
            execute.iter().sum::<f64>() / 1e3,
        ),
    );
    for op in layers::OPERATORS {
        put(
            &format!("cdw.op_ms.{op}"),
            ratio(total(spans, "cdw.execute", op) / 1e6, executed),
        );
    }
    for count in ["morsels", "spilled_bytes"] {
        put(
            &format!("cdw.{count}_per_edit"),
            ratio(total(spans, "cdw.execute", count), executed),
        );
    }
    put(
        "cdw.pool_parks_per_edit",
        ratio(
            (after.pool_parks - before.pool_parks) as f64,
            samples.len() as f64,
        ),
    );

    // service: what run_query keeps for itself, and its caches.
    put("service.self_p50_ms", own_p50("service.run_query"));
    let (d0, d1) = (&before.directory, &after.directory);
    let share = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    put(
        "service.directory_hit_share",
        share(d1.hits - d0.hits, d1.misses - d0.misses),
    );
    put(
        "service.stage_hit_share",
        share(
            d1.stage_hits - d0.stage_hits,
            d1.stage_misses - d0.stage_misses,
        ),
    );
    put(
        "service.invalidated_per_write",
        ratio((d1.invalidated - d0.invalidated) as f64, writes),
    );
    let of_traced = |write: bool, value: fn(&Sample) -> f64| -> Vec<f64> {
        traced
            .iter()
            .filter(|s| s.write == write)
            .map(|s| value(s))
            .collect()
    };
    put(
        "service.queue_wait_p50_ms",
        median(&of_traced(false, |s| s.queue_wait_ms)),
    );
    put("service.shed", (after.shed - before.shed) as f64);
    put("service.write_p50_ms", median(&of_traced(true, |s| s.ms)));

    // value / protocol / server: the bytes an answer crosses the wire as.
    let ns_per_byte = |name: &str| {
        let ns: f64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms() * 1e6)
            .sum();
        ratio(ns, total(spans, name, "bytes"))
    };
    put(
        "value.encode_ns_per_byte",
        ns_per_byte("value.encode_batch"),
    );
    put(
        "value.decode_ns_per_byte",
        ns_per_byte("value.decode_batch"),
    );
    put(
        "protocol.encode_p50_ms",
        p50_of(&[
            "protocol.encode_request",
            "protocol.from_batch",
            "protocol.encode_response",
        ]),
    );
    put(
        "protocol.decode_p50_ms",
        p50_of(&[
            "protocol.decode_request",
            "protocol.decode_response",
            "protocol.to_batch",
        ]),
    );
    let wire_edits = count_of("protocol.encode_response");
    let request = total(spans, "protocol.encode_request", "bytes");
    let response = total(spans, "protocol.encode_response", "bytes");
    put("protocol.request_bytes", ratio(request, wire_edits));
    put("protocol.response_bytes", ratio(response, wire_edits));
    put(
        "protocol.armor_ratio",
        ratio(response, total(spans, "value.encode_batch", "bytes")),
    );
    put(
        "protocol.wire_bytes_per_edit",
        ratio(request + response, wire_edits),
    );
    put("server.overhead_p50_ms", own_p50("server.query_element"));

    // Shares of the whole-edit time, and what tracing itself cost.
    let shares = layer_shares(spans);
    for (layer, share) in &shares {
        put(&format!("share.{layer}"), *share);
    }
    put(
        "share.unattributed",
        (1.0 - shares.values().sum::<f64>()).max(0.0),
    );
    let roots: Vec<f64> = traced.iter().map(|s| s.ms).collect();
    put("trace.edit_p50_ms", median(&roots));
    if !plain.is_empty() {
        put(
            "trace.overhead_share",
            ratio(median(&roots), median(&plain)) - 1.0,
        );
    }
    put("trace.edits", traced.len() as f64);
    put(
        "check.failed_share",
        ratio(failed as f64, samples.len() as f64),
    );
    put("check.compared_share", ratio(compared as f64, queries));
    debug_assert!(m.keys().all(|k| PER_LAYER.iter().any(|(n, _, _)| n == k)));
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| Metric::new(*name, m.get(*name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Time slices of the timed phase. The reference host is shared and its
/// speed comes and goes in bursts that last seconds; interference only
/// ever slows an edit down, so the timed metrics are read off the
/// quietest slice — each still holds a hundred edits or more.
const SLICES: usize = 4;

/// p50, p90 and rate of the edits `keep` selects.
fn timed(loops: &[Loop], keep: impl Fn(&Sample) -> bool) -> [f64; 3] {
    let latencies = sorted(
        loops
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| keep(s))
            .map(|s| s.ms)
            .collect(),
    );
    // Closed loop: a client is either waiting on an edit or checking the
    // answer; the rate counts only the waiting, summed over clients.
    let rate: f64 = loops
        .iter()
        .map(|l| {
            let mine: Vec<f64> = l.samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect();
            ratio(mine.len() as f64, mine.iter().sum::<f64>() / 1e3)
        })
        .sum();
    [
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        rate,
    ]
}

/// The end-to-end metrics of an untraced run, and the whole-run values of
/// the three timed ones for the record.
fn end_to_end(loops: &[Loop], setups: &[f64], peak_rss_mb: f64) -> (Vec<Metric>, [f64; 3]) {
    let end = loops
        .iter()
        .flat_map(|l| &l.samples)
        .map(|s| s.at_s)
        .fold(f64::MIN_POSITIVE, f64::max);
    let slices: Vec<[f64; 3]> = (0..SLICES)
        .map(|k| {
            timed(loops, |s| {
                ((s.at_s / end * SLICES as f64) as usize).min(SLICES - 1) == k
            })
        })
        .collect();
    let best = |i: usize, pick: fn(f64, f64) -> f64| {
        slices.iter().map(|v| v[i]).reduce(pick).unwrap_or(0.0)
    };
    let values = [
        best(0, f64::min),
        best(1, f64::min),
        best(2, f64::max),
        peak_rss_mb,
        median(setups),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(e, v)| Metric::new(e.name, v, e.unit))
        .collect();
    (metrics, timed(loops, |_| true))
}

/// Set-ups beyond `Config::setups` (up to three times as many) are made
/// while all of them together have taken less than this.
const MORE_SETUPS_WITHIN_S: f64 = 3.0;

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let n_clients = clients(cfg.workload, cfg.trace);
    let mut setups = Vec::new();
    let mut kept = None;
    // A set-up of a few dozen milliseconds jitters by a fifth; cheap
    // set-ups are repeated more often so that their median holds still.
    while setups.len() < cfg.setups.max(1)
        || (setups.len() < 3 * cfg.setups && setups.iter().sum::<f64>() < MORE_SETUPS_WITHIN_S)
    {
        drop(kept.take()); // one environment in memory at a time
        let t0 = Instant::now();
        kept = Some(set_up(cfg, n_clients)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (env, mut scripts) = kept.expect("at least one set-up");

    let before = counters(&env);
    let epoch = Instant::now();
    let first_index = warmup_edits(cfg.workload);
    let barrier = Barrier::new(n_clients);
    let mut loops: Vec<Loop> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter_mut()
            .enumerate()
            .map(|(c, script)| {
                let (env, barrier) = (&env, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    closed_loop(cfg, env, c, script, first_index, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<Loop>, String>>()
    })?;
    let after = counters(&env);
    let peak_rss_mb = vm_hwm_mib();
    let pool_target = sigma_cdw::worker_pool_stats().target;
    drop(env);

    let compared = verify(cfg, &mut loops);
    let spans: Vec<Span> = loops
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.spans))
        .collect();
    let samples = || loops.iter().flat_map(|l| &l.samples);
    let attempted = samples().count() as u64;
    let failed = samples().filter(|s| !s.ok).count() as u64;
    let mut whole_run = [0.0; 3];
    let metrics = if cfg.trace {
        per_layer(&loops, &spans, &before, &after, compared, failed)
    } else {
        let (metrics, whole) = end_to_end(&loops, &setups, peak_rss_mb);
        whole_run = whole;
        metrics
    };
    let result = RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        notes: vec![
            ("workload", cfg.workload.name().to_string()),
            ("seed", cfg.seed.to_string()),
            ("rows", cfg.workload.rows(cfg.scale).to_string()),
            ("nproc", nproc().to_string()),
            ("clients", n_clients.to_string()),
            ("worker_pool_target", pool_target.to_string()),
            ("warmup_edits_per_client", first_index.to_string()),
            ("timed_edits", attempted.to_string()),
            (
                "timed_writes",
                samples().filter(|s| s.write).count().to_string(),
            ),
            ("compared_with_reference", compared.to_string()),
            (
                "shed_retries",
                samples().map(|s| s.shed_retries).sum::<u64>().to_string(),
            ),
            (
                "whole_run_p50_p90_rate",
                whole_run.map(|v| format!("{v:.4}")).join(" "),
            ),
            (
                "setup_s_each",
                setups
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ],
    };
    if let Some(dir) = &cfg.out_dir {
        write_files(cfg, dir, &result, &spans).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(result)
}

fn write_files(
    cfg: &Config,
    dir: &PathBuf,
    result: &RunResult,
    spans: &[Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let kind = if cfg.trace { "trace" } else { "e2e" };
    let stem = format!("{}_seed{}_{kind}", cfg.workload.name(), cfg.seed);
    let notes: Vec<String> = result
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!(
            "{{\"notes\": {{{}}}, \"result\": {}}}\n",
            notes.join(", "),
            result.line()
        ),
    )?;
    if cfg.trace {
        write_spans(spans, &dir.join(format!("{stem}_spans.jsonl")))?;
    }
    Ok(())
}
