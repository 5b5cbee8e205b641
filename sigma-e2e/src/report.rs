//! The one percentile / JSON / `VmHWM` helper: every number the binary
//! prints goes through here, with its unit.

use std::fmt::Write as _;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a person waiting on the workbook sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them (a test pins the
/// two against each other). Every bound is the contract's maximum: ten
/// fresh processes on the shared 2-core reference host spread by up to 11%
/// whatever the program does (README, "Why slices, and why 25%"); a gain
/// smaller than a bound is claimed from alternating paired runs.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "edit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "edit_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "edits_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics of the traced run, in print order. Every workload
/// prints every one of them; a layer the workload does not reach reads 0.
/// They carry no bound.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("browser.tier_share.cache", "ratio", Better::Higher),
    ("browser.tier_share.delta", "ratio", Better::Higher),
    ("browser.tier_share.residual", "ratio", Better::Higher),
    ("browser.tier_share.local", "ratio", Better::Lower),
    ("browser.tier_share.service", "ratio", Better::Lower),
    ("browser.cache_p50_ms", "ms", Better::Lower),
    ("browser.delta_p50_ms", "ms", Better::Lower),
    ("browser.residual_p50_ms", "ms", Better::Lower),
    ("browser.open_p50_ms", "ms", Better::Lower),
    ("browser.result_cache_hit_share", "ratio", Better::Higher),
    ("browser.stage_cache_hit_share", "ratio", Better::Higher),
    ("core.compile_p50_ms", "ms", Better::Lower),
    ("core.json_p50_ms", "ms", Better::Lower),
    ("core.stages_per_plan", "count", Better::Lower),
    ("sql.parse_p50_ms", "ms", Better::Lower),
    ("sql.print_p50_ms", "ms", Better::Lower),
    ("cdw.plan_p50_ms", "ms", Better::Lower),
    ("cdw.execute_p50_ms", "ms", Better::Lower),
    ("cdw.rows_scanned_per_edit", "count", Better::Lower),
    ("cdw.rows_per_s", "1/s", Better::Higher),
    ("cdw.op_ms.scan", "ms", Better::Lower),
    ("cdw.op_ms.filter", "ms", Better::Lower),
    ("cdw.op_ms.project", "ms", Better::Lower),
    ("cdw.op_ms.aggregate", "ms", Better::Lower),
    ("cdw.op_ms.join", "ms", Better::Lower),
    ("cdw.op_ms.window", "ms", Better::Lower),
    ("cdw.op_ms.sort", "ms", Better::Lower),
    ("cdw.op_ms.other", "ms", Better::Lower),
    ("cdw.morsels_per_edit", "count", Better::Lower),
    ("cdw.spilled_bytes_per_edit", "bytes", Better::Lower),
    ("cdw.pool_parks_per_edit", "count", Better::Lower),
    ("service.self_p50_ms", "ms", Better::Lower),
    ("service.directory_hit_share", "ratio", Better::Higher),
    ("service.stage_hit_share", "ratio", Better::Higher),
    ("service.invalidated_per_write", "count", Better::Lower),
    ("service.queue_wait_p50_ms", "ms", Better::Lower),
    ("service.shed", "count", Better::Lower),
    ("service.write_p50_ms", "ms", Better::Lower),
    ("value.encode_ns_per_byte", "ns/byte", Better::Lower),
    ("value.decode_ns_per_byte", "ns/byte", Better::Lower),
    ("protocol.encode_p50_ms", "ms", Better::Lower),
    ("protocol.decode_p50_ms", "ms", Better::Lower),
    ("protocol.request_bytes", "bytes", Better::Lower),
    ("protocol.response_bytes", "bytes", Better::Lower),
    ("protocol.armor_ratio", "ratio", Better::Lower),
    ("protocol.wire_bytes_per_edit", "bytes", Better::Lower),
    ("server.overhead_p50_ms", "ms", Better::Lower),
    ("share.browser", "ratio", Better::Lower),
    ("share.core", "ratio", Better::Lower),
    ("share.sql", "ratio", Better::Lower),
    ("share.cdw", "ratio", Better::Lower),
    ("share.service", "ratio", Better::Lower),
    ("share.value", "ratio", Better::Lower),
    ("share.protocol", "ratio", Better::Lower),
    ("share.server", "ratio", Better::Lower),
    ("share.unattributed", "ratio", Better::Lower),
    ("trace.edit_p50_ms", "ms", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.edits", "count", Better::Higher),
    ("check.failed_share", "ratio", Better::Lower),
    ("check.compared_share", "ratio", Better::Higher),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            // An empty float sum is -0.0; print it as 0.
            value: value + 0.0,
            unit,
        }
    }
}

/// Value at quantile `p` of an ascending slice (nearest rank); 0 if empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method) — the
/// acceptance check computes its spread from exactly these.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where `/proc`
/// does not exist.
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line the benchmark contract fixes: exactly these four keys.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), [1.5, 3.0, 8.5]);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn percentiles_and_json() {
        let v = sorted(vec![5.0, 1.0, 3.0]);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let line = result_line(true, 3, 0, &[Metric::new("a_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
