//! Outside-in spans: the harness wraps its own calls into each layer's
//! public functions. Spans stay in memory and are written when the run
//! ends; span names are `layer.function`, so an in-program trace can adopt
//! them unchanged.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_string;

/// Layers are this repository's crates.
pub const LAYERS: [&str; 8] = [
    "browser", "core", "sql", "cdw", "service", "value", "protocol", "server",
];

/// Parent of a root span.
pub const ROOT: &str = "";

#[derive(Debug, Clone)]
pub struct Span {
    pub edit_id: u64,
    pub name: &'static str,
    /// Name of the span that caused this one (`ROOT` for the whole edit).
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (bytes, rows, morsels).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Tracers of one run share `epoch`, so their spans share a clock. A
    /// tracer that is off calls straight through and records nothing.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Time one call into a layer.
    pub fn span<T>(
        &mut self,
        edit_id: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            edit_id,
            name,
            parent,
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        });
        out
    }

    /// Attach a count to the span recorded last.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(span) = self.spans.last_mut() {
            span.counts.push((key, value));
        }
    }

    /// Record a span measured elsewhere (the whole edit, timed by the
    /// closed loop itself).
    pub fn record(&mut self, edit_id: u64, name: &'static str, parent: &'static str, ms: f64) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        let ns = (ms * 1e6) as u64;
        self.spans.push(Span {
            edit_id,
            name,
            parent,
            start_ns: end.saturating_sub(ns),
            end_ns: end,
            counts: Vec::new(),
        });
    }
}

/// One JSON object per span and line.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            out,
            "{{\"edit_id\": {}, \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}",
            s.edit_id,
            json_string(s.name),
            json_string(s.parent),
            s.start_ns,
            s.end_ns
        )?;
        for (k, v) in &s.counts {
            write!(out, ", {}: {v}", json_string(k))?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

/// Self time per span name and edit: the spans of that name minus the part
/// their child spans cover. The decomposed children are separate calls, so
/// a child can overrun its parent; self time is floored at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut own: BTreeMap<(u64, &'static str), f64> = BTreeMap::new();
    let mut children: BTreeMap<(u64, &'static str), f64> = BTreeMap::new();
    for s in spans {
        *own.entry((s.edit_id, s.name)).or_default() += s.ms();
        if s.parent != ROOT {
            *children.entry((s.edit_id, s.parent)).or_default() += s.ms();
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((edit, name), ms) in own {
        let covered = children.get(&(edit, name)).copied().unwrap_or(0.0);
        out.entry(name).or_default().push((ms - covered).max(0.0));
    }
    out
}

/// Each layer's share of the whole-edit time: the self times of its spans
/// summed over every traced edit, over the summed root spans.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let whole: f64 = spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(Span::ms)
        .sum();
    let mut shares: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    if whole > 0.0 {
        for (name, times) in self_times(spans) {
            let layer = name.split('.').next().unwrap_or(name);
            if let Some(share) = shares.get_mut(layer) {
                *share += times.iter().sum::<f64>() / whole;
            }
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(edit_id: u64, name: &'static str, parent: &'static str, ms: u64) -> Span {
        Span {
            edit_id,
            name,
            parent,
            start_ns: 0,
            end_ns: ms * 1_000_000,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, "service.run_query", ROOT, 10),
            span(1, "core.compile", "service.run_query", 2),
            span(1, "cdw.execute", "service.run_query", 5),
            span(1, "cdw.execute", "service.run_query", 1),
            span(1, "cdw.plan", "cdw.execute", 2),
            // A child measured in a separate call may overrun its parent.
            span(2, "service.run_query", ROOT, 1),
            span(2, "core.compile", "service.run_query", 3),
        ];
        let own = self_times(&spans);
        assert_eq!(own["service.run_query"], vec![2.0, 0.0]);
        assert_eq!(own["cdw.execute"], vec![4.0]);
        let shares = layer_shares(&spans);
        assert!((shares["cdw"] - 6.0 / 11.0).abs() < 1e-9);
        assert!((shares["core"] - 5.0 / 11.0).abs() < 1e-9);
        assert_eq!(shares["protocol"], 0.0);
    }
}
