//! Metric names, units and the result line, in `BENCHMARK.json` order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs) with a bound: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("first_slice_p50_ms", "ms"),
    ("first_slice_p90_ms", "ms"),
    ("complete_p50_ms", "ms"),
    ("complete_p90_ms", "ms"),
    ("betti_exact_pct", "%"),
];

/// End-to-end metrics measured by untraced runs but printed only in the
/// meta line: their spread between runs is too wide for a bound (see
/// `README.md`).
pub const UNBOUNDED: [(&str, &str); 2] =
    [("interactive_first_slice_p50_ms", "ms"), ("interactive_first_slice_p90_ms", "ms")];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("service.submit_call_us_p50", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.linger_ms_p50", "ms"),
    ("service.delivery_ms_p50", "ms"),
    ("service.mean_batch_size", "count"),
    ("service.batches_formed", "count"),
    ("service.rejected_overloaded", "count"),
    ("cluster.routed_max_over_mean", "ratio"),
    ("cluster.steals_total", "count"),
    ("cluster.hot_promotions_total", "count"),
    ("engine.cache_hit_pct", "%"),
    ("engine.cache_evictions", "count"),
    ("engine.dedup_total", "count"),
    ("engine.cache_probe_ms_sum", "ms"),
    ("engine.computed_jobs", "count"),
    ("engine.units_executed", "count"),
    ("engine.solve_ms_sum", "ms"),
    ("engine.arena_build_ms_sum", "ms"),
    ("engine.persistence_ms_sum", "ms"),
    ("engine.arena_bytes_peak", "B"),
    ("core.unit_dense_ms_p50", "ms"),
    ("core.unit_dense_count", "count"),
    ("core.unit_sparse_ms_p50", "ms"),
    ("core.unit_sparse_count", "count"),
    ("core.busy_ms_per_job", "ms"),
    ("tda.arena_build_ms_p50", "ms"),
    ("tda.arena_bytes_p50", "B"),
    ("tda.persist_row_ms_p50", "ms"),
    ("tda.bars_ms_p50", "ms"),
    ("linalg.matvecs_per_job", "count"),
    ("linalg.lanczos_iterations_per_job", "count"),
    ("linalg.restarts_per_job", "count"),
    ("linalg.block_width_max", "count"),
    ("linalg.computed_mb_per_job", "MB"),
    ("obs.trace_coverage_pct", "%"),
    ("obs.tracing_overhead_pct", "%"),
    ("loadgen.probe_late_ms_p90", "ms"),
];

/// A measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Metric values by name, checked against a table when rendered.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Value>,
    /// Percentiles that lacked samples (reported as 0).
    pub short: Vec<&'static str>,
}

impl Metrics {
    /// Sets `name` from `samples` observations.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// Sets `name` to `value`, or to 0 (noted in [`Self::short`]) when
    /// the samples did not support one.
    pub fn set_or_short(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if value.is_none() {
            self.short.push(name);
        }
        self.set(name, value.unwrap_or(0.0), samples);
    }

    /// Sets `name` to the `p`-th percentile of `samples` (see
    /// [`Self::set_or_short`]).
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: u32) {
        self.set_or_short(name, crate::stats::percentile(samples, p), samples.len());
    }

    /// `"name": {"value": v, "unit": "u"}` for every metric of `table`,
    /// plus the sample counts; fails if any is missing or not finite.
    pub fn render(&self, table: &[(&str, &str)]) -> Result<(String, String), String> {
        let (mut metrics, mut counts) = (String::new(), String::new());
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.values.get(name).ok_or(format!("metric {name} was not measured"))?;
            if !v.value.is_finite() {
                return Err(format!("metric {name} is {}", v.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(metrics, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", v.value)
                .expect("writing to a String cannot fail");
            write!(counts, "{sep}\"{name}\": {}", v.samples)
                .expect("writing to a String cannot fail");
        }
        Ok((format!("{{{metrics}}}"), format!("{{{counts}}}")))
    }
}

/// The result line, printed last: what a caller of the benchmark parses.
pub fn result_line(attempted: usize, failed: usize, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and `BENCHMARK.json` must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = json[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order"));
            at += found + needle.len();
        }
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_needs_every_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.5, 3);
        assert!(m.render(&[("a", "ms"), ("b", "ms")]).is_err());
        m.set_percentile("b", &[1.0; 5], 90);
        let (metrics, counts) = m.render(&[("a", "ms"), ("b", "ms")]).unwrap();
        assert_eq!(
            metrics,
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}"
        );
        assert_eq!(counts, "{\"a\": 3, \"b\": 5}");
        assert_eq!(m.short, vec!["b"]);
        m.set("a", f64::NAN, 1);
        assert!(m.render(&[("a", "ms")]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
