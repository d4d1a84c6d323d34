//! The result line and the report line: metric tables, order statistics
//! and a minimal JSON writer.

use std::collections::BTreeMap;

/// A metric table: `(name, unit)` pairs.
pub type Table = &'static [(&'static str, &'static str)];

/// End-to-end metrics (untraced runs): name and unit. Mirrors the
/// `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: Table = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("cpu_us_per_req", "us"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit. Mirrors the
/// `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: Table = &[
    ("graph.load_ms", "ms"),
    ("graph.working_set_mb", "MiB"),
    ("registry.index_build_ms", "ms"),
    ("sampling.walk_ns_per_step", "ns"),
    ("sampling.walk_steps", "count"),
    ("sampling.walk_rejections", "count"),
    ("sampling.push_ns_per_sample", "ns"),
    ("sampling.materialize_ms", "ms"),
    ("sampling.induced_edges", "count"),
    ("sampling.induced_edges_per_rep", "count"),
    ("core.bootstrap_ms", "ms"),
    ("core.estimate_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.outside_handler_us", "us"),
    ("serve.client_cpu_us_per_req", "us"),
    ("eval.experiment_s", "s"),
    ("eval.samples_observed", "count"),
    ("scenarios.plan_ms", "ms"),
    ("scenarios.artifact_ms", "ms"),
    ("scenarios.idle_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Quotes a string as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of numbers.
pub fn json_list(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
    )
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of sorted samples, nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The highest of `candidates` (descending) that leaves at least ten
/// samples beyond it, with its value. `None` when fewer than 20 samples.
pub fn tail(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .find(|&&q| (sorted.len() as f64) * (1.0 - q) >= 10.0)
        .map(|&q| (q, quantile(sorted, q)))
}

/// Metric values collected by a run, keyed by name.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The `"metrics"` object for `table`, in table order. Fails when a
    /// metric of the table was not recorded or is not a finite number.
    pub fn render(&self, table: Table) -> Result<String, String> {
        let mut parts = Vec::new();
        for &(name, unit) in table {
            let v = self
                .0
                .get(name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            parts.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(*v),
                quote(unit)
            ));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }
}

/// The result of one benchmark run.
pub struct Outcome {
    /// Operations attempted (requests, or scenario jobs).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Extra JSON members for the report line (`"key":value` pairs).
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a detail member.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }
}

/// The last stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(o: &Outcome, table: Table) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        o.metrics.render(table)?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, &[0.99, 0.9, 0.5]), Some((0.99, 990.0)));
        assert_eq!(tail(&v[..200], &[0.99, 0.9, 0.5]).map(|t| t.0), Some(0.9));
        assert_eq!(tail(&v[..5], &[0.99, 0.9, 0.5]), None);
    }

    #[test]
    fn every_metric_prints_with_name_and_unit() {
        for table in [END_TO_END, PER_LAYER] {
            let mut m = Metrics::default();
            for &(name, _) in table {
                m.set(name, 1.5);
            }
            let text = m.render(table).unwrap();
            let doc = cgte_scenarios::artifact::parse_json(&text).unwrap();
            for &(name, unit) in table {
                let entry = doc.get(name).expect("metric present");
                assert_eq!(
                    entry.get("unit"),
                    Some(&cgte_scenarios::artifact::Json::Str(unit.to_string()))
                );
                assert_eq!(
                    entry.get("value"),
                    Some(&cgte_scenarios::artifact::Json::Num(1.5))
                );
            }
            m.set(table[0].0, f64::NAN);
            assert!(m.render(table).is_err(), "a non-finite metric is an error");
            m.0.remove(table[0].0);
            assert!(m.render(table).is_err(), "a missing metric is an error");
        }
    }
}
