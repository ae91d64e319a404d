//! Metric names, the run envelope and the one-line result document.

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`. Their meaning per workload is in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("ttr_p50_ms", "ms"),
    ("path_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where the
/// workload does not exercise the layer), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("client.ttr_ms.p99", "ms"),
    ("client.submit_ms.p50", "ms"),
    ("client.submit_ms.p99", "ms"),
    ("client.polls_per_job", "count"),
    ("client.http_requests_per_job", "count"),
    ("client.refused_share", "ratio"),
    ("gen.lag_ms.p99", "ms"),
    ("gen.lag_ms.max", "ms"),
    ("service.handler_ms.p50", "ms"),
    ("service.handler_ms.p99", "ms"),
    ("service.wait_ms.p50", "ms"),
    ("service.wait_ms.p99", "ms"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.inserts", "count"),
    ("cache.evictions", "count"),
    ("cache.key_us.p50", "us"),
    ("build.realize_s", "s"),
    ("build.job_us.p50", "us"),
    ("engine.job_ms.p50", "ms"),
    ("engine.job_ms.p99", "ms"),
    ("engine.busy_share", "ratio"),
    ("engine.attempts_per_job", "count"),
    ("engine.failed", "count"),
    ("op.newton_iters.mean", "count"),
    ("op.newton_iters.p50", "count"),
    ("op.newton_iters.max", "count"),
    ("op.newton_iters.total", "count"),
    ("op.homotopy_share", "ratio"),
    ("op.us_per_newton_iter", "us"),
    ("op.dense_share", "ratio"),
    ("tran.steps_per_job", "count"),
    ("tran.step_failures", "count"),
    ("tran.lte_rejections", "count"),
    ("tran.newton_iters_per_step", "count"),
    ("linalg.factor_per_job", "count"),
    ("linalg.refactor_per_job", "count"),
    ("linalg.solve_per_job", "count"),
    ("linalg.symbolic_reuse_ratio", "ratio"),
    ("linalg.factor_nnz", "count"),
    ("linalg.factor_us", "us"),
    ("linalg.solve_us", "us"),
    ("ensemble.lane_utilization", "ratio"),
    ("ensemble.scalar_fallback_share", "ratio"),
    ("ensemble.lockstep_iters", "count"),
    ("ensemble.factors", "count"),
    ("mc.trial_ms.p50", "ms"),
    ("mc.trial_ms.p99", "ms"),
    ("mc.blocks_per_worker", "count"),
    ("sink.retained_samples", "count"),
    ("sink.stride", "count"),
    ("trace.overhead_share", "ratio"),
    ("ledger.client_s", "s"),
    ("ledger.build_s", "s"),
    ("ledger.engine_s", "s"),
    ("ledger.wire_s", "s"),
    ("ledger.montecarlo_s", "s"),
    ("ledger.bench_s", "s"),
    ("ledger.unattributed_s", "s"),
];

/// Layers the ledger metrics name, in `ledger.<layer>_s` order.
pub const LEDGER_LAYERS: [&str; 6] = ["client", "build", "engine", "wire", "montecarlo", "bench"];

/// A metric name the result document may carry: a letter or digit, then
/// at most 63 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Named metric values; unknown names are a programming error.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Renders a finite number with all its digits (non-finite → 0 plus a
/// warning, since JSON has no NaN).
fn num(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: metric {name} is not finite ({v}); reported as 0");
        "0".to_owned()
    }
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every name of `declared`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&'static str, &'static str)],
    values: &Metrics,
) -> String {
    let body: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(name, values.get(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Renders envelope fields as a JSON object (values are pre-rendered JSON).
pub fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Quotes `s` as a JSON string.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", fts_server::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_server::Json;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric name {name:?}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        assert!(!valid_name("ttr p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        for (name, _) in LEDGER_LAYERS.iter().map(|l| (format!("ledger.{l}_s"), ())) {
            assert!(
                PER_LAYER.iter().any(|&(n, _)| n == name),
                "{name} undeclared"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        let line = result_line(true, 10, 1, &END_TO_END, &m);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let entry = metrics.get(name).expect("every declared metric");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
    }
}
