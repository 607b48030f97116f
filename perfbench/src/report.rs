//! The metric vocabulary and the one-line JSON result.
//!
//! Every workload reports every end-to-end metric (they are defined so
//! that none reads zero); per-layer metrics a workload leaves idle read
//! zero. The names and units here are the ones `BENCHMARK.json` lists.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_reduction", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("front_end.us_p50", "us"),
    ("front_end.calls", "count"),
    ("front_end.unique_groups_mean", "count"),
    ("front_end.self_share", "share"),
    ("serve.hit_call_us_p50", "us"),
    ("serve.compile_s_per_group", "s"),
    ("serve.self_share", "share"),
    ("library.hit_rate", "share"),
    ("library.warm_share", "share"),
    ("library.evictions", "count"),
    ("library.entries", "count"),
    ("grape.iterations", "count"),
    ("grape.ms_per_iteration", "ms"),
    ("grape.warm_iterations_mean", "count"),
    ("grape.scratch_iterations_mean", "count"),
    ("grape.self_share", "share"),
    ("parallel.makespan_iterations", "count"),
    ("parallel.total_iterations", "count"),
    ("parallel.worker_busy_share", "share"),
    ("parallel.self_share", "share"),
    ("store.recovery_ms", "ms"),
    ("store.recovered_entries", "count"),
    ("store.wal_records", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.self_share", "share"),
    ("codec.response_bytes_mean", "bytes"),
    ("codec.encode_ms_p50", "ms"),
    ("codec.decode_ms_p50", "ms"),
    ("codec.self_share", "share"),
    ("server.residual_ms_p50", "ms"),
    ("server.busy_rejections", "count"),
    ("server.coalesced_waits", "count"),
    ("server.protocol_errors", "count"),
    ("server.self_share", "share"),
    ("generator.lag_ms_p99", "ms"),
    ("generator.sent", "count"),
    ("generator.succeeded", "count"),
    ("generator.failed", "count"),
    ("generator.self_share", "share"),
    ("load.request_p50_ms.light", "ms"),
    ("load.request_p95_ms.light", "ms"),
    ("load.request_p50_ms.heavy", "ms"),
    ("load.request_p95_ms.heavy", "ms"),
    ("load.max_rate_rps", "1/s"),
    ("trace.wall_s", "s"),
    ("trace.residual_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Named values of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` (overwriting).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (served programs, requests, checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong output.
    pub failed: u64,
    /// One line per wrong output.
    pub mismatches: Vec<String>,
    /// The measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one checked operation, recording `problem` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.mismatches.push(p);
        }
    }
}

/// The result line for `vocabulary` — an error naming the first metric
/// the workload did not measure, or measured as a non-finite number.
/// Per-layer metrics a workload leaves idle read zero, so only the
/// end-to-end vocabulary is strict.
pub fn result_line(
    outcome: &Outcome,
    vocabulary: &[(&str, &str)],
    strict: bool,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in vocabulary.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() && (!strict || v > 0.0) => v,
            Some(v) => return Err(format!("metric {name} measured {v}")),
            None if strict => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    ))
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_vocabulary_rejects_missing_and_zero_metrics() {
        let mut outcome = Outcome::default();
        outcome.check(None);
        let vocab = [("wall_s", "s")];
        assert!(result_line(&outcome, &vocab, true).is_err());
        outcome.metrics.set("wall_s", 0.0);
        assert!(result_line(&outcome, &vocab, true).is_err());
        outcome.metrics.set("wall_s", 1.5);
        let line = result_line(&outcome, &vocab, true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        // Idle layers read zero in the lenient vocabulary.
        let idle = result_line(&outcome, &[("store.wal_records", "count")], false).unwrap();
        assert!(idle.contains("\"value\": 0,"), "{idle}");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.metrics.set("wall_s", 1.0);
        outcome.check(None);
        outcome.check(Some("bytes differ".into()));
        let line = result_line(&outcome, &[("wall_s", "s")], true).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    fn vocabularies_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = accqoc::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(accqoc::json::JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn vocabularies_have_unique_well_formed_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(seen.contains("setup_s"));
    }
}
