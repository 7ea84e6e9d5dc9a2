//! The metric catalogue and the result line.
//!
//! Every run prints all metrics of its mode: the end-to-end set untraced,
//! the per-layer set traced. End-to-end metrics are defined on every
//! workload and must be measured; a per-layer metric of a layer the
//! workload never calls reads 0 (no spans, no requests).

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, measured untraced on every workload.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, `(name, unit)`, measured by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cl.train_step.s", "s"),
    ("cl.train_step.count", "count"),
    ("cl.train_step.p50_us", "us"),
    ("cl.train_step.p99_us", "us"),
    ("cl.train_step.self_s", "s"),
    ("nn.optim.s", "s"),
    ("nn.optim.count", "count"),
    ("core.begin_task.s", "s"),
    ("core.end_task.s", "s"),
    ("core.end_task.count", "count"),
    ("core.memory.fill", "ratio"),
    ("core.memory.budget", "count"),
    ("cl.eval.s", "s"),
    ("cl.acc_pct", "%"),
    ("cl.fgt_pct", "%"),
    ("data.fetch.s", "s"),
    ("data.fetch.count", "count"),
    ("data.build.s", "s"),
    ("trace.run_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("serve.engine.embed_us", "us"),
    ("serve.engine.knn_us", "us"),
    ("serve.batcher.embed_us", "us"),
    ("serve.batcher.knn_us", "us"),
    ("serve.batcher.wait_us", "us"),
    ("serve.wire.embed_us", "us"),
    ("serve.wire.knn_us", "us"),
    ("serve.embed.p50_us", "us"),
    ("serve.embed.p99_us", "us"),
    ("serve.embed.count", "count"),
    ("serve.knn.p50_us", "us"),
    ("serve.knn.p99_us", "us"),
    ("serve.knn.count", "count"),
    ("serve.req_per_s", "1/s"),
    ("serve.batch.mean", "count"),
    ("serve.batch.max", "count"),
    ("serve.batches", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookups", "count"),
    ("serve.rejected", "count"),
];

/// Outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (continual runs, or requests).
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The last stdout line: `correct`, `attempted`, `failed` and every
    /// metric of the mode with its unit. Fails when an end-to-end metric
    /// was not measured or a value is not finite (both are bugs here).
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_line_requires_every_end_to_end_metric() {
        let mut out = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        out.set("setup_s", 0.5);
        assert!(out.result_line(false).is_err());
        out.set("run_s", 1.25);
        out.set("peak_rss_mb", 30.0);
        let line = out.result_line(false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains("cl.train_step"));
    }

    #[test]
    fn traced_line_lists_every_layer_metric() {
        let out = Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        };
        let line = out.result_line(true).expect("layers default to 0");
        assert!(line.starts_with("{\"correct\": false"));
        for (name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\"")), "{name}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let (e2e, layers) = json.split_once("\"per_layer\"").expect("per_layer section");
        for (section, catalogue) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
            for (name, unit) in catalogue {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{name} [{unit}] not listed");
            }
            let listed = section.matches("\"unit\":").count();
            assert_eq!(
                listed,
                catalogue.len(),
                "BENCHMARK.json lists other metrics"
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_result_format() {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && ok(name, ""), "{name}");
            assert!(unit.len() <= 16 && ok(unit, "/%"), "{unit}");
        }
    }
}
