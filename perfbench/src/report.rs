//! What a run prints: a human-readable report, then one JSON line with
//! the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run).

use crate::stats::{self, Tally};

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Free-text context printed beside it (sample count, percentile,
    /// where the number came from).
    pub note: String,
}

/// An ordered collection of metrics.
#[derive(Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        let m = Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        };
        match self.items.iter_mut().find(|x| x.name == name) {
            Some(slot) => *slot = m,
            None => self.items.push(m),
        }
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// All metrics, in insertion order.
    pub fn items(&self) -> &[Metric] {
        &self.items
    }
}

/// Latency samples of one kind, reported as median and tail.
pub fn put_latency(out: &mut Metrics, prefix: &str, samples_ms: &[f64]) {
    if samples_ms.is_empty() {
        return;
    }
    let s = stats::sorted(samples_ms);
    out.put(
        &format!("{prefix}_p50_ms"),
        stats::median(&s),
        "ms",
        format!("n={}", s.len()),
    );
    match stats::tail(&s) {
        Some((p, v)) => out.put(
            &format!("{prefix}_tail_ms"),
            v,
            "ms",
            format!("p{p}, n={}", s.len()),
        ),
        None => eprintln!(
            "perfbench: {prefix}_tail_ms not reported: n={} leaves fewer than {} samples beyond any percentile from p50",
            s.len(),
            stats::TAIL_BEYOND
        ),
    }
}

/// Prints the human-readable report lines (`# ...` and `metric ...`).
/// With `map` (metric name prefix, what it should move), each metric
/// under a prefix also names the end-to-end metric it maps to.
pub fn print_human(title: &str, metrics: &Metrics, map: Option<&[(&str, &str)]>) {
    println!("# {title}");
    for m in metrics.items() {
        let moves = map
            .and_then(|map| map.iter().find(|(p, _)| m.name.starts_with(p)))
            .map(|(_, to)| format!(" -> moves {to}"))
            .unwrap_or_default();
        println!(
            "metric {:<34} {:>16.6} {:<8} {}{moves}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// Prints the result line: exactly the metrics in `names` (name, unit),
/// each taken from `metrics`. A per-layer metric of a layer the workload
/// does not exercise is reported as 0.
pub fn print_json(correct: bool, tally: Tally, metrics: &Metrics, names: &[(&str, &str)]) {
    let body: Vec<String> = names
        .iter()
        .map(|(n, unit)| {
            let v = metrics.get(n).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_replaces_a_metric_by_name() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.5, "ms", "");
        m.put("extra", 2.0, "count", "");
        // A replaced value keeps one entry.
        m.put("a_ms", 2.5, "ms", "");
        assert_eq!(m.items().len(), 2);
        assert_eq!(m.get("a_ms"), Some(2.5));
    }
}
