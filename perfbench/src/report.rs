//! Result shapes and the one-line JSON the benchmark prints last.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Collects metrics in order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks that failed; empty means the run is correct.
    pub errors: Vec<String>,
    /// Operations attempted (requests, or tuning sessions in-process).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Formats `v` with every digit Rust keeps; non-finite values, which
/// JSON cannot carry, become `null` and mark the run incorrect upstream.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The final line: `correct`, `attempted`, `failed`, `metrics`.
pub fn render(outcome: &Outcome) -> String {
    let correct = outcome.errors.is_empty()
        && outcome.metrics.0.iter().all(|m| m.value.is_finite())
        && outcome.attempted > 0;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Linear-interpolated percentile, `q` in `[0, 100]`; NaN when empty.
pub fn pct(xs: &[f64], q: f64) -> f64 {
    robotune_stats::percentile(xs, q)
}

/// `p50/p75/p90/p95/p99 (n)` of `xs`, for the stderr summary.
pub fn spread(xs: &[f64]) -> String {
    let p: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&q| format!("{:.3}", pct(xs, q)))
        .collect();
    format!("{} (n={})", p.join("/"), xs.len())
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds this process has used, from `/proc/self/stat` (user +
/// system, at the usual 100 ticks per second).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_keeps_every_digit_and_flags_non_finite() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.put("a_ms", 1.2345678901234, "ms");
        let line = render(&o);
        assert!(line.starts_with("{\"correct\": true"));
        assert!(line.contains("1.2345678901234"));
        o.metrics.put("b_ms", f64::NAN, "ms");
        assert!(render(&o).starts_with("{\"correct\": false"));
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
