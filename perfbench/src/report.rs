//! What a workload run returns, and the JSON lines the benchmark prints.

use crate::stats::median;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Attempted operations that failed, were refused or failed an output
    /// check.
    pub failed: u64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (filled only by traced runs).
    pub per_layer: Vec<Metric>,
    /// Raw figures and constants printed beside the metrics.
    pub record: Vec<(&'static str, String)>,
}

impl RunResult {
    /// `ok_frac`: successful operations over attempted ones.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }
}

/// Quotes a string for JSON (the benchmark's strings are plain ASCII).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
///
/// # Errors
///
/// Returns the name of a metric whose value is not finite (JSON has no
/// spelling for it).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut rendered = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        rendered.push((
            m.name,
            json_object(&[
                ("value", format!("{:?}", m.value)),
                ("unit", json_str(m.unit)),
            ]),
        ));
    }
    Ok(json_object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json_object(&rendered)),
    ]))
}

/// The raw (not host-normalised) set-up time and per-operation time of a
/// run, and the operations' raw rate (`per_op` items each), for the run
/// record.
pub fn raw_record(setups_s: &[f64], ops_ms: &[f64], per_op: usize) -> [(&'static str, String); 4] {
    let total_s = ops_ms.iter().sum::<f64>() / 1e3;
    [
        ("operations", ops_ms.len().to_string()),
        (
            "raw_setup_s",
            format!("{:?}", median(setups_s).unwrap_or(0.0)),
        ),
        (
            "raw_latency_p50_ms",
            format!("{:?}", median(ops_ms).unwrap_or(0.0)),
        ),
        (
            "raw_throughput_per_s",
            format!("{:?}", (ops_ms.len() * per_op) as f64 / total_s),
        ),
    ]
}

/// Peak resident set (`VmHWM`) of this process in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            10,
            1,
            &[
                metric("latency_ms", 1.25, "ms"),
                metric("setup_s", 0.5, "s"),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(true, 1, 0, &[metric("x", f64::NAN, "ms")]).is_err());
    }

    #[test]
    fn ok_frac_counts_failures_against_attempts() {
        let r = RunResult {
            attempted: 8,
            failed: 2,
            ..RunResult::default()
        };
        assert_eq!(r.ok_frac(), 0.75);
        assert_eq!(RunResult::default().ok_frac(), 0.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
