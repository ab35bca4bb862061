//! Metrics and how they are printed: one `name value unit` line each,
//! then the one-line JSON result the driver reads.

use std::fmt::Write as _;

/// Bytes per MB as the benchmark reports them (heap sizes are configured
/// in binary megabytes).
pub const MIB: f64 = (1u64 << 20) as f64;

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one benchmark command found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Repetitions (timed, traced and verified) and probe sets started.
    pub attempted: u64,
    /// Why each failed one failed.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The `name value unit` lines.
    pub fn metric_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result object, on one line, in the form the driver expects.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    m.value,
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median as Python's `statistics.median` gives it: the middle
/// value, or the mean of the two middle values.  `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `num / den`, or 0 when there is nothing to divide by (a run with no
/// partial collections has no dirty-card percentage).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            metrics: vec![Metric::new("a.b", 1.25, "ms")],
            attempted: 3,
            failures: vec![],
        };
        let v = crate::json::parse(&o.result_json()).unwrap();
        assert_eq!(v.get("correct"), Some(&crate::json::Value::Bool(true)));
        let m = v.get("metrics").unwrap().get("a.b").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(o.metric_lines(), "a.b 1.25 ms\n");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
