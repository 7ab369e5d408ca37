//! The result line: correctness counters plus named metrics with units.

use std::fmt::Write as _;

/// Operations attempted and failed, plus the first few failure reasons.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Operations (requests, trials, checks) attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Human-readable reasons for the first failures.
    pub reasons: Vec<String>,
}

impl Outcome {
    /// Counts `attempted` operations of which `failed` went wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.fail(failed, format!("{failed} of {attempted} {what}"));
        }
    }

    /// Counts one check, failing it with `reason` when `ok` is false.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, reason());
        }
    }

    fn fail(&mut self, failed: u64, reason: String) {
        self.failed += failed;
        if self.reasons.len() < 16 {
            self.reasons.push(reason);
        }
    }

    /// Folds another outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 16 {
                self.reasons.push(r);
            }
        }
    }
}

/// Named metrics in insertion order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) `name` with `value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// `(name, value, unit)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.entries {
            self.put(n, v, u);
        }
    }
}

fn json_string(out: &mut String, s: &str) {
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
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips, so
        // no measured digit is lost.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The single-line JSON result object.
pub fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, name);
        out.push_str(": {\"value\": ");
        out.push_str(&json_number(value));
        out.push_str(", \"unit\": ");
        json_string(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_not_hidden() {
        let mut o = Outcome::default();
        o.tally(10, 0, "requests");
        o.check(true, || unreachable!());
        assert_eq!((o.attempted, o.failed), (11, 0));
        o.check(false, || "digest differs".into());
        o.tally(5, 2, "predictions");
        assert_eq!((o.attempted, o.failed), (17, 3));
        assert_eq!(o.reasons.len(), 2);
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        m.put("latency_ms", 1.2034, "ms");
        m.put("setup_s", 0.9, "s");
        let o = Outcome {
            attempted: 3,
            failed: 1,
            reasons: vec![],
        };
        assert_eq!(
            result_line(&o, &m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.9, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
    }
}
