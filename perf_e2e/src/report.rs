//! The result of one benchmark run: named metrics with units, plus the
//! operation counts the correctness gate fills in.

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    /// Operations attempted (jobs, submissions, checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a human-readable line (sample counts, diagnostics) printed
    /// beside the metrics but kept out of the JSON result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perf_e2e: FAILED: {}", what());
        }
    }

    /// Prints every metric with its unit, the notes, and — as the last
    /// line of standard output — the JSON result.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        for note in &self.notes {
            println!("# {note}");
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        println!("{}", self.to_json());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_and_the_gate() {
        let mut r = Report::default();
        r.metric("setup_s", 0.25, "s");
        r.metric("refs_per_cpu_s", 312_000.5, "1/s");
        r.check(true, String::new);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"refs_per_cpu_s\": {\"value\": 312000.5, \"unit\": \"1/s\"}}}"
        );
        r.check(false, || "mismatch".into());
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
