//! Order statistics, process memory, and the result line.

use std::fmt::Write as _;

/// Median of unsorted samples (0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Largest sample (0 for an empty set).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The tail sample: the highest order statistic with at least ten samples
/// above it. Returns `(value, percentile)`; with ten or fewer samples the
/// maximum is reported at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 11 {
        return (v[n - 1], 100.0);
    }
    let idx = n - 11;
    (v[idx], 100.0 * idx as f64 / (n - 1) as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metrics in emission order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} emitted twice"
        );
        self.entries.push((name, value, unit));
    }

    /// Human-readable table, one metric a line.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; a layer that did no work
            // reports 0 instead.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 89.898).abs() < 1e-3);
    }

    #[test]
    fn median_of_even_set_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
