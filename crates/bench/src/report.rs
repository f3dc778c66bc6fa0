//! Machine-readable bench results.
//!
//! Every smoke bench prints human-readable tables, but CI logs rot; the
//! perf trajectory across PRs needs numbers a script can diff. Benches
//! therefore also write `results/BENCH_<name>.json` through
//! [`BenchReport`]: one file per bench, one record per measured series,
//! each carrying p50/p99/mean latency (seconds) and the inverse of the
//! mean (a rate only for a serial loop — see
//! [`SeriesSummary::inv_mean_latency`]), plus free-form scalar metrics for
//! bench-specific quantities (hit ratios, speedup factors, GFLOP/s,
//! measured throughputs, assertion margins).
//!
//! The JSON is hand-rolled (the workspace is offline — no serde): flat
//! enough to stay trivially correct, stable enough to `jq` across
//! commits.

use std::time::Duration;

/// One measured latency series, summarized.
#[derive(Clone, Debug)]
pub struct SeriesSummary {
    /// Series label, e.g. `"dataset_pdf/warm"`.
    pub name: String,
    /// Number of measured iterations.
    pub samples: usize,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency: `sorted[⌊(n−1)·0.99⌋]`, the largest sample
    /// only when n = 1 and the second-largest for every 2 ≤ n ≤ 101.
    pub p99: Duration,
    /// Mean latency.
    pub mean: Duration,
    /// `1 / mean`, per second. Operations per second **only** when the
    /// series was measured one operation at a time; for a windowed or
    /// multi-connection series the latencies overlap and this is not a
    /// throughput — those benches record `operations / wall` as a metric
    /// of its own.
    pub inv_mean_latency: f64,
}

impl SeriesSummary {
    /// Summarizes raw iteration latencies (sorts a private copy).
    pub fn of(name: &str, latencies: &[Duration]) -> Self {
        assert!(!latencies.is_empty(), "empty latency series '{name}'");
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let q = |f: f64| sorted[(((sorted.len() - 1) as f64) * f).floor() as usize];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        SeriesSummary {
            name: name.to_string(),
            samples: sorted.len(),
            p50: q(0.50),
            p99: q(0.99),
            mean,
            inv_mean_latency: if mean.as_secs_f64() > 0.0 {
                1.0 / mean.as_secs_f64()
            } else {
                f64::INFINITY
            },
        }
    }
}

/// A bench result file in the making: series summaries plus scalar
/// metrics, flushed to `results/BENCH_<name>.json`.
#[derive(Debug, Default)]
pub struct BenchReport {
    series: Vec<SeriesSummary>,
    metrics: Vec<(String, f64)>,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    // JSON has no Infinity/NaN; clamp to null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The machine a record was taken on, as a JSON object: what a reader
/// needs before comparing two records — the CPUs the process may use, the
/// CPU model where the OS tells (Linux `/proc/cpuinfo`), OS and
/// architecture.
fn machine_stamp() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cpus\": {cpus}, \"cpu_model\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\"}}",
        json_escape(&model),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        BenchReport::default()
    }

    /// Adds a summarized latency series from raw iteration timings.
    pub fn add_series(&mut self, name: &str, latencies: &[Duration]) -> &SeriesSummary {
        self.series.push(SeriesSummary::of(name, latencies));
        self.series.last().expect("just pushed")
    }

    /// Adds one scalar metric (speedup factor, hit ratio, …).
    pub fn add_metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"machine\": {},\n  \"series\": [\n", machine_stamp());
        for (i, s) in self.series.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"samples\": {}, \"p50_s\": {}, \"p99_s\": {}, \"mean_s\": {}, \"inv_mean_latency_per_s\": {}}}{}\n",
                json_escape(&s.name),
                s.samples,
                json_f64(s.p50.as_secs_f64()),
                json_f64(s.p99.as_secs_f64()),
                json_f64(s.mean.as_secs_f64()),
                json_f64(s.inv_mean_latency),
                if i + 1 < self.series.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(k),
                json_f64(*v),
                if i + 1 < self.metrics.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes `results/BENCH_<name>.json` (creating `results/` on demand)
    /// and returns the path written.
    ///
    /// The directory is anchored at the *workspace* root, not the
    /// current directory: `cargo bench` runs bench binaries with the
    /// package root as CWD, and the per-PR perf records belong next to
    /// the figure CSVs in the top-level `results/`.
    pub fn write(&self, name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        std::fs::create_dir_all(&dir).expect("cannot create results/ directory");
        let path = dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, self.to_json()).expect("cannot write bench report");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_orders_quantiles() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = SeriesSummary::of("x", &lat);
        assert_eq!(s.samples, 100);
        assert!(s.p50 <= s.p99);
        assert_eq!(s.p50, Duration::from_micros(50));
        assert_eq!(s.p99, Duration::from_micros(99));
        assert!((s.inv_mean_latency - 1.0 / s.mean.as_secs_f64()).abs() < 1e-6);
        // A short series' p99 is its second-largest sample, not its max.
        let ten: Vec<Duration> = (1..=10).map(Duration::from_micros).collect();
        assert_eq!(SeriesSummary::of("ten", &ten).p99, Duration::from_micros(9));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut r = BenchReport::new();
        r.add_series(
            "warm",
            &[Duration::from_micros(5), Duration::from_micros(7)],
        );
        r.add_series("cold", &[Duration::from_millis(2)]);
        r.add_metric("speedup", 12.5);
        r.add_metric("bad", f64::NAN);
        let j = r.to_json();
        assert!(j.contains("\"machine\": {\"cpus\": "));
        assert!(j.contains("\"name\": \"warm\""));
        assert!(j.contains("\"speedup\": 12.5"));
        assert!(j.contains("\"bad\": null"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn escaping_covers_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }
}
