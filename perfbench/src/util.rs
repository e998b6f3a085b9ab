//! Shared plumbing: arguments, latency samples, metric output, memory.

use std::time::{Duration, Instant};

use envy_core::EnvyStats;

/// Command-line arguments every workload takes.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.max(1)),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Host-time latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    pub fn clear(&mut self) {
        self.ns.clear();
        self.sorted = true;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`, in nanoseconds (0 when
    /// empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64
    }
}

/// Host-time figures per measurement window. A run reports sustained
/// figures over its windows: the throughput exceeded in 90 % of them and
/// the latencies met in 90 % of them. The host this benchmark was tuned
/// on alternates between a slower and a faster state for seconds at a
/// time; these quantiles sit in the slower state, which every run
/// contains, where a mean or a median moves with the share of fast
/// windows.
#[derive(Debug, Default)]
pub struct Windows {
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
    p999_us: Vec<f64>,
}

impl Windows {
    /// Close a window of `ops` operations over `secs` seconds whose
    /// latencies are `lat`.
    pub fn add(&mut self, ops: usize, secs: f64, lat: &mut Samples) {
        self.ops_per_s.push(ops as f64 / secs);
        self.p50_us.push(lat.quantile(0.50) / 1e3);
        self.p90_us.push(lat.quantile(0.90) / 1e3);
        self.p99_us.push(lat.quantile(0.99) / 1e3);
        self.p999_us.push(lat.quantile(0.999) / 1e3);
    }

    pub fn len(&self) -> usize {
        self.ops_per_s.len()
    }

    /// Sustained figures: `ops_per_s` (10th percentile over windows),
    /// then `p50_us`, `p90_us`, `p99_us`, `p999_us` (each the 90th
    /// percentile over windows).
    pub fn sustained(&mut self) -> [f64; 5] {
        [
            quantile(&mut self.ops_per_s, 0.1),
            quantile(&mut self.p50_us, 0.9),
            quantile(&mut self.p90_us, 0.9),
            quantile(&mut self.p99_us, 0.9),
            quantile(&mut self.p999_us, 0.9),
        ]
    }
}

/// Quantile `q` of a non-empty list, interpolated between neighbours.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = (values.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of a non-empty list.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Wall times of the start-state builds of one run. The first build
/// starts the run; more are made between measurement windows and
/// dropped, so the builds sample the whole run, not only its first
/// seconds.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Build a start state and record its wall time.
    pub fn build<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.0.push(t.elapsed().as_secs_f64());
        built
    }

    /// `setup_s`: the median build time, in seconds.
    pub fn median(&mut self) -> f64 {
        median(&mut self.0)
    }
}

/// Host-bus words an access of `len` bytes at `addr` moves: each page it
/// touches is a separate run of whole words.
pub fn words(addr: u64, len: u64, page_bytes: u64, word_bytes: u64) -> u64 {
    let mut words = 0;
    let mut at = addr;
    while at < addr + len {
        let run = (page_bytes - at % page_bytes).min(addr + len - at);
        words += run.div_ceil(word_bytes);
        at += run;
    }
    words
}

/// Pages programmed into Flash: buffer flushes, cleaning copies (which
/// include locality sheds and shadow relocations) and wear-leveling
/// copies.
pub fn programmed_pages(s: &EnvyStats) -> u64 {
    s.pages_flushed.get() + s.clean_programs.get() + s.wear_programs.get()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a check: `Err` marks the run incorrect.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Print one line per metric, any failed checks, and the result
    /// object as the last line of standard output.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!("{workload} {:<24} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "{workload} attempted {} failed {}",
            self.attempted, self.failed
        );
        for e in &self.errors {
            eprintln!("CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(Duration::from_nanos(v));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.999), 100.0);
    }

    #[test]
    fn words_split_at_page_boundaries() {
        assert_eq!(words(0, 8, 256, 8), 1);
        assert_eq!(words(250, 8, 256, 8), 2, "6 bytes then 2 bytes");
        assert_eq!(words(0, 100, 256, 4), 25);
        assert_eq!(words(200, 100, 256, 4), 14 + 11);
    }

    #[test]
    fn args_parse_the_driver_form() {
        let a = Args::parse(
            [
                "--workload",
                "tpca-engine",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tpca-engine", 7, 3, true)
        );
        assert!(Args::parse(["--bogus", "1"].into_iter().map(String::from)).is_err());
    }
}
