//! Raw latency samples, exact quantiles, the metric table and its JSON
//! line, and the process's peak resident set.

use std::fmt::Write as _;
use std::time::Duration;

/// Raw per-request times, in nanoseconds (saturating at about 4.3 s).
/// Quantiles sort the samples and read them exactly: no histogram
/// buckets, so a gain of any size shows. Four bytes a sample keeps the
/// generator's share of the peak resident set small.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&v| u64::from(v)).sum::<u64>() as f64 / self.ns.len() as f64 / 1e3
    }

    /// The `q`-quantile in µs, by nearest rank; 0 when there are no
    /// samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        if self.ns.is_empty() {
            return 0.0;
        }
        let rank = (q * self.ns.len() as f64).ceil() as usize;
        f64::from(self.ns[rank.clamp(1, self.ns.len()) - 1]) / 1e3
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail quantile a sample of this size supports: p99 once at
    /// least 1000 samples back it, otherwise the highest quantile that
    /// still leaves ten samples beyond it (the median below 40 samples).
    /// Returns `(quantile, value)`.
    pub fn tail(&mut self) -> (f64, f64) {
        let n = self.ns.len() as f64;
        let q = if n >= 1000.0 {
            0.99
        } else if n >= 40.0 {
            1.0 - 10.0 / n
        } else {
            0.5
        };
        (q, self.quantile(q))
    }
}

/// One reported figure: name, unit, value, and how many samples back it
/// (0 for figures that are not quantiles).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The figures a run reports, in print order.
#[derive(Debug, Default)]
pub struct Table {
    pub metrics: Vec<Metric>,
}

impl Table {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put_n(name, unit, value, 0);
    }

    pub fn put_n(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name: name.to_string(), unit, value, samples });
    }

    /// A median and the tail the sample supports, both with the sample
    /// count. `p99_name` is printed with the quantile actually used when
    /// fewer than 1000 samples back it.
    pub fn put_p50_tail(&mut self, p50_name: &str, p99_name: &str, s: &mut Samples) {
        let n = s.len();
        self.put_n(p50_name, "us", s.p50(), n);
        let (q, v) = s.tail();
        if q < 0.99 {
            eprintln!("note: {p99_name} reads the p{:.1} quantile: only {n} samples", q * 100.0);
        }
        self.put_n(p99_name, "us", v, n);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable lines, one per figure.
    pub fn print(&self, heading: &str) {
        println!("# {heading}");
        for m in &self.metrics {
            if m.samples > 0 {
                println!("  {:<36} {:>16.4} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
            } else {
                println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` restricted to `names`, in
    /// that order; every name must be present.
    pub fn json_object(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        out
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The median of a few set-up times.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let mut s = Samples::default();
        for us in (1..=1000).rev() {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.p50(), 500.0);
        assert_eq!(s.tail(), (0.99, 990.0));
        assert_eq!(s.mean_us(), 500.5);
    }

    #[test]
    fn small_samples_report_a_supported_tail() {
        let mut s = Samples::default();
        for us in 1..=100 {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.tail(), (0.9, 90.0));
    }
}
