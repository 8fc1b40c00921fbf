//! Metric values, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every reply passed the correctness check.
    pub correct: bool,
    /// Tile requests attempted.
    pub attempted: u64,
    /// Error replies, replies that failed the check, and requests
    /// never answered.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Share of attempted requests that did not fail.
    pub fn ok_frac(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric that cannot be
            // computed reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Request latencies grouped by workload unit, with each unit's wall
/// and serving CPU time. A unit is a piece of work the workload
/// repeats, and its kind names that piece: one replay of a study trace,
/// one sweep of the pan band, or one slice of a lap of one crowd
/// variant. Units of one kind do the same work, so they differ
/// only by what the host did to them. Other tenants of a shared host
/// only ever slow a unit down, so the fastest units of each kind are
/// what repeats from run to run; and since every kind is counted, the
/// figures leave none of the workload's cheap or costly parts out.
///
/// Latencies are kept as 32-bit nanoseconds (saturating at about 4 s),
/// four bytes a request: the benchmark's own memory, part of
/// `peak_rss_mb`, moves with the request count by no more than that.
#[derive(Debug, Clone, Default)]
pub struct Units {
    done: Vec<Unit>,
    open: Option<Unit>,
}

#[derive(Debug, Clone)]
struct Unit {
    kind: usize,
    start: Instant,
    cpu_start_ns: u64,
    wall_ns: u64,
    cpu_ns: u64,
    latencies_ns: Vec<u32>,
}

/// Figures of the fastest units of a measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitSummary {
    /// Units the figures come from.
    pub units: usize,
    /// Complete units in the phase.
    pub complete: usize,
    /// Kinds of unit among them.
    pub kinds: usize,
    /// Latency samples in the chosen units.
    pub samples: usize,
    /// Completions per second of the chosen units' wall time.
    pub throughput_rps: f64,
    /// p50 latency of the chosen units' pooled samples, ns.
    pub p50_ns: f64,
    /// p99 latency of the same samples, ns.
    pub p99_ns: f64,
    /// Serving CPU time of the chosen units per completion, ns.
    pub cpu_ns_per_req: f64,
}

/// Share of each kind's complete units the figures come from: the
/// fastest ones, and at least one.
pub const FAST_SHARE: f64 = 0.05;

impl Units {
    /// Closes the open unit, which completed at `at` with `cpu_ns` of
    /// serving CPU time used so far, and opens one of `kind`.
    pub fn begin(&mut self, kind: usize, at: Instant, cpu_ns: u64) {
        if let Some(mut u) = self.open.take() {
            u.wall_ns = u64::try_from(at.duration_since(u.start).as_nanos()).unwrap_or(u64::MAX);
            u.cpu_ns = cpu_ns.saturating_sub(u.cpu_start_ns);
            u.latencies_ns.shrink_to_fit();
            self.done.push(u);
        }
        self.open = Some(Unit {
            kind,
            start: at,
            cpu_start_ns: cpu_ns,
            wall_ns: 0,
            cpu_ns: 0,
            latencies_ns: Vec::new(),
        });
    }

    /// Records a request of `latency_ns` in the open unit.
    pub fn record(&mut self, latency_ns: u64) {
        if let Some(u) = &mut self.open {
            u.latencies_ns
                .push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
        }
    }

    fn all(&self) -> impl Iterator<Item = &Unit> {
        self.done.iter().chain(&self.open)
    }

    /// All samples recorded, the open unit's too.
    pub fn samples(&self) -> usize {
        self.all().map(|u| u.latencies_ns.len()).sum()
    }

    /// Quantile `q` of every sample, whatever its unit, ns.
    pub fn overall_quantile(&self, q: f64) -> u64 {
        let mut all: Vec<u64> = self
            .all()
            .flat_map(|u| u.latencies_ns.iter().map(|&ns| u64::from(ns)))
            .collect();
        all.sort_unstable();
        quantile(&all, q)
    }

    /// Figures of the [`FAST_SHARE`] of each kind's complete units
    /// that took the least wall time. The unit still open when the
    /// phase ended is left out: it holds only part of its work.
    pub fn summary(&self) -> UnitSummary {
        let mut by_kind: BTreeMap<usize, Vec<&Unit>> = BTreeMap::new();
        for u in &self.done {
            by_kind.entry(u.kind).or_default().push(u);
        }
        let mut pooled: Vec<u64> = Vec::new();
        let (mut units, mut wall_ns, mut cpu_ns) = (0, 0u64, 0u64);
        for list in by_kind.values_mut() {
            list.sort_by_key(|u| u.wall_ns);
            let take = ((list.len() as f64 * FAST_SHARE).ceil() as usize).max(1);
            for u in &list[..take] {
                pooled.extend(u.latencies_ns.iter().map(|&ns| u64::from(ns)));
                wall_ns += u.wall_ns;
                cpu_ns += u.cpu_ns;
            }
            units += take;
        }
        pooled.sort_unstable();
        let n = pooled.len() as f64;
        UnitSummary {
            units,
            complete: self.done.len(),
            kinds: by_kind.len(),
            samples: pooled.len(),
            throughput_rps: ratio(n, wall_ns as f64 / 1e9),
            p50_ns: quantile(&pooled, 0.5) as f64,
            p99_ns: quantile(&pooled, 0.99) as f64,
            cpu_ns_per_req: ratio(cpu_ns as f64, n),
        }
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (0 when empty); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn figures_come_from_the_fastest_units_of_each_kind() {
        use std::time::Duration;
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut u = Units::default();
        // Variant 0: four units of ten requests, one of them fast;
        // kind 1: two units of twenty, one fast. Then a unit cut
        // short by the end of the phase.
        let plan: [(usize, u64, u64, u64); 6] = [
            (0, 10, 500, 1000),
            (1, 20, 700, 2000),
            (0, 10, 100, 400),
            (1, 20, 300, 1000),
            (0, 10, 500, 1000),
            (0, 10, 500, 1000),
        ];
        let (mut at, mut cpu) = (0, 0);
        for &(kind, n, lat, wall) in &plan {
            u.begin(kind, ms(at), cpu);
            for _ in 0..n {
                u.record(lat);
            }
            at += wall;
            // Half the wall time, in nanoseconds of CPU.
            cpu += wall / 2;
        }
        u.begin(1, ms(at), cpu);
        u.record(1);
        let sum = u.summary();
        assert_eq!(sum.complete, 6);
        assert_eq!(sum.kinds, 2);
        assert_eq!(sum.units, 2, "one of four, one of two");
        assert_eq!(sum.samples, 30);
        assert!((sum.throughput_rps - 30.0 / 1.4).abs() < 1e-9);
        assert_eq!(sum.p50_ns, 300.0);
        assert_eq!(sum.p99_ns, 300.0);
        assert!((sum.cpu_ns_per_req - 700.0 / 30.0).abs() < 1e-9);
        assert_eq!(u.samples(), 81);
        assert_eq!(u.overall_quantile(0.5), 500);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("latency_p50_us", 1.5, "us");
        r.push("bad", f64::NAN, "ratio");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
    }
}
