//! How a run's latency samples become the reported figures: throughput
//! over the run's whole busy time, percentiles over every call.

use crate::trace::Sample;

/// Nearest-rank percentile of an unsorted sample (`pct` in 1..=100).
pub fn percentile(values: &[u64], pct: u64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (pct as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest percentile in 50..=`want` that leaves at least ten samples
/// above its rank; 50 when even the median does not.
pub fn tail_percentile(n: usize, want: u64) -> u64 {
    (50..=want)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)
        .unwrap_or(50)
}

/// Median of a non-empty set of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Throughput and latency percentiles over every call of a run.
pub struct Summary {
    pub calls: usize,
    /// Operations completed over the summed latency of every call.
    pub ops_per_s: f64,
    pub p50_ns: u64,
    /// The percentile reported as the tail (99 when the run allows).
    pub tail_pct: u64,
    pub tail_ns: u64,
}

impl Summary {
    /// Over every call, each taking `latency(call)` ns, that together
    /// completed `ops` operations.
    pub fn of(samples: &[Sample], ops: u64, latency: impl Fn(&Sample) -> u64) -> Summary {
        let latencies: Vec<u64> = samples.iter().map(latency).collect();
        let busy_ns: u64 = latencies.iter().sum();
        let tail_pct = tail_percentile(latencies.len(), 99);
        Summary {
            calls: latencies.len(),
            ops_per_s: ops as f64 / (busy_ns as f64 / 1e9),
            p50_ns: percentile(&latencies, 50),
            tail_pct,
            tail_ns: percentile(&latencies, tail_pct),
        }
    }
}
