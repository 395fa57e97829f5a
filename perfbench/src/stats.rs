//! Small statistics helpers shared by the workloads.

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted copy.
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set size in MiB, from `VmHWM` in
/// `/proc/self/status` (0 where that file is unavailable).
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency summary of one timed window.
#[derive(Clone, Copy, Debug)]
pub struct LoopStats {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub throughput_per_s: f64,
}

impl LoopStats {
    /// Summarizes per-operation latencies (ms) over `wall_s` seconds.
    pub fn from_latencies(latencies_ms: &[f64], wall_s: f64) -> LoopStats {
        LoopStats {
            p50_ms: quantile(latencies_ms, 0.5),
            p90_ms: quantile(latencies_ms, 0.9),
            throughput_per_s: latencies_ms.len() as f64 / wall_s.max(1e-9),
        }
    }
}

/// Prints, per job class, the op count and median latency, in latency
/// order, so a reader can check that the overall median and p90 fall
/// inside a class rather than in a gap between two.
pub fn print_classes(workload: &str, ops: &[(String, f64)]) {
    let mut classes: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (class, ms) in ops {
        classes.entry(class).or_default().push(*ms);
    }
    let mut rows: Vec<(&str, usize, f64)> = classes
        .iter()
        .map(|(c, v)| (*c, v.len(), median(v)))
        .collect();
    rows.sort_by(|a, b| a.2.total_cmp(&b.2));
    let all: Vec<f64> = ops.iter().map(|(_, ms)| *ms).collect();
    eprintln!(
        "{workload}: {} ops, p50 {:.4} ms, p90 {:.4} ms",
        all.len(),
        quantile(&all, 0.5),
        quantile(&all, 0.9)
    );
    for (class, n, p50) in rows {
        eprintln!("  {class:<28} {n:>8} ops  median {p50:>10.4} ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
