//! Order statistics, the tail quantiles, peak memory and the seeded RNG.

pub use lazylocks::rng::SplitMix64;

/// Linear-interpolated quantile `q` (0..=1) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile `mix_s_tail` reports: a fixed one, so every run (on any
/// host, at any speed) reports the same order statistic. A 55 s run has
/// about 25 to 80 passes.
pub const MIX_TAIL_Q: f64 = 0.90;

/// The quantile `job_ms_tail` reports. A 55 s run pools a few hundred job
/// times, so at least about ten lie beyond it; it also sits well inside
/// the slowest job's block of samples (one job in 9 or 11), not on an edge.
pub const JOB_TAIL_Q: f64 = 0.95;

/// Peak resident set size of this process, in MiB (`VmHWM`).
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

/// Resets this process's peak resident set size to its current size
/// (writes `5` to `/proc/self/clear_refs`), so a later `peak_rss_mb`
/// covers only what ran after it. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `(steal, total)` CPU ticks of the host so far, from the `cpu` line of
/// `/proc/stat` (zeros where unavailable). Steal is time the hypervisor
/// gave this machine's CPUs to someone else: it inflates every wall time.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(i + 1);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, MIX_TAIL_Q), 90.0);
        assert_eq!(quantile(&v, JOB_TAIL_Q), 95.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 1.0), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }
}
