//! Order statistics and the process counters the benchmark reads from
//! `/proc` (no libc in this workspace, so no `getrusage`).

/// Median of `values` (mean of the middle pair for even counts).
/// Panics on an empty slice: every caller has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an already sorted slice, `q` in `(0, 1]`.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// `|a - b| / max(|a|, |b|)`, 0 when both are 0.
pub fn rel_gap(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Restart the `VmHWM` high-water mark from the current resident set
/// (`echo 5 > /proc/self/clear_refs`), so reference building before
/// the measured system starts does not set the peak. Returns whether
/// the kernel accepted it; when it does not, the peak simply covers
/// the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Process CPU time (user + system) in ms and minor faults so far.
pub fn proc_cpu_ms_and_minflt() -> (f64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0);
    };
    // Fields after the parenthesised command name; `minflt` is field
    // 10, `utime`/`stime` fields 14/15 (1-based, man proc).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0);
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    let ticks = num(11) + num(12);
    (ticks as f64 * 10.0, num(7))
}

/// On-CPU nanoseconds of the calling thread (`schedstat`), falling
/// back to the 10 ms ticks of `stat` where schedstats are off.
pub fn thread_cpu_ns() -> u64 {
    if let Ok(s) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return ns;
        }
    }
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (num(11) + num(12)) * 10_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 100);
        assert_eq!(percentile_sorted(&v, 0.95), 190);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(1000, 0.99), 10);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mib() > 0.0);
        let (_, minflt) = proc_cpu_ms_and_minflt();
        assert!(minflt > 0);
    }
}
