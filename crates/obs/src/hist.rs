//! Log-linear latency histograms with bounded relative error.
//!
//! The classic HDR layout: values below 2^`SUB_BITS` get exact unit
//! buckets; above that, each power-of-two range is split into
//! 2^`SUB_BITS` linear sub-buckets, so a bucket's width is at most
//! `value / 2^SUB_BITS` and a quantile read off the bucket midpoint is
//! within `1 / 2^(SUB_BITS+1)` (≈ 1.6%) of the true rank value. That
//! bound is what lets a service report p50/p99/p999 from a fixed
//! 16 KiB array instead of keeping every latency sample
//! (the ad-hoc `Vec<QueryRecord>` approach this replaces can only
//! answer percentile queries by sorting everything it ever saw).

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Worst-case relative error of a quantile estimate (midpoint of a
/// log-linear bucket): half a sub-bucket width.
pub const QUANTILE_REL_ERROR: f64 = 1.0 / (1 << (SUB_BITS + 1)) as f64;

/// A fixed-footprint log-linear histogram of `u64` samples
/// (nanoseconds, by convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // v ∈ [2^e, 2^(e+1)), e ≥ SUB_BITS
    let sub = (v >> (e - SUB_BITS)) - SUB; // 0..SUB
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Midpoint of a bucket — the representative value a quantile query
/// returns.
fn representative(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return idx; // unit-width buckets are exact
    }
    let block = idx >> SUB_BITS; // = e - SUB_BITS + 1 ≥ 2
    let e = block + SUB_BITS as u64 - 1;
    let sub = idx & (SUB - 1);
    let lower = (SUB + sub) << (e - SUB_BITS as u64);
    let width = 1u64 << (e - SUB_BITS as u64);
    lower + width / 2
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q ∈ [0, 1]` — the representative of the
    /// bucket holding the sample of rank `⌈q·count⌉` (rank 1 = min).
    /// Within [`QUANTILE_REL_ERROR`] of the exact order statistic,
    /// clamped to the observed `[min, max]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The histogram as one JSON object (the exporter row shared by
    /// metrics dumps and bench trajectories).
    pub fn to_json(&self) -> String {
        let mut o = crate::json::Obj::new();
        o.u64("count", self.count)
            .num("sum", self.sum)
            .num("mean", self.mean())
            .u64("min", self.min())
            .u64("max", self.max())
            .u64("p50", self.p50())
            .u64("p99", self.p99())
            .u64("p999", self.p999());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 31, 63] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
        // Unit buckets below 2·SUB: the median is exactly 5.
        assert_eq!(h.p50(), 5);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        let mut exact: Vec<u64> = Vec::new();
        // A deterministic heavy-tailed-ish sequence.
        let mut x: u64 = 12345;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 40) * ((x >> 60) + 1); // up to ~2^28
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1] as f64;
            let est = h.quantile(q) as f64;
            let tol = truth * 2.0 * QUANTILE_REL_ERROR + 1.0;
            assert!(
                (est - truth).abs() <= tol,
                "q={q}: est {est} vs exact {truth} (tol {tol})"
            );
        }
    }

    #[test]
    fn merge_is_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
            all.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        let json = h.to_json();
        assert!(json.contains("\"count\":0"), "{json}");
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        // For every representable magnitude, the representative of a
        // value's bucket stays within the documented relative error.
        let mut v = 1u64;
        while v < (1 << 40) {
            for probe in [v, v + v / 3, v + v / 2] {
                let rep = representative(bucket_of(probe)) as f64;
                let err = (rep - probe as f64).abs() / probe as f64;
                assert!(
                    err <= 2.0 * QUANTILE_REL_ERROR + 1e-9,
                    "v={probe} rep={rep} err={err}"
                );
            }
            v *= 2;
        }
    }
}
