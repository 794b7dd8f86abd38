//! Detection algorithms: turning raw chase/sweep timings into hardware
//! parameters (the analysis half of the Calibrator, `[MBK00b]`).
//!
//! All scans are *blind*: they see only measured per-access costs, never
//! the simulated machine's configuration. The pipeline:
//!
//! 1. **TLB**: pointer chases with page-candidate strides. The first
//!    cost jump in the node-count scan happens at `entries·(page/stride)`
//!    for strides below the page size and stabilises at `entries` once
//!    the stride reaches the page size — that stable point gives both
//!    parameters; the miss latency is extrapolated from the miss-ratio
//!    ramp.
//! 2. **Cache capacities + random latencies**: pointer chases with a
//!    line-exceeding stride over a size grid. A chase cycle larger than a
//!    level's capacity misses on *every* step (cyclic-LRU pathology), so
//!    per-step cost is a staircase; the predicted TLB contribution is
//!    subtracted first so the TLB ramp cannot masquerade as a cache
//!    level.
//! 3. **Line sizes + sequential latencies**: repeated sequential sweeps
//!    of a footprint that only the inner `i` levels keep missing, with
//!    growing stride: per-access cost grows with stride until the stride
//!    reaches the line size (each access then misses once) — the knee
//!    gives `B_i`, the plateau gives the cumulative sequential latency.

use crate::chase::{alloc_sweep, sweep_cost, Chase};
use gcm_hardware::HardwareSpec;
use gcm_sim::MemorySystem;

/// One detected cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedCache {
    /// Detected capacity in bytes (grid resolution: the largest probed
    /// size that still fit).
    pub capacity: u64,
    /// Detected line size in bytes.
    pub line: u64,
    /// Sequential miss latency in ns.
    pub seq_miss_ns: f64,
    /// Random miss latency in ns.
    pub rand_miss_ns: f64,
}

/// Detected TLB parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedTlb {
    /// Number of entries.
    pub entries: u64,
    /// Page size in bytes.
    pub page: u64,
    /// Miss latency in ns.
    pub miss_ns: f64,
}

/// Everything the Calibrator recovered about a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Data-cache levels, inside-out.
    pub caches: Vec<DetectedCache>,
    /// The TLB, if one was detected.
    pub tlb: Option<DetectedTlb>,
}

impl CalibrationReport {
    /// The report as one JSON object (via [`gcm_obs::json`]) — the
    /// machine-readable form the `host_report` example emits, so a
    /// calibration run can be committed or diffed against a later one.
    pub fn to_json(&self) -> String {
        let mut caches = gcm_obs::json::Arr::new();
        for (i, c) in self.caches.iter().enumerate() {
            let mut o = gcm_obs::json::Obj::new();
            o.u64("level", i as u64 + 1)
                .u64("capacity_bytes", c.capacity)
                .u64("line_bytes", c.line)
                .num("seq_miss_ns", c.seq_miss_ns)
                .num("rand_miss_ns", c.rand_miss_ns);
            caches.raw(&o.finish());
        }
        let mut top = gcm_obs::json::Obj::new();
        top.str("report", "gcm-calibration/v2")
            .raw("caches", &caches.finish());
        match &self.tlb {
            Some(t) => {
                let mut o = gcm_obs::json::Obj::new();
                o.u64("entries", t.entries)
                    .u64("page_bytes", t.page)
                    .num("miss_ns", t.miss_ns);
                top.raw("tlb", &o.finish());
            }
            None => {
                top.raw("tlb", "null");
            }
        }
        top.finish()
    }
}

/// The Calibrator: measures a (simulated) machine blind and recovers its
/// parameters.
#[derive(Debug)]
pub struct Calibrator {
    spec: HardwareSpec,
    /// Upper bound of the size scan; must exceed the outermost cache.
    max_bytes: u64,
    seed: u64,
}

impl Calibrator {
    /// A calibrator probing sizes up to `max_bytes` (choose ≥ 4× the
    /// outermost capacity you expect, exactly like the real tool's
    /// command-line argument).
    pub fn new(spec: HardwareSpec, max_bytes: u64) -> Calibrator {
        Calibrator {
            spec,
            max_bytes,
            seed: 0xC0FFEE,
        }
    }

    fn fresh(&self) -> MemorySystem {
        MemorySystem::new(self.spec.clone())
    }

    /// Run the full pipeline.
    pub fn run(&mut self) -> CalibrationReport {
        let tlb = self.detect_tlb();
        let caches = self.detect_caches(&tlb);
        CalibrationReport { caches, tlb }
    }

    /// TLB scan (stage 1).
    pub fn detect_tlb(&mut self) -> Option<DetectedTlb> {
        // First significant jump position for each page-size candidate.
        let mut candidates: Vec<(u64, u64)> = Vec::new(); // (stride, k*)
        let mut stride = 256u64;
        while stride <= 64 * 1024 {
            if let Some(k) = self.first_jump_k(stride) {
                candidates.push((stride, k));
            }
            stride *= 2;
        }
        // Find the first stride whose jump position matches the next
        // stride's (stable region = stride has reached the page size).
        // The jump lands on the first power-of-two count *exceeding* the
        // entry count, so entries = k*/2.
        for w in candidates.windows(2) {
            let ((p1, k1), (p2, k2)) = (w[0], w[1]);
            if k1 == k2 && p2 == p1 * 2 {
                let entries = k1 / 2;
                let page = p1;
                let miss_ns = self.tlb_latency(page, entries);
                return Some(DetectedTlb {
                    entries,
                    page,
                    miss_ns,
                });
            }
        }
        None
    }

    /// Scan node counts at the given stride; return the first count whose
    /// steady cost jumps by more than 40 ns over the previous count.
    fn first_jump_k(&mut self, stride: u64) -> Option<u64> {
        let mut prev_cost = None;
        let mut k = 4u64;
        while k * stride <= self.max_bytes {
            let mut mem = self.fresh();
            let chase = Chase::build(&mut mem, k, stride, self.seed);
            self.seed += 1;
            let cost = chase.steady_cost(&mut mem);
            if let Some(p) = prev_cost {
                if cost - p > 40.0 {
                    return Some(k);
                }
            }
            prev_cost = Some(cost);
            k *= 2;
        }
        None
    }

    /// TLB miss latency: a cyclic chase over `2·entries` single-node
    /// pages misses on *every* step (cyclic-LRU pathology), while one
    /// over `entries/2` pages never misses, so the difference is exactly
    /// the miss latency — provided no data-cache boundary lies between
    /// the two footprints (true for the machines probed here; the real
    /// Calibrator carries the same caveat).
    fn tlb_latency(&mut self, page: u64, entries: u64) -> f64 {
        let lo = (entries / 2).max(2);
        let hi = entries * 2;
        let mut mem = self.fresh();
        let c_lo = Chase::build(&mut mem, lo, page, self.seed).steady_cost(&mut mem);
        self.seed += 1;
        let mut mem = self.fresh();
        let c_hi = Chase::build(&mut mem, hi, page, self.seed).steady_cost(&mut mem);
        self.seed += 1;
        (c_hi - c_lo).max(0.0)
    }

    /// Cache capacity/latency scan (stage 2), with the TLB contribution
    /// subtracted, followed by the line/sequential-latency scans
    /// (stage 3).
    pub fn detect_caches(&mut self, tlb: &Option<DetectedTlb>) -> Vec<DetectedCache> {
        // The chase stride must exceed every line size; detect the largest
        // line first from a full-footprint stride scan.
        let max_line = self.detect_max_line(tlb);
        let stride = max_line;

        // Size grid: powers of two and 1.5× midpoints.
        let mut sizes = Vec::new();
        let mut s = (4 * stride).max(1024);
        while s <= self.max_bytes {
            sizes.push(s);
            sizes.push(s + s / 2);
            s *= 2;
        }
        sizes.retain(|&x| x <= self.max_bytes);

        // Measure corrected steady chase cost per size.
        let corrected: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&size| {
                let count = size / stride;
                let mut mem = self.fresh();
                let chase = Chase::build(&mut mem, count, stride, self.seed);
                self.seed += 1;
                let raw = chase.steady_cost(&mut mem);
                // Subtract the TLB's probabilistic ramp (many chase nodes
                // share a page at this stride, so the page-visit order is
                // effectively random sampling, miss ratio ≈ 1 − reach/s;
                // the 1.15 factor compensates LRU's below-random
                // retention, capped at a full miss per access).
                let tlb_part = tlb
                    .as_ref()
                    .map(|t| {
                        let reach = (t.entries * t.page) as f64;
                        ((1.0 - (reach / size as f64).min(1.0)) * t.miss_ns * 1.15).min(t.miss_ns)
                    })
                    .unwrap_or(0.0);
                (size, (raw - tlb_part).max(0.0))
            })
            .collect();

        // Staircase detection: a boundary starts where cost grows by more
        // than max(3 ns, 30%); consecutive growth merges into one run.
        let mut boundaries: Vec<(u64, f64)> = Vec::new(); // (capacity, plateau cost before)
        let mut plateau = corrected.first().map(|&(_, c)| c).unwrap_or(0.0);
        let mut i = 1;
        while i < corrected.len() {
            let (_, c) = corrected[i];
            let (prev_size, prev_c) = corrected[i - 1];
            if c - prev_c > (0.3 * prev_c).max(5.0) {
                // Run of growth: advance to its end.
                let mut j = i;
                while j + 1 < corrected.len() {
                    let (_, a) = corrected[j];
                    let (_, b) = corrected[j + 1];
                    if b - a > (0.1 * a).max(3.0) {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let top = corrected[j].1;
                boundaries.push((prev_size, top - plateau));
                plateau = top;
                i = j + 1;
            } else {
                i += 1;
            }
        }

        // Assemble levels: capacity + random latency per boundary from the
        // chase staircase; line sizes from event counters (stage 3a); and
        // sequential latencies from unit-stride sweeps with inner-level
        // subtraction (stage 3b).
        let lines = self.detect_lines(boundaries.len());
        let mut levels = Vec::new();
        let mut inner_per_byte = 0.0; // Σ_{j<i} l_s,j / B_j
        for (idx, &(capacity, rand_ns)) in boundaries.iter().enumerate() {
            let line = lines.get(idx).copied().unwrap_or(stride);
            let footprint = match boundaries.get(idx + 1) {
                Some(&(next, _)) => (4 * capacity).min(next),
                None => (4 * capacity).min(self.max_bytes),
            };
            let per_byte = self.seq_cost_per_byte(footprint, tlb);
            let seq_ns = ((per_byte - inner_per_byte) * line as f64).max(0.0);
            inner_per_byte += seq_ns / line as f64;
            levels.push(DetectedCache {
                capacity,
                line,
                seq_miss_ns: seq_ns,
                rand_miss_ns: rand_ns,
            });
        }
        levels
    }

    /// Stride scan over the full footprint: the largest stride that still
    /// grows per-access cost substantially bounds the largest line size.
    /// The sequential page-walk cost (one TLB miss per page) is removed
    /// first, or its ramp would masquerade as an ever-growing line.
    fn detect_max_line(&mut self, tlb: &Option<DetectedTlb>) -> u64 {
        let footprint = self.max_bytes;
        let mut best = 8u64;
        let mut prev_cost = None;
        let mut stride = 8u64;
        while stride <= 4096 {
            let count = footprint / stride;
            let mut mem = self.fresh();
            let base = alloc_sweep(&mut mem, count, stride);
            let raw = sweep_cost(&mut mem, base, count, stride, 2);
            let cost = tlb
                .as_ref()
                .filter(|t| footprint > t.entries * t.page)
                .map(|t| raw - (stride as f64 / t.page as f64).min(1.0) * t.miss_ns)
                .unwrap_or(raw)
                .max(0.0);
            if let Some(p) = prev_cost {
                if p > 0.0 && cost > p * 1.15 {
                    best = stride;
                }
            }
            prev_cost = Some(cost);
            stride *= 2;
        }
        best
    }

    /// Line sizes via per-level miss counters (stage 3a).
    ///
    /// A strided sweep over a footprint exceeding every capacity misses
    /// `stride/B_i` of its accesses at level `i`; the smallest stride
    /// with one miss per access is the line size. Pure time-based knee
    /// detection is confounded by the sequential→random latency flip at
    /// the line boundary; the paper's own validation reads the R10000's
    /// hardware event counters (§6.1), so the Calibrator may too.
    fn detect_lines(&mut self, levels: usize) -> Vec<u64> {
        let footprint = self.max_bytes;
        let mut result = vec![0u64; levels];
        let mut stride = 8u64;
        while stride <= 16384 && result.contains(&0) {
            let count = footprint / stride;
            if count < 16 {
                break;
            }
            let mut mem = self.fresh();
            let base = alloc_sweep(&mut mem, count, stride);
            // Warm sweep, then measure one steady sweep.
            for i in 0..count {
                mem.read(base + i * stride, 8);
            }
            let before = mem.snapshot();
            for i in 0..count {
                mem.read(base + i * stride, 8);
            }
            let delta = mem.delta_since(&before);
            // Walk the data-cache levels inside-out (counter order mirrors
            // the hierarchy; TLB levels are skipped by their kind).
            let mut cache_idx = 0usize;
            for (li, lvl) in mem.spec().levels().iter().enumerate() {
                if lvl.kind != gcm_hardware::LevelKind::Cache {
                    continue;
                }
                if cache_idx < levels && result[cache_idx] == 0 {
                    let misses = delta.levels[li].seq_misses + delta.levels[li].rand_misses;
                    if misses as f64 >= 0.99 * count as f64 {
                        result[cache_idx] = stride;
                    }
                }
                cache_idx += 1;
            }
            stride *= 2;
        }
        result
    }

    /// Steady unit-stride sweep cost per byte over `footprint` (stage 3b),
    /// with the sequential TLB page walk removed. All levels whose
    /// capacity is below the footprint miss on every line, so the cost
    /// per byte is `Σ_{C_j < footprint} l_s,j / B_j`.
    fn seq_cost_per_byte(&mut self, footprint: u64, tlb: &Option<DetectedTlb>) -> f64 {
        let count = footprint / 8;
        let mut mem = self.fresh();
        let base = alloc_sweep(&mut mem, count, 8);
        let per_access = sweep_cost(&mut mem, base, count, 8, 3);
        let per_byte = per_access / 8.0;
        let walk = tlb
            .as_ref()
            .filter(|t| footprint > t.entries * t.page)
            .map(|t| t.miss_ns / t.page as f64)
            .unwrap_or(0.0);
        (per_byte - walk).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    #[test]
    fn report_serializes_to_json() {
        let r = CalibrationReport {
            caches: vec![DetectedCache {
                capacity: 32 * 1024,
                line: 64,
                seq_miss_ns: 4.0,
                rand_miss_ns: 12.5,
            }],
            tlb: Some(DetectedTlb {
                entries: 64,
                page: 4096,
                miss_ns: 20.0,
            }),
        };
        let json = r.to_json();
        assert!(json.contains("\"report\":\"gcm-calibration/v2\""), "{json}");
        assert!(json.contains("\"capacity_bytes\":32768"), "{json}");
        assert!(json.contains("\"rand_miss_ns\":12.500"), "{json}");
        assert!(json.contains("\"page_bytes\":4096"), "{json}");
        let no_tlb = CalibrationReport { tlb: None, ..r };
        assert!(no_tlb.to_json().contains("\"tlb\":null"));
    }

    #[test]
    fn recovers_tiny_machine() {
        // tiny: L1 2 KB/32 B (5/15 ns), L2 16 KB/64 B (50/150 ns),
        // TLB 8 × 1 KB (100 ns).
        let mut cal = Calibrator::new(presets::tiny(), 128 * 1024);
        let report = cal.run();

        let tlb = report.tlb.as_ref().expect("TLB must be found");
        assert_eq!(tlb.page, 1024, "page size");
        assert_eq!(tlb.entries, 8, "entries");
        assert!(
            (tlb.miss_ns - 100.0).abs() < 35.0,
            "TLB latency {}",
            tlb.miss_ns
        );

        assert_eq!(
            report.caches.len(),
            2,
            "two cache levels: {:?}",
            report.caches
        );
        let l1 = &report.caches[0];
        assert_eq!(l1.capacity, 2048);
        assert_eq!(l1.line, 32);
        assert!(
            (l1.rand_miss_ns - 15.0).abs() < 6.0,
            "L1 rand {}",
            l1.rand_miss_ns
        );
        assert!(
            (l1.seq_miss_ns - 5.0).abs() < 3.0,
            "L1 seq {}",
            l1.seq_miss_ns
        );
        let l2 = &report.caches[1];
        assert_eq!(l2.capacity, 16 * 1024);
        assert_eq!(l2.line, 64);
        assert!(
            (l2.rand_miss_ns - 150.0).abs() < 40.0,
            "L2 rand {}",
            l2.rand_miss_ns
        );
        assert!(
            (l2.seq_miss_ns - 50.0).abs() < 20.0,
            "L2 seq {}",
            l2.seq_miss_ns
        );
    }

    #[test]
    fn blind_to_the_spec() {
        // Doubling the L1 capacity must move the detected boundary.
        use gcm_hardware::{Associativity, HardwareBuilder};
        let hw = HardwareBuilder::new("alt", 100.0)
            .cache("L1", 4096, 32, Associativity::Ways(2), 5.0, 15.0)
            .cache("L2", 32 * 1024, 64, Associativity::Ways(4), 50.0, 150.0)
            .tlb("TLB", 8, 1024, 100.0)
            .build()
            .unwrap();
        let mut cal = Calibrator::new(hw, 256 * 1024);
        let report = cal.run();
        assert_eq!(report.caches.len(), 2);
        assert_eq!(report.caches[0].capacity, 4096);
        assert_eq!(report.caches[1].capacity, 32 * 1024);
    }
}

#[cfg(test)]
mod origin_tests {
    use super::*;
    use gcm_hardware::presets;

    /// Full Table-3 recovery on the paper's machine. Heavier than the
    /// tiny-machine test (≈ seconds in debug builds) but the headline
    /// check of the calibration methodology.
    #[test]
    fn recovers_origin2000() {
        let mut cal = Calibrator::new(presets::origin2000(), 16 * 1024 * 1024);
        let report = cal.run();

        let tlb = report.tlb.as_ref().expect("TLB must be found");
        assert_eq!(tlb.entries, 64);
        assert_eq!(tlb.page, 16 * 1024);
        assert!(
            (tlb.miss_ns - 228.0).abs() < 30.0,
            "TLB latency {}",
            tlb.miss_ns
        );

        assert_eq!(report.caches.len(), 2, "{:?}", report.caches);
        let l1 = &report.caches[0];
        assert_eq!(l1.capacity, 32 * 1024);
        assert_eq!(l1.line, 32);
        assert!((l1.seq_miss_ns - 8.0).abs() < 2.0);
        assert!((l1.rand_miss_ns - 24.0).abs() < 6.0);
        let l2 = &report.caches[1];
        assert_eq!(l2.capacity, 4 * 1024 * 1024);
        assert_eq!(l2.line, 128);
        assert!((l2.seq_miss_ns - 188.0).abs() < 25.0);
        assert!((l2.rand_miss_ns - 400.0).abs() < 60.0);
    }
}
