//! Native calibration: the Calibrator's micro-benchmarks on **real**
//! memory, timed with the wall clock.
//!
//! This is the paper's original methodology (§2.3, `[MBK00b]`): the
//! Calibrator ran on actual hardware and read the actual clock; the
//! simulated pipeline in [`crate::detect`] replays it against
//! `gcm_sim`. This module brings the real-machine half back — pointer
//! chases (a dependent-load cycle, so latency cannot be hidden by
//! out-of-order execution; the same latency-detection idea as the
//! pointer-chasing cache explorers) and sequential sweeps over host
//! buffers — so the *whole* loop closes on the machine the tests run
//! on: calibrate it, instantiate a cost-model-ready
//! [`HardwareSpec`](gcm_hardware::HardwareSpec), predict a plan, execute
//! it natively, compare.
//!
//! Wall-clock numbers on a shared/virtualized CI box are noisy; every
//! probe takes the minimum of several repetitions (interference only
//! ever adds time) and the detection thresholds are relative, so a
//! constant measurement overhead per access cancels out of the level
//! deltas. Consumers still must use generous tolerances — this is real
//! hardware, not the deterministic simulator.

use crate::detect::{CalibrationReport, DetectedCache, DetectedTlb};
use gcm_hardware::stride;
use std::hint::black_box;
use std::time::Instant;

/// Chase stride in bytes: past any plausible cache line (so every step
/// is its own line) while well below page size.
const CHASE_STRIDE: u64 = 256;

/// Cap on timed steps per probe, bounding calibration time.
const MAX_STEPS: u64 = 1 << 18;

/// Repetitions per probe; the minimum is kept.
const REPS: usize = 3;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Steady-state nanoseconds per step of a pointer chase over `bytes` of
/// host memory (nodes every 256 bytes — past any plausible line, below
/// any plausible page — one random cycle by Sattolo's algorithm,
/// warm-up cycle first, minimum of three timed runs). The chase is a chain of dependent loads: each step's address
/// is the previous step's value, so the measured time *is* the access
/// latency of the working set's resident level.
pub fn chase_ns_per_step(bytes: u64, seed: u64) -> f64 {
    chase_ns_per_step_at(bytes, CHASE_STRIDE, seed)
}

/// [`chase_ns_per_step`] with an explicit node stride: the TLB probe
/// chases page-stride nodes (one line per page) so every step pays a
/// page-table lookup on top of the line fetch.
fn chase_ns_per_step_at(bytes: u64, node_stride: u64, seed: u64) -> f64 {
    let count = (bytes / node_stride).max(2);
    let mut order: Vec<u64> = (0..count).collect();
    let mut rng = seed;
    for i in (1..count as usize).rev() {
        let j = (splitmix(&mut rng) % i as u64) as usize;
        order.swap(i, j);
    }
    let mut buf = vec![0u8; (count * node_stride) as usize];
    for w in 0..count as usize {
        let from = (order[w] * node_stride) as usize;
        let to = order[(w + 1) % count as usize] * node_stride;
        buf[from..from + 8].copy_from_slice(&to.to_le_bytes());
    }
    let steps = (2 * count).min(MAX_STEPS);
    let mut best = f64::INFINITY;
    let mut p = order[0] * node_stride;
    // Warm-up: one full cycle brings the set to steady state.
    for _ in 0..count {
        let i = p as usize;
        p = u64::from_le_bytes(buf[i..i + 8].try_into().expect("node"));
    }
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..steps {
            let i = p as usize;
            p = u64::from_le_bytes(buf[i..i + 8].try_into().expect("node"));
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / steps as f64;
        best = best.min(ns);
    }
    black_box(p);
    best
}

/// Steady-state nanoseconds per byte of a unit-stride sequential sweep
/// (8-byte reads) over `bytes` of host memory — the bandwidth side of
/// the calibration, from which per-level *sequential* miss latencies
/// are derived.
pub fn sweep_ns_per_byte(bytes: u64) -> f64 {
    let buf = vec![1u8; bytes.max(8) as usize];
    // Warm-up sweep; `sweep_fold` at stride 8 is the same unit-stride
    // word walk the native backend's line-touch loop uses, so the
    // calibration times exactly the primitive the engine charges for.
    let (warm, steps) = stride::sweep_fold(&buf, 8);
    black_box(warm);
    let swept = (steps * 8).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let (acc, _) = stride::sweep_fold(&buf, 8);
        black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / swept as f64);
    }
    best
}

/// Detect the host's data TLB: pointer chases with one node per 4 KiB
/// page over a doubling page-count grid. While the pages fit the TLB
/// each step costs one (cached) line fetch; past the entry count every
/// step adds a page-table walk — the first jump in the staircase gives
/// the entry count, its height the miss latency. Returns `None` when
/// no clear staircase appears (common under virtualization, where EPT
/// walks blur the boundary) — calibrated specs then simply omit the
/// TLB level, exactly like the pre-probe reports.
pub fn detect_host_tlb(max_pages: u64) -> Option<DetectedTlb> {
    const PAGE: u64 = 4096;
    let mut counts = Vec::new();
    let mut k = 16u64;
    while k <= max_pages.max(32) {
        counts.push(k);
        k *= 2;
    }
    let costs: Vec<(u64, f64)> = counts
        .iter()
        .map(|&k| (k, chase_ns_per_step_at(k * PAGE, PAGE, 0x7AB5 + k)))
        .collect();
    for w in costs.windows(2) {
        let ((prev_k, prev_c), (_, c)) = (w[0], w[1]);
        if c - prev_c > (0.3 * prev_c).max(2.0) {
            return Some(DetectedTlb {
                entries: prev_k,
                page: PAGE,
                miss_ns: (c - prev_c).max(0.1),
            });
        }
    }
    None
}

/// Calibrate the host machine: chase a size grid up to `max_bytes`
/// (choose ≥ 4× the LLC you expect, like the real tool's command-line
/// argument), detect capacity boundaries from the latency staircase,
/// and derive per-level sequential/random latencies. Line sizes are not
/// timing-detectable without hardware event counters (the paper reads
/// the R10000's, §6.1); the ubiquitous 64-byte line is assumed.
///
/// Beyond the classic capacity/latency staircase, the report also
/// carries the detected host TLB (page-stride chase).
///
/// The returned report plugs into
/// [`CalibrationReport::to_spec`] to instantiate the cost model for
/// this machine — the paper's "adaptation of the model to a specific
/// hardware" step, performed on the hardware itself.
pub fn calibrate_host(max_bytes: u64) -> CalibrationReport {
    let floor = 16 * 1024u64;
    let max_bytes = max_bytes.max(4 * floor);
    // Size grid: powers of two plus 1.5× midpoints.
    let mut sizes = Vec::new();
    let mut s = floor;
    while s <= max_bytes {
        sizes.push(s);
        if s + s / 2 <= max_bytes {
            sizes.push(s + s / 2);
        }
        s *= 2;
    }
    let costs: Vec<(u64, f64)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| (size, chase_ns_per_step(size, 0xC0FFEE + i as u64)))
        .collect();

    // Staircase detection (as in the simulated detector, with thresholds
    // sized for wall-clock noise): a boundary starts where cost grows by
    // more than max(30%, 2 ns); consecutive growth merges into one run.
    let mut boundaries: Vec<(u64, f64)> = Vec::new();
    let mut plateau = costs.first().map(|&(_, c)| c).unwrap_or(0.0);
    let mut i = 1;
    while i < costs.len() {
        let (_, c) = costs[i];
        let (prev_size, prev_c) = costs[i - 1];
        if c - prev_c > (0.3 * prev_c).max(2.0) {
            let mut j = i;
            while j + 1 < costs.len() {
                let (_, a) = costs[j];
                let (_, b) = costs[j + 1];
                if b - a > (0.1 * a).max(1.0) {
                    j += 1;
                } else {
                    break;
                }
            }
            let top = costs[j].1;
            boundaries.push((prev_size, (top - plateau).max(0.1)));
            plateau = top;
            i = j + 1;
        } else {
            i += 1;
        }
    }
    // Fallback: a perfectly flat staircase (tiny grid, or a machine
    // whose caches all exceed max_bytes) still yields one usable level.
    if boundaries.is_empty() {
        let last = costs.last().expect("non-empty grid");
        boundaries.push((last.0 / 4, last.1.max(0.5)));
    }

    let line = 64u64;
    let mut caches = Vec::new();
    let mut inner_per_byte = 0.0;
    for (idx, &(capacity, rand_ns)) in boundaries.iter().enumerate() {
        let footprint = match boundaries.get(idx + 1) {
            Some(&(next, _)) => (4 * capacity).min(next),
            None => (4 * capacity).min(max_bytes),
        };
        let per_byte = sweep_ns_per_byte(footprint);
        let seq_ns = ((per_byte - inner_per_byte) * line as f64).max(0.01);
        inner_per_byte += seq_ns / line as f64;
        caches.push(DetectedCache {
            capacity,
            line,
            seq_miss_ns: seq_ns,
            rand_miss_ns: rand_ns,
        });
    }
    let tlb = detect_host_tlb((max_bytes / 4096).min(4096));
    CalibrationReport { caches, tlb }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_cache_chase_is_slower() {
        // 16 KB sits in L1/L2 on anything built this century; 64 MB does
        // not. Dependent loads must therefore take measurably longer per
        // step — on any machine, physical or virtual.
        let small = chase_ns_per_step(16 * 1024, 1);
        let large = chase_ns_per_step(64 * 1024 * 1024, 2);
        assert!(
            large > 1.2 * small,
            "latency must grow out of cache: {small:.2} -> {large:.2} ns/step"
        );
    }

    #[test]
    fn sweep_cost_is_positive_and_small() {
        let per_byte = sweep_ns_per_byte(8 * 1024 * 1024);
        assert!(per_byte > 0.0 && per_byte < 100.0, "{per_byte} ns/B");
    }

    #[test]
    fn host_calibration_yields_a_valid_spec() {
        let report = calibrate_host(16 * 1024 * 1024);
        assert!(!report.caches.is_empty());
        // Capacities ascend, all parameters positive.
        for w in report.caches.windows(2) {
            assert!(w[0].capacity < w[1].capacity, "{report:?}");
        }
        for c in &report.caches {
            assert!(c.capacity >= 4096, "{c:?}");
            assert!(c.seq_miss_ns > 0.0 && c.rand_miss_ns > 0.0, "{c:?}");
        }
        if let Some(t) = &report.tlb {
            assert_eq!(t.page, 4096);
            assert!(t.entries >= 16 && t.miss_ns > 0.0, "{t:?}");
        }
        let spec = report.to_spec("host", 1000.0).expect("valid spec");
        assert!(!spec.levels().is_empty());
    }

    #[test]
    fn tlb_detection_is_sane_when_present() {
        if let Some(t) = detect_host_tlb(2048) {
            assert_eq!(t.page, 4096);
            assert!(t.entries >= 16);
            assert!(t.entries.is_power_of_two());
            assert!(t.miss_ns > 0.0);
        }
    }
}
