//! Measurement primitives: pointer chases and strided sweeps over
//! simulated memory.
//!
//! These are the micro-benchmarks of the paper's Calibrator tool
//! (`[MBK00b]`, §2.3): they know nothing about the machine they probe —
//! they only time accesses (here: charged simulator latency) and leave
//! interpretation to the detection layer.

use gcm_sim::{Addr, MemorySystem};

/// Deterministic PRNG for building chase cycles (self-contained so the
/// calibrator does not depend on the workload crate).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pointer-chase cycle: `count` nodes spaced `stride` bytes apart,
/// linked in a random single cycle (Sattolo's algorithm), each node
/// holding the simulated address of its successor.
pub struct Chase {
    start: Addr,
    count: u64,
}

impl Chase {
    /// Build a chase over a fresh allocation (host-side setup: building
    /// the cycle charges nothing).
    pub fn build(mem: &mut MemorySystem, count: u64, stride: u64, seed: u64) -> Chase {
        assert!(count >= 2, "a cycle needs at least two nodes");
        assert!(stride >= 8, "nodes hold an 8-byte pointer");
        let base = mem.alloc(count * stride, stride.clamp(8, 4096));
        // Sattolo: a uniformly random single cycle over the nodes.
        let mut order: Vec<u64> = (0..count).collect();
        let mut rng = seed;
        for i in (1..count as usize).rev() {
            let j = (splitmix(&mut rng) % i as u64) as usize;
            order.swap(i, j);
        }
        for w in 0..count as usize {
            let from = order[w];
            let to = order[(w + 1) % count as usize];
            mem.host_mut()
                .write_u64(base + from * stride, base + to * stride);
        }
        Chase {
            start: base + order[0] * stride,
            count,
        }
    }

    /// Run `steps` chase steps (simulated), returning charged nanoseconds
    /// per step.
    pub fn run(&self, mem: &mut MemorySystem, steps: u64) -> f64 {
        let before = mem.clock_ns();
        let mut p = self.start;
        for _ in 0..steps {
            p = mem.read_u64(p);
        }
        (mem.clock_ns() - before) / steps as f64
    }

    /// Warm the caches with one full cycle, then measure one full cycle:
    /// the Calibrator's steady-state per-access latency.
    pub fn steady_cost(&self, mem: &mut MemorySystem) -> f64 {
        self.run(mem, self.count); // warm-up
        self.run(mem, self.count)
    }
}

/// Sequentially sweep `count` nodes spaced `stride` bytes, `reps` times,
/// reading 8 bytes per node; returns charged nanoseconds per access in
/// the *last* sweep (steady state).
pub fn sweep_cost(mem: &mut MemorySystem, base: Addr, count: u64, stride: u64, reps: u64) -> f64 {
    assert!(reps >= 1);
    for _ in 0..reps.saturating_sub(1) {
        for i in 0..count {
            mem.read(base + i * stride, 8);
        }
    }
    let before = mem.clock_ns();
    for i in 0..count {
        mem.read(base + i * stride, 8);
    }
    (mem.clock_ns() - before) / count as f64
}

/// Allocate a region for sweeping (stride-aligned).
pub fn alloc_sweep(mem: &mut MemorySystem, count: u64, stride: u64) -> Addr {
    mem.alloc(count * stride, stride.clamp(8, 4096))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    #[test]
    fn chase_visits_every_node() {
        let mut mem = MemorySystem::new(presets::tiny());
        let chase = Chase::build(&mut mem, 64, 32, 7);
        // Follow host-side: must return to start after exactly count hops.
        let mut p = chase.start;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            assert!(seen.insert(p), "premature cycle");
            p = mem.host().read_u64(p);
        }
        assert_eq!(p, chase.start);
    }

    #[test]
    fn fitting_chase_costs_nothing_in_steady_state() {
        let mut mem = MemorySystem::new(presets::tiny());
        // 32 nodes × 32 B = 1 KB < 2 KB L1.
        let chase = Chase::build(&mut mem, 32, 32, 1);
        let cost = chase.steady_cost(&mut mem);
        assert_eq!(cost, 0.0, "in-cache chase must be free of miss charges");
    }

    #[test]
    fn oversized_chase_pays_random_latency() {
        let mut mem = MemorySystem::new(presets::tiny());
        // 1024 nodes × 32 B = 32 KB ≫ L1 (2 KB): every step misses L1.
        let chase = Chase::build(&mut mem, 1024, 32, 2);
        let cost = chase.steady_cost(&mut mem);
        // At least the L1 random miss latency (15 ns) per step.
        assert!(cost >= 14.0, "cost {cost}");
    }

    #[test]
    fn sweep_steady_state_in_cache_is_free() {
        let mut mem = MemorySystem::new(presets::tiny());
        let base = alloc_sweep(&mut mem, 32, 32);
        let cost = sweep_cost(&mut mem, base, 32, 32, 3);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn sweep_cost_grows_with_stride() {
        // Classic line-size detection signal: per-access cost grows with
        // stride until stride reaches the line size.
        let mut mem = MemorySystem::new(presets::tiny());
        let mut costs = Vec::new();
        for stride in [8u64, 16, 32] {
            let count = 64 * 1024 / stride; // fixed 64 KB footprint ≫ L2
            let base = alloc_sweep(&mut mem, count, stride);
            costs.push(sweep_cost(&mut mem, base, count, stride, 2));
        }
        assert!(costs[0] < costs[1] && costs[1] < costs[2], "{costs:?}");
    }
}
