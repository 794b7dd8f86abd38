//! The full simulated memory hierarchy.
//!
//! [`MemorySystem`] glues together an [`Arena`] (real backing bytes), one
//! [`SimCache`] per hardware level, per-level [`LevelStats`], and a
//! charged-latency clock. Every simulated access:
//!
//! 1. is split into chunks at the innermost cache's line granularity,
//! 2. probes the TLB once per chunk (page-granular),
//! 3. walks the data-cache chain inside-out, stopping at the first hit,
//! 4. charges each missed level its sequential or random miss latency
//!    (sequential = the missed line follows the previously missed line at
//!    that level, modelling EDO/prefetch streams, paper §2.2).
//!
//! The clock therefore realises the paper's Eq 3.1,
//! `T_mem = Σ_i (Ms_i·l_s,i + Mr_i·l_r,i)`, with the miss counts coming
//! from simulation instead of estimation — exactly the "measured" side of
//! the validation experiments in §6.

use crate::arena::Arena;
use crate::cache::{AccessOutcome, SimCache};
use crate::stats::{LevelStats, MissClass};
use crate::Addr;
use gcm_hardware::{HardwareSpec, LevelKind};

/// A point-in-time copy of all counters, for interval measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Per-level counters, in the order of [`HardwareSpec::levels`].
    pub levels: Vec<LevelStats>,
    /// Charged memory time in nanoseconds.
    pub clock_ns: f64,
}

impl Snapshot {
    /// Interval counters: `self - earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            levels: self
                .levels
                .iter()
                .zip(&earlier.levels)
                .map(|(a, b)| *a - *b)
                .collect(),
            clock_ns: self.clock_ns - earlier.clock_ns,
        }
    }

    /// Total misses across all levels.
    pub fn total_misses(&self) -> u64 {
        self.levels.iter().map(|l| l.misses()).sum()
    }
}

/// The simulated machine: arena + cache hierarchy + counters + clock.
#[derive(Debug)]
pub struct MemorySystem {
    spec: HardwareSpec,
    /// One simulated cache per spec level (same order).
    caches: Vec<SimCache>,
    /// Indices (into `caches`) of the data path, inside-out: caches first,
    /// then the buffer pool if present.
    data_path: Vec<usize>,
    /// Indices of TLB levels.
    tlb_path: Vec<usize>,
    stats: Vec<LevelStats>,
    clock_ns: f64,
    arena: Arena,
    chunk: u64,
}

impl MemorySystem {
    /// Build a memory system for `spec` (miss classification disabled).
    pub fn new(spec: HardwareSpec) -> Self {
        Self::build(spec, false)
    }

    /// Build a memory system with `[HS89]` compulsory/capacity/conflict
    /// classification enabled (slower; used by the miss-taxonomy
    /// experiments).
    pub fn with_classification(spec: HardwareSpec) -> Self {
        Self::build(spec, true)
    }

    fn build(spec: HardwareSpec, classify: bool) -> Self {
        let caches: Vec<SimCache> = spec
            .levels()
            .iter()
            .map(|l| {
                let c = SimCache::new(l.clone());
                if classify {
                    c.with_classification()
                } else {
                    c
                }
            })
            .collect();
        let mut data_path = Vec::new();
        let mut tlb_path = Vec::new();
        for (i, l) in spec.levels().iter().enumerate() {
            match l.kind {
                LevelKind::Cache | LevelKind::BufferPool => data_path.push(i),
                LevelKind::Tlb => tlb_path.push(i),
            }
        }
        let chunk = data_path
            .first()
            .map(|&i| spec.levels()[i].line)
            .unwrap_or(64);
        let n = spec.levels().len();
        MemorySystem {
            spec,
            caches,
            data_path,
            tlb_path,
            stats: vec![LevelStats::default(); n],
            clock_ns: 0.0,
            arena: Arena::new(),
            chunk,
        }
    }

    /// The hardware description being simulated.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// Allocate simulated memory (see [`Arena::alloc`]).
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        self.arena.alloc(bytes, align)
    }

    /// Allocate with a deliberate misalignment (see [`Arena::alloc_offset`]).
    pub fn alloc_offset(&mut self, bytes: u64, align: u64, offset: u64) -> Addr {
        self.arena.alloc_offset(bytes, align, offset)
    }

    /// Host-side view of the backing bytes (no simulation). Use for
    /// workload setup that must not perturb the counters.
    pub fn host(&self) -> &Arena {
        &self.arena
    }

    /// Mutable host-side view (no simulation).
    pub fn host_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    #[inline]
    fn touch_chunk(&mut self, addr: Addr) {
        // TLB probe (page-granular, independent of the data path).
        for &ti in &self.tlb_path {
            probe(
                &mut self.caches[ti],
                &mut self.stats[ti],
                &mut self.clock_ns,
                addr,
            );
        }
        // Data path: inside-out, stop at first hit.
        for &di in &self.data_path {
            if probe(
                &mut self.caches[di],
                &mut self.stats[di],
                &mut self.clock_ns,
                addr,
            ) {
                break;
            }
        }
    }

    /// Simulate an access touching `[addr, addr+len)` (read and write are
    /// symmetric: the paper does not distinguish read from write bandwidth,
    /// §2.2).
    pub fn touch(&mut self, addr: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr & !(self.chunk - 1);
        let last = (addr + len - 1) & !(self.chunk - 1);
        let mut a = first;
        loop {
            self.touch_chunk(a);
            if a >= last {
                break;
            }
            a += self.chunk;
        }
    }

    /// Simulated read of `len` bytes at `addr` (cache accounting only; use
    /// the typed readers to also fetch data).
    #[inline]
    pub fn read(&mut self, addr: Addr, len: u64) {
        self.touch(addr, len);
    }

    /// Simulated write of `len` bytes at `addr` (cache accounting only).
    #[inline]
    pub fn write(&mut self, addr: Addr, len: u64) {
        self.touch(addr, len);
    }

    /// Simulated read of a little-endian `u64`.
    #[inline]
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        self.touch(addr, 8);
        self.arena.read_u64(addr)
    }

    /// Simulated write of a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.touch(addr, 8);
        self.arena.write_u64(addr, v);
    }

    /// Simulated copy of `len` bytes (reads source, writes destination).
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        self.touch(src, len);
        self.touch(dst, len);
        self.arena.copy(src, dst, len);
    }

    /// Current per-level counters (order of [`HardwareSpec::levels`]).
    pub fn stats(&self) -> &[LevelStats] {
        &self.stats
    }

    /// Counters for the level called `name`, if it exists.
    pub fn stats_for(&self, name: &str) -> Option<&LevelStats> {
        self.spec.level_index(name).map(|i| &self.stats[i])
    }

    /// Charged memory time so far, in nanoseconds (the measured side of
    /// Eq 3.1).
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Copy all counters for an interval measurement.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            levels: self.stats.clone(),
            clock_ns: self.clock_ns,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        self.snapshot().since(earlier)
    }

    /// Evict everything from every cache (counters are kept). The paper's
    /// experiments "assume initially empty caches" (§4.5); call this
    /// between algorithm runs to restore that state.
    pub fn flush_caches(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
    }
}

/// Probe one level for `addr`: count the access and, on a miss, charge the
/// level's sequential or random miss latency to its counters and to
/// `clock_ns`. Returns true on a hit.
#[inline]
fn probe(cache: &mut SimCache, st: &mut LevelStats, clock_ns: &mut f64, addr: Addr) -> bool {
    st.accesses += 1;
    match cache.access(addr) {
        AccessOutcome::Hit => {
            st.hits += 1;
            true
        }
        AccessOutcome::Miss { sequential, class } => {
            let lvl = cache.level();
            let ns = if sequential {
                lvl.seq_miss_ns
            } else {
                lvl.rand_miss_ns
            };
            if sequential {
                st.seq_misses += 1;
            } else {
                st.rand_misses += 1;
            }
            record_class(st, class);
            st.charged_ns += ns;
            *clock_ns += ns;
            false
        }
    }
}

#[inline]
fn record_class(st: &mut LevelStats, class: Option<MissClass>) {
    match class {
        Some(MissClass::Compulsory) => st.compulsory += 1,
        Some(MissClass::Capacity) => st.capacity_misses += 1,
        Some(MissClass::Conflict) => st.conflict_misses += 1,
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn mem() -> MemorySystem {
        MemorySystem::new(presets::tiny())
    }

    #[test]
    fn sequential_sweep_miss_count_matches_lines() {
        // tiny L1: 32 B lines. Sweeping 4096 bytes touches 128 lines.
        let mut m = mem();
        let p = m.alloc(4096, 64);
        for i in 0..512 {
            m.read(p + i * 8, 8);
        }
        let l1 = m.stats_for("L1").unwrap();
        assert_eq!(l1.misses(), 128);
        // Sequential stream: all but the first miss are line-adjacent.
        assert_eq!(l1.rand_misses, 1);
        assert_eq!(l1.seq_misses, 127);
        // L2 (64 B lines): 64 misses.
        let l2 = m.stats_for("L2").unwrap();
        assert_eq!(l2.misses(), 64);
    }

    #[test]
    fn repeated_in_cache_access_hits() {
        let mut m = mem();
        let p = m.alloc(1024, 64); // fits tiny L1 (2 KB)
        for _ in 0..3 {
            for i in 0..128 {
                m.read(p + i * 8, 8);
            }
        }
        let l1 = m.stats_for("L1").unwrap();
        assert_eq!(l1.misses(), 32); // 1024/32 lines, first sweep only
        assert_eq!(l1.hits, 3 * 128 - 32);
    }

    #[test]
    fn clock_charges_miss_latencies() {
        let mut m = mem();
        let p = m.alloc(64, 64);
        m.read(p, 8);
        // One L1 miss (random, 15 ns) + one L2 miss (random, 150 ns) + one
        // TLB miss (100 ns) = 265 ns.
        assert!((m.clock_ns() - 265.0).abs() < 1e-9);
        m.read(p, 8); // now everything hits: no charge
        assert!((m.clock_ns() - 265.0).abs() < 1e-9);
    }

    #[test]
    fn tlb_counts_page_misses() {
        let mut m = mem();
        // tiny TLB: 8 entries of 1 KB pages.
        let p = m.alloc(16 * 1024, 1024);
        for page in 0..16 {
            m.read(p + page * 1024, 8);
        }
        let tlb = m.stats_for("TLB").unwrap();
        assert_eq!(tlb.misses(), 16);
        // Sweep again: 16 pages > 8 entries, LRU thrashes, all miss again.
        for page in 0..16 {
            m.read(p + page * 1024, 8);
        }
        assert_eq!(m.stats_for("TLB").unwrap().misses(), 32);
    }

    #[test]
    fn multi_line_touch_counts_every_line() {
        let mut m = mem();
        let p = m.alloc(256, 32);
        m.read(p, 256); // 8 L1 lines in one call
        assert_eq!(m.stats_for("L1").unwrap().misses(), 8);
    }

    #[test]
    fn unaligned_touch_spans_extra_line() {
        let mut m = mem();
        let p = m.alloc_offset(64, 32, 16);
        m.read(p, 32); // bytes 16..48 of two 32-byte lines
        assert_eq!(m.stats_for("L1").unwrap().misses(), 2);
    }

    #[test]
    fn snapshot_delta() {
        let mut m = mem();
        let p = m.alloc(4096, 64);
        m.read(p, 64);
        let snap = m.snapshot();
        m.read(p + 2048, 64);
        let d = m.delta_since(&snap);
        let l1 = m.spec().level_index("L1").unwrap();
        assert_eq!(d.levels[l1].misses(), 2);
        assert!(d.clock_ns > 0.0);
    }

    #[test]
    fn reset_and_flush() {
        let mut m = mem();
        let p = m.alloc(64, 64);
        m.read(p, 8);
        let l1 = m.spec().level_index("L1").unwrap();
        // Cache still warm: a re-read hits and charges nothing.
        let warm = m.snapshot();
        m.read(p, 8);
        let d = m.delta_since(&warm);
        assert_eq!((d.levels[l1].hits, d.levels[l1].misses()), (1, 0));
        assert_eq!(d.clock_ns, 0.0);
        // Flushed: the same read misses again; counters keep counting.
        m.flush_caches();
        m.read(p, 8);
        assert_eq!(m.stats()[l1].misses(), 2);
    }

    #[test]
    fn data_roundtrip_through_simulation() {
        let mut m = mem();
        let p = m.alloc(128, 8);
        m.write_u64(p, 77);
        m.write_u64(p + 8, 11);
        assert_eq!(m.read_u64(p), 77);
        assert_eq!(m.read_u64(p + 8), 11);
    }

    #[test]
    fn origin2000_l2_line_span() {
        // One 128-byte L2 line covers four 32-byte L1 lines: sweeping one
        // L2 line causes 4 L1 misses but only 1 L2 miss.
        let mut m = MemorySystem::new(presets::origin2000());
        let p = m.alloc(128, 128);
        for i in 0..4 {
            m.read(p + i * 32, 8);
        }
        assert_eq!(m.stats_for("L1").unwrap().misses(), 4);
        assert_eq!(m.stats_for("L2").unwrap().misses(), 1);
    }

    #[test]
    fn classification_mode_populates_classes() {
        let mut m = MemorySystem::with_classification(presets::tiny());
        let p = m.alloc(8192, 64); // 4× tiny L1
        for i in 0..256 {
            m.read(p + i * 32, 8);
        }
        for i in 0..256 {
            m.read(p + i * 32, 8);
        }
        let l1 = m.stats_for("L1").unwrap();
        assert_eq!(l1.compulsory, 256);
        assert!(l1.capacity_misses > 0);
        assert_eq!(
            l1.compulsory + l1.capacity_misses + l1.conflict_misses,
            l1.misses()
        );
    }

    #[test]
    fn buffer_pool_level_participates() {
        let hw = presets::with_buffer_pool(presets::tiny(), 1 << 20, 8192);
        let mut m = MemorySystem::new(hw);
        let p = m.alloc(8192, 8192);
        m.read(p, 8);
        let bp = m.stats_for("BP").unwrap();
        assert_eq!(bp.misses(), 1); // first touch faults the page in
        assert!(m.clock_ns() > 6.0e6); // dominated by the disk seek
    }
}
