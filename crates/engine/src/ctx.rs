//! Execution context: the engine's handle on a machine's memory.
//!
//! [`ExecContext`] wraps any [`MemoryBackend`] — the simulated hierarchy
//! ([`SimBackend`], the default) or the host's real memory
//! ([`NativeBackend`](crate::native::NativeBackend)) — and counts
//! *logical CPU operations* (comparisons, swaps, hash computations,
//! tuple moves). The paper's Eq 6.1 splits total time into
//! `T_mem + T_cpu` with `T_cpu` calibrated per algorithm in an in-cache
//! setting; the measured analogue is the backend's elapsed time plus
//! `per_op_ns × ops` (on native memory the wall clock already contains
//! `T_cpu`, see [`MemoryBackend::total_ns`]).

use crate::backend::{MemoryBackend, SimBackend};
use crate::relation::{Relation, Segment};
use gcm_hardware::HardwareSpec;
use gcm_sim::{Addr, MemorySystem};

/// An output whose cardinality is known only once the one charged pass
/// writing it ends: allocated at an upper bound as the arena's last
/// allocation ([`ExecContext::tail_output`]), written densely, then
/// [sealed](ExecContext::seal) to the count the pass produced. Nothing
/// else may allocate while it is open.
#[derive(Debug)]
pub(crate) struct TailOutput {
    base: Addr,
    cap: u64,
    w: u64,
}

impl TailOutput {
    /// Base address of the first tuple.
    pub(crate) fn base(&self) -> Addr {
        self.base
    }

    /// Address of tuple `i` (below the current capacity).
    #[inline]
    pub(crate) fn tuple(&self, i: u64) -> Addr {
        debug_assert!(i < self.cap, "tuple index {i} out of {}", self.cap);
        self.base + i * self.w
    }

    /// The arena's bump pointer while this output is open.
    fn end(&self) -> Addr {
        tail_end(self.base, self.w, self.cap)
    }
}

/// The bump pointer of an open tail output of `cap` `w`-byte tuples.
fn tail_end(base: Addr, w: u64, cap: u64) -> Addr {
    base + (cap * w).max(1)
}

/// Make room for tuple `i` in the open tail output at `base` holding
/// `cap` `w`-byte tuples, and return the new capacity: a write past the
/// capacity doubles the allocation in place through `set_high_water`
/// (the backend's [`MemoryBackend::set_high_water`]), and the output
/// must still be the arena's last allocation. Shared by
/// [`ExecContext::write_tail`] and the hash probe's bulk entry point,
/// which writes the same kind of output.
pub(crate) fn grow_tail(
    set_high_water: impl FnOnce(Addr) -> Addr,
    base: Addr,
    w: u64,
    cap: u64,
    i: u64,
) -> u64 {
    if i < cap {
        return cap;
    }
    let grown = (2 * cap).max(i + 1);
    let prev = set_high_water(tail_end(base, w, grown));
    assert_eq!(
        prev,
        tail_end(base, w, cap),
        "a tail output must stay the last allocation"
    );
    grown
}

/// Write tuple `i` of the open tail output at `base` (`cap` tuples of
/// `w` bytes) entirely — a charged write of all `w` bytes with the given
/// key and zero payload, growing the output first if `i` is past its
/// capacity — and return the capacity.
#[inline]
pub(crate) fn write_tail_at<B: MemoryBackend + ?Sized>(
    mem: &mut B,
    base: Addr,
    w: u64,
    cap: u64,
    i: u64,
    key: u64,
) -> u64 {
    let cap = grow_tail(|end| mem.set_high_water(end), base, w, cap, i);
    let addr = base + i * w;
    mem.touch(addr, w);
    mem.host_write_u64(addr, key);
    cap
}

/// Measured counters of one operator run on backend `B`.
pub struct RunStats<B: MemoryBackend = SimBackend> {
    /// Backend interval counters: per-level misses and charged memory
    /// nanoseconds on the simulator, wall-clock time on native memory.
    pub mem: B::Counters,
    /// Logical CPU operations performed.
    pub ops: u64,
}

impl<B: MemoryBackend> Clone for RunStats<B> {
    fn clone(&self) -> Self {
        RunStats {
            mem: self.mem.clone(),
            ops: self.ops,
        }
    }
}

impl<B: MemoryBackend> std::fmt::Debug for RunStats<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStats")
            .field("mem", &self.mem)
            .field("ops", &self.ops)
            .finish()
    }
}

impl<B: MemoryBackend> RunStats<B> {
    /// Measured total time under a per-op CPU calibration (the
    /// engine-side Eq 6.1; wall-clock backends return elapsed time alone
    /// — see [`MemoryBackend::total_ns`]).
    pub fn total_ns(&self, per_op_ns: f64) -> f64 {
        B::total_ns(&self.mem, self.ops, per_op_ns)
    }

    /// Elapsed (charged or wall-clock) nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        B::elapsed_ns(&self.mem)
    }
}

impl RunStats<SimBackend> {
    /// Misses at spec level `idx` (simulated runs only: native memory
    /// has no per-level counters).
    pub fn misses_at(&self, idx: usize) -> u64 {
        self.mem.levels[idx].seq_misses + self.mem.levels[idx].rand_misses
    }
}

/// The engine's execution environment over a pluggable memory backend.
#[derive(Debug)]
pub struct ExecContext<B: MemoryBackend = SimBackend> {
    /// The memory substrate (public: operators drive it directly).
    pub mem: B,
    ops: u64,
}

impl ExecContext<SimBackend> {
    /// A context on the given simulated machine.
    pub fn new(spec: HardwareSpec) -> ExecContext<SimBackend> {
        ExecContext::with_backend(MemorySystem::new(spec))
    }

    /// A simulated context with `[HS89]` miss classification enabled.
    pub fn with_classification(spec: HardwareSpec) -> ExecContext<SimBackend> {
        ExecContext::with_backend(MemorySystem::with_classification(spec))
    }
}

impl<B: MemoryBackend> ExecContext<B> {
    /// A context over an explicit backend (the generic constructor; see
    /// [`ExecContext::new`] for the simulator and
    /// [`ExecContext::native`](crate::native) for host memory).
    pub fn with_backend(mem: B) -> ExecContext<B> {
        ExecContext { mem, ops: 0 }
    }

    /// Allocate a zeroed relation of `n` tuples × `w` bytes, aligned to
    /// the largest cache line (so regions start line-aligned unless an
    /// experiment asks otherwise).
    pub fn relation(&mut self, name: &str, n: u64, w: u64) -> Relation {
        let align = self.mem.line_align();
        let base = self.mem.alloc((n * w).max(1), align);
        Relation::new(name, base, n, w)
    }

    /// Open a [`TailOutput`] of up to `bound` `w`-byte tuples, placed
    /// exactly where [`relation`](ExecContext::relation) would place it.
    pub(crate) fn tail_output(&mut self, bound: u64, w: u64) -> TailOutput {
        let align = self.mem.line_align();
        let base = self.mem.alloc((bound * w).max(1), align);
        TailOutput {
            base,
            cap: bound,
            w,
        }
    }

    /// Write tuple `i` of an open tail output entirely (charged write of
    /// all `w` bytes), with the given key and zero payload. A write past
    /// the capacity first doubles the allocation in place, which stays
    /// the last one.
    #[inline]
    pub(crate) fn write_tail(&mut self, out: &mut TailOutput, i: u64, key: u64) {
        out.cap = write_tail_at(&mut self.mem, out.base, out.w, out.cap, i, key);
    }

    /// Probe the hash table whose slots are `table` with every tuple of
    /// `input` through [`MemoryBackend::hash_probe_bulk`], writing one
    /// tuple per match into the open tail output `out` (grown as
    /// [`write_tail`](ExecContext::write_tail) would grow it) and
    /// counting the probe's logical ops. Returns the match count.
    pub(crate) fn probe_into_tail(
        &mut self,
        input: &Relation,
        table: &Relation,
        out: &mut TailOutput,
    ) -> u64 {
        let (matches, cap, ops) = self
            .mem
            .hash_probe_bulk(input, table, out.base, out.w, out.cap);
        out.cap = cap;
        self.ops += ops;
        matches
    }

    /// Close a tail output at `n` tuples: the bump pointer moves to
    /// `base + max(1, n·w)`, exactly where an exact-sized
    /// [`relation`](ExecContext::relation) would have left it, so every
    /// later address is the same as if `n` had been known up front.
    pub(crate) fn seal(&mut self, out: TailOutput, name: &str, n: u64) -> Relation {
        assert!(n <= out.cap, "sealed {n} tuples into {} slots", out.cap);
        let prev = self.mem.set_high_water(out.base + (n * out.w).max(1));
        assert_eq!(
            prev,
            out.end(),
            "a tail output must stay the last allocation"
        );
        Relation::new(name, out.base, n, out.w)
    }

    /// Allocate a relation and fill its keys host-side (setup data does
    /// not perturb the simulator's counters; payload bytes stay zero).
    pub fn relation_from_keys(&mut self, name: &str, keys: &[u64], w: u64) -> Relation {
        let rel = self.relation(name, keys.len() as u64, w);
        for (i, &k) in keys.iter().enumerate() {
            self.mem.host_write_u64(rel.tuple(i as u64), k);
        }
        rel
    }

    /// Bind `seg`, an image of `n` `w`-byte tuples, as a relation: mapped
    /// read-only in place where the backend can address it
    /// ([`MemoryBackend::map_segment`]), else copied in host-side
    /// ([`relation_from_segment`](ExecContext::relation_from_segment)).
    /// The bytes are the same either way; only a copy may be written.
    pub fn bind(&mut self, name: &str, seg: &Segment, n: u64, w: u64) -> Relation {
        debug_assert_eq!(seg.len(), n * w, "image of {n} × {w} bytes");
        match self.mem.map_segment(seg) {
            Some(base) => Relation::new(name, base, n, w),
            None => self.relation_from_segment(name, seg, n, w),
        }
    }

    /// Allocate a relation of `n` `w`-byte tuples and fill it host-side
    /// with the image `seg`: a private, writable copy, placed and filled
    /// exactly as [`relation_from_keys`](ExecContext::relation_from_keys)
    /// would place and fill it.
    pub fn relation_from_segment(&mut self, name: &str, seg: &Segment, n: u64, w: u64) -> Relation {
        let rel = self.relation(name, n, w);
        if !seg.is_empty() {
            self.mem.host_write_bytes(rel.base(), seg.bytes());
        }
        rel
    }

    /// A relation's full content host-side, borrowed where it lies
    /// ([`MemoryBackend::host_bytes`]): uncharged, and no copy.
    pub fn relation_view(&self, rel: &Relation) -> &[u8] {
        if rel.bytes() == 0 {
            return &[];
        }
        self.mem.host_bytes(rel.base(), rel.bytes())
    }

    /// A relation's full content host-side, as owned raw bytes — the
    /// result-equality surface: two backends executing the same plan must
    /// produce byte-identical relation contents.
    pub fn relation_bytes(&self, rel: &Relation) -> Vec<u8> {
        self.relation_view(rel).to_vec()
    }

    /// Read tuple `i`'s key (charged access).
    #[inline]
    pub fn read_key(&mut self, rel: &Relation, i: u64) -> u64 {
        self.mem.read_u64(rel.key_addr(i))
    }

    /// Touch tuple `i` entirely (charged read of all `w` bytes) and
    /// return its key.
    #[inline]
    pub fn read_tuple(&mut self, rel: &Relation, i: u64) -> u64 {
        let addr = rel.tuple(i);
        self.mem.touch(addr, rel.w());
        self.mem.host_read_u64(addr)
    }

    /// Copy tuple `src_i` of `src` to `dst_i` of `dst` (charged).
    pub fn copy_tuple(&mut self, src: &Relation, src_i: u64, dst: &Relation, dst_i: u64) {
        let n = src.w().min(dst.w());
        self.mem.copy(src.tuple(src_i), dst.tuple(dst_i), n);
    }

    /// Swap tuples `i` and `j` in place (charged read+write of both).
    pub fn swap_tuples(&mut self, rel: &Relation, i: u64, j: u64) {
        self.mem.swap(rel.tuple(i), rel.tuple(j), rel.w());
    }

    /// Count `k` logical CPU operations.
    #[inline]
    pub fn count_ops(&mut self, k: u64) {
        self.ops += k;
    }

    /// Logical CPU operations so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Run `f`, returning its result and the interval counters (backend
    /// counters and logical ops) it produced.
    pub fn measure<T>(&mut self, f: impl FnOnce(&mut ExecContext<B>) -> T) -> (T, RunStats<B>) {
        let before_mem = self.mem.counters();
        let before_ops = self.ops;
        let out = f(self);
        let stats = RunStats {
            mem: self.mem.counters_since(&before_mem),
            ops: self.ops - before_ops,
        };
        (out, stats)
    }

    /// Restore cold caches as well as the backend can (paper §4.5
    /// assumes initially empty caches before each experiment; the
    /// simulator flushes exactly, native memory sweeps an eviction
    /// buffer).
    pub fn cold_caches(&mut self) {
        self.mem.cold_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;
    use gcm_sim::Snapshot;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn relation_setup_does_not_charge() {
        let mut c = ctx();
        let keys: Vec<u64> = (0..100).collect();
        let rel = c.relation_from_keys("R", &keys, 16);
        assert_eq!(c.mem.clock_ns(), 0.0);
        assert_eq!(c.mem.host().read_u64(rel.tuple(7)), 7);
    }

    #[test]
    fn read_key_is_simulated() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[5, 6, 7], 16);
        assert_eq!(c.read_key(&rel, 2), 7);
        assert!(c.mem.clock_ns() > 0.0);
    }

    #[test]
    fn swap_tuples_swaps_whole_tuples() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2], 16);
        c.mem.host_mut().write_u64(rel.tuple(0) + 8, 111); // payload of t0
        c.swap_tuples(&rel, 0, 1);
        assert_eq!(c.mem.host().read_u64(rel.tuple(0)), 2);
        assert_eq!(c.mem.host().read_u64(rel.tuple(1)), 1);
        assert_eq!(c.mem.host().read_u64(rel.tuple(1) + 8), 111);
    }

    #[test]
    fn measure_isolates_intervals() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &(0..64u64).collect::<Vec<_>>(), 8);
        let (_, warm) = c.measure(|c| {
            for i in 0..64 {
                c.read_key(&rel, i);
            }
            c.count_ops(64);
        });
        assert_eq!(warm.ops, 64);
        assert!(warm.mem.clock_ns > 0.0);
        // A second identical run hits the warm cache.
        let (_, rerun) = c.measure(|c| {
            for i in 0..64 {
                c.read_key(&rel, i);
            }
        });
        assert_eq!(rerun.mem.total_misses(), 0);
        assert_eq!(rerun.mem.clock_ns, 0.0);
        assert_eq!(rerun.elapsed_ns(), 0.0);
    }

    #[test]
    fn cold_caches_restores_misses() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2, 3], 8);
        c.read_key(&rel, 0);
        c.cold_caches();
        let (_, s) = c.measure(|c| {
            c.read_key(&rel, 0);
        });
        assert!(s.mem.total_misses() > 0);
    }

    #[test]
    fn run_stats_total_time() {
        let s: RunStats = RunStats {
            mem: Snapshot {
                levels: vec![],
                clock_ns: 100.0,
            },
            ops: 50,
        };
        assert!((s.total_ns(2.0) - 200.0).abs() < 1e-12);
        let s2 = s.clone();
        assert_eq!(s2.ops, 50);
        assert!(format!("{s2:?}").contains("RunStats"));
    }

    #[test]
    fn copy_tuple_moves_data() {
        let mut c = ctx();
        let a = c.relation_from_keys("A", &[42], 16);
        let b = c.relation("B", 1, 16);
        c.copy_tuple(&a, 0, &b, 0);
        assert_eq!(c.mem.host().read_u64(b.tuple(0)), 42);
    }

    #[test]
    fn relation_bytes_reads_whole_content() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2], 16);
        let bytes = c.relation_bytes(&rel);
        assert_eq!(bytes.len(), 32);
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 2);
        let empty = c.relation("E", 0, 8);
        assert!(c.relation_bytes(&empty).is_empty());
    }
}
