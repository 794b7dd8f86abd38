//! The pluggable memory substrate every operator executes against.
//!
//! The engine's operators are generic over a [`MemoryBackend`]: the same
//! algorithm code runs either on the **simulated** hierarchy
//! ([`SimBackend`], i.e. [`gcm_sim::MemorySystem`] — deterministic
//! per-level miss counters and a charged-latency clock) or on the
//! **native** memory of the host machine
//! ([`NativeBackend`](crate::native::NativeBackend) — real buffers, real
//! loads and stores, wall-clock time). Results are bit-identical across
//! backends because only the substrate differs, never the algorithm;
//! what differs is *what can be measured*:
//!
//! | capability                | sim                  | native            |
//! |---------------------------|----------------------|-------------------|
//! | per-level miss counters   | exact                | not observable    |
//! | elapsed time              | charged (Eq 3.1)     | wall clock        |
//! | `host_*` accesses         | free (uncounted)     | real, timed       |
//! | output cardinality        | charged pass's count | same              |
//! | cold caches               | exact flush          | eviction sweep    |
//!
//! Inside a measured operator the `host_*` accesses are the key reads
//! that ride along with a charged [`touch`](MemoryBackend::touch) of the
//! same tuple, the `EMPTY` fill of a fresh hash table, plus the one
//! sizing sweep group-count needs for its table (a distinct count over
//! one borrowed view of its input, [`MemoryBackend::host_bytes`]). No
//! operator runs a separate counting pass to size an output it writes
//! densely: it allocates at an upper bound and seals to what the
//! charged pass wrote ([`MemoryBackend::set_high_water`]).
//!
//! The operators' hot loops enter the backend through six bulk entry
//! points (scan, select, partition scatter, hash build, hash probe,
//! group-count). Each default is the scalar per-tuple loop over the
//! charged interface, so the simulator counts exactly what it always
//! did; the native backend overrides them with kernels that charge the
//! same totals.
//!
//! This closes the paper's loop: the cost model is calibrated on and
//! validated against the *actual* machine (§6), not only the simulator.

use crate::relation::{Relation, Segment};
use gcm_core::CpuCost;
use gcm_sim::{Addr, MemorySystem};

/// The simulated backend: the deterministic measurement substrate the
/// validation experiments use (bit-for-bit the engine's historical
/// behaviour).
pub type SimBackend = MemorySystem;

/// A memory substrate operators can run on.
///
/// *Charged* accesses ([`touch`](MemoryBackend::touch),
/// [`read_u64`](MemoryBackend::read_u64), …) are part of the algorithm
/// and must be accounted (simulated or actually performed); `host_*`
/// accesses are setup bookkeeping, or the value half of an access whose
/// charge is a separate `touch`, and the simulator leaves them uncounted
/// (on native memory they are real accesses like any other — wall clock
/// cannot be told to ignore them).
pub trait MemoryBackend {
    /// Interval counters of one run: per-level [`gcm_sim::Snapshot`] for
    /// the simulator, elapsed wall time for native memory.
    type Counters: Clone + std::fmt::Debug + Send;

    /// Allocate `bytes` zeroed bytes aligned to `align` (a power of two).
    fn alloc(&mut self, bytes: u64, align: u64) -> Addr;

    /// Move the bump pointer to `end`, growing or shrinking the last
    /// allocation in place, and return the previous end. Both arenas
    /// never write past the pointer, so the bytes a shrink hands back are
    /// zero for whichever allocation reuses them. This is how an output
    /// allocated at an upper bound is sealed to its real size (the
    /// engine's `ExecContext::tail_output`).
    fn set_high_water(&mut self, end: Addr) -> Addr;

    /// Address `seg` read-only where it is and return its base, or
    /// `None` when this backend cannot address memory it does not own;
    /// the caller then copies the image in host-side
    /// ([`ExecContext::bind`](crate::ExecContext::bind)). A mapped
    /// segment is never written and takes no room in the arena. The
    /// simulator keeps the default: its arena is the address space it
    /// simulates, so every byte it charges must live there.
    fn map_segment(&mut self, seg: &Segment) -> Option<Addr> {
        let _ = seg;
        None
    }

    /// Preferred relation alignment (the largest cache line the backend
    /// knows about).
    fn line_align(&self) -> u64;

    /// Charged access touching `[addr, addr+len)` (read/write symmetric,
    /// paper §2.2).
    fn touch(&mut self, addr: Addr, len: u64);

    /// Charged read of a little-endian `u64`.
    fn read_u64(&mut self, addr: Addr) -> u64;

    /// Charged write of a little-endian `u64`.
    fn write_u64(&mut self, addr: Addr, v: u64);

    /// Charged copy of `len` bytes (reads source, writes destination).
    fn copy(&mut self, src: Addr, dst: Addr, len: u64);

    /// Charged swap of two `w`-byte tuples.
    fn swap(&mut self, a: Addr, b: Addr, w: u64) {
        self.touch(a, w);
        self.touch(b, w);
        let mut ta = vec![0u8; w as usize];
        let mut tb = vec![0u8; w as usize];
        self.host_read_bytes(a, &mut ta);
        self.host_read_bytes(b, &mut tb);
        self.host_write_bytes(a, &tb);
        self.host_write_bytes(b, &ta);
    }

    /// Hint that the line holding `addr` will soon be **read**. Never
    /// charged, never required for correctness: the simulator's charged
    /// clock already prices every future access, so its hint is a no-op;
    /// the native backend forwards it to the hardware prefetcher.
    fn prefetch_read(&mut self, _addr: Addr) {}

    /// Hint that the line holding `addr` will soon be **written**.
    /// Uncharged no-op by default, like
    /// [`prefetch_read`](MemoryBackend::prefetch_read).
    fn prefetch_write(&mut self, _addr: Addr) {}

    /// How many items ahead operators should issue software prefetches
    /// on this backend. `0` disables prefetching entirely (the
    /// simulator's default — hints would neither help nor be priced).
    /// The native backend advertises the constant
    /// [`PREFETCH_DISTANCE`](crate::kernels::PREFETCH_DISTANCE) of 8 on
    /// its kernel path and 0 on its scalar reference.
    fn prefetch_distance(&self) -> u64 {
        0
    }

    /// Charged bulk scan: touch `u` bytes of each of `n` `w`-byte tuples
    /// starting at `base` and return the wrapping sum of their 8-byte
    /// keys. The default performs exactly the per-tuple charged loop the
    /// scalar scan operator historically ran (one
    /// [`touch`](MemoryBackend::touch) plus one uncharged key read per
    /// tuple), so simulated counters are bit-identical whether or not an
    /// operator routes through this entry point; vectorizing backends
    /// override it with real SIMD sweeps that preserve the same
    /// access/line accounting.
    fn scan_sum_bulk(&mut self, base: Addr, n: u64, w: u64, u: u64) -> u64 {
        let mut sum = 0u64;
        for i in 0..n {
            let addr = base + i * w;
            self.touch(addr, u);
            sum = sum.wrapping_add(self.host_read_u64(addr));
        }
        sum
    }

    /// Charged bulk filter: read each of `n` `w`-byte tuples at `src`
    /// and copy those with key `< threshold` densely into `dst`
    /// (`dst_w`-byte slots); returns the number of hits. The default is
    /// exactly the scalar selection loop (per-tuple full-width
    /// [`touch`](MemoryBackend::touch), then a charged
    /// [`copy`](MemoryBackend::copy) of `min(w, dst_w)` bytes per hit);
    /// overrides must preserve that accounting.
    fn select_lt_bulk(
        &mut self,
        src: Addr,
        n: u64,
        w: u64,
        threshold: u64,
        dst: Addr,
        dst_w: u64,
    ) -> u64 {
        let cw = w.min(dst_w);
        let mut hits = 0u64;
        for i in 0..n {
            let addr = src + i * w;
            self.touch(addr, w);
            let key = self.host_read_u64(addr);
            if key < threshold {
                self.copy(addr, dst + hits * dst_w, cw);
                hits += 1;
            }
        }
        hits
    }

    /// Charged bulk hash-scatter: append each of `n` `w`-byte tuples at
    /// `src` to its output buffer in `dst`, where `buckets[i]` names
    /// tuple `i`'s buffer and `cursors[b]` is buffer `b`'s running write
    /// position (a tuple index into `dst`, advanced by the call). The
    /// default is exactly the scalar partition scatter (per-tuple
    /// full-width [`touch`](MemoryBackend::touch) of the input, then a
    /// charged [`copy`](MemoryBackend::copy) to the destination);
    /// overrides must preserve that accounting.
    fn partition_scatter_bulk(
        &mut self,
        src: Addr,
        n: u64,
        w: u64,
        dst: Addr,
        buckets: &[u32],
        cursors: &mut [u64],
    ) {
        debug_assert_eq!(buckets.len() as u64, n);
        for i in 0..n {
            let from = src + i * w;
            self.touch(from, w);
            let b = buckets[i as usize] as usize;
            self.copy(from, dst + cursors[b] * w, w);
            cursors[b] += 1;
        }
    }

    /// Charged bulk hash build: insert every tuple `i` of `input` as
    /// `key → i` into the open-addressing table whose `[key, value]`
    /// slots are `table` (a power-of-two count of
    /// [`ENTRY_BYTES`](crate::ops::hash::ENTRY_BYTES)-wide tuples), and
    /// return the logical ops counted (one per slot probed). The default
    /// is the scalar build loop `ops::hash::build_scalar`
    /// (per-tuple full-width [`touch`](MemoryBackend::touch), one charged
    /// [`read_u64`](MemoryBackend::read_u64) per slot probed, a charged
    /// touch of the slot filled); overrides must preserve that
    /// accounting.
    fn hash_build_bulk(&mut self, input: &Relation, table: &Relation) -> u64 {
        crate::ops::hash::build_scalar(self, input, table)
    }

    /// Charged bulk hash probe: look up every tuple of `input` in the
    /// table whose slots are `table`, writing one `out_w`-byte tuple
    /// (the key, zero payload) per match into the open tail output at
    /// `out` that has room for `cap` tuples. Returns
    /// `(matches, capacity, ops)`: when the matches overrun `cap` the
    /// output grows in place by doubling
    /// ([`set_high_water`](MemoryBackend::set_high_water)) and must stay
    /// the arena's last allocation. The default is the scalar probe loop
    /// `ops::hash::probe_scalar` (per-tuple full-width touch,
    /// one charged read per slot visited, per match a charged read of
    /// the value word and a full-width touch of the output tuple);
    /// overrides must preserve that accounting.
    fn hash_probe_bulk(
        &mut self,
        input: &Relation,
        table: &Relation,
        out: Addr,
        out_w: u64,
        cap: u64,
    ) -> (u64, u64, u64) {
        crate::ops::hash::probe_scalar(self, input, table, out, out_w, cap)
    }

    /// Charged bulk group-count: add one to the count of each tuple's
    /// key in the empty counting table whose slots are `table`,
    /// inserting absent keys with count 1, then sweep the table and
    /// write each occupied slot's `(key, count)` densely into `out` (one
    /// 16-byte tuple per group, `out.n()` of them). Returns the logical
    /// ops counted: one per tuple, one per slot probed and one per group
    /// emitted. The default is the scalar loop
    /// `ops::aggregate::group_count_scalar` (upsert: per-tuple
    /// full-width touch, one charged read per slot probed, then a
    /// charged read and write of the count on a hit or a charged touch
    /// of the slot filled; emit: one charged read per slot, and per group
    /// a charged read of the count and a touch of the output tuple);
    /// overrides must preserve that accounting.
    fn group_count_bulk(&mut self, input: &Relation, table: &Relation, out: &Relation) -> u64 {
        crate::ops::aggregate::group_count_scalar(self, input, table, out)
    }

    /// Uncharged (setup/oracle) view of the `len` bytes at `addr`,
    /// borrowed where they lie: the arena, or a mapped segment. Host-side
    /// passes that read a whole range (a sizing sweep, a result hash)
    /// take one view instead of a call per word.
    fn host_bytes(&self, addr: Addr, len: u64) -> &[u8];

    /// Uncharged writable view of the `len` bytes at `addr`. Only arena
    /// memory is writable: a mapped segment has no such view.
    fn host_bytes_mut(&mut self, addr: Addr, len: u64) -> &mut [u8];

    /// Uncharged (setup/oracle) read of a little-endian `u64`.
    #[inline]
    fn host_read_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.host_bytes(addr, 8).try_into().expect("8 bytes"))
    }

    /// Uncharged (setup/oracle) write of a little-endian `u64`.
    #[inline]
    fn host_write_u64(&mut self, addr: Addr, v: u64) {
        self.host_bytes_mut(addr, 8)
            .copy_from_slice(&v.to_le_bytes());
    }

    /// Uncharged read into `buf`.
    fn host_read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        buf.copy_from_slice(self.host_bytes(addr, buf.len() as u64));
    }

    /// Uncharged write of `buf`.
    fn host_write_bytes(&mut self, addr: Addr, buf: &[u8]) {
        self.host_bytes_mut(addr, buf.len() as u64)
            .copy_from_slice(buf);
    }

    /// Current cumulative counters (monotone; diff two with
    /// [`counters_since`](MemoryBackend::counters_since) for an interval).
    fn counters(&self) -> Self::Counters;

    /// Counters accumulated since `earlier`.
    fn counters_since(&self, earlier: &Self::Counters) -> Self::Counters;

    /// Elapsed (charged or wall-clock) nanoseconds of an interval.
    fn elapsed_ns(c: &Self::Counters) -> f64;

    /// Charged accesses of an interval, when the backend counts them
    /// (the simulator's first-level probe count; `None` on backends
    /// without access counters).
    fn counter_accesses(c: &Self::Counters) -> Option<u64> {
        let _ = c;
        None
    }

    /// Per-cache-level `(name, misses)` of an interval. Empty on
    /// backends without per-level counters (native memory): callers
    /// treat "no rows" as "not observable", never as "zero misses".
    fn counter_level_misses(&self, c: &Self::Counters) -> Vec<(String, u64)> {
        let _ = c;
        Vec::new()
    }

    /// Measured total time of an interval under a per-op CPU calibration
    /// — the engine-side Eq 6.1 (`T = T_mem + T_cpu`), routed through
    /// [`CpuCost::eq61_ns`]. Backends whose elapsed time already
    /// *includes* CPU work (wall clocks) override this to return the
    /// elapsed time alone.
    fn total_ns(c: &Self::Counters, ops: u64, per_op_ns: f64) -> f64 {
        CpuCost::per_op(per_op_ns).eq61_ns(Self::elapsed_ns(c), ops)
    }

    /// Restore the paper's §4.5 initial condition ("initially empty
    /// caches") as well as the backend can: the simulator flushes
    /// exactly, native memory runs an eviction sweep.
    fn cold_caches(&mut self);
}

impl MemoryBackend for MemorySystem {
    type Counters = gcm_sim::Snapshot;

    fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        MemorySystem::alloc(self, bytes, align)
    }

    fn set_high_water(&mut self, end: Addr) -> Addr {
        self.host_mut().set_high_water(end)
    }

    fn line_align(&self) -> u64 {
        self.spec()
            .data_caches()
            .map(|l| l.line)
            .max()
            .unwrap_or(64)
    }

    fn touch(&mut self, addr: Addr, len: u64) {
        MemorySystem::touch(self, addr, len);
    }

    fn read_u64(&mut self, addr: Addr) -> u64 {
        MemorySystem::read_u64(self, addr)
    }

    fn write_u64(&mut self, addr: Addr, v: u64) {
        MemorySystem::write_u64(self, addr, v);
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        MemorySystem::copy(self, src, dst, len);
    }

    fn host_bytes(&self, addr: Addr, len: u64) -> &[u8] {
        self.host().bytes(addr, len)
    }

    fn host_bytes_mut(&mut self, addr: Addr, len: u64) -> &mut [u8] {
        self.host_mut().bytes_mut(addr, len)
    }

    fn counters(&self) -> gcm_sim::Snapshot {
        self.snapshot()
    }

    fn counters_since(&self, earlier: &gcm_sim::Snapshot) -> gcm_sim::Snapshot {
        self.delta_since(earlier)
    }

    fn elapsed_ns(c: &gcm_sim::Snapshot) -> f64 {
        c.clock_ns
    }

    fn counter_accesses(c: &gcm_sim::Snapshot) -> Option<u64> {
        // Every charged access probes the first level exactly once.
        c.levels.first().map(|l| l.accesses)
    }

    fn counter_level_misses(&self, c: &gcm_sim::Snapshot) -> Vec<(String, u64)> {
        self.spec()
            .levels()
            .iter()
            .zip(&c.levels)
            .map(|(level, stats)| (level.name.clone(), stats.misses()))
            .collect()
    }

    fn cold_caches(&mut self) {
        self.flush_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    /// Drive a backend through the trait only (the way generic operators
    /// see it) and check the sim impl forwards faithfully.
    fn roundtrip<B: MemoryBackend>(mem: &mut B) {
        let a = mem.alloc(64, 8);
        let b = mem.alloc(64, 8);
        mem.write_u64(a, 7);
        assert_eq!(mem.read_u64(a), 7);
        mem.host_write_u64(b, 9);
        assert_eq!(mem.host_read_u64(b), 9);
        mem.copy(a, b, 16);
        assert_eq!(mem.host_read_u64(b), 7);
        mem.host_write_u64(a + 8, 1);
        mem.host_write_u64(b + 8, 2);
        mem.swap(a, b, 16);
        assert_eq!(mem.host_read_u64(a + 8), 2);
        assert_eq!(mem.host_read_u64(b + 8), 1);
    }

    #[test]
    fn sim_backend_roundtrips_through_the_trait() {
        let mut mem = MemorySystem::new(presets::tiny());
        roundtrip(&mut mem);
        // Charged accesses moved the charged clock; interval diffs work.
        let before = MemoryBackend::counters(&mem);
        assert!(MemorySystem::clock_ns(&mem) > 0.0);
        MemoryBackend::read_u64(&mut mem, 4096);
        let d = mem.counters_since(&before);
        assert!(<MemorySystem as MemoryBackend>::elapsed_ns(&d) >= 0.0);
    }

    #[test]
    fn sim_line_align_is_the_largest_data_line() {
        let mem = MemorySystem::new(presets::tiny()); // L1 32 B, L2 64 B
        assert_eq!(mem.line_align(), 64);
    }

    #[test]
    fn default_total_ns_is_eq61() {
        let mem = MemorySystem::new(presets::tiny());
        let c = gcm_sim::Snapshot {
            levels: mem.snapshot().levels,
            clock_ns: 100.0,
        };
        let t = <MemorySystem as MemoryBackend>::total_ns(&c, 50, 2.0);
        assert!((t - 200.0).abs() < 1e-12);
    }
}
