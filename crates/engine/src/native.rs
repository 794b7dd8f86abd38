//! The native backend: operators on the **real** memory of the host.
//!
//! [`NativeBackend`] allocates real buffers, performs real loads and
//! stores, and reports elapsed wall-clock time via [`std::time::Instant`]
//! — the measured side of the paper's §6 validation on an actual machine
//! instead of the simulator. Addressing mirrors the simulator's arena
//! exactly (bump allocation from the same base, same alignment rules), so
//! a physical plan executed on both backends performs the identical
//! sequence of logical accesses and produces byte-identical results; only
//! the substrate underneath — and therefore the *measurement* — differs.
//!
//! What native can and cannot count (see the table in
//! [`crate::backend`]): it measures wall time plus logical access/line
//! totals. Wall time includes CPU work and allocation (first-touch
//! zeroing of fresh pages, including an output's upper-bound tail),
//! but no separate counting pass: operators size their outputs from
//! the charged pass itself. Comparisons against the model therefore
//! use generous documented bounds, while *result* comparisons against
//! the sim backend are exact. Per-level misses are not observable:
//! [`MemoryBackend::counter_level_misses`] keeps its empty default,
//! which consumers read as "not observable", never "zero misses".
//!
//! Dense bulk operations run kernels instead of the per-access
//! interface: the SIMD scan and filter of [`crate::kernels`], a
//! prefetched scatter, the hash build and probe loops, and group-count's
//! upsert loop and emit sweep in one kernel. They index the slab and the
//! mapped segments directly and add the accesses, lines and logical ops
//! they charge once per call. Each override charges exactly what the
//! trait's scalar default charges; [`NativeBackend::scalar_reference`]
//! runs those defaults. Uncharged host-side passes (group-count's
//! distinct count, a hash table's `EMPTY` fill, result reads and hashes)
//! borrow the bytes where they lie ([`MemoryBackend::host_bytes`]).
//!
//! The arena is meant to live as long as its worker. [`NativeBackend::reset`]
//! starts the next job by moving the bump pointer back: the slab is
//! never freed or faulted again, and the bytes an earlier job dirtied
//! are zeroed only where a later allocation hands them out, so
//! [`MemoryBackend::alloc`] still returns zeroed bytes. Immutable
//! [`Segment`]s — published base tables and shared hash builds — are
//! mapped read-only above the arena ([`MemoryBackend::map_segment`]) and
//! read in place: the kernels resolve each read-only operand once per
//! call, to a mapped segment or to the arena.
//!
//! Charged accesses go through [`std::hint::black_box`] so the optimizer
//! cannot elide the loads the access-pattern language describes;
//! [`NativeBackend::cold_caches`] approximates the paper's "initially
//! empty caches" (§4.5) by sweeping an eviction buffer larger than any
//! LLC we expect to meet.

use crate::backend::MemoryBackend;
use crate::ctx::{grow_tail, ExecContext};
use crate::kernels;
use crate::ops::hash::{EMPTY, ENTRY_BYTES};
use crate::ops::{aggregate, hash, mix, put_word, word};
use crate::relation::{Relation, Segment};
use gcm_hardware::stride;
use gcm_sim::Addr;
use std::hint::black_box;
use std::time::Instant;

/// Base of the native address space — identical to the simulator's
/// [`gcm_sim::arena::ARENA_BASE`] so allocation sequences produce the
/// same addresses on both backends.
const NATIVE_BASE: Addr = 4096;

/// Line granularity of charged accesses (one real load per line), the
/// ubiquitous 64-byte cache line of current hardware.
const NATIVE_LINE: u64 = 64;

/// Where mapped segments start: far above any arena address, so one
/// comparison tells a mapped address from an arena one.
const MAPPED_BASE: Addr = 1 << 46;

/// Mapped segment `k` starts at `MAPPED_BASE + (k << MAPPED_SLOT_BITS)`,
/// so an address names its segment with a shift (a segment is smaller
/// than a slot).
const MAPPED_SLOT_BITS: u32 = 40;

/// The least the slab's reservation grows by. Capacity nobody touched
/// costs address space only, and a reservation this large is mapped by
/// the allocator on its own and grown in place, so an arena that lives
/// as long as its worker leaves no freed copy of itself resident.
const SLAB_STEP: usize = 64 << 20;

/// Default eviction-sweep size: comfortably past typical LLCs.
const DEFAULT_WIPE_BYTES: usize = 32 << 20;

/// Interval counters of a native run.
///
/// Counts elapsed wall time plus the logical access/line totals the
/// operators drove through the charged interface (useful to confirm
/// two backends performed the same logical work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeCounters {
    /// Elapsed wall-clock nanoseconds.
    pub elapsed_ns: f64,
    /// Charged accesses performed.
    pub accesses: u64,
    /// Cache lines touched by charged accesses (with re-touches; this is
    /// traffic, not a miss count).
    pub lines: u64,
}

/// The bump-allocated slab: addresses `[NATIVE_BASE, next)` are live.
#[derive(Debug)]
struct Arena {
    data: Vec<u8>,
    next: Addr,
    /// The highest bump pointer of the current job. Every byte in
    /// `[next, job_hi)` is zero: the engine never writes past the
    /// pointer it seals an output at.
    job_hi: Addr,
    /// Bytes in `[job_hi, dirty)` may still hold what an earlier job
    /// wrote; an allocation reaching into them zeroes them first.
    dirty: Addr,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            data: Vec::new(),
            next: NATIVE_BASE,
            job_hi: NATIVE_BASE,
            dirty: NATIVE_BASE,
        }
    }

    /// [`MemoryBackend::set_high_water`] over the slab.
    fn set_high_water(&mut self, end: Addr) -> Addr {
        assert!(
            end >= NATIVE_BASE,
            "high-water mark {end} below native base"
        );
        // Pad past the last line so per-line 8-byte reads stay in bounds.
        let needed = (end - NATIVE_BASE) as usize + NATIVE_LINE as usize;
        if self.data.len() < needed {
            if needed > self.data.capacity() {
                let grow = (needed - self.data.len()).max(SLAB_STEP);
                self.data.reserve_exact(grow);
            }
            self.data.resize(needed, 0);
        }
        if end > self.next {
            let lo = self.next.max(self.job_hi);
            let hi = end.min(self.dirty);
            if lo < hi {
                self.data[(lo - NATIVE_BASE) as usize..(hi - NATIVE_BASE) as usize].fill(0);
            }
            self.job_hi = self.job_hi.max(end);
        }
        std::mem::replace(&mut self.next, end)
    }

    /// Move the bump pointer back to the base. What the finished job
    /// wrote lies below its final pointer; if it allocated past every
    /// byte an earlier job left dirty, that pointer is the new dirty
    /// bound, else the old bound stands.
    fn reset(&mut self) {
        if self.job_hi >= self.dirty {
            self.dirty = self.next;
        }
        self.next = NATIVE_BASE;
        self.job_hi = NATIVE_BASE;
    }
}

/// Real host memory behind the engine's backend interface.
#[derive(Debug)]
pub struct NativeBackend {
    arena: Arena,
    /// Segments mapped read-only, one slot each above [`MAPPED_BASE`],
    /// in mapping order.
    mapped: Vec<Segment>,
    t0: Instant,
    accesses: u64,
    lines: u64,
    wipe: Vec<u8>,
    /// Route bulk operations through the kernels — the SIMD ones of
    /// [`crate::kernels`] and the hash loops below. Off only in
    /// [`NativeBackend::scalar_reference`]: the per-tuple reference path,
    /// byte-identical in results and counters.
    use_kernels: bool,
}

impl Default for NativeBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeBackend {
    /// A fresh native address space (grows on demand) on the kernel
    /// path, advertising the prefetch distance
    /// [`kernels::PREFETCH_DISTANCE`].
    pub fn new() -> NativeBackend {
        NativeBackend {
            arena: Arena::new(),
            mapped: Vec::new(),
            t0: Instant::now(),
            accesses: 0,
            lines: 0,
            wipe: Vec::new(),
            use_kernels: true,
        }
    }

    /// Pre-reserve `bytes` of backing store so mid-measurement
    /// allocations do not pay a reallocation (they still pay the zeroing
    /// of their own pages — as any real allocator would).
    pub fn with_capacity(bytes: usize) -> NativeBackend {
        let mut b = NativeBackend::new();
        b.arena.data.reserve(bytes);
        b
    }

    /// A backend pinned to the scalar reference path: bulk operations
    /// run the per-tuple trait defaults and the advertised prefetch
    /// distance is 0. This is the baseline of the `kernel_throughput`
    /// bench and of the kernel-identity tests — it executes exactly the
    /// loops the paper's Eq 6.1 assumes.
    pub fn scalar_reference() -> NativeBackend {
        NativeBackend {
            use_kernels: false,
            ..NativeBackend::new()
        }
    }

    /// Start the next job on this address space: unmap every segment and
    /// move the bump pointer back to the base, so allocation addresses
    /// repeat from the start. The slab keeps its pages; the bytes the
    /// finished job wrote are zeroed when an allocation hands them out
    /// again, and only those.
    pub fn reset(&mut self) {
        self.arena.reset();
        self.mapped.clear();
    }

    /// Slab index of the arena address `addr` (mapped segments are
    /// read-only and have none).
    #[inline]
    fn idx(&self, addr: Addr) -> usize {
        debug_assert!(
            (NATIVE_BASE..MAPPED_BASE).contains(&addr),
            "address {addr} is not in the arena"
        );
        (addr - NATIVE_BASE) as usize
    }

    /// The bytes holding `addr` and its index in them: a mapped segment
    /// (with its pad) or the arena.
    #[inline]
    fn view(&self, addr: Addr) -> (&[u8], usize) {
        let (seg, i) = operand(&self.mapped, addr);
        (seg.unwrap_or(&self.arena.data), i)
    }

    /// Where a prefetch hint for `addr` points, if any memory holds it
    /// (hints may name any address and must stay harmless).
    fn hint_target(&self, addr: Addr) -> Option<*const u8> {
        let (bytes, i) = if addr >= MAPPED_BASE {
            let (k, i) = slot(addr);
            (self.mapped.get(k)?.padded(), i)
        } else {
            (
                &self.arena.data[..],
                addr.checked_sub(NATIVE_BASE)? as usize,
            )
        };
        (i < bytes.len()).then(|| bytes.as_ptr().wrapping_add(i))
    }

    /// A charged touch: [`load_lines`] wherever `addr` lies, counted.
    #[inline]
    fn touch_lines(&mut self, addr: Addr, len: u64) {
        let (bytes, i) = self.view(addr);
        let lines = load_lines(bytes, i, addr, len);
        self.lines += lines;
        self.accesses += 1;
    }
}

/// One real 8-byte load per line of `[addr, addr+len)`, which starts at
/// index `i` of `bytes` (a mapped segment with its pad, or the slab),
/// via the shared [`stride::sweep_fold`] walk (the very loop the
/// calibrator times), black-boxed so the loads cannot be elided. Returns
/// the lines loaded.
#[inline]
fn load_lines(bytes: &[u8], i: usize, addr: Addr, len: u64) -> u64 {
    // Arena and segments both start line-aligned, so line boundaries
    // are the same measured from either.
    let first = addr & !(NATIVE_LINE - 1);
    let last = (addr + len - 1) & !(NATIVE_LINE - 1);
    let lo = i - (addr - first) as usize;
    let hi = lo + (last - first) as usize + 8;
    let (acc, steps) = stride::sweep_fold(&bytes[lo..hi], NATIVE_LINE as usize);
    black_box(acc);
    steps
}

/// The lines a charged touch of the `w`-byte tuple at `addr` (index `i`
/// of `bytes`) counts. A tuple inside one line is loaded by the caller's
/// own access to its key word; a wider one is loaded line by line here,
/// as [`touch`](MemoryBackend::touch) would.
#[inline]
fn tuple_lines(bytes: &[u8], i: usize, addr: Addr, w: u64) -> u64 {
    if (addr ^ (addr + w - 1)) < NATIVE_LINE {
        1
    } else {
        load_lines(bytes, i, addr, w)
    }
}

/// The mapped slot `addr` lies in and its offset there.
#[inline]
fn slot(addr: Addr) -> (usize, usize) {
    let k = (addr - MAPPED_BASE) >> MAPPED_SLOT_BITS;
    (k as usize, (addr & ((1 << MAPPED_SLOT_BITS) - 1)) as usize)
}

/// A read-only operand of a kernel: the mapped segment (with its pad)
/// holding `addr`, or `None` for the arena, and the index of `addr` in
/// it. Borrowing only the mapping table lets a kernel hold its inputs
/// while it writes the arena.
#[inline]
fn operand(mapped: &[Segment], addr: Addr) -> (Option<&[u8]>, usize) {
    if addr < MAPPED_BASE {
        return (None, (addr - NATIVE_BASE) as usize);
    }
    let (k, i) = slot(addr);
    (Some(mapped[k].padded()), i)
}

/// Software-prefetch the home slot of `key` in the hash table whose
/// first slot is at `slots`: its line and the line of the fourth slot of
/// its run, which is the same line when the home slot opens one (a
/// linear-probing run at load factor ½ is short, but often crosses into
/// the next line).
#[inline]
fn prefetch_home_slot(slots: *const u8, mask: u64, key: u64) {
    let at = ((mix(key) & mask) * ENTRY_BYTES) as usize;
    stride::prefetch_read(slots.wrapping_add(at));
    stride::prefetch_read(slots.wrapping_add(at + 3 * ENTRY_BYTES as usize));
}

impl MemoryBackend for NativeBackend {
    type Counters = NativeCounters;

    fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.arena.next + align - 1) & !(align - 1);
        self.set_high_water(addr + bytes);
        addr
    }

    fn set_high_water(&mut self, end: Addr) -> Addr {
        self.arena.set_high_water(end)
    }

    /// Map `seg` at the start of the next free slot. It stays mapped
    /// until [`reset`](NativeBackend::reset).
    fn map_segment(&mut self, seg: &Segment) -> Option<Addr> {
        assert!(seg.len() < 1 << MAPPED_SLOT_BITS, "segment exceeds a slot");
        let base = MAPPED_BASE + ((self.mapped.len() as u64) << MAPPED_SLOT_BITS);
        self.mapped.push(seg.clone());
        Some(base)
    }

    fn line_align(&self) -> u64 {
        NATIVE_LINE
    }

    fn touch(&mut self, addr: Addr, len: u64) {
        if len == 0 {
            return;
        }
        self.touch_lines(addr, len);
    }

    fn read_u64(&mut self, addr: Addr) -> u64 {
        self.accesses += 1;
        // An 8-byte access straddling a line boundary touches two lines.
        self.lines += stride::lines_touched(addr, 8, NATIVE_LINE);
        let (bytes, i) = self.view(addr);
        black_box(word(bytes, i))
    }

    fn write_u64(&mut self, addr: Addr, v: u64) {
        let i = self.idx(addr);
        self.accesses += 1;
        self.lines += stride::lines_touched(addr, 8, NATIVE_LINE);
        put_word(&mut self.arena.data, i, v);
    }

    fn prefetch_read(&mut self, addr: Addr) {
        if let Some(p) = self.hint_target(addr) {
            stride::prefetch_read(p);
        }
    }

    fn prefetch_write(&mut self, addr: Addr) {
        if let Some(p) = self.hint_target(addr) {
            stride::prefetch_write(p);
        }
    }

    fn prefetch_distance(&self) -> u64 {
        if self.use_kernels {
            kernels::PREFETCH_DISTANCE
        } else {
            0
        }
    }

    /// Dense scans (`w == u == 8`, word-aligned) run the SIMD sweep of
    /// [`kernels::sum_words`]; everything else runs the per-tuple
    /// reference loop with an N-ahead read prefetch. Both paths charge
    /// exactly what the trait default would: one access per tuple, and
    /// the lines each touch spans (an aligned 8-byte read never
    /// straddles, so the dense path is one line per tuple).
    fn scan_sum_bulk(&mut self, base: Addr, n: u64, w: u64, u: u64) -> u64 {
        if self.use_kernels && w == 8 && u == 8 && base.is_multiple_of(8) && n > 0 {
            let (src, lo) = self.view(base);
            let sum = kernels::sum_words(&src[lo..lo + (n * 8) as usize]);
            self.accesses += n;
            self.lines += n;
            return sum;
        }
        let dist = self.prefetch_distance();
        let mut sum = 0u64;
        for i in 0..n {
            if dist > 0 && i + dist < n {
                self.prefetch_read(base + (i + dist) * w);
            }
            let addr = base + i * w;
            self.touch(addr, u);
            sum = sum.wrapping_add(self.host_read_u64(addr));
        }
        sum
    }

    /// Dense selections (`w == dst_w == 8`, word-aligned) evaluate the
    /// predicate with the SIMD comparator [`kernels::lt_mask`] over
    /// 64-key blocks and copy qualifying keys from the mask bits; other
    /// shapes run the reference loop with read prefetch. Accounting
    /// matches the trait default: one access/line per tuple touched,
    /// two accesses/lines per hit copied (aligned 8-byte transfers).
    fn select_lt_bulk(
        &mut self,
        src: Addr,
        n: u64,
        w: u64,
        threshold: u64,
        dst: Addr,
        dst_w: u64,
    ) -> u64 {
        if self.use_kernels
            && w == 8
            && dst_w == 8
            && src.is_multiple_of(8)
            && dst.is_multiple_of(8)
        {
            let (input, s0) = operand(&self.mapped, src);
            let d0 = self.idx(dst);
            let mut hits = 0u64;
            let mut i = 0u64;
            while i < n {
                let chunk = (n - i).min(64);
                let s = s0 + (i * 8) as usize;
                let keys = &input.unwrap_or(&self.arena.data)[s..s + (chunk * 8) as usize];
                let mut m = kernels::lt_mask(keys, threshold);
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    let key = word(input.unwrap_or(&self.arena.data), s + j * 8);
                    put_word(&mut self.arena.data, d0 + (hits * 8) as usize, key);
                    hits += 1;
                    m &= m - 1;
                }
                i += chunk;
            }
            self.accesses += n + 2 * hits;
            self.lines += n + 2 * hits;
            return hits;
        }
        let dist = self.prefetch_distance();
        let cw = w.min(dst_w);
        let mut hits = 0u64;
        for i in 0..n {
            if dist > 0 && i + dist < n {
                self.prefetch_read(src + (i + dist) * w);
            }
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

    /// Dense scatters (`w == 8`, word-aligned) run a raw copy loop with
    /// an N-ahead write prefetch of the destination cursor of the tuple
    /// `dist` ahead — the open-buffer stores are the partition pattern's
    /// random component, so hiding their miss is the whole game; other
    /// shapes run the reference loop. Accounting matches the trait
    /// default: one access/line touching each input tuple, two
    /// accesses/lines per charged copy (aligned 8-byte transfers).
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
        if self.use_kernels && w == 8 && src.is_multiple_of(8) && dst.is_multiple_of(8) {
            let dist = kernels::PREFETCH_DISTANCE as usize;
            let (input, s0) = operand(&self.mapped, src);
            let d0 = self.idx(dst);
            for i in 0..n as usize {
                if i + dist < n as usize {
                    let ba = buckets[i + dist] as usize;
                    let di = d0 + cursors[ba] as usize * 8;
                    if di < self.arena.data.len() {
                        stride::prefetch_write(self.arena.data.as_ptr().wrapping_add(di));
                    }
                }
                let b = buckets[i] as usize;
                let key = word(input.unwrap_or(&self.arena.data), s0 + i * 8);
                put_word(&mut self.arena.data, d0 + cursors[b] as usize * 8, key);
                cursors[b] += 1;
            }
            self.accesses += 3 * n;
            self.lines += 3 * n;
            return;
        }
        for i in 0..n {
            let from = src + i * w;
            self.touch(from, w);
            let b = buckets[i as usize] as usize;
            self.copy(from, dst + cursors[b] * w, w);
            cursors[b] += 1;
        }
    }

    /// The build loop of `ops::hash::build_scalar` over the slab, with
    /// the home slot of the key `dist` tuples ahead prefetched; counters
    /// kept in locals and added once. It charges what the scalar loop
    /// charges: per tuple one access of the lines it spans and one
    /// access/line for the slot it fills, plus one access/line (and one
    /// op) per slot probed (slots are 16-byte aligned, so a slot never
    /// straddles a line).
    fn hash_build_bulk(&mut self, input: &Relation, table: &Relation) -> u64 {
        if !self.use_kernels || !table.base().is_multiple_of(ENTRY_BYTES) {
            return hash::build_scalar(self, input, table);
        }
        let (n, w, mask) = (input.n(), input.w(), table.n() - 1);
        let (keys, k0) = operand(&self.mapped, input.base());
        let key_at = |data: &[u8], i: u64| word(keys.unwrap_or(data), k0 + (i * w) as usize);
        let t0 = self.idx(table.base());
        let dist = kernels::PREFETCH_DISTANCE;
        let (mut probes, mut lines) = (0u64, 0u64);
        for i in 0..n {
            if i + dist < n {
                let ahead = key_at(&self.arena.data, i + dist);
                prefetch_home_slot(self.arena.data.as_ptr().wrapping_add(t0), mask, ahead);
            }
            let key = key_at(&self.arena.data, i);
            let at_key = k0 + (i * w) as usize;
            lines += tuple_lines(keys.unwrap_or(&self.arena.data), at_key, input.tuple(i), w);
            let mut slot = mix(key) & mask;
            loop {
                let at = t0 + (slot * ENTRY_BYTES) as usize;
                probes += 1;
                if word(&self.arena.data, at) == EMPTY {
                    put_word(&mut self.arena.data, at, key);
                    put_word(&mut self.arena.data, at + 8, i);
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        self.accesses += 2 * n + probes;
        self.lines += lines + n + probes;
        probes
    }

    /// The probe loop of `ops::hash::probe_scalar` over the slab, with
    /// the home slot of the key `dist` tuples ahead prefetched; counters
    /// kept in locals and added once. Per tuple it charges one access of
    /// the lines the tuple spans, per slot visited one access/line and
    /// one op, and per match a read of the value word (one access/line;
    /// the values are folded into one black-boxed word), one access of
    /// the lines the output tuple spans and one op. The output grows
    /// exactly as the scalar loop grows it. The table may be a mapped
    /// shared build: it is only read.
    ///
    /// When no output tuple straddles a line, a match takes no branch:
    /// every visit stores the key at the output cursor and the cursor
    /// advances on a match, so the one data-dependent branch left is the
    /// end of the walk. Only the tuple at the final cursor can keep such
    /// a store, and it is cleared at the end.
    fn hash_probe_bulk(
        &mut self,
        input: &Relation,
        table: &Relation,
        out: Addr,
        out_w: u64,
        mut cap: u64,
    ) -> (u64, u64, u64) {
        if !self.use_kernels || !table.base().is_multiple_of(ENTRY_BYTES) {
            return hash::probe_scalar(self, input, table, out, out_w, cap);
        }
        let (n, w, mask) = (input.n(), input.w(), table.n() - 1);
        let (keys, k0) = operand(&self.mapped, input.base());
        let key_at = |data: &[u8], i: u64| word(keys.unwrap_or(data), k0 + (i * w) as usize);
        let (slots, t0) = operand(&self.mapped, table.base());
        let o0 = self.idx(out);
        let dist = kernels::PREFETCH_DISTANCE;
        let flat = NATIVE_LINE.is_multiple_of(out_w) && out.is_multiple_of(out_w);
        let (mut visits, mut matches, mut lines, mut values) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..n {
            if i + dist < n {
                let ahead = key_at(&self.arena.data, i + dist);
                let slab = slots.unwrap_or(&self.arena.data);
                prefetch_home_slot(slab.as_ptr().wrapping_add(t0), mask, ahead);
            }
            let key = key_at(&self.arena.data, i);
            let at_key = k0 + (i * w) as usize;
            lines += tuple_lines(keys.unwrap_or(&self.arena.data), at_key, input.tuple(i), w);
            let mut slot = mix(key) & mask;
            loop {
                let at = t0 + (slot * ENTRY_BYTES) as usize;
                visits += 1;
                let resident = word(slots.unwrap_or(&self.arena.data), at);
                if resident == EMPTY {
                    break;
                }
                let hit = resident == key;
                if flat && matches < cap {
                    let value = word(slots.unwrap_or(&self.arena.data), at + 8);
                    values ^= value & u64::from(hit).wrapping_neg();
                    put_word(&mut self.arena.data, o0 + (matches * out_w) as usize, key);
                    matches += u64::from(hit);
                    lines += u64::from(hit);
                } else if hit {
                    values ^= word(slots.unwrap_or(&self.arena.data), at + 8);
                    cap = grow_tail(
                        |end| self.arena.set_high_water(end),
                        out,
                        out_w,
                        cap,
                        matches,
                    );
                    let to = out + matches * out_w;
                    let o = self.idx(to);
                    lines += tuple_lines(&self.arena.data, o, to, out_w);
                    put_word(&mut self.arena.data, o, key);
                    matches += 1;
                }
                slot = (slot + 1) & mask;
            }
        }
        black_box(values);
        if flat && matches < cap {
            put_word(&mut self.arena.data, o0 + (matches * out_w) as usize, 0);
        }
        self.accesses += n + visits + 2 * matches;
        self.lines += lines + visits + matches;
        (matches, cap, visits + matches)
    }

    /// `ops::aggregate::group_count_scalar` over borrowed slices: the
    /// upsert loop reads the keys and updates the slots in place, with
    /// the home slot of the key `dist` tuples ahead prefetched, and the
    /// emit sweep copies each occupied slot to the output in one pass;
    /// counters kept in locals and added once. Per tuple it charges one
    /// access of the lines the tuple spans and one op, per slot probed
    /// one access/line and one op, then either a read and a write of the
    /// count (two accesses/lines) or one access/line for the slot it
    /// fills. The sweep charges one access/line per slot and, per group,
    /// two more (the count's read and the output tuple's touch; slots
    /// and output tuples are 16-byte aligned, so none straddles a line)
    /// and one op.
    ///
    /// The slices are disjoint because of where `hash_group_count`
    /// allocates: the input below the table (or mapped), the output
    /// above it. Other layouts run the scalar loop.
    fn group_count_bulk(&mut self, input: &Relation, table: &Relation, out: &Relation) -> u64 {
        let (tb, ob) = (table.base(), out.base());
        let below = input.base() >= MAPPED_BASE || input.base() + input.bytes() <= tb;
        if !self.use_kernels
            || !tb.is_multiple_of(ENTRY_BYTES)
            || !ob.is_multiple_of(ENTRY_BYTES)
            || ob < tb + table.bytes()
            || !below
        {
            return aggregate::group_count_scalar(self, input, table, out);
        }
        let (n, w, mask) = (input.n() as usize, input.w() as usize, table.n() - 1);
        let t0 = self.idx(tb);
        let (arena, above) = self.arena.data.split_at_mut(t0);
        let (slots, rest) = above.split_at_mut((ob - tb) as usize);
        let slots = &mut slots[..table.bytes() as usize];
        let emitted = &mut rest[..out.bytes() as usize];
        let (keys, k0) = match operand(&self.mapped, input.base()) {
            (Some(seg), k0) => (seg, k0),
            (None, k0) => (&*arena, k0),
        };
        let dist = kernels::PREFETCH_DISTANCE as usize;
        // A tuple whose width divides the line, at a multiple of it,
        // never straddles one: its key read loads its only line.
        let flat = NATIVE_LINE.is_multiple_of(w as u64) && input.base().is_multiple_of(w as u64);
        let first = slots.as_ptr();
        let (entries, _) = slots.as_chunks_mut::<{ ENTRY_BYTES as usize }>();
        let (mut probes, mut hits, mut lines) = (0u64, 0u64, 0u64);
        for i in 0..n {
            if i + dist < n {
                prefetch_home_slot(first, mask, word(keys, k0 + (i + dist) * w));
            }
            let at_key = k0 + i * w;
            let key = word(keys, at_key);
            if !flat {
                lines += tuple_lines(keys, at_key, input.tuple(i as u64), w as u64);
            }
            let mut slot = mix(key) & mask;
            loop {
                let entry = &mut entries[slot as usize];
                probes += 1;
                let resident = word(entry, 0);
                if resident == key {
                    let count = word(entry, 8);
                    put_word(entry, 8, count + 1);
                    hits += 1;
                    break;
                }
                if resident == EMPTY {
                    put_word(entry, 0, key);
                    put_word(entry, 8, 1);
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        if flat {
            lines = n as u64;
        }
        let mut groups = 0usize;
        for entry in entries.iter() {
            if word(entry, 0) != EMPTY {
                emitted[groups * 16..(groups + 1) * 16].copy_from_slice(entry);
                groups += 1;
            }
        }
        debug_assert_eq!(groups as u64, out.n());
        let (n, groups) = (n as u64, groups as u64);
        // A hit reads and writes the count; a miss fills one slot.
        let upsert = n + probes + 2 * hits + (n - hits);
        let sweep = table.n() + 2 * groups;
        self.accesses += upsert + sweep;
        self.lines += upsert - n + lines + sweep;
        n + probes + groups
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        let d = self.idx(dst);
        let len_us = len as usize;
        match operand(&self.mapped, src) {
            (Some(seg), s) => self.arena.data[d..d + len_us].copy_from_slice(&seg[s..s + len_us]),
            (None, s) => self.arena.data.copy_within(s..s + len_us, d),
        }
        self.accesses += 2;
        self.lines += 2 * len.div_ceil(NATIVE_LINE).max(1);
    }

    fn swap(&mut self, a: Addr, b: Addr, w: u64) {
        if a == b {
            // A self-swap is a harmless no-op on the sim backend (its
            // default reads and rewrites the tuple); keep the backends
            // behaviourally identical.
            self.touch(a, w);
            self.touch(b, w);
            return;
        }
        let (ai, bi) = (self.idx(a), self.idx(b));
        let (lo, hi) = if ai < bi { (ai, bi) } else { (bi, ai) };
        assert!(lo + w as usize <= hi, "tuples overlap");
        let (front, back) = self.arena.data.split_at_mut(hi);
        front[lo..lo + w as usize].swap_with_slice(&mut back[..w as usize]);
        self.accesses += 2;
        self.lines += 2 * w.div_ceil(NATIVE_LINE).max(1);
    }

    fn host_bytes(&self, addr: Addr, len: u64) -> &[u8] {
        let (bytes, i) = self.view(addr);
        &bytes[i..i + len as usize]
    }

    fn host_bytes_mut(&mut self, addr: Addr, len: u64) -> &mut [u8] {
        let i = self.idx(addr);
        &mut self.arena.data[i..i + len as usize]
    }

    fn counters(&self) -> NativeCounters {
        NativeCounters {
            elapsed_ns: self.t0.elapsed().as_secs_f64() * 1e9,
            accesses: self.accesses,
            lines: self.lines,
        }
    }

    fn counters_since(&self, earlier: &NativeCounters) -> NativeCounters {
        let now = self.counters();
        NativeCounters {
            elapsed_ns: now.elapsed_ns - earlier.elapsed_ns,
            accesses: now.accesses - earlier.accesses,
            lines: now.lines - earlier.lines,
        }
    }

    fn elapsed_ns(c: &NativeCounters) -> f64 {
        c.elapsed_ns
    }

    fn counter_accesses(c: &NativeCounters) -> Option<u64> {
        Some(c.accesses)
    }

    /// The wall clock already includes every nanosecond of CPU work:
    /// charging `per_op_ns × ops` on top would double-count `T_cpu`, so
    /// native total time is the elapsed time alone.
    fn total_ns(c: &NativeCounters, _ops: u64, _per_op_ns: f64) -> f64 {
        c.elapsed_ns
    }

    /// Best-effort cold caches: stream a buffer larger than any LLC we
    /// expect, with writes, so the working set of the next measurement
    /// starts (mostly) evicted. Unlike the simulator's exact flush this
    /// is approximate — another reason native timing assertions use
    /// generous bounds.
    fn cold_caches(&mut self) {
        if self.wipe.is_empty() {
            self.wipe = vec![1u8; DEFAULT_WIPE_BYTES];
        }
        let mut acc = 0u64;
        for i in (0..self.wipe.len()).step_by(NATIVE_LINE as usize) {
            acc = acc.wrapping_add(self.wipe[i] as u64);
            self.wipe[i] = acc as u8;
        }
        black_box(acc);
    }
}

impl ExecContext<NativeBackend> {
    /// An execution context on the host's real memory.
    pub fn native() -> ExecContext<NativeBackend> {
        ExecContext::with_backend(NativeBackend::new())
    }

    /// A native context with `bytes` of backing store pre-reserved.
    pub fn native_with_capacity(bytes: usize) -> ExecContext<NativeBackend> {
        ExecContext::with_backend(NativeBackend::with_capacity(bytes))
    }

    /// A native context pinned to the scalar reference path
    /// ([`NativeBackend::scalar_reference`]): no SIMD kernels, no
    /// prefetch — the measured baseline the vectorized path is compared
    /// against.
    pub fn native_scalar() -> ExecContext<NativeBackend> {
        ExecContext::with_backend(NativeBackend::scalar_reference())
    }
}

/// Calibrate the native per-logical-op CPU charge the way the paper
/// calibrates `T_cpu` (§6.1): run an operator over an in-cache working
/// set, warm, and divide elapsed wall time by the logical ops performed.
/// Used to *predict* native totals from the cost model's `T_mem` plus
/// `per_op_ns × ops`.
///
/// The probe runs on the **scalar reference** path: a logical op is one
/// per-tuple pass through the charged operator glue, which is what
/// every non-kernelized operator (hash upserts, partition scatters,
/// probes) pays per op. Calibrating on the vectorized kernels instead
/// would divide a SIMD scan's wall time over the same op count and
/// underprice every per-tuple operator several-fold.
pub fn calibrate_per_op_ns() -> f64 {
    per_op_probe(ExecContext::native_scalar())
}

/// Kernel-path companion of [`calibrate_per_op_ns`]: the same in-cache
/// probe through the vectorized kernels. This is the per-op CPU charge
/// of the *fast path* — the `T_cpu` term of Eq 6.1 when predicting
/// kernelized operators (a logical op the scalar glue prices at several
/// ns costs a fraction of one inside a SIMD loop).
pub fn calibrate_kernel_per_op_ns() -> f64 {
    per_op_probe(ExecContext::native())
}

fn per_op_probe(mut ctx: ExecContext<NativeBackend>) -> f64 {
    let keys: Vec<u64> = (0..2048).collect();
    let rel = ctx.relation_from_keys("cal", &keys, 8);
    // Warm the (16 KB, L1/L2-resident) working set.
    crate::ops::scan::scan_sum(&mut ctx, &rel, 8);
    let (_, stats) = ctx.measure(|c| {
        let mut acc = 0u64;
        for _ in 0..64 {
            acc = acc.wrapping_add(crate::ops::scan::scan_sum(c, &rel, 8));
        }
        black_box(acc);
    });
    (NativeBackend::elapsed_ns(&stats.mem) / stats.ops.max(1) as f64).max(0.01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use gcm_workload::Workload;

    #[test]
    fn native_roundtrip_and_alignment() {
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(a, NATIVE_BASE);
        m.write_u64(a, 0xDEAD_BEEF);
        assert_eq!(MemoryBackend::read_u64(&mut m, a), 0xDEAD_BEEF);
        m.host_write_u64(a + 8, 7);
        assert_eq!(m.host_read_u64(a + 8), 7);
        let b = MemoryBackend::alloc(&mut m, 16, 8);
        MemoryBackend::copy(&mut m, a, b, 16);
        assert_eq!(m.host_read_u64(b), 0xDEAD_BEEF);
    }

    #[test]
    fn addresses_mirror_the_sim_arena() {
        use gcm_sim::Arena;
        let mut native = NativeBackend::new();
        let mut sim = Arena::new();
        for (bytes, align) in [(100, 64), (8, 8), (4096, 128), (1, 8)] {
            assert_eq!(
                MemoryBackend::alloc(&mut native, bytes, align),
                sim.alloc(bytes, align),
                "alloc({bytes}, {align})"
            );
        }
    }

    #[test]
    fn set_high_water_mirrors_the_sim_arena() {
        use gcm_sim::Arena;
        let mut native = NativeBackend::new();
        let mut sim = Arena::new();
        let a = MemoryBackend::alloc(&mut native, 64, 64);
        assert_eq!(a, sim.alloc(64, 64));
        for end in [a + 4096, a + 8, a + 200] {
            assert_eq!(native.set_high_water(end), sim.set_high_water(end));
        }
        assert_eq!(MemoryBackend::alloc(&mut native, 8, 64), sim.alloc(8, 64));
    }

    #[test]
    fn counters_advance_monotonically() {
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 4096, 64);
        let before = m.counters();
        MemoryBackend::touch(&mut m, a, 4096);
        let d = m.counters_since(&before);
        assert_eq!(d.lines, 64);
        assert_eq!(d.accesses, 1);
        assert!(d.elapsed_ns >= 0.0);
        // Per-level misses are not observable: no rows, never zero rows.
        assert!(m.counter_level_misses(&d).is_empty());
    }

    #[test]
    fn native_context_runs_real_operators() {
        let mut ctx = ExecContext::native();
        let keys = Workload::new(9).shuffled_keys(1000);
        let rel = ctx.relation_from_keys("U", &keys, 8);
        let (sum, stats) = ctx.measure(|c| ops::scan::scan_sum(c, &rel, 8));
        assert_eq!(sum, (0..1000).sum::<u64>());
        assert_eq!(stats.ops, 1000);
        assert!(stats.total_ns(4.0) > 0.0, "wall clock must advance");
        ops::sort::quick_sort(&mut ctx, &rel);
        for i in 0..1000 {
            assert_eq!(ctx.mem.host_read_u64(rel.tuple(i)), i);
        }
    }

    #[test]
    fn native_total_ns_is_wall_clock_only() {
        let c = NativeCounters {
            elapsed_ns: 500.0,
            accesses: 1,
            lines: 1,
        };
        assert_eq!(NativeBackend::total_ns(&c, 1_000_000, 100.0), 500.0);
    }

    #[test]
    fn swap_rejects_overlap_and_swaps_payload() {
        let mut ctx = ExecContext::native();
        let rel = ctx.relation_from_keys("R", &[1, 2], 16);
        ctx.mem.host_write_u64(rel.tuple(0) + 8, 111);
        ctx.swap_tuples(&rel, 0, 1);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(0)), 2);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(1)), 1);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(1) + 8), 111);
        // Self-swap: a no-op on both backends, never a panic.
        ctx.swap_tuples(&rel, 1, 1);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(1)), 1);
    }

    #[test]
    fn per_op_calibration_is_positive_and_small() {
        let per_op = calibrate_per_op_ns();
        // An in-cache logical op costs somewhere between a fraction of a
        // ns and (on a wildly loaded CI box) a few hundred ns.
        assert!(per_op > 0.0 && per_op < 1000.0, "per_op = {per_op}");
    }

    #[test]
    fn straddling_word_access_counts_both_lines() {
        // Regression: an 8-byte access crossing a 64-B boundary used to
        // be charged one line. 4 bytes into the last word of a line it
        // spans two.
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 128, 64);
        m.host_write_u64(a + 60, 99);
        let before = m.counters();
        assert_eq!(MemoryBackend::read_u64(&mut m, a + 60), 99);
        let d = m.counters_since(&before);
        assert_eq!((d.accesses, d.lines), (1, 2));
        let before = m.counters();
        MemoryBackend::write_u64(&mut m, a + 60, 7);
        let d = m.counters_since(&before);
        assert_eq!((d.accesses, d.lines), (1, 2));
        // Aligned and in-line accesses still count one line.
        for off in [0, 8, 56] {
            let before = m.counters();
            MemoryBackend::read_u64(&mut m, a + off);
            assert_eq!(m.counters_since(&before).lines, 1, "offset {off}");
        }
    }

    #[test]
    fn prefetch_hints_are_uncharged_and_safe() {
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 256, 64);
        assert_eq!(m.prefetch_distance(), kernels::PREFETCH_DISTANCE);
        let before = m.counters();
        m.prefetch_read(a);
        m.prefetch_write(a + 64);
        // Out-of-slab and below-base addresses must be harmless no-ops.
        m.prefetch_read(a + (1 << 30));
        m.prefetch_write(0);
        let d = m.counters_since(&before);
        assert_eq!((d.accesses, d.lines), (0, 0));
        // The scalar reference advertises no distance.
        assert_eq!(NativeBackend::scalar_reference().prefetch_distance(), 0);
    }

    #[test]
    fn bulk_kernels_match_the_scalar_reference_exactly() {
        // Same relation on a kernel backend and a scalar-reference
        // backend: identical sums, hits, output bytes, AND identical
        // access/line accounting.
        let keys: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let run = |mem: &mut NativeBackend| {
            let src = MemoryBackend::alloc(mem, 1000 * 8, 64);
            let dst = MemoryBackend::alloc(mem, 1000 * 8, 64);
            for (i, k) in keys.iter().enumerate() {
                mem.host_write_u64(src + (i as u64) * 8, *k);
            }
            let c0 = mem.counters();
            let sum = mem.scan_sum_bulk(src, 1000, 8, 8);
            let hits = mem.select_lt_bulk(src, 1000, 8, 0x9E37 * 500, dst, 8);
            let d = mem.counters_since(&c0);
            let mut out = vec![0u8; (hits * 8) as usize];
            mem.host_read_bytes(dst, &mut out);
            (sum, hits, out, d.accesses, d.lines)
        };
        let kernel = run(&mut NativeBackend::new());
        let scalar = run(&mut NativeBackend::scalar_reference());
        assert_eq!(kernel, scalar);
        assert!(kernel.1 > 0, "the filter must select something");
        // Non-dense widths route both backends down the same strided
        // loop and still agree.
        let run_wide = |mem: &mut NativeBackend| {
            let src = MemoryBackend::alloc(mem, 100 * 32, 64);
            for i in 0..100u64 {
                mem.host_write_u64(src + i * 32, i * 3);
            }
            let c0 = mem.counters();
            let sum = mem.scan_sum_bulk(src, 100, 32, 16);
            let d = mem.counters_since(&c0);
            (sum, d.accesses, d.lines)
        };
        assert_eq!(
            run_wide(&mut NativeBackend::new()),
            run_wide(&mut NativeBackend::scalar_reference())
        );
    }

    /// Run the three hash entry points on `backend`: build over `build`,
    /// probe with `probe` into a `|probe|`-tuple tail output of
    /// `out_w`-byte tuples, group-count `probe` and emit its groups.
    /// Returns, per entry point, the result bytes (for group-count the
    /// table's, then the output's), the returned values and the
    /// access/line deltas.
    ///
    /// With `mapped`, the inputs are mapped segments read in place and
    /// the probe runs against the mapped shared layout of `build`
    /// instead of the table built in the arena.
    fn hash_entry_points(
        backend: NativeBackend,
        build: &[u64],
        probe: &[u64],
        w: u64,
        out_w: u64,
        mapped: bool,
    ) -> Vec<(Vec<u8>, Vec<u64>, u64, u64)> {
        let mut ctx = ExecContext::with_backend(backend);
        let input = |ctx: &mut ExecContext<NativeBackend>, name: &str, keys: &[u64]| {
            let n = keys.len() as u64;
            if mapped {
                ctx.bind(name, &Segment::from_keys(keys, w), n, w)
            } else {
                ctx.relation_from_keys(name, keys, w)
            }
        };
        let v = input(&mut ctx, "V", build);
        let u = input(&mut ctx, "U", probe);
        let mut runs = Vec::new();
        let mut record = |ctx: &ExecContext<NativeBackend>, bytes, values, c0| {
            let d = ctx.mem.counters_since(&c0);
            runs.push((bytes, values, d.accesses, d.lines));
        };

        let table = ops::hash::HashTable::alloc(&mut ctx, "H", v.n());
        let c0 = ctx.mem.counters();
        let ops = ctx.mem.hash_build_bulk(&v, table.slots());
        record(&ctx, ctx.relation_bytes(table.slots()), vec![ops], c0);
        let table = if mapped {
            let layout = Segment::from_keys(&ops::hash::build_layout(build), 8);
            ops::hash::HashTable::from_layout(&mut ctx, "Hm", &layout)
        } else {
            table
        };

        let cap = u.n();
        let out = MemoryBackend::alloc(&mut ctx.mem, (cap * out_w).max(1), 64);
        let c0 = ctx.mem.counters();
        let (matches, cap, ops) = ctx.mem.hash_probe_bulk(&u, table.slots(), out, out_w, cap);
        // The whole capacity: bytes past the matches must stay zero.
        let written = Relation::new("W", out, cap, out_w);
        record(
            &ctx,
            ctx.relation_bytes(&written),
            vec![matches, cap, ops],
            c0,
        );
        ctx.mem.set_high_water(out + (matches * out_w).max(1));

        let distinct = ops::aggregate::distinct_count(probe.iter().copied());
        let groups = ops::hash::HashTable::alloc(&mut ctx, "G", distinct.max(1));
        let out = ctx.relation("C", distinct, 16);
        let c0 = ctx.mem.counters();
        let ops = ctx.mem.group_count_bulk(&u, groups.slots(), &out);
        let mut bytes = ctx.relation_bytes(groups.slots());
        bytes.extend(ctx.relation_view(&out));
        record(&ctx, bytes, vec![ops], c0);
        runs
    }

    #[test]
    fn hash_kernels_match_the_scalar_reference_exactly() {
        let mut wl = Workload::new(17);
        let dim = wl.shuffled_keys(300);
        let skewed = wl.zipf_keys(4000, 300, 1.1);
        // Every probe key matches three build tuples: 3·|U| matches
        // overrun the |U|-tuple output twice, so the in-kernel growth
        // path runs.
        let dup_build: Vec<u64> = (0..3).flat_map(|_| 0..40u64).collect();
        let dup_probe: Vec<u64> = (0..200).map(|i| i % 40).collect();
        // Half the probes miss, and the last one walks an occupied run
        // before it does: the output ends below its capacity, right
        // after a visit that matched nothing.
        let half = &dim[..150];
        let layout = ops::hash::build_layout(half);
        let mask = (layout.len() / 2 - 1) as u64;
        let last = (1000u64..)
            .find(|&k| layout[2 * (ops::mix(k) & mask) as usize] != ops::hash::EMPTY)
            .expect("an occupied home slot");
        let partial: Vec<u64> = skewed.iter().copied().chain([last]).collect();
        let cases: [(&[u64], &[u64], u64, u64); 5] = [
            (&dup_build, &dup_probe, 8, 16),
            (&dim, &skewed, 16, 16),
            // Tuples and output tuples straddling lines.
            (&dim, &skewed, 24, 24),
            (half, &partial, 8, 16),
            (&[], &[], 8, 16),
        ];
        for (build, probe, w, out_w) in cases {
            let run = |backend, mapped| hash_entry_points(backend, build, probe, w, out_w, mapped);
            let scalar = run(NativeBackend::scalar_reference(), false);
            // Mapped operands (inputs and a shared layout read in place)
            // change neither bytes nor accounting, on either path.
            for (kernel, mapped) in [(true, false), (true, true), (false, true)] {
                let backend = if kernel {
                    NativeBackend::new()
                } else {
                    NativeBackend::scalar_reference()
                };
                assert_eq!(
                    run(backend, mapped),
                    scalar,
                    "w = {w}, out_w = {out_w}, kernel = {kernel}, mapped = {mapped}"
                );
            }
        }
        let dup = hash_entry_points(NativeBackend::new(), &dup_build, &dup_probe, 8, 16, true);
        assert_eq!(dup[1].1[0], 600, "three matches per probe");
        assert!(dup[1].1[1] >= 600, "the output grew past |U|");
    }

    #[test]
    fn cold_caches_is_callable_and_preserves_data() {
        let mut ctx = ExecContext::native();
        let rel = ctx.relation_from_keys("R", &[42], 8);
        ctx.cold_caches();
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(0)), 42);
    }

    /// Whether the `len` bytes at `addr` are all zero.
    fn zeroed(m: &NativeBackend, addr: Addr, len: u64) -> bool {
        let mut buf = vec![1u8; len as usize];
        m.host_read_bytes(addr, &mut buf);
        buf.iter().all(|&b| b == 0)
    }

    #[test]
    fn native_arena_hands_out_zeroed_bytes_across_resets() {
        // A dirtied allocation, reset, allocated over: zero again, at
        // the same address.
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 4096, 64);
        m.host_write_bytes(a, &[0xAB; 4096]);
        m.reset();
        assert_eq!(m.arena.next, NATIVE_BASE);
        let b = MemoryBackend::alloc(&mut m, 8192, 64);
        assert_eq!(a, b, "addresses repeat from the base");
        assert!(zeroed(&m, b, 8192), "a reused allocation must be zero");

        // A tail output written and sealed, then after a reset a smaller
        // one at the same base that grows over it tuple by tuple.
        let mut ctx = ExecContext::with_backend(NativeBackend::new());
        let mut out = ctx.tail_output(16, 8);
        for i in 0..64 {
            ctx.write_tail(&mut out, i, 0xCD00 + i);
        }
        let sealed = ctx.seal(out, "W", 64);
        ctx.mem.reset();
        let base = ctx.tail_output(4, 8).base();
        assert_eq!(base, sealed.base());
        let mut cap = 4;
        for i in 0..64 {
            cap = grow_tail(|e| ctx.mem.set_high_water(e), base, 8, cap, i);
            assert_eq!(ctx.mem.host_read_u64(base + 8 * i), 0, "tuple {i}");
        }

        // Allocations reaching past every earlier high-water mark: job 1
        // dirties 8 KiB, job 2 only 1 KiB of it, job 3 reaches past both.
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 8192, 64);
        m.host_write_bytes(a, &[0x11; 8192]);
        m.reset();
        let a = MemoryBackend::alloc(&mut m, 1024, 64);
        m.host_write_bytes(a, &[0x22; 1024]);
        m.reset();
        let a = MemoryBackend::alloc(&mut m, 64, 64);
        let b = MemoryBackend::alloc(&mut m, 64 << 10, 64);
        assert!(zeroed(&m, a, 64) && zeroed(&m, b, 64 << 10));
    }

    #[test]
    fn native_mapped_segments_are_read_in_place() {
        use crate::plan::{
            execute_traced, run_on, JoinAlgorithm, NoPrebuilt, NoTrace, PhysicalPlan, TableDef,
        };
        let star = Workload::new(5).star_scenario(3_000, 500, 1);
        let tables = [
            TableDef::new("F", &star.fact, 8),
            TableDef::new("D", &star.dims[0], 8),
        ];
        let plan = PhysicalPlan::scan(0)
            .select_lt(300)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let mut sim = ExecContext::new(gcm_hardware::presets::tiny());
        let (run, _) = run_on(&mut sim, &plan, &tables).unwrap();
        let expected = sim.relation_bytes(&run.output);

        let mut native = ExecContext::native();
        let rels = crate::plan::materialize_tables(&mut native, &plan, &tables);
        assert!(rels.iter().all(|r| r.base() >= MAPPED_BASE), "{rels:?}");
        let run = execute_traced(&mut native, &plan, &rels, &NoPrebuilt, &mut NoTrace).unwrap();
        assert_eq!(native.relation_bytes(&run.output), expected);

        // Again on the same arena after a reset, with the dimension's
        // build shared: the layout is probed where it is.
        struct Shared(crate::plan::PrebuiltBuild);
        impl crate::plan::BuildSource for Shared {
            fn prebuilt(&self, table: usize) -> Option<crate::plan::PrebuiltBuild> {
                (table == 1).then(|| self.0.clone())
            }
        }
        let layout = ops::hash::build_layout(&star.dims[0]);
        let shared = Shared(crate::plan::PrebuiltBuild {
            region: gcm_core::Region::new("H#D", layout.len() as u64 / 2, 16),
            layout: Segment::from_keys(&layout, 8),
        });
        native.mem.reset();
        let rels = crate::plan::materialize_tables(&mut native, &plan, &tables);
        let run = execute_traced(&mut native, &plan, &rels, &shared, &mut NoTrace).unwrap();
        assert_eq!(native.relation_bytes(&run.output), expected);
    }

    #[test]
    fn native_sorts_a_private_copy_of_a_mapped_table() {
        use crate::plan::{run_on, JoinAlgorithm, PhysicalPlan, TableDef};
        let (fact, dim) = (
            Workload::new(6).shuffled_keys(1_000),
            Workload::new(7).shuffled_keys(300),
        );
        let tables = [TableDef::new("F", &fact, 8), TableDef::new("D", &dim, 8)];
        let merge = JoinAlgorithm::Merge {
            sort_u: true,
            sort_v: true,
        };
        let plans = [
            PhysicalPlan::scan(0).sort(),
            PhysicalPlan::scan(0).dedup(),
            PhysicalPlan::scan(0).join_with(PhysicalPlan::scan(1), merge),
        ];
        for plan in &plans {
            let mut sim = ExecContext::new(gcm_hardware::presets::tiny());
            let (run, _) = run_on(&mut sim, plan, &tables).unwrap();
            let expected = sim.relation_bytes(&run.output);
            let mut native = ExecContext::native();
            let (run, _) = run_on(&mut native, plan, &tables).unwrap();
            assert_eq!(native.relation_bytes(&run.output), expected, "{plan}");
        }
        assert!(tables[0].keys().eq(fact.iter().copied()), "F untouched");
        assert!(tables[1].keys().eq(dim.iter().copied()), "D untouched");
    }

    #[test]
    #[should_panic]
    fn native_mapped_segments_are_read_only() {
        let mut m = NativeBackend::new();
        let at = m.map_segment(&Segment::from_keys(&[1, 2], 8)).unwrap();
        m.write_u64(at, 3);
    }
}
