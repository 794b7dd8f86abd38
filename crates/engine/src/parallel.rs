//! Partition-parallel execution on a multi-core machine model.
//!
//! The paper's concurrent-execution operator `⊙` (§5.2, Eq 5.3) prices
//! patterns that *coexist* and compete for a cache. On a multi-core
//! machine the same rule prices **threads**: a stage run at degree of
//! parallelism `d` is the `⊙`-composition of `d` per-thread patterns on
//! every [`Shared`](gcm_hardware::Sharing::Shared) level, while
//! [`Private`](gcm_hardware::Sharing::Private) levels see only their own
//! thread's pattern ([`gcm_core::CostModel::advance_parallel`]).
//!
//! This module is the *measured* side of that claim: real
//! [`std::thread::scope`] worker threads, each computing real results
//! over the context its [`WorkerContexts`] factory hands it. With
//! [`SimWorkers`] that is a simulated memory hierarchy — an
//! [`ExecContext`] on the machine's
//! [`thread_view`](gcm_hardware::HardwareSpec::thread_view), which
//! grants the thread its full private levels but only a `1/d` share of
//! every shared level; with [`NativeWorkers`] it is real host memory. A
//! stage's measured elapsed time is the slowest thread's charged memory
//! time plus its CPU time (Eq 6.1; wall time alone on native), so
//! partition skew shows up exactly as a straggler, and shared-level
//! contention shows up as per-thread misses that a single-core run would
//! not pay.
//!
//! Three partition-parallel operators are provided, each one entry point
//! generic over the worker factory (`&SimWorkers::new(&spec, dop)` or
//! `&NativeWorkers`):
//!
//! * [`par_filter_lt`] — parallel scan + filter over key chunks;
//! * [`par_group_count`] — parallel aggregation with per-thread partial
//!   tables and a sequential merge;
//! * [`par_hash_join`] — partition-parallel hash join: every thread
//!   radix-partitions its chunk of both inputs ([`ops::radix`]), then
//!   owns a disjoint partition range and joins the matching pairs.
//!
//! The model-side descriptions ([`par_select_patterns`],
//! [`par_group_patterns`], [`par_hash_join_patterns`]) build the
//! per-thread patterns the optimizer and the `parallel_speedup` bench
//! price via `advance_parallel`.

use crate::backend::{MemoryBackend, SimBackend};
use crate::ctx::ExecContext;
use crate::native::NativeBackend;
use crate::ops;
use crate::ops::hash::HashTable;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};
use gcm_hardware::HardwareSpec;
use std::ops::Range;

/// A factory of per-worker execution contexts: how a parallel stage
/// obtains the memory substrate each of its threads runs on. The sim
/// flavour ([`SimWorkers`]) hands every worker its own simulated
/// hierarchy on the machine's 1/d thread view; the native flavour
/// ([`NativeWorkers`]) hands every worker real host memory — the workers
/// are genuine [`std::thread::scope`] threads either way, but on native
/// memory they actually contend for the machine's caches instead of
/// simulating the contention.
pub trait WorkerContexts: Sync {
    /// The backend every worker context wraps.
    type Backend: MemoryBackend;

    /// A fresh context for one worker thread.
    fn worker(&self) -> ExecContext<Self::Backend>;

    /// A fresh context for a sequential (merge) phase on the full
    /// machine.
    fn merge(&self) -> ExecContext<Self::Backend>;
}

/// Simulated per-thread hierarchies: each worker sees the machine's
/// [`thread_view`](HardwareSpec::thread_view) for the stage's DOP, the
/// merge phase sees the whole machine.
#[derive(Debug, Clone)]
pub struct SimWorkers {
    view: HardwareSpec,
    full: HardwareSpec,
}

impl SimWorkers {
    /// Worker contexts for a `dop`-way stage on `spec`.
    pub fn new(spec: &HardwareSpec, dop: usize) -> SimWorkers {
        SimWorkers {
            view: spec.thread_view(dop as u32),
            full: spec.thread_view(1),
        }
    }
}

impl WorkerContexts for SimWorkers {
    type Backend = SimBackend;

    fn worker(&self) -> ExecContext<SimBackend> {
        ExecContext::new(self.view.clone())
    }

    fn merge(&self) -> ExecContext<SimBackend> {
        ExecContext::new(self.full.clone())
    }
}

/// Native worker contexts: every worker thread allocates and scans real
/// host buffers, so a stage's measured wall time is genuine concurrent
/// execution on the actual machine (hardware shares its caches itself —
/// no view construction required or possible). Per-op CPU time is inside
/// the wall clock, so the stages' `per_op_ns` argument is ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeWorkers;

impl WorkerContexts for NativeWorkers {
    type Backend = NativeBackend;

    fn worker(&self) -> ExecContext<NativeBackend> {
        ExecContext::native()
    }

    fn merge(&self) -> ExecContext<NativeBackend> {
        self.worker()
    }
}

/// Per-worker result triple: output, measured ns, logical ops.
type WorkerOut<T> = (T, f64, u64);

/// Result of one parallel stage: real output plus the measured
/// (simulated) timing of every worker.
#[derive(Debug, Clone)]
pub struct ParRun<T> {
    /// The stage's output, assembled from the workers.
    pub out: T,
    /// Measured elapsed time: the slowest worker, plus any sequential
    /// merge phase (Eq 6.1 per thread: charged memory ns + per-op CPU).
    pub wall_ns: f64,
    /// Each worker's own measured time. [`par_group_count`] appends
    /// the sequential merge phase as one extra trailing entry, so its
    /// length is `dop + 1` there.
    pub thread_ns: Vec<f64>,
    /// Total logical CPU operations across all workers (and merge).
    pub ops: u64,
    /// The subset of `ops` performed in a sequential phase (e.g. the
    /// aggregation merge) — work a DOP cannot divide.
    pub serial_ops: u64,
}

/// Split `0..n` into `dop` near-equal contiguous chunks (the leading
/// chunks take the remainder; empty chunks are legal).
pub fn chunk_ranges(n: usize, dop: usize) -> Vec<Range<usize>> {
    let dop = dop.max(1);
    let base = n / dop;
    let extra = n % dop;
    let mut out = Vec::with_capacity(dop);
    let mut start = 0;
    for t in 0..dop {
        let len = base + usize::from(t < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Read a relation's keys back from backend memory (host-side).
fn keys_of<B: MemoryBackend>(ctx: &ExecContext<B>, rel: &Relation) -> Vec<u64> {
    (0..rel.n())
        .map(|i| ctx.mem.host_read_u64(rel.tuple(i)))
        .collect()
}

/// Run `work` over `items` on one scoped thread each (the stage's one
/// spawn/join site), returning the results in item order.
fn scoped_map<I: Send, T: Send>(items: Vec<I>, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| s.spawn(move || work(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Parallel scan + filter: every worker filters its chunk of `keys` on
/// its own context from `workers`; the outputs are concatenated in chunk
/// order.
pub fn par_filter_lt(
    workers: &impl WorkerContexts,
    keys: &[u64],
    threshold: u64,
    dop: usize,
    per_op_ns: f64,
) -> ParRun<Vec<u64>> {
    let results: Vec<WorkerOut<Vec<u64>>> = scoped_map(chunk_ranges(keys.len(), dop), |range| {
        let mut ctx = workers.worker();
        let rel = ctx.relation_from_keys("U", &keys[range], 8);
        let (out, stats) = ctx.measure(|c| ops::scan::select_lt(c, &rel, threshold, "W"));
        (keys_of(&ctx, &out), stats.total_ns(per_op_ns), stats.ops)
    });
    let thread_ns: Vec<f64> = results.iter().map(|r| r.1).collect();
    ParRun {
        wall_ns: thread_ns.iter().copied().fold(0.0, f64::max),
        ops: results.iter().map(|r| r.2).sum(),
        out: results.into_iter().flat_map(|r| r.0).collect(),
        thread_ns,
        serial_ops: 0,
    }
}

/// Parallel aggregation (group-by count): every worker aggregates its
/// chunk into a private partial table; a sequential merge phase then
/// adds the partials into one final table. Returns `(key, count)` pairs
/// in merge-table order.
pub fn par_group_count(
    workers: &impl WorkerContexts,
    keys: &[u64],
    dop: usize,
    per_op_ns: f64,
) -> ParRun<Vec<(u64, u64)>> {
    let partials: Vec<WorkerOut<Vec<(u64, u64)>>> =
        scoped_map(chunk_ranges(keys.len(), dop), |range| {
            let mut ctx = workers.worker();
            let rel = ctx.relation_from_keys("U", &keys[range], 8);
            let (out, stats) = ctx.measure(|c| ops::aggregate::hash_group_count(c, &rel, "G"));
            let pairs: Vec<(u64, u64)> = (0..out.n())
                .map(|i| {
                    let t = out.tuple(i);
                    (ctx.mem.host_read_u64(t), ctx.mem.host_read_u64(t + 8))
                })
                .collect();
            (pairs, stats.total_ns(per_op_ns), stats.ops)
        });
    let mut thread_ns: Vec<f64> = partials.iter().map(|p| p.1).collect();
    let phase_wall = thread_ns.iter().copied().fold(0.0, f64::max);
    let mut total_ops: u64 = partials.iter().map(|p| p.2).sum();

    // Sequential merge on the full machine: add every partial pair into
    // one final counting table, then sweep it.
    let mut ctx = workers.merge();
    let all: Vec<(u64, u64)> = partials.into_iter().flat_map(|p| p.0).collect();
    let cat = ctx.relation("P", all.len() as u64, 16);
    for (i, (k, c)) in all.iter().enumerate() {
        ctx.mem.host_write_u64(cat.tuple(i as u64), *k);
        ctx.mem.host_write_u64(cat.tuple(i as u64) + 8, *c);
    }
    let distinct = {
        let mut seen = std::collections::HashSet::new();
        all.iter().filter(|(k, _)| seen.insert(*k)).count() as u64
    };
    let table = HashTable::alloc(&mut ctx, "H", distinct.max(1));
    let mut merged = Vec::new();
    let (_, merge_stats) = ctx.measure(|c| {
        for i in 0..cat.n() {
            let addr = cat.tuple(i);
            c.mem.touch(addr, 16);
            let (k, cnt) = (c.mem.host_read_u64(addr), c.mem.host_read_u64(addr + 8));
            c.count_ops(1);
            ops::aggregate::upsert_add(c, &table, k, cnt);
        }
        for slot in 0..table.capacity() {
            let addr = table.slot_addr(slot);
            let k = c.mem.read_u64(addr);
            if k != ops::hash::EMPTY {
                merged.push((k, c.mem.read_u64(addr + 8)));
                c.count_ops(1);
            }
        }
    });
    total_ops += merge_stats.ops;
    let merge_ns = merge_stats.total_ns(per_op_ns);
    thread_ns.push(merge_ns);
    ParRun {
        out: merged,
        wall_ns: phase_wall + merge_ns,
        thread_ns,
        ops: total_ops,
        serial_ops: merge_stats.ops,
    }
}

/// Partition-parallel hash join of `u ⋈ v` (equal keys, one output key
/// per matching pair), `2^bits`-way partitioned, executed by `dop`
/// worker threads (`dop` must divide `2^bits`).
///
/// Phase 1 (parallel): every worker radix-partitions its chunk of both
/// inputs into `2^bits` clusters ([`ops::radix::radix_partition`] — the
/// existing single-pass radix cluster, so cluster `j` is
/// digit-homogeneous across workers). Phase 2 (parallel): worker `t`
/// owns the disjoint cluster range `t·2^bits/dop ..`, gathers those
/// clusters from every phase-1 output, and hash-joins each matching
/// pair. Measured wall time is `max(phase 1) + max(phase 2)`.
pub fn par_hash_join(
    workers: &impl WorkerContexts,
    u_keys: &[u64],
    v_keys: &[u64],
    bits: u32,
    dop: usize,
    per_op_ns: f64,
) -> ParRun<Vec<u64>> {
    let m = 1u64 << bits;
    assert!(
        dop as u64 <= m && m.is_multiple_of(dop as u64),
        "dop {dop} must divide the fan-out {m}"
    );

    // Phase 1: partition chunks of both sides.
    type Buckets = Vec<Vec<u64>>;
    let chunks: Vec<_> = chunk_ranges(u_keys.len(), dop)
        .into_iter()
        .zip(chunk_ranges(v_keys.len(), dop))
        .collect();
    let phase1: Vec<(Buckets, Buckets, f64, u64)> = scoped_map(chunks, |(ur, vr)| {
        let mut ctx = workers.worker();
        let u = ctx.relation_from_keys("U", &u_keys[ur], 8);
        let v = ctx.relation_from_keys("V", &v_keys[vr], 8);
        let ((pu, pv), stats) = ctx.measure(|c| {
            let pu = ops::radix::radix_partition(c, &u, bits, 1, "Up");
            let pv = ops::radix::radix_partition(c, &v, bits, 1, "Vp");
            (pu, pv)
        });
        let buckets = |p: &ops::partition::Partitioned| -> Buckets {
            (0..m).map(|j| keys_of(&ctx, &p.part(j))).collect()
        };
        (
            buckets(&pu),
            buckets(&pv),
            stats.total_ns(per_op_ns),
            stats.ops,
        )
    });
    let p1_ns: Vec<f64> = phase1.iter().map(|p| p.2).collect();
    let p1_wall = p1_ns.iter().copied().fold(0.0, f64::max);
    let mut total_ops: u64 = phase1.iter().map(|p| p.3).sum();

    // Phase 2: worker t joins its disjoint cluster range.
    let per_thread = (m / dop as u64) as usize;
    let phase2: Vec<WorkerOut<Vec<u64>>> = scoped_map((0..dop).collect(), |t| {
        let mut ctx = workers.worker();
        let mut joined = Vec::new();
        let mut ns = 0.0;
        let mut ops_count = 0;
        for j in t * per_thread..(t + 1) * per_thread {
            let gather = |side: fn(&(Buckets, Buckets, f64, u64)) -> &Buckets| -> Vec<u64> {
                phase1
                    .iter()
                    .flat_map(|p| side(p)[j].iter().copied())
                    .collect()
            };
            let uj = gather(|p| &p.0);
            let vj = gather(|p| &p.1);
            if uj.is_empty() || vj.is_empty() {
                continue;
            }
            let u = ctx.relation_from_keys("Uj", &uj, 8);
            let v = ctx.relation_from_keys("Vj", &vj, 8);
            let (out, stats) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
            joined.extend(keys_of(&ctx, &out));
            ns += stats.total_ns(per_op_ns);
            ops_count += stats.ops;
        }
        (joined, ns, ops_count)
    });
    let p2_ns: Vec<f64> = phase2.iter().map(|p| p.1).collect();
    let p2_wall = p2_ns.iter().copied().fold(0.0, f64::max);
    total_ops += phase2.iter().map(|p| p.2).sum::<u64>();
    let thread_ns: Vec<f64> = p1_ns.iter().zip(&p2_ns).map(|(a, b)| a + b).collect();
    ParRun {
        out: phase2.into_iter().flat_map(|p| p.0).collect(),
        wall_ns: p1_wall + p2_wall,
        thread_ns,
        ops: total_ops,
        serial_ops: 0,
    }
}

// ---------------------------------------------------------------------
// Model-side descriptions: the per-thread patterns the optimizer and the
// speedup bench price via `CostModel::advance_parallel`.
// ---------------------------------------------------------------------

/// Per-thread patterns of a `dop`-way parallel filter: each thread
/// sweeps a `1/dop` slice of the input and writes its slice of the
/// output — `select(U/d, W/d)` per thread.
pub fn par_select_patterns(u: &Region, w: &Region, dop: u64) -> Vec<Pattern> {
    (0..dop.max(1))
        .map(|_| library::select(u.slice(dop.max(1)), w.slice(dop.max(1))))
        .collect()
}

/// Per-thread patterns plus the sequential merge stage of a `dop`-way
/// parallel aggregation with `distinct` expected groups: each thread
/// aggregates its input slice into a private partial table; the merge
/// re-aggregates the concatenated partials into the final table/output.
///
/// Returns `(thread_patterns, merge_pattern)`.
pub fn par_group_patterns(
    u: &Region,
    distinct: u64,
    w: &Region,
    dop: u64,
) -> (Vec<Pattern>, Pattern) {
    let dop = dop.max(1);
    let slots = ops::hash::table_slots(distinct);
    let threads: Vec<Pattern> = (0..dop)
        .map(|t| {
            let h_t = Region::new(format!("Hp{t}"), slots, ops::hash::ENTRY_BYTES);
            let w_t = Region::new(format!("Gp{t}"), distinct.max(1), 16);
            library::hash_aggregate(u.slice(dop), h_t, w_t)
        })
        .collect();
    let merge = if dop == 1 {
        Pattern::empty()
    } else {
        let cat = Region::new("Pcat", dop * distinct.max(1), 16);
        let h = Region::new("H", slots, ops::hash::ENTRY_BYTES);
        library::hash_aggregate(cat, h, w.clone())
    };
    (threads, merge)
}

/// Per-thread patterns of a `dop`-way partition-parallel hash join with
/// total fan-out `m` (each thread partitions its `1/dop` chunk of both
/// inputs `m` ways, then joins its `m/dop` owned cluster pairs).
///
/// `up`/`vp` are the partitioned-copy regions (shared identities across
/// the partition and join phases, so Eq 5.2 prices the re-read of the
/// freshly written clusters).
pub fn par_hash_join_patterns(
    u: &Region,
    v: &Region,
    w: &Region,
    up: &Region,
    vp: &Region,
    m: u64,
    dop: u64,
) -> Vec<Pattern> {
    let dop = dop.max(1).min(m);
    let per_thread = (m / dop).max(1);
    let table_slots = ops::hash::table_slots(v.n / m.max(1));
    (0..dop)
        .map(|t| {
            let parts = (0..per_thread)
                .map(|j| {
                    (
                        up.slice(m),
                        vp.slice(m),
                        Region::new(
                            format!("H{}", t * per_thread + j),
                            table_slots,
                            ops::hash::ENTRY_BYTES,
                        ),
                        w.slice(m),
                    )
                })
                .collect();
            Pattern::seq(vec![
                library::partition(u.slice(dop), up.slice(dop), m),
                library::partition(v.slice(dop), vp.slice(dop), m),
                library::partitioned_hash_join(parts),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_core::{CacheState, CostModel};
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    const PER_OP: f64 = 4.0;

    fn serial_filter(keys: &[u64], t: u64) -> Vec<u64> {
        keys.iter().copied().filter(|&k| k < t).collect()
    }

    #[test]
    fn chunks_cover_and_balance() {
        let r = chunk_ranges(10, 4);
        assert_eq!(r, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(chunk_ranges(0, 3), vec![0..0, 0..0, 0..0]);
        assert_eq!(chunk_ranges(5, 1), vec![0..5]);
        // dop > n: trailing chunks are empty but the cover is exact.
        let r = chunk_ranges(2, 4);
        assert_eq!(r.last().unwrap().end, 2);
    }

    #[test]
    fn parallel_filter_matches_serial() {
        let spec = presets::tiny_smp(4);
        let keys = Workload::new(91).shuffled_keys(5_000);
        for dop in [1, 2, 4] {
            let run = par_filter_lt(&SimWorkers::new(&spec, dop), &keys, 1_000, dop, PER_OP);
            assert_eq!(run.out, serial_filter(&keys, 1_000), "dop {dop}");
            assert_eq!(run.thread_ns.len(), dop);
            assert!(run.wall_ns > 0.0 && run.ops > 0);
        }
    }

    #[test]
    fn parallel_filter_speeds_up_in_simulated_wall_time() {
        let spec = presets::tiny_smp(4);
        let keys = Workload::new(92).shuffled_keys(32_768);
        let t1 = par_filter_lt(&SimWorkers::new(&spec, 1), &keys, 10_000, 1, PER_OP).wall_ns;
        let t4 = par_filter_lt(&SimWorkers::new(&spec, 4), &keys, 10_000, 4, PER_OP).wall_ns;
        let speedup = t1 / t4;
        assert!(
            speedup > 2.5,
            "4-way filter speedup {speedup:.2} should be near-linear"
        );
    }

    #[test]
    fn parallel_group_count_matches_serial() {
        let spec = presets::tiny_smp(4);
        let keys = Workload::new(93).zipf_keys(8_000, 500, 1.0);
        let serial = {
            let mut counts = std::collections::HashMap::new();
            for &k in &keys {
                *counts.entry(k).or_insert(0u64) += 1;
            }
            counts
        };
        for dop in [1, 2, 4] {
            let run = par_group_count(&SimWorkers::new(&spec, dop), &keys, dop, PER_OP);
            let mut got: Vec<(u64, u64)> = run.out.clone();
            got.sort_unstable();
            let mut want: Vec<(u64, u64)> = serial.iter().map(|(&k, &c)| (k, c)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "dop {dop}");
        }
    }

    #[test]
    fn parallel_join_matches_serial_hash_join() {
        let spec = presets::tiny_smp(4);
        let mut wl = Workload::new(94);
        let (uk, vk) = wl.join_pair(3_000);
        for dop in [1, 2, 4] {
            let run = par_hash_join(&SimWorkers::new(&spec, dop), &uk, &vk, 4, dop, PER_OP);
            let mut got = run.out.clone();
            got.sort_unstable();
            assert_eq!(got, (0..3_000).collect::<Vec<u64>>(), "dop {dop}");
        }
        // Partial matches too.
        let uk = wl.uniform_keys_bounded(1_000, 300);
        let vk = wl.uniform_keys_bounded(400, 300);
        let par = par_hash_join(&SimWorkers::new(&spec, 4), &uk, &vk, 4, 4, PER_OP);
        let mut got = par.out.clone();
        got.sort_unstable();
        let mut want = Vec::new();
        for &k in &uk {
            for &v in &vk {
                if k == v {
                    want.push(k);
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn skewed_keys_produce_a_straggler() {
        // Zipf-skewed probe keys: the hash spreads *distinct* keys
        // evenly, so partition skew comes from duplicate hot keys — a
        // handful of head keys carry most probes, and the worker owning
        // their clusters dominates the wall clock.
        let spec = presets::tiny_smp(4);
        let mut wl = Workload::new(95);
        let uk = wl.zipf_keys(32_768, 4_096, 1.8);
        let vk = wl.shuffled_keys(4_096);
        let run = par_hash_join(&SimWorkers::new(&spec, 4), &uk, &vk, 4, 4, PER_OP);
        let max = run.thread_ns.iter().copied().fold(0.0, f64::max);
        let min = run.thread_ns.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max > 1.5 * min,
            "skew must imbalance workers: {:?}",
            run.thread_ns
        );
        // Balanced (uniform, distinct) keys stay near-even.
        let (uu, vv) = wl.join_pair(16_384);
        let even = par_hash_join(&SimWorkers::new(&spec, 4), &uu, &vv, 4, 4, PER_OP);
        let emax = even.thread_ns.iter().copied().fold(0.0, f64::max);
        let emin = even.thread_ns.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(emax < 1.3 * emin, "uniform keys: {:?}", even.thread_ns);
    }

    #[test]
    fn predicted_wall_tracks_measured_wall_for_the_join() {
        // The ⊙-composed model prediction and the thread-view simulator
        // measurement must agree on the parallel join's elapsed time
        // within the usual model-vs-sim tolerance.
        let spec = presets::tiny_smp(4);
        let model = CostModel::new(spec.clone());
        let mut wl = Workload::new(96);
        let (uk, vk) = wl.join_pair(16_384);
        for dop in [1usize, 2, 4] {
            let run = par_hash_join(&SimWorkers::new(&spec, dop), &uk, &vk, 4, dop, PER_OP);
            let u = Region::new("U", uk.len() as u64, 8);
            let v = Region::new("V", vk.len() as u64, 8);
            let w = Region::new("W", uk.len() as u64, 16);
            let up = Region::new("Up", uk.len() as u64, 8);
            let vp = Region::new("Vp", vk.len() as u64, 8);
            let threads = par_hash_join_patterns(&u, &v, &w, &up, &vp, 16, dop as u64);
            let par = model.advance_parallel(&threads, &mut model.staged(&CacheState::cold()));
            let predicted = par.wall_ns + PER_OP * run.ops as f64 / dop as f64;
            let ratio = predicted / run.wall_ns;
            assert!(
                (0.4..2.5).contains(&ratio),
                "dop {dop}: predicted {predicted:.0} vs measured {:.0} (ratio {ratio:.2})",
                run.wall_ns
            );
        }
    }

    #[test]
    fn native_parallel_operators_match_sim_results() {
        // The same parallel stages on real host memory: genuine
        // concurrent threads over native buffers must produce exactly
        // the results of the simulated run (only timing differs).
        let spec = presets::tiny_smp(4);
        let keys = Workload::new(97).zipf_keys(4_000, 300, 1.0);
        for dop in [1, 2, 4] {
            let sim = par_filter_lt(&SimWorkers::new(&spec, dop), &keys, 150, dop, PER_OP);
            let native = par_filter_lt(&NativeWorkers, &keys, 150, dop, 0.0);
            assert_eq!(sim.out, native.out, "filter dop {dop}");
            assert!(native.wall_ns > 0.0, "wall clock must advance");
            assert_eq!(native.thread_ns.len(), dop);

            let sim_g = par_group_count(&SimWorkers::new(&spec, dop), &keys, dop, PER_OP);
            let native_g = par_group_count(&NativeWorkers, &keys, dop, 0.0);
            let sort = |mut v: Vec<(u64, u64)>| {
                v.sort_unstable();
                v
            };
            assert_eq!(sort(sim_g.out), sort(native_g.out), "group dop {dop}");
        }
        let mut wl = Workload::new(98);
        let (uk, vk) = wl.join_pair(2_000);
        for dop in [1, 2, 4] {
            let sim = par_hash_join(&SimWorkers::new(&spec, dop), &uk, &vk, 4, dop, PER_OP);
            let native = par_hash_join(&NativeWorkers, &uk, &vk, 4, dop, 0.0);
            let sort = |mut v: Vec<u64>| {
                v.sort_unstable();
                v
            };
            assert_eq!(sort(sim.out), sort(native.out), "join dop {dop}");
            assert_eq!(native.ops, sim.ops, "identical logical work");
        }
    }

    #[test]
    fn pattern_builders_shapes() {
        let u = Region::new("U", 1_000, 8);
        let w = Region::new("W", 500, 8);
        assert_eq!(par_select_patterns(&u, &w, 4).len(), 4);
        let (threads, merge) = par_group_patterns(&u, 100, &w, 4);
        assert_eq!(threads.len(), 4);
        assert!(!merge.is_empty());
        // dop = 1: no merge stage.
        let (one, merge1) = par_group_patterns(&u, 100, &w, 1);
        assert_eq!(one.len(), 1);
        assert!(merge1.is_empty());
        let up = Region::new("Up", 1_000, 8);
        let vp = Region::new("Vp", 1_000, 8);
        let v = Region::new("V", 1_000, 8);
        let joins = par_hash_join_patterns(&u, &v, &w, &up, &vp, 8, 4);
        assert_eq!(joins.len(), 4);
        for t in &joins {
            let s = t.to_string();
            assert!(s.contains("nest(Up, 8"), "{s}");
            assert!(s.contains("r_acc(H"), "{s}");
        }
    }
}
