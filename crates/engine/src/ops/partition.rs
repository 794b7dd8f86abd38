//! Partitioning (paper §6.2, Figure 7d) by `[MBK00a]`'s radix clustering.
//!
//! The input is read sequentially; each tuple is appended to one of `m`
//! output buffers. Within each buffer writes are sequential; the buffer
//! *order* follows the hash of the keys, i.e. is random. That is exactly
//! the interleaved multi-cursor pattern:
//!
//! ```text
//! partition(U, m) = s_trav(U) ⊙ nest(W, m, s_trav, rnd)
//! ```
//!
//! The famous result this reproduces: the cost cliffs each time `m`
//! exceeds a level's line/entry count (TLB entries, then L1 lines, then
//! L2 lines), because every open output line gets evicted between two
//! writes to the same buffer (`nest` with `m > #`, §4.7).
//!
//! Radix clustering is the answer to that cliff: it reaches a total
//! fan-out `2^bits` in `p` passes of fan-out `2^(bits/p)` each, so every
//! pass keeps its open-line working set below the cliffs, at the price
//! of re-reading the data once per pass. The cost model prices exactly
//! that trade-off, and one pass is the single-pass pattern above:
//!
//! ```text
//! radix(U, bits, p) = ⊕_{i=1}^{p} ( s_trav(U) ⊙ nest(W, 2^{bits/p}, s_trav, rnd) )
//! ```
//!
//! Cluster sizes are precomputed host-side (an exact-cardinality oracle;
//! MonetDB's radix cluster does a separate counting pass, which the
//! paper's §6.2 experiment models and measures without — we follow the
//! paper).

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::mix;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// A partitioned relation: one dense output region holding the `m`
/// buffers back to back.
#[derive(Debug)]
pub struct Partitioned {
    /// The output region (all buffers, contiguous).
    pub rel: Relation,
    /// Partition boundaries: buffer `j` spans
    /// `offsets[j] .. offsets[j+1]` (tuple indices), `m + 1` entries.
    pub offsets: Vec<u64>,
}

impl Partitioned {
    /// Number of partitions.
    pub fn m(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Partition `j` as a relation view (shares the output's region
    /// identity).
    pub fn part(&self, j: u64) -> Relation {
        let first = self.offsets[j as usize];
        let count = self.offsets[j as usize + 1] - first;
        self.rel.subrange(first, count)
    }
}

/// The radix "digit" of a key for a pass covering `bits` bits that start
/// `shift` bits below the top of the mixed key (always 0 for `bits = 0`,
/// one cluster). The top bits are independent from the low bits the
/// hash table uses, so partitioned hash-join sub-tables stay uniform.
#[inline]
fn digit(key: u64, shift: u32, bits: u32) -> u64 {
    (mix(key) << shift).checked_shr(64 - bits).unwrap_or(0)
}

/// Per-pass bit widths: `bits` split over `passes`, earlier passes
/// taking the larger share.
fn pass_bits(bits: u32, passes: u32) -> impl Iterator<Item = u32> {
    let (base, extra) = (bits / passes, bits % passes);
    (0..passes).map(move |p| base + u32::from(p < extra))
}

/// Radix-partition `input` into `2^bits` clusters using `passes` passes
/// of (roughly) equal per-pass fan-out; `bits = 0` is one cluster, an
/// order-preserving copy.
///
/// Returns the fully clustered output, named `out_name`; cluster `j`
/// holds the tuples whose top `bits` mixed-key bits equal `j`.
pub fn radix_partition<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    bits: u32,
    passes: u32,
    out_name: &str,
) -> Partitioned {
    assert!(bits <= 32, "at most 32 radix bits");
    assert!((1..=bits.max(1)).contains(&passes), "1..=bits passes");
    let (n, w) = (input.n(), input.w());

    // Each pass reads the previous pass's output (the first reads
    // `input`); cluster boundaries refine every pass.
    let mut src = input.clone();
    let mut bounds: Vec<u64> = vec![0, n];
    let mut done_bits = 0u32;
    let mut digits = vec![0u32; n as usize];
    for (p, pb) in pass_bits(bits, passes).enumerate() {
        let fanout = 1usize << pb;
        let out = if p + 1 == passes as usize {
            ctx.relation(out_name, n, w)
        } else {
            ctx.relation(&format!("{out_name}.p{p}"), n, w)
        };
        let mut new_bounds = Vec::with_capacity((bounds.len() - 1) * fanout + 1);
        new_bounds.push(0);
        // Each existing cluster is scattered over `fanout` sub-clusters
        // on its own: only `fanout` output cursors are ever open at
        // once — that is the whole trick.
        for cluster in bounds.windows(2) {
            let (lo, hi) = (cluster[0], cluster[1]);
            // Host-side counting pass (cardinality oracle); each tuple's
            // digit is remembered so the scatter need not re-hash.
            let mut counts = vec![0u64; fanout];
            for i in lo..hi {
                let d = digit(ctx.mem.host_read_u64(src.tuple(i)), done_bits, pb);
                digits[i as usize] = d as u32;
                counts[d as usize] += 1;
            }
            let mut cursors = Vec::with_capacity(fanout);
            let mut acc = lo;
            for cnt in counts {
                cursors.push(acc);
                acc += cnt;
                new_bounds.push(acc);
            }
            // One logical op per tuple (the digit decision); the scatter
            // routes through the backend's bulk entry point with cursors
            // absolute into the pass output, where the native kernel
            // issues an N-ahead write prefetch of the destination cursor
            // of the future tuple — the open-buffer stores are the nest()
            // pattern's random component (uncharged hint; the simulator
            // runs the reference loop with identical accounting).
            if hi > lo {
                ctx.count_ops(hi - lo);
                ctx.mem.partition_scatter_bulk(
                    src.tuple(lo),
                    hi - lo,
                    w,
                    out.tuple(0),
                    &digits[lo as usize..hi as usize],
                    &mut cursors,
                );
            }
        }
        bounds = new_bounds;
        done_bits += pb;
        src = out;
    }
    Partitioned {
        rel: src,
        offsets: bounds,
    }
}

/// Pattern of [`radix_partition`]: one `s_trav ⊙ nest` phase per pass,
/// each with only the per-pass fan-out open.
pub fn radix_partition_pattern(input: &Region, output: &Region, bits: u32, passes: u32) -> Pattern {
    let phases = pass_bits(bits, passes)
        .map(|pb| library::partition(input.clone(), output.clone(), 1u64 << pb))
        .collect();
    Pattern::seq(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    fn keys_of(c: &ExecContext, rel: &Relation) -> Vec<u64> {
        (0..rel.n())
            .map(|i| c.mem.host().read_u64(rel.tuple(i)))
            .collect()
    }

    #[test]
    fn partitions_preserve_multiset() {
        let mut c = ctx();
        let keys = Workload::new(8).shuffled_keys(1000);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = radix_partition(&mut c, &input, 3, 1, "W");
        assert_eq!(parts.m(), 8);
        assert_eq!(*parts.offsets.last().unwrap(), 1000);
        let mut got = keys_of(&c, &parts.rel);
        got.sort_unstable();
        assert_eq!(got, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn every_tuple_lands_in_its_bucket() {
        let mut c = ctx();
        let keys = Workload::new(9).shuffled_keys(500);
        let input = c.relation_from_keys("U", &keys, 8);
        let bits = 3;
        let parts = radix_partition(&mut c, &input, bits, 1, "W");
        for j in 0..parts.m() {
            for k in keys_of(&c, &parts.part(j)) {
                assert_eq!(digit(k, 0, bits), j);
            }
        }
    }

    #[test]
    fn clusters_are_digit_homogeneous() {
        let mut c = ctx();
        let keys = Workload::new(1).shuffled_keys(2000);
        let input = c.relation_from_keys("U", &keys, 8);
        let bits = 6;
        let parts = radix_partition(&mut c, &input, bits, 2, "R");
        assert_eq!(parts.m(), 64);
        for j in 0..parts.m() {
            for k in keys_of(&c, &parts.part(j)) {
                assert_eq!(digit(k, 0, bits), j, "tuple in wrong cluster");
            }
        }
    }

    #[test]
    fn multiset_preserved_across_passes() {
        let mut c = ctx();
        let keys = Workload::new(2).shuffled_keys(1500);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = radix_partition(&mut c, &input, 8, 3, "R");
        let mut got = keys_of(&c, &parts.rel);
        got.sort_unstable();
        assert_eq!(got, (0..1500).collect::<Vec<u64>>());
    }

    #[test]
    fn one_pass_matches_hash_partition_semantics() {
        // passes = 1 is the single-level partitioner: one cluster per
        // fan-out slot, every tuple accounted for.
        let mut c = ctx();
        let keys = Workload::new(3).shuffled_keys(500);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = radix_partition(&mut c, &input, 4, 1, "R");
        assert_eq!(parts.m(), 16);
        assert_eq!(*parts.offsets.last().unwrap(), 500);
    }

    #[test]
    fn single_partition_is_a_copy() {
        let mut c = ctx();
        let keys = vec![5, 3, 8, 1];
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = radix_partition(&mut c, &input, 0, 1, "W");
        assert_eq!(parts.offsets, vec![0, 4]);
        assert_eq!(keys_of(&c, &parts.rel), keys); // order preserved
    }

    #[test]
    fn buckets_are_reasonably_balanced() {
        let mut c = ctx();
        let keys = Workload::new(10).shuffled_keys(8000);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = radix_partition(&mut c, &input, 3, 1, "W");
        for j in 0..8 {
            let size = parts.part(j).n();
            assert!((700..1300).contains(&size), "bucket {j} has {size}");
        }
    }

    #[test]
    fn fanout_cliff_in_tlb_misses() {
        // tiny TLB: 8 entries. m = 4 keeps all open pages mapped; m = 64
        // thrashes the TLB — the Figure 7d effect.
        let tlb_misses = |bits: u32| {
            let mut c = ctx();
            let keys = Workload::new(11).shuffled_keys(16_384); // 128 KB
            let input = c.relation_from_keys("U", &keys, 8);
            c.cold_caches();
            let (_, stats) = c.measure(|c| {
                radix_partition(c, &input, bits, 1, "W");
            });
            let tlb = c.mem.spec().level_index("TLB").unwrap();
            stats.misses_at(tlb)
        };
        let low = tlb_misses(2);
        let high = tlb_misses(6);
        assert!(high > 3 * low, "TLB cliff: {low} -> {high}");
    }

    #[test]
    fn pattern_renders() {
        let u = Region::new("U", 100, 8);
        let w = Region::new("W", 100, 8);
        assert_eq!(
            radix_partition_pattern(&u, &w, 6, 1).to_string(),
            "s_trav(U) ⊙ nest(W, 64, s_trav, rnd)"
        );
    }

    #[test]
    fn pattern_renders_passes() {
        let u = Region::new("U", 1000, 8);
        let w = Region::new("W", 1000, 8);
        let s = radix_partition_pattern(&u, &w, 8, 2).to_string();
        assert_eq!(s.matches("nest").count(), 2);
        assert!(s.contains("nest(W, 16"));
    }

    #[test]
    fn empty_input() {
        let mut c = ctx();
        let input = c.relation("U", 0, 8);
        let parts = radix_partition(&mut c, &input, 2, 1, "W");
        assert_eq!(parts.m(), 4);
        assert_eq!(*parts.offsets.last().unwrap(), 0);
    }

    #[test]
    fn two_passes_beat_one_pass_past_the_cliff() {
        // tiny TLB: 8 entries; L1: 64 lines. A 4096-way single pass is
        // far past both cliffs; 2 passes of 64 stay under the L1 cliff.
        let run = |passes: u32| {
            let mut c = ctx();
            let keys = Workload::new(4).shuffled_keys(16_384);
            let input = c.relation_from_keys("U", &keys, 8);
            c.cold_caches();
            let (_, stats) = c.measure(|c| {
                radix_partition(c, &input, 12, passes, "R");
            });
            stats.mem.clock_ns
        };
        let single = run(1);
        let multi = run(2);
        assert!(
            multi < single,
            "2-pass radix must beat 1-pass 4096-way: {multi} vs {single}"
        );
    }

    #[test]
    fn model_prices_the_same_tradeoff() {
        // The pattern description reproduces the measured preference.
        let model = gcm_core::CostModel::new(presets::tiny());
        let u = Region::new("U", 16_384, 8);
        let w = Region::new("W", 16_384, 8);
        let single = model.mem_ns(&radix_partition_pattern(&u, &w, 12, 1));
        let multi = model.mem_ns(&radix_partition_pattern(&u, &w, 12, 2));
        assert!(multi < single, "model: {multi} vs {single}");
    }

    #[test]
    fn uneven_bit_split() {
        let mut c = ctx();
        let keys = Workload::new(5).shuffled_keys(400);
        let input = c.relation_from_keys("U", &keys, 8);
        // 7 bits over 2 passes: 4 + 3.
        let parts = radix_partition(&mut c, &input, 7, 2, "R");
        assert_eq!(parts.m(), 128);
    }
}
