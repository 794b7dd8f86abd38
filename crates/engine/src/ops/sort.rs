//! In-place quick-sort (paper §6.2, Figure 7a).
//!
//! The paper's formulation: two cursors start at the front and back of the
//! segment and sweep towards each other, swapping tuples; at the meeting
//! point the segment splits and recursion proceeds depth-first. One
//! recursion level sweeps the whole table once, and there are `⌈log₂ n⌉`
//! levels. Recursion depth `i` splits the table into `2^i` segments, each
//! swept by the two cursors over its halves, so
//! [`library::quick_sort`](gcm_core::library::quick_sort) prices
//!
//! ```text
//! quick_sort(U) = ⊕_{i=0}^{⌈log n⌉−1} 2^i × ( s_trav(U/2^{i+1}) ⊙ s_trav(U/2^{i+1}) )
//! ```
//!
//! where `k × P` repeats `P` `k` times in sequence and every segment
//! `U/2^{i+1}` is a slice of `U`, keeping its identity.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::Relation;

/// Sort the relation in place by key (Hoare partitioning with two
/// converging cursors, exactly the access pattern the paper models).
///
/// Logical ops: one per comparison and one per swap.
pub fn quick_sort<B: MemoryBackend>(ctx: &mut ExecContext<B>, rel: &Relation) {
    if rel.n() < 2 {
        return;
    }
    // Explicit stack of [lo, hi) segments (depth-first, like the paper).
    let mut stack: Vec<(u64, u64)> = vec![(0, rel.n())];
    while let Some((lo, hi)) = stack.pop() {
        let len = hi - lo;
        if len < 2 {
            continue;
        }
        // Median-of-three pivot (reads are simulated).
        let mid = lo + len / 2;
        let a = ctx.read_key(rel, lo);
        let b = ctx.read_key(rel, mid);
        let c = ctx.read_key(rel, hi - 1);
        ctx.count_ops(3);
        let pivot = median3(a, b, c);

        // Hoare partition: front and back cursors converge.
        let mut i = lo;
        let mut j = hi - 1;
        loop {
            loop {
                let k = ctx.read_key(rel, i);
                ctx.count_ops(1);
                if k >= pivot {
                    break;
                }
                i += 1;
            }
            loop {
                let k = ctx.read_key(rel, j);
                ctx.count_ops(1);
                if k <= pivot {
                    break;
                }
                j -= 1;
            }
            if i >= j {
                break;
            }
            ctx.swap_tuples(rel, i, j);
            ctx.count_ops(1);
            i += 1;
            if j == 0 {
                break;
            }
            j -= 1;
        }
        let split = j + 1;
        // Guard against degenerate splits (all-equal keys).
        if split > lo && split < hi {
            stack.push((lo, split));
            stack.push((split, hi));
        } else {
            // Fall back to splitting off the pivot position.
            let p = split.clamp(lo + 1, hi - 1);
            stack.push((lo, p));
            stack.push((p, hi));
        }
    }
}

/// Expected logical ops of quick-sort on `n` tuples: ~`n·log₂ n`
/// comparisons plus ~`n/2·log₂ n` swaps (used by the Eq 6.1 CPU
/// predictor).
pub fn quick_sort_expected_ops(n: u64) -> u64 {
    if n < 2 {
        return 0;
    }
    let logn = (n as f64).log2().ceil();
    (n as f64 * logn * 1.5) as u64
}

fn median3(a: u64, b: u64, c: u64) -> u64 {
    a.max(b).min(a.min(b).max(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_core::{library, Pattern};
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    fn is_sorted(c: &ExecContext, rel: &Relation) -> bool {
        (1..rel.n())
            .all(|i| c.mem.host().read_u64(rel.tuple(i - 1)) <= c.mem.host().read_u64(rel.tuple(i)))
    }

    #[test]
    fn sorts_shuffled_keys() {
        let mut c = ctx();
        let keys = Workload::new(1).shuffled_keys(1000);
        let rel = c.relation_from_keys("U", &keys, 8);
        quick_sort(&mut c, &rel);
        assert!(is_sorted(&c, &rel));
        // Permutation preserved: keys are exactly 0..n.
        for i in 0..1000 {
            assert_eq!(c.mem.host().read_u64(rel.tuple(i)), i);
        }
    }

    #[test]
    fn sorts_wide_tuples_with_payload() {
        let mut c = ctx();
        let keys = Workload::new(2).shuffled_keys(256);
        let rel = c.relation_from_keys("U", &keys, 32);
        // Tag each tuple's payload with its key for integrity checking.
        for i in 0..256 {
            let k = c.mem.host().read_u64(rel.tuple(i));
            c.mem.host_mut().write_u64(rel.tuple(i) + 8, k * 7 + 1);
        }
        quick_sort(&mut c, &rel);
        assert!(is_sorted(&c, &rel));
        for i in 0..256 {
            let k = c.mem.host().read_u64(rel.tuple(i));
            assert_eq!(c.mem.host().read_u64(rel.tuple(i) + 8), k * 7 + 1);
        }
    }

    #[test]
    fn handles_duplicates_and_presorted() {
        let mut c = ctx();
        let rel = c.relation_from_keys("U", &[3, 3, 3, 3, 3, 3, 3, 3], 8);
        quick_sort(&mut c, &rel);
        assert!(is_sorted(&c, &rel));
        let sorted: Vec<u64> = (0..128).collect();
        let rel2 = c.relation_from_keys("U2", &sorted, 8);
        quick_sort(&mut c, &rel2);
        assert!(is_sorted(&c, &rel2));
        let rev: Vec<u64> = (0..128).rev().collect();
        let rel3 = c.relation_from_keys("U3", &rev, 8);
        quick_sort(&mut c, &rel3);
        assert!(is_sorted(&c, &rel3));
    }

    #[test]
    fn tiny_inputs() {
        let mut c = ctx();
        let r0 = c.relation("E", 0, 8);
        quick_sort(&mut c, &r0); // no panic
        let r1 = c.relation_from_keys("S", &[9], 8);
        quick_sort(&mut c, &r1);
        assert_eq!(c.mem.host().read_u64(r1.tuple(0)), 9);
        let r2 = c.relation_from_keys("P", &[9, 1], 8);
        quick_sort(&mut c, &r2);
        assert!(is_sorted(&c, &r2));
    }

    #[test]
    fn op_count_is_n_log_n_ish() {
        let mut c = ctx();
        let keys = Workload::new(3).shuffled_keys(4096);
        let rel = c.relation_from_keys("U", &keys, 8);
        let (_, stats) = c.measure(|c| quick_sort(c, &rel));
        let n_log_n = 4096.0 * 12.0;
        assert!(
            (stats.ops as f64) > n_log_n && (stats.ops as f64) < 4.0 * n_log_n,
            "ops = {}",
            stats.ops
        );
    }

    #[test]
    fn in_cache_table_avoids_repeat_misses() {
        // Table ≪ L2: only the first pass misses in L2 (the Fig 7a step).
        let mut c = ctx();
        let keys = Workload::new(4).shuffled_keys(512); // 4 KB < 16 KB L2
        let rel = c.relation_from_keys("U", &keys, 8);
        let (_, stats) = c.measure(|c| quick_sort(c, &rel));
        let l2 = c.mem.spec().level_index("L2").unwrap();
        let compulsory = 4096 / 64; // ||U|| / B2
        assert!(
            stats.mem.levels[l2].seq_misses + stats.mem.levels[l2].rand_misses <= 2 * compulsory,
            "L2 misses should be ~compulsory only"
        );
    }

    #[test]
    fn pattern_depth_matches_log() {
        let mut c = ctx();
        let rel = c.relation("U", 1024, 8);
        match library::quick_sort(rel.region().clone()) {
            Pattern::Seq(ps) => assert_eq!(ps.len(), 10),
            _ => panic!("expected Seq"),
        }
        assert!(quick_sort_expected_ops(1024) > 10_000);
    }
}
