//! Property-based correctness tests for the engine's operators:
//! whatever the (randomised) input, the operators over simulated memory
//! must agree with reference implementations over plain vectors.

use gcm_engine::{ops, ExecContext};
use gcm_hardware::presets;
use proptest::prelude::*;
use std::collections::HashMap;

fn ctx() -> ExecContext {
    ExecContext::new(presets::tiny())
}

fn keys_of(c: &ExecContext, rel: &gcm_engine::Relation) -> Vec<u64> {
    (0..rel.n())
        .map(|i| c.mem.host().read_u64(rel.tuple(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quicksort_equals_std_sort(
        mut keys in proptest::collection::vec(0u64..1000, 1..400),
        w in prop_oneof![Just(8u64), Just(16), Just(32)],
    ) {
        let mut c = ctx();
        let rel = c.relation_from_keys("U", &keys, w);
        ops::sort::quick_sort(&mut c, &rel);
        keys.sort_unstable();
        prop_assert_eq!(keys_of(&c, &rel), keys);
    }

    #[test]
    fn hash_join_equals_reference(
        uk in proptest::collection::vec(0u64..64, 0..150),
        vk in proptest::collection::vec(0u64..64, 0..150),
    ) {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8);
        let out = ops::hash::hash_join(&mut c, &u, &v, "W", 16);
        // Reference: multiset join count per key.
        let mut vcount: HashMap<u64, u64> = HashMap::new();
        for &k in &vk {
            *vcount.entry(k).or_insert(0) += 1;
        }
        let expect: u64 = uk.iter().map(|k| vcount.get(k).copied().unwrap_or(0)).sum();
        prop_assert_eq!(out.n(), expect);
        // Every output key occurs in both inputs.
        for k in keys_of(&c, &out) {
            prop_assert!(uk.contains(&k) && vk.contains(&k));
        }
    }

    #[test]
    fn merge_join_matches_hash_join(
        mut uk in proptest::collection::vec(0u64..50, 0..120),
        mut vk in proptest::collection::vec(0u64..50, 0..120),
    ) {
        let mut c = ctx();
        let u1 = c.relation_from_keys("U1", &uk, 8);
        let v1 = c.relation_from_keys("V1", &vk, 8);
        let hj = ops::hash::hash_join(&mut c, &u1, &v1, "Wh", 16);
        uk.sort_unstable();
        vk.sort_unstable();
        let u2 = c.relation_from_keys("U2", &uk, 8);
        let v2 = c.relation_from_keys("V2", &vk, 8);
        let mj = ops::merge_join::merge_join(&mut c, &u2, &v2, "Wm", 16);
        prop_assert_eq!(hj.n(), mj.n());
        let mut a = keys_of(&c, &hj);
        let mut b = keys_of(&c, &mj);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn partition_preserves_multiset_any_fanout(
        keys in proptest::collection::vec(0u64..10_000, 1..300),
        bits in 0u32..=6,
    ) {
        let mut c = ctx();
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = ops::partition::radix_partition(&mut c, &input, bits, 1, "W");
        prop_assert_eq!(parts.m(), 1 << bits);
        let mut got = keys_of(&c, &parts.rel);
        let mut expect = keys.clone();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        // Boundaries are monotone and complete.
        prop_assert!(parts.offsets.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*parts.offsets.last().unwrap(), keys.len() as u64);
    }

    #[test]
    fn radix_equals_single_level_refinement(
        keys in proptest::collection::vec(0u64..100_000, 1..300),
        bits in 0u32..=6,
        passes in 1u32..4,
    ) {
        // Any pass count yields the same cluster contents.
        let mut c = ctx();
        let input = c.relation_from_keys("U", &keys, 8);
        let passes = passes.min(bits.max(1));
        let multi = ops::partition::radix_partition(&mut c, &input, bits, passes, "R");
        let input2 = c.relation_from_keys("U2", &keys, 8);
        let single = ops::partition::radix_partition(&mut c, &input2, bits, 1, "S");
        prop_assert_eq!(&multi.offsets, &single.offsets);
        prop_assert_eq!(keys_of(&c, &multi.rel), keys_of(&c, &single.rel));
    }

    #[test]
    fn part_hash_join_equals_hash_join(
        uk in proptest::collection::vec(0u64..64, 0..100),
        vk in proptest::collection::vec(0u64..64, 0..100),
        bits in 0u32..3,
    ) {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8);
        let plain = ops::hash::hash_join(&mut c, &u, &v, "Wp", 16);
        let parted = ops::part_hash_join::part_hash_join(&mut c, &u, &v, bits, "Wq", 16);
        prop_assert_eq!(plain.n(), parted.n());
        let mut a = keys_of(&c, &plain);
        let mut b = keys_of(&c, &parted);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn group_count_totals_match_input(
        keys in proptest::collection::vec(0u64..30, 1..250),
    ) {
        let mut c = ctx();
        let input = c.relation_from_keys("U", &keys, 8);
        let out = ops::aggregate::hash_group_count(&mut c, &input, "G");
        let total: u64 = (0..out.n()).map(|i| c.mem.host().read_u64(out.tuple(i) + 8)).sum();
        prop_assert_eq!(total, keys.len() as u64);
        // Group count equals distinct keys.
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        prop_assert_eq!(out.n(), distinct.len() as u64);
    }

    #[test]
    fn btree_agrees_with_binary_search(
        mut keys in proptest::collection::vec(0u64..100_000, 2..300),
        probes in proptest::collection::vec(0u64..100_000, 1..50),
        node_w in prop_oneof![Just(16u64), Just(32), Just(64)],
    ) {
        keys.sort_unstable();
        keys.dedup();
        let mut c = ctx();
        let tree = ops::btree::BTree::build(&mut c, &keys, node_w, "T");
        for p in probes {
            let expect = keys.binary_search(&p).is_ok();
            prop_assert_eq!(tree.lookup(&mut c, p), expect, "key {}", p);
        }
    }
}

/// Group-count's table is sized by an exact distinct count that takes a
/// bitmap over dense key spans (`max − min ≤ 64·n`) and a hash set over
/// sparse ones. Both must agree with `std`'s `HashSet` everywhere; the
/// benchmark's workloads are all dense, so these cases are the only
/// coverage of the hash-set path.
mod distinct_count {
    use super::*;
    use ops::aggregate::{distinct_count, BITMAP_SPAN_PER_KEY};
    use std::collections::HashSet;

    fn counted(keys: &[u64]) -> u64 {
        distinct_count(keys.iter().copied())
    }

    fn reference(keys: &[u64]) -> u64 {
        keys.iter().collect::<HashSet<_>>().len() as u64
    }

    /// `n` keys spanning exactly `span`: both ends present, the rest
    /// drawn from `fill` folded into the span.
    fn spanning(base: u64, span: u64, fill: &[u64]) -> Vec<u64> {
        let mut keys = vec![base + span, base];
        keys.extend(fill.iter().map(|f| base + f % (span + 1)));
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dense_keys_match_a_hash_set(
            base in 0u64..u64::MAX / 2,
            offsets in proptest::collection::vec(0u64..4_096, 64..400),
        ) {
            let keys: Vec<u64> = offsets.iter().map(|o| base + o).collect();
            prop_assert_eq!(counted(&keys), reference(&keys));
        }

        #[test]
        fn sparse_keys_match_a_hash_set(
            pool in proptest::collection::vec(0u64..u64::MAX - 1, 2..60),
            picks in proptest::collection::vec(0usize..60, 1..400),
        ) {
            let keys: Vec<u64> = picks.iter().map(|p| pool[p % pool.len()]).collect();
            prop_assert_eq!(counted(&keys), reference(&keys));
        }

        #[test]
        fn spans_at_and_past_the_threshold_match_a_hash_set(
            base in 0u64..u64::MAX / 2,
            fill in proptest::collection::vec(0u64..u64::MAX, 0..300),
        ) {
            let n = fill.len() as u64 + 2;
            for span in [BITMAP_SPAN_PER_KEY * n, BITMAP_SPAN_PER_KEY * n + 1] {
                let keys = spanning(base, span, &fill);
                prop_assert_eq!(counted(&keys), reference(&keys), "span {}", span);
            }
        }

        #[test]
        fn sparse_group_counts_match_a_reference(
            pool in proptest::collection::vec(0u64..u64::MAX - 1, 2..40),
            picks in proptest::collection::vec(0usize..40, 1..250),
        ) {
            let keys: Vec<u64> = picks.iter().map(|p| pool[p % pool.len()]).collect();
            let mut want: HashMap<u64, u64> = HashMap::new();
            for &k in &keys {
                *want.entry(k).or_default() += 1;
            }
            let mut c = ctx();
            let input = c.relation_from_keys("U", &keys, 8);
            let out = ops::aggregate::hash_group_count(&mut c, &input, "G");
            let got: HashMap<u64, u64> = (0..out.n())
                .map(|i| {
                    let at = out.tuple(i);
                    (c.mem.host().read_u64(at), c.mem.host().read_u64(at + 8))
                })
                .collect();
            prop_assert_eq!(out.n(), want.len() as u64);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn extreme_keys_and_tiny_inputs() {
        let (lo, hi) = (0, u64::MAX - 1);
        assert_eq!(counted(&[]), 0);
        assert_eq!(counted(&[lo]), 1);
        assert_eq!(counted(&[hi]), 1);
        assert_eq!(counted(&[lo, hi]), 2);
        assert_eq!(counted(&[hi, lo, hi, 5, lo, hi - 1]), 4);
        // The top of the key space inside a dense span.
        assert_eq!(counted(&[hi, hi - 3, hi - 64, hi - 3]), 3);
    }
}
