//! The paper's Table 2: access-pattern descriptions of typical database
//! algorithms, expressed in the pattern language.
//!
//! Each function takes the data regions an operator touches and returns
//! the compound [`Pattern`] describing its memory behaviour; the cost
//! function then falls out automatically via [`crate::CostModel`]. This is
//! the paper's central workflow: *describing* an algorithm is all that is
//! needed to *cost* it.

use crate::pattern::{Direction, GlobalOrder, LatencyClass, LocalPattern, Pattern};
use crate::region::Region;

/// `scan(U)`: one sequential sweep of the input.
pub fn scan(u: Region) -> Pattern {
    Pattern::s_trav(u)
}

/// `select(U) → W`: sweep the input, write qualifying tuples
/// sequentially. `w.n` encodes the selectivity.
pub fn select(u: Region, w: Region) -> Pattern {
    Pattern::conc(vec![Pattern::s_trav(u), Pattern::s_trav(w)])
}

/// `build_hash(V) → H`: sweep the inner input, hop randomly through the
/// hash-table region (paper §3.2: a good hash function destroys any
/// order, so the output cursor is modelled as random).
pub fn build_hash(v: Region, h: Region) -> Pattern {
    Pattern::conc(vec![Pattern::s_trav(v), Pattern::r_trav(h)])
}

/// `probe_hash(U, H) → W`: sweep the outer input, hit the hash table at
/// `U.n` random places, write matches sequentially.
pub fn probe_hash(u: Region, h: Region, w: Region) -> Pattern {
    let probes = u.n;
    Pattern::conc(vec![
        Pattern::s_trav(u),
        Pattern::r_acc(h, probes),
        Pattern::s_trav(w),
    ])
}

/// `hash_join(U, V) → W` with hash table `H` on `V`:
/// `(s_trav(V) ⊙ r_trav(H)) ⊕ (s_trav(U) ⊙ r_acc(H, U.n) ⊙ s_trav(W))`.
pub fn hash_join(u: Region, v: Region, h: Region, w: Region) -> Pattern {
    Pattern::seq(vec![build_hash(v, h.clone()), probe_hash(u, h, w)])
}

/// `merge_join(U, V) → W` over sorted inputs: three concurrent sequential
/// sweeps.
pub fn merge_join(u: Region, v: Region, w: Region) -> Pattern {
    Pattern::conc(vec![
        Pattern::s_trav(u),
        Pattern::s_trav(v),
        Pattern::s_trav(w),
    ])
}

/// `nested_loop_join(U, V) → W`: the outer input is swept once while the
/// inner input is swept `U.n` times (uni-directional in the textbook
/// formulation).
pub fn nested_loop_join(u: Region, v: Region, w: Region) -> Pattern {
    let k = u.n.max(1);
    Pattern::conc(vec![
        Pattern::s_trav(u),
        Pattern::rs_trav(v, k, Direction::Uni),
        Pattern::s_trav(w),
    ])
}

/// `quick_sort(U)` in place (paper §6.2): two concurrent sequential
/// cursors converge over each segment; the recursion proceeds
/// depth-first. Depth `i` sorts `2^i` segments of `U.n/2^i` items, so
/// one depth sweeps the whole table once and there are `⌈log₂ U.n⌉`
/// depths:
///
/// ```text
/// ⊕_{i=0}^{log n − 1}  2^i × ( s_trav(U/2^{i+1}) ⊙ s_trav(U/2^{i+1}) )
/// ```
///
/// The slices keep `U`'s identity, so the state rules of §5.1 yield the
/// Figure-7a step: depths whose segments fit a cache level cost nothing
/// at that level beyond the first touch.
pub fn quick_sort(u: Region) -> Pattern {
    let depth = if u.n <= 1 {
        1
    } else {
        (u.n as f64).log2().ceil() as u64
    };
    let passes = (0..depth)
        .map(|i| {
            let half = u.slice(1u64 << (i + 1).min(63));
            let pass = Pattern::conc(vec![Pattern::s_trav(half.clone()), Pattern::s_trav(half)]);
            Pattern::repeat(1u64 << i.min(63), pass)
        })
        .collect();
    Pattern::seq(passes)
}

/// `partition(U, m) → W`: sweep the input; the output region `W` (the
/// concatenation of the `m` partition buffers) is written through an
/// interleaved multi-cursor pattern whose global cursor is random for
/// hash partitioning (paper §3.2):
/// `s_trav(U) ⊙ nest(W, m, s_trav, rnd)`.
pub fn partition(u: Region, w: Region, m: u64) -> Pattern {
    let item = w.w;
    Pattern::conc(vec![
        Pattern::s_trav(u),
        Pattern::nest(
            w,
            m,
            LocalPattern::SeqTraversal {
                u: item,
                latency: LatencyClass::Sequential,
            },
            GlobalOrder::Random,
        ),
    ])
}

/// `partitioned_hash_join`: join the matching partitions pair-wise,
/// `⊕_j hash_join(U_j, V_j, H_j, W_j)` (paper §6.2). The inputs are the
/// per-partition regions; use [`partitioned_hash_join_uniform`] to derive
/// them from whole-table regions.
pub fn partitioned_hash_join(parts: Vec<(Region, Region, Region, Region)>) -> Pattern {
    Pattern::seq(
        parts
            .into_iter()
            .map(|(u_j, v_j, h_j, w_j)| hash_join(u_j, v_j, h_j, w_j))
            .collect(),
    )
}

/// Partitioned hash-join over `m` uniform partitions of `U ⋈ V → W`, with
/// hash-table entries of `h_entry_w` bytes. Builds the per-partition
/// regions (input/output slices share their parents' identity; each
/// partition's hash table is a fresh region) and delegates to
/// [`partitioned_hash_join`].
pub fn partitioned_hash_join_uniform(
    u: Region,
    v: Region,
    w: Region,
    m: u64,
    h_entry_w: u64,
) -> Pattern {
    assert!(m >= 1);
    let parts = (0..m)
        .map(|j| {
            (
                u.slice(m),
                v.slice(m),
                Region::new(format!("H{j}"), v.n / m, h_entry_w),
                w.slice(m),
            )
        })
        .collect();
    partitioned_hash_join(parts)
}

/// Sort-based aggregation / duplicate elimination: sort, then one sweep
/// producing the (smaller) output.
pub fn sort_aggregate(u: Region, w: Region) -> Pattern {
    Pattern::seq(vec![
        quick_sort(u.clone()),
        Pattern::conc(vec![Pattern::s_trav(u), Pattern::s_trav(w)]),
    ])
}

/// Hash-based aggregation / duplicate elimination: sweep the input while
/// updating a hash table of groups at `U.n` random places, then sweep the
/// table to emit results.
pub fn hash_aggregate(u: Region, h: Region, w: Region) -> Pattern {
    let probes = u.n;
    Pattern::seq(vec![
        Pattern::conc(vec![Pattern::s_trav(u), Pattern::r_acc(h.clone(), probes)]),
        Pattern::conc(vec![Pattern::s_trav(h), Pattern::s_trav(w)]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use gcm_hardware::presets;

    fn model() -> CostModel {
        CostModel::new(presets::tiny())
    }

    fn reg(name: &str, n: u64, w: u64) -> Region {
        Region::new(name, n, w)
    }

    #[test]
    fn table2_renderings() {
        let u = reg("U", 1000, 8);
        let v = reg("V", 1000, 8);
        let h = reg("H", 1000, 16);
        let w = reg("W", 1000, 8);
        assert_eq!(scan(u.clone()).to_string(), "s_trav(U)");
        assert_eq!(
            select(u.clone(), w.clone()).to_string(),
            "s_trav(U) ⊙ s_trav(W)"
        );
        assert_eq!(
            hash_join(u.clone(), v.clone(), h.clone(), w.clone()).to_string(),
            "s_trav(V) ⊙ r_trav(H) ⊕ s_trav(U) ⊙ r_acc(H, 1000) ⊙ s_trav(W)"
        );
        assert_eq!(
            merge_join(u.clone(), v, w.clone()).to_string(),
            "s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W)"
        );
        assert_eq!(
            partition(u, w, 64).to_string(),
            "s_trav(U) ⊙ nest(W, 64, s_trav, rnd)"
        );

        // The rest of Table 2, on a 1M-tuple workload.
        let n = 1_000_000;
        let u = reg("U", n, 8);
        let v = reg("V", n, 8);
        let h = reg("H", (2 * n).next_power_of_two(), 16);
        let w = reg("W", n, 8);
        let w16 = reg("W", n, 16);
        let sort = "s_trav(U) ⊙ s_trav(U) ⊕ 2 × (s_trav(U) ⊙ s_trav(U)) \
                    ⊕ 4 × (s_trav(U) ⊙ s_trav(U)) ⊕ 8 × (s_trav(U) ⊙ s_trav(U))";
        assert_eq!(
            build_hash(v.clone(), h).to_string(),
            "s_trav(V) ⊙ r_trav(H)"
        );
        assert_eq!(
            nested_loop_join(u.clone(), v.clone(), w16.clone()).to_string(),
            "s_trav(U) ⊙ rs_trav(1000000, uni, V) ⊙ s_trav(W)"
        );
        assert_eq!(quick_sort(reg("U", 16, 8)).to_string(), sort);
        let part = |j: u64| {
            format!("s_trav(V) ⊙ r_trav(H{j}) ⊕ s_trav(U) ⊙ r_acc(H{j}, 250000) ⊙ s_trav(W)")
        };
        assert_eq!(
            partitioned_hash_join_uniform(u.clone(), v, w16, 4, 16).to_string(),
            (0..4).map(part).collect::<Vec<_>>().join(" ⊕ ")
        );
        assert_eq!(
            hash_aggregate(u, reg("G", 1000, 16), w.clone()).to_string(),
            "s_trav(U) ⊙ r_acc(G, 1000000) ⊕ s_trav(G) ⊙ s_trav(W)"
        );
        assert_eq!(
            sort_aggregate(reg("U", 16, 8), w).to_string(),
            format!("{sort} ⊕ s_trav(U) ⊙ s_trav(W)")
        );
    }

    #[test]
    fn quick_sort_has_log_depth() {
        let u = reg("U", 1024, 8);
        match quick_sort(u) {
            Pattern::Seq(passes) => assert_eq!(passes.len(), 10),
            _ => panic!("expected Seq"),
        }
        // Tiny inputs still produce one pass.
        let one = quick_sort(reg("U1", 1, 8));
        assert!(one.is_basic() || matches!(one, Pattern::Conc(_)));
    }

    #[test]
    fn hash_join_cost_jumps_when_table_exceeds_cache() {
        let m = model(); // tiny: L2 = 16 KB
        let mk = |n: u64| {
            let u = reg("U", n, 8);
            let v = reg("V", n, 8);
            let h = reg("H", n, 16);
            let w = reg("W", n, 8);
            m.mem_ns(&hash_join(u, v, h, w)) / n as f64
        };
        let small = mk(512); // H = 8 KB, fits L2
        let large = mk(8192); // H = 128 KB, 8× L2
        assert!(
            large > 2.0 * small,
            "per-tuple cost must cliff: {small:.1} -> {large:.1}"
        );
    }

    #[test]
    fn merge_join_is_linear_in_input() {
        let m = model();
        let mk = |n: u64| m.mem_ns(&merge_join(reg("U", n, 8), reg("V", n, 8), reg("W", n, 8)));
        let c1 = mk(10_000);
        let c2 = mk(20_000);
        let ratio = c2 / c1;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn nested_loop_join_dwarfs_hash_join() {
        let m = model();
        let n = 4096;
        let nl = m.mem_ns(&nested_loop_join(
            reg("U", n, 8),
            reg("V", n, 8),
            reg("W", n, 8),
        ));
        let hj = m.mem_ns(&hash_join(
            reg("U", n, 8),
            reg("V", n, 8),
            reg("H", n, 16),
            reg("W", n, 8),
        ));
        assert!(nl > 20.0 * hj, "nested loop {nl} vs hash {hj}");
    }

    #[test]
    fn partitioned_hash_join_beats_plain_on_big_inputs() {
        // The paper's headline result (Fig 7e): once partitions fit the
        // cache, partitioned hash-join wins.
        let m = model();
        let n = 32_768; // H = 512 KB vs 16 KB L2
        let plain = m.mem_ns(&hash_join(
            reg("U", n, 8),
            reg("V", n, 8),
            reg("H", n, 16),
            reg("W", n, 8),
        ));
        let parts = 64; // per-partition H = 8 KB, fits L2
        let pj = m.mem_ns(&partitioned_hash_join_uniform(
            reg("U", n, 8),
            reg("V", n, 8),
            reg("W", n, 8),
            parts,
            16,
        ));
        assert!(pj < plain, "partitioned {pj} must beat plain {plain}");
    }

    #[test]
    fn partition_cost_cliffs_with_fanout() {
        let m = model(); // tiny L1: 64 lines; TLB: 8 pages
        let n = 32_768;
        let mk = |parts: u64| m.mem_ns(&partition(reg("U", n, 8), reg("W", n, 8), parts));
        let below = mk(4);
        let above = mk(4096);
        assert!(above > 3.0 * below, "fan-out cliff: {below} -> {above}");
    }

    #[test]
    fn aggregates_produce_costs() {
        let m = model();
        let u = reg("U", 10_000, 8);
        let h = reg("H", 100, 16);
        let w = reg("W", 100, 8);
        let hash = m.mem_ns(&hash_aggregate(u.clone(), h, w.clone()));
        let sort = m.mem_ns(&sort_aggregate(u, w));
        assert!(hash > 0.0 && sort > 0.0);
        // Few groups: the hash table stays cached, hashing beats sorting.
        assert!(hash < sort);
    }
}
