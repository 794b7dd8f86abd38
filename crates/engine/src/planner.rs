//! A cost-based planner on top of the generic model — the paper's
//! motivating use-case (§1): "the query optimizer uses this information
//! to choose the most suitable algorithm and/or implementation for each
//! operator".
//!
//! The planner enumerates join algorithms (and partitioning fan-outs),
//! prices each via its pattern description and Eq 6.1, and ranks them.
//! It is also the *per-node costing engine* of the whole-plan optimizer
//! ([`crate::plan::Optimizer`]): [`join_candidates`] yields each
//! algorithm's pattern description and logical-op estimate, which the
//! optimizer composes across a whole plan tree with `⊕` before pricing.

use crate::ops;
use gcm_core::{CostModel, CpuCost, Pattern, Region};
use std::fmt;

/// A candidate join algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAlgorithm {
    /// Scan the inner input once per outer tuple.
    NestedLoop,
    /// Merge-join; `sort_u`/`sort_v` record whether an input must be
    /// sorted first (quick-sort cost is added).
    Merge { sort_u: bool, sort_v: bool },
    /// Build a hash table on the inner input, probe with the outer.
    Hash,
    /// Radix-partition both inputs `m = 2^bits` ways in one pass, then
    /// hash-join partition pairs.
    PartitionedHash { bits: u32 },
}

impl fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinAlgorithm::NestedLoop => write!(f, "nested-loop join"),
            JoinAlgorithm::Merge { sort_u, sort_v } => {
                write!(f, "merge join")?;
                match (sort_u, sort_v) {
                    (false, false) => Ok(()),
                    (true, false) => write!(f, " (sort outer)"),
                    (false, true) => write!(f, " (sort inner)"),
                    (true, true) => write!(f, " (sort both)"),
                }
            }
            JoinAlgorithm::Hash => write!(f, "hash join"),
            JoinAlgorithm::PartitionedHash { bits } => {
                write!(f, "partitioned hash join (m = {})", 1u64 << bits)
            }
        }
    }
}

/// One priced plan alternative.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The algorithm.
    pub algorithm: JoinAlgorithm,
    /// Predicted memory time (Eq 3.1), ns.
    pub mem_ns: f64,
    /// Predicted CPU time, ns.
    pub cpu_ns: f64,
}

impl PlanChoice {
    /// Predicted total time (Eq 6.1), ns.
    pub fn total_ns(&self) -> f64 {
        self.mem_ns + self.cpu_ns
    }
}

/// Join statistics the planner needs: input cardinalities/widths and
/// whether the inputs arrive sorted (the logical cost component, which
/// the paper assumes a perfect oracle for, §1).
#[derive(Debug, Clone)]
pub struct JoinInputs {
    /// Outer input.
    pub u: Region,
    /// Inner input.
    pub v: Region,
    /// Output tuple width.
    pub out_w: u64,
    /// Expected output cardinality.
    pub out_n: u64,
    /// Outer input already sorted on the join key?
    pub u_sorted: bool,
    /// Inner input already sorted?
    pub v_sorted: bool,
}

/// One join algorithm's physical description: its access pattern over
/// the given input/output regions plus its logical-operation estimate.
/// This is the per-node currency the whole-plan optimizer composes.
#[derive(Debug, Clone)]
pub struct JoinCandidate {
    /// The algorithm.
    pub algorithm: JoinAlgorithm,
    /// The node's compound access pattern (sorts included for merge).
    pub pattern: Pattern,
    /// Estimated logical CPU operations (Eq 6.1's `T_cpu` input).
    pub ops: u64,
}

/// Enumerate every candidate join algorithm for the inputs, writing the
/// given output region `w` (pass the region the *consumer* of this join
/// will read, so whole-plan costing sees the producer/consumer reuse of
/// Eq 5.2).
pub fn join_candidates(model: &CostModel, inputs: &JoinInputs, w: &Region) -> Vec<JoinCandidate> {
    let u = &inputs.u;
    let v = &inputs.v;
    let mut out = Vec::new();

    // Nested loop.
    out.push(JoinCandidate {
        algorithm: JoinAlgorithm::NestedLoop,
        pattern: ops::nl_join::nested_loop_join_pattern(u, v, w),
        ops: u.n.saturating_mul(v.n),
    });

    // Merge (with sorts as needed).
    {
        let mut phases = Vec::new();
        let mut ops_count = 2 * (u.n + v.n) + inputs.out_n;
        if !inputs.u_sorted {
            phases.push(gcm_core::library::quick_sort(u.clone()));
            ops_count += ops::sort::quick_sort_expected_ops(u.n);
        }
        if !inputs.v_sorted {
            phases.push(gcm_core::library::quick_sort(v.clone()));
            ops_count += ops::sort::quick_sort_expected_ops(v.n);
        }
        phases.push(ops::merge_join::merge_join_pattern(u, v, w));
        out.push(JoinCandidate {
            algorithm: JoinAlgorithm::Merge {
                sort_u: !inputs.u_sorted,
                sort_v: !inputs.v_sorted,
            },
            pattern: Pattern::seq(phases),
            ops: ops_count,
        });
    }

    // Plain hash.
    {
        let h = Region::new("H", ops::hash::table_slots(v.n), ops::hash::ENTRY_BYTES);
        out.push(JoinCandidate {
            algorithm: JoinAlgorithm::Hash,
            pattern: ops::hash::hash_join_pattern(u, v, &h, w),
            // Build share + probe share: kept in sync with the shared-
            // build CPU adjustment through `ops::hash::build_ops`.
            ops: ops::hash::build_ops(v.n) + 4 * u.n + inputs.out_n,
        });
    }

    // Partitioned hash at candidate fan-outs: one per cache level (the
    // smallest m that makes a partition's hash table fit that level).
    for lvl in model.spec().data_caches() {
        let table_bytes = ops::hash::table_slots(v.n) * ops::hash::ENTRY_BYTES;
        let Some(bits) = fitting_fanout(model, table_bytes, lvl) else {
            continue;
        };
        if out
            .iter()
            .any(|c| c.algorithm == (JoinAlgorithm::PartitionedHash { bits }))
        {
            // Two levels clamped to the same fan-out: one candidate.
            continue;
        }
        let up = Region::new("Up", u.n, u.w);
        let vp = Region::new("Vp", v.n, v.w);
        out.push(JoinCandidate {
            algorithm: JoinAlgorithm::PartitionedHash { bits },
            pattern: ops::part_hash_join::part_hash_join_pattern(u, v, w, bits, &up, &vp),
            ops: 2 * (u.n + v.n) + 4 * v.n + 4 * u.n + inputs.out_n,
        });
    }

    out
}

/// The radix bits of the smallest fan-out `2^bits` that makes one
/// `bytes`-sized chunk of data fit cache level `lvl`, clamped to at most
/// the smallest level's line count — past that the partitioning itself
/// thrashes, the Figure 7d cliff (use multi-pass radix clustering
/// beyond; see [`crate::ops::partition`]). `None` when the data already
/// fits (fan-out below 2), i.e. partitioning buys nothing at this level.
pub fn fitting_fanout(
    model: &CostModel,
    bytes: u64,
    lvl: &gcm_hardware::CacheLevel,
) -> Option<u32> {
    let min_lines = model
        .spec()
        .levels()
        .iter()
        .map(gcm_hardware::CacheLevel::lines)
        .min()
        .unwrap_or(64)
        .max(2);
    let bits = bytes
        .div_ceil(lvl.capacity.max(1))
        .max(1)
        .next_power_of_two()
        .ilog2()
        .min(min_lines.ilog2());
    (bits >= 1).then_some(bits)
}

/// Price all candidate join algorithms in isolation (cold caches) under
/// the given CPU calibration, cheapest first.
pub fn rank_joins_with(model: &CostModel, inputs: &JoinInputs, cpu: CpuCost) -> Vec<PlanChoice> {
    let w = Region::new("W", inputs.out_n, inputs.out_w);
    let mut choices: Vec<PlanChoice> = join_candidates(model, inputs, &w)
        .into_iter()
        .map(|c| PlanChoice {
            algorithm: c.algorithm,
            mem_ns: model.mem_ns(&c.pattern),
            cpu_ns: cpu.ns(c.ops),
        })
        .collect();
    choices.sort_by(|a, b| a.total_ns().total_cmp(&b.total_ns()));
    choices.dedup_by(|a, b| a.algorithm == b.algorithm);
    choices
}

/// [`rank_joins_with`] under the default per-op CPU calibration.
pub fn rank_joins(model: &CostModel, inputs: &JoinInputs) -> Vec<PlanChoice> {
    rank_joins_with(model, inputs, CpuCost::default_planner())
}

/// Price a single-pass partitioning sweep over fan-outs `2^bits` and
/// return `(bits, predicted_ns)` pairs, cheapest-per-tuple fan-outs
/// first — the partition-tuning use-case of Figure 7d.
pub fn rank_partition_fanouts(
    model: &CostModel,
    input: &Region,
    candidates: &[u32],
) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = candidates
        .iter()
        .map(|&bits| {
            let w = Region::new("W", input.n, input.w);
            let p = ops::partition::radix_partition_pattern(input, &w, bits, 1);
            (bits, model.mem_ns(&p))
        })
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn model() -> CostModel {
        CostModel::new(presets::origin2000())
    }

    fn inputs(n: u64, sorted: bool) -> JoinInputs {
        JoinInputs {
            u: Region::new("U", n, 8),
            v: Region::new("V", n, 8),
            out_w: 16,
            out_n: n,
            u_sorted: sorted,
            v_sorted: sorted,
        }
    }

    #[test]
    fn sorted_inputs_pick_merge() {
        let ranked = rank_joins(&model(), &inputs(1_000_000, true));
        let choice = ranked.first().expect("candidates exist");
        assert!(matches!(
            choice.algorithm,
            JoinAlgorithm::Merge {
                sort_u: false,
                sort_v: false
            }
        ));
    }

    #[test]
    fn big_unsorted_inputs_prefer_partitioned_over_plain_hash() {
        // On the Origin2000, hashing a table beyond the 1 MB TLB reach is
        // TLB-bound; single-pass partitioning (fan-out capped below the
        // TLB entry count) recovers part of that, and the sequential-
        // access sort+merge pipeline wins outright — the memory-access
        // economics that motivated the radix-cluster line of work
        // ([MBK00a]; see ops::partition for the multi-pass answer).
        let ranked = rank_joins(&model(), &inputs(4_000_000, false));
        assert!(
            matches!(ranked[0].algorithm, JoinAlgorithm::Merge { .. }),
            "picked {}",
            ranked[0].algorithm
        );
        let pos = |pred: fn(&JoinAlgorithm) -> bool| {
            ranked.iter().position(|c| pred(&c.algorithm)).unwrap()
        };
        let part = pos(|a| matches!(a, JoinAlgorithm::PartitionedHash { .. }));
        let hash = pos(|a| matches!(a, JoinAlgorithm::Hash));
        assert!(part < hash, "partitioned must rank above plain hash");
    }

    #[test]
    fn tlb_fitting_table_picks_plain_hash() {
        // H = 1 MB = the TLB reach: hashing stays cheap and beats paying
        // two sorts.
        let ranked = rank_joins(&model(), &inputs(30_000, false));
        let choice = ranked.first().expect("candidates exist");
        assert!(
            matches!(choice.algorithm, JoinAlgorithm::Hash),
            "picked {}",
            choice.algorithm
        );
    }

    #[test]
    fn nested_loop_never_wins_at_scale() {
        {
            let ranked = rank_joins(&model(), &inputs(100_000, false));
            let last = ranked.last().unwrap();
            assert!(matches!(last.algorithm, JoinAlgorithm::NestedLoop));
        }
    }

    #[test]
    fn fanout_ranking_avoids_the_cliff() {
        let m = model();
        let input = Region::new("U", 2_000_000, 8);
        let ranked = rank_partition_fanouts(&m, &input, &[1, 4, 6, 9, 12, 16, 20]);
        // The cheapest fan-outs stay within the TLB entry count (64).
        let (best_bits, _) = ranked[0];
        assert!(
            best_bits <= 6,
            "best fan-out 2^{best_bits} should dodge the TLB cliff"
        );
        // The most expensive candidate is far past every cliff.
        let (worst_bits, worst_ns) = *ranked.last().unwrap();
        assert!(worst_bits >= 16);
        assert!(worst_ns > 2.0 * ranked[0].1);
    }

    #[test]
    fn candidates_carry_patterns_and_ops() {
        let m = model();
        let ins = inputs(10_000, false);
        let w = Region::new("W", ins.out_n, ins.out_w);
        let cands = join_candidates(&m, &ins, &w);
        assert!(cands.len() >= 4, "NL, merge, hash, ≥1 partitioned");
        for c in &cands {
            assert!(c.ops > 0, "{} has no op estimate", c.algorithm);
            assert!(m.mem_ns(&c.pattern) > 0.0, "{} has no pattern", c.algorithm);
        }
        // The merge candidate's pattern includes the two sorts.
        let merge = cands
            .iter()
            .find(|c| matches!(c.algorithm, JoinAlgorithm::Merge { .. }))
            .unwrap();
        assert!(matches!(
            merge.algorithm,
            JoinAlgorithm::Merge {
                sort_u: true,
                sort_v: true
            }
        ));
    }

    #[test]
    fn clamped_fanouts_produce_one_candidate() {
        // On the tiny machine both data caches clamp to the TLB's 8
        // lines for a big build side: only one PartitionedHash survives.
        let m = CostModel::new(presets::tiny());
        let ins = inputs(4096, false);
        let w = Region::new("W", ins.out_n, ins.out_w);
        let cands = join_candidates(&m, &ins, &w);
        let part: Vec<_> = cands
            .iter()
            .filter(|c| matches!(c.algorithm, JoinAlgorithm::PartitionedHash { .. }))
            .collect();
        assert_eq!(part.len(), 1, "duplicate fan-outs must dedup");
        assert_eq!(
            part[0].algorithm,
            JoinAlgorithm::PartitionedHash { bits: 3 }
        );
    }

    #[test]
    fn cpu_calibration_is_threaded() {
        // A 100× per-op cost must flow into the ranking: CPU-heavy
        // algorithms (sorts) get penalised relative to the default.
        let m = model();
        let ins = inputs(100_000, false);
        let default = rank_joins(&m, &ins);
        let slow_cpu = rank_joins_with(&m, &ins, CpuCost::per_op(400.0));
        let merge_cpu = |ranked: &[PlanChoice]| {
            ranked
                .iter()
                .find(|c| matches!(c.algorithm, JoinAlgorithm::Merge { .. }))
                .unwrap()
                .cpu_ns
        };
        assert!((merge_cpu(&slow_cpu) / merge_cpu(&default) - 100.0).abs() < 1e-6);
        // The default entry point matches the explicit default calibration.
        let explicit = rank_joins_with(&m, &ins, CpuCost::default_planner());
        assert_eq!(default.len(), explicit.len());
        for (a, b) in default.iter().zip(&explicit) {
            assert_eq!(a.algorithm, b.algorithm);
            assert!((a.total_ns() - b.total_ns()).abs() < 1e-9);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(JoinAlgorithm::Hash.to_string(), "hash join");
        assert_eq!(
            JoinAlgorithm::Merge {
                sort_u: true,
                sort_v: false
            }
            .to_string(),
            "merge join (sort outer)"
        );
        assert_eq!(
            JoinAlgorithm::PartitionedHash { bits: 3 }.to_string(),
            "partitioned hash join (m = 8)"
        );
    }
}
