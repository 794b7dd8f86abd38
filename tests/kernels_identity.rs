//! Kernel-path identity and overlap-model ranking stability.
//!
//! Two invariants guard the kernel layer:
//!
//! 1. **Byte identity**: the vectorized/prefetched native kernels must
//!    be indistinguishable from the scalar reference path — identical
//!    result bytes, identical logical op counts, and identical charged
//!    access/line counters — across every operator and join algorithm.
//!    The kernels change *when* the work happens, never *what* work is
//!    charged; that is the contract that keeps Eq 3.1's miss accounting
//!    valid under the fast path.
//! 2. **Ranking stability**: the bandwidth-overlap extension of Eq 6.1
//!    degenerates exactly to the paper's additive total at `α = 1` with
//!    no sustained bandwidths (any workload, any machine), and on the
//!    pinned Table-1-style workloads below even full overlap (`α = 0`)
//!    leaves the optimizer's join ranking unchanged — turning the
//!    extension on cannot silently re-rank plans the experiments pinned.

use gcm_core::{CostModel, CpuCost, OverlapParams, Region};
use gcm_engine::plan::{execute, PhysicalPlan};
use gcm_engine::planner::{join_candidates, rank_joins_with, JoinAlgorithm, JoinInputs};
use gcm_engine::{ExecContext, NativeBackend, Relation};
use gcm_hardware::{presets, HardwareSpec};
use gcm_workload::Workload;
use proptest::prelude::*;

/// Run `plan` natively, returning result bytes, output cardinality,
/// logical ops, and the charged access/line counters.
fn run_native(
    mut ctx: ExecContext<NativeBackend>,
    plan: &PhysicalPlan,
    star: &gcm_workload::StarScenario,
) -> (Vec<u8>, u64, u64, u64, u64) {
    let mut tables: Vec<Relation> = vec![ctx.relation_from_keys("F", &star.fact, 8)];
    for (d, dim) in star.dims.iter().enumerate() {
        tables.push(ctx.relation_from_keys(&format!("D{d}"), dim, 8));
    }
    let (run, stats) = ctx.measure(|c| execute(c, plan, &tables).expect("valid plan"));
    (
        ctx.relation_bytes(&run.output),
        run.output.n(),
        stats.ops,
        stats.mem.accesses,
        stats.mem.lines,
    )
}

fn algorithms() -> Vec<JoinAlgorithm> {
    vec![
        JoinAlgorithm::Hash,
        JoinAlgorithm::NestedLoop,
        JoinAlgorithm::Merge {
            sort_u: true,
            sort_v: true,
        },
        JoinAlgorithm::PartitionedHash { m: 4 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every join algorithm, kernel path vs scalar reference: identical
    /// bytes, ops, and charged counters. The fact keys are Zipf-skewed
    /// with exponent `fact_theta` (0 is uniform), so hot keys run long
    /// upsert and probe chains through the hash kernels.
    #[test]
    fn kernel_and_scalar_paths_are_byte_identical(
        seed in 0u64..1_000,
        fact_n in 200usize..1_000,
        dim_n in 50usize..250,
        threshold_pct in 10u64..100,
        algo_idx in 0usize..4,
        fact_theta in 0.0f64..1.5,
    ) {
        let star = Workload::new(seed).skewed_star_scenario(fact_n, dim_n, 1, fact_theta);
        let threshold = (dim_n as u64 * threshold_pct) / 100;
        let plan = PhysicalPlan::scan(0)
            .select_lt(threshold)
            .join_with(PhysicalPlan::scan(1), algorithms()[algo_idx].clone())
            .group_count();
        let kernel = run_native(ExecContext::native(), &plan, &star);
        let scalar = run_native(ExecContext::native_scalar(), &plan, &star);
        prop_assert_eq!(&kernel, &scalar, "kernel vs scalar reference");
    }

    /// Deeper plans (sort, dedup, partition, aggregate) under the wide
    /// tuple layouts that exercise the kernels' strided fallbacks too.
    #[test]
    fn deep_plans_agree_between_kernel_and_scalar_paths(
        seed in 0u64..1_000,
        fact_n in 300usize..800,
        dim_n in 40usize..160,
        m in 1u64..9,
        shape in 0usize..3,
    ) {
        let star = Workload::new(seed).star_scenario(fact_n, dim_n, 2);
        let base = PhysicalPlan::scan(0)
            .select_lt(dim_n as u64 / 2)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(PhysicalPlan::scan(2), JoinAlgorithm::PartitionedHash { m });
        let plan = match shape {
            0 => base.group_count(),
            1 => base.sort().dedup(),
            _ => base.partition(m).group_count(),
        };
        let kernel = run_native(ExecContext::native(), &plan, &star);
        let scalar = run_native(ExecContext::native_scalar(), &plan, &star);
        prop_assert_eq!(&kernel, &scalar);
    }
}

/// Join ranking by the overlap extension with the given parameters.
fn overlap_ranking(
    model: &CostModel,
    inputs: &JoinInputs,
    cpu: CpuCost,
    ov: &OverlapParams,
) -> Vec<JoinAlgorithm> {
    let w = Region::new("W", inputs.out_n, inputs.out_w);
    let mut choices: Vec<(JoinAlgorithm, f64)> = join_candidates(model, inputs, &w)
        .into_iter()
        .map(|c| {
            let total = model.overlap_ns(&c.pattern, cpu, c.ops, ov).total_ns;
            (c.algorithm, total)
        })
        .collect();
    choices.sort_by(|a, b| a.1.total_cmp(&b.1));
    choices.dedup_by(|a, b| a.0 == b.0);
    choices.into_iter().map(|(a, _)| a).collect()
}

fn eq61_ranking(model: &CostModel, inputs: &JoinInputs, cpu: CpuCost) -> Vec<JoinAlgorithm> {
    rank_joins_with(model, inputs, cpu)
        .into_iter()
        .map(|c| c.algorithm)
        .collect()
}

fn table1_machines() -> Vec<HardwareSpec> {
    vec![
        presets::origin2000(),
        presets::tiny(),
        presets::modern_commodity(),
    ]
}

fn pinned_workloads() -> Vec<JoinInputs> {
    vec![
        JoinInputs {
            u: Region::new("U", 100_000, 8),
            v: Region::new("V", 50_000, 8),
            out_w: 16,
            out_n: 100_000,
            u_sorted: false,
            v_sorted: false,
        },
        JoinInputs {
            u: Region::new("U", 20_000, 16),
            v: Region::new("V", 20_000, 16),
            out_w: 16,
            out_n: 20_000,
            u_sorted: false,
            v_sorted: false,
        },
        JoinInputs {
            u: Region::new("U", 500_000, 8),
            v: Region::new("V", 4_000, 8),
            out_w: 16,
            out_n: 500_000,
            u_sorted: true,
            v_sorted: false,
        },
    ]
}

/// `α = 1`, no sustained bandwidths: the overlap total *is* Eq 6.1, so
/// the ranking matches on every machine × workload, exactly.
#[test]
fn overlap_at_alpha_one_reproduces_eq61_ranking_everywhere() {
    let cpu = CpuCost::default_planner();
    for spec in table1_machines() {
        let model = CostModel::new(spec.clone());
        for inputs in pinned_workloads() {
            assert_eq!(
                overlap_ranking(&model, &inputs, cpu, &OverlapParams::eq61()),
                eq61_ranking(&model, &inputs, cpu),
                "machine {} inputs {inputs:?}",
                spec.name
            );
        }
    }
}

/// Pinned: full overlap (`α = 0`) does not re-rank the join candidates
/// on the Table-1 presets for these workloads — the memory term
/// dominates every candidate, so `max(T_mem, T_cpu)` preserves the
/// additive order. A failure here means the overlap extension changed
/// which plan the optimizer picks, which must be a deliberate decision,
/// never a side effect.
#[test]
fn full_overlap_keeps_plan_ranking_on_pinned_table1_workloads() {
    let cpu = CpuCost::default_planner();
    let no_bw = OverlapParams::new(0.0, Vec::new());
    for spec in table1_machines() {
        let model = CostModel::new(spec.clone());
        for inputs in pinned_workloads() {
            assert_eq!(
                overlap_ranking(&model, &inputs, cpu, &no_bw),
                eq61_ranking(&model, &inputs, cpu),
                "machine {} inputs {inputs:?}",
                spec.name
            );
        }
    }
}
