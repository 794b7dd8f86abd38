//! Backend equivalence: the same physical plan executed on the
//! simulated hierarchy and on the host's real memory must produce
//! **byte-identical** result relations — the algorithms are shared, only
//! the memory substrate (and therefore the measurement) differs.
//!
//! Seeded property test over the star-schema scenarios in
//! `gcm-workload`, sweeping fact/dimension sizes, selectivity, the join
//! algorithm, and the plan shape.

use gcm_engine::plan::{execute, JoinAlgorithm, PhysicalPlan};
use gcm_engine::{ops, ExecContext, MemoryBackend, Relation};
use gcm_hardware::presets;
use gcm_workload::Workload;
use proptest::prelude::*;

/// Run `plan` over a fresh context on backend `B`, returning the raw
/// bytes of the result relation plus the logical ops performed.
fn run_plan<B: MemoryBackend>(
    mut ctx: ExecContext<B>,
    plan: &PhysicalPlan,
    star: &gcm_workload::StarScenario,
) -> (Vec<u8>, u64, u64) {
    let mut tables: Vec<Relation> = vec![ctx.relation_from_keys("F", &star.fact, 8)];
    for (d, dim) in star.dims.iter().enumerate() {
        tables.push(ctx.relation_from_keys(&format!("D{d}"), dim, 8));
    }
    let (run, stats) = ctx.measure(|c| execute(c, plan, &tables).expect("valid plan"));
    (ctx.relation_bytes(&run.output), run.output.n(), stats.ops)
}

/// Radix-partition `keys` over a fresh context on backend `B`,
/// returning the cluster offsets and the raw bytes of the result.
fn radix_plan<B: MemoryBackend>(
    mut ctx: ExecContext<B>,
    keys: &[u64],
    bits: u32,
    passes: u32,
) -> (Vec<u64>, Vec<u8>) {
    let input = ctx.relation_from_keys("U", keys, 8);
    let parts = ops::partition::radix_partition(&mut ctx, &input, bits, passes, "R");
    (parts.offsets, ctx.relation_bytes(&parts.rel))
}

fn algorithms() -> Vec<JoinAlgorithm> {
    vec![
        JoinAlgorithm::Hash,
        JoinAlgorithm::NestedLoop,
        JoinAlgorithm::Merge {
            sort_u: true,
            sort_v: true,
        },
        JoinAlgorithm::PartitionedHash { bits: 2 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-join star query under every join algorithm: sim and native
    /// outputs are byte-identical (satellite: the backend-equivalence
    /// property of the tentpole refactor).
    #[test]
    fn star_join_outputs_are_byte_identical(
        seed in 0u64..1_000,
        fact_n in 200usize..1_200,
        dim_n in 50usize..300,
        threshold_pct in 10u64..100,
        algo_idx in 0usize..4,
    ) {
        let star = Workload::new(seed).star_scenario(fact_n, dim_n, 1);
        let threshold = (dim_n as u64 * threshold_pct) / 100;
        let algo = algorithms()[algo_idx].clone();
        let plan = PhysicalPlan::scan(0)
            .select_lt(threshold)
            .join_with(PhysicalPlan::scan(1), algo)
            .group_count();
        let (sim_bytes, sim_n, sim_ops) =
            run_plan(ExecContext::new(presets::tiny()), &plan, &star);
        let (native_bytes, native_n, native_ops) =
            run_plan(ExecContext::native(), &plan, &star);
        prop_assert_eq!(sim_n, native_n);
        prop_assert_eq!(sim_ops, native_ops, "identical logical work");
        prop_assert_eq!(sim_bytes, native_bytes, "byte-identical outputs");
    }

    /// Two-dimension star with sort/dedup/partition stages mixed in, and
    /// on a *different* simulated machine (addresses and alignment may
    /// shift the sim layout — contents must not change).
    #[test]
    fn deep_star_plans_are_byte_identical(
        seed in 0u64..1_000,
        fact_n in 300usize..900,
        dim_n in 40usize..200,
        bits in 0u32..4,
        shape in 0usize..3,
    ) {
        let star = Workload::new(seed).star_scenario(fact_n, dim_n, 2);
        let base = PhysicalPlan::scan(0)
            .select_lt(dim_n as u64 / 2)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(PhysicalPlan::scan(2), JoinAlgorithm::PartitionedHash { bits });
        let plan = match shape {
            0 => base.group_count(),
            1 => base.sort().dedup(),
            _ => base.partition(bits).group_count(),
        };
        let (sim_bytes, sim_n, _) =
            run_plan(ExecContext::new(presets::tiny_full_assoc()), &plan, &star);
        let (native_bytes, native_n, _) = run_plan(ExecContext::native(), &plan, &star);
        prop_assert_eq!(sim_n, native_n);
        prop_assert_eq!(sim_bytes, native_bytes);
    }

    /// Multi-pass radix clustering: the native kernel passes place every
    /// tuple where the simulator does.
    #[test]
    fn radix_passes_are_byte_identical(
        seed in 0u64..1_000,
        n in 0usize..2_000,
        bits in 0u32..=8,
        passes in 1u32..=3,
    ) {
        let keys = Workload::new(seed).uniform_keys_bounded(n, 1 << 20);
        let passes = passes.min(bits.max(1));
        let sim = radix_plan(ExecContext::new(presets::tiny()), &keys, bits, passes);
        let native = radix_plan(ExecContext::native(), &keys, bits, passes);
        prop_assert_eq!(sim, native);
    }
}

/// The pinned demo scenario (non-random, so a regression is loud):
/// every join algorithm, sim vs native, across the seeded star schema.
#[test]
fn pinned_star_scenarios_agree_per_algorithm() {
    for (seed, fact_n, dim_n) in [(7, 2_000, 400), (11, 500, 100), (13, 1_500, 64)] {
        let star = Workload::new(seed).star_scenario(fact_n, dim_n, 1);
        for algo in algorithms() {
            let plan = PhysicalPlan::scan(0)
                .select_lt(dim_n as u64 / 2)
                .join_with(PhysicalPlan::scan(1), algo.clone())
                .group_count();
            let (sim_bytes, _, _) = run_plan(ExecContext::new(presets::tiny()), &plan, &star);
            let (native_bytes, _, _) = run_plan(ExecContext::native(), &plan, &star);
            assert_eq!(
                sim_bytes, native_bytes,
                "seed {seed} fact {fact_n} dim {dim_n} algo {algo:?}"
            );
        }
    }
}
