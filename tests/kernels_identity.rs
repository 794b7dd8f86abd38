//! Kernel-path identity.
//!
//! The vectorized/prefetched native kernels must be indistinguishable
//! from the scalar reference path — identical result bytes, identical
//! logical op counts, and identical charged access/line counters —
//! across every operator and join algorithm. The kernels change *when*
//! the work happens, never *what* work is charged; that is the contract
//! that keeps Eq 3.1's miss accounting valid under the fast path.
//!
//! Most cases build their tables in the arena with `w = 8`. The
//! `mapped_*` cases bind published [`TableDef`] images the way the
//! service's executor does ([`materialize_tables`]: mapped read-only in
//! place), so the kernels also read their inputs from a mapped segment,
//! and they take group-count inputs of 8, 16 and 24 bytes.

use gcm_engine::plan::{execute, materialize_tables, JoinAlgorithm, PhysicalPlan, TableDef};
use gcm_engine::{ops, ExecContext, NativeBackend, Relation};
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
    measured(ctx, plan, &tables)
}

/// [`run_native`] over the tables `defs` bound as the executor binds
/// them ([`materialize_tables`]): read in place from mapped segments,
/// except where the plan sorts a table.
fn run_mapped(
    mut ctx: ExecContext<NativeBackend>,
    plan: &PhysicalPlan,
    defs: &[TableDef],
) -> (Vec<u8>, u64, u64, u64, u64) {
    let tables = materialize_tables(&mut ctx, plan, defs);
    measured(ctx, plan, &tables)
}

/// Execute `plan` over `tables` inside one measured interval.
fn measured(
    mut ctx: ExecContext<NativeBackend>,
    plan: &PhysicalPlan,
    tables: &[Relation],
) -> (Vec<u8>, u64, u64, u64, u64) {
    let (run, stats) = ctx.measure(|c| execute(c, plan, tables).expect("valid plan"));
    (
        ctx.relation_bytes(&run.output),
        run.output.n(),
        stats.ops,
        stats.mem.accesses,
        stats.mem.lines,
    )
}

/// Radix-partition `keys` natively, returning the cluster offsets,
/// result bytes, logical ops, and the charged access/line counters.
fn radix_native(
    mut ctx: ExecContext<NativeBackend>,
    keys: &[u64],
    bits: u32,
    passes: u32,
) -> (Vec<u64>, Vec<u8>, u64, u64, u64) {
    let input = ctx.relation_from_keys("U", keys, 8);
    let (parts, stats) =
        ctx.measure(|c| ops::partition::radix_partition(c, &input, bits, passes, "R"));
    (
        parts.offsets,
        ctx.relation_bytes(&parts.rel),
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
        JoinAlgorithm::PartitionedHash { bits: 2 },
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
        let kernel = run_native(ExecContext::native(), &plan, &star);
        let scalar = run_native(ExecContext::native_scalar(), &plan, &star);
        prop_assert_eq!(&kernel, &scalar);
    }

    /// Every radix-partition pass runs the scatter kernel: one to three
    /// passes, kernel path vs scalar reference, identical offsets,
    /// bytes, ops and charged counters.
    #[test]
    fn radix_passes_agree_between_kernel_and_scalar_paths(
        seed in 0u64..1_000,
        n in 0usize..2_000,
        bits in 0u32..=8,
        passes in 1u32..=3,
    ) {
        let keys = Workload::new(seed).uniform_keys_bounded(n, 1 << 20);
        let passes = passes.min(bits.max(1));
        let kernel = radix_native(ExecContext::native(), &keys, bits, passes);
        let scalar = radix_native(ExecContext::native_scalar(), &keys, bits, passes);
        prop_assert_eq!(&kernel, &scalar);
    }

    /// `group_count(scan(t))` straight from a mapped table of `w`-byte
    /// tuples (8, 16 or 24: one line, two per line, some straddling),
    /// kernel path vs scalar reference: identical bytes, ops and charged
    /// counters. The same table built in the arena agrees too, so where
    /// the input lies changes nothing either.
    #[test]
    fn mapped_group_count_agrees_between_kernel_and_scalar_paths(
        seed in 0u64..1_000,
        n in 0usize..3_000,
        universe in 1u64..600,
        theta in 0.0f64..1.5,
        w_idx in 0usize..3,
    ) {
        let w = [8, 16, 24][w_idx];
        let keys = Workload::new(seed).zipf_keys(n, universe, theta);
        let defs = [TableDef::new("T", &keys, w)];
        let plan = PhysicalPlan::scan(0).group_count();
        let kernel = run_mapped(ExecContext::native(), &plan, &defs);
        let scalar = run_mapped(ExecContext::native_scalar(), &plan, &defs);
        prop_assert_eq!(&kernel, &scalar, "w = {}", w);
        let mut ctx = ExecContext::native_scalar();
        let resident = [ctx.relation_from_keys("T", &keys, w)];
        prop_assert_eq!(&measured(ctx, &plan, &resident), &scalar, "arena, w = {}", w);
    }

    /// The served plan shapes over mapped tables: a selection joined
    /// with a mapped dimension by every algorithm, then grouped, and the
    /// same join ungrouped. Kernel path vs scalar reference: identical
    /// bytes, ops and charged counters.
    #[test]
    fn mapped_join_plans_agree_between_kernel_and_scalar_paths(
        seed in 0u64..1_000,
        fact_n in 200usize..1_000,
        dim_n in 50usize..250,
        threshold_pct in 10u64..100,
        algo_idx in 0usize..4,
        fact_theta in 0.0f64..1.5,
        grouped in 0usize..2,
    ) {
        let star = Workload::new(seed).skewed_star_scenario(fact_n, dim_n, 1, fact_theta);
        let defs = [TableDef::new("F", &star.fact, 8), TableDef::new("D0", &star.dims[0], 8)];
        let threshold = (dim_n as u64 * threshold_pct) / 100;
        let join = PhysicalPlan::scan(0)
            .select_lt(threshold)
            .join_with(PhysicalPlan::scan(1), algorithms()[algo_idx].clone());
        let plan = if grouped == 1 { join.group_count() } else { join };
        let kernel = run_mapped(ExecContext::native(), &plan, &defs);
        let scalar = run_mapped(ExecContext::native_scalar(), &plan, &defs);
        prop_assert_eq!(&kernel, &scalar, "{}", plan);
    }
}
