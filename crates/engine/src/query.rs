//! End-to-end query tests: operator chains built with the
//! [`PhysicalPlan`](crate::plan::PhysicalPlan) builder, run by
//! [`plan::execute`](crate::plan::execute) and checked for their output,
//! their pattern and, on the simulator, the model's agreement with the
//! measured misses.

#[cfg(test)]
mod tests {
    use crate::plan::{self, JoinAlgorithm, PhysicalPlan};
    use crate::ExecContext;
    use gcm_core::{CostModel, Pattern};
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    #[test]
    fn select_join_aggregate_end_to_end() {
        let spec = presets::tiny_full_assoc();
        let mut ctx = ExecContext::new(spec.clone());
        let n = 4096usize;
        let (uk, vk) = Workload::new(42).join_pair(n);
        let tables = vec![
            ctx.relation_from_keys("U", &uk, 8),
            ctx.relation_from_keys("V", &vk, 8),
        ];

        let query = PhysicalPlan::scan(0)
            .select_lt(2048) // half qualify
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let (run, stats) = ctx.measure(|c| plan::execute(c, &query, &tables).unwrap());

        // Correctness: 2048 qualifying keys, each joins once, distinct.
        assert_eq!(run.output.n(), 2048);

        // The pattern covers all three operators.
        let s = run.pattern.to_string();
        assert!(s.contains("r_acc"), "{s}");
        assert!(s.matches("⊕").count() >= 3, "{s}");

        // End-to-end model agreement within 2× on L2 misses.
        let model = CostModel::new(spec.clone());
        let report = model.report(&run.pattern);
        let l2 = spec.level_index("L2").unwrap();
        let measured = stats.misses_at(l2) as f64;
        let predicted = report.levels[l2].misses();
        let ratio = predicted / measured.max(1.0);
        assert!(
            (0.4..2.5).contains(&ratio),
            "L2: measured {measured} predicted {predicted}"
        );
    }

    #[test]
    fn sort_then_merge_join_uses_order() {
        let spec = presets::tiny();
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(43).shuffled_keys(1024);
        let sorted: Vec<u64> = (0..1024).collect();
        let tables = vec![
            ctx.relation_from_keys("U", &keys, 8),
            ctx.relation_from_keys("V", &sorted, 8),
        ];

        // An explicit sort below a merge join that sorts neither input.
        let query = PhysicalPlan::scan(0).sort().join_with(
            PhysicalPlan::scan(1),
            JoinAlgorithm::Merge {
                sort_u: false,
                sort_v: false,
            },
        );
        let (run, _) = ctx.measure(|c| plan::execute(c, &query, &tables).unwrap());
        assert_eq!(run.output.n(), 1024);
        for i in 1..1024 {
            let a = ctx.mem.host().read_u64(run.output.tuple(i - 1));
            let b = ctx.mem.host().read_u64(run.output.tuple(i));
            assert!(a <= b, "merge output must be ordered");
        }
    }

    #[test]
    fn partition_then_dedup() {
        let spec = presets::tiny();
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(44).uniform_keys_bounded(2000, 300);
        let tables = vec![ctx.relation_from_keys("U", &keys, 8)];
        let query = PhysicalPlan::scan(0).partition(3).dedup();
        let (run, _) = ctx.measure(|c| plan::execute(c, &query, &tables).unwrap());
        // ≤ 300 distinct keys survive.
        assert!(run.output.n() <= 300);
        assert!(run.output.n() > 200, "most keys should appear");
        // Exactly one tuple per distinct key.
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(run.output.n(), distinct.len() as u64);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        // A bare scan returns its input and executes no phase.
        let spec = presets::tiny();
        let mut ctx = ExecContext::new(spec.clone());
        let tables = vec![ctx.relation_from_keys("U", &[1, 2, 3], 8)];
        let run = plan::execute(&mut ctx, &PhysicalPlan::scan(0), &tables).unwrap();
        assert_eq!(run.output.n(), 3);
        assert!(matches!(run.pattern, Pattern::Seq(ref v) if v.is_empty()));
    }
}
