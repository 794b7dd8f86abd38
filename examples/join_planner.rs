//! The paper's motivating use-case (§1): a query optimizer choosing the
//! most suitable join algorithm from predicted physical cost.
//!
//! Ranks nested-loop, (sort+)merge, hash, and partitioned-hash joins for
//! a range of input sizes and sortedness with the whole-plan optimizer,
//! then executes the top two candidates on the simulator to confirm the
//! model picked the real winner. Exits non-zero when the simulation
//! contradicts a ranking the model does not declare a near-tie.
//!
//! ```bash
//! cargo run --release --example join_planner
//! ```

use gcm::core::{CostModel, CpuCost};
use gcm::engine::plan::{JoinAlgorithm, LogicalPlan, Optimizer, PlannedQuery, TableStats};
use gcm::engine::{ops, ExecContext};
use gcm::hardware::presets;
use gcm::workload::Workload;

/// Every plan for joining two `n`-key columns, cheapest first.
fn rank_joins(model: &CostModel, n: u64, sorted: bool) -> Vec<PlannedQuery> {
    let join = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
    let stats = [
        TableStats::key_column(n, 8, sorted),
        TableStats::key_column(n, 8, sorted),
    ];
    Optimizer::new(model)
        .enumerate(&join, &stats)
        .expect("both tables are described")
}

fn algorithm(p: &PlannedQuery) -> &JoinAlgorithm {
    p.plan.join_algorithms()[0]
}

fn main() {
    let hw = presets::origin2000();
    let model = CostModel::new(hw.clone());

    for (n, sorted) in [(30_000u64, false), (1_000_000, false), (1_000_000, true)] {
        println!(
            "join of two {n}-tuple tables ({}):",
            if sorted { "already sorted" } else { "unsorted" }
        );
        for c in &rank_joins(&model, n, sorted) {
            println!(
                "  {:<42} T = {:>9.1} ms  (mem {:>9.1} + cpu {:>8.1})",
                algorithm(c).to_string(),
                c.total_ns() / 1e6,
                c.mem_ns / 1e6,
                c.cpu_ns / 1e6
            );
        }
        println!();
    }

    // Execute the two fastest candidates of the unsorted 256K case and
    // check the model's ranking against simulated reality.
    let n = 262_144u64;
    let ranked = rank_joins(&model, n, false);
    println!("validating the top-2 prediction for n = {n} (unsorted):");
    let (uk, vk) = Workload::new(2).join_pair(n as usize);
    let mut results = Vec::new();
    for choice in ranked.iter().take(2) {
        let mut ctx = ExecContext::new(hw.clone());
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);
        let (_, stats) = ctx.measure(|c| match algorithm(choice) {
            JoinAlgorithm::Hash => {
                ops::hash::hash_join(c, &u, &v, "W", 16);
            }
            JoinAlgorithm::PartitionedHash { bits } => {
                ops::part_hash_join::part_hash_join(c, &u, &v, *bits, "W", 16);
            }
            JoinAlgorithm::Merge { .. } => {
                ops::sort::quick_sort(c, &u);
                ops::sort::quick_sort(c, &v);
                ops::merge_join::merge_join(c, &u, &v, "W", 16);
            }
            JoinAlgorithm::NestedLoop => unreachable!("never ranks top-2 at this size"),
        });
        let measured_ms = stats.total_ns(CpuCost::DEFAULT_PLANNER_PER_OP_NS) / 1e6;
        println!(
            "  {:<42} predicted {:>8.1} ms   measured {:>8.1} ms",
            algorithm(choice).to_string(),
            choice.total_ns() / 1e6,
            measured_ms
        );
        results.push(measured_ms);
    }
    let agrees = results.windows(2).all(|w| w[0] <= w[1]);
    // Two candidates the model prices within ~15% of each other are a
    // declared tie: either may win on a given run.
    let near_tie = ranked[1].total_ns() / ranked[0].total_ns() < 1.15;
    println!(
        "model ranking confirmed by simulation: {}",
        match (agrees, near_tie) {
            (true, _) => "yes",
            (false, true) => "near-tie (predicted within 15%; measured order within noise)",
            (false, false) => "NO",
        }
    );
    if !agrees && !near_tie {
        std::process::exit(1);
    }
}
