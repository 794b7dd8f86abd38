//! The whole-plan optimizer end to end (paper §1 grown to §6's whole
//! queries): a four-operator, two-join star query
//!
//! ```text
//! γ_count( σ(F.key < t) ⋈ D1 ⋈ D2 )
//! ```
//!
//! The optimizer enumerates complete physical plans (join algorithms
//! per node), prices each as **one** composed pattern — Eq 5.2 cache-
//! state threading and Eq 5.3 footprint sharing included — and picks a
//! winner. Every enumerated plan is then executed for real on the
//! Origin2000 simulator, and the chosen plan must land within 25% of
//! the measured best.
//!
//! ```bash
//! cargo run --release --example optimize_query
//! ```

use gcm::core::{CostModel, CpuCost};
use gcm::engine::plan::{execute, LogicalPlan, Optimizer, TableStats};
use gcm::engine::ExecContext;
use gcm::hardware::presets;
use gcm::workload::Workload;

const FACT_N: usize = 40_000;
const DIM_N: usize = 10_000;
const SELECTIVITY: f64 = 0.5;

fn main() {
    let spec = presets::origin2000();
    let model = CostModel::new(spec.clone());

    // The data: a star scenario with two dimensions over one key domain.
    let star = Workload::new(42).star_scenario(FACT_N, DIM_N, 2);
    let threshold = star.threshold(SELECTIVITY);

    // The query and its logical statistics (the §1 oracle).
    let logical = LogicalPlan::scan(0)
        .select_lt(threshold)
        .join(LogicalPlan::scan(1))
        .join(LogicalPlan::scan(2))
        .group_count();
    let stats = [
        TableStats::uniform(FACT_N as u64, 8, DIM_N as u64, false),
        TableStats::key_column(DIM_N as u64, 8, false),
        TableStats::key_column(DIM_N as u64, 8, false),
    ];
    println!("query: {logical}");
    println!(
        "tables: F = {FACT_N} FK tuples over [0, {DIM_N}), D1/D2 = {DIM_N} PK tuples; \
         selectivity {SELECTIVITY}\n"
    );

    // Enumerate and price whole plans.
    let plans = Optimizer::new(&model)
        .enumerate(&logical, &stats)
        .expect("the star query plans");
    assert!(
        plans.len() >= 4,
        "expected ≥ 4 enumerated plans, got {}",
        plans.len()
    );

    // Execute every enumerated plan on a fresh simulator instance.
    println!(
        "{} physical plans, predicted vs simulator-measured:",
        plans.len()
    );
    let mut measured_ns = Vec::new();
    for (i, planned) in plans.iter().enumerate() {
        let mut ctx = ExecContext::new(spec.clone());
        let tables = [
            ctx.relation_from_keys("F", &star.fact, 8),
            ctx.relation_from_keys("D1", &star.dims[0], 8),
            ctx.relation_from_keys("D2", &star.dims[1], 8),
        ];
        let (run, stats) = {
            let mut out = None;
            let (_, s) = ctx.measure(|c| {
                out = Some(execute(c, &planned.plan, &tables).expect("plan executes"));
            });
            (out.unwrap(), s)
        };
        let measured = stats.total_ns(CpuCost::DEFAULT_PLANNER_PER_OP_NS);
        measured_ns.push(measured);
        println!(
            "  [{i}]{} predicted {:>9.2} ms   measured {:>9.2} ms   ({} groups out)",
            if i == 0 { " (chosen)" } else { "         " },
            planned.total_ns() / 1e6,
            measured / 1e6,
            run.output.n()
        );
        println!("       {}", planned.plan);
    }

    // The model-guided choice must be measurably near-best.
    let chosen = measured_ns[0];
    let best = measured_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let best_idx = measured_ns.iter().position(|&m| m == best).unwrap();
    println!(
        "\nchosen plan measured {:.2} ms; best enumerated (plan [{best_idx}]) measured {:.2} ms \
         ({:+.1}% vs best)",
        chosen / 1e6,
        best / 1e6,
        (chosen / best - 1.0) * 100.0
    );
    assert!(
        chosen <= 1.25 * best,
        "chosen plan ({chosen} ns) must be within 25% of the measured best ({best} ns)"
    );
    println!("the model-guided choice is within 25% of the measured best ✓");
}
