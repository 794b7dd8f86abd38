//! EXPLAIN ANALYZE: per-plan-node predicted vs measured cost.
//!
//! Optimizes a two-join star query, executes it over the cache
//! simulator with the node tracer attached, and prints the annotated
//! tree: every operator node carries the model's Eq 6.1 prediction
//! (memory time from the node's access pattern, priced with the cache
//! state its upstream nodes left behind, plus the CPU charge), the
//! measured charged time from the simulator's counters, their ratio,
//! and the per-cache-level predicted vs measured miss breakdown. The
//! same report also feeds a model-drift monitor and serializes to
//! JSON.
//!
//! On the native backend the measured column is wall-clock ns and the
//! miss rows are absent: host memory has no per-level counters. Both
//! reports land in a flight-recorder ring for post-hoc dumping.
//!
//!     cargo run --release --example explain_analyze

use gcm::core::{CostModel, CpuCost};
use gcm::engine::plan::{explain_analyze, LogicalPlan, Optimizer, TableStats};
use gcm::engine::ExecContext;
use gcm::hardware::presets;
use gcm::obs::{DriftMonitor, FlightRecorder};
use gcm::workload::Workload;

fn main() {
    let spec = presets::tiny_smp(4);
    let mut wl = Workload::new(7);
    let star = wl.star_scenario(30_000, 2_000, 2);

    // σ(F.key < 500) ⋈ D0 ⋈ D1, grouped count on top: two joins.
    let logical = LogicalPlan::scan(0)
        .select_lt(500)
        .join(LogicalPlan::scan(1))
        .join(LogicalPlan::scan(2))
        .group_count();
    let stats = [
        TableStats::uniform(30_000, 8, 2_000, false),
        TableStats::key_column(2_000, 8, false),
        TableStats::key_column(2_000, 8, false),
    ];

    let model = CostModel::new(spec.clone());
    let planned = Optimizer::new(&model)
        .optimize(&logical, &stats)
        .expect("plan optimizes");
    println!("physical plan: {}\n", planned.plan);

    let mut ctx = ExecContext::new(spec);
    let tables = [
        ctx.relation_from_keys("F", &star.fact, 8),
        ctx.relation_from_keys("D0", &star.dims[0], 8),
        ctx.relation_from_keys("D1", &star.dims[1], 8),
    ];
    let cpu = CpuCost::default_planner();
    let (run, report) = explain_analyze(
        &mut ctx,
        &planned.plan,
        &tables,
        &model,
        &cpu,
        CpuCost::DEFAULT_PLANNER_PER_OP_NS,
    )
    .expect("plan executes");

    println!("{}", report.to_text());
    println!("output rows: {}\n", run.output.n());

    // The same per-node ratios feed the drift monitor; with an honest
    // CPU calibration nothing should be flagged.
    let drift = DriftMonitor::new();
    report.feed(&drift);
    println!(
        "drift after one honest run: recalibrate = {}",
        drift.needs_recalibration()
    );

    println!("\nJSON form:\n{}", report.to_json());

    // The same EXPLAIN on host memory: the measured column becomes
    // wall-clock ns.
    println!("\nnative backend:");
    let mut native = ExecContext::native();
    let native_tables = [
        native.relation_from_keys("F", &star.fact, 8),
        native.relation_from_keys("D0", &star.dims[0], 8),
        native.relation_from_keys("D1", &star.dims[1], 8),
    ];
    let (_, native_report) = explain_analyze(
        &mut native,
        &planned.plan,
        &native_tables,
        &model,
        &cpu,
        CpuCost::DEFAULT_PLANNER_PER_OP_NS,
    )
    .expect("plan executes natively");
    println!("{}", native_report.to_text());

    // Both reports ride the flight-recorder ring: the last N EXPLAIN
    // ANALYZE runs, dumpable as JSON lines after the fact.
    let flight = FlightRecorder::new(8);
    flight.record("sim", &report.to_json());
    flight.record("native", &native_report.to_json());
    println!(
        "flight recorder retains {} report(s); dump is one JSON line each",
        flight.len()
    );
}
