//! Calibrate → model → measure, on *this* machine: the paper's workflow
//! end to end on real hardware.
//!
//! 1. Calibrate the host's memory hierarchy with real pointer chases
//!    and sweeps (`gcm_calibrate::calibrate_host`).
//! 2. Instantiate the cost model from the detected parameters.
//! 3. Execute query plans on the native backend (real buffers, wall
//!    clock) and compare the model's predictions with the measured
//!    walls — plus the sim backend run of the same plans, whose outputs
//!    must be byte-identical.
//!
//! ```text
//! cargo run --release --example native_validation
//! ```

use gcm_calibrate::calibrate_host;
use gcm_core::{CostModel, CpuCost};
use gcm_engine::native::calibrate_per_op_ns;
use gcm_engine::plan::{run_on, JoinAlgorithm, PhysicalPlan, TableDef};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend};
use gcm_hardware::presets;
use gcm_workload::Workload;

fn main() {
    // 1. Calibrate the running machine.
    let report = calibrate_host(16 * 1024 * 1024);
    println!("calibrated host hierarchy (timing-detected):");
    for (i, c) in report.caches.iter().enumerate() {
        println!(
            "  level {}: capacity {:>9} B, seq {:>7.2} ns, rand {:>7.2} ns",
            i + 1,
            c.capacity,
            c.seq_miss_ns,
            c.rand_miss_ns
        );
    }
    let spec = report
        .to_spec("host (calibrated)", 1_000.0)
        .expect("valid calibrated spec");
    let model = CostModel::new(spec);
    let per_op = calibrate_per_op_ns();
    println!("in-cache CPU calibration: {per_op:.3} ns/logical-op\n");

    // 2. A star-schema workload and three plans.
    let star = Workload::new(42).star_scenario(60_000, 6_000, 1);
    let tables = vec![
        TableDef::new("F", star.fact, 8),
        TableDef::new("D", star.dims[0].clone(), 8),
    ];
    let plans = [
        (
            "select+aggregate",
            PhysicalPlan::scan(0).select_lt(3_000).group_count(),
        ),
        (
            "hash join",
            PhysicalPlan::scan(0)
                .select_lt(4_000)
                .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
                .group_count(),
        ),
        (
            "part. hash join (m=16)",
            PhysicalPlan::scan(0)
                .join_with(
                    PhysicalPlan::scan(1),
                    JoinAlgorithm::PartitionedHash { bits: 4 },
                )
                .group_count(),
        ),
    ];

    // 3. Execute natively, compare against the calibrated model (and
    //    the sim backend for result equality).
    println!("plan                      predicted [ms]  measured [ms]   ratio   rows");
    for (name, plan) in plans {
        let mut native = ExecContext::native();
        let (run, stats) = run_on(&mut native, &plan, &tables).expect("plan executes");
        let predicted = CpuCost::per_op(per_op).eq61_ns(model.mem_ns(&run.pattern), stats.ops);
        let measured = NativeBackend::elapsed_ns(&stats.mem);

        let mut sim = ExecContext::new(presets::tiny());
        let (sim_run, _) = run_on(&mut sim, &plan, &tables).expect("plan executes");
        assert_eq!(
            native.relation_bytes(&run.output),
            sim.relation_bytes(&sim_run.output),
            "sim and native outputs must be byte-identical"
        );

        println!(
            "{name:<25} {:>13.2} {:>14.2} {:>7.2}  {:>6}",
            predicted / 1e6,
            measured / 1e6,
            predicted / measured,
            run.output.n()
        );
    }
    println!("\noutputs byte-identical across sim and native backends ✓");
}
