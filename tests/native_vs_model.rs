//! The paper's loop, closed on the actual machine
//! (calibrate → model → measure):
//!
//! 1. **Calibrate** the host with real pointer chases and sweeps
//!    ([`gcm_calibrate::calibrate_host`]) and instantiate a
//!    [`HardwareSpec`](gcm_hardware::HardwareSpec) from the detected
//!    parameters (§2.3: "adaptation of the model to a specific hardware
//!    is done by instantiating the parameters").
//! 2. **Model**: price a query plan's compound access pattern with
//!    [`gcm_core::CostModel`] on that spec (`T_mem`, Eq 3.1), plus the
//!    natively calibrated per-op CPU charge (`T_cpu`, Eq 6.1 via
//!    [`CpuCost::eq61_ns`]).
//! 3. **Measure**: execute the same plan on the native backend — real
//!    buffers, wall clock — and compare.
//!
//! ## Bounds (explicit and documented)
//!
//! Wall-clock measurements on a shared, possibly virtualized CI machine
//! include allocator work (first-touch zeroing of outputs) and
//! scheduling noise that neither the model nor the simulator prices,
//! and the timing-only calibration cannot see line sizes. The *enforced*
//! assertion pins predicted and measured totals within a factor of
//! [`GENEROUS_BOUND`] (10×) of each other. The `#[ignore]`d strict
//! variant tightens this to [`STRICT_BOUND`] (4×) for runs on a quiet
//! machine (`cargo test --release -- --ignored native_strict`). Over 20
//! release runs on a 2-vCPU Xeon VM the plan ratios were 0.46–1.25 and
//! the scan-curve ratios 0.71–1.33; over 10 debug runs, 0.73–1.88. The
//! spread is wall-clock noise plus what the pattern language
//! deliberately does not describe (output allocation, group-count's
//! distinct-count sweep).

use gcm_calibrate::calibrate_host;
use gcm_core::{CostModel, CpuCost};
use gcm_engine::native::calibrate_per_op_ns;
use gcm_engine::plan::{run_on, JoinAlgorithm, PhysicalPlan, TableDef};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend};
use gcm_workload::Workload;
use std::sync::{Mutex, MutexGuard};

/// Enforced predicted/measured agreement factor (see module docs).
const GENEROUS_BOUND: f64 = 10.0;

/// Strict agreement factor for quiet machines (`--ignored`).
const STRICT_BOUND: f64 = 4.0;

/// Calibration sweep ceiling: past the LLC of anything we run on in CI.
const CAL_MAX_BYTES: u64 = 16 * 1024 * 1024;

/// Calibration chases and sweeps 16 MiB of host memory, and every test
/// here times plans right after calibrating: a sibling test calibrating
/// or executing on the same cores inflates one side of the ratio. Every
/// test holds this for its whole body: one calibrate → measure at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    // A sibling's failed assertion must not fail this test too.
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn host_model() -> CostModel {
    let report = calibrate_host(CAL_MAX_BYTES);
    let spec = report
        .to_spec("host (calibrated)", 1_000.0)
        .expect("calibrated parameters form a valid spec");
    CostModel::new(spec)
}

fn star_tables(seed: u64, fact_n: usize, dim_n: usize) -> Vec<TableDef> {
    let star = Workload::new(seed).star_scenario(fact_n, dim_n, 1);
    vec![
        TableDef::new("F", star.fact, 8),
        TableDef::new("D", star.dims[0].clone(), 8),
    ]
}

/// Predicted vs native-measured total for one plan, returning
/// `(predicted_ns, measured_ns)`.
fn predict_and_measure(
    model: &CostModel,
    per_op_ns: f64,
    plan: &PhysicalPlan,
    tables: &[TableDef],
) -> (f64, f64) {
    let mut ctx = ExecContext::native();
    let (run, stats) = run_on(&mut ctx, plan, tables).expect("plan executes");
    // The execution-provided oracle: the compound pattern with actual
    // cardinalities, priced on the calibrated model by Eq 6.1.
    let predicted = model.total_ns(&run.pattern, CpuCost::per_op(per_op_ns), stats.ops);
    let measured = NativeBackend::elapsed_ns(&stats.mem);
    assert!(run.output.n() > 0, "plan must produce rows");
    assert!(measured > 0.0, "wall clock must advance");
    (predicted, measured)
}

fn check_plans(bound: f64) {
    let _serial = one_at_a_time();
    let model = host_model();
    let per_op = calibrate_per_op_ns();
    let tables = star_tables(42, 60_000, 6_000);
    let plans = [
        (
            "scan+select",
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
            "partitioned hash join",
            PhysicalPlan::scan(0)
                .join_with(
                    PhysicalPlan::scan(1),
                    JoinAlgorithm::PartitionedHash { bits: 4 },
                )
                .group_count(),
        ),
        (
            "sort-merge join",
            PhysicalPlan::scan(0).select_lt(3_000).join_with(
                PhysicalPlan::scan(1),
                JoinAlgorithm::Merge {
                    sort_u: true,
                    sort_v: true,
                },
            ),
        ),
    ];
    for (name, plan) in plans {
        let (predicted, measured) = predict_and_measure(&model, per_op, &plan, &tables);
        let ratio = predicted / measured;
        eprintln!(
            "{name}: predicted {predicted:.0} ns, measured {measured:.0} ns, ratio {ratio:.3}"
        );
        assert!(
            (1.0 / bound..bound).contains(&ratio),
            "{name}: predicted {predicted:.0} ns vs native-measured {measured:.0} ns \
             (ratio {ratio:.3}, documented bound {bound}×)"
        );
    }
}

/// The enforced calibrate → model → native-execute validation: every
/// plan's calibrated-model prediction lands within [`GENEROUS_BOUND`]
/// of its native-measured wall time.
#[test]
fn calibrated_model_predicts_native_walls_within_generous_bound() {
    check_plans(GENEROUS_BOUND);
}

/// Strict-timing variant, `#[ignore]`d so a loaded CI box cannot flake
/// the suite; run on a quiet machine with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "strict timing: run on a quiet machine"]
fn native_strict_calibrated_model_within_4x() {
    check_plans(STRICT_BOUND);
}

/// The scan curve: measured walls grow with the input size (structure,
/// immune to constant factors) and every size's prediction stays within
/// [`GENEROUS_BOUND`]. Each size keeps the minimum of three runs — a
/// scheduler preemption only ever *adds* time, and a single inflated
/// small-n wall would fake a growth violation on a busy machine.
#[test]
fn calibrated_model_tracks_the_native_scan_curve() {
    let _serial = one_at_a_time();
    let model = host_model();
    let per_op = calibrate_per_op_ns();
    let plan = PhysicalPlan::scan(0).select_lt(500).group_count();
    let mut walls = Vec::new();
    for n in [20_000usize, 80_000, 320_000] {
        let star = Workload::new(5).star_scenario(n, 1_000, 1);
        let tables = vec![TableDef::new("F", star.fact, 8)];
        let (predicted, measured) = (0..3)
            .map(|_| predict_and_measure(&model, per_op, &plan, &tables))
            .reduce(|best, run| if run.1 < best.1 { run } else { best })
            .expect("three runs");
        let ratio = predicted / measured;
        eprintln!(
            "scan n={n}: predicted {predicted:.0} ns, measured {measured:.0} ns, ratio {ratio:.3}"
        );
        assert!(
            (1.0 / GENEROUS_BOUND..GENEROUS_BOUND).contains(&ratio),
            "scan n={n}: ratio {ratio:.3} outside {GENEROUS_BOUND}×"
        );
        walls.push(measured);
    }
    assert!(
        walls.windows(2).all(|w| w[0] < w[1]),
        "scan walls must grow with n: {walls:?}"
    );
}

/// The relative claim that survives any amount of constant-factor noise:
/// the calibrated model must *rank* plans the way the real machine does
/// when the difference is structural (quadratic nested-loop vs hash).
#[test]
fn calibrated_model_ranks_join_algorithms_like_the_machine() {
    let _serial = one_at_a_time();
    let model = host_model();
    let per_op = calibrate_per_op_ns();
    let tables = star_tables(7, 6_000, 1_500);
    let nl = PhysicalPlan::scan(0)
        .select_lt(750)
        .join_with(PhysicalPlan::scan(1), JoinAlgorithm::NestedLoop);
    let hash = PhysicalPlan::scan(0)
        .select_lt(750)
        .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash);
    let (p_nl, m_nl) = predict_and_measure(&model, per_op, &nl, &tables);
    let (p_hash, m_hash) = predict_and_measure(&model, per_op, &hash, &tables);
    assert!(
        p_nl > p_hash,
        "model must rank hash below nested-loop: {p_hash:.0} vs {p_nl:.0}"
    );
    assert!(
        m_nl > m_hash,
        "machine must agree with the ranking: {m_hash:.0} vs {m_nl:.0}"
    );
}
