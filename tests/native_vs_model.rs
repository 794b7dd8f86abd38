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
//! [`GENEROUS_BOUND`] (10×) of each other — tightened from the
//! pre-kernel 25× now that (a) calibration also recovers the host TLB
//! and per-level sustained bandwidths and (b) the prediction prices the
//! pattern through the bandwidth-overlap extension of Eq 6.1, which
//! matches what the vectorized/prefetched kernels actually achieve.
//! The `#[ignore]`d strict variant tightens this to [`STRICT_BOUND`]
//! (4×) for runs on a quiet machine
//! (`cargo test --release -- --ignored native_strict`); observed
//! release-mode ratios on a quiet host are ~0.3–0.6 (residual
//! underprediction comes from output allocation and group-count's
//! distinct-count sweep, which the pattern language deliberately does
//! not describe).

use gcm_calibrate::calibrate_host;
use gcm_core::{CostModel, CpuCost, OverlapParams};
use gcm_engine::native::calibrate_per_op_ns;
use gcm_engine::plan::{run_on, PhysicalPlan, TableDef};
use gcm_engine::planner::JoinAlgorithm;
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend};
use gcm_workload::Workload;

/// Enforced predicted/measured agreement factor (see module docs).
const GENEROUS_BOUND: f64 = 10.0;

/// Strict agreement factor for quiet machines (`--ignored`).
const STRICT_BOUND: f64 = 4.0;

/// Calibration sweep ceiling: past the LLC of anything we run on in CI.
const CAL_MAX_BYTES: u64 = 16 * 1024 * 1024;

/// Residual serialization factor of the overlap prediction: the native
/// kernels overlap memory and compute well on dense scans but the
/// per-tuple operator glue still serializes part of the work.
const ALPHA: f64 = 1.0;

fn host_model() -> (CostModel, OverlapParams) {
    let report = calibrate_host(CAL_MAX_BYTES);
    let spec = report
        .to_spec("host (calibrated)", 1_000.0)
        .expect("calibrated parameters form a valid spec");
    (CostModel::new(spec), report.overlap_params(ALPHA))
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
    ov: &OverlapParams,
    per_op_ns: f64,
    plan: &PhysicalPlan,
    tables: &[TableDef],
) -> (f64, f64) {
    let mut ctx = ExecContext::native();
    let (run, stats) = run_on(&mut ctx, plan, tables).expect("plan executes");
    // The execution-provided oracle: the compound pattern with actual
    // cardinalities, priced on the calibrated model through the
    // bandwidth-overlap extension of Eq 6.1 (sequential misses at the
    // calibrated sustained bandwidths; `α`-weighted overlap of the
    // memory and CPU terms).
    let predicted = model
        .overlap_ns(&run.pattern, CpuCost::per_op(per_op_ns), stats.ops, ov)
        .total_ns;
    let measured = NativeBackend::elapsed_ns(&stats.mem);
    assert!(run.output.n() > 0, "plan must produce rows");
    assert!(measured > 0.0, "wall clock must advance");
    (predicted, measured)
}

fn check_plans(bound: f64) {
    let (model, ov) = host_model();
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
                    JoinAlgorithm::PartitionedHash { m: 16 },
                )
                .group_count(),
        ),
    ];
    for (name, plan) in plans {
        let (predicted, measured) = predict_and_measure(&model, &ov, per_op, &plan, &tables);
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
fn native_strict_calibrated_model_within_8x() {
    check_plans(STRICT_BOUND);
}

/// The relative claim that survives any amount of constant-factor noise:
/// the calibrated model must *rank* plans the way the real machine does
/// when the difference is structural (quadratic nested-loop vs hash).
#[test]
fn calibrated_model_ranks_join_algorithms_like_the_machine() {
    let (model, ov) = host_model();
    let per_op = calibrate_per_op_ns();
    let tables = star_tables(7, 6_000, 1_500);
    let nl = PhysicalPlan::scan(0)
        .select_lt(750)
        .join_with(PhysicalPlan::scan(1), JoinAlgorithm::NestedLoop);
    let hash = PhysicalPlan::scan(0)
        .select_lt(750)
        .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash);
    let (p_nl, m_nl) = predict_and_measure(&model, &ov, per_op, &nl, &tables);
    let (p_hash, m_hash) = predict_and_measure(&model, &ov, per_op, &hash, &tables);
    assert!(
        p_nl > p_hash,
        "model must rank hash below nested-loop: {p_hash:.0} vs {p_nl:.0}"
    );
    assert!(
        m_nl > m_hash,
        "machine must agree with the ranking: {m_hash:.0} vs {m_nl:.0}"
    );
}
