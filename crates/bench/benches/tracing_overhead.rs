//! Observability — the tracing tax, guarded.
//!
//! Span tracing must be affordable in both of its off/on states:
//!
//! * **disabled** (recorder present, `set_enabled(false)`): the traced
//!   executor path costs one relaxed atomic load per operator node —
//!   host wall time within **5%** of the untraced path;
//! * **enabled**: per-node counter snapshots plus a lock-free ring
//!   push — within **25%** of untraced.
//!
//! Methodology: the same two-join plan executes over the simulator in
//! three modes (untraced / disabled / enabled), `ROUNDS` times each,
//! interleaved; the **minimum** per-mode wall time is compared (min is
//! the standard noise floor for micro-guards — any scheduler hiccup
//! only inflates, never deflates). Results are also asserted
//! byte-identical across modes, the executable form of "observability
//! never changes what it observes".

use gcm_engine::plan::{self, LogicalPlan, NoPrebuilt, Optimizer, SpanTracer, TableStats};
use gcm_engine::ExecContext;
use gcm_hardware::presets;
use gcm_obs::SpanRecorder;
use std::time::Instant;

/// Timed executions per mode (minimum taken).
const ROUNDS: usize = 9;

/// Disabled-recorder budget over untraced.
const DISABLED_BUDGET: f64 = 1.05;

/// Enabled-recorder budget over untraced.
const ENABLED_BUDGET: f64 = 1.25;

fn main() {
    let spec = presets::tiny_smp(4);
    let mut wl = gcm_workload::Workload::new(4242);
    let star = wl.star_scenario(40_000, 2_000, 2);

    // σ(F) ⋈ D0 ⋈ D1 with a grouped count: two joins, six traced nodes.
    let logical = LogicalPlan::scan(0)
        .select_lt(1_000)
        .join(LogicalPlan::scan(1))
        .join(LogicalPlan::scan(2))
        .group_count();
    let stats = [
        TableStats::uniform(40_000, 8, 2_000, false),
        TableStats::key_column(2_000, 8, false),
        TableStats::key_column(2_000, 8, false),
    ];
    let model = gcm_core::CostModel::new(spec.clone());
    let planned = Optimizer::new(&model)
        .optimize(&logical, &stats)
        .expect("plan optimizes");

    let recorder = SpanRecorder::new();
    let mut sink = recorder.sink();

    // One measured execution; returns (wall_ns, output_n, output_hash).
    let mut run = |mode: &str| -> (u64, u64, u64) {
        let mut ctx = ExecContext::new(spec.clone());
        let tables = [
            ctx.relation_from_keys("F", &star.fact, 8),
            ctx.relation_from_keys("D0", &star.dims[0], 8),
            ctx.relation_from_keys("D1", &star.dims[1], 8),
        ];
        let t0 = Instant::now();
        let out = match mode {
            "untraced" => plan::execute(&mut ctx, &planned.plan, &tables),
            traced => {
                recorder.set_enabled(traced == "enabled");
                let mut tracer = SpanTracer::new(&mut sink);
                plan::execute_traced(&mut ctx, &planned.plan, &tables, &NoPrebuilt, &mut tracer)
            }
        }
        .expect("plan executes");
        let wall = t0.elapsed().as_nanos() as u64;
        let bytes = ctx.relation_bytes(&out.output);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes.iter() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (wall, out.output.n(), hash)
    };

    // Interleave modes so drift (thermal, frequency) hits all equally.
    let mut mins = [u64::MAX; 3];
    let mut results = [None::<(u64, u64)>; 3];
    for _ in 0..ROUNDS {
        for (i, mode) in ["untraced", "disabled", "enabled"].iter().enumerate() {
            let (wall, n, hash) = run(mode);
            mins[i] = mins[i].min(wall);
            match results[i] {
                None => results[i] = Some((n, hash)),
                Some(prev) => assert_eq!(prev, (n, hash), "{mode} result changed between rounds"),
            }
        }
    }
    assert_eq!(results[0], results[1], "disabled tracing changed results");
    assert_eq!(results[0], results[2], "enabled tracing changed results");

    let spans = recorder.drain();
    assert!(
        !spans.is_empty(),
        "enabled rounds must have recorded execute spans"
    );
    assert_eq!(recorder.dropped(), 0);

    let [untraced, disabled, enabled] = mins.map(|v| v as f64);
    println!("tracing overhead over {ROUNDS} interleaved rounds (min wall per mode):");
    println!("  untraced  {:.3} ms", untraced / 1e6);
    println!(
        "  disabled  {:.3} ms  ({:.3}x, budget {DISABLED_BUDGET}x)",
        disabled / 1e6,
        disabled / untraced
    );
    println!(
        "  enabled   {:.3} ms  ({:.3}x, budget {ENABLED_BUDGET}x)  [{} spans]",
        enabled / 1e6,
        enabled / untraced,
        spans.len()
    );

    assert!(
        disabled <= untraced * DISABLED_BUDGET,
        "disabled tracing overhead {:.3}x exceeds {DISABLED_BUDGET}x budget",
        disabled / untraced
    );
    assert!(
        enabled <= untraced * ENABLED_BUDGET,
        "enabled tracing overhead {:.3}x exceeds {ENABLED_BUDGET}x budget",
        enabled / untraced
    );
    println!("within budget ✓");
}
