//! Observability-layer integration tests (ISSUE 8 satellite c).
//!
//! Three families, all driving the public `gcm::obs` surface from the
//! outside the way a service deployment would:
//!
//! - histogram quantile error: property-tested against the exact order
//!   statistic of the raw samples, which must stay within the
//!   documented [`gcm::obs::hist::QUANTILE_REL_ERROR`] bound;
//! - span recorder under contention: eight writer threads racing a
//!   concurrent drainer must lose nothing and duplicate nothing
//!   (`(lane, seq)` pairs are the identity);
//! - `EXPLAIN ANALYZE` golden: the redacted text of a two-join plan is
//!   pinned byte-for-byte, so the report's tree shape, labels, and row
//!   layout cannot drift silently.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use gcm::core::{CostModel, CpuCost};
use gcm::engine::plan::{explain_analyze, JoinAlgorithm, PhysicalPlan};
use gcm::engine::ExecContext;
use gcm::hardware::presets;
use gcm::obs::hist::QUANTILE_REL_ERROR;
use gcm::obs::{Histogram, Span, SpanKind, SpanRecorder};
use gcm::workload::Workload;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Histogram quantile error vs the exact order statistic
// ---------------------------------------------------------------------

/// Exact order statistic under the histogram's own rank convention:
/// the sample of rank `⌈q·n⌉` (rank 1 = min) in sorted order.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn histogram_quantiles_stay_within_documented_error(
        mut samples in proptest::collection::vec(0u64..5_000_000_000, 1..400),
        q_mille in 0u64..=1000,
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let q = q_mille as f64 / 1000.0;

        for (est, exact) in [
            (h.quantile(q), exact_quantile(&samples, q)),
            (h.p50(), exact_quantile(&samples, 0.50)),
            (h.p99(), exact_quantile(&samples, 0.99)),
            (h.p999(), exact_quantile(&samples, 0.999)),
        ] {
            let err = (est as f64 - exact as f64).abs();
            // Bucket midpoints sit within QUANTILE_REL_ERROR of any
            // value in the bucket; +1 absorbs integer midpoint rounding.
            prop_assert!(
                err <= QUANTILE_REL_ERROR * exact as f64 + 1.0,
                "quantile {q}: estimate {est} vs exact {exact} (err {err})"
            );
        }
        prop_assert_eq!(h.min(), samples[0]);
        prop_assert_eq!(h.max(), *samples.last().unwrap());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    #[test]
    fn histogram_merge_equals_recording_the_union(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut ha = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = Histogram::new();
        for &v in &b {
            hb.record(v);
        }
        ha.merge(&hb);

        let mut hu = Histogram::new();
        for &v in a.iter().chain(&b) {
            hu.record(v);
        }
        prop_assert_eq!(ha, hu);
    }
}

// ---------------------------------------------------------------------
// Span recorder: 8 writers racing a concurrent drainer
// ---------------------------------------------------------------------

const WRITERS: usize = 8;
const SPANS_PER_WRITER: u64 = 500;

#[test]
fn eight_writers_with_concurrent_drain_lose_and_duplicate_nothing() {
    // Capacity covers a writer's full output, so even a drainer that
    // never keeps up cannot force drops — any loss is a real bug.
    let rec = SpanRecorder::with_capacity(SPANS_PER_WRITER as usize + 8);
    let done = AtomicBool::new(false);
    let mut harvested: Vec<Span> = Vec::new();

    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let mut sink = rec.sink();
            writers.push(s.spawn(move || {
                for i in 0..SPANS_PER_WRITER {
                    sink.record(Span {
                        name: format!("op{w}"),
                        kind: SpanKind::Execute,
                        start_ns: i,
                        end_ns: i + 1,
                        elapsed_ns: 1.0,
                        accesses: 0,
                        level_misses: Vec::new(),
                        ops: i,
                        lane: 0,
                        seq: 0,
                    });
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        // Drain concurrently while the writers are still recording.
        let drainer = s.spawn(|| {
            let mut got = Vec::new();
            while !done.load(Ordering::Acquire) {
                got.extend(rec.drain());
                std::thread::yield_now();
            }
            got
        });
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        harvested = drainer.join().unwrap();
    });

    // Writers have exited; whatever the racing drainer missed is still
    // buffered.
    harvested.extend(rec.drain());

    let expected = WRITERS as u64 * SPANS_PER_WRITER;
    assert_eq!(rec.dropped(), 0, "capacity was sized to never drop");
    assert_eq!(harvested.len() as u64, expected, "no span may be lost");

    let identities: HashSet<(usize, u64)> = harvested.iter().map(|sp| (sp.lane, sp.seq)).collect();
    assert_eq!(
        identities.len() as u64,
        expected,
        "(lane, seq) pairs must be unique — duplicates mean a slot was read twice"
    );
    // Every lane delivered its full, gap-free sequence.
    for lane in 0..WRITERS {
        for seq in 0..SPANS_PER_WRITER {
            assert!(
                identities.contains(&(lane, seq)),
                "missing span ({lane}, {seq})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE golden: pinned redacted two-join report
// ---------------------------------------------------------------------

/// Redacted (`redacted_text`: digit runs → `#`) report for the pinned
/// two-join plan below. Pins the tree shape, operator labels, column
/// layout, and the presence of per-level miss rows on the simulator —
/// everything except machine-dependent magnitudes.
const GOLDEN: &str = "\
EXPLAIN ANALYZE
group_count  predicted=# ns  measured=# ns  ratio=#  ops=#
  [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
  join[hash]  predicted=# ns  measured=# ns  ratio=#  ops=#
    [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
    join[hash]  predicted=# ns  measured=# ns  ratio=#  ops=#
      [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
      select  predicted=# ns  measured=# ns  ratio=#  ops=#
        [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
        scan(#)
      scan(#)
    scan(#)
";

#[test]
fn explain_analyze_two_join_redacted_text_matches_golden() {
    let mut ctx = ExecContext::new(presets::tiny());
    let star = Workload::new(41).star_scenario(2_000, 400, 2);
    let tables = vec![
        ctx.relation_from_keys("F", &star.fact, 8),
        ctx.relation_from_keys("D1", &star.dims[0], 8),
        ctx.relation_from_keys("D2", &star.dims[1], 8),
    ];
    let plan = PhysicalPlan::scan(0)
        .select_lt(200)
        .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
        .join_with(PhysicalPlan::scan(2), JoinAlgorithm::Hash)
        .group_count();

    let model = CostModel::new(presets::tiny());
    let cpu = CpuCost::default_planner();
    let (run, report) =
        explain_analyze(&mut ctx, &plan, &tables, &model, &cpu, cpu.per_op_ns).unwrap();
    assert!(run.output.n() > 0);

    let redacted = report.redacted_text();
    assert_eq!(
        redacted, GOLDEN,
        "redacted EXPLAIN ANALYZE drifted from the pinned golden.\n\
         --- actual ---\n{redacted}\n--- end actual ---"
    );
}
