//! Façade-level tests: each drives [`QueryService`] through its public
//! surface (submit → schedule → execute → report), so they stay in one
//! crate-root module rather than with any single stage. Tests of one
//! stage's internals live in that stage's module.

use super::*;
use gcm_engine::plan::plan_classes;
use gcm_hardware::presets;
use gcm_obs::drift::DEFAULT_MIN_SAMPLES;
use gcm_obs::registry::labeled;
use gcm_workload::Workload;

/// A service on `tiny_smp(4)` over a seeded star pair: fact table 0,
/// dimension table 1.
fn star_service(cfg: ServiceConfig, seed: u64, fact_n: usize, dim_n: usize) -> QueryService {
    let mut svc = QueryService::with_config(presets::tiny_smp(4), cfg);
    let star = Workload::new(seed).star_scenario(fact_n, dim_n, 1);
    svc.register_table("F", star.fact, 8);
    svc.register_table("D", star.dims[0].clone(), 8);
    svc
}

fn service() -> QueryService {
    star_service(ServiceConfig::default(), 42, 3_000, 500)
}

/// Drain the queue on `backend`, returning every executed query's
/// `(id, output_n, output_hash)`, sorted by id. Each batch is either
/// `dispatched` and collected through [`QueryService::completions`], or
/// waited for ([`QueryService::execute_batch`] /
/// [`QueryService::execute_batch_native_observed`]).
pub(crate) fn drain_on(
    svc: &mut QueryService,
    backend: Backend,
    dispatched: bool,
) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    while let (_, Some(batch)) = svc.next_batch_at(0) {
        if dispatched {
            svc.dispatch(batch, backend);
            while svc.in_flight() > 0 {
                for (id, run) in svc.completions() {
                    let run = run.unwrap();
                    out.push((id, run.output_n, run.output_hash));
                }
                std::thread::yield_now();
            }
        } else if backend == Backend::Native {
            let runs = svc.execute_batch_native_observed(batch).unwrap();
            out.extend(runs.iter().map(|(id, r)| (*id, r.output_n, r.output_hash)));
        } else {
            let seen = svc.metrics().queries.len();
            svc.execute_batch(batch).unwrap();
            let ran = &svc.metrics().queries[seen..];
            out.extend(ran.iter().map(|q| (q.id, q.output_n, q.output_hash)));
        }
    }
    out.sort_unstable();
    out
}

/// Submit `σ(F < cut) → count` once per cut-off.
fn submit_counts(svc: &mut QueryService, cuts: impl IntoIterator<Item = u64>) {
    for cut in cuts {
        svc.submit(LogicalPlan::scan(0).select_lt(cut).group_count())
            .unwrap();
    }
}

/// Submit `σ(F < cut) ⋈ D → count` once per cut-off.
pub(crate) fn submit_joins(svc: &mut QueryService, cuts: &[u64]) {
    for &cut in cuts {
        svc.submit(
            LogicalPlan::scan(0)
                .select_lt(cut)
                .join(LogicalPlan::scan(1))
                .group_count(),
        )
        .unwrap();
    }
}

#[test]
fn derive_stats_reads_the_data() {
    let s = derive_stats(&[3, 1, 4, 1, 5], 8);
    assert_eq!(s.n, 5);
    assert_eq!(s.key_bound, 6);
    assert_eq!(s.distinct, 4.0);
    assert!(!s.sorted);
    let sorted = derive_stats(&[1, 2, 3], 16);
    assert!(sorted.sorted);
    assert_eq!(sorted.w, 16);
    let empty = derive_stats(&[], 8);
    assert_eq!(empty.key_bound, 1);
}

#[test]
fn derive_stats_counts_distinct_keys_like_the_default_hasher() {
    // The multiplicative set must count exactly what SipHash counts, on
    // keys whose differences sit in the low bits, the high bits only,
    // or right under `u64::MAX`.
    let mut wl = Workload::new(11);
    let random = wl.foreign_keys(20_000, 4_096);
    let sorted: Vec<u64> = (0..5_000).map(|i| i / 3).collect();
    let high_bits: Vec<u64> = random.iter().map(|k| k << 48).collect();
    let near_max: Vec<u64> = random.iter().map(|k| u64::MAX - 1 - k).collect();
    for keys in [random, sorted, Vec::new(), high_bits, near_max] {
        let s = derive_stats(&keys, 8);
        let sip: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(s.distinct, sip.len() as f64);
        assert_eq!(s.n, keys.len() as u64);
        assert_eq!(s.key_bound, keys.iter().max().map_or(1, |m| m + 1));
        assert_eq!(s.sorted, keys.windows(2).all(|p| p[0] <= p[1]));
    }
}

#[test]
fn derive_stats_saturates_the_key_bound_at_u64_max() {
    // `max + 1` would overflow: a panic in a debug build, a bound of 0
    // (every selection estimated empty) in release.
    let s = derive_stats(&[1, u64::MAX], 8);
    assert_eq!(s.key_bound, u64::MAX);
    assert_eq!(s.distinct, 2.0);
    assert_eq!(s.n, 2);
    assert!(s.sorted);
    let top = derive_stats(&[u64::MAX; 3], 8);
    assert_eq!((top.key_bound, top.distinct), (u64::MAX, 1.0));
}

#[test]
fn submit_caches_repeated_plans() {
    let mut svc = service();
    let plan = LogicalPlan::scan(0).select_lt(100).group_count();
    for _ in 0..5 {
        svc.submit(plan.clone()).unwrap();
    }
    assert_eq!(svc.queue_len(), 5);
    assert_eq!(svc.cache().optimizer_runs(), 1);
    assert_eq!(svc.cache().hits(), 4);
}

#[test]
fn cached_plans_match_fresh_optimizations_across_epoch_flips() {
    // `plan_churn`'s answer check at test sizes: the fact table flips
    // between two sizes past the drift threshold; at every version,
    // every plan the service serves, from a miss or from its cache,
    // prints and prices exactly as a fresh optimization against the
    // current catalog.
    let mut wl = Workload::new(5);
    let big = wl.star_scenario(3_000, 256, 1);
    let small = wl.foreign_keys(1_500, 256);
    let mut svc = QueryService::new(presets::tiny_smp(4));
    svc.register_table("F", big.fact.clone(), 8);
    svc.register_table("D", big.dims[0].clone(), 8);
    let model = CostModel::new(presets::tiny_smp(4));
    let shapes = |cut: u64| {
        let base = LogicalPlan::scan(0).select_lt(cut);
        [
            LogicalPlan::scan(1).select_lt(cut),
            base.clone().group_count(),
            base.join(LogicalPlan::scan(1)).group_count(),
        ]
    };
    let ids = |p: &Pattern| -> std::collections::HashSet<gcm_core::RegionId> {
        p.leaves()
            .into_iter()
            .filter_map(Pattern::region)
            .map(gcm_core::Region::id)
            .collect()
    };
    for flip in 0..4 {
        // The second round is served from the cache.
        for _round in 0..2 {
            for cut in [8, 64, 200, 256] {
                for plan in shapes(cut) {
                    svc.submit(plan.clone()).unwrap();
                    let batch = svc.next_batch_at(0).1.expect("one query queued");
                    let served = &batch.entries[0].planned;
                    let fresh = optimize_and_lower(&model, &plan, svc.catalog().tables()).unwrap();
                    let at = format!("flip {flip}, {plan}");
                    assert_eq!(served.plan.to_string(), fresh.plan.to_string(), "{at}");
                    assert_eq!(served.mem_ns.to_bits(), fresh.mem_ns.to_bits(), "{at}");
                    assert_eq!(served.cpu_ns.to_bits(), fresh.cpu_ns.to_bits(), "{at}");
                    assert_eq!(
                        served.pattern.to_string(),
                        fresh.pattern.to_string(),
                        "{at}"
                    );
                    // Two optimizations of one plan build their own
                    // regions: names are shared, identities never.
                    assert!(
                        ids(&served.pattern).is_disjoint(&ids(&fresh.pattern)),
                        "{at}"
                    );
                }
            }
        }
        let keys = if flip % 2 == 0 {
            small.clone()
        } else {
            big.fact.clone()
        };
        assert!(
            svc.update_table(0, keys),
            "flip {flip} crosses the drift threshold"
        );
    }
    assert_eq!(svc.catalog().epoch(), 4);
    assert_eq!(svc.cache().optimizer_runs(), 4 * 12);
    assert_eq!(svc.cache().hits(), 4 * 12);
}

#[test]
fn run_drains_the_queue_and_records_metrics() {
    let mut svc = service();
    submit_counts(&mut svc, [100, 200, 100, 200]);
    svc.run().unwrap();
    assert_eq!(svc.queue_len(), 0);
    let m = svc.metrics();
    assert_eq!(m.queries.len(), 4);
    assert!(!m.batches.is_empty());
    assert!((m.hit_rate() - 0.5).abs() < 1e-9);
    // Ids cover every submission exactly once.
    let mut ids: Vec<u64> = m.queries.iter().map(|q| q.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    // Measured latencies are real.
    assert!(m.queries.iter().all(|q| q.measured_ns > 0.0));
}

#[test]
fn scan_mix_batches_above_one() {
    let mut svc = service();
    // Four identical broad scans: streaming footprints must batch.
    submit_counts(&mut svc, [400; 4]);
    let batch = svc.next_batch().unwrap();
    assert!(batch.size() > 1, "scan batch size {}", batch.size());
    assert!(batch.predicted_speedup() > 1.0);
    svc.execute_batch(batch).unwrap();
    assert!(svc.metrics().max_batch_size() > 1);
}

#[test]
fn stats_drift_retires_cached_plans() {
    let mut svc = service();
    let plan = LogicalPlan::scan(0).select_lt(100).group_count();
    svc.submit(plan.clone()).unwrap();
    assert_eq!(svc.cache().optimizer_runs(), 1);
    // Small drift: same epoch, cache still hot.
    let mut wl = Workload::new(43);
    let same = wl.star_scenario(3_100, 500, 1);
    assert!(!svc.update_table(0, same.fact));
    svc.submit(plan.clone()).unwrap();
    assert_eq!(svc.cache().optimizer_runs(), 1);
    // Past-threshold drift: epoch bumps, next submit re-optimizes.
    let big = wl.star_scenario(9_000, 500, 1);
    assert!(svc.update_table(0, big.fact));
    assert_eq!(svc.catalog().epoch(), 1);
    svc.submit(plan).unwrap();
    assert_eq!(svc.cache().optimizer_runs(), 2);
    svc.run().unwrap();
}

#[test]
fn a_sub_threshold_update_retires_the_tables_shared_build() {
    // A build is a function of the table's keys, not of its statistics:
    // replacing a tenth of the dimension's keys stays under the drift
    // threshold (same epoch, cached plan kept), and the next join must
    // still probe a layout built from the new keys.
    let star = Workload::new(11).star_scenario(16_000, 2_000, 1);
    let max = *star.dims[0].iter().max().unwrap();
    let dim2: Vec<u64> = star.dims[0]
        .iter()
        .enumerate()
        .map(|(i, &k)| if i % 10 == 0 { max - k % 7 } else { k })
        .collect();
    let service_over = |dim: &[u64]| {
        let mut svc = QueryService::new(presets::modern_smp(2));
        svc.register_table("F", star.fact.clone(), 8);
        svc.register_table("D", dim.to_vec(), 8);
        svc
    };
    let join_twice = |svc: &mut QueryService, backend: Backend| -> Vec<(u64, u64)> {
        for _ in 0..2 {
            svc.submit(LogicalPlan::scan(0).join(LogicalPlan::scan(1)))
                .unwrap();
        }
        let runs = drain_on(svc, backend, false);
        runs.iter().map(|&(_, n, hash)| (n, hash)).collect()
    };
    for backend in [Backend::Sim, Backend::Native] {
        let mut svc = service_over(&star.dims[0]);
        let before = join_twice(&mut svc, backend);
        assert!(
            !svc.update_table(1, dim2.clone()),
            "the update must stay under the drift threshold"
        );
        let after = join_twice(&mut svc, backend);
        let fresh = join_twice(&mut service_over(&dim2), backend);
        assert_ne!(before, fresh, "the update must change the answer");
        assert_eq!(after, fresh, "{backend:?}: joins probed a stale build");
    }
}

#[test]
fn plan_cache_hits_serve_the_form_memoized_for_the_builds_offered() {
    // One join plan submitted over and over: the first submit computes
    // the dimension's build and keeps its build phase, the second is
    // served the stripped form, and later hits share that form. A
    // sub-threshold dimension update rebuilds the build in the same
    // epoch, so the cached plan hits on — and must be served against the
    // new build, never the memoized form of the old one.
    let star = Workload::new(314).star_scenario(8_000, 1_000, 1);
    let dim = &star.dims[0];
    let max = *dim.iter().max().unwrap();
    let dim2: Vec<u64> = dim
        .iter()
        .enumerate()
        .map(|(i, &k)| if i % 10 == 0 { max - k % 7 } else { k })
        .collect();
    let mut svc = QueryService::new(presets::modern_smp(2));
    svc.register_table("F", star.fact.clone(), 8);
    svc.register_table("D", dim.clone(), 8);
    let join = LogicalPlan::scan(0)
        .select_lt(120)
        .join(LogicalPlan::scan(1))
        .group_count();
    let serve = |svc: &mut QueryService| {
        svc.submit(join.clone()).unwrap();
        let p = svc.queue.back().unwrap();
        (Arc::clone(&p.planned), Arc::clone(&p.serving))
    };
    let reads = |s: &Serving, r: &gcm_core::Region| {
        s.pattern
            .leaves()
            .iter()
            .any(|l| l.region().is_some_and(|x| x.id() == r.id()))
    };
    let bits = |s: &Serving| (report_bits(&s.solo), s.cpu_ns.to_bits());

    let (planned, builder) = serve(&mut svc);
    assert!(
        builder.builds.is_empty(),
        "the builder keeps its build phase"
    );
    assert_eq!(builder.pattern, planned.pattern);
    let (_, first) = serve(&mut svc);
    let (_, second) = serve(&mut svc);
    assert_eq!(first.builds.len(), 1, "the next requester shares the build");
    assert_ne!(first.pattern, planned.pattern);
    assert!(reads(&first, &first.builds[0].region));
    assert!(Arc::ptr_eq(&first, &second), "hits share one form");
    let fresh = attach_shared_builds(
        &svc.model,
        &mut svc.builds,
        &svc.tables,
        &planned,
        svc.catalog.epoch(),
        None,
    );
    assert!(!Arc::ptr_eq(&fresh, &second));
    assert_eq!(fresh.pattern, second.pattern);
    assert_eq!(
        bits(&fresh),
        bits(&second),
        "memoized prices are fresh ones"
    );

    assert!(!svc.update_table(1, dim2), "same epoch, same cached plan");
    let (replanned, rebuilder) = serve(&mut svc);
    assert!(Arc::ptr_eq(&replanned, &planned), "the plan cache hits");
    assert!(
        rebuilder.builds.is_empty(),
        "the new build's builder builds"
    );
    assert_eq!(rebuilder.pattern, planned.pattern);
    let (_, after) = serve(&mut svc);
    let (_, again) = serve(&mut svc);
    assert_eq!(after.builds.len(), 1);
    assert!(!Arc::ptr_eq(&after.builds[0], &first.builds[0]));
    assert!(
        reads(&after, &after.builds[0].region),
        "probes the new build"
    );
    assert!(!reads(&after, &first.builds[0].region), "never the old one");
    assert!(Arc::ptr_eq(&after, &again));
    assert_eq!(svc.cache().hits(), 5);
    assert_eq!(svc.cache().optimizer_runs(), 1);
}

/// Every level's misses and nanoseconds and the total, as bits.
fn report_bits(r: &CostReport) -> Vec<u64> {
    let levels = r
        .levels
        .iter()
        .flat_map(|l| [l.seq_misses, l.rand_misses, l.ns]);
    levels.chain([r.mem_ns]).map(f64::to_bits).collect()
}

#[test]
fn queued_queries_answer_from_their_admitted_versions_native_and_sim() {
    // Two joins queued, then both tables replaced below the drift
    // threshold, dimension first. The tables went (old, old) →
    // (old F, new D) → (new, new); the queued joins were admitted at
    // (old, old) and must answer exactly what a fresh service over those
    // tables answers — never the (new F, old D) that never existed.
    let star = Workload::new(12).star_scenario(16_000, 2_000, 1);
    let max = *star.dims[0].iter().max().unwrap();
    let dim2: Vec<u64> = star.dims[0]
        .iter()
        .enumerate()
        .map(|(i, &k)| if i % 10 == 0 { max - k % 7 } else { k })
        .collect();
    let fact2: Vec<u64> = star
        .fact
        .iter()
        .enumerate()
        .map(|(i, &k)| if i % 10 == 0 { k / 2 } else { k })
        .collect();
    let service_over = |fact: &[u64], dim: &[u64]| {
        let mut svc = QueryService::new(presets::modern_smp(2));
        svc.register_table("F", fact.to_vec(), 8);
        svc.register_table("D", dim.to_vec(), 8);
        svc
    };
    let submit_two = |svc: &mut QueryService| {
        for _ in 0..2 {
            svc.submit(LogicalPlan::scan(0).join(LogicalPlan::scan(1)))
                .unwrap();
        }
    };
    for backend in [Backend::Sim, Backend::Native] {
        let answers = |svc: &mut QueryService| -> Vec<(u64, u64)> {
            let runs = drain_on(svc, backend, false);
            runs.iter().map(|&(_, n, hash)| (n, hash)).collect()
        };
        let mut svc = service_over(&star.fact, &star.dims[0]);
        submit_two(&mut svc);
        assert!(
            !svc.update_table(1, dim2.clone()),
            "D stays under the threshold"
        );
        assert!(
            !svc.update_table(0, fact2.clone()),
            "F stays under the threshold"
        );
        let queued = answers(&mut svc);
        let mut old = service_over(&star.fact, &star.dims[0]);
        submit_two(&mut old);
        let mut new = service_over(&fact2, &dim2);
        submit_two(&mut new);
        let new = answers(&mut new);
        assert_eq!(queued, answers(&mut old), "{backend:?}");
        assert_ne!(queued, new, "the updates must change the answer");
        // Queries admitted after the updates see the new versions.
        submit_two(&mut svc);
        assert_eq!(answers(&mut svc), new, "{backend:?}");
    }
}

#[test]
fn unknown_table_submission_errors() {
    let mut svc = service();
    let err = svc.submit(LogicalPlan::scan(5)).unwrap_err();
    assert!(matches!(err, PlanError::UnknownTable { table: 5, .. }));
    assert_eq!(svc.queue_len(), 0);
}

#[test]
fn spans_cover_the_whole_query_lifecycle() {
    for backend in [Backend::Sim, Backend::Native] {
        let mut svc = service();
        submit_joins(&mut svc, &[100, 200]);
        drain_on(&mut svc, backend, false);
        let spans = svc.spans().drain();
        let kind_count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(kind_count(SpanKind::Optimize), 2, "{backend:?}");
        assert_eq!(kind_count(SpanKind::Build), 2, "{backend:?}");
        assert!(kind_count(SpanKind::Admission) >= 1, "{backend:?}");
        // Per-operator execute spans: each query ran select + join +
        // aggregate at least.
        assert!(
            kind_count(SpanKind::Execute) >= 6,
            "{backend:?}: {spans:#?}"
        );
        // Execute spans carry the sim backend's per-level miss deltas;
        // host memory honestly reports none.
        assert!(spans
            .iter()
            .filter(|s| s.kind == SpanKind::Execute)
            .all(|s| s.level_misses.is_empty() == (backend == Backend::Native)));
        assert_eq!(svc.spans().dropped(), 0);
    }
}

#[test]
fn tracing_off_is_byte_identical_and_spanless() {
    let run_with = |backend: Backend, tracing: bool| -> (Vec<(u64, u64, u64)>, usize) {
        let mut svc = service();
        svc.set_tracing(tracing);
        submit_joins(&mut svc, &[50, 150]);
        let out = drain_on(&mut svc, backend, false);
        let n_spans = svc.spans().drain().len();
        (out, n_spans)
    };
    for backend in [Backend::Sim, Backend::Native] {
        let (on, spans_on) = run_with(backend, true);
        let (off, spans_off) = run_with(backend, false);
        assert_eq!(on, off, "{backend:?}: tracing must not change results");
        assert_eq!(spans_off, 0, "{backend:?}");
        assert!(spans_on > 0, "{backend:?}");
    }
}

/// Ten count queries, one per batch, drained on `backend`: every
/// operator class those plans contain must have been judged at least
/// [`DEFAULT_MIN_SAMPLES`] times and exported as a drift ratio gauge.
/// Returns the service after the run.
fn drift_after_ten_counts(backend: Backend, dispatched: bool) -> QueryService {
    let cfg = ServiceConfig {
        max_batch: 1,
        ..ServiceConfig::default()
    };
    let mut svc = star_service(cfg, 45, 3_000, 500);
    let plans: Vec<LogicalPlan> = (0..10)
        .map(|i| LogicalPlan::scan(0).select_lt(100 + 10 * i).group_count())
        .collect();
    for plan in &plans {
        svc.submit(plan.clone()).unwrap();
    }
    drain_on(&mut svc, backend, dispatched);
    let status = svc.drift().status();
    for plan in &plans {
        let planned = optimize_and_lower(&svc.model, plan, svc.catalog().tables()).unwrap();
        for class in plan_classes(&planned.plan) {
            let samples = status.get(class).map_or(0, |d| d.samples);
            assert!(
                samples >= DEFAULT_MIN_SAMPLES,
                "{backend:?} {class}: {samples} samples in {status:?}"
            );
            let gauge = labeled("gcm_service_drift_ratio", &[("class", class)]);
            assert!(svc.metrics().registry.gauge(&gauge).is_some(), "{gauge}");
        }
    }
    svc
}

#[test]
fn drift_monitor_sees_every_class_of_an_honest_run() {
    // Measured on the simulator at the CPU charge the optimizer priced
    // them with, the counts judge every class and flag none of them.
    let mut svc = drift_after_ten_counts(Backend::Sim, false);
    let status = svc.drift().status();
    assert!(svc.drift().stale_classes().is_empty(), "{status:?}");
    let prom = svc.metrics().to_prometheus();
    assert!(prom.contains("gcm_service_drift_flag 0\n"), "{prom}");
}

#[test]
fn native_drift_per_class_reaches_the_registry() {
    // The same counts dispatched on the host and collected as they
    // complete reach the same per-class drift. Whether the uncalibrated
    // host flags a class is not this test's question.
    drift_after_ten_counts(Backend::Native, true);
}

#[test]
fn explain_analyze_records_into_the_flight_ring() {
    let mut svc = service();
    assert!(svc.flight().is_empty());
    let q1 = LogicalPlan::scan(0).select_lt(100).group_count();
    let q2 = LogicalPlan::scan(0).select_lt(300).group_count();
    let report = svc.explain_analyze(&q1).unwrap();
    let root = report.root.measured.as_ref().expect("operator root");
    assert!(root.ops > 0, "{report:?}");
    // Host memory has no per-level miss counters: the measured rows are
    // honestly absent (never zero rows), so the text carries none...
    assert!(root.level_misses.is_empty(), "{report:?}");
    assert!(!report.to_text().contains("[misses:"), "{report:?}");
    // ...while the prediction still names the spec's levels.
    let predicted = report.root.predicted.as_ref().expect("priced root");
    let names: Vec<&str> = predicted
        .level_misses
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let spec_names: Vec<&str> = svc
        .spec()
        .levels()
        .iter()
        .map(|l| l.name.as_str())
        .collect();
    assert_eq!(names, spec_names);
    svc.explain_analyze(&q2).unwrap();
    assert_eq!(svc.flight().len(), 2);
    let dump = svc.flight().dump_json_lines();
    assert_eq!(dump.lines().count(), 2);
    assert!(dump.contains("\"plan\""), "{dump}");
    assert!(
        dump.contains(&format!("fp{:016x}", q1.fingerprint())),
        "{dump}"
    );
}

#[test]
fn metrics_export_prometheus_and_json() {
    let mut svc = service();
    submit_counts(&mut svc, [100, 200, 300]);
    svc.run().unwrap();
    let m = svc.metrics();
    let (p50, p99, p999) = m.latency_quantiles().unwrap();
    assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
    let prom = m.to_prometheus();
    assert!(
        prom.contains("# TYPE gcm_service_query_latency_ns summary"),
        "{prom}"
    );
    assert!(prom.contains("gcm_service_queries_total 3"), "{prom}");
    assert!(prom.contains("gcm_service_spans_dropped_total 0"), "{prom}");
    let json = m.to_json_lines();
    assert!(json.lines().count() >= 5, "{json}");
}

fn classed_service(slo: SloPolicy) -> (QueryService, TenantTables) {
    let cfg = ServiceConfig {
        slo: Some(slo),
        ..ServiceConfig::default()
    };
    let tables = TenantTables {
        fact: 0,
        dim: 1,
        key_bound: 500,
    };
    (star_service(cfg, 42, 3_000, 500), tables)
}

/// The class's first-bucket plan, as tenant 0 would send it.
fn class_plan(class: TenantClass, t: &TenantTables) -> LogicalPlan {
    let request = gcm_workload::QueryRequest {
        tenant: 0,
        class,
        selectivity: class.selectivity_buckets()[0],
    };
    plan_for(&request, t)
}

/// Submit [`class_plan`] on the class's behalf, arriving at `arrival_ns`.
fn submit_class(
    svc: &mut QueryService,
    t: &TenantTables,
    class: TenantClass,
    arrival_ns: u64,
) -> u64 {
    svc.submit_classed(class_plan(class, t), class, arrival_ns)
        .unwrap()
}

#[test]
fn shed_pass_sheds_the_class_whose_budget_is_blown() {
    // Joins get an impossible budget, point lookups an unlimited
    // one: the join sheds, the point lookup is served.
    let (mut svc, t) = classed_service(SloPolicy {
        point_lookup_ns: f64::MAX,
        scan_heavy_ns: f64::MAX,
        join_heavy_ns: 1.0,
    });
    let point = submit_class(&mut svc, &t, TenantClass::PointLookup, 0);
    let join = submit_class(&mut svc, &t, TenantClass::JoinHeavy, 0);
    let (shed, batch) = svc.next_batch_at(100);
    assert_eq!(shed.len(), 1);
    assert_eq!(shed[0].id, join);
    assert_eq!(shed[0].class, TenantClass::JoinHeavy);
    assert!(shed[0].projected_ns > shed[0].budget_ns);
    let batch = batch.unwrap();
    assert!(batch.ids().contains(&point));
    assert!(!batch.ids().contains(&join));
    // The record and the labeled counter both landed.
    let m = svc.metrics();
    assert_eq!(m.shed_total(), 1);
    assert_eq!(m.shed_for_class(TenantClass::JoinHeavy), 1);
    assert_eq!(
        m.registry
            .counter("gcm_service_shed_total{class=\"join_heavy\"}"),
        Some(1)
    );
    assert_eq!(m.registry.gauge("gcm_service_queue_depth"), Some(0.0));
    assert!(m.registry.gauge("gcm_service_queue_depth_peak").unwrap() >= 2.0);
}

#[test]
fn shed_gate_and_admission_read_one_solo_price() {
    // A builder join, then a sharer join on the same dimension: the
    // sharer probes the builder's build, so its serving pattern has no
    // build phase. Before any formation (scale 1, speedup 1) the sharer
    // arrives with nothing waited and, once the builder ahead of it is
    // shed, nothing ahead of it: its projection is exactly its solo
    // term, which must be, to the bit, what admission predicts for it
    // as a singleton batch.
    let star = Workload::new(314).star_scenario(8_000, 1_000, 1);
    let service = |cfg: ServiceConfig| {
        let mut svc = QueryService::with_config(presets::modern_smp(4), cfg);
        svc.register_table("F", star.fact.clone(), 8);
        svc.register_table("D", star.dims[0].clone(), 8);
        for cut in [120, 240] {
            let join = LogicalPlan::scan(0)
                .select_lt(cut)
                .join(LogicalPlan::scan(1))
                .group_count();
            svc.submit_classed(join, TenantClass::JoinHeavy, 7).unwrap();
        }
        assert_eq!(svc.builds().reused(), 1, "the second join shares");
        svc
    };
    let mut gated = service(ServiceConfig {
        slo: Some(SloPolicy::uniform(1.0)),
        ..ServiceConfig::default()
    });
    let (shed, _) = gated.next_batch_at(7);
    assert_eq!(shed.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
    let mut serial = service(ServiceConfig {
        max_batch: 1,
        ..ServiceConfig::default()
    });
    let builder = serial.next_batch().unwrap();
    assert_eq!(builder.ids(), [0]);
    let sharer = serial.next_batch().unwrap();
    assert_eq!(sharer.ids(), [1]);
    assert_eq!(
        shed[1].projected_ns.to_bits(),
        sharer.price.per_query_ns[0].to_bits(),
        "shed projection {} vs admission's singleton price {}",
        shed[1].projected_ns,
        sharer.price.per_query_ns[0]
    );
}

#[test]
fn unclassed_submissions_never_shed() {
    // A zero budget sheds every classed query instantly — but a
    // plain submit is exempt no matter how stale it is.
    let (mut svc, t) = classed_service(SloPolicy::uniform(0.0));
    let plain = svc.submit(class_plan(TenantClass::ScanHeavy, &t)).unwrap();
    let classed = submit_class(&mut svc, &t, TenantClass::JoinHeavy, 0);
    let (shed, batch) = svc.next_batch_at(1_000_000);
    assert_eq!(shed.len(), 1);
    assert_eq!(shed[0].id, classed);
    let ids = batch.unwrap().ids();
    assert_eq!(ids, vec![plain]);
}

#[test]
fn priority_order_serves_point_lookups_before_joins() {
    // Joins arrive first but point lookups outrank them: the batch
    // head (admission always admits the first candidate) must be
    // the point lookup.
    let (mut svc, t) = classed_service(SloPolicy::uniform(f64::MAX));
    let join = submit_class(&mut svc, &t, TenantClass::JoinHeavy, 0);
    let point = submit_class(&mut svc, &t, TenantClass::PointLookup, 5);
    let (shed, batch) = svc.next_batch_at(10);
    assert!(shed.is_empty());
    let ids = batch.unwrap().ids();
    assert_eq!(ids[0], point, "{ids:?}");
    // The join is either in this batch behind the point lookup or
    // still queued — never lost.
    assert!(ids.contains(&join) || svc.queue_len() == 1);
}

#[test]
fn without_slo_next_batch_at_is_plain_next_batch() {
    let mut svc = service();
    submit_counts(&mut svc, [100]);
    let (shed, batch) = svc.next_batch_at(u64::MAX);
    assert!(shed.is_empty());
    assert_eq!(batch.unwrap().size(), 1);
}

#[test]
fn native_observed_execution_routes_ids_and_seeds_wall_scale() {
    let run = |backend: Backend, dispatched: bool| -> Vec<(u64, u64, u64)> {
        let (mut svc, t) = classed_service(SloPolicy::uniform(f64::MAX));
        for class in [TenantClass::PointLookup, TenantClass::ScanHeavy] {
            submit_class(&mut svc, &t, class, 0);
        }
        drain_on(&mut svc, backend, dispatched)
    };
    let sim = run(Backend::Sim, false);
    assert_eq!(
        sim.iter().map(|r| r.0).collect::<Vec<_>>(),
        [0, 1],
        "every run comes back under its own query id"
    );
    // Every other entry must answer what the simulator answers, id for id.
    let others = [
        (Backend::Native, false),
        (Backend::Native, true),
        (Backend::Sim, true),
    ];
    for (backend, dispatched) in others {
        assert_eq!(run(backend, dispatched), sim, "{backend:?}, {dispatched}");
    }
    // The EWMA seeds off the first observed batch.
    let (mut svc, t) = classed_service(SloPolicy::uniform(f64::MAX));
    assert_eq!(svc.wall_scale(), 1.0);
    submit_class(&mut svc, &t, TenantClass::ScanHeavy, 0);
    let (_, batch) = svc.next_batch_at(0);
    svc.execute_batch_native_observed(batch.unwrap()).unwrap();
    assert!(svc.wall_scale() > 0.0 && svc.wall_scale() != 1.0);
    let m = svc.metrics();
    assert_eq!(m.registry.counter(metrics::BATCHES_TOTAL), Some(1));
    let class = labeled(metrics::QUERY_LATENCY, &[("class", "scan_heavy")]);
    assert!(m.registry.histogram(&class).is_some());
    assert!(m.queries.is_empty(), "host runs keep no exact records");
}

#[test]
fn results_match_between_batched_and_serial_scheduling() {
    // The same queue drained with batching and with max_batch 1, each
    // batch waited for or dispatched, must produce identical per-query
    // outputs — and a simulator batch collected through `completions()`
    // must leave exactly the records `execute_batch` leaves.
    let run_with = |max_batch: usize, dispatched: bool| {
        let cfg = ServiceConfig {
            max_batch,
            ..ServiceConfig::default()
        };
        let mut svc = star_service(cfg, 44, 2_000, 400);
        submit_joins(&mut svc, &[50, 150, 250]);
        let out = drain_on(&mut svc, Backend::Sim, dispatched);
        let m = svc.metrics();
        (out, m.queries.clone(), m.batches.clone())
    };
    let waited = run_with(4, false);
    assert_eq!(waited.0, run_with(1, false).0);
    assert_eq!(waited.1.len(), 3);
    assert_eq!(run_with(4, true), waited);
}

#[test]
fn a_dispatched_point_completes_before_its_batchs_join() {
    // A join over a 1 Mi-row fact table and a point lookup, admitted as
    // one native batch and dispatched without waiting: the point's
    // result must come out of the completion queue first — it does not
    // wait for the join — and both must answer what the simulator does.
    let star = Workload::new(91).star_scenario(1 << 20, 2_048, 1);
    let service = || {
        let mut svc = QueryService::new(presets::modern_smp(2));
        svc.register_table("F", star.fact.clone(), 8);
        svc.register_table("D", star.dims[0].clone(), 8);
        let join = svc
            .submit(
                LogicalPlan::scan(0)
                    .select_lt(1_024)
                    .join(LogicalPlan::scan(1))
                    .group_count(),
            )
            .unwrap();
        let point = svc.submit(LogicalPlan::scan(1).select_lt(2)).unwrap();
        (svc, join, point)
    };
    let (mut svc, join, point) = service();
    let batch = svc.next_batch().unwrap();
    assert_eq!(batch.ids(), [join, point], "one batch, the join first");
    svc.dispatch(batch, Backend::Native);
    assert_eq!(svc.in_flight(), 2);
    // Both cores are taken: a query queued meanwhile waits for a slot.
    svc.submit(LogicalPlan::scan(1).select_lt(3)).unwrap();
    assert!(svc.next_batch().is_none(), "no free slot");
    let mut order = Vec::new();
    let mut native = Vec::new();
    while native.len() < 2 {
        for (qid, run) in svc.completions() {
            let run = run.unwrap();
            order.push(qid);
            native.push((qid, run.output_n, run.output_hash));
        }
        std::thread::yield_now();
    }
    assert_eq!(order, [point, join], "the point must not wait for the join");
    assert_eq!(svc.in_flight(), 0);
    assert_eq!(svc.next_batch().map(|b| b.size()), Some(1));
    native.sort_unstable();
    let (mut sim, ..) = service();
    assert_eq!(native, drain_on(&mut sim, Backend::Sim, false));
    assert!(native.iter().all(|r| r.1 > 0));
    assert_eq!(
        svc.metrics().registry.counter(metrics::BATCHES_TOTAL),
        Some(1),
        "the batch's bookkeeping ran once, at its last completion"
    );
}
