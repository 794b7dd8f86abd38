//! Plan-cache correctness properties (the gcm-service caching layer):
//!
//! * a cache hit returns exactly what a fresh optimization would have
//!   produced (same physical plan, same predicted cost, same pattern);
//! * statistics drift past the catalog threshold forces
//!   re-optimization, small drift does not;
//! * queries sharing a hash-join build produce the same bytes as
//!   queries that build their own.

use gcm::core::CostModel;
use gcm::engine::plan::{optimize_and_lower, LogicalPlan, StatsCatalog, TableStats};
use gcm::hardware::presets;
use gcm::service::{PlanCache, QueryService};
use gcm::workload::Workload;
use proptest::prelude::*;
use std::sync::Arc;

/// A random star-ish logical plan over two tables plus matching stats.
fn scenario(seed: u64) -> (LogicalPlan, Vec<TableStats>) {
    let mut wl = Workload::new(seed);
    let dim_n = 200 + wl.uniform_keys_bounded(1, 800)[0];
    let fact_n = dim_n * (2 + wl.uniform_keys_bounded(1, 6)[0]);
    let threshold = 1 + wl.uniform_keys_bounded(1, dim_n)[0];
    let sorted = wl.uniform_keys_bounded(1, 2)[0] == 0;
    let base = LogicalPlan::scan(0)
        .select_lt(threshold)
        .join(LogicalPlan::scan(1));
    let plan = match wl.uniform_keys_bounded(1, 3)[0] {
        0 => base.group_count(),
        1 => base.sort(),
        _ => base.dedup(),
    };
    let stats = vec![
        TableStats::uniform(fact_n, 8, dim_n, false),
        TableStats::key_column(dim_n, 8, sorted),
    ];
    (plan, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Hits are indistinguishable from a fresh optimization.
    #[test]
    fn cache_hits_return_byte_identical_plans(seed in 0u64..1_000) {
        let model = CostModel::new(presets::tiny_smp(2));
        let (plan, stats) = scenario(seed);
        let mut cache = PlanCache::new();
        let key = (plan.fingerprint(), 0);
        let cached = cache
            .get_or_optimize(key, &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        let hit = cache
            .get_or_optimize(key, &plan, || panic!("hit must not optimize"))
            .unwrap();
        let fresh = optimize_and_lower(&model, &plan, &stats).unwrap();
        // The hit is the cached object itself...
        prop_assert!(Arc::ptr_eq(&cached, &hit));
        // ...and the cached object equals a fresh optimization bit for
        // bit: same physical plan, same predicted numbers, same
        // composed pattern (region identities are fresh per run, so
        // compare the rendered pattern).
        prop_assert_eq!(&fresh.plan, &hit.plan);
        prop_assert_eq!(fresh.mem_ns, hit.mem_ns);
        prop_assert_eq!(fresh.cpu_ns, hit.cpu_ns);
        prop_assert_eq!(fresh.ops, hit.ops);
        prop_assert_eq!(fresh.pattern.to_string(), hit.pattern.to_string());
        prop_assert_eq!(cache.optimizer_runs(), 1);
    }

    /// (b) Epoch bumps — and only epoch bumps — force re-optimization.
    #[test]
    fn drift_past_threshold_forces_reoptimization(seed in 0u64..1_000) {
        let model = CostModel::new(presets::tiny_smp(2));
        let (plan, stats) = scenario(seed);
        let mut catalog = StatsCatalog::new(stats);
        let mut cache = PlanCache::new();
        let lookup = |cache: &mut PlanCache, catalog: &StatsCatalog| {
            cache
                .get_or_optimize((plan.fingerprint(), catalog.epoch()), &plan, || {
                    optimize_and_lower(&model, &plan, catalog.tables())
                })
                .unwrap()
        };
        lookup(&mut cache, &catalog);
        prop_assert_eq!(cache.optimizer_runs(), 1);
        // A +10% refresh stays under the 20% threshold: same epoch,
        // cached plan reused.
        let t0 = catalog.tables()[0].clone();
        let small = TableStats::uniform(t0.n + t0.n / 10, t0.w, t0.key_bound, t0.sorted);
        prop_assert!(!catalog.update(0, small));
        lookup(&mut cache, &catalog);
        prop_assert_eq!(cache.optimizer_runs(), 1);
        // A 3× blowup drifts past it: new epoch, fresh optimization.
        let t0 = catalog.tables()[0].clone();
        let big = TableStats::uniform(t0.n * 3, t0.w, t0.key_bound, t0.sorted);
        prop_assert!(catalog.update(0, big));
        lookup(&mut cache, &catalog);
        prop_assert_eq!(cache.optimizer_runs(), 2);
        // Retiring the stale epoch leaves exactly the live entry.
        cache.retire_epochs_before(catalog.epoch());
        prop_assert_eq!(cache.len(), 1);
    }
}

/// (c) Build-side sharing is invisible in the results: a service where
/// later queries reuse the first query's hash-join build produces
/// byte-identical output (same FNV over the output relation's bytes) to
/// fresh one-query-per-service runs where sharing cannot engage.
#[test]
fn shared_builds_keep_results_byte_identical() {
    // Sized so the optimizer picks a plain hash join on the modern SMP
    // (the shape the registry shares); cuts vary the probe input only.
    let cuts = [120u64, 180, 240, 300, 360];
    let mut wl = Workload::new(314);
    let star = wl.star_scenario(8_000, 1_000, 1);
    let query = |cut: u64| {
        LogicalPlan::scan(0)
            .select_lt(cut)
            .join(LogicalPlan::scan(1))
            .group_count()
    };

    // Control: each query alone in a fresh service — the single
    // submission is the build's first requester, so it keeps its
    // charged build phase and nothing is reused.
    let control: Vec<(u64, u64)> = cuts
        .iter()
        .map(|&cut| {
            let mut svc = QueryService::new(presets::modern_smp(4));
            svc.register_table("F", star.fact.clone(), 8);
            svc.register_table("D", star.dims[0].clone(), 8);
            svc.submit(query(cut)).unwrap();
            svc.run().unwrap();
            let m = svc.metrics();
            assert_eq!(m.builds_reused, 0, "a lone query cannot reuse");
            (m.queries[0].output_n, m.queries[0].output_hash)
        })
        .collect();

    // Shared: all five queries through one service. The first
    // submission registers the dim build, the other four reuse it.
    let mut svc = QueryService::new(presets::modern_smp(4));
    svc.register_table("F", star.fact.clone(), 8);
    svc.register_table("D", star.dims[0].clone(), 8);
    let ids: Vec<u64> = cuts
        .iter()
        .map(|&c| svc.submit(query(c)).unwrap())
        .collect();
    svc.run().unwrap();
    let m = svc.metrics();
    assert_eq!(m.builds_built, 1, "one build per (table, epoch)");
    assert!(
        m.builds_reused >= cuts.len() as u64 - 1,
        "later queries must reuse: {} reuses",
        m.builds_reused
    );
    for (i, id) in ids.iter().enumerate() {
        let q = m.queries.iter().find(|q| q.id == *id).unwrap();
        assert_eq!(q.output_n, control[i].0, "cardinality (cut {})", cuts[i]);
        assert_eq!(
            q.output_hash, control[i].1,
            "bytes must be identical with and without sharing (cut {})",
            cuts[i]
        );
    }
}

/// The service end of the same guarantees: repeated submissions of one
/// plan shape optimize once, across executor-pool activity.
#[test]
fn service_submissions_share_cached_plans() {
    let mut svc = QueryService::new(presets::tiny_smp(4));
    let mut wl = Workload::new(91);
    let star = wl.star_scenario(2_000, 400, 1);
    svc.register_table("F", star.fact, 8);
    svc.register_table("D", star.dims[0].clone(), 8);
    let q = LogicalPlan::scan(0)
        .select_lt(200)
        .join(LogicalPlan::scan(1))
        .group_count();
    for _ in 0..6 {
        svc.submit(q.clone()).unwrap();
    }
    svc.run().unwrap();
    let m = svc.metrics().clone();
    assert_eq!(m.optimizer_runs, 1);
    assert_eq!(m.queries.len(), 6);
    // Identical queries produce identical results wherever they ran.
    let n0 = m.queries[0].output_n;
    assert!(m.queries.iter().all(|qr| qr.output_n == n0));
}
