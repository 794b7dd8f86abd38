//! Fixed-size probes of single layers, run by every traced run: calls
//! too short to time one by one (a frame encode, a trie lookup) are
//! timed in batches, and layers a workload does not reach still get
//! their number from the same inputs on every workload. Table data
//! comes from the seed; sizes never do.

use crate::stats::{median, percentile_sorted};
use crate::workload;
use gcm_core::{CacheState, CostModel, CpuCost, Pattern, Region};
use gcm_engine::ops::{aggregate, hash, scan};
use gcm_engine::plan::{explain_analyze, optimize_and_lower, ExplainNode, LogicalPlan};
use gcm_engine::{ExecContext, MemoryBackend};
use gcm_net::wire::{
    encode_response, encode_submit, Frame, FrameDecoder, ResponseFrame, SubmitFrame,
};
use gcm_service::{derive_stats, plan_for, QueryService, ServiceConfig, SloPolicy};
use gcm_workload::{QueryRequest, TenantClass, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

const BATCHES: usize = 9;

/// Median over `BATCHES` of (batch wall ÷ `per_batch` calls), ns.
fn batch_ns(per_batch: usize, mut batch: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&per_call)
}

/// Median wall of `reps` single calls, ns.
fn call_ns<T>(reps: usize, mut call: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(call());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&walls)
}

fn wire(out: &mut Values) {
    const N: usize = 20_000;
    let submit = SubmitFrame {
        id: 7,
        tenant: 1,
        class: TenantClass::ScanHeavy,
        selectivity_bits: 0.5f64.to_bits(),
    };
    let served = ResponseFrame::Served {
        id: 7,
        output_n: 1_024,
        output_hash: 0x9e37_79b9_7f4a_7c15,
        sojourn_ns: 400_000,
    };
    let mut bytes = Vec::with_capacity(64 * N);
    let encode = batch_ns(2 * N, || {
        bytes.clear();
        for _ in 0..N {
            encode_submit(black_box(&submit), &mut bytes);
            encode_response(black_box(&served), &mut bytes);
        }
        black_box(&bytes);
    });
    let decode = batch_ns(2 * N, || {
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let mut n = 0usize;
        while let Ok(Some(frame)) = dec.next() {
            if matches!(frame, Frame::Response(_)) {
                n += 1;
            }
        }
        assert_eq!(black_box(n), N);
    });
    out.insert("net.wire.encode_ns", encode);
    out.insert("net.wire.decode_ns", decode);
}

fn trie(out: &mut Values) {
    use gcm_trie::TrieMap;
    let n = workload::CHURN_PLANS as u64;
    let key = |i: u64| (gcm_engine::ops::mix(i), i % 4);
    let map: TrieMap<(u64, u64), u64> = TrieMap::new();
    for i in 0..n {
        map.insert(key(i), i);
    }
    let get = batch_ns(n as usize, || {
        for i in 0..n {
            black_box(map.get(&key(i)));
        }
    });
    // Inserts into a map of 1,536: 256 fresh keys, removed again outside
    // the clock so every batch meets the same map.
    let extra = 256u64;
    let insert: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in n..n + extra {
                map.insert(key(i), i);
            }
            let ns = t0.elapsed().as_nanos() as f64 / extra as f64;
            for i in n..n + extra {
                map.remove(&key(i));
            }
            ns
        })
        .collect();
    let snapshot = batch_ns(1_024, || {
        for _ in 0..1_024 {
            black_box(map.snapshot().len());
        }
    });
    out.insert("trie.get_ns", get);
    out.insert("trie.insert_ns", median(&insert));
    out.insert("trie.snapshot_ns", snapshot);
}

/// The three plan shapes at `plan_churn`'s sizes: optimizer and pricing.
fn planning(seed: u64, out: &mut Values) {
    let d = workload::def("plan_churn").expect("declared workload");
    let inputs = workload::inputs(d, seed);
    let stats = [derive_stats(&inputs.fact, 8), derive_stats(&inputs.dim, 8)];
    let spec = workload::spec();
    let plan_model = CostModel::new(spec.thread_view(1));
    let batch_model = CostModel::new(spec);
    let t = workload::serve_tenants(d)[0];
    let shape = |class: TenantClass, selectivity: f64| {
        plan_for(
            &QueryRequest {
                tenant: 0,
                class,
                selectivity,
            },
            &t,
        )
    };
    let mut patterns: Vec<Pattern> = Vec::new();
    for (name, class, sel) in [
        ("engine.optimize_point_ns", TenantClass::PointLookup, 0.01),
        ("engine.optimize_scan_ns", TenantClass::ScanHeavy, 0.5),
        ("engine.optimize_join_ns", TenantClass::JoinHeavy, 0.25),
    ] {
        let plan: LogicalPlan = shape(class, sel);
        let ns = call_ns(65, || {
            optimize_and_lower(&plan_model, &plan, &stats).expect("shape optimizes")
        });
        out.insert(name, ns);
        patterns.push(
            optimize_and_lower(&plan_model, &plan, &stats)
                .expect("shape optimizes")
                .pattern,
        );
    }
    let join = patterns.pop().expect("three shapes");
    let scan = patterns.pop().expect("three shapes");
    out.insert(
        "core.price_plan_ns",
        call_ns(257, || plan_model.report(&join).mem_ns),
    );
    let pair = [scan, join];
    out.insert(
        "core.price_batch2_ns",
        call_ns(257, || {
            batch_model.batch_cost(&pair, &CacheState::cold()).wall_ns()
        }),
    );
}

struct OpRun {
    name: &'static str,
    tuples: u64,
    elapsed_ns: f64,
    total_ns: f64,
    predicted_ns: f64,
}

/// The five operators over `fact`/`dim`, each measured by the context
/// and priced from the pattern the operator describes itself with.
fn run_ops<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    fact: &[u64],
    dim: &[u64],
    model: &CostModel,
) -> Vec<OpRun> {
    let cpu = CpuCost::default_planner();
    let per_op = CpuCost::DEFAULT_PLANNER_PER_OP_NS;
    let f = ctx.relation_from_keys("F", fact, 8);
    let d = ctx.relation_from_keys("D", dim, 8);
    let cut = dim.len() as u64 / 2;
    let mut runs = Vec::with_capacity(5);
    let mut push = |name, tuples, stats: gcm_engine::RunStats<B>, pattern: Pattern| {
        runs.push(OpRun {
            name,
            tuples,
            elapsed_ns: stats.elapsed_ns(),
            total_ns: stats.total_ns(per_op),
            predicted_ns: cpu.eq61_ns(model.mem_ns(&pattern), stats.ops),
        });
    };

    let (_, st) = ctx.measure(|c| scan::scan_sum(c, &f, 8));
    push("scan", f.n(), st, scan::scan_pattern(f.region(), 8));

    let (sel, st) = ctx.measure(|c| scan::select_lt(c, &f, cut, "S"));
    push(
        "select",
        f.n(),
        st,
        scan::select_pattern(f.region(), sel.region()),
    );

    let (table, st) = ctx.measure(|c| hash::build_hash(c, &d, "H"));
    push(
        "hash_build",
        d.n(),
        st,
        hash::build_hash_pattern(d.region(), table.region()),
    );

    let (joined, st) = ctx.measure(|c| hash::hash_join_with_table(c, &f, &table, "W", 16));
    push(
        "hash_probe",
        f.n(),
        st,
        hash::probe_hash_pattern(f.region(), table.region(), joined.region()),
    );

    let (grouped, st) = ctx.measure(|c| aggregate::hash_group_count(c, &f, "G"));
    let h = Region::new("H(G)", hash::table_slots(grouped.n()), hash::ENTRY_BYTES);
    push(
        "group_count",
        f.n(),
        st,
        aggregate::hash_group_pattern(f.region(), &h, grouped.region()),
    );
    runs
}

/// Operators at `exec_large` sizes on both backends, and the cost of
/// bringing up a native context with the tables loaded.
fn operators(seed: u64, out: &mut Values) {
    let d = workload::def("exec_large").expect("declared workload");
    let star = Workload::new(seed).star_scenario(d.fact_n, d.dim_n, 1);
    let (fact, dim) = (&star.fact, &star.dims[0]);
    let model = CostModel::new(workload::spec().thread_view(1));
    let table_bytes = 8 * (fact.len() + dim.len());

    // Native: the median of three fresh contexts per operator.
    let mut native: Vec<Vec<OpRun>> = Vec::new();
    let mut setup_ns = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut ctx = ExecContext::native_with_capacity(4 * table_bytes);
        let f = ctx.relation_from_keys("F", fact, 8);
        let dd = ctx.relation_from_keys("D", dim, 8);
        black_box((f, dd));
        setup_ns.push(t0.elapsed().as_nanos() as f64);
        drop(ctx);
        let mut ctx = ExecContext::native_with_capacity(6 * table_bytes);
        native.push(run_ops(&mut ctx, fact, dim, &model));
    }
    let mib = table_bytes as f64 / (1 << 20) as f64;
    out.insert("engine.ctx_setup_ns_per_mib", median(&setup_ns) / mib);

    let mut ctx = ExecContext::new(workload::spec().thread_view(1));
    let sim = run_ops(&mut ctx, fact, dim, &model);

    // The map is keyed by the declared names themselves.
    let declared = |op: &str, what: &str| {
        crate::manifest::layer(&format!("engine.op.{op}.{what}"))
            .expect("operator metrics are declared")
            .name
    };
    for (i, sim_run) in sim.iter().enumerate() {
        let walls: Vec<f64> = native.iter().map(|r| r[i].elapsed_ns).collect();
        let wall = median(&walls);
        let op = sim_run.name;
        out.insert(declared(op, "ns_per_tuple"), wall / sim_run.tuples as f64);
        out.insert(
            declared(op, "native_ratio"),
            wall / native[0][i].predicted_ns,
        );
        out.insert(
            declared(op, "sim_ratio"),
            sim_run.total_ns / sim_run.predicted_ns,
        );
    }
}

fn walk<'a>(node: &'a ExplainNode, visit: &mut impl FnMut(&'a ExplainNode)) {
    visit(node);
    for c in &node.children {
        walk(c, visit);
    }
}

/// The join query at `model_sim` sizes through `explain_analyze` on the
/// simulator: how fast the simulator runs, and how far the model's
/// per-level miss counts sit from the counted ones.
fn simulator(seed: u64, out: &mut Values) {
    let d = workload::def("model_sim").expect("declared workload");
    let star = Workload::new(seed).star_scenario(d.fact_n, d.dim_n, 1);
    let stats = [derive_stats(&star.fact, 8), derive_stats(&star.dims[0], 8)];
    let view = workload::spec().thread_view(1);
    let model = CostModel::new(view.clone());
    let plan = LogicalPlan::scan(0)
        .select_lt(d.dim_n as u64 / 2)
        .join(LogicalPlan::scan(1))
        .group_count();
    let planned = optimize_and_lower(&model, &plan, &stats).expect("join optimizes");
    let mut ctx = ExecContext::new(view);
    let rels = [
        ctx.relation_from_keys("F", &star.fact, 8),
        ctx.relation_from_keys("D", &star.dims[0], 8),
    ];
    let t0 = Instant::now();
    let (_, report) = explain_analyze(
        &mut ctx,
        &planned.plan,
        &rels,
        &model,
        &CpuCost::default_planner(),
        CpuCost::DEFAULT_PLANNER_PER_OP_NS,
    )
    .expect("join runs on the simulator");
    let wall_ns = t0.elapsed().as_nanos() as f64;

    let mut accesses = 0u64;
    let mut counted: BTreeMap<String, f64> = BTreeMap::new();
    let mut predicted: BTreeMap<String, f64> = BTreeMap::new();
    walk(&report.root, &mut |n| {
        if let (Some(m), Some(p)) = (&n.measured, &n.predicted) {
            accesses += m.accesses.unwrap_or(0);
            for (level, misses) in &m.level_misses {
                *counted.entry(level.clone()).or_default() += *misses as f64;
            }
            for (level, misses) in &p.level_misses {
                *predicted.entry(level.clone()).or_default() += misses;
            }
        }
    });
    out.insert("sim.accesses", accesses as f64);
    out.insert("sim.access_ns", wall_ns / accesses.max(1) as f64);
    for (name, level) in [
        ("sim.miss_err.L1", "L1"),
        ("sim.miss_err.L2", "L2"),
        ("sim.miss_err.L3", "L3"),
        ("sim.miss_err.TLB", "TLB"),
    ] {
        let c = counted.get(level).copied().unwrap_or(0.0);
        let p = predicted.get(level).copied().unwrap_or(0.0);
        out.insert(name, (p - c).abs() / c.max(1.0));
    }
}

fn calibrator(out: &mut Values) {
    let t0 = Instant::now();
    black_box(gcm_calibrate::calibrate_host(64 << 20));
    out.insert("calibrate.host_s", t0.elapsed().as_secs_f64());

    let spec = gcm_hardware::presets::origin2000();
    let report = gcm_calibrate::Calibrator::new(spec.clone(), 16 << 20).run();
    let mut worst = 0.0f64;
    let mut see = |configured: f64, calibrated: f64| {
        worst = worst.max((calibrated - configured).abs() / configured);
    };
    for (lvl, got) in spec
        .levels()
        .iter()
        .filter(|l| l.kind == gcm_hardware::LevelKind::Cache)
        .zip(&report.caches)
    {
        see(lvl.capacity as f64, got.capacity as f64);
        see(lvl.line as f64, got.line as f64);
        see(lvl.seq_miss_ns, got.seq_miss_ns);
        see(lvl.rand_miss_ns, got.rand_miss_ns);
    }
    if let (Some(lvl), Some(got)) = (spec.level("TLB"), &report.tlb) {
        see(lvl.lines() as f64, got.entries as f64);
        see(lvl.line as f64, got.page as f64);
        see(lvl.seq_miss_ns, got.miss_ns);
    }
    out.insert("calibrate.sim_param_err", worst);
}

fn histogram(out: &mut Values) {
    const N: usize = 100_000;
    let mut h = gcm_obs::Histogram::new();
    let ns = batch_ns(N, || {
        for i in 0..N as u64 {
            h.record(black_box(1_000 + 37 * i));
        }
    });
    black_box(h.count());
    out.insert("obs.hist_record_ns", ns);
}

/// `next_batch_at` over a queue of 64: the pricing loop at a depth the
/// closed-loop workloads never build up.
fn deep_admission(seed: u64, out: &mut Values) {
    let d = workload::def("serve_small").expect("declared workload");
    let inputs = workload::inputs(d, seed);
    let (mut svc, _) = workload::service(d, &inputs);
    svc.set_slo(Some(SloPolicy::uniform(60e9)));
    let mut walls = Vec::new();
    for _ in 0..15 {
        for &key in inputs.order.iter().take(64) {
            let q = &inputs.distinct[key];
            svc.submit_classed(q.plan.clone(), q.class, 0)
                .expect("registered tables");
        }
        let t0 = Instant::now();
        let first = svc.next_batch_at(0);
        walls.push(t0.elapsed().as_nanos() as f64);
        black_box(first);
        while svc.next_batch_at(0).1.is_some() {}
    }
    out.insert("service.admit_deep_ns", median(&walls));
}

/// The 2× overload replay of the `service_latency` bench on the
/// simulated clock: Poisson arrivals at twice the nominal rate against
/// a sojourn budget of ten solo times. Everything here is charged
/// nanoseconds, so both numbers repeat exactly for a seed.
fn overload_replay(seed: u64, out: &mut Values) {
    const REQUESTS: usize = 64;
    const FACT_N: usize = 60_000;
    const DIM_N: usize = 4_000;
    let tenants = [
        TenantClass::PointLookup,
        TenantClass::ScanHeavy,
        TenantClass::JoinHeavy,
    ];
    let build = |slo: Option<SloPolicy>| {
        let cfg = ServiceConfig {
            slo,
            ..ServiceConfig::default()
        };
        let mut svc = QueryService::with_config(workload::spec(), cfg);
        svc.set_tracing(false);
        let star = Workload::new(seed).star_scenario(FACT_N, DIM_N, 1);
        let fact = svc.register_table("F", star.fact, 8);
        let dim = svc.register_table("D", star.dims[0].clone(), 8);
        let t = gcm_service::TenantTables {
            fact,
            dim,
            key_bound: DIM_N as u64,
        };
        (svc, t)
    };

    // Mean solo service time of the three shapes, charged ns.
    let (mut svc, t) = build(None);
    for (tenant, &class) in tenants.iter().enumerate() {
        let req = QueryRequest {
            tenant,
            class,
            selectivity: 0.25,
        };
        svc.submit(plan_for(&req, &t)).expect("shape plans");
    }
    svc.run().expect("solo runs");
    let solo_ns = {
        let q = &svc.metrics().queries;
        q.iter().map(|r| r.measured_ns).sum::<f64>() / q.len() as f64
    };

    let (mut svc, t) = build(Some(SloPolicy::uniform(10.0 * solo_ns)));
    let mut wl = Workload::new(seed ^ 0x2002);
    let reqs = wl.query_mix(REQUESTS, &tenants, 0.8);
    // Nominal is 80% utilisation; the replay offers twice that.
    let arrivals = wl.poisson_arrivals(REQUESTS, solo_ns / 0.8 / 2.0);
    let mut arrived: BTreeMap<u64, (TenantClass, u64)> = BTreeMap::new();
    let (mut now, mut next, mut shed) = (0u64, 0usize, 0usize);
    let mut point_sojourns: Vec<u64> = Vec::new();
    while next < reqs.len() || svc.queue_len() > 0 {
        while next < reqs.len() && arrivals[next] <= now {
            let r = &reqs[next];
            let id = svc
                .submit_classed(plan_for(r, &t), r.class, arrivals[next])
                .expect("registered tables");
            arrived.insert(id, (r.class, arrivals[next]));
            next += 1;
        }
        if svc.queue_len() == 0 {
            now = arrivals[next];
            continue;
        }
        let (shed_now, batch) = svc.next_batch_at(now);
        shed += shed_now.len();
        let Some(batch) = batch else { continue };
        let ids = batch.ids();
        let idx = svc.execute_batch(batch).expect("batch runs");
        now += svc.metrics().batches[idx].measured_wall_ns.round() as u64;
        for id in ids {
            let (class, at) = arrived[&id];
            if class == TenantClass::PointLookup {
                point_sojourns.push(now - at);
            }
        }
    }
    point_sojourns.sort_unstable();
    out.insert("service.shed_share_2x", shed as f64 / REQUESTS as f64);
    out.insert(
        "service.shed_point_tail_model_ms",
        percentile_sorted(&point_sojourns, 0.95) as f64 / 1e6,
    );
}

/// Every probe that needs no server. The net probe lives with the rig
/// (`run::net_layer`), because `serve_small` runs it on its own server.
pub fn run_all(seed: u64) -> Values {
    let mut out = Values::new();
    wire(&mut out);
    trie(&mut out);
    histogram(&mut out);
    planning(seed, &mut out);
    deep_admission(seed, &mut out);
    operators(seed, &mut out);
    simulator(seed, &mut out);
    overload_replay(seed, &mut out);
    calibrator(&mut out);
    out
}
