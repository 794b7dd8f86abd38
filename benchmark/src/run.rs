//! One run of one workload: references first, then the system is set
//! up, warmed, and driven through identical timed passes.
//!
//! With `--trace 0` the run reports the end-to-end metrics. Set-up is
//! done five times over (the contract's rule for a steady `setup_s`;
//! the last system is the one measured) and passes repeat until
//! `--seconds` is used up. With `--trace 1` it sets up once, runs a
//! fixed number of passes with the span recorder alternately off and
//! on, adds the fixed-size layer probes, and reports the per-layer
//! metrics.

use crate::inproc::{self, Flipper};
use crate::oracle::{self, Oracle};
use crate::pass::Pass;
use crate::probes::{self, Values};
use crate::serve::{Rig, Stopped};
use crate::spans::{self, Tracer};
use crate::stats::{self, median, percentile_sorted, samples_beyond};
use crate::workload::{self, Def, Exec, Inputs, Kind, Tail};
use crate::{manifest, workload::SERVE_CLIENTS};
use gcm_core::CostModel;
use gcm_engine::plan::optimize_and_lower;
use gcm_service::QueryService;
use std::time::Instant;

pub struct Args {
    pub def: &'static Def,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up and one timed pass: the smoke test of `check.sh`.
    pub quick: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, beyond failed requests.
    pub faults: Vec<String>,
    /// Declared name → value, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the reader: percentile and sample count of the tail,
    /// passes run, in-flight counts held.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }
}

/// Set-ups of an end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Requests of the one-in-flight and replay passes of the net probe.
const PROBE_REQUESTS: usize = 2_000;

#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    tables_s: f64,
    register_s: f64,
    start_s: f64,
    warm_s: f64,
    total_s: f64,
}

/// The system a workload measures.
enum System {
    Inproc {
        svc: Box<QueryService>,
        flipper: Option<Flipper>,
    },
    Served(Rig),
}

impl System {
    fn pass(
        &mut self,
        def: &Def,
        inputs: &Inputs,
        order: &[usize],
        oracle: &Oracle,
        lanes: &mut [Tracer],
        first_id: u64,
    ) -> Pass {
        match self {
            System::Inproc { svc, flipper } => inproc::run_pass(
                svc,
                def,
                inputs,
                order,
                oracle,
                flipper.as_mut(),
                &mut lanes[0],
                first_id,
            ),
            System::Served(rig) => rig.pass(
                inputs,
                order,
                oracle,
                def.window,
                first_id,
                &mut lanes[..SERVE_CLIENTS],
            ),
        }
    }
}

/// Tables, registration, server start and the warm pass.
fn set_up(
    def: &Def,
    seed: u64,
    oracle: &Oracle,
    lanes: &mut [Tracer],
) -> Result<(System, Inputs, SetupTimes, Pass), String> {
    let t0 = Instant::now();
    let inputs = workload::inputs(def, seed);
    let tables_s = t0.elapsed().as_secs_f64();
    let (svc, register_s) = workload::service(def, &inputs);
    let (mut system, start_s) = if def.kind == Kind::ServeSmall {
        let rig = Rig::start(svc, workload::serve_tenants(def), SERVE_CLIENTS)
            .map_err(|e| format!("server start: {e}"))?;
        let start_s = rig.start_s;
        (System::Served(rig), start_s)
    } else {
        let flipper = def.flip_every.map(|_| Flipper::new(&inputs));
        (
            System::Inproc {
                svc: Box::new(svc),
                flipper,
            },
            0.0,
        )
    };
    let warm_order = workload::warm_order(def, &inputs);
    let t_warm = Instant::now();
    let warm = system.pass(def, &inputs, &warm_order, oracle, lanes, 0);
    let times = SetupTimes {
        tables_s,
        register_s,
        start_s,
        warm_s: t_warm.elapsed().as_secs_f64(),
        total_s: t0.elapsed().as_secs_f64(),
    };
    Ok((system, inputs, times, warm))
}

/// Wire ids and trace request numbers of pass `p` start here.
fn first_id(p: usize) -> u64 {
    (p as u64 + 1) << 32
}

// Pass numbers of the traced run's extra passes, clear of the timed
// passes' 0, 1, 2, …: they tell the passes apart in the span file.
const IDLE_PASS: usize = 1_000;
const IDLE_REPLAY_PASS: usize = 1_001;
const WINDOW_REPLAY_PASS: usize = 1_002;
const CHURN_NATIVE_PASS: usize = 1_003;
const PROBE_WINDOWED_PASS: usize = 1_004;
const TOP_UP_PASS: usize = 1_005;

fn p50_ns(latencies: &[u64]) -> f64 {
    let mut v = latencies.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, 0.5) as f64
}

/// `p50_ns`, or NaN where a traced run recorded no sample — which the
/// run then reports as a fault instead of a number.
fn samples_p50(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        p50_ns(samples)
    }
}

/// `plan_churn`'s answer check: what the cache serves for a plan is
/// what a fresh optimization at the current epoch produces. Every 64th
/// request of the sequence, on both versions of the fact table.
fn check_cached_plans(
    svc: &mut QueryService,
    flipper: &mut Flipper,
    inputs: &Inputs,
) -> (u64, u64) {
    let model = CostModel::new(workload::spec().thread_view(1));
    let mut off = Tracer::new(false, Instant::now(), 0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _version in 0..2 {
        for &key in inputs.order.iter().step_by(64) {
            let q = &inputs.distinct[key];
            attempted += 1;
            let cached = svc
                .submit_classed(q.plan.clone(), q.class, 0)
                .ok()
                .and_then(|_| svc.next_batch_at(0).1)
                .map(|batch| batch.plans()[0].to_string());
            let snap = svc.catalog().snapshot();
            let fresh = optimize_and_lower(&model, &q.plan, snap.tables())
                .ok()
                .map(|p| p.plan.to_string());
            if cached.is_none() || cached != fresh {
                failed += 1;
            }
        }
        flipper.flip(svc, &mut off);
    }
    (attempted, failed)
}

fn tear_down(system: System) -> Option<Stopped> {
    match system {
        System::Inproc { .. } => None,
        System::Served(rig) => Some(rig.stop()),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let def = args.def;
    let epoch = Instant::now();
    // A workload without a server of its own gets the net layer's
    // numbers from a small one, first thing: the probe is the same on
    // every workload only while the process is still the same.
    let mut net = NetProbe::default();
    if args.trace && def.kind != Kind::ServeSmall {
        net = net_probe(args.seed, epoch)?;
    }
    // References, before anything measured exists. Their memory is
    // handed back and the peak restarted so `peak_rss_mb` describes the
    // system, not its checker.
    let oracle = {
        let inputs = workload::inputs(def, args.seed);
        oracle::build(def, &inputs)?
    };
    let peak_reset = stats::reset_peak_rss();
    if args.trace {
        traced(args, epoch, &oracle, net)
    } else {
        end_to_end(args, epoch, &oracle, peak_reset)
    }
}

fn end_to_end(
    args: &Args,
    epoch: Instant,
    oracle: &Oracle,
    peak_reset: bool,
) -> Result<Outcome, String> {
    let def = args.def;
    let mut lanes: Vec<Tracer> = (0..SERVE_CLIENTS as u32)
        .map(|l| Tracer::new(false, epoch, l))
        .collect();
    // Request counts of the whole run, warm passes included.
    let mut totals = Pass::default();
    let mut faults = Vec::new();
    let mut notes = Vec::new();

    let setups = if args.quick { 1 } else { SETUPS };
    let mut setup_totals = Vec::with_capacity(setups);
    let mut current: Option<(System, Inputs, SetupTimes)> = None;
    for _ in 0..setups {
        if let Some((system, ..)) = current.take() {
            tear_down(system);
        }
        let (system, inputs, times, warm) = set_up(def, args.seed, oracle, &mut lanes)?;
        totals.count(&warm);
        setup_totals.push(times.total_s);
        current = Some((system, inputs, times));
    }
    let (mut system, inputs, _) = current.expect("at least one set-up");

    // Identical timed passes until the time is used up.
    let (min_passes, max_passes) = if args.quick {
        (1, 1)
    } else {
        (def.min_passes, def.max_passes)
    };
    let t_timed = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls_s: Vec<f64> = Vec::new();
    loop {
        let p = system.pass(
            def,
            &inputs,
            &inputs.order,
            oracle,
            &mut lanes,
            first_id(passes.len()),
        );
        if let Some(fault) = p.generator_fault() {
            faults.push(format!("pass {}: {fault}", passes.len()));
        }
        // Wall time, whatever clock the pass itself reads.
        walls_s.push(p.wall_ns as f64 / 1e9);
        passes.push(p);
        let typical_s = median(&walls_s);
        let used_s = t_timed.elapsed().as_secs_f64();
        let enough = passes.len() >= min_passes && used_s + typical_s > args.seconds;
        if enough || passes.len() >= max_passes {
            break;
        }
    }
    let timed_s = t_timed.elapsed().as_secs_f64();

    if let System::Inproc {
        svc,
        flipper: Some(flipper),
    } = &mut system
    {
        let (a, f) = check_cached_plans(svc.as_mut(), flipper, &inputs);
        notes.push(format!(
            "cached plans checked against fresh ones: {a}, differing: {f}"
        ));
        totals.attempted += a;
        totals.wrong += f;
    }
    tear_down(system);

    for p in &passes {
        totals.count(p);
    }
    let (attempted, failed) = (totals.attempted, totals.failed());
    if failed > 0 {
        notes.push(format!(
            "failed requests: {} shed, {} answered wrongly, {} never answered",
            totals.shed, totals.wrong, totals.lost
        ));
    }
    let qps = median(&passes.iter().map(Pass::qps).collect::<Vec<_>>());
    let p50_ms = median(
        &passes
            .iter()
            .map(|p| p50_ns(&p.latencies) / 1e6)
            .collect::<Vec<_>>(),
    );
    let tail_ms = match def.tail {
        Tail::PerPassP99 => {
            let per_pass: Vec<f64> = passes
                .iter()
                .map(|p| {
                    let mut v = p.latencies.clone();
                    v.sort_unstable();
                    percentile_sorted(&v, 0.99) as f64 / 1e6
                })
                .collect();
            let n = passes[0].latencies.len();
            notes.push(format!(
                "tail_ms: p99 of each pass ({n} samples, {} beyond), median over {} passes",
                samples_beyond(n, 0.99),
                passes.len()
            ));
            median(&per_pass)
        }
        Tail::PooledP95 => {
            let mut pooled: Vec<u64> = passes
                .iter()
                .flat_map(|p| p.latencies.iter().copied())
                .collect();
            pooled.sort_unstable();
            notes.push(format!(
                "tail_ms: p95 of {} pooled samples ({} beyond) from {} passes",
                pooled.len(),
                samples_beyond(pooled.len(), 0.95),
                passes.len()
            ));
            percentile_sorted(&pooled, 0.95) as f64 / 1e6
        }
    };
    let model_err = if def.exec == Exec::Sim {
        // Every timed pass makes the same simulated accesses, so the
        // per-pass values are one number; the median keeps it exact
        // whatever the pass count.
        median(
            &passes
                .iter()
                .filter_map(|p| p.model_err)
                .collect::<Vec<_>>(),
        )
    } else {
        oracle.model_err
    };
    if def.kind == Kind::ServeSmall {
        let held = median(&passes.iter().map(|p| p.inflight_mean).collect::<Vec<_>>());
        let busy = median(&passes.iter().map(|p| p.busy_share).collect::<Vec<_>>());
        notes.push(format!(
            "loadgen: {held:.2} requests in flight held (of {}), client busy share {busy:.3}",
            SERVE_CLIENTS * def.window
        ));
    }
    notes.push(format!(
        "per-pass qps: {:?}",
        passes.iter().map(|p| p.qps().round()).collect::<Vec<_>>()
    ));
    notes.push(format!(
        "per-pass p50 ms: {:?}",
        passes
            .iter()
            .map(|p| (p50_ns(&p.latencies) / 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    notes.push(format!(
        "{} timed passes in {timed_s:.1} s; set-up {:?} s; peak restarted after references: {peak_reset}",
        passes.len(),
        setup_totals
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    ));

    let value = |name: &str| match name {
        "setup_s" => median(&setup_totals),
        "qps" => qps,
        "p50_ms" => p50_ms,
        "tail_ms" => tail_ms,
        "ok_share" => (attempted - failed) as f64 / attempted as f64,
        "model_err" => model_err,
        "peak_rss_mb" => stats::peak_rss_mib(),
        other => unreachable!("undeclared end-to-end metric {other}"),
    };
    Ok(Outcome {
        attempted,
        failed,
        faults,
        metrics: manifest::END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name)))
            .collect(),
        notes,
    })
}

/// Net-layer numbers that need a server: one request in flight over
/// the socket against the same sequence in-process. Returns the
/// requests that failed on either path.
fn idle_round_trips(
    rig: &mut Rig,
    serve: &Def,
    inputs: &Inputs,
    oracle: &Oracle,
    (client, replay): (&mut Tracer, &mut Tracer),
    out: &mut Values,
) -> u64 {
    let head = &inputs.order[..PROBE_REQUESTS];
    let idle = rig.pass(
        inputs,
        head,
        oracle,
        1,
        first_id(IDLE_PASS),
        std::slice::from_mut(client),
    );
    // The same sequence without the socket: a fresh service, warmed the
    // same way, one request in flight.
    let one = Def {
        window: 1,
        ..*serve
    };
    let (mut svc, _) = workload::service(&one, inputs);
    let mut off = Tracer::new(false, Instant::now(), 0);
    let warm = workload::warm_order(&one, inputs);
    inproc::run_pass(&mut svc, &one, inputs, &warm, oracle, None, &mut off, 0);
    let inproc = inproc::run_pass(
        &mut svc,
        &one,
        inputs,
        head,
        oracle,
        None,
        replay,
        first_id(IDLE_REPLAY_PASS),
    );
    out.insert("net.idle_rtt_ns", samples_p50(&idle.latencies));
    // One in flight answers in send order, so request i of one pass is
    // request i of the other: the execution they share cancels pair by
    // pair, which a difference of two medians over a two-humped mix
    // (point lookups against scans and joins) would not give.
    let mut path: Vec<f64> = idle
        .latencies
        .iter()
        .zip(&inproc.latencies)
        .map(|(&socket, &direct)| socket as f64 - direct as f64)
        .collect();
    if path.is_empty() {
        path.push(f64::NAN);
    }
    out.insert("net.path_ns", median(&path));
    idle.failed() + inproc.failed()
}

/// What the windowed socket passes say about the net layer. `ids` is
/// the range of wire ids those passes used: the client lanes also hold
/// the one-in-flight pass, which is not this.
fn windowed_net(passes: &[Pass], clients: &[Tracer], ids: std::ops::Range<u64>, out: &mut Values) {
    let sojourns: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.sojourns.iter().copied())
        .collect();
    out.insert("net.sojourn_ns", samples_p50(&sojourns));
    let client_side: Vec<u64> = clients
        .iter()
        .flat_map(|t| t.self_times_of("request", |s| ids.contains(&s.request)))
        .collect();
    out.insert("net.client_side_ns", samples_p50(&client_side));
    out.insert(
        "loadgen.busy_share",
        median(&passes.iter().map(|p| p.busy_share).collect::<Vec<_>>()),
    );
}

fn stopped_net(stopped: &Stopped, start_s: f64, out: &mut Values) {
    out.insert("net.frames_in", stopped.frames_in as f64);
    out.insert("net.responses_served", stopped.responses_served as f64);
    out.insert("net.responses_shed", stopped.responses_shed as f64);
    out.insert("net.start_s", start_s);
    out.insert("net.shutdown_s", stopped.shutdown_s);
}

/// Cache and build counters of a service, for before/after deltas.
fn counters(svc: &QueryService) -> [u64; 6] {
    [
        svc.cache().hits(),
        svc.cache().misses(),
        svc.cache().optimizer_runs(),
        svc.cache().retired(),
        svc.builds().built(),
        svc.builds().reused(),
    ]
}

const COUNTER_NAMES: [&str; 6] = [
    "service.cache_hits",
    "service.cache_misses",
    "service.optimizer_runs",
    "service.plans_retired",
    "service.builds_built",
    "service.builds_reused",
];

/// The net layer measured on a server of `serve_small`'s kind, for the
/// workloads that have none: what it found and the lanes it recorded.
#[derive(Default)]
struct NetProbe {
    values: Values,
    failed: u64,
    faults: Vec<String>,
    lanes: Vec<Tracer>,
}

fn net_probe(seed: u64, epoch: Instant) -> Result<NetProbe, String> {
    let serve = workload::def("serve_small").expect("declared workload");
    let inputs = workload::inputs(serve, seed);
    let oracle = oracle::build(serve, &inputs)?;
    let mut probe = NetProbe::default();
    // Lane 2: the in-process replay. Lanes 3 and 4: the two clients.
    let mut lanes: Vec<Tracer> = (2..5u32).map(|l| Tracer::new(false, epoch, l)).collect();
    let (svc, _) = workload::service(serve, &inputs);
    let mut rig = Rig::start(svc, workload::serve_tenants(serve), SERVE_CLIENTS)
        .map_err(|e| format!("probe server start: {e}"))?;
    let start_s = rig.start_s;
    let (replay, clients) = lanes.split_at_mut(1);
    let warm = workload::warm_order(serve, &inputs);
    probe.failed += rig
        .pass(&inputs, &warm, &oracle, serve.window, 0, clients)
        .failed();
    for t in clients.iter_mut().chain(replay.iter_mut()) {
        t.set_on(true);
    }
    probe.failed += idle_round_trips(
        &mut rig,
        serve,
        &inputs,
        &oracle,
        (&mut clients[0], &mut replay[0]),
        &mut probe.values,
    );
    let windowed = rig.pass(
        &inputs,
        &inputs.order[..PROBE_REQUESTS],
        &oracle,
        serve.window,
        first_id(PROBE_WINDOWED_PASS),
        clients,
    );
    probe.failed += windowed.failed();
    if let Some(fault) = windowed.generator_fault() {
        probe.faults.push(format!("net probe: {fault}"));
    }
    windowed_net(
        &[windowed],
        clients,
        first_id(PROBE_WINDOWED_PASS)..first_id(PROBE_WINDOWED_PASS + 1),
        &mut probe.values,
    );
    stopped_net(&rig.stop(), start_s, &mut probe.values);
    probe.lanes = lanes;
    Ok(probe)
}

fn traced(args: &Args, epoch: Instant, oracle: &Oracle, net: NetProbe) -> Result<Outcome, String> {
    let def = args.def;
    let mut out = net.values;
    let mut faults = net.faults;
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, net.failed);
    // Lanes 0 and 1: the workload's caller or its two clients. Lane 2:
    // serve_small's in-process replays (the net probe brings its own
    // lanes 2 to 4 on the other workloads).
    let mut lanes: Vec<Tracer> = (0..3u32).map(|l| Tracer::new(false, epoch, l)).collect();

    let (mut system, inputs, times, warm) = set_up(def, args.seed, oracle, &mut lanes)?;
    attempted += warm.attempted;
    failed += warm.failed();
    out.insert("setup.tables_s", times.tables_s);
    out.insert("setup.register_s", times.register_s);
    out.insert("setup.warm_pass_s", times.warm_s);

    // serve_small probes its own server.
    if let System::Served(rig) = &mut system {
        let (client, rest) = lanes.split_at_mut(2);
        client[0].set_on(true);
        rest[0].set_on(true);
        failed += idle_round_trips(
            rig,
            def,
            &inputs,
            oracle,
            (&mut client[0], &mut rest[0]),
            &mut out,
        );
        client[0].set_on(false);
        rest[0].set_on(false);
    }

    // Timed passes, the recorder off on even ones and on on odd ones.
    let (cpu0, flt0) = stats::proc_cpu_ms_and_minflt();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_delta = [0u64; 6];
    let traced_passes = if args.quick { 2 } else { def.traced_passes };
    for p in 0..traced_passes {
        let on = p % 2 == 1;
        for lane in &mut lanes[..SERVE_CLIENTS] {
            lane.set_on(on);
        }
        let before = match &system {
            System::Inproc { svc, .. } => counters(svc),
            System::Served(_) => [0; 6],
        };
        let pass = system.pass(def, &inputs, &inputs.order, oracle, &mut lanes, first_id(p));
        if let System::Inproc { svc, .. } = &system {
            let after = counters(svc);
            for i in 0..6 {
                last_delta[i] = after[i] - before[i];
            }
        }
        if let Some(fault) = pass.generator_fault() {
            faults.push(format!("pass {p}: {fault}"));
        }
        attempted += pass.attempted;
        failed += pass.failed();
        passes.push(pass);
    }
    for lane in &mut lanes[..SERVE_CLIENTS] {
        lane.set_on(false);
    }
    let (cpu1, flt1) = stats::proc_cpu_ms_and_minflt();
    let requests = (traced_passes * def.pass_requests) as f64;
    out.insert("proc.cpu_ms_per_query", (cpu1 - cpu0) / requests);
    out.insert("proc.minflt_per_query", (flt1 - flt0) as f64 / requests);
    // Every pass sends the same requests, so the wall time of the
    // passes with the recorder on against those with it off is the
    // price of recording.
    let wall_of = |on: bool| {
        median(
            &passes
                .iter()
                .enumerate()
                .filter(|(p, _)| (p % 2 == 1) == on)
                .map(|(_, pass)| pass.wall_ns as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.insert(
        "obs.trace_overhead_share",
        1.0 - wall_of(false) / wall_of(true),
    );

    // The service layer as the in-process caller sees it. serve_small
    // replays its sequence in-process (spans inside the server are a
    // later issue); the rest already ran in-process above.
    let mut batches = passes.last().map_or(0, |p| p.batches);
    let service_lane = match &mut system {
        System::Served(_) => {
            let replay_def = Def {
                window: SERVE_CLIENTS * def.window,
                ..*def
            };
            let (mut svc, _) = workload::service(&replay_def, &inputs);
            let warm = workload::warm_order(&replay_def, &inputs);
            let head = &inputs.order[..PROBE_REQUESTS];
            inproc::run_pass(
                &mut svc,
                &replay_def,
                &inputs,
                &warm,
                oracle,
                None,
                &mut lanes[2],
                0,
            );
            let before = counters(&svc);
            lanes[2].set_on(true);
            let replay = inproc::run_pass(
                &mut svc,
                &replay_def,
                &inputs,
                head,
                oracle,
                None,
                &mut lanes[2],
                first_id(WINDOW_REPLAY_PASS),
            );
            let after = counters(&svc);
            for i in 0..6 {
                last_delta[i] = after[i] - before[i];
            }
            failed += replay.failed();
            batches = replay.batches;
            out.insert(
                "service.batch_size_mean",
                head.len() as f64 / replay.batches.max(1) as f64,
            );
            top_up(&mut svc, &replay_def, &inputs, oracle, &mut lanes[2]);
            lanes[2].set_on(false);
            2
        }
        System::Inproc { svc, flipper } => {
            out.insert(
                "service.batch_size_mean",
                def.pass_requests as f64 / batches.max(1) as f64,
            );
            lanes[0].set_on(true);
            if let Some(flipper) = flipper {
                // plan_churn drops its batches: run a few natively so
                // the execution spans exist here too.
                let native = Def {
                    exec: Exec::Native,
                    window: 2,
                    flip_every: None,
                    ..*def
                };
                let sample: Vec<usize> = (0..inputs.distinct.len())
                    .step_by(oracle::CHURN_SAMPLE_STRIDE)
                    .collect();
                let extra = inproc::run_pass(
                    svc,
                    &native,
                    &inputs,
                    &sample,
                    oracle,
                    None,
                    &mut lanes[0],
                    first_id(CHURN_NATIVE_PASS),
                );
                failed += extra.failed();
                let (a, f) = check_cached_plans(svc, flipper, &inputs);
                attempted += a;
                failed += f;
            } else {
                top_up(svc, def, &inputs, oracle, &mut lanes[0]);
            }
            lanes[0].set_on(false);
            out.insert("service.wall_scale", svc.wall_scale());
            0
        }
    };
    out.insert("service.batches", batches as f64);
    for (name, delta) in COUNTER_NAMES.iter().zip(last_delta) {
        out.insert(name, delta as f64);
    }
    {
        let lane = &lanes[service_lane];
        let med = |name: &str| samples_p50(&lane.durations(name));
        out.insert("service.submit_hit_ns", med("service.submit_hit"));
        out.insert("service.submit_miss_ns", med("service.submit_miss"));
        out.insert("service.admit_ns", med("service.admit"));
        out.insert("service.update_table_ns", med("service.update_table"));
        out.insert("service.exec_wall_ns", med("service.exec"));
        let walls = lane.durations("service.exec");
        let selfs = lane.self_times_of("service.exec", |_| true);
        out.insert("service.exec_self_ns", samples_p50(&selfs));
        out.insert(
            "service.exec_self_share",
            selfs.iter().sum::<u64>() as f64 / walls.iter().sum::<u64>().max(1) as f64,
        );
    }

    if let Some(stopped) = tear_down(system) {
        windowed_net(
            &passes,
            &lanes[..SERVE_CLIENTS],
            first_id(0)..first_id(traced_passes),
            &mut out,
        );
        stopped_net(&stopped, times.start_s, &mut out);
        out.insert("service.wall_scale", stopped.svc.wall_scale());
    }

    out.extend(probes::run_all(args.seed));

    let path = std::path::Path::new("benchmark/out").join(format!("trace-{}.jsonl", def.name));
    let lane_refs: Vec<&Tracer> = lanes.iter().chain(&net.lanes).collect();
    let written =
        spans::write_jsonl(&path, &lane_refs).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("{written} spans written to {}", path.display()));

    let mut metrics = Vec::with_capacity(manifest::PER_LAYER.len());
    for m in &manifest::PER_LAYER {
        match out.get(m.name) {
            Some(v) if v.is_finite() => metrics.push((m.name, *v)),
            Some(_) => faults.push(format!("{} had no samples", m.name)),
            None => faults.push(format!("{} was not measured", m.name)),
        }
    }
    for name in out.keys() {
        if manifest::layer(name).is_none() {
            faults.push(format!("{name} is measured but not declared"));
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        faults,
        metrics,
        notes,
    })
}

/// Samples a steady workload never produces by itself: flip its fact
/// table to half and back, and after each flip submit every distinct
/// query once — each a plan-cache miss — pricing and dropping the
/// batches.
fn top_up(svc: &mut QueryService, def: &Def, inputs: &Inputs, oracle: &Oracle, tr: &mut Tracer) {
    let dropped = Def {
        exec: Exec::Drop,
        ..*def
    };
    let mut flipper = Flipper::halving(inputs);
    let all: Vec<usize> = (0..inputs.distinct.len()).collect();
    for _ in 0..2 {
        flipper.flip(svc, tr);
        inproc::run_pass(
            svc,
            &dropped,
            inputs,
            &all,
            oracle,
            None,
            tr,
            first_id(TOP_UP_PASS),
        );
    }
}
