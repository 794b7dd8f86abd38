//! End-to-end loopback tests of the `gcm-net` ingress tier: a real
//! TCP server in front of a native-executing [`QueryService`], driven
//! by the open-loop load generator at twice its measured capacity.
//!
//! The ISSUE's three serving-tier guarantees, each pinned here:
//!
//! * **fail fast** — a shed reply costs a queue-projection and one
//!   frame, so shed latency sits far below served latency;
//! * **SLO protection** — while the gate sheds, the served
//!   point-lookup tail stays within its sojourn budget;
//! * **zero corruption** — every byte of every served result
//!   (`output_n`, and `output_hash`: FNV-1a over the output's 8-byte
//!   words) is identical to a direct in-process execution of the same
//!   request.
//!
//! The in-run bounds are generous so a loaded CI box cannot flake
//! them, the run is sized so the verdict does not hinge on how it
//! happened to batch ([`OVERLOAD_REQUESTS`]), and no two tests here run
//! at once ([`ONE_SERVER`]). The strict ratios (5× fail-fast, 5×
//! protection) are wall-clock claims a test cannot hold on a shared
//! box, so nothing here or in CI asserts them.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gcm::hardware::presets;
use gcm::net::loadgen::{self, LoadReport, LoadgenConfig};
use gcm::net::{NetConfig, NetServer, ResponseFrame};
use gcm::service::{plan_for, QueryService, ServiceConfig, SloPolicy, TenantTables};
use gcm::workload::{TenantClass, Workload};

const FACT_N: usize = 8_192;
const DIM_N: usize = 1_024;
const TABLE_SEED: u64 = 777;

/// The overload runs' sojourn budget, in mean solo times: far above a
/// drain cycle, so shed replies are visibly faster than budget-bound
/// served ones.
const BUDGET_SOLOS: usize = 60;

/// Requests per overload run. Offered at 2× capacity, half of them are
/// still queued when the last one arrives, and a scheduler that batches
/// two at a time drains that backlog in a quarter of the run's solo
/// times — so 16 requests per budgeted solo time leave an unshedded
/// backlog of 4× the budget, and whether the gate sheds no longer
/// depends on how well batching went that run.
const OVERLOAD_REQUESTS: usize = 16 * BUDGET_SOLOS;

/// The overload runs offer twice a capacity they measured moments
/// earlier in this process, so a sibling test warming up its own server
/// on the same cores during that measurement halves the "2×". Every
/// test here holds this for its whole body: one server at a time.
static ONE_SERVER: Mutex<()> = Mutex::new(());

fn one_server() -> MutexGuard<'static, ()> {
    // A sibling's failed assertion must not fail this test too.
    ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The serving stack under test: three tenants (one per class) sharing
/// one star pair, native execution over real memory.
fn build_service(slo: Option<SloPolicy>) -> (QueryService, Vec<TenantTables>) {
    let cfg = ServiceConfig {
        slo,
        ..ServiceConfig::default()
    };
    let mut svc = QueryService::with_config(presets::modern_smp(4), cfg);
    let mut wl = Workload::new(TABLE_SEED);
    let star = wl.star_scenario(FACT_N, DIM_N, 1);
    let fact = svc.register_table("net.F", star.fact, 8);
    let dim = svc.register_table("net.D", star.dims[0].clone(), 8);
    let t = TenantTables {
        fact,
        dim,
        key_bound: DIM_N as u64,
    };
    (svc, vec![t, t, t])
}

fn tenant_classes() -> Vec<TenantClass> {
    vec![
        TenantClass::PointLookup,
        TenantClass::ScanHeavy,
        TenantClass::JoinHeavy,
    ]
}

/// Ground truth: execute every distinct request shape directly (no
/// network, no shedding) and record (output_n, output_hash).
fn oracle_hashes(seed: u64, requests: usize) -> HashMap<(u32, u8, u64), (u64, u64)> {
    let (mut svc, tenants) = build_service(None);
    let mut wl = Workload::new(seed);
    let mix = wl.query_mix(requests, &tenant_classes(), 0.99);
    let mut out = HashMap::new();
    for req in &mix {
        let key = (
            req.tenant as u32,
            req.class.index(),
            req.selectivity.to_bits(),
        );
        if out.contains_key(&key) {
            continue;
        }
        let plan = plan_for(req, &tenants[req.tenant]);
        svc.submit(plan).expect("oracle plan must optimize");
        let batch = svc.next_batch().expect("oracle batch");
        let runs = svc
            .execute_batch_native_observed(batch)
            .expect("oracle execution");
        out.insert(key, (runs[0].1.output_n, runs[0].1.output_hash));
    }
    out
}

/// Every served response must match the oracle bit-for-bit.
fn assert_no_corruption(report: &LoadReport, oracle: &HashMap<(u32, u8, u64), (u64, u64)>) {
    let mut checked = 0u64;
    for (submit, response, _latency) in &report.responses {
        if let ResponseFrame::Served {
            output_n,
            output_hash,
            ..
        } = response
        {
            let key = (submit.tenant, submit.class.index(), submit.selectivity_bits);
            let (want_n, want_hash) = oracle[&key];
            assert_eq!(
                (*output_n, *output_hash),
                (want_n, want_hash),
                "served result diverged from direct execution for {key:?}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, report.served, "every served response checked");
}

/// Closed-loop native capacity of the mixed workload, queries/sec, plus
/// the mean solo time in ns — the yardstick the overload test scales
/// its offered rate and budget from. The median of three timed passes:
/// a pass is a fraction of a second, so one descheduling on a shared box
/// would otherwise halve the capacity and with it the "2×" (the caller
/// sizes the probe from the run, for the same reason).
fn measure_capacity(probe: usize) -> (f64, f64) {
    let (mut svc, tenants) = build_service(None);
    let mut wl = Workload::new(TABLE_SEED + 1);
    let mix = wl.query_mix(probe, &tenant_classes(), 0.99);
    let mut pass = || {
        let t0 = Instant::now();
        for req in &mix {
            svc.submit(plan_for(req, &tenants[req.tenant])).unwrap();
        }
        while let Some(batch) = svc.next_batch() {
            svc.execute_batch_native_observed(batch).unwrap();
        }
        t0.elapsed().as_secs_f64().max(1e-6)
    };
    // Warm the plan cache so the timed passes measure execution.
    pass();
    let mut passes = [pass(), pass(), pass()];
    passes.sort_by(f64::total_cmp);
    let elapsed = passes[1];
    let qps = probe as f64 / elapsed;
    (qps, elapsed * 1e9 / probe as f64)
}

/// Drive an SLO-gated server at 2× measured capacity for
/// [`OVERLOAD_REQUESTS`] queries; returns the load report and the
/// sojourn budget (ns) the gate enforced.
fn overload_run(seed: u64) -> (LoadReport, f64) {
    let (capacity_qps, solo_ns) = measure_capacity(OVERLOAD_REQUESTS / 4);
    let budget_ns = BUDGET_SOLOS as f64 * solo_ns;
    let (svc, tenants) = build_service(Some(SloPolicy::uniform(budget_ns)));
    let server = NetServer::start(
        svc,
        tenants,
        NetConfig {
            shards: 2,
            ..NetConfig::default()
        },
    )
    .expect("server start");
    let report = loadgen::run(
        server.addr(),
        &LoadgenConfig {
            requests: OVERLOAD_REQUESTS,
            offered_qps: 2.0 * capacity_qps,
            connections: 4,
            tenants: tenant_classes(),
            zipf_theta: 0.99,
            seed,
            drain_timeout: Duration::from_secs(30),
        },
    )
    .expect("load run");
    server.shutdown();
    (report, budget_ns)
}

/// Under capacity with no SLO gate: every request is served over the
/// socket and every result matches direct execution byte-for-byte.
#[test]
fn loopback_round_trip_preserves_results() {
    let _quiet = one_server();
    let (svc, tenants) = build_service(None);
    let server = NetServer::start(svc, tenants, NetConfig::default()).expect("server start");
    let cfg = LoadgenConfig {
        requests: 90,
        offered_qps: 2_000.0,
        connections: 3,
        tenants: tenant_classes(),
        zipf_theta: 0.99,
        seed: 4242,
        drain_timeout: Duration::from_secs(30),
    };
    let report = loadgen::run(server.addr(), &cfg).expect("load run");
    let svc = server.shutdown();
    assert_eq!(report.sent, 90);
    assert_eq!(report.served, 90, "no SLO gate: everything is served");
    assert_eq!(report.shed, 0);
    assert_eq!(report.lost, 0);
    assert_no_corruption(&report, &oracle_hashes(4242, 90));
    // The service saw real traffic: the wall-scale EWMA was seeded by
    // measured native batches.
    let mut svc = svc;
    assert!(!svc.metrics().batches.is_empty() || svc.wall_scale() != 1.0);
}

/// 2× overload with the ⊙-priced gate on: work is shed (fail-fast,
/// cheaper than being served), the served point-lookup tail respects
/// its budget, and nothing is corrupted.
#[test]
fn overload_sheds_fast_and_protects_point_lookups() {
    let _quiet = one_server();
    let (report, budget_ns) = overload_run(9001);
    assert_eq!(report.lost, 0, "every request gets exactly one answer");
    assert!(
        report.shed > 0,
        "2x overload must shed: served {} of {OVERLOAD_REQUESTS}",
        report.served
    );
    assert!(report.served > 0, "shedding must not starve the service");
    assert_no_corruption(&report, &oracle_hashes(9001, OVERLOAD_REQUESTS));

    let point = report.class(TenantClass::PointLookup);
    assert!(point.served > 0, "point lookups must keep being served");
    assert!(
        (point.served_latency.p99() as f64) < 4.0 * budget_ns,
        "served point-lookup p99 {} ns vs budget {} ns",
        point.served_latency.p99(),
        budget_ns
    );

    // Fail-fast, generously: shed replies are no slower than served
    // ones at the tail.
    let mut served_all = gcm::obs::Histogram::new();
    let mut shed_all = gcm::obs::Histogram::new();
    for c in &report.classes {
        served_all.merge(&c.served_latency);
        shed_all.merge(&c.shed_latency);
    }
    assert!(
        shed_all.p99() <= served_all.p99(),
        "shed p99 {} ns must not exceed served p99 {} ns",
        shed_all.p99(),
        served_all.p99()
    );
}

/// Hostile bytes on a live server: a connection spraying garbage is
/// dropped without taking the server down, and well-formed traffic on
/// other connections keeps flowing.
#[test]
fn garbage_connection_does_not_poison_the_server() {
    let _quiet = one_server();
    use std::io::{Read, Write};

    let (svc, tenants) = build_service(None);
    let server = NetServer::start(svc, tenants, NetConfig::default()).expect("server start");

    // A vandal connection: oversized length prefix then junk.
    let mut vandal = std::net::TcpStream::connect(server.addr()).unwrap();
    vandal.set_nodelay(true).unwrap();
    vandal.write_all(&(1_000_000u32).to_le_bytes()).unwrap();
    vandal.write_all(&[0xAB; 256]).unwrap();
    vandal
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    // The server must hang up on the vandal (read returns 0) rather
    // than answering or crashing.
    let n = vandal.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "corrupt connection must be dropped, not answered");

    // An honest request on a fresh connection still gets served.
    let report = loadgen::run(
        server.addr(),
        &LoadgenConfig {
            requests: 6,
            offered_qps: 500.0,
            connections: 1,
            tenants: tenant_classes(),
            zipf_theta: 0.0,
            seed: 7,
            drain_timeout: Duration::from_secs(20),
        },
    )
    .expect("load run after vandal");
    assert_eq!(report.served, 6);
    assert_eq!(report.lost, 0);
    server.shutdown();
}
