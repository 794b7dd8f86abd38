//! The network ingress tier end to end: a TCP server in front of the
//! query service, driven to 2× its measured capacity by the open-loop
//! load generator.
//!
//! `NetServer::start` warms the plan cache, binds a loopback listener,
//! and spawns the thread-per-core epoll shards; the load generator
//! then offers a Zipf-skewed three-tenant mix at twice the rate the
//! machine can serve, with Poisson arrivals timed on the sender's
//! clock (coordinated-omission-free: a request's latency starts at its
//! *scheduled* arrival, so queueing under overload is charged to the
//! server, not hidden in the sender).
//!
//! What to watch:
//! * with **no SLO**, every request is eventually served — but the
//!   backlog grows for the whole run and the tail latencies are pure
//!   queue time;
//! * with a **per-class sojourn budget**, the `⊙`-priced shed gate
//!   projects each query's sojourn at arrival and refuses the doomed
//!   ones once (commit-once, fail-fast): `SHED` responses come back in
//!   milliseconds, and the served tail stays near the budget instead
//!   of the backlog depth.

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("net_demo needs the Linux epoll ingress tier; skipping");
}

#[cfg(target_os = "linux")]
fn main() {
    use gcm::hardware::presets;
    use gcm::net::loadgen::{self, LoadReport, LoadgenConfig};
    use gcm::net::{NetConfig, NetServer};
    use gcm::service::{plan_for, QueryService, ServiceConfig, SloPolicy, TenantTables};
    use gcm::workload::{TenantClass, Workload};
    use std::time::{Duration, Instant};

    const REQUESTS: usize = 96;
    const TENANTS: [TenantClass; 3] = [
        TenantClass::PointLookup,
        TenantClass::ScanHeavy,
        TenantClass::JoinHeavy,
    ];

    fn service(slo: Option<SloPolicy>) -> (QueryService, Vec<TenantTables>) {
        let cfg = ServiceConfig {
            slo,
            ..ServiceConfig::default()
        };
        let mut svc = QueryService::with_config(presets::modern_smp(4), cfg);
        let mut wl = Workload::new(2002);
        let star = wl.star_scenario(30_000, 2_000, 1);
        let fact = svc.register_table("demo.F", star.fact, 8);
        let dim = svc.register_table("demo.D", star.dims[0].clone(), 8);
        let t = TenantTables {
            fact,
            dim,
            key_bound: 2_000,
        };
        (svc, vec![t, t, t])
    }

    // Measure the in-process ceiling (closed loop, plan-cache warm).
    let (mut svc, tenants) = service(None);
    let mix = Workload::new(7).query_mix(REQUESTS, &TENANTS, 0.99);
    let (mut qps, mut solo_ns) = (0.0, 0.0);
    for _ in 0..2 {
        let t0 = Instant::now();
        for req in &mix {
            svc.submit(plan_for(req, &tenants[req.tenant]))
                .expect("plan");
        }
        while let Some(batch) = svc.next_batch() {
            svc.execute_batch_native_observed(batch)
                .expect("native execution");
        }
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        qps = REQUESTS as f64 / elapsed;
        solo_ns = elapsed * 1e9 / REQUESTS as f64;
    }
    println!(
        "in-process ceiling: {qps:.0} qps (mean solo {:.2} ms)\n",
        solo_ns / 1e6
    );

    let drive = |slo: Option<SloPolicy>| -> LoadReport {
        let (svc, tenants) = service(slo);
        let server = NetServer::start(svc, tenants, NetConfig::default()).expect("server start");
        let report = loadgen::run(
            server.addr(),
            &LoadgenConfig {
                requests: REQUESTS,
                offered_qps: 2.0 * qps,
                seed: 7,
                drain_timeout: Duration::from_secs(60),
                ..LoadgenConfig::default()
            },
        )
        .expect("load run");
        server.shutdown();
        report
    };

    let budget_ns = 40.0 * solo_ns;
    for (title, slo) in [
        ("2x overload, no SLO", None),
        ("2x overload, SLO gate", Some(SloPolicy::uniform(budget_ns))),
    ] {
        let r = drive(slo);
        println!(
            "{title}: offered {:.0} qps, achieved {:.0} qps | served {} shed {} lost {}",
            r.offered_qps, r.achieved_qps, r.served, r.shed, r.lost
        );
        for c in &r.classes {
            if c.sent == 0 {
                continue;
            }
            println!(
                "  {:>12}: served {:>3} (p99 {:>8.2} ms)  shed {:>3} (p99 {:>8.2} ms)",
                c.class.label(),
                c.served,
                c.served_latency.p99() as f64 / 1e6,
                c.shed,
                c.shed_latency.p99() as f64 / 1e6,
            );
        }
        if slo.is_some() {
            println!("  budget per class: {:.2} ms", budget_ns / 1e6);
        }
        println!();
    }
}
