//! Ingress — socket-path throughput and ⊙-priced shedding under
//! overload (the tentpole claims of the network tier).
//!
//! Three measurements against one native-executing service:
//!
//! 1. **Ceiling** — closed-loop, in-process `execute_batch_native_observed`
//!    throughput of the mixed workload: the hardware-speed bound no
//!    network stack can beat.
//! 2. **Socket path** — the same workload offered open-loop through
//!    the thread-per-core TCP front end at 2× the ceiling (saturation),
//!    shedding off: the sustained served rate, reported as a fraction
//!    of the ceiling. The acceptance bar is ≥ 0.80 — the wire protocol,
//!    epoll shards, and response routing may cost at most 20%.
//! 3. **Overload** — 2× the ceiling with the SLO gate on vs. off:
//!    per-class served/shed tails from the open-loop (coordinated-
//!    omission-free) load generator. The gate must hold the served
//!    point-lookup p99 at least 5× below the no-shedding run's.
//!
//! Results go to `BENCH_net.json` (schema `gcm-net-ingress/v1`) at the
//! repo root. Unlike the simulated-clock artifacts, the timing numbers
//! here are real wall measurements of this machine; the committed file
//! records the run that validated the acceptance criteria, and CI
//! checks only its non-timing fields (schema, counts, criteria flags).

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("ingress_throughput requires the Linux epoll ingress tier; skipping");
}

#[cfg(target_os = "linux")]
fn main() {
    linux::main()
}

#[cfg(target_os = "linux")]
mod linux {
    use gcm_net::loadgen::{self, LoadReport, LoadgenConfig};
    use gcm_net::{NetConfig, NetServer};
    use gcm_obs::json::{Arr, Obj};
    use gcm_obs::Histogram;
    use gcm_service::{plan_for, QueryService, ServiceConfig, SloPolicy, TenantTables};
    use gcm_workload::{TenantClass, Workload};
    use std::time::{Duration, Instant};

    const FACT_N: usize = 60_000;
    const DIM_N: usize = 4_000;
    const TABLE_SEED: u64 = 2002;
    const MIX_SEED: u64 = 1_000_003;
    const REQUESTS: usize = 240;
    const ZIPF_THETA: f64 = 0.99;
    const CONNECTIONS: usize = 4;
    const SHARDS: usize = 2;
    /// Sojourn budget, in multiples of the measured mean solo time.
    const BUDGET_SOLOS: f64 = 60.0;

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
        let mut svc = QueryService::with_config(gcm_hardware::presets::modern_smp(4), cfg);
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

    /// Closed-loop in-process ceiling: qps and mean solo ns, measured
    /// on a plan-cache-warm second pass.
    fn ceiling() -> (f64, f64) {
        let (mut svc, tenants) = service(None);
        let mut wl = Workload::new(MIX_SEED);
        let mix = wl.query_mix(REQUESTS, &TENANTS, ZIPF_THETA);
        for pass in 0..2 {
            let t0 = Instant::now();
            for req in &mix {
                svc.submit(plan_for(req, &tenants[req.tenant]))
                    .expect("plan");
            }
            while let Some(batch) = svc.next_batch() {
                svc.execute_batch_native_observed(batch)
                    .expect("native execution");
            }
            if pass == 1 {
                let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
                return (REQUESTS as f64 / elapsed, elapsed * 1e9 / REQUESTS as f64);
            }
        }
        unreachable!()
    }

    fn drive(offered_qps: f64, slo: Option<SloPolicy>) -> LoadReport {
        let (svc, tenants) = service(slo);
        let server = NetServer::start(
            svc,
            tenants,
            NetConfig {
                shards: SHARDS,
                ..NetConfig::default()
            },
        )
        .expect("server start");
        let report = loadgen::run(
            server.addr(),
            &LoadgenConfig {
                requests: REQUESTS,
                offered_qps,
                connections: CONNECTIONS,
                tenants: TENANTS.to_vec(),
                zipf_theta: ZIPF_THETA,
                seed: MIX_SEED,
                drain_timeout: Duration::from_secs(60),
            },
        )
        .expect("load run");
        server.shutdown();
        report
    }

    fn class_rows(report: &LoadReport) -> String {
        let mut rows = Arr::new();
        for c in &report.classes {
            let mut row = Obj::new();
            row.str("class", c.class.label())
                .u64("sent", c.sent)
                .u64("served", c.served)
                .u64("shed", c.shed);
            let mut served = Obj::new();
            served
                .u64("p50_ns", c.served_latency.p50())
                .u64("p99_ns", c.served_latency.p99())
                .u64("p999_ns", c.served_latency.p999());
            let mut shed = Obj::new();
            shed.u64("p50_ns", c.shed_latency.p50())
                .u64("p99_ns", c.shed_latency.p99())
                .u64("p999_ns", c.shed_latency.p999());
            row.raw("served_latency", &served.finish())
                .raw("shed_latency", &shed.finish());
            rows.raw(&row.finish());
        }
        rows.finish()
    }

    fn phase_obj(report: &LoadReport) -> String {
        let mut o = Obj::new();
        o.num("offered_qps", report.offered_qps)
            .num("achieved_qps", report.achieved_qps)
            .u64("sent", report.sent)
            .u64("served", report.served)
            .u64("shed", report.shed)
            .u64("lost", report.lost)
            .raw("classes", &class_rows(report));
        o.finish()
    }

    pub fn main() {
        let (ceiling_qps, solo_ns) = ceiling();
        println!(
            "in-process ceiling: {ceiling_qps:.0} qps (mean solo {:.2} ms)",
            solo_ns / 1e6
        );

        // Saturation through the socket, shedding off: offered 2x, the
        // served rate is the socket path's sustained throughput.
        let saturation = drive(2.0 * ceiling_qps, None);
        let sustained_fraction = saturation.achieved_qps / ceiling_qps;
        println!(
            "socket path at 2x offer: {:.0} qps served = {:.1}% of ceiling",
            saturation.achieved_qps,
            100.0 * sustained_fraction
        );

        // Overload with the gate on vs off.
        let budget_ns = BUDGET_SOLOS * solo_ns;
        let gated = drive(2.0 * ceiling_qps, Some(SloPolicy::uniform(budget_ns)));
        let open = &saturation; // gate-off overload is the same run
        let gated_point = gated.class(TenantClass::PointLookup);
        let open_point = open.class(TenantClass::PointLookup);
        let point_p99_improvement =
            open_point.served_latency.p99() as f64 / gated_point.served_latency.p99().max(1) as f64;
        let mut served_all = Histogram::new();
        let mut shed_all = Histogram::new();
        for c in &gated.classes {
            served_all.merge(&c.served_latency);
            shed_all.merge(&c.shed_latency);
        }
        println!(
            "gated 2x overload: served {} shed {} | point p99 {:.2} ms (budget {:.2} ms) | open point p99 {:.2} ms -> {point_p99_improvement:.1}x better",
            gated.served,
            gated.shed,
            gated_point.served_latency.p99() as f64 / 1e6,
            budget_ns / 1e6,
            open_point.served_latency.p99() as f64 / 1e6,
        );
        println!(
            "fail-fast: shed p99 {:.2} ms vs served p99 {:.2} ms",
            shed_all.p99() as f64 / 1e6,
            served_all.p99() as f64 / 1e6
        );

        let meets_sustained = sustained_fraction >= 0.80;
        let meets_protection = point_p99_improvement >= 5.0;
        assert!(
            meets_sustained,
            "socket path sustained only {:.1}% of the native ceiling",
            100.0 * sustained_fraction
        );
        assert!(
            meets_protection,
            "shedding bought only {point_p99_improvement:.1}x on point-lookup p99"
        );

        let mut criteria = Obj::new();
        criteria
            .bool("sustained_ge_80pct_of_ceiling", meets_sustained)
            .bool("point_p99_ge_5x_better_with_shedding", meets_protection);
        let mut top = Obj::new();
        top.str("bench", "ingress_throughput")
            .str("schema", "gcm-net-ingress/v1")
            .u64("requests", REQUESTS as u64)
            .u64("connections", CONNECTIONS as u64)
            .u64("shards", SHARDS as u64)
            .num("zipf_theta", ZIPF_THETA)
            .u64("seed", MIX_SEED)
            .num("ceiling_qps", ceiling_qps)
            .num("mean_solo_ns", solo_ns)
            .num("budget_ns", budget_ns)
            .num("sustained_fraction", sustained_fraction)
            .num("point_p99_improvement", point_p99_improvement)
            .u64("shed_p99_ns", shed_all.p99())
            .u64("served_p99_ns", served_all.p99())
            .raw("saturation_no_shedding", &phase_obj(&saturation))
            .raw("overload_with_shedding", &phase_obj(&gated))
            .raw("criteria", &criteria.finish());
        let json = format!("{}\n", top.finish());

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        std::fs::write(path, json).expect("write BENCH_net.json");
        println!("wrote {path}");
    }
}
