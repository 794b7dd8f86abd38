//! The ingress server: acceptor + shard threads in front of one
//! [`QueryService`] scheduler and its executor pool.
//!
//! Thread layout (`N` = [`NetConfig::shards`], `C` = the service's
//! cores):
//!
//! ```text
//!                                                       ┌─▶ dispatch ─▶ exec 1..C ─┐
//! acceptor ──round-robin──▶ shard 0 ─┐  bounded         │                          │ completion
//!                           shard 1 ─┼─ ingress ─▶ sched┤◀──── ring + collect ─────┘ queue
//!                           shard N ─┘  queues          └─▶ shed → fail-fast reply
//!                              ▲                  │
//!                              └─── responses ────┘
//! ```
//!
//! The scheduler thread owns the [`QueryService`] outright — no lock
//! around planning or admission — and never waits for an execution.
//! Each cycle it
//!
//! 1. empties every shard's ingress queue into the service (stamping
//!    arrivals with the server's epoch clock);
//! 2. answers every batch member that completed since the last cycle
//!    ([`QueryService::completions`]), routing each result back to the
//!    shard/connection it came from;
//! 3. while the service has [free slots](QueryService::free_slots)
//!    (by default: fewer members in flight than cores), asks
//!    [`QueryService::next_batch_at`] for the shed set and the next
//!    ⊙-priced batch — which gets at most the free slots — answers shed queries
//!    at once (that is the fail-fast promise: a shed reply costs one
//!    frame, not one execution), and hands the batch to the executor
//!    pool ([`QueryService::dispatch`] on [`Backend::Native`]);
//! 4. sleeps on the [`SchedSignal`] doorbell, which the shards ring on
//!    new work and the executor threads on every completed member.
//!
//! So a point lookup batched with a long join is answered when it
//! finishes, not when the join does, and the core it ran on takes the
//! next query meanwhile. A member that fails (a plan error or a panic)
//! fails only itself: it is answered `SHED`, the rest of its batch is
//! served.
//!
//! On start the scheduler runs a *warmup*: one query per tenant ×
//! class × selectivity bucket pushed through the full native path with
//! the SLO gate disabled. That seeds the plan cache and — critically —
//! the model-ns → wall-ns [`wall_scale`](QueryService::wall_scale)
//! EWMA. Without it the first real projection would compare model
//! nanoseconds against wall budgets and shed everything in sight.
//!
//! On [`shutdown`](NetServer::shutdown) the scheduler keeps cycling
//! until the ingress queues, the service's queue and the executor are
//! all empty — every accepted request answered — and joins the
//! executor threads before it hands the service back.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcm_obs::registry::labeled;
use gcm_obs::MetricsRegistry;
use gcm_service::{plan_for, Backend, QueryService, TenantTables};
use gcm_workload::{QueryRequest, TenantClass};

use crate::shard::{run_shard, IngressItem, SchedSignal, SharedShard};
use crate::wire::ResponseFrame;

/// Wall-clock sojourn (arrival → response enqueue) per class, ns.
pub const SOJOURN_NS: &str = "gcm_net_sojourn_ns";
/// Responses sent, labelled served/shed.
pub const RESPONSES_TOTAL: &str = "gcm_net_responses_total";

/// Ingress-tier knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Shard (poll-loop) threads. Thread-per-core wants one per core;
    /// 0 means "available parallelism".
    pub shards: usize,
    /// Per-shard ingress queue bound — beyond it the read-readiness
    /// gate closes and back-pressure reaches the socket.
    pub ingress_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            shards: 0,
            ingress_capacity: 1024,
        }
    }
}

/// Monotonic nanoseconds since the server's epoch — the one clock
/// arrivals, shed projections, and sojourns all share.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

struct Route {
    shard: usize,
    conn: u64,
    client_id: u64,
    class: TenantClass,
    arrival_ns: u64,
}

/// A running ingress server. Dropping it leaks the threads; call
/// [`shutdown`](NetServer::shutdown) to drain and get the service
/// back.
pub struct NetServer {
    addr: SocketAddr,
    shards: Vec<Arc<SharedShard>>,
    signal: Arc<SchedSignal>,
    stop: Arc<AtomicBool>,
    metrics: Arc<MetricsRegistry>,
    acceptor: JoinHandle<()>,
    shard_handles: Vec<JoinHandle<io::Result<()>>>,
    scheduler: JoinHandle<QueryService>,
}

impl NetServer {
    /// Bind a loopback listener and launch acceptor, shards, and the
    /// scheduler (which first runs the plan-cache / wall-scale warmup
    /// described in the module docs). `tenants[i]` holds the tables
    /// queries for tenant id `i` bind against.
    pub fn start(
        mut svc: QueryService,
        tenants: Vec<TenantTables>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        assert!(!tenants.is_empty(), "need at least one tenant");
        // Warm up before the listener exists: no client can race the
        // cache seeding, and the first accepted request already sees a
        // seeded wall-scale EWMA.
        warmup(&mut svc, &tenants);
        let shard_n = if cfg.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.shards
        };
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let clock = Clock::new();
        let metrics = Arc::new(MetricsRegistry::new());
        let signal = Arc::new(SchedSignal::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut shards = Vec::with_capacity(shard_n);
        for _ in 0..shard_n {
            shards.push(Arc::new(SharedShard::new(cfg.ingress_capacity)?));
        }

        let mut shard_handles = Vec::with_capacity(shard_n);
        for (i, shared) in shards.iter().enumerate() {
            let shared = Arc::clone(shared);
            let signal = Arc::clone(&signal);
            let registry = Arc::clone(&metrics);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("gcm-net-shard-{i}"))
                    .spawn(move || {
                        run_shard(i, &shared, &signal, &registry, move || clock.now_ns())
                    })?,
            );
        }

        let acceptor = {
            let shards = shards.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("gcm-net-acceptor".into())
                .spawn(move || accept_loop(listener, &shards, &stop))?
        };

        let scheduler = {
            let shards = shards.clone();
            let signal = Arc::clone(&signal);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("gcm-net-sched".into())
                .spawn(move || schedule_loop(svc, tenants, shards, signal, stop, registry, clock))?
        };

        Ok(NetServer {
            addr,
            shards,
            signal,
            stop,
            metrics,
            acceptor,
            shard_handles,
            scheduler,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ingress tier's own metrics registry (frames, connections,
    /// per-class sojourns). Service-side metrics stay in the
    /// [`QueryService`] this server was started with.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Stop accepting, drain queued and running work (every accepted
    /// submission is answered — served or shed), join the executor
    /// threads, flush responses, and hand the [`QueryService`] back for
    /// inspection.
    pub fn shutdown(self) -> QueryService {
        self.stop.store(true, Ordering::Release);
        self.signal.notify();
        let _ = self.acceptor.join();
        let svc = self.scheduler.join().expect("scheduler thread panicked");
        for shared in &self.shards {
            shared.stop.store(true, Ordering::Release);
            shared.wake.wake();
        }
        for h in self.shard_handles {
            let _ = h.join();
        }
        svc
    }
}

fn accept_loop(listener: TcpListener, shards: &[Arc<SharedShard>], stop: &AtomicBool) {
    let mut next = 0usize;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let shard = &shards[next % shards.len()];
                next += 1;
                shard.incoming.lock().unwrap().push(stream);
                shard.wake.wake();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// One query per tenant × class × selectivity bucket through the full
/// native path, SLO gate off: seeds the plan cache and the wall-scale
/// EWMA before the first client request can be projected against a
/// budget.
fn warmup(svc: &mut QueryService, tenants: &[TenantTables]) {
    let saved = svc.set_slo(None);
    for (tenant, tables) in tenants.iter().enumerate() {
        for class in TenantClass::ALL {
            for &selectivity in class.selectivity_buckets() {
                let req = QueryRequest {
                    tenant,
                    class,
                    selectivity,
                };
                let _ = svc.submit_classed(plan_for(&req, tables), class, 0);
            }
        }
    }
    while let (_, Some(batch)) = svc.next_batch_at(0) {
        let _ = svc.execute_batch_native_observed(batch);
    }
    svc.set_slo(saved);
}

fn schedule_loop(
    mut svc: QueryService,
    tenants: Vec<TenantTables>,
    shards: Vec<Arc<SharedShard>>,
    signal: Arc<SchedSignal>,
    stop: Arc<AtomicBool>,
    metrics: Arc<MetricsRegistry>,
    clock: Clock,
) -> QueryService {
    let reply = Replies {
        shards: &shards,
        metrics: &metrics,
        clock,
    };
    let mut routes: HashMap<u64, Route> = HashMap::new();
    {
        let signal = Arc::clone(&signal);
        svc.on_completion(move || signal.notify());
    }
    loop {
        // Read before draining: whatever was accepted before the stop
        // is in a queue this cycle empties.
        let stopping = stop.load(Ordering::Acquire);
        // Pull everything the shards decoded, then wake them so gated
        // connections see the freed capacity.
        let mut drained: Vec<IngressItem> = Vec::new();
        for shared in &shards {
            let mut q = shared.ingress.lock().unwrap();
            if !q.is_empty() {
                drained.extend(q.drain(..));
            }
        }
        let mut progressed = !drained.is_empty();
        if progressed {
            for shared in &shards {
                shared.wake.wake();
            }
        }
        for item in drained {
            let tenant = item.frame.tenant as usize % tenants.len();
            let req = QueryRequest {
                tenant,
                class: item.frame.class,
                selectivity: item.frame.selectivity(),
            };
            let plan = plan_for(&req, &tenants[tenant]);
            let route = Route {
                shard: item.shard,
                conn: item.conn,
                client_id: item.frame.id,
                class: item.frame.class,
                arrival_ns: item.arrival_ns,
            };
            match svc.submit_classed(plan, item.frame.class, item.arrival_ns) {
                Ok(qid) => {
                    routes.insert(qid, route);
                }
                // Unplannable request: fail fast, like a shed.
                Err(_) => reply.shed(&route),
            }
        }

        // Answer every member that finished, then fill the free slots.
        for (qid, result) in svc.completions() {
            progressed = true;
            let Some(route) = routes.remove(&qid) else {
                continue;
            };
            match result {
                Ok(run) => reply.served(&route, run.output_n, run.output_hash),
                // A failed member (a plan error or a panic) fails only
                // itself: answered fast rather than stranding its client.
                Err(_) => reply.shed(&route),
            }
        }
        while svc.queue_len() > 0 && svc.free_slots() > 0 {
            let (shed, batch) = svc.next_batch_at(clock.now_ns());
            for record in shed {
                if let Some(route) = routes.remove(&record.id) {
                    reply.shed(&route);
                }
            }
            let Some(batch) = batch else { break };
            svc.dispatch(batch, Backend::Native);
            progressed = true;
        }

        if stopping && svc.queue_len() == 0 && svc.in_flight() == 0 {
            let empty = shards.iter().all(|s| s.ingress.lock().unwrap().is_empty());
            if empty {
                svc.join_executor();
                return svc;
            }
            continue;
        }
        if !progressed {
            signal.wait(Duration::from_millis(1));
        }
    }
}

/// Where the scheduler's answers go: back to the client's shard, counted
/// and timed per class.
struct Replies<'a> {
    shards: &'a [Arc<SharedShard>],
    metrics: &'a MetricsRegistry,
    clock: Clock,
}

impl Replies<'_> {
    fn served(&self, route: &Route, output_n: u64, output_hash: u64) {
        self.send(
            route,
            ResponseFrame::Served {
                id: route.client_id,
                output_n,
                output_hash,
                sojourn_ns: self.clock.now_ns().saturating_sub(route.arrival_ns),
            },
        );
    }

    fn shed(&self, route: &Route) {
        self.send(
            route,
            ResponseFrame::Shed {
                id: route.client_id,
                sojourn_ns: self.clock.now_ns().saturating_sub(route.arrival_ns),
            },
        );
    }

    fn send(&self, route: &Route, frame: ResponseFrame) {
        let (kind, sojourn_ns) = match frame {
            ResponseFrame::Served { sojourn_ns, .. } => ("served", sojourn_ns),
            ResponseFrame::Shed { sojourn_ns, .. } => ("shed", sojourn_ns),
        };
        self.metrics
            .inc(&labeled(RESPONSES_TOTAL, &[("kind", kind)]), 1);
        self.metrics.observe_ns(
            &labeled(
                SOJOURN_NS,
                &[("class", route.class.label()), ("kind", kind)],
            ),
            sojourn_ns as f64,
        );
        self.shards[route.shard].send_response(route.conn, frame);
    }
}
