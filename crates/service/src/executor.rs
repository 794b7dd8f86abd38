//! The executor pool: long-lived workers that run admitted batches, one
//! generic path for every backend.
//!
//! The measured side of the multi-core model. The pool is owned by the
//! [`QueryService`] and is the service's only spawn site. A batch of
//! `d` queries is `d` jobs on one job queue; worker threads take them
//! in order and put each member's result on one completion queue the
//! moment it finishes. The pool grows so that every queued job has a
//! thread — to the most members ever in flight at once — and every
//! worker lives as long as the service, keeping its span lane and one
//! native arena the whole time. Each job runs its physical plan
//! through the one plan executor ([`gcm_engine::plan::execute_traced`])
//! with the shared builds admission priced for it, reporting its
//! operators to the worker's lane. Jobs own what they read — `Arc`s to
//! the plan, to the table versions the query was admitted with, and to
//! its builds — so a table replaced while a query waits never changes
//! its answer.
//!
//! There is one way in and two ways to wait. [`QueryService::dispatch`]
//! hands a batch to the pool on either [`Backend`] and returns at once;
//! then either
//!
//! * [`QueryService::completions`] collects each member's `(query id,
//!   result)` as it finishes. A server's scheduler answers a member as
//!   soon as it completes and refills the free cores meanwhile: batches
//!   formed while members run get only the slots left, and each is
//!   priced `⊙` on its own; or
//! * [`QueryService::execute_batch`] (simulator) and
//!   [`QueryService::execute_batch_native_observed`] (host) wait for the
//!   batch, the calling thread running member 0 itself and then any
//!   member no worker has taken yet — so an in-process caller pays no
//!   hand-off for a singleton and never idles while its own batch is
//!   queued.
//!
//! Every completion, however it is collected, runs the one bookkeeping
//! both backends share: per member the latency histograms, its class's
//! latency sample and the per-class drift; per batch the measured wall,
//! folded into the shed gate's wall-scale EWMA and the registry's batch
//! counter and histogram, unless a member failed (a plan error or a
//! panic, reported as that member's result). Only the wall depends on
//! the backend — on the simulator the slowest member plus the dispatch
//! charge admission priced, on the host the time from dispatch to the
//! last completion — and only the simulator, whose charged clock is the
//! model's, also keeps the exact per-query and per-batch records.
//!
//! On the **simulator** a job builds a context on the member's own view
//! of the machine — full private levels, plus the slice of every shared
//! level the scheduler *allocated* to it. Allocations are
//! footprint-proportional ([`member_views`]), i.e. the service enforces
//! exactly the Eq 5.3 shares the admission controller priced (the way
//! a real serving system partitions its buffer pool or LLC ways among
//! admitted queries) — so a batch the model admitted cannot be wrecked
//! by a co-runner grabbing more of the shared level than its footprint
//! warrants. A query's measured latency is its charged memory time
//! plus the planner's per-op CPU charge (Eq 6.1,
//! [`CpuCost::default_planner`] — the same term the optimizer priced
//! it with), and the batch's measured wall is the slowest member, which
//! is what the `⊙` composition predicted.
//! On the **host** a job runs on its worker's resident arena: reset,
//! not rebuilt, so no page is faulted twice; base tables and shared
//! builds are mapped read-only and read where they are, and only a
//! table the plan sorts in place is copied in. Real buffers, real
//! loads, wall-clock latency, and no views (the hardware shares its
//! caches itself).

use crate::admission::DEFAULT_DISPATCH_NS;
use crate::builds::SharedBuild;
use crate::metrics::{BatchRecord, QueryRecord};
use crate::queue::{Batch, Pending};
use crate::QueryService;
use gcm_core::{concurrent_shares, CpuCost, Pattern, Region};
use gcm_engine::plan::{
    self, plan_classes, BuildSource, PlanError, PlannedQuery, PrebuiltBuild, SpanTracer, TableDef,
};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend};
use gcm_hardware::{HardwareSpec, Sharing};
use gcm_obs::{SpanRecorder, SpanSink};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One version of the whole catalog: the tables as a query was admitted
/// with them. [`QueryService::update_table`] publishes a new version
/// and leaves this one to whoever still holds it.
pub(crate) type Tables = Arc<Vec<Arc<TableDef>>>;

/// The builds one batch member may reuse, as a [`BuildSource`] for the
/// plan executor: `prebuilt(t)` answers with the member's shared build
/// over table `t`, if it holds one.
#[derive(Default)]
struct MemberBuilds(Vec<Arc<SharedBuild>>);

impl BuildSource for MemberBuilds {
    fn prebuilt(&self, table: usize) -> Option<PrebuiltBuild> {
        self.0
            .iter()
            .find(|b| b.table == table)
            .map(|b| PrebuiltBuild {
                region: b.region.clone(),
                layout: b.layout.clone(),
            })
    }
}

/// One query's measured execution inside a batch.
#[derive(Debug, Clone)]
pub struct ExecutedQuery {
    /// Output cardinality.
    pub output_n: u64,
    /// FNV-1a over the output relation's little-endian 8-byte words
    /// (a byte fold for any tail), read where the output lies — the
    /// result-equality surface: two executions of the same query agree
    /// byte for byte iff their hashes agree (with or without shared
    /// builds, on any backend). Compare it only with another
    /// `output_hash`: it is not the byte-wise FNV-1a of the output.
    pub output_hash: u64,
    /// Measured elapsed time
    /// ([`RunStats::total_ns`](gcm_engine::RunStats::total_ns) at the
    /// planner's CPU charge): charged memory latency plus
    /// [`CpuCost::default_planner`] × logical ops on the simulator
    /// (Eq 6.1), wall time over the plan execution alone on the host, ns.
    pub measured_ns: f64,
    /// Logical CPU operations the query performed.
    pub ops: u64,
}

/// FNV-1a over the little-endian 8-byte words of `bytes`, then over
/// the bytes of any tail shorter than a word: one multiply per word
/// instead of per byte. Order-sensitive, so tuple order matters —
/// exactly what byte identity means.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        h ^= u64::from_le_bytes(w.try_into().expect("8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in tail {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The per-member machine views of a batch: each member keeps every
/// [`Private`](Sharing::Private) level whole and receives, at every
/// [`Shared`](Sharing::Shared) level, a capacity slice proportional to
/// its pattern's footprint there — the allocation rule of Eq 5.3. A
/// singleton batch sees the whole machine.
///
/// The shares are [`gcm_core::concurrent_shares`], the rule
/// [`gcm_core::CostModel::batch_cost_shared`] prices a batch with, so
/// the enforcement stays exactly what the admission controller priced:
/// regions in `shared` (immutable builds several members probe) count
/// once in each shared level's denominator, and a member's own claim
/// keeps its full footprint, clamped at the whole level. Each view holds
/// its share rounded down to whole lines (at least one).
pub fn member_views<'r>(
    spec: &HardwareSpec,
    patterns: &[&Pattern],
    shared: impl IntoIterator<Item = &'r Region>,
) -> Vec<HardwareSpec> {
    let d = patterns.len();
    if d <= 1 {
        return patterns.iter().map(|_| spec.thread_view(1)).collect();
    }
    concurrent_shares(spec, patterns, shared)
        .iter()
        .enumerate()
        .map(|(i, shares)| {
            let levels = spec
                .levels()
                .iter()
                .zip(shares)
                .map(|(lvl, &share)| {
                    if lvl.sharing != Sharing::Shared {
                        return lvl.clone();
                    }
                    let mut v = lvl.clone();
                    let lines = ((lvl.lines() as f64 * share) as u64).max(1);
                    v.capacity = lines * lvl.line;
                    v
                })
                .collect();
            HardwareSpec::new(
                format!("{} [member {i}/{d} view]", spec.name),
                spec.cpu_mhz,
                levels,
            )
            .expect("member view of a valid spec is valid")
        })
        .collect()
}

/// One batch member as its worker runs it: the plan, the table versions
/// it was admitted with, and the shared builds admission priced for it.
pub(crate) struct Member {
    planned: Arc<PlannedQuery>,
    tables: Tables,
    builds: MemberBuilds,
}

impl Member {
    /// The member a pending query becomes.
    fn of(p: &Pending) -> Member {
        Member {
            planned: Arc::clone(&p.planned),
            tables: Arc::clone(&p.tables),
            builds: MemberBuilds(p.serving.builds.clone()),
        }
    }

    /// Bind the tables the plan scans into `ctx` (uncharged, before the
    /// measured interval) and run the plan there, one
    /// [`Execute`](gcm_obs::SpanKind::Execute) span per physical operator
    /// into `lane` while its recorder is enabled (nothing, and no
    /// counter snapshots, while it is not). Tracing and shared builds
    /// never change results.
    fn run<B: MemoryBackend>(
        &self,
        ctx: &mut ExecContext<B>,
        lane: &mut SpanSink,
    ) -> Result<ExecutedQuery, PlanError> {
        let plan = &self.planned.plan;
        let rels = plan::materialize_tables(ctx, plan, &self.tables);
        let mut tracer = SpanTracer::new(lane);
        let (run, stats) =
            ctx.measure(|c| plan::execute_traced(c, plan, &rels, &self.builds, &mut tracer));
        run.map(|r| ExecutedQuery {
            output_n: r.output.n(),
            output_hash: fnv1a(ctx.relation_view(&r.output)),
            measured_ns: stats.total_ns(CpuCost::DEFAULT_PLANNER_PER_OP_NS),
            ops: stats.ops,
        })
    }
}

/// What a pool worker keeps from one job to the next.
pub(crate) struct Worker {
    lane: SpanSink,
    /// The resident native arena: made by the first native job, reset by
    /// every later one, dropped when a job panics.
    arena: Option<ExecContext<NativeBackend>>,
}

impl Worker {
    fn new(spans: &SpanRecorder) -> Worker {
        Worker {
            lane: spans.sink(),
            arena: None,
        }
    }

    /// Run `m` on the simulated machine `view`, in a context of its own.
    fn run_sim(&mut self, m: &Member, view: HardwareSpec) -> Result<ExecutedQuery, PlanError> {
        m.run(&mut ExecContext::new(view), &mut self.lane)
    }

    /// Run `m` on this worker's resident native arena.
    fn run_native(&mut self, m: &Member) -> Result<ExecutedQuery, PlanError> {
        let ctx = self.arena.get_or_insert_with(ExecContext::native);
        ctx.mem.reset();
        m.run(ctx, &mut self.lane)
    }

    /// Run `job` as batch member `member`. A panic becomes
    /// [`PlanError::WorkerPanicked`], and the arena the job may have
    /// left mid-write is dropped: the next job starts on a fresh one.
    fn run_caught(&mut self, member: usize, job: Job) -> Result<ExecutedQuery, PlanError> {
        panic::catch_unwind(AssertUnwindSafe(|| job(self))).unwrap_or_else(|_| {
            self.arena = None;
            Err(PlanError::WorkerPanicked { member })
        })
    }
}

/// One member's work, run on a pool worker with that worker's state.
pub(crate) type Job = Box<dyn FnOnce(&mut Worker) -> Result<ExecutedQuery, PlanError> + Send>;

/// Rung after every member the pool finishes — how a caller that sleeps
/// on its own doorbell learns there is something to collect.
pub(crate) type CompletionNotify = Arc<dyn Fn() + Send + Sync>;

/// One finished batch member, as the pool reports it.
#[derive(Debug)]
pub(crate) struct Done {
    /// The batch it belongs to.
    pub(crate) ticket: u64,
    /// Its position in that batch.
    pub(crate) member: usize,
    pub(crate) result: Result<ExecutedQuery, PlanError>,
    /// When it finished.
    pub(crate) at: Instant,
}

/// The two queues every thread of the pool shares.
#[derive(Default)]
struct Queues {
    /// Members waiting for a thread: `(ticket, member, job)`.
    jobs: VecDeque<(u64, usize, Job)>,
    /// Members finished and not yet collected, in completion order.
    done: VecDeque<Done>,
    /// Jobs queued or running on worker threads: the pool keeps at
    /// least this many threads, so no queued job waits for a thread
    /// while another job holds it.
    busy: usize,
    /// Set while the pool joins its threads: each finishes the queue
    /// and exits.
    closing: bool,
    /// Rung after every completion is published.
    notify: Option<CompletionNotify>,
}

/// The queues and the two places threads park on them.
#[derive(Default)]
struct Shared {
    queues: Mutex<Queues>,
    /// Worker threads wait here for a job.
    work: Condvar,
    /// A waiting caller waits here for a completion.
    finished: Condvar,
}

impl Shared {
    /// The queues. Nothing panics while holding them (jobs run outside
    /// the lock, inside `catch_unwind`), so a poisoned lock still holds
    /// consistent queues.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a finished member: onto the completion queue, then wake a
    /// waiting caller and ring the notify hook. `worker` says whether a
    /// worker thread ran it (and so leaves `busy`).
    fn finish(&self, done: Done, worker: bool) {
        let notify = {
            let mut q = self.lock();
            q.done.push_back(done);
            if worker {
                q.busy -= 1;
            }
            q.notify.clone()
        };
        self.finished.notify_one();
        if let Some(notify) = notify {
            notify();
        }
    }
}

/// The service's executor: one job queue, one completion queue, and
/// long-lived worker threads that take jobs in order, grown so that
/// every queued job has a thread and joined when the pool is dropped.
/// Any thread may run a job: the caller runs the members it keeps
/// ([`run_here`](Pool::run_here)) and, while it waits
/// ([`wait_done`](Pool::wait_done)), the jobs no worker has taken yet,
/// so a short batch never queues behind its own wake-ups.
pub(crate) struct Pool {
    /// Hands each worker its span lane.
    spans: SpanRecorder,
    /// The worker state of whichever thread owns the pool.
    caller: Option<Worker>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Worker threads still running: each counts itself out as it exits.
    pub(crate) running: Arc<AtomicUsize>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl Pool {
    /// An empty pool whose workers record spans into `spans`.
    pub(crate) fn new(spans: SpanRecorder) -> Pool {
        Pool {
            spans,
            caller: None,
            shared: Arc::default(),
            threads: Vec::new(),
            running: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn spawn(&self) -> JoinHandle<()> {
        let mut worker = Worker::new(&self.spans);
        let shared = Arc::clone(&self.shared);
        let running = Arc::clone(&self.running);
        running.fetch_add(1, Ordering::SeqCst);
        std::thread::Builder::new()
            .name(format!("gcm-exec-{}", self.threads.len() + 1))
            .spawn(move || loop {
                let (ticket, member, job) = {
                    let mut q = shared.lock();
                    loop {
                        if let Some(job) = q.jobs.pop_front() {
                            break job;
                        }
                        if q.closing {
                            drop(q);
                            running.fetch_sub(1, Ordering::SeqCst);
                            return;
                        }
                        q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let result = worker.run_caught(member, job);
                let at = Instant::now();
                shared.finish(
                    Done {
                        ticket,
                        member,
                        result,
                        at,
                    },
                    true,
                );
            })
            .expect("spawn an executor worker")
    }

    /// Queue `jobs` — `(ticket, member, job)` — for the worker threads,
    /// growing the pool first so that each has a thread, and wake one
    /// parked worker per job.
    pub(crate) fn submit(&mut self, jobs: Vec<(u64, usize, Job)>) {
        if jobs.is_empty() {
            return;
        }
        let n = jobs.len();
        let busy = {
            let mut q = self.shared.lock();
            q.jobs.extend(jobs);
            q.busy += n;
            q.busy
        };
        while self.threads.len() < busy {
            let t = self.spawn();
            self.threads.push(t);
        }
        for _ in 0..n {
            self.shared.work.notify_one();
        }
    }

    /// Run `job` as member `member` of batch `ticket` on the calling
    /// thread, with the pool's caller-side worker state. Its completion
    /// joins the queue like any other.
    pub(crate) fn run_here(&mut self, ticket: u64, member: usize, job: Job) {
        let spans = &self.spans;
        let caller = self.caller.get_or_insert_with(|| Worker::new(spans));
        let result = caller.run_caught(member, job);
        let at = Instant::now();
        self.shared.finish(
            Done {
                ticket,
                member,
                result,
                at,
            },
            false,
        );
    }

    /// The oldest finished member not yet collected, if any.
    pub(crate) fn try_done(&self) -> Option<Done> {
        self.shared.lock().done.pop_front()
    }

    /// The oldest finished member not yet collected, waiting for one if
    /// there is none — and rather than idle while a job is still queued,
    /// running it here. Only call it while a member is outstanding.
    pub(crate) fn wait_done(&mut self) -> Done {
        let mut q = self.shared.lock();
        loop {
            if let Some(done) = q.done.pop_front() {
                return done;
            }
            if let Some((ticket, member, job)) = q.jobs.pop_front() {
                q.busy -= 1;
                drop(q);
                self.run_here(ticket, member, job);
                q = self.shared.lock();
                continue;
            }
            q = self
                .shared
                .finished
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ring `notify` after every member the pool finishes.
    pub(crate) fn set_notify(&self, notify: CompletionNotify) {
        self.shared.lock().notify = Some(notify);
    }

    /// Let every worker thread finish the queue, then join it. The pool
    /// grows again on the next [`submit`](Pool::submit).
    pub(crate) fn join(&mut self) {
        self.shared.lock().closing = true;
        self.shared.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.lock().closing = false;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.join();
    }
}

/// Which machine a dispatched batch runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulated hierarchy: each member on its footprint-proportional
    /// [`member_views`] slice of the machine, timed by the charged clock
    /// the model shares.
    Sim,
    /// The host's real memory: each member on its worker's resident
    /// arena, timed by the wall clock.
    Native,
}

/// A dispatched batch with members still out.
#[derive(Debug)]
pub(crate) struct Running {
    ticket: u64,
    batch: Batch,
    backend: Backend,
    started: Instant,
    /// Each member's result, once it has finished.
    results: Vec<Option<Result<ExecutedQuery, PlanError>>>,
}

impl Running {
    /// How many members are still running.
    fn left(&self) -> usize {
        self.results.iter().filter(|r| r.is_none()).count()
    }
}

/// A member's query id and outcome, as [`QueryService::completions`]
/// hands it out.
pub type Completion = (u64, Result<ExecutedQuery, PlanError>);

impl QueryService {
    /// Hand an admitted batch to the executor pool on `backend` and
    /// return without waiting for it: its members run on the pool's
    /// worker threads, and each one's result is collected by
    /// [`completions`](QueryService::completions) as soon as that member
    /// finishes. Until then the members count
    /// [`in_flight`](QueryService::in_flight): batches formed meanwhile
    /// get only the slots left, and each is priced `⊙` on its own
    /// ([`next_batch_at`](QueryService::next_batch_at)). Each
    /// completion runs the bookkeeping the [module docs](crate::executor)
    /// describe.
    pub fn dispatch(&mut self, batch: Batch, backend: Backend) {
        self.launch(batch, backend, false);
    }

    /// [`dispatch`](QueryService::dispatch) `batch` and return its
    /// ticket. With `first_here`, member 0 runs on the calling thread
    /// before this returns; every other member queues for the worker
    /// threads.
    fn launch(&mut self, batch: Batch, backend: Backend, first_here: bool) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let views = (backend == Backend::Sim).then(|| {
            let patterns: Vec<&Pattern> =
                batch.entries.iter().map(|p| &p.serving.pattern).collect();
            member_views(self.spec(), &patterns, batch.shared_regions())
        });
        let mut queued: Vec<(u64, usize, Job)> = batch
            .entries
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let m = Member::of(p);
                let job: Job = if self.faulty_plan == Some(p.plan.fingerprint()) {
                    Box::new(|_: &mut Worker| -> Result<ExecutedQuery, PlanError> {
                        panic!("injected member fault")
                    })
                } else if let Some(views) = &views {
                    let view = views[i].clone();
                    Box::new(move |w: &mut Worker| w.run_sim(&m, view))
                } else {
                    Box::new(move |w: &mut Worker| w.run_native(&m))
                };
                (ticket, i, job)
            })
            .collect();
        let first = (first_here && !queued.is_empty()).then(|| queued.remove(0));
        self.running.push(Running {
            ticket,
            results: vec![None; batch.size()],
            batch,
            backend,
            started: Instant::now(),
        });
        self.pool.submit(queued);
        if let Some((_, i, job)) = first {
            self.pool.run_here(ticket, i, job);
        }
        ticket
    }

    /// Account one finished member against its batch: the only place
    /// execution bookkeeping happens, for both backends. Returns the
    /// member's query id and, for a batch's last member, the batch.
    fn complete(&mut self, done: &Done) -> (u64, Option<Running>) {
        let at = self
            .running
            .iter()
            .position(|r| r.ticket == done.ticket)
            .expect("a completion belongs to a running batch");
        let r = &mut self.running[at];
        let entry = &r.batch.entries[done.member];
        if let Ok(run) = &done.result {
            let predicted_ns = r.batch.price.per_query_ns[done.member];
            self.metrics
                .record_query(entry.class, run.measured_ns, predicted_ns);
            // Service-level drift: the whole-query measured/predicted
            // ratio, attributed to every operator class the plan
            // contains (once per class). Coarser than the per-node
            // attribution of `explain_analyze` — here a stale class
            // shows up on every plan shape that uses it.
            let mut classes = plan_classes(&entry.planned.plan);
            classes.sort_unstable();
            classes.dedup();
            for class in classes {
                self.drift.observe(class, run.measured_ns, predicted_ns);
            }
        }
        let qid = entry.id;
        r.results[done.member] = Some(done.result.clone());
        if r.left() > 0 {
            return (qid, None);
        }
        let r = self.running.swap_remove(at);
        let runs: Result<Vec<&ExecutedQuery>, _> =
            r.results.iter().flatten().map(Result::as_ref).collect();
        let Ok(runs) = runs else {
            return (qid, Some(r));
        };
        let measured_wall_ns = match r.backend {
            // The simulator cannot measure dispatch (it is host-side
            // thread hand-off, not simulated memory traffic), so the
            // batch wall carries the same per-worker constant the
            // admission predicate charged — both sides account dispatch
            // identically and the accuracy ratio reflects model quality,
            // not bookkeeping.
            Backend::Sim => {
                runs.iter().map(|q| q.measured_ns).fold(0.0, f64::max)
                    + DEFAULT_DISPATCH_NS * r.batch.size() as f64
            }
            Backend::Native => done.at.duration_since(r.started).as_nanos() as f64,
        };
        if r.backend == Backend::Sim {
            let batch = self.metrics.batches.len();
            let members = r.batch.entries.iter().zip(runs);
            for ((p, run), predicted_ns) in members.zip(&r.batch.price.per_query_ns) {
                self.metrics.queries.push(QueryRecord {
                    id: p.id,
                    plan: p.plan.to_string(),
                    batch,
                    predicted_ns: *predicted_ns,
                    measured_ns: run.measured_ns,
                    output_n: run.output_n,
                    output_hash: run.output_hash,
                });
            }
            self.metrics.batches.push(BatchRecord {
                ids: r.batch.ids(),
                predicted_wall_ns: r.batch.price.wall_ns,
                predicted_serial_ns: r.batch.price.serial_ns,
                measured_wall_ns,
            });
        }
        self.metrics.record_batch(measured_wall_ns);
        self.observe_wall_scale(measured_wall_ns, r.batch.price.wall_ns);
        (qid, Some(r))
    }

    /// Wait for every member of batch `ticket`, running queued jobs on
    /// this thread meanwhile; returns its members' runs in member order,
    /// or the first failed member's error. Completions of other batches
    /// are kept for [`completions`](QueryService::completions).
    fn wait(&mut self, ticket: u64) -> Result<Vec<ExecutedQuery>, PlanError> {
        loop {
            let done = self.pool.wait_done();
            let (qid, finished) = self.complete(&done);
            if done.ticket != ticket {
                self.ready.push_back((qid, done.result));
            } else if let Some(r) = finished {
                return r.results.into_iter().flatten().collect();
            }
        }
    }

    /// Execute an admitted batch on the **simulated** pool and wait for
    /// it: [`dispatch`](QueryService::dispatch) on [`Backend::Sim`],
    /// with this thread running member 0 and any member no worker has
    /// taken yet. Returns the index of the new
    /// [`BatchRecord`](crate::ServiceMetrics::batches); the first failed
    /// member fails the call.
    pub fn execute_batch(&mut self, batch: Batch) -> Result<usize, PlanError> {
        let ticket = self.launch(batch, Backend::Sim, true);
        self.wait(ticket)?;
        Ok(self.metrics.batches.len() - 1)
    }

    /// Execute an admitted batch on the **host's real memory** and wait
    /// for it: [`dispatch`](QueryService::dispatch) on
    /// [`Backend::Native`], with this thread running member 0 and any
    /// member no worker has taken yet. Identical results, wall-clock
    /// latencies, each run paired with its query id for response
    /// routing; the first failed member fails the call.
    pub fn execute_batch_native_observed(
        &mut self,
        batch: Batch,
    ) -> Result<Vec<(u64, ExecutedQuery)>, PlanError> {
        let ids = batch.ids();
        let ticket = self.launch(batch, Backend::Native, true);
        Ok(ids.into_iter().zip(self.wait(ticket)?).collect())
    }

    /// Every member finished since the last call, as `(query id,
    /// result)` in completion order. Never blocks; runs the bookkeeping
    /// of every member among them.
    pub fn completions(&mut self) -> Vec<Completion> {
        let mut out: Vec<Completion> = self.ready.drain(..).collect();
        while let Some(done) = self.pool.try_done() {
            let (qid, _) = self.complete(&done);
            out.push((qid, done.result));
        }
        out
    }

    /// Members dispatched whose results have not been collected yet.
    pub fn in_flight(&self) -> usize {
        self.running.iter().map(Running::left).sum()
    }

    /// How many more members the executor takes now: the batch cap
    /// ([`ServiceConfig::max_batch`](crate::ServiceConfig::max_batch),
    /// by default the machine's core count) less the members in flight.
    /// A batch formed now gets at most this many.
    pub fn free_slots(&self) -> usize {
        let slots = if self.cfg.max_batch == 0 {
            self.spec().cores() as usize
        } else {
            self.cfg.max_batch
        };
        slots.saturating_sub(self.in_flight())
    }

    /// Ring `notify` after every member the executor finishes — for a
    /// caller that sleeps on a doorbell of its own between
    /// [`completions`](QueryService::completions) calls.
    pub fn on_completion(&mut self, notify: impl Fn() + Send + Sync + 'static) {
        self.pool.set_notify(Arc::new(notify));
    }

    /// Let the members still running finish, then join every executor
    /// thread. Their results stay collectable; the pool grows again on
    /// the next batch.
    pub fn join_executor(&mut self) {
        self.pool.join();
    }

    /// Executor threads alive: each counts itself in when spawned and
    /// out when it exits.
    pub fn executor_threads(&self) -> usize {
        self.pool.running.load(Ordering::SeqCst)
    }

    /// Fault injection for tests: every member whose logical plan has
    /// this fingerprint panics on its executor thread instead of
    /// running. `None` turns it off.
    #[doc(hidden)]
    pub fn inject_member_panic(&mut self, fingerprint: Option<u64>) {
        self.faulty_plan = fingerprint;
    }

    /// Fold one measured/predicted batch-wall ratio into the
    /// [`wall_scale`](QueryService::wall_scale) EWMA (seeded by the
    /// first observation, clamped to keep one outlier batch from
    /// poisoning the projection).
    fn observe_wall_scale(&mut self, measured_wall_ns: f64, predicted_wall_ns: f64) {
        let ratio = measured_wall_ns / predicted_wall_ns.max(1.0);
        self.wall_scale = if self.wall_scale_seeded {
            0.8 * self.wall_scale + 0.2 * ratio
        } else {
            ratio
        };
        self.wall_scale_seeded = true;
        self.wall_scale = self.wall_scale.clamp(1e-4, 1e4);
    }

    /// Drain the queue: form and execute batches until nothing is
    /// pending.
    pub fn run(&mut self) -> Result<(), PlanError> {
        while let Some(batch) = self.next_batch() {
            self.execute_batch(batch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{drain_on, submit_joins};
    use crate::ServiceConfig;
    use gcm_engine::plan::{JoinAlgorithm, LogicalPlan, PhysicalPlan};
    use gcm_hardware::presets;
    use gcm_obs::SpanKind;
    use gcm_workload::Workload;
    use std::sync::atomic::AtomicBool;

    fn catalog() -> Tables {
        let mut wl = Workload::new(61);
        let star = wl.star_scenario(2_000, 400, 1);
        Arc::new(vec![
            Arc::new(TableDef::new("F", star.fact, 8)),
            Arc::new(TableDef::new("D", star.dims[0].clone(), 8)),
        ])
    }

    /// `jobs` as one batch on `pool`, the way the service runs a batch
    /// it waits for: member 0 on this thread, the rest queued; results
    /// in member order.
    fn run_jobs(pool: &mut Pool, jobs: Vec<Job>) -> Vec<Result<ExecutedQuery, PlanError>> {
        let n = jobs.len();
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        pool.submit((1..).zip(jobs).map(|(i, job)| (0, i, job)).collect());
        if let Some(job) = first {
            pool.run_here(0, 0, job);
        }
        let mut out: Vec<Option<Result<ExecutedQuery, PlanError>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let done = pool.wait_done();
            out[done.member] = Some(done.result);
        }
        out.into_iter()
            .map(|r| r.expect("every member reported"))
            .collect()
    }

    /// `job` on a pool worker thread: queued, and polled for rather than
    /// waited for, so this thread never takes it.
    fn on_worker(pool: &mut Pool, job: Job) -> Result<ExecutedQuery, PlanError> {
        pool.submit(vec![(0, 0, job)]);
        loop {
            if let Some(done) = pool.try_done() {
                return done.result;
            }
            std::thread::yield_now();
        }
    }

    /// `plans` as one batch on a fresh pool with a disabled trace: no
    /// shared builds, member `i` run by `job(i, member)`.
    fn run_plain(
        tables: &Tables,
        plans: &[&PhysicalPlan],
        job: impl Fn(usize, Member) -> Job,
    ) -> Result<Vec<ExecutedQuery>, PlanError> {
        let spans = SpanRecorder::with_capacity(1);
        spans.set_enabled(false);
        let jobs = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let planned = PlannedQuery {
                    plan: (*plan).clone(),
                    pattern: Pattern::empty(),
                    mem_ns: 0.0,
                    cpu_ns: 0.0,
                    ops: 0,
                };
                let member = Member {
                    planned: Arc::new(planned),
                    tables: Arc::clone(tables),
                    builds: MemberBuilds::default(),
                };
                job(i, member)
            })
            .collect();
        run_jobs(&mut Pool::new(spans), jobs).into_iter().collect()
    }

    /// [`run_plain`] on the simulated pool: zero-footprint patterns, so
    /// the members split the shared levels evenly.
    fn run_sim(
        spec: &HardwareSpec,
        tables: &Tables,
        plans: &[&PhysicalPlan],
    ) -> Result<Vec<ExecutedQuery>, PlanError> {
        let eps = Pattern::empty();
        let views = member_views(spec, &vec![&eps; plans.len()], &[]);
        run_plain(tables, plans, |i, m| {
            let view = views[i].clone();
            Box::new(move |w: &mut Worker| w.run_sim(&m, view))
        })
    }

    fn select_and_join() -> (PhysicalPlan, PhysicalPlan) {
        let select = PhysicalPlan::scan(0).select_lt(100);
        let join = PhysicalPlan::scan(0)
            .select_lt(200)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        (select, join)
    }

    #[test]
    fn output_hash_folds_words_then_tail_bytes() {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        assert_eq!(fnv1a(&[]), OFFSET);
        let word = 0x0807_0605_0403_0201u64;
        let one = (OFFSET ^ word).wrapping_mul(PRIME);
        assert_eq!(fnv1a(&word.to_le_bytes()), one);
        // A 9-byte input: one word, then the tail byte alone.
        let mut nine = word.to_le_bytes().to_vec();
        nine.push(0xAB);
        assert_eq!(fnv1a(&nine), (one ^ 0xAB).wrapping_mul(PRIME));
        // Tuple order matters: swapping two words changes the hash.
        let (a, b) = (1u64.to_le_bytes(), 2u64.to_le_bytes());
        assert_ne!(fnv1a(&[a, b].concat()), fnv1a(&[b, a].concat()));
    }

    #[test]
    fn batch_members_agree_with_serial_execution() {
        let spec = presets::tiny_smp(4);
        let tables = catalog();
        let (select, join) = select_and_join();
        let batch = run_sim(&spec, &tables, &[&select, &join]).unwrap();
        assert_eq!(batch.len(), 2);
        // Each member's result matches its own serial run (results
        // never depend on co-runners — only timings do).
        for (plan, got) in [&select, &join].into_iter().zip(&batch) {
            let solo = run_sim(&spec, &tables, &[plan]).unwrap();
            assert_eq!(solo[0].output_n, got.output_n);
            assert_eq!(solo[0].output_hash, got.output_hash);
            assert_eq!(solo[0].ops, got.ops);
            assert!(got.measured_ns > 0.0);
        }
    }

    #[test]
    fn shared_level_contention_shows_in_measured_time() {
        // The same query measured alone vs inside a 4-way batch: the
        // member views shrink the shared L2, so the batched run can
        // only be slower or equal.
        let spec = presets::tiny_smp(4);
        let tables = catalog();
        let join = PhysicalPlan::scan(0)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let solo = run_sim(&spec, &tables, &[&join]).unwrap()[0].measured_ns;
        let four = run_sim(&spec, &tables, &[&join, &join, &join, &join]).unwrap();
        for q in &four {
            assert!(
                q.measured_ns >= solo * 0.999,
                "batched {} vs solo {solo}",
                q.measured_ns
            );
        }
    }

    #[test]
    fn member_views_split_shared_levels_by_footprint() {
        let spec = presets::tiny_smp(4); // L2 shared (16 KB), L1/TLB private
        let big = Pattern::r_trav(Region::new("B", 3_000, 8)); // 24 KB
        let small = Pattern::r_trav(Region::new("S", 1_000, 8)); // 8 KB
        let views = member_views(&spec, &[&big, &small], &[]);
        assert_eq!(views.len(), 2);
        // Private levels stay whole.
        for v in &views {
            assert_eq!(
                v.level("L1").unwrap().capacity,
                spec.level("L1").unwrap().capacity
            );
        }
        // The shared L2 splits 3:1 (footprints 24 KB : 8 KB).
        let l2 = |v: &HardwareSpec| v.level("L2").unwrap().capacity;
        assert!(l2(&views[0]) > 2 * l2(&views[1]));
        let total = l2(&views[0]) + l2(&views[1]);
        let full = spec.level("L2").unwrap().capacity;
        assert!(total <= full && total >= full / 2, "split covers the level");
        // A singleton sees the whole machine.
        let solo = member_views(&spec, &[&big], &[]);
        assert_eq!(l2(&solo[0]), full);
        // Zero-footprint members fall back to an even split.
        let eps = Pattern::empty();
        let even = member_views(&spec, &[&eps, &eps], &[]);
        assert_eq!(l2(&even[0]), l2(&even[1]));
    }

    #[test]
    fn member_views_are_the_shares_the_batch_was_priced_with() {
        // Two probes of one shared 6-line build, each after its own
        // scan: footprint 6 lines each, the build counted once, so each
        // member's share of the shared L2 is 6 / (1 + 1 + 6) = 3/4 —
        // 192 whole lines, so a view can hold exactly the capacity the
        // price scaled the level to.
        let spec = presets::tiny_smp(4);
        let h = Region::new("H", 24, 16);
        let member = |name: &str| {
            Pattern::seq(vec![
                Pattern::s_trav(Region::new(name, 2_000, 8)),
                Pattern::r_acc(h.clone(), 500),
            ])
        };
        let members = [member("U0"), member("U1")];
        let refs: Vec<&Pattern> = members.iter().collect();
        let shared = std::slice::from_ref(&h);
        let l2 = spec.level_index("L2").unwrap();
        for shares in concurrent_shares(&spec, &refs, shared) {
            assert_eq!(shares[l2], 0.75);
        }
        let views = member_views(&spec, &refs, shared);
        let model = gcm_core::CostModel::new(spec.clone());
        let batch = model.batch_cost_shared(&members, &gcm_core::CacheState::cold(), shared);
        for (i, view) in views.iter().enumerate() {
            let full = &spec.levels()[l2];
            assert_eq!(view.levels()[l2].capacity, full.capacity / 4 * 3);
            // Alone on its view, cold, a member costs exactly what the
            // batch priced it at: the view is the share.
            let alone = gcm_core::CostModel::new(view.clone())
                .report(&members[i])
                .mem_ns;
            assert_eq!(
                alone.to_bits(),
                batch.per_query_ns[i].to_bits(),
                "member {i}"
            );
        }
    }

    #[test]
    fn native_batch_matches_simulated_results() {
        // Serving from native memory: same outputs and logical work as
        // the simulated pool, real wall-clock latencies.
        let spec = presets::tiny_smp(4);
        let tables = catalog();
        let (select, join) = select_and_join();
        let sim = run_sim(&spec, &tables, &[&select, &join]).unwrap();
        let native = run_plain(&tables, &[&select, &join], |_, m| {
            Box::new(move |w: &mut Worker| w.run_native(&m))
        })
        .unwrap();
        assert_eq!(native.len(), 2);
        for (s, n) in sim.iter().zip(&native) {
            assert_eq!(s.output_n, n.output_n);
            assert_eq!(
                s.output_hash, n.output_hash,
                "bytes must agree across backends"
            );
            assert_eq!(s.ops, n.ops);
            assert!(n.measured_ns > 0.0, "wall clock must advance");
        }
    }

    #[test]
    fn plan_errors_surface() {
        let spec = presets::tiny_smp(2);
        let tables = catalog();
        let bad = PhysicalPlan::scan(7);
        let err = run_sim(&spec, &tables, &[&bad]).unwrap_err();
        assert!(matches!(err, PlanError::UnknownTable { table: 7, .. }));
    }

    #[test]
    fn a_panicking_worker_fails_the_batch_not_the_caller() {
        let star = Workload::new(62).star_scenario(4_000, 500, 1);
        let service = || {
            let mut svc = QueryService::new(presets::modern_smp(2));
            svc.register_table("F", star.fact.clone(), 8);
            svc.register_table("D", star.dims[0].clone(), 8);
            svc
        };
        let mut svc = service();
        submit_joins(&mut svc, &[100, 200]);
        drain_on(&mut svc, Backend::Native, false);
        let running = Arc::clone(&svc.pool.running);
        assert_eq!(
            running.load(Ordering::SeqCst),
            1,
            "member 1's resident worker thread"
        );

        // The worker thread holds an arena going into the batch.
        let has_arena = || -> Job {
            Box::new(|w: &mut Worker| {
                w.arena.get_or_insert_with(ExecContext::native);
                Ok(ExecutedQuery {
                    output_n: 0,
                    output_hash: 0,
                    measured_ns: 0.0,
                    ops: 0,
                })
            })
        };
        on_worker(&mut svc.pool, has_arena()).unwrap();

        // Member 0 dirties its arena and panics mid-job, on the caller's
        // thread.
        let survivor_ran = Arc::new(AtomicBool::new(false));
        let ran = Arc::clone(&survivor_ran);
        let jobs: Vec<Job> = vec![
            Box::new(|w: &mut Worker| {
                let ctx = w.arena.as_mut().expect("a resident arena");
                let at = ctx.mem.alloc(1 << 16, 64);
                ctx.mem.host_write_bytes(at, &[0xEE; 1 << 16]);
                panic!("injected: member 0 fails mid-job");
            }),
            Box::new(move |_: &mut Worker| {
                ran.store(true, Ordering::SeqCst);
                Err(PlanError::UnknownTable {
                    table: 9,
                    tables: 2,
                })
            }),
        ];
        let results = run_jobs(&mut svc.pool, jobs);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &PlanError::WorkerPanicked { member: 0 }
        );
        // The wait returned with member 1's result too: it did its work
        // rather than being torn down.
        assert!(matches!(
            results[1],
            Err(PlanError::UnknownTable { table: 9, .. })
        ));
        assert!(survivor_ran.load(Ordering::SeqCst));
        // The panicking worker state threw its arena away; the worker
        // thread kept the arena it held across the panic.
        let peek = || -> Job {
            Box::new(|w: &mut Worker| {
                Ok(ExecutedQuery {
                    output_n: u64::from(w.arena.is_some()),
                    output_hash: 0,
                    measured_ns: 0.0,
                    ops: 0,
                })
            })
        };
        svc.pool.run_here(0, 0, peek());
        let here = svc.pool.wait_done().result.unwrap().output_n;
        let worker = on_worker(&mut svc.pool, peek()).unwrap().output_n;
        assert_eq!((here, worker), (0, 1));

        // The same service serves the next native batch as the simulator
        // would, on the same workers.
        submit_joins(&mut svc, &[150, 250]);
        let native = drain_on(&mut svc, Backend::Native, false);
        let mut sim = service();
        submit_joins(&mut sim, &[100, 200, 150, 250]);
        let sim = drain_on(&mut sim, Backend::Sim, false);
        assert_eq!(native, sim[2..]);
        assert_eq!(running.load(Ordering::SeqCst), 1, "no worker was lost");

        // Dropping the service joins every worker thread.
        drop(svc);
        assert_eq!(running.load(Ordering::SeqCst), 0, "worker threads leaked");
    }

    #[test]
    fn native_members_probe_the_shared_builds_admission_priced() {
        // Three joins over the same dimension: the first registers the
        // build and keeps its build phase, the other two were priced as
        // sharers — and must execute as sharers on the host too, with
        // the answers the simulator gives.
        // (Sized so the optimizer picks the plain hash join the registry
        // shares.)
        let star = Workload::new(314).star_scenario(8_000, 1_000, 1);
        let service = || {
            let mut svc = QueryService::new(presets::modern_smp(4));
            svc.register_table("F", star.fact.clone(), 8);
            svc.register_table("D", star.dims[0].clone(), 8);
            submit_joins(&mut svc, &[120, 240, 360]);
            assert_eq!(svc.builds().reused(), 2);
            svc
        };
        let mut native = service();
        let got = drain_on(&mut native, Backend::Native, false);
        let batches = native
            .metrics()
            .registry
            .counter(crate::metrics::BATCHES_TOTAL);
        assert_eq!(batches, Some(1), "the three joins co-run as one batch");
        let labels: Vec<String> = native
            .spans()
            .drain()
            .into_iter()
            .filter(|s| s.name.starts_with("join["))
            .map(|s| s.name)
            .collect();
        let shared = labels.iter().filter(|l| *l == "join[hash,shared]").count();
        assert_eq!((labels.len(), shared), (3, 2), "{labels:?}");
        assert_eq!(got, drain_on(&mut service(), Backend::Sim, false));
        assert!(got.iter().all(|r| r.1 > 0));
    }

    #[test]
    fn undrained_tracing_reuses_one_lane_per_worker_slot() {
        // 50 two-member batches with nobody draining: the spans must sit
        // on the control lane plus one lane per worker slot, not on a
        // fresh lane per executed query.
        let mut svc = QueryService::with_config(
            presets::tiny_smp(4),
            ServiceConfig {
                max_batch: 2,
                ..ServiceConfig::default()
            },
        );
        let keys = Workload::new(7).shuffled_keys(512);
        svc.register_table("F", keys, 8);
        for _ in 0..50 {
            for cut in [100, 200] {
                svc.submit(LogicalPlan::scan(0).select_lt(cut)).unwrap();
            }
            let batch = svc.next_batch().unwrap();
            assert_eq!(batch.size(), 2);
            svc.execute_batch(batch).unwrap();
        }
        let spans = svc.spans().drain();
        let mut lanes: Vec<usize> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert!(lanes.len() <= 1 + 2, "lanes {lanes:?}");
        let mut ids: Vec<(usize, u64)> = spans.iter().map(|s| (s.lane, s.seq)).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "(lane, seq) must stay unique");
        assert_eq!(
            spans.iter().filter(|s| s.kind == SpanKind::Execute).count(),
            100,
            "one select span per executed query, none lost"
        );
        assert_eq!(svc.spans().dropped(), 0);
    }
}
