//! The executor pool: long-lived workers that run admitted batches, one
//! generic path for every backend.
//!
//! The measured side of the multi-core model. The pool is owned by the
//! [`QueryService`] and is the service's only spawn site: a batch of
//! `d` queries is `d` jobs, member 0 run on the calling thread (which
//! would otherwise only wait) and members `1..d` on worker threads that
//! the pool grows to the largest batch seen. Every worker — the
//! caller's slot included — lives as long as the service, keeping its
//! span lane and one native arena the whole time. Each job runs its
//! physical plan through the one plan executor
//! ([`gcm_engine::plan::execute_traced`]) with the shared builds
//! admission priced for it, reporting its operators to the worker's
//! lane. Jobs own what they read — `Arc`s to the plan, to the
//! table versions the query was admitted with, and to its builds — so a
//! table replaced while a query waits never changes its answer.
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
//!
//! The two [`QueryService`] methods over this path keep only their own
//! bookkeeping: [`QueryService::execute_batch`] (simulator: records,
//! drift) and [`QueryService::execute_batch_native_observed`] (host:
//! per-class histograms). Both fold their batch wall into the shed
//! gate's wall-scale EWMA.

use crate::admission::DEFAULT_DISPATCH_NS;
use crate::builds::SharedBuild;
use crate::metrics::{BatchRecord, QueryRecord};
use crate::queue::{Batch, Pending};
use crate::QueryService;
use gcm_core::{
    footprint_lines, footprint_lines_excluding, references_region, CpuCost, Geometry, Pattern,
    Region, RegionId,
};
use gcm_engine::plan::{
    self, plan_classes, BuildSource, PlanError, PlannedQuery, PrebuiltBuild, SpanTracer, TableDef,
};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend};
use gcm_hardware::{HardwareSpec, Sharing};
use gcm_obs::{SpanRecorder, SpanSink};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One version of the whole catalog: the tables as a query was admitted
/// with them. [`QueryService::update_table`] publishes a new version
/// and leaves this one to whoever still holds it.
pub(crate) type Tables = Arc<Vec<Arc<TableDef>>>;

/// The builds one batch member may reuse, as a [`BuildSource`] for the
/// plan executor: `prebuilt(t)` answers with the member's shared build
/// over table `t`, if it holds one.
#[derive(Debug, Default)]
pub struct MemberBuilds {
    builds: Vec<Arc<SharedBuild>>,
}

impl MemberBuilds {
    /// A source over the given shared builds.
    pub fn new(builds: Vec<Arc<SharedBuild>>) -> MemberBuilds {
        MemberBuilds { builds }
    }
}

impl BuildSource for MemberBuilds {
    fn prebuilt(&self, table: usize) -> Option<PrebuiltBuild> {
        self.builds
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
    /// FNV-1a hash of the output relation's raw bytes — the
    /// result-equality surface: two executions of the same query agree
    /// byte for byte iff their hashes agree (with or without shared
    /// builds, on any backend).
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

/// FNV-1a over a byte slice (order-sensitive, so tuple order matters —
/// exactly what byte identity means).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-member machine views of a batch: each member keeps every
/// [`Private`](Sharing::Private) level whole and receives, at every
/// [`Shared`](Sharing::Shared) level, a capacity slice proportional to
/// its pattern's footprint there — the allocation rule of Eq 5.3. A
/// singleton batch sees the whole machine.
///
/// Regions in `shared` (immutable builds several members probe) are
/// counted once in each shared level's allocation denominator, mirroring
/// the pricing rule of [`gcm_core::CostModel::batch_cost_shared`] — so
/// the enforcement stays exactly what the admission controller priced. A
/// member's own claim (numerator) keeps its full footprint, clamped at
/// the whole level.
pub fn member_views(
    spec: &HardwareSpec,
    patterns: &[&Pattern],
    shared: &[Region],
) -> Vec<HardwareSpec> {
    let d = patterns.len();
    if d <= 1 {
        return patterns.iter().map(|_| spec.thread_view(1)).collect();
    }
    let mut shared_unique: Vec<&Region> = Vec::with_capacity(shared.len());
    for r in shared {
        if !shared_unique.iter().any(|s| s.id() == r.id()) {
            shared_unique.push(r);
        }
    }
    let shared_ids: Vec<RegionId> = shared_unique.iter().map(|r| r.id()).collect();
    // Full footprint of every member at every level (its claim), and the
    // capacity denominator with shared regions counted once.
    let feet: Vec<Vec<f64>> = patterns
        .iter()
        .map(|p| {
            spec.levels()
                .iter()
                .map(|lvl| footprint_lines(p, &Geometry::of(lvl)))
                .collect()
        })
        .collect();
    let denom: Vec<f64> = spec
        .levels()
        .iter()
        .map(|lvl| {
            let geo = Geometry::of(lvl);
            let mut total: f64 = patterns
                .iter()
                .map(|p| footprint_lines_excluding(p, &geo, &shared_ids))
                .sum();
            for r in &shared_unique {
                if patterns.iter().any(|p| references_region(p, r.id())) {
                    total += r.lines(geo.b as u64).max(1.0);
                }
            }
            total
        })
        .collect();
    (0..d)
        .map(|i| {
            let levels = spec
                .levels()
                .iter()
                .enumerate()
                .map(|(l, lvl)| {
                    if lvl.sharing != Sharing::Shared {
                        return lvl.clone();
                    }
                    let share = if denom[l] > 0.0 {
                        (feet[i][l] / denom[l]).min(1.0)
                    } else {
                        1.0 / d as f64
                    };
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
            builds: MemberBuilds::new(p.builds.clone()),
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
            output_hash: fnv1a(&ctx.relation_bytes(&r.output)),
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

/// Where a worker reports member `i`'s result.
type Done = Sender<(usize, Result<ExecutedQuery, PlanError>)>;

/// A running worker: its job queue and its thread.
struct WorkerThread {
    jobs: Sender<(usize, Job, Done)>,
    thread: JoinHandle<()>,
}

/// The service's executor. Member 0 of every batch runs on the calling
/// thread, which would otherwise only wait, with the pool's own worker
/// state; members 1.. run on long-lived worker threads, grown to the
/// largest batch seen and joined when the pool is dropped. Waking one
/// parked worker per extra member, rather than handing every member to
/// a thread, keeps a short batch from queueing behind its own wake-ups.
pub(crate) struct Pool {
    /// Hands each worker its span lane.
    spans: SpanRecorder,
    /// Member 0's worker state, used by whichever thread calls
    /// [`run`](Pool::run).
    caller: Option<Worker>,
    /// Worker `i` runs member `i + 1`.
    workers: Vec<WorkerThread>,
    /// Worker threads still running: each counts itself out as it exits.
    running: Arc<AtomicUsize>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl Pool {
    /// An empty pool whose workers record spans into `spans`.
    pub(crate) fn new(spans: SpanRecorder) -> Pool {
        Pool {
            spans,
            caller: None,
            workers: Vec::new(),
            running: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn spawn(&self) -> WorkerThread {
        let (jobs, queue) = mpsc::channel::<(usize, Job, Done)>();
        let mut worker = Worker::new(&self.spans);
        let running = Arc::clone(&self.running);
        running.fetch_add(1, Ordering::SeqCst);
        let thread = std::thread::Builder::new()
            .name(format!("gcm-exec-{}", self.workers.len() + 1))
            .spawn(move || {
                for (member, job, done) in queue {
                    let _ = done.send((member, worker.run_caught(member, job)));
                }
                running.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn an executor worker");
        WorkerThread { jobs, thread }
    }

    /// Run job `i` as batch member `i` — job 0 here, job `i > 0` on
    /// worker thread `i - 1`, growing the pool first — and wait for
    /// every result. Results come back in job order; the first failed
    /// member fails the batch, and a panicking job turns into
    /// [`PlanError::WorkerPanicked`] instead of taking the caller's
    /// thread down with it.
    pub(crate) fn run(&mut self, jobs: Vec<Job>) -> Result<Vec<ExecutedQuery>, PlanError> {
        let n = jobs.len();
        while self.workers.len() + 1 < n {
            let w = self.spawn();
            self.workers.push(w);
        }
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else {
            return Ok(Vec::new());
        };
        let (done, results) = mpsc::channel();
        for ((member, job), w) in (1..).zip(jobs).zip(&self.workers) {
            // A worker only stops when the pool drops its queue, so a
            // failed send leaves this member's result missing, which is
            // reported as a panic below.
            let _ = w.jobs.send((member, job, done.clone()));
        }
        drop(done);
        let spans = &self.spans;
        let caller = self.caller.get_or_insert_with(|| Worker::new(spans));
        let mut out: Vec<Option<Result<ExecutedQuery, PlanError>>> = (0..n).map(|_| None).collect();
        out[0] = Some(caller.run_caught(0, first));
        for (member, result) in results {
            out[member] = Some(result);
        }
        out.into_iter()
            .enumerate()
            .map(|(member, r)| r.unwrap_or(Err(PlanError::WorkerPanicked { member })))
            .collect()
    }
}

impl Drop for Pool {
    /// Close every worker's queue and join its thread.
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            drop(w.jobs);
            let _ = w.thread.join();
        }
    }
}

impl QueryService {
    /// Run `batch` on the pool: member `i` becomes the job `job(i, m)`
    /// makes of it, holding the table versions and shared builds
    /// admission attached to it.
    fn run_batch(
        &mut self,
        batch: &Batch,
        job: impl Fn(usize, Member) -> Job,
    ) -> Result<Vec<ExecutedQuery>, PlanError> {
        let jobs = batch
            .entries
            .iter()
            .enumerate()
            .map(|(i, p)| job(i, Member::of(p)))
            .collect();
        self.pool.run(jobs)
    }

    /// Execute an admitted batch on the **simulated** pool — each member
    /// on its footprint-proportional [`member_views`] slice of the
    /// machine — and record its metrics. Returns the index of the new
    /// [`BatchRecord`](crate::ServiceMetrics::batches).
    pub fn execute_batch(&mut self, batch: Batch) -> Result<usize, PlanError> {
        let patterns: Vec<&Pattern> = batch.entries.iter().map(|p| p.pattern.as_ref()).collect();
        let views = member_views(self.spec(), &patterns, &batch.shared_regions());
        let runs = self.run_batch(&batch, |i, m| {
            let view = views[i].clone();
            Box::new(move |w: &mut Worker| w.run_sim(&m, view))
        })?;
        let batch_idx = self.metrics.batches.len();
        // The simulator cannot measure dispatch (it is host-side thread
        // bring-up, not simulated memory traffic), so the batch wall
        // carries the same per-worker constant the admission predicate
        // charged — both sides account dispatch identically and the
        // accuracy ratio reflects model quality, not bookkeeping.
        let measured_wall_ns = runs.iter().map(|r| r.measured_ns).fold(0.0, f64::max)
            + DEFAULT_DISPATCH_NS * batch.size() as f64;
        for ((pending, run), predicted_ns) in
            batch.entries.iter().zip(&runs).zip(&batch.per_query_ns)
        {
            // Service-level drift: the whole-query measured/predicted
            // ratio, attributed to every operator class the plan
            // contains (once per class). Coarser than the per-node
            // attribution of `explain_analyze` — here a stale class
            // shows up on every plan shape that uses it.
            let mut classes = plan_classes(&pending.planned.plan);
            classes.sort_unstable();
            classes.dedup();
            for class in classes {
                self.drift.observe(class, run.measured_ns, *predicted_ns);
            }
            self.metrics.record_query(QueryRecord {
                id: pending.id,
                plan: pending.plan.to_string(),
                batch: batch_idx,
                predicted_ns: *predicted_ns,
                measured_ns: run.measured_ns,
                output_n: run.output_n,
                output_hash: run.output_hash,
            });
        }
        self.metrics.record_batch(BatchRecord {
            ids: batch.ids(),
            predicted_wall_ns: batch.predicted_wall_ns,
            predicted_serial_ns: batch.predicted_serial_ns,
            measured_wall_ns,
        });
        self.observe_wall_scale(measured_wall_ns, batch.predicted_wall_ns);
        self.sync_cache_counters();
        Ok(batch_idx)
    }

    /// Execute an admitted batch on the **host's real memory**:
    /// identical results, wall-clock latencies, each run paired with
    /// its query id for response routing. Native runs are returned
    /// rather than folded into the per-query
    /// [`ServiceMetrics`](crate::ServiceMetrics) records — those compare
    /// the model against the *simulator*, whose charged clock shares the
    /// model's units. What the serving path does keep: the batch's wall
    /// clock is folded into the model-ns → wall-ns EWMA the shed
    /// projection uses ([`next_batch_at`](QueryService::next_batch_at)),
    /// and per-class native latency histograms and batch counters land
    /// in the registry.
    pub fn execute_batch_native_observed(
        &mut self,
        batch: Batch,
    ) -> Result<Vec<(u64, ExecutedQuery)>, PlanError> {
        let t0 = std::time::Instant::now();
        let runs = self.run_batch(&batch, |_, m| {
            Box::new(move |w: &mut Worker| w.run_native(&m))
        })?;
        let wall_ns = t0.elapsed().as_nanos() as f64;
        self.observe_wall_scale(wall_ns, batch.predicted_wall_ns);
        let r = &self.metrics.registry;
        r.inc("gcm_service_native_batches_total", 1);
        r.observe_ns("gcm_service_native_batch_wall_ns", wall_ns);
        for (p, run) in batch.entries.iter().zip(&runs) {
            if let Some(class) = p.class {
                r.observe_ns(
                    &gcm_obs::registry::labeled(
                        "gcm_service_native_query_ns",
                        &[("class", class.label())],
                    ),
                    run.measured_ns,
                );
            }
        }
        Ok(batch.entries.iter().map(|p| p.id).zip(runs).collect())
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
        self.sync_cache_counters();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{drain_on, submit_joins, Backend};
    use crate::ServiceConfig;
    use gcm_engine::plan::{LogicalPlan, PhysicalPlan};
    use gcm_engine::planner::JoinAlgorithm;
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
        Pool::new(spans).run(jobs)
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
        drain_on(&mut svc, Backend::Native);
        let running = Arc::clone(&svc.pool.running);
        assert_eq!(
            running.load(Ordering::SeqCst),
            1,
            "member 1's resident worker thread"
        );

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
        let err = svc.pool.run(jobs).unwrap_err();
        assert_eq!(err, PlanError::WorkerPanicked { member: 0 });
        // The call returned with member 1's result too: it did its work
        // rather than being torn down.
        assert!(survivor_ran.load(Ordering::SeqCst));
        // The panicking worker threw its arena away; the other kept its.
        let has_arena = || -> Job {
            Box::new(|w: &mut Worker| {
                Ok(ExecutedQuery {
                    output_n: u64::from(w.arena.is_some()),
                    output_hash: 0,
                    measured_ns: 0.0,
                    ops: 0,
                })
            })
        };
        let arenas = svc.pool.run(vec![has_arena(), has_arena()]).unwrap();
        assert_eq!((arenas[0].output_n, arenas[1].output_n), (0, 1));

        // The same service serves the next native batch as the simulator
        // would, on the same workers.
        submit_joins(&mut svc, &[150, 250]);
        let native = drain_on(&mut svc, Backend::Native);
        let mut sim = service();
        submit_joins(&mut sim, &[100, 200, 150, 250]);
        let sim = drain_on(&mut sim, Backend::Sim);
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
        let got = drain_on(&mut native, Backend::Native);
        let batches = native
            .metrics()
            .registry
            .counter("gcm_service_native_batches_total");
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
        assert_eq!(got, drain_on(&mut service(), Backend::Sim));
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
