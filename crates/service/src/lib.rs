//! # gcm-service — a cache-contention-aware query service
//!
//! The paper's `⊙` operator (§5.2, Eq 5.3) prices access patterns that
//! *coexist* in one cache hierarchy. This crate applies it **between
//! queries** — the one place the repo spends cores: a concurrent
//! service that accepts logical plans over registered relations,
//! plans each for one core, and lets the cost model itself decide how
//! many run side by side. Three cooperating components:
//!
//! * a **plan cache** ([`cache::PlanCache`]) memoizing
//!   [`optimize_and_lower`] per (plan fingerprint, statistics epoch) —
//!   statistics drift past the [`StatsCatalog`] threshold bumps the
//!   epoch and forces re-optimization;
//! * a **⊙-priced admission controller** ([`admission`]) that greedily
//!   forms the next batch from the pending queue, admitting a query
//!   only while the `⊙`-composed batch wall time
//!   ([`gcm_core::CostModel::batch_cost`]) beats appending the query
//!   serially — the model decides the concurrency degree across
//!   queries;
//! * an **executor pool** ([`executor`]): one job queue, one completion
//!   queue, and long-lived worker threads — grown to the most members
//!   ever in flight and joined when the service is dropped — that run
//!   each admitted query with the shared builds admission priced for
//!   it, over the table versions it was submitted with, and span
//!   tracing when it is on: either on its own simulated hierarchy view
//!   or on the worker's resident native arena, with tables and shared
//!   builds mapped read-only. A batch enters one way,
//!   [`QueryService::dispatch`] on a [`Backend`], and each member's
//!   result is collected as it completes
//!   ([`QueryService::completions`]) — or the caller waits for the
//!   batch, running queued members itself
//!   ([`QueryService::execute_batch`] on the simulator,
//!   [`QueryService::execute_batch_native_observed`] on the host).
//!   Either way every completion feeds the same latency histograms,
//!   per-class drift and wall-scale EWMA; the simulator's also leave
//!   exact predicted-vs-measured records in [`ServiceMetrics`].
//!
//! Every price the service uses — the optimizer's, admission's, the
//! simulator clock's and EXPLAIN ANALYZE's — charges the one CPU term
//! [`CpuCost::default_planner`]: calibration is an input to the model
//! (paper §2.3), not something the service re-probes while serving.
//! The [`DriftMonitor`] reports how far measurement has wandered from
//! it, per operator class.
//!
//! [`QueryService`] itself is a façade: this file holds construction,
//! table registration, `submit*` and the accessors; batch formation and
//! shedding live in [`queue`], execution in [`executor`], and the
//! counters in [`metrics`].
//!
//! ```
//! use gcm_engine::plan::LogicalPlan;
//! use gcm_hardware::presets;
//! use gcm_service::QueryService;
//! use gcm_workload::Workload;
//!
//! let mut svc = QueryService::new(presets::modern_smp(4));
//! let mut wl = Workload::new(7);
//! let star = wl.star_scenario(4_000, 512, 1);
//! let fact = svc.register_table("F", star.fact, 8);
//! let dim = svc.register_table("D", star.dims[0].clone(), 8);
//!
//! // Two scans and a join land in the queue...
//! for cut in [128, 256] {
//!     svc.submit(LogicalPlan::scan(fact).select_lt(cut).group_count())
//!         .unwrap();
//! }
//! svc.submit(
//!     LogicalPlan::scan(fact)
//!         .select_lt(256)
//!         .join(LogicalPlan::scan(dim))
//!         .group_count(),
//! )
//! .unwrap();
//!
//! // ...and the service batches and executes them.
//! svc.run().unwrap();
//! let m = svc.metrics();
//! assert_eq!(m.queries.len(), 3);
//! assert!(m.total_wall_ns() > 0.0);
//! ```

pub mod admission;
pub mod builds;
pub mod cache;
pub mod executor;
pub mod metrics;
pub mod mix;
pub mod queue;
#[cfg(test)]
mod tests;

pub use admission::SloPolicy;
pub use builds::{strip_build_phase, BuildRegistry, SharedBuild};
use cache::ServingMemo;
pub use cache::{PlanCache, PlanKey};
pub use executor::{Backend, Completion, ExecutedQuery};
pub use metrics::{BatchRecord, QueryRecord, ServiceMetrics, ShedRecord};
pub use mix::{plan_for, TenantTables};
pub use queue::Batch;

use executor::{Pool, Running, Tables};
use gcm_core::{CostModel, CostReport, CpuCost, Pattern};
use gcm_engine::ops::hash::build_ops;
use gcm_engine::plan::{
    explain_analyze, materialize_tables, optimize_and_lower, shared_build_tables, ExplainReport,
    LogicalPlan, PlanError, PlannedQuery, StatsCatalog, TableDef, TableStats,
};
use gcm_engine::ExecContext;
use gcm_hardware::HardwareSpec;
use gcm_obs::{DriftMonitor, FlightRecorder, Span, SpanKind, SpanRecorder, SpanSink};
use gcm_workload::TenantClass;
use queue::Pending;
use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Service knobs. The CPU charge, the per-worker dispatch charge and
/// the statistics drift threshold are constants, not settings:
/// [`CpuCost::default_planner`], the admission module's dispatch
/// charge, and [`DEFAULT_DRIFT_THRESHOLD`](gcm_engine::plan::catalog::DEFAULT_DRIFT_THRESHOLD).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Hard cap on batch size — and on members in flight, since a batch
    /// formed while others run gets only the slots they leave; 0 (the
    /// default) means "the machine's core count".
    pub max_batch: usize,
    /// Per-class sojourn budgets turning admission into overload
    /// shedding ([`QueryService::next_batch_at`]); `None` (the
    /// default) never sheds.
    pub slo: Option<SloPolicy>,
}

/// The query service: registered relations on one shared machine, a
/// plan cache, the ⊙-priced batch scheduler, and the executor pool.
/// See the [crate docs](crate) for the architecture.
#[derive(Debug)]
pub struct QueryService {
    /// The shared machine's cost model. It optimizes and prices single
    /// plans (one core per query) and, through the levels' `Sharing`
    /// attributes, prices batches with the `⊙`-across-cores rule — the
    /// service spends its cores *across* queries, never inside one.
    model: CostModel,
    catalog: StatsCatalog,
    /// The current catalog version, published whole: a submitted query
    /// pins the version it was admitted with, and
    /// [`update_table`](QueryService::update_table) publishes the next.
    tables: Tables,
    cache: PlanCache,
    builds: BuildRegistry,
    queue: VecDeque<Pending>,
    cfg: ServiceConfig,
    next_id: u64,
    metrics: ServiceMetrics,
    /// The service trace: control-path spans (optimize / build-attach /
    /// admission) land on [`QueryService::ctl`]'s lane, per-operator
    /// execute spans on the worker lanes below.
    spans: SpanRecorder,
    /// The control path's own span lane (submit / next_batch run on the
    /// caller's thread — one writer, one lane).
    ctl: SpanSink,
    /// The executor's long-lived workers, grown to the most members
    /// ever in flight; each keeps one span lane and one native arena for
    /// its whole life, so a trace nobody drains costs one bounded ring
    /// per worker, not a lane per executed query. Dropping the service
    /// joins them.
    pool: Pool,
    /// Dispatched batches with members still running, oldest first.
    running: Vec<Running>,
    /// Ticket of the next dispatched batch.
    next_ticket: u64,
    /// Completions of other batches a waiting caller collected, kept
    /// for [`completions`](QueryService::completions).
    ready: VecDeque<Completion>,
    /// [`inject_member_panic`](QueryService::inject_member_panic)'s
    /// plan fingerprint.
    faulty_plan: Option<u64>,
    /// Per-operator-class measured/predicted drift of every member that
    /// ran, on either backend, exported as gauges by
    /// [`QueryService::metrics`].
    drift: DriftMonitor,
    /// Post-hoc debugging ring: the last
    /// [`FLIGHT_CAPACITY`](QueryService::FLIGHT_CAPACITY) EXPLAIN
    /// ANALYZE reports ([`QueryService::explain_analyze`]).
    flight: FlightRecorder,
    /// EWMA of the admission controller's predicted batch speedup —
    /// the ⊙-informed drain rate the shed projection divides the
    /// backlog by.
    drain_speedup: f64,
    /// EWMA of measured-wall / predicted-wall of every batch that ran,
    /// on either backend: the bridge from model nanoseconds to the
    /// caller's clock in the shed projection. Seeded by the first
    /// observed batch.
    wall_scale: f64,
    wall_scale_seeded: bool,
}

impl QueryService {
    /// A service on the given machine with the default configuration.
    pub fn new(spec: HardwareSpec) -> QueryService {
        QueryService::with_config(spec, ServiceConfig::default())
    }

    /// A service with explicit knobs.
    pub fn with_config(spec: HardwareSpec, cfg: ServiceConfig) -> QueryService {
        let spans = SpanRecorder::with_capacity(QueryService::SPAN_LANE_CAPACITY);
        let ctl = spans.sink();
        QueryService {
            model: CostModel::new(spec),
            catalog: StatsCatalog::new(Vec::new()),
            tables: Tables::default(),
            cache: PlanCache::new(),
            builds: BuildRegistry::new(),
            queue: VecDeque::new(),
            cfg,
            next_id: 0,
            metrics: ServiceMetrics::default(),
            pool: Pool::new(spans.clone()),
            running: Vec::new(),
            next_ticket: 0,
            ready: VecDeque::new(),
            faulty_plan: None,
            spans,
            ctl,
            drift: DriftMonitor::new(),
            flight: FlightRecorder::new(QueryService::FLIGHT_CAPACITY),
            drain_speedup: 1.0,
            wall_scale: 1.0,
            wall_scale_seeded: false,
        }
    }

    /// EXPLAIN ANALYZE reports kept in the [`flight`](QueryService::flight)
    /// ring before the oldest is evicted.
    pub const FLIGHT_CAPACITY: usize = 32;

    /// Spans each of the service's lanes (the control lane and one per
    /// batch worker slot) holds between two
    /// [`drain`](SpanRecorder::drain)s; past it a lane drops and counts.
    /// The lanes live as long as the service and every slot is allocated
    /// up front, so this is what tracing costs a server that never
    /// drains: ~112 KiB per lane.
    const SPAN_LANE_CAPACITY: usize = 1024;

    /// Record a control-path span (optimize / build-attach / admission)
    /// on the service's own lane. A no-op when tracing is off, which
    /// never builds the span's `name`.
    fn ctl_span(
        &mut self,
        name: impl FnOnce() -> String,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        ops: u64,
    ) {
        if !self.ctl.active() {
            return;
        }
        self.ctl.record(Span {
            name: name(),
            kind,
            start_ns,
            end_ns,
            elapsed_ns: end_ns.saturating_sub(start_ns) as f64,
            accesses: 0,
            level_misses: Vec::new(),
            ops,
            lane: 0,
            seq: 0,
        });
    }

    /// Register a relation (a key column of `w`-byte tuples), deriving
    /// its [`TableStats`] from the data and publishing its tuples once
    /// as an immutable image ([`TableDef`]). Returns the catalog index
    /// submitted plans reference.
    pub fn register_table(&mut self, name: &str, keys: Vec<u64>, w: u64) -> usize {
        let stats = derive_stats(&keys, w);
        let idx = self.catalog.push(stats);
        Arc::make_mut(&mut self.tables).push(Arc::new(TableDef::new(name, keys, w)));
        idx
    }

    /// Replace a registered relation's data, refreshing its statistics
    /// and publishing a new catalog version; queries already queued keep
    /// answering from the version they were admitted with. Returns
    /// `true` when the stats drifted past the threshold and bumped the
    /// epoch (stale plan-cache entries are retired). The table's shared
    /// builds are retired either way: they were laid out from the old
    /// keys.
    pub fn update_table(&mut self, idx: usize, keys: Vec<u64>) -> bool {
        let w = self.tables[idx].w;
        let stats = derive_stats(&keys, w);
        let table = Arc::new(TableDef::new(self.tables[idx].name.clone(), keys, w));
        Arc::make_mut(&mut self.tables)[idx] = table;
        self.builds.retire_table(idx);
        let bumped = self.catalog.update(idx, stats);
        if bumped {
            let epoch = self.catalog.epoch();
            self.cache.retire_epochs_before(epoch);
            self.builds.retire_epochs_before(epoch);
        }
        bumped
    }

    /// Submit a logical plan: optimize it (through the plan cache,
    /// against the current statistics epoch) and append it to the
    /// pending queue, attaching the shared build side of every hash
    /// join over a base table ([`BuildRegistry`]). Returns the query id.
    pub fn submit(&mut self, plan: LogicalPlan) -> Result<u64, PlanError> {
        self.submit_inner(plan, None, 0)
    }

    /// Submit a logical plan on behalf of a tenant class, stamping its
    /// arrival time (in the caller's clock, ns). Classed submissions
    /// participate in SLO shedding and priority ordering when
    /// [`ServiceConfig::slo`] is set and the queue is drained through
    /// [`QueryService::next_batch_at`]; plain
    /// [`submit`](QueryService::submit)s never shed.
    pub fn submit_classed(
        &mut self,
        plan: LogicalPlan,
        class: TenantClass,
        arrival_ns: u64,
    ) -> Result<u64, PlanError> {
        self.submit_inner(plan, Some(class), arrival_ns)
    }

    fn submit_inner(
        &mut self,
        plan: LogicalPlan,
        class: Option<TenantClass>,
        arrival_ns: u64,
    ) -> Result<u64, PlanError> {
        let epoch = self.catalog.epoch();
        let key = (plan.fingerprint(), epoch);
        let t0 = self.ctl.now_ns();
        let (planned, memo) = self.cache.lookup(key, &plan, || {
            optimize_and_lower(&self.model, &plan, self.catalog.tables())
        })?;
        let t1 = self.ctl.now_ns();
        let serving = attach_shared_builds(
            &self.model,
            &mut self.builds,
            &self.tables,
            &planned,
            epoch,
            memo,
        );
        let t2 = self.ctl.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        self.ctl_span(|| format!("optimize q{id}"), SpanKind::Optimize, t0, t1, 0);
        self.ctl_span(
            || format!("attach-builds q{id}"),
            SpanKind::Build,
            t1,
            t2,
            serving.builds.len() as u64,
        );
        self.queue.push_back(Pending {
            id,
            plan,
            planned,
            tables: Arc::clone(&self.tables),
            serving,
            class,
            arrival_ns,
            committed: false,
        });
        let depth = self.queue.len() as f64;
        self.metrics.registry.set_gauge(metrics::QUEUE_DEPTH, depth);
        self.metrics
            .registry
            .gauge_max(metrics::QUEUE_DEPTH_PEAK, depth);
        Ok(id)
    }

    /// Number of queries waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
    /// The current model-ns → caller-clock EWMA the shed projection
    /// multiplies predicted work by (1.0 until a batch has been
    /// observed).
    pub fn wall_scale(&self) -> f64 {
        self.wall_scale
    }

    /// Replace the SLO policy, returning the previous one. A server
    /// front end uses this to run its warmup traffic unshedded (the
    /// wall-scale EWMA is unseeded until the first measured batch, so
    /// projections would be nonsense) and to A/B the shed gate.
    pub fn set_slo(&mut self, slo: Option<SloPolicy>) -> Option<SloPolicy> {
        std::mem::replace(&mut self.cfg.slo, slo)
    }

    /// The plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The shared build-side registry.
    pub fn builds(&self) -> &BuildRegistry {
        &self.builds
    }

    /// The statistics catalog (epoch, per-table stats).
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// The machine the service runs on.
    pub fn spec(&self) -> &HardwareSpec {
        self.model.spec()
    }

    /// The span trace: drain with
    /// [`SpanRecorder::drain`](gcm_obs::SpanRecorder::drain), toggle
    /// with [`set_tracing`](QueryService::set_tracing).
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Turn span recording on or off at runtime (on by default; off
    /// costs one relaxed atomic load per would-be span).
    pub fn set_tracing(&self, on: bool) {
        self.spans.set_enabled(on);
    }

    /// The per-operator-class model-drift monitor, fed by every member
    /// that runs, on either [`Backend`]: on the simulator it judges the
    /// model against the charged clock, on the host against the wall
    /// clock. It reports; it changes nothing. When
    /// [`needs_recalibration`](DriftMonitor::needs_recalibration) says
    /// `true`, re-run the calibrate workflow and build a new service on
    /// the refreshed hardware spec.
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// The EXPLAIN ANALYZE flight recorder: the last
    /// [`FLIGHT_CAPACITY`](QueryService::FLIGHT_CAPACITY) reports, as
    /// dumpable JSON lines — what the service was thinking when a
    /// regression landed, without re-running anything.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// EXPLAIN ANALYZE `plan` against the service's registered tables
    /// on **host memory**: per-node predicted cost against measured
    /// wall-ns. The report is recorded into the
    /// [`flight`](QueryService::flight) ring and returned.
    ///
    /// This is a diagnostic run outside the serving path: it executes
    /// the plan once on the caller's thread, unbatched and without
    /// shared builds, priced with the planner's CPU charge.
    pub fn explain_analyze(&mut self, plan: &LogicalPlan) -> Result<ExplainReport, PlanError> {
        let planned = optimize_and_lower(&self.model, plan, self.catalog.tables())?;
        let mut ctx = ExecContext::native();
        let rels = materialize_tables(&mut ctx, &planned.plan, &self.tables);
        let cpu = CpuCost::default_planner();
        let (_run, report) = explain_analyze(
            &mut ctx,
            &planned.plan,
            &rels,
            &self.model,
            &cpu,
            cpu.per_op_ns,
        )?;
        self.flight
            .record(&format!("fp{:016x}", plan.fingerprint()), &report.to_json());
        Ok(report)
    }
}

/// How a planned query is served once its shared builds are attached:
/// what admission prices and the executor runs.
#[derive(Debug)]
pub(crate) struct Serving {
    /// The planned whole-plan pattern with every shared build phase
    /// stripped and the probe redirected at the build's canonical region
    /// ([`strip_build_phase`]); the planned pattern unchanged when
    /// nothing is shared.
    pub(crate) pattern: Pattern,
    /// `pattern` priced alone from cold caches, per level: the query's
    /// one solo price. The shed gate reads its `mem_ns`, and admission
    /// its private levels, which a cold composition leaves as they are.
    pub(crate) solo: CostReport,
    /// Predicted CPU time matching `pattern`: the planned `cpu_ns` minus
    /// the build share of every stripped build phase.
    pub(crate) cpu_ns: f64,
    /// The shared builds this query probes instead of building.
    pub(crate) builds: Vec<Arc<SharedBuild>>,
}

/// Register (or reuse) a shared build for every hash join in the planned
/// query whose build side is a base-table scan, and return the form the
/// query is served in ([`Serving`]). The *first* query to request a
/// (table, epoch) build registers the layout but keeps its charged build
/// phase — somebody has to pay for the build, and it is the builder.
/// Every later query at the same key reuses: its build phase is
/// stripped, its probe redirected at the canonical shared region, and
/// the optimizer's build share subtracted from its CPU prediction (via
/// [`build_ops`] — the same term the optimizer charged). A rewrite that
/// does not match keeps the planned pattern for that join, so prediction
/// and execution never disagree.
///
/// `memo` is the plan-cache entry's memo slot (`None` for a plan the
/// cache does not hold). When this submit computed no build and was
/// offered exactly the builds the memoized form was made against, that
/// form is served as it is; otherwise the form is made afresh and, when
/// no build was computed, memoized.
fn attach_shared_builds(
    model: &CostModel,
    registry: &mut BuildRegistry,
    tables: &Tables,
    planned: &PlannedQuery,
    epoch: u64,
    memo: Option<&mut Option<ServingMemo>>,
) -> Arc<Serving> {
    let mut offered: Vec<Arc<SharedBuild>> = Vec::new();
    let mut computed = false;
    for t in shared_build_tables(&planned.plan) {
        let Some(data) = tables.get(t) else {
            continue;
        };
        let (b, built_here) = registry.get_or_build(t, epoch, data);
        if built_here {
            computed = true;
        } else {
            offered.push(b);
        }
    }
    let memoized = memo.as_deref().and_then(Option::as_ref);
    if let (Some(serving), false) = (memoized.and_then(|m| m.serving_for(&offered)), computed) {
        return Arc::clone(serving);
    }
    let mut pattern = planned.pattern.clone();
    let mut cpu_ns = planned.cpu_ns;
    let mut builds = Vec::new();
    for b in &offered {
        if let Some(stripped) = strip_build_phase(&pattern, &format!("T{}", b.table), &b.region) {
            pattern = stripped;
            cpu_ns -= CpuCost::default_planner().ns(build_ops(tables[b.table].n()));
            builds.push(Arc::clone(b));
        }
    }
    let serving = Arc::new(Serving {
        solo: model.report(&pattern),
        pattern,
        cpu_ns: cpu_ns.max(0.0),
        builds,
    });
    if let (Some(slot), false) = (memo, computed) {
        *slot = Some(ServingMemo {
            offered,
            serving: Arc::clone(&serving),
        });
    }
    serving
}

/// Derive a relation's [`TableStats`] from its actual key column — the
/// service's statistics collector (exact, since the data is at hand):
/// the maximum and the sortedness in one pass, then the distinct count
/// (`distinct_keys`). The exclusive key bound saturates: a column
/// holding `u64::MAX` gets the bound `u64::MAX`.
pub fn derive_stats(keys: &[u64], w: u64) -> TableStats {
    let mut max = None;
    let mut sorted = true;
    let mut prev = 0;
    for &k in keys {
        sorted &= prev <= k;
        prev = k;
        max = max.max(Some(k));
    }
    TableStats {
        n: keys.len() as u64,
        w,
        key_bound: max.map_or(1, |m| m.saturating_add(1)),
        distinct: max.map_or(0, |m| distinct_keys(keys, m)) as f64,
        sorted,
    }
}

/// How many distinct values `keys`, none above `max`, holds — exactly.
/// Dense keys (a bitmap over `[0, max]` of at most one word per key) are
/// marked in that bitmap. Others go through a set hashed by one
/// multiply, not SipHash: the keys are the columns the service's owner
/// registers, never values read from the wire, so resistance to crafted
/// collisions buys nothing here.
fn distinct_keys(keys: &[u64], max: u64) -> usize {
    if max / 64 < keys.len() as u64 {
        let mut bits = vec![0u64; (max / 64 + 1) as usize];
        for &k in keys {
            bits[(k / 64) as usize] |= 1 << (k % 64);
        }
        bits.iter().map(|word| word.count_ones() as usize).sum()
    } else {
        let mut seen: HashSet<u64, BuildHasherDefault<KeyHasher>> =
            HashSet::with_capacity_and_hasher(keys.len(), BuildHasherDefault::default());
        seen.extend(keys);
        seen.len()
    }
}

/// A [`Hasher`] for `u64` keys: the two halves of one 64×64→128-bit
/// multiply by an odd constant, folded together, so a key's high bits
/// also reach the low bits that pick its bucket.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let p = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p >> 64) as u64 ^ p as u64;
    }
}
