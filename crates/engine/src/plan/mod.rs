//! Query plans: a tree IR, a whole-plan cost-based optimizer, and an
//! executor (the paper's motivating use-case, §1, grown to whole
//! queries, §6).
//!
//! The subsystem replaces per-operator costing with *whole-plan*
//! costing: every node of a plan tree describes itself in the access-
//! pattern language, the tree's patterns are composed with `⊕` in
//! execution order, and the composed pattern is priced in one shot — so
//! the cache-state threading of Eq 5.2 (an operator reading what its
//! producer just wrote may find it cached) and the footprint sharing of
//! Eq 5.3 (concurrent cursors inside a node compete for capacity)
//! decide between plans, not per-operator cold-cache sums.
//!
//! * [`logical`] — the algorithm-free plan tree ([`LogicalPlan`]):
//!   scan / select / join / aggregate / sort / dedup / partition over
//!   any number of base relations.
//! * [`physical`] — the executable tree ([`PhysicalPlan`]): every join
//!   node carries a [`JoinAlgorithm`], every partition node a concrete
//!   fan-out. A plan names no degree of parallelism: one query runs on
//!   one core, and `⊙` across cores is applied between the queries of a
//!   batch ([`gcm_core::CostModel::batch_cost`]), never inside a plan.
//! * [`optimizer`] — enumerates physical alternatives per node (every
//!   join algorithm, candidate partition fan-outs), prices complete
//!   trees stage by stage, and ranks them ([`Optimizer`]), evaluating a
//!   tree's memory pattern only while its CPU term alone could still
//!   rank it among the kept alternatives. The machine's core count does
//!   not enter: the same statistics give the same plans at the same
//!   prices on 1 core and on 8.
//! * [`exec`] — lowers a physical plan onto the real operators in
//!   [`crate::ops`], returning the actual result *and* the compound
//!   pattern with actual intermediate cardinalities ([`execute`]).
//!
//! ```
//! use gcm_core::CostModel;
//! use gcm_engine::plan::{execute, LogicalPlan, Optimizer, TableStats};
//! use gcm_engine::ExecContext;
//! use gcm_hardware::presets;
//! use gcm_workload::Workload;
//!
//! // σ(F.key < 200) ⋈ D — fact table with FK draws, dimension with PKs.
//! let logical = LogicalPlan::scan(0).select_lt(200).join(LogicalPlan::scan(1));
//!
//! let mut wl = Workload::new(7);
//! let star = wl.star_scenario(2000, 400, 1);
//! let stats = [
//!     TableStats::uniform(2000, 8, 400, false),
//!     TableStats::key_column(400, 8, false),
//! ];
//!
//! // The optimizer picks the physical plan with the cheapest
//! // whole-tree predicted cost...
//! let spec = presets::tiny();
//! let model = CostModel::new(spec.clone());
//! let best = Optimizer::new(&model).optimize(&logical, &stats).unwrap();
//!
//! // ...and the executor runs it for real over the simulator.
//! let mut ctx = ExecContext::new(spec);
//! let tables = [
//!     ctx.relation_from_keys("F", &star.fact, 8),
//!     ctx.relation_from_keys("D", &star.dims[0], 8),
//! ];
//! let run = execute(&mut ctx, &best.plan, &tables).unwrap();
//! assert!(run.output.n() > 0);
//! ```

pub mod catalog;
pub mod exec;
pub mod explain;
pub mod logical;
pub mod optimizer;
pub mod physical;

/// Width of join and aggregate output tuples: the 8-byte key plus an
/// 8-byte payload/count (the engine's `(key, value)` convention).
pub const OUT_TUPLE_BYTES: u64 = 16;

pub use catalog::{StatsCatalog, StatsSnapshot};
pub use exec::{
    execute, execute_traced, materialize_tables, run_on, shared_build_tables, BuildSource,
    ExecTracer, NoPrebuilt, NoTrace, PlanRun, PrebuiltBuild, SpanTracer, TableDef,
};
pub use explain::{explain_analyze, plan_classes, ExplainNode, ExplainReport};
pub use logical::LogicalPlan;
pub use optimizer::{Optimizer, PlanError, PlannedQuery, TableStats};
pub use physical::{JoinAlgorithm, PhysicalPlan};

/// The reusable optimize-to-executable entry point: the cheapest
/// physical plan for `plan` under `tables` with the default optimizer
/// configuration (default CPU calibration, beam 8, cold caches), ready
/// for [`execute`] — [`Optimizer::optimize`], which returns exactly the
/// first plan [`Optimizer::enumerate`] ranks but does not evaluate the
/// memory pattern of an alternative whose CPU term alone exceeds the
/// best total found. This is the single path a caching layer memoizes
/// — one deterministic function from (logical plan, statistics) to
/// ([`PhysicalPlan`], predicted cost) — so a cache hit is guaranteed to
/// return exactly what a fresh optimization would have produced.
pub fn optimize_and_lower(
    model: &gcm_core::CostModel,
    plan: &LogicalPlan,
    tables: &[TableStats],
) -> Result<PlannedQuery, PlanError> {
    Optimizer::new(model).optimize(plan, tables)
}
