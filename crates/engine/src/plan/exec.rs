//! Lowering a [`PhysicalPlan`] onto the real operators in
//! [`crate::ops`].
//!
//! Execution produces the actual result relation *and* the whole-plan
//! compound pattern with the **actual** intermediate cardinalities —
//! the execution-provided logical-cost oracle that the paper assumes
//! (§1). Comparing [`PlanRun::pattern`] priced by the model against the
//! simulator's measured counters closes the loop on a whole query, the
//! same way the Figure-7 experiments close it per operator.

use super::optimizer::PlanError;
use super::physical::{JoinAlgorithm, PhysicalPlan};
use super::OUT_TUPLE_BYTES;
use crate::backend::MemoryBackend;
use crate::ctx::{ExecContext, RunStats};
use crate::ops;
use crate::relation::{Relation, Segment};
use gcm_core::{library, Pattern, Region};
use gcm_obs::span::{Span, SpanKind, SpanSink};
use std::borrow::Borrow;

/// Result of executing a plan: the real output plus the compound
/// pattern describing everything that was executed.
#[derive(Debug)]
pub struct PlanRun {
    /// The final output relation.
    pub output: Relation,
    /// `node₁ ⊕ node₂ ⊕ …` in execution order, with actual intermediate
    /// cardinalities.
    pub pattern: Pattern,
}

/// An immutable, pre-computed hash-join build side shared between
/// queries (see [`gcm_core`]'s `⊙` sharing story and the service's
/// build registry).
#[derive(Debug, Clone)]
pub struct PrebuiltBuild {
    /// The **canonical** model region for this build: every query
    /// reusing the build describes its probes against this one region
    /// identity, which is what lets Eq 5.3 footprints count the build
    /// once across a batch.
    pub region: Region,
    /// The open-addressing slot array ([`ops::hash::build_layout`]) as
    /// an image: byte-identical to what a charged build over the same
    /// base table would produce.
    pub layout: Segment,
}

/// Provider of shared build sides during plan execution. `prebuilt`
/// is consulted for every hash join whose build side is a direct base-
/// table scan; returning `Some` replaces the charged build phase with
/// the shared layout, bound uncharged (probe-only execution and
/// pattern).
pub trait BuildSource {
    /// The shared build over base table `table`, if one exists.
    fn prebuilt(&self, table: usize) -> Option<PrebuiltBuild>;
}

/// The default [`BuildSource`]: no sharing, every hash join builds its
/// own table.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrebuilt;

impl BuildSource for NoPrebuilt {
    fn prebuilt(&self, _table: usize) -> Option<PrebuiltBuild> {
        None
    }
}

/// Execute `plan` over the catalog `tables` (indexed by the plan's scan
/// nodes). Every operator runs for real over the simulated memory of
/// `ctx`; sorts (including the sort phases of merge joins) act in place
/// on their input. This is [`execute_traced`] with no shared builds and
/// no tracer.
pub fn execute<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    plan: &PhysicalPlan,
    tables: &[Relation],
) -> Result<PlanRun, PlanError> {
    execute_traced(ctx, plan, tables, &NoPrebuilt, &mut NoTrace)
}

/// Observer of per-node execution: [`execute_traced`] reports every
/// operator node once, post-order (children before parents), with the
/// phases the node pushed, the backend counter delta across its
/// execution, and its logical-op delta. Scan nodes bind tables without
/// doing work and are not reported. Tracing never changes what
/// executes — counter snapshots are uncharged reads — so traced and
/// untraced runs produce byte-identical results.
pub trait ExecTracer<B: MemoryBackend> {
    /// Whether node reports will actually be consumed. `false` lets
    /// the executor skip counter snapshots entirely — the
    /// disabled-tracing fast path the `tracing_overhead` bench guards.
    fn active(&self) -> bool {
        true
    }

    /// One executed operator node. `class` is the stable operator
    /// class (`"select"`, `"join_hash"`, …) drift monitoring keys on;
    /// `label` is the display form; `pattern` covers exactly the
    /// phases this node pushed (with actual cardinalities).
    fn node(
        &mut self,
        mem: &B,
        label: &str,
        class: &str,
        pattern: &Pattern,
        delta: &B::Counters,
        ops: u64,
    );
}

/// The inert tracer: [`execute`] is [`execute_traced`] with this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl<B: MemoryBackend> ExecTracer<B> for NoTrace {
    fn active(&self) -> bool {
        false
    }

    fn node(&mut self, _: &B, _: &str, _: &str, _: &Pattern, _: &B::Counters, _: u64) {}
}

/// An [`ExecTracer`] that records one [`SpanKind::Execute`] span per
/// operator node into a [`SpanSink`] lane, carrying the backend's
/// counter deltas (charged accesses and per-level misses on the sim
/// backend, wall-ns on native).
///
/// Children execute before their parent's own work, so each span
/// covers the node's **exclusive** time: the span's interval starts
/// where the previous completed node's ended.
pub struct SpanTracer<'a> {
    sink: &'a mut SpanSink,
    cursor_ns: u64,
}

impl<'a> SpanTracer<'a> {
    /// A tracer appending to `sink`, starting its interval clock now.
    pub fn new(sink: &'a mut SpanSink) -> SpanTracer<'a> {
        let cursor_ns = sink.now_ns();
        SpanTracer { sink, cursor_ns }
    }
}

impl<B: MemoryBackend> ExecTracer<B> for SpanTracer<'_> {
    fn active(&self) -> bool {
        self.sink.active()
    }

    fn node(
        &mut self,
        mem: &B,
        label: &str,
        _class: &str,
        _pattern: &Pattern,
        delta: &B::Counters,
        ops: u64,
    ) {
        let end_ns = self.sink.now_ns();
        self.sink.record(Span {
            name: label.to_string(),
            kind: SpanKind::Execute,
            start_ns: self.cursor_ns,
            end_ns,
            elapsed_ns: B::elapsed_ns(delta),
            accesses: B::counter_accesses(delta).unwrap_or(0),
            level_misses: mem.counter_level_misses(delta),
            ops,
            lane: 0,
            seq: 0,
        });
        self.cursor_ns = end_ns;
    }
}

/// The one plan executor. Hash joins over base tables that `builds`
/// covers skip their build phase and probe the shared layout — same
/// results bit for bit (the layout is a pure function of the base
/// table), build cost charged to nobody in the batch — and every
/// operator node is reported to `tracer`: the entry point
/// `EXPLAIN ANALYZE` and the span-recording service executor share.
/// With an inactive tracer this is exactly the untraced path.
pub fn execute_traced<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    plan: &PhysicalPlan,
    tables: &[Relation],
    builds: &dyn BuildSource,
    tracer: &mut dyn ExecTracer<B>,
) -> Result<PlanRun, PlanError> {
    let mut phases = Vec::new();
    let mut seq = 0u64;
    let output = exec_node(ctx, plan, tables, builds, &mut phases, &mut seq, tracer)?;
    Ok(PlanRun {
        output,
        pattern: Pattern::seq(phases),
    })
}

/// A base table by value: the backend-agnostic catalog entry, held by
/// callers that have not bound [`Relation`]s into a context yet
/// ([`run_on`], the query service's registered tables). Its tuples are
/// one immutable [`Segment`], laid out once and shared by every clone:
/// a backend that maps segments reads the table where it is.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Region/relation display name.
    pub name: String,
    /// Tuple width in bytes.
    pub w: u64,
    image: Segment,
}

impl TableDef {
    /// A `w`-byte-tuple table over the given key column.
    pub fn new(name: impl Into<String>, keys: impl AsRef<[u64]>, w: u64) -> TableDef {
        TableDef {
            name: name.into(),
            w,
            image: Segment::from_keys(keys.as_ref(), w),
        }
    }

    /// Tuple count.
    pub fn n(&self) -> u64 {
        self.image.len() / self.w
    }

    /// The key column, read from the image.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.n()).map(|i| self.image.word(i * self.w))
    }

    /// The table's tuples as one immutable image.
    pub fn image(&self) -> &Segment {
        &self.image
    }
}

/// Bind the tables `plan` references into `ctx` (uncharged — setup, not
/// measured work): mapped read-only in place where the backend can
/// address a [`Segment`] ([`ExecContext::bind`]), copied in host-side
/// where it cannot, and always copied when the plan sorts the table in
/// place (a sort or dedup over it, a merge join's sort phase) — a sort
/// never writes the shared image. Catalog slots the plan never scans
/// become empty placeholders, so scan indices stay valid without
/// binding data nobody reads.
pub fn materialize_tables<B: MemoryBackend, T: Borrow<TableDef>>(
    ctx: &mut ExecContext<B>,
    plan: &PhysicalPlan,
    tables: &[T],
) -> Vec<Relation> {
    let referenced = plan.tables();
    let sorted = tables_sorted_in_place(plan);
    tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let t = t.borrow();
            if !referenced.contains(&i) {
                ctx.relation(&t.name, 0, t.w)
            } else if sorted.contains(&i) {
                ctx.relation_from_segment(&t.name, t.image(), t.n(), t.w)
            } else {
                ctx.bind(&t.name, t.image(), t.n(), t.w)
            }
        })
        .collect()
}

/// The base table a node's output *is*: a scan, or a sort of one (a
/// sort hands back its input, sorted in place).
fn base_table(plan: &PhysicalPlan) -> Option<usize> {
    match plan {
        PhysicalPlan::Scan { table } => Some(*table),
        PhysicalPlan::Sort { input } => base_table(input),
        _ => None,
    }
}

/// Catalog indices of the base tables `plan` sorts in place: the input
/// of a sort or a dedup, or a merge join's side with its sort flag set,
/// when that input is a base table.
fn tables_sorted_in_place(plan: &PhysicalPlan) -> Vec<usize> {
    let mut out = Vec::new();
    let mut visit = vec![plan];
    while let Some(node) = visit.pop() {
        match node {
            PhysicalPlan::Scan { .. } => {}
            PhysicalPlan::Sort { input } | PhysicalPlan::Dedup { input } => {
                out.extend(base_table(input));
                visit.push(input);
            }
            PhysicalPlan::Select { input, .. }
            | PhysicalPlan::Aggregate { input }
            | PhysicalPlan::Partition { input, .. } => visit.push(input),
            PhysicalPlan::Join {
                left,
                right,
                algorithm,
            } => {
                if let JoinAlgorithm::Merge { sort_u, sort_v } = algorithm {
                    if *sort_u {
                        out.extend(base_table(left));
                    }
                    if *sort_v {
                        out.extend(base_table(right));
                    }
                }
                visit.push(left);
                visit.push(right);
            }
        }
    }
    out
}

/// Lowering picks the backend: materialize `tables` into `ctx`'s memory
/// ([`materialize_tables`]) and execute `plan` there, measuring the run.
/// The same call works on a simulated context ([`ExecContext::new`] —
/// per-level misses and charged time) and a native one
/// ([`ExecContext::native`](crate::native) — real buffers and wall-clock
/// time); results are byte-identical across backends.
pub fn run_on<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    plan: &PhysicalPlan,
    tables: &[TableDef],
) -> Result<(PlanRun, RunStats<B>), PlanError> {
    let rels = materialize_tables(ctx, plan, tables);
    let (run, stats) = ctx.measure(|c| execute(c, plan, &rels));
    run.map(|r| (r, stats))
}

fn next_name(seq: &mut u64) -> String {
    let name = format!("q{seq}");
    *seq += 1;
    name
}

/// The base table whose shared build a join may probe instead of
/// building: only hash joins qualify, and only when the build (inner)
/// side binds a base table directly — anything with operators in
/// between (selects, joins) is query-specific data. The one statement
/// of the eligibility rule: the executor consults a [`BuildSource`]
/// for exactly these joins, and [`shared_build_tables`] lists them for
/// whoever attaches the builds.
fn shared_build_table(algorithm: &JoinAlgorithm, build_side: &PhysicalPlan) -> Option<usize> {
    match (algorithm, build_side) {
        (JoinAlgorithm::Hash, PhysicalPlan::Scan { table }) => Some(*table),
        _ => None,
    }
}

/// Catalog indices of every join in `plan` a shared build can serve
/// (hash joins over a bare base-table scan), one entry per join
/// occurrence, in execution order.
pub fn shared_build_tables(plan: &PhysicalPlan) -> Vec<usize> {
    match plan {
        PhysicalPlan::Scan { .. } => Vec::new(),
        PhysicalPlan::Select { input, .. }
        | PhysicalPlan::Aggregate { input }
        | PhysicalPlan::Sort { input }
        | PhysicalPlan::Dedup { input }
        | PhysicalPlan::Partition { input, .. } => shared_build_tables(input),
        PhysicalPlan::Join {
            left,
            right,
            algorithm,
        } => {
            let mut out = shared_build_tables(left);
            out.extend(shared_build_tables(right));
            out.extend(shared_build_table(algorithm, right));
            out
        }
    }
}

/// Run one operator node's own work under the tracer: snapshot
/// counters (only when the tracer will consume them), apply `f`, and
/// report the deltas plus the phases `f` pushed.
fn run_traced<B: MemoryBackend, T>(
    ctx: &mut ExecContext<B>,
    phases: &mut Vec<Pattern>,
    tracer: &mut dyn ExecTracer<B>,
    label: &str,
    class: &str,
    f: impl FnOnce(&mut ExecContext<B>, &mut Vec<Pattern>) -> T,
) -> T {
    if !tracer.active() {
        return f(ctx, phases);
    }
    let counters_before = ctx.mem.counters();
    let ops_before = ctx.ops();
    let phases_before = phases.len();
    let out = f(ctx, phases);
    let delta = ctx.mem.counters_since(&counters_before);
    let ops = ctx.ops() - ops_before;
    let pattern = match phases.len() - phases_before {
        1 => phases[phases_before].clone(),
        _ => Pattern::seq(phases[phases_before..].to_vec()),
    };
    tracer.node(&ctx.mem, label, class, &pattern, &delta, ops);
    out
}

/// The display label and stable class of a join algorithm (shared
/// builds change the label, not the class: drift statistics should not
/// split on an execution detail).
pub(super) fn join_names(algorithm: &JoinAlgorithm, shared: bool) -> (&'static str, &'static str) {
    match algorithm {
        JoinAlgorithm::NestedLoop => ("join[nl]", "join_nl"),
        JoinAlgorithm::Merge { .. } => ("join[merge]", "join_merge"),
        JoinAlgorithm::Hash if shared => ("join[hash,shared]", "join_hash"),
        JoinAlgorithm::Hash => ("join[hash]", "join_hash"),
        JoinAlgorithm::PartitionedHash { .. } => ("join[part_hash]", "join_part_hash"),
    }
}

fn exec_node<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    plan: &PhysicalPlan,
    tables: &[Relation],
    builds: &dyn BuildSource,
    phases: &mut Vec<Pattern>,
    seq: &mut u64,
    tracer: &mut dyn ExecTracer<B>,
) -> Result<Relation, PlanError> {
    match plan {
        PhysicalPlan::Scan { table } => {
            // A scan is a binding, not work: the consuming operator
            // performs the actual traversal.
            tables.get(*table).cloned().ok_or(PlanError::UnknownTable {
                table: *table,
                tables: tables.len(),
            })
        }
        PhysicalPlan::Select { input, threshold } => {
            let current = exec_node(ctx, input, tables, builds, phases, seq, tracer)?;
            Ok(run_traced(
                ctx,
                phases,
                tracer,
                "select",
                "select",
                |ctx, phases| {
                    let name = next_name(seq);
                    let out = ops::scan::select_lt(ctx, &current, *threshold, &name);
                    phases.push(ops::scan::select_pattern(current.region(), out.region()));
                    out
                },
            ))
        }
        PhysicalPlan::Join {
            left,
            right,
            algorithm,
        } => {
            let u = exec_node(ctx, left, tables, builds, phases, seq, tracer)?;
            let v = exec_node(ctx, right, tables, builds, phases, seq, tracer)?;
            let prebuilt = shared_build_table(algorithm, right).and_then(|t| builds.prebuilt(t));
            let (label, class) = join_names(algorithm, prebuilt.is_some());
            run_traced(ctx, phases, tracer, label, class, |ctx, phases| {
                exec_join(ctx, &u, &v, algorithm, prebuilt, phases, seq)
            })
        }
        PhysicalPlan::Aggregate { input } => {
            let current = exec_node(ctx, input, tables, builds, phases, seq, tracer)?;
            Ok(run_traced(
                ctx,
                phases,
                tracer,
                "group_count",
                "aggregate",
                |ctx, phases| {
                    let name = next_name(seq);
                    let out = ops::aggregate::hash_group_count(ctx, &current, &name);
                    let h = Region::new(
                        format!("H({name})"),
                        ops::hash::table_slots(out.n()),
                        ops::hash::ENTRY_BYTES,
                    );
                    phases.push(ops::aggregate::hash_group_pattern(
                        current.region(),
                        &h,
                        out.region(),
                    ));
                    out
                },
            ))
        }
        PhysicalPlan::Sort { input } => {
            let current = exec_node(ctx, input, tables, builds, phases, seq, tracer)?;
            Ok(run_traced(
                ctx,
                phases,
                tracer,
                "sort",
                "sort",
                |ctx, phases| {
                    ops::sort::quick_sort(ctx, &current);
                    phases.push(library::quick_sort(current.region().clone()));
                    current
                },
            ))
        }
        PhysicalPlan::Dedup { input } => {
            let current = exec_node(ctx, input, tables, builds, phases, seq, tracer)?;
            Ok(run_traced(
                ctx,
                phases,
                tracer,
                "dedup",
                "dedup",
                |ctx, phases| {
                    let name = next_name(seq);
                    let out = ops::aggregate::sort_dedup(ctx, &current, &name);
                    phases.push(library::sort_aggregate(
                        current.region().clone(),
                        out.region().clone(),
                    ));
                    out
                },
            ))
        }
        PhysicalPlan::Partition { input, bits } => {
            let current = exec_node(ctx, input, tables, builds, phases, seq, tracer)?;
            Ok(run_traced(
                ctx,
                phases,
                tracer,
                "partition",
                "partition",
                |ctx, phases| {
                    let name = next_name(seq);
                    let parts = ops::partition::radix_partition(ctx, &current, *bits, 1, &name);
                    phases.push(ops::partition::radix_partition_pattern(
                        current.region(),
                        parts.rel.region(),
                        *bits,
                        1,
                    ));
                    parts.rel
                },
            ))
        }
    }
}

fn exec_join<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    algorithm: &JoinAlgorithm,
    prebuilt: Option<PrebuiltBuild>,
    phases: &mut Vec<Pattern>,
    seq: &mut u64,
) -> Result<Relation, PlanError> {
    let name = next_name(seq);
    match algorithm {
        JoinAlgorithm::NestedLoop => {
            let out = ops::nl_join::nested_loop_join(ctx, u, v, &name, OUT_TUPLE_BYTES);
            phases.push(library::nested_loop_join(
                u.region().clone(),
                v.region().clone(),
                out.region().clone(),
            ));
            Ok(out)
        }
        JoinAlgorithm::Merge { sort_u, sort_v } => {
            if *sort_u {
                ops::sort::quick_sort(ctx, u);
                phases.push(library::quick_sort(u.region().clone()));
            }
            if *sort_v {
                ops::sort::quick_sort(ctx, v);
                phases.push(library::quick_sort(v.region().clone()));
            }
            let out = ops::merge_join::merge_join(ctx, u, v, &name, OUT_TUPLE_BYTES);
            phases.push(library::merge_join(
                u.region().clone(),
                v.region().clone(),
                out.region().clone(),
            ));
            Ok(out)
        }
        JoinAlgorithm::Hash => {
            if let Some(pre) = prebuilt {
                // Shared build: bind the layout uncharged (the build
                // belongs to the registry, not this query) and run
                // probe-only. Identical output to a charged build: the
                // layout is deterministic.
                debug_assert_eq!(
                    pre.layout.len(),
                    ops::hash::table_slots(v.n()) * ops::hash::ENTRY_BYTES,
                    "shared layout sized for this build side"
                );
                let table =
                    ops::hash::HashTable::from_layout(ctx, &format!("H({name})"), &pre.layout);
                let out = ops::hash::hash_join_with_table(ctx, u, &table, &name, OUT_TUPLE_BYTES);
                // The pattern cites the *canonical* region: co-admitted
                // sharers present the same region identity, so Eq 5.3
                // footprints count the build once.
                phases.push(ops::hash::probe_hash_pattern(
                    u.region(),
                    &pre.region,
                    out.region(),
                ));
                return Ok(out);
            }
            let out = ops::hash::hash_join(ctx, u, v, &name, OUT_TUPLE_BYTES);
            let h = Region::new(
                format!("H({name})"),
                ops::hash::table_slots(v.n()),
                ops::hash::ENTRY_BYTES,
            );
            phases.push(library::hash_join(
                u.region().clone(),
                v.region().clone(),
                h,
                out.region().clone(),
            ));
            Ok(out)
        }
        JoinAlgorithm::PartitionedHash { bits } => {
            let out = ops::part_hash_join::part_hash_join(ctx, u, v, *bits, &name, OUT_TUPLE_BYTES);
            let up = Region::new(format!("Up({name})"), u.n(), u.w());
            let vp = Region::new(format!("Vp({name})"), v.n(), v.w());
            phases.push(ops::part_hash_join::part_hash_join_pattern(
                u.region(),
                v.region(),
                out.region(),
                *bits,
                &up,
                &vp,
            ));
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn setup(seed: u64, fact_n: usize, dim_n: usize) -> (ExecContext, Vec<Relation>) {
        let mut ctx = ExecContext::new(presets::tiny());
        let star = Workload::new(seed).star_scenario(fact_n, dim_n, 2);
        let tables = vec![
            ctx.relation_from_keys("F", &star.fact, 8),
            ctx.relation_from_keys("D1", &star.dims[0], 8),
            ctx.relation_from_keys("D2", &star.dims[1], 8),
        ];
        (ctx, tables)
    }

    #[test]
    fn all_join_algorithms_agree_on_results() {
        // The same logical join executed under every algorithm must
        // produce the same multiset of output keys.
        let algos = [
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::Hash,
            JoinAlgorithm::Merge {
                sort_u: true,
                sort_v: true,
            },
            JoinAlgorithm::PartitionedHash { bits: 2 },
        ];
        let mut outputs: Vec<Vec<u64>> = Vec::new();
        for algo in algos {
            let (mut ctx, tables) = setup(77, 500, 100);
            let plan = PhysicalPlan::scan(0)
                .select_lt(50)
                .join_with(PhysicalPlan::scan(1), algo);
            let run = execute(&mut ctx, &plan, &tables).unwrap();
            let mut keys: Vec<u64> = (0..run.output.n())
                .map(|i| ctx.mem.host().read_u64(run.output.tuple(i)))
                .collect();
            keys.sort_unstable();
            assert!(!keys.is_empty());
            assert!(keys.iter().all(|&k| k < 50));
            outputs.push(keys);
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    }

    #[test]
    fn two_join_star_query_end_to_end() {
        let (mut ctx, tables) = setup(78, 2_000, 400);
        let plan = PhysicalPlan::scan(0)
            .select_lt(200)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(PhysicalPlan::scan(2), JoinAlgorithm::Hash)
            .group_count();
        let run = execute(&mut ctx, &plan, &tables).unwrap();
        // Each selected fact key matches exactly one PK per dimension,
        // so the aggregate sees one group per surviving distinct key.
        let expected: std::collections::HashSet<u64> = (0..tables[0].n())
            .map(|i| ctx.mem.host().read_u64(tables[0].tuple(i)))
            .filter(|&k| k < 200)
            .collect();
        assert_eq!(run.output.n(), expected.len() as u64);
        // Pattern covers all four operators (select ⊕ 2×join ⊕ agg).
        match &run.pattern {
            Pattern::Seq(phases) => assert_eq!(phases.len(), 7),
            p => panic!("expected Seq, got {p}"),
        }
    }

    #[test]
    fn merge_join_sort_flags_sort_in_place() {
        let (mut ctx, tables) = setup(79, 600, 300);
        let plan = PhysicalPlan::scan(0).join_with(
            PhysicalPlan::scan(1),
            JoinAlgorithm::Merge {
                sort_u: true,
                sort_v: true,
            },
        );
        let run = execute(&mut ctx, &plan, &tables).unwrap();
        assert!(run.output.n() > 0);
        // Merge output is ordered.
        for i in 1..run.output.n() {
            let a = ctx.mem.host().read_u64(run.output.tuple(i - 1));
            let b = ctx.mem.host().read_u64(run.output.tuple(i));
            assert!(a <= b);
        }
        // The pattern includes the two (multi-pass) sort phases before
        // the three-way merge sweep.
        let s = run.pattern.to_string();
        assert!(s.contains("×"), "sort passes missing: {s}");
        assert!(run.pattern.leaves().len() > 10, "{s}");
    }

    #[test]
    fn measured_misses_track_the_plan_pattern() {
        // The whole-plan pattern, priced by the model, must agree with
        // the simulator's measured misses within the usual 7e-style
        // tolerance — on a full-associativity machine so conflict
        // misses don't muddy the comparison.
        let spec = presets::tiny_full_assoc();
        let mut ctx = ExecContext::new(spec.clone());
        let star = Workload::new(80).star_scenario(4_096, 1_024, 1);
        let tables = vec![
            ctx.relation_from_keys("F", &star.fact, 8),
            ctx.relation_from_keys("D", &star.dims[0], 8),
        ];
        let plan = PhysicalPlan::scan(0)
            .select_lt(512)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let (run, stats) = {
            let tables = tables.clone();
            let mut result = None;
            let (_, s) = ctx.measure(|c| {
                result = Some(execute(c, &plan, &tables).unwrap());
            });
            (result.unwrap(), s)
        };
        let model = gcm_core::CostModel::new(spec.clone());
        let report = model.report(&run.pattern);
        let l2 = spec.level_index("L2").unwrap();
        let measured = stats.misses_at(l2) as f64;
        let predicted = report.levels[l2].misses();
        let ratio = predicted / measured.max(1.0);
        assert!(
            (0.3..3.0).contains(&ratio),
            "L2 misses: measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    fn shared_builds_preserve_results_byte_for_byte() {
        // The same plan executed with and without a shared build must
        // produce identical output bytes and drop exactly the build
        // phase from its pattern.
        struct DimBuild {
            region: Region,
            layout: Segment,
        }
        impl BuildSource for DimBuild {
            fn prebuilt(&self, table: usize) -> Option<PrebuiltBuild> {
                (table == 1).then(|| PrebuiltBuild {
                    region: self.region.clone(),
                    layout: self.layout.clone(),
                })
            }
        }
        let star = Workload::new(83).star_scenario(1_500, 300, 1);
        let plan = PhysicalPlan::scan(0)
            .select_lt(150)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let run = |shared: bool| {
            let mut ctx = ExecContext::new(presets::tiny());
            let tables = vec![
                ctx.relation_from_keys("F", &star.fact, 8),
                ctx.relation_from_keys("D", &star.dims[0], 8),
            ];
            let source = DimBuild {
                region: Region::new(
                    "H#D@0",
                    ops::hash::table_slots(star.dims[0].len() as u64),
                    ops::hash::ENTRY_BYTES,
                ),
                layout: Segment::from_keys(&ops::hash::build_layout(&star.dims[0]), 8),
            };
            let r = if shared {
                execute_traced(&mut ctx, &plan, &tables, &source, &mut NoTrace).unwrap()
            } else {
                execute(&mut ctx, &plan, &tables).unwrap()
            };
            let bytes = ctx.relation_bytes(&r.output);
            (bytes, r.output.n(), r.pattern.to_string())
        };
        let (plain_bytes, plain_n, plain_pat) = run(false);
        let (shared_bytes, shared_n, shared_pat) = run(true);
        assert_eq!(plain_n, shared_n);
        assert_eq!(plain_bytes, shared_bytes, "results must be byte-identical");
        // The shared run's pattern has no build phase for the dim join.
        assert!(plain_pat.contains("r_trav(H"), "{plain_pat}");
        assert!(!shared_pat.contains("r_trav(H"), "{shared_pat}");
        assert!(shared_pat.contains("r_acc(H#D@0"), "{shared_pat}");
    }

    #[test]
    fn unknown_table_errors() {
        let (mut ctx, tables) = setup(81, 100, 50);
        let plan = PhysicalPlan::scan(9);
        let err = execute(&mut ctx, &plan, &tables).unwrap_err();
        assert_eq!(
            err,
            PlanError::UnknownTable {
                table: 9,
                tables: 3
            }
        );
    }
}
