//! `EXPLAIN ANALYZE`: execute a plan and attribute predicted and
//! measured cost to every plan node.
//!
//! This is the paper's validation loop at plan-node granularity.
//! Execution ([`exec::execute_traced`]) reports each operator node's
//! backend counter deltas; the same node patterns — with the *actual*
//! intermediate cardinalities execution discovered — are then priced by
//! [`CostModel::advance_total`], threading one `HierarchyState`
//! through the nodes in execution order so Eq 5.2 cache-state carry
//! (an operator reading what its producer just wrote) prices exactly
//! like the composed whole-plan pattern. The result is an annotated
//! tree: predicted Eq 6.1 cost next to measured per node, with
//! per-level miss breakdowns on the sim backend and wall-ns on native,
//! rendered as pretty text and JSON.
//!
//! Per-node measured/predicted pairs can be streamed into a
//! [`gcm_obs::DriftMonitor`] ([`ExplainReport::feed`]),
//! which is how a mis-calibrated CPU parameter surfaces as a
//! recalibration flag.

use super::exec::{self, ExecTracer, NoPrebuilt};
use super::optimizer::PlanError;
use super::physical::PhysicalPlan;
use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::Relation;
use gcm_core::{CacheState, CostModel, CpuCost, Pattern};
use gcm_obs::json::{Arr, Obj};
use gcm_obs::DriftMonitor;

/// Measured side of one node: backend counter deltas across the node's
/// own (exclusive) execution.
#[derive(Debug, Clone)]
pub struct NodeMeasure {
    /// Measured total under the measurement-side per-op calibration:
    /// charged memory ns + `per_op_ns × ops` on the simulator (Eq 6.1);
    /// wall ns alone on native.
    pub total_ns: f64,
    /// Backend elapsed ns (charged on sim, wall on native).
    pub elapsed_ns: f64,
    /// Charged accesses, when the backend counts them.
    pub accesses: Option<u64>,
    /// Per-level `(name, misses)`: spec-named exact counts on the sim
    /// backend; empty = not observable (native).
    pub level_misses: Vec<(String, u64)>,
    /// Logical CPU operations the node performed.
    pub ops: u64,
}

/// Predicted side of one node: the model's Eq 6.1 price for the node's
/// pattern under the threaded cache state.
#[derive(Debug, Clone)]
pub struct NodePredict {
    /// `T_mem + T_cpu` in nanoseconds.
    pub total_ns: f64,
    /// `T_mem` (Eq 3.1 over the threaded state).
    pub mem_ns: f64,
    /// `T_cpu` for the node's actual logical ops.
    pub cpu_ns: f64,
    /// Per-level `(name, estimated misses)`.
    pub level_misses: Vec<(String, f64)>,
}

/// One node of the annotated plan tree. Scan nodes are bindings (no
/// work) and carry no measurement or prediction.
#[derive(Debug, Clone)]
pub struct ExplainNode {
    /// Display label, e.g. `"join[hash]"`.
    pub label: String,
    /// Stable operator class for drift statistics, e.g. `"join_hash"`.
    pub class: String,
    /// Input subtrees, in plan order.
    pub children: Vec<ExplainNode>,
    /// Measured cost (operator nodes only).
    pub measured: Option<NodeMeasure>,
    /// Predicted cost (operator nodes only).
    pub predicted: Option<NodePredict>,
}

impl ExplainNode {
    fn to_json(&self) -> String {
        let mut children = Arr::new();
        for c in &self.children {
            children.raw(&c.to_json());
        }
        let mut o = Obj::new();
        o.str("label", &self.label).str("class", &self.class);
        if let Some(m) = &self.measured {
            let mut mo = Obj::new();
            mo.num("total_ns", m.total_ns)
                .num("elapsed_ns", m.elapsed_ns)
                .u64("ops", m.ops);
            if let Some(a) = m.accesses {
                mo.u64("accesses", a);
            }
            let mut rows = Arr::new();
            for (name, misses) in &m.level_misses {
                let mut r = Obj::new();
                r.str("level", name).u64("misses", *misses);
                rows.raw(&r.finish());
            }
            mo.raw("level_misses", &rows.finish());
            o.raw("measured", &mo.finish());
        }
        if let Some(p) = &self.predicted {
            let mut po = Obj::new();
            po.num("total_ns", p.total_ns)
                .num("mem_ns", p.mem_ns)
                .num("cpu_ns", p.cpu_ns);
            let mut rows = Arr::new();
            for (name, misses) in &p.level_misses {
                let mut r = Obj::new();
                r.str("level", name).num("misses", *misses);
                rows.raw(&r.finish());
            }
            po.raw("level_misses", &rows.finish());
            o.raw("predicted", &po.finish());
        }
        o.raw("inputs", &children.finish());
        o.finish()
    }

    fn render(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match (&self.predicted, &self.measured) {
            (Some(p), Some(m)) => {
                let ratio = if p.total_ns > 0.0 {
                    m.total_ns / p.total_ns
                } else {
                    f64::NAN
                };
                out.push_str(&format!(
                    "{pad}{}  predicted={:.0} ns  measured={:.0} ns  ratio={:.2}  ops={}\n",
                    self.label, p.total_ns, m.total_ns, ratio, m.ops
                ));
                // Per-level rows only where the backend observed them.
                if !m.level_misses.is_empty() {
                    let rows: Vec<String> = m
                        .level_misses
                        .iter()
                        .map(|(name, meas)| {
                            let pred = p
                                .level_misses
                                .iter()
                                .find(|(n, _)| n == name)
                                .map(|(_, v)| *v)
                                .unwrap_or(0.0);
                            format!("{name} pred={pred:.0} meas={meas}")
                        })
                        .collect();
                    out.push_str(&format!("{pad}  [misses: {}]\n", rows.join(" | ")));
                }
            }
            _ => out.push_str(&format!("{pad}{}\n", self.label)),
        }
        for c in &self.children {
            c.render(indent + 1, out);
        }
    }

    fn feed(&self, monitor: &DriftMonitor) {
        if let (Some(p), Some(m)) = (&self.predicted, &self.measured) {
            monitor.observe(&self.class, m.total_ns, p.total_ns);
        }
        for c in &self.children {
            c.feed(monitor);
        }
    }
}

/// The annotated plan tree of one `EXPLAIN ANALYZE` run.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The plan's root node.
    pub root: ExplainNode,
}

impl ExplainReport {
    /// Pretty text: one line per node (indented by depth) with
    /// predicted vs measured totals and the measured/predicted ratio,
    /// plus a per-level miss row where the backend observed misses.
    pub fn to_text(&self) -> String {
        let mut out = String::from("EXPLAIN ANALYZE\n");
        self.root.render(0, &mut out);
        out
    }

    /// The tree as one JSON object (`inputs` holds the child nodes).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.raw("plan", &self.root.to_json());
        o.finish()
    }

    /// [`to_text`](ExplainReport::to_text) with every run of digits
    /// collapsed to `#`: the tree *structure* (labels, nesting, which
    /// nodes carry measurements and miss rows) without the
    /// machine-varying numbers — what golden tests pin.
    pub fn redacted_text(&self) -> String {
        let mut out = String::new();
        let mut in_digits = false;
        for c in self.to_text().chars() {
            if c.is_ascii_digit() {
                if !in_digits {
                    out.push('#');
                }
                in_digits = true;
            } else {
                // A decimal point inside a number is part of the run.
                if c == '.' && in_digits {
                    continue;
                }
                in_digits = false;
                out.push(c);
            }
        }
        out
    }

    /// Feed every node's `(measured, predicted)` total into a drift
    /// monitor, keyed by operator class.
    pub fn feed(&self, monitor: &DriftMonitor) {
        self.root.feed(monitor);
    }
}

/// Per-node record collected during the traced run, in post-order.
struct NodeRecord {
    label: String,
    class: String,
    pattern: Pattern,
    measure: NodeMeasure,
}

/// An [`ExecTracer`] that keeps every node's pattern and counter
/// deltas for post-run attribution.
struct Collect<B: MemoryBackend> {
    records: Vec<NodeRecord>,
    per_op_ns: f64,
    _backend: std::marker::PhantomData<fn(B)>,
}

impl<B: MemoryBackend> ExecTracer<B> for Collect<B> {
    fn node(
        &mut self,
        mem: &B,
        label: &str,
        class: &str,
        pattern: &Pattern,
        delta: &B::Counters,
        ops: u64,
    ) {
        self.records.push(NodeRecord {
            label: label.to_string(),
            class: class.to_string(),
            pattern: pattern.clone(),
            measure: NodeMeasure {
                total_ns: B::total_ns(delta, ops, self.per_op_ns),
                elapsed_ns: B::elapsed_ns(delta),
                accesses: B::counter_accesses(delta),
                level_misses: mem.counter_level_misses(delta),
                ops,
            },
        });
    }
}

/// Execute `plan` and return the run plus the annotated tree:
/// per-node measured cost (from the backend's counters) against the
/// model's per-node Eq 6.1 prediction over the node patterns with
/// actual cardinalities.
///
/// `cpu` is the *prediction-side* CPU calibration the model prices
/// `T_cpu` with; `measured_per_op_ns` is the *measurement-side*
/// parameter the simulator's charged memory time is completed with
/// (ignored by wall-clock backends, whose elapsed time already
/// contains CPU work). Passing a `cpu` that disagrees with reality is
/// exactly what the drift monitor exists to catch.
pub fn explain_analyze<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    plan: &PhysicalPlan,
    tables: &[Relation],
    model: &CostModel,
    cpu: &CpuCost,
    measured_per_op_ns: f64,
) -> Result<(exec::PlanRun, ExplainReport), PlanError> {
    let mut tracer = Collect::<B> {
        records: Vec::new(),
        per_op_ns: measured_per_op_ns,
        _backend: std::marker::PhantomData,
    };
    let run = exec::execute_traced(ctx, plan, tables, &NoPrebuilt, &mut tracer)?;

    // Price each node's pattern in execution order, threading one
    // hierarchy state so Eq 5.2 carry between producer and consumer
    // matches the whole-plan composed pricing.
    let mut st = model.staged(&CacheState::cold());
    let mut priced = Vec::with_capacity(tracer.records.len());
    for rec in &tracer.records {
        let (report, total_ns) = model.advance_total(&rec.pattern, &mut st, cpu, rec.measure.ops);
        priced.push(NodePredict {
            total_ns,
            mem_ns: report.mem_ns,
            cpu_ns: cpu.ns(rec.measure.ops),
            level_misses: report
                .levels
                .iter()
                .map(|l| (l.name.to_string(), l.misses()))
                .collect(),
        });
    }

    // Rebuild the tree: operator nodes consume records in the same
    // post-order the executor reported them.
    let mut next = 0usize;
    let root = attach(plan, &tracer.records, &priced, &mut next);
    debug_assert_eq!(next, tracer.records.len(), "every record attached");
    Ok((run, ExplainReport { root }))
}

/// Walk `plan` in the executor's order (children first), consuming one
/// record per operator node.
fn attach(
    plan: &PhysicalPlan,
    records: &[NodeRecord],
    priced: &[NodePredict],
    next: &mut usize,
) -> ExplainNode {
    fn operator(
        records: &[NodeRecord],
        priced: &[NodePredict],
        next: &mut usize,
        children: Vec<ExplainNode>,
    ) -> ExplainNode {
        let i = *next;
        *next += 1;
        ExplainNode {
            label: records[i].label.clone(),
            class: records[i].class.clone(),
            children,
            measured: Some(records[i].measure.clone()),
            predicted: Some(priced[i].clone()),
        }
    }
    match plan {
        PhysicalPlan::Scan { table } => ExplainNode {
            label: format!("scan({table})"),
            class: "scan".into(),
            children: Vec::new(),
            measured: None,
            predicted: None,
        },
        PhysicalPlan::Select { input, .. }
        | PhysicalPlan::Aggregate { input }
        | PhysicalPlan::Sort { input }
        | PhysicalPlan::Dedup { input }
        | PhysicalPlan::Partition { input, .. } => {
            let child = attach(input, records, priced, next);
            operator(records, priced, next, vec![child])
        }
        PhysicalPlan::Join { left, right, .. } => {
            let l = attach(left, records, priced, next);
            let r = attach(right, records, priced, next);
            operator(records, priced, next, vec![l, r])
        }
    }
}

/// The operator classes a plan contains (used by the service to key
/// whole-query drift observations without re-walking the tree).
pub fn plan_classes(plan: &PhysicalPlan) -> Vec<&'static str> {
    fn walk(plan: &PhysicalPlan, out: &mut Vec<&'static str>) {
        match plan {
            PhysicalPlan::Scan { .. } => {}
            PhysicalPlan::Select { input, .. } => {
                walk(input, out);
                out.push("select");
            }
            PhysicalPlan::Aggregate { input } => {
                walk(input, out);
                out.push("aggregate");
            }
            PhysicalPlan::Sort { input } => {
                walk(input, out);
                out.push("sort");
            }
            PhysicalPlan::Dedup { input } => {
                walk(input, out);
                out.push("dedup");
            }
            PhysicalPlan::Partition { input, .. } => {
                walk(input, out);
                out.push("partition");
            }
            PhysicalPlan::Join {
                left,
                right,
                algorithm,
            } => {
                walk(left, out);
                walk(right, out);
                out.push(exec::join_names(algorithm, false).1);
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgorithm;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn two_join_setup() -> (ExecContext, Vec<Relation>, PhysicalPlan) {
        let mut ctx = ExecContext::new(presets::tiny());
        let star = Workload::new(41).star_scenario(2_000, 400, 2);
        let tables = vec![
            ctx.relation_from_keys("F", &star.fact, 8),
            ctx.relation_from_keys("D1", &star.dims[0], 8),
            ctx.relation_from_keys("D2", &star.dims[1], 8),
        ];
        let plan = PhysicalPlan::scan(0)
            .select_lt(200)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(PhysicalPlan::scan(2), JoinAlgorithm::Hash)
            .group_count();
        (ctx, tables, plan)
    }

    #[test]
    fn two_join_plan_annotates_every_operator_node() {
        let (mut ctx, tables, plan) = two_join_setup();
        let model = CostModel::new(presets::tiny());
        let cpu = CpuCost::default_planner();
        let (run, report) =
            explain_analyze(&mut ctx, &plan, &tables, &model, &cpu, cpu.per_op_ns).unwrap();
        assert!(run.output.n() > 0);

        // Tree shape: group_count → join → (join → (select → scan, scan), scan).
        let agg = &report.root;
        assert_eq!(agg.label, "group_count");
        assert!(agg.measured.is_some() && agg.predicted.is_some());
        let join2 = &agg.children[0];
        assert_eq!(join2.label, "join[hash]");
        let join1 = &join2.children[0];
        assert_eq!(join1.label, "join[hash]");
        assert_eq!(join2.children[1].label, "scan(2)");
        assert_eq!(join1.children[0].label, "select");
        assert!(join1.children[0].measured.is_some());

        // Sim backend: every annotated node has per-level miss rows and
        // a positive measured and predicted cost.
        for node in [agg, join2, join1, &join1.children[0]] {
            let m = node.measured.as_ref().unwrap();
            let p = node.predicted.as_ref().unwrap();
            assert!(!m.level_misses.is_empty(), "{}", node.label);
            assert!(m.accesses.unwrap() > 0, "{}", node.label);
            assert!(m.total_ns > 0.0 && p.total_ns > 0.0, "{}", node.label);
        }

        // Per-node predictions sum to the whole-plan composed price
        // (same Eq 5.2 threading, so the fold must agree).
        let whole = model.report(&run.pattern).mem_ns;
        let sum: f64 = [agg, join2, join1, &join1.children[0]]
            .iter()
            .map(|n| n.predicted.as_ref().unwrap().mem_ns)
            .sum();
        assert!(
            (whole - sum).abs() < 1e-6 * whole.max(1.0),
            "whole {whole} vs per-node sum {sum}"
        );

        let text = report.to_text();
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("ratio="), "{text}");
        assert!(text.contains("[misses:"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"label\":\"group_count\""), "{json}");
        assert!(json.contains("\"level_misses\""), "{json}");
    }

    #[test]
    fn traced_and_untraced_results_are_byte_identical() {
        let run_once = |traced: bool| -> (Vec<u8>, u64, String) {
            let (mut ctx, tables, plan) = two_join_setup();
            let run = if traced {
                let model = CostModel::new(presets::tiny());
                let cpu = CpuCost::default_planner();
                explain_analyze(&mut ctx, &plan, &tables, &model, &cpu, cpu.per_op_ns)
                    .unwrap()
                    .0
            } else {
                exec::execute(&mut ctx, &plan, &tables).unwrap()
            };
            (
                ctx.relation_bytes(&run.output),
                run.output.n(),
                run.pattern.to_string(),
            )
        };
        let (b0, n0, p0) = run_once(false);
        let (b1, n1, p1) = run_once(true);
        assert_eq!(n0, n1);
        assert_eq!(b0, b1, "tracing must not change results");
        assert_eq!(p0, p1, "tracing must not change the pattern");
    }

    #[test]
    fn miscalibrated_cpu_flips_the_drift_flag() {
        // A CPU-heavy plan priced with a per-op parameter 4× below the
        // measured one: the drift monitor must flag after enough
        // queries, and must stay quiet when the calibration is honest.
        let mut ctx = ExecContext::new(presets::tiny());
        let keys = Workload::new(42).shuffled_keys(4_000);
        let tables = vec![ctx.relation_from_keys("F", &keys, 8)];
        let plan = PhysicalPlan::scan(0).sort();
        let model = CostModel::new(presets::tiny());
        let measured_per_op = gcm_core::CpuCost::DEFAULT_PLANNER_PER_OP_NS;

        let honest = DriftMonitor::new();
        let lowballed = DriftMonitor::new();
        let bad_cpu = CpuCost::per_op(measured_per_op / 4.0);
        let good_cpu = CpuCost::per_op(measured_per_op);
        for _ in 0..10 {
            ctx.cold_caches();
            let (_, report) =
                explain_analyze(&mut ctx, &plan, &tables, &model, &good_cpu, measured_per_op)
                    .unwrap();
            report.feed(&honest);
            ctx.cold_caches();
            let (_, report) =
                explain_analyze(&mut ctx, &plan, &tables, &model, &bad_cpu, measured_per_op)
                    .unwrap();
            report.feed(&lowballed);
        }
        assert!(!honest.needs_recalibration());
        assert!(lowballed.needs_recalibration());
        assert!(lowballed.stale_classes().contains(&"sort".to_string()));
        let ratio = lowballed.ratio("sort").unwrap();
        assert!(ratio > 2.0, "lowballed CPU must over-run: ratio {ratio}");
    }

    #[test]
    fn plan_classes_walks_in_execution_order() {
        let plan = PhysicalPlan::scan(0)
            .select_lt(10)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        assert_eq!(
            plan_classes(&plan),
            vec!["select", "join_hash", "aggregate"]
        );
    }

    #[test]
    fn redacted_text_is_machine_independent() {
        let (mut ctx, tables, plan) = two_join_setup();
        let model = CostModel::new(presets::tiny());
        let cpu = CpuCost::default_planner();
        let (_, report) =
            explain_analyze(&mut ctx, &plan, &tables, &model, &cpu, cpu.per_op_ns).unwrap();
        let red = report.redacted_text();
        assert!(red.contains("predicted=# ns"), "{red}");
        assert!(!red.chars().any(|c| c.is_ascii_digit()), "{red}");
    }
}
