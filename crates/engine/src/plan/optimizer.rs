//! The whole-plan cost-based optimizer.
//!
//! For each join node the optimizer describes every join algorithm
//! (nested loop, merge with the sorts it needs, hash, and partitioned
//! hash at one fan-out per cache level) by its access pattern and
//! logical-op estimate; for each open partition node it derives
//! candidate fan-outs from the cache hierarchy. Alternatives are
//! combined across the tree (beam-pruned at every node to keep
//! enumeration tractable), and each surviving *complete* tree is priced
//! as **one** composed pattern `node₁ ⊕ node₂ ⊕ …` in execution order —
//! so the cache-state threading of Eq 5.2 (a consumer reading its
//! producer's still-cached output) and the footprint sharing of Eq 5.3
//! (concurrent cursors inside each node) decide the ranking, not
//! per-operator cold-cache sums.
//!
//! Ranking prices only what can still win. Eq 6.1 prices an
//! alternative as `T = T_mem + T_cpu` with `T_mem ≥ 0`, and the CPU term
//! is a cheap sum of logical operations, while the memory term is a
//! pattern evaluation. So alternatives are visited in ascending CPU
//! order and the memory term is evaluated only while the CPU term alone
//! is at most the `k`-th best total so far (`k` = the beam when pruning
//! a node, 1 in [`Optimizer::optimize`]); the first alternative past
//! that bound ends the ranking. Below it, the memory term is evaluated
//! one cache level at a time (Eq 3.1 prices levels independently), the
//! level dearest for the best alternative so far first, and an
//! alternative is dropped as soon as the levels priced so far — a lower
//! bound on its `T_mem`, exact in floating point — put its total
//! strictly past the `k`-th best ([`CostModel::staged_within`]). The
//! kept set, its order and every kept price are exactly those of
//! pricing everything stage by stage and sorting stably by total.
//!
//! Alternatives are described first and built only when priced: a
//! stage holds its operator, the regions it reads and writes and its
//! logical-op estimate, and its pattern is built the first time ranking
//! prices it, once for every alternative sharing the stage. An
//! alternative that loses on CPU alone is never built.
//!
//! The logical-statistics side (cardinalities, key bounds, sortedness)
//! is the component the paper assumes a perfect oracle for (§1); here
//! it is propagated from per-table [`TableStats`] under a
//! uniform-independent-keys assumption.

use super::logical::LogicalPlan;
use super::physical::{JoinAlgorithm, PhysicalPlan};
use super::OUT_TUPLE_BYTES;
use crate::ops;
use gcm_core::distinct::expected_distinct;
use gcm_core::{library, CacheState, CostModel, CpuCost, Pattern, Region};
use gcm_hardware::CacheLevel;
use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

/// Why a plan could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A scan references a catalog index outside the provided tables.
    UnknownTable {
        /// The offending catalog index.
        table: usize,
        /// Number of tables actually provided.
        tables: usize,
    },
    /// A node produced no physical candidate (e.g. no admissible
    /// partition fan-out on a degenerate hierarchy).
    NoCandidates,
    /// A batch worker thread panicked while executing its member; the
    /// whole batch is refused (its other members were still joined).
    WorkerPanicked {
        /// Batch position of the member whose worker panicked.
        member: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable { table, tables } => {
                write!(f, "plan references table {table} but only {tables} exist")
            }
            PlanError::NoCandidates => write!(f, "a plan node has no physical candidate"),
            PlanError::WorkerPanicked { member } => {
                write!(f, "the worker of batch member {member} panicked")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Logical statistics of one base relation — the optimizer's stand-in
/// for the paper's perfect logical-cost oracle (§1). Keys are assumed
/// uniform over `[0, key_bound)`.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Cardinality.
    pub n: u64,
    /// Tuple width in bytes.
    pub w: u64,
    /// Exclusive upper bound on key values.
    pub key_bound: u64,
    /// Expected number of distinct keys.
    pub distinct: f64,
    /// Whether the relation is key-sorted.
    pub sorted: bool,
}

impl TableStats {
    /// A column of `n` uniform draws from `[0, key_bound)` — e.g. a
    /// fact table's foreign keys. The distinct count follows the §4.6
    /// occupancy expectation.
    pub fn uniform(n: u64, w: u64, key_bound: u64, sorted: bool) -> TableStats {
        TableStats {
            n,
            w,
            key_bound,
            distinct: expected_distinct(key_bound, n),
            sorted,
        }
    }

    /// A column holding each key of `0..n` exactly once — e.g. a
    /// dimension table's primary keys.
    pub fn key_column(n: u64, w: u64, sorted: bool) -> TableStats {
        TableStats {
            n,
            w,
            key_bound: n,
            distinct: n as f64,
            sorted,
        }
    }
}

/// Derived statistics of an intermediate result, threaded bottom-up.
#[derive(Debug, Clone)]
struct NodeStats {
    n: u64,
    w: u64,
    key_bound: u64,
    distinct: f64,
    sorted: bool,
    /// The region this node's output occupies — shared (by id) with
    /// every pattern that reads it, which is what lets Eq 5.2 price the
    /// producer→consumer reuse.
    region: Region,
}

/// One priced complete plan.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The executable plan.
    pub plan: PhysicalPlan,
    /// The whole-plan composed pattern (estimated cardinalities).
    pub pattern: Pattern,
    /// Predicted elapsed memory time, ns: Eq 3.1 threaded stage by stage
    /// (Eq 5.2).
    pub mem_ns: f64,
    /// Predicted elapsed CPU time (Eq 6.1), ns.
    pub cpu_ns: f64,
    /// Estimated logical operations across all nodes.
    pub ops: u64,
}

impl PlannedQuery {
    /// Predicted total elapsed time (Eq 6.1), ns.
    pub fn total_ns(&self) -> f64 {
        self.mem_ns + self.cpu_ns
    }
}

/// One operator with the regions it reads and writes, in the order its
/// pattern function takes them: enough to build its access pattern.
#[derive(Debug)]
enum Op {
    Select(Region, Region),
    NestedLoop(Region, Region, Region),
    /// `(u, v, w, sort u?, sort v?)`: sorts first, then merges.
    Merge(Region, Region, Region, bool, bool),
    Hash(Region, Region, Region, Region),
    PartitionedHash(Region, Region, Region, u32, Region, Region),
    Group(Region, Region, Region),
    Sort(Region),
    Dedup(Region, Region),
    Partition(Region, Region, u32),
}

impl Op {
    fn pattern(&self) -> Pattern {
        match self {
            Op::Select(u, w) => ops::scan::select_pattern(u, w),
            Op::NestedLoop(u, v, w) => library::nested_loop_join(u.clone(), v.clone(), w.clone()),
            Op::Merge(u, v, w, sort_u, sort_v) => {
                let sorts = [(u, sort_u), (v, sort_v)].into_iter().filter(|(_, s)| **s);
                let mut phases: Vec<Pattern> =
                    sorts.map(|(r, _)| library::quick_sort(r.clone())).collect();
                phases.push(library::merge_join(u.clone(), v.clone(), w.clone()));
                Pattern::seq(phases)
            }
            Op::Hash(u, v, h, w) => library::hash_join(u.clone(), v.clone(), h.clone(), w.clone()),
            Op::PartitionedHash(u, v, w, bits, up, vp) => {
                ops::part_hash_join::part_hash_join_pattern(u, v, w, *bits, up, vp)
            }
            Op::Group(u, h, w) => ops::aggregate::hash_group_pattern(u, h, w),
            Op::Sort(u) => library::quick_sort(u.clone()),
            Op::Dedup(u, w) => library::sort_aggregate(u.clone(), w.clone()),
            Op::Partition(u, w, bits) => ops::partition::radix_partition_pattern(u, w, *bits, 1),
        }
    }
}

/// One stage of a physical alternative: an operator and its logical-op
/// estimate, shared by every alternative built on it. Its pattern is
/// built from the operator the first time it is asked for.
#[derive(Debug)]
struct Stage {
    op: Op,
    ops: u64,
    pattern: OnceCell<Pattern>,
}

impl Stage {
    fn new(op: Op, ops: u64) -> Rc<Stage> {
        let pattern = OnceCell::new();
        Rc::new(Stage { op, ops, pattern })
    }

    fn pattern(&self) -> &Pattern {
        self.pattern.get_or_init(|| self.op.pattern())
    }

    /// The stage's pattern, moved out when `stage` is its last holder.
    fn into_pattern(mut stage: Rc<Stage>) -> Pattern {
        Rc::get_mut(&mut stage)
            .and_then(|s| s.pattern.take())
            .unwrap_or_else(|| stage.pattern().clone())
    }
}

/// One in-progress alternative for a subtree.
#[derive(Debug, Clone)]
struct Alt {
    plan: PhysicalPlan,
    /// Stages in execution order.
    stages: Vec<Rc<Stage>>,
    stats: NodeStats,
    /// Staged memory price, filled by [`Optimizer::rank`] and reused
    /// by the root-level ranking when the subtree is the whole plan.
    /// Every constructor of a larger tree resets it to `None`, so a
    /// stale subtree price can never leak into it.
    priced_mem: Option<f64>,
}

impl Alt {
    /// This alternative followed by `op` (`ops` logical operations),
    /// producing `stats`, planned as `plan` of this one's plan.
    fn then(
        mut self,
        plan: impl FnOnce(PhysicalPlan) -> PhysicalPlan,
        op: Op,
        ops: u64,
        stats: NodeStats,
    ) -> Alt {
        self.stages.push(Stage::new(op, ops));
        self.plan = plan(self.plan);
        self.stats = stats;
        self.priced_mem = None;
        self
    }
}

/// The whole-plan optimizer. Construct with [`Optimizer::new`], then
/// [`enumerate`](Optimizer::enumerate) or
/// [`optimize`](Optimizer::optimize).
#[derive(Debug)]
pub struct Optimizer<'a> {
    model: &'a CostModel,
    beam: usize,
}

impl<'a> Optimizer<'a> {
    /// An optimizer over the given machine model, with a beam width of 8
    /// alternatives per node and cold starting caches. CPU is priced with
    /// [`CpuCost::default_planner`], the one CPU term every layer
    /// charges. The machine's core count plays no part: a plan
    /// runs on one core, and cores are shared *between* queries
    /// ([`CostModel::batch_cost`]).
    pub fn new(model: &'a CostModel) -> Optimizer<'a> {
        Optimizer { model, beam: 8 }
    }

    /// Keep at most `beam` alternatives per node (≥ 1). Wider beams
    /// enumerate more complete plans; a node's ranking prices the memory
    /// term only of alternatives whose CPU term is at most the `beam`-th
    /// best total so far, so a wider beam prices more of them.
    pub fn with_beam(mut self, beam: usize) -> Optimizer<'a> {
        self.beam = beam.max(1);
        self
    }

    /// Enumerate complete physical plans (at most the beam width),
    /// each priced as one composed pattern, cheapest first. Unlike
    /// [`optimize`](Optimizer::optimize) this prices the memory term of
    /// every root alternative, losers included.
    pub fn enumerate(
        &self,
        plan: &LogicalPlan,
        tables: &[TableStats],
    ) -> Result<Vec<PlannedQuery>, PlanError> {
        let alts = self.root_alts(plan, tables)?;
        let all = alts.len();
        Ok(self
            .rank(alts, all)
            .into_iter()
            .map(|a| self.planned(a))
            .collect())
    }

    /// The cheapest complete plan by whole-plan predicted cost — always
    /// [`enumerate`](Optimizer::enumerate)'s first plan, found without
    /// pricing the memory term of a root alternative whose CPU term
    /// alone already exceeds the best total seen (Eq 6.1's
    /// `T = T_mem + T_cpu` with `T_mem ≥ 0`: it cannot win).
    pub fn optimize(
        &self,
        plan: &LogicalPlan,
        tables: &[TableStats],
    ) -> Result<PlannedQuery, PlanError> {
        let alts = self.root_alts(plan, tables)?;
        self.rank(alts, 1)
            .pop()
            .map(|a| self.planned(a))
            .ok_or(PlanError::NoCandidates)
    }

    /// The beam-pruned alternatives for the whole plan. One region per
    /// base table for the whole search: a table scanned twice (e.g. a
    /// self-join) must keep one identity, or Eq 5.2 cannot price the
    /// rescan reuse.
    fn root_alts(&self, plan: &LogicalPlan, tables: &[TableStats]) -> Result<Vec<Alt>, PlanError> {
        let regions: Vec<Region> = tables
            .iter()
            .enumerate()
            .map(|(i, t)| Region::new(format!("T{i}"), t.n, t.w))
            .collect();
        self.alts(plan, tables, &regions)
    }

    /// A ranked root alternative as a priced complete plan. Its stages'
    /// patterns are moved, not copied, once no other kept alternative
    /// shares them.
    fn planned(&self, a: Alt) -> PlannedQuery {
        PlannedQuery {
            mem_ns: a.priced_mem.expect("ranked alternatives are priced"),
            cpu_ns: self.price_cpu(&a.stages),
            ops: a.stages.iter().map(|s| s.ops).sum(),
            pattern: Pattern::seq(a.stages.into_iter().map(Stage::into_pattern).collect()),
            plan: a.plan,
        }
    }

    /// The `keep` cheapest alternatives by `mem + cpu`, cheapest first,
    /// equal totals in enumeration order (a stable sort's order), each
    /// with its memory price cached. The CPU term is priced for all of
    /// them; the memory term only for those visited in ascending CPU
    /// order while their CPU term is at most the `keep`-th best total so
    /// far. `T_mem ≥ 0`, so the first alternative past that bound, and
    /// every one after it, cannot rank among the `keep`.
    ///
    /// Once `keep` alternatives are priced, the memory term is priced
    /// level by level, the level dearest for the best alternative so far
    /// first ([`CostModel::staged_within`]), and an alternative is
    /// dropped as soon as the levels priced so far put it strictly past
    /// the `keep`-th best total: its total can only be larger. Those
    /// that survive are summed in stage order, so their prices are the
    /// stage-by-stage ones to the bit.
    fn rank(&self, alts: Vec<Alt>, keep: usize) -> Vec<Alt> {
        let cpus: Vec<f64> = alts.iter().map(|a| self.price_cpu(&a.stages)).collect();
        let mut by_cpu: Vec<usize> = (0..alts.len()).collect();
        by_cpu.sort_by(|&a, &b| cpus[a].total_cmp(&cpus[b]));
        let mut alts: Vec<Option<Alt>> = alts.into_iter().map(Some).collect();
        // The best `keep` so far as (total, enumeration index), ascending.
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(keep.min(alts.len()) + 1);
        // The best alternative's memory time per level, when it is known:
        // the order the next one's levels are priced in.
        let mut dearest: Vec<f64> = Vec::new();
        for i in by_cpu {
            let bound = match best.last() {
                Some(&(bound, _)) if best.len() == keep => bound,
                _ => f64::INFINITY,
            };
            if cpus[i] > bound {
                break;
            }
            let a = alts[i].as_mut().expect("each alternative is visited once");
            let mut levels = None;
            let mem = match a.priced_mem {
                Some(mem) => mem,
                None => {
                    let stages = a.stages.iter().map(|s| s.pattern());
                    let cold = CacheState::cold();
                    let Some(price) = self
                        .model
                        .staged_within(stages, &cold, &dearest, cpus[i], bound)
                    else {
                        continue;
                    };
                    a.priced_mem = Some(price.mem_ns);
                    levels = Some(price.level_ns);
                    price.mem_ns
                }
            };
            let total = mem + cpus[i];
            let at = best.partition_point(|&(t, j)| t.total_cmp(&total).then(j.cmp(&i)).is_lt());
            if at < keep {
                best.insert(at, (total, i));
                best.truncate(keep);
                if at == 0 {
                    dearest = levels.unwrap_or_default();
                }
            }
        }
        best.into_iter()
            .map(|(_, i)| alts[i].take().expect("kept once"))
            .collect()
    }

    /// Elapsed CPU time of a stage list (Eq 6.1).
    fn price_cpu(&self, stages: &[Rc<Stage>]) -> f64 {
        let cpu = CpuCost::default_planner();
        let mut ns = 0.0;
        for stage in stages {
            ns += cpu.per_op_ns * stage.ops as f64;
        }
        ns
    }

    /// Alternatives for a subtree, beam-pruned by composed-subtree
    /// predicted cost.
    fn alts(
        &self,
        node: &LogicalPlan,
        tables: &[TableStats],
        regions: &[Region],
    ) -> Result<Vec<Alt>, PlanError> {
        let alts = match node {
            LogicalPlan::Scan { table } => {
                let t = tables.get(*table).ok_or(PlanError::UnknownTable {
                    table: *table,
                    tables: tables.len(),
                })?;
                vec![Alt {
                    priced_mem: None,
                    plan: PhysicalPlan::scan(*table),
                    stages: Vec::new(),
                    stats: NodeStats {
                        n: t.n,
                        w: t.w,
                        key_bound: t.key_bound,
                        distinct: t.distinct,
                        sorted: t.sorted,
                        region: regions[*table].clone(),
                    },
                }]
            }
            LogicalPlan::Select { input, threshold } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_select(a, *threshold))
                .collect(),
            LogicalPlan::Join { left, right } => {
                let ls = self.alts(left, tables, regions)?;
                let rs = self.alts(right, tables, regions)?;
                let mut out = Vec::new();
                for l in &ls {
                    for r in &rs {
                        out.extend(self.apply_join(l, r));
                    }
                }
                out
            }
            LogicalPlan::Aggregate { input } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_aggregate(a))
                .collect(),
            LogicalPlan::Sort { input } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_sort(a))
                .collect(),
            LogicalPlan::Dedup { input } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_dedup(a))
                .collect(),
            LogicalPlan::Partition { input, bits } => {
                let mut out = Vec::new();
                for a in self.alts(input, tables, regions)? {
                    out.extend(self.apply_partition(&a, *bits));
                }
                out
            }
        };
        if alts.is_empty() {
            return Err(PlanError::NoCandidates);
        }
        // Each survivor of the beam carries its memory price, so the
        // root-level ranking does not price it again.
        Ok(if alts.len() <= self.beam {
            alts
        } else {
            self.rank(alts, self.beam)
        })
    }

    fn apply_select(&self, input: Alt, threshold: u64) -> Alt {
        let s = &input.stats;
        let ratio = if s.key_bound == 0 {
            0.0
        } else {
            (threshold as f64 / s.key_bound as f64).min(1.0)
        };
        let out_n = (s.n as f64 * ratio).round() as u64;
        let region = Region::new("S", out_n, s.w);
        let (op, ops) = (Op::Select(s.region.clone(), region.clone()), s.n);
        let stats = NodeStats {
            n: out_n,
            w: s.w,
            key_bound: s.key_bound.min(threshold),
            distinct: (s.distinct * ratio).min(out_n as f64),
            sorted: s.sorted,
            region,
        };
        input.then(|p| p.select_lt(threshold), op, ops, stats)
    }

    fn apply_join(&self, left: &Alt, right: &Alt) -> Vec<Alt> {
        let (l, r) = (&left.stats, &right.stats);
        let max_bound = l.key_bound.max(r.key_bound).max(1);
        let out_n = (l.n as f64 * r.n as f64 / max_bound as f64).round() as u64;
        let out_region = Region::new("J", out_n, OUT_TUPLE_BYTES);
        let mut out = Vec::new();
        for (algorithm, stage) in self.join_candidates(l, r, &out_region) {
            let sorted = match algorithm {
                JoinAlgorithm::Merge { .. } => true,
                JoinAlgorithm::NestedLoop | JoinAlgorithm::Hash => l.sorted,
                JoinAlgorithm::PartitionedHash { .. } => false,
            };
            let stats = NodeStats {
                n: out_n,
                w: OUT_TUPLE_BYTES,
                key_bound: l.key_bound.min(r.key_bound),
                distinct: l.distinct.min(r.distinct).min(out_n as f64),
                sorted,
                region: out_region.clone(),
            };
            let mut stages = Vec::with_capacity(left.stages.len() + right.stages.len() + 1);
            stages.extend(left.stages.iter().chain(&right.stages).cloned());
            stages.push(stage);
            out.push(Alt {
                priced_mem: None,
                plan: left.plan.clone().join_with(right.plan.clone(), algorithm),
                stages,
                stats,
            });
        }
        out
    }

    /// Every candidate algorithm for joining outer `l` with inner `r`,
    /// each with its stage writing `w` (the region the join's consumer
    /// reads, so whole-plan costing sees the producer/consumer reuse of
    /// Eq 5.2). Partitioned hash is offered at one fan-out per cache
    /// level, in level order.
    fn join_candidates(
        &self,
        l: &NodeStats,
        r: &NodeStats,
        w: &Region,
    ) -> Vec<(JoinAlgorithm, Rc<Stage>)> {
        let (u, v) = (&l.region, &r.region);
        let mut out = Vec::new();
        let mut offer = |algorithm, op, ops| out.push((algorithm, Stage::new(op, ops)));
        let nl = Op::NestedLoop(u.clone(), v.clone(), w.clone());
        offer(JoinAlgorithm::NestedLoop, nl, u.n.saturating_mul(v.n));

        // Merge, sorting each unsorted input first.
        let (sort_u, sort_v) = (!l.sorted, !r.sorted);
        let mut merge_ops = 2 * (u.n + v.n) + w.n;
        for (input, sort) in [(u, sort_u), (v, sort_v)] {
            if sort {
                merge_ops += ops::sort::quick_sort_expected_ops(input.n);
            }
        }
        let merge = Op::Merge(u.clone(), v.clone(), w.clone(), sort_u, sort_v);
        offer(JoinAlgorithm::Merge { sort_u, sort_v }, merge, merge_ops);

        let h = Region::new("H", ops::hash::table_slots(v.n), ops::hash::ENTRY_BYTES);
        // Build share + probe share: kept in sync with the shared-build
        // CPU adjustment through `ops::hash::build_ops`.
        let hash_ops = ops::hash::build_ops(v.n) + 4 * u.n + w.n;
        offer(
            JoinAlgorithm::Hash,
            Op::Hash(u.clone(), v.clone(), h, w.clone()),
            hash_ops,
        );

        let table_bytes = ops::hash::table_slots(v.n) * ops::hash::ENTRY_BYTES;
        for bits in self.level_fanouts(table_bytes) {
            let up = Region::new("Up", u.n, u.w);
            let vp = Region::new("Vp", v.n, v.w);
            let part = Op::PartitionedHash(u.clone(), v.clone(), w.clone(), bits, up, vp);
            let part_ops = 2 * (u.n + v.n) + 4 * v.n + 4 * u.n + w.n;
            offer(JoinAlgorithm::PartitionedHash { bits }, part, part_ops);
        }
        out
    }

    fn apply_aggregate(&self, input: Alt) -> Alt {
        let s = &input.stats;
        let out_n = (s.distinct.round() as u64).min(s.n);
        let region = Region::new("G", out_n, OUT_TUPLE_BYTES);
        let h = Region::new("H", ops::hash::table_slots(out_n), ops::hash::ENTRY_BYTES);
        let (op, ops) = (
            Op::Group(s.region.clone(), h, region.clone()),
            2 * s.n + out_n,
        );
        let stats = NodeStats {
            n: out_n,
            w: OUT_TUPLE_BYTES,
            key_bound: s.key_bound,
            distinct: out_n as f64,
            sorted: false,
            region,
        };
        input.then(PhysicalPlan::group_count, op, ops, stats)
    }

    fn apply_sort(&self, input: Alt) -> Alt {
        let s = &input.stats;
        let (op, ops) = (
            Op::Sort(s.region.clone()),
            ops::sort::quick_sort_expected_ops(s.n),
        );
        let stats = NodeStats {
            sorted: true,
            ..s.clone()
        };
        input.then(PhysicalPlan::sort, op, ops, stats)
    }

    fn apply_dedup(&self, input: Alt) -> Alt {
        let s = &input.stats;
        let out_n = (s.distinct.round() as u64).min(s.n);
        let region = Region::new("D", out_n, s.w);
        let op = Op::Dedup(s.region.clone(), region.clone());
        let ops = ops::sort::quick_sort_expected_ops(s.n) + s.n + out_n;
        let stats = NodeStats {
            n: out_n,
            w: s.w,
            key_bound: s.key_bound,
            distinct: out_n as f64,
            sorted: true,
            region,
        };
        input.then(PhysicalPlan::dedup, op, ops, stats)
    }

    fn apply_partition(&self, input: &Alt, bits: Option<u32>) -> Vec<Alt> {
        let fanouts: Vec<u32> = match bits {
            Some(bits) => vec![bits],
            None => self.candidate_fanouts(&input.stats),
        };
        let s = &input.stats;
        fanouts
            .into_iter()
            .map(|bits| {
                let region = Region::new("P", s.n, s.w);
                let op = Op::Partition(s.region.clone(), region.clone(), bits);
                let stats = NodeStats {
                    n: s.n,
                    w: s.w,
                    key_bound: s.key_bound,
                    distinct: s.distinct,
                    sorted: false,
                    region,
                };
                input.clone().then(|p| p.partition(bits), op, s.n, stats)
            })
            .collect()
    }

    /// Candidate fan-outs (radix bits) for an open partition node:
    /// [`Optimizer::level_fanouts`] in ascending order. When the input
    /// fits every level, a minimal two-way split remains the single
    /// candidate (the node still has to partition).
    fn candidate_fanouts(&self, s: &NodeStats) -> Vec<u32> {
        let mut out = self.level_fanouts(s.n.saturating_mul(s.w).max(1));
        out.sort_unstable();
        if out.is_empty() {
            out.push(1);
        }
        out
    }

    /// Per data-cache level, in level order, the fan-out that makes one
    /// `bytes`-sized chunk fit the level ([`fitting_fanout`]); a fan-out
    /// two levels clamp to is listed once, at its first level.
    fn level_fanouts(&self, bytes: u64) -> Vec<u32> {
        let mut out = Vec::new();
        for lvl in self.model.spec().data_caches() {
            if let Some(bits) = fitting_fanout(self.model, bytes, lvl) {
                if !out.contains(&bits) {
                    out.push(bits);
                }
            }
        }
        out
    }
}

/// The radix bits of the smallest fan-out `2^bits` that makes one
/// `bytes`-sized chunk of data fit cache level `lvl`, clamped to at most
/// the smallest level's line count — past that the partitioning itself
/// thrashes, the Figure 7d cliff (use multi-pass radix clustering
/// beyond; see [`crate::ops::partition`]). `None` when the data already
/// fits (fan-out below 2), i.e. partitioning buys nothing at this level.
fn fitting_fanout(model: &CostModel, bytes: u64, lvl: &CacheLevel) -> Option<u32> {
    let min_lines = model
        .spec()
        .levels()
        .iter()
        .map(CacheLevel::lines)
        .min()
        .unwrap_or(64)
        .max(2);
    let bits = bytes
        .div_ceil(lvl.capacity.max(1))
        .max(1)
        .next_power_of_two()
        .ilog2()
        .min(min_lines.ilog2());
    (bits >= 1).then_some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn model() -> CostModel {
        CostModel::new(presets::origin2000())
    }

    fn star_stats(fact_n: u64, dim_n: u64) -> Vec<TableStats> {
        vec![
            TableStats::uniform(fact_n, 8, dim_n, false),
            TableStats::key_column(dim_n, 8, false),
            TableStats::key_column(dim_n, 8, false),
        ]
    }

    fn star_query(threshold: u64) -> LogicalPlan {
        LogicalPlan::scan(0)
            .select_lt(threshold)
            .join(LogicalPlan::scan(1))
            .join(LogicalPlan::scan(2))
            .group_count()
    }

    #[test]
    fn enumerates_multiple_complete_plans() {
        let m = model();
        let q = star_query(6000);
        let plans = Optimizer::new(&m)
            .enumerate(&q, &star_stats(48_000, 12_000))
            .unwrap();
        assert!(plans.len() >= 4, "only {} plans", plans.len());
        // Every plan is complete: two join algorithms chosen.
        for p in &plans {
            assert_eq!(p.plan.join_algorithms().len(), 2);
            assert!(p.total_ns() > 0.0);
        }
        // Sorted cheapest-first.
        for w in plans.windows(2) {
            assert!(w[0].total_ns() <= w[1].total_ns());
        }
        // Alternatives genuinely differ.
        let first = plans[0].plan.to_string();
        assert!(plans.iter().any(|p| p.plan.to_string() != first));
    }

    #[test]
    fn whole_plan_cost_is_not_the_cold_sum() {
        // The composed pattern must price below the sum of its phases
        // priced cold: the consumer finds the producer's output (partly)
        // cached (Eq 5.2).
        let m = model();
        let q = LogicalPlan::scan(0)
            .select_lt(2_000)
            .join(LogicalPlan::scan(1))
            .group_count();
        let stats = vec![
            TableStats::uniform(20_000, 8, 10_000, false),
            TableStats::key_column(10_000, 8, false),
        ];
        let best = Optimizer::new(&m).optimize(&q, &stats).unwrap();
        let composed = best.mem_ns;
        let cold_sum: f64 = match &best.pattern {
            Pattern::Seq(phases) => phases.iter().map(|p| m.mem_ns(p)).sum(),
            p => m.mem_ns(p),
        };
        assert!(
            composed < 0.95 * cold_sum,
            "composed {composed:.0} ns should undercut cold sum {cold_sum:.0} ns"
        );
    }

    #[test]
    fn l1_resident_dimensions_choose_hash_joins() {
        // Dimension hash tables fit L1 on the Origin2000 (512 keys →
        // 16 KB table): probes are nearly free, while merge would pay
        // an n·log n sort of the fact side. Hash must win both joins.
        let m = model();
        let best = Optimizer::new(&m)
            .optimize(&star_query(256), &star_stats(48_000, 512))
            .unwrap();
        for algo in best.plan.join_algorithms() {
            assert!(
                matches!(algo, JoinAlgorithm::Hash),
                "expected hash join, got {algo} in {}",
                best.plan
            );
        }
    }

    #[test]
    fn streaming_scale_chooses_merge_joins() {
        // At half-million-row fact tables with 512 KB+ dimension hash
        // tables, random probe traffic loses to sequential sort+merge
        // sweeps (the §6.2 economics) — and nested loop never appears.
        let m = model();
        let plans = Optimizer::new(&m)
            .enumerate(&star_query(6000), &star_stats(480_000, 120_000))
            .unwrap();
        assert!(matches!(
            plans[0].plan.join_algorithms()[0],
            JoinAlgorithm::Merge { .. }
        ));
        for p in &plans {
            assert!(
                !p.plan
                    .join_algorithms()
                    .iter()
                    .any(|a| matches!(a, JoinAlgorithm::NestedLoop)),
                "nested loop survived the beam: {}",
                p.plan
            );
        }
    }

    #[test]
    fn sorted_dimensions_steer_to_merge() {
        // Pre-sorted inputs flip the first join to merge without sorts.
        let m = model();
        let q = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        let stats = vec![
            TableStats::key_column(4_000_000, 8, true),
            TableStats::key_column(4_000_000, 8, true),
        ];
        let best = Optimizer::new(&m).optimize(&q, &stats).unwrap();
        assert!(matches!(
            best.plan.join_algorithms()[0],
            JoinAlgorithm::Merge {
                sort_u: false,
                sort_v: false
            }
        ));
    }

    /// Every plan for joining two `n`-key columns under `m`, cheapest
    /// first.
    fn rank_join(m: &CostModel, n: u64, sorted: bool) -> Vec<PlannedQuery> {
        let q = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        let stats = [
            TableStats::key_column(n, 8, sorted),
            TableStats::key_column(n, 8, sorted),
        ];
        Optimizer::new(m).enumerate(&q, &stats).unwrap()
    }

    fn algorithm(p: &PlannedQuery) -> &JoinAlgorithm {
        p.plan.join_algorithms()[0]
    }

    #[test]
    fn big_unsorted_inputs_prefer_partitioned_over_plain_hash() {
        // On the Origin2000, hashing a table beyond the 1 MB TLB reach is
        // TLB-bound; single-pass partitioning (fan-out capped below the
        // TLB entry count) recovers part of that, and the sequential-
        // access sort+merge pipeline wins outright — the memory-access
        // economics that motivated the radix-cluster line of work
        // ([MBK00a]; see ops::partition for the multi-pass answer).
        let ranked = rank_join(&model(), 4_000_000, false);
        assert!(
            matches!(algorithm(&ranked[0]), JoinAlgorithm::Merge { .. }),
            "picked {}",
            ranked[0].plan
        );
        let pos = |pred: fn(&JoinAlgorithm) -> bool| {
            ranked.iter().position(|p| pred(algorithm(p))).unwrap()
        };
        let part = pos(|a| matches!(a, JoinAlgorithm::PartitionedHash { .. }));
        let hash = pos(|a| matches!(a, JoinAlgorithm::Hash));
        assert!(part < hash, "partitioned must rank above plain hash");
    }

    #[test]
    fn tlb_fitting_table_picks_plain_hash() {
        // H = 1 MB = the TLB reach: hashing stays cheap and beats paying
        // two sorts.
        let ranked = rank_join(&model(), 30_000, false);
        assert!(
            matches!(algorithm(&ranked[0]), JoinAlgorithm::Hash),
            "picked {}",
            ranked[0].plan
        );
    }

    #[test]
    fn nested_loop_never_wins_at_scale() {
        let ranked = rank_join(&model(), 100_000, false);
        let last = ranked.last().unwrap();
        assert!(matches!(algorithm(last), JoinAlgorithm::NestedLoop));
    }

    #[test]
    fn fanout_ranking_avoids_the_cliff() {
        let m = model();
        let stats = [TableStats::uniform(2_000_000, 8, 1 << 40, false)];
        let mut ranked: Vec<(u32, f64)> = [1, 4, 6, 9, 12, 16, 20]
            .into_iter()
            .map(|bits| {
                let q = LogicalPlan::scan(0).partition(Some(bits));
                (
                    bits,
                    Optimizer::new(&m).optimize(&q, &stats).unwrap().mem_ns,
                )
            })
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        // The cheapest fan-outs stay within the TLB entry count (64).
        let (best_bits, _) = ranked[0];
        assert!(
            best_bits <= 6,
            "best fan-out 2^{best_bits} should dodge the TLB cliff"
        );
        // The most expensive candidate is far past every cliff.
        let (worst_bits, worst_ns) = *ranked.last().unwrap();
        assert!(worst_bits >= 16);
        assert!(worst_ns > 2.0 * ranked[0].1);
    }

    #[test]
    fn candidates_carry_patterns_and_ops() {
        let m = model();
        let plans = rank_join(&m, 10_000, false);
        assert!(plans.len() >= 4, "NL, merge, hash, ≥1 partitioned");
        for p in &plans {
            assert!(p.ops > 0, "{} has no op estimate", p.plan);
            assert!(m.mem_ns(&p.pattern) > 0.0, "{} has no pattern", p.plan);
        }
        // Unsorted inputs: the merge candidate pays both sorts.
        assert!(plans.iter().any(|p| matches!(
            algorithm(p),
            JoinAlgorithm::Merge {
                sort_u: true,
                sort_v: true
            }
        )));
    }

    #[test]
    fn clamped_fanouts_produce_one_candidate() {
        // On the tiny machine both data caches clamp to the TLB's 8
        // lines for a big build side: only one PartitionedHash survives.
        let plans = rank_join(&CostModel::new(presets::tiny()), 4096, false);
        let part: Vec<_> = plans
            .iter()
            .map(algorithm)
            .filter(|a| matches!(a, JoinAlgorithm::PartitionedHash { .. }))
            .collect();
        assert_eq!(part, [&JoinAlgorithm::PartitionedHash { bits: 3 }]);
    }

    #[test]
    fn beam_truncates_enumeration() {
        let m = model();
        let q = star_query(6000);
        let stats = star_stats(48_000, 12_000);
        let wide = Optimizer::new(&m)
            .with_beam(8)
            .enumerate(&q, &stats)
            .unwrap();
        let narrow = Optimizer::new(&m)
            .with_beam(2)
            .enumerate(&q, &stats)
            .unwrap();
        assert!(wide.len() > narrow.len());
        assert_eq!(narrow.len(), 2);
        // The winner survives narrowing.
        assert_eq!(wide[0].plan, narrow[0].plan);
    }

    #[test]
    fn open_partition_fanouts_are_enumerated() {
        let m = model();
        let q = LogicalPlan::scan(0).partition(None);
        let stats = vec![TableStats::uniform(2_000_000, 8, 1 << 40, false)];
        let plans = Optimizer::new(&m).enumerate(&q, &stats).unwrap();
        assert!(!plans.is_empty());
        let mut fanouts = Vec::new();
        for p in &plans {
            match &p.plan {
                PhysicalPlan::Partition { bits, .. } => fanouts.push(*bits),
                other => panic!("expected partition root, got {other}"),
            }
        }
        // Fan-outs stay within the TLB entry count (64): the Figure 7d
        // cliff is respected.
        assert!(fanouts.iter().all(|&bits| (1..=6).contains(&bits)));
    }

    #[test]
    fn self_join_scans_share_one_region_identity() {
        // Both scans of table 0 must carry the same region id, or Eq 5.2
        // cannot price the rescan reuse.
        let m = CostModel::new(presets::tiny());
        let q = LogicalPlan::scan(0).join(LogicalPlan::scan(0));
        let stats = vec![TableStats::key_column(1_000, 8, false)];
        let best = Optimizer::new(&m).optimize(&q, &stats).unwrap();
        let base_ids: std::collections::HashSet<_> = best
            .pattern
            .leaves()
            .into_iter()
            .filter_map(|l| l.region())
            .filter(|r| r.name() == "T0")
            .map(gcm_core::Region::id)
            .collect();
        assert_eq!(base_ids.len(), 1, "expected one shared T0 identity");
    }

    #[test]
    fn unknown_table_is_reported() {
        let m = model();
        let q = LogicalPlan::scan(5);
        let err = Optimizer::new(&m)
            .optimize(&q, &star_stats(100, 10))
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::UnknownTable {
                table: 5,
                tables: 3
            }
        );
        assert!(err.to_string().contains("table 5"));
    }

    #[test]
    fn core_count_does_not_change_the_plan() {
        // A plan runs on one core; cores are shared between queries
        // (`CostModel::batch_cost`), so the same statistics must give
        // the same plans at the same prices whatever the core count.
        let join = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        let keys = |n: u64| {
            vec![
                TableStats::key_column(n, 8, false),
                TableStats::key_column(n, 8, false),
            ]
        };
        let cases = [
            (
                LogicalPlan::scan(0).select_lt(500_000),
                vec![TableStats::uniform(1_000_000, 8, 1_000_000, false)],
            ),
            (join.clone(), keys(65_536)),
            (join.clone(), keys(256)),
            (join.group_count(), keys(65_536)),
        ];
        for smp in [presets::tiny_smp(4), presets::modern_smp(8)] {
            let one = CostModel::new(smp.clone().with_cores(1).unwrap());
            let many = CostModel::new(smp);
            for (q, stats) in &cases {
                let a = Optimizer::new(&one).enumerate(q, stats).unwrap();
                let b = Optimizer::new(&many).enumerate(q, stats).unwrap();
                assert_eq!(a.len(), b.len(), "{q}");
                for (a, b) in a.iter().zip(&b) {
                    assert_eq!(a.plan, b.plan, "{q}");
                    assert_eq!(a.mem_ns.to_bits(), b.mem_ns.to_bits(), "{}", a.plan);
                    assert_eq!(a.cpu_ns.to_bits(), b.cpu_ns.to_bits(), "{}", a.plan);
                }
            }
        }
    }
}
