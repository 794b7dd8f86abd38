//! Scoring misses with latencies: the paper's Eq 3.1 and Eq 6.1.
//!
//! ```text
//! T_mem = Σ_i ( Ms_i · l_s,i  +  Mr_i · l_r,i )        (3.1)
//! T     = T_mem + T_cpu                                 (6.1)
//! ```
//!
//! `T_cpu` is the pure CPU cost of the algorithm, calibrated once per
//! algorithm in an in-cache setting (paper §6.1); [`CpuCost`] carries that
//! calibration.
//!
//! Eq 3.1 prices every level on its own, so a caller that needs only some
//! levels, or only some prices, evaluates only those, to the bit:
//!
//! * [`CostModel::compose_cold_shared`] composes a cold batch at its
//!   shared levels only. At a private level every member runs on a cold
//!   level of its own, exactly as it ran solo, so its cost there is its
//!   solo report's.
//! * [`CostModel::staged_within`] prices a chain of stages level by
//!   level and gives up once the levels priced so far — a lower bound,
//!   since every term is `≥ 0` and rounded addition is monotone — rule
//!   the chain out; a chain it prices in full sums as
//!   [`CostModel::advance`] does, stage by stage.

use crate::eval::{CacheState, Compiled};
use crate::misses::{Geometry, MissPair};
use crate::pattern::Pattern;
use crate::region::Region;
use gcm_hardware::{CacheLevel, HardwareSpec, Sharing};
use std::fmt;
use std::sync::Arc;

/// Cost contribution of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCost {
    /// Level name (e.g. `"L2"`), shared with the model that priced it.
    pub name: Arc<str>,
    /// Estimated sequential misses `Ms_i`.
    pub seq_misses: f64,
    /// Estimated random misses `Mr_i`.
    pub rand_misses: f64,
    /// `Ms_i·l_s,i + Mr_i·l_r,i` in nanoseconds.
    pub ns: f64,
}

impl LevelCost {
    /// Total misses at this level.
    pub fn misses(&self) -> f64 {
        self.seq_misses + self.rand_misses
    }
}

/// Full per-level cost breakdown for one pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Per-level breakdown, in spec order.
    pub levels: Vec<LevelCost>,
    /// Total memory access time `T_mem` (Eq 3.1) in nanoseconds.
    pub mem_ns: f64,
}

impl CostReport {
    /// Misses at the level called `name`, if present.
    pub fn level(&self, name: &str) -> Option<&LevelCost> {
        self.levels.iter().find(|l| &*l.name == name)
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "level   seq misses      rand misses     time [ns]")?;
        for l in &self.levels {
            writeln!(
                f,
                "{:<7} {:>14.1} {:>16.1} {:>13.1}",
                l.name, l.seq_misses, l.rand_misses, l.ns
            )?;
        }
        write!(f, "T_mem = {:.1} ns", self.mem_ns)
    }
}

/// Pure CPU cost of an algorithm, calibrated in-cache (paper §6.1): a
/// cost per logical operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCost {
    /// Cost per logical operation in nanoseconds.
    pub per_op_ns: f64,
}

impl CpuCost {
    /// The default per-logical-operation charge of the planner stack
    /// (see [`CpuCost::default_planner`]), in nanoseconds.
    pub const DEFAULT_PLANNER_PER_OP_NS: f64 = 4.0;

    /// A calibration charging `per_op_ns` per logical operation.
    pub fn per_op(per_op_ns: f64) -> CpuCost {
        CpuCost { per_op_ns }
    }

    /// The default planner calibration:
    /// [`DEFAULT_PLANNER_PER_OP_NS`](CpuCost::DEFAULT_PLANNER_PER_OP_NS)
    /// per logical operation. The paper calibrates `T_cpu` per algorithm
    /// (§6.1); every costing layer that has not been handed a machine
    /// calibration uses this single shared default, so the whole-plan
    /// optimizer and the service price CPU identically.
    pub const fn default_planner() -> CpuCost {
        CpuCost {
            per_op_ns: CpuCost::DEFAULT_PLANNER_PER_OP_NS,
        }
    }

    /// `T_cpu` for `ops` logical operations.
    pub fn ns(&self, ops: u64) -> f64 {
        self.per_op_ns * ops as f64
    }

    /// Eq 6.1, `T = T_mem + T_cpu`, in one place: memory time plus this
    /// calibration's CPU charge for `ops` logical operations. Both the
    /// model side ([`CostModel::total_ns`], predicted `T_mem`) and the
    /// measured side (`gcm-engine`'s `RunStats::total_ns`, charged
    /// `T_mem`) route through this helper, so the formula can never
    /// drift between prediction and measurement.
    pub fn eq61_ns(&self, mem_ns: f64, ops: u64) -> f64 {
        mem_ns + self.ns(ops)
    }
}

/// Per-level cache states for *staged* pricing: one logical
/// [`CacheState`] per hierarchy level, threaded across explicit
/// [`CostModel::advance`] / [`CostModel::advance_parallel_shared`] calls.
///
/// Pricing one compound `⊕` pattern in a single [`CostModel::report`]
/// call threads the state internally; staged pricing exposes the same
/// threading *between* calls, which is what lets a multi-core stage (a
/// different combination rule per level) sit in the middle of an
/// otherwise sequential plan.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyState {
    states: Vec<CacheState>,
}

impl HierarchyState {
    /// Each level's current state, in spec order.
    pub fn levels(&self) -> &[CacheState] {
        &self.states
    }
}

/// Cost of a *batch* of coexisting queries (see
/// [`CostModel::batch_cost`]): each query's whole compound pattern is
/// one member of the `⊙`-composition, priced both composed (sharing the
/// shared levels) and solo (running alone), so an admission controller
/// can compare batched against serial execution.
#[derive(Debug, Clone)]
pub struct BatchCost {
    /// Each query's memory time inside the batch, ns: shared levels are
    /// divided among the queries proportionally to their footprints
    /// (Eq 5.3 across cores), private levels see one query each.
    pub per_query_ns: Vec<f64>,
    /// Each query's memory time running alone from the same initial
    /// state, ns.
    pub solo_ns: Vec<f64>,
}

impl BatchCost {
    /// The batch's elapsed memory time: the slowest member, since all
    /// queries run concurrently.
    pub fn wall_ns(&self) -> f64 {
        self.per_query_ns.iter().copied().fold(0.0, f64::max)
    }
}

/// Cost of one stage executed by `d` concurrent threads
/// (see [`CostModel::advance_parallel_shared`]).
#[derive(Debug, Clone)]
pub struct ParallelCost {
    /// Aggregate per-level breakdown: miss counts and memory time summed
    /// over all threads (total machine work, not elapsed time).
    pub report: CostReport,
    /// Each thread's own memory time across all levels, ns.
    pub per_thread_ns: Vec<f64>,
    /// The stage's elapsed (wall-clock) memory time: the slowest
    /// thread, since all threads run concurrently.
    pub wall_ns: f64,
}

impl ParallelCost {
    /// One thread's stage: its report is the stage's and its time the
    /// wall.
    fn alone(report: CostReport) -> ParallelCost {
        let wall_ns = report.mem_ns;
        ParallelCost {
            per_thread_ns: vec![wall_ns],
            wall_ns,
            report,
        }
    }
}

/// A chain of stages priced by [`CostModel::staged_within`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagedPrice {
    /// The chain's memory time, ns: the stages' `T_mem` summed in stage
    /// order, each summed over its levels in spec order.
    pub mem_ns: f64,
    /// Each level's memory time summed over the stages, ns, in spec
    /// order.
    pub level_ns: Vec<f64>,
}

/// Misses `m` at level `lvl` scored with its latencies (Eq 3.1's term).
fn scored(lvl: &CacheLevel, m: MissPair) -> f64 {
    m.seq * lvl.seq_miss_ns + m.rand * lvl.rand_miss_ns
}

/// The cost model for one machine: estimates misses per level and scores
/// them with the machine's latencies.
#[derive(Debug, Clone)]
pub struct CostModel {
    spec: HardwareSpec,
    /// The levels' names, interned once so a report names its levels
    /// without allocating.
    names: Vec<Arc<str>>,
}

impl CostModel {
    /// A cost model for the given machine.
    pub fn new(spec: HardwareSpec) -> CostModel {
        let names = spec.levels().iter().map(|l| Arc::from(&*l.name)).collect();
        CostModel { spec, names }
    }

    /// The machine description.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// Estimated misses per level (cold caches), in spec order.
    pub fn misses(&self, p: &Pattern) -> Vec<MissPair> {
        self.misses_from(p, &CacheState::cold())
    }

    /// Estimated misses per level starting from `state` (one shared
    /// logical state, applied per level).
    pub fn misses_from(&self, p: &Pattern, state: &CacheState) -> Vec<MissPair> {
        let mut c = Compiled::lower([p], [state]);
        self.spec
            .levels()
            .iter()
            .map(|lvl| {
                c.load(state);
                c.level(&Geometry::of(lvl))
            })
            .collect()
    }

    /// Full cost report: per-level misses scored with latencies (Eq 3.1).
    pub fn report(&self, p: &Pattern) -> CostReport {
        self.report_from(p, &CacheState::cold())
    }

    /// Full cost report starting from a warm [`CacheState`] — the Eq 5.2
    /// surface for whole-plan composition: pricing a pattern that runs
    /// *right after* another one (whose residue `state` describes)
    /// instead of against cold caches.
    pub fn report_from(&self, p: &Pattern, state: &CacheState) -> CostReport {
        let mut c = Compiled::lower([p], [state]);
        self.score(|_, geo| {
            c.load(state);
            c.level(geo)
        })
    }

    /// Score the misses `level(i, geometry)` estimates at each level `i`
    /// with its latencies (Eq 3.1).
    fn score(&self, mut level: impl FnMut(usize, &Geometry) -> MissPair) -> CostReport {
        let levels: Vec<LevelCost> = self
            .spec
            .levels()
            .iter()
            .enumerate()
            .map(|(i, lvl)| {
                let m = level(i, &Geometry::of(lvl));
                self.level_cost(i, m)
            })
            .collect();
        let mem_ns = levels.iter().map(|l| l.ns).sum();
        CostReport { levels, mem_ns }
    }

    /// Level `i`'s misses `m` scored with its latencies.
    fn level_cost(&self, i: usize, m: MissPair) -> LevelCost {
        let lvl = &self.spec.levels()[i];
        LevelCost {
            name: Arc::clone(&self.names[i]),
            seq_misses: m.seq,
            rand_misses: m.rand,
            ns: scored(lvl, m),
        }
    }

    /// `T_mem` (Eq 3.1) in nanoseconds.
    pub fn mem_ns(&self, p: &Pattern) -> f64 {
        self.report(p).mem_ns
    }

    /// `T = T_mem + T_cpu` (Eq 6.1) in nanoseconds, for an algorithm that
    /// performs `ops` logical operations under the `cpu` calibration
    /// (via the shared [`CpuCost::eq61_ns`] helper).
    pub fn total_ns(&self, p: &Pattern, cpu: CpuCost, ops: u64) -> f64 {
        cpu.eq61_ns(self.mem_ns(p), ops)
    }

    /// Begin a staged pricing pass: every level starts from (a copy of)
    /// the logical `initial` state.
    pub fn staged(&self, initial: &CacheState) -> HierarchyState {
        HierarchyState {
            states: vec![initial.clone(); self.spec.levels().len()],
        }
    }

    /// Price one sequential stage from the current staged state,
    /// advancing it. A fold of `advance` over `⊕`-phases reproduces
    /// [`CostModel::report_from`] on the composed pattern exactly.
    pub fn advance(&self, p: &Pattern, st: &mut HierarchyState) -> CostReport {
        let mut c = Compiled::lower([p], &st.states);
        self.score(|i, geo| {
            c.load(&st.states[i]);
            let m = c.level(geo);
            c.store(&mut st.states[i]);
            m
        })
    }

    /// Price one plan node end to end from the current staged state:
    /// [`advance`](CostModel::advance) for `T_mem` under the threaded
    /// cache state (Eq 5.2), plus `cpu.ns(ops)` for `T_cpu` — the
    /// per-node Eq 6.1 hook `EXPLAIN ANALYZE` prices its tree with.
    /// Returns the per-level report and the node's total nanoseconds.
    pub fn advance_total(
        &self,
        p: &Pattern,
        st: &mut HierarchyState,
        cpu: &CpuCost,
        ops: u64,
    ) -> (CostReport, f64) {
        let report = self.advance(p, st);
        let total = cpu.eq61_ns(report.mem_ns, ops);
        (report, total)
    }

    /// Price one stage executed by `threads.len()` concurrent threads on
    /// separate cores — the `⊙` rule of Eq 5.3 applied *across cores*,
    /// level by level:
    ///
    /// * a [`Shared`](Sharing::Shared) level is divided among all
    ///   threads proportionally to their footprints, exactly like the
    ///   coexisting patterns of a single-threaded `⊙`;
    /// * a [`Private`](Sharing::Private) level exists once per core, so
    ///   each thread sees its full capacity. Thread 0 (the core that ran
    ///   the preceding serial stages) starts from the incoming state;
    ///   the other cores' private caches start cold.
    ///
    /// The stage's elapsed memory time is the slowest thread
    /// ([`ParallelCost::wall_ns`]); with skewed per-thread patterns the
    /// straggler dominates, which is precisely the effect partition skew
    /// has on a partition-parallel operator. Afterwards the state holds
    /// thread 0's residue at private levels and the threads' combined
    /// residue at shared levels.
    ///
    /// Regions in `shared` (immutable structures several threads
    /// reference, e.g. one hash-join build probed by co-admitted
    /// queries) are counted **once** in each shared level's capacity
    /// denominator, not once per referencing thread — the threads
    /// revisit the same physical lines, so under Eq 5.3 the data claims
    /// one footprint. Each thread's numerator keeps its full footprint
    /// (its claim on the level includes the shared lines it revisits),
    /// so shares can sum above 1; they are clamped at 1 per thread (a
    /// thread never sees more than the whole level). With an empty
    /// `shared` every thread's footprint counts in full.
    /// [`concurrent_shares`](crate::concurrent_shares) returns these
    /// shares, from the same rule. Both lists are borrowed: `threads`
    /// may be a `&[Pattern]` or any cloneable exact-size iterator of
    /// `&Pattern`.
    pub fn advance_parallel_shared<'p, 'r>(
        &self,
        threads: impl IntoIterator<Item = &'p Pattern, IntoIter: Clone + ExactSizeIterator>,
        st: &mut HierarchyState,
        shared: impl IntoIterator<Item = &'r Region>,
    ) -> ParallelCost {
        let threads = threads.into_iter();
        if threads.len() <= 1 {
            let report = match threads.clone().next() {
                Some(p) => self.advance(p, st),
                None => self.advance(&Pattern::empty(), st),
            };
            return ParallelCost::alone(report);
        }
        self.parallel(threads, st, shared, None::<std::iter::Empty<&CostReport>>)
    }

    /// [`advance_parallel_shared`](CostModel::advance_parallel_shared)
    /// from cold caches, for members whose cold solo reports
    /// ([`report`](CostModel::report) on this model) are already known:
    /// per-thread times, per-level report and wall, to the bit.
    ///
    /// Only the [`Shared`](Sharing::Shared) levels are evaluated. At a
    /// [`Private`](Sharing::Private) level every member has a whole
    /// level of its own and, the composition starting cold, starts it
    /// cold — exactly as it ran solo — so its misses there are its solo
    /// report's, which are added in spec order. A single member's cost
    /// is its solo report.
    pub fn compose_cold_shared<'p, 'r>(
        &self,
        members: impl IntoIterator<
            Item = (&'p Pattern, &'p CostReport),
            IntoIter: Clone + ExactSizeIterator,
        >,
        shared: impl IntoIterator<Item = &'r Region>,
    ) -> ParallelCost {
        let members = members.into_iter();
        let patterns = members.clone().map(|(p, _)| p);
        let mut cold = self.staged(&CacheState::cold());
        let mut solos = members.map(|(_, solo)| solo);
        match solos.len() {
            0 => self.advance_parallel_shared(patterns, &mut cold, shared),
            1 => ParallelCost::alone(solos.next().expect("one member").clone()),
            _ => self.parallel(patterns, &mut cold, shared, Some(solos)),
        }
    }

    /// The `⊙`-across-cores rule for two or more threads, level by
    /// level. With `solo`, each thread's cold solo report, a private
    /// level takes the threads' misses from it instead of evaluating
    /// them, and its state is left as it was (see
    /// [`compose_cold_shared`](CostModel::compose_cold_shared)).
    fn parallel<'p, 'r, 's>(
        &self,
        threads: impl Clone + ExactSizeIterator<Item = &'p Pattern>,
        st: &mut HierarchyState,
        shared: impl IntoIterator<Item = &'r Region>,
        solo: Option<impl Iterator<Item = &'s CostReport> + Clone>,
    ) -> ParallelCost {
        let d = threads.len();
        let mut c = Compiled::lower(threads, &st.states);
        let shared = c.mark_shared(shared);
        let mut per_thread_ns = vec![0.0; d];
        let mut levels = Vec::with_capacity(self.spec.levels().len());
        for (i, lvl) in self.spec.levels().iter().enumerate() {
            let geo = Geometry::of(lvl);
            let mut sum = MissPair::default();
            let mut t = 0;
            let mut each = |pair: MissPair| {
                per_thread_ns[t] += scored(lvl, pair);
                sum += pair;
                t += 1;
            };
            match (&solo, lvl.sharing) {
                (Some(solo), Sharing::Private) => {
                    for report in solo.clone() {
                        let l = &report.levels[i];
                        each(MissPair {
                            seq: l.seq_misses,
                            rand: l.rand_misses,
                        });
                    }
                }
                (_, sharing) => {
                    c.load(&st.states[i]);
                    if sharing == Sharing::Shared {
                        c.members_shared(&geo, &shared, each);
                    } else {
                        c.members_private(&geo, each);
                    }
                    c.store(&mut st.states[i]);
                }
            }
            levels.push(self.level_cost(i, sum));
        }
        let mem_ns = levels.iter().map(|l| l.ns).sum();
        let wall_ns = per_thread_ns.iter().copied().fold(0.0, f64::max);
        ParallelCost {
            report: CostReport { levels, mem_ns },
            per_thread_ns,
            wall_ns,
        }
    }

    /// The memory time of `stages` run one after another from `initial`
    /// — to the bit the sum of [`advance`](CostModel::advance)'s
    /// `mem_ns` over them, in stage order — unless it provably cannot
    /// keep `cpu_ns` plus it within `bound_ns`.
    ///
    /// Levels are independent (Eq 3.1), so the stages are priced level
    /// by level, the dearest first by `dearest` (a per-level cost in
    /// spec order, e.g. another chain's [`StagedPrice::level_ns`]; ties
    /// and an empty slice keep spec order). After each level the
    /// stage-major sum with the levels not yet priced read as `0.0` is a
    /// lower bound on the total: every term is `≥ 0` and rounded
    /// addition is monotone. `None` as soon as that bound plus `cpu_ns`
    /// exceeds `bound_ns` (strictly: a chain that can tie the bound is
    /// priced in full); `f64::INFINITY` prices every chain.
    pub fn staged_within<'p>(
        &self,
        stages: impl IntoIterator<Item = &'p Pattern, IntoIter: Clone>,
        initial: &CacheState,
        dearest: &[f64],
        cpu_ns: f64,
        bound_ns: f64,
    ) -> Option<StagedPrice> {
        let spec = self.spec.levels();
        let mut order: Vec<usize> = (0..spec.len()).collect();
        if dearest.len() == spec.len() {
            order.sort_by(|&a, &b| dearest[b].total_cmp(&dearest[a]));
        }
        let mut c = Compiled::lower(stages, [initial]);
        // `ns[stage · levels + level]`, 0.0 until the level is priced.
        let mut ns = vec![0.0; c.patterns() * spec.len()];
        let mut mem_ns = 0.0;
        for &i in &order {
            let lvl = &spec[i];
            c.load(initial);
            let mut at = i;
            c.chain(&Geometry::of(lvl), |m| {
                ns[at] = scored(lvl, m);
                at += spec.len();
            });
            // The stage-major order `advance` sums in: levels within a
            // stage, then stages.
            mem_ns = ns
                .chunks(spec.len())
                .map(|stage| stage.iter().sum::<f64>())
                .fold(0.0, |mem, stage| mem + stage);
            if mem_ns + cpu_ns > bound_ns {
                return None;
            }
        }
        let level_ns = (0..spec.len())
            .map(|i| ns.iter().skip(i).step_by(spec.len()).sum())
            .collect();
        Some(StagedPrice { mem_ns, level_ns })
    }

    /// Price a batch of heterogeneous coexisting queries — the `⊙` rule
    /// of Eq 5.3 applied *across queries*: each member pattern is one
    /// query's whole compound plan, all of them running concurrently on
    /// separate cores of this machine. Shared levels are divided among
    /// the queries by footprint; private levels see one query each
    /// (every core beyond the first starts cold, exactly as in
    /// [`CostModel::advance_parallel_shared`]). Each query is additionally
    /// priced *solo* from the same `initial` state, so the caller can
    /// compare the batched wall time against serial execution — the
    /// admission predicate of a batch scheduler.
    pub fn batch_cost(&self, queries: &[Pattern], initial: &CacheState) -> BatchCost {
        self.batch_cost_shared(queries, initial, &[])
    }

    /// [`batch_cost`](CostModel::batch_cost) with *shared data*: regions
    /// in `shared` are counted once in every shared level's capacity
    /// denominator no matter how many member queries reference them
    /// ([`advance_parallel_shared`](CostModel::advance_parallel_shared))
    /// — the pricing rule for co-admitted queries probing one shared
    /// hash-join build. Solo prices are unaffected (a query alone never
    /// double-counts anything).
    pub fn batch_cost_shared(
        &self,
        queries: &[Pattern],
        initial: &CacheState,
        shared: &[Region],
    ) -> BatchCost {
        if queries.is_empty() {
            return BatchCost {
                per_query_ns: Vec::new(),
                solo_ns: Vec::new(),
            };
        }
        let par = self.advance_parallel_shared(queries, &mut self.staged(initial), shared);
        let solo_ns = queries
            .iter()
            .map(|q| self.report_from(q, initial).mem_ns)
            .collect();
        BatchCost {
            per_query_ns: par.per_thread_ns,
            solo_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use gcm_hardware::presets;

    #[test]
    fn report_scores_misses_with_latencies() {
        let hw = presets::tiny(); // L1: 5/15 ns, L2: 50/150 ns, TLB: 100 ns
        let model = CostModel::new(hw);
        let a = Region::new("A", 1000, 8); // 8000 B
        let rep = model.report(&Pattern::s_trav(a));
        // L1: 250 sequential misses × 5 ns.
        let l1 = rep.level("L1").unwrap();
        assert!((l1.seq_misses - 250.0).abs() < 1e-9);
        assert!((l1.ns - 1250.0).abs() < 1e-9);
        // L2: 125 × 50 ns.
        let l2 = rep.level("L2").unwrap();
        assert!((l2.ns - 6250.0).abs() < 1e-9);
        // TLB: 8 pages; TLB misses use the single latency.
        let tlb = rep.level("TLB").unwrap();
        assert!((tlb.ns - 800.0).abs() < 1e-9);
        assert!((rep.mem_ns - (1250.0 + 6250.0 + 800.0)).abs() < 1e-9);
    }

    #[test]
    fn random_misses_cost_more() {
        let hw = presets::tiny();
        let model = CostModel::new(hw);
        let a = Region::new("A", 1000, 8);
        let b = Region::new("B", 1000, 8);
        let seq_cost = model.mem_ns(&Pattern::s_trav(a));
        let rand_cost = model.mem_ns(&Pattern::r_trav(b));
        assert!(rand_cost > seq_cost);
    }

    #[test]
    fn eq61_total_adds_cpu() {
        let model = CostModel::new(presets::tiny());
        let a = Region::new("A", 1000, 8);
        let p = Pattern::s_trav(a);
        let t = model.total_ns(&p, CpuCost::per_op(2.0), 1000);
        assert!((t - (model.mem_ns(&p) + 2000.0)).abs() < 1e-9);
    }

    #[test]
    fn warm_state_reduces_cost() {
        let model = CostModel::new(presets::tiny());
        let a = Region::new("A", 100, 8); // fits every level
        let p = Pattern::s_trav(a.clone());
        let mut warm = CacheState::cold();
        warm.set(&a, 1.0);
        let cold: f64 = model.misses(&p).iter().map(|m| m.total()).sum();
        let warmed: f64 = model.misses_from(&p, &warm).iter().map(|m| m.total()).sum();
        assert!(cold > 0.0);
        assert_eq!(warmed, 0.0);
    }

    #[test]
    fn report_from_warm_state_is_cheaper() {
        let model = CostModel::new(presets::tiny());
        let a = Region::new("A", 100, 8); // fits every level
        let p = Pattern::s_trav(a.clone());
        let cold = model.report(&p);
        let mut warm = CacheState::cold();
        warm.set(&a, 1.0);
        let warmed = model.report_from(&p, &warm);
        assert!(cold.mem_ns > 0.0);
        assert_eq!(warmed.mem_ns, 0.0);
        // A cold starting state reproduces the plain report.
        let recold = model.report_from(&p, &CacheState::cold());
        assert_eq!(recold, cold);
    }

    #[test]
    fn report_display_contains_levels() {
        let model = CostModel::new(presets::tiny());
        let a = Region::new("A", 100, 8);
        let s = model.report(&Pattern::s_trav(a)).to_string();
        assert!(s.contains("L1") && s.contains("TLB") && s.contains("T_mem"));
    }

    #[test]
    fn staged_advance_matches_composed_report() {
        // Folding advance over the ⊕-phases must reproduce pricing the
        // composed pattern in one shot — including the Eq 5.2 reuse.
        let model = CostModel::new(presets::tiny());
        let a = Region::new("A", 700, 8);
        let b = Region::new("B", 2_000, 8);
        let phases = [
            Pattern::s_trav(a.clone()),
            Pattern::r_trav(b.clone()),
            Pattern::r_trav(a.clone()), // partially warm after phase 1? no — b evicted it
            Pattern::s_trav(b),
        ];
        let mut st = model.staged(&CacheState::cold());
        let staged: f64 = phases
            .iter()
            .map(|p| model.advance(p, &mut st).mem_ns)
            .sum();
        let composed = model.report(&Pattern::seq(phases.to_vec())).mem_ns;
        assert!((staged - composed).abs() < 1e-9, "{staged} vs {composed}");
    }

    #[test]
    fn parallel_stage_on_private_levels_costs_a_thread_slice_per_thread() {
        // All-private machine: every thread gets a full cache, so each
        // thread's time is just its own (1/d-sized) pattern and the wall
        // time is 1/d of the serial stage.
        let model = CostModel::new(presets::tiny()); // all levels private
        let u = Region::new("U", 64_000, 8);
        let serial = model.report(&Pattern::s_trav(u.clone())).mem_ns;
        let d = 4;
        let threads: Vec<Pattern> = (0..d).map(|_| Pattern::s_trav(u.slice(d))).collect();
        let mut st = model.staged(&CacheState::cold());
        let par = model.advance_parallel_shared(&threads, &mut st, &[]);
        assert_eq!(par.per_thread_ns.len(), 4);
        let ratio = par.wall_ns / serial;
        assert!((ratio - 0.25).abs() < 0.01, "wall/serial = {ratio}");
        // Aggregate work is unchanged (the data is swept exactly once).
        assert!((par.report.mem_ns - serial).abs() < 1e-6 * serial);
    }

    #[test]
    fn parallel_stage_contends_for_shared_levels() {
        // tiny_smp shares L2. Four concurrent random traversals over
        // L2-sized working sets blow past each thread's quarter share, so
        // the ⊙-composed stage must cost *more* L2 time in aggregate than
        // the same four traversals run back to back on private caches.
        let shared = CostModel::new(presets::tiny_smp(4));
        let private = CostModel::new(presets::tiny());
        let d = 4usize;
        let regions: Vec<Region> = (0..d)
            .map(|i| Region::new(format!("R{i}"), 1_500, 8)) // 12 KB ≈ ¾ L2 each
            .collect();
        let threads: Vec<Pattern> = regions
            .iter()
            .map(|r| Pattern::rr_trav(r.clone(), 8, 4))
            .collect();
        let contended = shared
            .advance_parallel_shared(&threads, &mut shared.staged(&CacheState::cold()), &[])
            .report
            .level("L2")
            .unwrap()
            .ns;
        let isolated = private
            .advance_parallel_shared(&threads, &mut private.staged(&CacheState::cold()), &[])
            .report
            .level("L2")
            .unwrap()
            .ns;
        assert!(
            contended > 1.5 * isolated,
            "shared-L2 contention must show: {contended} vs {isolated}"
        );
    }

    #[test]
    fn skewed_threads_make_the_straggler_the_wall() {
        let model = CostModel::new(presets::tiny_smp(4));
        let u = Region::new("U", 40_000, 8);
        // Thread 0 gets 70% of the items, the rest split the remainder.
        let threads = vec![
            Pattern::s_trav(u.slice_items(28_000)),
            Pattern::s_trav(u.slice_items(4_000)),
            Pattern::s_trav(u.slice_items(4_000)),
            Pattern::s_trav(u.slice_items(4_000)),
        ];
        let par =
            model.advance_parallel_shared(&threads, &mut model.staged(&CacheState::cold()), &[]);
        assert!((par.wall_ns - par.per_thread_ns[0]).abs() < 1e-9);
        assert!(par.per_thread_ns[0] > 3.0 * par.per_thread_ns[1]);
        // Balanced threads would finish in ~¼ the aggregate time; the
        // skewed schedule's wall is dominated by the straggler.
        assert!(par.wall_ns > 0.6 * par.report.mem_ns);
    }

    #[test]
    fn parallel_stage_with_one_thread_is_the_serial_stage() {
        let model = CostModel::new(presets::tiny_smp(4));
        let u = Region::new("U", 10_000, 8);
        let p = Pattern::s_trav(u);
        let serial = model
            .advance(&p, &mut model.staged(&CacheState::cold()))
            .mem_ns;
        let par = model.advance_parallel_shared(
            std::slice::from_ref(&p),
            &mut model.staged(&CacheState::cold()),
            &[],
        );
        assert_eq!(par.wall_ns, serial);
        assert_eq!(par.per_thread_ns, vec![serial]);
        // Zero threads: a no-op stage.
        let none = model.advance_parallel_shared(&[], &mut model.staged(&CacheState::cold()), &[]);
        assert_eq!(none.wall_ns, 0.0);
    }

    #[test]
    fn batch_of_streaming_queries_beats_serial() {
        // Sequential sweeps have footprint 1: coexisting scans barely
        // contend, so the batch wall is far below the serial sum.
        let model = CostModel::new(presets::tiny_smp(4));
        let queries: Vec<Pattern> = (0..4)
            .map(|i| Pattern::s_trav(Region::new(format!("Q{i}"), 20_000, 8)))
            .collect();
        let batch = model.batch_cost(&queries, &CacheState::cold());
        assert_eq!(batch.per_query_ns.len(), 4);
        assert_eq!(batch.solo_ns.len(), 4);
        let speedup = batch.solo_ns.iter().sum::<f64>() / batch.wall_ns();
        assert!(
            speedup > 2.5,
            "streaming batch speedup {speedup:.2} should be near-linear"
        );
    }

    #[test]
    fn contending_batch_backs_off_below_serial() {
        // Repeated random traversals over working sets that fit the
        // shared L2 alone but not together: composed, every revisit
        // misses, so batching must price *worse* than serial.
        let model = CostModel::new(presets::tiny_smp(4));
        let queries: Vec<Pattern> = (0..2)
            .map(|i| Pattern::rr_trav(Region::new(format!("Q{i}"), 1_500, 8), 8, 64))
            .collect();
        let batch = model.batch_cost(&queries, &CacheState::cold());
        assert!(
            batch.wall_ns() > batch.solo_ns.iter().sum::<f64>(),
            "contended batch must price above serial"
        );
    }

    #[test]
    fn shared_region_is_counted_once_across_the_batch() {
        // Two identical probe patterns over ONE hash-table region that
        // fits the shared L2 alone but not twice. Counting the table per
        // query halves each query's share and thrashes; declaring it
        // shared restores (almost) the whole level to each member.
        let model = CostModel::new(presets::tiny_smp(4));
        let h = Region::new("H", 1_500, 8); // 12 KB vs 16 KB shared L2
        let mk = |i: usize| {
            Pattern::conc(vec![
                Pattern::s_trav(Region::new(format!("U{i}"), 20_000, 8)),
                Pattern::r_acc(h.clone(), 20_000),
            ])
        };
        let queries = vec![mk(0), mk(1)];
        let unshared = model.batch_cost(&queries, &CacheState::cold());
        let shared =
            model.batch_cost_shared(&queries, &CacheState::cold(), std::slice::from_ref(&h));
        assert!(
            shared.wall_ns() < 0.7 * unshared.wall_ns(),
            "sharing the build must cut the wall: {} vs {}",
            shared.wall_ns(),
            unshared.wall_ns()
        );
        // Solo prices are untouched by the sharing declaration.
        for (a, b) in shared.solo_ns.iter().zip(&unshared.solo_ns) {
            assert!((a - b).abs() < 1e-9);
        }
        // Declaring a region nobody references changes nothing.
        let foreign = Region::new("X", 4_000, 8);
        let noop = model.batch_cost_shared(&queries, &CacheState::cold(), &[foreign]);
        assert!((noop.wall_ns() - unshared.wall_ns()).abs() < 1e-9);
        // Duplicate declarations collapse to one.
        let dup = model.batch_cost_shared(&queries, &CacheState::cold(), &[h.clone(), h]);
        assert!((dup.wall_ns() - shared.wall_ns()).abs() < 1e-9);
    }

    #[test]
    fn empty_shared_list_reproduces_batch_cost() {
        let model = CostModel::new(presets::tiny_smp(4));
        let queries: Vec<Pattern> = (0..3)
            .map(|i| Pattern::rr_trav(Region::new(format!("Q{i}"), 1_200, 8), 4, 64))
            .collect();
        let plain = model.batch_cost(&queries, &CacheState::cold());
        let empty = model.batch_cost_shared(&queries, &CacheState::cold(), &[]);
        assert_eq!(plain.per_query_ns, empty.per_query_ns);
        assert_eq!(plain.solo_ns, empty.solo_ns);
    }

    #[test]
    fn heterogeneous_batch_reports_per_query_times() {
        let model = CostModel::new(presets::tiny_smp(2));
        let big = Pattern::s_trav(Region::new("B", 50_000, 8));
        let small = Pattern::s_trav(Region::new("S", 500, 8));
        let batch = model.batch_cost(&[big, small], &CacheState::cold());
        assert!(batch.per_query_ns[0] > 10.0 * batch.per_query_ns[1]);
        assert!((batch.wall_ns() - batch.per_query_ns[0]).abs() < 1e-9);
        // A singleton batch is just the solo price.
        let solo = model.batch_cost(
            &[Pattern::s_trav(Region::new("A", 1_000, 8))],
            &CacheState::cold(),
        );
        assert!((solo.wall_ns() - solo.solo_ns.iter().sum::<f64>()).abs() < 1e-9);
        // An empty batch is a no-op.
        let none = model.batch_cost(&[], &CacheState::cold());
        assert_eq!(none.wall_ns(), 0.0);
        assert_eq!(none.solo_ns.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn warm_initial_state_discounts_the_whole_batch() {
        let model = CostModel::new(presets::tiny_smp(2));
        let r = Region::new("R", 100, 8); // fits every level
        let queries = vec![Pattern::s_trav(r.clone()), Pattern::r_trav(r.clone())];
        let cold = model.batch_cost(&queries, &CacheState::cold());
        let mut warm = CacheState::cold();
        warm.set(&r, 1.0);
        let warmed = model.batch_cost(&queries, &warm);
        assert!(warmed.wall_ns() < cold.wall_ns());
        assert_eq!(warmed.solo_ns.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn cpu_cost_helpers() {
        let c = CpuCost::per_op(3.0);
        assert_eq!(c.ns(10), 30.0);
        assert_eq!(c.ns(0), 0.0);
        // The shared planner default: 4 ns/op.
        let d = CpuCost::default_planner();
        assert_eq!(d, CpuCost::per_op(CpuCost::DEFAULT_PLANNER_PER_OP_NS));
        assert_eq!(d.ns(10), 40.0);
        // The shared Eq 6.1 helper: T = T_mem + T_cpu.
        assert_eq!(c.eq61_ns(1000.0, 7), 1000.0 + 21.0);
        assert_eq!(d.eq61_ns(0.0, 3), 12.0);
    }
}
