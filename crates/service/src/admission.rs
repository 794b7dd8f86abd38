//! ⊙-priced admission control: deciding which pending queries may run
//! together.
//!
//! The `⊙`-across-cores rule ([`CostModel::batch_cost`]) decides
//! concurrency *across* queries — a plan itself runs on one core. A
//! batch of queries running on separate cores composes their whole
//! compound patterns on every shared cache level (footprint-
//! proportional shares, Eq 5.3), so the model predicts exactly the
//! contention a coexisting mix will suffer — and the scheduler admits a
//! query into the next batch only while doing so beats appending it
//! serially:
//!
//! ```text
//! admit q into B  ⇔  wall(B ⊙ q) < wall(B) + solo(q)
//! ```
//!
//! with `wall(B) = maxᵢ (memᵢ^⊙ + cpuᵢ) + |B| · dispatch` (the slowest
//! member, since members run concurrently, plus the per-worker dispatch
//! charge) and `solo(q)` the query's cold stand-alone time on one
//! worker. Streaming footprints compose almost freely, so scans and
//! point lookups batch up to the core budget; two queries whose
//! composed footprints overrun the shared level inflate `wall(B ⊙ q)`
//! past the serial sum and the scheduler backs off to running them one
//! after the other. Rejected candidates stay queued and are
//! reconsidered for the following batch.
//!
//! Each query has one solo price, taken at submit from the serving
//! pattern it will run, per level (`Candidate::solo`), and the shed gate
//! reads its total; a formation prices no candidate alone. A singleton's
//! in-batch memory time is its solo price, so the head of the queue
//! costs no evaluation at all. A trial batch of two or more members
//! evaluates only the levels `⊙` can change: the composition starts
//! cold, so at a private level each member has a cold level of its own,
//! exactly as it ran solo, and its cost there is its stored solo cost;
//! only the shared levels are composed
//! ([`CostModel::compose_cold_shared`], over borrowed patterns). Every
//! price is bit-identical to pricing each trial batch with
//! [`CostModel::batch_cost_shared`].

use gcm_core::{CostModel, CostReport, Pattern, Region};
use gcm_workload::TenantClass;

/// Per-tenant-class SLO budgets: the wall-clock sojourn (arrival →
/// response) each class is allowed before the service would rather
/// fail fast than serve late. The shed pass
/// ([`crate::QueryService::next_batch_at`]) projects every queued
/// query's sojourn through the ⊙-priced drain rate and sheds the ones
/// whose projection overruns their class budget — low-priority classes
/// first, since the walk keeps work in [`TenantClass::priority`]
/// order and each kept query pushes the projection of everything
/// behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Budget for [`TenantClass::PointLookup`], ns.
    pub point_lookup_ns: f64,
    /// Budget for [`TenantClass::ScanHeavy`], ns.
    pub scan_heavy_ns: f64,
    /// Budget for [`TenantClass::JoinHeavy`], ns.
    pub join_heavy_ns: f64,
}

impl SloPolicy {
    /// The same budget for every class.
    pub fn uniform(budget_ns: f64) -> SloPolicy {
        SloPolicy {
            point_lookup_ns: budget_ns,
            scan_heavy_ns: budget_ns,
            join_heavy_ns: budget_ns,
        }
    }

    /// The budget for one class, ns.
    pub fn budget_ns(&self, class: TenantClass) -> f64 {
        match class {
            TenantClass::PointLookup => self.point_lookup_ns,
            TenantClass::ScanHeavy => self.scan_heavy_ns,
            TenantClass::JoinHeavy => self.join_heavy_ns,
        }
    }
}

/// One pending query, as the admission controller sees it: the
/// pattern it will run, its solo memory price per level, and its predicted CPU
/// time (Eq 6.1's `T_cpu`, which concurrency cannot change — every
/// query runs on its own core).
#[derive(Debug, Clone)]
pub(crate) struct Candidate<'a> {
    /// The query's serving pattern (the planned whole-plan pattern with
    /// its shared build phases stripped).
    pub(crate) pattern: &'a Pattern,
    /// `pattern` priced alone from cold caches — taken once, when the
    /// query was submitted.
    pub(crate) solo: &'a CostReport,
    /// Predicted CPU time, ns.
    pub(crate) cpu_ns: f64,
}

/// The charge for putting one executor thread to work on a member
/// (queueing the job, waking a parked worker, and handing the result
/// back through the completion queue), in nanoseconds — what keeps
/// admission from batching queries too small to amortise it. The
/// simulator's measured batch wall carries the same charge
/// ([`QueryService::execute_batch`](crate::QueryService::execute_batch)).
pub(crate) const DEFAULT_DISPATCH_NS: f64 = 25_000.0;

/// What admission predicts for a batch.
#[derive(Debug, Clone)]
pub(crate) struct BatchPrice {
    /// Predicted elapsed time of the batch: slowest member's
    /// `⊙`-composed memory time plus CPU, plus dispatch, ns.
    pub(crate) wall_ns: f64,
    /// Predicted elapsed time of running the members one after the
    /// other instead, ns.
    pub(crate) serial_ns: f64,
    /// Per-member predicted time inside the batch (composed memory +
    /// CPU), ns — the per-query latency forecast.
    pub(crate) per_query_ns: Vec<f64>,
}

impl BatchPrice {
    /// Predicted speedup of the batch over serial execution (≥ 1 for
    /// any batch the controller forms; exactly 1 for singletons).
    pub(crate) fn speedup(&self) -> f64 {
        if self.wall_ns > 0.0 {
            self.serial_ns / self.wall_ns
        } else {
            1.0
        }
    }

    /// Price a forming batch of `members`: `⊙`-composed per-query memory
    /// plus each member's CPU, the wall as the slowest member plus
    /// dispatch, and the serial fallback as the sum of solo times. A
    /// singleton's memory inside its batch *is* its solo price, so only
    /// a batch of two or more is composed, and only at its shared levels.
    fn of(model: &CostModel, members: &[Candidate<'_>], shared: &[&Region]) -> BatchPrice {
        let mems: Vec<f64> = if let [only] = members {
            vec![only.solo.mem_ns]
        } else {
            let solos = members.iter().map(|m| (m.pattern, m.solo));
            model
                .compose_cold_shared(solos, shared.iter().copied())
                .per_thread_ns
        };
        let per_query_ns: Vec<f64> = mems
            .iter()
            .zip(members)
            .map(|(mem, m)| mem + m.cpu_ns)
            .collect();
        let wall_ns = per_query_ns.iter().copied().fold(0.0, f64::max)
            + DEFAULT_DISPATCH_NS * members.len() as f64;
        let serial_ns = members
            .iter()
            .map(|m| m.solo.mem_ns + m.cpu_ns + DEFAULT_DISPATCH_NS)
            .sum();
        BatchPrice {
            wall_ns,
            serial_ns,
            per_query_ns,
        }
    }
}

/// Greedily form the next batch of at most `max_batch` members (the
/// machine's core budget; 0 counts as 1) from `candidates` (the
/// pending queue in the order to consider it). Returns the admitted
/// indices into `candidates`, in admission order — the first candidate
/// is always admitted (a singleton batch *is* serial execution) — and
/// the batch's price; `None` on an empty queue. `shared` lists the
/// canonical regions of data candidates may *share* (immutable build
/// sides from the [`BuildRegistry`](crate::builds::BuildRegistry)):
/// pricing counts each such region once across the forming batch
/// (Eq 5.3 with shared data), so two queries probing the same build
/// look as cheap together as the composition they actually are. Pass
/// `&[]` when nothing is shared.
pub(crate) fn next_batch(
    model: &CostModel,
    candidates: &[Candidate<'_>],
    max_batch: usize,
    shared: &[&Region],
) -> Option<(Vec<usize>, BatchPrice)> {
    let head = candidates.first()?;
    let max_batch = max_batch.max(1);
    // The forming batch, grown in place: a trial pushes the candidate
    // (popped again on rejection) and composes the borrowed patterns.
    let mut members = vec![head.clone()];
    let mut admitted = vec![0usize];
    let mut price = BatchPrice::of(model, &members, shared);
    for (idx, cand) in candidates.iter().enumerate().skip(1) {
        if members.len() >= max_batch {
            break;
        }
        members.push(cand.clone());
        let trial = BatchPrice::of(model, &members, shared);
        // solo(q): the candidate's own serial contribution is the
        // difference of the serial sums (solo mem + cpu + dispatch).
        let solo = trial.serial_ns - price.serial_ns;
        if trial.wall_ns < price.wall_ns + solo {
            admitted.push(idx);
            price = trial;
        } else {
            members.pop();
        }
    }
    Some((admitted, price))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_core::{CacheState, Region};
    use gcm_hardware::presets;

    /// Each pattern's solo price, taken the way submit takes it.
    fn solos(model: &CostModel, patterns: &[Pattern]) -> Vec<CostReport> {
        patterns.iter().map(|p| model.report(p)).collect()
    }

    /// A candidate per pattern, with its solo price from `solos` and its
    /// CPU time from `cpu_ns`.
    fn candidates<'a>(
        patterns: &'a [Pattern],
        solos: &'a [CostReport],
        mut cpu_ns: impl FnMut() -> f64,
    ) -> Vec<Candidate<'a>> {
        patterns
            .iter()
            .zip(solos)
            .map(|(pattern, solo)| Candidate {
                pattern,
                solo,
                cpu_ns: cpu_ns(),
            })
            .collect()
    }

    /// `next_batch` priced the plain way, every trial batch through
    /// [`CostModel::batch_cost_shared`], fed the candidates' stored solo
    /// prices: the reference the composition-only pricing must match
    /// bit for bit. Each stored solo price must also be, to the bit, the
    /// solo price the batch reference computes itself.
    fn next_batch_reference(
        model: &CostModel,
        candidates: &[Candidate<'_>],
        max_batch: usize,
        shared: &[&Region],
    ) -> Option<(Vec<usize>, BatchPrice)> {
        let price = |members: &[&Candidate<'_>]| {
            let patterns: Vec<Pattern> = members.iter().map(|c| c.pattern.clone()).collect();
            let shared: Vec<Region> = shared.iter().map(|&r| r.clone()).collect();
            let batch = model.batch_cost_shared(&patterns, &CacheState::cold(), &shared);
            for (solo, c) in batch.solo_ns.iter().zip(members) {
                assert_eq!(solo.to_bits(), c.solo.mem_ns.to_bits(), "stored solo price");
            }
            let per_query_ns: Vec<f64> = batch
                .per_query_ns
                .iter()
                .zip(members)
                .map(|(mem, c)| mem + c.cpu_ns)
                .collect();
            let wall_ns = per_query_ns.iter().copied().fold(0.0, f64::max)
                + DEFAULT_DISPATCH_NS * members.len() as f64;
            let serial_ns: f64 = members
                .iter()
                .map(|c| c.solo.mem_ns + c.cpu_ns + DEFAULT_DISPATCH_NS)
                .sum();
            BatchPrice {
                wall_ns,
                serial_ns,
                per_query_ns,
            }
        };
        let head = candidates.first()?;
        let max_batch = max_batch.max(1);
        let mut members = vec![head];
        let mut admitted = vec![0usize];
        let mut best = price(&members);
        for (idx, cand) in candidates.iter().enumerate().skip(1) {
            if members.len() >= max_batch {
                break;
            }
            members.push(cand);
            let trial = price(&members);
            if trial.wall_ns < best.wall_ns + (trial.serial_ns - best.serial_ns) {
                admitted.push(idx);
                best = trial;
            } else {
                members.pop();
            }
        }
        Some((admitted, best))
    }

    #[test]
    fn solo_prices_taken_once_match_the_batch_cost_reference() {
        // Seeded mixes of streaming, repeated-random and probe patterns,
        // the probes over one build `h` that is declared shared or not:
        // every decision and every price must equal the reference's to
        // the bit.
        let model = CostModel::new(presets::tiny_smp(4));
        let h = Region::new("H", 1_500, 8);
        let mut rng = gcm_workload::rng::SplitMix64::new(40);
        let mut admitted_pairs = 0;
        for case in 0..48 {
            let patterns: Vec<Pattern> = (0..1 + rng.next_below(6))
                .map(|i| {
                    let n = 500 + rng.next_below(4_000);
                    let r = Region::new(format!("Q{case}.{i}"), n, 8);
                    match rng.next_below(3) {
                        0 => Pattern::s_trav(r),
                        1 => Pattern::rr_trav(r, 1 + rng.next_below(8), 64),
                        _ => Pattern::conc(vec![
                            Pattern::s_trav(r),
                            Pattern::r_acc(h.clone(), 1_000 + rng.next_below(200_000)),
                        ]),
                    }
                })
                .collect();
            let solos = solos(&model, &patterns);
            let candidates = candidates(&patterns, &solos, || rng.next_below(20_000) as f64);
            for shared in [&[][..], &[&h]] {
                for max_batch in 1..=4 {
                    let got = next_batch(&model, &candidates, max_batch, shared).unwrap();
                    let want =
                        next_batch_reference(&model, &candidates, max_batch, shared).unwrap();
                    let ctx = format!("case {case}, max_batch {max_batch}, shared {shared:?}");
                    assert_eq!(got.0, want.0, "{ctx}");
                    let bits = |p: &BatchPrice| {
                        let per: Vec<u64> = p.per_query_ns.iter().map(|x| x.to_bits()).collect();
                        (p.wall_ns.to_bits(), p.serial_ns.to_bits(), per)
                    };
                    assert_eq!(bits(&got.1), bits(&want.1), "{ctx}");
                    admitted_pairs += usize::from(got.0.len() > 1);
                }
            }
        }
        assert!(admitted_pairs > 0, "no mix formed a batch");
    }

    #[test]
    fn slo_policy_budgets_per_class() {
        let slo = SloPolicy {
            point_lookup_ns: 1_000.0,
            scan_heavy_ns: 2_000.0,
            join_heavy_ns: 3_000.0,
        };
        assert_eq!(slo.budget_ns(TenantClass::PointLookup), 1_000.0);
        assert_eq!(slo.budget_ns(TenantClass::ScanHeavy), 2_000.0);
        assert_eq!(slo.budget_ns(TenantClass::JoinHeavy), 3_000.0);
        let u = SloPolicy::uniform(500.0);
        for c in TenantClass::ALL {
            assert_eq!(u.budget_ns(c), 500.0);
        }
    }

    #[test]
    fn empty_queue_has_no_batch() {
        let model = CostModel::new(presets::tiny_smp(4));
        assert!(next_batch(&model, &[], 4, &[]).is_none());
    }

    #[test]
    fn streaming_queries_batch_to_the_core_budget() {
        let model = CostModel::new(presets::tiny_smp(4));
        let patterns: Vec<Pattern> = (0..6)
            .map(|i| Pattern::s_trav(Region::new(format!("Q{i}"), 100_000, 8)))
            .collect();
        let solos = solos(&model, &patterns);
        let candidates = candidates(&patterns, &solos, || 10_000.0);
        let (admitted, price) = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert_eq!(admitted, vec![0, 1, 2, 3], "core budget caps at 4");
        assert!(price.speedup() > 2.0, "{}", price.speedup());
        assert!(price.wall_ns < price.serial_ns);
        assert_eq!(price.per_query_ns.len(), 4);
    }

    #[test]
    fn contending_pair_backs_off_to_serial() {
        // Two repeated random traversals that each fit the shared L2
        // alone but thrash composed: the second must be rejected.
        let model = CostModel::new(presets::tiny_smp(4));
        let patterns: Vec<Pattern> = (0..2)
            .map(|i| Pattern::rr_trav(Region::new(format!("Q{i}"), 1_500, 8), 8, 64))
            .collect();
        let solos = solos(&model, &patterns);
        let candidates = candidates(&patterns, &solos, || 0.0);
        let (admitted, _) = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert_eq!(admitted, vec![0], "contending pair must serialize");
    }

    #[test]
    fn declared_sharing_admits_a_pair_that_would_otherwise_serialize() {
        // Two probe patterns over ONE table region that fits the shared
        // L2 once but not twice. Priced as private data, the pair
        // serializes; declared shared (one immutable build both probe),
        // the composition is admitted.
        let model = CostModel::new(presets::tiny_smp(4));
        let h = Region::new("H", 1_500, 8);
        let patterns: Vec<Pattern> = (0..2)
            .map(|i| {
                Pattern::conc(vec![
                    Pattern::s_trav(Region::new(format!("U{i}"), 2_000, 8)),
                    Pattern::r_acc(h.clone(), 200_000),
                ])
            })
            .collect();
        let solos = solos(&model, &patterns);
        let candidates = candidates(&patterns, &solos, || 0.0);
        let (private, _) = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert_eq!(private, vec![0], "private builds must serialize");
        let (shared, price) = next_batch(&model, &candidates, 4, &[&h]).unwrap();
        assert_eq!(shared, vec![0, 1], "shared build must batch");
        assert!(price.speedup() > 1.0);
    }

    #[test]
    fn rejected_candidate_does_not_block_later_ones() {
        // A contending twin of the head sits between two streaming
        // queries: it is skipped, the streamers are admitted around it.
        let model = CostModel::new(presets::tiny_smp(4));
        let head = Pattern::rr_trav(Region::new("H", 1_500, 8), 8, 64);
        let twin = Pattern::rr_trav(Region::new("T", 1_500, 8), 8, 64);
        let stream_a = Pattern::s_trav(Region::new("A", 100_000, 8));
        let stream_b = Pattern::s_trav(Region::new("B", 100_000, 8));
        let patterns = [head, twin, stream_a, stream_b];
        let solos = solos(&model, &patterns);
        let candidates = candidates(&patterns, &solos, || 0.0);
        let (admitted, _) = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert!(admitted.contains(&0));
        assert!(!admitted.contains(&1), "twin must be skipped");
        assert!(admitted.contains(&2) && admitted.contains(&3));
    }

    #[test]
    fn singleton_batch_prices_as_serial_execution() {
        // One candidate: the batch *is* serial execution, so the wall
        // equals the serial fallback and the speedup is exactly 1.
        let model = CostModel::new(presets::tiny_smp(4));
        let patterns = [
            Pattern::s_trav(Region::new("Q", 10_000, 8)),
            Pattern::s_trav(Region::new("R", 10_000, 8)),
        ];
        let solos = solos(&model, &patterns);
        let one = candidates(&patterns[..1], &solos, || 5_000.0);
        let (admitted, price) = next_batch(&model, &one, 4, &[]).unwrap();
        assert_eq!(admitted, vec![0]);
        assert!((price.wall_ns - price.serial_ns).abs() < 1e-9);
        assert!((price.speedup() - 1.0).abs() < 1e-9);
        // max_batch 1 degenerates to pure serial scheduling.
        let two = candidates(&patterns, &solos, || 0.0);
        let (admitted, _) = next_batch(&model, &two, 1, &[]).unwrap();
        assert_eq!(admitted, vec![0]);
    }
}
