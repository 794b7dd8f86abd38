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
//! Each pattern is priced once per formation: every candidate the
//! greedy walk reaches gets its cold solo price once, and each trial
//! batch of two or more members one `⊙` composition
//! ([`CostModel::advance_parallel_shared`]). A singleton's in-batch
//! memory time is its solo price, so the head of the queue costs one
//! evaluation. Every price is bit-identical to pricing each trial batch
//! with [`CostModel::batch_cost_shared`].

use gcm_core::{CacheState, CostModel, Pattern, Region};
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

/// One pending query, as the admission controller sees it: its
/// whole-plan compound pattern plus its predicted CPU time (Eq 6.1's
/// `T_cpu`, which concurrency cannot change — every query runs on its
/// own core).
#[derive(Debug, Clone)]
pub struct Candidate<'a> {
    /// The query's whole-plan pattern (from the cached
    /// [`PlannedQuery`](gcm_engine::plan::PlannedQuery)).
    pub pattern: &'a Pattern,
    /// Predicted CPU time, ns.
    pub cpu_ns: f64,
}

/// The charge for putting one executor thread to work on a member
/// (queueing the job, waking a parked worker, and handing the result
/// back through the completion queue), in nanoseconds — what keeps
/// admission from batching queries too small to amortise it. The
/// simulator's measured batch wall carries the same charge
/// ([`QueryService::execute_batch`](crate::QueryService::execute_batch)).
pub(crate) const DEFAULT_DISPATCH_NS: f64 = 25_000.0;

/// The scheduler's verdict for one batch: which candidates (by index)
/// run together, and the prices the decision was based on.
#[derive(Debug, Clone)]
pub struct BatchDecision {
    /// Indices into the candidate slice, in admission order. The first
    /// candidate is always admitted (a singleton batch *is* serial
    /// execution).
    pub admitted: Vec<usize>,
    /// Predicted elapsed time of the batch: slowest member's
    /// `⊙`-composed memory time plus CPU, plus dispatch, ns.
    pub predicted_wall_ns: f64,
    /// Predicted elapsed time of running the admitted members one
    /// after the other instead, ns.
    pub predicted_serial_ns: f64,
    /// Per-admitted-member predicted time inside the batch (composed
    /// memory + CPU), ns — the per-query latency forecast.
    pub per_query_ns: Vec<f64>,
}

impl BatchDecision {
    /// Predicted speedup of the batch over serial execution (≥ 1 for
    /// any batch the controller forms; exactly 1 for singletons).
    pub fn predicted_speedup(&self) -> f64 {
        if self.predicted_wall_ns > 0.0 {
            self.predicted_serial_ns / self.predicted_wall_ns
        } else {
            1.0
        }
    }
}

/// Price a forming batch: `⊙`-composed per-query memory plus each
/// member's CPU, the wall as the slowest member plus dispatch, and the
/// serial fallback as the sum of solo times. `solos` holds each
/// member's cold solo memory price. A singleton's memory inside its
/// batch *is* its solo price, so only a batch of two or more is
/// composed.
fn price(
    model: &CostModel,
    patterns: &[Pattern],
    solos: &[f64],
    cpus: &[f64],
    shared: &[Region],
) -> (f64, f64, Vec<f64>) {
    let mems = if patterns.len() == 1 {
        solos.to_vec()
    } else {
        let mut cold = model.staged(&CacheState::cold());
        model
            .advance_parallel_shared(patterns, &mut cold, shared)
            .per_thread_ns
    };
    let per_query: Vec<f64> = mems.iter().zip(cpus).map(|(mem, cpu)| mem + cpu).collect();
    let wall =
        per_query.iter().copied().fold(0.0, f64::max) + DEFAULT_DISPATCH_NS * patterns.len() as f64;
    let serial = solos
        .iter()
        .zip(cpus)
        .map(|(mem, cpu)| mem + cpu + DEFAULT_DISPATCH_NS)
        .sum();
    (wall, serial, per_query)
}

/// A candidate's cold solo memory price: its time running alone on one
/// worker.
fn solo_mem(model: &CostModel, pattern: &Pattern) -> f64 {
    model.report_from(pattern, &CacheState::cold()).mem_ns
}

/// Greedily form the next batch of at most `max_batch` members (the
/// machine's core budget; 0 counts as 1) from `candidates` (the
/// pending queue in arrival order). Returns `None` on an empty queue.
/// `shared` lists the canonical regions of data candidates may *share* (immutable build
/// sides from the [`BuildRegistry`](crate::builds::BuildRegistry)):
/// pricing counts each such region once across the forming batch
/// (Eq 5.3 with shared data), so two queries probing the same build
/// look as cheap together as the composition they actually are. Pass
/// `&[]` when nothing is shared.
pub fn next_batch(
    model: &CostModel,
    candidates: &[Candidate<'_>],
    max_batch: usize,
    shared: &[Region],
) -> Option<BatchDecision> {
    if candidates.is_empty() {
        return None;
    }
    let max_batch = max_batch.max(1);
    // The forming batch, grown in place: each trial clones only the
    // candidate's pattern and prices only its solo time (both popped
    // again on rejection), never the already-admitted members'.
    let mut patterns = vec![candidates[0].pattern.clone()];
    let mut solos = vec![solo_mem(model, candidates[0].pattern)];
    let mut cpus = vec![candidates[0].cpu_ns];
    let mut admitted = vec![0usize];
    let (mut wall, mut serial, mut per_query) = price(model, &patterns, &solos, &cpus, shared);
    for (idx, cand) in candidates.iter().enumerate().skip(1) {
        if patterns.len() >= max_batch {
            break;
        }
        patterns.push(cand.pattern.clone());
        solos.push(solo_mem(model, cand.pattern));
        cpus.push(cand.cpu_ns);
        let (t_wall, t_serial, t_per_query) = price(model, &patterns, &solos, &cpus, shared);
        // solo(q): the candidate's own serial contribution is the
        // difference of the serial sums (solo mem + cpu + dispatch).
        let solo = t_serial - serial;
        if t_wall < wall + solo {
            admitted.push(idx);
            (wall, serial, per_query) = (t_wall, t_serial, t_per_query);
        } else {
            patterns.pop();
            solos.pop();
            cpus.pop();
        }
    }
    Some(BatchDecision {
        admitted,
        predicted_wall_ns: wall,
        predicted_serial_ns: serial,
        per_query_ns: per_query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_core::Region;
    use gcm_hardware::presets;

    /// `next_batch` priced the plain way, every trial batch through
    /// [`CostModel::batch_cost_shared`] with its solo prices: the
    /// reference the solo-once pricing must match bit for bit.
    fn next_batch_reference(
        model: &CostModel,
        candidates: &[Candidate<'_>],
        max_batch: usize,
        shared: &[Region],
    ) -> Option<BatchDecision> {
        let price = |patterns: &[Pattern], cpus: &[f64]| {
            let batch = model.batch_cost_shared(patterns, &CacheState::cold(), shared);
            let per_query: Vec<f64> = batch
                .per_query_ns
                .iter()
                .zip(cpus)
                .map(|(mem, cpu)| mem + cpu)
                .collect();
            let wall = per_query.iter().copied().fold(0.0, f64::max)
                + DEFAULT_DISPATCH_NS * patterns.len() as f64;
            let serial: f64 = batch
                .solo_ns
                .iter()
                .zip(cpus)
                .map(|(mem, cpu)| mem + cpu + DEFAULT_DISPATCH_NS)
                .sum();
            (wall, serial, per_query)
        };
        if candidates.is_empty() {
            return None;
        }
        let max_batch = max_batch.max(1);
        let mut patterns = vec![candidates[0].pattern.clone()];
        let mut cpus = vec![candidates[0].cpu_ns];
        let mut admitted = vec![0usize];
        let (mut wall, mut serial, mut per_query) = price(&patterns, &cpus);
        for (idx, cand) in candidates.iter().enumerate().skip(1) {
            if patterns.len() >= max_batch {
                break;
            }
            patterns.push(cand.pattern.clone());
            cpus.push(cand.cpu_ns);
            let (t_wall, t_serial, t_per_query) = price(&patterns, &cpus);
            if t_wall < wall + (t_serial - serial) {
                admitted.push(idx);
                (wall, serial, per_query) = (t_wall, t_serial, t_per_query);
            } else {
                patterns.pop();
                cpus.pop();
            }
        }
        Some(BatchDecision {
            admitted,
            predicted_wall_ns: wall,
            predicted_serial_ns: serial,
            per_query_ns: per_query,
        })
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
            let candidates: Vec<Candidate<'_>> = patterns
                .iter()
                .map(|p| Candidate {
                    pattern: p,
                    cpu_ns: rng.next_below(20_000) as f64,
                })
                .collect();
            for shared in [&[][..], std::slice::from_ref(&h)] {
                for max_batch in 1..=4 {
                    let got = next_batch(&model, &candidates, max_batch, shared).unwrap();
                    let want =
                        next_batch_reference(&model, &candidates, max_batch, shared).unwrap();
                    let ctx = format!("case {case}, max_batch {max_batch}, shared {shared:?}");
                    assert_eq!(got.admitted, want.admitted, "{ctx}");
                    let bits = |d: &BatchDecision| {
                        let per: Vec<u64> = d.per_query_ns.iter().map(|x| x.to_bits()).collect();
                        (
                            d.predicted_wall_ns.to_bits(),
                            d.predicted_serial_ns.to_bits(),
                            per,
                        )
                    };
                    assert_eq!(bits(&got), bits(&want), "{ctx}");
                    admitted_pairs += usize::from(got.admitted.len() > 1);
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
        let candidates: Vec<Candidate<'_>> = patterns
            .iter()
            .map(|p| Candidate {
                pattern: p,
                cpu_ns: 10_000.0,
            })
            .collect();
        let d = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert_eq!(d.admitted, vec![0, 1, 2, 3], "core budget caps at 4");
        assert!(d.predicted_speedup() > 2.0, "{}", d.predicted_speedup());
        assert!(d.predicted_wall_ns < d.predicted_serial_ns);
        assert_eq!(d.per_query_ns.len(), 4);
    }

    #[test]
    fn contending_pair_backs_off_to_serial() {
        // Two repeated random traversals that each fit the shared L2
        // alone but thrash composed: the second must be rejected.
        let model = CostModel::new(presets::tiny_smp(4));
        let patterns: Vec<Pattern> = (0..2)
            .map(|i| Pattern::rr_trav(Region::new(format!("Q{i}"), 1_500, 8), 8, 64))
            .collect();
        let candidates: Vec<Candidate<'_>> = patterns
            .iter()
            .map(|p| Candidate {
                pattern: p,
                cpu_ns: 0.0,
            })
            .collect();
        let d = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert_eq!(d.admitted, vec![0], "contending pair must serialize");
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
        let candidates: Vec<Candidate<'_>> = patterns
            .iter()
            .map(|p| Candidate {
                pattern: p,
                cpu_ns: 0.0,
            })
            .collect();
        let private = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert_eq!(private.admitted, vec![0], "private builds must serialize");
        let shared = next_batch(&model, &candidates, 4, &[h]).unwrap();
        assert_eq!(shared.admitted, vec![0, 1], "shared build must batch");
        assert!(shared.predicted_speedup() > 1.0);
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
        let candidates: Vec<Candidate<'_>> = patterns
            .iter()
            .map(|p| Candidate {
                pattern: p,
                cpu_ns: 0.0,
            })
            .collect();
        let d = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert!(d.admitted.contains(&0));
        assert!(!d.admitted.contains(&1), "twin must be skipped");
        assert!(d.admitted.contains(&2) && d.admitted.contains(&3));
    }

    #[test]
    fn singleton_batch_prices_as_serial_execution() {
        // One candidate: the batch *is* serial execution, so the wall
        // equals the serial fallback and the speedup is exactly 1.
        let model = CostModel::new(presets::tiny_smp(4));
        let p = Pattern::s_trav(Region::new("Q", 10_000, 8));
        let candidates = [Candidate {
            pattern: &p,
            cpu_ns: 5_000.0,
        }];
        let d = next_batch(&model, &candidates, 4, &[]).unwrap();
        assert_eq!(d.admitted, vec![0]);
        assert!((d.predicted_wall_ns - d.predicted_serial_ns).abs() < 1e-9);
        assert!((d.predicted_speedup() - 1.0).abs() < 1e-9);
        // max_batch 1 degenerates to pure serial scheduling.
        let p2 = Pattern::s_trav(Region::new("R", 10_000, 8));
        let two = [
            Candidate {
                pattern: &p,
                cpu_ns: 0.0,
            },
            Candidate {
                pattern: &p2,
                cpu_ns: 0.0,
            },
        ];
        let d1 = next_batch(&model, &two, 1, &[]).unwrap();
        assert_eq!(d1.admitted, vec![0]);
    }
}
