//! The plan cache: memoized optimizer output, keyed by (logical-plan
//! fingerprint, statistics epoch).
//!
//! A serving workload sees the same parameterised plan shapes over and
//! over, and whole-plan optimization (beam search over join algorithms
//! and partition fan-outs) is the expensive step — so the service memoizes
//! [`optimize_and_lower`](gcm_engine::plan::optimize_and_lower) per
//! key. The epoch half of the key comes from
//! [`StatsCatalog`](gcm_engine::plan::StatsCatalog): when statistics
//! drift past the threshold the epoch bumps, every old key becomes
//! unreachable, and the next lookup re-optimizes against the fresh
//! statistics.
//!
//! An entry also memoizes the form its plan is *served* in: the
//! planned pattern with the shared builds a submit was offered attached,
//! its cold solo price per level, and its CPU term. A hit offered the
//! same builds (by identity) takes that form as it is, pricing nothing;
//! a retired or rebuilt build, a new epoch's entry, the first requester
//! of a build (which keeps its build phase) and a fingerprint-collision
//! loser are served a fresh form.
//!
//! The cache is a plain [`HashMap`] with plain counters, changed
//! through `&mut self`: its one owner is the
//! [`QueryService`](crate::QueryService), and the thread that owns the
//! service is the only one that submits, so lookups need no lock and no
//! single-flight (DESIGN.md, "Owned maps on the serving path").

use crate::builds::SharedBuild;
use crate::Serving;
use gcm_engine::plan::{LogicalPlan, PlanError, PlannedQuery};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// A plan-cache key: the logical plan's structural fingerprint
/// ([`LogicalPlan::fingerprint`](gcm_engine::plan::LogicalPlan::fingerprint))
/// paired with the statistics epoch it was optimized under.
pub type PlanKey = (u64, u64);

/// A memo table from [`PlanKey`] to optimized plans (or the error the
/// optimizer returned), each stored with the logical plan it answers and,
/// once a submit has attached its shared builds, the form it is served
/// in.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: HashMap<PlanKey, CacheEntry>,
    hits: u64,
    misses: u64,
    retired: u64,
}

#[derive(Debug)]
struct CacheEntry {
    plan: LogicalPlan,
    planned: Result<Arc<PlannedQuery>, PlanError>,
    serving: Option<ServingMemo>,
}

/// A plan's serving form, memoized in its plan-cache entry with the
/// shared builds the submit that formed it was offered. A later submit
/// offered the very same builds (`Arc::ptr_eq`, in the same order)
/// serves the same form; any other offer forms it afresh.
#[derive(Debug)]
pub(crate) struct ServingMemo {
    /// The builds the form was made against. Holding them keeps their
    /// addresses from being reused while the memo can match.
    pub(crate) offered: Vec<Arc<SharedBuild>>,
    pub(crate) serving: Arc<Serving>,
}

impl ServingMemo {
    /// The memoized form, if it was made against exactly `offered`.
    pub(crate) fn serving_for(&self, offered: &[Arc<SharedBuild>]) -> Option<&Arc<Serving>> {
        let same = self.offered.len() == offered.len()
            && self
                .offered
                .iter()
                .zip(offered)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        same.then_some(&self.serving)
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Look `key` up, running `optimize` to fill the entry on a miss.
    /// Errors are cached too (a plan that cannot be optimized under this
    /// epoch's statistics will not be re-attempted until the epoch
    /// moves).
    ///
    /// `plan` is the logical plan the key's fingerprint half was
    /// computed from; the entry stores it, and a hit whose stored plan
    /// differs (a 64-bit fingerprint collision) falls back to a fresh,
    /// uncached optimization instead of silently returning the wrong
    /// plan.
    pub fn get_or_optimize(
        &mut self,
        key: PlanKey,
        plan: &LogicalPlan,
        optimize: impl FnOnce() -> Result<PlannedQuery, PlanError>,
    ) -> Result<Arc<PlannedQuery>, PlanError> {
        self.lookup(key, plan, optimize).map(|(planned, _)| planned)
    }

    /// [`get_or_optimize`](PlanCache::get_or_optimize), also handing back
    /// the entry's serving-form memo slot — `None` for a
    /// fingerprint-collision loser, whose plan has no entry and so is
    /// never memoized.
    pub(crate) fn lookup(
        &mut self,
        key: PlanKey,
        plan: &LogicalPlan,
        optimize: impl FnOnce() -> Result<PlannedQuery, PlanError>,
    ) -> Result<(Arc<PlannedQuery>, Option<&mut Option<ServingMemo>>), PlanError> {
        let entry = match self.entries.entry(key) {
            Entry::Occupied(e) if e.get().plan == *plan => {
                self.hits += 1;
                e.into_mut()
            }
            Entry::Occupied(_) => {
                // Fingerprint collision: two distinct trees share the
                // key. Serve the loser uncached — correctness over
                // memoization.
                self.misses += 1;
                return optimize().map(|planned| (Arc::new(planned), None));
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                v.insert(CacheEntry {
                    plan: plan.clone(),
                    planned: optimize().map(Arc::new),
                    serving: None,
                })
            }
        };
        let planned = entry.planned.clone()?;
        Ok((planned, Some(&mut entry.serving)))
    }

    /// Drop every entry whose epoch predates `epoch`. Called after a
    /// stats-drift epoch bump: the stale keys can never be looked up
    /// again, so this only bounds memory, it is not needed for
    /// correctness.
    pub fn retire_epochs_before(&mut self, epoch: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, e), _| *e >= epoch);
        let removed = before - self.entries.len();
        self.retired += removed as u64;
        removed
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to optimize.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Times the optimizer ran. Every miss runs it exactly once, so
    /// this equals [`PlanCache::misses`].
    pub fn optimizer_runs(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by [`PlanCache::retire_epochs_before`] so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_core::CostModel;
    use gcm_engine::plan::{optimize_and_lower, LogicalPlan, TableStats};
    use gcm_hardware::presets;

    fn setup() -> (CostModel, LogicalPlan, Vec<TableStats>) {
        let model = CostModel::new(presets::tiny());
        let plan = LogicalPlan::scan(0)
            .select_lt(100)
            .join(LogicalPlan::scan(1));
        let stats = vec![
            TableStats::uniform(2_000, 8, 400, false),
            TableStats::key_column(400, 8, false),
        ];
        (model, plan, stats)
    }

    #[test]
    fn second_lookup_hits_and_returns_the_same_plan() {
        let (model, plan, stats) = setup();
        let mut cache = PlanCache::new();
        let key = (plan.fingerprint(), 0);
        let a = cache
            .get_or_optimize(key, &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        let b = cache
            .get_or_optimize(key, &plan, || panic!("must not re-optimize"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.optimizer_runs(), 1);
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let (model, plan, stats) = setup();
        let mut cache = PlanCache::new();
        let f = plan.fingerprint();
        cache
            .get_or_optimize((f, 0), &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        // A new epoch misses even though the fingerprint matches.
        cache
            .get_or_optimize((f, 1), &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        assert_eq!(cache.optimizer_runs(), 2);
        assert_eq!(cache.len(), 2);
        // Retiring the old epoch drops exactly one entry.
        assert_eq!(cache.retire_epochs_before(1), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.retired(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn errors_are_cached_per_epoch() {
        let (model, _, stats) = setup();
        let mut cache = PlanCache::new();
        let bad = LogicalPlan::scan(9);
        let key = (bad.fingerprint(), 0);
        let err = cache
            .get_or_optimize(key, &bad, || optimize_and_lower(&model, &bad, &stats))
            .unwrap_err();
        assert!(matches!(err, PlanError::UnknownTable { table: 9, .. }));
        // The second lookup returns the cached error without running.
        let again = cache
            .get_or_optimize(key, &bad, || panic!("must not re-optimize"))
            .unwrap_err();
        assert_eq!(err, again);
        assert_eq!(cache.optimizer_runs(), 1);
    }

    #[test]
    fn fingerprint_collisions_are_served_uncached() {
        // Force a "collision" by looking a different tree up under an
        // occupied key: the cache must notice the stored plan differs
        // and optimize the loser fresh instead of returning the wrong
        // plan.
        let (model, plan, stats) = setup();
        let mut cache = PlanCache::new();
        let key = (plan.fingerprint(), 0);
        cache
            .get_or_optimize(key, &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        let other = LogicalPlan::scan(0)
            .select_lt(999)
            .join(LogicalPlan::scan(1));
        let got = cache
            .get_or_optimize(key, &other, || optimize_and_lower(&model, &other, &stats))
            .unwrap();
        let fresh = optimize_and_lower(&model, &other, &stats).unwrap();
        assert_eq!(got.plan, fresh.plan, "loser must get its own plan");
        assert_eq!(cache.optimizer_runs(), 2);
        assert_eq!(cache.hits(), 0);
        // The winner's entry is untouched.
        cache
            .get_or_optimize(key, &plan, || panic!("winner stays cached"))
            .unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn retired_keys_reoptimize_and_survivors_keep_hitting() {
        // A retire drops the old epoch's key and leaves the new one.
        let (model, plan, stats) = setup();
        let mut cache = PlanCache::new();
        let old_key = (plan.fingerprint(), 0);
        let new_key = (plan.fingerprint(), 1);
        cache
            .get_or_optimize(old_key, &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        cache
            .get_or_optimize(new_key, &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        assert_eq!(cache.retire_epochs_before(1), 1);
        // The retired key misses (and re-optimizes) rather than erroring.
        cache
            .get_or_optimize(old_key, &plan, || optimize_and_lower(&model, &plan, &stats))
            .unwrap();
        assert_eq!(cache.optimizer_runs(), 3);
        // The surviving key still hits.
        cache
            .get_or_optimize(new_key, &plan, || panic!("survivor stays cached"))
            .unwrap();
        assert_eq!(cache.hits(), 1);
    }
}
