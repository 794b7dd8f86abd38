//! The plan cache: memoized optimizer output, keyed by (logical-plan
//! fingerprint, statistics epoch).
//!
//! A serving workload sees the same parameterised plan shapes over and
//! over, and whole-plan optimization (beam search over join algorithms,
//! fan-outs, and DOPs) is the expensive step — so the service memoizes
//! [`optimize_and_lower`](gcm_engine::plan::optimize_and_lower) per
//! key. The epoch half of the key comes from
//! [`StatsCatalog`](gcm_engine::plan::StatsCatalog): when statistics
//! drift past the threshold the epoch bumps, every old key becomes
//! unreachable, and the next lookup re-optimizes against the fresh
//! statistics.
//!
//! Entries live in a [`gcm_trie::TrieMap`]: a hit is a snapshot read
//! that takes no lock, while a miss takes the trie's writer path once to
//! install a per-key [`OnceLock`] slot. The slot guarantees that many
//! threads racing on one key run the optimizer **once** and everyone
//! else blocks until the winner's result is published — never a
//! deadlock, never a duplicated optimization (asserted by the
//! [`PlanCache::optimizer_runs`] counter in the property tests). The
//! only production caller today is the single thread that owns the
//! [`QueryService`](crate::QueryService); the trie is kept because
//! [`StatsCatalog`](gcm_engine::plan::StatsCatalog) needs its consistent
//! snapshots anyway and a second container type would be more code, not
//! because lookups were measured to contend (DESIGN.md, "Snapshot reads
//! on the serving path").

use gcm_engine::plan::{LogicalPlan, PlanError, PlannedQuery};
use gcm_trie::TrieMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A plan-cache key: the logical plan's structural fingerprint
/// ([`LogicalPlan::fingerprint`](gcm_engine::plan::LogicalPlan::fingerprint))
/// paired with the statistics epoch it was optimized under.
pub type PlanKey = (u64, u64);

type Slot = Arc<OnceLock<(LogicalPlan, Result<Arc<PlannedQuery>, PlanError>)>>;

/// A concurrent memo table from [`PlanKey`] to optimized plans, with
/// wait-free hit-path lookups over trie snapshots.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: TrieMap<PlanKey, Slot>,
    hits: AtomicU64,
    misses: AtomicU64,
    optimizer_runs: AtomicU64,
    retired: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Look `key` up, running `optimize` to fill the entry on a miss.
    /// Concurrent callers of the same key never run `optimize` twice:
    /// one thread optimizes, the rest block on the slot and share the
    /// result. Errors are cached too (a plan that cannot be optimized
    /// under this epoch's statistics will not be re-attempted until the
    /// epoch moves).
    ///
    /// `plan` is the logical plan the key's fingerprint half was
    /// computed from; the entry stores it, and a hit whose stored plan
    /// differs (a 64-bit fingerprint collision) falls back to a fresh,
    /// uncached optimization instead of silently returning the wrong
    /// plan.
    pub fn get_or_optimize(
        &self,
        key: PlanKey,
        plan: &LogicalPlan,
        optimize: impl FnOnce() -> Result<PlannedQuery, PlanError>,
    ) -> Result<Arc<PlannedQuery>, PlanError> {
        // Hit path: a wait-free snapshot read, no lock anywhere. Only a
        // vacant key takes the trie's writer path to install its slot.
        let slot: Slot = match self.entries.snapshot().get(&key) {
            Some(slot) => slot.clone(),
            None => self.entries.get_or_insert_with(key, Slot::default),
        };
        // No trie lock is held while optimizing: a long optimization
        // must never serialize lookups or installs of other keys.
        let mut optimize = Some(optimize);
        let mut ran = false;
        let (stored, result) = slot.get_or_init(|| {
            ran = true;
            self.optimizer_runs.fetch_add(1, Ordering::Relaxed);
            let f = optimize.take().expect("init closure runs once");
            (plan.clone(), f().map(Arc::new))
        });
        if ran {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else if stored != plan {
            // Fingerprint collision: two distinct trees share the key.
            // Serve the loser uncached — correctness over memoization.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.optimizer_runs.fetch_add(1, Ordering::Relaxed);
            let f = optimize.take().expect("closure unused on this path");
            return f().map(Arc::new);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Drop every entry whose epoch predates `epoch`. Called after a
    /// stats-drift epoch bump: the stale keys can never be looked up
    /// again, so this only bounds memory, it is not needed for
    /// correctness. The survivors are published as one new trie root;
    /// readers mid-lookup keep whatever snapshot they pinned.
    pub fn retire_epochs_before(&self, epoch: u64) -> usize {
        let removed = self.entries.retain(|(_, e), _| *e >= epoch);
        self.retired.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Number of cached entries (including in-flight slots).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a published entry (or joined an in-flight
    /// optimization).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to optimize.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Times the optimizer actually ran — equals [`PlanCache::misses`];
    /// kept separate so tests can assert the single-optimization
    /// guarantee directly against the closure invocations.
    pub fn optimizer_runs(&self) -> u64 {
        self.optimizer_runs.load(Ordering::Relaxed)
    }

    /// Entries dropped by [`PlanCache::retire_epochs_before`] so far.
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// Hit fraction of all lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
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
        let cache = PlanCache::new();
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
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let (model, plan, stats) = setup();
        let cache = PlanCache::new();
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
        let cache = PlanCache::new();
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
        let cache = PlanCache::new();
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
    fn lookups_keep_hitting_across_a_concurrent_retire() {
        // A reader that pinned its snapshot before a retire keeps
        // resolving against it; afterwards the key is simply gone.
        let (model, plan, stats) = setup();
        let cache = PlanCache::new();
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
