//! Versioned table statistics: the logical-cost oracle with an *epoch*.
//!
//! A plan cache memoizes optimizer output per logical plan — but a
//! cached physical plan is only as good as the statistics it was priced
//! under. [`StatsCatalog`] wraps the per-table [`TableStats`] and
//! stamps them with an epoch that advances only when an update *drifts*
//! past a threshold relative to the stats the current epoch's plans
//! were optimized against. Small refreshes keep the epoch (cached plans
//! stay valid under mildly stale statistics, the usual DBMS trade-off);
//! a past-threshold drift bumps it, and every cache key containing the
//! old epoch becomes unreachable — forced re-optimization without any
//! explicit invalidation walk.
//!
//! Since PR 6 the catalog is **transactionally readable**: the tables
//! live in a [`gcm_trie::TrieMap`] and readers take a
//! [`StatsSnapshot`] — a consistent `(epoch, stats)` pair validated by
//! a seqlock-style sequence counter — so in-flight optimizations read
//! one coherent version while drift updates publish new epochs
//! concurrently. Writers serialize on a small lock; readers only retry
//! in the short window while a writer is mid-publish.

use super::optimizer::TableStats;
use gcm_trie::TrieMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fraction of relative change in a table's cardinality, distinct
/// count, or key bound beyond which cached plans are considered stale
/// (see [`StatsCatalog::update`]).
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.2;

/// One table's current stats plus the reference point its drift is
/// measured against.
#[derive(Debug, Clone)]
struct TableEntry {
    stats: TableStats,
    /// Snapshot of the stats as of the last epoch bump — the base
    /// drift accumulates against, so repeated small updates add up
    /// instead of resetting the comparison.
    baseline: TableStats,
}

/// A set of per-table statistics with drift-tracked epochs and
/// consistent concurrent snapshots.
#[derive(Debug)]
pub struct StatsCatalog {
    entries: TrieMap<usize, TableEntry>,
    /// Seqlock word: odd while a writer is publishing, bumped to even
    /// when the `(tables, epoch)` pair is coherent again.
    seq: AtomicU64,
    epoch: AtomicU64,
    write: Mutex<()>,
}

/// A consistent `(epoch, statistics)` view of a [`StatsCatalog`]: the
/// tables are exactly the ones epoch [`StatsSnapshot::epoch`] was
/// current for at read time, no matter what writers do afterwards.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    epoch: u64,
    tables: Vec<TableStats>,
}

impl StatsSnapshot {
    /// The statistics, in catalog (registration) order.
    pub fn tables(&self) -> &[TableStats] {
        &self.tables
    }

    /// The epoch these statistics belong to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of tables in this view.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the view holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

impl StatsCatalog {
    /// A catalog over the given tables at epoch 0, with the
    /// [`DEFAULT_DRIFT_THRESHOLD`].
    pub fn new(tables: Vec<TableStats>) -> StatsCatalog {
        let entries = TrieMap::new();
        for (idx, stats) in tables.into_iter().enumerate() {
            entries.insert(
                idx,
                TableEntry {
                    baseline: stats.clone(),
                    stats,
                },
            );
        }
        StatsCatalog {
            entries,
            seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            write: Mutex::new(()),
        }
    }

    /// A consistent `(epoch, tables)` snapshot. Readers never take the
    /// writer lock: the loop re-reads only if a writer published
    /// between the two sequence loads, so optimizations in flight keep
    /// reading their own version while drift updates land.
    pub fn snapshot(&self) -> StatsSnapshot {
        loop {
            let before = self.seq.load(Ordering::SeqCst);
            if before % 2 == 1 {
                // A writer is mid-publish; the pair would be torn.
                std::hint::spin_loop();
                continue;
            }
            let epoch = self.epoch.load(Ordering::SeqCst);
            let trie = self.entries.snapshot();
            if self.seq.load(Ordering::SeqCst) != before {
                continue;
            }
            let mut indexed: Vec<(usize, TableStats)> = trie
                .iter()
                .map(|(idx, entry)| (*idx, entry.stats.clone()))
                .collect();
            indexed.sort_unstable_by_key(|(idx, _)| *idx);
            let tables = indexed.into_iter().map(|(_, stats)| stats).collect();
            return StatsSnapshot { epoch, tables };
        }
    }

    /// The current epoch. Pairs with
    /// [`LogicalPlan::fingerprint`](super::LogicalPlan::fingerprint) as
    /// a plan-cache key. For a *coherent* epoch-stats pair use
    /// [`StatsCatalog::snapshot`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn lock_write(&self) -> MutexGuard<'_, ()> {
        // All guarded state is published atomically; a poisoned lock
        // carries no torn state worth propagating.
        self.write.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append a table, returning its catalog index. Registration never
    /// bumps the epoch: no existing plan can reference a table that did
    /// not exist when it was optimized.
    pub fn push(&self, stats: TableStats) -> usize {
        let _guard = self.lock_write();
        let idx = self.entries.len();
        self.seq.fetch_add(1, Ordering::SeqCst);
        self.entries.insert(
            idx,
            TableEntry {
                baseline: stats.clone(),
                stats,
            },
        );
        self.seq.fetch_add(1, Ordering::SeqCst);
        idx
    }

    /// Replace table `idx`'s statistics. Returns `true` when the update
    /// drifted past the threshold relative to the epoch's baseline and
    /// therefore bumped the epoch (invalidating cached plans keyed on
    /// the old one). Concurrent snapshot readers are never blocked;
    /// they see either the old `(epoch, stats)` pair or the new one.
    ///
    /// # Panics
    /// If `idx` is out of range.
    pub fn update(&self, idx: usize, stats: TableStats) -> bool {
        let _guard = self.lock_write();
        let entry = self
            .entries
            .get(&idx)
            .unwrap_or_else(|| panic!("table index {idx} out of range"));
        let drift = drift(&entry.baseline, &stats);
        let bumped = drift > DEFAULT_DRIFT_THRESHOLD;
        let next = TableEntry {
            baseline: if bumped {
                stats.clone()
            } else {
                entry.baseline
            },
            stats,
        };
        self.seq.fetch_add(1, Ordering::SeqCst);
        self.entries.insert(idx, next);
        if bumped {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
        self.seq.fetch_add(1, Ordering::SeqCst);
        bumped
    }
}

/// Relative drift between two statistics snapshots of one table: the
/// largest relative change across cardinality, distinct count, and key
/// bound; a sortedness flip or width change counts as total drift (the
/// optimizer's algorithm choices hinge on both).
fn drift(old: &TableStats, new: &TableStats) -> f64 {
    if old.sorted != new.sorted || old.w != new.w {
        return f64::INFINITY;
    }
    let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1.0);
    rel(old.n as f64, new.n as f64)
        .max(rel(old.distinct, new.distinct))
        .max(rel(old.key_bound as f64, new.key_bound as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> StatsCatalog {
        StatsCatalog::new(vec![
            TableStats::uniform(10_000, 8, 1_000, false),
            TableStats::key_column(1_000, 8, false),
        ])
    }

    #[test]
    fn small_drift_keeps_the_epoch() {
        let c = catalog();
        assert_eq!(c.epoch(), 0);
        // +10% rows: below the 20% default threshold.
        let bumped = c.update(0, TableStats::uniform(11_000, 8, 1_000, false));
        assert!(!bumped);
        assert_eq!(c.epoch(), 0);
        // The stats themselves are refreshed even without a bump.
        assert_eq!(c.snapshot().tables()[0].n, 11_000);
    }

    #[test]
    fn large_drift_bumps_the_epoch() {
        let c = catalog();
        let bumped = c.update(0, TableStats::uniform(20_000, 8, 1_000, false));
        assert!(bumped);
        assert_eq!(c.epoch(), 1);
        // The other table is untouched.
        assert_eq!(c.snapshot().tables()[1].n, 1_000);
        // A byte-identical refresh never bumps (drift 0 is not past any
        // threshold).
        assert!(!c.update(0, TableStats::uniform(20_000, 8, 1_000, false)));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn small_drifts_accumulate_against_the_baseline() {
        // Three +10% updates: each is small, but the third leaves the
        // table 33% past the epoch baseline and must bump.
        let c = catalog();
        assert!(!c.update(0, TableStats::uniform(11_000, 8, 1_000, false)));
        assert!(!c.update(0, TableStats::uniform(12_000, 8, 1_000, false)));
        assert!(c.update(0, TableStats::uniform(13_300, 8, 1_000, false)));
        assert_eq!(c.epoch(), 1);
        // After the bump the baseline resets: another small step stays.
        assert!(!c.update(0, TableStats::uniform(14_000, 8, 1_000, false)));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn sortedness_flip_is_total_drift() {
        let c = catalog();
        assert!(c.update(1, TableStats::key_column(1_000, 8, true)));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn len_and_empty() {
        let c = catalog();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(StatsCatalog::new(Vec::new()).is_empty());
        assert!(StatsCatalog::new(Vec::new()).snapshot().is_empty());
    }

    #[test]
    fn push_registers_without_bumping() {
        let c = StatsCatalog::new(Vec::new());
        assert_eq!(c.push(TableStats::key_column(100, 8, false)), 0);
        assert_eq!(c.push(TableStats::uniform(1_000, 8, 100, false)), 1);
        assert_eq!(c.epoch(), 0);
        assert_eq!(c.len(), 2);
        // A pushed table participates in drift tracking like any other.
        assert!(c.update(0, TableStats::key_column(500, 8, false)));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn snapshots_pair_epoch_and_stats_coherently() {
        let c = catalog();
        let before = c.snapshot();
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.len(), 2);
        c.update(0, TableStats::uniform(30_000, 8, 1_000, false));
        // The old view is a version, not a reference: it still pairs
        // epoch 0 with the stats epoch 0 was current for.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.tables()[0].n, 10_000);
        let after = c.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.tables()[0].n, 30_000);
    }

    #[test]
    fn concurrent_readers_see_only_coherent_pairs() {
        let c = std::sync::Arc::new(catalog());
        std::thread::scope(|s| {
            let writer = std::sync::Arc::clone(&c);
            s.spawn(move || {
                for step in 1..=40u64 {
                    // Every step triples the previous cardinality:
                    // always past the 20% threshold, so epoch == step
                    // and n == 10_000 · 2^step move in lockstep.
                    let n = 10_000 * (1 << (step % 16));
                    writer.update(0, TableStats::uniform(n, 8, 1_000, false));
                }
            });
            for _ in 0..4 {
                let reader = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    let mut last_epoch = 0;
                    loop {
                        let snap = reader.snapshot();
                        assert!(snap.epoch() >= last_epoch, "epochs are monotone");
                        let expected = 10_000 * (1 << (snap.epoch() % 16));
                        assert_eq!(
                            snap.tables()[0].n,
                            expected,
                            "stats must match the epoch they are stamped with"
                        );
                        last_epoch = snap.epoch();
                        if last_epoch == 40 {
                            break;
                        }
                    }
                });
            }
        });
    }
}
