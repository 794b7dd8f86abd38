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
//! The catalog is plain owned data changed through `&mut self`: its one
//! owner (the query service) reads the epoch and borrows
//! [`StatsCatalog::tables`] on the same thread that updates them, so
//! the `(epoch, tables)` pair is coherent by construction.
//! [`StatsCatalog::snapshot`] copies the tables out for a caller that
//! wants to keep them across later updates.

use super::optimizer::TableStats;

/// Fraction of relative change in a table's cardinality, distinct
/// count, or key bound beyond which cached plans are considered stale
/// (see [`StatsCatalog::update`]).
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.2;

/// A set of per-table statistics with drift-tracked epochs.
#[derive(Debug)]
pub struct StatsCatalog {
    /// Current statistics, in registration order.
    tables: Vec<TableStats>,
    /// Each table's stats as of the last epoch bump — the base drift
    /// accumulates against, so repeated small updates add up instead
    /// of resetting the comparison.
    baselines: Vec<TableStats>,
    epoch: u64,
}

/// An owned copy of a [`StatsCatalog`]'s statistics: the tables as
/// they were when it was taken, whatever updates land afterwards.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    tables: Vec<TableStats>,
}

impl StatsSnapshot {
    /// The statistics, in catalog (registration) order.
    pub fn tables(&self) -> &[TableStats] {
        &self.tables
    }
}

impl StatsCatalog {
    /// A catalog over the given tables at epoch 0, with the
    /// [`DEFAULT_DRIFT_THRESHOLD`].
    pub fn new(tables: Vec<TableStats>) -> StatsCatalog {
        StatsCatalog {
            baselines: tables.clone(),
            tables,
            epoch: 0,
        }
    }

    /// An owned copy of the current tables.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            tables: self.tables.clone(),
        }
    }

    /// The current statistics, in catalog (registration) order: the
    /// ones epoch [`StatsCatalog::epoch`] is current for.
    pub fn tables(&self) -> &[TableStats] {
        &self.tables
    }

    /// The current epoch. Pairs with
    /// [`LogicalPlan::fingerprint`](super::LogicalPlan::fingerprint) as
    /// a plan-cache key.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Append a table, returning its catalog index. Registration never
    /// bumps the epoch: no existing plan can reference a table that did
    /// not exist when it was optimized.
    pub fn push(&mut self, stats: TableStats) -> usize {
        self.baselines.push(stats.clone());
        self.tables.push(stats);
        self.tables.len() - 1
    }

    /// Replace table `idx`'s statistics. Returns `true` when the update
    /// drifted past the threshold relative to the epoch's baseline and
    /// therefore bumped the epoch (invalidating cached plans keyed on
    /// the old one).
    ///
    /// # Panics
    /// If `idx` is out of range.
    pub fn update(&mut self, idx: usize, stats: TableStats) -> bool {
        let baseline = self
            .baselines
            .get_mut(idx)
            .unwrap_or_else(|| panic!("table index {idx} out of range"));
        let bumped = drift(baseline, &stats) > DEFAULT_DRIFT_THRESHOLD;
        if bumped {
            *baseline = stats.clone();
            self.epoch += 1;
        }
        self.tables[idx] = stats;
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
        let mut c = catalog();
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
        let mut c = catalog();
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
        let mut c = catalog();
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
        let mut c = catalog();
        assert!(c.update(1, TableStats::key_column(1_000, 8, true)));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn push_registers_without_bumping() {
        let mut c = StatsCatalog::new(Vec::new());
        assert_eq!(c.push(TableStats::key_column(100, 8, false)), 0);
        assert_eq!(c.push(TableStats::uniform(1_000, 8, 100, false)), 1);
        assert_eq!(c.epoch(), 0);
        assert_eq!(c.tables().len(), 2);
        // A pushed table participates in drift tracking like any other.
        assert!(c.update(0, TableStats::key_column(500, 8, false)));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn snapshots_pair_epoch_and_stats_coherently() {
        let mut c = catalog();
        let before = c.snapshot();
        c.update(0, TableStats::uniform(30_000, 8, 1_000, false));
        // The old view is a version, not a reference: it still holds
        // the stats epoch 0 was current for.
        assert_eq!(before.tables()[0].n, 10_000);
        assert_eq!(c.snapshot().tables()[0].n, 30_000);
        // The borrowed view is the current pair.
        assert_eq!((c.epoch(), c.tables()[0].n), (1, 30_000));
    }
}
