//! The shared build-side registry: one immutable hash-join build per
//! (table, statistics epoch), reused by every co-admitted query that
//! probes the same table.
//!
//! A hash-join build over a base table is a **pure function of the
//! table's key sequence** ([`gcm_engine::ops::hash::build_layout`]), so
//! queries joining the same table at the same statistics epoch can probe
//! one immutable slot array instead of each building their own — and
//! still produce byte-identical join output (probing visits slots in the
//! same order either way). The registry hands all of them the same
//! [`SharedBuild`], whose **canonical [`Region`]** is the model-side
//! identity of the shared data: every sharer's pattern references the
//! *same* region id, which is what lets the admission controller's
//! ⊙-composition count the build's footprint once across the batch
//! (Eq 5.3 via [`gcm_core::CostModel::batch_cost_shared`]) instead of
//! once per member.
//!
//! Storage is a plain [`HashMap`] keyed by (table, epoch), owned by the
//! [`QueryService`](crate::QueryService) and changed through
//! `&mut self` on the submit path. A statistics-epoch bump retires stale
//! builds the same way the plan cache retires stale plans, and replacing
//! a table's data retires that table's builds even when its statistics
//! (and so the epoch) did not move.

use gcm_core::{Pattern, Region, RegionId};
use gcm_engine::ops::hash::{self, ENTRY_BYTES};
use gcm_engine::plan::TableDef;
use gcm_engine::Segment;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Rewrite a whole-plan pattern for a query reusing a shared build over
/// the base table whose stat region is named `table_region`: find the
/// hash-join **build phase** `s_trav(T) ⊙ r_trav(H)` (the one 2-child
/// shape the optimizer emits, [`gcm_core::library::build_hash`]), drop
/// it, and substitute `H` with the build's canonical region in every
/// remaining leaf (the probe's `r_acc`) — so the sharer's pattern prices
/// the probe against the *shared* region id and skips the build
/// entirely, exactly what its execution does. Returns `None` when no
/// such phase exists (the pattern then stays un-rewritten and the build
/// is not attached, keeping prediction and execution consistent).
pub fn strip_build_phase(
    pattern: &Pattern,
    table_region: &str,
    shared: &Region,
) -> Option<Pattern> {
    let Pattern::Seq(phases) = pattern else {
        return None;
    };
    let (idx, h_id) = phases.iter().enumerate().find_map(|(i, ph)| {
        let Pattern::Conc(cs) = ph else { return None };
        let [Pattern::STrav { r: rv, .. }, Pattern::RTrav { r: rh, .. }] = cs.as_slice() else {
            return None;
        };
        // The build phase over *this* table with a table sized like the
        // shared layout (same slot rule ⇒ same bytes).
        (rv.name() == table_region && rh.bytes() == shared.bytes()).then(|| (i, rh.id()))
    })?;
    let rewritten = phases
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != idx)
        .map(|(_, ph)| substitute_region(ph, h_id, shared))
        .collect();
    Some(Pattern::seq(rewritten))
}

/// Replace every leaf over region `from` with the same access over
/// `to` (same counts and widths, the shared region's identity).
fn substitute_region(p: &Pattern, from: RegionId, to: &Region) -> Pattern {
    match p {
        Pattern::Seq(ps) => {
            Pattern::Seq(ps.iter().map(|q| substitute_region(q, from, to)).collect())
        }
        Pattern::Conc(ps) => {
            Pattern::Conc(ps.iter().map(|q| substitute_region(q, from, to)).collect())
        }
        Pattern::Repeat { k, inner } => Pattern::Repeat {
            k: *k,
            inner: Box::new(substitute_region(inner, from, to)),
        },
        basic => {
            if basic.region().is_some_and(|r| r.id() == from) {
                let mut swapped = basic.clone();
                match &mut swapped {
                    Pattern::STrav { r, .. }
                    | Pattern::RsTrav { r, .. }
                    | Pattern::RTrav { r, .. }
                    | Pattern::RrTrav { r, .. }
                    | Pattern::RAcc { r, .. }
                    | Pattern::Nest { r, .. } => *r = to.clone(),
                    Pattern::Seq(_) | Pattern::Conc(_) | Pattern::Repeat { .. } => {
                        unreachable!("basic pattern")
                    }
                }
                swapped
            } else {
                basic.clone()
            }
        }
    }
}

/// One immutable, shareable hash-join build side.
#[derive(Debug)]
pub struct SharedBuild {
    /// Catalog index of the built table.
    pub table: usize,
    /// Statistics epoch the build belongs to.
    pub epoch: u64,
    /// The canonical model region for the slot array. Every query
    /// reusing this build substitutes this region (same id) into its
    /// probe pattern, so ⊙-pricing recognizes the data as shared.
    pub region: Region,
    /// The slot array ([`hash::build_layout`]) as one immutable image:
    /// `[key, value]` pairs, EMPTY-keyed in vacant slots. Native workers
    /// probe it where it is; the simulator copies it in host-side
    /// ([`gcm_engine::plan::PrebuiltBuild`]). Neither charges an access.
    pub layout: Segment,
}

/// Registry of shared builds keyed by (table, epoch).
#[derive(Debug, Default)]
pub struct BuildRegistry {
    entries: HashMap<(usize, u64), Arc<SharedBuild>>,
    built: u64,
    reused: u64,
}

impl BuildRegistry {
    /// An empty registry.
    pub fn new() -> BuildRegistry {
        BuildRegistry::default()
    }

    /// The shared build for `table` at `epoch`, computing the layout on
    /// first request, plus whether *this* call computed it. The first
    /// requester (`true`) has just registered the layout — it still owes
    /// the build work itself, so its own pattern keeps the charged build
    /// phase; later requesters (`false`) probe the registered layout and
    /// skip the build.
    pub fn get_or_build(
        &mut self,
        table: usize,
        epoch: u64,
        data: &TableDef,
    ) -> (Arc<SharedBuild>, bool) {
        match self.entries.entry((table, epoch)) {
            Entry::Occupied(e) => {
                self.reused += 1;
                (Arc::clone(e.get()), false)
            }
            Entry::Vacant(v) => {
                let keys: Vec<u64> = data.keys().collect();
                let slots = hash::table_slots(keys.len() as u64);
                let b = v.insert(Arc::new(SharedBuild {
                    table,
                    epoch,
                    region: Region::new(format!("H#{table}@{epoch}"), slots, ENTRY_BYTES),
                    layout: Segment::from_keys(&hash::build_layout(&keys), 8),
                }));
                self.built += 1;
                (Arc::clone(b), true)
            }
        }
    }

    /// Drop builds from statistics epochs before `epoch` (their tables'
    /// data changed). Returns how many were retired.
    pub fn retire_epochs_before(&mut self, epoch: u64) -> u64 {
        self.retire(|&(_, e)| e >= epoch)
    }

    /// Drop every build of `table`, whatever its epoch: its data was
    /// replaced, and a layout is a function of the keys, not of the
    /// statistics that decide the epoch. Returns how many were retired.
    pub fn retire_table(&mut self, table: usize) -> u64 {
        self.retire(|&(t, _)| t != table)
    }

    /// Keep the builds whose key passes `keep`; returns how many went.
    fn retire(&mut self, keep: impl Fn(&(usize, u64)) -> bool) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|k, _| keep(k));
        (before - self.entries.len()) as u64
    }

    /// Builds computed (registry misses).
    pub fn built(&self) -> u64 {
        self.built
    }

    /// Requests served from an existing build (reuses).
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registered table over `keys`.
    fn table(keys: &[u64]) -> TableDef {
        TableDef::new("T", keys, 8)
    }

    #[test]
    fn same_key_returns_the_same_build() {
        let mut reg = BuildRegistry::new();
        let keys = table(&(0..500).map(|i| (i * 7) % 400).collect::<Vec<u64>>());
        let (a, first) = reg.get_or_build(0, 0, &keys);
        let (b, second) = reg.get_or_build(0, 0, &keys);
        assert!(first, "first request computes");
        assert!(!second, "second request reuses");
        assert!(Arc::ptr_eq(&a, &b), "one build per (table, epoch)");
        assert_eq!(a.region.id(), b.region.id(), "one canonical region");
        assert_eq!(reg.built(), 1);
        assert_eq!(reg.reused(), 1);
        // A different epoch is a different build with its own region.
        let (c, _) = reg.get_or_build(0, 1, &keys);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(a.region.id(), c.region.id());
        assert_eq!(reg.entries.len(), 2);
    }

    #[test]
    fn layout_matches_the_pure_function() {
        let mut reg = BuildRegistry::new();
        let keys: Vec<u64> = (0..300).map(|i| (i * 13) % 250).collect();
        let (b, _) = reg.get_or_build(2, 5, &table(&keys));
        let layout = hash::build_layout(&keys);
        assert_eq!(b.layout.bytes(), Segment::from_keys(&layout, 8).bytes());
        assert_eq!(b.region.bytes(), b.layout.len());
        assert_eq!(b.table, 2);
        assert_eq!(b.epoch, 5);
    }

    #[test]
    fn retire_drops_stale_epochs_only() {
        let mut reg = BuildRegistry::new();
        let keys = table(&[1, 2, 3]);
        reg.get_or_build(0, 0, &keys);
        reg.get_or_build(1, 0, &keys);
        reg.get_or_build(0, 1, &keys);
        assert_eq!(reg.retire_epochs_before(1), 2);
        assert_eq!(reg.entries.len(), 1);
        assert_eq!(reg.retire_epochs_before(1), 0);
        // A table's builds go at every epoch; other tables' stay.
        reg.get_or_build(1, 1, &keys);
        assert_eq!(reg.retire_table(0), 1);
        assert_eq!(reg.entries.len(), 1);
    }

    #[test]
    fn strip_build_phase_drops_the_build_and_renames_the_probe() {
        // σ(T0) ⋈H T1 as the optimizer composes it.
        let t1 = Region::new("T1", 400, 8);
        let s = Region::new("S", 500, 8);
        let h = Region::new("H", hash::table_slots(400), ENTRY_BYTES);
        let j = Region::new("J", 500, 16);
        let select = Pattern::s_trav(Region::new("T0", 2_000, 8));
        let pattern = Pattern::seq(vec![
            select.clone(),
            gcm_core::library::hash_join(s.clone(), t1.clone(), h.clone(), j.clone()),
        ]);
        let canon = Region::new("H#1@0", hash::table_slots(400), ENTRY_BYTES);
        let stripped = strip_build_phase(&pattern, "T1", &canon).unwrap();
        let text = stripped.to_string();
        assert!(
            !text.contains("r_trav(H"),
            "build phase must be gone: {text}"
        );
        assert!(
            text.contains("r_acc(H#1@0"),
            "probe must use the canonical region: {text}"
        );
        let reads = |id| {
            stripped
                .leaves()
                .iter()
                .any(|l| l.region().is_some_and(|r| r.id() == id))
        };
        assert!(reads(canon.id()));
        assert!(!reads(h.id()));
        // A pattern without a matching build phase is left alone.
        assert!(strip_build_phase(&pattern, "T9", &canon).is_none());
        assert!(strip_build_phase(&select, "T1", &canon).is_none());
        // A mis-sized canonical region (stale layout) refuses to match.
        let wrong = Region::new("H#1@0", 8, ENTRY_BYTES);
        assert!(strip_build_phase(&pattern, "T1", &wrong).is_none());
    }
}
