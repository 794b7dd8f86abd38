//! TrieMap correctness properties (the concurrent snapshot map of the
//! `gcm-trie` crate):
//!
//! * sequential model-equivalence: any interleaving of insert / remove /
//!   update / get behaves exactly like `HashMap`;
//! * snapshots are immutable: a snapshot taken before a burst of writes
//!   still reads the old version, entry for entry;
//! * 8+-thread stress: concurrent inserts, lookups, snapshot iteration,
//!   and retirement (`retain`) neither lose published entries nor
//!   resurrect removed ones, and disjoint writers all land.

use gcm::trie::TrieMap;
use gcm::workload::Workload;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every operation sequence agrees with the `HashMap` model.
    #[test]
    fn model_equivalence_with_hashmap(seed in 0u64..10_000) {
        let mut wl = Workload::new(seed);
        let ops = wl.uniform_keys_bounded(300, 4)
            .into_iter()
            .zip(wl.uniform_keys_bounded(300, 64))
            .zip(wl.uniform_keys_bounded(300, 1_000));
        let trie: TrieMap<u64, u64> = TrieMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for ((op, key), val) in ops {
            match op {
                0 => prop_assert_eq!(trie.insert(key, val), model.insert(key, val)),
                1 => prop_assert_eq!(trie.remove(&key), model.remove(&key)),
                2 => {
                    // update: increment if present (CAS-style
                    // read-modify-write; returns the previous value).
                    let got = trie.update(key, |old| old.map(|v| v + 1));
                    let prev = model.get(&key).copied();
                    if let Some(p) = prev {
                        model.insert(key, p + 1);
                    }
                    prop_assert_eq!(got, prev);
                }
                _ => prop_assert_eq!(trie.get(&key), model.get(&key).copied()),
            }
            prop_assert_eq!(trie.len(), model.len());
        }
        // Full-content agreement, via the snapshot iterator.
        let snap = trie.snapshot();
        let mut seen: Vec<(u64, u64)> = snap.iter().map(|(k, v)| (*k, *v)).collect();
        seen.sort_unstable();
        let mut want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        want.sort_unstable();
        prop_assert_eq!(seen, want);
    }

    /// A snapshot is a frozen version: later writes never show through.
    #[test]
    fn snapshots_are_immutable(seed in 0u64..10_000) {
        let mut wl = Workload::new(seed);
        let keys = wl.uniform_keys_bounded(200, 500);
        let trie: TrieMap<u64, u64> = TrieMap::new();
        for (i, &k) in keys.iter().enumerate() {
            trie.insert(k, i as u64);
        }
        let before = trie.snapshot();
        let frozen: Vec<(u64, u64)> = {
            let mut v: Vec<_> = before.iter().map(|(k, v)| (*k, *v)).collect();
            v.sort_unstable();
            v
        };
        let frozen_len = before.len();
        // A burst of overwrites, removals, and fresh inserts.
        for &k in &keys {
            trie.insert(k, u64::MAX);
        }
        for &k in keys.iter().step_by(3) {
            trie.remove(&k);
        }
        trie.insert(1_000_000, 7);
        // The old version still reads exactly as frozen.
        prop_assert_eq!(before.len(), frozen_len);
        let mut again: Vec<(u64, u64)> = before.iter().map(|(k, v)| (*k, *v)).collect();
        again.sort_unstable();
        prop_assert_eq!(again, frozen);
        prop_assert_eq!(before.get(&1_000_000), None);
    }
}

/// Disjoint concurrent writers all land; readers and snapshot iterators
/// race them without ever seeing a torn or impossible state.
#[test]
fn concurrent_writers_readers_and_snapshots() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 500;
    let trie: Arc<TrieMap<u64, u64>> = Arc::new(TrieMap::new());
    std::thread::scope(|s| {
        // 8 writers on disjoint key ranges.
        for w in 0..WRITERS {
            let trie = Arc::clone(&trie);
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let k = w * PER_WRITER + i;
                    trie.insert(k, k * 2);
                }
            });
        }
        // 4 readers validating every value they manage to observe.
        for r in 0..4 {
            let trie = Arc::clone(&trie);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let k = (r * 997 + i * 13) % (WRITERS * PER_WRITER);
                    if let Some(v) = trie.get(&k) {
                        assert_eq!(v, k * 2, "torn value for key {k}");
                    }
                }
            });
        }
        // 2 snapshot iterators: every entry internally consistent, and
        // lengths monotone within one frozen version.
        for _ in 0..2 {
            let trie = Arc::clone(&trie);
            s.spawn(move || {
                for _ in 0..20 {
                    let snap = trie.snapshot();
                    let n = snap.iter().count();
                    assert_eq!(n, snap.len(), "iterator disagrees with len");
                    for (k, v) in snap.iter() {
                        assert_eq!(*v, *k * 2, "torn entry in snapshot");
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    // Every write landed.
    assert_eq!(trie.len(), (WRITERS * PER_WRITER) as usize);
    for k in 0..WRITERS * PER_WRITER {
        assert_eq!(trie.get(&k), Some(k * 2), "lost write {k}");
    }
}

/// Retirement (`retain`) racing inserts: entries the predicate keeps are
/// never lost, entries it drops never resurrect *for the retired
/// epoch*, and the map converges to exactly the live set.
#[test]
fn concurrent_retain_never_loses_live_entries() {
    const N: u64 = 2_000;
    let trie: Arc<TrieMap<(u64, u64), u64>> = Arc::new(TrieMap::new());
    // Epoch-1 entries are pre-published and must survive everything.
    for i in 0..N {
        trie.insert((i, 1), i);
    }
    std::thread::scope(|s| {
        // 4 writers keep inserting epoch-0 entries (retirement fodder).
        for w in 0..4u64 {
            let trie = Arc::clone(&trie);
            s.spawn(move || {
                for i in 0..N / 4 {
                    trie.insert((w * (N / 4) + i, 0), 0);
                }
            });
        }
        // 4 retirers drop epoch-0 concurrently.
        for _ in 0..4 {
            let trie = Arc::clone(&trie);
            s.spawn(move || {
                for _ in 0..10 {
                    trie.retain(|(_, e), _| *e >= 1);
                    std::thread::yield_now();
                }
            });
        }
    });
    // One final retirement settles any epoch-0 stragglers.
    trie.retain(|(_, e), _| *e >= 1);
    assert_eq!(trie.len(), N as usize, "live epoch lost entries");
    for i in 0..N {
        assert_eq!(trie.get(&(i, 1)), Some(i), "epoch-1 entry {i} lost");
        assert_eq!(trie.get(&(i, 0)), None, "epoch-0 entry {i} resurrected");
    }
}

/// `get_or_insert_with` under contention: one value per key wins and
/// everybody reads it.
#[test]
fn concurrent_get_or_insert_agrees() {
    let trie: Arc<TrieMap<u64, u64>> = Arc::new(TrieMap::new());
    let winners: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let trie = Arc::clone(&trie);
                s.spawn(move || trie.get_or_insert_with(42, || t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let published = trie.get(&42).expect("key must exist");
    assert!(winners.iter().all(|&w| w == published), "{winners:?}");
    assert_eq!(trie.len(), 1);
}
