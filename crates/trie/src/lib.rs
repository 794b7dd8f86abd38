//! # gcm-trie — a snapshot-readable 8-ary hash-trie
//!
//! [`TrieMap`] is an 8-ary hash-trie (3 hash bits per level) with
//! **copy-on-write nodes** and an **atomic root swap**. No other crate
//! in the workspace uses it.
//!
//! * **Readers never block.** [`TrieMap::snapshot`] pins the current
//!   root with a wait-free reader count (no mutex, no CAS retry loop on
//!   the hot path — one `fetch_add`, one validation load) and hands back
//!   an immutable [`TrieSnapshot`]. Lookups and iteration over a
//!   snapshot see one consistent version forever, no matter what
//!   writers do.
//! * **Writers publish, they do not mutate.** A writer clones the
//!   root-to-leaf path it touches (≤ 22 nodes), swaps the root pointer,
//!   and retires the old root once concurrent readers drain. Writers
//!   serialize among themselves on a small mutex; they never make a
//!   reader wait.
//! * **The structure prices itself.** Trie descent is exactly the
//!   paper's *repetitive random access* pattern `r_acc` — see
//!   [`TrieStats::lookup_pattern`], which turns a snapshot's shape into
//!   a [`gcm_core::Pattern`] the cost model can score (and the
//!   `trie_cost` integration test validates against the native
//!   backend).
//!
//! ```
//! use gcm_trie::TrieMap;
//!
//! let map = TrieMap::new();
//! map.insert("answer", 42);
//! let snap = map.snapshot();      // wait-free
//! map.insert("question", 6 * 9); // readers of `snap` are unaffected
//! assert_eq!(snap.get(&"answer"), Some(&42));
//! assert_eq!(snap.len(), 1);
//! assert_eq!(map.snapshot().len(), 2);
//! ```

mod cost;

pub use cost::TrieStats;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fan-out of every branch node (2^BITS).
const FAN: usize = 8;
/// Hash bits consumed per level.
const BITS: u32 = 3;
/// Deepest possible branch level: 64 hash bits / 3 bits per level.
/// Two *distinct* hashes differ in some bit below 64, so a split always
/// succeeds by this depth; equal-hash keys share one leaf.
const MAX_DEPTH: u32 = 64u32.div_ceil(BITS);

/// One trie node. `Branch` holds up to [`FAN`] children; `Leaf` holds
/// every entry whose key hashes to `hash` (more than one only on a full
/// 64-bit hash collision).
pub(crate) enum Node<K, V> {
    /// Interior node: children indexed by the next 3 hash bits.
    Branch {
        /// The 8-way child array.
        children: [Option<Arc<Node<K, V>>>; FAN],
    },
    /// Terminal node: all entries sharing one 64-bit hash.
    Leaf {
        /// The shared hash of every entry below.
        hash: u64,
        /// The entries themselves (len > 1 only on hash collision).
        entries: Vec<(K, V)>,
    },
}

/// A published version of the map: the root node plus its exact entry
/// count (so `snapshot().len()` is O(1) and consistent).
pub(crate) struct Root<K, V> {
    pub(crate) node: Option<Arc<Node<K, V>>>,
    pub(crate) len: usize,
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    // DefaultHasher::new() uses fixed keys: deterministic within and
    // across runs, which keeps trie shapes reproducible.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn child_index(hash: u64, depth: u32) -> usize {
    ((hash >> (depth * BITS)) & (FAN as u64 - 1)) as usize
}

fn node_get<'a, K: Eq, V>(mut node: &'a Node<K, V>, hash: u64, key: &K) -> Option<&'a V> {
    let mut depth = 0;
    loop {
        match node {
            Node::Leaf { hash: h, entries } => {
                return if *h == hash {
                    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                } else {
                    None
                };
            }
            Node::Branch { children } => match &children[child_index(hash, depth)] {
                Some(child) => {
                    node = child;
                    depth += 1;
                }
                None => return None,
            },
        }
    }
}

/// Copy-on-write insert: returns the new subtree plus the value it
/// replaced, cloning only the root-to-leaf path.
fn node_insert<K: Hash + Eq + Clone, V: Clone>(
    node: Option<&Arc<Node<K, V>>>,
    depth: u32,
    hash: u64,
    key: K,
    value: V,
) -> (Arc<Node<K, V>>, Option<V>) {
    match node.map(Arc::as_ref) {
        None => (
            Arc::new(Node::Leaf {
                hash,
                entries: vec![(key, value)],
            }),
            None,
        ),
        Some(Node::Leaf { hash: h, entries }) if *h == hash => {
            let mut entries = entries.clone();
            let old = match entries.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => Some(std::mem::replace(&mut slot.1, value)),
                None => {
                    entries.push((key, value));
                    None
                }
            };
            (Arc::new(Node::Leaf { hash, entries }), old)
        }
        Some(Node::Leaf { hash: h, .. }) => {
            let leaf = Arc::clone(node.expect("leaf arm implies Some"));
            (split_insert(leaf, *h, depth, hash, key, value), None)
        }
        Some(Node::Branch { children }) => {
            let idx = child_index(hash, depth);
            let (child, old) = node_insert(children[idx].as_ref(), depth + 1, hash, key, value);
            let mut children = children.clone();
            children[idx] = Some(child);
            (Arc::new(Node::Branch { children }), old)
        }
    }
}

/// Push an existing leaf one level down until its hash diverges from
/// the incoming key's hash, then hang both below a fresh branch.
fn split_insert<K: Hash + Eq + Clone, V: Clone>(
    leaf: Arc<Node<K, V>>,
    leaf_hash: u64,
    depth: u32,
    hash: u64,
    key: K,
    value: V,
) -> Arc<Node<K, V>> {
    debug_assert!(depth < MAX_DEPTH, "distinct hashes diverge within 64 bits");
    let li = child_index(leaf_hash, depth);
    let hi = child_index(hash, depth);
    let mut children: [Option<Arc<Node<K, V>>>; FAN] = std::array::from_fn(|_| None);
    if li == hi {
        children[li] = Some(split_insert(leaf, leaf_hash, depth + 1, hash, key, value));
    } else {
        children[li] = Some(leaf);
        children[hi] = Some(Arc::new(Node::Leaf {
            hash,
            entries: vec![(key, value)],
        }));
    }
    Arc::new(Node::Branch { children })
}

/// Copy-on-write remove: `None` subtree result means the branch emptied
/// out entirely.
fn node_remove<K: Eq + Clone, V: Clone>(
    node: &Arc<Node<K, V>>,
    depth: u32,
    hash: u64,
    key: &K,
) -> (Option<Arc<Node<K, V>>>, Option<V>) {
    match node.as_ref() {
        Node::Leaf { hash: h, entries } => {
            if *h != hash {
                return (Some(Arc::clone(node)), None);
            }
            match entries.iter().position(|(k, _)| k == key) {
                None => (Some(Arc::clone(node)), None),
                Some(i) => {
                    let mut entries = entries.clone();
                    let (_, v) = entries.remove(i);
                    let kept = if entries.is_empty() {
                        None
                    } else {
                        Some(Arc::new(Node::Leaf { hash: *h, entries }))
                    };
                    (kept, Some(v))
                }
            }
        }
        Node::Branch { children } => {
            let idx = child_index(hash, depth);
            let Some(child) = &children[idx] else {
                return (Some(Arc::clone(node)), None);
            };
            let (new_child, removed) = node_remove(child, depth + 1, hash, key);
            if removed.is_none() {
                return (Some(Arc::clone(node)), None);
            }
            let mut children = children.clone();
            children[idx] = new_child;
            if children.iter().all(Option::is_none) {
                (None, removed)
            } else {
                (Some(Arc::new(Node::Branch { children })), removed)
            }
        }
    }
}

/// A concurrent hash-trie map with wait-free snapshot reads and
/// copy-on-write writers. See the [crate docs](crate) for the design.
pub struct TrieMap<K, V> {
    /// Owns one strong count of an `Arc<Root>`; swapped atomically by
    /// writers, pinned momentarily by readers.
    root: AtomicPtr<Root<K, V>>,
    /// Bumped by every publish; its parity selects the reader slot a
    /// new reader pins.
    epoch: AtomicUsize,
    /// In-flight reader counts, indexed by epoch parity. A writer
    /// retires the old root only after the *old* parity drains, so a
    /// pinned reader can never observe a freed root.
    active: [AtomicUsize; 2],
    /// Serializes writers (readers never take it).
    writer: Mutex<()>,
    /// `TrieMap<K, V>` is `Send`/`Sync` exactly when sharing
    /// `Arc<Root<K, V>>` across threads is.
    marker: PhantomData<Arc<Root<K, V>>>,
}

impl<K, V> Default for TrieMap<K, V> {
    fn default() -> TrieMap<K, V> {
        TrieMap::new()
    }
}

impl<K, V> TrieMap<K, V> {
    /// An empty map.
    pub fn new() -> TrieMap<K, V> {
        let empty = Arc::new(Root::<K, V> { node: None, len: 0 });
        TrieMap {
            root: AtomicPtr::new(Arc::into_raw(empty) as *mut Root<K, V>),
            epoch: AtomicUsize::new(0),
            active: [AtomicUsize::new(0), AtomicUsize::new(0)],
            writer: Mutex::new(()),
            marker: PhantomData,
        }
    }

    /// Pin the current root wait-free and return it as an immutable
    /// snapshot. The hot path is one `fetch_add`, one validation load,
    /// and one `Arc` count bump; the retry loop only spins if a writer
    /// publishes in the window between the two loads.
    pub fn snapshot(&self) -> TrieSnapshot<K, V> {
        let parity = loop {
            let e = self.epoch.load(Ordering::SeqCst);
            self.active[e & 1].fetch_add(1, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == e {
                break e & 1;
            }
            // A writer flipped the epoch mid-pin: our slot may be the
            // one it is draining. Back out and re-pin.
            self.active[e & 1].fetch_sub(1, Ordering::SeqCst);
        };
        let ptr = self.root.load(Ordering::SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` and carries the
        // map's strong count. Holding the `parity` pin prevents any
        // writer from releasing that count until we unpin below (a
        // writer drains the old parity before dropping the root it
        // swapped out, and the validated pin guarantees `ptr` is not a
        // root an *earlier* writer already retired).
        let root = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        self.active[parity].fetch_sub(1, Ordering::SeqCst);
        TrieSnapshot { root }
    }

    /// The current entry count (exact, from the published root).
    pub fn len(&self) -> usize {
        self.snapshot().root.len
    }

    /// Whether the map is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock_writer(&self) -> MutexGuard<'_, ()> {
        // The guarded state is always a fully published root, so a
        // poisoned lock carries no torn state worth propagating.
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The root the next write builds on. Only sound while the writer
    /// lock is held: the current root can only be retired by another
    /// writer, and the guard excludes them.
    fn current_locked(&self, _guard: &MutexGuard<'_, ()>) -> &Root<K, V> {
        // SAFETY: see above — the writer lock pins the current root.
        unsafe { &*self.root.load(Ordering::SeqCst) }
    }

    /// Swap in `root`, flip the epoch, wait for old-parity readers to
    /// drain, then release the retired root. Caller holds the writer
    /// lock and must not touch the previous root afterwards.
    fn publish(&self, root: Root<K, V>, _guard: &MutexGuard<'_, ()>) {
        let fresh = Arc::into_raw(Arc::new(root)) as *mut Root<K, V>;
        let old = self.root.swap(fresh, Ordering::SeqCst);
        let e = self.epoch.load(Ordering::SeqCst);
        self.epoch.store(e.wrapping_add(1), Ordering::SeqCst);
        // Readers pinned on the old parity saw either root; both are
        // alive until this drain completes. New readers pin the new
        // parity and can only load the new root.
        while self.active[e & 1].load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        // SAFETY: `old` is the strong count the map held; no pinned
        // reader can still be borrowing it (drained above), and the
        // caller promised not to use it again.
        unsafe { drop(Arc::from_raw(old)) };
    }
}

impl<K: Hash + Eq + Clone, V: Clone> TrieMap<K, V> {
    /// Clone of the value under `key` in the current version.
    pub fn get(&self, key: &K) -> Option<V> {
        self.snapshot().get(key).cloned()
    }

    /// Insert (or replace) and return the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.update(key, move |_| Some(value))
    }

    /// Remove and return the previous value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.update(key.clone(), |_| None)
    }

    /// CAS-style read-modify-write: `f` sees the current value (or
    /// `None`) and decides the next one (`None` removes). The decision
    /// and the publish are atomic with respect to every other writer;
    /// readers keep their snapshots. Returns the previous value.
    pub fn update<F>(&self, key: K, f: F) -> Option<V>
    where
        F: FnOnce(Option<&V>) -> Option<V>,
    {
        let guard = self.lock_writer();
        let cur = self.current_locked(&guard);
        let hash = hash_of(&key);
        let existing = cur.node.as_ref().and_then(|n| node_get(n, hash, &key));
        match f(existing) {
            Some(value) => {
                let (node, replaced) = node_insert(cur.node.as_ref(), 0, hash, key, value);
                let len = cur.len + usize::from(replaced.is_none());
                self.publish(
                    Root {
                        node: Some(node),
                        len,
                    },
                    &guard,
                );
                replaced
            }
            None => match cur.node.as_ref() {
                Some(n) if existing.is_some() => {
                    let (node, removed) = node_remove(n, 0, hash, &key);
                    let len = cur.len - usize::from(removed.is_some());
                    self.publish(Root { node, len }, &guard);
                    removed
                }
                // Absent stays absent: nothing to publish.
                _ => None,
            },
        }
    }

    /// Return the value under `key`, inserting `make()` first if the
    /// key is absent. Exactly one caller runs `make` per vacancy; every
    /// caller gets a clone of the winning value.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, make: F) -> V {
        let guard = self.lock_writer();
        let cur = self.current_locked(&guard);
        let hash = hash_of(&key);
        if let Some(v) = cur.node.as_ref().and_then(|n| node_get(n, hash, &key)) {
            return v.clone();
        }
        let value = make();
        let (node, _) = node_insert(cur.node.as_ref(), 0, hash, key, value.clone());
        let len = cur.len + 1;
        self.publish(
            Root {
                node: Some(node),
                len,
            },
            &guard,
        );
        value
    }

    /// Keep only entries `keep` approves of; returns how many were
    /// dropped. The survivors are published as **one** new root, so
    /// concurrent readers see either the old version or the fully
    /// filtered one — never a half-retired state.
    pub fn retain<F: FnMut(&K, &V) -> bool>(&self, mut keep: F) -> usize {
        let guard = self.lock_writer();
        let cur = self.current_locked(&guard);
        let mut node: Option<Arc<Node<K, V>>> = None;
        let mut len = 0;
        let mut removed = 0;
        for (k, v) in root_entries(cur) {
            if keep(k, v) {
                let (next, _) = node_insert(node.as_ref(), 0, hash_of(k), k.clone(), v.clone());
                node = Some(next);
                len += 1;
            } else {
                removed += 1;
            }
        }
        if removed > 0 {
            self.publish(Root { node, len }, &guard);
        }
        removed
    }
}

impl<K, V> Drop for TrieMap<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no readers or writers remain; the
        // pointer is the strong count the map owns.
        unsafe { drop(Arc::from_raw(self.root.load(Ordering::SeqCst))) };
    }
}

impl<K, V> std::fmt::Debug for TrieMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrieMap").field("len", &self.len()).finish()
    }
}

/// An immutable, consistent version of a [`TrieMap`]: lookups,
/// iteration and [`TrieSnapshot::stats`] all describe the single
/// version that was current when [`TrieMap::snapshot`] ran.
pub struct TrieSnapshot<K, V> {
    pub(crate) root: Arc<Root<K, V>>,
}

impl<K, V> Clone for TrieSnapshot<K, V> {
    fn clone(&self) -> TrieSnapshot<K, V> {
        TrieSnapshot {
            root: Arc::clone(&self.root),
        }
    }
}

impl<K, V> TrieSnapshot<K, V> {
    /// Entry count of this version (O(1), stored at publish time).
    pub fn len(&self) -> usize {
        self.root.len
    }

    /// Whether this version is empty.
    pub fn is_empty(&self) -> bool {
        self.root.len == 0
    }

    /// Iterate every `(key, value)` pair of this version, in
    /// unspecified (hash) order.
    pub fn iter(&self) -> Entries<'_, K, V> {
        root_entries(&self.root)
    }
}

impl<K: Hash + Eq, V> TrieSnapshot<K, V> {
    /// Look `key` up in this version.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = hash_of(key);
        self.root.node.as_ref().and_then(|n| node_get(n, hash, key))
    }
}

impl<'a, K, V> IntoIterator for &'a TrieSnapshot<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Entries<'a, K, V>;

    fn into_iter(self) -> Entries<'a, K, V> {
        self.iter()
    }
}

impl<K, V> std::fmt::Debug for TrieSnapshot<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrieSnapshot")
            .field("len", &self.root.len)
            .finish()
    }
}

fn root_entries<K, V>(root: &Root<K, V>) -> Entries<'_, K, V> {
    Entries {
        stack: root.node.as_deref().into_iter().collect(),
        entries: [].iter(),
    }
}

/// Depth-first iterator over one trie version's entries.
pub struct Entries<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
    entries: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iterator for Entries<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, v)) = self.entries.next() {
                return Some((k, v));
            }
            match self.stack.pop()? {
                Node::Leaf { entries, .. } => self.entries = entries.iter(),
                Node::Branch { children } => {
                    for child in children.iter().rev().flatten() {
                        self.stack.push(child);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let map = TrieMap::new();
        assert!(map.is_empty());
        assert_eq!(map.insert(1u64, "one"), None);
        assert_eq!(map.insert(2, "two"), None);
        assert_eq!(map.insert(1, "uno"), Some("one"));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&1), Some("uno"));
        assert_eq!(map.get(&3), None);
        assert_eq!(map.remove(&1), Some("uno"));
        assert_eq!(map.remove(&1), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn snapshots_are_immutable_versions() {
        let map = TrieMap::new();
        for i in 0..100u64 {
            map.insert(i, i * i);
        }
        let snap = map.snapshot();
        for i in 0..100u64 {
            map.remove(&i);
        }
        map.insert(7, 0);
        assert_eq!(snap.len(), 100);
        for i in 0..100u64 {
            assert_eq!(snap.get(&i), Some(&(i * i)), "snapshot holds v{i}");
        }
        assert_eq!(snap.iter().count(), 100);
        assert_eq!(map.snapshot().len(), 1);
        assert_eq!(map.get(&7), Some(0));
    }

    #[test]
    fn update_is_a_read_modify_write() {
        let map = TrieMap::new();
        // Absent → absent publishes nothing.
        assert_eq!(map.update("k", |cur| cur.copied()), None);
        assert!(map.is_empty());
        // Counter semantics through the closure.
        for _ in 0..5 {
            map.update("k", |cur| Some(cur.copied().unwrap_or(0) + 1));
        }
        assert_eq!(map.get(&"k"), Some(5));
        // Present → None removes.
        assert_eq!(map.update("k", |_| None), Some(5));
        assert!(map.is_empty());
    }

    #[test]
    fn get_or_insert_with_runs_make_once_per_vacancy() {
        let map = TrieMap::new();
        let a = map.get_or_insert_with(9u64, || "built");
        let b = map.get_or_insert_with(9u64, || panic!("must reuse"));
        assert_eq!((a, b), ("built", "built"));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn retain_publishes_one_filtered_version() {
        let map = TrieMap::new();
        for i in 0..64u64 {
            map.insert(i, ());
        }
        let before = map.snapshot();
        let removed = map.retain(|k, _| k % 2 == 0);
        assert_eq!(removed, 32);
        assert_eq!(map.len(), 32);
        assert_eq!(before.len(), 64, "pre-retain snapshot untouched");
        assert!(map.snapshot().iter().all(|(k, _)| k % 2 == 0));
        // Nothing dropped → nothing published.
        assert_eq!(map.retain(|_, _| true), 0);
    }

    #[test]
    fn iteration_matches_contents() {
        let map = TrieMap::new();
        for i in 0..1000u64 {
            map.insert(i, i + 1);
        }
        let snap = map.snapshot();
        let mut seen: Vec<u64> = snap.iter().map(|(k, _)| *k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        assert!(snap.iter().all(|(k, v)| *v == k + 1));
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let map = Arc::new(TrieMap::new());
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    for i in 0..250 {
                        map.insert(w * 1000 + i, w);
                    }
                });
            }
            for _ in 0..4 {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut last = 0;
                    while last < 1000 {
                        let snap = map.snapshot();
                        let n = snap.iter().count();
                        // Internal consistency: the stored len is the
                        // real entry count, and growth is monotone.
                        assert_eq!(n, snap.len());
                        assert!(n >= last, "len went backwards: {n} < {last}");
                        last = n.max(last);
                    }
                });
            }
        });
        assert_eq!(map.len(), 1000);
    }
}
