//! O(1) LRU set used for large fully-associative caches and for the
//! shadow cache that classifies capacity vs. conflict misses.
//!
//! The structure is a hash map from tag to node index plus an intrusive
//! doubly-linked list over a node arena; both `touch` (hit) and `insert`
//! (miss + possible eviction) are O(1).

use std::collections::HashMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    tag: u64,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU set of `u64` tags.
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: usize,
    map: HashMap<u64, u32>,
    nodes: Vec<Node>,
    head: u32, // most recently used
    tail: u32, // least recently used
    free: Vec<u32>,
}

impl LruSet {
    /// Create an LRU set holding at most `capacity` tags.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be positive");
        LruSet {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, idx: u32) {
        let node = self.nodes[idx as usize];
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Access `tag`: returns `true` on hit (tag was resident; it is marked
    /// most-recently-used), `false` on miss (tag is inserted, evicting the
    /// least-recently-used tag if the set is full).
    pub fn access(&mut self, tag: u64) -> bool {
        if let Some(&idx) = self.map.get(&tag) {
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return true;
        }
        // Miss: evict if full.
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let vtag = self.nodes[victim as usize].tag;
            self.unlink(victim);
            self.map.remove(&vtag);
            self.free.push(victim);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize].tag = tag;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                tag,
                prev: NIL,
                next: NIL,
            });
            idx
        };
        self.push_front(idx);
        self.map.insert(tag, idx);
        false
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag_at(s: &LruSet, idx: u32) -> Option<u64> {
        (idx != NIL).then(|| s.nodes[idx as usize].tag)
    }

    #[test]
    fn hit_after_insert() {
        let mut s = LruSet::new(4);
        assert!(!s.access(10));
        assert!(s.access(10));
        assert_eq!(s.map.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut s = LruSet::new(2);
        s.access(1);
        s.access(2);
        s.access(1); // 1 is now MRU, 2 is LRU
        assert!(!s.access(3)); // evicts 2
        assert!(s.map.contains_key(&1));
        assert!(!s.map.contains_key(&2));
        assert!(s.map.contains_key(&3));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut s = LruSet::new(8);
        for t in 0..100 {
            s.access(t);
        }
        assert_eq!(s.map.len(), 8);
        // The last 8 tags are resident.
        for t in 92..100 {
            assert!(s.map.contains_key(&t), "tag {t} should be resident");
        }
        assert!(!s.map.contains_key(&91));
    }

    #[test]
    fn lru_mru_tracking() {
        let mut s = LruSet::new(3);
        s.access(1);
        s.access(2);
        s.access(3);
        assert_eq!(tag_at(&s, s.head), Some(3));
        assert_eq!(tag_at(&s, s.tail), Some(1));
        s.access(1);
        assert_eq!(tag_at(&s, s.head), Some(1));
        assert_eq!(tag_at(&s, s.tail), Some(2));
    }

    #[test]
    fn clear_resets() {
        let mut s = LruSet::new(2);
        s.access(1);
        s.clear();
        assert!(s.map.is_empty());
        assert_eq!(tag_at(&s, s.tail), None);
        assert!(!s.access(1)); // miss again: compulsory after clear
    }

    #[test]
    fn single_slot_set() {
        let mut s = LruSet::new(1);
        assert!(!s.access(1));
        assert!(s.access(1));
        assert!(!s.access(2));
        assert!(!s.access(1));
    }

    #[test]
    fn reuses_freed_nodes() {
        let mut s = LruSet::new(2);
        for t in 0..1000 {
            s.access(t);
        }
        // The node arena must not grow unboundedly.
        assert!(s.nodes.len() <= 3);
    }

    #[test]
    fn scan_of_capacity_plus_one_always_misses() {
        // Classic LRU pathology: cyclic sweep over capacity+1 distinct tags
        // never hits after warm-up.
        let mut s = LruSet::new(4);
        for t in 0..5u64 {
            s.access(t);
        }
        let mut hits = 0;
        for _ in 0..3 {
            for t in 0..5u64 {
                if s.access(t) {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }
}
