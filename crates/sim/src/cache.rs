//! A single simulated cache level: set-associative placement with LRU
//! replacement (the paper's §2.1: LRU is "the most common replacement
//! algorithm").

use crate::lru::LruSet;
use crate::stats::MissClass;
use gcm_hardware::CacheLevel;
use std::collections::HashSet;

/// Result of probing a cache with one line-granular access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident and has been installed; `sequential` is
    /// true when the missed line is the successor of the previously missed
    /// line (the EDO-friendly stream of §2.2), `class` is the optional
    /// `[HS89]` classification.
    Miss {
        sequential: bool,
        class: Option<MissClass>,
    },
}

/// Storage for the cache's sets: small associativities use per-set vectors
/// ordered most-recently-used first; large (fully-associative) organisations
/// use the O(1) [`LruSet`].
#[derive(Debug, Clone)]
enum Sets {
    /// `sets × ways` tag store; each inner `Vec` is MRU-first.
    Small { sets: Vec<Vec<u64>>, ways: usize },
    /// One big LRU set (fully associative or very wide).
    Big(LruSet),
}

/// A simulated cache level.
///
/// Addresses are mapped to lines by `addr / B`; lines are mapped to sets by
/// `line mod sets` (the standard modulo-indexing of real hardware). All
/// parameters come from the [`CacheLevel`] description.
#[derive(Debug, Clone)]
pub struct SimCache {
    level: CacheLevel,
    line_shift: u32,
    set_count: u64,
    sets: Sets,
    /// Recently missed lines, one slot per concurrently tracked access
    /// stream (modern memory systems detect several sequential streams at
    /// once; 8 matches typical hardware prefetchers). A miss whose line
    /// follows one of these heads is classified sequential (§2.2 EDO).
    stream_heads: [u64; STREAMS],
    next_stream: usize,
    /// Shadow structures for `[HS89]` classification (enabled on demand):
    /// every line ever seen (compulsory detection) and a fully-associative
    /// LRU of the same capacity (capacity vs. conflict detection).
    shadow: Option<Shadow>,
}

/// Number of concurrent sequential streams the miss classifier tracks.
const STREAMS: usize = 8;

#[derive(Debug, Clone)]
struct Shadow {
    seen: HashSet<u64>,
    full_assoc: LruSet,
}

/// Threshold above which a set-associative organisation switches to the
/// O(1) LRU implementation.
const BIG_WAYS: u64 = 64;

impl SimCache {
    /// Build a simulated cache for the given level description.
    pub fn new(level: CacheLevel) -> Self {
        let lines = level.lines().max(1);
        let ways = level.assoc.ways(lines);
        let set_count = (lines / ways).max(1);
        let sets = if ways > BIG_WAYS && set_count == 1 {
            Sets::Big(LruSet::new(lines as usize))
        } else {
            Sets::Small {
                sets: vec![Vec::with_capacity(ways as usize); set_count as usize],
                ways: ways as usize,
            }
        };
        SimCache {
            line_shift: level.line.trailing_zeros(),
            set_count,
            sets,
            stream_heads: [u64::MAX; STREAMS],
            next_stream: 0,
            shadow: None,
            level,
        }
    }

    /// Enable `[HS89]` miss classification (costs an extra shadow lookup per
    /// access).
    pub fn with_classification(mut self) -> Self {
        let lines = self.level.lines().max(1) as usize;
        self.shadow = Some(Shadow {
            seen: HashSet::new(),
            full_assoc: LruSet::new(lines),
        });
        self
    }

    /// The hardware description this cache simulates.
    pub fn level(&self) -> &CacheLevel {
        &self.level
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Probe the cache with a line-granular access covering `addr`.
    /// On a miss the line is installed (LRU victim evicted).
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let line = self.line_of(addr);
        let hit = match &mut self.sets {
            Sets::Big(lru) => lru.access(line),
            Sets::Small { sets, ways } => {
                let set = if self.set_count.is_power_of_two() {
                    line & (self.set_count - 1)
                } else {
                    line % self.set_count
                };
                let slot = &mut sets[set as usize];
                if let Some(pos) = slot.iter().position(|&t| t == line) {
                    // Move to front (MRU).
                    let t = slot.remove(pos);
                    slot.insert(0, t);
                    true
                } else {
                    if slot.len() == *ways {
                        slot.pop(); // evict LRU (last)
                    }
                    slot.insert(0, line);
                    false
                }
            }
        };
        if hit {
            // A resident line also counts as "recently missed stream" reset?
            // No: the EDO stream detector only tracks misses.
            if let Some(sh) = &mut self.shadow {
                sh.seen.insert(line);
                sh.full_assoc.access(line);
            }
            return AccessOutcome::Hit;
        }
        // Stream detection: sequential iff this line extends one of the
        // tracked miss streams.
        let prev = line.wrapping_sub(1);
        // (`line == 0` has no predecessor; u64::MAX doubles as the empty
        // sentinel, which simulated addresses never reach.)
        let sequential = if let Some(slot) = (line > 0)
            .then(|| self.stream_heads.iter().position(|&h| h == prev))
            .flatten()
        {
            self.stream_heads[slot] = line;
            true
        } else {
            self.stream_heads[self.next_stream] = line;
            self.next_stream = (self.next_stream + 1) % STREAMS;
            false
        };
        let class = self.shadow.as_mut().map(|sh| {
            let first = sh.seen.insert(line);
            let fa_hit = sh.full_assoc.access(line);
            if first {
                MissClass::Compulsory
            } else if fa_hit {
                MissClass::Conflict
            } else {
                MissClass::Capacity
            }
        });
        AccessOutcome::Miss { sequential, class }
    }

    /// Drop all resident lines (the EDO stream detector and the compulsory
    /// history are kept: a flushed line re-misses as capacity/conflict in
    /// real hardware terms only if re-referenced, but its first-ever
    /// reference remains the only compulsory one).
    pub fn flush(&mut self) {
        match &mut self.sets {
            Sets::Big(lru) => lru.clear(),
            Sets::Small { sets, .. } => {
                for s in sets {
                    s.clear();
                }
            }
        }
        if let Some(sh) = &mut self.shadow {
            sh.full_assoc.clear();
        }
        self.stream_heads = [u64::MAX; STREAMS];
        self.next_stream = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::{Associativity, LevelKind, Sharing};

    fn level(cap: u64, line: u64, assoc: Associativity) -> CacheLevel {
        CacheLevel {
            name: "T".into(),
            kind: LevelKind::Cache,
            capacity: cap,
            line,
            assoc,
            seq_miss_ns: 1.0,
            rand_miss_ns: 2.0,
            sharing: Sharing::Private,
        }
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = SimCache::new(level(1024, 32, Associativity::Ways(2)));
        assert_ne!(c.access(100), AccessOutcome::Hit);
        assert_eq!(c.access(100), AccessOutcome::Hit);
        assert_eq!(c.access(96), AccessOutcome::Hit); // same 32-byte line as 100
        assert_ne!(c.access(128), AccessOutcome::Hit); // next line
    }

    #[test]
    fn sequential_miss_detection() {
        let mut c = SimCache::new(level(1024, 32, Associativity::Ways(2)));
        match c.access(0) {
            AccessOutcome::Miss { sequential, .. } => assert!(!sequential), // first miss: no stream yet
            _ => panic!("expected miss"),
        }
        match c.access(32) {
            AccessOutcome::Miss { sequential, .. } => assert!(sequential), // adjacent line
            _ => panic!("expected miss"),
        }
        match c.access(4096) {
            AccessOutcome::Miss { sequential, .. } => assert!(!sequential), // jump
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn direct_mapped_conflict() {
        // 4 lines of 32 B, direct mapped: addresses 0 and 128 share set 0.
        let mut c = SimCache::new(level(128, 32, Associativity::DirectMapped));
        assert_ne!(c.access(0), AccessOutcome::Hit);
        assert_ne!(c.access(128), AccessOutcome::Hit); // evicts line 0
        assert_ne!(c.access(0), AccessOutcome::Hit); // conflict: line 0 gone
    }

    #[test]
    fn two_way_avoids_that_conflict() {
        let mut c = SimCache::new(level(128, 32, Associativity::Ways(2)));
        assert_ne!(c.access(0), AccessOutcome::Hit);
        assert_ne!(c.access(128), AccessOutcome::Hit);
        assert_eq!(c.access(0), AccessOutcome::Hit); // 2-way: both fit in the set
    }

    #[test]
    fn lru_within_set() {
        // One set, 2 ways (2 lines of 32 B, fully associative).
        let mut c = SimCache::new(level(64, 32, Associativity::Full));
        c.access(0); // lines: [0]
        c.access(32); // [1,0]
        c.access(0); // [0,1] — 0 now MRU
        assert_ne!(c.access(64), AccessOutcome::Hit); // evicts line 1 (LRU)
        assert_eq!(c.access(0), AccessOutcome::Hit);
        assert_ne!(c.access(32), AccessOutcome::Hit);
    }

    #[test]
    fn classification_compulsory_capacity_conflict() {
        // Direct-mapped, 2 lines. Lines 0 and 2 conflict (both map to set 0).
        let mut c = SimCache::new(level(64, 32, Associativity::DirectMapped)).with_classification();
        let class = |o: AccessOutcome| match o {
            AccessOutcome::Miss { class, .. } => class.unwrap(),
            _ => panic!("expected miss"),
        };
        assert_eq!(class(c.access(0)), MissClass::Compulsory);
        assert_eq!(class(c.access(64)), MissClass::Compulsory); // line 2, set 0, evicts 0

        // Line 0 again: a fully-assoc cache of 2 lines would still hold it
        // => conflict miss.
        assert_eq!(class(c.access(0)), MissClass::Conflict);
        // Now sweep far beyond capacity, then return: capacity miss.
        for a in (0..1024).step_by(32) {
            c.access(a);
        }
        assert_eq!(class(c.access(0)), MissClass::Capacity);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = SimCache::new(level(1024, 32, Associativity::Ways(2)));
        c.access(0);
        c.access(32);
        c.flush();
        assert_ne!(c.access(0), AccessOutcome::Hit);
        assert_ne!(c.access(32), AccessOutcome::Hit);
    }

    #[test]
    fn big_fully_associative_uses_lru_set() {
        // 4096 lines fully associative: exercises the Big variant.
        let mut c = SimCache::new(level(4096 * 32, 32, Associativity::Full));
        for a in (0..4096 * 32).step_by(32) {
            assert_ne!(c.access(a), AccessOutcome::Hit);
        }
        // Everything fits: all hits on second sweep.
        for a in (0..4096 * 32).step_by(32) {
            assert_eq!(c.access(a), AccessOutcome::Hit);
        }
        // One more distinct line evicts the oldest.
        c.access(4096 * 32);
        assert_ne!(c.access(0), AccessOutcome::Hit);
    }

    #[test]
    fn resident_never_exceeds_lines() {
        let mut c = SimCache::new(level(256, 32, Associativity::Ways(4)));
        for a in (0..100_000).step_by(32) {
            c.access(a);
        }
        let Sets::Small { sets, .. } = &c.sets else {
            panic!("4-way cache uses per-set vectors")
        };
        assert!(sets.iter().map(Vec::len).sum::<usize>() <= 8);
    }
}
