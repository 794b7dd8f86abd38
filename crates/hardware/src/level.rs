//! A single level of the memory hierarchy (paper §2.1, Table 1).

use std::fmt;

/// Cache placement policy: to how many distinct lines may a given memory
/// address be mapped (paper §2.1, "Associativity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// `A = 1`: each address maps to exactly one line. Cheapest lookup,
    /// most conflict misses.
    DirectMapped,
    /// `A = n`-way set associative: an address may be placed in any of `n`
    /// candidate lines of its set; LRU picks the victim.
    Ways(u32),
    /// `A = #`: any address may occupy any line; no conflict misses, only
    /// compulsory and capacity misses remain. TLBs are usually fully
    /// associative.
    Full,
}

impl Associativity {
    /// Resolve the associativity to a concrete number of ways for a cache
    /// with `lines` total lines.
    pub fn ways(&self, lines: u64) -> u64 {
        match self {
            Associativity::DirectMapped => 1,
            Associativity::Ways(n) => u64::from(*n).min(lines.max(1)),
            Associativity::Full => lines.max(1),
        }
    }
}

impl fmt::Display for Associativity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Associativity::DirectMapped => write!(f, "direct-mapped"),
            Associativity::Ways(n) => write!(f, "{n}-way"),
            Associativity::Full => write!(f, "fully-associative"),
        }
    }
}

/// What kind of hierarchy level this is. The cost formulas are identical for
/// all kinds (that is the point of the unified model); the kind only
/// controls a few second-order behaviours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelKind {
    /// An ordinary data cache (L1, L2, L3, ...).
    Cache,
    /// A translation-lookaside buffer. Its "line size" is the memory page
    /// size; there is no distinction between sequential and random latency,
    /// and a TLB miss transfers no data (paper §2.2).
    Tlb,
    /// Main memory viewed as a cache for secondary storage: the buffer pool
    /// of a disk-resident database. Line size is the disk page size; the
    /// sequential/random latency split models sequential vs. seek-bound I/O
    /// (paper §2.3 and §7).
    BufferPool,
}

impl fmt::Display for LevelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelKind::Cache => write!(f, "cache"),
            LevelKind::Tlb => write!(f, "TLB"),
            LevelKind::BufferPool => write!(f, "buffer-pool"),
        }
    }
}

/// Is a hierarchy level private to one core or shared by all of them?
///
/// The paper's machines are single-CPU, so every level is effectively
/// private. On a multi-core machine the distinction drives the
/// concurrent-execution rule (§5.2) *across threads*: patterns running on
/// different cores compete for a [`Shared`](Sharing::Shared) level exactly
/// like the paper's `⊙`-composed patterns compete for one cache, while a
/// [`Private`](Sharing::Private) level sees only its own core's pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Sharing {
    /// One instance per core (typical for L1/L2 and TLBs).
    #[default]
    Private,
    /// A single instance serving all cores (typical for the LLC, and for
    /// main memory viewed as a buffer pool).
    Shared,
}

impl fmt::Display for Sharing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sharing::Private => write!(f, "private"),
            Sharing::Shared => write!(f, "shared"),
        }
    }
}

/// One level of the memory hierarchy, characterised by the parameters of the
/// paper's Table 1.
///
/// The latencies stored here are *miss* latencies `l_i` (the paper's
/// `λ_{i+1}` dualism in §2.3): the extra time charged when an access misses
/// in this level and has to be served by the next one. L1 *access* latency
/// is considered part of the pure CPU cost (paper §2.2) and does not appear.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLevel {
    /// Human-readable name, e.g. `"L1"`, `"L2"`, `"TLB"`.
    pub name: String,
    /// What kind of level this is.
    pub kind: LevelKind,
    /// Capacity `C_i` in bytes.
    pub capacity: u64,
    /// Line (block) size `B_i` in bytes. For a TLB this is the page size.
    pub line: u64,
    /// Associativity `A_i`.
    pub assoc: Associativity,
    /// Sequential miss latency `l_s,i` in nanoseconds: cost of a miss within
    /// a line-adjacent (EDO-friendly) access stream.
    pub seq_miss_ns: f64,
    /// Random miss latency `l_r,i` in nanoseconds: cost of a miss at an
    /// unpredictable address.
    pub rand_miss_ns: f64,
    /// Private-per-core or shared-across-cores. Irrelevant (and
    /// conventionally [`Sharing::Private`]) on single-core machines.
    pub sharing: Sharing,
}

impl CacheLevel {
    /// Number of lines `#_i = C_i / B_i`.
    pub fn lines(&self) -> u64 {
        self.capacity / self.line
    }

    /// Sequential miss bandwidth `b_s,i = B_i / l_s,i` in bytes/ns (= GB/s).
    pub fn seq_bandwidth(&self) -> f64 {
        self.line as f64 / self.seq_miss_ns
    }

    /// Random miss bandwidth `b_r,i = B_i / l_r,i` in bytes/ns (= GB/s).
    pub fn rand_bandwidth(&self) -> f64 {
        self.line as f64 / self.rand_miss_ns
    }
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): C={} B, B={} B, #={}, {}, l_s={} ns, l_r={} ns",
            self.name,
            self.kind,
            self.capacity,
            self.line,
            self.lines(),
            self.assoc,
            self.seq_miss_ns,
            self.rand_miss_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheLevel {
        CacheLevel {
            name: "L1".into(),
            kind: LevelKind::Cache,
            capacity: 32 * 1024,
            line: 32,
            assoc: Associativity::Ways(2),
            seq_miss_ns: 8.0,
            rand_miss_ns: 24.0,
            sharing: Sharing::Private,
        }
    }

    #[test]
    fn derived_quantities() {
        let l = sample();
        assert_eq!(l.lines(), 1024);
        assert!((l.seq_bandwidth() - 4.0).abs() < 1e-12); // 32 B / 8 ns
        assert!((l.rand_bandwidth() - 32.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn associativity_ways() {
        assert_eq!(Associativity::DirectMapped.ways(1024), 1);
        assert_eq!(Associativity::Ways(8).ways(1024), 8);
        assert_eq!(Associativity::Full.ways(1024), 1024);
        // Requesting more ways than lines clamps.
        assert_eq!(Associativity::Ways(16).ways(4), 4);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let mut l = sample();
        l.assoc = Associativity::Full;
        assert_eq!(l.assoc.ways(l.lines()), l.lines());
    }

    #[test]
    fn display_is_informative() {
        let s = sample().to_string();
        assert!(s.contains("L1"));
        assert!(s.contains("2-way"));
    }

    #[test]
    fn sharing_defaults_to_private() {
        assert_eq!(Sharing::default(), Sharing::Private);
        assert_eq!(Sharing::Private.to_string(), "private");
        assert_eq!(Sharing::Shared.to_string(), "shared");
    }
}
