//! Per-level access counters: the software equivalent of the R10000
//! hardware event counters used in the paper's §6.1.

use std::fmt;
use std::ops::Sub;

/// The `[HS89]` miss taxonomy referenced by the paper's §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to a line.
    Compulsory,
    /// Would also miss in a fully-associative cache of the same capacity.
    Capacity,
    /// Hits in the fully-associative shadow cache but misses in the real
    /// set-associative one: caused purely by address conflicts.
    Conflict,
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissClass::Compulsory => write!(f, "compulsory"),
            MissClass::Capacity => write!(f, "capacity"),
            MissClass::Conflict => write!(f, "conflict"),
        }
    }
}

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelStats {
    /// Total line-granular probes of this level.
    pub accesses: u64,
    /// Probes satisfied by this level.
    pub hits: u64,
    /// Misses whose line is adjacent to the previously missed line
    /// (the EDO-friendly stream of §2.2); charged sequential latency.
    pub seq_misses: u64,
    /// All other misses; charged random latency.
    pub rand_misses: u64,
    /// `[HS89]` classification (only populated when the memory system is
    /// built with classification enabled).
    pub compulsory: u64,
    /// See [`MissClass::Capacity`].
    pub capacity_misses: u64,
    /// See [`MissClass::Conflict`].
    pub conflict_misses: u64,
    /// Nanoseconds charged at this level (misses scored by latency).
    pub charged_ns: f64,
}

impl LevelStats {
    /// Total misses at this level.
    pub fn misses(&self) -> u64 {
        self.seq_misses + self.rand_misses
    }
}

impl Sub for LevelStats {
    type Output = LevelStats;

    /// Interval counters: `after - before`.
    fn sub(self, rhs: LevelStats) -> LevelStats {
        LevelStats {
            accesses: self.accesses - rhs.accesses,
            hits: self.hits - rhs.hits,
            seq_misses: self.seq_misses - rhs.seq_misses,
            rand_misses: self.rand_misses - rhs.rand_misses,
            compulsory: self.compulsory - rhs.compulsory,
            capacity_misses: self.capacity_misses - rhs.capacity_misses,
            conflict_misses: self.conflict_misses - rhs.conflict_misses,
            charged_ns: self.charged_ns - rhs.charged_ns,
        }
    }
}

impl fmt::Display for LevelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} seq_misses={} rand_misses={} ({}+{}+{} comp/cap/conf) charged={:.0} ns",
            self.accesses,
            self.hits,
            self.seq_misses,
            self.rand_misses,
            self.compulsory,
            self.capacity_misses,
            self.conflict_misses,
            self.charged_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = LevelStats {
            accesses: 10,
            hits: 7,
            seq_misses: 1,
            rand_misses: 2,
            ..Default::default()
        };
        assert_eq!(s.misses(), 3);
    }

    #[test]
    fn interval_subtraction() {
        let before = LevelStats {
            accesses: 5,
            hits: 3,
            seq_misses: 1,
            rand_misses: 1,
            charged_ns: 10.0,
            ..Default::default()
        };
        let after = LevelStats {
            accesses: 15,
            hits: 9,
            seq_misses: 4,
            rand_misses: 2,
            charged_ns: 50.0,
            ..Default::default()
        };
        let d = after - before;
        assert_eq!(d.accesses, 10);
        assert_eq!(d.hits, 6);
        assert_eq!(d.seq_misses, 3);
        assert_eq!(d.rand_misses, 1);
        assert!((d.charged_ns - 40.0).abs() < 1e-12);
    }

    #[test]
    fn class_display() {
        assert_eq!(MissClass::Compulsory.to_string(), "compulsory");
        assert_eq!(MissClass::Conflict.to_string(), "conflict");
    }
}
