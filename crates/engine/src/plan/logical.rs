//! The logical plan tree: *what* a query computes, with no algorithm
//! choices. Joins carry no algorithm and partitions may leave their
//! fan-out open — the optimizer fills both in.

use std::fmt;

/// A logical query plan over a catalog of base relations (referenced by
/// index into the table slice handed to the optimizer/executor).
///
/// Built with the fluent helpers ([`LogicalPlan::scan`],
/// [`LogicalPlan::select_lt`], [`LogicalPlan::join`], …); the left input
/// of a join is the probe/outer side, the right input the build/inner
/// side, matching the engine's operator conventions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// A base relation (index into the catalog).
    Scan {
        /// Catalog index of the base relation.
        table: usize,
    },
    /// Keep tuples with `key < threshold`.
    Select {
        /// Producer of the tuples to filter.
        input: Box<LogicalPlan>,
        /// Exclusive upper bound on surviving keys.
        threshold: u64,
    },
    /// Equi-join on the key column; algorithm left to the optimizer.
    Join {
        /// Outer (probe) input.
        left: Box<LogicalPlan>,
        /// Inner (build) input.
        right: Box<LogicalPlan>,
    },
    /// Group by key, counting (output: `(key, count)` pairs).
    Aggregate {
        /// Producer of the tuples to group.
        input: Box<LogicalPlan>,
    },
    /// Sort by key (in place).
    Sort {
        /// Producer of the tuples to sort.
        input: Box<LogicalPlan>,
    },
    /// Eliminate duplicate keys.
    Dedup {
        /// Producer of the tuples to deduplicate.
        input: Box<LogicalPlan>,
    },
    /// Radix-partition into `2^bits` buffers; `None` lets the optimizer
    /// pick the fan-out.
    Partition {
        /// Producer of the tuples to partition.
        input: Box<LogicalPlan>,
        /// Radix bits of the fan-out, or `None` for optimizer-chosen.
        bits: Option<u32>,
    },
}

impl LogicalPlan {
    /// Scan base relation `table`.
    pub fn scan(table: usize) -> LogicalPlan {
        LogicalPlan::Scan { table }
    }

    /// Filter to `key < threshold`.
    pub fn select_lt(self, threshold: u64) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            threshold,
        }
    }

    /// Join `self` (outer/probe) with `right` (inner/build).
    pub fn join(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Group by key, counting.
    pub fn group_count(self) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
        }
    }

    /// Sort by key.
    pub fn sort(self) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
        }
    }

    /// Eliminate duplicate keys.
    pub fn dedup(self) -> LogicalPlan {
        LogicalPlan::Dedup {
            input: Box::new(self),
        }
    }

    /// Radix-partition `2^bits` ways (`None`: the optimizer chooses).
    pub fn partition(self, bits: Option<u32>) -> LogicalPlan {
        LogicalPlan::Partition {
            input: Box::new(self),
            bits,
        }
    }

    /// Number of join nodes.
    pub fn joins(&self) -> usize {
        match self {
            LogicalPlan::Scan { .. } => 0,
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Aggregate { input }
            | LogicalPlan::Sort { input }
            | LogicalPlan::Dedup { input }
            | LogicalPlan::Partition { input, .. } => input.joins(),
            LogicalPlan::Join { left, right } => 1 + left.joins() + right.joins(),
        }
    }

    /// A structural fingerprint of the plan: identical trees (same
    /// operators, same literals, same table references) always
    /// fingerprint equal; distinct trees collide only with 64-bit-hash
    /// probability, so a cache keying on the fingerprint must still
    /// verify tree equality on a hit. This is the plan-cache key
    /// component a service pairs with a statistics epoch — stable
    /// within one process, not across processes (it hashes with the
    /// std `DefaultHasher`).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Highest catalog index referenced, if any table is referenced.
    pub fn max_table(&self) -> Option<usize> {
        match self {
            LogicalPlan::Scan { table } => Some(*table),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Aggregate { input }
            | LogicalPlan::Sort { input }
            | LogicalPlan::Dedup { input }
            | LogicalPlan::Partition { input, .. } => input.max_table(),
            LogicalPlan::Join { left, right } => match (left.max_table(), right.max_table()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

impl fmt::Display for LogicalPlan {
    /// Functional one-line rendering, e.g.
    /// `group_count(join(select_lt<100>(scan(0)), scan(1)))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalPlan::Scan { table } => write!(f, "scan({table})"),
            LogicalPlan::Select { input, threshold } => {
                write!(f, "select_lt<{threshold}>({input})")
            }
            LogicalPlan::Join { left, right } => write!(f, "join({left}, {right})"),
            LogicalPlan::Aggregate { input } => write!(f, "group_count({input})"),
            LogicalPlan::Sort { input } => write!(f, "sort({input})"),
            LogicalPlan::Dedup { input } => write!(f, "dedup({input})"),
            LogicalPlan::Partition {
                input,
                bits: Some(bits),
            } => write!(f, "partition<{}>({input})", 1u64 << bits),
            LogicalPlan::Partition { input, bits: None } => write!(f, "partition<?>({input})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_query() -> LogicalPlan {
        LogicalPlan::scan(0)
            .select_lt(100)
            .join(LogicalPlan::scan(1))
            .join(LogicalPlan::scan(2))
            .group_count()
    }

    #[test]
    fn builders_produce_the_expected_tree() {
        let q = star_query();
        assert_eq!(q.joins(), 2);
        assert_eq!(q.max_table(), Some(2));
        assert_eq!(
            q.to_string(),
            "group_count(join(join(select_lt<100>(scan(0)), scan(1)), scan(2)))"
        );
    }

    #[test]
    fn unary_chain_counts() {
        let q = LogicalPlan::scan(3).sort().dedup().partition(Some(3));
        assert_eq!(q.joins(), 0);
        assert_eq!(q.max_table(), Some(3));
        assert_eq!(q.to_string(), "partition<8>(dedup(sort(scan(3))))");
    }

    #[test]
    fn open_fanout_renders_as_question_mark() {
        let q = LogicalPlan::scan(0).partition(None);
        assert_eq!(q.to_string(), "partition<?>(scan(0))");
    }

    #[test]
    fn fingerprints_follow_structure() {
        // Equal trees agree; any structural or literal difference
        // separates them.
        assert_eq!(star_query().fingerprint(), star_query().fingerprint());
        let base = LogicalPlan::scan(0).select_lt(100);
        assert_ne!(
            base.fingerprint(),
            LogicalPlan::scan(0).select_lt(101).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            LogicalPlan::scan(1).select_lt(100).fingerprint()
        );
        assert_ne!(
            LogicalPlan::scan(0).sort().fingerprint(),
            LogicalPlan::scan(0).dedup().fingerprint()
        );
        // Join order matters (left = probe, right = build).
        let ab = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        let ba = LogicalPlan::scan(1).join(LogicalPlan::scan(0));
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }
}
