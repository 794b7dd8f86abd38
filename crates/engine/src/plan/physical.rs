//! The physical plan tree: a [`LogicalPlan`](super::LogicalPlan) with
//! every choice made — each join node carries a concrete
//! [`JoinAlgorithm`], each partition node a concrete fan-out. There is
//! no degree-of-parallelism node: what the optimizer prices is exactly
//! what [`super::execute`] runs, one operator after another on one core.

use std::fmt;

/// A join algorithm, chosen per join node by the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAlgorithm {
    /// Scan the inner input once per outer tuple.
    NestedLoop,
    /// Merge-join; `sort_u`/`sort_v` record whether an input must be
    /// sorted first (quick-sort cost is added).
    Merge { sort_u: bool, sort_v: bool },
    /// Build a hash table on the inner input, probe with the outer.
    Hash,
    /// Radix-partition both inputs `m = 2^bits` ways in one pass, then
    /// hash-join partition pairs.
    PartitionedHash { bits: u32 },
}

impl fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinAlgorithm::NestedLoop => write!(f, "nested-loop join"),
            JoinAlgorithm::Merge { sort_u, sort_v } => {
                write!(f, "merge join")?;
                match (sort_u, sort_v) {
                    (false, false) => Ok(()),
                    (true, false) => write!(f, " (sort outer)"),
                    (false, true) => write!(f, " (sort inner)"),
                    (true, true) => write!(f, " (sort both)"),
                }
            }
            JoinAlgorithm::Hash => write!(f, "hash join"),
            JoinAlgorithm::PartitionedHash { bits } => {
                write!(f, "partitioned hash join (m = {})", 1u64 << bits)
            }
        }
    }
}

/// An executable query plan. Produced by the optimizer
/// ([`super::Optimizer`]) or built directly (the [`super::exec`]
/// executor runs any well-formed physical tree).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// A base relation (index into the catalog).
    Scan {
        /// Catalog index of the base relation.
        table: usize,
    },
    /// Keep tuples with `key < threshold`.
    Select {
        /// Producer of the tuples to filter.
        input: Box<PhysicalPlan>,
        /// Exclusive upper bound on surviving keys.
        threshold: u64,
    },
    /// Equi-join with a chosen algorithm (left = probe/outer,
    /// right = build/inner).
    Join {
        /// Outer (probe) input.
        left: Box<PhysicalPlan>,
        /// Inner (build) input.
        right: Box<PhysicalPlan>,
        /// The chosen join algorithm (sorts for merge included).
        algorithm: JoinAlgorithm,
    },
    /// Hash group-by count.
    Aggregate {
        /// Producer of the tuples to group.
        input: Box<PhysicalPlan>,
    },
    /// In-place quick-sort by key.
    Sort {
        /// Producer of the tuples to sort.
        input: Box<PhysicalPlan>,
    },
    /// Sort-based duplicate elimination.
    Dedup {
        /// Producer of the tuples to deduplicate.
        input: Box<PhysicalPlan>,
    },
    /// Single-pass radix partitioning with a concrete fan-out.
    Partition {
        /// Producer of the tuples to partition.
        input: Box<PhysicalPlan>,
        /// Radix bits of the chosen fan-out `2^bits`.
        bits: u32,
    },
}

impl PhysicalPlan {
    /// Scan base relation `table`.
    pub fn scan(table: usize) -> PhysicalPlan {
        PhysicalPlan::Scan { table }
    }

    /// Filter to `key < threshold`.
    pub fn select_lt(self, threshold: u64) -> PhysicalPlan {
        PhysicalPlan::Select {
            input: Box::new(self),
            threshold,
        }
    }

    /// Join `self` (outer/probe) with `right` (inner/build) using
    /// `algorithm`.
    pub fn join_with(self, right: PhysicalPlan, algorithm: JoinAlgorithm) -> PhysicalPlan {
        PhysicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            algorithm,
        }
    }

    /// Group by key, counting.
    pub fn group_count(self) -> PhysicalPlan {
        PhysicalPlan::Aggregate {
            input: Box::new(self),
        }
    }

    /// Sort by key.
    pub fn sort(self) -> PhysicalPlan {
        PhysicalPlan::Sort {
            input: Box::new(self),
        }
    }

    /// Eliminate duplicate keys.
    pub fn dedup(self) -> PhysicalPlan {
        PhysicalPlan::Dedup {
            input: Box::new(self),
        }
    }

    /// Radix-partition `2^bits` ways in one pass.
    pub fn partition(self, bits: u32) -> PhysicalPlan {
        PhysicalPlan::Partition {
            input: Box::new(self),
            bits,
        }
    }

    /// Catalog indices of every base relation the tree scans, sorted
    /// and deduplicated (a self-join references its table once here).
    pub fn tables(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_tables(&self, out: &mut Vec<usize>) {
        match self {
            PhysicalPlan::Scan { table } => out.push(*table),
            PhysicalPlan::Select { input, .. }
            | PhysicalPlan::Aggregate { input }
            | PhysicalPlan::Sort { input }
            | PhysicalPlan::Dedup { input }
            | PhysicalPlan::Partition { input, .. } => input.collect_tables(out),
            PhysicalPlan::Join { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    /// The join algorithms chosen along the tree, in execution order
    /// (left subtree, right subtree, node).
    pub fn join_algorithms(&self) -> Vec<&JoinAlgorithm> {
        let mut out = Vec::new();
        self.collect_joins(&mut out);
        out
    }

    fn collect_joins<'a>(&'a self, out: &mut Vec<&'a JoinAlgorithm>) {
        match self {
            PhysicalPlan::Scan { .. } => {}
            PhysicalPlan::Select { input, .. }
            | PhysicalPlan::Aggregate { input }
            | PhysicalPlan::Sort { input }
            | PhysicalPlan::Dedup { input }
            | PhysicalPlan::Partition { input, .. } => input.collect_joins(out),
            PhysicalPlan::Join {
                left,
                right,
                algorithm,
            } => {
                left.collect_joins(out);
                right.collect_joins(out);
                out.push(algorithm);
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    /// Functional one-line rendering with algorithms spelled out, e.g.
    /// `join[hash join](select_lt<100>(scan(0)), scan(1))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalPlan::Scan { table } => write!(f, "scan({table})"),
            PhysicalPlan::Select { input, threshold } => {
                write!(f, "select_lt<{threshold}>({input})")
            }
            PhysicalPlan::Join {
                left,
                right,
                algorithm,
            } => write!(f, "join[{algorithm}]({left}, {right})"),
            PhysicalPlan::Aggregate { input } => write!(f, "group_count({input})"),
            PhysicalPlan::Sort { input } => write!(f, "sort({input})"),
            PhysicalPlan::Dedup { input } => write!(f, "dedup({input})"),
            PhysicalPlan::Partition { input, bits } => {
                write!(f, "partition<{}>({input})", 1u64 << bits)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(JoinAlgorithm::Hash.to_string(), "hash join");
        assert_eq!(
            JoinAlgorithm::Merge {
                sort_u: true,
                sort_v: false
            }
            .to_string(),
            "merge join (sort outer)"
        );
        assert_eq!(
            JoinAlgorithm::PartitionedHash { bits: 3 }.to_string(),
            "partitioned hash join (m = 8)"
        );
    }

    #[test]
    fn renders_algorithms_inline() {
        let p = PhysicalPlan::scan(0)
            .select_lt(64)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(
                PhysicalPlan::scan(2),
                JoinAlgorithm::Merge {
                    sort_u: true,
                    sort_v: false,
                },
            )
            .group_count();
        assert_eq!(
            p.to_string(),
            "group_count(join[merge join (sort outer)](\
             join[hash join](select_lt<64>(scan(0)), scan(1)), scan(2)))"
        );
    }

    #[test]
    fn join_algorithms_in_execution_order() {
        let p = PhysicalPlan::scan(0)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .join_with(
                PhysicalPlan::scan(2),
                JoinAlgorithm::PartitionedHash { bits: 3 },
            );
        let algos = p.join_algorithms();
        assert_eq!(algos.len(), 2);
        assert!(matches!(algos[0], JoinAlgorithm::Hash));
        assert!(matches!(
            algos[1],
            JoinAlgorithm::PartitionedHash { bits: 3 }
        ));
    }

    #[test]
    fn tables_lists_referenced_scans() {
        let p = PhysicalPlan::scan(3)
            .select_lt(64)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        assert_eq!(p.tables(), vec![1, 3]);
        // A self-join references its table once.
        let s = PhysicalPlan::scan(0).join_with(PhysicalPlan::scan(0), JoinAlgorithm::Hash);
        assert_eq!(s.tables(), vec![0]);
    }
}
