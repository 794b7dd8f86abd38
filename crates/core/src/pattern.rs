//! The access-pattern language (paper §3.2–§3.3).
//!
//! Database algorithms are described as combinations of a handful of basic
//! patterns. The two combinators are *sequential execution* `⊕` (one
//! pattern after the other) and *concurrent execution* `⊙` (patterns
//! interleaved over the same time span); `⊙` binds tighter than `⊕` and is
//! commutative, `⊕` is not (paper §3.3).

use crate::region::Region;
use std::fmt;

/// Can a sequential traversal actually achieve *sequential* miss latency?
///
/// The paper (§4.1) observes that this depends on the implementation (data
/// dependencies, outstanding-miss limits), not just the algorithm, and
/// therefore offers two variants: `s_trav^s` (achieves sequential latency)
/// and `s_trav^r` (misses are scored with random latency). Miss *counts*
/// are identical; only the scoring differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// `s_trav^s`: misses counted as sequential.
    Sequential,
    /// `s_trav^r`: misses counted as random.
    Random,
}

/// Sweep direction of repeated traversals (paper §3.2, `rs_trav`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// All sweeps run in the same direction: a sweep that exceeds the
    /// cache gets no reuse from its predecessor.
    Uni,
    /// Alternating directions: each sweep starts where the previous one
    /// ended and reuses whatever the cache still holds.
    Bi,
}

/// Order in which the *global* cursor of an interleaved multi-cursor
/// access visits the local cursors (paper §3.2, `nest`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalOrder {
    /// Local cursors visited in storage order.
    Sequential(Direction),
    /// Local cursors visited in random order (e.g. hash partitioning).
    Random,
}

/// The local pattern each sub-region cursor of a `nest` performs.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalPattern {
    /// Each local cursor advances sequentially (`u` bytes per item).
    SeqTraversal { u: u64, latency: LatencyClass },
    /// Each local cursor performs a random traversal.
    RandTraversal { u: u64 },
}

/// A (basic or compound) data access pattern.
///
/// Constructors for the basic patterns live on this type (e.g.
/// [`Pattern::s_trav`]); [`crate::library`] provides the paper's Table-2
/// operator descriptions built from them.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// `s_trav(R, u)`: one sequential sweep over `R`, touching `u` bytes
    /// of each item.
    STrav {
        r: Region,
        u: u64,
        latency: LatencyClass,
    },
    /// `rs_trav(k, d, R, u)`: `k` sequential sweeps, uni- or
    /// bi-directional.
    RsTrav {
        r: Region,
        u: u64,
        k: u64,
        dir: Direction,
        latency: LatencyClass,
    },
    /// `r_trav(R, u)`: touch every item exactly once, in random order.
    RTrav { r: Region, u: u64 },
    /// `rr_trav(k, R, u)`: `k` independent random traversals.
    RrTrav { r: Region, u: u64, k: u64 },
    /// `r_acc(R, q, u)`: `q` independent random accesses with replacement.
    RAcc { r: Region, u: u64, accesses: u64 },
    /// `nest(R, m, P, g)`: `R` divided into `m` equal sub-regions, each
    /// with a local cursor performing `local`; the global cursor picks
    /// local cursors in order `g`.
    Nest {
        r: Region,
        m: u64,
        local: LocalPattern,
        order: GlobalOrder,
    },
    /// `P₁ ⊕ P₂ ⊕ …`: sequential execution.
    Seq(Vec<Pattern>),
    /// `P₁ ⊙ P₂ ⊙ …`: concurrent execution.
    Conc(Vec<Pattern>),
    /// `k × P`: `k` sequential executions of the same sub-pattern
    /// (shorthand for `P ⊕ P ⊕ …` that stays compact for the exponential
    /// segment counts of divide-and-conquer algorithms; the evaluator
    /// exploits that iterations beyond the first all start from the same
    /// cache state).
    Repeat { k: u64, inner: Box<Pattern> },
}

impl Pattern {
    /// `s_trav^s(R)` touching all `R.w` bytes per item.
    pub fn s_trav(r: Region) -> Pattern {
        let u = r.w;
        Pattern::STrav {
            r,
            u,
            latency: LatencyClass::Sequential,
        }
    }

    /// `s_trav^s(R, u)` touching `u ≤ R.w` bytes per item.
    pub fn s_trav_u(r: Region, u: u64) -> Pattern {
        assert!(u >= 1 && u <= r.w, "need 1 <= u <= R.w");
        Pattern::STrav {
            r,
            u,
            latency: LatencyClass::Sequential,
        }
    }

    /// `rs_trav(k, d, R)` touching all bytes per item.
    pub fn rs_trav(r: Region, k: u64, dir: Direction) -> Pattern {
        let u = r.w;
        Pattern::RsTrav {
            r,
            u,
            k,
            dir,
            latency: LatencyClass::Sequential,
        }
    }

    /// `r_trav(R)` touching all bytes per item.
    pub fn r_trav(r: Region) -> Pattern {
        let u = r.w;
        Pattern::RTrav { r, u }
    }

    /// `r_trav(R, u)`.
    pub fn r_trav_u(r: Region, u: u64) -> Pattern {
        assert!(u >= 1 && u <= r.w, "need 1 <= u <= R.w");
        Pattern::RTrav { r, u }
    }

    /// `rr_trav(k, R, u)`.
    pub fn rr_trav(r: Region, u: u64, k: u64) -> Pattern {
        assert!(u >= 1 && u <= r.w, "need 1 <= u <= R.w");
        Pattern::RrTrav { r, u, k }
    }

    /// `r_acc(R, q)`: `q` random accesses touching whole items.
    pub fn r_acc(r: Region, accesses: u64) -> Pattern {
        let u = r.w;
        Pattern::RAcc { r, u, accesses }
    }

    /// `nest(R, m, P, g)`.
    pub fn nest(r: Region, m: u64, local: LocalPattern, order: GlobalOrder) -> Pattern {
        assert!(m >= 1, "need at least one sub-region");
        Pattern::Nest { r, m, local, order }
    }

    /// The empty pattern `ε`: the identity of both `⊕` and `⊙`. It
    /// touches no memory, costs nothing, and leaves the cache state
    /// untouched — the well-defined meaning of an empty composition.
    pub fn empty() -> Pattern {
        Pattern::Seq(Vec::new())
    }

    /// True if this is the no-op pattern (an empty composition).
    pub fn is_empty(&self) -> bool {
        matches!(self, Pattern::Seq(ps) if ps.is_empty())
    }

    /// Sequential execution `⊕` of `parts` (flattens nested `Seq`s and
    /// drops no-op parts). An empty `parts` yields [`Pattern::empty`],
    /// the zero-cost identity — not a degenerate `Seq([])`-with-
    /// unspecified-semantics node.
    pub fn seq(mut parts: Vec<Pattern>) -> Pattern {
        // `parts` is kept as the node's list unless something needs
        // flattening.
        if parts.iter().any(|p| matches!(p, Pattern::Seq(_))) {
            let mut flat = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    Pattern::Seq(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            parts = flat;
        }
        if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Pattern::Seq(parts)
        }
    }

    /// Concurrent execution `⊙` of `parts` (flattens nested `Conc`s and
    /// drops no-op parts). An empty `parts` yields [`Pattern::empty`]:
    /// zero footprint, zero cost, cache state untouched.
    pub fn conc(mut parts: Vec<Pattern>) -> Pattern {
        // `parts` is kept as the node's list unless something needs
        // flattening or dropping.
        if parts
            .iter()
            .any(|p| matches!(p, Pattern::Conc(_)) || p.is_empty())
        {
            let mut flat = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    Pattern::Conc(inner) => flat.extend(inner),
                    other if other.is_empty() => {}
                    other => flat.push(other),
                }
            }
            parts = flat;
        }
        if parts.len() == 1 {
            parts.pop().unwrap()
        } else if parts.is_empty() {
            Pattern::empty()
        } else {
            Pattern::Conc(parts)
        }
    }

    /// `k × self`: sequential repetition (collapses `k = 1`).
    pub fn repeat(k: u64, inner: Pattern) -> Pattern {
        if k == 1 {
            inner
        } else {
            Pattern::Repeat {
                k,
                inner: Box::new(inner),
            }
        }
    }

    /// True if this is a basic (non-compound) pattern.
    pub fn is_basic(&self) -> bool {
        !matches!(
            self,
            Pattern::Seq(_) | Pattern::Conc(_) | Pattern::Repeat { .. }
        )
    }

    /// The region a basic pattern operates on.
    pub fn region(&self) -> Option<&Region> {
        match self {
            Pattern::STrav { r, .. }
            | Pattern::RsTrav { r, .. }
            | Pattern::RTrav { r, .. }
            | Pattern::RrTrav { r, .. }
            | Pattern::RAcc { r, .. }
            | Pattern::Nest { r, .. } => Some(r),
            Pattern::Seq(_) | Pattern::Conc(_) | Pattern::Repeat { .. } => None,
        }
    }

    /// All basic patterns in execution order (pre-order over the tree).
    pub fn leaves(&self) -> Vec<&Pattern> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Pattern>) {
        match self {
            Pattern::Seq(ps) | Pattern::Conc(ps) => {
                for p in ps {
                    p.collect_leaves(out);
                }
            }
            Pattern::Repeat { inner, .. } => inner.collect_leaves(out),
            leaf => out.push(leaf),
        }
    }
}

impl fmt::Display for Pattern {
    /// Renders the pattern in the paper's notation, e.g.
    /// `s_trav(U) ⊙ r_trav(H) ⊕ s_trav(V) ⊙ r_acc(H, 1000) ⊙ s_trav(W)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn fmt_u(f: &mut fmt::Formatter<'_>, r: &Region, u: u64) -> fmt::Result {
            if u == r.w {
                write!(f, "{r}")
            } else {
                write!(f, "{r}, u={u}")
            }
        }
        match self {
            Pattern::STrav { r, u, latency } => {
                let sup = match latency {
                    LatencyClass::Sequential => "",
                    LatencyClass::Random => "ʳ",
                };
                write!(f, "s_trav{sup}(")?;
                fmt_u(f, r, *u)?;
                write!(f, ")")
            }
            Pattern::RsTrav { r, u, k, dir, .. } => {
                let d = match dir {
                    Direction::Uni => "uni",
                    Direction::Bi => "bi",
                };
                write!(f, "rs_trav({k}, {d}, ")?;
                fmt_u(f, r, *u)?;
                write!(f, ")")
            }
            Pattern::RTrav { r, u } => {
                write!(f, "r_trav(")?;
                fmt_u(f, r, *u)?;
                write!(f, ")")
            }
            Pattern::RrTrav { r, u, k } => {
                write!(f, "rr_trav({k}, ")?;
                fmt_u(f, r, *u)?;
                write!(f, ")")
            }
            Pattern::RAcc { r, u, accesses } => {
                write!(f, "r_acc(")?;
                fmt_u(f, r, *u)?;
                write!(f, ", {accesses})")
            }
            Pattern::Nest { r, m, local, order } => {
                let l = match local {
                    LocalPattern::SeqTraversal { .. } => "s_trav",
                    LocalPattern::RandTraversal { .. } => "r_trav",
                };
                let g = match order {
                    GlobalOrder::Sequential(Direction::Uni) => "seq/uni",
                    GlobalOrder::Sequential(Direction::Bi) => "seq/bi",
                    GlobalOrder::Random => "rnd",
                };
                write!(f, "nest({r}, {m}, {l}, {g})")
            }
            Pattern::Repeat { k, inner } => {
                if inner.is_basic() {
                    write!(f, "{k} × {inner}")
                } else {
                    write!(f, "{k} × ({inner})")
                }
            }
            Pattern::Seq(ps) => {
                if ps.is_empty() {
                    return write!(f, "ε");
                }
                let mut first = true;
                for p in ps {
                    if !first {
                        write!(f, " ⊕ ")?;
                    }
                    first = false;
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Pattern::Conc(ps) => {
                let mut first = true;
                for p in ps {
                    if !first {
                        write!(f, " ⊙ ")?;
                    }
                    first = false;
                    // ⊙ binds tighter than ⊕: parenthesise nested ⊕.
                    if matches!(p, Pattern::Seq(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(name: &str) -> Region {
        Region::new(name, 100, 8)
    }

    #[test]
    fn display_basic_patterns() {
        assert_eq!(Pattern::s_trav(reg("U")).to_string(), "s_trav(U)");
        assert_eq!(Pattern::s_trav_u(reg("U"), 4).to_string(), "s_trav(U, u=4)");
        assert_eq!(Pattern::r_trav(reg("H")).to_string(), "r_trav(H)");
        assert_eq!(Pattern::r_acc(reg("H"), 500).to_string(), "r_acc(H, 500)");
        assert_eq!(
            Pattern::rs_trav(reg("V"), 3, Direction::Bi).to_string(),
            "rs_trav(3, bi, V)"
        );
        assert_eq!(
            Pattern::rr_trav(reg("V"), 8, 2).to_string(),
            "rr_trav(2, V)"
        );
        assert_eq!(
            Pattern::nest(
                reg("W"),
                64,
                LocalPattern::SeqTraversal {
                    u: 8,
                    latency: LatencyClass::Sequential
                },
                GlobalOrder::Random
            )
            .to_string(),
            "nest(W, 64, s_trav, rnd)"
        );
    }

    #[test]
    fn display_compound_with_precedence() {
        let u = reg("U");
        let h = reg("H");
        let w = reg("W");
        let p = Pattern::seq(vec![
            Pattern::conc(vec![Pattern::s_trav(u.clone()), Pattern::r_trav(h.clone())]),
            Pattern::conc(vec![Pattern::s_trav(w), Pattern::r_acc(h, 100)]),
        ]);
        assert_eq!(
            p.to_string(),
            "s_trav(U) ⊙ r_trav(H) ⊕ s_trav(W) ⊙ r_acc(H, 100)"
        );
    }

    #[test]
    fn seq_inside_conc_is_parenthesised() {
        let p = Pattern::conc(vec![
            Pattern::s_trav(reg("A")),
            Pattern::Seq(vec![Pattern::s_trav(reg("B")), Pattern::s_trav(reg("C"))]),
        ]);
        assert_eq!(p.to_string(), "s_trav(A) ⊙ (s_trav(B) ⊕ s_trav(C))");
    }

    #[test]
    fn combinators_flatten() {
        let p = Pattern::seq(vec![
            Pattern::s_trav(reg("A")),
            Pattern::seq(vec![Pattern::s_trav(reg("B")), Pattern::s_trav(reg("C"))]),
        ]);
        match &p {
            Pattern::Seq(ps) => assert_eq!(ps.len(), 3),
            _ => panic!("expected Seq"),
        }
        let c = Pattern::conc(vec![
            Pattern::conc(vec![Pattern::s_trav(reg("A")), Pattern::s_trav(reg("B"))]),
            Pattern::s_trav(reg("C")),
        ]);
        match &c {
            Pattern::Conc(ps) => assert_eq!(ps.len(), 3),
            _ => panic!("expected Conc"),
        }
    }

    #[test]
    fn singleton_combinators_collapse() {
        let p = Pattern::seq(vec![Pattern::s_trav(reg("A"))]);
        assert!(p.is_basic());
        let c = Pattern::conc(vec![Pattern::r_trav(reg("A"))]);
        assert!(c.is_basic());
    }

    #[test]
    fn empty_compositions_are_the_noop_pattern() {
        // ⊕ and ⊙ of nothing are both the identity ε, not degenerate
        // Seq([]) / Conc([]) nodes with unspecified semantics.
        assert_eq!(Pattern::seq(vec![]), Pattern::empty());
        assert_eq!(Pattern::conc(vec![]), Pattern::empty());
        assert!(Pattern::empty().is_empty());
        assert!(!Pattern::empty().is_basic());
        assert_eq!(Pattern::empty().to_string(), "ε");
        assert!(Pattern::empty().leaves().is_empty());
        assert_eq!(Pattern::empty().region(), None);
    }

    #[test]
    fn noop_parts_are_dropped_from_compositions() {
        let a = Pattern::s_trav(reg("A"));
        // ε is the identity of both combinators.
        assert_eq!(
            Pattern::seq(vec![Pattern::empty(), a.clone(), Pattern::empty()]),
            a
        );
        assert_eq!(
            Pattern::conc(vec![Pattern::empty(), a.clone(), Pattern::empty()]),
            a
        );
        // A composition of nothing but ε collapses back to ε.
        assert_eq!(
            Pattern::conc(vec![Pattern::empty(), Pattern::empty()]),
            Pattern::empty()
        );
    }

    #[test]
    fn leaves_enumerates_in_order() {
        let p = Pattern::seq(vec![
            Pattern::conc(vec![Pattern::s_trav(reg("A")), Pattern::r_trav(reg("B"))]),
            Pattern::s_trav(reg("C")),
        ]);
        let names: Vec<String> = p
            .leaves()
            .iter()
            .map(|l| l.region().unwrap().name().to_string())
            .collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    #[should_panic(expected = "need 1 <= u <= R.w")]
    fn u_larger_than_width_rejected() {
        let _ = Pattern::s_trav_u(reg("A"), 9);
    }
}
