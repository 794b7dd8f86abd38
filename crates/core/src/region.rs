//! Data regions (paper §3.1).
//!
//! A data region `R` is the unified description of a data structure: `R.n`
//! data items of `R.w` bytes each. A relational table is a region with
//! `R.n` = cardinality and `R.w` = tuple width; a tree is a region with
//! `R.n` = node count and `R.w` = node size; a hash table is a region of
//! buckets. `||R|| = R.n · R.w` is the region size and
//! `|R|_i = ⌈||R|| / B_i⌉` the number of level-`i` cache lines it covers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Identity of a region. Two patterns refer to *the same memory* exactly
/// when their regions share an id — that is what the cache-state rules of
/// §5.1 key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

/// A data region (paper §3.1), possibly a slice of a larger root region.
///
/// Slices keep the root's identity and total size: the evaluator's
/// cache-state bookkeeping measures cached fractions *of the root*, which
/// is what makes recursive patterns like quick-sort (repeated sweeps over
/// ever-smaller segments of one table) come out right.
///
/// The name is shared, not copied: a clone or slice allocates nothing.
/// Only the id carries identity; two regions created under one name are
/// still distinct memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    id: RegionId,
    name: Arc<str>,
    /// Number of data items `R.n` in this (slice of the) region.
    pub n: u64,
    /// Width `R.w` of one data item in bytes.
    pub w: u64,
    /// Size in bytes of the *root* region this is a slice of
    /// (`= n·w` for a non-slice).
    root_bytes: u64,
}

impl Region {
    /// A fresh region of `n` items of `w` bytes. `w` must be positive;
    /// `n = 0` is allowed (empty inputs are legal operator arguments).
    pub fn new(name: impl Into<Arc<str>>, n: u64, w: u64) -> Region {
        assert!(w > 0, "region width must be positive");
        Region {
            id: RegionId(NEXT_ID.fetch_add(1, Ordering::Relaxed)),
            name: name.into(),
            n,
            w,
            root_bytes: n * w,
        }
    }

    /// The region's identity.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The region's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `||R||`: size of this (slice of the) region in bytes.
    pub fn bytes(&self) -> u64 {
        self.n * self.w
    }

    /// Size in bytes of the root region.
    pub fn root_bytes(&self) -> u64 {
        self.root_bytes
    }

    /// `|R|` at line size `B`: number of cache lines covered.
    pub fn lines(&self, line: u64) -> f64 {
        (self.bytes() as f64 / line as f64).ceil()
    }

    /// A slice covering `1/denom` of this region's items (same identity,
    /// same root size). Used e.g. by the quick-sort pattern, where each
    /// recursion level runs concurrent traversals over segment halves.
    pub fn slice(&self, denom: u64) -> Region {
        assert!(denom > 0);
        Region {
            id: self.id,
            name: Arc::clone(&self.name),
            n: self.n / denom,
            w: self.w,
            root_bytes: self.root_bytes,
        }
    }

    /// A slice with an explicit item count (same identity, same root size).
    pub fn slice_items(&self, n: u64) -> Region {
        Region {
            id: self.id,
            name: Arc::clone(&self.name),
            n,
            w: self.w,
            root_bytes: self.root_bytes,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_lines() {
        let r = Region::new("R", 1000, 16);
        assert_eq!(r.bytes(), 16000);
        assert_eq!(r.lines(32), 500.0);
        assert_eq!(r.lines(64), 250.0);
        // Non-dividing line size rounds up.
        let r2 = Region::new("R2", 3, 10);
        assert_eq!(r2.lines(32), 1.0);
        assert_eq!(r2.lines(16), 2.0);
    }

    #[test]
    fn identities_are_unique_but_slices_share() {
        let a = Region::new("A", 10, 8);
        let b = Region::new("B", 10, 8);
        assert_ne!(a.id(), b.id());
        let half = a.slice(2);
        assert_eq!(half.id(), a.id());
        assert_eq!(half.n, 5);
        assert_eq!(half.root_bytes(), 80);
        assert_eq!(half.bytes(), 40);
    }

    #[test]
    fn slice_items_and_reinterpret() {
        let a = Region::new("A", 16, 16);
        let s = a.slice_items(4);
        assert_eq!(s.n, 4);
        assert_eq!(s.root_bytes(), 256);
        assert_eq!(s.id(), a.id());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = Region::new("bad", 10, 0);
    }

    #[test]
    fn empty_region_is_legal() {
        let r = Region::new("empty", 0, 8);
        assert_eq!(r.bytes(), 0);
        assert_eq!(r.lines(64), 0.0);
    }
}
