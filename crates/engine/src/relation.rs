//! Relations: fixed-width tuples in backend memory.
//!
//! The engine is column-oriented in spirit (like the paper's Monet
//! platform): a [`Relation`] is a single dense array of `n` fixed-width
//! tuples whose first 8 bytes are a `u64` key and whose remaining
//! `w − 8` bytes are payload. That layout is exactly a data region in the
//! model's sense (§3.1), and every relation carries its [`Region`].
//!
//! A relation is addressed by `base + i·w` offsets into whichever
//! [`MemoryBackend`](crate::backend::MemoryBackend) allocated it —
//! simulated arena or native buffer — so the same `Relation` value works
//! unchanged on either substrate (both use the same [`Addr`] space and
//! bump-allocation rules).
//!
//! A [`Segment`] is a relation's bytes outside any backend: an immutable
//! image published once and shared by reference. A backend that can
//! address it maps it read-only in place
//! ([`MemoryBackend::map_segment`](crate::backend::MemoryBackend::map_segment));
//! one that cannot gets a host-side copy.

use gcm_core::Region;
use gcm_sim::Addr;
use std::sync::Arc;

/// Minimum tuple width: the 8-byte key.
pub const KEY_BYTES: u64 = 8;

/// A dense table of fixed-width tuples in simulated memory.
#[derive(Debug, Clone)]
pub struct Relation {
    base: Addr,
    n: u64,
    w: u64,
    region: Region,
}

impl Relation {
    /// Wrap an allocated range as a relation. `w ≥ 8` (the key).
    pub fn new(name: impl Into<Arc<str>>, base: Addr, n: u64, w: u64) -> Relation {
        assert!(w >= KEY_BYTES, "tuple width must hold the 8-byte key");
        Relation {
            base,
            n,
            w,
            region: Region::new(name, n, w),
        }
    }

    /// Base address of the first tuple.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Tuple count `R.n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Tuple width `R.w` in bytes.
    pub fn w(&self) -> u64 {
        self.w
    }

    /// Total size `||R||` in bytes.
    pub fn bytes(&self) -> u64 {
        self.n * self.w
    }

    /// The model region describing this relation.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Address of tuple `i`.
    #[inline]
    pub fn tuple(&self, i: u64) -> Addr {
        debug_assert!(i < self.n, "tuple index {i} out of {}", self.n);
        self.base + i * self.w
    }

    /// Address of tuple `i`'s key (same as [`Relation::tuple`]).
    #[inline]
    pub fn key_addr(&self, i: u64) -> Addr {
        self.tuple(i)
    }

    /// A view of the contiguous sub-range `[first, first+count)` as a
    /// relation sharing this relation's region identity (a model slice).
    pub fn subrange(&self, first: u64, count: u64) -> Relation {
        assert!(first + count <= self.n);
        Relation {
            base: self.base + first * self.w,
            n: count,
            w: self.w,
            region: self.region.slice_items(count),
        }
    }
}

/// Zero bytes kept past a [`Segment`]'s end, so a read of the last
/// line's first word stays in bounds whatever the tuple width (backend
/// arenas pad the same way).
const SEGMENT_PAD: usize = 64;

/// An immutable byte image — the tuples of a relation (key first, zero
/// payload) or a hash table's slot array — shared by reference between
/// every context that reads it. Cloning clones the `Arc`.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The image plus [`SEGMENT_PAD`] zero bytes.
    bytes: Arc<Vec<u8>>,
}

impl Segment {
    /// The image of `keys` as `w`-byte tuples: exactly the bytes
    /// [`ExecContext::relation_from_keys`](crate::ExecContext::relation_from_keys)
    /// leaves in memory. With `w == 8` it is the words themselves, which
    /// is how a hash layout ([`crate::ops::hash::build_layout`]) is
    /// published.
    pub fn from_keys(keys: &[u64], w: u64) -> Segment {
        assert!(w >= KEY_BYTES, "tuple width must hold the 8-byte key");
        let w = w as usize;
        let mut bytes = vec![0u8; keys.len() * w + SEGMENT_PAD];
        for (tuple, &k) in bytes.chunks_exact_mut(w).zip(keys) {
            tuple[..8].copy_from_slice(&k.to_le_bytes());
        }
        Segment {
            bytes: Arc::new(bytes),
        }
    }

    /// Length of the image in bytes.
    pub fn len(&self) -> u64 {
        (self.bytes.len() - SEGMENT_PAD) as u64
    }

    /// True for an empty image.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.bytes.len() - SEGMENT_PAD]
    }

    /// The image followed by its zero pad: what a backend reading whole
    /// lines in place indexes.
    pub(crate) fn padded(&self) -> &[u8] {
        &self.bytes
    }

    /// The little-endian word at byte offset `at`.
    pub fn word(&self, at: u64) -> u64 {
        let at = at as usize;
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_images_tuples_key_first() {
        let s = Segment::from_keys(&[7, 9], 16);
        assert_eq!(s.len(), 32);
        assert_eq!((s.word(0), s.word(8), s.word(16)), (7, 0, 9));
        assert_eq!(s.padded().len(), 32 + SEGMENT_PAD);
        assert!(Segment::from_keys(&[], 8).is_empty());
    }

    #[test]
    fn addressing() {
        let r = Relation::new("R", 4096, 10, 16);
        assert_eq!(r.tuple(0), 4096);
        assert_eq!(r.tuple(3), 4096 + 48);
        assert_eq!(r.bytes(), 160);
        assert_eq!(r.region().n, 10);
        assert_eq!(r.region().w, 16);
    }

    #[test]
    fn subrange_shares_region_identity() {
        let r = Relation::new("R", 4096, 100, 16);
        let s = r.subrange(10, 20);
        assert_eq!(s.base(), 4096 + 160);
        assert_eq!(s.n(), 20);
        assert_eq!(s.region().id(), r.region().id());
        assert_eq!(s.region().root_bytes(), 1600);
    }

    #[test]
    #[should_panic(expected = "tuple width must hold")]
    fn narrow_tuples_rejected() {
        let _ = Relation::new("bad", 0, 1, 4);
    }
}
