//! The simulated address space.
//!
//! A bump allocator over a real `Vec<u8>` backing store: simulated
//! addresses are offsets into the store, so database operators read and
//! write real bytes (their results are testable) while the
//! [`crate::MemorySystem`] accounts for the cache behaviour of every
//! access.

use crate::Addr;

/// Base of the simulated address space. Non-zero so that address 0 can act
/// as a null pointer in engine data structures (e.g. hash-chain ends).
pub const ARENA_BASE: Addr = 4096;

/// A growable simulated address space with real backing bytes.
#[derive(Debug, Default)]
pub struct Arena {
    data: Vec<u8>,
    next: Addr,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            data: Vec::new(),
            next: ARENA_BASE,
        }
    }

    /// Allocate `bytes` bytes aligned to `align` (must be a power of two).
    /// Returns the simulated address of the first byte.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        self.set_high_water(addr + bytes);
        addr
    }

    /// Allocate with a deliberate byte offset past an `align`-boundary:
    /// `alloc_offset(n, 64, 3)` returns an address `≡ 3 (mod 64)`.
    ///
    /// The alignment experiments of the paper's §4.2 (Figure 5) place a
    /// region at every possible offset within a cache line; this is the
    /// hook that makes that possible.
    pub fn alloc_offset(&mut self, bytes: u64, align: u64, offset: u64) -> Addr {
        let base = self.alloc(bytes + offset, align);
        base + offset
    }

    /// Move the bump pointer to `end`, resizing the last allocation in
    /// place; returns the previous high-water mark. Bytes past the
    /// pointer are never written (every write lands inside an
    /// allocation), so bytes a shrink hands back are still zero when a
    /// later allocation or a regrowth reuses them.
    pub fn set_high_water(&mut self, end: Addr) -> Addr {
        assert!(end >= ARENA_BASE, "high-water mark {end} below arena base");
        let needed = (end - ARENA_BASE) as usize;
        if self.data.len() < needed {
            self.data.resize(needed, 0);
        }
        std::mem::replace(&mut self.next, end)
    }

    #[inline]
    fn idx(&self, addr: Addr) -> usize {
        debug_assert!(addr >= ARENA_BASE, "address {addr} below arena base");
        (addr - ARENA_BASE) as usize
    }

    /// The `len` bytes starting at `addr`, borrowed where they lie
    /// (host-side; no simulation).
    #[inline]
    pub fn bytes(&self, addr: Addr, len: u64) -> &[u8] {
        let i = self.idx(addr);
        &self.data[i..i + len as usize]
    }

    /// The `len` bytes starting at `addr`, borrowed writable (host-side;
    /// no simulation).
    #[inline]
    pub fn bytes_mut(&mut self, addr: Addr, len: u64) -> &mut [u8] {
        let i = self.idx(addr);
        &mut self.data[i..i + len as usize]
    }

    /// Read a little-endian `u64` at `addr` (host-side).
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let i = self.idx(addr);
        u64::from_le_bytes(self.data[i..i + 8].try_into().expect("8 bytes"))
    }

    /// Write a little-endian `u64` at `addr` (host-side).
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        let i = self.idx(addr);
        self.data[i..i + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Copy `len` bytes from `src` to `dst` within the arena (host-side).
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        let s = self.idx(src);
        let d = self.idx(dst);
        self.data.copy_within(s..s + len as usize, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut a = Arena::new();
        let p1 = a.alloc(10, 64);
        assert_eq!(p1 % 64, 0);
        let p2 = a.alloc(1, 128);
        assert_eq!(p2 % 128, 0);
        assert!(p2 >= p1 + 10);
    }

    #[test]
    fn alloc_offset_lands_off_boundary() {
        let mut a = Arena::new();
        for off in 0..32 {
            let p = a.alloc_offset(100, 32, off);
            assert_eq!(p % 32, off);
        }
    }

    #[test]
    fn u64_roundtrip() {
        let mut a = Arena::new();
        let p = a.alloc(64, 8);
        a.write_u64(p, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_u64(p), 0xDEAD_BEEF_CAFE_F00D);
        a.write_u64(p + 8, 42);
        assert_eq!(a.read_u64(p), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_u64(p + 8), 42);
    }

    #[test]
    fn byte_roundtrip_and_copy() {
        let mut a = Arena::new();
        let src = a.alloc(16, 8);
        let dst = a.alloc(16, 8);
        a.bytes_mut(src, 16).copy_from_slice(b"hello world!!!!!");
        a.copy(src, dst, 16);
        assert_eq!(a.bytes(dst, 16), b"hello world!!!!!");
    }

    #[test]
    fn zero_initialised() {
        let mut a = Arena::new();
        let p = a.alloc(32, 8);
        assert_eq!(a.read_u64(p), 0);
        assert_eq!(a.read_u64(p + 24), 0);
    }

    #[test]
    fn allocated_tracks_high_water() {
        let mut a = Arena::new();
        assert_eq!(a.next, ARENA_BASE);
        a.alloc(100, 1);
        assert_eq!(a.next, ARENA_BASE + 100);
    }

    #[test]
    fn set_high_water_resizes_the_last_allocation() {
        let mut a = Arena::new();
        let p = a.alloc(64, 64);
        assert_eq!(a.set_high_water(p + 256), p + 64);
        a.write_u64(p + 8, 9);
        assert_eq!(a.set_high_water(p + 16), p + 256);
        // The next allocation starts where an exact 16-byte one would,
        // over zeroed bytes; the kept prefix is intact.
        let q = a.alloc(8, 8);
        assert_eq!(q, p + 16);
        assert_eq!((a.read_u64(q), a.read_u64(p + 8)), (0, 9));
        assert_eq!(a.next, p + 24);
    }
}
