//! Vectorized kernels: SIMD scan/filter/aggregate primitives and the
//! software-prefetch policy, underneath the [`MemoryBackend`] trait.
//!
//! The paper's native validation path (`NativeBackend`) historically
//! mirrored the model's *accounting* — one black-boxed 8-byte load per
//! 64-byte line — which makes it instruction-bound where real engines
//! are bandwidth-bound. This module supplies the "as fast as the
//! hardware allows" execution, which the model prices by the same
//! Eq 6.1 at the kernel-calibrated per-op cost
//! (`crate::native::calibrate_kernel_per_op_ns`):
//!
//! * **SIMD sweeps** ([`sum_words`], [`lt_mask`]) process dense 8-byte
//!   keys in `u64x8`-style blocks. On x86-64 an AVX2 path is selected
//!   **at runtime** via [`is_x86_feature_detected!`]; otherwise —
//!   non-x86 target or no AVX2 at runtime — a scalar block-of-8 fallback
//!   runs, written so the autovectorizer can widen it. Both paths fold with
//!   wrapping addition, which is associative and commutative, so every
//!   dispatch returns **bit-identical** results.
//! * **Software prefetch** for the cache-hostile operators (hash build,
//!   probe and group-count upsert, radix/hash scatter): each hints the
//!   line it will need [`PREFETCH_DISTANCE`] items ahead. The distance is
//!   a constant: distances 8–64 moved the served operators by under 5%,
//!   and Eq 6.1 prices a kernel by its pattern and per-op CPU term,
//!   never by a prefetch distance.
//! * **Hash loops** (build, probe, group-count) need no SIMD: what
//!   slows them on native memory is the charged per-access interface,
//!   so `NativeBackend` overrides the bulk hash entry points of
//!   [`MemoryBackend`] with loops over its slab that keep the access,
//!   line and op counts in registers. They live in `crate::native`, next
//!   to the slab they index.
//!
//! Kernels operate on raw byte slices (the native backend's slab is a
//! `Vec<u8>` with no 8-byte alignment guarantee), reading keys with
//! unaligned little-endian loads.
//!
//! [`MemoryBackend`]: crate::backend::MemoryBackend

#[cfg(target_arch = "x86_64")]
mod simd;

/// Which kernel implementation [`active`] selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Scalar block fallback (still autovectorizable).
    Scalar,
    /// Explicit AVX2 `u64x4`-pair (≙ `u64x8`) lanes.
    Simd,
}

/// The implementation this machine dispatches to: [`Dispatch::Simd`]
/// only when the target is x86-64 and the CPU reports AVX2 at runtime.
pub fn active() -> Dispatch {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Dispatch::Simd;
        }
    }
    Dispatch::Scalar
}

/// Software-prefetch distance (items ahead) of the native hash and
/// scatter kernels: 8 lines ahead hides ~80 ns of latency at ~6 B/ns —
/// the right order of magnitude for every machine in the paper's
/// Table 1 and for current commodity parts.
pub const PREFETCH_DISTANCE: u64 = 8;

/// Wrapping sum of the dense little-endian `u64` words of `buf`
/// (trailing bytes beyond the last full word are ignored), dispatched
/// per [`active`]. Bit-identical to a scalar left-to-right fold.
pub fn sum_words(buf: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified at runtime.
            return unsafe { simd::sum_words_avx2(buf) };
        }
    }
    sum_words_scalar(buf)
}

/// Scalar (block-of-8, autovectorizable) implementation of
/// [`sum_words`].
pub fn sum_words_scalar(buf: &[u8]) -> u64 {
    let mut lanes = [0u64; 8];
    let mut chunks = buf.chunks_exact(64);
    for c in chunks.by_ref() {
        for (l, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            *l = l.wrapping_add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
    }
    let mut acc = lanes.iter().fold(0u64, |a, l| a.wrapping_add(*l));
    for w in chunks.remainder().chunks_exact(8) {
        acc = acc.wrapping_add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    acc
}

/// Compare up to 64 dense little-endian `u64` keys in `buf` against
/// `threshold` (unsigned `<`); bit `j` of the result is set iff key `j`
/// qualifies. Dispatched per [`active`]; both paths agree bit-for-bit.
///
/// Panics if `buf` holds more than 64 whole words (the mask would
/// overflow).
pub fn lt_mask(buf: &[u8], threshold: u64) -> u64 {
    assert!(buf.len() <= 512, "lt_mask processes at most 64 keys");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified at runtime.
            return unsafe { simd::lt_mask_avx2(buf, threshold) };
        }
    }
    lt_mask_scalar(buf, threshold)
}

/// Scalar implementation of [`lt_mask`].
pub fn lt_mask_scalar(buf: &[u8], threshold: u64) -> u64 {
    let mut mask = 0u64;
    for (j, w) in buf.chunks_exact(8).enumerate() {
        if u64::from_le_bytes(w.try_into().expect("8 bytes")) < threshold {
            mask |= 1u64 << j;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(keys: &[u64]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(keys.len() * 8);
        for k in keys {
            buf.extend_from_slice(&k.to_le_bytes());
        }
        buf
    }

    #[test]
    fn sum_dispatch_matches_scalar_bit_for_bit() {
        // Odd lengths, wrap-around values, empty and sub-word buffers.
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            (0..7).collect(),
            (0..64).collect(),
            (0..1037u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            vec![u64::MAX; 513],
        ];
        for keys in cases {
            let buf = words(&keys);
            let reference = keys.iter().fold(0u64, |a, k| a.wrapping_add(*k));
            assert_eq!(sum_words_scalar(&buf), reference);
            assert_eq!(sum_words(&buf), reference, "n = {}", keys.len());
        }
        // Trailing partial word is ignored.
        let mut buf = words(&[1, 2]);
        buf.extend_from_slice(&[0xFF; 5]);
        assert_eq!(sum_words(&buf), 3);
    }

    #[test]
    fn lt_mask_dispatch_matches_scalar_bit_for_bit() {
        let keys: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
            .collect();
        let buf = words(&keys);
        for threshold in [0, 1, u64::MAX / 2, u64::MAX] {
            let scalar = lt_mask_scalar(&buf, threshold);
            assert_eq!(lt_mask(&buf, threshold), scalar, "t = {threshold}");
        }
        // Unsigned semantics: keys with the top bit set compare correctly.
        let high = words(&[u64::MAX, 0, 1 << 63]);
        assert_eq!(lt_mask(&high, 1 << 63), 0b010);
        assert_eq!(lt_mask_scalar(&high, 1 << 63), 0b010);
        // Partial chunks.
        assert_eq!(lt_mask(&words(&[3, 9, 4]), 5), 0b101);
        assert_eq!(lt_mask(&[], 5), 0);
    }

    #[test]
    fn active_dispatch_is_consistent_with_feature_and_cpu() {
        let d = active();
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(d, Dispatch::Scalar);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            d == Dispatch::Simd,
            std::arch::is_x86_feature_detected!("avx2")
        );
    }
}
