//! Explicit AVX2 implementations of the kernel primitives.
//!
//! Compiled only on x86-64; callers in
//! [`super`] verify AVX2 at runtime with [`is_x86_feature_detected!`]
//! before entering these `unsafe` functions. All loads are unaligned
//! (`loadu`) — the native slab carries no alignment guarantee.

use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_loadu_si256,
    _mm256_movemask_pd, _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_storeu_si256,
    _mm256_xor_si256,
};

/// Wrapping sum of the dense little-endian `u64` words of `buf` on two
/// `u64x4` accumulators (one `u64x8` block per iteration).
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[target_feature(enable = "avx2")]
pub unsafe fn sum_words_avx2(buf: &[u8]) -> u64 {
    let mut lo = _mm256_setzero_si256();
    let mut hi = _mm256_setzero_si256();
    let mut chunks = buf.chunks_exact(64);
    for c in chunks.by_ref() {
        let p = c.as_ptr() as *const __m256i;
        lo = _mm256_add_epi64(lo, _mm256_loadu_si256(p));
        hi = _mm256_add_epi64(hi, _mm256_loadu_si256(p.add(1)));
    }
    let folded = _mm256_add_epi64(lo, hi);
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, folded);
    let mut acc = lanes.iter().fold(0u64, |a, l| a.wrapping_add(*l));
    for w in chunks.remainder().chunks_exact(8) {
        acc = acc.wrapping_add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    acc
}

/// Unsigned `key < threshold` mask over up to 64 dense keys.
///
/// AVX2 has only a *signed* 64-bit compare; XOR-ing both sides with the
/// sign bit maps unsigned order onto signed order
/// (`a <u b ⟺ (a ^ 2⁶³) <s (b ^ 2⁶³)`).
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[target_feature(enable = "avx2")]
pub unsafe fn lt_mask_avx2(buf: &[u8], threshold: u64) -> u64 {
    debug_assert!(buf.len() <= 512);
    let bias = _mm256_set1_epi64x(i64::MIN);
    let t = _mm256_xor_si256(_mm256_set1_epi64x(threshold as i64), bias);
    let mut mask = 0u64;
    let mut j = 0u32;
    let mut chunks = buf.chunks_exact(32);
    for c in chunks.by_ref() {
        let keys = _mm256_xor_si256(_mm256_loadu_si256(c.as_ptr() as *const __m256i), bias);
        // key < t ⟺ t > key; movemask over the 4 lane sign bits.
        let gt = _mm256_cmpgt_epi64(t, keys);
        let bits = _mm256_movemask_pd(_mm256_castsi256_pd(gt)) as u64;
        mask |= bits << j;
        j += 4;
    }
    for w in chunks.remainder().chunks_exact(8) {
        if u64::from_le_bytes(w.try_into().expect("8 bytes")) < threshold {
            mask |= 1u64 << j;
        }
        j += 1;
    }
    mask
}
