//! The database operators of the paper's experiments (§6), each with:
//!
//! * `run(...)` — the real implementation, executing over simulated
//!   memory (results are bit-exact and tested against host-side
//!   references), and
//! * `pattern(...)` — its self-description in the access-pattern language
//!   (the paper's Table 2), from which [`gcm_core::CostModel`] derives the
//!   predicted cost.
//!
//! That pairing is the point of the reproduction: the validation
//! experiments compare the simulator-measured misses/time of `run` with
//! the model-predicted misses/time of `pattern`.

pub mod aggregate;
pub mod btree;
pub mod hash;
pub mod merge_join;
pub mod nl_join;
pub mod part_hash_join;
pub mod partition;
pub mod scan;
pub mod sort;

/// 64-bit finalizer (SplitMix64's) used as the engine's hash function: a
/// "good" hash in the paper's sense — it destroys any input order, which
/// is exactly why the model treats hash-table access as random (§3.2).
#[inline]
pub fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The little-endian word at index `i` of a host-side view.
#[inline]
pub(crate) fn word(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"))
}

/// Store `v` as the little-endian word at index `i` of a host-side view.
#[inline]
pub(crate) fn put_word(bytes: &mut [u8], i: usize, v: u64) {
    bytes[i..i + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::mix;

    #[test]
    fn mix_is_deterministic_and_spreading() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
        // Low bits of sequential keys must decorrelate.
        let mut buckets = [0u32; 16];
        for k in 0..16_000u64 {
            buckets[(mix(k) & 15) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "bucket {b}");
        }
    }
}
