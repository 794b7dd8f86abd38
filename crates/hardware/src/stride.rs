//! Host-memory stride primitives shared by the native backend, the
//! vectorized kernel layer, and the host calibrator.
//!
//! Three consumers perform the same fundamental operation — walk a real
//! host buffer at a fixed stride, actually loading one word per step so
//! the optimizer cannot elide the traffic:
//!
//! * `gcm-engine`'s `NativeBackend` touches one word per cache line of
//!   every charged access,
//! * `gcm-engine`'s kernels sweep relations at tuple stride,
//! * `gcm-calibrate`'s host probes time exactly such sweeps to recover
//!   latencies and bandwidths.
//!
//! Keeping the stride loop in one tested helper means the kernel and the
//! calibrator can never drift apart: the loop the calibrator times is
//! the loop the backend charges. The software-prefetch hints the
//! engine's kernels issue live here too, beside the other host-memory
//! primitives.

/// Load one little-endian `u64` every `stride` bytes of `buf`, folding
/// the values with wrapping addition; returns `(fold, steps)`. Steps
/// are taken while a full 8-byte word fits, i.e.
/// `steps = ⌊(len − 8)/stride⌋ + 1` for `len ≥ 8` (0 otherwise).
///
/// The fold result is returned (rather than discarded internally) so
/// callers can [`std::hint::black_box`] it — the loads must survive
/// optimization for both the charged backend and the timed calibrator.
#[inline]
pub fn sweep_fold(buf: &[u8], stride: usize) -> (u64, u64) {
    assert!(stride >= 8, "stride must cover the 8-byte word read");
    let mut acc = 0u64;
    let mut steps = 0u64;
    let mut off = 0usize;
    while off + 8 <= buf.len() {
        acc = acc.wrapping_add(u64::from_le_bytes(
            buf[off..off + 8].try_into().expect("8 bytes"),
        ));
        steps += 1;
        off += stride;
    }
    (acc, steps)
}

/// Number of `line`-byte cache lines the byte range
/// `[addr, addr + len)` touches (`line` a power of two, `len ≥ 1`) —
/// the one straddle rule every line-accounting site shares.
#[inline]
pub fn lines_touched(addr: u64, len: u64, line: u64) -> u64 {
    debug_assert!(line.is_power_of_two());
    debug_assert!(len >= 1);
    ((addr + len - 1) / line) - (addr / line) + 1
}

/// Software-prefetch the cache line holding `p` for a forthcoming
/// *read* (temporal, all levels). A hint only: never faults, never
/// counts as an access; compiles to nothing on non-x86-64 targets.
#[inline]
pub fn prefetch_read(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint; it cannot fault even on invalid
    // addresses (Intel SDM vol. 2B) — no memory is dereferenced.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Software-prefetch the line holding `p` for a forthcoming *write*.
/// x86-64 has no separate write-prefetch in baseline SSE, so this emits
/// the same T0 hint (bringing the line in shared state is still the
/// bulk of the win); a hint only, like [`prefetch_read`].
#[inline]
pub fn prefetch_write(p: *const u8) {
    prefetch_read(p);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_fold_counts_steps_and_sums() {
        // 4 words, stride 8: every word read once.
        let mut buf = Vec::new();
        for w in [1u64, 2, 3, 4] {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(sweep_fold(&buf, 8), (10, 4));
        // Stride 16: words 0 and 2 only.
        assert_eq!(sweep_fold(&buf, 16), (4, 2));
        // A 64-byte-line walk over 129 bytes touches 3 line heads
        // (offsets 0, 64, 128 — the last only if a word fits; 129 bytes
        // leave just 1 byte at offset 128, so 2 steps).
        let long = vec![0u8; 129];
        assert_eq!(sweep_fold(&long, 64).1, 2);
        let exact = vec![0u8; 136]; // offset 128 + 8 fits
        assert_eq!(sweep_fold(&exact, 64).1, 3);
        // Degenerate buffers take no steps.
        assert_eq!(sweep_fold(&[0u8; 7], 8), (0, 0));
        assert_eq!(sweep_fold(&[], 8), (0, 0));
    }

    #[test]
    fn lines_touched_handles_straddles() {
        // Aligned 8-byte access: one line.
        assert_eq!(lines_touched(4096, 8, 64), 1);
        // Access straddling a 64-byte boundary: two lines.
        assert_eq!(lines_touched(4156, 8, 64), 2);
        // Last in-line position: still one line.
        assert_eq!(lines_touched(4152, 8, 64), 1);
        // A full 4 KB span at line 64: 64 lines.
        assert_eq!(lines_touched(4096, 4096, 64), 64);
        // Unaligned full span: 65.
        assert_eq!(lines_touched(4100, 4096, 64), 65);
        // Sub-word accesses never touch zero lines.
        assert_eq!(lines_touched(4096, 1, 64), 1);
    }

    #[test]
    fn prefetch_hints_are_safe_on_any_address() {
        // Hints must not fault — even on null or dangling pointers.
        prefetch_read(std::ptr::null());
        prefetch_write(std::ptr::null());
        let v = [0u8; 8];
        prefetch_read(v.as_ptr());
    }
}
