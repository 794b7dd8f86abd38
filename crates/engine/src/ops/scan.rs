//! Table scan, selection and projection: the purely sequential unary
//! operators (paper §3.2).

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::{Relation, KEY_BYTES};
use gcm_core::{library, Pattern, Region};

/// Scan the relation and sum the keys, touching `u` bytes of each tuple
/// (`u = 8` reads just the key; `u = rel.w()` reads whole tuples).
///
/// Routed through [`MemoryBackend::scan_sum_bulk`]: the simulator's
/// default replays the historical per-tuple charged loop bit-for-bit,
/// while the native backend substitutes a SIMD sweep for the dense
/// key-only case. Logical ops: one per tuple, on every backend.
pub fn scan_sum<B: MemoryBackend>(ctx: &mut ExecContext<B>, rel: &Relation, u: u64) -> u64 {
    let u = u.clamp(KEY_BYTES, rel.w());
    let sum = ctx.mem.scan_sum_bulk(rel.base(), rel.n(), rel.w(), u);
    ctx.count_ops(rel.n());
    sum
}

/// Pattern of [`scan_sum`]: `s_trav(U, u)`, with `u` clamped to the
/// *same* `[8, w]` range the executor enforces (it must read the 8-byte
/// key of every tuple, so `u < 8` still touches 8 bytes) — model and
/// executor can never disagree on the touched width.
pub fn scan_pattern(input: &Region, u: u64) -> Pattern {
    let lo = KEY_BYTES.min(input.w.max(1));
    Pattern::s_trav_u(input.clone(), u.clamp(lo, input.w.max(lo)))
}

/// Select tuples with `key < threshold` into a fresh output relation.
/// The output is allocated at the input's size and sealed to the hit
/// count the one charged pass returns (`ExecContext::seal`): exactly
/// the relation, addresses and bytes an exact-sized allocation gives,
/// with no extra pass over the input.
pub fn select_lt<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    rel: &Relation,
    threshold: u64,
    out_name: &str,
) -> Relation {
    let out = ctx.tail_output(rel.n(), rel.w());
    // Charged pass through the backend's bulk filter: the default is
    // the historical per-tuple touch-then-copy loop; the native backend
    // vectorizes the predicate. Logical ops: one per input tuple.
    let hits = ctx
        .mem
        .select_lt_bulk(rel.base(), rel.n(), rel.w(), threshold, out.base(), rel.w());
    ctx.count_ops(rel.n());
    ctx.seal(out, out_name, hits)
}

/// Pattern of [`select_lt`]: `s_trav(U) ⊙ s_trav(W)`.
pub fn select_pattern(input: &Region, output: &Region) -> Pattern {
    library::select(input.clone(), output.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn scan_sums_keys() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2, 3, 4], 16);
        assert_eq!(scan_sum(&mut c, &rel, 8), 10);
        assert_eq!(c.ops(), 4);
    }

    #[test]
    fn scan_narrow_touch_misses_less() {
        // u = 8 on wide tuples must touch fewer lines than u = w.
        let mut c = ctx();
        let keys: Vec<u64> = (0..512).collect();
        let rel = c.relation_from_keys("R", &keys, 128);
        let (_, narrow) = c.measure(|c| {
            scan_sum(c, &rel, 8);
        });
        c.cold_caches();
        let (_, full) = c.measure(|c| {
            scan_sum(c, &rel, 128);
        });
        assert!(narrow.mem.total_misses() < full.mem.total_misses());
    }

    #[test]
    fn select_filters_correctly() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[5, 1, 9, 3, 7], 16);
        let out = select_lt(&mut c, &rel, 6, "W");
        assert_eq!(out.n(), 3);
        let got: Vec<u64> = (0..3)
            .map(|i| c.mem.host().read_u64(out.tuple(i)))
            .collect();
        assert_eq!(got, [5, 1, 3]);
    }

    #[test]
    fn select_empty_result() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[5, 6], 16);
        let out = select_lt(&mut c, &rel, 0, "W");
        assert_eq!(out.n(), 0);
    }

    #[test]
    fn pattern_clamp_matches_executor_clamp() {
        // Regression: the executor reads at least the 8-byte key per
        // tuple, so the model must price u < 8 as u = 8 — previously it
        // clamped to [1, w] and under-predicted narrow scans.
        let r = Region::new("R", 1024, 128);
        for u in [0u64, 1, 4, 7] {
            assert_eq!(
                scan_pattern(&r, u).to_string(),
                scan_pattern(&r, 8).to_string(),
                "u = {u} must price like u = 8"
            );
        }
        // In range and above-w clamps are unchanged.
        assert_eq!(scan_pattern(&r, 64).to_string(), "s_trav(R, u=64)");
        // Clamped to u = w, which renders as a plain full-width s_trav.
        assert_eq!(scan_pattern(&r, 4096).to_string(), "s_trav(R)");
    }

    #[test]
    fn patterns_render() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2], 16);
        assert_eq!(scan_pattern(rel.region(), 8).to_string(), "s_trav(R, u=8)");
        let out = c.relation("W", 2, 16);
        assert!(select_pattern(rel.region(), out.region())
            .to_string()
            .contains("⊙"));
    }
}
