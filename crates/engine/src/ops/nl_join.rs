//! Nested-loop join: the baseline join (paper §3.2's binary-operator
//! discussion): the outer input is swept once, the inner input once per
//! outer tuple — `s_trav(U) ⊙ rs_trav(U.n, uni, V) ⊙ s_trav(W)`.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::Relation;

/// Join `u ⋈ v` by scanning `v` once per tuple of `u`. Quadratic: use
/// only as the model's baseline comparator. The output starts at `|U|`
/// tuples, doubles in place past that, and is sealed to the match count
/// of the one charged pass.
pub fn nested_loop_join<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    out_name: &str,
    out_w: u64,
) -> Relation {
    let mut out = ctx.tail_output(u.n(), out_w);
    let mut cursor = 0u64;
    for i in 0..u.n() {
        let ku = ctx.read_tuple(u, i);
        for j in 0..v.n() {
            let kv = ctx.read_tuple(v, j);
            ctx.count_ops(1);
            if kv == ku {
                ctx.write_tail(&mut out, cursor, ku);
                cursor += 1;
            }
        }
    }
    ctx.seal(out, out_name, cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_core::library;
    use gcm_hardware::presets;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn finds_all_matches() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 2, 9], 8);
        let v = c.relation_from_keys("V", &[2, 1, 2], 8);
        let out = nested_loop_join(&mut c, &u, &v, "W", 16);
        // key 1: 1 match; each key-2 outer tuple: 2 matches → 5 total.
        assert_eq!(out.n(), 5);
    }

    #[test]
    fn no_matches() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1], 8);
        let v = c.relation_from_keys("V", &[2], 8);
        assert_eq!(nested_loop_join(&mut c, &u, &v, "W", 16).n(), 0);
    }

    #[test]
    fn inner_fitting_cache_pays_once() {
        // Inner table within L1: repeated sweeps cost no further misses
        // (the rs_trav branch of Eq 4.6).
        let mut c = ctx();
        let uk: Vec<u64> = (0..64).collect();
        let vk: Vec<u64> = (0..64).collect();
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8); // 512 B < 2 KB L1
        c.cold_caches();
        let (_, stats) = c.measure(|c| {
            nested_loop_join(c, &u, &v, "W", 16);
        });
        let l1 = c.mem.spec().level_index("L1").unwrap();
        // v: 16 lines once; u: 16 lines; out: 64 tuples × 16 B = 32 lines.
        assert!(
            stats.misses_at(l1) < 100,
            "L1 misses {} should stay near compulsory",
            stats.misses_at(l1)
        );
    }

    #[test]
    fn pattern_renders() {
        let mut c = ctx();
        let u = c.relation("U", 10, 8);
        let v = c.relation("V", 20, 8);
        let w = c.relation("W", 10, 16);
        assert_eq!(
            library::nested_loop_join(u.region().clone(), v.region().clone(), w.region().clone())
                .to_string(),
            "s_trav(U) ⊙ rs_trav(10, uni, V) ⊙ s_trav(W)"
        );
    }
}
