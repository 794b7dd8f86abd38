//! Partitioned hash-join (paper §6.2, Figure 7e).
//!
//! Both inputs are radix-partitioned on the join key with the same fan-out;
//! matching partition pairs are then hash-joined independently. Once each
//! partition's hash table fits in a cache level, the random probe traffic
//! stays inside that level — the cache-conscious join of
//! [SKN94, MBK00a] whose cost model this paper automates:
//!
//! ```text
//! part_hash_join(U, V) = partition(U, m) ⊕ partition(V, m)
//!                      ⊕ ⊕_{j=1}^{m} hash_join(U_j, V_j)
//! ```

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::hash::{build_hash, hash_join_with_table, table_slots, ENTRY_BYTES};
use crate::ops::partition::{radix_partition, radix_partition_pattern, Partitioned};
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Join `u ⋈ v` via `2^bits`-way single-pass partitioning; returns the
/// concatenated match output (one `out_w`-byte tuple per matching pair).
pub fn part_hash_join<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    bits: u32,
    out_name: &str,
    out_w: u64,
) -> Relation {
    let pu = radix_partition(ctx, u, bits, 1, &format!("{out_name}.Up"));
    let pv = radix_partition(ctx, v, bits, 1, &format!("{out_name}.Vp"));
    join_partitions(ctx, &pu, &pv, out_name, out_w)
}

/// The join phase only: hash-join each matching partition pair of two
/// already-partitioned inputs (the experiment of Figure 7e, which sweeps
/// the partition size with the partitioning cost excluded).
pub fn join_partitions<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    pu: &Partitioned,
    pv: &Partitioned,
    out_name: &str,
    out_w: u64,
) -> Relation {
    assert_eq!(pu.m(), pv.m(), "fan-outs must match");
    let m = pu.m();
    // Join each partition pair into per-partition outputs (each sized by
    // its own probe), then expose them as one relation whose size is the
    // sum of theirs.
    let mut results: Vec<Relation> = Vec::with_capacity(m as usize);
    let dist = ctx.mem.prefetch_distance();
    for j in 0..m {
        // Warm-ahead: while pair j is joined, hint the first lines of
        // the *next* pair's inputs (the per-pair build and probe inside
        // the loop body carry their own N-ahead prefetching).
        if dist > 0 && j + 1 < m {
            let (un, vn) = (pu.part(j + 1), pv.part(j + 1));
            if un.n() > 0 {
                ctx.mem.prefetch_read(un.tuple(0));
            }
            if vn.n() > 0 {
                ctx.mem.prefetch_read(vn.tuple(0));
            }
        }
        let uj = pu.part(j);
        let vj = pv.part(j);
        let table = build_hash(ctx, &vj, &format!("{out_name}.H{j}"));
        let out_j = hash_join_with_table(ctx, &uj, &table, &format!("{out_name}.{j}"), out_w);
        results.push(out_j);
    }
    // Concatenate results into a single dense output relation.
    let total: u64 = results.iter().map(Relation::n).sum();
    let out = ctx.relation(out_name, total, out_w);
    let mut cursor = 0u64;
    for r in &results {
        for i in 0..r.n() {
            // Host-side concatenation: the per-partition writes were
            // already simulated; this is bookkeeping, not algorithm.
            let key = ctx.mem.host_read_u64(r.tuple(i));
            ctx.mem.host_write_u64(out.tuple(cursor), key);
            cursor += 1;
        }
    }
    out
}

/// Pattern of [`part_hash_join`]:
/// `partition(U,m) ⊕ partition(V,m) ⊕ ⊕_j hash_join(U_j, V_j, H_j, W_j)`.
///
/// The per-partition input/output regions are uniform slices of their
/// parents, `m = 2^bits` of them; each partition's hash table is a
/// fresh region sized by [`table_slots`] for `V.n/m` entries.
pub fn part_hash_join_pattern(
    u: &Region,
    v: &Region,
    w: &Region,
    bits: u32,
    u_parted: &Region,
    v_parted: &Region,
) -> Pattern {
    let mut phases = vec![
        radix_partition_pattern(u, u_parted, bits, 1),
        radix_partition_pattern(v, v_parted, bits, 1),
    ];
    let m = 1u64 << bits;
    let slots = table_slots(v.n >> bits);
    let parts = (0..m)
        .map(|j| {
            (
                u_parted.slice(m),
                v_parted.slice(m),
                Region::new(format!("H{j}"), slots, ENTRY_BYTES),
                w.slice(m),
            )
        })
        .collect();
    phases.push(library::partitioned_hash_join(parts));
    Pattern::seq(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::hash::hash_join;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn joins_one_to_one_like_plain_hash_join() {
        let mut c = ctx();
        let (uk, vk) = Workload::new(20).join_pair(1000);
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8);
        let out = part_hash_join(&mut c, &u, &v, 3, "W", 16);
        assert_eq!(out.n(), 1000);
        let mut keys: Vec<u64> = (0..1000)
            .map(|i| c.mem.host().read_u64(out.tuple(i)))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn matches_plain_hash_join_results() {
        let mut c = ctx();
        let uk = Workload::new(21).uniform_keys_bounded(400, 300);
        let vk = Workload::new(22).uniform_keys_bounded(300, 300);
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8);
        let plain = hash_join(&mut c, &u, &v, "Wp", 16);
        let parted = part_hash_join(&mut c, &u, &v, 2, "Wq", 16);
        assert_eq!(plain.n(), parted.n());
        let mut a: Vec<u64> = (0..plain.n())
            .map(|i| c.mem.host().read_u64(plain.tuple(i)))
            .collect();
        let mut b: Vec<u64> = (0..parted.n())
            .map(|i| c.mem.host().read_u64(parted.tuple(i)))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn single_partition_degenerates_to_hash_join() {
        let mut c = ctx();
        let (uk, vk) = Workload::new(23).join_pair(200);
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8);
        let out = part_hash_join(&mut c, &u, &v, 0, "W", 16);
        assert_eq!(out.n(), 200);
    }

    #[test]
    fn partitioning_cuts_probe_misses_on_big_tables() {
        // The headline crossover (Fig 7e): with H ≫ L2, partitioned join
        // takes fewer L2 misses than the plain one.
        let n = 16_384usize; // H = 512 KB vs tiny L2 = 16 KB
        let l2_misses = |bits: Option<u32>| {
            let mut c = ctx();
            let (uk, vk) = Workload::new(24).join_pair(n);
            let u = c.relation_from_keys("U", &uk, 8);
            let v = c.relation_from_keys("V", &vk, 8);
            c.cold_caches();
            let (_, stats) = c.measure(|c| match bits {
                None => {
                    hash_join(c, &u, &v, "W", 16);
                }
                Some(bits) => {
                    part_hash_join(c, &u, &v, bits, "W", 16);
                }
            });
            let l2 = c.mem.spec().level_index("L2").unwrap();
            stats.misses_at(l2)
        };
        let plain = l2_misses(None);
        let parted = l2_misses(Some(6)); // 64 ways: per-partition H = 8 KB < L2
        assert!(
            parted < plain,
            "partitioned join must save L2 misses: {parted} vs {plain}"
        );
    }

    #[test]
    fn pattern_renders_three_phases() {
        let mut c = ctx();
        let u = c.relation("U", 1000, 8);
        let v = c.relation("V", 1000, 8);
        let w = c.relation("W", 1000, 16);
        let up = c.relation("Up", 1000, 8);
        let vp = c.relation("Vp", 1000, 8);
        let p = part_hash_join_pattern(
            u.region(),
            v.region(),
            w.region(),
            2,
            up.region(),
            vp.region(),
        );
        let s = p.to_string();
        assert!(s.contains("nest(Up, 4"));
        assert!(s.contains("nest(Vp, 4"));
        assert!(s.contains("r_acc(H0"));
        assert!(s.contains("r_acc(H3"));
    }

    #[test]
    fn empty_inputs() {
        let mut c = ctx();
        let u = c.relation("U", 0, 8);
        let v = c.relation("V", 0, 8);
        let out = part_hash_join(&mut c, &u, &v, 2, "W", 16);
        assert_eq!(out.n(), 0);
    }
}
