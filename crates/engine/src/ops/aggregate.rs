//! Aggregation and duplicate elimination (paper §3.2: "usually
//! implemented using sorting or hashing; thus, they perform the
//! respective patterns").
//!
//! Hash group-count's aggregating pass and emit sweep are one call into
//! the backend ([`MemoryBackend::group_count_bulk`]); its scalar loop
//! lives here.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::hash::{HashTable, EMPTY, ENTRY_BYTES};
use crate::ops::sort::quick_sort;
use crate::ops::{mix, word};
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Hash-based group-by count: returns a relation of `(group_key, count)`
/// pairs (width 16), in table order.
///
/// The table is sized from an exact [`distinct_count`] of the input,
/// read over one host-side view of it: its capacity fixes the slot
/// layout, hence the emit order and the priced `H` region, so an upper
/// bound would not do here. The output's size is then known too, so it
/// is allocated right after the table, before any charged access. The
/// aggregating pass and the emit sweep are the backend's
/// [`group_count_bulk`](MemoryBackend::group_count_bulk):
/// `group_count_scalar` on the simulator, one kernel over the slab on
/// native memory, where the upsert's random table line N tuples ahead
/// is software-prefetched.
pub fn hash_group_count<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    out_name: &str,
) -> Relation {
    let tuples = ctx.relation_view(input).chunks_exact(input.w() as usize);
    let distinct = distinct_count(tuples.map(|t| word(t, 0)));
    let table = HashTable::alloc(ctx, &format!("H({out_name})"), distinct.max(1));
    let out = ctx.relation(out_name, distinct, 16);
    let ops = ctx.mem.group_count_bulk(input, table.slots(), &out);
    ctx.count_ops(ops);
    out
}

/// The scalar group-count, the default of
/// [`MemoryBackend::group_count_bulk`] and the native scalar reference.
/// Upsert: touch each tuple of `input` entirely, then add one to its
/// key's count in the counting table whose slots are `slots`, inserting
/// the key with count 1 if absent (linear probing). Emit: sweep the
/// slots with a charged read each, and write every occupied one's
/// `(key, count)` sequentially into `out` (a charged read of the count,
/// a touch of the output tuple). Returns the logical ops counted: one
/// per tuple, one per slot probed and one per group emitted.
pub(crate) fn group_count_scalar<B: MemoryBackend + ?Sized>(
    mem: &mut B,
    input: &Relation,
    slots: &Relation,
    out: &Relation,
) -> u64 {
    let mask = slots.n() - 1;
    let mut ops = 0u64;
    for i in 0..input.n() {
        let addr = input.tuple(i);
        mem.touch(addr, input.w());
        let key = mem.host_read_u64(addr);
        ops += 1;
        let mut slot = mix(key) & mask;
        loop {
            let at = slots.tuple(slot);
            let resident = mem.read_u64(at);
            ops += 1;
            if resident == key {
                let c = mem.read_u64(at + 8);
                mem.write_u64(at + 8, c + 1);
                break;
            }
            if resident == EMPTY {
                mem.touch(at, ENTRY_BYTES);
                mem.host_write_u64(at, key);
                mem.host_write_u64(at + 8, 1);
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    let mut cursor = 0u64;
    for s in 0..slots.n() {
        let at = slots.tuple(s);
        let key = mem.read_u64(at);
        if key != EMPTY {
            let count = mem.read_u64(at + 8);
            let to = out.tuple(cursor);
            mem.touch(to, 16);
            mem.host_write_u64(to, key);
            mem.host_write_u64(to + 8, count);
            ops += 1;
            cursor += 1;
        }
    }
    debug_assert_eq!(cursor, out.n());
    ops
}

/// Key span per input tuple up to which [`distinct_count`] uses a
/// bitmap: at most `64·n` bits, i.e. one word per input tuple.
pub const BITMAP_SPAN_PER_KEY: u64 = 64;

/// Exact number of distinct values among `keys` (keys other than
/// [`EMPTY`]), read host-side: the sizing sweep of [`hash_group_count`],
/// over one view of its input. Which of two exact counts runs follows
/// from the input alone. When the key span `max − min` is at most
/// [`BITMAP_SPAN_PER_KEY`]`·n`, a min/max sweep, a sweep setting bits in
/// a bitmap of the span and a count of the bits set; otherwise an
/// open-addressing set over [`mix`], doubled at load ½.
pub fn distinct_count(keys: impl Iterator<Item = u64> + Clone) -> u64 {
    let (mut n, mut min, mut max) = (0u64, u64::MAX, 0u64);
    for k in keys.clone() {
        n += 1;
        min = min.min(k);
        max = max.max(k);
    }
    if n == 0 {
        return 0;
    }
    let span = max - min;
    if span <= BITMAP_SPAN_PER_KEY.saturating_mul(n) {
        let mut bits = vec![0u64; (span / 64 + 1) as usize];
        for k in keys {
            let off = k - min;
            bits[(off / 64) as usize] |= 1u64 << (off % 64);
        }
        return bits.iter().map(|b| u64::from(b.count_ones())).sum();
    }
    let mut slots = vec![EMPTY; 16];
    let mut distinct = 0u64;
    for k in keys {
        if 2 * (distinct + 1) > slots.len() as u64 {
            let grown = vec![EMPTY; 2 * slots.len()];
            let old = std::mem::replace(&mut slots, grown);
            for k in old.into_iter().filter(|&k| k != EMPTY) {
                set_insert(&mut slots, k);
            }
        }
        distinct += u64::from(set_insert(&mut slots, k));
    }
    distinct
}

/// Insert `key` into an open-addressing set of `EMPTY`-filled slots
/// (linear probing, power-of-two length); true if it was absent.
fn set_insert(slots: &mut [u64], key: u64) -> bool {
    debug_assert_ne!(key, EMPTY);
    let mask = slots.len() as u64 - 1;
    let mut slot = mix(key) & mask;
    loop {
        let resident = &mut slots[slot as usize];
        if *resident == key {
            return false;
        }
        if *resident == EMPTY {
            *resident = key;
            return true;
        }
        slot = (slot + 1) & mask;
    }
}

/// Pattern of [`hash_group_count`]:
/// `s_trav(U) ⊙ r_acc(H, U.n) ⊕ s_trav(H) ⊙ s_trav(W)`.
pub fn hash_group_pattern(input: &Region, h: &Region, output: &Region) -> Pattern {
    library::hash_aggregate(input.clone(), h.clone(), output.clone())
}

/// Sort-based duplicate elimination: sorts the input in place, then
/// emits each distinct key once.
pub fn sort_dedup<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    out_name: &str,
) -> Relation {
    quick_sort(ctx, input);
    // At most one output tuple per input tuple: allocate at `|U|` and
    // seal to the distinct count the emitting pass produces.
    let out = ctx.tail_output(input.n(), input.w());
    let mut cursor = 0u64;
    let mut prev = None;
    for i in 0..input.n() {
        let k = ctx.read_tuple(input, i);
        ctx.count_ops(1);
        if prev != Some(k) {
            ctx.mem.copy(input.tuple(i), out.tuple(cursor), input.w());
            cursor += 1;
            prev = Some(k);
        }
    }
    ctx.seal(out, out_name, cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn group_counts_are_exact() {
        let mut c = ctx();
        let input = c.relation_from_keys("U", &[3, 1, 3, 2, 3, 1], 8);
        let out = hash_group_count(&mut c, &input, "G");
        assert_eq!(out.n(), 3);
        let mut groups: Vec<(u64, u64)> = (0..3)
            .map(|i| {
                (
                    c.mem.host().read_u64(out.tuple(i)),
                    c.mem.host().read_u64(out.tuple(i) + 8),
                )
            })
            .collect();
        groups.sort_unstable();
        assert_eq!(groups, [(1, 2), (2, 1), (3, 3)]);
    }

    #[test]
    fn group_count_skewed_input() {
        let mut c = ctx();
        let keys = Workload::new(30).zipf_keys(2000, 50, 1.0);
        let input = c.relation_from_keys("U", &keys, 8);
        let out = hash_group_count(&mut c, &input, "G");
        let total: u64 = (0..out.n())
            .map(|i| c.mem.host().read_u64(out.tuple(i) + 8))
            .sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut c = ctx();
        let input = c.relation_from_keys("U", &[5, 1, 5, 2, 1, 1], 8);
        let out = sort_dedup(&mut c, &input, "D");
        assert_eq!(out.n(), 3);
        let got: Vec<u64> = (0..3)
            .map(|i| c.mem.host().read_u64(out.tuple(i)))
            .collect();
        assert_eq!(got, [1, 2, 5]);
    }

    #[test]
    fn dedup_of_distinct_keys_is_identity_sized() {
        let mut c = ctx();
        let keys = Workload::new(31).shuffled_keys(500);
        let input = c.relation_from_keys("U", &keys, 8);
        let out = sort_dedup(&mut c, &input, "D");
        assert_eq!(out.n(), 500);
    }

    #[test]
    fn patterns_render() {
        let mut c = ctx();
        let u = c.relation("U", 100, 8);
        let h = c.relation("H", 64, 16);
        let w = c.relation("W", 32, 16);
        assert!(hash_group_pattern(u.region(), h.region(), w.region())
            .to_string()
            .contains("r_acc(H"));
        assert!(
            library::sort_aggregate(u.region().clone(), w.region().clone())
                .to_string()
                .contains("⊕")
        );
    }
}
