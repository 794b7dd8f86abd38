//! Aggregation and duplicate elimination (paper §3.2: "usually
//! implemented using sorting or hashing; thus, they perform the
//! respective patterns").
//!
//! Hash group-count's aggregating pass is one call into the backend
//! ([`MemoryBackend::group_count_bulk`]); its scalar loop lives here.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::hash::{HashTable, EMPTY, ENTRY_BYTES};
use crate::ops::mix;
use crate::ops::sort::quick_sort;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Hash-based group-by count: returns a relation of `(group_key, count)`
/// pairs (width 16), in table order.
///
/// The table is sized from an exact [`distinct_count`] of the input:
/// its capacity fixes the slot layout, hence the emit order and the
/// priced `H` region, so an upper bound would not do here. The
/// aggregating pass is the backend's
/// [`group_count_bulk`](MemoryBackend::group_count_bulk):
/// `group_count_scalar` on the simulator, the same loop over the slab
/// on native memory, where the upsert's random table line N tuples ahead
/// is software-prefetched for write.
pub fn hash_group_count<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    out_name: &str,
) -> Relation {
    let distinct = distinct_count(input.n(), |i| ctx.mem.host_read_u64(input.tuple(i)));
    let table = HashTable::alloc(ctx, &format!("H({out_name})"), distinct.max(1));
    let ops = ctx.mem.group_count_bulk(input, table.slots());
    ctx.count_ops(ops);
    // Emit: sweep the table, writing occupied slots out sequentially.
    let out = ctx.relation(out_name, distinct, 16);
    let mut cursor = 0u64;
    for s in 0..table.capacity() {
        let addr = table.slot_addr(s);
        let key = ctx.mem.read_u64(addr);
        if key != EMPTY {
            let count = ctx.mem.read_u64(addr + 8);
            ctx.mem.touch(out.tuple(cursor), 16);
            ctx.mem.host_write_u64(out.tuple(cursor), key);
            ctx.mem.host_write_u64(out.tuple(cursor) + 8, count);
            ctx.count_ops(1);
            cursor += 1;
        }
    }
    debug_assert_eq!(cursor, distinct);
    out
}

/// The scalar aggregating loop, the default of
/// [`MemoryBackend::group_count_bulk`] and the native scalar reference:
/// touch each tuple of `input` entirely, then add one to its key's count
/// in the counting table whose slots are `slots`, inserting the key with
/// count 1 if absent (linear probing). Returns the logical ops counted:
/// one per tuple and one per slot probed.
pub(crate) fn group_count_scalar<B: MemoryBackend + ?Sized>(
    mem: &mut B,
    input: &Relation,
    slots: &Relation,
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
    ops
}

/// Key span per input tuple up to which [`distinct_count`] uses a
/// bitmap: at most `64·n` bits, i.e. one word per input tuple.
pub const BITMAP_SPAN_PER_KEY: u64 = 64;

/// Exact number of distinct values among `key(0), …, key(n−1)` (keys
/// other than [`EMPTY`]), read host-side: the sizing sweep of
/// [`hash_group_count`]. Which of two exact counts runs follows from the
/// input alone. When the key span `max − min` is at most
/// [`BITMAP_SPAN_PER_KEY`]`·n`, a min/max sweep and a test-and-set sweep
/// over a bitmap of the span; otherwise an open-addressing set over
/// [`mix`], doubled at load ½.
pub fn distinct_count(n: u64, key: impl Fn(u64) -> u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let (mut min, mut max) = (u64::MAX, 0u64);
    for i in 0..n {
        let k = key(i);
        min = min.min(k);
        max = max.max(k);
    }
    let span = max - min;
    if span <= BITMAP_SPAN_PER_KEY.saturating_mul(n) {
        let mut bits = vec![0u64; (span / 64 + 1) as usize];
        let mut distinct = 0u64;
        for i in 0..n {
            let off = key(i) - min;
            let (word, bit) = (&mut bits[(off / 64) as usize], 1u64 << (off % 64));
            distinct += u64::from(*word & bit == 0);
            *word |= bit;
        }
        return distinct;
    }
    let mut slots = vec![EMPTY; 16];
    let mut distinct = 0u64;
    for i in 0..n {
        if 2 * (distinct + 1) > slots.len() as u64 {
            let grown = vec![EMPTY; 2 * slots.len()];
            let old = std::mem::replace(&mut slots, grown);
            for k in old.into_iter().filter(|&k| k != EMPTY) {
                set_insert(&mut slots, k);
            }
        }
        distinct += u64::from(set_insert(&mut slots, key(i)));
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
