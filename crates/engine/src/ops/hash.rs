//! Hash table and hash-join (paper §6.2, Figure 7c).
//!
//! The hash table is a single open-addressing region `H` (linear probing,
//! load factor ≤ ½) of 16-byte entries `[key, value]`. A "good" hash
//! function destroys any input order, so both building and probing hop
//! through `H` at effectively random positions — which is exactly how the
//! model describes them (§3.2):
//!
//! ```text
//! hash_join(U, V) = s_trav(V) ⊙ r_trav(H)            (build)
//!                 ⊕ s_trav(U) ⊙ r_acc(H, U.n) ⊙ s_trav(W)   (probe)
//! ```
//!
//! Build and probe each run as one call into the backend
//! ([`MemoryBackend::hash_build_bulk`], [`MemoryBackend::hash_probe_bulk`]);
//! this module holds their scalar loops, which are the simulator's
//! execution and the native backend's reference path.

use crate::backend::MemoryBackend;
use crate::ctx::{write_tail_at, ExecContext};
use crate::ops::mix;
use crate::relation::{Relation, Segment};
use gcm_core::{library, Pattern, Region};
use gcm_sim::Addr;

/// Sentinel key marking an empty slot. Workload keys must differ from it.
pub const EMPTY: u64 = u64::MAX;

/// Entry width: `[key: u64, value: u64]`.
pub const ENTRY_BYTES: u64 = 16;

/// Table capacity in slots for `items` entries at load factor ≤ ½: the
/// next power of two ≥ 2·items. The one sizing rule shared by the real
/// tables ([`HashTable::alloc`]) and every model-side table region, so
/// predictions can never drift from the executed table size.
pub fn table_slots(items: u64) -> u64 {
    (2 * items.max(1)).next_power_of_two()
}

/// An open-addressing hash table in simulated memory.
#[derive(Debug)]
pub struct HashTable {
    slots: Relation,
    mask: u64,
}

impl HashTable {
    /// Allocate an empty table sized for `items` entries at load factor
    /// ≤ ½ (capacity = next power of two ≥ 2·items). The empty-slot
    /// sentinel fill is host-side setup: one pass over a writable view of
    /// the slots, setting each key word (the value words stay zero).
    pub fn alloc<B: MemoryBackend>(ctx: &mut ExecContext<B>, name: &str, items: u64) -> HashTable {
        let capacity = table_slots(items);
        let slots = ctx.relation(name, capacity, ENTRY_BYTES);
        let bytes = ctx.mem.host_bytes_mut(slots.base(), slots.bytes());
        for slot in bytes.chunks_exact_mut(ENTRY_BYTES as usize) {
            slot[..8].copy_from_slice(&EMPTY.to_le_bytes());
        }
        HashTable {
            slots,
            mask: capacity - 1,
        }
    }

    /// Table capacity in slots.
    pub fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// The model region describing the table.
    pub fn region(&self) -> &Region {
        self.slots.region()
    }

    /// The slot array, `capacity` entries of [`ENTRY_BYTES`] each — what
    /// the backend's bulk hash entry points walk.
    pub(crate) fn slots(&self) -> &Relation {
        &self.slots
    }
}

/// CPU-operation estimate of the build phase over `items` inner tuples
/// — the build's share of the optimizer's hash-join `ops` (read + hash +
/// probe step + store per tuple). The service subtracts exactly this
/// share when a query reuses a shared build instead of building.
pub fn build_ops(items: u64) -> u64 {
    4 * items
}

/// The slot array `[key₀, value₀, key₁, value₁, …]` (EMPTY-filled) that
/// [`build_hash`] over a relation with these keys produces — computed
/// host-side, a **pure function of the key sequence**. Because the
/// layout is deterministic, co-admitted queries probing the same table
/// can share one immutable build and still produce byte-identical join
/// output (probing visits slots in the same order either way).
pub fn build_layout(keys: &[u64]) -> Vec<u64> {
    let capacity = table_slots(keys.len() as u64);
    let mask = capacity - 1;
    // Empty slots carry the EMPTY key and a zero value word — the same
    // bytes [`HashTable::alloc`] leaves behind (it sentinel-fills only
    // the key word of each slot; fresh memory is zeroed).
    let mut slots = vec![0u64; 2 * capacity as usize];
    for i in 0..capacity as usize {
        slots[2 * i] = EMPTY;
    }
    for (i, &key) in keys.iter().enumerate() {
        debug_assert_ne!(key, EMPTY);
        let mut slot = mix(key) & mask;
        while slots[2 * slot as usize] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slots[2 * slot as usize] = key;
        slots[2 * slot as usize + 1] = i as u64;
    }
    slots
}

impl HashTable {
    /// Bind a pre-computed [`build_layout`], published as an image
    /// ([`Segment::from_keys`] over the slot words), as a table — the
    /// reuse path of a shared build: no charged build accesses,
    /// identical bytes to what [`build_hash`] would have produced. A
    /// backend that maps segments probes the image where it is; the
    /// simulator gets a host-side copy ([`ExecContext::bind`]).
    pub fn from_layout<B: MemoryBackend>(
        ctx: &mut ExecContext<B>,
        name: &str,
        layout: &Segment,
    ) -> HashTable {
        let capacity = layout.len() / ENTRY_BYTES;
        debug_assert!(capacity.is_power_of_two());
        let slots = ctx.bind(name, layout, capacity, ENTRY_BYTES);
        HashTable {
            slots,
            mask: capacity - 1,
        }
    }
}

/// Build a hash table over `v` (value = tuple index), reading the full
/// inner tuples sequentially, through the backend's
/// [`hash_build_bulk`](MemoryBackend::hash_build_bulk): the simulator
/// runs `build_scalar`; the native backend runs the same loop over its
/// slab, with the home slot of the key N tuples ahead software-prefetched
/// (the build's table stores land at effectively random lines).
pub fn build_hash<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    v: &Relation,
    name: &str,
) -> HashTable {
    let table = HashTable::alloc(ctx, name, v.n());
    let ops = ctx.mem.hash_build_bulk(v, &table.slots);
    ctx.count_ops(ops);
    table
}

/// Insert `key → value` into the table whose slots are `slots` (charged
/// accesses, linear probing; duplicate keys take separate slots), and
/// return the logical ops counted: one per slot probed.
fn insert_scalar<B: MemoryBackend + ?Sized>(
    mem: &mut B,
    slots: &Relation,
    key: u64,
    value: u64,
) -> u64 {
    debug_assert_ne!(key, EMPTY);
    let mask = slots.n() - 1;
    let mut slot = mix(key) & mask;
    let mut ops = 0u64;
    loop {
        let addr = slots.tuple(slot);
        let resident = mem.read_u64(addr);
        ops += 1;
        if resident == EMPTY {
            mem.touch(addr, ENTRY_BYTES);
            mem.host_write_u64(addr, key);
            mem.host_write_u64(addr + 8, value);
            return ops;
        }
        slot = (slot + 1) & mask;
    }
}

/// The scalar build loop, the default of
/// [`MemoryBackend::hash_build_bulk`] and the native scalar reference:
/// touch each tuple of `input` entirely and insert its key with the
/// tuple index as value. Returns the logical ops counted.
pub(crate) fn build_scalar<B: MemoryBackend + ?Sized>(
    mem: &mut B,
    input: &Relation,
    slots: &Relation,
) -> u64 {
    let mut ops = 0u64;
    for i in 0..input.n() {
        let addr = input.tuple(i);
        mem.touch(addr, input.w());
        let key = mem.host_read_u64(addr);
        ops += insert_scalar(mem, slots, key, i);
    }
    ops
}

/// Hash-join `u ⋈ v` (equal keys): builds on `v`, probes with `u`, writes
/// one `out_w`-byte tuple per match.
pub fn hash_join<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    out_name: &str,
    out_w: u64,
) -> Relation {
    let table = build_hash(ctx, v, &format!("H({out_name})"));
    hash_join_with_table(ctx, u, &table, out_name, out_w)
}

/// The probe phase only, against a pre-built table. The output is
/// allocated at `|U|` tuples, grown in place by doubling when duplicate
/// build keys push the matches past that, and sealed to the match count
/// the one charged probe pass produces. The pass is the backend's
/// [`hash_probe_bulk`](MemoryBackend::hash_probe_bulk): `probe_scalar`
/// on the simulator, the same loop over the slab on native memory, where
/// the home slot of the key N tuples ahead is software-prefetched — the
/// probe's dependent random table loads are exactly what the paper
/// prices as `r_acc(H)`, and the hint lets an out-of-order core overlap
/// them.
pub fn hash_join_with_table<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    table: &HashTable,
    out_name: &str,
    out_w: u64,
) -> Relation {
    let mut out = ctx.tail_output(u.n(), out_w);
    let matches = ctx.probe_into_tail(u, &table.slots, &mut out);
    ctx.seal(out, out_name, matches)
}

/// The scalar probe loop, the default of
/// [`MemoryBackend::hash_probe_bulk`] and the native scalar reference:
/// touch each tuple of `input` entirely, walk its key's slot run to the
/// first empty slot, and for every match read the value word and write
/// the key as tuple `matches` of the open tail output at `out` (`cap`
/// tuples of `out_w` bytes, grown by doubling past that). Returns
/// `(matches, capacity, ops)`, one op per slot visited and per match.
pub(crate) fn probe_scalar<B: MemoryBackend + ?Sized>(
    mem: &mut B,
    input: &Relation,
    slots: &Relation,
    out: Addr,
    out_w: u64,
    mut cap: u64,
) -> (u64, u64, u64) {
    let mask = slots.n() - 1;
    let (mut matches, mut ops) = (0u64, 0u64);
    for i in 0..input.n() {
        let addr = input.tuple(i);
        mem.touch(addr, input.w());
        let key = mem.host_read_u64(addr);
        let mut slot = mix(key) & mask;
        loop {
            let at = slots.tuple(slot);
            let resident = mem.read_u64(at);
            ops += 1;
            if resident == EMPTY {
                break;
            }
            if resident == key {
                mem.read_u64(at + 8);
                cap = write_tail_at(mem, out, out_w, cap, matches, key);
                ops += 1;
                matches += 1;
            }
            slot = (slot + 1) & mask;
        }
    }
    (matches, cap, ops)
}

/// Pattern of [`build_hash`]: `s_trav(V) ⊙ r_trav(H)`.
pub fn build_hash_pattern(v: &Region, h: &Region) -> Pattern {
    library::build_hash(v.clone(), h.clone())
}

/// Pattern of [`hash_join_with_table`] — the probe phase alone, for a
/// query reusing a shared build: `s_trav(U) ⊙ r_acc(H, U.n) ⊙ s_trav(W)`.
pub fn probe_hash_pattern(u: &Region, h: &Region, w: &Region) -> Pattern {
    library::probe_hash(u.clone(), h.clone(), w.clone())
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
    fn capacity_is_power_of_two_with_headroom() {
        let mut c = ctx();
        let t = HashTable::alloc(&mut c, "H", 100);
        assert_eq!(t.capacity(), 256);
        assert!(t.capacity().is_power_of_two());
    }

    #[test]
    fn duplicate_keys_all_visited() {
        // Three build tuples share key 5: each probe of 5 emits three
        // matches, which overruns the `|U|`-tuple output and grows it.
        let mut c = ctx();
        let v = c.relation_from_keys("V", &[5, 7, 5, 5], 8);
        let t = build_hash(&mut c, &v, "H");
        let u = c.relation_from_keys("U", &[5, 6, 5], 8);
        let out = hash_join_with_table(&mut c, &u, &t, "W", 16);
        assert_eq!(out.n(), 6);
        for i in 0..out.n() {
            assert_eq!(c.mem.host().read_u64(out.tuple(i)), 5);
            assert_eq!(c.mem.host().read_u64(out.tuple(i) + 8), 0);
        }
    }

    #[test]
    fn hash_join_one_to_one() {
        let mut c = ctx();
        let mut wl = Workload::new(5);
        let (uk, vk) = wl.join_pair(500);
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8);
        let out = hash_join(&mut c, &u, &v, "W", 16);
        assert_eq!(out.n(), 500);
        let mut keys: Vec<u64> = (0..500)
            .map(|i| c.mem.host().read_u64(out.tuple(i)))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn hash_join_partial_match() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 3, 100], 8);
        let v = c.relation_from_keys("V", &[2, 3, 4], 8);
        let out = hash_join(&mut c, &u, &v, "W", 16);
        assert_eq!(out.n(), 2);
    }

    #[test]
    fn hash_join_empty_sides() {
        let mut c = ctx();
        let u = c.relation("U", 0, 8);
        let v = c.relation_from_keys("V", &[1], 8);
        assert_eq!(hash_join(&mut c, &u, &v, "W", 16).n(), 0);
        let u2 = c.relation_from_keys("U2", &[1], 8);
        let v2 = c.relation("V2", 0, 8);
        assert_eq!(hash_join(&mut c, &u2, &v2, "W2", 16).n(), 1 - 1);
    }

    #[test]
    fn probe_misses_jump_when_table_exceeds_cache() {
        // The Fig 7c cliff, in miniature: per-probe misses grow once
        // ||H|| > C2 (tiny L2 = 16 KB).
        let per_probe_l2 = |n: u64| {
            let mut c = ctx();
            let mut wl = Workload::new(6);
            let (uk, vk) = wl.join_pair(n as usize);
            let u = c.relation_from_keys("U", &uk, 8);
            let v = c.relation_from_keys("V", &vk, 8);
            // Probe against the still-warm table (the paper's hash-join
            // probes right after building): a fitting table then probes
            // nearly free, an oversized one misses per probe.
            let table = build_hash(&mut c, &v, "H");
            let (_, stats) = c.measure(|c| hash_join_with_table(c, &u, &table, "W", 16));
            let l2 = c.mem.spec().level_index("L2").unwrap();
            stats.misses_at(l2) as f64 / n as f64
        };
        let small = per_probe_l2(256); // H = 16 KB·½ — fits L2
        let large = per_probe_l2(8192); // H = 512 KB ≫ L2
        assert!(
            large > 4.0 * small,
            "per-probe L2 misses must cliff: {small:.3} -> {large:.3}"
        );
    }

    #[test]
    fn layout_is_byte_identical_to_a_charged_build() {
        // The shared-build contract: materializing `build_layout` must
        // reproduce a charged `build_hash` bit for bit, so sharing a
        // build can never change join results.
        let mut c = ctx();
        let mut wl = Workload::new(11);
        let keys = wl.shuffled_keys(1_000);
        let v = c.relation_from_keys("V", &keys, 8);
        let built = build_hash(&mut c, &v, "H");
        let layout = Segment::from_keys(&build_layout(&keys), 8);
        let shared = HashTable::from_layout(&mut c, "Hs", &layout);
        assert_eq!(built.capacity(), shared.capacity());
        assert_eq!(
            c.relation_bytes(&built.slots),
            c.relation_bytes(&shared.slots),
            "layout must match the charged build byte for byte"
        );
    }

    #[test]
    fn pattern_renders() {
        let mut c = ctx();
        let u = c.relation("U", 10, 8);
        let v = c.relation("V", 10, 8);
        let h = c.relation("H", 32, 16);
        let w = c.relation("W", 10, 16);
        let p = library::hash_join(
            u.region().clone(),
            v.region().clone(),
            h.region().clone(),
            w.region().clone(),
        );
        assert_eq!(
            p.to_string(),
            "s_trav(V) ⊙ r_trav(H) ⊕ s_trav(U) ⊙ r_acc(H, 10) ⊙ s_trav(W)"
        );
    }
}
