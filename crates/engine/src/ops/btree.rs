//! Index lookups over a bulk-loaded, implicit B+-tree.
//!
//! The paper's §3.1 notes that "more complex structures like trees are
//! modeled by regions with `R.n` representing the number of nodes and
//! `R.w` the size of a single node"; the cache-conscious-tree line of
//! work it cites ([RR99, RR00]) tunes the node size to the cache line.
//! This operator realises both: an array-packed B+-tree whose node size
//! is a build parameter, with a batch-lookup access pattern of one
//! `r_acc` per level:
//!
//! ```text
//! lookup(T, q) = ⊕_{level} r_acc(T_level, q)
//! ```
//!
//! (each level of the tree is its own region; lookups hit one node per
//! level at effectively random positions).

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::Relation;
use gcm_core::{Pattern, Region};

/// An implicit B+-tree over sorted keys: level 0 is the sorted key
/// array; level `d+1` holds every `fanout`-th boundary key of level `d`.
/// All levels are dense arrays of `node_w`-byte nodes with
/// `fanout = node_w / 8` keys each.
#[derive(Debug)]
pub struct BTree {
    /// Per-level key arrays, leaf level first.
    levels: Vec<Relation>,
    fanout: u64,
}

impl BTree {
    /// Bulk-load from the (sorted) `keys`; `node_w` must be a multiple
    /// of 8 and at least 16 (≥ 2 keys per node).
    pub fn build<B: MemoryBackend>(
        ctx: &mut ExecContext<B>,
        keys: &[u64],
        node_w: u64,
        name: &str,
    ) -> BTree {
        assert!(
            node_w >= 16 && node_w.is_multiple_of(8),
            "node must hold >= 2 keys"
        );
        assert!(!keys.is_empty(), "cannot index an empty table");
        debug_assert!(keys.windows(2).all(|p| p[0] <= p[1]), "keys must be sorted");
        let fanout = node_w / 8;
        let mut levels = Vec::new();
        // Leaf level: the keys themselves, packed into nodes.
        let mut current: Vec<u64> = keys.to_vec();
        let mut depth = 0usize;
        loop {
            let n_keys = current.len() as u64;
            let rel = ctx.relation(&format!("{name}.L{depth}"), n_keys.div_ceil(fanout), node_w);
            for (i, &k) in current.iter().enumerate() {
                let node = i as u64 / fanout;
                let slot = i as u64 % fanout;
                ctx.mem.host_write_u64(rel.tuple(node) + slot * 8, k);
            }
            // Pad the last node with u64::MAX sentinels.
            let last = rel.n() - 1;
            for slot in (n_keys - last * fanout)..fanout {
                ctx.mem.host_write_u64(rel.tuple(last) + slot * 8, u64::MAX);
            }
            let node_count = rel.n();
            levels.push(rel);
            if node_count <= 1 {
                break;
            }
            // Next level: the first key of each node.
            current = (0..node_count)
                .map(|nd| {
                    let level = levels.last().expect("just pushed");
                    ctx.mem.host_read_u64(level.tuple(nd))
                })
                .collect();
            depth += 1;
        }
        BTree { levels, fanout }
    }

    /// The per-level regions, root first (for pattern construction and
    /// diagnostics).
    pub fn level_regions(&self) -> Vec<Region> {
        self.levels
            .iter()
            .rev()
            .map(|l| l.region().clone())
            .collect()
    }

    /// Look one key up (simulated accesses): descend from the root,
    /// scanning one node per level. Returns true if the key exists.
    pub fn lookup<B: MemoryBackend>(&self, ctx: &mut ExecContext<B>, key: u64) -> bool {
        let mut node = 0u64;
        for (depth, level) in self.levels.iter().enumerate().rev() {
            let addr = level.tuple(node);
            ctx.mem.touch(addr, level.w());
            // In-node search (host-side data, simulated touch above).
            let mut child = 0u64;
            let mut found = false;
            for slot in 0..self.fanout {
                let k = ctx.mem.host_read_u64(addr + slot * 8);
                ctx.count_ops(1);
                if k == key {
                    found = true;
                }
                if k <= key && k != u64::MAX {
                    child = slot;
                } else {
                    break;
                }
            }
            if depth == 0 {
                return found;
            }
            node = node * self.fanout + child;
        }
        false
    }

    /// Pattern of a batch of `q` lookups: `⊕_level r_acc(T_level, q)`
    /// (root first; the root and upper levels usually stay cached, which
    /// the `r_acc` capacity term prices automatically).
    pub fn lookup_pattern(&self, q: u64) -> Pattern {
        Pattern::seq(
            self.level_regions()
                .into_iter()
                .map(|r| Pattern::r_acc(r, q))
                .collect(),
        )
    }
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
    fn finds_all_present_keys() {
        let mut c = ctx();
        let keys: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let tree = BTree::build(&mut c, &keys, 32, "T");
        for &k in &keys {
            assert!(tree.lookup(&mut c, k), "key {k} must be found");
        }
    }

    #[test]
    fn rejects_absent_keys() {
        let mut c = ctx();
        let keys: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let tree = BTree::build(&mut c, &keys, 32, "T");
        for k in [1u64, 2, 4, 1501, 10_000] {
            assert!(!tree.lookup(&mut c, k), "key {k} must be absent");
        }
    }

    #[test]
    fn height_shrinks_with_wider_nodes() {
        let mut c = ctx();
        let keys: Vec<u64> = (0..4096).collect();
        let narrow = BTree::build(&mut c, &keys, 16, "N"); // 2 keys/node
        let wide = BTree::build(&mut c, &keys, 128, "W"); // 16 keys/node
        assert!(wide.level_regions().len() < narrow.level_regions().len());
        assert_eq!(narrow.level_regions().len(), 12); // log2(4096)
        assert_eq!(wide.level_regions().len(), 3); // log16(4096)
    }

    #[test]
    fn single_node_tree() {
        let mut c = ctx();
        let tree = BTree::build(&mut c, &[5, 7], 32, "S");
        assert_eq!(tree.level_regions().len(), 1);
        assert!(tree.lookup(&mut c, 5));
        assert!(!tree.lookup(&mut c, 6));
    }

    #[test]
    fn line_sized_nodes_beat_tiny_nodes() {
        // The [RR99] effect: nodes matching the cache line need fewer
        // misses per lookup than 16-byte nodes (deeper tree, one miss per
        // level) — measured on the simulator.
        let probes = Workload::new(7).random_indices(2000, 16_384);
        let run = |node_w: u64| {
            let mut c = ctx();
            let keys: Vec<u64> = (0..16_384).collect();
            let tree = BTree::build(&mut c, &keys, node_w, "T");
            c.cold_caches();
            let (_, stats) = c.measure(|c| {
                for &p in &probes {
                    tree.lookup(c, p as u64);
                }
            });
            let l1 = c.mem.spec().level_index("L1").unwrap();
            stats.misses_at(l1)
        };
        let tiny_nodes = run(16);
        let line_nodes = run(32); // tiny machine's L1 line
        assert!(
            line_nodes < tiny_nodes,
            "line-sized nodes {line_nodes} must beat 16-byte nodes {tiny_nodes}"
        );
    }

    #[test]
    fn model_predicts_per_level_costs() {
        // Batch lookups: the model must charge the lower levels (big
        // regions) much more than the root levels (cached).
        let mut c = ctx();
        let keys: Vec<u64> = (0..32_768).collect();
        let tree = BTree::build(&mut c, &keys, 64, "T");
        let model = gcm_core::CostModel::new(presets::tiny());
        let q = 10_000;
        let pattern = tree.lookup_pattern(q);
        let report = model.report(&pattern);
        assert!(report.mem_ns > 0.0);
        // Leaf level alone must dominate: compare against a root-only
        // pattern.
        let root_only = Pattern::r_acc(tree.level_regions()[0].clone(), q);
        assert!(model.mem_ns(&pattern) > 5.0 * model.mem_ns(&root_only));
    }

    #[test]
    fn measured_vs_predicted_batch_lookups() {
        let spec = presets::tiny_full_assoc();
        let mut c = ExecContext::new(spec.clone());
        let keys: Vec<u64> = (0..32_768).collect();
        let tree = BTree::build(&mut c, &keys, 64, "T");
        let probes = Workload::new(8).random_indices(5000, 32_768);
        c.cold_caches();
        let (_, stats) = c.measure(|c| {
            for &p in &probes {
                tree.lookup(c, p as u64);
            }
        });
        let model = gcm_core::CostModel::new(spec.clone());
        let report = model.report(&tree.lookup_pattern(5000));
        let l2 = spec.level_index("L2").unwrap();
        let measured = stats.misses_at(l2) as f64;
        let predicted = report.levels[l2].misses();
        let ratio = predicted / measured;
        assert!(
            (0.5..2.0).contains(&ratio),
            "L2 lookup misses: measured {measured} predicted {predicted}"
        );
    }
}
