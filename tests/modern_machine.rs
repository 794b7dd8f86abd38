//! Portability: the model is machine-generic (the paper's
//! "hardware-independence", §7). These tests run the same
//! model-vs-simulator validations on the *modern commodity* preset —
//! three data-cache levels plus TLB, different line sizes and latency
//! ratios than the Origin2000 — without changing a single formula.

use gcm_bench::compare::assert_levels_close;
use gcm_bench::exec;
use gcm_core::{CostModel, Pattern, Region};
use gcm_hardware::{presets, Associativity, HardwareSpec};
use gcm_sim::MemorySystem;
use gcm_workload::Workload;

/// Fully-associative variant of the modern machine (the model predicts
/// no conflict misses; the `paper` bench's `ablation_assoc` rows
/// measure that error).
fn modern_fa() -> HardwareSpec {
    let base = presets::modern_commodity();
    let levels = base
        .levels()
        .iter()
        .cloned()
        .map(|mut l| {
            l.assoc = Associativity::Full;
            l
        })
        .collect();
    HardwareSpec::new("modern [FA]", base.cpu_mhz, levels).expect("valid")
}

#[test]
fn spec_has_three_cache_levels() {
    let hw = modern_fa();
    assert_eq!(hw.data_caches().count(), 3);
    assert_eq!(hw.levels().len(), 4);
}

#[test]
fn sequential_traversal_exact_on_all_four_levels() {
    let spec = modern_fa();
    let mut mem = MemorySystem::new(spec.clone());
    let (n, w) = (262_144u64, 8u64); // 2 MB: beyond L1/L2, inside L3
    let base = mem.alloc(n * w, 4096);
    let before = mem.snapshot();
    exec::s_trav(&mut mem, base, n, w, w);
    let measured = mem.delta_since(&before);
    let model = CostModel::new(spec.clone());
    let predicted = model.misses(&Pattern::s_trav(Region::new("R", n, w)));
    assert_levels_close(&spec, &measured, &predicted, 0.05, 4.0, "modern s_trav");
}

#[test]
fn random_traversal_respects_l3() {
    // 8 MB region: fits L3 (32 MB) but dwarfs L2 (1 MB). Random misses
    // must appear at L1/L2 but stay compulsory-only at L3.
    let spec = modern_fa();
    let mut mem = MemorySystem::new(spec.clone());
    let (n, w) = (1_048_576u64, 8u64);
    let perm = Workload::new(1).permutation(n as usize);
    let base = mem.alloc(n * w, 4096);
    let before = mem.snapshot();
    exec::r_trav(&mut mem, base, w, w, &perm);
    let measured = mem.delta_since(&before);
    let model = CostModel::new(spec.clone());
    let predicted = model.misses(&Pattern::r_trav(Region::new("R", n, w)));

    let l2 = spec.level_index("L2").unwrap();
    let l3 = spec.level_index("L3").unwrap();
    let m_l2 = (measured.levels[l2].seq_misses + measured.levels[l2].rand_misses) as f64;
    let m_l3 = (measured.levels[l3].seq_misses + measured.levels[l3].rand_misses) as f64;
    // L3 holds the region: one load per 64-B line.
    assert!((m_l3 - (n * w / 64) as f64).abs() < 64.0);
    assert!((predicted[l3].total() - m_l3).abs() / m_l3 < 0.05);
    // L2 thrashes: far beyond compulsory, and predicted within 25%.
    assert!(m_l2 > 3.0 * (n * w / 64) as f64);
    assert!((predicted[l2].total() - m_l2).abs() / m_l2 < 0.25);
}

#[test]
fn hash_join_cliffs_move_with_the_machine() {
    // On the modern machine the interesting hash-table boundary is L2
    // (1 MB). The model must place the per-probe L2 cliff there — a
    // different place than on the Origin2000 — with no code changes.
    let spec = modern_fa();
    let model = CostModel::new(spec.clone());
    let l2 = spec.level_index("L2").unwrap();
    let per_probe = |n: u64| {
        let h = Region::new("H", (2 * n).next_power_of_two(), 16);
        let u = Region::new("U", n, 8);
        let v = Region::new("V", n, 8);
        let w = Region::new("W", n, 16);
        let p = gcm_core::library::hash_join(u, v, h, w);
        model.misses(&p)[l2].total() / n as f64
    };
    let below = per_probe(16_384); // H = 512 KB < 1 MB L2
    let above = per_probe(262_144); // H = 8 MB > L2
    assert!(
        above > 3.0 * below,
        "modern L2 cliff: {below:.3} -> {above:.3}"
    );
}

#[test]
fn partitioning_cliff_positions_follow_the_new_geometry() {
    // Modern TLB: 1536 entries; L1: 512 lines. The first cliff is now
    // L1's, not the TLB's — opposite to the Origin2000 ordering.
    let spec = modern_fa();
    let model = CostModel::new(spec.clone());
    let l1 = spec.level_index("L1").unwrap();
    let tlb = spec.level_index("TLB").unwrap();
    let u = Region::new("U", 4_000_000, 8);
    let w = Region::new("W", 4_000_000, 8);
    let at = |m: u64, lvl: usize| {
        model.misses(&gcm_core::library::partition(u.clone(), w.clone(), m))[lvl].total()
    };
    // L1 cliffs between 256 and 2048 (512 lines)...
    assert!(at(2048, l1) > 2.0 * at(256, l1));
    // ...while the TLB is still quiet there and cliffs past 1536.
    assert!(at(1024, tlb) < 1.5 * at(256, tlb));
    assert!(at(8192, tlb) > 2.0 * at(1024, tlb));
}
