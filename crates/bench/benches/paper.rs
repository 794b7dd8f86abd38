//! The paper's validation (§6), reproduced and gated in one run: Table 3,
//! Figures 4–7, the ablations and the extensions, each as rows of
//! predicted (model) vs simulated (simulator) values on the simulated
//! SGI Origin2000.
//!
//! ```text
//! cargo bench -q -p gcm-bench --bench paper
//! ```
//!
//! rewrites `BENCH_paper.json` at the repository root and exits non-zero
//! if a row's relative error exceeds its tolerance in [`TOLERANCES`] or
//! a verdict the paper draws from a figure (a cliff, an envelope, an
//! optimum) does not hold. The simulator is exact and every input is
//! seeded, so the artifact is a function of the code: CI reruns this
//! target and diffs the file.

use gcm_bench::exec;
use gcm_bench::paper::{Gate, Tolerance};
use gcm_calibrate::Calibrator;
use gcm_core::distinct::{expected_distinct, expected_distinct_stirling};
use gcm_core::misses::lines_per_item;
use gcm_core::{eval, CacheState, CostModel, CostReport, CpuCost, Geometry, MissPair, Pattern};
use gcm_core::{library, Region};
use gcm_engine::ops::btree::BTree;
use gcm_engine::plan::{execute, JoinAlgorithm, LogicalPlan, Optimizer, PhysicalPlan, TableStats};
use gcm_engine::{ops, ExecContext, RunStats};
use gcm_hardware::{presets, Associativity, HardwareSpec, LevelKind};
use gcm_sim::MemorySystem;
use gcm_workload::Workload;

/// Largest relative error allowed per (artefact, level), under the rule
/// of `LevelComparison::within` with `gcm_bench::paper::ABS_FLOOR`.
/// Each is the largest error the rows reached when this harness was
/// introduced, rounded up to a multiple of 0.05 (so exact rows stay at
/// 0). An ablated variant's tolerance records how wrong it is; the
/// verdicts below, not its tolerance, say that the full model wins.
const TOLERANCES: &[Tolerance] = &[
    ("table3.origin2000", "L1", 0.05),
    ("table3.origin2000", "L2", 0.10),
    ("table3.origin2000", "TLB", 0.00),
    ("table3.tiny", "L1", 0.05),
    ("table3.tiny", "L2", 0.10),
    ("table3.tiny", "TLB", 0.00),
    ("fig4", "L1", 0.00),
    ("fig5.s_trav", "L1", 0.10),
    ("fig5.s_trav", "L2", 0.15),
    ("fig5.r_trav", "L1", 0.10),
    ("fig5.r_trav", "L2", 0.25),
    ("fig6a", "L1", 0.00),
    ("fig6b", "L2", 0.00),
    ("fig6c", "L1", 0.05),
    ("fig6d", "L2", 0.05),
    ("fig7a", "L1", 0.40),
    ("fig7a", "L2", 0.50),
    ("fig7a", "TLB", 0.60),
    ("fig7a", "ms", 0.40),
    ("fig7b", "L1", 0.05),
    ("fig7b", "L2", 0.05),
    ("fig7b", "TLB", 0.05),
    ("fig7b", "ms", 0.10),
    ("fig7c", "L1", 0.20),
    ("fig7c", "L2", 0.20),
    ("fig7c", "TLB", 0.50),
    ("fig7c", "ms", 0.30),
    ("fig7d", "L1", 0.50),
    ("fig7d", "L2", 0.30),
    ("fig7d", "TLB", 0.50),
    ("fig7d", "ms", 0.55),
    ("fig7e", "L1", 0.20),
    ("fig7e", "L2", 0.60),
    ("fig7e", "TLB", 2.25),
    ("fig7e", "ms", 0.30),
    ("ablation_assoc.quick_sort", "L1", 0.05),
    ("ablation_assoc.quick_sort", "L1 conflict", 1.00),
    ("ablation_assoc.hash_join", "L1", 0.05),
    ("ablation_assoc.hash_join", "L1 conflict", 1.00),
    ("ablation_distinct.closed_form", "items", 0.05),
    ("ablation_distinct.stirling", "items", 0.05),
    ("ablation_footprint.footprint", "mem_ms", 0.30),
    ("ablation_footprint.even_split", "mem_ms", 1.30),
    ("ablation_state.full", "mem_ms", 0.65),
    ("ablation_state.no_state", "mem_ms", 17.95),
    ("extension_btree", "L2", 0.40),
    ("extension_btree", "mem_ms", 1.35),
    ("extension_query", "L1", 0.05),
    ("extension_query", "L2", 0.30),
    ("extension_query", "TLB", 0.55),
    ("extension_query", "ms", 0.40),
    ("extension_radix", "L1", 0.10),
    ("extension_radix", "L2", 0.10),
    ("extension_radix", "TLB", 0.75),
    ("extension_radix", "ms", 0.35),
    ("query_optimizer", "ms", 0.10),
];

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;

fn main() {
    let spec = presets::origin2000();
    let model = CostModel::new(spec.clone());
    let mut gate = Gate::new(TOLERANCES);

    table3(&mut gate);
    fig4(&mut gate, &spec);
    fig5(&mut gate, &spec, &model);
    fig6(&mut gate, &spec, &model);
    fig7a(&mut gate, &spec, &model);
    fig7b(&mut gate, &spec, &model);
    fig7c(&mut gate, &spec, &model);
    fig7d(&mut gate, &spec, &model);
    fig7e(&mut gate, &spec, &model);
    ablation_assoc(&mut gate);
    ablation_distinct(&mut gate);
    ablation_footprint(&mut gate, &spec, &model);
    ablation_state(&mut gate, &spec, &model);
    extension_btree(&mut gate, &spec, &model);
    extension_query(&mut gate, &spec, &model);
    extension_radix(&mut gate, &spec, &model);
    query_optimizer(&mut gate, &spec, &model);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    std::fs::write(path, gate.to_json()).expect("write BENCH_paper.json");
    gate.check();
    println!(
        "BENCH_paper.json: {} rows, every one within its tolerance",
        gate.rows().len()
    );
}

/// Misses a snapshot delta records at level `i`.
fn misses(d: &gcm_sim::Snapshot, i: usize) -> u64 {
    d.levels[i].seq_misses + d.levels[i].rand_misses
}

/// Index of the smallest value.
fn argmin(v: &[f64]) -> usize {
    (0..v.len())
        .min_by(|&a, &b| v[a].total_cmp(&v[b]))
        .expect("non-empty")
}

/// Table 3 (§6.1): the blind Calibrator against the simulated machines.
/// Predicted is the calibrated value, simulated the configured one.
fn table3(gate: &mut Gate) {
    for (name, spec, max) in [
        ("origin2000", presets::origin2000(), 16 * MB),
        ("tiny", presets::tiny(), 128 * KB),
    ] {
        let artefact = format!("table3.{name}");
        let report = Calibrator::new(spec.clone(), max).run();
        assert_eq!(report.caches.len(), spec.data_caches().count(), "{name}");
        for (lvl, det) in spec.data_caches().zip(&report.caches) {
            let level = lvl.name.as_str();
            gate.record(
                &artefact,
                "capacity",
                level,
                det.capacity as f64,
                lvl.capacity as f64,
            );
            gate.record(&artefact, "line", level, det.line as f64, lvl.line as f64);
            gate.record(
                &artefact,
                "seq_miss_ns",
                level,
                det.seq_miss_ns,
                lvl.seq_miss_ns,
            );
            gate.record(
                &artefact,
                "rand_miss_ns",
                level,
                det.rand_miss_ns,
                lvl.rand_miss_ns,
            );
        }
        let tlb = spec.tlbs().next().expect("TLB configured");
        let det = report.tlb.expect("TLB calibrated");
        gate.record(
            &artefact,
            "entries",
            "TLB",
            det.entries as f64,
            tlb.lines() as f64,
        );
        gate.record(&artefact, "page", "TLB", det.page as f64, tlb.line as f64);
        gate.record(&artefact, "miss_ns", "TLB", det.miss_ns, tlb.seq_miss_ns);
    }
}

/// Figure 4 (§4.2): one `u`-byte access at every in-line offset; the
/// model's `lines_per_item` is the average over alignments.
fn fig4(gate: &mut Gate, spec: &HardwareSpec) {
    let b = spec.level("L1").expect("L1").line;
    for u in [8u64, 16, 24, 32] {
        let total: u64 = (0..b)
            .map(|a| {
                let mut mem = MemorySystem::new(spec.clone());
                let base = mem.alloc_offset(u + b, b, a);
                let before = mem.snapshot();
                mem.read(base, u);
                misses(&mem.delta_since(&before), 0)
            })
            .sum();
        gate.record(
            "fig4",
            u,
            "L1",
            lines_per_item(u, b as f64),
            total as f64 / b as f64,
        );
    }
}

/// Figure 5 (§4.2/§4.3): `u` of 256 bytes touched per item, sequential
/// and random, averaged over 8 alignments; the model's sequential curve
/// lies between the two extreme alignments.
fn fig5(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    const N: u64 = 65_536;
    const W: u64 = 256;
    let perm = Workload::new(5).permutation(N as usize);
    let measure = |offset: u64, u: u64, random: bool| -> Vec<u64> {
        let mut mem = MemorySystem::new(spec.clone());
        let base = mem.alloc_offset(N * W + 256, 4096, offset);
        let before = mem.snapshot();
        if random {
            exec::r_trav(&mut mem, base, W, u, &perm);
        } else {
            exec::s_trav(&mut mem, base, N, W, u);
        }
        let d = mem.delta_since(&before);
        (0..d.levels.len()).map(|i| misses(&d, i)).collect()
    };
    for level in ["L1", "L2"] {
        let li = spec.level_index(level).expect("level");
        let b = spec.level(level).expect("level").line;
        let offsets: Vec<u64> = (0..8).map(|k| k * b / 8).collect();
        for u in (0..=8).map(|i| 1u64 << i) {
            let avg = |random: bool| {
                offsets
                    .iter()
                    .map(|&o| measure(o, u, random)[li] as f64)
                    .sum::<f64>()
                    / offsets.len() as f64
            };
            let region = Region::new("R", N, W);
            let m_s = model.misses(&Pattern::s_trav_u(region.clone(), u))[li].total();
            let m_r = model.misses(&Pattern::r_trav_u(region, u))[li].total();
            gate.record("fig5.s_trav", u, level, m_s, avg(false));
            gate.record("fig5.r_trav", u, level, m_r, avg(true));

            let lo = measure(0, u, false)[li] as f64;
            let hi = measure(b - 1, u, false)[li] as f64;
            assert!(
                m_s >= lo.min(hi) * 0.98 && m_s <= lo.max(hi) * 1.02,
                "fig5 {level} u={u}: model {m_s} outside the alignment envelope [{lo}, {hi}]"
            );
        }
    }
}

/// Figure 6 (§4.4): item size `R.w` swept at region sizes around each
/// capacity, with the section's three invariants.
fn fig6(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let measure = |bytes: u64, w: u64, random: bool, level: usize| -> u64 {
        let n = bytes / w;
        let mut mem = MemorySystem::new(spec.clone());
        let base = mem.alloc(bytes + 256, 4096);
        let before = mem.snapshot();
        if random {
            let perm = Workload::new(bytes ^ w).permutation(n as usize);
            exec::r_trav(&mut mem, base, w, w, &perm);
        } else {
            exec::s_trav(&mut mem, base, n, w, w);
        }
        misses(&mem.delta_since(&before), level)
    };
    let l1_sizes = [16 * KB, 24 * KB, 32 * KB, 40 * KB, 64 * KB];
    let l2_sizes = [2 * MB, 6 * MB, 8 * MB, 12 * MB, 16 * MB];
    for (artefact, level, random, sizes) in [
        ("fig6a", "L1", false, l1_sizes),
        ("fig6b", "L2", false, l2_sizes),
        ("fig6c", "L1", true, l1_sizes),
        ("fig6d", "L2", true, l2_sizes),
    ] {
        let li = spec.level_index(level).expect("level");
        for w in (0..=8).map(|i| 1u64 << i) {
            for bytes in sizes {
                let region = Region::new("R", bytes / w, w);
                let pattern = if random {
                    Pattern::r_trav(region)
                } else {
                    Pattern::s_trav(region)
                };
                let label = if bytes >= MB {
                    format!("{}MB", bytes / MB)
                } else {
                    format!("{}kB", bytes / KB)
                };
                gate.record(
                    artefact,
                    format!("{label},w={w}"),
                    level,
                    model.misses(&pattern)[li].total(),
                    measure(bytes, w, random, li) as f64,
                );
            }
        }
    }

    let l1 = spec.level_index("L1").expect("L1");
    let flat = measure(32 * KB, 1, false, l1);
    for w in (0..=8).map(|i| 1u64 << i) {
        let m = measure(32 * KB, w, false, l1);
        assert!(
            m.abs_diff(flat) as f64 / (flat as f64) < 0.02,
            "fig6: s_trav over 32 kB must not depend on w (w={w}: {m} vs {flat})"
        );
    }
    let (fits_r, fits_s) = (
        measure(16 * KB, 8, true, l1),
        measure(16 * KB, 8, false, l1),
    );
    assert_eq!(
        fits_r, fits_s,
        "fig6: r_trav == s_trav for a region that fits"
    );
    let (big_r, big_s) = (
        measure(64 * KB, 8, true, l1),
        measure(64 * KB, 8, false, l1),
    );
    assert!(
        big_r > big_s,
        "fig6: r_trav {big_r} > s_trav {big_s} past the capacity"
    );
}

/// Figure 7's four rows at one x: L1, L2 and TLB misses, and Eq 6.1
/// time in ms with the planner's CPU calibration on both sides.
fn fig7_rows(
    gate: &mut Gate,
    artefact: &str,
    x: u64,
    spec: &HardwareSpec,
    measured: &RunStats,
    predicted: &CostReport,
    predicted_ops: u64,
) {
    for level in ["L1", "L2", "TLB"] {
        let i = spec.level_index(level).expect("level");
        gate.record(
            artefact,
            x,
            level,
            predicted.levels[i].misses(),
            misses(&measured.mem, i) as f64,
        );
    }
    let cpu = CpuCost::default_planner();
    gate.record(
        artefact,
        x,
        "ms",
        cpu.eq61_ns(predicted.mem_ns, predicted_ops) / 1e6,
        measured.total_ns(cpu.per_op_ns) / 1e6,
    );
}

/// Figure 7a: quick-sort over `||U||` = 128 KB … 32 MB; L2 misses per
/// tuple step up once `||U||` exceeds C2.
fn fig7a(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let l2 = spec.level_index("L2").expect("L2");
    let mut l2_per_tuple = Vec::new();
    for size in [128 * KB, 512 * KB, 2 * MB, 8 * MB, 32 * MB] {
        let n = size / 8;
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(size).shuffled_keys(n as usize);
        let rel = ctx.relation_from_keys("U", &keys, 8);
        let (_, stats) = ctx.measure(|c| ops::sort::quick_sort(c, &rel));
        let report = model.report(&library::quick_sort(rel.region().clone()));
        let pred_ops = ops::sort::quick_sort_expected_ops(n);
        fig7_rows(gate, "fig7a", size / KB, spec, &stats, &report, pred_ops);
        l2_per_tuple.push(misses(&stats.mem, l2) as f64 / n as f64);
    }
    assert!(
        l2_per_tuple[4] > 2.0 * l2_per_tuple[1],
        "fig7a: no L2 step at ||U|| = C2 (per tuple {l2_per_tuple:?})"
    );
}

/// Figure 7b: merge-join of sorted equal-sized inputs; pure streaming,
/// so time per input byte is flat across the sweep.
fn fig7b(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let mut ms_per_kb = Vec::new();
    for size in [128 * KB, 512 * KB, 2 * MB, 8 * MB, 32 * MB] {
        let n = size / 8;
        let mut ctx = ExecContext::new(spec.clone());
        let keys: Vec<u64> = (0..n).collect();
        let u = ctx.relation_from_keys("U", &keys, 8);
        let v = ctx.relation_from_keys("V", &keys, 8);
        let (out, stats) = ctx.measure(|c| ops::merge_join::merge_join(c, &u, &v, "W", 16));
        let pattern =
            library::merge_join(u.region().clone(), v.region().clone(), out.region().clone());
        // One comparison per cursor advance plus one per output.
        let pred_ops = 2 * n + n;
        fig7_rows(
            gate,
            "fig7b",
            size / KB,
            spec,
            &stats,
            &model.report(&pattern),
            pred_ops,
        );
        ms_per_kb
            .push(stats.total_ns(CpuCost::DEFAULT_PLANNER_PER_OP_NS) / 1e6 / (size / KB) as f64);
    }
    assert!(
        ms_per_kb
            .iter()
            .all(|&v| (v - ms_per_kb[0]).abs() / ms_per_kb[0] < 0.25),
        "fig7b: cost not proportional to data size ({ms_per_kb:?} ms/KB)"
    );
}

/// Figure 7c: hash-join; L2 and TLB misses per tuple jump once the hash
/// table exceeds C2 and the TLB reach.
fn fig7c(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let levels = [
        spec.level_index("L2").expect("L2"),
        spec.level_index("TLB").expect("TLB"),
    ];
    let mut per_tuple: Vec<[f64; 2]> = Vec::new();
    for size in [128 * KB, 512 * KB, 2 * MB, 8 * MB] {
        let n = size / 8;
        let mut ctx = ExecContext::new(spec.clone());
        let (uk, vk) = Workload::new(size).join_pair(n as usize);
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);
        let (out, stats) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
        let h = Region::new("H", (2 * n).next_power_of_two(), 16);
        let pattern = library::hash_join(
            u.region().clone(),
            v.region().clone(),
            h,
            out.region().clone(),
        );
        // ~2 probes per build insert + ~2 per probe + 1 per output.
        fig7_rows(
            gate,
            "fig7c",
            size / KB,
            spec,
            &stats,
            &model.report(&pattern),
            5 * n,
        );
        per_tuple.push(levels.map(|i| misses(&stats.mem, i) as f64 / n as f64));
    }
    for (k, cliff) in ["L2 at ||H|| = C2", "TLB at ||H|| = TLB reach"]
        .iter()
        .enumerate()
    {
        assert!(
            per_tuple[per_tuple.len() - 1][k] > 2.0 * per_tuple[0][k],
            "fig7c: no {cliff} cliff (per tuple {per_tuple:?})"
        );
    }
}

/// Figure 7d: single-pass partitioning of 16 MB (the paper's 96 MB, same
/// cliff structure) at fan-outs `m` = 2 … `n`.
fn fig7d(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let n: u64 = 2 * 1024 * 1024;
    for bits in (1..=n.ilog2()).step_by(3) {
        let m = 1u64 << bits;
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(m).shuffled_keys(n as usize);
        let input = ctx.relation_from_keys("U", &keys, 8);
        let (parts, stats) =
            ctx.measure(|c| ops::partition::radix_partition(c, &input, bits, 1, "W"));
        let pattern =
            ops::partition::radix_partition_pattern(input.region(), parts.rel.region(), bits, 1);
        // One bucket computation per tuple.
        fig7_rows(gate, "fig7d", m, spec, &stats, &model.report(&pattern), n);
    }
}

/// Figure 7e: the join phase of a partitioned hash-join over 8 MB
/// inputs, as the per-partition table `||Hj||` shrinks (partitioning is
/// Figure 7d's and runs outside the measurement).
fn fig7e(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let n: u64 = MB;
    let (uk, vk) = Workload::new(77).join_pair(n as usize);
    for bits in (0..=14).step_by(3) {
        let m = 1u64 << bits;
        let mut ctx = ExecContext::new(spec.clone());
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);
        let pu = ops::partition::radix_partition(&mut ctx, &u, bits, 1, "Up");
        let pv = ops::partition::radix_partition(&mut ctx, &v, bits, 1, "Vp");
        ctx.cold_caches();
        let (out, stats) =
            ctx.measure(|c| ops::part_hash_join::join_partitions(c, &pu, &pv, "W", 16));
        let slots = ops::hash::table_slots(n >> bits);
        let parts = (0..m)
            .map(|j| {
                (
                    pu.rel.region().slice(m),
                    pv.rel.region().slice(m),
                    Region::new(format!("H{j}"), slots, 16),
                    out.region().slice(m),
                )
            })
            .collect();
        let report = model.report(&library::partitioned_hash_join(parts));
        fig7_rows(gate, "fig7e", slots * 16 / KB, spec, &stats, &report, 5 * n);
    }
}

/// Ablation: conflict misses the fully-associative model ignores (§2.1).
/// Quick-sort and hash-join run on direct-mapped, 2-way, 8-way and fully
/// associative L1/L2; predicted is the fully-associative run's L1 misses,
/// and the model predicts no conflict misses at all.
fn ablation_assoc(gate: &mut Gate) {
    let with_assoc = |assoc: Associativity| {
        let base = presets::origin2000();
        let levels = base
            .levels()
            .iter()
            .cloned()
            .map(|mut l| {
                if l.kind == LevelKind::Cache {
                    l.assoc = assoc;
                }
                l
            })
            .collect();
        HardwareSpec::new(format!("{} [{assoc:?}]", base.name), base.cpu_mhz, levels)
            .expect("valid")
    };
    let n: u64 = 256 * 1024;
    // (variant, [quick-sort, hash-join] × (L1 total, L1 conflict)).
    let runs: Vec<(&str, [(u64, u64); 2])> = [
        ("direct", Associativity::DirectMapped),
        ("2-way", Associativity::Ways(2)),
        ("8-way", Associativity::Ways(8)),
        ("full", Associativity::Full),
    ]
    .into_iter()
    .map(|(name, assoc)| {
        let spec = with_assoc(assoc);
        let l1 = spec.level_index("L1").expect("L1");
        let mut ctx = ExecContext::with_classification(spec.clone());
        let keys = Workload::new(1).shuffled_keys(n as usize);
        let rel = ctx.relation_from_keys("U", &keys, 8);
        let (_, qs) = ctx.measure(|c| ops::sort::quick_sort(c, &rel));
        let mut ctx = ExecContext::with_classification(spec);
        let (uk, vk) = Workload::new(2).join_pair((n / 4) as usize);
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);
        let (_, hj) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
        let l1_of = |s: &RunStats| (misses(&s.mem, l1), s.mem.levels[l1].conflict_misses);
        (name, [l1_of(&qs), l1_of(&hj)])
    })
    .collect();
    let full = runs[3].1;
    for (name, counts) in &runs {
        for (k, op) in ["quick_sort", "hash_join"].iter().enumerate() {
            let artefact = format!("ablation_assoc.{op}");
            gate.record(&artefact, name, "L1", full[k].0 as f64, counts[k].0 as f64);
            gate.record(&artefact, name, "L1 conflict", 0.0, counts[k].1 as f64);
        }
    }
    let direct = runs[0].1;
    assert!(
        direct.iter().all(|d| d.1 > 0) && full.iter().all(|f| f.1 == 0),
        "ablation_assoc: conflicts must appear direct-mapped and vanish fully associative ({runs:?})"
    );
}

/// Ablation: E[distinct items] after `q` draws from `n` (§4.6), the
/// closed form and the Stirling sum against a 200-repetition empirical
/// count; the two formulas agree exactly.
fn ablation_distinct(gate: &mut Gate) {
    for (n, q) in [(16u64, 16u64), (64, 32), (64, 256), (256, 256), (1024, 512)] {
        let reps = 200u64;
        let total: usize = (0..reps)
            .map(|rep| {
                let mut seen = vec![false; n as usize];
                Workload::new(rep ^ 0xD15C)
                    .random_indices(q as usize, n)
                    .into_iter()
                    .filter(|&i| !std::mem::replace(&mut seen[i], true))
                    .count()
            })
            .sum();
        let empirical = total as f64 / reps as f64;
        let (closed, stirling) = (expected_distinct(n, q), expected_distinct_stirling(n, q));
        assert!(
            (closed - stirling).abs() <= 1e-9 * closed,
            "ablation_distinct n={n} q={q}: closed form {closed} != Stirling sum {stirling}"
        );
        let x = format!("n={n},q={q}");
        gate.record(
            "ablation_distinct.closed_form",
            &x,
            "items",
            closed,
            empirical,
        );
        gate.record(
            "ablation_distinct.stirling",
            &x,
            "items",
            stirling,
            empirical,
        );
    }
}

/// Memory ns of `p` with every `⊙` dividing the cache evenly instead of
/// by footprint (Eq 5.3 ablated).
fn even_split_ns(spec: &HardwareSpec, p: &Pattern) -> f64 {
    fn eval_even(p: &Pattern, geo: &Geometry, st: &mut CacheState) -> MissPair {
        match p {
            Pattern::Seq(ps) => ps
                .iter()
                .map(|c| eval_even(c, geo, st))
                .fold(MissPair::default(), |a, b| a + b),
            Pattern::Repeat { k: 0, .. } => MissPair::default(),
            Pattern::Repeat { k, inner } => {
                let first = eval_even(inner, geo, st);
                if *k == 1 {
                    return first;
                }
                first + eval_even(inner, geo, st) * (*k - 1) as f64
            }
            Pattern::Conc(ps) => {
                let sub = geo.scaled(1.0 / ps.len() as f64);
                ps.iter()
                    .map(|c| eval_even(c, &sub, &mut st.clone()))
                    .fold(MissPair::default(), |a, b| a + b)
            }
            basic => eval::eval_level(basic, geo, st),
        }
    }
    spec.levels()
        .iter()
        .map(|lvl| {
            let m = eval_even(p, &Geometry::of(lvl), &mut CacheState::cold());
            m.seq * lvl.seq_miss_ns + m.rand * lvl.rand_miss_ns
        })
        .sum()
}

/// Ablation: Eq 5.3's footprint-proportional cache division against an
/// even split, on hash-joins whose table straddles C2. Footprints win
/// at every size.
fn ablation_footprint(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    for n in [64 * 1024u64, 128 * 1024, 256 * 1024, 512 * 1024] {
        let mut ctx = ExecContext::new(spec.clone());
        let (uk, vk) = Workload::new(n).join_pair(n as usize);
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);
        let (out, stats) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
        let slots = (2 * n).next_power_of_two();
        let h = Region::new("H", slots, 16);
        let p = library::hash_join(
            u.region().clone(),
            v.region().clone(),
            h,
            out.region().clone(),
        );
        let measured = stats.mem.clock_ns / 1e6;
        let (footprint, even) = (model.mem_ns(&p) / 1e6, even_split_ns(spec, &p) / 1e6);
        let x = slots * 16 / KB;
        gate.record(
            "ablation_footprint.footprint",
            x,
            "mem_ms",
            footprint,
            measured,
        );
        gate.record("ablation_footprint.even_split", x, "mem_ms", even, measured);
        assert!(
            (footprint - measured).abs() < (even - measured).abs(),
            "ablation_footprint ||H||={x} KB: footprint {footprint} ms vs even split {even} ms, measured {measured} ms"
        );
    }
}

/// Memory ns of `p` with every `⊕` child priced from a cold cache
/// (Eq 5.2's state carry-over ablated).
fn cold_sum(model: &CostModel, p: &Pattern) -> f64 {
    match p {
        Pattern::Seq(children) => children.iter().map(|c| cold_sum(model, c)).sum(),
        Pattern::Repeat { k, inner } => *k as f64 * cold_sum(model, inner),
        other => model.mem_ns(other),
    }
}

/// Ablation: Eq 5.2's cache-state carry-over against pricing each `⊕`
/// child cold, on a hash-join whose table fits L2 and quick-sorts that
/// fit (2 MB) and overflow (16 MB) it. The stateful model wins each.
fn ablation_state(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let mut cases = Vec::new();
    {
        let n: u64 = 64 * 1024;
        let mut ctx = ExecContext::new(spec.clone());
        let (uk, vk) = Workload::new(3).join_pair(n as usize);
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);
        let (out, stats) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
        let h = Region::new("H", (2 * n).next_power_of_two(), 16);
        let p = library::hash_join(
            u.region().clone(),
            v.region().clone(),
            h,
            out.region().clone(),
        );
        cases.push(("hash_join,H=2MB", stats, p));
    }
    for (x, n, seed) in [
        ("quick_sort,2MB", 256 * 1024u64, 4u64),
        ("quick_sort,16MB", 2 * MB, 5),
    ] {
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(seed).shuffled_keys(n as usize);
        let rel = ctx.relation_from_keys("U", &keys, 8);
        let (_, stats) = ctx.measure(|c| ops::sort::quick_sort(c, &rel));
        cases.push((x, stats, library::quick_sort(rel.region().clone())));
    }
    for (x, stats, p) in cases {
        let measured = stats.mem.clock_ns / 1e6;
        let (full, cold) = (model.mem_ns(&p) / 1e6, cold_sum(model, &p) / 1e6);
        gate.record("ablation_state.full", x, "mem_ms", full, measured);
        gate.record("ablation_state.no_state", x, "mem_ms", cold, measured);
        assert!(
            (full - measured).abs() < (cold - measured).abs(),
            "ablation_state {x}: full model {full} ms vs no-state {cold} ms, measured {measured} ms"
        );
    }
}

/// Extension: B+-tree node size for 50k random lookups in 2M keys
/// ([RR99]); the model's optimum node size is the measured one.
fn extension_btree(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let n: usize = 2 * 1024 * 1024;
    let q: usize = 50_000;
    let keys: Vec<u64> = (0..n as u64).collect();
    let probes = Workload::new(9).random_indices(q, n as u64);
    let l2 = spec.level_index("L2").expect("L2");
    let nodes = [16u64, 32, 64, 128, 256, 1024];
    let (mut pred_ms, mut meas_ms) = (Vec::new(), Vec::new());
    for node_w in nodes {
        let mut ctx = ExecContext::new(spec.clone());
        let tree = BTree::build(&mut ctx, &keys, node_w, "T");
        ctx.cold_caches();
        let (_, stats) = ctx.measure(|c| {
            for &p in &probes {
                tree.lookup(c, p as u64);
            }
        });
        let report = model.report(&tree.lookup_pattern(q as u64));
        gate.record(
            "extension_btree",
            node_w,
            "L2",
            report.levels[l2].misses(),
            misses(&stats.mem, l2) as f64,
        );
        gate.record(
            "extension_btree",
            node_w,
            "mem_ms",
            report.mem_ns / 1e6,
            stats.mem.clock_ns / 1e6,
        );
        pred_ms.push(report.mem_ns);
        meas_ms.push(stats.mem.clock_ns);
    }
    let (pred, meas) = (nodes[argmin(&pred_ms)], nodes[argmin(&meas_ms)]);
    assert_eq!(
        (pred, meas),
        (128, 128),
        "extension_btree: predicted and measured optimum node size (bytes)"
    );
}

/// Extension: the query σ(U) ⋈ V → γ at 50% selectivity, priced as one
/// composed pattern with cross-operator cache reuse (§6).
fn extension_query(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    for size in [256 * KB, MB, 4 * MB] {
        let n = size / 8;
        let mut ctx = ExecContext::new(spec.clone());
        let (uk, vk) = Workload::new(size).join_pair(n as usize);
        let tables = [
            ctx.relation_from_keys("U", &uk, 8),
            ctx.relation_from_keys("V", &vk, 8),
        ];
        let plan = PhysicalPlan::scan(0)
            .select_lt(n / 2)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let (run, stats) =
            ctx.measure(|c| execute(c, &plan, &tables).expect("tables 0 and 1 exist"));
        fig7_rows(
            gate,
            "extension_query",
            size / KB,
            spec,
            &stats,
            &model.report(&run.pattern),
            8 * n,
        );
    }
}

/// Extension: multi-pass radix clustering of 16 MB into 2^12 clusters
/// ([MBK00a]); the model's optimum pass count is the measured one.
fn extension_radix(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    let n: u64 = 2 * 1024 * 1024;
    let bits = 12;
    let cpu = CpuCost::default_planner();
    let (mut pred_ms, mut meas_ms) = (Vec::new(), Vec::new());
    for passes in [1u32, 2, 3, 4] {
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(passes as u64).shuffled_keys(n as usize);
        let input = ctx.relation_from_keys("U", &keys, 8);
        let (_, stats) =
            ctx.measure(|c| ops::partition::radix_partition(c, &input, bits, passes, "R"));
        let w = Region::new("W", n, 8);
        let pattern = ops::partition::radix_partition_pattern(input.region(), &w, bits, passes);
        let report = model.report(&pattern);
        let pred_ops = passes as u64 * n;
        fig7_rows(
            gate,
            "extension_radix",
            passes as u64,
            spec,
            &stats,
            &report,
            pred_ops,
        );
        pred_ms.push(cpu.eq61_ns(report.mem_ns, pred_ops));
        meas_ms.push(stats.total_ns(cpu.per_op_ns));
    }
    assert_eq!(
        (argmin(&pred_ms) + 1, argmin(&meas_ms) + 1),
        (2, 2),
        "extension_radix: predicted and measured optimum pass count"
    );
}

/// Extension: the whole-plan optimizer on γ(σ(F) ⋈ D1 ⋈ D2); every
/// enumerated plan runs on the simulator and the chosen one is the
/// measured fastest (chosen/best = 1.0).
fn query_optimizer(gate: &mut Gate, spec: &HardwareSpec, model: &CostModel) {
    for fact_n in [10_000usize, 40_000, 160_000] {
        let dim_n = fact_n / 4;
        let star = Workload::new(fact_n as u64).star_scenario(fact_n, dim_n, 2);
        let logical = LogicalPlan::scan(0)
            .select_lt(star.threshold(0.5))
            .join(LogicalPlan::scan(1))
            .join(LogicalPlan::scan(2))
            .group_count();
        let stats = [
            TableStats::uniform(fact_n as u64, 8, dim_n as u64, false),
            TableStats::key_column(dim_n as u64, 8, false),
            TableStats::key_column(dim_n as u64, 8, false),
        ];
        let plans = Optimizer::new(model)
            .enumerate(&logical, &stats)
            .expect("star query plans");
        let measured: Vec<f64> = plans
            .iter()
            .map(|planned| {
                let mut ctx = ExecContext::new(spec.clone());
                let tables = [
                    ctx.relation_from_keys("F", &star.fact, 8),
                    ctx.relation_from_keys("D1", &star.dims[0], 8),
                    ctx.relation_from_keys("D2", &star.dims[1], 8),
                ];
                let (_, stats) = ctx.measure(|c| {
                    execute(c, &planned.plan, &tables).expect("plan executes");
                });
                stats.total_ns(CpuCost::DEFAULT_PLANNER_PER_OP_NS)
            })
            .collect();
        gate.record(
            "query_optimizer",
            fact_n,
            "ms",
            plans[0].total_ns() / 1e6,
            measured[0] / 1e6,
        );
        assert_eq!(
            argmin(&measured),
            0,
            "query_optimizer fact n={fact_n}: chosen plan is not the measured fastest ({measured:?})"
        );
    }
}
