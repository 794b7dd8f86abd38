//! Operator-level model validation: the integration analogue of the
//! paper's Figure 7, on the tiny test machine.
//!
//! Each database operator is executed for real over the simulator while
//! its pattern description is evaluated by the cost model; measured and
//! predicted misses/time must agree in shape (cliff positions, winners)
//! and, for the stream-dominated operators, in magnitude.

use gcm_bench::compare::compare_levels;
use gcm_core::{library, CostModel, CpuCost, Region};
use gcm_engine::{ops, ExecContext};
use gcm_hardware::presets;
use gcm_workload::Workload;

fn total_measured(snapshot: &gcm_sim::Snapshot, idx: usize) -> f64 {
    (snapshot.levels[idx].seq_misses + snapshot.levels[idx].rand_misses) as f64
}

#[test]
fn quicksort_misses_and_step() {
    let spec = presets::tiny_full_assoc();
    let model = CostModel::new(spec.clone());
    let l2 = spec.level_index("L2").unwrap();

    // In-cache table: measured and predicted L2 misses are compulsory
    // only; oversized table: every pass pays.
    let mut results = Vec::new();
    for n in [1024u64, 16_384] {
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(100).shuffled_keys(n as usize);
        let rel = ctx.relation_from_keys("U", &keys, 8);
        let (_, stats) = ctx.measure(|c| ops::sort::quick_sort(c, &rel));
        let predicted = model.misses(&library::quick_sort(rel.region().clone()));
        results.push((n, total_measured(&stats.mem, l2), predicted[l2].total()));
    }
    let (_, m_small, p_small) = results[0];
    let (_, m_big, p_big) = results[1];
    // Small table (8 KB < 16 KB L2): both sides see ~compulsory misses.
    let compulsory_small = 8.0 * 1024.0 / 64.0;
    assert!(m_small <= 2.0 * compulsory_small, "measured {m_small}");
    assert!(p_small <= 2.0 * compulsory_small, "predicted {p_small}");
    // Large table (128 KB): both sides see ~log n × compulsory.
    assert!(
        m_big > 8.0 * m_small,
        "step must appear: {m_small} -> {m_big}"
    );
    assert!(
        p_big > 8.0 * p_small,
        "predicted step: {p_small} -> {p_big}"
    );
    // Magnitudes within 2× (quick-sort's skewed segment tree vs. the
    // model's uniform halving).
    let ratio = p_big / m_big;
    assert!((0.5..2.0).contains(&ratio), "L2 ratio {ratio}");
}

#[test]
fn merge_join_misses_match_closely() {
    // Merge-join is pure streaming: the model should be accurate, not
    // just shape-correct.
    let spec = presets::tiny();
    let model = CostModel::new(spec.clone());
    let n = 8192u64;
    let mut ctx = ExecContext::new(spec.clone());
    let keys: Vec<u64> = (0..n).collect();
    let u = ctx.relation_from_keys("U", &keys, 8);
    let v = ctx.relation_from_keys("V", &keys, 8);
    let (out, stats) = ctx.measure(|c| ops::merge_join::merge_join(c, &u, &v, "W", 16));
    let predicted = model.misses(&library::merge_join(
        u.region().clone(),
        v.region().clone(),
        out.region().clone(),
    ));
    for row in compare_levels(&spec, &stats.mem, &predicted) {
        assert!(
            row.within(0.20, 16.0),
            "{}: measured {} predicted {}",
            row.name,
            row.measured,
            row.predicted
        );
    }
}

#[test]
fn hash_join_cliff_position_agrees() {
    let spec = presets::tiny_full_assoc();
    let model = CostModel::new(spec.clone());
    let l2 = spec.level_index("L2").unwrap();
    let per_tuple = |n: u64| {
        let mut ctx = ExecContext::new(spec.clone());
        let (uk, vk) = Workload::new(101).join_pair(n as usize);
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);
        let (out, stats) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
        let h = Region::new("H", (2 * n).next_power_of_two(), 16);
        let predicted = model.misses(&library::hash_join(
            u.region().clone(),
            v.region().clone(),
            h,
            out.region().clone(),
        ));
        (
            total_measured(&stats.mem, l2) / n as f64,
            predicted[l2].total() / n as f64,
        )
    };
    let (m_small, p_small) = per_tuple(256); // H = 8 KB < L2
    let (m_big, p_big) = per_tuple(16_384); // H = 512 KB ≫ L2
    assert!(m_big > 3.0 * m_small, "measured cliff {m_small} -> {m_big}");
    assert!(
        p_big > 3.0 * p_small,
        "predicted cliff {p_small} -> {p_big}"
    );
    // Post-cliff magnitude within 2× (open-addressing probe chains vs.
    // the model's single-slot abstraction).
    let ratio = p_big / m_big;
    assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
}

#[test]
fn partition_cliffs_in_both_worlds() {
    let spec = presets::tiny_full_assoc();
    let model = CostModel::new(spec.clone());
    let l1 = spec.level_index("L1").unwrap();
    let tlb = spec.level_index("TLB").unwrap();
    let n = 32_768u64;
    let run = |bits: u32| {
        let mut ctx = ExecContext::new(spec.clone());
        let keys = Workload::new(102).shuffled_keys(n as usize);
        let input = ctx.relation_from_keys("U", &keys, 8);
        let (parts, stats) =
            ctx.measure(|c| ops::partition::radix_partition(c, &input, bits, 1, "W"));
        let predicted = model.misses(&ops::partition::radix_partition_pattern(
            input.region(),
            parts.rel.region(),
            bits,
            1,
        ));
        (
            total_measured(&stats.mem, l1),
            predicted[l1].total(),
            total_measured(&stats.mem, tlb),
            predicted[tlb].total(),
        )
    };
    let low = run(2); // 4 ways
    let mid = run(5); // 32 ways: above TLB entries (8), below L1 lines (64)
    let high = run(9); // 512 ways: above L1 lines

    // TLB cliff between low and mid, both worlds.
    assert!(mid.2 > 2.0 * low.2, "measured TLB cliff {low:?} {mid:?}");
    assert!(mid.3 > 2.0 * low.3, "predicted TLB cliff {low:?} {mid:?}");
    // L1 cliff between mid and high, both worlds.
    assert!(high.0 > 2.0 * mid.0, "measured L1 cliff {mid:?} {high:?}");
    assert!(high.1 > 2.0 * mid.1, "predicted L1 cliff {mid:?} {high:?}");
}

#[test]
fn partitioned_hash_join_crossover() {
    // The paper's headline: plain hash-join loses to partitioned
    // hash-join once the hash table exceeds the cache — in measured
    // misses, measured time, and predicted time alike.
    let spec = presets::tiny_full_assoc();
    let model = CostModel::new(spec.clone());
    let n = 16_384u64; // H = 512 KB ≫ L2 (16 KB)
    let l2 = spec.level_index("L2").unwrap();

    let (uk, vk) = Workload::new(103).join_pair(n as usize);

    // Plain hash-join.
    let mut ctx = ExecContext::new(spec.clone());
    let u = ctx.relation_from_keys("U", &uk, 8);
    let v = ctx.relation_from_keys("V", &vk, 8);
    let (out_plain, plain_stats) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
    let h = Region::new("H", (2 * n).next_power_of_two(), 16);
    let plain_pred = model.report(&library::hash_join(
        u.region().clone(),
        v.region().clone(),
        h,
        out_plain.region().clone(),
    ));

    // Partitioned hash-join with cache-fitting partitions.
    let bits = 7; // 128 ways: per-partition H = 4 KB < L2
    let mut ctx2 = ExecContext::new(spec.clone());
    let u2 = ctx2.relation_from_keys("U", &uk, 8);
    let v2 = ctx2.relation_from_keys("V", &vk, 8);
    let (out_part, part_stats) =
        ctx2.measure(|c| ops::part_hash_join::part_hash_join(c, &u2, &v2, bits, "W", 16));
    let up = Region::new("Up", n, 8);
    let vp = Region::new("Vp", n, 8);
    let part_pred = model.report(&ops::part_hash_join::part_hash_join_pattern(
        u2.region(),
        v2.region(),
        out_part.region(),
        bits,
        &up,
        &vp,
    ));

    // Results identical.
    assert_eq!(out_plain.n(), out_part.n());
    // Measured: partitioning wins on L2 misses and on charged time.
    assert!(total_measured(&part_stats.mem, l2) < total_measured(&plain_stats.mem, l2));
    assert!(part_stats.mem.clock_ns < plain_stats.mem.clock_ns);
    // Predicted: the model picks the same winner.
    assert!(part_pred.mem_ns < plain_pred.mem_ns);
}

#[test]
fn eq61_time_prediction_tracks_measurement() {
    // T = T_mem + T_cpu: calibrate per-op CPU cost in-cache, then check
    // predicted total time is within 2× of measured for quick-sort.
    let spec = presets::tiny_full_assoc();
    let model = CostModel::new(spec.clone());
    let per_op_ns = 2.0; // engine CPU calibration constant

    let n = 16_384u64;
    let mut ctx = ExecContext::new(spec.clone());
    let keys = Workload::new(104).shuffled_keys(n as usize);
    let rel = ctx.relation_from_keys("U", &keys, 8);
    let (_, stats) = ctx.measure(|c| ops::sort::quick_sort(c, &rel));
    let measured_total = stats.total_ns(per_op_ns);

    let pattern = library::quick_sort(rel.region().clone());
    let cpu = CpuCost::per_op(per_op_ns);
    let predicted_total = model.total_ns(&pattern, cpu, ops::sort::quick_sort_expected_ops(n));

    let ratio = predicted_total / measured_total;
    assert!((0.5..2.0).contains(&ratio), "time ratio {ratio}");
}

#[test]
fn join_planner_ranks_algorithms_like_measurements() {
    // The optimizer use-case: on a table far exceeding the cache, the
    // model must rank merge-join (pre-sorted) < partitioned hash-join <
    // plain hash-join < nested-loop, matching measured charged time.
    let spec = presets::tiny_full_assoc();
    let model = CostModel::new(spec.clone());
    let n = 4096u64;
    let (uk, vk) = Workload::new(105).join_pair(n as usize);
    let sorted: Vec<u64> = (0..n).collect();

    // Measured charged ns per algorithm.
    let measure_alg = |alg: &str| -> f64 {
        let mut ctx = ExecContext::new(spec.clone());
        match alg {
            "merge" => {
                let u = ctx.relation_from_keys("U", &sorted, 8);
                let v = ctx.relation_from_keys("V", &sorted, 8);
                let (_, s) = ctx.measure(|c| ops::merge_join::merge_join(c, &u, &v, "W", 16));
                s.mem.clock_ns
            }
            "hash" => {
                let u = ctx.relation_from_keys("U", &uk, 8);
                let v = ctx.relation_from_keys("V", &vk, 8);
                let (_, s) = ctx.measure(|c| ops::hash::hash_join(c, &u, &v, "W", 16));
                s.mem.clock_ns
            }
            "part" => {
                let u = ctx.relation_from_keys("U", &uk, 8);
                let v = ctx.relation_from_keys("V", &vk, 8);
                let (_, s) =
                    ctx.measure(|c| ops::part_hash_join::part_hash_join(c, &u, &v, 5, "W", 16));
                s.mem.clock_ns
            }
            "nl" => {
                // Nested loop is quadratic: measure at n/16 and scale by
                // 256 (cost is inner-sweep dominated).
                let small = (n / 16) as usize;
                let u = ctx.relation_from_keys("U", &uk[..small], 8);
                let v = ctx.relation_from_keys("V", &vk[..small], 8);
                let (_, s) = ctx.measure(|c| ops::nl_join::nested_loop_join(c, &u, &v, "W", 16));
                s.mem.clock_ns * 256.0
            }
            _ => unreachable!(),
        }
    };

    // Predicted T_mem per algorithm.
    let u = Region::new("U", n, 8);
    let v = Region::new("V", n, 8);
    let w = Region::new("W", n, 16);
    let h = Region::new("H", (2 * n).next_power_of_two(), 16);
    let up = Region::new("Up", n, 8);
    let vp = Region::new("Vp", n, 8);
    let predict = |alg: &str| -> f64 {
        match alg {
            "merge" => model.mem_ns(&library::merge_join(u.clone(), v.clone(), w.clone())),
            "hash" => model.mem_ns(&library::hash_join(
                u.clone(),
                v.clone(),
                h.clone(),
                w.clone(),
            )),
            "part" => model.mem_ns(&ops::part_hash_join::part_hash_join_pattern(
                &u, &v, &w, 5, &up, &vp,
            )),
            "nl" => model.mem_ns(&library::nested_loop_join(u.clone(), v.clone(), w.clone())),
            _ => unreachable!(),
        }
    };

    let algs = ["merge", "part", "hash", "nl"];
    let measured: Vec<f64> = algs.iter().map(|a| measure_alg(a)).collect();
    let predicted: Vec<f64> = algs.iter().map(|a| predict(a)).collect();

    // Both rankings: merge < part < hash < nl.
    for i in 0..algs.len() - 1 {
        assert!(
            measured[i] < measured[i + 1],
            "measured order broken at {}: {measured:?}",
            algs[i]
        );
        assert!(
            predicted[i] < predicted[i + 1],
            "predicted order broken at {}: {predicted:?}",
            algs[i]
        );
    }
}

#[test]
fn aggregation_hash_vs_sort_winner() {
    // Few groups: the hash table stays cached and hashing beats sort
    // both measured and predicted.
    let spec = presets::tiny_full_assoc();
    let model = CostModel::new(spec.clone());
    let n = 8192u64;
    let groups = 64u64;

    let keys = Workload::new(106).uniform_keys_bounded(n as usize, groups);
    let mut ctx = ExecContext::new(spec.clone());
    let input = ctx.relation_from_keys("U", &keys, 8);
    let (_, hash_stats) = ctx.measure(|c| ops::aggregate::hash_group_count(c, &input, "G"));

    let mut ctx2 = ExecContext::new(spec.clone());
    let input2 = ctx2.relation_from_keys("U", &keys, 8);
    let (_, sort_stats) = ctx2.measure(|c| ops::aggregate::sort_dedup(c, &input2, "D"));

    assert!(hash_stats.mem.clock_ns < sort_stats.mem.clock_ns);

    let u = Region::new("U", n, 8);
    let h = Region::new("H", (2 * groups).next_power_of_two(), 16);
    let w = Region::new("W", groups, 16);
    let hash_pred = model.mem_ns(&ops::aggregate::hash_group_pattern(&u, &h, &w));
    let sort_pred = model.mem_ns(&library::sort_aggregate(u.clone(), w.clone()));
    assert!(hash_pred < sort_pred);
}
