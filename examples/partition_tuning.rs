//! Tuning the partitioning fan-out with the cost model (the Figure-7d
//! decision): pick `m` large enough that partitions fit the cache, but
//! below the TLB/L1 cliffs — and reach for multi-pass radix clustering
//! when one pass cannot do both. Exits non-zero when model or
//! simulator disagrees that multi-pass clustering wins.
//!
//! ```bash
//! cargo run --release --example partition_tuning
//! ```

use gcm::core::{CostModel, Region};
use gcm::engine::plan::{LogicalPlan, Optimizer, TableStats};
use gcm::engine::{ops, ExecContext};
use gcm::hardware::presets;
use gcm::workload::Workload;

fn main() {
    let hw = presets::origin2000();
    let model = CostModel::new(hw.clone());
    let n = 2 * 1024 * 1024u64; // 16 MB table
    let input = Region::new("U", n, 8);

    // 1. Single-pass fan-out sweep, priced by the optimizer.
    let stats = [TableStats::uniform(n, 8, 1 << 40, false)];
    let by_bits: Vec<(u32, f64)> = (1..=20)
        .map(|bits| {
            let planned = Optimizer::new(&model)
                .optimize(&LogicalPlan::scan(0).partition(Some(bits)), &stats)
                .expect("the table is described");
            (bits, planned.mem_ns)
        })
        .collect();
    println!("single-pass partitioning of a 16 MB table — model prices per fan-out:");
    for (bits, ns) in &by_bits {
        let marker = match *bits {
            6 => "  <- TLB entries",
            10 => "  <- L1 lines",
            15 => "  <- L2 lines",
            _ => "",
        };
        println!("  m = {:>8}: {:>8.1} ms{marker}", 1u64 << bits, ns / 1e6);
    }
    // `min_by` keeps the first of equal minima: the smallest fan-out.
    let (cheapest, _) = by_bits
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("twenty fan-outs");
    println!("cheapest fan-out: m = {}\n", 1u64 << cheapest);

    // 2. Reaching 4096 clusters: one pass (past the cliffs) vs two radix
    //    passes of 64 — model and simulator agree.
    let w = Region::new("W", n, 8);
    let single = model.mem_ns(&ops::partition::radix_partition_pattern(&input, &w, 12, 1));
    let multi = model.mem_ns(&ops::partition::radix_partition_pattern(&input, &w, 12, 2));
    println!("reaching 4096 clusters (12 radix bits):");
    println!(
        "  predicted: 1 pass x 4096-way = {:.1} ms, 2 passes x 64-way = {:.1} ms",
        single / 1e6,
        multi / 1e6
    );

    let n_run = 524_288u64; // 4 MB table keeps this example fast
    let keys = Workload::new(3).shuffled_keys(n_run as usize);
    let mut measured = Vec::new();
    for passes in [1u32, 2] {
        let mut ctx = ExecContext::new(hw.clone());
        let rel = ctx.relation_from_keys("U", &keys, 8);
        let (_, stats) = ctx.measure(|c| {
            ops::partition::radix_partition(c, &rel, 12, passes, "R");
        });
        measured.push(stats.mem.clock_ns / 1e6);
    }
    println!(
        "  measured ({n_run} tuples): 1 pass = {:.1} ms, 2 passes = {:.1} ms",
        measured[0], measured[1]
    );
    let confirmed = measured[1] < measured[0] && multi < single;
    println!(
        "  multi-pass radix clustering wins: {}",
        if confirmed { "confirmed" } else { "NO" }
    );
    if !confirmed {
        std::process::exit(1);
    }
}
