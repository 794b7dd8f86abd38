//! Quickstart: describe an algorithm's memory access in the pattern
//! language and get its predicted cost on a described machine — then
//! execute the real algorithm on the simulator and compare.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use gcm::core::{library, CostModel, Region};
use gcm::engine::{ops, ExecContext};
use gcm::hardware::presets;
use gcm::workload::Workload;

fn main() {
    // 1. A machine: the paper's SGI Origin2000 (Table 3).
    let hw = presets::origin2000();
    println!("machine under the model:\n{}", hw.characteristics_table());

    // 2. Data regions: two 1M-tuple tables, a hash table, an output.
    let n = 1_000_000u64;
    let u = Region::new("U", n, 8);
    let v = Region::new("V", n, 8);
    let h = Region::new("H", (2 * n).next_power_of_two(), 16);
    let w = Region::new("W", n, 16);

    // 3. The algorithm as an access pattern (paper Table 2)...
    let pattern = library::hash_join(u, v, h, w);
    println!("hash_join(U, V) → W in the pattern language:\n    {pattern}\n");

    // ...and its cost, derived automatically (Eq 4.x + 5.x + 3.1).
    let model = CostModel::new(hw.clone());
    let report = model.report(&pattern);
    println!("predicted cost:\n{report}\n");

    // 4. Validate against the simulator: run a real hash join (scaled to
    //    256K tuples so this example finishes in about a second).
    let n_run = 262_144u64;
    let mut ctx = ExecContext::new(hw.clone());
    let (uk, vk) = Workload::new(1).join_pair(n_run as usize);
    let u_rel = ctx.relation_from_keys("U", &uk, 8);
    let v_rel = ctx.relation_from_keys("V", &vk, 8);
    let (out, stats) = ctx.measure(|c| ops::hash::hash_join(c, &u_rel, &v_rel, "W", 16));
    println!(
        "executed for real over the simulator ({n_run} tuples, {} matches):",
        out.n()
    );

    let h_run = Region::new("H", (2 * n_run).next_power_of_two(), 16);
    let run_pattern = library::hash_join(
        u_rel.region().clone(),
        v_rel.region().clone(),
        h_run,
        out.region().clone(),
    );
    let run_report = model.report(&run_pattern);
    println!("  level   measured misses   predicted misses");
    for (i, lvl) in hw.levels().iter().enumerate() {
        let m = stats.mem.levels[i].seq_misses + stats.mem.levels[i].rand_misses;
        println!(
            "  {:<7} {:>15} {:>18.0}",
            lvl.name,
            m,
            run_report.levels[i].misses()
        );
    }
    println!(
        "  memory time: measured {:.1} ms, predicted {:.1} ms",
        stats.mem.clock_ns / 1e6,
        run_report.mem_ns / 1e6
    );
}
