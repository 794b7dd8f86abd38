//! Extension — predicted vs measured parallel speedup.
//!
//! A partition-parallel stage run by `d` worker threads is priced as the
//! `⊙`-composition of `d` per-thread patterns: shared cache levels are
//! divided among the threads by footprint (Eq 5.3 across cores), private
//! levels see only their own thread, and the stage's elapsed time is the
//! slowest thread (`CostModel::advance_parallel`). The measured side
//! runs real `std::thread::scope` workers, each over its own simulated
//! hierarchy on the machine's per-thread view (`gcm_engine::parallel`).
//!
//! For DOP ∈ {1, 2, 4} on the 4-core tiny SMP, the measured speedup must
//! land within 35% of the ⊙-predicted curve — for the parallel filter,
//! the parallel aggregation, and the partition-parallel hash join.
//! T_cpu uses Eq 6.1 with the run's logical-op counts (the paper's
//! calibrated-CPU convention).

use gcm_bench::table::Series;
use gcm_core::{CacheState, CostModel, Region};
use gcm_engine::parallel::{self, SimWorkers};
use gcm_hardware::presets;
use gcm_workload::Workload;

const PER_OP_NS: f64 = 4.0;
const TOLERANCE: f64 = 0.35;
const DOPS: [usize; 3] = [1, 2, 4];

struct Curve {
    name: &'static str,
    measured_ns: Vec<f64>,
    predicted_ns: Vec<f64>,
}

impl Curve {
    fn speedups(&self) -> (Vec<f64>, Vec<f64>) {
        let m: Vec<f64> = self
            .measured_ns
            .iter()
            .map(|t| self.measured_ns[0] / t)
            .collect();
        let p: Vec<f64> = self
            .predicted_ns
            .iter()
            .map(|t| self.predicted_ns[0] / t)
            .collect();
        (m, p)
    }
}

fn main() {
    let spec = presets::tiny_smp(4);
    let model = CostModel::new(spec.clone());
    let mut wl = Workload::new(4242);

    // --- Parallel filter over a far-beyond-cache table. ---
    let scan_keys = wl.shuffled_keys(131_072); // 1 MB
    let filter = {
        let n = scan_keys.len() as u64;
        let mut measured = Vec::new();
        let mut predicted = Vec::new();
        for &dop in &DOPS {
            let run = parallel::par_filter_lt(
                &SimWorkers::new(&spec, dop),
                &scan_keys,
                n / 2,
                dop,
                PER_OP_NS,
            );
            let u = Region::new("U", n, 8);
            let w = Region::new("W", run.out.len() as u64, 8);
            let threads = parallel::par_select_patterns(&u, &w, dop as u64);
            let par = model.advance_parallel(&threads, &mut model.staged(&CacheState::cold()));
            measured.push(run.wall_ns);
            predicted.push(par.wall_ns + PER_OP_NS * run.ops as f64 / dop as f64);
        }
        Curve {
            name: "filter",
            measured_ns: measured,
            predicted_ns: predicted,
        }
    };

    // --- Parallel aggregation with few (cache-resident) groups. ---
    let agg_keys = wl.uniform_keys_bounded(131_072, 512);
    let aggregate = {
        let n = agg_keys.len() as u64;
        let mut measured = Vec::new();
        let mut predicted = Vec::new();
        for &dop in &DOPS {
            let run =
                parallel::par_group_count(&SimWorkers::new(&spec, dop), &agg_keys, dop, PER_OP_NS);
            let u = Region::new("U", n, 8);
            let w = Region::new("G", run.out.len() as u64, 16);
            let (threads, merge) =
                parallel::par_group_patterns(&u, run.out.len() as u64, &w, dop as u64);
            let mut st = model.staged(&CacheState::cold());
            let par = model.advance_parallel(&threads, &mut st);
            let merge_ns = model.advance(&merge, &mut st).mem_ns;
            measured.push(run.wall_ns);
            // The merge is sequential: its ops are charged at full,
            // only the thread-phase ops divide by the DOP.
            let thread_ops = (run.ops - run.serial_ops) as f64;
            predicted.push(
                par.wall_ns
                    + merge_ns
                    + PER_OP_NS * (thread_ops / dop as f64 + run.serial_ops as f64),
            );
        }
        Curve {
            name: "aggregate",
            measured_ns: measured,
            predicted_ns: predicted,
        }
    };

    // --- Partition-parallel hash join, 16-way partitioned. ---
    let (uk, vk) = wl.join_pair(32_768); // per side: 256 KB + tables
    let join = {
        let n = uk.len() as u64;
        let mut measured = Vec::new();
        let mut predicted = Vec::new();
        for &dop in &DOPS {
            let run =
                parallel::par_hash_join(&SimWorkers::new(&spec, dop), &uk, &vk, 4, dop, PER_OP_NS);
            let u = Region::new("U", n, 8);
            let v = Region::new("V", n, 8);
            let w = Region::new("W", run.out.len() as u64, 16);
            let up = Region::new("Up", n, 8);
            let vp = Region::new("Vp", n, 8);
            let threads = parallel::par_hash_join_patterns(&u, &v, &w, &up, &vp, 16, dop as u64);
            let par = model.advance_parallel(&threads, &mut model.staged(&CacheState::cold()));
            measured.push(run.wall_ns);
            predicted.push(par.wall_ns + PER_OP_NS * run.ops as f64 / dop as f64);
        }
        Curve {
            name: "hash join",
            measured_ns: measured,
            predicted_ns: predicted,
        }
    };

    let mut series = Series::new(
        format!(
            "Extension — parallel speedup on {} (times in ms; speedup vs DOP 1)",
            spec.name
        ),
        &[
            "DOP",
            "filt meas",
            "filt pred",
            "agg meas",
            "agg pred",
            "join meas",
            "join pred",
            "join meas spd",
            "join pred spd",
        ],
    );
    let (jm, jp) = join.speedups();
    for (i, &dop) in DOPS.iter().enumerate() {
        series.row(&[
            dop as f64,
            filter.measured_ns[i] / 1e6,
            filter.predicted_ns[i] / 1e6,
            aggregate.measured_ns[i] / 1e6,
            aggregate.predicted_ns[i] / 1e6,
            join.measured_ns[i] / 1e6,
            join.predicted_ns[i] / 1e6,
            jm[i],
            jp[i],
        ]);
    }
    series.print();

    for curve in [&filter, &aggregate, &join] {
        let (m, p) = curve.speedups();
        for (i, &dop) in DOPS.iter().enumerate() {
            let ratio = m[i] / p[i];
            println!(
                "{:>9} DOP {dop}: measured speedup {:.2}x, ⊙-predicted {:.2}x (ratio {:.2})",
                curve.name, m[i], p[i], ratio
            );
            assert!(
                (ratio - 1.0).abs() <= TOLERANCE,
                "{} at DOP {dop}: measured speedup {:.2} deviates more than {:.0}% \
                 from the ⊙-predicted {:.2}",
                curve.name,
                m[i],
                TOLERANCE * 100.0,
                p[i]
            );
        }
    }
    println!(
        "\nmeasured speedups track the ⊙-composed predictions within {:.0}% \
         for DOP ∈ {{1, 2, 4}} ✓",
        TOLERANCE * 100.0
    );
    // Sanity: parallelism actually helps on this workload.
    let (jm, _) = join.speedups();
    assert!(jm[2] > 1.8, "4-way join speedup {:.2} too low", jm[2]);
}
