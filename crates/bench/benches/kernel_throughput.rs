//! Kernel throughput: the vectorized/prefetched native kernels vs the
//! scalar per-tuple reference path, with the calibrated model's
//! prediction alongside.
//!
//! For each operator the same work runs twice on real host memory —
//! once through the kernel path exactly as the executor serves it
//! ([`ExecContext::native`]: SIMD scan/filter, register-counted hash
//! build/probe/group-count loops, software prefetch
//! [`kernels::PREFETCH_DISTANCE`] items ahead on probes, upserts and
//! scatters) and once through the scalar reference
//! ([`ExecContext::native_scalar`], the per-tuple charged loops that are
//! byte- and counter-identical to the simulator's) — and the minimum of
//! [`RUNS`] wall-clock times is kept.
//! Each path runs on one arena reused across its runs and faulted in
//! by an untimed first run, as the service's resident workers run; the
//! inputs are mapped in place outside the measured interval.
//! Throughput is input bytes over wall time (1 byte/ns = 1 GB/s).
//!
//! Each path gets its own prediction on the host-calibrated spec, both
//! by the paper's additive Eq 6.1 over the same memory term: the scalar
//! reference with the scalar-calibrated per-op CPU
//! ([`calibrate_per_op_ns`]), the kernel path with the kernel-calibrated
//! one ([`calibrate_kernel_per_op_ns`]).
//!
//! Results land in `BENCH_kernels.json` at the repo root so kernel
//! regressions stay visible across PRs. The hash probe, group-count and
//! partition-scatter kernels must beat the scalar reference by
//! [`KERNEL_SPEEDUP`] (1.3×) whatever the dispatch: they keep the charged
//! accounting in registers where the reference updates it per access
//! (the scatter kernel runs every radix-partition pass). Two more
//! claims are *enforced* when
//! the SIMD dispatch is live: the scan kernel beats the scalar
//! reference by ≥ 2× on the large out-of-cache scan (per-tuple charged
//! loads cost several ns each; the kernel streams whole lines), and
//! the Eq 6.1 kernel-path prediction lands within [`MODEL_BOUND`] (4×)
//! of the measured kernel scan.

use gcm_calibrate::calibrate_host;
use gcm_core::{library, CostModel, CpuCost, Pattern, Region};
use gcm_engine::native::{calibrate_kernel_per_op_ns, calibrate_per_op_ns};
use gcm_engine::{kernels, ops, ExecContext, MemoryBackend, NativeBackend, Segment};
use gcm_workload::Workload;

/// Tuples in the large scan/filter input: 4 Mi keys = 32 MB, well past
/// any LLC this runs on.
const SCAN_N: usize = 4 * 1024 * 1024;

/// Fact/dimension sizes of the probe and partition cases: the hash
/// table (2·dim slots × 16 B = 8 MB) exceeds the LLC, so probes are
/// genuine random memory misses — the case N-ahead prefetch targets.
const FACT_N: usize = 1024 * 1024;
const DIM_N: usize = 256 * 1024;

/// Groups of the group-count case: `exec_large`'s group-by shape, a
/// 4 MiB counting table (2·128 Ki slots × 16 B) past the L2.
const GROUP_N: usize = 128 * 1024;

/// Partition fan-out `2^FANOUT_BITS` = 4096: past the TLB-entry and
/// L1-line cliffs (§4.7), so the scattered stores actually miss — the
/// case write prefetch targets.
const FANOUT_BITS: u32 = 12;

/// Timed repetitions per case; the minimum is kept.
const RUNS: usize = 3;

/// Enforced agreement factor between the Eq 6.1 kernel-path prediction
/// and the measured kernel scan.
const MODEL_BOUND: f64 = 4.0;

/// Enforced speedup of the hash probe, group-count and partition
/// kernels over the scalar reference.
const KERNEL_SPEEDUP: f64 = 1.3;

struct Case {
    name: &'static str,
    bytes: u64,
    scalar_ns: f64,
    kernel_ns: f64,
    modeled_scalar_ns: f64,
    modeled_kernel_ns: f64,
}

/// Minimum wall time of `RUNS` executions on one arena — the
/// executor's kernel path if `kernel`, else the scalar reference —
/// reused the way a served worker reuses its arena, after an untimed
/// run that faults it in. Each run resets the arena, binds the
/// inputs (mapped in place, outside the measured interval) and measures
/// `work`, so only the operator's own work and the zeroing of what it
/// allocates are timed.
fn min_wall_ns(
    kernel: bool,
    inputs: &[Segment],
    work: impl Fn(&mut ExecContext<NativeBackend>, &[gcm_engine::Relation]),
) -> f64 {
    let mut ctx = if kernel {
        ExecContext::native()
    } else {
        ExecContext::native_scalar()
    };
    let mut best = f64::INFINITY;
    for run in 0..=RUNS {
        ctx.mem.reset();
        let rels: Vec<gcm_engine::Relation> = inputs
            .iter()
            .enumerate()
            .map(|(i, seg)| ctx.bind(&format!("T{i}"), seg, seg.len() / 8, 8))
            .collect();
        let (_, stats) = ctx.measure(|c| work(c, &rels));
        if run > 0 {
            best = best.min(NativeBackend::elapsed_ns(&stats.mem));
        }
    }
    best
}

fn gbps(bytes: u64, ns: f64) -> f64 {
    bytes as f64 / ns.max(1e-9)
}

fn main() {
    // Calibrate once: the spec prices the modeled columns.
    let spec = calibrate_host(16 * 1024 * 1024)
        .to_spec("host (calibrated)", 1_000.0)
        .expect("calibrated spec");
    let model = CostModel::new(spec);
    // Both paths: Eq 6.1, each at its own calibrated per-op CPU cost.
    let cpu_scalar = CpuCost::per_op(calibrate_per_op_ns());
    let cpu_kernel = CpuCost::per_op(calibrate_kernel_per_op_ns());

    let scan_keys = Workload::new(71).shuffled_keys(SCAN_N);
    let fact = Workload::new(72).uniform_keys_bounded(FACT_N, DIM_N as u64);
    let dim: Vec<u64> = (0..DIM_N as u64).collect();
    let grouped = Workload::new(73).uniform_keys_bounded(FACT_N, GROUP_N as u64);

    let modeled = |pattern: &Pattern, ops_est: u64| {
        (
            model.total_ns(pattern, cpu_scalar, ops_est),
            model.total_ns(pattern, cpu_kernel, ops_est),
        )
    };
    let both =
        |keys: &[&[u64]],
         work: &dyn Fn(&mut ExecContext<NativeBackend>, &[gcm_engine::Relation])| {
            let inputs: Vec<Segment> = keys.iter().map(|k| Segment::from_keys(k, 8)).collect();
            (
                min_wall_ns(false, &inputs, work),
                min_wall_ns(true, &inputs, work),
            )
        };

    let mut cases: Vec<Case> = Vec::new();

    // --- scan: SIMD sum over 32 MB -----------------------------------
    {
        let (scalar_ns, kernel_ns) = both(&[&scan_keys], &|c, r| {
            std::hint::black_box(ops::scan::scan_sum(c, &r[0], 8));
        });
        let u = Region::new("U", SCAN_N as u64, 8);
        let (modeled_scalar_ns, modeled_kernel_ns) =
            modeled(&ops::scan::scan_pattern(&u, 8), SCAN_N as u64);
        cases.push(Case {
            name: "scan_sum",
            bytes: (SCAN_N * 8) as u64,
            scalar_ns,
            kernel_ns,
            modeled_scalar_ns,
            modeled_kernel_ns,
        });
    }

    // --- filter: SIMD select_lt at ~50% selectivity ------------------
    {
        let threshold = SCAN_N as u64 / 2;
        let (scalar_ns, kernel_ns) = both(&[&scan_keys], &move |c, r| {
            std::hint::black_box(ops::scan::select_lt(c, &r[0], threshold, "W"));
        });
        let u = Region::new("U", SCAN_N as u64, 8);
        let w = Region::new("W", threshold, 8);
        let (modeled_scalar_ns, modeled_kernel_ns) =
            modeled(&ops::scan::select_pattern(&u, &w), SCAN_N as u64);
        cases.push(Case {
            name: "select_lt",
            bytes: (SCAN_N * 8) as u64,
            scalar_ns,
            kernel_ns,
            modeled_scalar_ns,
            modeled_kernel_ns,
        });
    }

    // --- probe: hash join, prefetched table probes -------------------
    {
        let (scalar_ns, kernel_ns) = both(&[&fact, &dim], &|c, r| {
            std::hint::black_box(ops::hash::hash_join(c, &r[0], &r[1], "W", 16));
        });
        let u = Region::new("U", FACT_N as u64, 8);
        let v = Region::new("V", DIM_N as u64, 8);
        let h = Region::new(
            "H",
            ops::hash::table_slots(DIM_N as u64),
            ops::hash::ENTRY_BYTES,
        );
        let w = Region::new("W", FACT_N as u64, 16);
        let ops_est = ops::hash::build_ops(DIM_N as u64) + 5 * FACT_N as u64;
        let (modeled_scalar_ns, modeled_kernel_ns) =
            modeled(&library::hash_join(u, v, h, w), ops_est);
        cases.push(Case {
            name: "hash_probe",
            bytes: ((FACT_N + DIM_N) * 8) as u64,
            scalar_ns,
            kernel_ns,
            modeled_scalar_ns,
            modeled_kernel_ns,
        });
    }

    // --- group-count: upserts into an out-of-cache counting table ----
    {
        let (scalar_ns, kernel_ns) = both(&[&grouped], &|c, r| {
            std::hint::black_box(ops::aggregate::hash_group_count(c, &r[0], "G"));
        });
        let u = Region::new("U", FACT_N as u64, 8);
        let h = Region::new(
            "H",
            ops::hash::table_slots(GROUP_N as u64),
            ops::hash::ENTRY_BYTES,
        );
        let w = Region::new("W", GROUP_N as u64, 16);
        let ops_est = 2 * FACT_N as u64 + GROUP_N as u64;
        let (modeled_scalar_ns, modeled_kernel_ns) =
            modeled(&ops::aggregate::hash_group_pattern(&u, &h, &w), ops_est);
        cases.push(Case {
            name: "group_count",
            bytes: (FACT_N * 8) as u64,
            scalar_ns,
            kernel_ns,
            modeled_scalar_ns,
            modeled_kernel_ns,
        });
    }

    // --- partition: scatter with write prefetch ----------------------
    {
        let (scalar_ns, kernel_ns) = both(&[&fact], &|c, r| {
            let parts = ops::partition::radix_partition(c, &r[0], FANOUT_BITS, 1, "P");
            std::hint::black_box(parts);
        });
        let u = Region::new("U", FACT_N as u64, 8);
        let p = Region::new("P", FACT_N as u64, 8);
        let (modeled_scalar_ns, modeled_kernel_ns) = modeled(
            &ops::partition::radix_partition_pattern(&u, &p, FANOUT_BITS, 1),
            FACT_N as u64,
        );
        cases.push(Case {
            name: "partition",
            bytes: (FACT_N * 8) as u64,
            scalar_ns,
            kernel_ns,
            modeled_scalar_ns,
            modeled_kernel_ns,
        });
    }

    println!(
        "kernel_throughput (dispatch: {:?}, prefetch distance: {})",
        kernels::active(),
        kernels::PREFETCH_DISTANCE
    );
    println!("operator     scalar GB/s (modeled)  kernel GB/s (modeled)  speedup");
    let mut rows = Vec::new();
    for c in &cases {
        let (s, k) = (gbps(c.bytes, c.scalar_ns), gbps(c.bytes, c.kernel_ns));
        let (ms, mk) = (
            gbps(c.bytes, c.modeled_scalar_ns),
            gbps(c.bytes, c.modeled_kernel_ns),
        );
        let speedup = c.scalar_ns / c.kernel_ns.max(1e-9);
        println!(
            "{:<12} {s:>11.2} {ms:>9.2} {k:>12.2} {mk:>9.2} {speedup:>8.2}x",
            c.name
        );
        rows.push(format!(
            "    {{\"operator\": \"{}\", \"input_bytes\": {}, \"scalar_gbps\": {s:.3}, \
             \"modeled_scalar_gbps\": {ms:.3}, \"kernel_gbps\": {k:.3}, \
             \"modeled_kernel_gbps\": {mk:.3}, \"speedup\": {speedup:.3}}}",
            c.name, c.bytes
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"kernel_throughput\",\n  \"dispatch\": \"{:?}\",\n  \
         \"prefetch_distance\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        kernels::active(),
        kernels::PREFETCH_DISTANCE,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("wrote {path}");

    // The hash and scatter loops do not depend on SIMD dispatch: their
    // kernels keep the charged accounting in registers instead of paying
    // it per access, which must show on any machine.
    for name in ["hash_probe", "group_count", "partition"] {
        let c = cases.iter().find(|c| c.name == name).expect("case ran");
        let speedup = c.scalar_ns / c.kernel_ns.max(1e-9);
        assert!(
            speedup >= KERNEL_SPEEDUP,
            "{name} kernel must be ≥{KERNEL_SPEEDUP}× the scalar reference, got {speedup:.2}x"
        );
    }

    // ≥ 2× on the large dense scan when the SIMD dispatch is actually
    // live (scalar dispatch — a CPU without AVX2 or a non-x86 target —
    // still runs and records, but the claim is about the vectorized
    // kernel).
    let scan = &cases[0];
    let speedup = scan.scalar_ns / scan.kernel_ns.max(1e-9);
    if matches!(kernels::active(), kernels::Dispatch::Simd) {
        assert!(
            speedup >= 2.0,
            "SIMD scan kernel must be ≥2× the scalar reference, got {speedup:.2}x"
        );
        let model_ratio = scan.modeled_kernel_ns / scan.kernel_ns.max(1e-9);
        println!("scan_sum kernel: Eq 6.1 modeled / measured = {model_ratio:.2}");
        assert!(
            (1.0 / MODEL_BOUND..MODEL_BOUND).contains(&model_ratio),
            "Eq 6.1 must price the kernel scan within {MODEL_BOUND}x, \
             got ratio {model_ratio:.2}"
        );
    }
}
