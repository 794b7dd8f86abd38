//! The benchmark's declared surface: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root carries
//! the same names (`tests/manifest.rs` holds the two together), and a
//! run refuses to print a metric that is not declared here.

/// One end-to-end metric: what a user of the served stack sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// How a per-layer metric is expected to repeat between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// Wall-clock timing: repeats within noise.
    Timing,
    /// A count made by the program: repeats exactly on the in-process
    /// workloads (socket batching depends on timing).
    Count,
    /// Simulated clock or model arithmetic: repeats exactly everywhere.
    Exact,
}

/// One per-layer metric. `moves` names the end-to-end metric and the
/// workload it is predicted to move (`metric@workload`); everywhere
/// else the prediction is no change. `-` marks the few that move no
/// gated metric today.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub repeat: Repeat,
    pub moves: &'static str,
}

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "serve_small",
        why: "loopback TCP, 144 KiB tables inside L2: gcm-net and gcm-service do most of the work, execution little",
    },
    WorkloadDecl {
        name: "exec_large",
        why: "in-process native execution over 17 MiB tables: gcm-engine operators and kernels do the work, gcm-net none",
    },
    WorkloadDecl {
        name: "plan_churn",
        why: "planning only, table flips retire plans and builds: gcm-core pricing, the optimizer and gcm-trie work, execution none",
    },
    WorkloadDecl {
        name: "model_sim",
        why: "simulator execution on the simulated clock, predicted vs simulated cost: the paper's validation, exact for a seed",
    },
];

/// The bounds are what this box can hold, not what reads well: on its
/// two shared vCPUs whole runs come out 10–25% slow for minutes at a
/// time (README, "Bounds"), so every wall-clock metric sits at the
/// contract's ceiling. `setup_s` shares the largest, as it must.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: "higher",
        bound: 0.001,
    },
    EndToEnd {
        name: "model_err",
        unit: "share",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

const fn t(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
        repeat: Repeat::Timing,
        moves,
    }
}

const fn c(name: &'static str, better: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better,
        repeat: Repeat::Count,
        moves,
    }
}

const fn x(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
        repeat: Repeat::Exact,
        moves,
    }
}

pub const PER_LAYER: [Layer; 70] = [
    // gcm-net
    t("net.wire.encode_ns", "ns", "p50_ms@serve_small"),
    t("net.wire.decode_ns", "ns", "p50_ms@serve_small"),
    t("net.idle_rtt_ns", "ns", "p50_ms@serve_small"),
    t("net.path_ns", "ns", "p50_ms@serve_small"),
    t("net.sojourn_ns", "ns", "p50_ms@serve_small"),
    t("net.client_side_ns", "ns", "p50_ms@serve_small"),
    c("net.frames_in", "higher", "qps@serve_small"),
    c("net.responses_served", "higher", "ok_share@serve_small"),
    c("net.responses_shed", "lower", "ok_share@serve_small"),
    t("net.start_s", "s", "setup_s@serve_small"),
    t("net.shutdown_s", "s", "-"),
    // gcm-service
    t("service.submit_hit_ns", "ns", "p50_ms@plan_churn"),
    t("service.submit_miss_ns", "ns", "tail_ms@plan_churn"),
    t("service.admit_ns", "ns", "qps@serve_small"),
    t("service.admit_deep_ns", "ns", "tail_ms@serve_small"),
    t("service.exec_wall_ns", "ns", "qps@exec_large"),
    t("service.exec_self_ns", "ns", "qps@serve_small"),
    t("service.exec_self_share", "share", "qps@serve_small"),
    t("service.update_table_ns", "ns", "qps@plan_churn"),
    c("service.batches", "lower", "qps@serve_small"),
    c("service.batch_size_mean", "higher", "qps@serve_small"),
    c("service.cache_hits", "higher", "p50_ms@plan_churn"),
    c("service.cache_misses", "lower", "tail_ms@plan_churn"),
    c("service.optimizer_runs", "lower", "qps@plan_churn"),
    c("service.plans_retired", "lower", "qps@plan_churn"),
    c("service.builds_built", "lower", "qps@plan_churn"),
    c("service.builds_reused", "higher", "qps@exec_large"),
    t("service.wall_scale", "ratio", "ok_share@serve_small"),
    x("service.shed_share_2x", "share", "ok_share@serve_small"),
    x(
        "service.shed_point_tail_model_ms",
        "ms",
        "tail_ms@serve_small",
    ),
    // gcm-engine
    t("engine.optimize_point_ns", "ns", "tail_ms@plan_churn"),
    t("engine.optimize_scan_ns", "ns", "tail_ms@plan_churn"),
    t("engine.optimize_join_ns", "ns", "qps@plan_churn"),
    t("engine.op.scan.ns_per_tuple", "ns", "qps@exec_large"),
    t("engine.op.scan.native_ratio", "ratio", "-"),
    x("engine.op.scan.sim_ratio", "ratio", "model_err@model_sim"),
    t("engine.op.select.ns_per_tuple", "ns", "qps@exec_large"),
    t("engine.op.select.native_ratio", "ratio", "-"),
    x("engine.op.select.sim_ratio", "ratio", "model_err@model_sim"),
    t(
        "engine.op.hash_build.ns_per_tuple",
        "ns",
        "p50_ms@exec_large",
    ),
    t("engine.op.hash_build.native_ratio", "ratio", "-"),
    x(
        "engine.op.hash_build.sim_ratio",
        "ratio",
        "model_err@model_sim",
    ),
    t(
        "engine.op.hash_probe.ns_per_tuple",
        "ns",
        "p50_ms@exec_large",
    ),
    t("engine.op.hash_probe.native_ratio", "ratio", "-"),
    x(
        "engine.op.hash_probe.sim_ratio",
        "ratio",
        "model_err@model_sim",
    ),
    t("engine.op.group_count.ns_per_tuple", "ns", "qps@exec_large"),
    t("engine.op.group_count.native_ratio", "ratio", "-"),
    x(
        "engine.op.group_count.sim_ratio",
        "ratio",
        "model_err@model_sim",
    ),
    t("engine.ctx_setup_ns_per_mib", "ns", "qps@exec_large"),
    // gcm-core
    t("core.price_plan_ns", "ns", "qps@plan_churn"),
    t("core.price_batch2_ns", "ns", "qps@plan_churn"),
    // gcm-trie
    t("trie.get_ns", "ns", "p50_ms@plan_churn"),
    t("trie.insert_ns", "ns", "tail_ms@plan_churn"),
    t("trie.snapshot_ns", "ns", "p50_ms@plan_churn"),
    // gcm-sim
    t("sim.access_ns", "ns", "setup_s@model_sim"),
    c("sim.accesses", "lower", "qps@model_sim"),
    x("sim.miss_err.L1", "share", "model_err@model_sim"),
    x("sim.miss_err.L2", "share", "model_err@model_sim"),
    x("sim.miss_err.L3", "share", "model_err@model_sim"),
    x("sim.miss_err.TLB", "share", "model_err@model_sim"),
    // gcm-calibrate
    t("calibrate.host_s", "s", "-"),
    x("calibrate.sim_param_err", "share", "-"),
    // gcm-obs
    t("obs.hist_record_ns", "ns", "qps@serve_small"),
    t("obs.trace_overhead_share", "share", "-"),
    // set-up and process
    t("setup.tables_s", "s", "setup_s@exec_large"),
    t("setup.register_s", "s", "setup_s@exec_large"),
    t("setup.warm_pass_s", "s", "setup_s@model_sim"),
    t("proc.cpu_ms_per_query", "ms", "qps@serve_small"),
    t("proc.minflt_per_query", "count", "peak_rss_mb@exec_large"),
    // the load generator itself
    t("loadgen.busy_share", "share", "-"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json` as this table declares it (`--print-manifest`).
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
