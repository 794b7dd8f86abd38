//! `BENCHMARK.json` against the tables in `src/manifest.rs`, and both
//! against what the binary actually prints.

use gcm_benchmark::json::{self, Json};
use gcm_benchmark::manifest::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry {entry:?} lacks a string `{key}`"))
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|e| field(e, "name").to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[test]
fn the_file_is_what_the_tables_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let run_seconds = benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds") as u64;
    assert_eq!(text, manifest::benchmark_json(run_seconds));
}

#[test]
fn the_file_meets_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    let paths = names_of_strings(doc.get("paths").unwrap());
    assert_eq!(paths, ["benchmark"]);
    let command = names_of_strings(doc.get("command").unwrap());
    assert!(command.len() <= 32);
    for arg in &command {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }

    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        assert_eq!(w.as_obj().unwrap().len(), 2);
        assert!(valid_name(field(w, "name")));
        let why = field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(m.as_obj().unwrap().len(), 4, "{m:?}");
        assert!(valid_name(field(m, "name")));
        assert!(valid_unit(field(m, "unit")));
        assert!(["lower", "higher"].contains(&field(m, "better")));
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = e2e
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
    let largest = e2e
        .iter()
        .map(|m| m.get("bound").unwrap().as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").unwrap().as_f64(), Some(largest));

    let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(m.as_obj().unwrap().len(), 3, "{m:?}");
        assert!(valid_name(field(m, "name")));
        assert!(valid_unit(field(m, "unit")));
        assert!(["lower", "higher"].contains(&field(m, "better")));
    }

    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for n in names(doc.get(list).unwrap()) {
            assert!(seen.insert(n.clone()), "{n} is used twice");
        }
    }
    assert!(
        std::fs::metadata(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap()
            .len()
            <= 64 * 1024
    );
}

fn names_of_strings(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

#[test]
fn every_layer_metric_says_what_it_should_move_and_where() {
    for m in &PER_LAYER {
        if m.moves == "-" {
            continue;
        }
        let (metric, workload) = m
            .moves
            .split_once('@')
            .unwrap_or_else(|| panic!("{}: `{}` is not metric@workload", m.name, m.moves));
        assert!(
            END_TO_END.iter().any(|e| e.name == metric),
            "{} names the undeclared metric {metric}",
            m.name
        );
        assert!(
            WORKLOADS.iter().any(|w| w.name == workload),
            "{} names the undeclared workload {workload}",
            m.name
        );
    }
}

/// The keys of the `metrics` object a `--quick` run prints.
fn printed(workload: &str, trace: &str) -> BTreeSet<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_gcm-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        // The traced run writes its span file under the working directory.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}:\n{stdout}"
    );
    let result = json::parse(stdout.lines().last().expect("a result line")).unwrap();
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = result.get("metrics").unwrap().as_obj().unwrap();
    for (name, m) in metrics {
        let declared = manifest::end_to_end(name)
            .map(|e| e.unit)
            .or(manifest::layer(name).map(|l| l.unit));
        assert_eq!(m.get("unit").and_then(Json::as_str), declared, "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn the_binary_prints_exactly_the_declared_end_to_end_metrics() {
    let declared: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(printed("plan_churn", "0"), declared);
}

#[test]
fn the_binary_prints_exactly_the_declared_per_layer_metrics() {
    let declared: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(printed("plan_churn", "1"), declared);
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-plan_churn.jsonl");
    let first = std::fs::read_to_string(trace)
        .expect("the traced run writes its span file")
        .lines()
        .next()
        .map(json::parse)
        .expect("at least one span")
        .expect("span lines are JSON");
    for key in ["name", "start_ns", "end_ns", "parent", "request", "self_ns"] {
        assert!(first.get(key).is_some(), "span lacks `{key}`");
    }
}
