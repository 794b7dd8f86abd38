//! `gcm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks every answer, prints each metric by name
//! and unit, and ends its standard output with the one-line JSON
//! result. Exits non-zero when an answer was wrong or the run was not
//! the load it claims to be.

use gcm_benchmark::{manifest, run, selfcheck, workload};
use std::process::ExitCode;

const USAGE: &str = "usage: gcm-benchmark --workload <serve_small|exec_large|plan_churn|model_sim> \
--seed <n> --seconds <s> --trace <0|1> [--quick]\n       gcm-benchmark --self-check [--seconds <s>]\n       gcm-benchmark --print-manifest";

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 20;

fn unit_of(name: &str) -> &'static str {
    manifest::end_to_end(name)
        .map(|m| m.unit)
        .or(manifest::layer(name).map(|m| m.unit))
        .expect("only declared metrics are reported")
}

fn result_line(o: &run::Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    self_check: bool,
    print_manifest: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        self_check: false,
        print_manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--quick" => cli.quick = true,
            "--self-check" => cli.self_check = true,
            "--print-manifest" => cli.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        workload: workload_name,
        seed,
        seconds,
        trace,
        quick,
        self_check,
        print_manifest,
    } = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if print_manifest {
        print!("{}", manifest::benchmark_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }

    if self_check {
        return match selfcheck::run(seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("self-check could not run: {e}");
                ExitCode::from(2)
            }
        };
    }

    let Some(def) = workload_name.as_deref().and_then(workload::def) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = run::Args {
        def,
        seed,
        seconds,
        trace,
        quick,
    };
    let outcome = match run::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", def.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {seed} ({}), {} hardware threads",
        def.name,
        if trace { "per-layer" } else { "end-to-end" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<36} {value:>18.6} {}", unit_of(name));
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    for fault in &outcome.faults {
        println!("  ! {fault}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
