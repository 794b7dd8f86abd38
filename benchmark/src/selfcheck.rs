//! `--self-check`: the benchmark measured against itself. Each workload
//! runs twice back to back with one seed, end to end and traced, each
//! run a fresh process. Two runs of the same code must agree within
//! every end-to-end bound, and every count or simulated-clock number
//! must agree to the last digit. A third end-to-end run on another
//! seed shows the agreement is not a property of seed 1.
//!
//! The table this prints is committed as `AA.md`.

use crate::json::{self, Json};
use crate::manifest::{self, Repeat};
use crate::stats::rel_gap;
use crate::workload;
use std::collections::BTreeMap;
use std::process::Command;

type Metrics = BTreeMap<String, f64>;

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {trace} exited {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("no result line")?;
    let result = json::parse(line)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: not correct"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

fn get(m: &Metrics, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(f64::NAN)
}

/// Returns whether every check held.
pub fn run(seconds: f64) -> Result<bool, String> {
    let mut all_ok = true;
    println!("# A/A self-check\n");
    println!(
        "Same code, fresh process per run, {seconds} s measured per run, {} hardware threads.",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "`gap` is |a − b| ÷ max(a, b). An end-to-end gap must stay within the metric's bound; \
a count or simulated-clock number must not differ at all.\n"
    );
    for def in &workload::DEFS {
        let w = def.name;
        let a = child(w, 1, seconds, false)?;
        let b = child(w, 1, seconds, false)?;
        let other = child(w, 2, seconds, false)?;
        println!("## {w}\n");
        println!("| end-to-end | unit | seed 1 | seed 1 again | gap | bound | | seed 2 | gap to seed 1 |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for m in &manifest::END_TO_END {
            let (va, vb, vo) = (get(&a, m.name), get(&b, m.name), get(&other, m.name));
            let gap = rel_gap(va, vb);
            let ok = gap <= m.bound;
            all_ok &= ok;
            println!(
                "| `{}` | {} | {va:.6} | {vb:.6} | {:.2}% | {:.1}% | {} | {vo:.6} | {:.2}% |",
                m.name,
                m.unit,
                100.0 * gap,
                100.0 * m.bound,
                if ok { "ok" } else { "**FAIL**" },
                100.0 * rel_gap(vo, (va + vb) / 2.0),
            );
        }
        let ta = child(w, 1, seconds, true)?;
        let tb = child(w, 1, seconds, true)?;
        println!("\n| per-layer | unit | seed 1 | seed 1 again | gap | repeats | |");
        println!("|---|---|---|---|---|---|---|");
        for m in &manifest::PER_LAYER {
            let (va, vb) = (get(&ta, m.name), get(&tb, m.name));
            let (rule, ok) = match m.repeat {
                Repeat::Timing => ("within noise", va.is_finite() && vb.is_finite()),
                Repeat::Count => ("exactly (count)", va.to_bits() == vb.to_bits()),
                Repeat::Exact => ("exactly (simulated)", va.to_bits() == vb.to_bits()),
            };
            all_ok &= ok;
            println!(
                "| `{}` | {} | {va:.6} | {vb:.6} | {:.2}% | {rule} | {} |",
                m.name,
                m.unit,
                100.0 * rel_gap(va, vb),
                if ok { "ok" } else { "**FAIL**" },
            );
        }
        println!();
    }
    println!(
        "Result: {}",
        if all_ok {
            "every check held."
        } else {
            "**at least one check failed.**"
        }
    );
    Ok(all_ok)
}
