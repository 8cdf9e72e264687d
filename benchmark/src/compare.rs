//! `run.sh --check`: two sets of runs of the same build, same seeds, must
//! agree — host metrics within their bound, simulated metrics and counts
//! exactly — and the observed A/A differences are printed, so a bound in
//! `BENCHMARK.json` is evidence, not a guess.

use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Domain, Kind, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

fn load(dir: &Path, file: &str) -> Result<Value, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(doc: &Value, name: &str) -> Result<f64, String> {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no metric `{name}`"))
}

/// |a − b| as a share of the smaller magnitude; 0 for equal values.
fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().min(b.abs())
    }
}

/// Compares the result files of two output directories. `Ok(true)` when
/// they agree.
///
/// # Errors
///
/// Returns a message when a file is missing or is not a result file.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut agree = true;
    println!(
        "{:<10} {:<34} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff %", "bound %"
    );
    for w in WORKLOADS {
        let name = w.name();
        let file = format!("BENCH_{name}.json");
        let (a, b) = (load(a_dir, &file)?, load(b_dir, &file)?);
        for doc in [&a, &b] {
            if doc.get("correct") != Some(&Value::Bool(true)) {
                println!(
                    "{name:<10} a run was not correct: {:?}",
                    doc.get("violations")
                );
                agree = false;
            }
        }
        for spec in END_TO_END {
            let (va, vb) = (metric(&a, spec.name)?, metric(&b, spec.name)?);
            let diff = rel_diff(va, vb);
            let (limit, ok) = match spec.domain {
                Domain::Host => (spec.bound, diff <= spec.bound),
                Domain::Sim => (0.0, va == vb),
            };
            println!(
                "{name:<10} {:<34} {va:>16.6} {vb:>16.6} {:>9.3} {:>7.1} {}",
                spec.name,
                100.0 * diff,
                100.0 * limit,
                if ok { "" } else { "DISAGREE" }
            );
            agree &= ok;
        }
        if a.get("sim") != b.get("sim") {
            println!("{name:<10} simulated counts differ between the two runs  DISAGREE");
            agree = false;
        }

        // Per-layer files are compared when both sets have them.
        let file = format!("LAYERS_{name}.json");
        let (Ok(a), Ok(b)) = (load(a_dir, &file), load(b_dir, &file)) else {
            continue;
        };
        for spec in PER_LAYER {
            let (va, vb) = (metric(&a, spec.name)?, metric(&b, spec.name)?);
            let exact = matches!(spec.kind, Kind::Count | Kind::SimTime);
            if exact && va != vb {
                println!(
                    "{name:<10} {:<34} {va:>16.6} {vb:>16.6}  DISAGREE (exact)",
                    spec.name
                );
                agree = false;
            } else if !exact {
                let diff = rel_diff(va, vb);
                println!(
                    "{name:<10} {:<34} {va:>16.6} {vb:>16.6} {:>9.3}",
                    spec.name,
                    100.0 * diff
                );
            }
        }
    }
    println!(
        "{}",
        if agree {
            "A/A check passed: host metrics within bound, simulated metrics and counts identical"
        } else {
            "A/A check FAILED"
        }
    );
    Ok(agree)
}

/// `run.sh --spread`: reads `<dir>/<run>/BENCH_<workload>.json` for every
/// run directory under `dir` and prints, per workload and end-to-end
/// metric, the median and the spread — the distance between the first and
/// third quartile as a share of the median, over runs that differ in seed —
/// against the metric's bound. `Ok(true)` when every spread except
/// `setup_s`'s is within its bound.
///
/// # Errors
///
/// Returns a message when `dir` cannot be read or holds no runs.
pub fn spread(dir: &Path) -> Result<bool, String> {
    let mut runs: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    runs.sort();
    if runs.len() < 2 {
        return Err(format!("{}: fewer than two runs", dir.display()));
    }
    let mut within = true;
    println!(
        "{:<10} {:<18} {:>4} {:>16} {:>9} {:>8}  verdict",
        "workload", "metric", "runs", "median", "spread %", "bound %"
    );
    for w in WORKLOADS {
        let docs: Vec<Value> = runs
            .iter()
            .filter_map(|r| load(r, &format!("BENCH_{}.json", w.name())).ok())
            .collect();
        if docs.len() < 2 {
            continue;
        }
        for spec in END_TO_END {
            let values = docs
                .iter()
                .map(|d| metric(d, spec.name))
                .collect::<Result<Vec<f64>, String>>()?;
            let spread = crate::stats::spread(&values);
            let verdict = if spread * 3.0 <= spec.bound {
                "steady (under a third of the bound)"
            } else if spread <= spec.bound {
                "within the bound"
            } else if spec.name == "setup_s" {
                "over the bound (not gated)"
            } else {
                within = false;
                "OVER THE BOUND"
            };
            println!(
                "{:<10} {:<18} {:>4} {:>16.6} {:>9.3} {:>8.1}  {verdict}",
                w.name(),
                spec.name,
                values.len(),
                crate::stats::median(&values),
                100.0 * spread,
                100.0 * spec.bound,
            );
        }
    }
    Ok(within)
}
