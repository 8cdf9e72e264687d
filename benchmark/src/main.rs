//! `hydranet-benchmark`: the repository's measuring stick.
//!
//! ```text
//! hydranet-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! hydranet-benchmark compare DIR_A DIR_B
//! hydranet-benchmark spread DIR
//! hydranet-benchmark manifest
//! ```
//!
//! `benchmark/run.sh` builds this package and calls it; see the README.

mod alloc;
mod compare;
mod counts;
mod gen;
mod json;
mod ladder;
mod metrics;
mod pace;
mod probe;
mod run;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

enum Command {
    Run(run::Options),
    Compare(PathBuf, PathBuf),
    Spread(PathBuf),
    Manifest,
}

fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => return Ok(Command::Manifest),
        Some("compare") => {
            return match args {
                [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
                _ => Err("usage: compare DIR_A DIR_B".into()),
            }
        }
        Some("spread") => {
            return match args {
                [_, dir] => Ok(Command::Spread(dir.into())),
                _ => Err("usage: spread DIR".into()),
            }
        }
        _ => {}
    }
    let mut workload = None;
    let mut opts = run::Options {
        workload: workloads::WorkloadId::Bulk1k,
        seed: None,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::WorkloadId::parse(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => opts.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out_dir = value.into(),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("`--workload` is required")?;
    Ok(Command::Run(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|command| match command {
        Command::Run(opts) => run::run(&opts),
        Command::Compare(a, b) => compare::compare(&a, &b),
        Command::Spread(dir) => compare::spread(&dir),
        Command::Manifest => {
            metrics::validate()?;
            print!("{}", metrics::manifest(metrics::RUN_SECONDS).to_pretty());
            Ok(true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("hydranet-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
