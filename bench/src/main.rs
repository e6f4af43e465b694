//! The repo benchmark: four workloads against the HOT library and its TCP
//! service, five end-to-end metrics each, and a traced run that attributes
//! the serving path to layers. See `bench/README.md`.
//!
//! ```text
//! repo-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--runs N] [--out FILE] [--quick]
//! repo-bench compare A.json B.json
//! repo-bench manifest                  # prints BENCHMARK.json
//! ```

mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Value;
use spec::{Spec, END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed and run length when the command line names none (the driver
/// always names both; `run_seconds` in `BENCHMARK.json` is this length).
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;
/// Where results and traces go, relative to the repo root the benchmark
/// is run from.
const OUT_DIR: &str = "bench/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    quick: bool,
    corrupt: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        quick: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => a.quick = true,
            // Test-only: makes the generator expect one wrong TID.
            "--corrupt-expected" => a.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) || a.runs == 0 {
        return Err("--seconds must be in (0, 600] and --runs at least 1".to_string());
    }
    Ok(a)
}

fn selected(name: Option<&str>) -> Result<Vec<&'static Spec>, String> {
    match name {
        None => Ok(WORKLOADS.iter().collect()),
        Some(n) => WORKLOADS
            .iter()
            .find(|w| w.name == n)
            .map(|w| vec![w])
            .ok_or_else(|| {
                format!(
                    "unknown workload {n:?}; known: {:?}",
                    WORKLOADS.map(|w| w.name)
                )
            }),
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    let specs = selected(args.workload.as_deref())?;
    let out_dir = PathBuf::from(OUT_DIR);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for spec in specs {
        let quick;
        let spec = if args.quick {
            quick = spec.quick();
            &quick
        } else {
            spec
        };
        for seed in args.seed..args.seed + args.runs {
            let opt = workload::Options {
                seed,
                seconds: args.seconds,
                trace: args.trace,
                quick: args.quick,
                corrupt: args.corrupt,
                out_dir: out_dir.clone(),
            };
            let report = workload::run(spec, &opt)?;
            for (name, value) in report.metrics.iter().chain(&report.diagnostics) {
                println!(
                    "{} {name} {value:.4} {}",
                    report.workload,
                    spec::unit_of(name)
                );
            }
            for fault in &report.faults {
                println!("{} FAULT {fault}", report.workload);
            }
            if report.disturbed {
                println!(
                    "{} DISTURBED host was not quiet during this run; re-run before comparing",
                    report.workload
                );
            }
            all_correct &= report.correct();
            runs.push(report.to_json());
            // Last on stdout for a single run: the contract's result line.
            println!("{}", report.contract_line());
        }
    }
    let doc = Value::obj([
        ("host", host::stamp()),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        (
            "bounds",
            Value::obj(END_TO_END.iter().map(|m| (m.name, Value::Num(m.bound)))),
        ),
        ("runs", Value::Arr(runs)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare::run(&argv[1], &argv[2]),
        Some("compare") => Err("usage: repo-bench compare A.json B.json".to_string()),
        Some("manifest") => {
            println!("{}", spec::manifest().render_pretty());
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| bench(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repo-bench: {e}");
            ExitCode::from(2)
        }
    }
}
