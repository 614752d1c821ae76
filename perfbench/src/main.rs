//! Command-line front end of the benchmark.

use std::process::{Command, ExitCode, Stdio};

use sdpcm_core::sweep;
use sdpcm_engine::prof;
use sdpcm_perfbench::compare;
use sdpcm_perfbench::host::usable_cores;
use sdpcm_perfbench::json::Json;
use sdpcm_perfbench::run::{traced, untraced};
use sdpcm_perfbench::workloads::{default_seed, WorkloadId};

const USAGE: &str = "usage:
  perfbench [--workload fig11-sweep|hier-fig11|all] [--seed N] [--seconds S] [--trace 0|1]
  perfbench compare OLD NEW [--benchmark BENCHMARK.json]

Without --workload (or with `all`) every workload runs in its own
process, untraced and then traced unless --trace picks one.";

struct Options {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: default_seed(),
        seconds: 10,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_owned())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value()?;
                opts.workload = match v.as_str() {
                    "all" => None,
                    name => Some(
                        WorkloadId::parse(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Pins what the simulator reads from the environment, before any
/// thread starts: sweeps use every usable core and no more, traces stay
/// in memory, the controller runs one lane worker, the probes are off.
fn pin_environment() {
    std::env::set_var(sweep::WORKERS_ENV, usable_cores().to_string());
    for var in ["SDPCM_TRACE_DIR", "SDPCM_CELL_WORKERS", "SDPCM_PROF"] {
        std::env::remove_var(var);
    }
    prof::set_enabled(false);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    match opts.workload {
        Some(w) => {
            let outcome = if opts.trace == Some(true) {
                traced(w, opts.seed, opts.seconds)
            } else {
                untraced(w, opts.seed, opts.seconds)
            };
            print!("{}", outcome.table());
            println!("{}", outcome.detail_json().render());
            println!("{}", outcome.result_json().render());
            ExitCode::SUCCESS
        }
        None => run_everything(&opts),
    }
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak memory), echoes their output, and ends with one result
/// line over all of them, metrics prefixed by workload.
fn run_everything(opts: &Options) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let traces: Vec<bool> = opts.trace.map_or(vec![false, true], |t| vec![t]);
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in WorkloadId::ALL {
        for &trace in &traces {
            let output = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let text = match output {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("{} failed: {}", w.name(), o.status);
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("cannot run {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().and_then(|l| Json::parse(l).ok());
            for line in lines {
                println!("{line}");
            }
            let Some(result) = last else {
                eprintln!("{} printed no result", w.name());
                return ExitCode::FAILURE;
            };
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                metrics.push((format!("{}.{name}", w.name()), m.clone()));
            }
        }
    }
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", summary.render());
    ExitCode::SUCCESS
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => benchmark.clone_from(p),
                None => {
                    eprintln!("--benchmark needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ => files.push(a.clone()),
        }
    }
    let [old, new] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| compare::parse_records(&t).map_err(|e| format!("{path}: {e}")))
    };
    let specs = std::fs::read_to_string(&benchmark)
        .map_err(|e| format!("{benchmark}: {e}"))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("{benchmark}: {e}")))
        .map(|j| compare::specs(&j));
    let result = (|| {
        let specs = specs?;
        compare::compare(&load(old)?, &load(new)?, &specs)
    })();
    match result {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows.iter().any(|r| r.flag == Some("worse")) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}
