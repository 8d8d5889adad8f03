//! `suite`: every workload, several times over, each run in a process of
//! its own so `peak_rss_mb` is that workload's alone; one traced run per
//! workload for the layer budget and the tracing overhead. Writes a
//! host-stamped result set for `compare` and prints the medians.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles};
use crate::{fixture, parse_flags, workloads, OUT_DIR};
use std::process::{Command, ExitCode, Stdio};

/// One child run.
struct Run {
    /// The result line as printed.
    line: String,
    result: Value,
    /// The run's open-loop generator fell behind its own schedule, so
    /// its `open_p95_us` is not a measurement of the load it names.
    open_loop_unresolved: bool,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Value::parse(line).map_err(|e| format!("no result line ({e}): {line}"))?;
    if !output.status.success() {
        return Err(format!("exit {}: {line}", output.status));
    }
    Ok(Run {
        line: line.to_owned(),
        result,
        open_loop_unresolved: stdout.contains("UNRESOLVED"),
    })
}

fn metric(run: &Run, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn main(args: &[String]) -> ExitCode {
    let Some(mut flags) = parse_flags(args) else {
        eprintln!("usage: suite [--repeats N] [--seed N] [--seconds S]");
        return ExitCode::from(2);
    };
    let mut number = |key: &str, default: f64| {
        flags
            .remove(key)
            .map_or(Some(default), |v| v.parse::<f64>().ok())
    };
    let (Some(repeats), Some(seed), Some(seconds)) = (
        number("repeats", 3.0),
        number("seed", 42.0),
        number("seconds", 25.0),
    ) else {
        eprintln!("suite: --repeats, --seed and --seconds take numbers");
        return ExitCode::from(2);
    };
    let (repeats, seed) = (repeats as usize, seed as u64);

    // Round-robin over the workloads, pass after pass, the traced pass
    // last: a slow quarter of an hour on the host then costs every
    // workload one run instead of one workload all of its runs.
    let mut runs = Vec::new();
    let mut failed = false;
    for pass in 0..=repeats {
        let traced = pass == repeats;
        for workload in workloads::NAMES {
            if traced {
                eprintln!("{workload}: traced run");
            } else {
                eprintln!("{workload}: run {} of {repeats}", pass + 1);
            }
            match run_child(workload, seed, seconds, traced) {
                Ok(run) => {
                    if run.open_loop_unresolved {
                        println!("{workload}: run {}: open loop UNRESOLVED", pass + 1);
                    }
                    runs.push((workload, traced, run));
                }
                Err(e) => {
                    eprintln!("{workload}: {e}");
                    failed = true;
                }
            }
        }
    }

    for workload in workloads::NAMES {
        let of = |traced: bool| {
            runs.iter()
                .filter(move |(w, t, _)| *w == workload && *t == traced)
                .map(|(_, _, run)| run)
        };
        println!(
            "\n{workload} (seed {seed}, {} runs of {seconds} s)",
            of(false).count()
        );
        println!(
            "  {:<14} {:>14} {:>14} {:>14}  unit",
            "metric", "q1", "median", "q3"
        );
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = of(false).filter_map(|r| metric(r, name)).collect();
            let (q1, q3) = quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "  {name:<14} {q1:>14.3} {:>14.3} {q3:>14.3}  {unit}",
                median(&values)
            );
        }
        let plain: Vec<f64> = of(false).filter_map(|r| metric(r, "ops_per_s")).collect();
        if let Some(with) = of(true).find_map(|r| metric(r, "trace.ops_per_s")) {
            let without = median(&plain);
            println!(
                "  tracing overhead: {with:.1} ops/s traced against {without:.1} untraced \
                 ({:+.1}% of {without:.1})",
                (with - without) / without * 100.0,
            );
        }
    }

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = format!(
        "{OUT_DIR}/results-{}-seed{seed}-{stamp}.json",
        fixture::hostname()
    );
    let body = format!(
        "{{\"host\": {{\"nproc\": {}, \"hostname\": {}, \"loadavg\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"git_rev\": {}}},\n \"runs\": [\n{}\n]}}\n",
        fixture::nproc(),
        json::quote(&fixture::hostname()),
        json::number(fixture::loadavg()),
        json::quote(&git_rev()),
        runs.iter()
            .map(|(workload, traced, run)| format!(
                "  {{\"workload\": {}, \"trace\": {traced}, \"open_loop_unresolved\": {}, \
                 \"result\": {}}}",
                json::quote(workload),
                run.open_loop_unresolved,
                run.line,
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("\nresult set written to {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
