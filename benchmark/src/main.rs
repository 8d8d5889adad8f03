//! The repository's benchmark of record.
//!
//! ```text
//! sofya-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sofya-benchmark suite [--repeats N] [--seed N] [--seconds S]
//! sofya-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: it runs one workload
//! in this process, prints every metric by name, unit and sample count,
//! and ends with one JSON line. `README.md` beside this crate says what
//! is measured and why.

mod compare;
mod counting_io;
mod fixture;
mod host;
mod json;
mod metrics;
mod openloop;
mod probes;
mod replay;
mod stats;
mod suite;
mod trace;
mod workloads;

use fixture::{RunConfig, Scale};
use std::process::ExitCode;
use std::sync::Arc;

/// Where traces, result sets and the durable workload's files go:
/// relative to the repository root, which `run.sh` makes the working
/// directory, and ignored by git.
pub const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: sofya-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      sofya-benchmark suite [--repeats N] [--seed N] [--seconds S]\n\
         \x20      sofya-benchmark compare <a.json> <b.json>",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs; `None` on a stray or repeated argument.
pub fn parse_flags(args: &[String]) -> Option<std::collections::BTreeMap<String, String>> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key.strip_prefix("--")?;
        let value = it.next()?;
        if flags.insert(name.to_owned(), value.clone()).is_some() {
            return None;
        }
    }
    Some(flags)
}

fn run_config(args: &[String]) -> Option<RunConfig> {
    let mut flags = parse_flags(args)?;
    let cfg = RunConfig {
        workload: flags
            .remove("workload")
            .filter(|w| workloads::NAMES.contains(&w.as_str()))?,
        seed: flags.remove("seed").map_or(Some(42), |s| s.parse().ok())?,
        seconds: flags
            .remove("seconds")
            .map_or(Some(25.0), |s| s.parse().ok())
            .filter(|s: &f64| s.is_finite() && *s > 0.0)?,
        trace: match flags.remove("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return None,
        },
        scale: match flags.remove("scale").as_deref() {
            None | Some("full") => Scale::Full,
            Some("smoke") => Scale::Smoke,
            Some(_) => return None,
        },
        wrong_expectation: match flags.remove("wrong-expectation").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return None,
        },
    };
    flags.is_empty().then_some(cfg)
}

fn run_workload(cfg: &RunConfig) -> ExitCode {
    match host::pin_to_one_cpu() {
        Some(cpu) => println!("# pinned to cpu {cpu}"),
        None => println!("# not pinned: the host does not say which cpus this process may use"),
    }
    let tracer = cfg
        .trace
        .then(|| Arc::new(trace::Tracer::with_capacity(1 << 20)));
    let calibrator = host::Calibrator::start();
    let outcome = workloads::run(cfg, tracer.as_ref());
    let speed = calibrator.finish();
    let Some(outcome) = outcome else {
        return usage();
    };
    let spans = tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
    if let Some(tracer) = &tracer {
        let path = format!("{OUT_DIR}/trace-{}.json", cfg.workload);
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => println!("# {} spans written to {path}", spans.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let report = metrics::Report::build(cfg, &outcome, &speed, &spans);
    print!("{}", report.table());
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => suite::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(_) => match run_config(&args) {
            Some(cfg) => run_workload(&cfg),
            None => usage(),
        },
        None => usage(),
    }
}
