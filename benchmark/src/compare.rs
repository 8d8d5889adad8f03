//! `compare`: two result sets, every workload × end-to-end metric, each
//! side's median and quartiles, the ratio with its base, and a verdict
//! against the bound `BENCHMARK.json` fixes for the metric.

use crate::json::Value;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Runs a side needs per workload before its quartiles mean anything.
const MIN_RUNS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    WithinBound,
    Worse,
    /// Either side's own runs spread wider than the bound: a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `lower_is_better` and `bound` as `BENCHMARK.json` gives them; `base`
/// and `change` are each side's runs of one metric on one workload.
pub fn verdict(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let wide = |runs| spread(runs).is_none_or(|s| s > bound);
    if wide(base) || wide(change) {
        return Verdict::Unresolved;
    }
    let (a, b) = (median(base), median(change));
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs();
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// One workload's untraced runs: metric → values, and whether any run's
/// open-loop generator fell behind its own schedule.
#[derive(Default)]
struct WorkloadRuns {
    metrics: BTreeMap<String, Vec<f64>>,
    open_loop_unresolved: bool,
}

type Runs = BTreeMap<String, WorkloadRuns>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let set = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for run in set
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?
    {
        if run.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run names no workload"))?;
        let Some(Value::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: a {workload} run has no metrics"));
        };
        let entry = runs.entry(workload.to_owned()).or_default();
        entry.open_loop_unresolved |= run.get("open_loop_unresolved") == Some(&Value::Bool(true));
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {workload} {name} has no value"))?;
            entry.metrics.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// `(name, unit, lower_is_better, bound)` per end-to-end metric.
fn bounds() -> Result<Vec<(String, String, bool, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = Value::parse(&text)?;
    spec.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no \"end_to_end\" array")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("unit")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: a malformed end_to_end entry".to_owned())
}

fn report(base_path: &str, change_path: &str) -> Result<bool, String> {
    let (base, change) = (load(base_path)?, load(change_path)?);
    let bounds = bounds()?;
    let mut any_worse = false;
    println!("base   = {base_path}\nchange = {change_path}");
    for (workload, base_runs) in &base {
        let change_runs = change
            .get(workload)
            .ok_or_else(|| format!("{change_path}: no runs of {workload}"))?;
        println!("\n{workload}");
        println!(
            "  {:<12} {:>38} {:>38} {:>26}  verdict",
            "metric", "base median [q1, q3]", "change median [q1, q3]", "change/base"
        );
        for (name, unit, lower, bound) in &bounds {
            let a = base_runs.metrics.get(name).map_or(&[][..], Vec::as_slice);
            let b = change_runs.metrics.get(name).map_or(&[][..], Vec::as_slice);
            if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
                return Err(format!(
                    "{workload} {name}: {} and {} runs, need {MIN_RUNS} on each side",
                    a.len(),
                    b.len()
                ));
            }
            let side = |runs: &[f64]| {
                let (q1, q3) = quartiles(runs).expect("at least MIN_RUNS values");
                format!("{:.3} [{q1:.3}, {q3:.3}] {unit}", median(runs))
            };
            let generator_behind = name == "open_p95_us"
                && (base_runs.open_loop_unresolved || change_runs.open_loop_unresolved);
            let v = if generator_behind {
                Verdict::Unresolved
            } else {
                verdict(a, b, *lower, *bound)
            };
            any_worse |= v == Verdict::Worse;
            println!(
                "  {name:<12} {:>38} {:>38} {:>26}  {} (bound {bound})",
                side(a),
                side(b),
                format!("{:.4} of {:.3}", median(b) / median(a), median(a)),
                v.label(),
            );
        }
    }
    Ok(any_worse)
}

pub fn main(args: &[String]) -> ExitCode {
    let [base, change] = args else {
        eprintln!("usage: compare <base.json> <change.json>");
        return ExitCode::from(2);
    };
    match report(base, change) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = [100.0, 101.0, 99.0];
        // Lower is better: 8 % up is within a 10 % bound, 12 % is not.
        assert_eq!(
            verdict(&base, &[108.0, 108.5, 107.5], true, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&base, &[112.0, 112.5, 111.5], true, 0.1),
            Verdict::Worse
        );
        // Higher is better: the same move up is an improvement.
        assert_eq!(
            verdict(&base, &[112.0, 112.5, 111.5], false, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&base, &[88.0, 88.5, 87.5], false, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let steady = [100.0, 101.0, 99.0];
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(verdict(&steady, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &steady, true, 0.1), Verdict::Unresolved);
    }
}
