//! Drives the built binary the way the acceptance driver does, at toy
//! scale: every workload must print exactly the metrics `BENCHMARK.json`
//! lists, and every correctness check must fail when fed a wrong
//! expectation.

use std::collections::BTreeMap;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "federated_align",
    "bgp_mix",
    "ingest_durable",
    "stream_refresh",
];

/// Runs one workload at smoke scale from the repository root.
fn run(workload: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sofya-benchmark"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--scale", "smoke"])
        .args(["--seed", "7", "--seconds", "0.6"])
        .args(extra)
        .output()
        .expect("spawn the benchmark binary")
}

/// The quoted strings that follow `"<key>": ` in `text`, in order.
fn strings_after<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let marker = format!("\"{key}\": \"");
    text.match_indices(&marker)
        .map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// `name → unit` of one section of `BENCHMARK.json`.
fn listed(section: &str) -> BTreeMap<String, String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..start + spec[start..].find(']').expect("section is an array")];
    strings_after(body, "name")
        .into_iter()
        .zip(strings_after(body, "unit"))
        .map(|(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

/// `name → unit` of a result line's metrics.
fn reported(line: &str) -> BTreeMap<String, String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object")..];
    metrics
        .match_indices("\": {\"value\": ")
        .map(|(at, _)| {
            let name = &metrics[..at];
            let name = &name[name.rfind('"').expect("opening quote") + 1..];
            let unit = strings_after(&metrics[at..], "unit")[0];
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn every_workload_reports_exactly_the_listed_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = listed(section);
        assert!(!want.is_empty(), "{section} lists metrics");
        for name in want.keys() {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name:?} is not a valid metric name"
            );
        }
        for workload in WORKLOADS {
            let output = run(workload, &["--trace", trace]);
            let line = last_line(&output);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed: {line}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert_eq!(reported(&line), want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_wrong_expectation_fails_every_workloads_check() {
    for workload in WORKLOADS {
        let output = run(workload, &["--trace", "0", "--wrong-expectation", "1"]);
        let line = last_line(&output);
        assert!(
            !output.status.success(),
            "{workload} passed a wrong check: {line}"
        );
        assert!(
            line.starts_with("{\"correct\": false, "),
            "{workload}: {line}"
        );
        assert!(!line.contains("\"failed\": 0,"), "{workload}: {line}");
    }
}

#[test]
fn an_unknown_workload_or_flag_is_refused_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "bgp_mix", "--trace", "2"],
        &["--workload", "bgp_mix", "--sedd", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_sofya-benchmark"))
            .args(args)
            .output()
            .expect("spawn the benchmark binary");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
