//! Drives the built `sofya-eval` binary: every experiment runs at tiny
//! scale and prints its table, and mistyped input is refused rather than
//! answered with a default.

use std::process::{Command, Output};

const EXPERIMENTS: [&str; 9] = [
    "table1",
    "table1-multiseed",
    "threshold-sweep",
    "frontier",
    "coverage-sweep",
    "incompleteness-sweep",
    "equivalence-table",
    "export-pair",
    "diagnose",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sofya-eval"))
        .args(args)
        .output()
        .expect("spawn sofya-eval")
}

/// Runs one experiment at `--scale=tiny --seed=42` and returns its
/// standard output.
fn tiny(experiment: &str, extra: &[&str]) -> String {
    let mut args = vec![experiment, "--scale=tiny", "--seed=42"];
    args.extend(extra);
    let output = run(&args);
    assert!(
        output.status.success(),
        "{experiment} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// The data rows of the first table in `text`: the lines between its
/// dashed rule and the next blank line, split into cells.
fn table_rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .skip_while(|l| l.is_empty() || !l.chars().all(|c| c == '-'))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split("  ").filter(|c| !c.is_empty()).collect())
        .collect()
}

#[test]
fn every_experiment_runs_at_tiny_scale() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-export-pair");
    let out_arg = format!("--out={}", out_dir.display());
    for experiment in EXPERIMENTS {
        // Only `export-pair` reads `--out`; every experiment accepts it.
        let stdout = tiny(experiment, &[&out_arg]);
        assert!(!stdout.trim().is_empty(), "{experiment} printed nothing");
    }
    for file in ["kb1.nt", "kb2.nt", "gold.tsv"] {
        let written = std::fs::read_to_string(out_dir.join(file)).expect(file);
        assert!(!written.is_empty(), "{file} is empty");
    }
}

#[test]
fn table1_prints_three_methods_and_their_costs() {
    let stdout = tiny("table1", &[]);
    let rows = table_rows(&stdout);
    let labels: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(
        labels,
        [
            "pcaconf (SSE), tau>0.3",
            "cwaconf (SSE), tau>0.1",
            "UBS pcaconf"
        ]
    );
    assert!(rows.iter().all(|r| r.len() == 5), "{rows:?}");
    assert_eq!(stdout.matches(" queries (").count(), 6, "{stdout}");
}

#[test]
fn frontier_reports_requests_per_relation() {
    let stdout = tiny("frontier", &["--seeds=1"]);
    let header = stdout.lines().next().expect("header line");
    assert!(header.ends_with("rows/relation"), "{header}");
    let rows = table_rows(&stdout);
    assert_eq!(
        rows.len(),
        60,
        "five methods, six sizes, two directions: {stdout}"
    );
    let mean = |cell: &str| -> f64 {
        let (mean, sd) = cell.trim().split_once('±').expect("mean±sd");
        assert_eq!(sd, "0.0", "one seed has no spread");
        mean.parse().expect("numeric cell")
    };
    // Table 1's three methods at its sample size, both directions.
    let per_relation: Vec<(f64, f64)> = rows
        .iter()
        .filter(|row| row[1].trim() == "10" && !row[0].ends_with("only"))
        .map(|row| (mean(row[6]), mean(row[7])))
        .collect();
    // Every request is one query: a batched phase asks its probes as one
    // table. (One leaf per probe read 21.2, 15.4, 21.2, 15.4, 39.8 and
    // 24.1 queries against the same requests, but 14.5 for UBS t2 ⊂ t1.)
    assert_eq!(
        per_relation,
        [
            (8.3, 8.3),
            (6.4, 6.4),
            (8.3, 8.3),
            (6.4, 6.4),
            (13.7, 13.7),
            (9.4, 9.4)
        ],
        "{stdout}"
    );
}

#[test]
fn help_is_the_experiment_index() {
    let output = run(&["--help"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    for experiment in EXPERIMENTS {
        assert!(
            stdout.contains(&format!("\n  {experiment} ")),
            "--help does not list {experiment}"
        );
    }
}

#[test]
fn mistyped_input_prints_usage_and_exits_2() {
    for args in [
        &["tabel1"][..],
        &["table1", "--scale=papr"],
        &["table1", "--seed=abc"],
        &["table1", "--sacle=tiny"],
        &["table1", "--threads="],
        &["table1", "--verbose=1"],
        &["table1", "--seed"],
        &["table1", "table1"],
        &[],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: sofya-eval"), "{args:?}: {stderr}");
    }
}
