//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p sofya-analysis --            # report findings
//! cargo run -p sofya-analysis -- --deny     # CI gate: nonzero on any finding
//! ```

#![forbid(unsafe_code)]

use sofya_analysis::rules::Config;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    deny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        deny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "sofya-analysis: workspace invariant checker\n\
                     \n\
                     USAGE: sofya-analysis [--root DIR] [--deny]\n\
                     \n\
                     Rules: determinism, panic_path, lock_discipline, wire_safety,\n\
                     forbid_unsafe, allow_audit. Exemptions:\n\
                     // sofya: allow(<rule>) — <reason>\n\
                     \n\
                     --deny  exit nonzero on any finding, including a malformed or\n\
                     \u{20}       unused exemption comment"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sofya-analysis: {e}");
            return ExitCode::from(2);
        }
    };

    let cfg = Config::workspace();
    let violations = match sofya_analysis::analyze_workspace(&args.root, &cfg) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("sofya-analysis: walking {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    for v in &violations {
        println!("[{}] {}:{} — {}", v.rule, v.path, v.line, v.message);
        println!("      {}", v.snippet);
    }
    println!("sofya-analysis: {} finding(s)", violations.len());

    if args.deny && !violations.is_empty() {
        eprintln!("sofya-analysis: --deny: failing the gate");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
