//! `sofya-eval` — every experiment of the reproduction behind one
//! command line:
//!
//! ```text
//! cargo run --release -p sofya-eval -- table1 --scale=paper --seed=42
//! ```
//!
//! The experiment index is the `--help` text below. Runs are seeded and
//! deterministic: the same command line prints the same numbers, wall
//! time aside. A mistyped experiment, option or value prints the usage
//! and exits 2 rather than running something else under that name.

#![forbid(unsafe_code)]

mod experiments;

use sofya_kbgen::{generate, GeneratedPair, PairConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
usage: sofya-eval <experiment> [options]

experiments (tables on stdout, progress on stderr):
  table1                T1  the paper's Table 1: pcaconf-SSE, cwaconf-SSE and UBS,
                            both directions, next to the published numbers
  threshold-sweep       S1  F1 against the threshold tau for both SSE measures
                            (how the paper chose tau>0.3 and tau>0.1)
  frontier              S2  quality and cost against sample size (1 to 50) for
                            the three methods and UBS with one contrastive check:
                            P/R/F1, queries, round trips and rows per relation
                            (\"few queries, so usable at query time\")
  coverage-sweep        S5  sensitivity to sameAs link coverage
  incompleteness-sweep  S6  sensitivity to fact-level (PCA-violating) drops in KB1
  equivalence-table     S7  equivalences mined as double subsumptions
  table1-multiseed      S8  Table 1 as mean and deviation over several seeds
  diagnose                  accepted rules classified by planted gold kind
  export-pair               write kb1.nt, kb2.nt and gold.tsv for other tools

options:
  --scale=tiny|small|paper  generated KB pair (default small; paper is the
                            92 vs 1313 relations of the paper's Section 3)
  --seed=N                  generator and sampling seed (default 42)
  --threads=N               alignment workers (default: the available cores)
  --sample-size=N           table1, table1-multiseed: sample subjects (default 10)
  --seeds=N                 table1-multiseed, frontier: consecutive seeds to run
                            (default 5)
  --out=DIR                 export-pair: target directory (default ./sofya-pair)
  --verbose                 diagnose: list every false positive and missed rule
";

/// Experiment scale, selected with `--scale=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Tiny,
    Small,
    Paper,
}

impl Scale {
    /// The generator preset at this scale.
    fn pair_config(self, seed: u64) -> PairConfig {
        match self {
            Scale::Tiny => PairConfig::tiny(seed),
            Scale::Small => PairConfig::small(seed),
            Scale::Paper => PairConfig::yago_dbpedia(seed),
        }
    }
}

/// What the command line selected; every experiment reads the fields it
/// needs.
#[derive(Debug, PartialEq)]
struct Options {
    scale: Scale,
    seed: u64,
    threads: usize,
    sample_size: usize,
    seeds: u64,
    out: PathBuf,
    verbose: bool,
}

impl Options {
    /// Parses the arguments after the experiment name. Anything that is
    /// not a known option with a well-formed value is an error.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn value<T: FromStr>(arg: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{arg}: {text:?} is not a valid value"))
        }
        let mut options = Options {
            scale: Scale::Small,
            seed: 42,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            sample_size: 10,
            seeds: 5,
            out: PathBuf::from("./sofya-pair"),
            verbose: false,
        };
        for arg in args {
            match arg.split_once('=') {
                None if arg == "--verbose" => options.verbose = true,
                Some(("--scale", "tiny")) => options.scale = Scale::Tiny,
                Some(("--scale", "small")) => options.scale = Scale::Small,
                Some(("--scale", "paper")) => options.scale = Scale::Paper,
                Some(("--seed", text)) => options.seed = value(&arg, text)?,
                Some(("--threads", text)) => options.threads = value(&arg, text)?,
                Some(("--sample-size", text)) => options.sample_size = value(&arg, text)?,
                Some(("--seeds", text)) => options.seeds = value(&arg, text)?,
                Some(("--out", text)) => options.out = PathBuf::from(text),
                _ => return Err(format!("{arg}: unknown option or value")),
            }
        }
        Ok(options)
    }

    /// Generates the selected pair, echoing the setup so runs are
    /// self-describing.
    fn generate_pair(&self) -> GeneratedPair {
        let Options { scale, seed, .. } = *self;
        let config = scale.pair_config(seed);
        let (r1, r2) = (
            config.structures.kb1_relations(),
            config.structures.kb2_relations(),
        );
        eprintln!("generating pair: scale {scale:?}, seed {seed}, {r1} vs {r2} relations…");
        let pair = generate(&config);
        let (kb1, kb2) = (pair.kb1_name(), pair.kb2_name());
        let (n1, n2) = (pair.kb1.len(), pair.kb2.len());
        eprintln!("  {kb1}: {n1} triples | {kb2}: {n2} triples");
        pair
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let bad_usage = |message: String| {
        eprintln!("sofya-eval: {message}\n\n{USAGE}");
        ExitCode::from(2)
    };
    let Some((name, rest)) = args.split_first() else {
        return bad_usage("no experiment named".to_owned());
    };
    let Some(run) = experiments::by_name(name) else {
        return bad_usage(format!("{name}: unknown experiment"));
    };
    let options = match Options::parse(rest.iter().cloned()) {
        Ok(options) => options,
        Err(message) => return bad_usage(message),
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sofya-eval {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn options_default_when_missing() {
        let options = parse(&[]).unwrap();
        assert_eq!((options.scale, options.seed), (Scale::Small, 42));
        assert_eq!((options.sample_size, options.seeds), (10, 5));
        assert!(!options.verbose);
        let given = parse(&["--seed=7", "--scale=paper", "--out=/x", "--verbose"]).unwrap();
        assert_eq!((given.scale, given.seed), (Scale::Paper, 7));
        assert_eq!(given.out, PathBuf::from("/x"));
        assert!(given.verbose);
    }

    #[test]
    fn scale_presets_grow() {
        let tiny = Scale::Tiny.pair_config(1);
        let paper = Scale::Paper.pair_config(1);
        assert!(tiny.n_entities < paper.n_entities);
        assert_eq!(paper.structures.kb1_relations(), 92);
    }
}
