//! Table 1 at the paper's own scale, pinned: for the five seeds of
//! `sofya-eval table1-multiseed`, every method × direction's precision
//! and recall to 12 digits, a 64-bit digest of its full rule rendering,
//! and what it cost in queries and requests, compared byte for byte with
//! `tests/table1_pinned.txt`.
//!
//! Each method × direction gives two lines. Its `rules` line is what the
//! aligner concludes: a refactor or speed-up must leave it unchanged. Its
//! `cost` line is how many leaf queries and round trips that took, which a
//! change to how probes are asked moves by design. A failure writes the
//! actual pin text, and every rule behind the digests, under the target
//! directory.

use sofya::align::{AlignerConfig, SubsumptionRule};
use sofya::eval::{align_pair, evaluate_rules};
use sofya::kbgen::{generate, PairConfig};
use std::fmt::Write;

/// `table1-multiseed`'s default seeds: 42 and the four after it.
const SEEDS: [u64; 5] = [42, 43, 44, 45, 46];

/// Table 1's sample size.
const SAMPLE_SIZE: usize = 10;

/// 64-bit FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One rule per line, as `tests/pinned_alignments.txt` renders them.
fn render(rules: &[SubsumptionRule]) -> String {
    let mut out = String::new();
    for r in rules {
        let _ = writeln!(
            out,
            "{} ⇒ {} conf {:.12} support {} pairs {}",
            r.premise, r.conclusion, r.confidence, r.support, r.sample_pairs
        );
    }
    out
}

#[test]
fn table1_at_paper_scale_is_pinned_per_seed() {
    let mut actual = String::new();
    let mut rules_text = String::new();
    for seed in SEEDS {
        let pair = generate(&PairConfig::yago_dbpedia(seed));
        let (kb1, kb2) = (pair.kb1_name(), pair.kb2_name());
        let methods = [
            ("pcaconf-SSE", AlignerConfig::baseline_pca(seed)),
            ("cwaconf-SSE", AlignerConfig::baseline_cwa(seed)),
            ("UBS-pcaconf", AlignerConfig::paper_defaults(seed)),
        ];
        for (label, base) in methods {
            let config = AlignerConfig {
                sample_size: SAMPLE_SIZE,
                ..base
            };
            let (fwd, bwd) = align_pair(&pair, &config, 4).expect("paper-scale alignment");
            for (out, source, target) in [(&fwd, kb2, kb1), (&bwd, kb1, kb2)] {
                let m = evaluate_rules(&out.rules, &pair.gold, source, target);
                let rendered = render(&out.rules);
                let head = format!("{seed} {label} {source}⊂{target}");
                let _ = writeln!(
                    actual,
                    "{head} rules {} P {:.12} R {:.12} digest {:016x}",
                    out.rules.len(),
                    m.precision(),
                    m.recall(),
                    digest(&rendered),
                );
                let _ = writeln!(
                    actual,
                    "{head} cost {} relations {} queries ({:.4}/rel) {} requests ({:.4}/rel)",
                    out.relations_aligned,
                    out.total_queries(),
                    out.queries_per_relation(),
                    out.requests,
                    out.requests_per_relation(),
                );
                let _ = write!(rules_text, "# {head}\n{rendered}");
            }
        }
    }
    let pinned = include_str!("table1_pinned.txt");
    if actual != pinned {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("table1_pinned.actual");
        std::fs::write(&path, &actual).expect("write the actual pin text");
        std::fs::write(dir.join("table1_rules.actual"), &rules_text)
            .expect("write the actual rules");
        let line = actual
            .lines()
            .zip(pinned.lines())
            .position(|(a, p)| a != p)
            .unwrap_or_else(|| actual.lines().count().min(pinned.lines().count()));
        panic!(
            "Table 1 differs from tests/table1_pinned.txt at line {}; actual pin text in {}",
            line + 1,
            path.display()
        );
    }
}
