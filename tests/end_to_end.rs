//! End-to-end pipeline tests on generated pairs: generation → endpoints
//! → alignment → evaluation, asserting the paper's qualitative results.

use sofya::align::AlignerConfig;
use sofya::eval::{align_direction, evaluate_rules, run_table1};
use sofya::kbgen::{generate, PairConfig};

#[test]
fn table1_shape_holds_on_small_scale() {
    let pair = generate(&PairConfig::small(1001));
    let table = run_table1(&pair, 1001, 10, 4).unwrap();
    let pca = &table.rows[0];
    let cwa = &table.rows[1];
    let ubs = &table.rows[2];

    for (label, dir_ubs, dir_pca, dir_cwa) in [
        ("kb2⊂kb1", &ubs.kb2_in_kb1, &pca.kb2_in_kb1, &cwa.kb2_in_kb1),
        ("kb1⊂kb2", &ubs.kb1_in_kb2, &pca.kb1_in_kb2, &cwa.kb1_in_kb2),
    ] {
        // UBS precision beats both baselines by a wide margin.
        assert!(
            dir_ubs.precision() >= dir_pca.precision() + 0.1,
            "{label}: UBS {dir_ubs} vs pca-SSE {dir_pca}"
        );
        assert!(
            dir_ubs.precision() >= dir_cwa.precision() + 0.1,
            "{label}: UBS {dir_ubs} vs cwa-SSE {dir_cwa}"
        );
        // And stays high in absolute terms without destroying recall.
        assert!(dir_ubs.precision() >= 0.75, "{label}: {dir_ubs}");
        assert!(dir_ubs.recall() >= 0.5, "{label}: {dir_ubs}");
        // The baselines find things too (their problem is precision).
        assert!(dir_pca.recall() >= 0.7, "{label}: {dir_pca}");
    }
}

/// What the aligner concludes, pinned: the exact rule list and
/// precision/recall of both directions for four fixed kbgen pairs,
/// rendered one rule per line and compared byte for byte with
/// `tests/pinned_alignments.txt`. A refactor or speed-up that changes a
/// sample, a confidence digit or a pruning verdict fails here; an
/// intended change re-pins from the rendering the failure leaves under
/// the target directory.
#[test]
fn alignments_are_pinned_per_seed() {
    use std::fmt::Write;
    let mut actual = String::new();
    for (label, pair_config, seed) in [
        ("small(1001)", PairConfig::small(1001), 1001),
        ("tiny(5)", PairConfig::tiny(5), 5),
        ("tiny(99)", PairConfig::tiny(99), 99),
        ("tiny(12345)", PairConfig::tiny(12345), 12345),
    ] {
        let pair = generate(&pair_config);
        let config = AlignerConfig::paper_defaults(seed);
        for (source, target, source_name, target_name) in [
            (&pair.kb2, &pair.kb1, pair.kb2_name(), pair.kb1_name()),
            (&pair.kb1, &pair.kb2, pair.kb1_name(), pair.kb2_name()),
        ] {
            let out = align_direction(source, target, source_name, target_name, &config, 4)
                .expect("alignment of a generated pair");
            let m = evaluate_rules(&out.rules, &pair.gold, source_name, target_name);
            writeln!(
                actual,
                "# {label} {source_name}⊂{target_name}: {} rules, P {:.12} R {:.12} (tp {}, fp {}, fn {})",
                out.rules.len(),
                m.precision(),
                m.recall(),
                m.true_positives,
                m.false_positives,
                m.false_negatives,
            )
            .expect("writing to a String");
            for r in &out.rules {
                writeln!(
                    actual,
                    "{} ⇒ {} conf {:.12} support {} pairs {}",
                    r.premise, r.conclusion, r.confidence, r.support, r.sample_pairs
                )
                .expect("writing to a String");
            }
        }
    }
    let pinned = include_str!("pinned_alignments.txt");
    if actual != pinned {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pinned_alignments.actual");
        std::fs::write(&path, &actual).expect("write the actual rendering");
        let line = actual
            .lines()
            .zip(pinned.lines())
            .position(|(a, p)| a != p)
            .unwrap_or_else(|| actual.lines().count().min(pinned.lines().count()));
        panic!(
            "alignments differ from tests/pinned_alignments.txt at line {}; actual rendering in {}",
            line + 1,
            path.display()
        );
    }
}

#[test]
fn alignment_is_reproducible_across_runs_and_threads() {
    let pair = generate(&PairConfig::tiny(77));
    let config = AlignerConfig::paper_defaults(77);
    let a = align_direction(&pair.kb2, &pair.kb1, "b", "a", &config, 1).unwrap();
    let b = align_direction(&pair.kb2, &pair.kb1, "b", "a", &config, 8).unwrap();
    assert_eq!(a.rules, b.rules);
}

#[test]
fn different_seeds_still_satisfy_the_shape() {
    // Guard against seed-luck: the UBS > SSE gap must hold for several
    // seeds, not just the default.
    for seed in [5, 99, 12345] {
        let pair = generate(&PairConfig::tiny(seed));
        let ubs = align_direction(
            &pair.kb2,
            &pair.kb1,
            pair.kb2_name(),
            pair.kb1_name(),
            &AlignerConfig::paper_defaults(seed),
            4,
        )
        .unwrap();
        let sse = align_direction(
            &pair.kb2,
            &pair.kb1,
            pair.kb2_name(),
            pair.kb1_name(),
            &AlignerConfig::baseline_pca(seed),
            4,
        )
        .unwrap();
        let m_ubs = evaluate_rules(&ubs.rules, &pair.gold, pair.kb2_name(), pair.kb1_name());
        let m_sse = evaluate_rules(&sse.rules, &pair.gold, pair.kb2_name(), pair.kb1_name());
        assert!(
            m_ubs.precision() >= m_sse.precision(),
            "seed {seed}: UBS {m_ubs} vs SSE {m_sse}"
        );
        assert!(m_ubs.true_positives > 0, "seed {seed}: UBS found nothing");
    }
}

#[test]
fn ubs_needs_fewer_rows_than_a_dump() {
    // "Works with few queries": rows transferred by a full alignment run
    // must be well below the size of the KBs themselves.
    let pair = generate(&PairConfig::small(31));
    let out = align_direction(
        &pair.kb2,
        &pair.kb1,
        pair.kb2_name(),
        pair.kb1_name(),
        &AlignerConfig::paper_defaults(31),
        4,
    )
    .unwrap();
    let dump_size = (pair.kb1.len() + pair.kb2.len()) as u64;
    assert!(
        out.rows_transferred < dump_size * 3,
        "rows {} vs dump {dump_size}",
        out.rows_transferred
    );
    assert!(out.queries_per_relation() < 500.0);
}

#[test]
fn inverse_relations_align_once_materialized() {
    // §2.2: "we assumed that the inverse relations have been added to the
    // two KBs. This is why we only consider direct relations." With
    // materialisation on, rules over inverse predicates are mined as
    // ordinary direct rules.
    let mut cfg = PairConfig::tiny(81);
    cfg.materialize_inverses = true;
    let pair = generate(&cfg);
    let out = align_direction(
        &pair.kb2,
        &pair.kb1,
        pair.kb2_name(),
        pair.kb1_name(),
        &AlignerConfig::paper_defaults(81),
        4,
    )
    .unwrap();
    let inverse_rules: Vec<_> = out
        .rules
        .iter()
        .filter(|r| sofya::rdf::is_inverse_iri(&r.premise))
        .collect();
    assert!(!inverse_rules.is_empty(), "no inverse rule mined");
    let m = evaluate_rules(&out.rules, &pair.gold, pair.kb2_name(), pair.kb1_name());
    assert!(m.precision() >= 0.7, "{m}");
}

#[test]
fn literal_relations_align_through_the_pipeline() {
    let pair = generate(&PairConfig::small(55));
    let config = AlignerConfig::paper_defaults(55);
    let out = align_direction(
        &pair.kb2,
        &pair.kb1,
        pair.kb2_name(),
        pair.kb1_name(),
        &config,
        4,
    )
    .unwrap();
    let literal_rules: Vec<_> = out.rules.iter().filter(|r| r.literal).collect();
    assert!(!literal_rules.is_empty(), "no literal rule mined at all");
    for rule in &literal_rules {
        assert!(
            pair.gold.is_subsumption(&rule.premise, &rule.conclusion),
            "false literal rule {rule}"
        );
    }
}
