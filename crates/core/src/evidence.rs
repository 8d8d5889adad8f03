//! Validation sampling (§2.2, *Simple Sample Extraction*).
//!
//! Builds the paper's sample sets for a candidate rule `r' ⇒ r`:
//!
//! * `S^{r'}` — sampled subjects of `r'` that carry `sameAs` links;
//! * `K'_S`  — the `r'` facts of those subjects (only link-complete facts,
//!   so incompleteness of the link set is not punished);
//! * `P_S`   — the pairs translated into `K`;
//! * evidence per pair — whether `r(x₂, y₂)` holds and whether `K` knows
//!   any `r`-fact of `x₂` (the PCA denominators).

use crate::confidence::{PairEvidence, SampleEvidence};
use crate::config::AlignerConfig;
use crate::error::AlignError;
use rand::rngs::StdRng;
use rand::Rng;
use sofya_endpoint::helpers;
use sofya_endpoint::Endpoint;
use sofya_rdf::Term;
use sofya_textsim::literals_match;
use std::collections::BTreeMap;

/// A uniform page offset that keeps a `window`-sized page inside
/// `count` facts.
pub(crate) fn random_offset(rng: &mut StdRng, count: usize, window: usize) -> usize {
    let max_offset = count.saturating_sub(window);
    if max_offset == 0 {
        0
    } else {
        rng.gen_range(0..=max_offset)
    }
}

/// How many facts to page in to cover `sample_size` subjects (subjects
/// have a small object fan-out; 6× is a comfortable envelope).
fn fact_window(sample_size: usize) -> usize {
    sample_size * 6
}

/// When a page came back exactly full, the trailing subject's fact group
/// may have been cut mid-subject by the window edge — its remaining facts
/// live on the next page we never fetch, which would silently undercount
/// that subject's pairs. Drop the possibly-partial trailing subject,
/// unless it is the only one (a single subject spanning the whole window
/// is better sampled partially than not at all).
fn drop_partial_trailing_subject(
    page_len: usize,
    window: usize,
    subject_order: &mut Vec<String>,
    by_subject: &mut BTreeMap<String, Vec<(String, String)>>,
) {
    if page_len == window && subject_order.len() > 1 {
        if let Some(last) = subject_order.pop() {
            by_subject.remove(&last);
        }
    }
}

/// The distinct translated subjects (`x₂`) appearing in the retained
/// sample, in first-seen order — the probe set for one batched
/// `objects_of` round trip.
fn distinct_translated<'a>(
    subject_order: &'a [String],
    by_subject: &'a BTreeMap<String, Vec<(String, String)>>,
) -> Vec<&'a str> {
    let mut translated: Vec<&str> = Vec::new();
    for subject in subject_order {
        for (x2, _) in &by_subject[subject] {
            if !translated.contains(&x2.as_str()) {
                translated.push(x2);
            }
        }
    }
    translated
}

/// Builds evidence for an entity–entity rule `premise ⇒ conclusion`.
///
/// Pseudo-randomness: a random page offset into the deterministic order
/// of the source endpoint's linked facts, seeded per rule by the caller.
pub fn entity_evidence(
    source: &dyn Endpoint,
    target: &dyn Endpoint,
    config: &AlignerConfig,
    premise: &str,
    conclusion: &str,
    rng: &mut StdRng,
) -> Result<SampleEvidence, AlignError> {
    let count = helpers::linked_entity_fact_count(source, premise, &config.same_as)?;
    if count == 0 {
        return Ok(SampleEvidence::default());
    }
    let window = fact_window(config.sample_size);
    let offset = random_offset(rng, count, window);
    let facts =
        helpers::linked_entity_facts_page(source, premise, &config.same_as, window, offset)?;

    // Group facts by subject, keep the first `sample_size` subjects.
    let mut by_subject: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut subject_order: Vec<String> = Vec::new();
    for (x, _y, x2, y2) in &facts {
        let (Some(x_iri), Some(x2_iri), Some(y2_iri)) = (x.as_iri(), x2.as_iri(), y2.as_iri())
        else {
            continue;
        };
        if !by_subject.contains_key(x_iri) {
            subject_order.push(x_iri.to_owned());
        }
        by_subject
            .entry(x_iri.to_owned())
            .or_default()
            .push((x2_iri.to_owned(), y2_iri.to_owned()));
    }
    drop_partial_trailing_subject(facts.len(), window, &mut subject_order, &mut by_subject);
    subject_order.truncate(config.sample_size);

    let mut evidence = SampleEvidence {
        pairs: Vec::new(),
        subjects: subject_order.len(),
    };
    // One batched `objects_of` round trip for the whole probe set answers
    // both PCA questions for every translated subject at once: an empty
    // object set means K knows no r-fact of x₂ (the pair is *unknown*),
    // and membership of y₂ decides positive vs counter-example. The whole
    // relation costs one round trip (and one snapshot pin) instead of one
    // SELECT per translated subject.
    let translated = distinct_translated(&subject_order, &by_subject);
    let probes: Vec<(&str, &str)> = translated.iter().map(|x2| (*x2, conclusion)).collect();
    let object_sets = helpers::objects_of_batch(target, &probes)?;
    let objects_by_x2: BTreeMap<&str, Vec<Term>> =
        translated.iter().copied().zip(object_sets).collect();
    for subject in &subject_order {
        for (x2, y2) in &by_subject[subject] {
            let objects = &objects_by_x2[x2.as_str()];
            // Any object (entity or literal) counts as "K knows r-facts
            // of x₂" — the PCA denominator test, exactly as the previous
            // `ASK { x₂ r ?y }` probe behaved.
            evidence.pairs.push(if objects.is_empty() {
                PairEvidence::unknown()
            } else if objects.iter().any(|o| o.as_iri() == Some(y2.as_str())) {
                PairEvidence::positive()
            } else {
                PairEvidence::pca_negative()
            });
        }
    }
    Ok(evidence)
}

/// Builds evidence for an entity–literal rule `premise ⇒ conclusion`,
/// matching literal objects with [`literals_match`] (§2.2: "apply string
/// similarity functions to align the literals").
pub fn literal_evidence(
    source: &dyn Endpoint,
    target: &dyn Endpoint,
    config: &AlignerConfig,
    premise: &str,
    conclusion: &str,
    rng: &mut StdRng,
) -> Result<SampleEvidence, AlignError> {
    let count = helpers::linked_literal_fact_count(source, premise, &config.same_as)?;
    if count == 0 {
        return Ok(SampleEvidence::default());
    }
    let window = fact_window(config.sample_size);
    let offset = random_offset(rng, count, window);
    let facts =
        helpers::linked_literal_facts_page(source, premise, &config.same_as, window, offset)?;

    let mut by_subject: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut subject_order: Vec<String> = Vec::new();
    for (x, v, x2) in &facts {
        let (Some(x_iri), Some(lex), Some(x2_iri)) = (x.as_iri(), v.as_literal(), x2.as_iri())
        else {
            continue;
        };
        if !by_subject.contains_key(x_iri) {
            subject_order.push(x_iri.to_owned());
        }
        by_subject
            .entry(x_iri.to_owned())
            .or_default()
            .push((x2_iri.to_owned(), lex.to_owned()));
    }
    drop_partial_trailing_subject(facts.len(), window, &mut subject_order, &mut by_subject);
    subject_order.truncate(config.sample_size);

    let mut evidence = SampleEvidence {
        pairs: Vec::new(),
        subjects: subject_order.len(),
    };
    // One batched `objects_of` round trip for the whole probe set; pairs
    // of a multi-valued subject reuse the fetched objects. The PCA
    // denominator question ("does K know any r-fact of x₂?") is decided
    // on the *unfiltered* object set — a subject whose conclusion objects
    // are all IRIs is a counter-example (K knows r-facts of x₂, none of
    // them literal-matches), not an unknown; only a subject with no
    // conclusion objects at all stays outside the denominator. The
    // literal filter applies afterwards, for the similarity match only.
    let translated = distinct_translated(&subject_order, &by_subject);
    let probes: Vec<(&str, &str)> = translated.iter().map(|x2| (*x2, conclusion)).collect();
    let object_sets = helpers::objects_of_batch(target, &probes)?;
    let literals_by_x2: BTreeMap<&str, (bool, Vec<String>)> = translated
        .iter()
        .copied()
        .zip(object_sets)
        .map(|(x2, objects)| {
            let known = !objects.is_empty();
            let literals = objects
                .iter()
                .filter_map(|o| o.as_literal().map(str::to_owned))
                .collect();
            (x2, (known, literals))
        })
        .collect();
    for subject in &subject_order {
        for (x2, lex) in &by_subject[subject] {
            let (known, literals) = &literals_by_x2[x2.as_str()];
            if !known {
                evidence.pairs.push(PairEvidence::unknown());
                continue;
            }
            let holds = literals.iter().any(|t| literals_match(t, lex));
            evidence.pairs.push(if holds {
                PairEvidence::positive()
            } else {
                PairEvidence::pca_negative()
            });
        }
    }
    Ok(evidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::{cwaconf, pcaconf};
    use rand::SeedableRng;
    use sofya_endpoint::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};

    const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

    fn link(a: &mut TripleStore, b: &mut TripleStore, ea: &str, eb: &str) {
        a.insert_terms(&Term::iri(ea), &Term::iri(SA), &Term::iri(eb));
        b.insert_terms(&Term::iri(eb), &Term::iri(SA), &Term::iri(ea));
    }

    /// Source `d:birthPlace` with 8 linked facts; target `y:born` knows 6
    /// of them, contradicts 1 (different object), and knows nothing about
    /// 1 subject.
    fn scenario() -> (LocalEndpoint, LocalEndpoint) {
        let mut dbp = TripleStore::new();
        let mut yago = TripleStore::new();
        for i in 0..8 {
            let (pd, py) = (format!("d:P{i}"), format!("y:p{i}"));
            let (cd, cy) = (format!("d:C{i}"), format!("y:c{i}"));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri("d:birthPlace"), &Term::iri(&cd));
            link(&mut dbp, &mut yago, &pd, &py);
            link(&mut dbp, &mut yago, &cd, &cy);
            match i {
                0..=5 => {
                    // Positive: y:born(p, c).
                    yago.insert_terms(&Term::iri(&py), &Term::iri("y:born"), &Term::iri(&cy));
                }
                6 => {
                    // PCA counter-example: y knows a *different* birth place.
                    yago.insert_terms(&Term::iri(&py), &Term::iri("y:born"), &Term::iri("y:other"));
                }
                _ => {
                    // Unknown: y has no born-facts for p7.
                }
            }
        }
        (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        )
    }

    fn config() -> AlignerConfig {
        AlignerConfig {
            sample_size: 10,
            ..AlignerConfig::paper_defaults(3)
        }
    }

    #[test]
    fn entity_evidence_classifies_pairs_per_equations() {
        let (dbp, yago) = scenario();
        let mut rng = StdRng::seed_from_u64(0);
        let e =
            entity_evidence(&dbp, &yago, &config(), "d:birthPlace", "y:born", &mut rng).unwrap();
        assert_eq!(e.total(), 8);
        assert_eq!(e.support(), 6);
        assert_eq!(e.pca_known(), 7);
        assert!((cwaconf(&e) - 6.0 / 8.0).abs() < 1e-12);
        assert!((pcaconf(&e) - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sample_size_caps_subjects() {
        let (dbp, yago) = scenario();
        let cfg = AlignerConfig {
            sample_size: 3,
            ..config()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let e = entity_evidence(&dbp, &yago, &cfg, "d:birthPlace", "y:born", &mut rng).unwrap();
        assert_eq!(e.subjects, 3);
        assert_eq!(e.total(), 3); // one fact per subject in this scenario
    }

    #[test]
    fn empty_premise_gives_empty_evidence() {
        let (dbp, yago) = scenario();
        let mut rng = StdRng::seed_from_u64(0);
        let e = entity_evidence(&dbp, &yago, &config(), "d:ghost", "y:born", &mut rng).unwrap();
        assert_eq!(e.total(), 0);
    }

    #[test]
    fn literal_evidence_uses_string_similarity() {
        let mut dbp = TripleStore::new();
        let mut yago = TripleStore::new();
        for (i, (d_name, y_name, matches)) in [
            ("Frank Sinatra", "frank_sinatra", true),
            ("Ella Fitzgerald", "Fitzgerald, Ella", true),
            ("Dean Martin", "Completely Different", false),
        ]
        .iter()
        .enumerate()
        {
            let (pd, py) = (format!("d:P{i}"), format!("y:p{i}"));
            dbp.insert_terms(
                &Term::iri(&pd),
                &Term::iri("d:name"),
                &Term::literal(*d_name),
            );
            yago.insert_terms(
                &Term::iri(&py),
                &Term::iri("y:label"),
                &Term::literal(*y_name),
            );
            link(&mut dbp, &mut yago, &pd, &py);
            let _ = matches;
        }
        let (dbp, yago) = (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let e = literal_evidence(&dbp, &yago, &config(), "d:name", "y:label", &mut rng).unwrap();
        assert_eq!(e.total(), 3);
        assert_eq!(e.support(), 2);
        assert_eq!(e.pca_known(), 3);
    }

    /// PCA semantics regression: a subject whose conclusion objects are
    /// all IRIs means K *does* know r-facts of x₂ — the pair is a
    /// counter-example, not an unknown. Before the fix, the literal path
    /// filtered non-literal objects *before* the emptiness check and
    /// misclassified this as unknown, deflating the PCA denominator.
    #[test]
    fn literal_evidence_counts_iri_objects_as_pca_known() {
        let mut dbp = TripleStore::new();
        let mut yago = TripleStore::new();
        // Subject 0: target knows only an IRI object → counter-example.
        dbp.insert_terms(
            &Term::iri("d:P0"),
            &Term::iri("d:name"),
            &Term::literal("Ann"),
        );
        link(&mut dbp, &mut yago, "d:P0", "y:p0");
        yago.insert_terms(
            &Term::iri("y:p0"),
            &Term::iri("y:label"),
            &Term::iri("y:ann"),
        );
        // Subject 1: target knows a matching literal → positive.
        dbp.insert_terms(
            &Term::iri("d:P1"),
            &Term::iri("d:name"),
            &Term::literal("Bob"),
        );
        link(&mut dbp, &mut yago, "d:P1", "y:p1");
        yago.insert_terms(
            &Term::iri("y:p1"),
            &Term::iri("y:label"),
            &Term::literal("Bob"),
        );
        // Subject 2: target knows nothing about p2 → unknown.
        dbp.insert_terms(
            &Term::iri("d:P2"),
            &Term::iri("d:name"),
            &Term::literal("Cid"),
        );
        link(&mut dbp, &mut yago, "d:P2", "y:p2");
        let (dbp, yago) = (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let e = literal_evidence(&dbp, &yago, &config(), "d:name", "y:label", &mut rng).unwrap();
        assert_eq!(e.total(), 3);
        assert_eq!(e.support(), 1);
        // p0 (IRI-only objects) and p1 (match) are both PCA-known; only
        // p2 (no objects at all) stays outside the denominator.
        assert_eq!(e.pca_known(), 2);
    }

    /// Page-boundary regression: with `sample_size = 2` the fact window
    /// is 12; subject A has 6 linked facts and subject B has 8, so every
    /// admissible offset (0..=2) yields an exactly-full page in which B's
    /// fact group may be cut mid-subject. The possibly-partial trailing
    /// subject must be dropped rather than sampled with an undercounted
    /// pair set.
    #[test]
    fn full_page_drops_possibly_partial_trailing_subject() {
        let mut dbp = TripleStore::new();
        let mut yago = TripleStore::new();
        link(&mut dbp, &mut yago, "d:A", "y:a");
        link(&mut dbp, &mut yago, "d:B", "y:b");
        for i in 0..6 {
            let (cd, cy) = (format!("d:ca{i}"), format!("y:ca{i}"));
            dbp.insert_terms(
                &Term::iri("d:A"),
                &Term::iri("d:birthPlace"),
                &Term::iri(&cd),
            );
            link(&mut dbp, &mut yago, &cd, &cy);
            yago.insert_terms(&Term::iri("y:a"), &Term::iri("y:born"), &Term::iri(&cy));
        }
        for i in 0..8 {
            let (cd, cy) = (format!("d:cb{i}"), format!("y:cb{i}"));
            dbp.insert_terms(
                &Term::iri("d:B"),
                &Term::iri("d:birthPlace"),
                &Term::iri(&cd),
            );
            link(&mut dbp, &mut yago, &cd, &cy);
            yago.insert_terms(&Term::iri("y:b"), &Term::iri("y:born"), &Term::iri(&cy));
        }
        let (dbp, yago) = (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        );
        let cfg = AlignerConfig {
            sample_size: 2,
            ..config()
        };
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let e = entity_evidence(&dbp, &yago, &cfg, "d:birthPlace", "y:born", &mut rng).unwrap();
            // The page (12 of 14 facts, ORDER BY ?x ?y) always ends
            // inside or exactly at B's group, so only A survives.
            assert_eq!(e.subjects, 1, "seed {seed}");
            assert!(e.total() <= 6, "seed {seed}: total {}", e.total());
            assert_eq!(e.support(), e.total(), "seed {seed}");
        }
    }

    /// Carve-out: a single subject filling the whole window is kept — a
    /// partial sample of the only subject beats an empty one.
    #[test]
    fn full_page_keeps_sole_subject() {
        let mut dbp = TripleStore::new();
        let mut yago = TripleStore::new();
        link(&mut dbp, &mut yago, "d:A", "y:a");
        for i in 0..6 {
            let (cd, cy) = (format!("d:c{i}"), format!("y:c{i}"));
            dbp.insert_terms(
                &Term::iri("d:A"),
                &Term::iri("d:birthPlace"),
                &Term::iri(&cd),
            );
            link(&mut dbp, &mut yago, &cd, &cy);
            yago.insert_terms(&Term::iri("y:a"), &Term::iri("y:born"), &Term::iri(&cy));
        }
        let (dbp, yago) = (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        );
        let cfg = AlignerConfig {
            sample_size: 1,
            ..config()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let e = entity_evidence(&dbp, &yago, &cfg, "d:birthPlace", "y:born", &mut rng).unwrap();
        assert_eq!(e.subjects, 1);
        assert_eq!(e.total(), 6);
    }

    /// The batching claim, measured: probing one relation's evidence
    /// against a counting target costs **one** round trip where the
    /// per-subject protocol paid one per translated subject — at twelve
    /// subjects, a ≥10x reduction in requests.
    #[test]
    fn evidence_probes_cost_one_round_trip_per_relation() {
        use sofya_endpoint::InstrumentedEndpoint;

        let mut dbp = TripleStore::new();
        let mut yago = TripleStore::new();
        for i in 0..12 {
            let (pd, py) = (format!("d:P{i}"), format!("y:p{i}"));
            let (cd, cy) = (format!("d:C{i}"), format!("y:c{i}"));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri("d:birthPlace"), &Term::iri(&cd));
            link(&mut dbp, &mut yago, &pd, &py);
            link(&mut dbp, &mut yago, &cd, &cy);
            yago.insert_terms(&Term::iri(&py), &Term::iri("y:born"), &Term::iri(&cy));
        }
        let dbp = LocalEndpoint::new("dbp", dbp);
        let target = InstrumentedEndpoint::new(LocalEndpoint::new("yago", yago));

        let cfg = AlignerConfig {
            sample_size: 12,
            ..config()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let e = entity_evidence(&dbp, &target, &cfg, "d:birthPlace", "y:born", &mut rng).unwrap();
        assert_eq!(e.subjects, 12);

        let counters = target.counters();
        // The unbatched protocol would have paid one round trip per
        // translated subject — that is exactly the leaf-query count.
        let unbatched_round_trips = counters.total_queries();
        assert_eq!(unbatched_round_trips, 12);
        assert_eq!(counters.batches(), 1);
        // The batched protocol paid a single round trip.
        let batched_round_trips = counters.requests();
        assert_eq!(batched_round_trips, 1);
        assert!(
            unbatched_round_trips >= 10 * batched_round_trips,
            "expected a >=10x round-trip reduction: {unbatched_round_trips} vs {batched_round_trips}"
        );
    }

    #[test]
    fn literal_evidence_unknown_when_target_has_no_literals() {
        let mut dbp = TripleStore::new();
        let mut yago = TripleStore::new();
        dbp.insert_terms(
            &Term::iri("d:P0"),
            &Term::iri("d:name"),
            &Term::literal("Ann"),
        );
        link(&mut dbp, &mut yago, "d:P0", "y:p0");
        let (dbp, yago) = (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let e = literal_evidence(&dbp, &yago, &config(), "d:name", "y:label", &mut rng).unwrap();
        assert_eq!(e.total(), 1);
        assert_eq!(e.pca_known(), 0);
    }
}
