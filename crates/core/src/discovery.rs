//! Candidate discovery (§2.1): which source relations could be subsumed
//! by a given target relation?
//!
//! The paper samples facts `r(x, y)` of the target relation, translates
//! the pairs through `sameAs`, and takes every source relation holding on
//! a translated pair as a candidate. For entity–literal relations the
//! translation goes through string similarity instead of `sameAs` links
//! on the object side.

use crate::config::{AlignerConfig, DISCOVERY_FACTS};
use crate::error::AlignError;
use crate::evidence::random_offset;
use rand::rngs::StdRng;
use sofya_endpoint::helpers;
use sofya_endpoint::Endpoint;
use sofya_textsim::literals_match;

/// Whether a relation is predominantly entity→literal, probed from a
/// small facts page.
pub fn relation_is_literal<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
) -> Result<bool, AlignError> {
    let page = helpers::relation_facts_page(ep, relation, 20, 0)?;
    if page.is_empty() {
        return Ok(false);
    }
    let literal = page.iter().filter(|(_, o)| o.is_literal()).count();
    Ok(literal * 2 > page.len())
}

/// Result of candidate discovery for one target relation.
#[derive(Debug, Clone, Default)]
pub struct Discovery {
    /// Candidate premise relations in the source KB, most frequent first.
    pub candidates: Vec<String>,
    /// Target-side subjects sampled during discovery (IRIs in the target
    /// KB) — reused by UBS for conclusion-side sibling hunting.
    pub target_subjects: Vec<String>,
}

/// Discovers candidates for `r` (a relation of the *target* KB).
pub fn discover(
    source: &dyn Endpoint,
    target: &dyn Endpoint,
    config: &AlignerConfig,
    relation: &str,
    relation_literal: bool,
    rng: &mut StdRng,
) -> Result<Discovery, AlignError> {
    if relation_literal {
        discover_literal(source, target, config, relation, rng)
    } else {
        discover_entity(source, target, config, relation, rng)
    }
}

fn discover_entity(
    source: &dyn Endpoint,
    target: &dyn Endpoint,
    config: &AlignerConfig,
    relation: &str,
    rng: &mut StdRng,
) -> Result<Discovery, AlignError> {
    let count = helpers::linked_entity_fact_count(target, relation, &config.same_as)?;
    if count == 0 {
        return Ok(Discovery::default());
    }
    let window = DISCOVERY_FACTS;
    let offset = random_offset(rng, count, window);
    let facts =
        helpers::linked_entity_facts_page(target, relation, &config.same_as, window, offset)?;

    let mut subjects = Vec::new();
    let mut translated: Vec<(&str, &str)> = Vec::new();
    for (x, _y, x2, y2) in &facts {
        if let Some(x_iri) = x.as_iri() {
            if !subjects.iter().any(|s| s == x_iri) {
                subjects.push(x_iri.to_owned());
            }
        }
        if let (Some(x2), Some(y2)) = (x2.as_iri(), y2.as_iri()) {
            translated.push((x2, y2));
        }
    }
    // Every translated pair of the page is an independent probe.
    let between = helpers::relations_between_batch(source, &translated)?;
    Ok(Discovery {
        candidates: most_frequent_first(
            between
                .into_iter()
                .flatten()
                .filter(|rel| *rel != config.same_as),
        ),
        target_subjects: subjects,
    })
}

/// The distinct relations of `seen`, most often seen first; ties in IRI
/// order.
pub(crate) fn most_frequent_first(seen: impl Iterator<Item = String>) -> Vec<String> {
    let mut freq: std::collections::BTreeMap<String, usize> = Default::default();
    for relation in seen {
        *freq.entry(relation).or_insert(0) += 1;
    }
    let mut counted: Vec<(String, usize)> = freq.into_iter().collect();
    counted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    counted.into_iter().map(|(r, _)| r).collect()
}

fn discover_literal(
    source: &dyn Endpoint,
    target: &dyn Endpoint,
    config: &AlignerConfig,
    relation: &str,
    rng: &mut StdRng,
) -> Result<Discovery, AlignError> {
    // Literal facts only need the subject linked.
    let count = helpers::linked_literal_fact_count(target, relation, &config.same_as)?;
    if count == 0 {
        return Ok(Discovery::default());
    }
    let window = DISCOVERY_FACTS;
    let offset = random_offset(rng, count, window);
    let facts =
        helpers::linked_literal_facts_page(target, relation, &config.same_as, window, offset)?;

    // The facts to probe — `(x₂, v)` — are those of the page's first
    // `sample_size` distinct subjects.
    let mut subjects: Vec<String> = Vec::new();
    let mut probed: Vec<(&str, &str)> = Vec::new();
    for (x, v, x2) in &facts {
        let Some(x2_iri) = x2.as_iri() else { continue };
        if let Some(x_iri) = x.as_iri() {
            if !subjects.iter().any(|s| s == x_iri) {
                if subjects.len() == config.sample_size {
                    break;
                }
                subjects.push(x_iri.to_owned());
            }
        }
        if let Some(v) = v.as_literal() {
            probed.push((x2_iri, v));
        }
    }

    // First batch: the relations of every translated subject. Second
    // batch: its objects under each of them, to match against the literal.
    let entities: Vec<&str> = probed.iter().map(|(x2, _)| *x2).collect();
    let relations = helpers::relations_of_entity_batch(source, &entities)?;
    let mut wanted: Vec<(&str, &str)> = Vec::new();
    let mut literals: Vec<&str> = Vec::new();
    for ((x2, v), rels) in probed.iter().zip(&relations) {
        for rel in rels.iter().filter(|rel| **rel != config.same_as) {
            wanted.push((x2, rel));
            literals.push(v);
        }
    }
    let object_sets = helpers::objects_of_batch(source, &wanted)?;
    let matched = wanted
        .iter()
        .zip(literals)
        .zip(object_sets)
        .filter(|((_, v), objects)| {
            objects
                .iter()
                .filter_map(|o| o.as_literal())
                .any(|lex| literals_match(lex, v))
        })
        .map(|(((_, rel), _), _)| (*rel).to_owned());
    Ok(Discovery {
        candidates: most_frequent_first(matched),
        target_subjects: subjects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sofya_endpoint::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};

    const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

    /// Two tiny stores: yago-style target with `y:born`, dbp-style source
    /// with `d:birthPlace` over linked entities.
    fn scenario() -> (LocalEndpoint, LocalEndpoint) {
        let mut yago = TripleStore::new();
        let mut dbp = TripleStore::new();
        for i in 0..6 {
            let (p_y, p_d) = (format!("y:p{i}"), format!("d:P{i}"));
            let (c_y, c_d) = (format!("y:c{i}"), format!("d:C{i}"));
            yago.insert_terms(&Term::iri(&p_y), &Term::iri("y:born"), &Term::iri(&c_y));
            dbp.insert_terms(
                &Term::iri(&p_d),
                &Term::iri("d:birthPlace"),
                &Term::iri(&c_d),
            );
            yago.insert_terms(&Term::iri(&p_y), &Term::iri(SA), &Term::iri(&p_d));
            yago.insert_terms(&Term::iri(&c_y), &Term::iri(SA), &Term::iri(&c_d));
            dbp.insert_terms(&Term::iri(&p_d), &Term::iri(SA), &Term::iri(&p_y));
            dbp.insert_terms(&Term::iri(&c_d), &Term::iri(SA), &Term::iri(&c_y));
            // Name literals for the literal path.
            yago.insert_terms(
                &Term::iri(&p_y),
                &Term::iri("y:label"),
                &Term::literal(format!("Person Number{i}")),
            );
            dbp.insert_terms(
                &Term::iri(&p_d),
                &Term::iri("d:name"),
                &Term::literal(format!("person_number{i}")),
            );
        }
        (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        )
    }

    fn config() -> AlignerConfig {
        AlignerConfig::paper_defaults(7)
    }

    #[test]
    fn literal_probe_detects_kinds() {
        let (_, yago) = scenario();
        assert!(!relation_is_literal(&yago, "y:born").unwrap());
        assert!(relation_is_literal(&yago, "y:label").unwrap());
        assert!(!relation_is_literal(&yago, "y:ghost").unwrap());
    }

    #[test]
    fn entity_discovery_finds_the_counterpart() {
        let (dbp, yago) = scenario();
        let mut rng = StdRng::seed_from_u64(1);
        let d = discover(&dbp, &yago, &config(), "y:born", false, &mut rng).unwrap();
        assert_eq!(d.candidates, vec!["d:birthPlace"]);
        assert!(!d.target_subjects.is_empty());
    }

    #[test]
    fn discovery_of_unknown_relation_is_empty() {
        let (dbp, yago) = scenario();
        let mut rng = StdRng::seed_from_u64(1);
        let d = discover(&dbp, &yago, &config(), "y:ghost", false, &mut rng).unwrap();
        assert!(d.candidates.is_empty());
    }

    #[test]
    fn literal_discovery_matches_corrupted_names() {
        let (dbp, yago) = scenario();
        let mut rng = StdRng::seed_from_u64(1);
        let d = discover(&dbp, &yago, &config(), "y:label", true, &mut rng).unwrap();
        assert_eq!(d.candidates, vec!["d:name"]);
    }

    /// `target_subjects` are the subjects discovery probed: with six
    /// labelled subjects on the page and a cap of three, the fourth — at
    /// which the loop stops — was never probed and is not reported.
    #[test]
    fn literal_discovery_reports_only_the_subjects_it_probed() {
        let (dbp, yago) = scenario();
        let cfg = AlignerConfig {
            sample_size: 3,
            ..config()
        };
        let counted = sofya_endpoint::InstrumentedEndpoint::new(dbp);
        let mut rng = StdRng::seed_from_u64(1);
        let d = discover(&counted, &yago, &cfg, "y:label", true, &mut rng).unwrap();
        assert_eq!(d.target_subjects, vec!["y:p0", "y:p1", "y:p2"]);
        assert_eq!(d.candidates, vec!["d:name"]);
        // Three `relations_of_entity` probes in one table; each entity
        // has d:birthPlace, d:name and sameAs, and the two that are not
        // sameAs are fetched, for all three, in a second.
        let counters = counted.counters();
        assert_eq!(counters.requests(), 2);
        assert_eq!(counters.select_queries(), 2);
    }

    #[test]
    fn discovery_ignores_same_as_itself() {
        let (dbp, yago) = scenario();
        let mut rng = StdRng::seed_from_u64(1);
        let d = discover(&dbp, &yago, &config(), "y:born", false, &mut rng).unwrap();
        assert!(!d.candidates.iter().any(|c| c == SA));
    }
}
