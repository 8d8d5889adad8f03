//! The aligner's batched phases against a probe-at-a-time reference.
//!
//! Discovery, sibling hunting and UBS send their independent probes as
//! batches. The `reference` module below is the same three phases written
//! the way they ran before — one request per probe, stopping at the first
//! contradiction — and is the oracle here, not a production path. A
//! proptest over random small linked store pairs asserts identical
//! [`Discovery`] and identical UBS survivors, in order; a small-scope
//! exhaustive case (in the spirit of Collavizza et al.'s bounded
//! verification) walks every outcome of the premise-side probes of a
//! three-sample page under two siblings; and a count on the paper-scale
//! pair holds what the batching bought.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sofya_core::aligner::Scored;
use sofya_core::config::{CONTRASTIVE_SAMPLES, DISCOVERY_FACTS, MAX_SIBLINGS};
use sofya_core::discovery::{discover, Discovery};
use sofya_core::unbiased::{conclusion_siblings, prune};
use sofya_core::{Aligner, AlignerConfig, SampleEvidence, SamplingStrategy};
use sofya_endpoint::{Endpoint, InstrumentedEndpoint, LocalEndpoint};
use sofya_rdf::{Term, TripleStore};

const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

/// Discovery, sibling hunting and UBS with one request per probe.
mod reference {
    use super::*;
    use rand::Rng;
    use sofya_core::AlignError;
    use sofya_endpoint::{helpers, EndpointExt};
    use sofya_textsim::literals_match;
    use std::collections::BTreeMap;

    fn iris(ep: &dyn Endpoint, query: &str, var: &str) -> Result<Vec<String>, AlignError> {
        Ok(ep
            .select(query)?
            .column(var)
            .into_iter()
            .filter_map(|t| t.as_iri().map(str::to_owned))
            .collect())
    }

    fn relations_of_entity(ep: &dyn Endpoint, entity: &str) -> Result<Vec<String>, AlignError> {
        let query = format!("SELECT DISTINCT ?p WHERE {{ <{entity}> ?p ?o }} ORDER BY ?p");
        iris(ep, &query, "p")
    }

    fn relations_between(ep: &dyn Endpoint, s: &str, o: &str) -> Result<Vec<String>, AlignError> {
        let query = format!("SELECT DISTINCT ?p WHERE {{ <{s}> ?p <{o}> }} ORDER BY ?p");
        iris(ep, &query, "p")
    }

    fn objects_of(ep: &dyn Endpoint, s: &str, r: &str) -> Result<Vec<Term>, AlignError> {
        let rows = ep.select(&format!("SELECT ?y WHERE {{ <{s}> <{r}> ?y }} ORDER BY ?y"))?;
        Ok(rows.column("y").into_iter().cloned().collect())
    }

    fn has_fact(ep: &dyn Endpoint, s: &str, r: &str, o: &str) -> Result<bool, AlignError> {
        Ok(ep.ask(&format!("ASK {{ <{s}> <{r}> <{o}> }}"))?)
    }

    fn random_offset(rng: &mut StdRng, count: usize, window: usize) -> usize {
        match count.saturating_sub(window) {
            0 => 0,
            max_offset => rng.gen_range(0..=max_offset),
        }
    }

    fn most_frequent_first(freq: BTreeMap<String, usize>) -> Vec<String> {
        let mut counted: Vec<(String, usize)> = freq.into_iter().collect();
        counted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counted.into_iter().map(|(r, _)| r).collect()
    }

    pub fn discover(
        source: &dyn Endpoint,
        target: &dyn Endpoint,
        config: &AlignerConfig,
        relation: &str,
        literal: bool,
        rng: &mut StdRng,
    ) -> Result<Discovery, AlignError> {
        let same_as = &config.same_as;
        let window = DISCOVERY_FACTS;
        let mut freq: BTreeMap<String, usize> = BTreeMap::new();
        let mut subjects: Vec<String> = Vec::new();
        if literal {
            let count = helpers::linked_literal_fact_count(target, relation, same_as)?;
            if count == 0 {
                return Ok(Discovery::default());
            }
            let offset = random_offset(rng, count, window);
            for (x, v, x2) in
                helpers::linked_literal_facts_page(target, relation, same_as, window, offset)?
            {
                let Some(x2) = x2.as_iri() else { continue };
                if let Some(x) = x.as_iri() {
                    if !subjects.iter().any(|s| s == x) {
                        if subjects.len() == config.sample_size {
                            break;
                        }
                        subjects.push(x.to_owned());
                    }
                }
                let Some(v) = v.as_literal() else { continue };
                for rel in relations_of_entity(source, x2)? {
                    if rel == *same_as {
                        continue;
                    }
                    let matches = objects_of(source, x2, &rel)?
                        .iter()
                        .filter_map(|o| o.as_literal())
                        .any(|lex| literals_match(lex, v));
                    if matches {
                        *freq.entry(rel).or_insert(0) += 1;
                    }
                }
            }
        } else {
            let count = helpers::linked_entity_fact_count(target, relation, same_as)?;
            if count == 0 {
                return Ok(Discovery::default());
            }
            let offset = random_offset(rng, count, window);
            for (x, _y, x2, y2) in
                helpers::linked_entity_facts_page(target, relation, same_as, window, offset)?
            {
                if let Some(x) = x.as_iri() {
                    if !subjects.iter().any(|s| s == x) {
                        subjects.push(x.to_owned());
                    }
                }
                let (Some(x2), Some(y2)) = (x2.as_iri(), y2.as_iri()) else {
                    continue;
                };
                for rel in relations_between(source, x2, y2)? {
                    if rel != *same_as {
                        *freq.entry(rel).or_insert(0) += 1;
                    }
                }
            }
        }
        Ok(Discovery {
            candidates: most_frequent_first(freq),
            target_subjects: subjects,
        })
    }

    fn conclusion_siblings(
        target: &dyn Endpoint,
        config: &AlignerConfig,
        relation: &str,
        target_subjects: &[String],
    ) -> Result<Vec<String>, AlignError> {
        let mut freq: BTreeMap<String, usize> = BTreeMap::new();
        for subject in target_subjects.iter().take(config.sample_size) {
            for rel in relations_of_entity(target, subject)? {
                if rel != relation && rel != config.same_as {
                    *freq.entry(rel).or_insert(0) += 1;
                }
            }
        }
        let mut siblings = most_frequent_first(freq);
        siblings.truncate(MAX_SIBLINGS);
        Ok(siblings)
    }

    /// The sequential rule: walk siblings, then samples, and stop at the
    /// first sample with `r(x,y₁)` known and `r(x,y₂)` not.
    fn premise_side_contradiction(
        source: &dyn Endpoint,
        target: &dyn Endpoint,
        config: &AlignerConfig,
        relation: &str,
        suspect: &str,
        premises: &[String],
    ) -> Result<bool, AlignError> {
        for sibling in premises
            .iter()
            .filter(|p| p.as_str() != suspect)
            .take(MAX_SIBLINGS)
        {
            for (xt, y1t, y2t) in helpers::linked_contrastive_subjects_page(
                source,
                sibling,
                suspect,
                &config.same_as,
                CONTRASTIVE_SAMPLES,
                0,
            )? {
                let (Some(xt), Some(y1t), Some(y2t)) = (xt.as_iri(), y1t.as_iri(), y2t.as_iri())
                else {
                    continue;
                };
                if has_fact(target, xt, relation, y1t)? && !has_fact(target, xt, relation, y2t)? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn conclusion_side_contradiction(
        source: &dyn Endpoint,
        target: &dyn Endpoint,
        config: &AlignerConfig,
        relation: &str,
        suspect: &str,
        t_siblings: &[String],
    ) -> Result<bool, AlignError> {
        for sibling in t_siblings {
            for (xs, _y1s, y2s) in helpers::linked_contrastive_subjects_page(
                target,
                relation,
                sibling,
                &config.same_as,
                CONTRASTIVE_SAMPLES,
                0,
            )? {
                let (Some(xs), Some(y2s)) = (xs.as_iri(), y2s.as_iri()) else {
                    continue;
                };
                if has_fact(source, xs, suspect, y2s)? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    pub fn prune(
        source: &dyn Endpoint,
        target: &dyn Endpoint,
        config: &AlignerConfig,
        relation: &str,
        target_subjects: &[String],
        accepted: Vec<Scored>,
    ) -> Result<Vec<Scored>, AlignError> {
        if accepted.iter().all(|c| c.literal) {
            return Ok(accepted);
        }
        let t_siblings = conclusion_siblings(target, config, relation, target_subjects)?;
        let premises: Vec<String> = accepted.iter().map(|c| c.premise.clone()).collect();
        use SamplingStrategy::*;
        let premise_side = matches!(config.strategy, Unbiased | UnbiasedPremiseOnly);
        let conclusion_side = matches!(config.strategy, Unbiased | UnbiasedConclusionOnly);
        let mut survivors = Vec::new();
        for candidate in accepted {
            let suspect = candidate.premise.as_str();
            let contradicted = !candidate.literal
                && ((premise_side
                    && premise_side_contradiction(
                        source, target, config, relation, suspect, &premises,
                    )?)
                    || (conclusion_side
                        && conclusion_side_contradiction(
                            source,
                            target,
                            config,
                            relation,
                            suspect,
                            &t_siblings,
                        )?));
            if !contradicted {
                survivors.push(candidate);
            }
        }
        Ok(survivors)
    }
}

fn accepted(premises: &[&str]) -> Vec<Scored> {
    premises
        .iter()
        .map(|premise| Scored {
            premise: (*premise).to_owned(),
            evidence: SampleEvidence::default(),
            confidence: 1.0,
            literal: false,
        })
        .collect()
}

fn premises_of(scored: &[Scored]) -> Vec<&str> {
    scored.iter().map(|s| s.premise.as_str()).collect()
}

// --- random small linked store pairs -------------------------------------

const ENTITIES: u32 = 8;
const SOURCE_RELATIONS: [&str; 4] = ["d:r0", "d:r1", "d:r2", "d:r3"];
const TARGET_RELATIONS: [&str; 3] = ["y:r0", "y:r1", "y:r2"];
const SOURCE_ATTRIBUTES: [&str; 2] = ["d:name", "d:alias"];
const TARGET_ATTRIBUTES: [&str; 2] = ["y:label", "y:nick"];

/// `(subject, relation index, object)`.
type Fact = (u32, usize, u32);

#[derive(Debug, Clone)]
struct PairSpec {
    /// Whether entity `i` carries `sameAs` links (both ways).
    linked: Vec<bool>,
    source_facts: Vec<Fact>,
    target_facts: Vec<Fact>,
    /// Literal facts; the object indexes a small pool of names that the
    /// two sides spell differently.
    source_names: Vec<Fact>,
    target_names: Vec<Fact>,
}

fn pair_spec() -> impl Strategy<Value = PairSpec> {
    let facts = |relations: usize, most: usize| {
        proptest::collection::vec((0..ENTITIES, 0..relations, 0..ENTITIES), 0..most)
    };
    (
        proptest::collection::vec(0u32..5, ENTITIES as usize..ENTITIES as usize + 1),
        facts(SOURCE_RELATIONS.len(), 70),
        facts(TARGET_RELATIONS.len(), 70),
        facts(SOURCE_ATTRIBUTES.len(), 24),
        facts(TARGET_ATTRIBUTES.len(), 24),
    )
        .prop_map(
            |(linked, source_facts, target_facts, source_names, target_names)| PairSpec {
                // Four entities in five are linked.
                linked: linked.into_iter().map(|l| l != 0).collect(),
                source_facts,
                target_facts,
                source_names,
                target_names,
            },
        )
}

fn build(spec: &PairSpec) -> (LocalEndpoint, LocalEndpoint) {
    let (mut source, mut target) = (TripleStore::new(), TripleStore::new());
    let (d, y) = (|i: u32| format!("d:E{i}"), |i: u32| format!("y:e{i}"));
    for (i, _) in spec.linked.iter().enumerate().filter(|(_, l)| **l) {
        let i = i as u32;
        source.insert_terms(&Term::iri(d(i)), &Term::iri(SA), &Term::iri(y(i)));
        target.insert_terms(&Term::iri(y(i)), &Term::iri(SA), &Term::iri(d(i)));
    }
    for (s, r, o) in &spec.source_facts {
        let relation = Term::iri(SOURCE_RELATIONS[*r]);
        source.insert_terms(&Term::iri(d(*s)), &relation, &Term::iri(d(*o)));
    }
    for (s, r, o) in &spec.target_facts {
        let relation = Term::iri(TARGET_RELATIONS[*r]);
        target.insert_terms(&Term::iri(y(*s)), &relation, &Term::iri(y(*o)));
    }
    for (s, r, name) in &spec.source_names {
        let literal = Term::literal(format!("person_number{name}"));
        source.insert_terms(
            &Term::iri(d(*s)),
            &Term::iri(SOURCE_ATTRIBUTES[*r]),
            &literal,
        );
    }
    for (s, r, name) in &spec.target_names {
        let literal = Term::literal(format!("Person Number{name}"));
        target.insert_terms(
            &Term::iri(y(*s)),
            &Term::iri(TARGET_ATTRIBUTES[*r]),
            &literal,
        );
    }
    (
        LocalEndpoint::new("source", source),
        LocalEndpoint::new("target", target),
    )
}

/// The paper's settings, and a tight variant whose sample size bites on
/// an eight-entity pair. The fixed caps are reached in
/// `every_cap_bites_as_in_the_reference`.
fn configs(seed: u64) -> [AlignerConfig; 2] {
    let paper = AlignerConfig::paper_defaults(seed);
    let tight = AlignerConfig {
        sample_size: 3,
        ..paper.clone()
    };
    [paper, tight]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_phases_equal_the_probe_at_a_time_reference(
        spec in pair_spec(),
        seed in 0u64..1000,
    ) {
        let (source, target) = build(&spec);
        for config in configs(seed) {
            let relations = TARGET_RELATIONS
                .iter()
                .map(|r| (*r, false))
                .chain(TARGET_ATTRIBUTES.iter().map(|r| (*r, true)));
            for (relation, literal) in relations {
                let found = discover(
                    &source, &target, &config, relation, literal,
                    &mut StdRng::seed_from_u64(seed),
                ).unwrap();
                let expected = reference::discover(
                    &source, &target, &config, relation, literal,
                    &mut StdRng::seed_from_u64(seed),
                ).unwrap();
                prop_assert_eq!(&found.candidates, &expected.candidates, "{}", relation);
                prop_assert_eq!(&found.target_subjects, &expected.target_subjects, "{}", relation);
                prop_assert!(found.target_subjects.len() <= DISCOVERY_FACTS);
                if literal {
                    prop_assert!(found.target_subjects.len() <= config.sample_size);
                    continue;
                }
                // Every source relation as an accepted candidate, so
                // each is a suspect with three siblings.
                let survivors = prune(
                    &source, &target, &config, relation, &found.target_subjects,
                    accepted(&SOURCE_RELATIONS),
                ).unwrap();
                let expected = reference::prune(
                    &source, &target, &config, relation, &found.target_subjects,
                    accepted(&SOURCE_RELATIONS),
                ).unwrap();
                prop_assert_eq!(premises_of(&survivors), premises_of(&expected), "{}", relation);
            }
        }
    }
}

// --- small scope, every case ---------------------------------------------

/// Every assignment of {holds, fails} to the `r(x,y₁)` and `r(x,y₂)`
/// probes of a three-sample contrastive page under each of two siblings
/// — 2¹² target KBs — gives the suspect the verdict of the sequential
/// rule: pruned iff some sample has `r(x,y₁)` known and `r(x,y₂)` not.
#[test]
fn premise_side_verdict_over_every_probe_outcome() {
    const SIBLINGS: usize = 2;
    const SAMPLES: usize = 3;
    // Source: under sibling k, subject X{k}{j} has s{k}(x, A) and
    // suspect(x, B) — a contrastive sample (x, y₁ = A, y₂ = B).
    let mut source = TripleStore::new();
    let mut link = |entity: &str| {
        let image = entity.to_lowercase().replace("d:", "y:");
        source.insert_terms(&Term::iri(entity), &Term::iri(SA), &Term::iri(image));
    };
    let mut facts = Vec::new();
    for k in 0..SIBLINGS {
        for j in 0..SAMPLES {
            let (x, a, b) = (
                format!("d:X{k}{j}"),
                format!("d:A{k}{j}"),
                format!("d:B{k}{j}"),
            );
            for entity in [&x, &a, &b] {
                link(entity);
            }
            facts.push((x.clone(), format!("d:s{k}"), a));
            facts.push((x, "d:suspect".to_owned(), b));
        }
    }
    for (s, p, o) in &facts {
        source.insert_terms(&Term::iri(s), &Term::iri(p), &Term::iri(o));
    }
    let source = LocalEndpoint::new("source", source);
    let config = AlignerConfig::paper_defaults(1);
    let candidates = ["d:suspect", "d:s0", "d:s1"];

    let probes = SIBLINGS * SAMPLES * 2;
    for outcome in 0u32..1 << probes {
        let holds = |k: usize, j: usize, second: usize| {
            outcome >> ((k * SAMPLES + j) * 2 + second) & 1 == 1
        };
        let mut target = TripleStore::new();
        let mut contradicted = false;
        for k in 0..SIBLINGS {
            for j in 0..SAMPLES {
                for (second, object) in ["a", "b"].iter().enumerate() {
                    if holds(k, j, second) {
                        target.insert_terms(
                            &Term::iri(format!("y:x{k}{j}")),
                            &Term::iri("y:r"),
                            &Term::iri(format!("y:{object}{k}{j}")),
                        );
                    }
                }
                contradicted |= holds(k, j, 0) && !holds(k, j, 1);
            }
        }
        let target = LocalEndpoint::new("target", target);
        // No target subjects: no conclusion-side siblings, so only the
        // premise side speaks.
        let survivors =
            prune(&source, &target, &config, "y:r", &[], accepted(&candidates)).unwrap();
        let expected =
            reference::prune(&source, &target, &config, "y:r", &[], accepted(&candidates)).unwrap();
        assert_eq!(
            premises_of(&survivors),
            premises_of(&expected),
            "outcome {outcome:012b}"
        );
        assert_eq!(
            !premises_of(&survivors).contains(&"d:suspect"),
            contradicted,
            "outcome {outcome:012b}"
        );
    }
}

// --- the fixed caps, each reached ------------------------------------------

/// One linked pair in which every fixed cap is reached and something lies
/// past it: `y:many` has more linked facts than `DISCOVERY_FACTS`, and
/// under each of three UBS checks the suspect's only contradiction lies
/// past `CONTRASTIVE_SAMPLES` samples or past `MAX_SIBLINGS` siblings.
/// Discovery and UBS stop where the reference stops.
#[test]
fn every_cap_bites_as_in_the_reference() {
    let (mut source_facts, mut target_facts) = (Vec::new(), Vec::new());
    let fact = |s: &str, p: &str, o: &str| (s.to_owned(), p.to_owned(), o.to_owned());
    let beyond = CONTRASTIVE_SAMPLES + 5;
    for i in 0..DISCOVERY_FACTS + 10 {
        let (s, o) = (format!("s{i:02}"), format!("o{i:02}"));
        target_facts.push(fact(&s, "y:many", &o));
        source_facts.push(fact(&s, "d:many", &o));
    }
    // Premise side, samples: `d:sib(c, a) ∧ d:sus(c, b)`; the target
    // knows `y:r(c, b)` for the first CONTRASTIVE_SAMPLES subjects only.
    for j in 0..beyond {
        let (c, a, b) = (format!("c{j:02}"), format!("a{j:02}"), format!("b{j:02}"));
        source_facts.extend([fact(&c, "d:sib", &a), fact(&c, "d:sus", &b)]);
        target_facts.push(fact(&c, "y:r", &a));
        if j < CONTRASTIVE_SAMPLES {
            target_facts.push(fact(&c, "y:r", &b));
        }
    }
    // Premise side, siblings: only the last of MAX_SIBLINGS + 1 siblings
    // of `d:sus2` has a contradicting sample.
    let siblings: Vec<String> = (0..=MAX_SIBLINGS).map(|k| format!("d:p{k}")).collect();
    for (k, sibling) in siblings.iter().enumerate() {
        let (x, u, v) = (format!("x{k}"), format!("u{k}"), format!("v{k}"));
        source_facts.extend([fact(&x, sibling, &u), fact(&x, "d:sus2", &v)]);
        target_facts.push(fact(&x, "y:r2", &u));
        if k < MAX_SIBLINGS {
            target_facts.push(fact(&x, "y:r2", &v));
        }
    }
    // Conclusion side: `y:r3`'s subject `e` has MAX_SIBLINGS + 1 sibling
    // relations; `d:sus3` holds on the last one's object only.
    target_facts.push(fact("e", "y:r3", "f"));
    for k in 0..=MAX_SIBLINGS {
        target_facts.push(fact("e", &format!("y:t{k}"), &format!("g{k}")));
    }
    source_facts.push(fact("e", "d:sus3", &format!("g{MAX_SIBLINGS}")));

    let entities: std::collections::BTreeSet<&String> = source_facts
        .iter()
        .chain(&target_facts)
        .flat_map(|(s, _, o)| [s, o])
        .collect();
    let (mut source, mut target) = (TripleStore::new(), TripleStore::new());
    for (store, facts, (mine, theirs)) in [
        (&mut source, &source_facts, ("d:", "y:")),
        (&mut target, &target_facts, ("y:", "d:")),
    ] {
        for (s, p, o) in facts {
            let [s, o] = [s, o].map(|e| Term::iri(format!("{mine}{e}")));
            store.insert_terms(&s, &Term::iri(p), &o);
        }
        for e in &entities {
            let [here, there] = [mine, theirs].map(|kb| Term::iri(format!("{kb}{e}")));
            store.insert_terms(&here, &Term::iri(SA), &there);
        }
    }
    let (source, target) = (
        LocalEndpoint::new("source", source),
        LocalEndpoint::new("target", target),
    );
    let config = AlignerConfig::paper_defaults(7);

    let found = discover(
        &source,
        &target,
        &config,
        "y:many",
        false,
        &mut StdRng::seed_from_u64(7),
    )
    .unwrap();
    let expected = reference::discover(
        &source,
        &target,
        &config,
        "y:many",
        false,
        &mut StdRng::seed_from_u64(7),
    )
    .unwrap();
    assert_eq!(found.candidates, ["d:many"]);
    assert_eq!(found.candidates, expected.candidates);
    assert_eq!(found.target_subjects, expected.target_subjects);
    assert_eq!(found.target_subjects.len(), DISCOVERY_FACTS);

    let page = |r1, r2| {
        sofya_endpoint::helpers::linked_contrastive_subjects_page(&source, r1, r2, SA, 99, 0)
    };
    assert_eq!(page("d:sib", "d:sus").unwrap().len(), beyond);
    let subjects = ["y:e".to_owned()];
    let hunted = conclusion_siblings(&target, &config, "y:r3", &subjects).unwrap();
    assert_eq!(hunted, ["y:t0", "y:t1", "y:t2", "y:t3"][..MAX_SIBLINGS]);

    let mut sus2 = vec!["d:sus2"];
    sus2.extend(siblings.iter().map(String::as_str));
    for (relation, candidates, subjects) in [
        ("y:r", &["d:sus", "d:sib"][..], &[][..]),
        ("y:r2", &sus2, &[][..]),
        ("y:r3", &["d:sus3"], &subjects),
    ] {
        let survivors = prune(
            &source,
            &target,
            &config,
            relation,
            subjects,
            accepted(candidates),
        )
        .unwrap();
        let expected = reference::prune(
            &source,
            &target,
            &config,
            relation,
            subjects,
            accepted(candidates),
        )
        .unwrap();
        assert_eq!(
            premises_of(&survivors),
            premises_of(&expected),
            "{relation}"
        );
        // The suspect's only contradiction lies past a cap.
        assert_eq!(premises_of(&survivors), candidates, "{relation}");
    }
}

// --- what the batching bought ----------------------------------------------

/// All 92 relations of the paper-scale pair, both endpoints counted: a
/// relation costs at most 15.5 requests and 20 leaf queries on average
/// (46.76 and 56.77 when every probe was its own request; 15.48 and
/// 66.03 when a batch carried one leaf per probe), and every request is
/// one query — a batched phase sends its probes as tables of at most 16
/// rows.
#[test]
fn paper_pair_costs_at_most_18_requests_per_relation() {
    let pair = sofya_kbgen::generate(&sofya_kbgen::PairConfig::yago_dbpedia(42));
    let source = InstrumentedEndpoint::new(LocalEndpoint::new("kb2", pair.kb2.clone()));
    let target = InstrumentedEndpoint::new(LocalEndpoint::new("kb1", pair.kb1.clone()));
    let aligner = Aligner::new(&source, &target, AlignerConfig::paper_defaults(42));
    assert_eq!(pair.kb1_relations.len(), 92);
    for relation in &pair.kb1_relations {
        aligner.align_relation(relation).unwrap();
    }
    let (source, target) = (source.counters(), target.counters());
    let relations = pair.kb1_relations.len() as f64;
    let requests = (source.requests() + target.requests()) as f64 / relations;
    let leaves = (source.total_queries() + target.total_queries()) as f64 / relations;
    assert!(requests <= 15.5, "{requests:.2} requests per relation");
    assert!(leaves <= 20.0, "{leaves:.2} leaf queries per relation");
    assert!(source.largest_request() <= 1 && target.largest_request() <= 1);
    // Tables are cut at 16 rows, and the paper pair fills one.
    assert!(source.largest_table() <= 16 && target.largest_table() <= 16);
    assert_eq!(source.largest_table().max(target.largest_table()), 16);
}
