//! The alignment orchestrator.

use crate::confidence::{cwaconf, pcaconf, SampleEvidence};
use crate::config::{AlignerConfig, ConfidenceMeasure, SamplingStrategy};
use crate::discovery;
use crate::error::AlignError;
use crate::evidence;
use crate::rule::SubsumptionRule;
use crate::unbiased;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sofya_endpoint::helpers;
use sofya_endpoint::Endpoint;

/// A scored candidate during alignment (internal to the pipeline; public
/// within the crate so `unbiased` can filter it).
#[derive(Debug, Clone)]
pub struct Scored {
    /// Candidate premise relation (source KB).
    pub premise: String,
    /// Evidence sample.
    pub evidence: SampleEvidence,
    /// Confidence under the configured measure.
    pub confidence: f64,
    /// Whether this was validated through the literal path.
    pub literal: bool,
}

/// Aligns relations of a *target* KB `K` against a *source* KB `K'`,
/// on the fly, through their endpoints only.
pub struct Aligner<'a> {
    source: &'a dyn Endpoint,
    target: &'a dyn Endpoint,
    config: AlignerConfig,
}

impl<'a> Aligner<'a> {
    /// Creates an aligner. `source` is `K'` (where premises live),
    /// `target` is `K` (whose relations get aligned).
    pub fn new(source: &'a dyn Endpoint, target: &'a dyn Endpoint, config: AlignerConfig) -> Self {
        Self {
            source,
            target,
            config,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AlignerConfig {
        &self.config
    }

    /// Deterministic per-relation RNG: same seed + relation → same
    /// samples, regardless of alignment order.
    fn relation_rng(&self, relation: &str) -> StdRng {
        use std::hash::{Hash, Hasher};
        let mut h = sofya_rdf::dict::FnvHasher::default();
        relation.hash(&mut h);
        StdRng::seed_from_u64(self.config.seed ^ h.finish())
    }

    /// Aligns one target relation: returns all accepted subsumption rules
    /// `r' ⇒ relation` with `r'` from the source KB, best first.
    pub fn align_relation(&self, relation: &str) -> Result<Vec<SubsumptionRule>, AlignError> {
        self.config.validate()?;
        if relation == self.config.same_as {
            return Ok(Vec::new());
        }
        let mut rng = self.relation_rng(relation);
        let is_literal = discovery::relation_is_literal(self.target, relation)?;
        let found = discovery::discover(
            self.source,
            self.target,
            &self.config,
            relation,
            is_literal,
            &mut rng,
        )?;

        // Validate every candidate on its own sample.
        let mut scored: Vec<Scored> = Vec::new();
        for premise in &found.candidates {
            let ev = if is_literal {
                evidence::literal_evidence(
                    self.source,
                    self.target,
                    &self.config,
                    premise,
                    relation,
                    &mut rng,
                )?
            } else {
                evidence::entity_evidence(
                    self.source,
                    self.target,
                    &self.config,
                    premise,
                    relation,
                    &mut rng,
                )?
            };
            if ev.total() < self.config.min_support {
                continue;
            }
            // Under PCA, confidence is estimated over the PCA-known pairs
            // only; a single known pair makes any coincidence score 1.0,
            // so the support floor applies to the denominator too.
            if self.config.measure == ConfidenceMeasure::Pca
                && ev.pca_known() < self.config.min_support
            {
                continue;
            }
            let confidence = match self.config.measure {
                ConfidenceMeasure::Cwa => cwaconf(&ev),
                ConfidenceMeasure::Pca => pcaconf(&ev),
            };
            if confidence > self.config.tau {
                scored.push(Scored {
                    premise: premise.clone(),
                    evidence: ev,
                    confidence,
                    literal: is_literal,
                });
            }
        }

        // UBS: one contradiction eliminates a rule.
        if self.config.strategy == SamplingStrategy::Unbiased {
            scored = unbiased::prune(
                self.source,
                self.target,
                &self.config,
                relation,
                &found.target_subjects,
                scored,
            )?;
        }

        scored.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.premise.cmp(&b.premise))
        });
        Ok(scored
            .into_iter()
            .map(|s| SubsumptionRule {
                premise: s.premise,
                conclusion: relation.to_owned(),
                confidence: s.confidence,
                support: s.evidence.support(),
                sample_pairs: s.evidence.total(),
                measure: self.config.measure,
                literal: s.literal,
            })
            .collect())
    }

    /// Relations of the target KB eligible for alignment (everything but
    /// `sameAs`).
    pub fn target_relations(&self) -> Result<Vec<String>, AlignError> {
        Ok(helpers::all_relations(self.target)?
            .into_iter()
            .filter(|r| r != &self.config.same_as)
            .collect())
    }

    /// Aligns every relation of the target KB sequentially. (The eval
    /// crate provides a parallel runner.)
    pub fn align_all(&self) -> Result<Vec<SubsumptionRule>, AlignError> {
        let mut rules = Vec::new();
        for relation in self.target_relations()? {
            rules.extend(self.align_relation(&relation)?);
        }
        Ok(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::equivalences;
    use sofya_endpoint::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};

    const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

    fn link(a: &mut TripleStore, b: &mut TripleStore, ea: &str, eb: &str) {
        a.insert_terms(&Term::iri(ea), &Term::iri(SA), &Term::iri(eb));
        b.insert_terms(&Term::iri(eb), &Term::iri(SA), &Term::iri(ea));
    }

    /// The paper's movie example: K (yago) has `directedBy`; K' (dbp) has
    /// `hasDirector` (equivalent) and `hasProducer` (overlapping: most
    /// directors also produce, but producers are often not directors).
    fn movie_scenario() -> (LocalEndpoint, LocalEndpoint) {
        let mut yago = TripleStore::new();
        let mut dbp = TripleStore::new();
        for i in 0..12 {
            let (my, md) = (format!("y:m{i}"), format!("d:M{i}"));
            let (dir_y, dir_d) = (format!("y:dir{i}"), format!("d:Dir{i}"));
            let (pr_y, pr_d) = (format!("y:pr{i}"), format!("d:Pr{i}"));
            link(&mut yago, &mut dbp, &my, &md);
            link(&mut yago, &mut dbp, &dir_y, &dir_d);
            link(&mut yago, &mut dbp, &pr_y, &pr_d);
            // Ground truth: every movie has exactly one director...
            yago.insert_terms(
                &Term::iri(&my),
                &Term::iri("y:directedBy"),
                &Term::iri(&dir_y),
            );
            dbp.insert_terms(
                &Term::iri(&md),
                &Term::iri("d:hasDirector"),
                &Term::iri(&dir_d),
            );
            // ...who also produces 2/3 of the time (the overlap trap)...
            if i % 3 != 0 {
                dbp.insert_terms(
                    &Term::iri(&md),
                    &Term::iri("d:hasProducer"),
                    &Term::iri(&dir_d),
                );
            }
            // ...plus a dedicated producer who directs nothing.
            dbp.insert_terms(
                &Term::iri(&md),
                &Term::iri("d:hasProducer"),
                &Term::iri(&pr_d),
            );
        }
        (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        )
    }

    #[test]
    fn sse_pca_falls_for_the_producer_trap() {
        let (dbp, yago) = movie_scenario();
        let aligner = Aligner::new(&dbp, &yago, AlignerConfig::baseline_pca(5));
        let rules = aligner.align_relation("y:directedBy").unwrap();
        let premises: Vec<&str> = rules.iter().map(|r| r.premise.as_str()).collect();
        assert!(
            premises.contains(&"d:hasDirector"),
            "true rule must be found: {premises:?}"
        );
        assert!(
            premises.contains(&"d:hasProducer"),
            "the SSE baseline should accept the overlap trap: {premises:?}"
        );
    }

    #[test]
    fn ubs_prunes_the_producer_trap_and_keeps_the_truth() {
        let (dbp, yago) = movie_scenario();
        let aligner = Aligner::new(&dbp, &yago, AlignerConfig::paper_defaults(5));
        let rules = aligner.align_relation("y:directedBy").unwrap();
        let premises: Vec<&str> = rules.iter().map(|r| r.premise.as_str()).collect();
        assert_eq!(
            premises,
            vec!["d:hasDirector"],
            "UBS must keep exactly the true rule"
        );
    }

    /// The paper's creator example: K' (yago side of this direction) has
    /// the coarse `creatorOf`; K (dbp) has `composerOf` and `writerOf`.
    /// Every creator here both composes and writes, so a simple sample of
    /// `creatorOf` always mixes objects — yet half of each subject's
    /// creations are compositions, so pcaconf(creatorOf ⇒ composerOf) =
    /// 0.5 > τ and SSE wrongly accepts the reverse direction.
    fn creator_scenario() -> (LocalEndpoint, LocalEndpoint) {
        let mut yago = TripleStore::new();
        let mut dbp = TripleStore::new();
        for i in 0..10 {
            let (py, pd) = (format!("y:p{i}"), format!("d:P{i}"));
            let (song_y, song_d) = (format!("y:song{i}"), format!("d:Song{i}"));
            let (book_y, book_d) = (format!("y:book{i}"), format!("d:Book{i}"));
            link(&mut yago, &mut dbp, &py, &pd);
            link(&mut yago, &mut dbp, &song_y, &song_d);
            link(&mut yago, &mut dbp, &book_y, &book_d);
            yago.insert_terms(
                &Term::iri(&py),
                &Term::iri("y:creatorOf"),
                &Term::iri(&song_y),
            );
            yago.insert_terms(
                &Term::iri(&py),
                &Term::iri("y:creatorOf"),
                &Term::iri(&book_y),
            );
            dbp.insert_terms(
                &Term::iri(&pd),
                &Term::iri("d:composerOf"),
                &Term::iri(&song_d),
            );
            dbp.insert_terms(
                &Term::iri(&pd),
                &Term::iri("d:writerOf"),
                &Term::iri(&book_d),
            );
        }
        (
            LocalEndpoint::new("dbp", dbp),
            LocalEndpoint::new("yago", yago),
        )
    }

    #[test]
    fn sse_pca_falls_for_the_creator_equivalence_trap() {
        let (dbp, yago) = creator_scenario();
        // Direction yago ⊂ dbpd: premises in yago, conclusions in dbp.
        let aligner = Aligner::new(&yago, &dbp, AlignerConfig::baseline_pca(5));
        let rules = aligner.align_relation("d:composerOf").unwrap();
        assert!(
            rules.iter().any(|r| r.premise == "y:creatorOf"),
            "SSE should wrongly accept creatorOf ⇒ composerOf: {rules:?}"
        );
    }

    #[test]
    fn ubs_prunes_the_creator_equivalence_trap() {
        let (dbp, yago) = creator_scenario();
        let aligner = Aligner::new(&yago, &dbp, AlignerConfig::paper_defaults(5));
        let rules = aligner.align_relation("d:composerOf").unwrap();
        assert!(
            rules.iter().all(|r| r.premise != "y:creatorOf"),
            "UBS must prune creatorOf ⇒ composerOf: {rules:?}"
        );
    }

    #[test]
    fn true_subsumptions_survive_ubs_in_the_forward_direction() {
        let (dbp, yago) = creator_scenario();
        // Direction dbp ⊂ yago: composerOf ⇒ creatorOf is true and must
        // survive pruning.
        let aligner = Aligner::new(&dbp, &yago, AlignerConfig::paper_defaults(5));
        let rules = aligner.align_relation("y:creatorOf").unwrap();
        let premises: Vec<&str> = rules.iter().map(|r| r.premise.as_str()).collect();
        assert!(premises.contains(&"d:composerOf"), "{premises:?}");
        assert!(premises.contains(&"d:writerOf"), "{premises:?}");
    }

    #[test]
    fn equivalence_mining_via_double_subsumption() {
        let (dbp, yago) = movie_scenario();
        let fwd = Aligner::new(&dbp, &yago, AlignerConfig::paper_defaults(5))
            .align_all()
            .unwrap();
        let bwd = Aligner::new(&yago, &dbp, AlignerConfig::paper_defaults(5))
            .align_all()
            .unwrap();
        let eqs = equivalences(&fwd, &bwd);
        assert!(eqs
            .iter()
            .any(|e| e.source == "d:hasDirector" && e.target == "y:directedBy"));
        assert!(eqs.iter().all(|e| e.source != "d:hasProducer"));
    }

    #[test]
    fn align_relation_of_same_as_is_empty() {
        let (dbp, yago) = movie_scenario();
        let aligner = Aligner::new(&dbp, &yago, AlignerConfig::paper_defaults(5));
        assert!(aligner.align_relation(SA).unwrap().is_empty());
    }

    #[test]
    fn target_relations_excludes_same_as() {
        let (dbp, yago) = movie_scenario();
        let aligner = Aligner::new(&dbp, &yago, AlignerConfig::paper_defaults(5));
        let rels = aligner.target_relations().unwrap();
        assert!(rels.iter().all(|r| r != SA));
        assert!(rels.contains(&"y:directedBy".to_owned()));
    }

    #[test]
    fn alignment_is_deterministic_per_seed() {
        let (dbp, yago) = movie_scenario();
        let a = Aligner::new(&dbp, &yago, AlignerConfig::paper_defaults(9))
            .align_relation("y:directedBy")
            .unwrap();
        let b = Aligner::new(&dbp, &yago, AlignerConfig::paper_defaults(9))
            .align_relation("y:directedBy")
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (dbp, yago) = movie_scenario();
        let mut cfg = AlignerConfig::paper_defaults(1);
        cfg.sample_size = 0;
        let aligner = Aligner::new(&dbp, &yago, cfg);
        assert!(matches!(
            aligner.align_relation("y:directedBy"),
            Err(AlignError::Config(_))
        ));
    }
}
