//! Unbiased Sample Extraction (§2.2): contrastive pruning of wrong rules.
//!
//! After the PCA baseline accepts a candidate set for a target relation
//! `r`, UBS hunts for **contradicting samples**. "To eliminate a 'wrong'
//! relation we need only one case which shows that there is a
//! contradiction" (§3). Two sibling constructions supply the samples:
//!
//! * **Premise-side** (the *overlap* trap, `hasProducer ⇒ directedBy`):
//!   take a sibling candidate `s` of the suspect `p` in the source KB and
//!   sample `x` with `s(x,y₁) ∧ p(x,y₂) ∧ ¬s(x,y₂)`. If the target knows
//!   `r(x,y₁)` but not `r(x,y₂)`, the pair `(x,y₂)` is a PCA
//!   counter-example to `p ⇒ r` — prune `p`.
//! * **Conclusion-side** (the *equivalence* trap,
//!   `creatorOf ⇒ composerOf`): take a sibling `t` of `r` in the target
//!   KB sharing `r`'s subjects and sample `x` with
//!   `r(x,y₁) ∧ t(x,y₂) ∧ ¬r(x,y₂)`. If the source knows `p(x,y₂)`, then
//!   `p` holds where `r` is known to fail — prune `p ⇒ r`.

use crate::aligner::Scored;
use crate::config::AlignerConfig;
use crate::discovery::most_frequent_first;
use crate::error::AlignError;
use sofya_endpoint::helpers;
use sofya_endpoint::Endpoint;
use sofya_rdf::Term;

/// Finds conclusion-side siblings of `r`: target relations co-occurring
/// on `r`'s sampled subjects, most frequent first (excluding `r` itself
/// and `sameAs`).
pub fn conclusion_siblings(
    target: &dyn Endpoint,
    config: &AlignerConfig,
    relation: &str,
    target_subjects: &[String],
) -> Result<Vec<String>, AlignError> {
    let subjects: Vec<&str> = target_subjects
        .iter()
        .take(config.sample_size)
        .map(String::as_str)
        .collect();
    let mut siblings = most_frequent_first(
        helpers::relations_of_entity_batch(target, &subjects)?
            .into_iter()
            .flatten()
            .filter(|rel| rel != relation && *rel != config.same_as),
    );
    siblings.truncate(config.max_siblings);
    Ok(siblings)
}

/// One page of contrastive samples `(x, y₁, y₂)`, translated.
type ContrastivePage = Vec<(Term, Term, Term)>;

/// Applies UBS pruning to the accepted candidates of `relation`.
///
/// Returns the surviving candidates (order preserved). Literal rules are
/// returned untouched: their objects carry no `sameAs` links, so the
/// contrastive constructions do not apply.
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
    // A conclusion-side page depends on `relation` and the sibling, not
    // on the candidate: each is fetched when the first candidate gets as
    // far as its sibling, and kept for the others.
    let mut t_pages: Vec<(&str, Option<ContrastivePage>)> =
        t_siblings.iter().map(|s| (s.as_str(), None)).collect();

    let mut survivors = Vec::with_capacity(accepted.len());
    for candidate in accepted {
        if candidate.literal {
            survivors.push(candidate);
            continue;
        }
        let contradicted = (config.ubs_premise_side
            && premise_side_contradiction(
                source,
                target,
                config,
                relation,
                &candidate.premise,
                &premises,
            )?)
            || (config.ubs_conclusion_side
                && conclusion_side_contradiction(
                    source,
                    target,
                    config,
                    relation,
                    &candidate.premise,
                    &mut t_pages,
                )?);
        if !contradicted {
            survivors.push(candidate);
        }
    }
    Ok(survivors)
}

/// Premise-side check: siblings are the *other* accepted candidates.
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
        .take(config.max_siblings)
    {
        let page = helpers::linked_contrastive_subjects_page(
            source,
            sibling,
            suspect,
            &config.same_as,
            config.contrastive_samples,
            0,
        )?;
        let samples: Vec<(&str, &str, &str)> = page
            .iter()
            .filter_map(|(xt, y1t, y2t)| Some((xt.as_iri()?, y1t.as_iri()?, y2t.as_iri()?)))
            .collect();
        // r(x,y₁) holds and r(x,y₂) does not: (x,y₂) is a PCA
        // counter-example to suspect ⇒ r. One query asks it of the page.
        if helpers::premise_contradiction_batch(target, relation, &samples)?.contains(&true) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Conclusion-side check: siblings of `r` in the target KB.
fn conclusion_side_contradiction(
    source: &dyn Endpoint,
    target: &dyn Endpoint,
    config: &AlignerConfig,
    relation: &str,
    suspect: &str,
    t_pages: &mut [(&str, Option<ContrastivePage>)],
) -> Result<bool, AlignError> {
    for (sibling, page) in t_pages {
        let page = match page {
            Some(page) => page,
            None => page.insert(helpers::linked_contrastive_subjects_page(
                target,
                relation,
                sibling,
                &config.same_as,
                config.contrastive_samples,
                0,
            )?),
        };
        // The contrastive sample certifies r(x,y₁) ∧ ¬r(x,y₂). If the
        // suspect premise holds on (x,y₂), the rule suspect ⇒ r has a
        // counter-example.
        let pairs: Vec<(&str, &str)> = page
            .iter()
            .filter_map(|(xs, _y1s, y2s)| Some((xs.as_iri()?, y2s.as_iri()?)))
            .collect();
        if helpers::has_fact_batch(source, suspect, &pairs)?.contains(&true) {
            return Ok(true);
        }
    }
    Ok(false)
}
