//! Evaluation of *equivalence* mining (`r' ⇔ r` as double subsumption).
//!
//! Table 1 scores directional subsumptions; equivalences are the paper's
//! §2.1 end goal ("Equivalence of relations is expressed as a double
//! subsumption"). This module mines both directions, intersects them,
//! and scores against the gold's equivalent pairs.

use crate::metrics::PrecisionRecall;
use crate::runner::align_pair;
use sofya_core::{equivalences, AlignError, AlignerConfig, EquivalenceRule};
use sofya_kbgen::GeneratedPair;

/// Result of an equivalence-mining run.
#[derive(Debug, Clone)]
pub struct EquivalenceOutcome {
    /// Mined equivalences (source = KB2 relation, target = KB1 relation).
    pub mined: Vec<EquivalenceRule>,
    /// Metrics against the gold's equivalent pairs.
    pub metrics: PrecisionRecall,
}

/// Mines equivalences on a generated pair (both directions with `config`)
/// and scores them against the gold.
pub fn mine_equivalences(
    pair: &GeneratedPair,
    config: &AlignerConfig,
    threads: usize,
) -> Result<EquivalenceOutcome, AlignError> {
    let (fwd, bwd) = align_pair(pair, config, threads)?;
    let mined = equivalences(&fwd.rules, &bwd.rules);

    // Gold equivalences between the two KBs: pairs subsumed both ways.
    let gold_pairs: std::collections::BTreeSet<(String, String)> = pair
        .gold
        .subsumptions_between(pair.kb2_name(), pair.kb1_name())
        .into_iter()
        .filter(|(p, c)| pair.gold.is_subsumption(c, p))
        .collect();

    let mut tp = 0;
    let mut fp = 0;
    let mut predicted = std::collections::BTreeSet::new();
    for eq in &mined {
        if !predicted.insert((eq.source.clone(), eq.target.clone())) {
            continue;
        }
        if gold_pairs.contains(&(eq.source.clone(), eq.target.clone())) {
            tp += 1;
        } else {
            fp += 1;
        }
    }
    let fn_ = gold_pairs
        .iter()
        .filter(|pair| !predicted.contains(*pair))
        .count();

    Ok(EquivalenceOutcome {
        mined,
        metrics: PrecisionRecall::new(tp, fp, fn_),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_kbgen::{generate, PairConfig};

    #[test]
    fn equivalence_mining_scores_against_gold() {
        let pair = generate(&PairConfig::small(61));
        let out = mine_equivalences(&pair, &AlignerConfig::paper_defaults(61), 4).unwrap();
        assert!(!out.mined.is_empty(), "no equivalences mined at all");
        assert!(
            out.metrics.precision() >= 0.7,
            "equivalence precision too low: {}",
            out.metrics
        );
        assert!(
            out.metrics.recall() >= 0.4,
            "equivalence recall too low: {}",
            out.metrics
        );
    }

    #[test]
    fn ubs_equivalences_beat_sse_equivalences_in_precision() {
        let pair = generate(&PairConfig::small(62));
        let ubs = mine_equivalences(&pair, &AlignerConfig::paper_defaults(62), 4).unwrap();
        let sse = mine_equivalences(&pair, &AlignerConfig::baseline_pca(62), 4).unwrap();
        assert!(
            ubs.metrics.precision() >= sse.metrics.precision(),
            "UBS {} vs SSE {}",
            ubs.metrics,
            sse.metrics
        );
    }

    #[test]
    fn strict_subsumptions_rarely_surface_as_equivalences() {
        // Fine ⇒ coarse is planted one-directional; a mined equivalence
        // between them is the §2.2 "subsumption mistaken for equivalence"
        // trap. UBS does not eliminate it with certainty (the paper's own
        // UBS precision is 0.91–0.95), so assert the trap stays rare
        // rather than absent.
        let pair = generate(&PairConfig::small(63));
        let out = mine_equivalences(&pair, &AlignerConfig::paper_defaults(63), 4).unwrap();
        let trap_count = out
            .mined
            .iter()
            .filter(|eq| {
                pair.gold.is_subsumption(&eq.source, &eq.target)
                    && !pair.gold.is_subsumption(&eq.target, &eq.source)
            })
            .count();
        assert!(
            trap_count * 4 <= out.mined.len(),
            "{} of {} mined equivalences are strict-subsumption traps",
            trap_count,
            out.mined.len()
        );
    }
}
