//! The threshold sweep: how the paper picked its thresholds τ.

use crate::metrics::{evaluate_rules, PrecisionRecall};
use crate::runner::align_pair;
use sofya_core::{AlignError, AlignerConfig};
use sofya_kbgen::GeneratedPair;

/// One point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value at this point.
    pub x: f64,
    /// Metrics in the `kb2 ⊂ kb1` direction (DBpedia-like premises).
    pub forward: PrecisionRecall,
    /// Metrics in the `kb1 ⊂ kb2` direction (YAGO-like premises).
    pub backward: PrecisionRecall,
}

impl SweepPoint {
    /// Mean F1 over both directions — the paper's τ-selection criterion.
    pub fn mean_f1(&self) -> f64 {
        (self.forward.f1() + self.backward.f1()) / 2.0
    }
}

/// Runs both directions once with `tau = 0` and re-thresholds the scored
/// rules post-hoc for every τ in `taus`.
///
/// This reproduces the paper's τ-selection protocol ("we have selected
/// the thresholds τ that led to the highest average F1 score for both
/// ways implications") without re-sampling per threshold. Only meaningful
/// for the SSE strategies; UBS prunes by contradiction, not threshold.
pub fn threshold_sweep(
    pair: &GeneratedPair,
    base: &AlignerConfig,
    taus: &[f64],
    threads: usize,
) -> Result<Vec<SweepPoint>, AlignError> {
    let mut config = base.clone();
    config.tau = 0.0;
    let (fwd, bwd) = align_pair(pair, &config, threads)?;

    Ok(taus
        .iter()
        .map(|&tau| {
            let f: Vec<_> = fwd
                .rules
                .iter()
                .filter(|r| r.confidence > tau)
                .cloned()
                .collect();
            let b: Vec<_> = bwd
                .rules
                .iter()
                .filter(|r| r.confidence > tau)
                .cloned()
                .collect();
            SweepPoint {
                x: tau,
                forward: evaluate_rules(&f, &pair.gold, pair.kb2_name(), pair.kb1_name()),
                backward: evaluate_rules(&b, &pair.gold, pair.kb1_name(), pair.kb2_name()),
            }
        })
        .collect())
}

/// Returns the τ with the highest mean F1 from a sweep.
pub fn best_tau(points: &[SweepPoint]) -> Option<f64> {
    points
        .iter()
        .max_by(|a, b| {
            a.mean_f1()
                .partial_cmp(&b.mean_f1())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|p| p.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_kbgen::{generate, PairConfig};

    #[test]
    fn threshold_sweep_is_monotone_in_prediction_count() {
        let pair = generate(&PairConfig::tiny(31));
        let base = AlignerConfig::baseline_pca(31);
        let points = threshold_sweep(&pair, &base, &[0.1, 0.5, 0.9], 2).unwrap();
        assert_eq!(points.len(), 3);
        // Higher τ can only drop predictions: tp+fp must not increase.
        let count = |p: &SweepPoint| {
            p.forward.true_positives
                + p.forward.false_positives
                + p.backward.true_positives
                + p.backward.false_positives
        };
        assert!(count(&points[0]) >= count(&points[1]));
        assert!(count(&points[1]) >= count(&points[2]));
    }

    #[test]
    fn best_tau_picks_max_mean_f1() {
        let mk = |x: f64, tp: usize, fp: usize| SweepPoint {
            x,
            forward: PrecisionRecall::new(tp, fp, 1),
            backward: PrecisionRecall::new(tp, fp, 1),
        };
        let points = vec![mk(0.1, 1, 5), mk(0.3, 4, 1), mk(0.5, 2, 0)];
        assert_eq!(best_tau(&points), Some(0.3));
        assert_eq!(best_tau(&[]), None);
    }
}
