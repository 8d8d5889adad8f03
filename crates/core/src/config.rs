//! Aligner configuration: what the paper varies, the method and the
//! sample size, is an [`AlignerConfig`]; every other bound is a constant.

/// Minimum number of evidence pairs in a confidence's denominator, all
/// sampled pairs under CWA and the PCA-known ones under PCA, for a rule
/// to be considered at all (guards against single-fact coincidences).
pub const MIN_SUPPORT: usize = 2;

/// Facts fetched from the target relation during candidate discovery.
pub const DISCOVERY_FACTS: usize = 40;

/// Contrastive subjects checked per sibling pair in UBS.
pub const CONTRASTIVE_SAMPLES: usize = 20;

/// Maximum sibling relations tried per rule in UBS, on either side.
pub const MAX_SIBLINGS: usize = 4;

/// Which confidence measure validates candidate rules (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConfidenceMeasure {
    /// Closed-world confidence (Eq. 1): every absent fact is a
    /// counter-example.
    Cwa,
    /// Partial-completeness confidence (Eq. 2, from AMIE): only subjects
    /// whose `r`-attributes are known contribute counter-examples.
    #[default]
    Pca,
}

/// Which sampling strategy feeds the measure (§2.2).
///
/// The two `Unbiased…Only` variants are ablations: UBS with one of its
/// two contrastive checks, to show that each is needed
/// (`sofya-eval frontier`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// Simple Sample Extraction: pseudo-random linked facts.
    #[default]
    Simple,
    /// Unbiased Sample Extraction: Simple plus contrastive-sample
    /// pruning on both sides; one contradiction eliminates a rule.
    Unbiased,
    /// UBS with only the premise-side check (the *overlap* trap filter,
    /// e.g. `hasProducer ⇒ directedBy`).
    UnbiasedPremiseOnly,
    /// UBS with only the conclusion-side check (the *equivalence* trap
    /// filter, e.g. `creatorOf ⇒ composerOf`).
    UnbiasedConclusionOnly,
}

/// Configuration of an [`crate::Aligner`]: the method (measure,
/// strategy and τ), the sample size, the `sameAs` predicate and the
/// seed. [`AlignerConfig::paper_defaults`], [`AlignerConfig::baseline_pca`]
/// and [`AlignerConfig::baseline_cwa`] are the three rows of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignerConfig {
    /// Number of sample *subjects* per validation (the paper evaluates
    /// with 10).
    pub sample_size: usize,
    /// Confidence measure.
    pub measure: ConfidenceMeasure,
    /// Sampling strategy.
    pub strategy: SamplingStrategy,
    /// Acceptance threshold τ: rules with confidence > τ are emitted.
    pub tau: f64,
    /// `sameAs` predicate IRI.
    pub same_as: String,
    /// Seed for pseudo-random sample offsets.
    pub seed: u64,
}

impl AlignerConfig {
    /// The paper's evaluation settings: 10 sample subjects, PCA + UBS,
    /// τ = 0.3.
    pub fn paper_defaults(seed: u64) -> Self {
        Self {
            sample_size: 10,
            measure: ConfidenceMeasure::Pca,
            strategy: SamplingStrategy::Unbiased,
            tau: 0.3,
            same_as: "http://www.w3.org/2002/07/owl#sameAs".to_owned(),
            seed,
        }
    }

    /// The SSE + pcaconf baseline row of Table 1 (τ > 0.3).
    pub fn baseline_pca(seed: u64) -> Self {
        Self {
            strategy: SamplingStrategy::Simple,
            ..Self::paper_defaults(seed)
        }
    }

    /// The SSE + cwaconf baseline row of Table 1 (τ > 0.1).
    pub fn baseline_cwa(seed: u64) -> Self {
        Self {
            strategy: SamplingStrategy::Simple,
            measure: ConfidenceMeasure::Cwa,
            tau: 0.1,
            ..Self::paper_defaults(seed)
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), crate::AlignError> {
        if self.sample_size == 0 {
            return Err(crate::AlignError::Config(
                "sample_size must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.tau) {
            return Err(crate::AlignError::Config(
                "tau must be within [0, 1]".into(),
            ));
        }
        if self.same_as.is_empty() {
            return Err(crate::AlignError::Config("same_as IRI must be set".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3() {
        let c = AlignerConfig::paper_defaults(0);
        assert_eq!(c.sample_size, 10);
        assert_eq!(c.measure, ConfidenceMeasure::Pca);
        assert_eq!(c.strategy, SamplingStrategy::Unbiased);
        assert!((c.tau - 0.3).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn baselines_use_simple_sampling() {
        assert_eq!(
            AlignerConfig::baseline_pca(0).strategy,
            SamplingStrategy::Simple
        );
        assert_eq!(
            AlignerConfig::baseline_cwa(0).strategy,
            SamplingStrategy::Simple
        );
        assert!((AlignerConfig::baseline_cwa(0).tau - 0.1).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut c = AlignerConfig::paper_defaults(0);
        c.sample_size = 0;
        assert!(c.validate().is_err());
        let mut c = AlignerConfig::paper_defaults(0);
        c.tau = 1.5;
        assert!(c.validate().is_err());
        let mut c = AlignerConfig::paper_defaults(0);
        c.same_as = String::new();
        assert!(c.validate().is_err());
    }
}
