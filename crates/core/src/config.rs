//! Aligner configuration.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// Simple Sample Extraction: pseudo-random linked facts.
    #[default]
    Simple,
    /// Unbiased Sample Extraction: Simple plus contrastive-sample
    /// pruning; one contradiction eliminates a rule.
    Unbiased,
}

/// Configuration of an [`crate::Aligner`].
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
    /// Minimum number of evidence pairs for a rule to be considered at
    /// all (guards against single-fact coincidences).
    pub min_support: usize,
    /// Facts fetched from the target relation during candidate discovery.
    pub discovery_facts: usize,
    /// Contrastive subjects checked per sibling pair in UBS.
    pub contrastive_samples: usize,
    /// Maximum sibling relations tried per rule in UBS (both sides).
    pub max_siblings: usize,
    /// Enable UBS's premise-side contrastive check (the *overlap* trap
    /// filter, e.g. `hasProducer ⇒ directedBy`). Ablation knob; on by
    /// default.
    pub ubs_premise_side: bool,
    /// Enable UBS's conclusion-side contrastive check (the *equivalence*
    /// trap filter, e.g. `creatorOf ⇒ composerOf`). Ablation knob; on by
    /// default.
    pub ubs_conclusion_side: bool,
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
            min_support: 2,
            discovery_facts: 40,
            contrastive_samples: 20,
            max_siblings: 4,
            ubs_premise_side: true,
            ubs_conclusion_side: true,
            same_as: "http://www.w3.org/2002/07/owl#sameAs".to_owned(),
            seed,
        }
    }

    /// The SSE + pcaconf baseline row of Table 1 (τ > 0.3).
    pub fn baseline_pca(seed: u64) -> Self {
        Self {
            strategy: SamplingStrategy::Simple,
            measure: ConfidenceMeasure::Pca,
            tau: 0.3,
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
        if self.discovery_facts == 0 {
            return Err(crate::AlignError::Config(
                "discovery_facts must be positive".into(),
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
        let mut c = AlignerConfig::paper_defaults(0);
        c.discovery_facts = 0;
        assert!(c.validate().is_err());
    }
}
