//! # sofya-core
//!
//! The SOFYA relation-alignment algorithms from *"SOFYA: Semantic
//! on-the-fly Relation Alignment"* (Koutraki, Preda, Vodislav — EDBT
//! 2016).
//!
//! Given two knowledge bases reachable only through SPARQL endpoints — a
//! target `K` and a source `K'` — and a relation `r` of `K`, the
//! [`Aligner`] finds relations `r'` of `K'` with `r' ⇒ r` (subsumption),
//! using only small samples:
//!
//! 1. **Candidate discovery** (§2.1): sample `sameAs`-linked facts
//!    `r(x, y)` from `K`, translate the pairs into `K'`, and take every
//!    relation holding on a translated pair as a candidate.
//! 2. **Rule validation** (§2.1): score each candidate with an
//!    association-rule confidence over a sample of its own facts —
//!    [`confidence::cwaconf`] (closed-world, Eq. 1) or
//!    [`confidence::pcaconf`] (partial-completeness, Eq. 2).
//! 3. **Sampling strategy** (§2.2): *Simple Sample Extraction* draws a
//!    pseudo-random page of linked facts; *Unbiased Sample Extraction*
//!    (UBS) additionally hunts for **contrastive** subjects — `x` with
//!    `r'(x,y₁) ∧ r''(x,y₂) ∧ ¬r'(x,y₂)` — whose translated facts can
//!    contradict a wrong rule. One contradiction prunes the rule.
//!
//! Entity–literal relations are aligned through
//! [`sofya_textsim::literals_match`] instead of `sameAs` joins.
//! Equivalence `r' ⇔ r` is double subsumption
//! ([`rule::equivalences`]).
//!
//! ```no_run
//! use sofya_core::{Aligner, AlignerConfig};
//! use sofya_endpoint::LocalEndpoint;
//! # let kb1 = sofya_rdf::TripleStore::new();
//! # let kb2 = sofya_rdf::TripleStore::new();
//!
//! let target = LocalEndpoint::new("yago", kb1);      // K
//! let source = LocalEndpoint::new("dbpedia", kb2);   // K'
//! let config = AlignerConfig::paper_defaults(42);
//! let aligner = Aligner::new(&source, &target, config);
//! let rules = aligner.align_relation("http://yago.sim/rel/hasChild").unwrap();
//! for rule in &rules {
//!     println!("{} ⇒ {} ({:.2})", rule.premise, rule.conclusion, rule.confidence);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod aligner;
pub mod confidence;
pub mod config;
pub mod discovery;
pub mod error;
pub mod evidence;
pub mod footprint;
mod memo;
pub mod rewrite;
pub mod rule;
pub mod session;
pub mod unbiased;

pub use aligner::Aligner;
pub use confidence::{cwaconf, pcaconf, PairEvidence, SampleEvidence};
pub use config::{AlignerConfig, ConfidenceMeasure, SamplingStrategy};
pub use error::AlignError;
pub use footprint::{DeltaView, EvidenceFootprint, SideFootprint};
pub use rewrite::{QueryRewriter, Rewrite, RewriteError};
pub use rule::{equivalences, EquivalenceRule, SubsumptionRule};
pub use session::AlignmentSession;
