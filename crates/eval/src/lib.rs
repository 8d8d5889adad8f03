//! # sofya-eval
//!
//! Evaluation harness for the SOFYA reproduction.
//!
//! Everything the paper's Section 3 does — and everything the experiment
//! index in `sofya-eval --help` adds — runs through this crate:
//!
//! * [`metrics`] — precision / recall / F1 of predicted subsumption rules
//!   against the generator's world-level gold;
//! * [`runner`] — an "align every relation" driver fanned out over
//!   scoped threads, with both stores behind instrumented endpoints so
//!   each run reports its query costs alongside its rules;
//! * [`table1`] — the Table 1 experiment: three method rows
//!   (pcaconf-SSE τ>0.3, cwaconf-SSE τ>0.1, UBS-pcaconf) × two directions
//!   (`yago ⊂ dbpd`, `dbpd ⊂ yago`);
//! * [`sweep`] — the threshold sweep (how the paper picked τ); the
//!   frontier of quality and cost against sample size, and the
//!   generator sweeps, run in the `sofya-eval` binary;
//! * [`report`] — fixed-width ASCII tables for terminal output.

#![forbid(unsafe_code)]

pub mod equivalence;
pub mod metrics;
pub mod multiseed;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod table1;

pub use equivalence::{mine_equivalences, EquivalenceOutcome};
pub use metrics::{evaluate_rules, PrecisionRecall};
pub use multiseed::{table1_over_seeds, Aggregate, AggregatedRow};
pub use runner::{align_direction, align_pair, DirectionOutcome};
pub use sweep::{threshold_sweep, SweepPoint};
pub use table1::{run_table1, MethodRow, Table1Result};
