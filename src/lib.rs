//! # sofya
//!
//! Facade crate re-exporting the whole SOFYA workspace: an implementation
//! of *"SOFYA: Semantic on-the-fly Relation Alignment"* (Koutraki, Preda,
//! Vodislav — EDBT 2016) together with the substrates it runs on.
//!
//! Most users want [`sofya_core`] (the aligner), [`sofya_kbgen`] (synthetic
//! KB pairs with ground truth), and [`sofya_eval`] (Table-1 style
//! experiments). See the `examples/` directory for runnable walkthroughs.

#![forbid(unsafe_code)]

pub use sofya_core as align;
pub use sofya_durability as durability;
pub use sofya_endpoint as endpoint;
pub use sofya_eval as eval;
pub use sofya_kbgen as kbgen;
pub use sofya_net as net;
pub use sofya_rdf as rdf;
pub use sofya_service as service;
pub use sofya_sparql as sparql;
pub use sofya_stream as stream;
pub use sofya_textsim as textsim;
