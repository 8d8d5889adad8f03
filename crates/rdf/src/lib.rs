//! # sofya-rdf
//!
//! An in-memory, dictionary-encoded RDF triple store.
//!
//! This crate is the storage substrate for the SOFYA relation-alignment
//! system (Koutraki, Preda, Vodislav — EDBT 2016). SOFYA assumes each
//! knowledge base is reachable only through a SPARQL endpoint; the endpoint
//! in this reproduction is backed by the [`TripleStore`] defined here.
//!
//! ## Design
//!
//! * RDF terms ([`Term`]) are interned into `u32` identifiers by a
//!   [`Dict`] so triples are three machine words and join keys compare as
//!   integers.
//! * The store keeps three *flat sorted* permutation indexes (SPO, POS,
//!   OSP — plain `Vec`s, binary-search prefix bounds) so every
//!   triple-pattern shape resolves to a contiguous, zero-allocation range
//!   scan and an O(log n) exact cardinality
//!   ([`TripleStore::count_pattern`]). Inserts and removals land in small
//!   sorted buffers applied on a threshold or at publish time, and
//!   published snapshots share every run and dictionary segment the
//!   writer has not replaced since (cost model: [`store`] module docs).
//! * A small N-Triples subset parser/serialiser ([`ntriples`]) provides
//!   durable text I/O for fixtures and examples.
//! * [`stats`] computes the per-predicate statistics (fact and
//!   distinct-value counts) used by SOFYA's candidate pruning and the
//!   SPARQL engine's join ordering.
//!
//! ## Quick example
//!
//! ```
//! use sofya_rdf::{Term, TripleStore};
//!
//! let mut store = TripleStore::new();
//! store.insert_terms(
//!     &Term::iri("http://kb/Frank_Sinatra"),
//!     &Term::iri("http://kb/wasBornIn"),
//!     &Term::iri("http://kb/USA"),
//! );
//! let born_in = store.dict().lookup_iri("http://kb/wasBornIn").unwrap();
//! assert_eq!(store.triples_with_predicate(born_in).count(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod dict;
pub mod error;
pub mod inverse;
pub mod ntriples;
pub mod segment;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod term;
pub mod triple;

pub use dict::{Dict, Fx, FxBuild, TermId};
pub use error::RdfError;
pub use inverse::{
    inverse_iri, is_inverse_iri, materialize_inverses, materialize_inverses_filtered,
};
pub use ntriples::{parse_ntriples, parse_ntriples_terms, write_ntriples};
pub use segment::CodecError;
pub use snapshot::{fingerprint_of, StoreSnapshot};
pub use stats::{PredicateStats, StoreStats};
pub use store::{PatternScan, TripleStore};
pub use term::Term;
pub use triple::{Triple, TriplePattern};
