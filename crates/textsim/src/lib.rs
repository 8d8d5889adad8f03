//! # sofya-textsim
//!
//! The literal matcher the aligner runs.
//!
//! SOFYA (§2.2) aligns entity–literal relations by retrieving the sampled
//! subjects' facts from both knowledge bases and matching the literal
//! objects with "string similarity functions". The paper does not fix a
//! particular function; this reproduction runs one, with nothing to set:
//!
//! * [`literal_similarity`] — both forms [`normalize`]d (accents folded
//!   to ASCII, lower-cased, punctuation to spaces, whitespace squashed);
//!   `1.0` if equal, else the maximum of [`jaro_winkler`],
//!   [`bigram_dice`] and [`monge_elkan`];
//! * [`literals_match`] — that similarity is at least 0.85.
//!
//! The pieces it combines are public so that tests and examples can show
//! each measure's share: [`jaro`] and [`jaro_winkler`] (Winkler's prefix
//! boost, capped at four characters), [`bigram_dice`] over `#`-padded
//! bigram multisets, and [`monge_elkan`] over Jaro–Winkler per token.
//! Every similarity lies in `[0, 1]`, `1.0` meaning identical under that
//! measure.

#![forbid(unsafe_code)]

mod jaro;
mod matcher;
mod normalize;
mod qgram;
mod token;

pub use jaro::{jaro, jaro_winkler};
pub use matcher::{literal_similarity, literals_match};
pub use normalize::normalize;
pub use qgram::bigram_dice;
pub use token::monge_elkan;
