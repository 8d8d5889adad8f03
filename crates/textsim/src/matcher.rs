//! The literal matcher the aligner runs.

use crate::jaro::jaro_winkler;
use crate::normalize::normalize;
use crate::qgram::bigram_dice;
use crate::token::monge_elkan;

/// Similarity at or above which two literals count as the same value.
const THRESHOLD: f64 = 0.85;

/// Similarity of two lexical forms in `[0, 1]`.
///
/// Both forms are [`normalize`]d first; equal normalised forms score
/// `1.0`. Otherwise the score is the maximum of [`jaro_winkler`],
/// [`bigram_dice`] and [`monge_elkan`] — the forgiving hybrid for
/// cross-KB label matching: Jaro–Winkler for typos, bigram Dice for
/// partial overlap, Monge–Elkan for reordered tokens.
pub fn literal_similarity(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na == nb {
        return 1.0;
    }
    jaro_winkler(&na, &nb)
        .max(bigram_dice(&na, &nb))
        .max(monge_elkan(&na, &nb))
}

/// Whether two lexical forms denote the same value: their
/// [`literal_similarity`] is at least 0.85.
///
/// ```
/// use sofya_textsim::literals_match;
///
/// assert!(literals_match("Frank Sinatra", "frank_SINATRA"));
/// assert!(!literals_match("Frank Sinatra", "Ella Fitzgerald"));
/// ```
pub fn literals_match(a: &str, b: &str) -> bool {
    literal_similarity(a, b) >= THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matcher_handles_surface_variants() {
        assert!(literals_match("Frank Sinatra", "frank_sinatra"));
        assert!(literals_match("Frank Sinatra", "Sinatra, Frank"));
        assert!(literals_match("Gödel, Kurt", "Kurt Godel"));
        assert!(!literals_match("Frank Sinatra", "Dean Martin"));
    }

    #[test]
    fn exact_after_normalisation_is_always_one() {
        assert_eq!(literal_similarity("A.B.", "a b"), 1.0);
        assert_eq!(literal_similarity("", "..."), 1.0);
    }

    #[test]
    fn similarity_is_bounded() {
        for (a, b) in [
            ("composer of music", "writer of books"),
            ("", "x"),
            ("日本語", "日本"),
        ] {
            let v = literal_similarity(a, b);
            assert!((0.0..=1.0).contains(&v), "{a:?} {b:?} → {v}");
        }
    }

    #[test]
    fn hybrid_dominates_its_components() {
        for (a, b) in [("frank sinatra", "sinatra f."), ("berlin", "berlln")] {
            let (na, nb) = (normalize(a), normalize(b));
            let hybrid = literal_similarity(a, b);
            for component in [jaro_winkler, bigram_dice, monge_elkan] {
                assert!(hybrid >= component(&na, &nb));
            }
        }
    }

    #[test]
    fn threshold_is_respected() {
        for (a, b) in [
            ("Frank Sinatra", "Frank Sinatre"),
            ("Frank Sinatra", "Frank Zappa"),
            ("Berlin", "Boston"),
        ] {
            assert_eq!(literals_match(a, b), literal_similarity(a, b) >= 0.85);
        }
        assert!(literals_match("Frank Sinatra", "Frank Sinatre"));
        assert!(!literals_match("Berlin", "Boston"));
    }
}
