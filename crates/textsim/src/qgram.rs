//! The bigram Dice coefficient.
//!
//! A string's bigram profile is the multiset of its two-character
//! windows after padding each end with one `#`, so short strings still
//! produce grams: "ab" → {#a, ab, b#}.

/// The sorted bigram multiset of `s`, `#`-padded at both ends.
fn bigrams(s: &str) -> Vec<[char; 2]> {
    let padded: Vec<char> = std::iter::once('#')
        .chain(s.chars())
        .chain(std::iter::once('#'))
        .collect();
    let mut grams: Vec<[char; 2]> = padded.windows(2).map(|w| [w[0], w[1]]).collect();
    grams.sort_unstable();
    grams
}

/// Dice (Sørensen) coefficient over bigram multisets:
/// `2|A ∩ B| / (|A| + |B|)`. Every string has at least one bigram, so
/// two empty strings score `1.0` and an empty against a non-empty one
/// `0.0`.
pub fn bigram_dice(a: &str, b: &str) -> f64 {
    let (ga, gb) = (bigrams(a), bigrams(b));
    // Multiset intersection of two sorted lists by merging.
    let (mut i, mut j, mut shared) = (0, 0, 0usize);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * shared as f64 / (ga.len() + gb.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_counts_with_padding() {
        assert_eq!(bigrams("ab"), [['#', 'a'], ['a', 'b'], ['b', '#']]);
    }

    #[test]
    fn profile_of_empty_string() {
        // Padding alone: "##" → one gram.
        assert_eq!(bigrams(""), [['#', '#']]);
    }

    #[test]
    fn repeated_grams_counted_with_multiplicity() {
        // #a, aa ×3, a#
        let grams = bigrams("aaaa");
        assert_eq!(grams.len(), 5);
        assert_eq!(grams.iter().filter(|g| **g == ['a', 'a']).count(), 3);
    }

    #[test]
    fn identical_strings_score_one() {
        assert_eq!(bigram_dice("sinatra", "sinatra"), 1.0);
    }

    #[test]
    fn disjoint_strings_score_zero() {
        assert_eq!(bigram_dice("aaa", "zzz"), 0.0);
    }

    #[test]
    fn symmetry_of_all_coefficients() {
        assert_eq!(
            bigram_dice("martha", "marhta"),
            bigram_dice("marhta", "martha")
        );
    }

    #[test]
    fn bounds_zero_one() {
        for (a, b) in [("a", "ab"), ("frank", "sinatra"), ("", "x"), ("", "")] {
            let v = bigram_dice(a, b);
            assert!((0.0..=1.0).contains(&v), "{a:?} {b:?} → {v}");
        }
    }
}
