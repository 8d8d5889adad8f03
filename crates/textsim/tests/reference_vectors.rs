//! Reference-vector tests: published values from the string-similarity
//! literature and well-known library documentation, plus Unicode and
//! empty-string edge cases. These pin the implementations to the
//! *conventional* definitions so a refactor cannot silently drift (e.g.
//! unpadded bigrams or a different Winkler prefix cap).

use sofya_textsim::{bigram_dice, jaro, jaro_winkler};

fn close(actual: f64, expected: f64) -> bool {
    (actual - expected).abs() < 1e-4
}

// ------------------------------------------------------- jaro / winkler

#[test]
fn jaro_published_vectors() {
    // Winkler (1990) census-deduplication examples, as reproduced across
    // the record-linkage literature and library test suites.
    for (a, b, expected) in [
        ("MARTHA", "MARHTA", 0.9444),
        ("DIXON", "DICKSONX", 0.7667),
        ("DWAYNE", "DUANE", 0.8222),
        ("JELLYFISH", "SMELLYFISH", 0.8963),
        ("CRATE", "TRACE", 0.7333),
    ] {
        assert!(
            close(jaro(a, b), expected),
            "jaro({a:?}, {b:?}) = {}, want {expected}",
            jaro(a, b)
        );
        assert!(close(jaro(b, a), expected), "symmetry ({a:?}, {b:?})");
    }
}

#[test]
fn jaro_winkler_published_vectors() {
    for (a, b, expected) in [
        ("MARTHA", "MARHTA", 0.9611),
        ("DIXON", "DICKSONX", 0.8133),
        ("DWAYNE", "DUANE", 0.8400),
        // No shared prefix → Winkler boost is zero, JW == Jaro.
        ("JELLYFISH", "SMELLYFISH", 0.8963),
        ("CRATE", "TRACE", 0.7333),
    ] {
        assert!(
            close(jaro_winkler(a, b), expected),
            "jaro_winkler({a:?}, {b:?}) = {}, want {expected}",
            jaro_winkler(a, b)
        );
    }
}

#[test]
fn jaro_winkler_prefix_cap_is_four() {
    // Identical 5-char prefix, then disjoint tails: the boost must use
    // prefix length 4, not 5. With j = jaro(a, b), JW = j + 4·0.1·(1−j).
    let (a, b) = ("abcdeXYZ", "abcdePQR");
    let j = jaro(a, b);
    let jw = jaro_winkler(a, b);
    assert!(close(jw, j + 4.0 * 0.1 * (1.0 - j)), "jw={jw} j={j}");
}

#[test]
fn jaro_empty_and_unicode_edges() {
    assert_eq!(jaro("", ""), 1.0);
    assert_eq!(jaro_winkler("", ""), 1.0);
    assert_eq!(jaro("", "abc"), 0.0);
    assert_eq!(jaro_winkler("abc", ""), 0.0);
    // Scalar-value semantics: one transposed CJK pair behaves like ASCII.
    assert!(close(jaro("日本", "本日"), jaro("ab", "ba")));
    assert_eq!(jaro("🦀", "🦀"), 1.0);
}

// ---------------------------------------------------------------- bigram

#[test]
fn qgram_night_nacht_vectors() {
    // The classic bigram example (Ukkonen 1992 and most q-gram papers),
    // here with `#`-padding: "night" → {#n, ni, ig, gh, ht, t#} and
    // "nacht" → {#n, na, ac, ch, ht, t#}; the profiles share {#n, ht, t#}.
    assert!(close(bigram_dice("night", "nacht"), 6.0 / 12.0));
}

#[test]
fn qgram_multiset_counting() {
    // "aaaa" → {#a, aa×3, a#} (5 grams), "aa" → {#a, aa, a#} (3 grams);
    // multiset intersection is 3.
    assert!(close(bigram_dice("aaaa", "aa"), 6.0 / 8.0));
}

#[test]
fn qgram_empty_and_unicode_edges() {
    assert_eq!(bigram_dice("", ""), 1.0, "empty-empty must be identical");
    assert_eq!(bigram_dice("", "x"), 0.0, "empty vs non-empty is disjoint");
    assert_eq!(bigram_dice("sofya", "sofya"), 1.0);
    // "日本語" → {#日, 日本, 本語, 語#}, "日本" → {#日, 日本, 本#}:
    // 2 shared grams of 7.
    assert!(close(bigram_dice("日本語", "日本"), 4.0 / 7.0));
}
