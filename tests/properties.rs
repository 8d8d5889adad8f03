//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;
use sofya::align::{cwaconf, pcaconf, PairEvidence, SampleEvidence};
use sofya::rdf::{parse_ntriples, write_ntriples, Term, TriplePattern, TripleStore};
use sofya::textsim::{jaro, jaro_winkler, literal_similarity, literals_match, normalize};

// ---------------------------------------------------------------- textsim

proptest! {
    #[test]
    fn jaro_family_is_bounded_and_symmetric(a in ".{0,24}", b in ".{0,24}") {
        for f in [jaro, jaro_winkler] {
            let ab = f(&a, &b);
            prop_assert!((0.0..=1.0).contains(&ab), "out of bounds: {}", ab);
            prop_assert!((ab - f(&b, &a)).abs() < 1e-9);
        }
        prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
        prop_assert_eq!(jaro(&a, &a), 1.0);
    }

    #[test]
    fn literal_similarity_is_bounded_and_symmetric(a in ".{0,24}", b in ".{0,24}") {
        let ab = literal_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ab), "out of bounds: {}", ab);
        prop_assert!((ab - literal_similarity(&b, &a)).abs() < 1e-9);
        prop_assert_eq!(literal_similarity(&a, &a), 1.0);
        prop_assert_eq!(literals_match(&a, &b), ab >= 0.85);
    }

    #[test]
    fn normalize_is_idempotent(s in ".{0,40}") {
        let once = normalize(&s);
        let twice = normalize(&once);
        prop_assert_eq!(once, twice);
    }
}

// ------------------------------------------------------------- confidence

proptest! {
    #[test]
    fn cwa_never_exceeds_pca(pos in 0usize..20, neg in 0usize..20, unk in 0usize..20) {
        let mut pairs = Vec::new();
        pairs.extend(std::iter::repeat_n(PairEvidence::positive(), pos));
        pairs.extend(std::iter::repeat_n(PairEvidence::pca_negative(), neg));
        pairs.extend(std::iter::repeat_n(PairEvidence::unknown(), unk));
        let e = SampleEvidence { pairs, subjects: pos + neg + unk };
        let (c, p) = (cwaconf(&e), pcaconf(&e));
        prop_assert!(c <= p + 1e-12, "cwa {} > pca {}", c, p);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!((0.0..=1.0).contains(&p));
    }
}

// -------------------------------------------------------------------- rdf

/// Strategy for a lexical form without exotic control characters (the
/// escaper handles them, but the generator keeps shrink output readable).
fn literal_text() -> impl Strategy<Value = String> {
    "[ -~]{0,24}"
}

fn iri_text() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9:/._-]{0,24}"
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        iri_text().prop_map(Term::iri),
        literal_text().prop_map(Term::literal),
        (literal_text(), "[a-z]{2}").prop_map(|(l, t)| Term::lang_literal(l, t)),
        (literal_text(), iri_text()).prop_map(|(l, d)| Term::typed_literal(l, d)),
    ]
}

proptest! {
    #[test]
    fn ntriples_round_trip(
        facts in proptest::collection::vec((iri_text(), iri_text(), term_strategy()), 0..20)
    ) {
        let mut store = TripleStore::new();
        for (s, p, o) in &facts {
            store.insert_terms(&Term::iri(s.clone()), &Term::iri(p.clone()), o);
        }
        let text = write_ntriples(&store);
        let reparsed = parse_ntriples(&text).unwrap();
        prop_assert_eq!(store.len(), reparsed.len());
        // Set equality through canonical text form.
        let canon = |st: &TripleStore| {
            let mut v: Vec<String> = st
                .iter()
                .map(|t| {
                    let (s, p, o) = st.resolve(t);
                    format!("{s} {p} {o}")
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(canon(&store), canon(&reparsed));
    }

    #[test]
    fn store_indexes_agree_on_every_pattern(
        facts in proptest::collection::vec((0u32..12, 0u32..4, 0u32..12), 0..60),
        probe in (0u32..12, 0u32..4, 0u32..12),
    ) {
        let mut store = TripleStore::new();
        for (s, p, o) in &facts {
            store.insert_terms(
                &Term::iri(format!("e{s}")),
                &Term::iri(format!("p{p}")),
                &Term::iri(format!("e{o}")),
            );
        }
        let lookup = |n: String| store.dict().lookup_iri(&n);
        let (s, p, o) = (
            lookup(format!("e{}", probe.0)),
            lookup(format!("p{}", probe.1)),
            lookup(format!("e{}", probe.2)),
        );
        let all: Vec<_> = store.iter().collect();
        // Every combination of bound/unbound positions must agree with
        // brute-force filtering of the full SPO scan.
        for pattern in [
            TriplePattern { s, p: None, o: None },
            TriplePattern { s: None, p, o: None },
            TriplePattern { s: None, p: None, o },
            TriplePattern { s, p, o: None },
            TriplePattern { s, p: None, o },
            TriplePattern { s: None, p, o },
            TriplePattern { s, p, o },
        ] {
            // Unbound-by-absence: if the probe term was never interned the
            // pattern can't match anything.
            if (pattern.s.is_none() && s.is_none() && probe.0 > 0)
                || (pattern.o.is_none() && o.is_none() && probe.2 > 0)
            {
                // pattern genuinely unconstrained in that position; fine.
            }
            let scanned: Vec<_> = store.scan(pattern).collect();
            let brute: Vec<_> = all.iter().copied().filter(|t| pattern.matches(t)).collect();
            let mut a = scanned.clone();
            let mut b = brute.clone();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "pattern {:?}", pattern);
        }
    }

    #[test]
    fn dictionary_round_trip(terms in proptest::collection::vec(term_strategy(), 0..40)) {
        let mut store = TripleStore::new();
        let ids: Vec<_> = terms.iter().map(|t| store.intern(t)).collect();
        for (term, id) in terms.iter().zip(&ids) {
            prop_assert_eq!(store.dict().resolve(*id), term);
            prop_assert_eq!(store.dict().lookup(term), Some(*id));
        }
    }
}
