//! A subscriber three publishes behind reads every delta it catches up
//! on in its store's current dictionary.
//!
//! A delta names its terms by dictionary id and holds no dictionary, so a
//! [`FreshnessTracker`] resolves the deltas it replays against the
//! snapshot current when it syncs, which may be publishes newer than the
//! delta, with dictionary segments merged since. Ids are append-only, so
//! that reads every delta as its own publish wrote it. Here each publish
//! interns new terms, the third of every round interns enough to merge
//! the dictionary's segments into one, and a tracker that syncs once a
//! round marks its session dirty exactly as one that syncs after every
//! publish marks its own.

use sofya_core::{AlignerConfig, AlignmentSession};
use sofya_endpoint::{Endpoint, LocalEndpoint, PublishDelta, SnapshotStore};
use sofya_rdf::{Term, TermId, TripleStore};
use sofya_stream::{FreshnessTracker, KbSide};
use std::collections::BTreeSet;
use std::sync::Arc;

const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

/// A linked pair where `d:birthPlace ⇒ y:born` and
/// `d:residence ⇒ y:livesIn` are minable: 8 people a side, every entity
/// linked.
fn stores() -> (TripleStore, TripleStore) {
    let mut yago = TripleStore::new();
    let mut dbp = TripleStore::new();
    for i in 0..8 {
        let (py, pd) = (format!("y:p{i}"), format!("d:P{i}"));
        let (cy, cd) = (format!("y:c{i}"), format!("d:C{i}"));
        let (ty, td) = (format!("y:t{i}"), format!("d:T{i}"));
        let [py, pd, cy, cd, ty, td] = [py, pd, cy, cd, ty, td].map(Term::iri);
        yago.insert_terms(&py, &Term::iri("y:born"), &cy);
        yago.insert_terms(&py, &Term::iri("y:livesIn"), &ty);
        dbp.insert_terms(&pd, &Term::iri("d:birthPlace"), &cd);
        dbp.insert_terms(&pd, &Term::iri("d:residence"), &td);
        for (y, d) in [(&py, &pd), (&cy, &cd), (&ty, &td)] {
            yago.insert_terms(y, &Term::iri(SA), d);
            dbp.insert_terms(d, &Term::iri(SA), y);
        }
    }
    (dbp, yago)
}

type Triple = (Term, Term, Term);

/// The three publishes of round `k`, each the triples it inserts and
/// removes, every one interning terms the store has not seen: a birth
/// of a new person (dirties `y:born`); a fact of a relation nobody
/// aligned; and a bulk of 32 such facts with one person moving out of a
/// town (dirties `y:livesIn`). The bulk's 64 new terms are more than a
/// quarter of the dictionary in each of the four rounds, so freezing them
/// merges every segment into one: a segment is kept only while it holds
/// at least four times what follows it.
fn round(k: usize) -> [(Vec<Triple>, Vec<Triple>); 3] {
    let iri = |s: String, p: &str, o: String| (Term::iri(s), Term::iri(p), Term::iri(o));
    let bulk = (0..32).map(|j| iri(format!("y:b{k}_{j}"), "y:bulk", format!("y:w{k}_{j}")));
    let moved = iri(format!("y:p{k}"), "y:livesIn", format!("y:t{k}"));
    [
        (
            vec![iri(format!("y:new{k}"), "y:born", format!("y:place{k}"))],
            vec![],
        ),
        (
            vec![iri(format!("y:x{k}"), "y:unread", format!("y:z{k}"))],
            vec![],
        ),
        (bulk.collect(), vec![moved]),
    ]
}

/// The predicates and the subject/object terms of `changed`.
fn terms_of(changed: &[Triple]) -> (BTreeSet<Term>, BTreeSet<Term>) {
    let predicates = changed.iter().map(|(_, p, _)| p.clone()).collect();
    let terms = changed
        .iter()
        .flat_map(|(s, _, o)| [s.clone(), o.clone()])
        .collect();
    (predicates, terms)
}

/// `ids` read in the writer's current dictionary; they must ascend.
fn resolved(writer: &SnapshotStore, ids: &[TermId]) -> BTreeSet<Term> {
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend: {ids:?}");
    let published = writer.current();
    let dict = published.snapshot().dict();
    ids.iter().map(|&id| dict.resolve(id).clone()).collect()
}

#[test]
fn a_lagging_tracker_reads_every_delta_in_its_current_dictionary() {
    let (dbp, yago) = stores();
    let source = LocalEndpoint::new("dbp", dbp);
    let mut writer = SnapshotStore::new(yago);
    let target = writer.reader("yago");
    let config = AlignerConfig::paper_defaults(1);
    let relations = ["y:born", "y:livesIn"];
    let [lagging, eager] =
        [(); 2].map(|()| AlignmentSession::new(&source, &target as &dyn Endpoint, config.clone()));
    for session in [&lagging, &eager] {
        for relation in relations {
            session.rules_for(relation).unwrap();
        }
    }
    let mut behind = FreshnessTracker::new(&writer, KbSide::Target);
    let mut each = FreshnessTracker::new(&writer, KbSide::Target);

    let mut dirtied = BTreeSet::new();
    for k in 0..4 {
        let mut published: Vec<(Arc<PublishDelta>, Vec<Triple>)> = Vec::new();
        for (inserts, removes) in round(k) {
            let store = writer.store_mut();
            let terms_before = store.dict().len();
            for (s, p, o) in &inserts {
                assert!(store.insert_terms(s, p, o));
            }
            for (s, p, o) in &removes {
                let [s, p, o] = [s, p, o].map(|t| store.dict().lookup(t).unwrap());
                assert!(store.remove(s, p, o));
            }
            assert!(store.dict().len() > terms_before, "the publish interns");
            published.push((writer.publish(), [inserts, removes].concat()));
            assert_eq!(each.sync(&eager).applied, 1);
        }

        let outcome = behind.sync(&lagging);
        assert_eq!((outcome.applied, outcome.resynced), (3, false));
        for (delta, changed) in &published {
            let (predicates, terms) = terms_of(changed);
            assert_eq!(
                resolved(&writer, &delta.predicates),
                predicates,
                "round {k}"
            );
            assert_eq!(resolved(&writer, &delta.terms), terms, "round {k}");
        }
        let dirty = lagging.dirty_relations();
        assert_eq!(dirty, eager.dirty_relations(), "round {k}");
        dirtied.extend(dirty);
        for session in [&lagging, &eager] {
            session.refresh_dirty().unwrap();
        }
        for relation in relations {
            assert_eq!(
                lagging.rules_for(relation).unwrap(),
                eager.rules_for(relation).unwrap(),
                "round {k}: {relation}"
            );
        }
    }
    assert_eq!(dirtied, relations.map(String::from).into());
}
