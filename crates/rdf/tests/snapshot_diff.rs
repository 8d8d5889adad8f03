//! `StoreSnapshot::diff_since` against set difference, and
//! `StoreSnapshot::predicates_touching` against its definition: over random
//! insert / remove / `load_batch` / flush scripts that take snapshots and
//! drop some of them again, every pair of snapshots still live differs
//! by exactly what their models differ by, in ascending order, in both
//! directions. Dropping a snapshot lets the writer apply to the runs it
//! held in place, which is what the diff's page-sharing shortcut must
//! survive.

use proptest::prelude::*;
use sofya_rdf::{StoreSnapshot, Term, TermId, TripleStore};
use std::collections::BTreeSet;

type Key = (u32, u32, u32);

#[derive(Debug, Clone)]
enum Op {
    Insert(Key),
    Remove(Key),
    LoadBatch(Vec<Key>),
    Flush,
    Snapshot,
    /// Drop the `n`-th live snapshot (modulo how many there are).
    Release(usize),
}

fn key_strategy() -> impl Strategy<Value = Key> {
    (0u32..6, 6u32..9, 9u32..15)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Remove),
        proptest::collection::vec(key_strategy(), 1..20).prop_map(Op::LoadBatch),
        Just(Op::Flush),
        Just(Op::Snapshot),
        Just(Op::Snapshot),
        (0usize..4).prop_map(Op::Release),
    ]
}

fn ids((s, p, o): Key) -> (TermId, TermId, TermId) {
    (TermId(s), TermId(p), TermId(o))
}

fn difference(a: &BTreeSet<Key>, b: &BTreeSet<Key>) -> Vec<Key> {
    a.difference(b).copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn diff_since_is_the_set_difference_both_ways(
        threshold in prop_oneof![Just(1usize), Just(3), Just(1024)],
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut store = TripleStore::new();
        for id in 0..15 {
            prop_assert_eq!(store.intern(&Term::iri(format!("t{id}"))), TermId(id));
        }
        store.set_merge_threshold(threshold);
        let mut model: BTreeSet<Key> = BTreeSet::new();
        let mut published: Vec<(StoreSnapshot, BTreeSet<Key>)> =
            vec![(store.snapshot(), model.clone())];
        for op in ops.iter().chain([&Op::Snapshot]) {
            match op {
                Op::Insert(key) => {
                    let (s, p, o) = ids(*key);
                    prop_assert_eq!(store.insert(s, p, o), model.insert(*key));
                }
                Op::Remove(key) => {
                    let (s, p, o) = ids(*key);
                    prop_assert_eq!(store.remove(s, p, o), model.remove(key));
                }
                Op::LoadBatch(keys) => {
                    store.load_batch(keys.iter().copied().map(ids));
                    model.extend(keys);
                }
                Op::Flush => store.flush(),
                Op::Snapshot => published.push((store.snapshot(), model.clone())),
                Op::Release(n) => {
                    if !published.is_empty() {
                        published.remove(n % published.len());
                    }
                }
            }
        }
        for (newer, new_model) in &published {
            for (older, old_model) in &published {
                let (added, removed) = newer.diff_since(older);
                prop_assert_eq!(added, difference(new_model, old_model));
                prop_assert_eq!(removed, difference(old_model, new_model));
            }
        }
    }
}

/// Two snapshots with no write between them share every page, and each
/// page is skipped: nothing differs, whatever the pages hold.
#[test]
fn snapshots_of_one_run_differ_by_nothing() {
    let mut store = TripleStore::new();
    let p = store.intern(&Term::iri("p"));
    store.load_batch((0..1000).map(|i| {
        let s = TermId(i);
        (s, p, s)
    }));
    let first = store.snapshot();
    let second = store.snapshot();
    assert_eq!(second.diff_since(&first), (vec![], vec![]));
    assert_eq!(first.diff_since(&first.clone()), (vec![], vec![]));
    // Against the empty store, everything was added — a base segment.
    let (added, removed) = first.diff_since(&TripleStore::new().snapshot());
    assert_eq!((added.len(), removed.len()), (1000, 0));
    assert!(added.windows(2).all(|w| w[0] < w[1]));
}

proptest! {
    /// The predicates around some terms, read off the snapshot, are
    /// those of the model's triples with one of them as subject, and as
    /// object.
    #[test]
    fn predicates_touching_are_those_of_the_terms_triples(
        keys in proptest::collection::vec(key_strategy(), 0..40),
        removed in proptest::collection::vec(key_strategy(), 0..10),
        terms in proptest::collection::vec(0u32..15, 0..8),
    ) {
        let terms: BTreeSet<u32> = terms.into_iter().collect();
        let mut store = TripleStore::new();
        for id in 0..15 {
            prop_assert_eq!(store.intern(&Term::iri(format!("t{id}"))), TermId(id));
        }
        store.load_batch(keys.iter().copied().map(ids));
        let mut model: BTreeSet<Key> = keys.into_iter().collect();
        for key in removed {
            let (s, p, o) = ids(key);
            prop_assert_eq!(store.remove(s, p, o), model.remove(&key));
        }
        let around = |position: fn(&Key) -> u32| -> Vec<TermId> {
            let found: BTreeSet<u32> = (model.iter())
                .filter(|k| terms.contains(&position(k)))
                .map(|k| k.1)
                .collect();
            found.into_iter().map(TermId).collect()
        };
        let expected = [around(|k| k.0), around(|k| k.2)];
        let terms: Vec<TermId> = terms.iter().copied().map(TermId).collect();
        prop_assert_eq!(store.snapshot().predicates_touching(&terms), expected);
    }
}
