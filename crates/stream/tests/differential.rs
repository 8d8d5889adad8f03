//! The differential guarantee, property-tested: an incrementally
//! maintained [`AlignmentSession`] — footprint-dirtied by replayed
//! deltas from both of its stores, each with its own
//! [`FreshnessTracker`], re-mined via `refresh_dirty` from what its
//! probe memo still holds — answers **bit-identically** to a session
//! built from scratch at the same epochs, under arbitrary interleavings
//! of inserts, removes, `sameAs` links and unlinks (which move linked
//! counts, and with them sampling offsets and probes), batch loads, and
//! publishes.
//!
//! Because every per-relation mine seeds its RNG deterministically from
//! the relation IRI, "same published state" implies "same rules", so
//! exact `Vec<SubsumptionRule>` equality (confidences included) is the
//! right assertion — any drift means the dirty tracking missed an
//! intersecting delta.

use proptest::prelude::*;
use sofya_core::{AlignerConfig, AlignmentSession};
use sofya_endpoint::{Endpoint, SnapshotStore};
use sofya_rdf::{Term, TripleStore};
use sofya_stream::{FreshnessTracker, KbSide};

const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

/// Target-side relations the ops mutate (and the sessions mine).
const RELATIONS: [&str; 3] = ["y:born", "y:livesIn", "y:diedIn"];

fn entity(i: u32) -> Term {
    Term::iri(format!("y:p{i}"))
}

fn city(i: u32) -> Term {
    Term::iri(format!("y:c{i}"))
}

/// The source premise mirroring each target relation.
const PREMISES: [&str; 3] = ["d:birthPlace", "d:residence", "d:deathPlace"];

/// A linked pair: 8 sameAs-bridged entities and cities, with each
/// target relation mirrored by a minable source premise.
fn stores() -> (TripleStore, TripleStore) {
    let mut yago = TripleStore::new();
    let mut dbp = TripleStore::new();
    for i in 0..8u32 {
        let (py, pd) = (format!("y:p{i}"), format!("d:P{i}"));
        let (cy, cd) = (format!("y:c{i}"), format!("d:C{i}"));
        for (relation, premise) in RELATIONS.iter().zip(PREMISES) {
            yago.insert_terms(&Term::iri(&py), &Term::iri(*relation), &Term::iri(&cy));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri(premise), &Term::iri(&cd));
        }
        yago.insert_terms(&Term::iri(&py), &Term::iri(SA), &Term::iri(&pd));
        yago.insert_terms(&Term::iri(&cy), &Term::iri(SA), &Term::iri(&cd));
        dbp.insert_terms(&Term::iri(&pd), &Term::iri(SA), &Term::iri(&py));
        dbp.insert_terms(&Term::iri(&cd), &Term::iri(SA), &Term::iri(&cy));
    }
    (dbp, yago)
}

/// Which store an op writes.
#[derive(Debug, Clone, Copy)]
enum Kb {
    Source,
    Target,
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert `(y:p{s}, RELATIONS[r], y:c{o})` into the target store, or
    /// `(d:P{s}, PREMISES[r], d:C{o})` into the source store.
    Insert(Kb, u32, usize, u32),
    /// Remove the same shape, if present.
    Remove(Kb, u32, usize, u32),
    /// Link entity `i` to its image in the other KB (`true`) or unlink
    /// it: linked counts move, and with them sampling offsets and the
    /// probes that follow.
    Link(Kb, u32, bool),
    /// A burst of target inserts landing in one future publish.
    LoadBatch(Vec<(u32, usize, u32)>),
    /// Insert a target triple no relation's footprint cares about.
    InsertUnrelated(u32),
    /// Publish whatever accumulated in both stores (possibly no-ops).
    Publish,
}

fn triple_strategy() -> impl Strategy<Value = (u32, usize, u32)> {
    (0u32..10, 0usize..RELATIONS.len(), 0u32..10)
}

fn kb_strategy() -> impl Strategy<Value = Kb> {
    prop_oneof![Just(Kb::Source), Just(Kb::Target)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (kb_strategy(), triple_strategy()).prop_map(|(kb, (s, r, o))| Op::Insert(kb, s, r, o)),
        (kb_strategy(), triple_strategy()).prop_map(|(kb, (s, r, o))| Op::Remove(kb, s, r, o)),
        (kb_strategy(), 0u32..10, 0u8..2).prop_map(|(kb, i, on)| Op::Link(kb, i, on == 1)),
        proptest::collection::vec(triple_strategy(), 1..6).prop_map(Op::LoadBatch),
        (0u32..6).prop_map(Op::InsertUnrelated),
        Just(Op::Publish),
    ]
}

/// The `(s, p, o)` an op names in the store of `kb`.
fn terms(kb: Kb, s: u32, r: usize, o: u32) -> (Term, Term, Term) {
    match kb {
        Kb::Target => (entity(s), Term::iri(RELATIONS[r]), city(o)),
        Kb::Source => (
            Term::iri(format!("d:P{s}")),
            Term::iri(PREMISES[r]),
            Term::iri(format!("d:C{o}")),
        ),
    }
}

/// An entity's `sameAs` link in the store of `kb`.
fn link(kb: Kb, i: u32) -> (Term, Term, Term) {
    let (source, target) = (Term::iri(format!("d:P{i}")), entity(i));
    match kb {
        Kb::Target => (target, Term::iri(SA), source),
        Kb::Source => (source, Term::iri(SA), target),
    }
}

fn remove(store: &mut SnapshotStore, (s, p, o): &(Term, Term, Term)) {
    let store = store.store_mut();
    let ids = (
        store.dict().lookup(s),
        store.dict().lookup(p),
        store.dict().lookup(o),
    );
    if let (Some(s), Some(p), Some(o)) = ids {
        store.remove(s, p, o);
    }
}

fn insert(store: &mut SnapshotStore, (s, p, o): &(Term, Term, Term)) {
    store.store_mut().insert_terms(s, p, o);
}

/// Applies `op` to the stores; `true` for a publish.
fn apply(source: &mut SnapshotStore, target: &mut SnapshotStore, op: &Op) -> bool {
    let (kb, triple, add) = match op {
        Op::Insert(kb, s, r, o) => (*kb, terms(*kb, *s, *r, *o), true),
        Op::Remove(kb, s, r, o) => (*kb, terms(*kb, *s, *r, *o), false),
        Op::Link(kb, i, on) => (*kb, link(*kb, *i), *on),
        Op::LoadBatch(batch) => {
            for (s, r, o) in batch {
                insert(target, &terms(Kb::Target, *s, *r, *o));
            }
            return false;
        }
        Op::InsertUnrelated(i) => {
            let junk = (
                Term::iri(format!("y:misc{i}")),
                Term::iri("y:unrelated"),
                Term::iri("y:junk"),
            );
            (Kb::Target, junk, true)
        }
        Op::Publish => return true,
    };
    let store = match kb {
        Kb::Source => source,
        Kb::Target => target,
    };
    if add {
        insert(store, &triple);
    } else {
        remove(store, &triple);
    }
    false
}

proptest! {
    // Each publish re-mines and cross-checks up to three relations
    // against a from-scratch session, so keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_session_is_bit_identical_to_from_scratch(
        ops in proptest::collection::vec(op_strategy(), 8..32),
    ) {
        let (dbp, yago) = stores();
        let (mut source_writer, mut target_writer) =
            (SnapshotStore::new(dbp), SnapshotStore::new(yago));
        let (source, target) = (source_writer.reader("dbp"), target_writer.reader("yago"));
        let config = AlignerConfig::paper_defaults(1);

        let incremental = AlignmentSession::new(
            &source as &dyn Endpoint,
            &target as &dyn Endpoint,
            config.clone(),
        );
        let mut trackers = [
            FreshnessTracker::new(&source_writer, KbSide::Source),
            FreshnessTracker::new(&target_writer, KbSide::Target),
        ];
        for relation in RELATIONS {
            incremental.rules_for(relation).unwrap();
        }

        // Every epoch, including the last one with whatever the ops
        // left unpublished: a session from scratch must agree exactly.
        for op in ops.iter().chain([&Op::Publish]) {
            if !apply(&mut source_writer, &mut target_writer, op) {
                continue;
            }
            source_writer.publish();
            target_writer.publish();
            for tracker in &mut trackers {
                tracker.sync(&incremental);
            }
            incremental.refresh_dirty().unwrap();
            prop_assert!(incremental.dirty_relations().is_empty());

            let fresh = AlignmentSession::new(
                &source as &dyn Endpoint,
                &target as &dyn Endpoint,
                config.clone(),
            );
            for relation in RELATIONS {
                let incremental_rules = incremental.rules_for(relation).unwrap();
                let fresh_rules = fresh.rules_for(relation).unwrap();
                prop_assert_eq!(
                    incremental_rules,
                    fresh_rules,
                    "relation {} diverged at epochs {} / {}",
                    relation,
                    source_writer.current().version(),
                    target_writer.current().version()
                );
            }
        }
    }
}
