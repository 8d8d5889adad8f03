//! Planner statistics are inherited from snapshot to snapshot
//! ([`PublishedSnapshot::stats`]); this suite holds the inherited value
//! equal to [`StoreStats::compute`] of the same store, field for field:
//!
//! * small scope, every case: every sequence of at most five steps from
//!   {insert, remove, publish, publish-and-read} over 2×2×2 terms;
//! * a proptest over batch/remove/publish scripts on a 40-predicate
//!   store, statistics read at random epochs;
//! * the same scripts through [`DurableStore::publish`], and after
//!   [`DurableStore::recover`].
//!
//! Every published state is kept and asked once more at the end, oldest
//! last — a reader that held on to an old snapshot and asks late.

use proptest::prelude::*;
use sofya_durability::{DurabilityConfig, MemIo, StorageIo};
use sofya_endpoint::{DurableStore, PublishedSnapshot, SnapshotStore};
use sofya_rdf::{StoreStats, Term, TripleStore};
use std::sync::Arc;

fn assert_stats_equal_compute(published: &PublishedSnapshot, context: &dyn std::fmt::Debug) {
    let store = published.snapshot().store();
    let (got, want) = (published.stats(), StoreStats::compute(store));
    assert_eq!(
        got.iter().collect::<Vec<_>>(),
        want.iter().collect::<Vec<_>>(),
        "per-predicate table after {context:?}"
    );
    assert_eq!(got.predicate_count(), store.predicates().len());
    assert_eq!(got.total_triples(), want.total_triples(), "{context:?}");
    assert_eq!(got.distinct_subjects(store), store.distinct_subject_count());
    assert_eq!(got.distinct_objects(store), store.distinct_object_count());
}

/// Asks every kept state again, newest first.
fn ask_late(kept: &[Arc<PublishedSnapshot>], context: &dyn std::fmt::Debug) {
    for published in kept.iter().rev() {
        assert_stats_equal_compute(published, context);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Insert(usize),
    Remove(usize),
    Publish,
    PublishAndRead,
}

/// The 2×2×2 universe; one object is a literal so the ratio moves too.
fn universe() -> Vec<(Term, Term, Term)> {
    let mut triples = Vec::new();
    for s in ["e:a", "e:b"] {
        for p in ["r:p", "r:q"] {
            for o in [Term::iri("e:x"), Term::literal("lit")] {
                triples.push((Term::iri(s), Term::iri(p), o));
            }
        }
    }
    triples
}

fn run_sequence(universe: &[(Term, Term, Term)], full: bool, read_first: bool, steps: &[Step]) {
    let mut store = TripleStore::new();
    if full {
        store.load_batch_terms(universe.iter().map(|(s, p, o)| (s, p, o)));
    }
    let mut writer = SnapshotStore::new(store);
    let context = (full, read_first, steps);
    if read_first {
        assert_stats_equal_compute(&writer.current(), &context);
    }
    let mut kept = vec![writer.current()];
    for step in steps {
        match *step {
            Step::Insert(i) => {
                let (s, p, o) = &universe[i];
                writer.store_mut().insert_terms(s, p, o);
            }
            Step::Remove(i) => Writer::remove(&mut writer, &universe[i]),
            Step::Publish | Step::PublishAndRead => {
                writer.publish();
                if *step == Step::PublishAndRead {
                    assert_stats_equal_compute(&writer.current(), &context);
                }
                kept.push(writer.current());
            }
        }
    }
    ask_late(&kept, &context);
}

/// Every sequence of at most `depth` steps that ends in a publish, from
/// an empty and from a full store, the first snapshot read or not. A
/// write that changes nothing (inserting a present triple, removing an
/// absent one) does not touch the store, so such a
/// sequence behaves as the shorter one without that step, which is
/// enumerated too; `present` prunes them.
fn enumerate(
    universe: &[(Term, Term, Term)],
    full: bool,
    present: u8,
    steps: &mut Vec<Step>,
    depth: usize,
    sequences: &mut usize,
) {
    if matches!(steps.last(), Some(Step::Publish | Step::PublishAndRead)) {
        for read_first in [false, true] {
            run_sequence(universe, full, read_first, steps);
            *sequences += 1;
        }
    }
    if steps.len() == depth {
        return;
    }
    for i in 0..universe.len() {
        let (step, after) = if present & (1 << i) == 0 {
            (Step::Insert(i), present | (1 << i))
        } else {
            (Step::Remove(i), present & !(1 << i))
        };
        steps.push(step);
        enumerate(universe, full, after, steps, depth, sequences);
        steps.pop();
    }
    for step in [Step::Publish, Step::PublishAndRead] {
        steps.push(step);
        enumerate(universe, full, present, steps, depth, sequences);
        steps.pop();
    }
}

#[test]
fn every_short_sequence_inherits_what_compute_computes() {
    let universe = universe();
    let mut sequences = 0;
    for (full, present) in [(false, 0u8), (true, u8::MAX)] {
        enumerate(&universe, full, present, &mut Vec::new(), 5, &mut sequences);
    }
    // 2 ends × (1 + 10 + 10² + 10³ + 10⁴) prefixes × 2 reads × 2 stores.
    assert_eq!(sequences, 88_888);
}

/// One line of a script over the 40-predicate store.
#[derive(Debug, Clone)]
enum Op {
    /// Load `count` triples of predicate `pred` starting at subject `from`.
    LoadBatch {
        pred: u8,
        from: u8,
        count: u8,
    },
    /// Remove the triple of `pred` at subject `at`, if it is there.
    Remove {
        pred: u8,
        at: u8,
    },
    Publish {
        read: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..40, 0u8..24, 1u8..12).prop_map(|(pred, from, count)| Op::LoadBatch {
            pred,
            from,
            count
        }),
        (0u8..40, 0u8..32).prop_map(|(pred, at)| Op::Remove { pred, at }),
        (0u8..40, 0u8..32).prop_map(|(pred, at)| Op::Remove { pred, at }),
        (0u8..2).prop_map(|read| Op::Publish { read: read == 1 }),
    ]
}

/// Subject `i` of predicate `pred`: objects shared across predicates,
/// every third one a literal, so the store-level distinct counts and the
/// literal ratios all move.
fn fact(pred: u8, i: u8) -> (Term, Term, Term) {
    let object = if i % 3 == 0 {
        Term::integer(i64::from(i % 5))
    } else {
        Term::iri(format!("e:o{}", i % 7))
    };
    (
        Term::iri(format!("e:s{i}")),
        Term::iri(format!("r:p{pred}")),
        object,
    )
}

fn base_store() -> Vec<(Term, Term, Term)> {
    (0..40u8)
        .flat_map(|pred| (0..1 + pred % 4).map(move |i| fact(pred, i)))
        .collect()
}

/// What a script runs against: the writer half of either store.
trait Writer {
    fn load(&mut self, triples: &[(Term, Term, Term)]);
    fn remove(&mut self, triple: &(Term, Term, Term));
    fn publish(&mut self) -> Arc<PublishedSnapshot>;
}

impl Writer for SnapshotStore {
    fn load(&mut self, triples: &[(Term, Term, Term)]) {
        self.store_mut()
            .load_batch_terms(triples.iter().map(|(s, p, o)| (s, p, o)));
    }
    fn remove(&mut self, (s, p, o): &(Term, Term, Term)) {
        let store = self.store_mut();
        let dict = store.dict();
        if let (Some(s), Some(p), Some(o)) = (dict.lookup(s), dict.lookup(p), dict.lookup(o)) {
            store.remove(s, p, o);
        }
    }
    fn publish(&mut self) -> Arc<PublishedSnapshot> {
        SnapshotStore::publish(self);
        self.current()
    }
}

impl Writer for DurableStore {
    fn load(&mut self, triples: &[(Term, Term, Term)]) {
        self.load_batch(triples);
    }
    fn remove(&mut self, (s, p, o): &(Term, Term, Term)) {
        DurableStore::remove(self, s, p, o);
    }
    fn publish(&mut self) -> Arc<PublishedSnapshot> {
        DurableStore::publish(self).expect("MemIo commits");
        self.current()
    }
}

fn run_script(writer: &mut impl Writer, first: Arc<PublishedSnapshot>, script: &[Op]) {
    let mut kept = vec![first];
    for (line, op) in script.iter().enumerate() {
        match *op {
            Op::LoadBatch { pred, from, count } => {
                let batch: Vec<_> = (from..from + count).map(|i| fact(pred, i)).collect();
                writer.load(&batch);
            }
            Op::Remove { pred, at } => writer.remove(&fact(pred, at)),
            Op::Publish { read } => {
                let published = writer.publish();
                if read {
                    assert_stats_equal_compute(&published, &(line, op));
                }
                kept.push(published);
            }
        }
    }
    kept.push(writer.publish());
    ask_late(&kept, &script);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scripts_on_a_40_predicate_store(
        script in proptest::collection::vec(op(), 1..60),
        read_first in 0u8..2,
    ) {
        let mut store = TripleStore::new();
        let base = base_store();
        store.load_batch_terms(base.iter().map(|(s, p, o)| (s, p, o)));
        let mut writer = SnapshotStore::new(store);
        let first = writer.current();
        if read_first == 1 {
            assert_stats_equal_compute(&first, &"the first snapshot");
        }
        run_script(&mut writer, first, &script);
    }

    #[test]
    fn scripts_through_a_durable_store_and_after_recovery(
        script in proptest::collection::vec(op(), 1..40),
        read_first in 0u8..2,
    ) {
        let mem = Arc::new(MemIo::new());
        let config = DurabilityConfig { checkpoint_every: 3 };
        let io: Arc<dyn StorageIo> = Arc::clone(&mem) as Arc<dyn StorageIo>;
        let mut durable = DurableStore::create(io, config.clone()).unwrap();
        durable.load_batch(&base_store());
        let first = Writer::publish(&mut durable);
        if read_first == 1 {
            assert_stats_equal_compute(&first, &"the first durable publish");
        }
        run_script(&mut durable, first, &script);
        let want = durable.current().snapshot().fingerprint();

        mem.crash();
        let io: Arc<dyn StorageIo> = Arc::clone(&mem) as Arc<dyn StorageIo>;
        let mut recovered = DurableStore::recover(io, config).unwrap();
        prop_assert_eq!(recovered.current().snapshot().fingerprint(), want);
        let first = recovered.current();
        assert_stats_equal_compute(&first, &"the recovered state");
        run_script(&mut recovered, first, &script);
    }
}
