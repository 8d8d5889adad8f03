//! Model-based differential for the store's write path: buffered inserts,
//! tombstoned removals (one by one and batched), one-pass applies,
//! snapshots that share runs and dictionary segments with the writer.
//!
//! A [`Harness`] drives a [`TripleStore`] and a `BTreeSet` model through
//! the same operations and compares, after every step, the whole read
//! surface of the writer — *with its buffers and tombstones live* — and of
//! every retained snapshot against what the model says it should be, and
//! at every snapshot what it changed since each retained one
//! (`diff_since`, whose page-sharing shortcut releases and in-place
//! applies put to the test) against the models' set differences.
//! Three drivers share it: a proptest over random interleavings, a long
//! seeded walk that crosses the per-page thresholds, and a small-scope
//! exhaustive enumeration (Collavizza et al.: exhaustive checking within
//! a small bound finds what sampling misses).

use proptest::prelude::*;
use sofya_rdf::{
    fingerprint_of, Dict, StoreSnapshot, Term, TermId, Triple, TriplePattern, TripleStore,
};
use std::collections::{BTreeSet, HashMap};

type Key = (u32, u32, u32);

/// The ids a run may use: subjects `0..s`, predicates `s..s+p`, objects
/// `s+p..s+p+o` — disjoint, so the store's dictionary is just a counter.
#[derive(Debug, Clone, Copy)]
struct Universe {
    subjects: u32,
    predicates: u32,
    objects: u32,
}

impl Universe {
    fn key(&self, s: u32, p: u32, o: u32) -> Key {
        (
            s % self.subjects,
            self.subjects + p % self.predicates,
            self.subjects + self.predicates + o % self.objects,
        )
    }

    fn terms(&self) -> u32 {
        self.subjects + self.predicates + self.objects
    }

    /// Every pattern over the universe: each position free or bound to
    /// each id that can stand there.
    fn patterns(&self) -> Vec<TriplePattern> {
        let ids =
            |lo: u32, n: u32| std::iter::once(None).chain((lo..lo + n).map(|id| Some(TermId(id))));
        let mut all = Vec::new();
        for s in ids(0, self.subjects) {
            for p in ids(self.subjects, self.predicates) {
                for o in ids(self.subjects + self.predicates, self.objects) {
                    all.push(TriplePattern { s, p, o });
                }
            }
        }
        all
    }
}

/// The eight shapes of pattern that mention (parts of) one key.
fn shapes_of((s, p, o): Key) -> Vec<TriplePattern> {
    let (s, p, o) = (TermId(s), TermId(p), TermId(o));
    vec![
        TriplePattern::any(),
        TriplePattern::with_s(s),
        TriplePattern::with_p(p),
        TriplePattern::with_o(o),
        TriplePattern::with_sp(s, p),
        TriplePattern::with_po(p, o),
        TriplePattern::with_so(s, o),
        TriplePattern::exact(s, p, o),
    ]
}

fn triple((s, p, o): Key) -> Triple {
    Triple::new(TermId(s), TermId(p), TermId(o))
}

/// What `pattern` must yield over `model`, in the order its index yields
/// it: `(o, s)` within a predicate's page, OSP for object-led shapes, SPO
/// otherwise.
fn expected(model: &BTreeSet<Key>, pattern: TriplePattern) -> Vec<Triple> {
    let mut hits: Vec<Key> = model
        .iter()
        .copied()
        .filter(|&k| pattern.matches(&triple(k)))
        .collect();
    match (pattern.s, pattern.p, pattern.o) {
        (None, Some(_), _) => hits.sort_by_key(|&(s, _, o)| (o, s)),
        (_, None, Some(_)) => hits.sort_by_key(|&(s, p, o)| (o, s, p)),
        _ => {}
    }
    hits.into_iter().map(triple).collect()
}

/// One published state: the snapshot and the model it was taken at.
#[derive(Clone)]
struct Published {
    snapshot: StoreSnapshot,
    model: BTreeSet<Key>,
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Key),
    Remove(Key),
    LoadBatch(Vec<Key>),
    RemoveBatch(Vec<Key>),
    Flush,
    /// Take a snapshot and keep it.
    Snapshot,
    /// Drop the `n`-th retained snapshot (modulo how many there are).
    Release(usize),
}

#[derive(Clone)]
struct Harness {
    universe: Universe,
    store: TripleStore,
    model: BTreeSet<Key>,
    retained: Vec<Published>,
}

impl Harness {
    fn new(universe: Universe, merge_threshold: usize) -> Self {
        let mut store = TripleStore::new();
        for id in 0..universe.terms() {
            assert_eq!(store.intern(&Term::iri(format!("t{id}"))), TermId(id));
        }
        store.set_merge_threshold(merge_threshold);
        Self {
            universe,
            store,
            model: BTreeSet::new(),
            retained: Vec::new(),
        }
    }

    /// Applies `op` to store and model alike, holding their answers equal.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(key) => {
                let fresh = self
                    .store
                    .insert(TermId(key.0), TermId(key.1), TermId(key.2));
                assert_eq!(fresh, self.model.insert(*key), "insert {key:?}");
            }
            Op::Remove(key) => {
                let was = self
                    .store
                    .remove(TermId(key.0), TermId(key.1), TermId(key.2));
                assert_eq!(was, self.model.remove(key), "remove {key:?}");
            }
            Op::LoadBatch(keys) => {
                let loaded = self.store.load_batch(
                    keys.iter()
                        .map(|&(s, p, o)| (TermId(s), TermId(p), TermId(o))),
                );
                let fresh: BTreeSet<Key> = keys
                    .iter()
                    .copied()
                    .filter(|key| !self.model.contains(key))
                    .collect();
                assert_eq!(loaded, fresh.len(), "load_batch {keys:?}");
                self.model.extend(fresh);
            }
            Op::RemoveBatch(keys) => {
                let removed = self.store.remove_batch(
                    keys.iter()
                        .map(|&(s, p, o)| (TermId(s), TermId(p), TermId(o))),
                );
                let live: BTreeSet<Key> = keys
                    .iter()
                    .copied()
                    .filter(|key| self.model.remove(key))
                    .collect();
                assert_eq!(removed, live.len(), "remove_batch {keys:?}");
            }
            Op::Flush => self.store.flush(),
            Op::Snapshot => {
                let snapshot = self.store.snapshot();
                assert_eq!(snapshot.version(), self.store.generation());
                // What changed since each retained snapshot, both ways.
                for older in &self.retained {
                    let (new, old) = (&self.model, &older.model);
                    let (added, removed) = snapshot.diff_since(&older.snapshot);
                    assert_eq!(added, new.difference(old).copied().collect::<Vec<_>>());
                    assert_eq!(removed, old.difference(new).copied().collect::<Vec<_>>());
                    assert_eq!(older.snapshot.diff_since(&snapshot), (removed, added));
                }
                self.retained.push(Published {
                    snapshot,
                    model: self.model.clone(),
                });
            }
            Op::Release(n) => {
                if !self.retained.is_empty() {
                    self.retained.remove(n % self.retained.len());
                }
            }
        }
    }

    /// The key an op names, if it names one (its shapes get checked).
    fn touched(op: &Op) -> Vec<Key> {
        match op {
            Op::Insert(key) | Op::Remove(key) => vec![*key],
            Op::LoadBatch(keys) | Op::RemoveBatch(keys) => keys.clone(),
            _ => Vec::new(),
        }
    }

    /// Checks the writer and every retained snapshot over `patterns`, plus
    /// everything that does not depend on a pattern.
    fn check(&self, patterns: &[TriplePattern]) {
        check_store(&self.store, &self.model, patterns);
        for published in &self.retained {
            check_store(published.snapshot.store(), &published.model, patterns);
        }
    }

    fn step(&mut self, op: &Op) {
        self.apply(op);
        let patterns: Vec<TriplePattern> = Self::touched(op)
            .into_iter()
            .flat_map(shapes_of)
            .chain([TriplePattern::any()])
            .collect();
        self.check(&patterns);
    }

    /// Every pattern of the universe, on everything.
    fn sweep(&self) {
        self.check(&self.universe.patterns());
    }
}

fn check_store(store: &TripleStore, model: &BTreeSet<Key>, patterns: &[TriplePattern]) {
    assert_eq!(store.len(), model.len(), "len");
    assert_eq!(store.is_empty(), model.is_empty());
    let oracle = fingerprint_of(model.iter().copied().map(triple));
    assert_eq!(store.fingerprint(), oracle, "fingerprint vs model");
    assert_eq!(
        store.fingerprint(),
        fingerprint_of(store.iter()),
        "fingerprint vs walk"
    );
    let predicates: BTreeSet<u32> = model.iter().map(|&(_, p, _)| p).collect();
    assert_eq!(
        store.predicates(),
        predicates.into_iter().map(TermId).collect::<Vec<_>>(),
        "predicates"
    );
    let subjects: BTreeSet<u32> = model.iter().map(|&(s, _, _)| s).collect();
    let objects: BTreeSet<u32> = model.iter().map(|&(_, _, o)| o).collect();
    assert_eq!(store.distinct_subject_count(), subjects.len());
    assert_eq!(store.distinct_object_count(), objects.len());

    for &pattern in patterns {
        let want = expected(model, pattern);
        let mut scan = store.scan(pattern);
        assert_eq!(scan.len(), want.len(), "scan len {pattern:?}");
        assert_eq!(
            store.count_pattern(pattern),
            want.len(),
            "count {pattern:?}"
        );
        // Contents and order, with the exact size holding all the way.
        let mut got = Vec::with_capacity(want.len());
        while let Some(t) = scan.next() {
            got.push(t);
            assert_eq!(scan.len(), want.len() - got.len(), "remaining {pattern:?}");
        }
        assert_eq!(got, want, "scan {pattern:?}");
        if let (Some(s), Some(p), Some(o)) = (pattern.s, pattern.p, pattern.o) {
            assert_eq!(
                store.contains(s, p, o),
                model.contains(&(s.0, p.0, o.0)),
                "contains {pattern:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Random interleavings.
// ---------------------------------------------------------------------------

const RANDOM: Universe = Universe {
    subjects: 8,
    predicates: 3,
    objects: 8,
};

fn key_strategy() -> impl Strategy<Value = Key> {
    (0u32..8, 0u32..3, 0u32..8).prop_map(|(s, p, o)| RANDOM.key(s, p, o))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Remove),
        key_strategy().prop_map(Op::Remove),
        proptest::collection::vec(key_strategy(), 1..24).prop_map(Op::LoadBatch),
        proptest::collection::vec(key_strategy(), 1..24).prop_map(Op::RemoveBatch),
        Just(Op::Flush),
        Just(Op::Snapshot),
        (0usize..4).prop_map(Op::Release),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings, at thresholds from "merge on every write"
    /// to "never merge unasked": writer and snapshots match the model
    /// after every step.
    #[test]
    fn random_interleavings_match_the_model(
        threshold in prop_oneof![Just(1usize), Just(2), Just(3), Just(7), Just(1024)],
        ops in proptest::collection::vec(op_strategy(), 1..90),
    ) {
        let mut harness = Harness::new(RANDOM, threshold);
        for op in &ops {
            harness.step(op);
        }
        harness.sweep();
    }
}

/// One predicate, 144 pairs, thousands of steps at a threshold the flat
/// runs never reach: only the per-page thresholds (inserts *and*
/// tombstones) trigger merges, with snapshots coming and going.
#[test]
fn long_walk_crosses_the_page_thresholds() {
    let universe = Universe {
        subjects: 12,
        predicates: 1,
        objects: 12,
    };
    let mut harness = Harness::new(universe, 1 << 20);
    let mut x: u32 = 0x5eed;
    let mut next = || {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        x >> 8
    };
    for step in 0..4000 {
        let key = universe.key(next(), 0, next());
        // Long phases of mostly-inserts, then mostly-removes, so both
        // kinds of page buffer fill up between merges.
        let removing = (step / 400) % 2 == 1;
        let op = match next() % 40 {
            0 => Op::Snapshot,
            1 => Op::Release(next() as usize),
            2 => Op::LoadBatch((0..5).map(|_| universe.key(next(), 0, next())).collect()),
            3 => Op::RemoveBatch((0..5).map(|_| universe.key(next(), 0, next())).collect()),
            n if (n % 8 == 3) != removing => Op::Remove(key),
            _ => Op::Insert(key),
        };
        harness.step(&op);
        if step % 500 == 499 {
            harness.sweep();
        }
    }
    harness.sweep();
}

// ---------------------------------------------------------------------------
// The cases the tombstone design turns on, by name.
// ---------------------------------------------------------------------------

const TINY: Universe = Universe {
    subjects: 2,
    predicates: 2,
    objects: 2,
};

fn run(threshold: usize, ops: &[Op]) -> Harness {
    let mut harness = Harness::new(TINY, threshold);
    for op in ops {
        harness.apply(op);
        harness.sweep();
    }
    harness
}

#[test]
fn reinserting_a_tombstoned_key_before_a_flush_clears_the_tombstone() {
    let k = TINY.key(0, 0, 0);
    let harness = run(
        1024,
        &[
            Op::Insert(k),
            Op::Flush, // k lives in the main runs now
            Op::Snapshot,
            Op::Remove(k), // tombstone
            Op::Insert(k), // clears it: nothing pending
            Op::Snapshot,
            Op::Remove(k),
            Op::Insert(k),
            Op::Flush,
        ],
    );
    assert_eq!(harness.store.len(), 1);
    // Both snapshots hold k, and hold on to it.
    assert!(harness.retained.iter().all(|p| p.snapshot.len() == 1));
}

#[test]
fn removing_a_buffered_key_deletes_it_directly() {
    let (a, b) = (TINY.key(0, 0, 0), TINY.key(1, 1, 1));
    let harness = run(
        1024,
        &[
            Op::Insert(a),
            Op::Flush,
            Op::Insert(b), // buffered only
            Op::Remove(b), // gone without a tombstone
            Op::Insert(b),
            Op::Remove(a), // tombstoned
            Op::Remove(b),
            Op::Snapshot,
        ],
    );
    assert!(harness.store.is_empty());
    assert!(harness.store.predicates().is_empty());
}

#[test]
fn load_batch_of_a_tombstoned_key_brings_it_back_once() {
    let (a, b, c) = (TINY.key(0, 0, 0), TINY.key(0, 0, 1), TINY.key(1, 0, 0));
    let harness = run(
        1024,
        &[
            Op::LoadBatch(vec![a, b]),
            Op::Snapshot, // the main runs are shared from here on
            Op::Remove(a),
            Op::Remove(b),
            Op::LoadBatch(vec![a, c, a]), // a is tombstoned, c new, a again
            Op::Snapshot,
            Op::LoadBatch(vec![a, b, c]), // only b is new
        ],
    );
    assert_eq!(harness.store.len(), 3);
    assert_eq!(harness.retained[0].snapshot.len(), 2);
    assert_eq!(harness.retained[1].snapshot.len(), 2);
}

#[test]
fn remove_batch_unbuffers_tombstones_and_skips_what_is_absent() {
    let (a, b, c, absent) = (
        TINY.key(0, 0, 0),
        TINY.key(0, 0, 1),
        TINY.key(1, 1, 1),
        TINY.key(1, 0, 1),
    );
    let harness = run(
        1024,
        &[
            Op::LoadBatch(vec![a, b]),
            Op::Snapshot,  // the main runs are shared from here on
            Op::Insert(c), // buffered only
            Op::RemoveBatch(vec![c, a, absent, a]), // c unbuffered, a tombstoned
            Op::LoadBatch(vec![a]), // before a flush: the apply clears a's tombstone
            Op::Snapshot,
            Op::RemoveBatch(vec![b, a, b]),
            Op::Flush,
        ],
    );
    assert!(harness.store.is_empty());
    assert!(harness.retained.iter().all(|p| p.snapshot.len() == 2));
}

// ---------------------------------------------------------------------------
// Small-scope exhaustive.
// ---------------------------------------------------------------------------

/// Every operation sequence up to the depth bound over 2 subjects × 2
/// predicates × 2 objects at merge threshold 2, every pattern checked on
/// the writer and on every retained snapshot after every step. Debug
/// builds stop one level short (245k states instead of 5.4M); CI runs
/// this suite in release.
#[test]
fn every_short_sequence_over_a_tiny_universe() {
    let depth = if cfg!(debug_assertions) { 4 } else { 5 };
    let keys: Vec<Key> = (0..8).map(|i| TINY.key(i >> 2, i >> 1, i)).collect();
    assert_eq!(keys.iter().collect::<BTreeSet<_>>().len(), 8);
    let mut alphabet: Vec<Op> = Vec::new();
    alphabet.extend(keys.iter().copied().map(Op::Insert));
    alphabet.extend(keys.iter().copied().map(Op::Remove));
    alphabet.push(Op::LoadBatch(keys.clone()));
    alphabet.push(Op::LoadBatch(vec![keys[0], keys[3], keys[5]]));
    alphabet.push(Op::RemoveBatch(vec![keys[5], keys[0], keys[3], keys[0]]));
    alphabet.push(Op::Flush);
    alphabet.push(Op::Snapshot);
    alphabet.push(Op::Release(0));

    let patterns = TINY.patterns();
    assert_eq!(patterns.len(), 27);

    // Each state is rebuilt from scratch by replaying its sequence — not
    // cloned from its parent, which would leave every run shared with the
    // parent's copy and the in-place merges unexplored.
    fn explore(
        prefix: &mut Vec<Op>,
        alphabet: &[Op],
        patterns: &[TriplePattern],
        left: usize,
        visited: &mut u64,
    ) {
        for op in alphabet {
            prefix.push(op.clone());
            let mut state = Harness::new(TINY, 2);
            for op in prefix.iter() {
                state.apply(op);
            }
            state.check(patterns);
            *visited += 1;
            if left > 1 {
                explore(prefix, alphabet, patterns, left - 1, visited);
            }
            prefix.pop();
        }
    }
    let mut visited = 0u64;
    explore(&mut Vec::new(), &alphabet, &patterns, depth, &mut visited);
    let n = alphabet.len() as u64;
    assert_eq!(visited, (1..=depth as u32).map(|d| n.pow(d)).sum::<u64>());
}

// ---------------------------------------------------------------------------
// The dictionary.
// ---------------------------------------------------------------------------

/// The interner the dictionary replaced: one vector, one map.
#[derive(Default)]
struct ReferenceInterner {
    terms: Vec<Term>,
    ids: HashMap<Term, u32>,
}

impl ReferenceInterner {
    fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return TermId(id);
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        TermId(id)
    }
}

/// Term `i` of a pool that mixes kinds and shares lexical forms across
/// them, so equal text must not mean equal term.
fn pool_term(i: u32) -> Term {
    let text = format!("x{}", i / 4);
    match i % 4 {
        0 => Term::iri(text),
        1 => Term::literal(text),
        2 => Term::lang_literal(text, "en"),
        _ => Term::bnode(text),
    }
}

#[derive(Debug, Clone)]
enum DictOp {
    Intern(u32),
    Snapshot,
    Release(usize),
}

fn dict_op_strategy() -> impl Strategy<Value = DictOp> {
    prop_oneof![
        (0u32..400).prop_map(DictOp::Intern),
        (0u32..400).prop_map(DictOp::Intern),
        (0u32..40).prop_map(DictOp::Intern),
        Just(DictOp::Snapshot),
        (0usize..4).prop_map(DictOp::Release),
    ]
}

/// A dictionary (the writer's, or a snapshot of it) against the first
/// `len` terms of the reference.
fn check_dict(dict: &Dict, reference: &ReferenceInterner, len: usize) {
    assert_eq!(dict.len(), len);
    assert_eq!(dict.is_empty(), len == 0);
    let listed: Vec<(TermId, &Term)> = dict.iter().collect();
    assert_eq!(listed.len(), len, "iter length");
    for (i, term) in reference.terms.iter().enumerate() {
        let id = TermId(i as u32);
        if i < len {
            assert_eq!(listed[i], (id, term), "iter is in id order");
            assert_eq!(dict.resolve(id), term);
            assert_eq!(dict.try_resolve(id), Some(term));
            assert_eq!(dict.lookup(term), Some(id));
        } else {
            assert_eq!(dict.try_resolve(id), None, "id {i} is from later");
            assert_eq!(dict.lookup(term), None, "term {i} is from later");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ids are the reference interner's under any interleaving of interns
    /// and snapshots; a snapshot keeps resolving exactly what it could
    /// when it was taken — across every segment merge since — and never
    /// sees a later term.
    #[test]
    fn dictionary_matches_the_reference_interner(
        ops in proptest::collection::vec(dict_op_strategy(), 1..300),
    ) {
        let mut dict = Dict::new();
        let mut reference = ReferenceInterner::default();
        let mut retained: Vec<(Dict, usize)> = Vec::new();
        for op in &ops {
            match op {
                DictOp::Intern(i) => {
                    let term = pool_term(*i);
                    prop_assert_eq!(dict.intern(&term), reference.intern(&term));
                }
                DictOp::Snapshot => retained.push((dict.snapshot(), reference.terms.len())),
                DictOp::Release(n) => {
                    if !retained.is_empty() {
                        retained.remove(n % retained.len());
                    }
                }
            }
            if matches!(op, DictOp::Snapshot | DictOp::Release(_)) {
                check_dict(&dict, &reference, reference.terms.len());
                for (snapshot, len) in &retained {
                    check_dict(snapshot, &reference, *len);
                }
            }
        }
        check_dict(&dict, &reference, reference.terms.len());
        for (snapshot, len) in &retained {
            check_dict(snapshot, &reference, *len);
        }
    }
}
