//! Per-predicate and store-level statistics.
//!
//! SOFYA's candidate pruning and the SPARQL engine's join ordering both
//! need cheap cardinality estimates: how many facts a predicate has and
//! how many distinct subjects/objects.
//!
//! The per-predicate table is the expensive part, and it is local: a
//! predicate's row depends on that predicate's page alone. So a store
//! that differs from one whose statistics are known only in a few pages
//! gets its own by [`StoreStats::inherit`] — the table copied, the
//! touched rows recomputed by the routine [`StoreStats::compute`] runs
//! for every row. The two store-level distinct counts are not local;
//! they are counted when first asked for, from the store the caller
//! holds, and most queries never ask.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::dict::TermId;
use crate::store::TripleStore;

/// Statistics for a single predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredicateStats {
    /// The predicate's term id.
    pub predicate: TermId,
    /// Total number of facts `p(x, y)`.
    pub facts: usize,
    /// Number of distinct subjects.
    pub distinct_subjects: usize,
    /// Number of distinct objects.
    pub distinct_objects: usize,
    /// Fraction of facts whose object is a literal.
    pub literal_object_ratio: f64,
}

/// Statistics for a whole store, keyed by predicate.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    by_predicate: BTreeMap<TermId, PredicateStats>,
    total_triples: usize,
    distinct_subjects: OnceLock<usize>,
    distinct_objects: OnceLock<usize>,
}

impl StoreStats {
    /// Computes statistics for every predicate of `store`, each in one
    /// linear pass over its POS page.
    pub fn compute(store: &TripleStore) -> Self {
        Self::default().inherit(store.predicates(), store)
    }

    /// The statistics of `store`, given that `self` describes a store
    /// differing from it in the pages of `touched` at most: those rows
    /// are recomputed (a page gone empty leaves the table, a new
    /// predicate enters it), every other row is copied. Equal to
    /// [`StoreStats::compute`] of `store`.
    pub fn inherit(&self, touched: impl IntoIterator<Item = TermId>, store: &TripleStore) -> Self {
        let mut by_predicate = self.by_predicate.clone();
        let mut subjects_scratch: Vec<u32> = Vec::new();
        for p in touched {
            match predicate_stats(store, p, &mut subjects_scratch) {
                Some(row) => by_predicate.insert(p, row),
                None => by_predicate.remove(&p),
            };
        }
        Self {
            by_predicate,
            total_triples: store.len(),
            distinct_subjects: OnceLock::new(),
            distinct_objects: OnceLock::new(),
        }
    }

    /// Stats for one predicate, if present.
    pub fn get(&self, p: TermId) -> Option<&PredicateStats> {
        self.by_predicate.get(&p)
    }

    /// Iterates over all predicate stats in predicate-id order.
    pub fn iter(&self) -> impl Iterator<Item = &PredicateStats> {
        self.by_predicate.values()
    }

    /// Number of distinct predicates.
    pub fn predicate_count(&self) -> usize {
        self.by_predicate.len()
    }

    /// Total triples in the store at computation time.
    pub fn total_triples(&self) -> usize {
        self.total_triples
    }

    /// Distinct subjects across the whole store (any predicate): one
    /// pass over the SPO order of `store` — the store these statistics
    /// describe — on first use, remembered afterwards.
    pub fn distinct_subjects(&self, store: &TripleStore) -> usize {
        *self
            .distinct_subjects
            .get_or_init(|| store.distinct_subject_count())
    }

    /// Distinct objects across the whole store (any predicate), counted
    /// over the OSP order like [`StoreStats::distinct_subjects`].
    pub fn distinct_objects(&self, store: &TripleStore) -> usize {
        *self
            .distinct_objects
            .get_or_init(|| store.distinct_object_count())
    }
}

/// One predicate's row, or `None` if its page is empty. The page is
/// sorted by `(o, s)`, so distinct objects fall out of a dedup walk (each
/// object term resolved once per distinct value), and distinct subjects
/// need one scratch sort.
fn predicate_stats(
    store: &TripleStore,
    p: TermId,
    subjects_scratch: &mut Vec<u32>,
) -> Option<PredicateStats> {
    let mut facts = 0usize;
    let mut literal_objects = 0usize;
    let mut distinct_objects = 0usize;
    let mut last_object = None;
    let mut last_is_literal = false;
    subjects_scratch.clear();
    for (o, s) in store.predicate_pairs(p) {
        facts += 1;
        subjects_scratch.push(s.0);
        if last_object != Some(o) {
            distinct_objects += 1;
            last_object = Some(o);
            last_is_literal = store.dict().resolve(o).is_literal();
        }
        if last_is_literal {
            literal_objects += 1;
        }
    }
    subjects_scratch.sort_unstable();
    subjects_scratch.dedup();
    (facts > 0).then(|| PredicateStats {
        predicate: p,
        facts,
        distinct_subjects: subjects_scratch.len(),
        distinct_objects,
        literal_object_ratio: literal_objects as f64 / facts as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn sample_store() -> TripleStore {
        let mut s = TripleStore::new();
        // p: 3 facts, 2 subjects, 3 objects, all entities.
        s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("x"));
        s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("y"));
        s.insert_terms(&Term::iri("b"), &Term::iri("p"), &Term::iri("z"));
        // name: 2 facts, literal objects.
        s.insert_terms(&Term::iri("a"), &Term::iri("name"), &Term::literal("Alice"));
        s.insert_terms(&Term::iri("b"), &Term::iri("name"), &Term::literal("Bob"));
        s
    }

    #[test]
    fn counts_are_correct() {
        let store = sample_store();
        let stats = StoreStats::compute(&store);
        assert_eq!(stats.predicate_count(), 2);
        assert_eq!(stats.total_triples(), 5);

        let p = store.dict().lookup_iri("p").unwrap();
        let ps = stats.get(p).unwrap();
        assert_eq!(ps.facts, 3);
        assert_eq!(ps.distinct_subjects, 2);
        assert_eq!(ps.distinct_objects, 3);
        assert_eq!(ps.literal_object_ratio, 0.0);
    }

    #[test]
    fn store_level_distinct_counts() {
        let store = sample_store();
        let stats = StoreStats::compute(&store);
        // Subjects a, b; objects x, y, z plus the two name literals.
        assert_eq!(stats.distinct_subjects(&store), 2);
        assert_eq!(stats.distinct_objects(&store), 5);
    }

    #[test]
    fn missing_predicate_is_none() {
        let stats = StoreStats::compute(&TripleStore::new());
        assert!(stats.get(TermId(0)).is_none());
        assert_eq!(stats.predicate_count(), 0);
    }
}
