//! Evidence footprints: which parts of a KB an alignment actually read.
//!
//! Incremental re-alignment needs a *sound* answer to "did this publish
//! invalidate relation `r`'s cached rules?". The footprint is that
//! answer's data: while an [`crate::AlignmentSession`] aligns, its
//! endpoint wrappers walk every request's patterns — a prepared
//! template's as written, its parameters read through to the arguments,
//! nothing bound or cloned:
//!
//! * a pattern with a **constant predicate** contributes that predicate;
//! * a pattern with a **variable predicate** but a constant subject or
//!   object contributes that entity (its results change only if a triple
//!   touching that entity changes);
//! * a fully unbound pattern (`?s ?p ?o`) sets the **wildcard** flag.
//!
//! A [`PublishDelta`] carries the predicates and the subject/object
//! terms of every triple a publish added or removed, so
//! [`SideFootprint::is_dirty`] is a pair of set intersections. Both
//! sides hold 64-bit fingerprints of terms, and a delta is asked about
//! every cached relation, so it is fingerprinted once, into a
//! [`DeltaView`], and each intersection walks its smaller side: marking
//! costs the delta plus the footprints, not their product. The test
//! is conservative: it may re-mine a relation whose results did not
//! change, but a relation whose results *could* have changed is always
//! flagged — query answers depend only on the triples the patterns
//! match, and every added or removed triple is visible in the delta
//! through its predicate and through both its entities. Filters only
//! restrict results, so they never widen the footprint.
//!
//! The same walk, `for_each_pattern`, serves the session's probe
//! memo, which asks the finer question per answer: a pattern can match
//! a changed triple only if **every** one of its constants is in the
//! delta (`may_match`), so an answer survives a delta unless one of
//! its patterns does.

use sofya_endpoint::{PublishDelta, Request};
use sofya_rdf::Term;
use sofya_sparql::ast::GroupGraphPattern;
use sofya_sparql::{parse_query, Expr, NodePattern};
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A word-at-a-time hasher (FxHash's step, with a final mix so the low
/// bits a table indexes by are as good as the high ones), for keys that
/// are already [`fingerprint`]s or built from them: a table need not
/// hash those again the slow way.
#[derive(Default)]
pub(crate) struct Fx(u64);

impl Hasher for Fx {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

pub(crate) type FxBuild = BuildHasherDefault<Fx>;

/// 64 bits standing for a term in the dirtiness tests: its hash under
/// keys drawn once per process, so terms that arrive from outside cannot
/// be chosen to collide. Equal terms have equal fingerprints, so a test
/// that compares fingerprints may flag a change no triple made — when
/// two terms collide — but never misses one.
pub(crate) fn fingerprint(term: &Term) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new).hash_one(term)
}

/// A set of term fingerprints.
pub(crate) type Fingerprints = HashSet<u64, FxBuild>;

/// A [`PublishDelta`] fingerprinted once, to be asked about every
/// footprint and every memo answer.
#[derive(Debug)]
pub struct DeltaView {
    predicates: Fingerprints,
    terms: Fingerprints,
}

impl DeltaView {
    /// Indexes the delta's predicates and subject/object terms.
    pub fn new(delta: &PublishDelta) -> Self {
        Self {
            predicates: delta.predicates.iter().map(fingerprint).collect(),
            terms: delta.terms.iter().map(fingerprint).collect(),
        }
    }

    /// Whether the delta names no triple.
    pub(crate) fn is_empty(&self) -> bool {
        self.predicates.is_empty() && self.terms.is_empty()
    }

    pub(crate) fn has_predicate(&self, fingerprint: u64) -> bool {
        self.predicates.contains(&fingerprint)
    }

    pub(crate) fn has_term(&self, fingerprint: u64) -> bool {
        self.terms.contains(&fingerprint)
    }

    /// The fingerprints of the delta's predicates.
    pub(crate) fn predicates(&self) -> impl Iterator<Item = u64> + '_ {
        self.predicates.iter().copied()
    }

    /// The fingerprints of the delta's subject/object terms.
    pub(crate) fn terms(&self) -> impl Iterator<Item = u64> + '_ {
        self.terms.iter().copied()
    }
}

/// Whether the two sets share a term, probing from the smaller one.
fn intersects(ours: &Fingerprints, theirs: &Fingerprints) -> bool {
    if ours.len() <= theirs.len() {
        ours.iter().any(|t| theirs.contains(t))
    } else {
        theirs.iter().any(|t| ours.contains(t))
    }
}

/// Calls `visit` with every triple pattern of `group` — `UNION`
/// branches, `OPTIONAL` bodies and `EXISTS` bodies included — as
/// `[subject, predicate, object]`, each position resolved to its
/// constant: the term the template writes, or the argument `arg` says a
/// parameter stands for; `None` for a free variable.
pub(crate) fn for_each_pattern<'t>(
    group: &'t GroupGraphPattern,
    arg: &impl Fn(&str) -> Option<&'t Term>,
    visit: &mut impl FnMut([Option<&'t Term>; 3]),
) {
    let constant = |node: &'t NodePattern| match node {
        NodePattern::Term(term) => Some(term),
        NodePattern::Var(name) => arg(name),
    };
    for tp in &group.triples {
        visit([constant(&tp.s), constant(&tp.p), constant(&tp.o)]);
    }
    for branches in &group.unions {
        for branch in branches {
            for_each_pattern(branch, arg, visit);
        }
    }
    for optional in &group.optionals {
        for_each_pattern(optional, arg, visit);
    }
    for filter in &group.filters {
        exists_patterns(filter, arg, visit);
    }
}

/// [`for_each_pattern`] over the `EXISTS` bodies of a filter: they
/// match triples too, though their variables are scoped locally.
fn exists_patterns<'t>(
    expr: &'t Expr,
    arg: &impl Fn(&str) -> Option<&'t Term>,
    visit: &mut impl FnMut([Option<&'t Term>; 3]),
) {
    match expr {
        Expr::Exists { pattern, .. } => for_each_pattern(pattern, arg, visit),
        Expr::Compare(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            exists_patterns(a, arg, visit);
            exists_patterns(b, arg, visit);
        }
        Expr::Not(inner) => exists_patterns(inner, arg, visit),
        Expr::Call(_, args) => args.iter().for_each(|a| exists_patterns(a, arg, visit)),
        Expr::Var(_) | Expr::Const(_) => {}
    }
}

/// Whether a triple pattern `[subject, predicate, object]` may match a
/// triple a delta added or removed: only if each of its constants is in
/// the delta — the predicate among the delta's predicates, the subject
/// and the object among its terms. An all-variable pattern matches any
/// change.
pub(crate) fn may_match<T>(
    [s, p, o]: [Option<T>; 3],
    predicate: impl Fn(T) -> bool,
    term: impl Fn(T) -> bool,
) -> bool {
    p.is_none_or(predicate) && s.is_none_or(&term) && o.is_none_or(&term)
}

/// What one side (source or target endpoint) of an alignment read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SideFootprint {
    /// Constant predicates of the evidence queries, fingerprinted.
    predicates: Fingerprints,
    /// Constant subjects/objects of variable-predicate patterns,
    /// fingerprinted.
    entities: Fingerprints,
    /// A fully unbound pattern was issued (or a query could not be
    /// analysed): any mutation dirties this side.
    wildcard: bool,
}

impl SideFootprint {
    /// Whether a published delta could change any query this footprint
    /// covers. Sound over-approximation; see the module docs.
    pub fn is_dirty(&self, delta: &DeltaView) -> bool {
        if delta.is_empty() {
            return false;
        }
        self.wildcard
            || intersects(&self.predicates, &delta.predicates)
            || intersects(&self.entities, &delta.terms)
    }

    /// Number of predicates recorded (introspection / tests).
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Whether a fully unbound pattern was recorded.
    pub fn is_wildcard(&self) -> bool {
        self.wildcard
    }

    /// Whether the footprint covers the given predicate.
    pub fn covers_predicate(&self, predicate: &Term) -> bool {
        self.wildcard || self.predicates.contains(&fingerprint(predicate))
    }

    /// Records the patterns of `group`, nested bodies included; `arg`
    /// answers what a variable name is bound to, if it is a parameter.
    fn record_group<'t>(
        &mut self,
        group: &'t GroupGraphPattern,
        arg: &impl Fn(&str) -> Option<&'t Term>,
    ) {
        for_each_pattern(group, arg, &mut |[s, p, o]| match (p, s, o) {
            (Some(p), _, _) => {
                self.predicates.insert(fingerprint(p));
            }
            (None, Some(entity), _) | (None, None, Some(entity)) => {
                self.entities.insert(fingerprint(entity));
            }
            (None, None, None) => self.wildcard = true,
        });
    }

    pub(crate) fn record_request(&mut self, req: &Request<'_>) {
        match req {
            Request::Select { query } | Request::Ask { query } => match parse_query(query) {
                Ok(ast) => self.record_group(ast.pattern(), &|_| None),
                // Unparseable queries fail downstream anyway; stay sound.
                Err(_) => self.wildcard = true,
            },
            Request::PreparedSelect { prepared, args }
            | Request::PreparedAsk { prepared, args }
            | Request::PreparedSelectPaged { prepared, args, .. } => {
                match prepared.pattern_with(args) {
                    Ok((pattern, arg)) => self.record_group(pattern, &arg),
                    // An arity mismatch fails downstream too.
                    Err(_) => self.wildcard = true,
                }
            }
            Request::Table { prepared, rows } => {
                for args in *rows {
                    self.record_request(&Request::leaf(prepared, args));
                }
            }
            Request::Batch(requests) => {
                for sub in requests {
                    self.record_request(sub);
                }
            }
        }
    }
}

/// The two sides of one relation's evidence: what the alignment read
/// from the source endpoint and from the target endpoint.
#[derive(Debug, Clone, Default)]
pub struct EvidenceFootprint {
    /// Queries issued against the source KB (`K'`, where premises live).
    pub source: SideFootprint,
    /// Queries issued against the target KB (`K`).
    pub target: SideFootprint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::{Endpoint, EndpointError, Response};
    use sofya_sparql::QueryBudget;

    fn delta(preds: &[&str], terms: &[&str]) -> PublishDelta {
        PublishDelta {
            prev_epoch: 1,
            epoch: 2,
            predicates: preds.iter().map(|p| Term::iri(*p)).collect(),
            terms: terms.iter().map(|t| Term::iri(*t)).collect(),
        }
    }

    fn footprint_of(queries: &[&str]) -> SideFootprint {
        let mut fp = SideFootprint::default();
        for q in queries {
            fp.record_request(&Request::Select { query: q });
        }
        fp
    }

    #[test]
    fn constant_predicates_are_recorded() {
        let fp = footprint_of(&["SELECT ?x ?y { ?x <r:born> ?y . ?y <r:in> ?z }"]);
        assert_eq!(fp.predicate_count(), 2);
        assert!(fp.covers_predicate(&Term::iri("r:born")));
        assert!(fp.is_dirty(&DeltaView::new(&delta(&["r:born"], &[]))));
        assert!(!fp.is_dirty(&DeltaView::new(&delta(&["r:other"], &["e:unrelated"]))));
    }

    #[test]
    fn variable_predicate_with_constant_entity_tracks_the_entity() {
        // The "relations of an entity" discovery probe shape.
        let fp = footprint_of(&["SELECT ?p ?o { <e:alice> ?p ?o }"]);
        assert!(!fp.is_wildcard());
        assert!(fp.is_dirty(&DeltaView::new(&delta(&["r:any"], &["e:alice"]))));
        assert!(!fp.is_dirty(&DeltaView::new(&delta(&["r:any"], &["e:bob"]))));
    }

    #[test]
    fn fully_unbound_pattern_is_a_wildcard() {
        let fp = footprint_of(&["SELECT ?s ?p ?o { ?s ?p ?o }"]);
        assert!(fp.is_wildcard());
        assert!(fp.is_dirty(&DeltaView::new(&delta(&["r:any"], &[]))));
        // …but an empty delta dirties nothing, wildcard or not.
        assert!(!fp.is_dirty(&DeltaView::new(&PublishDelta::noop(3))));
    }

    #[test]
    fn union_optional_and_exists_bodies_are_walked() {
        let fp = footprint_of(&["SELECT ?x { { ?x <r:a> ?y } UNION { ?x <r:b> ?y } \
             OPTIONAL { ?x <r:c> ?z } \
             FILTER EXISTS { ?x <r:d> ?w } }"]);
        for p in ["r:a", "r:b", "r:c", "r:d"] {
            assert!(fp.covers_predicate(&Term::iri(p)), "missing {p}");
        }
        assert!(!fp.is_wildcard());
    }

    /// What `record_request` recorded before it stopped binding: the
    /// bound AST's patterns. Kept as the reference for the walk.
    fn recorded_from_bind(req: &Request<'_>, fp: &mut SideFootprint) {
        match req {
            Request::PreparedSelect { prepared, args }
            | Request::PreparedAsk { prepared, args }
            | Request::PreparedSelectPaged { prepared, args, .. } => match prepared.bind(args) {
                Ok(bound) => fp.record_group(bound.pattern(), &|_| None),
                Err(_) => fp.wildcard = true,
            },
            Request::Table { prepared, rows } => rows
                .iter()
                .for_each(|args| recorded_from_bind(&Request::leaf(prepared, args), fp)),
            Request::Batch(requests) => requests.iter().for_each(|r| recorded_from_bind(r, fp)),
            text => fp.record_request(text),
        }
    }

    /// Forwards to a store and holds every request's walked footprint
    /// equal to the one read off its bound AST.
    struct WalkEqualsBind {
        inner: sofya_endpoint::LocalEndpoint,
        leaves: std::sync::atomic::AtomicUsize,
    }

    impl Endpoint for WalkEqualsBind {
        fn execute_with_budget(
            &self,
            req: Request<'_>,
            budget: &QueryBudget,
        ) -> Result<Response, EndpointError> {
            let (mut walked, mut bound) = (SideFootprint::default(), SideFootprint::default());
            walked.record_request(&req);
            recorded_from_bind(&req, &mut bound);
            assert_eq!(walked, bound, "for {req:?}");
            assert!(
                !walked.predicates.is_empty() || !walked.entities.is_empty() || walked.wildcard
            );
            self.leaves
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.execute_with_budget(req, budget)
        }
    }

    #[test]
    fn every_helper_template_records_what_its_bound_form_records() {
        use sofya_endpoint::helpers::*;
        let ep = WalkEqualsBind {
            inner: sofya_endpoint::LocalEndpoint::new("kb", sofya_rdf::TripleStore::new()),
            leaves: Default::default(),
        };
        let mut x: u32 = 42;
        let mut iri = |kind: &str| {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            format!("{kind}:{}", (x >> 16) % 5)
        };
        for _ in 0..8 {
            let (r1, r2, sa) = (iri("r"), iri("r"), iri("sa"));
            let (a, b, c) = (iri("e"), iri("e"), iri("e"));
            all_relations(&ep).unwrap();
            relation_facts_page(&ep, &r1, 10, 0).unwrap();
            linked_entity_facts_page(&ep, &r1, &sa, 10, 5).unwrap();
            linked_literal_facts_page(&ep, &r2, &sa, 10, 0).unwrap();
            linked_entity_fact_count(&ep, &r1, &sa).unwrap();
            linked_literal_fact_count(&ep, &r2, &sa).unwrap();
            relations_of_entity_batch(&ep, &[&a, &b, &c]).unwrap();
            relations_between_batch(&ep, &[(&a, &b), (&b, &c)]).unwrap();
            objects_of_batch(&ep, &[(&a, &r1), (&c, &r2)]).unwrap();
            has_fact_batch(&ep, &r1, &[(&a, &b), (&a, &c), (&b, &b)]).unwrap();
            same_as_of(&ep, &a, &sa).unwrap();
            linked_contrastive_subjects_page(&ep, &r1, &r2, &sa, 10, 0).unwrap();
        }
        assert_eq!(
            ep.leaves.into_inner(),
            8 * 12,
            "one request per helper call"
        );
    }

    #[test]
    fn parameters_inside_nested_bodies_and_arity_mismatches() {
        use sofya_sparql::Prepared;
        let nested = Prepared::new(
            "SELECT ?x { { ?x ?a ?y } UNION { ?s ?q ?x } OPTIONAL { ?x ?b ?z } \
             FILTER(?z != ?s) FILTER NOT EXISTS { ?x ?c ?o } FILTER EXISTS { ?w ?v ?o } }",
            &["a", "b", "c", "s", "o"],
        )
        .unwrap();
        let args: Vec<Term> = ["r:a", "r:b", "r:c", "e:s", "e:o"].map(Term::iri).into();
        for args in [&args[..], &args[..3]] {
            let req = Request::PreparedSelect {
                prepared: &nested,
                args,
            };
            let (mut walked, mut bound) = (SideFootprint::default(), SideFootprint::default());
            walked.record_request(&req);
            recorded_from_bind(&req, &mut bound);
            assert_eq!(walked, bound);
            // Short of arguments, nothing can be read off: wildcard.
            assert_eq!(walked.is_wildcard(), args.len() < 5);
        }
        let fp = {
            let mut fp = SideFootprint::default();
            fp.record_request(&Request::PreparedSelect {
                prepared: &nested,
                args: &args,
            });
            fp
        };
        assert_eq!(fp.predicate_count(), 3);
        assert_eq!(
            fp.entities,
            [Term::iri("e:s"), Term::iri("e:o")]
                .iter()
                .map(fingerprint)
                .collect()
        );
    }

    proptest::proptest! {
        /// The view-based test against its definition, over a universe
        /// small enough to intersect often, with either side the larger.
        #[test]
        fn dirtiness_equals_its_definition(
            wildcard in 0u8..4,
            fp_preds in proptest::collection::vec(0u8..12, 0..8),
            fp_ents in proptest::collection::vec(0u8..40, 0..24),
            delta_preds in proptest::collection::vec(0u8..12, 0..8),
            delta_terms in proptest::collection::vec(0u8..40, 0..24),
        ) {
            let terms = |ids: &[u8]| -> Vec<Term> {
                ids.iter().map(|i| Term::iri(format!("t:{i}"))).collect()
            };
            let fp = SideFootprint {
                predicates: terms(&fp_preds).iter().map(fingerprint).collect(),
                entities: terms(&fp_ents).iter().map(fingerprint).collect(),
                wildcard: wildcard == 0,
            };
            let mut delta = delta(&[], &[]);
            delta.terms = terms(&delta_terms);
            delta.predicates = terms(&delta_preds);
            let defined = !delta.is_empty()
                && (fp.wildcard
                    || delta.predicates.iter().any(|p| fp.covers_predicate(p))
                    || delta.terms.iter().any(|t| fp.entities.contains(&fingerprint(t))));
            proptest::prop_assert_eq!(fp.is_dirty(&DeltaView::new(&delta)), defined);
        }
    }

    #[test]
    fn unparseable_query_degrades_to_wildcard() {
        let fp = footprint_of(&["SELECT ?x { this is not sparql"]);
        assert!(fp.is_wildcard());
    }
}
