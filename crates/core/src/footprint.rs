//! Evidence footprints: which parts of a KB an alignment actually read.
//!
//! Incremental re-alignment needs a *sound* answer to "did this publish
//! invalidate relation `r`'s cached rules?". The footprint is that
//! answer's data: while [`crate::Aligner::align_relation_traced`] runs,
//! a `RecordingEndpoint` wraps each endpoint and inspects every
//! request's (bound) AST:
//!
//! * a pattern with a **constant predicate** contributes that predicate;
//! * a pattern with a **variable predicate** but a constant subject or
//!   object contributes that entity (its results change only if a triple
//!   touching that entity changes);
//! * a fully unbound pattern (`?s ?p ?o`) sets the **wildcard** flag.
//!
//! A [`PublishDelta`] carries the predicates touched and the
//! subject/object terms of every mutated triple, so
//! [`SideFootprint::is_dirty`] is a pair of set intersections. The test
//! is conservative: it may re-mine a relation whose results did not
//! change, but a relation whose results *could* have changed is always
//! flagged — query answers depend only on the triples the patterns
//! match, and every mutated triple is visible in the delta through its
//! predicate and through both its entities. Filters only restrict
//! results, so they never widen the footprint.

use sofya_endpoint::{Endpoint, EndpointError, PublishDelta, Request, Response};
use sofya_rdf::Term;
use sofya_sparql::ast::GroupGraphPattern;
use sofya_sparql::{parse_query, Expr, NodePattern, Query, QueryBudget};
use std::collections::HashSet;
use std::sync::Mutex;

/// What one side (source or target endpoint) of an alignment read.
#[derive(Debug, Clone, Default)]
pub struct SideFootprint {
    /// Constant predicates of the evidence queries.
    predicates: HashSet<Term>,
    /// Constant subjects/objects of variable-predicate patterns.
    entities: HashSet<Term>,
    /// A fully unbound pattern was issued (or a query could not be
    /// analysed): any mutation dirties this side.
    wildcard: bool,
}

impl SideFootprint {
    /// Whether a published delta could change any query this footprint
    /// covers. Sound over-approximation; see the module docs.
    pub fn is_dirty(&self, delta: &PublishDelta) -> bool {
        if delta.is_empty() {
            return false;
        }
        if self.wildcard {
            return true;
        }
        delta
            .predicates
            .iter()
            .any(|pd| self.predicates.contains(&pd.predicate))
            || delta.terms.iter().any(|t| self.entities.contains(t))
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
        self.wildcard || self.predicates.contains(predicate)
    }

    fn record_query(&mut self, query: &Query) {
        match query {
            Query::Select(select) => self.record_group(&select.pattern),
            Query::Ask(pattern) => self.record_group(pattern),
        }
    }

    fn record_group(&mut self, group: &GroupGraphPattern) {
        for tp in &group.triples {
            match &tp.p {
                NodePattern::Term(p) => {
                    self.predicates.insert(p.clone());
                }
                NodePattern::Var(_) => match (&tp.s, &tp.o) {
                    (NodePattern::Term(s), _) => {
                        self.entities.insert(s.clone());
                    }
                    (_, NodePattern::Term(o)) => {
                        self.entities.insert(o.clone());
                    }
                    _ => self.wildcard = true,
                },
            }
        }
        for branches in &group.unions {
            for branch in branches {
                self.record_group(branch);
            }
        }
        for optional in &group.optionals {
            self.record_group(optional);
        }
        // EXISTS bodies match triples too; walk them even though their
        // variables are scoped locally.
        for filter in &group.filters {
            self.record_expr(filter);
        }
    }

    fn record_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Exists { pattern, .. } => self.record_group(pattern),
            Expr::Compare(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                self.record_expr(a);
                self.record_expr(b);
            }
            Expr::Not(inner) => self.record_expr(inner),
            Expr::Call(_, args) => {
                for a in args {
                    self.record_expr(a);
                }
            }
            Expr::Var(_) | Expr::Const(_) => {}
        }
    }

    fn record_request(&mut self, req: &Request<'_>) {
        match req {
            Request::Select { query } | Request::Ask { query } => match parse_query(query) {
                Ok(ast) => self.record_query(&ast),
                // Unparseable queries fail downstream anyway; stay sound.
                Err(_) => self.wildcard = true,
            },
            Request::PreparedSelect { prepared, args }
            | Request::PreparedAsk { prepared, args }
            | Request::PreparedSelectPaged { prepared, args, .. } => match prepared.bind(args) {
                Ok(ast) => self.record_query(&ast),
                Err(_) => self.wildcard = true,
            },
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

/// An [`Endpoint`] wrapper that records the footprint of every request
/// it forwards. Forwarding is transparent (same responses, same budget
/// handling), so a traced alignment is bit-identical to an untraced one.
pub(crate) struct RecordingEndpoint<'a> {
    inner: &'a dyn Endpoint,
    footprint: Mutex<SideFootprint>,
}

impl<'a> RecordingEndpoint<'a> {
    pub(crate) fn new(inner: &'a dyn Endpoint) -> Self {
        Self {
            inner,
            footprint: Mutex::new(SideFootprint::default()),
        }
    }

    pub(crate) fn into_footprint(self) -> SideFootprint {
        self.footprint
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, req: &Request<'_>) {
        self.footprint
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record_request(req);
    }
}

impl Endpoint for RecordingEndpoint<'_> {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.record(&req);
        self.inner.execute_with_budget(req, budget)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::PredicateDelta;

    fn delta(preds: &[&str], terms: &[&str]) -> PublishDelta {
        PublishDelta {
            prev_epoch: 1,
            epoch: 2,
            predicates: preds
                .iter()
                .map(|p| PredicateDelta {
                    predicate: Term::iri(*p),
                    inserts: 1,
                    removes: 0,
                })
                .collect(),
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
        assert!(fp.is_dirty(&delta(&["r:born"], &[])));
        assert!(!fp.is_dirty(&delta(&["r:other"], &["e:unrelated"])));
    }

    #[test]
    fn variable_predicate_with_constant_entity_tracks_the_entity() {
        // The "relations of an entity" discovery probe shape.
        let fp = footprint_of(&["SELECT ?p ?o { <e:alice> ?p ?o }"]);
        assert!(!fp.is_wildcard());
        assert!(fp.is_dirty(&delta(&["r:any"], &["e:alice"])));
        assert!(!fp.is_dirty(&delta(&["r:any"], &["e:bob"])));
    }

    #[test]
    fn fully_unbound_pattern_is_a_wildcard() {
        let fp = footprint_of(&["SELECT ?s ?p ?o { ?s ?p ?o }"]);
        assert!(fp.is_wildcard());
        assert!(fp.is_dirty(&delta(&["r:any"], &[])));
        // …but an empty delta dirties nothing, wildcard or not.
        assert!(!fp.is_dirty(&PublishDelta::noop(3)));
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

    #[test]
    fn unparseable_query_degrades_to_wildcard() {
        let fp = footprint_of(&["SELECT ?x { this is not sparql"]);
        assert!(fp.is_wildcard());
    }
}
