//! One `stream_refresh` cycle at small scale, counted: a windowed
//! [`StreamIngestor`] publishes batches of facts between entities no
//! `sameAs` links, a [`FreshnessTracker`] hands each delta to a cached
//! session, and the session refreshes the relation the batch dirtied.
//!
//! The alignment reads its evidence only through `sameAs` links, so a
//! fact between unlinked entities moves none of the linked counts or
//! contrastive pages; the delta's links say so, and the check before a
//! re-mine asks again only the relation's own pages, which still hold.
//! Every refresh is counted through an [`InstrumentedEndpoint`] and the
//! leaves it sends are recorded, and after each the rules are a
//! from-scratch session's.

use sofya_core::{AlignerConfig, AlignmentSession};
use sofya_endpoint::{
    Endpoint, EndpointError, InstrumentedEndpoint, ManualClock, Request, Response, SnapshotStore,
};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::QueryBudget;
use sofya_stream::{IngestorConfig, KbSide, StreamIngestor};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";
const TICK: Duration = Duration::from_secs(1);

/// A linked pair where `d:birthPlace ⇒ y:born` is minable: 24 facts a
/// side, every entity linked. More than the 20 facts the relation's
/// first page shows, so a fact whose subject sorts after them leaves
/// that page as it is. Each person also lives in the next city, so UBS
/// reads a contrastive page of `y:born` against `y:livesIn`.
fn stores() -> (TripleStore, TripleStore) {
    let mut yago = TripleStore::new();
    let mut dbp = TripleStore::new();
    for i in 0..24 {
        let (py, pd) = (format!("y:p{i:02}"), format!("d:P{i:02}"));
        let (cy, cd) = (format!("y:c{i:02}"), format!("d:C{i:02}"));
        let next = Term::iri(format!("y:c{:02}", (i + 1) % 24));
        yago.insert_terms(&Term::iri(&py), &Term::iri("y:livesIn"), &next);
        yago.insert_terms(&Term::iri(&py), &Term::iri("y:born"), &Term::iri(&cy));
        dbp.insert_terms(&Term::iri(&pd), &Term::iri("d:birthPlace"), &Term::iri(&cd));
        yago.insert_terms(&Term::iri(&py), &Term::iri(SA), &Term::iri(&pd));
        yago.insert_terms(&Term::iri(&cy), &Term::iri(SA), &Term::iri(&cd));
        dbp.insert_terms(&Term::iri(&pd), &Term::iri(SA), &Term::iri(&py));
        dbp.insert_terms(&Term::iri(&cd), &Term::iri(SA), &Term::iri(&cy));
    }
    (dbp, yago)
}

/// Forwards to a store and keeps the text of every leaf it was sent, a
/// table row by row.
struct Recording<E> {
    inner: E,
    leaves: Mutex<Vec<String>>,
}

impl<E> Recording<E> {
    fn record(&self, req: &Request<'_>) {
        let text = match *req {
            Request::Table { prepared, rows } => {
                return rows
                    .iter()
                    .for_each(|args| self.record(&Request::leaf(prepared, args)))
            }
            Request::Batch(ref requests) => return requests.iter().for_each(|r| self.record(r)),
            Request::PreparedSelect { prepared, args }
            | Request::PreparedAsk { prepared, args }
            | Request::PreparedSelectPaged { prepared, args, .. } => prepared.render(args).unwrap(),
            Request::Select { query } | Request::Ask { query } => query.to_owned(),
        };
        self.leaves.lock().unwrap().push(text);
    }

    fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.leaves.lock().unwrap())
    }
}

impl<E: Endpoint> Endpoint for Recording<E> {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.record(&req);
        self.inner.execute_with_budget(req, budget)
    }
}

#[test]
fn a_refresh_after_facts_between_unlinked_entities_asks_only_the_relations_pages() {
    let (dbp, yago) = stores();
    let source = sofya_endpoint::LocalEndpoint::new("dbp", dbp);
    let clock = Arc::new(ManualClock::new());
    let mut ingestor = StreamIngestor::with_clock(
        SnapshotStore::new(yago),
        IngestorConfig {
            max_buffered: 64,
            publish_count: 4,
            publish_interval: None,
            window: Some(3 * TICK),
        },
        Arc::clone(&clock) as _,
    );
    let target = InstrumentedEndpoint::new(Recording {
        inner: ingestor.reader("yago"),
        leaves: Mutex::new(Vec::new()),
    });
    let scratch_target = ingestor.reader("yago");
    let config = AlignerConfig::paper_defaults(1);
    let session = AlignmentSession::new(&source, &target, config.clone());
    let mut tracker = ingestor.tracker(KbSide::Target);
    let cached = session.rules_for("y:born").unwrap();
    assert!(!cached.is_empty(), "the relation is minable");

    let counters = target.counters();
    let mut expired = 0;
    for cycle in 0..8 {
        clock.advance(TICK);
        // Four facts between entities the KB does not know; their
        // subjects sort after every linked one.
        let batch = (0..4).map(|i| {
            (
                Term::iri(format!("y:x{cycle}_{i}")),
                Term::iri("y:born"),
                Term::iri(format!("y:z{cycle}_{i}")),
            )
        });
        let delta = ingestor.offer_batch(batch).expect("a full batch publishes");
        expired += usize::from(delta.terms.len() > 8);
        assert!(delta.links().is_some(), "a published delta reads its links");
        counters.reset();
        target.inner().take();
        assert_eq!(tracker.sync(&session).newly_dirty, 1);
        assert_eq!(session.refresh_dirty().unwrap(), 1);
        let asked = target.inner().take();
        let rules = session.rules_for("y:born").unwrap();
        let scratch = AlignmentSession::new(&source, &scratch_target, config.clone());
        assert_eq!(rules, scratch.rules_for("y:born").unwrap(), "cycle {cycle}");
        if cycle == 0 {
            // The first delta turns the memo on; this refresh re-mines
            // and fills it.
            continue;
        }
        assert_eq!(
            (counters.total_queries(), counters.requests()),
            (2, 2),
            "cycle {cycle}: {asked:#?}"
        );
        let pages = [
            "SELECT ?x ?y WHERE { ?x <y:born> ?y . }",
            "SELECT ?x ?y ?x2 ?y2 WHERE { ?x <y:born> ?y . ?x <http://www.w3.org/2002/07/owl#sameAs> ?x2 . ?y <http://www.w3.org/2002/07/owl#sameAs> ?y2 . }",
        ];
        for (leaf, page) in asked.iter().zip(pages) {
            assert!(leaf.starts_with(page), "cycle {cycle}: asked {leaf}");
        }
        assert_eq!(
            rules, cached,
            "facts between unlinked entities move no rule"
        );
    }
    assert!(expired >= 4, "the window expired batches: {expired}");
}
