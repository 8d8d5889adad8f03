//! Delta subscription: keeping an [`AlignmentSession`] honest about a
//! store that keeps publishing.
//!
//! A [`FreshnessTracker`] remembers the last epoch it applied to the
//! session and, on every [`FreshnessTracker::sync`], asks the store's
//! [`DeltaLog`] for the gap. Three outcomes mirror
//! [`sofya_endpoint::CatchUp`]:
//!
//! * **up to date** — nothing to do;
//! * **replayable gap** — each missed [`sofya_endpoint::PublishDelta`]
//!   is applied in order, its ids read in the dictionary of the snapshot
//!   current after the deltas were taken (a publish swaps its snapshot in
//!   before it pushes its delta), marking dirty exactly the cached
//!   relations whose evidence footprints intersect it;
//! * **evicted gap** — the ring no longer covers the subscriber's
//!   epoch, so footprint-based dirtiness cannot be decided: the session
//!   drops every cached alignment ([`AlignmentSession::invalidate_all`])
//!   and the tracker resubscribes at the latest epoch.
//!
//! After applying, the tracker updates the shared [`FreshnessGauge`]:
//! `dirty_relations` (how many cached alignments are stale right now)
//! and `staleness_epochs` (how far, in store generations, the session
//! has drifted since it was last fully clean). Call `sync` again after
//! [`AlignmentSession::refresh_dirty`] so the gauges observe the
//! recovery.

use sofya_core::AlignmentSession;
use sofya_endpoint::{CatchUp, ConcurrentEndpoint, DeltaLog, FreshnessGauge, SnapshotStore};
use std::sync::Arc;

/// Which side of an [`AlignmentSession`] a store feeds: the source KB
/// `K'` (where rule premises are mined) or the target KB `K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KbSide {
    /// Deltas dirty relations through their source-side footprints.
    Source,
    /// Deltas dirty relations through their target-side footprints.
    Target,
}

/// What one [`FreshnessTracker::sync`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncOutcome {
    /// Deltas replayed from the ring.
    pub applied: usize,
    /// Cached relations newly marked dirty by this sync.
    pub newly_dirty: usize,
    /// The gap was evicted: every cached alignment was dropped and the
    /// tracker resubscribed at the latest epoch.
    pub resynced: bool,
}

/// One store's delta subscription on behalf of one alignment session.
///
/// A session over two live stores holds two trackers — one per
/// [`KbSide`] — each pacing its own store's delta ring.
pub struct FreshnessTracker {
    log: Arc<DeltaLog>,
    /// The store's published state, whose dictionary reads the deltas.
    published: ConcurrentEndpoint,
    gauge: Arc<FreshnessGauge>,
    side: KbSide,
    last_applied: u64,
    /// The epoch at which the session was last observed fully clean;
    /// `last_applied - clean_epoch` is the staleness gauge.
    clean_epoch: u64,
}

impl FreshnessTracker {
    /// Subscribes at the store's currently published epoch.
    pub fn new(store: &SnapshotStore, side: KbSide) -> Self {
        let epoch = store.current().version();
        Self {
            log: store.delta_log(),
            published: store.reader("tracker"),
            gauge: store.freshness(),
            side,
            last_applied: epoch,
            clean_epoch: epoch,
        }
    }

    /// The newest epoch whose delta has been applied to the session.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Which session side this tracker feeds.
    pub fn side(&self) -> KbSide {
        self.side
    }

    /// Catches the session up to the store's latest published epoch and
    /// refreshes the freshness gauges.
    pub fn sync(&mut self, session: &AlignmentSession<'_>) -> SyncOutcome {
        let mut outcome = SyncOutcome::default();
        match self.log.deltas_since(self.last_applied) {
            CatchUp::UpToDate => {}
            CatchUp::Deltas(deltas) => {
                let current = self.published.current();
                let dict = current.snapshot().dict();
                for delta in &deltas {
                    outcome.newly_dirty += match self.side {
                        KbSide::Source => session.apply_source_delta(delta, dict),
                        KbSide::Target => session.apply_target_delta(delta, dict),
                    };
                    self.last_applied = delta.epoch;
                }
                outcome.applied = deltas.len();
            }
            CatchUp::Resync { latest_epoch, .. } => {
                session.invalidate_all();
                self.last_applied = latest_epoch;
                // Nothing cached survives, so nothing is stale either.
                self.clean_epoch = latest_epoch;
                outcome.resynced = true;
            }
        }
        let dirty = session.dirty_count() as u64;
        if dirty == 0 {
            self.clean_epoch = self.last_applied;
        }
        self.gauge.set_dirty_relations(dirty);
        self.gauge
            .set_staleness_epochs(self.last_applied.saturating_sub(self.clean_epoch));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_core::AlignerConfig;
    use sofya_endpoint::Endpoint;
    use sofya_rdf::{Term, TripleStore};

    const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

    /// A linked pair where `d:birthPlace ⇒ y:born` is minable.
    fn stores() -> (TripleStore, TripleStore) {
        let mut yago = TripleStore::new();
        let mut dbp = TripleStore::new();
        for i in 0..8 {
            let (py, pd) = (format!("y:p{i}"), format!("d:P{i}"));
            let (cy, cd) = (format!("y:c{i}"), format!("d:C{i}"));
            yago.insert_terms(&Term::iri(&py), &Term::iri("y:born"), &Term::iri(&cy));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri("d:birthPlace"), &Term::iri(&cd));
            yago.insert_terms(&Term::iri(&py), &Term::iri(SA), &Term::iri(&pd));
            yago.insert_terms(&Term::iri(&cy), &Term::iri(SA), &Term::iri(&cd));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri(SA), &Term::iri(&py));
            dbp.insert_terms(&Term::iri(&cd), &Term::iri(SA), &Term::iri(&cy));
        }
        (dbp, yago)
    }

    #[test]
    fn sync_applies_the_gap_and_updates_gauges() {
        let (dbp, yago) = stores();
        let source = sofya_endpoint::LocalEndpoint::new("dbp", dbp);
        let mut target_writer = SnapshotStore::new(yago);
        let target = target_writer.reader("yago");
        let gauge = target_writer.freshness();

        let session = AlignmentSession::new(
            &source,
            &target as &dyn Endpoint,
            AlignerConfig::paper_defaults(1),
        );
        let mut tracker = FreshnessTracker::new(&target_writer, KbSide::Target);
        session.rules_for("y:born").unwrap();
        assert_eq!(tracker.sync(&session), SyncOutcome::default());
        assert_eq!(gauge.dirty_relations(), 0);

        // Two publishes land while the tracker sleeps: one unrelated,
        // one touching the mined relation.
        target_writer.store_mut().insert_terms(
            &Term::iri("y:x"),
            &Term::iri("y:unrelated"),
            &Term::iri("y:y"),
        );
        target_writer.publish();
        target_writer.store_mut().insert_terms(
            &Term::iri("y:p0"),
            &Term::iri("y:born"),
            &Term::iri("y:elsewhere"),
        );
        target_writer.publish();

        let outcome = tracker.sync(&session);
        assert_eq!(outcome.applied, 2);
        assert_eq!(outcome.newly_dirty, 1);
        assert!(!outcome.resynced);
        assert_eq!(session.dirty_relations(), vec!["y:born"]);
        assert_eq!(gauge.dirty_relations(), 1);
        assert!(gauge.staleness_epochs() > 0);
        assert_eq!(tracker.last_applied(), target_writer.current().version());

        // Refresh, then sync again: gauges observe the recovery.
        assert_eq!(session.refresh_dirty().unwrap(), 1);
        tracker.sync(&session);
        assert_eq!(gauge.dirty_relations(), 0);
        assert_eq!(gauge.staleness_epochs(), 0);
    }

    /// A publish reports its net change: inserting and then removing a
    /// triple the mined relation reads leaves it clean.
    #[test]
    fn writes_that_cancel_within_a_publish_dirty_nothing() {
        let (dbp, yago) = stores();
        let source = sofya_endpoint::LocalEndpoint::new("dbp", dbp);
        let mut target_writer = SnapshotStore::new(yago);
        let target = target_writer.reader("yago");
        let session = AlignmentSession::new(
            &source,
            &target as &dyn Endpoint,
            AlignerConfig::paper_defaults(1),
        );
        let mut tracker = FreshnessTracker::new(&target_writer, KbSide::Target);
        session.rules_for("y:born").unwrap();

        let store = target_writer.store_mut();
        let (s, p, o) = (Term::iri("y:p0"), Term::iri("y:born"), Term::iri("y:c1"));
        assert!(store.insert_terms(&s, &p, &o));
        let ids = (store.intern(&s), store.intern(&p), store.intern(&o));
        assert!(store.remove(ids.0, ids.1, ids.2));
        assert!(!target_writer.publish().is_noop());

        let outcome = tracker.sync(&session);
        assert_eq!((outcome.applied, outcome.newly_dirty), (1, 0));
        assert!(session.dirty_relations().is_empty());
    }

    #[test]
    fn evicted_gap_invalidates_everything() {
        let (dbp, yago) = stores();
        let source = sofya_endpoint::LocalEndpoint::new("dbp", dbp);
        // A 1-slot ring: two publishes evict the subscriber's gap.
        let mut target_writer = SnapshotStore::with_delta_capacity(yago, 1);
        let target = target_writer.reader("yago");

        let session = AlignmentSession::new(
            &source,
            &target as &dyn Endpoint,
            AlignerConfig::paper_defaults(1),
        );
        let mut tracker = FreshnessTracker::new(&target_writer, KbSide::Target);
        session.rules_for("y:born").unwrap();

        for i in 0..2 {
            target_writer.store_mut().insert_terms(
                &Term::iri(format!("y:n{i}")),
                &Term::iri("y:unrelated"),
                &Term::iri(format!("y:m{i}")),
            );
            target_writer.publish();
        }
        let outcome = tracker.sync(&session);
        assert!(outcome.resynced, "{outcome:?}");
        assert!(
            session.cached_relations().is_empty(),
            "resync must drop every cached alignment"
        );
        assert_eq!(tracker.last_applied(), target_writer.current().version());
        // Subscribed again: the next publish replays incrementally.
        target_writer.store_mut().insert_terms(
            &Term::iri("y:n9"),
            &Term::iri("y:unrelated"),
            &Term::iri("y:m9"),
        );
        target_writer.publish();
        let outcome = tracker.sync(&session);
        assert_eq!((outcome.applied, outcome.resynced), (1, false));
    }
}
