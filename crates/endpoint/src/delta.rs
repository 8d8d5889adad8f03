//! The publish-time delta feed: what changed between two epochs.
//!
//! Every [`crate::SnapshotStore::publish`] learns what it changed from
//! the one definition of it, [`sofya_rdf::StoreSnapshot::diff_since`] the
//! outgoing snapshot (a durable publish takes it from its log's commit),
//! and keeps it as a [`PublishDelta`]: the new epoch, the predicates of
//! the triples added or removed, and their subject/object terms, as ids.
//! A subscriber reads those in the dictionary of any snapshot of the same
//! writer at or after the delta's epoch, as ids only grow; the delta holds
//! no dictionary and no strong reference to a snapshot, which would pin
//! what the writer frees. The change is net: writes that cancel within
//! one publish show nowhere. With them it carries the [`DeltaLinks`] of
//! its terms, read only when a subscriber first asks. Subscribers (the
//! incremental alignment session, external change consumers) use it to
//! decide *which* cached work a publish invalidated.
//!
//! A [`DeltaLog`] ring retains the last K deltas so a subscriber that
//! missed some publishes can catch up by replaying the gap; if the gap
//! has been evicted, [`DeltaLog::deltas_since`] answers
//! [`CatchUp::Resync`] and the subscriber must rebuild from the current
//! snapshot.

use crate::concurrent::PublishedSnapshot;
use parking_lot::Mutex;
use sofya_rdf::TermId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Default number of deltas the ring retains.
pub const DEFAULT_DELTA_LOG_CAPACITY: usize = 64;

/// Everything that changed between two published epochs.
///
/// A **no-op** delta (`epoch == prev_epoch`) is returned by a publish
/// that found nothing to publish; it is never appended to the
/// [`DeltaLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishDelta {
    /// The epoch this delta upgraded readers *from*.
    pub prev_epoch: u64,
    /// The epoch readers see after this publish.
    pub epoch: u64,
    /// Predicates of the triples added or removed, ascending.
    pub predicates: Vec<TermId>,
    /// Subject/object terms of the triples added or removed, ascending.
    pub terms: Vec<TermId>,
    /// What the triples the publish left as they were say of `terms`;
    /// see [`PublishDelta::links`]. A delta built by hand has none:
    /// `DeltaLinks::default()`.
    pub links: DeltaLinks,
}

impl PublishDelta {
    /// A delta covering no change at all (publish fast path).
    pub fn noop(epoch: u64) -> Self {
        Self {
            prev_epoch: epoch,
            epoch,
            predicates: Vec::new(),
            terms: Vec::new(),
            links: DeltaLinks::default(),
        }
    }

    /// The links of the delta's terms: the predicates, outside
    /// `predicates`, of the triples with one of `terms` as subject, and
    /// of those with one as object. Such a triple is one the publish
    /// left as it was, so it held before the publish too. Read on first
    /// call from the snapshot this delta published, never a later one:
    /// a later publish may have removed a link this one left. `None`
    /// once that snapshot is gone before the first call, and for a
    /// delta built by hand.
    pub fn links(&self) -> Option<&Links> {
        self.links
            .read
            .get_or_init(|| self.links.read_off(&self.terms, &self.predicates))
            .as_ref()
    }

    /// Whether the delta names no triple: a no-op, or a publish whose
    /// writes cancelled out.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty() && self.terms.is_empty()
    }

    /// Whether this was a publish with nothing to publish (the epoch did
    /// not advance).
    pub fn is_noop(&self) -> bool {
        self.epoch == self.prev_epoch
    }
}

/// The predicates of a delta's links, by the position its term holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Links {
    /// Predicates of unchanged triples whose subject is a delta term.
    pub subject: Vec<TermId>,
    /// Predicates of unchanged triples whose object is a delta term.
    pub object: Vec<TermId>,
}

/// Where a delta's [`Links`] come from, and once read, what they are.
/// The published snapshot is held weakly, so a delta in the ring keeps
/// no retired snapshot alive, and the links cost a publish nothing until
/// a subscriber asks.
#[derive(Debug, Clone, Default)]
pub struct DeltaLinks {
    published: Weak<PublishedSnapshot>,
    read: OnceLock<Option<Links>>,
}

impl DeltaLinks {
    /// The links of the delta that published `published`.
    pub(crate) fn new(published: &Arc<PublishedSnapshot>) -> Self {
        Self {
            published: Arc::downgrade(published),
            read: OnceLock::new(),
        }
    }

    /// One walk of the snapshot's indexes for `terms`, outside `predicates`.
    fn read_off(&self, terms: &[TermId], predicates: &[TermId]) -> Option<Links> {
        let published = self.published.upgrade()?;
        let [subject, object] = (published.snapshot().predicates_touching(terms)).map(|mut ps| {
            ps.retain(|p| predicates.binary_search(p).is_err());
            ps
        });
        Some(Links { subject, object })
    }
}

/// Links are read off the snapshot, not part of the change: deltas are
/// equal when their changes are.
impl PartialEq for DeltaLinks {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DeltaLinks {}

/// How a subscriber at some past epoch gets back to the present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatchUp {
    /// Already at the latest epoch; nothing to apply.
    UpToDate,
    /// Apply these deltas in order to reach the latest epoch.
    Deltas(Vec<Arc<PublishDelta>>),
    /// The gap has been evicted from the ring: rebuild from the current
    /// snapshot (invalidate all derived state), then subscribe from
    /// `latest_epoch`.
    Resync {
        /// Oldest epoch still reachable through the ring (the
        /// `prev_epoch` of its oldest delta), if any delta is retained.
        oldest_reachable: Option<u64>,
        /// The epoch a resynced subscriber should restart from.
        latest_epoch: u64,
    },
}

/// A bounded ring of the most recent [`PublishDelta`]s, shared between
/// the writer (producer) and any number of subscribers (consumers).
#[derive(Debug)]
pub struct DeltaLog {
    ring: Mutex<VecDeque<Arc<PublishDelta>>>,
    capacity: usize,
    /// The epoch of the newest published state (kept even when the ring
    /// is empty, so `deltas_since` can answer `UpToDate` right after
    /// construction).
    latest: AtomicU64,
}

impl DeltaLog {
    /// An empty log retaining up to `capacity` deltas, starting at
    /// `initial_epoch`.
    pub fn new(capacity: usize, initial_epoch: u64) -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            latest: AtomicU64::new(initial_epoch),
        }
    }

    /// Number of deltas currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no delta is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of retained deltas.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The newest published epoch this log knows about.
    pub fn latest_epoch(&self) -> u64 {
        self.latest.load(Ordering::Acquire)
    }

    /// Appends a published delta (writer side). No-op deltas are ignored.
    pub fn push(&self, delta: Arc<PublishDelta>) {
        if delta.is_noop() {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        self.latest.store(delta.epoch, Ordering::Release);
        ring.push_back(delta);
    }

    /// The deltas a subscriber last synced at `epoch` must apply, oldest
    /// first — or [`CatchUp::Resync`] if the gap is no longer retained.
    pub fn deltas_since(&self, epoch: u64) -> CatchUp {
        let ring = self.ring.lock();
        let latest = self.latest.load(Ordering::Acquire);
        if epoch == latest {
            return CatchUp::UpToDate;
        }
        // Deltas chain: each entry's `prev_epoch` equals its
        // predecessor's `epoch`. Find where the subscriber's epoch
        // connects and hand back the suffix.
        if let Some(at) = ring.iter().position(|d| d.prev_epoch == epoch) {
            return CatchUp::Deltas(ring.iter().skip(at).cloned().collect());
        }
        CatchUp::Resync {
            oldest_reachable: ring.front().map(|d| d.prev_epoch),
            latest_epoch: latest,
        }
    }
}

/// Freshness gauges for the streaming path, exported on `GET /metrics`:
/// the last published epoch, how many cached relation alignments are
/// currently dirty, and how many epochs the stalest of them lags behind.
/// Shared the same way as [`crate::DurabilityGauge`] — one `Arc`, updated
/// by the ingest/refresh path, read by the metrics route.
#[derive(Debug, Default)]
pub struct FreshnessGauge {
    last_publish_epoch: AtomicU64,
    dirty_relations: AtomicU64,
    staleness_epochs: AtomicU64,
}

impl FreshnessGauge {
    /// A gauge starting at epoch 0 with nothing dirty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the epoch of the newest published snapshot.
    pub fn set_last_publish_epoch(&self, epoch: u64) {
        self.last_publish_epoch.store(epoch, Ordering::Release);
    }

    /// The epoch of the newest published snapshot.
    pub fn last_publish_epoch(&self) -> u64 {
        self.last_publish_epoch.load(Ordering::Acquire)
    }

    /// Records how many cached relation alignments are dirty right now.
    pub fn set_dirty_relations(&self, n: u64) {
        self.dirty_relations.store(n, Ordering::Release);
    }

    /// Cached relation alignments currently marked dirty.
    pub fn dirty_relations(&self) -> u64 {
        self.dirty_relations.load(Ordering::Acquire)
    }

    /// Records how many epochs the stalest dirty alignment lags behind
    /// the newest published snapshot (0 when everything is clean).
    pub fn set_staleness_epochs(&self, n: u64) {
        self.staleness_epochs.store(n, Ordering::Release);
    }

    /// Epoch lag of the stalest dirty alignment (0 when clean).
    pub fn staleness_epochs(&self) -> u64 {
        self.staleness_epochs.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(prev: u64, epoch: u64) -> Arc<PublishDelta> {
        Arc::new(PublishDelta {
            prev_epoch: prev,
            epoch,
            predicates: vec![TermId(2 * epoch as u32)],
            terms: vec![TermId(2 * epoch as u32 + 1)],
            links: DeltaLinks::default(),
        })
    }

    #[test]
    fn catch_up_replays_the_gap_in_order() {
        let log = DeltaLog::new(8, 0);
        log.push(delta(0, 3));
        log.push(delta(3, 5));
        log.push(delta(5, 9));
        assert_eq!(log.latest_epoch(), 9);
        assert_eq!(log.deltas_since(9), CatchUp::UpToDate);
        match log.deltas_since(3) {
            CatchUp::Deltas(ds) => {
                assert_eq!(
                    ds.iter().map(|d| d.epoch).collect::<Vec<_>>(),
                    vec![5, 9],
                    "suffix from the subscriber's epoch, oldest first"
                );
            }
            other => panic!("expected deltas, got {other:?}"),
        }
        match log.deltas_since(0) {
            CatchUp::Deltas(ds) => assert_eq!(ds.len(), 3),
            other => panic!("expected deltas, got {other:?}"),
        }
    }

    #[test]
    fn evicted_gap_demands_a_resync() {
        let log = DeltaLog::new(2, 0);
        log.push(delta(0, 1));
        log.push(delta(1, 2));
        log.push(delta(2, 3)); // evicts (0 → 1)
        assert_eq!(log.len(), 2);
        match log.deltas_since(0) {
            CatchUp::Resync {
                oldest_reachable,
                latest_epoch,
            } => {
                assert_eq!(oldest_reachable, Some(1));
                assert_eq!(latest_epoch, 3);
            }
            other => panic!("expected resync, got {other:?}"),
        }
        // An epoch that never existed also resyncs rather than replaying
        // a wrong chain.
        assert!(matches!(log.deltas_since(7), CatchUp::Resync { .. }));
    }

    #[test]
    fn noop_deltas_are_not_retained() {
        let log = DeltaLog::new(4, 5);
        log.push(Arc::new(PublishDelta::noop(5)));
        assert!(log.is_empty());
        assert_eq!(log.latest_epoch(), 5);
        assert_eq!(log.deltas_since(5), CatchUp::UpToDate);
    }

    /// A delta's links are read from the snapshot it published, even
    /// after a later publish removed a link; a delta whose snapshot went
    /// before anyone asked has none, and so has one built by hand.
    #[test]
    fn links_come_from_the_snapshot_the_delta_published() {
        use sofya_rdf::Term;
        let mut store = sofya_rdf::TripleStore::new();
        for (s, p, o) in [("e", "r", "o"), ("e", "sa", "e2"), ("x", "q", "e")] {
            store.insert_terms(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        }
        let mut writer = crate::SnapshotStore::new(store);
        let mut toggle = |(s, p, o): (&str, &str, &str)| {
            let store = writer.store_mut();
            let [s, p, o] = [s, p, o].map(Term::iri);
            if !store.insert_terms(&s, &p, &o) {
                let [s, p, o] = [s, p, o].map(|t| store.dict().lookup(&t).unwrap());
                store.remove(s, p, o);
            }
            (writer.publish(), writer.current())
        };
        let (unlinked, first) = toggle(("e", "r", "o"));
        let (delinked, _) = toggle(("e", "sa", "e2"));
        let [sa, q] = ["sa", "q"].map(|p| first.snapshot().dict().lookup_iri(p).unwrap());
        let links = |subject: &[TermId], object: &[TermId]| Links {
            subject: subject.to_vec(),
            object: object.to_vec(),
        };
        assert_eq!(unlinked.links(), Some(&links(&[sa], &[q])));
        assert_eq!(delinked.links(), Some(&links(&[], &[q])));
        // The next publish retires this delta's snapshot, unread.
        let (relinked, _) = toggle(("e", "sa", "e2"));
        toggle(("y", "r", "o"));
        assert_eq!(relinked.links(), None);
        assert_eq!(PublishDelta::noop(1).links(), None);
    }

    #[test]
    fn freshness_gauge_round_trips() {
        let g = FreshnessGauge::new();
        g.set_last_publish_epoch(42);
        g.set_dirty_relations(3);
        g.set_staleness_epochs(7);
        assert_eq!(g.last_publish_epoch(), 42);
        assert_eq!(g.dirty_relations(), 3);
        assert_eq!(g.staleness_epochs(), 7);
    }
}
