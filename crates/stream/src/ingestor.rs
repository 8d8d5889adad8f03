//! Micro-batched triple ingestion in front of a [`SnapshotStore`].
//!
//! The streaming front door buffers offered triples and publishes them
//! in batches. A publish costs in proportion to what changed — one pass
//! over each index run the batch wrote to, the snapshot swap, diffing
//! its pages (the store's module docs in `sofya_rdf::store` have the cost
//! model) — but that pass, the swap and the re-mining each publish sets
//! off downstream are per publish, not per triple, so batching spreads
//! them. Three triggers bound how long a triple can sit invisible in the
//! buffer:
//!
//! * **count** — `publish_count` buffered triples force a publish
//!   (classic micro-batching);
//! * **time** — a buffer whose *oldest* triple is older than
//!   `publish_interval` publishes on the next [`StreamIngestor::offer`]
//!   or [`StreamIngestor::tick`];
//! * **capacity** — the buffer never exceeds `max_buffered`: reaching
//!   the bound publishes immediately instead of growing without limit.
//!
//! In **sliding-window** mode every triple the window inserted carries
//! the time it last arrived; each publish first expires triples older
//! than the window by removing them from the store, so the published
//! state converges to "what arrived in the last `window`" — and expiry
//! flows through the same [`PublishDelta`] machinery as any other
//! removal, so cached alignments over expired evidence go dirty like any
//! other staleness.
//!
//! A publish makes two batch calls on the store: one `remove_batch` of
//! the expired triples, which leaves them as tombstones, and one
//! `load_batch` of the buffer, whose one pass per touched run applies
//! those tombstones too. A triple that expires and is offered again in
//! the same publish stays live, is stamped at its new arrival, and nets
//! out of the delta.

use crate::tracker::{FreshnessTracker, KbSide};
use parking_lot::Mutex;
use sofya_endpoint::{
    Clock, ConcurrentEndpoint, DeltaLog, EndpointError, FreshnessGauge, PublishDelta,
    SnapshotStore, WallClock,
};
use sofya_net::IngestSink;
use sofya_rdf::{FxBuild, Term, TermId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Publish-trigger and windowing knobs for a [`StreamIngestor`].
#[derive(Debug, Clone)]
pub struct IngestorConfig {
    /// Hard bound on the staging buffer; reaching it publishes
    /// immediately. Values below 1 behave as 1.
    pub max_buffered: usize,
    /// Publish once this many triples are buffered. Values below 1
    /// behave as 1 (publish on every offer).
    pub publish_count: usize,
    /// Publish once the oldest buffered triple is this old, checked on
    /// each [`StreamIngestor::offer`] / [`StreamIngestor::tick`].
    /// `None` disables the time trigger.
    pub publish_interval: Option<Duration>,
    /// Sliding-window mode: on every publish, triples that arrived more
    /// than this long ago are removed from the store first. `None`
    /// keeps everything forever (append-only ingestion).
    pub window: Option<Duration>,
}

impl Default for IngestorConfig {
    fn default() -> Self {
        Self {
            max_buffered: 4096,
            publish_count: 256,
            publish_interval: Some(Duration::from_millis(100)),
            window: None,
        }
    }
}

/// The streaming writer: owns the [`SnapshotStore`] and applies the
/// micro-batching policy. Single-owner like the store itself; wrap in a
/// [`SharedIngestor`] to serve concurrent producers (e.g. `POST /ingest`).
pub struct StreamIngestor {
    store: SnapshotStore,
    config: IngestorConfig,
    buffer: Vec<(Term, Term, Term)>,
    /// Time source for arrival stamps. Production uses the wall clock;
    /// tests inject a [`ManualClock`](sofya_endpoint::ManualClock) so
    /// the time trigger and window expiry are fully deterministic.
    clock: Arc<dyn Clock>,
    /// Arrival stamp of the oldest buffered triple (the time trigger),
    /// measured on the injected clock.
    oldest_buffered: Option<Duration>,
    /// The triples the window inserted and has not expired, each with
    /// its latest arrival on the injected clock (window mode only).
    stamps: HashMap<Ids, Duration, FxBuild>,
    /// Arrivals in order, oldest first. One whose triple has arrived
    /// again since is stale and skipped; the front never is.
    arrivals: VecDeque<(Duration, Ids)>,
}

/// A triple's dictionary ids in the writer's store.
type Ids = (TermId, TermId, TermId);

impl StreamIngestor {
    /// Wraps an already-published snapshot store, stamping arrivals on
    /// the wall clock.
    pub fn new(store: SnapshotStore, config: IngestorConfig) -> Self {
        Self::with_clock(store, config, Arc::new(WallClock::new()))
    }

    /// Wraps an already-published snapshot store with an injected time
    /// source, making the time trigger and window expiry deterministic
    /// under a [`ManualClock`](sofya_endpoint::ManualClock).
    pub fn with_clock(store: SnapshotStore, config: IngestorConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            store,
            config,
            buffer: Vec::new(),
            clock,
            oldest_buffered: None,
            stamps: HashMap::default(),
            arrivals: VecDeque::new(),
        }
    }

    /// Stages one triple; publishes and returns the delta if a trigger
    /// fired, `None` if the triple only joined the buffer.
    pub fn offer(&mut self, s: Term, p: Term, o: Term) -> Option<Arc<PublishDelta>> {
        self.offer_batch([(s, p, o)])
    }

    /// Stages a batch of triples as one unit; publishes at most once, at
    /// the end, if any trigger fired.
    pub fn offer_batch(
        &mut self,
        triples: impl IntoIterator<Item = (Term, Term, Term)>,
    ) -> Option<Arc<PublishDelta>> {
        let before = self.buffer.len();
        for triple in triples {
            if self.buffer.is_empty() {
                self.oldest_buffered = Some(self.clock.now());
            }
            self.buffer.push(triple);
        }
        let (config, len) = (&self.config, self.buffer.len());
        let count_due = len >= config.publish_count.min(config.max_buffered).max(1);
        let due = len > before && (count_due || self.time_due(self.clock.now()));
        due.then(|| self.publish_now())
    }

    /// Time-driven check with nothing new to offer: publishes if the
    /// buffer's age trigger fired, or if window mode has expirable
    /// triples. Call periodically from the owner's housekeeping loop.
    pub fn tick(&mut self) -> Option<Arc<PublishDelta>> {
        let now = self.clock.now();
        let expiry_due = (self.config.window.zip(self.arrivals.front()))
            .is_some_and(|(window, (at, _))| now.saturating_sub(*at) >= window);
        (self.time_due(now) || expiry_due).then(|| self.publish_now())
    }

    /// Whether the oldest buffered triple is `publish_interval` old.
    fn time_due(&self, now: Duration) -> bool {
        (self.config.publish_interval.zip(self.oldest_buffered))
            .is_some_and(|(interval, oldest)| now.saturating_sub(oldest) >= interval)
    }

    /// Expires the window, loads the buffer into the store, and
    /// publishes: one `remove_batch` and one `load_batch` (module docs).
    /// With nothing buffered and nothing expired this is the store's
    /// no-op publish fast path (same epoch, no delta logged).
    pub fn publish_now(&mut self) -> Arc<PublishDelta> {
        let now = self.clock.now();
        let store = self.store.store_mut();
        // Expire before loading, so a triple always survives the publish
        // that makes it visible (even with a zero window).
        if let Some(window) = self.config.window {
            let mut expired = Vec::new();
            while let Some(&(at, ids)) = self.arrivals.front() {
                if now.saturating_sub(at) < window {
                    break;
                }
                self.arrivals.pop_front();
                if self.stamps.get(&ids) == Some(&at) {
                    self.stamps.remove(&ids);
                    expired.push(ids);
                }
            }
            store.remove_batch(expired);
        }
        let mut batch = Vec::with_capacity(self.buffer.len());
        for (s, p, o) in self.buffer.drain(..) {
            let ids = (store.intern(&s), store.intern(&p), store.intern(&o));
            // A base fact the window never inserted stays untracked; one
            // it did, or is about to, is stamped at its latest arrival.
            if self.config.window.is_some()
                && (!store.contains(ids.0, ids.1, ids.2) || self.stamps.contains_key(&ids))
                && self.stamps.insert(ids, now) != Some(now)
            {
                self.arrivals.push_back((now, ids));
            }
            batch.push(ids);
        }
        store.load_batch(batch);
        while let Some((at, ids)) = self.arrivals.front() {
            if self.stamps.get(ids) == Some(at) {
                break;
            }
            self.arrivals.pop_front();
        }
        self.oldest_buffered = None;
        self.store.publish()
    }

    /// Triples staged but not yet published.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Published triples currently inside the sliding window (0 when
    /// windowing is off).
    pub fn live_in_window(&self) -> usize {
        self.stamps.len()
    }

    /// Epoch of the currently published snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.store.current().version()
    }

    /// A concurrent reader over the published snapshots (see
    /// [`SnapshotStore::reader`]).
    pub fn reader(&self, name: impl Into<String>) -> ConcurrentEndpoint {
        self.store.reader(name)
    }

    /// The shared delta ring (see [`SnapshotStore::delta_log`]).
    pub fn delta_log(&self) -> Arc<DeltaLog> {
        self.store.delta_log()
    }

    /// The shared freshness gauges (see [`SnapshotStore::freshness`]).
    pub fn freshness(&self) -> Arc<FreshnessGauge> {
        self.store.freshness()
    }

    /// A [`FreshnessTracker`] subscribed at the current epoch, treating
    /// this store as the given side of an alignment session.
    pub fn tracker(&self, side: KbSide) -> FreshnessTracker {
        FreshnessTracker::new(&self.store, side)
    }
}

/// A thread-safe [`StreamIngestor`] wrapper implementing the network
/// tier's [`IngestSink`], so `POST /ingest` bodies land here (one sink
/// call per HTTP request, executed as one scheduler job).
pub struct SharedIngestor {
    inner: Mutex<StreamIngestor>,
}

impl SharedIngestor {
    /// Wraps an ingestor for concurrent producers.
    pub fn new(ingestor: StreamIngestor) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(ingestor),
        })
    }

    /// Runs `f` with exclusive access to the ingestor (publish-now,
    /// tick, reader creation, …).
    pub fn with<R>(&self, f: impl FnOnce(&mut StreamIngestor) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

impl IngestSink for SharedIngestor {
    fn ingest(&self, triples: Vec<(Term, Term, Term)>) -> Result<u64, EndpointError> {
        let mut ingestor = self.inner.lock();
        match ingestor.offer_batch(triples) {
            Some(delta) => Ok(delta.epoch),
            // Batch is buffered, not yet visible: report the epoch the
            // caller currently reads at; a later publish covers it.
            None => Ok(ingestor.current_epoch()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::EndpointExt;
    use sofya_rdf::{TermId, TripleStore};

    /// The terms `ids` name in the ingestor's published dictionary.
    fn resolved(ing: &StreamIngestor, ids: &[TermId]) -> Vec<Term> {
        let published = ing.reader("kb").current();
        let dict = published.snapshot().dict();
        ids.iter().map(|&id| dict.resolve(id).clone()).collect()
    }

    fn triple(i: usize) -> (Term, Term, Term) {
        (
            Term::iri(format!("e:s{i}")),
            Term::iri("r:p"),
            Term::iri(format!("e:o{i}")),
        )
    }

    fn ingestor(config: IngestorConfig) -> StreamIngestor {
        StreamIngestor::new(SnapshotStore::new(TripleStore::new()), config)
    }

    #[test]
    fn count_trigger_publishes_in_batches() {
        let mut ing = ingestor(IngestorConfig {
            max_buffered: 64,
            publish_count: 3,
            publish_interval: None,
            window: None,
        });
        let reader = ing.reader("kb");
        let (s, p, o) = triple(0);
        assert!(ing.offer(s, p, o).is_none());
        let (s, p, o) = triple(1);
        assert!(ing.offer(s, p, o).is_none());
        assert_eq!(ing.buffered(), 2);
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 0);

        let (s, p, o) = triple(2);
        let delta = ing.offer(s, p, o).expect("third offer fires the trigger");
        assert!(!delta.is_noop());
        assert_eq!(ing.buffered(), 0);
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 3);
        assert_eq!(resolved(&ing, &delta.predicates), vec![Term::iri("r:p")]);
        assert_eq!(delta.terms.len(), 6);
    }

    #[test]
    fn capacity_bound_forces_a_publish() {
        let mut ing = ingestor(IngestorConfig {
            max_buffered: 2,
            publish_count: 100,
            publish_interval: None,
            window: None,
        });
        let (s, p, o) = triple(0);
        assert!(ing.offer(s, p, o).is_none());
        let (s, p, o) = triple(1);
        assert!(
            ing.offer(s, p, o).is_some(),
            "buffer must never exceed max_buffered"
        );
        assert_eq!(ing.buffered(), 0);
    }

    #[test]
    fn time_trigger_fires_via_tick() {
        let mut ing = ingestor(IngestorConfig {
            max_buffered: 64,
            publish_count: 100,
            publish_interval: Some(Duration::ZERO),
            window: None,
        });
        assert!(ing.tick().is_none(), "empty buffer: nothing to publish");
        let (s, p, o) = triple(0);
        // A zero interval is already due at offer time.
        assert!(ing.offer(s, p, o).is_some());
    }

    #[test]
    fn sliding_window_expires_old_triples() {
        let mut ing = ingestor(IngestorConfig {
            max_buffered: 64,
            publish_count: 1,
            publish_interval: None,
            window: Some(Duration::ZERO), // everything expires on the next publish
        });
        let reader = ing.reader("kb");
        let (s, p, o) = triple(0);
        let d1 = ing.offer(s, p, o).expect("publish_count=1 publishes");
        assert_eq!(resolved(&ing, &d1.predicates), vec![Term::iri("r:p")]);
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 1);
        assert_eq!(ing.live_in_window(), 1);

        // The next publish expires the first triple while inserting the
        // second: the delta names the terms of both.
        let (s, p, o) = triple(1);
        let d2 = ing.offer(s, p, o).expect("publish");
        assert_eq!(resolved(&ing, &d2.predicates), vec![Term::iri("r:p")]);
        let [s0, o0, s1, o1] = ["e:s0", "e:o0", "e:s1", "e:o1"].map(Term::iri);
        assert_eq!(
            resolved(&ing, &d2.terms),
            vec![s0, o0, s1.clone(), o1.clone()]
        );
        let rows = reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap();
        assert_eq!(rows.len(), 1, "window holds only the newest triple");

        // Draining the window entirely via tick: the last triple expires.
        let d3 = ing.tick().expect("expiry is due");
        assert_eq!(resolved(&ing, &d3.terms), vec![s1, o1]);
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 0);
        assert_eq!(ing.live_in_window(), 0);
        assert!(ing.tick().is_none(), "nothing left to expire");
    }

    #[test]
    fn manual_clock_drives_time_trigger_and_window_deterministically() {
        use sofya_endpoint::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let mut ing = StreamIngestor::with_clock(
            SnapshotStore::new(TripleStore::new()),
            IngestorConfig {
                max_buffered: 64,
                publish_count: 100,
                publish_interval: Some(Duration::from_secs(5)),
                window: Some(Duration::from_secs(60)),
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let reader = ing.reader("kb");
        let (s, p, o) = triple(0);
        assert!(ing.offer(s, p, o).is_none(), "interval not yet elapsed");
        clock.advance(Duration::from_secs(4));
        assert!(ing.tick().is_none(), "4s < 5s interval: not due");
        clock.advance(Duration::from_secs(1));
        let d = ing.tick().expect("5s elapsed: time trigger fires");
        assert_eq!(resolved(&ing, &d.predicates), vec![Term::iri("r:p")]);
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 1);

        // The published triple was stamped at t=5s; a 60s window expires
        // it exactly at t=65s, not a tick sooner.
        clock.advance(Duration::from_secs(59));
        assert!(ing.tick().is_none(), "59s in window: not expired");
        clock.advance(Duration::from_secs(1));
        let d = ing.tick().expect("window lapsed: expiry publish");
        assert!(!d.is_empty());
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 0);
    }

    /// A triple offered again while it is live expires a window after its
    /// latest arrival, not its first; a base fact the window never
    /// inserted is never expired.
    #[test]
    fn a_re_offered_triple_expires_a_window_after_its_latest_arrival() {
        use sofya_endpoint::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let mut base = TripleStore::new();
        let (bs, bp, bo) = triple(9);
        base.insert_terms(&bs, &bp, &bo);
        let mut ing = StreamIngestor::with_clock(
            SnapshotStore::new(base),
            IngestorConfig {
                max_buffered: 64,
                publish_count: 1,
                publish_interval: None,
                window: Some(Duration::from_secs(60)),
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let reader = ing.reader("kb");
        let present = |s: &Term| {
            let query = format!("ASK {{ <{}> <r:p> ?o }}", s.as_iri().unwrap());
            reader.ask(&query).unwrap()
        };
        let (s, p, o) = triple(0);
        assert!(ing.offer(s.clone(), p.clone(), o.clone()).is_some());
        clock.advance(Duration::from_secs(50));
        assert!(ing.offer(s.clone(), p.clone(), o.clone()).is_some());
        // The base fact arrives too, but the window did not insert it.
        assert!(ing.offer(bs.clone(), bp, bo).is_some());
        assert_eq!(ing.live_in_window(), 1);

        clock.advance(Duration::from_secs(11)); // t = 61 s
        assert!(ing.tick().is_none(), "nothing expires 11 s after t = 50 s");
        assert!(present(&s));
        clock.advance(Duration::from_secs(50)); // t = 111 s
        let expiry = ing.tick().expect("60 s after the latest arrival");
        assert_eq!(resolved(&ing, &expiry.terms), vec![s.clone(), o]);
        assert!(!present(&s));
        assert!(present(&bs));
        assert_eq!(ing.live_in_window(), 0);
        assert!(ing.tick().is_none());
    }

    /// An ingestor over `base` with a 60 s window, publishing every offer.
    fn windowed(base: TripleStore) -> (StreamIngestor, Arc<sofya_endpoint::ManualClock>) {
        let clock = Arc::new(sofya_endpoint::ManualClock::new());
        let config = IngestorConfig {
            max_buffered: 64,
            publish_count: 1,
            publish_interval: None,
            window: Some(Duration::from_secs(60)),
        };
        let as_clock = Arc::clone(&clock) as Arc<dyn Clock>;
        (
            StreamIngestor::with_clock(SnapshotStore::new(base), config, as_clock),
            clock,
        )
    }

    /// A triple that expires and is offered again in one publish stays
    /// live, nets out of that publish's delta, and expires a window after
    /// its new arrival.
    #[test]
    fn a_triple_expired_and_re_offered_in_one_publish_stays_live() {
        let (mut ing, clock) = windowed(TripleStore::new());
        let (x, y) = (triple(0), triple(1));
        assert!(ing.offer_batch([x.clone()]).is_some());
        clock.advance(Duration::from_secs(60)); // x is due to expire
        let delta = ing.offer_batch([x.clone(), y.clone()]).expect("publish");
        assert_eq!(resolved(&ing, &delta.terms), vec![y.0.clone(), y.2.clone()]);
        assert_eq!(ing.reader("kb").current().snapshot().len(), 2);
        assert_eq!((ing.live_in_window(), ing.arrivals.len()), (2, 2));

        clock.advance(Duration::from_secs(59));
        assert!(ing.tick().is_none(), "x arrived again at t = 60 s");
        clock.advance(Duration::from_secs(1));
        let expiry = ing.tick().expect("both expire at t = 120 s");
        assert_eq!(resolved(&ing, &expiry.terms), vec![x.0, x.2, y.0, y.2]);
        assert_eq!(ing.live_in_window(), 0);
    }

    /// A triple twice in one batch is inserted and stamped once.
    #[test]
    fn a_duplicate_within_a_batch_is_stamped_once() {
        let (mut ing, clock) = windowed(TripleStore::new());
        let delta = ing.offer_batch([triple(0), triple(1), triple(0)]).unwrap();
        assert_eq!(delta.terms.len(), 4);
        assert_eq!((ing.live_in_window(), ing.arrivals.len()), (2, 2));
        clock.advance(Duration::from_secs(60));
        assert_eq!(ing.tick().expect("expiry").terms.len(), 4);
        assert_eq!(ing.reader("kb").current().snapshot().len(), 0);
    }

    /// A base fact offered again, twice in one batch beside a new triple,
    /// is never stamped and never expires.
    #[test]
    fn a_re_offered_base_fact_stays_unstamped() {
        let mut base = TripleStore::new();
        let (bs, bp, bo) = triple(9);
        base.insert_terms(&bs, &bp, &bo);
        let (mut ing, clock) = windowed(base);
        let delta = ing.offer_batch([triple(9), triple(0), triple(9)]).unwrap();
        assert_eq!(resolved(&ing, &delta.terms), vec![triple(0).0, triple(0).2]);
        assert_eq!((ing.live_in_window(), ing.arrivals.len()), (1, 1));
        clock.advance(Duration::from_secs(60));
        let expiry = ing.tick().expect("the new triple expires");
        assert_eq!(
            resolved(&ing, &expiry.terms),
            vec![triple(0).0, triple(0).2]
        );
        assert_eq!(ing.reader("kb").current().snapshot().len(), 1);
        clock.advance(Duration::from_secs(600));
        assert!(ing.tick().is_none(), "the base fact never expires");
    }

    #[test]
    fn shared_ingestor_reports_covering_epoch() {
        let shared = SharedIngestor::new(ingestor(IngestorConfig {
            max_buffered: 64,
            publish_count: 2,
            publish_interval: None,
            window: None,
        }));
        let base = shared.with(|i| i.current_epoch());
        let (s, p, o) = triple(0);
        let buffered_epoch = shared.ingest(vec![(s, p, o)]).unwrap();
        assert_eq!(buffered_epoch, base, "buffered batch reports current epoch");
        let (s, p, o) = triple(1);
        let published_epoch = shared.ingest(vec![(s, p, o)]).unwrap();
        assert!(published_epoch > base, "publishing batch reports new epoch");
        assert_eq!(shared.with(|i| i.current_epoch()), published_epoch);
    }
}
