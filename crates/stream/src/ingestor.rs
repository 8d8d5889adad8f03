//! Micro-batched triple ingestion in front of a [`SnapshotStore`].
//!
//! The streaming front door buffers offered triples and publishes them
//! in batches. A publish costs in proportion to what changed — one pass
//! over each index run the batch wrote to, the snapshot swap, resolving
//! the delta (the store's module docs in `sofya_rdf::store` have the cost
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
//! In **sliding-window** mode every published triple also carries its
//! arrival time; each publish first expires triples older than the
//! window by removing them from the store, so the published state
//! converges to "what arrived in the last `window`" — and expiry flows
//! through the same [`PublishDelta`] machinery as any other removal, so
//! cached alignments over expired evidence go dirty like any other
//! staleness.

use crate::tracker::{FreshnessTracker, KbSide};
use parking_lot::Mutex;
use sofya_endpoint::{
    Clock, ConcurrentEndpoint, DeltaLog, EndpointError, FreshnessGauge, PublishDelta,
    SnapshotStore, WallClock,
};
use sofya_net::IngestSink;
use sofya_rdf::Term;
use std::collections::VecDeque;
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
    /// Arrival-ordered published triples awaiting expiry (window mode
    /// only; empty otherwise), stamped on the injected clock.
    live: VecDeque<(Duration, (Term, Term, Term))>,
}

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
            live: VecDeque::new(),
        }
    }

    /// Stages one triple; publishes and returns the delta if a trigger
    /// fired, `None` if the triple only joined the buffer.
    pub fn offer(&mut self, s: Term, p: Term, o: Term) -> Option<Arc<PublishDelta>> {
        if self.buffer.is_empty() {
            self.oldest_buffered = Some(self.clock.now());
        }
        self.buffer.push((s, p, o));
        self.maybe_publish()
    }

    /// Stages a batch of triples as one unit; publishes at most once, at
    /// the end, if any trigger fired.
    pub fn offer_batch(
        &mut self,
        triples: impl IntoIterator<Item = (Term, Term, Term)>,
    ) -> Option<Arc<PublishDelta>> {
        let mut offered = false;
        for (s, p, o) in triples {
            if self.buffer.is_empty() {
                self.oldest_buffered = Some(self.clock.now());
            }
            self.buffer.push((s, p, o));
            offered = true;
        }
        if offered {
            self.maybe_publish()
        } else {
            None
        }
    }

    /// Time-driven check with nothing new to offer: publishes if the
    /// buffer's age trigger fired, or if window mode has expirable
    /// triples. Call periodically from the owner's housekeeping loop.
    pub fn tick(&mut self) -> Option<Arc<PublishDelta>> {
        let now = self.clock.now();
        let time_due = match (self.config.publish_interval, self.oldest_buffered) {
            (Some(interval), Some(oldest)) => now.saturating_sub(oldest) >= interval,
            _ => false,
        };
        let expiry_due = match self.config.window {
            Some(window) => self
                .live
                .front()
                .is_some_and(|(at, _)| now.saturating_sub(*at) >= window),
            None => false,
        };
        if time_due || expiry_due {
            Some(self.publish_now())
        } else {
            None
        }
    }

    fn maybe_publish(&mut self) -> Option<Arc<PublishDelta>> {
        let count_due = self.buffer.len() >= self.config.publish_count.max(1);
        let cap_due = self.buffer.len() >= self.config.max_buffered.max(1);
        let time_due = match (self.config.publish_interval, self.oldest_buffered) {
            (Some(interval), Some(oldest)) => self.clock.now().saturating_sub(oldest) >= interval,
            _ => false,
        };
        if count_due || cap_due || time_due {
            Some(self.publish_now())
        } else {
            None
        }
    }

    /// Flushes the buffer into the store, expires the window, and
    /// publishes. With nothing buffered and nothing expired this is the
    /// store's no-op publish fast path (same epoch, no delta logged).
    pub fn publish_now(&mut self) -> Arc<PublishDelta> {
        let now = self.clock.now();
        let windowed = self.config.window.is_some();
        {
            let store = self.store.store_mut();
            // Expire before flushing, so a triple always survives the
            // publish that makes it visible (even with a zero window).
            if let Some(window) = self.config.window {
                let in_window = |(at, _): &(_, _)| now.saturating_sub(*at) < window;
                let expired = self.live.iter().position(in_window);
                for (_, (s, p, o)) in self.live.drain(..expired.unwrap_or(self.live.len())) {
                    let dict = store.dict();
                    if let (Some(s), Some(p), Some(o)) =
                        (dict.lookup(&s), dict.lookup(&p), dict.lookup(&o))
                    {
                        store.remove(s, p, o);
                    }
                }
            }
            for (s, p, o) in self.buffer.drain(..) {
                if store.insert_terms(&s, &p, &o) && windowed {
                    self.live.push_back((now, (s, p, o)));
                }
            }
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
        self.live.len()
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
    use sofya_rdf::TripleStore;

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
        assert_eq!(delta.predicates.len(), 1);
        assert_eq!(delta.predicates[0].inserts, 3);
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
        assert_eq!(d1.predicates[0].inserts, 1);
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 1);
        assert_eq!(ing.live_in_window(), 1);

        // The next publish expires the first triple while inserting the
        // second: the delta shows both the insert and the remove.
        let (s, p, o) = triple(1);
        let d2 = ing.offer(s, p, o).expect("publish");
        assert_eq!(d2.predicates.len(), 1);
        assert_eq!((d2.predicates[0].inserts, d2.predicates[0].removes), (1, 1));
        let rows = reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap();
        assert_eq!(rows.len(), 1, "window holds only the newest triple");

        // Draining the window entirely via tick: the last triple expires.
        let d3 = ing.tick().expect("expiry is due");
        assert_eq!((d3.predicates[0].inserts, d3.predicates[0].removes), (0, 1));
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
        assert_eq!(d.predicates[0].inserts, 1);
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 1);

        // The published triple was stamped at t=5s; a 60s window expires
        // it exactly at t=65s, not a tick sooner.
        clock.advance(Duration::from_secs(59));
        assert!(ing.tick().is_none(), "59s in window: not expired");
        clock.advance(Duration::from_secs(1));
        let d = ing.tick().expect("window lapsed: expiry publish");
        assert_eq!((d.predicates[0].inserts, d.predicates[0].removes), (0, 1));
        assert_eq!(reader.select("SELECT ?s { ?s <r:p> ?o }").unwrap().len(), 0);
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
