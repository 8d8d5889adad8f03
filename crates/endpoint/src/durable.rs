//! Crash-safe writer: a [`SnapshotStore`] paired with a
//! [`sofya_durability::DurableLog`].
//!
//! [`DurableStore`] is the single mutation path for a store that must
//! survive crashes. Inserts, removes and bulk loads only change the
//! writer's store; [`DurableStore::publish`] takes the snapshot, the
//! write-ahead log **commits (fsyncs) first** one frame of what it changed
//! since the last commit, and only then is the snapshot swapped into the
//! readers' cell. Readers therefore never observe state that a crash could
//! take back.
//!
//! The [`DurabilityGauge`] is the cheap observable surface: the service
//! metrics route reads the durable epoch and the WAL fsync latency
//! histogram from it without touching the writer.

use crate::concurrent::{ConcurrentEndpoint, PublishedSnapshot, SnapshotStore};
use sofya_durability::{CommitReceipt, DurabilityConfig, DurabilityError, DurableLog, StorageIo};
use sofya_rdf::{Term, TripleStore};
use sofya_service::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared durability observables: the highest fsynced epoch and the
/// latency of every WAL fsync since the gauge was made. Reading either
/// changes nothing.
#[derive(Debug, Default)]
pub struct DurabilityGauge {
    epoch: AtomicU64,
    fsync: LatencyHistogram,
}

impl DurabilityGauge {
    /// A fresh gauge at epoch 0 with no fsyncs recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// The highest epoch whose commit has been fsynced — everything up
    /// to here survives a crash.
    pub fn durable_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Records a commit that wrote a frame ([`DurableStore::publish`]
    /// passes no other, so a publish with nothing to commit is no 0 ns
    /// sample).
    pub fn on_commit(&self, receipt: &CommitReceipt) {
        self.epoch.store(receipt.epoch, Ordering::Release);
        self.fsync.record(receipt.fsync_latency);
    }

    /// The approximate 99th-percentile WAL fsync latency over every
    /// commit recorded, in nanoseconds (0 before the first).
    pub fn fsync_p99_ns(&self) -> u64 {
        self.fsync.quantile_ns(0.99)
    }

    /// Sets the durable epoch directly (used after recovery, where there
    /// is no commit receipt).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A [`SnapshotStore`] whose publishes are logged to a write-ahead log,
/// one frame each, and durable before they are visible.
#[derive(Debug)]
pub struct DurableStore {
    store: SnapshotStore,
    log: DurableLog,
    gauge: Arc<DurabilityGauge>,
}

impl DurableStore {
    /// Initialises an empty durable store in a fresh directory.
    ///
    /// Fails if the directory already holds durable state — use
    /// [`DurableStore::recover`] for that.
    pub fn create(
        io: Arc<dyn StorageIo>,
        config: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let mut store = TripleStore::new();
        let snapshot = store.snapshot();
        let log = DurableLog::create(io, config, &snapshot)?;
        let gauge = Arc::new(DurabilityGauge::new());
        gauge.set_epoch(log.epoch());
        Ok(Self {
            store: SnapshotStore::new(store),
            log,
            gauge,
        })
    }

    /// Rebuilds the store from the manifest, segments, and WAL in `io`,
    /// and publishes the recovered state so readers see it immediately.
    pub fn recover(
        io: Arc<dyn StorageIo>,
        config: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let (log, store) = DurableLog::recover(io, config)?;
        let gauge = Arc::new(DurabilityGauge::new());
        gauge.set_epoch(log.epoch());
        Ok(Self {
            store: SnapshotStore::new(store),
            log,
            gauge,
        })
    }

    /// Inserts one triple; returns whether it was new. It is durable at
    /// the next [`DurableStore::publish`].
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        self.store.store_mut().insert_terms(s, p, o)
    }

    /// Removes one triple by its terms; returns whether it was present.
    pub fn remove(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let store = self.store.store_mut();
        let dict = store.dict();
        match (dict.lookup(s), dict.lookup(p), dict.lookup(o)) {
            (Some(s), Some(p), Some(o)) => store.remove(s, p, o),
            _ => false,
        }
    }

    /// Bulk-loads triples; returns how many were new.
    pub fn load_batch(&mut self, triples: &[(Term, Term, Term)]) -> usize {
        self.store
            .store_mut()
            .load_batch_terms(triples.iter().map(|(s, p, o)| (s, p, o)))
    }

    /// Durably publishes the writer's state: snapshot, WAL commit of what
    /// it changed (the fsync is the ack), then the visibility swap. The
    /// commit diffs the snapshot once and hands back the keys it framed,
    /// which are what the swap's delta is made of: the last commit is the
    /// published state. A commit that wrote nothing swaps nothing and
    /// records no fsync: readers keep the same snapshot `Arc`, statistics
    /// and epoch. On a commit error nothing is swapped — readers keep the
    /// previous epoch and the log is poisoned until
    /// [`DurableStore::recover`].
    pub fn publish(&mut self) -> Result<CommitReceipt, DurabilityError> {
        let snapshot = self.store.store_mut().snapshot();
        let (receipt, [adds, removes]) = self.log.commit(&snapshot)?;
        if receipt.wal_bytes > 0 {
            self.store.install_change(snapshot, &adds, &removes);
            self.gauge.on_commit(&receipt);
        }
        Ok(receipt)
    }

    /// The epoch of the last durable publish.
    pub fn epoch(&self) -> u64 {
        self.log.epoch()
    }

    /// The shared gauge for metrics probing.
    pub fn gauge(&self) -> Arc<DurabilityGauge> {
        Arc::clone(&self.gauge)
    }

    /// Read access to the writer's working state.
    pub fn store(&self) -> &TripleStore {
        self.store.store()
    }

    /// The currently published (and durable) state.
    pub fn current(&self) -> Arc<PublishedSnapshot> {
        self.store.current()
    }

    /// A concurrent reader over the published state; see
    /// [`SnapshotStore::reader`].
    pub fn reader(&self, name: impl Into<String>) -> ConcurrentEndpoint {
        self.store.reader(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::CatchUp;
    use crate::endpoint::EndpointExt;
    use sofya_durability::MemIo;

    fn t(i: usize) -> (Term, Term, Term) {
        (
            Term::iri(format!("e:s{i}")),
            Term::iri("e:p"),
            Term::integer(i as i64),
        )
    }

    #[test]
    fn publish_makes_state_durable_and_visible() {
        let mem = Arc::new(MemIo::new());
        let io: Arc<dyn StorageIo> = Arc::clone(&mem) as Arc<dyn StorageIo>;
        let mut durable = DurableStore::create(io, DurabilityConfig::default()).unwrap();
        let reader = durable.reader("r");
        for i in 0..5 {
            let (s, p, o) = t(i);
            assert!(durable.insert(&s, &p, &o));
        }
        // Not yet published: readers still see the empty store.
        assert_eq!(reader.current().snapshot().len(), 0);
        let receipt = durable.publish().unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(durable.gauge().durable_epoch(), 1);
        assert_eq!(reader.current().snapshot().len(), 5);
        let want = durable.current().snapshot().fingerprint();

        // Crash to the fsync watermark and recover: same state, and
        // readers of the recovered store see it immediately.
        mem.crash();
        let io2: Arc<dyn StorageIo> = Arc::clone(&mem) as Arc<dyn StorageIo>;
        let recovered = DurableStore::recover(io2, DurabilityConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 1);
        assert_eq!(recovered.gauge().durable_epoch(), 1);
        assert_eq!(recovered.current().snapshot().fingerprint(), want);
        let r2 = recovered.reader("r2");
        assert!(r2
            .ask("ASK { <e:s0> <e:p> 0 }")
            .expect("recovered reader answers"));
    }

    #[test]
    fn mixed_mutations_round_trip_through_recovery() {
        let mem = Arc::new(MemIo::new());
        let io: Arc<dyn StorageIo> = Arc::clone(&mem) as Arc<dyn StorageIo>;
        let mut durable = DurableStore::create(
            io,
            DurabilityConfig {
                checkpoint_every: 2,
            },
        )
        .unwrap();
        let batch: Vec<_> = (0..20).map(t).collect();
        assert_eq!(durable.load_batch(&batch), 20);
        durable.publish().unwrap();
        let (s, p, o) = t(3);
        assert!(durable.remove(&s, &p, &o));
        assert!(!durable.remove(&s, &p, &o), "second remove is a no-op");
        durable.publish().unwrap(); // epoch 2: checkpoint
        assert!(durable.insert(&Term::iri("e:x"), &p, &o));
        durable.publish().unwrap();
        let want = durable.current().snapshot().fingerprint();

        mem.crash();
        let io2: Arc<dyn StorageIo> = Arc::clone(&mem) as Arc<dyn StorageIo>;
        let recovered = DurableStore::recover(
            io2,
            DurabilityConfig {
                checkpoint_every: 2,
            },
        )
        .unwrap();
        assert_eq!(recovered.epoch(), 3);
        assert_eq!(recovered.current().snapshot().fingerprint(), want);
        assert_eq!(recovered.store().len(), 20);
    }

    #[test]
    fn gauge_collects_fsync_samples() {
        let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
        let mut durable = DurableStore::create(io, DurabilityConfig::default()).unwrap();
        let gauge = durable.gauge();
        assert_eq!(gauge.fsync_p99_ns(), 0, "no commit yet");
        for i in 0..3 {
            let (s, p, o) = t(i);
            durable.insert(&s, &p, &o);
            durable.publish().unwrap();
        }
        assert_eq!(gauge.durable_epoch(), 3);
        // A receipt the gauge is handed directly lands in the same
        // histogram, and reading it twice reads the same value.
        gauge.on_commit(&CommitReceipt {
            epoch: 4,
            fingerprint: 0,
            wal_bytes: 0,
            fsync_latency: std::time::Duration::from_millis(10),
            checkpointed: false,
        });
        let p99 = gauge.fsync_p99_ns();
        assert!(p99 >= 8_000_000, "the 10 ms commit is the p99 of 4: {p99}");
        assert_eq!(gauge.fsync_p99_ns(), p99, "reading changes nothing");
        assert_eq!(gauge.durable_epoch(), 4);
    }

    /// A publish with nothing to commit — here, an ingest whose triples
    /// are all present already — is no fsync sample: one real commit and
    /// a hundred such publishes read the real commit's p99, not 0.
    #[test]
    fn noop_publishes_leave_the_fsync_p99_alone() {
        let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
        let mut durable = DurableStore::create(io, DurabilityConfig::default()).unwrap();
        let batch: Vec<_> = (0..4).map(t).collect();
        durable.load_batch(&batch);
        let receipt = durable.publish().unwrap();
        let p99 = durable.gauge().fsync_p99_ns();
        assert!(
            p99 > 0,
            "the commit fsynced for {:?}",
            receipt.fsync_latency
        );
        for _ in 0..100 {
            assert_eq!(durable.load_batch(&batch), 0);
            assert_eq!(durable.publish().unwrap().wal_bytes, 0);
        }
        assert_eq!(durable.gauge().fsync_p99_ns(), p99);
        assert_eq!(durable.gauge().durable_epoch(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A durable publish installs the keys its commit framed, without
        /// a diff of its own: over random loads, removes, inserts and
        /// publishes — some with nothing to commit, as a remove and
        /// re-insert of one triple — the delta it pushes equals, links
        /// included, the one a plain `install` of the same snapshot
        /// computes on a shadow store given the same writes. A publish
        /// that commits nothing pushes nothing and keeps the readers'
        /// snapshot.
        #[test]
        fn a_durable_publish_delta_is_a_plain_installs(
            script in proptest::collection::vec((0u8..6, 0usize..16), 1..40),
        ) {
            let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
            let config = DurabilityConfig { checkpoint_every: 2 };
            let mut durable = DurableStore::create(io, config).unwrap();
            let mut shadow = SnapshotStore::new(TripleStore::new());
            let log = durable.store.delta_log();
            let key = |i: usize| {
                let s = Term::iri(format!("e:s{}", i % 5));
                (s, Term::iri(format!("e:p{}", i % 3)), Term::integer(i as i64 / 2))
            };
            for (step, &(op, i)) in script.iter().enumerate() {
                let (s, p, o) = key(i);
                let write = |store: &mut TripleStore| match op {
                    0 => {
                        let batch: Vec<_> = (i..i + 3).map(key).collect();
                        store.load_batch_terms(batch.iter().map(|(s, p, o)| (s, p, o)));
                    }
                    1 => {
                        store.insert_terms(&s, &p, &o);
                    }
                    // A remove; or a remove and re-insert, which nets nothing.
                    _ => {
                        let present = !store.insert_terms(&s, &p, &o);
                        let [s, p, o] = [&s, &p, &o].map(|t| store.dict().lookup(t).unwrap());
                        store.remove(s, p, o);
                        if op == 3 && present {
                            store.insert(s, p, o);
                        }
                    }
                };
                if op < 4 {
                    write(durable.store.store_mut());
                    write(shadow.store_mut());
                    continue;
                }
                let (before, latest) = (durable.current(), log.latest_epoch());
                let receipt = durable.publish().unwrap();
                if receipt.wal_bytes == 0 {
                    proptest::prop_assert!(Arc::ptr_eq(&before, &durable.current()));
                    proptest::prop_assert_eq!(log.latest_epoch(), latest);
                    continue;
                }
                let snapshot = shadow.store_mut().snapshot();
                let installed = shadow.install(snapshot);
                let CatchUp::Deltas(logged) = log.deltas_since(latest) else {
                    panic!("step {step}: the publish pushed no delta");
                };
                proptest::prop_assert_eq!(logged.len(), 1);
                proptest::prop_assert_eq!(&*logged[0], &*installed, "step {}", step);
                proptest::prop_assert_eq!(logged[0].links(), installed.links());
            }
        }
    }

    /// Modelled on `concurrent.rs::noop_publish_keeps_snapshot_epoch_and_plans`:
    /// a durable publish with nothing to commit leaves the readers'
    /// snapshot in place — the same `Arc`, so its statistics stay
    /// computed — and the same epoch and cached plans.
    #[test]
    fn noop_durable_publish_keeps_the_readers_snapshot() {
        let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
        let mut durable = DurableStore::create(io, DurabilityConfig::default()).unwrap();
        let batch: Vec<_> = (0..4).map(t).collect();
        durable.load_batch(&batch);
        durable.publish().unwrap();
        let reader = durable.reader("r");
        assert!(reader.ask("ASK { <e:s0> <e:p> 0 }").unwrap());
        assert_eq!(reader.plan_cache_len(), 1);

        let before = durable.current();
        assert_eq!(durable.load_batch(&batch), 0);
        let receipt = durable.publish().unwrap();
        assert_eq!(receipt.epoch, 1);
        assert!(
            Arc::ptr_eq(&before, &durable.current()),
            "a no-op durable publish must leave the published Arc in place"
        );
        assert!(reader.ask("ASK { <e:s0> <e:p> 0 }").unwrap());
        assert_eq!(reader.plan_cache_len(), 1);

        // A real change still publishes.
        let (s, p, o) = t(9);
        assert!(durable.insert(&s, &p, &o));
        assert_eq!(durable.publish().unwrap().epoch, 2);
        assert!(!Arc::ptr_eq(&before, &durable.current()));
    }
}
