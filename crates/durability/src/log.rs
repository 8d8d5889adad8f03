//! The durable log engine: group-commit WAL + checkpoint segments.
//!
//! [`DurableLog`] does not own the store — it records the store's
//! term-level mutations ([`DurableLog::record_insert`] & friends) and
//! makes them durable at publish time ([`DurableLog::commit`]). The
//! owner (e.g. `sofya_endpoint::DurableStore`) applies each mutation to
//! its in-memory [`TripleStore`] *and* records it here, then commits
//! against the snapshot it is about to publish. Keeping the log the
//! only mutation journal, replayed through the same term-level calls in
//! the original order, makes recovered `TermId`s — and therefore the
//! snapshot fingerprint — bit-identical to the original run.
//!
//! ## Protocol
//!
//! * **Commit** (per publish): append every pending mutation record plus
//!   a commit record (epoch, snapshot fingerprint) in one write, fsync
//!   the WAL. The fsync returning is the ack.
//! * **Checkpoint** (every [`DurabilityConfig::checkpoint_every`]
//!   commits): write the dictionary delta and the full flushed runs as
//!   checksummed segments (fsynced), stage the new manifest at
//!   `MANIFEST.tmp` (fsynced), atomically rename it over `MANIFEST`,
//!   then truncate the WAL. A crash on either side of the rename leaves
//!   a valid manifest — old or new — and the WAL's epoch tags make
//!   replay idempotent across the boundary.
//! * **Recover**: load the manifest (missing ⇒ fresh store), rebuild
//!   dictionary and runs from the segments, cut the WAL at the last
//!   valid record, replay fully committed epochs newer than the
//!   checkpoint, and verify the final fingerprint against the last
//!   commit record (or the manifest). The WAL is truncated to the cut so
//!   post-recovery appends never land after a torn tail.
//!
//! Any I/O failure during commit poisons the log: the in-memory store
//! may be ahead of disk and the WAL tail may be torn, so further
//! commits refuse with [`DurabilityError::Poisoned`] and the process
//! must re-open the directory through [`DurableLog::recover`].

use crate::error::DurabilityError;
use crate::io::StorageIo;
use crate::segment::{
    read_segment, write_segment, DictSegment, Manifest, SegmentKind, MANIFEST_FILE,
    MANIFEST_TMP_FILE, WAL_FILE,
};
use crate::wal::{append_record, scan, WalEntry, WalOp, WalRecord};
use sofya_rdf::segment as codec;
use sofya_rdf::segment::ByteReader;
use sofya_rdf::{Dict, StoreSnapshot, Term, TermId, TripleStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durability knobs.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Commits between checkpoints. `1` checkpoints every publish
    /// (smallest WAL, slowest publish); larger values amortise segment
    /// writes over more commits at the cost of longer replay.
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 8,
        }
    }
}

/// What a successful [`DurableLog::commit`] made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The epoch this commit sealed (unchanged if nothing was pending).
    pub epoch: u64,
    /// The committed snapshot's fingerprint.
    pub fingerprint: u64,
    /// WAL bytes appended by this commit.
    pub wal_bytes: u64,
    /// Wall-clock cost of the WAL fsync (the ack's latency floor).
    pub fsync_latency: Duration,
    /// Whether this commit also wrote a checkpoint.
    pub checkpointed: bool,
}

/// The durable log: WAL writer, checkpointer, and recovery reader.
#[derive(Debug)]
pub struct DurableLog {
    io: Arc<dyn StorageIo>,
    config: DurabilityConfig,
    pending: Vec<WalOp>,
    epoch: u64,
    checkpoint_epoch: u64,
    wal_bytes: u64,
    dict_persisted: u32,
    dict_segments: Vec<DictSegment>,
    runs_segment: Option<String>,
    poisoned: bool,
}

fn dict_segment_name(start: u32) -> String {
    format!("dict-{start:010}.seg")
}

fn runs_segment_name(epoch: u64) -> String {
    format!("runs-{epoch:016}.seg")
}

impl DurableLog {
    /// Initialises a fresh durable directory from `initial` (commonly an
    /// empty store's snapshot) and writes the epoch-0 checkpoint, so a
    /// returned log always has a manifest on disk.
    ///
    /// Fails if the directory already holds a manifest — recover it
    /// instead of clobbering it.
    pub fn create(
        io: Arc<dyn StorageIo>,
        config: DurabilityConfig,
        initial: &StoreSnapshot,
    ) -> Result<Self, DurabilityError> {
        if io.exists(MANIFEST_FILE) {
            return Err(DurabilityError::Corrupt(
                "directory already initialised (manifest present); use recover".into(),
            ));
        }
        let mut log = Self {
            io,
            config,
            pending: Vec::new(),
            epoch: 0,
            checkpoint_epoch: 0,
            wal_bytes: 0,
            dict_persisted: 0,
            dict_segments: Vec::new(),
            runs_segment: None,
            poisoned: false,
        };
        let fingerprint = initial.fingerprint();
        log.checkpoint(initial, fingerprint)
            .map_err(|e| log.poison(e))?;
        Ok(log)
    }

    /// The last committed (durable) epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch captured by the newest on-disk checkpoint.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// Bytes currently in the WAL (since the last checkpoint).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Records a fresh insert (call only when the store reported the
    /// triple as new).
    pub fn record_insert(&mut self, s: &Term, p: &Term, o: &Term) {
        self.pending
            .push(WalOp::Insert(s.clone(), p.clone(), o.clone()));
    }

    /// Records a remove of a present triple.
    pub fn record_remove(&mut self, s: &Term, p: &Term, o: &Term) {
        self.pending
            .push(WalOp::Remove(s.clone(), p.clone(), o.clone()));
    }

    /// Records a `load_batch_terms` call verbatim (pre-dedup), so replay
    /// interns terms in the exact original order.
    pub fn record_batch(&mut self, triples: &[(Term, Term, Term)]) {
        self.pending.push(WalOp::Batch(triples.to_vec()));
    }

    fn poison(&mut self, error: DurabilityError) -> DurabilityError {
        self.poisoned = true;
        error
    }

    /// Makes every pending mutation durable as the next epoch and
    /// returns the receipt. With nothing pending this is a no-op ack of
    /// the current epoch. The caller passes the snapshot it is about to
    /// publish; its fingerprint is sealed into the commit record and
    /// verified at recovery.
    pub fn commit(&mut self, snapshot: &StoreSnapshot) -> Result<CommitReceipt, DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Poisoned);
        }
        let fingerprint = snapshot.fingerprint();
        if self.pending.is_empty() {
            return Ok(CommitReceipt {
                epoch: self.epoch,
                fingerprint,
                wal_bytes: 0,
                fsync_latency: Duration::ZERO,
                checkpointed: false,
            });
        }
        let next = self.epoch + 1;
        let mut buf = Vec::new();
        for op in &self.pending {
            append_record(&mut buf, next, &WalEntry::Op(op.clone()))?;
        }
        append_record(&mut buf, next, &WalEntry::Commit { fingerprint })?;

        self.io
            .append(WAL_FILE, &buf)
            .map_err(|e| self.poison(e.into()))?;
        // sofya: allow(determinism) — fsync latency is a wall-clock gauge in the receipt, never alignment state
        let fsync_start = Instant::now();
        self.io.fsync(WAL_FILE).map_err(|e| self.poison(e.into()))?;
        let fsync_latency = fsync_start.elapsed();

        self.epoch = next;
        self.pending.clear();
        self.wal_bytes += buf.len() as u64;

        let mut checkpointed = false;
        if self.epoch - self.checkpoint_epoch >= self.config.checkpoint_every {
            self.checkpoint(snapshot, fingerprint)
                .map_err(|e| self.poison(e))?;
            checkpointed = true;
        }
        Ok(CommitReceipt {
            epoch: next,
            fingerprint,
            wal_bytes: buf.len() as u64,
            fsync_latency,
            checkpointed,
        })
    }

    /// Writes segments + manifest for `snapshot` and truncates the WAL.
    fn checkpoint(
        &mut self,
        snapshot: &StoreSnapshot,
        fingerprint: u64,
    ) -> Result<(), DurabilityError> {
        let dict = snapshot.store().dict();
        let term_count = u32::try_from(dict.len())
            .map_err(|_| DurabilityError::Corrupt("dictionary exceeds u32 term ids".into()))?;

        // Dictionary delta: terms interned since the last checkpoint.
        // Ids are append-only, so old segments stay valid forever.
        if term_count > self.dict_persisted {
            let name = dict_segment_name(self.dict_persisted);
            let mut payload = Vec::new();
            payload.extend_from_slice(&self.dict_persisted.to_le_bytes());
            let delta: Vec<&Term> = dict
                .iter()
                .skip(self.dict_persisted as usize)
                .map(|(_, t)| t)
                .collect();
            codec::encode_terms(&mut payload, delta.into_iter());
            write_segment(self.io.as_ref(), &name, SegmentKind::Dict, &payload)?;
            self.dict_segments.push(DictSegment {
                name,
                start: self.dict_persisted,
                count: term_count - self.dict_persisted,
            });
            self.dict_persisted = term_count;
        }

        // Full flushed runs of the snapshot (SPO order).
        let triples: Vec<(u32, u32, u32)> = snapshot
            .store()
            .iter()
            .map(|t| (t.s.0, t.p.0, t.o.0))
            .collect();
        let runs = runs_segment_name(self.epoch);
        let mut payload = Vec::new();
        codec::encode_triples(&mut payload, &triples);
        write_segment(self.io.as_ref(), &runs, SegmentKind::Runs, &payload)?;

        // Stage + atomically publish the manifest: the commit point.
        let manifest = Manifest {
            epoch: self.epoch,
            fingerprint,
            term_count,
            triple_count: triples.len() as u64,
            runs: runs.clone(),
            dict_segments: self.dict_segments.clone(),
        };
        write_segment(
            self.io.as_ref(),
            MANIFEST_TMP_FILE,
            SegmentKind::Manifest,
            &manifest.encode()?,
        )?;
        self.io.rename(MANIFEST_TMP_FILE, MANIFEST_FILE)?;

        // The WAL's epochs are all ≤ the manifest's now; reset it.
        self.io.write(WAL_FILE, &[])?;
        self.io.fsync(WAL_FILE)?;

        // Drop the superseded runs segment (best-effort; an orphan left
        // by a crash here is ignored by recovery).
        if let Some(old) = self.runs_segment.take() {
            if old != runs {
                let _ = self.io.remove(&old);
            }
        }
        self.runs_segment = Some(runs);
        self.checkpoint_epoch = self.epoch;
        self.wal_bytes = 0;
        Ok(())
    }

    /// Rebuilds the store from the manifest + segments, replays the
    /// WAL's fully committed epochs, and returns the log ready for new
    /// commits alongside the recovered store.
    ///
    /// A directory without a manifest recovers as an empty store (a
    /// crash before [`DurableLog::create`] finished can't have acked
    /// anything) and writes the missing epoch-0 checkpoint.
    pub fn recover(
        io: Arc<dyn StorageIo>,
        config: DurabilityConfig,
    ) -> Result<(Self, TripleStore), DurabilityError> {
        if !io.exists(MANIFEST_FILE) {
            let mut store = TripleStore::new();
            let snapshot = store.snapshot();
            let log = Self::create(io, config, &snapshot)?;
            return Ok((log, store));
        }
        let manifest = Manifest::decode(&read_segment(
            io.as_ref(),
            MANIFEST_FILE,
            SegmentKind::Manifest,
        )?)?;

        // Dictionary: concatenate the delta segments in id order.
        let mut dict = Dict::new();
        for seg in &manifest.dict_segments {
            let payload = read_segment(io.as_ref(), &seg.name, SegmentKind::Dict)?;
            let mut reader = ByteReader::new(&payload);
            let start = reader.u32().map_err(DurabilityError::from)?;
            let terms = codec::decode_terms(&mut reader)?;
            if start != seg.start
                || start as usize != dict.len()
                || terms.len() != seg.count as usize
            {
                return Err(DurabilityError::Corrupt(format!(
                    "dict segment {} does not cover [{}, {}+{})",
                    seg.name, seg.start, seg.start, seg.count
                )));
            }
            for term in &terms {
                dict.intern(term);
            }
        }
        if dict.len() != manifest.term_count as usize {
            return Err(DurabilityError::Corrupt(format!(
                "dictionary has {} terms, manifest says {}",
                dict.len(),
                manifest.term_count
            )));
        }

        // Runs: the flushed SPO index of the checkpointed snapshot.
        let payload = read_segment(io.as_ref(), &manifest.runs, SegmentKind::Runs)?;
        let mut reader = ByteReader::new(&payload);
        let triples = codec::decode_triples(&mut reader)?;
        if triples.len() as u64 != manifest.triple_count {
            return Err(DurabilityError::Corrupt(format!(
                "runs segment has {} triples, manifest says {}",
                triples.len(),
                manifest.triple_count
            )));
        }
        if let Some(&(s, p, o)) = triples.iter().find(|&&(s, p, o)| {
            s >= manifest.term_count || p >= manifest.term_count || o >= manifest.term_count
        }) {
            return Err(DurabilityError::Corrupt(format!(
                "runs segment references unknown term id in ({s}, {p}, {o})"
            )));
        }

        let mut store = TripleStore::new();
        *store.dict_mut() = dict;
        store.load_batch(
            triples
                .iter()
                .map(|&(s, p, o)| (TermId(s), TermId(p), TermId(o))),
        );
        store.flush();

        // Replay the WAL: cut the tail at the last valid record, then
        // apply each epoch newer than the checkpoint only if its commit
        // record survived.
        let wal = match io.read(WAL_FILE) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (records, _cut) = scan(&wal);
        let mut epoch = manifest.epoch;
        let mut verify_fingerprint = manifest.fingerprint;
        let mut staged: Vec<&WalRecord> = Vec::new();
        for record in &records {
            if record.epoch <= manifest.epoch {
                continue; // pre-checkpoint epoch still in a not-yet-reset WAL
            }
            match &record.entry {
                WalEntry::Op(_) => staged.push(record),
                WalEntry::Commit { fingerprint } => {
                    for staged_record in staged.drain(..) {
                        if staged_record.epoch != record.epoch {
                            return Err(DurabilityError::Corrupt(format!(
                                "WAL record of epoch {} inside committed epoch {}",
                                staged_record.epoch, record.epoch
                            )));
                        }
                        if let WalEntry::Op(op) = &staged_record.entry {
                            replay_op(&mut store, op);
                        }
                    }
                    epoch = record.epoch;
                    verify_fingerprint = *fingerprint;
                }
            }
        }
        // Records after the last commit belong to an epoch whose fsync
        // never acked; they are dropped with the torn tail.

        let recovered = store.fingerprint();
        // The store reads its fingerprint from a fold it keeps current;
        // debug builds (and so every recovery the test suites drive) hold
        // that equal to the defining walk over the triples.
        debug_assert_eq!(recovered, sofya_rdf::fingerprint_of(store.iter()));
        if recovered != verify_fingerprint {
            return Err(DurabilityError::Corrupt(format!(
                "recovered fingerprint {recovered:#x} != committed {verify_fingerprint:#x} at epoch {epoch}"
            )));
        }

        // Rewrite the WAL to exactly the applied records: this drops the
        // torn tail, stale pre-checkpoint epochs, and valid-but-
        // uncommitted orphan records whose epoch a future commit will
        // reuse. Staged via a temp file + atomic rename so a crash mid-
        // rewrite never loses committed records.
        let mut kept = Vec::new();
        for record in &records {
            if record.epoch > manifest.epoch && record.epoch <= epoch {
                append_record(&mut kept, record.epoch, &record.entry)?;
            }
        }
        if kept != wal {
            const WAL_TMP_FILE: &str = "wal.log.tmp";
            io.write(WAL_TMP_FILE, &kept)?;
            io.fsync(WAL_TMP_FILE)?;
            io.rename(WAL_TMP_FILE, WAL_FILE)?;
        }

        let log = Self {
            io,
            config,
            pending: Vec::new(),
            epoch,
            checkpoint_epoch: manifest.epoch,
            wal_bytes: kept.len() as u64,
            dict_persisted: manifest.term_count,
            dict_segments: manifest.dict_segments,
            runs_segment: Some(manifest.runs),
            poisoned: false,
        };
        Ok((log, store))
    }
}

/// Applies one replayed mutation through the same term-level calls the
/// original writer used, preserving intern order and therefore ids.
fn replay_op(store: &mut TripleStore, op: &WalOp) {
    match op {
        WalOp::Insert(s, p, o) => {
            store.insert_terms(s, p, o);
        }
        WalOp::Remove(s, p, o) => {
            let (Some(s), Some(p), Some(o)) = (
                store.dict().lookup(s),
                store.dict().lookup(p),
                store.dict().lookup(o),
            ) else {
                return;
            };
            store.remove(s, p, o);
        }
        WalOp::Batch(triples) => {
            store.load_batch_terms(triples.iter().map(|(s, p, o)| (s, p, o)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    fn mem() -> Arc<MemIo> {
        Arc::new(MemIo::new())
    }

    /// A writer pairing an in-memory store with the log, the wiring the
    /// endpoint-level `DurableStore` uses.
    struct Writer {
        store: TripleStore,
        log: DurableLog,
    }

    impl Writer {
        fn create(io: Arc<dyn StorageIo>, config: DurabilityConfig) -> Self {
            let mut store = TripleStore::new();
            let snapshot = store.snapshot();
            let log = DurableLog::create(io, config, &snapshot).unwrap();
            Self { store, log }
        }

        fn recover(io: Arc<dyn StorageIo>, config: DurabilityConfig) -> Self {
            let (log, store) = DurableLog::recover(io, config).unwrap();
            Self { store, log }
        }

        fn insert(&mut self, s: &Term, p: &Term, o: &Term) {
            if self.store.insert_terms(s, p, o) {
                self.log.record_insert(s, p, o);
            }
        }

        fn remove(&mut self, s: &Term, p: &Term, o: &Term) {
            let (Some(si), Some(pi), Some(oi)) = (
                self.store.dict().lookup(s),
                self.store.dict().lookup(p),
                self.store.dict().lookup(o),
            ) else {
                return;
            };
            if self.store.remove(si, pi, oi) {
                self.log.record_remove(s, p, o);
            }
        }

        fn publish(&mut self) -> CommitReceipt {
            let snapshot = self.store.snapshot();
            self.log.commit(&snapshot).unwrap()
        }

        /// The published fingerprint, held equal to the full walk.
        fn fingerprint(&mut self) -> u64 {
            let snapshot = self.store.snapshot();
            let fingerprint = snapshot.fingerprint();
            assert_eq!(fingerprint, sofya_rdf::fingerprint_of(snapshot.iter()));
            fingerprint
        }
    }

    fn t(i: usize) -> (Term, Term, Term) {
        (
            Term::iri(format!("e:s{}", i % 7)),
            Term::iri(format!("e:p{}", i % 3)),
            Term::literal(format!("v{}", i % 11)),
        )
    }

    #[test]
    fn create_then_recover_restores_the_fingerprint() {
        let io = mem();
        let mut writer = Writer::create(io.clone(), DurabilityConfig::default());
        for i in 0..20 {
            let (s, p, o) = t(i);
            writer.insert(&s, &p, &o);
        }
        let receipt = writer.publish();
        assert_eq!(receipt.epoch, 1);
        let want = writer.fingerprint();

        io.crash();
        let mut recovered = Writer::recover(io, DurabilityConfig::default());
        assert_eq!(recovered.log.epoch(), 1);
        assert_eq!(recovered.fingerprint(), want);
        assert_eq!(recovered.store.len(), writer.store.len());
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_survives_recovery() {
        let io = mem();
        let config = DurabilityConfig {
            checkpoint_every: 2,
        };
        let mut writer = Writer::create(io.clone(), config.clone());
        for round in 0..4 {
            for i in 0..5 {
                let (s, p, o) = t(round * 5 + i);
                writer.insert(&s, &p, &o);
            }
            let receipt = writer.publish();
            assert_eq!(receipt.checkpointed, receipt.epoch % 2 == 0);
        }
        assert_eq!(writer.log.checkpoint_epoch(), 4);
        assert_eq!(writer.log.wal_bytes(), 0);
        let want = writer.fingerprint();
        io.crash();
        let mut recovered = Writer::recover(io, config);
        assert_eq!(recovered.log.epoch(), 4);
        assert_eq!(recovered.fingerprint(), want);
    }

    #[test]
    fn removes_and_batches_replay_in_order() {
        let io = mem();
        let mut writer = Writer::create(io.clone(), DurabilityConfig::default());
        for i in 0..10 {
            let (s, p, o) = t(i);
            writer.insert(&s, &p, &o);
        }
        writer.publish();
        let (s, p, o) = t(3);
        writer.remove(&s, &p, &o);
        let batch: Vec<(Term, Term, Term)> = (20..30).map(t).collect();
        let n = writer
            .store
            .load_batch_terms(batch.iter().map(|(s, p, o)| (s, p, o)));
        assert!(n > 0);
        writer.log.record_batch(&batch);
        writer.publish();
        let want = writer.fingerprint();

        io.crash();
        let mut recovered = Writer::recover(io, DurabilityConfig::default());
        assert_eq!(recovered.log.epoch(), 2);
        assert_eq!(recovered.fingerprint(), want);
    }

    #[test]
    fn uncommitted_wal_tail_is_dropped() {
        let io = mem();
        let mut writer = Writer::create(io.clone(), DurabilityConfig::default());
        let (s, p, o) = t(0);
        writer.insert(&s, &p, &o);
        writer.publish();
        let want = writer.fingerprint();
        // An epoch whose commit record never made it: append mutation
        // records by hand without a commit.
        let mut tail = Vec::new();
        append_record(
            &mut tail,
            2,
            &WalEntry::Op(WalOp::Insert(t(1).0, t(1).1, t(1).2)),
        )
        .expect("encode");
        io.append(WAL_FILE, &tail).unwrap();
        io.fsync(WAL_FILE).unwrap();
        io.crash();
        let mut recovered = Writer::recover(io.clone(), DurabilityConfig::default());
        assert_eq!(recovered.log.epoch(), 1);
        assert_eq!(recovered.fingerprint(), want);
        // The orphan records are valid but uncommitted; recovery must
        // scrub them from the file, because the next commit reuses
        // epoch 2 and replay would otherwise resurrect them:
        let (s2, p2, o2) = (Term::iri("e:x"), Term::iri("e:y"), Term::iri("e:z"));
        recovered.insert(&s2, &p2, &o2);
        let receipt = {
            let snapshot = recovered.store.snapshot();
            recovered.log.commit(&snapshot).unwrap()
        };
        assert_eq!(receipt.epoch, 2);
        let want2 = recovered.fingerprint();
        io.crash();
        let mut again = Writer::recover(io, DurabilityConfig::default());
        assert_eq!(again.fingerprint(), want2);
    }

    #[test]
    fn create_refuses_an_initialised_directory() {
        let io = mem();
        let _writer = Writer::create(io.clone(), DurabilityConfig::default());
        let mut store = TripleStore::new();
        let snapshot = store.snapshot();
        assert!(DurableLog::create(io, DurabilityConfig::default(), &snapshot).is_err());
    }

    #[test]
    fn commit_failure_poisons_the_log() {
        use crate::io::{FaultKind, FaultyIo};
        let mem = mem();
        let io: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(
            mem.clone(),
            // Past create's checkpoint ops; hits the first commit's append.
            20,
            FaultKind::TornWrite,
        ));
        let mut store = TripleStore::new();
        let log_snapshot = store.snapshot();
        // create takes < 20 ops, so it succeeds.
        let mut log = DurableLog::create(io, DurabilityConfig::default(), &log_snapshot).unwrap();
        for i in 0.. {
            let s = Term::iri(format!("e:s{i}"));
            let (_, p, o) = t(i);
            if store.insert_terms(&s, &p, &o) {
                log.record_insert(&s, &p, &o);
            }
            let snapshot = store.snapshot();
            match log.commit(&snapshot) {
                Ok(_) => continue,
                Err(DurabilityError::Io(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        let snapshot = store.snapshot();
        assert!(matches!(
            log.commit(&snapshot),
            Err(DurabilityError::Poisoned)
        ));
        // The directory itself recovers cleanly.
        let (recovered, _) = DurableLog::recover(mem, DurabilityConfig::default()).unwrap();
        assert!(recovered.epoch() <= 20);
    }
}
