//! The durable log engine: one WAL frame per commit, and checkpoint
//! segments.
//!
//! [`DurableLog`] does not own the store and sees none of the calls that
//! change it. The owner (e.g. `sofya_endpoint::DurableStore`) mutates its
//! [`TripleStore`] and, at publish, commits the snapshot it is about to
//! publish ([`DurableLog::commit`]). The log keeps the snapshot of its
//! last commit and writes what the new one changed since, in ids: the
//! terms interned since, the first id explicit, and the SPO keys added
//! and removed ([`StoreSnapshot::diff_since`], walking the pages written
//! since), the one diff a commit takes: it hands the keys back for the
//! owner's swap to publish. Recovery gives every term the writer's id, so
//! the recovered dictionary is the writer's term for term and the
//! fingerprint identical.
//!
//! ## Protocol
//!
//! * **Commit** (per publish): append one frame — epoch, snapshot
//!   fingerprint, the change — in one write and fsync the WAL. The fsync
//!   returning is the ack. A commit that changed nothing writes nothing.
//! * **Checkpoint** (every [`DurabilityConfig::checkpoint_every`]
//!   commits): write what changed since the previous one — the terms
//!   interned since, and the SPO keys added and removed, into which each
//!   commit composes its frame (an add cancels a pending remove) — as
//!   checksummed segments (fsynced), stage at `MANIFEST.tmp` a manifest
//!   listing them after the segments already listed (fsynced), atomically
//!   rename it over `MANIFEST`, then truncate the WAL. A crash on either
//!   side of the rename leaves a valid manifest — old (the new segment an
//!   orphan nothing names) or new — and recovery skips every frame the
//!   manifest already covers. The cost follows the change, not the store.
//! * **Fold**: the checkpoint instead writes every key, in SPO order, as
//!   a fresh base listed alone (its predecessor the empty store) when
//!   there is no base yet (`create`), when the deltas with the new one
//!   would hold `FOLD_AT_BASE_SHARE` × the base's triples, or when there
//!   would be more than `MAX_DELTA_SEGMENTS` of them (of dictionary
//!   segments: those are rewritten as one in the same swap). Run segments
//!   on disk stay under twice the base and the manifest bounded.
//!   Superseded files are removed, best-effort, after the rename.
//! * **Recover**: load the manifest (missing ⇒ fresh store), then apply
//!   the dictionary segments, the run segments in order and the WAL
//!   frames newer than the checkpoint through one routine: intern a term
//!   slice that starts at the dictionary's length, remove keys that must
//!   be present, add keys that must be absent, and check the fingerprint
//!   a frame sealed (the manifest's, after the segments). The frames it
//!   replays are exactly the change since the manifest, so they compose
//!   into the change the next checkpoint writes, as commits' frames do.
//!   The WAL is cut at its torn tail and rewritten to the cut, so
//!   post-recovery appends never land after it.
//!
//! The WAL truncation needs no fsync of its own: once the manifest is
//! renamed, recovery skips every frame the WAL can still hold, and the
//! next commit's fsync of the same file covers the truncation.
//!
//! Any I/O failure during commit poisons the log: the in-memory store
//! may be ahead of disk and the WAL tail may be torn, so further
//! commits refuse with [`DurabilityError::Poisoned`] and the process
//! must re-open the directory through [`DurableLog::recover`].

use crate::error::DurabilityError;
use crate::io::StorageIo;
use crate::segment::{
    read_segment, write_segment, DictSegment, Manifest, RunsSegment, SegmentKind, MANIFEST_FILE,
    MANIFEST_TMP_FILE, WAL_FILE,
};
use crate::wal::{scan, Frame, Key};
use sofya_rdf::segment as codec;
use sofya_rdf::segment::ByteReader;
use sofya_rdf::{Dict, StoreSnapshot, Term, TermId, TripleStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fold rule (module docs): delta segments a manifest may list, and
/// the share of the base's triples they may reach.
const MAX_DELTA_SEGMENTS: usize = 16;
const FOLD_AT_BASE_SHARE: u64 = 1;

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
    /// The epoch this commit sealed (unchanged if nothing changed).
    pub epoch: u64,
    /// The committed snapshot's fingerprint.
    pub fingerprint: u64,
    /// WAL bytes appended by this commit: its frame, or 0.
    pub wal_bytes: u64,
    /// Wall-clock cost of the WAL fsync (the ack's latency floor).
    pub fsync_latency: Duration,
    /// Whether this commit also wrote a checkpoint (a delta or a fold).
    pub checkpointed: bool,
}

/// The durable log: WAL writer, checkpointer, and recovery reader.
#[derive(Debug)]
pub struct DurableLog {
    io: Arc<dyn StorageIo>,
    config: DurabilityConfig,
    epoch: u64,
    wal_bytes: u64,
    /// The manifest on disk (empty before the first checkpoint).
    manifest: Manifest,
    /// The snapshot of the last commit, which the next frame is the
    /// change from.
    committed: StoreSnapshot,
    /// The change from the state the manifest describes to the last
    /// commit, each key added (`true`) or removed, ascending, for the next
    /// checkpoint to write.
    pending: Vec<(Key, bool)>,
    poisoned: bool,
}

/// The number of terms in `dict`, as the next id.
fn term_count(dict: &Dict) -> Result<u32, DurabilityError> {
    u32::try_from(dict.len())
        .map_err(|_| DurabilityError::Corrupt("dictionary exceeds u32 term ids".into()))
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
            epoch: 0,
            wal_bytes: 0,
            manifest: Manifest::default(),
            committed: initial.clone(),
            pending: Vec::new(),
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
        self.manifest.epoch
    }

    /// Bytes currently in the WAL (since the last checkpoint).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    fn poison(&mut self, error: DurabilityError) -> DurabilityError {
        self.poisoned = true;
        error
    }

    /// Makes what `snapshot` changed since the last commit durable as the
    /// next epoch — one frame, one fsync — and returns the receipt with
    /// the keys [`StoreSnapshot::diff_since`] the last commit adds and
    /// removes. If it interned no term and added or removed no key,
    /// nothing is written and the receipt acks the current epoch. The
    /// caller passes the snapshot it is about to publish, taken from the
    /// store this log was created or recovered with; its fingerprint is
    /// sealed into the frame and verified at recovery.
    pub fn commit(
        &mut self,
        snapshot: &StoreSnapshot,
    ) -> Result<(CommitReceipt, [Vec<Key>; 2]), DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Poisoned);
        }
        let fingerprint = snapshot.fingerprint();
        let (start, end) = (
            term_count(self.committed.dict())?,
            term_count(snapshot.dict())?,
        );
        let (adds, removes) = snapshot.diff_since(&self.committed);
        if start == end && adds.is_empty() && removes.is_empty() {
            let receipt = CommitReceipt {
                epoch: self.epoch,
                fingerprint,
                wal_bytes: 0,
                fsync_latency: Duration::ZERO,
                checkpointed: false,
            };
            return Ok((receipt, [adds, removes]));
        }
        let dict = snapshot.dict();
        let frame = Frame {
            epoch: self.epoch + 1,
            fingerprint,
            start,
            terms: (start..end)
                .map(|id| dict.resolve(TermId(id)).clone())
                .collect(),
            adds,
            removes,
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf)?;

        self.io
            .append(WAL_FILE, &buf)
            .map_err(|e| self.poison(e.into()))?;
        // sofya: allow(determinism) — fsync latency is a wall-clock gauge in the receipt, never alignment state
        let fsync_start = Instant::now();
        self.io.fsync(WAL_FILE).map_err(|e| self.poison(e.into()))?;
        let fsync_latency = fsync_start.elapsed();

        self.epoch = frame.epoch;
        self.committed = snapshot.clone();
        self.wal_bytes += buf.len() as u64;
        compose(&mut self.pending, &frame.adds, &frame.removes);

        let mut checkpointed = false;
        if self.epoch - self.manifest.epoch >= self.config.checkpoint_every {
            self.checkpoint(snapshot, fingerprint)
                .map_err(|e| self.poison(e))?;
            checkpointed = true;
        }
        let receipt = CommitReceipt {
            epoch: self.epoch,
            fingerprint,
            wal_bytes: buf.len() as u64,
            fsync_latency,
            checkpointed,
        };
        Ok((receipt, [frame.adds, frame.removes]))
    }

    /// The keys added and removed since the last checkpoint, or `None`
    /// when the checkpoint has to fold.
    fn delta_since_checkpoint(&self) -> Option<(Vec<Key>, Vec<Key>)> {
        let (pending, base) = (&self.pending, self.manifest.runs.first()?);
        let deltas = self.manifest.runs.iter().skip(1);
        let delta_triples = deltas.map(|seg| seg.adds + seg.removes).sum::<u64>();
        let fold = self.manifest.runs.len() > MAX_DELTA_SEGMENTS
            || delta_triples + pending.len() as u64 >= FOLD_AT_BASE_SHARE * base.adds;
        let keys = |add: bool| pending.iter().filter(|c| c.1 == add).map(|c| c.0).collect();
        (!fold).then(|| (keys(true), keys(false)))
    }

    /// Writes segments + manifest for `snapshot` and truncates the WAL.
    fn checkpoint(
        &mut self,
        snapshot: &StoreSnapshot,
        fingerprint: u64,
    ) -> Result<(), DurabilityError> {
        let io = self.io.as_ref();
        let dict = snapshot.dict();
        let term_count = term_count(dict)?;

        // Runs: the change since the previous checkpoint after the
        // segments listed, or — a fold — every key, in SPO order, alone.
        let delta = self.delta_since_checkpoint();
        let fold = delta.is_none();
        let mut runs = Vec::new();
        if !fold {
            runs.clone_from(&self.manifest.runs);
        }
        let keys = || snapshot.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
        let (adds, removes) = delta.unwrap_or_else(|| (keys(), Vec::new()));
        let name = format!("runs-{:016}.seg", self.epoch);
        let mut payload = Vec::with_capacity(16 + 12 * (adds.len() + removes.len()));
        codec::encode_triples(&mut payload, &adds);
        codec::encode_triples(&mut payload, &removes);
        write_segment(io, &name, SegmentKind::Runs, &payload)?;
        runs.push(RunsSegment {
            name,
            adds: adds.len() as u64,
            removes: removes.len() as u64,
        });

        // Dictionary: the terms interned since the last checkpoint (ids
        // are append-only, so older segments stay valid) — or, at a fold
        // that finds too many segments, all of them as one.
        let (mut start, mut dict_segments) = (self.manifest.term_count, Vec::new());
        if fold && self.manifest.dict_segments.len() > MAX_DELTA_SEGMENTS {
            start = 0;
        } else {
            dict_segments.clone_from(&self.manifest.dict_segments);
        }
        if term_count > start {
            // Named by both ends: a merged segment starts at 0 as the first
            // delta did, and that file must survive until the rename.
            let name = format!("dict-{start:010}-{term_count:010}.seg");
            let mut payload = Vec::new();
            payload.extend_from_slice(&start.to_le_bytes());
            let terms = (start..term_count).map(|id| dict.resolve(TermId(id)));
            codec::encode_terms(&mut payload, terms);
            write_segment(io, &name, SegmentKind::Dict, &payload)?;
            dict_segments.push(DictSegment {
                name,
                start,
                count: term_count - start,
            });
        }

        // Stage + atomically publish the manifest: the commit point.
        let manifest = Manifest {
            epoch: self.epoch,
            fingerprint,
            term_count,
            triple_count: snapshot.len() as u64,
            runs,
            dict_segments,
        };
        let staged = manifest.encode()?;
        write_segment(io, MANIFEST_TMP_FILE, SegmentKind::Manifest, &staged)?;
        io.rename(MANIFEST_TMP_FILE, MANIFEST_FILE)?;

        // The WAL's epochs are all ≤ the manifest's now; reset it. The
        // next commit's fsync covers the truncation (see the module docs).
        io.write(WAL_FILE, &[])?;

        // Drop the files the new manifest no longer lists (best-effort;
        // an orphan left by a crash here is never opened by recovery).
        let superseded = std::mem::replace(&mut self.manifest, manifest);
        for name in superseded.files() {
            if !self.manifest.files().any(|live| live == name) {
                let _ = io.remove(name);
            }
        }
        self.pending.clear();
        self.wal_bytes = 0;
        Ok(())
    }

    /// Rebuilds the store from the manifest, its segments and the WAL's
    /// frames, and returns the log ready for new commits alongside the
    /// recovered store.
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
        use DurabilityError::Corrupt;

        // The checkpoint: the dictionary segments in id order, then the
        // run segments, a base and its deltas, in the order they apply.
        let mut store = TripleStore::new();
        for seg in &manifest.dict_segments {
            let payload = read_segment(io.as_ref(), &seg.name, SegmentKind::Dict)?;
            let mut reader = ByteReader::new(&payload);
            let (start, terms) = (reader.u32()?, codec::decode_terms(&mut reader)?);
            let applied = if (start, terms.len()) != (seg.start, seg.count as usize) {
                Err("not the terms the manifest lists".into())
            } else {
                apply(&mut store, start, &terms, &[], &[], None)
            };
            applied.map_err(|what| Corrupt(format!("dict segment {}: {what}", seg.name)))?;
        }
        if store.dict().len() != manifest.term_count as usize {
            return Err(Corrupt(format!(
                "dictionary has {} terms, manifest says {}",
                store.dict().len(),
                manifest.term_count
            )));
        }
        for seg in &manifest.runs {
            let payload = read_segment(io.as_ref(), &seg.name, SegmentKind::Runs)?;
            let mut reader = ByteReader::new(&payload);
            let adds = codec::decode_triples(&mut reader)?;
            let removes = codec::decode_triples(&mut reader)?;
            let counts = (adds.len() as u64, removes.len() as u64);
            let applied = if counts != (seg.adds, seg.removes) || reader.remaining() != 0 {
                Err("not the triples the manifest lists".into())
            } else {
                apply(&mut store, manifest.term_count, &[], &removes, &adds, None)
            };
            applied.map_err(|what| Corrupt(format!("runs segment {}: {what}", seg.name)))?;
        }
        let sealed = (manifest.triple_count, manifest.fingerprint);
        if (store.len() as u64, store.fingerprint()) != sealed {
            return Err(Corrupt(format!(
                "run segments hold {} triples of fingerprint {:#x}, manifest says {} of {:#x}",
                store.len(),
                store.fingerprint(),
                sealed.0,
                sealed.1
            )));
        }

        // The WAL: every frame newer than the checkpoint, each one epoch
        // after the last. Older ones are left by a checkpoint that crashed
        // before resetting the file.
        let mut wal = match io.read(WAL_FILE) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (frames, cut) = scan(&wal)?;
        let (mut epoch, mut pending) = (manifest.epoch, Vec::new());
        for frame in frames.iter().filter(|frame| frame.epoch > manifest.epoch) {
            let applied = if frame.epoch != epoch + 1 {
                Err(format!("follows epoch {epoch}"))
            } else {
                apply(
                    &mut store,
                    frame.start,
                    &frame.terms,
                    &frame.removes,
                    &frame.adds,
                    Some(frame.fingerprint),
                )
            };
            applied
                .map_err(|what| Corrupt(format!("wal frame of epoch {}: {what}", frame.epoch)))?;
            compose(&mut pending, &frame.adds, &frame.removes);
            epoch = frame.epoch;
        }
        store.flush();
        // The store reads its fingerprint from a fold it keeps current;
        // debug builds (and so every recovery the test suites drive) hold
        // that equal to the defining walk over the triples.
        debug_assert_eq!(store.fingerprint(), sofya_rdf::fingerprint_of(store.iter()));

        // Cut the torn tail, so post-recovery appends never land after
        // it. Staged via a temp file + atomic rename so a crash mid-
        // rewrite never loses a frame.
        if wal.len() > cut {
            const WAL_TMP_FILE: &str = "wal.log.tmp";
            wal.truncate(cut);
            io.write(WAL_TMP_FILE, &wal)?;
            io.fsync(WAL_TMP_FILE)?;
            io.rename(WAL_TMP_FILE, WAL_FILE)?;
        }

        let log = Self {
            io,
            config,
            epoch,
            wal_bytes: cut as u64,
            manifest,
            committed: store.snapshot(),
            pending,
            poisoned: false,
        };
        Ok((log, store))
    }
}

/// Composes `pending`, a net change, with the next, `adds` and `removes`,
/// all ascending: a stable sort merges the three runs, and a key both
/// name cancels, an add undoing a pending remove or a remove an add.
fn compose(pending: &mut Vec<(Key, bool)>, adds: &[Key], removes: &[Key]) {
    pending.extend(adds.iter().map(|&key| (key, true)));
    pending.extend(removes.iter().map(|&key| (key, false)));
    pending.sort_by_key(|&(key, _)| key);
    for change in std::mem::take(pending) {
        if pending.last().is_some_and(|last| last.0 == change.0) {
            pending.pop();
        } else {
            pending.push(change);
        }
    }
}

/// The one routine recovery changes the store by, for checkpoint segments
/// and WAL frames alike: intern `terms` as the ids from `start`, which
/// must be the dictionary's length; remove `removes`, each of which must
/// be present; add `adds`, each of which must be absent; and check the
/// `fingerprint` the change sealed, if it sealed one. The error names the
/// promise the change broke.
fn apply(
    store: &mut TripleStore,
    start: u32,
    terms: &[Term],
    removes: &[Key],
    adds: &[Key],
    fingerprint: Option<u64>,
) -> Result<(), String> {
    let dict = store.dict_mut();
    if start as usize != dict.len() {
        return Err(format!(
            "starts at term {start}, after {} terms",
            dict.len()
        ));
    }
    for term in terms {
        dict.intern(term);
    }
    let known = dict.len();
    if known != start as usize + terms.len() {
        return Err("interns a term twice".into());
    }
    if !removes
        .iter()
        .chain(adds)
        .all(|&(s, p, o)| (s.max(p).max(o) as usize) < known)
    {
        return Err("names a term id the dictionary does not hold".into());
    }
    let ids = |&(s, p, o): &Key| (TermId(s), TermId(p), TermId(o));
    if store.remove_batch(removes.iter().map(ids)) != removes.len()
        || store.load_batch(adds.iter().map(ids)) != adds.len()
    {
        return Err("removes an absent key or adds a present one".into());
    }
    match fingerprint {
        Some(sealed) if sealed != store.fingerprint() => Err(format!(
            "leaves fingerprint {:#x}, the commit sealed {sealed:#x}",
            store.fingerprint()
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;
    use std::collections::BTreeSet;

    fn mem() -> Arc<MemIo> {
        Arc::new(MemIo::new())
    }

    /// A writer pairing an in-memory store with the log, the wiring the
    /// endpoint-level `DurableStore` uses: writes touch the store only.
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
            self.store.insert_terms(s, p, o);
        }

        fn remove(&mut self, s: &Term, p: &Term, o: &Term) {
            let dict = self.store.dict();
            if let (Some(s), Some(p), Some(o)) = (dict.lookup(s), dict.lookup(p), dict.lookup(o)) {
                self.store.remove(s, p, o);
            }
        }

        fn batch(&mut self, triples: &[(Term, Term, Term)]) {
            self.store
                .load_batch_terms(triples.iter().map(|(s, p, o)| (s, p, o)));
        }

        fn publish(&mut self) -> CommitReceipt {
            let snapshot = self.store.snapshot();
            self.log.commit(&snapshot).unwrap().0
        }

        /// The store's contents in terms, as a set.
        fn triples(&self) -> BTreeSet<(Term, Term, Term)> {
            let resolved = self.store.iter().map(|t| self.store.resolve(t));
            resolved
                .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()))
                .collect()
        }

        /// The dictionary, in id order.
        fn terms(&self) -> Vec<&Term> {
            self.store.dict().iter().map(|(_, term)| term).collect()
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
        writer.batch(&(20..30).map(t).collect::<Vec<_>>());
        writer.publish();
        let want = writer.fingerprint();

        io.crash();
        let mut recovered = Writer::recover(io, DurabilityConfig::default());
        assert_eq!(recovered.log.epoch(), 2);
        assert_eq!(recovered.fingerprint(), want);
        assert_eq!(recovered.terms(), writer.terms());
    }

    #[test]
    fn uncommitted_wal_tail_is_dropped() {
        let io = mem();
        let mut writer = Writer::create(io.clone(), DurabilityConfig::default());
        let (s, p, o) = t(0);
        writer.insert(&s, &p, &o);
        writer.publish();
        let want = writer.fingerprint();
        // An epoch whose append tore: all of a frame but its last byte.
        let mut torn = Vec::new();
        let (s1, p1, o1) = t(1);
        let frame = Frame {
            epoch: 2,
            start: 3,
            terms: vec![s1, p1, o1],
            adds: vec![(3, 4, 5)],
            ..Frame::default()
        };
        frame.encode(&mut torn).expect("encode");
        torn.pop();
        io.append(WAL_FILE, &torn).unwrap();
        io.fsync(WAL_FILE).unwrap();
        io.crash();
        let mut recovered = Writer::recover(io.clone(), DurabilityConfig::default());
        assert_eq!(recovered.log.epoch(), 1);
        assert_eq!(recovered.fingerprint(), want);
        // Recovery must cut the torn bytes from the file: the next commit
        // appends after them otherwise, and a scan stops at them.
        let (s2, p2, o2) = (Term::iri("e:x"), Term::iri("e:y"), Term::iri("e:z"));
        recovered.insert(&s2, &p2, &o2);
        assert_eq!(recovered.publish().epoch, 2);
        let want2 = recovered.fingerprint();
        io.crash();
        let mut again = Writer::recover(io, DurabilityConfig::default());
        assert_eq!(again.log.epoch(), 2);
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
            store.insert_terms(&s, &p, &o);
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

    /// The log of a directory written in the previous, term-level format
    /// (the bytes its encoder produced for one epoch of an insert, a batch,
    /// a remove and the commit record) passes every checksum but holds no
    /// frame. Recovery refuses it, and leaves it as it was.
    #[test]
    fn a_previous_format_wal_is_refused_and_kept() {
        const PREVIOUS: &str = "\
            1f00000021c187ae0700000000000000010003000000653a730003000000653a70020100000076\
            4b0000007d4ce31d070000000000000003020000000003000000653a610003000000653a700301\
            0000007802000000656e0003000000653a620003000000653a7104020000003432070000007873\
            643a696e74\
            1f0000001cf862d80700000000000000020003000000653a730003000000653a70020100000076\
            11000000d4e18895070000000000000004efcdab8967452301";
        let previous: Vec<u8> = (0..PREVIOUS.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PREVIOUS[i..i + 2], 16).unwrap())
            .collect();
        let io = mem();
        let _writer = Writer::create(io.clone(), DurabilityConfig::default());
        io.write(WAL_FILE, &previous).unwrap();
        io.fsync(WAL_FILE).unwrap();
        match DurableLog::recover(io.clone(), DurabilityConfig::default()) {
            Err(DurabilityError::Corrupt(what)) => {
                assert!(what.contains("at byte 0 passes its checksum"), "{what}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(io.read(WAL_FILE).unwrap(), previous);
    }

    // ------------------------------------------- delta checkpoints and folds

    const EVERY_PUBLISH: DurabilityConfig = DurabilityConfig {
        checkpoint_every: 1,
    };

    const NEVER: DurabilityConfig = DurabilityConfig {
        checkpoint_every: u64::MAX,
    };

    /// The directory as a power cut would leave it, on a disk of its own.
    fn crashed_copy(io: &MemIo) -> Arc<MemIo> {
        io.crash();
        let copy = mem();
        for name in io.file_names() {
            copy.write(&name, &io.read(&name).unwrap()).unwrap();
            copy.fsync(&name).unwrap();
        }
        copy
    }

    fn manifest_of(io: &MemIo) -> Manifest {
        Manifest::decode(&read_segment(io, MANIFEST_FILE, SegmentKind::Manifest).unwrap()).unwrap()
    }

    /// `(adds, removes)` of each listed run segment.
    fn run_counts(io: &MemIo) -> Vec<(u64, u64)> {
        let runs = manifest_of(io).runs;
        runs.iter().map(|seg| (seg.adds, seg.removes)).collect()
    }

    fn delta_triples(manifest: &Manifest) -> u64 {
        let deltas = manifest.runs.iter().skip(1);
        deltas.map(|seg| seg.adds + seg.removes).sum()
    }

    /// What must hold after any publish: a recovery from the crashed
    /// directory is the writer, dictionary included term for term; the
    /// directory holds the files the manifest lists and no others; the
    /// deltas stay smaller than their base; and the manifest is the last
    /// commit's at `checkpoint_every: 1`, `create`'s when it never comes.
    fn check_checkpointed_state(
        io: &MemIo,
        writer: &mut Writer,
        config: &DurabilityConfig,
        context: &str,
    ) {
        let copy = crashed_copy(io);
        let manifest = manifest_of(&copy);
        let mut listed: Vec<String> = manifest.files().map(str::to_owned).collect();
        listed.extend([MANIFEST_FILE.to_owned(), WAL_FILE.to_owned()]);
        listed.sort();
        assert_eq!(copy.file_names(), listed, "{context}: files present");
        assert!(
            manifest.runs.len() == 1 || delta_triples(&manifest) < manifest.runs[0].adds,
            "{context}: deltas outgrew their base: {:?}",
            manifest.runs
        );
        assert!(manifest.runs.len() <= 1 + MAX_DELTA_SEGMENTS, "{context}");
        let checkpointed = match config.checkpoint_every {
            1 => writer.log.epoch(),
            _ => 0,
        };
        assert_eq!(manifest.epoch, checkpointed, "{context}");

        let mut recovered = Writer::recover(copy, config.clone());
        assert_eq!(recovered.log.epoch(), writer.log.epoch(), "{context}");
        assert_eq!(recovered.fingerprint(), writer.fingerprint(), "{context}");
        assert_eq!(recovered.triples(), writer.triples(), "{context}");
        assert_eq!(recovered.terms(), writer.terms(), "{context}");
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Insert(usize),
        Remove(usize),
        /// Keys `i` and `i + 1` (mod 8) in one batch.
        Batch(usize),
        Publish,
    }

    /// Key `i` of the 2 × 2 × 2 universe.
    fn tiny(i: usize) -> (Term, Term, Term) {
        (
            Term::iri(format!("e:s{}", i & 1)),
            Term::iri(format!("e:p{}", (i >> 1) & 1)),
            Term::literal(format!("v{}", (i >> 2) & 1)),
        )
    }

    fn apply_step(writer: &mut Writer, step: Step) {
        match step {
            Step::Insert(i) => {
                let (s, p, o) = tiny(i);
                writer.insert(&s, &p, &o);
            }
            Step::Remove(i) => {
                let (s, p, o) = tiny(i);
                writer.remove(&s, &p, &o);
            }
            Step::Batch(i) => writer.batch(&[tiny(i), tiny((i + 1) % 8)]),
            Step::Publish => {
                writer.publish();
            }
        }
    }

    /// Small scope, every case (Collavizza et al.): every sequence of at
    /// most four steps over the eight keys, from a fresh directory and
    /// from one that already holds a base and a delta, checked after its
    /// last publish (an earlier publish is the last one of a prefix, and
    /// a sequence that ends otherwise adds nothing durable to check). Run
    /// checkpointing every publish, and never, so that the WAL's frames
    /// carry the whole history.
    #[test]
    fn every_short_sequence_checkpoints_and_recovers_exactly() {
        let mut steps = vec![Step::Publish];
        for i in 0..8 {
            steps.extend([Step::Insert(i), Step::Remove(i), Step::Batch(i)]);
        }
        let starts: [&[Step]; 2] = [
            &[],
            &[
                Step::Batch(0),
                Step::Insert(2),
                Step::Publish, // a base of three …
                Step::Insert(3),
                Step::Publish, // … and a delta of one
            ],
        ];
        let mut checked = 0usize;
        for config in [EVERY_PUBLISH, NEVER] {
            for start in starts {
                for len in 0..4 {
                    // Sequences of `len` free steps, then a publish.
                    for code in 0..steps.len().pow(len) {
                        let mut sequence = start.to_vec();
                        let mut code = code;
                        for _ in 0..len {
                            sequence.push(steps[code % steps.len()]);
                            code /= steps.len();
                        }
                        sequence.push(Step::Publish);
                        let io = mem();
                        let mut writer = Writer::create(io.clone(), config.clone());
                        for &step in &sequence {
                            apply_step(&mut writer, step);
                        }
                        let context = format!("{config:?} {sequence:?}");
                        check_checkpointed_state(&io, &mut writer, &config, &context);
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 2 * (1 + 25 + 25 * 25 + 25 * 25 * 25));
        // The second start really is a base and a delta.
        let io = mem();
        let mut writer = Writer::create(io.clone(), EVERY_PUBLISH);
        for &step in starts[1] {
            apply_step(&mut writer, step);
        }
        assert_eq!(run_counts(&io), [(3, 0), (1, 0)]);
        // One more change than the base can carry folds both away.
        apply_step(&mut writer, Step::Remove(0));
        apply_step(&mut writer, Step::Insert(4));
        apply_step(&mut writer, Step::Publish);
        assert_eq!(run_counts(&io), [(4, 0)]);
    }

    fn numbered(i: usize) -> (Term, Term, Term) {
        (
            Term::iri(format!("e:s{i}")),
            Term::iri(format!("e:p{}", i % 5)),
            Term::iri(format!("e:o{}", i % 97)),
        )
    }

    /// Bytes of the run segment files the manifest lists.
    fn run_bytes_on_disk(io: &MemIo) -> u64 {
        let runs = manifest_of(io).runs;
        runs.iter()
            .map(|seg| io.read(&seg.name).unwrap().len() as u64)
            .sum()
    }

    /// A checkpoint's cost follows the change, as a count: each delta
    /// segment of 32 inserts + 32 removes is the same few hundred bytes
    /// over a 20,000-triple store, and the only fold in 32 of them is the
    /// one the segment-count constant asks for.
    #[test]
    fn small_changes_write_small_segments_and_fold_only_by_count() {
        const BASE: usize = 20_000;
        let io = mem();
        let mut writer = Writer::create(io.clone(), EVERY_PUBLISH);
        writer.batch(&(0..BASE).map(numbered).collect::<Vec<_>>());
        writer.publish();
        assert_eq!(manifest_of(&io).runs.len(), 1, "the preload is a fold");

        let mut deltas = 0usize; // the model of the rule
        for round in 0..32 {
            for i in 0..32 {
                let (s, p, o) = numbered(BASE + round * 32 + i);
                writer.insert(&s, &p, &o);
                let (s, p, o) = numbered(round * 32 + i);
                writer.remove(&s, &p, &o);
            }
            assert!(writer.publish().checkpointed);
            let manifest = manifest_of(&io);
            // 64 × 32 stays far below the base, so only the count folds.
            deltas = if deltas == MAX_DELTA_SEGMENTS {
                0
            } else {
                deltas + 1
            };
            assert_eq!(manifest.runs.len(), 1 + deltas, "round {round}");
            let newest = manifest.runs.last().unwrap();
            let written = io.read(&newest.name).unwrap().len();
            if deltas == 0 {
                assert_eq!(round, MAX_DELTA_SEGMENTS, "the one fold");
                assert_eq!((newest.adds, newest.removes), (BASE as u64, 0));
                assert_eq!(written, 21 + 16 + 12 * BASE);
            } else {
                assert_eq!((newest.adds, newest.removes), (32, 32));
                assert_eq!(written, 21 + 16 + 12 * 64, "frame + two counts + 64 keys");
            }
            let manifest_bytes = io.read(MANIFEST_FILE).unwrap().len();
            assert!(manifest_bytes < 4 * 12 * 64, "manifest {manifest_bytes} B");
        }
        check_checkpointed_state(
            &io,
            &mut writer,
            &EVERY_PUBLISH,
            "after 32 small checkpoints",
        );
    }

    /// Larger changes fold by size, when the deltas would reach the base,
    /// before they fold by count. The run segments on disk never exceed
    /// twice the live store.
    #[test]
    fn large_changes_fold_by_size_and_bound_the_disk() {
        const BASE: usize = 20_000;
        let io = mem();
        let mut writer = Writer::create(io.clone(), EVERY_PUBLISH);
        writer.batch(&(0..BASE).map(numbered).collect::<Vec<_>>());
        writer.publish();
        // The model of the rule: the base, and the deltas' triples each.
        let (mut base, mut deltas, mut folds) = (BASE as u64, Vec::new(), Vec::new());
        for round in 0..32 {
            let from = BASE + round * 2_000;
            writer.batch(&(from..from + 2_000).map(numbered).collect::<Vec<_>>());
            writer.publish();
            deltas.push(2_000u64);
            let by_size = deltas.iter().sum::<u64>() >= base;
            if by_size || deltas.len() > MAX_DELTA_SEGMENTS {
                base = writer.store.len() as u64;
                deltas.clear();
                folds.push((round, by_size));
            }
            let manifest = manifest_of(&io);
            assert_eq!(manifest.runs[0].adds, base, "round {round}");
            assert_eq!(manifest.runs.len(), 1 + deltas.len(), "round {round}");
            assert_eq!(
                delta_triples(&manifest),
                deltas.iter().sum(),
                "round {round}"
            );
            let id_bytes = 12 * writer.store.len() as u64;
            let framing = 37 * manifest.runs.len() as u64;
            assert!(
                run_bytes_on_disk(&io) <= 2 * id_bytes + framing,
                "round {round}"
            );
        }
        // Ten deltas reach the 20,000 of the first base; the 40,000 of
        // the second are still 6,000 away at its seventeenth delta.
        assert_eq!(folds, [(9, true), (26, false)]);
        check_checkpointed_state(
            &io,
            &mut writer,
            &EVERY_PUBLISH,
            "after 32 large checkpoints",
        );
    }

    /// A crash after a delta segment's fsync and before the manifest
    /// rename leaves a file no manifest names. Recovery never opens it —
    /// this one would fail its frame check — and returns what it returns
    /// without it.
    #[test]
    fn an_orphan_run_segment_is_never_read() {
        let io = mem();
        let mut writer = Writer::create(io.clone(), EVERY_PUBLISH);
        writer.batch(&(0..10).map(numbered).collect::<Vec<_>>());
        writer.publish();
        let (s, p, o) = numbered(10);
        writer.insert(&s, &p, &o);
        writer.publish();
        assert_eq!(manifest_of(&io).runs.len(), 2);

        let copy = crashed_copy(&io);
        let orphan = format!("runs-{:016}.seg", writer.log.epoch() + 1);
        copy.write(&orphan, b"not a segment").unwrap();
        copy.fsync(&orphan).unwrap();
        let mut recovered = Writer::recover(copy.clone(), EVERY_PUBLISH);
        assert_eq!(recovered.log.epoch(), writer.log.epoch());
        assert_eq!(recovered.fingerprint(), writer.fingerprint());
        // The next checkpoint takes the orphan's name and replaces it.
        let (s, p, o) = numbered(11);
        recovered.insert(&s, &p, &o);
        recovered.publish();
        check_checkpointed_state(&copy, &mut recovered, &EVERY_PUBLISH, "after the orphan");
    }

    /// The dictionary's segments are bounded like the runs': a fold that
    /// finds more than `MAX_DELTA_SEGMENTS` of them writes one.
    #[test]
    fn dictionary_segments_are_merged_at_a_fold() {
        let io = mem();
        let mut writer = Writer::create(io.clone(), EVERY_PUBLISH);
        let (p, o) = (Term::iri("e:p"), Term::iri("e:o"));
        let mut most = 0;
        for i in 0..40 {
            // One new term (three the first time) per checkpoint.
            writer.insert(&Term::iri(format!("e:s{i}")), &p, &o);
            assert!(writer.publish().checkpointed);
            most = most.max(manifest_of(&io).dict_segments.len());
        }
        // Merged at the fold of checkpoint 32, nine more since; and never
        // more than a fold's worth beyond the bound in between.
        let dict_files = |io: &MemIo| {
            let names = io.file_names();
            names.iter().filter(|n| n.starts_with("dict-")).count()
        };
        assert_eq!(manifest_of(&io).dict_segments.len(), 9);
        assert_eq!(dict_files(&io), 9);
        assert!(most > MAX_DELTA_SEGMENTS && most <= 2 * MAX_DELTA_SEGMENTS);
        check_checkpointed_state(
            &io,
            &mut writer,
            &EVERY_PUBLISH,
            "after 40 interning checkpoints",
        );
    }

    /// The merge rewrites terms a live manifest still reaches through
    /// older files, so every fault at every I/O operation of the merging
    /// checkpoint must leave a directory that recovers to the publish
    /// before it or to the one it sealed — and to the latter once acked.
    #[test]
    fn a_fault_anywhere_in_the_dictionary_merge_recovers() {
        use crate::io::{FaultKind, FaultyIo};
        // 32 publishes of one new term each; the last one merges. Returns
        // the `(epoch, fingerprint)` of every acknowledged publish.
        let run = |io: Arc<dyn StorageIo>, publishes: usize| {
            let mut store = TripleStore::new();
            let mut acked = vec![(0, store.snapshot().fingerprint())];
            let Ok(mut log) = DurableLog::create(io, EVERY_PUBLISH, &store.snapshot()) else {
                return acked;
            };
            let (p, o) = (Term::iri("e:p"), Term::iri("e:o"));
            for i in 0..publishes {
                store.insert_terms(&Term::iri(format!("e:s{i}")), &p, &o);
                match log.commit(&store.snapshot()) {
                    Ok((receipt, _)) => acked.push((receipt.epoch, receipt.fingerprint)),
                    Err(_) => break,
                }
            }
            acked
        };
        let ops_of = |publishes| {
            let counter = Arc::new(FaultyIo::new(mem(), u64::MAX, FaultKind::Kill));
            run(counter.clone(), publishes);
            counter.ops_seen()
        };
        let clean = mem();
        let history = run(clean.clone(), 32);
        assert_eq!(manifest_of(&clean).dict_segments.len(), 1, "32 merges");
        let (before, after) = (ops_of(31), ops_of(32));
        assert!(
            after - before >= 9,
            "WAL, two segments, manifest, swap, removes"
        );
        for fault_at in before + 1..=after {
            for kind in FaultKind::ALL {
                let disk = mem();
                let acked = run(Arc::new(FaultyIo::new(disk.clone(), fault_at, kind)), 32);
                disk.crash();
                let (log, store) = match DurableLog::recover(disk, EVERY_PUBLISH) {
                    Ok(recovered) => recovered,
                    Err(DurabilityError::Corrupt(_)) if kind == FaultKind::BitFlip => continue,
                    Err(e) => panic!("{kind:?} at op {fault_at}: {e}"),
                };
                let recovered = (log.epoch(), store.fingerprint());
                assert!(history.contains(&recovered), "{kind:?} at op {fault_at}");
                if kind != FaultKind::BitFlip {
                    let last = acked.last().expect("epoch 0 is always there");
                    assert!(
                        recovered.0 >= last.0,
                        "{kind:?} at op {fault_at}: lost an ack"
                    );
                }
            }
        }
    }

    // ------------------------------------ checkpoints built from frames

    /// The keys of the run segment `seg` names: its adds and removes.
    fn run_keys(io: &MemIo, seg: &RunsSegment) -> (Vec<Key>, Vec<Key>) {
        let payload = read_segment(io, &seg.name, SegmentKind::Runs).unwrap();
        let mut reader = ByteReader::new(&payload);
        let adds = codec::decode_triples(&mut reader).unwrap();
        (adds, codec::decode_triples(&mut reader).unwrap())
    }

    /// What [`Checked`] saw: checkpoints written as deltas and as folds,
    /// deltas in which a frame's change cancelled an earlier one's, and
    /// deltas and folds that were the first checkpoint after a recovery.
    #[derive(Debug, Default)]
    struct Seen {
        deltas: usize,
        folds: usize,
        cancelled: usize,
        recovered_deltas: usize,
        recovered_folds: usize,
    }

    /// A writer that checks every checkpoint's run segment against its
    /// definition as it goes: a delta is `diff_since` the snapshot of the
    /// previous checkpoint, a fold is every key, and which of the two it
    /// is follows the fold rule, across recoveries too.
    struct Checked {
        io: Arc<MemIo>,
        writer: Writer,
        config: DurabilityConfig,
        /// The snapshot of the last checkpoint, kept across a recovery.
        checkpointed: StoreSnapshot,
        /// Keys the frames since the last checkpoint added and removed.
        framed: usize,
        /// Whether there was a recovery since the last checkpoint.
        recovered: bool,
        seen: Seen,
    }

    impl Checked {
        fn create(config: DurabilityConfig) -> Self {
            let io = mem();
            let mut writer = Writer::create(io.clone(), config.clone());
            let checkpointed = writer.store.snapshot();
            Self {
                io,
                writer,
                config,
                checkpointed,
                framed: 0,
                recovered: false,
                seen: Seen::default(),
            }
        }

        fn publish(&mut self, context: &str) {
            let before = manifest_of(&self.io);
            let snapshot = self.writer.store.snapshot();
            let (receipt, [adds, removes]) = self.writer.log.commit(&snapshot).unwrap();
            self.framed += adds.len() + removes.len();
            if !receipt.checkpointed {
                return;
            }
            let after = manifest_of(&self.io);
            let written = run_keys(&self.io, after.runs.last().unwrap());
            let diff = snapshot.diff_since(&self.checkpointed);
            let fold = before.runs.len() > MAX_DELTA_SEGMENTS
                || delta_triples(&before) + (diff.0.len() + diff.1.len()) as u64
                    >= FOLD_AT_BASE_SHARE * before.runs[0].adds;
            if fold {
                let every = snapshot.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
                assert_eq!(
                    after.runs.len(),
                    1,
                    "{context}: a fold lists its base alone"
                );
                assert_eq!(
                    written,
                    (every, Vec::new()),
                    "{context}: a fold is every key"
                );
                self.seen.folds += 1;
                self.seen.recovered_folds += usize::from(self.recovered);
            } else {
                assert_eq!(after.runs.len(), before.runs.len() + 1, "{context}");
                assert_eq!(
                    written, diff,
                    "{context}: a delta is the diff since the last"
                );
                self.seen.deltas += 1;
                self.seen.cancelled += usize::from(diff.0.len() + diff.1.len() < self.framed);
                self.seen.recovered_deltas += usize::from(self.recovered);
            }
            self.checkpointed = snapshot;
            self.framed = 0;
            self.recovered = false;
        }

        /// Crashes the directory and carries on with what recovers: every
        /// committed frame, so the change since the last checkpoint too.
        fn recover(&mut self) {
            let copy = crashed_copy(&self.io);
            self.writer = Writer::recover(copy.clone(), self.config.clone());
            self.io = copy;
            self.recovered = true;
        }

        /// A recovery from the crashed directory is the writer,
        /// dictionary included term for term.
        fn check_recovery(&mut self, context: &str) {
            let mut recovered = Writer::recover(crashed_copy(&self.io), self.config.clone());
            let writer = &mut self.writer;
            assert_eq!(recovered.log.epoch(), writer.log.epoch(), "{context}");
            assert_eq!(recovered.fingerprint(), writer.fingerprint(), "{context}");
            assert_eq!(recovered.triples(), writer.triples(), "{context}");
            assert_eq!(recovered.terms(), writer.terms(), "{context}");
        }
    }

    /// Small scope, every case: every sequence of four publishes, each of
    /// a change to three keys — any of them toggled, none (a publish that
    /// commits nothing) or all — from a fresh directory and from one that
    /// holds eight keys, checkpointing every second and every third
    /// commit, with and without a recovery after the second publish. The
    /// windows hold a key added and then removed and one removed and then
    /// re-added; the fresh directory's small base folds by size.
    #[test]
    fn every_checkpoint_written_from_frames_is_the_diff_it_replaces() {
        let mut seen = Seen::default();
        for every in [2, 3] {
            let config = DurabilityConfig {
                checkpoint_every: every,
            };
            for base in [0, 8] {
                for recover in [false, true] {
                    for code in 0..8usize.pow(4) {
                        let masks = [0, 1, 2, 3].map(|i| (code >> (3 * i)) & 7);
                        let context = format!("every {every}, base {base}, {masks:?}");
                        let mut checked = Checked::create(config.clone());
                        if base > 0 {
                            checked
                                .writer
                                .batch(&(0..base).map(tiny).collect::<Vec<_>>());
                            checked.publish(&context);
                        }
                        for (at, mask) in masks.into_iter().enumerate() {
                            for key in (0..3).filter(|key| mask >> key & 1 == 1) {
                                let (s, p, o) = tiny(key);
                                if !checked.writer.store.insert_terms(&s, &p, &o) {
                                    checked.writer.remove(&s, &p, &o);
                                }
                            }
                            checked.publish(&context);
                            if recover && at == 1 {
                                checked.recover();
                            }
                        }
                        checked.check_recovery(&context);
                        seen.deltas += checked.seen.deltas;
                        seen.folds += checked.seen.folds;
                        seen.cancelled += checked.seen.cancelled;
                        seen.recovered_deltas += checked.seen.recovered_deltas;
                        seen.recovered_folds += checked.seen.recovered_folds;
                    }
                }
            }
        }
        assert!(
            seen.deltas > 1000
                && seen.folds > 1000
                && seen.cancelled > 100
                && seen.recovered_deltas > 1000
                && seen.recovered_folds > 100,
            "{seen:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The same, over random scripts of inserts, removes, publishes
        /// and recoveries on twelve keys, at every cadence up to four.
        #[test]
        fn random_checkpoints_from_frames_are_the_diffs_they_replace(
            script in proptest::collection::vec((0u8..10, 0usize..12), 1..60),
            every in 1u64..5,
        ) {
            let mut checked = Checked::create(DurabilityConfig {
                checkpoint_every: every,
            });
            for (step, &(op, i)) in script.iter().enumerate() {
                let (s, p, o) = numbered(i);
                let context = format!("every {every}, step {step} of {script:?}");
                match op {
                    0..=2 => checked.writer.insert(&s, &p, &o),
                    3..=5 => checked.writer.remove(&s, &p, &o),
                    6..=8 => checked.publish(&context),
                    _ => checked.recover(),
                }
            }
            checked.publish("the last publish");
            checked.check_recovery(&format!("every {every}, {script:?}"));
        }
    }

    /// A delta is the difference of two snapshots. A segment that frames
    /// and counts correctly but removes a key that is not there, or adds
    /// one that is, is refused — not merged into something plausible.
    #[test]
    fn a_delta_that_is_no_difference_is_refused() {
        let io = mem();
        let mut writer = Writer::create(io.clone(), EVERY_PUBLISH);
        writer.batch(&(0..10).map(numbered).collect::<Vec<_>>());
        writer.publish();
        let ((s, p, o), (s2, p2, o2)) = (numbered(10), numbered(0));
        writer.insert(&s, &p, &o);
        writer.remove(&s2, &p2, &o2);
        writer.publish();
        let manifest = manifest_of(&io);
        assert_eq!(run_counts(&io), [(10, 0), (1, 1)]);
        let triples_of = |name: &str| {
            let payload = read_segment(io.as_ref(), name, SegmentKind::Runs).unwrap();
            let mut reader = ByteReader::new(&payload);
            let adds = codec::decode_triples(&mut reader).unwrap();
            (adds, codec::decode_triples(&mut reader).unwrap())
        };
        let (base, _) = triples_of(&manifest.runs[0].name);
        let (added, removed) = triples_of(&manifest.runs[1].name);
        let kept = *base.iter().find(|key| !removed.contains(key)).unwrap();
        let absent = (kept.0, kept.1, added[0].2);
        assert!(!base.contains(&absent) && !added.contains(&absent));
        let forge = |adds: &[Key], removes: &[Key]| {
            let mut payload = Vec::new();
            codec::encode_triples(&mut payload, adds);
            codec::encode_triples(&mut payload, removes);
            let name = &manifest.runs[1].name;
            write_segment(io.as_ref(), name, SegmentKind::Runs, &payload).unwrap();
            DurableLog::recover(crashed_copy(&io), EVERY_PUBLISH).map(|(log, _)| log.epoch())
        };
        for (adds, removes) in [(vec![kept], removed.clone()), (added.clone(), vec![absent])] {
            match forge(&adds, &removes) {
                Err(DurabilityError::Corrupt(what)) => assert!(what.contains("absent"), "{what}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        assert_eq!(
            forge(&added, &removed).unwrap(),
            2,
            "the honest delta recovers"
        );
    }

    /// A directory written before the manifest listed run segments has
    /// the old frame magic on every file and is refused, not mis-read.
    #[test]
    fn a_directory_in_the_previous_format_is_refused() {
        let io = mem();
        let _writer = Writer::create(io.clone(), DurabilityConfig::default());
        let mut manifest = io.read(MANIFEST_FILE).unwrap();
        manifest[..8].copy_from_slice(b"SOFYASEG");
        io.write(MANIFEST_FILE, &manifest).unwrap();
        match DurableLog::recover(io, DurabilityConfig::default()) {
            Err(DurabilityError::Corrupt(what)) => assert!(what.contains("bad magic"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
