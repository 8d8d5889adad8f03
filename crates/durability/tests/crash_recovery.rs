//! The fault-injected crash harness.
//!
//! A deterministic mutation script runs against a [`MemIo`]-backed
//! writer wrapped in [`FaultyIo`]. For **every** mutating I/O operation
//! of the clean run, and **every** fault kind (torn write, short write,
//! silent bit flip, fsync error, kill), the harness injects the fault at
//! that operation, crashes the "machine" (drops all unsynced bytes),
//! recovers, and asserts:
//!
//! * recovery restores the state of some **prefix epoch** of the
//!   published history, bit-exact by snapshot fingerprint — never torn
//!   state;
//! * for every fault that reports failure (all kinds except the silent
//!   bit flip), no **acknowledged** publish is lost: the recovered
//!   epoch is ≥ the last epoch whose commit returned `Ok`;
//! * the recovered log accepts new commits, and a second crash/recover
//!   round-trips them (append-after-recovery and epoch reuse are safe).
//!
//! A proptest then repeats the game over random scripts and random
//! fault points.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use sofya_durability::{
    CommitReceipt, DurabilityConfig, DurabilityError, DurableLog, FaultKind, FaultyIo, MemIo,
    StorageIo,
};
use sofya_rdf::{Term, TripleStore};
use std::collections::BTreeMap;
use std::sync::Arc;

// ------------------------------------------------------------- the writer

/// The store + log pairing `sofya_endpoint::DurableStore` uses, reduced
/// to what the harness needs.
struct Writer {
    store: TripleStore,
    log: DurableLog,
}

impl Writer {
    fn create(io: Arc<dyn StorageIo>, config: DurabilityConfig) -> Result<Self, DurabilityError> {
        let mut store = TripleStore::new();
        let snapshot = store.snapshot();
        let log = DurableLog::create(io, config, &snapshot)?;
        Ok(Self { store, log })
    }

    fn recover(io: Arc<dyn StorageIo>, config: DurabilityConfig) -> Result<Self, DurabilityError> {
        let (log, store) = DurableLog::recover(io, config)?;
        Ok(Self { store, log })
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

    fn publish(&mut self) -> Result<CommitReceipt, DurabilityError> {
        let snapshot = self.store.snapshot();
        self.log.commit(&snapshot).map(|(receipt, _)| receipt)
    }

    fn fingerprint(&mut self) -> u64 {
        self.store.snapshot().fingerprint()
    }
}

// ------------------------------------------------------------- the script

#[derive(Debug, Clone)]
enum Step {
    Insert(usize),
    Remove(usize),
    Batch(Vec<usize>),
    Publish,
}

fn term_triple(i: usize) -> (Term, Term, Term) {
    let o = match i % 4 {
        0 => Term::iri(format!("e:o{}", i % 13)),
        1 => Term::literal(format!("value {}", i % 9)),
        2 => Term::lang_literal(format!("mot {}", i % 5), "fr"),
        _ => Term::integer(i as i64 % 17),
    };
    (
        Term::iri(format!("e:s{}", i % 11)),
        Term::iri(format!("e:p{}", i % 4)),
        o,
    )
}

/// A mixed deterministic script: inserts, removes (some hitting, some
/// missing), batches (with duplicates), and six publishes.
fn exhaustive_script() -> Vec<Step> {
    let mut steps = Vec::new();
    for i in 0..8 {
        steps.push(Step::Insert(i));
    }
    steps.push(Step::Publish);
    steps.push(Step::Remove(3));
    steps.push(Step::Remove(100)); // never inserted: a no-op remove
    steps.push(Step::Batch((8..20).chain(10..14).collect())); // overlaps itself
    steps.push(Step::Publish);
    for i in 20..26 {
        steps.push(Step::Insert(i));
    }
    steps.push(Step::Insert(21)); // duplicate insert: a no-op
    steps.push(Step::Publish);
    steps.push(Step::Publish); // empty publish: no-op commit
    steps.push(Step::Batch((26..40).collect()));
    steps.push(Step::Remove(8));
    steps.push(Step::Publish);
    for i in 40..44 {
        steps.push(Step::Insert(i));
    }
    steps.push(Step::Publish);
    steps
}

/// Runs `steps`, stopping at the first commit error. Returns the acked
/// publishes as `(epoch, fingerprint)` in order.
fn run_script(writer: &mut Writer, steps: &[Step]) -> (Vec<(u64, u64)>, bool) {
    let mut acked = Vec::new();
    for step in steps {
        match step {
            Step::Insert(i) => {
                let (s, p, o) = term_triple(*i);
                writer.insert(&s, &p, &o);
            }
            Step::Remove(i) => {
                let (s, p, o) = term_triple(*i);
                writer.remove(&s, &p, &o);
            }
            Step::Batch(indices) => {
                let triples: Vec<(Term, Term, Term)> =
                    indices.iter().map(|&i| term_triple(i)).collect();
                writer.batch(&triples);
            }
            Step::Publish => match writer.publish() {
                Ok(receipt) => acked.push((receipt.epoch, receipt.fingerprint)),
                Err(_) => return (acked, true),
            },
        }
    }
    (acked, false)
}

/// Published history of the clean run: epoch → fingerprint, including
/// the initial empty epoch 0.
fn reference_history(steps: &[Step], config: &DurabilityConfig) -> BTreeMap<u64, u64> {
    let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
    let mut writer = Writer::create(io, config.clone()).unwrap();
    let mut history = BTreeMap::new();
    history.insert(0u64, TripleStore::new().snapshot().fingerprint());
    let (acked, failed) = run_script(&mut writer, steps);
    assert!(!failed, "clean run must not fail");
    for (epoch, fingerprint) in acked {
        history.insert(epoch, fingerprint);
    }
    history
}

/// Mutating I/O operations a clean run performs (create + script).
fn count_clean_ops(steps: &[Step], config: &DurabilityConfig) -> u64 {
    let mem: Arc<dyn StorageIo> = Arc::new(MemIo::new());
    let counter = Arc::new(FaultyIo::new(mem, u64::MAX, FaultKind::Kill));
    let io: Arc<dyn StorageIo> = Arc::clone(&counter) as Arc<dyn StorageIo>;
    let mut writer = Writer::create(io, config.clone()).unwrap();
    let (_, failed) = run_script(&mut writer, steps);
    assert!(!failed);
    counter.ops_seen()
}

// ------------------------------------------------------------ the checks

/// Crash + recover + assert the guarantee; returns the recovered writer
/// for follow-up work (or `None` when a silent fault corrupted state
/// beyond recovery, which only `BitFlip` may do).
fn check_recovery(
    mem: &Arc<MemIo>,
    config: &DurabilityConfig,
    history: &BTreeMap<u64, u64>,
    last_acked: Option<u64>,
    kind: FaultKind,
    context: &str,
) -> Option<Writer> {
    mem.crash();
    let io: Arc<dyn StorageIo> = Arc::clone(mem) as Arc<dyn StorageIo>;
    let mut recovered = match Writer::recover(io, config.clone()) {
        Ok(writer) => writer,
        Err(DurabilityError::Corrupt(_)) if kind == FaultKind::BitFlip => {
            // Silent device corruption may make recovery refuse — but
            // it must refuse loudly, never serve torn state.
            return None;
        }
        Err(e) => panic!("{context}: recovery failed: {e}"),
    };
    let epoch = recovered.log.epoch();
    let fingerprint = recovered.fingerprint();
    let expected = history
        .get(&epoch)
        .unwrap_or_else(|| panic!("{context}: recovered epoch {epoch} is not a published epoch"));
    assert_eq!(
        fingerprint, *expected,
        "{context}: recovered state differs from published epoch {epoch}"
    );
    if kind != FaultKind::BitFlip {
        // Every non-silent fault surfaces as an error before the ack,
        // so acknowledged publishes must all survive.
        if let Some(acked) = last_acked {
            assert!(
                epoch >= acked,
                "{context}: acked epoch {acked} lost (recovered only to {epoch})"
            );
        }
    }
    Some(recovered)
}

/// After recovery the log must keep working: commit new data, crash
/// again, recover again, fingerprint-exact.
fn check_post_recovery_writes(
    mem: &Arc<MemIo>,
    config: &DurabilityConfig,
    mut writer: Writer,
    context: &str,
) {
    let (s, p, o) = (
        Term::iri("post:s"),
        Term::iri("post:p"),
        Term::literal("after recovery"),
    );
    writer.insert(&s, &p, &o);
    let receipt = writer.publish().expect("post-recovery publish");
    let want = writer.fingerprint();
    mem.crash();
    let io: Arc<dyn StorageIo> = Arc::clone(mem) as Arc<dyn StorageIo>;
    let mut again = Writer::recover(io, config.clone())
        .unwrap_or_else(|e| panic!("{context}: second recovery failed: {e}"));
    assert_eq!(again.log.epoch(), receipt.epoch, "{context}");
    assert_eq!(
        again.fingerprint(),
        want,
        "{context}: post-recovery commit lost"
    );
}

/// The full game for one (fault point, kind) pair.
fn crash_at(
    steps: &[Step],
    config: &DurabilityConfig,
    history: &BTreeMap<u64, u64>,
    fault_at: u64,
    kind: FaultKind,
) {
    let context = format!("fault {kind:?} at op {fault_at}");
    let mem = Arc::new(MemIo::new());
    let faulty = Arc::new(FaultyIo::new(
        Arc::clone(&mem) as Arc<dyn StorageIo>,
        fault_at,
        kind,
    ));
    let io: Arc<dyn StorageIo> = Arc::clone(&faulty) as Arc<dyn StorageIo>;
    let (acked, _stopped) = match Writer::create(io, config.clone()) {
        Ok(mut writer) => run_script(&mut writer, steps),
        // The fault hit create's initial checkpoint: nothing acked.
        Err(_) => (Vec::new(), true),
    };
    let last_acked = acked.last().map(|&(epoch, _)| epoch);
    if let Some(writer) = check_recovery(&mem, config, history, last_acked, kind, &context) {
        check_post_recovery_writes(&mem, config, writer, &context);
    }
}

// -------------------------------------------------------------- the tests

/// Exhaustive sweep: every mutating I/O op of the clean run × every
/// fault kind. Covers torn/short/corrupt WAL appends and fsyncs, every
/// segment write, the manifest staging write, the atomic rename itself,
/// and the post-checkpoint WAL reset.
#[test]
fn every_fault_point_recovers_to_a_published_prefix() {
    let config = DurabilityConfig {
        checkpoint_every: 2,
    };
    let steps = exhaustive_script();
    let history = reference_history(&steps, &config);
    let ops = count_clean_ops(&steps, &config);
    assert!(ops > 20, "script too small to be interesting ({ops} ops)");
    for fault_at in 1..=ops {
        for kind in FaultKind::ALL {
            crash_at(&steps, &config, &history, fault_at, kind);
        }
    }
}

/// The same game with checkpointing effectively disabled, so the WAL's
/// frames carry the whole history.
#[test]
fn wal_only_history_recovers_at_every_fault_point() {
    let config = DurabilityConfig {
        checkpoint_every: u64::MAX,
    };
    let steps = exhaustive_script();
    let history = reference_history(&steps, &config);
    let ops = count_clean_ops(&steps, &config);
    for fault_at in 1..=ops {
        for kind in FaultKind::ALL {
            crash_at(&steps, &config, &history, fault_at, kind);
        }
    }
}

// ---------------------------------------------------------- proptest game

fn arb_step() -> BoxedStrategy<Step> {
    // Uniform choice; inserts appear twice to weight toward growth.
    prop_oneof![
        (0usize..48).prop_map(Step::Insert),
        (48usize..96).prop_map(|i| Step::Insert(i - 48)),
        (0usize..48).prop_map(Step::Remove),
        proptest::collection::vec(0usize..48, 1..8).prop_map(Step::Batch),
        Just(Step::Publish),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random scripts, random fault points, random checkpoint cadence:
    /// the recovered state is always a fingerprint-exact published
    /// prefix and non-silent faults never lose an ack.
    #[test]
    fn random_crashes_recover_to_published_prefixes(
        script in proptest::collection::vec(arb_step(), 1..40),
        fault_at in 1u64..120,
        kind_index in 0usize..5,
        checkpoint_every in 1u64..5,
    ) {
        let mut steps = script;
        steps.push(Step::Publish); // every script publishes at least once
        let config = DurabilityConfig { checkpoint_every };
        let history = reference_history(&steps, &config);
        let kind = FaultKind::ALL[kind_index];
        crash_at(&steps, &config, &history, fault_at, kind);
    }
}

// ------------------------------------------------- delta checkpoints, folds

/// A base and then changes much smaller than it, each published at
/// `checkpoint_every: 1` (`term_triple` repeats itself, so the counts are
/// a little under what the indices say): the first four are delta
/// checkpoints, the fifth brings the deltas up to the base and folds them
/// away (removing their files), the last two are deltas on the new base.
fn delta_script() -> Vec<Step> {
    let mut steps = vec![Step::Batch((0..60).collect()), Step::Publish];
    for round in 0..7 {
        let from = 60 + round * 12;
        steps.push(Step::Batch((from..from + 10).collect()));
        steps.push(Step::Insert(from + 10));
        steps.push(Step::Remove(round));
        steps.push(Step::Publish);
    }
    steps
}

/// The exhaustive sweep over a script whose checkpoints take the delta
/// path (the script above it is too small to: each of its checkpoints
/// changes more than the base holds). Faults land in every delta segment
/// write, in the manifest swap between two deltas, in the un-fsynced WAL
/// reset, and in the fold with its file removals.
#[test]
fn every_fault_point_of_delta_checkpoints_and_a_fold_recovers() {
    let config = DurabilityConfig {
        checkpoint_every: 1,
    };
    let steps = delta_script();
    let history = reference_history(&steps, &config);
    assert_eq!(history.len(), 9, "epoch 0 and eight publishes");

    // The clean run really is: base, four deltas, a fold, two deltas.
    let mem = Arc::new(MemIo::new());
    let mut writer = Writer::create(Arc::clone(&mem) as Arc<dyn StorageIo>, config.clone())
        .expect("clean create");
    let mut run_files = Vec::new();
    for step in &steps {
        let (_, failed) = run_script(&mut writer, std::slice::from_ref(step));
        assert!(!failed);
        if matches!(step, Step::Publish) {
            let names = mem.file_names();
            run_files.push(names.iter().filter(|n| n.starts_with("runs-")).count());
        }
    }
    assert_eq!(run_files, [1, 2, 3, 4, 5, 1, 2, 3]);

    let ops = count_clean_ops(&steps, &config);
    for fault_at in 1..=ops {
        for kind in FaultKind::ALL {
            crash_at(&steps, &config, &history, fault_at, kind);
        }
    }
}
