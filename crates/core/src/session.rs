//! Query-time alignment sessions.
//!
//! The paper's headline scenario is alignment *during query execution*:
//! the first query touching relation `r` pays the sampling cost, later
//! queries reuse the mined rules. [`AlignmentSession`] wraps an
//! [`Aligner`] with a per-relation result cache to provide exactly that
//! contract.
//!
//! A session over live stores is told of their deltas
//! ([`AlignmentSession::apply_source_delta`],
//! [`AlignmentSession::apply_target_delta`]): each marks dirty the
//! cached relations whose [`EvidenceFootprint`] it intersects, and the
//! next lookup (or [`AlignmentSession::refresh_dirty`]) re-mines them.
//! From the first delta on, the session also keeps a probe memo per
//! side: the answers of the prepared leaf queries its cached relations
//! last read. A re-mine is answered from it wherever no delta since
//! could have changed the answer, and a batch sends only its misses, so
//! a re-mine costs the few queries a delta moved rather than a whole
//! alignment. A session never told of a delta keeps no memo and sends
//! exactly what the aligner asks. An invalidation or a resync stands
//! for a change of unknown shape and empties the memo.

use crate::aligner::Aligner;
use crate::config::AlignerConfig;
use crate::error::AlignError;
use crate::footprint::{DeltaView, EvidenceFootprint, SideFootprint};
use crate::memo::{Held, Memo, Side};
use crate::rule::SubsumptionRule;
use sofya_endpoint::{Endpoint, EndpointError, PublishDelta, Request, Response};
use sofya_sparql::QueryBudget;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// One relation's cache slot. The `epoch` identifies one computation
/// attempt: a failure is broadcast to exactly the cohort that waited on
/// that attempt (concurrent peers share the error instead of retrying
/// serially, which would multiply both latency and endpoint quota spend),
/// while any *later* request clears the `Failed` marker and retries
/// fresh — errors are never cached across attempts.
enum Slot {
    InProgress {
        epoch: u64,
    },
    Done {
        rules: Vec<SubsumptionRule>,
        /// What the alignment read — consulted by the delta feed to
        /// decide whether a publish dirtied this relation.
        footprint: Box<EvidenceFootprint>,
        /// The memo answers the alignment read, held until the slot goes.
        reads: Vec<Held>,
        /// Set by [`AlignmentSession::apply_source_delta`] /
        /// [`AlignmentSession::apply_target_delta`]; a dirty slot is
        /// re-mined on the next [`AlignmentSession::rules_for`].
        dirty: bool,
    },
    Failed {
        epoch: u64,
        error: AlignError,
    },
}

/// Everything the session's one lock guards.
#[derive(Default)]
struct State {
    slots: HashMap<String, Slot>,
    memo: Memo,
    /// How many deltas, invalidations and resyncs this session has been
    /// told of. A delta marks `Done` slots only, so an alignment that
    /// finds this moved between its claim and its result lands dirty,
    /// and an answer read while it moved is not kept.
    changes: u64,
}

/// Locks the session state. A panic in the computing thread must not
/// poison the session for the others (the service scheduler contains
/// it); recover the guard.
fn lock(cache: &Mutex<State>) -> MutexGuard<'_, State> {
    cache.lock().unwrap_or_else(|e| e.into_inner())
}

/// A caching facade over [`Aligner`] for query-time use.
///
/// Thread-safe with **single-flight** per relation: when concurrent
/// queries hit the same cold relation, exactly one computes while the
/// others wait for its result — a burst of identical requests costs one
/// alignment's worth of endpoint queries, which is the whole "first query
/// pays, later ones reuse" contract under the multi-threaded service.
pub struct AlignmentSession<'a> {
    aligner: Aligner<'a>,
    source: &'a dyn Endpoint,
    target: &'a dyn Endpoint,
    cache: Mutex<State>,
    done: Condvar,
    epochs: AtomicU64,
}

impl<'a> AlignmentSession<'a> {
    /// Creates a session over a source KB `K'` and target KB `K`.
    pub fn new(source: &'a dyn Endpoint, target: &'a dyn Endpoint, config: AlignerConfig) -> Self {
        Self {
            aligner: Aligner::new(source, target, config),
            source,
            target,
            cache: Mutex::new(State::default()),
            done: Condvar::new(),
            epochs: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        lock(&self.cache)
    }

    /// The rules for one target relation, aligning on first use.
    pub fn rules_for(&self, relation: &str) -> Result<Vec<SubsumptionRule>, AlignError> {
        // Claim the slot or wait for whoever holds it.
        let my_epoch = self.epochs.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock();
        // A dirty slot's reads stay held until the re-mine lands, so the
        // re-mine finds them in the memo.
        let mut stale_reads = Vec::new();
        let changes_at_claim = loop {
            match state.slots.get(relation) {
                Some(Slot::Done { rules, dirty, .. }) => {
                    if !dirty {
                        return Ok(rules.clone());
                    }
                    // Dirtied by a delta: fall through to a fresh
                    // (single-flight) re-mine.
                    if let Some(Slot::Done { reads, .. }) = state.slots.remove(relation) {
                        stale_reads = reads;
                    }
                }
                Some(Slot::InProgress { epoch }) => {
                    let waited_on = *epoch;
                    state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
                    // If the attempt we waited on failed, we are part of
                    // its cohort: share the error instead of each waiter
                    // re-running a full (doomed) alignment in turn.
                    if let Some(Slot::Failed { epoch, error }) = state.slots.get(relation) {
                        if *epoch == waited_on {
                            return Err(error.clone());
                        }
                    }
                }
                Some(Slot::Failed { .. }) => {
                    // A previous attempt's error we did not wait on:
                    // clear it and retry fresh (errors are not cached).
                    state.slots.remove(relation);
                }
                None => {
                    state
                        .slots
                        .insert(relation.to_owned(), Slot::InProgress { epoch: my_epoch });
                    break state.changes;
                }
            }
        };
        drop(state);

        // The claim must be released on *every* exit — including a panic
        // unwinding through the alignment (the service scheduler contains
        // the panic, but a stuck `InProgress` slot would block every
        // later request for this relation forever). The guard's `Drop`
        // removes the slot unless it was already replaced with `Done` or
        // `Failed`, lets go of the re-mined slot's reads, and wakes the
        // waiters either way.
        struct Claim<'s> {
            cache: &'s Mutex<State>,
            done: &'s Condvar,
            relation: &'s str,
            stale_reads: Vec<Held>,
        }
        impl Drop for Claim<'_> {
            fn drop(&mut self) {
                let mut state = lock(self.cache);
                if matches!(
                    state.slots.get(self.relation),
                    Some(Slot::InProgress { .. })
                ) {
                    state.slots.remove(self.relation);
                }
                state.memo.release(&self.stale_reads);
                drop(state);
                self.done.notify_all();
            }
        }
        let claim = Claim {
            cache: &self.cache,
            done: &self.done,
            relation,
            stale_reads,
        };

        let source = Probes::new(self.source, Side::Source, &self.cache);
        let target = Probes::new(self.target, Side::Target, &self.cache);
        // The wrappers answer every request as the endpoint did, and
        // sampling seeds its RNG from the relation, so the rules are
        // those of an alignment without them.
        let config = self.aligner.config().clone();
        let result = Aligner::new(&source, &target, config).align_relation(relation);
        let (source, target) = (source.into_read(), target.into_read());
        let mut state = self.lock();
        match &result {
            Ok(rules) => {
                // A delta that arrived while this ran found no `Done`
                // slot to mark; whether it touched what was read is not
                // known, so the result lands dirty and is mined again.
                let dirty = state.changes != changes_at_claim;
                let mut reads = source.held;
                reads.extend(target.held);
                state.slots.insert(
                    relation.to_owned(),
                    Slot::Done {
                        rules: rules.clone(),
                        footprint: Box::new(EvidenceFootprint {
                            source: source.footprint,
                            target: target.footprint,
                        }),
                        reads,
                        dirty,
                    },
                );
            }
            Err(error) => {
                state.memo.release(&source.held);
                state.memo.release(&target.held);
                // Broadcast to the cohort waiting on this epoch; the next
                // *new* request clears the marker and retries.
                state.slots.insert(
                    relation.to_owned(),
                    Slot::Failed {
                        epoch: my_epoch,
                        error: error.clone(),
                    },
                );
            }
        }
        drop(state);
        drop(claim); // wakes waiters; Done/Failed slots survive the guard
        result
    }

    /// The best source relation for `relation` (highest confidence), if
    /// any rule was mined.
    pub fn best_premise_for(&self, relation: &str) -> Result<Option<String>, AlignError> {
        Ok(self.rules_for(relation)?.first().map(|r| r.premise.clone()))
    }

    /// Relations already aligned (not merely in flight) in this session,
    /// including ones currently marked dirty.
    pub fn cached_relations(&self) -> Vec<String> {
        let mut relations: Vec<String> = self
            .lock()
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Done { .. }))
            .map(|(relation, _)| relation.clone())
            .collect();
        relations.sort();
        relations
    }

    /// Drops one relation's cached rules (and any lingering failure
    /// marker), e.g. after a KB update of unknown shape. Such an update
    /// may have changed anything read so far, so the probe memo is
    /// emptied too, and an alignment in flight — which may have read
    /// before the update — lands dirty and is mined again.
    pub fn invalidate(&self, relation: &str) {
        let mut state = self.lock();
        state.changes += 1;
        state.memo.clear();
        if !matches!(state.slots.get(relation), Some(Slot::InProgress { .. })) {
            state.slots.remove(relation);
        }
    }

    /// Drops every cached alignment and the probe memo (the resync path:
    /// the delta ring evicted a gap this session missed, so neither
    /// footprint-based dirtiness nor a memo answer can be trusted). An
    /// alignment in flight lands dirty.
    pub fn invalidate_all(&self) {
        let mut state = self.lock();
        state.changes += 1;
        state.memo.clear();
        state
            .slots
            .retain(|_, slot| matches!(slot, Slot::InProgress { .. }));
    }

    /// Applies a delta published by the **source** KB's store: marks
    /// dirty every cached relation whose source-side evidence footprint
    /// intersects it, and drops every source-side memo answer a changed
    /// triple could match. Returns the number of newly dirtied
    /// relations. A relation being aligned right now has no footprint
    /// yet; it lands dirty when it finishes. The first delta a session
    /// is told of turns its memo on.
    pub fn apply_source_delta(&self, delta: &PublishDelta) -> usize {
        self.apply_delta(Side::Source, delta)
    }

    /// Applies a delta published by the **target** KB's store (see
    /// [`AlignmentSession::apply_source_delta`]).
    pub fn apply_target_delta(&self, delta: &PublishDelta) -> usize {
        self.apply_delta(Side::Target, delta)
    }

    fn apply_delta(&self, side: Side, delta: &PublishDelta) -> usize {
        if delta.is_empty() {
            return 0;
        }
        // Hashed once, outside the lock, for every cached relation to probe.
        let view = DeltaView::new(delta);
        let mut newly_dirty = 0;
        let mut state = self.lock();
        let State {
            slots,
            memo,
            changes,
        } = &mut *state;
        *changes += 1;
        memo.go_live();
        memo.invalidate(side, &view);
        for slot in slots.values_mut() {
            if let Slot::Done {
                footprint, dirty, ..
            } = slot
            {
                if *dirty {
                    continue;
                }
                let hit = match side {
                    Side::Source => footprint.source.is_dirty(&view),
                    Side::Target => footprint.target.is_dirty(&view),
                };
                if hit {
                    *dirty = true;
                    newly_dirty += 1;
                }
            }
        }
        newly_dirty
    }

    /// How many relations are currently marked dirty.
    pub fn dirty_count(&self) -> usize {
        self.lock()
            .slots
            .values()
            .filter(|slot| matches!(slot, Slot::Done { dirty: true, .. }))
            .count()
    }

    /// Relations currently marked dirty (cached but stale), sorted.
    pub fn dirty_relations(&self) -> Vec<String> {
        let mut relations: Vec<String> = self
            .lock()
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Done { dirty: true, .. }))
            .map(|(relation, _)| relation.clone())
            .collect();
        relations.sort();
        relations
    }

    /// Eagerly re-mines every dirty relation (the background refresher's
    /// work loop). Returns how many relations were refreshed.
    pub fn refresh_dirty(&self) -> Result<usize, AlignError> {
        let dirty = self.dirty_relations();
        let n = dirty.len();
        for relation in dirty {
            self.rules_for(&relation)?;
        }
        Ok(n)
    }

    /// The underlying aligner (for configuration inspection).
    pub fn aligner(&self) -> &Aligner<'a> {
        &self.aligner
    }
}

/// What one alignment read from one side.
#[derive(Default)]
struct Read {
    footprint: SideFootprint,
    /// The memo answers it was given or kept.
    held: Vec<Held>,
}

/// One alignment's view of one side's endpoint. It records every
/// request into the alignment's footprint and, once the memo is live,
/// answers each prepared leaf it can from the memo, sends the rest — a
/// table row by row, as the leaf each row stands for, and its misses as
/// one table, in order — and keeps their answers unless a change was
/// applied while they were read. The session lock is never held across
/// the endpoint call.
struct Probes<'s> {
    inner: &'s dyn Endpoint,
    side: Side,
    cache: &'s Mutex<State>,
    read: Mutex<Read>,
}

impl<'s> Probes<'s> {
    fn new(inner: &'s dyn Endpoint, side: Side, cache: &'s Mutex<State>) -> Self {
        Self {
            inner,
            side,
            cache,
            read: Mutex::new(Read::default()),
        }
    }

    fn read(&self) -> MutexGuard<'_, Read> {
        self.read.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn into_read(mut self) -> Read {
        std::mem::take(self.read.get_mut().unwrap_or_else(|e| e.into_inner()))
    }

    /// Keeps the answers to `requests`, unless the session was told of
    /// a change since `changes` — the answers may predate it.
    fn keep(&self, changes: u64, requests: &[Request<'_>], answers: &[Response]) {
        let mut state = lock(self.cache);
        if state.changes != changes {
            return;
        }
        let held: Vec<Held> = requests
            .iter()
            .zip(answers)
            .filter_map(|(req, answer)| state.memo.keep(self.side, req, answer))
            .collect();
        drop(state);
        self.read().held.extend(held);
    }
}

impl Drop for Probes<'_> {
    /// An alignment that unwinds lets go of what it held.
    fn drop(&mut self) {
        let held = std::mem::take(&mut self.read.get_mut().unwrap_or_else(|e| e.into_inner()).held);
        if !held.is_empty() {
            lock(self.cache).memo.release(&held);
        }
    }
}

impl Endpoint for Probes<'_> {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.read().footprint.record_request(&req);
        let mut state = lock(self.cache);
        if !state.memo.is_live() {
            drop(state);
            return self.inner.execute_with_budget(req, budget);
        }
        let changes = state.changes;
        let mut held = Vec::new();
        let (prepared, rows) = match req {
            Request::Table { prepared, rows } => (prepared, rows),
            // The aligner sends no batch (its probes go as tables), and
            // the memo keeps prepared leaves only: a batch goes through
            // whole, neither answered from the memo nor kept in it.
            batch @ Request::Batch(_) => {
                drop(state);
                return self.inner.execute_with_budget(batch, budget);
            }
            leaf => match state.memo.lookup(self.side, &leaf) {
                Some((hit, answer)) => {
                    drop(state);
                    self.read().held.push(hit);
                    return Ok(answer);
                }
                None => {
                    drop(state);
                    let answer = self.inner.execute_with_budget(leaf.clone(), budget)?;
                    self.keep(changes, &[leaf], std::slice::from_ref(&answer));
                    return Ok(answer);
                }
            },
        };
        let mut answers = Vec::with_capacity(rows.len());
        let mut misses = Vec::new();
        for &args in rows {
            match state.memo.lookup(self.side, &Request::leaf(prepared, args)) {
                Some((hit, answer)) => {
                    held.push(hit);
                    answers.push(Some(answer));
                }
                None => {
                    answers.push(None);
                    misses.push(args);
                }
            }
        }
        drop(state);
        self.read().held.extend(held);
        if !misses.is_empty() {
            let sent = misses.len();
            let table = Request::Table {
                prepared,
                rows: &misses,
            };
            let fetched = self
                .inner
                .execute_with_budget(table, budget)?
                .into_batch()?;
            if fetched.len() != sent {
                return Err(EndpointError::Other(format!(
                    "a table of {sent} rows was answered with {} responses",
                    fetched.len()
                )));
            }
            let leaves: Vec<Request<'_>> = misses
                .iter()
                .map(|args| Request::leaf(prepared, args))
                .collect();
            self.keep(changes, &leaves, &fetched);
            let mut fetched = fetched.into_iter();
            for answer in answers.iter_mut().filter(|a| a.is_none()) {
                *answer = fetched.next();
            }
        }
        Ok(Response::Batch(answers.into_iter().flatten().collect()))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::{InstrumentedEndpoint, LocalEndpoint};
    use sofya_rdf::{Term, TripleStore};

    const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

    /// A linked pair where `d:birthPlace ⇒ y:born` is minable: `(dbp, yago)`.
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

    fn endpoints() -> (
        InstrumentedEndpoint<LocalEndpoint>,
        InstrumentedEndpoint<LocalEndpoint>,
    ) {
        let (dbp, yago) = stores();
        (
            InstrumentedEndpoint::new(LocalEndpoint::new("dbp", dbp)),
            InstrumentedEndpoint::new(LocalEndpoint::new("yago", yago)),
        )
    }

    #[test]
    fn second_lookup_is_free() {
        let (dbp, yago) = endpoints();
        let counters = dbp.counters();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        let first = session.rules_for("y:born").unwrap();
        let cost_after_first = counters.total_queries();
        assert!(cost_after_first > 0);
        let second = session.rules_for("y:born").unwrap();
        assert_eq!(first, second);
        assert_eq!(
            counters.total_queries(),
            cost_after_first,
            "cache hit must issue no queries"
        );
    }

    #[test]
    fn best_premise_returns_top_rule() {
        let (dbp, yago) = endpoints();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        assert_eq!(
            session.best_premise_for("y:born").unwrap().as_deref(),
            Some("d:birthPlace")
        );
        assert_eq!(session.best_premise_for("y:ghost").unwrap(), None);
    }

    #[test]
    fn invalidate_forces_realignment() {
        let (dbp, yago) = endpoints();
        let counters = dbp.counters();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        session.rules_for("y:born").unwrap();
        let before = counters.total_queries();
        session.invalidate("y:born");
        session.rules_for("y:born").unwrap();
        assert!(counters.total_queries() > before);
    }

    #[test]
    fn errors_are_not_cached_and_do_not_wedge_the_slot() {
        use sofya_endpoint::{EndpointError, Request, Response};
        use sofya_sparql::QueryBudget;

        /// A source whose every query fails.
        struct Dead;
        impl Endpoint for Dead {
            fn execute_with_budget(
                &self,
                _: Request<'_>,
                _: &QueryBudget,
            ) -> Result<Response, EndpointError> {
                Err(EndpointError::Other("dead source".into()))
            }
        }

        let (_, yago) = endpoints();
        let session = AlignmentSession::new(&Dead, &yago, AlignerConfig::paper_defaults(1));
        assert!(session.rules_for("y:born").is_err());
        // The failure marker must not wedge or satisfy later requests:
        // a fresh call retries (and fails again against the dead source).
        assert!(session.rules_for("y:born").is_err());
        assert!(session.cached_relations().is_empty());
        session.invalidate("y:born"); // clears any lingering marker
        assert!(session.rules_for("y:born").is_err());
    }

    #[test]
    fn concurrent_cold_requests_align_once() {
        let (dbp, yago) = endpoints();
        let counters = dbp.counters();
        // Baseline: what one alignment costs.
        let solo = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        solo.rules_for("y:born").unwrap();
        let single_cost = counters.total_queries();
        counters.reset();

        // A burst of identical cold requests must pay that cost once:
        // one thread computes, the rest wait on the in-flight slot.
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| session.rules_for("y:born").unwrap()))
                .collect();
            let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            assert!(results.windows(2).all(|w| w[0] == w[1]));
        });
        assert_eq!(
            counters.total_queries(),
            single_cost,
            "single-flight must collapse the burst to one alignment"
        );
    }

    #[test]
    fn deltas_dirty_only_intersecting_relations() {
        use sofya_endpoint::PublishDelta;

        let (dbp, yago) = endpoints();
        let counters = dbp.counters();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        session.rules_for("y:born").unwrap();
        assert!(session.dirty_relations().is_empty());
        let after_mine = counters.total_queries();

        // A target-side delta on an unrelated predicate: still clean,
        // and the next lookup is still free.
        let unrelated = PublishDelta {
            prev_epoch: 1,
            epoch: 2,
            predicates: vec![Term::iri("y:unrelated")],
            terms: vec![Term::iri("y:nobody")],
        };
        assert_eq!(session.apply_target_delta(&unrelated), 0);
        session.rules_for("y:born").unwrap();
        assert_eq!(counters.total_queries(), after_mine);

        // A delta touching the mined relation's own predicate dirties it;
        // the next lookup re-mines.
        let touching = PublishDelta {
            prev_epoch: 2,
            epoch: 3,
            predicates: vec![Term::iri("y:born")],
            terms: vec![Term::iri("y:p0")],
        };
        assert_eq!(session.apply_target_delta(&touching), 1);
        assert_eq!(session.dirty_relations(), vec!["y:born"]);
        session.rules_for("y:born").unwrap();
        assert!(counters.total_queries() > after_mine, "dirty slot re-mines");
        assert!(session.dirty_relations().is_empty());

        // Re-applying the same delta after the refresh dirties nothing:
        // the refreshed footprint was mined at the newer state.
        // (Conservative tracking may legitimately dirty again if the
        // footprint still covers the predicate — it does here.)
        assert_eq!(session.apply_target_delta(&touching), 1);
        assert_eq!(session.refresh_dirty().unwrap(), 1);
        assert!(session.dirty_relations().is_empty());
    }

    /// The delta race, forced: the target endpoint parks the first
    /// request of the alignment until the main thread has applied an
    /// intersecting delta — what `FreshnessTracker::sync` does from the
    /// refresher's thread. The relation has no `Done` slot for the delta
    /// to mark, so it must land dirty instead of clean-but-stale.
    #[test]
    fn a_delta_applied_mid_alignment_leaves_the_relation_dirty() {
        let (dbp, yago) = endpoints();
        let yago = ParksFirstRequest::new(yago);
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        let touching = PublishDelta {
            prev_epoch: 1,
            epoch: 2,
            predicates: vec![Term::iri("y:born")],
            terms: vec![Term::iri("y:p0")],
        };
        std::thread::scope(|scope| {
            let aligning = scope.spawn(|| session.rules_for("y:born"));
            yago.gate.wait();
            assert_eq!(session.apply_target_delta(&touching), 0, "no slot to mark");
            yago.gate.wait();
            aligning.join().unwrap().unwrap();
        });
        assert_eq!(session.dirty_relations(), vec!["y:born"]);
        // The next lookup mines it again, undisturbed, and it lands clean.
        session.rules_for("y:born").unwrap();
        assert!(session.dirty_relations().is_empty());
    }

    #[test]
    fn invalidate_all_clears_every_cached_relation() {
        let (dbp, yago) = endpoints();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        session.rules_for("y:born").unwrap();
        assert!(!session.cached_relations().is_empty());
        session.invalidate_all();
        assert!(session.cached_relations().is_empty());
    }

    #[test]
    fn cached_relations_are_listed() {
        let (dbp, yago) = endpoints();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        assert!(session.cached_relations().is_empty());
        session.rules_for("y:born").unwrap();
        assert_eq!(session.cached_relations(), vec!["y:born"]);
    }

    /// Holds the alignment's first request at a gate until the test
    /// has done what it wants done mid-flight.
    struct ParksFirstRequest<E> {
        inner: E,
        parked: std::sync::atomic::AtomicBool,
        gate: std::sync::Barrier,
    }

    impl<E: Endpoint> ParksFirstRequest<E> {
        fn new(inner: E) -> Self {
            Self {
                inner,
                parked: Default::default(),
                gate: std::sync::Barrier::new(2),
            }
        }
    }

    impl<E: Endpoint> Endpoint for ParksFirstRequest<E> {
        fn execute_with_budget(
            &self,
            req: Request<'_>,
            budget: &QueryBudget,
        ) -> Result<Response, EndpointError> {
            if !self.parked.swap(true, Ordering::SeqCst) {
                self.gate.wait(); // the claim is taken, nothing read yet
                self.gate.wait(); // the test's mid-flight step is done
            }
            self.inner.execute_with_budget(req, budget)
        }
    }

    /// `invalidate` stands for a change of unknown shape: an alignment
    /// in flight may have read before it, so its result lands dirty
    /// instead of being served as if it had been mined after it.
    #[test]
    fn an_invalidate_mid_alignment_leaves_the_relation_dirty() {
        let (dbp, yago) = endpoints();
        let yago = ParksFirstRequest::new(yago);
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        std::thread::scope(|scope| {
            let aligning = scope.spawn(|| session.rules_for("y:born"));
            yago.gate.wait();
            session.invalidate("y:born");
            yago.gate.wait();
            aligning.join().unwrap().unwrap();
        });
        assert_eq!(session.dirty_relations(), vec!["y:born"]);
        session.rules_for("y:born").unwrap();
        assert!(session.dirty_relations().is_empty());
    }

    /// The linked pair of [`endpoints`] with the target behind a
    /// publishing store, counted.
    fn live_target() -> (
        InstrumentedEndpoint<LocalEndpoint>,
        sofya_endpoint::SnapshotStore,
        InstrumentedEndpoint<sofya_endpoint::ConcurrentEndpoint>,
    ) {
        let (dbp, yago) = stores();
        let writer = sofya_endpoint::SnapshotStore::new(yago);
        let target = InstrumentedEndpoint::new(writer.reader("yago"));
        (
            InstrumentedEndpoint::new(LocalEndpoint::new("dbp", dbp)),
            writer,
            target,
        )
    }

    /// What a re-mine sends once the memo holds the last mine's reads: a
    /// delta that touches `y:born` only through entities no `sameAs`
    /// links moves the relation's own pages and counts — 3 leaves in 3
    /// requests, all on the target — against the 8 leaves in 8 requests
    /// of the whole alignment (each batched phase one table), which is
    /// what a re-mine sent before the memo.
    #[test]
    fn a_re_mine_sends_only_what_the_delta_could_change() {
        let (dbp, mut writer, yago) = live_target();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        let (source, target) = (dbp.counters(), yago.counters());
        let whole = session.rules_for("y:born").unwrap();
        let cost = |c: &sofya_endpoint::EndpointCounters| (c.total_queries(), c.requests());
        let (whole_source, whole_target) = (cost(&source), cost(&target));
        assert_eq!(
            (
                whole_source.0 + whole_target.0,
                whole_source.1 + whole_target.1
            ),
            (8, 8)
        );

        let mut unlinked = |i: u32| {
            writer.store_mut().insert_terms(
                &Term::iri(format!("y:stranger{i}")),
                &Term::iri("y:born"),
                &Term::iri(format!("y:nowhere{i}")),
            );
            writer.publish()
        };
        // The first delta turns the memo on; its re-mine fills it.
        assert_eq!(session.apply_target_delta(&unlinked(0)), 1);
        session.refresh_dirty().unwrap();
        let twice = |(leaves, requests): (u64, u64)| (2 * leaves, 2 * requests);
        assert_eq!(cost(&source), twice(whole_source));
        assert_eq!(cost(&target), twice(whole_target));
        source.reset();
        target.reset();

        assert_eq!(session.apply_target_delta(&unlinked(1)), 1);
        assert_eq!(session.refresh_dirty().unwrap(), 1);
        assert_eq!(cost(&source), (0, 0), "the source did not change");
        assert_eq!(cost(&target), (3, 3));
        assert_eq!(session.rules_for("y:born").unwrap(), whole);
    }

    /// Through a live session a table is asked row by row of the memo,
    /// so its second asking sends nothing; a batch of the same leaves
    /// goes to the endpoint whole each time, and the memo keeps none of
    /// it. Both are recorded in the footprint, leaf by leaf.
    #[test]
    fn a_live_session_memoizes_a_table_and_passes_a_batch_whole() {
        let (dbp, mut writer, yago) = live_target();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        writer.store_mut().insert_terms(
            &Term::iri("y:x"),
            &Term::iri("y:unrelated"),
            &Term::iri("y:y"),
        );
        session.apply_target_delta(&writer.publish());
        let probe = sofya_sparql::Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
        let (hit, miss) = (
            [Term::iri("y:p0"), Term::iri("y:born"), Term::iri("y:c0")],
            [Term::iri("y:p0"), Term::iri("y:born"), Term::iri("y:c1")],
        );
        let rows = [&hit[..], &miss[..]];
        let answers = Response::Batch(vec![Response::Boolean(true), Response::Boolean(false)]);
        let counters = yago.counters();
        counters.reset();
        let probes = Probes::new(&yago, Side::Target, &session.cache);
        let sent = |request: Request<'_>| {
            let before = counters.requests();
            assert_eq!(probes.execute(request).unwrap(), answers);
            counters.requests() - before
        };
        let batch = || Request::Batch(rows.map(|args| Request::leaf(&probe, args)).to_vec());
        assert_eq!([sent(batch()), sent(batch())], [1, 1]);
        assert_eq!(session.lock().memo.len(Side::Target), 0);
        let table = || Request::Table {
            prepared: &probe,
            rows: &rows,
        };
        assert_eq!([sent(table()), sent(table())], [1, 0]);
        assert_eq!(session.lock().memo.len(Side::Target), 2);
        assert!(probes
            .into_read()
            .footprint
            .covers_predicate(&Term::iri("y:born")));
    }

    /// The memo holds exactly what the cached relations last read: a
    /// relation's answers go when its slot goes, a failed or in-flight
    /// read that saw a change keeps nothing, and a resync empties it.
    #[test]
    fn the_memo_holds_only_what_cached_relations_read() {
        let (dbp, mut writer, yago) = live_target();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        let kept = |side| session.lock().memo.len(side);
        session.rules_for("y:born").unwrap();
        assert_eq!(
            (kept(Side::Source), kept(Side::Target)),
            (0, 0),
            "not live yet"
        );

        writer.store_mut().insert_terms(
            &Term::iri("y:p0"),
            &Term::iri("y:born"),
            &Term::iri("y:c1"),
        );
        session.apply_target_delta(&writer.publish());
        session.refresh_dirty().unwrap();
        let (source, target) = (kept(Side::Source), kept(Side::Target));
        assert!(source > 0 && target > 0, "{source} {target}");

        // Every answer is held by y:born alone: dropping it frees them.
        session.invalidate_all();
        assert_eq!((kept(Side::Source), kept(Side::Target)), (0, 0));
        session.rules_for("y:born").unwrap();
        assert_eq!((kept(Side::Source), kept(Side::Target)), (source, target));

        // A target delta drops target answers only.
        writer.store_mut().insert_terms(
            &Term::iri("y:p1"),
            &Term::iri("y:born"),
            &Term::iri("y:c2"),
        );
        session.apply_target_delta(&writer.publish());
        assert_eq!(kept(Side::Source), source);
        assert!(kept(Side::Target) < target);
    }

    /// A delta applied while an alignment's request is out: that answer
    /// is not kept, since it may predate the delta; the ones read after
    /// it are.
    #[test]
    fn an_answer_read_while_a_delta_was_applied_is_not_kept() {
        let kept = |disturb: bool| {
            let (dbp, mut writer, yago) = live_target();
            let yago = ParksFirstRequest::new(yago);
            let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
            writer.store_mut().insert_terms(
                &Term::iri("y:x"),
                &Term::iri("y:unrelated"),
                &Term::iri("y:y"),
            );
            session.apply_target_delta(&writer.publish());
            let elsewhere = PublishDelta {
                prev_epoch: 2,
                epoch: 3,
                predicates: vec![Term::iri("y:elsewhere")],
                terms: vec![Term::iri("y:nobody")],
            };
            std::thread::scope(|scope| {
                let aligning = scope.spawn(|| session.rules_for("y:born"));
                yago.gate.wait();
                if disturb {
                    session.apply_source_delta(&elsewhere);
                }
                yago.gate.wait();
                aligning.join().unwrap().unwrap();
            });
            let state = session.lock();
            (state.memo.len(Side::Source), state.memo.len(Side::Target))
        };
        let (source, target) = kept(false);
        assert_eq!(kept(true), (source, target - 1));
    }
}
