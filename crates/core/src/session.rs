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
//! next lookup (or [`AlignmentSession::refresh_dirty`]) refreshes them.
//! From the first delta on, the session also keeps a probe memo per
//! side: the answers of the prepared leaf queries its cached relations
//! last read. A delta marks suspect every answer a changed triple could
//! reach: one it could match, unless the delta's links show that no
//! solution joins it, as a fact between entities no `sameAs` links
//! joins no linked count or contrastive page. A re-mine is answered
//! from the memo wherever no answer is suspect, and a batch sends only
//! its misses, so a re-mine costs the few queries a delta moved rather
//! than a whole alignment.
//!
//! **A dirty relation is checked before it is re-mined** when the memo
//! holds every answer its last alignment read. An alignment is a
//! deterministic function of the answers it reads, in order, so the
//! session asks that relation's suspect answers again, outside the
//! lock: if no change was applied meanwhile and every answer is what
//! it was, the relation goes clean with its rules, a build system's
//! early cutoff. Otherwise it is re-mined, and the answers that changed
//! are in the memo for the re-mine to read. A relation mined before the
//! memo was live, or one whose reads were not all kept, is re-mined.
//!
//! A session never told of a delta keeps no memo and sends exactly what
//! the aligner asks. An invalidation or a resync stands for a change of
//! unknown shape and empties the memo.

use crate::aligner::Aligner;
use crate::config::AlignerConfig;
use crate::error::AlignError;
use crate::footprint::{DeltaView, EvidenceFootprint, SideFootprint};
use crate::memo::{Held, Memo, Side};
use crate::rule::SubsumptionRule;
use sofya_endpoint::{Endpoint, EndpointError, PublishDelta, Request, Response};
use sofya_rdf::Dict;
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
        /// Whether `reads` holds every answer the alignment read: the
        /// memo was live, it kept every answer, no text or batch was
        /// sent, and no change was applied while an answer was out. A
        /// dirty slot that is complete is checked before it is re-mined.
        complete: bool,
        /// Set by [`AlignmentSession::apply_source_delta`] /
        /// [`AlignmentSession::apply_target_delta`]; a dirty slot is
        /// checked or re-mined on the next
        /// [`AlignmentSession::rules_for`].
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
    /// How many alignments have landed.
    #[cfg(test)]
    mines: usize,
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
        // A dirty slot is taken out whole: its reads stay held until the
        // relation is clean again, so a check or a re-mine finds them in
        // the memo.
        let mut stale = None;
        let mut changes_at_claim = loop {
            match state.slots.get(relation) {
                Some(Slot::Done { rules, dirty, .. }) => {
                    if !dirty {
                        return Ok(rules.clone());
                    }
                    // Dirtied by a delta: fall through to a fresh
                    // (single-flight) check or re-mine.
                    stale = state.slots.remove(relation);
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
        // Once live the memo stays live, so this holds for the whole
        // alignment.
        let live = state.memo.is_live();
        drop(state);

        // The claim must be released on *every* exit — including a panic
        // unwinding through the alignment (the service scheduler contains
        // the panic, but a stuck `InProgress` slot would block every
        // later request for this relation forever). The guard's `Drop`
        // removes the slot unless it was already replaced with `Done` or
        // `Failed`, lets go of the dirty slot's reads, and wakes the
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
        let mut claim = Claim {
            cache: &self.cache,
            done: &self.done,
            relation,
            stale_reads: Vec::new(),
        };

        if let Some(Slot::Done {
            rules,
            footprint,
            reads,
            complete,
            ..
        }) = stale
        {
            claim.stale_reads = reads;
            if complete {
                match self.recheck(&mut claim.stale_reads) {
                    Ok(mut state) => {
                        let reads = std::mem::take(&mut claim.stale_reads);
                        state.slots.insert(
                            relation.to_owned(),
                            Slot::Done {
                                rules: rules.clone(),
                                footprint,
                                reads,
                                dirty: false,
                                complete: true,
                            },
                        );
                        drop(state);
                        return Ok(rules);
                    }
                    Err(changes) => changes_at_claim = changes,
                }
            }
        }

        let source = Probes::new(self.source, Side::Source, &self.cache, live);
        let target = Probes::new(self.target, Side::Target, &self.cache, live);
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
                // known, so the result lands dirty and is checked or
                // mined again.
                let dirty = state.changes != changes_at_claim;
                #[cfg(test)]
                {
                    state.mines += 1;
                }
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
                        complete: source.complete && target.complete,
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

    /// Asks the suspects among a dirty relation's complete `reads` again,
    /// outside the lock. Every answer they hold that is not suspect is
    /// one no delta since could have changed, and an alignment is a
    /// deterministic function of the answers it reads, in order: if no
    /// change was applied while the suspects were out and every one
    /// held, the relation's rules stand — `Ok`, with the lock held.
    /// Otherwise `Err` with the change count a re-mine starts from; the
    /// answers that differ are held in `reads` for it to read. Each
    /// suspect goes as a request of its own, one round trip apiece over
    /// a remote endpoint.
    fn recheck(&self, reads: &mut Vec<Held>) -> Result<MutexGuard<'_, State>, u64> {
        let mut state = self.lock();
        let changes = state.changes;
        let Some(suspects) = state.memo.suspects(reads) else {
            return Err(changes);
        };
        let mut answers = Vec::with_capacity(suspects.len());
        if !suspects.is_empty() {
            drop(state);
            for suspect in &suspects {
                let endpoint = match suspect.side() {
                    Side::Source => self.source,
                    Side::Target => self.target,
                };
                // The re-mine meets the error, and reports it.
                let Ok(answer) = endpoint.execute(suspect.request()) else {
                    break;
                };
                answers.push(answer);
            }
            state = self.lock();
            if state.changes != changes {
                return Err(state.changes);
            }
        }
        let mut held = answers.len() == suspects.len();
        for (suspect, answer) in suspects.iter().zip(&answers) {
            let same = state.memo.settle(suspect, answer, reads);
            held &= same;
        }
        if held {
            Ok(state)
        } else {
            Err(changes)
        }
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

    /// Applies a delta published by the **source** KB's store, its ids
    /// read in `dict`, that store's dictionary at or after the delta: marks
    /// dirty every cached relation whose source-side evidence footprint
    /// intersects it, and marks suspect every source-side memo answer a
    /// changed triple could reach, as far as the delta's links tell; a
    /// delta that cannot read its links any more, or one built by hand,
    /// marks every answer a changed triple could match. Returns the number of newly dirtied
    /// relations. A relation being aligned right now has no footprint
    /// yet; it lands dirty when it finishes. The first delta a session
    /// is told of turns its memo on.
    pub fn apply_source_delta(&self, delta: &PublishDelta, dict: &Dict) -> usize {
        self.apply_delta(Side::Source, delta, dict)
    }

    /// Applies a delta published by the **target** KB's store (see
    /// [`AlignmentSession::apply_source_delta`]).
    pub fn apply_target_delta(&self, delta: &PublishDelta, dict: &Dict) -> usize {
        self.apply_delta(Side::Target, delta, dict)
    }

    fn apply_delta(&self, side: Side, delta: &PublishDelta, dict: &Dict) -> usize {
        if delta.is_empty() {
            return 0;
        }
        // Hashed once, outside the lock, for every cached relation to probe.
        let view = DeltaView::new(delta, dict);
        let mut newly_dirty = 0;
        let mut state = self.lock();
        let State {
            slots,
            memo,
            changes,
            ..
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

    /// Eagerly refreshes every dirty relation (the background refresher's
    /// work loop): one whose last alignment's reads are all held in the
    /// memo is checked first, by asking its suspect answers again, and
    /// re-mined only if one changed; any other is re-mined. Returns how
    /// many relations were refreshed, checked or re-mined.
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
    /// Whether `held` holds every answer read so far.
    complete: bool,
}

/// One alignment's view of one side's endpoint. It records every
/// request into the alignment's footprint and, once the memo is live,
/// answers each prepared leaf it can from the memo, sends the rest — a
/// table row by row, as the leaf each row stands for, and its misses as
/// one table, in order — and keeps their answers unless a change was
/// applied while they were read. The session lock is never held across
/// the endpoint call. Before the memo is live it passes every request
/// through, and its read is incomplete.
struct Probes<'s> {
    inner: &'s dyn Endpoint,
    side: Side,
    cache: &'s Mutex<State>,
    live: bool,
    read: Mutex<Read>,
}

impl<'s> Probes<'s> {
    fn new(inner: &'s dyn Endpoint, side: Side, cache: &'s Mutex<State>, live: bool) -> Self {
        Self {
            inner,
            side,
            cache,
            live,
            read: Mutex::new(Read {
                complete: live,
                ..Read::default()
            }),
        }
    }

    fn read(&self) -> MutexGuard<'_, Read> {
        self.read.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn into_read(mut self) -> Read {
        std::mem::take(self.read.get_mut().unwrap_or_else(|e| e.into_inner()))
    }

    /// Keeps the answers to `requests`, unless the session was told of
    /// a change since `changes` — the answers may predate it. An answer
    /// not kept leaves the read incomplete.
    fn keep(&self, changes: u64, requests: &[Request<'_>], answers: &[Response]) {
        let mut state = lock(self.cache);
        let held: Vec<Held> = if state.changes == changes {
            requests
                .iter()
                .zip(answers)
                .filter_map(|(req, answer)| state.memo.keep(self.side, req, answer))
                .collect()
        } else {
            Vec::new()
        };
        drop(state);
        let mut read = self.read();
        read.complete &= held.len() == requests.len();
        read.held.extend(held);
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
        if !self.live {
            return self.inner.execute_with_budget(req, budget);
        }
        let mut state = lock(self.cache);
        let changes = state.changes;
        let mut held = Vec::new();
        let (prepared, rows) = match req {
            Request::Table { prepared, rows } => (prepared, rows),
            // The memo serves and keeps prepared leaves only: a text
            // query or a batch goes through whole and leaves the read
            // incomplete.
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
    use sofya_endpoint::{InstrumentedEndpoint, LocalEndpoint, SnapshotStore};
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

    /// A delta from `epochs.0` to `epochs.1` of the IRIs `predicates`
    /// and `terms`, built by hand, with a dictionary that holds them.
    fn delta(epochs: (u64, u64), predicates: &[&str], terms: &[&str]) -> (PublishDelta, Dict) {
        let mut dict = Dict::new();
        let mut ids = |iris: &[&str]| iris.iter().map(|i| dict.intern(&Term::iri(*i))).collect();
        let (predicates, terms) = (ids(predicates), ids(terms));
        let delta = PublishDelta {
            prev_epoch: epochs.0,
            epoch: epochs.1,
            predicates,
            terms,
            links: Default::default(),
        };
        (delta, dict)
    }

    /// Publishes `writer` and tells the session's target side, read in
    /// the writer's dictionary; returns the relations newly dirty.
    fn publish_target(session: &AlignmentSession<'_>, writer: &mut SnapshotStore) -> usize {
        let delta = writer.publish();
        session.apply_target_delta(&delta, writer.current().snapshot().dict())
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
        let (dbp, yago) = endpoints();
        let counters = dbp.counters();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        session.rules_for("y:born").unwrap();
        assert!(session.dirty_relations().is_empty());
        let after_mine = counters.total_queries();

        // A target-side delta on an unrelated predicate: still clean,
        // and the next lookup is still free.
        let (unrelated, dict) = delta((1, 2), &["y:unrelated"], &["y:nobody"]);
        assert_eq!(session.apply_target_delta(&unrelated, &dict), 0);
        session.rules_for("y:born").unwrap();
        assert_eq!(counters.total_queries(), after_mine);

        // A delta touching the mined relation's own predicate dirties it;
        // the next lookup re-mines.
        let (touching, dict) = delta((2, 3), &["y:born"], &["y:p0"]);
        assert_eq!(session.apply_target_delta(&touching, &dict), 1);
        assert_eq!(session.dirty_relations(), vec!["y:born"]);
        session.rules_for("y:born").unwrap();
        assert!(counters.total_queries() > after_mine, "dirty slot re-mines");
        assert!(session.dirty_relations().is_empty());

        // Re-applying the same delta after the refresh dirties the
        // relation again: the test is conservative, and the refreshed
        // footprint still covers `y:born`.
        assert_eq!(session.apply_target_delta(&touching, &dict), 1);
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
        let (touching, dict) = delta((1, 2), &["y:born"], &["y:p0"]);
        std::thread::scope(|scope| {
            let aligning = scope.spawn(|| session.rules_for("y:born"));
            yago.gate.wait();
            assert_eq!(
                session.apply_target_delta(&touching, &dict),
                0,
                "no slot to mark"
            );
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
        SnapshotStore,
        InstrumentedEndpoint<sofya_endpoint::ConcurrentEndpoint>,
    ) {
        let (dbp, yago) = stores();
        let writer = SnapshotStore::new(yago);
        let target = InstrumentedEndpoint::new(writer.reader("yago"));
        (
            InstrumentedEndpoint::new(LocalEndpoint::new("dbp", dbp)),
            writer,
            target,
        )
    }

    /// What a re-mine sends once the memo holds the last mine's reads: a
    /// delta that touches `y:born` only through entities no `sameAs`
    /// links may move the relation's own pages — 2 leaves in 2 requests,
    /// all on the target — against the 8 leaves in 8 requests of the
    /// whole alignment (each batched phase one table), which is what a
    /// re-mine sent before the memo. The linked count is not among them:
    /// it joins the changed fact's subject to a `sameAs` link, which the
    /// delta's links say no new entity has. The check before the re-mine
    /// asks those 2, finds them changed, and the re-mine reads its
    /// answers from the memo.
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
            publish_target(&session, &mut writer)
        };
        // The first delta turns the memo on; its re-mine fills it.
        assert_eq!(unlinked(0), 1);
        session.refresh_dirty().unwrap();
        let twice = |(leaves, requests): (u64, u64)| (2 * leaves, 2 * requests);
        assert_eq!(cost(&source), twice(whole_source));
        assert_eq!(cost(&target), twice(whole_target));
        source.reset();
        target.reset();

        assert_eq!(unlinked(1), 1);
        assert_eq!(session.refresh_dirty().unwrap(), 1);
        assert_eq!(cost(&source), (0, 0), "the source did not change");
        assert_eq!(cost(&target), (2, 2));
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
        publish_target(&session, &mut writer);
        let probe = sofya_sparql::Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
        let (hit, miss) = (
            [Term::iri("y:p0"), Term::iri("y:born"), Term::iri("y:c0")],
            [Term::iri("y:p0"), Term::iri("y:born"), Term::iri("y:c1")],
        );
        let rows = [&hit[..], &miss[..]];
        let answers = Response::Batch(vec![Response::Boolean(true), Response::Boolean(false)]);
        let counters = yago.counters();
        counters.reset();
        let probes = Probes::new(&yago, Side::Target, &session.cache, true);
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
        publish_target(&session, &mut writer);
        session.refresh_dirty().unwrap();
        let (source, target) = (kept(Side::Source), kept(Side::Target));
        assert!(source > 0 && target > 0, "{source} {target}");

        // Every answer is held by y:born alone: dropping it frees them.
        session.invalidate_all();
        assert_eq!((kept(Side::Source), kept(Side::Target)), (0, 0));
        session.rules_for("y:born").unwrap();
        assert_eq!((kept(Side::Source), kept(Side::Target)), (source, target));

        // A target delta makes target answers suspect, and no others.
        writer.store_mut().insert_terms(
            &Term::iri("y:p1"),
            &Term::iri("y:born"),
            &Term::iri("y:c2"),
        );
        publish_target(&session, &mut writer);
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
            publish_target(&session, &mut writer);
            let (elsewhere, dict) = delta((2, 3), &["y:elsewhere"], &["y:nobody"]);
            std::thread::scope(|scope| {
                let aligning = scope.spawn(|| session.rules_for("y:born"));
                yago.gate.wait();
                if disturb {
                    session.apply_source_delta(&elsewhere, &dict);
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

    /// A triple that comes and goes between two refreshes: the relation
    /// is dirty, but every answer the delta could have moved is what it
    /// was. The refresh asks those suspects again — the same 2 leaves in
    /// 2 requests a re-mine sends after the triple's insert alone, the
    /// relation's pages; `y:stranger` has no `sameAs` link, so the linked
    /// count is cleared — finds them unchanged and keeps the cached
    /// rules, with nothing re-mined.
    #[test]
    fn a_delta_whose_answers_hold_re_asks_only_its_suspects() {
        let (dbp, mut writer, yago) = live_target();
        let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(1));
        let (source, target) = (dbp.counters(), yago.counters());
        let cost = |c: &sofya_endpoint::EndpointCounters| (c.total_queries(), c.requests());
        let stranger = |o: &str| [Term::iri("y:stranger"), Term::iri("y:born"), Term::iri(o)];
        let [s, p, o] = stranger("y:nowhere");
        session.rules_for("y:born").unwrap();
        writer.store_mut().insert_terms(&s, &p, &o);
        // The first delta turns the memo on; its re-mine fills it.
        assert_eq!(publish_target(&session, &mut writer), 1);
        session.refresh_dirty().unwrap();
        let cached = session.rules_for("y:born").unwrap();
        let (filled, mines) = {
            let state = session.lock();
            (state.memo.len(Side::Target), state.mines)
        };
        source.reset();
        target.reset();

        let [s, p, o] = stranger("y:elsewhere");
        writer.store_mut().insert_terms(&s, &p, &o);
        publish_target(&session, &mut writer);
        let store = writer.store_mut();
        let [s, p, o] = [s, p, o].map(|t| store.dict().lookup(&t).unwrap());
        store.remove(s, p, o);
        publish_target(&session, &mut writer);
        let suspects = filled - session.lock().memo.len(Side::Target);
        assert_eq!(suspects, 2);

        assert_eq!(session.refresh_dirty().unwrap(), 1);
        assert_eq!(cost(&source), (0, 0), "the source did not change");
        assert_eq!(cost(&target), (2, 2), "the suspects, and nothing else");
        let state = session.lock();
        assert_eq!(state.mines, mines, "nothing was re-mined");
        assert_eq!(
            state.memo.len(Side::Target),
            filled,
            "every suspect filed again"
        );
        drop(state);
        assert_eq!(session.rules_for("y:born").unwrap(), cached);
        assert_eq!(cost(&target), (2, 2));
    }

    /// The small-scope check of the check before a re-mine, over the memo
    /// tests' universe (three entities, two relations and `sameAs`): a
    /// session with both relations cached, their reads whole, against
    /// every single-triple insert and remove on either side, from the
    /// memo tests' base and from one where each relation is mined as a
    /// premise of both. A relation kept without a re-mine has the rules
    /// a from-scratch alignment mines, every relation whose from-scratch
    /// rules changed is re-mined, and both outcomes occur.
    #[test]
    fn a_dirty_relation_is_kept_only_if_its_rules_still_hold() {
        use crate::memo::tests::{base, store, universe, SA};

        let config = AlignerConfig {
            same_as: SA.to_owned(),
            ..AlignerConfig::paper_defaults(1)
        };
        let linked: Vec<_> = [
            ("e:0", "r:a", "e:1"),
            ("e:1", "r:a", "e:2"),
            ("e:0", "r:b", "e:1"),
            ("e:1", "r:b", "e:2"),
            ("e:2", "r:b", "e:0"),
            ("e:0", SA, "e:0"),
            ("e:1", SA, "e:1"),
            ("e:2", SA, "e:2"),
        ]
        .map(|(s, p, o)| (Term::iri(s), Term::iri(p), Term::iri(o)))
        .into();
        let relations = ["r:a", "r:b"];
        let (mut kept, mut remined, mut moved, mut mined_rules) = (0, 0, 0, 0);
        for base in [base(), linked] {
            for side in [Side::Source, Side::Target] {
                for (s, p, o) in universe() {
                    let mut stores = [store(&base), store(&base)].map(SnapshotStore::new);
                    let [source, target] = [&stores[0], &stores[1]].map(|s| s.reader("kb"));
                    let session = AlignmentSession::new(&source, &target, config.clone());
                    // Live from a delta nothing read; then every relation
                    // is mined with its reads whole.
                    let (nothing_read, dict) = delta((1, 1), &["r:none"], &["e:none"]);
                    session.apply_target_delta(&nothing_read, &dict);
                    let cached = relations.map(|r| session.rules_for(r).unwrap());
                    mined_rules += cached.iter().map(Vec::len).sum::<usize>();

                    let writer = &mut stores[side as usize];
                    let store = writer.store_mut();
                    if !store.insert_terms(&s, &p, &o) {
                        let id = |t: &Term| store.dict().lookup(t).unwrap();
                        let (s, p, o) = (id(&s), id(&p), id(&o));
                        assert!(store.remove(s, p, o));
                    }
                    let delta = writer.publish();
                    let dict = writer.current().snapshot().dict().clone();
                    match side {
                        Side::Source => session.apply_source_delta(&delta, &dict),
                        Side::Target => session.apply_target_delta(&delta, &dict),
                    };
                    let fresh = AlignmentSession::new(&source, &target, config.clone());
                    for (relation, cached) in relations.iter().zip(&cached) {
                        let dirty = session.dirty_relations().iter().any(|r| r == relation);
                        let mines = session.lock().mines;
                        let rules = session.rules_for(relation).unwrap();
                        let mined = session.lock().mines > mines;
                        let scratch = fresh.rules_for(relation).unwrap();
                        let case = format!("{relation} after ({s}, {p}, {o}) on {side:?}");
                        assert_eq!(rules, scratch, "{case}");
                        if scratch != *cached {
                            moved += 1;
                            assert!(mined, "{case}: its rules changed, but it was kept");
                        }
                        match (dirty, mined) {
                            (true, false) => kept += 1,
                            (_, true) => remined += 1,
                            (false, false) => {}
                        }
                    }
                }
            }
        }
        assert!(
            kept > 0 && remined > 0 && moved > 0 && mined_rules > 0,
            "kept {kept}, re-mined {remined}, rules moved {moved}, cached rules {mined_rules}"
        );
    }
}
