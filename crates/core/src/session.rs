//! Query-time alignment sessions.
//!
//! The paper's headline scenario is alignment *during query execution*:
//! the first query touching relation `r` pays the sampling cost, later
//! queries reuse the mined rules. [`AlignmentSession`] wraps an
//! [`Aligner`] with a per-relation result cache to provide exactly that
//! contract.

use crate::aligner::Aligner;
use crate::config::AlignerConfig;
use crate::error::AlignError;
use crate::footprint::{DeltaView, EvidenceFootprint};
use crate::rule::SubsumptionRule;
use sofya_endpoint::{Endpoint, PublishDelta};
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
        footprint: EvidenceFootprint,
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

/// Which endpoint a [`PublishDelta`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaSide {
    Source,
    Target,
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
    cache: Mutex<HashMap<String, Slot>>,
    done: Condvar,
    epochs: AtomicU64,
    /// How many deltas and resyncs this session has been told of. A
    /// delta marks `Done` slots only, so an alignment that finds this
    /// moved between its claim and its result lands dirty. Read and
    /// bumped only under the `cache` lock, which orders it.
    deltas_seen: AtomicU64,
}

impl<'a> AlignmentSession<'a> {
    /// Creates a session over a source KB `K'` and target KB `K`.
    pub fn new(source: &'a dyn Endpoint, target: &'a dyn Endpoint, config: AlignerConfig) -> Self {
        Self {
            aligner: Aligner::new(source, target, config),
            cache: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            epochs: AtomicU64::new(0),
            deltas_seen: AtomicU64::new(0),
        }
    }

    /// A panic in the computing thread must not poison the session for
    /// the others (the service scheduler contains it); recover the guard.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The rules for one target relation, aligning on first use.
    pub fn rules_for(&self, relation: &str) -> Result<Vec<SubsumptionRule>, AlignError> {
        // Claim the slot or wait for whoever holds it.
        let my_epoch = self.epochs.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.lock();
        let deltas_at_claim = loop {
            match cache.get(relation) {
                Some(Slot::Done { rules, dirty, .. }) => {
                    if !dirty {
                        return Ok(rules.clone());
                    }
                    // Dirtied by a delta: drop the stale entry and fall
                    // through to a fresh (single-flight) re-mine.
                    cache.remove(relation);
                }
                Some(Slot::InProgress { epoch }) => {
                    let waited_on = *epoch;
                    cache = self.done.wait(cache).unwrap_or_else(|e| e.into_inner());
                    // If the attempt we waited on failed, we are part of
                    // its cohort: share the error instead of each waiter
                    // re-running a full (doomed) alignment in turn.
                    if let Some(Slot::Failed { epoch, error }) = cache.get(relation) {
                        if *epoch == waited_on {
                            return Err(error.clone());
                        }
                    }
                }
                Some(Slot::Failed { .. }) => {
                    // A previous attempt's error we did not wait on:
                    // clear it and retry fresh (errors are not cached).
                    cache.remove(relation);
                }
                None => {
                    cache.insert(relation.to_owned(), Slot::InProgress { epoch: my_epoch });
                    break self.deltas_seen.load(Ordering::Relaxed);
                }
            }
        };
        drop(cache);

        // The claim must be released on *every* exit — including a panic
        // unwinding through `align_relation` (the service scheduler
        // contains the panic, but a stuck `InProgress` slot would block
        // every later request for this relation forever). The guard's
        // `Drop` removes the slot unless it was already replaced with
        // `Done` or `Failed`, and wakes the waiters either way.
        struct Claim<'s> {
            cache: &'s Mutex<HashMap<String, Slot>>,
            done: &'s Condvar,
            relation: &'s str,
        }
        impl Drop for Claim<'_> {
            fn drop(&mut self) {
                let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                if matches!(cache.get(self.relation), Some(Slot::InProgress { .. })) {
                    cache.remove(self.relation);
                }
                drop(cache);
                self.done.notify_all();
            }
        }
        let claim = Claim {
            cache: &self.cache,
            done: &self.done,
            relation,
        };

        let result = self.aligner.align_relation_traced(relation);
        match &result {
            Ok((rules, footprint)) => {
                let mut cache = self.lock();
                // A delta that arrived while this ran found no `Done`
                // slot to mark; whether it touched what was read is not
                // known, so the result lands dirty and is mined again.
                let dirty = self.deltas_seen.load(Ordering::Relaxed) != deltas_at_claim;
                cache.insert(
                    relation.to_owned(),
                    Slot::Done {
                        rules: rules.clone(),
                        footprint: footprint.clone(),
                        dirty,
                    },
                );
            }
            Err(error) => {
                // Broadcast to the cohort waiting on this epoch; the next
                // *new* request clears the marker and retries.
                self.lock().insert(
                    relation.to_owned(),
                    Slot::Failed {
                        epoch: my_epoch,
                        error: error.clone(),
                    },
                );
            }
        }
        drop(claim); // wakes waiters; Done/Failed slots survive the guard
        result.map(|(rules, _)| rules)
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
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Done { .. }))
            .map(|(relation, _)| relation.clone())
            .collect();
        relations.sort();
        relations
    }

    /// Drops one relation's cached rules (and any lingering failure
    /// marker), e.g. after a KB update. An in-flight computation keeps
    /// its claim; its (pre-invalidation) result still lands, as it would
    /// have had it finished a moment earlier.
    pub fn invalidate(&self, relation: &str) {
        let mut cache = self.lock();
        if matches!(
            cache.get(relation),
            Some(Slot::Done { .. }) | Some(Slot::Failed { .. })
        ) {
            cache.remove(relation);
        }
    }

    /// Drops every cached alignment (the resync path: the delta ring
    /// evicted a gap this session missed, so footprint-based dirtiness
    /// can no longer be decided). An alignment in flight lands dirty.
    pub fn invalidate_all(&self) {
        let mut cache = self.lock();
        self.deltas_seen.fetch_add(1, Ordering::Relaxed);
        cache.retain(|_, slot| matches!(slot, Slot::InProgress { .. }));
    }

    /// Applies a delta published by the **source** KB's store: marks
    /// dirty every cached relation whose source-side evidence footprint
    /// intersects it. Returns the number of newly dirtied relations. A
    /// relation being aligned right now has no footprint yet; it lands
    /// dirty when it finishes.
    pub fn apply_source_delta(&self, delta: &PublishDelta) -> usize {
        self.apply_delta(DeltaSide::Source, delta)
    }

    /// Applies a delta published by the **target** KB's store (see
    /// [`AlignmentSession::apply_source_delta`]).
    pub fn apply_target_delta(&self, delta: &PublishDelta) -> usize {
        self.apply_delta(DeltaSide::Target, delta)
    }

    fn apply_delta(&self, side: DeltaSide, delta: &PublishDelta) -> usize {
        if delta.is_empty() {
            return 0;
        }
        // Hashed once, outside the lock, for every cached relation to probe.
        let delta = DeltaView::new(delta);
        let mut newly_dirty = 0;
        let mut cache = self.lock();
        self.deltas_seen.fetch_add(1, Ordering::Relaxed);
        for slot in cache.values_mut() {
            if let Slot::Done {
                footprint, dirty, ..
            } = slot
            {
                if *dirty {
                    continue;
                }
                let hit = match side {
                    DeltaSide::Source => footprint.source.is_dirty(&delta),
                    DeltaSide::Target => footprint.target.is_dirty(&delta),
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
            .values()
            .filter(|slot| matches!(slot, Slot::Done { dirty: true, .. }))
            .count()
    }

    /// Relations currently marked dirty (cached but stale), sorted.
    pub fn dirty_relations(&self) -> Vec<String> {
        let mut relations: Vec<String> = self
            .lock()
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

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::{InstrumentedEndpoint, LocalEndpoint};
    use sofya_rdf::{Term, TripleStore};

    const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

    fn endpoints() -> (
        InstrumentedEndpoint<LocalEndpoint>,
        InstrumentedEndpoint<LocalEndpoint>,
    ) {
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
        use sofya_endpoint::{EndpointError, Request, Response};
        use sofya_sparql::QueryBudget;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        struct ParksFirstRequest<E> {
            inner: E,
            parked: AtomicBool,
            gate: Barrier,
        }
        impl<E: Endpoint> Endpoint for ParksFirstRequest<E> {
            fn execute_with_budget(
                &self,
                req: Request<'_>,
                budget: &QueryBudget,
            ) -> Result<Response, EndpointError> {
                if !self.parked.swap(true, Ordering::SeqCst) {
                    self.gate.wait(); // the claim is taken, nothing read yet
                    self.gate.wait(); // the delta has been applied
                }
                self.inner.execute_with_budget(req, budget)
            }
        }

        let (dbp, yago) = endpoints();
        let yago = ParksFirstRequest {
            inner: yago,
            parked: AtomicBool::new(false),
            gate: Barrier::new(2),
        };
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
}
