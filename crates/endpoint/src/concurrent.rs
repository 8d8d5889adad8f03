//! Snapshot-isolated concurrent reads over a single-writer store.
//!
//! The paper's online setting has many clients firing small probes at a
//! live endpoint while the knowledge base keeps growing. This module
//! splits that into the classic single-writer / many-readers shape:
//!
//! * [`SnapshotStore`] owns the mutable [`TripleStore`]. The writer
//!   inserts, removes, and bulk-loads at will, then calls
//!   [`SnapshotStore::publish`] to make the current state visible: the
//!   store's pending inserts and removals are applied and an immutable
//!   [`StoreSnapshot`] (shared `Arc`s — no triple or term copied) is
//!   swapped into a shared cell.
//! * [`ConcurrentEndpoint`] is a full [`Endpoint`] over the *currently
//!   published* snapshot. Each query clones the snapshot `Arc` out of the
//!   cell (one brief mutex acquisition — the epoch swap) and then runs
//!   entirely lock-free against immutable data, so readers never block
//!   each other or the writer mid-query, and a publish mid-query is
//!   harmless: the running query keeps its snapshot alive.
//!
//! A `ConcurrentEndpoint` — and [`LocalEndpoint`], which is the same
//! thing over a snapshot that nobody republishes — answers through the
//! one in-process execution core, `run`: the only place a [`Request`] is
//! matched and handed to the SPARQL engine, always under a
//! [`QueryBudget`].
//!
//! Plans are cached in a sharded LRU keyed by query string and stamped
//! with the snapshot version they were compiled against (see the
//! crate-private `plan_cache` module); a publish therefore invalidates
//! stale plans lazily, on their next lookup.

use crate::delta::{DeltaLinks, DeltaLog, FreshnessGauge, PublishDelta};
use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use crate::local::LocalEndpoint;
use crate::plan_cache::{prepared_cache_key, ShardedPlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use parking_lot::Mutex;
use sofya_rdf::{StoreSnapshot, StoreStats, TermId, TripleStore};
use sofya_sparql::{
    compile_ast_with_options, compile_with_options, execute_ast_budgeted,
    execute_compiled_paged_budgeted, PlanOptions, QueryBudget,
};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// One published store state: the immutable snapshot plus the planner
/// statistics the query layer derives from it.
#[derive(Debug)]
pub struct PublishedSnapshot {
    snapshot: StoreSnapshot,
    /// Planner statistics, computed once per snapshot on first use.
    stats: OnceLock<Arc<StoreStats>>,
    /// What they are derived from: the statistics of an earlier state and
    /// every predicate written since. Fixed at publish time; `None` for
    /// a store's first snapshot and for successors of one nobody read.
    base: Option<(Arc<StoreStats>, BTreeSet<TermId>)>,
}

impl PublishedSnapshot {
    pub(crate) fn new(snapshot: StoreSnapshot) -> Self {
        Self {
            snapshot,
            stats: OnceLock::new(),
            base: None,
        }
    }

    /// The state a publish that changed the pages of `written` puts in
    /// place of `self`: it inherits these statistics if a reader computed
    /// them, or else whatever `self` would have derived its own from.
    fn succeeded_by(&self, snapshot: StoreSnapshot, written: &[TermId]) -> Self {
        let written = written.iter().copied();
        let base = match (self.stats.get(), &self.base) {
            (Some(stats), _) => Some((Arc::clone(stats), written.collect())),
            (None, Some((stats, touched))) => Some((
                Arc::clone(stats),
                touched.iter().copied().chain(written).collect(),
            )),
            (None, None) => None,
        };
        Self {
            base,
            ..Self::new(snapshot)
        }
    }

    /// The immutable store contents.
    pub fn snapshot(&self) -> &StoreSnapshot {
        &self.snapshot
    }

    /// The writer generation this state was published at.
    pub fn version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Cardinality statistics for the planner, computed lazily once and
    /// then shared by every query against this snapshot — and inherited
    /// by its successors: their first reader recomputes only the
    /// predicates written in between, so it pays for the publishes, not
    /// for the store. Equal to [`StoreStats::compute`] either way.
    pub fn stats(&self) -> &StoreStats {
        self.stats.get_or_init(|| {
            let store = self.snapshot.store();
            Arc::new(match &self.base {
                Some((stats, touched)) => stats.inherit(touched.iter().copied(), store),
                None => StoreStats::compute(store),
            })
        })
    }

    fn plan_options(&self) -> PlanOptions<'_> {
        PlanOptions {
            stats: Some(self.stats()),
            ..PlanOptions::default()
        }
    }
}

/// The shared epoch cell. A `Mutex<Arc<_>>` swap is the vendored
/// equivalent of `arc-swap`: readers hold the lock only long enough to
/// clone the `Arc`, writers only long enough to store a new one.
#[derive(Debug)]
struct Cell {
    current: Mutex<Arc<PublishedSnapshot>>,
}

impl Cell {
    fn load(&self) -> Arc<PublishedSnapshot> {
        Arc::clone(&self.current.lock())
    }

    fn swap(&self, next: Arc<PublishedSnapshot>) {
        *self.current.lock() = next;
    }
}

/// Ascending, deduplicated ids.
fn ascending(ids: impl Iterator<Item = u32>) -> Vec<TermId> {
    let mut ids: Vec<u32> = ids.collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(TermId).collect()
}

/// The writer half: owns the mutable store and the publication cell.
///
/// Not `Clone` — the single-writer discipline is encoded in ownership.
/// Readers are handed out freely via [`SnapshotStore::reader`].
#[derive(Debug)]
pub struct SnapshotStore {
    store: TripleStore,
    cell: Arc<Cell>,
    /// Shared by every reader handed out from this store, so workers
    /// reuse one another's compiled plans.
    plans: Arc<ShardedPlanCache>,
    /// Ring of recent publish deltas for incremental subscribers.
    deltas: Arc<DeltaLog>,
    /// Streaming freshness gauges (`last_publish_epoch`, …).
    freshness: Arc<FreshnessGauge>,
}

impl SnapshotStore {
    /// Wraps `store` and immediately publishes its current state, so
    /// readers created before the first explicit publish see a complete
    /// (not empty) view.
    pub fn new(store: TripleStore) -> Self {
        Self::with_delta_capacity(store, crate::delta::DEFAULT_DELTA_LOG_CAPACITY)
    }

    /// [`SnapshotStore::new`] with an explicit delta-ring capacity (how
    /// many publishes a lagging subscriber can catch up across before
    /// being told to resync).
    pub fn with_delta_capacity(mut store: TripleStore, delta_capacity: usize) -> Self {
        let first = Arc::new(PublishedSnapshot::new(store.snapshot()));
        let initial_epoch = first.version();
        let freshness = Arc::new(FreshnessGauge::new());
        freshness.set_last_publish_epoch(initial_epoch);
        Self {
            store,
            cell: Arc::new(Cell {
                current: Mutex::new(first),
            }),
            plans: Arc::new(ShardedPlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            deltas: Arc::new(DeltaLog::new(delta_capacity, initial_epoch)),
            freshness,
        }
    }

    /// Read access to the writer's working state (which may be ahead of
    /// the published snapshot).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Mutable access for the single writer. Changes stay invisible to
    /// readers until [`SnapshotStore::publish`].
    pub fn store_mut(&mut self) -> &mut TripleStore {
        &mut self.store
    }

    /// Publishes the writer's current state: flush, snapshot, swap. Cost
    /// is one pass over each index run written to since the last publish
    /// plus O(#predicates) `Arc` clones — it follows the mutations, not
    /// the size of the store or of its dictionary, and retiring the
    /// previous snapshot frees only what those passes replaced. The
    /// [`sofya_rdf::store`] module docs state the whole cost model; the
    /// first reader of the new state pays on the same terms (see
    /// [`PublishedSnapshot::stats`]).
    ///
    /// Returns the [`PublishDelta`] describing what changed since the
    /// previous epoch, read off the two snapshots (see
    /// [`SnapshotStore::install`]).
    ///
    /// **No-op fast path:** with no write since the last publish the
    /// currently published snapshot is left in place (same `Arc`, same
    /// epoch, same publication time) and a no-op delta is returned.
    /// Version-stamped cached plans therefore stay valid across idle
    /// publishes.
    pub fn publish(&mut self) -> Arc<PublishDelta> {
        let current_epoch = self.current().version();
        if self.store.generation() == current_epoch {
            return Arc::new(PublishDelta::noop(current_epoch));
        }
        let snapshot = self.store.snapshot();
        self.install(snapshot)
    }

    /// Publishes a snapshot taken earlier from this store's writer half.
    ///
    /// This is [`SnapshotStore::publish`] split in two, for callers that
    /// must act between snapshotting and the visibility swap — the
    /// durable store commits its write-ahead log first, so readers never
    /// observe state that a crash could lose.
    ///
    /// What `snapshot` changed is [`StoreSnapshot::diff_since`] the
    /// published one, which costs the pages written in between: its
    /// predicates are the pages the new state's statistics recompute, and
    /// with the subject/object ids of the changed triples they make the
    /// returned [`PublishDelta`], which is appended to the delta ring,
    /// resolving nothing. Its [`PublishDelta::links`] are not read here:
    /// the delta holds the new snapshot weakly and reads them if a
    /// subscriber asks. The change is net, so writes that cancel out
    /// within one publish show nowhere, and a write landing after
    /// `snapshot` was taken belongs to the next publish.
    pub fn install(&mut self, snapshot: StoreSnapshot) -> Arc<PublishDelta> {
        let (adds, removes) = snapshot.diff_since(self.current().snapshot());
        self.install_change(snapshot, &adds, &removes)
    }

    /// [`SnapshotStore::install`] with its diff known: the durable
    /// store's log has just framed it.
    pub(crate) fn install_change(
        &mut self,
        snapshot: StoreSnapshot,
        adds: &[(u32, u32, u32)],
        removes: &[(u32, u32, u32)],
    ) -> Arc<PublishDelta> {
        let outgoing = self.current();
        let changed = || adds.iter().chain(removes);
        let predicates = ascending(changed().map(|&(_, p, _)| p));
        let published = Arc::new(outgoing.succeeded_by(snapshot, &predicates));
        let delta = Arc::new(PublishDelta {
            prev_epoch: outgoing.version(),
            epoch: published.version(),
            predicates,
            terms: ascending(changed().flat_map(|&(s, _, o)| [s, o])),
            links: DeltaLinks::new(&published),
        });
        self.cell.swap(published);
        self.deltas.push(Arc::clone(&delta));
        self.freshness.set_last_publish_epoch(delta.epoch);
        delta
    }

    /// The currently published state.
    pub fn current(&self) -> Arc<PublishedSnapshot> {
        self.cell.load()
    }

    /// The shared ring of recent publish deltas (for subscribers that
    /// track which relations a publish dirtied).
    pub fn delta_log(&self) -> Arc<DeltaLog> {
        Arc::clone(&self.deltas)
    }

    /// The shared streaming freshness gauges.
    pub fn freshness(&self) -> Arc<FreshnessGauge> {
        Arc::clone(&self.freshness)
    }

    /// A concurrent endpoint over whatever snapshot is current at each
    /// query. All readers created from the same `SnapshotStore` (and
    /// their clones) share one sharded plan cache.
    pub fn reader(&self, name: impl Into<String>) -> ConcurrentEndpoint {
        ConcurrentEndpoint {
            name: name.into(),
            cell: Arc::clone(&self.cell),
            plans: Arc::clone(&self.plans),
        }
    }
}

/// A thread-safe [`Endpoint`] answering every query against the snapshot
/// current at the moment the query starts.
///
/// Clones share the epoch cell *and* the sharded plan cache, so a pool of
/// worker threads can each hold a clone and still reuse one another's
/// compiled plans.
#[derive(Clone)]
pub struct ConcurrentEndpoint {
    name: String,
    cell: Arc<Cell>,
    plans: Arc<ShardedPlanCache>,
}

impl ConcurrentEndpoint {
    /// The snapshot this endpoint would answer a query with right now.
    pub fn current(&self) -> Arc<PublishedSnapshot> {
        self.cell.load()
    }

    /// Version of the currently published snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.current().version()
    }

    /// Total cached plans across all shards.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// Re-bounds the sharded plan cache (total capacity, split evenly
    /// across shards; 0 disables caching).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.plans.set_capacity(capacity);
    }

    /// An endpoint view **pinned** to the currently published snapshot.
    ///
    /// `ConcurrentEndpoint` resolves the snapshot per query — maximal
    /// freshness, but a *dependent* multi-query sequence (count → pick an
    /// offset → read that page, or a paged `ORDER BY … OFFSET` loop) can
    /// straddle a publish and observe two different states. A pinned view
    /// answers every query from the one snapshot current at pin time, so
    /// such sequences are transactionally consistent; create one per
    /// logical unit of work and drop it to release the snapshot. It
    /// shares this endpoint's plan cache.
    pub fn pinned(&self) -> LocalEndpoint {
        LocalEndpoint {
            name: self.name.clone(),
            snap: self.cell.load(),
            plans: Arc::clone(&self.plans),
        }
    }
}

/// The in-process execution core: the one place a [`Request`] is matched
/// and run. [`ConcurrentEndpoint`] calls it with the snapshot current at
/// the start of the request, [`LocalEndpoint`] with the one it holds.
///
/// A batch — and a table, row by row — recurses with the **same**
/// snapshot, so its sub-requests observe one consistent state no matter
/// how many publishes land while it runs, and with the same budget: the deadline is absolute and the
/// scan counter is per sub-query, so a batch cannot outlive the deadline
/// even though each member restarts its row count. (The evaluator
/// charges each row of a table's text the same way, so a server caps a
/// table as this caps its rows.)
///
/// The budget is threaded into the evaluator's scan loops, so a breached
/// query unwinds within one poll interval instead of running to
/// completion; under [`QueryBudget::unlimited`] the tracker is off and
/// each check is one dead branch. A killed query drops its snapshot
/// `Arc` like any other — no state to roll back — and leaves its (valid,
/// budget-independent) cached plan for the next caller.
pub(crate) fn run(
    plans: &ShardedPlanCache,
    snap: &PublishedSnapshot,
    req: Request<'_>,
    budget: &QueryBudget,
) -> Result<Response, EndpointError> {
    let store = snap.snapshot().store();
    let outcome = match req {
        // String queries compile once per (text, snapshot version).
        Request::Select { query } | Request::Ask { query } => {
            let compiled = plans.get_or_compile(Cow::Borrowed(query), snap.version(), || {
                compile_with_options(store, query, snap.plan_options())
            })?;
            execute_compiled_paged_budgeted(store, &compiled, None, None, budget)?
        }
        // Prepared probes bind + plan per call: their args vary per
        // probe and their plans are trivial, so caching buys nothing.
        Request::PreparedSelect { prepared, args } | Request::PreparedAsk { prepared, args } => {
            execute_ast_budgeted(store, &prepared.bind(args)?, snap.plan_options(), budget)?
        }
        // Paged shapes are the expensive multi-pattern joins and their
        // bound plan is page-independent, so it is compiled once per
        // (template, args, snapshot version) and every page reuses it
        // with an execution-time LIMIT/OFFSET override.
        Request::PreparedSelectPaged {
            prepared,
            args,
            limit,
            offset,
        } => {
            let key = Cow::Owned(prepared_cache_key(prepared, args));
            let compiled = plans.get_or_compile(key, snap.version(), || {
                let bound = prepared.bind(args)?;
                Ok(compile_ast_with_options(store, &bound, snap.plan_options()))
            })?;
            execute_compiled_paged_budgeted(store, &compiled, limit, offset, budget)?
        }
        // In process there is no text to save: a table runs as the leaf
        // each row stands for, all against this one snapshot, so each
        // keeps its index shortcuts (an `ASK` of one pattern is a range
        // count).
        Request::Table { prepared, rows } => {
            return Ok(Response::Batch(
                rows.iter()
                    .map(|args| run(plans, snap, Request::leaf(prepared, args), budget))
                    .collect::<Result<_, _>>()?,
            ));
        }
        Request::Batch(requests) => {
            return Ok(Response::Batch(
                requests
                    .into_iter()
                    .map(|sub| run(plans, snap, sub, budget))
                    .collect::<Result<_, _>>()?,
            ));
        }
    };
    Ok(Response::from(outcome))
}

impl Endpoint for ConcurrentEndpoint {
    /// Resolves the published snapshot **once** per request — a batch
    /// therefore runs entirely against the snapshot current at its
    /// start, paying a single epoch-cell load for all its sub-requests.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        run(&self.plans, &self.cell.load(), req, budget)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for ConcurrentEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.cell.load();
        f.debug_struct("ConcurrentEndpoint")
            .field("name", &self.name)
            .field("snapshot_version", &snap.version())
            .field("snapshot_triples", &snap.snapshot().len())
            .field("cached_plans", &self.plan_cache_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointExt;
    use sofya_rdf::{Term, TriplePattern};
    use sofya_sparql::Prepared;

    fn seeded() -> SnapshotStore {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:b"));
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:c"));
        SnapshotStore::new(store)
    }

    #[test]
    fn readers_see_only_published_state() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        assert_eq!(ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(), 2);

        writer
            .store_mut()
            .insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:d"));
        // Not yet published: readers still see the old state.
        assert_eq!(ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(), 2);
        let v1 = ep.snapshot_version();

        writer.publish();
        assert_eq!(ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(), 3);
        assert!(ep.snapshot_version() > v1);
    }

    #[test]
    fn plan_cache_is_invalidated_by_publish() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        // Compile a query whose constant does not exist yet: the plan
        // embeds "provably empty".
        let q = "SELECT ?o { <e:new> <r:q> ?o }";
        assert_eq!(ep.select(q).unwrap().len(), 0);
        assert_eq!(ep.plan_cache_len(), 1);

        writer
            .store_mut()
            .insert_terms(&Term::iri("e:new"), &Term::iri("r:q"), &Term::iri("e:z"));
        writer.publish();
        // A stale cached plan would still answer 0 here.
        assert_eq!(ep.select(q).unwrap().len(), 1);
    }

    #[test]
    fn matches_local_endpoint_on_all_query_kinds() {
        let mut store = TripleStore::new();
        for i in 0..30 {
            store.insert_terms(
                &Term::iri(format!("e:s{}", i % 7)),
                &Term::iri(format!("r:p{}", i % 3)),
                &Term::iri(format!("e:o{i}")),
            );
        }
        let local = LocalEndpoint::new("local", store.clone());
        let writer = SnapshotStore::new(store);
        let ep = writer.reader("conc");

        let select = "SELECT ?s ?o { ?s <r:p1> ?o } ORDER BY ?s ?o";
        assert_eq!(ep.select(select).unwrap(), local.select(select).unwrap());
        let ask = "ASK { <e:s1> <r:p1> ?o }";
        assert_eq!(ep.ask(ask).unwrap(), local.ask(ask).unwrap());

        let prepared =
            Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let args = [Term::iri("e:s1"), Term::iri("r:p1")];
        assert_eq!(
            ep.select_prepared(&prepared, &args).unwrap(),
            local.select_prepared(&prepared, &args).unwrap()
        );
        assert_eq!(
            ep.select_prepared_paged(&prepared, &args, Some(2), Some(1))
                .unwrap(),
            local
                .select_prepared_paged(&prepared, &args, Some(2), Some(1))
                .unwrap()
        );
        let probe = Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
        let probe_args = [Term::iri("e:s1"), Term::iri("r:p1"), Term::iri("e:o1")];
        assert_eq!(
            ep.ask_prepared(&probe, &probe_args).unwrap(),
            local.ask_prepared(&probe, &probe_args).unwrap()
        );
    }

    #[test]
    fn pinned_view_is_consistent_across_publishes() {
        let mut writer = seeded();
        let fresh = writer.reader("kb");
        let pinned = fresh.pinned();
        let v = pinned.snapshot_version();

        writer
            .store_mut()
            .insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:d"));
        writer.publish();

        // The fresh endpoint follows the publish; the pinned view answers
        // every query kind from its original snapshot.
        assert_eq!(
            fresh.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(),
            3
        );
        assert_eq!(
            pinned.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(),
            2
        );
        assert_eq!(pinned.snapshot_version(), v);
        let probe = Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
        let new_fact = [Term::iri("e:a"), Term::iri("r:p"), Term::iri("e:d")];
        assert!(fresh.ask_prepared(&probe, &new_fact).unwrap());
        assert!(!pinned.ask_prepared(&probe, &new_fact).unwrap());
        // Dependent count → page sequence agrees with itself on the pin.
        let objects =
            Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let args = [Term::iri("e:a"), Term::iri("r:p")];
        let all = pinned.select_prepared(&objects, &args).unwrap();
        let page = pinned
            .select_prepared_paged(&objects, &args, Some(1), Some(1))
            .unwrap();
        assert_eq!(page.rows()[0], all.rows()[1]);
    }

    /// The acceptance differential: a `Batch` answers exactly what the
    /// same requests answer when issued sequentially (against a quiesced
    /// store), across every request variant.
    #[test]
    fn batch_matches_sequential_execution() {
        let mut store = TripleStore::new();
        for i in 0..30 {
            store.insert_terms(
                &Term::iri(format!("e:s{}", i % 7)),
                &Term::iri(format!("r:p{}", i % 3)),
                &Term::iri(format!("e:o{i}")),
            );
        }
        let writer = SnapshotStore::new(store);
        let ep = writer.reader("kb");

        let objects =
            Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let probe = Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
        let count = Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s ?r ?o }", &["r"]).unwrap();
        let args = [Term::iri("e:s1"), Term::iri("r:p1")];
        let probe_args = [Term::iri("e:s1"), Term::iri("r:p1"), Term::iri("e:o1")];
        let count_args = [Term::iri("r:p1")];
        let requests = || {
            vec![
                Request::Select {
                    query: "SELECT ?s ?o { ?s <r:p1> ?o } ORDER BY ?s ?o",
                },
                Request::Ask {
                    query: "ASK { <e:s1> <r:p1> ?o }",
                },
                Request::PreparedSelect {
                    prepared: &objects,
                    args: &args,
                },
                Request::PreparedAsk {
                    prepared: &probe,
                    args: &probe_args,
                },
                Request::PreparedSelectPaged {
                    prepared: &objects,
                    args: &args,
                    limit: Some(2),
                    offset: Some(1),
                },
                Request::PreparedSelect {
                    prepared: &count,
                    args: &count_args,
                },
            ]
        };
        let batched = ep.execute_batch(requests()).unwrap();
        let sequential: Vec<Response> = requests()
            .into_iter()
            .map(|req| ep.execute(req).unwrap())
            .collect();
        assert_eq!(batched, sequential);
        // Nested batches flatten to the same per-leaf responses.
        let nested = ep
            .execute(Request::Batch(vec![Request::Batch(requests())]))
            .unwrap();
        assert_eq!(nested, Response::Batch(vec![Response::Batch(sequential)]));
    }

    /// A batch straddling publishes stays on one snapshot: dependent
    /// count → page sub-requests agree with each other even though a
    /// sequentially-issued pair would straddle the version bump.
    #[test]
    fn batch_is_pinned_to_one_snapshot() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        let count =
            Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s ?r ?o }", &["s", "r"]).unwrap();
        let args = [Term::iri("e:a"), Term::iri("r:p")];
        let batch_count = || {
            let request = Request::PreparedSelect {
                prepared: &count,
                args: &args,
            };
            let counts: Vec<i64> = ep
                .execute_batch(vec![request.clone(), request])
                .unwrap()
                .into_iter()
                .map(|r| r.into_rows().unwrap().single_integer().unwrap())
                .collect();
            (counts[0], counts[1])
        };
        assert_eq!(batch_count(), (2, 2));
        writer
            .store_mut()
            .insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:d"));
        writer.publish();
        // Both sub-counts see the same (new) state.
        assert_eq!(batch_count(), (3, 3));
    }

    #[test]
    fn count_requests_match_count_star_queries() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        let count =
            Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s ?r ?o }", &["s", "r"]).unwrap();
        let args = [Term::iri("e:a"), Term::iri("r:p")];
        let prepared = || {
            ep.select_prepared(&count, &args)
                .unwrap()
                .single_integer()
                .unwrap()
        };
        let oracle = ep
            .select("SELECT (COUNT(*) AS ?n) { <e:a> <r:p> ?o }")
            .unwrap()
            .single_integer()
            .unwrap();
        assert_eq!(oracle, 2);
        assert_eq!(prepared(), oracle);
        writer.publish();
        assert_eq!(prepared(), oracle);
    }

    #[test]
    fn clones_share_cache_and_cell() {
        let mut writer = seeded();
        let a = writer.reader("kb");
        let b = a.clone();
        a.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap();
        assert_eq!(b.plan_cache_len(), 1);
        writer.publish();
        assert_eq!(a.snapshot_version(), b.snapshot_version());
    }

    #[test]
    fn in_flight_snapshot_survives_publish() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        let pinned = ep.current();
        let p = pinned.snapshot().dict().lookup_iri("r:p").unwrap();
        writer
            .store_mut()
            .insert_terms(&Term::iri("e:x"), &Term::iri("r:p"), &Term::iri("e:y"));
        writer.publish();
        // The pinned snapshot still answers with its own state.
        assert_eq!(pinned.snapshot().count_pattern(TriplePattern::with_p(p)), 2);
        assert_eq!(
            ep.current()
                .snapshot()
                .count_pattern(TriplePattern::with_p(p)),
            3
        );
    }

    /// A publish with no write since the previous one must
    /// not bump the epoch, swap the snapshot `Arc`, or invalidate
    /// version-stamped cached plans.
    #[test]
    fn noop_publish_keeps_snapshot_epoch_and_plans() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        assert_eq!(ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(), 2);
        assert_eq!(ep.plan_cache_len(), 1);

        let before = writer.current();
        let delta = writer.publish();
        assert!(delta.is_noop());
        assert!(delta.is_empty());
        assert_eq!(delta.epoch, before.version());
        assert!(
            Arc::ptr_eq(&before, &writer.current()),
            "no-op publish must leave the published Arc in place"
        );
        assert_eq!(writer.delta_log().len(), 0, "no-op deltas are not logged");

        // The cached plan is still valid (same version stamp) and the
        // reader still answers correctly.
        assert_eq!(ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(), 2);
        assert_eq!(ep.plan_cache_len(), 1);

        // A real mutation still publishes as before.
        writer
            .store_mut()
            .insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:d"));
        let delta = writer.publish();
        assert!(!delta.is_noop());
        assert!(delta.epoch > delta.prev_epoch);
        assert_eq!(delta.prev_epoch, before.version());
        assert_eq!(ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len(), 3);
    }

    /// The terms `ids` name in the writer's published dictionary.
    fn resolved(writer: &SnapshotStore, ids: &[TermId]) -> Vec<Term> {
        let published = writer.current();
        let dict = published.snapshot().dict();
        ids.iter().map(|&id| dict.resolve(id).clone()).collect()
    }

    /// The delta feed reports exactly the predicates/terms touched since
    /// the previous epoch, and the ring replays a lagging subscriber's
    /// gap in order.
    #[test]
    fn publish_delta_reports_touched_predicates_and_terms() {
        let mut writer = seeded();
        let base_epoch = writer.current().version();

        writer
            .store_mut()
            .insert_terms(&Term::iri("e:x"), &Term::iri("r:q"), &Term::iri("e:y"));
        let d1 = writer.publish();
        assert_eq!(d1.prev_epoch, base_epoch);
        assert_eq!(resolved(&writer, &d1.predicates), vec![Term::iri("r:q")]);
        assert_eq!(
            resolved(&writer, &d1.terms),
            vec![Term::iri("e:x"), Term::iri("e:y")]
        );

        // A removal names the same predicate and terms.
        {
            let store = writer.store_mut();
            let (x, q, y) = (
                store.dict().lookup_iri("e:x").unwrap(),
                store.dict().lookup_iri("r:q").unwrap(),
                store.dict().lookup_iri("e:y").unwrap(),
            );
            assert!(store.remove(x, q, y));
        }
        let d2 = writer.publish();
        assert_eq!((&d2.predicates, &d2.terms), (&d1.predicates, &d1.terms));
        assert_eq!(d2.prev_epoch, d1.epoch);

        // A subscriber at the base epoch replays both deltas in order.
        match writer.delta_log().deltas_since(base_epoch) {
            crate::delta::CatchUp::Deltas(ds) => {
                assert_eq!(
                    ds.iter().map(|d| d.epoch).collect::<Vec<_>>(),
                    vec![d1.epoch, d2.epoch]
                );
            }
            other => panic!("expected a replayable gap, got {other:?}"),
        }
        assert_eq!(writer.freshness().last_publish_epoch(), d2.epoch);
    }

    /// A write that lands after the snapshot was taken is not what the
    /// installed snapshot changed: it shows up in the next publish.
    #[test]
    fn a_write_between_snapshot_and_install_belongs_to_the_next_publish() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        let store = writer.store_mut();
        store.insert_terms(&Term::iri("e:x"), &Term::iri("r:q"), &Term::iri("e:y"));
        let snapshot = store.snapshot();
        store.insert_terms(&Term::iri("e:z"), &Term::iri("r:z"), &Term::iri("e:w"));

        let installed = writer.install(snapshot);
        assert_eq!(
            resolved(&writer, &installed.predicates),
            vec![Term::iri("r:q")]
        );
        assert_eq!(
            resolved(&writer, &installed.terms),
            vec![Term::iri("e:x"), Term::iri("e:y")]
        );
        assert_eq!(ep.select("SELECT ?s { ?s ?p ?o }").unwrap().len(), 3);

        let next = writer.publish();
        assert_eq!(next.prev_epoch, installed.epoch);
        assert_eq!(resolved(&writer, &next.predicates), vec![Term::iri("r:z")]);
        assert_eq!(
            resolved(&writer, &next.terms),
            vec![Term::iri("e:z"), Term::iri("e:w")]
        );
        assert_eq!(ep.select("SELECT ?s { ?s ?p ?o }").unwrap().len(), 4);
    }

    /// A publish reports its net change: an insert and a remove of the
    /// same triple cancel, and the delta names nothing.
    #[test]
    fn writes_that_cancel_within_a_publish_change_nothing() {
        let mut writer = seeded();
        let store = writer.store_mut();
        let (s, p, o) = (Term::iri("e:x"), Term::iri("r:q"), Term::iri("e:y"));
        assert!(store.insert_terms(&s, &p, &o));
        let ids = (store.intern(&s), store.intern(&p), store.intern(&o));
        assert!(store.remove(ids.0, ids.1, ids.2));
        let delta = writer.publish();
        assert!(!delta.is_noop());
        assert!(delta.is_empty(), "{delta:?}");
    }

    #[test]
    fn concurrent_readers_during_publishes_smoke() {
        let mut writer = seeded();
        let ep = writer.reader("kb");
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let ep = ep.clone();
                    scope.spawn(move || {
                        let mut last = 0usize;
                        for _ in 0..200 {
                            let n = ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap().len();
                            // Monotone growth: the writer only adds facts.
                            assert!(n >= last, "snapshot went backwards: {n} < {last}");
                            last = n;
                        }
                        last
                    })
                })
                .collect();
            for i in 0..50 {
                writer.store_mut().insert_terms(
                    &Term::iri("e:a"),
                    &Term::iri("r:p"),
                    &Term::iri(format!("e:new{i}")),
                );
                writer.publish();
            }
            for r in readers {
                assert!(r.join().unwrap() >= 2);
            }
        });
    }
}
