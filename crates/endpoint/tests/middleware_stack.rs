//! Property test: the instrumentation wrapper is transparent and exact.
//!
//! The typed request pipeline's core claim is that a wrapper intercepts
//! one method and therefore covers every query shape, with or without a
//! budget. This test puts `InstrumentedEndpoint`, the one wrapper, over
//! each in-process backend — a `LocalEndpoint` of its own, the live
//! `SnapshotStore::reader`, and a view pinned from it — and fires a
//! random request sequence (string, prepared, paged, count, and batch
//! shapes — including batches nested inside batches), unbudgeted and
//! under a generous finite budget: the responses must be identical to
//! the bare endpoint's, and the counters must equal the issued traffic
//! exactly. A second, exhaustive test holds the other half of the claim:
//! no wrapper can drop a caller's budget, or change the class a kill by
//! it comes back as.

use proptest::prelude::*;
use sofya_endpoint::{
    Endpoint, EndpointError, InstrumentedEndpoint, LocalEndpoint, Request, Response, SnapshotStore,
};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{CancelToken, Prepared, QueryBudget};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const SUBJECTS: u8 = 5;
const PREDICATES: u8 = 3;

fn store() -> TripleStore {
    let mut store = TripleStore::new();
    for i in 0..30u32 {
        store.insert_terms(
            &Term::iri(format!("e:s{}", i % SUBJECTS as u32)),
            &Term::iri(format!("r:p{}", i % PREDICATES as u32)),
            &Term::iri(format!("e:o{}", i % 11)),
        );
    }
    store
}

fn objects_template() -> &'static Prepared {
    static Q: OnceLock<Prepared> = OnceLock::new();
    Q.get_or_init(|| {
        Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap()
    })
}

fn probe_template() -> &'static Prepared {
    static Q: OnceLock<Prepared> = OnceLock::new();
    Q.get_or_init(|| Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap())
}

fn count_template() -> &'static Prepared {
    static Q: OnceLock<Prepared> = OnceLock::new();
    Q.get_or_init(|| Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s ?r ?o }", &["r"]).unwrap())
}

const OBJECTS: u8 = 11;

/// Every query text and argument list a [`Spec`] can name, built once,
/// so a spec's request borrows them for good: texts and `(s, p)` pairs
/// by `s * PREDICATES + p`, `(s, p, o)` triples by `pair * OBJECTS + o`.
struct Names {
    selects: Vec<String>,
    asks: Vec<String>,
    pairs: Vec<[Term; 2]>,
    triples: Vec<[Term; 3]>,
    predicates: Vec<[Term; 1]>,
}

fn names() -> &'static Names {
    static N: OnceLock<Names> = OnceLock::new();
    N.get_or_init(|| {
        let [s, p, o] = [("e:s", SUBJECTS), ("r:p", PREDICATES), ("e:o", OBJECTS)]
            .map(|(prefix, n)| (0..n).map(|i| format!("{prefix}{i}")).collect::<Vec<_>>());
        let pairs: Vec<(&String, &String)> = s
            .iter()
            .flat_map(|s| p.iter().map(move |p| (s, p)))
            .collect();
        Names {
            selects: (pairs.iter())
                .map(|(s, p)| format!("SELECT ?o {{ <{s}> <{p}> ?o }} ORDER BY ?o"))
                .collect(),
            asks: (pairs.iter())
                .map(|(s, p)| format!("ASK {{ <{s}> <{p}> ?o }}"))
                .collect(),
            triples: (pairs.iter())
                .flat_map(|(s, p)| o.iter().map(move |o| [*s, *p, o].map(Term::iri)))
                .collect(),
            pairs: pairs.iter().map(|(s, p)| [*s, *p].map(Term::iri)).collect(),
            predicates: p.iter().map(|p| [Term::iri(p)]).collect(),
        }
    })
}

/// A generatable request description; materialized into a [`Request`]
/// at execution time (requests borrow templates and argument slices).
#[derive(Debug, Clone)]
enum Spec {
    Select(u8, u8),
    Ask(u8, u8),
    PreparedSelect(u8, u8),
    PreparedAsk(u8, u8, u8),
    Paged(u8, u8, u8, u8),
    Count(u8),
    Batch(Vec<Spec>),
}

impl Spec {
    fn leaves(&self) -> u64 {
        match self {
            Spec::Batch(subs) => subs.iter().map(Spec::leaves).sum(),
            _ => 1,
        }
    }

    /// Number of batch nodes at any depth (the instrumentation counts
    /// each nesting level once).
    fn batches(&self) -> u64 {
        match self {
            Spec::Batch(subs) => 1 + subs.iter().map(Spec::batches).sum::<u64>(),
            _ => 0,
        }
    }

    /// This spec as a request; nesting in the spec carries straight
    /// through to nested batches.
    fn request(&self) -> Request<'static> {
        let n = names();
        let pair = |s: &u8, p: &u8| usize::from(*s) * usize::from(PREDICATES) + usize::from(*p);
        match self {
            Spec::Select(s, p) => Request::Select {
                query: &n.selects[pair(s, p)],
            },
            Spec::Ask(s, p) => Request::Ask {
                query: &n.asks[pair(s, p)],
            },
            Spec::PreparedSelect(s, p) => Request::PreparedSelect {
                prepared: objects_template(),
                args: &n.pairs[pair(s, p)],
            },
            Spec::PreparedAsk(s, p, o) => Request::PreparedAsk {
                prepared: probe_template(),
                args: &n.triples[pair(s, p) * usize::from(OBJECTS) + usize::from(*o)],
            },
            Spec::Paged(s, p, limit, offset) => Request::PreparedSelectPaged {
                prepared: objects_template(),
                args: &n.pairs[pair(s, p)],
                limit: Some(usize::from(*limit)),
                offset: Some(usize::from(*offset)),
            },
            Spec::Count(p) => Request::PreparedSelect {
                prepared: count_template(),
                args: &n.predicates[usize::from(*p)],
            },
            Spec::Batch(subs) => Request::Batch(subs.iter().map(Spec::request).collect()),
        }
    }

    /// Executes this spec against `ep`, materializing the request.
    fn run(&self, ep: &dyn Endpoint) -> Result<Response, EndpointError> {
        ep.execute(self.request())
    }

    /// [`Spec::run`] under a budget.
    fn run_budgeted(
        &self,
        ep: &dyn Endpoint,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        ep.execute_with_budget(self.request(), budget)
    }
}

/// A finite budget no generated request comes near: every limit is set,
/// so the evaluator's tracker is on, and none can trip.
fn generous_budget() -> QueryBudget {
    QueryBudget::unlimited()
        .with_time_limit(Duration::from_secs(3600))
        .with_max_rows_scanned(1_000_000)
        .with_max_bindings(1_000_000)
}

/// The three in-process backends over one store: an endpoint that
/// published it itself, the live reader of a `SnapshotStore`, and a view
/// pinned from that reader.
fn backends(store: &TripleStore) -> [Arc<dyn Endpoint>; 3] {
    let reader = SnapshotStore::new(store.clone()).reader("kb");
    [
        Arc::new(LocalEndpoint::new("kb", store.clone())),
        Arc::new(reader.pinned()),
        Arc::new(reader),
    ]
}

fn leaf_spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (0..SUBJECTS, 0..PREDICATES).prop_map(|(s, p)| Spec::Select(s, p)),
        (0..SUBJECTS, 0..PREDICATES).prop_map(|(s, p)| Spec::Ask(s, p)),
        (0..SUBJECTS, 0..PREDICATES).prop_map(|(s, p)| Spec::PreparedSelect(s, p)),
        (0..SUBJECTS, 0..PREDICATES, 0..OBJECTS).prop_map(|(s, p, o)| Spec::PreparedAsk(s, p, o)),
        (0..SUBJECTS, 0..PREDICATES, 0..4u8, 0..4u8)
            .prop_map(|(s, p, l, o)| Spec::Paged(s, p, l, o)),
        (0..PREDICATES).prop_map(Spec::Count),
    ]
}

/// A batch element: usually a leaf, sometimes a nested batch — so the
/// generated traffic exercises batches inside batches.
fn batch_item() -> impl Strategy<Value = Spec> {
    prop_oneof![
        leaf_spec(),
        leaf_spec(),
        leaf_spec(),
        proptest::collection::vec(leaf_spec(), 1..4).prop_map(Spec::Batch),
    ]
}

fn spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        leaf_spec(),
        leaf_spec(),
        leaf_spec(),
        proptest::collection::vec(batch_item(), 1..5).prop_map(Spec::Batch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Instrumentation over any backend yields bare-endpoint responses,
    /// budgeted or not, and its counters are exactly the issued traffic.
    #[test]
    fn stacked_wrappers_match_bare_endpoint(
        backend in 0usize..3,
        specs in proptest::collection::vec(spec(), 1..24),
    ) {
        let store = store();
        let bare = LocalEndpoint::new("kb", store.clone());
        let backends = backends(&store);
        let budget = generous_budget();
        let instrumented = InstrumentedEndpoint::new(Arc::clone(&backends[backend]));
        let counters = instrumented.counters();

        let mut issued_leaves = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let want = spec.run(&bare).expect("bare endpoint answers");
            // The one execution path: every backend, with the budget
            // tracker off and on, answers what the bare endpoint does.
            for (b, ep) in backends.iter().enumerate() {
                let plain = spec.run(&**ep).expect("backend answers");
                prop_assert_eq!(&plain, &want, "backend {}, spec {:?}", b, spec);
                let budgeted = spec.run_budgeted(&**ep, &budget).expect("budget is generous");
                prop_assert_eq!(&budgeted, &want, "budgeted backend {}, spec {:?}", b, spec);
            }
            // The wrapper sees each spec once (the counters below depend
            // on it), alternately unbudgeted and budgeted.
            let got = if i % 2 == 0 {
                spec.run(&instrumented)
            } else {
                spec.run_budgeted(&instrumented, &budget)
            }
            .expect("instrumented endpoint answers");
            prop_assert_eq!(&got, &want, "instrumented backend {}, spec {:?}", backend, spec);
            issued_leaves += spec.leaves();
        }

        prop_assert_eq!(counters.requests(), specs.len() as u64);
        let largest = specs.iter().map(Spec::leaves).max().unwrap_or(0);
        prop_assert_eq!(counters.largest_request(), largest);
        prop_assert_eq!(counters.total_queries(), issued_leaves);
        // Nested batches count once per nesting level.
        let expected_batches: u64 = specs.iter().map(Spec::batches).sum();
        prop_assert_eq!(counters.batches(), expected_batches);
        let expected_expanded: u64 = specs
            .iter()
            .filter(|s| matches!(s, Spec::Batch(_)))
            .map(Spec::leaves)
            .sum();
        prop_assert_eq!(counters.batch_expanded(), expected_expanded);
    }
}

/// A middleware layer written against the trait as it is: one method.
struct OneMethod(Arc<dyn Endpoint>);

impl Endpoint for OneMethod {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.0.execute_with_budget(req, budget)
    }
}

/// No wrapper can drop a budget: a one-row scan cap passed by the
/// caller reaches the evaluator bare, through `InstrumentedEndpoint`, and
/// through a one-method wrapper over it, over the fixed and the live
/// backend alike — all 3 × 2 combinations, not a sample. (When `execute`
/// was the required method, `OneMethod` could only have implemented that,
/// and the provided budgeted method ran the query to completion.)
///
/// Nor does the class of a kill depend on the wrapping: every one fails a
/// scan past the cap as `BudgetExceeded` and an expired or cancelled
/// query as `DeadlineExceeded`.
#[test]
fn no_wrapper_order_drops_the_callers_budget() {
    let store = store();
    let cap = QueryBudget::unlimited().with_max_rows_scanned(1);
    let tripped = Arc::new(CancelToken::new());
    tripped.cancel();
    // (the caller's budget, whether its kill is of the deadline class)
    let by_hand = [
        (cap.clone(), false),
        (
            QueryBudget::unlimited().with_time_limit(Duration::ZERO),
            true,
        ),
        (QueryBudget::unlimited().with_cancel(tripped), true),
    ];
    // Five subjects carry `r:p0`: the scan passes one row.
    let scan = Request::Select {
        query: "SELECT ?s ?o { ?s <r:p0> ?o }",
    };
    let [fixed, _, live] = backends(&store);
    for (b, backend) in [("fixed", fixed), ("live", live)] {
        let instrumented: Arc<dyn Endpoint> = Arc::new(InstrumentedEndpoint::new(backend.clone()));
        let stacks: [(&str, Arc<dyn Endpoint>); 3] = [
            ("bare", backend),
            ("Instrumented", Arc::clone(&instrumented)),
            ("OneMethod(Instrumented)", Arc::new(OneMethod(instrumented))),
        ];
        for (name, stack) in stacks {
            for (budget, deadline_class) in &by_hand {
                let err = stack
                    .execute_with_budget(scan.clone(), budget)
                    .expect_err("a query over its budget must be killed");
                let typed = match &err {
                    EndpointError::DeadlineExceeded { .. } => *deadline_class,
                    EndpointError::BudgetExceeded { .. } => !*deadline_class,
                    _ => false,
                };
                assert!(typed, "{name} over the {b} backend, {budget:?}: {err:?}");
            }
            // The stack itself is healthy: an index-resolved probe
            // scans nothing and answers.
            let ask = Request::Ask {
                query: "ASK { <e:s0> <r:p0> <e:o0> }",
            };
            let probe = stack.execute_with_budget(ask, &cap);
            assert_eq!(
                probe,
                Ok(Response::Boolean(true)),
                "{name} over the {b} backend"
            );
        }
    }
}
