//! Property: a budget kill is all-or-nothing and leaves no residue.
//!
//! For random stores, random join queries, and random (often absurdly
//! tight) budgets:
//!
//! * the budgeted run either returns **exactly** the unbudgeted result
//!   or fails with the typed `BudgetExceeded`/`DeadlineExceeded` class —
//!   never a silently truncated row set;
//! * after a kill, the same endpoint (same snapshot, same shared plan
//!   cache that the failed run may have populated) answers the next
//!   unbudgeted run of the query identically to a fresh endpoint — a
//!   kill cannot poison cached plans or published snapshots.

use proptest::prelude::*;
use sofya_endpoint::{
    Endpoint, EndpointError, EndpointExt, LocalEndpoint, Request, Response, SnapshotStore,
};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{CancelToken, QueryBudget};
use std::sync::Arc;

const ENTITIES: u32 = 6;
const PREDICATES: u32 = 3;

fn build_store(facts: &[(u32, u32, u32)]) -> TripleStore {
    let mut store = TripleStore::new();
    for &(s, p, o) in facts {
        store.insert_terms(
            &Term::iri(format!("e{s}")),
            &Term::iri(format!("p{p}")),
            &Term::iri(format!("e{o}")),
        );
    }
    store
}

/// A random join: each pattern either chains on the previous variable
/// (`?vN <p> ?vN+1`) or is fully unconstrained (a cross join, the
/// budget-hostile shape).
fn query_text(shape: &[(bool, u32)]) -> String {
    let patterns: Vec<String> = shape
        .iter()
        .enumerate()
        .map(|(i, &(chained, pred))| {
            if chained {
                format!("?v{i} <p{pred}> ?v{}", i + 1)
            } else {
                format!("?x{i} ?q{i} ?y{i}")
            }
        })
        .collect();
    format!("SELECT ?v0 WHERE {{ {} }}", patterns.join(" . "))
}

fn is_budget_kill(e: &EndpointError) -> bool {
    matches!(
        e,
        EndpointError::BudgetExceeded { .. } | EndpointError::DeadlineExceeded { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn budget_kills_are_all_or_nothing_and_leave_no_residue(
        facts in proptest::collection::vec(
            (0..ENTITIES, 0..PREDICATES, 0..ENTITIES), 1..30),
        shape in proptest::collection::vec(
            ((0u32..2).prop_map(|b| b == 1), 0..PREDICATES), 1..4),
        max_rows in 0u64..40,
        max_bindings in prop_oneof![Just(None), (0usize..25).prop_map(Some)],
    ) {
        let query = query_text(&shape);
        let snapshot = SnapshotStore::new(build_store(&facts));
        let reader = snapshot.reader("kb");

        // Ground truth from a plain local endpoint on the same data.
        let expected = LocalEndpoint::new("fresh", build_store(&facts))
            .select(&query)
            .expect("unbudgeted evaluation succeeds");

        let select = |budget: &QueryBudget| {
            reader
                .execute_with_budget(Request::Select { query: &query }, budget)
                .and_then(Response::into_rows)
        };
        let caps = QueryBudget {
            max_rows_scanned: Some(max_rows),
            max_bindings,
            ..QueryBudget::unlimited()
        };
        match select(&caps) {
            // Within budget: the answer must be the whole answer.
            Ok(rows) => prop_assert_eq!(&rows, &expected),
            // Killed: typed, never a truncated Ok.
            Err(e) => prop_assert!(is_budget_kill(&e), "untyped kill: {e:?}"),
        }

        // The kill (if any) left nothing behind: the same endpoint —
        // same snapshot, same plan cache the failed run warmed — gives
        // the full answer on the next, unbudgeted query.
        let after = reader.select(&query).expect("endpoint survives the kill");
        prop_assert_eq!(&after, &expected);

        // A tripped token kills the query, and the next unbudgeted run on
        // the same reader gives the identical answer.
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let err = select(&QueryBudget::unlimited().with_cancel(token)).expect_err("cancelled");
        prop_assert!(is_budget_kill(&err), "untyped cancel: {err:?}");
        prop_assert_eq!(&reader.select(&query).unwrap(), &expected);
    }
}
