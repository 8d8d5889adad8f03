//! Execution fragments of the in-process core: mapping the
//! engine's [`QueryOutcome`] into the typed [`Response`], and the
//! `COUNT(*)` rewrite behind [`crate::Request::Count`].

use crate::endpoint::{count_of_ask_error, Response};
use crate::error::EndpointError;
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{
    execute_select_budgeted, PlanOptions, Prepared, Projection, Query, QueryBudget, QueryOutcome,
    SelectQuery,
};

/// The typed response for an engine outcome: `SELECT` rows become
/// [`Response::Rows`], `ASK` answers become [`Response::Boolean`]. Shape
/// checking against what the *caller* expected happens when the response
/// is destructured (see [`Response::into_rows`] and friends).
pub(crate) fn response_of(outcome: QueryOutcome) -> Response {
    match outcome {
        QueryOutcome::Solutions(rs) => Response::Rows(rs),
        QueryOutcome::Boolean(b) => Response::Boolean(b),
    }
}

/// The **single definition** of [`crate::Request::Count`] semantics:
/// bind the template, swap its projection for `COUNT(*)`, and strip the
/// solution modifiers. Both the in-process execution path
/// ([`execute_count`]) and the string rendering
/// ([`crate::Request::to_sparql`], which also keys the caching wrapper)
/// go through this rewrite, so they can never drift apart.
pub(crate) fn count_rewrite(
    prepared: &Prepared,
    args: &[Term],
) -> Result<SelectQuery, EndpointError> {
    match prepared.bind(args)? {
        Query::Select(mut select) => {
            select.projection = Projection::Count {
                var: None,
                distinct: false,
                alias: "n".to_owned(),
            };
            select.distinct = false;
            select.order_by.clear();
            select.limit = None;
            select.offset = None;
            Ok(select)
        }
        Query::Ask(_) => Err(count_of_ask_error()),
    }
}

/// Executes a [`crate::Request::Count`] against an in-process store via
/// [`count_rewrite`]. A bare single-pattern template then
/// short-circuits through the planner's `count_pattern` index bounds —
/// no join, no row materialization — and multi-pattern templates count
/// bindings at the interned-id level without ever resolving a term,
/// ticking `budget` per scanned row like any other query.
pub(crate) fn execute_count(
    store: &TripleStore,
    prepared: &Prepared,
    args: &[Term],
    opts: PlanOptions<'_>,
    budget: &QueryBudget,
) -> Result<u64, EndpointError> {
    let select = count_rewrite(prepared, args)?;
    let rs = execute_select_budgeted(store, &select, opts, budget)?;
    Ok(rs.single_integer().unwrap_or(0).max(0) as u64)
}
