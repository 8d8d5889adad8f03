//! Query evaluation: index nested-loop joins over the planned BGP.

use crate::ast::{Builtin, Projection, Query, SelectQuery};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::error::SparqlError;
use crate::parser::parse_query;
use crate::plan::{GroupPlan, PExpr, PlanOptions, Slot};
use crate::solution::ResultSet;
use crate::value::Value;
use sofya_rdf::{Term, TermId, TriplePattern, TripleStore};

/// The outcome of executing an arbitrary query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Rows from a `SELECT`.
    Solutions(ResultSet),
    /// Answer of an `ASK`.
    Boolean(bool),
}

/// Parses and executes any supported query.
pub fn execute_query(store: &TripleStore, query: &str) -> Result<QueryOutcome, SparqlError> {
    execute_with_options(store, query, PlanOptions::default())
}

/// Parses and executes any supported query with explicit [`PlanOptions`]
/// (statistics-driven join ordering, or written-order evaluation).
pub fn execute_with_options(
    store: &TripleStore,
    query: &str,
    opts: PlanOptions<'_>,
) -> Result<QueryOutcome, SparqlError> {
    execute_ast_budgeted(store, &parse_query(query)?, opts, &QueryBudget::unlimited())
}

/// Executes an already-parsed query (the fast path for prepared queries:
/// no tokenizing, no parsing).
pub fn execute_ast(store: &TripleStore, query: &Query) -> Result<QueryOutcome, SparqlError> {
    execute_ast_budgeted(
        store,
        query,
        PlanOptions::default(),
        &QueryBudget::unlimited(),
    )
}

/// Executes an already-parsed query under a [`QueryBudget`]: the
/// evaluator cooperatively checks the budget as it scans, so a cancelled
/// or expired query unwinds with [`SparqlError::Budget`] in bounded time
/// instead of running to completion.
pub fn execute_ast_budgeted(
    store: &TripleStore,
    query: &Query,
    opts: PlanOptions<'_>,
    budget: &QueryBudget,
) -> Result<QueryOutcome, SparqlError> {
    let mut tracker = BudgetTracker::new(budget);
    tracker.preflight()?;
    match query {
        Query::Select(select) => {
            let plan = GroupPlan::build_with(store, &select.pattern, &[], opts);
            Ok(QueryOutcome::Solutions(execute_select_planned_paged(
                store,
                select,
                &plan,
                None,
                None,
                &mut tracker,
            )?))
        }
        Query::Ask(pattern) => {
            let plan = GroupPlan::build_with(store, pattern, &[], opts);
            Ok(QueryOutcome::Boolean(execute_ask_planned(
                store,
                &plan,
                &mut tracker,
            )?))
        }
    }
}

/// A query compiled against one concrete (immutable) store: parsed once,
/// planned once. Re-executing skips both stages — the backing for
/// endpoint-level plan caches.
///
/// The embedded plan holds dictionary ids of *that* store; executing it
/// against a store whose dictionary differs yields garbage, so keep one
/// cache per store (the `LocalEndpoint` wrapper does).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    inner: CompiledInner,
}

#[derive(Debug, Clone)]
enum CompiledInner {
    Select {
        query: Box<SelectQuery>,
        plan: GroupPlan,
    },
    Ask {
        plan: GroupPlan,
    },
}

/// Parses and plans `query` against `store` for repeated execution via
/// [`execute_compiled`].
pub fn compile_with_options(
    store: &TripleStore,
    query: &str,
    opts: PlanOptions<'_>,
) -> Result<CompiledQuery, SparqlError> {
    let inner = match parse_query(query)? {
        Query::Select(select) => CompiledInner::Select {
            plan: GroupPlan::build_with(store, &select.pattern, &[], opts),
            query: Box::new(select),
        },
        Query::Ask(pattern) => CompiledInner::Ask {
            plan: GroupPlan::build_with(store, &pattern, &[], opts),
        },
    };
    Ok(CompiledQuery { inner })
}

/// Plans an already-parsed (e.g. prepared-and-bound) query for repeated
/// execution. This is the backing for endpoint-level *prepared* plan
/// caches: the join order of a bound template does not depend on
/// `LIMIT`/`OFFSET`, so one compilation serves every page via
/// [`execute_compiled_paged_budgeted`].
pub fn compile_ast_with_options(
    store: &TripleStore,
    query: &Query,
    opts: PlanOptions<'_>,
) -> CompiledQuery {
    let inner = match query {
        Query::Select(select) => CompiledInner::Select {
            plan: GroupPlan::build_with(store, &select.pattern, &[], opts),
            query: Box::new(select.clone()),
        },
        Query::Ask(pattern) => CompiledInner::Ask {
            plan: GroupPlan::build_with(store, pattern, &[], opts),
        },
    };
    CompiledQuery { inner }
}

/// Executes a compiled query against the store it was compiled for.
pub fn execute_compiled(
    store: &TripleStore,
    compiled: &CompiledQuery,
) -> Result<QueryOutcome, SparqlError> {
    execute_compiled_paged_budgeted(store, compiled, None, None, &QueryBudget::unlimited())
}

/// Executes a compiled query under a [`QueryBudget`] (see
/// [`execute_ast_budgeted`]) with a structural `LIMIT`/`OFFSET` override
/// (`None` keeps the compiled query's own modifier). The pagination of a
/// solution sequence never changes the plan, so cached compilations are
/// shared across all pages of a shape.
pub fn execute_compiled_paged_budgeted(
    store: &TripleStore,
    compiled: &CompiledQuery,
    limit: Option<usize>,
    offset: Option<usize>,
    budget: &QueryBudget,
) -> Result<QueryOutcome, SparqlError> {
    let mut tracker = BudgetTracker::new(budget);
    tracker.preflight()?;
    match &compiled.inner {
        CompiledInner::Select { query, plan } => Ok(QueryOutcome::Solutions(
            execute_select_planned_paged(store, query, plan, limit, offset, &mut tracker)?,
        )),
        CompiledInner::Ask { plan } => {
            if limit.is_some() || offset.is_some() {
                return Err(SparqlError::eval(
                    "LIMIT/OFFSET cannot be applied to an ASK query",
                ));
            }
            Ok(QueryOutcome::Boolean(execute_ask_planned(
                store,
                plan,
                &mut tracker,
            )?))
        }
    }
}

/// Executes a planned ASK: a bare pattern set resolves through the flat
/// indexes without running the join at all (non-emptiness of the prefix
/// range).
fn execute_ask_planned(
    store: &TripleStore,
    plan: &GroupPlan,
    t: &mut BudgetTracker<'_>,
) -> Result<bool, SparqlError> {
    if let Some(n) = exact_pattern_count(store, plan) {
        return Ok(n > 0);
    }
    any_solution(store, plan, None, t)
}

/// Parses and executes a `SELECT` query.
pub fn execute(store: &TripleStore, query: &str) -> Result<ResultSet, SparqlError> {
    match execute_query(store, query)? {
        QueryOutcome::Solutions(rs) => Ok(rs),
        QueryOutcome::Boolean(_) => Err(SparqlError::eval("expected a SELECT query, found ASK")),
    }
}

/// Parses and executes an `ASK` query.
pub fn execute_ask(store: &TripleStore, query: &str) -> Result<bool, SparqlError> {
    match execute_query(store, query)? {
        QueryOutcome::Boolean(b) => Ok(b),
        QueryOutcome::Solutions(_) => Err(SparqlError::eval("expected an ASK query, found SELECT")),
    }
}

/// The exact row count of `plan`, when it can be read straight off the
/// store's indexes: no filters or sub-groups, and at most one triple
/// pattern whose variables are all distinct. `None` when the plan needs
/// the full join machinery. The empty pattern set contributes the single
/// empty solution μ0.
fn exact_pattern_count(store: &TripleStore, plan: &GroupPlan) -> Option<usize> {
    if plan.has_subgroups() || plan.filters_at.iter().any(|f| !f.is_empty()) {
        return None;
    }
    match plan.patterns.len() {
        0 => Some(1),
        1 => {
            let p = &plan.patterns[0];
            if p.is_unsatisfiable() {
                return Some(0);
            }
            // Repeated variables (`?x <p> ?x`) constrain matches beyond the
            // prefix range; fall back to the join.
            let mut vars: Vec<usize> = Vec::with_capacity(3);
            let mut consts: [Option<TermId>; 3] = [None; 3];
            for (slot, c) in [p.s, p.p, p.o].into_iter().zip(consts.iter_mut()) {
                match slot {
                    Slot::Var(i) => {
                        if vars.contains(&i) {
                            return None;
                        }
                        vars.push(i);
                    }
                    Slot::Const(id) => *c = id,
                }
            }
            Some(store.count_pattern(TriplePattern {
                s: consts[0],
                p: consts[1],
                o: consts[2],
            }))
        }
        _ => None,
    }
}

/// The single-row result of an aggregate projection, with the effective
/// solution modifiers applied: `OFFSET ≥ 1` or `LIMIT 0` drop the row.
fn aggregate_row(
    limit: Option<usize>,
    offset: Option<usize>,
    alias: &str,
    count: usize,
) -> ResultSet {
    let survives = offset.unwrap_or(0) == 0 && limit.unwrap_or(usize::MAX) >= 1;
    let rows = if survives {
        vec![vec![Some(Term::integer(count as i64))]]
    } else {
        Vec::new()
    };
    ResultSet::new(vec![alias.to_owned()], rows)
}

/// Executes a planned `SELECT` with optional `LIMIT`/`OFFSET` overrides
/// (`None` falls back to the query's own modifiers).
fn execute_select_planned_paged(
    store: &TripleStore,
    query: &SelectQuery,
    plan: &GroupPlan,
    limit_override: Option<usize>,
    offset_override: Option<usize>,
    t: &mut BudgetTracker<'_>,
) -> Result<ResultSet, SparqlError> {
    let limit = limit_override.or(query.limit);
    let offset = offset_override.or(query.offset);
    // COUNT over a bare pattern short-circuits through the index bounds:
    // no join, no binding materialisation.
    if let Projection::Count {
        var,
        distinct: false,
        alias,
    } = &query.projection
    {
        let var_always_bound = match var {
            None => true,
            Some(v) => plan
                .var_names
                .iter()
                .position(|name| name == v)
                .is_some_and(|idx| {
                    plan.patterns.iter().any(|p| {
                        [p.s, p.p, p.o]
                            .iter()
                            .any(|slot| matches!(slot, Slot::Var(i) if *i == idx))
                    })
                }),
        };
        if var_always_bound {
            if let Some(n) = exact_pattern_count(store, plan) {
                return Ok(aggregate_row(limit, offset, alias, n));
            }
        }
    }

    // Early-stop hint: when no DISTINCT / ORDER BY / aggregation /
    // subgroup is in play, we only ever need offset+limit raw rows.
    let early_stop = if !query.distinct
        && query.order_by.is_empty()
        && !plan.has_subgroups()
        && !matches!(query.projection, Projection::Count { .. })
    {
        limit.map(|l| l.saturating_add(offset.unwrap_or(0)))
    } else {
        None
    };

    let binding = vec![None; plan.var_names.len()];
    let bindings = eval_group(store, plan, binding, early_stop, t)?;

    // Aggregation short-circuits projection.
    if let Projection::Count {
        var,
        distinct,
        alias,
    } = &query.projection
    {
        let count = match var {
            None => bindings.len(),
            Some(v) => {
                let idx = plan
                    .var_names
                    .iter()
                    .position(|name| name == v)
                    .ok_or_else(|| SparqlError::eval(format!("COUNT of unknown variable ?{v}")))?;
                let values = bindings.iter().filter_map(|b| b[idx]);
                if *distinct {
                    let set: std::collections::BTreeSet<TermId> = values.collect();
                    set.len()
                } else {
                    values.count()
                }
            }
        };
        return Ok(aggregate_row(limit, offset, alias, count));
    }

    // Projection stays at the interned-id level for deduplication,
    // ordering, and pagination; terms are resolved (and cloned) only for
    // the rows that actually survive OFFSET/LIMIT.
    let projected_vars: Vec<String> = match &query.projection {
        Projection::Star => plan.var_names.clone(),
        Projection::Vars(vars) => vars.clone(),
        Projection::Count { .. } => unreachable!("handled above"),
    };
    let col_indices: Vec<Option<usize>> = projected_vars
        .iter()
        .map(|v| plan.var_names.iter().position(|name| name == v))
        .collect();

    let mut id_rows: Vec<Vec<Option<TermId>>> = bindings
        .iter()
        .map(|b| col_indices.iter().map(|ci| ci.and_then(|i| b[i])).collect())
        .collect();

    if query.distinct {
        // The dictionary is injective (one id per distinct term), so id
        // equality is term equality — no string keys needed.
        let mut seen = std::collections::BTreeSet::new();
        id_rows.retain(|row| seen.insert(row.clone()));
    }

    if !query.order_by.is_empty() {
        let key_indices: Vec<(usize, bool)> = query
            .order_by
            .iter()
            .filter_map(|k| {
                projected_vars
                    .iter()
                    .position(|v| v == &k.var)
                    .map(|i| (i, k.descending))
            })
            .collect();
        let term_of = |cell: Option<TermId>| cell.map(|id| store.dict().resolve(id));
        id_rows.sort_by(|a, b| {
            for &(i, desc) in &key_indices {
                let ord = term_of(a[i]).cmp(&term_of(b[i]));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    let rows: Vec<Vec<Option<Term>>> = id_rows
        .into_iter()
        .skip(offset.unwrap_or(0))
        .take(limit.unwrap_or(usize::MAX))
        .map(|row| {
            row.into_iter()
                .map(|cell| cell.map(|id| store.dict().resolve(id).clone()))
                .collect()
        })
        .collect();

    Ok(ResultSet::new(projected_vars, rows))
}

/// Whether the plan admits at least one solution (used by ASK and EXISTS).
fn any_solution(
    store: &TripleStore,
    plan: &GroupPlan,
    seed: Option<&[Option<TermId>]>,
    t: &mut BudgetTracker<'_>,
) -> Result<bool, SparqlError> {
    let mut binding = vec![None; plan.var_names.len()];
    if let Some(seed) = seed {
        binding[..seed.len()].copy_from_slice(seed);
    }
    let early_stop = if plan.has_subgroups() { None } else { Some(1) };
    let out = eval_group(store, plan, binding, early_stop, t)?;
    Ok(!out.is_empty())
}

/// Evaluates a full group: basic pattern join, then `UNION` blocks, then
/// `OPTIONAL` left-joins, then the group's post-filters.
fn eval_group(
    store: &TripleStore,
    plan: &GroupPlan,
    seed: Vec<Option<TermId>>,
    early_stop: Option<usize>,
    t: &mut BudgetTracker<'_>,
) -> Result<Vec<Vec<Option<TermId>>>, SparqlError> {
    let mut solutions = Vec::new();
    let mut binding = seed;
    collect_solutions(store, plan, 0, &mut binding, early_stop, &mut solutions, t)?;

    for block in &plan.unions {
        let mut next = Vec::new();
        for solution in &solutions {
            for branch in block {
                // Branch plans share the parent's variable table as a
                // prefix; the branch may bind additional variables.
                let mut seed = solution.clone();
                seed.resize(branch.var_names.len(), None);
                next.extend(eval_group(store, branch, seed, None, t)?);
                t.check_bindings(next.len())?;
            }
        }
        solutions = next;
    }

    for optional in &plan.optionals {
        let mut next = Vec::new();
        for solution in &solutions {
            let mut seed = solution.clone();
            seed.resize(optional.var_names.len(), None);
            let extended = eval_group(store, optional, seed, None, t)?;
            if extended.is_empty() {
                next.push(solution.clone());
            } else {
                next.extend(extended);
            }
            t.check_bindings(next.len())?;
        }
        solutions = next;
    }

    if !plan.post_filters.is_empty() {
        let mut kept = Vec::with_capacity(solutions.len());
        for solution in solutions {
            let mut pass = true;
            for filter in &plan.post_filters {
                if !filter_passes(store, filter, &solution, t)? {
                    pass = false;
                    break;
                }
            }
            if pass {
                kept.push(solution);
            }
        }
        solutions = kept;
    }

    // Sub-group bindings may be longer than the parent's table when
    // branches introduced EXISTS-local variables; truncate to the
    // parent's width so all rows agree.
    for solution in &mut solutions {
        solution.truncate(plan.var_names.len());
        solution.resize(plan.var_names.len(), None);
    }
    Ok(solutions)
}

/// Recursive index nested-loop join.
#[allow(clippy::too_many_arguments)]
fn collect_solutions(
    store: &TripleStore,
    plan: &GroupPlan,
    level: usize,
    binding: &mut Vec<Option<TermId>>,
    early_stop: Option<usize>,
    out: &mut Vec<Vec<Option<TermId>>>,
    t: &mut BudgetTracker<'_>,
) -> Result<(), SparqlError> {
    if early_stop.is_some_and(|lim| out.len() >= lim) {
        return Ok(());
    }
    // Filters scheduled at this level.
    for filter in &plan.filters_at[level] {
        if !filter_passes(store, filter, binding, t)? {
            return Ok(());
        }
    }
    if level == plan.patterns.len() {
        t.check_bindings(out.len() + 1)?;
        out.push(binding.clone());
        return Ok(());
    }

    let pattern = &plan.patterns[level];
    if pattern.is_unsatisfiable() {
        return Ok(());
    }

    let resolve = |slot: Slot, binding: &[Option<TermId>]| -> Option<TermId> {
        match slot {
            Slot::Const(id) => id,
            Slot::Var(i) => binding[i],
        }
    };
    let scan_pattern = TriplePattern {
        s: resolve(pattern.s, binding),
        p: resolve(pattern.p, binding),
        o: resolve(pattern.o, binding),
    };

    // Zero-allocation: the scan is a borrowed slice walk over the store's
    // flat indexes (it borrows only `store`, so mutating the binding
    // vector and recursing are both fine inside the loop). The budget
    // tick here is the cooperative kill switch: every scanned row is
    // charged, and the deadline/cancel token is polled every
    // [`crate::budget::POLL_INTERVAL`] rows.
    for triple in store.scan_range(scan_pattern) {
        t.tick_scan()?;
        let mut touched: [Option<usize>; 3] = [None; 3];
        if !bind_slot(pattern.s, triple.s, binding, &mut touched[0])
            || !bind_slot(pattern.p, triple.p, binding, &mut touched[1])
            || !bind_slot(pattern.o, triple.o, binding, &mut touched[2])
        {
            undo(binding, &touched);
            continue;
        }
        collect_solutions(store, plan, level + 1, binding, early_stop, out, t)?;
        undo(binding, &touched);
        if early_stop.is_some_and(|lim| out.len() >= lim) {
            return Ok(());
        }
    }
    Ok(())
}

/// Binds a variable slot to `id`, recording the write in `touched`.
/// Returns `false` on conflict with an existing binding (repeated variable
/// within one pattern, e.g. `?x <p> ?x`).
fn bind_slot(
    slot: Slot,
    id: TermId,
    binding: &mut [Option<TermId>],
    touched: &mut Option<usize>,
) -> bool {
    match slot {
        Slot::Const(_) => true,
        Slot::Var(i) => match binding[i] {
            Some(existing) => existing == id,
            None => {
                binding[i] = Some(id);
                *touched = Some(i);
                true
            }
        },
    }
}

fn undo(binding: &mut [Option<TermId>], touched: &[Option<usize>; 3]) {
    for t in touched.iter().flatten() {
        binding[*t] = None;
    }
}

/// Evaluates a filter; evaluation errors count as `false` per SPARQL.
/// Budget breaches are the one exception: absorbing a cancellation
/// raised inside an EXISTS sub-query would silently turn a killed query
/// into a partial result set, so they propagate.
fn filter_passes(
    store: &TripleStore,
    filter: &PExpr,
    binding: &[Option<TermId>],
    t: &mut BudgetTracker<'_>,
) -> Result<bool, SparqlError> {
    match eval_expr(store, filter, binding, t) {
        Ok(v) => Ok(v.effective_boolean().unwrap_or(false)),
        Err(e) if e.is_budget() => Err(e),
        Err(_) => Ok(false),
    }
}

fn var_value(
    store: &TripleStore,
    idx: usize,
    binding: &[Option<TermId>],
) -> Result<Value, SparqlError> {
    let id = binding
        .get(idx)
        .copied()
        .flatten()
        .ok_or_else(|| SparqlError::eval("unbound variable in expression"))?;
    Ok(Value::Term(store.dict().resolve(id).clone()))
}

fn eval_expr(
    store: &TripleStore,
    expr: &PExpr,
    binding: &[Option<TermId>],
    t: &mut BudgetTracker<'_>,
) -> Result<Value, SparqlError> {
    match expr {
        PExpr::Var(i) => var_value(store, *i, binding),
        PExpr::Const(term) => Ok(Value::Term(term.clone())),
        PExpr::Compare(op, a, b) => {
            let va = eval_expr(store, a, binding, t)?;
            let vb = eval_expr(store, b, binding, t)?;
            Ok(Value::Bool(va.compare(*op, &vb)?))
        }
        PExpr::And(a, b) => {
            let va = eval_expr(store, a, binding, t)?.effective_boolean()?;
            if !va {
                return Ok(Value::Bool(false));
            }
            let vb = eval_expr(store, b, binding, t)?.effective_boolean()?;
            Ok(Value::Bool(vb))
        }
        PExpr::Or(a, b) => {
            let va = eval_expr(store, a, binding, t)?.effective_boolean()?;
            if va {
                return Ok(Value::Bool(true));
            }
            let vb = eval_expr(store, b, binding, t)?.effective_boolean()?;
            Ok(Value::Bool(vb))
        }
        PExpr::Not(inner) => {
            let v = eval_expr(store, inner, binding, t)?.effective_boolean()?;
            Ok(Value::Bool(!v))
        }
        PExpr::Call(builtin, args) => eval_builtin(store, *builtin, args, binding, t),
        PExpr::Exists { plan, negated } => {
            let found = any_solution(store, plan, Some(binding), t)?;
            Ok(Value::Bool(found != *negated))
        }
    }
}

fn eval_builtin(
    store: &TripleStore,
    builtin: Builtin,
    args: &[PExpr],
    binding: &[Option<TermId>],
    t: &mut BudgetTracker<'_>,
) -> Result<Value, SparqlError> {
    match builtin {
        Builtin::Bound => {
            let bound = match &args[0] {
                PExpr::Var(i) => binding.get(*i).copied().flatten().is_some(),
                _ => true,
            };
            Ok(Value::Bool(bound))
        }
        Builtin::Str => {
            let v = eval_expr(store, &args[0], binding, t)?;
            Ok(Value::Str(v.string_form()?))
        }
        Builtin::Lang => {
            let v = eval_expr(store, &args[0], binding, t)?;
            match v {
                Value::Term(Term::Literal { lang, .. }) => Ok(Value::Str(lang.unwrap_or_default())),
                _ => Err(SparqlError::eval("LANG expects a literal")),
            }
        }
        Builtin::Datatype => {
            let v = eval_expr(store, &args[0], binding, t)?;
            match v {
                Value::Term(Term::Literal { datatype, lang, .. }) => {
                    let dt = match (datatype, lang) {
                        (Some(dt), _) => dt,
                        (None, Some(_)) => {
                            "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString".to_owned()
                        }
                        (None, None) => "http://www.w3.org/2001/XMLSchema#string".to_owned(),
                    };
                    Ok(Value::Term(Term::iri(dt)))
                }
                _ => Err(SparqlError::eval("DATATYPE expects a literal")),
            }
        }
        Builtin::IsIri | Builtin::IsLiteral | Builtin::IsBlank => {
            let v = eval_expr(store, &args[0], binding, t)?;
            let Value::Term(term) = v else {
                return Ok(Value::Bool(false));
            };
            Ok(Value::Bool(match builtin {
                Builtin::IsIri => term.is_iri(),
                Builtin::IsLiteral => term.is_literal(),
                _ => term.is_bnode(),
            }))
        }
        Builtin::StrStarts | Builtin::StrEnds | Builtin::Contains => {
            let a = eval_expr(store, &args[0], binding, t)?.string_form()?;
            let b = eval_expr(store, &args[1], binding, t)?.string_form()?;
            Ok(Value::Bool(match builtin {
                Builtin::StrStarts => a.starts_with(&b),
                Builtin::StrEnds => a.ends_with(&b),
                _ => a.contains(&b),
            }))
        }
        Builtin::Regex => {
            let text = eval_expr(store, &args[0], binding, t)?.string_form()?;
            let pattern = eval_expr(store, &args[1], binding, t)?.string_form()?;
            Ok(Value::Bool(regex_lite(&text, &pattern)))
        }
    }
}

/// Anchored-substring "regex" dialect: `^p` = prefix, `p$` = suffix,
/// `^p$` = exact, otherwise substring. Documented in the crate docs; full
/// regular expressions are out of scope (and not needed by SOFYA).
fn regex_lite(text: &str, pattern: &str) -> bool {
    match (pattern.strip_prefix('^'), pattern.strip_suffix('$')) {
        (Some(_), Some(_)) => {
            let inner = &pattern[1..pattern.len() - 1];
            text == inner
        }
        (Some(prefix), None) => text.starts_with(prefix),
        (None, Some(suffix)) => text.ends_with(suffix),
        (None, None) => text.contains(pattern),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_store() -> TripleStore {
        let mut s = TripleStore::new();
        for (a, p, b) in [
            ("e:s1", "r:bornIn", "e:usa"),
            ("e:s2", "r:bornIn", "e:usa"),
            ("e:s3", "r:bornIn", "e:france"),
            ("e:s1", "r:livesIn", "e:usa"),
            ("e:s3", "r:livesIn", "e:usa"),
        ] {
            s.insert_terms(&Term::iri(a), &Term::iri(p), &Term::iri(b));
        }
        s.insert_terms(
            &Term::iri("e:s1"),
            &Term::iri("r:name"),
            &Term::literal("Frank Sinatra"),
        );
        s.insert_terms(
            &Term::iri("e:s2"),
            &Term::iri("r:name"),
            &Term::literal("Ella"),
        );
        s.insert_terms(&Term::iri("e:s1"), &Term::iri("r:age"), &Term::integer(82));
        s.insert_terms(&Term::iri("e:s2"), &Term::iri("r:age"), &Term::integer(79));
        s
    }

    #[test]
    fn simple_select() {
        let s = demo_store();
        let rs = execute(&s, "SELECT ?x WHERE { ?x <r:bornIn> <e:usa> }").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn join_two_patterns() {
        let s = demo_store();
        let rs = execute(
            &s,
            "SELECT ?x { ?x <r:bornIn> <e:usa> . ?x <r:livesIn> <e:usa> }",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("e:s1")));
    }

    #[test]
    fn variable_predicate() {
        let s = demo_store();
        let rs = execute(&s, "SELECT DISTINCT ?p { <e:s1> ?p ?y }").unwrap();
        let mut preds: Vec<String> = rs
            .column("p")
            .iter()
            .map(|t| t.as_iri().unwrap().to_owned())
            .collect();
        preds.sort();
        assert_eq!(preds, vec!["r:age", "r:bornIn", "r:livesIn", "r:name"]);
    }

    #[test]
    fn filter_neq_between_vars() {
        let s = demo_store();
        let rs = execute(
            &s,
            "SELECT ?x ?a ?b { ?x <r:bornIn> ?a . ?x <r:livesIn> ?b . FILTER(?a != ?b) }",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("e:s3")));
    }

    #[test]
    fn filter_numeric_comparison() {
        let s = demo_store();
        let rs = execute(&s, "SELECT ?x { ?x <r:age> ?a FILTER(?a > 80) }").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("e:s1")));
    }

    #[test]
    fn filter_string_builtins() {
        let s = demo_store();
        let rs = execute(
            &s,
            "SELECT ?x { ?x <r:name> ?n FILTER(STRSTARTS(STR(?n), \"Frank\")) }",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        let rs = execute(
            &s,
            "SELECT ?x { ?x <r:name> ?n FILTER(CONTAINS(STR(?n), \"ll\")) }",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn regex_lite_dialect() {
        assert!(regex_lite("Frank Sinatra", "Sinatra$"));
        assert!(regex_lite("Frank Sinatra", "^Frank"));
        assert!(regex_lite("Frank Sinatra", "nk Si"));
        assert!(regex_lite("abc", "^abc$"));
        assert!(!regex_lite("abcd", "^abc$"));
    }

    #[test]
    fn not_exists_filter() {
        let s = demo_store();
        // People born in the USA who do NOT live in the USA: none (s1 lives
        // there, s2 has no livesIn at all — wait, s2 has no livesIn fact, so
        // NOT EXISTS holds for s2).
        let rs = execute(
            &s,
            "SELECT ?x { ?x <r:bornIn> <e:usa> FILTER NOT EXISTS { ?x <r:livesIn> <e:usa> } }",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("e:s2")));
    }

    #[test]
    fn exists_filter() {
        let s = demo_store();
        let rs = execute(
            &s,
            "SELECT ?x { ?x <r:bornIn> ?c FILTER EXISTS { ?x <r:livesIn> <e:usa> } }",
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn distinct_and_order_and_limit() {
        let s = demo_store();
        let rs = execute(
            &s,
            "SELECT DISTINCT ?c { ?x <r:bornIn> ?c } ORDER BY ?c LIMIT 10",
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        // Ordered ascending: e:france before e:usa.
        assert_eq!(rs.cell(0, "c"), Some(&Term::iri("e:france")));
    }

    #[test]
    fn order_by_desc() {
        let s = demo_store();
        let rs = execute(&s, "SELECT ?x ?a { ?x <r:age> ?a } ORDER BY DESC(?a)").unwrap();
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("e:s1")));
    }

    #[test]
    fn limit_offset_pagination() {
        let s = demo_store();
        let all = execute(&s, "SELECT ?x ?y { ?x <r:bornIn> ?y } ORDER BY ?x").unwrap();
        let page2 = execute(
            &s,
            "SELECT ?x ?y { ?x <r:bornIn> ?y } ORDER BY ?x LIMIT 2 OFFSET 1",
        )
        .unwrap();
        assert_eq!(page2.len(), 2);
        assert_eq!(page2.rows()[0], all.rows()[1]);
        assert_eq!(page2.rows()[1], all.rows()[2]);
    }

    #[test]
    fn count_star() {
        let s = demo_store();
        let rs = execute(&s, "SELECT (COUNT(*) AS ?n) { ?x <r:bornIn> ?y }").unwrap();
        assert_eq!(rs.single_integer(), Some(3));
    }

    #[test]
    fn count_distinct_var() {
        let s = demo_store();
        let rs = execute(&s, "SELECT (COUNT(DISTINCT ?y) AS ?n) { ?x <r:bornIn> ?y }").unwrap();
        assert_eq!(rs.single_integer(), Some(2));
    }

    #[test]
    fn count_respects_limit_and_offset_modifiers() {
        let s = demo_store();
        // Index-shortcut path (single pattern, no filters).
        let rs = execute(&s, "SELECT (COUNT(*) AS ?n) { ?x <r:bornIn> ?y } LIMIT 0").unwrap();
        assert!(rs.is_empty());
        let rs = execute(&s, "SELECT (COUNT(*) AS ?n) { ?x <r:bornIn> ?y } OFFSET 1").unwrap();
        assert!(rs.is_empty());
        let rs = execute(&s, "SELECT (COUNT(*) AS ?n) { ?x <r:bornIn> ?y } LIMIT 1").unwrap();
        assert_eq!(rs.single_integer(), Some(3));
        // Fallback path (join required: two patterns).
        let rs = execute(
            &s,
            "SELECT (COUNT(*) AS ?n) { ?x <r:bornIn> ?y . ?x <r:livesIn> ?z } LIMIT 0",
        )
        .unwrap();
        assert!(rs.is_empty());
        let rs = execute(
            &s,
            "SELECT (COUNT(*) AS ?n) { ?x <r:bornIn> ?y . ?x <r:livesIn> ?z } OFFSET 2",
        )
        .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn count_of_var_uses_index_when_var_is_in_pattern() {
        let s = demo_store();
        let rs = execute(&s, "SELECT (COUNT(?x) AS ?n) { ?x <r:bornIn> ?y }").unwrap();
        assert_eq!(rs.single_integer(), Some(3));
        // A variable the pattern never binds counts zero rows (fallback).
        let rs = execute(&s, "SELECT (COUNT(?ghost) AS ?n) { ?x <r:bornIn> ?y }");
        assert!(rs.is_err() || rs.unwrap().single_integer() == Some(0));
    }

    #[test]
    fn ask_true_and_false() {
        let s = demo_store();
        assert!(execute_ask(&s, "ASK { <e:s1> <r:bornIn> <e:usa> }").unwrap());
        assert!(!execute_ask(&s, "ASK { <e:s1> <r:bornIn> <e:france> }").unwrap());
    }

    #[test]
    fn unknown_constant_yields_empty_not_error() {
        let s = demo_store();
        let rs = execute(&s, "SELECT ?x { ?x <r:ghost> ?y }").unwrap();
        assert!(rs.is_empty());
        assert!(!execute_ask(&s, "ASK { <e:nobody> ?p ?y }").unwrap());
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let mut s = demo_store();
        s.insert_terms(
            &Term::iri("e:loop"),
            &Term::iri("r:knows"),
            &Term::iri("e:loop"),
        );
        let rs = execute(&s, "SELECT ?x { ?x <r:knows> ?x }").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("e:loop")));
    }

    #[test]
    fn star_projection_covers_all_vars() {
        let s = demo_store();
        let rs = execute(&s, "SELECT * { ?x <r:bornIn> ?y }").unwrap();
        assert_eq!(rs.vars(), &["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn projection_of_unbound_var_is_allowed() {
        let s = demo_store();
        let rs = execute(&s, "SELECT ?x ?ghost { ?x <r:bornIn> <e:usa> }").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.cell(0, "ghost"), None);
    }

    #[test]
    fn filter_error_is_false_not_fatal() {
        let s = demo_store();
        // LANG of an IRI errors; the row is dropped, not the query.
        let rs = execute(
            &s,
            "SELECT ?x { ?x <r:bornIn> ?y FILTER(LANG(?y) = \"en\") }",
        )
        .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn ask_via_execute_is_error() {
        let s = demo_store();
        assert!(execute(&s, "ASK { ?x <r:bornIn> ?y }").is_err());
        assert!(execute_ask(&s, "SELECT ?x { ?x <r:bornIn> ?y }").is_err());
    }

    #[test]
    fn early_stop_respects_limit_without_order() {
        let s = demo_store();
        let rs = execute(&s, "SELECT ?x { ?x <r:bornIn> ?y } LIMIT 1").unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn budget_row_cap_kills_a_cross_join() {
        use crate::budget::{BudgetBreach, QueryBudget};
        let s = demo_store();
        let q = parse_query("SELECT ?a ?b ?c { ?a ?p ?b . ?c ?q ?d }").unwrap();
        let budget = QueryBudget::unlimited().with_max_rows_scanned(10);
        let err = execute_ast_budgeted(&s, &q, PlanOptions::default(), &budget).unwrap_err();
        assert!(matches!(
            err,
            SparqlError::Budget {
                breach: BudgetBreach::RowsScanned { limit: 10 }
            }
        ));
        // The same query under an ample budget matches the unbudgeted run.
        let roomy = QueryBudget::unlimited().with_max_rows_scanned(1_000_000);
        let budgeted = execute_ast_budgeted(&s, &q, PlanOptions::default(), &roomy).unwrap();
        let plain = execute_ast(&s, &q).unwrap();
        assert_eq!(budgeted, plain);
    }

    #[test]
    fn budget_binding_cap_kills_wide_results() {
        use crate::budget::{BudgetBreach, QueryBudget};
        let s = demo_store();
        let q = parse_query("SELECT ?s ?p ?o { ?s ?p ?o }").unwrap();
        let budget = QueryBudget::unlimited().with_max_bindings(3);
        let err = execute_ast_budgeted(&s, &q, PlanOptions::default(), &budget).unwrap_err();
        assert!(matches!(
            err,
            SparqlError::Budget {
                breach: BudgetBreach::Bindings { limit: 3 }
            }
        ));
    }

    #[test]
    fn cancelled_token_fails_even_the_index_fast_paths() {
        use crate::budget::{BudgetBreach, CancelToken, QueryBudget};
        use std::sync::Arc;
        let s = demo_store();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let budget = QueryBudget::unlimited().with_cancel(token);
        // ASK and COUNT resolve off index bounds without scanning; the
        // preflight check still refuses cancelled work.
        let ask = parse_query("ASK { <e:s1> <r:bornIn> <e:usa> }").unwrap();
        let err = execute_ast_budgeted(&s, &ask, PlanOptions::default(), &budget).unwrap_err();
        assert!(matches!(
            err,
            SparqlError::Budget {
                breach: BudgetBreach::Cancelled
            }
        ));
        let count = parse_query("SELECT (COUNT(*) AS ?n) { ?x <r:bornIn> ?y }").unwrap();
        assert!(execute_ast_budgeted(&s, &count, PlanOptions::default(), &budget).is_err());
    }

    #[test]
    fn budget_breach_inside_filter_exists_is_not_absorbed() {
        use crate::budget::QueryBudget;
        let s = demo_store();
        // The EXISTS sub-query forces scans inside filter evaluation; a
        // tiny scan cap must surface as an error, not drop rows silently.
        let q =
            parse_query("SELECT ?x { ?x <r:bornIn> ?c FILTER EXISTS { ?x <r:livesIn> <e:usa> } }")
                .unwrap();
        let budget = QueryBudget::unlimited().with_max_rows_scanned(1);
        let err = execute_ast_budgeted(&s, &q, PlanOptions::default(), &budget).unwrap_err();
        assert!(err.is_budget(), "got {err:?}");
    }

    #[test]
    fn empty_pattern_yields_single_empty_solution() {
        let s = demo_store();
        // Zero triple patterns: one solution with nothing bound (per the
        // SPARQL algebra, the empty BGP's multiset is { μ0 }).
        let rs = execute(&s, "SELECT (COUNT(*) AS ?n) { }").unwrap();
        assert_eq!(rs.single_integer(), Some(1));
        assert!(execute_ask(&s, "ASK { }").unwrap());
    }
}
