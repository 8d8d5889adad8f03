//! Query evaluation: index nested-loop joins over the planned BGP.
//!
//! Solutions are fixed-width rows of interned ids. The join hands each
//! complete binding to a sink — a flat table, a page that counts
//! the rows before its OFFSET without storing them, a counter, or an
//! existence probe — so a solution costs at most one `extend_from_slice`
//! and never an allocation of its own. Terms are resolved, and cloned,
//! only for the rows a result set returns.

use crate::ast::{Builtin, Projection, Query, SelectQuery};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::error::SparqlError;
use crate::parser::parse_query;
use crate::plan::{GroupPlan, PExpr, PlanOptions, Slot};
use crate::solution::ResultSet;
use crate::value::Value;
use sofya_rdf::{Term, TermId, TriplePattern, TripleStore};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

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
    let mut ex = Exec::new(store, budget)?;
    match query {
        Query::Select(select) => {
            let plan = GroupPlan::build_with(store, &select.pattern, &[], opts);
            Ok(QueryOutcome::Solutions(execute_select_planned_paged(
                &mut ex, select, &plan, None, None,
            )?))
        }
        Query::Ask(pattern) => {
            let plan = GroupPlan::build_with(store, pattern, &[], opts);
            Ok(QueryOutcome::Boolean(execute_ask_planned(&mut ex, &plan)?))
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
    let mut ex = Exec::new(store, budget)?;
    match &compiled.inner {
        CompiledInner::Select { query, plan } => Ok(QueryOutcome::Solutions(
            execute_select_planned_paged(&mut ex, query, plan, limit, offset)?,
        )),
        CompiledInner::Ask { plan } => {
            if limit.is_some() || offset.is_some() {
                return Err(SparqlError::eval(
                    "LIMIT/OFFSET cannot be applied to an ASK query",
                ));
            }
            Ok(QueryOutcome::Boolean(execute_ask_planned(&mut ex, plan)?))
        }
    }
}

/// Executes a planned ASK: a bare pattern set resolves through the flat
/// indexes without running the join at all (non-emptiness of the prefix
/// range).
fn execute_ask_planned(ex: &mut Exec<'_, '_>, plan: &GroupPlan) -> Result<bool, SparqlError> {
    if let Some(n) = exact_pattern_count(ex.store, plan) {
        return Ok(n > 0);
    }
    any_solution(ex, plan, &[])
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

/// One execution's state: the store, the budget, and a spare binding
/// buffer that `EXISTS` probes reuse, so probing once per outer solution
/// does not allocate once per outer solution.
struct Exec<'s, 'b> {
    store: &'s TripleStore,
    budget: BudgetTracker<'b>,
    spare: Vec<Option<TermId>>,
}

impl<'s, 'b> Exec<'s, 'b> {
    /// Starts an execution. An already-expired or already-cancelled
    /// budget fails here, even on paths that never scan (index-shortcut
    /// counts, provably-empty plans).
    fn new(store: &'s TripleStore, budget: &'b QueryBudget) -> Result<Self, SparqlError> {
        let budget = BudgetTracker::new(budget);
        budget.preflight()?;
        Ok(Self {
            store,
            budget,
            spare: Vec::new(),
        })
    }

    /// Hands `row` to `sink`, charging the binding cap every solution the
    /// sink has taken.
    fn deliver(&self, sink: &mut impl Sink, row: &[Option<TermId>]) -> Result<(), SparqlError> {
        self.budget.check_bindings(sink.accept(row))
    }
}

/// A solution set: rows of `width` optional ids, back to back in one
/// vector.
struct Table {
    width: usize,
    len: usize,
    cells: Vec<Option<TermId>>,
}

impl Table {
    fn new(width: usize) -> Self {
        Self {
            width,
            len: 0,
            cells: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn row(&self, i: usize) -> &[Option<TermId>] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[Option<TermId>]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Appends the first `width` cells of `row`; the rest are variables
    /// local to a sub-plan.
    fn push(&mut self, row: &[Option<TermId>]) {
        self.cells.extend_from_slice(&row[..self.width]);
        self.len += 1;
    }

    /// Appends `row`'s cells at `cols` (`None` for a variable the
    /// solutions never bind).
    fn push_projected(&mut self, row: &[Option<TermId>], cols: &[Option<usize>]) {
        self.cells
            .extend(cols.iter().map(|col| col.and_then(|i| row[i])));
        self.len += 1;
    }
}

/// Where evaluation delivers solutions, one at a time and in solution
/// order.
trait Sink {
    /// Takes the next solution and returns how many the sink has taken,
    /// stored or not: the count the binding cap is charged. `row` may be
    /// wider than the sink's rows; the excess columns are variables local
    /// to a sub-plan.
    fn accept(&mut self, row: &[Option<TermId>]) -> usize;

    /// Whether the sink wants no more solutions; evaluation stops then.
    fn done(&self) -> bool {
        false
    }
}

/// Appends every solution to a table. It charges the table's whole
/// length, so rows earlier branches stored there count too.
struct Append<'t> {
    table: &'t mut Table,
}

impl Sink for Append<'_> {
    fn accept(&mut self, row: &[Option<TermId>]) -> usize {
        self.table.push(row);
        self.table.len()
    }
}

/// The page `[skip, skip + take)` of the solution sequence, projected
/// onto `cols`: solutions before it are counted and dropped, and
/// evaluation stops once it is full.
struct Page<'c> {
    skip: usize,
    take: usize,
    seen: usize,
    cols: &'c [Option<usize>],
    rows: Table,
}

impl Sink for Page<'_> {
    fn accept(&mut self, row: &[Option<TermId>]) -> usize {
        if self.skip > 0 {
            self.skip -= 1;
        } else if self.take > 0 {
            self.rows.push_projected(row, self.cols);
            self.take -= 1;
        }
        self.seen += 1;
        self.seen
    }

    fn done(&self) -> bool {
        self.skip == 0 && self.take == 0
    }
}

/// `COUNT(*)` counts solutions; `COUNT([DISTINCT] ?v)` counts the bound
/// cells of column `col` (each value once under `DISTINCT`). No solution
/// is stored.
struct Count {
    col: Option<usize>,
    distinct: Option<HashSet<TermId>>,
    seen: usize,
    counted: usize,
}

impl Sink for Count {
    fn accept(&mut self, row: &[Option<TermId>]) -> usize {
        let counts = match self.col.map(|col| row[col]) {
            None => true,
            Some(None) => false,
            Some(Some(id)) => self.distinct.as_mut().is_none_or(|set| set.insert(id)),
        };
        self.counted += usize::from(counts);
        self.seen += 1;
        self.seen
    }
}

/// Whether any solution exists: stops at the first.
#[derive(Default)]
struct Any {
    found: bool,
}

impl Sink for Any {
    fn accept(&mut self, _row: &[Option<TermId>]) -> usize {
        self.found = true;
        1
    }

    fn done(&self) -> bool {
        self.found
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
    ex: &mut Exec<'_, '_>,
    query: &SelectQuery,
    plan: &GroupPlan,
    limit_override: Option<usize>,
    offset_override: Option<usize>,
) -> Result<ResultSet, SparqlError> {
    let limit = limit_override.or(query.limit);
    let offset = offset_override.or(query.offset);
    let width = plan.var_names.len();
    let column = |var: &str| plan.var_names.iter().position(|name| name == var);

    if let Projection::Count {
        var,
        distinct,
        alias,
    } = &query.projection
    {
        let col = match var {
            None => None,
            Some(v) => Some(
                column(v)
                    .ok_or_else(|| SparqlError::eval(format!("COUNT of unknown variable ?{v}")))?,
            ),
        };
        // COUNT over a bare pattern short-circuits through the index
        // bounds: no join at all.
        let always_bound = col.is_none_or(|i| {
            plan.patterns.iter().any(|p| {
                [p.s, p.p, p.o]
                    .iter()
                    .any(|slot| matches!(slot, Slot::Var(v) if *v == i))
            })
        });
        if !distinct && always_bound {
            if let Some(n) = exact_pattern_count(ex.store, plan) {
                return Ok(aggregate_row(limit, offset, alias, n));
            }
        }
        let mut count = Count {
            col,
            distinct: distinct.then(HashSet::new),
            seen: 0,
            counted: 0,
        };
        eval_group(ex, plan, &mut vec![None; width], &mut count)?;
        return Ok(aggregate_row(limit, offset, alias, count.counted));
    }

    let vars: Vec<String> = match &query.projection {
        Projection::Star => plan.var_names.clone(),
        Projection::Vars(vars) => vars.clone(),
        Projection::Count { .. } => unreachable!("handled above"),
    };
    let cols: Vec<Option<usize>> = vars.iter().map(|v| column(v)).collect();
    let skip = offset.unwrap_or(0);
    let take = limit.unwrap_or(usize::MAX);
    let mut binding = vec![None; width];

    // Nothing reorders or merges the rows: the page is cut while the
    // solutions are produced.
    if query.order_by.is_empty() && !query.distinct {
        let mut page = Page {
            skip,
            take,
            seen: 0,
            cols: &cols,
            rows: Table::new(cols.len()),
        };
        eval_group(ex, plan, &mut binding, &mut page)?;
        return Ok(resolve_rows(ex.store, vars, page.rows.iter()));
    }

    let mut table = Table::new(width);
    eval_group(ex, plan, &mut binding, &mut Append { table: &mut table })?;
    // Rows are ordered before they are projected, so a key need not be
    // projected; a variable no solution binds orders nothing. Ties break
    // on solution index: the order is total, so any page equals that page
    // of a stable sort of all the rows.
    let keys: Vec<(usize, bool)> = query
        .order_by
        .iter()
        .filter_map(|k| column(&k.var).map(|i| (i, k.descending)))
        .collect();
    let store = ex.store;
    let cmp =
        |a: usize, b: usize| compare_keys(store, &keys, table.row(a), table.row(b)).then(a.cmp(&b));
    let mut order: Vec<usize> = if query.distinct {
        // One solution per projected row, the one that sorts first, so
        // only the distinct rows are sorted. The dictionary is injective,
        // so id equality is term equality.
        let mut projected = Table::new(cols.len());
        for row in table.iter() {
            projected.push_projected(row, &cols);
        }
        let mut kept: HashMap<&[Option<TermId>], usize> = HashMap::new();
        for i in 0..projected.len() {
            kept.entry(projected.row(i))
                .and_modify(|k| {
                    if cmp(i, *k).is_lt() {
                        *k = i;
                    }
                })
                .or_insert(i);
        }
        kept.into_values().collect()
    } else {
        (0..table.len()).collect()
    };
    sort_prefix(&mut order, skip.saturating_add(take), |&a, &b| cmp(a, b));
    let mut page = Table::new(cols.len());
    for &i in order.iter().skip(skip) {
        page.push_projected(table.row(i), &cols);
    }
    Ok(resolve_rows(ex.store, vars, page.iter()))
}

/// Puts the `wanted` least elements of `order` under `cmp`, a total
/// order, in sorted order and drops the rest: a selection first when not
/// all are wanted, then a sort of only those.
fn sort_prefix<T>(order: &mut Vec<T>, wanted: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    if wanted < order.len() {
        if let Some(last) = wanted.checked_sub(1) {
            order.select_nth_unstable_by(last, &mut cmp);
        }
        order.truncate(wanted);
    }
    order.sort_unstable_by(cmp);
}

/// Compares two solutions by the `ORDER BY` keys `(column, descending)`:
/// by term, an unbound cell first.
fn compare_keys(
    store: &TripleStore,
    keys: &[(usize, bool)],
    a: &[Option<TermId>],
    b: &[Option<TermId>],
) -> Ordering {
    let term = |cell: Option<TermId>| cell.map(|id| store.dict().resolve(id));
    for &(col, descending) in keys {
        // Distinct ids are distinct terms; only they need resolving.
        if a[col] != b[col] {
            let ord = term(a[col]).cmp(&term(b[col]));
            return if descending { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// The result set of projected `rows`, resolved to terms: the one place
/// the evaluator clones a term.
fn resolve_rows<'r>(
    store: &TripleStore,
    vars: Vec<String>,
    rows: impl Iterator<Item = &'r [Option<TermId>]>,
) -> ResultSet {
    let rows = rows
        .map(|row| {
            row.iter()
                .map(|cell| cell.map(|id| store.dict().resolve(id).clone()))
                .collect()
        })
        .collect();
    ResultSet::new(vars, rows)
}

/// Whether `plan` has a solution extending `seed` (ASK and EXISTS).
fn any_solution(
    ex: &mut Exec<'_, '_>,
    plan: &GroupPlan,
    seed: &[Option<TermId>],
) -> Result<bool, SparqlError> {
    let mut binding = std::mem::take(&mut ex.spare);
    reseed(&mut binding, seed, plan);
    let mut any = Any::default();
    let outcome = eval_group(ex, plan, &mut binding, &mut any);
    ex.spare = binding;
    outcome.map(|()| any.found)
}

/// Makes `binding` the seed for `plan`: `row`, then `plan`'s own
/// variables unbound. A sub-plan's variable table extends its parent's.
fn reseed(binding: &mut Vec<Option<TermId>>, row: &[Option<TermId>], plan: &GroupPlan) {
    binding.clear();
    binding.extend_from_slice(row);
    binding.resize(plan.var_names.len(), None);
}

/// Evaluates a full group from the seed `binding`: basic pattern join,
/// then `UNION` blocks, then `OPTIONAL` left-joins, then the group's
/// post-filters, handing the solutions to `sink`. A group with none of
/// the last three streams its join into the sink; otherwise each stage
/// fills a table of its own.
fn eval_group<S: Sink>(
    ex: &mut Exec<'_, '_>,
    plan: &GroupPlan,
    binding: &mut [Option<TermId>],
    sink: &mut S,
) -> Result<(), SparqlError> {
    if sink.done() {
        return Ok(());
    }
    if !plan.has_subgroups() {
        return join(ex, plan, 0, binding, sink);
    }
    let width = plan.var_names.len();
    let mut rows = Table::new(width);
    join(ex, plan, 0, binding, &mut Append { table: &mut rows })?;

    let mut seed = Vec::new();
    for block in &plan.unions {
        let mut next = Table::new(width);
        for row in rows.iter() {
            for branch in block {
                reseed(&mut seed, row, branch);
                eval_group(ex, branch, &mut seed, &mut Append { table: &mut next })?;
            }
        }
        rows = next;
    }

    for optional in &plan.optionals {
        let mut next = Table::new(width);
        for row in rows.iter() {
            reseed(&mut seed, row, optional);
            let before = next.len();
            eval_group(ex, optional, &mut seed, &mut Append { table: &mut next })?;
            if next.len() == before {
                next.push(row);
            }
            ex.budget.check_bindings(next.len())?;
        }
        rows = next;
    }

    for row in rows.iter() {
        if sink.done() {
            break;
        }
        if filters_pass(ex, &plan.post_filters, row)? {
            ex.deliver(sink, row)?;
        }
    }
    Ok(())
}

/// Recursive index nested-loop join: extends `binding` through the
/// patterns from `level` on and hands every complete binding to `sink`.
fn join<S: Sink>(
    ex: &mut Exec<'_, '_>,
    plan: &GroupPlan,
    level: usize,
    binding: &mut [Option<TermId>],
    sink: &mut S,
) -> Result<(), SparqlError> {
    // Filters scheduled at this level.
    if !filters_pass(ex, &plan.filters_at[level], binding)? {
        return Ok(());
    }
    let Some(pattern) = plan.patterns.get(level) else {
        return ex.deliver(sink, binding);
    };
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
    // flat indexes (it borrows only the store, so mutating the binding
    // and recursing are both fine inside the loop). The budget tick here
    // is the cooperative kill switch: every scanned row is charged, and
    // the deadline/cancel token is polled every
    // [`crate::budget::POLL_INTERVAL`] rows.
    let store = ex.store;
    for triple in store.scan_range(scan_pattern) {
        ex.budget.tick_scan()?;
        let mut touched: [Option<usize>; 3] = [None; 3];
        if !bind_slot(pattern.s, triple.s, binding, &mut touched[0])
            || !bind_slot(pattern.p, triple.p, binding, &mut touched[1])
            || !bind_slot(pattern.o, triple.o, binding, &mut touched[2])
        {
            undo(binding, &touched);
            continue;
        }
        join(ex, plan, level + 1, binding, sink)?;
        undo(binding, &touched);
        if sink.done() {
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

/// Whether `binding` passes every filter of `filters`.
fn filters_pass(
    ex: &mut Exec<'_, '_>,
    filters: &[PExpr],
    binding: &[Option<TermId>],
) -> Result<bool, SparqlError> {
    for filter in filters {
        if !filter_passes(ex, filter, binding)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates a filter; evaluation errors count as `false` per SPARQL.
/// Budget breaches are the one exception: absorbing a cancellation
/// raised inside an EXISTS sub-query would silently turn a killed query
/// into a partial result set, so they propagate.
fn filter_passes(
    ex: &mut Exec<'_, '_>,
    filter: &PExpr,
    binding: &[Option<TermId>],
) -> Result<bool, SparqlError> {
    match eval_expr(ex, filter, binding) {
        Ok(v) => Ok(v.effective_boolean().unwrap_or(false)),
        Err(e) if e.is_budget() => Err(e),
        Err(_) => Ok(false),
    }
}

fn var_value<'s>(
    store: &'s TripleStore,
    idx: usize,
    binding: &[Option<TermId>],
) -> Result<Value<'s>, SparqlError> {
    let id = binding
        .get(idx)
        .copied()
        .flatten()
        .ok_or_else(|| SparqlError::eval("unbound variable in expression"))?;
    Ok(Value::Term(Cow::Borrowed(store.dict().resolve(id))))
}

/// Evaluates `expr` over `binding`. The value borrows its terms from the
/// dictionary (`'s`) or the plan, whichever lives shorter (`'a`).
fn eval_expr<'a, 's: 'a>(
    ex: &mut Exec<'s, '_>,
    expr: &'a PExpr,
    binding: &[Option<TermId>],
) -> Result<Value<'a>, SparqlError> {
    match expr {
        PExpr::Var(i) => var_value(ex.store, *i, binding),
        PExpr::Const(term) => Ok(Value::Term(Cow::Borrowed(term))),
        PExpr::Compare(op, a, b) => {
            let va = eval_expr(ex, a, binding)?;
            let vb = eval_expr(ex, b, binding)?;
            Ok(Value::Bool(va.compare(*op, &vb)?))
        }
        PExpr::And(a, b) => {
            let va = eval_expr(ex, a, binding)?.effective_boolean()?;
            if !va {
                return Ok(Value::Bool(false));
            }
            let vb = eval_expr(ex, b, binding)?.effective_boolean()?;
            Ok(Value::Bool(vb))
        }
        PExpr::Or(a, b) => {
            let va = eval_expr(ex, a, binding)?.effective_boolean()?;
            if va {
                return Ok(Value::Bool(true));
            }
            let vb = eval_expr(ex, b, binding)?.effective_boolean()?;
            Ok(Value::Bool(vb))
        }
        PExpr::Not(inner) => {
            let v = eval_expr(ex, inner, binding)?.effective_boolean()?;
            Ok(Value::Bool(!v))
        }
        PExpr::Call(builtin, args) => eval_builtin(ex, *builtin, args, binding),
        PExpr::Exists { plan, negated } => {
            let found = any_solution(ex, plan, binding)?;
            Ok(Value::Bool(found != *negated))
        }
    }
}

fn eval_builtin<'a, 's: 'a>(
    ex: &mut Exec<'s, '_>,
    builtin: Builtin,
    args: &'a [PExpr],
    binding: &[Option<TermId>],
) -> Result<Value<'a>, SparqlError> {
    match builtin {
        Builtin::Bound => {
            let bound = match &args[0] {
                PExpr::Var(i) => binding.get(*i).copied().flatten().is_some(),
                _ => true,
            };
            Ok(Value::Bool(bound))
        }
        Builtin::Str => {
            let v = eval_expr(ex, &args[0], binding)?;
            Ok(Value::Str(Cow::Owned(v.string_form()?.into_owned())))
        }
        Builtin::Lang => {
            let v = eval_expr(ex, &args[0], binding)?;
            let Value::Term(term) = &v else {
                return Err(SparqlError::eval("LANG expects a literal"));
            };
            let Term::Literal { lang, .. } = term.as_ref() else {
                return Err(SparqlError::eval("LANG expects a literal"));
            };
            Ok(Value::Str(Cow::Owned(lang.clone().unwrap_or_default())))
        }
        Builtin::Datatype => {
            let v = eval_expr(ex, &args[0], binding)?;
            let Value::Term(term) = &v else {
                return Err(SparqlError::eval("DATATYPE expects a literal"));
            };
            let Term::Literal { datatype, lang, .. } = term.as_ref() else {
                return Err(SparqlError::eval("DATATYPE expects a literal"));
            };
            let dt = match (datatype, lang) {
                (Some(dt), _) => dt.as_str(),
                (None, Some(_)) => "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString",
                (None, None) => "http://www.w3.org/2001/XMLSchema#string",
            };
            Ok(Value::Term(Cow::Owned(Term::iri(dt))))
        }
        Builtin::IsIri | Builtin::IsLiteral | Builtin::IsBlank => {
            let Value::Term(term) = eval_expr(ex, &args[0], binding)? else {
                return Ok(Value::Bool(false));
            };
            Ok(Value::Bool(match builtin {
                Builtin::IsIri => term.is_iri(),
                Builtin::IsLiteral => term.is_literal(),
                _ => term.is_bnode(),
            }))
        }
        Builtin::StrStarts | Builtin::StrEnds | Builtin::Contains => {
            let va = eval_expr(ex, &args[0], binding)?;
            let vb = eval_expr(ex, &args[1], binding)?;
            let (a, b) = (va.string_form()?, vb.string_form()?);
            Ok(Value::Bool(match builtin {
                Builtin::StrStarts => a.starts_with(&*b),
                Builtin::StrEnds => a.ends_with(&*b),
                _ => a.contains(&*b),
            }))
        }
        Builtin::Regex => {
            let vtext = eval_expr(ex, &args[0], binding)?;
            let vpattern = eval_expr(ex, &args[1], binding)?;
            Ok(Value::Bool(regex_lite(
                &vtext.string_form()?,
                &vpattern.string_form()?,
            )))
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
    fn order_by_a_variable_the_select_does_not_project() {
        let mut s = TripleStore::new();
        for (x, y) in [("e:a", "z"), ("e:b", "a"), ("e:c", "m"), ("e:d", "m")] {
            s.insert_terms(&Term::iri(x), &Term::iri("r:p"), &Term::iri(y));
        }
        let xs = |q: &str| -> Vec<String> {
            execute(&s, q)
                .unwrap()
                .column("x")
                .iter()
                .map(|t| t.as_iri().unwrap().to_owned())
                .collect()
        };
        // e:c and e:d tie on ?y and keep their solution order both ways.
        assert_eq!(
            xs("SELECT ?x WHERE { ?x <r:p> ?y } ORDER BY ?y"),
            ["e:b", "e:c", "e:d", "e:a"]
        );
        assert_eq!(
            xs("SELECT ?x WHERE { ?x <r:p> ?y } ORDER BY DESC(?y)"),
            ["e:a", "e:c", "e:d", "e:b"]
        );
        assert_eq!(
            xs("SELECT ?x WHERE { ?x <r:p> ?y } ORDER BY ?y LIMIT 2 OFFSET 1"),
            ["e:c", "e:d"]
        );
        assert_eq!(
            xs("SELECT DISTINCT ?x WHERE { ?x <r:p> ?y } ORDER BY DESC(?y) LIMIT 3"),
            ["e:a", "e:c", "e:d"]
        );
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
