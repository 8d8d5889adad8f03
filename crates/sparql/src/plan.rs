//! Query planning: variable numbering, constant encoding, greedy join
//! ordering, and filter scheduling.
//!
//! Planning happens per query against a concrete store: constant terms are
//! looked up in the store's dictionary once (a constant absent from the
//! dictionary proves the pattern matches nothing), and BGP patterns are
//! reordered so the most selective ones run first in the index
//! nested-loop join.
//!
//! A `VALUES` cell is a binding, not a pattern: a term the store lacks
//! still matches no triple, but it must compare and project as itself.
//! It gets an id past the end of the store's dictionary, one per distinct
//! term, and [`Foreign`] resolves those ids.

use crate::ast::{Builtin, CompareOp, Expr, GroupGraphPattern, NodePattern};
use sofya_rdf::{StoreStats, Term, TermId, TriplePattern, TripleStore};
use std::collections::HashMap;

/// Planner knobs.
///
/// The default plans with greedy selectivity-driven join reordering and
/// no precomputed statistics (the planner then falls back to exact
/// [`TripleStore::count_pattern`] prefix counts alone, which are computed
/// per candidate in O(log n)).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanOptions<'a> {
    /// Keep the written pattern order (disables reordering; used by the
    /// planner-differential tests and as an escape hatch).
    pub preserve_order: bool,
    /// Precomputed statistics of the store planned against. When
    /// present, bound-variable positions are discounted by per-predicate
    /// distinct-value counts instead of a square-root fallback.
    pub stats: Option<&'a StoreStats>,
}

/// One position of a planned pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// A variable, by index into the plan's variable table.
    Var(usize),
    /// A constant: `Some(id)` if interned in the store, `None` if the
    /// constant does not occur in the store at all (pattern can't match).
    Const(Option<TermId>),
}

/// A triple pattern with encoded slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedPattern {
    /// Subject slot.
    pub s: Slot,
    /// Predicate slot.
    pub p: Slot,
    /// Object slot.
    pub o: Slot,
}

impl PlannedPattern {
    fn slots(&self) -> [Slot; 3] {
        [self.s, self.p, self.o]
    }

    /// Whether some constant is absent from the dictionary.
    pub fn is_unsatisfiable(&self) -> bool {
        self.slots().iter().any(|s| matches!(s, Slot::Const(None)))
    }
}

/// A compiled filter expression with variables resolved to indices.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// Variable by index.
    Var(usize),
    /// Constant term.
    Const(Term),
    /// Comparison.
    Compare(CompareOp, Box<PExpr>, Box<PExpr>),
    /// Conjunction.
    And(Box<PExpr>, Box<PExpr>),
    /// Disjunction.
    Or(Box<PExpr>, Box<PExpr>),
    /// Negation.
    Not(Box<PExpr>),
    /// Built-in call.
    Call(Builtin, Vec<PExpr>),
    /// `[NOT] EXISTS` with its own sub-plan sharing the outer variable
    /// table as a prefix.
    Exists {
        /// Sub-plan; its `var_names` extends the outer table.
        plan: Box<GroupPlan>,
        /// `true` for `NOT EXISTS`.
        negated: bool,
    },
}

impl PExpr {
    fn max_outer_var(&self, outer_len: usize, acc: &mut Vec<usize>) {
        match self {
            PExpr::Var(i) => {
                if *i < outer_len {
                    acc.push(*i);
                }
            }
            PExpr::Const(_) => {}
            PExpr::Compare(_, a, b) | PExpr::And(a, b) | PExpr::Or(a, b) => {
                a.max_outer_var(outer_len, acc);
                b.max_outer_var(outer_len, acc);
            }
            PExpr::Not(inner) => inner.max_outer_var(outer_len, acc),
            PExpr::Call(_, args) => {
                for a in args {
                    a.max_outer_var(outer_len, acc);
                }
            }
            PExpr::Exists { plan, .. } => {
                // Shared variables are exactly those sub-plan variables that
                // fall inside the outer table prefix.
                let pattern_vars =
                    plan.patterns
                        .iter()
                        .flat_map(|p| p.slots())
                        .filter_map(|slot| match slot {
                            Slot::Var(i) => Some(i),
                            Slot::Const(_) => None,
                        });
                let table_vars = plan.values.iter().flat_map(|t| t.vars.iter().copied());
                acc.extend(pattern_vars.chain(table_vars).filter(|&i| i < outer_len));
            }
        }
    }
}

/// The terms a query's `VALUES` tables name that the store lacks, by the
/// ids planning gave them: the first is the store dictionary's length
/// at planning time, so no id of the store's own is one of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Foreign {
    base: u32,
    terms: Vec<Term>,
}

impl Foreign {
    /// The term `id` stands for: the store's, or a foreign one.
    pub fn resolve<'a>(&'a self, store: &'a TripleStore, id: TermId) -> &'a Term {
        id.0.checked_sub(self.base)
            .and_then(|i| self.terms.get(i as usize))
            .unwrap_or_else(|| store.dict().resolve(id))
    }
}

/// Hands out the ids of [`Foreign`] while a query is planned.
struct Interner<'q> {
    foreign: Foreign,
    ids: HashMap<&'q Term, TermId>,
}

impl<'q> Interner<'q> {
    fn new(store: &TripleStore) -> Self {
        Self {
            foreign: Foreign {
                base: store.dict().len() as u32,
                terms: Vec::new(),
            },
            ids: HashMap::new(),
        }
    }

    /// `term`'s id in the store, or else its foreign id.
    fn id(&mut self, store: &TripleStore, term: &'q Term) -> TermId {
        if let Some(id) = store.dict().lookup(term) {
            return id;
        }
        let Foreign { base, terms } = &mut self.foreign;
        *self.ids.entry(term).or_insert_with(|| {
            terms.push(term.clone());
            TermId(*base + (terms.len() - 1) as u32)
        })
    }
}

/// A group's `VALUES` table, planned.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuesPlan {
    /// The column variables, by index into the plan's variable table.
    pub vars: Vec<usize>,
    /// The rows, back to back, one id per column: the store's id of the
    /// cell's term, or its [`Foreign`] id.
    pub cells: Vec<TermId>,
}

impl ValuesPlan {
    /// The rows, in order.
    pub fn rows(&self) -> std::slice::Chunks<'_, TermId> {
        self.cells.chunks(self.vars.len().max(1))
    }
}

/// A planned group pattern: ordered patterns plus scheduled filters,
/// union blocks, and optional extensions.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlan {
    /// The group's `VALUES` table: evaluation runs the group once per
    /// row, seeded with it.
    pub values: Option<ValuesPlan>,
    /// What the ids of the query's tables that the store lacks stand for;
    /// empty except in the top-level plan.
    pub foreign: Foreign,
    /// All variables in scope, indices matching [`Slot::Var`]. The table
    /// includes every variable of nested `UNION`/`OPTIONAL` groups, so all
    /// solution rows of one query share a width. For an `EXISTS` sub-plan
    /// the table extends the outer scope's table as a prefix.
    pub var_names: Vec<String>,
    /// Triple patterns in execution order.
    pub patterns: Vec<PlannedPattern>,
    /// `filters_at[k]` holds filters to evaluate once the first `k`
    /// patterns have bound their variables (`k` ranges 0..=patterns.len()).
    pub filters_at: Vec<Vec<PExpr>>,
    /// Filters referencing variables only bound by unions/optionals; they
    /// run after the whole group is evaluated.
    pub post_filters: Vec<PExpr>,
    /// Planned `UNION` blocks (each a list of branch plans).
    pub unions: Vec<Vec<GroupPlan>>,
    /// Planned `OPTIONAL` extensions (left joins, in order).
    pub optionals: Vec<GroupPlan>,
}

impl GroupPlan {
    /// Plans `pattern` against `store`, with `outer_vars` naming variables
    /// inherited from an enclosing scope (empty for top-level queries).
    pub fn build(store: &TripleStore, pattern: &GroupGraphPattern, outer_vars: &[String]) -> Self {
        Self::build_with(store, pattern, outer_vars, PlanOptions::default())
    }

    /// Plans `pattern` with explicit [`PlanOptions`].
    pub fn build_with(
        store: &TripleStore,
        pattern: &GroupGraphPattern,
        outer_vars: &[String],
        opts: PlanOptions<'_>,
    ) -> Self {
        let mut interner = Interner::new(store);
        let mut plan = Self::plan(store, pattern, outer_vars, opts, &mut interner);
        plan.foreign = interner.foreign;
        plan
    }

    /// [`GroupPlan::build_with`] of one group of a query, whose tables'
    /// foreign terms `interner` collects.
    fn plan<'q>(
        store: &TripleStore,
        pattern: &'q GroupGraphPattern,
        outer_vars: &[String],
        opts: PlanOptions<'_>,
        interner: &mut Interner<'q>,
    ) -> Self {
        // Pre-collect every variable of the group tree so the parent and
        // all union/optional sub-plans agree on one binding width.
        let mut var_names: Vec<String> = outer_vars.to_vec();
        {
            let mut tree_vars = Vec::new();
            crate::ast::collect_pattern_vars(pattern, &mut tree_vars);
            for v in tree_vars {
                if !var_names.contains(&v) {
                    var_names.push(v);
                }
            }
        }
        let mut var_index = |name: &str, var_names: &mut Vec<String>| -> usize {
            if let Some(i) = var_names.iter().position(|v| v == name) {
                i
            } else {
                var_names.push(name.to_owned());
                var_names.len() - 1
            }
        };

        // Encode patterns.
        let mut patterns: Vec<PlannedPattern> = pattern
            .triples
            .iter()
            .map(|tp| PlannedPattern {
                s: encode(&tp.s, store, &mut var_index, &mut var_names),
                p: encode(&tp.p, store, &mut var_index, &mut var_names),
                o: encode(&tp.o, store, &mut var_index, &mut var_names),
            })
            .collect();

        // The table's cells, and its variables' indices.
        let values = pattern.values.as_ref().map(|table| ValuesPlan {
            vars: table
                .vars
                .iter()
                .map(|v| var_index(v, &mut var_names))
                .collect(),
            cells: table
                .cells
                .iter()
                .map(|term| interner.id(store, term))
                .collect(),
        });

        // Greedy ordering: repeatedly pick the pattern with the smallest
        // estimated result cardinality given the variables bound so far:
        // inherited ones and the table's, from the start.
        let outer_len = outer_vars.len();
        let mut bound: Vec<bool> = vec![false; var_names.len()];
        for b in bound.iter_mut().take(outer_len) {
            *b = true;
        }
        for &v in values.iter().flat_map(|table| &table.vars) {
            bound[v] = true;
        }
        let seeded = bound.clone();
        let mut ordered: Vec<PlannedPattern> = Vec::with_capacity(patterns.len());
        if opts.preserve_order {
            for p in &patterns {
                for slot in p.slots() {
                    if let Slot::Var(v) = slot {
                        bound[v] = true;
                    }
                }
            }
            ordered.append(&mut patterns);
        }
        while !patterns.is_empty() {
            // Stable tie-break: the first pattern among equals wins, so plans
            // are deterministic and follow query order when estimates tie.
            let mut best_idx = 0;
            let mut best_cost = estimated_cardinality(store, opts.stats, &patterns[0], &bound);
            for (i, p) in patterns.iter().enumerate().skip(1) {
                let cost = estimated_cardinality(store, opts.stats, p, &bound);
                if cost < best_cost {
                    best_idx = i;
                    best_cost = cost;
                }
            }
            let chosen = patterns.remove(best_idx);
            for slot in chosen.slots() {
                if let Slot::Var(v) = slot {
                    bound[v] = true;
                }
            }
            ordered.push(chosen);
        }

        // Variables bound by the basic pattern itself (or inherited).
        let bgp_bound: Vec<bool> = bound.clone();

        // Compile filters. Those fully answerable from the basic pattern
        // are scheduled at the earliest join level where their variables
        // are bound; the rest (reading union/optional variables) run after
        // the whole group.
        let levels = ordered.len();
        let mut filters_at: Vec<Vec<PExpr>> = vec![Vec::new(); levels + 1];
        let mut post_filters = Vec::new();
        for filter in &pattern.filters {
            let compiled = compile_expr(filter, store, &var_names, opts, interner);
            let mut used = Vec::new();
            compiled.max_outer_var(var_names.len(), &mut used);
            if used.iter().any(|&v| !bgp_bound[v]) {
                post_filters.push(compiled);
            } else {
                let level = earliest_level(&used, &seeded, &ordered);
                filters_at[level].push(compiled);
            }
        }

        // Sub-plans share the full variable table as their outer scope, so
        // their bindings have identical width.
        let unions: Vec<Vec<GroupPlan>> = pattern
            .unions
            .iter()
            .map(|block| {
                block
                    .iter()
                    .map(|branch| GroupPlan::plan(store, branch, &var_names, opts, interner))
                    .collect()
            })
            .collect();
        let optionals: Vec<GroupPlan> = pattern
            .optionals
            .iter()
            .map(|optional| GroupPlan::plan(store, optional, &var_names, opts, interner))
            .collect();

        GroupPlan {
            values,
            foreign: Foreign::default(),
            var_names,
            patterns: ordered,
            filters_at,
            post_filters,
            unions,
            optionals,
        }
    }

    /// Whether the plan has union or optional sub-plans (disables the
    /// early-stop optimisation).
    pub fn has_subgroups(&self) -> bool {
        !self.unions.is_empty() || !self.optionals.is_empty() || !self.post_filters.is_empty()
    }

    /// Whether any pattern references a constant missing from the store.
    pub fn is_unsatisfiable(&self) -> bool {
        self.patterns.iter().any(PlannedPattern::is_unsatisfiable)
    }
}

fn encode(
    node: &NodePattern,
    store: &TripleStore,
    var_index: &mut impl FnMut(&str, &mut Vec<String>) -> usize,
    var_names: &mut Vec<String>,
) -> Slot {
    match node {
        NodePattern::Var(name) => Slot::Var(var_index(name, var_names)),
        NodePattern::Term(term) => Slot::Const(store.dict().lookup(term)),
    }
}

/// Estimated result cardinality of running `p` next. Lower runs earlier.
///
/// The estimate starts from the *exact* prefix count of the pattern's
/// constant positions (an O(log n) binary search and gallop on the store's
/// flat indexes — [`TripleStore::count_pattern`]); an unsatisfiable pattern is
/// free (it empties the result immediately). Each position held by an
/// already-bound variable narrows the scan further at runtime, so the
/// count is discounted by the number of distinct values that position can
/// take: per-predicate distinct subject/object counts when statistics are
/// available and the predicate is constant, store-level distincts for a
/// variable predicate, and a square-root damping when no statistics exist.
/// A pattern sharing no variable with the rows produced so far is a
/// Cartesian product; its estimate is penalised so connected patterns win
/// unless the disconnected one is vastly smaller.
fn estimated_cardinality(
    store: &TripleStore,
    stats: Option<&StoreStats>,
    p: &PlannedPattern,
    bound: &[bool],
) -> f64 {
    if p.is_unsatisfiable() {
        return 0.0;
    }
    let const_of = |s: Slot| match s {
        Slot::Const(id) => id,
        Slot::Var(_) => None,
    };
    let tp = TriplePattern {
        s: const_of(p.s),
        p: const_of(p.p),
        o: const_of(p.o),
    };
    let mut card = store.count_pattern(tp) as f64;

    let bound_var = |s: Slot| matches!(s, Slot::Var(i) if bound[i]);
    let pred_stats = tp.p.and_then(|pid| stats.map(|st| st.get(pid)));
    let discount = |card: f64, distinct: Option<usize>| -> f64 {
        match distinct {
            Some(d) => card / (d.max(1) as f64),
            // No statistics: damp by sqrt, i.e. assume a bound variable
            // keeps roughly the square root of the matching triples.
            None => card.sqrt(),
        }
    };
    let mut card_after = card;
    if bound_var(p.s) {
        let d = match pred_stats {
            Some(ps) => ps.map(|ps| ps.distinct_subjects).or(Some(1)),
            None => stats.map(|st| st.distinct_subjects(store)),
        };
        card_after = discount(card_after, d);
    }
    if bound_var(p.o) {
        let d = match pred_stats {
            Some(ps) => ps.map(|ps| ps.distinct_objects).or(Some(1)),
            None => stats.map(|st| st.distinct_objects(store)),
        };
        card_after = discount(card_after, d);
    }
    if bound_var(p.p) {
        let d = stats.map(StoreStats::predicate_count);
        card_after = discount(card_after, d);
    }
    card = card_after.max(f64::MIN_POSITIVE);

    // Cartesian-product penalty: joining a pattern that shares no bound
    // variable multiplies the intermediate result instead of narrowing it.
    let any_bound = bound.iter().any(|b| *b);
    let has_var = p.slots().iter().any(|s| matches!(s, Slot::Var(_)));
    let shares = p
        .slots()
        .iter()
        .any(|s| matches!(s, Slot::Var(i) if bound[*i]));
    if any_bound && has_var && !shares {
        card *= 1e6;
    }
    card
}

/// Earliest pattern level at which every index in `used` is bound, those
/// `seeded` being bound from the start.
fn earliest_level(used: &[usize], seeded: &[bool], ordered: &[PlannedPattern]) -> usize {
    let mut bound: Vec<usize> = used.iter().copied().filter(|&v| !seeded[v]).collect();
    if bound.is_empty() {
        return 0;
    }
    for (level, p) in ordered.iter().enumerate() {
        for slot in p.slots() {
            if let Slot::Var(v) = slot {
                bound.retain(|&u| u != v);
            }
        }
        if bound.is_empty() {
            return level + 1;
        }
    }
    ordered.len()
}

fn compile_expr<'q>(
    expr: &'q Expr,
    store: &TripleStore,
    var_names: &[String],
    opts: PlanOptions<'_>,
    interner: &mut Interner<'q>,
) -> PExpr {
    match expr {
        Expr::Var(name) => {
            // A filter variable not bound anywhere in the pattern is
            // permanently unbound; represent it as a fresh out-of-range
            // index so evaluation yields "unbound".
            let idx = var_names
                .iter()
                .position(|v| v == name)
                .unwrap_or(usize::MAX);
            PExpr::Var(idx)
        }
        Expr::Const(t) => PExpr::Const(t.clone()),
        Expr::Compare(op, a, b) => PExpr::Compare(
            *op,
            Box::new(compile_expr(a, store, var_names, opts, interner)),
            Box::new(compile_expr(b, store, var_names, opts, interner)),
        ),
        Expr::And(a, b) => PExpr::And(
            Box::new(compile_expr(a, store, var_names, opts, interner)),
            Box::new(compile_expr(b, store, var_names, opts, interner)),
        ),
        Expr::Or(a, b) => PExpr::Or(
            Box::new(compile_expr(a, store, var_names, opts, interner)),
            Box::new(compile_expr(b, store, var_names, opts, interner)),
        ),
        Expr::Not(inner) => PExpr::Not(Box::new(compile_expr(
            inner, store, var_names, opts, interner,
        ))),
        Expr::Call(builtin, args) => PExpr::Call(
            *builtin,
            args.iter()
                .map(|a| compile_expr(a, store, var_names, opts, interner))
                .collect(),
        ),
        Expr::Exists { pattern, negated } => {
            let plan = GroupPlan::plan(store, pattern, var_names, opts, interner);
            PExpr::Exists {
                plan: Box::new(plan),
                negated: *negated,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::Query;
    use sofya_rdf::Term;

    fn plan_of(store: &TripleStore, q: &str) -> GroupPlan {
        match parse_query(q).unwrap() {
            Query::Select(s) => GroupPlan::build(store, &s.pattern, &[]),
            Query::Ask(p) => GroupPlan::build(store, &p, &[]),
        }
    }

    fn demo_store() -> TripleStore {
        let mut s = TripleStore::new();
        s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        s.insert_terms(&Term::iri("b"), &Term::iri("q"), &Term::iri("c"));
        s
    }

    #[test]
    fn constants_resolve_against_dictionary() {
        let store = demo_store();
        let plan = plan_of(&store, "SELECT ?x { ?x <p> <b> }");
        assert!(!plan.is_unsatisfiable());
        let plan = plan_of(&store, "SELECT ?x { ?x <not-there> ?y }");
        assert!(plan.is_unsatisfiable());
    }

    #[test]
    fn ordering_puts_constant_rich_pattern_first() {
        let store = demo_store();
        // `<a> <p> ?x` has two constants; `?x ?p2 ?y` has none.
        let plan = plan_of(&store, "SELECT ?x { ?x ?p2 ?y . <a> <p> ?x }");
        assert!(matches!(plan.patterns[0].s, Slot::Const(Some(_))));
    }

    #[test]
    fn filter_scheduled_at_earliest_possible_level() {
        let store = demo_store();
        let plan = plan_of(
            &store,
            "SELECT ?x { ?x <p> ?y . ?y <q> ?z . FILTER(?x != ?y) }",
        );
        // ?x and ?y are both bound after the first pattern (which mentions
        // both), so the filter must be scheduled at level 1.
        assert_eq!(plan.filters_at[1].len(), 1);
        assert!(plan.filters_at[2].is_empty());
    }

    #[test]
    fn exists_subplan_shares_outer_prefix() {
        let store = demo_store();
        let plan = plan_of(
            &store,
            "SELECT ?x { ?x <p> ?y FILTER NOT EXISTS { ?x <q> ?w } }",
        );
        let exists = plan
            .filters_at
            .iter()
            .flatten()
            .find_map(|f| match f {
                PExpr::Exists { plan, negated } => Some((plan, *negated)),
                _ => None,
            })
            .expect("exists filter present");
        assert!(exists.1);
        // Outer vars x, y are the prefix of the sub-plan's table.
        assert_eq!(&exists.0.var_names[..2], &plan.var_names[..2]);
        assert!(exists.0.var_names.contains(&"w".to_string()));
    }

    #[test]
    fn table_variables_are_bound_from_the_start() {
        let store = demo_store();
        let plan = plan_of(
            &store,
            "SELECT ?x { VALUES (?y ?z) { (<b> <nowhere>) } ?x ?p ?w . ?x <p> ?y FILTER(?z != ?y) }",
        );
        // `?x <p> ?y` has `?y` bound by the table, so it runs first, and
        // the filter reads only table variables: level 0.
        assert!(matches!(plan.patterns[0].p, Slot::Const(Some(_))));
        assert_eq!(plan.filters_at[0].len(), 1);
        let values = plan.values.as_ref().unwrap();
        // A term the store lacks gets an id past its dictionary, and
        // resolves as itself.
        let lacking = values.cells[1];
        assert!(lacking.index() >= store.dict().len());
        assert_eq!(plan.foreign.resolve(&store, lacking), &Term::iri("nowhere"));
        assert_eq!(
            plan.foreign.resolve(&store, values.cells[0]),
            &Term::iri("b")
        );
    }

    #[test]
    fn filter_with_unknown_var_maps_out_of_range() {
        let store = demo_store();
        let plan = plan_of(&store, "SELECT ?x { ?x <p> ?y FILTER(BOUND(?ghost)) }");
        let filter = plan.filters_at.iter().flatten().next().unwrap();
        match filter {
            PExpr::Call(Builtin::Bound, args) => {
                assert_eq!(args[0], PExpr::Var(usize::MAX));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
