//! Query planning: variable numbering, constant encoding, greedy join
//! ordering, and filter scheduling.
//!
//! Planning happens per query against a concrete store: constant terms are
//! looked up in the store's dictionary once (a constant absent from the
//! dictionary proves the pattern matches nothing), and BGP patterns are
//! reordered so the most selective ones run first in the index
//! nested-loop join.

use crate::ast::{Builtin, CompareOp, Expr, GroupGraphPattern, NodePattern};
use sofya_rdf::{StoreStats, Term, TermId, TriplePattern, TripleStore};

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
                for pattern in &plan.patterns {
                    for slot in pattern.slots() {
                        if let Slot::Var(i) = slot {
                            if i < outer_len {
                                acc.push(i);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A planned group pattern: ordered patterns plus scheduled filters,
/// union blocks, and optional extensions.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlan {
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

        // Greedy ordering: repeatedly pick the pattern with the smallest
        // estimated result cardinality given the variables bound so far.
        let outer_len = outer_vars.len();
        let mut bound: Vec<bool> = vec![false; var_names.len()];
        for b in bound.iter_mut().take(outer_len) {
            *b = true;
        }
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
            let compiled = compile_expr(filter, store, &var_names, opts);
            let mut used = Vec::new();
            compiled.max_outer_var(var_names.len(), &mut used);
            if used.iter().any(|&v| !bgp_bound[v]) {
                post_filters.push(compiled);
            } else {
                let level = earliest_level(&used, outer_len, &ordered);
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
                    .map(|branch| GroupPlan::build_with(store, branch, &var_names, opts))
                    .collect()
            })
            .collect();
        let optionals: Vec<GroupPlan> = pattern
            .optionals
            .iter()
            .map(|optional| GroupPlan::build_with(store, optional, &var_names, opts))
            .collect();

        GroupPlan {
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

/// Earliest pattern level at which every index in `used` is bound.
fn earliest_level(used: &[usize], outer_len: usize, ordered: &[PlannedPattern]) -> usize {
    if used.iter().all(|&v| v < outer_len) {
        return 0;
    }
    let mut bound: Vec<usize> = used.iter().copied().filter(|&v| v >= outer_len).collect();
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

fn compile_expr(
    expr: &Expr,
    store: &TripleStore,
    var_names: &[String],
    opts: PlanOptions<'_>,
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
            Box::new(compile_expr(a, store, var_names, opts)),
            Box::new(compile_expr(b, store, var_names, opts)),
        ),
        Expr::And(a, b) => PExpr::And(
            Box::new(compile_expr(a, store, var_names, opts)),
            Box::new(compile_expr(b, store, var_names, opts)),
        ),
        Expr::Or(a, b) => PExpr::Or(
            Box::new(compile_expr(a, store, var_names, opts)),
            Box::new(compile_expr(b, store, var_names, opts)),
        ),
        Expr::Not(inner) => PExpr::Not(Box::new(compile_expr(inner, store, var_names, opts))),
        Expr::Call(builtin, args) => PExpr::Call(
            *builtin,
            args.iter()
                .map(|a| compile_expr(a, store, var_names, opts))
                .collect(),
        ),
        Expr::Exists { pattern, negated } => {
            let plan = GroupPlan::build_with(store, pattern, var_names, opts);
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
