//! Property test: the engine's answer to a random BGP join must equal a
//! naive nested-loop evaluation done by hand, whatever plan the optimiser
//! picks.

use proptest::prelude::*;
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{execute, execute_with_options, PlanOptions, QueryOutcome};
use std::collections::BTreeSet;

const ENTITIES: u32 = 8;
const PREDICATES: u32 = 3;
const VARS: &[&str] = &["a", "b", "c"];

/// A random triple-pattern position: variable index or constant id.
#[derive(Debug, Clone, Copy)]
enum Node {
    Var(usize),
    Entity(u32),
    Predicate(u32),
}

fn node_text(n: Node) -> String {
    match n {
        Node::Var(i) => format!("?{}", VARS[i]),
        Node::Entity(e) => format!("<e{e}>"),
        Node::Predicate(p) => format!("<p{p}>"),
    }
}

fn subject_or_object() -> impl Strategy<Value = Node> {
    prop_oneof![
        (0..VARS.len()).prop_map(Node::Var),
        (0..ENTITIES).prop_map(Node::Entity),
    ]
}

fn predicate() -> impl Strategy<Value = Node> {
    prop_oneof![
        (0..VARS.len()).prop_map(Node::Var),
        (0..PREDICATES).prop_map(Node::Predicate),
    ]
}

type PatternSpec = Vec<(Node, Node, Node)>;

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

/// Brute force: enumerate all bindings of the three variables over the
/// term universe and keep those satisfying every pattern.
fn brute_force(store: &TripleStore, patterns: &PatternSpec) -> BTreeSet<Vec<String>> {
    // Universe: every term that occurs anywhere (entities and predicates).
    let mut universe: Vec<String> = Vec::new();
    for e in 0..ENTITIES {
        universe.push(format!("e{e}"));
    }
    for p in 0..PREDICATES {
        universe.push(format!("p{p}"));
    }
    let mut out = BTreeSet::new();
    let n = universe.len();
    for ia in 0..n {
        for ib in 0..n {
            for ic in 0..n {
                let assignment = [&universe[ia], &universe[ib], &universe[ic]];
                let resolve = |node: Node| -> String {
                    match node {
                        Node::Var(v) => assignment[v].clone(),
                        Node::Entity(e) => format!("e{e}"),
                        Node::Predicate(p) => format!("p{p}"),
                    }
                };
                let ok = patterns.iter().all(|&(s, p, o)| {
                    let (s, p, o) = (resolve(s), resolve(p), resolve(o));
                    match (
                        store.dict().lookup_iri(&s),
                        store.dict().lookup_iri(&p),
                        store.dict().lookup_iri(&o),
                    ) {
                        (Some(s), Some(p), Some(o)) => store.contains(s, p, o),
                        _ => false,
                    }
                });
                if ok {
                    out.insert(assignment.iter().map(|s| s.to_string()).collect());
                }
            }
        }
    }
    out
}

/// Which variables actually appear in the pattern (unused ones roam the
/// whole universe in the brute force, so we project them away).
fn used_vars(patterns: &PatternSpec) -> [bool; 3] {
    let mut used = [false; 3];
    for &(s, p, o) in patterns {
        for n in [s, p, o] {
            if let Node::Var(v) = n {
                used[v] = true;
            }
        }
    }
    used
}

// --------------------------------------------------------------------------
// Beyond plain BGPs: FILTER / OPTIONAL / UNION against a naive oracle that
// implements the documented subset semantics (see `GroupGraphPattern`):
// base join first, then each UNION block joins every solution with each
// branch, then OPTIONALs left-join, then filters on the final rows.
// --------------------------------------------------------------------------

/// A solution mapping for the three query variables, by index.
type OBinding = [Option<String>; 3];

#[derive(Debug, Clone, Copy)]
enum FilterRhs {
    Var(usize),
    Entity(u32),
}

#[derive(Debug, Clone, Copy)]
struct FilterSpec {
    lhs: usize,
    rhs: FilterRhs,
    negated: bool,
}

type TripleSpec = (Node, Node, Node);

#[derive(Debug, Clone)]
struct GroupSpec {
    base: Vec<TripleSpec>,
    union: Option<(TripleSpec, TripleSpec)>,
    optional: Option<TripleSpec>,
    filter: Option<FilterSpec>,
}

fn group_query_text(spec: &GroupSpec) -> String {
    format!("SELECT ?a ?b ?c WHERE {{ {} }}", group_body(spec))
}

/// The text inside a group's braces.
fn group_body(spec: &GroupSpec) -> String {
    let triple =
        |&(s, p, o): &TripleSpec| format!("{} {} {}", node_text(s), node_text(p), node_text(o));
    let mut body = spec.base.iter().map(triple).collect::<Vec<_>>().join(" . ");
    if let Some((b1, b2)) = &spec.union {
        if !body.is_empty() {
            body.push_str(" . ");
        }
        body.push_str(&format!("{{ {} }} UNION {{ {} }}", triple(b1), triple(b2)));
    }
    if let Some(opt) = &spec.optional {
        body.push_str(&format!(" OPTIONAL {{ {} }}", triple(opt)));
    }
    if let Some(f) = &spec.filter {
        let rhs = match f.rhs {
            FilterRhs::Var(v) => format!("?{}", VARS[v]),
            FilterRhs::Entity(e) => format!("<e{e}>"),
        };
        let op = if f.negated { "!=" } else { "=" };
        body.push_str(&format!(" FILTER(?{} {op} {rhs})", VARS[f.lhs]));
    }
    body
}

/// Extends `binding` so `node` matches `value`; `false` on conflict.
fn try_bind(binding: &mut OBinding, node: Node, value: &str) -> bool {
    match node {
        Node::Var(i) => match &binding[i] {
            Some(existing) => existing == value,
            None => {
                binding[i] = Some(value.to_owned());
                true
            }
        },
        Node::Entity(e) => value == format!("e{e}"),
        Node::Predicate(p) => value == format!("p{p}"),
    }
}

/// Naive nested-loop join of `patterns` over the raw fact list, starting
/// from `seed` (correlated semantics: seeds carry outer bindings).
fn oracle_bgp(
    facts: &[(u32, u32, u32)],
    patterns: &[TripleSpec],
    seed: &OBinding,
) -> Vec<OBinding> {
    let mut sols = vec![seed.clone()];
    for &(ps, pp, po) in patterns {
        let mut next = Vec::new();
        for sol in &sols {
            for &(fs, fp, fo) in facts {
                let mut cand = sol.clone();
                if try_bind(&mut cand, ps, &format!("e{fs}"))
                    && try_bind(&mut cand, pp, &format!("p{fp}"))
                    && try_bind(&mut cand, po, &format!("e{fo}"))
                {
                    next.push(cand);
                }
            }
        }
        sols = next;
    }
    sols
}

/// Full-group oracle: base, then UNION (join-concat), then OPTIONAL
/// (left join), then filters on the final rows. A filter touching an
/// unbound variable is an evaluation error, which SPARQL (and the engine)
/// treats as `false`.
fn oracle_eval(facts: &[(u32, u32, u32)], spec: &GroupSpec) -> BTreeSet<Vec<String>> {
    oracle_solutions(facts, spec)
        .into_iter()
        .map(|sol| sol.iter().map(|v| v.clone().unwrap_or_default()).collect())
        .collect()
}

/// The group's solutions as a multiset, in no particular order. The store
/// holds each fact once, so the facts are deduplicated first.
fn oracle_solutions(facts: &[(u32, u32, u32)], spec: &GroupSpec) -> Vec<OBinding> {
    let facts: Vec<(u32, u32, u32)> = facts
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let facts = &facts[..];
    let mut sols = oracle_bgp(facts, &spec.base, &[None, None, None]);
    if let Some((b1, b2)) = &spec.union {
        let mut next = Vec::new();
        for sol in &sols {
            next.extend(oracle_bgp(facts, std::slice::from_ref(b1), sol));
            next.extend(oracle_bgp(facts, std::slice::from_ref(b2), sol));
        }
        sols = next;
    }
    if let Some(opt) = &spec.optional {
        let mut next = Vec::new();
        for sol in &sols {
            let extended = oracle_bgp(facts, std::slice::from_ref(opt), sol);
            if extended.is_empty() {
                next.push(sol.clone());
            } else {
                next.extend(extended);
            }
        }
        sols = next;
    }
    if let Some(f) = &spec.filter {
        sols.retain(|sol| {
            let rhs = match f.rhs {
                FilterRhs::Var(v) => sol[v].clone(),
                FilterRhs::Entity(e) => Some(format!("e{e}")),
            };
            match (&sol[f.lhs], rhs) {
                (Some(l), Some(r)) => {
                    if f.negated {
                        *l != r
                    } else {
                        *l == r
                    }
                }
                _ => false,
            }
        });
    }
    sols
}

fn engine_rows(store: &TripleStore, query: &str) -> BTreeSet<Vec<String>> {
    let rs = execute(store, query).unwrap();
    let mut out = BTreeSet::new();
    for row in rs.rows() {
        out.insert(
            (0..3)
                .map(|i| {
                    row[i]
                        .as_ref()
                        .map(|t| t.as_iri().unwrap().to_owned())
                        .unwrap_or_default()
                })
                .collect(),
        );
    }
    out
}

fn triple_spec() -> impl Strategy<Value = TripleSpec> {
    (subject_or_object(), predicate(), subject_or_object())
}

fn maybe<S>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone,
{
    prop_oneof![Just(None), strategy.prop_map(Some)]
}

fn filter_spec() -> impl Strategy<Value = FilterSpec> {
    (
        0..VARS.len(),
        prop_oneof![
            (0..VARS.len()).prop_map(FilterRhs::Var),
            (0..ENTITIES).prop_map(FilterRhs::Entity),
        ],
        (0u32..2).prop_map(|b| b == 1),
    )
        .prop_map(|(lhs, rhs, negated)| FilterSpec { lhs, rhs, negated })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_brute_force(
        facts in proptest::collection::vec(
            (0..ENTITIES, 0..PREDICATES, 0..ENTITIES), 1..25),
        patterns in proptest::collection::vec(
            (subject_or_object(), predicate(), subject_or_object()), 1..4),
    ) {
        let store = build_store(&facts);
        let query = format!(
            "SELECT ?a ?b ?c WHERE {{ {} }}",
            patterns
                .iter()
                .map(|&(s, p, o)| format!("{} {} {}", node_text(s), node_text(p), node_text(o)))
                .collect::<Vec<_>>()
                .join(" . ")
        );
        let rs = execute(&store, &query).unwrap();
        let used = used_vars(&patterns);

        // Project engine rows onto used variables.
        let mut engine: BTreeSet<Vec<String>> = BTreeSet::new();
        for row in rs.rows() {
            let projected: Vec<String> = (0..3)
                .map(|i| {
                    if used[i] {
                        row[i].as_ref().map(|t| t.as_iri().unwrap().to_owned()).unwrap_or_default()
                    } else {
                        String::new()
                    }
                })
                .collect();
            engine.insert(projected);
        }

        // Project brute-force rows the same way.
        let mut brute: BTreeSet<Vec<String>> = BTreeSet::new();
        for row in brute_force(&store, &patterns) {
            let projected: Vec<String> = (0..3)
                .map(|i| if used[i] { row[i].clone() } else { String::new() })
                .collect();
            brute.insert(projected);
        }

        prop_assert_eq!(engine, brute, "query: {}", query);
    }

    /// FILTER over a random BGP: `?x = ?y`, `?x != ?y`, and comparisons
    /// against entity constants, including filters over variables the
    /// patterns never bind (which must empty the result, not error).
    #[test]
    fn engine_matches_oracle_with_filter(
        facts in proptest::collection::vec(
            (0..ENTITIES, 0..PREDICATES, 0..ENTITIES), 1..20),
        base in proptest::collection::vec(triple_spec(), 1..4),
        filter in filter_spec(),
    ) {
        let spec = GroupSpec { base, union: None, optional: None, filter: Some(filter) };
        let store = build_store(&facts);
        let query = group_query_text(&spec);
        prop_assert_eq!(
            engine_rows(&store, &query),
            oracle_eval(&facts, &spec),
            "query: {}",
            query
        );
    }

    /// UNION and OPTIONAL around a random base pattern: the planner's
    /// greedy join ordering only sees the base BGP, so this checks that
    /// group composition (join-concat unions, left-join optionals) is
    /// preserved whatever order the base join runs in.
    #[test]
    fn engine_matches_oracle_on_union_and_optional(
        facts in proptest::collection::vec(
            (0..ENTITIES, 0..PREDICATES, 0..ENTITIES), 1..20),
        base in proptest::collection::vec(triple_spec(), 0..3),
        union in maybe((triple_spec(), triple_spec())),
        optional in maybe(triple_spec()),
    ) {
        let spec = GroupSpec { base, union, optional, filter: None };
        let store = build_store(&facts);
        let query = group_query_text(&spec);
        prop_assert_eq!(
            engine_rows(&store, &query),
            oracle_eval(&facts, &spec),
            "query: {}",
            query
        );
    }

    /// The full mix: base + UNION + OPTIONAL + FILTER in one group, so
    /// filter scheduling (during-join vs post-group) is exercised against
    /// apply-at-the-end oracle semantics, which the documented subset
    /// guarantees to be equivalent.
    #[test]
    fn engine_matches_oracle_on_full_groups(
        facts in proptest::collection::vec(
            (0..ENTITIES, 0..PREDICATES, 0..ENTITIES), 1..16),
        base in proptest::collection::vec(triple_spec(), 0..3),
        union in maybe((triple_spec(), triple_spec())),
        optional in maybe(triple_spec()),
        filter in maybe(filter_spec()),
    ) {
        let spec = GroupSpec { base, union, optional, filter };
        let store = build_store(&facts);
        let query = group_query_text(&spec);
        prop_assert_eq!(
            engine_rows(&store, &query),
            oracle_eval(&facts, &spec),
            "query: {}",
            query
        );
    }
}

// --------------------------------------------------------------------------
// Solution modifiers: DISTINCT, ORDER BY, LIMIT/OFFSET and COUNT over the
// random groups above, against the oracle's solution multiset.
// --------------------------------------------------------------------------

/// How an `ORDER BY` key is written: `?v`, `ASC(?v)` or `DESC(?v)`.
#[derive(Debug, Clone, Copy)]
struct OrderSpec {
    var: usize,
    form: u32,
}

impl OrderSpec {
    fn descending(self) -> bool {
        self.form == 2
    }
}

#[derive(Debug, Clone)]
struct Modifiers {
    /// Projected variables, by index.
    select: Vec<usize>,
    distinct: bool,
    order: Vec<OrderSpec>,
    limit: Option<usize>,
    offset: Option<usize>,
}

fn modifiers() -> impl Strategy<Value = Modifiers> {
    (
        1u32..8,
        prop_oneof![Just(false), Just(true)],
        proptest::collection::vec(
            (0..VARS.len(), 0u32..3).prop_map(|(var, form)| OrderSpec { var, form }),
            0..3,
        ),
        maybe(0usize..6),
        maybe(0usize..6),
    )
        .prop_map(|(mask, distinct, order, limit, offset)| Modifiers {
            select: (0..VARS.len()).filter(|v| mask & (1 << v) != 0).collect(),
            distinct,
            order,
            limit,
            offset,
        })
}

fn modified_query_text(spec: &GroupSpec, m: &Modifiers) -> String {
    let select: Vec<String> = m.select.iter().map(|&v| format!("?{}", VARS[v])).collect();
    let mut q = format!(
        "SELECT {}{} WHERE {{ {} }}",
        if m.distinct { "DISTINCT " } else { "" },
        select.join(" "),
        group_body(spec)
    );
    if !m.order.is_empty() {
        q.push_str(" ORDER BY");
        for key in &m.order {
            let var = VARS[key.var];
            q.push_str(&match key.form {
                0 => format!(" ?{var}"),
                1 => format!(" ASC(?{var})"),
                _ => format!(" DESC(?{var})"),
            });
        }
    }
    if let Some(limit) = m.limit {
        q.push_str(&format!(" LIMIT {limit}"));
    }
    if let Some(offset) = m.offset {
        q.push_str(&format!(" OFFSET {offset}"));
    }
    q
}

type Cells = Vec<Option<String>>;

/// What the query returns before paging, as `(ORDER BY key values,
/// projected cells)` in key order. Unbound sorts first, and DISTINCT
/// keeps each projected row's first occurrence in that order. Rows whose
/// keys tie may come in any order.
fn oracle_modified(
    facts: &[(u32, u32, u32)],
    spec: &GroupSpec,
    m: &Modifiers,
) -> Vec<(Cells, Cells)> {
    let mut rows: Vec<(Cells, Cells)> = oracle_solutions(facts, spec)
        .iter()
        .map(|sol| {
            (
                m.order.iter().map(|k| sol[k.var].clone()).collect(),
                m.select.iter().map(|&v| sol[v].clone()).collect(),
            )
        })
        .collect();
    rows.sort_by(|(a, _), (b, _)| {
        for (i, key) in m.order.iter().enumerate() {
            let ord = a[i].cmp(&b[i]);
            let ord = if key.descending() { ord.reverse() } else { ord };
            if ord.is_ne() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    if m.distinct {
        let mut seen = BTreeSet::new();
        rows.retain(|(_, cells)| seen.insert(cells.clone()));
    }
    rows
}

fn engine_cells(store: &TripleStore, query: &str, opts: PlanOptions<'_>) -> Vec<Cells> {
    match execute_with_options(store, query, opts).unwrap() {
        QueryOutcome::Solutions(rs) => rs
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .map(|cell| cell.as_ref().map(|t| t.as_iri().unwrap().to_owned()))
                    .collect()
            })
            .collect(),
        QueryOutcome::Boolean(_) => panic!("not a SELECT: {query}"),
    }
}

fn engine_count(store: &TripleStore, query: &str, opts: PlanOptions<'_>) -> i64 {
    match execute_with_options(store, query, opts).unwrap() {
        QueryOutcome::Solutions(rs) => rs.single_integer().unwrap(),
        QueryOutcome::Boolean(_) => panic!("not a SELECT: {query}"),
    }
}

/// Both plan choices: greedy reordering and written order.
fn plan_choices() -> [PlanOptions<'static>; 2] {
    [
        PlanOptions::default(),
        PlanOptions {
            preserve_order: true,
            stats: None,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// DISTINCT, ORDER BY (`?v`, `ASC`, `DESC`; projected or not) and
    /// LIMIT/OFFSET over random groups. The unpaged answer matches the
    /// oracle run by run of tied keys; a page is exactly rows
    /// `[offset, offset + limit)` of the unpaged answer under the same
    /// plan, whatever the plan.
    #[test]
    fn modifiers_match_oracle_and_pages_slice_the_unpaged_answer(
        facts in proptest::collection::vec(
            (0..ENTITIES, 0..PREDICATES, 0..ENTITIES), 1..20),
        // An all-variable base gives many rows, so orders show.
        base in prop_oneof![
            proptest::collection::vec(triple_spec(), 0..3),
            Just(vec![(Node::Var(0), Node::Var(1), Node::Var(2))]),
        ],
        union in maybe((triple_spec(), triple_spec())),
        optional in maybe(triple_spec()),
        filter in maybe(filter_spec()),
        m in modifiers(),
    ) {
        let spec = GroupSpec { base, union, optional, filter };
        let store = build_store(&facts);
        let unpaged = Modifiers { limit: None, offset: None, ..m.clone() };
        let expected = oracle_modified(&facts, &spec, &unpaged);
        let query = modified_query_text(&spec, &m);
        for opts in plan_choices() {
            let all = engine_cells(&store, &modified_query_text(&spec, &unpaged), opts);
            prop_assert_eq!(all.len(), expected.len(), "query: {}", query);
            let mut start = 0;
            while start < expected.len() {
                let keys = &expected[start].0;
                let end = start + expected[start..].iter().take_while(|(k, _)| k == keys).count();
                let mut got = all[start..end].to_vec();
                let mut want: Vec<Cells> =
                    expected[start..end].iter().map(|(_, cells)| cells.clone()).collect();
                got.sort();
                want.sort();
                prop_assert_eq!(got, want, "query: {} (keys {:?})", query, keys);
                start = end;
            }

            let page = engine_cells(&store, &query, opts);
            let from = m.offset.unwrap_or(0).min(all.len());
            let to = from.saturating_add(m.limit.unwrap_or(usize::MAX)).min(all.len());
            prop_assert_eq!(&page[..], &all[from..to], "query: {}", query);
        }
    }

    /// `COUNT(*)` counts the oracle's solutions and equals the row count
    /// of `SELECT *`; `COUNT(?v)` and `COUNT(DISTINCT ?v)` count the bound
    /// values of `?v`, all of them or each once.
    #[test]
    fn counts_match_oracle_and_select_star(
        facts in proptest::collection::vec(
            (0..ENTITIES, 0..PREDICATES, 0..ENTITIES), 1..20),
        base in proptest::collection::vec(triple_spec(), 0..3),
        union in maybe((triple_spec(), triple_spec())),
        optional in maybe(triple_spec()),
        filter in maybe(filter_spec()),
        counted in 0..VARS.len(),
    ) {
        let spec = GroupSpec { base, union, optional, filter };
        let store = build_store(&facts);
        let body = group_body(&spec);
        let sols = oracle_solutions(&facts, &spec);
        let bound: Vec<&String> = sols.iter().filter_map(|sol| sol[counted].as_ref()).collect();
        let distinct: BTreeSet<&String> = bound.iter().copied().collect();
        let var = VARS[counted];
        // Counting a variable no triple pattern mentions is an error.
        let mut triples = spec.base.clone();
        triples.extend(spec.union.iter().flat_map(|&(b1, b2)| [b1, b2]));
        triples.extend(spec.optional);
        let mentioned = triples
            .iter()
            .any(|&(s, p, o)| [s, p, o].iter().any(|n| matches!(n, Node::Var(v) if *v == counted)));
        for opts in plan_choices() {
            let star = engine_count(&store, &format!("SELECT (COUNT(*) AS ?n) WHERE {{ {body} }}"), opts);
            prop_assert_eq!(star, sols.len() as i64, "body: {}", body);
            let rows = engine_cells(&store, &format!("SELECT * WHERE {{ {body} }}"), opts);
            prop_assert_eq!(star, rows.len() as i64, "body: {}", body);
            if mentioned {
                let n = engine_count(&store, &format!("SELECT (COUNT(?{var}) AS ?n) WHERE {{ {body} }}"), opts);
                prop_assert_eq!(n, bound.len() as i64, "body: {}", body);
                let n = engine_count(
                    &store,
                    &format!("SELECT (COUNT(DISTINCT ?{var}) AS ?n) WHERE {{ {body} }}"),
                    opts,
                );
                prop_assert_eq!(n, distinct.len() as i64, "body: {}", body);
            }
        }
    }
}
