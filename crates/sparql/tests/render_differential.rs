//! `Prepared::render` against the reference it replaces: the spliced
//! text is byte for byte `unparse(bind(..))` (and `render_paged`,
//! `unparse(bind_paged(..))`), and it parses back to the bound query —
//! or the render is refused, exactly when that text would not.
//!
//! Templates: every one `sofya_endpoint::helpers` sends, captured by
//! running the helpers against an endpoint that records them, and
//! random ones with parameters in subjects, predicates, objects,
//! `FILTER` operands, `OPTIONAL` groups, `UNION` branches and
//! `EXISTS` / `NOT EXISTS` bodies. Arguments: IRIs, blank-node labels
//! and literals (plain, tagged, typed, integers) drawn from a pool of
//! characters a term may carry — whitespace, `<`, `>`, quotes,
//! backslashes, control characters, Unicode whitespace, non-ASCII — or
//! only from the characters each kind keeps clean.

use proptest::test_runner::TestRng;
use sofya_endpoint::helpers;
use sofya_endpoint::{Endpoint, EndpointError, Request, Response};
use sofya_rdf::Term;
use sofya_sparql::{parse_query, unparse, Prepared, QueryBudget, ResultSet, SparqlError};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Answers every request with an empty answer of its shape and keeps
/// each prepared template it sees, once.
#[derive(Default)]
struct Capture(Mutex<Vec<Prepared>>);

impl Capture {
    fn answer(&self, req: Request<'_>) -> Response {
        let prepared = match req {
            Request::Batch(reqs) => {
                return Response::Batch(reqs.into_iter().map(|r| self.answer(r)).collect())
            }
            Request::Select { .. } => {
                return Response::Rows(ResultSet::new(Vec::new(), Vec::new()))
            }
            Request::Ask { .. } => return Response::Boolean(false),
            Request::PreparedSelect { prepared, .. }
            | Request::PreparedAsk { prepared, .. }
            | Request::PreparedSelectPaged { prepared, .. } => prepared,
        };
        let mut seen = self.0.lock().unwrap();
        if !seen
            .iter()
            .any(|p| p.cache_token() == prepared.cache_token())
        {
            seen.push(prepared.clone());
        }
        if prepared.is_select() {
            Response::Rows(ResultSet::new(Vec::new(), Vec::new()))
        } else {
            Response::Boolean(false)
        }
    }
}

impl Endpoint for Capture {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        _: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        Ok(self.answer(req))
    }
}

/// Every template the helpers send.
fn helper_templates() -> Vec<Prepared> {
    let ep = Capture::default();
    let (e, r, sa) = ("e:a", "r:p", "owl:sameAs");
    helpers::relation_facts_page(&ep, r, 5, 0).unwrap();
    helpers::linked_entity_facts_page(&ep, r, sa, 5, 0).unwrap();
    helpers::linked_literal_facts_page(&ep, r, sa, 5, 0).unwrap();
    helpers::linked_entity_fact_count(&ep, r, sa).unwrap();
    helpers::linked_literal_fact_count(&ep, r, sa).unwrap();
    helpers::relations_of_entity_batch(&ep, &[e]).unwrap();
    helpers::relations_between_batch(&ep, &[(e, e)]).unwrap();
    helpers::objects_of_batch(&ep, &[(e, r)]).unwrap();
    helpers::has_fact_batch(&ep, r, &[(e, e)]).unwrap();
    helpers::same_as_of(&ep, e, sa).unwrap();
    helpers::linked_contrastive_subjects_page(&ep, r, "r:q", sa, 5, 0).unwrap();
    let templates = ep.0.into_inner().unwrap();
    assert_eq!(templates.len(), 11, "one template per prepared helper");
    templates
}

/// Characters each term kind keeps clean, and the ones that break it.
const CLEAN_IRI: &[char] = &[
    'e', 'Z', '0', '9', ':', '/', '.', '#', '-', '_', '?', '&', 'é', '日',
];
const CLEAN_LABEL: &[char] = &['b', 'Q', '0', '7', '_'];
const CLEAN_TAG: &[char] = &['e', 'n', 'G', 'B', '-', '1'];
const ANY: &[char] = &[
    'a', 'Z', '0', '_', ':', '/', '.', '#', '-', '<', '>', ' ', '\t', '\n', '\r', '"', '\\', '\'',
    '{', '}', '(', ')', '?', '@', '^', ',', ';', '*', '\u{0}', '\u{1f}', '\u{7f}', '\u{85}',
    '\u{a0}', '\u{2028}', '\u{3000}', 'é', 'ß', '日', '🦀',
];

fn text(rng: &mut TestRng, pool: &[char], max: usize) -> String {
    (0..rng.below(max + 1))
        .map(|_| pool[rng.below(pool.len())])
        .collect()
}

/// Mostly clean, sometimes anything.
fn part(rng: &mut TestRng, clean: &[char], max: usize) -> String {
    let pool = if rng.below(3) == 0 { ANY } else { clean };
    text(rng, pool, max)
}

fn term(rng: &mut TestRng) -> Term {
    match rng.below(7) {
        0 | 1 => Term::iri(part(rng, CLEAN_IRI, 12)),
        2 => Term::bnode(part(rng, CLEAN_LABEL, 6)),
        3 => Term::integer(rng.in_range_i64(-1000, 1000)),
        _ => {
            let lexical = text(rng, ANY, 10);
            let (lang, datatype) = match rng.below(5) {
                0 | 1 => (None, None),
                2 => (Some(part(rng, CLEAN_TAG, 5)), None),
                3 => (None, Some(part(rng, CLEAN_IRI, 10))),
                _ => (Some(part(rng, CLEAN_TAG, 3)), Some(part(rng, CLEAN_IRI, 5))),
            };
            Term::Literal {
                lexical,
                lang,
                datatype,
            }
        }
    }
}

/// The overrides a page request may carry.
const PAGES: [(Option<usize>, Option<usize>); 4] = [
    (None, None),
    (Some(7), None),
    (None, Some(3)),
    (Some(0), Some(12)),
];

/// Checks one render and its paged forms against the reference; returns
/// whether the render was accepted.
fn check(template: &Prepared, args: &[Term]) -> bool {
    let case = || format!("template {template:?}\nargs {args:?}");
    let accepted = same(template.bind(args), template.render(args), args, &case);
    for (limit, offset) in PAGES {
        let paged = same(
            template.bind_paged(args, limit, offset),
            template.render_paged(args, limit, offset),
            args,
            &case,
        );
        assert!(paged == accepted || !template.is_select(), "{}", case());
    }
    accepted
}

fn same(
    bound: Result<sofya_sparql::Query, SparqlError>,
    rendered: Result<String, SparqlError>,
    args: &[Term],
    case: &dyn Fn() -> String,
) -> bool {
    match (bound, rendered) {
        (Ok(query), Ok(text)) => {
            assert_eq!(text, unparse(&query), "{}", case());
            assert_eq!(parse_query(&text), Ok(query), "{}", case());
            true
        }
        (Ok(query), Err(SparqlError::Unrenderable { term })) => {
            assert!(args.contains(&term), "{}", case());
            assert_ne!(
                parse_query(&unparse(&query)),
                Ok(query),
                "refused a text that parses back\n{}",
                case()
            );
            false
        }
        // Paging an ASK: both refuse.
        (Err(_), Err(SparqlError::Eval { .. })) => false,
        (bound, rendered) => panic!("bind {bound:?}, render {rendered:?}\n{}", case()),
    }
}

/// Renders `rounds` argument rows per template; both outcomes must be
/// common, or the check says nothing.
fn check_all(templates: &[Prepared], rounds: usize, rng: &mut TestRng) {
    let (mut accepted, mut refused) = (0, 0);
    for template in templates {
        let arity = (0..).find(|&n| template.bind(&vec![Term::iri("e:x"); n]).is_ok());
        let arity = arity.unwrap();
        for _ in 0..rounds {
            let args: Vec<Term> = (0..arity).map(|_| term(rng)).collect();
            if check(template, &args) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    }
    let total = accepted + refused;
    assert!(
        accepted * 5 >= total,
        "{accepted} of {total} renders accepted"
    );
    assert!(
        refused * 10 >= total,
        "{refused} of {total} renders refused"
    );
}

#[test]
fn render_is_unparse_of_bind_on_every_helper_template() {
    let mut rng = TestRng::deterministic("render_is_unparse_of_bind_on_every_helper_template");
    check_all(&helper_templates(), 400, &mut rng);
}

/// Random templates over parameters `?p0`–`?p2` and variables
/// `?v0`–`?v2`, nested two groups deep.
struct TemplateGen<'r> {
    rng: &'r mut TestRng,
    params: BTreeSet<usize>,
    vars: BTreeSet<usize>,
}

impl TemplateGen<'_> {
    fn var(&mut self) -> String {
        if self.rng.below(2) == 0 {
            let i = self.rng.below(3);
            self.params.insert(i);
            format!("?p{i}")
        } else {
            let i = self.rng.below(3);
            self.vars.insert(i);
            format!("?v{i}")
        }
    }

    fn node(&mut self, constants: &[&str]) -> String {
        if self.rng.below(4) == 0 {
            constants[self.rng.below(constants.len())].to_owned()
        } else {
            self.var()
        }
    }

    fn group(&mut self, depth: usize) -> String {
        let mut parts = Vec::new();
        for _ in 0..1 + self.rng.below(2) {
            let s = self.node(&["<e:c>", "_:k"]);
            let p = self.node(&["<r:c>"]);
            let o = self.node(&["<e:c>", "\"k\"@en", "7", "\"x\\ty\""]);
            parts.push(format!("{s} {p} {o}"));
        }
        if depth > 0 && self.rng.below(3) == 0 {
            let (a, b) = (self.group(depth - 1), self.group(depth - 1));
            parts.push(format!("{{ {a} }} UNION {{ {b} }}"));
        }
        if depth > 0 && self.rng.below(3) == 0 {
            parts.push(format!("OPTIONAL {{ {} }}", self.group(depth - 1)));
        }
        if self.rng.below(2) == 0 {
            parts.push(format!("FILTER({})", self.expr(depth)));
        }
        parts.join(" . ")
    }

    fn operand(&mut self) -> String {
        self.node(&["<e:c>", "\"k\"", "3", "\"d\"^^<x:t>"])
    }

    fn expr(&mut self, depth: usize) -> String {
        match self.rng.below(if depth > 0 { 7 } else { 6 }) {
            0 => {
                let op = ["=", "!=", "<", "<=", ">", ">="][self.rng.below(6)];
                format!("({} {op} {})", self.operand(), self.operand())
            }
            1 => format!("({} && {})", self.expr(0), self.expr(0)),
            2 => format!("({} || {})", self.expr(0), self.expr(0)),
            3 => format!("!{}", self.expr(0)),
            4 => format!("STRSTARTS(STR({}), {})", self.operand(), self.operand()),
            5 => format!("ISLITERAL({})", self.operand()),
            _ => {
                let not = if self.rng.below(2) == 0 { "NOT " } else { "" };
                format!("{not}EXISTS {{ {} }}", self.group(depth - 1))
            }
        }
    }

    fn template(rng: &mut TestRng) -> Prepared {
        let mut g = TemplateGen {
            rng,
            params: BTreeSet::new(),
            vars: BTreeSet::new(),
        };
        let body = g.group(2);
        let vars: Vec<String> = g.vars.iter().map(|i| format!("?v{i}")).collect();
        let text = if vars.is_empty() || g.rng.below(4) == 0 {
            format!("ASK {{ {body} }}")
        } else {
            let distinct = ["", "DISTINCT "][g.rng.below(2)];
            let projection = if g.rng.below(3) == 0 {
                "(COUNT(*) AS ?n)".to_owned()
            } else {
                vars.join(" ")
            };
            let order = match g.rng.below(3) {
                0 => String::new(),
                1 => format!(" ORDER BY {}", vars[0]),
                _ => format!(" ORDER BY DESC({})", vars[vars.len() - 1]),
            };
            let page = [" LIMIT 5", " OFFSET 2", " LIMIT 4 OFFSET 1", ""][g.rng.below(4)];
            format!("SELECT {distinct}{projection} WHERE {{ {body} }}{order}{page}")
        };
        let params: Vec<String> = g.params.iter().map(|i| format!("p{i}")).collect();
        let names: Vec<&str> = params.iter().map(String::as_str).collect();
        Prepared::new(&text, &names).unwrap_or_else(|e| panic!("{text}: {e}"))
    }
}

#[test]
fn render_is_unparse_of_bind_on_generated_templates() {
    let mut rng = TestRng::deterministic("render_is_unparse_of_bind_on_generated_templates");
    let templates: Vec<Prepared> = (0..300).map(|_| TemplateGen::template(&mut rng)).collect();
    check_all(&templates, 30, &mut rng);
}
