//! Tables against the leaves they stand for, small scope, every case
//! (Collavizza et al.'s bounded checking): over a 3-entity store and one
//! term the store lacks, every table of up to three argument rows, for
//! each template `probe_batch` sends and for UBS's premise probe, must
//! answer each row as that row's own prepared leaf does — repeated rows,
//! rows all alike, and the lacking term in a triple, in `NOT EXISTS`, in
//! a `FILTER` and among the key columns included. Every way a table
//! runs is checked: an in-process endpoint's answer, the table's one
//! query run as a bound AST, and that query as the server runs it, its
//! text parsed back and planned; and a table's text never enters the
//! plan cache.
//!
//! The premise probe has 64 rows of its own, so its three-row tables
//! (262,144) are enumerated in release builds only; debug builds stop at
//! two rows for it.

use sofya_endpoint::helpers;
use sofya_endpoint::{Endpoint, EndpointError, EndpointExt, LocalEndpoint, Request, Response};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{execute_ast, Prepared, QueryBudget, QueryOutcome, ResultSet};
use std::collections::HashMap;
use std::sync::Mutex;

const ENTITIES: [&str; 3] = ["e:0", "e:1", "e:2"];
/// A term the store has never seen.
const LACKING: &str = "e:lacking";

fn store() -> TripleStore {
    let mut store = TripleStore::new();
    for (s, p, o) in [
        ("e:0", "r:p", "e:1"),
        ("e:0", "r:p", "e:2"),
        ("e:1", "r:p", "e:1"),
        ("e:2", "r:p", "e:0"),
        ("e:0", "r:q", "e:1"),
        ("e:1", "r:q", "e:2"),
    ] {
        store.insert_terms(&Term::iri(s), &Term::iri(p), &Term::iri(o));
    }
    store
}

/// Keeps the template of every table it is sent and answers each row
/// with an empty answer of its shape.
#[derive(Default)]
struct Capture(Mutex<Vec<Prepared>>);

impl Endpoint for Capture {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        _: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        let Request::Table { prepared, rows } = req else {
            panic!("the probe helpers send tables only, not {req:?}");
        };
        self.0.lock().unwrap().push(prepared.clone());
        let empty = || match prepared.is_select() {
            true => Response::Rows(ResultSet::new(Vec::new(), Vec::new())),
            false => Response::Boolean(false),
        };
        Ok(Response::Batch(rows.iter().map(|_| empty()).collect()))
    }
}

/// A template and, per parameter, the arguments its rows draw from.
struct Case {
    name: &'static str,
    template: Prepared,
    domains: Vec<Vec<Term>>,
    max_rows: usize,
}

fn terms(names: &[&str]) -> Vec<Term> {
    names.iter().map(|n| Term::iri(*n)).collect()
}

fn cases() -> Vec<Case> {
    let ep = Capture::default();
    let (e, r) = ("e:0", "r:p");
    helpers::relations_of_entity_batch(&ep, &[e]).unwrap();
    helpers::relations_between_batch(&ep, &[(e, e)]).unwrap();
    helpers::objects_of_batch(&ep, &[(e, r)]).unwrap();
    helpers::has_fact_batch(&ep, r, &[(e, e)]).unwrap();
    helpers::premise_contradiction_batch(&ep, r, &[(e, e, e)]).unwrap();
    let mut captured = ep.0.into_inner().unwrap().into_iter();
    let mut next = || captured.next().expect("one table per helper");

    let entities: Vec<&str> = ENTITIES.iter().copied().chain([LACKING]).collect();
    let entity = terms(&entities);
    let relation = |names: &[&str]| terms(names);
    let premise_rows = if cfg!(debug_assertions) { 2 } else { 3 };
    vec![
        Case {
            name: "relations_of_entity",
            template: next(),
            domains: vec![entity.clone()],
            max_rows: 3,
        },
        Case {
            name: "relations_between",
            template: next(),
            domains: vec![entity.clone(), entity.clone()],
            max_rows: 3,
        },
        Case {
            name: "objects_of",
            template: next(),
            domains: vec![entity.clone(), relation(&["r:p", "r:q", LACKING])],
            max_rows: 3,
        },
        Case {
            name: "has_fact",
            template: next(),
            domains: vec![entity.clone(), relation(&["r:p", LACKING]), entity.clone()],
            max_rows: 3,
        },
        Case {
            name: "premise",
            template: next(),
            domains: vec![
                entity.clone(),
                relation(&["r:p"]),
                entity.clone(),
                entity.clone(),
            ],
            max_rows: premise_rows,
        },
        // No helper compares a parameter in a FILTER; this one does, so
        // the lacking term is compared as itself there too.
        Case {
            name: "filter",
            template: Prepared::new(
                "SELECT ?y WHERE { ?s ?r ?y FILTER(?y != ?o) } ORDER BY ?y",
                &["s", "r", "o"],
            )
            .unwrap(),
            domains: vec![entity.clone(), relation(&["r:p"]), entity],
            max_rows: 3,
        },
    ]
}

/// Every row a case's domains allow, in order.
fn all_rows(domains: &[Vec<Term>]) -> Vec<Vec<Term>> {
    domains.iter().fold(vec![Vec::new()], |rows, domain| {
        rows.iter()
            .flat_map(|row| {
                domain.iter().map(move |arg| {
                    let mut row = row.clone();
                    row.push(arg.clone());
                    row
                })
            })
            .collect()
    })
}

/// Calls `visit` with every sequence of `1..=max` indices below `n`.
fn for_each_table(n: usize, max: usize, visit: &mut impl FnMut(&[usize])) {
    fn extend(n: usize, max: usize, table: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
        if !table.is_empty() {
            visit(table);
        }
        if table.len() == max {
            return;
        }
        for i in 0..n {
            table.push(i);
            extend(n, max, table, visit);
            table.pop();
        }
    }
    extend(n, max, &mut Vec::new(), visit);
}

/// The table of `rows` as one query: run as its bound AST, or as the
/// server runs its text (parsed back and planned), then split.
fn as_one_query(
    ep: &LocalEndpoint,
    prepared: &Prepared,
    rows: &[&[Term]],
    over_text: bool,
) -> Vec<Response> {
    let table = prepared.table(rows).expect("the rows table");
    let text = table.render().expect("a table of IRIs renders");
    let answer = if over_text {
        ep.select(&text).unwrap_or_else(|e| panic!("{text}: {e}"))
    } else {
        let store = ep.snapshot().snapshot().store();
        match execute_ast(store, &table.query()) {
            Ok(QueryOutcome::Solutions(rows)) => rows,
            other => panic!("{text}: {other:?}"),
        }
    };
    table
        .split(answer)
        .unwrap_or_else(|e| panic!("{text}: {e}"))
        .into_iter()
        .map(Response::from)
        .collect()
}

#[test]
fn every_small_table_answers_as_its_leaves() {
    let ep = LocalEndpoint::new("oracle", store());
    let mut total = 0usize;
    for case in cases() {
        let rows = all_rows(&case.domains);
        // The reference: each row's own leaf, asked once.
        let leaves: Vec<Response> = rows
            .iter()
            .map(|row| ep.execute(Request::leaf(&case.template, row)).unwrap())
            .collect();
        let mut answers: HashMap<bool, usize> = HashMap::new();
        for leaf in &leaves {
            if let Response::Boolean(b) = leaf {
                *answers.entry(*b).or_default() += 1;
            }
        }
        let mut tables = 0usize;
        for_each_table(rows.len(), case.max_rows, &mut |table| {
            let args: Vec<&[Term]> = table.iter().map(|&i| rows[i].as_slice()).collect();
            let expected: Vec<Response> = table.iter().map(|&i| leaves[i].clone()).collect();
            let in_process = ep.execute_table(&case.template, &args).unwrap();
            assert_eq!(in_process, expected, "{} in process: {args:?}", case.name);
            let bound = as_one_query(&ep, &case.template, &args, false);
            assert_eq!(bound, expected, "{} as an AST: {args:?}", case.name);
            let textual = as_one_query(&ep, &case.template, &args, true);
            assert_eq!(textual, expected, "{} over text: {args:?}", case.name);
            tables += 1;
        });
        // Both answers come up for every ASK template, so a table that
        // got one row wrong had the chance to.
        if !case.template.is_select() {
            assert!(answers.len() == 2, "{}: {answers:?}", case.name);
        }
        let n = rows.len();
        let expected: usize = (1..=case.max_rows).map(|k| n.pow(k as u32)).sum();
        assert_eq!(tables, expected, "{}", case.name);
        total += tables;
    }
    assert!(total > 10_000, "{total} tables");
    assert_eq!(ep.plan_cache_len(), 0, "a table's text is never cached");
}
