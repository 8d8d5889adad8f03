//! Typed builders for the query shapes SOFYA issues.
//!
//! Keeping the SPARQL strings in one place makes the algorithms in
//! `sofya-core` read like the paper's pseudo-code and guarantees every
//! data access goes through the [`Endpoint`] trait (and therefore through
//! the instrumentation wrapper).
//!
//! # What a relation costs
//!
//! Sampling pages and counts are one request each. Everything the
//! aligner asks *per sample* — per discovered fact, per sampled subject,
//! per contrastive sample — goes through [`probe_batch`], which asks a
//! chunk of up to 16 probes as **one** query, the probes' arguments as
//! a `VALUES` table ([`Request::Table`](crate::Request::Table)), so a
//! phase costs one query and one request per 16 probes. Requests and
//! leaf queries per aligned relation on the paper-scale pair
//! (`PairConfig::yago_dbpedia(42)`, 92 relations against 1313, both
//! endpoints counted; the totals are the `UBS pcaconf`,
//! `dbpedia ⊂ yago` row at sample size 10 of `sofya-eval frontier
//! --scale=paper --seeds=1`, the split classifies each request by its
//! template and the side it went to), sent one request per probe, as
//! batches of up to 16 leaves, and as tables of up to 16 rows:
//!
//! | phase | requests: per probe → batches → tables | leaf queries: per probe → batches → tables |
//! |---|---|---|
//! | literal-or-entity probe (a facts page) | 1.00 → 1.00 → 1.00 | 1.00 → 1.00 → 1.00 |
//! | discovery: count and facts page | 2.00 → 2.00 → 2.00 | 2.00 → 2.00 → 2.00 |
//! | discovery: `relations_between` per fact | 15.70 → 1.46 → 1.46 | 15.70 → 15.70 → 1.46 |
//! | discovery, literal: `relations_of_entity`, `objects_of` | 4.00 → 0.30 → 0.30 | 4.00 → 4.00 → 0.30 |
//! | evidence: count and facts page per candidate | 2.50 → 2.50 → 2.50 | 2.50 → 2.50 → 2.50 |
//! | evidence: `objects_of` per sampled subject | 1.25 → 1.25 → 1.25 | 11.26 → 11.26 → 1.25 |
//! | sibling hunting: `relations_of_entity` per subject | 3.91 → 0.41 → 0.41 | 3.91 → 3.91 → 0.41 |
//! | UBS: contrastive pages | 3.07 → 2.65 → 2.65 | 3.07 → 2.65 → 2.65 |
//! | UBS: premise and conclusion probes per contrastive sample | 13.34 → 3.92 → 2.69 | 13.34 → 23.02 → 2.69 |
//! | **total** | **46.76 → 15.48 → 14.26** | **56.77 → 66.03 → 14.26** |
//!
//! The table is what a cold alignment sends, and what any alignment
//! of a session never told of a delta sends. A live session (see
//! `sofya_core::session`) first asks a dirty relation's suspect leaves
//! again — those a delta could have changed, ≈2.5 on the
//! `stream_refresh` benchmark — and keeps its rules if every answer
//! held, as 56 % of a cycle's ≈4.6 dirty relations do there. Otherwise
//! it re-mines, answered from its probe memo wherever no delta since
//! could have changed the answer — a table row by row, each row as the
//! leaf it stands for — so a re-mine sends only what the delta could
//! have moved: its relation's pages and counts, mostly.
//!
//! UBS asks one query per page of samples on each side. The premise
//! side asks `r(x, y₁) ∧ ¬r(x, y₂)` of a page in one table
//! ([`premise_contradiction_batch`]), where two dependent batches asked
//! `r(x, y₁)` and then `r(x, y₂)` of the samples that passed. A table
//! answers every row, so a page's probes do not stop at the first
//! contradiction inside it (they still stop between pages and between
//! siblings). Conclusion-side pages depend on the relation and the
//! sibling only, and are fetched once per relation, not once per
//! candidate. At `LatencyModel::wan()` (20 ms per request) the request
//! column reads 0.94 s → 0.31 s → 0.29 s of latency per relation.
//!
//! A table is cut at **16 rows**. A whole table is one job at the
//! server's gate and holds its running slot until it is answered. Batches
//! were cut at 16 leaves because an uncut 40–80-leaf discovery batch
//! delayed every other client of the server: on the `federated_align`
//! benchmark the side reader's `open_p95_us` read 608–644 µs with uncut
//! batches (1.24× the ≈499 µs of one request per probe, at the
//! benchmark's 0.25 bound) and 519–573 µs with chunks of 16. Tables of
//! 16 rows, measured the same way (10 alternating 25 s pairs, seed 42,
//! a 2-vCPU host): `open_p95_us` 286 µs against 292 µs with batches of
//! 16 leaves, for an aligner `op_p50_us` of 177 µs against 230 µs.

use crate::endpoint::{Endpoint, EndpointExt, Response};
use crate::error::EndpointError;
use sofya_rdf::Term;
use sofya_sparql::Prepared;
use std::sync::OnceLock;

/// Lazily parses a static prepared template exactly once per process.
/// The aligner's hot probes (per sampled pair / per discovered fact) go
/// through these instead of `format!` + parse on every call.
fn prepared(
    cell: &'static OnceLock<Prepared>,
    template: &'static str,
    params: &'static [&'static str],
) -> &'static Prepared {
    // sofya: allow(panic_path) — init-time parse of a compiled-in template; exercised by every test run
    cell.get_or_init(|| Prepared::new(template, params).expect("static template parses"))
}

/// All distinct relation IRIs of the KB.
pub fn all_relations<E: Endpoint + ?Sized>(ep: &E) -> Result<Vec<String>, EndpointError> {
    let rs = ep.select("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p")?;
    Ok(rs
        .column("p")
        .into_iter()
        .filter_map(|t| t.as_iri().map(str::to_owned))
        .collect())
}

/// A page of facts `r(x, y)`, ordered deterministically. The page bounds
/// ride through [`EndpointExt::select_prepared_paged`], so in-process
/// endpoints never parse a per-page query string.
pub fn relation_facts_page<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(&Q, "SELECT ?x ?y WHERE { ?x ?r ?y } ORDER BY ?x ?y", &["r"]);
    let rs = ep.select_prepared_paged(q, &[Term::iri(relation)], Some(limit), Some(offset))?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((cells.next()??, cells.next()??))
        })
        .collect())
}

/// A page of facts `r(x, y)` where **both** `x` and `y` carry `sameAs`
/// links (entity–entity sampling, §2.2 of the paper: facts without links
/// are ignored so incompleteness is not punished).
///
/// Returns `(x, y, x', y')` with `x'`, `y'` the linked identifiers in the
/// other KB.
pub fn linked_entity_facts_page<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term, Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?x ?y ?x2 ?y2 WHERE { ?x ?r ?y . ?x ?sa ?x2 . ?y ?sa ?y2 } ORDER BY ?x ?y",
        &["r", "sa"],
    );
    let rs = ep.select_prepared_paged(
        q,
        &[Term::iri(relation), Term::iri(same_as)],
        Some(limit),
        Some(offset),
    )?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((
                cells.next()??,
                cells.next()??,
                cells.next()??,
                cells.next()??,
            ))
        })
        .collect())
}

/// A page of literal facts `r(x, v)` where `x` carries a `sameAs` link.
/// Returns `(x, v, x')`.
pub fn linked_literal_facts_page<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?x ?v ?x2 WHERE { ?x ?r ?v . ?x ?sa ?x2 . FILTER(ISLITERAL(?v)) } ORDER BY ?x ?v",
        &["r", "sa"],
    );
    let rs = ep.select_prepared_paged(
        q,
        &[Term::iri(relation), Term::iri(same_as)],
        Some(limit),
        Some(offset),
    )?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((cells.next()??, cells.next()??, cells.next()??))
        })
        .collect())
}

/// Runs a `SELECT (COUNT(*) AS ?n)` template over `(relation, sameAs)`.
/// A count is an ordinary select of one integer cell; a single-pattern
/// one is read off the index bounds, a join is counted at the id level
/// without resolving a term.
fn count_linked<E: Endpoint + ?Sized>(
    ep: &E,
    count: &Prepared,
    relation: &str,
    same_as: &str,
) -> Result<usize, EndpointError> {
    let rs = ep.select_prepared(count, &[Term::iri(relation), Term::iri(same_as)])?;
    Ok(rs.single_integer().unwrap_or(0).max(0) as usize)
}

/// Count of `sameAs`-linked facts of `relation` (the denominator for
/// paging through [`linked_entity_facts_page`]).
pub fn linked_entity_fact_count<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
) -> Result<usize, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT (COUNT(*) AS ?n) WHERE { ?x ?r ?y . ?x ?sa ?x2 . ?y ?sa ?y2 }",
        &["r", "sa"],
    );
    count_linked(ep, q, relation, same_as)
}

/// Count of subject-linked literal facts of `relation` (the denominator
/// for paging through [`linked_literal_facts_page`]).
pub fn linked_literal_fact_count<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
) -> Result<usize, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT (COUNT(*) AS ?n) WHERE { ?x ?r ?v . ?x ?sa ?x2 . FILTER(ISLITERAL(?v)) }",
        &["r", "sa"],
    );
    count_linked(ep, q, relation, same_as)
}

/// The most rows one [`Request::Table`](crate::Request::Table) of
/// [`probe_batch`] carries; the module docs give the readings that
/// chose it.
const MAX_TABLE_ROWS: usize = 16;

/// Asks `template` of every row of `arg_rows`, as
/// [`Request::Table`](crate::Request::Table)s of at most 16 rows each —
/// one query and one round trip (and, on a
/// [`crate::ConcurrentEndpoint`], one snapshot pin) per chunk, where one
/// request per probe would pay one each. Returns one response per row,
/// in row order, each what the row's own prepared leaf answers; no rows,
/// no request.
///
/// This is what makes alignment viable against a remote endpoint at
/// real round-trip times: every phase of the aligner sends its
/// independent probes through here, so a relation costs O(phases)
/// queries and round trips instead of O(samples) (see the module docs
/// for the count).
pub fn probe_batch<E: Endpoint + ?Sized, A: AsRef<[Term]>>(
    ep: &E,
    template: &Prepared,
    arg_rows: &[A],
) -> Result<Vec<Response>, EndpointError> {
    let mut answers = Vec::with_capacity(arg_rows.len());
    for chunk in arg_rows.chunks(MAX_TABLE_ROWS) {
        let rows: Vec<&[Term]> = chunk.iter().map(AsRef::as_ref).collect();
        let responses = ep.execute_table(template, &rows)?;
        // The callers pair answers with probes by position; an endpoint
        // that answers a different number must not shift that pairing.
        if responses.len() != chunk.len() {
            return Err(EndpointError::Other(format!(
                "a batch of {} probes was answered with {} responses",
                chunk.len(),
                responses.len()
            )));
        }
        answers.extend(responses);
    }
    Ok(answers)
}

/// The first column of a rows response.
fn first_column(response: Response) -> Result<impl Iterator<Item = Term>, EndpointError> {
    let (_, rows) = response.into_rows()?.into_parts();
    Ok(rows
        .into_iter()
        .filter_map(|row| row.into_iter().next().flatten()))
}

/// The IRIs of the first column of each rows response.
fn iri_columns(responses: Vec<Response>) -> Result<Vec<Vec<String>>, EndpointError> {
    responses
        .into_iter()
        .map(|response| {
            Ok(first_column(response)?
                .filter_map(|t| t.as_iri().map(str::to_owned))
                .collect())
        })
        .collect()
}

/// Distinct relations of each entity (in subject position), positionally
/// aligned with `entities`.
pub fn relations_of_entity_batch<E: Endpoint + ?Sized>(
    ep: &E,
    entities: &[&str],
) -> Result<Vec<Vec<String>>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT DISTINCT ?p WHERE { ?x ?p ?o } ORDER BY ?p",
        &["x"],
    );
    let args: Vec<[Term; 1]> = entities.iter().map(|e| [Term::iri(*e)]).collect();
    iri_columns(probe_batch(ep, q, &args)?)
}

/// Distinct relations holding **between** the two entities of each
/// `(subject, object)` pair, positionally aligned with `pairs`.
pub fn relations_between_batch<E: Endpoint + ?Sized>(
    ep: &E,
    pairs: &[(&str, &str)],
) -> Result<Vec<Vec<String>>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
        &["s", "o"],
    );
    let args: Vec<[Term; 2]> = pairs
        .iter()
        .map(|(s, o)| [Term::iri(*s), Term::iri(*o)])
        .collect();
    iri_columns(probe_batch(ep, q, &args)?)
}

/// All objects `y` of `r(x, y)` for each `(subject, relation)` probe,
/// positionally aligned with `probes`. An empty object list means the KB
/// knows no `r`-fact of that subject — the PCA's denominator test.
pub fn objects_of_batch<E: Endpoint + ?Sized>(
    ep: &E,
    probes: &[(&str, &str)],
) -> Result<Vec<Vec<Term>>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(&Q, "SELECT ?y WHERE { ?s ?r ?y } ORDER BY ?y", &["s", "r"]);
    let args: Vec<[Term; 2]> = probes
        .iter()
        .map(|(s, r)| [Term::iri(*s), Term::iri(*r)])
        .collect();
    probe_batch(ep, q, &args)?
        .into_iter()
        .map(|response| Ok(first_column(response)?.collect()))
        .collect()
}

/// Existence probes `ASK { s r o }` of one relation for each
/// `(subject, object)` pair of IRIs, positionally aligned with `pairs`.
pub fn has_fact_batch<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    pairs: &[(&str, &str)],
) -> Result<Vec<bool>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(&Q, "ASK { ?s ?r ?o }", &["s", "r", "o"]);
    let args: Vec<[Term; 3]> = pairs
        .iter()
        .map(|(s, o)| [Term::iri(*s), Term::iri(relation), Term::iri(*o)])
        .collect();
    probe_batch(ep, q, &args)?
        .into_iter()
        .map(Response::into_boolean)
        .collect()
}

/// UBS premise-side probes, one per `(x, y₁, y₂)` sample of IRIs,
/// positionally aligned with `samples`: whether `relation(x, y₁)` holds
/// and `relation(x, y₂)` does not — the pair `(x, y₂)` is then a PCA
/// counter-example. One query per 16 samples, where asking `r(x, y₁)`
/// and then `r(x, y₂)` of those that passed took two dependent ones.
pub fn premise_contradiction_batch<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    samples: &[(&str, &str, &str)],
) -> Result<Vec<bool>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "ASK { ?x ?r ?y1 FILTER NOT EXISTS { ?x ?r ?y2 } }",
        &["x", "r", "y1", "y2"],
    );
    let args: Vec<[Term; 4]> = samples
        .iter()
        .map(|(x, y1, y2)| {
            [
                Term::iri(*x),
                Term::iri(relation),
                Term::iri(*y1),
                Term::iri(*y2),
            ]
        })
        .collect();
    probe_batch(ep, q, &args)?
        .into_iter()
        .map(Response::into_boolean)
        .collect()
}

/// The `sameAs` images of an entity.
pub fn same_as_of<E: Endpoint + ?Sized>(
    ep: &E,
    entity: &str,
    same_as: &str,
) -> Result<Vec<String>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?e WHERE { ?x ?sa ?e } ORDER BY ?e",
        &["x", "sa"],
    );
    let rs = ep.select_prepared(q, &[Term::iri(entity), Term::iri(same_as)])?;
    Ok(rs
        .column("e")
        .into_iter()
        .filter_map(|t| t.as_iri().map(str::to_owned))
        .collect())
}

/// UBS discriminating sample (§2.2): subjects `x` with `r1(x, y1)`,
/// `r2(x, y2)`, `y1 ≠ y2` and **not** `r1(x, y2)`, joined with `sameAs` so
/// every returned sample is guaranteed translatable into the other KB.
/// Returns `(x', y1', y2')` — the *translated* identifiers.
pub fn linked_contrastive_subjects_page<E: Endpoint + ?Sized>(
    ep: &E,
    r1: &str,
    r2: &str,
    same_as: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?xt ?y1t ?y2t WHERE { ?x ?r1 ?y1 . ?x ?r2 ?y2 . \
         ?x ?sa ?xt . ?y1 ?sa ?y1t . ?y2 ?sa ?y2t . \
         FILTER(?y1 != ?y2) . FILTER NOT EXISTS { ?x ?r1 ?y2 } } \
         ORDER BY ?xt ?y1t ?y2t",
        &["r1", "r2", "sa"],
    );
    let rs = ep.select_prepared_paged(
        q,
        &[Term::iri(r1), Term::iri(r2), Term::iri(same_as)],
        Some(limit),
        Some(offset),
    )?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((cells.next()??, cells.next()??, cells.next()??))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Request;
    use crate::local::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};

    fn movie_endpoint() -> LocalEndpoint {
        let mut store = TripleStore::new();
        let facts = [
            ("m:inception", "r:director", "p:nolan"),
            ("m:inception", "r:producer", "p:thomas"),
            ("m:inception", "r:producer", "p:nolan"),
            ("m:tenet", "r:director", "p:nolan"),
            ("m:tenet", "r:producer", "p:thomas"),
        ];
        for (s, p, o) in facts {
            store.insert_terms(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        }
        store.insert_terms(
            &Term::iri("m:inception"),
            &Term::iri("owl:sameAs"),
            &Term::iri("d:Inception"),
        );
        store.insert_terms(
            &Term::iri("p:nolan"),
            &Term::iri("owl:sameAs"),
            &Term::iri("d:Nolan"),
        );
        store.insert_terms(
            &Term::iri("m:inception"),
            &Term::iri("r:label"),
            &Term::literal("Inception"),
        );
        LocalEndpoint::new("movies", store)
    }

    #[test]
    fn all_relations_lists_predicates() {
        let ep = movie_endpoint();
        let rels = all_relations(&ep).unwrap();
        assert_eq!(
            rels,
            vec!["owl:sameAs", "r:director", "r:label", "r:producer"]
        );
    }

    #[test]
    fn relation_facts_page_paginates() {
        let ep = movie_endpoint();
        let all = relation_facts_page(&ep, "r:producer", 100, 0).unwrap();
        assert_eq!(all.len(), 3);
        let page = relation_facts_page(&ep, "r:producer", 2, 1).unwrap();
        assert_eq!(page.len(), 2);
        assert_eq!(page[0], all[1]);
    }

    #[test]
    fn linked_entity_facts_require_both_links() {
        let ep = movie_endpoint();
        // Only inception→nolan has sameAs on both subject and object, and
        // both r:director and r:producer connect them.
        let dir = linked_entity_facts_page(&ep, "r:director", "owl:sameAs", 10, 0).unwrap();
        assert_eq!(dir.len(), 1);
        let (x, y, x2, y2) = &dir[0];
        assert_eq!(x.as_iri(), Some("m:inception"));
        assert_eq!(y.as_iri(), Some("p:nolan"));
        assert_eq!(x2.as_iri(), Some("d:Inception"));
        assert_eq!(y2.as_iri(), Some("d:Nolan"));
        assert_eq!(
            linked_entity_fact_count(&ep, "r:director", "owl:sameAs").unwrap(),
            1
        );
    }

    #[test]
    fn linked_literal_facts() {
        let ep = movie_endpoint();
        let labels = linked_literal_facts_page(&ep, "r:label", "owl:sameAs", 10, 0).unwrap();
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].1.as_literal(), Some("Inception"));
        assert_eq!(
            linked_literal_fact_count(&ep, "r:label", "owl:sameAs").unwrap(),
            1
        );
    }

    #[test]
    fn relations_of_and_between() {
        let ep = movie_endpoint();
        let rels = relations_of_entity_batch(&ep, &["m:inception", "m:missing"]).unwrap();
        assert_eq!(
            rels,
            vec![
                vec!["owl:sameAs", "r:director", "r:label", "r:producer"],
                vec![]
            ]
        );
        let between =
            relations_between_batch(&ep, &[("m:inception", "p:nolan"), ("m:tenet", "p:thomas")])
                .unwrap();
        assert_eq!(
            between,
            vec![vec!["r:director", "r:producer"], vec!["r:producer"]]
        );
    }

    #[test]
    fn objects_and_existence() {
        let ep = movie_endpoint();
        let objs = objects_of_batch(
            &ep,
            &[("m:inception", "r:producer"), ("m:missing", "r:producer")],
        )
        .unwrap();
        assert_eq!(
            objs,
            vec![vec![Term::iri("p:nolan"), Term::iri("p:thomas")], vec![]]
        );
        assert_eq!(
            has_fact_batch(
                &ep,
                "r:director",
                &[("m:inception", "p:nolan"), ("m:tenet", "p:thomas")]
            )
            .unwrap(),
            vec![true, false]
        );
    }

    /// 40 probes travel as tables of 16, 16 and 8 rows — one query
    /// each, never a request per probe — and the answers keep the probes'
    /// order across the cuts.
    #[test]
    fn probe_batch_cuts_into_chunks_and_keeps_order() {
        /// Notes the row count of every table it passes on.
        struct Tables {
            inner: LocalEndpoint,
            rows: std::sync::Mutex<Vec<usize>>,
        }
        impl Endpoint for Tables {
            fn execute_with_budget(
                &self,
                req: Request<'_>,
                budget: &sofya_sparql::QueryBudget,
            ) -> Result<Response, EndpointError> {
                if let Request::Table { rows, .. } = &req {
                    self.rows.lock().unwrap().push(rows.len());
                }
                self.inner.execute_with_budget(req, budget)
            }
        }
        let counted = crate::InstrumentedEndpoint::new(Tables {
            inner: movie_endpoint(),
            rows: Default::default(),
        });
        let subjects = ["m:inception", "m:tenet", "m:missing"];
        let pairs: Vec<(&str, &str)> = (0..40).map(|i| (subjects[i % 3], "p:nolan")).collect();
        let answers = has_fact_batch(&counted, "r:director", &pairs).unwrap();
        let expected: Vec<bool> = (0..40).map(|i| i % 3 != 2).collect();
        assert_eq!(answers, expected);
        let counters = counted.counters();
        assert_eq!(counters.requests(), 3);
        assert_eq!(counters.total_queries(), 3);
        assert_eq!(counters.select_queries(), 3);
        assert_eq!(counters.ask_queries(), 0);
        assert_eq!(counters.largest_request(), 1);
        assert_eq!(counters.largest_table(), MAX_TABLE_ROWS as u64);
        assert_eq!(*counted.inner().rows.lock().unwrap(), [16, 16, 8]);
        assert_eq!(counters.batches(), 0);
        assert_eq!(counters.batch_expanded(), 0);
        // No probes, no request.
        assert!(has_fact_batch(&counted, "r:director", &[])
            .unwrap()
            .is_empty());
        assert_eq!(counters.requests(), 3);
    }

    /// An endpoint that answers a batch with the wrong number of
    /// responses is an error, not a silent misalignment of answers.
    #[test]
    fn probe_batch_rejects_a_short_answer() {
        struct Short;
        impl Endpoint for Short {
            fn execute_with_budget(
                &self,
                _req: Request<'_>,
                _budget: &sofya_sparql::QueryBudget,
            ) -> Result<Response, EndpointError> {
                Ok(Response::Batch(vec![Response::Boolean(true)]))
            }
        }
        let err = has_fact_batch(&Short, "r:p", &[("a", "b"), ("c", "d")]).unwrap_err();
        assert!(err.to_string().contains("2 probes"), "{err}");
    }

    /// A premise probe is `r(x, y₁) ∧ ¬r(x, y₂)`, a `y₂` the store has
    /// never seen included.
    #[test]
    fn premise_contradictions() {
        let ep = movie_endpoint();
        let samples = [
            ("m:inception", "p:nolan", "p:thomas"),
            ("m:inception", "p:nolan", "p:nobody"),
            ("m:tenet", "p:nolan", "p:nolan"),
            ("m:tenet", "p:thomas", "p:nobody"),
        ];
        assert_eq!(
            premise_contradiction_batch(&ep, "r:director", &samples).unwrap(),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn same_as_resolution() {
        let ep = movie_endpoint();
        assert_eq!(
            same_as_of(&ep, "m:inception", "owl:sameAs").unwrap(),
            vec!["d:Inception"]
        );
        assert!(same_as_of(&ep, "m:tenet", "owl:sameAs").unwrap().is_empty());
    }
}
