//! The endpoint trait: one typed request/response pipeline.
//!
//! Every KB access in SOFYA is a [`Request`] handed, with the
//! [`QueryBudget`] it runs under, to [`Endpoint::execute_with_budget`],
//! which answers with the matching [`Response`] shape. That is the one
//! method an endpoint implements ([`Endpoint::execute`] is the same call
//! under the unlimited budget), so a wrapper (instrumentation, a test's
//! fault injector, …) intercepts **every** query kind — string,
//! prepared, paged, table, batch, and ones added later — budgeted or not, with
//! a single body, instead of forwarding parallel entry points and
//! silently missing one. A count is not a kind of its own: it is a
//! `SELECT (COUNT(*) AS ?n)` like any other select, read with
//! [`ResultSet::single_integer`].
//!
//! Callers never build requests by hand: [`EndpointExt`] provides the
//! ergonomic methods ([`EndpointExt::select`], [`EndpointExt::ask`],
//! [`EndpointExt::select_prepared`], …) that construct the request and
//! destructure the response.

use crate::error::EndpointError;
use sofya_rdf::Term;
use sofya_sparql::{Prepared, QueryBudget, QueryOutcome, ResultSet, SparqlError};
use std::sync::Arc;

/// One typed endpoint request. Borrowed: a request is built on the stack
/// of the issuing call and consumed by [`Endpoint::execute`].
///
/// ```
/// use sofya_endpoint::{Endpoint, EndpointExt, LocalEndpoint, Request, Response};
/// use sofya_rdf::{Term, TripleStore};
///
/// let mut store = TripleStore::new();
/// store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:b"));
/// let ep = LocalEndpoint::new("kb", store);
///
/// // The typed pipeline: one method, one request enum.
/// let resp = ep.execute(Request::Ask { query: "ASK { <e:a> <r:p> <e:b> }" }).unwrap();
/// assert_eq!(resp, Response::Boolean(true));
///
/// // The ergonomic layer builds the request for you.
/// assert!(ep.ask("ASK { <e:a> <r:p> <e:b> }").unwrap());
/// ```
#[derive(Debug, Clone)]
pub enum Request<'a> {
    /// A `SELECT` query string; answered with [`Response::Rows`].
    Select {
        /// The SPARQL text.
        query: &'a str,
    },
    /// An `ASK` query string; answered with [`Response::Boolean`].
    Ask {
        /// The SPARQL text.
        query: &'a str,
    },
    /// A prepared `SELECT` template bound to constant arguments;
    /// answered with [`Response::Rows`].
    PreparedSelect {
        /// The parse-once template.
        prepared: &'a Prepared,
        /// One constant per template parameter, in declaration order.
        args: &'a [Term],
    },
    /// A prepared `ASK` template bound to constant arguments; answered
    /// with [`Response::Boolean`].
    PreparedAsk {
        /// The parse-once template.
        prepared: &'a Prepared,
        /// One constant per template parameter, in declaration order.
        args: &'a [Term],
    },
    /// A prepared `SELECT` with a structural `LIMIT`/`OFFSET` override —
    /// the paged sampling shapes, whose page bounds change on every
    /// call; answered with [`Response::Rows`].
    PreparedSelectPaged {
        /// The parse-once template.
        prepared: &'a Prepared,
        /// One constant per template parameter, in declaration order.
        args: &'a [Term],
        /// Page size (`None` keeps the template's own `LIMIT`).
        limit: Option<usize>,
        /// Page start (`None` keeps the template's own `OFFSET`).
        offset: Option<usize>,
    },
    /// One prepared template asked of many argument rows at once, as one
    /// SPARQL query whose rows arrive as inline data (see
    /// [`Prepared::table`]); answered with [`Response::Batch`], one
    /// response per row, in row order — each what [`Request::leaf`] of
    /// that row answers. It is **one** query: one text on the wire, one
    /// execution on a server, one count in [`crate::EndpointCounters`].
    /// An in-process endpoint, with no text to save, answers it as its
    /// rows' leaves against one snapshot. The aligner's per-sample
    /// probes travel this way (see [`crate::helpers::probe_batch`]).
    Table {
        /// The parse-once template.
        prepared: &'a Prepared,
        /// One argument row per probe, each one constant per parameter.
        rows: &'a [&'a [Term]],
    },
    /// A request set executed as one unit; answered with
    /// [`Response::Batch`] (one response per sub-request, in order; the
    /// first failing sub-request fails the whole batch).
    /// [`crate::ConcurrentEndpoint`] executes the entire batch against a
    /// single pinned snapshot, so dependent sub-requests observe one
    /// consistent state and pay one epoch-cell load.
    ///
    /// Batches may nest: a sub-request may itself be a `Batch`, and the
    /// response mirrors the nesting shape. Accounting recurses rather
    /// than rejecting — [`Request::leaf_count`] counts only non-batch
    /// leaves at any depth, and instrumentation
    /// ([`crate::EndpointCounters`]) counts each nesting level as a
    /// batch while attributing leaves once. A nested batch
    /// still pins a single snapshot for the whole tree on
    /// [`crate::ConcurrentEndpoint`], and a server's admission gate
    /// charges the whole tree one quota unit: it is one HTTP request.
    Batch(Vec<Request<'a>>),
}

impl<'a> Request<'a> {
    /// The prepared leaf of `prepared` bound to `args`: a
    /// [`Request::PreparedSelect`] or a [`Request::PreparedAsk`], by the
    /// template's form. One row of a [`Request::Table`] stands for it.
    pub fn leaf(prepared: &'a Prepared, args: &'a [Term]) -> Self {
        if prepared.is_select() {
            Request::PreparedSelect { prepared, args }
        } else {
            Request::PreparedAsk { prepared, args }
        }
    }

    /// Number of leaf (non-batch) requests: 1 for every plain request
    /// (a table too: it is one query), the recursive sum for a batch.
    /// This is the unit query accounting uses, so batching never hides
    /// queries from the paper's "few queries" bookkeeping.
    pub fn leaf_count(&self) -> u64 {
        match self {
            Request::Batch(reqs) => reqs.iter().map(Request::leaf_count).sum(),
            _ => 1,
        }
    }

    /// The SPARQL text a string-only backend (an HTTP endpoint) would
    /// send for this request. Prepared
    /// requests render their bound template; a table renders its one
    /// `SELECT` (whose answer [`sofya_sparql::BoundTable::split`] splits
    /// into the rows' answers). A batch has no single rendering and
    /// errors — decompose it first.
    pub fn to_sparql(&self) -> Result<String, EndpointError> {
        match self {
            Request::Select { query } | Request::Ask { query } => Ok((*query).to_owned()),
            Request::PreparedSelect { prepared, args }
            | Request::PreparedAsk { prepared, args } => Ok(prepared.render(args)?),
            Request::PreparedSelectPaged {
                prepared,
                args,
                limit,
                offset,
            } => Ok(prepared.render_paged(args, *limit, *offset)?),
            Request::Table { prepared, rows } => Ok(prepared.table(rows)?.render()?),
            Request::Batch(_) => Err(EndpointError::Other(
                "a batch request has no single SPARQL rendering".to_owned(),
            )),
        }
    }
}

/// One typed endpoint response, mirroring the [`Request`] variants.
///
/// ```
/// use sofya_endpoint::Response;
///
/// let resp = Response::Boolean(true);
/// assert!(resp.clone().into_boolean().unwrap());
/// // Destructuring into the wrong shape is a caller bug, surfaced as an
/// // error instead of a panic.
/// assert!(resp.into_rows().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Solution rows (from the `SELECT` request shapes).
    Rows(ResultSet),
    /// An `ASK` answer.
    Boolean(bool),
    /// A bare number: the epoch `POST /ingest` answers with, and what
    /// the wire's `count` op (kept for foreign clients) is reshaped to.
    /// No [`Request`] is answered with it.
    Count(u64),
    /// One response per sub-request of a [`Request::Batch`], or per row
    /// of a [`Request::Table`], in order.
    Batch(Vec<Response>),
}

impl From<QueryOutcome> for Response {
    fn from(outcome: QueryOutcome) -> Self {
        match outcome {
            QueryOutcome::Solutions(rs) => Response::Rows(rs),
            QueryOutcome::Boolean(b) => Response::Boolean(b),
        }
    }
}

impl Response {
    /// A short label for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Rows(_) => "rows",
            Response::Boolean(_) => "boolean",
            Response::Count(_) => "count",
            Response::Batch(_) => "batch",
        }
    }

    /// Rows transferred by this response, counting booleans and counts
    /// as one row each and recursing through batches (a transfer-cost
    /// proxy).
    pub fn row_count(&self) -> u64 {
        match self {
            Response::Rows(rs) => rs.len() as u64,
            Response::Boolean(_) | Response::Count(_) => 1,
            Response::Batch(responses) => responses.iter().map(Response::row_count).sum(),
        }
    }

    fn mismatch(expected: &'static str, found: &'static str) -> EndpointError {
        EndpointError::Sparql(SparqlError::eval(format!(
            "expected a {expected} response, found {found}"
        )))
    }

    /// The solution rows, or a shape-mismatch error.
    pub fn into_rows(self) -> Result<ResultSet, EndpointError> {
        match self {
            Response::Rows(rs) => Ok(rs),
            other => Err(Self::mismatch("rows", other.kind())),
        }
    }

    /// The boolean answer, or a shape-mismatch error.
    pub fn into_boolean(self) -> Result<bool, EndpointError> {
        match self {
            Response::Boolean(b) => Ok(b),
            other => Err(Self::mismatch("boolean", other.kind())),
        }
    }

    /// The per-sub-request responses, or a shape-mismatch error.
    pub fn into_batch(self) -> Result<Vec<Response>, EndpointError> {
        match self {
            Response::Batch(responses) => Ok(responses),
            other => Err(Self::mismatch("batch", other.kind())),
        }
    }
}

/// A SPARQL endpoint: the only way SOFYA touches a knowledge base.
///
/// Implementations must be shareable across threads — the evaluation
/// harness aligns many relations in parallel against the same endpoints.
///
/// [`Endpoint::execute_with_budget`] is the **single required method**:
/// every query shape arrives as a typed [`Request`] together with the
/// [`QueryBudget`] it must run under, and leaves as the matching
/// [`Response`]. [`Endpoint::execute`] is *provided* — it is the same
/// call under [`QueryBudget::unlimited`] — so an implementor has one
/// body to write and no second entry point to forget. Wrappers therefore
/// compose as middleware: each intercepts the one method and hands the
/// budget inward, so neither a query shape added to the enum later nor a
/// caller's budget can bypass a layer. Algorithms call the ergonomic
/// [`EndpointExt`] methods instead of building requests.
///
/// ```
/// use sofya_endpoint::{Endpoint, EndpointError, EndpointExt, LocalEndpoint, Request, Response};
/// use sofya_sparql::QueryBudget;
///
/// /// A whole middleware layer: one method.
/// struct Loud<E>(E);
///
/// impl<E: Endpoint> Endpoint for Loud<E> {
///     fn execute_with_budget(
///         &self,
///         req: Request<'_>,
///         budget: &QueryBudget,
///     ) -> Result<Response, EndpointError> {
///         println!("{} <- {} leaves", self.0.name(), req.leaf_count());
///         self.0.execute_with_budget(req, budget)
///     }
/// }
///
/// let ep = Loud(LocalEndpoint::new("kb", sofya_rdf::TripleStore::new()));
/// assert!(!ep.ask("ASK { ?s ?p ?o }").unwrap());
/// // A caller's budget crosses the layer: this one has already run out.
/// let spent = QueryBudget::unlimited().with_time_limit(std::time::Duration::ZERO);
/// assert!(ep.execute_with_budget(Request::Ask { query: "ASK { ?s ?p ?o }" }, &spent).is_err());
/// ```
pub trait Endpoint: Send + Sync {
    /// Executes one typed request under a [`QueryBudget`].
    ///
    /// Backends that own an evaluator thread the budget into scanning so
    /// a breached query unwinds in bounded time; wrappers hand it to
    /// their inner endpoint so it survives the whole middleware stack.
    ///
    /// A killed query is one error class wherever it is killed: an
    /// expired deadline or a tripped cancel token fails as
    /// [`EndpointError::DeadlineExceeded`], a breached scan or binding
    /// cap as [`EndpointError::BudgetExceeded`] — from a bare backend as
    /// from under any wrapper stack.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError>;

    /// Executes one typed request with no limits: the same path as
    /// [`Endpoint::execute_with_budget`], under the no-op budget.
    fn execute(&self, req: Request<'_>) -> Result<Response, EndpointError> {
        self.execute_with_budget(req, &QueryBudget::unlimited())
    }

    /// A short display name (e.g. `"yago"`, `"dbpedia"`), used in
    /// reports. Wrappers forward their inner endpoint's name; the
    /// default is a placeholder for anonymous test endpoints.
    fn name(&self) -> &str {
        "endpoint"
    }
}

/// Ergonomic request builders, provided for every [`Endpoint`].
///
/// These are the methods SOFYA's algorithms call; each builds the typed
/// [`Request`], executes it, and destructures the [`Response`], so the
/// trait surface every backend and wrapper must cover stays at one
/// method.
pub trait EndpointExt: Endpoint {
    /// Executes a `SELECT` query and returns its solutions.
    fn select(&self, query: &str) -> Result<ResultSet, EndpointError> {
        self.execute(Request::Select { query })?.into_rows()
    }

    /// Executes an `ASK` query.
    fn ask(&self, query: &str) -> Result<bool, EndpointError> {
        self.execute(Request::Ask { query })?.into_boolean()
    }

    /// Executes a prepared `SELECT` with the given constant arguments.
    fn select_prepared(
        &self,
        prepared: &Prepared,
        args: &[Term],
    ) -> Result<ResultSet, EndpointError> {
        self.execute(Request::PreparedSelect { prepared, args })?
            .into_rows()
    }

    /// Executes a prepared `ASK` with the given constant arguments.
    fn ask_prepared(&self, prepared: &Prepared, args: &[Term]) -> Result<bool, EndpointError> {
        self.execute(Request::PreparedAsk { prepared, args })?
            .into_boolean()
    }

    /// Executes a prepared `SELECT` with a structural `LIMIT`/`OFFSET`
    /// override — the paged sampling shapes, whose page bounds change on
    /// every call.
    fn select_prepared_paged(
        &self,
        prepared: &Prepared,
        args: &[Term],
        limit: Option<usize>,
        offset: Option<usize>,
    ) -> Result<ResultSet, EndpointError> {
        self.execute(Request::PreparedSelectPaged {
            prepared,
            args,
            limit,
            offset,
        })?
        .into_rows()
    }

    /// Executes a request set as one unit (see [`Request::Batch`]) and
    /// returns the per-sub-request responses in order.
    fn execute_batch(&self, requests: Vec<Request<'_>>) -> Result<Vec<Response>, EndpointError> {
        self.execute(Request::Batch(requests))?.into_batch()
    }

    /// Asks `prepared` of every row of `rows` as one query (see
    /// [`Request::Table`]) and returns the per-row responses in order.
    fn execute_table(
        &self,
        prepared: &Prepared,
        rows: &[&[Term]],
    ) -> Result<Vec<Response>, EndpointError> {
        self.execute(Request::Table { prepared, rows })?
            .into_batch()
    }
}

impl<E: Endpoint + ?Sized> EndpointExt for E {}

/// Blanket implementation so `Arc<E>` is itself an endpoint; wrappers and
/// algorithms can hold `Arc<dyn Endpoint>` and compose freely.
impl<E: Endpoint + ?Sized> Endpoint for Arc<E> {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        (**self).execute_with_budget(req, budget)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::RequestBuf;

    struct Fake;

    impl Endpoint for Fake {
        fn execute_with_budget(
            &self,
            req: Request<'_>,
            _budget: &QueryBudget,
        ) -> Result<Response, EndpointError> {
            Ok(match req {
                Request::Select { .. }
                | Request::PreparedSelect { .. }
                | Request::PreparedSelectPaged { .. } => Response::Rows(ResultSet::default()),
                Request::Ask { .. } | Request::PreparedAsk { .. } => Response::Boolean(true),
                Request::Table { prepared, rows } => Response::Batch(
                    rows.iter()
                        .map(|args| self.execute(Request::leaf(prepared, args)))
                        .collect::<Result<_, _>>()?,
                ),
                Request::Batch(reqs) => Response::Batch(
                    reqs.into_iter()
                        .map(|r| self.execute(r))
                        .collect::<Result<_, _>>()?,
                ),
            })
        }

        fn name(&self) -> &str {
            "fake"
        }
    }

    #[test]
    fn arc_of_endpoint_is_endpoint() {
        let arc: Arc<dyn Endpoint> = Arc::new(Fake);
        assert_eq!(arc.name(), "fake");
        assert!(arc.ask("ASK { }").unwrap());
        assert!(arc.select("SELECT * { }").unwrap().is_empty());
    }

    #[test]
    fn ext_methods_destructure_responses() {
        let ep = Fake;
        let probe = Prepared::new("ASK { ?s ?r ?o }", &["s"]).unwrap();
        assert!(ep.ask_prepared(&probe, &[Term::iri("a")]).unwrap());
        let pattern = Prepared::new("SELECT ?y WHERE { ?s ?r ?y }", &["s"]).unwrap();
        assert!(ep
            .select_prepared(&pattern, &[Term::iri("a")])
            .unwrap()
            .is_empty());
        // Shape mismatch is an error, not a panic: a boolean response
        // refuses to be destructured as rows.
        let boolean = ep.execute(Request::Ask { query: "ASK { }" }).unwrap();
        assert!(boolean.into_rows().is_err());
    }

    #[test]
    fn batch_responds_per_sub_request() {
        let ep = Fake;
        let responses = ep
            .execute_batch(vec![
                Request::Ask { query: "ASK { }" },
                Request::Select {
                    query: "SELECT * { }",
                },
            ])
            .unwrap();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0], Response::Boolean(true));
        assert!(matches!(responses[1], Response::Rows(_)));
    }

    #[test]
    fn a_table_is_one_leaf_answered_per_row() {
        let probe = Prepared::new("ASK { ?s ?r ?o }", &["s", "r"]).unwrap();
        let (a, b) = (
            [Term::iri("a"), Term::iri("p")],
            [Term::iri("b"), Term::iri("p")],
        );
        let rows = [&a[..], &b[..]];
        let table = Request::Table {
            prepared: &probe,
            rows: &rows,
        };
        assert_eq!(table.leaf_count(), 1);
        assert_eq!(
            table.to_sparql().unwrap(),
            "SELECT DISTINCT ?s WHERE { VALUES (?s) { (<a>) (<b>) } ?s <p> ?o . } ORDER BY ?s"
        );
        let answers = Fake.execute_table(&probe, &rows).unwrap();
        assert_eq!(answers, vec![Response::Boolean(true); 2]);
    }

    #[test]
    fn leaf_count_expands_batches() {
        let q = "ASK { }";
        let batch = Request::Batch(vec![
            Request::Ask { query: q },
            Request::Batch(vec![Request::Ask { query: q }, Request::Ask { query: q }]),
        ]);
        assert_eq!(batch.leaf_count(), 3);
        assert_eq!(Request::Ask { query: q }.leaf_count(), 1);
        // A batch has leaves but no single rendering.
        assert!(batch.to_sparql().is_err());
    }

    #[test]
    fn request_buf_round_trips() {
        let prepared = Arc::new(Prepared::new("ASK { ?s ?r ?o }", &["s"]).unwrap());
        let buf = RequestBuf::Batch(vec![
            RequestBuf::Select {
                query: "SELECT * { }".to_owned(),
            },
            RequestBuf::PreparedAsk {
                prepared,
                args: vec![Term::iri("a")],
            },
        ]);
        let req = buf.as_request();
        assert_eq!(req.leaf_count(), 2);
        let ep = Fake;
        let resp = ep.execute(req).unwrap();
        assert_eq!(resp.row_count(), 1); // empty rows + one boolean
    }
}
