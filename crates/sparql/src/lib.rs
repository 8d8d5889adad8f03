//! # sofya-sparql
//!
//! A SPARQL 1.1 *subset* engine over [`sofya_rdf::TripleStore`].
//!
//! SOFYA's premise is that each knowledge base is only reachable through a
//! SPARQL endpoint, so every data access in this reproduction is phrased as
//! a SPARQL query string and executed by this crate. The supported subset
//! covers all query shapes the paper's algorithms issue:
//!
//! * `SELECT [DISTINCT] (?v… | * | (COUNT(*) AS ?c))` over a basic graph
//!   pattern, with variables allowed in any triple position (including the
//!   predicate — needed for "which relations does entity x have?").
//! * `FILTER` expressions: comparisons (`=`, `!=`, `<`, `<=`, `>`, `>=`),
//!   boolean connectives, `BOUND`, `STR`, `LANG`, `DATATYPE`, `ISIRI`,
//!   `ISLITERAL`, `ISBLANK`, `STRSTARTS`, `STRENDS`, `CONTAINS`,
//!   `REGEX` (anchored-substring dialect), and `[NOT] EXISTS { … }`.
//! * `UNION` blocks and `OPTIONAL` left-joins (documented subset
//!   semantics: basic pattern first, then unions, then optionals, then
//!   group-level filters — see [`ast::GroupGraphPattern`]).
//! * Solution modifiers: `ORDER BY [ASC|DESC]`, `LIMIT`, `OFFSET`.
//! * `ASK { … }`.
//! * An [`unparse`](unparse::unparse) serialiser (AST → text), used by
//!   SOFYA's cross-KB query rewriting.
//!
//! The evaluator performs an index nested-loop join, greedily ordering BGP
//! patterns by estimated selectivity against the store's permutation
//! indexes (see [`plan`]).
//!
//! ```
//! use sofya_rdf::{Term, TripleStore};
//! use sofya_sparql::execute;
//!
//! let mut store = TripleStore::new();
//! store.insert_terms(&Term::iri("e:sinatra"), &Term::iri("r:bornIn"), &Term::iri("e:usa"));
//! let rs = execute(&store, "SELECT ?who WHERE { ?who <r:bornIn> <e:usa> }").unwrap();
//! assert_eq!(rs.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod budget;
pub mod error;
pub mod eval;
pub mod parser;
pub mod plan;
pub mod prepared;
pub mod solution;
pub mod token;
pub mod unparse;
pub mod value;

pub use ast::{Expr, NodePattern, Projection, Query, SelectQuery, TriplePatternAst};
pub use budget::{BudgetBreach, CancelToken, QueryBudget};
pub use error::SparqlError;
pub use eval::{
    compile_ast_with_options, compile_with_options, execute, execute_ask, execute_ast,
    execute_ast_budgeted, execute_compiled, execute_compiled_paged_budgeted, execute_query,
    execute_with_options, CompiledQuery, QueryOutcome,
};
pub use parser::parse_query;
pub use plan::PlanOptions;
pub use prepared::Prepared;
pub use solution::ResultSet;
pub use unparse::unparse;

// Concurrency audit: the service layer shares prepared templates and
// compiled plans across worker threads (`Arc<CompiledQuery>` in sharded
// plan caches, `&'static Prepared` in the endpoint helpers). Keep the
// auto-derived `Send + Sync` bounds pinned so a future interior-mutability
// field fails to compile here instead of deep inside the scheduler.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Prepared>();
    check::<CompiledQuery>();
    check::<Query>();
    check::<ResultSet>();
    check::<QueryOutcome>();
}
