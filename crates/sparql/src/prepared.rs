//! Parameterized prepared queries.
//!
//! SOFYA's aligner issues a handful of fixed query *shapes* over and over
//! with different constants (`ASK { <x> <r> ?y }` for thousands of `x`).
//! Paying tokenizer + parser for every instance is pure overhead: a
//! [`Prepared`] query parses the template **once** and afterwards binds
//! constants directly into a clone of the AST — no string formatting, no
//! re-parse.
//!
//! A template is ordinary SPARQL text in which some variables are declared
//! as parameters by name:
//!
//! ```
//! use sofya_rdf::{Term, TripleStore};
//! use sofya_sparql::Prepared;
//!
//! let probe = Prepared::new("ASK { ?s ?r ?y }", &["s", "r"]).unwrap();
//! let mut store = TripleStore::new();
//! store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
//! let bound = probe.bind(&[Term::iri("a"), Term::iri("p")]).unwrap();
//! let out = sofya_sparql::execute_ast(&store, &bound).unwrap();
//! assert_eq!(out, sofya_sparql::QueryOutcome::Boolean(true));
//! assert_eq!(
//!     probe.render(&[Term::iri("a"), Term::iri("p")]).unwrap(),
//!     "ASK { <a> <p> ?y . }"
//! );
//! ```
//!
//! Binding replaces every occurrence of a parameter variable — in triple
//! patterns, `FILTER` expressions, and nested `UNION` / `OPTIONAL` /
//! `EXISTS` groups — with the corresponding constant term.
//!
//! Endpoints that cannot execute an AST directly (remote HTTP endpoints)
//! send [`Prepared::render`]'s text instead. [`Prepared::new`] unparses
//! the template once, without its `LIMIT`/`OFFSET`, and cuts the text at
//! every parameter; a render writes the segments with the arguments
//! between them and then the page, nothing cloned from the AST. The text
//! is byte for byte [`crate::unparse()`] of the bound query. An argument
//! that text would not parse back as — an IRI holding `>`, a blank-node
//! label the lexer would end early, a literal as a predicate — is refused
//! with [`SparqlError::Unrenderable`], so a term from an untrusted source
//! cannot add patterns to the query it is spliced into.
//!
//! # Many rows in one query
//!
//! [`Prepared::table`] binds a template to a whole table of argument
//! rows at once, as one standard SPARQL 1.1 query whose rows arrive as
//! inline data, and [`BoundTable::split`] turns its answer back into one
//! answer per row, each what that row's own query answers:
//!
//! ```
//! use sofya_rdf::{Term, TripleStore};
//! use sofya_sparql::{execute_ast, Prepared, QueryOutcome};
//!
//! let probe = Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
//! let mut store = TripleStore::new();
//! store.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
//! let hit = [Term::iri("a"), Term::iri("p"), Term::iri("b")];
//! let miss = [Term::iri("b"), Term::iri("p"), Term::iri("a")];
//! let table = probe.table(&[&hit[..], &miss[..], &hit[..]]).unwrap();
//! assert_eq!(
//!     table.render().unwrap(),
//!     "SELECT DISTINCT ?s ?o WHERE { VALUES (?s ?o) { (<a> <b>) (<b> <a>) } \
//!      ?s <p> ?o . } ORDER BY ?s ?o"
//! );
//! let QueryOutcome::Solutions(rows) = execute_ast(&store, &table.query()).unwrap() else {
//!     unreachable!("a table query is a SELECT")
//! };
//! let answers = table.split(rows).unwrap();
//! assert_eq!(answers, [true, false, true].map(QueryOutcome::Boolean));
//! ```
//!
//! The parameters whose arguments differ between rows are the table's
//! **key columns**: they stay variables, fill the `VALUES` table, and are
//! projected and ordered by first, so every answer row names the table
//! row it belongs to. A parameter with one argument in every row is bound
//! as a constant, as [`Prepared::bind`] binds it; with none differing,
//! the first parameter is the key. Repeated rows are asked once and
//! answered as often as they were given. An `ASK` template becomes
//! `SELECT DISTINCT` of its keys: a row is true when its key comes back.
//! A `SELECT` row's answer keeps the template's own `ORDER BY`, which
//! therefore decides the order within a row; paged, `COUNT` and `*`
//! templates have no per-row reading and are refused.

use crate::ast::{Expr, GroupGraphPattern, NodePattern, OrderKey, Projection, Query, ValuesTable};
use crate::error::SparqlError;
use crate::eval::QueryOutcome;
use crate::parser::parse_query;
use crate::solution::ResultSet;
use crate::unparse::{
    unparse_template, write_page, write_values, write_vars, writes_as_itself, Hole, Marks, Place,
};
use sofya_rdf::Term;
use std::collections::HashMap;
use std::fmt::Write;

/// A parse-once query template with named constant parameters.
#[derive(Debug, Clone)]
pub struct Prepared {
    query: Query,
    params: Vec<String>,
    /// The template's text without its `LIMIT`/`OFFSET`, parameters cut
    /// out; `holes` says where, in text order.
    text: String,
    holes: Vec<Hole>,
    /// Where [`Prepared::table`]'s render writes into `text`.
    marks: Marks,
    /// Process-unique template identity (shared by clones), so endpoint
    /// plan caches can key compiled bound plans by `(template, args)`
    /// without serialising the query.
    token: u64,
}

impl Prepared {
    /// Parses `template` and declares the variables named in `params`
    /// (without the `?` sigil) as bind-time constants, in order.
    ///
    /// Every parameter must occur in the template's graph pattern, and
    /// none may appear in the projection or `ORDER BY` (a constant cannot
    /// be projected or sorted by). A template carries no `VALUES` table:
    /// [`Prepared::table`] is how rows are given.
    pub fn new(template: &str, params: &[&str]) -> Result<Self, SparqlError> {
        let query = parse_query(template)?;
        if query.pattern().has_inline_data() {
            return Err(SparqlError::parse(
                "a prepared template carries no VALUES table",
            ));
        }
        let params: Vec<String> = params.iter().map(|p| (*p).to_owned()).collect();
        for (i, param) in params.iter().enumerate() {
            if params[..i].contains(param) {
                return Err(SparqlError::parse(format!(
                    "duplicate prepared parameter ?{param}"
                )));
            }
        }
        let mut pattern_vars = Vec::new();
        template_vars(query.pattern(), &mut pattern_vars);
        for param in &params {
            if !pattern_vars.contains(param) {
                return Err(SparqlError::parse(format!(
                    "prepared parameter ?{param} does not occur in the template pattern"
                )));
            }
        }
        if let Query::Select(s) = &query {
            for param in &params {
                // `SELECT *` projects every pattern variable, and COUNT(?v)
                // aggregates over one — binding either away at execution
                // time would silently change the result shape.
                let projected = match &s.projection {
                    Projection::Vars(vars) => vars.contains(param),
                    Projection::Star => true,
                    Projection::Count { var, .. } => var.as_ref() == Some(param),
                };
                if projected || s.order_by.iter().any(|k| &k.var == param) {
                    return Err(SparqlError::parse(format!(
                        "prepared parameter ?{param} cannot be projected or ordered by"
                    )));
                }
            }
        }
        static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let (text, holes, marks) = unparse_template(&query, &params);
        Ok(Self {
            query,
            params,
            text,
            holes,
            marks,
            token: NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// A process-unique identity for this template (clones share it).
    /// Endpoint plan caches combine it with the rendered arguments to key
    /// compiled bound plans.
    pub fn cache_token(&self) -> u64 {
        self.token
    }

    /// Binds `args` (one term per parameter, in declaration order) into a
    /// clone of the template AST.
    pub fn bind(&self, args: &[Term]) -> Result<Query, SparqlError> {
        self.check_arity(args)?;
        let mut query = self.query.clone();
        match &mut query {
            Query::Select(s) => bind_group(&mut s.pattern, &self.params, args),
            Query::Ask(p) => bind_group(p, &self.params, args),
        }
        Ok(query)
    }

    fn check_arity(&self, args: &[Term]) -> Result<(), SparqlError> {
        if args.len() == self.params.len() {
            return Ok(());
        }
        Err(SparqlError::eval(format!(
            "prepared query expects {} argument(s), got {}",
            self.params.len(),
            args.len()
        )))
    }

    /// What [`Prepared::bind`] would substitute, read through instead of
    /// cloned in, for callers that only inspect the bound query: the
    /// template's graph pattern as written, and the argument a variable
    /// name stands for (`None` for a variable that is not a parameter).
    pub fn pattern_with<'a>(
        &'a self,
        args: &'a [Term],
    ) -> Result<(&'a GroupGraphPattern, impl Fn(&str) -> Option<&'a Term>), SparqlError> {
        self.check_arity(args)?;
        Ok((self.query.pattern(), move |name: &str| {
            lookup(&self.params, args, name)
        }))
    }

    /// The SPARQL text of the bound query, for endpoints that only speak
    /// strings: [`crate::unparse()`] of [`Prepared::bind`]'s query, byte
    /// for byte, spliced from the template's text. Errors with
    /// [`SparqlError::Unrenderable`] on an argument that text would not
    /// parse back as.
    pub fn render(&self, args: &[Term]) -> Result<String, SparqlError> {
        match &self.query {
            Query::Select(s) => self.splice(args, s.limit, s.offset),
            Query::Ask(_) => self.splice(args, None, None),
        }
    }

    /// The template's text with `args` in its holes, then the page.
    fn splice(
        &self,
        args: &[Term],
        limit: Option<usize>,
        offset: Option<usize>,
    ) -> Result<String, SparqlError> {
        self.check_arity(args)?;
        let mut out = String::with_capacity(self.text.len() + 64 * self.holes.len());
        let mut from = 0;
        for hole in &self.holes {
            let arg = &args[hole.param];
            if !writes_as_itself(arg, hole.place) {
                return Err(SparqlError::Unrenderable { term: arg.clone() });
            }
            out.push_str(&self.text[from..hole.at]);
            let _ = write!(out, "{arg}");
            from = hole.at;
        }
        out.push_str(&self.text[from..]);
        write_page(&mut out, limit, offset);
        Ok(out)
    }

    /// Whether the template is a `SELECT` (as opposed to an `ASK`).
    pub fn is_select(&self) -> bool {
        matches!(self.query, Query::Select(_))
    }

    /// Binds `args` and then overrides the template's `LIMIT` / `OFFSET`
    /// structurally — the paged-query fast path. The aligner's paging
    /// shapes vary `LIMIT`/`OFFSET` on every call, so threading them
    /// through the AST (instead of formatting a fresh query string per
    /// page) keeps pagination on the zero-parse path.
    ///
    /// `None` leaves the template's own modifier untouched. Errors on
    /// `ASK` templates, which have no solution sequence to page.
    pub fn bind_paged(
        &self,
        args: &[Term],
        limit: Option<usize>,
        offset: Option<usize>,
    ) -> Result<Query, SparqlError> {
        let mut query = self.bind(args)?;
        match &mut query {
            Query::Select(s) => {
                if limit.is_some() {
                    s.limit = limit;
                }
                if offset.is_some() {
                    s.offset = offset;
                }
            }
            Query::Ask(_) => return Err(ask_paged()),
        }
        Ok(query)
    }

    /// [`Prepared::render`] with a `LIMIT`/`OFFSET` override: byte for
    /// byte [`crate::unparse()`] of [`Prepared::bind_paged`]'s query
    /// (each page is a distinct string, so string-keyed caches stay
    /// correct).
    pub fn render_paged(
        &self,
        args: &[Term],
        limit: Option<usize>,
        offset: Option<usize>,
    ) -> Result<String, SparqlError> {
        match &self.query {
            Query::Select(s) => self.splice(args, limit.or(s.limit), offset.or(s.offset)),
            Query::Ask(_) => Err(ask_paged()),
        }
    }
}

impl Prepared {
    /// Binds the template to a table of argument rows (each one argument
    /// per parameter), as one query with the rows as inline data: see
    /// the module docs. Refuses a paged, `COUNT`, `*` or parameterless
    /// template, a row of the wrong arity, and a key cell that would not
    /// read back from text as itself (a blank node, say).
    pub fn table<'a>(&'a self, rows: &[&'a [Term]]) -> Result<BoundTable<'a>, SparqlError> {
        if let Query::Select(s) = &self.query {
            let refusal = match s.projection {
                _ if s.limit.is_some() || s.offset.is_some() => Some("a paged"),
                Projection::Count { .. } => Some("a COUNT"),
                Projection::Star => Some("a SELECT *"),
                Projection::Vars(_) => None,
            };
            if let Some(what) = refusal {
                return Err(SparqlError::eval(format!(
                    "{what} template has no per-row answer to table"
                )));
            }
        }
        if self.params.is_empty() {
            return Err(SparqlError::eval(
                "a template without parameters has no rows to table",
            ));
        }
        let mut distinct: Vec<&'a [Term]> = Vec::new();
        let mut fan = Vec::with_capacity(rows.len());
        let mut seen: HashMap<&[Term], usize> = HashMap::with_capacity(rows.len());
        for &row in rows {
            self.check_arity(row)?;
            fan.push(*seen.entry(row).or_insert_with(|| {
                distinct.push(row);
                distinct.len() - 1
            }));
        }
        let varies = |i: usize| distinct.iter().any(|row| row[i] != distinct[0][i]);
        let mut keys: Vec<usize> = (0..self.params.len()).filter(|&i| varies(i)).collect();
        if keys.is_empty() {
            keys.push(0);
        }
        for &key in &keys {
            if let Some(row) = distinct
                .iter()
                .find(|row| !writes_as_itself(&row[key], Place::Expr))
            {
                return Err(SparqlError::Unrenderable {
                    term: row[key].clone(),
                });
            }
        }
        Ok(BoundTable {
            prepared: self,
            keys,
            distinct,
            fan,
        })
    }
}

/// A [`Prepared`] template bound to a table of argument rows (see
/// [`Prepared::table`]): the one query to send, and how its answer
/// splits back into one per row.
#[derive(Debug, Clone)]
pub struct BoundTable<'a> {
    prepared: &'a Prepared,
    /// The parameters tabled as `VALUES` columns, in parameter order;
    /// never empty.
    keys: Vec<usize>,
    /// The rows to send: each distinct row once, first occurrence first.
    distinct: Vec<&'a [Term]>,
    /// For each row given, the distinct row it is.
    fan: Vec<usize>,
}

impl BoundTable<'_> {
    fn key_names(&self) -> impl Iterator<Item = &str> + Clone {
        self.keys.iter().map(|&i| self.prepared.params[i].as_str())
    }

    /// The argument of a parameter bound as a constant; `None` for a key.
    fn constant(&self, param: usize) -> Option<&Term> {
        match self.keys.binary_search(&param) {
            Ok(_) => None,
            Err(_) => self.distinct.first().map(|row| &row[param]),
        }
    }

    /// The table's query as an AST: what [`BoundTable::render`]'s text
    /// reads back as, and the reference that text is held to.
    pub fn query(&self) -> Query {
        let p = self.prepared;
        let (params, args): (Vec<String>, Vec<Term>) = (0..p.params.len())
            .filter_map(|i| Some((p.params[i].clone(), self.constant(i)?.clone())))
            .unzip();
        let keys: Vec<String> = self.key_names().map(str::to_owned).collect();
        let order = keys.iter().map(|var| OrderKey {
            var: var.clone(),
            descending: false,
        });
        let table = ValuesTable {
            vars: keys.clone(),
            cells: self
                .distinct
                .iter()
                .flat_map(|row| self.keys.iter().map(|&i| row[i].clone()))
                .collect(),
        };
        let mut query = p.query.clone();
        match &mut query {
            Query::Select(s) => {
                bind_group(&mut s.pattern, &params, &args);
                s.pattern.values = Some(table);
                if let Projection::Vars(vars) = &mut s.projection {
                    vars.splice(0..0, keys.iter().cloned());
                }
                s.order_by.splice(0..0, order);
            }
            Query::Ask(pattern) => {
                let mut pattern = std::mem::take(pattern);
                bind_group(&mut pattern, &params, &args);
                pattern.values = Some(table);
                query = Query::Select(crate::ast::SelectQuery {
                    projection: Projection::Vars(keys.clone()),
                    distinct: true,
                    pattern,
                    order_by: order.collect(),
                    limit: None,
                    offset: None,
                });
            }
        }
        query
    }

    /// The SPARQL text of [`BoundTable::query`], byte for byte
    /// [`crate::unparse()`] of it, spliced from the template's text:
    /// keys before the projection (an `ASK` template's head becomes
    /// `SELECT DISTINCT` of them), the table just inside the group,
    /// constants in their holes, keys first in `ORDER BY`. Errors with
    /// [`SparqlError::Unrenderable`] on a constant that text would not
    /// parse back as.
    ///
    /// Spliced, not `unparse(&self.query())`, which clones the template's
    /// tree and every cell: on a 2-vCPU x86 host that read ≈9.5 µs
    /// against ≈6 µs for a 16-row table, and the `federated_align`
    /// benchmark's `op_p50_us` ≈7 % higher over 20 alternating pairs.
    pub fn render(&self) -> Result<String, SparqlError> {
        let p = self.prepared;
        let Marks {
            projection,
            group,
            order,
        } = p.marks;
        let width = self.keys.len() * 24 + 16;
        let mut out = String::with_capacity(p.text.len() + width * (self.distinct.len() + 1));
        let from = match p.query {
            Query::Ask(_) => {
                out.push_str("SELECT DISTINCT ");
                write_vars(&mut out, self.key_names());
                out.push_str(" WHERE ");
                "ASK ".len()
            }
            Query::Select(_) => {
                out.push_str(&p.text[..projection]);
                write_vars(&mut out, self.key_names());
                out.push(' ');
                projection
            }
        };
        out.push_str(&p.text[from..group]);
        write_values(
            &mut out,
            self.key_names(),
            self.distinct
                .iter()
                .map(|row| self.keys.iter().map(move |&i| &row[i])),
        );
        let mut from = group;
        for hole in &p.holes {
            out.push_str(&p.text[from..hole.at]);
            match self.constant(hole.param) {
                Some(arg) if !writes_as_itself(arg, hole.place) => {
                    return Err(SparqlError::Unrenderable { term: arg.clone() });
                }
                Some(arg) => {
                    let _ = write!(out, "{arg}");
                }
                None => {
                    out.push('?');
                    out.push_str(&p.params[hole.param]);
                }
            }
            from = hole.at;
        }
        match order {
            Some(at) => {
                out.push_str(&p.text[from..at]);
                out.push(' ');
                write_vars(&mut out, self.key_names());
                out.push_str(&p.text[at..]);
            }
            None => {
                out.push_str(&p.text[from..]);
                out.push_str(" ORDER BY ");
                write_vars(&mut out, self.key_names());
            }
        }
        Ok(out)
    }

    /// Splits the answer to [`BoundTable::query`] into the answer of each
    /// row given, in order: an `ASK` template's row is true when its key
    /// came back, a `SELECT` row's answer is the rows under its key with
    /// the key columns cut off. Errors on an answer whose head is not
    /// the table's, or with a row under no key of the table.
    pub fn split(&self, answer: ResultSet) -> Result<Vec<QueryOutcome>, SparqlError> {
        let k = self.keys.len();
        let projected: &[String] = match &self.prepared.query {
            Query::Select(s) => match &s.projection {
                Projection::Vars(vars) => vars,
                _ => &[],
            },
            Query::Ask(_) => &[],
        };
        let (vars, rows) = answer.into_parts();
        let head_fits = vars.len() == k + projected.len()
            && vars.iter().map(String::as_str).take(k).eq(self.key_names())
            && vars[k..] == *projected;
        if !head_fits {
            return Err(SparqlError::eval(format!(
                "a table answer's head {vars:?} is not its query's"
            )));
        }
        let index: HashMap<Vec<&Term>, usize> = (self.distinct.iter().enumerate())
            .map(|(i, row)| (self.keys.iter().map(|&key| &row[key]).collect(), i))
            .collect();
        // `None` for a row whose key never came back.
        let mut under: Vec<Option<Vec<Vec<Option<Term>>>>> = vec![None; self.distinct.len()];
        for mut row in rows {
            let key: Vec<&Term> = row[..k].iter().flatten().collect();
            let Some(&i) = index.get(&key) else {
                return Err(SparqlError::eval(
                    "a table answer holds a row under no key of the table",
                ));
            };
            under[i].get_or_insert_with(Vec::new).push(row.split_off(k));
        }
        let answers: Vec<QueryOutcome> = (under.into_iter())
            .map(|rows| match self.prepared.is_select() {
                true => QueryOutcome::Solutions(ResultSet::new(
                    projected.to_vec(),
                    rows.unwrap_or_default(),
                )),
                false => QueryOutcome::Boolean(rows.is_some()),
            })
            .collect();
        // Distinct rows are numbered in order of first appearance, so
        // with no repeats the answers are in the rows' order already.
        if self.fan.len() == answers.len() {
            return Ok(answers);
        }
        Ok(self.fan.iter().map(|&i| answers[i].clone()).collect())
    }
}

fn ask_paged() -> SparqlError {
    SparqlError::eval("LIMIT/OFFSET cannot be applied to an ASK template")
}

fn lookup<'a>(params: &[String], args: &'a [Term], name: &str) -> Option<&'a Term> {
    params.iter().position(|p| p == name).map(|i| &args[i])
}

/// Every variable of the group tree, including those only referenced by
/// filter expressions and `EXISTS` sub-patterns (unlike
/// [`crate::ast::collect_pattern_vars`], which only walks triple
/// positions — parameters may legitimately appear in filters only).
fn template_vars(group: &GroupGraphPattern, vars: &mut Vec<String>) {
    crate::ast::collect_pattern_vars(group, vars);
    fn expr_vars(expr: &Expr, vars: &mut Vec<String>) {
        match expr {
            Expr::Var(v) => {
                if !vars.iter().any(|existing| existing == v) {
                    vars.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Compare(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                expr_vars(a, vars);
                expr_vars(b, vars);
            }
            Expr::Not(inner) => expr_vars(inner, vars),
            Expr::Call(_, args) => args.iter().for_each(|a| expr_vars(a, vars)),
            Expr::Exists { pattern, .. } => template_vars(pattern, vars),
        }
    }
    fn filter_walk(group: &GroupGraphPattern, vars: &mut Vec<String>) {
        group.filters.iter().for_each(|f| expr_vars(f, vars));
        for block in &group.unions {
            block.iter().for_each(|b| filter_walk(b, vars));
        }
        group.optionals.iter().for_each(|o| filter_walk(o, vars));
    }
    filter_walk(group, vars);
}

fn bind_group(group: &mut GroupGraphPattern, params: &[String], args: &[Term]) {
    for triple in &mut group.triples {
        for node in [&mut triple.s, &mut triple.p, &mut triple.o] {
            if let NodePattern::Var(name) = node {
                if let Some(term) = lookup(params, args, name) {
                    *node = NodePattern::Term(term.clone());
                }
            }
        }
    }
    for filter in &mut group.filters {
        bind_expr(filter, params, args);
    }
    for block in &mut group.unions {
        for branch in block {
            bind_group(branch, params, args);
        }
    }
    for optional in &mut group.optionals {
        bind_group(optional, params, args);
    }
}

fn bind_expr(expr: &mut Expr, params: &[String], args: &[Term]) {
    match expr {
        Expr::Var(name) => {
            if let Some(term) = lookup(params, args, name) {
                *expr = Expr::Const(term.clone());
            }
        }
        Expr::Const(_) => {}
        Expr::Compare(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            bind_expr(a, params, args);
            bind_expr(b, params, args);
        }
        Expr::Not(inner) => bind_expr(inner, params, args),
        Expr::Call(_, call_args) => {
            for a in call_args {
                bind_expr(a, params, args);
            }
        }
        Expr::Exists { pattern, .. } => bind_group(pattern, params, args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{execute, execute_ask, execute_ast};
    use crate::QueryOutcome;
    use sofya_rdf::TripleStore;

    fn demo_store() -> TripleStore {
        let mut s = TripleStore::new();
        s.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:b"));
        s.insert_terms(&Term::iri("e:a"), &Term::iri("r:q"), &Term::iri("e:c"));
        s.insert_terms(&Term::iri("e:b"), &Term::iri("r:p"), &Term::iri("e:c"));
        s
    }

    #[test]
    fn bound_ask_matches_string_query() {
        let store = demo_store();
        let probe = Prepared::new("ASK { ?s ?r ?y }", &["s", "r"]).unwrap();
        for (s, r, want) in [
            ("e:a", "r:p", true),
            ("e:a", "r:q", true),
            ("e:c", "r:p", false),
        ] {
            let bound = probe.bind(&[Term::iri(s), Term::iri(r)]).unwrap();
            let direct = execute_ast(&store, &bound).unwrap();
            let via_string = execute_ask(&store, &format!("ASK {{ <{s}> <{r}> ?y }}")).unwrap();
            assert_eq!(direct, QueryOutcome::Boolean(want));
            assert_eq!(via_string, want);
        }
    }

    #[test]
    fn bound_select_matches_string_query() {
        let store = demo_store();
        let q = Prepared::new(
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
            &["s", "o"],
        )
        .unwrap();
        let bound = q.bind(&[Term::iri("e:a"), Term::iri("e:b")]).unwrap();
        let QueryOutcome::Solutions(rs) = execute_ast(&store, &bound).unwrap() else {
            panic!("expected solutions");
        };
        let oracle = execute(
            &store,
            "SELECT DISTINCT ?p WHERE { <e:a> ?p <e:b> } ORDER BY ?p",
        )
        .unwrap();
        assert_eq!(rs, oracle);
    }

    #[test]
    fn render_produces_equivalent_text() {
        let store = demo_store();
        let probe = Prepared::new("ASK { ?s ?r ?y }", &["s", "r"]).unwrap();
        let text = probe.render(&[Term::iri("e:a"), Term::iri("r:p")]).unwrap();
        assert!(execute_ask(&store, &text).unwrap());
    }

    #[test]
    fn binds_inside_filters_and_exists() {
        let store = demo_store();
        let q = Prepared::new(
            "SELECT ?x { ?x <r:p> ?y FILTER NOT EXISTS { ?x <r:q> ?c } }",
            &["c"],
        )
        .unwrap();
        let bound = q.bind(&[Term::iri("e:c")]).unwrap();
        let QueryOutcome::Solutions(rs) = execute_ast(&store, &bound).unwrap() else {
            panic!("expected solutions");
        };
        // e:a has r:q→e:c, so only e:b survives.
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("e:b")));
    }

    /// A term whose text would close its own token and open others is
    /// refused: spliced as is, this IRI made the probe two patterns,
    /// true on a store where the bound query is false.
    #[test]
    fn render_refuses_an_argument_that_would_add_patterns() {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:q"), &Term::iri("e:b"));
        store.insert_terms(&Term::iri("e:c"), &Term::iri("r:p"), &Term::iri("e:d"));
        let probe = Prepared::new("ASK { ?s <r:p> ?o }", &["s"]).unwrap();
        let hostile = Term::iri("e:a><r:q><e:b>.<e:c");
        let bound = probe.bind(std::slice::from_ref(&hostile)).unwrap();
        assert_eq!(
            execute_ast(&store, &bound).unwrap(),
            QueryOutcome::Boolean(false)
        );
        let spliced = "ASK { <e:a><r:q><e:b>.<e:c> <r:p> ?o . }";
        assert!(execute_ask(&store, spliced).unwrap());
        assert_eq!(
            probe.render(std::slice::from_ref(&hostile)),
            Err(SparqlError::Unrenderable { term: hostile })
        );
        let label = Term::bnode("x . ?s ?p ?o");
        assert_eq!(
            probe.render(std::slice::from_ref(&label)),
            Err(SparqlError::Unrenderable { term: label })
        );
        assert_eq!(
            probe.render(&[Term::iri("e:a")]).unwrap(),
            "ASK { <e:a> <r:p> ?o . }"
        );
    }

    #[test]
    fn literal_arguments_bind() {
        let mut store = TripleStore::new();
        store.insert_terms(
            &Term::iri("e:a"),
            &Term::iri("r:name"),
            &Term::literal("Ann"),
        );
        let probe = Prepared::new("ASK { ?s <r:name> ?v }", &["s", "v"]).unwrap();
        let hit = probe
            .bind(&[Term::iri("e:a"), Term::literal("Ann")])
            .unwrap();
        let miss = probe
            .bind(&[Term::iri("e:a"), Term::literal("Bob")])
            .unwrap();
        assert_eq!(
            execute_ast(&store, &hit).unwrap(),
            QueryOutcome::Boolean(true)
        );
        assert_eq!(
            execute_ast(&store, &miss).unwrap(),
            QueryOutcome::Boolean(false)
        );
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let probe = Prepared::new("ASK { ?s <r:p> ?y }", &["s"]).unwrap();
        assert!(probe.bind(&[]).is_err());
        assert!(probe.bind(&[Term::iri("a"), Term::iri("b")]).is_err());
    }

    #[test]
    fn unknown_parameter_is_rejected() {
        assert!(Prepared::new("ASK { ?s <r:p> ?y }", &["ghost"]).is_err());
    }

    #[test]
    fn duplicate_parameter_is_rejected() {
        assert!(Prepared::new("ASK { ?s <r:p> ?y }", &["s", "s"]).is_err());
    }

    #[test]
    fn star_and_count_projections_reject_parameters() {
        assert!(Prepared::new("SELECT * { ?s <r:p> ?y }", &["s"]).is_err());
        assert!(Prepared::new("SELECT (COUNT(?y) AS ?n) { ?s <r:p> ?y }", &["y"]).is_err());
        // COUNT(*) and COUNT over a different variable are fine.
        assert!(Prepared::new("SELECT (COUNT(*) AS ?n) { ?s <r:p> ?y }", &["s"]).is_ok());
        assert!(Prepared::new("SELECT (COUNT(?y) AS ?n) { ?s <r:p> ?y }", &["s"]).is_ok());
    }

    #[test]
    fn bind_paged_overrides_limit_and_offset() {
        let store = demo_store();
        let q = Prepared::new("SELECT ?y WHERE { ?s ?p ?y } ORDER BY ?y", &["s"]).unwrap();
        let all = {
            let QueryOutcome::Solutions(rs) =
                execute_ast(&store, &q.bind(&[Term::iri("e:a")]).unwrap()).unwrap()
            else {
                panic!("expected solutions");
            };
            rs
        };
        assert_eq!(all.len(), 2);
        for (limit, offset) in [(Some(1), None), (Some(1), Some(1)), (None, Some(1))] {
            let bound = q.bind_paged(&[Term::iri("e:a")], limit, offset).unwrap();
            let QueryOutcome::Solutions(page) = execute_ast(&store, &bound).unwrap() else {
                panic!("expected solutions");
            };
            let mut text = "SELECT ?y WHERE { <e:a> ?p ?y } ORDER BY ?y".to_owned();
            if let Some(l) = limit {
                text.push_str(&format!(" LIMIT {l}"));
            }
            if let Some(o) = offset {
                text.push_str(&format!(" OFFSET {o}"));
            }
            let oracle = execute(&store, &text).unwrap();
            assert_eq!(page, oracle, "limit {limit:?} offset {offset:?}");
        }
    }

    #[test]
    fn bind_paged_none_keeps_template_modifiers() {
        let store = demo_store();
        let q = Prepared::new("SELECT ?y WHERE { ?s ?p ?y } ORDER BY ?y LIMIT 1", &["s"]).unwrap();
        let bound = q.bind_paged(&[Term::iri("e:a")], None, None).unwrap();
        let QueryOutcome::Solutions(rs) = execute_ast(&store, &bound).unwrap() else {
            panic!("expected solutions");
        };
        assert_eq!(rs.len(), 1, "template's own LIMIT 1 must survive");
    }

    #[test]
    fn bind_paged_rejects_ask_and_render_paged_round_trips() {
        let ask = Prepared::new("ASK { ?s <r:p> ?y }", &["s"]).unwrap();
        assert!(ask.bind_paged(&[Term::iri("e:a")], Some(1), None).is_err());
        assert!(!ask.is_select());

        let store = demo_store();
        let q = Prepared::new("SELECT ?y WHERE { ?s ?p ?y } ORDER BY ?y", &["s"]).unwrap();
        assert!(q.is_select());
        let text = q
            .render_paged(&[Term::iri("e:a")], Some(1), Some(1))
            .unwrap();
        let via_string = execute(&store, &text).unwrap();
        let QueryOutcome::Solutions(direct) = execute_ast(
            &store,
            &q.bind_paged(&[Term::iri("e:a")], Some(1), Some(1)).unwrap(),
        )
        .unwrap() else {
            panic!("expected solutions");
        };
        assert_eq!(via_string, direct);
    }

    #[test]
    fn projected_parameter_is_rejected() {
        assert!(Prepared::new("SELECT ?s { ?s <r:p> ?y }", &["s"]).is_err());
        assert!(Prepared::new("SELECT ?y { ?s <r:p> ?y } ORDER BY ?s", &["s"]).is_err());
    }
}
