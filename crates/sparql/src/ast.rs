//! Abstract syntax tree for the supported SPARQL subset.

use sofya_rdf::Term;

/// A parsed query: either `SELECT` or `ASK`.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A `SELECT` query.
    Select(SelectQuery),
    /// An `ASK` query; `true` iff the pattern has at least one solution.
    Ask(GroupGraphPattern),
}

impl Query {
    /// The query's graph pattern, whichever form it has.
    pub fn pattern(&self) -> &GroupGraphPattern {
        match self {
            Query::Select(select) => &select.pattern,
            Query::Ask(pattern) => pattern,
        }
    }
}

/// A `SELECT` query with its solution modifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// What to project.
    pub projection: Projection,
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
    /// The `WHERE` clause.
    pub pattern: GroupGraphPattern,
    /// `ORDER BY` keys, applied in sequence.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`, if present.
    pub limit: Option<usize>,
    /// `OFFSET`, if present.
    pub offset: Option<usize>,
}

/// The projection part of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *` — all variables in order of first appearance.
    Star,
    /// `SELECT ?a ?b …`.
    Vars(Vec<String>),
    /// `SELECT (COUNT(*) AS ?c)` or `(COUNT(DISTINCT ?v) AS ?c)`.
    Count {
        /// Counted variable; `None` means `COUNT(*)`.
        var: Option<String>,
        /// Whether `DISTINCT` appears inside the aggregate.
        distinct: bool,
        /// The output variable name (after `AS`).
        alias: String,
    },
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// Variable to sort by.
    pub var: String,
    /// `true` for `DESC`.
    pub descending: bool,
}

/// A group graph pattern: a basic graph pattern plus filters, `UNION`
/// blocks, `OPTIONAL` extensions, and at most one inline data table.
///
/// Evaluation order (documented subset semantics): a group with a
/// `VALUES` table runs once per table row, seeded with that row; then
/// the basic pattern is joined; each `UNION` block then joins every
/// solution with each of its branches (concatenating the per-branch
/// results); each `OPTIONAL` left-joins; filters whose variables are
/// bound by the table or the basic pattern run during the join, the rest
/// run at the end of the group.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupGraphPattern {
    /// Inline data (`VALUES`), if the group has a table.
    pub values: Option<ValuesTable>,
    /// Triple patterns, joined conjunctively.
    pub triples: Vec<TriplePatternAst>,
    /// Filter expressions, all of which must evaluate to true.
    pub filters: Vec<Expr>,
    /// `UNION` blocks; each entry is the list of alternative branches.
    /// A single-branch entry is a plain nested group (an inner join).
    pub unions: Vec<Vec<GroupGraphPattern>>,
    /// `OPTIONAL { … }` extensions, left-joined in order.
    pub optionals: Vec<GroupGraphPattern>,
}

/// An inline data table, `VALUES (?a ?b) { (<x> "y") … }`: one or more
/// variables and rows of constants, IRIs and literals only, every row as
/// wide as the variable list.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuesTable {
    /// The columns' variables, by name (without `?`).
    pub vars: Vec<String>,
    /// The rows, back to back: `vars.len()` terms each.
    pub cells: Vec<Term>,
}

impl ValuesTable {
    /// The rows, in order.
    pub fn rows(&self) -> std::slice::Chunks<'_, Term> {
        self.cells.chunks(self.vars.len().max(1))
    }
}

impl GroupGraphPattern {
    /// Whether this group or any group nested in it — a `UNION` branch,
    /// an `OPTIONAL`, an `EXISTS` body — carries a `VALUES` table.
    pub fn has_inline_data(&self) -> bool {
        fn in_expr(expr: &Expr) -> bool {
            match expr {
                Expr::Var(_) | Expr::Const(_) => false,
                Expr::Compare(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                    in_expr(a) || in_expr(b)
                }
                Expr::Not(inner) => in_expr(inner),
                Expr::Call(_, args) => args.iter().any(in_expr),
                Expr::Exists { pattern, .. } => pattern.has_inline_data(),
            }
        }
        self.values.is_some()
            || self.filters.iter().any(in_expr)
            || self.unions.iter().flatten().any(Self::has_inline_data)
            || self.optionals.iter().any(Self::has_inline_data)
    }
}

/// A triple pattern over [`NodePattern`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePatternAst {
    /// Subject position.
    pub s: NodePattern,
    /// Predicate position (variables allowed).
    pub p: NodePattern,
    /// Object position.
    pub o: NodePattern,
}

/// One position of a triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum NodePattern {
    /// A variable, by name (without `?`).
    Var(String),
    /// A constant term.
    Term(Term),
}

impl NodePattern {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            NodePattern::Var(v) => Some(v),
            NodePattern::Term(_) => None,
        }
    }
}

/// Comparison operators in filter expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Built-in functions usable in filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `BOUND(?v)`
    Bound,
    /// `STR(x)`
    Str,
    /// `LANG(x)`
    Lang,
    /// `DATATYPE(x)`
    Datatype,
    /// `ISIRI(x)`
    IsIri,
    /// `ISLITERAL(x)`
    IsLiteral,
    /// `ISBLANK(x)`
    IsBlank,
    /// `STRSTARTS(x, y)`
    StrStarts,
    /// `STRENDS(x, y)`
    StrEnds,
    /// `CONTAINS(x, y)`
    Contains,
    /// `REGEX(x, pattern)` — anchored-substring dialect (see crate docs).
    Regex,
}

/// A filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable reference.
    Var(String),
    /// Constant term (IRI or literal).
    Const(Term),
    /// Binary comparison.
    Compare(CompareOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Built-in function call.
    Call(Builtin, Vec<Expr>),
    /// `EXISTS { … }` (`negated` for `NOT EXISTS`).
    Exists {
        /// The nested pattern.
        pattern: GroupGraphPattern,
        /// Whether this is `NOT EXISTS`.
        negated: bool,
    },
}

impl Expr {
    /// Collects the free variables of the expression (excluding those that
    /// appear only inside `EXISTS` blocks, which are evaluated with their
    /// own scope seeded from the outer binding).
    pub fn free_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Var(v) => out.push(v),
            Expr::Const(_) => {}
            Expr::Compare(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Expr::Not(inner) => inner.free_vars(out),
            Expr::Call(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
            Expr::Exists { .. } => {}
        }
    }
}

/// All variables appearing in a pattern — including its `VALUES` table,
/// `UNION` branches and `OPTIONAL` extensions, but not `EXISTS` filter
/// bodies (those are scoped locally) — in order of first appearance, a
/// group's table first.
pub fn pattern_variables(pattern: &GroupGraphPattern) -> Vec<String> {
    let mut vars: Vec<String> = Vec::new();
    collect_pattern_vars(pattern, &mut vars);
    vars
}

/// Appends the pattern's variables (recursing into unions/optionals) to
/// `vars`, skipping duplicates.
pub fn collect_pattern_vars(pattern: &GroupGraphPattern, vars: &mut Vec<String>) {
    let table = pattern.values.iter().flat_map(|t| &t.vars);
    let triples = pattern.triples.iter().flat_map(|tp| [&tp.s, &tp.p, &tp.o]);
    for v in table
        .map(String::as_str)
        .chain(triples.filter_map(NodePattern::as_var))
    {
        if !vars.iter().any(|existing| existing == v) {
            vars.push(v.to_owned());
        }
    }
    for block in &pattern.unions {
        for branch in block {
            collect_pattern_vars(branch, vars);
        }
    }
    for optional in &pattern.optionals {
        collect_pattern_vars(optional, vars);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_variables_in_first_appearance_order() {
        let pattern = GroupGraphPattern {
            values: None,
            triples: vec![
                TriplePatternAst {
                    s: NodePattern::Var("x".into()),
                    p: NodePattern::Term(Term::iri("p")),
                    o: NodePattern::Var("y".into()),
                },
                TriplePatternAst {
                    s: NodePattern::Var("y".into()),
                    p: NodePattern::Var("p".into()),
                    o: NodePattern::Var("x".into()),
                },
            ],
            filters: vec![],
            unions: vec![],
            optionals: vec![],
        };
        assert_eq!(pattern_variables(&pattern), vec!["x", "y", "p"]);
    }

    #[test]
    fn free_vars_ignores_exists_bodies() {
        let e = Expr::And(
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Exists {
                pattern: GroupGraphPattern::default(),
                negated: true,
            }),
        );
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        assert_eq!(vars, vec!["a"]);
    }

    #[test]
    fn node_pattern_as_var() {
        assert_eq!(NodePattern::Var("x".into()).as_var(), Some("x"));
        assert_eq!(NodePattern::Term(Term::iri("p")).as_var(), None);
    }
}
