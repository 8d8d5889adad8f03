//! Query solutions: the tabular results a SELECT query produces.
//!
//! Rows hold owned [`Term`]s, but the evaluator keeps solutions as flat
//! rows of interned ids through DISTINCT / ORDER BY / OFFSET / LIMIT and
//! only resolves the rows the page returns, so a `ResultSet` never
//! carries more `String` clones than its final size. Consumers that want
//! the terms themselves should use [`ResultSet::into_parts`] instead of
//! cloning out of [`ResultSet::rows`].

use sofya_rdf::Term;

/// A table of solutions: named variables (columns) and rows of optional
/// terms. This is what a remote SPARQL endpoint would serialise as JSON or
/// XML; here it stays in memory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    vars: Vec<String>,
    rows: Vec<Vec<Option<Term>>>,
}

impl ResultSet {
    /// Creates a result set. Every row must have `vars.len()` cells.
    pub fn new(vars: Vec<String>, rows: Vec<Vec<Option<Term>>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == vars.len()));
        Self { vars, rows }
    }

    /// The projected variable names, in projection order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Number of solution rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw rows.
    pub fn rows(&self) -> &[Vec<Option<Term>>] {
        &self.rows
    }

    /// Consumes the result set into `(vars, rows)`, letting callers move
    /// the terms out instead of cloning them.
    pub fn into_parts(self) -> (Vec<String>, Vec<Vec<Option<Term>>>) {
        (self.vars, self.rows)
    }

    /// Iterates over rows.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Option<Term>>> {
        self.rows.iter()
    }

    /// Index of a variable, if projected.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// The cell for `(row, var)`.
    pub fn cell(&self, row: usize, var: &str) -> Option<&Term> {
        let col = self.var_index(var)?;
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// All bound values of one column, skipping unbound cells.
    pub fn column(&self, var: &str) -> Vec<&Term> {
        match self.var_index(var) {
            Some(col) => self.rows.iter().filter_map(|r| r[col].as_ref()).collect(),
            None => Vec::new(),
        }
    }

    /// Convenience: the single integer value of a one-row aggregate result
    /// (e.g. `SELECT (COUNT(*) AS ?c)`).
    pub fn single_integer(&self) -> Option<i64> {
        if self.rows.len() != 1 || self.vars.len() != 1 {
            return None;
        }
        self.rows[0][0].as_ref()?.integer_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultSet {
        ResultSet::new(
            vec!["x".into(), "y".into()],
            vec![
                vec![Some(Term::iri("a")), Some(Term::literal("1"))],
                vec![Some(Term::iri("b")), None],
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let rs = sample();
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        assert_eq!(rs.vars(), &["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn cell_lookup() {
        let rs = sample();
        assert_eq!(rs.cell(0, "x"), Some(&Term::iri("a")));
        assert_eq!(rs.cell(1, "y"), None);
        assert_eq!(rs.cell(0, "zzz"), None);
        assert_eq!(rs.cell(9, "x"), None);
    }

    #[test]
    fn column_skips_unbound() {
        let rs = sample();
        assert_eq!(rs.column("y").len(), 1);
        assert_eq!(rs.column("x").len(), 2);
        assert!(rs.column("nope").is_empty());
    }

    #[test]
    fn single_integer_only_for_one_by_one() {
        let rs = ResultSet::new(vec!["c".into()], vec![vec![Some(Term::integer(7))]]);
        assert_eq!(rs.single_integer(), Some(7));
        assert_eq!(sample().single_integer(), None);
    }
}
